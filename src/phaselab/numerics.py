"""The learner's backward pass, Adam, checkpoints and typed JSON config sections.

Parameters are plain ``dict[str, np.ndarray]``. The Q-networks are fused
kernels (see ``networks``): asked for it, a forward returns the Q-values of
the taken actions and its hand-derived VJP next to them. ``backward`` puts
the learner's weighted Huber loss on top of that VJP, so one call is the
whole backward pass of a learner step.

Nothing mutates a parameter array: each one the lab makes is ``read_only``,
so a write raises ValueError, and ``adam_update`` returns a fresh set.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

Params = dict[str, np.ndarray]
Vjp = Callable[[np.ndarray], Params]  # gradient of the taken Q [B] -> gradient per parameter


def backward(
    vjp: Vjp, q: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> tuple[float, Params]:
    """(loss, grads) of the weighted Huber loss (delta 1) of a batch.

    ``q`` [B] holds each row's Q-value at its taken action, as a forward
    given the actions returns it, and ``vjp`` the map it returned from
    d loss / d q to the gradient of each named parameter. Row i contributes
    ``weights[i] * H(q[i] - targets[i])``; the loss is the mean over the B
    rows.
    """
    if q.ndim != 1 or targets.shape != q.shape or weights.shape != q.shape:
        raise ValueError(
            f"backward: q, targets and weights need one shape (B,), "
            f"got {q.shape}, {targets.shape} and {weights.shape}"
        )
    batch = len(q)
    r = q - targets
    absr = np.abs(r)
    h = np.where(absr <= 1.0, 0.5 * r * r, absr - 0.5)
    g_q = np.clip(r, -1.0, 1.0) * weights * (1.0 / batch)
    return float((weights * h).sum() / batch), vjp(g_q)


# --- optimizer ---------------------------------------------------------------

@dataclass
class AdamState:
    """Step count and the first/second moments, one flat vector each, laid
    out like the parameters: in ``params`` order, each array raveled."""

    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))


def read_only(params: Params) -> Params:
    """``params``, each array marked read-only, so that a write raises."""
    for a in params.values():
        a.flags.writeable = False
    return params


def _flat(arrays: Iterable[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in arrays])


def _views(flat: np.ndarray, like: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Named views into ``flat``, laid out and shaped like ``like``'s arrays."""
    out: dict[str, np.ndarray] = {}
    offset = 0
    for name, a in like.items():
        out[name] = flat[offset : offset + a.size].reshape(a.shape)
        offset += a.size
    return out


def adam_init(params: Mapping[str, np.ndarray]) -> AdamState:
    size = sum(a.size for a in params.values())
    return AdamState(step=0, m=np.zeros(size), v=np.zeros(size))


def adam_update(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> dict[str, np.ndarray]:
    """One Adam step with bias correction on the flat parameter vector;
    returns fresh parameter arrays, read-only views into one new flat vector.

    A non-finite gradient raises before the state changes."""
    if set(params) != set(grads):
        raise ValueError("params and grads must have identical key sets")
    g = _flat(grads[name] for name in params)
    if not np.isfinite(g).all():
        bad = next(name for name in params if not np.isfinite(grads[name]).all())
        raise ValueError(f"non-finite gradient for parameter {bad!r}")
    state.step += 1
    t = state.step
    state.m = beta1 * state.m + (1.0 - beta1) * g
    state.v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = state.m / (1.0 - beta1**t)
    v_hat = state.v / (1.0 - beta2**t)
    theta = _flat(params.values()) - lr * m_hat / (np.sqrt(v_hat) + eps)
    theta.flags.writeable = False  # the named views inherit the flag
    return _views(theta, params)


# --- checkpoints --------------------------------------------------------------

def array_files(path: str | Path, arrays: Mapping[str, np.ndarray]) -> dict[Path, bytes]:
    """Encode named arrays as ``path`` (raw little-endian) plus a JSON manifest.

    The manifest sits next to the binary with a ``.json`` suffix and lists
    (name, shape, dtype, byte offset) per array in name order.
    """
    path = Path(path)
    manifest = []
    offset = 0
    blobs = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype="<f8")
        blob = arr.tobytes()
        manifest.append(
            {"name": name, "shape": list(arr.shape), "dtype": "<f8", "offset": offset}
        )
        blobs.append(blob)
        offset += len(blob)
    text = json.dumps({"byte_order": "little", "arrays": manifest}, indent=2, sort_keys=True)
    return {path: b"".join(blobs), path.with_suffix(".json"): text.encode()}


def write_files(files: Mapping[Path, bytes]) -> None:
    """Write every file to a temporary name beside it, then rename each over
    its target. A failure while writing leaves the previous files untouched;
    no temporary file outlives the call."""
    staged = [(path.with_name(f".{path.name}.tmp"), path) for path in files]
    try:
        for tmp, path in staged:
            tmp.write_bytes(files[path])
        for tmp, path in staged:
            tmp.replace(path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def save_arrays(path: str | Path, arrays: Mapping[str, np.ndarray]) -> Path:
    """Write named arrays and their manifest (see :func:`array_files`)."""
    write_files(array_files(path, arrays))
    return Path(path)


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    path = Path(path)
    manifest = json.loads(path.with_suffix(".json").read_text())
    raw = path.read_bytes()
    out: dict[str, np.ndarray] = {}
    for entry in manifest["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype=entry["dtype"], count=count, offset=entry["offset"])
        out[entry["name"]] = arr.reshape(shape).astype(np.float64)
    return out


# --- config sections read from JSON ---------------------------------------------

def _fits(value, hint) -> bool:
    """Whether a JSON value has the type a config field declares. bool is not
    an int here, an int is a float, and tuples and unions are checked member
    by member."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_fits(value, arg) for arg in args)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if hint is type(None):
        return value is None
    if hint in (int, float) and isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def dataclass_from(cls, data: dict, section: str = ""):
    """``cls(**data)`` for a config section read from JSON, each value
    checked against its field's type (see ``_fits``) and lists made tuples.
    An object given for a dataclass-typed field is read as that section. A
    ValueError names the ``section.key`` that does not fit."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be an object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        name = f"{section}.{key}" if section else key
        if dataclasses.is_dataclass(hints[key]) and isinstance(value, dict):
            kwargs[key] = dataclass_from(hints[key], value, name)
            continue
        if not _fits(value, hints[key]):
            raise ValueError(f"{name} must be {fields[key].type}, got {value!r}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)
