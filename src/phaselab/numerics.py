"""Dense float64 tensors, a node tape, the Huber loss, Adam and checkpoints.

The Q-networks are fused kernels (see ``networks``): each forward computes
its output in plain numpy and, given a :class:`Tape`, records one node whose
inputs are the parameter tensors and whose VJP is the network's hand-derived
backward pass. The masked Huber loss records a second node on top.
``backward`` walks the nodes once in reverse, accumulating gradients by
tensor identity, and returns them keyed by parameter name. So a learner step
is two nodes, not one node per primitive op.

Tensors are immutable values: nodes never mutate their inputs and always
allocate fresh output arrays. A tape is confined to a single forward/backward
pass on one thread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np


class Tensor:
    """Immutable float64 array value."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        out = object.__new__(cls)
        out.data = arr
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


@dataclass(frozen=True, eq=False)
class _Node:
    out: Tensor
    inputs: tuple[Tensor, ...]
    vjp: Callable[[np.ndarray], tuple]


class Tape:
    """Ordered record of node applications for one forward pass."""

    def __init__(self) -> None:
        self._nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
        """Append a node: ``vjp(g_out)`` returns one gradient (or None) per input."""
        self._nodes.append(_Node(out=out, inputs=inputs, vjp=vjp))


def huber_loss(
    pred: Tensor,
    target: Tensor,
    mask: Tensor,
    delta: float = 1.0,
    tape: Tape | None = None,
) -> Tensor:
    """Masked Huber loss, averaged over the leading (batch) axis.

    ``loss = sum(mask * H_delta(pred - target)) / pred.shape[0]`` where the
    mask both selects entries and carries any per-item weights. All three
    tensors have the same shape.
    """
    if delta <= 0:
        raise ValueError("huber_loss: delta must be positive")
    if target.shape != pred.shape or mask.shape != pred.shape:
        raise ValueError(
            f"huber_loss: pred{pred.shape}, target{target.shape} and mask{mask.shape} differ"
        )
    r = pred.data - target.data
    absr = np.abs(r)
    h = np.where(absr <= delta, 0.5 * r * r, delta * (absr - 0.5 * delta))
    batch = pred.data.shape[0]
    out = Tensor._wrap(np.asarray((mask.data * h).sum() / batch))
    if tape is not None:
        def vjp(g: np.ndarray):
            scale = float(g) / batch
            dr = np.clip(r, -delta, delta) * mask.data * scale
            return dr, -dr, h * scale

        tape.record(out, (pred, target, mask), vjp)
    return out


def backward(tape: Tape, loss: Tensor, wrt: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar ``loss`` recorded on ``tape`` for each named tensor.

    Tensors not reachable from the loss get zero gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if not any(node.out is loss for node in tape._nodes):
        raise ValueError("loss was not produced on this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape._nodes):
        g_out = grads.pop(id(node.out), None)
        if g_out is None:
            continue
        for tensor, g_in in zip(node.inputs, node.vjp(g_out)):
            if g_in is None:
                continue
            acc = grads.get(id(tensor))
            grads[id(tensor)] = g_in if acc is None else acc + g_in
    return {
        name: grads.get(id(t), np.zeros_like(t.data)).reshape(t.data.shape)
        for name, t in wrt.items()
    }


# --- optimizer ---------------------------------------------------------------

@dataclass
class AdamState:
    """Step count and the first/second moments, one flat vector each, laid
    out like the parameters: in ``params`` order, each tensor raveled."""

    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _flat(arrays: Iterable[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in arrays])


def _views(flat: np.ndarray, like: Mapping[str, Tensor]) -> dict[str, Tensor]:
    """Named views into ``flat``, laid out and shaped like ``like``'s tensors."""
    out: dict[str, Tensor] = {}
    offset = 0
    for name, t in like.items():
        size = t.data.size
        out[name] = Tensor._wrap(flat[offset : offset + size].reshape(t.data.shape))
        offset += size
    return out


def adam_init(params: Mapping[str, Tensor]) -> AdamState:
    size = sum(t.data.size for t in params.values())
    return AdamState(step=0, m=np.zeros(size), v=np.zeros(size))


def adam_update(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> dict[str, Tensor]:
    """One Adam step with bias correction on the flat parameter vector;
    returns fresh parameter tensors, views into one new flat vector.

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
    theta = _flat(x.data for x in params.values())
    return _views(theta - lr * m_hat / (np.sqrt(v_hat) + eps), params)


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
