import ctypes
import json
import os
from pathlib import Path

# Pin BLAS threading before numpy loads anywhere: the arrays are tiny and
# thread dispatch dominates otherwise (also keeps timings stable).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

import phaselab as pl
from phaselab.replay import Batch


@pytest.fixture(scope="session")
def table4():
    return pl.build_phase_table(4)


@pytest.fixture(scope="session")
def group4(table4):
    return pl.symmetry_group(table4)


def random_state(table, rng, max_count: int = 40) -> pl.TrafficState:
    """A valid random observation: counts in [0, n], bits from a random phase."""
    counts = rng.integers(0, max_count + 1, size=table.n_movements)
    phase = int(rng.integers(table.n_phases))
    bits = np.array(table.phases[phase].bits, dtype=np.int64)
    return pl.TrafficState(counts=counts, signal_bits=bits, phase_index=phase)


def random_rows(table, rng, n: int, done_every: int = 0) -> Batch:
    """n random transitions as replay rows, stacked from random states as the
    actors stack theirs; row i is terminal when ``done_every`` divides i + 1."""
    states, next_states, actions, rewards = [], [], [], []
    for _ in range(n):
        states.append(random_state(table, rng))
        next_states.append(random_state(table, rng))
        actions.append(int(rng.integers(table.n_phases)))
        rewards.append(-float(rng.uniform(0.0, 10.0)))
    done = [done_every > 0 and i % done_every == done_every - 1 for i in range(n)]
    return Batch(
        counts=np.stack([s.counts for s in states]),
        bits=np.stack([s.signal_bits for s in states]),
        action=np.array(actions, dtype=np.int64),
        reward=np.array(rewards),
        next_counts=np.stack([s.counts for s in next_states]),
        next_bits=np.stack([s.signal_bits for s in next_states]),
        not_done=np.array([0.0 if d else 1.0 for d in done]),
    )


# --- the platform the golden digests were recorded on --------------------------

GOLDEN_PLATFORM = Path(__file__).parent / "data" / "golden_platform.json"


# The run-time core name: scipy-openblas64 wheels prefix and suffix their
# symbols, 32-bit-integer and plain OpenBLAS builds do not.
_CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def openblas_core() -> str | None:
    """The kernel core OpenBLAS picked at run time (with DYNAMIC_ARCH, one per
    CPU), read through ctypes from the OpenBLAS libraries this process has
    loaded, those in a directory named after numpy first (scipy may load its
    own). None where the loaded libraries are not listed in /proc/self/maps
    or none of them exports a corename symbol."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.rpartition("/")[2]}
    for path in sorted(paths, key=lambda path: not Path(path).parent.name.startswith("numpy")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a library deleted since it was mapped
            continue
        for symbol in _CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def blas_platform() -> dict[str, str | None]:
    """numpy's version and its BLAS name and version, from
    ``np.show_config``, and the BLAS kernel core picked at run time
    (``openblas_core``). The build configuration also names a core, but with
    DYNAMIC_ARCH that is the build machine's, not the one that runs."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no mode and reports nothing here
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_kernel": openblas_core(),
    }


def golden_platform_note() -> str:
    """The failure message of a golden digest test: which of numpy and its
    BLAS differ from the build the goldens were recorded on, if any."""
    recorded = json.loads(GOLDEN_PLATFORM.read_text())
    current = blas_platform()
    differences = [
        f"{key} is {current.get(key)!r}, recorded {value!r}"
        for key, value in recorded.items()
        if current.get(key) != value
    ]
    if not differences:
        return f"numpy, its BLAS build and its run-time kernel match the goldens' record {recorded}"
    return (
        "goldens were recorded on another platform, so a different digest may be "
        "rounding rather than a regression: " + "; ".join(differences)
    )
