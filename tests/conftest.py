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


def blas_platform() -> dict[str, str | None]:
    """numpy's version and its BLAS name, version and kernel, from
    ``np.show_config``. The kernel is the core named in OpenBLAS's build
    configuration; with DYNAMIC_ARCH that is the build's, and numpy does not
    report the one picked at run time."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no mode and reports nothing here
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    words = blas.get("openblas configuration", "").split()
    kernel = next((w for w, after in zip(words, words[1:]) if after.startswith("MAX_THREADS=")), None)
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_kernel": kernel,
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
        return (
            f"numpy and its BLAS build match the goldens' record {recorded}; "
            "the BLAS kernel picked at run time is not known here"
        )
    return (
        "goldens were recorded on another platform, so a different digest may be "
        "rounding rather than a regression: " + "; ".join(differences)
    )
