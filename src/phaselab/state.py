"""Observation snapshot shared by the simulator, the agents, and symmetry ops."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class TrafficState:
    """Per-movement queue counts and signal bits at one decision instant.

    ``counts[i]`` is the number of vehicles queued on movement ``i`` (capped at
    the lane capacity), ``signal_bits[i]`` is 1 iff movement ``i`` currently
    has green, and ``phase_index`` (non-negative) identifies the active phase.
    """

    counts: np.ndarray
    signal_bits: np.ndarray
    phase_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        object.__setattr__(self, "signal_bits", np.asarray(self.signal_bits, dtype=np.int64))
        if self.counts.ndim != 1 or self.counts.shape != self.signal_bits.shape:
            raise ValueError("counts and signal_bits must be 1-d arrays of equal length")
        if self.phase_index < 0:
            raise ValueError(f"phase_index must be non-negative, got {self.phase_index}")

    @classmethod
    def trusted(
        cls, counts: np.ndarray, signal_bits: np.ndarray, phase_index: int
    ) -> "TrafficState":
        """A state from arrays the caller guarantees are 1-d int64 of equal
        length, built without ``__post_init__``'s conversions and checks.

        The simulator builds every observation this way; its ``signal_bits``
        are read-only arrays shared between states.
        """
        state = object.__new__(cls)
        state.__dict__.update(counts=counts, signal_bits=signal_bits, phase_index=phase_index)
        return state

    @property
    def n_movements(self) -> int:
        return int(self.counts.shape[0])


def states_equal(a: TrafficState, b: TrafficState) -> bool:
    return (
        a.phase_index == b.phase_index
        and np.array_equal(a.counts, b.counts)
        and np.array_equal(a.signal_bits, b.signal_bits)
    )
