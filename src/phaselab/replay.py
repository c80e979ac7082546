"""Prioritized experience replay: a FIFO ring of rows, sampled by inverse CDF.

The buffer keeps one transition per row of the :class:`Batch` arrays, with
each row's raw priority and sampling mass in columns beside them, and takes
them in blocks: an actor round adds each learner's rows in one call, at the
largest stored priority. Sampling probability of slot i is
priority_i**alpha / sum_j priority_j**alpha; importance-sampling weights are
(N * P(i))**-beta, normalized by the batch maximum so they never exceed 1.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


def _pairwise_total(mass: np.ndarray) -> float:
    """The root a sum tree over ``mass`` would hold, bit for bit: the masses
    added pairwise up the levels, with a zero after each level of odd length
    (zeros padding the leaves to a power of two give the same sum). The draws
    and IS weights scale with it, so a sum rounded another way changes them.
    """
    level = mass
    while len(level) > 1:
        if len(level) % 2:
            level = np.append(level, 0.0)
        level = level[0::2] + level[1::2]
    return float(level.sum())


_FIRST_SLOTS = 1024  # slots a buffer allocates up front; doubled as the fill reaches them


class Batch(NamedTuple):
    """One transition per row: counts and signal bits [B, M], action [B],
    reward and not-done (1.0 unless terminal) [B]. A buffer stores them as
    float64, actions as int64."""

    counts: np.ndarray
    bits: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_counts: np.ndarray
    next_bits: np.ndarray
    not_done: np.ndarray


class PrioritizedReplayBuffer:
    """Ring buffer of :class:`Batch` rows with proportional prioritized sampling.

    Evicts FIFO at capacity; overwritten (evicted) rows are unreachable.
    Two plain columns hold every row's raw priority (see :meth:`priorities`)
    and its mass ``priority ** alpha``. The largest priority is cached with
    one slot that holds it, the newest row unless an update raised the max
    since. An add cannot lower the max, since new rows take it, so only an
    update that lowers that slot rescans the column.

    The rows and both columns grow with the fill, doubling up to
    ``capacity``. ``sample`` looks each draw up in the cumulative stored
    masses: slot i takes the draws in [prefix_i, prefix_i + mass_i), as in a
    sum tree's descent, and slots past the fill have zero mass, so they take
    none. It gathers its batch with one fancy index per array.
    """

    def __init__(self, capacity: int, alpha: float = 0.6):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.alpha = alpha
        self._rows: Batch | None = None  # allocated by the first add
        self._slots = min(capacity, _FIRST_SLOTS)
        self._priority = np.zeros(self._slots)  # raw priority by slot
        self._mass = np.zeros(self._slots)  # sampling mass by slot
        self._max = 0.0  # largest stored priority
        self._max_slot = 0  # a slot holding it
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def max_priority(self) -> float:
        """Largest raw priority currently stored, or 0 when empty."""
        return self._max

    def priorities(self) -> np.ndarray:
        """Raw priority of every stored row, by slot."""
        return self._priority[: self._size].copy()

    def add(self, rows: Batch) -> None:
        """Append a block of rows at the current max priority (1 if empty).

        Row j goes to slot ``(next + j) % capacity``, as if the rows came one
        at a time: each of them would find the same max. That max is a
        priority :meth:`update_priorities` already checked.
        """
        n = len(rows.action)
        if any(len(column) != n for column in rows):
            raise ValueError("every column of a block needs one entry per row")
        if n > self.capacity:
            raise ValueError(f"a block of {n} rows overflows a buffer of {self.capacity}")
        if not n:  # nothing stored: the cached max and its slot stay as they are
            return
        priority = self._max or 1.0
        mass = priority**self.alpha
        start = self._next
        end = min(start + n, self.capacity)
        while self._slots < end:
            self._grow(min(self.capacity, 2 * self._slots))
        if self._rows is None:
            self._rows = self._allocate(self._slots, rows.counts.shape[1])
        head = end - start  # the rows before the ring's end; the rest wrap to slot 0
        for column, new in zip(self._rows, rows):
            column[start:end] = new[:head]
            column[: n - head] = new[head:]
        self._priority[start:end] = priority
        self._priority[: n - head] = priority
        self._mass[start:end] = mass
        self._mass[: n - head] = mass
        self._next = (start + n) % self.capacity
        self._size = min(self._size + n, self.capacity)
        self._max, self._max_slot = priority, (start + n - 1) % self.capacity

    @staticmethod
    def _allocate(size: int, n_movements: int) -> Batch:
        return Batch(
            counts=np.empty((size, n_movements)),
            bits=np.empty((size, n_movements)),
            action=np.empty(size, dtype=np.int64),
            reward=np.empty(size),
            next_counts=np.empty((size, n_movements)),
            next_bits=np.empty((size, n_movements)),
            not_done=np.empty(size),
        )

    def _grow(self, slots: int) -> None:
        self._priority = np.pad(self._priority, (0, slots - self._slots))
        self._mass = np.pad(self._mass, (0, slots - self._slots))
        self._slots = slots
        if self._rows is not None:
            old = self._rows
            self._rows = self._allocate(slots, old.counts.shape[1])
            for new, column in zip(self._rows, old):
                new[: len(column)] = column

    def sample(self, batch_size: int, beta: float, rng: np.random.Generator):
        """Draw iid proportional samples; returns (indices, rows, is_weights)."""
        if self._size < batch_size:
            raise ValueError(f"buffer holds {self._size} rows, need {batch_size}")
        mass = self._mass[: self._size]
        total = _pairwise_total(mass)
        # A draw at or past the last prefix sum (rounded apart from the
        # pairwise total) would index one past the fill, so clamp.
        draws = rng.uniform(0.0, total, size=batch_size)
        indices = np.minimum(np.searchsorted(np.cumsum(mass), draws, side="right"), self._size - 1)
        probs = mass[indices] / total
        weights = (self._size * probs) ** (-beta)
        weights = weights / weights.max()
        return indices, Batch(*(column[indices] for column in self._rows)), weights

    def update_priorities(self, indices: Sequence[int], priorities: Sequence[float]) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        pri = np.asarray(priorities, dtype=np.float64)
        if idx.shape != pri.shape:
            raise ValueError(f"{idx.shape} indices but {pri.shape} priorities")
        if not np.all(np.isfinite(pri) & (pri > 0)):
            raise ValueError("priorities must be positive and finite")
        empty = idx[(idx < 0) | (idx >= self._size)]  # slots fill 0, 1, .. and never empty
        if empty.size:
            raise IndexError(f"slot {empty[0]} is empty")
        if not idx.size:
            return
        self._priority[idx] = pri
        self._mass[idx] = pri**self.alpha
        new = self._priority[idx]  # a repeated slot keeps its last write
        top = int(new.argmax())
        if new[top] >= self._max:
            self._max, self._max_slot = float(new[top]), int(idx[top])
        elif self._priority[self._max_slot] != self._max:  # the slot holding it was lowered
            self._max_slot = int(self._priority[: self._size].argmax())
            self._max = float(self._priority[self._max_slot])
