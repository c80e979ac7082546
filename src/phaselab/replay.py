"""Prioritized experience replay: a FIFO ring of rows, sampled through a sum tree.

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


class SumTree:
    """Binary tree over a leaf array, built bottom up: every internal node is
    the sum of its two children.

    The leaves are padded with zeros to a power of two. More zero leaves
    would change nothing: the extra top levels hold the whole sum on their
    left, so the root and the descent of every mass in [0, root) stay the
    same.
    """

    def __init__(self, leaves: np.ndarray):
        size = 1
        while size < len(leaves):
            size *= 2
        tree = np.empty(2 * size)  # node 0 is unused; the loop writes nodes 1..size-1
        tree[size : size + len(leaves)] = leaves
        tree[size + len(leaves) :] = 0.0
        level = size
        while level > 1:
            level //= 2
            children = tree[2 * level : 4 * level]
            np.add(children[0::2], children[1::2], out=tree[level : 2 * level])
        self._size = size
        self._tree = tree

    @property
    def root(self) -> float:
        return float(self._tree[1])

    def prefix_index(self, mass: float) -> int:
        """Largest slot whose prefix sum exceeds ``mass`` (tree descent)."""
        i = 1
        tree = self._tree
        while i < self._size:
            left = 2 * i
            if tree[left] > mass:
                i = left
            else:
                mass -= tree[left]
                i = left + 1
        return i - self._size

    def prefix_indices(self, masses: np.ndarray) -> np.ndarray:
        """:meth:`prefix_index` for every mass, descending in lockstep."""
        left_of = self._tree[0::2]  # left_of[i] is node i's left child, node 2i
        mass = np.array(masses, dtype=np.float64)
        i = np.ones(mass.shape, dtype=np.int64)
        for _ in range(self._size.bit_length() - 1):
            left_mass = left_of[i]
            right = left_mass <= mass
            mass -= np.where(right, left_mass, 0.0)
            i = 2 * i + right
        return i - self._size


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
    and its mass ``priority ** alpha``.

    The rows and both columns grow with the fill, doubling up to
    ``capacity``. ``sample`` builds a :class:`SumTree` over the stored masses
    for each batch: it samples exactly as a tree over all ``capacity`` slots
    would (the rest have zero mass), with fewer levels to walk. It gathers
    its batch with one fancy index per array.
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
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def max_priority(self) -> float:
        """Largest raw priority currently stored, or 0 when empty."""
        return float(self._priority[: self._size].max()) if self._size else 0.0

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
        priority = self.max_priority() or 1.0
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
        tree = SumTree(self._mass[: self._size])
        total = tree.root
        # Descent can fall on a zero-mass slot when a draw hits a prefix-sum
        # boundary exactly; occupied slots are always 0.._size-1, so clamp.
        masses = rng.uniform(0.0, total, size=batch_size)
        indices = np.minimum(tree.prefix_indices(masses), self._size - 1)
        probs = self._mass[indices] / total
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
        self._priority[idx] = pri
        self._mass[idx] = pri**self.alpha
