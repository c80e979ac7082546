"""Prioritized experience replay: FIFO ring plus sum/max segment trees.

Sampling probability of slot i is priority_i**alpha / sum_j priority_j**alpha;
importance-sampling weights are (N * P(i))**-beta, normalized by the batch
maximum so they never exceed 1.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np


class SegmentTree:
    """Array-backed binary tree reducing leaf values with a numpy ufunc.

    ``combine`` is the same reduction on two Python floats; single-leaf
    updates use it to skip ufunc dispatch, with the identical IEEE result.
    """

    def __init__(self, capacity: int, ufunc, neutral: float, combine):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        size = 1
        while size < capacity:
            size *= 2
        self._size = size
        self._ufunc = ufunc
        self._combine = combine
        self._tree = np.full(2 * size, neutral, dtype=np.float64)

    def __setitem__(self, idx: int, value: float) -> None:
        tree, combine = self._tree, self._combine
        i = idx + self._size
        tree[i] = value
        i //= 2
        while i >= 1:
            tree[i] = combine(tree.item(2 * i), tree.item(2 * i + 1))
            i //= 2

    def set_many(self, idxs: np.ndarray, values: np.ndarray) -> None:
        """Set many leaves, then recompute their ancestors one level at a time.

        All leaves sit at the same depth, so each level is one vectorized
        update; a parent shared by several leaves is recomputed once per
        leaf, to the same value.
        """
        tree = self._tree
        children = tree.reshape(-1, 2)  # row i holds nodes 2i and 2i+1
        i = np.asarray(idxs, dtype=np.int64) + self._size
        tree[i] = values
        i >>= 1
        while i.size and i[0] >= 1:
            pairs = children[i]
            tree[i] = self._ufunc(pairs[:, 0], pairs[:, 1])
            i >>= 1

    def __getitem__(self, idx: int) -> float:
        return float(self._tree[idx + self._size])

    def grown(self, capacity: int) -> "SegmentTree":
        """A tree of the same kind with room for ``capacity`` leaves, holding
        this tree's leaves. Every node is the reduction of its children, so
        each node of this tree keeps its value, and the nodes above it only
        combine it with neutral subtrees."""
        out = type(self)(capacity)
        out._tree[out._size : out._size + self._size] = self._tree[self._size :]
        level = out._size
        while level > 1:
            level //= 2
            children = out._tree[2 * level : 4 * level]
            out._tree[level : 2 * level] = out._ufunc(children[0::2], children[1::2])
        return out

    def leaves(self, idxs: np.ndarray) -> np.ndarray:
        return self._tree[np.asarray(idxs, dtype=np.int64) + self._size]

    @property
    def root(self) -> float:
        return float(self._tree[1])


class SumTree(SegmentTree):
    def __init__(self, capacity: int):
        super().__init__(capacity, np.add, 0.0, operator.add)

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


class MaxTree(SegmentTree):
    def __init__(self, capacity: int):
        super().__init__(capacity, np.maximum, 0.0, max)


_FIRST_SLOTS = 1024  # slots a buffer allocates up front; doubled as the fill reaches them


class PrioritizedReplayBuffer:
    """Ring buffer with proportional prioritized sampling.

    Evicts FIFO at capacity. Slots never written have zero mass and are
    therefore never sampled; overwritten (evicted) items are unreachable.
    Items live in a list that grows with the fill; a subclass may keep them
    elsewhere by overriding ``_store``, ``_gather`` and ``_grow``. The max
    tree holds every item's raw priority (see :meth:`priorities`).

    The trees grow with the fill too, doubling up to ``capacity``: a tree
    over the occupied slots samples exactly as one over all ``capacity``
    slots would (the rest have zero mass), with fewer levels to walk.
    """

    def __init__(self, capacity: int, alpha: float = 0.6):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.capacity = capacity
        self.alpha = alpha
        self._items: list = []
        self._slots = min(capacity, _FIRST_SLOTS)
        self._sum = SumTree(self._slots)
        self._max = MaxTree(self._slots)
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def max_priority(self) -> float:
        """Largest raw priority currently stored, or 0 when empty."""
        return self._max.root

    def priorities(self) -> np.ndarray:
        """Raw priority of every stored item, by slot."""
        return self._max.leaves(np.arange(self._size))

    def add(self, item, priority: float | None = None) -> None:
        """Insert with the given priority; default is the current max (1 if empty)."""
        if priority is None:
            priority = self.max_priority() or 1.0
        if not (math.isfinite(priority) and priority > 0):
            raise ValueError(f"priority must be positive and finite, got {priority}")
        slot = self._next
        if slot == self._slots:
            self._grow(min(self.capacity, 2 * self._slots))
        self._store(slot, item)
        self._sum[slot] = priority**self.alpha
        self._max[slot] = priority
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def _store(self, slot: int, item) -> None:
        if slot == len(self._items):
            self._items.append(item)
        else:
            self._items[slot] = item

    def _gather(self, indices: np.ndarray):
        return [self._items[i] for i in indices.tolist()]

    def _grow(self, slots: int) -> None:
        self._sum = self._sum.grown(slots)
        self._max = self._max.grown(slots)
        self._slots = slots

    def sample(self, batch_size: int, beta: float, rng: np.random.Generator):
        """Draw iid proportional samples; returns (indices, items, is_weights)."""
        if self._size < batch_size:
            raise ValueError(f"buffer holds {self._size} items, need {batch_size}")
        total = self._sum.root
        # Descent can fall on a zero-mass slot when a draw hits a prefix-sum
        # boundary exactly; occupied slots are always 0.._size-1, so clamp.
        masses = rng.uniform(0.0, total, size=batch_size)
        indices = np.minimum(self._sum.prefix_indices(masses), self._size - 1)
        probs = self._sum.leaves(indices) / total
        weights = (self._size * probs) ** (-beta)
        weights = weights / weights.max()
        return indices, self._gather(indices), weights

    def update_priorities(self, indices: Sequence[int], priorities: Sequence[float]) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        pri = np.asarray(priorities, dtype=np.float64)
        if not np.all(np.isfinite(pri) & (pri > 0)):
            raise ValueError("priorities must be positive and finite")
        empty = idx[(idx < 0) | (idx >= self._size)]  # slots fill 0, 1, .. and never empty
        if empty.size:
            raise IndexError(f"slot {empty[0]} is empty")
        self._sum.set_many(idx, pri**self.alpha)
        self._max.set_many(idx, pri)
