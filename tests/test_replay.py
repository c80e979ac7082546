import hashlib

import numpy as np
import pytest
from scipy import stats

from phaselab import replay
from phaselab.replay import Batch, PrioritizedReplayBuffer

from conftest import golden_platform_note, random_rows
from oracles import SequentialReplayOracle


def _rows(*ids: int) -> Batch:
    """One row per id, the id in the action column; every other column zero."""
    n = len(ids)
    zeros = np.zeros((n, 1))
    return Batch(zeros, zeros, np.array(ids, dtype=np.int64), zeros[:, 0], zeros, zeros, zeros[:, 0])


def _held(buf) -> list[int]:
    return buf._rows.action[: len(buf)].tolist()


class TestBuffer:
    def test_fifo_eviction_and_size_bound(self):
        buf = PrioritizedReplayBuffer(capacity=4, alpha=1.0)
        for i in range(10):
            buf.add(_rows(i))
            assert len(buf) <= 4
        assert sorted(_held(buf)) == [6, 7, 8, 9]

    def test_never_returns_evicted_items(self):
        buf = PrioritizedReplayBuffer(capacity=8, alpha=1.0)
        rng = np.random.default_rng(0)
        for i in range(40):
            buf.add(_rows(i))
            buf.update_priorities([i % 8], [rng.uniform(0.5, 2.0)])
        _, rows, _ = buf.sample(8, beta=1.0, rng=rng)
        assert all(item >= 32 for item in rows.action)

    def test_default_priority_is_current_max(self):
        buf = PrioritizedReplayBuffer(capacity=8, alpha=1.0)
        buf.add(_rows(0))  # empty buffer -> priority 1
        assert buf.max_priority() == 1.0
        buf.add(_rows(1))
        buf.update_priorities([1], [5.0])
        buf.add(_rows(2))
        assert buf.priorities()[2] == 5.0
        buf.update_priorities([1], [0.5])
        assert buf.max_priority() == 5.0  # max over the current rows
        # Lowered below 1, the stored priorities set the next block's: a
        # running max would still say 5.0, a reset to the empty default 1.0.
        buf.update_priorities([0, 1, 2], [0.25, 0.5, 0.75])
        buf.add(_rows(3, 4))
        assert buf.priorities().tolist() == [0.25, 0.5, 0.75, 0.75, 0.75]
        assert buf._mass[[3, 4]].tolist() == [0.75, 0.75]

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_max_is_the_scanned_max(self, seed):
        # Random adds (ring wraps included), updates with repeated slots,
        # and priorities from a small set, so updates often lower or tie the
        # rows holding the max: after every call the cached max is a full
        # scan's, and the slot cached with it holds it.
        rng = np.random.default_rng(seed)
        buf = PrioritizedReplayBuffer(capacity=int(rng.integers(5, 13)), alpha=0.6)
        lowered = 0
        for _ in range(400):
            before = buf.max_priority()
            if len(buf) == 0 or rng.random() < 0.2:
                buf.add(_rows(*range(int(rng.integers(1, 4)))))
            else:
                idx = rng.integers(0, len(buf), size=int(rng.integers(0, 2 * len(buf))))
                buf.update_priorities(idx, rng.integers(1, 6, size=idx.size) / 2.0)
            assert buf.max_priority() == buf._priority[: len(buf)].max()
            assert buf._priority[buf._max_slot] == buf.max_priority()
            lowered += buf.max_priority() < before
        assert lowered > 10

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_below_one_is_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            PrioritizedReplayBuffer(capacity)

    def test_sample_requires_enough_items(self):
        buf = PrioritizedReplayBuffer(capacity=8)
        buf.add(_rows(0))
        with pytest.raises(ValueError):
            buf.sample(2, beta=0.4, rng=np.random.default_rng(0))

    @staticmethod
    def _draw_many(buf, draws, rng):
        chunk = len(buf)
        out = []
        while len(out) < draws:
            idx, _, _ = buf.sample(min(chunk, draws - len(out)), beta=0.0, rng=rng)
            out.extend(idx)
        return np.array(out)

    @staticmethod
    def _filled(priorities, alpha):
        buf = PrioritizedReplayBuffer(capacity=len(priorities), alpha=alpha)
        buf.add(_rows(*range(len(priorities))))
        buf.update_priorities(np.arange(len(priorities)), priorities)
        return buf

    def test_priorities_three_to_one(self):
        # alpha=1, priorities {3, 1}: the first row should be drawn 75% +- 2%.
        buf = self._filled([3.0, 1.0], alpha=1.0)
        rng = np.random.default_rng(11)
        draws = 100_000
        idx = self._draw_many(buf, draws, rng)
        frac = np.mean(idx == 0)
        assert abs(frac - 0.75) < 0.02

    def test_uniform_priorities_chi_square(self):
        n = 16
        buf = self._filled(np.full(n, 2.0), alpha=0.6)
        rng = np.random.default_rng(13)
        idx = self._draw_many(buf, 100_000, rng)
        observed = np.bincount(idx, minlength=n)
        _, p = stats.chisquare(observed)
        assert p > 0.01

    def test_proportional_priorities_chi_square(self):
        n = 8
        priorities = np.arange(1.0, 9.0)
        alpha = 0.6
        buf = self._filled(priorities, alpha=alpha)
        rng = np.random.default_rng(17)
        idx = self._draw_many(buf, 100_000, rng)
        observed = np.bincount(idx, minlength=n)
        expected = priorities**alpha / (priorities**alpha).sum() * 100_000
        _, p = stats.chisquare(observed, expected)
        assert p > 0.01

    def test_is_weights_bounded_by_one(self):
        rng = np.random.default_rng(19)
        buf = self._filled(rng.uniform(0.1, 10.0, 32), alpha=0.6)
        for beta in (0.4, 0.7, 1.0):
            _, _, weights = buf.sample(16, beta=beta, rng=rng)
            assert np.all(weights <= 1.0 + 1e-12)
            assert np.all(weights > 0.0)

    def test_update_priorities_validations(self):
        buf = PrioritizedReplayBuffer(capacity=4, alpha=1.0)
        buf.add(_rows(0))
        with pytest.raises(ValueError):
            buf.update_priorities([0], [0.0])
        with pytest.raises(IndexError):
            buf.update_priorities([3], [1.0])

    @pytest.mark.parametrize("priorities", [[5.0], [5.0, 6.0], [[5.0, 6.0, 7.0]]])
    def test_priorities_of_another_shape_are_rejected(self, priorities):
        # numpy would broadcast [5.0] over all three slots
        buf = self._filled([1.0, 2.0, 0.5], alpha=0.6)
        mass = buf._mass.copy()
        with pytest.raises(ValueError, match="priorities"):
            buf.update_priorities([0, 1, 2], priorities)
        assert np.array_equal(buf._mass, mass)
        assert buf.priorities().tolist() == [1.0, 2.0, 0.5]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_priorities_leave_the_trees_alone(self, bad):
        # add takes no priority: it reuses the max, one update_priorities checked
        buf = self._filled([1.0, 2.0, 0.5], alpha=0.6)
        mass = buf._mass.copy()
        with pytest.raises(ValueError):
            buf.update_priorities([0, 1], [3.0, bad])
        assert len(buf) == 3
        assert np.array_equal(buf._mass, mass)
        assert buf.priorities().tolist() == [1.0, 2.0, 0.5]

    def test_priorities_are_the_raw_leaves(self):
        buf = self._filled([1.0, 4.0, 9.0], alpha=0.5)
        buf.update_priorities([1], [2.5])
        assert buf.priorities().tolist() == [1.0, 2.5, 9.0]


class _ChosenDraws:
    """Stands in for a Generator: ``uniform`` returns the chosen draws and
    records the bounds it was asked for."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=np.float64)
        self.bounds = []

    def uniform(self, low, high, size):
        assert size == len(self.draws)
        self.bounds.append((low, high))
        return self.draws.copy()


class TestSamplingRule:
    """Slot i takes the draws in [prefix_i, prefix_i + mass_i)."""

    @pytest.mark.parametrize(
        "draws, slots",
        [
            ([0.0, 2.999, 3.0, 3.999, 4.0], [0, 0, 1, 1, 2]),  # a prefix sum goes to the next slot
            ([8.0, 9.0, np.nextafter(14.0, 0.0)], [3, 4, 4]),  # just below the total: the last slot
        ],
    )
    def test_prefix_boundaries(self, draws, slots):
        # alpha 1: the masses are the priorities, with prefix sums 0, 3, 4, 8, 9 and total 14
        buf = TestBuffer._filled([3.0, 1.0, 4.0, 1.0, 5.0], alpha=1.0)
        rng = _ChosenDraws(draws)
        indices, rows, weights = buf.sample(len(draws), beta=1.0, rng=rng)
        assert rng.bounds == [(0.0, 14.0)]
        assert indices.tolist() == slots
        assert rows.action.tolist() == slots
        mass = buf._mass[indices]
        np.testing.assert_allclose(weights, mass.min() / mass, rtol=1e-15)  # beta 1: (N P(i))**-1

    def test_total_is_the_pairwise_sum_and_overshoot_is_clamped(self):
        # Added left to right the tiny masses round away and the total is 1;
        # added pairwise, as a sum tree's root holds it, it is 1 + 2**-52.
        # Every cumulative mass is then 1, so a draw in [1, total) lies past
        # the last one and must fall to the last stored slot.
        tiny = 2.0**-53
        buf = TestBuffer._filled([1.0, tiny, tiny, tiny], alpha=1.0)
        rng = _ChosenDraws([0.0, 1.0, np.nextafter(1.0 + 2.0**-52, 0.0)])
        indices, _, _ = buf.sample(3, beta=0.5, rng=rng)
        assert rng.bounds == [(0.0, 1.0 + 2.0**-52)]
        assert indices.tolist() == [0, 3, 3]


class TestBlockAdd:
    @staticmethod
    def _assert_same(buf, oracle):
        assert len(buf) == len(oracle) and buf._next == oracle.next and buf._slots == oracle.slots
        assert np.array_equal(buf._mass[: len(buf)], oracle.mass[: len(oracle)])
        assert np.array_equal(buf.priorities(), oracle.priority[: len(oracle)])
        for column, expected in zip(buf._rows, oracle.columns):
            assert np.array_equal(column[: len(buf)], expected[: len(oracle)])

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocks_match_rows_added_one_at_a_time(self, table4, block):
        # 2500 slots: the buffer grows 1024 -> 2048 -> 2500, then wraps.
        rng = np.random.default_rng(block)
        pool = random_rows(table4, rng, 2700, done_every=5)
        buf = PrioritizedReplayBuffer(2500, alpha=0.6)
        oracle = SequentialReplayOracle(2500, 0.6, replay._FIRST_SLOTS)
        slots, wrapped = set(), False
        for start in range(0, 2700 - block + 1, block):
            rows = Batch(*(column[start : start + block] for column in pool))
            before = buf._next
            buf.add(rows)
            oracle.add(rows)
            slots.add(buf._slots)
            wrapped |= buf._next < before
            if rng.random() < 0.3:  # a learner step moves some priorities
                idx = rng.integers(0, len(buf), 4)
                priorities = rng.uniform(0.1, 5.0, 4)
                buf.update_priorities(idx, priorities)
                oracle.update_priorities(idx, priorities)
            self._assert_same(buf, oracle)
        assert slots == {1024, 2048, 2500} and wrapped
        assert [c.dtype for c in buf._rows] == [np.float64] * 2 + [np.int64] + [np.float64] * 4
        indices, batch, _ = buf.sample(64, 0.4, np.random.default_rng(5))
        for got, held in zip(batch, oracle.columns):
            assert np.array_equal(got, held[indices])

    def test_block_longer_than_the_ring_is_rejected(self, table4):
        buf = PrioritizedReplayBuffer(4, alpha=0.6)
        with pytest.raises(ValueError, match="overflows"):
            buf.add(random_rows(table4, np.random.default_rng(0), 5))
        assert len(buf) == 0 and buf._next == 0 and not buf._mass.any()

    def test_columns_of_unequal_length_are_rejected(self, table4):
        buf = PrioritizedReplayBuffer(8, alpha=0.6)
        rows = random_rows(table4, np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="one entry per row"):
            buf.add(rows._replace(reward=rows.reward[:2]))
        assert len(buf) == 0 and buf._next == 0 and not buf._mass.any()

    def test_an_empty_block_changes_nothing(self, table4):
        # A zero-row block once set the cached max to 1 and its slot to
        # (start - 1) % capacity: slot 4999 of a ring with 1024 slots allocated.
        buf = PrioritizedReplayBuffer(5000, alpha=0.6)
        rows = random_rows(table4, np.random.default_rng(0), 3)
        empty = Batch(*(column[:0] for column in rows))
        buf.add(empty)
        assert len(buf) == 0 and buf.max_priority() == 0.0
        buf.add(rows)
        buf.update_priorities([0, 1, 2], [0.5, 2.0, 0.25])
        buf.add(empty)
        assert len(buf) == 3 and buf.max_priority() == 2.0
        buf.update_priorities([1], [0.1])  # lowers the slot holding the max: a rescan
        assert buf.max_priority() == 0.5


class TestGrowth:
    @staticmethod
    def _run(buf, seed):
        """Random adds, samples and priority updates; returns what sampling saw."""
        rng = np.random.default_rng(seed)
        draw = np.random.default_rng(seed + 1)
        seen = []
        for step in range(4000):
            x = rng.random()
            if x < 0.6 or len(buf) < 8:
                buf.add(_rows(step))
            elif x < 0.8:
                seen.append(buf.sample(8, 0.5, draw))
            else:
                idx = rng.integers(0, len(buf), 8)
                buf.update_priorities(idx, rng.uniform(0.001, 10.0, 8))
        return seen

    @pytest.mark.parametrize("capacity", [1500, 3000])
    def test_growing_buffer_samples_like_a_full_size_one(self, capacity, monkeypatch):
        # Rows and columns grow with the fill: 1024, 2048, ... slots. A draw
        # then walks a smaller tree but must land where the full tree's would.
        grown = PrioritizedReplayBuffer(capacity, alpha=0.6)
        monkeypatch.setattr(replay, "_FIRST_SLOTS", capacity)
        full = PrioritizedReplayBuffer(capacity, alpha=0.6)
        assert full._slots == capacity and grown._slots < capacity
        for a, b in zip(self._run(grown, 5), self._run(full, 5)):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[2], b[2])
            assert all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
        assert grown._slots == capacity
        assert np.array_equal(grown._mass, full._mass)
        assert np.array_equal(grown.priorities(), full.priorities())


def _sampling_digest(capacity: int, table, seed: int = 7) -> str:
    """sha256 over every batch a scripted run of blocks, samples and priority
    updates draws: sampled indices, IS weights and rows, in order.

    The script adds one and a half rings of rows in blocks of 1-7, so the
    buffer grows to ``capacity`` and wraps; each step samples 16 rows and
    moves their priorities, the first four indices twice over.
    """
    rng = np.random.default_rng(seed)
    draw = np.random.default_rng(seed + 1)
    total = capacity + capacity // 2
    pool = random_rows(table, rng, total, done_every=7)
    buf = PrioritizedReplayBuffer(capacity, alpha=0.6)
    digest = hashlib.sha256()
    slots, wrapped, start = {buf._slots}, False, 0
    while start < total:
        n = min(int(rng.integers(1, 8)), total - start)
        before = buf._next
        buf.add(Batch(*(column[start : start + n] for column in pool)))
        start += n
        slots.add(buf._slots)
        wrapped |= buf._next < before
        if len(buf) < 16:
            continue
        beta = 0.4 + 0.6 * start / total
        indices, rows, weights = buf.sample(16, beta, draw)
        for array in (indices, weights, *rows):
            digest.update(np.ascontiguousarray(array).tobytes())
        repeated = np.concatenate([indices, indices[:4]])  # duplicates: the last write wins
        buf.update_priorities(repeated, rng.uniform(0.01, 10.0, len(repeated)))
    assert len(slots) > 1 and max(slots) == capacity and wrapped
    return digest.hexdigest()


class TestGoldenSampling:
    """Pins replay sampling bit for bit across growth, ring wrap and
    duplicate update indices."""

    @pytest.mark.parametrize(
        "capacity, first_slots, expected",
        [
            (50, 16, "fb3f62a0a919d29125bbd56a32a48da1e4f776cd80204fa1c5b95301e6d5b0c6"),
            (1500, replay._FIRST_SLOTS, "7d40ebb2e378373f242bc2c91b4b706ef73c94e8175bfab38bd5e140ed452db5"),
            (3000, replay._FIRST_SLOTS, "1903dad2775cf3bc928e6fac7f0f10e2984a3ca006e6dc5fdb22482fc090ab3e"),
        ],
    )
    def test_sampling_digest(self, table4, monkeypatch, capacity, first_slots, expected):
        monkeypatch.setattr(replay, "_FIRST_SLOTS", first_slots)
        assert _sampling_digest(capacity, table4) == expected, golden_platform_note()
