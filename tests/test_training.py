import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import phaselab as pl
from phaselab import harness, replay, training
from phaselab import numerics as nm
from phaselab.flows import FlowSynthesisSpec, synthesize_flow, synthesize_grid_flow
from phaselab.networks import FrapConfig, FrapNetwork, VanillaConfig, VanillaNetwork
from phaselab.training import (
    Actors,
    EpsilonGreedyPolicy,
    GreedyPolicy,
    Learner,
    TrainConfig,
    td_targets,
    train,
)
from phaselab.replay import Batch, PrioritizedReplayBuffer
from phaselab.state import states_equal

from conftest import golden_platform_note, random_rows, random_state


def _small_net(table):
    return FrapNetwork(table, FrapConfig(demand_dim=8, conv_channels=8))


def _env_factory(table, episode_length=200, rate=600.0):
    config = pl.SimConfig(episode_length=episode_length)

    def factory(actor_id: int, episode: int) -> pl.IntersectionSim:
        seed = 1000 * actor_id + episode
        flow = synthesize_flow(
            FlowSynthesisSpec(rates=(rate,) * 8, duration=float(episode_length)), seed
        )
        return pl.IntersectionSim(config, table, flow, seed)

    return factory


class _Buffer(list):
    """Keeps every block the actors add; ``rows`` concatenates them."""

    add = list.append

    def rows(self) -> Batch:
        return Batch(*(np.concatenate(columns) for columns in zip(*self)))


class _StubLearner:
    """A learner's face to the actors: ``online`` and ``buffer.add``. Each
    read of ``online`` is counted and returns ``params_fn()``."""

    def __init__(self, params_fn):
        self.params_fn = params_fn
        self.reads = 0
        self.buffer = _Buffer()

    @property
    def online(self):
        self.reads += 1
        return self.params_fn()


class TestBellmanTargets:
    def test_done_transition_target_is_reward(self, table4):
        net = _small_net(table4)
        params = net.init_params(0)
        rows = random_rows(table4, np.random.default_rng(0), 8, done_every=1)
        targets = td_targets(rows, net, params, params, 0.9, True)
        assert np.allclose(targets, rows.reward)

    def test_gamma_zero_target_is_reward(self, table4):
        net = _small_net(table4)
        params = net.init_params(1)
        rows = random_rows(table4, np.random.default_rng(1), 8)
        targets = td_targets(rows, net, params, params, 0.0, True)
        assert np.allclose(targets, rows.reward)

    def test_matches_hand_bellman_evaluation(self, table4):
        net = _small_net(table4)
        online = net.init_params(2)
        target = net.init_params(3)
        rows = random_rows(table4, np.random.default_rng(2), 6, done_every=3)
        targets = td_targets(rows, net, online, target, 0.9, False)
        td = targets - net.forward(online, rows.counts, rows.bits)[np.arange(6), rows.action]
        for i, (got_target, got_td) in enumerate(zip(targets, td)):
            if rows.not_done[i] == 0.0:
                expected = rows.reward[i]
            else:
                next_state = pl.TrafficState(rows.next_counts[i], rows.next_bits[i], 0)
                expected = rows.reward[i] + 0.9 * net.q_values(target, next_state).max()
            assert got_target == pytest.approx(expected, abs=1e-12)
            state = pl.TrafficState(rows.counts[i], rows.bits[i], 0)
            q_sa = net.q_values(online, state)[rows.action[i]]
            assert got_td == pytest.approx(expected - q_sa, abs=1e-12)

    def test_double_dqn_uses_online_argmax(self, table4):
        net = _small_net(table4)
        online = net.init_params(4)
        target = net.init_params(5)
        rows = random_rows(table4, np.random.default_rng(3), 6)
        targets = td_targets(rows, net, online, target, 0.9, True)
        for i, got in enumerate(targets):
            next_state = pl.TrafficState(rows.next_counts[i], rows.next_bits[i], 0)
            best = int(np.argmax(net.q_values(online, next_state)))
            expected = rows.reward[i] + 0.9 * net.q_values(target, next_state)[best]
            assert got == pytest.approx(expected, abs=1e-12)


class TestLearner:
    def _loaded_learner(self, table, config=None, seed=0):
        net = _small_net(table)
        cfg = config or TrainConfig(batch_size=8, max_learner_steps=100, target_sync=5)
        buf = PrioritizedReplayBuffer(256, cfg.alpha)
        buf.add(random_rows(table, np.random.default_rng(seed), 64, done_every=8))
        return Learner(net, net.init_params(seed), cfg, buf, np.random.default_rng(seed + 1))

    def test_zero_td_batch_keeps_params(self, table4):
        net = _small_net(table4)
        cfg = TrainConfig(batch_size=8, max_learner_steps=10)
        buf = PrioritizedReplayBuffer(64, cfg.alpha)
        params = net.init_params(7)
        rows = random_rows(table4, np.random.default_rng(7), 16, done_every=1)
        q = net.forward(params, rows.counts, rows.bits)
        # terminal rows whose reward is the prediction: every TD error is zero
        buf.add(rows._replace(reward=q[np.arange(16), rows.action]))
        learner = Learner(net, params, cfg, buf, np.random.default_rng(8))
        before = {k: v.copy() for k, v in learner.online.items()}
        learner.step()
        for k in before:
            assert np.array_equal(learner.online[k], before[k])
        assert learner.adam.step == 1

    def test_step_updates_priorities(self, table4):
        learner = self._loaded_learner(table4)
        learner.step()
        pri = learner.buffer.priorities()
        assert any(p != 1.0 for p in pri)

    def test_target_changes_only_at_sync_steps(self, table4):
        learner = self._loaded_learner(table4)
        sync = learner.config.target_sync
        initial = {k: v.copy() for k, v in learner.target.items()}
        for step in range(1, 2 * sync + 1):
            learner.step()
            same = all(
                np.array_equal(learner.target[k], initial[k]) for k in initial
            )
            if step < sync:
                assert same
            elif step == sync:
                assert not same
                initial = {k: v.copy() for k, v in learner.target.items()}

    def test_each_set_builds_its_movement_table_once(self, table4, monkeypatch):
        # A step prepares its online set once, for the dense next-state and
        # the taken-action forwards, and a sync makes the next online set
        # the target, so no step rebuilds a target table: every step builds
        # one table (counts up to 40 fill one block), its online set's.
        learner = self._loaded_learner(table4)
        built, demand = [], learner.network._demand

        def counting_demand(params, first):
            built.append(params)
            return demand(params, first)

        monkeypatch.setattr(learner.network, "_demand", counting_demand)
        online = []
        for _ in range(2 * learner.config.target_sync + 1):
            online.append(learner.online)
            learner.step()
        assert len(built) == len(online)
        assert all(b is o for b, o in zip(built, online))

    def test_a_step_replaces_the_read_only_online_set(self, table4):
        learner = self._loaded_learner(table4)
        first = learner.online
        assert learner.target is first
        learner.step()
        assert learner.online is not first and learner.target is first
        for params in (first, learner.online):
            for array in params.values():
                with pytest.raises(ValueError, match="read-only"):
                    array *= -1.0
        while learner.step_count % learner.config.target_sync:
            learner.step()
        assert learner.target is learner.online

    def test_loss_decreases_on_fixed_buffer(self, table4):
        learner = self._loaded_learner(table4)
        first = np.mean([learner.step() for _ in range(5)])
        for _ in range(60):
            learner.step()
        last = np.mean([learner.step() for _ in range(5)])
        assert last < first

    def test_step_builds_no_full_pair_volume(self, table4):
        # A learner step reads one Q per row from its online and target
        # forwards, so only the dense next-state forward may build all
        # P(P-1) pair cells of every row: [56, 64, 20] float64, 560 KiB. A
        # second such array made the traced peak 1333 KiB; one step peaks
        # at 1028 KiB without it (numpy 2.4). The bound leaves 15%.
        net = FrapNetwork(table4, FrapConfig())
        cfg = TrainConfig(batch_size=64)
        buf = PrioritizedReplayBuffer(2048, cfg.alpha)
        buf.add(random_rows(table4, np.random.default_rng(0), 1300, done_every=8))
        learner = Learner(net, net.init_params(0), cfg, buf, np.random.default_rng(1))
        for _ in range(3):  # steady state: scratch buffers exist, caches are warm
            learner.step()
        tracemalloc.start()
        try:
            learner.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * 1028 * 1024


class TestActorPolicy:
    def test_epsilon_one_uniform_actions(self):
        policy = EpsilonGreedyPolicy(1.0, np.random.default_rng(5))
        q = np.arange(8.0)
        picks = np.array([policy(q) for _ in range(10_000)])
        _, p = stats.chisquare(np.bincount(picks, minlength=8))
        assert p > 0.01

    def test_epsilon_zero_greedy_lowest_index_ties(self):
        policy = EpsilonGreedyPolicy(0.0, np.random.default_rng(6))
        state = policy.rng.bit_generator.state
        assert policy(np.array([0.5, 2.0, -1.0, 2.0, 2.0])) == 1
        assert policy(np.zeros(8)) == 0
        assert policy.rng.bit_generator.state == state  # epsilon 0 draws nothing

    def test_greedy_tie_breaks_commute_with_symmetry(self, table4, group4):
        # All-equal Q with an asymmetric state: the evaluation greedy must
        # choose conjugately under every symmetry op.
        net = _small_net(table4)
        params = nm.read_only({k: np.zeros_like(v) for k, v in net.init_params(0).items()})
        greedy = GreedyPolicy(net, params)
        rng = np.random.default_rng(7)
        for _ in range(30):
            s = random_state(table4, rng)
            a = greedy(s)
            for op in group4:
                image = pl.apply_symmetry(op, s)
                assert greedy(image) == op.phase_perm[a]

    def test_greedy_prefers_loaded_then_current_phase(self, table4):
        net = _small_net(table4)
        params = nm.read_only({k: np.zeros_like(v) for k, v in net.init_params(0).items()})
        greedy = GreedyPolicy(net, params)
        counts = np.zeros(8, dtype=int)
        counts[4] = counts[5] = 3  # S approach queues: phase {S-T, S-L} max load
        s = pl.TrafficState(counts, np.array(table4.phases[0].bits), 0)
        assert greedy(s) == table4.phase_with_members([4, 5])
        empty = pl.TrafficState(np.zeros(8, dtype=int), np.array(table4.phases[3].bits), 3)
        assert greedy(empty) == 3  # everything ties: keep the current phase

    def test_per_actor_epsilon_schedule(self):
        cfg = TrainConfig(n_actors=1, epsilon=0.4)
        assert cfg.actor_epsilon(0) == pytest.approx(0.4)
        cfg4 = TrainConfig(n_actors=4, epsilon=0.4, alpha_eps=7.0)
        for i in range(4):
            assert cfg4.actor_epsilon(i) == pytest.approx(0.4 ** (1 + i * 7.0 / 3.0))
        assert cfg4.actor_epsilon(0) > cfg4.actor_epsilon(3)

    def test_actor_emits_transitions_across_episodes(self, table4):
        net = _small_net(table4)
        learner = _StubLearner(lambda: net.init_params(0))
        cfg = TrainConfig(n_actors=1, epsilon=0.5, snapshot_period=3)
        actors = Actors(net, cfg, _env_factory(table4, episode_length=50), seed=0)
        for _ in range(12):  # 50 s episodes at 10 s decisions: 5 per episode
            actors.decide([learner])
        assert len(learner.buffer) == 12  # one block per round
        assert actors.episodes == [2]
        assert learner.reads == 4  # rounds 0, 3, 6 and 9
        rows = learner.buffer.rows()
        assert np.flatnonzero(rows.not_done == 0.0).tolist() == [4, 9]
        assert np.all(rows.reward <= 0)


class _ForwardGreedy:
    """The greedy rule without memo or demand table: argmax of the state's
    forward row, ties broken by GreedyPolicy's key."""

    def __init__(self, net, params):
        self.net, self.params = net, params
        self.keys = GreedyPolicy(net, params)

    def __call__(self, state):
        q = self.net.forward(self.params, state.counts, state.signal_bits)[0]
        best = np.flatnonzero(q == q.max())
        return int(min(best, key=lambda p: self.keys._tie_key(int(p), state)))


class TestGreedyMemo:
    @pytest.mark.parametrize(
        "net_of, zero",
        [
            (lambda t: FrapNetwork(t, FrapConfig()), False),
            (lambda t: FrapNetwork(t, FrapConfig()), True),  # every decision a tie
            (lambda t: VanillaNetwork(t, VanillaConfig()), False),
        ],
        ids=["frap", "frap-all-ties", "vanilla"],
    )
    @pytest.mark.parametrize(
        "flow", ["balanced-8", "unbalanced-WE", "flip-pair-am", "flip-pair-pm"]
    )
    def test_memoized_episode_is_the_forward_greedy(self, table4, net_of, zero, flow):
        net = net_of(table4)
        params = net.init_params(2)
        if zero:
            params = nm.read_only({k: np.zeros_like(v) for k, v in params.items()})
        cfg = harness.ExperimentConfig(flow=harness.FlowConfig(name=flow))
        schedule = harness.build_flow(cfg, harness.eval_flow_seed(cfg))
        policy = GreedyPolicy(net, params)
        memoized = pl.run_controller(policy, cfg.sim, table4, schedule, cfg.seed)
        reference = pl.run_controller(
            _ForwardGreedy(net, params), cfg.sim, table4, schedule, cfg.seed
        )
        assert memoized == reference
        assert memoized.intervals == reference.intervals
        assert len(policy._memo) < sum(len(rows) for rows in memoized.intervals)

    def test_two_way_tie_that_a_flip_swaps(self, table4, group4):
        # A flip-invariant state: phases 3 (E-T, E-L) and 7 (W-T, W-L) get
        # bitwise-equal Q, the row's maximum, and the tie key picks 3.
        flip = next(op for op in group4 if op.name == "flip")
        net = FrapNetwork(table4, FrapConfig())
        params = net.init_params(4)
        state = pl.TrafficState(
            np.array([10, 6, 0, 2, 5, 6, 0, 2]), np.array(table4.phases[4].bits), 4
        )
        assert states_equal(pl.apply_symmetry(flip, state), state)
        q = net.q_values(params, state)
        best = np.flatnonzero(q == q.max())
        assert best.tolist() == [3, 7] and flip.phase_perm[3] == 7
        policy = GreedyPolicy(net, params)
        assert policy(state) == min(best, key=lambda p: policy._tie_key(int(p), state)) == 3

    def test_a_write_into_the_scored_set_raises(self, table4):
        # Negating w_out in place after 200 decisions left all 200 memoized
        # actions stale, and nothing was raised.
        net = FrapNetwork(table4, FrapConfig())
        params = net.init_params(0)
        policy = GreedyPolicy(net, params)
        rng = np.random.default_rng(0)
        states = [random_state(table4, rng) for _ in range(200)]
        actions = [policy(s) for s in states]
        with pytest.raises(ValueError, match="read-only"):
            np.negative(params["w_out"], out=params["w_out"])
        fresh = GreedyPolicy(net, params)
        assert [policy(s) for s in states] == [fresh(s) for s in states] == actions

    @pytest.mark.parametrize("holder", ["greedy", "learner"])
    def test_a_writeable_set_is_refused(self, table4, holder):
        # A caller copied init_params(1) into a dict, gave it to a policy and
        # negated w_out in place: the policy kept acting on the old values
        # (phase 0 where a fresh policy picks 6), and nothing was raised.
        net = FrapNetwork(table4, FrapConfig())
        writeable = {k: v.copy() for k, v in net.init_params(1).items()}
        with pytest.raises(ValueError, match="'w_v' is writeable"):
            if holder == "greedy":
                GreedyPolicy(net, writeable)
            else:
                buffer = PrioritizedReplayBuffer(64, 0.6)
                Learner(net, writeable, TrainConfig(), buffer, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "row",
        [[np.nan] + [0.0] * 7, [0.0] * 7 + [np.nan], [1.0, np.inf] + [0.0] * 6, [-np.inf] * 8],
        ids=["nan-first", "nan-last", "inf", "all-minus-inf"],
    )
    def test_non_finite_q_raises(self, table4, row):
        net = _small_net(table4)
        policy = GreedyPolicy(net, net.init_params(0))
        net.q_values = lambda params, state, prepared=None: np.array(row)
        with pytest.raises(ValueError, match="non-finite Q"):
            policy(random_state(table4, np.random.default_rng(0)))


class TestTrainConfig:
    def test_buffer_must_hold_the_warmup(self):
        # A buffer smaller than the warm-up left training spinning forever.
        with pytest.raises(ValueError, match="buffer_capacity"):
            TrainConfig(buffer_capacity=100, warmup_transitions=200)
        with pytest.raises(ValueError, match="buffer_capacity"):
            TrainConfig(buffer_capacity=32, warmup_transitions=0, batch_size=64)
        # Each round adds one row per actor in one block, which must fit.
        with pytest.raises(ValueError, match="buffer_capacity.*n_actors"):
            TrainConfig(n_actors=8, buffer_capacity=4, warmup_transitions=4, batch_size=4)
        assert TrainConfig(buffer_capacity=200, warmup_transitions=200).buffer_capacity == 200

    @pytest.mark.parametrize(
        "name",
        [
            "batch_size", "target_sync", "eval_period", "snapshot_period", "priority_eps",
        ],
    )
    def test_counts_and_periods_must_be_positive(self, name):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: 0})

    @pytest.mark.parametrize(
        "name, value",
        [("lr", 0.0), ("lr", -1e-3), ("lr_end", 0.0), ("lr_end", -1e-4), ("lr", float("nan"))],
    )
    def test_learning_rates_must_be_positive(self, name, value):
        # lr_end < 0 failed at the second learner step (a complex power), lr = 0
        # with lr_end divided by zero, and lr < 0 ran gradient ascent.
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            TrainConfig(**{"lr_end": 1e-4, name: value})


class TestLockstep:
    @staticmethod
    def _grid_actors(table, net):
        config = pl.SimConfig(episode_length=50)  # 5 decisions per episode

        def factory(actor_id: int, episode: int) -> pl.GridSim:
            seed = 100 * actor_id + episode
            spec = FlowSynthesisSpec(rates=(900.0,) * 8, duration=50.0)
            return pl.GridSim(config, table, synthesize_grid_flow(spec, 2, 2, seed), 4, seed)

        cfg = TrainConfig(n_actors=3, epsilon=0.6, alpha_eps=3.0, snapshot_period=3)
        return Actors(net, cfg, factory, seed=2)

    def test_round_equals_actors_deciding_alone(self, table4, monkeypatch):
        # ROUND_BLOCK = 1 scores every state in a forward of its own.
        net = _small_net(table4)
        clock = [0]
        runs = []
        for block in (1, training.ROUND_BLOCK):
            monkeypatch.setattr(training, "ROUND_BLOCK", block)
            learners = [  # a fresh set per read, whose values follow the clock
                _StubLearner(lambda k=k: net.init_params(10 * clock[0] + k)) for k in range(4)
            ]
            actors = self._grid_actors(table4, net)
            for step in range(8):  # refreshes at 0, 3 and 6; episodes end at 5
                clock[0] = step
                actors.decide(learners)
            runs.append((actors, learners))
        (alone, alone_learners), (together, together_learners) = runs
        assert alone.episodes == together.episodes == [1, 1, 1]
        for a, b in zip(alone.policies, together.policies):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        for la, lb in zip(alone_learners, together_learners):
            assert la.reads == lb.reads == 3
            assert len(la.buffer) == len(lb.buffer) == 8  # one block of 3 rows per round
            rows_a, rows_b = la.buffer.rows(), lb.buffer.rows()
            assert len(rows_a.action) == 3 * 8
            for col_a, col_b in zip(rows_a, rows_b):
                assert np.array_equal(col_a, col_b)
        actions = {int(a) for l in together_learners for a in l.buffer.rows().action}
        assert len(actions) > 1

    def test_one_snapshot_and_one_forward_per_intersection(self, table4, monkeypatch):
        net = _small_net(table4)
        learners = [_StubLearner(lambda k=k: net.init_params(k)) for k in range(4)]
        forwards = [0]
        forward = net.forward

        def counting_forward(*args, **kwargs):
            forwards[0] += 1
            return forward(*args, **kwargs)

        actors = self._grid_actors(table4, net)
        monkeypatch.setattr(net, "forward", counting_forward)
        actors.decide(learners)  # every actor refreshes at round 0
        assert [l.reads for l in learners] == [1, 1, 1, 1]
        assert forwards == [4]
        actors.decide(learners)
        assert [l.reads for l in learners] == [1, 1, 1, 1]
        assert forwards == [8]

    def test_actors_hold_the_learners_sets_until_the_next_refresh(self, table4):
        # Refreshes at rounds 0, 3 and 6 take each learner's online set by
        # reference; every round's learner step replaces the learner's own.
        net = _small_net(table4)
        cfg = TrainConfig(batch_size=3, warmup_transitions=3, buffer_capacity=64)
        learners = [
            Learner(
                net, net.init_params(k), cfg, PrioritizedReplayBuffer(64, cfg.alpha),
                np.random.default_rng(k),
            )
            for k in range(4)
        ]
        actors = self._grid_actors(table4, net)
        for round_ in range(8):
            if round_ % 3 == 0:
                held = [learner.online for learner in learners]
            actors.decide(learners)
            assert all(a.params is b for a, b in zip(actors.params, held, strict=True))
            for learner in learners:
                learner.step()
            assert not any(l.online is h for l, h in zip(learners, held))

    def test_states_hand_off_across_staggered_episodes(self, table4):
        # Actor i's episodes last 3 + i rounds, so in most rounds one actor
        # restarts while the others go on. Every state spells (actor,
        # episode, second, intersection) in its counts.
        class _Spelled:
            def __init__(self, actor_id, episode):
                self.actor_id, self.episode, self.clock = actor_id, episode, 0

            def states(self):
                return [
                    pl.TrafficState(
                        counts=np.array([self.actor_id, self.episode, self.clock, k, 0, 0, 0, 0]),
                        signal_bits=np.array(table4.phases[k].bits),
                        phase_index=k,
                    )
                    for k in range(2)
                ]

            def step(self, actions):
                self.clock += 10
                return self.states(), [0.0, 0.0], self.clock == 10 * (3 + self.actor_id)

        net = _small_net(table4)
        learners = [_StubLearner(lambda k=k: net.init_params(k)) for k in range(2)]
        actors = Actors(net, TrainConfig(n_actors=3), _Spelled, seed=0)
        for _ in range(13):
            actors.decide(learners)
        assert actors.episodes == [4, 3, 2]
        for k, learner in enumerate(learners):
            rows = learner.buffer.rows()
            for i in range(3):
                mine = slice(i, None, 3)  # actor i's row of every round
                counts, bits, not_done = rows.counts[mine], rows.bits[mine], rows.not_done[mine]
                assert np.flatnonzero(not_done == 0.0).tolist() == list(range(2 + i, 13, 3 + i))
                for r in range(12):
                    if not_done[r]:
                        after = rows.next_counts[mine][r], rows.next_bits[mine][r]
                    else:
                        first = _Spelled(i, int(counts[r][1]) + 1).states()[k]
                        after = first.counts, first.signal_bits
                    assert np.array_equal(counts[r + 1], after[0])
                    assert np.array_equal(bits[r + 1], after[1])

    def test_round_of_512_actors_scores_each_state_alone(self, table4):
        # One forward over 512 FRAP states rounds most rows differently from
        # the single-state Q (OpenBLAS 0.3.31, init_params(1)), so a round
        # must score in blocks no taller than the batched-row tests check.
        net = FrapNetwork(table4, FrapConfig())
        params = net.init_params(1)
        rng = np.random.default_rng(3)
        states = [random_state(table4, rng) for _ in range(512)]

        class _Parked:  # mid-episode forever: the round reads only its state
            def __init__(self, state):
                self.state = state

            def states(self):
                return [self.state]

            def step(self, actions):
                return [self.state], [0.0], False

        cfg = TrainConfig(n_actors=512, epsilon=0.0)
        actors = Actors(net, cfg, lambda i, episode: _Parked(states[i]), seed=0)
        scored = []
        actors.policies = [lambda q: scored.append(q) or 0] * 512
        actors.decide([_StubLearner(lambda: params)])
        assert len(scored) == 512
        for state, q in zip(states, scored):
            assert np.array_equal(q, net.q_values(params, state))


class TestTrain:
    def test_zero_steps_emits_initial_eval(self, table4):
        net = _small_net(table4)
        cfg = TrainConfig(max_learner_steps=0, n_actors=1, sync=True)
        factory = _env_factory(table4, episode_length=100)
        result = train(net, cfg, factory, lambda: factory(9, 0), seed=0)
        assert len(result.curve) == 1
        assert result.curve[0].learner_step == 0
        assert result.best_step == 0
        assert set(result.best_params) == set(net.init_params(0))

    def test_sync_mode_bit_reproducible(self, table4):
        net = _small_net(table4)
        cfg = TrainConfig(
            max_learner_steps=12, batch_size=8, warmup_transitions=16,
            n_actors=2, eval_period=6, sync=True,
        )
        factory = _env_factory(table4, episode_length=100)
        r1 = train(net, cfg, factory, lambda: factory(9, 0), seed=3)
        r2 = train(net, cfg, factory, lambda: factory(9, 0), seed=3)
        assert r1.curve == r2.curve
        for k in r1.best_params:
            assert np.array_equal(r1.best_params[k], r2.best_params[k])
            assert np.array_equal(r1.final_params[k], r2.final_params[k])

    def test_sync_mode_runs_and_evaluates(self, table4):
        net = _small_net(table4)
        cfg = TrainConfig(
            max_learner_steps=20, batch_size=8, warmup_transitions=16,
            n_actors=2, eval_period=10,
        )
        factory = _env_factory(table4, episode_length=100)
        result = train(net, cfg, factory, lambda: factory(9, 0), seed=4)
        steps = [p.learner_step for p in result.curve]
        assert steps == [0, 10, 20]
        assert all(np.isfinite(p.eval_travel_time) for p in result.curve)

    def test_threaded_schedule_is_rejected(self, table4):
        # sync=False used to train on actor threads; it now fails before any work.
        net = _small_net(table4)
        cfg = TrainConfig(
            max_learner_steps=4, batch_size=8, warmup_transitions=8, n_actors=1,
            eval_period=4, sync=False,
        )
        factory = _env_factory(table4, episode_length=100)
        with pytest.raises(ValueError, match="synchronous"):
            train(net, cfg, factory, lambda: factory(9, 0), seed=0)


# sha256 over the name and bytes of every ckpt*.bin and curve.csv that a small
# sync cmd_train writes, recorded on the numpy and BLAS build named in
# tests/data/golden_platform.json. Batched forwards go through BLAS, so another
# BLAS build may round differently; the digests must change only on purpose.
GOLDEN_TRAIN_DIGESTS = {
    1: "021cca941f8d5e1436701feacc4b8b394f9aba99e7114905284fda2fb44e8242",
    2: "7290801c77419c7580dada136b6790a70fabc240a02f57c58dc2132d5d14f7fb",
}


class TestGoldenTraining:
    @pytest.mark.parametrize("grid", sorted(GOLDEN_TRAIN_DIGESTS))
    def test_sync_training_digest(self, grid, tmp_path, monkeypatch):
        # 16 first slots and a capacity of 50: three actors add rows in blocks
        # of three that cross both growths (16 -> 32 -> 50) and the ring's end.
        # Seed 1 takes the best checkpoint at the last step, so it depends on
        # every learner step.
        monkeypatch.setattr(replay, "_FIRST_SLOTS", 16)
        config = harness.ExperimentConfig(
            seed=1,
            grid_rows=grid,
            grid_cols=grid,
            sim=pl.SimConfig(episode_length=300),
            flow=harness.FlowConfig(name="unbalanced-WE", duration=300.0),
            train=TrainConfig(
                n_actors=3, buffer_capacity=50, warmup_transitions=8, batch_size=8,
                max_learner_steps=40, eval_period=20, target_sync=10,
            ),
            out_dir=str(tmp_path),
        )
        harness.cmd_train(config)
        digest = hashlib.sha256()
        for path in sorted([*tmp_path.glob("ckpt*.bin"), tmp_path / "curve.csv"]):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == GOLDEN_TRAIN_DIGESTS[grid], golden_platform_note()
