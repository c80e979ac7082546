import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab as pl
from phaselab import training
from phaselab.flows import (
    FlowSchedule,
    FlowSynthesisSpec,
    synthesize_flow,
    synthesize_grid_flow,
    write_flow_csv,
)
from phaselab.simulator import write_interval_csv, write_vehicle_csv
from phaselab.state import states_equal
from phaselab.topology import find_op, inverse

from oracles import always_green_departures, episode_summary_oracle


def single_hop(entries, movement):
    return FlowSchedule(
        tuple(range(len(entries))), tuple(entries), (((0, movement),),) * len(entries)
    )


@pytest.fixture
def cfg():
    return pl.SimConfig(episode_length=300)


class TestReset:
    def test_empty_flow_all_zero(self, table4, cfg):
        sim = pl.IntersectionSim(cfg, table4, FlowSchedule((), (), ()))
        [s] = sim.reset()
        assert np.array_equal(s.counts, np.zeros(8))
        assert s.phase_index == 0
        assert np.array_equal(s.signal_bits, np.array(table4.phases[0].bits))

    def test_two_resets_identical(self, table4, cfg):
        flow = single_hop([0.0, 5.0, 7.5], 0)
        sim = pl.IntersectionSim(cfg, table4, flow)
        [s1] = sim.reset()
        sim.step([0])
        [s2] = sim.reset()
        assert states_equal(s1, s2)

    def test_future_arrivals_not_visible(self, table4, cfg):
        flow = single_hop([5.0], 0)
        sim = pl.IntersectionSim(cfg, table4, flow)
        [s] = sim.reset()
        assert s.counts.sum() == 0

    def test_invalid_flow_reference_rejected(self, table4, cfg):
        flow = single_hop([0.0], 11)
        with pytest.raises(ValueError):
            pl.IntersectionSim(cfg, table4, flow)


class TestStep:
    def test_empty_network_zero_reward(self, table4, cfg):
        sim = pl.IntersectionSim(cfg, table4, FlowSchedule((), (), ()))
        sim.reset()
        [s], [r], done = sim.step([0])
        assert r == 0.0
        assert s.counts.sum() == 0
        assert not done

    def test_single_vehicle_hand_oracle(self, table4, cfg):
        # Enter at t=0 on N-T (member of phase 0), phase 0 held: joins the
        # queue at 30, discharges after one headway -> exit 32, travel 32.
        sim = pl.IntersectionSim(cfg, table4, single_hop([0.0], 0))
        sim.reset()
        for _ in range(4):
            sim.step([0])
        m = sim.metrics()
        assert m.exited_count == 1
        assert m.vehicles[0].queue_join == 30.0
        assert m.vehicles[0].exit == 32.0
        assert m.avg_travel_time == 32.0

    def test_five_queued_discharge_in_ten_seconds(self, table4, cfg):
        # 5 vehicles queued well before the green interval; headway 2 s.
        sim = pl.IntersectionSim(cfg, table4, single_hop([0.0] * 5, 4))
        sim.reset()
        # phase 3 = {E-T, E-L}: keeps movement 4 red while vehicles arrive
        for _ in range(4):
            sim.step([3])
        before = sim.counts(0)[4]
        assert before == 5
        [s], _, _ = sim.step([table4.phase_with_members([4, 5])])  # green on S-T
        # phase change burns 5 s clearance; 5 green seconds serve floor(5/2)=2
        assert s.counts[4] == 3
        [s], _, _ = sim.step([table4.phase_with_members([4, 5])])  # full 10 s green
        assert s.counts[4] == 0
        assert sim.metrics().exited_count == 5

    def test_state_signal_bits_are_read_only(self, table4, cfg):
        sim = pl.IntersectionSim(cfg, table4, single_hop([0.0], 0))
        [initial] = sim.reset()
        [s], _, _ = sim.step([0])
        assert s.signal_bits is initial.signal_bits  # one array per phase
        for state in (initial, s, sim.state(0)):
            with pytest.raises(ValueError, match="read-only"):
                state.signal_bits[0] = 1 - state.signal_bits[0]
        assert np.array_equal(s.signal_bits, table4.phases[0].bits)

    def test_invalid_action_rejected(self, table4, cfg):
        sim = pl.IntersectionSim(cfg, table4, FlowSchedule((), (), ()))
        sim.reset()
        with pytest.raises(ValueError):
            sim.step([8])

    def test_step_after_done_rejected(self, table4):
        sim = pl.IntersectionSim(
            pl.SimConfig(episode_length=20), pl.build_phase_table(4), FlowSchedule((), (), ())
        )
        sim.reset()
        done = False
        while not done:
            _, _, done = sim.step([0])
        with pytest.raises(RuntimeError):
            sim.step([0])

    def test_reward_is_negative_mean_queue(self, table4, cfg):
        sim = pl.IntersectionSim(cfg, table4, single_hop([0.0, 0.0, 0.0], 4))
        sim.reset()
        _, _, _ = sim.step([0])
        _, _, _ = sim.step([0])
        _, _, _ = sim.step([0])
        [s], [r], _ = sim.step([0])  # three vehicles queued on S-T (red)
        assert s.counts[4] == 3
        assert r == -3 / 8

    def test_queue_capacity_and_upstream_wait(self, table4):
        config = pl.SimConfig(lane_capacity=5, episode_length=600)
        flow = single_hop([float(i) for i in range(20)], 4)  # S-T, red under phase 0
        sim = pl.IntersectionSim(config, table4, flow)
        sim.reset()
        done = False
        max_count = 0
        while not done:
            [s], _, done = sim.step([0])
            max_count = max(max_count, int(s.counts[4]))
        assert max_count == 5  # capacity bound holds


class TestRunController:
    def test_empty_flow_reports_zero(self, table4, cfg):
        m = pl.run_controller(lambda s: 0, cfg, table4, FlowSchedule((), (), ()))
        assert m.avg_travel_time == 0.0
        assert m.exited_count == 0
        assert m.in_network_count == 0

    def test_uniform_flow_matches_queueing_oracle(self, table4):
        config = pl.SimConfig(episode_length=3600)
        spec = FlowSynthesisSpec(rates=(900.0,) + (0.0,) * 7, process="uniform")
        flow = synthesize_flow(spec, 0)
        m = pl.run_controller(lambda s: 0, config, table4, flow)
        stops = [t + 30.0 for t in flow.entry_times]
        expected = always_green_departures(stops, 2.0)
        travel = {r.vehicle_id: (r.exit - r.entry) for r in m.vehicles if r.exit is not None}
        for vid, t, dep in zip(flow.vehicle_ids, flow.entry_times, expected):
            if dep <= config.episode_length:
                assert travel[vid] == dep - t

    def test_every_travel_time_is_position_rule(self, table4):
        # 10 s spacing, always green: queue position is always 1.
        config = pl.SimConfig(episode_length=600)
        flow = single_hop([10.0 * i for i in range(50)], 0)
        m = pl.run_controller(lambda s: 0, config, table4, flow)
        for r in m.vehicles:
            if r.exit is not None:
                assert r.exit - r.entry == 30.0 + 1 * 2.0

    def test_bit_identical_metrics_across_runs(self, table4):
        config = pl.SimConfig(episode_length=1200)
        flow = synthesize_flow(
            FlowSynthesisSpec(rates=(240.0,) * 8, duration=1200.0), seed=3
        )
        controller = lambda s: int(np.argmax([sum(s.counts[m] for m in ph.members) for ph in table4.phases]))
        m1 = pl.run_controller(controller, config, table4, flow, seed=1)
        m2 = pl.run_controller(controller, config, table4, flow, seed=1)
        assert m1 == m2

    def test_avg_travel_time_at_least_free_flow(self, table4):
        config = pl.SimConfig(episode_length=1800)
        flow = synthesize_flow(
            FlowSynthesisSpec(rates=(180.0,) * 8, duration=1800.0), seed=5
        )
        rng = np.random.default_rng(0)
        m = pl.run_controller(lambda s: int(rng.integers(8)), config, table4, flow)
        for r in m.vehicles:
            if r.exit is not None:
                assert r.exit - r.entry >= config.approach_time


class TestConservation:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_every_microstep_conserves_vehicles(self, seed):
        table = pl.build_phase_table(4)
        config = pl.SimConfig(episode_length=600)
        rng = np.random.default_rng(seed)
        rates = tuple(float(rng.integers(0, 600)) for _ in range(8))
        flow = synthesize_flow(
            FlowSynthesisSpec(rates=rates, duration=600.0), seed=seed
        )
        failures = []

        def audit(engine, now):
            snap = engine.conservation_snapshot(now)
            total = snap["in_queue"] + snap["waiting"] + snap["on_approach"] + snap["exited"]
            if total != snap["entered"]:
                failures.append((now, snap))

        sim = pl.IntersectionSim(config, table, flow, on_microstep=audit)
        sim.reset()
        done = False
        while not done:
            _, _, done = sim.step([int(rng.integers(8))])
        assert not failures

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_queues_bounded_by_capacity(self, seed):
        table = pl.build_phase_table(4)
        config = pl.SimConfig(lane_capacity=12, episode_length=600)
        rng = np.random.default_rng(seed)
        flow = synthesize_flow(
            FlowSynthesisSpec(rates=(700.0,) * 8, duration=600.0), seed=seed
        )
        sim = pl.IntersectionSim(config, table, flow)
        sim.reset()
        done = False
        while not done:
            [s], [r], done = sim.step([int(rng.integers(8))])
            assert np.all(s.counts >= 0)
            assert np.all(s.counts <= 12)
            assert r <= 0.0


class TestGrid:
    def test_1x1_grid_bit_matches_single(self, table4):
        config = pl.SimConfig(episode_length=1200)
        flow = synthesize_flow(
            FlowSynthesisSpec(rates=(300.0,) * 8, duration=1200.0), seed=9
        )
        single = pl.IntersectionSim(config, table4, flow)
        grid = pl.GridSim(config, table4, flow, n_intersections=1)
        [s1], sg = single.reset(), grid.reset()
        assert states_equal(s1, sg[0])
        rng = np.random.default_rng(2)
        done = False
        while not done:
            a = int(rng.integers(8))
            [s1], [r1], done = single.step([a])
            sg, rg, gdone = grid.step([a])
            assert states_equal(s1, sg[0])
            assert r1 == rg[0]
            assert done == gdone
        assert single.metrics() == grid.metrics()

    def test_two_hop_tandem_oracle(self, table4):
        config = pl.SimConfig(episode_length=300)
        flow = FlowSchedule((0,), (0.0,), (((0, 6), (1, 6)),))
        grid = pl.GridSim(config, table4, flow, n_intersections=2)
        grid.reset()
        wt_phase = table4.phase_with_members([6, 7])
        done = False
        while not done:
            _, _, done = grid.step([wt_phase, wt_phase])
        m = grid.metrics()
        # each hop: 30 s approach + 2 s discharge; no queueing anywhere
        assert m.exited_count == 1
        assert m.vehicles[0].exit == 64.0
        assert m.avg_travel_time == 64.0

    def test_entry_ties_with_forwarded_vehicle_go_first(self, table4):
        # Vehicle 0 leaves intersection 0 at 32 s and reaches intersection 1's
        # stop line at 62.0; vehicle 1 enters at intersection 1 at 32.0 and
        # reaches the same stop line at the same float time. The entry queues
        # first, so it takes the first headway (exit 64) and the forwarded
        # vehicle the second (exit 66).
        config = pl.SimConfig(episode_length=100)
        flow = FlowSchedule((0, 1), (0.0, 32.0), (((0, 6), (1, 6)), ((1, 6),)))
        grid = pl.GridSim(config, table4, flow, n_intersections=2)
        wt_phase = table4.phase_with_members([6, 7])
        done = False
        while not done:
            _, _, done = grid.step([wt_phase, wt_phase])
        forwarded, entry = grid.metrics().vehicles
        assert (entry.queue_join, entry.exit) == (62.0, 64.0)
        assert (forwarded.queue_join, forwarded.exit) == (30.0, 66.0)

    def test_arrivals_within_a_second_queue_in_time_order(self, table4):
        # 1.5 s approaches. Vehicle 0 reaches stop line 0 at 1.5, is served
        # at 6 (5 s clearance, then two green seconds) and reaches stop line 1
        # at 8.5; vehicle 1 enters there at 7.25 and arrives at 8.75. Both
        # queue in second 9, the earlier arrival (the forwarded one) first.
        config = pl.SimConfig(approach_length=15.0, episode_length=30)
        flow = FlowSchedule((0, 1), (0.0, 7.25), (((0, 6), (1, 6)), ((1, 6),)))
        grid = pl.GridSim(config, table4, flow, n_intersections=2)
        wt_phase = table4.phase_with_members([6, 7])
        done = False
        while not done:
            _, _, done = grid.step([wt_phase, wt_phase])
        forwarded, entry = grid.metrics().vehicles
        assert (forwarded.queue_join, forwarded.exit) == (2.0, 11.0)
        assert (entry.queue_join, entry.exit) == (9.0, 13.0)

    def test_empty_flow_grid_rewards_zero(self, table4):
        config = pl.SimConfig(episode_length=100)
        grid = pl.GridSim(config, table4, FlowSchedule((), (), ()), n_intersections=12)
        grid.reset()
        states, rewards, _ = grid.step([0] * 12)
        assert all(r == 0.0 for r in rewards)
        assert all(s.counts.sum() == 0 for s in states)

    def test_action_count_mismatch(self, table4):
        grid = pl.GridSim(
            pl.SimConfig(episode_length=100), table4, FlowSchedule((), (), ()), n_intersections=3
        )
        grid.reset()
        with pytest.raises(ValueError):
            grid.step([0, 0])

    def test_downstream_capacity_spills_to_link(self, table4):
        # Downstream queue capacity 3: vehicles wait on the link but upstream
        # discharge keeps going.
        config = pl.SimConfig(lane_capacity=3, episode_length=600)
        flow = FlowSchedule(
            tuple(range(12)), tuple(map(float, range(12))), (((0, 6), (1, 6)),) * 12
        )
        grid = pl.GridSim(config, table4, flow, n_intersections=2)
        grid.reset()
        wt = table4.phase_with_members([6, 7])
        ns = table4.phase_with_members([0, 4])
        done = False
        while not done:
            # intersection 0 serves W-T; intersection 1 stays red for it
            states, _, done = grid.step([wt, ns])
            assert states[1].counts[6] <= 3
        snap = grid.conservation_snapshot(float(grid.clock))
        assert snap["entered"] == 12
        assert snap["exited"] == 0  # intersection 1 never served W-T
        assert snap["in_queue"] + snap["waiting"] + snap["on_approach"] == 12


class TestSimulatorSymmetry:
    def test_conjugated_controller_on_mirrored_flow(self, table4, group4):
        """Mirroring the flow and conjugating the controller changes nothing."""
        config = pl.SimConfig(episode_length=1200)
        flow = synthesize_flow(
            pl.benchmark_flow_spec("unbalanced-WE", duration=1200.0), seed=21
        )

        class QueueGreedy:
            def __init__(self, table):
                self.table = table

            def __call__(self, s):
                sums = [sum(s.counts[m] for m in ph.members) for ph in self.table.phases]
                return int(np.argmax(sums))

        base = QueueGreedy(table4)
        m_base = pl.run_controller(base, config, table4, flow)
        for op in group4:
            op_inv = inverse(op, table4)
            mirrored = pl.mirror_flow(op, flow)

            def conjugated(s, _op=op, _inv=op_inv):
                return int(_op.phase_perm[base(pl.apply_symmetry(_inv, s))])

            m_sym = pl.run_controller(conjugated, config, table4, mirrored)
            assert m_sym.avg_travel_time == m_base.avg_travel_time
            assert m_sym.exited_count == m_base.exited_count

    def test_sotl_commutes_with_symmetry(self, table4, group4):
        from phaselab.classical import SOTLController

        config = pl.SimConfig(episode_length=1200)
        flow = synthesize_flow(
            pl.benchmark_flow_spec("flip-pair-am", duration=1200.0), seed=33
        )
        base = SOTLController(table4, theta=5, t_min=10, decision_interval=10)
        m_base = pl.run_controller(base, config, table4, flow)
        flip = find_op(table4, "flip")
        inv = inverse(flip, table4)
        inner = SOTLController(table4, theta=5, t_min=10, decision_interval=10)

        class Conjugated:
            def reset(self):
                inner.reset()

            def __call__(self, s):
                return int(flip.phase_perm[inner(pl.apply_symmetry(inv, s))])

        m_sym = pl.run_controller(Conjugated(), config, table4, pl.mirror_flow(flip, flow))
        assert m_sym.avg_travel_time == m_base.avg_travel_time


class TestMetricsCsv:
    def test_csv_emission(self, table4, tmp_path):
        config = pl.SimConfig(episode_length=100)
        flow = single_hop([0.0, 3.0], 0)
        m = pl.run_controller(lambda s: 0, config, table4, flow)
        vpath = write_vehicle_csv(m, tmp_path / "vehicles.csv")
        ipath = write_interval_csv(m, tmp_path / "intervals.csv")
        vlines = vpath.read_text().splitlines()
        assert vlines[0] == "vehicle_id,entry,queue_join,exit"
        assert vlines[1] == "0,0,30,32"
        ilines = ipath.read_text().splitlines()
        assert ilines[0] == "t,phase,reward," + ",".join(f"q{i}" for i in range(8))
        assert len(ilines) == 1 + 10


# --- golden trajectories ---------------------------------------------------------
#
# Reference digests: a change to any number the simulator produces must update
# them on purpose. Records are hashed as plain value tuples, so the digests
# depend on those numbers, not on the record types.

GOLDEN_CONFIGS = {
    "default": pl.SimConfig(),
    "cap5-h1.5": pl.SimConfig(lane_capacity=5, saturation_headway=1.5),
    # 1.5 s approaches: forwarded vehicles and flow entries reach stop lines
    # in the same seconds (on grid flows never the same queue; TestGrid's
    # hand oracles pin the order within one queue)
    "a15": pl.SimConfig(approach_length=15.0),
    # a credit that is not a binary fraction, and a waiting line behind
    # every occupied stop line
    "cap1-h2.1": pl.SimConfig(lane_capacity=1, saturation_headway=2.1),
    # no clearance, and an interval that does not divide the episode
    "di7-noclear": pl.SimConfig(decision_interval=7, yellow=0, all_red=0),
}
GOLDEN_FLOWS = ("balanced-8", "unbalanced-WE", "flip-pair-am")
GOLDEN_DIGESTS = {
    ('1x1', 'cap5-h1.5', 'balanced-8', 0): 'ab40d2599b471510ebe32dff647a41b7a3d0467d998495e20deae44dababc1ff',
    ('1x1', 'cap5-h1.5', 'balanced-8', 1): '9249a317d9a8e0bbd9f8a918db6b3ca113a60010a7a24b9d2857a9a5b633c9ee',
    ('1x1', 'cap5-h1.5', 'unbalanced-WE', 0): 'dee2e18493194f0ad515da10d28a10505bb26d56980185bbbabb9988a8ac4d5b',
    ('1x1', 'cap5-h1.5', 'unbalanced-WE', 1): 'd0d698eac2d4e01b048ce589d2eed10e6c91bf038fcf5764cca107d1e7a83305',
    ('1x1', 'cap5-h1.5', 'flip-pair-am', 0): 'ce506316cfaeaff192b21dc2dbedb76e99884efdf7ef9d1b7a448eb2cbde993c',
    ('1x1', 'cap5-h1.5', 'flip-pair-am', 1): '9fbe3af0d4d7f02e3e6b79dc5c578986359e552586f4a52074f7e0707f61bc05',
    ('1x1', 'default', 'balanced-8', 0): 'f97ccdedf2873df714876603ab4de4535c5097f05acbfc5061d88bbb50060ef3',
    ('1x1', 'default', 'balanced-8', 1): '6966e11dc63bb17862664fb8a1c7c138cc4ae83ef1b560cfe9bf71d399569926',
    ('1x1', 'default', 'unbalanced-WE', 0): '1aa344297350e9f1b0cdeab7392539ad996ef22b69b4d29070dbeebe30ff551e',
    ('1x1', 'default', 'unbalanced-WE', 1): '48f0991548766b1311041656a84721e715bd4339ff7c6cde339120291c7d04df',
    ('1x1', 'default', 'flip-pair-am', 0): '1d2e249832be053e0c292d080bf31b9ec65cf9151d167563a62ab8034dd4c71d',
    ('1x1', 'default', 'flip-pair-am', 1): '15cd95e4551265fc37ff06c65f23fa0baeeef56c8e3a064d62e1d101b5131302',
    ('2x2', 'cap5-h1.5', 'balanced-8', 0): 'fa1dd0934b06769c20e7bea8acbe5e026d2ec6082f9905943fcb2737189c829b',
    ('2x2', 'cap5-h1.5', 'balanced-8', 1): '8b392ad83df63ba136df0d2eb2f5864de5ee379bd929f94dbf75d0f32420b86d',
    ('2x2', 'cap5-h1.5', 'unbalanced-WE', 0): '147b0dbb3396a70c0efe9201ee41511e1bdacc7af40c71e20f16ae4db33f9cf1',
    ('2x2', 'cap5-h1.5', 'unbalanced-WE', 1): '88b8a0148c332f6b2da8e976e5604db82bdcbcb2c16c380364e665c3982319b4',
    ('2x2', 'cap5-h1.5', 'flip-pair-am', 0): 'cc4ced5420f208dff6d22cc5bb76e217dbd9a9c8242a590f76d265d1180c556e',
    ('2x2', 'cap5-h1.5', 'flip-pair-am', 1): '6e89bc5f419481bfb6b5557d46d6ecc7b7cecab1bac65b72936dddc0ba9db856',
    ('2x2', 'default', 'balanced-8', 0): 'bcd9896b54dad114d83b097e85e84b0864abc3a9aa717b76a00cfac90b9339da',
    ('2x2', 'default', 'balanced-8', 1): 'd12cc4e71cfb62c05fb613a49d29e3c20fb334aede01a7660a74d4321dc37855',
    ('2x2', 'default', 'unbalanced-WE', 0): '43eb56c7b156ce1e7449c4a78275a5a6b4262254dc445be765008372afd2535a',
    ('2x2', 'default', 'unbalanced-WE', 1): '8ab7388035204fc4f2598e8a4ce835ac9409bfb0ded8467bb873506a6f699e7c',
    ('2x2', 'default', 'flip-pair-am', 0): '14a902ab3be33c89214bcf00ff1edb48ac4f5719fd7875b8ce7586507aaa0ea7',
    ('2x2', 'default', 'flip-pair-am', 1): '597ecf88db4aba5966274c0ad29dbd444024cdff6d25a004e092272b71e415fc',
    # the edge configs, one seed each
    ('1x1', 'a15', 'balanced-8', 0): 'a59125f2e50e9561eb78ecf9293aa021c9347d7adb960ecf11ff3e64b0b5c977',
    ('1x1', 'a15', 'unbalanced-WE', 0): '8d6a3b1a201e84cc31338cc88fc0fdebaf9f655c636bd77ef004f64dd6085885',
    ('1x1', 'a15', 'flip-pair-am', 0): 'b6cc3d5262478d685ee01ca4f0bce373462079d0b46c43f2a3040076d4ef5723',
    ('2x2', 'a15', 'balanced-8', 0): '2c560e95eb77148048b2f37416b71bfb1df402201a6e18625b9038c2556a2ebd',
    ('2x2', 'a15', 'unbalanced-WE', 0): '7dd6cbef3d5bca4ee1bbd298006e4e09378e23feb58818a9bf173dd45aa657b7',
    ('2x2', 'a15', 'flip-pair-am', 0): '65814c5b506969465b4b54e3cddfd4ba5f66750c0d4bc9a1c982290dc6434a99',
    ('1x1', 'cap1-h2.1', 'balanced-8', 0): '62f5a511dd7f1c4039de5e37715299c6674d0852dc9593561249895d85ee0f18',
    ('1x1', 'cap1-h2.1', 'unbalanced-WE', 0): '3777763864c0a0264f9ac4ea4ed8c91c4ab9cfafb339f13a8ff43f08e070cefc',
    ('1x1', 'cap1-h2.1', 'flip-pair-am', 0): 'a1518981c89b582cfe126a5fc858791b30508b38ccd8025c6950946b53460eba',
    ('2x2', 'cap1-h2.1', 'balanced-8', 0): '8388fb61807bbad2b3af4b1048f175c60689e409f1140958d336e576b2a08657',
    ('2x2', 'cap1-h2.1', 'unbalanced-WE', 0): 'adf4c02b7cac220928327868e1c9eab34038d2c9cc2e31c85b87763c73fd3f85',
    ('2x2', 'cap1-h2.1', 'flip-pair-am', 0): '4704dea17b85806fa10679efea0bb059a9098eb193bde3b8ee874ca5ee890312',
    ('1x1', 'di7-noclear', 'balanced-8', 0): '9040e4aac1aa57c24bc1d288c9fe9f7bddeed31821e591ded2cd7b15dd6fb84c',
    ('1x1', 'di7-noclear', 'unbalanced-WE', 0): '49ed6a441e6cbb2bb31062ed482bb34591e70f43b7b5f323cf8c549e51f5332d',
    ('1x1', 'di7-noclear', 'flip-pair-am', 0): '203d504115290fc840bf69e3456b8899acd68f58b952463a651a8fd36350e12c',
    ('2x2', 'di7-noclear', 'balanced-8', 0): 'f4127d423f33b7441eb66e7d1092c56dc80a32b65bb25b5f4e04829e8e4c3c24',
    ('2x2', 'di7-noclear', 'unbalanced-WE', 0): '2fc870947c3bc14b9d0d4254744a9e2a1f561e132cc37885bd37820d0f13cdb6',
    ('2x2', 'di7-noclear', 'flip-pair-am', 0): '1b2189a061e64d80b2b0f7da03574ec200ae04495231b37b59ab2a4fc9a2e513',
}
GOLDEN_CSV_DIGESTS = {
    'vehicles.csv': 'ed054b5be1098d8000c12df17359ced605c19b8a6cfbe175390d1626bf829701',
    'intervals.csv': '4cf3ee1246f3d2b0b79a75b8a744cc62127fd9297a425c326781c1d054c9c9cd',
    'flow.csv': 'ec2562cc80aeca0489dfd315e0d7dc95bf6638701b0f7706f22f9bf30f76d909',
}


def golden_flow(grid, flow_name, seed):
    spec = pl.benchmark_flow_spec(flow_name)
    if grid == "2x2":
        return synthesize_grid_flow(spec, 2, 2, seed)
    return synthesize_flow(spec, seed)


def state_keys(states):
    return [(s.counts.tobytes(), s.signal_bits.tobytes(), s.phase_index) for s in states]


def golden_episode(grid, config, flow, seed, table, steps=None, on_step=None):
    """Random-action episode of ``steps`` decisions (default: to the end);
    returns the sim's trajectory, snapshots and metrics. ``on_step(sim)``
    runs after every step."""
    k = 4 if grid == "2x2" else 1
    sim = pl.GridSim(config, table, flow, k)
    rng = np.random.default_rng(seed)
    trace = [state_keys(sim.reset())]
    done = False
    while not done and steps != 0:
        states, rewards, done = sim.step([int(a) for a in rng.integers(table.n_phases, size=k)])
        trace.append(state_keys(states))
        trace.append(rewards)
        trace.append(sorted(sim.conservation_snapshot(float(sim.clock)).items()))
        if on_step is not None:
            on_step(sim)
        if steps is not None:
            steps -= 1
    return trace, sim.metrics()


def metrics_values(m):
    return (
        m.avg_travel_time,
        m.exited_count,
        m.in_network_count,
        [(r.vehicle_id, r.entry, r.queue_join, r.exit) for r in m.vehicles],
        [[(r.t, r.phase, r.reward, tuple(r.counts)) for r in rows] for rows in m.intervals],
    )


class TestGoldenTrajectories:
    @pytest.mark.parametrize("grid,config_name,flow_name,seed", sorted(GOLDEN_DIGESTS))
    def test_trajectory_digest(self, table4, grid, config_name, flow_name, seed):
        flow = golden_flow(grid, flow_name, seed)
        trace, m = golden_episode(grid, GOLDEN_CONFIGS[config_name], flow, seed, table4)
        digest = hashlib.sha256(repr((trace, metrics_values(m))).encode()).hexdigest()
        assert digest == GOLDEN_DIGESTS[grid, config_name, flow_name, seed]

    def test_csv_bytes(self, table4, tmp_path):
        flow = golden_flow("1x1", "unbalanced-WE", 0)
        _, m = golden_episode("1x1", GOLDEN_CONFIGS["cap5-h1.5"], flow, 0, table4)
        digests = {
            name: hashlib.sha256(write(obj, tmp_path / name).read_bytes()).hexdigest()
            for name, write, obj in (
                ("vehicles.csv", write_vehicle_csv, m),
                ("intervals.csv", write_interval_csv, m),
                ("flow.csv", write_flow_csv, flow),
            )
        }
        assert digests == GOLDEN_CSV_DIGESTS


class TestSummaryPath:
    """The summary is computed from the simulator's own lists and the records
    are built later, from a snapshot: both must agree with the records."""

    @pytest.mark.parametrize(
        "grid,config_name,flow_name,seed", sorted(k for k in GOLDEN_DIGESTS if k[3] == 0)
    )
    def test_summary_equals_record_oracle(self, table4, grid, config_name, flow_name, seed):
        config = GOLDEN_CONFIGS[config_name]
        flow = golden_flow(grid, flow_name, seed)
        _, m = golden_episode(grid, config, flow, seed, table4)
        di = config.decision_interval
        clock = -(-config.episode_length // di) * di  # the last interval may overrun
        avg, exited, in_network, censored = episode_summary_oracle(
            m.vehicles, clock, config.episode_length
        )
        assert m.avg_travel_time == avg
        assert m.exited_count == exited
        assert m.in_network_count == in_network
        assert training.censored_travel_time(m, config.episode_length) == censored

    @pytest.mark.parametrize("grid", ("1x1", "2x2"))
    def test_mid_episode_metrics_are_a_snapshot(self, table4, grid):
        config = GOLDEN_CONFIGS["cap5-h1.5"]
        flow = golden_flow(grid, "unbalanced-WE", 0)
        taken = []

        def take_at_step_100(sim):
            if sim.clock == 100 * config.decision_interval:
                taken.append(sim.metrics())

        _, end = golden_episode(grid, config, flow, 0, table4, on_step=take_at_step_100)
        _, stopped = golden_episode(grid, config, flow, 0, table4, steps=100)
        (mid,) = taken
        assert metrics_values(mid) == metrics_values(stopped)
        assert mid == stopped
        assert mid != end
        assert all(len(rows) == 100 for rows in mid.intervals)


class TestResetReuse:
    def test_reset_replays_a_fresh_sim(self, table4):
        # The per-episode vehicle lists, the entry pointer and the forwarded
        # FIFO must not carry anything from one episode into the next.
        config, k = GOLDEN_CONFIGS["cap5-h1.5"], 4
        flow = golden_flow("2x2", "unbalanced-WE", 0)
        rng = np.random.default_rng(7)
        actions = [[int(a) for a in rng.integers(table4.n_phases, size=k)] for _ in range(360)]

        def replay(sim, initial):
            trace = [state_keys(initial)]
            for a in actions:
                states, rewards, done = sim.step(a)
                trace.append((state_keys(states), rewards, done))
            return trace, sim.metrics()

        reused = pl.GridSim(config, table4, flow, k)
        first = replay(reused, reused.states())
        again = replay(reused, reused.reset())
        fresh_sim = pl.GridSim(config, table4, flow, k)
        fresh = replay(fresh_sim, fresh_sim.states())
        assert again == fresh
        assert first == fresh
