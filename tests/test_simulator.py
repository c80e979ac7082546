import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab as pl
from phaselab.flows import FlowEvent, FlowSchedule, FlowSynthesisSpec, synthesize_flow
from phaselab.simulator import write_interval_csv, write_vehicle_csv
from phaselab.state import states_equal
from phaselab.topology import find_op, inverse

from oracles import always_green_departures


def single_hop(entries, movement):
    return FlowSchedule(
        events=tuple(FlowEvent(i, t, ((0, movement),)) for i, t in enumerate(entries))
    )


@pytest.fixture
def cfg():
    return pl.SimConfig(episode_length=300)


class TestReset:
    def test_empty_flow_all_zero(self, table4, cfg):
        sim = pl.IntersectionSim(cfg, table4, FlowSchedule(events=()))
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
        sim = pl.IntersectionSim(cfg, table4, FlowSchedule(events=()))
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

    def test_invalid_action_rejected(self, table4, cfg):
        sim = pl.IntersectionSim(cfg, table4, FlowSchedule(events=()))
        sim.reset()
        with pytest.raises(ValueError):
            sim.step([8])

    def test_step_after_done_rejected(self, table4):
        sim = pl.IntersectionSim(
            pl.SimConfig(episode_length=20), pl.build_phase_table(4), FlowSchedule(events=())
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
        m = pl.run_controller(lambda s: 0, cfg, table4, FlowSchedule(events=()))
        assert m.avg_travel_time == 0.0
        assert m.exited_count == 0
        assert m.in_network_count == 0

    def test_uniform_flow_matches_queueing_oracle(self, table4):
        config = pl.SimConfig(episode_length=3600)
        spec = FlowSynthesisSpec(rates=(900.0,) + (0.0,) * 7, process="uniform")
        flow = synthesize_flow(spec, 0)
        m = pl.run_controller(lambda s: 0, config, table4, flow)
        stops = [e.entry_time + 30.0 for e in flow.events]
        expected = always_green_departures(stops, 2.0)
        travel = {r.vehicle_id: (r.exit - r.entry) for r in m.vehicles if r.exit is not None}
        for e, dep in zip(flow.events, expected):
            if dep <= config.episode_length:
                assert travel[e.vehicle_id] == dep - e.entry_time

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
        flow = FlowSchedule(events=(FlowEvent(0, 0.0, ((0, 6), (1, 6))),))
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

    def test_empty_flow_grid_rewards_zero(self, table4):
        config = pl.SimConfig(episode_length=100)
        grid = pl.GridSim(config, table4, FlowSchedule(events=()), n_intersections=12)
        grid.reset()
        states, rewards, _ = grid.step([0] * 12)
        assert all(r == 0.0 for r in rewards)
        assert all(s.counts.sum() == 0 for s in states)

    def test_action_count_mismatch(self, table4):
        grid = pl.GridSim(
            pl.SimConfig(episode_length=100), table4, FlowSchedule(events=()), n_intersections=3
        )
        grid.reset()
        with pytest.raises(ValueError):
            grid.step([0, 0])

    def test_downstream_capacity_spills_to_link(self, table4):
        # Downstream queue capacity 3: vehicles wait on the link but upstream
        # discharge keeps going.
        config = pl.SimConfig(lane_capacity=3, episode_length=600)
        flow = FlowSchedule(
            events=tuple(FlowEvent(i, float(i), ((0, 6), (1, 6))) for i in range(12))
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
