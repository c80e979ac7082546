import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab as pl
from phaselab import flows
from phaselab.flows import (
    BENCHMARK_FLOW_NAMES,
    FlowEvent,
    FlowSchedule,
    FlowSynthesisSpec,
    benchmark_flow_spec,
    mirror_flow,
    parse_flow_csv,
    synthesize_flow,
    synthesize_grid_flow,
    write_flow_csv,
)
from phaselab.topology import find_op

from oracles import movement_times_oracle


def assert_draws_match_scalar_loop(spec, seed):
    """Each movement's times, and the generator left behind, equal the
    one-draw-per-gap loop's, movement after movement on one generator."""
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for movement in range(len(spec.rates)):
        assert flows._movement_times(spec, movement, fast) == movement_times_oracle(
            spec, movement, slow
        )
        assert fast.bit_generator.state == slow.bit_generator.state


class TestCsv:
    def test_empty_body(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("vehicle_id,entry_time,route\n")
        flow = parse_flow_csv(path)
        assert len(flow) == 0

    def test_three_row_roundtrip_byte_identical(self, tmp_path):
        flow = FlowSchedule(
            events=(
                FlowEvent(0, 0.0, ((0, 6),)),
                FlowEvent(1, 12.5, ((0, 2), (1, 2))),
                FlowEvent(2, 100.25, ((0, 0),)),
            )
        )
        p1 = write_flow_csv(flow, tmp_path / "a.csv")
        parsed = parse_flow_csv(p1)
        p2 = write_flow_csv(parsed, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("grid", (False, True))
    def test_synthesized_flow_roundtrips_exactly(self, tmp_path, grid):
        # Entry times were written with 6 significant digits, moving each by up to 5 ms.
        spec = benchmark_flow_spec("unbalanced-WE", duration=600.0)
        flow = synthesize_grid_flow(spec, 2, 2, 3) if grid else synthesize_flow(spec, 3)
        parsed = parse_flow_csv(write_flow_csv(flow, tmp_path / "flow.csv"))
        assert parsed.events == flow.events

    def test_out_of_order_rows_sorted_stably(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text(
            "vehicle_id,entry_time,route\n"
            "10,5.0,0:1\n"
            "11,2.0,0:2\n"
            "12,5.0,0:3\n"  # same entry time as vehicle 10: file order preserved
            "13,1.0,0:4\n"
        )
        flow = parse_flow_csv(path)
        assert [e.vehicle_id for e in flow.events] == [13, 11, 10, 12]

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("vehicle_id,entry_time,route\n0,1.0,0:2\n1,zzz,0:1\n")
        with pytest.raises(ValueError, match=":3"):
            parse_flow_csv(path)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "-1.0"])
    def test_entry_time_must_be_finite_and_non_negative(self, tmp_path, entry):
        # A nan row passed the sort check; the simulator's entry pointer then
        # stalled on it, and the vehicles behind it never entered.
        path = tmp_path / "flow.csv"
        path.write_text(
            "vehicle_id,entry_time,route\n"
            "0,1.0,0:2\n"
            f"1,{entry},0:1\n"
            "2,3.0,0:1\n"
            "3,4.0,0:1\n"
        )
        with pytest.raises(ValueError, match=f":3: entry time '{entry}'"):
            parse_flow_csv(path)

    def test_validated_flow_still_rejects_tighter_bounds(self):
        flow = FlowSchedule(
            events=(FlowEvent(0, 0.0, ((0, 3),)), FlowEvent(1, 1.0, ((0, 2), (1, 7))))
        )
        flow.validate(8, 2)
        with pytest.raises(ValueError, match="vehicle 1: unknown movement id 7"):
            flow.validate(4, 2)
        with pytest.raises(ValueError, match="vehicle 1: unknown intersection 1"):
            flow.validate(8, 1)
        with pytest.raises(ValueError, match="vehicle 0: unknown intersection 0"):
            flow.validate(8, 0)
        FlowSchedule(events=()).validate(8, 0)

    def test_unknown_movement_rejected(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("vehicle_id,entry_time,route\n0,1.0,0:9\n")
        with pytest.raises(ValueError, match="movement"):
            parse_flow_csv(path, n_movements=8)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("vid,t,route\n")
        with pytest.raises(ValueError, match="header"):
            parse_flow_csv(path)


class TestSchedule:
    @pytest.mark.parametrize(
        "times,bad",
        [
            ((1.0, float("nan"), 0.5), 1),  # b < a is False for a nan: unsorted, yet it passed
            ((float("nan"), 1.0, 2.0), 0),
            ((-3.0, 1.0, 2.0), 0),
            ((0.0, 1.0, float("inf")), 2),
            ((float("-inf"), 1.0, 2.0), 0),
        ],
    )
    def test_entry_time_must_be_finite_and_non_negative(self, times, bad):
        events = tuple(FlowEvent(i, t, ((0, 1),)) for i, t in enumerate(times))
        with pytest.raises(ValueError, match=f"vehicle {bad}: entry time .* finite and non-negative"):
            FlowSchedule(events=events)

    def test_unsorted_and_empty_route_rejected(self):
        with pytest.raises(ValueError, match="sorted by entry time"):
            FlowSchedule(events=(FlowEvent(0, 2.0, ((0, 1),)), FlowEvent(1, 1.0, ((0, 1),))))
        with pytest.raises(ValueError, match="vehicle 1 has an empty route"):
            FlowSchedule(events=(FlowEvent(0, 0.0, ((0, 1),)), FlowEvent(1, 1.0, ())))

    def test_columns_follow_the_events(self):
        flow = synthesize_grid_flow(benchmark_flow_spec("unbalanced-WE", duration=600.0), 2, 2, 3)
        assert flow.vehicle_ids == tuple(e.vehicle_id for e in flow.events)
        assert flow.entry_times == tuple(e.entry_time for e in flow.events)
        assert flow.routes == tuple(e.route for e in flow.events)
        assert flow.route_lengths == tuple(len(e.route) for e in flow.events)
        assert flow.entry_times is flow.entry_times  # built once


class TestSynthesis:
    def test_zero_rates_empty(self):
        spec = FlowSynthesisSpec(rates=(0.0,) * 8)
        assert len(synthesize_flow(spec, 0)) == 0

    def test_uniform_spacing(self):
        spec = FlowSynthesisSpec(rates=(360.0,) + (0.0,) * 7, process="uniform")
        flow = synthesize_flow(spec, 0)
        times = [e.entry_time for e in flow.events]
        assert len(times) == 360
        assert times[0] == 0.0
        assert np.allclose(np.diff(times), 10.0)

    def test_poisson_count_within_binomial_bound(self):
        spec = FlowSynthesisSpec(rates=(360.0,) + (0.0,) * 7, process="poisson")
        # P(|N - 360| > 60) is below 1% for Poisson(360); check many seeds.
        ok = 0
        for seed in range(100):
            n = len(synthesize_flow(spec, seed))
            ok += 300 <= n <= 420
        assert ok >= 99

    def test_deterministic_per_seed(self):
        spec = benchmark_flow_spec("unbalanced-WE")
        f1 = synthesize_flow(spec, 7)
        f2 = synthesize_flow(spec, 7)
        assert [e.entry_time for e in f1.events] == [e.entry_time for e in f2.events]
        assert [e.route for e in f1.events] == [e.route for e in f2.events]

    def test_segments_tile_duration(self):
        spec = FlowSynthesisSpec(
            rates=(360.0,) + (0.0,) * 7,
            process="uniform",
            duration=200.0,
            segments=((100.0, (360.0,) + (0.0,) * 7), (100.0, (0.0,) * 8)),
        )
        flow = synthesize_flow(spec, 0)
        assert all(e.entry_time < 100.0 for e in flow.events)
        with pytest.raises(ValueError, match="segments"):
            FlowSynthesisSpec(
                rates=(1.0,) * 8, duration=100.0, segments=((30.0, (1.0,) * 8),)
            )

    def test_benchmark_names(self):
        assert set(BENCHMARK_FLOW_NAMES) == {
            "balanced-8", "unbalanced-we", "flip-pair-am", "flip-pair-pm",
        }
        spec = benchmark_flow_spec("unbalanced-WE")
        assert spec.rates[6] == 600.0  # W-T
        assert spec.rates[2] == 120.0  # E-T
        with pytest.raises(KeyError):
            benchmark_flow_spec("nope")

    def test_flip_pair_flows_mirror_each_other(self, table4):
        am = benchmark_flow_spec("flip-pair-am")
        pm = benchmark_flow_spec("flip-pair-pm")
        flip = find_op(table4, "flip")
        for m in range(8):
            assert am.rates[m] == pm.rates[int(flip.movement_perm[m])]


class TestBlockDraws:
    @pytest.mark.parametrize("name", BENCHMARK_FLOW_NAMES)
    def test_named_flows_match_scalar_loop(self, name):
        for seed in range(5):
            assert_draws_match_scalar_loop(benchmark_flow_spec(name), seed)

    def test_segmented_spec_matches_scalar_loop(self):
        spec = FlowSynthesisSpec(
            rates=(360.0,) * 8,
            duration=900.0,
            segments=(
                (300.0, (600.0, 0.0, 120.0, 30.0, 360.0, 5.0, 900.0, 60.0)),
                (0.0, (360.0,) * 8),
                (600.0, (60.0, 240.0, 0.0, 1800.0, 360.0, 0.5, 90.0, 360.0)),
            ),
        )
        for seed in range(5):
            assert_draws_match_scalar_loop(spec, seed)

    def test_blocks_that_fall_short_are_extended(self, monkeypatch):
        monkeypatch.setattr(flows, "_gap_block", lambda expected: 3)
        for seed in range(3):
            assert_draws_match_scalar_loop(benchmark_flow_spec("unbalanced-WE"), seed)

    @given(
        rates=st.lists(st.floats(0.0, 4000.0), min_size=1, max_size=4),
        duration=st.floats(0.5, 2000.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_specs_match_scalar_loop(self, rates, duration, seed):
        spec = FlowSynthesisSpec(rates=tuple(rates), duration=duration)
        assert_draws_match_scalar_loop(spec, seed)


class TestGridSynthesis:
    def test_through_corridors_cross_grid(self):
        spec = FlowSynthesisSpec(
            rates=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 360.0, 0.0), process="uniform"
        )
        flow = synthesize_grid_flow(spec, rows=1, cols=3, seed=0)
        assert len(flow) == 360
        for e in flow.events:
            assert e.route == ((0, 6), (1, 6), (2, 6))  # west-to-east corridor

    def test_left_turns_are_local(self):
        spec = FlowSynthesisSpec(
            rates=(0.0, 120.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), process="uniform"
        )
        flow = synthesize_grid_flow(spec, rows=1, cols=3, seed=0)
        assert len(flow) == 3 * 120  # once per intersection
        assert {e.route for e in flow.events} == {((0, 1),), ((1, 1),), ((2, 1),)}

    def test_movement_volumes_are_per_intersection(self):
        # A corridor vehicle loads every intersection it crosses; a left turn
        # loads one. Both come out at the synthesis rate per intersection.
        spec = FlowSynthesisSpec(
            rates=(0.0, 120.0, 0.0, 0.0, 0.0, 0.0, 360.0, 0.0), process="uniform"
        )
        flow = synthesize_grid_flow(spec, rows=1, cols=3, seed=0)
        volumes = flow.movement_volumes(8, spec.duration, n_intersections=3)
        assert np.allclose(volumes, spec.rates)


class TestMirrorFlow:
    def _small_flow(self):
        return FlowSchedule(
            events=(FlowEvent(0, 1.0, ((0, 6),)), FlowEvent(1, 2.0, ((0, 0),)))
        )

    def test_identity_unchanged(self, table4, group4):
        flow = self._small_flow()
        out = mirror_flow(group4[0], flow)
        assert [e.route for e in out.events] == [e.route for e in flow.events]

    def test_flip_is_involution(self, table4):
        flip = find_op(table4, "flip")
        flow = self._small_flow()
        double = mirror_flow(flip, mirror_flow(flip, flow))
        assert [e.route for e in double.events] == [e.route for e in flow.events]
        assert [e.entry_time for e in double.events] == [e.entry_time for e in flow.events]

    def test_w_through_maps_to_e_through(self, table4):
        flip = find_op(table4, "flip")
        out = mirror_flow(flip, self._small_flow())
        assert out.events[0].route == ((0, 2),)  # W-T -> E-T
        assert out.events[1].route == ((0, 0),)  # N-T fixed

    def test_multi_intersection_rejected(self, table4):
        flip = find_op(table4, "flip")
        flow = FlowSchedule(events=(FlowEvent(0, 0.0, ((0, 6), (1, 6))),))
        with pytest.raises(ValueError):
            mirror_flow(flip, flow)
