import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab as pl
from phaselab import flows
from phaselab.flows import (
    BENCHMARK_FLOW_NAMES,
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

from conftest import golden_platform_note
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
        routes = (((0, 6),), ((0, 2), (1, 2)), ((0, 0),))
        flow = FlowSchedule((0, 1, 2), (0.0, 12.5, 100.25), routes)
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
        assert parsed.vehicle_ids == flow.vehicle_ids
        assert parsed.entry_times == flow.entry_times
        assert parsed.routes == flow.routes

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
        assert flow.vehicle_ids == (13, 11, 10, 12)
        assert flow.entry_times == (1.0, 2.0, 5.0, 5.0)
        assert flow.routes == (((0, 4),), ((0, 2),), ((0, 1),), ((0, 3),))

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
        flow = FlowSchedule((0, 1), (0.0, 1.0), (((0, 3),), ((0, 2), (1, 7))))
        flow.validate(8, 2)
        with pytest.raises(ValueError, match="vehicle 1: unknown movement id 7"):
            flow.validate(4, 2)
        with pytest.raises(ValueError, match="vehicle 1: unknown intersection 1"):
            flow.validate(8, 1)
        with pytest.raises(ValueError, match="vehicle 0: unknown intersection 0"):
            flow.validate(8, 0)
        FlowSchedule((), (), ()).validate(8, 0)

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
        with pytest.raises(ValueError, match=f"vehicle {bad}: entry time .* finite and non-negative"):
            FlowSchedule(tuple(range(len(times))), times, (((0, 1),),) * len(times))

    def test_unsorted_and_empty_route_rejected(self):
        with pytest.raises(ValueError, match="sorted by entry time"):
            FlowSchedule((0, 1), (2.0, 1.0), (((0, 1),), ((0, 1),)))
        with pytest.raises(ValueError, match="vehicle 1 has an empty route"):
            FlowSchedule((0, 1), (0.0, 1.0), (((0, 1),), ()))

    @pytest.mark.parametrize("n_ids,n_times,n_routes", [(2, 3, 3), (3, 2, 3), (3, 3, 2)])
    def test_columns_must_have_equal_lengths(self, n_ids, n_times, n_routes):
        with pytest.raises(ValueError, match="columns differ in length"):
            FlowSchedule(
                tuple(range(n_ids)), (0.0, 1.0, 2.0)[:n_times], (((0, 1),),) * n_routes
            )

    def test_route_lengths_follow_the_routes(self):
        flow = synthesize_grid_flow(benchmark_flow_spec("unbalanced-WE", duration=600.0), 2, 2, 3)
        assert len(flow) == len(flow.entry_times) == len(flow.routes)
        assert flow.route_lengths == tuple(len(route) for route in flow.routes)
        assert flow.route_lengths is flow.route_lengths  # built once


class TestSynthesis:
    def test_zero_rates_empty(self):
        spec = FlowSynthesisSpec(rates=(0.0,) * 8)
        assert len(synthesize_flow(spec, 0)) == 0

    def test_uniform_spacing(self):
        spec = FlowSynthesisSpec(rates=(360.0,) + (0.0,) * 7, process="uniform")
        flow = synthesize_flow(spec, 0)
        times = flow.entry_times
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
        assert f1.entry_times == f2.entry_times
        assert f1.routes == f2.routes

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

    def test_blocks_that_fall_short_are_extended(self, monkeypatch):
        monkeypatch.setattr(flows, "_gap_block", lambda expected: 3)
        for seed in range(3):
            assert_draws_match_scalar_loop(benchmark_flow_spec("unbalanced-WE"), seed)

    @pytest.mark.parametrize("rate", [1.1555371709515167e-304, 5e-324])
    def test_near_zero_rate_matches_scalar_loop(self, rate):
        # The gap mean 3600 / rate is near or past the float maximum, so the
        # block sums overflow to inf.
        assert_draws_match_scalar_loop(FlowSynthesisSpec(rates=(rate,), duration=1.0), 0)

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
        assert set(flow.routes) == {((0, 6), (1, 6), (2, 6))}  # west-to-east corridor

    def test_left_turns_are_local(self):
        spec = FlowSynthesisSpec(
            rates=(0.0, 120.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), process="uniform"
        )
        flow = synthesize_grid_flow(spec, rows=1, cols=3, seed=0)
        assert len(flow) == 3 * 120  # once per intersection
        assert set(flow.routes) == {((0, 1),), ((1, 1),), ((2, 1),)}

    def test_movement_volumes_are_per_intersection(self):
        # A corridor vehicle loads every intersection it crosses; a left turn
        # loads one. Both come out at the synthesis rate per intersection.
        spec = FlowSynthesisSpec(
            rates=(0.0, 120.0, 0.0, 0.0, 0.0, 0.0, 360.0, 0.0), process="uniform"
        )
        flow = synthesize_grid_flow(spec, rows=1, cols=3, seed=0)
        volumes = flow.movement_volumes(8, spec.duration, n_intersections=3)
        assert np.allclose(volumes, spec.rates)

    def test_movement_volumes_match_per_hop_loop(self):
        flow = synthesize_grid_flow(pl.benchmark_flow_spec("unbalanced-WE"), 2, 2, seed=0)
        counts = np.zeros(8)
        for route in flow.routes:
            for _, movement in route:
                counts[movement] += 1.0
        expected = counts * 3600.0 / 3600.0 / 4
        assert flow.movement_volumes(8, 3600.0, 4).tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="unknown movement id 7"):
            flow.movement_volumes(4, 3600.0, 4)


class TestMirrorFlow:
    def _small_flow(self):
        return FlowSchedule((0, 1), (1.0, 2.0), (((0, 6),), ((0, 0),)))

    def test_identity_unchanged(self, table4, group4):
        flow = self._small_flow()
        out = mirror_flow(group4[0], flow)
        assert out.routes == flow.routes

    def test_flip_is_involution(self, table4):
        flip = find_op(table4, "flip")
        flow = self._small_flow()
        double = mirror_flow(flip, mirror_flow(flip, flow))
        assert double.routes == flow.routes
        assert double.vehicle_ids == flow.vehicle_ids
        assert double.entry_times == flow.entry_times

    def test_w_through_maps_to_e_through(self, table4):
        flip = find_op(table4, "flip")
        out = mirror_flow(flip, self._small_flow())
        assert out.routes == (((0, 2),), ((0, 0),))  # W-T -> E-T; N-T fixed

    def test_multi_intersection_rejected(self, table4):
        flip = find_op(table4, "flip")
        flow = FlowSchedule((0,), (0.0,), (((0, 6), (1, 6)),))
        with pytest.raises(ValueError):
            mirror_flow(flip, flow)


def _golden_flow(case: str) -> FlowSchedule:
    kind, name, seed = case.split("/")
    if kind == "grid-2x3":
        return synthesize_grid_flow(benchmark_flow_spec(name), 2, 3, int(seed))
    if kind == "uniform":
        rates = (360.0, 0.0, 97.5, 1200.0, 7.0, 45.0)
        return synthesize_flow(FlowSynthesisSpec(rates=rates, process="uniform"), int(seed))
    return synthesize_flow(benchmark_flow_spec(name), int(seed))


# sha256 of the written CSV of each 3600 s flow: pins every synthesized bit.
GOLDEN_FLOW_DIGESTS = {
    "1x1/balanced-8/0": "61fbcf8d8df2f7b2f3e5812e9025f86499b966ade9e23caf074222209c79a653",
    "1x1/balanced-8/1": "7dd1c5d2300eb552453d3d1fa8737d61aaff42a16faed5e1a19b7be4be90dd8c",
    "1x1/balanced-8/2": "28637676847aec92894c4a17e52baa81b59a82c57c2e67c6353bf488bd77fe4f",
    "1x1/flip-pair-am/0": "0d5bad50a2e1b627766dd830bf1c326559e10dc2777506753f9ea4d47fe4cf3b",
    "1x1/flip-pair-am/1": "a0918c20b81dcc77d40dc9a0a6bc758f812d5c48ca62b873650c75abeedf4e90",
    "1x1/flip-pair-am/2": "fc7d65355fe82c7363a781e5283ae580a6ccd6d1c4671bd702195f6fa27d1cc1",
    "1x1/flip-pair-pm/0": "65fd500d9f93f4f03dac8dd3afb0d1f317cfea8d384b72c1bcba2f75d4623f02",
    "1x1/flip-pair-pm/1": "16d5089b7451d3c5d634dca96aa6cb5c93fc4d0c535816ca346027f419c049c3",
    "1x1/flip-pair-pm/2": "3182134e41b2512d26237fcde800c040b9576597bf94b75166ae49978e50ae6e",
    "1x1/unbalanced-we/0": "ec2562cc80aeca0489dfd315e0d7dc95bf6638701b0f7706f22f9bf30f76d909",
    "1x1/unbalanced-we/1": "ce4ed159d3970b2da344d8007811334a5953eaab30ff397e490cb3506bbc282d",
    "1x1/unbalanced-we/2": "c31e8315ca5f17784b58a86f89c6769bafbf35a7db124c5440c6a77e64949db0",
    "grid-2x3/unbalanced-we/0": "adfe35999888ae6c601a0edd8c9a56cbba2b7f8b7681efe36918d9f16b91418d",
    "uniform/six-movements/0": "f1bb9cb6a0ce783bcd97d2eb1227bd9eaddf53caba5f68eede68021c2fef45ae",
}


class TestGoldenFlows:
    @pytest.mark.parametrize("case", sorted(GOLDEN_FLOW_DIGESTS))
    def test_flow_csv_digest(self, case, tmp_path):
        flow = _golden_flow(case)
        path = write_flow_csv(flow, tmp_path / "flow.csv")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_FLOW_DIGESTS[case], golden_platform_note()
        parsed = parse_flow_csv(path)
        assert parsed.vehicle_ids == flow.vehicle_ids
        assert parsed.entry_times == flow.entry_times
        assert parsed.routes == flow.routes
