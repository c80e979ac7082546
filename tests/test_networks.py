import numpy as np
import pytest

import phaselab as pl
import phaselab.numerics as nm
from phaselab.networks import (
    FrapConfig,
    FrapNetwork,
    VanillaConfig,
    VanillaNetwork,
    load_checkpoint,
    save_checkpoint,
)
from phaselab.numerics import Tape, Tensor

from conftest import random_state
from oracles import (
    finite_difference_grads_filtered,
    frap_reference,
    masked_relative_error,
    vanilla_reference,
)


@pytest.fixture(scope="module")
def frap4(table4):
    return FrapNetwork(table4, FrapConfig())


def _random_batch(table, rng, batch):
    counts = rng.integers(0, 41, size=(batch, table.n_movements)).astype(float)
    bits = np.zeros((batch, table.n_movements))
    for i in range(batch):
        bits[i, list(table.phases[int(rng.integers(table.n_phases))].members)] = 1.0
    return counts, bits


class TestMovementDemand:
    def test_zero_weights_give_relu_bias(self, table4, frap4):
        params = frap4.init_params(0)
        zeroed = {k: Tensor(np.zeros_like(t.data)) for k, t in params.items()}
        bias = np.array([0.5, -1.0, 2.0, 0.0] * 4)
        zeroed["b_h"] = Tensor(bias)
        d = frap4.movement_demand(zeroed, np.full(8, 13.0), np.zeros(8))
        expected = np.maximum(bias, 0.0)
        for i in range(8):
            assert np.array_equal(d.data[0, i], expected)

    def test_identical_features_share_demand(self, table4, frap4):
        params = frap4.init_params(1)
        counts = np.array([7.0, 3.0, 7.0, 1.0, 7.0, 0.0, 2.0, 7.0])
        bits = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        d = frap4.movement_demand(params, counts, bits).data[0]
        # movements 0, 2, 4 and 7 carry identical (count, bit) pairs
        assert np.array_equal(d[0], d[2])
        assert np.array_equal(d[0], d[4])
        assert np.array_equal(d[0], d[7])

    def test_matches_straight_line_reference(self, table4, frap4):
        rng = np.random.default_rng(2)
        params = frap4.init_params(3)
        counts, bits = _random_batch(table4, rng, 1)
        d = frap4.movement_demand(params, counts, bits).data[0]
        p_np = {k: t.data for k, t in params.items()}
        for i in range(8):
            hv = np.maximum(p_np["w_v"][0] * counts[0, i] / 40.0 + p_np["b_v"], 0)
            hs = np.maximum(p_np["w_s"][0] * bits[0, i] + p_np["b_s"], 0)
            expected = np.maximum(np.concatenate([hv, hs]) @ p_np["w_h"] + p_np["b_h"], 0)
            assert np.allclose(d[i], expected, atol=1e-12)


class TestPhaseDemand:
    def test_zero_demands_stay_zero(self, table4, frap4):
        zeros = Tensor(np.zeros((1, 8, 16)))
        dp = frap4.phase_demand(zeros)
        assert np.array_equal(dp.data, np.zeros((1, 8, 16)))

    def test_equals_member_sum(self, table4, frap4):
        rng = np.random.default_rng(4)
        d = rng.normal(size=(2, 8, 16))
        dp = frap4.phase_demand(Tensor(d)).data
        for b in range(2):
            for ph in table4.phases:
                i, j = ph.members
                assert np.array_equal(dp[b, ph.index], d[b, i] + d[b, j])


class TestVolumes:
    def test_shapes_are_p_by_p_minus_1(self, table4, frap4):
        params = frap4.init_params(0)
        dp = Tensor(np.random.default_rng(0).normal(size=(3, 8, 16)))
        d_vol, e_vol = frap4.build_volumes(params, dp)
        assert d_vol.data.shape == (3, 8, 7, 32)
        assert e_vol.data.shape == (8, 7, 4)

    def test_relation_rows_match_table(self, table4, frap4):
        params = frap4.init_params(0)
        dp = Tensor(np.zeros((1, 8, 16)))
        _, e_vol = frap4.build_volumes(params, dp)
        emb = params["rel_emb"].data
        nt_st = table4.phase_with_members([0, 4])
        nt_nl = table4.phase_with_members([0, 1])
        el_wl = table4.phase_with_members([3, 7])
        # opponent slots skip the phase itself, ascending
        opp_of_nt_st = [q for q in range(8) if q != nt_st]
        slot_partial = opp_of_nt_st.index(nt_nl)
        slot_full = opp_of_nt_st.index(el_wl)
        assert np.array_equal(e_vol.data[nt_st, slot_partial], emb[0])  # shares N-T
        assert np.array_equal(e_vol.data[nt_st, slot_full], emb[1])  # disjoint

    def test_opponent_ordering_enumeration_oracle(self, table4, frap4):
        params = frap4.init_params(0)
        rng = np.random.default_rng(7)
        dp_np = rng.normal(size=(1, 8, 16))
        d_vol, _ = frap4.build_volumes(params, Tensor(dp_np))
        for p in range(8):
            opponents = [q for q in range(8) if q != p]  # ascending, skip self
            for slot, q in enumerate(opponents):
                expected = np.concatenate([dp_np[0, p], dp_np[0, q]])
                assert np.array_equal(d_vol.data[0, p, slot], expected)


class TestQForward:
    def test_uniform_state_gives_equal_q(self, table4, frap4):
        params = frap4.init_params(11)
        q = frap4.forward(params, np.full(8, 9.0), np.zeros(8)).data[0]
        assert np.allclose(q, q[0], atol=1e-9)

    @pytest.mark.parametrize("output_relu", [False, True])
    def test_matches_duplicate_implementation(self, table4, output_relu):
        cfg = FrapConfig(output_relu=output_relu)
        net = FrapNetwork(table4, cfg)
        rng = np.random.default_rng(13)
        for trial in range(10):
            params = net.init_params(100 + trial)
            counts, bits = _random_batch(table4, rng, 1)
            q = net.forward(params, counts, bits).data[0]
            ref = frap_reference(counts[0], bits[0], table4, {k: t.data for k, t in params.items()}, cfg)
            assert np.abs(q - ref).max() < 1e-10

    def test_equivariance_random(self, table4, group4):
        net = FrapNetwork(table4, FrapConfig())
        rng = np.random.default_rng(17)
        for trial in range(5):
            params = net.init_params(200 + trial)
            counts, bits = _random_batch(table4, rng, 20)
            q_base = net.forward(params, counts, bits).data
            for op in group4:
                inv = np.argsort(op.movement_perm)
                q_sym = net.forward(params, counts[:, inv], bits[:, inv]).data
                assert np.abs(q_sym[:, op.phase_perm] - q_base).max() < 1e-5

    def test_opponent_order_irrelevant(self, table4):
        # Scrambling the opponent enumeration must not change Q: the final sum
        # runs over all opponents.
        net = FrapNetwork(table4, FrapConfig())
        params = net.init_params(3)
        rng = np.random.default_rng(23)
        counts, bits = _random_batch(table4, rng, 4)
        q_base = net.forward(params, counts, bits).data
        scrambled = FrapNetwork(table4, FrapConfig())
        for p in range(8):
            perm = rng.permutation(7)
            scrambled.opponents[p] = scrambled.opponents[p, perm]
            scrambled.pair_relation[p] = scrambled.pair_relation[p, perm]
        q_scrambled = scrambled.forward(params, counts, bits).data
        assert np.abs(q_scrambled - q_base).max() < 1e-10

    def test_finite_q_on_extreme_counts(self, table4, frap4):
        params = frap4.init_params(5)
        for counts in (np.zeros(8), np.full(8, 40.0)):
            q = frap4.forward(params, counts, np.zeros(8)).data
            assert np.all(np.isfinite(q))

    def test_full_graph_gradient_finite_differences(self, table4):
        # Zero-initialised biases leave ReLU inputs exactly at the kink, where
        # central differences are invalid; perturb all parameters first.
        net = FrapNetwork(table4, FrapConfig())
        rng = np.random.default_rng(29)
        for trial in range(3):
            params = {
                k: Tensor(t.data + rng.normal(0.0, 0.3, size=t.data.shape))
                for k, t in net.init_params(300 + trial).items()
            }
            counts, bits = _random_batch(table4, rng, 2)
            weights = rng.normal(size=(2, 8))

            def scalar(arrays):
                tensors = {k: Tensor(v) for k, v in arrays.items()}
                q = net.forward(tensors, counts, bits)
                return float((q.data * weights).sum())

            tape = Tape()
            tensors = {k: Tensor(t.data) for k, t in params.items()}
            q = net.forward(tensors, counts, bits, tape)
            loss = nm.sum_axis(
                nm.sum_axis(nm.mul_elem(q, Tensor(weights), tape), 1, tape), 0, tape
            )
            grads = nm.backward(tape, loss, tensors)
            # Step 1e-4: at 1e-3 the probes of a composed ReLU graph bracket
            # kinks often enough to corrupt the quotient.
            fd, masks = finite_difference_grads_filtered(
                scalar, {k: t.data for k, t in params.items()}, eps=1e-4
            )
            total = sum(m.size for m in masks.values())
            reliable = sum(int(m.sum()) for m in masks.values())
            assert reliable > 0.95 * total  # kink-straddling coordinates are rare
            for name in tensors:
                assert masked_relative_error(grads[name], fd[name], masks[name]) < 1e-4, name

    def test_three_approach_table_works_unpadded(self):
        table3 = pl.build_phase_table(3)
        net = FrapNetwork(table3, FrapConfig())
        params = net.init_params(0)
        q = net.forward(params, np.arange(6, dtype=float), np.zeros(6)).data
        assert q.shape == (1, 3)
        assert np.all(np.isfinite(q))


class TestVanilla:
    def test_zero_weights_give_output_bias(self, table4):
        net = VanillaNetwork(table4, VanillaConfig())
        params = {k: Tensor(np.zeros_like(t.data)) for k, t in net.init_params(0).items()}
        params["b2"] = Tensor(np.arange(8.0))
        q = net.forward(params, np.full(8, 10.0), np.zeros(8)).data[0]
        assert np.array_equal(q, np.arange(8.0))

    def test_matches_duplicate_implementation(self, table4):
        cfg = VanillaConfig()
        net = VanillaNetwork(table4, cfg)
        rng = np.random.default_rng(31)
        for trial in range(10):
            params = net.init_params(400 + trial)
            counts, bits = _random_batch(table4, rng, 1)
            q = net.forward(params, counts, bits).data[0]
            ref = vanilla_reference(counts[0], bits[0], table4, {k: t.data for k, t in params.items()}, cfg)
            assert np.abs(q - ref).max() < 1e-10

    def test_not_equivariant_counterexample_search(self, table4, group4):
        net = VanillaNetwork(table4, VanillaConfig())
        rng = np.random.default_rng(37)
        violated = 0
        for trial in range(20):
            params = net.init_params(500 + trial)
            counts, bits = _random_batch(table4, rng, 10)
            q_base = net.forward(params, counts, bits).data
            worst = 0.0
            for op in group4[1:]:
                inv = np.argsort(op.movement_perm)
                q_sym = net.forward(params, counts[:, inv], bits[:, inv]).data
                worst = max(worst, float(np.abs(q_sym[:, op.phase_perm] - q_base).max()))
            if worst > 1e-3:
                violated += 1
        assert violated == 20


class TestCheckpointSidecar:
    def test_roundtrip_and_mismatch(self, table4, tmp_path):
        net = FrapNetwork(table4, FrapConfig(conv_layers=2))
        params = net.init_params(0)
        path = save_checkpoint(tmp_path / "model.bin", "frap", net, params)
        kind, loaded_net, loaded = load_checkpoint(path, table4)
        assert kind == "frap"
        assert loaded_net.config == net.config
        for k in params:
            assert np.array_equal(loaded[k].data, params[k].data)
        rng = np.random.default_rng(0)
        s = random_state(table4, rng)
        assert np.allclose(net.q_values(params, s), loaded_net.q_values(loaded, s))
        table3 = pl.build_phase_table(3)
        with pytest.raises(ValueError):
            load_checkpoint(path, table3)

    def test_arrays_must_match_the_described_network(self, table4, tmp_path):
        small = FrapNetwork(table4, FrapConfig(demand_dim=8, conv_channels=8))
        large = FrapNetwork(table4, FrapConfig(conv_layers=2))
        # .meta.json describes the large network; the arrays are the small one's
        path = save_checkpoint(tmp_path / "model.bin", "frap", large, small.init_params(0))
        with pytest.raises(ValueError, match="'b_d0' has shape"):
            load_checkpoint(path, table4)
        extra = {**large.init_params(0), "stray": Tensor(np.zeros(3))}
        path = save_checkpoint(tmp_path / "extra.bin", "frap", large, extra)
        with pytest.raises(ValueError, match="stray"):
            load_checkpoint(path, table4)
