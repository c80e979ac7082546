import numpy as np
import pytest

import phaselab.numerics as nm
from phaselab.networks import FrapConfig, FrapNetwork, VanillaConfig, VanillaNetwork
from phaselab.numerics import Tape, Tensor

from oracles import adam_reference, finite_difference_grads, frap_reference, relative_error

FD_TOL = 1e-4


def _grad_case(build, params_np, seed=None):
    """Compare tape gradients against central finite differences."""

    def scalar(arrays):
        tensors = {k: Tensor(v) for k, v in arrays.items()}
        out, _ = build(tensors, None)
        return float(out.data)

    tensors = {k: Tensor(v) for k, v in params_np.items()}
    tape = Tape()
    out, wrt = build(tensors, tape)
    grads = nm.backward(tape, out, wrt or tensors)
    fd = finite_difference_grads(scalar, params_np)
    for name in (wrt or tensors):
        assert relative_error(grads[name], fd[name]) < FD_TOL, name
    return grads


# Affine maps, ReLU, 1x1 convolutions and embedding lookups are no longer
# tape ops: they run inside the fused network kernels. The tests named after
# them check the same facts through those kernels. A vanilla network with no
# hidden layer is one affine map; one hidden layer makes affine-ReLU-affine.


def _features(counts, bits, norm_capacity=40.0):
    return np.concatenate([counts / norm_capacity, bits], axis=1)


def _random_inputs(table, rng, batch):
    counts = rng.integers(0, 41, size=(batch, table.n_movements)).astype(float)
    bits = rng.integers(0, 2, size=(batch, table.n_movements)).astype(float)
    return counts, bits


def _kernel_grad_case(net, params_np, counts, bits, rng):
    """FD check of the kernel's one tape node, through a Huber loss held in
    its linear region (targets 50 from Q), which weights each Q linearly."""
    q0 = net.forward({k: Tensor(v) for k, v in params_np.items()}, counts, bits).data
    target = Tensor(q0 + 50.0 * rng.choice([-1.0, 1.0], size=q0.shape))
    mask = Tensor(rng.uniform(0.1, 1.0, size=q0.shape))

    def build(t, tape):
        return nm.huber_loss(net.forward(t, counts, bits, tape), target, mask, tape=tape), None

    return _grad_case(build, params_np)


class TestForwardSemantics:
    def test_relu_values(self, table4):
        # Identity layers around one ReLU: Q is relu of the first 8 features.
        net = VanillaNetwork(table4, VanillaConfig(hidden=(16,)))
        params = {
            "w0": Tensor(np.eye(16)),
            "b0": Tensor(np.zeros(16)),
            "w1": Tensor(np.eye(16)[:, :8]),
            "b1": Tensor(np.zeros(8)),
        }
        counts = np.array([-40.0, 0.0, 80.0, -4.0, 4.0, 0.0, 40.0, -80.0])
        q = net.forward(params, counts, np.ones(8)).data[0]
        assert np.array_equal(q, [0.0, 0.0, 2.0, 0.0, 0.1, 0.0, 1.0, 0.0])

    def test_affine_matches_numpy(self, table4):
        net = VanillaNetwork(table4, VanillaConfig(hidden=()))
        rng = np.random.default_rng(0)
        params = {"w0": rng.normal(size=(16, 8)), "b0": rng.normal(size=8)}
        counts, bits = _random_inputs(table4, rng, 4)
        q = net.forward({k: Tensor(v) for k, v in params.items()}, counts, bits).data
        assert np.allclose(q, _features(counts, bits) @ params["w0"] + params["b0"])

    def test_conv1x1_identity_filter(self, table4):
        # An identity pair filter passes [d(p), d(q)] through unchanged; with a
        # relation branch of ones and unit output weights a pair scores
        # |d(p)|_1 + |d(q)|_1, so Q(p) = (P-1)|d(p)|_1 + sum_{q != p} |d(q)|_1.
        cfg = FrapConfig(conv_channels=2 * FrapConfig().demand_dim)
        net = FrapNetwork(table4, cfg)
        params = net.init_params(1)
        params["w_d0"] = Tensor(np.eye(cfg.conv_channels))
        params["b_d0"] = Tensor(np.zeros(cfg.conv_channels))
        params["w_r0"] = Tensor(np.zeros((cfg.relation_dim, cfg.conv_channels)))
        params["b_r0"] = Tensor(np.ones(cfg.conv_channels))
        params["w_out"] = Tensor(np.ones((cfg.conv_channels, 1)))
        params["b_out"] = Tensor(np.zeros(1))
        counts, bits = _random_inputs(table4, np.random.default_rng(1), 3)
        q = net.forward(params, counts, bits).data
        norms = net.phase_demand(net.movement_demand(params, counts, bits)).data.sum(axis=2)
        n_ph = table4.n_phases
        expected = (n_ph - 1) * norms + (norms.sum(axis=1, keepdims=True) - norms)
        assert np.abs(q - expected).max() < 1e-10 * np.abs(expected).max()

    def test_conv1x1_equals_per_cell_affine_loop(self, table4):
        # Two stacked pair convolutions over a batch against the per-pair-cell
        # loop of affine maps in frap_reference, one state at a time.
        cfg = FrapConfig(conv_layers=2)
        net = FrapNetwork(table4, cfg)
        rng = np.random.default_rng(2)
        params = {
            k: t.data + rng.normal(0.0, 0.3, size=t.data.shape)
            for k, t in net.init_params(2).items()
        }
        counts, bits = _random_inputs(table4, rng, 5)
        q = net.forward({k: Tensor(v) for k, v in params.items()}, counts, bits).data
        for b in range(5):
            expected = frap_reference(counts[b], bits[b], table4, params, cfg)
            # identical math; only BLAS accumulation order may differ
            assert np.abs(q[b] - expected).max() < 1e-12 * max(1.0, np.abs(expected).max())

    def test_embed_rows(self, table4):
        # A pair embeds the rel_emb row its relation names: swapping the two
        # rows is the same as swapping every pair's relation.
        net = FrapNetwork(table4, FrapConfig())
        params = net.init_params(4)
        swapped = dict(params, rel_emb=Tensor(params["rel_emb"].data[::-1].copy()))
        relabelled = FrapNetwork(table4, FrapConfig())
        relabelled.pair_relation[...] = 1 - relabelled.pair_relation
        counts, bits = _random_inputs(table4, np.random.default_rng(4), 3)
        q_swapped = net.forward(swapped, counts, bits).data
        q_relabelled = relabelled.forward(params, counts, bits).data
        assert np.abs(q_swapped - q_relabelled).max() < 1e-12
        assert np.abs(q_swapped - net.forward(params, counts, bits).data).max() > 1e-6

    def test_shape_mismatch_raises(self):
        pred = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            nm.huber_loss(pred, Tensor(np.ones((1, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ValueError):
            nm.huber_loss(pred, Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_ops_do_not_mutate_inputs(self):
        rng = np.random.default_rng(3)
        x, target, mask = (Tensor(rng.normal(size=(3, 4))) for _ in range(3))
        before = [t.data.copy() for t in (x, target, mask)]
        tape = Tape()
        loss = nm.huber_loss(x, target, mask, tape=tape)
        grads = nm.backward(tape, loss, {"x": x})
        grads_before = grads["x"].copy()
        nm.adam_update({"x": x}, grads, nm.adam_init({"x": x}), lr=0.1)
        for t, b in zip((x, target, mask), before):
            assert np.array_equal(t.data, b)
        assert np.array_equal(grads["x"], grads_before)

    def test_huber_quadratic_and_linear_regions(self):
        pred = Tensor([[0.5, 3.0]])
        target = Tensor([[0.0, 0.0]])
        mask = Tensor([[1.0, 1.0]])
        out = nm.huber_loss(pred, target, mask, delta=1.0)
        # 0.5*0.25 + (3 - 0.5) = 0.125 + 2.5, averaged over batch of 1
        assert np.isclose(float(out.data), 0.125 + 2.5)


class TestGradients:
    def test_affine_gradient_random(self, table4):
        net = VanillaNetwork(table4, VanillaConfig(hidden=()))
        rng = np.random.default_rng(10)
        for _ in range(20):
            params = {"w0": rng.normal(size=(16, 8)), "b0": rng.normal(size=8)}
            counts, bits = _random_inputs(table4, rng, 4)
            _kernel_grad_case(net, params, counts, bits, rng)

    def test_chained_affine_relu_gradient(self, table4):
        net = VanillaNetwork(table4, VanillaConfig(hidden=(6,)))
        rng = np.random.default_rng(11)
        for _ in range(20):
            while True:  # central differences are invalid at a ReLU kink
                params = {
                    "w0": rng.normal(size=(16, 6)),
                    "b0": rng.normal(size=6),
                    "w1": rng.normal(size=(6, 8)),
                    "b1": rng.normal(size=8),
                }
                counts, bits = _random_inputs(table4, rng, 3)
                pre = _features(counts, bits) @ params["w0"] + params["b0"]
                if np.all(np.abs(pre) > 0.05):
                    break
            _kernel_grad_case(net, params, counts, bits, rng)

    OPS = ["huber"]

    @pytest.mark.parametrize("op_name", OPS)
    def test_each_primitive_gradient(self, op_name):
        rng = np.random.default_rng(108)
        for _ in range(20):
            while True:  # central differences are invalid at the |r|=delta kink
                pred = rng.normal(size=(4, 3)) * 2
                target = rng.normal(size=(4, 3))
                if np.all(np.abs(np.abs(pred - target) - 1.0) > 0.05):
                    break
            params = {
                "pred": pred,
                "target": target,
                "mask": rng.uniform(0.1, 1.0, size=(4, 3)),
            }

            def build(t, tape):
                return nm.huber_loss(t["pred"], t["target"], t["mask"], 1.0, tape), None

            _grad_case(build, params)

    def test_backward_loss_must_be_scalar(self):
        tape = Tape()
        x = Tensor(np.ones((2, 2)))
        out = Tensor(2.0 * x.data)
        tape.record(out, (x,), lambda g: (2.0 * g,))
        with pytest.raises(ValueError):
            nm.backward(tape, out, {"x": x})

    def test_backward_loss_must_be_on_tape(self):
        tape = Tape()
        x, ones = Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3)))
        nm.huber_loss(x, ones, ones, tape=tape)
        stray = nm.huber_loss(x, ones, ones)  # recorded nowhere
        with pytest.raises(ValueError):
            nm.backward(tape, stray, {"x": x})

    def test_sum_of_parameter_gives_ones(self):
        # In the linear region a batch-of-one Huber loss is sum(x) + const.
        tape = Tape()
        x = Tensor(np.arange(6.0).reshape(1, 6))
        loss = nm.huber_loss(x, Tensor(x.data - 10.0), Tensor(np.ones((1, 6))), tape=tape)
        grads = nm.backward(tape, loss, {"x": x})
        assert np.array_equal(grads["x"], np.ones((1, 6)))

    def test_disconnected_parameter_gets_zero(self):
        tape = Tape()
        x = Tensor(np.ones((1, 3)))
        unused = Tensor(np.ones(4))
        loss = nm.huber_loss(x, Tensor(np.zeros((1, 3))), Tensor(np.ones((1, 3))), tape=tape)
        grads = nm.backward(tape, loss, {"x": x, "unused": unused})
        assert np.array_equal(grads["unused"], np.zeros(4))

    def test_gradients_chain_through_nodes(self):
        # Two recorded nodes, y = 3x then the loss: backward multiplies the VJPs.
        tape = Tape()
        x = Tensor(np.array([[1.0, -2.0]]))
        y = Tensor(3.0 * x.data)
        tape.record(y, (x,), lambda g: (3.0 * g,))
        loss = nm.huber_loss(y, Tensor(y.data - 10.0), Tensor(np.ones((1, 2))), tape=tape)
        grads = nm.backward(tape, loss, {"x": x})
        assert np.array_equal(grads["x"], np.full((1, 2), 3.0))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"p": Tensor([1.0, -2.0])}
        state = nm.adam_init(params)
        out = nm.adam_update(params, {"p": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(out["p"].data, params["p"].data)
        assert state.step == 1

    def test_single_step_decreases_param(self):
        params = {"p": Tensor([1.0])}
        state = nm.adam_init(params)
        out = nm.adam_update(params, {"p": np.ones(1)}, state, lr=0.1)
        assert out["p"].data[0] < 1.0

    def test_two_steps_match_hand_recurrence(self):
        params = {"p": Tensor([1.0])}
        state = nm.adam_init(params)
        grads = [0.7, -0.3]
        expected = adam_reference(1.0, grads, lr=0.1)
        for g in grads:
            params = nm.adam_update(params, {"p": np.array([g])}, state, lr=0.1)
        assert np.isclose(params["p"].data[0], expected, rtol=0, atol=1e-12)

    def test_nan_gradient_names_parameter(self):
        params = {"bad_param": Tensor([1.0])}
        state = nm.adam_init(params)
        with pytest.raises(ValueError, match="bad_param"):
            nm.adam_update(params, {"bad_param": np.array([np.nan])}, state, lr=0.1)

    def test_flat_update_equals_per_tensor_recurrence(self):
        # Adam runs on one flat vector; element-wise it is the per-tensor
        # recurrence, so results agree bitwise and come back as named views.
        rng = np.random.default_rng(4)
        shapes = {"w": (3, 4), "b": (4,), "s": (1,)}
        params = {k: Tensor(rng.normal(size=sh)) for k, sh in shapes.items()}
        state = nm.adam_init(params)
        ref = {k: t.data.copy() for k, t in params.items()}
        m = {k: np.zeros(sh) for k, sh in shapes.items()}
        v = {k: np.zeros(sh) for k, sh in shapes.items()}
        for t in range(1, 4):
            grads = {k: rng.normal(size=sh) for k, sh in shapes.items()}
            params = nm.adam_update(params, grads, state, lr=0.01)
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
                m_hat = m[k] / (1.0 - 0.9**t)
                v_hat = v[k] / (1.0 - 0.999**t)
                ref[k] = ref[k] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            for k in shapes:
                assert params[k].shape == shapes[k]
                assert np.array_equal(params[k].data, ref[k])
        assert state.m.shape == state.v.shape == (17,)
        bases = {id(t.data.base) for t in params.values()}
        assert len(bases) == 1

    def test_non_finite_gradient_leaves_state_unchanged(self):
        params = {"a": Tensor([1.0, 2.0]), "b": Tensor([3.0])}
        state = nm.adam_init(params)
        nm.adam_update(params, {"a": np.ones(2), "b": np.ones(1)}, state, lr=0.1)
        m, v = state.m.copy(), state.v.copy()
        with pytest.raises(ValueError, match="'b'"):
            nm.adam_update(params, {"a": np.ones(2), "b": np.array([np.inf])}, state, lr=0.1)
        assert state.step == 1
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_key_mismatch_rejected(self):
        params = {"a": Tensor([1.0])}
        with pytest.raises(ValueError):
            nm.adam_update(params, {"b": np.ones(1)}, nm.adam_init(params), lr=0.1)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4), "s": np.array(2.5)}
        path = nm.save_arrays(tmp_path / "ckpt.bin", arrays)
        loaded = nm.load_arrays(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])

    def test_manifest_is_little_endian_with_offsets(self, tmp_path):
        import json

        arrays = {"b": np.ones(2), "a": np.zeros(3)}
        path = nm.save_arrays(tmp_path / "ckpt.bin", arrays)
        manifest = json.loads((tmp_path / "ckpt.json").read_text())
        assert manifest["byte_order"] == "little"
        entries = manifest["arrays"]
        assert [e["name"] for e in entries] == ["a", "b"]  # name order
        assert entries[0]["offset"] == 0
        assert entries[1]["offset"] == 3 * 8
        assert all(e["dtype"] == "<f8" for e in entries)
