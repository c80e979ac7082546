import numpy as np
import pytest

import phaselab.numerics as nm
from phaselab.networks import FrapConfig, FrapNetwork, VanillaConfig, VanillaNetwork

from oracles import (
    adam_reference,
    finite_difference_grads,
    finite_difference_grads_filtered,
    frap_reference,
    masked_relative_error,
    relative_error,
)

FD_TOL = 1e-4


def _loss_and_grads(net, params, counts, bits, actions, targets, weights):
    q, vjp = net.forward(params, counts, bits, actions=actions, vjp=True)
    return nm.backward(vjp, q, targets, weights)


def _grad_case(net, params, counts, bits, actions, targets, weights):
    """Compare the gradients ``backward`` returns against central finite
    differences of the loss it returns."""
    inputs = (counts, bits, actions, targets, weights)
    _, grads = _loss_and_grads(net, params, *inputs)
    fd = finite_difference_grads(lambda arrays: _loss_and_grads(net, arrays, *inputs)[0], params)
    for name in params:
        assert relative_error(grads[name], fd[name]) < FD_TOL, name
    return grads


# Affine maps, ReLU, 1x1 convolutions and embedding lookups are no longer
# separate ops: they run inside the fused network kernels. The tests named
# after them check the same facts through those kernels. A vanilla network
# with no hidden layer is one affine map; one hidden layer makes
# affine-ReLU-affine.


def _features(counts, bits, norm_capacity=40.0):
    return np.concatenate([counts / norm_capacity, bits], axis=1)


def _random_inputs(table, rng, batch):
    counts = rng.integers(0, 41, size=(batch, table.n_movements)).astype(float)
    bits = rng.integers(0, 2, size=(batch, table.n_movements)).astype(float)
    return counts, bits


def _every_action(net, counts, bits):
    """Each state repeated once per action, with that action taken: the loss
    then reaches every Q-value of every state."""
    n_actions = net.n_actions
    return (
        np.repeat(counts, n_actions, axis=0),
        np.repeat(bits, n_actions, axis=0),
        np.tile(np.arange(n_actions), len(counts)),
    )


def _kernel_grad_case(net, params, counts, bits, rng):
    """FD check of the kernel's VJP through a Huber loss held in its linear
    region (targets 50 from Q), which weights each Q-value linearly."""
    counts, bits, actions = _every_action(net, counts, bits)
    q0 = net.forward(params, counts, bits)[np.arange(len(actions)), actions]
    targets = q0 + 50.0 * rng.choice([-1.0, 1.0], size=q0.shape)
    weights = rng.uniform(0.1, 1.0, size=q0.shape)
    return _grad_case(net, params, counts, bits, actions, targets, weights)


def _mixed_residuals(rng, batch):
    """Residuals q - target on both sides of |r| = 1, at least 0.2 from the
    kink: half in the quadratic region, half in the linear one."""
    size = rng.uniform(0.1, 0.8, size=batch)
    size[batch // 2 :] = rng.uniform(1.2, 3.0, size=batch - batch // 2)
    return rng.choice([-1.0, 1.0], size=batch) * size


def _identity_vjp(g_q):
    return {"q": g_q}


class TestForwardSemantics:
    def test_relu_values(self, table4):
        # Identity layers around one ReLU: Q is relu of the first 8 features.
        net = VanillaNetwork(table4, VanillaConfig(hidden=(16,)))
        params = {
            "w0": np.eye(16),
            "b0": np.zeros(16),
            "w1": np.eye(16)[:, :8],
            "b1": np.zeros(8),
        }
        counts = np.array([-40.0, 0.0, 80.0, -4.0, 4.0, 0.0, 40.0, -80.0])
        q = net.forward(params, counts, np.ones(8))[0]
        assert np.array_equal(q, [0.0, 0.0, 2.0, 0.0, 0.1, 0.0, 1.0, 0.0])

    def test_affine_matches_numpy(self, table4):
        net = VanillaNetwork(table4, VanillaConfig(hidden=()))
        rng = np.random.default_rng(0)
        params = {"w0": rng.normal(size=(16, 8)), "b0": rng.normal(size=8)}
        counts, bits = _random_inputs(table4, rng, 4)
        q = net.forward(params, counts, bits)
        assert np.allclose(q, _features(counts, bits) @ params["w0"] + params["b0"])

    def test_conv1x1_identity_filter(self, table4):
        # An identity pair filter passes [d(p), d(q)] through unchanged; with a
        # relation branch of ones and unit output weights a pair scores
        # |d(p)|_1 + |d(q)|_1, so Q(p) = (P-1)|d(p)|_1 + sum_{q != p} |d(q)|_1.
        cfg = FrapConfig(conv_channels=2 * FrapConfig().demand_dim)
        net = FrapNetwork(table4, cfg)
        params = net.init_params(1)
        params["w_d0"] = np.eye(cfg.conv_channels)
        params["b_d0"] = np.zeros(cfg.conv_channels)
        params["w_r0"] = np.zeros((cfg.relation_dim, cfg.conv_channels))
        params["b_r0"] = np.ones(cfg.conv_channels)
        params["w_out"] = np.ones((cfg.conv_channels, 1))
        params["b_out"] = np.zeros(1)
        counts, bits = _random_inputs(table4, np.random.default_rng(1), 3)
        q = net.forward(params, counts, bits)
        norms = net.phase_demand(net.movement_demand(params, counts, bits)).sum(axis=2)
        n_ph = table4.n_phases
        expected = (n_ph - 1) * norms + (norms.sum(axis=1, keepdims=True) - norms)
        assert np.abs(q - expected).max() < 1e-10 * np.abs(expected).max()

    def test_conv1x1_equals_per_cell_affine_loop(self, table4):
        # The pair convolution over a batch against the per-pair-cell loop of
        # affine maps in frap_reference, one state at a time.
        cfg = FrapConfig()
        net = FrapNetwork(table4, cfg)
        rng = np.random.default_rng(2)
        params = {
            k: v + rng.normal(0.0, 0.3, size=v.shape) for k, v in net.init_params(2).items()
        }
        counts, bits = _random_inputs(table4, rng, 5)
        q = net.forward(params, counts, bits)
        for b in range(5):
            expected = frap_reference(counts[b], bits[b], table4, params, cfg)
            # identical math; only BLAS accumulation order may differ
            assert np.abs(q[b] - expected).max() < 1e-12 * max(1.0, np.abs(expected).max())

    def test_embed_rows(self, table4):
        # A pair embeds the rel_emb row its relation names: swapping the two
        # rows is the same as swapping every pair's relation.
        net = FrapNetwork(table4, FrapConfig())
        params = net.init_params(4)
        swapped = dict(params, rel_emb=params["rel_emb"][::-1].copy())
        relabelled = FrapNetwork(table4, FrapConfig())
        relabelled.pair_relation[...] = 1 - relabelled.pair_relation
        counts, bits = _random_inputs(table4, np.random.default_rng(4), 3)
        q_swapped = net.forward(swapped, counts, bits)
        q_relabelled = relabelled.forward(params, counts, bits)
        assert np.abs(q_swapped - q_relabelled).max() < 1e-12
        assert np.abs(q_swapped - net.forward(params, counts, bits)).max() > 1e-6

    def test_shape_mismatch_raises(self):
        q, ones = np.ones(2), np.ones(2)
        with pytest.raises(ValueError):
            nm.backward(_identity_vjp, q, np.ones(3), ones)
        with pytest.raises(ValueError):
            nm.backward(_identity_vjp, q, ones, np.ones((2, 3)))
        with pytest.raises(ValueError):  # a full Q [B, P], not the taken [B]
            nm.backward(_identity_vjp, np.ones((2, 3)), ones, ones)

    def test_ops_do_not_mutate_inputs(self, table4):
        # Actors and greedy policies hold a learner's parameter sets by
        # reference (and a policy's prepared demand table is built from them),
        # so a forward, a backward and an Adam step must leave every input
        # array as it was.
        rng = np.random.default_rng(3)
        for net in (FrapNetwork(table4), VanillaNetwork(table4)):
            params = net.init_params(3)
            counts, bits = _random_inputs(table4, rng, 6)
            actions = rng.integers(0, net.n_actions, size=6)
            targets, weights = rng.normal(size=6), rng.uniform(0.1, 1.0, size=6)
            inputs = {**params, "counts": counts, "bits": bits, "actions": actions,
                      "targets": targets, "weights": weights}
            before = {k: v.copy() for k, v in inputs.items()}
            q, vjp = net.forward(params, counts, bits, actions=actions, vjp=True)
            q_before = q.copy()
            _, grads = nm.backward(vjp, q, targets, weights)
            grads_before = {k: g.copy() for k, g in grads.items()}
            nm.adam_update(params, grads, nm.adam_init(params), lr=0.1)
            for k, v in inputs.items():
                assert np.array_equal(v, before[k]), k
            assert np.array_equal(q, q_before)
            for k, g in grads.items():
                assert np.array_equal(g, grads_before[k]), k

    def test_huber_quadratic_and_linear_regions(self):
        q = np.array([0.5, 3.0])  # the taken Q-values of two rows
        loss, grads = nm.backward(_identity_vjp, q, np.zeros(2), np.array([1.0, 0.5]))
        # (1 * 0.5 * 0.25 + 0.5 * (3 - 0.5)) averaged over a batch of 2; the
        # gradient is clipped to 1 in the linear region.
        assert np.isclose(loss, (0.125 + 1.25) / 2)
        assert np.array_equal(grads["q"], [0.25, 0.25])


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
    def test_each_primitive_gradient(self, table4, op_name):
        # The Huber loss in both regions: residuals on both sides of |r| = 1
        # (away from the kink), IS weights below 1 and rows sharing an action,
        # so several rows feed one Q column. Through a single affine
        # map, then through FRAP, whose ReLU kinks need the filtered check.
        rng = np.random.default_rng(108)
        batch = 12

        def case(net, params):
            counts, bits = _random_inputs(table4, rng, batch)
            actions = rng.choice([0, 3, 5], size=batch)
            assert len(set(actions.tolist())) < batch
            q0 = net.forward(params, counts, bits)[np.arange(batch), actions]
            targets = q0 - _mixed_residuals(rng, batch)
            weights = rng.uniform(0.1, 0.9, size=batch)
            return counts, bits, actions, targets, weights

        vanilla = VanillaNetwork(table4, VanillaConfig(hidden=()))
        for _ in range(10):
            params = {"w0": rng.normal(size=(16, 8)), "b0": rng.normal(size=8)}
            _grad_case(vanilla, params, *case(vanilla, params))

        frap = FrapNetwork(
            table4, FrapConfig(movement_hidden=2, demand_dim=4, relation_dim=2, conv_channels=4)
        )
        for trial in range(3):
            params = {
                k: v + rng.normal(0.0, 0.3, size=v.shape)
                for k, v in frap.init_params(trial).items()
            }
            inputs = case(frap, params)
            _, grads = _loss_and_grads(frap, params, *inputs)
            fd, masks = finite_difference_grads_filtered(
                lambda arrays: _loss_and_grads(frap, arrays, *inputs)[0], params, eps=1e-4
            )
            assert sum(int(m.sum()) for m in masks.values()) > 0.95 * sum(
                m.size for m in masks.values()
            )
            for name in params:
                assert masked_relative_error(grads[name], fd[name], masks[name]) < FD_TOL, name


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"p": np.array([1.0, -2.0])}
        state = nm.adam_init(params)
        out = nm.adam_update(params, {"p": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(out["p"], params["p"])
        assert state.step == 1

    def test_single_step_decreases_param(self):
        params = {"p": np.array([1.0])}
        state = nm.adam_init(params)
        out = nm.adam_update(params, {"p": np.ones(1)}, state, lr=0.1)
        assert out["p"][0] < 1.0

    def test_two_steps_match_hand_recurrence(self):
        params = {"p": np.array([1.0])}
        state = nm.adam_init(params)
        grads = [0.7, -0.3]
        expected = adam_reference(1.0, grads, lr=0.1)
        for g in grads:
            params = nm.adam_update(params, {"p": np.array([g])}, state, lr=0.1)
        assert np.isclose(params["p"][0], expected, rtol=0, atol=1e-12)

    def test_nan_gradient_names_parameter(self):
        params = {"bad_param": np.array([1.0])}
        state = nm.adam_init(params)
        with pytest.raises(ValueError, match="bad_param"):
            nm.adam_update(params, {"bad_param": np.array([np.nan])}, state, lr=0.1)

    def test_flat_update_equals_per_tensor_recurrence(self):
        # Adam runs on one flat vector; element-wise it is the per-tensor
        # recurrence, so results agree bitwise and come back as named views.
        rng = np.random.default_rng(4)
        shapes = {"w": (3, 4), "b": (4,), "s": (1,)}
        params = {k: rng.normal(size=sh) for k, sh in shapes.items()}
        state = nm.adam_init(params)
        ref = {k: v.copy() for k, v in params.items()}
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
                assert np.array_equal(params[k], ref[k])
        assert state.m.shape == state.v.shape == (17,)
        bases = {id(v.base) for v in params.values()}
        assert len(bases) == 1

    def test_non_finite_gradient_leaves_state_unchanged(self):
        params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
        state = nm.adam_init(params)
        nm.adam_update(params, {"a": np.ones(2), "b": np.ones(1)}, state, lr=0.1)
        m, v = state.m.copy(), state.v.copy()
        with pytest.raises(ValueError, match="'b'"):
            nm.adam_update(params, {"a": np.ones(2), "b": np.array([np.inf])}, state, lr=0.1)
        assert state.step == 1
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_update_returns_read_only_views(self):
        # A learner step's new set is shared by the target network, the
        # actors and the evaluation policies, so no one may write into it.
        params = {"w": np.ones((2, 3)), "b": np.zeros(3)}
        grads = {"w": np.full((2, 3), 0.5), "b": np.ones(3)}
        new = nm.adam_update(params, grads, nm.adam_init(params), lr=0.1)
        for array in new.values():
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
        assert params["w"].flags.writeable  # the inputs keep their flags

    def test_key_mismatch_rejected(self):
        params = {"a": np.array([1.0])}
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

    def test_loaded_arrays_are_read_only(self, tmp_path):
        # A policy or learner refuses a writeable set, and a loaded set is
        # handed to both.
        path = nm.save_arrays(tmp_path / "ckpt.bin", {"w": np.ones((2, 3)), "b": np.zeros(3)})
        loaded = nm.load_arrays(path)
        assert nm.check_read_only(loaded) is loaded
        with pytest.raises(ValueError, match="read-only"):
            loaded["w"][0, 0] = 2.0
        with pytest.raises(ValueError, match="'b' is writeable"):
            nm.check_read_only({"b": np.zeros(3)})

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
