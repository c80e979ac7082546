import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import phaselab as pl
from phaselab.networks import (
    FrapConfig,
    FrapNetwork,
    VanillaConfig,
    VanillaNetwork,
    build_network,
    load_checkpoint,
    save_checkpoint,
)
from conftest import golden_platform_note, random_state
from oracles import (
    finite_difference_grads_filtered,
    frap_dense_vjp,
    frap_reference,
    masked_relative_error,
    vanilla_dense_vjp,
    vanilla_reference,
)


# A default FRAP checkpoint of init_params(5): .bin, .json and .meta.json.
CHECKPOINT_FIXTURE = Path(__file__).parent / "data" / "frap_init5.bin"


@pytest.fixture(scope="module")
def frap4(table4):
    return FrapNetwork(table4, FrapConfig())


def _random_batch(table, rng, batch):
    counts = rng.integers(0, 41, size=(batch, table.n_movements)).astype(float)
    bits = np.zeros((batch, table.n_movements))
    for i in range(batch):
        bits[i, list(table.phases[int(rng.integers(table.n_phases))].members)] = 1.0
    return counts, bits


def _check_full_graph_gradient(net, table, seed, trials=3):
    """The taken-action VJP of ``net`` against central differences, for
    every parameter.

    Each of two states is repeated once per action, with that action taken,
    so the scalar sum(g * Q_taken) for a fixed random g weighs every Q-value
    of both states, as the learner's Huber gradient weighs its taken ones.
    Its gradient is the VJP of g. Zero-initialised biases leave ReLU inputs
    exactly at the kink, where central differences are invalid; perturb all
    parameters first.
    """
    rng = np.random.default_rng(seed)
    n_actions = net.n_actions
    for trial in range(trials):
        params = {
            k: v + rng.normal(0.0, 0.3, size=v.shape)
            for k, v in net.init_params(300 + trial).items()
        }
        counts, bits = _random_batch(table, rng, 2)
        counts, bits = np.repeat(counts, n_actions, axis=0), np.repeat(bits, n_actions, axis=0)
        actions = np.tile(np.arange(n_actions), 2)
        q, vjp = net.forward(params, counts, bits, actions=actions, vjp=True)
        g_q = rng.choice([-1.0, 1.0], size=q.shape) * rng.uniform(0.1, 1.0, size=q.shape)
        grads = vjp(g_q)

        def scalar(arrays):
            return float((g_q * net.forward(arrays, counts, bits, actions=actions)).sum())

        # Step 1e-4: at 1e-3 the probes of a composed ReLU graph bracket
        # kinks often enough to corrupt the quotient.
        fd, masks = finite_difference_grads_filtered(scalar, params, eps=1e-4)
        total = sum(m.size for m in masks.values())
        reliable = sum(int(m.sum()) for m in masks.values())
        assert reliable > 0.95 * total  # kink-straddling coordinates are rare
        assert grads.keys() == params.keys()
        for name in params:
            assert grads[name].shape == params[name].shape, name
            assert masked_relative_error(grads[name], fd[name], masks[name]) < 1e-4, name


class TestMovementDemand:
    def test_zero_weights_give_relu_bias(self, table4, frap4):
        params = frap4.init_params(0)
        zeroed = {k: np.zeros_like(v) for k, v in params.items()}
        bias = np.array([0.5, -1.0, 2.0, 0.0] * 4)
        zeroed["b_h"] = bias
        d = frap4.movement_demand(zeroed, np.full(8, 13.0), np.zeros(8))
        expected = np.maximum(bias, 0.0)
        for i in range(8):
            assert np.array_equal(d[0, i], expected)

    def test_identical_features_share_demand(self, table4, frap4):
        params = frap4.init_params(1)
        counts = np.array([7.0, 3.0, 7.0, 1.0, 7.0, 0.0, 2.0, 7.0])
        bits = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        d = frap4.movement_demand(params, counts, bits)[0]
        # movements 0, 2, 4 and 7 carry identical (count, bit) pairs
        assert np.array_equal(d[0], d[2])
        assert np.array_equal(d[0], d[4])
        assert np.array_equal(d[0], d[7])

    def test_matches_straight_line_reference(self, table4, frap4):
        rng = np.random.default_rng(2)
        params = frap4.init_params(3)
        counts, bits = _random_batch(table4, rng, 1)
        d = frap4.movement_demand(params, counts, bits)[0]
        p = params
        for i in range(8):
            hv = np.maximum(p["w_v"][0] * counts[0, i] / 40.0 + p["b_v"], 0)
            hs = np.maximum(p["w_s"][0] * bits[0, i] + p["b_s"], 0)
            expected = np.maximum(np.concatenate([hv, hs]) @ p["w_h"] + p["b_h"], 0)
            assert np.allclose(d[i], expected, atol=1e-12)


class TestPhaseDemand:
    def test_zero_demands_stay_zero(self, table4, frap4):
        dp = frap4.phase_demand(np.zeros((1, 8, 16)))
        assert np.array_equal(dp, np.zeros((1, 8, 16)))

    def test_equals_member_sum(self, table4, frap4):
        rng = np.random.default_rng(4)
        d = rng.normal(size=(2, 8, 16))
        dp = frap4.phase_demand(d)
        for b in range(2):
            for ph in table4.phases:
                i, j = ph.members
                assert np.array_equal(dp[b, ph.index], d[b, i] + d[b, j])


class TestVolumes:
    # The pair volumes are indexed by opponents [P, P-1] and pair_relation
    # [P, P-1]: slot j of phase p holds opponent opponents[p, j] and the
    # relation embedding row pair_relation[p, j].
    def test_shapes_are_p_by_p_minus_1(self, table4, frap4):
        assert frap4.opponents.shape == (8, 7)
        assert frap4.pair_relation.shape == (8, 7)

    def test_relation_rows_match_table(self, table4, frap4):
        nt_st = table4.phase_with_members([0, 4])
        nt_nl = table4.phase_with_members([0, 1])
        el_wl = table4.phase_with_members([3, 7])
        # opponent slots skip the phase itself, ascending
        opp_of_nt_st = [q for q in range(8) if q != nt_st]
        slot_partial = opp_of_nt_st.index(nt_nl)
        slot_full = opp_of_nt_st.index(el_wl)
        assert frap4.pair_relation[nt_st, slot_partial] == 0  # shares N-T
        assert frap4.pair_relation[nt_st, slot_full] == 1  # disjoint
        for p in range(8):
            for slot, q in enumerate(frap4.opponents[p]):
                assert frap4.pair_relation[p, slot] == table4.relation[p, q]

    def test_opponent_ordering_enumeration_oracle(self, table4, frap4):
        for p in range(8):
            opponents = [q for q in range(8) if q != p]  # ascending, skip self
            assert frap4.opponents[p].tolist() == opponents


class TestQForward:
    def test_uniform_state_gives_equal_q(self, table4, frap4):
        params = frap4.init_params(11)
        q = frap4.forward(params, np.full(8, 9.0), np.zeros(8))[0]
        assert np.allclose(q, q[0], atol=1e-9)

    def test_matches_duplicate_implementation(self, table4):
        cfg = FrapConfig()
        net = FrapNetwork(table4, cfg)
        rng = np.random.default_rng(13)
        for trial in range(10):
            params = net.init_params(100 + trial)
            counts, bits = _random_batch(table4, rng, 1)
            q = net.forward(params, counts, bits)[0]
            ref = frap_reference(counts[0], bits[0], table4, params, cfg)
            assert np.abs(q - ref).max() < 1e-10

    def test_equivariance_random(self, table4, group4):
        net = FrapNetwork(table4, FrapConfig())
        rng = np.random.default_rng(17)
        for trial in range(5):
            params = net.init_params(200 + trial)
            counts, bits = _random_batch(table4, rng, 20)
            q_base = net.forward(params, counts, bits)
            for op in group4:
                inv = np.argsort(op.movement_perm)
                q_sym = net.forward(params, counts[:, inv], bits[:, inv])
                assert np.abs(q_sym[:, op.phase_perm] - q_base).max() < 1e-5

    def test_opponent_order_irrelevant(self, table4):
        # Scrambling the opponent enumeration must not change Q: the final sum
        # runs over all opponents.
        net = FrapNetwork(table4, FrapConfig())
        params = net.init_params(3)
        rng = np.random.default_rng(23)
        counts, bits = _random_batch(table4, rng, 4)
        q_base = net.forward(params, counts, bits)
        scrambled = FrapNetwork(table4, FrapConfig())
        for p in range(8):
            perm = rng.permutation(7)
            scrambled.opponents[p] = scrambled.opponents[p, perm]
            scrambled.pair_relation[p] = scrambled.pair_relation[p, perm]
        q_scrambled = scrambled.forward(params, counts, bits)
        assert np.abs(q_scrambled - q_base).max() < 1e-10

    def test_finite_q_on_extreme_counts(self, table4, frap4):
        params = frap4.init_params(5)
        for counts in (np.zeros(8), np.full(8, 40.0)):
            q = frap4.forward(params, counts, np.zeros(8))
            assert np.all(np.isfinite(q))

    def test_full_graph_gradient_finite_differences(self, table4):
        _check_full_graph_gradient(FrapNetwork(table4, FrapConfig()), table4, seed=29)

    def test_three_approach_table_works_unpadded(self):
        table3 = pl.build_phase_table(3)
        net = FrapNetwork(table3, FrapConfig())
        params = net.init_params(0)
        q = net.forward(params, np.arange(6, dtype=float), np.zeros(6))
        assert q.shape == (1, 3)
        assert np.all(np.isfinite(q))


# Every table the lab builds: the default 8 phases, the 4-phase set, and 3 and
# 5 approaches. Vanilla's 3 outputs on 3 approaches and its widths 10 and 3
# are output widths at which OpenBLAS rounds the last M % 4 rows of a
# product apart from the others.
_T4 = pl.build_phase_table(4)
_T4_PHASE = _T4.restrict(_T4.opposite_pair_phases())
_T3, _T5 = pl.build_phase_table(3), pl.build_phase_table(5)
EVERY_KERNEL = pytest.mark.parametrize(
    "kind, config, table",
    [
        pytest.param("frap", FrapConfig(), _T4, id="frap"),
        pytest.param("vanilla", VanillaConfig(), _T4, id="vanilla"),
        pytest.param("frap", FrapConfig(), _T4_PHASE, id="frap-4-phase"),
        pytest.param("vanilla", VanillaConfig(), _T4_PHASE, id="vanilla-4-phase"),
        pytest.param("frap", FrapConfig(), _T3, id="frap-3-approach"),
        pytest.param("vanilla", VanillaConfig(), _T3, id="vanilla-3-approach"),
        pytest.param("frap", FrapConfig(), _T5, id="frap-5-approach"),
        pytest.param("vanilla", VanillaConfig(), _T5, id="vanilla-5-approach"),
        pytest.param("vanilla", VanillaConfig(hidden=(10,)), _T4, id="vanilla-hidden-10"),
        pytest.param("vanilla", VanillaConfig(hidden=(3, 3)), _T4, id="vanilla-hidden-3-3"),
    ],
)


@EVERY_KERNEL
@pytest.mark.parametrize("batch", [1, 2, 4, 7, 33, 64])
def test_batched_row_is_the_single_state_q(kind, config, table, batch):
    # Lockstep acting scores N actors' states in one forward; it matches
    # actors deciding alone only if row i is bitwise q_values on state i.
    net = build_network(kind, table, config)
    rng = np.random.default_rng(batch)
    for seed in range(3):
        params = net.init_params(seed)
        states = [random_state(table, rng) for _ in range(batch)]
        q = net.forward(
            params,
            np.stack([s.counts for s in states]),
            np.stack([s.signal_bits for s in states]),
        )
        for row, state in zip(q, states):
            assert np.array_equal(row, net.q_values(params, state))


def test_every_batch_size_keeps_the_single_state_rows(table4, frap4):
    # ROUND_BLOCK and the learner's taken-action forwards rest on this for
    # every batch size up to 64, not only the ones above.
    rng = np.random.default_rng(65)
    for seed in range(3):
        params = frap4.init_params(seed)
        states = [random_state(table4, rng) for _ in range(64)]
        counts = np.stack([s.counts for s in states])
        bits = np.stack([s.signal_bits for s in states])
        single = [frap4.q_values(params, state) for state in states]
        for batch in range(1, 65):
            q = frap4.forward(params, counts[:batch], bits[:batch])
            for row, expected in zip(q, single):
                assert np.array_equal(row, expected), batch


@EVERY_KERNEL
def test_taken_q_and_vjp_are_the_dense_kernels(kind, config, table):
    # The taken-action mode must be the dense kernel read at the actions:
    # its Q the dense Q's entries and its VJP the dense VJP of the one-hot
    # gradient, bitwise, at every batch size a learner or a round uses.
    net = build_network(kind, table, config)
    dense_vjp = frap_dense_vjp if kind == "frap" else vanilla_dense_vjp
    rng = np.random.default_rng(19)
    for seed in range(2):
        params = {
            k: v + rng.normal(0.0, 0.3, size=v.shape) for k, v in net.init_params(seed).items()
        }
        for batch in range(1, 65):
            counts, bits = _random_batch(table, rng, batch)
            actions = rng.integers(0, net.n_actions, size=batch)
            q_dense, vjp_dense = dense_vjp(net, params, counts, bits)
            assert np.array_equal(q_dense, net.forward(params, counts, bits))
            q, vjp = net.forward(params, counts, bits, actions=actions, vjp=True)
            rows = np.arange(batch)
            assert np.array_equal(q, q_dense[rows, actions]), batch
            assert np.array_equal(q, net.forward(params, counts, bits, actions=actions))
            g = rng.normal(size=batch)
            one_hot = np.zeros_like(q_dense)
            one_hot[rows, actions] = g
            expected, grads = vjp_dense(one_hot), vjp(g)
            assert grads.keys() == expected.keys() == params.keys()
            for name in params:
                assert np.array_equal(grads[name], expected[name]), (batch, name)


@pytest.mark.parametrize("kind", ["frap", "vanilla"])
def test_taken_mode_checks_its_actions(table4, kind):
    net = build_network(kind, table4)
    params = net.init_params(0)
    counts, bits = _random_batch(table4, np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match="pass actions"):
        net.forward(params, counts, bits, vjp=True)
    for actions in ([0, 1], [[0, 1, 2]]):
        with pytest.raises(ValueError, match="expected 3 actions"):
            net.forward(params, counts, bits, actions=np.array(actions))
    for actions in ([0, 1, -1], [0, 8, 1]):
        with pytest.raises(ValueError, match="must lie in"):
            net.forward(params, counts, bits, actions=np.array(actions))


@EVERY_KERNEL
def test_prepared_q_is_the_forward_row(kind, config, table):
    # Greedy policies score one state at a time from one prepared object per
    # parameter set. Rising counts, up to three times the norm capacity,
    # make FRAP's demand table grow many times under that one object.
    net = build_network(kind, table, config)
    top = 3 * int(config.norm_capacity)
    rng = np.random.default_rng(11)
    n_mov = table.n_movements
    for seed in range(2):
        params = net.init_params(seed)
        prepared = net.prepare(params)
        states = [random_state(table, rng, max_count=int(c)) for c in np.linspace(0, top, 150)]
        states.append(pl.TrafficState(np.full(n_mov, top), np.zeros(n_mov), 0))
        states += [random_state(table, rng) for _ in range(50)]
        for state in states:
            row = net.forward(params, state.counts, state.signal_bits)[0]
            assert np.array_equal(net.q_values(params, state, prepared), row)
        if kind == "frap":
            assert len(prepared.table) == 2 * (top + 1)


def test_prepared_constants_belong_to_their_parameters(frap4, table4):
    params = frap4.init_params(0)
    state = random_state(table4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="another parameter set"):
        frap4.q_values(frap4.init_params(1), state, frap4.prepare(params))
    for counts, bits in ((np.full(8, -1), np.zeros(8)), (np.zeros(8), np.full(8, 2))):
        with pytest.raises(ValueError, match="non-negative"):
            frap4.q_values(params, pl.TrafficState(counts, bits, 0))


class TestVanilla:
    def test_zero_weights_give_output_bias(self, table4):
        net = VanillaNetwork(table4, VanillaConfig())
        params = {k: np.zeros_like(v) for k, v in net.init_params(0).items()}
        params["b2"] = np.arange(8.0)
        q = net.forward(params, np.full(8, 10.0), np.zeros(8))[0]
        assert np.array_equal(q, np.arange(8.0))

    def test_matches_duplicate_implementation(self, table4):
        cfg = VanillaConfig()
        net = VanillaNetwork(table4, cfg)
        rng = np.random.default_rng(31)
        for trial in range(10):
            params = net.init_params(400 + trial)
            counts, bits = _random_batch(table4, rng, 1)
            q = net.forward(params, counts, bits)[0]
            ref = vanilla_reference(counts[0], bits[0], table4, params, cfg)
            assert np.abs(q - ref).max() < 1e-10

    def test_full_graph_gradient_finite_differences(self, table4):
        net = VanillaNetwork(table4, VanillaConfig())
        _check_full_graph_gradient(net, table4, seed=37, trials=2)

    def test_not_equivariant_counterexample_search(self, table4, group4):
        net = VanillaNetwork(table4, VanillaConfig())
        rng = np.random.default_rng(37)
        violated = 0
        for trial in range(20):
            params = net.init_params(500 + trial)
            counts, bits = _random_batch(table4, rng, 10)
            q_base = net.forward(params, counts, bits)
            worst = 0.0
            for op in group4[1:]:
                inv = np.argsort(op.movement_perm)
                q_sym = net.forward(params, counts[:, inv], bits[:, inv])
                worst = max(worst, float(np.abs(q_sym[:, op.phase_perm] - q_base).max()))
            if worst > 1e-3:
                violated += 1
        assert violated == 20


class TestCheckpointSidecar:
    def test_roundtrip_and_mismatch(self, table4, tmp_path):
        net = FrapNetwork(table4, FrapConfig(conv_channels=12))
        params = net.init_params(0)
        path = save_checkpoint(tmp_path / "model.bin", "frap", net, params)
        kind, loaded_net, loaded = load_checkpoint(path, table4)
        assert kind == "frap"
        assert loaded_net.config == net.config
        for k in params:
            assert np.array_equal(loaded[k], params[k])
        rng = np.random.default_rng(0)
        s = random_state(table4, rng)
        assert np.allclose(net.q_values(params, s), loaded_net.q_values(loaded, s))
        table3 = pl.build_phase_table(3)
        with pytest.raises(ValueError):
            load_checkpoint(path, table3)

    def test_arrays_must_match_the_described_network(self, table4, tmp_path):
        small = FrapNetwork(table4, FrapConfig(demand_dim=8, conv_channels=8))
        large = FrapNetwork(table4, FrapConfig(conv_channels=32))
        # .meta.json describes the large network; the arrays are the small one's
        path = save_checkpoint(tmp_path / "model.bin", "frap", large, small.init_params(0))
        with pytest.raises(ValueError, match="'b_d0' has shape"):
            load_checkpoint(path, table4)
        extra = {**large.init_params(0), "stray": np.zeros(3)}
        path = save_checkpoint(tmp_path / "extra.bin", "frap", large, extra)
        with pytest.raises(ValueError, match="stray"):
            load_checkpoint(path, table4)

    @pytest.mark.parametrize("key, value", [("conv_layers", 1.0), ("hidden", [32, "32"])])
    def test_sidecar_config_takes_the_config_type_checks(self, table4, tmp_path, key, value):
        # A sidecar written from a config holding "false" for a bool field
        # used to load with that field == "false", which is truthy.
        kind = "vanilla" if key == "hidden" else "frap"
        net = build_network(kind, table4)
        path = save_checkpoint(tmp_path / "model.bin", kind, net, net.init_params(0))
        meta_path = path.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text())
        meta["config"][key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"config.{key} must be"):
            load_checkpoint(path, table4)

    def test_checked_in_checkpoint_loads(self, table4):
        # Pins the checkpoint format: any change to the sidecar or the array
        # layout fails here rather than in a user's eval. The files were
        # written by a save_checkpoint whose FRAP still had the conv_layers
        # and output_relu options, so the sidecar holds both.
        kind, net, arrays = load_checkpoint(CHECKPOINT_FIXTURE, table4)
        assert kind == "frap"
        assert net.config == FrapConfig()
        fresh = net.init_params(5)
        assert arrays.keys() == fresh.keys()
        for name, array in fresh.items():
            assert arrays[name].dtype == array.dtype and arrays[name].shape == array.shape
            assert arrays[name].tobytes() == array.tobytes(), f"{name}: {golden_platform_note()}"

    @pytest.mark.parametrize(
        "key, value",
        [("conv_layers", 2), ("conv_layers", True), ("output_relu", True), ("output_relu", "false")],
    )
    def test_old_sidecar_keys_take_only_the_fixed_graph(self, table4, tmp_path, key, value):
        for suffix in (".bin", ".json", ".meta.json"):
            shutil.copy(CHECKPOINT_FIXTURE.with_suffix(suffix), tmp_path / f"model{suffix}")
        meta_path = tmp_path / "model.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["config"][key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"config.{key} must be"):
            load_checkpoint(tmp_path / "model.bin", table4)

    @pytest.mark.parametrize("kind", ["frap", "vanilla"])
    def test_parameter_arrays_are_read_only(self, table4, tmp_path, kind):
        # A greedy policy prepares constants from a parameter set and memoizes
        # its actions; an in-place write used to leave both stale, silently.
        net = build_network(kind, table4)
        made = net.init_params(0)
        path = save_checkpoint(tmp_path / "model.bin", kind, net, made)
        loaded = load_checkpoint(path, table4)[2]
        for params in (made, loaded):
            for array in params.values():
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0
                with pytest.raises(ValueError, match="read-only"):
                    np.negative(array, out=array)
        for name, array in made.items():
            assert np.array_equal(loaded[name], array), name

    def test_vanilla_sidecar_roundtrip(self, table4, tmp_path):
        net = VanillaNetwork(table4, VanillaConfig(hidden=(16,)))
        path = save_checkpoint(tmp_path / "model.bin", "vanilla", net, net.init_params(0))
        _, loaded_net, _ = load_checkpoint(path, table4)
        assert loaded_net.config == net.config

    @pytest.mark.parametrize("fail_at", ["second temp file", "first rename"])
    def test_interrupted_save_keeps_previous_checkpoint(
        self, table4, tmp_path, monkeypatch, fail_at
    ):
        net = FrapNetwork(table4, FrapConfig())
        old = net.init_params(0)
        path = save_checkpoint(tmp_path / "model.bin", "frap", net, old)
        before = sorted(p.name for p in tmp_path.iterdir())
        if fail_at == "second temp file":
            write_bytes, calls = Path.write_bytes, []

            def flaky_write_bytes(self, data):
                calls.append(self)
                if len(calls) == 2:
                    raise OSError("disk full")
                return write_bytes(self, data)

            monkeypatch.setattr(Path, "write_bytes", flaky_write_bytes)
        else:
            def failing_replace(src, dst):
                raise OSError("rename failed")

            monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_checkpoint(path, "frap", net, net.init_params(1))
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == before  # no temp file left
        _, _, loaded = load_checkpoint(path, table4)
        for k in old:
            assert np.array_equal(loaded[k], old[k])
