"""Q-networks: the phase-competition network (FRAP) and a flat MLP baseline.

The FRAP network scores each phase through three stages. First a shared
two-layer block turns each movement's (vehicle count, signal bit) pair into a
demand vector; a phase's demand is the sum of its two members' demands. Then
every ordered phase pair (p, q), q != p, is embedded twice: a demand volume D
holding [d(p), d(q)] and a relation volume E holding a learned embedding of
the pair relation (partial vs fully competing). Both volumes pass through
stacks of 1x1 convolutions, are multiplied element-wise, and a final 1x1
convolution produces one competition score per pair; Q(p) is the sum of p's
scores over all opponents.

Because every layer is shared across movements and phase pairs, relabelling
the intersection by any symmetry op permutes the Q-vector by the induced
phase permutation. The flat baseline below has no such structure and serves
as the negative control.

Both networks are fused kernels over plain parameter arrays: ``forward``
computes the Q-values in numpy and, with ``vjp=True``, also returns the
network's hand-derived backward pass, a map from the gradient of Q to the
gradient of each named parameter. ``q_values`` scores one state from the
constants ``prepare`` builds once per parameter set; its output is bitwise
row 0 of ``forward``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path
import numpy as np

from . import numerics as nm
from .numerics import Params, Vjp
from .state import TrafficState
from .topology import PhaseTable


@dataclass(frozen=True)
class FrapConfig:
    movement_hidden: int = 4  # width of each movement feature branch
    demand_dim: int = 16  # movement/phase demand vector length
    relation_dim: int = 4  # relation embedding length
    conv_channels: int = 20
    conv_layers: int = 1
    output_relu: bool = False  # clip pair scores at zero before summing
    norm_capacity: float = 40.0  # vehicle counts are divided by this


@dataclass(frozen=True)
class VanillaConfig:
    hidden: tuple[int, ...] = (32, 32)
    norm_capacity: float = 40.0


def _as_batch(counts: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    counts = np.asarray(counts, dtype=np.float64)
    bits = np.asarray(bits, dtype=np.float64)
    if counts.shape != bits.shape:
        raise ValueError(f"counts {counts.shape} and bits {bits.shape} differ")
    if counts.ndim == 1:
        return counts[None, :], bits[None, :]
    if counts.ndim == 2:
        return counts, bits
    raise ValueError(f"expected 1-d or 2-d inputs, got {counts.shape}")


def _rows_at(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w over the rows of a 2-d array. numpy sends a one-row product to
    gemv, which rounds differently from gemm, so a single row goes through
    gemm as the first of two: a state's Q-values then do not depend on how
    many states share its batch."""
    if x.shape[0] == 1:
        return (np.concatenate([x, x]) @ w)[:1]
    return x @ w


def _relu_rows(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relu(x @ w + b) over the rows of a 2-d array."""
    out = _rows_at(x, w)
    out += b
    return np.maximum(out, 0.0, out=out)


def _relu_grads(g_out: np.ndarray, x: np.ndarray, out: np.ndarray, w: np.ndarray):
    """(g_x, g_w, g_b) of ``out = relu(x @ w + b)`` given the gradient of ``out``."""
    g = g_out * (out > 0.0)
    return g @ w.T, x.T @ g, g.sum(axis=0)


def _selector(index: np.ndarray, n: int) -> np.ndarray:
    """One-hot matrix S [index.size, n] with S[k, index[k]] = 1; S.T @ g
    scatter-adds the rows of g into the n slots they were gathered from."""
    flat = index.ravel()
    out = np.zeros((flat.size, n))
    out[np.arange(flat.size), flat] = 1.0
    return out


class Prepared:
    """Constants of one parameter set for single-state Q (see ``prepare``):
    ``params``, the parameter arrays by name; for FRAP also ``w_rel``, the
    relation branch's weights, and ``table``, the movement-demand table,
    whose row 2c + b is the demand of a movement with count c and signal
    bit b. The table grows as larger counts arrive."""

    def __init__(self, params: Params):
        self.params = params
        self.w_rel: np.ndarray | None = None
        self.table: np.ndarray | None = None


def _prepared_for(network, params: Params, prepared: Prepared | None) -> Prepared:
    if prepared is None:
        return network.prepare(params)
    if prepared.params is not params:
        raise ValueError("prepared constants belong to another parameter set")
    return prepared


class FrapNetwork:
    """Phase-competition Q-network bound to one phase table.

    The kernel keeps rows movement- or cell-major, with the batch inside, so
    gathers and scatters move whole contiguous [B, C] blocks:

    - Split projection. The first pair convolution acts on [d(p), d(q)], so
      it is A(p) + Bq(q) with A = d W0[:D] + b and Bq = d W0[D:], computed per
      phase and added over the opponent slots: no [.., 2D] pair volume, and
      the gemm runs over B*P rows, not B*P*(P-1).
    - Relation branch on the two ``rel_emb`` rows; a cell's score takes the
      row its ``pair_relation`` names. It does not depend on the batch.
    - Value-sorted opponent sum. Q(p) sums p's scores in ascending value
      order, so permuting opponents leaves Q bitwise unchanged and exact Q
      ties survive symmetry relabelling.

    ``opponents``, ``pair_relation`` and their flat index arrays are fixed at
    construction and the network keeps no scratch state, so concurrent calls
    are safe. A prepared demand table only ever grows by replacement, so it
    may be shared too.
    """

    def __init__(self, table: PhaseTable, config: FrapConfig = FrapConfig()):
        self.table = table
        self.config = config
        p = table.n_phases
        if p < 2:
            raise ValueError("phase-competition scoring needs at least 2 phases")
        self.members = np.array([ph.members for ph in table.phases], dtype=np.int64)  # [P, 2]
        opponents = np.array(
            [[q for q in range(p) if q != pi] for pi in range(p)], dtype=np.int64
        )  # [P, P-1], ascending, own index skipped
        self.opponents = opponents
        self.pair_relation = np.take_along_axis(table.relation, opponents, axis=1)  # [P, P-1]
        # Flat index arrays of the pair stage, built once: a single state's Q
        # is a few dozen small numpy calls, so each one saved shows.
        self._opponents_flat = opponents.ravel()
        self._member_rows = self.members.T.ravel()  # first members, then second
        self._cells = np.arange(opponents.size)
        self._relation_flat = self.pair_relation.ravel()

    @property
    def n_actions(self) -> int:
        return self.table.n_phases

    def init_params(self, seed: int) -> Params:
        rng = np.random.default_rng(seed)
        cfg = self.config

        def dense(fan_in: int, fan_out: int) -> np.ndarray:
            return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))

        params: dict[str, np.ndarray] = {
            "w_v": dense(1, cfg.movement_hidden),
            "b_v": np.zeros(cfg.movement_hidden),
            "w_s": dense(1, cfg.movement_hidden),
            "b_s": np.zeros(cfg.movement_hidden),
            "w_h": dense(2 * cfg.movement_hidden, cfg.demand_dim),
            "b_h": np.zeros(cfg.demand_dim),
            "rel_emb": rng.normal(0.0, 1.0, size=(2, cfg.relation_dim)),
        }
        d_in, r_in = 2 * cfg.demand_dim, cfg.relation_dim
        for k in range(cfg.conv_layers):
            params[f"w_d{k}"] = dense(d_in, cfg.conv_channels)
            params[f"b_d{k}"] = np.zeros(cfg.conv_channels)
            params[f"w_r{k}"] = dense(r_in, cfg.conv_channels)
            params[f"b_r{k}"] = np.zeros(cfg.conv_channels)
            d_in = r_in = cfg.conv_channels
        params["w_out"] = dense(cfg.conv_channels, 1)
        params["b_out"] = np.zeros(1)
        return params

    def _demand(self, p: dict[str, np.ndarray], xv: np.ndarray, xs: np.ndarray):
        """(h, d) of movement rows with scaled counts xv [N, 1] and signal bits
        xs [N, 1]: concatenated branch activations [N, 2H] and demands [N, D]."""
        h = np.concatenate(
            [_relu_rows(xv, p["w_v"], p["b_v"]), _relu_rows(xs, p["w_s"], p["b_s"])], axis=1
        )
        return h, _relu_rows(h, p["w_h"], p["b_h"])

    def _movement_rows(self, p: dict[str, np.ndarray], counts, bits):
        """(xv, xs, h, d): branch inputs [M*B, 1], concatenated branch
        activations [M*B, 2H] and demands [M*B, D], rows movement-major."""
        counts, bits = _as_batch(counts, bits)
        if counts.shape[1] != self.table.n_movements:
            raise ValueError(f"expected {self.table.n_movements} movements, got {counts.shape[1]}")
        xv = counts.T.reshape(-1, 1) / self.config.norm_capacity
        xs = bits.T.reshape(-1, 1)
        return (xv, xs, *self._demand(p, xv, xs))

    def _relation_rows(self, p: dict[str, np.ndarray]):
        """(hr, w_rel): the relation branch's activations, one row per
        relation kind, and w_rel [2, C], its last layer times ``w_out``."""
        hr = [p["rel_emb"]]
        for k in range(self.config.conv_layers):
            hr.append(_relu_rows(hr[-1], p[f"w_r{k}"], p[f"b_r{k}"]))
        return hr, hr[-1] * p["w_out"][:, 0]

    def movement_demand(self, params: Params, counts, bits) -> np.ndarray:
        """Per-movement demand vectors, shape [B, M, demand_dim]."""
        d = self._movement_rows(params, counts, bits)[3]
        return d.reshape(self.table.n_movements, -1, d.shape[1]).transpose(1, 0, 2)

    def phase_demand(self, movement_demands: np.ndarray) -> np.ndarray:
        """Sum the two member demands of every phase: [B, M, .] -> [B, P, .]."""
        m = self.members
        return movement_demands[:, m[:, 0]] + movement_demands[:, m[:, 1]]

    def _pair_stage(self, p: dict[str, np.ndarray], dp: np.ndarray, batch: int, w_rel: np.ndarray):
        """(q, hd, scores): Q [B, P] from phase demands dp [P*B, D] (rows
        phase-major) and relation weights w_rel [2, C], with the pair-cell
        activations of every conv layer and the pair scores [P, P-1, B]
        before any output ReLU, which the backward reads."""
        cfg = self.config
        n_ph, n_dem, n_ch = self.table.n_phases, cfg.demand_dim, cfg.conv_channels

        # Layer 0, split: pre(p, j) = A(p) + Bq(opponents[p, j]), cells [P*(P-1), B, C].
        w0 = p["w_d0"]
        a = dp @ w0[:n_dem]
        a += p["b_d0"]
        bq = (dp @ w0[n_dem:]).reshape(n_ph, batch * n_ch)
        cells = bq.take(self._opponents_flat, axis=0).reshape(n_ph, -1, batch * n_ch)
        cells += a.reshape(n_ph, 1, batch * n_ch)
        hd = [np.maximum(cells, 0.0, out=cells).reshape(-1, n_ch)]  # rows (p, j, b)
        for k in range(1, cfg.conv_layers):
            # One gemm per phase: OpenBLAS rounds a product over all
            # P(P-1)B rows differently once B reaches a few dozen, and a
            # state's Q would then depend on the batch size.
            blocks = np.split(hd[-1], n_ph)
            hd.append(np.concatenate([_relu_rows(x, p[f"w_d{k}"], p[f"b_d{k}"]) for x in blocks]))

        # Score every cell against both relation kinds (one gemm, so a row's
        # score does not depend on the batch size), then keep its own kind.
        # w_rel.T stays a transposed view: a contiguous copy takes another
        # BLAS path and changes the rounding.
        by_kind = (hd[-1] @ w_rel.T).reshape(self._cells.size, batch, 2)
        scores = by_kind[self._cells, :, self._relation_flat].reshape(n_ph, -1, batch)
        scores += p["b_out"][0]
        kept = np.maximum(scores, 0.0) if cfg.output_relu else scores
        # np.add.reduce is the reduction .sum runs, without its Python wrapper.
        q = np.add.reduce(np.sort(kept.transpose(0, 2, 1), axis=2), axis=2).T  # [B, P]
        return q, hd, scores

    def forward(
        self, params: Params, counts, bits, vjp: bool = False
    ) -> np.ndarray | tuple[np.ndarray, Vjp]:
        """Q-values for a batch of states, shape [B, P]; with ``vjp``, the
        pair (Q, VJP) of Q and its backward pass."""
        cfg = self.config
        p = params
        n_ph, n_dem, n_ch = self.table.n_phases, cfg.demand_dim, cfg.conv_channels
        opponents, relation = self.opponents, self.pair_relation
        xv, xs, h, d = self._movement_rows(p, counts, bits)
        batch = xv.shape[0] // self.table.n_movements
        d3 = d.reshape(-1, batch, n_dem)
        dp = (d3[self.members[:, 0]] + d3[self.members[:, 1]]).reshape(-1, n_dem)  # [P*B, D]
        hr, w_rel = self._relation_rows(p)
        q, hd, scores = self._pair_stage(p, dp, batch, w_rel)
        w0 = p["w_d0"]
        n_cells = relation.size

        def grads_of(gq: np.ndarray) -> Params:
            g: Params = {}
            gs = np.broadcast_to(gq.T[:, None, :], scores.shape)  # [P, P-1, B]
            if cfg.output_relu:
                gs = gs * (scores > 0.0)
            gs = gs.reshape(n_cells, batch)
            g["b_out"] = np.array([gs.sum()])
            # Last conv: per cell, sum_b gs * h; then by relation kind.
            h3 = hd[-1].reshape(n_cells, batch, n_ch)
            gh_cells = np.matmul(gs[:, None, :], h3).reshape(n_cells, n_ch)
            g_rel = _selector(relation, 2).T @ gh_cells  # [2, C]
            g["w_out"] = (g_rel * hr[-1]).sum(axis=0)[:, None]
            g_r = g_rel * p["w_out"][:, 0]
            for k in reversed(range(cfg.conv_layers)):
                g_r, g[f"w_r{k}"], g[f"b_r{k}"] = _relu_grads(g_r, hr[k], hr[k + 1], p[f"w_r{k}"])
            g["rel_emb"] = g_r

            # Pair cells one phase at a time, so every temporary is [P-1, B, C]:
            # a second full [P(P-1), B, C] array next to the forward's makes
            # the allocator hand its pages back and fault them in every step.
            n_opp = n_cells // n_ph
            for k in range(1, cfg.conv_layers):
                g[f"w_d{k}"] = np.zeros_like(p[f"w_d{k}"])
                g[f"b_d{k}"] = np.zeros_like(p[f"b_d{k}"])
            g_a = np.empty((n_ph, batch * n_ch))
            g_bq = np.zeros((n_ph, batch * n_ch))
            for ph in range(n_ph):
                own = slice(ph * n_opp, (ph + 1) * n_opp)
                rows = slice(own.start * batch, own.stop * batch)
                g_h = np.einsum("kb,kc->kbc", gs[own], w_rel[relation[ph]]).reshape(-1, n_ch)
                for k in reversed(range(1, cfg.conv_layers)):
                    g_h, g_w, g_b = _relu_grads(g_h, hd[k - 1][rows], hd[k][rows], p[f"w_d{k}"])
                    g[f"w_d{k}"] += g_w
                    g[f"b_d{k}"] += g_b
                g_h *= hd[0][rows] > 0.0
                # Layer 0: A(p) collects p's cells, Bq(q) every cell q opposes.
                g_cells = g_h.reshape(n_opp, batch * n_ch)
                g_a[ph] = g_cells.sum(axis=0)
                g_bq[opponents[ph]] += g_cells
            g_a = g_a.reshape(-1, n_ch)
            g_bq = g_bq.reshape(-1, n_ch)
            g["w_d0"] = np.concatenate([dp.T @ g_a, dp.T @ g_bq])
            g["b_d0"] = g_a.sum(axis=0)
            g_dp = g_a @ w0[:n_dem].T + g_bq @ w0[n_dem:].T  # [P*B, D]
            n_mov = self.table.n_movements
            member_of = _selector(self.members[:, 0], n_mov) + _selector(self.members[:, 1], n_mov)
            g_d = (member_of.T @ g_dp.reshape(n_ph, -1)).reshape(-1, n_dem)
            g_h, g["w_h"], g["b_h"] = _relu_grads(g_d, h, d, p["w_h"])
            n_hid = cfg.movement_hidden
            for br, x, c in (("v", xv, slice(None, n_hid)), ("s", xs, slice(n_hid, None))):
                _, g[f"w_{br}"], g[f"b_{br}"] = _relu_grads(g_h[:, c], x, h[:, c], p[f"w_{br}"])
            return g

        return (q, grads_of) if vjp else q

    def prepare(self, params: Params) -> Prepared:
        """Single-state constants of ``params``: the relation weights and an
        empty movement-demand table."""
        prepared = Prepared(params)
        prepared.w_rel = self._relation_rows(params)[1]
        prepared.table = np.empty((0, self.config.demand_dim))
        return prepared

    def _demand_table(self, prepared: Prepared, top: int) -> np.ndarray:
        """The demand table of ``prepared``, grown to cover counts 0..top by
        one movement product over the missing rows. The rows are bitwise a
        forward's, since a row of that product does not depend on the rows
        beside it (test_prepared_q_is_the_forward_row pins this)."""
        table = prepared.table
        have = len(table) // 2
        if top >= have:
            counts = np.repeat(np.arange(have, top + 1, dtype=np.float64), 2)[:, None]
            bits = np.tile([0.0, 1.0], top + 1 - have)[:, None]
            new = self._demand(prepared.params, counts / self.config.norm_capacity, bits)[1]
            table = prepared.table = np.concatenate([table, new])
        return table

    def q_values(
        self, params: Params, state: TrafficState, prepared: Prepared | None = None
    ) -> np.ndarray:
        """Q-values of one state, shape [P]: bitwise row 0 of ``forward`` on
        it. The 8 movement demands come from the demand table of
        ``prepared`` (built from ``params`` when not given), then the
        forward's own pair stage runs on them."""
        prepared = _prepared_for(self, params, prepared)
        counts, bits = state.counts, state.signal_bits
        if counts.shape != (self.table.n_movements,):
            raise ValueError(f"expected {self.table.n_movements} movements, got {counts.shape}")
        listed = counts.tolist()  # 8 Python ints check faster than numpy reductions
        if min(listed) < 0 or not {0, 1}.issuperset(bits.tolist()):
            raise ValueError("counts must be non-negative and signal bits 0 or 1")
        table = self._demand_table(prepared, max(listed))
        member = table.take((2 * counts + bits)[self._member_rows], axis=0)
        n_ph = self.table.n_phases
        dp = member[:n_ph] + member[n_ph:]  # [P, D]
        return self._pair_stage(prepared.params, dp, 1, prepared.w_rel)[0][0]


class VanillaNetwork:
    """Plain MLP over the 16 raw features; no sharing, no pair structure."""

    def __init__(self, table: PhaseTable, config: VanillaConfig = VanillaConfig()):
        self.table = table
        self.config = config

    @property
    def n_actions(self) -> int:
        return self.table.n_phases

    def init_params(self, seed: int) -> Params:
        rng = np.random.default_rng(seed)
        sizes = (2 * self.table.n_movements, *self.config.hidden, self.table.n_phases)
        params: dict[str, np.ndarray] = {}
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            params[f"w{i}"] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            params[f"b{i}"] = np.zeros(fan_out)
        return params

    def prepare(self, params: Params) -> Prepared:
        """Single-state constants of ``params``: its arrays by name."""
        return Prepared(params)

    def _layers(self, p: dict[str, np.ndarray], counts, bits):
        """(hs, q): the input and hidden activations, and Q [B, P]."""
        counts, bits = _as_batch(counts, bits)
        n_layers = len(self.config.hidden)
        hs = [np.concatenate([counts / self.config.norm_capacity, bits], axis=1)]
        for i in range(n_layers):
            hs.append(_relu_rows(hs[-1], p[f"w{i}"], p[f"b{i}"]))
        return hs, _rows_at(hs[-1], p[f"w{n_layers}"]) + p[f"b{n_layers}"]

    def forward(
        self, params: Params, counts, bits, vjp: bool = False
    ) -> np.ndarray | tuple[np.ndarray, Vjp]:
        """Q-values for a batch of states, shape [B, P]; with ``vjp``, the
        pair (Q, VJP) of Q and its backward pass."""
        n_layers = len(self.config.hidden)
        hs, q = self._layers(params, counts, bits)

        def grads_of(g_out: np.ndarray) -> Params:
            grads: Params = {}
            for i in reversed(range(n_layers + 1)):
                grads[f"w{i}"] = hs[i].T @ g_out
                grads[f"b{i}"] = g_out.sum(axis=0)
                if i:
                    g_out = (g_out @ params[f"w{i}"].T) * (hs[i] > 0.0)
            return grads

        return (q, grads_of) if vjp else q

    def q_values(
        self, params: Params, state: TrafficState, prepared: Prepared | None = None
    ) -> np.ndarray:
        """Q-values of one state, shape [P]: bitwise row 0 of ``forward`` on it."""
        p = _prepared_for(self, params, prepared).params
        return self._layers(p, state.counts, state.signal_bits)[1][0]


def build_network(kind: str, table: PhaseTable, config=None):
    if kind == "frap":
        return FrapNetwork(table, config or FrapConfig())
    if kind == "vanilla":
        return VanillaNetwork(table, config or VanillaConfig())
    raise ValueError(f"unknown network kind {kind!r}")


# --- checkpoints with a self-describing sidecar -------------------------------

def save_checkpoint(path: str | Path, kind: str, network, params: Params) -> Path:
    """Write arrays (.bin + .json manifest) and a .meta.json model sidecar,
    each to a temporary name first, then renamed over the previous files."""
    path = Path(path)
    meta = {
        "kind": kind,
        "config": asdict(network.config),
        "n_movements": network.table.n_movements,
        "n_phases": network.table.n_phases,
    }
    if isinstance(network.config, VanillaConfig):
        meta["config"]["hidden"] = list(network.config.hidden)
    files = nm.array_files(path, params)
    files[path.with_suffix(".meta.json")] = json.dumps(meta, indent=2, sort_keys=True).encode()
    nm.write_files(files)
    return path


def load_checkpoint(path: str | Path, table: PhaseTable):
    """Load (kind, network, params); raises ValueError on a table mismatch or
    on arrays whose names or shapes the described network does not have."""
    path = Path(path)
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    kind = meta["kind"]
    if meta["n_movements"] != table.n_movements or meta["n_phases"] != table.n_phases:
        raise ValueError(
            f"checkpoint was trained for {meta['n_movements']} movements / "
            f"{meta['n_phases']} phases; table has {table.n_movements} / {table.n_phases}"
        )
    cfg_dict = dict(meta["config"])
    if kind == "frap":
        config = FrapConfig(**cfg_dict)
    elif kind == "vanilla":
        cfg_dict["hidden"] = tuple(cfg_dict["hidden"])
        config = VanillaConfig(**cfg_dict)
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    network = build_network(kind, table, config)
    arrays = nm.load_arrays(path)
    expected = {k: a.shape for k, a in network.init_params(0).items()}
    for name in sorted(expected.keys() | arrays.keys()):
        if name not in arrays:
            raise ValueError(f"checkpoint {path} lacks array {name!r}")
        if name not in expected:
            raise ValueError(f"checkpoint {path} has array {name!r}, unknown to its {kind} network")
        if arrays[name].shape != expected[name]:
            raise ValueError(
                f"checkpoint {path}: array {name!r} has shape {arrays[name].shape}, "
                f"its {kind} network expects {expected[name]}"
            )
    return kind, network, arrays
