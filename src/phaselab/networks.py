"""Q-networks: the phase-competition network (FRAP) and a flat MLP baseline.

The FRAP network scores each phase through three stages. First a shared
two-layer block turns each movement's (vehicle count, signal bit) pair into a
demand vector; a phase's demand is the sum of its two members' demands. Then
every ordered phase pair (p, q), q != p, is embedded twice: a demand volume D
holding [d(p), d(q)] and a relation volume E holding a learned embedding of
the pair relation (partial vs fully competing). Each volume passes through
one 1x1 convolution with a ReLU, the two are multiplied element-wise, and a
final linear 1x1 convolution produces one competition score per pair; Q(p)
is the sum of p's scores over all opponents.

Because every layer is shared across movements and phase pairs, relabelling
the intersection by any symmetry op permutes the Q-vector by the induced
phase permutation. The flat baseline below has no such structure and serves
as the negative control.

Both networks are fused kernels over plain parameter arrays: ``forward``
computes the Q-values in numpy. Given the taken ``actions`` it computes only
Q[b, actions[b]], and with ``vjp=True`` it also returns the network's
hand-derived backward pass, a map from the gradient of those taken Q-values
to the gradient of each named parameter. ``q_values`` scores one state,
bitwise row 0 of ``forward``. Both take a set as ``prepare`` returns it, or
a plain dict, prepared for that call alone. FRAP computes a (count, signal
bit) pair's demand once per prepared set, and every Q gathers it from there.
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
    conv_channels: int = 20  # width of each branch's pair convolution
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
    """x @ w over the rows of a 2-d array, padded with zero rows to a multiple
    of 4. numpy sends a one-row product to gemv, which rounds differently
    from gemm, and OpenBLAS's gemm rounds the rows of a product with fewer
    than 4 rows, and its last M % 4 rows, apart from the others at some
    output widths (1, 2, 3 and 10 among them). Padded, a state's Q-values do
    not depend on how many states share its batch."""
    n = x.shape[0]
    if n % 4:
        padded = np.zeros((n - n % 4 + 4, x.shape[1]))
        padded[:n] = x
        return (padded @ w)[:n]
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


def _taken(actions, batch: int, n_actions: int) -> np.ndarray:
    """``actions`` as an index array of one action per row."""
    actions = np.asarray(actions)
    if actions.shape != (batch,):
        raise ValueError(f"expected {batch} actions, got shape {actions.shape}")
    if batch and not 0 <= actions.min() <= actions.max() < n_actions:
        raise ValueError(f"actions must lie in [0, {n_actions})")
    return actions


# Counts per movement-table block, one product over its rows, so a row's bits
# do not depend on which counts came first (one block at lane capacity 40).
_TABLE_BLOCK = 64


class Prepared:
    """A parameter set with the constants its Q-values reuse (see ``prepare``):
    ``params``, the arrays by name; for FRAP also ``hr`` and ``w_rel``, the
    relation rows and those times ``w_out`` [2, C], and the movement tables
    ``h`` [N, 2H] and ``d`` [N, D], whose row 2c + b holds the branch
    activations and demand of count c with bit b, grown as counts arrive."""

    def __init__(self, params: Params, hr=None, w_rel=None, h=None, d=None):
        self.params, self.hr, self.w_rel, self.h, self.d = params, hr, w_rel, h, d


class FrapNetwork:
    """Phase-competition Q-network bound to one phase table.

    The kernel keeps rows movement- or cell-major, with the batch inside, so
    gathers and scatters move whole contiguous [B, C] blocks:

    - Split projection. The pair convolution acts on [d(p), d(q)], so
      it is A(p) + Bq(q) with A = d W0[:D] + b and Bq = d W0[D:], computed per
      phase and added over the opponent slots: no [.., 2D] pair volume, and
      the gemm runs over B*P rows, not B*P*(P-1).
    - Relation branch on the two ``rel_emb`` rows; a cell's score takes the
      row its ``pair_relation`` names. It does not depend on the batch.
    - Value-sorted opponent sum. Q(p) sums p's scores in ascending value
      order, so permuting opponents leaves Q bitwise unchanged and exact Q
      ties survive symmetry relabelling.
    - Taken-action mode. A learner reads one Q-value per row, so given the
      actions the forward builds only the P-1 cells of each row's action,
      and its VJP maps the gradient of those [B] values back.
    - Movement tables. A movement's demand depends only on its (count,
      signal bit) pair: every Q gathers it from the prepared set's table.

    Index arrays and the VJP's one-hot selectors are fixed at construction.
    The VJP borrows one scratch buffer, so calls must not run concurrently.
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
        # One-hot sums of the VJP: cells by relation kind [2, cells] (kept a
        # transposed view) and phases by member movement [P, M].
        self._kind_of_cell = np.eye(2)[self._relation_flat].T
        self._member_of = np.eye(table.n_movements)[self.members].sum(axis=1)
        # Zeros the VJP lays the taken cells' activations into, grown to the
        # largest batch seen. A fresh array of this size every step made the
        # allocator return pages and fault them back in each time.
        self._scratch = np.zeros(0)

    @property
    def n_actions(self) -> int:
        return self.table.n_phases

    def init_params(self, seed: int) -> Params:
        rng = np.random.default_rng(seed)
        cfg = self.config

        def dense(fan_in: int, fan_out: int) -> np.ndarray:
            return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))

        return nm.read_only({
            "w_v": dense(1, cfg.movement_hidden),
            "b_v": np.zeros(cfg.movement_hidden),
            "w_s": dense(1, cfg.movement_hidden),
            "b_s": np.zeros(cfg.movement_hidden),
            "w_h": dense(2 * cfg.movement_hidden, cfg.demand_dim),
            "b_h": np.zeros(cfg.demand_dim),
            "rel_emb": rng.normal(0.0, 1.0, size=(2, cfg.relation_dim)),
            "w_d0": dense(2 * cfg.demand_dim, cfg.conv_channels),
            "b_d0": np.zeros(cfg.conv_channels),
            "w_r0": dense(cfg.relation_dim, cfg.conv_channels),
            "b_r0": np.zeros(cfg.conv_channels),
            "w_out": dense(cfg.conv_channels, 1),
            "b_out": np.zeros(1),
        })

    def prepare(self, params: Params | Prepared) -> Prepared:
        """``params`` with its relation rows and empty movement tables, which
        the Q-values fill. A ``Prepared`` is returned as it is."""
        if isinstance(params, Prepared):
            return params
        hr, cfg = _relu_rows(params["rel_emb"], params["w_r0"], params["b_r0"]), self.config
        h, d = np.empty((0, 2 * cfg.movement_hidden)), np.empty((0, cfg.demand_dim))
        return Prepared(params, hr, hr * params["w_out"][:, 0], h, d)

    def _demand(self, p: dict[str, np.ndarray], first: int):
        """(h, d) of the table block from count ``first``, rows 2c + b:
        concatenated branch activations [N, 2H] and demands [N, D]."""
        counts = np.arange(first, first + _TABLE_BLOCK, dtype=np.float64).repeat(2)[:, None]
        xv, xs = counts / self.config.norm_capacity, np.tile([0.0, 1.0], _TABLE_BLOCK)[:, None]
        h = np.concatenate(
            [_relu_rows(xv, p["w_v"], p["b_v"]), _relu_rows(xs, p["w_s"], p["b_s"])], axis=1
        )
        return h, _relu_rows(h, p["w_h"], p["b_h"])

    def _grow(self, prepared: Prepared, top: int) -> None:
        """Extend the tables of ``prepared`` to counts 0..top, a block at a time."""
        while len(prepared.d) <= 2 * top + 1:
            h, d = self._demand(prepared.params, len(prepared.d) // 2)
            prepared.h = np.concatenate([prepared.h, h])
            prepared.d = np.concatenate([prepared.d, d])

    def _table_rows(self, prepared: Prepared, counts: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """Table rows 2c + b [M, B] of a batch's movements, movement-major,
        the tables of ``prepared`` grown to hold them."""
        if counts.shape[1] != self.table.n_movements:
            raise ValueError(f"expected {self.table.n_movements} movements, got {counts.shape[1]}")
        top = counts.max(initial=0.0)
        in_range = counts.min(initial=0.0) >= 0.0 and top < np.inf  # False on a NaN too
        whole = in_range and (np.floor(counts) == counts).all()
        if not (whole and ((bits == 0) | (bits == 1)).all()):
            raise ValueError("counts must be non-negative integers and signal bits 0 or 1")
        self._grow(prepared, int(top))
        return (2.0 * counts + bits).T.astype(np.intp)

    def _phase_rows(self, prepared: Prepared, rows: np.ndarray) -> np.ndarray:
        """Phase demands [P*B, D], phase-major, of table rows [M, B] or [M]."""
        member = prepared.d.take(rows[self._member_rows].ravel(), axis=0)
        return member[: len(member) // 2] + member[len(member) // 2 :]

    def movement_demand(self, params: Params | Prepared, counts, bits) -> np.ndarray:
        """Per-movement demand vectors, shape [B, M, demand_dim]."""
        prepared = self.prepare(params)
        index = self._table_rows(prepared, *_as_batch(counts, bits))
        return prepared.d.take(index.T, axis=0)

    def phase_demand(self, movement_demands: np.ndarray) -> np.ndarray:
        """Sum the two member demands of every phase: [B, M, .] -> [B, P, .]."""
        m = self.members
        return movement_demands[:, m[:, 0]] + movement_demands[:, m[:, 1]]

    def _layer0(self, p: dict[str, np.ndarray], dp: np.ndarray):
        """(A, Bq) [P*B, C] of phase demands dp [P*B, D], rows phase-major:
        the pair convolution is pre(p, q) = A(p) + Bq(q)."""
        w0 = p["w_d0"]
        n_dem = self.config.demand_dim
        a = dp @ w0[:n_dem]
        a += p["b_d0"]
        return a, dp @ w0[n_dem:]

    def _opponent_sum(self, scores: np.ndarray) -> np.ndarray:
        """Q from pair scores [..., P-1], summed over the last axis in ascending order."""
        # np.add.reduce is the reduction .sum runs, without its Python wrapper.
        return np.add.reduce(np.sort(scores, axis=-1), axis=-1)

    def _pair_stage(self, p: dict[str, np.ndarray], dp: np.ndarray, batch: int, w_rel: np.ndarray):
        """Q [B, P] from phase demands dp [P*B, D] (rows phase-major) and
        relation weights w_rel [2, C]."""
        n_ph, n_ch = self.table.n_phases, self.config.conv_channels
        a, bq = self._layer0(p, dp)
        # Cells [P*(P-1), B, C]: pre(p, j) = A(p) + Bq(opponents[p, j]).
        cells = bq.reshape(n_ph, -1).take(self._opponents_flat, axis=0)
        cells = cells.reshape(n_ph, -1, batch * n_ch)
        cells += a.reshape(n_ph, 1, batch * n_ch)
        hd = np.maximum(cells, 0.0, out=cells).reshape(-1, n_ch)
        # Score every cell against both relation kinds (one gemm, so a row's
        # score does not depend on the batch size), then keep its own kind.
        # w_rel.T stays a transposed view: a contiguous copy takes another
        # BLAS path and changes the rounding.
        by_kind = (hd @ w_rel.T).reshape(self._cells.size, batch, 2)
        scores = by_kind[self._cells, :, self._relation_flat].reshape(n_ph, -1, batch)
        scores += p["b_out"][0]
        return self._opponent_sum(scores.transpose(0, 2, 1)).T

    def _taken_stage(self, p: dict[str, np.ndarray], dp: np.ndarray, actions: np.ndarray, w_rel):
        """(q, hd): Q [B] at ``actions`` from phase demands dp [P*B, D] and
        the pair convolution's activations [(P-1)*B, C] on the P-1 cells of
        each row's own action (rows opponent-major). Every value is bitwise
        the one ``_pair_stage`` computes for that cell."""
        n_ph, n_ch = self.table.n_phases, self.config.conv_channels
        batch = len(actions)
        rows = np.arange(batch)
        a, bq = self._layer0(p, dp)
        cells = bq.reshape(n_ph, batch, n_ch)[self.opponents[actions].T, rows]  # [P-1, B, C]
        cells += a.reshape(n_ph, batch, n_ch)[actions, rows]
        hd = np.maximum(cells, 0.0, out=cells).reshape(-1, n_ch)
        by_kind = (hd @ w_rel.T).reshape(n_ph - 1, batch, 2)
        scores = by_kind[np.arange(n_ph - 1)[:, None], rows, self.pair_relation[actions].T]
        scores += p["b_out"][0]
        return self._opponent_sum(scores.T), hd

    def forward(
        self, params: Params | Prepared, counts, bits, actions=None, vjp: bool = False
    ) -> np.ndarray | tuple[np.ndarray, Vjp]:
        """Q-values for a batch of states, shape [B, P], from non-negative
        integer counts and 0/1 signal bits.

        Given ``actions`` [B], only each row's taken Q-value, shape [B]:
        bitwise ``forward(params, counts, bits)[arange(B), actions]``, from
        the P-1 pair cells of each row's action instead of all P(P-1). With
        ``vjp``, which needs ``actions``, the pair (Q, VJP): the VJP maps the
        gradient of those [B] values to the gradient of each parameter."""
        cfg = self.config
        prepared = self.prepare(params)
        p, w_rel = prepared.params, prepared.w_rel
        n_ph, n_dem, n_ch = self.table.n_phases, cfg.demand_dim, cfg.conv_channels
        counts, bits = _as_batch(counts, bits)
        index = self._table_rows(prepared, counts, bits)
        batch = index.shape[1]
        dp = self._phase_rows(prepared, index)  # [P*B, D]
        if actions is None:
            if vjp:
                raise ValueError("the VJP is of the taken Q-values: pass actions")
            return self._pair_stage(p, dp, batch, w_rel)
        actions = _taken(actions, batch, n_ph)
        q, hd = self._taken_stage(p, dp, actions, w_rel)
        if not vjp:
            return q

        n_opp = n_ph - 1
        rows = np.arange(batch)
        opponents, relation = self.opponents[actions].T, self.pair_relation[actions].T  # [P-1, B]
        w0, hr = p["w_d0"], prepared.hr
        xv, xs = counts.T.reshape(-1, 1) / cfg.norm_capacity, bits.T.reshape(-1, 1)  # [M*B, 1]
        h, d = prepared.h.take(index.ravel(), axis=0), prepared.d.take(index.ravel(), axis=0)

        def grads_of(gq: np.ndarray) -> Params:
            g: Params = {}
            # The sums over cells and rows run over the dense [P, P-1, B]
            # layout, zeros where a row did not take the phase: a sum over the
            # taken cells alone rounds differently.
            gs_cells = np.zeros((n_ph, n_opp, batch))
            gs_cells[actions, :, rows] = gq[:, None]
            gs_cells = gs_cells.reshape(-1, batch)
            g["b_out"] = np.array([gs_cells.sum()])
            # Pair convolution: per cell, sum_b gq * h; then by relation kind.
            cell_of = actions * n_opp + np.arange(n_opp)[:, None]  # [P-1, B]
            size = n_ph * n_opp * batch * n_ch
            if self._scratch.size < size:
                self._scratch = np.zeros(size)
            h3 = self._scratch[:size].reshape(-1, batch, n_ch)
            h3[cell_of, rows] = hd.reshape(n_opp, batch, n_ch)
            try:
                gh_cells = np.matmul(gs_cells[:, None, :], h3).reshape(-1, n_ch)
            finally:  # the buffer is all zeros between calls
                h3[cell_of, rows] = 0.0
            g_rel = self._kind_of_cell @ gh_cells  # [2, C]
            g["w_out"] = (g_rel * hr).sum(axis=0)[:, None]
            g["rel_emb"], g["w_r0"], g["b_r0"] = _relu_grads(
                g_rel * p["w_out"][:, 0], p["rel_emb"], hr, p["w_r0"]
            )

            # The taken cells [P-1, B, C]. A(p) collects p's cells, Bq(q)
            # every cell q opposes.
            g_h = gq[:, None] * w_rel[relation] * (hd > 0.0).reshape(n_opp, batch, n_ch)
            g_a = np.zeros((n_ph, batch, n_ch))
            g_a[actions, rows] = g_h.sum(axis=0)
            g_bq = np.zeros((n_ph, batch, n_ch))
            g_bq[opponents, rows] = g_h
            g_a, g_bq = g_a.reshape(-1, n_ch), g_bq.reshape(-1, n_ch)
            g["w_d0"] = np.concatenate([dp.T @ g_a, dp.T @ g_bq])
            g["b_d0"] = g_a.sum(axis=0)
            g_dp = g_a @ w0[:n_dem].T + g_bq @ w0[n_dem:].T  # [P*B, D]
            g_d = (self._member_of.T @ g_dp.reshape(n_ph, -1)).reshape(-1, n_dem)
            g_h, g["w_h"], g["b_h"] = _relu_grads(g_d, h, d, p["w_h"])
            n_hid = cfg.movement_hidden
            for br, x, c in (("v", xv, slice(None, n_hid)), ("s", xs, slice(n_hid, None))):
                g_out = g_h[:, c] * (h[:, c] > 0.0)  # the inputs are data: no input gradient
                g[f"w_{br}"], g[f"b_{br}"] = x.T @ g_out, g_out.sum(axis=0)
            return g

        return q, grads_of

    def q_values(self, params: Params | Prepared, state: TrafficState) -> np.ndarray:
        """Q-values of one state, shape [P]: bitwise row 0 of ``forward`` on
        it, by the same gather and pair stage."""
        prepared = self.prepare(params)
        counts, bits = state.counts, state.signal_bits
        if counts.shape != (self.table.n_movements,):
            raise ValueError(f"expected {self.table.n_movements} movements, got {counts.shape}")
        listed = counts.tolist()  # 8 Python ints check faster than numpy reductions
        if min(listed) < 0 or not {0, 1}.issuperset(bits.tolist()):
            raise ValueError("counts must be non-negative integers and signal bits 0 or 1")
        self._grow(prepared, max(listed))
        dp = self._phase_rows(prepared, 2 * counts + bits)  # [P, D]
        return self._pair_stage(prepared.params, dp, 1, prepared.w_rel)[0]


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
        return nm.read_only(params)

    def prepare(self, params: Params | Prepared) -> Prepared:
        """``params`` as a ``Prepared``; a ``Prepared`` is returned as it is."""
        return params if isinstance(params, Prepared) else Prepared(params)

    def _layers(self, p: dict[str, np.ndarray], counts, bits):
        """(hs, q): the input and hidden activations, and Q [B, P]."""
        counts, bits = _as_batch(counts, bits)
        n_layers = len(self.config.hidden)
        hs = [np.concatenate([counts / self.config.norm_capacity, bits], axis=1)]
        for i in range(n_layers):
            hs.append(_relu_rows(hs[-1], p[f"w{i}"], p[f"b{i}"]))
        return hs, _rows_at(hs[-1], p[f"w{n_layers}"]) + p[f"b{n_layers}"]

    def forward(
        self, params: Params | Prepared, counts, bits, actions=None, vjp: bool = False
    ) -> np.ndarray | tuple[np.ndarray, Vjp]:
        """Q-values for a batch of states, shape [B, P]; given ``actions``,
        the taken ones [B], gathered from them. With ``vjp``, which needs
        ``actions``, the pair (Q, VJP) of the taken Q and its backward pass."""
        n_layers = len(self.config.hidden)
        params = self.prepare(params).params
        hs, q = self._layers(params, counts, bits)
        if actions is None:
            if vjp:
                raise ValueError("the VJP is of the taken Q-values: pass actions")
            return q
        rows = np.arange(len(q))
        actions = _taken(actions, len(q), self.n_actions)
        if not vjp:
            return q[rows, actions]

        def grads_of(gq: np.ndarray) -> Params:
            grads: Params = {}
            g_out = np.zeros_like(q)
            g_out[rows, actions] = gq
            for i in reversed(range(n_layers + 1)):
                grads[f"w{i}"] = hs[i].T @ g_out
                grads[f"b{i}"] = g_out.sum(axis=0)
                if i:
                    g_out = (g_out @ params[f"w{i}"].T) * (hs[i] > 0.0)
            return grads

        return q[rows, actions], grads_of

    def q_values(self, params: Params | Prepared, state: TrafficState) -> np.ndarray:
        """Q-values of one state, shape [P]: bitwise row 0 of ``forward`` on it."""
        p = self.prepare(params).params
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
    files = nm.array_files(path, params)
    files[path.with_suffix(".meta.json")] = json.dumps(meta, indent=2, sort_keys=True).encode()
    nm.write_files(files)
    return path


# Keys older FRAP sidecars carry, with the only values the network has: one
# pair convolution per branch and a linear pair score.
_FIXED_FRAP_KEYS = {"conv_layers": 1, "output_relu": False}


def load_checkpoint(path: str | Path, table: PhaseTable):
    """Load (kind, network, read-only params); raises ValueError on a table
    mismatch, on a sidecar config value of the wrong type (the checks of a
    JSON config) or on arrays whose names or shapes the network lacks.
    A FRAP sidecar may still hold ``conv_layers`` 1 and ``output_relu``
    false, which are dropped; any other value of either raises."""
    path = Path(path)
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    kind = meta["kind"]
    config = meta["config"]
    if kind == "frap" and isinstance(config, dict):
        for key, fixed in _FIXED_FRAP_KEYS.items():
            value = config.pop(key, fixed)
            if type(value) is not type(fixed) or value != fixed:
                raise ValueError(f"config.{key} must be {json.dumps(fixed)}, got {value!r}")
    if meta["n_movements"] != table.n_movements or meta["n_phases"] != table.n_phases:
        raise ValueError(
            f"checkpoint was trained for {meta['n_movements']} movements / "
            f"{meta['n_phases']} phases; table has {table.n_movements} / {table.n_phases}"
        )
    configs = {"frap": FrapConfig, "vanilla": VanillaConfig}
    if kind not in configs:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    network = build_network(kind, table, nm.dataclass_from(configs[kind], config, "config"))
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
