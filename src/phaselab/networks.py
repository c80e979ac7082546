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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from . import numerics as nm
from .numerics import Tape, Tensor
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
    hidden: tuple[int, int] = (32, 32)
    norm_capacity: float = 40.0


def _as_batch(counts: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    counts = np.asarray(counts, dtype=np.float64)
    bits = np.asarray(bits, dtype=np.float64)
    if counts.shape != bits.shape:
        raise ValueError(f"counts {counts.shape} and bits {bits.shape} differ")
    if counts.ndim == 1:
        return counts[None, :], bits[None, :], True
    if counts.ndim == 2:
        return counts, bits, False
    raise ValueError(f"expected 1-d or 2-d inputs, got {counts.shape}")


class FrapNetwork:
    """Phase-competition Q-network bound to one phase table."""

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
        self.own = np.repeat(np.arange(p, dtype=np.int64)[:, None], p - 1, axis=1)
        self.pair_relation = np.take_along_axis(table.relation, opponents, axis=1)  # [P, P-1]

    @property
    def n_actions(self) -> int:
        return self.table.n_phases

    def init_params(self, seed: int) -> dict[str, Tensor]:
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
        return {k: Tensor(v) for k, v in params.items()}

    def movement_demand(
        self, params: dict[str, Tensor], counts, bits, tape: Tape | None = None
    ) -> Tensor:
        """Per-movement demand vectors, shape [B, M, demand_dim]."""
        counts, bits, _ = _as_batch(counts, bits)
        b, m = counts.shape
        if m != self.table.n_movements:
            raise ValueError(f"expected {self.table.n_movements} movements, got {m}")
        xv = Tensor(counts.reshape(b * m, 1) / self.config.norm_capacity)
        xs = Tensor(bits.reshape(b * m, 1))
        hv = nm.relu(nm.affine(xv, params["w_v"], params["b_v"], tape), tape)
        hs = nm.relu(nm.affine(xs, params["w_s"], params["b_s"], tape), tape)
        h = nm.concat([hv, hs], axis=1, tape=tape)
        d = nm.relu(nm.affine(h, params["w_h"], params["b_h"], tape), tape)
        return nm.reshape(d, (b, m, self.config.demand_dim), tape)

    def phase_demand(self, movement_demands: Tensor, tape: Tape | None = None) -> Tensor:
        """Sum the two member demands of every phase: [B, M, .] -> [B, P, .]."""
        first = nm.take(movement_demands, self.members[:, 0], axis=1, tape=tape)
        second = nm.take(movement_demands, self.members[:, 1], axis=1, tape=tape)
        return nm.add(first, second, tape)

    def build_volumes(
        self, params: dict[str, Tensor], phase_demands: Tensor, tape: Tape | None = None
    ) -> tuple[Tensor, Tensor]:
        """Pair demand volume D [B, P, P-1, 2*demand] and relation volume E [P, P-1, rel]."""
        own = nm.take(phase_demands, self.own, axis=1, tape=tape)
        opp = nm.take(phase_demands, self.opponents, axis=1, tape=tape)
        demand_volume = nm.concat([own, opp], axis=3, tape=tape)
        relation_volume = nm.embed(params["rel_emb"], self.pair_relation, tape)
        return demand_volume, relation_volume

    def forward(self, params: dict[str, Tensor], counts, bits, tape: Tape | None = None) -> Tensor:
        """Q-values for a batch of states, shape [B, P]."""
        d_move = self.movement_demand(params, counts, bits, tape)
        d_phase = self.phase_demand(d_move, tape)
        h_d, h_r = self.build_volumes(params, d_phase, tape)
        for k in range(self.config.conv_layers):
            h_d = nm.relu(nm.conv1x1(h_d, params[f"w_d{k}"], params[f"b_d{k}"], tape), tape)
            h_r = nm.relu(nm.conv1x1(h_r, params[f"w_r{k}"], params[f"b_r{k}"], tape), tape)
        h_c = nm.mul_elem(h_d, h_r, tape)  # broadcasts E across the batch
        scores = nm.conv1x1(h_c, params["w_out"], params["b_out"], tape)
        if self.config.output_relu:
            scores = nm.relu(scores, tape)
        # Value-sorted summation keeps Q bitwise independent of opponent
        # order, so exact ties survive symmetry relabelling.
        q = nm.sum_axis_canonical(scores, axis=2, tape=tape)
        b = q.data.shape[0]
        return nm.reshape(q, (b, self.table.n_phases), tape)

    def q_values(self, params: dict[str, Tensor], state: TrafficState) -> np.ndarray:
        return self.forward(params, state.counts, state.signal_bits).data[0]


class VanillaNetwork:
    """Plain MLP over the 16 raw features; no sharing, no pair structure."""

    def __init__(self, table: PhaseTable, config: VanillaConfig = VanillaConfig()):
        self.table = table
        self.config = config

    @property
    def n_actions(self) -> int:
        return self.table.n_phases

    def init_params(self, seed: int) -> dict[str, Tensor]:
        rng = np.random.default_rng(seed)
        sizes = (2 * self.table.n_movements, *self.config.hidden, self.table.n_phases)
        params: dict[str, np.ndarray] = {}
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            params[f"w{i}"] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            params[f"b{i}"] = np.zeros(fan_out)
        return {k: Tensor(v) for k, v in params.items()}

    def forward(self, params: dict[str, Tensor], counts, bits, tape: Tape | None = None) -> Tensor:
        counts, bits, _ = _as_batch(counts, bits)
        x = Tensor(np.concatenate([counts / self.config.norm_capacity, bits], axis=1))
        n_layers = len(self.config.hidden)
        h = x
        for i in range(n_layers):
            h = nm.relu(nm.affine(h, params[f"w{i}"], params[f"b{i}"], tape), tape)
        return nm.affine(h, params[f"w{n_layers}"], params[f"b{n_layers}"], tape)

    def q_values(self, params: dict[str, Tensor], state: TrafficState) -> np.ndarray:
        return self.forward(params, state.counts, state.signal_bits).data[0]


def build_network(kind: str, table: PhaseTable, config=None):
    if kind == "frap":
        return FrapNetwork(table, config or FrapConfig())
    if kind == "vanilla":
        return VanillaNetwork(table, config or VanillaConfig())
    raise ValueError(f"unknown network kind {kind!r}")


# --- checkpoints with a self-describing sidecar -------------------------------

def save_checkpoint(path: str | Path, kind: str, network, params: dict[str, Tensor]) -> Path:
    """Write arrays (.bin + .json manifest) and a .meta.json model sidecar."""
    path = Path(path)
    nm.save_arrays(path, {k: t.data for k, t in params.items()})
    meta = {
        "kind": kind,
        "config": asdict(network.config),
        "n_movements": network.table.n_movements,
        "n_phases": network.table.n_phases,
    }
    if isinstance(network.config, VanillaConfig):
        meta["config"]["hidden"] = list(network.config.hidden)
    path.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
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
    expected = {k: t.shape for k, t in network.init_params(0).items()}
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
    params = {k: Tensor(v) for k, v in arrays.items()}
    return kind, network, params
