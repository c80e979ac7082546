"""Experiment orchestration: config handling, flow wiring, and the commands
behind the CLI verbs (train / eval / compare / transfer / gen-flow)."""

from __future__ import annotations

import copy
import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import flows as fl
from .classical import (
    FixedTimeController,
    SOTLController,
    fixedtime_grid_search,
    webster_plan,
)
from .networks import (
    FrapConfig,
    VanillaConfig,
    build_network,
    load_checkpoint,
    save_checkpoint,
)
from .simulator import (
    EpisodeMetrics,
    GridSim,
    SimConfig,
    run_grid_controller,
    write_interval_csv,
    write_vehicle_csv,
)
from .topology import PhaseTable, build_phase_table, find_op
from .training import GreedyPolicy, TrainConfig, train, write_curve_csv

EVAL_SEED_OFFSET = 9973  # held-out evaluation flows live in their own seed stream
# Classical calibration draws live in a third stream. An actor stream
# (actor_id * 1009 + episode) reaches it only at 99 actors or after more
# than 1100 episodes of one actor.
CALIBRATION_SEED_OFFSET = 99_991
TRANSFER_OPS = ("flip", "rot90", "rot180", "rot270")
METHODS = ("frap", "vanilla", "fixedtime", "formula", "sotl")
GRID_MANIFEST = "grid.json"  # lists a grid's per-intersection checkpoints


@dataclass(frozen=True)
class FlowConfig:
    """Where vehicles come from: a named benchmark, a CSV file, or raw rates."""

    name: str | None = "unbalanced-WE"
    path: str | None = None
    rates: tuple[float, ...] | None = None
    process: str = "poisson"
    duration: float = 3600.0

    def source_count(self) -> int:
        return sum(x is not None for x in (self.name, self.path, self.rates))


@dataclass(frozen=True)
class ClassicalConfig:
    fixedtime_cycles: tuple[float, ...] = (40.0, 60.0, 80.0, 120.0, 160.0)
    # Hand-tuned: best mean travel time of a theta x t_min sweep over three
    # calibration draws of the canonical unbalanced flow (not the eval flows).
    sotl_theta: float = 6.0
    sotl_t_min: float = 20.0


@dataclass(frozen=True)
class ExperimentConfig:
    approaches: int = 4
    grid_rows: int = 1
    grid_cols: int = 1
    phase_set: str = "8-phase"  # or "4-phase"
    agent: str = "frap"
    sim: SimConfig = field(default_factory=SimConfig)
    frap: FrapConfig = field(default_factory=FrapConfig)
    vanilla: VanillaConfig = field(default_factory=VanillaConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    classical: ClassicalConfig = field(default_factory=ClassicalConfig)
    flow: FlowConfig = field(default_factory=FlowConfig)
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if self.agent not in METHODS:
            raise ValueError(f"agent must be one of {METHODS}")
        if self.phase_set not in ("8-phase", "4-phase"):
            raise ValueError("phase_set must be '8-phase' or '4-phase'")
        if self.phase_set == "4-phase" and self.approaches != 4:
            raise ValueError("the 4-phase setting only exists on 4-approach intersections")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid dimensions must be positive")
        if self.n_intersections > 1 and self.approaches != 4:
            raise ValueError("grids are built from 4-approach intersections")
        if self.flow.source_count() != 1:
            raise ValueError("flow must set exactly one of name/path/rates")
        if self.flow.rates is not None and len(self.flow.rates) != 2 * self.approaches:
            raise ValueError(
                f"flow.rates needs one rate per movement: {2 * self.approaches} for "
                f"{self.approaches} approaches, got {len(self.flow.rates)}"
            )
        if self.n_intersections > 1 and self.flow.path is None:
            if abs(self.flow.duration - self.sim.episode_length) > 1e-9:
                raise ValueError("flow duration must match the episode length")

    @property
    def n_intersections(self) -> int:
        return self.grid_rows * self.grid_cols

    def build_table(self) -> PhaseTable:
        table = build_phase_table(self.approaches)
        if self.phase_set == "4-phase":
            table = table.restrict(table.opposite_pair_phases())
        return table


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type a config field declares. bool is not
    an int here, an int is a float, and tuples and unions are checked member
    by member."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_fits(value, arg) for arg in args)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if hint is type(None):
        return value is None
    if hint in (int, float) and isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _dataclass_from(cls, data: dict, section: str = ""):
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be an object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if not _fits(value, hints[key]):
            name = f"{section}.{key}" if section else key
            raise ValueError(f"{name} must be {fields[key].type}, got {value!r}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    nested = {
        "sim": SimConfig,
        "frap": FrapConfig,
        "vanilla": VanillaConfig,
        "train": TrainConfig,
        "classical": ClassicalConfig,
        "flow": FlowConfig,
    }
    kwargs = {}
    for key, value in data.items():
        if key in nested:
            kwargs[key] = _dataclass_from(nested[key], value, key)
        else:
            kwargs[key] = value
    return _dataclass_from(ExperimentConfig, {**kwargs})


def load_config(path: str | Path | None, overrides: dict | None = None) -> ExperimentConfig:
    data = json.loads(Path(path).read_text()) if path else {}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if "." in key:
            section, sub = key.split(".", 1)
            data.setdefault(section, {})[sub] = value
        else:
            data[key] = value
    return config_from_dict(data)


def config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


def echo_config(config: ExperimentConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True))
    (out_dir / "table.json").write_text(config.build_table().to_json())


# --- flow construction ----------------------------------------------------------

def flow_spec(config: ExperimentConfig) -> fl.FlowSynthesisSpec:
    fc = config.flow
    if fc.name is not None:
        return fl.benchmark_flow_spec(fc.name, process=fc.process, duration=fc.duration)
    if fc.rates is not None:
        return fl.FlowSynthesisSpec(rates=fc.rates, process=fc.process, duration=fc.duration)
    raise ValueError("flow is file-based; no synthesis spec available")


def build_flow(config: ExperimentConfig, seed: int) -> fl.FlowSchedule:
    if config.flow.path is not None:
        n_movements = config.build_table().n_movements
        return fl.parse_flow_csv(config.flow.path, n_movements, config.n_intersections)
    spec = flow_spec(config)
    if config.n_intersections > 1:
        return fl.synthesize_grid_flow(spec, config.grid_rows, config.grid_cols, seed)
    return fl.synthesize_flow(spec, seed)


def episode_flow_seed(config: ExperimentConfig, actor_id: int, episode: int) -> int:
    """Flow seed of an actor's episode; raises ValueError where the actor
    stream reaches the held-out eval or the calibration seed."""
    seed = config.seed * 100_003 + actor_id * 1_009 + episode
    if seed in (eval_flow_seed(config), calibration_flow_seed(config)):
        raise ValueError(
            f"actor {actor_id} episode {episode} would train on flow seed {seed}, "
            "which is reserved for evaluation or calibration"
        )
    return seed


def eval_flow_seed(config: ExperimentConfig) -> int:
    return config.seed * 100_003 + EVAL_SEED_OFFSET


def calibration_flow_seed(config: ExperimentConfig) -> int:
    return config.seed * 100_003 + CALIBRATION_SEED_OFFSET


# --- controllers ------------------------------------------------------------------

def make_classical_controller(
    method: str,
    config: ExperimentConfig,
    table: PhaseTable,
    flow: fl.FlowSchedule,
):
    """Build a baseline controller, calibrated on the given flow.

    A fixed-time plan is calibrated on the config's K intersections, the
    same plan running at each of them."""
    sim_cfg = config.sim
    clearance = float(sim_cfg.clearance)
    if method == "fixedtime":
        plan_phases = table.opposite_pair_phases() or tuple(range(table.n_phases))
        plan, _ = fixedtime_grid_search(
            config.classical.fixedtime_cycles, plan_phases, sim_cfg, table, flow,
            seed=config.seed, clearance=clearance, n_intersections=config.n_intersections,
        )
        return FixedTimeController(plan, sim_cfg.decision_interval)
    if method == "formula":
        volumes = flow.movement_volumes(
            table.n_movements, config.flow.duration, config.n_intersections
        )
        plan = webster_plan(
            volumes, table, saturation_headway=sim_cfg.saturation_headway, clearance=clearance
        )
        return FixedTimeController(plan, sim_cfg.decision_interval)
    if method == "sotl":
        return SOTLController(
            table, config.classical.sotl_theta, config.classical.sotl_t_min,
            sim_cfg.decision_interval,
        )
    raise ValueError(f"unknown classical method {method!r}")


def network_config(config: ExperimentConfig, kind: str):
    """The ``frap`` or ``vanilla`` config, normalized by the simulator's lane capacity."""
    cfg = getattr(config, kind)
    if cfg.norm_capacity != config.sim.lane_capacity:
        cfg = dataclasses.replace(cfg, norm_capacity=float(config.sim.lane_capacity))
    return cfg


# --- commands ---------------------------------------------------------------------

def cmd_train(config: ExperimentConfig) -> dict[str, Path]:
    """Train the configured agent; writes checkpoint(s) and the learning curve.

    One intersection writes ``ckpt.bin``; a grid writes ``ckpt_i{k}.bin`` per
    intersection and lists them in ``grid.json``, the path returned as
    ``checkpoint``.
    """
    if config.agent not in ("frap", "vanilla"):
        raise ValueError("only the frap and vanilla agents are trainable")
    out = Path(config.out_dir)
    echo_config(config, out)
    table = config.build_table()
    network = build_network(config.agent, table, network_config(config, config.agent))
    n = config.n_intersections
    # A file flow is one fixed schedule whatever the seed: parse it once.
    file_flow = build_flow(config, 0) if config.flow.path is not None else None

    def make_sim(seed: int) -> GridSim:
        flow = build_flow(config, seed) if file_flow is None else file_flow
        return GridSim(config.sim, table, flow, n, seed)

    result = train(
        network,
        config.train,
        lambda actor_id, episode: make_sim(episode_flow_seed(config, actor_id, episode)),
        lambda: make_sim(eval_flow_seed(config)),
        seed=config.seed,
    )
    paths = {"curve": write_curve_csv(result.curve, out / "curve.csv")}
    if n == 1:
        paths["checkpoint"] = save_checkpoint(
            out / "ckpt.bin", config.agent, network, result.best_params
        )
        return paths
    names = [
        save_checkpoint(out / f"ckpt_i{k}.bin", config.agent, network, params).name
        for k, params in enumerate(result.best)
    ]
    paths["checkpoint"] = out / GRID_MANIFEST
    paths["checkpoint"].write_text(json.dumps({"agent": config.agent, "checkpoints": names}, indent=2))
    return paths


def _metrics_summary(metrics: EpisodeMetrics) -> str:
    return (
        f"avg_travel_time={metrics.avg_travel_time:.6g}s "
        f"exited={metrics.exited_count} in_network={metrics.in_network_count}"
    )


def evaluate_checkpoint(
    config: ExperimentConfig, checkpoint: str | Path, flow: fl.FlowSchedule
) -> EpisodeMetrics:
    """Greedy episode with one parameter set per intersection: a grid manifest
    (``.json``) lists them, a single checkpoint serves every intersection."""
    table = config.build_table()
    checkpoint = Path(checkpoint)
    n = config.n_intersections
    if checkpoint.suffix == ".json":
        names = json.loads(checkpoint.read_text())["checkpoints"]
        if len(names) != n:
            raise ValueError(
                f"grid manifest lists {len(names)} checkpoints, config has {n} intersections"
            )
        loaded = [load_checkpoint(checkpoint.parent / name, table) for name in names]
    else:
        loaded = [load_checkpoint(checkpoint, table)] * n
    controllers = [GreedyPolicy(network, params) for _, network, params in loaded]
    return run_grid_controller(controllers, config.sim, table, flow, config.seed)


def cmd_eval(config: ExperimentConfig, checkpoint: str | Path) -> EpisodeMetrics:
    """Greedy evaluation episode on the held-out flow; emits metric CSVs."""
    out = Path(config.out_dir)
    echo_config(config, out)
    flow = build_flow(config, eval_flow_seed(config))
    metrics = evaluate_checkpoint(config, checkpoint, flow)
    write_vehicle_csv(metrics, out / "vehicles.csv")
    for k in range(config.n_intersections):
        name = "intervals.csv" if config.n_intersections == 1 else f"intervals_i{k}.csv"
        write_interval_csv(metrics, out / name, intersection=k)
    print(_metrics_summary(metrics))
    return metrics


def cmd_compare(
    config: ExperimentConfig, methods: Sequence[str], checkpoints: dict[str, str] | None = None
) -> list[tuple[str, EpisodeMetrics]]:
    """Run every method on the identical flow instance; emits compare.csv.

    Classical methods are calibrated on a draw of their own seed stream, not
    on the held-out flow they are scored on (a flow file is both at once).
    """
    checkpoints = checkpoints or {}
    out = Path(config.out_dir)
    echo_config(config, out)
    table = config.build_table()
    flow = build_flow(config, eval_flow_seed(config))
    calibration_flow = None
    rows: list[tuple[str, EpisodeMetrics]] = []
    for method in methods:
        if method in ("frap", "vanilla"):
            if method not in checkpoints:
                raise ValueError(f"method {method} needs a checkpoint (use {method}=PATH)")
            metrics = evaluate_checkpoint(config, checkpoints[method], flow)
        elif method in METHODS:
            if calibration_flow is None:
                calibration_flow = build_flow(config, calibration_flow_seed(config))
            # Calibrated once; every intersection runs its own copy.
            controller = make_classical_controller(method, config, table, calibration_flow)
            controllers = [copy.deepcopy(controller) for _ in range(config.n_intersections)]
            metrics = run_grid_controller(controllers, config.sim, table, flow, config.seed)
        else:
            raise ValueError(f"unknown method {method!r}")
        rows.append((method, metrics))
    lines = ["method,avg_travel_time,exited_count"]
    for method, metrics in rows:
        lines.append(f"{method},{format(metrics.avg_travel_time, '.6g')},{metrics.exited_count}")
    (out / "compare.csv").write_text("\n".join(lines) + "\n")
    for method, metrics in rows:
        print(f"{method}: {_metrics_summary(metrics)}")
    return rows


def cmd_transfer(
    config: ExperimentConfig,
    checkpoint: str | Path,
    op_name: str,
    retrain: bool = False,
) -> dict[str, float]:
    """Evaluate a checkpoint on the symmetry-mirrored flow without retraining.

    Reports the travel time on the original flow, on the mirrored flow with the
    unchanged checkpoint, and (optionally) with a model retrained on the
    mirrored flow.
    """
    if config.n_intersections != 1:
        raise ValueError("transfer experiments are single-intersection only")
    out = Path(config.out_dir)
    echo_config(config, out)
    table = config.build_table()
    op = find_op(table, op_name)
    flow = build_flow(config, eval_flow_seed(config))
    mirrored = fl.mirror_flow(op, flow)

    original = evaluate_checkpoint(config, checkpoint, flow)
    transferred = evaluate_checkpoint(config, checkpoint, mirrored)
    results = {
        "original": original.avg_travel_time,
        "transferred": transferred.avg_travel_time,
    }
    if retrain:
        retrain_out = out / "retrain"
        if config.flow.path is None:
            spec = flow_spec(config)
            mirrored_rates = tuple(
                float(spec.rates[int(np.argwhere(op.movement_perm == m)[0, 0])])
                for m in range(table.n_movements)
            )
            retrain_flow = dataclasses.replace(config.flow, name=None, rates=mirrored_rates)
        else:
            # A file flow is one fixed schedule: retrain on its mirrored copy.
            retrain_out.mkdir(parents=True, exist_ok=True)
            mirrored_path = fl.write_flow_csv(mirrored, retrain_out / "flow.csv")
            retrain_flow = dataclasses.replace(config.flow, path=str(mirrored_path))
        retrain_config = dataclasses.replace(config, flow=retrain_flow, out_dir=str(retrain_out))
        paths = cmd_train(retrain_config)
        retrained = evaluate_checkpoint(retrain_config, paths["checkpoint"], mirrored)
        results["retrained"] = retrained.avg_travel_time
    lines = ["variant,avg_travel_time"]
    for name, tt in results.items():
        lines.append(f"{name},{format(tt, '.6g')}")
    (out / "transfer.csv").write_text("\n".join(lines) + "\n")
    for name, tt in results.items():
        print(f"{name}: avg_travel_time={tt:.6g}s")
    return results


def cmd_gen_flow(config: ExperimentConfig, out_path: str | Path) -> Path:
    flow = build_flow(config, config.seed)
    return fl.write_flow_csv(flow, out_path)
