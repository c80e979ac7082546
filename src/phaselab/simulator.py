"""Deterministic 1 s point-queue simulator for grids of K intersections.

Vehicles enter an approach, travel it at free-flow speed, then stack in a
vertical queue at the stop line (capacity-capped; overflow waits upstream and
slots in FIFO as space frees). Each second of green a movement discharges at
the saturation rate, with the fractional service carried in an accumulator.
Switching phases inserts yellow plus all-red seconds during which nothing
discharges. Identical (config, flow, action sequence) inputs give
bit-identical trajectories; a simulator instance is single-threaded.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .flows import FlowSchedule
from .state import TrafficState
from .topology import PhaseTable


@dataclass(frozen=True)
class SimConfig:
    approach_length: float = 300.0  # m
    free_flow_speed: float = 10.0  # m/s
    saturation_headway: float = 2.0  # s per vehicle per movement
    lane_capacity: int = 40  # vehicles per movement queue
    yellow: int = 3  # s
    all_red: int = 2  # s
    decision_interval: int = 10  # s of simulation per action
    episode_length: int = 3600  # s

    def __post_init__(self) -> None:
        positive = (
            self.approach_length, self.free_flow_speed, self.saturation_headway,
            self.lane_capacity, self.decision_interval, self.episode_length,
        )
        if any(v <= 0 for v in positive) or self.yellow < 0 or self.all_red < 0:
            raise ValueError("simulator config values must be positive")
        if self.yellow + self.all_red >= self.decision_interval:
            raise ValueError("clearance (yellow + all_red) must fit inside the decision interval")

    @property
    def approach_time(self) -> float:
        return self.approach_length / self.free_flow_speed

    @property
    def clearance(self) -> int:
        return self.yellow + self.all_red


@dataclass
class _Vehicle:
    vid: int
    entry_time: float
    route: tuple[tuple[int, int], ...]
    hop: int = 0
    queue_join: float | None = None
    exit_time: float | None = None


@dataclass(frozen=True)
class VehicleRecord:
    vehicle_id: int
    entry: float
    queue_join: float | None
    exit: float | None


@dataclass(frozen=True)
class IntervalRecord:
    t: float  # clock at the end of the interval
    phase: int
    reward: float
    counts: tuple[int, ...]


@dataclass(frozen=True)
class EpisodeMetrics:
    """Travel-time summary plus the raw per-vehicle and per-interval series.

    ``avg_travel_time`` averages exit minus approach-entry over vehicles that
    exited; vehicles still in the network at episode end are only counted.
    """

    avg_travel_time: float
    exited_count: int
    in_network_count: int
    vehicles: tuple[VehicleRecord, ...]
    intervals: tuple[tuple[IntervalRecord, ...], ...]  # per intersection


class GridSim:
    """K synchronized intersections on a shared clock; routes forward vehicles
    between them. ``reset`` and ``step`` take and return one entry per
    intersection."""

    def __init__(
        self,
        config: SimConfig,
        table: PhaseTable,
        flow: FlowSchedule,
        n_intersections: int,
        seed: int = 0,
        on_microstep: Callable[["GridSim", int], None] | None = None,
    ):
        flow.validate(table.n_movements, n_intersections)
        self.config = config
        self.table = table
        self.flow = flow
        self.n_intersections = n_intersections
        self.seed = seed  # recorded for provenance; the dynamics are deterministic
        self.on_microstep = on_microstep
        self._phase_members = [ph.members for ph in table.phases]
        self._phase_bits = [np.array(ph.bits, dtype=np.int64) for ph in table.phases]
        self._entry_times = [e.entry_time for e in flow.events]
        self.reset()

    def reset(self) -> list[TrafficState]:
        k, m = self.n_intersections, self.table.n_movements
        self.clock = 0
        self.done = False
        self.current = [0] * k
        self._queues = [[deque() for _ in range(m)] for _ in range(k)]
        self._waiting = [[deque() for _ in range(m)] for _ in range(k)]
        self._acc = [[0.0] * m for _ in range(k)]
        self._last_green = [[-2] * m for _ in range(k)]
        self._vehicles = [
            _Vehicle(vid=e.vehicle_id, entry_time=e.entry_time, route=e.route)
            for e in self.flow.events
        ]
        self._seq = 0
        self._heap: list[tuple[float, int, _Vehicle]] = []
        for v in self._vehicles:
            heapq.heappush(self._heap, (v.entry_time + self.config.approach_time, self._seq, v))
            self._seq += 1
        self.exited_count = 0
        self._intervals: list[list[IntervalRecord]] = [[] for _ in range(k)]
        return self.states()

    # -- micro dynamics --------------------------------------------------------

    def _arrivals(self, s: int) -> None:
        cap = self.config.lane_capacity
        while self._heap and self._heap[0][0] <= s:
            _, _, v = heapq.heappop(self._heap)
            k, m = v.route[v.hop]
            queue = self._queues[k][m]
            if len(queue) < cap and not self._waiting[k][m]:
                if v.queue_join is None:
                    v.queue_join = float(s)
                queue.append(v)
            else:
                self._waiting[k][m].append(v)

    def _depart(self, v: _Vehicle, s: int) -> None:
        exit_t = float(s + 1)
        v.hop += 1
        if v.hop == len(v.route):
            v.exit_time = exit_t
            self.exited_count += 1
        else:
            heapq.heappush(self._heap, (exit_t + self.config.approach_time, self._seq, v))
            self._seq += 1

    def _discharge(self, k: int, m: int, s: int) -> None:
        if self._last_green[k][m] != s - 1:
            self._acc[k][m] = 0.0  # green was interrupted; service restarts
        self._last_green[k][m] = s
        queue = self._queues[k][m]
        if not queue:
            self._acc[k][m] = 0.0
            return
        self._acc[k][m] += 1.0
        headway = self.config.saturation_headway
        while self._acc[k][m] >= headway and queue:
            self._acc[k][m] -= headway
            self._depart(queue.popleft(), s)
        waiting = self._waiting[k][m]
        cap = self.config.lane_capacity
        while waiting and len(queue) < cap:
            v = waiting.popleft()
            if v.queue_join is None:
                v.queue_join = float(s)
            queue.append(v)

    def step(self, actions: Sequence[int]) -> tuple[list[TrafficState], list[float], bool]:
        if self.done:
            raise RuntimeError("step() called after the episode ended")
        if len(actions) != self.n_intersections:
            raise ValueError(f"expected {self.n_intersections} actions, got {len(actions)}")
        for a in actions:
            if not 0 <= a < self.table.n_phases:
                raise ValueError(f"invalid phase index {a}")
        changed = [a != cur for a, cur in zip(actions, self.current)]
        self.current = list(actions)
        clearance = self.config.clearance
        for i in range(self.config.decision_interval):
            s = self.clock + i
            self._arrivals(s)
            for k in range(self.n_intersections):
                if changed[k] and i < clearance:
                    continue  # yellow + all-red: no discharge anywhere
                for m in self._phase_members[self.current[k]]:
                    self._discharge(k, m, s)
            if self.on_microstep is not None:
                self.on_microstep(self, s + 1)
        self.clock += self.config.decision_interval
        self.done = self.clock >= self.config.episode_length
        rewards = []
        for k in range(self.n_intersections):
            counts = self.counts(k)
            reward = -float(np.mean(counts))
            rewards.append(reward)
            self._intervals[k].append(
                IntervalRecord(
                    t=float(self.clock),
                    phase=self.current[k],
                    reward=reward,
                    counts=tuple(int(c) for c in counts),
                )
            )
        return self.states(), rewards, self.done

    # -- observation and accounting --------------------------------------------

    def counts(self, k: int) -> np.ndarray:
        return np.array([len(q) for q in self._queues[k]], dtype=np.int64)

    def state(self, k: int) -> TrafficState:
        return TrafficState(
            counts=self.counts(k),
            signal_bits=self._phase_bits[self.current[k]].copy(),
            phase_index=self.current[k],
        )

    def states(self) -> list[TrafficState]:
        return [self.state(k) for k in range(self.n_intersections)]

    def conservation_snapshot(self, now: float) -> dict[str, int]:
        """Vehicle accounting recomputed from the raw structures."""
        in_queue = sum(len(q) for row in self._queues for q in row)
        waiting = sum(len(w) for row in self._waiting for w in row)
        on_approach = sum(1 for _, _, v in self._heap if v.entry_time < now)
        entered = bisect_left(self._entry_times, now)
        return {
            "entered": entered,
            "in_queue": in_queue,
            "waiting": waiting,
            "on_approach": on_approach,
            "exited": self.exited_count,
        }

    def metrics(self) -> EpisodeMetrics:
        records = tuple(
            VehicleRecord(
                vehicle_id=v.vid, entry=v.entry_time, queue_join=v.queue_join, exit=v.exit_time
            )
            for v in self._vehicles
        )
        travel = [v.exit_time - v.entry_time for v in self._vehicles if v.exit_time is not None]
        entered = bisect_left(self._entry_times, float(self.clock))
        return EpisodeMetrics(
            avg_travel_time=float(np.mean(travel)) if travel else 0.0,
            exited_count=self.exited_count,
            in_network_count=entered - self.exited_count,
            vehicles=records,
            intervals=tuple(tuple(rows) for rows in self._intervals),
        )


class IntersectionSim(GridSim):
    """The one-intersection GridSim: ``reset`` and ``step`` take and return
    one-entry lists, like every other K."""

    def __init__(
        self,
        config: SimConfig,
        table: PhaseTable,
        flow: FlowSchedule,
        seed: int = 0,
        on_microstep=None,
    ):
        super().__init__(config, table, flow, 1, seed, on_microstep)

    # Bound in this class body too, so that wrapping one class's methods (as
    # perfbench's tracer does) leaves the other class's alone.
    step = GridSim.step
    metrics = GridSim.metrics


def run_controller(
    controller,
    config: SimConfig,
    table: PhaseTable,
    flow: FlowSchedule,
    seed: int = 0,
) -> EpisodeMetrics:
    """Closed-loop episode; the controller maps TrafficState to a phase index."""
    return run_grid_controller([controller], config, table, flow, seed)


def run_grid_controller(
    controllers: Sequence,
    config: SimConfig,
    table: PhaseTable,
    flow: FlowSchedule,
    seed: int = 0,
) -> EpisodeMetrics:
    """Closed-loop episode with one independent controller per intersection."""
    sim = GridSim(config, table, flow, len(controllers), seed)
    states = sim.reset()
    for c in controllers:
        if hasattr(c, "reset"):
            c.reset()
    done = False
    while not done:
        actions = [c(s) for c, s in zip(controllers, states)]
        states, _, done = sim.step(actions)
    return sim.metrics()


# --- CSV emission ---------------------------------------------------------------

def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".6g")


def write_vehicle_csv(metrics: EpisodeMetrics, path: str | Path) -> Path:
    path = Path(path)
    lines = ["vehicle_id,entry,queue_join,exit"]
    for r in metrics.vehicles:
        lines.append(f"{r.vehicle_id},{_fmt(r.entry)},{_fmt(r.queue_join)},{_fmt(r.exit)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_interval_csv(metrics: EpisodeMetrics, path: str | Path, intersection: int = 0) -> Path:
    path = Path(path)
    rows = metrics.intervals[intersection]
    n_mov = len(rows[0].counts) if rows else 0
    header = "t,phase,reward," + ",".join(f"q{i}" for i in range(n_mov))
    lines = [header]
    for r in rows:
        qs = ",".join(str(c) for c in r.counts)
        lines.append(f"{_fmt(r.t)},{r.phase},{_fmt(r.reward)},{qs}")
    path.write_text("\n".join(lines) + "\n")
    return path
