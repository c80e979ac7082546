"""Deterministic 1 s point-queue simulator for grids of K intersections.

Vehicles enter an approach, travel it at free-flow speed, then join their
movement's FIFO line. The first ``lane_capacity`` vehicles of a line form the
vertical queue at the stop line, which observations and rewards count; the
rest wait upstream and move up as the front discharges. Each second of green
a movement discharges at the saturation rate, at most the vehicles at its
stop line, with the fractional service carried in a credit that restarts
when green is interrupted. Switching phases inserts yellow plus all-red
seconds during which nothing discharges. Identical (config, flow, action
sequence) inputs give bit-identical trajectories; a simulator instance is
single-threaded.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

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
        if self.lane_capacity * self.saturation_headway < 1.0:
            # A green second departs at most lane_capacity vehicles, so a
            # shorter product would serve below the saturation rate.
            raise ValueError(
                f"lane_capacity * saturation_headway must be at least 1 s, got "
                f"{self.lane_capacity} * {self.saturation_headway}"
            )

    @property
    def approach_time(self) -> float:
        return self.approach_length / self.free_flow_speed

    @property
    def clearance(self) -> int:
        return self.yellow + self.all_red


class VehicleRecord(NamedTuple):
    vehicle_id: int
    entry: float
    queue_join: float | None
    exit: float | None


class IntervalRecord(NamedTuple):
    t: float  # clock at the end of the interval
    phase: int
    reward: float
    counts: tuple[int, ...]


@dataclass(frozen=True)
class EpisodeMetrics:
    """Travel-time summary plus the raw per-vehicle and per-interval series.

    ``avg_travel_time`` averages exit minus approach-entry over vehicles that
    exited; vehicles still in the network at episode end are only counted.

    The series are kept as columns, in the flow's vehicle order, and as one
    ``(t, phase, reward, counts)`` tuple per interval and intersection;
    ``vehicles`` and ``intervals`` build the records from them on first
    access, so a caller that reads only the summary never pays for them.
    Equality compares the summary and every column.
    """

    avg_travel_time: float
    exited_count: int
    in_network_count: int
    vehicle_ids: tuple[int, ...]
    entry_times: tuple[float, ...]
    queue_join_times: tuple[float | None, ...]
    exit_times: tuple[float | None, ...]
    interval_rows: tuple[tuple[tuple[float, int, float, tuple[int, ...]], ...], ...]

    @cached_property
    def vehicles(self) -> tuple[VehicleRecord, ...]:
        columns = (self.vehicle_ids, self.entry_times, self.queue_join_times, self.exit_times)
        return tuple(map(VehicleRecord, *columns))

    @cached_property
    def intervals(self) -> tuple[tuple[IntervalRecord, ...], ...]:  # per intersection
        return tuple(tuple(map(IntervalRecord._make, rows)) for rows in self.interval_rows)


class GridSim:
    """K synchronized intersections on a shared clock; routes forward vehicles
    between them. ``reset`` and ``step`` take and return one entry per
    intersection.

    A vehicle is its index into the flow's columns: lines and the link from
    one intersection to the next hold these ints, and its progress lives in
    per-episode lists (``_hop``, ``_queue_join``, ``_exit``) indexed the same
    way. Each (intersection, movement) has one line and one service credit.

    Vehicles reach a stop line from two streams, both already in time order:
    flow entries, read with a pointer into ``_arrivals`` (the flow is sorted
    by entry time), and vehicles forwarded between intersections, kept in the
    ``_forwarded`` FIFO (every vehicle forwarded in second s arrives at
    s + 1 + approach time, so they are appended in arrival order). The two
    are merged by arrival time, a flow entry first on a tie.

    Observations share one read-only signal-bits array per phase: copy a
    state's ``signal_bits`` before writing to it."""

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
        for bits in self._phase_bits:
            bits.flags.writeable = False
        approach_time = config.approach_time
        self._arrivals = [float(t) + approach_time for t in flow.entry_times]
        self.reset()

    def reset(self) -> list[TrafficState]:
        k, m = self.n_intersections, self.table.n_movements
        self.clock = 0
        self.done = False
        self.current = [0] * k
        self._lines = [[deque() for _ in range(m)] for _ in range(k)]
        self._credit = [[0.0] * m for _ in range(k)]
        n = len(self.flow)
        self._hop = [0] * n
        self._queue_join: list[float | None] = [None] * n
        self._exit: list[float | None] = [None] * n
        self._next_entry = 0  # first flow entry not yet at its stop line
        self._forwarded: deque[tuple[float, int]] = deque()  # (arrival, vehicle)
        self.exited_count = 0
        self._intervals: list[list[tuple]] = [[] for _ in range(k)]  # IntervalRecord fields
        return self.states()

    # -- micro dynamics --------------------------------------------------------

    def step(self, actions: Sequence[int]) -> tuple[list[TrafficState], list[float], bool]:
        """Advance one decision interval, second by second: arrivals join
        the back of their line (at the stop line while it holds fewer than
        ``lane_capacity``), then every green movement outside clearance
        discharges at the saturation rate, its departures exiting or
        travelling on to their next hop."""
        if self.done:
            raise RuntimeError("step() called after the episode ended")
        if len(actions) != self.n_intersections:
            raise ValueError(f"expected {self.n_intersections} actions, got {len(actions)}")
        for a in actions:
            if not 0 <= a < self.table.n_phases:
                raise ValueError(f"invalid phase index {a}")
        cfg = self.config
        clearance, cap, headway = cfg.clearance, cfg.lane_capacity, cfg.saturation_headway
        approach_time = cfg.approach_time
        lines = self._lines
        green = []  # per intersection: its lines, credits, green movements, first green second
        for k, a in enumerate(actions):
            members, credit = self._phase_members[a], self._credit[k]
            first_green = 0
            if a != self.current[k]:
                # Green is interrupted, so service restarts, except on a
                # movement that stays green through a change with no clearance.
                first_green = clearance
                stays = self._phase_members[self.current[k]] if not clearance else ()
                for m in members:
                    if m not in stays:
                        credit[m] = 0.0
            green.append((lines[k], credit, members, first_green))
        self.current = list(actions)
        arrivals, forwarded = self._arrivals, self._forwarded
        n_entries = len(arrivals)
        routes, route_lens = self.flow.routes, self.flow.route_lengths
        hop, queue_join, exit_time = self._hop, self._queue_join, self._exit
        next_entry, exited = self._next_entry, self.exited_count
        on_microstep = self.on_microstep
        for i in range(cfg.decision_interval):
            s = self.clock + i
            while True:  # the earlier of the two streams' heads; an entry on a tie
                if next_entry < n_entries and arrivals[next_entry] <= s:
                    if forwarded and forwarded[0][0] < arrivals[next_entry]:
                        v = forwarded.popleft()[1]
                    else:
                        v = next_entry
                        next_entry += 1
                elif forwarded and forwarded[0][0] <= s:
                    v = forwarded.popleft()[1]
                else:
                    break
                k, m = routes[v][hop[v]]
                line = lines[k][m]
                if len(line) < cap and queue_join[v] is None:
                    queue_join[v] = float(s)
                line.append(v)
            for ls, credit, members, first_green in green:
                if i < first_green:
                    continue  # yellow + all-red: no discharge anywhere
                for m in members:
                    line = ls[m]
                    if not line:
                        credit[m] = 0.0
                        continue
                    served = credit[m] + 1.0
                    if served < headway:
                        credit[m] = served
                        continue
                    n = len(line)
                    # Only the vehicles at the stop line can leave this
                    # second; the credit left over carries to the next.
                    departures = n if n < cap else cap
                    while served >= headway and departures:
                        served -= headway
                        departures -= 1
                        v = line.popleft()
                        hop[v] += 1
                        if hop[v] == route_lens[v]:
                            exit_time[v] = float(s + 1)
                            exited += 1
                        else:
                            forwarded.append((float(s + 1) + approach_time, v))
                    credit[m] = served
                    if n > cap:  # vehicles move up from upstream into the freed places
                        for j in range(cap - (n - len(line)), min(cap, len(line))):
                            v = line[j]
                            if queue_join[v] is None:
                                queue_join[v] = float(s)
            if on_microstep is not None:
                self._next_entry, self.exited_count = next_entry, exited
                on_microstep(self, s + 1)
        self._next_entry, self.exited_count = next_entry, exited
        self.clock += cfg.decision_interval
        self.done = self.clock >= cfg.episode_length
        states, rewards = [], []
        for k, phase in enumerate(self.current):
            lens = self._stop_line_counts(k)
            reward = -(sum(lens) / len(lens))  # integer sums are exact: bitwise the float mean
            rewards.append(reward)
            self._intervals[k].append((float(self.clock), phase, reward, tuple(lens)))
            counts = np.array(lens, dtype=np.int64)
            states.append(TrafficState.trusted(counts, self._phase_bits[phase], phase))
        return states, rewards, self.done

    # -- observation and accounting --------------------------------------------

    def _stop_line_counts(self, k: int) -> list[int]:
        """Per movement of intersection k, the vehicles at its stop line."""
        cap = self.config.lane_capacity
        return [n if n < cap else cap for n in map(len, self._lines[k])]

    def counts(self, k: int) -> np.ndarray:
        return np.array(self._stop_line_counts(k), dtype=np.int64)

    def state(self, k: int) -> TrafficState:
        phase = self.current[k]
        return TrafficState.trusted(self.counts(k), self._phase_bits[phase], phase)

    def states(self) -> list[TrafficState]:
        return [self.state(k) for k in range(self.n_intersections)]

    def conservation_snapshot(self, now: float) -> dict[str, int]:
        """Vehicle accounting recomputed from the raw structures."""
        in_queue = sum(sum(self._stop_line_counts(k)) for k in range(self.n_intersections))
        waiting = sum(len(line) for row in self._lines for line in row) - in_queue
        entry_times, next_entry = self.flow.entry_times, self._next_entry
        on_approach = sum(1 for _, v in self._forwarded if entry_times[v] < now)
        on_approach += bisect_left(entry_times, now, lo=next_entry) - next_entry
        entered = bisect_left(entry_times, now)
        return {
            "entered": entered,
            "in_queue": in_queue,
            "waiting": waiting,
            "on_approach": on_approach,
            "exited": self.exited_count,
        }

    def metrics(self) -> EpisodeMetrics:
        """The summary, and a snapshot of the per-vehicle and per-interval
        columns: later steps do not change it."""
        entry_times = self.flow.entry_times
        travel = [x - t for x, t in zip(self._exit, entry_times) if x is not None]
        entered = bisect_left(entry_times, float(self.clock))
        return EpisodeMetrics(
            avg_travel_time=(
                float(np.fromiter(travel, float, len(travel)).mean()) if travel else 0.0
            ),
            exited_count=self.exited_count,
            in_network_count=entered - self.exited_count,
            vehicle_ids=self.flow.vehicle_ids,
            entry_times=entry_times,
            queue_join_times=tuple(self._queue_join),
            exit_times=tuple(self._exit),
            interval_rows=tuple(tuple(rows) for rows in self._intervals),
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
    return run_episode(GridSim(config, table, flow, len(controllers), seed), controllers)


def run_episode(sim: GridSim, controllers: Sequence) -> EpisodeMetrics:
    """Run ``sim`` from its current state to the episode's end, one controller
    per intersection mapping its TrafficState to a phase index; a controller
    with a ``reset`` method is reset first."""
    states = sim.states()
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
