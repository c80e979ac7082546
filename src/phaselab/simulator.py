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


class IntervalColumns(NamedTuple):
    """One intersection's per-interval series, one row per decision interval."""

    t: np.ndarray  # float64 [I], clock at the end of each interval
    phase: np.ndarray  # int64 [I]
    reward: np.ndarray  # float64 [I]
    counts: np.ndarray  # int64 [I, M], stop-line counts per movement


@dataclass(frozen=True, eq=False)
class EpisodeMetrics:
    """Travel-time summary plus the raw per-vehicle and per-interval series.

    ``avg_travel_time`` averages exit minus approach-entry over vehicles that
    exited; vehicles still in the network at episode end are only counted.

    The series are read-only numpy columns: per vehicle, in the flow's order,
    the queue-join and exit times (float64, NaN for "not yet"), and per
    intersection an ``IntervalColumns``. ``vehicle_ids`` and ``entry_times``
    are the flow's own tuples. ``vehicles`` and ``intervals`` build records
    of Python values from the columns on every read (None for NaN) and keep
    none of them. Equality compares the summary and every column exactly,
    NaN equal to NaN.
    """

    avg_travel_time: float
    exited_count: int
    in_network_count: int
    vehicle_ids: tuple[int, ...]
    entry_times: tuple[float, ...]
    queue_join_times: np.ndarray
    exit_times: np.ndarray
    interval_columns: tuple[IntervalColumns, ...]  # per intersection

    @property
    def vehicles(self) -> tuple[VehicleRecord, ...]:
        columns = (
            self.vehicle_ids, self.entry_times,
            _none_for_nan(self.queue_join_times), _none_for_nan(self.exit_times),
        )
        return tuple(map(VehicleRecord, *columns))

    @property
    def intervals(self) -> tuple[tuple[IntervalRecord, ...], ...]:  # per intersection
        return tuple(
            tuple(map(
                IntervalRecord, c.t.tolist(), c.phase.tolist(), c.reward.tolist(),
                map(tuple, c.counts.tolist()),
            ))
            for c in self.interval_columns
        )

    def _columns(self) -> list[np.ndarray]:
        columns = [self.queue_join_times, self.exit_times]
        for c in self.interval_columns:
            columns.extend(c)
        return columns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpisodeMetrics):
            return NotImplemented
        summary = (
            self.avg_travel_time, self.exited_count, self.in_network_count,
            self.vehicle_ids, self.entry_times, len(self.interval_columns),
        )
        return summary == (
            other.avg_travel_time, other.exited_count, other.in_network_count,
            other.vehicle_ids, other.entry_times, len(other.interval_columns),
        ) and all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(self._columns(), other._columns())
        )


def _none_for_nan(column: np.ndarray) -> list[float | None]:
    return [None if x != x else x for x in column.tolist()]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _by_intersection(log: list, dtype, n: int, k: int, *row: int) -> np.ndarray:
    """A flat log kept per interval, then intersection, as a read-only
    ``[k, n, *row]`` array whose rows are contiguous."""
    array = np.array(log, dtype=dtype).reshape(n, k, *row).swapaxes(0, 1)
    return _read_only(np.ascontiguousarray(array))


# A vehicle's queue-join or exit time before it has one. The per-episode
# lists are prefilled with this one object, so ``is _NOT_YET`` tests for it
# as cheaply as ``is None``, and the lists become float64 columns (NaN for
# "not yet") in one ``np.array`` call.
_NOT_YET = float("nan")


class GridSim:
    """K synchronized intersections on a shared clock; routes forward vehicles
    between them. ``reset`` and ``step`` take and return one entry per
    intersection.

    A vehicle is its index into the flow's columns: lines and the link from
    one intersection to the next hold these ints, and its progress lives in
    per-episode lists (``_hop``, ``_queue_join``, ``_exit``) indexed the same
    way. Each (intersection, movement) has one line and one service credit.
    Each step appends every intersection's phase, reward and counts to flat
    logs that ``metrics`` turns into columns.

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
        self._entries = np.array(flow.entry_times, dtype=np.float64)
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
        self._queue_join = [_NOT_YET] * n
        self._exit = [_NOT_YET] * n
        self._next_entry = 0  # first flow entry not yet at its stop line
        self._forwarded: deque[tuple[float, int]] = deque()  # (arrival, vehicle)
        self.exited_count = 0
        self._phases: list[int] = []  # per interval, then intersection
        self._rewards: list[float] = []  # the same order
        self._counts: list[int] = []  # per interval, intersection, then movement
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
        on_microstep, not_yet = self.on_microstep, _NOT_YET
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
                if len(line) < cap and queue_join[v] is not_yet:
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
                            if queue_join[v] is not_yet:
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
            self._counts.extend(lens)
            counts = np.array(lens, dtype=np.int64)
            states.append(TrafficState.trusted(counts, self._phase_bits[phase], phase))
        self._phases.extend(self.current)
        self._rewards.extend(rewards)
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
        k, m = self.n_intersections, self.table.n_movements
        queue_join = _read_only(np.array(self._queue_join, dtype=np.float64))
        exits = _read_only(np.array(self._exit, dtype=np.float64))
        exited = ~np.isnan(exits)
        travel = exits[exited] - self._entries[exited]
        n = len(self._rewards) // k
        # The clock advances by one decision interval per step.
        t = _read_only(np.arange(1, n + 1, dtype=np.float64) * self.config.decision_interval)
        phase = _by_intersection(self._phases, np.int64, n, k)
        reward = _by_intersection(self._rewards, np.float64, n, k)
        counts = _by_intersection(self._counts, np.int64, n, k, m)
        entered = bisect_left(self.flow.entry_times, float(self.clock))
        return EpisodeMetrics(
            avg_travel_time=float(travel.mean()) if len(travel) else 0.0,
            exited_count=self.exited_count,
            in_network_count=entered - self.exited_count,
            vehicle_ids=self.flow.vehicle_ids,
            entry_times=self.flow.entry_times,
            queue_join_times=queue_join,
            exit_times=exits,
            interval_columns=tuple(
                IntervalColumns(t, phase[i], reward[i], counts[i]) for i in range(k)
            ),
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

def _fmt(x: float) -> str:
    return "" if x != x else format(x, ".6g")  # NaN: none


def write_vehicle_csv(metrics: EpisodeMetrics, path: str | Path) -> Path:
    path = Path(path)
    lines = ["vehicle_id,entry,queue_join,exit"]
    columns = (
        metrics.vehicle_ids, metrics.entry_times,
        metrics.queue_join_times.tolist(), metrics.exit_times.tolist(),
    )
    for vid, entry, queue_join, exit_time in zip(*columns):
        lines.append(f"{vid},{_fmt(entry)},{_fmt(queue_join)},{_fmt(exit_time)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_interval_csv(metrics: EpisodeMetrics, path: str | Path, intersection: int = 0) -> Path:
    path = Path(path)
    c = metrics.interval_columns[intersection]
    header = "t,phase,reward," + ",".join(f"q{i}" for i in range(c.counts.shape[1]))
    lines = [header]
    for t, phase, reward, counts in zip(
        c.t.tolist(), c.phase.tolist(), c.reward.tolist(), c.counts.tolist()
    ):
        qs = ",".join(map(str, counts))
        lines.append(f"{_fmt(t)},{phase},{_fmt(reward)},{qs}")
    path.write_text("\n".join(lines) + "\n")
    return path
