"""Vehicle arrival schedules: CSV ingestion, synthesis, and symmetry mirroring.

Flow CSV format: header ``vehicle_id,entry_time,route`` where route is a
semicolon-separated list of ``intersection:movement`` integer pairs
(single-intersection flows use intersection 0). Times are seconds as floats,
written with ``repr`` so a written flow parses back to the same times.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .topology import SymmetryOp

FLOW_HEADER = ("vehicle_id", "entry_time", "route")


class FlowEvent(NamedTuple):
    vehicle_id: int
    entry_time: float
    route: tuple[tuple[int, int], ...]  # (intersection, movement) hops


@dataclass(frozen=True, eq=False)
class FlowSchedule:
    events: tuple[FlowEvent, ...]  # non-decreasing entry times

    def __post_init__(self) -> None:
        times = self.entry_times
        # One pass: each time is at least the one before it (0.0 before the
        # first) and finite. A nan fails every comparison, so it is caught too.
        if not all(a <= b < math.inf for a, b in zip((0.0, *times), times)):
            for e in self.events:
                if not 0.0 <= e.entry_time < math.inf:
                    raise ValueError(
                        f"vehicle {e.vehicle_id}: entry time {e.entry_time!r} "
                        "must be finite and non-negative"
                    )
            raise ValueError("flow events must be sorted by entry time")
        if not all(self.route_lengths):
            bad = next(e for e in self.events if not e.route)
            raise ValueError(f"vehicle {bad.vehicle_id} has an empty route")

    def __len__(self) -> int:
        return len(self.events)

    # Per-vehicle columns, in event order, built once per schedule: every
    # simulator on this flow shares them.

    @cached_property
    def vehicle_ids(self) -> tuple[int, ...]:
        return tuple([e.vehicle_id for e in self.events])

    @cached_property
    def entry_times(self) -> tuple[float, ...]:
        return tuple([e.entry_time for e in self.events])

    @cached_property
    def routes(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple([e.route for e in self.events])

    @cached_property
    def route_lengths(self) -> tuple[int, ...]:
        return tuple(map(len, self.routes))

    @cached_property
    def _id_ranges(self) -> tuple[int, int, int, int]:
        """Min and max intersection id, then min and max movement id, over
        every hop; all 0 for an empty flow."""
        if not self.events:
            return (0, 0, 0, 0)
        inters, movs = zip(*(hop for e in self.events for hop in e.route))
        return (min(inters), max(inters), min(movs), max(movs))

    def validate(self, n_movements: int, n_intersections: int = 1) -> None:
        lo_i, hi_i, lo_m, hi_m = self._id_ranges
        fits = 0 <= lo_i and hi_i < n_intersections and 0 <= lo_m and hi_m < n_movements
        if fits or not self.events:
            return  # every hop is in range: nothing to scan for
        for e in self.events:
            for inter, mov in e.route:
                if not 0 <= inter < n_intersections:
                    raise ValueError(f"vehicle {e.vehicle_id}: unknown intersection {inter}")
                if not 0 <= mov < n_movements:
                    raise ValueError(f"vehicle {e.vehicle_id}: unknown movement id {mov}")

    def movement_volumes(
        self, n_movements: int, duration: float, n_intersections: int = 1
    ) -> np.ndarray:
        """Per-intersection arrival rates in veh/h per movement (calibration input).

        Every (intersection, movement) hop of every route counts, so a vehicle
        crossing a grid loads each intersection it passes; the total is
        averaged over the ``n_intersections`` intersections.
        """
        counts = np.zeros(n_movements)
        for e in self.events:
            for _, movement in e.route:
                counts[movement] += 1.0
        return counts * 3600.0 / duration / n_intersections


def write_flow_csv(flow: FlowSchedule, path: str | Path) -> Path:
    path = Path(path)
    lines = [",".join(FLOW_HEADER)]
    for e in flow.events:
        route = ";".join(f"{i}:{m}" for i, m in e.route)
        lines.append(f"{e.vehicle_id},{float(e.entry_time)!r},{route}")
    path.write_text("\n".join(lines) + "\n")
    return path


def parse_flow_csv(
    path: str | Path, n_movements: int | None = None, n_intersections: int | None = None
) -> FlowSchedule:
    """Parse a flow CSV; rows are stably sorted by entry time.

    Raises ValueError with the offending line number on malformed rows, and on
    unknown movement/intersection ids when bounds are given.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header {','.join(FLOW_HEADER)}")
        if tuple(h.strip() for h in header) != FLOW_HEADER:
            raise ValueError(f"{path}: bad header {header!r}, expected {list(FLOW_HEADER)}")
        events = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                vid = int(row[0])
                entry = float(row[1])
                route = tuple(
                    (int(i), int(m))
                    for i, m in (hop.split(":") for hop in row[2].split(";"))
                )
            except (ValueError, IndexError) as err:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r} ({err})") from None
            if not 0.0 <= entry < math.inf:  # FlowSchedule rejects it too, without a line number
                raise ValueError(
                    f"{path}:{lineno}: entry time {row[1]!r} must be finite and non-negative"
                )
            if not route:
                raise ValueError(f"{path}:{lineno}: empty route")
            events.append(FlowEvent(vid, entry, route))
    events.sort(key=lambda e: e.entry_time)  # stable: ties keep file order
    flow = FlowSchedule(events=tuple(events))
    if n_movements is not None:
        flow.validate(n_movements, n_intersections if n_intersections is not None else 1)
    return flow


def mirror_flow(op: SymmetryOp, flow: FlowSchedule) -> FlowSchedule:
    """Map every event's movement through a symmetry op; times unchanged.

    Only single-intersection flows can be mirrored.
    """
    events = []
    for e in flow.events:
        if len(e.route) != 1 or e.route[0][0] != 0:
            raise ValueError("mirror_flow: only single-intersection flows are supported")
        mov = int(op.movement_perm[e.route[0][1]])
        events.append(FlowEvent(e.vehicle_id, e.entry_time, ((0, mov),)))
    return FlowSchedule(events=tuple(events))


# --- synthesis ----------------------------------------------------------------

@dataclass(frozen=True)
class FlowSynthesisSpec:
    """Per-movement mean rates (veh/h) plus the arrival process.

    ``segments`` optionally replaces the flat rates with (seconds, rates)
    blocks that must tile the duration exactly.
    """

    rates: tuple[float, ...]
    process: str = "poisson"  # or "uniform"
    duration: float = 3600.0
    segments: tuple[tuple[float, tuple[float, ...]], ...] | None = None

    def __post_init__(self) -> None:
        if self.process not in ("poisson", "uniform"):
            raise ValueError(f"unknown arrival process {self.process!r}")
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.segments is not None:
            total = sum(s[0] for s in self.segments)
            if abs(total - self.duration) > 1e-9:
                raise ValueError(f"segments cover {total}s, duration is {self.duration}s")
            for _, rates in self.segments:
                if len(rates) != len(self.rates):
                    raise ValueError("every segment needs one rate per movement")

    def segment_list(self) -> list[tuple[float, float, tuple[float, ...]]]:
        """(start, end, rates) blocks covering [0, duration)."""
        if self.segments is None:
            return [(0.0, self.duration, self.rates)]
        out = []
        t = 0.0
        for seconds, rates in self.segments:
            out.append((t, t + seconds, rates))
            t += seconds
        return out


def _gap_block(expected: float) -> int:
    """Gaps to draw per block: four standard deviations over the expected
    count, so one block passes the segment's end for all but about one
    segment in 10^5."""
    return int(expected + 4.0 * expected**0.5) + 16


def _poisson_times(
    start: float, end: float, scale: float, rng: np.random.Generator
) -> list[float]:
    """Arrivals from ``start`` with exponential gaps of mean ``scale``, up to
    but excluding ``end``.

    Bitwise the scalar loop ``t = start + gap(); while t < end: keep t;
    t += gap()``: the gaps are drawn in blocks and summed left to right by
    ``cumsum``, then the generator is rewound and advanced by exactly the
    draws that loop makes, the first time >= ``end`` included.
    """
    saved = rng.bit_generator.state
    block = _gap_block((end - start) / scale)
    sums = np.cumsum(np.concatenate(([start], rng.exponential(scale, block))))[1:]
    while sums[-1] < end:
        more = np.cumsum(np.concatenate((sums[-1:], rng.exponential(scale, block))))[1:]
        sums = np.concatenate((sums, more))
    kept = int(np.searchsorted(sums, end, side="left"))  # sums[kept] is the first >= end
    rng.bit_generator.state = saved
    rng.exponential(scale, kept + 1)
    return sums[:kept].tolist()


def _movement_times(spec: FlowSynthesisSpec, movement: int, rng: np.random.Generator) -> list[float]:
    times: list[float] = []
    for start, end, rates in spec.segment_list():
        rate = rates[movement]
        if rate <= 0:
            continue
        if spec.process == "uniform":
            spacing = 3600.0 / rate
            t = start
            while t < end - 1e-9:
                times.append(t)
                t += spacing
        else:
            times.extend(_poisson_times(start, end, 3600.0 / rate, rng))
    return times


def synthesize_flow(spec: FlowSynthesisSpec, seed: int) -> FlowSchedule:
    """Single-intersection schedule from a synthesis spec; deterministic per seed."""
    rng = np.random.default_rng(seed)
    raw: list[tuple[float, int]] = []
    for movement in range(len(spec.rates)):
        raw.extend((t, movement) for t in _movement_times(spec, movement, rng))
    raw.sort()
    events = tuple(FlowEvent(i, t, ((0, m),)) for i, (t, m) in enumerate(raw))
    return FlowSchedule(events=events)


def synthesize_grid_flow(
    spec: FlowSynthesisSpec, rows: int, cols: int, seed: int
) -> FlowSchedule:
    """Grid schedule: through movements become straight boundary-to-boundary
    corridors; left-turn rates apply per intersection as single-hop side flows.

    Requires the standard 4-approach movement layout (N-T=0 .. W-L=7).
    """
    if len(spec.rates) != 8:
        raise ValueError("grid synthesis needs the 8-movement 4-approach layout")
    rng = np.random.default_rng(seed)

    def inter_id(r: int, c: int) -> int:
        return r * cols + c

    # (movement, corridor hops) per entry point; throughs cross the grid.
    corridors: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    for c in range(cols):
        corridors.append((0, tuple((inter_id(r, c), 0) for r in range(rows))))  # N->S
        corridors.append((4, tuple((inter_id(r, c), 4) for r in reversed(range(rows)))))  # S->N
    for r in range(rows):
        corridors.append((2, tuple((inter_id(r, c), 2) for c in reversed(range(cols)))))  # E->W
        corridors.append((6, tuple((inter_id(r, c), 6) for c in range(cols))))  # W->E

    raw: list[tuple[float, int, tuple[tuple[int, int], ...]]] = []
    for movement, route in corridors:
        for t in _movement_times(spec, movement, rng):
            raw.append((t, movement, route))
    for movement in (1, 3, 5, 7):  # left turns: local side-street demand
        for k in range(rows * cols):
            for t in _movement_times(spec, movement, rng):
                raw.append((t, movement, ((k, movement),)))
    raw.sort(key=lambda item: (item[0], item[1], item[2]))
    events = tuple(FlowEvent(i, t, route) for i, (t, _, route) in enumerate(raw))
    return FlowSchedule(events=events)


# --- canonical benchmark flows -------------------------------------------------

# Movement order: N-T, N-L, E-T, E-L, S-T, S-L, W-T, W-L.
_BENCHMARKS: dict[str, tuple[float, ...]] = {
    "balanced-8": (240.0,) * 8,
    "unbalanced-we": (180.0, 180.0, 120.0, 180.0, 180.0, 180.0, 600.0, 180.0),
    "flip-pair-am": (180.0, 120.0, 120.0, 60.0, 180.0, 120.0, 480.0, 240.0),
}
# Evening flow mirrors the morning one E<->W.
_EW_SWAP = (0, 1, 6, 7, 4, 5, 2, 3)
_BENCHMARKS["flip-pair-pm"] = tuple(_BENCHMARKS["flip-pair-am"][i] for i in _EW_SWAP)

BENCHMARK_FLOW_NAMES = tuple(sorted(_BENCHMARKS))


def benchmark_flow_spec(
    name: str, process: str = "poisson", duration: float = 3600.0
) -> FlowSynthesisSpec:
    key = name.lower()
    if key not in _BENCHMARKS:
        raise KeyError(f"unknown benchmark flow {name!r}; valid: {BENCHMARK_FLOW_NAMES}")
    return FlowSynthesisSpec(rates=_BENCHMARKS[key], process=process, duration=duration)
