"""Vehicle arrival schedules: CSV ingestion, synthesis, and symmetry mirroring.

A schedule is three per-vehicle columns (ids, entry times, routes); the
simulator and the episode metrics read them directly. Single-intersection
and grid flows come from one synthesis loop over a list of entry points.

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
from itertools import chain
from pathlib import Path

import numpy as np

from .topology import SymmetryOp

FLOW_HEADER = ("vehicle_id", "entry_time", "route")
Route = tuple[tuple[int, int], ...]  # (intersection, movement) hops


@dataclass(frozen=True, eq=False)
class FlowSchedule:
    """One vehicle per index of three equal-length columns, in non-decreasing
    entry-time order; every simulator on this flow shares them."""

    vehicle_ids: tuple[int, ...]
    entry_times: tuple[float, ...]
    routes: tuple[Route, ...]

    def __post_init__(self) -> None:
        n = len(self.vehicle_ids)
        if len(self.entry_times) != n or len(self.routes) != n:
            raise ValueError(
                f"flow columns differ in length: {n} vehicle ids, "
                f"{len(self.entry_times)} entry times, {len(self.routes)} routes"
            )
        times = self.entry_times
        # One pass: each time is at least the one before it (0.0 before the
        # first) and finite. A nan fails every comparison, so it is caught too.
        if not all(a <= b < math.inf for a, b in zip((0.0, *times), times)):
            for vid, t in zip(self.vehicle_ids, times):
                if not 0.0 <= t < math.inf:
                    raise ValueError(
                        f"vehicle {vid}: entry time {t!r} must be finite and non-negative"
                    )
            raise ValueError("flow vehicles must be sorted by entry time")
        if not all(self.route_lengths):
            bad = self.vehicle_ids[self.route_lengths.index(0)]
            raise ValueError(f"vehicle {bad} has an empty route")

    def __len__(self) -> int:
        return len(self.vehicle_ids)

    @cached_property
    def route_lengths(self) -> tuple[int, ...]:
        return tuple(map(len, self.routes))

    @cached_property
    def _id_ranges(self) -> tuple[int, int, int, int]:
        """Min and max intersection id, then min and max movement id, over
        every hop; all 0 for an empty flow."""
        if not self.routes:
            return (0, 0, 0, 0)
        inters, movs = zip(*chain.from_iterable(self.routes))
        return (min(inters), max(inters), min(movs), max(movs))

    def validate(self, n_movements: int, n_intersections: int = 1) -> None:
        lo_i, hi_i, lo_m, hi_m = self._id_ranges
        fits = 0 <= lo_i and hi_i < n_intersections and 0 <= lo_m and hi_m < n_movements
        if fits or not self.routes:
            return  # every hop is in range: nothing to scan for
        for vid, route in zip(self.vehicle_ids, self.routes):
            for inter, mov in route:
                if not 0 <= inter < n_intersections:
                    raise ValueError(f"vehicle {vid}: unknown intersection {inter}")
                if not 0 <= mov < n_movements:
                    raise ValueError(f"vehicle {vid}: unknown movement id {mov}")

    def movement_volumes(
        self, n_movements: int, duration: float, n_intersections: int = 1
    ) -> np.ndarray:
        """Per-intersection arrival rates in veh/h per movement (calibration input).

        Every (intersection, movement) hop of every route counts, so a vehicle
        crossing a grid loads each intersection it passes; the total is
        averaged over the ``n_intersections`` intersections.
        """
        counts = np.zeros(n_movements)
        for _, movement in chain.from_iterable(self.routes):
            counts[movement] += 1.0
        return counts * 3600.0 / duration / n_intersections


def write_flow_csv(flow: FlowSchedule, path: str | Path) -> Path:
    path = Path(path)
    lines = [",".join(FLOW_HEADER)]
    for vid, t, route in zip(flow.vehicle_ids, flow.entry_times, flow.routes):
        hops = ";".join(f"{i}:{m}" for i, m in route)
        lines.append(f"{vid},{float(t)!r},{hops}")
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
    ids: list[int] = []
    times: list[float] = []
    routes: list[Route] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header {','.join(FLOW_HEADER)}")
        if tuple(h.strip() for h in header) != FLOW_HEADER:
            raise ValueError(f"{path}: bad header {header!r}, expected {list(FLOW_HEADER)}")
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
            ids.append(vid)
            times.append(entry)
            routes.append(route)
    order = sorted(range(len(times)), key=times.__getitem__)  # stable: ties keep file order
    flow = FlowSchedule(
        tuple([ids[i] for i in order]),
        tuple([times[i] for i in order]),
        tuple([routes[i] for i in order]),
    )
    if n_movements is not None:
        flow.validate(n_movements, n_intersections if n_intersections is not None else 1)
    return flow


def mirror_flow(op: SymmetryOp, flow: FlowSchedule) -> FlowSchedule:
    """Map every vehicle's movement through a symmetry op; ids and times unchanged.

    Only single-intersection flows can be mirrored.
    """
    routes = []
    for route in flow.routes:
        if len(route) != 1 or route[0][0] != 0:
            raise ValueError("mirror_flow: only single-intersection flows are supported")
        routes.append(((0, int(op.movement_perm[route[0][1]])),))
    return FlowSchedule(flow.vehicle_ids, flow.entry_times, tuple(routes))


# --- synthesis ----------------------------------------------------------------

@dataclass(frozen=True)
class FlowSynthesisSpec:
    """Per-movement mean rates (veh/h) over ``duration`` seconds, plus the
    arrival process."""

    rates: tuple[float, ...]
    process: str = "poisson"  # or "uniform"
    duration: float = 3600.0

    def __post_init__(self) -> None:
        if self.process not in ("poisson", "uniform"):
            raise ValueError(f"unknown arrival process {self.process!r}")
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


def _gap_block(expected: float) -> int:
    """Gaps to draw per block: four standard deviations over the expected
    count, so one block passes the duration for all but about one movement
    in 10^5."""
    return int(expected + 4.0 * expected**0.5) + 16


def _poisson_times(end: float, scale: float, rng: np.random.Generator) -> list[float]:
    """Arrivals from 0 with exponential gaps of mean ``scale``, up to but
    excluding ``end``.

    Bitwise the scalar loop ``t = gap(); while t < end: keep t; t += gap()``:
    the gaps are drawn in blocks and summed left to right by ``cumsum``, then
    the generator is rewound and advanced by exactly the draws that loop
    makes, the first time >= ``end`` included. A near-zero rate can make a
    sum overflow to inf; like the loop's float ``+=`` that is silent, and
    inf is past ``end``.
    """
    saved = rng.bit_generator.state
    block = _gap_block(end / scale)
    with np.errstate(over="ignore"):
        sums = np.cumsum(rng.exponential(scale, block))
        while sums[-1] < end:
            more = np.cumsum(np.concatenate((sums[-1:], rng.exponential(scale, block))))[1:]
            sums = np.concatenate((sums, more))
    kept = int(np.searchsorted(sums, end, side="left"))  # sums[kept] is the first >= end
    rng.bit_generator.state = saved
    rng.exponential(scale, kept + 1)
    return sums[:kept].tolist()


def _movement_times(spec: FlowSynthesisSpec, movement: int, rng: np.random.Generator) -> list[float]:
    rate = spec.rates[movement]
    if rate <= 0:
        return []
    if spec.process == "poisson":
        return _poisson_times(spec.duration, 3600.0 / rate, rng)
    times: list[float] = []
    spacing = 3600.0 / rate
    t = 0.0
    while t < spec.duration - 1e-9:
        times.append(t)
        t += spacing
    return times


def _synthesize(
    spec: FlowSynthesisSpec, entries: list[tuple[int, Route]], seed: int
) -> FlowSchedule:
    """Arrivals at every ``(movement, route)`` entry point, drawn in list order
    from one generator, then numbered in ``(time, movement, route)`` order."""
    rng = np.random.default_rng(seed)
    raw: list[tuple[float, int, Route]] = []
    for movement, route in entries:
        raw.extend((t, movement, route) for t in _movement_times(spec, movement, rng))
    raw.sort()
    times, _, routes = zip(*raw) if raw else ((), (), ())
    return FlowSchedule(tuple(range(len(raw))), times, routes)


def synthesize_flow(spec: FlowSynthesisSpec, seed: int) -> FlowSchedule:
    """Single-intersection schedule from a synthesis spec; deterministic per seed."""
    return _synthesize(spec, [(m, ((0, m),)) for m in range(len(spec.rates))], seed)


def synthesize_grid_flow(
    spec: FlowSynthesisSpec, rows: int, cols: int, seed: int
) -> FlowSchedule:
    """Grid schedule: through movements become straight boundary-to-boundary
    corridors; left-turn rates apply per intersection as single-hop side flows.

    Requires the standard 4-approach movement layout (N-T=0 .. W-L=7).
    """
    if len(spec.rates) != 8:
        raise ValueError("grid synthesis needs the 8-movement 4-approach layout")

    def inter_id(r: int, c: int) -> int:
        return r * cols + c

    # (movement, hops) per entry point; throughs cross the grid.
    entries: list[tuple[int, Route]] = []
    for c in range(cols):
        entries.append((0, tuple((inter_id(r, c), 0) for r in range(rows))))  # N->S
        entries.append((4, tuple((inter_id(r, c), 4) for r in reversed(range(rows)))))  # S->N
    for r in range(rows):
        entries.append((2, tuple((inter_id(r, c), 2) for c in reversed(range(cols)))))  # E->W
        entries.append((6, tuple((inter_id(r, c), 6) for c in range(cols))))  # W->E
    for movement in (1, 3, 5, 7):  # left turns: local side-street demand
        entries.extend((movement, ((k, movement),)) for k in range(rows * cols))
    return _synthesize(spec, entries, seed)


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
