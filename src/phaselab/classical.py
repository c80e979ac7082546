"""Non-learning baseline controllers: fixed-time plans, Webster splits, SOTL."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flows import FlowSchedule
from .simulator import SimConfig, run_grid_controller
from .state import TrafficState
from .topology import PhaseTable

MIN_GREEN = 5.0  # s


@dataclass(frozen=True)
class FixedPlan:
    """Ordered (phase index, green seconds) cycle; each phase appears once."""

    items: tuple[tuple[int, float], ...]
    clearance: float = 5.0  # charged per phase switch

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("plan must contain at least one phase")
        phases = [p for p, _ in self.items]
        if len(set(phases)) != len(phases):
            raise ValueError("plan phases must be unique")
        if any(g < MIN_GREEN for _, g in self.items):
            raise ValueError(f"green durations must be >= {MIN_GREEN}s")

    @property
    def cycle_length(self) -> float:
        lost = self.clearance * len(self.items) if len(self.items) > 1 else 0.0
        return sum(g for _, g in self.items) + lost


class FixedTimeController:
    """Cycles through a plan purely as a function of elapsed time."""

    def __init__(self, plan: FixedPlan, decision_interval: float):
        self.plan = plan
        self.decision_interval = decision_interval
        bounds = []
        t = 0.0
        step = plan.clearance if len(plan.items) > 1 else 0.0
        for phase, green in plan.items:
            t += step + green
            bounds.append((t, phase))
        self._bounds = bounds
        self._cycle = t
        self._decisions = 0

    def reset(self) -> None:
        self._decisions = 0

    def __call__(self, state: TrafficState) -> int:
        t = (self._decisions * self.decision_interval) % self._cycle
        self._decisions += 1
        for end, phase in self._bounds:
            if t < end:
                return phase
        return self._bounds[-1][1]


def equal_split_plan(cycle: float, phase_indices: Sequence[int], clearance: float = 5.0) -> FixedPlan:
    n = len(phase_indices)
    green = (cycle - clearance * n) / n
    return FixedPlan(items=tuple((p, green) for p in phase_indices), clearance=clearance)


def fixedtime_grid_search(
    cycles: Sequence[float],
    phase_indices: Sequence[int],
    config: SimConfig,
    table: PhaseTable,
    flow: FlowSchedule,
    seed: int = 0,
    clearance: float = 5.0,
    n_intersections: int = 1,
) -> tuple[FixedPlan, float]:
    """Best equal-split plan over the candidate cycle lengths.

    Cycles too short to give every phase the minimum green are skipped; the
    calibration episode runs the plan at each of ``n_intersections``
    intersections on the given flow, and ties keep the first cycle.
    """
    best: tuple[FixedPlan, float] | None = None
    for cycle in cycles:
        n = len(phase_indices)
        if (cycle - clearance * n) / n < MIN_GREEN:
            continue
        plan = equal_split_plan(cycle, phase_indices, clearance)
        controllers = [
            FixedTimeController(plan, config.decision_interval) for _ in range(n_intersections)
        ]
        metrics = run_grid_controller(controllers, config, table, flow, seed)
        if best is None or metrics.avg_travel_time < best[1]:
            best = (plan, metrics.avg_travel_time)
    if best is None:
        raise ValueError("no candidate cycle can fit the minimum green")
    return best


def webster_plan(
    volumes: Sequence[float],
    table: PhaseTable,
    phase_indices: Sequence[int] | None = None,
    saturation_headway: float = 2.0,
    clearance: float = 5.0,
    max_cycle: float = 180.0,
) -> FixedPlan:
    """Webster fixed-time plan from per-movement volumes (veh/h).

    Cycle C = (1.5 L + 5) / (1 - Y) with L the lost time (clearance per phase)
    and Y the sum of critical flow ratios; C is clamped so every phase fits the
    minimum green and never exceeds ``max_cycle`` (forced there when Y >= 0.95).
    Greens split the effective cycle proportionally to critical volumes.
    """
    volumes = np.asarray(volumes, dtype=np.float64)
    if volumes.shape != (table.n_movements,) or np.any(volumes < 0):
        raise ValueError(f"need {table.n_movements} non-negative volumes")
    if phase_indices is None:
        pairs = table.opposite_pair_phases()
        phase_indices = pairs if pairs else tuple(range(table.n_phases))
    n = len(phase_indices)
    critical = np.array(
        [max(volumes[m] for m in table.phases[p].members) for p in phase_indices]
    )

    lost = clearance * n
    min_cycle = lost + MIN_GREEN * n
    if critical.sum() <= 0:
        return equal_split_plan(max(40.0, min_cycle), phase_indices, clearance)

    saturation_flow = 3600.0 / saturation_headway  # veh/h per movement
    y = float((critical / saturation_flow).sum())
    if y >= 0.95:
        cycle = max_cycle
    else:
        cycle = (1.5 * lost + 5.0) / (1.0 - y)
    cycle = float(np.clip(cycle, min_cycle, max_cycle))

    effective = cycle - lost
    greens = effective * critical / critical.sum()
    # Lift any share below the minimum green and re-split the remainder.
    floored = greens < MIN_GREEN
    while np.any(floored) and not np.all(floored):
        remainder = effective - MIN_GREEN * floored.sum()
        greens = np.where(floored, MIN_GREEN, 0.0)
        free = ~floored
        greens[free] = remainder * critical[free] / critical[free].sum()
        newly = (greens < MIN_GREEN) & free
        if not np.any(newly):
            break
        floored |= newly
    greens = np.maximum(greens, MIN_GREEN)
    return FixedPlan(
        items=tuple((p, float(g)) for p, g in zip(phase_indices, greens)), clearance=clearance
    )


def formula_controller(
    volumes: Sequence[float],
    table: PhaseTable,
    decision_interval: float,
    saturation_headway: float = 2.0,
    clearance: float = 5.0,
) -> FixedTimeController:
    """Fixed-time controller running the Webster plan for the given volumes."""
    plan = webster_plan(
        volumes, table, saturation_headway=saturation_headway, clearance=clearance
    )
    return FixedTimeController(plan, decision_interval)


class SOTLController:
    """Threshold rule: keep the phase for a minimum green, then switch to the
    highest-demand phase once the red-side queue total exceeds theta.

    Inputs are queue counts only, so the rule commutes with symmetry ops.
    """

    def __init__(self, table: PhaseTable, theta: float, t_min: float, decision_interval: float):
        if theta <= 0:
            raise ValueError("theta must be positive")
        if t_min < decision_interval:
            raise ValueError("t_min must cover at least one decision interval")
        self.table = table
        self.theta = theta
        self.t_min = t_min
        self.decision_interval = decision_interval
        self._members = [ph.members for ph in table.phases]
        self._elapsed = 0.0
        self._current: int | None = None

    def reset(self) -> None:
        self._elapsed = 0.0
        self._current = None

    def __call__(self, state: TrafficState) -> int:
        if self._current is None:
            self._current = state.phase_index if state.phase_index >= 0 else 0
        current = self._current
        if self._elapsed >= self.t_min:
            counts = state.counts.tolist()
            i, j = self._members[current]  # two distinct movements
            red_wait = sum(counts) - counts[i] - counts[j]
            if red_wait > self.theta:
                sums = [counts[a] + counts[b] for a, b in self._members]
                candidate = sums.index(max(sums))  # ties resolve to the lowest index
                if candidate != current:
                    self._current = candidate
                    self._elapsed = self.decision_interval
                    return candidate
        self._elapsed += self.decision_interval
        return current
