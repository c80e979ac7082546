"""Independent reference implementations used as test oracles.

Everything here is written straight-line, with explicit loops and no shared
code with the package internals, so that agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import math

import numpy as np


# --- geometry ------------------------------------------------------------------

def compatible_oracle(app1: int, turn1: int, app2: int, turn2: int, n_approaches: int) -> bool:
    """Geometric compatibility rule, re-stated independently."""
    if app1 == app2:
        return True
    if n_approaches % 2 == 0:
        opposite = (app1 + n_approaches // 2) % n_approaches == app2
        if opposite and turn1 == turn2:
            return True
    return False


def enumerate_phases_oracle(n_approaches: int) -> list[tuple[int, int]]:
    """All compatible movement pairs by exhaustive enumeration."""
    movements = [(a, t) for a in range(n_approaches) for t in (0, 1)]
    pairs = []
    for i in range(len(movements)):
        for j in range(i + 1, len(movements)):
            a1, t1 = movements[i]
            a2, t2 = movements[j]
            if compatible_oracle(a1, t1, a2, t2, n_approaches):
                pairs.append((i, j))
    return pairs


# --- networks -------------------------------------------------------------------

def _relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


def frap_reference(counts, bits, table, params, config) -> np.ndarray:
    """Straight-line recomputation of the phase-competition Q-values."""
    p_np = {k: np.asarray(v) for k, v in params.items()}
    n_mov = table.n_movements
    n_ph = table.n_phases
    demands = []
    for i in range(n_mov):
        hv = _relu(p_np["w_v"][0] * (counts[i] / config.norm_capacity) + p_np["b_v"])
        hs = _relu(p_np["w_s"][0] * bits[i] + p_np["b_s"])
        demands.append(_relu(np.concatenate([hv, hs]) @ p_np["w_h"] + p_np["b_h"]))
    phase_demand = []
    for ph in table.phases:
        i, j = ph.members
        phase_demand.append(demands[i] + demands[j])
    q = np.zeros(n_ph)
    for p in range(n_ph):
        total = 0.0
        for opp in range(n_ph):
            if opp == p:
                continue
            hd = np.concatenate([phase_demand[p], phase_demand[opp]])
            hr = p_np["rel_emb"][int(table.relation[p, opp])]
            for k in range(config.conv_layers):
                hd = _relu(hd @ p_np[f"w_d{k}"] + p_np[f"b_d{k}"])
                hr = _relu(hr @ p_np[f"w_r{k}"] + p_np[f"b_r{k}"])
            score = (hd * hr) @ p_np["w_out"] + p_np["b_out"]
            if config.output_relu:
                score = _relu(score)
            total += score[0]
        q[p] = total
    return q


def vanilla_reference(counts, bits, table, params, config) -> np.ndarray:
    p_np = {k: np.asarray(v) for k, v in params.items()}
    x = np.concatenate([np.asarray(counts, dtype=float) / config.norm_capacity, bits])
    h = x
    for i in range(len(config.hidden)):
        h = _relu(h @ p_np[f"w{i}"] + p_np[f"b{i}"])
    last = len(config.hidden)
    return h @ p_np[f"w{last}"] + p_np[f"b{last}"]


# --- differentiation -------------------------------------------------------------

def finite_difference_grads(f, params, eps: float = 1e-3) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar function of named arrays.

    ``f`` is called with a dict of plain float64 arrays and must return a float.
    """
    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    grads = {}
    for name in base:
        flat = base[name].ravel()
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f(base)
            flat[i] = orig - eps
            down = f(base)
            flat[i] = orig
            g[i] = (up - down) / (2.0 * eps)
        grads[name] = g.reshape(base[name].shape)
    return grads


def finite_difference_grads_filtered(f, params, eps: float = 1e-3):
    """Central differences at two step sizes, flagging unreliable coordinates.

    Where the eps and eps/2 estimates disagree, the probe bracketed a ReLU
    kink and the difference quotient does not estimate the derivative; those
    coordinates are masked out. Returns (grads, reliable_masks).
    """
    coarse = finite_difference_grads(f, params, eps)
    fine = finite_difference_grads(f, params, eps / 2.0)
    grads, masks = {}, {}
    for name in coarse:
        a, b = coarse[name], fine[name]
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        masks[name] = np.abs(a - b) <= 1e-3 * scale
        grads[name] = fine[name]
    return grads, masks


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = max(np.max(np.abs(approx)), np.max(np.abs(exact)), 1e-8)
    return float(np.max(np.abs(approx - exact)) / scale)


def masked_relative_error(approx: np.ndarray, exact: np.ndarray, mask: np.ndarray) -> float:
    if not np.any(mask):
        return 0.0
    scale = max(np.max(np.abs(approx[mask])), np.max(np.abs(exact[mask])), 1e-8)
    return float(np.max(np.abs(approx[mask] - exact[mask])) / scale)


def adam_reference(p0: float, grads: list[float], lr: float,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> float:
    """Hand recurrence for scalar Adam."""
    m = v = 0.0
    p = p0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


# --- queueing ---------------------------------------------------------------------

def always_green_departures(stop_line_times: list[float], headway: float) -> list[float]:
    """Departure times for one always-green FIFO queue (Lindley-style recursion).

    A vehicle reaching the stop line at time a is available from the first
    whole second >= a; within a busy period starting at tick T, the j-th
    departure happens once j*headway seconds of service have accumulated.
    """
    departures: list[float] = []
    busy_start = None
    served = 0
    for a in stop_line_times:
        tick = math.ceil(a)
        if busy_start is None or tick >= departures[-1]:
            busy_start = tick  # queue was empty: service restarts here
            served = 0
        served += 1
        n_ticks = served * headway
        n_ticks = math.ceil(n_ticks - 1e-12)
        departures.append(busy_start + n_ticks)
    return departures


def episode_summary_oracle(vehicles, clock: float, episode_length: float):
    """(avg_travel_time, exited_count, in_network_count, censored travel time)
    recomputed from per-vehicle records, one record at a time.

    The exited mean is numpy's mean over exited vehicles in record order, and
    the censored mean sums left to right: the same float operations in the
    same order as the simulator and the trainer, so agreement is bitwise.
    """
    travel = []
    entered = 0
    censored_total = 0.0
    censored_count = 0
    for r in vehicles:
        if r.entry < clock:
            entered += 1
        if r.exit is not None:
            travel.append(r.exit - r.entry)
            censored_total += r.exit - r.entry
            censored_count += 1
        elif r.entry < episode_length:
            censored_total += episode_length - r.entry
            censored_count += 1
    avg = float(np.mean(travel)) if travel else 0.0
    censored = censored_total / censored_count if censored_count else 0.0
    return avg, len(travel), entered - len(travel), censored


# --- replay --------------------------------------------------------------------

class SequentialReplayOracle:
    """A prioritized ring buffer that takes a block's rows one at a time.

    Each row goes to the next ring slot at the largest raw priority stored
    then (1 when empty), with mass ``priority ** alpha`` as a Python float.
    The occupied slots double from ``first_slots`` up to ``capacity`` as the
    next row reaches them.
    """

    def __init__(self, capacity: int, alpha: float, first_slots: int):
        self.capacity = capacity
        self.alpha = alpha
        self.slots = min(capacity, first_slots)
        self.priority = np.zeros(capacity)  # raw priority by slot
        self.mass = np.zeros(capacity)  # sampling mass by slot
        self.columns = None  # one float64 array of ``capacity`` rows per field
        self.size = 0
        self.next = 0

    def __len__(self) -> int:
        return self.size

    def add(self, block) -> None:
        if self.columns is None:
            self.columns = [np.zeros((self.capacity,) + np.shape(c)[1:]) for c in block]
        for j in range(len(block.action)):
            priority = float(self.priority[: self.size].max()) if self.size else 1.0
            slot = self.next
            if slot == self.slots:
                self.slots = min(self.capacity, 2 * self.slots)
            for column, values in zip(self.columns, block):
                column[slot] = values[j]
            self.priority[slot] = priority
            self.mass[slot] = priority**self.alpha
            self.next = (slot + 1) % self.capacity
            self.size = min(self.size + 1, self.capacity)

    def update_priorities(self, indices, priorities) -> None:
        """The buffer's own update: numpy's power gives the new masses."""
        priorities = np.asarray(priorities, dtype=np.float64)
        self.priority[indices] = priorities
        self.mass[indices] = priorities**self.alpha


# --- flows and classical control ------------------------------------------------

def movement_times_oracle(spec, movement: int, rng: np.random.Generator) -> list[float]:
    """Arrival times of one movement, one scalar exponential draw per gap."""
    times: list[float] = []
    rate = spec.rates[movement]
    if rate <= 0:
        return times
    if spec.process == "uniform":
        t = 0.0
        while t < spec.duration - 1e-9:
            times.append(t)
            t += 3600.0 / rate
    else:
        t = rng.exponential(3600.0 / rate)
        while t < spec.duration:
            times.append(t)
            t += rng.exponential(3600.0 / rate)
    return times


class SOTLOracle:
    """The self-organizing threshold rule, one queue count at a time: after
    ``t_min`` seconds on the current phase, switch to the phase with the
    largest queue sum (lowest index on ties) once the queues outside the
    current phase exceed ``theta``."""

    def __init__(self, table, theta, t_min, decision_interval):
        self.table = table
        self.theta = theta
        self.t_min = t_min
        self.decision_interval = decision_interval
        self.elapsed = 0.0
        self.current = None

    def __call__(self, state) -> int:
        if self.current is None:
            self.current = state.phase_index
        green = set(self.table.phases[self.current].members)
        if self.elapsed >= self.t_min:
            red_wait = 0
            for m in range(len(state.counts)):
                if m not in green:
                    red_wait += int(state.counts[m])
            if red_wait > self.theta:
                best, best_sum = 0, None
                for phase in self.table.phases:
                    total = sum(int(state.counts[m]) for m in phase.members)
                    if best_sum is None or total > best_sum:
                        best, best_sum = phase.index, total
                if best != self.current:
                    self.current = best
                    self.elapsed = self.decision_interval
                    return best
        self.elapsed += self.decision_interval
        return self.current
