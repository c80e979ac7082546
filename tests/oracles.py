"""Independent reference implementations used as test oracles.

Everything here is written straight-line, with explicit loops and no shared
code with the package internals, so that agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import math
from collections import deque

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
            hd = _relu(hd @ p_np["w_d0"] + p_np["b_d0"])
            hr = p_np["rel_emb"][int(table.relation[p, opp])]
            hr = _relu(hr @ p_np["w_r0"] + p_np["b_r0"])
            score = (hd * hr) @ p_np["w_out"] + p_np["b_out"]
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


def _rows_at(x, w):
    pad = -x.shape[0] % 4
    return (np.concatenate([x, np.zeros((pad, x.shape[1]))]) @ w)[: x.shape[0]] if pad else x @ w


def _relu_rows(x, w, b):
    out = _rows_at(x, w)
    out += b
    return np.maximum(out, 0.0, out=out)


def _relu_grads(g_out, x, out, w):
    g = g_out * (out > 0.0)
    return g @ w.T, x.T @ g, g.sum(axis=0)


def _selector(index, n):
    flat = index.ravel()
    out = np.zeros((flat.size, n))
    out[np.arange(flat.size), flat] = 1.0
    return out


def frap_dense_vjp(net, params, counts, bits):
    """(Q [B, P], VJP) of the FRAP network over all P(P-1) pair cells of
    every row, the VJP mapping a gradient of the full Q [B, P] to the
    parameter gradients. This is the dense kernel the taken-action mode
    replaced, op for op, so the taken Q and VJP must agree with it bitwise."""
    cfg, table, p = net.config, net.table, params
    n_ph, n_dem, n_ch = table.n_phases, cfg.demand_dim, cfg.conv_channels
    members = np.array([ph.members for ph in table.phases], dtype=np.int64)
    opponents = np.array([[q for q in range(n_ph) if q != pi] for pi in range(n_ph)])
    relation = np.take_along_axis(table.relation, opponents, axis=1)
    n_cells = relation.size
    counts = np.asarray(counts, dtype=np.float64).reshape(-1, table.n_movements)
    bits = np.asarray(bits, dtype=np.float64).reshape(-1, table.n_movements)
    batch = len(counts)
    xv = counts.T.reshape(-1, 1) / cfg.norm_capacity
    xs = bits.T.reshape(-1, 1)
    h = np.concatenate(
        [_relu_rows(xv, p["w_v"], p["b_v"]), _relu_rows(xs, p["w_s"], p["b_s"])], axis=1
    )
    d = _relu_rows(h, p["w_h"], p["b_h"])
    d3 = d.reshape(-1, batch, n_dem)
    dp = (d3[members[:, 0]] + d3[members[:, 1]]).reshape(-1, n_dem)
    hr = _relu_rows(p["rel_emb"], p["w_r0"], p["b_r0"])
    w_rel = hr * p["w_out"][:, 0]

    w0 = p["w_d0"]
    a = dp @ w0[:n_dem]
    a += p["b_d0"]
    bq = (dp @ w0[n_dem:]).reshape(n_ph, batch * n_ch)
    cells = bq.take(opponents.ravel(), axis=0).reshape(n_ph, -1, batch * n_ch)
    cells += a.reshape(n_ph, 1, batch * n_ch)
    hd = np.maximum(cells, 0.0, out=cells).reshape(-1, n_ch)
    by_kind = (hd @ w_rel.T).reshape(n_cells, batch, 2)
    scores = by_kind[np.arange(n_cells), :, relation.ravel()].reshape(n_ph, -1, batch)
    scores += p["b_out"][0]
    q = np.add.reduce(np.sort(scores.transpose(0, 2, 1), axis=2), axis=2).T

    def grads_of(gq):
        g = {}
        gs = np.broadcast_to(gq.T[:, None, :], scores.shape).reshape(n_cells, batch)
        g["b_out"] = np.array([gs.sum()])
        h3 = hd.reshape(n_cells, batch, n_ch)
        gh_cells = np.matmul(gs[:, None, :], h3).reshape(n_cells, n_ch)
        g_rel = _selector(relation, 2).T @ gh_cells
        g["w_out"] = (g_rel * hr).sum(axis=0)[:, None]
        g["rel_emb"], g["w_r0"], g["b_r0"] = _relu_grads(
            g_rel * p["w_out"][:, 0], p["rel_emb"], hr, p["w_r0"]
        )
        n_opp = n_cells // n_ph
        g_a = np.empty((n_ph, batch * n_ch))
        g_bq = np.zeros((n_ph, batch * n_ch))
        for ph in range(n_ph):
            own = slice(ph * n_opp, (ph + 1) * n_opp)
            rows = slice(own.start * batch, own.stop * batch)
            g_h = np.einsum("kb,kc->kbc", gs[own], w_rel[relation[ph]]).reshape(-1, n_ch)
            g_h *= hd[rows] > 0.0
            g_cells = g_h.reshape(n_opp, batch * n_ch)
            g_a[ph] = g_cells.sum(axis=0)
            g_bq[opponents[ph]] += g_cells
        g_a = g_a.reshape(-1, n_ch)
        g_bq = g_bq.reshape(-1, n_ch)
        g["w_d0"] = np.concatenate([dp.T @ g_a, dp.T @ g_bq])
        g["b_d0"] = g_a.sum(axis=0)
        g_dp = g_a @ w0[:n_dem].T + g_bq @ w0[n_dem:].T
        n_mov = table.n_movements
        member_of = _selector(members[:, 0], n_mov) + _selector(members[:, 1], n_mov)
        g_d = (member_of.T @ g_dp.reshape(n_ph, -1)).reshape(-1, n_dem)
        g_h, g["w_h"], g["b_h"] = _relu_grads(g_d, h, d, p["w_h"])
        n_hid = cfg.movement_hidden
        for br, x, c in (("v", xv, slice(None, n_hid)), ("s", xs, slice(n_hid, None))):
            _, g[f"w_{br}"], g[f"b_{br}"] = _relu_grads(g_h[:, c], x, h[:, c], p[f"w_{br}"])
        return g

    return q, grads_of


def vanilla_dense_vjp(net, params, counts, bits):
    """(Q [B, P], VJP) of the flat MLP, the VJP mapping a gradient of the
    full Q [B, P] to the parameter gradients."""
    n_layers = len(net.config.hidden)
    counts = np.asarray(counts, dtype=np.float64).reshape(-1, net.table.n_movements)
    bits = np.asarray(bits, dtype=np.float64).reshape(-1, net.table.n_movements)
    hs = [np.concatenate([counts / net.config.norm_capacity, bits], axis=1)]
    for i in range(n_layers):
        hs.append(_relu_rows(hs[-1], params[f"w{i}"], params[f"b{i}"]))
    q = _rows_at(hs[-1], params[f"w{n_layers}"]) + params[f"b{n_layers}"]

    def grads_of(g_out):
        grads = {}
        for i in reversed(range(n_layers + 1)):
            grads[f"w{i}"] = hs[i].T @ g_out
            grads[f"b{i}"] = g_out.sum(axis=0)
            if i:
                g_out = (g_out @ params[f"w{i}"].T) * (hs[i] > 0.0)
        return grads

    return q, grads_of


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


class TwoDequeSimOracle:
    """The grid simulator as two deques and a last-green stamp per movement.

    A stop-line queue holds at most ``lane_capacity`` vehicles and a waiting
    line holds the overflow upstream; after each discharge the waiting line
    refills the queue in FIFO order. A movement's service credit carries
    over only when it was green in the second before (its stamp), else it
    restarts at zero. ``step`` returns (per-intersection queue counts,
    rewards, done); ``on_second(oracle, now)`` runs after every second.
    """

    def __init__(self, config, table, flow, n_intersections, on_second=None):
        self.config = config
        self.flow = flow
        self.members = [ph.members for ph in table.phases]
        self.arrivals = [float(t) + config.approach_time for t in flow.entry_times]
        self.on_second = on_second
        k, m, n = n_intersections, table.n_movements, len(flow)
        self.clock = 0
        self.done = False
        self.current = [0] * k
        self.queues = [[deque() for _ in range(m)] for _ in range(k)]
        self.waiting = [[deque() for _ in range(m)] for _ in range(k)]
        self.acc = [[0.0] * m for _ in range(k)]
        self.last_green = [[-2] * m for _ in range(k)]
        self.hop = [0] * n
        self.queue_join = [None] * n
        self.exit = [None] * n
        self.next_entry = 0
        self.forwarded = deque()  # (arrival, vehicle)
        self.exited = 0
        self.intervals = [[] for _ in range(k)]

    def step(self, actions):
        cfg = self.config
        cap, headway = cfg.lane_capacity, cfg.saturation_headway
        first_green = [
            cfg.clearance if a != self.current[k] else 0 for k, a in enumerate(actions)
        ]
        self.current = list(actions)
        for i in range(cfg.decision_interval):
            s = self.clock + i
            while True:  # the earlier of the two streams' heads; an entry on a tie
                if self.next_entry < len(self.arrivals) and self.arrivals[self.next_entry] <= s:
                    if self.forwarded and self.forwarded[0][0] < self.arrivals[self.next_entry]:
                        v = self.forwarded.popleft()[1]
                    else:
                        v = self.next_entry
                        self.next_entry += 1
                elif self.forwarded and self.forwarded[0][0] <= s:
                    v = self.forwarded.popleft()[1]
                else:
                    break
                k, m = self.flow.routes[v][self.hop[v]]
                if len(self.queues[k][m]) < cap and not self.waiting[k][m]:
                    if self.queue_join[v] is None:
                        self.queue_join[v] = float(s)
                    self.queues[k][m].append(v)
                else:
                    self.waiting[k][m].append(v)
            for k, a in enumerate(actions):
                if i < first_green[k]:
                    continue
                for m in self.members[a]:
                    if self.last_green[k][m] == s - 1:
                        served = self.acc[k][m] + 1.0
                    else:
                        served = 1.0
                    self.last_green[k][m] = s
                    queue = self.queues[k][m]
                    if not queue:
                        self.acc[k][m] = 0.0
                        continue
                    if served < headway:
                        self.acc[k][m] = served
                        continue
                    while served >= headway and queue:
                        served -= headway
                        v = queue.popleft()
                        self.hop[v] += 1
                        if self.hop[v] == len(self.flow.routes[v]):
                            self.exit[v] = float(s + 1)
                            self.exited += 1
                        else:
                            self.forwarded.append((float(s + 1) + cfg.approach_time, v))
                    self.acc[k][m] = served
                    wait = self.waiting[k][m]
                    while wait and len(queue) < cap:
                        v = wait.popleft()
                        if self.queue_join[v] is None:
                            self.queue_join[v] = float(s)
                        queue.append(v)
            if self.on_second is not None:
                self.on_second(self, s + 1)
        self.clock += cfg.decision_interval
        self.done = self.clock >= cfg.episode_length
        counts, rewards = [], []
        for k, phase in enumerate(self.current):
            lens = [len(q) for q in self.queues[k]]
            reward = -(sum(lens) / len(lens))
            counts.append(lens)
            rewards.append(reward)
            self.intervals[k].append((float(self.clock), phase, reward, tuple(lens)))
        return counts, rewards, self.done

    def snapshot(self, now):
        """The simulator's conservation snapshot, counted one vehicle at a time."""
        entry_times = self.flow.entry_times
        on_approach = 0
        for _, v in self.forwarded:
            if entry_times[v] < now:
                on_approach += 1
        for t in entry_times[self.next_entry:]:
            if t < now:
                on_approach += 1
        return {
            "entered": sum(1 for t in entry_times if t < now),
            "in_queue": sum(len(q) for row in self.queues for q in row),
            "waiting": sum(len(w) for row in self.waiting for w in row),
            "on_approach": on_approach,
            "exited": self.exited,
        }

    def summary(self):
        """(avg_travel_time, exited, in_network, queue-join column, exit
        column, interval rows), with None for a time not reached yet: the
        summary of ``EpisodeMetrics`` and its records' fields."""
        entry_times = self.flow.entry_times
        travel = [x - t for x, t in zip(self.exit, entry_times) if x is not None]
        entered = sum(1 for t in entry_times if t < float(self.clock))
        return (
            float(np.mean(travel)) if travel else 0.0,
            self.exited,
            entered - self.exited,
            tuple(self.queue_join),
            tuple(self.exit),
            tuple(tuple(rows) for rows in self.intervals),
        )


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
