"""DQN training: Bellman targets, prioritized learner, and exploration actors.

N actors run epsilon-greedy episodes on private K-intersection simulators and
push transitions into a sink; each intersection has one learner that stores
its share in a prioritized buffer, samples batches, applies Adam on an
importance-weighted Huber loss, and periodically syncs the target network and publishes
parameter snapshots the actors pick up. A single intersection is the K = 1
case.

Training runs on one thread on a fixed schedule and is bit-reproducible:
each round, all actors decide in lockstep (one batched forward per
intersection), then every learner steps once. Replay keeps transitions as
rows of arrays, so a learner step gathers its batch with one index per
array. Parameters are plain arrays by name, and every snapshot is a copy.
A learner step runs the online forward with its VJP and hands both to
``numerics.backward``, which returns the loss and the gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import numerics as nm
from .numerics import Params
from .replay import PrioritizedReplayBuffer
from .simulator import GridSim
from .state import TrafficState


@dataclass
class Transition:
    state: TrafficState
    action: int
    reward: float
    next_state: TrafficState
    done: bool


class Batch(NamedTuple):
    """Transitions as rows: counts and signal bits [B, M] (float64), action
    [B] (int64), reward and not-done (1.0 unless terminal) [B] (float64)."""

    counts: np.ndarray
    bits: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_counts: np.ndarray
    next_bits: np.ndarray
    not_done: np.ndarray


def stack_transitions(transitions: Sequence[Transition]) -> Batch:
    """The rows of a list of transitions, as a replay buffer holds them."""

    def rows(arrays) -> np.ndarray:
        return np.stack(list(arrays)).astype(np.float64)

    return Batch(
        counts=rows(t.state.counts for t in transitions),
        bits=rows(t.state.signal_bits for t in transitions),
        action=np.array([t.action for t in transitions], dtype=np.int64),
        reward=np.array([t.reward for t in transitions], dtype=np.float64),
        next_counts=rows(t.next_state.counts for t in transitions),
        next_bits=rows(t.next_state.signal_bits for t in transitions),
        not_done=np.array([0.0 if t.done else 1.0 for t in transitions]),
    )


class TransitionReplay(PrioritizedReplayBuffer):
    """Prioritized replay keeping each transition as one row of the
    :class:`Batch` arrays, so ``sample`` returns a Batch gathered with one
    fancy index per array. The arrays grow with the buffer's slots, doubling
    up to ``capacity``, never to it up front."""

    def __init__(self, capacity: int, alpha: float = 0.6):
        super().__init__(capacity, alpha)
        self._rows: Batch | None = None

    def _store(self, slot: int, t: Transition) -> None:
        if self._rows is None:
            self._rows = self._allocate(self._slots, t.state.n_movements)
        rows = self._rows
        rows.counts[slot] = t.state.counts
        rows.bits[slot] = t.state.signal_bits
        rows.action[slot] = t.action
        rows.reward[slot] = t.reward
        rows.next_counts[slot] = t.next_state.counts
        rows.next_bits[slot] = t.next_state.signal_bits
        rows.not_done[slot] = 0.0 if t.done else 1.0

    def _grow(self, slots: int) -> None:
        super()._grow(slots)
        if self._rows is not None:
            old = self._rows
            self._rows = self._allocate(slots, old.counts.shape[1])
            for new, column in zip(self._rows, old):
                new[: len(column)] = column

    @staticmethod
    def _allocate(size: int, n_movements: int) -> Batch:
        return Batch(
            counts=np.empty((size, n_movements)),
            bits=np.empty((size, n_movements)),
            action=np.empty(size, dtype=np.int64),
            reward=np.empty(size),
            next_counts=np.empty((size, n_movements)),
            next_bits=np.empty((size, n_movements)),
            not_done=np.empty(size),
        )

    def _gather(self, indices: np.ndarray) -> Batch:
        return Batch(*(column[indices] for column in self._rows))


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.95
    batch_size: int = 64
    buffer_capacity: int = 200_000
    target_sync: int = 500  # learner steps between target copies
    alpha: float = 0.6  # priority exponent
    beta_start: float = 0.4  # IS exponent, annealed linearly to beta_end
    beta_end: float = 1.0
    epsilon: float = 0.4  # base exploration rate
    alpha_eps: float = 7.0  # per-actor exponent spread
    n_actors: int = 4
    lr: float = 1e-3
    lr_end: float | None = None  # exponential decay target over the step budget
    priority_eps: float = 1e-3
    double_dqn: bool = True
    max_learner_steps: int = 10_000
    warmup_transitions: int = 500
    eval_period: int = 500
    snapshot_period: int = 10  # actor decisions between snapshot refreshes
    # The only schedule; False is rejected by train(). Kept because callers
    # such as the benchmark's workloads still pass sync=True.
    sync: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.n_actors < 1:
            raise ValueError("need at least one actor")
        # Zero fails mid-run (a modulo by zero, empty batches).
        positive = ("batch_size", "target_sync", "eval_period", "snapshot_period")
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.priority_eps > 0.0:  # replay rejects the zero priority of a zero TD error
            raise ValueError("priority_eps must be positive")
        if self.buffer_capacity < max(self.warmup_transitions, self.batch_size):
            # warm-up waits for that many transitions, which the buffer never holds
            raise ValueError("buffer_capacity must hold max(warmup_transitions, batch_size)")

    def beta(self, step: int) -> float:
        frac = min(1.0, step / max(1, self.max_learner_steps))
        return self.beta_start + (self.beta_end - self.beta_start) * frac

    def learning_rate(self, step: int) -> float:
        if self.lr_end is None:
            return self.lr
        frac = min(1.0, step / max(1, self.max_learner_steps))
        return float(self.lr * (self.lr_end / self.lr) ** frac)

    def actor_epsilon(self, actor_id: int) -> float:
        if self.n_actors == 1:
            return self.epsilon
        exponent = 1.0 + actor_id * self.alpha_eps / (self.n_actors - 1)
        return self.epsilon**exponent


def td_targets(
    batch: Batch,
    network,
    online_params: Params,
    target_params: Params,
    gamma: float,
    double_dqn: bool,
) -> np.ndarray:
    """TD targets of a batch of rows.

    target = r for terminal transitions, else r + gamma * Q_target(s', a*),
    where a* is the online argmax (double-DQN) or the target argmax.
    """
    q_target_next = network.forward(target_params, batch.next_counts, batch.next_bits)
    if double_dqn:
        q_online_next = network.forward(online_params, batch.next_counts, batch.next_bits)
        best = np.argmax(q_online_next, axis=1)
    else:
        best = np.argmax(q_target_next, axis=1)
    boot = q_target_next[np.arange(len(best)), best]
    return batch.reward + gamma * batch.not_done * boot


def bellman_targets(
    batch: Sequence[Transition],
    network,
    online_params: Params,
    target_params: Params,
    gamma: float,
    double_dqn: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-item TD targets (see :func:`td_targets`) and TD errors."""
    rows = stack_transitions(batch)
    targets = td_targets(rows, network, online_params, target_params, gamma, double_dqn)
    q_now = network.forward(online_params, rows.counts, rows.bits)
    return targets, targets - q_now[np.arange(len(batch)), rows.action]


class Learner:
    """Owns the online/target parameters and the prioritized buffer of rows."""

    def __init__(
        self,
        network,
        params: Params,
        config: TrainConfig,
        buffer: TransitionReplay,
        rng: np.random.Generator,
    ):
        self.network = network
        self.config = config
        self.buffer = buffer
        self.rng = rng
        self.online = dict(params)
        self.target = self.snapshot()
        self.adam = nm.adam_init(self.online)
        self.step_count = 0

    def snapshot(self) -> Params:
        return {k: v.copy() for k, v in self.online.items()}

    def step(self) -> float:
        cfg = self.config
        indices, batch, weights = self.buffer.sample(
            cfg.batch_size, cfg.beta(self.step_count), self.rng
        )
        targets = td_targets(
            batch, self.network, self.online, self.target, cfg.gamma, cfg.double_dqn
        )
        q, vjp = self.network.forward(self.online, batch.counts, batch.bits, vjp=True)
        loss, grads = nm.backward(vjp, q, batch.action, targets, weights)
        td_errors = targets - q[np.arange(len(q)), batch.action]
        self.online = nm.adam_update(
            self.online, grads, self.adam, lr=cfg.learning_rate(self.step_count)
        )
        self.buffer.update_priorities(indices, np.abs(td_errors) + cfg.priority_eps)
        self.step_count += 1
        if self.step_count % cfg.target_sync == 0:
            self.target = self.snapshot()
        return loss


class EpsilonGreedyPolicy:
    """Epsilon-greedy over the Q-values of a (refreshable) parameter snapshot."""

    def __init__(self, network, params: Params, epsilon: float, rng: np.random.Generator):
        self.network = network
        self.params = params
        self.epsilon = epsilon
        self.rng = rng

    def __call__(self, state: TrafficState, q: np.ndarray | None = None) -> int:
        """Act on ``state``; ``q``, if given, is its precomputed Q row under
        ``params``. The rng draws are the same either way."""
        if self.epsilon > 0.0 and self.rng.random() < self.epsilon:
            return int(self.rng.integers(self.network.n_actions))
        if q is None:
            q = self.network.q_values(self.params, state)
        return int(np.argmax(q))


class GreedyPolicy:
    """Greedy evaluation policy with symmetry-respecting tie-breaking.

    Exact Q ties are structural here: phases whose members carry identical
    (count, signal) features score identically, and breaking such ties by
    phase index does not commute with intersection symmetries, which would
    spoil transfer evaluations. Ties are broken by member queue content, then
    by keeping the current phase; both keys permute along with the state. The
    raw index only decides between phases the state cannot distinguish.

    Setting ``params`` prepares their single-state constants and clears the
    action memo, which holds one entry per distinct state seen.
    """

    def __init__(self, network, params: Params):
        self.network = network
        self.params = params
        table = network.table
        self._members = []
        self._cross_approach = []
        for ph in table.phases:
            i, j = ph.members
            mi, mj = table.movements[i], table.movements[j]
            if mi.approach == mj.approach:
                # same-approach pair: through before left is symmetry-stable
                ordered = (i, j) if mi.turn < mj.turn else (j, i)
                self._cross_approach.append(False)
                self._members.append(ordered)
            else:
                self._cross_approach.append(True)
                self._members.append((i, j))

    @property
    def params(self) -> Params:
        return self._params

    @params.setter
    def params(self, params: Params) -> None:
        """New parameters: prepare their single-state constants, drop the memo."""
        self._params = params
        self._prepared = self.network.prepare(params)
        self._memo: dict[tuple[bytes, bytes, int], int] = {}

    def _tie_key(self, p: int, state: TrafficState):
        i, j = self._members[p]
        fi = (-int(state.counts[i]), -int(state.signal_bits[i]))
        fj = (-int(state.counts[j]), -int(state.signal_bits[j]))
        if self._cross_approach[p]:
            # members share a turn type; order by features instead
            fi, fj = min(fi, fj), max(fi, fj)
        total = int(state.counts[i] + state.counts[j])
        return (-total, self._cross_approach[p], fi, fj, p != state.phase_index, p)

    def __call__(self, state: TrafficState) -> int:
        """The action for ``state``. Q and ``_tie_key`` depend only on the
        counts, signal bits and phase index, so the action is memoized on
        them; Q is computed once per distinct state."""
        key = (state.counts.tobytes(), state.signal_bits.tobytes(), state.phase_index)
        action = self._memo.get(key)
        if action is None:
            q = self.network.q_values(self.params, state, self._prepared)
            best = np.flatnonzero(q == q.max())
            if len(best) == 1:
                action = int(best[0])
            else:
                action = int(min(best, key=lambda p: self._tie_key(int(p), state)))
            self._memo[key] = action
        return action


class Actor:
    """Runs epsilon-greedy episodes on private simulators, emitting transitions.

    ``env_factory(actor_id, episode)`` must build a fresh K-intersection
    simulator (a GridSim; an IntersectionSim is K = 1). ``snapshot_fn()``
    returns one parameter set per intersection and is polled every
    ``snapshot_period`` decisions. Each decision acts at every intersection
    and hands ``sink`` the list of its K transitions. A decision is the
    one-actor case of :func:`decision_round`.
    """

    def __init__(
        self,
        actor_id: int,
        network,
        epsilon: float,
        env_factory: Callable[[int, int], GridSim],
        snapshot_fn: Callable[[], list[Params]],
        sink: Callable[[list[Transition]], None],
        seed: int,
        snapshot_period: int = 10,
    ):
        self.actor_id = actor_id
        self.network = network
        self.env_factory = env_factory
        self.snapshot_fn = snapshot_fn
        self.sink = sink
        self.snapshot_period = snapshot_period
        rng = np.random.default_rng(seed)  # shared by the K policies, in order
        self.policies = [EpsilonGreedyPolicy(network, p, epsilon, rng) for p in snapshot_fn()]
        self.episode = 0
        self.decisions = 0
        self._sim: GridSim | None = None
        self._states: list[TrafficState] | None = None

    def _act(self, q_rows: Sequence[np.ndarray]) -> None:
        """Pick from the Q rows of the current states, step, push, advance."""
        actions = [p(s, q) for p, s, q in zip(self.policies, self._states, q_rows)]
        next_states, rewards, done = self._sim.step(actions)
        self.sink([
            Transition(state=s, action=a, reward=r, next_state=s2, done=done)
            for s, a, r, s2 in zip(self._states, actions, rewards, next_states)
        ])
        self.decisions += 1
        if done:
            self.episode += 1
            self._sim = None
            self._states = None
        else:
            self._states = next_states


# States per forward in a decision round. Row i of a forward is bitwise the
# single-state Q of state i only up to some batch size, which depends on the
# BLAS kernels (FRAP rows diverge at B = 512 on OpenBLAS 0.3.31);
# test_batched_row_is_the_single_state_q pins B <= 64.
ROUND_BLOCK = 64


def decision_round(actors: Sequence[Actor]) -> None:
    """One decision of every actor, in lockstep.

    Actors without an episode start one, and actors due a refresh take new
    parameters, one snapshot per ``snapshot_fn`` however many actors poll
    it. Then batched forwards of up to ``ROUND_BLOCK`` states (one, for up
    to 64 actors) score every actor's state at each intersection, explorers
    included; the actors must hold one parameter set per
    intersection, as actors sharing a ``snapshot_fn`` and its period do.
    Last, each actor's policies pick from their Q rows, drawing from the
    actor's rng as a lone actor would, and its simulator steps. Row i of a
    batched forward is bitwise the Q-values of state i alone, so a round
    gives the same actions, transitions and rng states as the actors
    deciding one at a time.
    """
    fresh: dict[Callable, list[Params]] = {}
    for actor in actors:
        if actor._sim is None:
            actor._sim = actor.env_factory(actor.actor_id, actor.episode)
            actor._states = actor._sim.states()
        if actor.decisions % actor.snapshot_period == 0:
            fn = actor.snapshot_fn
            if fn not in fresh:
                fresh[fn] = fn()
            for policy, params in zip(actor.policies, fresh[fn]):
                policy.params = params
    q_by_intersection = []
    for k, policy in enumerate(actors[0].policies):
        if any(actor.policies[k].params is not policy.params for actor in actors):
            raise ValueError("actors in one round must hold the same parameters")
        counts = np.stack([actor._states[k].counts for actor in actors])
        bits = np.stack([actor._states[k].signal_bits for actor in actors])
        q_by_intersection.append(np.concatenate([
            policy.network.forward(
                policy.params, counts[i : i + ROUND_BLOCK], bits[i : i + ROUND_BLOCK]
            )
            for i in range(0, len(actors), ROUND_BLOCK)
        ]))
    for i, actor in enumerate(actors):
        actor._act([q[i] for q in q_by_intersection])


@dataclass(frozen=True)
class CurvePoint:
    learner_step: int
    eval_travel_time: float
    exited_count: int
    censored_travel_time: float = 0.0  # counts stranded vehicles; ranking metric


def censored_travel_time(metrics, episode_length: float) -> float:
    """Mean travel time with still-in-network vehicles charged up to episode end.

    The exited-only average rewards starving low-priority movements; charging
    every vehicle at least its time in the network so far removes that loophole
    when ranking checkpoints.
    """
    total = 0.0
    count = 0
    for r in metrics.vehicles:
        if r.exit is not None:
            total += r.exit - r.entry
            count += 1
        elif r.entry < episode_length:
            total += episode_length - r.entry
            count += 1
    return total / count if count else 0.0


@dataclass
class TrainResult:
    """Outcome of a run. ``best`` and ``final`` hold one parameter set per
    intersection; ``best_params`` and ``final_params`` are the single set of a
    one-intersection run."""

    best: list[Params]
    best_travel_time: float
    best_step: int
    curve: list[CurvePoint] = field(default_factory=list)
    final: list[Params] = field(default_factory=list)

    @property
    def best_params(self) -> Params:
        (params,) = self.best
        return params

    @property
    def final_params(self) -> Params:
        (params,) = self.final
        return params


def write_curve_csv(curve: Sequence[CurvePoint], path: str | Path) -> Path:
    path = Path(path)
    lines = ["learner_step,eval_travel_time,exited_count,censored_travel_time"]
    for p in curve:
        lines.append(
            f"{p.learner_step},{format(p.eval_travel_time, '.6g')},{p.exited_count},"
            f"{format(p.censored_travel_time, '.6g')}"
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def train(
    network,
    config: TrainConfig,
    env_factory: Callable[[int, int], GridSim],
    eval_factory: Callable[[], GridSim],
    seed: int = 0,
    progress: Callable[[int, float], None] | None = None,
) -> TrainResult:
    """Full actor/learner training run; returns the best-by-eval parameters.

    The factories build K-intersection simulators, K read from the first
    evaluation environment. Intersection k gets its own learner, replay
    buffer and parameters (seeds ``seed + 101 k`` and ``seed + 17 k + 1``),
    so K = 1 is the single-intersection run. Every ``eval_period`` learner
    steps (plus step 0 and the final step) a greedy episode runs on a fresh
    evaluation environment and its travel time is appended to the learning
    curve. Training runs on the synchronous schedule of :func:`decision_round`
    rounds, each followed by one step of every learner; ``config.sync`` must
    be True.
    """
    if not config.sync:
        raise ValueError(
            "threaded training was removed; the synchronous schedule is the only one"
        )
    first_eval = eval_factory()
    n = first_eval.n_intersections
    learners = [
        Learner(
            network,
            network.init_params(seed + 101 * k),
            config,
            TransitionReplay(config.buffer_capacity, config.alpha),
            np.random.default_rng(seed + 17 * k + 1),
        )
        for k in range(n)
    ]
    result = TrainResult(
        best=[l.snapshot() for l in learners], best_travel_time=np.inf, best_step=0
    )

    def evaluate(step: int, sim: GridSim | None = None) -> None:
        sim = eval_factory() if sim is None else sim
        states = sim.states()
        policies = [GreedyPolicy(network, l.snapshot()) for l in learners]
        done = False
        while not done:
            states, _, done = sim.step([p(s) for p, s in zip(policies, states)])
        m = sim.metrics()
        censored = censored_travel_time(m, sim.config.episode_length)
        result.curve.append(
            CurvePoint(
                learner_step=step,
                eval_travel_time=m.avg_travel_time,
                exited_count=m.exited_count,
                censored_travel_time=censored,
            )
        )
        if censored < result.best_travel_time:
            result.best_travel_time = censored
            result.best_step = step
            result.best = [p.params for p in policies]
        if progress is not None:
            progress(step, censored)

    evaluate(0, first_eval)
    if config.max_learner_steps > 0:
        _train_sync(network, config, env_factory, learners, evaluate, seed)
        if learners[0].step_count % config.eval_period != 0:
            evaluate(learners[0].step_count)
    result.final = [l.snapshot() for l in learners]
    return result


def _train_sync(network, config, env_factory, learners, evaluate, seed) -> None:
    """Lockstep rounds of every actor, each followed by one step of every
    learner once the buffers hold the warm-up."""

    def snapshot_fn() -> list[Params]:
        return [l.snapshot() for l in learners]

    def sink(transitions: list[Transition]) -> None:
        """Fan one decision's transitions out to the per-intersection buffers."""
        for learner, t in zip(learners, transitions):
            learner.buffer.add(t)

    actors = [
        Actor(
            actor_id=i,
            network=network,
            epsilon=config.actor_epsilon(i),
            env_factory=env_factory,
            snapshot_fn=snapshot_fn,
            sink=sink,
            seed=seed * 7919 + 31 * i + 1,
            snapshot_period=config.snapshot_period,
        )
        for i in range(config.n_actors)
    ]
    warmup = max(config.warmup_transitions, config.batch_size)
    while len(learners[0].buffer) < warmup:
        decision_round(actors)
    while learners[0].step_count < config.max_learner_steps:
        decision_round(actors)
        for learner in learners:
            learner.step()
        if learners[0].step_count % config.eval_period == 0:
            evaluate(learners[0].step_count)
