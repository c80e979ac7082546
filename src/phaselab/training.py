"""DQN training: Bellman targets, prioritized learner, and exploration actors.

The acting and learning halves are decoupled: N actors run epsilon-greedy
episodes on private K-intersection simulators and push transitions into a
sink; each intersection has one learner that drains its share of the sink into
a prioritized buffer, samples batches, applies Adam on a masked Huber loss,
and periodically syncs the target network and publishes parameter snapshots
the actors pick up. A single intersection is the K = 1 case.

Two schedules implement that contract. The threaded mode (K = 1 only) runs
actors and the learner concurrently with a bounded queue providing
backpressure. The synchronous mode interleaves everything on one thread on a
fixed schedule (each actor takes one decision per learner step) and is
bit-reproducible."""

from __future__ import annotations

import csv
import queue
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import numerics as nm
from .numerics import Tensor
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
    priority: float = 0.0  # assigned by the replay buffer


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
    queue_capacity: int = 10_000
    sync: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.n_actors < 1:
            raise ValueError("need at least one actor")

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


def _batch_features(states: Sequence[TrafficState]) -> tuple[np.ndarray, np.ndarray]:
    counts = np.stack([s.counts for s in states]).astype(np.float64)
    bits = np.stack([s.signal_bits for s in states]).astype(np.float64)
    return counts, bits


def _targets_only(
    batch: Sequence[Transition],
    network,
    online_params: dict[str, Tensor],
    target_params: dict[str, Tensor],
    gamma: float,
    double_dqn: bool,
) -> np.ndarray:
    counts, bits = _batch_features([t.next_state for t in batch])
    q_target_next = network.forward(target_params, counts, bits).data
    if double_dqn:
        q_online_next = network.forward(online_params, counts, bits).data
        best = np.argmax(q_online_next, axis=1)
    else:
        best = np.argmax(q_target_next, axis=1)
    boot = q_target_next[np.arange(len(batch)), best]
    rewards = np.array([t.reward for t in batch])
    not_done = np.array([0.0 if t.done else 1.0 for t in batch])
    return rewards + gamma * not_done * boot


def bellman_targets(
    batch: Sequence[Transition],
    network,
    online_params: dict[str, Tensor],
    target_params: dict[str, Tensor],
    gamma: float,
    double_dqn: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-item TD targets and errors.

    target = r for terminal transitions, else r + gamma * Q_target(s', a*),
    where a* is the online argmax (double-DQN) or the target argmax.
    """
    targets = _targets_only(batch, network, online_params, target_params, gamma, double_dqn)
    counts, bits = _batch_features([t.state for t in batch])
    q_now = network.forward(online_params, counts, bits).data
    actions = np.array([t.action for t in batch])
    td_errors = targets - q_now[np.arange(len(batch)), actions]
    return targets, td_errors


class Learner:
    """Owns the online/target parameters and the prioritized buffer."""

    def __init__(
        self,
        network,
        params: dict[str, Tensor],
        config: TrainConfig,
        buffer: PrioritizedReplayBuffer,
        rng: np.random.Generator,
    ):
        self.network = network
        self.config = config
        self.buffer = buffer
        self.rng = rng
        self.online = dict(params)
        self.target = {k: Tensor(t.data) for k, t in params.items()}
        self.adam = nm.adam_init(self.online)
        self.step_count = 0

    def snapshot(self) -> dict[str, Tensor]:
        return {k: Tensor(t.data) for k, t in self.online.items()}

    def step(self) -> float:
        cfg = self.config
        indices, batch, weights = self.buffer.sample(
            cfg.batch_size, cfg.beta(self.step_count), self.rng
        )
        targets = _targets_only(
            batch, self.network, self.online, self.target, cfg.gamma, cfg.double_dqn
        )
        counts, bits = _batch_features([t.state for t in batch])
        tape = nm.Tape()
        q_pred = self.network.forward(self.online, counts, bits, tape)
        n_actions = q_pred.data.shape[1]
        actions = np.array([t.action for t in batch])
        rows = np.arange(len(batch))
        td_errors = targets - q_pred.data[rows, actions]
        mask = np.zeros((len(batch), n_actions))
        mask[rows, actions] = weights
        target_mat = np.broadcast_to(targets[:, None], (len(batch), n_actions))
        loss = nm.huber_loss(q_pred, Tensor(target_mat), Tensor(mask), delta=1.0, tape=tape)
        grads = nm.backward(tape, loss, self.online)
        self.online = nm.adam_update(
            self.online, grads, self.adam, lr=cfg.learning_rate(self.step_count)
        )
        self.buffer.update_priorities(indices, np.abs(td_errors) + cfg.priority_eps)
        self.step_count += 1
        if self.step_count % cfg.target_sync == 0:
            self.target = {k: Tensor(t.data) for k, t in self.online.items()}
        return float(loss.data)


class EpsilonGreedyPolicy:
    """Epsilon-greedy over the Q-values of a (refreshable) parameter snapshot."""

    def __init__(self, network, params: dict[str, Tensor], epsilon: float, rng: np.random.Generator):
        self.network = network
        self.params = params
        self.epsilon = epsilon
        self.rng = rng

    def __call__(self, state: TrafficState) -> int:
        if self.epsilon > 0.0 and self.rng.random() < self.epsilon:
            return int(self.rng.integers(self.network.n_actions))
        return int(np.argmax(self.network.q_values(self.params, state)))


class GreedyPolicy:
    """Greedy evaluation policy with symmetry-respecting tie-breaking.

    Exact Q ties are structural here: phases whose members carry identical
    (count, signal) features score identically, and breaking such ties by
    phase index does not commute with intersection symmetries, which would
    spoil transfer evaluations. Ties are broken by member queue content, then
    by keeping the current phase; both keys permute along with the state. The
    raw index only decides between phases the state cannot distinguish.
    """

    def __init__(self, network, params: dict[str, Tensor]):
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
        q = self.network.q_values(self.params, state)
        best = np.flatnonzero(q == q.max())
        if len(best) == 1:
            return int(best[0])
        return int(min(best, key=lambda p: self._tie_key(int(p), state)))


class Actor:
    """Runs epsilon-greedy episodes on private simulators, emitting transitions.

    ``env_factory(actor_id, episode)`` must build a fresh K-intersection
    simulator (a GridSim; an IntersectionSim is K = 1). ``snapshot_fn()``
    returns one parameter set per intersection and is polled every
    ``snapshot_period`` decisions. Each decision acts at every intersection
    and hands ``sink`` the list of its K transitions.
    """

    def __init__(
        self,
        actor_id: int,
        network,
        epsilon: float,
        env_factory: Callable[[int, int], GridSim],
        snapshot_fn: Callable[[], list[dict[str, Tensor]]],
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

    def take_decision(self) -> None:
        """One environment decision: act, observe, push the transitions."""
        if self._sim is None:
            self._sim = self.env_factory(self.actor_id, self.episode)
            self._states = self._sim.reset()
        if self.decisions % self.snapshot_period == 0:
            for policy, params in zip(self.policies, self.snapshot_fn()):
                policy.params = params
        actions = [policy(s) for policy, s in zip(self.policies, self._states)]
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

    best: list[dict[str, Tensor]]
    best_travel_time: float
    best_step: int
    curve: list[CurvePoint] = field(default_factory=list)
    final: list[dict[str, Tensor]] = field(default_factory=list)

    @property
    def best_params(self) -> dict[str, Tensor]:
        (params,) = self.best
        return params

    @property
    def final_params(self) -> dict[str, Tensor]:
        (params,) = self.final
        return params


def write_curve_csv(curve: Sequence[CurvePoint], path: str | Path) -> Path:
    path = Path(path)
    lines = ["learner_step,eval_travel_time,exited_count"]
    for p in curve:
        lines.append(f"{p.learner_step},{format(p.eval_travel_time, '.6g')},{p.exited_count}")
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
    curve. Grids train on the synchronous schedule only.
    """
    first_eval = eval_factory()
    n = first_eval.n_intersections
    if n > 1 and not config.sync:
        raise ValueError("grid training runs on the synchronous schedule; set train.sync")
    learners = [
        Learner(
            network,
            network.init_params(seed + 101 * k),
            config,
            PrioritizedReplayBuffer(config.buffer_capacity, config.alpha),
            np.random.default_rng(seed + 17 * k + 1),
        )
        for k in range(n)
    ]
    result = TrainResult(
        best=[l.snapshot() for l in learners], best_travel_time=np.inf, best_step=0
    )

    def evaluate(step: int, sim: GridSim | None = None) -> None:
        sim = eval_factory() if sim is None else sim
        states = sim.reset()
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
        schedule = _train_sync if config.sync else _train_threaded
        schedule(network, config, env_factory, learners, evaluate, seed)
        if learners[0].step_count % config.eval_period != 0:
            evaluate(learners[0].step_count)
    result.final = [l.snapshot() for l in learners]
    return result


def _store(learners: Sequence[Learner], transitions: Sequence[Transition]) -> None:
    """Fan one decision's transitions out to the per-intersection buffers."""
    for learner, t in zip(learners, transitions):
        learner.buffer.add(t)


def _make_actors(network, config, env_factory, snapshot_fn, sink, seed) -> list[Actor]:
    return [
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


def _train_sync(network, config, env_factory, learners, evaluate, seed) -> None:
    actors = _make_actors(
        network, config, env_factory,
        lambda: [l.snapshot() for l in learners],
        lambda transitions: _store(learners, transitions),
        seed,
    )
    warmup = max(config.warmup_transitions, config.batch_size)
    while len(learners[0].buffer) < warmup:
        for actor in actors:
            actor.take_decision()
    while learners[0].step_count < config.max_learner_steps:
        for actor in actors:
            actor.take_decision()
        for learner in learners:
            learner.step()
        if learners[0].step_count % config.eval_period == 0:
            evaluate(learners[0].step_count)


_POLL_S = 0.1  # bound on every blocking queue call in threaded mode


def _train_threaded(network, config, env_factory, learners, evaluate, seed) -> None:
    """Actors on daemon threads feed the learner through a bounded queue.

    The first exception an actor raises stops every actor and is re-raised
    here, on the learner's thread, within one poll interval.
    """
    sink: queue.Queue = queue.Queue(maxsize=config.queue_capacity)
    stop = threading.Event()
    errors: list[Exception] = []
    lock = threading.Lock()
    latest = {"params": [l.snapshot() for l in learners]}

    def snapshot_fn() -> list[dict[str, Tensor]]:
        with lock:
            return latest["params"]

    def actor_main(actor: Actor) -> None:
        try:
            while not stop.is_set():
                actor.take_decision()
        except Exception as err:  # re-raised on the learner's thread
            errors.append(err)
            stop.set()

    def actor_sink(transitions: list[Transition]) -> None:
        while not stop.is_set():
            try:
                sink.put(transitions, timeout=_POLL_S)
                return
            except queue.Full:
                continue

    def check_actors() -> None:
        if errors:
            raise errors[0]

    actors = _make_actors(network, config, env_factory, snapshot_fn, actor_sink, seed)
    threads = [
        threading.Thread(target=actor_main, args=(a,), name=f"actor-{a.actor_id}", daemon=True)
        for a in actors
    ]
    for t in threads:
        t.start()
    try:
        warmup = max(config.warmup_transitions, config.batch_size)
        while len(learners[0].buffer) < warmup:
            check_actors()
            try:
                _store(learners, sink.get(timeout=_POLL_S))
            except queue.Empty:
                continue
        while learners[0].step_count < config.max_learner_steps:
            check_actors()
            while True:  # drain whatever the actors produced
                try:
                    _store(learners, sink.get_nowait())
                except queue.Empty:
                    break
            for learner in learners:
                learner.step()
            with lock:
                latest["params"] = [l.snapshot() for l in learners]
            if learners[0].step_count % config.eval_period == 0:
                evaluate(learners[0].step_count)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
