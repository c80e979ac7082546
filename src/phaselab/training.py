"""DQN training: Bellman targets, prioritized learner, and exploration actors.

N actors run epsilon-greedy episodes on private K-intersection simulators;
each intersection has one learner whose prioritized buffer takes that
intersection's transition of every actor decision. A learner samples batches,
applies Adam on an importance-weighted Huber loss, and periodically syncs the
target network; the actors take every learner's parameters every
``snapshot_period`` rounds. A single intersection is the K = 1 case.

Training runs on one thread on a fixed schedule and is bit-reproducible:
each round, all actors decide in lockstep (one batched forward per
intersection), hand each learner the round's rows in one ``replay.Batch``,
then every learner steps once. Replay keeps transitions as rows of arrays,
so a learner step gathers its batch with one index per array. Parameter
sets are read-only values: a step replaces the online set, and everything
else holds a learner's sets by reference. A learner step computes Q only
where it reads it: the online Q of the next states in full, for the argmax,
then the target Q at that argmax and the online Q at the taken actions, the
latter with its VJP, which ``numerics.backward`` turns into the loss and the
gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import numerics as nm
from .numerics import Params
from .replay import Batch, PrioritizedReplayBuffer
from .simulator import GridSim, run_episode
from .state import TrafficState


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
    snapshot_period: int = 10  # actor rounds between parameter refreshes
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
        # lr <= 0 ascends or stands still; learning_rate() divides by lr and
        # takes a power of lr_end / lr, complex for a negative ratio.
        if not self.lr > 0.0:
            raise ValueError("lr must be positive")
        if self.lr_end is not None and not self.lr_end > 0.0:
            raise ValueError("lr_end must be positive")
        if self.buffer_capacity < max(self.warmup_transitions, self.batch_size):
            # warm-up waits for that many transitions, which the buffer never holds
            raise ValueError("buffer_capacity must hold max(warmup_transitions, batch_size)")
        if self.buffer_capacity < self.n_actors:
            # each decision round adds one row per actor in a single block
            raise ValueError("buffer_capacity must hold one round: at least n_actors rows")

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
    where a* is the online argmax (double-DQN) or the target argmax. Double
    DQN computes the target Q at a* alone.
    """
    if double_dqn:
        q_online_next = network.forward(online_params, batch.next_counts, batch.next_bits)
        best = np.argmax(q_online_next, axis=1)
        boot = network.forward(target_params, batch.next_counts, batch.next_bits, actions=best)
    else:
        q_target_next = network.forward(target_params, batch.next_counts, batch.next_bits)
        boot = q_target_next.max(axis=1)
    return batch.reward + gamma * batch.not_done * boot


class Learner:
    """Owns the online/target parameters and the prioritized buffer of rows.
    A step replaces ``online``; a target sync points ``target`` at it."""

    def __init__(
        self,
        network,
        params: Params,
        config: TrainConfig,
        buffer: PrioritizedReplayBuffer,
        rng: np.random.Generator,
    ):
        self.network = network
        self.config = config
        self.buffer = buffer
        self.rng = rng
        self.online = self.target = params
        self.adam = nm.adam_init(self.online)
        self.step_count = 0

    def step(self) -> float:
        cfg = self.config
        indices, batch, weights = self.buffer.sample(
            cfg.batch_size, cfg.beta(self.step_count), self.rng
        )
        targets = td_targets(
            batch, self.network, self.online, self.target, cfg.gamma, cfg.double_dqn
        )
        q, vjp = self.network.forward(
            self.online, batch.counts, batch.bits, actions=batch.action, vjp=True
        )
        loss, grads = nm.backward(vjp, q, targets, weights)
        td_errors = targets - q
        self.online = nm.adam_update(
            self.online, grads, self.adam, lr=cfg.learning_rate(self.step_count)
        )
        self.buffer.update_priorities(indices, np.abs(td_errors) + cfg.priority_eps)
        self.step_count += 1
        if self.step_count % cfg.target_sync == 0:
            self.target = self.online
        return loss


class EpsilonGreedyPolicy:
    """Epsilon-greedy over a Q row: with probability ``epsilon`` a uniform
    action, else the argmax (ties to the lowest index)."""

    def __init__(self, epsilon: float, rng: np.random.Generator):
        self.epsilon = epsilon
        self.rng = rng

    def __call__(self, q: np.ndarray) -> int:
        if self.epsilon > 0.0 and self.rng.random() < self.epsilon:
            return int(self.rng.integers(len(q)))
        return int(np.argmax(q))


class GreedyPolicy:
    """Greedy evaluation policy with symmetry-respecting tie-breaking.

    Exact Q ties are structural here: phases whose members carry identical
    (count, signal) features score identically, and breaking such ties by
    phase index does not commute with intersection symmetries, which would
    spoil transfer evaluations. Ties are broken by member queue content, then
    by keeping the current phase; both keys permute along with the state. The
    raw index only decides between phases the state cannot distinguish.

    A policy scores the one parameter set it is built with: it prepares that
    set's single-state constants once and memoizes one action per distinct
    state seen. The arrays are read-only, so neither can go stale.
    """

    def __init__(self, network, params: Params):
        self.network = network
        self._prepared = network.prepare(params)
        self._memo: dict[tuple[bytes, bytes, int], int] = {}
        table = network.table
        self._members = []
        self._cross_approach = []
        for ph in table.phases:
            i, j = ph.members
            mi, mj = table.movements[i], table.movements[j]
            cross = mi.approach != mj.approach
            # same-approach pair: through before left is symmetry-stable
            self._members.append((i, j) if cross or mi.turn < mj.turn else (j, i))
            self._cross_approach.append(cross)

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
            q = self.network.q_values(self._prepared.params, state, self._prepared).tolist()
            if not all(map(math.isfinite, q)):
                raise ValueError(f"non-finite Q values {q}")
            top = max(q)
            if q.count(top) == 1:
                action = q.index(top)
            else:
                best = [p for p, v in enumerate(q) if v == top]
                action = min(best, key=lambda p: self._tie_key(p, state))
            self._memo[key] = action
        return action


def _stack(states: Sequence[Sequence[TrafficState]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, bits) [N, M] of intersection k in each of N actors' states."""
    return (
        np.stack([s[k].counts for s in states]),
        np.stack([s[k].signal_bits for s in states]),
    )


# States per forward in a decision round. Row i of a forward is bitwise the
# single-state Q of state i only up to some batch size, and only because the
# networks pad each product's rows to a multiple of 4 (``networks._rows_at``).
# Both limits depend on the BLAS kernels and the layer shapes: on OpenBLAS
# 0.3.31, FRAP rows diverge at B = 512, and unpadded products of output width
# 1, 2, 3 or 10 round their last M % 4 rows apart from the others.
# test_batched_row_is_the_single_state_q pins B <= 64 on every table.
ROUND_BLOCK = 64


class Actors:
    """``config.n_actors`` epsilon-greedy actors deciding in lockstep.

    Each actor runs episodes on a private simulator built by
    ``env_factory(actor_id, episode)`` (a K-intersection GridSim; an
    IntersectionSim is K = 1). Actor i explores at ``config.actor_epsilon(i)``
    and draws from one rng, seeded ``seed * 7919 + 31 i + 1``, at its K
    intersections in order. All actors act on the same parameters: the
    learners' ``online`` sets, taken every ``config.snapshot_period`` rounds.
    ``states[i]`` is actor i's current state at each intersection: the first
    states of an episode, then the states of its last step.
    """

    def __init__(
        self,
        network,
        config: TrainConfig,
        env_factory: Callable[[int, int], GridSim],
        seed: int,
    ):
        self.network = network
        self.env_factory = env_factory
        self.snapshot_period = config.snapshot_period
        self.policies = [
            EpsilonGreedyPolicy(
                config.actor_epsilon(i), np.random.default_rng(seed * 7919 + 31 * i + 1)
            )
            for i in range(config.n_actors)
        ]
        self.sims: list[GridSim | None] = [None] * config.n_actors
        self.states: list[list[TrafficState]] = [[] for _ in range(config.n_actors)]
        self.episodes = [0] * config.n_actors
        self.rounds = 0
        self.params: list[Params] = []  # one set per intersection

    def decide(self, learners: Sequence[Learner]) -> None:
        """One decision of every actor; ``learners[k]`` gets one Batch of the
        actors' transitions at intersection k, in actor order.

        Every ``snapshot_period`` rounds, from round 0, the actors take each
        learner's ``online`` set. Actors without an episode start one. At each
        intersection, batched forwards of up to ``ROUND_BLOCK`` states (one,
        for up to 64 actors) score every actor's state, explorers included.
        Row i of a batched forward is bitwise the Q-values of state i alone,
        so the actions, rows and rng states do not depend on how many actors
        decide together. The rows take the stacked states of the forward, and
        the actors' states after the step, stacked again.
        """
        if self.rounds % self.snapshot_period == 0:
            self.params = [learner.online for learner in learners]
        for i, sim in enumerate(self.sims):
            if sim is None:
                self.sims[i] = sim = self.env_factory(i, self.episodes[i])
                self.states[i] = sim.states()
        stacked = [_stack(self.states, k) for k in range(len(self.params))]
        q_by_intersection = [
            np.concatenate([
                self.network.forward(
                    params, counts[b : b + ROUND_BLOCK], bits[b : b + ROUND_BLOCK]
                )
                for b in range(0, len(counts), ROUND_BLOCK)
            ])
            for params, (counts, bits) in zip(self.params, stacked)
        ]
        actions, rewards, not_done = [], [], []
        for i, policy in enumerate(self.policies):
            actions.append([policy(q[i]) for q in q_by_intersection])
            self.states[i], step_rewards, done = self.sims[i].step(actions[i])
            rewards.append(step_rewards)
            not_done.append(0.0 if done else 1.0)
            if done:
                self.episodes[i] += 1
                self.sims[i] = None
        actions = np.array(actions, dtype=np.int64)  # [actor, intersection]
        rewards = np.array(rewards, dtype=np.float64)
        not_done = np.array(not_done)
        for k, (learner, (counts, bits)) in enumerate(zip(learners, stacked)):
            next_counts, next_bits = _stack(self.states, k)
            learner.buffer.add(Batch(
                counts=counts,
                bits=bits,
                action=actions[:, k],
                reward=rewards[:, k],
                next_counts=next_counts,
                next_bits=next_bits,
                not_done=not_done,
            ))
        self.rounds += 1


@dataclass(frozen=True)
class CurvePoint:
    learner_step: int
    eval_travel_time: float
    exited_count: int
    censored_travel_time: float  # counts stranded vehicles; ranking metric


def censored_travel_time(metrics, episode_length: float) -> float:
    """Mean travel time with still-in-network vehicles charged up to episode end.

    The exited-only average rewards starving low-priority movements; charging
    every vehicle at least its time in the network so far removes that loophole
    when ranking checkpoints.
    """
    exits = metrics.exit_times
    entries = np.array(metrics.entry_times, dtype=np.float64)
    waiting = np.isnan(exits)
    charged = np.where(waiting, episode_length - entries, exits - entries)
    charged = charged[~waiting | (entries < episode_length)]
    # cumsum adds left to right, like a running total; np.sum would add pairwise
    return float(np.cumsum(charged)[-1] / len(charged)) if len(charged) else 0.0


@dataclass
class TrainResult:
    """Outcome of a run. ``best`` and ``final`` hold one parameter set per
    intersection, the learners' read-only sets themselves; ``best_params``
    and ``final_params`` are the single set of a one-intersection run."""

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
) -> TrainResult:
    """Full actor/learner training run; returns the best-by-eval parameters.

    The factories build K-intersection simulators, K read from the first
    evaluation environment. Intersection k gets its own learner, replay
    buffer and parameters (seeds ``seed + 101 k`` and ``seed + 17 k + 1``),
    so K = 1 is the single-intersection run. Every ``eval_period`` learner
    steps (plus step 0 and the final step) a greedy episode runs on a fresh
    evaluation environment and its travel time is appended to the learning
    curve. Training runs in rounds: every actor of :class:`Actors` decides
    once, then, after the buffers hold the warm-up, every learner steps once.
    ``config.sync`` must be True.
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
            PrioritizedReplayBuffer(config.buffer_capacity, config.alpha),
            np.random.default_rng(seed + 17 * k + 1),
        )
        for k in range(n)
    ]
    result = TrainResult(best=[l.online for l in learners], best_travel_time=np.inf, best_step=0)

    def evaluate(step: int, sim: GridSim | None = None) -> None:
        sim = eval_factory() if sim is None else sim
        params = [l.online for l in learners]
        m = run_episode(sim, [GreedyPolicy(network, p) for p in params])
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
            result.best = params

    evaluate(0, first_eval)
    if config.max_learner_steps > 0:
        actors = Actors(network, config, env_factory, seed)
        while len(learners[0].buffer) < max(config.warmup_transitions, config.batch_size):
            actors.decide(learners)
        while learners[0].step_count < config.max_learner_steps:
            actors.decide(learners)
            for learner in learners:
                learner.step()
            if learners[0].step_count % config.eval_period == 0:
                evaluate(learners[0].step_count)
        if learners[0].step_count % config.eval_period != 0:
            evaluate(learners[0].step_count)
    result.final = [l.online for l in learners]
    return result
