"""Span tracing for the traced benchmark run.

Wrappers are installed on phaselab's public functions and classes from this
file, so the program under test is unchanged. Each wrapped call records a
span (id, name, start, end, parent, thread, tag) in memory; the per-layer
metrics are computed from the spans when the run ends, and the spans are
written to ``.perfbench/spans-<workload>-seed<seed>.jsonl.gz``. Only a run
with ``--trace 1`` installs the wrappers.

A wrapper costs about 3 us per call (2 cores, Python 3.11), of which about
2 us falls outside the child's span and so counts as its parent's self time.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

from phaselab import classical, gridtrain, harness, networks, numerics, replay, simulator, training
from workloads import percentile

# Span names, and (owner, attribute) pairs each name wraps. Module-level
# functions are wrapped where their callers look them up: harness and
# gridtrain import them by name. Spans without a metric of their own
# (simulator.build, networks.checkpoint, training.greedy) only take their
# time out of their parents' self time.
_TARGETS = {
    "flows.synth": [(harness, "build_flow")],
    "topology.build": [(harness, "build_phase_table")],
    "simulator.step": [(simulator.IntersectionSim, "step"), (simulator.GridSim, "step")],
    "simulator.metrics": [(simulator.IntersectionSim, "metrics"), (simulator.GridSim, "metrics")],
    "simulator.build": [(simulator.IntersectionSim, "__init__"), (simulator.GridSim, "__init__")],
    "networks.checkpoint": [
        (harness, "save_checkpoint"), (harness, "load_checkpoint"), (gridtrain, "save_checkpoint"),
    ],
    "networks.q": [(networks.FrapNetwork, "q_values"), (networks.VanillaNetwork, "q_values")],
    "networks.forward": [(networks.FrapNetwork, "forward"), (networks.VanillaNetwork, "forward")],
    "numerics.backward": [(numerics, "backward")],
    "numerics.adam": [(numerics, "adam_update")],
    "replay.add": [(replay.PrioritizedReplayBuffer, "add")],
    "replay.sample": [(replay.PrioritizedReplayBuffer, "sample")],
    "replay.update": [(replay.PrioritizedReplayBuffer, "update_priorities")],
    "training.train": [(training, "train"), (harness, "train")],
    "training.learner_step": [(training.Learner, "step")],
    "training.actor_decision": [(training.EpsilonGreedyPolicy, "__call__")],
    "training.greedy": [(training.GreedyPolicy, "__call__")],
    "classical.grid_search": [(harness, "fixedtime_grid_search")],
    "classical.decide": [
        (classical.FixedTimeController, "__call__"),
        (classical.SOTLController, "__call__"),
    ],
    "harness.cmd_train": [(harness, "cmd_train")],
    "harness.cmd_compare": [(harness, "cmd_compare")],
    "harness.cmd_transfer": [(harness, "cmd_transfer")],
}
_CMD_SPANS = ("harness.cmd_train", "harness.cmd_compare", "harness.cmd_transfer")
# Grid training has no training.train call; its cmd_train span is the root.
_TRAINING_ROOTS = ("training.train", "harness.cmd_train")
# An eval inside training has no function of its own: it opens when training
# synthesises the held-out flow and closes when censored_travel_time returns.
_EVAL = "training.eval"

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("flows.synth_ms.p50", "ms"),
    ("flows.synth_calls", "count"),
    ("simulator.step_us.p50", "us"),
    ("simulator.step_us.p90", "us"),
    ("simulator.steps", "count"),
    ("simulator.busy_share", "share"),
    ("simulator.metrics_ms", "ms"),
    ("networks.q_us.p50", "us"),
    ("networks.q_us.p90", "us"),
    ("networks.q_calls", "count"),
    ("networks.forward_ms.p50", "ms"),
    ("networks.forward_calls", "count"),
    ("numerics.backward_ms.p50", "ms"),
    ("numerics.adam_ms.p50", "ms"),
    ("replay.add_us.p50", "us"),
    ("replay.sample_us.p50", "us"),
    ("replay.update_us.p50", "us"),
    ("replay.size", "count"),
    ("training.learner_step_ms.p50", "ms"),
    ("training.learner_step_ms.p90", "ms"),
    ("training.learner_self_ms.p50", "ms"),
    ("training.actor_decision_us.p50", "us"),
    ("training.eval_ms.p50", "ms"),
    ("training.decisions_per_update", "count"),
    ("training.learner_wait_share", "share"),
    ("training.best_censored_travel_time_s", "s"),  # the quality guard, set by run.py
    ("classical.grid_search_ms", "ms"),
    ("classical.decide_us.p50", "us"),
    ("harness.self_ms", "ms"),
    ("harness.flip_mismatch_flows", "count"),  # flows where flip transfer differs, set by run.py
    ("topology.build_ms", "ms"),
    ("tracing.traced_run_wall_s", "s"),
    ("tracing.untraced_run_wall_s", "s"),
    ("tracing.overhead_share", "share"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "tag")

    def __init__(self, id, name, start, parent, thread, tag):
        self.id, self.name, self.start, self.end = id, name, start, None
        self.parent, self.thread, self.tag = parent, thread, tag

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around phaselab's public calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tag = "setup"  # set to the iteration index while one runs
        self.replay_size = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else -1
        span = Span(next(self._ids), name, 0.0, parent, threading.get_ident(), self.tag)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _wrap_build_flow(self, fn):
        traced = self._wrap("flows.synth", fn)
        tracer = self

        @functools.wraps(fn)
        def build_flow(config, seed):
            stack = tracer._stack()
            in_training = any(s.name in _TRAINING_ROOTS for s in stack)
            if in_training and seed == harness.eval_flow_seed(config):
                tracer._open(_EVAL)
            return traced(config, seed)

        return build_flow

    def _wrap_eval_closer(self, fn):
        tracer = self

        @functools.wraps(fn)
        def censored_travel_time(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                stack = tracer._stack()
                if stack and stack[-1].name == _EVAL:
                    tracer._close(stack[-1])

        return censored_travel_time

    def _wrap_sample(self, fn):
        traced = self._wrap("replay.sample", fn)
        tracer = self

        @functools.wraps(fn)
        def sample(buffer, *args, **kwargs):
            tracer.replay_size = max(tracer.replay_size, len(buffer))
            return traced(buffer, *args, **kwargs)

        return sample

    def install(self) -> None:
        for name, targets in _TARGETS.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                if name == "flows.synth":
                    wrapped = self._wrap_build_flow(original)
                elif name == "replay.sample":
                    wrapped = self._wrap_sample(original)
                else:
                    wrapped = self._wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        for owner in (training, gridtrain):
            original = owner.__dict__["censored_travel_time"]
            self._saved.append((owner, "censored_travel_time", original))
            setattr(owner, "censored_travel_time", self._wrap_eval_closer(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @staticmethod
    def _training_roots(by_name, children) -> list[Span]:
        """training.train spans, and cmd_train spans with no training.train inside."""
        roots = list(by_name.get("training.train", ()))
        for s in by_name.get("harness.cmd_train", ()):
            if not any(c.name == "training.train" for c in children.get(s.id, ())):
                roots.append(s)
        return roots

    # -- output ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span, one JSON list per line: id, name, start, end, parent, thread, tag."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for s in sorted(self.spans, key=lambda s: s.id):
                out.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.thread, s.tag]) + "\n")

    def per_layer(self, traced_walls: dict[int, float], untraced_walls: list[float]) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        Latencies pool every span (set-up and traced iterations); ``*_calls``,
        ``simulator.steps``, ``simulator.busy_share`` and ``harness.self_ms``
        are medians over the traced iterations, keyed by tag in ``traced_walls``.
        """
        by_name: dict[str, list[Span]] = {}
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
            children.setdefault(s.parent, []).append(s)
        names = {s.id: s.name for s in self.spans}

        def durs(name: str, scale: float, keep=lambda s: True) -> list[float]:
            return [s.dur * scale for s in by_name.get(name, ()) if keep(s)]

        def self_time(s: Span) -> float:
            return s.dur - sum(c.dur for c in children.get(s.id, ()))

        def per_iter(fn) -> float:
            return float(_median([fn(tag) for tag in traced_walls]))

        def count(name: str, keep=lambda s: True):
            return lambda tag: sum(1 for s in by_name.get(name, ()) if s.tag == tag and keep(s))

        def batched(s: Span) -> bool:  # a forward not made by a single-state q_values
            return names.get(s.parent) != "networks.q"

        def busy(tag) -> float:
            return sum(s.dur for s in by_name.get("simulator.step", ()) if s.tag == tag) / traced_walls[tag]

        def harness_self(tag) -> float:
            return 1e3 * sum(
                self_time(s) for n in _CMD_SPANS for s in by_name.get(n, ()) if s.tag == tag
            )

        # Actor threads keep their own span stacks, so a training root's
        # children all ran on the learner thread.
        learner_work = ("training.learner_step", _EVAL, "replay.add")
        train_total = outside = 0.0
        n_steps = n_adds = 0  # adds counted from the first update on: no warm-up fill
        for root in self._training_roots(by_name, children):
            kids = children.get(root.id, ())
            outside += root.dur - sum(c.dur for c in kids if c.name in learner_work)
            train_total += root.dur
            root_steps = [c for c in kids if c.name == "training.learner_step"]
            if root_steps:
                first = min(c.start for c in root_steps)
                n_steps += len(root_steps)
                n_adds += sum(1 for c in kids if c.name == "replay.add" and c.start > first)
        steps = by_name.get("training.learner_step", ())
        traced, untraced = _median(list(traced_walls.values())), _median(untraced_walls)
        return {
            "flows.synth_ms.p50": percentile(durs("flows.synth", 1e3), 50),
            "flows.synth_calls": per_iter(count("flows.synth")),
            "simulator.step_us.p50": percentile(durs("simulator.step", 1e6), 50),
            "simulator.step_us.p90": percentile(durs("simulator.step", 1e6), 90),
            "simulator.steps": per_iter(count("simulator.step")),
            "simulator.busy_share": per_iter(busy),
            "simulator.metrics_ms": percentile(durs("simulator.metrics", 1e3), 50),
            "networks.q_us.p50": percentile(durs("networks.q", 1e6), 50),
            "networks.q_us.p90": percentile(durs("networks.q", 1e6), 90),
            "networks.q_calls": per_iter(count("networks.q")),
            "networks.forward_ms.p50": percentile(durs("networks.forward", 1e3, batched), 50),
            "networks.forward_calls": per_iter(count("networks.forward", batched)),
            "numerics.backward_ms.p50": percentile(durs("numerics.backward", 1e3), 50),
            "numerics.adam_ms.p50": percentile(durs("numerics.adam", 1e3), 50),
            "replay.add_us.p50": percentile(durs("replay.add", 1e6), 50),
            "replay.sample_us.p50": percentile(durs("replay.sample", 1e6), 50),
            "replay.update_us.p50": percentile(durs("replay.update", 1e6), 50),
            "replay.size": float(self.replay_size),
            "training.learner_step_ms.p50": percentile(durs("training.learner_step", 1e3), 50),
            "training.learner_step_ms.p90": percentile(durs("training.learner_step", 1e3), 90),
            "training.learner_self_ms.p50": percentile([1e3 * self_time(s) for s in steps], 50),
            "training.actor_decision_us.p50": percentile(durs("training.actor_decision", 1e6), 50),
            "training.eval_ms.p50": percentile(durs(_EVAL, 1e3), 50),
            "training.decisions_per_update": n_adds / n_steps if n_steps else 0.0,
            "training.learner_wait_share": outside / train_total if train_total else 0.0,
            "classical.grid_search_ms": percentile(durs("classical.grid_search", 1e3), 50),
            "classical.decide_us.p50": percentile(durs("classical.decide", 1e6), 50),
            "harness.self_ms": per_iter(harness_self),
            "topology.build_ms": percentile(durs("topology.build", 1e3), 50),
            "tracing.traced_run_wall_s": traced,
            "tracing.untraced_run_wall_s": untraced,
            "tracing.overhead_share": traced / untraced - 1.0 if untraced else 0.0,
        }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
