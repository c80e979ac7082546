"""The benchmark's tracer (perfbench/tracing.py) wraps phaselab functions by
name, and its workloads (perfbench/workloads.py, run.py) call them by name.
A rename or deletion of one of them must fail here, not crash a benchmark
run."""

import ast
import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from phaselab import flows, gridtrain, harness, networks, replay, simulator, training

from conftest import random_rows

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def tracing():
    return _perfbench_module("tracing")


def test_every_wrapped_name_exists(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for targets in tracing._TARGETS.values()
        for owner, attr in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_every_name_the_workloads_call_exists():
    # Importing workloads runs its phaselab imports and its class-level
    # configs, such as TrainConfig(..., sync=True). Its H.<name> and
    # T.<name> calls run only inside a benchmark run, so they are read
    # from the source, as are the modules run.py times the import of.
    workloads = _perfbench_module("workloads")
    source = (PERFBENCH / "workloads.py").read_text()
    missing = [
        f"{alias}.{name}"
        for alias in ("H", "T")
        for name in sorted(set(re.findall(rf"\b{alias}\.(\w+)", source)))
        if not hasattr(getattr(workloads, alias), name)
    ]
    assert missing == []
    (probe,) = [
        node.value
        for node in ast.parse((PERFBENCH / "run.py").read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_IMPORT_PROBE"
    ]
    modules = [
        alias.name
        for node in ast.walk(ast.parse(ast.literal_eval(probe)))
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert "phaselab.harness" in modules
    for module in modules:
        importlib.import_module(module)


def test_eval_span_closer_exists():
    for owner in (training, gridtrain):
        assert "censored_travel_time" in owner.__dict__, owner.__name__


def test_greedy_q_calls_are_the_episode_distinct_states(tracing, table4):
    # networks.q_calls counts the tracer's wrapper on q_values. A greedy policy
    # memoizes its action per state, so that count must be the episode's
    # distinct states: each costs one Q evaluation, and a repeat costs none.
    net = networks.FrapNetwork(table4, networks.FrapConfig())
    policy = training.GreedyPolicy(net, net.init_params(0))
    distinct = set()

    def controller(state):
        distinct.add((state.counts.tobytes(), state.signal_bits.tobytes(), state.phase_index))
        return policy(state)

    config = harness.ExperimentConfig()
    flow = harness.build_flow(config, harness.eval_flow_seed(config))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        simulator.run_controller(controller, config.sim, table4, flow, config.seed)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names.count("training.greedy") == 360  # 3600 s at one decision per 10 s
    assert names.count("networks.q") == len(distinct) < 360


def test_learner_step_spans(tracing, table4):
    # The per-layer metrics read a learner step as three batched forwards
    # (online Q of the next states, target Q of the next states at the online
    # argmax, online Q of the batch at the taken actions), one
    # numerics.backward, the whole backward pass, and one replay sample and
    # priority update, all inside its span.
    net = networks.FrapNetwork(table4, networks.FrapConfig())
    config = training.TrainConfig(batch_size=16)
    buffer = replay.PrioritizedReplayBuffer(64, config.alpha)
    buffer.add(random_rows(table4, np.random.default_rng(0), 32, done_every=8))
    learner = training.Learner(net, net.init_params(0), config, buffer, np.random.default_rng(1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        learner.step()
    finally:
        tracer.uninstall()
    (step,) = [s for s in tracer.spans if s.name == "training.learner_step"]
    (backward,) = [s for s in tracer.spans if s.name == "numerics.backward"]
    assert backward.parent == step.id
    forwards = [s for s in tracer.spans if s.name == "networks.forward"]
    assert len(forwards) == 3
    assert all(s.parent == step.id for s in forwards)
    for name in ("replay.sample", "replay.update"):
        (span,) = [s for s in tracer.spans if s.name == name]
        assert span.parent == step.id


def test_actor_round_spans(tracing, table4):
    # training.actor_decision_us times one actor's pick at one intersection,
    # and networks.forward_calls counts the round's batched forwards: one per
    # intersection for up to 64 actors, and no single-state q_values. Each
    # learner's buffer takes the round's rows in one replay.add.
    net = networks.FrapNetwork(table4, networks.FrapConfig())
    config = training.TrainConfig(n_actors=3)
    sim_config = simulator.SimConfig(episode_length=50)

    def factory(actor_id, episode):
        spec = flows.FlowSynthesisSpec(rates=(900.0,) * 8, duration=50.0)
        flow = flows.synthesize_grid_flow(spec, 2, 2, actor_id)
        return simulator.GridSim(sim_config, table4, flow, 4, actor_id)

    learners = [
        training.Learner(
            net, net.init_params(k), config, replay.PrioritizedReplayBuffer(64, config.alpha),
            np.random.default_rng(k),
        )
        for k in range(4)
    ]
    actors = training.Actors(net, config, factory, seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        actors.decide(learners)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names.count("training.actor_decision") == 12
    assert names.count("networks.forward") == 4
    assert names.count("networks.q") == 0
    assert names.count("replay.add") == 4
    assert [len(l.buffer) for l in learners] == [3, 3, 3, 3]


@pytest.mark.parametrize("grid", (1, 2))
def test_every_training_eval_span_closes(tracing, tmp_path, grid):
    # training.eval opens when training builds the held-out flow and closes
    # when censored_travel_time returns. Each eval of a run must therefore
    # give one closed span, and none may be left open on the span stack.
    config = harness.ExperimentConfig(
        seed=3,
        grid_rows=grid,
        grid_cols=grid,
        sim=simulator.SimConfig(episode_length=300),
        flow=harness.FlowConfig(name="unbalanced-WE", duration=300.0),
        train=training.TrainConfig(
            n_actors=2, batch_size=8, warmup_transitions=8, max_learner_steps=25, eval_period=10
        ),
        out_dir=str(tmp_path),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        paths = harness.cmd_train(config)
        stack = list(tracer._stack())
    finally:
        tracer.uninstall()
    rows = len(paths["curve"].read_text().splitlines()) - 1
    assert rows == 4  # steps 0, 10, 20 and the final 25
    evals = [s for s in tracer.spans if s.name == "training.eval"]
    assert len(evals) == rows
    assert all(s.end is not None and s.end >= s.start for s in evals)
    assert stack == []
