"""phaselab benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; phaselab is imported from ``src/``.
The workloads are defined in ``workloads.py``: train-frap-sync and
compare-1x1 are listed in BENCHMARK.json; train-grid-2x2 and
train-frap-threaded run the same way by hand. The run sets up ``SETUP_REPS``
times, runs one untimed warm-up iteration, then times iterations until
``--seconds`` is used up.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics,
computed from spans recorded around phaselab's public calls on every other
iteration (the iterations in between run unwrapped and give the tracing
overhead). The line before it is a JSON report: provenance, iteration walls,
episode sample count, the quality guard, operations per verb, failed output
checks ("problems") and wrong results of known defects ("defects"). Only a
raised exception counts as a failed operation; a known defect's wrong result
is reported and, traced, counted in harness.flip_mismatch_flows. A failed
check exits with code 1; a missing source tree or unknown workload with 2.
"""

from __future__ import annotations

import os

# The networks are tiny: pin BLAS to one thread before numpy loads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # temporary output directories and span files
SETUP_REPS = 3
IMPORT_REPS = 3
# A seed kept out of development; the workloads were run on it once to show
# they behave on it as on the seeds used for tuning.
HOLDOUT_SEED = 8191

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("learner_updates_per_s", "1/s"),
    ("decisions_per_s", "1/s"),
    ("episode_ms.p50", "ms"),
    ("episode_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_op_share", "share"),
)

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import phaselab.harness, phaselab.gridtrain; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median time to import phaselab in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": git_commit(),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@dataclass
class Run:
    setup_s: list[float] = field(default_factory=list)  # per set-up repetition
    setup_updates_per_s: list[float] = field(default_factory=list)  # learner rate of set-up training
    iterations: list = field(default_factory=list)
    traced_walls: dict[int, float] = field(default_factory=dict)  # iteration index -> wall


def measure(args, workdir: Path, ledger, workloads, tracer) -> Run:
    """Set up ``SETUP_REPS`` times, warm up once, then time iterations."""
    run = Run()
    if tracer is not None:
        tracer.install()
    for _ in range(SETUP_REPS):
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, ledger)
        t0 = time.perf_counter()
        wl.setup()
        run.setup_s.append(time.perf_counter() - t0)
        if wl.setup_updates_per_s is not None:
            run.setup_updates_per_s.append(wl.setup_updates_per_s)
    if tracer is not None:
        tracer.uninstall()
    wl.iterate()  # warm-up: untimed, but its outputs are checked like the rest
    ledger.reset_ops()
    min_iters = 4 if tracer is not None else 2
    start = time.perf_counter()
    while True:
        index = len(run.iterations)
        traced = tracer is not None and index % 2 == 0
        gc.collect()  # every iteration starts from the same heap
        if traced:
            tracer.tag = index
            tracer.install()
        try:
            it = wl.iterate()
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            run.traced_walls[index] = it.wall_s
        run.iterations.append(it)
        elapsed = time.perf_counter() - start
        typical = statistics.median(i.wall_s for i in run.iterations)
        if len(run.iterations) >= min_iters and elapsed + typical > args.seconds:
            return run


def quality_guard(iterations) -> float:
    """Median over iterations of the greedy evals' mean censored travel time."""
    return statistics.median(statistics.fmean(it.censored_tt.values()) for it in iterations)


def end_to_end(workloads, run: Run, setup_import_s: float, ledger) -> dict[str, float]:
    iterations = run.iterations
    episodes = [ms for it in iterations for ms in it.episode_ms]
    # An evaluation-only workload has no learner in its iterations; its rate
    # comes from the training done in set-up.
    rates = [it.updates / it.train_s for it in iterations if it.updates] or run.setup_updates_per_s
    return {
        "setup_s": setup_import_s + statistics.median(run.setup_s),
        "run_wall_s": statistics.median(it.wall_s for it in iterations),
        "learner_updates_per_s": statistics.median(rates),
        "decisions_per_s": statistics.median(it.decisions / it.wall_s for it in iterations),
        "episode_ms.p50": workloads.percentile(episodes, 50),
        "episode_ms.p90": workloads.percentile(episodes, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_op_share": 1.0 - ledger.failed / ledger.attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import phaselab
    except ImportError as exc:
        print(f"perfbench: cannot import phaselab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(phaselab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: phaselab resolved to {phaselab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        valid = ", ".join(sorted(workloads.WORKLOADS))
        print(f"perfbench: unknown workload {args.workload!r}; valid: {valid}", file=sys.stderr)
        return 2
    setup_import_s = import_seconds()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    ledger = workloads.Ledger()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as tmp, open(os.devnull, "w") as null:
        with contextlib.redirect_stdout(null):  # the verbs print their tables
            run = measure(args, Path(tmp), ledger, workloads, tracer)
    iterations = run.iterations
    for name, digests in ledger.digests.items():
        ledger.check(len(digests) == 1, f"{name}: {len(digests)} distinct output digests for one seed")
    correct = not ledger.problems and all(it.censored_tt for it in iterations)
    guard = quality_guard(iterations) if correct else 0.0

    if tracer is None:
        values = end_to_end(workloads, run, setup_import_s, ledger)
        units = dict(END_TO_END)
    else:
        from tracing import PER_LAYER

        untraced = [it.wall_s for i, it in enumerate(iterations) if i not in run.traced_walls]
        values = tracer.per_layer(run.traced_walls, untraced)
        values["training.best_censored_travel_time_s"] = guard
        values["harness.flip_mismatch_flows"] = float(
            sum(1 for key in ledger.defects if key.startswith("flip:"))
        )
        units = dict(PER_LAYER)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    report = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "iteration_walls_s": [it.wall_s for it in iterations],
        "episode_samples": sum(len(it.episode_ms) for it in iterations),
        "best_censored_travel_time_s": guard,
        "setup_import_s": setup_import_s,
        "setup_rep_s": run.setup_s,
        "ops": {verb: {"attempted": a, "failed": f} for verb, (a, f) in ledger.ops.items()},
        "problems": ledger.problems,
        "defects": sorted(ledger.defects.values()),
    }
    print(json.dumps(report))
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
