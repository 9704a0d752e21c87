"""Seeded, offline benchmark of mmsurv.

    python3 benchmarks/run.py --workload tensor-fit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there
and nowhere else. One process, one caller, one request in flight (a closed
loop): the workload is set up several times, then its timed unit repeats
until ``--seconds`` would be exceeded (at least twice).

With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it carries every
per-layer metric instead. The lines before it give the environment block,
every metric with its unit, and any failed check. The exit code is 1 when an
output check fails and 2 when the checkout holds no package to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
MIN_UNITS = 2
UNGATED = (("error_rate", "ratio"), ("fusion_samples_per_s", "1/s"), ("stage1_samples_per_s", "1/s"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def import_seconds() -> float:
    """Median time to import numpy and mmsurv in a fresh interpreter.

    An import happens once per process, so set-up repeats it in children.
    """
    code = "import time; t = time.perf_counter(); import numpy, mmsurv; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(IMPORT_REPEATS))


def env_block() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {"threads": {v: os.environ[v] for v in THREAD_VARS},
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "src_lines": src_lines}


def median(values):
    return statistics.median(values) if values else 0.0


def rate(works, samples: str, seconds: str) -> float:
    """Median per-phase rate over the phases that did this kind of work.

    A median, not a pooled sum: the first set-up of a process runs cold, and
    its share of a pooled rate swung stage-1 rates by 24% between seeds.
    """
    return median([getattr(w, samples) / getattr(w, seconds)
                   for w in works if getattr(w, seconds) > 0])


def run_units(unit, state, seconds: float, minimum: int = MIN_UNITS):
    """Repeat the timed unit while the next one should still end within ``seconds``."""
    from workloads import Work
    works, walls = [], []
    start = time.perf_counter()
    while True:
        work = Work()
        t0 = time.perf_counter()
        unit(state, work)
        walls.append(time.perf_counter() - t0)
        works.append(work)
        elapsed = time.perf_counter() - start
        if len(works) >= minimum and elapsed + median(walls) > seconds:
            return works, walls


def output_checks(works) -> list[str]:
    problems = []
    first = works[0].cindex
    if not first:
        problems.append("no cell produced a c-index")
    for (label, scenario), ci in first.items():
        if not (0.0 < ci < 1.0):
            problems.append(f"c-index {ci!r} of {label} under {scenario} is not finite in (0, 1)")
    for k, w in enumerate(works[1:], start=1):
        if w.cindex != first:
            problems.append(f"unit {k} c-indices differ from unit 0 on the same seed")
    return problems


def end_to_end(works, walls, setups, setup_walls, import_s) -> dict:
    cis = list(works[0].cindex.values())
    attempted = sum(w.attempted for w in works)
    return {
        "setup_s": import_s + median(setup_walls),
        "wall_s": median(walls),
        "fusion_samples_per_s": rate(works, "fusion_samples", "fusion_s") or rate(setups, "fusion_samples", "fusion_s"),
        "stage1_samples_per_s": rate(works, "stage1_samples", "stage1_s") or rate(setups, "stage1_samples", "stage1_s"),
        # a median over calls, so a few slow calls among mean-grid's 30 short
        # ones per unit do not move it
        "eval_resamples_per_s": median([r for w in works for r in w.eval_rates]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_cindex": sum(cis) / len(cis) if cis else float("nan"),
        "error_rate": sum(w.failed for w in works) / attempted if attempted else 1.0,
    }


def per_layer(unit_deltas, setup_stats, works, walls, ref_wall) -> dict:
    """Per-unit medians of the traced spans plus computed work counts."""
    from tracer import LAYERS, traced_names
    out = {}
    for name in traced_names():
        for k, field in enumerate(("calls", "total_s", "self_s")):
            out[f"{name}.{field}"] = median([d[0].get(name, (0, 0.0, 0.0))[k] for d in unit_deltas])
    stats, counts = unit_deltas[0]
    calls = {name: stats.get(name, (0,))[0] for name in traced_names()}

    def per(count_key, *names):
        n = sum(calls[name] for name in names)
        return counts.get(count_key, 0) / n if n else 0.0

    out["nets.DenseNet.forward.computed_flops_per_call"] = per("forward_flops", "nets.DenseNet.forward")
    out["nets.DenseNet.backward.computed_flops_per_call"] = per("backward_flops", "nets.DenseNet.backward")
    out["survival.concordance_index.computed_pairs_per_call"] = per("cindex_pairs", "survival.concordance_index")
    out["survival.cox.computed_pairs_per_call"] = per("cox_pairs", "survival.cox_loss", "survival.cox_loss_grad")
    # every training batch, stage 1 or fusion, takes exactly one Cox gradient
    batches = calls["survival.cox_loss_grad"]
    out["nets.GradientSet.computed_allocs_per_batch"] = (
        calls["nets.GradientSet.zeros_like"] / batches if batches else 0.0)
    run = sum(w.epochs_run for w in works)
    out["pipeline.useful_epoch_ratio"] = sum(w.best_epochs for w in works) / run if run else 0.0
    for module, names in LAYERS.items():
        out[f"setup.{module}.self_s"] = sum(setup_stats[0].get(f"{module}.{n}", (0, 0.0, 0.0))[2]
                                            for n in names)
    out["traced_wall_s"] = median(walls)
    out["tracing_overhead_s"] = median(walls) - ref_wall
    return out


def delta(after, before):
    stats = {k: tuple(a - b for a, b in zip(v, before[0].get(k, (0, 0.0, 0.0))))
             for k, v in after[0].items()}
    counts = {k: v - before[1].get(k, 0) for k, v in after[1].items()}
    return stats, counts


def set_up(setup, seed: int, workdir: str, tr=None):
    """Run the set-up SETUP_REPEATS times; trace the last one when given a tracer."""
    from workloads import Work
    import tracer
    works, walls, traced, absent = [], [], ({}, {}), []
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        if tr is not None and last:
            undo, absent = tracer.install(tr)
        work = Work()
        t0 = time.perf_counter()
        state = setup(seed, workdir, work)
        walls.append(time.perf_counter() - t0)
        works.append(work)
        if tr is not None and last:
            traced = tr.snapshot()
            tracer.restore(undo)
    return state, works, walls, traced, absent


def timed_run(args, setup, unit, workdir: str):
    state, setups, setup_walls, _, _ = set_up(setup, args.seed, workdir)
    works, walls = run_units(unit, state, args.seconds)
    metrics = end_to_end(works, walls, setups, setup_walls, import_seconds())
    # Printed but not in the JSON: error_rate reads 0 on a healthy run, and the
    # training rates spread up to 28% between seeds where set-up times them.
    for name, unit in UNGATED:
        print(f"metric {name} = {metrics.pop(name)!r} {unit} (not gated)")
    print(f"units {len(walls)} walls_s {walls!r} setup_walls_s {setup_walls!r}")
    return metrics, output_checks(works), works


def traced_run(args, setup, unit, workdir: str):
    """Untraced first unit as the reference, then traced units and the call self-check."""
    import tracer
    from workloads import EXPECT_CALLS, Work
    tr = tracer.Tracer()
    state, setups, setup_walls, setup_stats, absent = set_up(setup, args.seed, workdir, tr)
    ref = Work()
    t0 = time.perf_counter()
    unit(state, ref)
    ref_wall = time.perf_counter() - t0
    deltas = []

    def traced_unit(state, work):
        before = tr.snapshot()
        unit(state, work)
        deltas.append(delta(tr.snapshot(), before))

    undo, _ = tracer.install(tr)
    try:
        works, walls = run_units(traced_unit, state, args.seconds - ref_wall, minimum=1)
    finally:
        tracer.restore(undo)
    problems = output_checks([ref] + works)
    must, must_not = EXPECT_CALLS[args.workload]
    for name in tracer.traced_names():
        calls = deltas[0][0].get(name, (0,))[0]
        if name in absent:
            print(f"absent {name}: no longer defined, reported as 0")
        elif name in must and calls == 0:
            problems.append(f"{name} recorded no calls but must run in {args.workload}")
        elif name in must_not and calls != 0:
            problems.append(f"{name} recorded {calls} calls but must not run in {args.workload}")
    print(f"units 1+{len(walls)} walls_s {[ref_wall] + walls!r} setup_walls_s {setup_walls!r}")
    return per_layer(deltas, setup_stats, works, walls, ref_wall), problems, [ref] + works


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mmsurv", "__init__.py")):
        print(f"no mmsurv package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    # numpy loads BLAS on first import: only after the thread pinning above
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}, expected one of "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    print("env " + json.dumps(env_block(), sort_keys=True))

    setup, unit = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=os.path.dirname(os.path.abspath(__file__)))
    try:
        measure = traced_run if args.trace else timed_run
        metrics, problems, units = measure(args, setup, unit, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for w in units:
        for err in w.errors:
            print(f"failed {err}")
    if {m["name"] for m in declared} != set(metrics):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted({m['name'] for m in declared} ^ set(metrics))}")
    result = {}
    for m in declared:
        value = metrics.get(m["name"], float("nan"))
        print(f"metric {m['name']} = {value!r} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": sum(w.attempted for w in units),
                      "failed": sum(w.failed for w in units), "metrics": result}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
