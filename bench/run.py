"""Benchmark for quonalg: time to a verified exact answer, per workload.

    python3 bench/run.py --workload det-oracle --seed 1 --seconds 30 --trace 0

One process, one client, closed loop, no threads.  A run imports quonalg
from this checkout's ``src/`` and repeats timed passes over the workload's
seeded task list while another pass fits in ``--seconds``; every pass starts
from a fresh import, so the library's module-level caches start cold.  Every
task's result is checked exactly inside the timed pass; a mismatch or an
exception is counted as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s`` sum,
over the tasks of a pass, each task's median time over the run's passes;
``setup_s`` is the median over set-ups.  ``--trace 1`` spends half the budget
on untraced passes, then makes one pass with the layers wrapped (see
tracing.py), reports per-layer self times, call counts and exact sizes, and
writes the spans to ``.bench_out/<workload>.spans.tsv.gz``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up takes about 10-40 ms, and on a shared machine the speed can change
# every few seconds, so set-up is sampled in batches spread over the whole
# run: at its start and end, and between tasks once SETUP_GAP seconds have
# passed since the last batch.  The pass clock stops while a batch runs.
SETUP_BATCH = 3
SETUP_GAP = 2.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Span names whose self time is reported; a name also covers its labelled
# sub-spans (gram.build_gram covers gram.build_gram.operator, ...).
SELF_TIMED = (
    "linalg.poly_det",
    "linalg.rational_det",
    "linalg.leading_minors",
    "group_algebra.cinv_sum",
    "group_algebra.rep_matrix",
    "group_algebra.ga_mul",
    "exact_arith.poly_gcd",
    "formulas.det_closed_form",
    "formulas.inverse_closed_form",
    "formulas.verify_inverse",
    "quon_engine.cosym_expectation",
    "quon_engine.vacuum_expectation",
    "quon_engine.apply_annihilator",
    "gram.build_gram",
    "gram.build_gram.operator",
    "gram.build_gram.combinatorial",
    "colored_perm.enumerate_arrangements",
    "posdef.evaluate_block",
    "posdef.certify_block",
    "benchmark.task",
)
CALL_COUNTED = (
    "linalg.leading_minors",
    "group_algebra.ga_mul",
    "exact_arith.poly_gcd",
    "quon_engine.cosym_expectation",
    "quon_engine.vacuum_expectation",
    "gram.build_gram",
)
# Exact sizes from workloads.py; a workload reports 0 for the ones it lacks.
SIZES = {
    "linalg.block_dim": "count",
    "formulas.det_coeff_bits": "bits",
    "formulas.det_degree": "count",
    "formulas.inverse_terms": "count",
    "formulas.inverse_den_degree_max": "count",
    "gram.block_dim": "count",
    "gram.repeated_mode_share": "ratio",
    "posdef.points": "count",
    "posdef.minor_bits_max": "bits",
}
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in CALL_COUNTED},
    **SIZES,
    "trace.overhead_ratio": "ratio",
}


def fresh_import():
    """Import quonalg from this checkout's src/, with every cache empty."""
    for name in [n for n in sys.modules if n == "quonalg" or n.startswith("quonalg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("quonalg")
    if Path(lib.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"quonalg was imported from {lib.__file__}, not from {SRC}")
    return lib


@dataclass
class PassResult:
    walls: list  # per task, in task order
    cpus: list
    attempted: int
    failed: int
    facts: list

    @property
    def wall(self):
        return sum(self.walls)

    @property
    def cpu(self):
        return sum(self.cpus)


def median_pass(passes, times):
    """Sum over tasks of each task's median time over ``passes``.

    Every pass runs the same tasks in the same order, so this is the time of
    a typical pass; a burst of load from other tenants lands on a few tasks
    of one pass, and each task's median leaves it out.
    """
    return sum(statistics.median(t) for t in zip(*(times(r) for r in passes)))


def run_pass(workload, lib, tasks, tracer=None, between=None):
    """Check every task once; failures are counted, never raised.

    ``between`` runs after each task, outside the pass's wall and CPU time.
    """
    facts = []
    failed = 0
    walls, cpus = [], []
    for task in tasks:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                ok, fact = workload.check(lib, task)
            else:
                tracer.task += 1
                ok, fact = tracer.call("benchmark.task", workload.check, lib, task)
            facts.append(fact)
        except Exception:
            traceback.print_exc()
            ok = False
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        if not ok:
            failed += 1
            print(f"{workload.name}: task {task!r} failed its check", file=sys.stderr)
        if between is not None:
            between()
    result = PassResult(walls, cpus, len(tasks), failed, facts)
    print(
        f"{workload.name}: pass of {len(tasks)} tasks, wall {result.wall:.3f} s,"
        f" cpu {result.cpu:.3f} s, {failed} failed{', traced' if tracer else ''}",
        file=sys.stderr,
    )
    return result


def untraced_passes(workload, setup, budget, between):
    """Fresh-import passes while the next one is expected to fit the budget."""
    results = []
    start = time.perf_counter()
    while True:
        lib, tasks = setup()
        results.append(run_pass(workload, lib, tasks, between=between))
        del lib, tasks
        spent = time.perf_counter() - start
        if spent + statistics.median(r.wall for r in results) > budget:
            return results


def layer_metrics(stats, sizes, overhead):
    def total(name):
        picked = [v for k, v in stats.items() if k == name or k.startswith(name + ".")]
        return sum(c for c, _ in picked), sum(s for _, s in picked)

    values = {f"{name}.self_s": total(name)[1] for name in SELF_TIMED}
    values.update({f"{name}.calls": total(name)[0] for name in CALL_COUNTED})
    values.update({name: sizes.get(name, 0) for name in SIZES})
    values["trace.overhead_ratio"] = overhead
    return {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns the result object printed as the last line."""
    setups = []
    last_batch = 0.0

    def setup():
        gc.collect()  # garbage of the previous import is not set-up work
        start = time.perf_counter()
        lib = fresh_import()
        tasks = workload.make_tasks(seed, lib)
        setups.append(time.perf_counter() - start)
        return lib, tasks

    def setup_batch():
        # A pass in progress keeps its own modules: quonalg imports nothing
        # lazily, so replacing sys.modules does not reach it.
        nonlocal last_batch
        for _ in range(SETUP_BATCH):
            setup()
        gc.collect()
        last_batch = time.perf_counter()

    def between_tasks():
        if time.perf_counter() - last_batch >= SETUP_GAP:
            setup_batch()

    setup_batch()
    budget = seconds / 2 if trace else seconds
    passes = untraced_passes(workload, setup, budget, between_tasks)
    wall_s = median_pass(passes, lambda r: r.walls)
    if trace:
        lib, tasks = setup()
        tracer = Tracer(capture=workload.capture)
        with tracer.installed(lib):
            traced = run_pass(workload, lib, tasks, tracer)
        passes.append(traced)
        sizes = workload.summarize(traced.facts, tracer.captured) if traced.facts else {}
        metrics = layer_metrics(self_times(tracer.spans), sizes, traced.wall / wall_s)
        tracer.write(OUT / f"{workload.name}.spans.tsv.gz")
    else:
        setup_batch()
        values = {
            "wall_s": wall_s,
            "cpu_s": median_pass(passes, lambda r: r.cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    failed = sum(r.failed for r in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in passes),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        fresh_import()
    except ImportError as exc:
        print(f"cannot import quonalg from {SRC}: {exc}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
