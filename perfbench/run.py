"""Benchmark of the mmpass pipeline.

    python3 perfbench/run.py --workload paper-s --seed 1 --seconds 30 --trace 0

Runs one workload as a single-process, single-thread closed loop: the
next operation starts when the previous one ends, until ``--seconds``
have passed (and, untraced, until the ops that ``sum_rate_mean``
averages over are done).  Every op's output is checked against
invariants and against the committed reference table; an op that fails
a check or raises is counted and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
op twice, untraced and then with spans around the calls into each
layer's public functions, and reports per-layer self time per op,
counts, and the tracing overhead.

Human-readable lines go to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import pin  # noqa: F401  (must run before numpy loads)

import argparse
import ctypes
import glob
import importlib
import inspect
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
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("paper-s", "spare-4x4", "figures")
SETUP_SPAWNS = 5
TAIL_BEYOND = 10

# A fresh process: import the package and build the reference scenario.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from mmpass import config
t1 = time.perf_counter()
config.build_scenario(config.ScenarioConfig())
print(t1 - t0, time.perf_counter() - t1)
"""


class BenchmarkError(Exception):
    """The benchmark cannot run in this checkout."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(n: int) -> dict:
    """Median wall time of ``n`` fresh processes that import mmpass and
    build their first scenario, with the import and build parts."""
    walls, imports, builds = [], [], []
    for _ in range(n):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up process failed:\n{proc.stderr}")
        import_s, build_s = (float(v) for v in proc.stdout.split())
        imports.append(import_s)
        builds.append(build_s)
    return {"wall": statistics.median(walls),
            "import": statistics.median(imports),
            "build": statistics.median(builds)}


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return str(getattr(lib, sym)())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment() -> str:
    import numpy as np
    import scipy
    affinity = len(os.sched_getaffinity(0))
    return (f"nproc={os.cpu_count()} affinity={affinity} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas_threads={blas_threads()}")


@dataclass
class Record:
    key: str
    seconds: float
    problems: list
    sum_rate: float
    placed: int


def run_one(wl, op, reference, out_dir, warned) -> Record:
    """Run and check one op; an op that raises is a failed op."""
    elapsed, result = 0.0, None
    with warned:
        try:
            inputs = wl.prepare(op)
            t0 = time.perf_counter()
            try:
                result = wl.run(op, inputs, out_dir)
            finally:
                elapsed = time.perf_counter() - t0
            problems = wl.check(op, inputs, result, reference)
        except Exception:  # the run goes on and counts the failure
            problems = [traceback.format_exc()]
    if problems:
        return Record(op.key, elapsed, problems, 0.0, 0)
    return Record(op.key, elapsed, problems, wl.sum_rate(result),
                  wl.placed(result))


def run_traced(wl, op, reference, out_dir, tracer, warned) -> Record:
    install_spans(tracer)
    try:
        return run_one(wl, op, reference, out_dir, warned)
    finally:
        tracer.restore()


def closed_loop(wl, reference, out_dir, seed, seconds, min_ops=1,
                tracer=None):
    """Run the seed's op stream until ``seconds`` have passed and
    ``min_ops`` ops are done, stopping at the end of a drop.  With a
    tracer, every op also runs with spans installed, right before or
    after its untraced run, so the traced and untraced times of one op
    are measured back to back."""
    from tracer import WarningCounter
    plain, traced = [], []
    plain_warned = WarningCounter()
    traced_warned = WarningCounter(lambda: tracer.current)
    start = time.perf_counter()
    for i, op in enumerate(wl.ops(seed)):
        # alternate which of the pair runs first: the second run of an
        # op finds its inputs warm
        if tracer is not None and i % 2:
            traced.append(run_traced(wl, op, reference, out_dir, tracer,
                                     traced_warned))
        plain.append(run_one(wl, op, reference, out_dir, plain_warned))
        if tracer is not None and not i % 2:
            traced.append(run_traced(wl, op, reference, out_dir, tracer,
                                     traced_warned))
        if (len(plain) % wl.ops_per_drop == 0 and len(plain) >= min_ops
                and time.perf_counter() - start >= seconds):
            break
    return plain, traced, traced_warned


def tail(times):
    """(value, rank) of the highest rank with at least TAIL_BEYOND ops
    above it; with fewer ops, the rank with the most above it."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], rank


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(wl, records, setup) -> dict:
    times = [r.seconds for r in records]
    n = len(times)
    # the median is taken over drops: the schemes of one drop differ
    # twofold in cost, and a median of single ops falls between them
    k = wl.ops_per_drop
    drop_means = [statistics.fmean(times[i:i + k]) for i in range(0, n, k)]
    p50 = statistics.median(drop_means)
    tail_s, rank = tail(times)
    quality = records[:wl.quality_ops]
    failed = sum(1 for r in records if r.problems)
    print(f"ops={n} drops={len(drop_means)} op_s_p50={p50:.4f} "
          f"op_s_tail={tail_s:.4f} at p{100 * rank / n:.1f} of n={n} "
          f"({n - rank} ops beyond)")
    print(f"sum_rate_mean over the first {len(quality)} ops")
    return {
        "setup_s": metric(setup["wall"], "s"),
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "op_s_p50": metric(p50, "s"),
        "op_s_tail": metric(tail_s, "s"),
        "sum_rate_mean": metric(statistics.fmean(r.sum_rate for r in quality),
                                "bit/s/Hz"),
        "ok_frac": metric(1.0 - failed / len(records), "frac"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _fp_counts(tracer, args, kwargs, result):
    from mmpass import multiuser
    bound = inspect.signature(multiuser.fp_precoding).bind(*args, **kwargs)
    bound.apply_defaults()
    iters = len(result[1])
    tracer.counts["fp.iters"] += iters
    tracer.counts["fp.capped"] += iters >= bound.arguments["max_iter"]


def _fallback(tracer, args, kwargs, result):
    tracer.counts["placement.fallbacks"] += bool(result.used_fallback)


def _points(tracer, args, kwargs, result):
    tracer.counts["radiation.points"] += int(result.size)


def _trials(tracer, args, kwargs, result):
    tracer.counts["outage.trials"] += int(result.metadata["trials"])


def _export(tracer, args, kwargs, result):
    tracer.counts["export.bytes"] += os.path.getsize(result)
    tracer.counts["export.rows"] += len(args[0].rows)


# span name -> (defining module, attribute path, counts hook); every
# other binding of the same function in mmpass is swapped too
SPANS = {
    "multiuser.optimize_scenario":
        ("mmpass.multiuser", "optimize_scenario", None),
    "multiuser.group_users": ("mmpass.multiuser", "group_users", None),
    "multiuser.hungarian_assign":
        ("mmpass.multiuser", "hungarian_assign", None),
    "multiuser.fp_precoding":
        ("mmpass.multiuser", "fp_precoding", _fp_counts),
    "placement.two_user_shared_position":
        ("mmpass.placement", "two_user_shared_position", _fallback),
    "placement.solve_single_user":
        ("mmpass.placement", "solve_single_user", None),
    "channel.assemble": ("mmpass.channel", "assemble", None),
    "channel.rate_report": ("mmpass.channel", "rate_report", None),
    "radiation.intensity_map":
        ("mmpass.radiation", "intensity_map", _points),
    "bench.run_field_map": ("mmpass.bench", "run_field_map", None),
    "bench.run_outage": ("mmpass.bench", "run_outage", _trials),
    "bench.ExperimentResult.write_csv":
        ("mmpass.bench", "ExperimentResult.write_csv", _export),
}


def install_spans(tracer):
    for name, (module, path, hook) in SPANS.items():
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        tracer.patch(owner, attr, name, on_result=hook)


def per_layer(tracer, records, warned, untraced, setup) -> dict:
    n = len(records)
    calls = tracer.calls

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in SPANS:
        out[f"{name}.self_s"] = metric(tracer.self_s[name] / n, "s/op")
    for name in ("placement.two_user_shared_position",
                 "placement.solve_single_user", "multiuser.group_users",
                 "multiuser.hungarian_assign", "multiuser.fp_precoding"):
        out[f"{name}.calls"] = metric(calls[name] / n, "1/op")
    two_user = "placement.two_user_shared_position"
    fp = "multiuser.fp_precoding"
    out.update({
        f"{two_user}.fallback_frac": metric(
            ratio(tracer.counts["placement.fallbacks"], calls[two_user]),
            "frac"),
        f"{two_user}.warnings": metric(warned.total(layer=two_user) / n,
                                       "1/op"),
        "multiuser.greedy_fill.placed": metric(
            statistics.fmean(r.placed for r in records), "1/op"),
        f"{fp}.iters_mean": metric(
            ratio(tracer.counts["fp.iters"], calls[fp]), "count"),
        f"{fp}.capped_frac": metric(
            ratio(tracer.counts["fp.capped"], calls[fp]), "frac"),
        "radiation.intensity_map.points": metric(
            tracer.counts["radiation.points"] / n, "1/op"),
        "bench.run_outage.trials": metric(
            tracer.counts["outage.trials"] / n, "1/op"),
        "bench.ExperimentResult.write_csv.bytes": metric(
            tracer.counts["export.bytes"] / n, "B/op"),
        "bench.ExperimentResult.write_csv.rows": metric(
            tracer.counts["export.rows"] / n, "1/op"),
        "setup.import_s": metric(setup["import"], "s"),
        "config.build_scenario.self_s": metric(setup["build"], "s"),
        "warnings.total": metric(warned.total() / n, "1/op"),
        "trace.op_s_mean": metric(
            statistics.fmean(r.seconds for r in records), "s/op"),
        "trace.overhead_frac": metric(
            sum(r.seconds for r in records)
            / sum(r.seconds for r in untraced) - 1.0, "frac"),
    })
    op_s = out["trace.op_s_mean"]["value"]
    for name in SPANS:
        share = out[f"{name}.self_s"]["value"] / op_s
        if share > 0:
            print(f"self {name:40s} {100 * share:6.2f}% of op time")
    for (category, layer), count in sorted(warned.counts.items()):
        print(f"warnings {category} from {layer}: {count / n:.1f}/op")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmpass" / "__init__.py").is_file():
        print(f"no mmpass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        setup = measure_setup(SETUP_SPAWNS)
        import mmpass
        if Path(mmpass.__file__).resolve().parent != SRC / "mmpass":
            raise BenchmarkError(f"imported mmpass from {mmpass.__file__}")
        from tracer import Tracer
        from workloads import WORKLOADS, load_reference
        wl = WORKLOADS[args.workload]()
        reference = load_reference(args.workload)
    except (BenchmarkError, ImportError, OSError,
            subprocess.SubprocessError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(f"env {environment()}")
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"setup_s={setup['wall']:.4f} (median of {SETUP_SPAWNS})")

    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            tracer = Tracer()
            untraced, records, warned = closed_loop(
                wl, reference, out_dir, args.seed, args.seconds,
                tracer=tracer)
            metrics = per_layer(tracer, records, warned, untraced, setup)
            records = untraced + records
        else:
            records, _, _ = closed_loop(wl, reference, out_dir, args.seed,
                                        args.seconds, wl.quality_ops)
            metrics = end_to_end(wl, records, setup)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = [r for r in records if r.problems]
    for r in failed:
        print(f"FAILED op {r.key}: " + "; ".join(r.problems), file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
