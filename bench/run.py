"""Benchmark of the multispec pipeline: census, deep and hunt workloads.

    python3 bench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run it from the repository root; the package is imported from ./src. A
run sets up three times (imports once; inputs, store and one untimed
warm-up operation each time), then runs whole passes over the seed's
inputs for about --seconds, then checks the outputs of the first pass
and requires every later pass to reproduce them exactly.

With --trace 0 the last line of output holds the end-to-end metrics;
with --trace 1 passes alternate between untraced and traced, and it
holds the per-layer metrics of the traced passes. The line before it
is a detail record: per-kind latency percentiles, failures by type,
the non-finite share of spectrum entries, and the machine. The exit
code is 1 when a correctness check fails, 2 when the package cannot be
imported from ./src.
"""

import os
import sys
import time

_STARTED = time.perf_counter()
# One BLAS thread, fixed before numpy loads. The only BLAS work is the
# Sylvester slogdet in poly._finalize; with two OpenBLAS threads the
# census burns about twice its wall time in CPU on two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUPS = 3
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it


def load_package():
    """Import multispec from ./src, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import multispec

    where = Path(multispec.__file__).resolve().parent
    if where != src / "multispec":
        raise ImportError(f"multispec came from {where}, not {src}")


def latency(samples_ms):
    """Median and the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered)}
    if n >= 2 * TAIL_BEYOND:  # otherwise the "tail" would sit below the median
        out["tail"] = ordered[n - TAIL_BEYOND - 1]
        out["tail_pct"] = round(100.0 * (n - TAIL_BEYOND) / n, 1)
    return out


def machine():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run(name, seed, seconds, trace, size=None, import_s=0.0, out=sys.stdout):
    """One benchmark run; prints the detail and result lines, returns the exit code."""
    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        return _run(name, seed, seconds, trace, size, import_s, work_dir, out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(name, seed, seconds, trace, size, import_s, work_dir, out):
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](size or workloads.FULL)
    tracer = tracing.Tracer() if trace else None

    setup_runs = []
    for _ in range(SETUPS):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            inputs = workload.setup(seed, work_dir)
        finally:
            setup_runs.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()

    # whole passes, stopping at the pass boundary nearest to `seconds`;
    # a traced run alternates untraced and traced passes and needs one
    # of each
    passes = []  # (traced, ops, wall_s, digest)
    started = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.phase = "timed"
            tracer.install()
        try:
            ops, wall, store = workload.run_pass(inputs, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
                tracer.phase = "idle"
        passes.append((traced, ops, wall, workloads.digest(ops, store)))
        if (time.perf_counter() - started + wall / 2 >= seconds
                and len(passes) >= (2 if trace else 1)):
            break

    verdict = workload.check(inputs, passes[0][1])
    problems = list(verdict.problems)
    digests = sorted({p[3] for p in passes})
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} distinct output digests")

    plain = [p for p in passes if not p[0]]
    ops = [op for p in plain for op in p[1]]
    wall = sum(p[2] for p in plain)
    attempted = len(passes[0][1]) * len(passes)
    failed = sum(1 for reason in verdict.failed if reason) * len(passes)
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(1000.0 * op.seconds)

    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "ops_per_pass": len(passes[0][1]),
        "pass_s": [p[2] for p in passes],
        "ref_ms": [1000.0 * statistics.median(op.ref for op in p[1]) for p in passes],
        "wall_s": wall,
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "store_bytes": len(getattr(inputs, "template", b"")),
        "latency_ms": {kind: latency(v) for kind, v in sorted(by_kind.items())},
        # failed ops, and ops that completed with a non-finite spectrum entry
        "failed_frac": (failed + verdict.nonfinite_ops * len(passes)) / attempted,
        "nonfinite_frac": verdict.nonfinite / verdict.entries if verdict.entries else 0.0,
        "failures": dict(Counter(reason for reason in verdict.failed if reason)),
        "problems": problems[:20],
        "defects": verdict.defects[:20],
        "digest": digests[0][:16],
        "machine": machine(),
    }

    if trace:
        traced_passes = [p for p in passes if p[0]]
        op_seconds = sum(op.seconds for p in traced_passes for op in p[1])
        overhead = (statistics.median(p[2] for p in traced_passes)
                    - statistics.median(p[2] for p in plain))
        values, error_types = tracing.layer_metrics(
            tracer, len(traced_passes), SETUPS, op_seconds, overhead)
        detail["errors_by_type"] = error_types
        detail["spans_file"] = str((WORK / f"spans-{name}-{seed}.jsonl").relative_to(ROOT))
        tracer.write(WORK / f"spans-{name}-{seed}.jsonl")
        metrics = {n: {"value": values[n], "unit": unit}
                   for n, unit, _ in tracing.per_layer_table()}
    else:
        # op times at the machine's nominal speed: each pass is scaled by
        # the reference kernel's nominal time over its median in that pass
        scaled_ms, scaled_pass_s = [], []
        for _, pass_ops, _, _ in plain:
            scale = workloads.REF_NOMINAL_S / statistics.median(op.ref for op in pass_ops)
            scaled_ms += [1000.0 * op.seconds * scale for op in pass_ops]
            scaled_pass_s.append(sum(op.seconds for op in pass_ops) * scale)
        pass_s = statistics.median(scaled_pass_s)  # every pass does the same work
        detail["points_per_s"] = sum(verdict.points) / pass_s
        detail["op_ms_p50"] = statistics.median(scaled_ms)
        detail["op_ms_raw_p50"] = statistics.median(1000.0 * op.seconds for op in ops)
        detail["ops_per_s_raw"] = len(ops) / sum(op.seconds for op in ops)
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_runs), "unit": "s"},
            "ops_per_s": {"value": len(passes[0][1]) / pass_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    print(json.dumps({"detail": detail}), file=out)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), file=out)
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("census", "deep", "hunt"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        load_package()
        import tracing  # noqa: F401  (imported here so set-up time counts it)
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    return run(args.workload, args.seed, args.seconds, args.trace, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
