"""lamkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from a checkout of the repository; the package is imported from its
``src`` directory.  One closed-loop client runs whole cycles of the workload's
operations back to back until ``--seconds`` seconds have passed, timing each call into the
package from outside and checking each output after the timed interval.
Inputs come only from ``--seed``.  ``--workload all`` runs every workload in
a child process and prints one table.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones.  Times in them are speed-scaled: each is
the measured time multiplied by the machine-speed scale of ``speed.py``
(reference time / measured reference time around it), so that the drift of a
shared machine between runs cancels.  The wall-clock figures are printed
beside them and kept in the run's report.

* ``ops_per_s``: operations per second of operation time (checks excluded),
  over whole cycles of the workload's stated mix;
* ``latency_p50_ms``, ``latency_p90_ms``: per-operation latency percentiles
  (Harrell-Davis estimates, see ``quantile``);
* ``setup_s``: median over fresh child processes of the time from process
  start to the first operation (interpreter start, ``import lamkit`` and the
  workload's set-up), each scaled by reference timings taken just before and
  after it;
* ``peak_rss_mb``: peak resident set of this process when its first cycle
  ends, so that it covers the same work however fast the operations run
  (the decomposition cache grows with every cold-geometry operation).

With ``--trace 1`` every operation runs twice, once plainly and once with
spans recorded around each call into a package layer (see ``spans.py``), in
alternating order; the metrics are the per-layer ones computed from the
traced copies, and ``trace.overhead_pct`` compares the two copies' time.

Every run also writes ``perfbench/out/<workload>-seed<N>-trace<T>.json``
with the environment, the metrics, the workload properties and, for traced
runs, the spans.
"""

import argparse
from contextlib import nullcontext
import importlib
import json
import math
import os
from pathlib import Path
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from speed import REFERENCE_S, SpeedGauge  # noqa: E402
from spans import LAYERS, SPAN_FIELDS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed, InputsExhausted  # noqa: E402

SETUP_PROBES = 7
SETUP_GAUGE_SAMPLES = 4  # reference timings before and after each set-up probe
P90_TAIL = 10  # samples the p90 needs beyond it

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.busy_s": "s", f"{_layer}.errors": "count"})
PER_LAYER.update({
    "flat_surface.build_s": "s",
    "flat_surface.decompose_h_s": "s",
    "flat_surface.decompose_v_s": "s",
    "flat_surface.symmetry_s": "s",
    "flat_surface.json_s": "s",
    "flat_surface.strips": "count",
    "flat_surface.decompose_repeat_share": "ratio",
    "flat_surface.decompose_v_exponent": "1",
    "curves.crossings_s": "s",
    "curves.segment_pairs": "count",
    "affine.generators_s": "s",
    "affine.word_eval_s": "s",
    "affine.classify_s": "s",
    "affine.word_letters": "count",
    "affine.max_mantissa_bits": "bits",
    "traintrack.weights_s": "s",
    "dynamics.iterate_s": "s",
    "dynamics.iterate_steps": "count",
    "dynamics.limit_s": "s",
    "dynamics.decay_fit_s": "s",
    "dynamics.circle_s": "s",
    "dynamics.foliation_samples": "count",
    "obstruction.heights_s": "s",
    "obstruction.witness_s": "s",
    "obstruction.genericity_s": "s",
    "obstruction.ratio_tests": "count",
    "amalgam.parse_s": "s",
    "amalgam.reduce_s": "s",
    "amalgam.classify_s": "s",
    "amalgam.letters": "count",
    "amalgam.syllables_out": "count",
    "cli.main_s": "s",
    "cli.output_bytes": "bytes",
    "cli.nonzero_exits": "count",
    "trace.overhead_pct": "%",
})


def import_lamkit():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lamkit" / "__init__.py").is_file():
        sys.exit(f"error: no lamkit package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    lamkit = importlib.import_module("lamkit")
    if Path(lamkit.__file__).resolve().parent != (src / "lamkit").resolve():
        sys.exit(f"error: imported lamkit from {lamkit.__file__}, not from {src}")
    for layer in LAYERS:
        importlib.import_module(f"lamkit.{layer}")
    return lamkit


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(lamkit):
    import mpmath
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "lamkit": lamkit.__version__,
        "git_commit": git_commit(),
        "LAMKIT_PRECISION": os.environ.get("LAMKIT_PRECISION"),
    }


def make_workload(name, lamkit, seed):
    OUT.mkdir(exist_ok=True)
    return WORKLOADS[name](lamkit, random.Random(f"{name}:{seed}"), OUT)


def setup_probe(args):
    """Child of ``measure_setup``: set up, report the monotonic clock, exit."""
    make_workload(args.workload, import_lamkit(), args.seed)
    print(repr(time.monotonic()), flush=True)


def measure_setup(args):
    """Median time from spawning a fresh interpreter to the end of set-up,
    wall-clock and scaled by the reference timings taken around each probe."""
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-probe"]
        gauge = SpeedGauge()
        for _ in range(SETUP_GAUGE_SAMPLES):
            gauge.sample()
        start = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
        for _ in range(SETUP_GAUGE_SAMPLES):
            gauge.sample()
        scaled.append(times[-1] * gauge.scale(SETUP_GAUGE_SAMPLES - 1))
    return statistics.median(times), statistics.median(scaled)


class Record:
    __slots__ = ("op", "op_id", "seconds", "scale", "traced", "counters", "error")

    def __init__(self, op, op_id, traced):
        self.op, self.op_id, self.traced = op, op_id, traced
        self.seconds, self.scale, self.counters, self.error = 0.0, 1.0, {}, None


def execute(workload, op, op_id, tracer):
    """Run one operation (timed), then check its output (not timed)."""
    record = Record(op, op_id, tracer is not None)
    context = tracer.active(op_id) if tracer else nullcontext()
    try:
        with context:
            start = time.perf_counter()
            try:
                result = workload.run(op)
            finally:
                record.seconds = time.perf_counter() - start
        record.counters = workload.check(op, result)
    except CheckFailed as exc:
        record.error = f"check failed: {exc}"
    except Exception as exc:  # an operation that raises is a failure, not an abort
        record.error = f"raised {type(exc).__name__}: {exc}"
    return record


def run_loop(workload, seconds, tracer):
    """Closed loop, one client, whole cycles until ``seconds`` have passed.

    Untraced runs time the reference computation of ``speed.py`` before
    each operation and after the last, and give each record its scale.
    Traced runs pair each operation with a twin and trace one of the two,
    alternating which goes first.  A workload that runs out of fresh inputs
    ends the run after its last whole cycle.
    """
    records = []
    gauge = SpeedGauge()
    peak_rss_mb = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if records and peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            ops = workload.cycle()
            if tracer is not None:
                ops = [(op, workload.twin(op)) for op in ops]
        except InputsExhausted as exc:
            print(f"inputs exhausted, run ends early: {exc}")
            break
        for op in ops:
            if tracer is None:
                gauge.sample()
                records.append(execute(workload, op, len(records) + 1, None))
                continue
            pair = [(op[0], None), (op[1], tracer)]
            if len(records) % 4 == 2:
                pair.reverse()
            for item, maybe_tracer in pair:
                records.append(execute(workload, item, len(records) + 1, maybe_tracer))
    wall_s = time.perf_counter() - start
    if tracer is None:
        gauge.sample()
        for i, record in enumerate(records):
            record.scale = gauge.scale(i)
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return records, wall_s, peak_rss_mb


def quantile(values, p):
    """The Harrell-Davis estimate of the ``p`` quantile of ``values``.

    It averages the order statistics with Beta((n+1)p, (n+1)(1-p)) weights
    instead of reading one or two of them, so a quantile that falls between
    two genera of cold-geometry, far apart in cost, does not jump with the
    noise of single operations.  Weights more than 8 standard deviations of
    the quantile from it are below 1e-14 and are left out.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    reach = 8 * math.sqrt(p * (1 - p) / n) + 2 / n
    lo, hi = max(0, math.floor((p - reach) * n)), min(n, math.ceil((p + reach) * n))
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(lo, hi + 1)]
    return sum((cdf[j + 1] - cdf[j]) * xs[lo + j] for j in range(hi - lo))


def end_to_end_metrics(records, setup_s, peak_rss_mb, scaled=True):
    latencies = [r.seconds * (r.scale if scaled else 1.0) for r in records]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * quantile(latencies, 0.5),
        "latency_p90_ms": 1000 * quantile(latencies, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(records, tracer):
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    metrics = layer_metrics(tracer.spans, {r.op_id: r.op.genus for r in traced})
    for r in traced:
        for name, value in r.counters.items():
            if name == "affine.max_mantissa_bits":
                metrics[name] = max(metrics.get(name, 0), value)
            else:
                metrics[name] = metrics.get(name, 0) + value
    for name in PER_LAYER:
        metrics.setdefault(name, 0)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.overhead_pct"] = 100 * (traced_s / sum(r.seconds for r in plain) - 1)
    busy = sum(metrics[f"{layer}.busy_s"] for layer in LAYERS)
    return metrics, busy, traced_s


def run_workload(args):
    lamkit = import_lamkit()
    env = environment(lamkit)
    setup_wall_s, setup_s = (None, None) if args.trace else measure_setup(args)
    tracer = Tracer(lamkit) if args.trace else None
    with tracer.active(0) if tracer else nullcontext():
        workload = make_workload(args.workload, lamkit, args.seed)
    records, wall_s, peak_rss_mb = run_loop(workload, args.seconds, tracer)

    failures = [r for r in records if r.error]
    correct = not failures
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          "  (closed loop, one client)")
    print("env " + json.dumps(env, sort_keys=True))
    wall = None
    if args.trace:
        metrics, busy, traced_s = per_layer_metrics(records, tracer)
        units = PER_LAYER
        self_time_ok = busy <= traced_s <= wall_s
        correct = correct and self_time_ok
        print(f"layer self time {busy:.4f} s of {traced_s:.4f} s traced operation time "
              f"({wall_s:.4f} s wall): {'ok' if self_time_ok else 'EXCEEDS WALL TIME'}")
    else:
        metrics = end_to_end_metrics(records, setup_s, peak_rss_mb)
        wall = end_to_end_metrics(records, setup_wall_s, peak_rss_mb, scaled=False)
        units = END_TO_END
        scales = [r.scale for r in records]
        print(f"speed scale (reference {REFERENCE_S * 1000:g} ms / measured): median "
              f"{statistics.median(scales):.4f}, range {min(scales):.4f}-{max(scales):.4f}")
        for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s"):
            print(f"wall-clock {name:29s} {wall[name]:.6g} {units[name]}")
        tail = len(records) - int(0.9 * len(records))
        print(f"samples {len(records)}, {tail} beyond p90"
              + ("" if tail >= P90_TAIL else f" (fewer than {P90_TAIL}: p90 not resolved)"))
        print(f"error_rate {len(failures) / len(records):.6g} ratio ({len(failures)} of {len(records)})")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    properties = workload.properties([r.op for r in records])
    for name, value in properties.items():
        print(f"property {name} {json.dumps(value)}")
    for r in failures[:5]:
        print(f"failure op {r.op_id} {r.op.stratum}: {r.error}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "result": result, "properties": properties,
        "failures": [f"op {r.op_id} {r.op.stratum}: {r.error}" for r in failures],
        "wall_clock_metrics": wall,
    }
    if tracer:
        report["span_fields"] = SPAN_FIELDS
        report["spans"] = tracer.spans
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report) + "\n")
    print(json.dumps(result))


def run_all(args):
    """Every workload in a child process, one table."""
    rows = []
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((name, "attempted", result["attempted"], "count"))
        if not args.trace:
            rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "correct", result["correct"], "bool"))
    for name, metric, value, unit in rows:
        print(f"{name:20s} {metric:40s} {value:.6g} {unit}" if not isinstance(value, bool)
              else f"{name:20s} {metric:40s} {value} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
