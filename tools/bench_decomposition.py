"""Time surface building, validation, the cylinder decompositions, the core crossing
count and the symmetry check over genus and precision.

Usage, from the repository root:

    python3 tools/bench_decomposition.py [OUT [BASELINE]]

For every (genus, precision) pair it times, in one fresh run, building the
double-(2g+1)-gon surface (validation included), validating it again with the
validation memo cleared, the horizontal decomposition, the vertical
decomposition, ``derive_intersection_matrix`` and ``hyperelliptic_symmetry``;
the last two run on the decompositions just made, so they time the crossing
count and the symmetry matching alone.  The validation memo and the
decomposition cache are cleared before each run.  It records the median of
``RUNS`` runs in wall-clock seconds, the machine, the Python and mpmath
versions and mpmath's backend, and the least-squares exponent of time against
genus between ``FIT[0]`` and ``FIT[1]``.  The result goes to OUT (default
``BENCH_decomposition.json`` in the repository root).  BASELINE, a result file
this script wrote for an earlier commit, is copied into OUT under ``baseline``
so that one file holds before and after numbers.
"""

import json
import math
import os
from pathlib import Path
import platform
import statistics
import sys
import time

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402

from lamkit import curves, flat_surface  # noqa: E402

# every genus up to 16, then a ladder to 64; the large genera dominate the run time
GENERA = tuple(range(2, 17)) + (20, 24, 28, 32, 40, 48, 56, 64)
PRECISIONS = (128, 1024)
RUNS = 5
FIT = (24, 64)
STAGES = ("build", "validate", "decompose_h", "decompose_v", "crossings", "symmetry")


def one_run(genus, bits):
    """Seconds of each stage, in ``STAGES`` order, on a surface no cache has seen."""
    flat_surface._validated.cache_clear()
    flat_surface._decomposition_cached.cache_clear()
    seconds = []

    def timed(call, *args):
        start = time.perf_counter()
        result = call(*args)
        seconds.append(time.perf_counter() - start)
        return result

    surface = timed(flat_surface.build_double_polygon, genus, bits)
    flat_surface._validated.cache_clear()
    timed(flat_surface.validate, surface)
    timed(flat_surface.cylinder_decomposition, surface, flat_surface.HORIZONTAL)
    timed(flat_surface.cylinder_decomposition, surface, flat_surface.VERTICAL)
    timed(curves.derive_intersection_matrix, surface)
    timed(flat_surface.hyperelliptic_symmetry, surface)
    return seconds


def exponent(points):
    """Least-squares slope of log(seconds) against log(size) over (size, seconds) points."""
    xs = [math.log(g) for g, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def environment():
    """The machine, the Python and mpmath versions and mpmath's backend."""
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def main(out, baseline=None):
    results = {}
    for bits in PRECISIONS:
        rows = []
        for g in GENERA:
            runs = [one_run(g, bits) for _ in range(RUNS)]
            medians = {name: statistics.median(r[k] for r in runs) for k, name in enumerate(STAGES)}
            rows.append({"genus": g, **{f"{name}_s": round(t, 6) for name, t in medians.items()}})
            print(bits, g, " ".join(f"{name} {t:.4f}" for name, t in medians.items()), flush=True)
        fit = [row for row in rows if FIT[0] <= row["genus"] <= FIT[1]]
        results[str(bits)] = {
            "rows": rows,
            "exponent": {
                name: round(exponent([(r["genus"], r[f"{name}_s"]) for r in fit]), 3)
                for name in STAGES
            },
        }
    doc = {
        "topic": "decomposition",
        "unit": "wall-clock seconds, median of runs",
        "runs": RUNS,
        "genera": list(GENERA),
        "precision_bits": list(PRECISIONS),
        "exponent_fit_genera": list(FIT),
        "environment": environment(),
        "results": results,
    }
    if baseline:
        doc["baseline"] = json.loads(Path(baseline).read_text())
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(*(sys.argv[1:3] or [ROOT / "BENCH_decomposition.json"]))
