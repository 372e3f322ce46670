"""Time surface building, validation, the cylinder decompositions, the core crossing
count and the symmetry check over genus and precision.

Usage, from the repository root:

    python3 tools/bench_decomposition.py [OUT [PARENT]]

For every (genus, precision) pair it times, in one run, building the
double-(2g+1)-gon surface (validation included), validating it again with the
validation memo cleared, the horizontal decomposition, the vertical
decomposition, ``derive_intersection_matrix`` and ``hyperelliptic_symmetry``;
the last two run on the decompositions just made, so they time the crossing
count and the symmetry matching alone.  Each run is a fresh interpreter that
imports lamkit from one tree's ``src``.  It records the median (``<stage>_s``)
and the minimum (``<stage>_min_s``) of ``RUNS`` runs in wall-clock seconds; on a
shared machine the minimum is the steadier of the two.  It also records the
machine, the Python and mpmath versions and mpmath's backend, and the
least-squares exponent of the median time against genus between ``FIT[0]``
and ``FIT[1]``.  The result goes to OUT (default
``BENCH_decomposition.json`` in the repository root).

PARENT, the root of another checkout of this repository (an earlier commit), is
timed in the same sweep: each (genus, precision) pair alternates runs of the two
trees, the first tree switching from run to run, so that machine drift falls on
both alike.  Its numbers go into OUT under ``baseline``.
"""

import json
import math
import os
from pathlib import Path
import platform
import statistics
import subprocess
import sys
import time

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# every genus up to 16, then a ladder to 64; the large genera dominate the run time
GENERA = tuple(range(2, 17)) + (20, 24, 28, 32, 40, 48, 56, 64)
PRECISIONS = (128, 1024)
RUNS = 5
FIT = (24, 64)
STAGES = ("build", "validate", "decompose_h", "decompose_v", "crossings", "symmetry")

# argv: the tree's src, this directory, genus, bits; prints [seconds, lamkit's file]
_WORKER = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from bench_decomposition import one_run
from lamkit import flat_surface
print(json.dumps([one_run(int(sys.argv[3]), int(sys.argv[4])), flat_surface.__file__]))
"""


def one_run(genus, bits):
    """Seconds of each stage, in ``STAGES`` order, on a surface no cache has seen."""
    from lamkit import curves, flat_surface

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


def fresh_run(tree, genus, bits):
    """:func:`one_run` in a fresh interpreter that imports lamkit from ``tree``."""
    src = (tree / "src").resolve()
    argv = [sys.executable, "-c", _WORKER, str(src), str(HERE), str(genus), str(bits)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    seconds, module = json.loads(done.stdout)
    if not Path(module).resolve().is_relative_to(src):
        raise RuntimeError(f"lamkit was imported from {module}, not from {src}")
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


def results(rows):
    """Per precision, the rows of one tree and the fitted exponent of each stage."""
    fitted = {}
    for bits, table in rows.items():
        fit = [row for row in table if FIT[0] <= row["genus"] <= FIT[1]]
        fitted[str(bits)] = {
            "rows": table,
            "exponent": {
                name: round(exponent([(r["genus"], r[f"{name}_s"]) for r in fit]), 3)
                for name in STAGES
            },
        }
    return fitted


def main(out, parent=None):
    trees = [ROOT] + ([Path(parent)] if parent else [])
    rows = [{bits: [] for bits in PRECISIONS} for _ in trees]
    for bits in PRECISIONS:
        for g in GENERA:
            runs = [[] for _ in trees]
            for r in range(RUNS):
                for t in [(k + r) % len(trees) for k in range(len(trees))]:
                    runs[t].append(fresh_run(trees[t], g, bits))
            for t, tree_runs in enumerate(runs):
                row = {"genus": g}
                for name, column in zip(STAGES, zip(*tree_runs)):
                    row[f"{name}_s"] = round(statistics.median(column), 6)
                    row[f"{name}_min_s"] = round(min(column), 6)
                rows[t][bits].append(row)
                label = "parent" if t else "this"
                stages = " ".join(
                    f"{name} {row[f'{name}_s']:.4f}/{row[f'{name}_min_s']:.4f}" for name in STAGES
                )
                print(bits, g, label, stages, flush=True)
    doc = {
        "topic": "decomposition",
        "unit": "wall-clock seconds, median (<stage>_s) and minimum (<stage>_min_s) of runs",
        "runs": RUNS,
        "genera": list(GENERA),
        "precision_bits": list(PRECISIONS),
        "exponent_fit_genera": list(FIT),
        "environment": environment(),
        "results": results(rows[0]),
    }
    if parent:
        doc["baseline"] = {"results": results(rows[1])}
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(*(sys.argv[1:3] or [ROOT / "BENCH_decomposition.json"]))
