"""Time ``import lamkit`` and ``import lamkit.cli`` in fresh interpreters.

Usage, from the repository root:

    python3 tools/bench_import.py [OUT]

Every run starts a new interpreter that puts this checkout's ``src`` first on
``sys.path``, times the import with ``time.perf_counter`` and reports whether
numpy is in ``sys.modules`` afterwards.  One unrecorded run per module comes
first, so that the bytecode caches exist.  It records the median, minimum and
maximum of ``RUNS`` runs in wall-clock seconds, whether numpy was loaded, and
the environment block of ``bench_decomposition.py``.  The result goes to OUT
(default ``BENCH_import.json`` in the repository root).
"""

import json
from pathlib import Path
import statistics
import subprocess
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_decomposition import ROOT, environment  # noqa: E402

RUNS = 21
MODULES = ("lamkit", "lamkit.cli")
PROBE = """import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import {module}
print(time.perf_counter() - start, "numpy" in sys.modules)
"""


def one_run(module):
    """Seconds the import took in a fresh interpreter, and whether it loaded numpy."""
    code = PROBE.format(src=str(ROOT / "src"), module=module)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    seconds, numpy_loaded = out.stdout.split()
    return float(seconds), numpy_loaded == "True"


def main(out):
    results = {}
    for module in MODULES:
        one_run(module)
        runs = [one_run(module) for _ in range(RUNS)]
        seconds = [s for s, _ in runs]
        results[module] = {
            "median_s": round(statistics.median(seconds), 6),
            "min_s": round(min(seconds), 6),
            "max_s": round(max(seconds), 6),
            "loads_numpy": any(loaded for _, loaded in runs),
        }
        print(module, results[module], flush=True)
    doc = {
        "topic": "import",
        "unit": "wall-clock seconds of the import statement in a fresh interpreter",
        "runs": RUNS,
        "environment": environment(),
        "results": results,
    }
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ROOT / "BENCH_import.json")
