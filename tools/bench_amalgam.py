"""Time Britton reduction and conjugacy classification of long amalgam words.

Usage, from the repository root:

    python3 tools/bench_amalgam.py [OUT]

Two inputs, each over a doubling ladder of syllable counts n:

- ``reduce``: ``britton_reduce`` on n alternating edge powers
  ``L:z R:z L:z ...``, which collapse into one syllable ``z^n``;
- ``classify``: ``classify_element`` on ``u R:g4 u^-1``, where u is n
  alternating syllables ``R:g3 L:g2 ...``; cyclic reduction peels u off.

Words are parsed before the clock starts.  It records the median of ``RUNS``
runs in wall-clock seconds, the environment block of
``bench_decomposition.py``, and the least-squares exponent of time against n
over each ladder.  The result goes to OUT (default ``BENCH_amalgam.json`` in
the repository root).
"""

import json
from pathlib import Path
import statistics
import sys
import time

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_decomposition import ROOT, environment, exponent  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

from lamkit import amalgam  # noqa: E402

RUNS = 5
RANK = 4


def alternating_edge_powers(n):
    return " ".join(("L:z", "R:z")[i % 2] for i in range(n))


def conjugate(n):
    u = [("R:g3", "L:g2")[i % 2] for i in range(n)]
    inverse = [s + "^-1" for s in reversed(u)]
    return " ".join(u + ["R:g4"] + inverse)


CASES = {
    "reduce": (amalgam.britton_reduce, alternating_edge_powers, (250, 500, 1000, 2000)),
    "classify": (amalgam.classify_element, conjugate, (100, 200, 400, 800, 1600)),
}


def median_seconds(call, word):
    seconds = []
    for _ in range(RUNS):
        start = time.perf_counter()
        call(word)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def main(out):
    results = {}
    for name, (call, text, ladder) in CASES.items():
        rows = []
        for n in ladder:
            t = median_seconds(call, amalgam.parse_word(text(n), RANK))
            rows.append({"n": n, "seconds": round(t, 6)})
            print(name, n, f"{t:.4f}", flush=True)
        results[name] = {
            "rows": rows,
            "exponent": round(exponent([(r["n"], r["seconds"]) for r in rows]), 3),
        }
    doc = {
        "topic": "amalgam",
        "unit": "wall-clock seconds, median of runs",
        "runs": RUNS,
        "inputs": {
            "reduce": "britton_reduce on n alternating syllables L:z R:z ...",
            "classify": "classify_element on u R:g4 u^-1, u = n alternating syllables R:g3 L:g2 ...",
        },
        "environment": environment(),
        "results": results,
    }
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ROOT / "BENCH_amalgam.json")
