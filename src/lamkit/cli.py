"""Command line entry point wiring all the modules together.

Every subcommand emits machine-readable output (JSON to stdout or --out,
CSV where a trace/table is the natural shape).  All randomness flows from
the --seed flag, numeric output is printed at full working precision, and
reruns with the same (seed, precision, version) produce byte-identical
bytes.  Exit codes: 0 success, 1 diagnostic failure (a numeric check did
not hold), 2 usage errors.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import mpmath

from . import __version__, acceptance, affine, amalgam, curves, dynamics, flat_surface, obstruction
from .errors import EdgeWordError, LamkitError, ParameterError
from .precision import mpf_str, resolve_precision
from .traintrack import TrackWeights

USAGE_EXIT = 2
DIAGNOSTIC_EXIT = 1


def _dump_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, **extra):
    doc = {"version": __version__}
    for key in ("genus", "precision", "seed", "tol", "samples"):
        if hasattr(args, key) and getattr(args, key) is not None:
            doc[key] = getattr(args, key)
    doc.update(extra)
    return doc


def _load_surface(args):
    if getattr(args, "infile", None):
        with open(args.infile) as fh:
            return flat_surface.surface_from_json(fh.read(), precision=args.precision)
    return flat_surface.build_double_polygon(args.genus, precision=args.precision)


def _parse_number(token):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return mpmath.mpf(token)
    except ValueError:
        raise ParameterError(f"{token!r} is not a number") from None


def _num_str(x):
    if isinstance(x, Fraction):
        return str(x)
    return mpf_str(x)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_build(args):
    surface = flat_surface.build_double_polygon(args.genus, precision=args.precision)
    _write(surface_text(surface), args.out)
    return 0


def surface_text(surface):
    return flat_surface.surface_to_json(surface) + "\n"


def cmd_cylinders(args):
    surface = _load_surface(args)
    cyls = flat_surface.cylinder_decomposition(surface, args.dir)
    doc = {
        "config": _config(args, direction=args.dir),
        "cylinders": [
            {
                "label": c.label,
                "circumference": mpf_str(c.circumference),
                "height": mpf_str(c.height),
                "modulus": mpf_str(c.modulus),
            }
            for c in cyls
        ],
    }
    _write(_dump_json(doc), args.out)
    return 0


def cmd_affine(args):
    surface = _load_surface(args)
    element = affine.evaluate_word(args.word, surface)
    m = element.derivative
    doc = {
        "config": _config(args, word=args.word),
        "label": element.label,
        "derivative": [[mpf_str(m.a), mpf_str(m.b)], [mpf_str(m.c), mpf_str(m.d)]],
        "trace": mpf_str(m.trace()),
        "classification": affine.classify(m),
    }
    _write(_dump_json(doc), args.out)
    return 0


def cmd_chain(args):
    system = curves.chain_intersection_matrix(args.genus)
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([""] + list(system.labels))
        for label, row in zip(system.labels, system.matrix):
            writer.writerow([label] + list(row))
        _write(buf.getvalue(), args.out)
        return 0
    doc = {
        "config": _config(args),
        "labels": list(system.labels),
        "chain_order": list(system.chain_order),
        "matrix": [list(row) for row in system.matrix],
    }
    _write(_dump_json(doc), args.out)
    return 0


def cmd_twist_limit(args):
    with open(args.weights) as fh:
        weights = TrackWeights.from_json_dict(json.load(fh))
    trace = dynamics.iterate_trace(weights, args.k)
    try:
        limit_norm = [str(v) for v in dynamics.twist_limit(weights).normalized()]
    except LamkitError:
        limit_norm = None
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "error"])
        for sample in trace:
            writer.writerow(
                [sample.k, "" if sample.error is None else repr(float(sample.error))]
            )
        with open(args.csv, "w") as fh:
            fh.write(buf.getvalue())
    fit = dynamics.decay_fit(trace, k_min=max(1, args.k // 100))
    doc = {
        "config": _config(args, k=args.k),
        "limit": limit_norm,
        "final_error": None if trace[-1].error is None else repr(float(trace[-1].error)),
        "decay": None if fit is None else {"slope": repr(fit[0]), "constant": repr(fit[1])},
    }
    _write(_dump_json(doc), args.out)
    return 0


def cmd_circle_map(args):
    surface = _load_surface(args)
    samples = dynamics.circle_samples(surface, args.samples)
    if args.csv:
        g = surface.genus
        buf = io.StringIO()
        writer = csv.writer(buf)
        labels = [f"a{i}" for i in range(1, g + 1)] + [f"b{j}" for j in range(1, g + 1)]
        writer.writerow(["theta"] + labels)
        for theta, cls in samples:
            writer.writerow([mpf_str(theta)] + [mpf_str(v) for v in cls.normalized()])
        _write(buf.getvalue(), args.out)
        return 0
    doc = {
        "config": _config(args),
        "samples": len(samples),
        "arc": ["0", "pi/2"],
        "min_pairwise_distance": repr(dynamics.min_pairwise_distance([cls for _, cls in samples])),
    }
    _write(_dump_json(doc), args.out)
    return 0


def cmd_heights(args):
    surface = _load_surface(args)
    cyls = flat_surface.cylinder_decomposition(surface, flat_surface.VERTICAL)
    doc = {
        "config": _config(args),
        "heights": [mpf_str(c.height) for c in cyls],
        "labels": [c.label for c in cyls],
    }
    _write(_dump_json(doc), args.out)
    return 0


def cmd_generic_check(args):
    report = obstruction.genericity_sample(
        args.genus, args.samples, args.seed, precision=args.precision
    )
    doc = {
        "config": _config(args),
        "hits": report.hits,
        "fraction_in_Y": str(report.fraction_in_locus),
    }
    _write(_dump_json(doc), args.out)
    return 0


def cmd_witness(args):
    if args.tol <= 0:
        raise ParameterError(f"--tol must be positive, got {args.tol}")
    surface = _load_surface(args)
    w = obstruction.vertical_heights(surface)
    v = tuple(_parse_number(tok) for tok in args.bvec.split(","))
    if len(v) != surface.genus:
        raise ParameterError(f"--bvec needs {surface.genus} entries, got {len(v)}")
    result = obstruction.contradiction_witness(v, w, tol=args.tol)
    doc = {
        "config": _config(args, bvec=args.bvec),
        "in_Y": result.in_locus,
        "separation": _num_str(result.separation),
        "limit_class": [_num_str(x) for x in result.limit_class.normalized()],
        "nu_B_class": [_num_str(x) for x in result.heights_class.normalized()],
    }
    _write(_dump_json(doc), args.out)
    return 0


def cmd_amalgam_reduce(args):
    rank = 2 * args.g
    edge = amalgam.EdgeWords()
    if args.edge_word:
        letters = _parse_edge_letters(args.edge_word, rank)
        edge = amalgam.EdgeWords(left=letters, right=letters)
    word = amalgam.parse_word(args.word, rank, edge)
    reduced = amalgam.britton_reduce(word)
    doc = {
        "config": _config(args, g=args.g, word=args.word, edge_word=args.edge_word),
        "reduced": amalgam.format_word(reduced),
        "syllable_length": reduced.syllable_length,
        "classification": amalgam.classify_element(word),
    }
    _write(_dump_json(doc), args.out)
    return 0


def _parse_edge_letters(text, rank):
    probe = amalgam.parse_word(f"L:{text}", rank)
    return probe.syllables[0].letters if probe.syllables else ()


def cmd_report(args):
    results = acceptance.run_all(seed=args.seed, max_genus=args.genus or 6)
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    summary = f"{'ALL PASS' if ok else 'FAILURES'} ({sum(r.passed for r in results)}/{len(results)})"
    if args.json:
        doc = {
            "config": _config(args),
            "criteria": [
                {
                    "index": r.index,
                    "name": r.name,
                    "passed": r.passed,
                    "details": r.details,
                }
                for r in results
            ],
            "all_passed": ok,
        }
        _write(_dump_json(doc), args.out)
    else:
        _write("\n".join(lines + [summary]) + "\n", args.out)
    return 0 if ok else DIAGNOSTIC_EXIT


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lamkit",
        description="Double-polygon flat surfaces, twist dynamics and amalgam words.",
    )
    parser.add_argument("--version", action="version", version=f"lamkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--precision", type=int, default=None, help="working precision in bits")
        p.add_argument("--out", default=None, help="write output to this file")
        return p

    p = add("build", cmd_build, help="build a double-(2g+1)-gon surface")
    p.add_argument("--genus", type=int, required=True)

    p = add("cylinders", cmd_cylinders, help="cylinder decomposition of a surface file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dir", choices=list(flat_surface.DISTINGUISHED_DIRECTIONS), required=True)
    p.add_argument("--json", action="store_true", help="JSON output (default)")

    p = add("affine", cmd_affine, help="evaluate a twist word to its derivative")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--word", required=True, help='e.g. "TA^2 sigma TB^-1"')
    p.add_argument("--json", action="store_true")

    p = add("chain", cmd_chain, help="the combinatorial chain intersection matrix")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true", help="emit the matrix as CSV")

    p = add("twist-limit", cmd_twist_limit, help="iterate the multitwist on a weight file")
    p.add_argument("--weights", required=True, help="JSON track-weights file")
    p.add_argument("--k", type=int, default=10**4)
    p.add_argument("--csv", default=None, help="write the (k, error) trace to this CSV file")

    p = add("circle-map", cmd_circle_map, help="sample the direction-foliation circle map")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--samples", type=int, default=720)
    p.add_argument("--csv", action="store_true", help="emit theta/pairing rows as CSV")

    p = add("heights", cmd_heights, help="vertical cylinder heights")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("generic-check", cmd_generic_check, help="sample the height-ratio locus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--json", action="store_true")

    p = add("witness", cmd_witness, help="separation witness for a b-intersection vector")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--bvec", required=True, help="comma-separated positive entries")
    p.add_argument("--tol", type=float, default=obstruction.DEFAULT_RATIO_TOLERANCE)
    p.add_argument("--json", action="store_true")

    p = add("amalgam-reduce", cmd_amalgam_reduce, help="Britton-reduce an amalgam word")
    p.add_argument("--word", required=True, help='e.g. "L:g1^2 R:g3 L:z^-1"')
    p.add_argument("--g", "--genus", dest="g", type=int, default=2)
    p.add_argument("--edge-word", default=None, help='edge generator, e.g. "g1g2"')
    p.add_argument("--json", action="store_true")

    p = add("report", cmd_report, help="run the acceptance suite")
    p.add_argument("--genus", type=int, default=None, help="largest genus to exercise")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument("--json", action="store_true")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bits = resolve_precision(args.precision)
        args.precision = bits
        with mpmath.workprec(bits):
            return args.handler(args)
    except (ParameterError, EdgeWordError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except LamkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DIAGNOSTIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
