"""End-to-end checks of the command line surface."""

from contextlib import redirect_stderr, redirect_stdout
import io
from fractions import Fraction
import json
from pathlib import Path
import subprocess
import sys
import time

from hypothesis import given, settings, strategies as st
import pytest

import lamkit
from lamkit.cli import main
from lamkit.flat_surface import build_double_polygon, surface_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_emits_surface_json(capsys):
    code, out, _ = run(capsys, "build", "--genus", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["genus"] == 2
    assert len(doc["polygons"][0]) == 5


def test_build_rejects_genus_one(capsys):
    code, _, err = run(capsys, "build", "--genus", "1")
    assert code == 2
    assert "genus" in err


def test_build_is_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "build", "--genus", "3")
    _, out2, _ = run(capsys, "build", "--genus", "3")
    assert out1 == out2


def test_precision_flag_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("LAMKIT_PRECISION", "160")
    code, out, _ = run(capsys, "build", "--genus", "2")
    assert code == 0 and json.loads(out)["precision_bits"] == 160
    code, out, _ = run(capsys, "build", "--genus", "2", "--precision", "96")
    assert code == 0 and json.loads(out)["precision_bits"] == 96


def test_precision_below_minimum_is_usage_error(capsys):
    code, _, err = run(capsys, "build", "--genus", "2", "--precision", "32")
    assert code == 2
    assert "precision" in err


def test_cylinders_roundtrip(tmp_path, capsys):
    surface_file = tmp_path / "surface.json"
    code, out, _ = run(capsys, "build", "--genus", "2", "--out", str(surface_file))
    assert code == 0 and surface_file.exists()
    code, out, _ = run(
        capsys, "cylinders", "--in", str(surface_file), "--dir", "vertical", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    labels = [c["label"] for c in doc["cylinders"]]
    assert labels == ["b1", "b2"]
    assert float(doc["cylinders"][0]["modulus"]) > 0


def test_affine_word_evaluation(capsys):
    code, out, _ = run(capsys, "affine", "--genus", "2", "--word", "TA", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "parabolic"
    assert float(doc["trace"]) == 2.0
    code, out, _ = run(
        capsys, "affine", "--genus", "2", "--word", "TA^10 sigma", "--json"
    )
    doc = json.loads(out)
    assert float(doc["trace"]) == -2.0


def test_affine_long_mixed_word_exits_zero(capsys, mixed_word):
    code, out, err = run(capsys, "affine", "--genus", "8", "--word", mixed_word, "--precision", "128")
    assert (code, err) == (0, "")
    assert json.loads(out)["classification"] == "hyperbolic"


def test_affine_trace_of_a_conjugate_is_exact(capsys):
    # a conjugate of TB^-1 sigma: its trace is exactly -2, after cancelling 15-digit entries
    word = "TB^-1 TA^-1 TB^-1 TA^-1 TB^-1 TA sigma TB TA TB"
    code, out, _ = run(capsys, "affine", "--genus", "6", "--word", word, "--precision", "128")
    assert code == 0
    assert '"trace":"-2.0"' in out


def test_chain_json_and_csv(capsys):
    code, out, _ = run(capsys, "chain", "--genus", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chain_order"] == ["a1", "b2", "a2", "b1"]
    code, out, _ = run(capsys, "chain", "--genus", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["", "a1", "a2", "b1", "b2"]
    assert len(lines) == 5


def test_twist_limit_with_trace_csv(tmp_path, capsys):
    weights_file = tmp_path / "weights.json"
    weights_file.write_text(
        json.dumps(
            {
                "components": [
                    {"x": "2", "y": "3", "z": "5"},
                    {"x": "1/2", "y": "0", "z": "1/2"},
                ],
                "rest": ["1/3"],
            }
        )
    )
    trace_file = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys,
        "twist-limit",
        "--weights",
        str(weights_file),
        "--k",
        "2000",
        "--csv",
        str(trace_file),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["limit"] is not None
    assert float(doc["final_error"]) < 1e-3
    assert -1.1 < float(doc["decay"]["slope"]) < -0.9
    rows = trace_file.read_text().strip().splitlines()
    assert rows[0] == "k,error"
    assert rows[-1].startswith("2000,")


def test_circle_map_csv_and_summary(capsys):
    code, out, _ = run(capsys, "circle-map", "--genus", "2", "--samples", "45", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,a1,a2,b1,b2"
    assert len(lines) == 46
    code, out, _ = run(capsys, "circle-map", "--genus", "2", "--samples", "45")
    doc = json.loads(out)
    assert float(doc["min_pairwise_distance"]) > 1e-10


def test_heights_command(capsys):
    code, out, _ = run(capsys, "heights", "--genus", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["b1", "b2"]
    ratio = float(doc["heights"][0]) / float(doc["heights"][1])
    assert abs(ratio - 1.6180339887) < 1e-9


def test_generic_check(capsys):
    code, out, _ = run(
        capsys, "generic-check", "--genus", "2", "--samples", "200", "--seed", "5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fraction_in_Y"] == "0"
    _, out2, _ = run(
        capsys, "generic-check", "--genus", "2", "--samples", "200", "--seed", "5", "--json"
    )
    assert out == out2


def test_witness_on_the_heights_vector(capsys):
    code, out, _ = run(capsys, "heights", "--genus", "2", "--json")
    heights = json.loads(out)["heights"]
    code, out, _ = run(
        capsys, "witness", "--genus", "2", "--bvec", ",".join(heights), "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["in_Y"] is True
    assert float(doc["separation"]) < 1e-15
    assert len(doc["limit_class"]) == 2 and len(doc["nu_B_class"]) == 2


def test_witness_off_the_locus(capsys):
    code, out, _ = run(capsys, "witness", "--genus", "2", "--bvec", "1,2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["in_Y"] is False
    assert float(doc["separation"]) > 1e-3


def test_witness_wrong_length_is_usage_error(capsys):
    code, _, err = run(capsys, "witness", "--genus", "2", "--bvec", "1,2,3", "--json")
    assert code == 2
    assert "entries" in err


def test_amalgam_reduce(capsys):
    code, out, _ = run(
        capsys, "amalgam-reduce", "--word", "L:z^2 R:g2", "--g", "2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"] == "R:g1^2g2"
    assert doc["syllable_length"] == 1
    assert doc["classification"] == "pseudo_anosov_type"
    code, out, _ = run(
        capsys, "amalgam-reduce", "--word", "L:g2z^5g2^-1", "--g", "2", "--json"
    )
    doc = json.loads(out)
    assert doc["classification"] == "conjugate_into_edge_group"


def test_amalgam_reduce_with_custom_edge_word(capsys):
    code, out, _ = run(
        capsys,
        "amalgam-reduce",
        "--word",
        "L:z R:g3",
        "--g",
        "2",
        "--edge-word",
        "g1g2",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"] == "R:g1g2g3"


@pytest.mark.parametrize("g", [0, -1])
def test_amalgam_reduce_without_generators_is_a_usage_error(capsys, g):
    # rank 2g < 1 leaves the edge generator g1 outside the factors
    code, out, err = run(capsys, "amalgam-reduce", "--word", "L:z", "--g", str(g), "--json")
    assert (code, out) == (2, "")
    assert err == f"error: edge word letter g1 out of range 1..{2 * g}\n"


def test_report_small(capsys):
    code, out, _ = run(capsys, "report", "--genus", "2", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # 8 criteria + summary
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1].startswith("ALL PASS")


def _bad_input_argv(probe, tmp_path, monkeypatch):
    path = tmp_path / "input.json"
    surface = json.loads(surface_to_json(build_double_polygon(2)))
    cylinders = ["cylinders", "--in", str(path), "--dir", "vertical"]
    if probe == "surface-without-polygons":
        del surface["polygons"]
        path.write_text(json.dumps(surface))
        return cylinders
    if probe == "gluing-index-out-of-range":
        surface["gluings"][0] = [0, 9, 1, 0]
        path.write_text(json.dumps(surface))
        return cylinders
    if probe == "genus-not-an-integer":
        surface["genus"] = 2.7
        path.write_text(json.dumps(surface))
        return cylinders
    if probe == "missing-in-file":
        return cylinders
    # a file of 100000 "[" exceeds the JSON decoder's recursion limit; bytes ff fe
    # do not decode as UTF-8
    unreadable = {"deeply-nested": b"[" * 100000, "not-utf8": b"\xff\xfe{}"}
    twist_limit = ["twist-limit", "--weights", str(path)]
    for kind, data in unreadable.items():
        if probe.endswith(kind):
            path.write_bytes(data)
            return cylinders if probe.startswith("surface") else twist_limit
    witness = {
        "bvec-not-a-number": ["--bvec", "1,abc"],
        "bvec-infinite": ["--bvec", "1,inf"],
        "bvec-zero-denominator": ["--bvec", "1/0,2"],
        "bvec-nan": ["--bvec", "1,nan"],
        "bvec-huge-exponent": ["--bvec", "1e100000000,1"],
        "tol-nan": ["--bvec", "1,2", "--tol", "nan"],
        "tol-inf": ["--bvec", "1,2", "--tol", "inf"],
    }
    if probe in witness:
        return ["witness", "--genus", "2", *witness[probe]]
    if probe == "precision-env-not-a-number":
        monkeypatch.setenv("LAMKIT_PRECISION", "abc")
        return ["build", "--genus", "2"]
    weights = {
        "weights-without-components": {"rest": []},
        "weights-rest-a-string": {"components": [{"x": "1", "y": "0", "z": "1"}], "rest": "12"},
        "weights-boolean-entry": {"components": [{"x": True, "y": "0", "z": "1"}]},
        "weights-infinite-entry": {"components": [{"x": float("inf"), "y": "0", "z": "1"}]},
        "weights-huge-exponent": {"components": [{"x": "1", "y": "1e-100000000", "z": "1"}]},
    }
    path.write_text(json.dumps(weights[probe]))
    return twist_limit


@pytest.mark.parametrize(
    "probe",
    [
        "surface-without-polygons",
        "gluing-index-out-of-range",
        "genus-not-an-integer",
        "missing-in-file",
        "bvec-not-a-number",
        "bvec-infinite",
        "bvec-zero-denominator",
        "bvec-nan",
        "tol-nan",
        "tol-inf",
        "precision-env-not-a-number",
        "weights-without-components",
        "weights-rest-a-string",
        "weights-boolean-entry",
        "weights-infinite-entry",
        "surface-deeply-nested",
        "surface-not-utf8",
        "weights-deeply-nested",
        "weights-not-utf8",
        "bvec-huge-exponent",
        "weights-huge-exponent",
    ],
)
def test_bad_input_is_a_one_line_usage_error(probe, tmp_path, capsys, monkeypatch):
    argv = _bad_input_argv(probe, tmp_path, monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    if probe.endswith("huge-exponent"):  # an exact 10**100000000 would take hours
        assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# Property tests over arbitrary option text: an exception escaping ``main``
# fails the test with its traceback.

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused an option value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# exponents have at most 3 digits: letters are expanded one by one
_EXPONENT = st.one_of(st.none(), st.integers(-999, 999))
# valid pieces are drawn more often than junk, so that about half the words parse
_ATOM = st.tuples(
    st.sampled_from(["g1", "g2", "z"] * 4 + ["g0", "g3", "g4", "g5"]), _EXPONENT
).map(lambda a: a[0] if a[1] is None else f"{a[0]}^{a[1]}")
_SYLLABLE = st.tuples(
    st.sampled_from(["L:", "R:"] * 12 + ["", "L", "X:", ":", "1"]), st.lists(_ATOM, max_size=4)
).map(lambda s: s[0] + "".join(s[1]))
_EDGE_ATOM = st.tuples(st.sampled_from(["g1", "g2", "g3", "z", "g0"]), st.integers(-2, 2)).map(
    lambda a: f"{a[0]}^{a[1]}"
)


@_PROPERTY
@given(
    st.lists(_SYLLABLE, max_size=8).map(" ".join),
    st.integers(1, 3),
    st.one_of(st.none(), st.lists(_EDGE_ATOM, min_size=1, max_size=3).map("".join)),
)
def test_amalgam_reduce_on_arbitrary_words(word, g, edge_word):
    options = [f"--g={g}"] + ([] if edge_word is None else [f"--edge-word={edge_word}"])
    code, out, err = _run_quietly(["amalgam-reduce", f"--word={word}", *options])
    assert code in (0, 2)
    assert err == "" if code == 0 else (err.startswith("error: ") and err.count("\n") == 1)
    if code == 0:
        doc = json.loads(out)
        code, out, err = _run_quietly(["amalgam-reduce", f"--word={doc['reduced']}", *options])
        again = json.loads(out)
        assert (code, err) == (0, "")
        assert (again["reduced"], again["classification"]) == (doc["reduced"], doc["classification"])


_NUMBER = st.one_of(
    st.integers(-1, 20).map(str),
    st.decimals(min_value=-1, max_value=50, places=3).map(str),
    st.fractions(min_value=-1, max_value=50, max_denominator=30).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1/0", "0/0", "1e-400", "1e400", "", "abc", "1/", "0x10"]),
)
_TOL = st.one_of(st.sampled_from(["1e-10", "1e-3", "0.5"]), _NUMBER)


@_PROPERTY
@given(st.lists(_NUMBER, min_size=2, max_size=2).map(",".join) | _NUMBER, _TOL)
def test_witness_on_arbitrary_numbers(bvec, tol):
    code, out, err = _run_quietly(["witness", "--genus=2", f"--bvec={bvec}", f"--tol={tol}"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


# mutations of the genus-2 surface document: ("coordinate", polygon, vertex,
# axis, value), ("genus", value) or ("gluing", index, entry)
_JUNK = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "", "abc", "1e400", "0x1"]),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-1, 2), max_size=3),
)
_COORDINATE = st.tuples(
    st.just("coordinate"),
    st.integers(0, 1),
    st.integers(0, 4),
    st.integers(0, 1),
    st.one_of(_JUNK, st.floats(), st.floats(-2, 2).map(repr)),
)
_GENUS = st.tuples(
    st.just("genus"),
    st.one_of(
        st.integers(-1, 4),
        st.floats(-1, 4) | st.sampled_from([float("nan"), float("inf")]),
        st.booleans(),
        st.sampled_from(["2", "two", ""]),
    ),
)
_GLUING = st.tuples(
    st.just("gluing"),
    st.integers(0, 4),
    st.one_of(
        st.lists(st.integers(-1, 6), max_size=5),
        st.lists(st.booleans() | st.integers(0, 1), min_size=4, max_size=4),
        _JUNK,
    ),
)


def _mutate(doc, mutation):
    kind, *where = mutation
    if kind == "coordinate":
        p, i, axis, value = where
        doc["polygons"][p][i][axis] = value
    elif kind == "genus":
        doc["genus"] = where[0]
    else:
        doc["gluings"][where[0]] = where[1]


@_PROPERTY
@given(st.lists(st.one_of(_COORDINATE, _GENUS, _GLUING), min_size=1, max_size=3))
def test_cylinders_on_mutated_surface_json(tmp_path_factory, mutations):
    doc = json.loads(surface_to_json(build_double_polygon(2)))
    for mutation in mutations:
        _mutate(doc, mutation)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_quietly(["cylinders", f"--in={path}", "--dir=vertical"])
    assert code in (0, 1, 2)
    assert err == "" if code == 0 else (err.startswith("error: ") and err.count("\n") == 1)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


# mutations of the components of a valid weights document: ("weight",
# component, key, value), ("component", index, value), or ("triples", x),
# which gives every component the weights (x, 1, x + 1)
_WEIGHT = st.one_of(
    st.sampled_from(["1", "3/2", "0", "-1", "1/0", "nan", "Infinity", "", "12", "1e-400"]),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e300, 5e-324]),
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=3),
    st.dictionaries(st.sampled_from("xyz"), st.integers(0, 2), max_size=3),
)
_COMPONENT_MUTATION = st.one_of(
    st.tuples(st.just("weight"), st.integers(0, 1), st.sampled_from("xyz"), _WEIGHT),
    st.tuples(st.just("component"), st.integers(0, 1), _WEIGHT),
    st.tuples(st.just("triples"), st.sampled_from(["1/7", "1e-400", "5e-324", "1e300"])),
)


def _mutate_components(components, mutation):
    kind, *where = mutation
    if kind == "weight" and isinstance(components[where[0]], dict):
        components[where[0]][where[1]] = where[2]
    elif kind == "component":
        components[where[0]] = where[1]
    elif kind == "triples":
        x = Fraction(where[0])
        components[:] = [{"x": str(x), "y": "1", "z": str(x + 1)} for _ in components]


@_PROPERTY
@given(
    st.lists(_COMPONENT_MUTATION, max_size=3),
    st.one_of(st.none(), _WEIGHT),
    st.one_of(st.just(["1/3"]), st.lists(_WEIGHT, max_size=2), _WEIGHT),
)
def test_twist_limit_on_mutated_weights_json(tmp_path_factory, mutations, components, rest):
    doc = {"components": [{"x": "2", "y": "3", "z": "5"}, {"x": "1/2", "y": "0", "z": "1/2"}]}
    for mutation in mutations:
        _mutate_components(doc["components"], mutation)
    if components is not None:
        doc["components"] = components
    doc["rest"] = rest
    path = tmp_path_factory.getbasetemp() / "weights.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_quietly(["twist-limit", f"--weights={path}", "--k=50"])
    assert code in (0, 1, 2)
    assert err == "" if code == 0 else (err.startswith("error: ") and err.count("\n") == 1)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


def test_importing_the_cli_leaves_numpy_unloaded():
    src = str(Path(lamkit.__file__).resolve().parents[1])
    probe = f"import sys; sys.path.insert(0, {src!r}); import lamkit.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
