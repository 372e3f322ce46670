"""End-to-end checks of the command line surface."""

import json

import pytest

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
    if probe == "missing-in-file":
        return cylinders
    if probe == "bvec-not-a-number":
        return ["witness", "--genus", "2", "--bvec", "1,abc"]
    if probe == "precision-env-not-a-number":
        monkeypatch.setenv("LAMKIT_PRECISION", "abc")
        return ["build", "--genus", "2"]
    assert probe == "weights-without-components"
    path.write_text(json.dumps({"rest": []}))
    return ["twist-limit", "--weights", str(path)]


@pytest.mark.parametrize(
    "probe",
    [
        "surface-without-polygons",
        "gluing-index-out-of-range",
        "missing-in-file",
        "bvec-not-a-number",
        "precision-env-not-a-number",
        "weights-without-components",
    ],
)
def test_bad_input_is_a_one_line_usage_error(probe, tmp_path, capsys, monkeypatch):
    code, out, err = run(capsys, *_bad_input_argv(probe, tmp_path, monkeypatch))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
