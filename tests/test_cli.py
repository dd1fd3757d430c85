import json
from pathlib import Path

import pytest

from veronese.cli import emit_report, main, parse_scheme
from veronese.errors import InputError
from veronese.schemes import scheme_to_json

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_stratify_json(capsys):
    code, out = run_cli(capsys, "stratify", "2", "9", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "stratify"
    assert rep["report"]["true_stratification"] is True
    assert len(rep["report"]["labels"]) == 5


def test_terracini_tau(capsys):
    code, out = run_cli(capsys, "terracini", "2", "6", "--kind", "tau", "--t", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 7


def test_construct_label_and_reproducibility(capsys):
    code, out1 = run_cli(capsys, "construct", "2", "9", "--label", "2,1,1", "--seed", "5")
    assert code == 0
    code, out2 = run_cli(capsys, "construct", "2", "9", "--label", "2,1,1", "--seed", "5")
    assert code == 0
    assert out1 == out2  # byte-identical given the same seed
    rep = json.loads(out1)
    assert rep["certificate"]["value"] == 4
    assert all(c["passed"] for c in rep["certificate"]["claims"])


def test_construct_line_jet_and_certify_roundtrip(tmp_path, capsys):
    code, out = run_cli(capsys, "construct", "2", "6", "--line-jet", "2,1", "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["decomposition"]["size"] == 7

    scheme_path = tmp_path / "scheme.json"
    point_path = tmp_path / "point.json"
    scheme_path.write_text(json.dumps(rep["scheme"]))
    point_path.write_text(json.dumps(rep["point"]))
    code, out = run_cli(
        capsys, "certify", "--point", str(point_path), "--scheme", str(scheme_path)
    )
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["value"] == 3 and all(c["passed"] for c in cert["claims"])


def test_construct_conic(capsys):
    code, out = run_cli(
        capsys, "construct", "2", "5", "--conic-a", "6", "--conic-b", "6", "--seed", "2"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["certificate"]["value"] == 6
    assert "scheme_a" in rep and "scheme_b" in rep


def test_h1_command_fastpath_matches(tmp_path, capsys):
    scheme = {
        "m": 2,
        "components": [
            {"kind": "fat", "point": ["1", "0", "0"], "multiplicity": 2},
            {"kind": "reduced", "point": ["0", "1", "1"]},
        ],
    }
    p = tmp_path / "scheme.json"
    p.write_text(json.dumps(scheme))
    code, plain_out = run_cli(capsys, "h1", "4", "--scheme", str(p))
    assert code == 0
    plain = json.loads(plain_out)
    code, fast_out = run_cli(capsys, "h1", "4", "--scheme", str(p), "--modular-fastpath")
    assert code == 0
    fast = json.loads(fast_out)
    assert plain["h1"] == fast["h1"] == 0
    assert plain["degree"] == 4
    # the flag is only echoed: every other line of the report is the same
    plain_lines, fast_lines = plain_out.splitlines(), fast_out.splitlines()
    assert len(plain_lines) == len(fast_lines)
    assert [(a, b) for a, b in zip(plain_lines, fast_lines) if a != b] == [
        ('  "modular_fastpath": false,', '  "modular_fastpath": true,')
    ]


def test_sylvester_command(tmp_path, capsys):
    form = {
        "m": 1,
        "d": 5,
        "coeffs": ["0", "1", "0", "0", "0", "0"],  # x0^4 x1 coefficient vector
        "order": "grlex",
    }
    p = tmp_path / "form.json"
    p.write_text(json.dumps(form))
    code, out = run_cli(capsys, "sylvester", "--form", str(p))
    assert code == 0
    assert json.loads(out)["rank"] == 5


def test_gamma_command(capsys):
    code, out = run_cli(capsys, "gamma", "2", "6", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["families"]["tangent_vector"]["dim"] == 7


def test_exit_2_on_malformed_json(tmp_path, capsys):
    point = {"kind": "reduced", "point": ["1", "0", "0"]}
    cases = [
        ("h1", '{"m": 2'),
        # JSON numbers that are not integers are refused, not truncated
        ("h1", json.dumps({"m": 2.5, "components": [point]})),
        ("h1", json.dumps({"m": True, "components": [point]})),
        ("sylvester", json.dumps({"m": 1.0, "d": 2, "coeffs": ["1", "0", "1"]})),
        ("sylvester", json.dumps({"m": 1, "d": 2.9, "coeffs": ["1", "0", "1"]})),
        ("sylvester", json.dumps({"m": 1, "d": 2, "coeffs": [0.5, "0", "1"]})),
        ("sylvester", json.dumps({"m": 1, "d": 2, "coeffs": [True, "0", "1"]})),
        # a string is not read character by character as a list
        ("sylvester", json.dumps({"m": 1, "d": 2, "coeffs": "101"})),
    ]
    p = tmp_path / "bad.json"
    for command, text in cases:
        p.write_text(text)
        if command == "h1":
            code = main(["h1", "3", "--scheme", str(p)])
        else:
            code = main(["sylvester", "--form", str(p)])
        err = capsys.readouterr().err
        assert code == 2 and "input error" in err, text


def test_exit_2_on_invariant_violation(tmp_path, capsys):
    cases = [
        {"kind": "jet", "curve": [["1", "0", "0"], ["3", "0", "0"]]},
        {"kind": "fat", "point": ["1", "0", "0"], "multiplicity": 2.7},
        {"kind": "fat", "point": ["1", "0", "0"], "multiplicity": True},
        {"kind": "reduced", "point": [0.5, 1, 0]},
        {"kind": "reduced", "point": "100"},
        {"kind": "fat", "point": "100", "multiplicity": 2},
        {"kind": "two_three", "point": "100", "direction": ["0", "1", "0"]},
        {"kind": "two_three", "point": ["1", "0", "0"], "direction": "010"},
        {"kind": "jet", "curve": "100010"},
        {"kind": "jet", "curve": ["100", "010"]},
    ]
    p = tmp_path / "scheme.json"
    for comp in cases:
        p.write_text(json.dumps({"m": 2, "components": [comp]}))
        code = main(["h1", "3", "--scheme", str(p)])
        err = capsys.readouterr().err
        assert code == 2 and "component 0" in err, comp


def test_integer_coordinates_accepted(tmp_path, capsys):
    scheme = {
        "m": 2,
        "components": [
            {"kind": "fat", "point": [1, 0, 0], "multiplicity": 2},
            {"kind": "reduced", "point": [0, 1, -1]},
        ],
    }
    p = tmp_path / "scheme.json"
    p.write_text(json.dumps(scheme))
    code, out = run_cli(capsys, "h1", "4", "--scheme", str(p))
    assert code == 0 and json.loads(out)["degree"] == 4


def test_exit_2_on_bound_below_one(capsys):
    # rejection sampling in an empty coordinate box would never end
    code = main(["construct", "2", "9", "--label", "2,1,1", "--bound", "0"])
    err = capsys.readouterr().err
    assert code == 2 and "--bound" in err


def test_exit_2_on_stratify_beyond_partition_bound(capsys):
    # one entry per partition of t: p(60) = 966467 entries
    from veronese.strata import MAX_REPORT_T

    code = main(["stratify", "2", "9", str(MAX_REPORT_T + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and f"<= {MAX_REPORT_T}" in captured.err


def test_exit_2_on_monomial_basis_beyond_cap(capsys):
    # C(403, 3) = 10.8 million columns would exhaust memory
    code = main(["h1", "400", "--scheme", str(GOLDEN / "two_three.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


def test_exit_2_on_conic_parts_beyond_parameter_box(capsys):
    code = main(
        ["construct", "2", "5", "--conic-a", "2,2,2", "--conic-b", "3,3", "--bound", "1"]
    )
    err = capsys.readouterr().err
    assert code == 2 and "divisor parts" in err


def test_exit_2_on_terracini_scheme_beyond_degree(capsys):
    # 3000 double points in P^2 cannot fit in degree 6; refused before any
    # of them is sampled (the support check alone is quadratic in t)
    code = main(["terracini", "2", "6", "--kind", "secant", "--t", "3000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: infinitesimal scheme does not fit in degree d\n"


def test_exit_3_on_resample_exhausted(capsys):
    # double points in P^2, d = 4, t = 5: the Alexander-Hirschowitz exception
    code = main(["terracini", "2", "4", "--kind", "secant", "--t", "5"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("ResampleExhausted: ")
    assert captured.err.count("\n") == 1


def test_exit_3_when_gamma_families_exhaust_their_samples(capsys):
    # in the box [-1, 1] the supports keep colliding; each family must be
    # reported or refused, never silently left out
    for seed, family in ((123, "double_tangent"), (280, "noncollinear_triple")):
        code = main(["gamma", "2", "12", "10", "--seed", str(seed), "--bound", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            f"ResampleExhausted: gamma_dims({family}) kept hitting degenerate samples\n"
        )


def test_exit_3_on_internal_inconsistency(monkeypatch, capsys):
    import veronese.cli as cli
    from veronese.errors import InternalInconsistency

    def disagree(*args):
        raise InternalInconsistency("two exact computations disagreed")

    monkeypatch.setattr(cli, "stratification_report", disagree)
    code = main(["stratify", "2", "9", "4"])
    err = capsys.readouterr().err
    assert code == 3 and err == "InternalInconsistency: two exact computations disagreed\n"


def test_parse_scheme_roundtrip_identity():
    import random

    from veronese.schemes import random_scheme

    rng = random.Random(7)
    Z = random_scheme(rng, 2, 6, bound=9, kinds=("reduced", "jet", "fat", "two_three"))
    text = json.dumps(scheme_to_json(Z))
    assert parse_scheme(text) == Z


def test_parse_scheme_rejects_duplicates():
    text = json.dumps(
        {
            "m": 2,
            "components": [
                {"kind": "reduced", "point": ["1", "0", "0"]},
                {"kind": "reduced", "point": ["2", "0", "0"]},
            ],
        }
    )
    with pytest.raises(InputError):
        parse_scheme(text)


def test_emit_report_trivial_and_deterministic():
    assert emit_report({"claims": []}) == '{\n  "claims": []\n}\n'
    rep = {"b": 1, "a": [1, 2]}
    assert emit_report(rep) == emit_report(dict(reversed(list(rep.items()))))


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["stratify", "2", "7", "3", "--out", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out_path.read_text())
    assert rep["report"]["uniqueness_regime"] is True


def test_exit_2_on_unwritable_out(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["stratify", "2", "9", "4", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not target.exists()
    assert captured.err.startswith(f"cannot write {target}: ") and captured.err.count("\n") == 1
