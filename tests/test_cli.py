import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from veronese.cli import emit_report, main, parse_scheme
from veronese.errors import InputError
from veronese.schemes import scheme_to_json

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


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


def test_conic_bound_is_capped_at_20(capsys):
    """The conic construction draws from [-20, 20] at any larger --bound, so
    its report differs only in the echoed bound."""
    argv = ["construct", "2", "5", "--conic-a", "3,3", "--conic-b", "6", "--bound"]
    reports = []
    for bound in ("20", "50"):
        code, out = run_cli(capsys, *argv, bound)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0].pop("bound") == 20 and reports[1].pop("bound") == 50
    assert reports[0] == reports[1]


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
        # 1/10^4300 has a denominator of 4301 digits, past the interpreter's
        # limit on integer-to-string conversion
        ("sylvester", json.dumps({"m": 1, "d": 1, "coeffs": ["0." + "0" * 4299 + "1", "1"]})),
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
        assert err.count("\n") == 1, text


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
        {"kind": "jet", "curve": [["1", "0", "0"], ["2", "0"]]},
        {"kind": "two_three", "point": ["1", "0", "0"], "direction": ["2", "0"]},
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


def test_construct_line_jet_at_a_large_bound():
    # the line points are drawn without listing all 2 * bound candidates; a
    # child process under a 1.5 GB address-space limit shows it
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    argv = ["construct", "3", "9", "--line-jet", "2,1", "--bound", "100000000"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "veronese.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert all(c["passed"] for c in report["certificate"]["claims"])
    assert report["decomposition"]["size"] == 10


def test_exit_2_on_closed_stdout():
    # `veronese gamma 2 9 4 | head -c 0`: the pipe's read end is closed
    # before the child starts, so its first write to stdout breaks the pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "veronese.cli", "gamma", "2", "9", "4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cannot write standard output") and proc.stderr.count("\n") == 1


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


@pytest.mark.parametrize("m, d", [(-1, 2), (1, -2)])
def test_exit_2_on_a_form_with_negative_m_or_d(m, d, tmp_path, capsys):
    p = tmp_path / "form.json"
    p.write_text(json.dumps({"m": m, "d": d, "coeffs": []}))
    for argv in (
        ["sylvester", "--form", str(p)],
        ["certify", "--point", str(p), "--scheme", str(GOLDEN / "reduced.json")],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("literal", ["1e5000", "1E5", "-2.5e-3"])
def test_exit_2_on_an_exponent_literal(literal, tmp_path, capsys):
    """"1eN" builds 10^N, so exponent notation is refused at parse time in a
    form file and in a scheme file: one stderr line, no traceback."""
    form, scheme = tmp_path / "form.json", tmp_path / "scheme.json"
    form.write_text(json.dumps({"m": 1, "d": 2, "coeffs": [literal, "0", "1"]}))
    point = {"kind": "reduced", "point": [literal, "1", "0"]}
    scheme.write_text(json.dumps({"m": 2, "components": [point]}))
    for argv in (["sylvester", "--form", str(form)], ["h1", "3", "--scheme", str(scheme)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
        assert "exponent notation" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "2", "140", "--line-jet", "2,1", "--bound", "1000"],
        ["construct", "2", "140", "--tangent", "3", "--bound", "1000"],
        ["construct", "2", "150", "--conic-a", "151", "--conic-b", "151"],
    ],
)
def test_exit_2_on_a_constructor_past_the_monomial_cap(argv, capsys):
    # checked before the first draw, since a draw solves the relations of
    # 141 or 301 jet rows before any matrix asks for the basis
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "monomials exceed 10000" in captured.err


def test_exit_2_on_conditions_rows_beyond_cap(tmp_path, capsys):
    # a fat point of multiplicity 3000 in P^2 has C(3001, 2) = 4.5 million
    # conditions rows; refused before any of them is built
    p = tmp_path / "fat.json"
    p.write_text(
        json.dumps(
            {
                "m": 2,
                "components": [{"kind": "fat", "multiplicity": 3000, "point": [1, 2, 3]}],
            }
        )
    )
    code = main(["h1", "2", "--scheme", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
    assert "4501500" in captured.err


def test_exit_2_on_span_rows_beyond_cap(tmp_path, capsys, monkeypatch):
    # one jet of length 20000 in P^2 has 20000 span rows at any degree;
    # certify refuses it before any row is built, as h1 does
    import veronese.schemes as schemes

    def no_rows(*args):
        raise AssertionError("a span row was built")

    monkeypatch.setattr(schemes, "_span_rows", no_rows)
    curve = [[1, j, j * j] for j in range(20000)]
    scheme, point = tmp_path / "jet.json", tmp_path / "point.json"
    scheme.write_text(json.dumps({"m": 2, "components": [{"kind": "jet", "curve": curve}]}))
    point.write_text(json.dumps({"m": 2, "d": 4, "coeffs": [1] + [0] * 14}))
    code = main(["certify", "--point", str(point), "--scheme", str(scheme)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: scheme degree 20000 exceeds 10000 span rows\n"



def test_h1_of_a_two_jet_in_p1_at_degree_500(tmp_path, capsys):
    # a length-2 scheme imposes independent conditions on binary forms of
    # any degree past 0; its conditions rows come from one packed table
    p = tmp_path / "jet.json"
    p.write_text(json.dumps({"m": 1, "components": [{"kind": "jet", "curve": [[1, 1], [1, -1]]}]}))
    code, out = run_cli(capsys, "h1", "500", "--scheme", str(p))
    assert code == 0
    report = json.loads(out)
    assert (report["degree"], report["rank"], report["h1"]) == (2, 2, 0)

def test_exit_2_on_conic_parts_beyond_parameter_box(capsys):
    code = main(
        ["construct", "2", "5", "--conic-a", "2,2,2", "--conic-b", "3,3", "--bound", "1"]
    )
    err = capsys.readouterr().err
    assert code == 2 and "divisor parts" in err


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["2", "9", "--label", "2,1,1", "--conic-b", "6"], "--conic-b needs --conic-a"),
        (["2", "6", "--line-jet", "2,1", "--non-collinear"], "--non-collinear needs --label"),
        (
            ["2", "9", "--label", "2,1,1", "--non-collinear"],
            "--non-collinear needs a part 3 in --label",
        ),
    ],
)
def test_exit_2_on_a_construct_flag_that_would_be_ignored(argv, needs, capsys):
    # a flag that the selected construction does not read is refused, not dropped
    code = main(["construct", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: {needs}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["2", "9", "--label", "2,,1"],
        ["2", "9", "--label", "2,1,"],
        ["2", "9", "--label", ",2,1"],
        ["2", "6", "--line-jet", "2,,1"],
        ["2", "5", "--conic-a", "6,", "--conic-b", "6"],
    ],
)
def test_exit_2_on_an_empty_list_item(argv, capsys):
    # an empty item is refused, not dropped from the list
    code = main(["construct", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: not a comma-separated integer list: {argv[3]!r}\n"


def test_list_items_may_have_spaces(capsys):
    code, out = run_cli(capsys, "construct", "2", "9", "--label", " 2, 1 ,1 ", "--seed", "5")
    assert code == 0 and json.loads(out)["label"] == [2, 1, 1]


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

    from oracles import random_scheme

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


def test_main_repeats_in_process(capsys):
    # the parser is built once per process; an argparse error in between
    # must leave nothing behind for the next call
    argv = ["construct", "2", "6", "--line-jet", "2,1", "--seed", "1", "--format", "table"]
    code, first = run_cli(capsys, *argv)
    assert code == 0 and first
    with pytest.raises(SystemExit) as exc:
        main(["construct", "2", "6", "--seed", "3"])
    assert exc.value.code == 2
    assert "one of the arguments" in capsys.readouterr().err
    code, again = run_cli(capsys, *argv)
    assert code == 0 and again == first
