"""Command-line front end: JSON in, canonical JSON (or tables) out.

Exit status 0 means every claim in every emitted certificate passed,
1 means a certificate was refused or a claim failed, 2 means malformed
input, an --out path that cannot be written or a standard output whose
reader has gone (a broken pipe, reported in one line without a traceback),
3 means a seeded construction ran out of resamples or two exact
computations disagreed.
All randomness flows from --seed, and identical invocations produce
byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .binary import sylvester_binary
from .construct import (
    certificate_to_json,
    certify_border_rank,
    construct_conic_double,
    construct_line_jet,
    construct_stratum_point,
    construct_tangent_plus_points,
    decomposition_to_json,
    gamma_dims,
    terracini_dim,
    terracini_expected,
)
from .errors import (
    CertificateRefused,
    InputError,
    InternalInconsistency,
    ResampleExhausted,
)
from .forms import form_from_json, form_to_json
from .schemes import (
    SchemeSpec,
    h1,
    scheme_degree,
    scheme_from_json,
    scheme_to_json,
)
from .strata import StratumLabel, stratification_report


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}")


def parse_scheme(text: str) -> SchemeSpec:
    """Validated SchemeSpec from JSON text (diagnostics name the component)."""
    return scheme_from_json(_load_json(text))


def parse_form(text: str):
    return form_from_json(_load_json(text))


def _scalar_list(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _table_lines(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        if {"statement", "passed"} <= set(obj):
            mark = "ok " if obj["passed"] else "FAIL"
            lines.append(f"{pad}[{mark}] {obj['statement']}")
            return lines
        for k in sorted(obj):
            v = obj[k]
            if _scalar_list(v):
                lines.append(f"{pad}{k}: [{', '.join(str(x) for x in v)}]")
            elif isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_table_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if _scalar_list(v):
                lines.append(f"{pad}- [{', '.join(str(x) for x in v)}]")
            elif isinstance(v, (dict, list)):
                lines.extend(_table_lines(v, indent))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def emit_report(report: dict, fmt: str = "json") -> str:
    """Canonical serialization: sorted keys, fixed indentation, rational
    entries already rendered as lowest-term strings."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "table":
        return "\n".join(_table_lines(report)) + "\n"
    raise InputError(f"unknown format {fmt!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=50, help="coordinate box [-B, B], B <= 20 for conics")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument(
        "--modular-fastpath",
        action="store_true",
        help="accepted and echoed in the report; selects nothing (h1 always "
        "tries the sound modular full-rank proof first)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    in it, and building it costs more than a small command."""
    ap = argparse.ArgumentParser(
        prog="veronese",
        description="exact certificates for strata of Veronese secant varieties",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stratify", help="dimensions and closure facts per label")
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("t", type=int)
    _add_common(p)

    p = sub.add_parser("construct", help="build a certified point of a stratum")
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--label", help="partition, e.g. 2,1,1")
    g.add_argument("--line-jet", help="T1,S1: jet of degree T1 on a line + S1 points")
    g.add_argument("--tangent", type=int, help="T: tangent vector + T-2 points")
    g.add_argument("--conic-a", help="partition of the first conic divisor")
    p.add_argument("--conic-b", help="partition of the second conic divisor")
    p.add_argument(
        "--non-collinear",
        action="store_true",
        help="put degree-3 components on smooth conics (the label needs a part 3)",
    )
    _add_common(p)

    p = sub.add_parser("certify", help="certify a border rank from files")
    p.add_argument("--point", required=True, help="form JSON file")
    p.add_argument("--scheme", required=True, help="scheme JSON file")
    _add_common(p)

    p = sub.add_parser("terracini", help="dimension of a secant/tangential join")
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--kind", choices=("secant", "tau", "osculating2"), required=True)
    p.add_argument("--t", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("h1", help="superabundance of a scheme in degree d")
    p.add_argument("d", type=int)
    p.add_argument("--scheme", required=True, help="scheme JSON file")
    _add_common(p)

    p = sub.add_parser("sylvester", help="binary Waring rank and decomposition")
    p.add_argument("--form", required=True, help="form JSON file")
    _add_common(p)

    p = sub.add_parser("gamma", help="dimensions of the three largest special families")
    p.add_argument("m", type=int)
    p.add_argument("d", type=int)
    p.add_argument("t", type=int)
    _add_common(p)

    return ap


def _parse_parts(text: str) -> list[int]:
    """Integers separated by commas, spaces around each allowed; an empty
    item (as in "2,,1" or "2,1,") is refused, not dropped."""
    if text.strip() == "":
        raise InputError("empty partition")
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"not a comma-separated integer list: {text!r}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")


def _run(args: argparse.Namespace) -> tuple[dict, bool]:
    """Dispatch; returns (report, all_certificates_passed)."""
    if args.bound < 1:
        raise InputError("--bound must be >= 1")
    base = {
        "command": args.command,
        "seed": args.seed,
        "bound": args.bound,
        "modular_fastpath": bool(args.modular_fastpath),
    }
    if args.command == "stratify":
        rep = stratification_report(args.m, args.d, args.t)
        return {**base, "report": rep}, True

    if args.command == "construct":
        if args.conic_b is not None and args.conic_a is None:
            raise InputError("--conic-b needs --conic-a")
        if args.non_collinear and args.label is None:
            raise InputError("--non-collinear needs --label")
        if args.label:
            label = StratumLabel.make(_parse_parts(args.label))
            Z, P, cert = construct_stratum_point(
                args.m,
                args.d,
                label,
                seed=args.seed,
                bound=args.bound,
                non_collinear=args.non_collinear,
            )
            rep = {
                **base,
                "label": list(label.parts),
                "scheme": scheme_to_json(Z),
                "point": form_to_json(P),
                "certificate": certificate_to_json(cert),
            }
            return rep, cert.all_passed
        if args.line_jet:
            vals = _parse_parts(args.line_jet)
            if len(vals) != 2:
                raise InputError("--line-jet needs T1,S1")
            Z, P, rec, cert = construct_line_jet(
                args.m, args.d, vals[0], vals[1], seed=args.seed, bound=args.bound
            )
        elif args.tangent is not None:
            Z, P, rec, cert = construct_tangent_plus_points(
                args.m, args.d, args.tangent, seed=args.seed, bound=args.bound
            )
        elif args.conic_a:
            if not args.conic_b:
                raise InputError("--conic-a needs --conic-b")
            if args.m != 2:
                raise InputError("conic constructions live in the plane (m = 2)")
            A, B, P, cert = construct_conic_double(
                args.d,
                _parse_parts(args.conic_a),
                _parse_parts(args.conic_b),
                seed=args.seed,
                bound=args.bound,
            )
            rep = {
                **base,
                "scheme_a": scheme_to_json(A),
                "scheme_b": scheme_to_json(B),
                "point": form_to_json(P),
                "certificate": certificate_to_json(cert),
            }
            return rep, cert.all_passed
        else:  # pragma: no cover - argparse enforces the group
            raise InputError("no construction selected")
        rep = {
            **base,
            "scheme": scheme_to_json(Z),
            "point": form_to_json(P),
            "decomposition": decomposition_to_json(rec),
            "certificate": certificate_to_json(cert),
        }
        return rep, cert.all_passed

    if args.command == "certify":
        P = parse_form(_read(args.point))
        Z = parse_scheme(_read(args.scheme))
        if Z.m != P.m:
            raise InputError("scheme and form ambient dimensions differ")
        cert = certify_border_rank(P, Z, P.d)
        return {**base, "certificate": certificate_to_json(cert)}, cert.all_passed

    if args.command == "terracini":
        dim, cert = terracini_dim(
            args.m, args.d, args.kind, args.t, seed=args.seed, bound=args.bound
        )
        rep = {
            **base,
            "dim": dim,
            "expected": terracini_expected(args.m, args.d, args.kind, args.t),
            "certificate": certificate_to_json(cert),
        }
        return rep, cert.all_passed

    if args.command == "h1":
        Z = parse_scheme(_read(args.scheme))
        degree, value = scheme_degree(Z), h1(Z, args.d)
        rep = {
            **base,
            "d": args.d,
            "degree": degree,
            "rank": degree - value,
            "h1": value,
        }
        return rep, True

    if args.command == "sylvester":
        f = parse_form(_read(args.form))
        res = sylvester_binary(f)
        rep = {
            **base,
            "rank": res.rank,
            "splits_over_rationals": res.splits_over_rationals,
            "apolar_witness": form_to_json(res.apolar),
        }
        if res.decomposition is not None:
            rep["decomposition"] = decomposition_to_json(res.decomposition)
        return rep, True

    if args.command == "gamma":
        rep = gamma_dims(args.m, args.d, args.t, seed=args.seed, bound=args.bound)
        return {**base, "report": rep}, rep["all_passed"]

    raise InputError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        report, passed = _run(args)
    except CertificateRefused as e:
        sys.stderr.write(f"certificate refused: {e.statement}\n")
        return 1
    except InputError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except (ResampleExhausted, InternalInconsistency) as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return 3
    text = emit_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            sys.stderr.write(f"cannot write {args.out}: {e}\n")
            return 2
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError as e:
            # the reader is gone; point stdout at devnull so that the
            # interpreter's flush at exit does not raise a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.stderr.write(f"cannot write standard output: {e}\n")
            return 2
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
