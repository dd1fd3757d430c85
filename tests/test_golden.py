"""Golden-output gate: the CLI's stdout, stderr and exit status on a fixed
corpus must match digests recorded before any change to the matrix builders.

The corpus is every README command at seeds 0 and 1, ``h1`` on committed
reduced, jet, fat and (2,3)-point schemes with rational (and negative
chart) coordinates, ``certify`` on one committed pair that passes and one
that is refused, ``sylvester`` on three binary forms (generic, rational
non-unique, split), three P^3 constructions at scale-up size whose digests
were recorded before elimination became fraction-free, and a 40-point
``terracini`` and an ``h1`` on (2,3)-points in P^3 whose digests were
recorded before ``h1`` took the modular proof and the (2,3)-point rows came
from the derivative tables, ``gamma 2 8 4`` recorded before the matrices
kept integer rows, ``h1 12`` of 14 collinear points in P^3 (a 14 x 455
conditions matrix of rank 13, so the probe falls back to Bareiss) recorded
before the probe packed its rows, and three derivative-row cases recorded
before those rows were gathered from power tables: ``h1 1`` of the fat
scheme (every derivative of order >= 2 lies above d, so its rows are zero),
``h1 4`` of a P^3 quadruple point with zero and negative rational
coordinates plus two double points, and ``terracini --kind osculating2``,
and three certified power-sum constructions in P^3 recorded before their
power sums were computed in integers and their full-rank tests took the
modular proof, and five flattening and line-construction cases plus a P^3
``certify`` pair recorded before the flattening ranks took the capped probe,
and five seeded constructions that reject draws (one of them would reject
every draw, and is now refused before sampling) recorded before the
sampling loops shared one resample routine, and four conic double points
with multi-component and reduced divisors, at d = 5 and 8, recorded before
the conic relation moved to the conic's own coordinates, and two
``certify`` pairs outside the uniqueness regime that pass the
line-intersection criterion, recorded before that criterion became the
degree-3 case of the linear-position predicate.  The inputs live in
``tests/golden/``.  One more test runs deficient interpolation ranks and a
deficient flattening with Bareiss made to raise, against digests recorded
while those ranks still went to Bareiss.

Record the digests again, only for a change that means to alter output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from veronese import rationalla
from veronese.cli import main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"

README_COMMANDS = [
    "stratify 2 9 4",
    "construct 2 9 --label 2,1,1",
    "construct 2 9 --label 3,1 --non-collinear",
    "construct 2 6 --line-jet 2,1",
    "construct 3 5 --tangent 3",
    "construct 2 5 --conic-a 6 --conic-b 6",
    "terracini 2 6 --kind tau --t 3",
    "gamma 2 6 3",
]

FILE_COMMANDS = [
    "h1 1 --scheme reduced.json",
    "h1 3 --scheme reduced.json",
    "h1 2 --scheme jet.json",
    "h1 5 --scheme jet.json",
    "h1 3 --scheme fat.json",
    "h1 5 --scheme fat.json",
    "h1 3 --scheme two_three.json",
    "h1 4 --scheme two_three.json --modular-fastpath",
    "h1 5 --scheme two_three_p3.json",
    "h1 12 --scheme collinear_p3.json",
    "certify --point certify_point.json --scheme certify_scheme.json",
    "certify --point refused_point.json --scheme certify_scheme.json",
    "sylvester --form sylvester_generic.json",
    "sylvester --form sylvester_rational.json",
    "sylvester --form sylvester_split.json",
]

# Scale-up sizes: a line-jet relation (a kernel on 220 columns when these
# were recorded, now on the line's own 10 coordinates), a tangent plane plus
# points, membership solves on 286 columns, and h1 of 40
# double points, a 160 x 165 conditions matrix of full rank.
SCALE_UP_COMMANDS = [
    "construct 3 9 --line-jet 2,1 --seed 0",
    "construct 3 9 --tangent 4 --seed 0",
    "construct 3 10 --label 2,2 --seed 0",
    "terracini 3 8 --kind secant --t 40 --seed 0",
]

# The double-tangent (2,3)-point family of ``gamma``, which no command above
# reaches; recorded before the matrices kept integer rows.
GAMMA_COMMANDS = ["gamma 2 8 4 --seed 0"]

# Fat-point derivative rows: orders above d, a quadruple point in P^3 off
# and on zero coordinates, and the quadruple points of osculating2; recorded
# before those rows were gathered from power tables.
DERIVATIVE_COMMANDS = [
    "h1 1 --scheme fat.json",
    "h1 4 --scheme fat_p3.json",
    "terracini 3 5 --kind osculating2 --t 2 --seed 0",
]

# Certified power-sum decompositions at seed 1 and at a larger coordinate
# bound; recorded before the power sums were summed in integers and the
# full-rank tests took the modular proof.
POWER_SUM_COMMANDS = [
    "construct 3 9 --line-jet 2,1 --seed 1",
    "construct 3 9 --tangent 4 --seed 1",
    "construct 3 9 --line-jet 2,1 --bound 1000 --seed 0",
]

# Flattening ranks below the probe's cap (label 5,1 at a = 2, 3; Cat_1 of
# rank 3 < 4 for 3,1 in P^3), a membership-only label, the line-jet and
# tangent constructions at d = 13 and 12, and ``certify`` of a P^3 point;
# recorded before the flattening ranks took the capped probe, and unchanged
# since the line constructions solve in the line's own d+1 coordinates.
FLATTENING_LINE_COMMANDS = [
    "construct 2 9 --label 5,1 --seed 0",
    "construct 3 9 --label 3,1 --seed 0",
    "construct 3 9 --label 2,2,2 --seed 0",
    "construct 3 13 --line-jet 3,2 --seed 0",
    "construct 3 12 --tangent 5 --seed 0",
    "certify --point certify_p3_point.json --scheme certify_p3_scheme.json",
]

# Seeded constructions that reject at least one draw before they succeed
# (colliding supports in a stratum point and in gamma's Terracini draws, a
# line-jet draw with a zero line coefficient, a singular conic frame), and
# one that can never succeed: at --bound 3 the only 6-point z-set is
# {-3, ..., 3} without 0, which is symmetric, so every draw would be
# rejected.  Recorded before the sampling loops shared one resample
# routine; the last one was recorded again when such a bound came to be
# refused with exit 2 before sampling, where it had exited 3.
RESAMPLE_COMMANDS = [
    "construct 2 9 --label 3,1 --non-collinear --bound 1 --seed 0",
    "construct 2 6 --line-jet 2,1 --bound 5 --seed 1",
    "construct 2 5 --conic-a 6 --conic-b 6 --bound 1 --seed 0",
    "gamma 2 8 4 --bound 1 --seed 0",
    "construct 2 6 --line-jet 2,1 --bound 3 --seed 0",
]

# Conic double points beyond the README's 6/6: divisors with several
# components, reduced points only, and d = 8 with a two-jet divisor;
# recorded before the conic relation was solved in the conic's own 2d+1
# coordinates.
CONIC_COMMANDS = [
    "construct 2 5 --conic-a 3,3 --conic-b 6 --seed 0",
    "construct 2 5 --conic-a 2,2,2 --conic-b 3,3 --seed 1",
    "construct 2 5 --conic-a 1,1,1,1,1,1 --conic-b 6 --seed 0",
    "construct 2 8 --conic-a 5,4 --conic-b 9 --seed 0",
]

# ``certify`` outside the uniqueness regime 2t <= d+1 where no line meets
# the scheme in degree 3, so the line-intersection criterion certifies the
# border rank: four general points in P^2 at d = 5, and a tangent vector
# plus three points in P^3 at d = 7; recorded before that criterion became
# the degree-3 case of ``schemes.linearly_general``.
LINE_CRITERION_COMMANDS = [
    "certify --point certify_plane_points_point.json --scheme certify_plane_points_scheme.json",
    "certify --point certify_p3_tangent_point.json --scheme certify_p3_tangent_scheme.json",
]

# Witness roots a/b with b > 1 and at infinity, in a form with a common
# denominator; recorded before the rational-root search and the squarefree
# test ran on integer polynomials.
SYLVESTER_ROOT_COMMANDS = [
    "sylvester --form sylvester_fractional_root.json",
    "sylvester --form sylvester_root_at_infinity.json",
]

CORPUS = (
    [f"{c} --seed {s}" for c in README_COMMANDS for s in (0, 1)]
    + FILE_COMMANDS
    + SCALE_UP_COMMANDS
    + GAMMA_COMMANDS
    + DERIVATIVE_COMMANDS
    + POWER_SUM_COMMANDS
    + FLATTENING_LINE_COMMANDS
    + RESAMPLE_COMMANDS
    + CONIC_COMMANDS
    + LINE_CRITERION_COMMANDS
    + SYLVESTER_ROOT_COMMANDS
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(command: str) -> dict:
    """Run one command in GOLDEN's directory; digests of its output."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split())
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_corpus_is_recorded(recorded):
    assert sorted(recorded) == sorted(CORPUS)


@pytest.mark.parametrize("command", CORPUS)
def test_cli_output_matches_recorded_digest(command, recorded):
    assert _run(command) == recorded[command]


# Deficient conditions matrices (Alexander-Hirschowitz double points in P^2
# and P^3 at d = 4, and triple points whose rank falls short) and the rank-3
# Cat_1 of a 3,1 label in P^3; the h1 digests were recorded before
# ``rank_with_fastpath`` proved a rank below the probe's reach by lifted
# kernel vectors, when every one of these went to Bareiss.
PROOF_PATH_SCHEMES = {
    ("double", 2, 4): [[-9, 2, 4], [-4, 3, -3], [2, -7, 7], [-3, -5, 0], [-7, -6, 2]],
    ("double", 3, 4): [
        [-3, -5, 6, -3], [-8, -3, -3, 6], [-9, -4, -2, 7], [-9, -8, 3, -7], [-7, -2, -2, 8],
        [2, 3, 0, 2], [-4, -9, -5, -9], [8, 6, 2, 6], [9, 8, 8, -5],
    ],
    ("triple", 3, 4): [[-3, -2, 8, 4], [-2, 5, -5, -5], [-8, 9, 9, 3], [1, 4, -3, -4]],
    ("triple", 2, 6): [[-5, 2, -8], [4, 1, 5], [3, 7, 5], [2, 1, 5], [7, -5, -1]],
    ("triple", 2, 4): [[-3, -1, 5], [-2, -1, -1]],
}
PROOF_PATH_STDOUT = {
    ("double", 2, 4): "5fea302836ad5805a2a2c75f68ce93b6ac5075bdfa9267758f35825cde615af7",
    ("double", 3, 4): "1585e652a4185fb0e2c6606da85595e5b352dc64a39e291bbe39a4942e7fb50b",
    ("triple", 3, 4): "8a0c498f676f1b8cf443046841c72d85344663b2bb09eefb2a6338762b81ac65",
    ("triple", 2, 6): "d17c8afbb035a7979187ca9f1e647fd7f062026bd69d70ea38a766d252bc2a66",
    ("triple", 2, 4): "c44c4d132aa168e9daf4023ab36859f6e23b83278a0ece2bc8d40f16f5df68c5",
}


def test_deficient_ranks_are_proved_without_bareiss(recorded, tmp_path, monkeypatch):
    """Each of these ranks is below its probe's reach, and each is settled
    by lifted kernel vectors: with Bareiss made to raise, the output bytes
    are the recorded ones."""

    def no_bareiss(M):
        raise AssertionError(f"Bareiss on a {M.rows} x {M.cols} matrix")

    monkeypatch.setattr(rationalla, "rank_exact", no_bareiss)
    for (kind, m, d), points in PROOF_PATH_SCHEMES.items():
        multiplicity = {"double": 2, "triple": 3}[kind]
        scheme = tmp_path / f"{kind}_p{m}_d{d}.json"
        comps = [{"kind": "fat", "point": p, "multiplicity": multiplicity} for p in points]
        scheme.write_text(json.dumps({"m": m, "components": comps}), encoding="utf-8")
        expected = {"exit": 0, "stdout": PROOF_PATH_STDOUT[kind, m, d], "stderr": _sha("")}
        assert _run(f"h1 {d} --scheme {scheme}") == expected
    command = "construct 3 9 --label 3,1 --seed 0"
    assert _run(command) == recorded[command]


if __name__ == "__main__":
    digests = {c: _run(c) for c in CORPUS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
