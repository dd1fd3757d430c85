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
kept integer rows, and ``h1 12`` of 14 collinear points in P^3 (a 14 x 455
conditions matrix of rank 13, so the probe falls back to Bareiss) recorded
before the probe packed its rows.  The inputs live in ``tests/golden/``.

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

# Scale-up sizes: a kernel through ``_intersect_spans`` on 220 columns, a
# tangent plane plus points, membership solves on 286 columns, and h1 of 40
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

CORPUS = (
    [f"{c} --seed {s}" for c in README_COMMANDS for s in (0, 1)]
    + FILE_COMMANDS
    + SCALE_UP_COMMANDS
    + GAMMA_COMMANDS
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


if __name__ == "__main__":
    digests = {c: _run(c) for c in CORPUS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
