"""The failure witnesses of the ``verify`` checks that build their own
failure lists.

Each case replaces one operator that a check tests, in the ``verify``
module's namespace, by a wrong one, runs ``albv verify`` on one suite, and
reads the failing check's line: exit 1, the check FAILs, and its witness is
the first failure in the check's own format.
"""

import re

import pytest

import albv.verify as verify
from albv.bv import TopConnection, connection_from_operator, operator_difference
from albv.cli import main
from albv.exterior import A_SIDE, FrameAction, star_inv

PLANE_TEXT = """\
[algebroid]
kind = "tangent"
base_vars = ["x", "y"]

[poisson]
terms = [{"i": 1, "j": 2, "c": "y"}]

[connection]
alpha = ["0", "x"]
"""

# the plane with the trivial connection, whose recovery a doubled form
# leaves right, so only the flat probes can fail
FLAT_PLANE_TEXT = """\
[algebroid]
kind = "tangent"
base_vars = ["x", "y"]
"""


class _DegreeScaled(FrameAction):
    """A frame action that also multiplies each side A image by its degree
    plus 2: it breaks every pairing, and it does not commute with the
    degree -1 generating operator."""

    def __init__(self, g, n):
        super().__init__(g, n)
        self.inner = FrameAction(g, n)

    def __call__(self, elem):
        out = self.inner(elem)
        return out * (elem.degree + 2) if elem.side == A_SIDE else out


def _negated_star_inv(u, vol):
    return -star_inv(u, vol)


def _doubled_recovery(a, op):
    alpha = connection_from_operator(a, op).alpha
    return TopConnection(a, alpha + alpha)


def _doubled_difference(a, op1, op2, probes=None):
    outcome = operator_difference(a, op1, op2, probes)
    return dict(outcome, alpha=outcome["alpha"] + outcome["alpha"])


CASES = [
    (
        PLANE_TEXT, "core", "star_inv", _negated_star_inv,
        "star-round-trip", r"round trip probe \d+",
    ),
    (
        PLANE_TEXT, "core", "frame_action", _DegreeScaled,
        "frame-change-pairing-invariance", r"frame \d+ residual .+",
    ),
    (
        PLANE_TEXT, "bv", "connection_from_operator", _doubled_recovery,
        "connection-operator-round-trip", r"recovered .+ from .+",
    ),
    (
        FLAT_PLANE_TEXT, "bv", "connection_from_operator", _doubled_recovery,
        "connection-operator-round-trip", r"flat probe \d+ recovered .+",
    ),
    (
        PLANE_TEXT, "bv", "operator_difference", _doubled_difference,
        "operator-difference-laws", r"difference form .+, expected .+",
    ),
    (
        PLANE_TEXT, "bv", "frame_action", _DegreeScaled,
        "operator-frame-naturality", r"frame \d+ residual .+",
    ),
]


@pytest.mark.parametrize(
    "text, suite, name, wrong, check, witness",
    CASES,
    ids=[case[4] + "-" + case[2] for case in CASES],
)
def test_a_wrong_operator_fails_its_check_with_a_witness(
    tmp_path, capsys, monkeypatch, text, suite, name, wrong, check, witness
):
    path = tmp_path / "case.albv"
    path.write_text(text)
    argv = ["verify", str(path), "--suite", suite, "--trials", "4", "--seed", "1"]
    assert main(argv) == 0
    assert "%s: PASS" % check in capsys.readouterr().out.splitlines()
    monkeypatch.setattr(verify, name, wrong)
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if ": FAIL" in line]
    assert [line.split(":")[0] for line in failed] == [check]
    assert re.fullmatch(r"%s: FAIL \(%s\)" % (re.escape(check), witness), failed[0])
