"""Reading, writing, and building from the .albv document format."""

from fractions import Fraction

import pytest

from albv.albvfile import Document, DocumentError
from albv.algebroid import tangent_algebroid
from conftest import sl2

PLANE_TEXT = """\
# plane with a linear bivector
[algebroid]
kind = "tangent"
base_vars = ["x", "y"]

[poisson]
terms = [{"i": 1, "j": 2, "c": "y"}]

[connection]
alpha = ["0", "x"]

[volume]
coeff = "3/2"
"""

SL2_TEXT = """\
[algebroid]
kind = "lie_algebra"
rank = 3
structure = [{"i": 1, "j": 2, "k": 2, "c": "2"}, {"i": 1, "j": 3, "k": 3, "c": "-2"}, {"i": 2, "j": 3, "k": 1, "c": "1"}]
"""


def test_parse_full_document():
    doc = Document.parse(PLANE_TEXT)
    assert doc.kind == "tangent"
    assert doc.base_vars == ("x", "y")
    assert doc.rank == 2
    assert doc.poisson == ((1, 2, "y"),)
    assert doc.alpha == ("0", "x")
    assert doc.volume == "3/2"


def test_emit_round_trips():
    for text in (PLANE_TEXT, SL2_TEXT):
        doc = Document.parse(text)
        again = Document.parse(doc.emit())
        assert again == doc


def test_comments_and_blank_lines_are_ignored():
    doc = Document.parse(
        "# leading note\n\n[algebroid]\n# inner note\nkind = \"lie_algebra\"\nrank = 1\n"
    )
    assert doc.rank == 1


def test_error_carries_line_numbers():
    with pytest.raises(DocumentError, match=r"line 1: unknown section 'nope'"):
        Document.parse("[nope]\n")
    with pytest.raises(DocumentError, match=r"line 1: entry before any section"):
        Document.parse("kind = \"tangent\"\n")
    with pytest.raises(DocumentError, match=r"line 3: bad value for 'rank'"):
        Document.parse('[algebroid]\nkind = "lie_algebra"\nrank = three\n')
    err = None
    try:
        Document.parse("[algebroid]\n[algebroid]\n")
    except DocumentError as exc:
        err = exc
    assert err is not None and err.line == 2


def test_misordered_indices_are_rejected():
    with pytest.raises(DocumentError, match=r"line 4: indices must satisfy i<j"):
        Document.parse(
            "[algebroid]\n"
            'kind = "lie_algebra"\n'
            "rank = 2\n"
            'structure = [{"i": 2, "j": 1, "k": 2, "c": "1"}]\n'
        )


def test_kind_shape_rules():
    with pytest.raises(DocumentError, match="tangent kind needs base_vars"):
        Document.parse('[algebroid]\nkind = "tangent"\n')
    with pytest.raises(DocumentError, match="tangent rank is the number"):
        Document.parse('[algebroid]\nkind = "tangent"\nbase_vars = ["x"]\nrank = 2\n')
    with pytest.raises(DocumentError, match="empty base"):
        Document.parse('[algebroid]\nkind = "lie_algebra"\nrank = 1\nbase_vars = ["x"]\n')
    with pytest.raises(DocumentError, match="no structure entries"):
        Document.parse(
            '[algebroid]\nkind = "tangent"\nbase_vars = ["x", "y"]\n'
            'structure = [{"i": 1, "j": 2, "k": 1, "c": "1"}]\n'
        )
    with pytest.raises(DocumentError, match="needs an anchor matrix"):
        Document.parse('[algebroid]\nkind = "custom"\nbase_vars = ["x"]\nrank = 1\n')
    with pytest.raises(DocumentError, match="1 x 1 matrix"):
        Document.parse(
            '[algebroid]\nkind = "custom"\nbase_vars = ["x"]\nrank = 1\nanchor = [["x", "x"]]\n'
        )
    with pytest.raises(DocumentError, match="must be quoted strings"):
        Document.parse(
            '[algebroid]\nkind = "custom"\nbase_vars = ["x"]\nrank = 1\nanchor = [[1]]\n'
        )


def test_volume_and_poisson_guards():
    with pytest.raises(DocumentError, match="must be nonzero"):
        Document.parse(PLANE_TEXT.replace('"3/2"', '"0"'))
    with pytest.raises(DocumentError, match="not a rational"):
        Document.parse(PLANE_TEXT.replace('"3/2"', '"half"'))
    with pytest.raises(DocumentError, match="needs base coordinates"):
        Document.parse(
            '[algebroid]\nkind = "lie_algebra"\nrank = 2\n\n'
            '[poisson]\nterms = [{"i": 1, "j": 2, "c": "1"}]\n'
        )
    with pytest.raises(DocumentError, match="missing \\[algebroid\\]"):
        Document.parse('[volume]\ncoeff = "1"\n')


def test_bad_polynomial_strings_are_reported():
    with pytest.raises(DocumentError, match="bad polynomial 'x \\+'"):
        Document.parse(PLANE_TEXT.replace('"x"]', '"x +"]'))


def test_build_algebroid_variants():
    assert Document.parse(SL2_TEXT).build_algebroid() == sl2()
    plane = Document.parse(PLANE_TEXT).build_algebroid()
    assert plane == tangent_algebroid(("x", "y"))
    custom = Document.parse(
        '[algebroid]\nkind = "custom"\nbase_vars = ["x"]\nrank = 1\nanchor = [["x"]]\n'
    ).build_algebroid()
    assert custom.anchor_frame(0, custom.poly("x")) == custom.poly("x")


def test_build_rejects_invalid_structure_unless_asked_not_to():
    text = SL2_TEXT.replace(
        'structure = [{"i": 1, "j": 2, "k": 2, "c": "2"}',
        'structure = [{"i": 1, "j": 2, "k": 1, "c": "1"}, {"i": 1, "j": 2, "k": 2, "c": "2"}',
    )
    doc = Document.parse(text)
    with pytest.raises(ValueError, match="structure checks failed"):
        doc.build_algebroid()
    unchecked = doc.build_algebroid(check=False)
    assert not unchecked.validate().ok


def test_build_poisson_and_connection_and_volume():
    doc = Document.parse(PLANE_TEXT)
    a = doc.build_algebroid()
    pi = doc.build_poisson()
    assert pi.components == {(0, 1): a.poly("y")}
    conn = doc.build_connection(a)
    assert conn.alpha == a.poly("x") * a.coframe(1)
    vol = doc.build_volume(a)
    assert vol.coeff == Fraction(3, 2)

    bare = Document.parse(SL2_TEXT)
    b = bare.build_algebroid()
    assert bare.build_poisson() is None
    assert bare.build_connection(b).alpha.is_zero
    assert bare.build_volume(b).coeff == 1


def test_build_poisson_checks_jacobi():
    text = (
        '[algebroid]\nkind = "tangent"\nbase_vars = ["x", "y", "z"]\n\n'
        '[poisson]\nterms = [{"i": 1, "j": 2, "c": "1"}, {"i": 2, "j": 3, "c": "y"}]\n'
    )
    doc = Document.parse(text)
    with pytest.raises(ValueError, match="does not self-commute"):
        doc.build_poisson()
    assert doc.build_poisson(check=False) is not None
