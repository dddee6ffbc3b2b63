"""Reading the .albv document format, and building from it."""

import ast
import inspect
from fractions import Fraction

import pytest

from albv import albvfile, poly
from albv.albvfile import Document, DocumentError
from albv.algebroid import tangent_algebroid
from albv.poly import Poly
from conftest import counting, sl2

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
    x, y = (Poly.variable(name, doc.base_vars) for name in ("x", "y"))
    assert doc.poisson == ((1, 2, y),)
    assert doc.alpha == (Poly.zero(doc.base_vars), x)
    assert doc.volume == Fraction(3, 2)


# a custom algebroid over the plane, e1 = x d/dx and e2 = x d/dy with
# [e1, e2] = e2, a flat connection and an integer volume coefficient
CUSTOM_TEXT = """\
[algebroid]
kind = "custom"
base_vars = ["x", "y"]
rank = 2
anchor = [["x", "0"], ["0", "x"]]
structure = [{"i": 1, "j": 2, "k": 2, "c": "1"}]

[connection]
alpha = ["-1/2", "0"]

[volume]
coeff = 3
"""


def test_parse_custom_document():
    doc = Document.parse(CUSTOM_TEXT)
    x = Poly.variable("x", doc.base_vars)
    zero, one = Poly.zero(doc.base_vars), Poly.constant(1, doc.base_vars)
    assert doc.anchor == ((x, zero), (zero, x))
    assert doc.structure == ((1, 2, 2, one),)
    assert doc.alpha == (Poly.constant(Fraction(-1, 2), doc.base_vars), zero)
    assert doc.volume == 3 and type(doc.volume) is int
    assert doc.build_algebroid().structure_coeff(0, 1, 1) == one


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


@pytest.mark.parametrize(
    "text, message",
    [
        ('[algebroid]\nkind = "lie_algebra"\nrank = true\n', "line 3: rank must be a positive integer"),
        (
            '[algebroid]\nkind = "lie_algebra"\nrank = 2\n'
            'structure = [{"i": true, "j": 2, "k": 2, "c": "1"}]\n',
            "line 4: structure index True out of range 1..2",
        ),
        (
            PLANE_TEXT.replace('"i": 1', '"i": true'),
            "line 7: bivector index True out of range 1..2",
        ),
    ],
    ids=["rank", "structure", "bivector"],
)
def test_json_booleans_are_not_integers(text, message):
    """JSON ``true`` parses to a Python ``bool``, which is an ``int`` equal
    to 1: unrefused, ``rank = true`` built a rank-1 algebra and an index
    ``true`` read as index 1."""
    with pytest.raises(DocumentError) as caught:
        Document.parse(text)
    assert str(caught.value) == message


def test_each_literal_is_parsed_once(tmp_path, monkeypatch):
    """The plane file has four literals, the bivector's "y", the
    connection's "0" and "x" and the volume's "3/2": loading it and building
    from it parses each once, and the volume coefficient is read by the
    same grammar, so ``albvfile`` reads no ``Fraction`` from a string."""
    path = tmp_path / "plane.albv"
    path.write_text(PLANE_TEXT)
    with counting(monkeypatch, poly._Parser) as parses:
        doc = Document.load(path)
        a = doc.build_algebroid()
        doc.build_poisson()
        doc.build_connection(a)
        doc.build_volume(a)
    assert len(parses) == 4
    imports = {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(ast.parse(inspect.getsource(albvfile)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "fractions" not in imports


_SL2_HEAD = '[algebroid]\nkind = "lie_algebra"\nrank = 3\n'
_LONG_ENTRY = "x + " * 20 + "y ? " + "x + " * 20 + "y"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '[algebroid]\nkind = "lie_algebra"\nkind = "tangent"\n',
            "line 3: duplicate key 'kind'",
        ),
        (
            '[algebroid]\nkind = "tangent"\nbase_vars = "x"\n',
            "line 3: base_vars must be a list of names",
        ),
        (
            '[algebroid]\nkind = "tangent"\nbase_vars = ["x", "x"]\n',
            "line 3: base_vars has a repeated name",
        ),
        (
            '[algebroid]\nkind = "tangent"\nbase_vars = ["x"]\nanchor = [["1"]]\n',
            "line 4: tangent kind derives its anchor; drop the anchor key",
        ),
        (
            _SL2_HEAD + "anchor = [[], [], []]\n",
            "line 4: lie_algebra kind derives its anchor; drop the anchor key",
        ),
        (
            PLANE_TEXT.replace('["0", "x"]', '["0"]'),
            "line 10: alpha must list 2 polynomial strings",
        ),
        (PLANE_TEXT.replace('"3/2"', "1.5"), "line 13: coeff must be a rational in a string"),
        (PLANE_TEXT.replace('"3/2"', "true"), "line 13: coeff must be a rational in a string"),
        (
            PLANE_TEXT.replace('"3/2"', '"1.5"'),
            "line 13: coeff is not a rational: unexpected character '.' (at position 1)",
        ),
        (
            PLANE_TEXT.replace('"3/2"', '"1e3"'),
            "line 13: coeff is not a rational: trailing input 'e3' (at position 1)",
        ),
        (
            _SL2_HEAD + 'structure = {"i": 1, "j": 2, "k": 2, "c": "2"}\n',
            "line 4: structure entries must form a list",
        ),
        (
            _SL2_HEAD + 'structure = [{"i": 1, "j": 2, "k": 2, "c": "2"}, '
            '{"i": 1, "j": 2, "k": 2, "c": "1"}]\n',
            "line 4: duplicate structure entry for (1, 2, 2)",
        ),
        (
            PLANE_TEXT.replace('"c": "y"', '"c": "%s"' % _LONG_ENTRY),
            "line 7: bad polynomial ...'x + x + x + x + x + x + x + y ? x + x + x + x "
            "+ x + x + x + '...: unexpected character '?' (at position 82)",
        ),
    ],
    ids=[
        "duplicate-key",
        "base-vars-not-a-list",
        "repeated-base-var",
        "anchor-on-tangent",
        "anchor-on-lie-algebra",
        "alpha-length",
        "coeff-float",
        "coeff-boolean",
        "coeff-decimal",
        "coeff-exponent",
        "structure-not-a-list",
        "duplicate-structure-entry",
        "long-entry-excerpt",
    ],
)
def test_reader_refusals_name_their_line(text, message):
    with pytest.raises(DocumentError) as caught:
        Document.parse(text)
    assert str(caught.value) == message


def test_a_file_that_is_not_utf8_is_a_document_error(tmp_path):
    path = tmp_path / "binary.albv"
    path.write_bytes(b"\xff[algebroid]\n")
    with pytest.raises(DocumentError) as caught:
        Document.load(path)
    assert str(caught.value) == (
        "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte"
    )
