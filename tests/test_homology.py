"""The length-3 free resolution over the monoid ring: ring arithmetic,
boundary maps, brackets, contracting homotopies, and matrix export."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import CATEGORY_TEXT, CONF0_TEXT, COXETER_B3_TEXT, SIGMA_TEXT
from polygraph import (
    FreeResolution,
    PresentationError,
    enumerate_elements,
    format_ring,
    integer_matrices,
    knuth_bendix,
    metivier_squier_reduce,
    parse_path,
    parse_polygraph,
    squier_completion,
    symbolic_matrices,
    try_enumerate,
    verify_identities,
    write_matrices,
)
from polygraph.coherence import Gen
from polygraph.homology import add_into

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def res_mu(mu):
    return FreeResolution(squier_completion(mu))


@pytest.fixture(scope="module")
def res_xyx(xyx_done):
    return FreeResolution(squier_completion(xyx_done))


@pytest.fixture(scope="module")
def res_family(family):
    return FreeResolution(squier_completion(family))


def test_monoid_product_and_augmentation(res_mu, mu):
    one, a = mu.word("1"), mu.word("a")
    # aa = a in the quotient: the product lands on normal forms
    assert res_mu.mult(a, a) == a
    assert res_mu.mult(one, a) == a
    assert res_mu.epsilon({one: 2, a: 3}) == 5
    assert res_mu.epsilon({}) == 0
    assert res_mu.i0(7) == {one: 7}


def test_resolution_needs_one_object():
    """Over a category with objects X and Y the ring would have two units;
    the resolution refuses it, naming the objects, where it used to answer
    the identity on X for the identity on Y."""
    cp = squier_completion(parse_polygraph(CATEGORY_TEXT + "order: f < g\n"))
    with pytest.raises(PresentationError, match=r"one object; .* has 2: X, Y"):
        FreeResolution(cp)


def test_monoid_product_across_presentations(res_xyx, xyx_done):
    x, y = xyx_done.word("x"), xyx_done.word("y")
    assert str(res_xyx.mult(xyx_done.word("x y"), x)) == "y y"


def test_format_ring(res_mu, mu):
    one, a = mu.word("1"), mu.word("a")
    order = ("a",)
    assert format_ring({}, order) == "0"
    assert format_ring({a: 1, one: -1}, order) == "-1*1 + 1*a"


def test_element_enumeration(res_mu, res_xyx, mu):
    elems, closed = try_enumerate(res_mu, 10)
    assert closed and [str(w) for w in elems] == ["1", "a"]
    assert enumerate_elements(res_mu, 10) == elems
    # the completed two-generator monoid is infinite: x, x x, x x x, ... are
    # pairwise distinct normal forms
    _, closed = try_enumerate(res_xyx, 50)
    assert not closed
    with pytest.raises(PresentationError, match="bound"):
        enumerate_elements(res_xyx, 50)


def test_fox_bracket(res_mu, mu):
    one, a = mu.word("1"), mu.word("a")
    assert res_mu.fox_bracket(one) == {}
    assert res_mu.fox_bracket(a) == {(one, "a"): 1}
    # fox(uv) = fox(u) + u*fox(v); here nf(aa) = a
    assert res_mu.fox_bracket(mu.word("a a")) == {(one, "a"): 1, (a, "a"): 1}


def test_boundary_values(res_mu, mu):
    one, a = mu.word("1"), mu.word("a")
    assert res_mu.d1({(one, "a"): 1}) == {a: 1, one: -1}
    # d2 of the rule: fox(a a) - fox(a) = a[a]
    assert res_mu.d2({(one, "mu"): 1}) == {(a, "a"): 1}
    # d3 of the unique 3-cell: a[mu] - [mu]
    assert res_mu.d3({(one, "conf0"): 1}) == {(a, "mu"): 1, (one, "mu"): -1}
    # left-linearity over the ring: the coefficient a absorbs into a*a = a
    assert res_mu.d3({(a, "conf0"): 1}) == {}


def test_bracket_2cell_chain_rule(res_xyx, xyx_done):
    path = parse_path(xyx_done, "1*alpha*y x . 1*kb1*1")
    b = res_xyx.bracket_2cell(path)
    lhs = res_xyx.d2(b)
    want = res_xyx.fox_bracket(path.source)
    got_minus = res_xyx.fox_bracket(path.target)
    for k, v in got_minus.items():
        want[k] = want.get(k, 0) - v
    assert lhs == {k: v for k, v in want.items() if v}


def test_bracket_3cell_chain_rule(res_xyx):
    for cell in res_xyx.coherent.cells:
        e = Gen(cell)
        got = res_xyx.d3(res_xyx.bracket_3cell(e))
        want = res_xyx.bracket_2cell(cell.source2)
        minus = res_xyx.bracket_2cell(cell.target2)
        for k, v in minus.items():
            want[k] = want.get(k, 0) - v
        want = {k: v for k, v in want.items() if v}
        assert got == want


def test_contracting_homotopies_frozen_values(res_mu, mu):
    one, a = mu.word("1"), mu.word("a")
    assert res_mu.i2({(a, "a"): 1}) == {(one, "mu"): 1}
    assert res_mu.i3({(a, "mu"): 1}) == {(one, "conf0"): 1}
    assert res_mu.i3({(one, "mu"): 1}) == {}
    assert res_mu.contract(2, {(a, "a"): 1}) == res_mu.i2({(a, "a"): 1})


def test_identities_exhaustive_on_two_elements(res_mu):
    rep = verify_identities(res_mu, samples=16)
    assert rep["passed"], rep["failures"]
    assert rep["samples"] == 2  # enumeration closed: the check is exhaustive
    for name in ("eps_i0", "d1d2", "d2d3", "d1i1_i0eps", "d2i2_i1d1", "d3i3_i2d2"):
        assert rep[name]


def test_integer_matrices_frozen(res_mu):
    elements = enumerate_elements(res_mu, 10)
    mats = integer_matrices(res_mu, elements)
    assert mats["d1"] == [[-1, 0], [1, 0]]
    assert mats["d2"] == [[0, 0], [1, 1]]
    assert mats["d3"] == [[-1, 0], [1, 0]]


def test_matrix_products_vanish(res_mu):
    elements = enumerate_elements(res_mu, 10)
    mats = integer_matrices(res_mu, elements)

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))
        ]

    d1d2 = matmul(mats["d1"], mats["d2"])
    d2d3 = matmul(mats["d2"], mats["d3"])
    assert all(v == 0 for row in d1d2 for v in row)
    assert all(v == 0 for row in d2d3 for v in row)


def test_symbolic_matrices_frozen(res_mu):
    sym = symbolic_matrices(res_mu)
    assert sym["d1"] == [["-1*1 + 1*a"]]
    assert sym["d2"] == [["1*a"]]
    assert sym["d3"] == [["-1*1 + 1*a"]]


def test_write_matrices_finite(res_mu, tmp_path):
    report = write_matrices(res_mu, tmp_path / "out")
    assert report["finite"] is True
    assert report["elements"] == 2
    out = tmp_path / "out"
    for name in ("d1.txt", "d2.txt", "d3.txt", "elements.txt",
                 "d1_symbolic.txt", "d2_symbolic.txt", "d3_symbolic.txt"):
        assert (out / name).exists()
    assert (out / "elements.txt").read_text() == "1\na\n"
    d3 = (out / "d3.txt").read_text()
    assert "-1 0" in d3 and "1 0" in d3


def test_write_matrices_infinite_monoid(res_xyx, tmp_path):
    report = write_matrices(res_xyx, tmp_path / "out", bound=50)
    assert report["finite"] is False
    assert "bound" in report["error"]
    assert report["integer"] == []
    for name in ("d1_symbolic.txt", "d2_symbolic.txt", "d3_symbolic.txt"):
        assert (tmp_path / "out" / name).exists()
    assert not (tmp_path / "out" / "d1.txt").exists()


def test_rule_family_has_constant_jacobian_column(res_family, family):
    """Every member of the a t^(n+1) => c t^n family has the same image
    under the Reidemeister-Fox Jacobian, because the coefficient words
    a t^(n+1) and c t^n share a normal form."""
    one, a = family.word("1"), family.word("a")
    want = {(one, "a"): 1, (one, "c"): -1, (a, "t"): 1}
    columns = []
    for n in range(6):
        col = res_family.d2({(one, f"alpha{n}"): 1})
        columns.append(col)
        assert col == want
    # consecutive differences vanish identically
    for lo, hi in zip(columns, columns[1:]):
        diff = dict(hi)
        for k, v in lo.items():
            diff[k] = diff.get(k, 0) - v
        assert {k: v for k, v in diff.items() if v} == {}
    # ...because the raw Fox coefficients already agree in the monoid
    for n in range(5):
        lhs_tail = res_family.nf(family.word("a " + " ".join(["t"] * (n + 1))))
        rhs_tail = res_family.nf(family.word("c " + " ".join(["t"] * n)))
        assert lhs_tail == rhs_tail


def test_images_are_keyed_by_degree():
    """The rule conf0 and the first 3-cell conf0 share a name; d2 and d3 of
    [conf0] stay the Fox and boundary differences in either call order, and
    mutating a result does not reach the stored image."""
    p = parse_polygraph(CONF0_TEXT)
    cp = squier_completion(p)
    assert cp.cells[0].name == "conf0"
    one = p.word("1")
    basis = {(one, "conf0"): 1}
    direct = FreeResolution(cp)
    rule, cell = p.lookup_rule("conf0"), cp.cells[0]
    fox = add_into(direct.fox_bracket(rule.lhs), direct.fox_bracket(rule.rhs), -1)
    boundary = add_into(
        direct.bracket_2cell(cell.source2), direct.bracket_2cell(cell.target2), -1
    )
    assert fox != boundary
    for order in (("d2", "d3"), ("d3", "d2")):
        res = FreeResolution(cp)
        want = {"d2": fox, "d3": boundary}
        for name in order:
            got = getattr(res, name)(basis)
            assert got == want[name]
            got[(one, "a")] = 99
            assert getattr(res, name)(basis) == want[name]


def test_export_memory_follows_nonzeros(tmp_path):
    """Coxeter B3 (48 elements): d3 is 384 x 1248, whose dense table of
    pointers alone is 3.8 MB; the export stays below it."""
    p = metivier_squier_reduce(knuth_bendix(parse_polygraph(COXETER_B3_TEXT)).final).final
    res = FreeResolution(squier_completion(p))
    tracemalloc.start()
    try:
        report = write_matrices(res, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["elements"] == 48
    rows = (tmp_path / "d3.txt").read_text(encoding="utf-8").splitlines()[3:]
    assert len(rows) == 384 and {len(r.split()) for r in rows} == {1248}
    assert peak < 384 * 1248 * 8


def test_export_files_are_utf8(tmp_path):
    """Every export write names its encoding: a σ τ export raises no
    EncodingWarning and every file decodes as UTF-8."""
    src = tmp_path / "sigma.txt"
    src.write_text(SIGMA_TEXT, encoding="utf-8")
    out = tmp_path / "mats"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", "import sys; from polygraph.cli import main; sys.exit(main())",
         "homology", str(src), "--export", str(out)],
        env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    names = sorted(f.name for f in out.iterdir())
    assert names == ["d1.txt", "d1_symbolic.txt", "d2.txt", "d2_symbolic.txt",
                     "d3.txt", "d3_symbolic.txt", "elements.txt"]
    texts = {name: (out / name).read_bytes().decode("utf-8") for name in names}
    assert texts["elements.txt"] == "1\nσ\nτ\nσ τ\n"
    assert "σ τ[k]" in texts["d3.txt"]
    assert "# cols: σ | τ" in texts["d1_symbolic.txt"]
