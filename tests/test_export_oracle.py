"""The integer export against the dense reference it replaced.

The reference builds every column of d1, d2 and d3 as a dense list, transposes
them, and writes each matrix as one joined string.  The library builds sparse
columns and streams the rows; its files must be identical byte for byte.
"""

import pytest

from conftest import (
    A_ONE_TEXT,
    CONF0_TEXT,
    COXETER_A3_TEXT,
    MU_TEXT,
    SIGMA_TEXT,
)
from polygraph import (
    FreeResolution,
    knuth_bendix,
    metivier_squier_reduce,
    parse_polygraph,
    serialize_polygraph,
    squier_completion,
    try_enumerate,
    write_matrices,
)
from polygraph.cli import run
from polygraph.homology import _basis_labels


def reference_matrices(res, elements):
    idx = {w.letters: i for i, w in enumerate(elements)}
    n = len(elements)
    deg0, deg1, deg2, deg3 = _basis_labels(res)

    def ring_column(relt, rows):
        col = [0] * rows
        for w, coef in relt.items():
            col[idx[w.letters]] = coef
        return col

    def module_column(melt, labels, rows):
        col = [0] * rows
        pos = {label: k for k, label in enumerate(labels)}
        for (w, basis), coef in melt.items():
            col[pos[basis] * n + idx[w.letters]] = coef
        return col

    def assemble(columns, rows):
        return [[col[i] for col in columns] for i in range(rows)]

    d1_cols = [ring_column(res.d1({(u, g): 1}), n) for g in deg1 for u in elements]
    d2_cols = [
        module_column(res.d2({(u, r): 1}), deg1, len(deg1) * n)
        for r in deg2
        for u in elements
    ]
    d3_cols = [
        module_column(res.d3({(u, c): 1}), deg2, len(deg2) * n)
        for c in deg3
        for u in elements
    ]
    return {
        "d1": assemble(d1_cols, n),
        "d2": assemble(d2_cols, len(deg1) * n),
        "d3": assemble(d3_cols, len(deg2) * n),
    }


def reference_int_file(name, matrix, row_desc, col_desc):
    lines = [
        f"# {name} (integer matrix over the Z-basis; rows = target, cols = source)",
        f"# rows: {row_desc}",
        f"# cols: {col_desc}",
    ]
    for row in matrix:
        lines.append(" ".join(str(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_files(res):
    """The bytes of d1.txt, d2.txt and d3.txt as the dense writer made them."""
    elements, closed = try_enumerate(res, 2000)
    assert closed
    mats = reference_matrices(res, elements)
    _, gens, rules, cells = _basis_labels(res)
    elt_desc = ", ".join(str(w) for w in elements)

    def basis_desc(labels):
        if labels == [""]:
            return elt_desc
        return ", ".join(f"{w}[{lab}]" for lab in labels for w in elements)

    return {
        "d1.txt": reference_int_file("d1", mats["d1"], elt_desc, basis_desc(gens)),
        "d2.txt": reference_int_file("d2", mats["d2"], basis_desc(gens), basis_desc(rules)),
        "d3.txt": reference_int_file("d3", mats["d3"], basis_desc(rules), basis_desc(cells)),
    }


def completed(text):
    return metivier_squier_reduce(knuth_bendix(parse_polygraph(text)).final).final


CASES = {
    "mu": lambda: parse_polygraph(MU_TEXT),
    "a_one": lambda: parse_polygraph(A_ONE_TEXT),
    "conf0": lambda: parse_polygraph(CONF0_TEXT),
    "sigma": lambda: parse_polygraph(SIGMA_TEXT),
    "coxeter_a3": lambda: completed(COXETER_A3_TEXT),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_export_matches_dense_reference(case, tmp_path):
    cp = squier_completion(CASES[case]())
    report = write_matrices(FreeResolution(cp), tmp_path)
    assert report["integer"] == ["elements.txt", "d1.txt", "d2.txt", "d3.txt"]
    for name, want in reference_files(FreeResolution(cp)).items():
        assert (tmp_path / name).read_bytes() == want, name


def test_export_without_three_cells_writes_empty_rows(tmp_path):
    """a => 1 has rules but no 3-cells: d3 has one empty line per row."""
    res = FreeResolution(squier_completion(parse_polygraph(A_ONE_TEXT)))
    assert res.coherent.cells == ()
    write_matrices(res, tmp_path)
    lines = (tmp_path / "d3.txt").read_text(encoding="utf-8").split("\n")
    assert lines[3:] == ["", ""]  # one row (1[alpha]), then the final newline


def test_cli_export_matches_dense_reference(a3_done, tmp_path):
    src = tmp_path / "a3.txt"
    src.write_text(serialize_polygraph(a3_done), encoding="utf-8")
    out = tmp_path / "mats"
    code, report = run(["homology", str(src), "--export", str(out)])
    assert code == 0 and report.sections["export"]["elements"] == 24
    want = reference_files(FreeResolution(squier_completion(a3_done)))
    for name, data in want.items():
        assert (out / name).read_bytes() == data, name
