"""``check_interpretation_certificate`` against letter-by-letter evaluation.

The check remembers, within one call, each letter's derivation value and
next sample at every n it meets.  ``ref_check`` below evaluates every side
of every rule instance letter by letter at every n, as the check did
before; the reports must be equal.
"""

import pytest

from conftest import B3_TEXT, SQ_BAD_CERT_TEXT, SQ_CERT_TEXT, SQ_TEXT
from polygraph import check_interpretation_certificate, parse_certificate, parse_polygraph


def star_word(cert, w, n):
    for letter in w.letters:
        a, b = cert.star[letter]
        n = a * n + b
    return n


def der_word(cert, w, n):
    total = 0
    for letter in w.letters:
        total += sum(c * base**n for c, base in cert.der[letter])
        a, b = cert.star[letter]
        n = a * n + b
    return total


def ref_check(p, cert, sample_bound):
    failures = []
    rules = list(p.rules) + [
        fam.instance(k) for fam in p.pumped for k in range(sample_bound + 1)
    ]
    checked = 0
    for rule in rules:
        for n in range(sample_bound + 1):
            checked += 1
            su, sv = star_word(cert, rule.lhs, n), star_word(cert, rule.rhs, n)
            du, dv = der_word(cert, rule.lhs, n), der_word(cert, rule.rhs, n)
            if not (su >= sv and du > dv):
                failures.append(
                    {"rule": rule.name, "n": n,
                     "star": (su, sv), "der": (du, dv),
                     "detail": f"need star {su} >= {sv} and der {du} > {dv}"}
                )
                break
    return {
        "status": "FAIL" if failures else "PASS(sampled)",
        "passed": not failures,
        "sample_bound": sample_bound,
        "rules_checked": len(rules),
        "samples": checked,
        "failures": failures,
    }


# on B3+, a presentation without pumped families, a certificate that
# fails on two rules (alpha and delta at n = 0)
B3_CERT_TEXT = """\
s: star n + 1 ; der 2^n
t: star 2*n ; der 3^n + 1
a: star n ; der 1
"""


@pytest.mark.parametrize("text, cert_text", [
    (SQ_TEXT, SQ_CERT_TEXT),
    (SQ_TEXT, SQ_BAD_CERT_TEXT),
    (B3_TEXT, B3_CERT_TEXT),
], ids=["sq", "sq_bad", "b3"])
@pytest.mark.parametrize("bound", [0, 1, 8, 16])
def test_report_equals_letter_by_letter_evaluation(text, cert_text, bound):
    p, cert = parse_polygraph(text), parse_certificate(cert_text)
    assert check_interpretation_certificate(p, cert, bound) == ref_check(p, cert, bound)


def test_the_reports_hold_passes_and_failures():
    sq = parse_polygraph(SQ_TEXT)
    good = check_interpretation_certificate(sq, parse_certificate(SQ_CERT_TEXT), 16)
    bad = check_interpretation_certificate(sq, parse_certificate(SQ_BAD_CERT_TEXT), 16)
    assert good["passed"] and good["samples"] == (4 + 17) * 17
    assert not bad["passed"] and bad["failures"][0]["rule"] == "gamma"
    b3 = check_interpretation_certificate(parse_polygraph(B3_TEXT),
                                          parse_certificate(B3_CERT_TEXT), 16)
    assert [f["rule"] for f in b3["failures"]] == ["alpha", "delta"]
