"""The benchmark's output checks must reject altered output.

Run with ``python3 -m pytest -q perfbench/test_checks.py`` from the
repository root.  The good outputs below were printed by the ``crossings``
command; each test alters one of them and expects the check to fail.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction

import checks

CENSUS_OUT = ("m=10: 36336 relabel-only orbits, 18744 / 9848 pair orbits / swap classes\n"
              "ok: census matches the reference\n")
COEFFS_OUT = "m=8: 239 classes, block size 3, table cache/coeffs_8_beta.bin\n"
CERTIFY_5 = {
    "m": 5,
    "certified_bound": 1.9270509830726357,
    "value": "21487336479040399080248156021690219891809387/"
             "11150372599265311570767859136324180752990208",
    "worst_class": 0,
    "psd_verified": True,
}
ALPHA_6 = {
    "m": 6,
    "alpha": 2.9519183588453073,
    "certified_bound": 2.9519183588453077,
    "classes": 17,
    "blocks": [1, 2, 2, 1, 1, 1, 1, 1, 2, 1, 1],
    "total_time": 0.23,
}


def out(obj: dict, progress: str = "") -> str:
    return progress + json.dumps(obj) + "\n"


def altered(obj: dict, **changes) -> dict:
    return {**obj, **changes}


def above_closed_form(form, digits: int = 60) -> Fraction:
    """A rational just above (a + b sqrt(k)) / c, closer than any float."""
    a, b, k, c = form
    with localcontext() as ctx:
        ctx.prec = digits
        approx = (a + b * Decimal(k).sqrt()) / c
    return Fraction(approx) + Fraction(1, 10 ** (digits - 5))


def test_good_outputs_pass():
    assert checks.check_census(10, CENSUS_OUT) == []
    assert checks.check_coeffs(8, COEFFS_OUT) == []
    assert checks.check_certify(5, out(CERTIFY_5, '{"round": 1}\n')) == []
    assert checks.check_alpha(6, out(ALPHA_6)) == []


def test_census_triple_off_by_one_fails():
    for wrong in ("36337 relabel-only orbits, 18744 / 9848",
                  "36336 relabel-only orbits, 18745 / 9848",
                  "36336 relabel-only orbits, 18744 / 9847"):
        text = CENSUS_OUT.replace("36336 relabel-only orbits, 18744 / 9848", wrong)
        assert checks.check_census(10, text), wrong


def test_missing_census_line_fails():
    assert checks.check_census(10, "ok: census matches the reference\n")


def test_wrong_class_count_fails():
    assert checks.check_coeffs(8, COEFFS_OUT.replace("239 classes", "240 classes"))
    assert checks.check_coeffs(8, COEFFS_OUT.replace("block size 3", "block size 4"))


def test_certified_value_above_closed_form_fails():
    value = above_closed_form(checks.SINGLE_CLOSED[5])
    bad = altered(CERTIFY_5, value=f"{value.numerator}/{value.denominator}",
                  certified_bound=float(value))
    problems = checks.check_certify(5, out(bad))
    # the float image stays within rounding of the published value, so only
    # the exact comparison can see this
    assert problems and all("closed form" in p for p in problems)


def test_exact_comparison_at_the_closed_form():
    assert not checks.exceeds_closed_form(Fraction(1), checks.SINGLE_CLOSED[4])
    assert checks.exceeds_closed_form(Fraction(1) + Fraction(1, 10**40), checks.SINGLE_CLOSED[4])
    just_above = above_closed_form(checks.SINGLE_CLOSED[8])
    assert checks.exceeds_closed_form(just_above, checks.SINGLE_CLOSED[8])
    assert not checks.exceeds_closed_form(just_above - Fraction(1, 10**50),
                                          checks.SINGLE_CLOSED[8])


def test_psd_not_verified_fails():
    assert checks.check_certify(5, out(altered(CERTIFY_5, psd_verified=False)))
    assert checks.check_certify(5, out({k: v for k, v in CERTIFY_5.items()
                                        if k != "psd_verified"}))


def test_certified_bound_far_from_published_fails():
    bad = altered(CERTIFY_5, value="19270509/10000000", certified_bound=1.9270509)
    assert checks.check_certify(5, out(bad))


def test_bound_not_the_exact_value_fails():
    assert checks.check_certify(5, out(altered(CERTIFY_5, certified_bound=1.92705098307)))


def test_wrong_block_multiset_fails():
    blocks = list(ALPHA_6["blocks"])
    blocks[1] = 1
    assert checks.check_alpha(6, out(altered(ALPHA_6, blocks=blocks)))
    assert checks.check_alpha(6, out(altered(ALPHA_6, blocks=blocks + [2])))


def test_block_order_does_not_matter():
    assert checks.check_alpha(6, out(altered(ALPHA_6, blocks=sorted(ALPHA_6["blocks"])))) == []


def test_alpha_bound_above_optimum_fails():
    assert checks.check_alpha(6, out(altered(ALPHA_6, alpha=2.95191835884)))


def test_alpha_bound_above_closed_form_fails():
    bad = altered(ALPHA_6, alpha=2.9519183588453135, certified_bound=2.9519183588453135)
    problems = checks.check_alpha(6, out(bad))
    assert problems and all("closed form" in p for p in problems)


def test_unparseable_output_fails():
    assert checks.check_certify(5, "")
    assert checks.check_alpha(6, "not json\n")
    assert checks.check_coeffs(8, "")
