"""Output checks for the benchmark workloads.

Every reference here is frozen by hand from the published tables or from
closed forms; none is read from the package (in particular not from
``crossings.reference``), so a change that breaks the program and its
reference module together still fails these checks.

Each ``check_*`` function takes one level m and the text the ``crossings``
command printed on stdout for it, and returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# swap classes (constraint classes) per cycle length: the third entry of the
# published orbit census
SWAP_CLASSES = {4: 3, 5: 7, 6: 17, 7: 56, 8: 239, 9: 1366}

# the published census at m=10: relabel-only orbits, pair orbits, swap classes
CENSUS_10 = (36336, 18744, 9848)

# pair orbits per cycle length (second entry of the census); the squared
# block dimensions of the full relaxation must sum to it
PAIR_ORBITS = {4: 3, 5: 8, 6: 20, 7: 78}

# block-dimension multisets of the full relaxation, {dimension: count}
BLOCK_DIMS = {
    4: {1: 3},
    5: {2: 1, 1: 4},
    6: {2: 3, 1: 8},
    7: {3: 6, 2: 4, 1: 8},
}

# published optima, ten decimal places
SINGLE_OPTIMA = {
    4: "1.0000000000",
    5: "1.9270509831",
    6: "2.9519183588",
    7: "4.3107391257",
    8: "5.8284271247",
    9: "7.6527560430",
}
FULL_OPTIMA = {
    4: "1.0000000000",
    5: "1.9472135954",
    6: "2.9519183588",
    7: "4.3593154948",
}

# closed forms (a + b sqrt(k)) / c of the optima where one is known
SINGLE_CLOSED = {4: (1, 0, 1, 1), 5: (1, 3, 5, 4), 6: (64, 4, 6, 25), 8: (3, 2, 2, 1)}
FULL_CLOSED = {4: (1, 0, 1, 1), 5: (15, 2, 5, 10), 6: (64, 4, 6, 25)}

PUBLISHED_TOL = 1e-9
# a float optimum and the float image of its certificate come from
# different sums over the classes; they may part by roundoff, no more
ROUNDING_TOL = 1e-12


def exceeds_closed_form(value: Fraction, form: tuple[int, int, int, int]) -> bool:
    """Whether value > (a + b sqrt(k)) / c, decided in exact arithmetic."""
    a, b, k, c = form
    lhs = c * Fraction(value) - a  # value > form  <=>  lhs > b sqrt(k)
    if lhs <= 0:
        return False
    return lhs * lhs > b * b * k


def closed_form_float(form: tuple[int, int, int, int]) -> float:
    a, b, k, c = form
    return (a + b * math.sqrt(k)) / c


def _last_json(stdout: str) -> dict | None:
    lines = [ln for ln in stdout.strip().splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def _near_published(value: float, published: str) -> bool:
    return abs(value - float(published)) <= PUBLISHED_TOL


_COEFFS_LINE = re.compile(r"^m=(\d+): (\d+) classes, block size (\d+), table ", re.M)


def check_coeffs(m: int, stdout: str) -> list[str]:
    """``crossings coeffs --m m``: class count and block size."""
    got = _COEFFS_LINE.search(stdout)
    if got is None:
        return [f"coeffs m={m}: no summary line in {stdout!r}"]
    level, classes, d = (int(g) for g in got.groups())
    problems = []
    if level != m:
        problems.append(f"coeffs m={m}: reports level {level}")
    if classes != SWAP_CLASSES[m]:
        problems.append(f"coeffs m={m}: {classes} classes, published {SWAP_CLASSES[m]}")
    if d != (m - 1) // 2:
        problems.append(f"coeffs m={m}: block size {d}, expected {(m - 1) // 2}")
    return problems


def check_certify(m: int, stdout: str) -> list[str]:
    """``crossings certify --m m``: exact value, its float image, PSD flag."""
    out = _last_json(stdout)
    if out is None:
        return [f"certify m={m}: no JSON result in {stdout!r}"]
    try:
        num, den = (int(part) for part in str(out["value"]).split("/"))
        exact = Fraction(num, den)
        bound = float(out["certified_bound"])
        worst = int(out["worst_class"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"certify m={m}: malformed result {out!r} ({exc})"]
    problems = []
    if out.get("m") != m:
        problems.append(f"certify m={m}: reports level {out.get('m')}")
    if out.get("psd_verified") is not True:
        problems.append(f"certify m={m}: psd_verified is {out.get('psd_verified')!r}")
    if abs(float(exact) - bound) > math.ulp(bound):
        problems.append(f"certify m={m}: bound {bound!r} is not the value {float(exact)!r}")
    if not _near_published(bound, SINGLE_OPTIMA[m]):
        problems.append(f"certify m={m}: bound {bound!r}, published {SINGLE_OPTIMA[m]}")
    if m in SINGLE_CLOSED and exceeds_closed_form(exact, SINGLE_CLOSED[m]):
        problems.append(f"certify m={m}: exact value exceeds the closed form "
                        f"{closed_form_float(SINGLE_CLOSED[m])!r}")
    if m in FULL_OPTIMA and bound > float(FULL_OPTIMA[m]) + PUBLISHED_TOL:
        problems.append(f"certify m={m}: single-block bound {bound!r} above the full "
                        f"optimum {FULL_OPTIMA[m]}")
    if not 0 <= worst < SWAP_CLASSES[m]:
        problems.append(f"certify m={m}: worst class {worst} out of range")
    return problems


def check_alpha(m: int, stdout: str) -> list[str]:
    """``crossings alpha --m m``: classes, blocks, optimum and its certificate."""
    out = _last_json(stdout)
    if out is None:
        return [f"alpha m={m}: no JSON result in {stdout!r}"]
    try:
        alpha = float(out["alpha"])
        bound = float(out["certified_bound"])
        classes = int(out["classes"])
        blocks = [int(b) for b in out["blocks"]]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"alpha m={m}: malformed result {out!r} ({exc})"]
    problems = []
    if out.get("m") != m:
        problems.append(f"alpha m={m}: reports level {out.get('m')}")
    if classes != SWAP_CLASSES[m]:
        problems.append(f"alpha m={m}: {classes} classes, published {SWAP_CLASSES[m]}")
    dims: dict[int, int] = {}
    for b in blocks:
        dims[b] = dims.get(b, 0) + 1
    if dims != BLOCK_DIMS[m]:
        problems.append(f"alpha m={m}: block dimensions {dims}, published {BLOCK_DIMS[m]}")
    if sum(b * b for b in blocks) != PAIR_ORBITS[m]:
        problems.append(f"alpha m={m}: squared block dimensions sum to "
                        f"{sum(b * b for b in blocks)}, not the {PAIR_ORBITS[m]} pair orbits")
    if not _near_published(bound, FULL_OPTIMA[m]):
        problems.append(f"alpha m={m}: bound {bound!r}, published {FULL_OPTIMA[m]}")
    if bound > alpha + ROUNDING_TOL * max(1.0, abs(alpha)):
        problems.append(f"alpha m={m}: bound {bound!r} above the optimum {alpha!r}")
    if m in FULL_CLOSED and exceeds_closed_form(
        Fraction(bound) - Fraction(math.ulp(bound)), FULL_CLOSED[m]
    ):
        problems.append(f"alpha m={m}: bound {bound!r} exceeds the closed form "
                        f"{closed_form_float(FULL_CLOSED[m])!r}")
    if bound < float(SINGLE_OPTIMA[m]) - PUBLISHED_TOL:
        problems.append(f"alpha m={m}: full bound {bound!r} below the single-block "
                        f"optimum {SINGLE_OPTIMA[m]}")
    return problems


_CENSUS_LINE = re.compile(
    r"^m=(\d+): (\d+) relabel-only orbits, (\d+) / (\d+) pair orbits / swap classes", re.M
)


def check_census(m: int, stdout: str) -> list[str]:
    """``crossings orbits --m 10 --verify``: the census triple."""
    got = _CENSUS_LINE.search(stdout)
    if got is None:
        return [f"orbits m={m}: no census line in {stdout!r}"]
    level, *triple = (int(g) for g in got.groups())
    if level != m or m != 10:
        return [f"orbits m={m}: reports level {level}; only m=10 has a frozen census"]
    if tuple(triple) != CENSUS_10:
        return [f"orbits m={m}: census {tuple(triple)}, published {CENSUS_10}"]
    return []
