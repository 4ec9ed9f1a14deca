"""Acceptance gate: one printed pass or fail line per pinned criterion.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines stream.  The
gate rebuilds everything from scratch in a temporary cache, so the stated
wall-clock budgets are asserted rather than just reported.  Four stretch
tests (the single-block values at m=11 and m=12 and at m=13, the full
relaxation at m=9 and at m=10) take up to several minutes each, m=13 about
2.7 GB of memory, and only run when CROSSINGS_STRETCH=1; otherwise they
print an honest SKIP line.  The even-rank expectation at m=6 is provably unattainable and is
kept as a strict xfail so the failure stays on record without breaking the
suite.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import numpy as np
import pytest

from crossings.bounds import (
    asymptotic_ratio,
    knn_table,
    lift_bound,
    plain,
    quadratic_bound,
    truncated,
    zarankiewicz,
)
from crossings.coeffs import PairTables, block_constraint_tables
from crossings.cycles import CycleIndex
from crossings.orbits import orbit_census
from crossings.relaxations import (
    certify,
    coeff_tables,
    exactly_psd,
    first_cuts,
    rank_report,
    run_full,
    run_single,
    widen,
)
from crossings.repsets import Block, build_blocks, hook_block_columns
from crossings.swapgraph import distances_from_base, self_cost
from oracles import (
    Cycle,
    act,
    all_cycle_seqs,
    canonical_form,
    class_zero_offenders,
    direct_expansion,
    distances_from_base_unpruned,
    pair_stream_hook_table,
    orbit_id_of,
    rounded,
    stabilizer_elements,
)

STRETCH = os.environ.get("CROSSINGS_STRETCH") == "1"

# Every target below is frozen by hand.  The gate must not read them from
# the library it is checking.

Q_DIAGONAL = {4: 2, 5: 4, 6: 6, 7: 9, 8: 12, 9: 16, 10: 20}

CENSUS = {
    4: (3, 3, 3),
    5: (8, 8, 7),
    6: (24, 20, 17),
    7: (108, 78, 56),
    8: (640, 380, 239),
    9: (4492, 2438, 1366),
    10: (36336, 18744, 9848),
}

BLOCK_DIMS = {
    4: {1: 3},
    5: {2: 1, 1: 4},
    6: {2: 3, 1: 8},
    7: {3: 6, 2: 4, 1: 8},
    8: {7: 2, 5: 2, 4: 9, 3: 7, 2: 4, 1: 9},
    9: {12: 8, 11: 2, 9: 6, 7: 3, 6: 5, 5: 2, 4: 2, 3: 16, 1: 5},
}

SINGLE_OPT = {
    4: "1.0000000000",
    5: "1.9270509831",
    6: "2.9519183588",
    7: "4.3107391257",
    8: "5.8284271247",
    9: "7.6527560430",
    10: "9.6866252078",
    11: "11.9987919703",
    12: "14.5115811776",
    13: "17.3135089904",
}

FULL_OPT = {
    4: "1.0000000000",
    5: "1.9472135954",
    6: "2.9519183588",
    7: "4.3593154948",
    8: "5.8599856417",
    9: "7.7352125975",
    10: "9.7411403685",
}

RATIO_SINGLE = {
    4: "0.6667", 5: "0.7708", 6: "0.7872", 7: "0.8210", 8: "0.8326",
    9: "0.8503", 10: "0.8610", 11: "0.8726", 12: "0.8794", 13: "0.8878",
}

RATIO_FULL = {
    4: "0.6667", 5: "0.7789", 6: "0.7872", 7: "0.8303", 8: "0.8371",
    9: "0.8595", 10: "0.8659",
}

QUADRATIC_COEFFS = {
    10: ("4.87057", "10"),
    11: ("5.99939", "12.5"),
    12: ("7.25579", "15"),
    13: ("8.65675", "18"),
}

LIFTED_COEFFS = {
    10: ("0.0541", "1/9"),
    11: ("0.0545", "5/44"),
    12: ("0.0549", "5/44"),
    13: ("0.0554", "3/26"),
}

BALANCED_BOUNDS = {10: 388, 11: 589, 12: 865, 13: 1229}

V5 = (0.5477225575051661, 0.3385111569432115)


def report(label, problems, detail):
    state = "FAIL" if problems else "PASS"
    text = "; ".join(problems) if problems else detail
    print(f"criterion {label}: {state} - {text}")
    assert not problems, text


@lru_cache(maxsize=None)
def _index(m):
    return CycleIndex(m)


@lru_cache(maxsize=None)
def _dist(m):
    return distances_from_base(_index(m))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-cache")


@pytest.fixture(scope="module")
def singles(store):
    outcomes, walls = {}, {}
    for m in range(4, 11):
        t0 = time.perf_counter()
        outcomes[m] = run_single(m, cache_dir=store)
        walls[m] = time.perf_counter() - t0
    return outcomes, walls


@pytest.fixture(scope="module")
def fulls(store):
    outcomes, walls = {}, {}
    for m in range(4, 9):
        t0 = time.perf_counter()
        outcomes[m] = run_full(m, cache_dir=store)
        walls[m] = time.perf_counter() - t0
    return outcomes, walls


def test_criterion_1_cost_diagonal():
    t0 = time.perf_counter()
    problems = []
    for m in range(4, 11):
        # relabeling carries every diagonal pair to (base, base), so one
        # entry checks the whole diagonal
        diag = int(_dist(m)[orbit_id_of(_index(m), Cycle.base(m).invert())])
        if diag != Q_DIAGONAL[m] or diag != self_cost(m):
            problems.append(f"m={m}: diagonal {diag}, want {Q_DIAGONAL[m]}")
    wall = time.perf_counter() - t0
    if wall > 60.0:
        problems.append(f"took {wall:.1f}s, budget 60s")
    report(1, problems,
           f"cost diagonal is floor((m-1)^2/4) for m=4..10 in {wall:.1f}s")


def test_criterion_2_orbit_census():
    t0 = time.perf_counter()
    problems = []
    for m in range(4, 11):
        got = orbit_census(_index(m))
        if got != CENSUS[m]:
            problems.append(f"m={m}: census {got}, want {CENSUS[m]}")
    wall = time.perf_counter() - t0
    if wall > 600.0:
        problems.append(f"took {wall:.1f}s, budget 600s")
    report(2, problems,
           f"orbit census matches for m=4..10, m=10 gives {CENSUS[10]}, in {wall:.1f}s")


def test_criterion_3_block_dimensions():
    t0 = time.perf_counter()
    problems = []
    for m in range(4, 10):
        blocks = build_blocks(m)
        got = Counter(b.dim for b in blocks)
        if got != Counter(BLOCK_DIMS[m]):
            problems.append(f"m={m}: dimensions {dict(got)}, want {BLOCK_DIMS[m]}")
        squares = sum(b.dim ** 2 for b in blocks)
        if squares != CENSUS[m][1]:
            problems.append(f"m={m}: sum of squares {squares}, want {CENSUS[m][1]}")
    wall = time.perf_counter() - t0
    if wall > 1800.0:
        problems.append(f"took {wall:.1f}s, budget 1800s")
    report(3, problems,
           f"block dimension multisets match and squares sum to the orbit count "
           f"for m=4..9 in {wall:.1f}s")


def test_criterion_4_single_block_values(singles):
    outcomes, walls = singles
    problems = []
    for m in range(4, 11):
        out = outcomes[m]
        tol = 1e-5 if m == 10 else 1e-6
        err = abs(out.value - float(SINGLE_OPT[m]))
        if err > tol:
            problems.append(f"m={m}: value {out.value:.10f} off by {err:.2e}")
        cert = out.certificate
        if cert.bound > out.value + 1e-9:
            problems.append(f"m={m}: certificate {cert.bound:.10f} above the solve")
        if out.raw - cert.bound > 1e-5:
            problems.append(f"m={m}: certificate trails the solver by {out.raw - cert.bound:.2e}")
        if cert.value > Fraction(SINGLE_OPT[m]) + Fraction(1, 10**9):
            problems.append(f"m={m}: certified value exceeds the known optimum")
    if walls[10] > 7200.0:
        problems.append(f"m=10 took {walls[10]:.0f}s, budget 7200s")
    report(4, problems,
           f"single-block optima match to 1e-6 (1e-5 at m=10) with exact "
           f"certificates, m=10 end to end in {walls[10]:.0f}s")


def test_criterion_4_stretch_larger_m(store):
    if not STRETCH:
        print("criterion 4 (stretch m=11, m=12): SKIP - set CROSSINGS_STRETCH=1 to "
              "run single m=11 and m=12 (about half a minute, 300 MB)")
        pytest.skip("stretch runs disabled")
    problems, runs = [], []
    for m in (11, 12):
        t0 = time.perf_counter()
        out = run_single(m, cache_dir=store)
        wall = time.perf_counter() - t0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        err = abs(out.value - float(SINGLE_OPT[m]))
        if err > 1e-5:
            problems.append(f"m={m}: value {out.value:.10f} off by {err:.2e}")
        cert = out.certificate
        if out.raw - cert.bound > 1e-5:
            problems.append(f"m={m}: certificate trails the solver by {out.raw - cert.bound:.2e}")
        if cert.value > Fraction(SINGLE_OPT[m]) + Fraction(1, 10**9):
            problems.append(f"m={m}: certified value exceeds the known optimum")
        # criterion 6's row, from the certificate instead of the frozen value
        qb = quadratic_bound(m, cert.value)
        lb = lift_bound(qb)
        ratio = asymptotic_ratio(m, cert.value)
        shown = (f"{truncated(qb.a, 5)} n^2 - {plain(qb.b)} n, lifted {truncated(lb.c, 4)} "
                 f"with {plain(lb.e)}, ratio {truncated(ratio, 4)}")
        (want_a, want_b), (want_c, want_e) = QUADRATIC_COEFFS[m], LIFTED_COEFFS[m]
        if (want_a not in (truncated(qb.a, 5), rounded(qb.a, 5)) or plain(qb.b) != want_b
                or want_c not in (truncated(lb.c, 4), rounded(lb.c, 4)) or plain(lb.e) != want_e
                or RATIO_SINGLE[m] not in (truncated(ratio, 4), rounded(ratio, 4))):
            problems.append(f"m={m}: certified bounds print as {shown}")
        runs.append(f"m={m} in {wall:.0f}s at a process peak RSS of {peak:.0f} MB, "
                    f"certified cr(K_{{{m},n}}) >= {shown}")
    report("4 (stretch m=11, m=12)", problems,
           f"single-block optima match to 1e-5, {'; '.join(runs)}")


# a child interpreter's single-block run: its certificate and rounds as JSON
_SINGLE_CHILD = """
import json, sys
from crossings.relaxations import run_single
out = run_single(int(sys.argv[1]), cache_dir=sys.argv[2])
print(json.dumps({"value": out.value, "raw": out.raw, "certificate": str(out.certificate.value),
                  "status": [r.status for r in out.rounds]}))
"""

# the single m=13 table file, and the peak of a warm m=13 run in MiB, which
# holds the compact table and certify's Python ints (the int64 table alone
# was 1.72 GB, and a warm run peaked at 2,686 MiB)
M13_TABLE_BYTES = 250_000_000
M13_WARM_PEAK_MIB = 1300


def _child_run(code, *args):
    """The parsed last stdout line, wall seconds and peak RSS in MiB of one
    child interpreter running code with args."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE,
                            text=True, env=env)
    with proc.stdout:
        lines = proc.stdout.read().splitlines()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0 and lines, (proc.returncode, lines)
    return json.loads(lines[-1]), time.perf_counter() - t0, usage.ru_maxrss / 1024


def test_criterion_4_stretch_single_m13(tmp_path):
    if not STRETCH:
        print("criterion 4 (stretch m=13): SKIP - set CROSSINGS_STRETCH=1 to run "
              "single m=13 cold and warm (about 7 minutes, 2.7 GB)")
        pytest.skip("stretch runs disabled")
    problems, runs, certs = [], [], []
    for label in ("cold", "warm"):
        out, wall, peak = _child_run(_SINGLE_CHILD, "13", str(tmp_path))
        cert = Fraction(out["certificate"])
        certs.append(cert)
        err = abs(out["value"] - float(SINGLE_OPT[13]))
        if err > 1e-5:
            problems.append(f"m=13 {label}: value {out['value']:.10f} off by {err:.2e}")
        if out["raw"] - float(cert) > 1e-5:
            problems.append(f"m=13 {label}: certificate trails the solver by "
                            f"{out['raw'] - float(cert):.2e}")
        if cert > Fraction(SINGLE_OPT[13]) + Fraction(1, 10**9):
            problems.append(f"m=13 {label}: certified value exceeds the known optimum")
        runs.append(f"{label} in {wall:.0f}s at a peak RSS of {peak:.0f} MiB")
    if certs[0] != certs[1]:
        problems.append("m=13: the warm certificate differs from the cold one")
    if peak >= M13_WARM_PEAK_MIB:
        problems.append(f"m=13: warm peak RSS {peak:.0f} MiB, cap {M13_WARM_PEAK_MIB} MiB")
    table = (tmp_path / "coeffs_13_single.bin").stat().st_size
    if table > M13_TABLE_BYTES:
        problems.append(f"m=13: table of {table} bytes, cap {M13_TABLE_BYTES}")
    # criterion 6's m=13 row, from the certificate instead of the frozen value
    qb = quadratic_bound(13, certs[0])
    if truncated(qb.a, 5) != QUADRATIC_COEFFS[13][0] or plain(qb.b) != QUADRATIC_COEFFS[13][1]:
        problems.append(f"m=13: certified bound prints as {truncated(qb.a, 5)} n^2 - {plain(qb.b)} n")
    ratio = asymptotic_ratio(13, certs[0])
    if RATIO_SINGLE[13] not in (truncated(ratio, 4), rounded(ratio, 4)):
        problems.append(f"m=13: certified ratio prints as {truncated(ratio, 4)}")
    report("4 (stretch m=13)", problems,
           f"single-block optimum at m=13 matches to 1e-5, certified cr(K_{{13,n}}) >= "
           f"{truncated(qb.a, 5)} n^2 - {plain(qb.b)} n and ratio {truncated(ratio, 4)}, "
           f"{', '.join(runs)}, table {table / 1e6:.0f} MB")


def test_criterion_5_full_values(fulls):
    outcomes, walls = fulls
    problems = []
    for m in range(4, 9):
        out = outcomes[m]
        err = abs(out.value - float(FULL_OPT[m]))
        if err > 1e-6:
            problems.append(f"m={m}: value {out.value:.10f} off by {err:.2e}")
        cert = out.certificate
        if cert.bound > out.value + 1e-9:
            problems.append(f"m={m}: certificate {cert.bound:.10f} above the solve")
        if out.raw - cert.bound > 1e-5:
            problems.append(f"m={m}: certificate trails the solver by {out.raw - cert.bound:.2e}")
        if cert.value > Fraction(FULL_OPT[m]) + Fraction(1, 10**9):
            problems.append(f"m={m}: certified value exceeds the known optimum")
    wall = sum(walls.values())
    report(5, problems,
           f"full relaxation optima match to 1e-6 for m=4..8 with exact "
           f"certificates in {wall:.1f}s")


def test_criterion_5_stretch_full_m9(store):
    if not STRETCH:
        print("criterion 5 (stretch m=9): SKIP - set CROSSINGS_STRETCH=1 to run "
              "the full relaxation at m=9 (minutes)")
        pytest.skip("stretch runs disabled")
    problems = []
    t0 = time.perf_counter()
    out = run_full(9, cache_dir=store)
    wall = time.perf_counter() - t0
    err = abs(out.value - float(FULL_OPT[9]))
    if err > 1e-5:
        problems.append(f"m=9: value {out.value:.10f} off by {err:.2e}")
    if out.raw - out.certificate.bound > 1e-5:
        problems.append("m=9: certificate trails the solver")
    if out.certificate.value > Fraction(FULL_OPT[9]) + Fraction(1, 10**9):
        problems.append("m=9: certified value exceeds the known optimum")
    report("5 (stretch m=9)", problems,
           f"full relaxation optimum at m=9 matches to 1e-5 in {wall:.0f}s")


# sha256 of a cold version-4 coeffs_10_full.bin, whose block tables are
# those of the version-3 file of sha256 1ef306f0...f8274d, and of its block
# tables widened by their scales and set side by side (little-endian
# int64, row-major), the int64 table that the version-1 file held; the cap
# on the process peak RSS in MiB, 10% above the 447 MiB of a stretch run
# on 2 cores (the int64 records alone were 740 MiB)
FULL_10_TABLE_SHA256 = "fe2ba34549bf5e8530e7bfc94f70bf89c4a40973e08db84514b5ded03005a5fe"
FULL_10_WIDENED_SHA256 = "ba5ad6bc621fb17fa2b1576d44d820985df174ae5117a9590d77ca445b2005c1"
FULL_10_PEAK_MIB = 492


def test_criterion_5_stretch_full_m10(store):
    if not STRETCH:
        print("criterion 5 (stretch m=10): SKIP - set CROSSINGS_STRETCH=1 to run "
              "the full relaxation at m=10 (minutes, about 450 MB)")
        pytest.skip("stretch runs disabled")
    problems = []
    t0 = time.perf_counter()
    out = run_full(10, cache_dir=store)
    wall = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    err = abs(out.value - float(FULL_OPT[10]))
    if err > 1e-5:
        problems.append(f"m=10: value {out.value:.10f} off by {err:.2e}")
    if out.certificate.value > Fraction(FULL_OPT[10]) + Fraction(1, 10**9):
        problems.append("m=10: certified value exceeds the known optimum")
    digest = hashlib.sha256()
    with open(store / "coeffs_10_full.bin", "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 24), b""):
            digest.update(chunk)
    if digest.hexdigest() != FULL_10_TABLE_SHA256:
        problems.append(f"m=10: table sha256 {digest.hexdigest()}")
    _, sizes, _, tris, scales = coeff_tables(10, "full", cache_dir=store)
    digest = hashlib.sha256()
    for lo in range(0, len(sizes), 256):
        wide = np.hstack([widen(tri[lo : lo + 256], g) for tri, g in zip(tris, scales)])
        digest.update(np.ascontiguousarray(wide, dtype="<i8").tobytes())
    if digest.hexdigest() != FULL_10_WIDENED_SHA256:
        problems.append(f"m=10: widened table sha256 {digest.hexdigest()}")
    # the narrow block tables are the one copy of the table a run holds,
    # and the build holds one shape's int64 columns at a time
    if peak >= FULL_10_PEAK_MIB:
        problems.append(f"m=10: peak RSS {peak:.0f} MiB, cap {FULL_10_PEAK_MIB} MiB")
    # criterion 6's m=10 row, from the certificate instead of the frozen value
    qb = quadratic_bound(10, out.certificate.value, "alpha")
    if truncated(qb.a, 5) != QUADRATIC_COEFFS[10][0]:
        problems.append(f"m=10: certified leading coefficient prints as {truncated(qb.a, 5)}")
    report("5 (stretch m=10)", problems,
           f"full relaxation optimum at m=10 matches to 1e-5, certified "
           f"cr(K_{{10,n}}) >= {truncated(qb.a, 5)} n^2 - {plain(qb.b)} n, in "
           f"{wall:.0f}s at a process peak RSS of {peak:.0f} MiB")


def test_criterion_6_published_bounds():
    problems = []
    strongest = {10: FULL_OPT[10], 11: SINGLE_OPT[11],
                 12: SINGLE_OPT[12], 13: SINGLE_OPT[13]}
    for m, g in strongest.items():
        qb = quadratic_bound(m, g)
        want_a, want_b = QUADRATIC_COEFFS[m]
        if want_a not in (truncated(qb.a, 5), rounded(qb.a, 5)):
            problems.append(f"m={m}: leading coefficient prints as {truncated(qb.a, 5)}, want {want_a}")
        if plain(qb.b) != want_b:
            problems.append(f"m={m}: linear coefficient prints as {plain(qb.b)}, want {want_b}")
        lb = lift_bound(qb)
        want_c, want_e = LIFTED_COEFFS[m]
        if want_c not in (truncated(lb.c, 4), rounded(lb.c, 4)):
            problems.append(f"m={m}: lifted coefficient prints as {truncated(lb.c, 4)}, want {want_c}")
        if plain(lb.e) != want_e:
            problems.append(f"m={m}: lifted linear term prints as {plain(lb.e)}, want {want_e}")
    balanced = knn_table(strongest)
    if balanced != BALANCED_BOUNDS:
        problems.append(f"balanced bounds {balanced}, want {BALANCED_BOUNDS}")
    for n, bound in BALANCED_BOUNDS.items():
        if bound >= zarankiewicz(n, n):
            problems.append(f"n={n}: bound {bound} reaches the drawing count {zarankiewicz(n, n)}")
    for table, optima in ((RATIO_SINGLE, SINGLE_OPT), (RATIO_FULL, FULL_OPT)):
        for m, printed in table.items():
            r = asymptotic_ratio(m, optima[m])
            if printed not in (truncated(r, 4), rounded(r, 4)):
                problems.append(f"m={m}: ratio prints as {truncated(r, 4)}, want {printed}")
    report(6, problems,
           "quadratic, lifted, balanced, and ratio displays all reproduce "
           "the published tables")


def test_criterion_7_independent_routes():
    t0 = time.perf_counter()
    problems = []
    for m in range(4, 8):
        tables = PairTables.build(m)
        cols = hook_block_columns(m)
        tri = block_constraint_tables(tables, [Block((m - 2, 1, 1), 0, cols)], None)
        # combinations_with_replacement walks the upper triangle row-major
        for pos, (t1, t2) in enumerate(combinations_with_replacement(cols, 2)):
            got = {int(c): int(v) for c, v in enumerate(tri[:, pos]) if v}
            if direct_expansion(t1, t2, tables) != got:
                problems.append(f"m={m}: symbolic route disagrees with direct expansion")
                break
        if not (tri == pair_stream_hook_table(tables)).all():
            problems.append(f"m={m}: pair-stream route disagrees with the symbolic route")
    for m in range(4, 8):
        per_cycle = _dist(m)[_index(m).orbit_ids(all_cycle_seqs(m))]
        if not (per_cycle == distances_from_base_unpruned(_index(m))).all():
            problems.append(f"m={m}: pruned and unpruned searches disagree")
    for m in range(4, 7):
        elems = stabilizer_elements(m)
        seen = set()
        for rest in permutations(range(2, m + 1)):
            c = Cycle((1,) + rest)
            if c in seen:
                continue
            orb = {act(h, c) for h in elems}
            seen |= orb
            if {canonical_form(x) for x in orb} != {min(orb, key=lambda x: x.seq)}:
                problems.append(f"m={m}: canonical form disagrees with the group sweep")
                break
    wall = time.perf_counter() - t0
    report(7, problems,
           f"coefficient routes, search pruning, and canonicalization each "
           f"agree with their independent counterpart in {wall:.1f}s")


def test_criterion_7_first_cuts_match_a_class_zero_solve(store):
    # the cutting loop's first cuts come in closed form; a solve of the
    # instance restricted to class 0 alone must lead to the same active
    # set (its scan may list class 0 itself, violated by roundoff)
    t0 = time.perf_counter()
    problems = []
    for kind, levels in (("single", range(4, 11)), ("full", range(4, 9))):
        for m in levels:
            tables = coeff_tables(m, kind, cache_dir=store)
            cuts = first_cuts(*tables)
            offenders = class_zero_offenders(*tables)
            if cuts[0] != 0 or set(cuts) != {0, *offenders.tolist()}:
                problems.append(f"{kind} m={m}: closed-form first cuts differ from the solve")
    wall = time.perf_counter() - t0
    report("7 (first cuts)", problems,
           f"closed-form first cuts equal the class-0 solve's offenders at "
           f"single m=4..10 and full m=4..8 in {wall:.1f}s")


def test_criterion_8_relaxation_relations(singles, fulls):
    single_out, _ = singles
    full_out, _ = fulls
    problems = []
    for m in range(4, 8):
        if single_out[m].value > full_out[m].value + 1e-8:
            problems.append(f"m={m}: single block exceeds the full relaxation")
    if abs(single_out[6].value - full_out[6].value) > 1e-9:
        problems.append("m=6: the two relaxations differ")
    for m in (5, 7, 9):
        rank, _ = rank_report(single_out[m].y[0])
        if rank != 1:
            problems.append(f"m={m}: optimal block has rank {rank}, want 1")
    rank8, _ = rank_report(single_out[8].y[0])
    if rank8 != 2:
        problems.append(f"m=8: optimal block has rank {rank8}, want 2")
    _, v5 = rank_report(single_out[5].y[0])
    if v5 is None or not np.allclose(v5, V5, atol=1e-3):
        problems.append(f"m=5: factor {v5}, want {V5}")
    report(8, problems,
           "single block never beats the full relaxation, the two agree at "
           "m=6, ranks are 1 at m=5,7,9 and 2 at m=8, and the m=5 factor matches")


@pytest.mark.xfail(strict=True,
                   reason="the m=6 optimum sits where the feasible line meets "
                          "the cone boundary, a tangency, so the optimal block "
                          "is singular and rank 2 is unattainable")
def test_criterion_8_even_rank_at_m6(singles):
    single_out, _ = singles
    rank, _ = rank_report(single_out[6].y[0])
    print(f"criterion 8 (m=6 rank): FAIL - optimal block has rank {rank}, not 2; "
          "the tight classes leave one degree of freedom and the optimum is the "
          "tangency point, so the block is singular "
          "(see test_relaxations.py::test_rank_structure_even_m)")
    assert rank == 2


def test_criterion_9_certificates_after_perturbation(store, singles):
    single_out, _ = singles
    t0 = time.perf_counter()
    problems = []
    for m in range(4, 9):
        (d,), sizes, qs, (tri,), (g,) = coeff_tables(m, "single", cache_dir=store)
        for exponent, scale in ((6, 1e-6), (3, 1e-3)):
            rng = np.random.default_rng(1000 * m + exponent)
            noise = rng.normal(0.0, scale, (d, d))
            y = single_out[m].y[0] + noise + noise.T
            cert = certify([y], sizes, qs, [tri], [g])
            n_mat = cert.numerators[0]
            if not exactly_psd(n_mat):
                problems.append(f"m={m} scale {scale:g}: numerator not positive semidefinite")
                continue
            # reprice every class from scratch with stdlib rationals only
            worst = None
            for i in range(len(qs)):
                inner = 0
                k = 0
                for a in range(d):
                    for b in range(a, d):
                        inner += ((1 if a == b else 2) * int(n_mat[a, b])
                                  * int(tri[i, k]) * int(g))
                        k += 1
                val = Fraction(int(qs[i])) - Fraction(inner, cert.denominator * int(sizes[i]))
                if worst is None or val < worst:
                    worst = val
            if cert.value != worst:
                problems.append(f"m={m} scale {scale:g}: certified value fails the recheck")
            if cert.value > Fraction(SINGLE_OPT[m]) + Fraction(1, 10**9):
                problems.append(f"m={m} scale {scale:g}: certificate exceeds the known optimum")
    wall = time.perf_counter() - t0
    report(9, problems,
           f"perturbed duals at m=4..8 still certify, and every certificate "
           f"survives an independent rational recheck, in {wall:.2f}s")
