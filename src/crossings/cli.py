"""Command line front end for the crossing-bound pipeline.

Stages share one cache directory and build on each other's files, so any
subcommand can start from an empty cache and pull in what it needs.  The
numeric imports happen inside the handlers: --threads pins the BLAS pool
sizes through the environment, which only works before the libraries load.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from functools import lru_cache
from math import factorial

from .errors import ArgumentError, CrossingsError, DataError


def _add_common(p: argparse.ArgumentParser, with_m: bool = True, with_cache: bool = True) -> None:
    if with_m:
        p.add_argument("--m", type=int, required=True, help="cycle length")
    if with_cache:
        p.add_argument(
            "--cache-dir", default=None,
            help="cache directory (default: CROSSING_CACHE_DIR or a per-user path)",
        )
    p.add_argument("--threads", type=int, default=None, help="BLAS thread count")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call in a process and
    shared by every later one: parse_args fills a fresh namespace on each
    call, so no option value carries over between calls."""
    top = argparse.ArgumentParser(
        prog="crossings",
        description="certified lower bounds on crossing numbers of complete bipartite graphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("q", help="cost table: swap distances between cycles")
    _add_common(p, with_cache=False)
    p.add_argument("--verify", action="store_true", help="check the self-pair cost law")

    p = sub.add_parser("orbits", help="pair orbits and swap classes")
    _add_common(p, with_cache=False)
    # orbits reads no cache; the flag is still accepted, unlisted and
    # ignored, because perfbench/run.py passes it to every command
    p.add_argument("--cache-dir", help=argparse.SUPPRESS)
    p.add_argument("--verify", action="store_true", help="check counts against the reference census")

    p = sub.add_parser("coeffs", help="constraint coefficient tables for the single block")
    _add_common(p)

    for name, aliases, relaxation in (("alpha", [], "full"), ("beta", ["certify"], "single-block")):
        p = sub.add_parser(name, aliases=aliases,
                           help=f"optimum of the {relaxation} relaxation and its exact certificate")
        _add_common(p)
        p.add_argument("--json", default=None, metavar="PATH", help="also write the result object here")

    p = sub.add_parser("bounds", help="derived crossing-number bounds, CSV on stdout")
    _add_common(p, with_m=False)
    p.add_argument("--m", type=int, default=None, help="compute the optimum at this level first")
    p.add_argument("--from-table", default=None, metavar="PATH",
                   help="JSON of known optima: {level: value} or {alpha: {...}, beta: {...}}")
    p.add_argument("--n", default=None, metavar="RANGE",
                   help="column counts, like 13, 10..13 or 10,12 (default: n = level)")
    p.add_argument("--source", choices=("alpha", "beta"), default="beta",
                   help="tag for values given without one")

    p = sub.add_parser("verify", help="cross-check computed values against known-good ones")
    _add_common(p)

    return top


def _parse_n_values(text: str | None) -> list[int]:
    """Column counts of --n; empty when it is not given."""
    if text is None:
        return []
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            ns = list(range(int(lo), int(hi) + 1))
        else:
            ns = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ArgumentError(f"--n {text!r}: not a count, a range or a list") from exc
    if not ns:
        raise ArgumentError(f"--n {text!r}: no column counts")
    return ns


def _self_pair_cost(index, dist, check: bool = True) -> int:
    """Swap distance of the pair (base, inverted base); with check, a
    DataError when it differs from the closed form floor((m-1)^2/4)."""
    from .swapgraph import self_cost

    # the inverse of the base word 1..m is 1, m, m-1, ..., 2
    diag = int(dist[index.orbit_ids([1, *range(index.m, 1, -1)])])
    if check and diag != self_cost(index.m):
        raise DataError(f"self-pair cost {diag} differs from the closed form {self_cost(index.m)}")
    return diag


def _cmd_q(args) -> int:
    from .cycles import CycleIndex
    from .swapgraph import distances_from_base

    index = CycleIndex(args.m)
    diag = _self_pair_cost(index, distances_from_base(index), check=args.verify)
    print(f"m={args.m}: {factorial(args.m - 1)} cycles, self-pair cost {diag}")
    if args.verify:
        print(f"ok: self-pair cost matches floor((m-1)^2/4) = {diag}")
    return 0


def _census_checked(m: int, triple) -> bool:
    """Whether m has a reference census; a DataError when triple differs."""
    from .reference import CENSUS

    if CENSUS.get(m, triple) != triple:
        raise DataError(f"census {triple} differs from the reference {CENSUS[m]}")
    return m in CENSUS


def _cmd_orbits(args) -> int:
    from .cycles import CycleIndex
    from .orbits import orbit_census

    triple = orbit_census(CycleIndex(args.m))
    print(f"m={args.m}: {triple[0]} relabel-only orbits, {triple[1]} / {triple[2]} "
          f"pair orbits / swap classes")
    if args.verify and _census_checked(args.m, triple):
        print("ok: census matches the reference")
    elif args.verify:
        print(f"no reference census for m={args.m}")
    return 0


def _cmd_coeffs(args) -> int:
    from . import cache
    from .relaxations import coeff_tables

    cd = cache.resolve_cache_dir(args.cache_dir)
    dims, _, qs, _, _ = coeff_tables(args.m, "single", cd)
    print(f"m={args.m}: {len(qs)} classes, block size {dims[0]}, "
          f"table {cache.coeffs_path(cd, args.m, 'single')}")
    return 0


def _result_fields(out) -> dict:
    """The optimum of a solve under alpha (full) or beta (single block),
    its classes and blocks, and its exact certificate; for one block also
    the dual block's rank and, at rank one, its vector."""
    from .relaxations import exactly_psd, rank_report

    cert = out.certificate
    fields = {"alpha" if out.kind == "full" else "beta": out.value, "classes": out.class_count,
              "blocks": [int(y.shape[0]) for y in out.y], "worst_class": cert.worst_class,
              "value": f"{cert.value.numerator}/{cert.value.denominator}",
              "psd_verified": all(exactly_psd(n) for n in cert.numerators)}
    if len(out.y) == 1:
        rank, vector = rank_report(out.y[0])
        fields.update(rank=rank, eigenvector=None if vector is None else [float(v) for v in vector])
    return fields


def _cmd_solve(args) -> int:
    """Run one relaxation, streaming one JSON line per cutting round to
    stderr, then print its result: alpha solves the full relaxation,
    beta (or certify) the single block."""
    from dataclasses import asdict

    from . import relaxations

    def progress(rec):
        print(json.dumps(asdict(rec)), file=sys.stderr, flush=True)

    run = relaxations.run_full if args.command == "alpha" else relaxations.run_single
    started = time.monotonic()
    out = run(args.m, cache_dir=args.cache_dir, progress=progress)
    result = {"m": args.m, **_result_fields(out), "certified_bound": out.certificate.bound,
              "status": out.status, "rounds": len(out.rounds), "iterations": out.iterations}
    result["total_time"] = time.monotonic() - started
    print(json.dumps(result))
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ArgumentError(f"--json {args.json}: {exc}") from exc
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import asymptotic_ratio, exact, lift_bound, plain, quadratic_bound, truncated

    ns = _parse_n_values(args.n)  # empty: n = level
    levels: dict[int, tuple[object, str]] = {}

    def keep_stronger(level: int, value, source: str) -> None:
        # where a level appears twice, the stronger optimum wins
        optimum = exact(value)  # read first, so every tabled value is checked
        if level not in levels or optimum > exact(levels[level][0]):
            levels[level] = (value, source)

    if args.from_table:
        try:
            with open(args.from_table, encoding="utf-8") as fh:
                data = json.load(fh)
            if isinstance(data, dict) and not set(data) <= {"alpha", "beta"}:
                data = {args.source: data}  # values given without a tag
            for source in ("beta", "alpha"):
                table = data.get(source, {}) if isinstance(data, dict) else None
                if not isinstance(table, dict):
                    raise TypeError("not a table of levels")
                for key, value in table.items():
                    keep_stronger(int(key), value, source)
        except (OSError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise ArgumentError(f"--from-table {args.from_table}: {exc}") from exc
    if args.m is not None:
        from .relaxations import run_single

        keep_stronger(args.m, run_single(args.m, cache_dir=args.cache_dir).certificate.value, "beta")
    if not levels:
        raise ArgumentError("bounds needs --from-table or --m")

    rows = []
    for level in sorted(levels):
        value, source = levels[level]
        qb = quadratic_bound(level, value, source)
        ratio = asymptotic_ratio(level, value)
        lifted = lift_bound(qb)
        print(
            f"cr(K_{{{level},n}}) >= {truncated(qb.a, 5)} n^2 - {plain(qb.b)} n"
            f"   [{source}; >= {truncated(lifted.c, 4)} m(m-1)n^2 - {plain(lifted.e)} m(m-1)n"
            f" for m >= {level}; ratio >= {truncated(ratio, 4)}]",
            file=sys.stderr,
        )
        for n in ns or [level]:
            rows.append((level, n, qb.evaluate(n), source, True))

    writer = csv.writer(sys.stdout)
    writer.writerow(["m", "n", "bound", "source", "certified"])
    writer.writerows(rows)
    return 0


def _cmd_verify(args) -> int:
    from . import cache, reference
    from .bounds import exact
    from .cycles import CycleIndex
    from .orbits import orbit_census
    from .swapgraph import distances_from_base

    m = args.m
    cd = cache.resolve_cache_dir(args.cache_dir)
    index = CycleIndex(m)
    dist = distances_from_base(index)
    print(f"ok: self-pair cost {_self_pair_cost(index, dist)}")

    triple = orbit_census(index)
    if _census_checked(m, triple):
        print(f"ok: census {triple}")
    else:
        print(f"skip: no reference census for m={m}")

    if m in reference.BLOCK_DIMS:
        from collections import Counter

        from .repsets import build_blocks

        dims = Counter(b.dim for b in build_blocks(m))
        if dict(dims) != reference.BLOCK_DIMS[m]:
            raise DataError(f"block dimensions {dict(dims)} differ from the reference")
        print(f"ok: block dimensions {sorted(dims.elements(), reverse=True)}")
    else:
        print(f"skip: block check not run at m={m}")

    # the tables on disk before the solve below, which writes a missing or stale one
    checked = 0
    for path in (cache.coeffs_path(cd, m, "single"), cache.coeffs_path(cd, m, "full")):
        if path.exists() and cache.is_stale(path):
            print(f"skip: {path.name} is of an older format, rebuilt by the next solve")
        elif path.exists():
            cache.read_coeffs(path, m)
            checked += 1
    print(f"ok: {checked} cache files pass their checksums and headers")

    if m in reference.SINGLE_BLOCK_OPTIMA:
        from .relaxations import run_single

        out = run_single(m, cache_dir=cd)
        want_value = exact(reference.SINGLE_BLOCK_OPTIMA[m])
        gap = abs(float(out.certificate.value - want_value))
        if gap > 1e-6:
            raise DataError(f"single-block optimum off by {gap:.2e} at m={m}")
        print(f"ok: single-block optimum {out.value:.10f}")
    else:
        print(f"skip: optimum check not run at m={m}")
    return 0


_HANDLERS = {
    "q": _cmd_q,
    "orbits": _cmd_orbits,
    "coeffs": _cmd_coeffs,
    **dict.fromkeys(("alpha", "beta", "certify"), _cmd_solve),
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be positive", file=sys.stderr)
            return ArgumentError.exit_code
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        return _HANDLERS[args.command](args)
    except CrossingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
