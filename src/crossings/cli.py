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


def _add_solver(p: argparse.ArgumentParser, with_resume: bool = True) -> None:
    p.add_argument("--json", default=None, metavar="PATH", help="also write the result object here")
    if with_resume:
        p.add_argument("--resume", action="store_true", help="continue a saved cutting-plane run")


def _build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("alpha", help="optimum of the full relaxation")
    _add_common(p)
    _add_solver(p, with_resume=False)

    p = sub.add_parser("beta", help="optimum of the single-block relaxation")
    _add_common(p)
    _add_solver(p)

    p = sub.add_parser("bounds", help="derived crossing-number bounds, CSV on stdout")
    _add_common(p, with_m=False)
    p.add_argument("--m", type=int, default=None, help="compute the optimum at this level first")
    p.add_argument("--from-table", default=None, metavar="PATH",
                   help="JSON of known optima: {level: value} or {alpha: {...}, beta: {...}}")
    p.add_argument("--n", default=None, metavar="RANGE",
                   help="column counts, like 13, 10..13 or 10,12 (default: n = level)")
    p.add_argument("--source", choices=("alpha", "beta"), default="beta",
                   help="tag for values given without one")

    p = sub.add_parser("certify", help="exact certificate for the single-block optimum")
    _add_common(p)
    _add_solver(p)

    p = sub.add_parser("verify", help="cross-check computed values against known-good ones")
    _add_common(p)

    return top


def _parse_n_values(text: str | None, fallback) -> list[int]:
    if text is None:
        return list(fallback)
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


def _result_out(args, result: dict) -> None:
    print(json.dumps(result))
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")


def _self_pair_cost(index, dist, check: bool = True) -> int:
    """Swap distance of the pair (base, inverted base); with check, a
    DataError when it differs from the closed form floor((m-1)^2/4)."""
    from .cycles import Cycle
    from .swapgraph import self_cost

    diag = int(dist[index.id_of(Cycle.base(index.m).invert())])
    if check and diag != self_cost(index.m):
        raise DataError(f"self-pair cost {diag} differs from the closed form {self_cost(index.m)}")
    return diag


def _cmd_q(args) -> int:
    from .cycles import CycleIndex
    from .swapgraph import distances_from_base

    index = CycleIndex(args.m)
    diag = _self_pair_cost(index, distances_from_base(index), check=args.verify)
    print(f"m={args.m}: {len(index)} cycles, self-pair cost {diag}")
    if args.verify:
        print(f"ok: self-pair cost matches floor((m-1)^2/4) = {diag}")
    return 0


def _cmd_orbits(args) -> int:
    from . import reference
    from .cycles import CycleIndex
    from .orbits import orbit_census
    from .swapgraph import distances_from_base

    index = CycleIndex(args.m)
    triple = orbit_census(index, distances_from_base(index))
    print(f"m={args.m}: {triple[0]} relabel-only orbits, {triple[1]} / {triple[2]} "
          f"pair orbits / swap classes")
    if args.verify:
        want = reference.CENSUS.get(args.m)
        if want is None:
            print(f"no reference census for m={args.m}")
        elif triple != want:
            raise DataError(f"census {triple} differs from the reference {want}")
        else:
            print("ok: census matches the reference")
    return 0


def _cmd_coeffs(args) -> int:
    from . import cache
    from .relaxations import coeff_tables

    cd = cache.resolve_cache_dir(args.cache_dir)
    dims, sizes, qs, tri = coeff_tables(args.m, "single", cd)
    print(f"m={args.m}: {len(qs)} classes, block size {dims[0]}, "
          f"table {cache.coeffs_path(cd, args.m, 'single')}")
    return 0


def _cmd_alpha(args) -> int:
    from .relaxations import run_full

    started = time.monotonic()
    out = run_full(args.m, cache_dir=args.cache_dir)
    result = {
        "m": args.m,
        "alpha": out.value,
        "certified_bound": out.certificate.bound,
        "status": out.status,
        "classes": out.class_count,
        "blocks": [int(y.shape[0]) for y in out.y],
        "iterations": out.iterations,
        "total_time": time.monotonic() - started,
    }
    _result_out(args, result)
    return 0


def _run_single(args):
    from .relaxations import run_single

    def progress(rec):
        line = {
            "round": rec.round,
            "active": rec.active,
            "objective": rec.objective,
            "max_violation": rec.max_violation,
            "wall_time_ms": rec.wall_ms,
            "iterations": rec.iterations,
            "status": rec.status,
        }
        print(json.dumps(line), file=sys.stderr, flush=True)

    return run_single(args.m, cache_dir=args.cache_dir, resume=args.resume, progress=progress)


def _cmd_beta(args) -> int:
    from .relaxations import rank_report

    started = time.monotonic()
    out = _run_single(args)
    rank, vector = rank_report(out.y[0])
    result = {
        "m": args.m,
        "beta": out.value,
        "certified_bound": out.certificate.bound,
        "status": out.status,
        "rank": rank,
        "eigenvector": None if vector is None else [float(v) for v in vector],
        "rounds": len(out.rounds),
        "iterations": out.iterations,
        "total_time": time.monotonic() - started,
    }
    _result_out(args, result)
    return 0


def _cmd_certify(args) -> int:
    from .relaxations import exactly_psd

    out = _run_single(args)
    cert = out.certificate
    result = {
        "m": args.m,
        "certified_bound": cert.bound,
        "value": f"{cert.value.numerator}/{cert.value.denominator}",
        "worst_class": cert.worst_class,
        "psd_verified": all(exactly_psd(n) for n in cert.numerators),
        "status": out.status,
        "iterations": out.iterations,
    }
    _result_out(args, result)
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import asymptotic_ratio, exact, lift_bound, plain, quadratic_bound, truncated

    levels: dict[int, tuple[object, str]] = {}
    if args.from_table:
        with open(args.from_table, encoding="utf-8") as fh:
            data = json.load(fh)
        if set(data) <= {"alpha", "beta"}:
            # take the stronger optimum where both relaxations are present
            for source in ("beta", "alpha"):
                for key, value in data.get(source, {}).items():
                    level = int(key)
                    if level not in levels or exact(value) > exact(levels[level][0]):
                        levels[level] = (value, source)
        else:
            levels = {int(k): (v, args.source) for k, v in data.items()}
    if args.m is not None:
        from .relaxations import run_single

        out = run_single(args.m, cache_dir=args.cache_dir)
        levels[args.m] = (out.certificate.value, "beta")
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
        for n in _parse_n_values(args.n, [level]):
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

    triple = orbit_census(index, dist)
    want = reference.CENSUS.get(m)
    if want is not None:
        if triple != want:
            raise DataError(f"census {triple} differs from the reference {want}")
        print(f"ok: census {triple}")
    else:
        print(f"skip: no reference census for m={m}")

    if m in reference.BLOCK_DIMS and m <= 7:
        from collections import Counter

        from .repsets import build_blocks

        dims = Counter(b.dim for b in build_blocks(index))
        if dict(dims) != reference.BLOCK_DIMS[m]:
            raise DataError(f"block dimensions {dict(dims)} differ from the reference")
        print(f"ok: block dimensions {sorted(dims.elements(), reverse=True)}")
    else:
        print(f"skip: block check not run at m={m}")

    if m <= 7:
        from .relaxations import run_single

        out = run_single(m, cache_dir=cd)
        want_value = exact(reference.SINGLE_BLOCK_OPTIMA[m])
        gap = abs(float(out.certificate.value - want_value))
        if gap > 1e-6:
            raise DataError(f"single-block optimum off by {gap:.2e} at m={m}")
        print(f"ok: single-block optimum {out.value:.10f}")
    else:
        print(f"skip: optimum check not run at m={m}")

    checked = 0
    for path in (cache.coeffs_path(cd, m, "single"), cache.coeffs_path(cd, m, "full")):
        if path.exists():
            cache._read_payload(path)
            checked += 1
    print(f"ok: {checked} cache files pass their checksums")
    return 0


_HANDLERS = {
    "q": _cmd_q,
    "orbits": _cmd_orbits,
    "coeffs": _cmd_coeffs,
    "alpha": _cmd_alpha,
    "beta": _cmd_beta,
    "bounds": _cmd_bounds,
    "certify": _cmd_certify,
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
