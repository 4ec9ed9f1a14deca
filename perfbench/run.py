"""Benchmark of the crossings pipeline through its command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs one workload's ``crossings`` commands, one level m each, in
a fresh process (``child.py``) with the BLAS pools pinned to one thread.
While an untraced pass or a set-up runs, it times a short fixed reference
computation every 50 ms on its own core; ``wall_s``, ``cpu_s`` and
``setup_s`` are in reference seconds, the time of 1000 of these slices,
so that the host's swings in speed cancel.  Passes repeat, whole, until S
seconds of passes have run.  Every command's
output is checked against references frozen in ``checks.py``.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics untraced (``--trace 0``)
and the per-layer metrics traced (``--trace 1``), each a median over the
passes.  A readable log goes to stderr and the pass records to
``perfbench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import child
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

BLAS_THREADS = 1
# set-up repeats until it has run this often and this long; setup_s is
# the median of the repeats
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_SAMPLES = 10  # reference slices per group of passes (one per 50 ms)


def coeffs_cmd(m: int) -> list[str]:
    return ["coeffs", "--m", str(m)]


def certify_cmd(m: int) -> list[str]:
    return ["certify", "--m", str(m)]


def alpha_cmd(m: int) -> list[str]:
    return ["alpha", "--m", str(m)]


def census_cmd(m: int) -> list[str]:
    return ["orbits", "--m", str(m), "--verify"]


Step = tuple[Callable[[int], list[str]], Callable[[int, str], list[str]]]


@dataclass(frozen=True)
class Workload:
    levels: tuple[int, ...]
    step: Step  # the timed command per level and its check
    fill: Step | None = None  # set-up fills the cache with these commands
    recheck: Step | None = None  # untimed check of the first pass's cache


WORKLOADS = {
    "coeffs-cold": Workload((4, 5, 6, 7, 8), (coeffs_cmd, checks.check_coeffs),
                            recheck=(certify_cmd, checks.check_certify)),
    "beta-warm": Workload((4, 5, 6, 7, 8), (certify_cmd, checks.check_certify),
                          fill=(coeffs_cmd, checks.check_coeffs)),
    "alpha-cold": Workload((4, 5, 6, 7), (alpha_cmd, checks.check_alpha)),
    "census-10": Workload((10,), (census_cmd, checks.check_census)),
}


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "CROSSING_CACHE_DIR")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def dir_bytes(path: Path) -> int:
    """Bytes under path as ``du -sb`` counts them, the directory included."""
    total = path.lstat().st_size
    for base, dirs, files in os.walk(path):
        for name in dirs + files:
            total += (Path(base) / name).lstat().st_size
    return total


@dataclass
class Runner:
    work: Path
    deadline: float
    serial: int = 0

    def child(self, commands: list[list[str]], trace: bool = False,
              reference: bool = False) -> dict:
        """Run one child process; returns its result with wall, cpu and
        peak memory of the whole process."""
        self.serial += 1
        job = self.work / f"job{self.serial}.json"
        out = self.work / f"result{self.serial}.json"
        log = self.work / f"log{self.serial}.txt"
        job.write_text(json.dumps({"src": str(SRC), "commands": commands, "trace": trace,
                                   "reference": reference}))
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            raise BenchError("out of time before the next pass")
        with open(log, "wb") as log_fh:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job), str(out)],
                env=child_env(), cwd=ROOT, stdout=log_fh, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-3000:]
            raise BenchError(f"pass process exited with {proc.returncode}:\n{tail}")
        result = json.loads(out.read_text())
        result.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024.0)
        return result

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def with_cache(cmd: list[str], cache: Path) -> list[str]:
    return cmd + ["--cache-dir", str(cache)]


def checked(result: dict, levels, check) -> tuple[int, list[str]]:
    """Failed operations and output problems of one child's commands."""
    failed, problems = 0, []
    for m, op in zip(levels, result["ops"]):
        if op["rc"] != 0:
            failed += 1
            log(f"  FAILED {' '.join(op['argv'][:3])}: exit {op['rc']}\n{op['stderr']}")
            continue
        problems.extend(check(m, op["stdout"]))
    return failed, problems


def reference_second(slice_times: list[float]) -> float:
    """Seconds of one reference second, REF_SLICES slices, from the mean
    slice time without the highest and lowest tenth, which holds slices
    that an interrupt or a page fault stretched."""
    values = sorted(slice_times)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut]) * child.REF_SLICES


def command_times(result: dict) -> None:
    """Move the commands' summed wall and CPU times and their reference
    slices from the per-command records to the pass."""
    ops = result["ops"]
    for key in ("wall", "cpu"):
        result[f"commands_{key}_s"] = sum(op[f"{key}_s"] for op in ops)
    result["samples"] = [s for op in ops for s in op.pop("samples")]


def in_reference_units(passes: list[dict]) -> list[dict]:
    """Per group of consecutive passes holding MIN_SAMPLES reference slices
    or more (one pass each, unless passes get short): the commands' wall
    and CPU time per pass in reference seconds, from the wall and CPU time
    of the slices timed during them."""
    groups, current = [], []
    for p in passes:
        current.append(p)
        if sum(len(q["samples"]) for q in current) >= MIN_SAMPLES:
            groups.append(current)
            current = []
    if current and groups:
        groups[-1] += current
    elif current:
        groups.append(current)
    values = []
    for group in groups:
        samples = [s for p in group for s in p["samples"]]
        if not samples:
            raise BenchError("no reference slice was timed during the passes")
        values.append({key: statistics.fmean(p[f"commands_{key}_s"] for p in group)
                       / reference_second([s[i] for s in samples])
                       for i, key in enumerate(("wall", "cpu"))})
    return values


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[name]
    rng = random.Random(seed)

    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
        runner.child([])  # untimed warm-up: bytecode and file cache
        problems: list[str] = []

        setup_times: list[float] = []  # process wall time less the sampler's
        setup_samples: list[list[float]] = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            base = runner.fresh_dir(f"setup{len(setup_times)}")
            if wl.fill is None:
                got = runner.child([], reference=True)
            else:
                cmd, check = wl.fill
                got = runner.child([with_cache(cmd(m), base) for m in wl.levels],
                                   reference=True)
                bad, found = checked(got, wl.levels, check)
                if bad:
                    raise BenchError("set-up could not fill the cache")
                problems += found
            setup_times.append(got["wall_s"] - got["sampler_s"][0])
            setup_samples += got["samples"]

        passes = []
        attempted = failed = 0
        while sum(p["wall_s"] for p in passes) < seconds:
            cache = work / f"pass{len(passes)}"
            if wl.fill is None:
                cache = runner.fresh_dir(cache.name)
            else:
                shutil.rmtree(cache, ignore_errors=True)
                shutil.copytree(base, cache)
            order = list(wl.levels)
            rng.shuffle(order)
            cmd, check = wl.step
            got = runner.child([with_cache(cmd(m), cache) for m in order], trace=trace,
                               reference=not trace)
            if not trace:
                command_times(got)
            got["cache_bytes"] = dir_bytes(cache)
            got["order"] = order
            bad, found = checked(got, order, check)
            attempted += len(order)
            failed += bad
            problems += found
            if wl.recheck is not None and not passes:
                cmd2, check2 = wl.recheck
                again = runner.child([with_cache(cmd2(m), cache) for m in wl.levels])
                bad2, found2 = checked(again, wl.levels, check2)
                problems += found2
                if bad2:
                    problems.append(f"certify failed at {bad2} levels on the new tables")
            passes.append(got)
            shutil.rmtree(cache)
            log(f"  pass {len(passes)}: levels {order}, wall {got['wall_s']:.4f} s, "
                + (f"commands {got['commands_wall_s']:.4f} s, "
                   f"{len(got['samples'])} slices, " if not trace else "")
                + f"rss {got['peak_rss_mb']:.1f} MB, cache {got['cache_bytes']} B")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        log(f"  WRONG {p}")
    log(f"{name}: set-up {len(setup_times)} times, {len(passes)} passes")

    def median(key):
        return statistics.median(p[key] for p in passes)

    if trace:
        metrics = {"trace.wall_s": {"value": median("wall_s"), "unit": "s"}}
        for metric in layers.TIME_METRICS:
            metrics[metric] = {"value": statistics.median(
                p["trace"]["times"][metric] for p in passes), "unit": "s"}
        for metric in layers.COUNT_METRICS:
            values = {p["trace"]["counts"][metric] for p in passes}
            if len(values) > 1:
                log(f"  count {metric} differs between passes: {sorted(values)}")
            metrics[metric] = {"value": statistics.median(
                p["trace"]["counts"][metric] for p in passes), "unit": "count"}
        for missing in passes[-1]["trace"]["absent"]:
            log(f"  absent: {missing} no longer exists; its metric reads 0")
    else:
        groups = in_reference_units(passes)
        if not setup_samples:
            raise BenchError("no reference slice was timed during set-up")
        metrics = {
            "wall_s": {"value": statistics.median(g["wall"] for g in groups), "unit": "s"},
            "cpu_s": {"value": statistics.median(g["cpu"] for g in groups), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
            "cache_bytes": {"value": median("cache_bytes"), "unit": "B"},
            "setup_s": {"value": statistics.median(setup_times) / reference_second(
                [w for w, _ in setup_samples]), "unit": "s"},
        }
    for key, metric in metrics.items():
        log(f"  {key:26s} {metric['value']:.6g} {metric['unit']}")

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "blas_threads": BLAS_THREADS, "setup_s": setup_times,
              "setup_samples": setup_samples, "metrics": metrics,
              "passes": [{k: v for k, v in p.items() if k != "ops"} for p in passes]}
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "crossings" / "cli.py").is_file():
        print(f"error: no crossings sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
