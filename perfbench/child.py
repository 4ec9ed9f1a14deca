"""One pass of a workload, in a fresh process.

Usage: python3 child.py JOB.json RESULT.json

The job names the package's source directory, the ``crossings`` command
lines to run in order, whether to trace and whether to time the
reference computation.  Each command runs through
``crossings.cli.main``, the entry point of the installed ``crossings``
script, with its stdout and stderr captured; the result file gets one
record per command (exit code, output, wall and CPU time) and, when
traced, the layer times, counts and per-span self times.

When the job asks for the reference, a ``Sampler`` times a short fixed
computation every 50 ms from the start of ``main`` to the end of the last
command, so that the parent can state times in units of the reference's
time measured during them: the speed of a core of a shared host swings
by a quarter and more, from tens of milliseconds to minutes, and the
reference swings with it.  The sampler's own time is taken out of each
command's time, and reported for the whole process.

The parent pins the BLAS thread count in this process's environment, so
it holds before numpy loads.  Every submodule of the package is imported
up front, traced or not, so both kinds of pass do the same imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time
import traceback
from pathlib import Path

# the reference slice: a dictionary-and-tuple loop like the package's
# table builds, pure Python so that the sampler can run before numpy
# loads and adds nothing to the peak memory of a pass; about 1 ms on a
# calm core.  REF_SLICES slices make one reference second.
SLICE_LOOP = 5000
REF_SLICES = 1000
SAMPLE_PERIOD_S = 0.05
WARM_UP_SLICES = 5


def reference_slice() -> None:
    table: dict = {}
    for i in range(SLICE_LOOP):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i


class Sampler:
    """Times one reference slice every SAMPLE_PERIOD_S seconds of wall
    time from a SIGALRM handler, so on the process's own core and
    interleaved with the program.  Keeps the slices' wall and CPU times,
    and in ``spent`` the wall and CPU time of all its work, which the
    measured times leave out."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self.spent = [0.0, 0.0]

    def _slice(self) -> list[float]:
        wall, cpu = time.perf_counter(), time.process_time()
        reference_slice()
        took = [time.perf_counter() - wall, time.process_time() - cpu]
        self.spent[0] += took[0]
        self.spent[1] += took[1]
        return took

    def _tick(self, signum, frame) -> None:
        self.samples.append(self._slice())

    def start(self) -> None:
        for _ in range(WARM_UP_SLICES):
            self._slice()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sampler = Sampler() if job["reference"] else None
    if sampler:
        sampler.start()  # before the imports, which set-up times
    sys.path.insert(0, job["src"])
    import layers

    modules = layers.import_package()
    pkg_file = Path(modules[0].__file__).resolve()
    if Path(job["src"]).resolve() not in pkg_file.parents:
        raise SystemExit(f"crossings loaded from {pkg_file}, not from {job['src']}")
    tracer = None
    if job["trace"]:
        tracer = layers.Tracer()
        tracer.install(modules)
    from crossings import cli

    ops = []
    for argv in job["commands"]:
        out, err = io.StringIO(), io.StringIO()
        if sampler:
            first, spent = len(sampler.samples), list(sampler.spent)
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # one failed command must not hide the others
            rc = None
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        op = {"argv": argv, "rc": rc, "stdout": out.getvalue(),
              "stderr": err.getvalue()[-2000:], "wall_s": wall, "cpu_s": cpu}
        if sampler:
            op["wall_s"] -= sampler.spent[0] - spent[0]
            op["cpu_s"] -= sampler.spent[1] - spent[1]
            op["samples"] = sampler.samples[first:]
        ops.append(op)
    if sampler:
        sampler.stop()

    result = {"ops": ops}
    if sampler:
        result.update(samples=sampler.samples, sampler_s=sampler.spent)
    if tracer is not None:
        result["trace"] = {
            "times": tracer.times,
            "counts": tracer.counts,
            "absent": tracer.absent,
            "spans": len(tracer.spans),
            "by_name": tracer.self_times(),
        }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
