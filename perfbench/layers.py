"""Span tracing of the package's layers from outside the package.

Each target is a public function or method of one layer module.  The
tracer replaces it with a wrapper everywhere a caller looks the name up:
on its defining module or class, and on every other ``crossings`` module
that bound the same object at import time (``coeffs`` imports
``distances_from_base`` and ``build_pair_orbits`` that way, ``orbits`` and
``swapgraph`` import ``canonical_keys``).  Call-time imports, as in the
CLI handlers, read the defining module and so see the wrapper too.

A target that no longer exists is recorded as absent; its metric then
reads 0 and the run names it on stderr instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from dataclasses import dataclass, field


def _rows(metric, arg_index):
    """Count the leading dimension of one positional argument."""
    def count(counts, args, result):
        counts[metric] += int(len(args[arg_index]))
    return count


def _solves(counts, args, result):
    counts["sdp.solves"] += 1
    counts["sdp.iterations"] += int(result.iterations)
    counts["sdp.optimal_solves"] += int(result.status == "optimal")


def _rounds(counts, args, result):
    counts["relaxations.rounds"] += len(result.rounds)


# (time metric or None, module, attribute path, counter or None)
TARGETS = [
    ("cycles.index_s", "crossings.cycles", "CycleIndex.__init__", None),
    ("cycles.canonical_keys_s", "crossings.cycles", "canonical_keys",
     _rows("cycles.canonical_rows", 0)),
    ("swapgraph.bfs_s", "crossings.swapgraph", "distances_from_base", None),
    ("orbits.build_s", "crossings.orbits", "build_pair_orbits", None),
    ("orbits.census_s", "crossings.orbits", "count_relabel_only_orbits", None),
    ("orbits.census_s", "crossings.orbits", "PairOrbits.symmetric_classes", None),
    ("coeffs.pair_tables_s", "crossings.coeffs", "PairTables.build", None),
    ("coeffs.hook_table_s", "crossings.coeffs", "hook_constraint_table", None),
    ("coeffs.block_tables_s", "crossings.coeffs", "block_constraint_tables", None),
    ("coeffs.class_lookup_s", "crossings.coeffs", "PairTables.class_ids_of_words",
     _rows("coeffs.class_lookups", 1)),
    ("repsets.build_blocks_s", "crossings.repsets", "build_blocks", None),
    ("sdp.solve_s", "crossings.sdp", "solve_bound_problem", _solves),
    ("sdp.polish_s", "crossings.sdp", "polish_dual", None),
    ("relaxations.tables_s", "crossings.relaxations", "hook_tables", None),
    ("relaxations.tables_s", "crossings.relaxations", "full_tables", None),
    ("relaxations.scan_s", "crossings.relaxations", "scan_violations", None),
    ("relaxations.certify_s", "crossings.relaxations", "certify_single", None),
    ("relaxations.certify_s", "crossings.relaxations", "certify_full", None),
    ("relaxations.exact_psd_s", "crossings.relaxations", "exactly_psd", None),
    (None, "crossings.relaxations", "run_single", _rounds),
    (None, "crossings.relaxations", "run_full", _rounds),
    ("cache.read_s", "crossings.cache", "read_q_table", None),
    ("cache.read_s", "crossings.cache", "read_orbits", None),
    ("cache.read_s", "crossings.cache", "read_coeffs_beta", None),
    ("cache.read_s", "crossings.cache", "read_coeffs_alpha", None),
    ("cache.write_s", "crossings.cache", "write_q_table", None),
    ("cache.write_s", "crossings.cache", "write_orbits", None),
    ("cache.write_s", "crossings.cache", "write_coeffs_beta", None),
    ("cache.write_s", "crossings.cache", "write_coeffs_alpha", None),
]

COUNT_METRICS = ["cycles.canonical_rows", "coeffs.class_lookups", "sdp.solves",
                 "sdp.iterations", "sdp.optimal_solves", "relaxations.rounds"]
TIME_METRICS = list(dict.fromkeys(t[0] for t in TARGETS if t[0] is not None))


def import_package() -> list:
    """Import every submodule of the package, so that wrappers installed
    afterwards reach all import-time bindings."""
    pkg = importlib.import_module("crossings")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"crossings.{info.name}"))
    return mods


@dataclass
class Tracer:
    """Spans as [id, parent id, name, start, end]; per-metric time of the
    outermost open span of that metric, and counts."""

    spans: list = field(default_factory=list)
    times: dict = field(default_factory=lambda: dict.fromkeys(TIME_METRICS, 0.0))
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNT_METRICS, 0))
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _open: dict = field(default_factory=dict)

    def wrap(self, fn, name, metric, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            span = [sid, tracer._stack[-1] if tracer._stack else None, name, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            outer = metric is not None and not tracer._open.get(metric)
            if outer:
                tracer._open[metric] = True
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
                if outer:
                    tracer._open[metric] = False
                    tracer.times[metric] += span[4] - span[3]
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def install(self, modules) -> None:
        for metric, mod_name, path, counter in TARGETS:
            name = f"{mod_name.rsplit('.', 1)[-1]}.{path}"
            try:
                owner = importlib.import_module(mod_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    self.wrap(raw.__func__, name, metric, counter)))
                continue
            wrapped = self.wrap(raw, name, metric, counter)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)

    def self_times(self) -> dict:
        """Per span name: calls, total time and self time (total minus the
        time its direct child spans cover)."""
        out: dict[str, list] = {}
        child_time = [0.0] * len(self.spans)
        for sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for sid, _parent, name, start, end in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[sid]
        return {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in out.items()}
