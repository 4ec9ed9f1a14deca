"""Summarize the run records in perfbench/results/ as markdown tables.

Usage (from the repository root, after some runs of run.py):

    python3 perfbench/summarize.py

For every workload: the median and quartiles of each end-to-end metric
over the untraced runs, with the quartile spread as a share of the median,
and the same of the raw command times in seconds, in parentheses;
then the per-layer metrics of the traced runs (medians) and the self time
of every traced span, which is its time minus that of its child spans.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> None:
    records: dict[tuple[str, bool], list[dict]] = {}
    for path in sorted(RESULTS.glob("*.json")):
        rec = json.loads(path.read_text())
        records.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for (name, trace), recs in sorted(records.items()):
        seeds = sorted(r["seed"] for r in recs)
        print(f"\n### {name}, {'traced' if trace else 'untraced'}: {len(recs)} runs, "
              f"seeds {seeds}\n")
        if not trace:
            print("| metric | unit | Q1 | median | Q3 | (Q3-Q1)/median |")
            print("| --- | --- | --- | --- | --- | --- |")
            rows = {key: (first["unit"], [r["metrics"][key]["value"] for r in recs])
                    for key, first in recs[0]["metrics"].items()}
            # the raw seconds that wall_s and cpu_s are made from
            for key in ("commands_wall_s", "commands_cpu_s"):
                rows[f"({key})"] = ("s", [statistics.median(p[key] for p in r["passes"])
                                          for r in recs])
            for key, (unit, values) in rows.items():
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                print(f"| {key} | {unit} | {q1:.5g} | {med:.5g} | {q3:.5g} | {spread:.4f} |")
            continue
        print("| metric | unit | median |")
        print("| --- | --- | --- |")
        for key, first in recs[0]["metrics"].items():
            med = statistics.median(r["metrics"][key]["value"] for r in recs)
            shown = f"{med:.0f}" if first["unit"] == "count" else f"{med:.5g}"
            print(f"| {key} | {first['unit']} | {shown} |")
        spans: dict[str, list] = {}
        for rec in recs:
            for p in rec["passes"]:
                for span, row in p["trace"]["by_name"].items():
                    spans.setdefault(span, []).append(
                        (row["calls"], row["total_s"], row["self_s"]))
        print("\n| span | calls | total s | self s |")
        print("| --- | --- | --- | --- |")
        for span, rows in sorted(spans.items(), key=lambda kv: -statistics.median(
                r[2] for r in kv[1])):
            print(f"| {span} | {statistics.median(r[0] for r in rows):g} "
                  f"| {statistics.median(r[1] for r in rows):.4g} "
                  f"| {statistics.median(r[2] for r in rows):.4g} |")


if __name__ == "__main__":
    main()
