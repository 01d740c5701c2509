"""Statistics, the whole-suite runner, the report table and ``compare``.

A *suite* is what a person runs: every workload, a few repetitions each
in a fresh subprocess (the same command line the driver uses), plus one
traced run per workload; medians, quartiles and sample counts are
printed per (workload, metric) and can be saved as JSON for ``compare``.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

from repro.analysis.tables import format_table

from benchmarks.past_bench import REPO_ROOT, spec


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 if empty)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: A run's timing metrics are read off consecutive blocks of its
#: operations, and the block reported is the third-fastest of twenty.
#: On the reference box (a 2-vCPU VM on a shared host) noise only ever
#: slows a block down, in spells of a second to minutes, and a whole-run
#: figure, or even the median block, moves with how many spells a run
#: happened to meet; the fast blocks are the ones that met none.  A
#: change to the code slows every block, so the fast ones show it too.
#: (What this cannot see is a rare long stall -- one GC pause every few
#: seconds -- which slows few blocks; ``loop.lag_p99_ms`` is for that.)
BLOCKS = 20
FAST_RANK = 3


def blocks_of(items: Sequence, count: int = BLOCKS) -> List[Sequence]:
    """*items* cut into *count* consecutive, near-equal, non-empty runs."""
    cuts = [index * len(items) // count for index in range(count + 1)]
    return [items[low:high] for low, high in zip(cuts, cuts[1:]) if high > low]


def fast_block(block_values: Sequence[float], higher_is_faster: bool) -> float:
    """The ``FAST_RANK``-th best of the per-block values (0 with none)."""
    ordered = sorted(block_values, reverse=higher_is_faster)
    return ordered[min(FAST_RANK, len(ordered)) - 1] if ordered else 0.0


def block_percentile(values: Sequence[float], q: float) -> float:
    """The fast block's *q*-th percentile of *values* (latencies, in
    completion order)."""
    return fast_block([percentile(sorted(block), q) for block in blocks_of(values)],
                      higher_is_faster=False)


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and count of one metric's per-run values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": list(values)}


# ---------------------------------------------------------------------- #
# running the suite
# ---------------------------------------------------------------------- #


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh process; returns its final JSON line, parsed."""
    command = [sys.executable, "-m", "benchmarks.past_bench",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    completed = subprocess.run(command, cwd=REPO_ROOT, capture_output=True,
                               text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{workload} printed no result (exit {completed.returncode}):\n"
            f"{completed.stderr}"
        )
    result = json.loads(lines[-1])
    result["exit_code"] = completed.returncode
    return result


def run_suite(seed: int, seconds: float, repetitions: int) -> dict:
    """Every workload: *repetitions* untraced runs, then one traced run."""
    declared = spec.load_spec()
    document = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in spec.workload_names(declared):
        runs = []
        for repetition in range(repetitions):
            print(f"[{workload}] run {repetition + 1}/{repetitions}",
                  file=sys.stderr, flush=True)
            runs.append(run_once(workload, seed, seconds, trace=False))
        print(f"[{workload}] traced run", file=sys.stderr, flush=True)
        traced = run_once(workload, seed, seconds, trace=True)
        end_to_end = {
            name: summarize([run["metrics"][name]["value"] for run in runs])
            for name in spec.metric_table(declared, "end_to_end")
            if spec.applies(workload, name)
        }
        attempted = sum(run["attempted"] for run in runs + [traced])
        failed = sum(run["failed"] for run in runs + [traced])
        document["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: cell["value"]
                          for name, cell in traced["metrics"].items()},
            "attempted": attempted,
            "failed": failed,
            "failed_ops_pct": 100.0 * failed / attempted,
            "correct": all(run["correct"] and run["exit_code"] == 0
                           for run in runs + [traced]),
        }
    return document


def format_suite(document: dict) -> str:
    declared = spec.load_spec()
    end_to_end = spec.metric_table(declared, "end_to_end")
    per_layer = spec.metric_table(declared, "per_layer")
    parts = [f"past_bench: seed {document['seed']}, --seconds {document['seconds']}"]
    for workload, body in document["workloads"].items():
        parts.append(format_table(
            ["end-to-end metric", "unit", "median", "q1", "q3", "n"],
            [[name, end_to_end[name]["unit"], f"{cell['median']:.4f}",
              f"{cell['q1']:.4f}", f"{cell['q3']:.4f}", cell["n"]]
             for name, cell in body["end_to_end"].items()],
            title=f"{workload}: failed_ops_pct {body['failed_ops_pct']:.4f} % of "
                  f"{body['attempted']} attempted, outputs "
                  f"{'correct' if body['correct'] else 'WRONG'}",
        ))
        parts.append(format_table(
            ["per-layer metric (traced run)", "unit", "value"],
            # 0 = the workload never entered the layer
            [[name, per_layer[name]["unit"], f"{value:.4f}"]
             for name, value in body["per_layer"].items() if value],
        ))
    return "\n\n".join(parts)


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #


def compare(base: dict, change: dict) -> List[dict]:
    """One row per (workload, end-to-end metric) present in both suites.

    ``regressed``: the change's median is worse than the base's by more
    than the metric's bound.  ``unresolved``: it is not, but either
    side's own quartile spread is wider than the bound, so "no worse"
    cannot be told from noise.  ``ok`` otherwise.
    """
    declared = spec.metric_table(spec.load_spec(), "end_to_end")
    rows = []
    for workload, body in base["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            continue
        for name, a in body["end_to_end"].items():
            b = other["end_to_end"].get(name)
            if b is None:
                continue
            bound = declared[name]["bound"]
            sign = 1.0 if declared[name]["better"] == "lower" else -1.0
            worse_by = sign * (b["median"] - a["median"]) / a["median"]
            spread = max((cell["q3"] - cell["q1"]) / cell["median"]
                         for cell in (a, b))
            if worse_by > bound:
                verdict = "regressed"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name,
                         "unit": declared[name]["unit"], "base": a, "change": b,
                         "delta": b["median"] - a["median"],
                         "worse_by": worse_by, "spread": spread,
                         "bound": bound, "verdict": verdict})
        for side, label in ((body, "base"), (other, "change")):
            if side["failed"]:
                rows.append({"workload": workload, "metric": "failed_ops_pct",
                             "unit": "%", "verdict": "regressed",
                             "note": f"{side['failed']} failed ops in {label}"})
    return rows


def format_compare(rows: List[dict]) -> str:
    table = []
    for row in rows:
        if "note" in row:
            table.append([row["workload"], row["metric"], row["note"], "", "", "",
                          row["verdict"]])
            continue
        a, b = row["base"], row["change"]
        table.append([
            row["workload"], row["metric"], _cell(a), _cell(b),
            f"{row['delta']:+.4g} {row['unit']} "
            f"({100 * row['delta'] / a['median']:+.1f}% of {a['median']:.5g})",
            f"{100 * row['bound']:.0f}%", row["verdict"],
        ])
    return format_table(
        ["workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
         "delta", "bound", "verdict"], table,
    )


def _cell(cell: Dict[str, float]) -> str:
    return f"{cell['median']:.5g} [{cell['q1']:.5g}, {cell['q3']:.5g}]"
