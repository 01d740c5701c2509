"""Command line: one run (the driver's contract), the suite, ``compare``.

``--workload W --seed N --seconds S --trace 0|1`` is one run in this
process: it prints every metric by name and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` -- the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``.  Exit code 1 when any output was wrong.

Without ``--workload`` the whole suite runs (each run a subprocess of
the above).  ``compare A.json B.json`` judges two saved suites.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import List, Optional

from benchmarks.past_bench import report, spec

TRACE_DIR = Path(__file__).resolve().parent / "out"


def pin_to_one_cpu() -> None:
    """Keep the run on the highest-numbered CPU it may use.

    A run is one thread on one event loop.  Left to the scheduler it
    shares CPU 0 with whatever else the box wakes there (shell, driver,
    kernel threads) while the other core idles; measured on the
    reference box that doubles the run-to-run spread of every timing.
    """
    allowed = os.sched_getaffinity(0)
    if len(allowed) > 1:
        os.sched_setaffinity(0, {max(allowed)})


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    declared = spec.load_spec()
    section = spec.metric_table(declared, "per_layer" if trace else "end_to_end")
    # One file per workload, overwritten: a traced sim_deploy is ~80 MB.
    trace_path = TRACE_DIR / f"trace-{workload}.jsonl"
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
    if workload == spec.SIM_WORKLOAD:
        from benchmarks.past_bench import sim

        result = sim.run(seed, seconds, trace, list(section), trace_path)
    else:
        from benchmarks.past_bench import live

        result = live.run(workload, seed, seconds, trace, list(section), trace_path)
    print(f"{workload}: seed {seed}, --seconds {seconds:g}, "
          f"{'traced' if trace else 'untraced'}; {result.attempted} ops "
          f"attempted, {result.failed} failed")
    for name in section:
        note = "" if trace or spec.applies(workload, name) else \
            "  (no meaning on this workload: repeats ops_per_s)"
        print(f"  {name:40s} {result.metrics[name]:16.6f} "
              f"{section[name]['unit']}{note}")
    if trace:
        print(f"  spans written to {trace_path}")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name],
                           "unit": section[name]["unit"]} for name in section},
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    declared = spec.load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.past_bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=spec.workload_names(declared),
                        help="run this one workload here (omit: the whole suite)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(declared["run_seconds"]),
                        help="sizes every workload (work per second; see spec.py)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetitions", type=int, default=5,
                        help="suite only: untraced runs per workload")
    parser.add_argument("--out", type=Path,
                        help="suite only: also save the results as JSON")
    commands = parser.add_subparsers(dest="command")
    comparison = commands.add_parser(
        "compare", help="judge two saved suites: ok / regressed / unresolved"
    )
    comparison.add_argument("base", type=Path)
    comparison.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    if args.command == "compare":
        rows = report.compare(json.loads(args.base.read_text()),
                              json.loads(args.change.read_text()))
        print(report.format_compare(rows))
        return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
    if args.workload is not None:
        pin_to_one_cpu()
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    document = report.run_suite(args.seed, args.seconds, args.repetitions)
    print(report.format_suite(document))
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=2) + "\n")
    correct = all(body["correct"] for body in document["workloads"].values())
    return 0 if correct else 1


