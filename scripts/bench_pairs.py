"""Alternating parent/change runs of the perfbench workloads, and big-n rows.

Run from the repository root, with two checkouts of committed files:

    git archive <parent> | tar -x -C /tmp/parent
    git archive <change> | tar -x -C /tmp/change
    python3 scripts/bench_pairs.py --parent /tmp/parent --change /tmp/change \\
        --out BENCH.json

For each ``workload:seed`` it runs ``perfbench/run.py --trace 0`` (run.py's
own run length) in both checkouts ``PAIRS`` times, alternating which side
runs first, and records every run's end-to-end metrics and wall time (the
untimed correctness gate included), each side's median and quartiles, its
median ops attempted and wall time, the pairs the change wins, and how far
the change's median is worse than the parent's against the bound in
``BENCHMARK.json``.  The big-n
rows time ``verify_eigen`` (uncalibrated CPU seconds, construction excluded,
the q_n built inside) on fresh constructions in fresh interpreters,
alternating sides, and record each result's ``ok``.  No perfbench workload
covers them, so they are informational and back no claim.  Results are
written after every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
BIG_N_REPEATS = 3

BIG_N = [
    {"kind": "charlier", "params": {"a": "3/7"}, "k": 4, "nmax": 300},
    {"kind": "charlier", "params": {"a": "3/7"}, "k": 12, "nmax": 120},
    # named ignores k for Laguerre and Jacobi: alpha resp. beta is the seed degree.
    {"kind": "laguerre", "params": {"alpha": "3", "mass": "3/4"}, "k": 3, "nmax": 250},
    {"kind": "jacobi", "params": {"alpha": "4/3", "beta": "3", "mass": "5/4"}, "k": 3,
     "nmax": 120},
]
BIG_N_NOTE = ("informational: uncalibrated CPU seconds of verify_eigen outside perfbench; "
              "no perfbench workload covers these cases and no claim rests on them")

BIG_N_CODE = """
import json, sys, time
from fractions import Fraction
from krallops.krall import named, verify_eigen
row = json.loads(sys.argv[1])
params = {key: Fraction(value) for key, value in row["params"].items()}
kc = named(row["kind"], params, k=row["k"], nmax=row["nmax"]).construction
start = time.process_time()
report = verify_eigen(kc)
print(json.dumps({"s": time.process_time() - start, "ok": report.ok}))
"""


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def run_workload(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    wall = time.monotonic() - start
    result = _last_json(done.stdout)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        # the whole run: timed ops plus setup probes and the untimed correctness gate
        "wall_s": wall,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def run_big_n(root: Path, row: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", BIG_N_CODE, json.dumps(row)], env=env,
                          capture_output=True, text=True, check=True)
    return _last_json(done.stdout)


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def compare(parent_runs: list[dict], change_runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [r["metrics"][name] for r in parent_runs]
        after = [r["metrics"][name] for r in change_runs]
        p, c = summary(before), summary(after)
        wins = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        worse = (c["median"] - p["median"]) / p["median"] * (1 if lower else -1)
        out[name] = {
            "parent": p,
            "change": c,
            "change_wins": wins,
            "pairs": len(before),
            "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
            "change_worse_by": worse,
            "bound": metric["bound"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--runs", nargs="+", metavar="WORKLOAD:SEED",
                    default=["eigen-difference:1", "eigen-differential:1", "moments-dops:1",
                             "cli-oneshot:1"])
    args = ap.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report: dict = {
        "command": " ".join([
            "python3 scripts/bench_pairs.py --parent PARENT --change CHANGE --out OUT",
            "--runs", *args.runs,
        ]),
        "run": "perfbench/run.py --trace 0 (run length: run.py default, 15 s)",
        "pairs": PAIRS,
        "workloads": {},
        "big_n_note": BIG_N_NOTE,
        "big_n_verify_eigen": [],
    }

    for i, row in enumerate(BIG_N):
        times: dict = {"parent": [], "change": []}
        oks: dict = {"parent": [], "change": []}
        for rep in range(BIG_N_REPEATS):
            order = ("parent", "change") if (i + rep) % 2 == 0 else ("change", "parent")
            for side in order:
                got = run_big_n(sides[side], row)
                times[side].append(got["s"])
                oks[side].append(got["ok"])
        report["big_n_verify_eigen"].append({
            **row,
            "cpu_s": {side: times[side] for side in times},
            "median_cpu_s": {side: statistics.median(times[side]) for side in times},
            "ok": {side: all(oks[side]) for side in oks},
        })
        print(json.dumps(report["big_n_verify_eigen"][-1]), file=sys.stderr, flush=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for spec in args.runs:
        workload, _, seed = spec.partition(":")
        runs: dict = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_workload(sides[side], workload, int(seed)))
            print(spec, i, {s: runs[s][-1]["metrics"]["checks_per_s"] for s in runs},
                  file=sys.stderr, flush=True)
        report["workloads"][spec] = {
            "all_correct": all(r["correct"] and not r["failed"] for s in runs for r in runs[s]),
            "runs": runs,
            "median_attempted": {s: statistics.median(r["attempted"] for r in runs[s])
                                 for s in runs},
            "median_wall_s": {s: statistics.median(r["wall_s"] for r in runs[s]) for s in runs},
            "summary": compare(runs["parent"], runs["change"], metrics),
        }
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
