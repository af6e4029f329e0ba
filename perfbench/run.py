"""krallops benchmark: seeded workloads, an exact-output gate, a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Load model: a closed loop with one client.  One op runs at a time in this
process (cli-oneshot: one child interpreter at a time), and the next op
starts when the previous one has been gated.  Only program calls are timed.

Times are calibrated: the host's speed drifts by tens of percent within
seconds, so a fixed reference is timed before every op and each op time is
divided by the reference's slowness around it (see execute.py).  Whole rounds of ops run until the calibrated op time reaches
``--seconds``.  Uncalibrated figures are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
half of the budget untraced and the second half with span wrappers
installed from perfbench/tracer.py, and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object.  Op rows (and, traced, the spans) are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

from workloads import CACHE_SCOPE, DEFAULT_SEED, WORKLOADS, round_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
SETUP_PROBES = 7
GOLDEN_ROUNDS = {"eigen-difference": 16, "eigen-differential": 24, "moments-dops": 30, "cli-oneshot": 40}

END_TO_END = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}
LAYER_SPANS = {
    "polyops.mul": ("calls", "self_s"),
    "polyops.shift_arg": ("calls", "self_s"),
    "polyops.call": ("self_s",),
    "families.polynomial": ("calls", "self_s"),
    "opalg.apply": ("calls", "self_s"),
    "opalg.compose": ("calls", "self_s"),
    "opalg.poly_of_op": ("self_s",),
    "dops.verify_dop": ("self_s",),
    "dops.series_apply": ("self_s",),
    "krall.named": ("self_s",),
    "krall.verify_eigen": ("self_s",),
    "krall.q": ("calls", "self_s"),
    "krall.band_profile": ("self_s",),
    "moments.pairing": ("calls", "self_s"),
    "moments.gram_check": ("self_s",),
    "moments.orthoseq": ("self_s",),
    "moments.ip_lemma_check": ("self_s",),
    "moments.casorati_check": ("self_s",),
    "moments.det_fraction": ("self_s",),
    "moments.solve_fraction": ("self_s",),
}
CLI_SUBCOMMAND_SPANS = ("krall", "verify-dops", "casorati", "ip-lemma", "table", "dump-operator")

PER_LAYER_UNITS = {
    **{
        f"{span}.{kind}": ("count" if kind == "calls" else "s")
        for span, kinds in LAYER_SPANS.items()
        for kind in kinds
    },
    "polyops.mul.coeff_pairs": "count",
    "polyops.max_coeff_bits": "bits",
    "families.polynomial.distinct_ratio": "ratio",
    "cli.import_s": "s",
    **{f"cli.{sub}.s": "s" for sub in CLI_SUBCOMMAND_SPANS},
    "trace.overhead_ratio": "ratio",
    "trace.layer_share": "ratio",
    "trace.checks": "count",
}


def calibrate(seconds: list[float], slow: list[float], half: int = 4) -> list[float]:
    """Divide each time by the median reference slowness around it
    (``half`` samples on each side)."""
    return [x / statistics.median(slow[max(0, i - half): i + half + 1]) for i, x in enumerate(seconds)]


@dataclass
class Phase:
    """Ops of one measured phase: raw wall seconds and reference samples."""

    raw: list[float] = field(default_factory=list)
    slow: list[float] = field(default_factory=list)
    checks: int = 0
    failed: int = 0
    max_coeff_bits: int = 0
    rss_kb: int = 0

    @property
    def seconds(self) -> list[float]:
        return calibrate(self.raw, self.slow)

    @property
    def checks_per_s(self) -> float:
        return self.checks / sum(self.seconds)


def load_golden(workload: str, seed: int) -> list[str]:
    if seed != DEFAULT_SEED or not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text())["digests"].get(workload, [])


def measure_setup(workload: str, seed: int, execute) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to its first op being
    ready (krallops imported, first round drawn), calibrated and raw; one
    warm-up probe first."""
    raw, slow = [], []
    for i in range(SETUP_PROBES + 1):
        ref = execute.slowness(child=True)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, env=execute.child_env(),
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise SystemExit("setup probe failed")
        if i:
            raw.append(t1 - t0)
            slow.append(ref)
    return statistics.median(calibrate(raw, slow)), statistics.median(raw)


def numbered_rounds(workload: str, seed: int):
    """Each round's ops as (global index, round, op), round after round."""
    i = 0
    for rnd in count():
        ops = round_ops(workload, seed, rnd)
        yield [(i + j, rnd, op) for j, op in enumerate(ops)]
        i += len(ops)


def run_phase(execute, rounds, scope: str, budget_s: float, golden: list[str], rows: list,
              tracer=None) -> Phase:
    """Run whole rounds until the calibrated op time reaches ``budget_s``.

    Whole rounds keep the mix of op shapes the same in every run, and the
    calibrated budget keeps a seed's op sequence independent of how fast
    the host is at the moment.  ``scope`` is the workload's CACHE_SCOPE.
    """
    phase = Phase()
    spent = 0.0
    while spent < budget_s:
        ops = next(rounds)
        for i, rnd, op in ops:
            cold = scope == "op" or (scope == "round" and i == ops[0][0])
            out = execute.run_op(op, tracer, golden[i] if i < len(golden) else None, cold=cold)
            spent += out.seconds / statistics.median(phase.slow[-8:] + [out.slowness])
            phase.raw.append(out.seconds)
            phase.slow.append(out.slowness)
            phase.checks += out.checks
            phase.failed += not out.ok
            phase.max_coeff_bits = max(phase.max_coeff_bits, out.max_coeff_bits)
            phase.rss_kb = max(phase.rss_kb, out.rss_kb)
            rows.append({
                "i": i, "round": rnd, "kind": op.kind, "target": op.target, "subject": op.subject,
                "k": op.k, "nmax": op.nmax, "seconds": out.seconds, "slowness": out.slowness,
                "checks": out.checks, "ok": out.ok, "max_coeff_bits": out.max_coeff_bits,
                "digest": out.digest, "error": out.error, "traced": tracer is not None,
            })
            if not out.ok:
                print(f"FAILED op {i} ({op.kind} {op.target} {op.subject} k={op.k} nmax={op.nmax}): {out.error}")
    return phase


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile; the maximum when there are ten ops or fewer."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(workload: str, seed: int, seconds: float, execute, rows: list) -> tuple[dict, Phase]:
    setup_s, setup_raw = measure_setup(workload, seed, execute)
    phase = run_phase(execute, numbered_rounds(workload, seed), CACHE_SCOPE.get(workload, ""), seconds,
                      load_golden(workload, seed), rows)
    if workload == "cli-oneshot":
        rss_kb = phase.rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = phase.seconds
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "checks_per_s": phase.checks_per_s,
        "op_s_p50": statistics.median(lat),
        "op_s_tail": tail_s,
        "peak_rss_mb": rss_kb / 1024,
    }
    n = len(lat)
    print(f"{workload} seed {seed}: {n} ops, {phase.checks} checks, {phase.failed} failed,"
          f" {sum(phase.raw):.3f} s timed")
    print(f"  op_s_tail is p{pct:.1f} of {n} ops")
    print(f"  fail_ratio {phase.failed / n:.6g} ratio")
    print(f"  uncalibrated: setup_s {setup_raw:.6g} s, checks_per_s {phase.checks / sum(phase.raw):.6g} 1/s,"
          f" op_s_p50 {statistics.median(phase.raw):.6g} s, op_s_tail {tail(phase.raw)[0]:.6g} s;"
          f" median reference slowness {statistics.median(phase.slow):.4f}")
    return metrics, phase


def traced(workload: str, seed: int, seconds: float, execute, rows: list) -> tuple[dict, list[Phase], dict]:
    from tracer import Tracer, install, median_duration

    golden = load_golden(workload, seed)
    rounds, scope = numbered_rounds(workload, seed), CACHE_SCOPE.get(workload, "")
    plain = run_phase(execute, rounds, scope, seconds / 2, golden, rows)
    tracer = Tracer()
    restore = install(tracer)
    try:
        phase = run_phase(execute, rounds, scope, seconds / 2, golden, rows, tracer)
    finally:
        restore()
    summary = tracer.summary()
    metrics: dict[str, float] = {}
    for span, kinds in LAYER_SPANS.items():
        row = summary.get(span, {"calls": 0, "self_s": 0.0})
        for kind in kinds:
            metrics[f"{span}.{kind}"] = row[kind]
    calls = metrics["families.polynomial.calls"]
    metrics["polyops.mul.coeff_pairs"] = tracer.counters["polyops.mul.coeff_pairs"]
    metrics["polyops.max_coeff_bits"] = phase.max_coeff_bits
    metrics["families.polynomial.distinct_ratio"] = len(tracer.distinct) / calls if calls else 0.0
    metrics["cli.import_s"] = median_duration(summary, "cli.import")
    for sub in CLI_SUBCOMMAND_SPANS:
        metrics[f"cli.{sub}.s"] = median_duration(summary, f"cli.{sub}")
    op_time = sum(phase.raw)
    layer_self = sum(row["self_s"] for name, row in summary.items() if name != "op")
    metrics["trace.overhead_ratio"] = phase.checks_per_s / plain.checks_per_s
    metrics["trace.layer_share"] = layer_self / op_time
    metrics["trace.checks"] = phase.checks
    all_self = sum(row["self_s"] for row in summary.values())
    untraced_s, traced_s = sum(plain.seconds), sum(phase.seconds)
    print(f"{workload} seed {seed} traced: untraced {plain.checks} checks in {untraced_s:.3f} s,"
          f" traced {phase.checks} checks in {traced_s:.3f} s (calibrated)")
    print(f"  traced/untraced time per check {(traced_s / phase.checks) / (untraced_s / plain.checks):.4f}"
          f" = 1/overhead_ratio; self time of all spans {all_self:.3f} s,"
          f" traced op time {op_time:.3f} s (uncalibrated)")
    for name in sorted(summary, key=lambda s: -summary[s]["self_s"]):
        row = summary[name]
        print(f"  {name:28s} calls {row['calls']:>9d}  self {row['self_s']:9.4f} s"
              f"  {100 * row['self_s'] / op_time:5.1f}%")
    return metrics, [plain, phase], tracer.dump()


def write_golden(execute) -> None:
    digests = {}
    for workload in WORKLOADS:
        out = []
        for rnd in range(GOLDEN_ROUNDS[workload]):
            for op in round_ops(workload, DEFAULT_SEED, rnd):
                o = execute.run_op(op)
                if not o.ok:
                    raise SystemExit(f"{workload} op {len(out)} fails, no golden written: {o.error}")
                out.append(o.digest)
        digests[workload] = out
        print(f"{workload}: {len(out)} digests")
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=0) + "\n")


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; the last line maps
    each workload to its result."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # One client on one CPU: the reference samples and the CLI children
    # then run on the CPU whose speed they measure.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "krallops" / "__init__.py").is_file():
        print(f"krallops source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import execute

    if args.write_golden:
        write_golden(execute)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    rows: list = []
    if args.trace:
        metrics, phases, spans = traced(args.workload, args.seed, args.seconds, execute, rows)
        units = PER_LAYER_UNITS
    else:
        metrics, phase = end_to_end(args.workload, args.seed, args.seconds, execute, rows)
        phases, spans, units = [phase], None, END_TO_END
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    attempted = sum(len(p.raw) for p in phases)
    failed = sum(p.failed for p in phases)

    execute.OUT.mkdir(exist_ok=True)
    out_path = execute.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"metrics": metrics, "ops": rows, "spans": spans}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
