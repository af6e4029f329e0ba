"""Self-tests for the benchmark itself.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import execute
import run
import tracer as tr
from workloads import DEFAULT_SEED, WORKLOADS, Op, admissible, param_grid, round_ops

BENCH = Path(__file__).resolve().parent

EIGEN_OP = Op("eigen", "charlier", (("a", Fraction(4, 3)),), k=2, nmax=6, x0=Fraction(5, 7))


def _dump_rounds(seed: int) -> str:
    return "\n".join(repr(op) for w in WORKLOADS for r in range(3) for op in round_ops(w, seed, r))


# -- generator ------------------------------------------------------------------------


def test_generator_is_deterministic_across_processes():
    here = _dump_rounds(7)
    assert here == _dump_rounds(7)
    assert here != _dump_rounds(8)
    code = "import sys, test_perfbench; sys.stdout.write(test_perfbench._dump_rounds(7))"
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(BENCH))
    there = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, cwd=BENCH, check=True).stdout
    assert there == here


def test_generator_draws_only_admissible_grid_values():
    for workload in WORKLOADS:
        for rnd in range(3):
            for op in round_ops(workload, 3, rnd):
                params = op.param_dict
                kind = op.subject if op.kind == "cli" else op.target
                if not kind or op.kind == "casorati":
                    kind = "charlier"
                if kind in ("laguerre", "jacobi") and op.k:
                    fixed = "alpha" if kind == "laguerre" else "beta"
                    assert params[fixed] == op.k
                    grid = [{**p, fixed: params[fixed]} for p in param_grid(kind)]
                else:
                    grid = param_grid(kind)
                assert params in grid, (workload, op)
                assert admissible(kind, params, max(op.k, 1))


# -- output gate ------------------------------------------------------------------------


def _fake_all_pass(monkeypatch):
    """Make the program claim success whatever it computed."""
    real = execute.krall.verify_eigen

    def verify(kc, nmax=None):
        rep = real(kc, nmax)
        for c in rep.checks:
            c.ok = True
        return rep

    monkeypatch.setattr(execute.krall, "verify_eigen", verify)


def test_clean_eigen_op_passes():
    out = execute.run_op(EIGEN_OP)
    assert out.ok, out.error
    assert out.checks == EIGEN_OP.nmax + 1
    assert execute.run_op(EIGEN_OP, golden=out.digest).ok


def test_perturbed_coefficient_fails_the_gate(monkeypatch):
    real_q = execute.krall.KrallConstruction.q

    def perturbed(self, n):
        q = real_q(self, n)
        if n != 3:
            return q
        coeffs = list(q.coeffs)
        coeffs[1] += Fraction(1, 10**6)
        return type(q)(coeffs)

    monkeypatch.setattr(execute.krall.KrallConstruction, "q", perturbed)
    _fake_all_pass(monkeypatch)
    out = execute.run_op(EIGEN_OP)
    assert not out.ok
    assert out.checks == 0
    assert "spot check fails at n=3" in out.error


def test_perturbed_eigenvalue_fails_the_gate(monkeypatch):
    real = execute.krall.KrallConstruction.eigval
    monkeypatch.setattr(execute.krall.KrallConstruction, "eigval",
                        lambda self, n: real(self, n) + (n == 5))
    _fake_all_pass(monkeypatch)
    out = execute.run_op(EIGEN_OP)
    assert not out.ok and "spot check fails at n=5" in out.error


def test_vacuous_pass_fails_the_gate(monkeypatch):
    real = execute.krall.verify_eigen
    monkeypatch.setattr(execute.krall, "verify_eigen", lambda kc, nmax=None: real(kc, -3))
    out = execute.run_op(EIGEN_OP)
    assert not out.ok and "replayed 0 checks, asked for 7" in out.error


def test_golden_digest_mismatch_fails_the_op():
    out = execute.run_op(EIGEN_OP, golden="0" * 16)
    assert not out.ok and "differs from golden" in out.error


def test_golden_digests_match_the_default_seed():
    golden = run.load_golden("moments-dops", DEFAULT_SEED)
    ops = round_ops("moments-dops", DEFAULT_SEED, 0)
    assert golden, "golden.json has no moments-dops digests"
    for i, op in enumerate(ops):
        assert execute.run_op(op, golden=golden[i]).ok, op


def test_spot_check_evaluates_differential_operators():
    op = Op("eigen", "laguerre", (("alpha", Fraction(2)), ("mass", Fraction(3, 4))), k=2, nmax=5,
            x0=Fraction(-9, 7))
    assert execute.run_op(op).ok
    # D = x^2 d^2/dx^2 + 3 applied to q = x^3 - 1 at x0 = 2: 4 * 12 + 3 * 7 = 69
    D = execute.opalg.DifferentialOperator([3, 0, execute.opalg.Polynomial((0, 0, 1))])
    assert execute.operator_at(D, (Fraction(-1), 0, 0, Fraction(1)), Fraction(2)) == 69


# -- tracing ----------------------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_adds_up_on_a_nested_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [6, 7], b2 [7.5, 8]
    t = tr.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 7.5, 8, 9, 10]))
    root = t.open("root")
    a = t.open("a")
    a1 = t.open("a1")
    t.close(a1)
    t.close(a)
    b = t.open("b")
    b1 = t.open("b1")
    t.close(b1)
    b2 = t.open("b2")
    t.close(b2)
    t.close(b)
    t.close(root)
    selfs = tr.self_times(t.parent, t.start, t.end)
    assert selfs == [3.0, 2.0, 1.0, 2.5, 1.0, 0.5]
    assert sum(selfs) == 10.0
    summary = t.summary()
    assert summary["b"]["self_s"] == 2.5 and summary["b"]["calls"] == 1


def test_self_time_counts_overlapping_children_once():
    # two children from another process overlap each other and spill past the parent
    selfs = tr.self_times([-1, 0, 0], [0.0, 1.0, 2.0], [10.0, 5.0, 12.0])
    assert selfs[0] == 1.0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_wrapped_target_records_spans_on_its_workload(workload):
    wanted = {key for key, *_, w in tr.targets() if w == workload}
    t = tr.Tracer()
    restore = tr.install(t)
    try:
        for op in round_ops(workload, DEFAULT_SEED, 0):
            if wanted <= set(t.hits):
                break
            assert execute.run_op(op, t).ok, op
    finally:
        restore()
    assert not sorted(wanted - set(t.hits))
    assert not hasattr(execute.krall.named, "__wrapped__")
    assert t.summary()["op"]["calls"] > 0


def test_install_rebinds_names_imported_elsewhere():
    import krallops
    import krallops.cli

    original = krallops.krall.named
    restore = tr.install(tr.Tracer())
    try:
        for module in (krallops, krallops.krall, krallops.cli):
            assert module.named is not original and module.named.__wrapped__ is original
        assert krallops.opalg.poly_of_op is krallops.krall.poly_of_op
        P = krallops.polyops.Polynomial
        assert P.__rmul__.__wrapped__ is P.__mul__.__wrapped__
    finally:
        restore()
    assert krallops.cli.named is original and krallops.named is original


# -- whole runs ---------------------------------------------------------------------------


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-oneshot", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=BENCH.parent,
    )
    doc = _last_json(proc.stdout)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == names
    if trace:
        assert doc["metrics"]["cli.import_s"]["value"] > 0
        assert doc["metrics"]["cli.krall.s"]["value"] > 0
        assert doc["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eigen-difference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
