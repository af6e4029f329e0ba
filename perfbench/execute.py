"""Run one benchmark op against krallops and gate its output.

Only the program call is timed.  The gate runs afterwards and decides
whether the op counts, without trusting the program's own ``ok``:

* the op must replay exactly the checks it asked for;
* identities the program reports are re-compared here from the returned
  values (series vs closed form, lhs vs rhs, det vs closed form, Gram
  off-diagonals, orthoseq vs the normalised q_n);
* every eigen op gets a pointwise spot check at a seeded rational x0,
  written with scalar Horner evaluation only: sum_l f_l(x0) q_n(x0 + l)
  for difference operators, sum_j f_j(x0) q_n^(j)(x0) for differential
  ones, against lambda_n q_n(x0);
* the op's canonical exact outputs are hashed, and for the default seed the
  hash must equal the golden digest stored with the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from workloads import CATALOG_SIZE, DIFFERENCE_KINDS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
LAUNCHER = BENCH / "launcher.py"
CHILD_TIMEOUT_S = 120

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from krallops import dops, families, krall, moments, opalg  # noqa: E402


# Machine-speed references, independent of krallops.  The host's speed
# drifts by tens of percent within seconds, so every op is preceded by one
# timed reference, and run.py divides op times by the reference's slowness
# (its time over a nominal time) around the op.  In-process ops use a fixed
# piece of exact arithmetic; CLI ops and set-up probes, which are mostly
# interpreter start-up and imports, use a fresh interpreter importing a few
# standard modules.
_REF_A = tuple(Fraction(7 * i + 1, 3 * i + 2) for i in range(12))
_REF_B = tuple(Fraction(5 * i - 3, 2 * i + 7) for i in range(12))
REFERENCE_S = 0.0007
CHILD_REFERENCE = ("-c", "import argparse, fractions, json")
CHILD_REFERENCE_S = 0.06


def reference_kernel() -> list[Fraction]:
    out = [Fraction(0)] * (len(_REF_A) + len(_REF_B) - 1)
    for i, a in enumerate(_REF_A):
        for j, b in enumerate(_REF_B):
            out[i + j] += a * b
    return out


def slowness(child: bool = False) -> float:
    """Time of one reference run over its nominal time."""
    t0 = time.perf_counter()
    if child:
        run_child([sys.executable, *CHILD_REFERENCE])
        return (time.perf_counter() - t0) / CHILD_REFERENCE_S
    reference_kernel()
    return (time.perf_counter() - t0) / REFERENCE_S


@dataclass
class Outcome:
    seconds: float
    checks: int  # checks that passed the gate; 0 for a failed op
    ok: bool
    error: str = ""
    digest: str = ""
    max_coeff_bits: int = 0
    rss_kb: int = 0  # peak RSS of the child, for CLI ops
    slowness: float = 1.0  # reference slowness just before the op


# -- exact helpers written for the gate -------------------------------------------


def _fstr(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def horner(coeffs, x0: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x0 + c
    return acc


def derivative_at(coeffs, order: int, x0: Fraction) -> Fraction:
    """q^(order)(x0) from ascending coefficients."""
    return horner([c * math.perm(i, order) for i, c in enumerate(coeffs)][order:], x0)


def operator_at(operator, coeffs, x0: Fraction) -> Fraction:
    """(D q)(x0) by scalar evaluation only."""
    if isinstance(operator, opalg.DifferenceOperator):
        return sum(
            (horner(f.coeffs, x0) * horner(coeffs, x0 + shift) for shift, f in operator.terms.items()),
            Fraction(0),
        )
    return sum(
        (horner(f.coeffs, x0) * derivative_at(coeffs, j, x0) for j, f in enumerate(operator.terms)),
        Fraction(0),
    )


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report_bits(node) -> int:
    """Largest bit length among the "p/q" strings of a CLI report."""
    if isinstance(node, dict):
        return max((_report_bits(v) for v in node.values()), default=0)
    if isinstance(node, list):
        return max((_report_bits(v) for v in node), default=0)
    if isinstance(node, str) and "/" in node:
        num, _, den = node.partition("/")
        if num.lstrip("-").isdigit() and den.isdigit():
            return max(int(num).bit_length(), int(den).bit_length())
    return 0


def _replayed(indices, want: range) -> list[str]:
    indices = list(indices)
    if indices != list(want):
        return [f"replayed {len(indices)} checks, asked for {len(want)}"]
    return []


# -- in-process ops: (call, gate) pairs ----------------------------------------------
# A call returns the raw program results; a gate returns (payload, problems, bits).


def _call_eigen(op: Op):
    nc = krall.named(op.target, op.param_dict, op.k, op.nmax)
    return nc, krall.verify_eigen(nc.construction, op.nmax)


def _gate_eigen(op: Op, result):
    nc, rep = result
    kc = nc.construction
    want = range(op.nmax + 1)
    problems = _replayed((c.n for c in rep.checks), want)
    if not rep.ok:
        problems.append("program reports a failed eigen check")
    if rep.order != 2 * op.k + 2:
        problems.append(f"order {rep.order}, expected {2 * op.k + 2}")
    if op.target in DIFFERENCE_KINDS and rep.genre != (-op.k - 1, op.k + 1):
        problems.append(f"genre {rep.genre}, expected {(-op.k - 1, op.k + 1)}")
    qs = [kc.q(n) for n in want]
    lams = [kc.eigval(n) for n in want]
    for n in want:
        coeffs = qs[n].coeffs
        if operator_at(kc.operator, coeffs, op.x0) != lams[n] * horner(coeffs, op.x0):
            problems.append(f"pointwise spot check fails at n={n}, x0={op.x0}")
    op_json = opalg.operator_to_json(kc.operator)
    payload = {
        "q": [q.to_json() for q in qs],
        "lambda": [_fstr(v) for v in lams],
        "operator": op_json,
    }
    coeff_polys = kc.operator.terms.values() if isinstance(kc.operator, opalg.DifferenceOperator) else kc.operator.terms
    bits = max(
        _bits(c for q in qs for c in q.coeffs),
        _bits(lams),
        _bits(c for f in coeff_polys for c in f.coeffs),
    )
    return payload, problems, bits


def _call_dop(op: Op):
    fam = families.family_from_name(op.target, op.param_dict)
    return dops.verify_dop(dops.catalog(fam)[op.index], op.nmax)


def _gate_dop(op: Op, ver):
    problems = _replayed((c.n for c in ver.checks), range(op.nmax + 1))
    problems += [f"series != closed form at n={c.n}" for c in ver.checks if c.series.coeffs != c.closed.coeffs]
    if not ver.ok:
        problems.append("program reports a failed lowering check")
    payload = {"dop": ver.dop_label, "series": [c.series.to_json() for c in ver.checks]}
    return payload, problems, _bits(v for c in ver.checks for v in c.series.coeffs)


def _call_gram(op: Op):
    nc = krall.named(op.target, op.param_dict, op.k, op.nmax)
    qs = nc.construction.q_sequence(op.nmax)
    return qs, moments.gram_check(nc.functional, qs)


def _gate_gram(op: Op, result):
    qs, rep = result
    size = op.nmax + 1
    problems = []
    if len(rep.values) != size or any(len(row) != size for row in rep.values):
        problems.append(f"gram matrix is not {size}x{size}")
    else:
        problems += [
            f"<q_{i}, q_{j}> = {rep.values[i][j]}"
            for i in range(size)
            for j in range(i + 1, size)
            if rep.values[i][j] != 0
        ]
        problems += [f"<q_{i}, q_{i}> = 0" for i in range(size) if rep.values[i][i] == 0]
    if not rep.ok:
        problems.append("program reports a failed gram check")
    payload = {"q": [q.to_json() for q in qs], "diagonal": [_fstr(v) for v in rep.diagonal]}
    return payload, problems, max(_bits(c for q in qs for c in q.coeffs), _bits(rep.diagonal))


def _call_orthoseq(op: Op):
    nc = krall.named(op.target, op.param_dict, op.k, op.nmax)
    kc = nc.construction
    return moments.orthoseq(nc.functional, op.nmax), [kc.q(n) for n in range(op.nmax + 1)]


def _gate_orthoseq(op: Op, result):
    monic, qs = result
    problems = _replayed(range(len(monic)), range(op.nmax + 1))
    for n, (p, q) in enumerate(zip(monic, qs)):
        lead = q.coeffs[-1]
        if p.coeffs != tuple(c / lead for c in q.coeffs):
            problems.append(f"orthoseq p_{n} != q_{n} / lead")
    payload = {"monic": [p.to_json() for p in monic]}
    return payload, problems, _bits(c for p in monic for c in p.coeffs)


def _call_ip(op: Op):
    return moments.ip_lemma_check(op.target, op.param_dict, op.k, op.nmax)


def _gate_ip(op: Op, rep):
    problems = _replayed((c.n for c in rep.checks), range(op.nmax + 1))
    problems += [f"lhs != rhs at n={c.n}" for c in rep.checks if c.lhs != c.rhs]
    if not rep.ok:
        problems.append("program reports a failed pairing lemma")
    lhs = [c.lhs for c in rep.checks]
    return {"lhs": [_fstr(v) for v in lhs]}, problems, _bits(lhs)


def _call_casorati(op: Op):
    return moments.casorati_check(op.param_dict["a"], op.k, op.index)


def _gate_casorati(op: Op, result):
    det, closed = result
    problems = [] if det == closed else [f"det {det} != closed form {closed}"]
    return {"det": _fstr(det)}, problems, _bits([det])


# -- CLI ops ----------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[int, bytes, bytes, int]:
    """Run a child to completion; returns (exit code, stdout, stderr, peak RSS in KiB).

    Reaps the child with wait4 so its own peak RSS is known.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=child_env())
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), usage.ru_maxrss


def _cli_problems(op: Op, report: dict) -> list[str]:
    n = op.nmax
    problems = [] if report.get("nmax") == n else [f"report nmax {report.get('nmax')}, asked for {n}"]
    sub = op.target
    if sub == "krall":
        eigen, ortho = report["eigen"], report["ortho"]
        if eigen is None or len(eigen["eigenvalues"]) != n + 1 or eigen["failures"]:
            problems.append("eigen section does not replay n = 0..nmax cleanly")
        upto = min(n, 8)
        if ortho["upto"] != upto or len(ortho["diag_signs"]) != upto + 1 or 0 in ortho["diag_signs"]:
            problems.append("ortho section does not cover q_0..q_upto")
        if len(report["gamma"]) != n + 1 or len(report["beta"]) != n:
            problems.append("gamma/beta lists have the wrong length")
    elif sub == "verify-dops":
        checks = report["checks"]
        if len(checks) != CATALOG_SIZE[op.subject] or any(c["failures"] for c in checks):
            problems.append("verify-dops does not cover the catalog cleanly")
    elif sub == "casorati":
        checks = report["checks"]
        problems += _replayed((c["n"] for c in checks), range(1, n + 1))
        problems += [f"det != closed at n={c['n']}" for c in checks if c["det"] != c["closed"]]
    elif sub == "ip-lemma":
        checks = report["checks"]
        problems += _replayed((c["n"] for c in checks), range(n + 1))
        problems += [f"lhs != rhs at n={c['n']}" for c in checks if c["lhs"] != c["rhs"]]
    elif sub == "table":
        problems += _replayed((r["n"] for r in report["rows"]), range(n + 1))
    elif sub == "dump-operator":
        doc = report["construction"]
        if len(doc.get("eigenvalues", ())) != n + 1 or len(doc["beta"]) != n:
            problems.append("dumped construction does not cover n = 0..nmax")
    return problems


def run_cli(op: Op, tracer=None) -> Outcome:
    """One fresh interpreter per op.  Traced runs go through the launcher,
    which writes the child's spans to a file; they are merged under the
    op's span."""
    spans_path = OUT / f"child-{os.getpid()}.json"
    if tracer is None:
        cmd = [sys.executable, "-m", "krallops.cli", *op.argv()]
    else:
        OUT.mkdir(exist_ok=True)
        cmd = [sys.executable, str(LAUNCHER), str(spans_path), *op.argv()]
        root = tracer.open("op")
    t0 = time.perf_counter()
    code, out, err, rss_kb = run_child(cmd)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        if spans_path.exists():
            tracer.merge(json.loads(spans_path.read_text()), root)
            spans_path.unlink()
    if code != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return Outcome(seconds, 0, False, error=f"exit {code}: {tail[0]}", rss_kb=rss_kb)
    try:
        report = json.loads(out.decode().strip().splitlines()[-1])["report"]
        problems = [] if report.get("ok") is True else ["report.ok is not true"]
        problems += _cli_problems(op, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(seconds, 0, False, error=f"unreadable report: {exc!r}", rss_kb=rss_kb)
    return Outcome(seconds, 0 if problems else op.checks, not problems, "; ".join(problems[:3]),
                   digest(report), _report_bits(report), rss_kb)


# -- dispatch ----------------------------------------------------------------------------

KINDS = {
    "eigen": (_call_eigen, _gate_eigen),
    "dop": (_call_dop, _gate_dop),
    "gram": (_call_gram, _gate_gram),
    "orthoseq": (_call_orthoseq, _gate_orthoseq),
    "ip": (_call_ip, _gate_ip),
    "casorati": (_call_casorati, _gate_casorati),
}


def clear_program_caches() -> None:
    """Empty every functools cache in the krallops modules."""
    for name, module in list(sys.modules.items()):
        if name == "krallops" or name.startswith("krallops."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_op(op: Op, tracer=None, golden: Optional[str] = None, cold: bool = False) -> Outcome:
    """Time one op, gate it, and compare its digest with ``golden`` if given.

    ``cold`` empties the program's caches first, so the op shares no work
    with earlier ops.  With a tracer, the timed call runs inside an "op"
    root span with tracing enabled; the gate always runs untraced.
    """
    if cold:
        clear_program_caches()
    slow = slowness(child=op.kind == "cli")
    outcome = _run_op(op, tracer)
    outcome.slowness = slow
    if outcome.ok and golden is not None and outcome.digest != golden:
        outcome.ok, outcome.checks = False, 0
        outcome.error = f"digest {outcome.digest} differs from golden {golden}"
    return outcome


def _run_op(op: Op, tracer) -> Outcome:
    if op.kind == "cli":
        return run_cli(op, tracer)
    call, gate = KINDS[op.kind]
    if tracer is not None:
        root = tracer.open("op")
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        result = call(op)
        error = None
    except Exception as exc:  # any raise on a valid input is a failed op
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
        tracer.close(root)
    if error is not None:
        return Outcome(seconds, 0, False, error=error)
    try:
        payload, problems, bits = gate(op, result)
    except Exception as exc:  # the program raised while the gate read its results
        return Outcome(seconds, 0, False, error=f"gate: {type(exc).__name__}: {exc}")
    return Outcome(seconds, 0 if problems else op.checks, not problems,
                   "; ".join(problems[:3]), digest(payload), bits)
