"""Replay every parameter value the generator can draw, at the workload sizes.

    python3 perfbench/check_domains.py [SECTION ...]

Sections: eigen-difference, eigen-differential, moments-dops.  The CLI
workload draws from the same domains at smaller sizes (nmax 6, k <= 2), so
the first three cover it; its Casorati k and n values are included here.
Each op goes through the same gate as in a run.  Prints every failing op
and exits 1 if there is one.  Takes several minutes; run it after changing
a domain or a size in workloads.py.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import execute
from workloads import (
    CASORATI_KS, CASORATI_NS, CATALOG_SIZE, CLI_KS, CLI_NMAX, DIFFERENCE_KINDS, DIFFERENCE_NMAX,
    DOP_NMAX, EIGEN_KS, FAMILIES, GRAM_NMAX, HAHN_NMAX, IP_LEMMA_KINDS, IP_NMAX, JACOBI_NMAX, LAGUERRE_NMAX,
    MOMENT_KS, NAMED_KINDS, ORTHOSEQ_NMAX, Op, param_grid, with_degree,
)

X0 = Fraction(3, 7)


def _op(kind: str, target: str, params: dict, **fields) -> Op:
    return Op(kind, target, tuple(sorted(params.items())), **fields)


def _distinct(dicts):
    seen = {}
    for d in dicts:
        seen.setdefault(tuple(sorted(d.items())), d)
    return list(seen.values())


def eigen_difference():
    for kind in DIFFERENCE_KINDS:
        for params in param_grid(kind):
            for k in EIGEN_KS:
                nmax = max(HAHN_NMAX if kind.startswith("hahn") else DIFFERENCE_NMAX)
                yield _op("eigen", kind, params, k=k, nmax=nmax, x0=X0)


def eigen_differential():
    for kind, nmaxes in (("laguerre", LAGUERRE_NMAX), ("jacobi", JACOBI_NMAX)):
        for k in EIGEN_KS:
            for params in _distinct(with_degree(kind, p, k) for p in param_grid(kind)):
                yield _op("eigen", kind, params, k=k, nmax=max(nmaxes), x0=X0)


def moments_dops():
    for fam in FAMILIES:
        for params in param_grid(fam):
            for index in range(CATALOG_SIZE[fam]):
                yield _op("dop", fam, params, nmax=DOP_NMAX, index=index)
    for check, nmax in (("gram", GRAM_NMAX), ("orthoseq", ORTHOSEQ_NMAX)):
        for kind in NAMED_KINDS:
            for k in MOMENT_KS:
                grid = param_grid(kind)
                if kind in ("laguerre", "jacobi"):
                    grid = _distinct(with_degree(kind, p, k) for p in grid)
                for params in grid:
                    yield _op(check, kind, params, k=k, nmax=nmax)
        for kind in ("laguerre", "jacobi"):
            for params in param_grid(kind):
                yield _op(check, kind, params, k=0, nmax=nmax)
    for kind in IP_LEMMA_KINDS:
        for params in param_grid(kind):
            for k in MOMENT_KS:
                yield _op("ip", kind, params, k=k, nmax=IP_NMAX)
    for params in param_grid("charlier"):
        for k in sorted(set(CASORATI_KS) | set(CLI_KS)):
            for n in sorted(set(CASORATI_NS) | set(range(1, CLI_NMAX + 1))):
                yield _op("casorati", "charlier", params, k=k, index=n)


SECTIONS = {
    "eigen-difference": eigen_difference,
    "eigen-differential": eigen_differential,
    "moments-dops": moments_dops,
}


def main(argv: list[str]) -> int:
    failures = 0
    for name in argv or list(SECTIONS):
        total = 0
        for op in SECTIONS[name]():
            total += 1
            out = execute.run_op(op)
            if not out.ok:
                failures += 1
                print(f"FAIL {name}: {op.kind} {op.target} {dict(op.params)} k={op.k}"
                      f" nmax={op.nmax} n={op.index}: {out.error}", flush=True)
        print(f"{name}: {total} ops checked", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
