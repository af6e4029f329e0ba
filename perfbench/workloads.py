"""Seeded inputs for the krallops benchmark.

This module imports nothing from krallops: the program only ever sees the
parameters generated here.  Each workload is an endless stream of rounds;
round ``r`` of ``(workload, seed)`` is drawn from string-seeded
``random.Random`` instances, so the same seed gives the same inputs byte
for byte in any process, and a run that completes more rounds only extends
the stream.

Parameters come from small finite domains with fixed denominators.  Fixed
denominators keep coefficient heights, and therefore cost, alike from seed
to seed; the denominators also keep every parameter away from the integer
values where the constructions degenerate.  The generator enforces the
conditions the program states (Charlier ``a != 0``, Meixner ``a`` not in
``{0, 1}``, the Hahn exclusions, integer ``alpha``/``beta`` where an
operator is needed) with its own arithmetic, and it never looks at what the
program returns.  ``check_domains.py`` replays every domain value at the
workload sizes, so a draw can never be a legitimately failing input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional

WORKLOADS = ("eigen-difference", "eigen-differential", "moments-dops", "cli-oneshot")
DEFAULT_SEED = 1
# How much work ops may share through the program's caches, which the
# benchmark empties accordingly: "round" lets the ops of a round share a
# parameter set's family polynomials but nothing crosses rounds, "op"
# shares nothing, and CLI ops run in fresh interpreters anyway.
CACHE_SCOPE = {"eigen-difference": "round", "eigen-differential": "round", "moments-dops": "op"}

# -- sizes -------------------------------------------------------------------

DIFFERENCE_KINDS = ("charlier", "meixner1", "meixner2", "krawtchouk", "hahn1", "hahn2")
EIGEN_KS = (1, 2, 3, 4)
DIFFERENCE_NMAX = (6, 12)
# Hahn ops cost about twice as much at the same n; smaller sizes keep them
# from being the only ops at the top of the latency distribution.
HAHN_NMAX = (5, 10)
LAGUERRE_NMAX = (10, 20, 30)
JACOBI_NMAX = (6, 12, 18)

FAMILIES = ("charlier", "meixner", "krawtchouk", "hahn", "laguerre", "jacobi")
CATALOG_SIZE = {"charlier": 1, "meixner": 2, "krawtchouk": 2, "hahn": 4, "laguerre": 1, "jacobi": 2}
NAMED_KINDS = DIFFERENCE_KINDS + ("laguerre", "jacobi")
IP_LEMMA_KINDS = ("chxx", "lme1x", "meixner2", "krawtchouk", "hahn1", "hahn2")
DOP_NMAX = 10
GRAM_NMAX = 8  # q_0..q_8
ORTHOSEQ_NMAX = 6
IP_NMAX = 8
MOMENT_KS = (1, 2)
CASORATI_KS = (2, 3, 4)
CASORATI_NS = tuple(range(2, 9))
CASORATI_PER_ROUND = 4

CLI_SUBCOMMANDS = ("krall", "verify-dops", "casorati", "ip-lemma", "table", "dump-operator")
CLI_NMAX = 6
CLI_KS = (1, 2)

# -- parameter domains -------------------------------------------------------
# Each parameter is a numerator over a fixed denominator; with these
# numerators none of the quotients is an integer.
#
# gamma_n, which every construction divides by, is a dual polynomial at
# x = -n.  The signs below make every term of its hypergeometric sum share
# one sign, so gamma_n != 0 for all n and all k <= 4:
#   Charlier: gamma_n is a monic integer polynomial in a, so a non-integer a
#     is never a root;
#   Meixner: a < 0 and c > 4;
#   Krawtchouk: -1 < a < 0 and N > 0.
# Hahn and the Laguerre/Jacobi point masses are covered by check_domains.py.

THIRDS = (1, 2, 4, 5, 7, 8)  # /3
HALVES = (1, 3, 5, 7, 9, 11)  # /2
FIFTHS = (1, 2, 3, 4, 6, 7)  # /5
QUARTERS = (1, 3, 5, 7)  # /4, positive point masses

DOMAINS: dict[str, tuple[tuple[str, tuple[int, ...], int], ...]] = {
    "charlier": (("a", THIRDS, 3),),
    "meixner": (("a", (-1, -2, -3, -4, -5, -6), 7), ("c", (9, 11, 13, 15, 17, 19), 2)),
    "krawtchouk": (("a", (-1, -2, -3, -4), 5), ("N", HALVES, 2)),
    "hahn": (("alpha", THIRDS, 3), ("c", HALVES, 2), ("N", FIFTHS, 5)),
    "laguerre": (("alpha", THIRDS, 3), ("mass", QUARTERS, 4)),
    "jacobi": (("alpha", THIRDS, 3), ("beta", HALVES, 2), ("mass", QUARTERS, 4)),
}
DOMAIN_OF = {
    "charlier": "charlier", "chxx": "charlier",
    "meixner": "meixner", "meixner1": "meixner", "meixner2": "meixner", "lme1x": "meixner",
    "krawtchouk": "krawtchouk",
    "hahn": "hahn", "hahn1": "hahn", "hahn2": "hahn",
    "laguerre": "laguerre", "jacobi": "jacobi",
}


def _nonpositive_integer(v: Fraction) -> bool:
    return v.denominator == 1 and v <= 0


def _hahn_ok(al: Fraction, c: Fraction, N: Fraction, k: int) -> bool:
    """The exclusions ``named`` lists for hahn1 and hahn2 at every seed
    degree up to ``k``, plus Hahn's own.  Shifting by an integer keeps a
    value (non-)integral, so the largest degree is the binding one."""
    s = al + c - N
    if s.denominator == 1 and s <= -1:
        return False
    return not any(
        _nonpositive_integer(v) for v in (s + 1, al - N + 1, al + c, al + c - k - 1, c - k - 1)
    )


def admissible(kind: str, params: dict[str, Fraction], k: int = max(EIGEN_KS)) -> bool:
    """The parameter conditions the program states, checked here.

    ``k`` is the largest seed degree the parameters will be used with; the
    Hahn exclusions depend on it.
    """
    dom = DOMAIN_OF[kind]
    if dom == "charlier":
        return params["a"] != 0
    if dom == "meixner":
        return params["a"] not in (0, 1)
    if dom == "krawtchouk":
        return params["a"] not in (0, -1)
    if dom == "hahn":
        return _hahn_ok(params["alpha"], params["c"], params["N"], k)
    return True


@lru_cache(maxsize=None)
def _grid(dom: str) -> tuple[tuple[tuple[str, Fraction], ...], ...]:
    spec = DOMAINS[dom]
    combos = (tuple((name, Fraction(u, den)) for (name, _, den), u in zip(spec, combo))
              for combo in product(*(nums for _, nums, _ in spec)))
    return tuple(c for c in combos if admissible(dom, dict(c)))


def param_grid(kind: str) -> list[dict[str, Fraction]]:
    """Every parameter set ``draw_params`` can return for ``kind``."""
    return [dict(c) for c in _grid(DOMAIN_OF[kind])]


def draw_params(rng: random.Random, kind: str) -> dict[str, Fraction]:
    """Parameters for a named kind, ip-lemma kind or family name.

    Laguerre and Jacobi get the orthogonality-only form (non-integer
    alpha/beta); callers that need an operator use ``with_degree``.
    Draws that break a stated condition are drawn again; the program's
    verdict is never consulted.
    """
    dom = DOMAINS[DOMAIN_OF[kind]]
    while True:
        params = {name: Fraction(rng.choice(nums), den) for name, nums, den in dom}
        if admissible(kind, params):
            return params


def with_degree(kind: str, params: dict[str, Fraction], k: int) -> dict[str, Fraction]:
    """Laguerre/Jacobi parameters whose alpha resp. beta is the integer k,
    so that the construction carries an operator of order 2k+2."""
    return {**params, ("alpha" if kind == "laguerre" else "beta"): Fraction(k)}


# -- ops ---------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One call to a public check, described by data only.

    kind: eigen | dop | gram | orthoseq | ip | casorati | cli.
    target: named kind, family, lemma kind, or CLI subcommand.
    subject: for CLI ops, the theorem, family or lemma kind.
    index: catalog index (dop) or Casorati n.
    """

    kind: str
    target: str
    params: tuple[tuple[str, Fraction], ...] = ()
    k: int = 0
    nmax: int = 0
    x0: Optional[Fraction] = None
    index: int = 0
    subject: str = ""

    @property
    def param_dict(self) -> dict[str, Fraction]:
        return dict(self.params)

    @property
    def checks(self) -> int:
        """Exact identities the op asks the program to replay."""
        if self.kind == "gram":
            size = self.nmax + 1
            return size * (size + 1) // 2
        if self.kind in ("casorati", "cli"):
            return 1
        return self.nmax + 1

    def argv(self) -> list[str]:
        """Command line for a CLI op, after ``python -m krallops.cli``."""
        out = ["--json", self.target]
        if self.target == "verify-dops":
            out += ["--family", self.subject]
        elif self.target == "ip-lemma":
            out += ["--kind", self.subject]
        elif self.target != "casorati":
            out += ["--theorem", self.subject]
        for key, value in self.params:
            # --key=value, so that argparse does not read "-1/7" as an option
            out.append(f"--{key}={value.numerator}/{value.denominator}")
        if self.target != "verify-dops":
            out += ["--k", str(self.k)]
        out += ["--nmax", str(self.nmax)]
        if self.target == "krall":
            out += ["--ortho", "--band"]
        return out


def _op(kind: str, target: str, params: dict, **fields) -> Op:
    return Op(kind, target, tuple(sorted(params.items())), **fields)


def _x0(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-41, 42, 2), 7)


def _cycle(options: tuple, i: int):
    # Sizes, degrees and subjects follow the round number, not the seed, so
    # every seed runs the same mix of op shapes; the seed sets the numbers.
    return options[i % len(options)]


def rotating_params(workload: str, seed: int, kind: str, rnd: int) -> dict[str, Fraction]:
    """Round ``rnd``'s parameter set for ``kind``.

    Each parameter walks its own domain in a seeded order, so six rounds use
    every value of a six-value domain once: runs of different seeds differ
    in how the values are combined more than in which values they use,
    which keeps their cost alike.
    """
    params = {}
    for name, nums, den in DOMAINS[DOMAIN_OF[kind]]:
        order = random.Random(f"krallops-bench/{workload}/{seed}/{kind}/{name}").sample(nums, len(nums))
        params[name] = Fraction(order[rnd % len(nums)], den)
    if not admissible(kind, params):
        raise ValueError(f"{kind} grid value {params} breaks a stated condition")
    return params


def _named_params(rng: random.Random, kind: str, k: int) -> dict:
    params = draw_params(rng, kind)
    return with_degree(kind, params, k) if kind in ("laguerre", "jacobi") else params


def round_ops(workload: str, seed: int, rnd: int) -> list[Op]:
    """The ops of round ``rnd``; a pure function of its arguments."""
    rng = random.Random(f"krallops-bench/{workload}/{seed}/{rnd}")
    ops: list[Op] = []
    if workload == "eigen-difference":
        # One parameter set per family, swept over k and rising nmax so the
        # ops of a set share the family polynomials.
        for kind in DIFFERENCE_KINDS:
            params = rotating_params(workload, seed, kind, rnd)
            for k in EIGEN_KS:
                for nmax in HAHN_NMAX if kind.startswith("hahn") else DIFFERENCE_NMAX:
                    ops.append(_op("eigen", kind, params, k=k, nmax=nmax, x0=_x0(rng)))
    elif workload == "eigen-differential":
        for kind, nmaxes in (("laguerre", LAGUERRE_NMAX), ("jacobi", JACOBI_NMAX)):
            base = rotating_params(workload, seed, kind, rnd)
            for k in EIGEN_KS:
                params = with_degree(kind, base, k)
                for nmax in nmaxes:
                    ops.append(_op("eigen", kind, params, k=k, nmax=nmax, x0=_x0(rng)))
    elif workload == "moments-dops":
        # Fresh parameters for every op, and cold caches (CACHE_SCOPE).
        for fam in FAMILIES:
            for index in range(CATALOG_SIZE[fam]):
                ops.append(_op("dop", fam, draw_params(rng, fam), nmax=DOP_NMAX, index=index))
        for check, nmax in (("gram", GRAM_NMAX), ("orthoseq", ORTHOSEQ_NMAX)):
            for j, kind in enumerate(NAMED_KINDS):
                k = _cycle(MOMENT_KS, rnd + j)
                ops.append(_op(check, kind, _named_params(rng, kind, k), k=k, nmax=nmax))
            for kind in ("laguerre", "jacobi"):  # orthogonality-only forms
                ops.append(_op(check, kind, draw_params(rng, kind), k=0, nmax=nmax))
        for j, kind in enumerate(IP_LEMMA_KINDS):
            k = _cycle(MOMENT_KS, rnd + j)
            ops.append(_op("ip", kind, draw_params(rng, kind), k=k, nmax=IP_NMAX))
        for slot in range(rnd * CASORATI_PER_ROUND, (rnd + 1) * CASORATI_PER_ROUND):
            ops.append(
                _op(
                    "casorati",
                    "charlier",
                    draw_params(rng, "charlier"),
                    k=_cycle(CASORATI_KS, slot),
                    index=_cycle(CASORATI_NS, slot),
                )
            )
    elif workload == "cli-oneshot":
        for slot, sub in enumerate(CLI_SUBCOMMANDS):
            k = _cycle(CLI_KS, rnd + slot)
            if sub == "verify-dops":
                subject = _cycle(FAMILIES, rnd)
                params = draw_params(rng, subject)
            elif sub == "ip-lemma":
                subject = _cycle(IP_LEMMA_KINDS, rnd)
                params = draw_params(rng, subject)
            elif sub == "casorati":
                subject, params = "", draw_params(rng, "charlier")
            else:
                subject = _cycle(NAMED_KINDS, rnd)
                params = _named_params(rng, subject, k)
            ops.append(_op("cli", sub, params, k=k, nmax=CLI_NMAX, subject=subject))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops

