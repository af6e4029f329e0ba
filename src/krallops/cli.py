"""Command-line verification harness.

Each subcommand builds the requested objects, runs the exact checks, and
prints either a human-readable summary or a JSON report.  Exit codes:
0 all checks pass, 1 a check failed, 2 usage or parameter error,
3 a construction hypothesis fails (with the offending index).

Reports are wrapped as {"schema": "krall-report/1", "report": {...},
"timing_ms": ...}; the report section is deterministic for identical
inputs, timing lives outside it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from . import moments
from .dops import catalog, verify_dop
from .errors import (
    ConstructionError,
    DegeneracyError,
    HypothesisError,
    KrallopsError,
    NoOrthogonalPolynomialsError,
    OperatorError,
    check_at_least,
)
from .families import FAMILY_PARAM_FIELDS, family_from_name, family_to_json
from .krall import (
    NAMED_KINDS,
    band_profile,
    construction_to_json,
    named,
    verify_eigen,
)
from .polyops import Polynomial, as_fraction, fraction_to_str

SCHEMA = "krall-report/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3

# krall --ortho checks q_0..q_n for n <= min(--nmax, ORTHO_CAP).
ORTHO_CAP = 8


def _rational(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


_PARAM_FLAGS = ("a", "c", "N", "alpha", "beta", "mass", "mass_raw")


def _add_param_flags(parser: argparse.ArgumentParser):
    for name in _PARAM_FLAGS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=_rational)


def _collected_params(args: argparse.Namespace) -> dict:
    return {
        f: getattr(args, f) for f in _PARAM_FLAGS if getattr(args, f, None) is not None
    }


def _params_json(params: dict) -> dict:
    return {key: fraction_to_str(value) for key, value in sorted(params.items())}


_SUBCOMMAND_HELP = {
    "verify-dops": "check lowering-operator series == closed form",
    "krall": "build a named construction and verify it",
    "casorati": "determinant identity for shifted Charlier rows",
    "ip-lemma": "pairing ratio identities",
    "table": "print gamma_n, beta_n, lambda_n, q_n",
    "dump-operator": "serialize a construction to JSON",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krallops",
        description="Exact verification of lowering-operator constructions"
        " of orthogonal polynomial sequences q_n = p_n + beta_n p_{n-1}.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the cProfile top 25 functions by self time to stderr",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subs = {name: sub.add_parser(name, help=text) for name, text in _SUBCOMMAND_HELP.items()}

    p = subs["verify-dops"]
    p.add_argument("--family", required=True, choices=sorted(FAMILY_PARAM_FIELDS))
    p.add_argument("--nmax", type=int, default=10)
    _add_param_flags(p)

    # The subcommands that build a named construction share their flags.
    for name in ("krall", "table", "dump-operator"):
        p = subs[name]
        p.add_argument("--theorem", required=True, choices=NAMED_KINDS)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--nmax", type=int, default=10)
        if name == "krall":
            p.add_argument("--ortho", action="store_true", help="also check orthogonality")
            p.add_argument("--band", action="store_true", help="also report recurrence bands")
        _add_param_flags(p)

    p = subs["casorati"]
    p.add_argument("--a", type=_rational, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, default=10)

    p = subs["ip-lemma"]
    p.add_argument("--kind", required=True, choices=moments.IP_LEMMA_KINDS)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--nmax", type=int, default=8)
    _add_param_flags(p)

    # Accept --json and --profile after the subcommand too; SUPPRESS keeps a
    # post-command omission from clobbering a pre-command flag.
    for child in sub.choices.values():
        for flag in ("--json", "--profile"):
            child.add_argument(
                flag, action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS
            )

    return parser


# -- subcommand bodies: each returns (report dict, human lines, ok flag) ---------


def _run_verify_dops(args) -> tuple[dict, list[str], bool]:
    fam = family_from_name(args.family, _collected_params(args))
    checks = []
    for ver in (verify_dop(d, args.nmax) for d in catalog(fam)):
        checks.append(
            {
                "dop": ver.dop_label,
                "ok": ver.ok,
                "failures": [c.n for c in ver.checks if not c.ok],
            }
        )
    ok = all(c["ok"] for c in checks)
    report = {
        "subcommand": "verify-dops",
        "family": family_to_json(fam),
        "nmax": args.nmax,
        "checks": checks,
        "ok": ok,
    }
    lines = [
        f"{c['dop']}: {'pass' if c['ok'] else 'FAIL at n=' + str(c['failures'])}"
        for c in checks
    ]
    lines.append(f"verify-dops {args.family}: {'pass' if ok else 'FAIL'} (n <= {args.nmax})")
    return report, lines, ok


def _gamma_hypothesis_json(kc, nmax: int) -> dict:
    """The enforced nonvanishing range, plus whether it extends one index
    lower (some parameter regimes guarantee the wider range)."""
    out: dict = {"gamma_nonzero_checked": [1, nmax + 1]}
    if kc.p2 is not None:
        out["gamma_nonzero_at_0"] = kc.p2(kc.family.eigenvalue(-1)) != 0
    else:
        out["gamma_nonzero_at_0"] = None
    return out


# The degree-(k+1) multiplier whose recurrence band --band reports, by family.
_BAND_MULTIPLIERS = {
    "laguerre": lambda k: Polynomial.monomial(k + 1),
    "jacobi": lambda k: Polynomial((1, 1)) ** (k + 1),
    "charlier": lambda k: Polynomial.from_roots([-j for j in range(1, k + 2)]),
}


def _run_krall(args) -> tuple[dict, list[str], bool]:
    nc = named(args.theorem, _collected_params(args), k=args.k, nmax=args.nmax)
    kc = nc.construction
    nmax = args.nmax
    report: dict = {
        "subcommand": "krall",
        "theorem": args.theorem,
        "params": _params_json(_collected_params(args)),
        "k": args.k,
        "nmax": nmax,
        "label": kc.label,
        "kind": kc.kind,
        "gamma": [fraction_to_str(kc.gamma(n)) for n in range(1, nmax + 2)],
        "beta": [fraction_to_str(kc.beta(n)) for n in range(1, nmax + 1)],
        "measure": moments.measure_to_json(nc.functional),
        "notes": list(nc.notes),
        "hypothesis": _gamma_hypothesis_json(kc, nmax),
    }
    lines = [f"construction: {kc.label} ({kc.kind})"]
    ok = True

    if kc.operator is not None:
        rep = verify_eigen(kc, nmax)
        report["eigen"] = {
            "ok": rep.ok,
            "failures": [c.n for c in rep.checks if not c.ok],
            "order": rep.order,
            "genre": list(rep.genre) if rep.genre is not None else None,
            "eigenvalues": [fraction_to_str(c.expected) for c in rep.checks],
        }
        ok = ok and rep.ok
        shape = f"order {rep.order}"
        if rep.genre is not None:
            shape += f", genre {rep.genre}"
        lines.append(
            f"eigen-identity n <= {nmax}: {'pass' if rep.ok else 'FAIL'} ({shape})"
        )
    else:
        report["eigen"] = None
        lines.append("no finite-order operator for these parameters (orthogonality only)")

    if args.ortho:
        upto = min(nmax, ORTHO_CAP)
        gram = moments.gram_check(nc.functional, kc.q_sequence(upto))
        report["ortho"] = {
            "ok": gram.ok,
            "upto": upto,
            "diag_signs": gram.diagonal_signs,
        }
        ok = ok and gram.ok
        capped = f" (capped at {ORTHO_CAP}; --nmax {nmax})" if nmax > upto else ""
        lines.append(f"orthogonality q_0..q_{upto}{capped}: {'pass' if gram.ok else 'FAIL'}")

    if args.band:
        k = kc.seed_degree if kc.seed_degree is not None else args.k
        make_mult = _BAND_MULTIPLIERS.get(kc.family.name())
        if make_mult is None:
            report["band"] = None
            lines.append("band profile: not defined for this family")
        else:
            mult = make_mult(k)
            prof = band_profile(kc, mult, nmax)
            lo = min(min(v) for v in prof.values())
            hi = max(max(v) for v in prof.values())
            report["band"] = {
                "multiplier": mult.to_json(),
                "band": [lo, hi],
                "within_pm_kplus1": lo >= -k - 1 and hi <= k + 1,
            }
            lines.append(f"recurrence band for deg-{k + 1} multiplier: [{lo}, {hi}]")

    report["ok"] = ok
    lines.append(f"krall {args.theorem}: {'pass' if ok else 'FAIL'}")
    return report, lines, ok


def _run_casorati(args) -> tuple[dict, list[str], bool]:
    check_at_least("nmax", args.nmax, 1)  # the checks run over n = 1..nmax

    def one(n: int) -> dict:
        det, closed = moments.casorati_check(args.a, args.k, n)
        return {
            "n": n,
            "det": fraction_to_str(det),
            "closed": fraction_to_str(closed),
            "ok": det == closed,
        }

    checks = [one(n) for n in range(1, args.nmax + 1)]
    ok = all(c["ok"] for c in checks)
    report = {
        "subcommand": "casorati",
        "a": fraction_to_str(args.a),
        "k": args.k,
        "nmax": args.nmax,
        "checks": checks,
        "ok": ok,
    }
    lines = [
        f"n={c['n']}: det={c['det']} closed={c['closed']} {'ok' if c['ok'] else 'MISMATCH'}"
        for c in checks
    ]
    lines.append(f"casorati a={fraction_to_str(args.a)} k={args.k}: {'pass' if ok else 'FAIL'}")
    return report, lines, ok


def _run_ip_lemma(args) -> tuple[dict, list[str], bool]:
    params = _collected_params(args)
    rep = moments.ip_lemma_check(args.kind, params, args.k, args.nmax)
    checks = [
        {
            "n": c.n,
            "lhs": fraction_to_str(c.lhs),
            "rhs": fraction_to_str(c.rhs),
            "ok": c.ok,
        }
        for c in rep.checks
    ]
    report = {
        "subcommand": "ip-lemma",
        "kind": args.kind,
        "params": _params_json(params),
        "k": args.k,
        "nmax": args.nmax,
        "checks": checks,
        "ok": rep.ok,
    }
    lines = [
        f"n={c['n']}: {c['lhs']} vs {c['rhs']} {'ok' if c['ok'] else 'MISMATCH'}"
        for c in checks
    ]
    lines.append(f"ip-lemma {args.kind}: {'pass' if rep.ok else 'FAIL'}")
    return report, lines, rep.ok


def _run_table(args) -> tuple[dict, list[str], bool]:
    nc = named(args.theorem, _collected_params(args), k=args.k, nmax=args.nmax)
    kc = nc.construction
    rows = []
    for n in range(args.nmax + 1):
        rows.append(
            {
                "n": n,
                "gamma": fraction_to_str(kc.gamma(n)) if n >= 1 else None,
                "beta": fraction_to_str(kc.beta(n)) if n >= 1 else None,
                "lambda": fraction_to_str(kc.eigval(n)) if kc.operator else None,
                "q": str(kc.q(n)),
            }
        )
    report = {
        "subcommand": "table",
        "theorem": args.theorem,
        "params": _params_json(_collected_params(args)),
        "k": args.k,
        "nmax": args.nmax,
        "label": kc.label,
        "rows": rows,
        "ok": True,
    }
    lines = [f"{kc.label}", f"{'n':>3} {'gamma_n':>14} {'beta_n':>14} {'lambda_n':>14}  q_n"]
    for r in rows:
        lines.append(
            f"{r['n']:>3} {r['gamma'] or '-':>14} {r['beta'] or '-':>14}"
            f" {r['lambda'] or '-':>14}  {r['q']}"
        )
    return report, lines, True


def _run_dump_operator(args) -> tuple[dict, list[str], bool]:
    nc = named(args.theorem, _collected_params(args), k=args.k, nmax=args.nmax)
    doc = construction_to_json(nc.construction)
    doc["measure"] = moments.measure_to_json(nc.functional)
    report = {
        "subcommand": "dump-operator",
        "theorem": args.theorem,
        "params": _params_json(_collected_params(args)),
        "k": args.k,
        "nmax": args.nmax,
        "construction": doc,
        "ok": True,
    }
    return report, [json.dumps(doc, indent=2, sort_keys=True)], True


_RUNNERS = {
    "verify-dops": _run_verify_dops,
    "krall": _run_krall,
    "casorati": _run_casorati,
    "ip-lemma": _run_ip_lemma,
    "table": _run_table,
    "dump-operator": _run_dump_operator,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    start = time.monotonic()
    try:
        if profiler is None:
            report, lines, ok = _RUNNERS[args.subcommand](args)
        else:
            report, lines, ok = profiler.runcall(_RUNNERS[args.subcommand], args)
    except (HypothesisError, DegeneracyError, NoOrthogonalPolynomialsError) as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ConstructionError, OperatorError, KrallopsError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if profiler is not None:
            import pstats

            pstats.Stats(profiler, stream=sys.stderr).sort_stats("tottime").print_stats(25)
    elapsed_ms = int((time.monotonic() - start) * 1000)

    if args.json:
        print(
            json.dumps(
                {"schema": SCHEMA, "report": report, "timing_ms": elapsed_ms},
                sort_keys=True,
            )
        )
    else:
        for line in lines:
            print(line)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
