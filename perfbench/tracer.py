"""Span recording for the traced run, installed from outside the program.

``install`` replaces the public functions of each krallops layer with thin
wrappers that record a span (name, parent, start, end) while a ``Tracer``
is enabled.  Spans stay in flat arrays in memory and are written out when
the run ends.  A span's self time is its duration minus the part of it that
its child spans cover.

Two traps the wrappers must cover:

* ``Polynomial.__rmul__`` is an alias bound when the class was created, so
  replacing ``__mul__`` leaves it pointing at the original; it is wrapped
  separately.
* ``krall``, ``cli`` and the package ``__init__`` import functions such as
  ``poly_of_op``, ``named`` and ``verify_eigen`` by name, so every
  krallops module attribute bound to a wrapped function is rebound, not
  only the defining module's.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Iterable, Optional


class Tracer:
    """In-memory span store for one process; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.hits: Counter = Counter()  # calls per wrapped target
        self.distinct: set = set()  # (family, n) pairs seen by families.polynomial

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span that was timed elsewhere."""
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return i

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name[i], self.parent[i], self.start[i], self.end[i]]
                for i in range(len(self.start))
            ],
            "counters": dict(self.counters),
            "hits": dict(self.hits),
            "distinct": sorted(f"{fam!r}|{n}" for fam, n in self.distinct),
        }

    def merge(self, dump: dict, parent: int) -> None:
        """Append another tracer's spans; its root spans become children of
        ``parent``.  Used for spans a CLI child process wrote out."""
        base = len(self.start)
        for nid, par, start, end in dump["spans"]:
            self.add(dump["names"][nid], start, end, parent if par < 0 else base + par)
        self.counters.update(dump["counters"])
        self.hits.update(dump["hits"])
        self.distinct.update(tuple(key.rsplit("|", 1)) for key in dump["distinct"])

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, and each span's duration."""
        selfs = self_times(self.parent, self.start, self.end)
        out: dict[str, dict] = {}
        for i, s in enumerate(selfs):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["self_s"] += s
            row["durations"].append(self.end[i] - self.start[i])
        return out


def self_times(parent: Iterable[int], start: Iterable[float], end: Iterable[float]) -> list[float]:
    """Duration minus the union of child intervals (clipped to the parent)."""
    parent, start, end = list(parent), list(start), list(end)
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda j: start[j]):
            s, e = max(start[c], lo), min(end[c], hi)
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out


def median_duration(summary: dict, name: str) -> float:
    row = summary.get(name)
    return statistics.median(row["durations"]) if row else 0.0


# -- wrappers ------------------------------------------------------------------


def _mul_pairs(tracer: Tracer, args: tuple) -> None:
    a, b = args[0], args[1]
    other = len(b.coeffs) if hasattr(b, "coeffs") else 1
    tracer.counters["polyops.mul.coeff_pairs"] += len(a.coeffs) * other


def _family_key(tracer: Tracer, args: tuple) -> None:
    tracer.distinct.add((args[0], args[1]))


def targets():
    """Every wrapped callable: (target key, span name, owner, attribute,
    hook, workload).  ``workload`` is one on which the target must record
    spans, following the layer lines of the benchmark's README.

    Imported lazily so that this module loads without krallops on the path.
    """
    from krallops import dops, families, krall, moments, opalg, polyops

    P, D, Dd = polyops.Polynomial, opalg.DifferenceOperator, opalg.DifferentialOperator
    diff, cont, mom, cli = "eigen-difference", "eigen-differential", "moments-dops", "cli-oneshot"
    rows = [
        ("polyops.Polynomial.__mul__", "polyops.mul", P, "__mul__", _mul_pairs, diff),
        ("polyops.Polynomial.__rmul__", "polyops.mul", P, "__rmul__", _mul_pairs, cont),
        ("polyops.Polynomial.shift_arg", "polyops.shift_arg", P, "shift_arg", None, diff),
        ("polyops.Polynomial.__call__", "polyops.call", P, "__call__", None, diff),
        ("families.Family.polynomial", "families.polynomial", families.Family, "polynomial", _family_key, diff),
        ("opalg.DifferenceOperator.apply", "opalg.apply", D, "apply", None, diff),
        ("opalg.DifferentialOperator.apply", "opalg.apply", Dd, "apply", None, cont),
        ("opalg.DifferenceOperator.compose", "opalg.compose", D, "compose", None, diff),
        ("opalg.DifferentialOperator.compose", "opalg.compose", Dd, "compose", None, cont),
        ("opalg.poly_of_op", "opalg.poly_of_op", opalg, "poly_of_op", None, diff),
        ("dops.verify_dop", "dops.verify_dop", dops, "verify_dop", None, mom),
        ("dops.series_apply", "dops.series_apply", dops, "series_apply", None, mom),
        ("krall.named", "krall.named", krall, "named", None, diff),
        ("krall.verify_eigen", "krall.verify_eigen", krall, "verify_eigen", None, diff),
        ("krall.KrallConstruction.q", "krall.q", krall.KrallConstruction, "q", None, diff),
        ("krall.band_profile", "krall.band_profile", krall, "band_profile", None, cli),
    ]
    for fn in ("pairing", "gram_check", "orthoseq", "ip_lemma_check", "casorati_check",
               "det_fraction", "solve_fraction"):
        rows.append((f"moments.{fn}", f"moments.{fn}", moments, fn, None, mom))
    return rows


def _wrap(tracer: Tracer, key: str, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.hits[key] += 1
        if hook is not None:
            hook(tracer, args)
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    modules = [m for n, m in list(sys.modules.items()) if n == "krallops" or n.startswith("krallops.")]
    undo: list[tuple[object, str, object]] = []
    for key, name, owner, attr, hook, _ in targets():
        original = vars(owner)[attr]
        wrapper = _wrap(tracer, key, name, original, hook)
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, alias, original))
                    setattr(module, alias, wrapper)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
