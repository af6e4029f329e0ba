"""Lowering operators: defining series vs closed forms, and their covariance."""

from __future__ import annotations

import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from krallops import dops
from krallops.dops import DOperator, catalog, series_apply, verify_dop
from krallops.errors import DegeneracyError
from krallops.families import Charlier, Hahn, Jacobi, Krawtchouk, Laguerre, Meixner
from krallops.opalg import DifferenceOperator
from krallops.polyops import Polynomial, RationalFunction

F = Fraction

FAMILIES = [
    Charlier(F(1)),
    Charlier(F(1, 2)),
    Meixner(F(2), F(5, 2)),
    Meixner(F(1, 3), F(7, 2)),
    Krawtchouk(F(1, 2), F(15, 2)),
    Krawtchouk(F(3), F(1, 3)),
    Hahn(F(7, 3), F(5, 2), F(1, 3)),
    Hahn(F(4), F(7, 2), F(2, 3)),
    Laguerre(F(2)),
    Laguerre(F(1, 2)),
    Jacobi(F(1, 2), F(2)),
    Jacobi(F(7, 3), F(3, 2)),
]

EXPECTED_COUNT = {
    "charlier": 1,
    "meixner": 2,
    "krawtchouk": 2,
    "hahn": 4,
    "laguerre": 1,
    "jacobi": 2,
}


@pytest.mark.parametrize("fam", FAMILIES, ids=str)
def test_catalog_series_equals_closed_form(fam):
    entries = catalog(fam)
    assert len(entries) == EXPECTED_COUNT[fam.name()]
    for dop in entries:
        report = verify_dop(dop, 10)
        assert report.ok, (dop.label, report.failures)


def test_verify_dop_collects_failures_instead_of_raising():
    fam = Charlier(F(1))
    good = catalog(fam)[0]
    bad = DOperator(
        kind="type1",
        family=fam,
        label="broken",
        eps=lambda n: F(2),
        closed_form=good.closed_form,
    )
    report = verify_dop(bad, 6)
    assert not report.ok
    assert report.failures and min(c.n for c in report.failures) == 1
    assert verify_dop(good, 6).failures == []


def test_series_rescaling_covariance():
    # scaling the basis p_n -> a_n p_n turns eps_n into (a_n/a_{n-1}) eps_n;
    # the closed-form operator is unchanged
    fam = Meixner(F(2), F(5, 2))
    dop = catalog(fam)[0]
    rng = random.Random(7)
    scales = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(12)]
    for n in range(1, 11):
        out = Polynomial.zero()
        eps_product = F(1)
        for j in range(1, n + 1):
            m = n - j + 1
            eps_product *= dop.eps(m) * scales[m] / scales[m - 1]
            out = out + fam.polynomial(n - j) * scales[n - j] * ((-1) ** (j + 1) * eps_product)
        assert out == dop.closed_form.apply(fam.polynomial(n) * scales[n]), n


def test_constant_sigma_degenerates_to_first_kind():
    # with sigma constant, the sigma-weighted series collapses to
    # s * (first-kind series) - (s/2) p_n, so the closed form shifts accordingly
    fam = Charlier(F(3, 2))
    base = catalog(fam)[0]
    s = F(5, 3)
    synthetic = DOperator(
        kind="type2",
        family=fam,
        label="constant-sigma",
        eps=base.eps,
        closed_form=base.closed_form * s
        - DifferenceOperator.identity() * (s / 2),
        sigma=lambda n: s,
    )
    report = verify_dop(synthetic, 10)
    assert report.ok, report.failures


def test_hahn_eps_degeneracy_is_reported():
    fam = Hahn(F(1), F(3), F(4))  # alpha + c - N = 0
    dop = catalog(fam)[0]
    with pytest.raises(DegeneracyError):
        dop.eps(1)  # denominator (2n+alpha+c-N-2) vanishes
    assert dop.eps(2) != 0


def test_series_apply_truncates():
    fam = Laguerre(F(2))
    dop = catalog(fam)[0]
    assert series_apply(dop, 0).is_zero()
    assert series_apply(dop, 1) == fam.polynomial(0) * dop.eps(1)


def test_type2_requires_sigma():
    fam = Hahn(F(7, 3), F(5, 2), F(1, 3))
    with pytest.raises(ValueError):
        DOperator(
            kind="type2",
            family=fam,
            label="missing-sigma",
            eps=lambda n: F(1),
            closed_form=fam.second_order_op(),
        )


def test_jacobi_catalog_sigma_signs():
    fam = Jacobi(F(1, 2), F(2))
    d1, d2 = catalog(fam)
    for n in range(1, 6):
        assert d1.sigma(n) == fam.sigma(n)
        assert d2.sigma(n) == -fam.sigma(n)


def test_hahn_catalog_sigma_signs():
    fam = Hahn(F(7, 3), F(5, 2), F(1, 3))
    d1, d2, d3, d4 = catalog(fam)
    for n in range(1, 6):
        assert d1.sigma(n) == fam.sigma(n)
        assert d2.sigma(n) == -fam.sigma(n)
        assert d3.sigma(n) == -fam.sigma(n)
        assert d4.sigma(n) == fam.sigma(n)


def test_doperators_compare_by_value():
    fam = Hahn(F(1, 3), F(7, 2), F(6, 5))
    d = catalog(fam)
    # Same kind, family and label, but another operator's sequences or closed form.
    assert replace(d[0], closed_form=d[1].closed_form, eps=d[1].eps, sigma=d[1].sigma) != d[0]
    for name in ("eps", "sigma", "closed_form"):
        assert replace(d[0], **{name: getattr(d[1], name)}) != d[0], name
    dops._catalog.cache_clear()
    again = catalog(Hahn(F(1, 3), F(7, 2), F(6, 5)))
    assert again[0] is not d[0]
    assert again == d and [hash(x) for x in again] == [hash(x) for x in d]


@pytest.mark.parametrize("fam", FAMILIES, ids=str)
def test_catalog_rows_are_picklable_data(fam):
    for dop in catalog(fam):
        assert isinstance(dop.eps, RationalFunction)
        assert dop.sigma is None or isinstance(dop.sigma, RationalFunction)
        copy = pickle.loads(pickle.dumps(dop))
        assert copy == dop and copy is not dop
        assert [copy.eps(n) for n in range(8)] == [dop.eps(n) for n in range(8)]
        assert verify_dop(copy, 6).ok


def test_catalog_degeneracy_survives_pickling():
    fam = Jacobi(F(1, 2), F(-1, 2))  # alpha + beta = 0
    copy = pickle.loads(pickle.dumps(catalog(fam)[1]))
    with pytest.raises(DegeneracyError) as info:
        copy.eps(0)
    assert str(info.value) == "Jacobi lowering sequence degenerate: n+alpha+beta = 0 at n=0"
