"""Special-function layer: gamma, erfc, and the Mittag-Leffler function."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memdiff
import ml_reference
from memdiff.errors import DomainError
from memdiff.specfun import erfc, gamma, mittag_leffler

#: Mittag-Leffler reference values, committed; see ml_reference.py.
ML_TABLE = ml_reference.load()


def test_gamma_integers_exact():
    for n in range(1, 11):
        assert gamma(n) == math.factorial(n - 1)


def test_gamma_half_integer():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15
    assert abs(gamma(1.5) - 0.5 * math.sqrt(math.pi)) < 1e-15


def test_gamma_duplication():
    # Gamma(x) Gamma(x + 1/2) = 2^(1-2x) sqrt(pi) Gamma(2x).
    for x in (0.1, 0.3, 0.7, 1.4, 2.5):
        lhs = gamma(x) * gamma(x + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * x) * math.sqrt(math.pi) * gamma(2.0 * x)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma(-0.5)
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(np.array([1.0, -0.5]))


def test_gamma_vectorized():
    x = np.array([1.0, 2.0, 3.5])
    out = gamma(x)
    assert out.shape == x.shape
    assert abs(out[1] - 1.0) < 1e-15
    # Overflow is inf, nan stays nan, and an empty array stays empty.
    assert gamma(200.0) == math.inf
    assert math.isnan(gamma(math.nan))
    edge = gamma(np.array([[200.0, math.nan], [0.5, 4.0]]))
    assert edge.shape == (2, 2) and edge[0, 0] == math.inf and math.isnan(edge[0, 1])
    assert edge[1, 1] == 6.0
    empty = gamma(np.array([]))
    assert empty.shape == (0,) and empty.dtype == float


def test_erfc_reflection_and_values():
    for x in (-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0):
        assert abs(erfc(x) + erfc(-x) - 2.0) < 1e-14
    assert erfc(0.0) == 1.0
    # erfc(1) to 1e-12 (standard reference value).
    assert abs(erfc(1.0) - 0.15729920705028513) < 1e-12
    assert erfc(math.inf) == 0.0 and erfc(-math.inf) == 2.0
    assert np.array_equal(erfc(np.array([math.inf, 0.0, -math.inf])), [0.0, 1.0, 2.0])
    assert math.isnan(erfc(math.nan))


def test_ml_alpha_one_is_exp():
    z = -np.geomspace(1e-3, 100.0, 100)
    vals = mittag_leffler(1.0, z)
    assert np.max(np.abs(vals - np.exp(z)) / np.exp(z)) < 1e-13


def test_ml_alpha_two_is_cos():
    z = -np.geomspace(1e-3, 100.0, 100)
    vals = mittag_leffler(2.0, z)
    ref = np.cos(np.sqrt(-z))
    assert np.max(np.abs(vals - ref)) < 1e-12


def test_ml_alpha_half_closed_form():
    # E_{1/2}(-x) = e^(x^2) erfc(x) = U(1/2, 1/2, x^2) / sqrt(pi) (DLMF 7.11.4),
    # across both of specfun's branches and up to x = 1e300.  mpmath's erfc
    # loses its exponent past x ~ 1e50, so the confluent hypergeometric form
    # is the reference above x = 1e8.
    x = np.geomspace(1e-8, 1e300, 400)
    vals = mittag_leffler(0.5, -x)
    with mpmath.workdps(30):
        ref = np.array([
            float(mpmath.exp(xi**2) * mpmath.erfc(xi) if xi < 1e8
                  else mpmath.hyperu(0.5, 0.5, xi**2) / mpmath.sqrt(mpmath.pi))
            for xi in map(mpmath.mpf, x)
        ])
    assert np.max(np.abs(vals - ref) / ref) <= 1e-13


def test_ml_at_zero_is_one():
    for alpha in (0.25, 0.5, 1.0, 1.3, 2.0):
        assert mittag_leffler(alpha, 0.0) == 1.0


@pytest.mark.parametrize("alpha", ml_reference.SERIES_ALPHAS)
def test_ml_against_mpmath_series_reference(alpha):
    # Reference by brute-force series in high precision, from the committed
    # table; its middle point is summed again here.  The grid is capped per
    # alpha so that the alternating series loses at most ~40 digits; larger
    # |z| is covered by the leading-term and relaxation-equation cross
    # checks, and small alpha by the quadrature reference below.
    z = ml_reference.series_points(alpha)
    table = ML_TABLE["series"][repr(alpha)]
    assert np.array_equal(table["z"], z)
    ref = np.array(table["E"])
    assert ml_reference.series_reference(alpha, z[12]) == ref[12]
    vals = mittag_leffler(alpha, z)
    # Relative, with an absolute floor once the values are tiny.
    tol = np.maximum(1e-8 * np.abs(ref), 2e-9)
    assert np.all(np.abs(vals - ref) < tol)


def test_ml_seam_consistency():
    # E_alpha(-30.03) against a 200-digit series (see ml_reference), from
    # the committed table; alpha = 1.6, the cheapest, is summed again here.
    table = ML_TABLE["seam"]
    assert ml_reference.seam_reference(1.6) == table[repr(1.6)]
    for alpha in ml_reference.SEAM_ALPHAS:
        val = mittag_leffler(alpha, -ml_reference.SEAM_X)
        ref = table[repr(alpha)]
        assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))


def test_ml_monotone_for_alpha_below_one():
    # E_alpha(-x) is completely monotone for alpha in (0, 1]: decreasing,
    # positive, convex on a sample grid.
    for alpha in (0.6, 0.8, 0.95):
        x = np.linspace(0.0, 50.0, 400)
        vals = np.asarray(mittag_leffler(alpha, -x))
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(np.diff(vals, 2) > -1e-12)


def test_ml_oscillates_for_alpha_above_one():
    x = np.linspace(0.0, 200.0, 2000)
    vals = np.asarray(mittag_leffler(1.8, -x))
    assert np.min(vals) < 0.0


def test_ml_asymptotic_leading_term():
    # E_alpha(-x) ~ 1 / (x Gamma(1 - alpha)) for large x, alpha < 1.
    alpha = 0.7
    x = 1e6
    val = mittag_leffler(alpha, -x)
    lead = 1.0 / (x * gamma(1.0 - alpha))
    assert abs(val - lead) < 1e-3 * abs(lead)


def test_ml_rejects_bad_alpha():
    for alpha in (0.0, -0.5, 2.5, 3.0):
        with pytest.raises(DomainError):
            mittag_leffler(alpha, -1.0)


def test_ml_rejects_positive_argument():
    with pytest.raises(DomainError):
        mittag_leffler(0.5, 1.0)


@pytest.mark.parametrize("alpha", [0.5, 0.6, 1.0, 1.3, 2.0])
def test_ml_rejects_nonfinite_argument(alpha):
    for z in (math.nan, -math.inf, math.inf, np.array([-1.0, math.nan])):
        with pytest.raises(DomainError):
            mittag_leffler(alpha, z)


@given(st.floats(min_value=0.6, max_value=2.0),
       st.floats(min_value=0.0, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_ml_bounded_by_one_on_negative_axis(alpha, x):
    val = float(np.asarray(mittag_leffler(alpha, -x)))
    assert val <= 1.0 + 1e-12
    assert val >= -1.0


def test_ml_bounded_small_alpha_samples():
    for alpha, xs in ((0.1, (0.5, 1.0, 50.0)), (0.25, (0.5, 2.5, 100.0))):
        for x in xs:
            val = mittag_leffler(alpha, -x)
            assert -1.0 <= val <= 1.0 + 1e-12


@pytest.mark.parametrize("alpha", ml_reference.QUADRATURE_ALPHAS)
def test_ml_small_alpha_against_quadrature(alpha):
    # Small orders, where a Taylor series would lose |z|^(1/alpha) digits;
    # the Gorenflo-Mainardi integral (see ml_reference) from the committed
    # table, with the point z = -2 integrated again here.
    z = np.array(ml_reference.QUADRATURE_Z)
    table = ML_TABLE["quadrature"][repr(alpha)]
    assert np.array_equal(table["z"], z)
    ref = np.array(table["E"])
    assert ml_reference.gorenflo_mainardi(alpha, 2.0) == ref[1]
    vals = mittag_leffler(alpha, z)
    assert np.max(np.abs(vals - ref)) <= 1e-12


def test_ml_cost_is_bounded():
    z = np.linspace(-60.0, 0.0, 400)
    start = time.perf_counter()
    for alpha in (0.1, 0.3, 0.6, 0.95, 1.25, 1.6):
        mittag_leffler(alpha, z)
    assert time.perf_counter() - start < 2.0


def test_ml_continuous_at_the_closed_form_orders():
    z = np.linspace(-30.0, 0.0, 301)
    for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
        assert np.max(np.abs(mittag_leffler(alpha, z) - np.exp(z))) <= 1e-5
    assert np.max(np.abs(mittag_leffler(2.0 - 1e-6, z) - np.cos(np.sqrt(-z)))) <= 1e-5


def test_import_leaves_scipy_out():
    # The package runs on numpy alone: no import, and no call on the
    # singular path (contour sums), the smooth path or in specfun,
    # loads scipy, nor numpy.polynomial, which costs milliseconds to import.
    src = str(Path(memdiff.__file__).resolve().parents[1])
    code = (
        "import sys, memdiff, memdiff.cli\n"
        "from memdiff import (Exponential, Gaussian, ModeGrid, TimeGrid, erfc, evolve,\n"
        "                     fractional, gamma, mittag_leffler, relaxation_values)\n"
        "relaxation_values(fractional(-0.5), [1.0, 10.0], TimeGrid(1.0, 50))\n"
        "evolve(Exponential(mu=1.0, c=1.0), Gaussian(), ModeGrid(n=1, modes_per_axis=8, xi_max=4.0),\n"
        "       [0.5], TimeGrid(1.0, 20))\n"
        "mittag_leffler(0.5, [-1.0, -1e3]); gamma([0.5, 3.0]); erfc(0.5)\n"
        "print('scipy' in sys.modules, 'numpy.polynomial' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["False", "False"]


def test_import_leaves_mpmath_out():
    # mpmath is a test-only dependency: the package must not load it.
    src = str(Path(memdiff.__file__).resolve().parents[1])
    code = "import sys, memdiff; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "False"
