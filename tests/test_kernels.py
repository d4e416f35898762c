"""Kernel catalog: primitives, cell rules, transforms, and diagnostics."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

import memdiff
from memdiff import kernels
from memdiff.errors import DomainError, HypothesisViolation, NotEventuallyPositiveError
from memdiff.kernels import (
    PD_BOUNDARY_SHIFT,
    Cosine,
    Exponential,
    Heat,
    LogModified,
    NegExponential,
    PowerLaw,
    SampledKernel,
    TimeDilated,
    Wave,
    check_positive_definite,
    dilate,
    fractional,
    laplace_a,
    primitive_A,
    require_positive_definite,
    rv_index_estimate,
    scale,
)
from memdiff.spectral import Gaussian, ModeGrid, evolve
from memdiff.volterra import TimeGrid, _convolution_weights, relaxation_values

CATALOG = [
    Heat(a0=1.0),
    Wave(c=1.0),
    PowerLaw(beta=0.5, c=1.0),
    fractional(-0.5),
    Exponential(mu=1.0, c=1.0),
    NegExponential(),
    Cosine(),
    LogModified(m=1.0),
    LogModified(m=2.5),
]

RV_GRID = np.geomspace(1e-2, 1e5, 72)


def quad_moments(kernel, t0, t1):
    """(int A, int s A(s) ds) over [t0, t1], from the hat weights of the
    cell: m0 = wL + wR and m1 = t0 m0 + h wL."""
    h = t1 - t0
    wL, wR = kernel._hat(t0, h)
    m0 = wL + wR
    return m0, t0 * m0 + h * wL


@pytest.mark.parametrize("kernel", CATALOG, ids=lambda k: k.description)
def test_primitive_matches_quadrature_of_a(kernel):
    # A(t) - a0 = int_0^t a, checked by adaptive quadrature.  The
    # power-law with beta < 0 is excluded: a is not locally integrable.
    if isinstance(kernel, PowerLaw) and kernel.beta < 0:
        pytest.skip("a is not locally integrable")
    for t in (0.3, 1.0, 4.0):
        ref, _ = integrate.quad(lambda s: float(kernel.a(s)), 0.0, t, limit=200)
        assert abs(primitive_A(kernel, t) - kernel.a0 - ref) < 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize("t", [1e-12, 1e-8, 1e-4, 1.0, 1e5, math.inf])
def test_exp_poly_primitive_has_no_cancellation(t):
    # A = (a0 + c/mu) - (c/mu) e^(-mu t) cancelled near t = 0: at t = 1e-8
    # it was 3.5e-9 relative off.  A(inf) = c/mu.
    with mpmath.workdps(40):
        ref = float(mpmath.mpf(1.5) * (1 if math.isinf(t) else -mpmath.expm1(-2 * mpmath.mpf(t))))
    got = Exponential(mu=2.0, c=3.0).primitive(t)
    assert abs(got - ref) <= 2 * np.finfo(float).eps * ref


@pytest.mark.parametrize("kernel", CATALOG, ids=lambda k: k.description)
def test_moments_match_quadrature_of_primitive(kernel):
    # The closed-form cell moments equal int A and int s A(s) ds.
    for t0, t1 in ((0.0, 0.5), (0.5, 1.5), (2.0, 2.25)):
        m0, m1 = quad_moments(kernel, t0, t1)
        r0, _ = integrate.quad(lambda s: float(kernel.primitive(s)), t0, t1, limit=200)
        r1, _ = integrate.quad(lambda s: s * float(kernel.primitive(s)), t0, t1, limit=200)
        assert abs(m0 - r0) < 1e-8 * max(1.0, abs(r0))
        assert abs(m1 - r1) < 1e-8 * max(1.0, abs(r1))


@pytest.mark.parametrize("kernel", CATALOG, ids=lambda k: k.description)
def test_moment_cells_agree_with_quad_moments(kernel):
    dt = 0.125
    m0, m1 = kernel.moment_cells(dt, 8)
    for r in range(8):
        q0, q1 = quad_moments(kernel, r * dt, (r + 1) * dt)
        assert abs(m0[r] - q0) < 1e-12 * max(1.0, abs(q0))
        assert abs(m1[r] - q1) < 1e-12 * max(1.0, abs(q1))


def _exp_decay_A(t):
    mu = mpmath.mpf(0.2)
    return 1 + (-2 / mu) * (1 - mpmath.exp(-mu * t))


@pytest.mark.parametrize(
    "kernel, A",
    [(Exponential(mu=0.2, c=-2.0, a0=1.0), _exp_decay_A), (NegExponential(), lambda t: mpmath.exp(-t)),
     (Cosine(), mpmath.sin), (dilate(Cosine(), 2.0), lambda t: mpmath.sin(2 * t)),
     (scale(NegExponential(), 2.0), lambda t: 2 * mpmath.exp(-t)),
     (Exponential(mu=1.0, c=1.0) + Heat(0.5), lambda t: 1.5 - mpmath.exp(-t)),
     (TimeDilated(Wave(c=1.0, a0=0.5), 2.0), lambda t: 0.5 + 2 * t),
     (TimeDilated(NegExponential(), 3.0), lambda t: mpmath.exp(-3 * t)),
     (TimeDilated(Cosine(), 3.0), lambda t: mpmath.sin(3 * t))],
    ids=["exponential", "negexponential", "cosine", "dilated-cosine", "scaled-negexponential",
         "exponential+heat", "time-dilated-wave", "time-dilated-negexponential",
         "time-dilated-cosine"],
)
def test_moments_are_exact_on_short_and_far_cells(kernel, A):
    # Differences of antiderivatives lost up to 5e-2 relative on these
    # cells, and dilations, scalings and sums that differenced them lost up
    # to 1.8e-4; the reference is the 30-digit quadrature of A on each cell.
    def exact(t0, t1):
        with mpmath.workdps(30):
            return (mpmath.quad(A, [t0, t1]), mpmath.quad(lambda s: s * A(s), [t0, t1]))

    for t0, t1 in ((0.0, 1e-6), (0.0, 1e-3), (5.0, 5.001)):
        for got, ref in zip(quad_moments(kernel, t0, t1), exact(t0, t1)):
            assert abs(got - ref) <= 1e-13 * abs(ref)
    for dt, r in ((1e-6, 0), (1e-3, 0), (1e-3, 5000)):
        cells = kernel.moment_cells(dt, r + 1)
        with mpmath.workdps(30):
            refs = exact(mpmath.mpf(r * dt), mpmath.mpf(r * dt) + dt)
        for got, ref in zip(cells, refs):
            assert abs(got[r] - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize(
    "kernel, T",
    [(PowerLaw(beta=0.5), 1.0), (PowerLaw(beta=0.5), 3.0), (PowerLaw(beta=1.0, c=2.0, a0=0.3), 1.0),
     (fractional(-0.5), 1.0), (fractional(-0.9), 1.0)],
    ids=["beta_0.5", "beta_0.5_dilated", "beta_1_with_a0", "fractional_-0.5", "fractional_-0.9"],
)
def test_powerlaw_moments_match_mpmath_on_any_cell(kernel, T):
    # Cells of every width relative to t0: the Taylor series serves
    # h <= t0, the other side takes the integrals from t1.  A series summed
    # past its range was 20% off on (1e-4, 1).
    kernel_T = dilate(kernel, T) if T != 1.0 else kernel
    cells = [(1e-4, 1.0), (0.01, 1.0), (1e-300, 1.0), (2.0, 1e6), (0.0, 7.0),
             (1.0, 2.0), (1.0, 2.0 + 1e-9), (1.0, 2.0 - 1e-9), (5.0, 5.001), (1e3, 1e3 + 1e-6)]
    with mpmath.workdps(30):
        b, c, a0 = (mpmath.mpf(v) for v in (kernel.beta, kernel.c, kernel.a0))
        for t0, t1 in cells:
            got = quad_moments(kernel_T, t0, t1)
            s0, s1 = mpmath.mpf(t0), mpmath.mpf(t1)
            f = c / b * mpmath.mpf(T) ** b
            ref = (f * (s1 ** (b + 1) - s0 ** (b + 1)) / (b + 1) + a0 * (s1 - s0),
                   f * (s1 ** (b + 2) - s0 ** (b + 2)) / (b + 2) + a0 * (s1**2 - s0**2) / 2)
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-14 * abs(r), (t0, t1)


def test_gauss_legendre_rule_is_leggauss_20_on_the_unit_interval():
    # The tabulated rule is numpy's, mapped to [0, 1], to the last bit.
    x, w = np.polynomial.legendre.leggauss(20)
    for got, ref in ((kernels._GL_U, (x + 1.0) / 2.0), (kernels._GL_W, w / 2.0)):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_laplace_closed_forms_against_quadrature():
    s = 0.7 + 0.9j
    for kernel in (Exponential(mu=2.0, c=3.0), Cosine(), NegExponential(),
                   Wave(c=1.5), PowerLaw(beta=0.5, c=1.0), LogModified(m=2.5)):
        val = laplace_a(kernel, s)
        re, _ = integrate.quad(
            lambda t: float(kernel.a(t)) * math.exp(-s.real * t) * math.cos(s.imag * t),
            0.0, 200.0, limit=800,
        )
        im, _ = integrate.quad(
            lambda t: -float(kernel.a(t)) * math.exp(-s.real * t) * math.sin(s.imag * t),
            0.0, 200.0, limit=800,
        )
        assert abs(val - (re + 1j * im)) < 1e-6


def _exponential_forms(mu, c, a0):
    mu, c, a0 = (mpmath.mpf(v) for v in (mu, c, a0))
    return (lambda t: c * mpmath.exp(-mu * t), lambda t: a0 + c / mu * (1 - mpmath.exp(-mu * t)),
            lambda p: c / (p + mu), float(a0 + c / mu), float(-mu))


@pytest.mark.parametrize(
    "kernel, forms",
    [(Heat(a0=2.5), (lambda t: 0, lambda t: 2.5, lambda p: 0, 2.5, None)),
     (Wave(c=1.5), (lambda t: 1.5, lambda t: 1.5 * t, lambda p: 1.5 / p, math.inf, 0.0)),
     (Wave(c=1.5, a0=0.25),
      (lambda t: 1.5, lambda t: 0.25 + 1.5 * t, lambda p: 1.5 / p, math.inf, 0.0)),
     (Exponential(mu=2.0, c=3.0), _exponential_forms(2.0, 3.0, 0.0)),
     (Exponential(mu=0.2, c=-2.0, a0=1.0), _exponential_forms(0.2, -2.0, 1.0)),
     (Exponential(mu=3.0, c=1.7, a0=0.3), _exponential_forms(3.0, 1.7, 0.3)),
     (NegExponential(),
      (lambda t: -mpmath.exp(-t), lambda t: mpmath.exp(-t), lambda p: -1 / (p + 1), 0.0, -1.0)),
     (Cosine(), (mpmath.cos, mpmath.sin, lambda p: p / (p**2 + 1), None, 0.0))],
    ids=["heat", "wave", "wave-a0", "exponential", "exponential-negative-c", "exponential-a0",
         "negexponential", "cosine"],
)
def test_exp_poly_methods_match_closed_forms(kernel, forms):
    # a, A, the transform of a and the total mass all derive from the terms
    # of A; each must be the family's textbook closed form, evaluated to 30
    # digits, and the transform must be refused left of its abscissa.
    a, A, lap, mass, abscissa = forms

    def close(got, ref):
        return got == ref or abs(got - complex(ref)) <= 1e-13 * max(1.0, abs(complex(ref)))

    t = np.array([0.0, 1e-3, 0.3, 1.0, 4.0, 50.0])
    p = np.array([0.7 + 0.9j, 1e-8 + 0.5j, 3.0, 1e-8 + 30.0j])
    with mpmath.workdps(30):
        for ti, got_a, got_A in zip(t, kernel.a(t), kernel.primitive(t)):
            assert close(got_a, a(mpmath.mpf(ti))) and close(got_A, A(mpmath.mpf(ti))), ti
        for pi, got in zip(p, kernel.laplace(p)):
            assert close(got, lap(mpmath.mpc(pi))), pi
    assert close(kernel.total_mass(), mass)
    if abscissa is None:
        assert np.all(kernel.laplace(np.array([-5.0, -5.0 + 1j])) == 0.0)
    else:
        for pi in (abscissa, abscissa + 1j, abscissa - 0.5):
            with pytest.raises(DomainError):
                kernel.laplace(pi)


def _logmodified_laplace_mp(m, s):
    # 30-digit transform of a along the ray t = r e^{-i arg s}, on which
    # e^{-s t} = e^{-|s| r} is real.
    with mpmath.workdps(30):
        s = mpmath.mpc(s)
        turn = mpmath.expj(-mpmath.arg(s))

        def f(r):
            t = r * turn
            lg = mpmath.log(mpmath.e + t)
            a = lg**m + t * m * lg ** (m - 1) / (mpmath.e + t)
            return a * mpmath.exp(-abs(s) * r) * turn

        return complex(mpmath.quad(f, [0, 1 / abs(s), 10 / abs(s), 100 / abs(s), mpmath.inf]))


@pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("omega", [1e-4, 0.02, 1.0, 30.0])
def test_logmodified_laplace_matches_mpmath(m, omega):
    s = PD_BOUNDARY_SHIFT + 1j * omega
    ref = _logmodified_laplace_mp(m, s)
    assert abs(laplace_a(LogModified(m=m), s) - ref) <= 1e-12 * abs(ref)


def test_logmodified_not_positive_definite():
    # Re a~(i w) ~ -pi / (2 w) for the log part, so the minimum sits at
    # the lowest frequency of the grid; no quadrature warning may appear.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_positive_definite(LogModified())
    ref = _logmodified_laplace_mp(1.0, PD_BOUNDARY_SHIFT + 1e-4j).real
    assert rep.omega_at_min == 1e-4 and not rep.passed
    assert abs(rep.min_value - ref) <= 1e-9 * abs(ref)
    assert abs(ref + 1.5695e4) < 1.0
    with pytest.raises(HypothesisViolation, match="logmodified"):
        require_positive_definite(LogModified())


@pytest.mark.parametrize("m", [1.0, 2.5])
def test_logmodified_moments_match_mpmath(m):
    kernel = LogModified(m=m)
    t = np.array([1e3, 1e5])
    with mpmath.workdps(30):
        for p, got in zip((1, 2), quad_moments(kernel, 0.0, t)):
            for ti, gi in zip(t, got):
                ref = mpmath.quad(lambda s: s**p * mpmath.log(mpmath.e + s) ** m, [0, 1, ti])
                assert abs(gi - float(ref)) <= 1e-13 * float(ref)


def test_powerlaw_sign_constraints():
    with pytest.raises(DomainError):
        PowerLaw(beta=0.5, c=-1.0)
    with pytest.raises(DomainError):
        PowerLaw(beta=-0.5, c=1.0)
    with pytest.raises(DomainError):
        PowerLaw(beta=1.5, c=1.0)
    with pytest.raises(DomainError):
        PowerLaw(beta=0.5, c=0.0)


def test_fractional_normalization():
    # A(t) = t^beta / Gamma(1+beta) for both signs of beta.
    from memdiff.specfun import gamma

    for beta in (-0.75, -0.5, 0.25, 0.5, 0.75):
        k = fractional(beta)
        for t in (0.5, 1.0, 3.0):
            assert abs(primitive_A(k, t) - t**beta / gamma(1.0 + beta)) < 1e-13


def test_sum_kernel_adds_everything():
    k = Exponential(mu=1.0, c=1.0, a0=0.5) + Wave(c=2.0)
    t = np.array([0.5, 1.0, 2.0])
    assert np.allclose(k.primitive(t),
                       Exponential(mu=1.0, c=1.0, a0=0.5).primitive(t) + Wave(c=2.0).primitive(t))
    assert k.a0 == 0.5
    assert k.total_mass() == math.inf
    # The weights of a sum are its parts' weights added, not differences of
    # summed antiderivatives (5.6e-11 of max|w| off).
    grid = TimeGrid(10.0, 500)
    parts = [_convolution_weights(p, grid) for p in (PowerLaw(beta=0.5), Exponential(mu=1.0, c=1.0))]
    for w, w1, w2 in zip(_convolution_weights(PowerLaw(beta=0.5) + Exponential(mu=1.0, c=1.0), grid),
                         *parts):
        assert np.max(np.abs(w - (w1 + w2))) <= 1e-15 * np.max(np.abs(w))


COMBINATIONS = [
    Heat(0.5) + (PowerLaw(beta=0.3) + Exponential(mu=1.0, c=1.0)),
    scale(LogModified(m=1.0) + Heat(1.0), 2.5),
    dilate(PowerLaw(beta=0.5) + Exponential(mu=1.0, c=1.0), 3.0),
    dilate(dilate(LogModified(m=2.5), 3.0), 1.3),
    dilate(scale(dilate(Exponential(mu=2.0, c=1.0, a0=0.2) + scale(PowerLaw(beta=0.5), 3.0), 2.0),
                 5.0) + LogModified(m=1.0), 7.0),
    scale(Cosine(), 2.0) + dilate(Wave(c=1.5, a0=0.25), 4.0),
]


def _close(x, ref):
    x, ref = np.asarray(x), np.asarray(ref)
    return np.max(np.abs(x - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("kernel", COMBINATIONS, ids=lambda k: k.description)
def test_combination_members_are_sums_over_its_terms(kernel):
    # A sum, scaling or dilation states only its (factor, dilation, leaf)
    # terms; a0, A, a, the cell rule, the transform and the total mass are
    # the sums over them of f a0, f A(T t), f T a(T t), f hat(T t0, T h) / T,
    # f a~(s / T) and f mass.
    terms = kernel._terms()
    assert not any(isinstance(leaf, kernels._Combination) for _, _, leaf in terms)
    t = np.array([0.1, 0.7, 2.0, 9.0])
    t0, h = 0.05 * np.arange(40), 0.05
    s = np.array([1e-8 + 0.5j, 0.3 - 2.0j, 4.0 + 0.0j])
    assert math.isclose(kernel.a0, sum(f * leaf.a0 for f, _, leaf in terms), rel_tol=1e-15)
    assert _close(kernel.primitive(t), sum(f * leaf.primitive(T * t) for f, T, leaf in terms))
    assert _close(kernel.a(t), sum(f * T * leaf.a(T * t) for f, T, leaf in terms))
    w = [(f, T, leaf._hat(T * t0, T * h)) for f, T, leaf in terms]
    wL, wR = kernel._hat(t0, h)
    assert _close(wL, sum(f * wl / T for f, T, (wl, _) in w))
    assert _close(wR, sum(f * wr / T for f, T, (_, wr) in w))
    assert _close(kernel.laplace(s), sum(f * leaf.laplace(s / T) for f, T, leaf in terms))
    masses = [leaf.total_mass() for _, _, leaf in terms]
    if None in masses:
        assert kernel.total_mass() is None
    else:
        assert math.isclose(kernel.total_mass(),
                            sum(f * m for (f, _, _), m in zip(terms, masses)), rel_tol=1e-15)


@pytest.mark.parametrize(
    "left, right",
    [(PowerLaw(beta=0.5), Exponential(mu=1.0, c=1.0)), (LogModified(m=1.0), Heat(0.4)),
     (Exponential(mu=2.0, c=1.0, a0=0.3), Wave(c=1.5, a0=0.25))],
    ids=lambda k: k.description,
)
def test_a_sum_and_a_dilation_of_leaves_keep_their_parts_bits(left, right):
    t, t0, h = np.array([0.1, 0.7, 2.0]), 0.01 * np.arange(30), 0.01
    s = np.array([1e-8 + 0.5j, 0.3 - 2.0j])
    k = left + right
    assert k.a0 == left.a0 + right.a0
    assert np.array_equal(k.primitive(t), left.primitive(t) + right.primitive(t))
    assert np.array_equal(k.a(t), left.a(t) + right.a(t))
    assert np.array_equal(k._hat(t0, h), np.add(left._hat(t0, h), right._hat(t0, h)))
    assert np.array_equal(k.laplace(s), left.laplace(s) + right.laplace(s))
    assert k.total_mass() == left.total_mass() + right.total_mass()
    for leaf in (left, right):
        T = 3.7
        kd = dilate(leaf, T)
        assert kd.a0 == leaf.a0
        assert np.array_equal(kd.primitive(t), leaf.primitive(T * t))
        assert np.array_equal(kd.a(t), T * leaf.a(T * t))
        assert np.array_equal(kd._hat(t0, h), np.divide(leaf._hat(T * t0, T * h), T))
        assert np.array_equal(kd.laplace(s), leaf.laplace(s / T))
        assert kd.total_mass() == leaf.total_mass()


def test_scale_stays_in_family():
    # A scaling is a ScaledKernel wrapper; its A, a0 and total mass are
    # those of the family member with the scaled constants.
    t = np.array([0.0, 0.3, 1.0, 7.0])
    for kernel, factor, member in (
            (Exponential(mu=2.0, c=3.0, a0=1.0), 2.0, Exponential(mu=2.0, c=6.0, a0=2.0)),
            (Heat(1.0), 3.0, Heat(3.0)),
            (Wave(c=1.5, a0=0.25), 2.0, Wave(c=3.0, a0=0.5)),
            (PowerLaw(beta=0.5, c=2.0, a0=0.5), 2.0, PowerLaw(beta=0.5, c=4.0, a0=1.0))):
        k = scale(kernel, factor)
        assert np.allclose(k.primitive(t), member.primitive(t), rtol=1e-15, atol=0.0)
        assert k.a0 == member.a0
        assert k.total_mass() == member.total_mass()
    with pytest.raises(DomainError, match="scale factor must be positive and finite"):
        scale(Heat(1.0), 0.0)


@pytest.mark.parametrize(
    "kernel",
    [Wave(c=1.5, a0=0.25), PowerLaw(beta=0.5, c=2.0), fractional(-0.5),
     Exponential(mu=1.0, c=1.0), Cosine(), LogModified(m=1.0)],
    ids=lambda k: k.description,
)
def test_dilation_matches_base_kernel(kernel):
    # A_T(t) = A(T t) and the moments transform by substitution.
    T = 7.5
    kd = dilate(kernel, T)
    t = np.array([0.1, 0.7, 1.3])
    assert np.allclose(kd.primitive(t), kernel.primitive(T * t), rtol=1e-12)
    # A_T has the limit of A as t -> inf; a dilated LogModified gave None.
    assert kd.total_mass() == kernel.total_mass()
    (m0, m1), (r0, r1) = quad_moments(kd, 0.0, t), quad_moments(kernel, 0.0, T * t)
    assert np.allclose(m0, r0 / T, rtol=1e-10)
    assert np.allclose(m1, r1 / T**2, rtol=1e-10)


def test_dilation_composes():
    k = dilate(dilate(LogModified(m=1.0), 2.0), 3.0)
    ref = dilate(LogModified(m=1.0), 6.0)
    t = np.array([0.2, 1.0])
    assert np.allclose(k.primitive(t), ref.primitive(t))


@pytest.mark.parametrize(
    "make",
    [lambda: dilate(Exponential(), math.nan), lambda: dilate(LogModified(), math.inf),
     lambda: kernels.TimeDilated(LogModified(), math.nan), lambda: scale(Heat(), math.inf),
     lambda: scale(LogModified(), math.nan), lambda: kernels.ScaledKernel(LogModified(), math.inf),
     lambda: Heat(a0=math.nan), lambda: Wave(c=math.nan), lambda: Exponential(mu=math.nan),
     lambda: Exponential(mu=math.inf), lambda: PowerLaw(beta=0.5, c=math.nan),
     lambda: PowerLaw(beta=0.5, a0=math.nan), lambda: LogModified(m=math.inf)],
    ids=["dilate-nan", "dilate-inf", "TimeDilated-nan", "scale-inf", "scale-nan",
         "ScaledKernel-inf", "heat-a0", "wave-c", "exponential-mu-nan", "exponential-mu-inf",
         "powerlaw-c", "powerlaw-a0", "logmodified-m"],
)
def test_non_finite_factors_and_parameters_are_refused(make):
    # Each was accepted, giving kernels such as exponential(mu=nan, c=nan,
    # a0=0.0) or dilated(T=inf, ...), whose solves are not finite.
    with pytest.raises(DomainError, match="finite"):
        make()
    # A negative a0 stays a valid kernel; only the beta < 0 path refuses it.
    assert Exponential(mu=1.0, c=1.0, a0=-0.5).a0 == PowerLaw(beta=0.5, a0=-0.5).a0 == -0.5


def test_dilated_density_is_derivative_of_dilated_primitive():
    # a_T(t) = T a(T t); LogModified dilates to a TimeDilated wrapper.
    kernel = LogModified(m=1.0)
    kd = dilate(kernel, 2.0)
    t = np.array([0.3, 1.0, 4.0])
    assert np.allclose(kd.a(t), 2.0 * kernel.a(2.0 * t), rtol=1e-15)
    assert np.allclose((kd + Heat(1.0)).a(t), kd.a(t), rtol=1e-15)
    assert np.allclose(scale(kd, 3.0).a(t), 3.0 * kd.a(t), rtol=1e-15)
    h = 1e-5
    fd = (kd.primitive(t + h) - kd.primitive(t - h)) / (2.0 * h)
    assert np.allclose(kd.a(t), fd, rtol=1e-8)


def test_kernel_without_density_is_refused_by_name():
    sampled = SampledKernel(0.1, [1.0, 2.0, 3.0])
    for kernel in (sampled, dilate(sampled, 2.0), scale(sampled, 2.0), sampled + Heat(1.0)):
        with pytest.raises(HypothesisViolation, match="sampled kernel has no density"):
            kernel.a(1.0)


def test_sampled_kernel_reproduces_linear_primitive():
    # For an affine A the piecewise-linear interpolant is exact, so all
    # moments must match the Wave kernel's closed forms.
    wave = Wave(c=2.0, a0=0.5)
    dt = 0.1
    nodes = dt * np.arange(51)
    sk = SampledKernel(dt, wave.primitive(nodes))
    t = np.array([0.05, 0.1, 1.234, 4.999])
    assert np.allclose(sk.primitive(t), wave.primitive(t), rtol=1e-12)
    (m0, m1), (r0, r1) = quad_moments(sk, 0.0, t), quad_moments(wave, 0.0, t)
    assert np.allclose(m0, r0, rtol=1e-12)
    assert np.allclose(m1, r1, rtol=1e-10)


def test_sampled_kernel_holds_its_last_sample_in_the_cell_rule():
    # primitive held A at 0.2 past t = 0.2 while the cell rule extended the
    # last sample cell's line, A(s) = s: the cell [1.0, 1.1] had the weights
    # of int s, 0.105 in all, where the held A gives (0.01, 0.01).
    sampled = SampledKernel(0.1, [0.0, 0.1, 0.2])
    assert np.allclose(sampled._hat(1.0, 0.1), (0.01, 0.01), rtol=1e-12, atol=0.0)
    assert sampled.primitive(5.0) == 0.2
    held = SampledKernel(0.1, np.minimum(0.1 * np.arange(51), 0.2))
    grid = TimeGrid(5.0, 50)
    z = relaxation_values(sampled, [0.5, 1.0, 3.0], grid)
    assert np.max(np.abs(z - relaxation_values(held, [0.5, 1.0, 3.0], grid))) <= 1e-12


@pytest.mark.parametrize("dt, values", [(0.0, [1.0, 2.0]), (-0.1, [1.0, 2.0, 3.0]), (math.nan, [1.0, 2.0]),
                                       (math.inf, [1.0, 2.0]), (0.1, [1.0, math.nan]),
                                       (0.1, [1.0, math.inf]), (0.1, [1.0])])
def test_sampled_kernel_refuses_bad_spacing_and_samples(dt, values):
    # A zero spacing gave NaN moments, a negative one wrong numbers.
    with pytest.raises(DomainError):
        SampledKernel(dt, values)


def test_sampled_kernel_convergence_to_smooth_moments():
    kernel = Exponential(mu=1.0, c=1.0)
    errs = []
    for n in (50, 100, 200):
        dt = 2.0 / n
        sk = SampledKernel(dt, kernel.primitive(dt * np.arange(n + 1)))
        m0, _ = quad_moments(sk, 0.0, 2.0)
        r0, _ = quad_moments(kernel, 0.0, 2.0)
        errs.append(abs(m0 - r0))
    order = math.log2(errs[0] / errs[2]) / 2.0
    assert order > 1.8


@pytest.mark.parametrize(
    "kernel",
    [Heat(1.0), Wave(c=1.0), PowerLaw(beta=0.5, c=1.0), fractional(-0.5),
     Exponential(mu=1.0, c=1.0), NegExponential(), Cosine(),
     dilate(NegExponential(), 2.0), dilate(Cosine(), 2.0)],
    ids=lambda k: k.description,
)
def test_catalog_kernels_positive_definite(kernel):
    assert check_positive_definite(kernel).passed


@pytest.mark.parametrize(
    "kernel",
    CATALOG + [PowerLaw(beta=0.5) + LogModified(), scale(LogModified(), 2.0),
               dilate(PowerLaw(beta=0.5), 3.0), SampledKernel(0.1, [1.0, 2.0, 3.0])],
    ids=lambda k: k.description,
)
def test_antiderivatives_vanish_at_the_origin(kernel):
    # The cell rule is defined for h > 0 only (the empty cell's weights are
    # 0/0 for some kernels); on the cell [0, h] at the origin, where A may
    # be singular, the moments are finite and shrink to 0 with h.
    m0, m1 = quad_moments(kernel, 0.0, np.array([1.0, 1e-3, 1e-6, 1e-9]))
    assert np.all(np.isfinite(m0)) and np.all(np.isfinite(m1))
    assert np.all(np.diff(np.abs(m0)) < 0) and np.all(np.diff(np.abs(m1)) < 0)


@pytest.mark.parametrize("kernel", CATALOG, ids=lambda k: k.description)
def test_dilation_keeps_the_positive_definiteness_verdict(kernel):
    # a_T(t) = T a(T t) has the transform a~(s / T).
    assert (check_positive_definite(dilate(kernel, 2.0)).passed
            == check_positive_definite(kernel).passed)


@pytest.mark.parametrize(
    "omega_max, n_samples",
    [(float("nan"), 400), (math.inf, 400), (0.0, 400), (-1.0, 400), (100.0, 2.5), (100.0, 1),
     (100.0, None)],
)
def test_positive_definite_check_refuses_a_grid_it_cannot_use(omega_max, n_samples):
    with pytest.raises(DomainError):
        check_positive_definite(Exponential(mu=1.0, c=1.0), omega_max, n_samples)


def test_positive_definite_frequencies_are_built_once_and_read_only():
    omegas = kernels._pd_frequencies(50.0, 300)
    assert omegas is kernels._pd_frequencies(50.0, 300)
    assert not omegas.flags.writeable
    assert np.array_equal(omegas, np.concatenate([[0.0], np.logspace(-4, math.log10(50.0), 299)]))
    # numpy integers are integers; the report reads the shared grid.
    rep = check_positive_definite(Exponential(mu=1.0, c=-2.0, a0=1.0), 50.0, np.int64(300))
    assert rep.omega_at_min in omegas and not rep.passed


def test_phi_rule_matches_mpmath_on_scalars_and_arrays():
    # phi_R(z) = (e^z - 1 - z) / z^2 and phi_L(z) = (z e^z - e^z + 1) / z^2,
    # by the series for |z| < 1 and the closed form with expm1 beyond.  A
    # real scalar gives floats, a complex one 0-d arrays; both have the bits
    # of an array that holds them.
    def exact(z):
        with mpmath.workdps(40):
            z = mpmath.mpmathify(z)
            e = mpmath.exp(z)
            return complex((e - 1 - z) / z**2), complex((z * e - e + 1) / z**2)

    reals = [1e-9, -0.3, 0.999, -1.0, 1.5, -40.0]
    for zs in (reals, [0.5j, -0.2 + 0.9j, 2.0 - 1.0j, 3j]):
        arr = np.array(zs).reshape(2, -1)
        pR, pL = kernels._phi(arr)
        assert pR.shape == pL.shape == arr.shape and pR.dtype == arr.dtype
        for z, aR, aL in zip(zs, pR.ravel(), pL.ravel()):
            got = kernels._phi(z)
            if zs is reals:
                assert all(type(v) is float for v in got)
            else:
                assert all(isinstance(v, np.ndarray) and v.shape == () for v in got)
            assert got == kernels._phi(np.asarray(z))
            for g, a, ref in zip(got, (aR, aL), exact(z)):
                assert abs(g - ref) <= 4e-16 * abs(ref) and g == a
    assert [a.shape for a in kernels._phi(np.empty(0))] == [(0,), (0,)]


def test_kernel_without_transform_is_refused_by_name():
    sampled = SampledKernel(0.1, 1.0 + 0.1 * np.arange(11))
    for kernel in (sampled, dilate(sampled, 2.0), scale(sampled, 2.0)):
        with pytest.raises(HypothesisViolation, match="sampled kernel has no Laplace"):
            check_positive_definite(kernel)
    with pytest.raises(HypothesisViolation, match="sampled kernel"):
        evolve(sampled, Gaussian(), ModeGrid(n=1, modes_per_axis=8, xi_max=4.0), [0.5],
               TimeGrid(1.0, 20))


def test_negative_exponential_mass_not_positive_definite():
    # a(t) = -2 e^{-t} with a0 = 1: a0 + Re a~(i w) < 0 near w = 0.
    rep = check_positive_definite(Exponential(mu=1.0, c=-2.0, a0=1.0))
    assert not rep.passed
    assert rep.min_value < -0.5


def test_rv_index_estimates():
    for kernel, expected in (
        (Heat(2.0), 0.0),
        (Wave(c=1.0), 1.0),
        (PowerLaw(beta=0.5, c=1.0), 0.5),
        (fractional(-0.5), -0.5),
        (Exponential(mu=1.0, c=1.0), 0.0),
    ):
        est = rv_index_estimate(kernel, RV_GRID)
        assert est.converged
        assert not est.tail_decaying
        assert abs(est.beta - expected) < 0.02


@pytest.mark.parametrize(
    "kernel",
    [Exponential(mu=1.0, c=1.0), Heat(2.0), Wave(c=1.0), Cosine(), NegExponential(),
     PowerLaw(beta=0.5, c=1.0), fractional(-0.5), LogModified(m=1.0),
     Exponential(mu=1.0, c=1.0) + PowerLaw(beta=0.3, c=1.0),
     dilate(Cosine(), 3.0), scale(Cosine(), 2.0)],
    ids=lambda k: k.description,
)
def test_rv_index_estimate_reads_only_the_tail(kernel):
    # A is evaluated once, at the tail t and 2t alone.  Those values are the
    # bits of A over the whole grid, so the estimate, which reads no other,
    # keeps the bits it had when A was evaluated at all 72 points of t and 2t.
    calls = []

    class Recording:
        def primitive(self, t):
            calls.append(np.array(t))
            return kernel.primitive(t)

    est = rv_index_estimate(Recording(), RV_GRID)
    tail = RV_GRID[36:]
    assert len(calls) == 1 and np.array_equal(calls[0], np.concatenate([tail, 2.0 * tail]))
    a1, a2 = kernel.primitive(RV_GRID)[36:], kernel.primitive(2.0 * RV_GRID)[36:]
    assert np.array_equal(kernel.primitive(calls[0]), np.concatenate([a1, a2]))
    valid = (a1 > 0.0) & (a2 > 0.0)
    ratios = np.full(36, np.nan)
    ratios[valid] = np.log2(a2[valid] / a1[valid])
    assert np.array_equal(est.ratios, ratios, equal_nan=True)
    assert np.array_equal(est.beta, ratios[-1], equal_nan=True)
    with pytest.raises(DomainError):
        rv_index_estimate(Recording(), RV_GRID[:7])


def test_rv_log_modified_converges_to_one():
    # The logarithmic factor is slowly varying, so the doubling-ratio
    # estimate carries an O(1/log t) bias that shrinks as the grid grows.
    est = rv_index_estimate(LogModified(m=1.0), RV_GRID)
    assert est.converged
    assert abs(est.beta - 1.0) < 0.15
    longer = rv_index_estimate(LogModified(m=1.0), np.geomspace(1e-2, 1e12, 120))
    assert abs(longer.beta - 1.0) < abs(est.beta - 1.0)


def test_rv_cosine_not_converged():
    est = rv_index_estimate(Cosine(), RV_GRID)
    assert not est.converged
    assert not est.tail_decaying


def test_rv_negexponential_tail_decaying():
    est = rv_index_estimate(NegExponential(), RV_GRID)
    assert est.tail_decaying
    assert not est.converged


def test_rv_rejects_bad_grid():
    with pytest.raises(DomainError):
        rv_index_estimate(Heat(1.0), np.linspace(1.0, 2.0, 10))


def test_rv_not_eventually_positive():
    # A(t) = -(1 - e^{-t}) < 0 for all t > 0.
    class Negative(NegExponential):
        def primitive(self, t):
            return -(1.0 - np.exp(-np.asarray(t, dtype=float)))

    with pytest.raises(NotEventuallyPositiveError):
        rv_index_estimate(Negative(), RV_GRID)


def test_primitive_rejects_negative_time():
    with pytest.raises(DomainError):
        primitive_A(Heat(1.0), -0.5)


@pytest.mark.parametrize("value", [math.nan, [1.0, math.nan], complex(math.nan, 1.0)],
                         ids=["nan", "array-with-nan", "complex-nan"])
def test_primitive_and_transform_refuse_nan(value):
    # primitive_A(Exponential(), nan) returned nan (t < 0 is false for NaN),
    # and laplace_a(Exponential(), nan) nan+nanj after a RuntimeWarning.
    if not isinstance(value, complex):
        with pytest.raises(DomainError, match="primitive_A needs t >= 0"):
            primitive_A(Exponential(), value)
    with pytest.raises(DomainError, match="laplace_a needs an s without NaN"):
        laplace_a(Exponential(), value)


@pytest.mark.parametrize("value", [math.nan, [1.0, math.nan], complex(1.0, math.nan)],
                         ids=["nan", "array-with-nan", "complex-nan"])
@pytest.mark.parametrize(
    "kernel",
    CATALOG + [PowerLaw(beta=0.5) + Heat(1.0), dilate(Exponential(), 2.0), scale(LogModified(), 2.0)],
    ids=lambda k: k.description,
)
def test_every_transform_refuses_nan(kernel, value):
    # Exponential, PowerLaw and LogModified returned nan+nanj (a NaN fails
    # no Re s <= abscissa check), and Heat, which has no half plane, 0j.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="needs an s without NaN"):
            kernel.laplace(value)


def test_import_leaves_scipy_integrate_out():
    # scipy.integrate (which loads scipy.optimize) is used by no code in
    # the package: not on import, and not by LogModified's transform and
    # moments, which are the only ones without a closed form.
    src = str(Path(memdiff.__file__).resolve().parents[1])
    code = ("import sys, memdiff; from memdiff.kernels import LogModified, "
            "check_positive_definite; check_positive_definite(LogModified()); "
            "LogModified().moment_cells(0.01, 100); print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "False"
