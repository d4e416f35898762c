"""Product-integration solver for the scalar relaxation equation."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy.linalg import expm

from memdiff.errors import DomainError, PrecisionLossError, StepSizeError
from memdiff.kernels import (
    Cosine,
    Exponential,
    Heat,
    LogModified,
    NegExponential,
    PowerLaw,
    SampledKernel,
    ScaledKernel,
    SumKernel,
    TimeDilated,
    Wave,
    dilate,
    fractional,
    scale,
)
from memdiff import volterra
from memdiff.specfun import mittag_leffler
from memdiff.volterra import (
    _ROW_BLOCK,
    BOUND_TOL,
    TimeGrid,
    _abs_max,
    _convolution_weights,
    _exp_poly_terms,
    _generator,
    _path,
    _solve_nodes,
    decay_envelope_check,
    kernel_convergence_test,
    relaxation_values,
    solve_relaxation,
)

#: Half the empirically determined envelope rate for the Exponential
#: kernel (mu = 1, c = 1, a0 = 0): the true sup over lam of the decay
#: exponent is ~0.529 (dense lam sweep, dt = 1e-3, t_end = 20), so the
#: envelope must hold with margin at half that rate.
EXPONENTIAL_ENVELOPE_RATE = 0.2646


def _march(kernel, lambdas, grid):
    """Reference solver: the product-integration march, one step at a time.

    z_i (1 + lam wR[0]) = 1 - lam (sum_{0<m<i} c_m z_{i-m} + wL[i-1]), with
    c[m] = wR[m] + wL[m-1]; O(n^2) per lambda.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n = grid.n_steps
    wL, wR = _convolution_weights(kernel, grid)
    diag = 1.0 + lambdas * wR[0]
    c = wR[1:] + wL[:-1]  # c[m-1] multiplies z_{i-m}
    z = np.empty((len(lambdas), n + 1))
    z[:, 0] = 1.0
    for i in range(1, n + 1):
        hist = z[:, i - 1 : 0 : -1] @ c[: i - 1] if i > 1 else 0.0
        z[:, i] = (1.0 - lambdas * (hist + wL[i - 1])) / diag
    return z


def _singular_march(kernel, lambdas, grid):
    """Reference for the beta < 0 path: weights built node by node per step.

    Gauss-Legendre on the regular cells and Gauss-Jacobi with weight
    (1-u)^beta on the diagonal cell of a uniform mesh in y = t^(1+beta),
    one row-wise dot per lambda, then np.interp in y back to the grid.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    gamma = 1.0 + kernel.beta
    beta = kernel.beta
    cA = kernel.c / kernel.beta
    a0 = kernel.a0
    N = grid.n_steps
    dy = grid.t_end**gamma / N
    y = dy * np.arange(N + 1)
    t = y ** (1.0 / gamma)
    xg, wg = np.polynomial.legendre.leggauss(10)
    ug = (xg + 1.0) / 2.0
    wgh = wg / 2.0
    xj, wj = sp.roots_jacobi(10, beta, 0.0)
    uj = (xj + 1.0) / 2.0
    wjh = wj / 2.0 ** (beta + 1.0)
    inv_g = 1.0 / gamma
    z = np.empty((len(lambdas), N + 1))
    z[:, 0] = 1.0
    for i in range(1, N + 1):
        ti = t[i]
        w_lo = np.zeros(i - 1)  # coefficient on z_r
        w_hi = np.zeros(i - 1)  # coefficient on z_{r+1}
        for q in range(10):
            yq = y[: i - 1] + ug[q] * dy
            Aq = a0 + cA * (ti - yq**inv_g) ** beta
            fac = wgh[q] * dy * Aq * inv_g * yq ** (inv_g - 1.0)
            w_hi += fac * ug[q]
            w_lo += fac * (1.0 - ug[q])
        yq = y[i - 1] + uj * dy
        ratio = (ti - yq**inv_g) / (1.0 - uj)
        g = wjh * cA * ratio**beta * inv_g * yq ** (inv_g - 1.0) * dy
        yg = y[i - 1] + ug * dy
        ga0 = wgh * a0 * inv_g * yg ** (inv_g - 1.0) * dy
        w_diag_new = np.sum(g * uj) + np.sum(ga0 * ug)
        w_diag_old = np.sum(g * (1.0 - uj)) + np.sum(ga0 * (1.0 - ug))
        hist = np.array(
            [np.dot(row[: i - 1], w_lo) + np.dot(row[1:i], w_hi) for row in z]
        )
        hist += w_diag_old * z[:, i - 1]
        z[:, i] = (1.0 - lambdas * hist) / (1.0 + lambdas * w_diag_new)
    return np.array([np.interp(grid.nodes**gamma, y, row) for row in z])


def _exact_power_law(kernel, lambdas, t):
    """z(lam, t) for the power law A = a0 + (c/beta) t^beta, rows lambdas.

    With a0 = 0 it is E_(1+beta)(-lam (c/beta) Gamma(1+beta) t^(1+beta)).
    Otherwise mpmath's Talbot inversion, at 30 digits, of the transform
    1/(s + p + q Gamma(1+beta) s^(-beta)), p = lam a0 and q = lam c/beta.
    """
    beta, cA, a0 = kernel.beta, kernel.c / kernel.beta, kernel.a0
    lambdas, t = np.asarray(lambdas, dtype=float), np.asarray(t, dtype=float)
    if a0 == 0.0:
        x = (lambdas * cA * math.gamma(1.0 + beta))[:, None] * t ** (1.0 + beta)
        return mittag_leffler(1.0 + beta, -x)
    with mpmath.workdps(30):
        g = mpmath.gamma(1 + mpmath.mpf(beta))
        return np.array([[float(mpmath.invertlaplace(
            lambda s: 1 / (s + lam * a0 + lam * cA * g * s ** -beta), ti, method="talbot"))
            for ti in t] for lam in lambdas])


def _terms_of(kernel):
    """Terms (g, s, m) of A = sum g t^m e^(s t) for an exponential
    polynomial: the families' own exp_terms, through sums, scalings and
    dilations (t -> T t maps s to T s and g t to g T t)."""
    if isinstance(kernel, SumKernel):
        return _terms_of(kernel.left) + _terms_of(kernel.right)
    if isinstance(kernel, ScaledKernel):
        return [(kernel.factor * g, s, m) for g, s, m in _terms_of(kernel.base)]
    if isinstance(kernel, TimeDilated):
        return [(g * kernel.T**m, s * kernel.T, m) for g, s, m in _terms_of(kernel.base)]
    return kernel.exp_terms()


def _expm_relaxation(kernel, lambdas, t):
    """z(lam, t) = [expm(t M_lam)]_00 by scipy, one row per lam, for an
    exponential polynomial.  The generator has one complex state w per
    term with s != 0 or m = 1, w' = z + s w, which enters z' as -lam g s w
    (-lam g w for a t-term); z' also takes -lam A(0) z."""
    terms = _terms_of(kernel)
    memory = [(g, s, m) for g, s, m in terms if m or s != 0]
    G = np.zeros((len(memory) + 1,) * 2, dtype=complex)
    r = np.zeros(len(memory) + 1, dtype=complex)
    r[0] = -sum(g for g, s, m in terms if not m)
    for j, (g, s, m) in enumerate(memory, 1):
        G[j, 0], G[j, j], r[j] = 1.0, s, -(g if m else g * s)
    rows = []
    for lam in lambdas:
        M = G.copy()
        M[0] = lam * r
        rows.append(expm(np.asarray(t)[:, None, None] * M)[:, 0, 0].real)
    return np.array(rows)


def test_time_grid_basics():
    g = TimeGrid(2.0, 4)
    assert g.dt == 0.5
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.index_of(1.5) == 3
    with pytest.raises(DomainError):
        g.index_of(0.7)
    # round raised a bare ValueError for NaN and OverflowError for inf.
    for t in (math.nan, math.inf, -math.inf, 1e308):
        with pytest.raises(DomainError, match="not a node"):
            TimeGrid(2.0, 10**9).index_of(t)
    with pytest.raises(DomainError):
        TimeGrid(-1.0, 4)
    # A NaN t_end reached the solver, and 10.5 steps put the last node
    # past t_end.
    for t_end, n_steps in ((math.nan, 10), (math.inf, 10), (1.0, 10.5), (1.0, 0)):
        with pytest.raises(DomainError):
            TimeGrid(t_end, n_steps)
    g = TimeGrid(1.0, np.int64(10))
    assert g.n_steps == 10 and type(g.n_steps) is int


def test_heat_kernel_is_exponential_decay():
    # A = a0 constant gives z(lam, t) = exp(-a0 lam t).
    grid = TimeGrid(2.0, 2000)
    for lam in (0.5, 1.0, 4.0):
        rel = solve_relaxation(Heat(a0=1.5), lam, grid)
        ref = np.exp(-1.5 * lam * grid.nodes)
        assert np.max(np.abs(rel.values - ref)) < 1e-5


def test_wave_kernel_is_cosine():
    # A = c t gives z(lam, t) = cos(sqrt(c lam) t).
    grid = TimeGrid(5.0, 5000)
    for lam in (0.5, 2.0):
        rel = solve_relaxation(Wave(c=1.0), lam, grid)
        ref = np.cos(np.sqrt(lam) * grid.nodes)
        assert np.max(np.abs(rel.values - ref)) < 1e-5


def test_exponential_kernel_closed_form():
    # For a = e^{-t}, a0 = 0, lam = 1 the transform inverts explicitly:
    # z(1, t) = e^{-t/2} (cos(w t) + sin(w t)/(2 w)), w = sqrt(3)/2.
    grid = TimeGrid(5.0, 5000)
    rel = solve_relaxation(Exponential(mu=1.0, c=1.0), 1.0, grid)
    w = math.sqrt(3.0) / 2.0
    t = grid.nodes
    ref = np.exp(-t / 2.0) * (np.cos(w * t) + np.sin(w * t) / (2.0 * w))
    assert np.max(np.abs(rel.values - ref)) < 1e-6


@pytest.mark.parametrize("beta", [-0.75, -0.5, 0.25, 0.5, 0.75])
def test_fractional_relaxation_is_mittag_leffler(beta):
    # z(lam, t) = E_{1+beta}(-lam t^{1+beta}) for A = t^beta/Gamma(1+beta).
    alpha = 1.0 + beta
    grid = TimeGrid(5.0, 5000)
    check = grid.nodes[::250][1:]
    for lam in (0.5, 2.0):
        rel = solve_relaxation(fractional(beta), lam, grid)
        ref = mittag_leffler(alpha, -lam * check**alpha)
        err = np.max(np.abs(rel(check) - np.asarray(ref)))
        assert err < 1e-5


def test_singular_path_second_order():
    # The oracle of the beta < 0 path, the y-substitution march, is second
    # order: its errors must drop by ~4x under step halving.
    beta = -0.5
    lam = 1.0
    errs = []
    for n in (250, 500, 1000):
        grid = TimeGrid(1.0, n)
        z = _singular_march(fractional(beta), [lam], grid)[0]
        ref = mittag_leffler(1.0 + beta, -lam * grid.nodes[1:] ** (1.0 + beta))
        errs.append(np.max(np.abs(z[1:] - np.asarray(ref))))
    order = math.log2(errs[0] / errs[2]) / 2.0
    assert order > 1.8


def test_smooth_path_second_order():
    # Self-convergence of the march (FFT division) under step halving
    # against a fine reference.
    lam = 2.0
    kernel = PowerLaw(beta=0.5, c=0.01) + Exponential(mu=1.0, c=1.0)
    errs = []
    fine = solve_relaxation(kernel, lam, TimeGrid(1.0, 4096)).values
    for n in (256, 512, 1024):
        vals = solve_relaxation(kernel, lam, TimeGrid(1.0, n)).values
        errs.append(abs(vals[-1] - fine[-1]))
    order = math.log2(errs[0] / errs[2]) / 2.0
    assert order > 1.9


def test_lambda_zero_is_exactly_one():
    grid = TimeGrid(3.0, 300)
    for kernel in (Heat(1.0), Wave(c=1.0), fractional(-0.5)):
        z = relaxation_values(kernel, [0.0, 1.0], grid)
        assert np.all(z[0] == 1.0)


ORACLE_GRID = TimeGrid(10.0, 500)


@pytest.mark.parametrize(
    "kernel",
    [PowerLaw(beta=0.5, c=1.0), LogModified(),
     SampledKernel(ORACLE_GRID.dt, 0.2 + ORACLE_GRID.nodes / (1.0 + ORACLE_GRID.nodes)),
     PowerLaw(beta=0.5, c=1.0) + Exponential(mu=1.0, c=1.0)],
    ids=lambda k: k.description,
)
def test_toeplitz_inversion_matches_march(kernel):
    # lam * dt reaches 20 at lam = 1e3.  Exponential polynomials are solved
    # exactly and held to expm (test_exact_path_matches_expm).
    lams = np.geomspace(1e-2, 1e3, 16)
    ref = _march(kernel, lams, ORACLE_GRID)
    z = relaxation_values(kernel, lams, ORACLE_GRID)
    assert np.max(np.abs(z - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33])
def test_toeplitz_inversion_matches_march_on_short_grids(n):
    # Powers of two and one past them: the shared FFT length must be at
    # least n, not n - 1, or S*q0 wraps onto z_n (at n = 2, 3, 5, 9, ...).
    # Each exponential polynomial is summed with a power law, which keeps
    # its weight shape on the FFT division.
    grid = TimeGrid(0.2, n)
    lams = np.geomspace(1e-2, 30.0, 12)
    exp_poly = (Heat(1.0), Wave(c=1.0), Exponential(mu=1.0, c=1.0), Cosine(),
                Exponential(mu=0.2, c=-2.0, a0=1.0))
    for kernel in (*(PowerLaw(beta=0.5, c=0.01) + k for k in exp_poly), PowerLaw(beta=0.5, c=1.0)):
        ref = _march(kernel, lams, grid)
        z = relaxation_values(kernel, lams, grid)
        assert np.max(np.abs(z - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("grid", [TimeGrid(20.0, 4000), TimeGrid(40.0, 8000)],
                         ids=lambda g: f"T{g.t_end:g}-n{g.n_steps}")
def test_toeplitz_inversion_is_pointwise_accurate_on_growing_rows(grid):
    # The non-PD kernel grows to |z| ~ 4e13 (9e28 on the longer grid) after
    # dipping to ~5e-4; the error at every node must be small relative to z.
    lams = [1.0, 10.0, 100.0, 1000.0]
    kernel = Exponential(mu=0.2, c=-2.0, a0=1.0)
    ref = _expm_relaxation(kernel, lams, grid.nodes)
    z = relaxation_values(kernel, lams, grid)
    assert np.max(np.abs(z - ref) / np.abs(ref)) <= 1e-6


EXACT_KERNELS = [
    Heat(1.0), Wave(c=1.0), Exponential(mu=1.0, c=1.0), NegExponential(), Cosine(),
    Exponential(mu=0.2, c=-2.0, a0=1.0), Exponential(mu=1.0, c=1.0) + Heat(0.5),
    ScaledKernel(Exponential(mu=1.0, c=1.0), 2.0), TimeDilated(Cosine(), 3.0),
    TimeDilated(NegExponential(), 3.0), TimeDilated(Wave(c=1.0, a0=0.5), 2.0),
    Exponential(mu=1.0, c=1.0) + Exponential(mu=3.0, c=2.0), Cosine() + Heat(0.1),
    Wave(c=1.0) + Exponential(mu=1.0, c=1.0),
    Exponential(mu=1.0, c=1.0) + Cosine() + Wave(c=0.5) + Heat(0.3),
    dilate(Exponential(mu=1.0, c=1.0), 1e4), dilate(NegExponential(), 1e4),
    dilate(Exponential(mu=1.0, c=1.0, a0=0.2) + Exponential(mu=3.0, c=2.0), 1e4),
    dilate(Cosine() + Heat(0.3), 1e4),
]


@pytest.mark.parametrize("kernel", EXACT_KERNELS, ids=lambda k: k.description)
def test_exact_path_matches_expm(kernel):
    # Every family; sums, scalings and dilations up to T = 1e4; two rates,
    # conjugate pairs and t-terms; lam = 0, lam near critical damping of
    # Exponential(mu=1, c=1) (lam = 1/4) and lam over 12 decades.  The
    # reference is scipy's expm of a generator built here from exp_terms.
    critical = 0.25 * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    for grid, lams in ((TimeGrid(10.0, 500), np.geomspace(1e-2, 1e3, 16)),
                       (TimeGrid(1.0, 100), np.geomspace(1e-6, 1e6, 25))):
        lams = np.concatenate([[0.0], critical, lams])
        n = grid.n_steps
        idx = np.unique(np.r_[0, 1, 2, np.arange(0, n + 1, n // 20), n - 1, n])
        full = relaxation_values(kernel, lams, grid)
        (z,), _ = _solve_nodes([kernel], [lams], grid, idx)
        ref = _expm_relaxation(kernel, lams, grid.nodes[idx])
        assert np.all(np.abs(full[:, idx] - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
        assert np.array_equal(z, full[:, idx].T)
        assert np.all(full[0] == 1.0)
    # No time step enters: t = 1 is the same on every grid, up to rounding.
    lams = np.concatenate([critical, np.geomspace(1e-2, 1e3, 16)])
    at_1 = [relaxation_values(kernel, lams, TimeGrid(1.0, n))[:, -1] for n in (10, 100, 1000)]
    for z in at_1[1:]:
        assert np.all(np.abs(z - at_1[0]) <= 1e-13 * np.maximum(1.0, np.abs(at_1[0])))


def test_fft_division_refuses_rows_that_outgrow_their_precision():
    # The mix is not positive definite, so it takes the FFT division, and
    # its rows grow to |z| ~ 3e28 on this grid.  FFT rounding at that scale
    # swamps their smaller values: they were returned 0.31 (lam = 100, node
    # 4012) and 1.0 (lam = 1000, node 16) relative off the march, with no
    # error.
    kernel = PowerLaw(beta=0.5, c=0.01) + Exponential(mu=0.2, c=-2.0, a0=1.0)
    grid = TimeGrid(40.0, 8000)
    for lams in ([100.0, 1000.0], [1000.0], [0.0, 100.0]):
        with pytest.raises(PrecisionLossError, match="swamps"):
            relaxation_values(kernel, lams, grid)
    with pytest.raises(PrecisionLossError):
        _solve_nodes([kernel], [[100.0]], grid, nodes=[8000, 4012])
    # The last node is the row's largest, which rounding cannot swamp, and
    # node 0 is exact; a solve that asks for them alone keeps the peak for
    # the bound check of positive-definite callers.
    (z,), peak = _solve_nodes([kernel], [[100.0, 1000.0]], grid, nodes=[0, 8000])
    assert np.all(z[0] == 1.0) and np.all(np.abs(z[1]) > 1e27) and 1e28 < peak < np.inf
    # Rows that grow less keep their precision and are returned.
    grid = TimeGrid(10.0, 500)
    lams = [1.0, 10.0, 100.0]
    ref = _march(kernel, lams, grid)
    z = relaxation_values(kernel, lams, grid)
    assert np.max(np.abs(ref)) > 1e5
    assert np.max(np.abs(z - ref) / np.abs(ref)) <= 1e-11


def test_fft_division_scales_its_rounding_by_the_half_that_holds_a_node():
    # These rows peak at |z| = 1.1e7 and 1.9e12, but only at 2.0e3 and
    # 4.9e5 over nodes 1..500, the first Karp-Markstein half, whose
    # rounding follows that smaller scale.  They are returned, 6.6e-13 and
    # 4.5e-10 relative off the march.
    kernel = PowerLaw(beta=0.5, c=0.01) + Exponential(mu=0.2, c=-2.0, a0=1.0)
    grid = TimeGrid(20.0, 1000)
    lams = [1.0, 10.0]
    ref = _march(kernel, lams, grid)
    z = relaxation_values(kernel, lams, grid)
    assert np.max(np.abs(ref)) > 1e12
    assert np.max(np.abs(z - ref) / np.abs(ref)) <= 1e-9
    # At lam = 100 the first half reaches 6.8e5 and the row 2.4e13, which
    # swamps |z| = 7.0e5 at node 501, the first of the second half.
    with pytest.raises(PrecisionLossError, match="node 501"):
        relaxation_values(kernel, [100.0], grid)


@pytest.mark.parametrize(
    "kernel, states",
    [(Heat(1.0), 0), (Wave(c=1.0, a0=0.5), 1), (Exponential(mu=1.0, c=1.0), 1),
     (Exponential(mu=1.0, c=1.0) + Heat(0.5), 1), (Cosine(), 2),
     (Exponential(mu=1.0, c=1.0) + Exponential(mu=1.0, c=2.0), 1),
     (dilate(Cosine() + NegExponential(), 3.0), 3),
     (PowerLaw(beta=0.5, c=1.0) + Exponential(mu=1.0, c=1.0), None),
     (dilate(LogModified(), 2.0), None)],
    ids=lambda k: getattr(k, "description", k),
)
def test_exp_poly_terms_choose_the_exact_path(kernel, states):
    # The exact path takes exponential polynomials, with one memory state
    # per real rate s != 0 and for the t-terms, and two per conjugate pair;
    # the FFT division keeps every other kernel.
    terms = _exp_poly_terms(kernel)
    if states is None:
        assert terms is None and _path(kernel)[0] == "fft"
    else:
        assert len(_generator(terms)[0]) - 1 == states
        assert _path(kernel)[:2] == ("exact", states)


def test_terms_multiply_factors_and_dilations_through_the_tree():
    # A(t) = sum f A_leaf(T t) over the (factor, dilation, leaf) terms: a
    # scaling multiplies the factors below it and a dilation the dilations.
    e, w, c = Exponential(mu=1.0, c=1.0), Wave(c=2.0), Cosine()
    kernel = dilate(scale(dilate(e + scale(w, 3.0), 2.0), 5.0) + c, 7.0)
    terms = volterra._terms(kernel)
    assert terms == [(5.0, 14.0, e), (15.0, 14.0, w), (1.0, 7.0, c)]
    t = np.array([0.1, 0.5, 2.0])
    A = sum(f * leaf.primitive(T * t) for f, T, leaf in terms)
    assert np.allclose(kernel.primitive(t), A, rtol=1e-14, atol=0.0)
    assert volterra._terms(dilate(e, 1.0)) == [(1.0, 1.0, e)]


@pytest.mark.parametrize("T", [1.0, 7.5])
def test_logmodified_weights_match_mpmath(T):
    # Gauss-Legendre on each cell's own hat integrands; the differenced
    # cumulative sums were 3.1e-10 off on far cells.
    grid = TimeGrid(10.0, 2000)
    wL, wR = _convolution_weights(dilate(LogModified(m=1.0), T), grid)
    with mpmath.workdps(30):
        dt = mpmath.mpf(grid.dt)

        def A(s):
            return T * s * mpmath.log(mpmath.e + T * s)

        for r in (0, 1, 10, 100, 1000, 1999):
            t0, t1 = r * dt, (r + 1) * dt
            refL = mpmath.quad(lambda s: A(s) * (s - t0), [t0, t1]) / dt
            refR = mpmath.quad(lambda s: A(s) * (t1 - s), [t0, t1]) / dt
            assert abs(wL[r] - refL) <= 1e-14 * abs(refL)
            assert abs(wR[r] - refR) <= 1e-14 * abs(refR)


@pytest.mark.parametrize("kernel, T", [(PowerLaw(beta=0.5), 1.0), (PowerLaw(beta=0.5), 100.0),
                                       (PowerLaw(beta=1.0, c=2.0, a0=0.3), 1.0), (fractional(-0.5), 1.0)],
                         ids=["beta_0.5", "beta_0.5_dilated", "beta_1_with_a0", "fractional_-0.5"])
def test_powerlaw_weights_match_mpmath(kernel, T):
    # A Taylor series of positive terms on each cell past the first.
    # Differenced antiderivatives were up to 3.4e-9 off on the far cells,
    # and the differences of expm1 forms of (t0 + h)^k - t0^k still 1.9e-12.
    grid = TimeGrid(10.0, 2000)
    wL, wR = _convolution_weights(dilate(kernel, T), grid)
    with mpmath.workdps(30):
        b, c, a0 = (mpmath.mpf(v) for v in (kernel.beta, kernel.c, kernel.a0))
        h = T * mpmath.mpf(grid.dt)
        for r in [0, 1, 2, 10, *range(1500, 2000)]:
            t0, t1 = r * h, (r + 1) * h
            m0 = (t1 ** (b + 1) - t0 ** (b + 1)) / (b + 1)
            m1 = (t1 ** (b + 2) - t0 ** (b + 2)) / (b + 2) - t0 * m0
            refL = (c / b * m1 / h + a0 * h / 2) / T
            refR = (c / b * (m0 - m1 / h) + a0 * h / 2) / T
            assert abs(wL[r] - refL) <= 1e-14 * abs(refL)
            assert abs(wR[r] - refR) <= 1e-14 * abs(refR)


def test_fft_path_rows_keep_their_bits():
    # The FFT division solves each dilated kernel's rows in blocks of
    # _ROW_BLOCK; a row must not depend on its block or on the other
    # dilations solved in the same call.
    kernel = PowerLaw(beta=0.5, c=1.0) + Exponential(mu=1.0, c=1.0)
    grid = TimeGrid(2.0, 300)
    dilation = np.repeat([1.0, 10.0], _ROW_BLOCK + 3)
    lams = np.linspace(0.0, 8.0, dilation.size)
    _, kernels, blocks = _dilated_pairs([kernel], lams, dilation)
    z, _ = _solve_nodes(kernels, blocks, grid)
    for zk, kernel_T, block in zip(z, kernels, blocks, strict=True):
        assert np.array_equal(zk.T, relaxation_values(kernel_T, block, grid))
    assert np.array_equal(z[0][:, 5], relaxation_values(kernel, lams[5:6], grid)[0])


@pytest.mark.parametrize("beta", [-0.9, -0.75, -0.4, -0.1])
@pytest.mark.parametrize("a0", [0.0, 0.3])
def test_singular_path_matches_march(beta, a0):
    # Held to the exact solution, far below the march's own error (~1e-4):
    # at every node for a0 = 0, else on nodes in three bands of contours.
    grid = TimeGrid(2.0, 400)
    lams = np.geomspace(1e-2, 1e3, 16)
    kernel = PowerLaw(beta=beta, c=beta / math.gamma(1.0 + beta), a0=a0)
    z = relaxation_values(kernel, lams, grid)
    idx = np.arange(1, 401) if a0 == 0.0 else np.array([1, 20, 400])
    assert np.max(np.abs(z[:, idx] - _exact_power_law(kernel, lams, grid.nodes[idx]))) <= 1e-10


def test_batch_matches_single_bitwise():
    # _ROW_BLOCK + 5 lambdas cross a row block of the series inversion;
    # the PowerLaw with a0 > 0 takes the a0 branch of the singular path.
    grid = TimeGrid(2.0, 400)
    lams = np.linspace(0.3, 7.5, _ROW_BLOCK + 5)
    for kernel in (Exponential(mu=1.0, c=1.0), fractional(-0.5), Cosine(),
                   PowerLaw(beta=-0.3, c=-0.5, a0=0.4)):
        batch = relaxation_values(kernel, lams, grid)
        for lam, row in zip(lams, batch):
            single = solve_relaxation(kernel, lam, grid)
            assert np.array_equal(row, single.values)


@pytest.mark.parametrize(
    "kernel",
    [Exponential(mu=1.0, c=1.0), Cosine(), fractional(-0.5),
     PowerLaw(beta=-0.3, c=-0.5, a0=0.4)],
    ids=lambda k: k.description,
)
def test_dilation_rows_match_one_dilation_at_a_time(kernel):
    # 3 dilations x (_ROW_BLOCK + 3) lambdas, interleaved: each dilation
    # alone crosses a row block of the series inversion.
    grid = TimeGrid(2.0, 300)
    rng = np.random.default_rng(7)
    dilation = rng.permutation(np.repeat([1.0, 10.0, 1e3], _ROW_BLOCK + 3))
    lams = rng.uniform(0.0, 8.0, dilation.size)
    lams[:3] = 0.0
    _, kernels, blocks = _dilated_pairs([kernel], lams, dilation)
    z, _ = _solve_nodes(kernels, blocks, grid)
    for zk, T in zip(z, (1.0, 10.0, 1e3), strict=True):
        rows = dilation == T
        assert np.array_equal(zk.T, relaxation_values(dilate(kernel, T), lams[rows], grid))


@pytest.mark.parametrize("beta", [-0.9, -0.4, -0.1])
@pytest.mark.parametrize("a0", [0.0, 0.3])
def test_merged_dilations_match_singular_march(beta, a0):
    # Each dilation's rows are held to the exact solution of the dilated
    # kernel: at every node for a0 = 0, on a few nodes else.
    grid = TimeGrid(2.0, 200)
    lams = np.geomspace(1e-2, 1e3, 8)
    kernel = PowerLaw(beta=beta, c=beta / math.gamma(1.0 + beta), a0=a0)
    Ts = (1.0, 30.0, 1e4)
    z, _ = _solve_nodes([dilate(kernel, T) for T in Ts], [lams] * 3, grid)
    idx = np.arange(1, 201) if a0 == 0.0 else np.array([1, 200])
    for zk, T in zip(z, Ts):
        dilated = PowerLaw(beta=beta, c=kernel.c * T**beta, a0=a0)
        ref = _exact_power_law(dilated, lams, grid.nodes[idx])
        assert np.max(np.abs(zk[idx].T - ref)) <= 1e-10


@pytest.mark.parametrize("beta", [-0.99, -0.9, -0.5, -0.1, -0.01])
def test_singular_path_exact_at_every_node(beta):
    # |z| <= 1 does not catch errors at early nodes for large lam: a y-mesh
    # march gave z(t_1) = -0.127 for fractional(-0.05) on TimeGrid(1, 2000)
    # at lam = 1e4, where E_0.95 is 0.0103.
    lams = np.geomspace(1e-6, 1e8, 15)
    kernel = fractional(beta)
    with_a0 = PowerLaw(beta=beta, c=kernel.c, a0=0.3)
    for grid in (TimeGrid(1.0, 300), TimeGrid(1e4, 500), TimeGrid(1e-3, 20000)):
        z = relaxation_values(kernel, lams, grid)
        ref = _exact_power_law(kernel, lams, grid.nodes[1:])
        assert np.max(np.abs(z[:, 1:] - ref)) <= 1e-10
        idx = [1, grid.n_steps]
        z = relaxation_values(with_a0, lams[::7], grid)[:, idx]
        assert np.max(np.abs(z - _exact_power_law(with_a0, lams[::7], grid.nodes[idx]))) <= 1e-10


def test_singular_path_refuses_negative_a0():
    # With a0 < 0 the transform of z has a pole s* > 0 that the contour
    # misses: summed anyway, it gives z(50) = 6.3e-4, where z is 4.6e4.
    kernel = PowerLaw(beta=-0.5, c=-1.0, a0=-2.0)
    with pytest.raises(DomainError, match=re.escape(kernel.description)):
        relaxation_values(kernel, [1.0], TimeGrid(50.0, 2000))
    # The refusal is the kernel's, so a solve at lam = 0 alone gets it too.
    with pytest.raises(DomainError, match="a0 < 0"):
        relaxation_values(kernel, [0.0], TimeGrid(50.0, 2000))


def test_sum_with_singular_power_law_takes_singular_path():
    # fractional(-0.5) + Heat(0.1) is the power law with a0 = 0.1; on the
    # smooth path z(t_1) at lam = 100 came out as -0.222 instead of 0.095.
    grid = TimeGrid(1.0, 300)
    frac = fractional(-0.5)
    lams = [1.0, 100.0]
    ref = relaxation_values(PowerLaw(beta=-0.5, c=frac.c, a0=0.1), lams, grid)
    z = relaxation_values(frac + Heat(0.1), lams, grid)
    assert np.max(np.abs(z - ref)) <= 1e-14
    # Each wrapped tree against the power law of its constants: a scaling
    # multiplies c, a dilation by T multiplies c by T^beta and keeps a0.
    for wrapped, plain in ((ScaledKernel(frac, 2.0), PowerLaw(beta=-0.5, c=2.0 * frac.c)),
                           (TimeDilated(frac, 3.0), PowerLaw(beta=-0.5, c=frac.c * 3.0**-0.5)),
                           (TimeDilated(ScaledKernel(frac, 2.0) + Heat(0.1), 3.0),
                            PowerLaw(beta=-0.5, c=2.0 * 3.0**-0.5 * frac.c, a0=0.1))):
        ref = relaxation_values(plain, lams, grid)
        assert np.max(np.abs(relaxation_values(wrapped, lams, grid) - ref)) <= 1e-13


@pytest.mark.parametrize(
    "other",
    [Exponential(mu=1.0, c=1.0), PowerLaw(beta=-0.3, c=-1.0), PowerLaw(beta=0.5, c=1.0),
     SampledKernel(0.1, [0.0, 0.1, 0.2])],
    ids=lambda k: k.description,
)
def test_singular_power_law_in_other_combinations_rejected(other):
    kernel = fractional(-0.5) + other
    with pytest.raises(DomainError, match=re.escape(kernel.description)):
        relaxation_values(kernel, [1.0], TimeGrid(1.0, 10))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "kernel", [Exponential(mu=1.0, c=1.0), PowerLaw(beta=0.5), fractional(-0.4)],
    ids=["recurrence", "fft", "contour"],
)
def test_relaxation_values_refuses_non_finite_lambda(kernel, bad):
    # Every path returned a non-finite row for such a lambda, with no error.
    with pytest.raises(DomainError, match="finite"):
        relaxation_values(kernel, [1.0, bad], TimeGrid(1.0, 10))


@pytest.mark.parametrize("node", [-1, 11])
@pytest.mark.parametrize(
    "kernel", [Exponential(mu=1.0, c=1.0), PowerLaw(beta=0.5), fractional(-0.4)],
    ids=["recurrence", "fft", "contour"],
)
def test_solve_nodes_refuses_a_node_off_the_grid(kernel, node):
    # The recurrence would leave such a row unfilled, and numpy would read
    # -1 as the last node.
    with pytest.raises(DomainError, match="node"):
        _solve_nodes([kernel], [[1.0]], TimeGrid(1.0, 10), nodes=[0, node])


@pytest.mark.parametrize("node", [2.5, np.float64(2.0)])
@pytest.mark.parametrize(
    "kernel", [Exponential(mu=1.0, c=1.0), PowerLaw(beta=0.5), fractional(-0.4)],
    ids=["recurrence", "fft", "contour"],
)
def test_solve_nodes_refuses_a_non_integer_node(kernel, node):
    # The recurrence raised a bare IndexError for 2.5; the FFT and contour
    # paths returned node 2.
    with pytest.raises(DomainError, match="node"):
        _solve_nodes([kernel], [[1.0]], TimeGrid(1.0, 10), nodes=[0, node])


def _dilated_pairs(kernels, lams, dilation, member=0):
    """Row j names the pair (kernels[member[j]], dilation[j]), where a
    scalar dilation or member serves every row: (pairs, kernels, lambdas)
    with the distinct pairs in sorted order, each as a dilated kernel for
    ``_solve_nodes`` with the block of lam it serves."""
    lams = np.asarray(lams, dtype=float)
    dilation, member = np.broadcast_to(dilation, lams.shape), np.broadcast_to(member, lams.shape)
    pairs = sorted(set(zip(member.tolist(), dilation.tolist())))
    blocks = [lams[(member == m) & (dilation == T)] for m, T in pairs]
    return pairs, [dilate(kernels[m], T) for m, T in pairs], blocks


@pytest.mark.parametrize(
    "kernel, lams, dilation, n",
    [(Exponential(mu=1.0, c=1.0), np.geomspace(1e-3, 1e4, 40), 1.0, 1000),
     (Cosine(), np.geomspace(1e-3, 1e4, 40), 1.0, 1000),
     (Wave(c=1.0), np.geomspace(1e-3, 1e2, 40), 1.0, 1000),
     (Exponential(mu=1.0, c=1.0) + Cosine() + Wave(c=0.5) + Heat(0.3),
      np.geomspace(1e-3, 1e2, 40), 1.0, 1000),
     (Exponential(mu=1.0, c=1.0), np.repeat(np.geomspace(1e-2, 1e3, 10), 3),
      np.tile([1.0, 10.0, 100.0], 10), 1000),
     (Heat(1.0) + Cosine(), [0.0, 0.5, 0.0, 50.0], 1.0, 203),
     (Exponential(mu=0.2, c=-2.0, a0=1.0), [0.0, 0.01, 0.1, 1.0, 10.0], 1.0, 1000),
     (Exponential(mu=0.1, c=-0.2, a0=1.0) + Cosine(), [0.3, 1.0, 3.0], [1.0, 10.0, 1.0], 203)],
    ids=["real-rate", "complex-pair", "t-term", "mixed-sum", "mixed-dilations", "lambda-0",
         "growing", "growing-mixed"],
)
def test_requested_nodes_equal_the_full_solve_bitwise(kernel, lams, dilation, n):
    # A requested node of a kernel with two or more memory states is row 0
    # of E^i by the chain of squarings over the bits of i, which the table
    # of every node follows too, so z must keep its bits; the closed form of
    # the others is elementwise in time.  The exact path evaluates only the
    # requested nodes, so its peak is max|z| over them.
    grid = TimeGrid(20.0, n)
    nodes = [0, 1, 2, 65, 66, 130, n - 1, n, 66]
    _, kernels, blocks = _dilated_pairs([kernel], lams, dilation)
    full = _solve_nodes(kernels, blocks, grid)[0]
    z, peak = _solve_nodes(kernels, blocks, grid, nodes)
    for zk, fk in zip(z, full, strict=True):
        assert np.array_equal(zk, fk[nodes])
    assert np.array_equal(peak, max(_abs_max(fk[nodes]) for fk in full))


EXP_POLY_FAMILIES = [
    Heat(1.0), Wave(c=1.0), Exponential(mu=0.2, c=-2.0, a0=1.0), NegExponential(), Cosine(),
    Exponential(mu=1.0, c=1.0) + Cosine() + Wave(c=0.5) + Heat(0.3),
]


@pytest.mark.parametrize("kernel", EXP_POLY_FAMILIES, ids=lambda k: k.description)
def test_lambda_zero_rows_are_exactly_one_on_both_paths(kernel):
    # Rows with lam = 0 are set to 1, between rows of other lam and
    # dilations, with every node or a few requested.
    grid = TimeGrid(20.0, 500)
    lams, dilation = [0.0, 1.0, 0.0, 10.0, 0.0], [1.0, 1.0, 10.0, 1.0, 100.0]
    _, kernels, blocks = _dilated_pairs([kernel], lams, dilation)
    full, _ = _solve_nodes(kernels, blocks, grid)
    z, _ = _solve_nodes(kernels, blocks, grid, [0, 1, 2, 250, 500])
    assert [list(block) for block in blocks] == [[0.0, 1.0, 10.0], [0.0], [0.0]]
    for zk, block in zip(full + z, blocks * 2):
        assert np.all(zk[:, block == 0.0] == 1.0)


@pytest.mark.parametrize(
    "kernel, lams, grid, dilation, nodes, cure",
    [(LogModified(), [700.0, 1000.0], TimeGrid(3.0, 600), 1e3, None, "refine the time grid"),
     (LogModified(), [700.0, 1000.0], TimeGrid(3.0, 600), 1e3, [0], "refine the time grid"),
     (Exponential(mu=0.2, c=-2.0, a0=1.0), [1e3], TimeGrid(500.0, 100), 1.0, [100],
      "the exact solution overflows float64")],
    ids=["logmodified-fft", "logmodified-fft-node-0", "exact-overflow"],
)
def test_non_finite_solve_raises(kernel, lams, grid, dilation, nodes, cure):
    # The FFT division overflows for the dilated LogModified: it came back
    # as NaN rows with only a RuntimeWarning.  Node 0 is 1, so asked for it
    # alone the solve must still see the NaN of the nodes it does not
    # return.  The growing Exponential overflows exactly: z grows like
    # e^(1.8 t), past the largest double at t = 500, which no time grid
    # can cure, so the message names the overflow instead.
    with np.errstate(all="ignore"), pytest.raises(StepSizeError, match="not finite") as err:
        _solve_nodes([dilate(kernel, dilation)], [lams], grid, nodes)
    assert str(err.value).endswith(cure)


def _count_calls(monkeypatch, name):
    """Record the calls of a solver path of ``memdiff.volterra``."""
    calls, path = [], getattr(volterra, name)

    def recording(*args):
        calls.append(args)
        return path(*args)

    monkeypatch.setattr(volterra, name, recording)
    return calls


def _assert_rows_solved_alone(kernels, lams, dilation, member, grid, nodes):
    # Every row of one multi-kernel call keeps the bits of its (kernel,
    # dilation) pair solved alone, and the peak is the max of theirs.
    _, dilated, blocks = _dilated_pairs(kernels, lams, dilation, member)
    z, peak = _solve_nodes(dilated, blocks, grid, nodes)
    peaks = []
    for kernel, block, zk in zip(dilated, blocks, z, strict=True):
        for j, lam in enumerate(block):
            (alone,), p = _solve_nodes([kernel], [[lam]], grid, nodes)
            assert np.array_equal(zk[:, j], alone[:, 0])
            peaks.append(p)
    assert len(peaks) == len(lams) and peak == max(peaks)


MULTI_NODES = [0, 1, 2, 65, 130, 199, 200]


def test_multi_kernel_recurrence_rows_of_two_layouts(monkeypatch):
    # Exponential and Exponential + Heat have one memory state, Cosine two:
    # two calls of the exact path, one per state count.
    calls = _count_calls(monkeypatch, "_exact_values")
    kernels = (Exponential(mu=1.0, c=1.0), Cosine(), Exponential(mu=0.5, c=2.0) + Heat(0.3))
    lams = [0.0, 0.5, 3.0, 0.5, 40.0, 2.0, 0.5]
    dilation = [1.0, 10.0, 1.0, 1.0, 3.0, 10.0, 10.0]
    member = [0, 1, 2, 2, 0, 1, 0]
    _assert_rows_solved_alone(kernels, lams, dilation, member, TimeGrid(20.0, 200), MULTI_NODES)
    assert len(calls) == 2 + len(lams)
    assert sorted(len(args[1]) for args in calls[:2]) == [2, 5]


def test_multi_kernel_contour_rows_of_two_betas(monkeypatch):
    # fractional(-0.4) and PowerLaw(-0.4, a0 = 0.2) share beta, so one
    # contour call serves both; fractional(-0.7) + Heat takes a second.
    calls = _count_calls(monkeypatch, "_contour_values")
    kernels = (fractional(-0.4), fractional(-0.7) + Heat(0.1), PowerLaw(beta=-0.4, c=-2.0, a0=0.2))
    lams = [1.0, 0.0, 30.0, 1.0, 5.0, 100.0]
    dilation = [1.0, 1.0, 10.0, 10.0, 1.0, 3.0]
    member = [0, 1, 2, 1, 0, 2]
    _assert_rows_solved_alone(kernels, lams, dilation, member, TimeGrid(2.0, 200), MULTI_NODES)
    assert len(calls) == 2 + len(lams)
    assert sorted(len(args[1]) for args in calls[:2]) == [2, 4]


def test_multi_kernel_fft_rows(monkeypatch):
    # The FFT division is one call per distinct (kernel, dilation) pair.
    calls = _count_calls(monkeypatch, "_solve_matrix")
    kernels = (PowerLaw(beta=0.5), PowerLaw(beta=0.3, c=2.0) + Heat(0.1))
    lams = [1.0, 0.0, 30.0, 1.0, 5.0]
    dilation = [1.0, 1.0, 10.0, 10.0, 1.0]
    member = [0, 1, 1, 0, 0]
    _assert_rows_solved_alone(kernels, lams, dilation, member, TimeGrid(2.0, 200), MULTI_NODES)
    assert len(calls) == 4 + len(lams)


def test_multi_kernel_call_mixing_paths():
    # The growing Exponential, not positive definite, sets the peak.
    kernels = (Exponential(mu=1.0, c=1.0), fractional(-0.4), PowerLaw(beta=0.5), Cosine(),
               Exponential(mu=0.2, c=-2.0, a0=1.0))
    lams = [1.0, 2.0, 3.0, 4.0, 0.0, 20.0, 0.5, 8.0, 0.01]
    dilation = [1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 3.0, 3.0, 1.0]
    member = [0, 1, 2, 3, 0, 1, 2, 3, 4]
    grid = TimeGrid(2.0, 200)
    _assert_rows_solved_alone(kernels, lams, dilation, member, grid, MULTI_NODES)
    _, dilated, blocks = _dilated_pairs(kernels, lams, dilation, member)
    full = _solve_nodes(dilated, blocks, grid)[0]
    for kernel_T, block, zk in zip(dilated, blocks, full, strict=True):
        for j, lam in enumerate(block):
            assert np.array_equal(zk[:, j], relaxation_values(kernel_T, [lam], grid)[0])
    with pytest.raises(DomainError, match="per kernel"):
        _solve_nodes(dilated, blocks[:-1], grid)


def test_multi_kernel_peak_keeps_nan_from_any_group():
    # Wave with a power law, on the FFT path, diverges to NaN at
    # lam c dt^2 = 25; the growing Exponential, on the exact path, has a
    # finite peak of 1.0 at the one node asked for.  A max over the groups
    # by Python's max would keep NaN in one order and drop it in the other.
    grid = TimeGrid(50.0, 1000)
    growing = Exponential(mu=0.2, c=-2.0, a0=1.0)
    fft_wave = PowerLaw(beta=0.5) + Wave(c=1.0)
    with np.errstate(all="ignore"):
        for kernels in ((growing, fft_wave), (fft_wave, growing)):
            lams = [10.0 if k is growing else 1e4 for k in kernels]
            for order in ([0, 1], [1, 0]):
                with pytest.raises(StepSizeError, match=r"max\|z\| = nan"):
                    _solve_nodes([kernels[m] for m in order], [[lams[m]] for m in order], grid, nodes=[0])


@pytest.mark.parametrize("lams", [1.0, [[1.0, 2.0]]], ids=["scalar", "2-d"])
def test_relaxation_values_refuses_lambdas_that_are_not_1d(lams):
    # A scalar raised TypeError: len() of unsized object, and a 2-D array a
    # numpy ValueError.
    with pytest.raises(DomainError, match="one-dimensional"):
        relaxation_values(Heat(1.0), lams, TimeGrid(1.0, 10))


def test_relaxation_values_shape_and_content():
    grid = TimeGrid(1.0, 100)
    z = relaxation_values(Heat(1.0), [0.0, 1.0, 2.0], grid)
    assert z.shape == (3, 101)
    assert np.all(z[0] == 1.0)
    assert np.all(z[:, 0] == 1.0)
    for kernel in (Heat(1.0), Cosine(), PowerLaw(beta=0.5, c=1.0), fractional(-0.5)):
        assert relaxation_values(kernel, [], grid).shape == (0, 101)


@pytest.mark.parametrize(
    "kernel",
    [Heat(1.0), Wave(c=1.0), PowerLaw(beta=0.5, c=1.0), fractional(-0.5),
     Exponential(mu=1.0, c=1.0), NegExponential(), Cosine()],
    ids=lambda k: k.description,
)
def test_bounded_by_one_for_positive_definite_kernels(kernel):
    # |z| <= 1 for every positive-definite kernel, all lam and t.
    grid = TimeGrid(20.0, 4000)
    lams = np.geomspace(0.01, 100.0, 25)
    z = relaxation_values(kernel, lams, grid)
    assert np.max(np.abs(z)) <= 1.0 + BOUND_TOL


def test_not_positive_definite_kernel_can_exceed_one():
    # Sanity check that the bound is a theorem, not an artifact: a
    # negative-mass kernel overshoots.
    grid = TimeGrid(20.0, 4000)
    z = relaxation_values(Exponential(mu=0.2, c=-2.0, a0=1.0), [1.0], grid)
    assert np.max(np.abs(z)) > 1.0 + BOUND_TOL


def test_decay_envelope_exponential_kernel():
    grid = TimeGrid(20.0, 4000)
    for lam in (0.05, 0.5, 1.0, 10.0, 100.0):
        rel = solve_relaxation(Exponential(mu=1.0, c=1.0), lam, grid)
        assert decay_envelope_check(rel, EXPONENTIAL_ENVELOPE_RATE)


def test_decay_envelope_rejects_wave():
    # The wave kernel does not decay: the envelope fails at large t.
    grid = TimeGrid(50.0, 10000)
    rel = solve_relaxation(Wave(c=1.0), 1.0, grid)
    assert not decay_envelope_check(rel, 0.25)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
def test_decay_envelope_refuses_a_rate_that_is_not_finite_and_positive(epsilon):
    # NaN and inf gave the verdict False, as if the envelope had failed.
    rel = solve_relaxation(Exponential(mu=1.0, c=1.0), 1.0, TimeGrid(1.0, 10))
    with pytest.raises(DomainError, match="epsilon"):
        decay_envelope_check(rel, epsilon)


def test_interpolation_between_nodes():
    grid = TimeGrid(1.0, 10)
    rel = solve_relaxation(Heat(1.0), 1.0, grid)
    mid = rel(0.05)
    assert rel.values[0] >= mid >= rel.values[1]


def test_negative_lambda_rejected():
    with pytest.raises(DomainError):
        solve_relaxation(Heat(1.0), -1.0, TimeGrid(1.0, 10))


def test_nonpositive_implicit_coefficient_rejected():
    # A < 0 near 0 makes 1 + lam * wR[0] of the march negative at
    # lam * dt = 100.
    kernel = PowerLaw(beta=0.5, c=0.01) + Exponential(mu=1.0, c=-2.0)
    with pytest.raises(StepSizeError, match="implicit coefficient"):
        solve_relaxation(kernel, 1e3, TimeGrid(1.0, 10))


def test_kernel_convergence_identical_is_zero():
    grid = TimeGrid(2.0, 500)
    k = Exponential(mu=1.0, c=1.0)
    rep = kernel_convergence_test([k], k, 1.0, grid)
    assert rep.sup_distance[0] == 0.0
    assert rep.l1_kernel_distance[0] == 0.0


def test_kernel_convergence_dilated_powerlaw():
    # A_n(t) = A(T_n t) / (A(T_n) Gamma(1+beta)) -> t^beta/Gamma(1+beta)
    # exactly for power laws, so the distance is zero for each member up
    # to roundoff; with a perturbation of size 1/n it decreases like the
    # L1 kernel distance.
    grid = TimeGrid(2.0, 500)
    beta = 0.5
    limit = fractional(beta)
    nodes = grid.nodes
    seq = []
    for n in (2, 8, 32):
        A = limit.primitive(nodes) + (1.0 / n) * nodes / (1.0 + nodes)
        A[0] = limit.a0
        seq.append(A)
    rep = kernel_convergence_test(seq, limit, 1.0, grid)
    assert np.all(np.diff(rep.sup_distance) < 0.0)
    assert np.all(np.diff(rep.l1_kernel_distance) < 0.0)
    assert rep.sup_distance[-1] < rep.sup_distance[0] / 8.0


def test_kernel_convergence_accepts_sampled_arrays():
    # Member and limit are both samples of A (a sampled member is marched,
    # while Heat itself would be solved exactly).
    grid = TimeGrid(1.0, 200)
    A = np.asarray(Heat(1.0).primitive(grid.nodes), dtype=float)
    rep = kernel_convergence_test([A], A.copy(), 2.0, grid)
    assert rep.sup_distance[0] < 1e-10
    limit = A.copy()
    A[3] = np.nan
    with pytest.raises(DomainError, match="finite"):
        kernel_convergence_test([A], limit, 2.0, grid)


@given(st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=25, deadline=None)
def test_heat_relaxation_accuracy_property(lam):
    grid = TimeGrid(1.0, 500)
    rel = solve_relaxation(Heat(1.0), lam, grid)
    ref = np.exp(-lam * grid.nodes)
    assert np.max(np.abs(rel.values - ref)) < 1e-4 * (1.0 + lam)
