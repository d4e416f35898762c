"""Self-similarity harness: scalings, rescaled fields, convergence, rates."""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdiff import asymptotics, spectral
from memdiff.asymptotics import (
    RV_GRID,
    ConvergenceReport,
    _column_words,
    _write_csv,
    ScalingFunction,
    converge_to_limit,
    leading_order_rate,
    relaxation_at_time,
    rescale_field,
    rescaled_values,
    scaling_equivalence_check,
)
from memdiff.errors import DomainError, HypothesisViolation
from memdiff.kernels import (
    Cosine,
    Exponential,
    Heat,
    NegExponential,
    PowerLaw,
    SampledKernel,
    Wave,
    dilate,
    fractional,
    rv_index_estimate,
)
from memdiff.specfun import gamma, mittag_leffler
from memdiff.spectral import (
    BoxFunction,
    Gaussian,
    InitialData,
    ModeGrid,
    SpectralField,
    hs_norm,
    limit_profile,
    unique_lambdas,
)
from memdiff.volterra import TimeGrid, relaxation_values


GRID_1D = ModeGrid(n=1, modes_per_axis=64, xi_max=6.0)


def test_scaling_k_wave_is_identity():
    sf = ScalingFunction(kernel=Wave(c=1.0), beta=1.0)
    for t in (0.5, 1.0, 10.0):
        assert abs(sf.k(t) - t) < 1e-12 * t


def test_scaling_k_exponential_oracle():
    # k(t) = sqrt(t (1 - e^{-t})) for the unit Exponential kernel.
    sf = ScalingFunction(kernel=Exponential(mu=1.0, c=1.0), beta=0.0)
    ref = math.sqrt(10.0 * (1.0 - math.exp(-10.0)))
    assert abs(sf.k(10.0) - ref) < 1e-12
    assert abs(ref - 3.16221) < 1e-4


def test_scaling_k_powerlaw_closed_form():
    sf = ScalingFunction(kernel=PowerLaw(beta=0.5, c=1.0), beta=0.5)
    for t in (0.3, 2.0, 50.0):
        ref = math.sqrt(2.0 * gamma(1.5)) * t**0.75
        assert abs(sf.k(t) - ref) < 1e-12 * ref


def test_scaling_function_validation():
    with pytest.raises(DomainError):
        ScalingFunction(kernel=Heat(1.0), beta=-1.0)
    with pytest.raises(DomainError):
        ScalingFunction(kernel=Heat(1.0), beta=0.0, C=-1.0)
    # Each was accepted, and k(2.0) came back NaN or inf with no error.
    for params in ({"C": math.nan}, {"C": math.inf}, {"exponent_override": math.nan},
                   {"exponent_override": math.inf}):
        with pytest.raises(DomainError, match="finite"):
            ScalingFunction(kernel=Heat(1.0), beta=0.0, **params)


@pytest.mark.parametrize("t", [float("nan"), math.inf, 0.0, -1.0])
def test_scaling_k_refuses_t_that_is_not_finite_and_positive(t):
    sf = ScalingFunction(Exponential(mu=1.0, c=1.0), 0.0)
    with pytest.raises(DomainError, match="finite t > 0"):
        sf.k(t)
    with pytest.raises(DomainError, match="finite t > 0"):
        sf.k(np.array([1.0, t]))


@pytest.mark.parametrize(
    "kernel, beta",
    [(Exponential(mu=1.3, c=0.7, a0=0.2), 0.0), (fractional(-0.4), -0.4), (Wave(c=2.0), 1.0)],
    ids=lambda k: getattr(k, "description", k),
)
@pytest.mark.parametrize("override", [None, 0.37])
def test_scaling_k_of_a_float_has_the_bits_of_the_array_rule(kernel, beta, override):
    sf = ScalingFunction(kernel, beta, C=1.1, exponent_override=override)
    Ts = np.geomspace(1e-2, 1e6, 97)
    got = [sf.k(float(T)) for T in Ts]
    assert all(type(k) is float for k in got)
    assert np.array_equal(got, [sf.k(np.array([T]))[0] for T in Ts])
    assert np.array_equal(got, sf.k(Ts))


def test_scaling_index_consistency():
    # rv index of the derived scaling function equals (1+beta)/2.
    for kernel, beta in ((Heat(1.0), 0.0), (Wave(c=1.0), 1.0),
                         (PowerLaw(beta=0.5, c=1.0), 0.5), (fractional(-0.5), -0.5)):
        sf = ScalingFunction(kernel=kernel, beta=beta)
        nodes = RV_GRID
        k_kernel = SampledKernel(1.0, sf.k(1.0 + np.arange(200000.0)))
        est = rv_index_estimate(k_kernel, np.geomspace(1.0, 9e4, 40))
        assert abs(est.beta - (1.0 + beta) / 2.0) < 0.02


def test_rescaled_mass_invariant_exact():
    u0 = Gaussian(mass=2.0)
    for kernel, beta in ((Exponential(mu=1.0, c=1.0), 0.0), (fractional(-0.5), -0.5)):
        sf = ScalingFunction(kernel=kernel, beta=beta)
        for T in (10.0, 1000.0):
            f = rescale_field(kernel, u0, sf, T, 1.0, GRID_1D)
            assert f.mass == 2.0


def test_heat_kernel_is_fixed_point_of_rescaling():
    # For the plain heat kernel, k(T)^2 = T, so the rescaled z-factor is
    # z(lam/T, T t) = e^{-lam t}: the rescaling is a fixed point at the
    # level of the evolution factor, to solver accuracy.
    kernel = Heat(1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    u0 = Gaussian()
    for T in (10.0, 1000.0):
        assert abs(sf.k(T) - math.sqrt(T)) < 1e-12 * math.sqrt(T)
        f = rescale_field(kernel, u0, sf, T, 1.0, GRID_1D)
        lam = GRID_1D.xi_squared()
        base = u0.hat(xi_squared=lam / T)
        ref = base * np.exp(-lam)
        assert np.max(np.abs(f.values - ref)) < 1e-7


def test_rescaled_values_match_direct_long_solve():
    # Dilation identity: the rescaled field equals the direct (expensive)
    # solve at time T*t with coupling lam/k(T)^2.
    kernel = Exponential(mu=1.0, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    T, t = 50.0, 1.0
    f = rescale_field(kernel, u0 := Gaussian(), sf, T, t, GRID_1D, n_steps=4000)
    kT = sf.k(T)
    lam = GRID_1D.xi_squared()
    lam_flat = np.unique(lam) / kT**2
    direct = relaxation_values(kernel, lam_flat, TimeGrid(T * t, 50000))
    zmap = dict(zip(lam_flat, direct[:, -1]))
    ref = u0.hat(xi_squared=lam / kT**2) * np.vectorize(lambda l: zmap[l])(lam / kT**2)
    assert np.max(np.abs(f.values - ref)) < 1e-5


def test_converge_exponential_strictly_decreasing():
    kernel = Exponential(mu=1.0, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    rep = converge_to_limit(kernel, Gaussian(), sf, [10.0, 100.0, 1000.0],
                            [0.5, 1.0, 2.0], 0.0, GRID_1D)
    assert rep.beta_estimate == pytest.approx(0.0, abs=0.02)
    for t in (0.5, 1.0, 2.0):
        d = rep.distances_at(t)
        assert np.all(np.diff(d) < 0.0)


def _spy_shell_factors(monkeypatch):
    """Record each call of ``_shell_factors`` by the studies: (kernels, z)."""
    seen = []

    def spy(kernels, *args):
        seen.append((kernels, spectral._shell_factors(kernels, *args)))
        return seen[-1][1]

    monkeypatch.setattr(asymptotics, "_shell_factors", spy)
    return seen


def _per_mode_hs(grid, values, s):
    """H^s norm as a sum over the modes: the product trapezoid rule on a
    full grid, np.trapezoid over r on a radial one."""
    weight = (1.0 + grid.xi_squared()) ** s * np.abs(values) ** 2
    if grid.radial:
        r, n = grid.axis, grid.n
        surf = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        integral = surf * np.trapezoid(r ** (n - 1) * weight, r)
    else:
        integral = np.sum(grid.trapezoid_weights() * weight) * grid.dxi**grid.n
    return math.sqrt(integral / (2.0 * math.pi) ** grid.n)


def _assert_converge_rows_close(rows, ref_rows):
    # Distances within 1e-15 of the reference norm, reference norms within
    # 1e-15 relative: the shell sums reorder the per-mode sums.
    assert [r[:2] for r in rows] == [r[:2] for r in ref_rows]
    for (_, _, dist, ref), (_, _, ref_dist, ref_ref) in zip(rows, ref_rows, strict=True):
        assert abs(dist - ref_dist) <= 1e-15 * ref_ref
        assert abs(ref - ref_ref) <= 1e-15 * ref_ref


def _assert_rate_rows_close(rows, ref_rows):
    assert [r[0] for r in rows] == [r[0] for r in ref_rows]
    for (_, r, dist), (_, ref_r, ref_dist) in zip(rows, ref_rows, strict=True):
        assert abs(r - ref_r) <= 1e-14 * ref_r and abs(dist - ref_dist) <= 1e-14 * ref_dist


def test_converge_matches_a_loop_over_T_bitwise(monkeypatch):
    # One solve for every T gives the bits of one dilated solve per T, and
    # the rows are the per-mode sums over those solves, to rounding.
    seen = _spy_shell_factors(monkeypatch)
    kernel = Exponential(mu=1.3, c=0.9, a0=0.2)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    u0 = Gaussian(width=0.9, mass=1.4)
    grid = ModeGrid(2, 16, 6.0)
    T_list, t_list = [1e2, 1e3, 1e4], [0.5, 1.0]
    rep = converge_to_limit(kernel, u0, sf, T_list, t_list, 0.0, grid, n_steps=300)
    ((kernels, factors),) = seen
    assert [k.description for k in kernels] == [dilate(kernel, T).description for T in T_list]
    lams, inverse = unique_lambdas(grid)
    tg = TimeGrid(1.0, 300)
    rows = []
    for T, zs in zip(T_list, factors, strict=True):
        kT = sf.k(T)
        z = relaxation_values(dilate(kernel, T), lams * (T / kT**2), tg)
        u0_scaled = u0.hat(xi_squared=grid.xi_squared() / kT**2,
                           xi_components=[c / kT for c in grid.components()])
        for t, zt in zip(t_list, zs, strict=True):
            assert np.array_equal(zt, z[:, tg.index_of(t)])
            prof = limit_profile(0.0, grid, t, u0.mass)
            diff = u0_scaled * z[:, tg.index_of(t)][inverse] - prof.values
            rows.append((T, t, hs_norm(SpectralField(grid, diff), 0.0), hs_norm(prof, 0.0)))
    _assert_converge_rows_close(rep.rows, rows)


def test_converge_wave_beta_one_branch():
    kernel = Wave(c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=1.0)
    rep = converge_to_limit(kernel, Gaussian(), sf, [100.0, 1000.0, 10000.0],
                            [1.0], -1.0, GRID_1D)
    d = rep.distances_at(1.0)
    assert np.all(np.diff(d) < 0.0)


def test_converge_fractional_negative_beta():
    kernel = fractional(-0.5)
    sf = ScalingFunction(kernel=kernel, beta=-0.5)
    rep = converge_to_limit(kernel, Gaussian(), sf, [10.0, 100.0, 1000.0],
                            [1.0], -1.0, GRID_1D)
    d = rep.distances_at(1.0)
    assert np.all(np.diff(d) < 0.0)


def test_fractional_converge_cost_is_bounded():
    # At the default 2000 steps per unit time this solves 4001 nodes for
    # each of 457 distinct |xi|^2 and 3 T: 0.13 s on one CPU of a 2-core
    # x86-64 VM, where a step-by-step march of the same rows took 6.9 s.
    kernel = fractional(-0.4)
    sf = ScalingFunction(kernel=kernel, beta=-0.4)
    start = time.perf_counter()
    converge_to_limit(kernel, Gaussian(), sf, [1e2, 1e3, 1e4], [1.0, 2.0], -1.5,
                      ModeGrid(n=2, modes_per_axis=64, xi_max=6.0))
    assert time.perf_counter() - start < 2.0


def test_trivial_limit_exclusion():
    # The T = 1e4 rescaled field is neither ~0 nor ~constant-in-xi: its
    # distance from both degenerate profiles exceeds 10% of the
    # reference norm.
    from memdiff.spectral import SpectralField, hs_norm

    kernel = Exponential(mu=1.0, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    t = 1.0
    f = rescale_field(kernel, Gaussian(), sf, 1e4, t, GRID_1D)
    ref = hs_norm(SpectralField(GRID_1D, np.exp(-GRID_1D.xi_squared() * t)), 0.0)
    dist_zero = hs_norm(f, 0.0)
    const = SpectralField(GRID_1D, f.mass * np.ones(GRID_1D.shape))
    dist_const = hs_norm(SpectralField(GRID_1D, f.values - const.values), 0.0)
    assert dist_zero > 0.1 * ref
    assert dist_const > 0.1 * ref


def test_wrong_exponent_scaling_detected():
    # k~(t) = t^{(1+beta)/2 + 0.2} must NOT produce decreasing distances.
    kernel = Exponential(mu=1.0, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0, exponent_override=0.7)
    rep = converge_to_limit(kernel, Gaussian(), sf, [100.0, 1000.0, 10000.0],
                            [1.0], 0.0, GRID_1D)
    d = rep.distances_at(1.0)
    assert not np.all(np.diff(d) < 0.0)


def test_converge_refuses_cosine_named():
    kernel = Cosine()
    sf = ScalingFunction(kernel=Heat(1.0), beta=0.0)
    with pytest.raises(HypothesisViolation, match="regularly varying"):
        converge_to_limit(kernel, Gaussian(), sf, [10.0, 100.0], [1.0], 0.0, GRID_1D)


def test_converge_refuses_negexponential_named():
    kernel = NegExponential()
    sf = ScalingFunction(kernel=Heat(1.0), beta=0.0)
    with pytest.raises(HypothesisViolation, match="decays"):
        converge_to_limit(kernel, Gaussian(), sf, [10.0, 100.0], [1.0], 0.0, GRID_1D)


def test_converge_refuses_beta_mismatch():
    kernel = PowerLaw(beta=0.5, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.8)
    with pytest.raises(HypothesisViolation, match="does not match"):
        converge_to_limit(kernel, Gaussian(), sf, [10.0, 100.0], [1.0], -1.0, GRID_1D)


def test_converge_refuses_wrong_sobolev_branch():
    kernel = PowerLaw(beta=0.5, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.5)
    # s >= 0 requires the beta = 0 branch.
    with pytest.raises(HypothesisViolation, match="beta = 0"):
        converge_to_limit(kernel, Gaussian(), sf, [10.0, 100.0], [1.0], 0.0, GRID_1D)
    # For beta != 0, s must be < -n/2.
    with pytest.raises(HypothesisViolation, match="-n/2"):
        converge_to_limit(kernel, Gaussian(), sf, [10.0, 100.0], [1.0], -0.25, GRID_1D)


def test_relaxation_at_time_matches_direct():
    # Dilation identity at the scalar level, against a fine direct solve.
    kernel = PowerLaw(beta=0.5, c=1.0)
    lam = np.array([0.25, 1.0, 4.0])
    t = 37.0
    via_dilation = relaxation_at_time(kernel, lam, t, n_steps=4000)
    direct = relaxation_values(kernel, lam, TimeGrid(t, 40000))[:, -1]
    assert np.max(np.abs(via_dilation - direct)) < 1e-5


def test_relaxation_at_time_fractional_oracle():
    kernel = fractional(-0.5)
    lam = np.array([1.0])
    t = 1000.0
    val = relaxation_at_time(kernel, lam, t, n_steps=4000)[0]
    ref = float(np.asarray(mittag_leffler(0.5, -t**0.5)))
    assert abs(val - ref) < 1e-6


def test_relaxation_at_time_keeps_the_shape_of_lambdas():
    # A scalar lam raised TypeError: len() of unsized object.
    kernel = Exponential(mu=1.0, c=1.0)
    lams = np.array([[0.5, 2.0], [1.0, 4.0]])
    flat = relaxation_at_time(kernel, lams.ravel(), 3.0)
    assert np.array_equal(relaxation_at_time(kernel, lams, 3.0), flat.reshape(2, 2))
    z = relaxation_at_time(kernel, 2.0, 3.0)
    assert np.ndim(z) == 0 and z == flat[1]
    # NaN and inf were refused as "dilation factor T must be positive and
    # finite", which names a T the caller never passed.
    for t in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(DomainError, match="t must be finite and positive"):
            relaxation_at_time(kernel, lams, t)
    # A list raised a bare ValueError from its truth value.
    with pytest.raises(DomainError, match="t must be one time, not a list"):
        relaxation_at_time(kernel, lams, [1.0, 2.0])


def test_a_datum_that_is_not_radial_is_refused_on_a_radial_grid_past_1d():
    # A radial grid holds |xi| alone: BoxFunction(0.8) on a radial 2-D grid
    # was read as sinc(h |xi|), with hs_norm 0.6877 where the box's L2 norm
    # is 0.625, and every solve and study answered for that other datum.
    box, kernel = BoxFunction(half_width=0.8), Exponential(mu=1.0, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    for grid in (ModeGrid(2, 256, 16.0, radial=True), ModeGrid(3, 16, 4.0, radial=True)):
        for call in (lambda: box.field(grid),
                     lambda: spectral.evolve(kernel, box, grid, [1.0], TimeGrid(1.0, 10)),
                     lambda: rescaled_values(kernel, box, sf, 10.0, [1.0], grid, n_steps=10),
                     lambda: converge_to_limit(kernel, box, sf, [10.0], [1.0], 0.0, grid, n_steps=10),
                     lambda: leading_order_rate(kernel, box, [1.0], 0.0, grid, n_steps=10)):
            with pytest.raises(DomainError, match="takes radial data only; BoxFunction"):
                call()
    # In 1-D, |xi| = xi on the half line holds the even box, bit for bit.
    radial, full = ModeGrid(1, 16, 4.0, radial=True), ModeGrid(1, 32, 4.0)
    assert np.array_equal(box.field(radial).values, box.field(full).values[16:])


def test_a_datum_the_grid_cannot_hold_is_refused_before_any_solve(monkeypatch):
    # converge_to_limit and rescaled_values refused the box on a radial 2-D
    # grid only after _rescaled_fields had solved every T.
    calls = []

    def solve(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a solve ran before the datum was checked")

    monkeypatch.setattr(asymptotics, "_shell_factors", solve)
    box, kernel = BoxFunction(half_width=0.8), Exponential(mu=1.0, c=1.0)
    sf, grid = ScalingFunction(kernel=kernel, beta=0.0), ModeGrid(2, 64, 8.0, radial=True)
    with pytest.raises(DomainError, match="takes radial data only"):
        converge_to_limit(kernel, box, sf, [10.0, 100.0], [1.0], 0.0, grid, n_steps=10)
    with pytest.raises(DomainError, match="takes radial data only"):
        rescaled_values(kernel, box, sf, 10.0, [1.0], grid, n_steps=10)
    assert calls == []


def test_rate_heat_is_pure_data_spreading():
    # For the plain heat kernel u IS the comparison flow, so the residual
    # reduces to the initial-data spreading term e^{-lam t}(u0_hat - U0),
    # which makes r(t) ~ 1/t: point-mass data would give r = 0 exactly.
    rep = leading_order_rate(Heat(1.0), Gaussian(), [5.0, 20.0], 0.0, GRID_1D)
    r5, r20 = rep.r_values
    assert r20 < r5
    assert r5 / r20 == pytest.approx(4.0, rel=0.15)
    # With the spreading term removed analytically the residual is pure
    # solver error, far below the physical scales above.
    lam = GRID_1D.xi_squared()
    from memdiff.spectral import SpectralField, hs_norm
    from memdiff.asymptotics import relaxation_at_time

    lams = np.unique(lam)
    z = relaxation_at_time(Heat(1.0), lams, 5.0)
    zmap = dict(zip(lams, z))
    diff = np.vectorize(lambda l: zmap[l])(lam) - np.exp(-lam * 5.0)
    assert hs_norm(SpectralField(GRID_1D, diff), 0.0) < 1e-8


def test_rate_exponential_decreasing():
    rep = leading_order_rate(Exponential(mu=1.0, c=1.0), Gaussian(),
                             [5.0, 20.0, 80.0, 320.0], 0.0, GRID_1D)
    assert rep.A_infinity == pytest.approx(1.0)
    assert np.all(np.diff(rep.r_values) < 0.0)


def test_rate_matches_a_loop_over_t_bitwise(monkeypatch):
    # One solve for every t gives the bits of one dilated solve per t, and
    # the rows are the per-mode sums over those solves, to rounding.
    seen = _spy_shell_factors(monkeypatch)
    kernel = Exponential(mu=1.3, c=0.9, a0=0.2)
    u0 = Gaussian(width=0.9, mass=1.4)
    grid = ModeGrid(2, 16, 6.0)
    t_list = [2.0, 8.0, 32.0]
    rep = leading_order_rate(kernel, u0, t_list, 0.0, grid, n_steps=400)
    ((kernels, factors),) = seen
    assert [k.description for k in kernels] == [dilate(kernel, t).description for t in t_list]
    lams, inverse = unique_lambdas(grid)
    base = u0.field(grid).values
    rows = []
    for t, (f,) in zip(t_list, factors, strict=True):
        z = relaxation_values(dilate(kernel, t), lams * t, TimeGrid(1.0, 400))[:, -1]
        assert np.array_equal(f, z)
        w_hat = u0.mass * np.exp(-rep.A_infinity * grid.xi_squared() * t)
        dist = hs_norm(SpectralField(grid, base * z[inverse] - w_hat), 0.0)
        rows.append((t, t ** (grid.n / 4.0) * dist, dist))
    _assert_rate_rows_close(rep.rows, rows)


@dataclass
class _ShiftedGaussian(InitialData):
    """u0_hat(xi) = exp(-i xi . shift) exp(-|xi|^2 / 2): complex, and not
    radial, with mass 1."""

    shift: tuple = (0.4, -0.7)

    def hat(self, xi_squared=None, xi_components=None):
        phase = sum(c * x for c, x in zip(xi_components, self.shift))
        return np.exp(-0.5 * xi_squared - 1j * phase)


_NON_DYADIC = ModeGrid(2, 18, 5.0)
_NON_DYADIC_7 = ModeGrid(2, 18, 7.1)
_NON_DYADIC_3D = ModeGrid(3, 10, 2.9)
_RADIAL_3D = ModeGrid(3, 64, 6.0, radial=True)
_BOX = BoxFunction(half_width=0.8, mass=1.2)


@pytest.mark.parametrize("kernel, beta, u0, grid, s", [
    pytest.param(Exponential(mu=1.3, c=0.9, a0=0.2), 0.0, _BOX, _NON_DYADIC, 0.0, id="box-s0"),
    pytest.param(Exponential(mu=1.3, c=0.9, a0=0.2), 0.0, _BOX, _NON_DYADIC, 1.0, id="box-s1"),
    pytest.param(Exponential(mu=1.3, c=0.9, a0=0.2), 0.0, _ShiftedGaussian(), _NON_DYADIC, 1.0,
                 id="shifted-gaussian-s1"),
    pytest.param(Exponential(mu=1.3, c=0.9, a0=0.2), 0.0, Gaussian(width=0.9, mass=1.4),
                 _RADIAL_3D, 1.0, id="radial-3d-s1"),
    pytest.param(fractional(-0.4), -0.4, _BOX, _NON_DYADIC, -1.6, id="fractional-box"),
    pytest.param(fractional(-0.4), -0.4, _ShiftedGaussian(), _NON_DYADIC, -1.6,
                 id="fractional-shifted-gaussian"),
    pytest.param(fractional(-0.4), -0.4, Gaussian(width=0.9, mass=1.4), _RADIAL_3D, -1.6,
                 id="fractional-radial-3d"),
    pytest.param(Exponential(mu=1.3, c=0.9, a0=0.2), 0.0, Gaussian(width=0.9, mass=1.4),
                 _NON_DYADIC_7, 1.0, id="gaussian-2d-xi7.1"),
    pytest.param(fractional(-0.4), -0.4, Gaussian(width=0.9, mass=1.4), _NON_DYADIC_7, -1.6,
                 id="fractional-gaussian-2d-xi7.1"),
    pytest.param(Exponential(mu=1.3, c=0.9, a0=0.2), 0.0, Gaussian(width=0.9, mass=1.4),
                 _NON_DYADIC_3D, 1.0, id="gaussian-3d-xi2.9"),
    pytest.param(fractional(-0.4), -0.4, Gaussian(width=0.9, mass=1.4), _NON_DYADIC_3D, -1.6,
                 id="fractional-gaussian-3d-xi2.9"),
])
def test_studies_match_the_per_mode_assembly(kernel, beta, u0, grid, s):
    # The shell sums against the per-mode fields: gather z onto the modes,
    # form the rescaled datum there, and sum over the modes.  The box and
    # the shifted Gaussian are not radial, the latter complex, and dxi = 5/9
    # is not dyadic, so |xi|^2 differs from its shell's value in the last
    # bit at some modes.
    n_steps, T_list, t_list = 300, [1e2, 1e3, 1e4], [0.5, 1.0]
    lams, inverse = unique_lambdas(grid)
    field = u0.field(grid)
    assert abs(hs_norm(field, s) - _per_mode_hs(grid, field.values, s)) <= 1e-15 * hs_norm(field, s)
    sf = ScalingFunction(kernel=kernel, beta=beta)
    rep = converge_to_limit(kernel, u0, sf, T_list, t_list, s, grid, n_steps=n_steps)
    tg, rows = TimeGrid(1.0, n_steps), []
    comps = None if grid.radial else grid.components()
    for T in T_list:
        kT = sf.k(T)
        z = relaxation_values(dilate(kernel, T), lams * (T / kT**2), tg)
        u0_scaled = u0.hat(xi_squared=grid.xi_squared() / kT**2,
                           xi_components=None if comps is None else [c / kT for c in comps])
        for t in t_list:
            prof = limit_profile(beta, grid, t, u0.mass).values
            diff = u0_scaled * z[:, tg.index_of(t)][inverse] - prof
            rows.append((T, t, _per_mode_hs(grid, diff, s), _per_mode_hs(grid, prof, s)))
    _assert_converge_rows_close(rep.rows, rows)
    if beta != 0.0:
        return
    rate_t = [2.0, 8.0, 32.0]
    rate = leading_order_rate(kernel, u0, rate_t, s, grid, n_steps=n_steps)
    rows = []
    for t in rate_t:
        z = relaxation_values(dilate(kernel, t), lams * t, tg)[:, -1]
        w_hat = u0.mass * np.exp(-rate.A_infinity * grid.xi_squared() * t)
        dist = _per_mode_hs(grid, field.values * z[inverse] - w_hat, s)
        rows.append((t, t ** (grid.n / 4.0) * dist, dist))
    _assert_rate_rows_close(rate.rows, rows)


def test_studies_form_a_radial_datum_on_the_shells_alone(monkeypatch):
    # A Gaussian reads |xi|^2 alone, so each study evaluates it once per T
    # (once for the rate) on the shell values and never fits it; the rows
    # are the per-mode assembly's (test_studies_match_the_per_mode_assembly).
    # No study forms the H^s weight per mode, for a box datum either: the
    # H^s factor is taken per shell.
    grid = ModeGrid(2, 18, 7.1)
    lams = unique_lambdas(grid)[0]
    sizes = []
    hat = Gaussian.hat

    def spy(self, xi_squared=None, xi_components=None):
        sizes.append((np.size(xi_squared), xi_components))
        return hat(self, xi_squared, xi_components)

    def no_fit(*args, **kwargs):
        raise AssertionError("a radial datum was fitted")

    def no_weight(*args, **kwargs):
        raise AssertionError("a study formed the H^s weight per mode")

    monkeypatch.setattr(Gaussian, "hat", spy)
    monkeypatch.setattr(asymptotics, "_shell_fit", no_fit)
    for module in (spectral, asymptotics):  # a name imported from spectral too
        monkeypatch.setattr(module, "_hs_weights", no_weight, raising=False)
    kernel = Exponential(mu=1.3, c=0.9, a0=0.2)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    u0 = Gaussian(width=0.9, mass=1.4)
    rep = converge_to_limit(kernel, u0, sf, [1e2, 1e3, 1e4], [0.5, 1.0], 1.0, grid, n_steps=300)
    assert len(rep.rows) == 6 and sizes == [(lams.size, None)] * 3
    sizes.clear()
    rate = leading_order_rate(kernel, u0, [2.0, 8.0], 1.0, grid, n_steps=300)
    assert len(rate.rows) == 2 and sizes == [(lams.size, None)]
    assert lams.size < math.prod(grid.shape)
    monkeypatch.undo()
    for module in (spectral, asymptotics):
        monkeypatch.setattr(module, "_hs_weights", no_weight, raising=False)
    box = BoxFunction(half_width=0.8)
    rep = converge_to_limit(kernel, box, sf, [1e2, 1e3, 1e4], [0.5, 1.0], 1.0, grid, n_steps=300)
    rate = leading_order_rate(kernel, box, [2.0, 8.0], 1.0, grid, n_steps=300)
    assert len(rep.rows) == 6 and len(rate.rows) == 2


@pytest.mark.parametrize("t_list, message", [
    ([np.nan], "finite and positive"),
    ([np.inf], "finite and positive"),
    ([1.0, -2.0], "finite and positive"),
    ([[1.0, 2.0]], "1-D"),
])
def test_studies_refuse_a_t_list_that_is_not_1d_finite_and_positive(t_list, message):
    # converge_to_limit and rescale_field raised a bare ValueError for NaN
    # and OverflowError for inf, from the size of the time grid; a 2-D list
    # raised TypeError in every study.
    kernel = Exponential(mu=1.0, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    u0 = Gaussian()
    with pytest.raises(DomainError, match=message):
        converge_to_limit(kernel, u0, sf, [10.0, 100.0], t_list, 0.0, GRID_1D)
    with pytest.raises(DomainError, match=message):
        rescaled_values(kernel, u0, sf, 10.0, t_list, GRID_1D)
    with pytest.raises(DomainError, match=message):
        leading_order_rate(kernel, u0, t_list, 0.0, GRID_1D)
    if len(t_list) == 1 and np.ndim(t_list[0]) == 0:
        with pytest.raises(DomainError, match=message):
            rescale_field(kernel, u0, sf, 10.0, t_list[0], GRID_1D)


@pytest.mark.parametrize("T_list, message", [
    ([[10.0, 100.0]], "T_list must be a 1-D list"),
    ([np.inf, 1e300], "T_list must be finite and positive"),
    ([10.0, np.nan], "T_list must be finite and positive"),
    ([100.0, 10.0], "T_list must be strictly increasing"),
])
def test_converge_refuses_a_T_list_before_any_solve(monkeypatch, T_list, message):
    # A 2-D T_list raised a bare TypeError, [inf, 1e300] was refused as not
    # increasing and [10, nan] for the scaling function's t.
    def no_solve(*args, **kwargs):
        raise AssertionError("a refused T_list reached the solve")

    monkeypatch.setattr(asymptotics, "_shell_factors", no_solve)
    kernel = Exponential(mu=1.0, c=1.0)
    with pytest.raises(DomainError, match=message):
        converge_to_limit(kernel, Gaussian(), ScalingFunction(kernel=kernel, beta=0.0),
                          T_list, [1.0], 0.0, GRID_1D)


@pytest.mark.parametrize("T, message", [
    ([10.0, 20.0], "T must be one time"),
    (np.nan, "T must be finite and positive"),
    (np.inf, "T must be finite and positive"),
    (-1.0, "T must be finite and positive"),
])
def test_rescaled_values_refuse_a_T_before_any_solve(monkeypatch, T, message):
    # A list raised a bare TypeError from float(T); NaN, inf and -1 were
    # refused for the scaling function's t, not as T.
    def no_solve(*args, **kwargs):
        raise AssertionError("a refused T reached the solve")

    monkeypatch.setattr(asymptotics, "_shell_factors", no_solve)
    kernel = Exponential(mu=1.0, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    with pytest.raises(DomainError, match=message):
        rescaled_values(kernel, Gaussian(), sf, T, [1.0], GRID_1D)
    with pytest.raises(DomainError, match=message):
        rescale_field(kernel, Gaussian(), sf, T, 1.0, GRID_1D)


def test_studies_with_no_times_give_no_rows():
    # converge_to_limit raised ValueError from np.max of the empty list.
    kernel = Exponential(mu=1.0, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    for u0 in (Gaussian(), BoxFunction()):
        assert converge_to_limit(kernel, u0, sf, [10.0, 100.0], [], 0.0, GRID_1D).rows == []
        assert converge_to_limit(kernel, u0, sf, [], [1.0], 0.0, GRID_1D).rows == []
        assert rescaled_values(kernel, u0, sf, 10.0, [], GRID_1D) == []
        assert leading_order_rate(kernel, u0, [], 0.0, GRID_1D).rows == []


def test_rate_refuses_t_that_is_not_finite_and_positive():
    # NaN and inf reached the solver, which refused them as a lambda, after
    # a RuntimeWarning from numpy.
    for t_list in ([5.0, np.nan], [np.inf], [-np.inf, 5.0], [0.0]):
        with pytest.raises(DomainError, match="t_list must be finite and positive"):
            leading_order_rate(Exponential(mu=1.0, c=1.0), Gaussian(), t_list, 0.0, GRID_1D)


@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
def test_studies_refuse_a_sobolev_exponent_that_is_not_finite(s):
    # Both returned rows with no error: NaN distances for s = NaN, inf for
    # s = inf and 0.0 for s = -inf.
    kernel = Exponential(mu=1.0, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    with pytest.raises(DomainError, match="Sobolev exponent s must be finite"):
        converge_to_limit(kernel, Gaussian(), sf, [10.0, 100.0], [1.0], s, GRID_1D)
    with pytest.raises(DomainError, match="Sobolev exponent s must be finite"):
        leading_order_rate(kernel, Gaussian(), [5.0], s, GRID_1D)


def test_rate_refuses_negexponential():
    with pytest.raises(HypothesisViolation, match="A_infinity"):
        leading_order_rate(NegExponential(), Gaussian(), [5.0], 0.0, GRID_1D)


def test_rate_refuses_wave():
    # Total mass is infinite: no beta = 0 branch.
    with pytest.raises(HypothesisViolation):
        leading_order_rate(Wave(c=1.0), Gaussian(), [5.0], 0.0, GRID_1D)


def test_scaling_equivalence_identity_and_dilation():
    kernel = Exponential(mu=1.0, c=1.0)
    sf1 = ScalingFunction(kernel=kernel, beta=0.0)
    same = ScalingFunction(kernel=kernel, beta=0.0, C=1.0)
    assert scaling_equivalence_check(sf1, same, kernel, Gaussian(), 100.0, 1.0, GRID_1D)
    doubled = ScalingFunction(kernel=kernel, beta=0.0, C=2.0)
    assert scaling_equivalence_check(sf1, doubled, kernel, Gaussian(), 100.0, 1.0, GRID_1D)


def test_report_csv_roundtrip(tmp_path):
    rep = ConvergenceReport(s=0.0, U0=1.0, beta_estimate=0.0)
    rep.rows = [(10.0, 1.0, 0.5, 1.0), (100.0, 1.0, 0.25, 1.0)]
    path = tmp_path / "report.csv"
    rep.write_csv(path, metadata={"kernel": "demo"})
    text = path.read_text()
    assert text.startswith("# kernel: demo")
    assert "distance_hs" in text
    assert np.allclose(rep.distances_at(1.0), [0.5, 0.25])


def test_report_csv_writes_numpy_scalars_as_plain_numbers(tmp_path):
    # Under numpy 2, repr(np.float64(10.0)) is 'np.float64(10.0)', which no
    # CSV reader parses; every real floating cell is written as repr(float(v)).
    rep = ConvergenceReport(s=0.0, U0=1.0, beta_estimate=0.0)
    rep.rows = [(np.float64(10.0), 1.0, np.float64(0.5), 1.0),
                (100.0, np.float32(0.1), 0.25, np.float64(-0.0))]
    path = tmp_path / "report.csv"
    rep.write_csv(path)
    assert path.read_bytes().split(b"\r\n")[1:] == [
        b"10.0,1.0,0.5,1.0", b"100.0,0.10000000149011612,0.25,-0.0", b""]


def test_write_csv_formats_each_column_exactly(tmp_path):
    floats = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 0.1, -0.0, 0.0])
    ints = np.arange(len(floats)) - 3
    words = ["a"] * len(floats)
    # Mixed int and float cells keep str for the ints.
    mixed = ((10, 2.5, np.float64(3.0), "x") * 3)[:len(floats)]
    mixed_words = (["10", "2.5", "3.0", "x"] * 3)[:len(floats)]
    path = tmp_path / "columns.csv"
    _write_csv(path, ["# note: columns"], ["x", "n", "x_tuple", "n_list", "word", "mixed"],
               [floats, ints, tuple(floats.tolist()), ints.tolist(), words, mixed])
    expected = "# note: columns\nx,n,x_tuple,n_list,word,mixed\r\n" + "".join(
        f"{x!r},{n},{x!r},{n},a,{m}\r\n"
        for x, n, m in zip(floats.tolist(), ints.tolist(), mixed_words))
    assert path.read_bytes() == expected.encode()
    lines = path.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[2:]] == [
        "-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "1e+308", "0.1", "-0.0", "0.0"]
    assert [line.split(",")[-1] for line in lines[2:]] == mixed_words
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "short.csv", [], ["x", "n"], [floats, ints[:-1]])


def test_empty_report_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    ConvergenceReport(s=0.0, U0=1.0, beta_estimate=0.0).write_csv(path, {"kernel": "demo"})
    assert path.read_bytes() == b"# kernel: demo\nT,t,distance_hs,reference_norm\r\n"


@given(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1), max_size=40))
@settings(max_examples=200, deadline=None)
def test_column_text_is_repr_of_every_bit_pattern(bits):
    values = np.array(bits + bits[::-1], dtype=np.int64).view(np.float64)
    words, codes = _column_words(values)
    assert [words[c] for c in codes] == [repr(float(x)) for x in values.tolist()]
