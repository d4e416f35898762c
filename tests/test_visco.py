"""Helmholtz projectors, viscoelastic evolution, and the Stokes limit."""

import itertools
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdiff.errors import DomainError, HypothesisViolation
from memdiff.kernels import Exponential, Heat, Wave, dilate
from memdiff import spectral, visco, volterra
from memdiff.spectral import Gaussian, ModeGrid, evolve, unique_lambdas
from memdiff.visco import (
    PROJECTOR_TOL,
    VectorGaussian,
    VectorSpectralField,
    ViscoKernelPair,
    evolve_visco,
    project_P,
    project_Q,
    stokes_fundamental,
    stokes_gradient_part_real,
    vector_hs_norm,
    visco_asymptotics,
)
from memdiff.volterra import TimeGrid, relaxation_values

GRID = ModeGrid(n=3, modes_per_axis=12, xi_max=3.0)


def _random_field(seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((3,) + GRID.shape) + 1j * rng.standard_normal((3,) + GRID.shape)
    return VectorSpectralField(GRID, vals)


def test_vector_field_shape_validation():
    with pytest.raises(DomainError):
        VectorSpectralField(GRID, np.zeros((2,) + GRID.shape, dtype=complex))
    with pytest.raises(DomainError):
        VectorSpectralField(ModeGrid(n=2, modes_per_axis=4, xi_max=1.0),
                            np.zeros((3, 5, 5), dtype=complex))


def test_axis_aligned_projector_example():
    # At xi = (1,0,0): P(1,2,3) = (1,0,0), Q(1,2,3) = (0,2,3).
    f = _random_field()
    vals = np.zeros((3,) + GRID.shape, dtype=complex)
    i0 = GRID.zero_index()
    idx = (i0[0] + 2, i0[1], i0[2])  # xi = (1, 0, 0)
    for c, v in enumerate((1.0, 2.0, 3.0)):
        vals[(c,) + idx] = v
    f = VectorSpectralField(GRID, vals)
    p = project_P(f)
    q = project_Q(f)
    assert np.allclose([p.values[(c,) + idx] for c in range(3)], [1.0, 0.0, 0.0])
    assert np.allclose([q.values[(c,) + idx] for c in range(3)], [0.0, 2.0, 3.0])


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_projector_algebra(seed):
    f = _random_field(seed)
    p = project_P(f)
    q = project_Q(f)
    # P + Q = I.
    assert np.max(np.abs(p.values + q.values - f.values)) < PROJECTOR_TOL * 10
    # Idempotence and mutual annihilation, entrywise to 1e-14ish.
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(project_P(p).values - p.values)) < 1e-13 * scale
    assert np.max(np.abs(project_Q(q).values - q.values)) < 1e-13 * scale
    assert np.max(np.abs(project_Q(p).values)) < 1e-13 * scale
    assert np.max(np.abs(project_P(q).values)) < 1e-13 * scale


def test_projector_divergence_and_curl():
    f = _random_field(3)
    p = project_P(f)
    q = project_Q(f)
    c1, c2, c3 = GRID.components()
    # xi . q = 0 (divergence-free part).
    div = c1 * q.values[0] + c2 * q.values[1] + c3 * q.values[2]
    assert np.max(np.abs(div)) < 1e-12
    # xi x p = 0 (curl-free part).
    curl = np.stack([
        c2 * p.values[2] - c3 * p.values[1],
        c3 * p.values[0] - c1 * p.values[2],
        c1 * p.values[1] - c2 * p.values[0],
    ])
    assert np.max(np.abs(curl)) < 1e-12


def test_zero_mode_convention():
    f = _random_field(5)
    idx = (slice(None),) + GRID.zero_index()
    p = project_P(f)
    q = project_Q(f)
    assert np.allclose(p.values[idx], f.values[idx])
    assert np.allclose(q.values[idx], 0.0)


def test_mode_grid_arrays_are_built_once_and_read_only():
    # The arrays are shared by every caller of the grid, so _split, which
    # sets the centre of its divisor |xi|^2 to 1, must work on a copy.
    grid = ModeGrid(n=3, modes_per_axis=8, xi_max=3.0)
    lam, comps, weights = grid.xi_squared(), grid.components(), grid.trapezoid_weights()
    assert lam is grid.xi_squared() and comps is grid.components()
    assert weights is grid.trapezoid_weights()
    for a in (lam, *comps, weights):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0, 0] = 1.0
    ax = grid.axis
    ref_comps = np.meshgrid(ax, ax, ax, indexing="ij")
    ref_lam = ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax**2
    assert np.array_equal(lam, ref_lam) and all(map(np.array_equal, comps, ref_comps))
    w1 = np.array([0.5] + [1.0] * (len(ax) - 2) + [0.5])
    assert np.array_equal(weights, np.multiply.outer(np.multiply.outer(w1, w1), w1))
    rng = np.random.default_rng(3)
    v = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal((3,) + grid.shape)
    center = grid.zero_index()
    safe = ref_lam.copy()
    safe[center] = 1.0
    c = sum(ref_comps[d] * v[d] for d in range(3)) / safe
    p = np.stack([ref_comps[d] * c for d in range(3)])
    p[(slice(None),) + center] = v[(slice(None),) + center]
    for _ in range(2):
        got = visco._split(grid, v)
        assert all(map(np.array_equal, got, (c, p, v - p)))
    assert lam[center] == 0.0
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(0.5))
    v0 = VectorGaussian(mass_vector=(1.0, -0.5, 2.0))
    fresh = visco_asymptotics(pair, v0, [2.0, 8.0], -2.0, ModeGrid(3, 8, 3.0), n_steps=400)
    for _ in range(2):
        rep = visco_asymptotics(pair, v0, [2.0, 8.0], -2.0, grid, n_steps=400)
        assert rep.rows == fresh.rows


def test_vector_gaussian_mass_vector():
    v0 = VectorGaussian(width=1.0, mass_vector=(1.0, -2.0, 0.5))
    f = v0.field(GRID)
    assert np.allclose(f.mass_vector, [1.0, -2.0, 0.5])


def test_evolve_visco_time_zero_exact():
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(a0=0.5))
    v0 = VectorGaussian()
    tg = TimeGrid(1.0, 100)
    (f,) = evolve_visco(pair, v0, GRID, [0.0], tg)
    assert np.max(np.abs(f.values - v0.field(GRID).values)) < 1e-14


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_evolve_visco_refuses_a_time_that_is_not_finite(t):
    # As for evolve: a bare ValueError for NaN and OverflowError for inf.
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(a0=0.5))
    with pytest.raises(DomainError, match="not a node"):
        evolve_visco(pair, VectorGaussian(), GRID, [t], TimeGrid(1.0, 10))


def test_evolve_visco_momentum_conserved():
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(a0=0.5))
    v0 = VectorGaussian(mass_vector=(1.0, 2.0, 3.0))
    tg = TimeGrid(2.0, 400)
    for f in evolve_visco(pair, v0, GRID, [1.0, 2.0], tg):
        assert np.allclose(f.mass_vector, [1.0, 2.0, 3.0], atol=1e-14)


def test_evolve_visco_preserves_divergence_free_subspace():
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(a0=0.5))
    v0 = VectorGaussian(mass_vector=(1.0, 0.0, 0.0))
    tg = TimeGrid(2.0, 400)
    c1, c2, c3 = GRID.components()
    for f in evolve_visco(pair, v0, GRID, [1.0, 2.0], tg):
        q = project_Q(f)
        div = c1 * q.values[0] + c2 * q.values[1] + c3 * q.values[2]
        assert np.max(np.abs(div)) < 1e-12
        p = project_P(f)
        curl = c2 * p.values[2] - c3 * p.values[1]
        assert np.max(np.abs(curl)) < 1e-12


def test_evolve_visco_matches_independent_scalar_solves():
    # p and q parts each follow a scalar relaxation; verify against
    # independent per-projector solves.
    from memdiff.volterra import relaxation_values
    from memdiff.spectral import unique_lambdas

    shear = Exponential(mu=1.0, c=1.0)
    bulk = Exponential(mu=2.0, c=0.5)
    pair = ViscoKernelPair(shear, bulk)
    v0 = VectorGaussian(mass_vector=(1.0, -1.0, 0.5))
    tg = TimeGrid(1.0, 500)
    (f,) = evolve_visco(pair, v0, GRID, [1.0], tg)
    base = v0.field(GRID)
    from memdiff.visco import project_P as P, project_Q as Q

    lams, inverse = unique_lambdas(GRID)
    z1 = relaxation_values(pair.beta_kernel, lams, tg)[:, -1][inverse]
    z = relaxation_values(shear, lams, tg)[:, -1][inverse]
    ref = P(base).values * z1[None] + Q(base).values * z[None]
    assert np.max(np.abs(f.values - ref)) < 1e-14


def test_evolve_visco_consistent_with_scalar_module():
    # bulk = -shear/2 makes beta_kernel = shear, so every component
    # follows the scalar evolution with the shear kernel.
    shear = Heat(a0=1.0)
    bulk = Heat(a0=0.5)
    # beta = (4*1 + 2*0.5)/3 = 5/3; instead pick shear=bulk -> beta = 2*shear.
    shear = Exponential(mu=1.0, c=1.0, a0=1.0)
    pair = ViscoKernelPair(shear, shear)
    assert np.allclose(pair.beta_kernel.a0, 2.0 * shear.a0)
    v0 = VectorGaussian(width=1.0, mass_vector=(0.0, 1.0, 0.0))
    tg = TimeGrid(1.0, 500)
    (f,) = evolve_visco(pair, v0, GRID, [1.0], tg)
    # Component-wise scalar evolution mixes P and Q parts, so compare on
    # a divergence-free slice only: take Q of the initial data evolved by
    # the shear kernel.
    (scalar,) = evolve(shear, Gaussian(width=1.0, mass=1.0), GRID, [1.0], tg)
    base = v0.field(GRID)
    q0 = project_Q(base)
    qf = project_Q(f)
    ref = q0.values * (scalar.values / Gaussian(width=1.0).field(GRID).values)[None]
    assert np.max(np.abs(qf.values - ref)) < 1e-10


def test_validate_refuses_bad_shear():
    pair = ViscoKernelPair(Exponential(mu=1.0, c=-2.0, a0=1.0), Heat(0.5))
    with pytest.raises(HypothesisViolation, match="shear"):
        pair.validate()


def test_effective_viscosities():
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(a0=0.5))
    A, B = pair.effective_viscosities()
    assert A == pytest.approx(1.0)
    assert B == pytest.approx(4.0 / 3.0 * 1.0 + 2.0 / 3.0 * 0.5)


def test_stokes_fundamental_equal_viscosities_is_heat():
    t = 0.8
    W = stokes_fundamental(1.0, 1.0, GRID, t, (1.0, 2.0, 3.0))
    lam = GRID.xi_squared()
    for c, v in enumerate((1.0, 2.0, 3.0)):
        assert np.max(np.abs(W.values[c] - v * np.exp(-lam * t))) < 1e-12


def test_stokes_fundamental_projector_split():
    t = 0.5
    A, B = 1.0, 2.0
    V0 = (1.0, 0.0, 0.0)
    W = stokes_fundamental(A, B, GRID, t, V0)
    # At a mode with xi parallel to V0 only the B factor survives on the
    # parallel component.
    i0 = GRID.zero_index()
    idx = (i0[0] + 2, i0[1], i0[2])  # xi = (1,0,0)
    assert abs(W.values[(0,) + idx] - np.exp(-B * t)) < 1e-12
    assert abs(W.values[(1,) + idx]) < 1e-14


def test_stokes_real_space_gradient_part():
    # Synthesized gradient part of the Fourier-side fundamental solution
    # against the Erf-potential derivatives, at sample points away from
    # the origin.
    import itertools

    from memdiff.spectral import evaluate_at, SpectralField

    t = 1.0
    g = ModeGrid(n=3, modes_per_axis=24, xi_max=6.0)
    c1, c2, c3 = g.components()
    lam = g.xi_squared()
    comps = (c1, c2, c3)
    center = g.zero_index()
    safe = lam.copy()
    safe[center] = 1.0
    pts = [np.array(p) for p in itertools.product((-1.2, -0.6, 0.7, 1.5), repeat=3)][:20]
    for i, j in ((0, 0), (0, 1), (2, 1)):
        vals = comps[i] * comps[j] / safe * np.exp(-lam * t)
        vals = vals.astype(complex)
        if i == j:
            vals[center] = 1.0  # P(0) = I convention
        field = SpectralField(g, vals)
        fvals = evaluate_at(field, pts).real
        ref = np.array([stokes_gradient_part_real(p, t)[i, j] for p in pts])
        assert np.max(np.abs(fvals - ref)) < 1e-3


def _stokes_gradient_part_mpmath(x, t):
    """-d_i d_j of erf(|x|/sqrt(4t)) / (4 pi |x|) by mpmath differentiation."""
    s = mpmath.sqrt(4 * mpmath.mpf(t))

    def phi(*y):
        r = mpmath.sqrt(sum(v * v for v in y))
        return 1 / (2 * mpmath.pi**1.5 * s) if r == 0 else mpmath.erf(r / s) / (4 * mpmath.pi * r)

    out = np.empty((3, 3))
    with mpmath.workdps(40):
        for i, j in itertools.product(range(3), repeat=2):
            order = [0, 0, 0]
            order[i] += 1
            order[j] += 1
            out[i, j] = -float(mpmath.diff(phi, [mpmath.mpf(v) for v in x], tuple(order)))
    return out


@pytest.mark.parametrize("t", [1.0, 0.25])
def test_stokes_gradient_part_is_the_exact_hessian(t):
    # The demo's points, the origin, |x| = 1e-9, the series/closed-form switch
    # at |x|^2 = 2t, and a far point.
    pts = [(0.5, 0.5, 0.0), (1.0, -0.5, 0.3), (-1.2, 0.8, 1.1), (0.0, 0.0, 0.0),
           (0.6e-9, -0.8e-9, 0.0), (np.sqrt(2.0 * t), 0.0, 0.0), (3.0, -2.0, 4.0)]
    for p in pts:
        ref = _stokes_gradient_part_mpmath(p, t)
        assert np.max(np.abs(stokes_gradient_part_real(np.array(p), t) - ref)) < 1e-13


def test_stokes_gradient_series_is_numpy_polynomial_bitwise():
    # The tabulated derivatives of the erf potential, evaluated by np.polyval,
    # give the bits of numpy.polynomial's polyval(u, polyder(series, m)).
    from numpy.polynomial.polynomial import polyder, polyval

    for m, coef in ((1, visco._ERF_POTENTIAL_D1), (2, visco._ERF_POTENTIAL_D2)):
        ref = polyder(visco._ERF_POTENTIAL_SERIES, m)
        assert np.array_equal(coef.view(np.int64), ref.view(np.int64))
        for u in np.linspace(0.0, 0.5, 201)[:-1]:
            got, want = np.polyval(coef[::-1], u), polyval(u, ref)
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def test_visco_rate_decreasing_exponential_pair():
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Exponential(mu=1.0, c=0.5))
    v0 = VectorGaussian(mass_vector=(1.0, 0.0, 0.0))
    rep = visco_asymptotics(pair, v0, [2.0, 8.0, 32.0], -2.0, GRID)
    assert np.all(np.diff(rep.r_values) < 0.0)
    assert not rep.degenerate_mass


def test_visco_rate_matches_a_loop_over_t_bitwise(monkeypatch):
    # One solve for both kernels and every t gives the bits of one per
    # kernel and t.
    seen = []

    def spy(kernels, *args):
        seen.append((kernels, spectral._shell_factors(kernels, *args)))
        return seen[-1][1]

    monkeypatch.setattr(visco, "_shell_factors", spy)
    pair = ViscoKernelPair(Exponential(mu=1.1, c=1.2, a0=0.3), Heat(0.5))
    t_list = [5.0, 20.0, 80.0]
    visco_asymptotics(pair, VectorGaussian(), t_list, -2.0, GRID, n_steps=500)
    ((kernels, factors),) = seen
    # The sum kernel compares by identity, so the dilations are compared by
    # their descriptions, which name every parameter.
    assert [k.description for k in kernels] == [
        dilate(k, t).description for k in (pair.beta_kernel, pair.shear) for t in t_list
    ]
    lams = unique_lambdas(GRID)[0]
    tg = TimeGrid(1.0, 500)
    for kernel, t, (f,) in zip((pair.beta_kernel,) * 3 + (pair.shear,) * 3, t_list * 2, factors,
                               strict=True):
        z = relaxation_values(dilate(kernel, t), lams * t, tg)[:, -1]
        assert np.array_equal(f, z)


@pytest.mark.parametrize(
    "pair, layouts",
    [(ViscoKernelPair(Exponential(mu=1.1, c=1.2, a0=0.3), Heat(0.5)), 1),
     (ViscoKernelPair(Exponential(mu=1.0, c=1.0), Exponential(mu=3.0, c=0.5)), 2)],
    ids=["one-layout", "two-layouts"],
)
def test_visco_entry_points_make_one_solve(pair, layouts, monkeypatch):
    # Both relaxations, at every t, go through one _solve_nodes call.  The
    # gradient-part kernel of two Exponentials of distinct rates has two
    # memory states and the shear kernel one, so that call makes two calls
    # of the exact path; Exponential + Heat has one state in both kernels.
    solves, exact_calls = [], []
    solve_nodes, exact_values = spectral._solve_nodes, volterra._exact_values

    def solve_spy(*args, **kwargs):
        solves.append(args)
        return solve_nodes(*args, **kwargs)

    def exact_spy(*args):
        exact_calls.append(args)
        return exact_values(*args)

    monkeypatch.setattr(spectral, "_solve_nodes", solve_spy)
    monkeypatch.setattr(volterra, "_exact_values", exact_spy)
    v0 = VectorGaussian(mass_vector=(1.0, -0.5, 2.0))
    visco_asymptotics(pair, v0, [2.0, 8.0, 32.0], -2.0, GRID, n_steps=400)
    assert len(solves) == 1 and len(exact_calls) == layouts
    evolve_visco(pair, v0, GRID, [0.5, 1.0], TimeGrid(1.0, 100))
    assert len(solves) == 2 and len(exact_calls) == 2 * layouts


def test_visco_rate_refuses_t_that_is_not_finite_and_positive():
    # NaN and inf reached the solver, which refused them as a lambda, after
    # a RuntimeWarning from numpy.
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(0.5))
    for t_list in ([2.0, np.nan], [np.inf], [-np.inf, 2.0], [0.0]):
        with pytest.raises(DomainError, match="t_list must be finite and positive"):
            visco_asymptotics(pair, VectorGaussian(), t_list, -2.0, GRID)


def test_visco_rate_refuses_a_t_list_that_is_not_1d():
    # A 2-D list raised TypeError from float() in the per-t loop.
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(0.5))
    with pytest.raises(DomainError, match="1-D"):
        visco_asymptotics(pair, VectorGaussian(), [[2.0, 8.0]], -2.0, GRID)
    assert visco_asymptotics(pair, VectorGaussian(), [], -2.0, GRID).rows == []


@pytest.mark.parametrize("grid", [ModeGrid(2, 8, 3.0), ModeGrid(3, 8, 3.0, radial=True),
                                  ModeGrid(1, 8, 3.0)], ids=["2d", "radial-3d", "1d"])
def test_visco_rate_refuses_a_grid_that_is_not_full_3d(grid):
    # The datum is a 3-vector per mode of a full 3-D grid; other grids
    # must be refused with the message of VectorSpectralField, not fail
    # inside numpy while the constant V0 field is broadcast.
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(0.5))
    for v0 in (VectorGaussian(), _ShiftedVectorGaussian()):
        with pytest.raises(DomainError, match="vector fields require a full 3-D grid"):
            visco_asymptotics(pair, v0, [2.0], -2.0, grid)


@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
def test_visco_rate_and_vector_norm_refuse_a_sobolev_exponent_that_is_not_finite(s):
    # The rate study returned NaN distances for s = NaN and inf, and 0.0
    # for s = -inf, with no error.
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(0.5))
    with pytest.raises(DomainError, match="Sobolev exponent s must be finite"):
        visco_asymptotics(pair, VectorGaussian(), [2.0], s, GRID)
    with pytest.raises(DomainError, match="Sobolev exponent s must be finite"):
        vector_hs_norm(_random_field(), s)


@pytest.mark.parametrize(
    "V0, grid",
    [((np.nan, 0.0, 0.0), GRID), ((1.0, np.inf, 0.0), GRID), ((1.0, 0.0), GRID),
     ((1.0, 0.0, 0.0), ModeGrid(2, 4, 1.0)), ((1.0, 0.0, 0.0), ModeGrid(3, 4, 1.0, radial=True))],
    ids=["V0-nan", "V0-inf", "V0-length-2", "grid-2d", "grid-radial-3d"],
)
def test_stokes_fundamental_refuses_a_mass_vector_or_grid_it_cannot_use(V0, grid):
    # A NaN or inf V0 gave a field of NaNs with no error, and the others
    # raised a bare numpy ValueError from the broadcast.
    with pytest.raises(DomainError, match="mass_vector must be 3 finite reals|full 3-D grid"):
        stokes_fundamental(1.0, 2.0, grid, 0.5, V0)


@pytest.mark.parametrize(
    "x, t",
    [((1.0, 0.0, 0.0), 0.0), ((1.0, 0.0, 0.0), -1.0), ((1.0, 0.0, 0.0), np.nan),
     ((1.0, 0.0, 0.0), np.inf), ((1.0, 0.0, 0.0), [1.0, 2.0]), ((np.nan, 0.0, 0.0), 1.0),
     ((1.0, np.inf, 0.0), 1.0), ((1.0, 0.0), 1.0)],
    ids=["t-0", "t-negative", "t-nan", "t-inf", "t-list", "x-nan", "x-inf", "x-length-2"],
)
def test_stokes_gradient_part_real_refuses_a_point_or_time_it_cannot_use(x, t):
    # t = 0 raised a bare ZeroDivisionError and t = -1 a bare "math domain
    # error"; a NaN gave a matrix of NaNs with no error, and an x of length
    # 2 a bare numpy broadcast ValueError.
    with pytest.raises(DomainError, match="x must be 3 finite reals|one finite positive time"):
        stokes_gradient_part_real(x, t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("which", ["A", "B", "t"])
def test_stokes_fundamental_refuses_values_that_are_not_finite_and_positive(which, bad):
    # NaN and inf passed the check and gave a non-finite field.
    args = {"A": 1.0, "B": 2.0, "t": 0.5, which: bad}
    with pytest.raises(DomainError, match="finite"):
        stokes_fundamental(args["A"], args["B"], GRID, args["t"], (1.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "width, mass_vector",
    [(np.nan, (1.0, 0.0, 0.0)), (np.inf, (1.0, 0.0, 0.0)), (0.0, (1.0, 0.0, 0.0)),
     (1.0, (1.0, np.nan, 0.0)), (1.0, (np.inf, 0.0, 0.0)), (1.0, (1.0, 0.0)),
     (1.0, ((1.0, 0.0, 0.0),)), (1.0, ("x", 0.0, 0.0)), (1.0, (1j, 0.0, 0.0))],
)
def test_vector_gaussian_refuses_a_datum_that_is_not_3_finite_reals(width, mass_vector):
    # A NaN or inf width or mass was accepted and gave a non-finite field;
    # a mass vector of the wrong shape was refused only by the field.
    with pytest.raises(DomainError):
        VectorGaussian(width=width, mass_vector=mass_vector)


class _GaussianSum:
    """v0_hat(xi) = sum of V exp(-width^2 |xi|^2 / 2 - i xi . shift) over
    its terms (V, width, shift), V complex: no product of a vector and one
    scalar field, and complex at xi = 0 when some V is."""

    def __init__(self, *terms):
        self.terms = terms

    def field(self, grid):
        comps, lam = grid.components(), grid.xi_squared()
        return VectorSpectralField(grid, sum(
            np.asarray(V, dtype=complex)[:, None, None, None]
            * np.exp(-0.5 * width**2 * lam - 1j * sum(c * x for c, x in zip(comps, shift)))
            for V, width, shift in self.terms))


@dataclass
class _ShiftedVectorGaussian(VectorGaussian):
    """v0_hat(xi) = V0 exp(-width^2 |xi|^2 / 2) exp(-i xi . shift): a
    VectorGaussian moved off the origin, so not radial."""

    shift: tuple = (0.4, -0.7, 0.2)
    radial = False

    def field(self, grid):
        phase = np.exp(-1j * sum(c * x for c, x in zip(grid.components(), self.shift)))
        return VectorSpectralField(grid, super().field(grid).values * phase[None])


_ASSEMBLY_DATA = {
    "vector_gaussian": VectorGaussian(width=1.0, mass_vector=(0.3, -0.5, 0.8)),
    "shifted_vector_gaussian": _ShiftedVectorGaussian(width=1.0, mass_vector=(0.3, -0.5, 0.8)),
    "sum_of_two": _GaussianSum(((1.0, 0.5, -2.0), 0.8, (0.0, 0.0, 0.0)),
                               ((-0.3, 1.0, 0.2), 1.4, (0.0, 0.0, 0.0))),
    "complex_at_zero": _GaussianSum(((1.0 + 0.5j, -0.2j, 0.3), 1.0, (0.4, -0.7, 0.2)),
                                    ((0.0, 1.0, 0.0), 0.6, (0.0, 0.0, 0.0))),
    "zero_mass": _GaussianSum(((1.0, 0.5, -2.0), 0.8, (0.0, 0.0, 0.0)),
                              ((-1.0, -0.5, 2.0), 1.4, (0.0, 0.0, 0.0))),
}


@pytest.mark.parametrize("v0, grid, s", [
    pytest.param(v0, grid, s, id=name + suffix + ("" if s == -2.0 else f"-s{s:g}"))
    for s in (-2.0, 0.0, 1.0)
    for suffix, grid in (("", GRID), ("-non_dyadic", ModeGrid(3, 10, 3.0)),
                         ("-xi2.9", ModeGrid(3, 10, 2.9)))
    for name, v0 in _ASSEMBLY_DATA.items()
])
def test_visco_rate_matches_the_vector_field_assembly(v0, grid, s):
    # The per-shell sums against 3-vector fields: project the datum, build
    # the Stokes field, take the componentwise Hs norms.  On the non-dyadic
    # grid |xi|^2 differs from its shell value in the last bit at some
    # modes; the zero-mass datum has no Stokes target, so every shell's
    # coefficient against it is 0.  s enters every datum's sums through
    # the H^s factor per shell.
    pair = ViscoKernelPair(Exponential(mu=1.1, c=1.2, a0=0.3), Heat(0.5))
    t_list = [5.0, 20.0, 80.0]
    rep = visco_asymptotics(pair, v0, t_list, s, grid, n_steps=500)
    lams, inverse = unique_lambdas(grid)
    base = v0.field(grid)
    tg = TimeGrid(1.0, 500)
    for t, (t_row, r, dist) in zip(t_list, rep.rows, strict=True):
        z1 = relaxation_values(dilate(pair.beta_kernel, t), lams * t, tg)[:, -1][inverse]
        z = relaxation_values(dilate(pair.shear, t), lams * t, tg)[:, -1][inverse]
        v_hat = project_P(base).values * z1[None] + project_Q(base).values * z[None]
        w = stokes_fundamental(rep.A, rep.B, grid, t, base.mass_vector)
        ref = vector_hs_norm(VectorSpectralField(grid, v_hat - w.values), s)
        assert t_row == t and r == t**0.75 * dist
        assert abs(dist - ref) <= 1e-14 * ref


@pytest.mark.parametrize("v0, splits, fields", [
    pytest.param(VectorGaussian(width=1.0, mass_vector=(0.3, -0.5, 0.8)), 0, 0, id="radial"),
    pytest.param(_ShiftedVectorGaussian(width=1.0, mass_vector=(0.3, -0.5, 0.8)), 3, 1,
                 id="shifted"),
])
def test_visco_rate_splits_only_v0_for_a_radial_datum(monkeypatch, v0, splits, fields):
    # A VectorGaussian is V0 times an envelope of |xi|^2: the study never
    # forms the datum on the modes, and takes G and H of V0 in closed form
    # from the shell weights, with no split.  The shifted datum takes the
    # general path: its field, and the splits of V0 and of the datum's real
    # and imaginary parts.  Neither forms the H^s weight per mode: the H^s
    # factor is taken per shell.
    seen, formed = [], []
    split, field = visco._split, type(v0).field

    def spy_split(grid, v):
        seen.append(np.array(v))
        return split(grid, v)

    def no_weight(*args, **kwargs):
        raise AssertionError("the study formed the H^s weight per mode")

    def spy_field(self, grid):
        formed.append(grid)
        return field(self, grid)

    monkeypatch.setattr(visco, "_split", spy_split)
    for module in (spectral, visco):  # a name imported from spectral too
        monkeypatch.setattr(module, "_hs_weights", no_weight, raising=False)
    monkeypatch.setattr(type(v0), "field", spy_field)
    grid = ModeGrid(3, 10, 2.9)
    rep = visco_asymptotics(ViscoKernelPair(Exponential(mu=1.1, c=1.2, a0=0.3), Heat(0.5)),
                            v0, [5.0, 20.0], -2.0, grid, n_steps=500)
    assert len(rep.rows) == 2 and len(seen) == splits and len(formed) == fields
    V0 = np.asarray(v0.mass_vector)[:, None, None, None]
    assert not seen or np.array_equal(seen[0], np.broadcast_to(V0, (3,) + grid.shape))


@pytest.mark.parametrize("s", [-2.0, 0.0, 1.0])
@pytest.mark.parametrize("grid", [ModeGrid(3, 16, 8.0), ModeGrid(3, 10, 2.9), ModeGrid(3, 14, 4.3)],
                         ids=["N16", "N10-xi2.9", "N14-xi4.3"])
def test_closed_form_v0_sums_match_the_split(grid, s):
    # The lattice is symmetric under permutations and sign flips of the
    # axes, so sum w xi xi^T = (lam Y / 3) I on each shell: G = |V0|^2 Y / 3
    # and H = 2 G for lam > 0, both 0 at xi = 0, against the sums of the
    # split of the constant field V0 under the per-mode weight.
    V0 = np.array([0.3, -0.5, 0.8])
    weight = spectral._hs_weights(grid, s)
    c_V, _, q_V = visco._split(grid, np.broadcast_to(V0[:, None, None, None], (3,) + grid.shape))
    lams, inverse = unique_lambdas(grid)
    G_split = np.bincount(inverse.ravel(), (weight * grid.xi_squared() * c_V**2).ravel(), len(lams))
    H_split = np.bincount(inverse.ravel(), (weight * np.sum(q_V**2, axis=0)).ravel(), len(lams))
    Y = spectral._shell_weights(grid, s)[1]
    G = V0 @ V0 / 3.0 * Y
    assert G_split[0] == 0.0 and H_split[0] == 0.0
    np.testing.assert_allclose(G[1:], G_split[1:], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(2.0 * G[1:], H_split[1:], rtol=1e-14, atol=0.0)


def test_visco_rate_flags_degenerate_mass():
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(0.5))
    v0 = VectorGaussian(mass_vector=(0.0, 0.0, 0.0))
    rep = visco_asymptotics(pair, v0, [2.0], -2.0, GRID)
    assert rep.degenerate_mass


def test_visco_rate_scales_a_tiny_mass_linearly():
    # Only a zero mass vector is degenerate: np.allclose(V0, 0) flagged
    # 1e-9, whose distances are 1e-9 of those at mass 1.
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(0.5))
    unit = visco_asymptotics(pair, VectorGaussian(mass_vector=(1.0, 0.0, 0.0)), [2.0, 8.0], -2.0, GRID)
    tiny = visco_asymptotics(pair, VectorGaussian(mass_vector=(1e-9, 0.0, 0.0)), [2.0, 8.0], -2.0, GRID)
    assert not tiny.degenerate_mass
    for (_, _, d_unit), (_, _, d_tiny) in zip(unit.rows, tiny.rows, strict=True):
        assert d_tiny == pytest.approx(1e-9 * d_unit, rel=1e-13)


def test_visco_rate_refuses_infinite_viscosity():
    pair = ViscoKernelPair(Wave(c=1.0), Heat(0.5))
    v0 = VectorGaussian()
    with pytest.raises(HypothesisViolation, match="not finite"):
        visco_asymptotics(pair, v0, [2.0], -2.0, GRID)


def test_visco_rate_is_exact_on_a_grid_too_coarse_for_a_march():
    # 300 steps on [0, 80] left the product-integration march unstable at
    # lam up to 108: |z| reached 1e31 and the distance came back as 2.1e4.
    # The exact path takes no time step, so the rows at 300 and 500 steps
    # agree to rounding.
    pair = ViscoKernelPair(Exponential(mu=1.27, c=1.93, a0=0.07), Heat(0.5))
    v0 = VectorGaussian(1.0, (1.0, 0.0, 0.0))
    grid = ModeGrid(3, 16, 6.0)
    coarse = visco_asymptotics(pair, v0, [80.0], -2.0, grid, n_steps=300)
    rep = visco_asymptotics(pair, v0, [80.0], -2.0, grid, n_steps=500)
    for a, b in zip(coarse.rows[0], rep.rows[0]):
        assert abs(a - b) <= 1e-12 * abs(b)
    assert rep.rows[0][2] < 1e-12


def test_vector_hs_norm_homogeneity():
    f = _random_field(11)
    n1 = vector_hs_norm(f, -1.0)
    n2 = vector_hs_norm(VectorSpectralField(GRID, 3.0 * f.values), -1.0)
    assert abs(n2 - 3.0 * n1) < 1e-10 * n1
