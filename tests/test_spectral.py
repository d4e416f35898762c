"""Fourier-side evolution, norms, synthesis, and limit profiles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from memdiff.asymptotics import ScalingFunction, converge_to_limit
from memdiff.errors import DomainError, HypothesisViolation, PrecisionLossError, StepSizeError
from memdiff.kernels import Cosine, Exponential, Heat, NegExponential, PowerLaw, Wave, dilate, fractional
from memdiff.specfun import gamma, mittag_leffler
from memdiff import spectral
from memdiff.spectral import (
    BoxFunction,
    Gaussian,
    ModeGrid,
    SpectralField,
    _mode_factors,
    evaluate_at,
    evolve,
    hs_norm,
    limit_profile,
    synthesize,
    unique_lambdas,
)
from memdiff.volterra import TimeGrid, _solve_nodes, relaxation_values


def test_mode_grid_includes_zero_and_endpoints():
    g = ModeGrid(n=1, modes_per_axis=8, xi_max=4.0)
    assert g.dxi == 1.0
    assert g.axis[0] == -4.0 and g.axis[-1] == 4.0
    assert g.axis[g.zero_index()[0]] == 0.0


def test_mode_grid_validation():
    with pytest.raises(DomainError):
        ModeGrid(n=4, modes_per_axis=8, xi_max=1.0)
    with pytest.raises(DomainError):
        ModeGrid(n=1, modes_per_axis=7, xi_max=1.0)
    with pytest.raises(DomainError):
        ModeGrid(n=1, modes_per_axis=8, xi_max=0.0)
    g = ModeGrid(np.int64(1), np.int32(8), 4.0)  # numpy integers are integers
    assert type(g.modes_per_axis) is int and hs_norm(Gaussian().field(g), 0.0) > 0.0


@pytest.mark.parametrize("n, modes, xi_max", [(1, 64.0, 8.0), (2.0, 8, 4.0), (1, 64, math.nan),
                                              (1, 64, math.inf)])
def test_mode_grid_refuses_non_integer_counts_and_non_finite_xi_max(n, modes, xi_max):
    # Float counts failed later with numpy's TypeError; a NaN or infinite
    # xi_max gave a NaN norm with no error.
    with pytest.raises(DomainError):
        ModeGrid(n, modes, xi_max)


def test_unique_lambdas_dedup_and_inverse():
    g = ModeGrid(n=2, modes_per_axis=8, xi_max=4.0)
    lams, inverse = unique_lambdas(g)
    assert np.all(np.diff(lams) > 0)
    assert lams[inverse].shape == g.shape
    assert np.allclose(lams[inverse], g.xi_squared())
    # 2-D lattice radii are far fewer than the mode count.
    assert len(lams) < 9 * 9 / 2
    # On a 3-D grid the bucket ranking equals np.unique of the integer |j|^2.
    g = ModeGrid(n=3, modes_per_axis=12, xi_max=3.0)
    lams, inverse = unique_lambdas(g)
    j2 = np.arange(-6, 7) ** 2
    ref, ref_inverse = np.unique(j2[:, None, None] + j2[:, None] + j2, return_inverse=True)
    assert np.array_equal(lams, g.dxi**2 * ref.astype(float))
    assert np.array_equal(inverse, ref_inverse.reshape(g.shape))
    assert np.allclose(lams[inverse], g.xi_squared())


@pytest.mark.parametrize(
    "grid",
    [ModeGrid(2, 8, 4.0), ModeGrid(3, 6, 2.0), ModeGrid(1, 16, 3.0, radial=True)],
    ids=["2d", "3d", "radial"],
)
def test_unique_lambdas_are_built_once_and_read_only(grid):
    # A study reads them more than once (its solve and its limit profile),
    # so they are built once per grid and shared, read-only, like xi_squared.
    lams, inverse = unique_lambdas(grid)
    again = unique_lambdas(grid)
    assert again[0] is lams and again[1] is inverse
    for a in (lams, inverse):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1
    # The same arrays as a fresh build: the exact |xi|^2 lattice values.
    fresh = ModeGrid(grid.n, grid.modes_per_axis, grid.xi_max, grid.radial)
    assert all(np.array_equal(a, b) for a, b in zip(unique_lambdas(fresh), (lams, inverse)))
    assert np.allclose(lams[inverse], grid.xi_squared())


def test_radial_lattice_is_built_in_memory_linear_in_n():
    # The shells of a radial grid are its N+1 axis points.  A bucket array
    # over 0..N^2 and its int64 cumsum took about 150 MB here, and raised
    # numpy's _ArrayMemoryError (8 GiB) at N = 32768.
    grid = ModeGrid(2, 4096, 8.0, radial=True)
    spectral._lattice.cache_clear()
    tracemalloc.start()
    try:
        lams, inverse = unique_lambdas(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    j = np.arange(4097)
    assert np.array_equal(inverse, j) and np.array_equal(lams, grid.dxi**2 * (j**2).astype(float))


@pytest.mark.parametrize("s", [-2.0, 0.0, 1.3])
@pytest.mark.parametrize(
    "grid",
    [ModeGrid(1, 16, 3.0), ModeGrid(2, 30, 4.3), ModeGrid(3, 10, 2.9),
     ModeGrid(1, 16, 3.0, radial=True), ModeGrid(3, 40, 4.3, radial=True)],
    ids=["1d", "2d-xi4.3", "3d-xi2.9", "1d-radial", "3d-radial"],
)
def test_shell_weights_are_the_per_mode_weight_summed_per_shell(grid, s):
    # Y per shell from the trapezoid mass of each shell, against the sum of
    # the per-mode H^s weights: equal to rounding, as the sums run in
    # another order and |xi|^2 and its shell's value differ in the last bit
    # on non-dyadic grids.
    lams, inverse = unique_lambdas(grid)
    weight = spectral._hs_weights(grid, s)
    per_mode = np.bincount(inverse.ravel(), weight.ravel(), len(lams))
    h, Y = spectral._shell_weights(grid, s)
    np.testing.assert_allclose(Y, per_mode, rtol=1e-14, atol=0.0)
    # h is the weight over the trapezoid weight, constant on each shell.
    per_mode_h = weight / grid.trapezoid_weights()
    np.testing.assert_allclose(h[inverse], per_mode_h, rtol=1e-14, atol=0.0)
    with pytest.raises(DomainError, match="Sobolev exponent s must be finite"):
        spectral._shell_weights(grid, math.nan)


def _fresh_arrays(grid):
    """xi^2, unique_lambdas, components and trapezoid weights of a grid,
    built here from its axis and lattice indices, apart from the library."""
    ax, N, n = grid.axis, grid.modes_per_axis, grid.n
    j = np.arange(N + 1) if grid.radial else np.arange(-N // 2, N // 2 + 1)
    w1 = np.array([0.5] + [1.0] * (N - 1) + [0.5])
    if grid.radial:
        n = 1
    comps = np.meshgrid(*[ax] * n, indexing="ij")
    j2 = sum(c**2 for c in np.meshgrid(*[j] * n, indexing="ij"))
    values, inverse = np.unique(j2, return_inverse=True)
    lam2 = ax**2
    for _ in range(n - 1):
        lam2 = lam2[..., None] + ax**2
    weights = w1
    for _ in range(n - 1):
        weights = np.multiply.outer(weights, w1)
    out = [lam2, grid.dxi**2 * values.astype(float), inverse.reshape(j2.shape), weights]
    return out if grid.radial else out + list(comps)


def _grid_arrays(grid):
    out = [grid.xi_squared(), *unique_lambdas(grid), grid.trapezoid_weights()]
    return out if grid.radial else out + list(grid.components())


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_equal_grids_share_their_arrays():
    # The arrays depend only on the spec (n, N, xi_max, radial), so every
    # equal grid reuses the arrays of the first, whatever the types of its
    # fields; a 0-d array xi_max is stored as a float, so it hashes too.
    grid = ModeGrid(2, 8, 4)
    arrays = _grid_arrays(grid)
    for equal in (
        ModeGrid(2, 8, 4.0),
        ModeGrid(np.int64(2), np.int64(8), np.float64(4.0)),
        ModeGrid(2, 8, np.array(4.0)),
    ):
        assert equal == grid and type(equal.xi_max) is float
        assert all(a is b for a, b in zip(_grid_arrays(equal), arrays, strict=True))
    assert all(map(_same_bits, arrays, _fresh_arrays(grid)))
    # Radial and full grids of one (n, N, xi_max) are different specs.
    for n in (1, 2):
        full, radial = ModeGrid(n, 8, 4.0), ModeGrid(n, 8, 4.0, radial=True)
        assert not any(a is b for a in _grid_arrays(full) for b in _grid_arrays(radial))
        assert not np.array_equal(full.xi_squared(), radial.xi_squared())


@pytest.mark.parametrize(
    "grid",
    [ModeGrid(1, 8, 2.0), ModeGrid(2, 8, 4.0), ModeGrid(3, 6, 2.0),
     ModeGrid(1, 16, 3.0, radial=True), ModeGrid(3, 16, 3.0, radial=True)],
    ids=["1d", "2d", "3d", "radial", "radial-3d"],
)
def test_every_grid_array_is_read_only(grid):
    # Equal grids share them, so no caller may write into one; the
    # components are views of the axis, and writing into them fails too.
    for a in _grid_arrays(grid):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1
        with pytest.raises(ValueError):
            a[...] = 0
    assert all(map(_same_bits, _grid_arrays(grid), _fresh_arrays(grid)))


def test_an_evicted_grid_spec_is_rebuilt_with_the_same_bits():
    # At most 4 specs are retained; past that the least recently used is
    # dropped and built again when asked for, with the same values.
    grid = ModeGrid(3, 10, 2.5)
    first = _grid_arrays(grid)
    for xi_max in (1.0, 2.0, 3.0, 4.0):
        _grid_arrays(ModeGrid(3, 10, xi_max))
    again = _grid_arrays(ModeGrid(3, 10, 2.5))
    assert not any(a is b for a, b in zip(again, first))
    assert all(map(_same_bits, again, _fresh_arrays(grid)))
    assert all(map(_same_bits, again, first))


def test_initial_data_mass_at_zero_mode():
    g = ModeGrid(n=1, modes_per_axis=32, xi_max=8.0)
    for u0 in (Gaussian(width=1.3, mass=2.5), BoxFunction(half_width=0.7, mass=2.5)):
        f = u0.field(g)
        assert abs(f.mass - 2.5) < 1e-14


@pytest.mark.parametrize(
    "make",
    [lambda: Gaussian(width=math.nan), lambda: Gaussian(width=math.inf),
     lambda: Gaussian(mass=math.nan), lambda: Gaussian(mass=-math.inf),
     lambda: BoxFunction(half_width=math.nan), lambda: BoxFunction(half_width=math.inf),
     lambda: BoxFunction(mass=math.inf)],
    ids=["gaussian-width-nan", "gaussian-width-inf", "gaussian-mass-nan", "gaussian-mass-inf",
         "box-half_width-nan", "box-half_width-inf", "box-mass-inf"],
)
def test_initial_data_refuse_parameters_that_are_not_finite(make):
    # Each was accepted, and its field and evolution came back NaN or inf
    # with no error.
    with pytest.raises(DomainError, match="finite"):
        make()


def test_gaussian_refuses_a_width_whose_square_overflows():
    # hat squares the width: at 1e200 a float width raised a bare
    # OverflowError, a numpy width gave NaN at xi = 0 with a RuntimeWarning,
    # and VectorGaussian accepted either.
    from memdiff.visco import VectorGaussian

    for width in (1e200, np.float64(1e200)):
        for make in (Gaussian, VectorGaussian):
            with pytest.raises(DomainError, match="square"):
                make(width=width)
    f = Gaussian(width=1e150).field(ModeGrid(1, 16, 4.0))
    assert np.all(np.isfinite(f.values)) and f.mass == 1.0


def test_box_function_hat_is_sinc_product():
    g = ModeGrid(n=2, modes_per_axis=8, xi_max=4.0)
    f = BoxFunction(half_width=0.5, mass=1.0).field(g)
    x1, x2 = g.components()
    ref = np.sinc(0.5 * x1 / np.pi) * np.sinc(0.5 * x2 / np.pi)
    assert np.allclose(f.values, ref)


def test_evolve_at_time_zero_is_initial_data():
    g = ModeGrid(n=1, modes_per_axis=64, xi_max=8.0)
    tg = TimeGrid(1.0, 100)
    u0 = Gaussian()
    (f,) = evolve(Exponential(mu=1.0, c=1.0), u0, g, [0.0], tg)
    assert np.array_equal(f.values, u0.field(g).values)


def test_evolve_heat_semigroup():
    g = ModeGrid(n=1, modes_per_axis=64, xi_max=8.0)
    tg = TimeGrid(1.0, 1000)
    u0 = Gaussian(width=1.0, mass=1.0)
    (f,) = evolve(Heat(a0=1.0), u0, g, [1.0], tg)
    xi2 = g.xi_squared()
    ref = np.exp(-0.5 * xi2) * np.exp(-xi2)
    assert np.max(np.abs(f.values - ref)) < 1e-6


def test_evolve_mass_conserved_exactly():
    g = ModeGrid(n=1, modes_per_axis=64, xi_max=8.0)
    tg = TimeGrid(2.0, 500)
    for kernel in (Heat(1.0), Cosine(), Exponential(mu=1.0, c=1.0)):
        fields = evolve(kernel, Gaussian(mass=3.0), g, [1.0, 2.0], tg)
        for f in fields:
            assert f.mass == 3.0


def test_evolve_preserves_hermitian_symmetry():
    g = ModeGrid(n=1, modes_per_axis=32, xi_max=6.0)
    tg = TimeGrid(1.0, 200)
    (f,) = evolve(Exponential(mu=1.0, c=1.0), BoxFunction(half_width=1.0), g, [1.0], tg)
    assert f.hermitian_defect() < 1e-14


def test_evolve_refuses_non_positive_definite_kernel():
    g = ModeGrid(n=1, modes_per_axis=16, xi_max=4.0)
    tg = TimeGrid(1.0, 100)
    with pytest.raises(HypothesisViolation):
        evolve(Exponential(mu=1.0, c=-2.0, a0=1.0), Gaussian(), g, [1.0], tg)


def test_evolve_rejects_off_grid_time():
    g = ModeGrid(n=1, modes_per_axis=16, xi_max=4.0)
    tg = TimeGrid(1.0, 100)
    with pytest.raises(DomainError):
        evolve(Heat(1.0), Gaussian(), g, [0.0055], tg)
    # The node index was rounded from t / dt: a bare ValueError for NaN
    # and OverflowError for inf.
    for t in (math.nan, math.inf):
        with pytest.raises(DomainError, match="not a node"):
            evolve(Heat(1.0), Gaussian(), g, [t], tg)


@pytest.mark.parametrize(
    "grid", [ModeGrid(1, 16, 6.0, radial=True), ModeGrid(2, 10, 4.0), ModeGrid(3, 6, 3.0)],
    ids=["1d-radial", "2d", "3d"],
)
@pytest.mark.parametrize(
    "kernel",
    [Exponential(mu=1.0, c=1.0), Cosine(), PowerLaw(beta=0.5, c=1.0), fractional(-0.4)],
    ids=["recurrence", "recurrence-pair", "fft", "contour"],
)
def test_mode_factors_equal_the_gather_of_the_full_solve(kernel, grid):
    # Each requested node is formed alone (by the chain of squarings of
    # its bits on the exact path with more than one state), and must keep
    # the bits of the full solve; a node may repeat or come out of order.
    tg = TimeGrid(2.03, 203)
    nodes = [0, 1, 2, 64, 65, 66, 128, 129, 130, 203, 65]
    lam_scale, dilation = [1.0, 0.3, 2.0], [1.0, 10.0, 100.0]
    kernels = [dilate(kernel, T) for T in dilation]
    factors = _mode_factors(kernels, grid, tg, tg.dt * np.array(nodes), lam_scale)
    lambdas, inverse = unique_lambdas(grid)
    for per_t, ls, kernel_T in zip(factors, lam_scale, kernels):
        z = relaxation_values(kernel_T, ls * lambdas, tg)
        for factor, i in zip(per_t, nodes):
            assert np.array_equal(factor, z[:, i][inverse])


@pytest.mark.parametrize(
    "kernel",
    [PowerLaw(beta=0.5, c=0.01) + Exponential(mu=0.2, c=-2.0, a0=1.0)],
    ids=["fft"],
)
def test_mode_factors_bound_check_sees_unrequested_nodes(kernel):
    # z = 1 at t = 0, the only node asked for, but this kernel is not
    # positive definite and z grows past 1 later on the grid; the march
    # sees it.  The exact paths evaluate only the requested nodes.
    with pytest.raises(StepSizeError, match="exceeds 1"):
        _mode_factors([kernel], ModeGrid(1, 8, 2.0, radial=True), TimeGrid(20.0, 400), [0.0])


def test_mode_factors_report_a_coarse_grid_before_lost_precision():
    # Alone, this solve refuses node 501 (t = 10.02) for lost precision.  Its
    # rows grow to |z| ~ 2.6e13, and for a kernel that must be positive
    # definite that means too coarse a time grid, which is reported first.
    kernel = PowerLaw(beta=0.5, c=0.01) + Exponential(mu=0.2, c=-2.0, a0=1.0)
    grid, tg = ModeGrid(1, 8, 16.0, radial=True), TimeGrid(20.0, 1000)
    with pytest.raises(PrecisionLossError):
        _solve_nodes([kernel], [unique_lambdas(grid)[0]], tg, nodes=[0, 501])
    with pytest.raises(StepSizeError, match="exceeds 1"):
        _mode_factors([kernel], grid, tg, [0.0, tg.dt * 501])


def test_mode_factors_refuse_a_kernel_tuple_with_one_non_positive_definite_member():
    # The positive-definite member alone passes the bound check; in one
    # solve with a member that is not, the peak is the max over both.
    good = Exponential(mu=1.0, c=1.0)
    bad = PowerLaw(beta=0.5, c=0.01) + Exponential(mu=0.2, c=-2.0, a0=1.0)
    grid, tg = ModeGrid(1, 8, 2.0, radial=True), TimeGrid(20.0, 400)
    ((z_good,),) = _mode_factors([good], grid, tg, [20.0])
    (z_first,), (z_second,) = _mode_factors([good, good], grid, tg, [20.0])
    assert np.array_equal(z_first, z_good) and np.array_equal(z_second, z_good)
    for kernels in ([good, bad], [bad, good]):
        with pytest.raises(StepSizeError, match="exceeds 1"):
            _mode_factors(kernels, grid, tg, [0.0])


def test_mode_factors_report_a_nan_peak():
    # The march of Wave plus a power law diverges to NaN past lam c dt^2 ~
    # 25; a running max that dropped NaN would hand back NaN factors.
    # A lam_scale of inf makes lam = inf * 0 = NaN at xi = 0, refused.
    grid = ModeGrid(1, 64, 200.0, radial=True)
    with np.errstate(all="ignore"):
        with pytest.raises(StepSizeError, match=r"max\|z\| = nan"):
            _mode_factors([PowerLaw(beta=0.5) + Wave(c=1.0)], grid, TimeGrid(50.0, 1000), [0.0])
        with pytest.raises(DomainError, match="finite"):
            _mode_factors([Exponential(1.0, 1.0)], grid, TimeGrid(1.0, 100), [1.0], lam_scale=1e309)


@pytest.mark.parametrize(
    "kernel, beta, s",
    [(Exponential(mu=1.0, c=1.0), 0.0, 0.0), (fractional(-0.4), -0.4, -1.5),
     (PowerLaw(beta=0.5), 0.5, -1.5)],
    ids=["recurrence", "contour", "fft"],
)
def test_study_holds_no_full_solve_matrix(kernel, beta, s):
    # A 2-D N=128 study at the default 2000 steps per unit time: the
    # (rows x n+1) solve matrix would be 3 x 1621 x 4001 doubles, 156 MB.
    # The exact path forms the requested nodes alone, the FFT division
    # keeps one 32-row block and the contour path the transform values of
    # one band, each with the requested nodes.
    grid = ModeGrid(2, 128, 8.0)
    T_list = [1e2, 1e3, 1e4]
    full = len(T_list) * len(unique_lambdas(grid)[0]) * 4001 * 8
    tracemalloc.start()
    try:
        converge_to_limit(kernel, Gaussian(), ScalingFunction(kernel=kernel, beta=beta),
                          T_list, [1.0, 2.0], s, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full / 4


def test_recurrence_study_holds_no_64_step_table_over_all_rows(monkeypatch):
    # The exact path evaluates only the requested node: the solve must
    # stay below one (64, rows) array of doubles.
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            out = solve_nodes(*args, **kwargs)
            peaks.append((sum(map(len, args[1])), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return out

    solve_nodes = spectral._solve_nodes
    monkeypatch.setattr(spectral, "_solve_nodes", traced)
    kernel = Exponential(mu=1.0, c=1.0, a0=0.2)
    converge_to_limit(kernel, Gaussian(), ScalingFunction(kernel=kernel, beta=0.0),
                      [1e2, 1e3, 1e4], [1.0], 0.0, ModeGrid(2, 256, 6.0), n_steps=500)
    ((rows, peak),) = peaks
    assert peak < 64 * 8 * rows


def test_cosine_kernel_closed_form():
    # Klein-Gordon-type split: u_hat = (1/(1+lam) + lam/(1+lam) cos(sqrt(1+lam) t)) u0_hat.
    g = ModeGrid(n=1, modes_per_axis=128, xi_max=8.0)
    tg = TimeGrid(5.0, 5000)
    u0 = Gaussian()
    base = u0.field(g).values
    fields = evolve(Cosine(), u0, g, [0.5, 1.0, 5.0], tg)
    lam = g.xi_squared()
    for t, f in zip((0.5, 1.0, 5.0), fields):
        ref = (1.0 / (1.0 + lam) + lam / (1.0 + lam) * np.cos(np.sqrt(1.0 + lam) * t)) * base
        assert np.max(np.abs(f.values - ref)) < 1e-5


def test_negexponential_kernel_closed_form():
    g = ModeGrid(n=1, modes_per_axis=128, xi_max=8.0)
    tg = TimeGrid(5.0, 5000)
    u0 = Gaussian()
    base = u0.field(g).values
    fields = evolve(NegExponential(), u0, g, [0.5, 1.0, 5.0], tg)
    lam = g.xi_squared()
    for t, f in zip((0.5, 1.0, 5.0), fields):
        ref = (1.0 / (1.0 + lam) + lam / (1.0 + lam) * np.exp(-(1.0 + lam) * t)) * base
        assert np.max(np.abs(f.values - ref)) < 1e-6


def test_cosine_long_time_split_time_average():
    # The oscillatory part time-averages to ~0 per mode; the average of
    # u_hat approaches the static part u0_hat/(1+lam).
    g = ModeGrid(n=1, modes_per_axis=32, xi_max=4.0)
    n_steps = 20000
    tg = TimeGrid(200.0, n_steps)
    u0 = Gaussian()
    base = u0.field(g).values
    times = tg.nodes[::100][1:]
    fields = evolve(Cosine(), u0, g, times, tg)
    lam = g.xi_squared()
    avg = np.mean([f.values for f in fields], axis=0)
    static = base / (1.0 + lam)
    assert np.max(np.abs(avg - static)) < 2e-2


def test_negexponential_long_time_bound():
    g = ModeGrid(n=1, modes_per_axis=32, xi_max=4.0)
    tg = TimeGrid(10.0, 10000)
    u0 = Gaussian()
    base = u0.field(g).values
    lam = g.xi_squared()
    static = base / (1.0 + lam)
    for t, f in zip((2.0, 5.0, 10.0), evolve(NegExponential(), u0, g, [2.0, 5.0, 10.0], tg)):
        bound = np.abs(base) * np.exp(-(1.0 + lam) * t)
        assert np.all(np.abs(f.values - static) <= bound + 1e-6)


def test_hs_norm_gaussian_oracle():
    # ((2 pi)^-1 int exp(-xi^2) d xi)^(1/2) = (sqrt(pi)/(2 pi))^(1/2).
    g = ModeGrid(n=1, modes_per_axis=512, xi_max=10.0)
    f = SpectralField(g, np.exp(-0.5 * g.xi_squared()))
    assert abs(hs_norm(f, 0.0) - 0.5311259661) < 1e-8


def test_hs_norm_zero_field():
    g = ModeGrid(n=1, modes_per_axis=16, xi_max=4.0)
    assert hs_norm(SpectralField(g, np.zeros(17)), 1.0) == 0.0


@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("radial", [False, True], ids=["full", "radial"])
def test_hs_norm_refuses_a_sobolev_exponent_that_is_not_finite(s, radial):
    # The weight (1 + |xi|^2)^s made the norm NaN, inf or the xi = 0 term
    # alone, with no error.
    g = ModeGrid(n=1, modes_per_axis=16, xi_max=4.0, radial=radial)
    with pytest.raises(DomainError, match="Sobolev exponent s must be finite"):
        hs_norm(Gaussian().field(g), s)


def test_hs_norm_radial_matches_full_in_3d():
    gf = ModeGrid(n=3, modes_per_axis=32, xi_max=6.0)
    gr = ModeGrid(n=3, modes_per_axis=256, xi_max=6.0, radial=True)
    u0 = Gaussian(width=1.0)
    ff = SpectralField(gf, u0.hat(xi_squared=gf.xi_squared()))
    fr = SpectralField(gr, u0.hat(xi_squared=gr.xi_squared()))
    # Full trapezoid integrates the cube, radial the inscribed ball; the
    # integrand is ~1e-16 at |xi| = 6, so both converge to the same value.
    assert abs(hs_norm(ff, -1.0) - hs_norm(fr, -1.0)) < 1e-6


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_hs_norm_homogeneity(s, c):
    g = ModeGrid(n=1, modes_per_axis=32, xi_max=4.0)
    vals = np.exp(-0.5 * g.xi_squared())
    base = hs_norm(SpectralField(g, vals), s)
    scaled = hs_norm(SpectralField(g, c * vals), s)
    assert abs(scaled - abs(c) * base) < 1e-12 * max(1.0, base)


def test_synthesize_gaussian_pair():
    # u0_hat = e^{-xi^2/2} corresponds to (2 pi)^{-1/2} e^{-x^2/2}.
    g = ModeGrid(n=1, modes_per_axis=256, xi_max=12.0)
    f = SpectralField(g, np.exp(-0.5 * g.xi_squared()).astype(complex))
    x, u = synthesize(f)
    ref = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(u - ref)) < 1e-6


def test_synthesize_mass_preservation():
    g = ModeGrid(n=1, modes_per_axis=256, xi_max=12.0)
    u0 = Gaussian(width=1.0, mass=2.0)
    x, u = synthesize(u0.field(g))
    dx = x[1] - x[0]
    assert abs(np.trapezoid(u, dx=dx) - 2.0) < 1e-6


def test_synthesize_constant_hat_is_discrete_delta():
    g = ModeGrid(n=1, modes_per_axis=64, xi_max=8.0)
    x, u = synthesize(SpectralField(g, np.ones(65, dtype=complex)))
    i0 = np.argmax(np.abs(u))
    assert x[i0] == 0.0
    assert np.max(np.abs(u[np.abs(x) > 1e-12])) < 1e-10 * u[i0]


def test_synthesize_rejects_non_hermitian():
    g = ModeGrid(n=1, modes_per_axis=16, xi_max=4.0)
    vals = np.zeros(17, dtype=complex)
    vals[3] = 1.0  # no conjugate partner
    with pytest.raises(DomainError):
        synthesize(SpectralField(g, vals))


def test_evaluate_at_matches_synthesize():
    g = ModeGrid(n=1, modes_per_axis=128, xi_max=10.0)
    f = SpectralField(g, np.exp(-0.5 * g.xi_squared()).astype(complex))
    x, u = synthesize(f)
    pts = x[60:70, None]
    vals = evaluate_at(f, pts)
    assert np.max(np.abs(vals.real - u[60:70])) < 1e-10


def test_evaluate_at_matches_synthesize_in_3d():
    # An anisotropic datum, so that a mix-up of the axes shows.
    g = ModeGrid(n=3, modes_per_axis=12, xi_max=3.0)
    c1, c2, c3 = g.components()
    f = SpectralField(g, np.exp(-0.3 * c1**2 - 0.5 * c2**2 - 0.9 * c3**2).astype(complex))
    x, u = synthesize(f)
    idx = [(6, 7, 8), (2, 9, 5), (11, 0, 6), (6, 6, 6)]
    pts = [[x[i], x[j], x[k]] for i, j, k in idx]
    vals = evaluate_at(f, pts)
    assert np.max(np.abs(vals - np.array([u[i] for i in idx]))) < 1e-12


def test_limit_profile_heat_and_wave_branches():
    g = ModeGrid(n=1, modes_per_axis=64, xi_max=4.0)
    t = 0.7
    lam = g.xi_squared()
    heat = limit_profile(0.0, g, t, 1.0)
    assert np.allclose(heat.values, np.exp(-lam * t), atol=1e-13)
    wave = limit_profile(1.0, g, t, 1.0)
    assert np.allclose(wave.values, np.cos(np.sqrt(lam) * t), atol=1e-12)


def test_limit_profile_value_checks():
    # beta = 0 at |xi|^2 t = 1 gives e^{-1}; beta = 1 at |xi| t = pi gives -1.
    g = ModeGrid(n=1, modes_per_axis=2, xi_max=1.0)
    f = limit_profile(0.0, g, 1.0, 1.0)
    assert abs(f.values[-1] - math.exp(-1.0)) < 1e-14
    g2 = ModeGrid(n=1, modes_per_axis=2, xi_max=math.pi)
    f2 = limit_profile(1.0, g2, 1.0, 1.0)
    assert abs(f2.values[-1] + 1.0) < 1e-12


def test_limit_profile_fractional_value():
    g = ModeGrid(n=1, modes_per_axis=2, xi_max=1.0)
    f = limit_profile(0.5, g, 1.0, 1.0)
    assert abs(f.values[-1] - mittag_leffler(1.5, -1.0)) < 1e-13


def test_limit_profile_rejects_bad_args():
    g = ModeGrid(n=1, modes_per_axis=8, xi_max=1.0)
    with pytest.raises(DomainError):
        limit_profile(-1.0, g, 1.0, 1.0)
    with pytest.raises(DomainError):
        limit_profile(0.5, g, 0.0, 1.0)
    # t = NaN or inf was refused only by mittag_leffler, after a
    # RuntimeWarning, and a NaN mass gave a field of NaNs.
    for t in (math.nan, math.inf):
        with pytest.raises(DomainError, match="t must be positive and finite"):
            limit_profile(0.0, g, t, 1.0)
    for mass in (math.nan, math.inf):
        with pytest.raises(DomainError, match="mass must be finite"):
            limit_profile(0.0, g, 1.0, mass)


@pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5, 1.0])
def test_limit_profile_solves_integrated_equation(beta):
    # w_hat(lam, t) + lam int_0^t A(t-s) w_hat(lam, s) ds = 1 with
    # A(t) = t^beta / Gamma(1+beta), per mode, residual below 1e-4.
    alpha = 1.0 + beta
    t = 1.3
    for lam in (0.5, 2.0):
        def w(s):
            return float(np.asarray(mittag_leffler(alpha, -lam * s**alpha)))

        integral, _ = integrate.quad(
            lambda s: (t - s) ** beta / gamma(1.0 + beta) * w(s),
            0.0, t, limit=400,
        )
        residual = w(t) + lam * integral - 1.0
        assert abs(residual) < 1e-4
