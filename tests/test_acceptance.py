"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and enforces the stated tolerance.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from memdiff.asymptotics import (
    ScalingFunction,
    converge_to_limit,
    leading_order_rate,
)
from memdiff.errors import HypothesisViolation
from memdiff.kernels import (
    Cosine,
    Exponential,
    Heat,
    NegExponential,
    PowerLaw,
    Wave,
    fractional,
)
from memdiff.specfun import mittag_leffler
from memdiff.spectral import Gaussian, ModeGrid, evolve
from memdiff.visco import (
    VectorGaussian,
    ViscoKernelPair,
    evolve_visco,
    project_P,
    project_Q,
    stokes_gradient_part_real,
)
from memdiff.volterra import TimeGrid, relaxation_values, solve_relaxation


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_closed_form_kernel_oracles():
    # Both closed-form kernels: sup-over-modes error <= 1e-5 at
    # t in {0.5, 1, 5}, dt = 1e-3, n = 1, N = 256 modes; runtime <= 10 s.
    tic = time.perf_counter()
    grid = ModeGrid(n=1, modes_per_axis=256, xi_max=8.0)
    tg = TimeGrid(5.0, 5000)
    u0 = Gaussian()
    base = u0.field(grid).values
    lam = grid.xi_squared()
    times = (0.5, 1.0, 5.0)
    worst = 0.0
    for kernel, factor in (
        (Cosine(), lambda t: np.cos(np.sqrt(1.0 + lam) * t)),
        (NegExponential(), lambda t: np.exp(-(1.0 + lam) * t)),
    ):
        fields = evolve(kernel, u0, grid, times, tg)
        for t, f in zip(times, fields):
            ref = (1.0 / (1.0 + lam) + lam / (1.0 + lam) * factor(t)) * base
            worst = max(worst, float(np.max(np.abs(f.values - ref))))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-5 and elapsed <= 10.0
    _report(1, ok, f"closed-form kernel oracles: sup error {worst:.2e} "
                   f"(<= 1e-5), runtime {elapsed:.1f}s (<= 10s)")


def test_criterion_02_mittag_leffler_closed_forms():
    tic = time.perf_counter()
    z = -np.geomspace(1e-8, 100.0, 100)
    worst = 0.0
    e1 = np.asarray(mittag_leffler(1.0, z))
    worst = max(worst, float(np.max(np.abs(e1 - np.exp(z)) / np.abs(np.exp(z)))))
    e2 = np.asarray(mittag_leffler(2.0, z))
    ref2 = np.cos(np.sqrt(-z))
    nz = np.abs(ref2) > 1e-13
    worst = max(worst, float(np.max(np.abs(e2[nz] - ref2[nz]) / np.abs(ref2[nz]))))
    eh = np.asarray(mittag_leffler(0.5, z))
    with mpmath.workdps(40):
        refh = np.array(
            [float(mpmath.exp(zi**2) * mpmath.erfc(-zi)) for zi in z]
        )
    worst = max(worst, float(np.max(np.abs(eh - refh) / np.abs(refh))))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-8 and elapsed <= 1.0
    _report(2, ok, f"Mittag-Leffler closed forms: worst rel error {worst:.2e} "
                   f"(<= 1e-8), runtime {elapsed:.2f}s (<= 1s)")


def test_criterion_03_fractional_cross_module_oracle():
    # z(lam, t) vs E_{1+beta}(-lam t^{1+beta}) <= 1e-5 for
    # beta in {-0.5, 0.25, 0.5, 0.75}, lam in {0.5, 1, 2}, t in [0, 5].
    worst = 0.0
    tg = TimeGrid(5.0, 5000)
    lams = np.array([0.5, 1.0, 2.0])
    for beta in (-0.5, 0.25, 0.5, 0.75):
        alpha = 1.0 + beta
        z = relaxation_values(fractional(beta), lams, tg)
        for j, lam in enumerate(lams):
            ref = np.asarray(mittag_leffler(alpha, -lam * tg.nodes**alpha))
            worst = max(worst, float(np.max(np.abs(z[j] - ref))))
    ok = worst <= 1e-5
    _report(3, ok, f"fractional relaxation vs Mittag-Leffler: sup error "
                   f"{worst:.2e} (<= 1e-5)")


def test_criterion_04_relaxation_bound():
    # |z| <= 1 + 1e-6 for every positive-definite catalog kernel.
    kernels = [Heat(1.0), Wave(c=1.0), PowerLaw(beta=0.5, c=1.0),
               fractional(-0.5), Exponential(mu=1.0, c=1.0),
               NegExponential(), Cosine()]
    lams = np.geomspace(0.01, 100.0, 9)
    tg = TimeGrid(20.0, 4000)
    worst = 0.0
    for kernel in kernels:
        z = relaxation_values(kernel, lams, tg)
        worst = max(worst, float(np.max(np.abs(z))))
    ok = worst <= 1.0 + 1e-6
    _report(4, ok, f"relaxation bound: max |z| = {worst:.8f} (<= 1 + 1e-6)")


def test_criterion_05_heat_limit_convergence():
    # Exponential kernel, Gaussian u0, s = 0, n = 1: L2 distance to the
    # heat profile strictly decreasing along T = 1e2, 1e3, 1e4 at
    # t in {0.5, 1, 2}; T = 1e4 relative distance <= 0.05; runtime <= 60 s.
    tic = time.perf_counter()
    kernel = Exponential(mu=1.0, c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=0.0)
    grid = ModeGrid(n=1, modes_per_axis=64, xi_max=6.0)
    rep = converge_to_limit(kernel, Gaussian(), sf, [1e2, 1e3, 1e4],
                            [0.5, 1.0, 2.0], 0.0, grid)
    decreasing = True
    worst_rel = 0.0
    for t in (0.5, 1.0, 2.0):
        d = rep.distances_at(t)
        decreasing = decreasing and bool(np.all(np.diff(d) < 0.0))
        ref = [r for T, tt, _, r in rep.rows if tt == t][0]
        worst_rel = max(worst_rel, d[-1] / ref)
    elapsed = time.perf_counter() - tic
    ok = decreasing and worst_rel <= 0.05 and elapsed <= 60.0
    _report(5, ok, f"heat-limit convergence: strictly decreasing = {decreasing}, "
                   f"final relative distance {worst_rel:.2e} (<= 0.05), "
                   f"runtime {elapsed:.1f}s (<= 60s)")


def test_criterion_06_wave_limit_convergence():
    # Wave kernel, beta = 1, s = -1, n = 1: H^{-1} distance to the
    # cosine profile strictly decreasing along the same T ladder.
    kernel = Wave(c=1.0)
    sf = ScalingFunction(kernel=kernel, beta=1.0)
    grid = ModeGrid(n=1, modes_per_axis=64, xi_max=6.0)
    rep = converge_to_limit(kernel, Gaussian(), sf, [1e2, 1e3, 1e4],
                            [1.0], -1.0, grid)
    d = rep.distances_at(1.0)
    ok = bool(np.all(np.diff(d) < 0.0))
    _report(6, ok, "wave-limit convergence: distances "
                   + " > ".join(f"{x:.3e}" for x in d))


def test_criterion_07_rate_surrogate():
    kernel = Exponential(mu=1.0, c=1.0)
    grid = ModeGrid(n=1, modes_per_axis=64, xi_max=6.0)
    rep = leading_order_rate(kernel, Gaussian(), [5.0, 20.0, 80.0, 320.0],
                             0.0, grid)
    r = rep.r_values
    ok = bool(np.all(np.diff(r) < 0.0))
    _report(7, ok, "t^(1/4)-scaled residual decreasing: "
                   + " > ".join(f"{x:.3e}" for x in r))


def test_criterion_08_volterra_convergence_order():
    # The march (FFT division) has observed order >= 1.9 under dt halving
    # (Richardson at t = 1); Heat and Exponential are solved exactly, so
    # their values at t = 1 sit on the closed form at every n.
    orders = []
    for kernel in (PowerLaw(beta=0.5), PowerLaw(beta=0.5, c=0.01) + Exponential(mu=1.0, c=1.0)):
        vals = [solve_relaxation(kernel, 2.0, TimeGrid(1.0, n)).values[-1]
                for n in (250, 500, 1000)]
        orders.append(math.log2(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])))
    w = math.sqrt(7.0) / 2.0
    exact = [(Heat(1.0), math.exp(-2.0)),
             (Exponential(mu=1.0, c=1.0), math.exp(-0.5) * (math.cos(w) + math.sin(w) / (2.0 * w)))]
    gap = max(abs(solve_relaxation(kernel, 2.0, TimeGrid(1.0, n)).values[-1] - ref)
              for kernel, ref in exact for n in (250, 500, 1000))
    ok = all(o >= 1.9 for o in orders) and gap <= 1e-12
    _report(8, ok, "product-integration orders: "
                   + ", ".join(f"{o:.3f}" for o in orders) + " (>= 1.9); Heat and Exponential "
                   f"exact, {gap:.1e} off the closed form at n = 250, 500, 1000 (<= 1e-12)")


def test_criterion_09_projector_and_conservation_suite():
    import itertools

    from memdiff.spectral import SpectralField, evaluate_at

    grid = ModeGrid(n=3, modes_per_axis=12, xi_max=3.0)
    rng = np.random.default_rng(7)
    from memdiff.visco import VectorSpectralField

    f = VectorSpectralField(
        grid, rng.standard_normal((3,) + grid.shape)
        + 1j * rng.standard_normal((3,) + grid.shape)
    )
    p, q = project_P(f), project_Q(f)
    scalemax = np.max(np.abs(f.values))
    algebra = max(
        np.max(np.abs(p.values + q.values - f.values)),
        np.max(np.abs(project_P(p).values - p.values)),
        np.max(np.abs(project_Q(p).values)),
    ) / scalemax
    # Evolution checks.
    pair = ViscoKernelPair(Exponential(mu=1.0, c=1.0), Heat(0.5))
    v0 = VectorGaussian(mass_vector=(1.0, 2.0, 3.0))
    tg = TimeGrid(2.0, 400)
    c1, c2, c3 = grid.components()
    div_worst = 0.0
    mass_ok = True
    for ft in evolve_visco(pair, v0, grid, [1.0, 2.0], tg):
        qt = project_Q(ft)
        div = c1 * qt.values[0] + c2 * qt.values[1] + c3 * qt.values[2]
        div_worst = max(div_worst, float(np.max(np.abs(div))))
        mass_ok = mass_ok and np.array_equal(ft.mass_vector, [1.0, 2.0, 3.0])
    # Stokes real-space check at 20 sample points.
    t = 1.0
    gs = ModeGrid(n=3, modes_per_axis=24, xi_max=6.0)
    comps = gs.components()
    lam = gs.xi_squared()
    center = gs.zero_index()
    safe = lam.copy()
    safe[center] = 1.0
    pts = [np.array(pp) for pp in itertools.product((-1.2, -0.6, 0.7, 1.5), repeat=3)][:20]
    stokes_worst = 0.0
    for i, j in ((0, 0), (1, 2)):
        vals = (comps[i] * comps[j] / safe * np.exp(-lam * t)).astype(complex)
        if i == j:
            vals[center] = 1.0
        fvals = evaluate_at(SpectralField(gs, vals), pts).real
        ref = np.array([stokes_gradient_part_real(pp, t)[i, j] for pp in pts])
        stokes_worst = max(stokes_worst, float(np.max(np.abs(fvals - ref))))
    ok = (algebra <= 1e-14 * 10 and div_worst <= 1e-12 and mass_ok
          and stokes_worst <= 1e-3)
    _report(9, ok, f"projector suite: algebra {algebra:.1e} (~1e-14), "
                   f"divergence {div_worst:.1e}, momentum exact = {mass_ok}, "
                   f"Stokes real-space error {stokes_worst:.1e} (<= 1e-3)")


def test_criterion_10_negative_controls():
    grid = ModeGrid(n=1, modes_per_axis=32, xi_max=6.0)
    sf0 = ScalingFunction(kernel=Heat(1.0), beta=0.0)
    refusals = []
    for kernel in (Cosine(), NegExponential()):
        try:
            converge_to_limit(kernel, Gaussian(), sf0, [10.0, 100.0], [1.0],
                              0.0, grid)
            refusals.append(None)
        except HypothesisViolation as exc:
            refusals.append(str(exc))
    named = (refusals[0] is not None and "regularly varying" in refusals[0]
             and refusals[1] is not None and "decays" in refusals[1])
    # Wrong-exponent scaling: distances must NOT decrease.
    kernel = Exponential(mu=1.0, c=1.0)
    sf_bad = ScalingFunction(kernel=kernel, beta=0.0, exponent_override=0.7)
    rep = converge_to_limit(kernel, Gaussian(), sf_bad, [1e2, 1e3, 1e4],
                            [1.0], 0.0, grid)
    d = rep.distances_at(1.0)
    detector = not bool(np.all(np.diff(d) < 0.0))
    ok = named and detector
    _report(10, ok, f"negative controls: refusals named = {named}, "
                    f"wrong-scaling detector fired = {detector} "
                    f"(distances {', '.join(f'{x:.2e}' for x in d)})")
