"""Isotropic 3-D viscoelastic flow and its Stokes-flow asymptotics.

The velocity field of a linearly viscoelastic, incompressible-at-rest
material splits in Fourier space into a gradient part (projector
P = xi xi^T / |xi|^2) and a divergence-free part (Q = I - P).  Each part
evolves by a scalar relaxation: the gradient part under the combined
kernel beta = (4a + 2b)/3 built from the shear kernel a and bulk kernel
b, the divergence-free part under the shear kernel alone.  For large
times the field approaches the fundamental solution of the compressible
Stokes system with effective viscosities B (gradient) and A (shear).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .errors import DomainError, HypothesisViolation
from .kernels import MemoryKernel, require_positive_definite, scale
from .spectral import InitialData, ModeGrid, SpectralField, _mode_factors, hs_norm
from .volterra import TimeGrid
from . import spectral

#: Entrywise tolerance for the projector algebra identities.
PROJECTOR_TOL = 1e-14
#: Taylor coefficients (-1)^n / (n! (2n+1)) of the erf potential F(u); 14
#: terms reach rounding level for u < 1/2.
_ERF_POTENTIAL_SERIES = np.array(
    [(-1.0) ** n / (math.factorial(n) * (2 * n + 1)) for n in range(14)]
)


@dataclass
class ViscoKernelPair:
    """Shear kernel (a0, a), bulk kernel (b0, b), and the derived
    gradient-part kernel beta = (4a + 2b)/3."""

    shear: MemoryKernel
    bulk: MemoryKernel

    def __post_init__(self):
        self.beta_kernel = scale(self.shear, 4.0 / 3.0) + scale(self.bulk, 2.0 / 3.0)

    def validate(self):
        """Check the positive-definiteness hypotheses; raise naming the
        violated condition."""
        require_positive_definite(self.shear, "shear kernel")
        require_positive_definite(self.beta_kernel, "gradient-part kernel")

    def effective_viscosities(self):
        """(A, B): total masses of the shear and gradient-part kernels."""
        return self.shear.total_mass(), self.beta_kernel.total_mass()


@dataclass
class VectorSpectralField:
    """Complex 3-vector per mode on a 3-D mode grid."""

    grid: ModeGrid
    values: np.ndarray = field(repr=False)  # shape (3,) + grid.shape

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.grid.n != 3 or self.grid.radial:
            raise DomainError("vector fields require a full 3-D grid")
        if self.values.shape != (3,) + self.grid.shape:
            raise DomainError("values must have shape (3,) + grid shape")

    @property
    def mass_vector(self) -> np.ndarray:
        idx = (slice(None),) + self.grid.zero_index()
        return np.real(self.values[idx]).astype(float)

    def component(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.values[i])


@dataclass
class VectorGaussian:
    """v0 with v0_hat(xi) = V0 * exp(-width^2 |xi|^2 / 2)."""

    width: float = 1.0
    mass_vector: tuple = (1.0, 0.0, 0.0)

    def field(self, grid: ModeGrid) -> VectorSpectralField:
        env = spectral.Gaussian(self.width, 1.0).hat(xi_squared=grid.xi_squared())
        V0 = np.asarray(self.mass_vector, dtype=float)
        vals = V0[:, None, None, None] * env[None, ...]
        return VectorSpectralField(grid, vals.astype(complex))


def _projector_apply(field_: VectorSpectralField, which: str) -> VectorSpectralField:
    grid = field_.grid
    comps = grid.components()
    lam2 = grid.xi_squared()
    center = grid.zero_index()
    safe = lam2.copy()
    safe[center] = 1.0
    v = field_.values
    dot = sum(comps[d] * v[d] for d in range(3)) / safe
    p_vals = np.stack([comps[d] * dot for d in range(3)])
    # Convention at xi = 0: P passes the value, Q vanishes (P + Q = I).
    idx = (slice(None),) + center
    p_vals[idx] = v[idx]
    if which == "P":
        return VectorSpectralField(grid, p_vals)
    return VectorSpectralField(grid, v - p_vals)


def project_P(field_: VectorSpectralField) -> VectorSpectralField:
    """Gradient (curl-free) component: multiplication by xi xi^T/|xi|^2."""
    return _projector_apply(field_, "P")


def project_Q(field_: VectorSpectralField) -> VectorSpectralField:
    """Divergence-free component: multiplication by I - xi xi^T/|xi|^2."""
    return _projector_apply(field_, "Q")


def evolve_visco(
    pair: ViscoKernelPair,
    v0,
    grid: ModeGrid,
    times,
    time_grid: TimeGrid,
):
    """Fields v_hat(., t) = z1 P v0_hat + z Q v0_hat at requested times.

    z1 is the relaxation of the gradient-part kernel, z of the shear
    kernel.
    """
    pair.validate()
    base = v0.field(grid)
    p0 = project_P(base)
    q0 = project_Q(base)
    z1 = _mode_factors(pair.beta_kernel, grid, time_grid, times)[0]
    z = _mode_factors(pair.shear, grid, time_grid, times)[0]
    return [
        VectorSpectralField(grid, p0.values * f1[None] + q0.values * f[None])
        for f1, f in zip(z1, z)
    ]


def stokes_fundamental(A: float, B: float, grid: ModeGrid, t: float, V0) -> VectorSpectralField:
    """W_hat(xi, t) V0 = e^{-B |xi|^2 t} P V0 + e^{-A |xi|^2 t} Q V0."""
    if A <= 0 or B <= 0 or t <= 0:
        raise DomainError("need A, B, t > 0")
    V0 = np.asarray(V0, dtype=float)
    const = VectorSpectralField(
        grid, np.broadcast_to(V0[:, None, None, None], (3,) + grid.shape).astype(complex).copy()
    )
    p = project_P(const)
    q = project_Q(const)
    lam2 = grid.xi_squared()
    return VectorSpectralField(
        grid,
        p.values * np.exp(-B * lam2 * t)[None] + q.values * np.exp(-A * lam2 * t)[None],
    )


def stokes_gradient_part_real(x, t: float) -> np.ndarray:
    """Real-space gradient part U(x, t) of the Stokes fundamental solution.

    U_ij(x,t) = -d_i d_j phi with phi = erf(|x|/sqrt(4t)) / (4 pi |x|), the
    exact Hessian.  As a function of u = |x|^2/(4t), phi = F(u) /
    (2 pi^{3/2} sqrt(4t)) with F(u) = sqrt(pi) erf(sqrt(u)) / (2 sqrt(u)),
    so Hess phi = (2 F'(u) I / (4t) + 4 F''(u) x x^T / (4t)^2) /
    (2 pi^{3/2} sqrt(4t)).  F' and F'' are taken in closed form, or from
    the Taylor series of F for u < 1/2, where the closed form cancels.
    """
    x = np.asarray(x, dtype=float)
    s2 = 4.0 * t
    u = float(x @ x) / s2
    if u < 0.5:
        d1 = polyval(u, polyder(_ERF_POTENTIAL_SERIES))
        d2 = polyval(u, polyder(_ERF_POTENTIAL_SERIES, 2))
    else:
        v = math.sqrt(u)
        g = math.exp(-u)
        num = g * v - 0.5 * math.sqrt(math.pi) * math.erf(v)
        d1 = num / (2.0 * v**3)
        d2 = -g / (2.0 * u) - 3.0 * num / (4.0 * v**5)
    hess = (2.0 * d1 / s2) * np.eye(3) + (4.0 * d2 / s2**2) * np.outer(x, x)
    return -hess / (2.0 * math.pi**1.5 * math.sqrt(s2))


@dataclass
class ViscoRateReport:
    """r(t) = t^{3/4} ||v - W V0||_{Hs} over a time list."""

    s: float
    A: float
    B: float
    degenerate_mass: bool
    rows: list = field(default_factory=list)  # (t, r, raw_distance)

    @property
    def r_values(self) -> np.ndarray:
        return np.array([r for _, r, _ in self.rows])


def vector_hs_norm(field_: VectorSpectralField, s: float) -> float:
    """Root sum of squares of the componentwise Hs norms."""
    return math.sqrt(
        sum(hs_norm(field_.component(i), s) ** 2 for i in range(3))
    )


def visco_asymptotics(
    pair: ViscoKernelPair,
    v0,
    t_list,
    s: float,
    grid: ModeGrid,
    n_steps: int = 2000,
) -> ViscoRateReport:
    """Scaled distance of the viscoelastic field to the Stokes solution.

    Requires finite positive effective viscosities A (shear) and B
    (gradient part); refusals name the failing hypothesis.  A zero mass
    vector makes the comparison target vanish; the report flags it.
    """
    pair.validate()
    A, B = pair.effective_viscosities()
    for val, name in ((A, "shear"), (B, "gradient-part")):
        if val is None or not np.isfinite(val) or val <= 0:
            raise HypothesisViolation(
                f"effective {name} viscosity {val} is not finite and positive"
            )
    t_list = np.atleast_1d(np.asarray(t_list, dtype=float))
    if np.any(t_list <= 0):
        raise DomainError("t_list must be positive")
    base = v0.field(grid)
    V0 = base.mass_vector
    degenerate = bool(np.allclose(V0, 0.0))
    p0 = project_P(base)
    q0 = project_Q(base)
    tg = TimeGrid(1.0, n_steps)
    report = ViscoRateReport(s=s, A=float(A), B=float(B), degenerate_mass=degenerate)
    # z(lam, t) = w(1) of the kernel dilated by t at coupling lam * t.
    z1 = _mode_factors(pair.beta_kernel, grid, tg, [1.0], t_list, t_list)
    z = _mode_factors(pair.shear, grid, tg, [1.0], t_list, t_list)
    for t, (f1,), (f,) in zip(map(float, t_list), z1, z):
        v_hat = p0.values * f1[None] + q0.values * f[None]
        w = stokes_fundamental(float(A), float(B), grid, t, V0)
        diff = VectorSpectralField(grid, v_hat - w.values)
        dist = vector_hs_norm(diff, s)
        report.rows.append((t, float(t ** 0.75 * dist), float(dist)))
    return report
