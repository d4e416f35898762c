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

from .errors import DomainError, HypothesisViolation
from .kernels import MemoryKernel, dilate, require_positive_definite, scale
from .spectral import ModeGrid, SpectralField, hs_norm, unique_lambdas
from .spectral import _mode_factors, _shell_factors, _shell_fit, _shell_sums
from .spectral import _shell_weights, _time_list
from .volterra import TimeGrid
from . import spectral

#: Entrywise tolerance for the projector algebra identities.
PROJECTOR_TOL = 1e-14
#: Taylor coefficients (-1)^n / (n! (2n+1)) of the erf potential F(u); 14
#: terms reach rounding level for u < 1/2.
_ERF_POTENTIAL_SERIES = np.array(
    [(-1.0) ** n / (math.factorial(n) * (2 * n + 1)) for n in range(14)]
)
#: Taylor coefficients of F' and F'': the series differentiated term by term.
_ERF_POTENTIAL_D1 = np.arange(1, 14) * _ERF_POTENTIAL_SERIES[1:]
_ERF_POTENTIAL_D2 = np.arange(1, 13) * _ERF_POTENTIAL_D1[1:]


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


def _require_vector_grid(grid: ModeGrid):
    if grid.n != 3 or grid.radial:
        raise DomainError("vector fields require a full 3-D grid")


def _mass_vector(V0) -> np.ndarray:
    """V0 as a float array; DomainError unless it is 3 finite reals."""
    try:
        V0 = np.asarray(V0, dtype=float)
    except (TypeError, ValueError):
        V0 = None
    if V0 is None or V0.shape != (3,) or not np.all(np.isfinite(V0)):
        raise DomainError("mass_vector must be 3 finite reals")
    return V0


@dataclass
class VectorSpectralField:
    """Complex 3-vector per mode on a 3-D mode grid."""

    grid: ModeGrid
    values: np.ndarray = field(repr=False)  # shape (3,) + grid.shape

    def __post_init__(self):
        self.values = np.asarray(self.values)
        _require_vector_grid(self.grid)
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
    """v0 with v0_hat(xi) = V0 * exp(-width^2 |xi|^2 / 2): ``radial``, as V0 =
    ``mass_vector`` times the ``envelope`` of |xi|^2, which is 1 at xi = 0.
    ``visco_asymptotics`` reads a radial datum through those two alone, so
    a subclass that overrides ``field`` must set ``radial = False``."""

    width: float = 1.0
    mass_vector: tuple = (1.0, 0.0, 0.0)
    radial = True

    def __post_init__(self):
        spectral.Gaussian(self.width)  # refuses a width that is not finite and positive
        _mass_vector(self.mass_vector)

    def envelope(self, xi_squared):
        """exp(-width^2 |xi|^2 / 2) at the given |xi|^2."""
        return spectral.Gaussian(self.width, 1.0).hat(xi_squared=xi_squared)

    def field(self, grid: ModeGrid) -> VectorSpectralField:
        env = self.envelope(grid.xi_squared())
        V0 = np.asarray(self.mass_vector, dtype=float)
        vals = V0[:, None, None, None] * env[None, ...]
        return VectorSpectralField(grid, vals.astype(complex))


def _split(grid: ModeGrid, v: np.ndarray):
    """One projection pass over 3-vector mode values v: (c, P v, Q v).

    c = xi . v / |xi|^2 per mode (0 at xi = 0), so P v = xi c, and
    Q v = v - P v.  Convention at xi = 0: P passes the value, Q vanishes
    (P + Q = I).
    """
    comps = grid.components()
    center = grid.zero_index()
    safe = grid.xi_squared().copy()
    safe[center] = 1.0
    c = sum(comps[d] * v[d] for d in range(3)) / safe
    p_vals = np.stack([comps[d] * c for d in range(3)])
    idx = (slice(None),) + center
    p_vals[idx] = v[idx]
    return c, p_vals, v - p_vals


def project_P(field_: VectorSpectralField) -> VectorSpectralField:
    """Gradient (curl-free) component: multiplication by xi xi^T/|xi|^2."""
    return VectorSpectralField(field_.grid, _split(field_.grid, field_.values)[1])


def project_Q(field_: VectorSpectralField) -> VectorSpectralField:
    """Divergence-free component: multiplication by I - xi xi^T/|xi|^2."""
    return VectorSpectralField(field_.grid, _split(field_.grid, field_.values)[2])


def evolve_visco(
    pair: ViscoKernelPair,
    v0,
    grid: ModeGrid,
    times,
    time_grid: TimeGrid,
):
    """Fields v_hat(., t) = z1 P v0_hat + z Q v0_hat at requested times.

    z1 is the relaxation of the gradient-part kernel, z of the shear
    kernel, both from one solve.
    """
    pair.validate()
    _, p0, q0 = _split(grid, v0.field(grid).values)
    z1, z = _mode_factors([pair.beta_kernel, pair.shear], grid, time_grid, times)
    return [
        VectorSpectralField(grid, p0 * f1[None] + q0 * f[None])
        for f1, f in zip(z1, z)
    ]


def stokes_fundamental(A: float, B: float, grid: ModeGrid, t: float, V0) -> VectorSpectralField:
    """W_hat(xi, t) V0 = e^{-B |xi|^2 t} P V0 + e^{-A |xi|^2 t} Q V0.

    Raises DomainError, before any array work, unless A, B and t are finite
    and positive, V0 is 3 finite reals and the grid is a full 3-D grid."""
    if not all(0.0 < x < math.inf for x in (A, B, t)):  # NaN fails too
        raise DomainError("need finite A, B, t > 0")
    V0 = _mass_vector(V0)
    _require_vector_grid(grid)
    const = np.broadcast_to(V0[:, None, None, None], (3,) + grid.shape).astype(complex)
    _, p, q = _split(grid, const)
    lam2 = grid.xi_squared()
    return VectorSpectralField(
        grid, p * np.exp(-B * lam2 * t)[None] + q * np.exp(-A * lam2 * t)[None]
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
        # np.polyval takes the highest power first.
        d1 = np.polyval(_ERF_POTENTIAL_D1[::-1], u)
        d2 = np.polyval(_ERF_POTENTIAL_D2[::-1], u)
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

    P and Q are orthogonal, so at each mode |v_hat - W_hat V0|^2 is
    |xi|^2 |f1 c - e_B c_V|^2 + |f Q v0_hat - e_A Q V0|^2, where
    c = xi . v0_hat / |xi|^2 and c_V = xi . V0 / |xi|^2, f1 and f are the
    relaxations of the gradient-part and shear kernels, and
    e_K = exp(-K |xi|^2 t).  At xi = 0, where P passes the value and Q
    vanishes, it is |f1 v0_hat(0) - V0|^2.  The squares are weighted by
    the H^s quadrature weight w = h times the trapezoid weight, with h the
    H^s factor per shell of ``spectral._shell_weights``.

    f1, f, e_K and h are constant on each shell of equal |xi|^2 (e_K and h
    taken at the shell's value), so the datum is reduced once per study, c
    against c_V under the factor h lam and Q v0_hat against Q V0 under h,
    to a fit and a residual per shell (trapezoid sums, no weight per mode),
    and each t sums over the shells alone, against G = h lam sum c_V^2 and
    H = h sum |Q V0|^2 per shell.  A radial datum (``VectorGaussian``:
    v0_hat = V0 g(|xi|^2)) is never formed on the modes: both fits are g
    per shell with no residual, and v0_hat(0) = V0 g(0).  Nor is V0 split:
    the lattice is symmetric under permutations and sign flips of the axes,
    so sum w xi xi^T = (lam Y / 3) I on a shell, with Y = sum w from
    ``spectral._shell_weights``, and hence G = |V0|^2 Y / 3 and H = 2 G on
    every shell with lam > 0 (both 0 at xi = 0).  Any other datum is split
    with V0 and fitted by ``spectral._shell_fit``; the imaginary parts of
    the datum only scale by f1 and f (V0 is real) and add two sums per
    shell, scaled as G and H, which a datum with no nonzero imaginary part
    skips.  Each row is within 1e-14 relative of the per-mode assembly of
    the vector fields.

    Requires a finite Sobolev exponent s, finite positive effective
    viscosities A (shear) and B (gradient part), a 1-D ``t_list`` of
    finite positive times (an empty one gives no rows) and a full 3-D
    grid (DomainError for a radial or lower-dimensional one); refusals name the
    failing hypothesis.  A zero mass vector makes the comparison target
    vanish; the report flags it.  Any other mass vector, however small,
    scales the distances linearly.
    """
    h, Y = _shell_weights(grid, s)  # refuses an s that is not finite
    pair.validate()
    A, B = pair.effective_viscosities()
    for val, name in ((A, "shear"), (B, "gradient-part")):
        if val is None or not np.isfinite(val) or val <= 0:
            raise HypothesisViolation(
                f"effective {name} viscosity {val} is not finite and positive"
            )
    t_list = _time_list(t_list)
    _require_vector_grid(grid)
    lams = unique_lambdas(grid)[0]  # lams[0] = 0: the shell of xi = 0
    if getattr(v0, "radial", False):
        V0 = np.asarray(v0.mass_vector, dtype=float)
        G = np.vdot(V0, V0) / 3.0 * Y
        G[0] = 0.0
        H = 2.0 * G
        a = b = v0.envelope(lams)
        R = S = np.zeros_like(G)
        v_zero = V0 * a[0]
    else:
        # The gradient part is weighed by h |xi|^2, h lam per shell.
        h_p = h * lams
        base = v0.field(grid)
        V0 = base.mass_vector
        const = np.broadcast_to(V0[:, None, None, None], (3,) + grid.shape)
        c_V, q_V = _split(grid, const)[::2]
        G, H = h_p * _shell_sums(grid, c_V[None]), h * _shell_sums(grid, q_V)
        v_zero = base.values[(slice(None),) + grid.zero_index()]
        # V0 is real, so the imaginary parts of the datum only scale by f1,
        # f: their sums are formed once.  The parts are split one at a time
        # as real arrays, and what a split leaves unused is freed at once.
        imag_p = imag_q = 0.0
        if np.iscomplexobj(base.values) and base.values.imag.any():
            c, q0 = _split(grid, base.values.imag)[::2]
            imag_p, imag_q = h_p * _shell_sums(grid, c[None]), h * _shell_sums(grid, q0)
            del c, q0
        c, q0 = _split(grid, base.values.real)[::2]
        a, R = _shell_fit(grid, c[None], c_V[None], G, h_p)
        del c, c_V
        b, S = _shell_fit(grid, q0, q_V, H, h)
        R, S = R + imag_p, S + imag_q
    report = ViscoRateReport(s=s, A=float(A), B=float(B), degenerate_mass=not V0.any())
    tg = TimeGrid(1.0, n_steps)
    # z(lam, t) = w(1) of the kernel dilated by t at coupling lam * t, for
    # both kernels in one solve, per shell.
    ts = list(map(float, t_list))
    dilated = [dilate(kernel, t) for kernel in (pair.beta_kernel, pair.shear) for t in ts]
    factors = _shell_factors(dilated, grid, tg, [1.0], ts * 2)
    z1, z = factors[: len(ts)], factors[len(ts) :]
    for t, (f1,), (f,) in zip(ts, z1, z):
        r_0 = f1[0] * v_zero - V0
        sq = (np.vdot((f1 * a - np.exp(-B * lams * t)) ** 2, G) + np.vdot(f1 * f1, R)
              + np.vdot((f * b - np.exp(-A * lams * t)) ** 2, H) + np.vdot(f * f, S)
              + Y[0] * np.vdot(r_0, r_0).real)
        dist = math.sqrt(float(sq))
        report.rows.append((t, float(t ** 0.75 * dist), dist))
    return report
