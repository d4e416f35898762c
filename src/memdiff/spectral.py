"""Fourier-side representation of diffusion with memory.

Every mode of u_t = a0*Lap(u) + a*Lap(u) (convolution in time) evolves
independently: u_hat(xi, t) = z(|xi|^2, t) * u0_hat(xi), where z is the
scalar relaxation of the volterra module.  This module provides the mode
grids, initial data catalog, the evolution operator with lambda
deduplication, Sobolev norms, and real-space synthesis.

Conventions follow f_hat(xi) = int e^{-i x xi} f(x) dx, so Parseval and the
H^s norm carry a (2*pi)^{-n} factor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernels import MemoryKernel, _require_finite, require_positive_definite
from .specfun import mittag_leffler
from .volterra import TimeGrid, _solve_nodes

#: Tolerated imaginary residue after synthesis of a Hermitian field.
SYNTH_IMAG_TOL = 1e-10
#: Largest Hermitian-symmetry defect accepted by synthesize.
HERMITIAN_TOL = 1e-8


@dataclass(frozen=True)
class ModeGrid:
    """Lattice of Fourier modes.

    Full grids cover [-xi_max, xi_max]^n inclusively with spacing
    dxi = 2*xi_max/modes_per_axis (so modes_per_axis+1 nodes per axis and
    xi = 0 on the lattice).  Radial grids cover r in [0, xi_max] with
    modes_per_axis+1 nodes, for radially symmetric data.

    The read-only arrays of a grid (|xi|^2, the components, the trapezoid
    weights and ``unique_lambdas``) depend only on its fields, so they are
    built once per spec and shared by every equal grid; at most 4 specs
    are retained, least recently used first out.  That serves a process
    which builds equal grids more than once, such as a sweep that builds
    its grid per call; one that builds each grid once gains nothing.  The
    components are views of ``axis``, so a spec holds three full arrays,
    kept after its grids are dropped: about 6.6 MB for a 3-D N=64 grid,
    6.5 MB for a 2-D N=512 grid and 51 MB for a 3-D N=128 grid.
    """

    n: int
    modes_per_axis: int
    xi_max: float
    radial: bool = False

    def __post_init__(self):
        try:
            n, modes = operator.index(self.n), operator.index(self.modes_per_axis)
        except TypeError:
            raise DomainError("dimension and modes_per_axis must be integers") from None
        if n not in (1, 2, 3):
            raise DomainError("dimension must be 1, 2 or 3")
        if modes < 2 or modes % 2:
            raise DomainError("modes_per_axis must be a positive even integer")
        if not 0.0 < self.xi_max < math.inf:  # NaN fails too
            raise DomainError("xi_max must be positive and finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modes_per_axis", modes)
        object.__setattr__(self, "xi_max", float(self.xi_max))

    @property
    def dxi(self) -> float:
        if self.radial:
            return self.xi_max / self.modes_per_axis
        return 2.0 * self.xi_max / self.modes_per_axis

    @property
    def axis(self) -> np.ndarray:
        """Mode coordinates along one axis (radial: r >= 0)."""
        N = self.modes_per_axis
        if self.radial:
            return self.dxi * np.arange(N + 1)
        return self.dxi * np.arange(-N // 2, N // 2 + 1)

    @property
    def shape(self):
        if self.radial:
            return (self.modes_per_axis + 1,)
        return (self.modes_per_axis + 1,) * self.n

    def xi_squared(self) -> np.ndarray:
        """|xi|^2 over the grid (radial: r^2); read-only, built once per spec."""
        return _lattice(self).xi_squared

    def components(self):
        """xi-component arrays over the grid (full grids only): read-only
        views of ``axis`` broadcast to the grid, built once per spec."""
        if self.radial:
            raise DomainError("component arrays are undefined on radial grids")
        return _lattice(self).components

    def zero_index(self):
        if self.radial:
            return (0,)
        return (self.modes_per_axis // 2,) * self.n

    def trapezoid_weights(self) -> np.ndarray:
        """Product trapezoid weights (without the dxi^n factor): the outer
        product of the 1-D weights (1/2, 1, ..., 1, 1/2), or those weights
        alone on a radial grid; read-only, built once per spec."""
        return _lattice(self).trapezoid_weights


_Lattice = namedtuple("_Lattice", "xi_squared unique_lambdas components trapezoid_weights")


@lru_cache(maxsize=4)
def _lattice(grid: ModeGrid) -> _Lattice:
    """The read-only arrays of a grid spec, built once and shared by every
    equal grid; see ``ModeGrid``."""
    N, axis = grid.modes_per_axis, grid.axis
    sq = axis**2
    xi_squared = sq
    if grid.radial:
        # Each axis point is its own shell: no bucket array over 0..N^2.
        j = np.arange(N + 1)
        unique = grid.dxi**2 * (j**2).astype(float), j
    else:
        jsq = np.arange(-N // 2, N // 2 + 1) ** 2
        total = jsq
        for _ in range(grid.n - 1):
            xi_squared = xi_squared[..., None] + sq
            total = total[..., None] + jsq
        present = np.zeros(int(total.max()) + 1, dtype=bool)
        present[total] = True
        rank = np.cumsum(present) - 1
        unique = grid.dxi**2 * np.flatnonzero(present).astype(float), rank[total]
    w1 = np.ones(N + 1)
    w1[0] = w1[-1] = 0.5
    weights = w1
    components = None
    if not grid.radial:
        for _ in range(grid.n - 1):
            weights = np.multiply.outer(weights, w1)
        components = tuple(
            np.broadcast_to(axis.reshape((-1,) + (1,) * (grid.n - 1 - d)), grid.shape)
            for d in range(grid.n)
        )
    for a in (xi_squared, *unique, weights):
        a.flags.writeable = False
    return _Lattice(xi_squared, unique, components, weights)


@dataclass
class SpectralField:
    """Fourier samples of a field on a mode grid."""

    grid: ModeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise DomainError("values shape does not match the grid")

    @property
    def mass(self):
        """The xi = 0 sample; equals the space integral of the field."""
        v = self.values[self.grid.zero_index()]
        return float(v.real) if np.iscomplexobj(self.values) else float(v)

    def hermitian_defect(self) -> float:
        """sup |u_hat(-xi) - conj(u_hat(xi))| over the grid."""
        if self.grid.radial:
            return float(np.max(np.abs(self.values.imag))) if np.iscomplexobj(self.values) else 0.0
        flipped = self.values[(slice(None, None, -1),) * self.grid.n]
        return float(np.max(np.abs(flipped - np.conj(self.values))))


class InitialData:
    """Initial datum known through its Fourier transform.  ``radial``: hat
    reads |xi|^2 alone, so studies form it on the shells, not the modes."""

    mass: float = 1.0
    radial = False

    def hat(self, xi_squared=None, xi_components=None):
        raise NotImplementedError

    def field(self, grid: ModeGrid) -> SpectralField:
        return SpectralField(grid, _scaled_datum(self, grid))


def _scaled_datum(u0: InitialData, grid: ModeGrid, k=1.0):
    """u0_hat(xi / k) on the modes, formed as read: the one place a datum
    meets a mode grid.  A radial grid holds |xi| alone, which determines a
    datum that is not radial only in 1-D, and there only an even one, as
    the box is; in n >= 2 such a datum would be read along one ray, so it
    raises DomainError."""
    if grid.radial and grid.n > 1 and not u0.radial:
        raise DomainError(f"a radial grid in n = {grid.n} holds |xi| alone and takes "
                          f"radial data only; {type(u0).__name__} is not radial")
    comps = _lattice(grid).components  # None on a radial grid
    return u0.hat(xi_squared=grid.xi_squared() / k**2,
                  xi_components=None if comps is None else [c / k for c in comps])


@dataclass
class Gaussian(InitialData):
    """u0 with u0_hat(xi) = mass * exp(-width^2 |xi|^2 / 2)."""

    width: float = 1.0
    mass: float = 1.0
    radial = True

    def __post_init__(self):
        _require_finite("Gaussian", width=self.width, mass=self.mass)
        if self.width <= 0:
            raise DomainError("width must be positive")
        # hat squares the width: past about 1.3e154 that overflows.
        if float(self.width) * float(self.width) == math.inf:
            raise DomainError("width must have a finite square")

    def hat(self, xi_squared=None, xi_components=None):
        return self.mass * np.exp(-0.5 * self.width**2 * xi_squared)


@dataclass
class BoxFunction(InitialData):
    """Indicator of [-h, h]^n normalized to the given mass.

    u0_hat(xi) = mass * prod_i sinc(h xi_i); decay is slow (1/|xi|), so
    grid truncation dominates accuracy for this datum.
    """

    half_width: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        _require_finite("BoxFunction", half_width=self.half_width, mass=self.mass)
        if self.half_width <= 0:
            raise DomainError("half_width must be positive")

    def hat(self, xi_squared=None, xi_components=None):
        if xi_components is None:
            # A radial grid, in n = 1 (``_scaled_datum``): the box is even.
            xi_components = [np.sqrt(xi_squared)]
        out = self.mass * np.ones_like(xi_components[0])
        for comp in xi_components:
            out = out * np.sinc(self.half_width * comp / np.pi)
        return out


def unique_lambdas(grid: ModeGrid):
    """Distinct |xi|^2 lattice values and the inverse map onto the grid;
    read-only, built once per spec.

    Modes are bucketed by the integer |j|^2 of their lattice index, so
    equality is exact and 3-D grids collapse to O(N^2) distinct radii.
    The buckets are ranked by a cumulative count instead of a sort, so
    the cost is linear in the grid size.  On a radial grid each of the
    N+1 axis points is its own shell, dxi^2 j^2 at rank j, so the cost is
    O(N) there.
    """
    return _lattice(grid).unique_lambdas


def _shell_factors(kernels, grid: ModeGrid, time_grid: TimeGrid, times, lam_scale=1.0):
    """Shell arrays z(lam_scale[m] * lam, t) of each of ``kernels``, over the
    distinct |xi|^2 values lam of ``unique_lambdas(grid)``.

    The core of the representation formula u_hat = z * u0_hat: one solve
    over the shells of the grid for every kernel at once, which keeps only
    the nodes of ``times``.  ``kernels`` is a sequence of MemoryKernels,
    already dilated where a caller needs a dilation, and ``lam_scale`` a
    scalar or one coupling scale per kernel.  The result is indexed [m][k]
    for the k-th entry of ``times``.  Callers must have checked that every
    kernel is positive definite, since |z| above 1 at any node of the
    solve is then refused as a too coarse time grid.
    """
    indices = [time_grid.index_of(float(t)) for t in np.atleast_1d(times)]
    lambdas = unique_lambdas(grid)[0]
    scaled = [s * lambdas for s in np.broadcast_to(lam_scale, len(kernels))]
    return _solve_nodes(kernels, scaled, time_grid, indices, bounded=True)[0]


def _time_list(t_list, name="t_list") -> np.ndarray:
    """A study's times as a 1-D float array (a scalar is one time).  Raises
    DomainError, naming the list ``name``, for a list that is not 1-D or a
    time that is not finite and positive; an empty list passes."""
    t_list = np.atleast_1d(np.asarray(t_list, dtype=float))
    if t_list.ndim != 1:
        raise DomainError(f"{name} must be a 1-D list of times")
    if not np.all((t_list > 0.0) & (t_list < np.inf)):  # NaN fails too
        raise DomainError(f"{name} must be finite and positive")
    return t_list


def _mode_factors(kernels, grid: ModeGrid, time_grid: TimeGrid, times, lam_scale=1.0):
    """Grid arrays z(lam_scale[m] * |xi|^2, t) of each of ``kernels``: the
    shell arrays of ``_shell_factors`` gathered onto the modes, indexed
    [m][k] the same way."""
    inverse = unique_lambdas(grid)[1]
    zs = _shell_factors(kernels, grid, time_grid, times, lam_scale)
    return [[zk[inverse] for zk in z] for z in zs]


def evolve(
    kernel: MemoryKernel,
    u0: InitialData,
    grid: ModeGrid,
    times,
    time_grid: TimeGrid,
):
    """Fields u_hat(., t) = z(|xi|^2, t) u0_hat for each requested time.

    Refuses kernels that fail the positive-definiteness check, mirroring
    the existence hypothesis of the representation formula, and a datum
    the grid cannot hold (``_scaled_datum``), before any solve.
    """
    require_positive_definite(kernel)
    base = u0.field(grid).values
    factors = _mode_factors([kernel], grid, time_grid, times)[0]
    return [SpectralField(grid, base * factor) for factor in factors]


def _quadrature_scale(grid: ModeGrid, s: float):
    """dxi^n / (2 pi)^n, and on a radial grid surf * r^(n-1) * dxi / (2 pi)^n
    per axis point, with surf the area of the unit sphere.  Raises
    DomainError unless the Sobolev exponent s is finite (NaN fails too)."""
    if not math.isfinite(s):
        raise DomainError(f"Sobolev exponent s must be finite (got s = {s})")
    if grid.radial:
        surf = 2.0 * math.pi ** (grid.n / 2.0) / math.gamma(grid.n / 2.0)
        return surf * grid.axis ** (grid.n - 1) * grid.dxi / (2.0 * math.pi) ** grid.n
    return (grid.dxi / (2.0 * math.pi)) ** grid.n


def _hs_weights(grid: ModeGrid, s: float) -> np.ndarray:
    """Per mode, the weight of the trapezoid H^s quadrature of ``hs_norm``:
    (1+|xi|^2)^s times the trapezoid weight times ``_quadrature_scale``.
    Raises DomainError unless s is finite."""
    scale = _quadrature_scale(grid, s)
    return grid.trapezoid_weights() * (1.0 + grid.xi_squared()) ** s * scale


def _shell_weights(grid: ModeGrid, s: float):
    """(h, Y) per shell of ``unique_lambdas``: the H^s factor
    h = ``_quadrature_scale`` times (1+lam)^s, constant on the shell, and
    Y = h times the shell's trapezoid mass (one ``np.bincount`` of the
    trapezoid weights; on a radial grid each axis point is its own shell),
    the sum of the ``_hs_weights`` over the shell to rounding.  No weight is
    formed per mode.  Raises DomainError unless s is finite."""
    scale = _quadrature_scale(grid, s)
    lams, inverse = unique_lambdas(grid)
    mass = grid.trapezoid_weights()
    if not grid.radial:
        mass = np.bincount(inverse.ravel(), mass.ravel(), len(lams))
    factor = (1.0 + lams) ** s
    return scale * factor, mass * scale * factor


def _shell_sums(grid: ModeGrid, x, y=None) -> np.ndarray:
    """Per shell: the trapezoid sum of x.y, x.y dotted over the leading axis (y = x by default)."""
    lams, inverse = unique_lambdas(grid)
    xy = np.einsum("i...,i...->...", x, x if y is None else y)
    return np.bincount(inverse.ravel(), (grid.trapezoid_weights() * xy).ravel(), len(lams))


def _shell_fit(grid: ModeGrid, x, y, Y, h):
    """(k, R) per shell for x and a real y, dotted over their leading axis,
    under the weight h times the trapezoid weight, with h constant on each
    shell and Y = h sum y.y per shell (formed once by the caller):
    k = h sum Re(x).y / Y (0 where Y = 0), R = h sum |x - k y|^2.  So for
    real f, e constant on shells, h sum |f x - e y|^2 is the sum over the
    shells of (f k - e)^2 Y + f^2 R, of nonnegative parts that do not cancel."""
    inverse = unique_lambdas(grid)[1]
    k = np.divide(h * _shell_sums(grid, x.real, y), Y, out=np.zeros_like(Y), where=Y > 0)
    R = _shell_sums(grid, x.real - k[inverse] * y)
    if np.iscomplexobj(x):
        R = R + _shell_sums(grid, x.imag)
    return k, h * R


def hs_norm(field_: SpectralField, s: float) -> float:
    """((2 pi)^{-n} integral (1+|xi|^2)^s |u_hat|^2 d xi)^{1/2} by trapezoid."""
    return math.sqrt(float(np.sum(_hs_weights(field_.grid, s) * np.abs(field_.values) ** 2)))


def synthesize(field_: SpectralField):
    """Real-space samples on the dual lattice x_m = m * pi / xi_max.

    Inverse transform under the convention u(x) = (2 pi)^{-n}
    integral e^{i x xi} u_hat(xi) d xi, computed by trapezoid sums.
    Returns (x_axis, samples).
    """
    grid = field_.grid
    if grid.radial:
        raise DomainError("synthesize requires a full (non-radial) grid")
    defect = field_.hermitian_defect()
    scale = float(np.max(np.abs(field_.values))) or 1.0
    if defect > HERMITIAN_TOL * scale:
        raise DomainError(
            f"field is not Hermitian symmetric (defect {defect:.3e})"
        )
    N = grid.modes_per_axis
    xi = grid.axis
    dx = math.pi / grid.xi_max
    x = dx * np.arange(-N // 2, N // 2 + 1)
    # Per-axis phase matrix including trapezoid end weights and dxi.
    w1 = np.ones(N + 1)
    w1[0] = w1[-1] = 0.5
    M = np.exp(1j * np.outer(x, xi)) * (w1 * grid.dxi)
    out = np.asarray(field_.values, dtype=complex)
    for _ in range(grid.n):
        out = np.tensordot(out, M, axes=([0], [1]))
    out = out / (2.0 * math.pi) ** grid.n
    max_imag = float(np.max(np.abs(out.imag)))
    if max_imag > SYNTH_IMAG_TOL * max(1.0, float(np.max(np.abs(out.real)))):
        raise DomainError(f"imaginary residue {max_imag:.3e} after synthesis")
    return x, out.real


def evaluate_at(field_: SpectralField, points) -> np.ndarray:
    """Inverse transform at arbitrary real-space points (trapezoid sum)."""
    grid = field_.grid
    if grid.radial:
        raise DomainError("evaluate_at requires a full grid")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != grid.n:
        raise DomainError(f"points must have {grid.n} coordinates")
    # e^{i p.xi} is a product of one phase factor per axis.
    phases = [np.exp(1j * np.outer(pts[:, d], grid.axis)) for d in range(grid.n)]
    weighted = grid.trapezoid_weights() * grid.dxi**grid.n * field_.values
    axes = "abc"[: grid.n]
    spec = ",".join("p" + a for a in axes) + f",{axes}->p"
    vals = np.einsum(spec, *phases, weighted, optimize=True)
    return vals / (2.0 * math.pi) ** grid.n


def limit_profile(beta: float, grid: ModeGrid, t: float, mass: float) -> SpectralField:
    """Self-similar limit w_hat(xi, t) = mass * E_{1+beta}(-|xi|^2 t^{1+beta}).
    Raises DomainError unless t is finite and positive and mass finite."""
    if not -1.0 < beta <= 1.0:
        raise DomainError("beta must lie in (-1, 1]")
    if not 0.0 < t < math.inf:  # NaN fails too
        raise DomainError("t must be positive and finite")
    if not math.isfinite(mass):
        raise DomainError("mass must be finite")
    alpha = 1.0 + beta
    lambdas, inverse = unique_lambdas(grid)
    return SpectralField(grid, mass * mittag_leffler(alpha, -lambdas * t**alpha)[inverse])
