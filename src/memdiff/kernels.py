"""Catalog of memory kernels (a0, a) with closed-form primitives.

A kernel is the pair of an instantaneous coefficient ``a0 >= 0`` and a
fading-memory part ``a(t)``.  The object that drives all asymptotics is the
integrated kernel ``A(t) = a0 + int_0^t a(s) ds``; every family supplies
``A`` in closed form, the transform of ``a``, and one cell rule, ``_hat``:
the weights of ``A`` against the two hat functions of a cell, which is all
the Volterra solver uses of the kernel: its Toeplitz weights are that rule
on the cells of a grid.  Heat, Wave, Exponential, NegExponential and
Cosine state only the terms of A = sum g t^m e^(s t), from which A, a,
its transform, its total mass and closed-form hat weights with no
differencing all derive.  Sums, scalings and dilations state only their
terms (factor, dilation, leaf), A(t) = sum f A_leaf(T t) (``_terms``), and
sum each of those over their leaves (``_Combination``), so they stay as
exact.
``LogModified`` takes its weights and transform from fixed rules exact to
rounding: Gauss-Legendre per cell, trapezoid on a rotated ray.  Power
laws sum a Taylor series of positive terms on each cell no wider than its
start, and integrate wider cells from their end; sampled kernels
difference the antiderivatives of their interpolant.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, HypothesisViolation, NotEventuallyPositiveError

#: Shift used to approximate the boundary limit of the Laplace transform.
PD_BOUNDARY_SHIFT = 1e-8
#: Tolerance on the minimum of a0 + Re a~(h + i w) for a pass.
PD_MIN_TOLERANCE = 1e-9
#: Agreement required among trailing doubling ratios for convergence.
RV_CONVERGENCE_TOL = 0.02

# Trapezoid rule in x on [-45, 6] for transforms along the ray t = e^x / s,
# where s t = e^x is real and the integrand decays doubly exponentially.
_RAY_X, _RAY_H = np.linspace(-45.0, 6.0, 400, retstep=True)
_RAY_R, _RAY_W = np.exp(_RAY_X), _RAY_H * np.exp(_RAY_X - np.exp(_RAY_X))
# Gauss-Legendre on [0, 1]; 10 points would miss the cell [0, 1e5] by 7e-5.
# The positive nodes of the 20-point rule on [-1, 1] and their weights, as
# numpy.polynomial.legendre.leggauss(20) gives them (the rule is symmetric),
# tabulated so that importing memdiff does not load numpy.polynomial.
_GL_X = np.array([
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
    0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
    0.9639719272779138, 0.993128599185095,
])
_GL_V = np.array([
    0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
    0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
    0.040601429800386446, 0.017614007139150893,
])
_GL_U = (np.concatenate([-_GL_X[::-1], _GL_X]) + 1.0) / 2.0
_GL_W = np.concatenate([_GL_V[::-1], _GL_V]) / 2.0
# Taylor coefficients of phi_R and phi_L, highest power first: 1/(k+2)! and
# (k+1)/(k+2)! for k < 18, so the first omitted term is below 1e-17 at |z| < 1.
_PHI_R = tuple(1.0 / math.factorial(k + 2) for k in range(17, -1, -1))
_PHI_L = tuple(r * (18 - i) for i, r in enumerate(_PHI_R))


def _phi(z):
    """(phi_R(z), phi_L(z)) = int_0^1 ((1 - u), u) e^(z u) du, elementwise.

    The closed forms (e^z - 1 - z)/z^2 and (z e^z - e^z + 1)/z^2 cancel for
    small z, so |z| < 1 takes the Taylor series by Horner's rule; z may be
    complex.  ``_phi_part`` states the rule once, for a scalar or an array.
    A real scalar takes Python arithmetic and gives floats with the bits of
    the array rule; the solver passes a handful, one per rate and dilation.
    Anything else is split by |z| < 1 and gives two arrays of its shape, a
    complex scalar 0-d arrays: Python's complex products and quotients have
    other bits than numpy's, and a product with a 0-d array is numpy's.
    """
    if isinstance(z, float):
        return _phi_part(z, abs(z) < 1.0)
    z = np.asarray(z)
    small = np.abs(z) < 1.0
    out = np.empty((2,) + z.shape, dtype=np.result_type(z, float))
    out[:, small] = _phi_part(z[small], True)
    out[:, ~small] = _phi_part(z[~small], False)
    return out[0, ...], out[1, ...]


def _phi_part(z, small: bool):
    """``_phi`` of a real scalar z, or of an array z whose entries all have
    |z| < 1 if ``small`` and |z| >= 1 if not.  e^z - 1 is numpy's ``expm1``
    for a scalar too, which has the bits of its array rule (``math.expm1``
    has not)."""
    if small:
        pR = pL = 0.0
        for r, l in zip(_PHI_R, _PHI_L):
            pR = pR * z + r
            pL = pL * z + l
        return pR, pL
    em1 = np.expm1(z)
    if isinstance(em1, np.generic):
        em1 = em1.item()
    z2 = z * z
    return (em1 - z) / z2, (z * em1 + z - em1) / z2


def _series_terms(u_hi):
    """Last index N of the sum in ``_power_series`` for u <= u_hi: the first
    omitted term, below 3^N u^(N-1) / (N+1)! for k <= 2, is then below 1e-20
    of the sum, which is at least its first term, 1/2."""
    n = 2
    while 3.0**n * u_hi ** (n - 1) / math.factorial(n + 1) >= 0.5e-20:
        n += 1
    return n


#: Bands of ``_power_series``: a cell with u <= _SERIES_U[j] needs the
#: terms n <= _SERIES_N[j] = 27, 16, 11, 7.
_SERIES_U = (math.log(2.0), 1.0 / 8.0, 1.0 / 64.0, 1.0 / 4096.0)
_SERIES_N = tuple(map(_series_terms, _SERIES_U))


def _power_series(k, u):
    """int_0^u e^(k v) expm1(v) dv / u^2 by Horner's rule on its Taylor
    series, sum over n = 2..N of ((k + 1)^(n-1) - k^(n-1)) / n! u^(n-2),
    for a 1-D array u <= log 2 and k <= 2.  Each cell sums up to the N of
    its band (``_SERIES_N``), which keeps the first omitted term below
    1e-20 of the sum.  Horner's rule starts at the top term, so the terms
    above a band's N run only on the cells above that band."""
    y = np.zeros_like(u)
    for lo, N, top in zip(_SERIES_U[1:], _SERIES_N[1:], _SERIES_N):
        cells = np.flatnonzero(u > lo)
        v, s = u[cells], y[cells]
        for n in range(top, N, -1):
            s *= v
            s += ((k + 1.0) ** (n - 1) - k ** (n - 1)) / math.factorial(n)
        y[cells] = s
    for n in range(_SERIES_N[-1], 1, -1):
        y *= u
        y += ((k + 1.0) ** (n - 1) - k ** (n - 1)) / math.factorial(n)
    return y


class MemoryKernel:
    """Base class: subclasses provide a0, a(t), A(t) and ``_hat``.

    ``_hat`` is the kernel's one cell rule, the weights of A against the
    two hat functions of a cell, from which the Volterra solver builds its
    Toeplitz weights.
    """

    a0: float = 0.0
    description: str = "memory kernel"

    # -- pointwise values -------------------------------------------------

    def a(self, t):
        """Density a(t) = A'(t) for t > 0."""
        raise HypothesisViolation(f"{self.description} has no density a(t)")

    def primitive(self, t):
        """A(t) = a0 + int_0^t a(s) ds."""
        raise NotImplementedError

    def laplace(self, s):
        """Laplace transform of a at s; DomainError outside the half plane."""
        raise HypothesisViolation(f"{self.description} has no Laplace transform, so its "
                                  "positive definiteness cannot be checked")

    def total_mass(self):
        """a0 + int_0^inf a(s) ds; may be inf, or None if non-convergent."""
        return None

    # -- quadrature support ----------------------------------------------

    def _hat(self, t0, h):
        """(wL, wR) = (int A(s) (s - t0) ds, int A(s) (t0 + h - s) ds) / h
        over the cell [t0, t0 + h], elementwise, for h > 0."""
        raise NotImplementedError

    def _terms(self):
        """(factor, dilation, leaf) triples with A(t) = sum f A_leaf(T t);
        a catalog kernel is its own one leaf."""
        return [(1.0, 1.0, self)]

    def moment_cells(self, dt: float, n: int):
        """Cell moments (int A, int s A(s) ds) over [r*dt, (r+1)*dt], r < n,
        from ``_hat``.  No solve reads them; ``bench/tracing.py`` wraps this
        method by name."""
        t0 = dt * np.arange(n)
        wL, wR = self._hat(t0, dt)
        m0 = wL + wR
        return m0, t0 * m0 + dt * wL

    def __add__(self, other):
        if not isinstance(other, MemoryKernel):
            return NotImplemented
        return SumKernel(self, other)


class _ExpPolyKernel(MemoryKernel):
    """Family with A(t) = sum g t^m e^(s t) over the terms (g, s, m) of
    ``exp_terms``, m in {0, 1}, s = 0 when m = 1.

    A family states only its terms; A, a, the transform of a, the total
    mass and the hat weights all derive from them.  The hat weights are
    closed-form: differences of antiderivatives would cancel on short
    cells and far from t = 0.  Conjugate pairs of complex terms give real
    values.
    """

    def exp_terms(self):
        raise NotImplementedError

    def primitive(self, t):
        # A = A(0) + sum of g expm1(s t) over s != 0 + sum of g t: near t = 0
        # no e^(s t) cancels against a constant term, and a constant term
        # is g, where g e^(0 t) would be NaN at t = inf.
        t = np.asarray(t, dtype=float)
        terms = self.exp_terms()
        A = sum((g for g, _, m in terms if not m), 0.0) + np.zeros_like(t)
        for g, s, m in terms:
            if m or s:
                A = A + g * (t if m else np.expm1(s * t))
        return np.real(A)

    def a(self, t):
        # A constant term of A adds nothing to a.
        t = np.asarray(t, dtype=float)
        a = np.zeros_like(t)
        for g, s, m in self.exp_terms():
            if m or s:
                a = a + (g if m else g * s * np.exp(s * t))
        return np.real(a)

    def laplace(self, p):
        # g t transforms to g / p and g s e^(s t) to g s / (p - s); as the
        # t-terms have s = 0, each term needs Re p > Re s.  A constant term
        # transforms to 0 anywhere, so with no other term (Heat) no half
        # plane is checked, and NaN alone is refused.
        terms = [(g, s, m) for g, s, m in self.exp_terms() if m or s]
        p = _transform_argument(self, p, max((np.real(s) for _, s, _ in terms), default=None))
        out = np.zeros_like(p)
        for g, s, m in terms:
            out = out + (g / p if m else g * s / (p - s))
        return out

    def total_mass(self):
        # A(inf): inf with a t-term, None if a rate s != 0 has Re s >= 0,
        # else the sum of the constant terms.
        terms = self.exp_terms()
        if any(m for _, _, m in terms):
            return math.inf
        if any(s and np.real(s) >= 0 for _, s, _ in terms):
            return None
        return sum((g for g, s, _ in terms if not s), 0.0).real

    def _hat(self, t0, h):
        # A term g e^(s t) gives g h e^(s t0) (phi_L, phi_R)(s h), and g t
        # gives g h (t0/2 + h/3, t0/2 + h/6): sums of positive parts, so only
        # the terms' own signs can cancel.
        wL = wR = 0.0
        for g, s, m in self.exp_terms():
            if m:
                wL = wL + g * h * (t0 / 2.0 + h / 3.0)
                wR = wR + g * h * (t0 / 2.0 + h / 6.0)
            else:
                pR, pL = _phi(s * h)
                e = g * h * np.exp(s * t0)
                wL = wL + e * pL
                wR = wR + e * pR
        return np.real(wL), np.real(wR)


def _transform_argument(kernel: MemoryKernel, s, abscissa):
    """s as a complex array for ``kernel.laplace``: DomainError if it holds
    NaN, or, unless ``abscissa`` is None, if any Re s <= abscissa."""
    s = np.asarray(s, dtype=complex)
    if np.any(np.isnan(s)):
        raise DomainError(f"Laplace transform of {kernel.description} needs an s without NaN")
    if abscissa is not None and np.any(s.real <= abscissa):
        raise DomainError(f"Laplace transform of {kernel.description} needs Re s > {abscissa}")
    return s


def _require_finite(family: str, **params):
    """DomainError naming the first parameter of a family that is NaN or
    infinite; the range checks of the families let NaN through."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{family} needs a finite {name}")


@dataclass
class Heat(_ExpPolyKernel):
    """a = 0: the plain heat equation with diffusivity a0."""

    a0: float = 1.0

    def __post_init__(self):
        _require_finite("Heat kernel", a0=self.a0)
        if self.a0 <= 0:
            raise DomainError("Heat kernel needs a0 > 0")
        self.description = f"heat(a0={self.a0})"

    def exp_terms(self):
        return [(self.a0, 0.0, 0)]


@dataclass
class Wave(_ExpPolyKernel):
    """a = c constant: the wave equation for a0 = 0."""

    c: float = 1.0
    a0: float = 0.0

    def __post_init__(self):
        _require_finite("Wave kernel", c=self.c, a0=self.a0)
        if self.c <= 0:
            raise DomainError("Wave kernel needs c > 0")
        self.description = f"wave(c={self.c}, a0={self.a0})"

    def exp_terms(self):
        return [(self.a0, 0.0, 0), (self.c, 0.0, 1)]


@dataclass
class PowerLaw(MemoryKernel):
    """a(t) = c t^{beta-1}, so A = a0 + (c/beta) t^beta.

    The catalog range is beta in (0, 1) with c > 0; beta in (-1, 0) with
    c < 0 is additionally accepted so the fractional relaxation oracle
    A(t) = t^beta / Gamma(1+beta) is representable (see ``fractional``).
    """

    beta: float = 0.5
    c: float = 1.0
    a0: float = 0.0

    def __post_init__(self):
        if not -1.0 < self.beta <= 1.0 or self.beta == 0.0:
            raise DomainError("PowerLaw needs beta in (-1, 0) or (0, 1]")
        _require_finite("PowerLaw", c=self.c, a0=self.a0)
        if self.c == 0.0:
            raise DomainError("PowerLaw needs c != 0")
        if self.beta > 0 and self.c < 0:
            raise DomainError("PowerLaw with beta > 0 needs c > 0")
        if self.beta < 0 and self.c > 0:
            raise DomainError("PowerLaw with beta < 0 needs c < 0")
        self.description = f"powerlaw(beta={self.beta}, c={self.c}, a0={self.a0})"

    def a(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return self.c * t ** (self.beta - 1.0)

    def primitive(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return self.a0 + (self.c / self.beta) * t**self.beta

    def _hat(self, t0, h):
        # With k = beta + 1 and u = log1p(h / t0), a cell with h <= t0 has
        # int s^beta ds = t0^k expm1(k u) / k and int s^beta (s - t0) ds =
        # t0^(k+1) u^2 P(u), where u^2 P(u) = int_0^u e^(k v) expm1(v) dv is
        # a Taylor series of positive terms: far cells do not cancel.  A
        # wider cell, t1 = t0 + h >= 2 t0 (the origin's too), takes the same
        # integrals from t1: t1^k (-expm1(-k u)) / k and
        # t1^(k+1) (-expm1(-(k+1) u)) / (k+1) - t0 m0, which lose at most a
        # few bits there.  a0 adds a0 h / 2 to each weight.
        k = self.beta + 1.0
        t0, h = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(h, dtype=float))
        with np.errstate(divide="ignore"):
            u = np.log1p(h / t0)
        m0, j = np.empty(t0.shape), np.empty(t0.shape)
        near = h <= t0
        a, v = t0[near], u[near]
        p = a**k
        m0[near] = p * np.expm1(k * v) / k
        j[near] = p * a * v * v * _power_series(k, v)
        wide = ~near
        a, v, t1 = t0[wide], u[wide], (t0 + h)[wide]
        p = t1**k
        m0[wide] = -p * np.expm1(-k * v) / k
        j[wide] = -p * t1 * np.expm1(-(k + 1.0) * v) / (k + 1.0) - a * m0[wide]
        wL = j / h
        f, half = self.c / self.beta, self.a0 * h / 2.0
        return f * wL + half, f * (m0 - wL) + half

    def laplace(self, s):
        # For beta in (0,1) this is the classical transform of c t^{beta-1};
        # for beta in (-1,0) the same formula is the Abel-regularized
        # (distributional) transform of the non-locally-integrable kernel.
        s = _transform_argument(self, s, 0.0)
        return self.c * math.gamma(self.beta) * s ** (-self.beta)

    def total_mass(self):
        return math.inf if self.beta > 0 else None


def fractional(beta: float) -> PowerLaw:
    """Kernel with A(t) = t^beta / Gamma(1+beta), beta in (-1, 0) or (0, 1].

    The scalar relaxation for this kernel is E_{1+beta}(-lambda t^{1+beta}).
    """
    k = PowerLaw(beta=beta, c=beta / math.gamma(1.0 + beta), a0=0.0)
    k.description = f"fractional(beta={beta})"
    return k


@dataclass
class Exponential(_ExpPolyKernel):
    """a(t) = c e^{-mu t}; integrable memory, heat-like asymptotics."""

    mu: float = 1.0
    c: float = 1.0
    a0: float = 0.0

    def __post_init__(self):
        _require_finite("Exponential kernel", mu=self.mu, c=self.c, a0=self.a0)
        if self.mu <= 0:
            raise DomainError("Exponential kernel needs mu > 0")
        if self.c == 0.0:
            raise DomainError("Exponential kernel needs c != 0")
        self.description = f"exponential(mu={self.mu}, c={self.c}, a0={self.a0})"

    def exp_terms(self):
        return [(self.a0 + self.c / self.mu, 0.0, 0), (-self.c / self.mu, -self.mu, 0)]


class NegExponential(_ExpPolyKernel):
    """a(t) = -e^{-t} with a0 = 1, so A(t) = e^{-t}."""

    a0 = 1.0
    description = "negexponential(a=-exp(-t), a0=1)"

    def exp_terms(self):
        return [(1.0, -1.0, 0)]


class Cosine(_ExpPolyKernel):
    """a(t) = cos t with a0 = 0, so A(t) = sin t; not regularly varying."""

    a0 = 0.0
    description = "cosine(a=cos t, a0=0)"

    def exp_terms(self):
        return [(-0.5j, 1j, 0), (0.5j, -1j, 0)]


@dataclass
class LogModified(MemoryKernel):
    """A(t) = t (log(e + t))^m: index-1 variation with a logarithmic factor."""

    m: float = 1.0
    a0: float = 0.0

    def __post_init__(self):
        _require_finite("LogModified", m=self.m)
        if self.a0 != 0.0:
            raise DomainError("LogModified is defined with a0 = 0")
        self.description = f"logmodified(m={self.m})"

    def a(self, t):
        t = np.asarray(t)
        lg = np.log(np.e + t)
        return lg**self.m + t * self.m * lg ** (self.m - 1.0) / (np.e + t)

    def primitive(self, t):
        t = np.asarray(t, dtype=float)
        return t * np.log(np.e + t) ** self.m

    def _hat(self, t0, h):
        # Gauss-Legendre in v = log(1 + s/e), on which A(s) = s (1 + v)^m and
        # ds = (e + s) dv.  The cell spans dv = log1p(h / (e + t0)), and at
        # v0 + u dv the distance s - t0 = (e + t0) expm1(u dv) is formed
        # without differencing nearby values.
        t0 = np.asarray(t0, dtype=float)
        et0 = np.e + t0
        dv = np.log1p(h / et0)
        udv = np.multiply.outer(_GL_U, dv)
        d = et0 * np.expm1(udv)
        f = (t0 + d) * (np.log(et0) + udv) ** self.m * (et0 + d) * (dv / h)
        return np.tensordot(_GL_W, f * d, axes=1), np.tensordot(_GL_W, f * (h - d), axes=1)

    def laplace(self, s):
        # a, kept complex, is analytic in Re t > -e: rotate onto the ray.
        s = _transform_argument(self, s, 0.0)
        return np.tensordot(_RAY_W, self.a(np.multiply.outer(_RAY_R, 1.0 / s)), axes=1) / s

    def total_mass(self):
        return math.inf


def _add(values):
    """Sum from the first value on: a start of 0 would turn -0.0 into 0.0."""
    return functools.reduce(operator.add, values)


class _Combination(MemoryKernel):
    """A sum, scaling or dilation, which states only its terms (f, T, leaf):
    each member is the sum over them of the leaf's, a0 as f a0, A as
    f A(T t), a as f T a(T t), the transform as f a~(s / T) and the total
    mass as f mass, None if a leaf's is."""

    @property
    def a0(self):
        return _add(f * leaf.a0 for f, _, leaf in self._terms())

    def a(self, t):
        return _add(f * T * leaf.a(T * np.asarray(t)) for f, T, leaf in self._terms())

    def primitive(self, t):
        t = np.asarray(t, dtype=float)
        return _add(f * leaf.primitive(T * t) for f, T, leaf in self._terms())

    def _hat(self, t0, h):
        # s -> T s maps the cell onto [T t0, T (t0 + h)] and scales by 1/T.
        w = [(f, T, leaf._hat(T * t0, T * h)) for f, T, leaf in self._terms()]
        return _add(f * wL / T for f, T, (wL, _) in w), _add(f * wR / T for f, T, (_, wR) in w)

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        return _add(f * leaf.laplace(s / T) for f, T, leaf in self._terms())

    def total_mass(self):
        masses = [(f, leaf.total_mass()) for f, _, leaf in self._terms()]
        return None if any(m is None for _, m in masses) else _add(f * m for f, m in masses)


class SumKernel(_Combination):
    """Pointwise sum of two kernels: the terms of both."""

    def __init__(self, left: MemoryKernel, right: MemoryKernel):
        self.left = left
        self.right = right
        self.description = f"sum({left.description}, {right.description})"

    def _terms(self):
        return self.left._terms() + self.right._terms()


class ScaledKernel(_Combination):
    """Kernel multiplied by a positive constant factor."""

    def __init__(self, base: MemoryKernel, factor: float):
        if not 0.0 < factor < math.inf:  # NaN fails too
            raise DomainError("scale factor must be positive and finite")
        self.base = base
        self.factor = float(factor)
        self.description = f"{factor}*{base.description}"

    def _terms(self):
        return [(self.factor * f, T, leaf) for f, T, leaf in self.base._terms()]


class TimeDilated(_Combination):
    """Kernel with integrated part A_T(t) = A(T t) for a base kernel; its
    cell rule follows from the base's by substitution, without loss."""

    def __init__(self, base: MemoryKernel, T: float):
        if not 0.0 < T < math.inf:  # NaN fails too
            raise DomainError("dilation factor T must be positive and finite")
        self.base = base
        self.T = float(T)
        self.description = f"dilated(T={T}, {base.description})"

    def _terms(self):
        return [(f, self.T * T, leaf) for f, T, leaf in self.base._terms()]


class SampledKernel(MemoryKernel):
    """Integrated kernel known only through samples A(t_i) on a uniform grid.

    ``A`` is interpolated piecewise linearly and held at its last sample
    past the last node, in ``primitive`` and the cell rule alike; the hat
    weights are those of the interpolant, differences of its closed-form
    antiderivatives.
    """

    def __init__(self, dt: float, values):
        self.dt = float(dt)
        self.values = np.asarray(values, dtype=float)
        if not 0.0 < self.dt < math.inf:
            raise DomainError("sample spacing dt must be positive and finite")
        if self.values.ndim != 1 or len(self.values) < 2:
            raise DomainError("need at least two samples of A")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("samples of A must be finite")
        self.a0 = float(self.values[0])
        self.description = "sampled kernel"
        # Antiderivatives of the piecewise-linear interpolant at the nodes.
        nodes = self.dt * np.arange(len(self.values))
        mids = 0.5 * (self.values[1:] + self.values[:-1])
        self._i1 = np.concatenate([[0.0], np.cumsum(mids * self.dt)])
        a, b = self.values[:-1], self.values[1:]
        # int_{t0}^{t0+dt} s * linear(s) ds with linear(t0)=a, linear(t0+dt)=b
        cell_i2 = nodes[:-1] * mids * self.dt + self.dt**2 * (a / 6.0 + b / 3.0)
        self._i2 = np.concatenate([[0.0], np.cumsum(cell_i2)])
        self._nodes = nodes
        # The interpolant's slope from each node on: 0 past the last.
        self._slopes = np.append(np.diff(self.values) / self.dt, 0.0)

    def primitive(self, t):
        return np.interp(np.asarray(t, dtype=float), self._nodes, self.values)

    def _hat(self, t0, h):
        def antiderivatives(t):
            # The nodes' values plus the part of the sample cell [tl, t], or
            # of the constant A past the last node.
            idx = np.clip((t / self.dt).astype(int), 0, len(self.values) - 1)
            tl, a, slope = self._nodes[idx], self.values[idx], self._slopes[idx]
            d = t - tl
            return (self._i1[idx] + a * d + slope * d**2 / 2.0,
                    self._i2[idx] + a * (t**2 - tl**2) / 2.0 + slope * d**2 * (tl / 2.0 + d / 3.0))

        # Differences of the antiderivatives at the cell's edges.
        t0 = np.asarray(t0, dtype=float)
        t1 = t0 + h
        (i0, j0), (i1, j1) = antiderivatives(t0), antiderivatives(t1)
        m0, m1 = i1 - i0, j1 - j0
        return (m1 - t0 * m0) / h, (t1 * m0 - m1) / h


def scale(kernel: MemoryKernel, factor: float) -> MemoryKernel:
    """factor * kernel, a ``ScaledKernel``: its terms (``MemoryKernel._terms``)
    carry the factor through to the leaves of the kernel tree."""
    return ScaledKernel(kernel, factor)


def dilate(kernel: MemoryKernel, T: float) -> MemoryKernel:
    """Kernel whose integrated part is A(T t): the kernel itself at T = 1,
    else a ``TimeDilated`` wrapper.

    Time dilation underlies the rescaling identity z(lam, T*tau) =
    w(tau) with w solving the relaxation equation for the dilated kernel
    and coupling lam*T.  No family is rebuilt with new constants: each
    leaf's dilation is read from the kernel tree (``MemoryKernel._terms``).
    """
    return kernel if T == 1.0 else TimeDilated(kernel, T)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def primitive_A(kernel: MemoryKernel, t):
    """A(t) = a0 + int_0^t a(s) ds, in closed form per family; a t that is
    negative or NaN raises DomainError."""
    if not np.all(np.asarray(t) >= 0):  # NaN fails too
        raise DomainError("primitive_A needs t >= 0")
    out = kernel.primitive(t)
    return float(out) if np.isscalar(t) else out


def laplace_a(kernel: MemoryKernel, s):
    """Analytic Laplace transform of the memory part a; an s that holds
    NaN raises DomainError."""
    if np.any(np.isnan(s)):
        raise DomainError("laplace_a needs an s without NaN")
    out = kernel.laplace(s)
    return complex(out) if np.isscalar(s) else out


@dataclass
class PositiveDefiniteReport:
    min_value: float
    passed: bool
    omega_at_min: float


@functools.lru_cache(maxsize=16)
def _pd_frequencies(omega_max: float, n_samples: int) -> np.ndarray:
    """The frequencies of ``check_positive_definite``: 0, then n_samples - 1
    log-spaced from 1e-4 to omega_max; read-only, built once per
    (omega_max, n_samples)."""
    omegas = np.concatenate([[0.0], np.logspace(-4, math.log10(omega_max), n_samples - 1)])
    omegas.flags.writeable = False
    return omegas


def check_positive_definite(
    kernel: MemoryKernel, omega_max: float = 100.0, n_samples: int = 400
) -> PositiveDefiniteReport:
    """Sample a0 + Re a~(h + i w) on a log-spaced frequency grid.

    ``h`` approximates the boundary limit from the right half plane.  An
    ``omega_max`` that is not finite and positive, or an ``n_samples``
    that is not an integer >= 2, raises DomainError.
    """
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise DomainError("n_samples must be an integer >= 2") from None
    if not (0.0 < omega_max < math.inf and n_samples >= 2):  # NaN fails too
        raise DomainError("need a finite omega_max > 0 and n_samples >= 2")
    omegas = _pd_frequencies(float(omega_max), n_samples)
    vals = kernel.a0 + np.real(kernel.laplace(PD_BOUNDARY_SHIFT + 1j * omegas))
    i = int(np.argmin(vals))
    return PositiveDefiniteReport(
        min_value=float(vals[i]),
        passed=bool(vals[i] >= -PD_MIN_TOLERANCE),
        omega_at_min=float(omegas[i]),
    )


def require_positive_definite(kernel: MemoryKernel, name: str = "kernel") -> None:
    """Raise HypothesisViolation unless ``kernel`` passes the PD check.

    Positive definiteness is the existence hypothesis of the
    representation formula; ``name`` says which kernel of a computation
    failed it.
    """
    report = check_positive_definite(kernel)
    if not report.passed:
        raise HypothesisViolation(
            f"{name} {kernel.description} is not positive definite "
            f"(min a0 + Re a~ = {report.min_value:.3e} at omega = {report.omega_at_min:.3e})"
        )


@dataclass
class RVEstimate:
    beta: float
    converged: bool
    ratios: np.ndarray = field(repr=False, default=None)
    tail_decaying: bool = False


def rv_index_estimate(kernel, t_grid) -> RVEstimate:
    """Estimate the regular-variation index of A from doubling ratios.

    Uses log2(A(2t)/A(t)) over the tail of a geometric grid, the second
    half of its points, at which alone A is evaluated; convergence means
    the last three estimates agree within ``RV_CONVERGENCE_TOL``.
    """
    t = np.asarray(t_grid, dtype=float)
    if len(t) < 8 or np.any(np.diff(t) <= 0):
        raise DomainError("t_grid must be increasing with at least 8 points")
    if t[-1] / t[0] < 1e4:
        raise DomainError("t_grid must span at least 4 decades")
    tail = t[len(t) // 2 :]
    A = np.asarray(kernel.primitive(np.concatenate([tail, 2.0 * tail])), dtype=float)
    a1t, a2t = A[: len(tail)], A[len(tail) :]
    if np.all(a1t <= 0.0):
        raise NotEventuallyPositiveError(
            "integrated kernel is not positive on the sampled tail"
        )
    valid = (a1t > 0.0) & (a2t > 0.0)
    ratios = np.full(len(a1t), np.nan)
    ratios[valid] = np.log2(a2t[valid] / a1t[valid])
    last = ratios[-3:]
    converged = bool(
        np.all(np.isfinite(last)) and (np.max(last) - np.min(last)) <= RV_CONVERGENCE_TOL
    )
    # Tail decaying faster than any admissible index (<= -1 on a log-log
    # chord, or underflow to zero despite a positive start).
    if np.any(a1t < 0.0):
        decaying = False  # sign changes: oscillatory, not a decaying tail
    elif a1t[-1] <= 0.0 < a1t[0]:
        decaying = True  # positive tail underflowed to zero
    else:
        chord = math.log(a1t[-1] / a1t[0]) / math.log(tail[-1] / tail[0])
        decaying = bool(chord < -1.0)
    if decaying:
        converged = False
    beta = float(last[-1]) if np.isfinite(last[-1]) else math.nan
    return RVEstimate(beta=beta, converged=converged, ratios=ratios, tail_decaying=decaying)
