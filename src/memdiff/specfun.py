"""Special functions for the fractional-diffusion limit profiles.

The central object is the Mittag-Leffler function ``E_alpha`` evaluated on
the negative real axis for orders ``0 < alpha <= 2``.  The orders
``alpha in {1/2, 1, 2}`` have exact closed forms; every other order is
evaluated by one rule, the inverse Laplace transform

    E_alpha(-x) = (1/2 pi i) int_C e^s s^(alpha-1) / (s^alpha + x) ds
                  + residues of the poles between C and the Bromwich line,

on the parabola ``s(u) = mu (1 + iu)^2`` with the trapezoid rule in ``u``
(Weideman & Trefethen, Math. Comp. 76 (2007); Garrappa, SIAM J. Numer.
Anal. 53 (2015)).  The parabola maps the branch cut of ``s^alpha`` onto
``Im u = 1``, so the rule converges like ``exp(-2 pi / h)`` there.  For
``alpha > 1`` the integrand also has the poles ``s* = x^(1/alpha)
e^(+-i pi/alpha)``; ``mu`` is chosen per point so that their image in the
``u``-plane stays at least 0.4 away from the real axis, and when they
lie to the right of C their residues ``(2/alpha) e^(Re s*) cos(Im s*)`` are
added.  The cost is a fixed number of nodes per point, whatever ``x``.

``gamma`` and ``erfc`` are the standard library's ``math.gamma`` and
``math.erfc``, applied elementwise to arrays, and ``E_{1/2}(-x)`` is the
scaled complementary error function ``erfcx(x) = e^(x^2) erfc(x)``; the
module needs numpy and nothing else.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

#: Trapezoid step in u and the number of nodes u = 0, h, ..., 9.  A
#: singularity at Im u = _POLE_DISTANCE costs exp(-2 pi 0.4 / h) ~ 4e-18,
#: and at u = 9 the integrand is below e^(-80 mu).
_H = 1.0 / 16.0
_NODES = 145
#: Contour parameters mu, in order of preference.  A pole's image lies at
#: distance |1 - A / sqrt(mu)| from the real axis, with A =
#: x^(1/(2 alpha)) cos(pi/(2 alpha)); for every A >= 0 one of these four
#: keeps it at least _POLE_DISTANCE away.
_MUS = np.array([1.0, 0.5, 2.0, 4.0])
_POLE_DISTANCE = 0.4
#: Points per block of the node sum, bounding the (points x nodes) temporaries.
_BLOCK = 1024
#: erfcx(x) is e^(x^2) erfc(x) below _ERFCX_SWITCH, whose rounding grows like
#: x^2 eps (7e-15 at x = 10), and the asymptotic series above it, where its
#: first omitted term, 25!! / (2 x^2)^13, is below 1e-17.
_ERFCX_SWITCH = 10.0
_ERFCX_TERMS = 13
#: Series coefficients (-1)^k (2k-1)!!, highest power first for Horner.
_ERFCX_COEF = np.cumprod([1.0] + [-(2.0 * k - 1.0) for k in range(1, _ERFCX_TERMS)])[::-1]


def _elementwise(f, x):
    """f of a scalar as a float, or of each element of an array (a 0-d array
    gives a numpy scalar)."""
    if np.isscalar(x):
        return f(float(x))
    xa = np.asarray(x, dtype=float)
    return np.fromiter(map(f, xa.flat), float, xa.size).reshape(xa.shape)[()]


def _gamma(x: float) -> float:
    if x <= 0.0:
        raise DomainError("gamma requires x > 0")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def gamma(x):
    """Gamma function for positive real arguments; inf where it overflows."""
    return _elementwise(_gamma, x)


def erfc(x):
    """Complementary error function."""
    return _elementwise(math.erfc, x)


def _erfcx(x: np.ndarray) -> np.ndarray:
    """e^(x^2) erfc(x) for an array of x >= 0, finite up to x = 1.8e308."""
    out = np.empty(x.shape)
    small = x < _ERFCX_SWITCH
    xs = x[small]
    out[small] = np.exp(xs * xs) * erfc(xs)
    # (1 / (x sqrt pi)) sum_k (-1)^k (2k-1)!! / (2 x^2)^k; 1/(2 x^2) may
    # underflow to 0, but is never formed from an overflowing x^2.
    xl = x[~small]
    out[~small] = np.polyval(_ERFCX_COEF, 0.5 / xl / xl) / math.sqrt(math.pi) / xl
    return out


def _parabola(mu: float, h: float, n: int):
    """Nodes s_k and weights w_k of the trapezoid rule on s = mu (1 + iu)^2.

    For f with f(conj s) = conj f(s), (1 / 2 pi i) int f(s) ds over the
    parabola is Re sum_k w_k f(s_k), k < n: the nodes u < 0 are the
    conjugates of u = kh > 0 and enter as twice the real part, so w_k =
    2 h (ds/du) / (2 pi i) = (2 h mu / pi) (1 + iu), the u = 0 node
    counted once.
    """
    w = 1.0 + 1j * h * np.arange(n)
    s = mu * w * w
    w = w * (2.0 * h * mu / np.pi)
    w[0] *= 0.5
    return s, w


def _contour(alpha: float, mu: float, x: np.ndarray) -> np.ndarray:
    """Trapezoid rule for the contour integral on s = mu (1 + iu)^2."""
    s, w = _parabola(mu, _H, _NODES)
    sa = s**alpha
    c = np.exp(s) * (sa / s) * w
    out = np.empty(x.shape)
    for start in range(0, x.size, _BLOCK):
        xb = x[start:start + _BLOCK]
        out[start:start + _BLOCK] = ((1.0 / (sa + xb[:, None])) @ c).real
    return out


def _ml_positive(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_alpha(-x) for a 1-D array of x > 0 and alpha not 1/2, 1 or 2."""
    if alpha < 1.0:  # no poles: x^(1/alpha) e^(i pi/alpha) is off the principal sheet
        return _contour(alpha, _MUS[0], x)
    r = x ** (1.0 / alpha)
    a = np.sqrt(r) * np.cos(0.5 * np.pi / alpha) / np.sqrt(_MUS)[:, None]
    pick = np.argmax(np.abs(1.0 - a) >= _POLE_DISTANCE, axis=0)
    out = np.empty(x.shape)
    for j, mu in enumerate(_MUS):
        sel = pick == j
        if sel.any():
            out[sel] = _contour(alpha, mu, x[sel])
    right = a[pick, np.arange(x.size)] > 1.0
    rr = r[right]
    out[right] += (2.0 / alpha) * np.exp(rr * np.cos(np.pi / alpha)) * np.cos(rr * np.sin(np.pi / alpha))
    return out


def mittag_leffler(alpha, z):
    """Evaluate E_alpha(z) for finite z <= 0 and 0 < alpha <= 2.

    Accepts scalar or array ``z``; a scalar gives a float.  Bounded on the
    negative real axis for all supported orders, and E_alpha(0) = 1
    exactly.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    za = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(za)):
        raise DomainError("mittag_leffler needs finite z")
    if np.any(za > 0.0):
        raise DomainError("mittag_leffler is defined here for z <= 0 only")
    if alpha == 1.0:
        out = np.exp(za)
    elif alpha == 2.0:
        out = np.cos(np.sqrt(-za))
    elif alpha == 0.5:
        # E_{1/2}(z) = e^{z^2} erfc(-z); erfcx avoids overflow.
        out = _erfcx(-za.ravel()).reshape(za.shape)
    else:
        x = -za.ravel()
        flat = np.ones(x.shape)
        nonzero = x > 0.0
        flat[nonzero] = _ml_positive(alpha, x[nonzero])
        out = flat.reshape(za.shape)
    return float(out) if np.ndim(z) == 0 else out
