"""Closed-form references for the benchmark's correctness checks.

Nothing here imports memdiff, so a defect in the library cannot make its own
output look right.
"""

from __future__ import annotations

import math

import numpy as np


def exponential_relaxation(lam, t, mu: float, c: float, a0: float) -> np.ndarray:
    """z(lam, t) for the integrated kernel A(t) = a0 + (c/mu)(1 - exp(-mu t)).

    Differentiating z + lam (A * z) = 1 twice gives the damped oscillator
    z'' + (lam a0 + mu) z' + lam (c + mu a0) z = 0 with z(0) = 1 and
    z'(0) = -lam a0.  Both roots have non-positive real part, so the two
    exponentials are formed separately and never overflow; near the double
    root the sinh quotient is replaced by its series.
    """
    lam, t = np.broadcast_arrays(np.asarray(lam, float), np.asarray(t, float))
    b = lam * a0 + mu
    k = lam * (c + mu * a0)
    rbar = -b / 2.0
    delta = np.sqrt((b * b / 4.0 - k).astype(complex))
    slope = -lam * a0 - rbar
    ep = np.exp((rbar + delta) * t)
    em = np.exp((rbar - delta) * t)
    small = np.abs(delta * t) < 1e-4
    safe = np.where(small, 1.0, delta)
    sinh_over_delta = np.where(
        small,
        np.exp(rbar * t) * t * (1.0 + (delta * t) ** 2 / 6.0),
        (ep - em) / (2.0 * safe),
    )
    return ((ep + em) / 2.0 + slope * sinh_over_delta).real


class Lattice:
    """The full mode lattice of memdiff's ModeGrid, rebuilt from its definition:
    modes_per_axis + 1 nodes per axis on [-xi_max, xi_max], trapezoid weights,
    and the (2 pi)^-n Parseval factor of the H^s norm."""

    def __init__(self, n: int, modes_per_axis: int, xi_max: float):
        self.n = n
        self.dxi = 2.0 * xi_max / modes_per_axis
        half = modes_per_axis // 2
        self.axis = self.dxi * np.arange(-half, half + 1)
        self.components = np.meshgrid(*([self.axis] * n), indexing="ij")
        self.xi_squared = sum(c * c for c in self.components)
        w1 = np.ones(modes_per_axis + 1)
        w1[0] = w1[-1] = 0.5
        w = w1
        for _ in range(n - 1):
            w = np.multiply.outer(w, w1)
        self.weights = w * self.dxi**n / (2.0 * math.pi) ** n

    def hs_norm_sq(self, abs_sq: np.ndarray, s: float) -> float:
        """Squared H^s norm of a field given |u_hat|^2 on the lattice."""
        return float(np.sum(self.weights * (1.0 + self.xi_squared) ** s * abs_sq))

    def hs_norm(self, values: np.ndarray, s: float) -> float:
        return math.sqrt(self.hs_norm_sq(np.abs(values) ** 2, s))
