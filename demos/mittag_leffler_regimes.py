"""Mittag-Leffler function on the negative real axis: regimes and accuracy.

E_alpha(z) interpolates between pure exponential decay (alpha = 1),
algebraic decay with complete monotonicity (0 < alpha < 1), and damped
oscillation (1 < alpha <= 2, with cos(sqrt(-z)) at alpha = 2).  This
script prints a value table across those regimes and checks the closed
forms and the far-field tail against independent references; it exits
with status 1 if any check misses its stated tolerance.
"""

import math
import sys

import numpy as np

from memdiff import erfc, gamma, mittag_leffler

z = -np.geomspace(0.01, 1000.0, 10)

print("E_alpha(z) on the negative real axis")
print(f"{'z':>12} " + " ".join(f"alpha={a:<5}" for a in (0.5, 0.8, 1.0, 1.5, 2.0)))
for zi in z:
    row = [float(mittag_leffler(a, zi)) for a in (0.5, 0.8, 1.0, 1.5, 2.0)]
    print(f"{zi:12.4g} " + " ".join(f"{v:10.3e}" for v in row))


def series(alpha, z, terms=80):
    """E_alpha(z) = sum_k z^k / Gamma(1 + alpha k), the terms added by math.fsum."""
    return np.array([math.fsum(zi**k / math.gamma(1.0 + alpha * k) for k in range(terms))
                     for zi in z])


# Cross-checks: (label, error, tolerance).  On |z| <= 10 the series loses
# at most max_k |z|^k / k! * eps ~ 3e-13 to cancellation.
zs = -np.geomspace(0.01, 10.0, 50)
checks = [
    ("max |E_1(z) - series|", np.max(np.abs(mittag_leffler(1.0, zs) - series(1.0, zs))), 1e-12),
    ("max |E_2(z) - series|", np.max(np.abs(mittag_leffler(2.0, zs) - series(2.0, zs))), 1e-12),
]
# E_1/2 switches from e^(z^2) erfc(-z) to its asymptotic series at z = -10;
# the product stays finite to z = -26, and its own rounding grows like
# z^2 eps (7e-14 at z = -25).
zh = -np.geomspace(0.01, 25.0, 50)
checks.append(("max |E_1/2(z) / (e^(z^2) erfc(-z)) - 1|",
               np.max(np.abs(mittag_leffler(0.5, zh) / (np.exp(zh**2) * erfc(-zh)) - 1.0)), 1e-12))
# Far field: E_alpha(-x) ~ 1/(x Gamma(1-alpha)) for alpha < 1, with a
# relative correction of order 1/x.
alpha, x = 0.6, 1e6
lead = 1.0 / (x * gamma(1.0 - alpha))
checks.append((f"|E_{alpha}(-1e6) / (1/(x Gamma(1-alpha))) - 1|",
               abs(float(mittag_leffler(alpha, -x)) / lead - 1.0), 1e-5))

print()
failed = False
for label, err, tol in checks:
    ok = err <= tol
    failed |= not ok
    print(f"{label:<42} = {err:.2e}  (tol {tol:.0e}) {'ok' if ok else 'FAILED'}")
sys.exit(1 if failed else 0)
