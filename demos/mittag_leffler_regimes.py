"""Mittag-Leffler function on the negative real axis: regimes and accuracy.

E_alpha(z) interpolates between pure exponential decay (alpha = 1),
algebraic decay with complete monotonicity (0 < alpha < 1), and damped
oscillation (1 < alpha <= 2, with cos(sqrt(-z)) at alpha = 2).  This
script prints a value table across those regimes and verifies the three
closed forms against independent expressions.

Run:  python3 demos/mittag_leffler_regimes.py
"""

import numpy as np

from memdiff import erfc, gamma, mittag_leffler

z = -np.geomspace(0.01, 1000.0, 10)

print("E_alpha(z) on the negative real axis")
print(f"{'z':>12} " + " ".join(f"alpha={a:<5}" for a in (0.5, 0.8, 1.0, 1.5, 2.0)))
for zi in z:
    row = [float(mittag_leffler(a, zi)) for a in (0.5, 0.8, 1.0, 1.5, 2.0)]
    print(f"{zi:12.4g} " + " ".join(f"{v:10.3e}" for v in row))

# Closed-form cross-checks.
zs = -np.geomspace(0.01, 10.0, 50)
err1 = np.max(np.abs(mittag_leffler(1.0, zs) - np.exp(zs)))
err2 = np.max(np.abs(mittag_leffler(2.0, zs) - np.cos(np.sqrt(-zs))))
# E_1/2 switches from e^(z^2) erfc(-z) to its asymptotic series at z = -10;
# the product stays finite to z = -26.
zh = -np.geomspace(0.01, 25.0, 50)
errh = np.max(np.abs(mittag_leffler(0.5, zh) / (np.exp(zh**2) * erfc(-zh)) - 1.0))
print()
print(f"max |E_1(z) - e^z|                      = {err1:.2e}")
print(f"max |E_2(z) - cos(sqrt(-z))|            = {err2:.2e}")
print(f"max |E_1/2(z) / (e^(z^2) erfc(-z)) - 1| = {errh:.2e}")

# Far-field behavior: algebraic tail ~ -1/(z Gamma(1-alpha)) for alpha < 1.
alpha = 0.6
x = 1e6
lead = 1.0 / (x * gamma(1.0 - alpha))
print()
print(f"E_{alpha}(-1e6) = {float(mittag_leffler(alpha, -x)):.6e}; "
      f"leading asymptotic term 1/(x Gamma(1-alpha)) = {lead:.6e}")
