"""Mittag-Leffler reference values of ``test_specfun.py``, by mpmath.

The tests compare ``mittag_leffler`` with these values on fixed points.
Computing them takes about half a minute of mpmath, so they are kept in
``ml_reference.json`` and the tests read them from there.  Each test still
recomputes one of its values here, so the table cannot drift from mpmath
unseen.  To regenerate the table after changing a point set, run

    python tests/ml_reference.py
"""

import json
from pathlib import Path

import mpmath
import numpy as np

TABLE = Path(__file__).with_name("ml_reference.json")

#: Orders of the brute-force series reference, each on ``series_points``.
SERIES_ALPHAS = (0.25, 0.6, 0.75, 1.25, 1.6)
#: Orders of the seam check, each at E_alpha(-SEAM_X).
SEAM_ALPHAS = (0.6, 0.8, 1.2, 1.6)
SEAM_X = 30.0 * 1.001
#: Small orders of the quadrature reference, each on ``QUADRATURE_Z``.
QUADRATURE_ALPHAS = (0.05, 0.1, 0.3)
QUADRATURE_Z = (-0.5, -2.0, -3.0, -8.0, -20.0, -50.0)


def series_points(alpha):
    """25 points on [-92^alpha, -1e-2]: the grid is capped per alpha so that
    the alternating series loses at most ~40 of its 90 digits."""
    return -np.geomspace(1e-2, 92.0**alpha, 25)


def series(alpha, z, dps):
    """E_alpha(z) = sum z^k / Gamma(1 + alpha k), summed at ``dps`` digits."""
    with mpmath.workdps(dps):
        return float(mpmath.nsum(lambda k: mpmath.mpf(z) ** k / mpmath.gamma(1 + alpha * k),
                                 [0, mpmath.inf]))


def series_reference(alpha, z):
    return series(alpha, z, 90)


def seam_reference(alpha):
    # At x = 30.03 the series terms grow to ~10^(0.43 x^(1/alpha)) before
    # they decay, so the reference needs 200 digits.
    return series(alpha, -SEAM_X, 200)


def gorenflo_mainardi(alpha, x):
    """E_alpha(-x) = int_0^inf e^{-r x^{1/alpha}} K_alpha(r) dr for alpha < 1,
    with K_alpha(r) = sin(alpha pi) r^{alpha-1} / (pi (r^{2 alpha} +
    2 r^alpha cos(alpha pi) + 1)), by mpmath at 40 digits after r = e^v.
    The v-range drops what is below e^-58 at either end."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        X = mpmath.mpf(x) ** (1 / a)
        sin, cos = mpmath.sin(a * mpmath.pi), mpmath.cos(a * mpmath.pi)

        def integrand(v):
            ra = mpmath.exp(a * v)
            return mpmath.exp(-mpmath.exp(v) * X) * sin * ra / (ra * ra + 2 * cos * ra + 1) / mpmath.pi

        hi = float(mpmath.log(110 / X))
        lo = min(hi, 0.0) - 58.0 / alpha
        return float(mpmath.quad(integrand, list(np.linspace(lo, hi, int((hi - lo) / 16) + 2))))


def load():
    """The committed table: {"series", "seam", "quadrature"}, keyed by repr(alpha)."""
    return json.loads(TABLE.read_text())


def build():
    """The table as ``load`` returns it, from mpmath."""
    return {
        "series": {repr(a): {"z": series_points(a).tolist(),
                             "E": [series_reference(a, z) for z in series_points(a)]}
                   for a in SERIES_ALPHAS},
        "seam": {repr(a): seam_reference(a) for a in SEAM_ALPHAS},
        "quadrature": {repr(a): {"z": list(QUADRATURE_Z),
                                 "E": [gorenflo_mainardi(a, -z) for z in QUADRATURE_Z]}
                       for a in QUADRATURE_ALPHAS},
    }


if __name__ == "__main__":
    TABLE.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {TABLE} with mpmath {mpmath.__version__}")
