"""Solvers for the scalar relaxation equation.

Each Fourier mode of the diffusion-with-memory problem satisfies the scalar
Volterra equation

    z(lam, t) + lam * (A * z)(lam, t) = 1,      z(lam, 0) = 1,

where ``A`` is the integrated kernel and ``*`` is convolution on [0, t].
Two kernel classes are solved exactly, with no time step; every other
kernel is marched.  The path follows the kernel's structure:

* Exponential polynomials, A = sum g t^m e^(s t) with m in {0, 1}: Heat,
  Wave, Exponential, NegExponential, Cosine, and their sums, scalings and
  dilations.  Differentiating the equation turns it into a linear ODE in
  z and one memory state per distinct rate s != 0 (and one for the
  t-terms), so z(t) = [exp(t M_lam)]_00 for a small generator M_lam per
  row (``_generator``).  Heat has no memory state, Wave and Exponential
  one, Cosine two.  With at most one state z is the closed form of the
  2 x 2 exponential at each requested node; with more, row 0 of E^i for
  E = exp(dt M_lam), by scaling and squaring per row.
* Power laws with beta < 0, alone or with Heat kernels: Laplace inversion
  on contours, below.
* Every other kernel (power laws with beta in (0, 1], LogModified, sampled
  kernels, and any sum holding one of them) is marched: z is piecewise
  linear on a uniform grid and the convolution is exact against it, from
  the weights of ``A`` against the two hat functions of each cell (the
  kernel's cell rule).  Only ``A`` enters, never the possibly singular
  density ``a``, so the scheme is second order across these kernels,
  weakly singular memories included.  The weights are Toeplitz, so the
  march is a lower-triangular Toeplitz system, whose solution is a power
  series divided by the symbol of the weights, by FFT, O(n log n) per
  ``lam``, for a batch of ``lam`` values at once (Hairer, Lubich &
  Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985)).  Newton doubling
  inverts the symbol to half length, and one Karp-Markstein step yields
  the second half of the quotient, so no FFT is longer than the power of
  two >= n.  Symbol and right-hand side are linear in ``lam``, so the
  transforms of their ``lam``-independent parts are computed once per
  kernel and shared by every row.

Power laws with beta < 0, A = a0 + (c/beta) t^beta, are not marched.  With
p = lam a0 >= 0 and q = lam c/beta > 0 the transform of z is
1/(s + p + q Gamma(1+beta) s^(-beta)), analytic off the cut (-inf, 0], so
z(t) is a Bromwich integral on a parabola around the cut, summed by the
trapezoid rule with one parabola per band (t_hi/4, t_hi] of node times.
That gives the exact solution to about 1e-12 at every node, at the cost
of 25 transform values per row and band and a 25-term sum per node.  A
dilation t -> T t changes c only, so rows of every coupling and every
dilation of every kernel with this beta are solved in one call, each
with its own (p, q).

All three paths sit behind one core, ``_solve_nodes``, which takes
kernels and their couplings: an array of lam per kernel.  A dilation
names a kernel, so callers pass each kernel dilated as they need it.
The kernels are grouped by path, and each group is one call of its path:
one per beta on the contour path, one per memory state count on the
exponential polynomials, one per kernel on the FFT division.  So a study
of two kernels at several dilations, as the viscoelastic one is, makes
one solve.  Rows never mix, so each has the bits it would have
alone.  Each path returns its own z and peak, and the core returns z
time-major at the requested node indices only, one array per kernel,
together with a peak max|z|, the maximum over the groups.  A study needs
z at a few times but for every |xi|^2 and dilation, so no path holds a
(rows x n+1) matrix.  The FFT division fills each block of 32 rows into a
reused scratch array, copies the requested nodes out and folds the
block's max|z| into the peak, so the bound check of positive-definite
callers sees a march that went unstable at any node.  The exact paths
evaluate only the requested nodes, and their peak covers those: an exact
solution of a positive-definite kernel has |z| <= 1 at every node.
``relaxation_values`` is the core for one kernel with every node
requested.  A non-finite node raises StepSizeError on every path.
The FFT division's rounding scales with a row's max|z| over each half
of it, so a growing row whose requested nodes it would swamp raises
PrecisionLossError instead of returning them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PrecisionLossError, StepSizeError
from .kernels import (
    Heat,
    MemoryKernel,
    PowerLaw,
    SampledKernel,
    ScaledKernel,
    SumKernel,
    TimeDilated,
    _ExpPolyKernel,
)
from .specfun import _parabola

#: Permitted overshoot of |z| above 1 for positive-definite kernels.
BOUND_TOL = 1e-6
#: Relative precision the FFT division must keep at each requested node
#: i >= 1: a row whose rounding there, n * eps times the peak |z| of the
#: Karp-Markstein half that holds i, exceeds it times max(1, |z_i|) is
#: refused.
PRECISION_TOL = 1e-6
#: Slack added to the decay envelope comparison.
ENVELOPE_TOL = 1e-9
#: Lambda rows per block of the series inversion; bounds the temporaries.
_ROW_BLOCK = 32
#: Largest 1-norm of the scaled dt M whose Taylor sum of degree 12
#: ``_propagator`` takes: the first omitted term, 0.25^13 / 13!, is below
#: 3e-18.
_TAYLOR_NORM = 0.25
#: Parabola of the beta < 0 path for the band of times (t_hi/4, t_hi]:
#: mu = _BAND_MU / t_hi, trapezoid step _BAND_H and _BAND_NODES nodes
#: u >= 0.  Over beta in [-0.99, -0.01], lam up to 1e8 and t from 5e-8 to
#: 1e4 this matches E_(1+beta)(-lam t^(1+beta)) to 1.2e-12.
_BAND_MU = 4.03
_BAND_H = 0.202
_BAND_NODES = 25


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_{n_steps} = t_end."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        try:
            n_steps = operator.index(self.n_steps)
        except TypeError:
            raise DomainError("n_steps must be an integer") from None
        if not (0.0 < self.t_end < math.inf and n_steps >= 1):  # NaN fails too
            raise DomainError("need a finite t_end > 0 and n_steps >= 1")
        object.__setattr__(self, "n_steps", n_steps)

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def index_of(self, t: float) -> int:
        """Node index of t; DomainError if t is not (nearly) a node, as for
        a t that is not finite."""
        q = t / self.dt
        if not math.isfinite(q):  # round raises ValueError for NaN, OverflowError for inf
            raise DomainError(f"t={t} is not a node of the time grid")
        i = round(q)
        if not 0 <= i <= self.n_steps or abs(i * self.dt - t) > 1e-9 * max(1.0, t):
            raise DomainError(f"t={t} is not a node of the time grid")
        return int(i)


@dataclass
class ScalarRelaxation:
    """Discrete solution z(lam, t_i) on a time grid."""

    lam: float
    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __call__(self, t):
        """Piecewise-linear interpolation between grid nodes."""
        return np.interp(t, self.grid.nodes, self.values)


def _convolution_weights(kernel: MemoryKernel, grid: TimeGrid):
    """Toeplitz weights of the exact convolution with a piecewise-linear z.

    Cell r of the sigma-integral int_0^{t_i} A(sigma) z(t_i - sigma) dsigma
    contributes ``wR[r]`` to z_{i-r} and ``wL[r]`` to z_{i-r-1}: the hat
    weights of the cell [r dt, (r + 1) dt], which the kernel gives as they are.
    """
    return kernel._hat(grid.dt * np.arange(grid.n_steps), grid.dt)


def _terms(kernel: MemoryKernel):
    """(factor, dilation, leaf) triples: the kernel is the sum of factor
    times the leaf dilated, A(t) = sum f A_leaf(T t).

    The one statement of the kernel algebra: sums are split, scalings
    multiply the factor and dilations the dilation, so leaves are never
    SumKernel, ScaledKernel or TimeDilated.
    """
    if isinstance(kernel, SumKernel):
        return _terms(kernel.left) + _terms(kernel.right)
    if isinstance(kernel, ScaledKernel):
        return [(kernel.factor * f, T, leaf) for f, T, leaf in _terms(kernel.base)]
    if isinstance(kernel, TimeDilated):
        return [(f, kernel.T * T, leaf) for f, T, leaf in _terms(kernel.base)]
    return [(1.0, 1.0, kernel)]


def _power_law_constants(kernel: MemoryKernel):
    """(beta, a0, c/beta) with A = a0 + (c/beta) t^beta, for the singular path.

    Qualify: power laws with beta < 0, and sums, scalings and dilations of
    Heat kernels and power laws that share one beta < 0; their constants
    add, a0 as f a0 and c/beta as f (c/beta) T^beta over the terms (f, T)
    of ``_terms``.  None when the kernel has no beta < 0 power-law part.
    A beta < 0 power law combined with anything else has no solver path,
    and neither has a0 < 0, since the transform of z then has a pole
    s > 0 that the contour would miss: DomainError.
    """
    terms = _terms(kernel)
    betas = {leaf.beta for _, _, leaf in terms if isinstance(leaf, PowerLaw) and leaf.beta < 0}
    if not betas:
        return None
    if len(betas) > 1 or not all(
        isinstance(leaf, Heat) or isinstance(leaf, PowerLaw) and leaf.beta in betas
        for _, _, leaf in terms
    ):
        raise DomainError(
            f"{kernel.description}: a power law with beta < 0 can only be "
            "combined with Heat kernels and power laws of the same beta"
        )
    a0 = sum(f * leaf.a0 for f, _, leaf in terms)
    if a0 < 0.0:
        raise DomainError(
            f"{kernel.description}: a0 < 0 gives the transform of z a pole "
            "s > 0, which the beta < 0 path cannot represent"
        )
    cA = sum(f * leaf.c / leaf.beta * T**leaf.beta
             for f, T, leaf in terms if isinstance(leaf, PowerLaw))
    return betas.pop(), a0, cA


def _exp_poly_terms(kernel: MemoryKernel):
    """Terms (g, s, m) with A(t) = sum g t^m e^(s t), m in {0, 1}, for the
    exact path.

    Qualify: Heat, Wave, Exponential, NegExponential, Cosine and their sums,
    scalings and dilations.  Each term (f, T) of ``_terms`` maps a leaf's
    terms: g to f g T^m and s to T s.  None for any other kernel.
    """
    out = []
    for f, T, leaf in _terms(kernel):
        if not isinstance(leaf, _ExpPolyKernel):
            return None
        out += [(f * g * T**m, s * T, m) for g, s, m in leaf.exp_terms()]
    return out


def _contour_values(beta: float, p: np.ndarray, q: np.ndarray, grid: TimeGrid, nodes: np.ndarray):
    """Solver path for A = a0 + (c/beta) t^beta with beta < 0 (A singular at 0).

    Row j solves z + lam_j A_j * z = 1 with its own constants, given as
    p[j] = lam_j a0_j >= 0 and q[j] = lam_j c_j / beta_j > 0; every row
    shares beta.  Returns (z, peak): z time-major at the node indices
    ``nodes`` only, one row per entry, with the rows p = q = 0 (lam = 0)
    exactly 1, and peak = max|z| over them.  The transform of z is
    1/(s + p + q Gamma(1+beta) s^(-beta)), whose only singularities lie
    on the cut (-inf, 0], so z(t) is its Bromwich integral on a parabola
    around the cut, by the trapezoid rule (Weideman & Trefethen, Math.
    Comp. 76 (2007)).  One
    parabola serves a whole band of times (t_hi/4, t_hi] (Lopez-Fernandez
    & Palencia, Appl. Numer. Math. 51 (2004)): walking down from t_n,
    t_hi is the largest node not yet taken, so the bands are the nodes i
    in (top // 4, top].  A band that holds no requested node is skipped,
    and a band's transform values serve only its requested nodes, so the
    work and memory follow the nodes asked for, not n.  Each node is an
    independent sum over the parabola, so it gets the same bits whichever
    other nodes are requested.
    """
    z = np.empty((len(nodes), len(p)))
    z[nodes == 0] = 1.0
    qg = q[:, None] * math.gamma(1.0 + beta)
    top = grid.n_steps
    while top:
        bottom = top // 4
        band = np.flatnonzero((nodes > bottom) & (nodes <= top))
        if len(band):
            s, w = _parabola(_BAND_MU / (top * grid.dt), _BAND_H, _BAND_NODES)
            zhat = 1.0 / (s + p[:, None] + qg * s**-beta)
            t = grid.dt * nodes[band]
            # Re(zhat * w e^(st)) as one real dot over interleaved (re, im)
            # pairs per node and row; einsum, not a matmul, so a value's
            # bits depend neither on the batch size nor on the other nodes.
            wt = np.conj(w * np.exp(t[:, None] * s))
            z[band] = np.einsum("jk,ik->ij", zhat.view(float), wt.view(float))
        top = bottom
    z[:, (p == 0.0) & (q == 0.0)] = 1.0
    return z, _abs_max(z) if z.size else 0.0


def _generator(terms):
    """(r, G): the generator M_lam = G + lam e_0 r of z + lam A*z = 1 for the
    terms (g, s, m) of A = sum g t^m e^(s t) (``_exp_poly_terms``).

    Differentiating the equation gives z' = -lam A(0) z - lam sum_k
    Re(c_k w_k), with states w_k(t) = int_0^t e^(s_k u) z(t - u) du, so
    w_k' = z + s_k w_k and w_k(0) = 0: one per distinct rate s != 0, with
    c = g s summed over its terms (none if they cancel), and one at s = 0
    for the t-terms, with c = g.  A is real, so complex rates come in
    conjugate pairs: the pair is the state of Im s > 0, with c = 2 g s,
    held as two reals (Re w, Im w).  A(0) is the sum of g over the terms
    with m = 0.  So z(t) = [exp(t M_lam)]_00, and len(r) - 1 counts the
    memory states: 0 for Heat, 1 for Wave and Exponential, 2 for Cosine.
    Each state is held as sqrt|c| w, so it couples to z by sqrt|c| both
    ways (see ``_exact_values``).  G is zero in row 0.
    """
    A0, rates = 0.0, {}
    for g, s, m in terms:
        if not m:
            A0 += g
        if m or s != 0.0 and np.imag(s) >= 0.0:
            rates[s] = rates.get(s, 0.0) + (g if m else g * s * (2.0 if np.imag(s) else 1.0))
    rates = {s: c for s, c in rates.items() if c != 0.0}
    d = 1 + sum(1 + bool(np.imag(s)) for s in rates)
    r, G = np.zeros(d), np.zeros((d, d))
    r[0] = -np.real(A0)
    j = 1
    for s, c in rates.items():
        q = np.sqrt(abs(c))
        G[j, 0], G[j, j], r[j] = q, np.real(s), -np.real(c) / q
        if np.imag(s):
            G[j, j + 1], G[j + 1, j], G[j + 1, j + 1] = -np.imag(s), np.imag(s), np.real(s)
            r[j + 1] = np.imag(c) / q
        j += 1 + bool(np.imag(s))
    return r, G


def _closed_form(M, t):
    """z = [exp(t M)]_00 for a stack M of (1, 1) or (2, 2) matrices on its
    last axis, at the times t, a column: (times, rows).

    A (1, 1) stack gives e^(m00 t).  For (2, 2), with tau = (m00 + m11)/2,
    h = (m00 - m11)/2 and delta = sqrt(h^2 + m01 m10), real or imaginary,
    on the branch with Re(delta h) >= 0,

        z = [(delta + h) e^((tau + delta) t)
             + m01 m10 / (delta + h) e^((tau - delta) t)] / (2 delta),

    which is e^(tau t) (cosh(delta t) + h sinh(delta t) / delta).  The two
    exponentials are formed apart, so no overflowing cosh meets an
    underflowing e^(tau t), and on that branch neither delta + h nor
    m01 m10 / (delta + h) = delta - h cancels.  Where |delta t| < 1 (near
    critical damping, delta -> 0) z is the cosh form, from the Taylor
    series of cosh and sinh(x)/x in the real x^2 = (delta t)^2.
    """
    if len(M) == 1:
        return np.exp(M[0, 0] * t)
    (m00, m01), (m10, m11) = M
    tau, h, bc = (m00 + m11) / 2.0, (m00 - m11) / 2.0, m01 * m10
    d2 = h * h + bc
    delta = np.sqrt(d2.astype(complex))
    delta = np.where(delta.real * h < 0.0, -delta, delta)
    x2 = d2 * t * t
    near = np.abs(x2) < 1.0
    x2 = np.where(near, x2, 0.0)
    ch = sh = 0.0
    for k in range(9, -1, -1):  # at x^2 < 1, x^20 / 20! < 5e-19
        ch = ch * x2 + 1.0 / math.factorial(2 * k)
        sh = sh * x2 + 1.0 / math.factorial(2 * k + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = ((delta + h) * np.exp((tau + delta) * t)
               + bc / (delta + h) * np.exp((tau - delta) * t)) / (2.0 * delta)
    return np.where(near, np.exp(tau * t) * (ch + h * t * sh), far.real)


def _product(A, B):
    """A B for stacks A, B of (d, d) matrices on their last axis, each
    entry summed from b = 0 up."""
    C = A[:, 0, None] * B[0]
    for b in range(1, len(A)):
        C += A[:, b, None] * B[b]
    return C


def _times(v, F, out, tmp):
    """out = v (I + F) per row: out[c] = sum_b v[b] F[b, c] + v[c], each
    product added in turn from b = 0 up, one op order wherever a node is
    formed.  v and out are (d, k, rows), F is (d, d, rows) and tmp is
    (k, rows) scratch."""
    for c in range(len(F)):
        o = np.multiply(v[0], F[0, c], out=out[c])
        for b in range(1, len(F)):
            o += np.multiply(v[b], F[b, c], out=tmp)
        o += v[c]
    return out


def _propagator(M, dt: float):
    """F = exp(dt M) - I for a stack M of (d, d) matrices on its last axis,
    by scaling and squaring per row (Moler & Van Loan, SIAM Rev. 45 (2003);
    Higham, SIAM J. Matrix Anal. Appl. 26 (2005)).

    Row j sums the Taylor series of exp(X) - I, X = dt M / 2^s_j, to degree
    12 by Horner's rule in X^3 over chunks of three powers (Paterson &
    Stockmeyer), and squares it s_j times as F <- F F + 2 F, where s_j is
    the least count that brings the 1-norm of X to ``_TAYLOR_NORM``.  The
    count is the row's own, since each squaring adds rounding (a count
    shared by all rows lost 7e-10); the rows are squared in order of their
    counts, each pass on a leading slice.  F is carried, not exp(dt M),
    where a slow mode is 1 minus a small number whose rounding relative to
    1 every squaring would double.  Every operation is elementwise over
    the rows.
    """
    X = dt * M
    s = np.maximum(np.frexp(np.abs(X).sum(axis=0).max(axis=0) / _TAYLOR_NORM)[1], 0)
    order = np.argsort(-s, kind="stable")
    s, X = s[order], np.take(X, order, axis=-1) * np.exp2(-s[order])
    X2 = _product(X, X)
    X3 = _product(X2, X)
    chunks = [X / math.factorial(k) + X2 / math.factorial(k + 1) + X3 / math.factorial(k + 2)
              for k in (1, 4, 7, 10)]
    F = chunks.pop()
    while chunks:
        F = chunks.pop() + _product(X3, F)
    for k in range(s.max(initial=0)):
        Fk = F[:, :, : np.count_nonzero(s > k)]
        Fk[...] = _product(Fk, Fk) + 2.0 * Fk
    F[:, :, order] = F.copy()
    return F


def _row0_powers(F, nodes, every: bool):
    """z = [E^i]_00 for E = I + F at the node indices i of ``nodes``,
    (len(nodes), rows); ``every`` says that they are 0..n, every node.

    Row 0 of E^i is e_0 times E^(2^m) over the set bits m of i, in
    increasing order, each product by ``_times``.  Every node is tabled by
    doubling, v[:, k + j] = v[:, j] E^k for j < k = 2^m, which forms each
    node by that same chain; a requested node takes it alone.  So a node
    gets the same bits whichever other nodes are requested.
    """
    d, _, rows = F.shape
    v = np.zeros((d, len(nodes), rows))
    v[0] = 1.0
    tmp = np.empty((len(nodes), rows))
    for m in range(int(nodes.max(initial=0)).bit_length()):
        if m:
            F = _product(F, F) + 2.0 * F
        k = 1 << m
        if every:
            w = min(k, len(nodes) - k)
            _times(v[:, :w], F, v[:, k : k + w], tmp[:w])
        else:
            sel = np.flatnonzero(nodes & k)
            v[:, sel] = _times(v[:, sel], F, np.empty((d, len(sel), rows)), tmp[: len(sel)])
    return v[0].copy()


def _exact_values(generators, lambdas: np.ndarray, which: np.ndarray, grid: TimeGrid, nodes):
    """Solver path for exponential polynomials: z = [exp(t M_lam)]_00.

    Row j solves z + lam_j A * z = 1 for the kernel whose generator (r, G)
    is ``generators[which[j]]`` (``_generator``; they share one size), with
    M = D (G + lam_j e_0 r) D^-1 for D = diag(1, sqrt(lam_j), ...).  D
    leaves [exp(t M)]_00 as it is and, with the sqrt|c| of ``_generator``,
    makes each coupling of z and a state the same size both ways, so the
    squarings of an oscillating row keep their accuracy (unbalanced, a
    dilated Cosine at lam = 1e6 was 1.5e-10 off).  With at most one memory
    state z is ``_closed_form`` at each node's time; with more, it is
    [E^i]_00 for E = exp(dt M) (``_propagator``, ``_row0_powers``).  No
    time step enters, so z at a time depends on n by rounding only.
    Returns (z, peak) as ``_solve_nodes`` does: z time-major, one row per
    entry of ``nodes`` (every node if None), and peak = max|z| over them.
    Every operation is elementwise over the rows, so a row has the bits it
    has alone, and rows with lam = 0 are exactly 1.
    """
    M = np.take(np.stack([G for _, G in generators], axis=-1), which, axis=-1)
    r = np.take(np.stack([r for r, _ in generators], axis=-1), which, axis=-1)
    root = np.sqrt(lambdas)
    M[0] = root * r
    M[0, 0] = lambdas * r[0]
    M[1:, 0] *= root
    index = np.arange(grid.n_steps + 1) if nodes is None else np.asarray(nodes, dtype=np.intp)
    if len(M) <= 2:
        z = _closed_form(M, grid.dt * index[:, None])
    else:
        z = _row0_powers(_propagator(M, grid.dt), index, nodes is None)
    z[:, lambdas == 0.0] = 1.0
    return z, _abs_max(z) if z.size else 0.0


def _newton_levels(dc: np.ndarray, h: int):
    """Per-level transforms of the differenced symbol, shared by all rows.

    The symbol of a row is (1 - x) + lam * dc(x), so its transform at a
    level is F(1 - x) + lam * F(dc); both terms are computed here once, and
    a row block only forms the sum.  One entry (k, k2, size, F(1 - x),
    F(dc)) per Newton step lifting k to k2 <= 2k coefficients, up to h.
    """
    sizes = [h]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    levels = []
    for k, k2 in zip(sizes[-1:0:-1], sizes[-2::-1]):
        size = 1 << (k2 - 1).bit_length()
        levels.append((k, k2, size, np.fft.rfft([1.0, -1.0], size), np.fft.rfft(dc[:k2], size)))
    return levels


def _series_inverse(lam: np.ndarray, dc: np.ndarray, levels) -> np.ndarray:
    """Rows g with S*g = 1 mod x^h, S = (1 - x) + lam*dc, by Newton doubling.

    ``levels`` is ``_newton_levels(dc, h)``.  Each step g <- g - g(S g - 1)
    lifts g from k to k2 <= 2k correct coefficients with two FFT products
    of length >= k2.  Only the new block e of S*g = 1 + x^k e is needed,
    so the first product may wrap onto the k low coefficients, which are
    discarded; the second, g*e, has degree below k2.
    """
    g = 1.0 / (1.0 + lam * dc[:1])
    for k, k2, size, one_hat, dc_hat in levels:
        g_hat = np.fft.rfft(g, size)
        e = np.fft.irfft((one_hat + lam * dc_hat) * g_hat, size)[:, k:k2]
        ge = np.fft.irfft(np.fft.rfft(e, size) * g_hat, size)[:, : k2 - k]
        g = np.concatenate([g, -ge], axis=1)
    return g


def _solve_matrix(kernel: MemoryKernel, lambdas: np.ndarray, grid: TimeGrid, nodes):
    """(z, peak, lost) by inverting the Toeplitz symbol: z time-major at the
    node indices ``nodes``, one row per entry, peak = max|z| over every
    node, and None or the message of a row that lost precision.

    Step i of the march reads z_i + lam * sum_{m<i} c_m z_{i-m} =
    1 - lam * wL[i-1], with c[0] = wR[0] and c[m] = wR[m] + wL[m-1] for
    m >= 1.  So the series of z_1..z_n is (1 - lam*wL) / S with the symbol
    S(x) = 1 + lam * sum_m c_m x^m, divided in O(n log n) per lambda, in
    blocks of ``_ROW_BLOCK`` rows.  Rows never mix, so a lambda gets the
    same bits whatever batch it is solved in.  Each block is solved at
    every node into one reused (_ROW_BLOCK, n + 1) scratch array, rows
    with lam = 0 are set to exactly 1 there, the block's max|z| is folded
    into the peak (NaN kept) and the requested nodes are copied out, so
    no (rows x n+1) matrix is held.  A finite row loses precision where
    its rounding at a requested node i >= 1, about n * eps times the peak
    |z| of the half that holds i (nodes 1..h, or the whole row past h; see
    below), exceeds ``PRECISION_TOL`` * max(1, |z_i|): a row that grows
    (kernels that are not positive definite) cannot keep its small values
    there, and a finer grid does not help.  Node 0 is exact, and a row
    with max|z| <= 1 + BOUND_TOL never loses precision.  The estimate was
    at least 2.8 times the distance from the march at every node of 14
    growing rows, with n from 500 to 8000.

    Numerator and symbol are both multiplied by (1 - x) first.  The c_m
    follow A, which grows for kernels such as power laws; their differences
    stay bounded, and FFT rounding scales with the coefficient norms (measured
    at n = 4000 over the catalog: 5e-13 from the exact solution of the
    march, against 1.3e-10 undifferenced).  Both differenced series are
    linear in lam: the symbol is (1 - x) + lam*dc and the numerator is
    rhs = 1 - lam*dwL, with dc and dwL the differences of c and wL.  So
    the transforms of 1 - x, dc and dwL are computed once per call, at
    each length used, and shared by every block.

    Newton doubling runs only to h = ceil(n/2) coefficients of g = 1/S.
    One Karp-Markstein step (Karp & Markstein, ACM TOMS 23 (1997)) gives
    the rest: q0 = rhs*g mod x^h is z_1..z_h, the residual r = (rhs -
    S*q0)[h:n] is a middle product, and (g*r) mod x^(n-h) is z_{h+1}..z_n.
    These products share one FFT length, the power of two >= n: S*q0 then
    wraps only onto coefficients below h (512 at n = 500, where a full
    rhs*g product needs 1024).  Rounding is relative to the scale of each
    half, not of the whole row, so where z grows (kernels that are not
    positive definite) its small early values keep their relative
    accuracy far better; within the first half they still share a scale.
    """
    n = grid.n_steps
    wL, wR = _convolution_weights(kernel, grid)
    if np.any(1.0 + lambdas * wR[0] <= 0.0):
        raise StepSizeError(
            "implicit coefficient 1 + lambda*w <= 0; refine the time grid"
        )
    c = wR.copy()
    c[1:] += wL[:-1]
    dc = np.diff(c, prepend=0.0)
    dwL = np.diff(wL, prepend=0.0)
    h = (n + 1) // 2
    levels = _newton_levels(dc, h)
    size = 1 << (n - 1).bit_length()
    one_hat = np.fft.rfft([1.0, -1.0][:n], size)
    dc_hat = np.fft.rfft(dc, size)
    dwL_hat = np.fft.rfft(dwL[:h], size)
    z = np.empty((len(nodes), len(lambdas)))
    buf = np.empty((min(_ROW_BLOCK, len(lambdas)), n + 1))
    buf[:, 0] = 1.0
    peak, lost = 0.0, None
    for start in range(0, len(lambdas), _ROW_BLOCK):
        lam = lambdas[start : start + _ROW_BLOCK, None]
        zb = buf[: len(lam)]
        g_hat = np.fft.rfft(_series_inverse(lam, dc, levels), size)
        # rhs = e0 - lam*dwL, and F(e0) = 1; past h only -lam*dwL is left.
        q0 = np.fft.irfft((1.0 - lam * dwL_hat) * g_hat, size)[:, :h]
        sq0 = np.fft.irfft((one_hat + lam * dc_hat) * np.fft.rfft(q0, size), size)
        r = -lam * dwL[h:] - sq0[:, h:n]
        zb[:, 1 : h + 1] = q0
        zb[:, h + 1 :] = np.fft.irfft(np.fft.rfft(r, size) * g_hat, size)[:, : n - h]
        zb[lam[:, 0] == 0.0] = 1.0
        low = zb[:, 1 : h + 1]
        low_peak = np.maximum(low.max(axis=1), -low.min(axis=1))
        row_peak = np.maximum(zb.max(axis=1), -zb.min(axis=1))
        peak = np.maximum(peak, row_peak.max())
        zn = zb[:, nodes]
        scale = np.where(nodes <= h, low_peak[:, None], row_peak[:, None])
        swamped = (nodes > 0) & (
            scale * (n * np.finfo(float).eps) > PRECISION_TOL * np.maximum(1.0, np.abs(zn))
        )
        swamped &= (row_peak < np.inf)[:, None]
        if lost is None and np.any(swamped):
            j, k = np.unravel_index(np.argmax(swamped), swamped.shape)
            lost = (
                f"lambda = {lam[j, 0]:.6g}: rounding at |z| = {scale[j, k]:.3e} over {n} "
                f"steps swamps |z| = {abs(zn[j, k]):.3e} at node {nodes[k]}"
            )
        z[:, start : start + _ROW_BLOCK] = zn.T
    return z, peak, lost


def _abs_max(z):
    """max|z| of a real array as max(max z, -min z), which allocates no copy
    of ``z``; NaN if any entry is NaN."""
    return np.maximum(np.max(z), -np.min(z))


def require_bounded(peak) -> None:
    """Raise StepSizeError unless peak = max|z| <= 1 + BOUND_TOL.

    For a positive-definite kernel |z| <= 1 is a theorem, so a larger value
    means the march went unstable on too coarse a grid.  Call only where
    the kernel is known to be positive definite, with the peak of
    ``_solve_nodes``.  On the FFT division that peak covers every node,
    requested or not.  On the two exact paths (exponential polynomials,
    and power laws with beta < 0 on contours) it covers only the evaluated
    nodes: an exact solution, to rounding or to 1.2e-12, has no
    instability to show at an unrequested node.
    """
    if not peak <= 1.0 + BOUND_TOL:  # NaN fails too
        raise StepSizeError(
            f"max|z| = {peak:.3e} exceeds 1 for a positive-definite kernel; "
            "refine the time grid"
        )


def _path(kernel: MemoryKernel):
    """(path, share, data): the solver path of the kernel, what kernels
    must share to go through one call of it (beta on the contour path, the
    count of memory states on the exact path, nothing on the FFT division)
    and what the path takes of the kernel: (a0, c/beta), the generator of
    ``_generator`` or None.  Raises the DomainError of
    ``_power_law_constants`` for a kernel with no path."""
    constants = _power_law_constants(kernel)
    if constants is not None:
        return "contour", constants[0], constants[1:]
    terms = _exp_poly_terms(kernel)
    if terms is not None:
        generator = _generator(terms)
        return "exact", len(generator[0]) - 1, generator
    return "fft", None, None


def _solve_nodes(kernels, lambdas, grid: TimeGrid, nodes=None, bounded=False):
    """(zs, peak): zs[m][k, j] = z(lambdas[m][j], t_(nodes[k])) of
    ``kernels[m]``, and peak = max|z|.

    The array core of the solver API: the relaxations of a sequence of
    kernels, each at its own couplings.  A caller that needs a kernel at
    several dilations passes each dilated kernel.  The kernels are grouped
    by solver path (``_path``), and each group is one call of its path: one
    per beta on the contour path (power laws with beta < 0, alone or with
    Heat kernels), one per count of memory states on the exact path of
    exponential polynomials (``_exact_values``), one per kernel on the FFT
    division, which computes the kernel's weights once for all its rows
    and works in blocks of ``_ROW_BLOCK`` rows.  Each path returns its own
    z and peak, and zs[m] is a view of its group's z.  Each row has the
    bits it would have if solved alone, at whichever nodes are requested,
    and rows with lam = 0 are exactly 1.

    z is time-major, one row per entry of ``nodes`` (node indices, in any
    order), or per node of the grid if ``nodes`` is None; no path holds
    the values at other nodes.  peak is the maximum of the groups' peaks,
    NaN if any node it covers is.  On the FFT division it covers every
    node of every row, requested or not; on the two exact paths only the
    requested nodes, which loses ``require_bounded`` nothing (see there).
    ``bounded=True`` applies it to the peak here, for callers whose
    kernels are positive definite.

    Raises DomainError for a lam that is negative or not finite, for a
    count of lambda arrays that is not one per kernel, for a node index
    that is not an integer or lies off the grid and for a kernel with no
    path (``_power_law_constants``), StepSizeError if any node is not
    finite (naming a too coarse time grid on the FFT division, an overflow
    of the exact solution elsewhere) or, with ``bounded``, the peak exceeds
    1 + BOUND_TOL, and
    PrecisionLossError for an FFT-path row that grew past the precision of
    its requested nodes (see ``_solve_matrix``).  The StepSizeErrors come
    first, since the FFT division's peak covers every node: a row that
    loses precision has a peak far above 1, which for a positive-definite
    kernel means too coarse a time grid, not a growing solution.
    """
    lambdas = [np.asarray(lam, dtype=float) for lam in lambdas]
    if len(lambdas) != len(kernels):
        raise DomainError("need one array of lambdas per kernel")
    if not all(np.all((lam >= 0.0) & (lam < np.inf)) for lam in lambdas):  # NaN fails too
        raise DomainError("lambda must be finite and nonnegative")
    if nodes is not None:
        try:
            nodes = [operator.index(i) for i in nodes]
        except TypeError:
            raise DomainError("node indices must be integers") from None
        if not all(0 <= i <= grid.n_steps for i in nodes):
            raise DomainError("node index outside the time grid")
    paths = [_path(kernel) for kernel in kernels]
    groups = {}
    for m, (path, share, _) in enumerate(paths):
        groups.setdefault((path, m if path == "fft" else share), []).append(m)
    index = np.arange(grid.n_steps + 1) if nodes is None else np.asarray(nodes, dtype=np.intp)
    zs = [None] * len(kernels)
    peak, lost = 0.0, None
    for (path, share), members in groups.items():
        lam = [lambdas[m] for m in members]
        data = [paths[m][2] for m in members]
        if path == "contour":
            p = np.concatenate([l * a0 for l, (a0, _) in zip(lam, data)])
            q = np.concatenate([l * cA for l, (_, cA) in zip(lam, data)])
            zg, pg = _contour_values(share, p, q, grid, index)
        elif path == "exact":
            which = np.repeat(np.arange(len(lam)), [len(l) for l in lam])
            zg, pg = _exact_values(data, np.concatenate(lam), which, grid, nodes)
        else:
            zg, pg, lost_g = _solve_matrix(kernels[members[0]], lam[0], grid, index)
            lost = lost or lost_g
        if not np.isfinite(pg):
            cure = ("refine the time grid" if path == "fft"
                    else "the exact solution overflows float64")
            raise StepSizeError(f"max|z| = {pg:.3e}: the solve is not finite; {cure}")
        peak = np.maximum(peak, pg)
        for m, z in zip(members, np.split(zg, np.cumsum([len(l) for l in lam])[:-1], axis=1)):
            zs[m] = z
    if bounded:
        require_bounded(peak)
    if lost:
        raise PrecisionLossError(lost)
    return zs, peak


def relaxation_values(kernel: MemoryKernel, lambdas, grid: TimeGrid) -> np.ndarray:
    """Matrix z[j, i] = z(lambdas[j], t_i) for a 1-D ``lambdas``.

    ``_solve_nodes`` with every node; see there for the solver paths and
    the errors.  The matrix is the transpose of a time-major array, so its
    rows are strided views.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1:
        raise DomainError("lambdas must be one-dimensional")
    return _solve_nodes([kernel], [lambdas], grid)[0][0].T


def solve_relaxation(kernel: MemoryKernel, lam: float, grid: TimeGrid) -> ScalarRelaxation:
    """Solve z + lam * A*z = 1 on the grid for a single lam >= 0."""
    return ScalarRelaxation(float(lam), grid, relaxation_values(kernel, [lam], grid)[0])


def decay_envelope_check(rel: ScalarRelaxation, epsilon: float) -> bool:
    """|z(t_i)| <= 2 exp(-epsilon min(lam,1) t_i) at every node?"""
    if not 0.0 < epsilon < math.inf:  # NaN fails too
        raise DomainError("epsilon must be positive and finite")
    rate = epsilon * min(rel.lam, 1.0)
    bound = 2.0 * np.exp(-rate * rel.grid.nodes) + ENVELOPE_TOL
    return bool(np.all(np.abs(rel.values) <= bound))


@dataclass
class KernelConvergenceReport:
    """Per-member distances for a sequence of kernels against a limit."""

    sup_distance: np.ndarray
    l1_kernel_distance: np.ndarray


def _coerce_kernel(obj, grid: TimeGrid) -> MemoryKernel:
    if isinstance(obj, MemoryKernel):
        return obj
    values = np.asarray(obj, dtype=float)
    if values.shape != (grid.n_steps + 1,):
        raise DomainError("sampled A must have one value per grid node")
    return SampledKernel(grid.dt, values)


def kernel_convergence_test(kernel_seq, limit_kernel, lam: float, grid: TimeGrid) -> KernelConvergenceReport:
    """Solution distance per member of a kernel sequence, with the L1
    distance of the integrated kernels for correlation.

    Members and the limit may be MemoryKernel objects or arrays of A
    sampled at the grid nodes.  Implements the stability statement that
    L1 convergence of the integrated kernels forces uniform convergence
    of the relaxation solutions.
    """
    limit = _coerce_kernel(limit_kernel, grid)
    nodes = grid.nodes
    z_inf = solve_relaxation(limit, lam, grid).values
    A_inf = np.asarray(limit.primitive(nodes), dtype=float)
    sup = np.empty(len(kernel_seq))
    l1 = np.empty(len(kernel_seq))
    for j, member in enumerate(kernel_seq):
        k = _coerce_kernel(member, grid)
        z_j = solve_relaxation(k, lam, grid).values
        sup[j] = float(np.max(np.abs(z_j - z_inf)))
        A_j = np.asarray(k.primitive(nodes), dtype=float)
        l1[j] = float(np.trapezoid(np.abs(A_j - A_inf), nodes))
    return KernelConvergenceReport(sup_distance=sup, l1_kernel_distance=l1)
