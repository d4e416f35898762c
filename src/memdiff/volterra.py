"""Solvers for the scalar relaxation equation.

Each Fourier mode of the diffusion-with-memory problem satisfies the scalar
Volterra equation

    z(lam, t) + lam * (A * z)(lam, t) = 1,      z(lam, 0) = 1,

where ``A`` is the integrated kernel and ``*`` is convolution on [0, t].
Except for the power laws with beta < 0 (last paragraph), the unknown is
represented as piecewise linear on a uniform grid and the convolution is
computed exactly against that interpolant, from the weights of ``A``
against the two hat functions of each cell (the kernel's cell rule).
Because only ``A`` enters -- never the possibly singular density ``a`` --
the scheme is uniformly second order across the kernel catalog,
including weakly singular memories.

The quadrature weights are Toeplitz on uniform grids, so the whole march is
a lower-triangular Toeplitz system: its solution is the power series of a
right-hand side divided by the symbol of the weights.  How that series is
found follows the kernel's structure, in three paths:

* Exponential polynomials, A = sum g t^m e^(s t) with m in {0, 1}: Heat,
  Wave, Exponential, NegExponential, Cosine, and their sums, scalings and
  dilations.  Their weights are closed-form and geometric in the cell
  index for each rate s, so the march's history sum splits into one
  state per rate s != 0 (and per t-term), each updated in O(1) per step:
  a short recurrence per row, O(n) per ``lam``.  Heat needs no state,
  Wave and Exponential one, Cosine two.  The recurrence is linear with
  constant coefficients, so a block of 64 steps follows from one state
  by the powers of a small matrix per row, in a few vectorised
  operations that serve the rows of every coupling, every dilation and
  every kernel of one column layout at once.  Powers and blocks are
  stored time-major, (step, row), so each operation runs over one
  contiguous vector of all rows.
* Power laws with beta < 0, alone or with Heat kernels: Laplace inversion
  on contours, below.
* Every other kernel (power laws with beta in (0, 1], LogModified, sampled
  kernels, and any sum holding one of them): the symbol is divided by FFT,
  O(n log n) per ``lam``, for a batch of ``lam`` values at once (Hairer,
  Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985)).  Newton
  doubling inverts the symbol to half length, and one Karp-Markstein step
  yields the second half of the quotient, so no FFT is longer than the
  power of two >= n.  Symbol and right-hand side are linear in ``lam``, so
  the transforms of their ``lam``-independent parts are computed once per
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
one per beta on the contour path, one per column layout on the
recurrence, one per kernel on the FFT division.  So a study of two
kernels at several dilations, as the viscoelastic one is, makes one
solve.  Rows never mix, so each has the bits it would have alone.  Each
path returns its own z and peak, and the core returns z time-major at
the requested node indices only, one array per kernel, together with a
peak max|z|, the maximum over the groups.  A study needs z at a few
times but for every |xi|^2 and dilation, so no path holds a
(rows x n+1) matrix.  The recurrence evaluates the requested nodes from
the state at the start of their 64-step block, bounds |z| over each
block from the squarings S^(2^m) of its step map alone, and tabulates
and evaluates a block in full only for the rows whose bound could raise
the running peak, so it holds no 64-step table over all rows; the FFT
division fills each block of 32 rows into a reused scratch array,
copies the requested nodes out and folds the block's max|z| into the
peak.  Either way the peak is exact over every node, so the bound check
of positive-definite callers still sees every node.  The contour path
evaluates only the requested nodes, and only the bands that hold one;
its peak covers those nodes, which suffices since it is exact to
1.2e-12.  ``relaxation_values`` is the core for one kernel with every
node requested, for which the recurrence writes its blocks straight into
the result.  A non-finite node raises StepSizeError on every path.
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
    _phi,
    dilate,
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
#: Steps per block of the recurrence path, filled from one state.
_STEP_BLOCK = 64
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
        """Node index of t; DomainError if t is not (nearly) a node."""
        i = round(t / self.dt)
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
    """(factor, leaf) pairs whose factor-weighted sum is the kernel.

    Sums are split, scalings go into the factor and a dilation is applied
    to each leaf, so leaves are never SumKernel, ScaledKernel or (for
    catalog families) TimeDilated.
    """
    if isinstance(kernel, SumKernel):
        return _terms(kernel.left) + _terms(kernel.right)
    if isinstance(kernel, ScaledKernel):
        return [(kernel.factor * f, leaf) for f, leaf in _terms(kernel.base)]
    if isinstance(kernel, TimeDilated):
        return [(f, dilate(leaf, kernel.T)) for f, leaf in _terms(kernel.base)]
    return [(1.0, kernel)]


def _power_law_constants(kernel: MemoryKernel):
    """(beta, a0, c/beta) with A = a0 + (c/beta) t^beta, for the singular path.

    Qualify: power laws with beta < 0, and sums, scalings and dilations of
    Heat kernels and power laws that share one beta < 0; their constants
    add.  None when the kernel has no beta < 0 power-law part.  A beta < 0
    power law combined with anything else has no solver path, and neither
    has a0 < 0, since the transform of z then has a pole s > 0 that the
    contour would miss: DomainError.
    """
    terms = _terms(kernel)
    betas = {leaf.beta for _, leaf in terms if isinstance(leaf, PowerLaw) and leaf.beta < 0}
    if not betas:
        return None
    if len(betas) > 1 or not all(
        isinstance(leaf, Heat) or isinstance(leaf, PowerLaw) and leaf.beta in betas
        for _, leaf in terms
    ):
        raise DomainError(
            f"{kernel.description}: a power law with beta < 0 can only be "
            "combined with Heat kernels and power laws of the same beta"
        )
    a0 = sum(f * leaf.a0 for f, leaf in terms)
    if a0 < 0.0:
        raise DomainError(
            f"{kernel.description}: a0 < 0 gives the transform of z a pole "
            "s > 0, which the beta < 0 path cannot represent"
        )
    cA = sum(f * leaf.c / leaf.beta for f, leaf in terms if isinstance(leaf, PowerLaw))
    return betas.pop(), a0, cA


def _exp_poly_terms(kernel: MemoryKernel):
    """Terms (g, s, m) with A(t) = sum g t^m e^(s t), m in {0, 1}, for the
    recurrence path.

    Qualify: Heat, Wave, Exponential, NegExponential, Cosine and their sums,
    scalings and dilations; a scaling multiplies g, and a dilation by T
    maps s to T s and scales a t-term by T.  None for any other kernel.
    """
    out = []
    for f, leaf in _terms(kernel):
        T = 1.0
        if isinstance(leaf, TimeDilated):
            T, leaf = leaf.T, leaf.base
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


def _memory_modes(terms_list, dt: float):
    """(wR[0], wL[0], modes) of exponential polynomials, for the recurrence
    path.  The term lists of ``terms_list`` share one layout, ``_layout``
    (``_solve_nodes`` groups the kernels by it; the dilations of a kernel
    share it), and each output holds one entry per polynomial, on its
    last axis: ``modes`` is (4, columns, polynomials), with one column
    (rho, KR, KL, f) per real rate s != 0, per conjugate pair of rates and
    per t-term.

    A term g e^(s t) with s != 0 has weights (KR, KL) rho^r, rho = e^(s dt),
    so its part of the march's sum obeys M(i) = rho M(i-1) + KR z_i +
    KL z_(i-1), and the sum grows by f M(i-1) + KR z_i + KL z_(i-1) per
    step, f = rho - 1.  A is real, so complex rates come in conjugate pairs
    with conjugate states: the pair is the column of Im s > 0 with 2 g, of
    which the march takes the real part.  A t-term g t adds g dt^2 r / 2 to
    both weights, a state U(i) = U(i-1) + z_i + z_(i-1) with
    f = g dt^2 / 2.  Constant parts, s = 0, need no state: they only enter
    wR[0] and wL[0], the hat weights of the first cell, summed term by
    term in the same order as ``_ExpPolyKernel._hat``.  These are a few
    scalars per term and polynomial, so they are formed one rate at a
    time: phi(s dt) is one call of ``_phi`` per rate, and e^(s dt) and
    expm1(s dt) are numpy's.  A real rate stays real, since taken through
    complex arithmetic it would get other bits, and takes Python
    arithmetic with the bits of numpy's array rules.  For a complex rate
    ``_phi`` gives 0-d arrays, so g dt phi is numpy's product too.
    """
    wR0, wL0, modes = [], [], []
    for terms in terms_list:
        wL = wR = 0.0
        columns = []
        for g, s, m in terms:
            if m:
                wL = wL + g * dt * (dt / 3.0)
                wR = wR + g * dt * (dt / 6.0)
                columns.append((1.0, 1.0, 1.0, g * dt**2 / 2.0))
                continue
            pair = np.imag(s) != 0.0
            gdt, sdt = (complex(g * dt), complex(s * dt)) if pair else ((g * dt).real, (s * dt).real)
            pR, pL = _phi(sdt)
            wL = wL + (gdt * pL).real
            wR = wR + (gdt * pR).real
            if s != 0.0 and np.imag(s) >= 0.0:
                gdt = 2.0 * gdt if pair else gdt
                columns.append((np.exp(sdt), gdt * pR, gdt * pL, np.expm1(sdt)))
        wR0.append(wR)
        wL0.append(wL)
        modes.append(columns)
    modes = np.array(modes, dtype=complex).reshape(len(terms_list), len(modes[0]), 4)
    return np.array(wR0), np.array(wL0), modes.transpose(2, 1, 0)


def _square(P):
    """P P for a stack P of (d, d) matrices on its last axis, each entry
    summed from b = 0 up; every power of the step map is formed by it."""
    P2 = P[:, 0, None] * P[0]
    for b in range(1, len(P)):
        P2 += P[:, b, None] * P[b]
    return P2


def _squarings(S):
    """S^(2^m) for m = 0, 1, 2, ..., each the ``_square`` of the last."""
    while True:
        yield S
        S = _square(S)


def _times(v, P, out, tmp):
    """out[c] = sum_b v[b] P[b, c] per row, each product added in turn from
    b = 0 up: row 0 of a power times a power of S, the op order of every
    entry of the power table.  v and out are (d, k, rows), P is (d, d,
    rows) and tmp is (k, rows) scratch."""
    for c in range(len(P)):
        o = np.multiply(v[0], P[0, c], out=out[c])
        for b in range(1, len(P)):
            o += np.multiply(v[b], P[b, c], out=tmp)
    return out


def _power_table(S):
    """(row0, S^_STEP_BLOCK) by doubling: row0[:, k] is row 0 of S^(k + 1),
    (d, _STEP_BLOCK, rows), and row0[:, k:2k] = row0[:, :k] S^k.  So
    row0[:, k] is S[0] times S^(2^m) for each set bit m of k, in
    increasing order, by which ``_block_bound`` forms a single column with
    the same bits."""
    d, _, rows = S.shape
    row0 = np.empty((d, _STEP_BLOCK, rows))
    tmp = np.empty((_STEP_BLOCK // 2, rows))
    row0[:, 0] = S[0]
    for m, P in enumerate(_squarings(S)):
        k = 1 << m
        if k == _STEP_BLOCK:
            return row0, P
        _times(row0[:, :k], P, row0[:, k : 2 * k], tmp[:k])


def _step_map(terms_list, lambdas: np.ndarray, which: np.ndarray, dt: float):
    """(S, x1): the step map of ``_recurrence_values``, (d, d, rows), and
    the state at step 1, (d, rows), of each row; see there for the rows."""
    rows = len(lambdas)
    wR0, wL0, modes = _memory_modes(terms_list, dt)
    wR0, wL0 = wR0[which], wL0[which]
    rho, KR, KL, f = modes[:, :, which]
    D0 = 1.0 + lambdas * wR0
    if np.any(D0 <= 0.0):
        raise StepSizeError(
            "implicit coefficient 1 + lambda*w <= 0; refine the time grid"
        )
    # State k enters the step as Re(e_k M_k(i)), e_k = -lam f_k / D0.  With
    # Y_k(i) = e_k (rho_k M_k(i) + KL_k z_i), the part of e_k M_k(i+1) known
    # before z_(i+1), a step is
    #   z_(i+1) = c2 z_i + sum_k Re Y_k(i-1),   Y_k(i) = rho_k Y_k(i-1) + gain_k z_i,
    # that is x_(i+1) = S x_i for x_i = (z_i, Y(i-1)) and x_1 = (c1, Y(0)),
    # where a column of complex rates is two real states, Re Y and Im Y.
    e = -lambdas * f / D0
    c1 = (1.0 - lambdas * wL0) / D0
    Y, gain = e * KL, e * (rho * KR + KL)
    pairs = [np.any(np.imag(col) != 0.0) for col in zip(rho, KR, KL, f)]
    d = 1 + len(pairs) + sum(pairs)
    S = np.zeros((d, d, rows))
    x1 = np.empty((d, rows))
    S[0, 0] = c1 + sum(np.real(e * KR))
    x1[0] = c1
    j = 1
    for k, pair in enumerate(pairs):
        S[0, j], S[j, 0], S[j, j], x1[j] = 1.0, gain[k].real, rho[k].real, Y[k].real
        if pair:
            S[j + 1, 0], x1[j + 1] = gain[k].imag, Y[k].imag
            S[j, j + 1], S[j + 1, j], S[j + 1, j + 1] = -rho[k].imag, rho[k].imag, rho[k].real
        j += 1 + pair
    return S, x1


def _block_bound(S, offsets):
    """(U, cols, S^_STEP_BLOCK) from the squarings S^(2^m) alone, with no
    power table.  U[b] >= max_k |row0[b, k]| over the table of
    ``_power_table``: it starts at |S[0]| and takes U <- max(U, U |S^(2^m)|)
    for m = 0..5, the chains of the table in absolute values, so it covers
    every entry, up to the rounding of those chains.  cols[k] = row0[:, k]
    for each in-block offset k in ``offsets``, formed by the table's own
    chain, so with its bits.  U and the columns are (d, rows)."""
    # Kept (d, 1, rows) so that ``_times`` serves them as one-step tables.
    U = np.abs(S[0, :, None])
    cols = dict.fromkeys(offsets, S[0, :, None])
    tmp = np.empty((1, S.shape[-1]))
    for m, P in enumerate(_squarings(S)):
        if 1 << m == _STEP_BLOCK:
            return U[:, 0], {k: col[:, 0] for k, col in cols.items()}, P
        U = np.maximum(U, _times(U, np.abs(P), np.empty_like(U), tmp))
        for k in cols:
            if k >> m & 1:
                cols[k] = _times(cols[k], P, np.empty_like(U), tmp)


def _recurrence_values(terms_list, lambdas: np.ndarray, which: np.ndarray, grid: TimeGrid, nodes):
    """Solver path for exponential polynomials: a short recurrence per row.

    Row j solves z + lam_j A * z = 1 for the kernel with terms
    ``terms_list[which[j]]``.  Returns (z, peak) as ``_solve_nodes`` does:
    z time-major, one row per entry of ``nodes`` (every node if None), and
    peak = max|z| over every node of every row.  Differencing the march (see
    ``_solve_matrix``) at steps i and i - 1 gives

        z_i (1 + lam wR[0]) = z_(i-1) (1 - lam wL[0]) - lam sum_k f_k M_k(i-1),

    with the states M_k of ``_memory_modes``, so a row costs O(n) per state
    and its weights are closed-form.  This is the march's own sum, split by
    rate (a parallel form), and each state carries only its own rate's
    history, |rho| <= 1.  A d-term recurrence on the monomial coefficients
    of the rational symbol would need the same few operations per step,
    but its rounding grows like n^d where the rates e^(s dt) cluster at 1:
    1.8e-5 for Cosine on TimeGrid(10, 20000), against 3e-12 here.

    The step is a fixed linear map S of z and the states, so z over a
    block of ``_STEP_BLOCK`` steps is row 0 of S^j, j = 1, 2, ..., applied
    to the state at the block's start, and S^_STEP_BLOCK gives the next
    block's state.  A Python loop of one pass per step would make a
    single-row solve on TimeGrid(5, 5000) ten times slower than the FFT
    division.  The rows of every kernel go through the blocks together,
    each with its own S.  Every operation is elementwise, so a row gets
    the bits it would have alone.

    The powers and the blocks are time-major, (step, row), so each
    multiply-add runs over one contiguous vector of all rows.  With every
    node requested, the table of row 0 of S^1..S^_STEP_BLOCK
    (``_power_table``) is built for all rows and the blocks are written
    straight into the time-major result.  Otherwise no table is built for
    all rows: ``_block_bound`` forms, from the squarings S^(2^m) alone,
    the table's columns at the requested in-block offsets, with their
    bits, and a bound U[b] >= max_k |row0[b, k]|.  Over a block
    z = row0 . x, with x the block's starting state, so every |z| in it is
    at most sum_b U[b] |x[b]|; the factor 1 + 1e-12 covers the rounding of
    that sum and of the block.  The running peak, which starts at
    max(1, |z_1|), takes in a block only the rows whose bound is not
    strictly below it, NaN and inf bounds included (an inf bound stays
    live even after an inf peak); rows with lam = 0 are exactly 1 and
    take no part.  The live rows are evaluated from a power table of
    their own, kept while later live rows fall inside it, in one reused
    scratch array.  (A bound from powers of |S^_STEP_BLOCK| over the
    whole horizon would be cheaper, but powers of absolute values grow on
    oscillating rows, which it would keep live.)  So the peak stays exact
    over every node of every row, a decaying row is evaluated in few
    blocks, and memory is a few vectors per row plus the table of the
    live rows, not rows x (n + 1) values or 64 steps of every row.
    """
    n = grid.n_steps
    rows = len(lambdas)
    z = np.empty((n + 1 if nodes is None else len(nodes), rows))
    if not rows:
        return z, 0.0
    S, x1 = _step_map(terms_list, lambdas, which, grid.dt)
    d = len(S)
    # z at steps i + 1..i + _STEP_BLOCK from x_i, block by block; steps 0
    # and 1 are 1 and c1.
    x = x1
    if nodes is None:
        row0, S64 = _power_table(S)
        tmp = np.empty((_STEP_BLOCK, rows))
        z[0], z[1] = 1.0, x1[0]
    else:
        for p, node in enumerate(nodes):
            if node < 2:
                z[p] = x1[0] if node else 1.0
        U, cols, S64 = _block_bound(S, {(node - 2) % _STEP_BLOCK for node in nodes if node >= 2})
        slack = 1.0 + 1e-12
        peak = np.maximum(1.0, _abs_max(x1[0]))
        solved = lambdas != 0.0
        tabled = np.empty(0, dtype=np.intp)
    for i in range(1, n, _STEP_BLOCK):
        m = min(_STEP_BLOCK, n - i)
        if nodes is None:
            out = z[i + 1 : i + 1 + m]
            np.multiply(row0[0, :m], x[0], out=out)
            for b in range(1, d):
                out += np.multiply(row0[b, :m], x[b], out=tmp[:m])
        else:
            # A NaN or inf bound fails the test, so its row stays live.
            live = np.flatnonzero(~((U * np.abs(x)).sum(axis=0) * slack < peak) & solved)
            if len(live):
                at = np.searchsorted(tabled, live)
                if not (len(tabled) and np.array_equal(tabled.take(at, mode="clip"), live)):
                    tabled, at = live, np.arange(len(live))
                    table = _power_table(S[:, :, live])[0]
                    scratch = np.empty((2, _STEP_BLOCK * len(live)))
                out, g = scratch[:, : m * len(live)].reshape(2, m, len(live))
                # mode="clip" lets take write into out unbuffered.
                np.take(table[0, :m], at, axis=1, out=out, mode="clip")
                out *= x[0, live]
                for b in range(1, d):
                    np.take(table[b, :m], at, axis=1, out=g, mode="clip")
                    out += np.multiply(g, x[b, live], out=g)
                peak = np.maximum(peak, _abs_max(out))
            for p, node in enumerate(nodes):
                if i < node <= i + m:
                    col = cols[node - i - 1]
                    np.multiply(col[0], x[0], out=z[p])
                    for b in range(1, d):
                        z[p] += col[b] * x[b]
        x2 = S64[:, 0] * x[0]
        for b in range(1, d):
            x2 += S64[:, b] * x[b]
        x = x2
    z[:, lambdas == 0.0] = 1.0
    return z, _abs_max(z) if nodes is None else peak


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
    means the discrete scheme went unstable on too coarse a grid.  Call
    only where the kernel is known to be positive definite, with the peak
    of ``_solve_nodes``.  On the recurrence and FFT paths that peak is
    exact over every node, requested or not, even where the recurrence
    skips the blocks of a row that cannot raise it: its bound per block,
    from the squarings of the row's step map, covers every step of the
    block, and a NaN or inf bound keeps the block.  On the contour path
    (power laws with beta < 0) it covers only the evaluated nodes: that
    path is no march but the exact solution to 1.2e-12 at each node, so
    for a positive-definite kernel |z| <= 1 holds at every node, and an
    unrequested node has no instability to show.
    """
    if not peak <= 1.0 + BOUND_TOL:  # NaN fails too
        raise StepSizeError(
            f"max|z| = {peak:.3e} exceeds 1 for a positive-definite kernel; "
            "refine the time grid"
        )


def _layout(terms):
    """The state columns that ``_memory_modes`` gives these terms, as one
    flag per column: whether it holds a conjugate pair of rates."""
    columns = [(s, m) for g, s, m in terms if m or s != 0.0 and np.imag(s) >= 0.0]
    return tuple(bool(not m and np.imag(s) != 0.0) for s, m in columns)


def _path(kernel: MemoryKernel):
    """(path, share, data): the solver path of the kernel, what kernels
    must share to go through one call of it (beta on the contour path, the
    column layout on the recurrence, nothing on the FFT division) and what
    the path takes of the kernel: (a0, c/beta), the terms or None.  Raises
    the DomainError of ``_power_law_constants`` for a kernel with no path."""
    constants = _power_law_constants(kernel)
    if constants is not None:
        return "contour", constants[0], constants[1:]
    terms = _exp_poly_terms(kernel)
    if terms is not None:
        return "recurrence", _layout(terms), terms
    return "fft", None, None


def _solve_nodes(kernels, lambdas, grid: TimeGrid, nodes=None, bounded=False):
    """(zs, peak): zs[m][k, j] = z(lambdas[m][j], t_(nodes[k])) of
    ``kernels[m]``, and peak = max|z|.

    The array core of the solver API: the relaxations of a sequence of
    kernels, each at its own couplings.  A caller that needs a kernel at
    several dilations passes each dilated kernel.  The kernels are grouped
    by solver path, and each group is one call of its path: one per beta
    on the contour path, one per column layout (``_layout``) on the
    recurrence, one per kernel on the FFT division; each path returns its
    own z and peak, and zs[m] is a view of its group's z.  Each row has
    the bits it would have if solved alone, at whichever nodes are
    requested, and rows with lam = 0 are exactly 1.

    z is time-major, one row per entry of ``nodes`` (node indices, in any
    order), or per node of the grid if ``nodes`` is None; no path holds
    the values at other nodes.  peak is the maximum of the groups' peaks,
    NaN if any node it covers is.  On the recurrence and FFT paths it
    covers every node of every row, requested or not; the recurrence
    evaluates a 64-step block only for the rows whose bound, from the
    squarings of their step map, could raise the peak, and the others
    cannot, so the peak is still exact.  On the contour path it covers
    only the requested nodes, since that path evaluates no others; it is
    exact to 1.2e-12 at each node, so ``require_bounded`` loses nothing
    (see there).  ``bounded=True`` applies it to the peak here, for callers
    whose kernels are positive definite.

    Power laws with beta < 0, alone or summed with Heat kernels, are solved
    for all rows of a beta at once by Laplace inversion on parabolic
    contours, row j with its own constants (lam a0, lam c/beta); a0 < 0
    and any other combination with such a power law raise the DomainError
    of ``_power_law_constants``.  Exponential polynomials (see
    ``_exp_poly_terms``) are solved for all rows of a layout at once by a
    short recurrence per row on closed-form weights.  Every other kernel
    is marched by FFT division, with its weights computed a single time
    for all its rows, in blocks of ``_ROW_BLOCK`` rows.  The recurrence and
    the FFT division keep only the requested nodes of each block; the
    contour path evaluates no others.

    Raises DomainError for a lam that is negative or not finite, for a
    count of lambda arrays that is not one per kernel and for a node index
    that is not an integer or lies off the grid, StepSizeError if any node
    is not finite or, with ``bounded``, the peak exceeds 1 + BOUND_TOL,
    and PrecisionLossError for an FFT-path row that grew past the
    precision of its requested nodes (see ``_solve_matrix``).  The
    StepSizeErrors come first, since they know the peak over every node:
    a row that loses precision has a peak far above 1, which for a
    positive-definite kernel means too coarse a time grid, not a growing
    solution.
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
        elif path == "recurrence":
            which = np.repeat(np.arange(len(lam)), [len(l) for l in lam])
            zg, pg = _recurrence_values(data, np.concatenate(lam), which, grid, nodes)
        else:
            zg, pg, lost_g = _solve_matrix(kernels[members[0]], lam[0], grid, index)
            lost = lost or lost_g
        peak = np.maximum(peak, pg)
        for m, z in zip(members, np.split(zg, np.cumsum([len(l) for l in lam])[:-1], axis=1)):
            zs[m] = z
    if not np.isfinite(peak):
        raise StepSizeError(
            f"max|z| = {peak:.3e}: the solve is not finite; refine the time grid"
        )
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
