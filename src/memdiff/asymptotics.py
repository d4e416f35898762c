"""Self-similarity harness: rescaled solutions against their limit profiles.

The rescaling u -> k(T)^n u(k(T) x, T t) acts on Fourier transforms as
u_hat_{T,k}(xi, t) = z(|xi|^2 / k(T)^2, T t) * u0_hat(xi / k(T)), so the
rescaled field is formed analytically from the representation formula --
no resampling, no interpolation error.  The long solve to time T*t is
avoided through the dilation identity z(lam, T tau) = w(tau), where w is
the relaxation of the dilated kernel A(T .) with coupling lam*T.  The
solver reads a dilation from the kernel tree and takes the dilated
kernel's path, so rescaled evolutions cost the same as plain ones.

The canonical scaling is k(t) = sqrt(t A(t) Gamma(1+beta)); with it the
rescaled fields approach the Mittag-Leffler limit profile of index
alpha = 1 + beta as T grows.

Every factor of an H^s distance but the datum is constant on a shell of
equal |xi|^2, the H^s factor h = (1+lam)^s times the quadrature scale
among them (``spectral._shell_weights``), so the studies fit the datum once
under the trapezoid weights alone (``spectral._shell_fit``) and sum each
row over the shells: the per-mode sum to rounding, not bits.  No study
forms a weight per mode.  A radial datum (``InitialData.radial``) is
constant on the shells too, so it is formed on the shell values alone and
is its own fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, HypothesisViolation, NotEventuallyPositiveError
from .kernels import (
    MemoryKernel,
    dilate,
    require_positive_definite,
    rv_index_estimate,
)
from .spectral import (
    InitialData,
    ModeGrid,
    SpectralField,
    _scaled_datum,
    _shell_factors,
    _shell_fit,
    _shell_weights,
    _time_list,
    unique_lambdas,
)
from .specfun import gamma as gamma_fn, mittag_leffler
from .volterra import TimeGrid, _solve_nodes

#: Slack on a regular-variation index: how far its estimate may lie from
#: the scaling function's beta, or above 1, and how far a beta may lie
#: from 0 and still take the beta = 0 branch.
BETA_MISMATCH_TOL = 0.05
#: Default geometric grid for the regular-variation estimate.
RV_GRID = np.geomspace(1e-2, 1e5, 72)
#: Default resolution of the dilated time grid per unit of rescaled time.
STEPS_PER_UNIT_TIME = 2000
#: Column names of a ConvergenceReport row.
CONVERGENCE_HEADER = ["T", "t", "distance_hs", "reference_norm"]

#: Cell types written as floats by ``_cell_text``.
_REAL = (float, np.floating)
#: CSV rows joined into one string per write by ``_write_table``.
_CSV_CHUNK = 4096


@dataclass(frozen=True)
class ScalingFunction:
    """The rescaling map k(t) = C * sqrt(t A(t) Gamma(1+beta)).

    C = 1 is the canonical scaling; any other C > 0 gives an
    asymptotically equivalent one (Prop-2.2-style).  ``exponent_override``
    replaces k by C t^exponent -- a diagnostic scaling used by the
    trivial-limit detector; any exponent other than (1+beta)/2 must fail
    to produce a nontrivial limit.
    """

    kernel: MemoryKernel
    beta: float
    C: float = 1.0
    exponent_override: float | None = None

    def __post_init__(self):
        if not -1.0 < self.beta <= 1.0:
            raise DomainError("beta must lie in (-1, 1]")
        if not 0.0 < self.C < math.inf:  # NaN fails too
            raise DomainError("C must be positive and finite")
        if self.exponent_override is not None and not math.isfinite(self.exponent_override):
            raise DomainError("exponent_override must be finite")

    @property
    def alpha(self) -> float:
        """Regular-variation index of k: (1 + beta) / 2."""
        return (1.0 + self.beta) / 2.0

    def k(self, t):
        """k(t) for finite t > 0: a float for a scalar, else an array."""
        scalar = np.isscalar(t)
        ta = np.asarray(t, dtype=float)
        if not np.all((ta > 0.0) & (ta < np.inf)):  # NaN fails too
            raise DomainError("scaling function needs a finite t > 0")
        if self.exponent_override is not None:
            out = self.C * ta**self.exponent_override
        else:
            A = np.asarray(self.kernel.primitive(ta), dtype=float)
            if np.any(A <= 0):
                raise DomainError("integrated kernel is not positive at t")
            out = self.C * np.sqrt(ta * A * gamma_fn(1.0 + self.beta))
        return float(out) if scalar else out


def _dilated_time_grid(t_max: float, n_steps: int | None) -> TimeGrid:
    if n_steps is None:
        n_steps = max(400, int(STEPS_PER_UNIT_TIME * t_max))
    return TimeGrid(t_max, n_steps)


def _rescaled_fields(kernel, sf, T_list, t_list, grid: ModeGrid, n_steps):
    """Per T of ``T_list``: k(T) and the shell arrays z(lam / k(T)^2, T t)
    per t, from one solve; ``t_list`` is an array the caller has checked
    with ``_time_list``, before any time grid is built."""
    T_list = [float(T) for T in T_list]
    kT = sf.k(np.array(T_list)).tolist()
    tg = _dilated_time_grid(max(t_list.tolist(), default=1.0), n_steps)
    lam_scale = [T / k**2 for T, k in zip(T_list, kT)]
    zs = _shell_factors([dilate(kernel, T) for T in T_list], grid, tg, t_list, lam_scale)
    return zip(kT, zs)


def _datum_fit(u0: InitialData, grid: ModeGrid, h, Y, k=1.0):
    """(fit, R) per shell of u0_hat(xi / k) against y = 1, with (h, Y) from
    ``spectral._shell_weights`` (see ``_shell_fit``).  A radial datum is its
    own fit, formed on the shell values, and R = 0; any other is formed on
    the modes and fitted."""
    if u0.radial:
        return u0.hat(xi_squared=unique_lambdas(grid)[0] / k**2), np.zeros_like(Y)
    return _shell_fit(grid, _scaled_datum(u0, grid, k)[None], np.ones(1), Y, h)


def rescaled_values(
    kernel: MemoryKernel,
    u0: InitialData,
    sf: ScalingFunction,
    T: float,
    t_list,
    grid: ModeGrid,
    n_steps: int | None = None,
):
    """Rescaled fields u_hat_{T,k}(., t) for each t in t_list.

    Implements u_hat_{T,k}(xi, t) = z(|xi|^2/k(T)^2, T t) u0_hat(xi/k(T))
    through the dilation identity, solving on tau in [0, max(t_list)].
    The kernel must be positive definite, as ``converge_to_limit`` checks;
    |z| above 1 then means the grid is too coarse and raises StepSizeError.
    A T that is not one finite positive time raises DomainError, naming T,
    before any solve.
    """
    if np.ndim(T) != 0:
        raise DomainError("T must be one time, not a list")
    (T,) = _time_list(T, "T")
    ((k, zs),) = _rescaled_fields(kernel, sf, [T], _time_list(t_list), grid, n_steps)
    u0_scaled = _scaled_datum(u0, grid, k)
    inverse = unique_lambdas(grid)[1]
    return [SpectralField(grid, u0_scaled * z[inverse]) for z in zs]


def rescale_field(
    kernel: MemoryKernel,
    u0: InitialData,
    sf: ScalingFunction,
    T: float,
    t: float,
    grid: ModeGrid,
    n_steps: int | None = None,
) -> SpectralField:
    """Single-time version of ``rescaled_values``."""
    return rescaled_values(kernel, u0, sf, T, [t], grid, n_steps)[0]


@dataclass
class ConvergenceReport:
    """Distances of rescaled fields to the limit profile per (T, t)."""

    s: float
    U0: float
    beta_estimate: float
    rows: list = field(default_factory=list)  # (T, t, distance, reference_norm)

    def distances_at(self, t: float) -> np.ndarray:
        """Distance column for fixed t, ordered by T."""
        sel = sorted((T, d) for T, tt, d, _ in self.rows if tt == t)
        return np.array([d for _, d in sel])

    def write_csv(self, path, metadata=None):
        meta_lines = [f"# {key}: {value}" for key, value in (metadata or {}).items()]
        _write_csv(path, meta_lines, CONVERGENCE_HEADER, zip(*self.rows))


@dataclass(frozen=True)
class _Factored:
    """A CSV column given by its structure: row i holds ``values[codes[i]]``.

    A caller that knows how a column repeats (the t and xi columns of a
    solve) passes it so, and the writer neither builds nor sorts the
    full column.  ``values`` need not be distinct.
    """

    values: object
    codes: np.ndarray


def _cell_text(v) -> str:
    """The CSV text of one cell: ``repr(float(v))`` for a real, else ``str(v)``."""
    return repr(float(v)) if isinstance(v, _REAL) else str(v)


def _column_words(column):
    """(words, codes) of one CSV column: the text of its distinct cells, and
    the index in ``words`` of each row's cell.

    A real floating value is written as ``repr(float(v))``, the shortest
    string that reads back to the same float64, so numpy scalars are plain
    numbers too; any other value (an int, a string) by ``str``.  A float
    column is factored on its int64 view, which keeps -0.0 apart from 0.0,
    so each distinct bit pattern is formatted once; a ``_Factored`` column
    formats each of its values once.
    """
    if isinstance(column, _Factored):
        return [_cell_text(v) for v in column.values], column.codes
    if not (isinstance(column, np.ndarray) and column.dtype.kind == "f"):
        if not all(isinstance(v, _REAL) for v in column):
            return [_cell_text(v) for v in column], np.arange(len(column))
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    distinct, codes = np.unique(bits, return_inverse=True)
    return [repr(v) for v in distinct.view(np.float64).tolist()], codes


def _write_table(fh, meta_lines, header, columns):
    """Stream a CSV to the text file ``fh``; see ``_write_csv``.

    All columns share one vocabulary: the words of column k, each followed
    by its separator ("," or the row's CRLF), from ``offsets[k]`` on.  A
    chunk of ``_CSV_CHUNK`` rows is then one block of vocabulary indices,
    one gather, one join and one write.
    """
    fh.writelines(line + "\n" for line in meta_lines)
    fh.write(",".join(header) + "\r\n")
    factored = [_column_words(col) for col in columns]
    if len({len(codes) for _, codes in factored}) > 1:
        raise ValueError("CSV columns differ in length")
    width = len(factored)
    vocab, offsets = [], []
    for k, (words, _) in enumerate(factored):
        end = "," if k < width - 1 else "\r\n"
        offsets.append(len(vocab))
        vocab.extend(word + end for word in words)
    vocab = np.array(vocab, dtype=object)
    rows = len(factored[0][1]) if factored else 0
    for start in range(0, rows, _CSV_CHUNK):
        stop = min(start + _CSV_CHUNK, rows)
        block = np.empty((stop - start, width), dtype=np.intp)
        for k, (_, codes) in enumerate(factored):
            np.add(codes[start:stop], offsets[k], out=block[:, k])
        fh.write("".join(vocab[block.ravel()].tolist()))


def _write_csv(path, meta_lines, header, columns):
    """Write a CSV: '#' metadata lines, the header row, then the data rows.

    ``columns`` holds one entry per header entry: an equal-length sequence
    (or 1-D array) of cells, or a ``_Factored`` column of values and
    per-row codes.  Columns of unequal length raise ValueError; no
    columns writes the header alone.  Cells are formatted by
    ``_column_words``, so floats are exact, and rows end in CRLF.  Rows are
    streamed to the file a chunk at a time, never built into one string.
    """
    with open(path, "w", newline="") as fh:
        _write_table(fh, meta_lines, header, columns)


def _validate_harness_kernel(kernel: MemoryKernel, sf: ScalingFunction, s: float, n: int):
    require_positive_definite(kernel)
    try:
        est = rv_index_estimate(kernel, RV_GRID)
    except NotEventuallyPositiveError as exc:
        raise HypothesisViolation(
            f"integrated kernel is not eventually positive: {exc}"
        ) from exc
    if est.tail_decaying:
        raise HypothesisViolation(
            "integrated kernel decays: regular-variation index is below -1 "
            "(outside the admissible range (-1, 1])"
        )
    if not est.converged:
        raise HypothesisViolation(
            "integrated kernel is not regularly varying "
            "(doubling-ratio estimate did not converge)"
        )
    if not -1.0 < est.beta <= 1.0 + BETA_MISMATCH_TOL:
        raise HypothesisViolation(
            f"regular-variation index {est.beta:.3f} outside (-1, 1]"
        )
    if abs(est.beta - sf.beta) > BETA_MISMATCH_TOL:
        raise HypothesisViolation(
            f"scaling-function beta {sf.beta} does not match the estimated "
            f"index {est.beta:.3f}"
        )
    if s >= 0.0 and abs(sf.beta) > BETA_MISMATCH_TOL:
        raise HypothesisViolation(
            "nonnegative Sobolev exponent s requires the beta = 0 branch"
        )
    if s < 0.0 and abs(sf.beta) > BETA_MISMATCH_TOL and not s < -n / 2.0:
        raise HypothesisViolation(
            f"for beta != 0 the distance requires s < -n/2 (got s = {s})"
        )
    return est


def converge_to_limit(
    kernel: MemoryKernel,
    u0: InitialData,
    sf: ScalingFunction,
    T_list,
    t_list,
    s: float,
    grid: ModeGrid,
    n_steps: int | None = None,
) -> ConvergenceReport:
    """Hs distances of u_{T,k}(., t) to U0 * limit profile over (T, t).

    Each row is a sum over the |xi|^2 shells (the per-mode sum to
    rounding): per T the datum u0_hat(xi / k(T)) is reduced to a fit and
    residual per shell, on the shell values alone for a radial datum
    (``InitialData.radial``).  The H^s factor h per shell and Y, the H^s
    weight summed per shell, are formed once, on the shells alone
    (``spectral._shell_weights``), for every datum: a fit sums under the
    trapezoid weights and scales by h, so no H^s weight is formed per mode.

    Refuses kernels violating the hypotheses of the limit theorems, with
    the specific condition named: positive definiteness, eventual
    positivity of A, regular variation, index range, index consistency
    with the scaling function, and the Sobolev-exponent branch.  A
    ``T_list`` or ``t_list`` that is not 1-D, or not finite and positive,
    raises DomainError, as does a ``T_list`` that is not strictly
    increasing, before any solve; an empty list gives no rows.
    """
    h, Y = _shell_weights(grid, s)  # refuses an s that is not finite
    est = _validate_harness_kernel(kernel, sf, s, grid.n)
    T_list = _time_list(T_list, "T_list")
    if np.any(np.diff(T_list) <= 0):
        raise DomainError("T_list must be strictly increasing")
    U0 = u0.mass
    report = ConvergenceReport(s=s, U0=U0, beta_estimate=est.beta)
    t_list = _time_list(t_list)  # before the time grid of _rescaled_fields
    rescaled = _rescaled_fields(kernel, sf, T_list, t_list, grid, n_steps)
    # The limit U0 E_alpha(-lam t^alpha) per shell, as in limit_profile.
    alpha, lams = 1.0 + sf.beta, unique_lambdas(grid)[0]
    profiles = [U0 * mittag_leffler(alpha, -lams * t**alpha) for t in map(float, t_list)]
    for T, (kT, zs) in zip(T_list, rescaled):
        k, R = _datum_fit(u0, grid, h, Y, kT)
        for t, z, E in zip(t_list, zs, profiles):
            dist = math.sqrt(float(np.vdot((z * k - E) ** 2, Y) + np.vdot(z * z, R)))
            report.rows.append((float(T), float(t), dist, math.sqrt(float(np.vdot(E * E, Y)))))
    return report


def relaxation_at_time(kernel: MemoryKernel, lambdas, t: float, n_steps: int = 2000):
    """z(lam, t) for one time via the dilation identity (cheap for large t),
    in the shape of ``lambdas``.  A t that is not one finite positive time
    raises DomainError, naming t, as ``rescaled_values`` does for T."""
    if np.ndim(t) != 0:
        raise DomainError("t must be one time, not a list")
    (t,) = _time_list(t, "t")
    lambdas = np.asarray(lambdas, dtype=float)
    grid = TimeGrid(1.0, n_steps)
    (z,), _ = _solve_nodes([dilate(kernel, t)], [lambdas.ravel() * t], grid, [n_steps])
    # [()] makes a 0-d result a scalar and leaves any other array as it is.
    return z[0].reshape(lambdas.shape)[()]


@dataclass
class RateReport:
    """Scaled residual r(t) = t^{n/4} ||u - w||_{Hs} over a time list."""

    s: float
    A_infinity: float
    rows: list = field(default_factory=list)  # (t, r, raw_distance)

    @property
    def r_values(self) -> np.ndarray:
        return np.array([r for _, r, _ in self.rows])


def leading_order_rate(
    kernel: MemoryKernel,
    u0: InitialData,
    t_list,
    s: float,
    grid: ModeGrid,
    n_steps: int = 2000,
) -> RateReport:
    """Residual against the effective heat flow w_t = A_inf * Lap(w).

    r(t) = t^{n/4} * ||u_hat(., t) - U0 exp(-A_inf |xi|^2 t)||_{Hs}; on the
    beta = 0 branch r decreases toward 0 along a geometric time list.
    """
    h, Y = _shell_weights(grid, s)  # refuses an s that is not finite
    require_positive_definite(kernel)
    A_inf = kernel.total_mass()
    if A_inf is None or not np.isfinite(A_inf) or A_inf <= 0:
        raise HypothesisViolation(
            f"total mass A_infinity = {A_inf} is not finite and positive "
            "(beta = 0 branch unavailable)"
        )
    est = rv_index_estimate(kernel, RV_GRID)
    if est.tail_decaying or not est.converged or abs(est.beta) > BETA_MISMATCH_TOL:
        raise HypothesisViolation(
            "kernel is not regularly varying with index 0; the heat-limit "
            "rate statement does not apply"
        )
    t_list = _time_list(t_list)
    lams = unique_lambdas(grid)[0]
    k, R = _datum_fit(u0, grid, h, Y)
    out = RateReport(s=s, A_infinity=float(A_inf))
    # z(lam, t) = w(1) of the kernel dilated by t at coupling lam * t.
    dilated = [dilate(kernel, t) for t in map(float, t_list)]
    factors = _shell_factors(dilated, grid, TimeGrid(1.0, n_steps), [1.0], t_list)
    for t, (z,) in zip(map(float, t_list), factors):
        e = u0.mass * np.exp(-A_inf * lams * t)
        dist = math.sqrt(float(np.vdot((z * k - e) ** 2, Y) + np.vdot(z * z, R)))
        out.rows.append((t, float(t ** (grid.n / 4.0) * dist), dist))
    return out


def scaling_equivalence_check(
    sf1: ScalingFunction,
    sf2: ScalingFunction,
    kernel: MemoryKernel,
    u0: InitialData,
    T: float,
    t: float,
    grid: ModeGrid,
    tol: float = 1e-8,
    n_steps: int | None = None,
) -> bool:
    """Asymptotically equivalent scalings give C-dilated rescaled fields.

    With l = C k, the field rescaled by l at mode xi equals the field
    rescaled by k at mode xi / C; both sides are formed from the
    representation formula on matched modes and compared in sup norm.
    """
    C = sf2.C / sf1.C
    f2 = rescale_field(kernel, u0, sf2, T, t, grid, n_steps)
    shrunk = replace(grid, xi_max=grid.xi_max / C)
    f1 = rescale_field(kernel, u0, sf1, T, t, shrunk, n_steps)
    diff = float(np.max(np.abs(f2.values - f1.values)))
    return diff <= tol
