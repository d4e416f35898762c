"""The benchmark's four workloads: seeded inputs, the timed call, its check.

Each workload calls one end-to-end entry point of memdiff in-process.  The
seed varies only kernel constants, the datum's width and mass, and the mass
vector; grid sizes, step counts and the T and t lists are constants here,
so every seed (and every operation of a run) does the same amount of work.

The checks compare against closed forms from ``oracle`` where one exists:
for the Exponential family the relaxation z is a damped oscillator, which
gives exact reference distances (heat2d_converge, visco3d_rate) and exact
Fourier samples (cli_solve_csv).  The fractional workload has no cheap
closed form, so it checks the ordering and the self-similar decay rate of
its distances instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import memdiff
import memdiff.cli
from oracle import Lattice, exponential_relaxation

#: Distinct parameter sets drawn per run; a longer run cycles through them.
INPUTS_PER_RUN = 64
#: |distance - closed-form distance| allowed, relative to the H^s norm of
#: the rescaled datum.  At the step counts below the largest error seen over
#: 120 seeded operations was 1.0e-6 (heat2d_converge) and 3.0e-6 (visco3d_rate).
DISTANCE_TOL = 1e-5
#: max |u_hat - closed form| allowed in the CLI CSV, relative to the mass;
#: the largest seen over 40 seeded operations was 7.1e-7.
CSV_TOL = 5e-6
#: Allowed relative departure of successive distance ratios from k(T)^-2.
SELF_SIMILAR_TOL = 0.1


def _draw(rng, low, high):
    return float(rng.uniform(low, high))


def _exponential_params(rng):
    return {
        "mu": _draw(rng, 0.5, 2.0),
        "c": _draw(rng, 0.5, 2.0),
        "a0": _draw(rng, 0.0, 0.5),
        "width": _draw(rng, 0.7, 1.3),
        "mass": _draw(rng, 0.5, 2.0),
    }


def _strictly_decreasing(values) -> bool:
    return bool(np.all(np.isfinite(values)) and np.all(np.diff(values) < 0.0))


class Workload:
    """One closed-loop client calling a memdiff entry point."""

    name = ""
    #: How much the work slows down like big-integer arithmetic rather than
    #: like small numpy calls when the machine is busy (see run.Clock).
    BIGINT_WEIGHT = 0.0

    def inputs(self, seed: int, workdir: Path) -> list:
        rng = np.random.default_rng(seed)
        return [self.draw(rng, i, workdir) for i in range(INPUTS_PER_RUN)]

    def draw(self, rng, index: int, workdir: Path) -> dict:
        raise NotImplementedError

    def op(self, p):
        """The timed call."""
        raise NotImplementedError

    def collect(self, p, raw):
        """Untimed post-processing of the call's result into the checked output."""
        return raw

    def check(self, p, out) -> list:
        """Problems found in the output; empty when it is correct."""
        raise NotImplementedError

    def fingerprint(self, out):
        """Value that identical inputs must reproduce exactly."""
        return tuple(out.rows)

    def csv_bytes(self, out) -> int:
        return 0


class HeatConverge(Workload):
    """The smooth Volterra march dominates; specfun is bypassed (alpha = 1 is exp)."""

    name = "heat2d_converge"
    GRID = (2, 48, 6.0)
    T_LIST = (1e2, 1e3, 1e4)
    T_EVAL = (1.0,)
    S = 0.0
    N_STEPS = 500

    def draw(self, rng, index, workdir):
        return _exponential_params(rng)

    def op(self, p):
        kernel = memdiff.Exponential(mu=p["mu"], c=p["c"], a0=p["a0"])
        sf = memdiff.ScalingFunction(kernel=kernel, beta=0.0)
        return memdiff.converge_to_limit(
            kernel, memdiff.Gaussian(width=p["width"], mass=p["mass"]), sf,
            self.T_LIST, self.T_EVAL, self.S, memdiff.ModeGrid(*self.GRID),
            n_steps=self.N_STEPS,
        )

    def check(self, p, out):
        problems = []
        lat = Lattice(*self.GRID)
        lam = lat.xi_squared
        mu, c, a0, w, m = p["mu"], p["c"], p["a0"], p["width"], p["mass"]
        for t in self.T_EVAL:
            rows = sorted(r for r in out.rows if r[1] == t)
            if [r[0] for r in rows] != list(self.T_LIST):
                problems.append(f"t={t}: rows for T {[r[0] for r in rows]}")
                continue
            if not _strictly_decreasing([r[2] for r in rows]):
                problems.append(f"t={t}: distances not strictly decreasing in T")
            limit = m * np.exp(-lam * t)
            for T, _, dist, ref in rows:
                kT2 = T * (a0 + c / mu * (1.0 - math.exp(-mu * T)))
                u = m * np.exp(-0.5 * w * w * lam / kT2) * exponential_relaxation(
                    lam / kT2, T * t, mu, c, a0)
                err = abs(dist - lat.hs_norm(u - limit, self.S)) / lat.hs_norm(u, self.S)
                if not err <= DISTANCE_TOL:
                    problems.append(f"T={T}, t={t}: distance off the closed form by {err:.3e}")
                if not math.isclose(ref, lat.hs_norm(limit, self.S), rel_tol=1e-9):
                    problems.append(f"t={t}: reference norm {ref!r}")
        return problems


class FracConverge(Workload):
    """mpmath Mittag-Leffler for alpha = 0.6 and the singular march; the smooth
    march is bypassed."""

    name = "frac2d_converge"
    BIGINT_WEIGHT = 0.5  # mpmath does its arithmetic on Python integers
    GRID = (2, 8, 6.0)
    BETA = -0.4
    T_LIST = (1e2, 1e3, 1e4)
    T_EVAL = (1.0,)
    S = -1.5
    N_STEPS = 300

    def draw(self, rng, index, workdir):
        return {
            "c": _draw(rng, -1.5, -0.5),
            "width": _draw(rng, 0.7, 1.3),
            "mass": _draw(rng, 0.5, 2.0),
        }

    def op(self, p):
        kernel = memdiff.PowerLaw(beta=self.BETA, c=p["c"])
        sf = memdiff.ScalingFunction(kernel=kernel, beta=self.BETA)
        return memdiff.converge_to_limit(
            kernel, memdiff.Gaussian(width=p["width"], mass=p["mass"]), sf,
            self.T_LIST, self.T_EVAL, self.S, memdiff.ModeGrid(*self.GRID),
            n_steps=self.N_STEPS,
        )

    def check(self, p, out):
        # For a pure power law the rescaled problem does not depend on T, so
        # the distance is the datum's defect u0_hat(xi/k) - mass ~ k(T)^-2,
        # and k(T)^2 grows like T^(1+beta).
        problems = []
        alpha = 1.0 + self.BETA
        for t in self.T_EVAL:
            rows = sorted(r for r in out.rows if r[1] == t)
            if [r[0] for r in rows] != list(self.T_LIST):
                problems.append(f"t={t}: rows for T {[r[0] for r in rows]}")
                continue
            dist = np.array([r[2] for r in rows])
            if not _strictly_decreasing(dist):
                problems.append(f"t={t}: distances not strictly decreasing in T")
                continue
            refs = {r[3] for r in rows}
            if len(refs) != 1 or not all(math.isfinite(r) and r > 0 for r in refs):
                problems.append(f"t={t}: reference norms {sorted(refs)}")
            expected = (np.array(self.T_LIST[1:]) / np.array(self.T_LIST[:-1])) ** alpha
            ratio = dist[:-1] / dist[1:] / expected
            if np.any(np.abs(ratio - 1.0) > SELF_SIMILAR_TOL):
                problems.append(f"t={t}: decay ratios {ratio.tolist()} not ~ k(T)^-2")
        return problems


class CliSolve(Workload):
    """The write path (config parse, CSV formatting, file) and a short march
    over many lambdas, where the converge workloads march few lambdas far."""

    name = "cli_solve_csv"
    GRID = (2, 64, 8.0)
    T_END = 1.0
    N_STEPS = 400
    T_LIST = (0.25, 0.5, 1.0)

    def draw(self, rng, index, workdir):
        p = _exponential_params(rng)
        config = workdir / f"solve-{index}.ini"
        output = workdir / f"solve-{index}.csv"
        n, modes, xi_max = self.GRID
        text = "\n".join([
            "[kernel]", "family = exponential",
            f"mu = {p['mu']!r}", f"c = {p['c']!r}", f"a0 = {p['a0']!r}",
            "", "[initial]", "type = gaussian",
            f"width = {p['width']!r}", f"mass = {p['mass']!r}",
            "", "[grid]", f"dimension = {n}", f"modes_per_axis = {modes}",
            f"xi_max = {xi_max!r}",
            "", "[time]", f"t_end = {self.T_END!r}", f"n_steps = {self.N_STEPS}",
            "", "[experiment]", "t_list = " + ", ".join(repr(t) for t in self.T_LIST),
            f"output = {output.as_posix()}", "",
        ])
        config.write_text(text)
        return {**p, "config": config.as_posix(), "output": output.as_posix(), "text": text}

    def op(self, p):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = memdiff.cli.main(["solve", p["config"]])
        return rc, stdout.getvalue()

    def collect(self, p, raw):
        rc, stdout = raw
        path = Path(p["output"])
        data = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
        return rc, stdout, data

    def fingerprint(self, out):
        return out[2]

    def csv_bytes(self, out):
        return len(out[2])

    def check(self, p, out):
        rc, stdout, data = out
        if rc != 0 or stdout.strip() != f"wrote {p['output']}":
            return [f"exit code {rc}, stdout {stdout.strip()!r}"]
        lines = data.decode().split("\n")
        meta = [ln for ln in lines if ln.startswith("#")]
        sha = hashlib.sha256(p["text"].encode()).hexdigest()
        problems = []
        if f"# config_sha256: {sha}" not in meta:
            problems.append("config hash missing from the CSV metadata")
        body = [ln.rstrip("\r") for ln in lines if ln and not ln.startswith("#")]
        if not body or body[0] != "t,xi1,xi2,re_u_hat,im_u_hat":
            return problems + [f"header {body[:1]}"]
        values = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
        n, modes, xi_max = self.GRID
        lat = Lattice(n, modes, xi_max)
        if values.shape != (len(self.T_LIST) * lat.xi_squared.size, 5):
            return problems + [f"CSV body has shape {values.shape}"]
        t = np.repeat(self.T_LIST, lat.xi_squared.size)
        coords = np.tile(np.stack([c.ravel() for c in lat.components], axis=1), (len(self.T_LIST), 1))
        if not (np.array_equal(values[:, 0], t) and np.allclose(values[:, 1:3], coords, rtol=0, atol=1e-12)):
            problems.append("time or mode columns do not match the lattice")
        lam = coords[:, 0] ** 2 + coords[:, 1] ** 2
        exact = p["mass"] * np.exp(-0.5 * p["width"] ** 2 * lam) * exponential_relaxation(
            lam, t, p["mu"], p["c"], p["a0"])
        err = float(np.max(np.abs(values[:, 3] - exact))) / p["mass"]
        if not err <= CSV_TOL:
            problems.append(f"u_hat off the closed form by {err:.3e}")
        if np.any(values[:, 4] != 0.0):
            problems.append("nonzero imaginary part for a real kernel and datum")
        return problems


class ViscoRate(Workload):
    """The only workload on visco and 3-D spectral arrays: projectors and six
    fixed-grid solves of which only the final column is read."""

    name = "visco3d_rate"
    GRID = (3, 16, 6.0)
    T_LIST = (5.0, 20.0, 80.0)
    S = -2.0
    N_STEPS = 500

    def draw(self, rng, index, workdir):
        p = _exponential_params(rng)
        del p["mass"]
        p["b0"] = _draw(rng, 0.2, 1.0)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        p["mass_vector"] = tuple(float(v) for v in direction * _draw(rng, 0.5, 2.0))
        return p

    def op(self, p):
        pair = memdiff.ViscoKernelPair(
            memdiff.Exponential(mu=p["mu"], c=p["c"], a0=p["a0"]), memdiff.Heat(p["b0"]))
        v0 = memdiff.VectorGaussian(width=p["width"], mass_vector=p["mass_vector"])
        return memdiff.visco_asymptotics(
            pair, v0, self.T_LIST, self.S, memdiff.ModeGrid(*self.GRID), n_steps=self.N_STEPS)

    def check(self, p, out):
        # The gradient-part kernel (4 shear + 2 bulk)/3 is again of the
        # Exponential family: a0' = (4 a0 + 2 b0)/3, c' = 4c/3, same mu.
        problems = []
        mu, c, a0, b0, w = p["mu"], p["c"], p["a0"], p["b0"], p["width"]
        A = a0 + c / mu
        B = (4.0 * a0 + 2.0 * b0) / 3.0 + 4.0 * c / (3.0 * mu)
        if not (math.isclose(out.A, A, rel_tol=1e-12) and math.isclose(out.B, B, rel_tol=1e-12)):
            problems.append(f"effective viscosities {out.A!r}, {out.B!r} vs {A!r}, {B!r}")
        if [r[0] for r in out.rows] != list(self.T_LIST):
            return problems + [f"rows for t {[r[0] for r in out.rows]}"]
        if not _strictly_decreasing([r[1] for r in out.rows]):
            problems.append("scaled residuals not strictly decreasing along t")
        lat = Lattice(*self.GRID)
        lam = lat.xi_squared
        V = np.array(p["mass_vector"])
        vv = float(V @ V)
        along = sum(comp * v for comp, v in zip(lat.components, V))
        p_sq = np.where(lam == 0.0, vv, along**2 / np.where(lam == 0.0, 1.0, lam))
        g = np.exp(-0.5 * w * w * lam)
        scale = math.sqrt(lat.hs_norm_sq(g * g * vv, self.S))
        for t, r, dist in out.rows:
            z_grad = exponential_relaxation(lam, t, mu, 4.0 * c / 3.0, (4.0 * a0 + 2.0 * b0) / 3.0)
            z_shear = exponential_relaxation(lam, t, mu, c, a0)
            sq = (p_sq * (g * z_grad - np.exp(-B * lam * t)) ** 2
                  + (vv - p_sq) * (g * z_shear - np.exp(-A * lam * t)) ** 2)
            err = abs(dist - math.sqrt(lat.hs_norm_sq(sq, self.S))) / scale
            if not err <= DISTANCE_TOL:
                problems.append(f"t={t}: distance off the closed form by {err:.3e}")
            if not math.isclose(r, t**0.75 * dist, rel_tol=1e-12):
                problems.append(f"t={t}: scaled residual {r!r} is not t^(3/4) * {dist!r}")
        return problems


WORKLOADS = {w.name: w for w in (HeatConverge(), FracConverge(), CliSolve(), ViscoRate())}
