"""Batch front end: config-driven experiments with deterministic CSV output.

Config files are line-oriented: ``[section]`` headers with ``key = value``
entries.  Sections: [kernel], [kernel.bulk] (visco only), [initial],
[grid], [time], [experiment].  Values are decimal/scientific reals,
integers, booleans, or comma-separated lists.  All validation errors are
collected with their line numbers before the run is rejected.

Outputs are CSV with '#'-prefixed metadata lines (version, config hash,
kernel, beta estimate) before the header row; identical configs produce
byte-identical files.  Refusals (violated hypotheses) exit nonzero with
the reason on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from . import __version__ as VERSION
from . import asymptotics, kernels, spectral, visco
from .errors import ConfigError, HypothesisViolation, MemdiffError
from .specfun import mittag_leffler
from .volterra import TimeGrid

KNOWN_SECTIONS = {"kernel", "kernel.bulk", "initial", "grid", "time", "experiment"}

KERNEL_KEYS = {
    "heat": {"a0"},
    "wave": {"c", "a0"},
    "powerlaw": {"beta", "c", "a0"},
    "fractional": {"beta"},
    "exponential": {"mu", "c", "a0"},
    "negexponential": set(),
    "cosine": set(),
    "logmodified": {"m"},
}

SECTION_KEYS = {
    "kernel": {"family", "a0", "c", "beta", "mu", "m"},
    "kernel.bulk": {"family", "a0", "c", "beta", "mu", "m"},
    "initial": {"type", "width", "half_width", "mass", "mass_vector"},
    "grid": {"dimension", "modes_per_axis", "xi_max", "radial"},
    "time": {"t_end", "n_steps"},
    "experiment": {"t_list", "big_t_list", "s", "beta", "output", "exponent_override"},
}


class RunConfig:
    """Parsed configuration: raw text, sections, and the command."""

    def __init__(self, command: str, text: str):
        self.command = command
        self.text = text
        self.sections: dict[str, dict[str, tuple[str, int]]] = {}

    def get(self, section: str, key: str, default=None):
        entry = self.sections.get(section, {}).get(key)
        return default if entry is None else entry[0]

    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def parse_config(text: str, command: str = "solve") -> RunConfig:
    """Parse and validate; raises ConfigError carrying every problem."""
    cfg = RunConfig(command, text)
    problems: list[tuple[int, str]] = []
    section_lines: dict[str, int] = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in KNOWN_SECTIONS:
                problems.append((ln, f"unknown section [{name}]"))
                current = None
                continue
            if name in cfg.sections:
                problems.append(
                    (ln, f"duplicate section [{name}] (first at line {section_lines[name]})")
                )
                current = None
                continue
            cfg.sections[name] = {}
            section_lines[name] = ln
            current = name
            continue
        if "=" not in line:
            problems.append((ln, f"expected key = value, got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if current is None:
            problems.append((ln, f"key {key!r} outside any section"))
            continue
        if key not in SECTION_KEYS[current]:
            problems.append((ln, f"unknown key {key!r} in section [{current}]"))
            continue
        if key in cfg.sections[current]:
            problems.append((ln, f"duplicate key {key!r} in section [{current}]"))
            continue
        cfg.sections[current][key] = (value, ln)
    problems.extend(_validate(cfg))
    if problems:
        problems.sort()
        raise ConfigError(problems)
    return cfg


def _real(cfg, section, key, problems, default=None, low=None, high=None,
          low_open=False, high_open=False, constraint=""):
    entry = cfg.sections.get(section, {}).get(key)
    if entry is None:
        return default
    value, ln = entry
    try:
        x = float(value)
    except ValueError:
        problems.append((ln, f"{key} must be a real number, got {value!r}"))
        return default
    bad = (
        (low is not None and (x <= low if low_open else x < low))
        or (high is not None and (x >= high if high_open else x > high))
    )
    if bad:
        problems.append((ln, f"{key} = {x} out of range{': ' + constraint if constraint else ''}"))
        return default
    return x


def _int(cfg, section, key, problems, default=None, low=None):
    entry = cfg.sections.get(section, {}).get(key)
    if entry is None:
        return default
    value, ln = entry
    try:
        x = int(value)
    except ValueError:
        problems.append((ln, f"{key} must be an integer, got {value!r}"))
        return default
    if low is not None and x < low:
        problems.append((ln, f"{key} = {x} must be >= {low}"))
        return default
    return x


def _real_list(cfg, section, key, problems, default=None):
    entry = cfg.sections.get(section, {}).get(key)
    if entry is None:
        return default
    value, ln = entry
    try:
        return [float(v) for v in value.split(",")]
    except ValueError:
        problems.append((ln, f"{key} must be a comma-separated list of reals"))
        return default


def _validate(cfg: RunConfig):
    problems: list[tuple[int, str]] = []
    cmd = cfg.command
    required = {"solve": ["kernel", "initial", "grid", "time", "experiment"],
                "converge": ["kernel", "initial", "grid", "experiment"],
                "rate": ["kernel", "initial", "grid", "experiment"],
                "visco": ["kernel", "kernel.bulk", "initial", "grid", "experiment"],
                "validate-kernel": ["kernel"]}.get(cmd, ["kernel"])
    for sec in required:
        if sec not in cfg.sections:
            problems.append((0, f"missing section [{sec}] required by {cmd}"))
    for sec in ("kernel", "kernel.bulk"):
        if sec not in cfg.sections:
            continue
        entry = cfg.sections[sec].get("family")
        if entry is None:
            problems.append((0, f"section [{sec}] needs a 'family' key"))
            continue
        family, ln = entry
        if family not in KERNEL_KEYS:
            problems.append((ln, f"unknown kernel family {family!r}"))
            continue
        for key, (_, kln) in cfg.sections[sec].items():
            if key != "family" and key not in KERNEL_KEYS[family]:
                problems.append((kln, f"key {key!r} not accepted by family {family!r}"))
        _real(cfg, sec, "a0", problems, low=0.0, constraint="a0 >= 0")
        _real(cfg, sec, "mu", problems, low=0.0, low_open=True, constraint="mu > 0")
        if family in ("powerlaw", "fractional"):
            _real(cfg, sec, "beta", problems, low=-1.0, high=1.0, low_open=True,
                  constraint="regular-variation index must lie in (-1, 1]")
    if "initial" in cfg.sections:
        entry = cfg.sections["initial"].get("type")
        if entry is not None and entry[0] not in ("gaussian", "box"):
            problems.append((entry[1], f"unknown initial data type {entry[0]!r}"))
        _real(cfg, "initial", "width", problems, low=0.0, low_open=True)
        _real(cfg, "initial", "half_width", problems, low=0.0, low_open=True)
    if "grid" in cfg.sections:
        n = _int(cfg, "grid", "dimension", problems, default=1, low=1)
        if n is not None and n > 3:
            problems.append((cfg.sections["grid"]["dimension"][1], "dimension must be 1, 2 or 3"))
        m = _int(cfg, "grid", "modes_per_axis", problems, default=64, low=2)
        if m is not None and m % 2:
            problems.append((cfg.sections["grid"]["modes_per_axis"][1],
                             "modes_per_axis must be even"))
        _real(cfg, "grid", "xi_max", problems, low=0.0, low_open=True)
    if "time" in cfg.sections:
        _real(cfg, "time", "t_end", problems, low=0.0, low_open=True)
        _int(cfg, "time", "n_steps", problems, low=1)
    if "experiment" in cfg.sections:
        _real_list(cfg, "experiment", "t_list", problems)
        _real_list(cfg, "experiment", "big_t_list", problems)
        _real(cfg, "experiment", "s", problems)
        _real(cfg, "experiment", "beta", problems, low=-1.0, high=1.0, low_open=True,
              constraint="the limit theorems require beta in (-1, 1]")
    return problems


def build_kernel(cfg: RunConfig, section: str = "kernel"):
    sec = cfg.sections[section]
    family = sec["family"][0]
    get = lambda k, d=None: float(sec[k][0]) if k in sec else d
    if family == "heat":
        return kernels.Heat(a0=get("a0", 1.0))
    if family == "wave":
        return kernels.Wave(c=get("c", 1.0), a0=get("a0", 0.0))
    if family == "powerlaw":
        return kernels.PowerLaw(beta=get("beta", 0.5), c=get("c", 1.0), a0=get("a0", 0.0))
    if family == "fractional":
        return kernels.fractional(get("beta", 0.5))
    if family == "exponential":
        return kernels.Exponential(mu=get("mu", 1.0), c=get("c", 1.0), a0=get("a0", 0.0))
    if family == "negexponential":
        return kernels.NegExponential()
    if family == "cosine":
        return kernels.Cosine()
    if family == "logmodified":
        return kernels.LogModified(m=get("m", 1.0))
    raise ConfigError([(0, f"unknown kernel family {family!r}")])


def build_initial(cfg: RunConfig):
    kind = cfg.get("initial", "type", "gaussian")
    mass = float(cfg.get("initial", "mass", "1.0"))
    if kind == "box":
        return spectral.BoxFunction(
            half_width=float(cfg.get("initial", "half_width", "1.0")), mass=mass
        )
    return spectral.Gaussian(width=float(cfg.get("initial", "width", "1.0")), mass=mass)


def build_grid(cfg: RunConfig) -> spectral.ModeGrid:
    return spectral.ModeGrid(
        n=int(cfg.get("grid", "dimension", "1")),
        modes_per_axis=int(cfg.get("grid", "modes_per_axis", "64")),
        xi_max=float(cfg.get("grid", "xi_max", "8.0")),
        radial=cfg.get("grid", "radial", "false").lower() in ("true", "1", "yes"),
    )


def build_time_grid(cfg: RunConfig) -> TimeGrid:
    return TimeGrid(
        t_end=float(cfg.get("time", "t_end", "1.0")),
        n_steps=int(cfg.get("time", "n_steps", "1000")),
    )


def _metadata_lines(cfg: RunConfig, kernel, beta_estimate=None):
    lines = [
        f"# version: {VERSION}",
        f"# config_sha256: {cfg.sha256()}",
        f"# kernel: {kernel.description}",
    ]
    if beta_estimate is not None:
        lines.append(f"# beta_estimate: {beta_estimate!r}")
    return lines


def _write_csv(path, meta_lines, header, rows):
    with open(path, "w", newline="") as fh:
        for line in meta_lines:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\r\n")


def _cmd_ml(args) -> int:
    if not 0.0 < args.alpha <= 2.0:
        print("alpha must lie in (0, 2]", file=sys.stderr)
        return 2
    if args.zmin > args.zmax or args.zmax > 0.0:
        print("need zmin <= zmax <= 0", file=sys.stderr)
        return 2
    z = np.linspace(args.zmin, args.zmax, args.n)
    vals = mittag_leffler(args.alpha, z)
    out = sys.stdout
    out.write(f"# version: {VERSION}\n# alpha: {args.alpha!r}\n")
    out.write("z,E_alpha\r\n")
    for zi, vi in zip(np.atleast_1d(z), np.atleast_1d(vals)):
        out.write(f"{float(zi)!r},{float(vi)!r}\r\n")
    return 0


def _cmd_solve(cfg: RunConfig) -> int:
    kernel = build_kernel(cfg)
    u0 = build_initial(cfg)
    grid = build_grid(cfg)
    tg = build_time_grid(cfg)
    t_list = _require_list(cfg, "t_list")
    fields = spectral.evolve(kernel, u0, grid, t_list, tg)
    rows = []
    axis = grid.axis
    for t, f in zip(t_list, fields):
        vals = np.atleast_1d(f.values)
        for idx in np.ndindex(*grid.shape):
            coords = [axis[i] for i in idx]
            v = vals[idx]
            rows.append([repr(float(t))] + [repr(float(c)) for c in coords]
                        + [repr(float(np.real(v))), repr(float(np.imag(v)))])
    header = ["t"] + [f"xi{d+1}" for d in range(1 if grid.radial else grid.n)] + ["re_u_hat", "im_u_hat"]
    path = cfg.get("experiment", "output", "solve.csv")
    _write_csv(path, _metadata_lines(cfg, kernel), header, rows)
    print(f"wrote {path}")
    return 0


def _require_list(cfg, key):
    raw = cfg.get("experiment", key)
    if raw is None:
        raise ConfigError([(0, f"experiment section needs '{key}'")])
    return [float(v) for v in raw.split(",")]


def _cmd_converge(cfg: RunConfig) -> int:
    kernel = build_kernel(cfg)
    u0 = build_initial(cfg)
    grid = build_grid(cfg)
    T_list = _require_list(cfg, "big_t_list")
    t_list = _require_list(cfg, "t_list")
    s = float(cfg.get("experiment", "s", "0.0"))
    beta = float(cfg.get("experiment", "beta", "0.0"))
    override = cfg.get("experiment", "exponent_override")
    sf = asymptotics.ScalingFunction(
        kernel=kernel,
        beta=beta,
        exponent_override=None if override is None else float(override),
    )
    report = asymptotics.converge_to_limit(kernel, u0, sf, T_list, t_list, s, grid)
    path = cfg.get("experiment", "output", "converge.csv")
    rows = [(repr(T), repr(t), repr(d), repr(r)) for T, t, d, r in report.rows]
    _write_csv(path, _metadata_lines(cfg, kernel, report.beta_estimate),
               ["T", "t", "distance_hs", "reference_norm"], rows)
    print(f"wrote {path}")
    return 0


def _cmd_rate(cfg: RunConfig) -> int:
    kernel = build_kernel(cfg)
    u0 = build_initial(cfg)
    grid = build_grid(cfg)
    t_list = _require_list(cfg, "t_list")
    s = float(cfg.get("experiment", "s", "0.0"))
    report = asymptotics.leading_order_rate(kernel, u0, t_list, s, grid)
    path = cfg.get("experiment", "output", "rate.csv")
    rows = [(repr(t), repr(r), repr(d)) for t, r, d in report.rows]
    _write_csv(path, _metadata_lines(cfg, kernel),
               ["t", "scaled_residual", "distance_hs"], rows)
    print(f"wrote {path}")
    return 0


def _cmd_visco(cfg: RunConfig) -> int:
    shear = build_kernel(cfg, "kernel")
    bulk = build_kernel(cfg, "kernel.bulk")
    pair = visco.ViscoKernelPair(shear, bulk)
    grid = build_grid(cfg)
    if grid.n != 3:
        raise ConfigError([(0, "visco experiments require dimension = 3")])
    mv = cfg.get("initial", "mass_vector", "1,0,0")
    v0 = visco.VectorGaussian(
        width=float(cfg.get("initial", "width", "1.0")),
        mass_vector=tuple(float(v) for v in mv.split(",")),
    )
    t_list = _require_list(cfg, "t_list")
    s = float(cfg.get("experiment", "s", "0.0"))
    report = visco.visco_asymptotics(pair, v0, t_list, s, grid)
    path = cfg.get("experiment", "output", "visco.csv")
    meta = _metadata_lines(cfg, shear)
    meta.append(f"# bulk_kernel: {bulk.description}")
    meta.append(f"# effective_viscosities: A={report.A!r} B={report.B!r}")
    rows = [(repr(t), repr(r), repr(d)) for t, r, d in report.rows]
    _write_csv(path, meta, ["t", "scaled_residual", "distance_hs"], rows)
    print(f"wrote {path}")
    return 0


def _cmd_validate_kernel(cfg: RunConfig) -> int:
    kernel = build_kernel(cfg)
    pd = kernels.check_positive_definite(kernel)
    try:
        est = kernels.rv_index_estimate(kernel, asymptotics.RV_GRID)
        rv = est.converged
        beta = est.beta
    except MemdiffError:
        rv = False
        beta = float("nan")
    print(f"kernel: {kernel.description}")
    print(f"positive-definite: {'yes' if pd.passed else 'no'} (min {pd.min_value:.6e})")
    print(f"regularly-varying: {'yes' if rv else 'no'}"
          + (f" (beta = {beta:.4f})" if rv else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memdiff",
        description="Spectral solvers and self-similar asymptotics for diffusion with memory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ml = sub.add_parser("ml", help="tabulate the Mittag-Leffler function")
    ml.add_argument("--alpha", type=float, required=True)
    ml.add_argument("--zmin", type=float, required=True)
    ml.add_argument("--zmax", type=float, required=True)
    ml.add_argument("--n", type=int, default=100)
    for name in ("solve", "converge", "rate", "visco", "validate-kernel"):
        p = sub.add_parser(name)
        p.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "ml":
        return _cmd_ml(args)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, args.command)
        handler = {
            "solve": _cmd_solve,
            "converge": _cmd_converge,
            "rate": _cmd_rate,
            "visco": _cmd_visco,
            "validate-kernel": _cmd_validate_kernel,
        }[args.command]
        return handler(cfg)
    except ConfigError as exc:
        for ln, msg in exc.problems:
            where = f"line {ln}: " if ln else ""
            print(f"config error: {where}{msg}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
