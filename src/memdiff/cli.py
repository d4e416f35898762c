"""Batch front end: config-driven experiments with deterministic CSV output.

Config files are line-oriented: ``[section]`` headers with ``key = value``
entries.  Sections: [kernel], [kernel.bulk] (visco only), [initial],
[grid], [time], [experiment].  Each value is parsed once, by the typed
parser that ``PARSERS`` assigns to its (section, key), which checks its
type and range: decimal/scientific reals, integers, booleans
(true/false/1/0/yes/no), names from a fixed set, or comma-separated lists
of reals.  Each kernel section is also built once, so the constraints of
its family (such as Wave's c > 0) are reported at the section's line.
All problems are collected with their line numbers before the run is
rejected with exit code 2.

Outputs are CSV with '#'-prefixed metadata lines (version, config hash,
kernel, beta estimate) before the header row; identical configs produce
byte-identical files.  Every float is written as its shortest
round-trip repr.  The studies and ``ml`` hand one column per header entry
to one writer (``asymptotics._write_csv``, or ``_write_table`` for the
``ml`` table on stdout).  ``solve`` writes its rows one output time at a
time (``_write_solve_csv``): u_hat is formed on cells, the |xi|^2 shells for
a radial datum (``spectral._evolved_cells``), each cell's value is
formatted once per time, and the xi text is formed once per run.
Refusals (violated hypotheses) exit 3 with the reason on stderr.  Any
other library error raised by the run, such as a time that is not a node
of the time grid or a time grid too coarse for the march of a kernel that
is not solved exactly (the FFT division), and an output file that cannot
be written, exit 2 with ``error: <message>`` on stderr.
``python -m memdiff`` runs ``main``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys

import numpy as np

from . import __version__ as VERSION
from . import asymptotics, kernels, spectral, visco
from .asymptotics import _CSV_CHUNK, _column_words, _write_csv, _write_table
from .errors import ConfigError, HypothesisViolation, MemdiffError
from .specfun import mittag_leffler
from .volterra import TimeGrid

#: Kernel family -> (constructor, accepted keys).  A key left out takes
#: the constructor's default.
KERNEL_FAMILIES = {
    "heat": (kernels.Heat, {"a0"}),
    "wave": (kernels.Wave, {"c", "a0"}),
    "powerlaw": (kernels.PowerLaw, {"beta", "c", "a0"}),
    "fractional": (lambda beta=0.5: kernels.fractional(beta), {"beta"}),
    "exponential": (kernels.Exponential, {"mu", "c", "a0"}),
    "negexponential": (kernels.NegExponential, set()),
    "cosine": (kernels.Cosine, set()),
    "logmodified": (kernels.LogModified, {"m"}),
}


def _number(kind, ok=None, constraint=""):
    """Parser of one int or finite real; ``ok`` is the range ``constraint`` states."""

    def parse(value):
        try:
            x = kind(value)
        except ValueError:
            raise ValueError("not an integer" if kind is int else "not a real number") from None
        if not math.isfinite(x):
            raise ValueError("not a finite real number")
        if ok is not None and not ok(x):
            raise ValueError(f"out of range: {constraint}")
        return x

    return parse


def _real_list(ok=None, constraint="", length=None):
    """Parser of a comma-separated list of reals, each checked by ``ok``."""
    item = _number(float, ok, constraint)

    def parse(value):
        values = [item(v.strip()) for v in value.split(",")]
        if length is not None and len(values) != length:
            raise ValueError(f"needs {length} comma-separated reals, got {len(values)}")
        return values

    return parse


def _choice(*names):
    def parse(value):
        if value not in names:
            raise ValueError(f"not one of {', '.join(names)}")
        return value

    return parse


def _boolean(value):
    flag = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
    try:
        return flag[value.lower()]
    except KeyError:
        raise ValueError("not a boolean (true/false/1/0/yes/no)") from None


def _nonempty(value):
    if not value:
        raise ValueError("empty")
    return value


_REAL = _number(float)
_POSITIVE = _number(float, lambda x: x > 0, "must be > 0")
_KERNEL_PARSERS = {
    "family": _choice(*KERNEL_FAMILIES),
    "a0": _number(float, lambda x: x >= 0, "a0 >= 0"),
    "c": _REAL,
    "beta": _number(float, lambda x: -1 < x <= 1, "regular-variation index must lie in (-1, 1]"),
    "mu": _POSITIVE,
    "m": _REAL,
}

#: (section, key) -> parser from the raw string to the typed value; a
#: parser raises ValueError naming what is wrong with the value.
PARSERS = {
    **{(sec, key): parse for sec in ("kernel", "kernel.bulk")
       for key, parse in _KERNEL_PARSERS.items()},
    ("initial", "type"): _choice("gaussian", "box"),
    ("initial", "width"): _POSITIVE,
    ("initial", "half_width"): _POSITIVE,
    ("initial", "mass"): _REAL,
    ("initial", "mass_vector"): _real_list(length=3),
    ("grid", "dimension"): _number(int, lambda x: x in (1, 2, 3), "dimension must be 1, 2 or 3"),
    ("grid", "modes_per_axis"): _number(int, lambda x: x >= 2 and x % 2 == 0,
                                        "modes_per_axis must be even and >= 2"),
    ("grid", "xi_max"): _POSITIVE,
    ("grid", "radial"): _boolean,
    ("time", "t_end"): _POSITIVE,
    ("time", "n_steps"): _number(int, lambda x: x >= 1, "n_steps must be >= 1"),
    ("experiment", "t_list"): _real_list(lambda x: x >= 0, "times must be >= 0"),
    ("experiment", "big_t_list"): _real_list(lambda x: x > 0, "times must be > 0"),
    ("experiment", "s"): _REAL,
    ("experiment", "beta"): _number(float, lambda x: -1 < x <= 1,
                                    "the limit theorems require beta in (-1, 1]"),
    ("experiment", "output"): _nonempty,
    ("experiment", "exponent_override"): _REAL,
}

KNOWN_SECTIONS = {sec for sec, _ in PARSERS}

#: Command -> (required sections, required [experiment] keys).
REQUIRED = {
    "solve": (["kernel", "initial", "grid", "time", "experiment"], ["t_list"]),
    "converge": (["kernel", "initial", "grid", "experiment"], ["big_t_list", "t_list"]),
    "rate": (["kernel", "initial", "grid", "experiment"], ["t_list"]),
    "visco": (["kernel", "kernel.bulk", "initial", "grid", "experiment"], ["t_list"]),
    "validate-kernel": (["kernel"], []),
}


class RunConfig:
    """Parsed configuration: raw text, typed sections, and the command.

    ``sections[section][key]`` is (typed value, line number); the value is
    None when it failed to parse, and then the config is never returned.
    """

    def __init__(self, command: str, text: str):
        self.command = command
        self.text = text
        self.sections: dict[str, dict[str, tuple[object, int]]] = {}

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
        parse = PARSERS.get((current, key))
        if parse is None:
            problems.append((ln, f"unknown key {key!r} in section [{current}]"))
            continue
        if key in cfg.sections[current]:
            problems.append((ln, f"duplicate key {key!r} in section [{current}]"))
            continue
        try:
            typed = parse(value)
        except ValueError as exc:
            problems.append((ln, f"bad value {value!r} for {key}: {exc}"))
            typed = None
        cfg.sections[current][key] = (typed, ln)
    problems.extend(_validate(cfg, section_lines))
    if problems:
        problems.sort()
        raise ConfigError(problems)
    return cfg


def _validate(cfg: RunConfig, section_lines: dict[str, int]):
    """Problems that involve more than one value: required sections and
    keys, the keys each kernel family accepts and the constraints its
    constructor checks (reported at the section's line), and visco's 3-D
    grid."""
    problems: list[tuple[int, str]] = []
    cmd = cfg.command
    sections, keys = REQUIRED.get(cmd, (["kernel"], []))
    for sec in sections:
        if sec not in cfg.sections:
            problems.append((0, f"missing section [{sec}] required by {cmd}"))
    for key in keys:
        if "experiment" in cfg.sections and key not in cfg.sections["experiment"]:
            problems.append((0, f"experiment section needs '{key}'"))
    for sec in ("kernel", "kernel.bulk"):
        entries = cfg.sections.get(sec)
        if entries is None:
            continue
        if "family" not in entries:
            problems.append((0, f"section [{sec}] needs a 'family' key"))
            continue
        family = entries["family"][0]
        if family is None:
            continue
        rejected = [(kln, f"key {key!r} not accepted by family {family!r}")
                    for key, (_, kln) in entries.items()
                    if key != "family" and key not in KERNEL_FAMILIES[family][1]]
        problems += rejected
        if rejected or any(value is None for value, _ in entries.values()):
            continue
        try:
            build_kernel(cfg, sec)
        except MemdiffError as exc:
            problems.append((section_lines[sec], f"[{sec}]: {exc}"))
    if cmd == "visco" and "grid" in cfg.sections:
        value, ln = cfg.sections["grid"].get("dimension", (1, 0))
        if value not in (3, None):
            problems.append((ln, "visco experiments require dimension = 3"))
    return problems


def build_kernel(cfg: RunConfig, section: str = "kernel"):
    params = {key: value for key, (value, _) in cfg.sections[section].items()}
    make, _ = KERNEL_FAMILIES[params.pop("family")]
    return make(**params)


def build_initial(cfg: RunConfig):
    mass = cfg.get("initial", "mass", 1.0)
    if cfg.get("initial", "type", "gaussian") == "box":
        return spectral.BoxFunction(half_width=cfg.get("initial", "half_width", 1.0), mass=mass)
    return spectral.Gaussian(width=cfg.get("initial", "width", 1.0), mass=mass)


def build_grid(cfg: RunConfig) -> spectral.ModeGrid:
    return spectral.ModeGrid(
        n=cfg.get("grid", "dimension", 1),
        modes_per_axis=cfg.get("grid", "modes_per_axis", 64),
        xi_max=cfg.get("grid", "xi_max", 8.0),
        radial=cfg.get("grid", "radial", False),
    )


def build_time_grid(cfg: RunConfig) -> TimeGrid:
    return TimeGrid(
        t_end=cfg.get("time", "t_end", 1.0),
        n_steps=cfg.get("time", "n_steps", 1000),
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


def _write_output(cfg: RunConfig, write, *args) -> int:
    """Write the command's CSV to [experiment] output (default
    <command>.csv) by ``write(path, *args)``."""
    path = cfg.get("experiment", "output", f"{cfg.command}.csv")
    try:
        write(path, *args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


def _cmd_ml(args) -> int:
    if not 0.0 < args.alpha <= 2.0:
        print("alpha must lie in (0, 2]", file=sys.stderr)
        return 2
    if not (math.isfinite(args.zmin) and args.zmin <= args.zmax <= 0.0):
        print("need finite zmin <= zmax <= 0", file=sys.stderr)
        return 2
    if args.n < 1:
        print("need n >= 1", file=sys.stderr)
        return 2
    z = np.linspace(args.zmin, args.zmax, args.n)
    _write_table(sys.stdout, [f"# version: {VERSION}", f"# alpha: {args.alpha!r}"],
                 ["z", "E_alpha"], [z, mittag_leffler(args.alpha, z)])
    return 0


def _write_solve_csv(path, meta_lines, grid: spectral.ModeGrid, t_list, cells, values):
    """Write a solve's CSV as ``_write_csv`` would, one row per time and
    mode, modes in C order within each time, from the ``cells`` and
    ``values`` of ``spectral._evolved_cells``.

    The rows of one time are a table of text cells, one row per mode: the
    t cell, the xi cells (from the axis words, formed once per run) and the
    u_hat cell, each with its separator.  Per time only the t cell and the
    u_hat cell change; the latter is the word of its cell's value followed
    by the imaginary part, 0.0, since the solve's values are real.  The
    table is written ``_CSV_CHUNK`` rows at a time.
    """
    index = np.indices(grid.shape).reshape(len(grid.shape), -1)
    axis_words = np.array([repr(x) + "," for x in grid.axis.tolist()], dtype=object)
    table = np.empty((index.shape[1], len(index) + 2), dtype=object)
    table[:, 1:-1] = axis_words[index.T]
    cells = cells.ravel()
    header = ["t"] + [f"xi{d+1}" for d in range(len(index))] + ["re_u_hat", "im_u_hat"]
    with open(path, "w", newline="") as fh:
        _write_table(fh, meta_lines, header, [])
        for t, v in zip(t_list, values):
            words, codes = _column_words(v)
            table[:, 0] = repr(float(t)) + ","
            table[:, -1] = np.array([w + ",0.0\r\n" for w in words], dtype=object)[codes[cells]]
            for start in range(0, len(table), _CSV_CHUNK):
                fh.write("".join(table[start:start + _CSV_CHUNK].ravel().tolist()))


def _cmd_solve(cfg: RunConfig) -> int:
    kernel = build_kernel(cfg)
    grid = build_grid(cfg)
    t_list = cfg.get("experiment", "t_list")
    cells, values = spectral._evolved_cells(kernel, build_initial(cfg), grid, t_list,
                                            build_time_grid(cfg))
    return _write_output(cfg, _write_solve_csv, _metadata_lines(cfg, kernel), grid, t_list,
                         cells, values)


def _cmd_converge(cfg: RunConfig) -> int:
    kernel = build_kernel(cfg)
    sf = asymptotics.ScalingFunction(
        kernel=kernel,
        beta=cfg.get("experiment", "beta", 0.0),
        exponent_override=cfg.get("experiment", "exponent_override"),
    )
    report = asymptotics.converge_to_limit(
        kernel, build_initial(cfg), sf, cfg.get("experiment", "big_t_list"),
        cfg.get("experiment", "t_list"), cfg.get("experiment", "s", 0.0), build_grid(cfg),
    )
    return _write_output(cfg, _write_csv, _metadata_lines(cfg, kernel, report.beta_estimate),
                         asymptotics.CONVERGENCE_HEADER, zip(*report.rows))


def _cmd_rate(cfg: RunConfig) -> int:
    kernel = build_kernel(cfg)
    report = asymptotics.leading_order_rate(
        kernel, build_initial(cfg), cfg.get("experiment", "t_list"),
        cfg.get("experiment", "s", 0.0), build_grid(cfg),
    )
    return _write_output(cfg, _write_csv, _metadata_lines(cfg, kernel),
                         ["t", "scaled_residual", "distance_hs"], zip(*report.rows))


def _cmd_visco(cfg: RunConfig) -> int:
    shear = build_kernel(cfg, "kernel")
    bulk = build_kernel(cfg, "kernel.bulk")
    v0 = visco.VectorGaussian(
        width=cfg.get("initial", "width", 1.0),
        mass_vector=tuple(cfg.get("initial", "mass_vector", (1.0, 0.0, 0.0))),
    )
    report = visco.visco_asymptotics(
        visco.ViscoKernelPair(shear, bulk), v0, cfg.get("experiment", "t_list"),
        cfg.get("experiment", "s", 0.0), build_grid(cfg),
    )
    meta = _metadata_lines(cfg, shear)
    meta.append(f"# bulk_kernel: {bulk.description}")
    meta.append(f"# effective_viscosities: A={report.A!r} B={report.B!r}")
    return _write_output(cfg, _write_csv, meta, ["t", "scaled_residual", "distance_hs"],
                         zip(*report.rows))


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: building it costs
    about 50 times what parsing does, and importing should not pay it."""
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
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a bound such as -1e3 for an option: join each bound to its flag.
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--zmin", "--zmax"):
            argv[i : i + 2] = ["=".join(argv[i : i + 2])]
    args = _parser().parse_args(argv)
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
    except MemdiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
