"""Config parsing, experiment dispatch, and CSV determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memdiff
from memdiff import asymptotics, cli, spectral, visco
from memdiff.cli import PARSERS, VERSION, build_kernel, main, parse_config
from memdiff.errors import ConfigError
from memdiff.kernels import Exponential, PowerLaw
from memdiff.specfun import mittag_leffler

MINIMAL_SOLVE = """\
[kernel]
family = heat
a0 = 1.0

[initial]
type = gaussian
width = 1.0

[grid]
dimension = 1
modes_per_axis = 16
xi_max = 4.0

[time]
t_end = 1.0
n_steps = 100

[experiment]
t_list = 0.0, 1.0
output = {out}
"""

CONVERGE = """\
[kernel]
family = exponential
mu = 1.0
c = 1.0

[initial]
type = gaussian

[grid]
dimension = 1
modes_per_axis = 32
xi_max = 6.0

[experiment]
big_t_list = 10, 100, 1000
t_list = 1.0
s = 0.0
beta = 0.0
output = {out}
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL_SOLVE.format(out="x.csv"), "solve")
    assert cfg.get("kernel", "family") == "heat"
    assert isinstance(float(cfg.get("grid", "xi_max")), float)


def test_parse_collects_all_errors_with_line_numbers():
    text = "\n".join([
        "[kernel]",            # 1
        "family = powerlaw",   # 2
        "beta = 1.7",          # 3
        "nope = 1",            # 4
        "",                    # 5
        "[kernel]",            # 6
        "[grid]",              # 7
        "modes_per_axis = 7",  # 8
    ])
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "validate-kernel")
    problems = exc.value.problems
    lines = [ln for ln, _ in problems]
    assert 3 in lines and 4 in lines and 6 in lines and 8 in lines
    msgs = {ln: msg for ln, msg in problems}
    assert "(-1, 1]" in msgs[3]  # range error names the constraint
    assert "first at line 1" in msgs[6]  # duplicate section, both line numbers


def test_parse_missing_section():
    with pytest.raises(ConfigError) as exc:
        parse_config("[kernel]\nfamily = heat\n", "solve")
    assert any("missing section" in msg for _, msg in exc.value.problems)


def test_build_kernel_families():
    cfg = parse_config("[kernel]\nfamily = exponential\nmu = 2.0\nc = 3.0\n",
                       "validate-kernel")
    k = build_kernel(cfg)
    assert isinstance(k, Exponential)
    assert k.mu == 2.0 and k.c == 3.0
    cfg = parse_config("[kernel]\nfamily = fractional\nbeta = -0.5\n",
                       "validate-kernel")
    assert isinstance(build_kernel(cfg), PowerLaw)


def test_solve_writes_initial_data_at_time_zero(tmp_path):
    out = tmp_path / "solve.csv"
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(MINIMAL_SOLVE.format(out=out))
    assert main(["solve", str(cfg_file)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header, body = rows[0], rows[1:]
    assert header.split(",")[:2] == ["t", "xi1"]
    t0 = [r.split(",") for r in body if r.split(",")[0] == "0.0"]
    # At t = 0 the field equals u0_hat = e^{-xi^2/2} at every mode.
    for row in t0:
        xi = float(row[1])
        assert abs(float(row[2]) - np.exp(-0.5 * xi**2)) < 1e-12
        assert float(row[3]) == 0.0


def test_converge_csv_distances_decreasing(tmp_path):
    out = tmp_path / "conv.csv"
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(CONVERGE.format(out=out))
    assert main(["converge", str(cfg_file)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    dists = [float(r[2]) for r in rows]
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_determinism_byte_identical(tmp_path):
    # The identical config text (including the output path) must produce
    # byte-identical CSVs across runs.
    out = tmp_path / "a.csv"
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(CONVERGE.format(out=out))
    assert main(["converge", str(cfg_file)]) == 0
    first = out.read_bytes()
    out.unlink()
    assert main(["converge", str(cfg_file)]) == 0
    assert out.read_bytes() == first


def test_refusal_exit_code_and_message(tmp_path, capsys):
    text = CONVERGE.format(out=tmp_path / "x.csv").replace(
        "family = exponential\nmu = 1.0\nc = 1.0", "family = cosine"
    )
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(text)
    code = main(["converge", str(cfg_file)])
    assert code == 3
    err = capsys.readouterr().err
    assert "refused" in err and "regularly varying" in err


def test_config_error_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text("[kernel]\nfamily = powerlaw\nbeta = 2.0\n")
    code = main(["validate-kernel", str(cfg_file)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_validate_kernel_cosine_report(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text("[kernel]\nfamily = cosine\n")
    assert main(["validate-kernel", str(cfg_file)]) == 0
    outtext = capsys.readouterr().out
    assert "positive-definite: yes (min 1.000300e-12)" in outtext
    assert "regularly-varying: no" in outtext


def test_validate_kernel_logmodified_report(tmp_path, capsys):
    # The minimum of Re a~(i w) sits at the lowest frequency, w = 1e-4.
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text("[kernel]\nfamily = logmodified\nm = 1.0\n")
    assert main(["validate-kernel", str(cfg_file)]) == 0
    outtext = capsys.readouterr().out
    assert "positive-definite: no (min -1.569461e+04)" in outtext
    assert "regularly-varying: yes" in outtext


def test_ml_table(capsys):
    assert main(["ml", "--alpha", "1.0", "--zmin", "-2", "--zmax", "0", "--n", "3"]) == 0
    out = capsys.readouterr().out
    body = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert body[0] == "z,E_alpha"
    z, val = body[1].split(",")
    assert abs(float(val) - np.exp(float(z))) < 1e-12


def test_ml_rejects_bad_args(capsys):
    assert main(["ml", "--alpha", "3.0", "--zmin", "-1", "--zmax", "0"]) == 2
    assert main(["ml", "--alpha", "1.0", "--zmin", "0", "--zmax", "-1"]) == 2


@pytest.mark.parametrize("args,message", [
    (["--zmin=-1", "--zmax=0", "--n=-1"], "n >= 1"),
    (["--zmin=nan", "--zmax=0"], "finite"),
    (["--zmin=-1", "--zmax=nan"], "finite"),
    (["--zmin=-inf", "--zmax=0"], "finite"),
])
def test_ml_rejects_bad_table_args(args, message, capsys):
    assert main(["ml", "--alpha", "0.6", *args]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "solve.csv"
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(MINIMAL_SOLVE.format(out=out))
    assert main(["solve", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err


def test_family_constraint_is_reported_at_parse_with_the_others(tmp_path, capsys):
    text = MINIMAL_SOLVE.format(out=tmp_path / "x.csv").replace(
        "family = heat\na0 = 1.0", "family = wave\nc = -1").replace(
        "xi_max = 4.0", "xi_max = -4.0")
    lines = text.splitlines()
    kernel_line = lines.index("[kernel]") + 1
    xi_line = lines.index("xi_max = -4.0") + 1
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "solve")
    msgs = dict(exc.value.problems)
    assert "c > 0" in msgs[kernel_line] and "xi_max" in msgs[xi_line]
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(text)
    assert main(["solve", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert f"line {kernel_line}: [kernel]: Wave kernel needs c > 0" in err
    assert f"line {xi_line}: bad value" in err
    assert not (tmp_path / "x.csv").exists()


def test_missing_config_file(capsys):
    assert main(["solve", "/nonexistent/path.ini"]) == 2


#: A malformed or out-of-range value for every key of the parser table.
BAD_VALUES = {
    "family": "nope", "a0": "-1", "c": "abc", "beta": "1.5", "mu": "0", "m": "x",
    "type": "disk", "width": "0", "half_width": "-2", "mass": "x",
    "mass_vector": "1,0", "dimension": "4", "modes_per_axis": "7", "xi_max": "inf",
    "radial": "maybe", "t_end": "0", "n_steps": "2.5", "t_list": "1,,2",
    "big_t_list": "-10", "s": "nan", "output": "", "exponent_override": "x",
}
#: A family that accepts each kernel key, so the value itself is the fault.
FAMILY_FOR = {"a0": "heat", "c": "wave", "beta": "powerlaw", "mu": "exponential",
              "m": "logmodified", "family": "heat"}


@pytest.mark.parametrize("section,key", sorted(PARSERS))
def test_every_bad_value_fails_at_parse_with_its_line(section, key, tmp_path, capsys):
    sections = {
        "kernel": ["family = heat"],
        "kernel.bulk": ["family = heat"],
        "initial": [],
        "grid": ["dimension = 3", "modes_per_axis = 4"],
        "time": [],
        "experiment": ["t_list = 1.0", f"output = {tmp_path / 'out.csv'}"],
    }
    if section.startswith("kernel"):
        sections[section] = [] if key == "family" else [f"family = {FAMILY_FOR[key]}"]
    sections[section] = [l for l in sections[section] if not l.startswith(key + " ")]
    sections[section].append(f"{key} = {BAD_VALUES[key]}")
    lines = []
    for name, entries in sections.items():
        lines += [f"[{name}]", *entries, ""]
    bad_line = lines.index(f"{key} = {BAD_VALUES[key]}") + 1
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text("\n".join(lines))
    assert main(["visco", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert f"line {bad_line}: bad value" in err
    assert not (tmp_path / "out.csv").exists()


def test_boolean_and_vector_values_are_typed():
    cfg = parse_config(MINIMAL_SOLVE.format(out="x.csv").replace(
        "dimension = 1", "dimension = 1\nradial = YES"), "solve")
    assert cfg.get("grid", "radial") is True
    cfg = parse_config("[kernel]\nfamily = heat\n[initial]\nmass_vector = 1, 0, 2\n",
                       "validate-kernel")
    assert cfg.get("initial", "mass_vector") == [1.0, 0.0, 2.0]


def test_missing_required_key_is_collected_with_the_others():
    text = MINIMAL_SOLVE.format(out="x.csv").replace("t_list = 0.0, 1.0\n", "")
    with pytest.raises(ConfigError) as exc:
        parse_config(text.replace("xi_max = 4.0", "xi_max = -4.0"), "solve")
    msgs = [msg for _, msg in exc.value.problems]
    assert any("t_list" in m for m in msgs) and any("xi_max" in m for m in msgs)


@pytest.mark.parametrize("edits,message", [
    # Not a node of the time grid: DomainError.
    ([("t_list = 0.0, 1.0", "t_list = 0.333")], "not a node"),
    # Far too coarse for the march of the kernel A = c t: StepSizeError.
    ([("family = heat\na0 = 1.0", "family = powerlaw\nbeta = 1.0"),
      ("t_end = 1.0\nn_steps = 100", "t_end = 50.0\nn_steps = 2"),
      ("t_list = 0.0, 1.0", "t_list = 50.0")], "refine the time grid"),
    # A box datum on a radial 2-D grid, which holds |xi| alone: DomainError.
    ([("type = gaussian\nwidth = 1.0", "type = box\nhalf_width = 0.8"),
      ("dimension = 1", "dimension = 2\nradial = true")], "takes radial data only"),
])
def test_runtime_library_error_exits_2_without_traceback(edits, message, tmp_path, capsys):
    out = tmp_path / "solve.csv"
    text = MINIMAL_SOLVE.format(out=out)
    for edit in edits:
        text = text.replace(*edit)
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(text)
    assert main(["solve", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_visco_on_a_radial_grid_exits_2_without_traceback(tmp_path, capsys):
    # The config check asks only for dimension = 3; the study refuses a
    # radial grid, since the vector datum needs a full 3-D grid.
    out = tmp_path / "visco.csv"
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text("[kernel]\nfamily = heat\n[kernel.bulk]\nfamily = heat\n[initial]\n"
                        "[grid]\ndimension = 3\nmodes_per_axis = 4\nradial = yes\n"
                        f"[experiment]\nt_list = 1.0\noutput = {out}\n")
    assert main(["visco", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "full 3-D grid" in err
    assert not out.exists()


# --- The column-wise CSV writer against the row-wise one it replaced ------


def _rowwise_write_csv(path, meta_lines, header, rows):
    """The row-wise writer that defined the CSV bytes: the oracle."""
    with open(path, "w", newline="") as fh:
        for line in meta_lines:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\r\n")


def _rowwise_solve_rows(grid, t_list, fields):
    """The per-mode, per-time row builder of ``memdiff solve``: the oracle."""
    rows = []
    axis = grid.axis
    for t, f in zip(t_list, fields):
        for idx in np.ndindex(*grid.shape):
            v = f.values[idx]
            rows.append([t, *(float(axis[i]) for i in idx), float(v.real), float(v.imag)])
    return rows


def _config(**sections):
    return "".join(f"[{name.replace('_', '.')}]\n{body}\n\n" for name, body in sections.items())


_EXPONENTIAL = "family = exponential\nmu = 1.3\nc = 0.7\na0 = 0.4"
_TIME = "t_end = 1.0\nn_steps = 40"
_NON_DYADIC_2D = "dimension = 2\nmodes_per_axis = 30\nxi_max = 4.3"
_ORACLE_CASES = {
    "solve_1d_box": ("solve", None, None, "t,xi1,re_u_hat,im_u_hat", _config(
        kernel=_EXPONENTIAL, initial="type = box\nhalf_width = 1.5\nmass = -2.0",
        grid="dimension = 1\nmodes_per_axis = 64\nxi_max = 12.0", time=_TIME,
        experiment="t_list = 0.0, 0.5, 1.0")),
    "solve_2d_gaussian": ("solve", None, None, "t,xi1,xi2,re_u_hat,im_u_hat", _config(
        kernel=_EXPONENTIAL, initial="type = gaussian\nwidth = 0.9\nmass = 1.7",
        grid="dimension = 2\nmodes_per_axis = 16\nxi_max = 8.0", time=_TIME,
        experiment="t_list = 0.25, 1.0")),
    "solve_3d_radial": ("solve", None, None, "t,xi1,re_u_hat,im_u_hat", _config(
        kernel="family = fractional\nbeta = -0.4", initial="type = gaussian",
        grid="dimension = 3\nmodes_per_axis = 32\nxi_max = 6.0\nradial = true", time=_TIME,
        experiment="t_list = 0.5, 1.0")),
    "solve_3d_full": ("solve", None, None, "t,xi1,xi2,xi3,re_u_hat,im_u_hat", _config(
        kernel=_EXPONENTIAL, initial="type = gaussian\nwidth = 0.8",
        grid="dimension = 3\nmodes_per_axis = 8\nxi_max = 5.0", time=_TIME,
        experiment="t_list = 0.5, 1.0")),
    # Times that repeat, are out of order and hold a negative zero.
    "solve_t_unsorted": ("solve", None, None, "t,xi1,xi2,xi3,re_u_hat,im_u_hat", _config(
        kernel=_EXPONENTIAL, initial="type = box\nhalf_width = 1.5",
        grid="dimension = 3\nmodes_per_axis = 4\nxi_max = 5.0", time=_TIME,
        experiment="t_list = 1.0, -0.0, 0.5, 1.0")),
    "solve_gaussian_zero_mass": ("solve", None, None, "t,xi1,xi2,re_u_hat,im_u_hat", _config(
        kernel=_EXPONENTIAL, initial="type = gaussian\nmass = 0.0",
        grid="dimension = 2\nmodes_per_axis = 16\nxi_max = 8.0", time=_TIME,
        experiment="t_list = 0.0, 1.0")),
    # u_hat = z * -0.0 is -0.0 where z > 0 and 0.0 where z < 0: the wave's
    # z changes sign, and the two zeros must not merge.
    "solve_gaussian_minus_zero_mass": ("solve", None, None, "t,xi1,re_u_hat,im_u_hat", _config(
        kernel="family = wave\nc = 1.0", initial="type = gaussian\nmass = -0.0",
        grid="dimension = 1\nmodes_per_axis = 32\nxi_max = 12.0", time=_TIME,
        experiment="t_list = 0.5, 1.0")),
    # Non-dyadic grids, where |xi|^2 and its shell's value differ in the
    # last bit at some modes.
    "solve_non_dyadic_2d_gaussian": ("solve", None, None, "t,xi1,xi2,re_u_hat,im_u_hat", _config(
        kernel=_EXPONENTIAL, initial="type = gaussian\nwidth = 1.3\nmass = -0.4",
        grid=_NON_DYADIC_2D, time=_TIME, experiment="t_list = 0.25, 1.0")),
    "solve_non_dyadic_2d_box": ("solve", None, None, "t,xi1,xi2,re_u_hat,im_u_hat", _config(
        kernel=_EXPONENTIAL, initial="type = box\nhalf_width = 0.7",
        grid=_NON_DYADIC_2D, time=_TIME, experiment="t_list = 0.25, 1.0")),
    "solve_non_dyadic_radial_2d": ("solve", None, None, "t,xi1,re_u_hat,im_u_hat", _config(
        kernel="family = fractional\nbeta = -0.4", initial="type = gaussian\nwidth = 1.3",
        grid=_NON_DYADIC_2D + "\nradial = true", time=_TIME, experiment="t_list = 0.5, 1.0")),
    "converge": ("converge", asymptotics, "converge_to_limit", "T,t,distance_hs,reference_norm",
                 _config(kernel="family = exponential\nmu = 1.0\nc = 1.0",
                         initial="type = gaussian",
                         grid="dimension = 1\nmodes_per_axis = 32\nxi_max = 6.0",
                         experiment="big_t_list = 10, 100\nt_list = 0.5, 1.0\nbeta = 0.0")),
    "rate": ("rate", asymptotics, "leading_order_rate", "t,scaled_residual,distance_hs",
             _config(kernel=_EXPONENTIAL, initial="type = gaussian",
                     grid="dimension = 2\nmodes_per_axis = 16\nxi_max = 6.0",
                     experiment="t_list = 5, 20\ns = -1.5")),
    "visco": ("visco", visco, "visco_asymptotics", "t,scaled_residual,distance_hs",
              _config(kernel=_EXPONENTIAL, kernel_bulk="family = heat\na0 = 0.5",
                      initial="width = 1.0\nmass_vector = 1, 0.5, -2",
                      grid="dimension = 3\nmodes_per_axis = 8\nxi_max = 6.0",
                      experiment="t_list = 5, 20\ns = -2")),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_csv_bytes_match_the_rowwise_oracle(case, tmp_path, monkeypatch):
    # A study's rows are the result of its library call, caught by a spy;
    # a solve's are the per-mode fields of ``spectral.evolve`` on the
    # config's kernel, datum, grid and times, which the solve itself no
    # longer calls.
    command, module, name, header, text = _ORACLE_CASES[case]
    out = tmp_path / "out.csv"
    text = text.replace("[experiment]\n", f"[experiment]\noutput = {out}\n")
    seen = {}
    if command != "solve":
        run, write = getattr(module, name), cli._write_csv

        def spy_run(*args, **kwargs):
            seen["result"] = run(*args, **kwargs)
            return seen["result"]

        def spy_write(path, meta_lines, header, columns):
            seen["meta"] = list(meta_lines)
            write(path, meta_lines, header, columns)

        monkeypatch.setattr(module, name, spy_run)
        monkeypatch.setattr(cli, "_write_csv", spy_write)
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(text)
    assert main([command, str(cfg_file)]) == 0
    if command == "solve":
        cfg = parse_config(text, "solve")
        kernel, grid = build_kernel(cfg), cli.build_grid(cfg)
        t_list = cfg.get("experiment", "t_list")
        fields = spectral.evolve(kernel, cli.build_initial(cfg), grid, t_list,
                                 cli.build_time_grid(cfg))
        rows = _rowwise_solve_rows(grid, t_list, fields)
        seen["meta"] = cli._metadata_lines(cfg, kernel)
    else:
        rows = seen["result"].rows
    oracle = tmp_path / "oracle.csv"
    _rowwise_write_csv(oracle, seen["meta"], header.split(","), rows)
    assert len(rows) > 1
    assert out.read_bytes() == oracle.read_bytes()
    if case == "solve_gaussian_minus_zero_mass":
        assert {repr(row[-2]) for row in rows} == {"0.0", "-0.0"}


@pytest.mark.parametrize("alpha,zmin,zmax,n", [
    (0.5, -1.0, 0.0, 3), (0.6, -50.0, 0.0, 2000), (1.7, -3.0, -3.0, 1), (2.0, -1e3, -0.0, 7),
])
def test_ml_table_matches_the_rowwise_oracle(alpha, zmin, zmax, n, capsys):
    z = np.linspace(zmin, zmax, n)
    expected = f"# version: {VERSION}\n# alpha: {alpha!r}\nz,E_alpha\r\n"
    for zi, vi in zip(np.atleast_1d(z), np.atleast_1d(mittag_leffler(alpha, z))):
        expected += f"{float(zi)!r},{float(vi)!r}\r\n"
    args = ["ml", f"--alpha={alpha!r}", f"--zmin={zmin!r}", f"--zmax={zmax!r}", f"--n={n}"]
    assert main(args) == 0
    assert capsys.readouterr().out == expected


def test_ml_bounds_in_scientific_notation_as_separate_arguments(capsys):
    # argparse alone takes -1e3 for an option rather than for a number.
    assert main(["ml", "--alpha", "2", "--zmin=-1e3", "--zmax=-1e-3", "--n", "7"]) == 0
    joined = capsys.readouterr().out
    assert main(["ml", "--alpha", "2", "--zmin", "-1e3", "--zmax", "-1e-3", "--n", "7"]) == 0
    assert capsys.readouterr().out == joined


def test_python_m_memdiff_runs_the_cli(capsys):
    args = ["ml", "--alpha", "0.5", "--zmin", "-1", "--zmax", "0", "--n", "3"]
    src = str(Path(memdiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "memdiff", *args], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
