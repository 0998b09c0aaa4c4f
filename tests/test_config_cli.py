import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from plateflow import modal
from plateflow.cli import _dumps, main, write_csv, write_json
from plateflow.config import _SECTIONS, ConfigError, parse_config
from plateflow.mesh import VelocityField
from plateflow.spectrum import semigroup_consistency
from plateflow.verification import estar_monotone


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_defaults_applied_on_minimal_config(tmp_path):
    path = _write(tmp_path, "[geometry]\nn_x = 16\nn_z = 16\n")
    cfg = parse_config(path)
    assert cfg.modes.m == 12 and cfg.modes.n == 8
    assert cfg.physics.nu == 1.0
    assert cfg.integration.dt == 1e-3


def test_negative_viscosity_names_field(tmp_path):
    path = _write(tmp_path, "[physics]\nnu = -2.0\n")
    with pytest.raises(ConfigError, match="physics.nu must be positive"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "[physics]\nviscoty = 1.0\n")
    with pytest.raises(ConfigError, match="viscoty"):
        parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, "[physic]\nnu = 1.0\n")
    with pytest.raises(ConfigError, match="physic"):
        parse_config(path)


def test_type_errors_are_reported(tmp_path):
    path = _write(tmp_path, "[modes]\nm = twelve\n")
    with pytest.raises(ConfigError, match="modes.m"):
        parse_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "nope.ini"))


def test_case_sensitive_keys(tmp_path):
    path = _write(tmp_path, "[integration]\nT = 3.5\n")
    assert parse_config(path).integration.T == 3.5


# -- serialization ----------------------------------------------------------

def test_json_dumper_is_deterministic_and_parseable():
    obj = {"b": 1.0 / 3.0, "a": [1, True, None, "x"], "c": {"z": 2}}
    s1, s2 = _dumps(obj), _dumps(obj)
    assert s1 == s2
    back = json.loads(s1)
    assert back["a"] == [1, True, None, "x"]
    assert abs(back["b"] - 1.0 / 3.0) < 1e-16
    # 17 significant digits survive a float round trip
    assert float("%.17g" % (1.0 / 3.0)) == 1.0 / 3.0
    # numpy scalars and arrays, tuples and nan, byte for byte
    obj = {"f": np.float64(0.1), "i": np.int64(-3), "t": np.bool_(True), "d0": np.array(2.5),
           "d1": np.array([1.0, 0.5]), "tup": (1, np.float64(0.25)), "nan": float("nan")}
    assert _dumps(obj) == ('{"d0":2.5,"d1":[1,0.5],"f":0.10000000000000001,"i":-3,'
                           '"nan":NaN,"t":true,"tup":[1,0.25]}')
    # non-finite floats are spelled as json.loads reads them
    back = json.loads(_dumps({"nan": float("nan"), "inf": np.inf, "ninf": [-np.inf]}))
    assert np.isnan(back["nan"]) and back["inf"] == np.inf and back["ninf"] == [-np.inf]


def test_csv_writer_format(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv(path, ("a", "b"), [(1, 0.5), (2, 1.0 / 3.0)])
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").split("\n")
    assert lines[0] == "a,b"
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0
    # numpy scalars, 0-d arrays and nan as cells, a tuple and a 1-d array as rows
    rows = [(np.int64(2), np.float64(1.0 / 3.0), np.bool_(False)), np.array([0.25, np.nan, 3.0]),
            (np.array(2.5), np.array(7), "s")]
    write_csv(path, ("a", "b", "c"), rows)
    assert open(path, "rb").read() == b"a,b,c\n2,0.33333333333333331,false\n0.25,nan,3\n2.5,7,s\n"


def test_csv_row_of_floats_matches_cells(tmp_path, monkeypatch):
    # a row of Python floats is written by one % against the line format, the
    # same values as numpy scalars cell by cell: the bytes agree
    vals = (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1.0 / 3.0)
    rows = [vals, vals[::-1]]
    path = str(tmp_path / "cells.csv")
    write_csv(path, tuple("abcdef"), [tuple(map(np.float64, r)) for r in rows])
    cells = open(path, "rb").read()
    assert cells.split(b"\n")[1] == b"nan,inf,-inf,-0,4.9406564584124654e-324,0.33333333333333331"
    # the cell path is not taken for Python floats
    monkeypatch.setattr("plateflow.cli._fmt", None)
    write_csv(path, tuple("abcdef"), rows)
    assert open(path, "rb").read() == cells


def test_attract_and_spectrum_write_rows_of_python_floats(tmp_path, monkeypatch):
    # so both tables take write_csv's whole-row path
    seen = {}

    def record(path, header, rows):
        seen[os.path.basename(path)] = rows = list(rows)
        write_csv(path, header, rows)
    monkeypatch.setattr("plateflow.cli.write_csv", record)
    out = str(tmp_path / "out")
    assert main(["attract", "--config", _write(tmp_path, "[integration]\nT = 0.1\n"),
                 "--out", out]) == 1
    assert main(["spectrum", "--out", out]) == 0
    assert sorted(seen) == ["attract.csv", "spectrum.csv"]
    assert len(seen["attract.csv"]) == 11 and len(seen["spectrum.csv"]) == 12 + 2 * 8
    assert all(type(x) is float for rows in seen.values() for row in rows for x in row)


# -- CLI --------------------------------------------------------------------

def test_cli_bad_config_exits_2(tmp_path):
    path = _write(tmp_path, "[physics]\nnu = -1\n")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key, kind", [("gf_kind", "constant"), ("gpl_kind", "uniform")])
def test_a_forcing_kind_that_loads_nothing_exits_2(tmp_path, capsys, key, kind):
    # a uniform body force is a discrete gradient and the plate modes have zero
    # mean, so these kinds would load the reduced model with rounding alone
    path = _write(tmp_path, f"[physics]\n{key} = {kind}\n")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"error: physics.{key} must be one of" in capsys.readouterr().err


def test_cli_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_modes_and_assemble(tmp_path):
    out = str(tmp_path / "out")
    assert main(["modes", "--out", out]) == 0
    assert main(["assemble", "--out", out]) == 0
    mods = json.load(open(os.path.join(out, "modes.json")))
    assert mods["m"] == 12 and mods["n"] == 8
    asm = json.load(open(os.path.join(out, "assemble.json")))
    assert asm["mass_min_eigenvalue"] > 0
    lines = open(os.path.join(out, "modes.csv")).read().splitlines()
    assert lines[0] == "kind,index,eigenvalue,residual"
    assert len(lines) == 1 + 12 + 8


def test_cli_simulate_deterministic(tmp_path):
    cfgp = _write(tmp_path, "[integration]\nT = 0.1\n")
    o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfgp, "--out", o1, "--seed", "5"]) == 0
    assert main(["simulate", "--config", cfgp, "--out", o2, "--seed", "5"]) == 0
    for name in ("trajectory.csv", "simulate.json"):
        b1 = open(os.path.join(o1, name), "rb").read()
        b2 = open(os.path.join(o2, name), "rb").read()
        assert b1 == b2
    header = open(os.path.join(o1, "trajectory.csv")).readline().strip()
    assert header == ("t,E0,E,Estar,dissipation_integral,balance_residual,"
                      "norm_alpha,norm_beta,norm_betadot,mean_u")


def test_cli_simulate_zero_horizon(tmp_path):
    cfgp = _write(tmp_path, "[integration]\nT = 0\n")
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfgp, "--out", out]) == 0
    lines = open(os.path.join(out, "trajectory.csv")).read().splitlines()
    assert len(lines) == 2


def test_cli_spectrum_uses_cache_transparently(tmp_path):
    out = str(tmp_path / "out")
    assert main(["spectrum", "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "spectrum.json")))
    assert summary["stable"] and summary["contractive"]
    lines = open(os.path.join(out, "spectrum.csv")).read().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 1 + 12 + 2 * 8
    assert os.path.isdir(os.path.join(out, "modes_cache"))


def test_cli_spectrum_steps_the_whole_number_of_dt_nearest_t_1(tmp_path, monkeypatch):
    # 1.0 is not a whole number of steps 3e-3: the semigroup check runs 333 of
    # them, where simulate runs the config's T = 3.0
    seen = []

    def record(sys, tr):
        seen.append(tr.t)
        return semigroup_consistency(sys, tr)
    monkeypatch.setattr("plateflow.cli.semigroup_consistency", record)
    cfgp = _write(tmp_path, "[integration]\ndt = 3e-3\nT = 3.0\n")
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfgp, "--out", out]) == 0
    assert main(["spectrum", "--config", cfgp, "--out", out]) == 0
    (t,) = seen
    assert round(t[-1] / 3e-3) == 333 and t[1] == 16 * 3e-3
    assert json.load(open(os.path.join(out, "spectrum.json")))["contractive"] is True


def test_write_json_trailing_newline(tmp_path):
    path = str(tmp_path / "x.json")
    write_json(path, {"x": 1})
    assert open(path, "rb").read() == b'{"x":1}\n'


_FLOAT_FIELDS = [(section, f.name) for section, cls in _SECTIONS.items() for f in fields(cls)
                 if isinstance(getattr(cls(), f.name), float)]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("section, key", _FLOAT_FIELDS)
def test_non_finite_float_is_rejected_by_name(tmp_path, capsys, section, key, value):
    path = _write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{section}.{key} must be finite, got '{value}'"):
        parse_config(path)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {section}.{key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "flag"])
def test_negative_seed_is_rejected_by_name(tmp_path, capsys, source):
    # from the config file or from the --seed override, which is applied
    # after the file is validated
    if source == "config":
        args = ["--config", _write(tmp_path, "[probes]\nseed = -1\n")]
    else:
        args = ["--seed", "-1"]
    assert main(["spectrum", "--out", str(tmp_path / "out"), *args]) == 2
    assert "error: probes.seed must be nonnegative" in capsys.readouterr().err


def _trajectory(out):
    lines = open(os.path.join(out, "trajectory.csv")).read().splitlines()
    header = lines[0].split(",")
    return {k: np.array([float(r.split(",")[i]) for r in lines[1:]]) for i, k in enumerate(header)}


def test_cli_simulate_estar_column_is_the_lyapunov_functional(tmp_path):
    # under the loads, Estar is the energy measured from the stationary state:
    # it moves off E and does not increase
    cfgp = _write(tmp_path, "[integration]\nT = 1.0\n[physics]\nforce = berger\n"
                            "force_kappa = 5.0\ngf_kind = shear\ngf_amp = 2.0\n"
                            "gpl_kind = sine\ngpl_amp = 0.5\n")
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfgp, "--out", out]) == 0
    tr = _trajectory(out)
    assert np.max(np.abs(tr["Estar"] - tr["E"])) > 1e-5
    assert estar_monotone(tr["Estar"])


def test_cli_simulate_zero_amplitude_forcing_is_unforced(tmp_path):
    # a forcing kind at zero amplitude assembles no load: the run is the
    # unforced one, decay fit included
    runs = {"none": "", "zero": "[physics]\ngf_kind = shear\ngf_amp = 0.0\n"}
    for name, extra in runs.items():
        cfgp = _write(tmp_path, "[integration]\nT = 0.1\n" + extra, f"{name}.ini")
        assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / name)]) == 0
    for name in ("trajectory.csv", "simulate.json"):
        assert open(tmp_path / "none" / name, "rb").read() == \
            open(tmp_path / "zero" / name, "rb").read()
    assert "decay_rate" in json.load(open(tmp_path / "zero" / "simulate.json"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text, message", [
    ("simulate", "[modes]\nm = 500\n", "requested 500 flow modes"),
    ("simulate", "[modes]\nn = 50\n", "requested 50 plate modes"),
    ("simulate", "[physics]\nforce = berger\nforce_kappa = 0\n",
     "berger coefficient kappa must be positive"),
    ("simulate", "[physics]\nforce = kirchhoff\nforce_kappa = -1\n",
     "kirchhoff coefficient kappa must be nonnegative"),
    ("verify-all", "[modes]\nm = 500\n", "requested 500 flow modes"),
    ("verify-all", "[modes]\nn = 50\n", "requested 50 plate modes"),
    ("simulate", "[physics]\nforce = berger\nforce_kappa = 1e6\n[integration]\ndt = 0.1\n",
     "force fixed point"),
    ("simulate", "[integration]\nT = 1.0\ndt = 0.3\n",
     "final time 1.0 is not a whole number of time steps 0.3"),
    ("attract", "[physics]\nforce = berger\nforce_kappa = 1e-9\nforce_gamma = 1e6\n"
                "[integration]\nT = 0\n", "stationary descent stagnated"),
], ids=["simulate-m", "simulate-n", "simulate-berger", "simulate-kirchhoff", "verify-all-m",
        "verify-all-n", "simulate-fixed-point", "simulate-horizon", "attract-stationary"])
def test_values_the_models_reject_exit_2(tmp_path, capsys, command, text, message):
    # the constructors' own message, as a config error, with no warning before it
    path = _write(tmp_path, text)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["assemble", "simulate"])
def test_a_degenerate_cached_basis_exits_2(tmp_path, capsys, basis, eigen, command):
    # a well-shaped cache of the default grid whose flow stack holds mode 0
    # twice loads, and assembling it reports the singular kinetic mass
    u, w = basis.psi.u.copy(), basis.psi.w.copy()
    u[1], w[1] = u[0], w[0]
    out = tmp_path / "out"
    (out / "modes_cache").mkdir(parents=True)
    g = basis.grid
    modal._save_basis(str(out / "modes_cache" / f"modes_{g.grid_key()}_m12_n8.npz"),
                      (replace(basis, psi=VelocityField(g, u, w)), eigen))
    assert main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: kinetic mass matrix is not positive definite")


def test_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "file"
    out.write_text("")
    assert main(["modes", "--out", str(out)]) == 2
    assert f"error: cannot make output directory {out}: File exists" in capsys.readouterr().err
