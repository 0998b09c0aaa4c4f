"""The scripts in scripts/: the experiments run to completion on small inputs,
and the artifact comparison passes identical outputs and fails perturbed ones
(in process, through its main, but for one run as a script)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plateflow.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def _load(script):
    spec = importlib.util.spec_from_file_location(Path(script).stem, ROOT / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_artifacts = _load("compare_artifacts.py")
battery_sweep = _load("battery_sweep.py")


def _compare(tmp_path, capsys):
    """compare_artifacts.py's main on tmp_path/a and tmp_path/b, in process:
    its exit status and what it printed."""
    code = compare_artifacts.main([str(tmp_path / "a"), str(tmp_path / "b")])
    return code, capsys.readouterr().out


# the start of a line each script must print
PRINTED = {"convergence_study.py": ("\ncontinuum mu0 = 52.344691 (Bjorstad and Tjostheim 1999), "
                                    "richardson - continuum = ",),
           "battery_sweep.py": ("12x12: 12x12 on 1 x 1, m = 12, n = 8: 10 of 10 pass",
                                "16x16-m5-n3: 16x16 on 1 x 1, m = 5, n = 3: 10 of 10 pass")}


@pytest.mark.parametrize("script, args", [
    ("decay_rate_study.py", ("--ensemble", "1", "--out", "decay")),
    ("attractor_demo.py", ("--T", "2")),
    ("convergence_study.py", ("--max-n", "64")),
    ("battery_sweep.py", ("12x12", "16x16-m5-n3")),
])
def test_script_exits_cleanly(script, args, tmp_path):
    proc = _run(script, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for line in PRINTED.get(script, ()):
        assert line in proc.stdout, line


def test_battery_sweep_over_seeds_names_the_failing_seeds(tmp_path, capsys):
    # probe seed 3 fails criterion 3 alone; its summary is verify-all's, byte for
    # byte.  Both run in process, through the script's main and the CLI's
    code = battery_sweep.main(["--seeds", "3:4", "--out", str(tmp_path / "out_sweep")])
    out, err = capsys.readouterr()
    assert code == 0, out + err
    assert out.startswith("seed 3: 9 of 10 pass")
    assert out.endswith("\nfailing seeds: {3}\n")
    assert cli_main(["verify-all", "--seed", "3", "--out", str(tmp_path / "cli")]) == 1
    assert ((tmp_path / "out_sweep" / "seed3" / "verify_all.json").read_bytes()
            == (tmp_path / "cli" / "verify_all.json").read_bytes())


def _write_artifacts(root, energy, rows):
    (root / "run").mkdir(parents=True)
    (root / "run" / "summary.json").write_text(
        json.dumps({"energy": energy, "ok": True, "table": [1.0, 2.0]}))
    (root / "run" / "trajectory.csv").write_text(
        "t,E0\n" + "".join(f"{t},{e}\n" for t, e in rows))
    # the mode cache is not an artifact: a difference there is ignored
    (root / "run" / "modes_cache").mkdir()
    (root / "run" / "modes_cache" / "x.json").write_text(json.dumps({"energy": energy * 2}))


@pytest.mark.parametrize("energy, rows, code", [
    (0.5, [(0.0, 0.5), (0.1, 0.25)], 0),                  # identical
    (0.5 * (1 + 1e-9), [(0.0, 0.5), (0.1, 0.25)], 0),     # within 1e-6 relative
    (0.5, [(0.0, 0.5), (0.1, 0.25 + 1e-13)], 0),          # within 1e-12 absolute
    (0.5 * (1 + 1e-5), [(0.0, 0.5), (0.1, 0.25)], 1),     # JSON number off by 1e-5
    (0.5, [(0.0, 0.5), (0.1, 0.2501)], 1),                # CSV number off
    (0.5, [(0.0, 0.5)], 1),                               # CSV row missing
])
def test_compare_artifacts(tmp_path, capsys, energy, rows, code):
    _write_artifacts(tmp_path / "a", 0.5, [(0.0, 0.5), (0.1, 0.25)])
    _write_artifacts(tmp_path / "b", energy, rows)
    returncode, out = _compare(tmp_path, capsys)
    assert returncode == code, out


@pytest.mark.parametrize("key, a, b, code", [
    ("gradient_errors", 2e-11, 4e-11, 0),      # finite-difference noise, both under the bound
    ("gradient_errors", 2e-11, 2e-4, 1),       # one side over the bound
    ("lipschitz", 2e-11, 4e-11, 1),            # other keys compare the numbers
])
def test_compare_artifacts_judges_gradient_errors_by_their_bound(tmp_path, capsys, key, a, b,
                                                                code):
    for side, x in (("a", a), ("b", b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "forces_verify.json").write_text(
            json.dumps({key: {"von_karman": x}, "pass": True}))
    returncode, out = _compare(tmp_path, capsys)
    assert returncode == code, out


def test_compare_artifacts_rejects_key_and_file_mismatches(tmp_path, capsys):
    _write_artifacts(tmp_path / "a", 0.5, [(0.0, 0.5)])
    _write_artifacts(tmp_path / "b", 0.5, [(0.0, 0.5)])
    (tmp_path / "b" / "run" / "summary.json").write_text(json.dumps({"energy": 0.5}))
    returncode, out = _compare(tmp_path, capsys)
    assert returncode == 1 and "keys differ" in out
    (tmp_path / "b" / "run" / "summary.json").unlink()
    # run as a script: the exit status through __main__
    proc = _run("compare_artifacts.py", str(tmp_path / "a"), str(tmp_path / "b"), cwd=tmp_path)
    assert proc.returncode == 1 and "only in" in proc.stdout
