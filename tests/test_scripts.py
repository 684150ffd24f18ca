"""Smoke runs of the experiment scripts on tiny configurations."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, args, code=0):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert stop.value.code == code


def test_noise_sweep(monkeypatch, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run_script(monkeypatch, "noise_sweep.py",
               ["--sigmas", "0", "1e-3", "--trials", "3", "--count", "20", "--out", str(out)])
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == "sigma,rho_err_median,rho_err_p90,azimuth_err_median,azimuth_err_p90,failures"
    assert len(rows) == 2
    noiseless = [float(cell) for cell in rows[0].split(",")]
    assert noiseless[0] == 0.0 and noiseless[-1] == 0.0
    assert noiseless[3] < 1e-6  # median azimuth error without noise
    assert "failed=0/3" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (["--rho", "0.5"], "rho must be at least 0.75"),
    (["--count", "0"], "count must be positive, got 0"),
    (["--sigmas", "-1"], "sigma must be nonnegative, got -1.0"),
    (["--trials", "0"], "--trials must be at least 1, got 0"),
    (["--seed", "-1"], "seed must be nonnegative, got -1"),
    (["--rho", "1.5e308"], "--rho 1.5e+308 is too large: the default scene box, which scales "
                           "with range, overflows"),
    # numpy refuses 10^15 rows before it maps any memory
    (["--count", "1000000000000000"], "Unable to allocate"),
    (["--beta", "1.5707963267948966"], "eye azimuths are unbounded at |beta| = pi/2"),
])
def test_noise_sweep_refuses_bad_arguments_up_front(monkeypatch, tmp_path, capsys, args, message):
    out = tmp_path / "sweep.csv"
    run_script(monkeypatch, "noise_sweep.py",
               ["--trials", "1", "--sigmas", "0", "--out", str(out), *args], code=2)
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err and "give a region" not in captured.err
    assert "sigma=" not in captured.out  # no trial ran
    assert not out.exists()


@pytest.mark.parametrize("sigmas", [["1e308"], ["0", "1e308"]])
def test_noise_sweep_refuses_an_overflowing_sigma(monkeypatch, tmp_path, capsys, sigmas):
    # the overflow depends on the draw, so the trials of an earlier sigma may run
    out = tmp_path / "sweep.csv"
    run_script(monkeypatch, "noise_sweep.py",
               ["--trials", "1", "--count", "5", "--out", str(out), "--sigmas", *sigmas], code=2)
    captured = capsys.readouterr()
    assert captured.err == ("noise_sweep.py: error: sigma 1e+308 makes image coordinates "
                            "non-finite\n")
    assert not out.exists()


def test_noise_sweep_refuses_a_missing_out_directory(monkeypatch, tmp_path, capsys):
    out = tmp_path / "missing" / "sweep.csv"
    run_script(monkeypatch, "noise_sweep.py", ["--trials", "1", "--sigmas", "0", "--out", str(out)],
               code=2)
    captured = capsys.readouterr()
    assert "error: --out directory" in captured.err and "sigma=" not in captured.out
    assert not out.parent.exists()


def test_noise_sweep_refuses_a_directory_out(monkeypatch, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    out.mkdir()
    run_script(monkeypatch, "noise_sweep.py", ["--trials", "1", "--sigmas", "0", "--out", str(out)],
               code=2)
    captured = capsys.readouterr()
    assert f"error: --out {str(out)!r} is a directory" in captured.err
    assert "sigma=" not in captured.out
    assert not any(out.iterdir())


def test_end_to_end_demo(monkeypatch, capsys):
    run_script(monkeypatch, "end_to_end_demo.py", ["--beta", "0.2", "--rho", "2.0", "--seed", "7"])
    out = capsys.readouterr().out
    assert "=== noiseless" in out and "=== sigma=0.001" in out
    assert out.count("depth map") == 2
