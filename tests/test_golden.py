"""Byte-exact outputs of every command, against the files in ``tests/golden``.

Each case runs one command line in-process and compares its whole stdout
with the file of the same name: every output, the ``estimate`` experiment
record included, is the same bytes on every run. The reconstruct and
estimate cases read the random-box file of the synthesize case.
``fits-n50.txt`` pins the library's synthesize -> fit path at N = 50 over a
beta x rho x sigma grid, one line per problem.

When a change means to alter output bytes, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and say which changed.

The fit golden, both ``estimate`` goldens, two ``reconstruct`` goldens and
the fixation-plane patch depend on the OpenBLAS kernel that numpy's OpenBLAS
picks at run time for the CPU (``OPENBLAS_VERBOSE=2`` prints it as
``Core:``), through numpy's QR and matmul, the per-point
``geometry.transform`` and ``geometry.inner`` included: ``inner`` and
``transform`` by a transposed rotation change their last bits under Haswell
and older cores, ``transform`` by the rotation itself under Sandybridge and
Prescott, and the patch goes through ``transform(rotations[2].T, rays)``.
They were written under SkylakeX; under ``OPENBLAS_CORETYPE=Haswell`` those
six cases fail, and under Sandybridge, Nehalem or Prescott nine do. numpy's
own SIMD dispatch does not change them.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from cyclovision.cli import main
from cyclovision.errors import DegenerateGeometryError
from cyclovision.estimation import estimate_gaze
from cyclovision.gaze import GazeState
from cyclovision.simulate import SceneSpec, synthesize_scene

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUT = str(GOLDEN / "synthesize-random-box.json")
GAZE = ["--alpha", "0.1", "--beta", "0.2", "--rho", "2"]

# In dependency order: the synthesize files come before the cases that read them.
CASES = {
    **{f"synthesize-{scene}.json": ["synthesize", *GAZE, "--scene", scene, "--count", "20",
                                    "--sigma", "1e-3", "--seed", "3"]
       for scene in ("random-box", "fixation-plane-patch", "horopter-samples")},
    "reconstruct-header-gaze.json": ["reconstruct", INPUT],
    # a wrong gaze, under which the depths err by up to 0.82 and 7 points
    # triangulate behind the right eye and fail
    "reconstruct-wrong-gaze.json": ["reconstruct", INPUT, "--beta", "1.3", "--rho", "0.9"],
    # every row fails at a far gaze, where rho + s cancels to 0 in each row in front of the eye
    "reconstruct-far-gaze.json": ["reconstruct", INPUT, "--rho", "1e300"],
    "estimate.json": ["estimate", INPUT],
    "estimate-one-iteration.json": ["estimate", INPUT, "--max-iterations", "1"],
    "fixate-angles.json": ["fixate", *GAZE],
    "fixate-point.json": ["fixate", "--point", "0.3,0.2,1.5"],
    "fixate-degrees.json": ["fixate", "--alpha", "5", "--beta", "10", "--rho", "3",
                            "--degrees"],
    "essential.json": ["essential", *GAZE],
    "horopter.csv": ["horopter", *GAZE, "--samples", "5"],
}


def output(args: list[str]) -> bytes:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, (args, result.output, result.exception)
    return result.stdout_bytes


FITS = "fits-n50.txt"
FIT_BETAS = (-0.5, 0.0, 0.2, 0.6)
FIT_RHOS = (1.5, 3.0, 10.0, 40.0)
FIT_SIGMAS = (0.0, 1e-4, 1e-3, 1e-2)
FIT_SEEDS = (0, 1, 2, 3)


def fit_lines() -> bytes:
    """One line per 50-point random-box problem: the fitted azimuths, the rms
    residual, iterations and convergence, or the class of the typed error."""
    lines = []
    for beta in FIT_BETAS:
        for rho in FIT_RHOS:
            for sigma in FIT_SIGMAS:
                for seed in FIT_SEEDS:
                    records = synthesize_scene(GazeState(beta=beta, rho=rho),
                                               SceneSpec(count=50, sigma=sigma, seed=seed)).records
                    try:
                        fit = estimate_gaze(records)
                    except DegenerateGeometryError as err:
                        result = type(err).__name__
                    else:
                        result = "%.17g %.17g %.17g %d %s" % (
                            fit.azimuths.beta_l, fit.azimuths.beta_r, fit.rms_residual,
                            fit.iterations, fit.converged)
                    lines.append(f"{beta:g} {rho:g} {sigma:g} {seed}: {result}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name):
    assert output(CASES[name]) == (GOLDEN / name).read_bytes()


def test_n50_fits_match_golden():
    assert fit_lines() == (GOLDEN / FITS).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CASES.items():
        (GOLDEN / name).write_bytes(output(args))
    (GOLDEN / FITS).write_bytes(fit_lines())
