#!/usr/bin/env python3
"""Monte-Carlo sweep of gaze-estimation error against image noise.

For each noise level, synthesizes many 50-point scenes at a fixed gaze,
re-estimates the gaze from the noisy correspondences, and reports the
median and 90th-percentile relative range error over the fits that
succeed, with the count of fits that end in a typed degenerate-geometry
error. Writes a CSV suitable for plotting; the error columns are empty
where every fit failed.

Example:
  python3 scripts/noise_sweep.py --rho 2.0 --beta 0.2 --trials 100 \
      --out noise_sweep.csv
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from cyclovision.errors import DegenerateGeometryError
from cyclovision.estimation import estimate_gaze
from cyclovision.gaze import GazeState, eye_azimuths
from cyclovision.records import csv_rows
from cyclovision.simulate import SceneSpec, default_region, synthesize_scene

DEFAULT_SIGMAS = (0.0, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2)


def parse_args() -> tuple[argparse.Namespace, GazeState, list[SceneSpec]]:
    """The arguments, the gaze and one spec per sigma, holding the base seed.
    Refuses, with exit 2 before any trial runs, what would fail later or write
    nothing: a negative seed, a gaze at |beta| = pi/2, a range too large for the
    default scene box, or an --out that is a directory. A sigma whose noise
    overflows an image coordinate depends on the draw: ``main`` refuses it
    with exit 2 when a trial meets it, and writes no CSV."""
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--beta", type=float, default=0.2, help="gaze azimuth (rad)")
    parser.add_argument("--rho", type=float, default=2.0, help="fixation range")
    parser.add_argument("--count", type=int, default=50, help="points per scene")
    parser.add_argument("--trials", type=int, default=100, help="scenes per noise level")
    parser.add_argument("--sigmas", type=float, nargs="+", default=list(DEFAULT_SIGMAS),
                        help="noise standard deviations to sweep")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--out", type=Path, default=Path("noise_sweep.csv"))
    args = parser.parse_args()
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    if not args.out.parent.is_dir():
        parser.error(f"--out directory {str(args.out.parent)!r} does not exist")
    if args.out.is_dir():
        parser.error(f"--out {str(args.out)!r} is a directory")
    try:
        gaze = GazeState(beta=args.beta, rho=args.rho)
        eye_azimuths(gaze)
        specs = [SceneSpec(count=args.count, sigma=sigma, seed=args.seed) for sigma in args.sigmas]
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))
    try:
        default_region(gaze)
    except ValueError:
        parser.error(f"--rho {args.rho} is too large: the default scene box, which "
                     "scales with range, overflows")
    return args, gaze, specs


def sweep(gaze: GazeState, specs: list[SceneSpec], trials: int) -> list[list]:
    """One CSV row per spec, printing each row's summary line as it ends."""
    true_az = eye_azimuths(gaze)
    rows = []
    for spec in specs:
        sigma = spec.sigma
        rho_errors, azimuth_errors, failures = [], [], 0
        for trial in range(trials):
            seeded = replace(spec, seed=spec.seed + 10_000 * trial + hash(sigma) % 1000)
            records = synthesize_scene(gaze, seeded).records
            try:
                fit = estimate_gaze(records)
            except DegenerateGeometryError:
                failures += 1
                continue
            rho_errors.append(abs(fit.gaze.rho - gaze.rho) / gaze.rho)
            azimuth_errors.append(
                max(abs(fit.azimuths.beta_l - true_az.beta_l),
                    abs(fit.azimuths.beta_r - true_az.beta_r))
            )
        errors = [""] * 4
        if rho_errors:
            errors = [
                float(np.median(rho_errors)),
                float(np.quantile(rho_errors, 0.9)),
                float(np.median(azimuth_errors)),
                float(np.quantile(azimuth_errors, 0.9)),
            ]
        rows.append([sigma, *errors, failures])
        line = f"sigma={sigma:9.2e}  failed={failures}/{trials}"
        if rho_errors:
            line += (f"  median rho err={errors[0]:.2e}  p90 rho err={errors[1]:.2e}  "
                     f"median az err={errors[2]:.2e}")
        print(line)
    return rows


def main() -> int:
    args, gaze, specs = parse_args()
    # a --count too large to allocate, or a sigma whose noise overflows an image
    # coordinate, ends as `synthesize` ends it: exit 2 with one error line
    try:
        rows = sweep(gaze, specs, args.trials)
    except (MemoryError, ValueError) as exc:
        print(f"{Path(sys.argv[0]).name}: error: {exc}", file=sys.stderr)
        return 2

    args.out.write_text(csv_rows(
        "sigma,rho_err_median,rho_err_p90,azimuth_err_median,azimuth_err_p90,failures",
        rows
    ), encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
