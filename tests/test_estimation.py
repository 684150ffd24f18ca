import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cyclovision.disparity import Correspondence, synthesize_correspondence
from cyclovision.errors import DegenerateConfigurationError, DegenerateGeometryError
from cyclovision.estimation import (
    _coefficient_jacobian,
    _coefficients,
    _r_factor,
    estimate_depth_map,
    estimate_gaze,
    grid_init,
    grid_objective,
    residual_rms,
    triangulate_midpoint,
)
from cyclovision.gaze import (
    EyeAzimuths,
    GazeState,
    eye_azimuths,
    eye_poses,
    vergence_version,
)
from cyclovision.simulate import SceneSpec, synthesize_scene

TRUE_GAZE = GazeState(beta=0.2, rho=2.0)


def synthesized_set(gaze, count=50, seed=0, sigma=0.0):
    spec = SceneSpec(generator="random-box", count=count, seed=seed, sigma=sigma)
    records = synthesize_scene(gaze, spec).records
    assert len(records) >= count - 5
    return records


class TestEstimateGaze:
    def test_noiseless_recovery_from_offset_seed(self):
        records = synthesized_set(TRUE_GAZE)
        true_az = eye_azimuths(TRUE_GAZE)
        seed = EyeAzimuths(true_az.beta_l + 0.1, true_az.beta_r + 0.1)
        fit = estimate_gaze(records, initial=seed)
        assert fit.converged
        assert abs(fit.azimuths.beta_l - true_az.beta_l) < 1e-6
        assert abs(fit.azimuths.beta_r - true_az.beta_r) < 1e-6
        assert fit.rms_residual < 1e-9

    def test_grid_seeded_recovery(self):
        records = synthesized_set(TRUE_GAZE, seed=5)
        fit = estimate_gaze(records)
        true_az = eye_azimuths(TRUE_GAZE)
        assert abs(fit.azimuths.beta_l - true_az.beta_l) < 1e-6
        assert abs(fit.azimuths.beta_r - true_az.beta_r) < 1e-6
        assert abs(fit.gaze.rho - TRUE_GAZE.rho) < 1e-5

    def test_meridian_only_data_rejected(self):
        spec = SceneSpec(generator="horopter-samples", count=30, seed=1)
        records = synthesize_scene(TRUE_GAZE, spec).records
        with pytest.raises(DegenerateConfigurationError):
            estimate_gaze(records)

    def test_too_few_points_rejected(self):
        records = synthesized_set(TRUE_GAZE)[:2]
        with pytest.raises(ValueError):
            estimate_gaze(records)

    def test_resynthesis_consistency(self):
        # re-synthesizing with the fitted gaze reproduces the images
        records = synthesized_set(TRUE_GAZE, seed=9)
        fit = estimate_gaze(records)
        worst = 0.0
        for rec in records:
            again = synthesize_correspondence(
                fit.gaze, rec.truth.cyclopean_dir, rec.truth.s
            )
            worst = max(worst, np.abs(again.q_l - rec.q_l).max(),
                        np.abs(again.q_r - rec.q_r).max())
        assert worst < 1e-6

    def test_truth_is_a_local_minimum(self):
        records = synthesized_set(TRUE_GAZE, seed=13)
        true_az = eye_azimuths(TRUE_GAZE)
        at_truth = residual_rms(records, true_az)
        for db_l in (-0.05, 0.0, 0.05):
            for db_r in (-0.05, 0.0, 0.05):
                if db_l == db_r == 0.0:
                    continue
                perturbed = EyeAzimuths(true_az.beta_l + db_l, true_az.beta_r + db_r)
                assert at_truth <= residual_rms(records, perturbed)

    def test_mirror_equivariance(self):
        # mirroring x and swapping eyes maps (b_l, b_r) to (-b_r, -b_l)
        records = synthesized_set(TRUE_GAZE, seed=17)
        mirrored = [
            Correspondence(
                q_l=np.array([-r.q_r[0], r.q_r[1], 1.0]),
                q_r=np.array([-r.q_l[0], r.q_l[1], 1.0]),
            )
            for r in records
        ]
        fit = estimate_gaze(records)
        mirrored_fit = estimate_gaze(mirrored)
        assert abs(mirrored_fit.azimuths.beta_l + fit.azimuths.beta_r) < 1e-6
        assert abs(mirrored_fit.azimuths.beta_r + fit.azimuths.beta_l) < 1e-6

    def test_noisy_range_recovery_statistics(self):
        errors = []
        for trial in range(20):
            records = synthesized_set(TRUE_GAZE, seed=100 + trial, sigma=1e-3)
            fit = estimate_gaze(records)
            errors.append(abs(fit.gaze.rho - TRUE_GAZE.rho) / TRUE_GAZE.rho)
        assert np.median(errors) < 0.05

    def test_default_seed_is_the_grid_seed(self):
        records = synthesized_set(TRUE_GAZE, seed=7, sigma=1e-3)
        assert estimate_gaze(records) == estimate_gaze(records, initial=grid_init(records))

    def test_fit_leaving_the_fixation_domain_is_typed(self):
        # far, eccentric fixation under heavy noise: the fit runs past
        # |beta| = pi/2 or crosses beta_r > beta_l
        gaze = GazeState(beta=0.6, rho=40.0)
        records = synthesized_set(gaze, seed=0, sigma=1e-2)
        with pytest.raises(DegenerateConfigurationError):
            estimate_gaze(records)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-10.0, 10.0)] * 4), min_size=3, max_size=30))
    def test_fit_is_total(self, rows):
        records = [
            Correspondence(q_l=np.array([xl, yl, 1.0]), q_r=np.array([xr, yr, 1.0]))
            for xl, yl, xr, yr in rows
        ]
        try:
            fit = estimate_gaze(records)
        except DegenerateGeometryError:
            return
        values = (fit.azimuths.beta_l, fit.azimuths.beta_r, fit.gaze.beta, fit.gaze.rho,
                  fit.rms_residual)
        assert np.isfinite(values).all()


def direct_residuals(records, beta_l, beta_r):
    """Per-point normalized epipolar residuals, broadcast over azimuth arrays."""
    ql = np.array([r.q_l / r.q_l[2] for r in records])
    qr = np.array([r.q_r / r.q_r[2] for r in records])
    xl, yl, xr, yr = ql[:, 0], ql[:, 1], qr[:, 0], qr[:, 1]
    bl, br = np.asarray(beta_l)[..., None], np.asarray(beta_r)[..., None]
    return (np.sin(bl) * xl * yr - np.sin(br) * xr * yl
            + np.cos(br) * yl - np.cos(bl) * yr) / np.sqrt(2.0)


class TestCompressedObjective:
    @pytest.mark.parametrize("count,sigma", [(50, 0.0), (50, 1e-3), (3, 1e-3)])
    def test_grid_matches_direct_residuals(self, count, sigma):
        records = synthesized_set(TRUE_GAZE, count=count, seed=47, sigma=sigma)[:count]
        deltas, epsilons, mse = grid_objective(records)
        dd, ee = np.meshgrid(deltas, epsilons, indexing="ij")
        direct = np.mean(direct_residuals(records, ee + 0.5 * dd, ee - 0.5 * dd) ** 2, axis=-1)
        assert_allclose(mse, direct, rtol=1e-12, atol=0.0)

    def test_direct_residuals_match_reference(self):
        records = synthesized_set(TRUE_GAZE, seed=53, sigma=1e-3)
        az = EyeAzimuths(0.4, 0.1)
        rms = np.sqrt(np.mean(direct_residuals(records, az.beta_l, az.beta_r) ** 2))
        assert rms == pytest.approx(residual_rms(records, az), rel=1e-12)

    @pytest.mark.parametrize("sigma", [1e-4, 1e-2])
    def test_reported_rms_matches_reference(self, sigma):
        records = synthesized_set(TRUE_GAZE, seed=59, sigma=sigma)
        fit = estimate_gaze(records)
        assert fit.rms_residual == pytest.approx(residual_rms(records, fit.azimuths), rel=1e-9)

    def test_analytic_jacobian_matches_central_differences(self):
        records = synthesized_set(TRUE_GAZE, seed=61, sigma=1e-3)
        r_factor = _r_factor(records)
        theta = np.array([0.45, 0.02])
        jac = r_factor @ _coefficient_jacobian(theta)
        residual = r_factor @ _coefficients(*theta)
        h = 1e-6
        direct_jac = np.column_stack([
            (direct_residuals(records, *(theta + step))
             - direct_residuals(records, *(theta - step))) / (2.0 * h)
            for step in h * np.eye(2)
        ])
        direct = direct_residuals(records, *theta)
        # R = Q^T F with orthonormal Q: the normal equations agree
        assert_allclose(jac.T @ jac, direct_jac.T @ direct_jac, rtol=1e-8)
        assert_allclose(jac.T @ residual, direct_jac.T @ direct, rtol=1e-8)


class TestGridInit:
    def test_seed_lands_near_symmetric_truth(self):
        gaze = GazeState(beta=0.0, rho=1.0)
        records = synthesized_set(gaze, seed=23)
        seed = grid_init(records)
        vv = vergence_version(seed)
        # within one cell of the nearest grid node to (delta, epsilon) =
        # (0.9273, 0); truth falls between nodes, hence the half-cell slack
        assert abs(vv.delta - 0.9272952180016122) < 1.5 * (1.2 / 64)
        assert abs(vv.epsilon) < 1.5 * (1.6 / 63)

    def test_two_point_input_returns_a_seed(self):
        records = synthesized_set(TRUE_GAZE)[:2]
        seed = grid_init(records)
        assert np.isfinite(seed.beta_l) and np.isfinite(seed.beta_r)

    def test_true_cell_beats_distant_cells(self):
        records = synthesized_set(TRUE_GAZE, seed=29)
        deltas, epsilons, mse = grid_objective(records)
        vv = vergence_version(eye_azimuths(TRUE_GAZE))
        i = int(np.argmin(np.abs(deltas - vv.delta)))
        j = int(np.argmin(np.abs(epsilons - vv.epsilon)))
        at_truth = mse[i, j]
        far = np.ones_like(mse, dtype=bool)
        far[max(0, i - 1):i + 2, max(0, j - 1):j + 2] = False
        assert at_truth <= mse[far].min()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            grid_init([])


class TestDepthMap:
    def test_noiseless_round_trip(self):
        records = synthesized_set(TRUE_GAZE, seed=31)
        samples = estimate_depth_map(records, TRUE_GAZE)
        assert all(s is not None for s in samples)
        worst = max(
            abs(sample.s - rec.truth.s) for rec, sample in zip(records, samples)
        )
        assert worst < 1e-9

    def test_in_plane_scene_recovers_zero_depth(self):
        spec = SceneSpec(generator="fixation-plane-patch", count=50, seed=37)
        records = synthesize_scene(TRUE_GAZE, spec).records
        samples = estimate_depth_map(records, TRUE_GAZE)
        assert max(abs(s.s) for s in samples) < 1e-9

    def test_left_and_right_recoveries_agree(self):
        from cyclovision.disparity import decompose, project_parallax_scalar, recover_depth

        records = synthesized_set(TRUE_GAZE, seed=41)[:20]
        for rec in records:
            ray = rec.truth.cyclopean_dir
            per_eye = []
            for eye, observed in (("left", rec.q_l), ("right", rec.q_r)):
                dec = decompose(TRUE_GAZE, ray, eye)
                t, _ = project_parallax_scalar(dec, observed)
                per_eye.append(recover_depth(dec, t, TRUE_GAZE.rho))
            assert per_eye[0] == pytest.approx(per_eye[1], abs=1e-10)
            assert per_eye[0] == pytest.approx(rec.truth.s, abs=1e-10)

    def test_triangulation_recovers_scene_points(self):
        records = synthesized_set(TRUE_GAZE, seed=43)[:20]
        poses = eye_poses(TRUE_GAZE)
        for rec in records:
            scene = triangulate_midpoint(poses, rec.q_l, rec.q_r)
            expected = rec.truth.z_c * (poses.cyclopean.rotation.T
                                        @ rec.truth.cyclopean_dir)
            assert_allclose(scene, expected, atol=1e-10)
