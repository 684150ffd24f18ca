import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cyclovision.disparity import Correspondences, synthesize_correspondence
from cyclovision.epipolar import epipolar_residual, essential_closed_form
from cyclovision.errors import (
    DegenerateConfigurationError,
    DegenerateGeometryError,
    PointAtInfinityError,
)
from cyclovision.estimation import (
    GRID_DELTA_MAX,
    GRID_EPSILON_MAX,
    GRID_SIZE,
    _GRID_AZIMUTHS,
    _GRID_COEFFICIENTS,
    _coefficient_jacobian,
    _coefficients,
    _r_factor,
    estimate_depth_map,
    estimate_gaze,
    grid_init,
    triangulate_midpoint,
)
from cyclovision.gaze import (
    EyeAzimuths,
    GazeState,
    eye_azimuths,
    eye_poses,
    project,
    vergence_version,
)
from cyclovision.geometry import normalize_point
from cyclovision.simulate import SceneSpec, synthesize_scene
from helpers import grid_objective

TRUE_GAZE = GazeState(beta=0.2, rho=2.0)


def residual_rms(records, az):
    """Reference: RMS of the normalized epipolar residuals q_r^T E q_l, point by point."""
    e = essential_closed_form(az)
    r = [epipolar_residual(e, q_l, q_r) for q_l, q_r in zip(records.q_l, records.q_r)]
    return float(np.sqrt(np.mean(np.square(r))))


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
        with pytest.raises(DegenerateConfigurationError):
            estimate_gaze(records)

    @pytest.mark.parametrize("fit", [estimate_gaze, grid_init])
    def test_single_correspondence_rejected(self, fit):
        with pytest.raises(DegenerateConfigurationError, match="single"):
            fit(synthesized_set(TRUE_GAZE)[0])

    def test_resynthesis_consistency(self):
        # re-synthesizing with the fitted gaze reproduces the images
        records = synthesized_set(TRUE_GAZE, seed=9)
        fit = estimate_gaze(records)
        again = synthesize_correspondence(fit.gaze, records.p_c, records.s)
        worst = max(np.abs(again.q_l - records.q_l).max(), np.abs(again.q_r - records.q_r).max())
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
        flip = np.array([-1.0, 1.0, 1.0])
        mirrored = Correspondences(q_l=flip * records.q_r, q_r=flip * records.q_l)
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
        xl, yl, xr, yr = np.array(rows).T
        ones = np.ones(len(rows))
        records = Correspondences(np.column_stack([xl, yl, ones]), np.column_stack([xr, yr, ones]))
        try:
            fit = estimate_gaze(records)
        except DegenerateGeometryError:
            return
        values = (fit.azimuths.beta_l, fit.azimuths.beta_r, fit.gaze.beta, fit.gaze.rho,
                  fit.rms_residual)
        assert np.isfinite(values).all()


def direct_residuals(records, beta_l, beta_r):
    """Per-point normalized epipolar residuals, broadcast over azimuth arrays."""
    ql = records.q_l / records.q_l[:, 2:]
    qr = records.q_r / records.q_r[:, 2:]
    xl, yl, xr, yr = ql[:, 0], ql[:, 1], qr[:, 0], qr[:, 1]
    bl, br = np.asarray(beta_l)[..., None], np.asarray(beta_r)[..., None]
    return (np.sin(bl) * xl * yr - np.sin(br) * xr * yl
            + np.cos(br) * yl - np.cos(bl) * yr) / np.sqrt(2.0)


def per_call_grid(records):
    """Reference: the grid as every call used to build it, whole and summed on the last axis."""
    deltas = GRID_DELTA_MAX * np.arange(1, GRID_SIZE + 1) / GRID_SIZE
    epsilons = np.linspace(-GRID_EPSILON_MAX, GRID_EPSILON_MAX, GRID_SIZE)
    dd, ee = np.meshgrid(deltas, epsilons, indexing="ij")
    beta_l, beta_r = ee + 0.5 * dd, ee - 0.5 * dd
    c = np.stack([np.sin(beta_l), np.sin(beta_r), np.cos(beta_r), np.cos(beta_l)], axis=-1)
    return deltas, epsilons, np.sum(np.square(c @ _r_factor(records).T), axis=-1) / len(records)


class TestCompressedObjective:
    @pytest.mark.parametrize("count,sigma", [(50, 0.0), (50, 1e-3), (3, 1e-3), (4, 1e-3)])
    def test_grid_is_bit_identical_to_the_per_call_build(self, count, sigma):
        records = synthesized_set(TRUE_GAZE, count=count, seed=47, sigma=sigma)[:count]
        expected = per_call_grid(records)
        for got, want in zip(grid_objective(records), expected):
            assert np.array_equal(got, want)
        deltas, epsilons, mse = expected
        i, j = np.unravel_index(np.argmin(mse), mse.shape)
        assert grid_init(records) == EyeAzimuths(epsilons[j] + 0.5 * deltas[i],
                                                 epsilons[j] - 0.5 * deltas[i])

    def test_grid_state_is_read_only(self):
        records = synthesized_set(TRUE_GAZE, seed=7, sigma=1e-3)
        before = estimate_gaze(records)
        for constant in (_GRID_AZIMUTHS, _GRID_COEFFICIENTS):
            with pytest.raises(ValueError):
                constant[0, 0] = 0.5
        _, _, mse = grid_objective(records)
        mse[...] = 0.0
        assert estimate_gaze(records) == before

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
        c = _coefficients(theta)
        jac = r_factor @ _coefficient_jacobian(c)
        residual = r_factor @ c
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
        with pytest.raises(DegenerateConfigurationError):
            grid_init(Correspondences(np.empty((0, 3)), np.empty((0, 3))))


def point_depth(gaze, q_l, q_r):
    """Reference: one point's depth through the single-ray calls, NaN where one raises."""
    from cyclovision.disparity import decompose, project_parallax_scalar, recover_depth

    poses = eye_poses(gaze)
    try:
        ray = project(poses.cyclopean, triangulate_midpoint(poses, q_l, q_r))
        if ray[2] <= 1e-12:
            return np.nan
        recovered = []
        for eye, observed in (("left", q_l), ("right", q_r)):
            dec = decompose(gaze, ray / ray[2], eye)
            recovered.append(recover_depth(dec, project_parallax_scalar(dec, observed)[0]))
    except DegenerateGeometryError:
        return np.nan
    s = 0.5 * (recovered[0] + recovered[1])
    return s if gaze.rho + s > 0.0 else np.nan


class TestDepthMap:
    def test_noiseless_round_trip(self):
        records = synthesized_set(TRUE_GAZE, seed=31)
        depth = estimate_depth_map(records, TRUE_GAZE)
        assert depth.s.shape == (len(records),) and depth.p_c.shape == (len(records), 3)
        assert not np.isnan(depth.s).any()
        assert np.abs(depth.s - records.s).max() < 1e-9
        assert np.abs(depth.p_c - records.p_c).max() < 1e-9

    def test_in_plane_scene_recovers_zero_depth(self):
        spec = SceneSpec(generator="fixation-plane-patch", count=50, seed=37)
        records = synthesize_scene(TRUE_GAZE, spec).records
        depth = estimate_depth_map(records, TRUE_GAZE)
        assert np.abs(depth.s).max() < 1e-9

    def test_left_and_right_recoveries_agree(self):
        from cyclovision.disparity import decompose, project_parallax_scalar, recover_depth

        records = synthesized_set(TRUE_GAZE, seed=41)[:20]
        per_eye = []
        for eye, observed in (("left", records.q_l), ("right", records.q_r)):
            dec = decompose(TRUE_GAZE, records.p_c, eye)
            t, _ = project_parallax_scalar(dec, observed)
            per_eye.append(recover_depth(dec, t))
        assert_allclose(per_eye[0], per_eye[1], rtol=0.0, atol=1e-10)
        assert_allclose(per_eye[0], records.s, rtol=0.0, atol=1e-10)

    def test_triangulation_recovers_scene_points(self):
        records = synthesized_set(TRUE_GAZE, seed=43)[:20]
        poses = eye_poses(TRUE_GAZE)
        scene = triangulate_midpoint(poses, records.q_l, records.q_r)
        expected = (TRUE_GAZE.rho + records.s)[:, None] * (records.p_c @ poses.cyclopean.rotation)
        assert_allclose(scene, expected, atol=1e-10)
        for i in range(len(records)):
            assert np.array_equal(triangulate_midpoint(poses, records.q_l[i], records.q_r[i]),
                                  scene[i])

    def test_matches_the_point_by_point_reference(self):
        # a wrong gaze on a scene around the eyes: many points fail
        spec = SceneSpec(count=300, seed=13, sigma=1e-4,
                         region=((-0.5, 0.5), (-0.5, 0.5), (-1.0, 1.0)))
        records = synthesize_scene(GazeState(beta=0.1, rho=1.5), spec).records
        gaze = GazeState(beta=0.7, rho=0.8)
        depth = estimate_depth_map(records, gaze)
        reference = np.array([point_depth(gaze, q_l, q_r)
                              for q_l, q_r in zip(records.q_l, records.q_r)])
        assert 0 < np.isnan(reference).sum() < len(records)
        assert np.array_equal(depth.s, reference, equal_nan=True)

    def test_failed_points_read_nan_and_leave_the_rest_alone(self):
        records = synthesized_set(TRUE_GAZE, seed=47)[:10]
        clean = estimate_depth_map(records, TRUE_GAZE)
        poses = eye_poses(TRUE_GAZE)
        broken = Correspondences(records.q_l.copy(), records.q_r.copy())
        far = np.array([0.1, 0.05, 1.0])          # images of a point at infinity
        broken.q_l[3] = normalize_point(poses.left.rotation @ far)
        broken.q_r[3] = normalize_point(poses.right.rotation @ far)
        broken.q_l[6] = [1.0, 0.0, 1e-13]        # image point at infinity
        broken.q_l[8] = [-0.9, 0.0, 1.0]         # rays that meet behind the eyes
        broken.q_r[8] = [0.9, 0.0, 1.0]
        depth = estimate_depth_map(broken, TRUE_GAZE)
        failed = np.isnan(depth.s)
        assert failed.tolist() == [i in (3, 6, 8) for i in range(10)]
        assert np.isnan(depth.p_c[failed]).all()
        assert np.array_equal(depth.s[~failed], clean.s[~failed])
        assert np.array_equal(depth.p_c[~failed], clean.p_c[~failed])
        with pytest.raises(PointAtInfinityError):
            triangulate_midpoint(poses, broken.q_l[3], broken.q_r[3])
