import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cyclovision.disparity import Correspondences, synthesize_correspondence
from cyclovision.epipolar import epipolar_residual, essential_closed_form
from cyclovision.errors import (
    BehindEyeError,
    DegenerateConfigurationError,
    DegenerateGeometryError,
    PointAtInfinityError,
)
from cyclovision.estimation import (
    EstimationConfig,
    _GRID_DELTAS,
    _GRID_EPSILONS,
    _GRID_PRODUCTS,
    _GRID_TURN_PAIRS,
    _linearize,
    _r_factor,
    estimate_depth_map,
    estimate_gaze,
    grid_init,
)
from cyclovision.gaze import (
    EYE_CENTRES,
    EyeAzimuths,
    GazeState,
    eye_azimuths,
    eye_poses,
    fixation_point,
    project,
    vergence_version,
)
from cyclovision.geometry import normalize_point
from cyclovision.records import load_json, parse_correspondence_file
from cyclovision.simulate import SceneSpec, synthesize_scene
from helpers import NOT_INTEGERS, grid_objective, midpoint_oracle, project_both

TRUE_GAZE = GazeState(beta=0.2, rho=2.0)
GOLDEN_RANDOM_BOX = Path(__file__).resolve().parent / "golden" / "synthesize-random-box.json"


def residual_rms(records, az):
    """Reference: RMS of the normalized epipolar residuals q_r^T E q_l, point by point."""
    e = essential_closed_form(az)
    r = [epipolar_residual(e, q_l, q_r) for q_l, q_r in zip(records.q_l, records.q_r)]
    return float(np.sqrt(np.mean(np.square(r))))


HALF_PI = math.pi / 2
# image coordinates of either sign, with magnitudes from 1e-12 to 1e11
coordinate = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                       st.sampled_from([1.0, -1.0]), st.floats(-12.0, 11.0))


def synthesized_set(gaze, count=50, seed=0, sigma=0.0):
    spec = SceneSpec(generator="random-box", count=count, seed=seed, sigma=sigma)
    records = synthesize_scene(gaze, spec).records
    assert len(records) >= count - 5
    return records


def with_a_point_at_infinity(records):
    q_l = records.q_l.copy()
    q_l[2] = [0.3, 0.1, 0.0]
    return Correspondences(q_l, records.q_r)


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

    @pytest.mark.parametrize("fit", [estimate_gaze, grid_init])
    def test_meridian_only_data_rejected(self, fit):
        spec = SceneSpec(generator="horopter-samples", count=30, seed=1)
        records = synthesize_scene(TRUE_GAZE, spec).records
        with pytest.raises(DegenerateConfigurationError, match="meridian"):
            fit(records)

    @pytest.mark.parametrize("fit", [estimate_gaze, grid_init])
    def test_too_few_points_rejected(self, fit):
        records = synthesized_set(TRUE_GAZE)[:2]
        with pytest.raises(DegenerateConfigurationError, match="at least 3"):
            fit(records)

    @pytest.mark.parametrize("fit", [estimate_gaze, grid_init])
    def test_single_correspondence_rejected(self, fit):
        with pytest.raises(DegenerateConfigurationError, match="single"):
            fit(synthesized_set(TRUE_GAZE)[0])

    @pytest.mark.parametrize("records", [
        pytest.param(synthesized_set(TRUE_GAZE)[0], id="single"),
        pytest.param(Correspondences(np.empty((0, 3)), np.empty((0, 3))), id="empty"),
        pytest.param(synthesized_set(TRUE_GAZE)[:2], id="two-rows"),
        pytest.param(synthesize_scene(TRUE_GAZE, SceneSpec(generator="horopter-samples",
                                                           count=30, seed=1)).records,
                     id="meridian"),
        pytest.param(with_a_point_at_infinity(synthesized_set(TRUE_GAZE)), id="at-infinity"),
    ])
    def test_grid_seed_refuses_what_the_fit_refuses(self, records):
        refusals = []
        for fit in (estimate_gaze, grid_init):
            with pytest.raises((DegenerateConfigurationError, PointAtInfinityError)) as err:
                fit(records)
            refusals.append((type(err.value), str(err.value)))
        assert refusals[0] == refusals[1]

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

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([3, 4, 5, 50]), st.data(),
           st.one_of(st.none(), st.tuples(*[st.one_of(
               st.floats(-1e300, 1e300), st.sampled_from([1e300, -1e300, HALF_PI, -HALF_PI]))] * 2)))
    def test_fit_is_total_across_scales_and_starts(self, count, data, start):
        rows = data.draw(st.lists(st.tuples(*[coordinate] * 4), min_size=count, max_size=count))
        xl, yl, xr, yr = np.array(rows).T
        ones = np.ones(count)
        records = Correspondences(np.column_stack([xl, yl, ones]), np.column_stack([xr, yr, ones]))
        # EyeAzimuths refuses a start outside (-pi/2, pi/2); the loop takes any finite one
        initial = None if start is None else SimpleNamespace(beta_l=start[0], beta_r=start[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fit = estimate_gaze(records, initial=initial)
            except DegenerateGeometryError:
                return
        assert math.isfinite(fit.azimuths.beta_l) and math.isfinite(fit.azimuths.beta_r)


def direct_residuals(records, beta_l, beta_r):
    """Per-point normalized epipolar residuals, broadcast over azimuth arrays."""
    ql = records.q_l / records.q_l[:, 2:]
    qr = records.q_r / records.q_r[:, 2:]
    xl, yl, xr, yr = ql[:, 0], ql[:, 1], qr[:, 0], qr[:, 1]
    bl, br = np.asarray(beta_l)[..., None], np.asarray(beta_r)[..., None]
    return (np.sin(bl) * xl * yr - np.sin(br) * xr * yl
            + np.cos(br) * yl - np.cos(bl) * yr) / np.sqrt(2.0)


class TestEstimationConfig:
    @pytest.mark.parametrize("cap", NOT_INTEGERS)
    def test_a_cap_that_is_not_an_integer_raises_a_type_error(self, cap):
        with pytest.raises(TypeError, match="^max_iterations must be an integer"):
            EstimationConfig(max_iterations=cap)

    @pytest.mark.parametrize("cap", [0, -3, np.int64(0)])
    def test_a_cap_below_one_raises_a_value_error(self, cap):
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            EstimationConfig(max_iterations=cap)

    @pytest.mark.parametrize("cap", [1, 100, np.int64(7)])
    def test_a_positive_integer_cap_is_kept(self, cap):
        assert EstimationConfig(max_iterations=cap).max_iterations == cap
        assert EstimationConfig().max_iterations == 100


class TestCompressedObjective:
    @pytest.mark.parametrize("count,sigma", [(50, 0.0), (50, 1e-3), (3, 1e-3), (4, 1e-3)])
    def test_grid_seed_is_the_least_cell_of_the_per_call_build(self, count, sigma):
        records = synthesized_set(TRUE_GAZE, count=count, seed=47, sigma=sigma)[:count]
        deltas, epsilons, mse = grid_objective(records)
        i, j = np.unravel_index(np.argmin(mse), mse.shape)
        assert grid_init(records) == EyeAzimuths(epsilons[j] + 0.5 * deltas[i],
                                                 epsilons[j] - 0.5 * deltas[i])

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(0.8, 60.0), st.floats(-1.0, 1.0),
           st.integers(3, 200), st.sampled_from([0.0, 1e-4, 1e-2]), st.integers(0, 2**32 - 1))
    def test_grid_seed_scores_the_brute_force_minimum(self, beta, rho, alpha, count, sigma, seed):
        # The separable seed rounds each cell differently from the brute-force grid,
        # so where two cells nearly tie it may pick the other; its cell must then
        # score the reference minimum to 1e-9 relative.
        gaze = GazeState(beta=beta, rho=rho, alpha=alpha)
        records = synthesize_scene(gaze, SceneSpec(count=count, sigma=sigma, seed=seed)).records
        assume(len(records) >= 3)
        seed_azimuths = grid_init(records)
        deltas, epsilons, mse = grid_objective(records)
        dd, ee = np.meshgrid(deltas, epsilons, indexing="ij")
        cell = (ee + 0.5 * dd == seed_azimuths.beta_l) & (ee - 0.5 * dd == seed_azimuths.beta_r)
        assert cell.sum() == 1
        assert mse[cell][0] - mse.min() <= 1e-9 * mse.min()

    def test_grid_state_is_read_only(self):
        records = synthesized_set(TRUE_GAZE, seed=7, sigma=1e-3)
        before = estimate_gaze(records)
        for constant in (_GRID_DELTAS, _GRID_EPSILONS, _GRID_PRODUCTS, _GRID_TURN_PAIRS):
            with pytest.raises(ValueError):
                constant.flat[0] = 0.5
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

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([3, 50]), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    def test_scalar_normal_equations_match_the_matrix_form(self, count, beta_l, beta_r):
        r_factor = _r_factor(synthesized_set(TRUE_GAZE, seed=67, sigma=1e-3)[:count])
        rows = np.vstack([r_factor, np.zeros((4 - len(r_factor), 4))])
        objective, (a, b, d, g_l, g_r) = _linearize(rows[np.triu_indices(4)].tolist(),
                                                    beta_l, beta_r)
        sl, sr, cr, cl = np.sin(beta_l), np.sin(beta_r), np.cos(beta_r), np.cos(beta_l)
        residual = r_factor @ [sl, sr, cr, cl]
        jac = r_factor @ [[cl, 0.0], [0.0, cr], [0.0, -sr], [-sl, 0.0]]
        # sums in another order: agreement to a few ulps of ||R||^2
        scale = np.sum(np.square(r_factor))
        assert abs(objective - residual @ residual) <= 1e-14 * scale
        assert np.abs(np.array([[a, b], [b, d]]) - jac.T @ jac).max() <= 1e-14 * scale
        assert np.abs(np.array([g_l, g_r]) - jac.T @ residual).max() <= 1e-14 * scale

    def test_analytic_jacobian_matches_central_differences(self):
        records = synthesized_set(TRUE_GAZE, seed=61, sigma=1e-3)
        r_factor = _r_factor(records)
        theta = np.array([0.45, 0.02])
        objective, (a, b, d, g_l, g_r) = _linearize(r_factor[np.triu_indices(4)].tolist(), *theta)
        h = 1e-6
        direct_jac = np.column_stack([
            (direct_residuals(records, *(theta + step))
             - direct_residuals(records, *(theta - step))) / (2.0 * h)
            for step in h * np.eye(2)
        ])
        direct = direct_residuals(records, *theta)
        # R = Q^T F with orthonormal Q: the objective and normal equations agree
        assert objective == pytest.approx(direct @ direct, rel=1e-12)
        assert_allclose([[a, b], [b, d]], direct_jac.T @ direct_jac, rtol=1e-8)
        assert_allclose([g_l, g_r], direct_jac.T @ direct, rtol=1e-8)


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
    """Reference: one point's depth through the single-correspondence path, NaN where it raises."""
    try:
        return estimate_depth_map(Correspondences(q_l, q_r), gaze).s
    except DegenerateGeometryError:
        return np.nan


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
        for dec, observed in zip(decompose(TRUE_GAZE, records.p_c), (records.q_l, records.q_r)):
            t, _ = project_parallax_scalar(dec, observed)
            per_eye.append(recover_depth(dec, t))
        assert_allclose(per_eye[0], per_eye[1], rtol=0.0, atol=1e-10)
        assert_allclose(per_eye[0], records.s, rtol=0.0, atol=1e-10)

    def test_triangulation_recovers_scene_points(self):
        # R_c^T p_c (rho + s), the scene point the depth map reads, is the drawn one
        gaze = GazeState(beta=0.2, rho=2.0, alpha=0.4)
        rng = np.random.default_rng(43)
        scene = fixation_point(gaze) + rng.uniform(-0.8, 0.8, (20, 3))
        records = Correspondences(*map(np.array, zip(*(project_both(gaze, x) for x in scene))))
        depth = estimate_depth_map(records, gaze)
        recovered = (gaze.rho + depth.s)[:, None] * (depth.p_c @ eye_poses(gaze).cyclopean.rotation)
        assert_allclose(recovered, scene, rtol=0.0, atol=1e-10)
        for i in range(len(records)):
            single = estimate_depth_map(records[i], gaze)
            assert np.array_equal(single.p_c, depth.p_c[i]) and single.s == depth.s[i]

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

    def test_far_noisy_depths_have_a_bounded_tail(self):
        # Inverting the parallax map in each eye read errors of 2e5 here,
        # near the map's pole; the triangulated point's own depth stays near rho.
        gaze = GazeState(beta=0.0, rho=40.0, alpha=0.2)
        records = synthesize_scene(gaze, SceneSpec(count=2000, sigma=1e-2, seed=11)).records
        depth = estimate_depth_map(records, gaze)
        assert np.nanmax(np.abs(depth.s - records.s)) < 50 * gaze.rho

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
        with pytest.raises(PointAtInfinityError, match="rays are parallel"):
            estimate_depth_map(broken[3], TRUE_GAZE)

    def test_points_behind_an_eye_fail(self):
        # The golden random-box file at a wrong gaze: these rows' closest
        # points on the right ray lie behind the right eye, in front of the
        # Cyclopean eye.
        records = parse_correspondence_file(load_json(GOLDEN_RANDOM_BOX)).records
        depth = estimate_depth_map(records, GazeState(beta=1.3, rho=0.9))
        assert np.flatnonzero(np.isnan(depth.s)).tolist() == [5, 6, 7, 8, 15, 16, 18]
        assert np.isnan(depth.p_c[[5, 6, 7, 8, 15, 16, 18]]).all()

    def test_a_range_that_swallows_the_depth_names_the_rounding(self):
        # At rho = 1e300 row 3 of the golden random-box file triangulates in
        # front of both eyes and of the Cyclopean eye: it fails only because
        # rho + s rounds to 0.
        records = parse_correspondence_file(load_json(GOLDEN_RANDOM_BOX)).records
        gaze = GazeState(beta=0.0, rho=1e300)
        point, u, v = midpoint_oracle(gaze, records.q_l[3], records.q_r[3])
        assert u > 0.0 and v > 0.0 and project(eye_poses(gaze).cyclopean, point)[2] > 1e-12
        with pytest.raises(DegenerateGeometryError, match="rounds to 0") as raised:
            estimate_depth_map(records[3], gaze)
        assert not isinstance(raised.value, BehindEyeError)
        assert np.isnan(estimate_depth_map(records, gaze).s).all()

    def test_a_single_pair_behind_an_eye_raises_naming_it(self):
        records = parse_correspondence_file(load_json(GOLDEN_RANDOM_BOX)).records
        with pytest.raises(BehindEyeError, match="behind the right eye"):
            estimate_depth_map(records[5], GazeState(beta=1.3, rho=0.9))
        # the mirror image: eyes swapped, x and beta negated
        mirror = np.array([-1.0, 1.0, 1.0])
        with pytest.raises(BehindEyeError, match="behind the left eye"):
            estimate_depth_map(Correspondences(records.q_r[5] * mirror, records.q_l[5] * mirror),
                               GazeState(beta=-1.3, rho=0.9))

    @pytest.mark.parametrize("eye,beta", [(0, -0.3), (1, 0.3)], ids=["left", "right"])
    def test_a_point_within_1e_12_of_an_eye_is_refused_by_the_rule(self, eye, beta):
        # points on the eye's axis, 0.15 in front of the Cyclopean eye, at eye
        # depths 5e-13 (at most 1e-12: refused) and 1e-11 (kept)
        gaze = GazeState(beta=beta, rho=2.0)
        points = EYE_CENTRES[eye] + np.outer([5e-13, 1e-11], gaze.rotations[eye][2])
        q_l, q_r = zip(*(project_both(gaze, point) for point in points))
        records = Correspondences(np.array(q_l), np.array(q_r))
        depth = estimate_depth_map(records, gaze)
        assert np.isnan(depth.s[0])
        cyclopean_depth = project(eye_poses(gaze).cyclopean, points[1])[2]
        assert depth.s[1] == pytest.approx(cyclopean_depth - gaze.rho, rel=1e-9)
        with pytest.raises(BehindEyeError, match=f"behind the {('left', 'right')[eye]} eye"):
            estimate_depth_map(records[0], gaze)

    @pytest.mark.parametrize("seed", range(5))
    def test_elevation_changes_no_depth(self, seed):
        # The images are unchanged by a rotation about the baseline, so they
        # cannot constrain alpha: gazes that differ only in alpha give the
        # same failed rows and exactly the same rays and depths.
        records = synthesized_set(TRUE_GAZE, count=200, seed=seed, sigma=1e-3)
        poses = eye_poses(TRUE_GAZE)
        far = np.array([0.1, 0.05, 1.0])          # images of a point at infinity
        records.q_l[3] = normalize_point(poses.left.rotation @ far)
        records.q_r[3] = normalize_point(poses.right.rotation @ far)
        records.q_l[8] = [-0.9, 0.0, 1.0]         # rays that meet behind the eyes
        records.q_r[8] = [0.9, 0.0, 1.0]
        level = estimate_depth_map(records, TRUE_GAZE)
        failed = np.isnan(level.s)
        assert failed[[3, 8]].all() and not failed.all()
        for alpha in (-HALF_PI, -0.3, 0.6, HALF_PI):
            depth = estimate_depth_map(records, GazeState(TRUE_GAZE.beta, TRUE_GAZE.rho, alpha))
            assert np.array_equal(depth.s, level.s, equal_nan=True)
            assert np.array_equal(depth.p_c, level.p_c, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1.2, 1.2), st.floats(0.8, 200.0), st.floats(-1.2, 1.2),
           st.sampled_from([1e-4, 1e-3, 1e-2]), st.integers(0, 2**32 - 1))
    def test_the_closed_form_midpoint_matches_the_head_frame_oracle(
            self, beta, rho, alpha, sigma, seed):
        # noisy images: the rays miss each other, so the midpoint is not an intersection
        gaze = GazeState(beta, rho, alpha)
        records = synthesize_scene(gaze, SceneSpec(count=20, sigma=sigma, seed=seed)).records
        depth = estimate_depth_map(records, gaze)
        poses = eye_poses(gaze)
        for i in range(len(records)):
            point, u, v = midpoint_oracle(gaze, records.q_l[i], records.q_r[i])
            d_l = poses.left.rotation.T @ records.q_l[i]
            d_r = poses.right.rotation.T @ records.q_r[i]
            sine = np.linalg.norm(np.cross(d_l, d_r)) / (np.linalg.norm(d_l) * np.linalg.norm(d_r))
            image = project(poses.cyclopean, point)
            distance = np.linalg.norm(point)
            if sine < 1e-3 or min(u, v, image[2]) < 1e-6 * distance:
                continue  # ill-conditioned, or too near an eye's failure rule
            assert abs(depth.s[i] + rho - image[2]) <= 1e-9 * distance
            ray = image / image[2]
            assert np.abs(depth.p_c[i] - ray).max() <= 1e-9 * np.abs(ray).max()
