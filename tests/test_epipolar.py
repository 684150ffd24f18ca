import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclovision.epipolar import (
    construct_line_via_fixed_point,
    epipolar_line,
    epipolar_residual,
    epipoles,
    essential_closed_form,
    essential_from_horopter,
    essential_traditional,
)
from cyclovision.errors import DegenerateGeometryError, DegenerateInputError
from cyclovision.gaze import (
    BASELINE,
    EYE_CENTRES,
    EyeAzimuths,
    GazeState,
    eye_azimuths,
    project,
    vergence_version,
)
from cyclovision.geometry import (
    cross_matrix,
    join,
    normalize_point,
)
from cyclovision.horopter import midline

from helpers import (
    midline_image_point,
    project_both,
    projectively_equal,
    proportional_form,
    random_gaze,
)


def symmetric_az():
    return eye_azimuths(GazeState(beta=0.0, rho=1.0))


def three_forms(gaze):
    az = eye_azimuths(gaze)
    mid = midline(vergence_version(az))
    return (
        essential_from_horopter(epipoles(az), mid.image_line),
        essential_closed_form(az),
        essential_traditional(gaze.rotations, EYE_CENTRES),
    )


def random_correspondence(gaze, rng):
    """Correspondence by direct projection of a random forward scene point."""
    scene = fixation_scene_point(gaze, rng)
    return project_both(gaze, scene)


def fixation_scene_point(gaze, rng):
    # a point in a box around the fixation point, in front of both eyes
    centre = gaze.rho * np.array([np.sin(gaze.beta), 0.0, np.cos(gaze.beta)])
    return centre + rng.uniform(-0.3, 0.3, 3) * min(gaze.rho, 5.0)


class TestEpipoles:
    def test_symmetric_values(self):
        epi = epipoles(symmetric_az())
        c, s = 2 / np.sqrt(5), 1 / np.sqrt(5)
        assert_allclose(epi.e_l, [c, 0.0, s], atol=1e-12)
        # beta_r = -beta_l, so -sin(beta_r) = +s
        assert_allclose(epi.e_r, [-c, 0.0, s], atol=1e-12)
        # inhomogeneous positions at x = +-2
        assert abs(normalize_point(epi.e_l)[0] - 2.0) < 1e-12
        assert abs(normalize_point(epi.e_r)[0] + 2.0) < 1e-12

    def test_straight_left_eye_epipole_at_infinity(self):
        epi = epipoles(EyeAzimuths(0.0, -0.3))
        assert projectively_equal(epi.e_l, np.array([1.0, 0.0, 0.0]))

    def test_epipole_is_image_of_other_centre(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            gaze = random_gaze(rng)
            epi = epipoles(eye_azimuths(gaze))
            r_l, r_r, _ = gaze.rotations
            assert projectively_equal(epi.e_l, r_l @ BASELINE)
            assert projectively_equal(epi.e_r, r_r @ -BASELINE)
            assert projectively_equal(epi.e_l, project(gaze, EYE_CENTRES[1])[0])
            assert projectively_equal(epi.e_r, project(gaze, EYE_CENTRES[0])[1])


class TestEssentialForms:
    def test_symmetric_closed_form_entries(self):
        e = essential_closed_form(symmetric_az())
        c, s = 2 / np.sqrt(5), 1 / np.sqrt(5)
        expected = np.array([[0, s, 0], [s, 0, -c], [0, c, 0]])
        assert_allclose(e, expected, atol=1e-12)

    def test_zero_pattern_pinned(self):
        # exactly four nonzero entries; the other five vanish by construction
        e = essential_closed_form(EyeAzimuths(0.42, -0.13))
        for i, j in ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2)):
            assert e[i, j] == 0.0
        assert e[0, 1] == -np.sin(-0.13)
        assert e[1, 0] == np.sin(0.42)
        assert e[1, 2] == -np.cos(0.42)
        assert e[2, 1] == np.cos(-0.13)

    def test_parallel_gaze_is_pure_translation(self):
        e = essential_closed_form(EyeAzimuths(0.0, 0.0))
        assert_allclose(e, cross_matrix(BASELINE))

    def test_three_way_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            gaze = random_gaze(rng, alpha=(-1.0, 1.0))
            horopter_e, closed_e, traditional_e = three_forms(gaze)
            a = proportional_form(horopter_e)
            b = proportional_form(closed_e)
            c = proportional_form(traditional_e)
            assert np.abs(a - b).max() < 1e-9
            assert np.abs(a - c).max() < 1e-9

    def test_horopter_form_scale_factor(self):
        # the raw product carries the predicted cos(delta/2) overall scale
        gaze = GazeState(beta=0.17, rho=1.9)
        az = eye_azimuths(gaze)
        vv = vergence_version(az)
        horopter_e, closed_e, _ = three_forms(gaze)
        assert_allclose(horopter_e, np.cos(vv.delta / 2) * closed_e, atol=1e-12)

    def test_singular_values_unit_unit_zero(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            gaze = random_gaze(rng)
            for e in three_forms(gaze):
                sv = np.linalg.svd(e, compute_uv=False)
                assert abs(sv[1] / sv[0] - 1.0) < 1e-9
                assert sv[2] / sv[0] < 1e-9
        # the closed form is already unit-normalized
        sv = np.linalg.svd(essential_closed_form(symmetric_az()), compute_uv=False)
        assert_allclose(sv[:2], [1.0, 1.0], atol=1e-12)
        assert sv[2] < 1e-15

    def test_epipoles_span_the_null_spaces(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            gaze = random_gaze(rng)
            az = eye_azimuths(gaze)
            e = essential_closed_form(az)
            epi = epipoles(az)
            assert np.abs(e @ epi.e_l).max() < 1e-12
            assert np.abs(e.T @ epi.e_r).max() < 1e-12

    def test_traditional_with_identity_rotations(self):
        assert_allclose(essential_traditional(np.stack([np.eye(3)] * 2), EYE_CENTRES),
                        cross_matrix(BASELINE))


class TestEpipolarConstraint:
    def test_residual_zero_for_projected_points(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            gaze = random_gaze(rng, rho=(0.8, 20.0))
            e = essential_closed_form(eye_azimuths(gaze))
            q_l, q_r = random_correspondence(gaze, rng)
            assert abs(epipolar_residual(e, q_l, q_r)) < 1e-9

    def test_fixation_point_line_is_horizontal_meridian(self):
        # E (0,0,1)^T picks the third column: the meridian y = 0, which
        # passes through the right epipole and the right fixation image
        az = symmetric_az()
        e = essential_closed_form(az)
        line = epipolar_line(e, np.array([0.0, 0.0, 1.0]))
        assert projectively_equal(line, np.array([0.0, 1.0, 0.0]))
        assert abs(line @ epipoles(az).e_r) < 1e-12
        assert abs(line @ np.array([0.0, 0.0, 1.0])) < 1e-12

    def test_epipolar_lines_pass_through_their_epipole(self):
        rng = np.random.default_rng(41)
        gaze = GazeState(beta=0.25, rho=1.7)
        az = eye_azimuths(gaze)
        e = essential_closed_form(az)
        epi = epipoles(az)
        for _ in range(100):
            q = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0])
            assert abs(epipolar_line(e, q) @ epi.e_r) < 1e-12
            assert abs(epipolar_line(e.T, q) @ epi.e_l) < 1e-12

    def test_correspondent_lies_on_the_line(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            gaze = random_gaze(rng, rho=(0.8, 20.0))
            e = essential_closed_form(eye_azimuths(gaze))
            q_l, q_r = random_correspondence(gaze, rng)
            u_r = epipolar_line(e, q_l)
            u_r = u_r / np.linalg.norm(u_r)
            assert abs(u_r @ q_r) < 1e-9
            u_l = epipolar_line(e.T, q_r)
            u_l = u_l / np.linalg.norm(u_l)
            assert abs(u_l @ q_l) < 1e-9

    def test_point_at_epipole_rejected(self):
        az = symmetric_az()
        e = essential_closed_form(az)
        with pytest.raises(DegenerateGeometryError):
            epipolar_line(e, epipoles(az).e_l)
        with pytest.raises(DegenerateGeometryError):
            epipolar_line(e.T, epipoles(az).e_r)

    def test_residual_zero_on_horopter(self):
        gaze = GazeState(beta=0.1, rho=1.4)
        e = essential_closed_form(eye_azimuths(gaze))
        q_l, q_r = project_both(gaze, fixation_point_of(gaze))
        assert epipolar_residual(e, q_l, q_r) == pytest.approx(0.0, abs=1e-12)

    def test_residual_sign_flips_with_perturbation(self):
        gaze = GazeState(beta=0.1, rho=1.4)
        e = essential_closed_form(eye_azimuths(gaze))
        rng = np.random.default_rng(47)
        q_l, q_r = random_correspondence(gaze, rng)
        up = epipolar_residual(e, q_l, q_r + np.array([0.0, 0.01, 0.0]))
        down = epipolar_residual(e, q_l, q_r - np.array([0.0, 0.01, 0.0]))
        assert up != 0.0
        assert np.sign(up) == -np.sign(down)


def fixation_point_of(gaze):
    return gaze.rho * np.array([np.sin(gaze.beta), 0.0, np.cos(gaze.beta)])


class TestConstructionViaFixedPoint:
    def test_equals_matrix_route(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            gaze = random_gaze(rng, rho=(0.8, 20.0))
            az = eye_azimuths(gaze)
            epi = epipoles(az)
            mid = midline(vergence_version(az))
            e = essential_closed_form(az)
            q_l = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), 1.0])
            constructed = construct_line_via_fixed_point(epi, mid.image_line, q_l)
            assert projectively_equal(constructed, epipolar_line(e, q_l))

    def test_fixed_point_is_its_own_correspondence(self):
        az = eye_azimuths(GazeState(beta=0.2, rho=1.5))
        epi = epipoles(az)
        mid = midline(vergence_version(az))
        q_l = normalize_point(midline_image_point(mid, -0.4))
        line = construct_line_via_fixed_point(epi, mid.image_line, q_l)
        assert abs(line @ q_l) < 1e-9 * np.linalg.norm(line)

    def test_intermediate_point_is_on_midline_image(self):
        az = eye_azimuths(GazeState(beta=0.2, rho=1.5))
        epi = epipoles(az)
        mid = midline(vergence_version(az))
        q_l = np.array([0.3, -0.2, 1.0])
        u_l = join(epi.e_l, q_l)
        q_a = np.cross(np.asarray(mid.image_line), u_l)
        assert abs(np.asarray(mid.image_line) @ q_a) < 1e-15

    def test_degenerate_when_epipolar_line_equals_midline(self):
        az = eye_azimuths(GazeState(beta=0.2, rho=1.5))
        epi = epipoles(az)
        q_l = np.array([0.3, -0.2, 1.0])
        contrived_midline = join(epi.e_l, q_l)  # forces the meet to degenerate
        with pytest.raises(DegenerateInputError):
            construct_line_via_fixed_point(epi, contrived_midline, q_l)
