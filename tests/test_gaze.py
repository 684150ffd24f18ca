import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cyclovision.errors import DegenerateGeometryError
from cyclovision.gaze import (
    BASELINE,
    EYE_CENTRES,
    MIN_RANGE,
    EyeAzimuths,
    GazeState,
    VergenceVersion,
    direction_from_angles,
    eye_azimuths,
    fixation_point,
    gaze_from_azimuths,
    helmholtz_from_point,
    project,
    vergence_version,
    vieth_muller,
)
from cyclovision.geometry import normalize_point, rot_y

from helpers import azimuths_from_vergence_version, random_gaze

HALF_ATAN = math.atan(0.5)

angles = st.floats(-1.4, 1.4)
ranges = st.floats(0.8, 1e4)
BOOLEANS = [True, False, np.bool_(True), np.array(False)]


class TestBooleansRefused:
    """A boolean is not a number here, though arithmetic reads it as 0 or 1."""

    @pytest.mark.parametrize("value", BOOLEANS)
    @pytest.mark.parametrize("field", ["beta", "rho", "alpha"])
    def test_gaze_state_names_the_field(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be a number"):
            GazeState(**{"beta": 0.2, "rho": 2.0, "alpha": 0.0, field: value})

    @pytest.mark.parametrize("value", BOOLEANS)
    @pytest.mark.parametrize("field", ["beta_l", "beta_r"])
    def test_eye_azimuths_name_the_field(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be a number"):
            EyeAzimuths(**{"beta_l": 1.0, "beta_r": 0.0, field: value})

    @pytest.mark.parametrize("value", BOOLEANS)
    @pytest.mark.parametrize("field", ["delta", "epsilon"])
    def test_vergence_version_names_the_field(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be a number"):
            VergenceVersion(**{"delta": 0.5, "epsilon": 0.0, field: value})


class TestGazeState:
    def test_range_bound_is_enforced_and_named(self):
        with pytest.raises(ValueError, match="0.75"):
            GazeState(beta=0.0, rho=0.0)

    def test_angle_bounds(self):
        with pytest.raises(ValueError):
            GazeState(beta=2.0, rho=1.0)

    def test_azimuth_ordering_enforced(self):
        with pytest.raises(ValueError):
            EyeAzimuths(beta_l=0.1, beta_r=0.2)


class TestDirection:
    def test_straight_ahead(self):
        assert_allclose(direction_from_angles(0.0, 0.0), [0.0, 0.0, 1.0])

    def test_full_right(self):
        assert_allclose(direction_from_angles(0.0, np.pi / 2), [1.0, 0.0, 0.0],
                        atol=1e-16)

    def test_elevated_point_has_negative_y(self):
        # alpha > 0 means above the horizontal plane, which is y < 0
        v = direction_from_angles(np.pi / 4, 0.0)
        assert_allclose(v, [0.0, -np.sqrt(2) / 2, np.sqrt(2) / 2])

    @given(angles, angles)
    def test_unit_length(self, alpha, beta):
        assert abs(np.linalg.norm(direction_from_angles(alpha, beta)) - 1.0) < 1e-12


class TestHelmholtz:
    def test_on_axis_point(self):
        g = helmholtz_from_point(np.array([0.0, 0.0, 2.0]))
        assert (g.alpha, g.beta, g.rho) == (0.0, 0.0, 2.0)

    def test_diagonal_point(self):
        g = helmholtz_from_point(np.array([1.0, 0.0, 1.0]))
        assert g.alpha == 0.0
        assert abs(g.beta - np.pi / 4) < 1e-12
        assert abs(g.rho - np.sqrt(2)) < 1e-12

    def test_round_trip_with_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = rng.uniform([-3, -3, 0.1], [3, 3, 6])
            if np.linalg.norm(p) < MIN_RANGE:
                continue
            g = helmholtz_from_point(p)
            assert_allclose(fixation_point(g), p, atol=1e-9)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            helmholtz_from_point(np.zeros(3))

    def test_backward_hemifield_rejected(self):
        with pytest.raises(ValueError):
            helmholtz_from_point(np.array([0.0, 0.0, -2.0]))


class TestEyeAzimuths:
    def test_symmetric_fixation(self):
        az = eye_azimuths(GazeState(beta=0.0, rho=1.0))
        assert abs(az.beta_l - HALF_ATAN) < 1e-15
        assert abs(az.beta_r + HALF_ATAN) < 1e-15

    def test_azimuths_converge_at_distance(self):
        az = eye_azimuths(GazeState(beta=0.3, rho=1e6))
        assert abs(az.beta_l - 0.3) < 1e-6
        assert abs(az.beta_r - 0.3) < 1e-6

    def test_fixation_point_projects_to_origin(self):
        # the defining property, checked by direct projection
        gaze = GazeState(beta=0.2, rho=2.0)
        for image in project(gaze, fixation_point(gaze))[:2]:
            assert_allclose(normalize_point(image), [0.0, 0.0, 1.0], atol=1e-12)

    def test_extreme_azimuth_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            eye_azimuths(GazeState(beta=np.pi / 2, rho=2.0))


class TestVergenceVersion:
    def test_symmetric_case(self):
        vv = vergence_version(EyeAzimuths(HALF_ATAN, -HALF_ATAN))
        assert abs(vv.delta - 2 * HALF_ATAN) < 1e-15
        assert vv.epsilon == 0.0

    def test_parallel_gaze_has_zero_vergence(self):
        vv = vergence_version(EyeAzimuths(0.1, 0.1))
        assert vv.delta == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["delta", "epsilon"])
    def test_non_finite_is_refused(self, field, value):
        with pytest.raises(ValueError, match="vergence and version must be finite"):
            VergenceVersion(**{"delta": 0.5, "epsilon": 0.0, field: value})

    @pytest.mark.parametrize("delta", [-1e-300, -0.5, math.pi + 1e-15, 4.0])
    def test_vergence_outside_zero_to_pi_is_refused(self, delta):
        with pytest.raises(ValueError, match=r"^vergence must lie in \[0, pi\], got"):
            VergenceVersion(delta, 0.0)

    @given(st.floats(1e-6, 1.0), st.floats(-0.7, 0.7))
    def test_round_trip_with_azimuths(self, delta, epsilon):
        vv = VergenceVersion(delta, epsilon)
        back = vergence_version(azimuths_from_vergence_version(vv))
        assert abs(back.delta - delta) < 1e-12
        assert abs(back.epsilon - epsilon) < 1e-12

    def test_vergence_decreases_with_range(self):
        deltas = [
            vergence_version(eye_azimuths(GazeState(beta=0.25, rho=rho))).delta
            for rho in (0.8, 1.5, 3.0, 10.0, 100.0)
        ]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert all(d >= 0 for d in deltas)


class TestGazeFromAzimuths:
    def test_symmetric_inverse(self):
        g = gaze_from_azimuths(EyeAzimuths(HALF_ATAN, -HALF_ATAN))
        assert abs(g.beta) < 1e-15
        assert abs(g.rho - 1.0) < 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            gaze = random_gaze(rng)
            back = gaze_from_azimuths(eye_azimuths(gaze))
            assert abs(back.beta - gaze.beta) <= 1e-9 * max(1.0, abs(gaze.beta))
            assert abs(back.rho - gaze.rho) <= 1e-9 * gaze.rho

    def test_parallel_axes_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            gaze_from_azimuths(EyeAzimuths(0.1, 0.1))


class TestPoses:
    def test_far_fixation_rotations_are_identity(self):
        left, right, _ = GazeState(beta=0.0, rho=1e9).rotations
        assert_allclose(left, np.eye(3), atol=1e-9)
        assert_allclose(right, np.eye(3), atol=1e-9)

    def test_foveation_over_random_gazes(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            gaze = random_gaze(rng, alpha=(-1.0, 1.0))
            for image in project(gaze, fixation_point(gaze)):
                assert abs(image[0] / image[2]) < 1e-12
                assert abs(image[1] / image[2]) < 1e-12

    def test_relative_rotation_is_vergence_turn(self):
        gaze = GazeState(beta=0.2, rho=2.0)
        az = eye_azimuths(gaze)
        left, right, _ = gaze.rotations
        relative = right @ left.T
        assert_allclose(relative, rot_y(az.beta_r - az.beta_l), atol=1e-15)

    def test_centres(self):
        assert_allclose(EYE_CENTRES, [[-0.5, 0, 0], [0.5, 0, 0], [0, 0, 0]])
        assert_allclose(BASELINE, [1, 0, 0])


class TestViethMuller:
    def test_symmetric_circle_parameters(self):
        vv = vergence_version(eye_azimuths(GazeState(beta=0.0, rho=1.0)))
        circle = vieth_muller(vv)
        assert abs(circle.zeta - 0.375) < 1e-12
        assert abs(circle.eta - 0.625) < 1e-12
        # fixation point sits on the circle
        centre = np.array([0.0, 0.0, circle.zeta])
        assert abs(np.linalg.norm(np.array([0, 0, 1.0]) - centre) - circle.eta) < 1e-12

    def test_right_angle_vergence(self):
        circle = vieth_muller(VergenceVersion(np.pi / 2, 0.0))
        assert abs(circle.zeta) < 1e-12
        assert abs(circle.eta - 0.5) < 1e-12

    def test_optical_centres_always_on_circle(self):
        rng = np.random.default_rng(13)
        for delta in rng.uniform(0.01, 1.2, 200):
            circle = vieth_muller(VergenceVersion(float(delta), 0.0))
            centre = np.array([0.0, 0.0, circle.zeta])
            for c in EYE_CENTRES[:2]:
                assert abs(np.linalg.norm(c - centre) - circle.eta) < 1e-9
            assert circle.eta ** 2 - circle.zeta ** 2 == pytest.approx(0.25, abs=1e-9)

    def test_fixation_point_on_own_circle(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            gaze = random_gaze(rng)
            circle = vieth_muller(vergence_version(eye_azimuths(gaze)))
            centre = np.array([0.0, 0.0, circle.zeta])
            residual = np.linalg.norm(fixation_point(gaze) - centre) - circle.eta
            assert abs(residual) < 1e-9 * circle.eta

    def test_zero_vergence_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            vieth_muller(VergenceVersion(0.0, 0.0))
