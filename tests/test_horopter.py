import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclovision.errors import DegenerateGeometryError
from cyclovision.gaze import (
    EYE_CENTRES,
    GazeState,
    VergenceVersion,
    eye_azimuths,
    fixation_point,
    project,
    vergence_version,
    vieth_muller,
)
from cyclovision.geometry import rot_x
from cyclovision.horopter import (
    forward_arc_limit,
    horopter_component,
    midline,
    vm_point,
)

from helpers import midline_image_point, project_both, projectively_equal, random_gaze


def symmetric_vv():
    return vergence_version(eye_azimuths(GazeState(beta=0.0, rho=1.0)))


class TestVmPoint:
    def test_top_of_circle(self):
        circle = vieth_muller(symmetric_vv())
        assert_allclose(vm_point(circle, 0.0),
                        [0.0, 0.0, circle.zeta + circle.eta])

    def test_symmetric_top_is_unit_distance(self):
        circle = vieth_muller(symmetric_vv())
        assert_allclose(vm_point(circle, 0.0), [0.0, 0.0, 1.0], atol=1e-12)

    def test_points_satisfy_circle_equation(self):
        rng = np.random.default_rng(2)
        circle = vieth_muller(VergenceVersion(0.7, 0.1))
        limit = forward_arc_limit(circle)
        for theta in rng.uniform(-limit, limit, 100):
            x, y, z = vm_point(circle, theta)
            assert y == 0.0
            assert abs(x**2 + (z - circle.zeta) ** 2 - circle.eta**2) < 1e-12
            assert z >= -1e-12

    def test_projects_to_equal_image_points(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            gaze = random_gaze(rng, rho=(0.8, 10.0))
            circle = vieth_muller(vergence_version(eye_azimuths(gaze)))
            theta = rng.uniform(-0.9, 0.9) * forward_arc_limit(circle)
            q_l, q_r = project_both(gaze, vm_point(circle, float(theta)))
            assert projectively_equal(q_l, q_r, tol=1e-9)

    def test_backward_arc_rejected(self):
        circle = vieth_muller(symmetric_vv())
        with pytest.raises(ValueError):
            vm_point(circle, np.pi)


class TestMidline:
    def test_symmetric_image_line_and_base(self):
        mid = midline(symmetric_vv())
        assert projectively_equal(mid.image_line, np.array([1.0, 0.0, 0.0]))
        assert_allclose(np.asarray(mid.image_base) / mid.image_base[2],
                        [0.0, 0.0, 1.0], atol=1e-15)
        assert_allclose(mid.scene_base, [0.0, 0.0, 1.0], atol=1e-12)

    def test_eye_frame_coordinates_identical(self):
        # hand case: scene point (0, -1/2, 1) at beta=0, rho=1 has the same
        # full eye-frame coordinates (0, -1/2, sqrt(5)/2) in the two eyes
        gaze = GazeState(beta=0.0, rho=1.0)
        left, right, _ = project(gaze, np.array([0.0, -0.5, 1.0]))
        assert_allclose(left, right, atol=1e-15)
        assert_allclose(left, [0.0, -0.5, np.sqrt(5) / 2], atol=1e-12)

    def test_base_equidistant_from_both_eyes(self):
        vv = VergenceVersion(0.5, 0.2)
        mid = midline(vv)
        reach = 0.5 / np.sin(vv.delta / 2)
        for centre in EYE_CENTRES[:2]:
            assert abs(np.linalg.norm(mid.scene_base - centre) - reach) < 1e-12

    def test_base_inscribes_vergence_angle(self):
        vv = VergenceVersion(0.62, -0.15)
        mid = midline(vv)
        to_l, to_r = EYE_CENTRES[:2] - mid.scene_base
        cos_angle = to_l @ to_r / (np.linalg.norm(to_l) * np.linalg.norm(to_r))
        assert abs(np.arccos(cos_angle) - vv.delta) < 1e-12

    def test_image_base_matches_projection(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            gaze = random_gaze(rng, rho=(0.8, 20.0))
            mid = midline(vergence_version(eye_azimuths(gaze)))
            q_l, q_r = project_both(gaze, mid.scene_base)
            assert projectively_equal(q_l, np.asarray(mid.image_base), tol=1e-9)
            assert projectively_equal(q_r, np.asarray(mid.image_base), tol=1e-9)

    def test_zero_vergence_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            midline(VergenceVersion(0.0, 0.0))


class TestMidlineImagePoint:
    def test_zero_height_is_base(self):
        mid = midline(symmetric_vv())
        assert_allclose(midline_image_point(mid, 0.0), np.asarray(mid.image_base))

    def test_always_on_image_line(self):
        mid = midline(VergenceVersion(0.8, 0.3))
        for y in (-2.0, -0.5, 0.0, 0.7, 10.0):
            q = midline_image_point(mid, y)
            assert abs(np.asarray(mid.image_line) @ q) < 1e-15

    def test_matches_projection_of_scene_point(self):
        gaze = GazeState(beta=0.0, rho=1.0)
        mid = midline(vergence_version(eye_azimuths(gaze)))
        q_l, q_r = project_both(gaze, np.array([0.0, -0.5, 1.0]))
        expected = midline_image_point(mid, -0.5)
        assert projectively_equal(q_l, expected, tol=1e-12)
        assert projectively_equal(q_r, expected, tol=1e-12)


class TestMembership:
    def test_fixation_point_is_on_circle_component(self):
        gaze = GazeState(beta=0.2, rho=2.0)
        assert horopter_component(fixation_point(gaze), gaze) == "circle"

    def test_midline_point(self):
        gaze = GazeState(beta=0.0, rho=1.0)
        circle = vieth_muller(vergence_version(eye_azimuths(gaze)))
        q = np.array([0.0, -0.5, circle.zeta + circle.eta])
        assert horopter_component(q, gaze) == "midline"

    def test_generic_point_is_off(self):
        gaze = GazeState(beta=0.0, rho=1.0)
        q = np.array([0.3, 0.2, 1.1])
        assert horopter_component(q, gaze) == "none"
        q_l, q_r = project_both(gaze, q)
        assert not projectively_equal(q_l, q_r, tol=1e-6)

    def test_elevated_gaze_memberships(self):
        gaze = GazeState(beta=0.15, rho=1.6, alpha=0.4)
        assert horopter_component(fixation_point(gaze), gaze) != "none"
        circle = vieth_muller(vergence_version(eye_azimuths(gaze)))
        midline_scene = rot_x(gaze.alpha) @ np.array(
            [0.0, 0.8, circle.zeta + circle.eta]
        )
        assert horopter_component(midline_scene, gaze) == "midline"
        q_l, q_r = project_both(gaze, midline_scene)
        assert_allclose(q_l, q_r, atol=1e-12)

    def test_full_frame_equality_on_midline(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            gaze = random_gaze(rng, rho=(0.8, 10.0))
            circle = vieth_muller(vergence_version(eye_azimuths(gaze)))
            scene = np.array([0.0, float(rng.uniform(-2, 2)), circle.zeta + circle.eta])
            left, right, _ = project(gaze, scene)
            assert_allclose(left, right, atol=1e-12)
