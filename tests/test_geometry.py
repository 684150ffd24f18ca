import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cyclovision.errors import BehindEyeError, DegenerateInputError, PointAtInfinityError
from cyclovision.geometry import (
    cross_matrix,
    in_front,
    join,
    meet,
    normalize_in_front,
    normalize_point,
    rot_y,
)

from helpers import projectively_equal

coord = st.floats(min_value=-50.0, max_value=50.0)


@st.composite
def triples(draw, min_abs=1e-3):
    v = np.array([draw(coord), draw(coord), draw(coord)])
    assume(np.abs(v).max() > min_abs)
    return v


class TestCrossMatrix:
    def test_zero_vector(self):
        assert_allclose(cross_matrix(np.zeros(3)), np.zeros((3, 3)))

    def test_unit_x_layout(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        assert_allclose(cross_matrix(np.array([1.0, 0.0, 0.0])), expected)

    @given(triples(), triples())
    def test_matches_componentwise_cross_product(self, w, p):
        assert_allclose(cross_matrix(w) @ p, np.cross(w, p), atol=1e-9)

    @given(triples())
    def test_antisymmetric_and_annihilates_argument(self, w):
        m = cross_matrix(w)
        assert_allclose(m.T, -m)
        assert_allclose(m @ w, np.zeros(3), atol=1e-12 * np.abs(w).max() ** 2)


class TestJoinMeet:
    def test_join_points_on_x_axis(self):
        line = join(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]))
        assert projectively_equal(line, np.array([0.0, 1.0, 0.0]))

    def test_join_incidence(self):
        p = np.array([1.0, 1.0, 1.0])
        q = np.array([2.0, 2.0, 1.0])
        line = join(p, q)
        assert abs(line @ p) < 1e-12
        assert abs(line @ q) < 1e-12

    def test_join_swap_gives_same_line(self):
        p = np.array([1.0, 1.0, 1.0])
        q = np.array([2.0, -2.0, 1.0])
        assert projectively_equal(join(p, q), join(q, p))

    def test_join_coincident_points_raises(self):
        with pytest.raises(DegenerateInputError):
            join(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]))

    @given(triples(), triples(), st.floats(0.1, 10), st.floats(0.1, 10))
    def test_join_scale_invariance(self, p, q, lam, mu):
        assume(not projectively_equal(p, q, tol=1e-6))
        assert projectively_equal(join(lam * p, mu * q), join(p, q), tol=1e-7)

    def test_meet_of_axes_is_origin(self):
        point = meet(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        assert projectively_equal(point, np.array([0.0, 0.0, 1.0]))

    def test_meet_round_trips_through_join(self):
        p = np.array([3.0, -2.0, 1.0])
        m = join(p, np.array([0.0, 0.0, 1.0]))
        n = join(p, np.array([1.0, 5.0, 1.0]))
        assert projectively_equal(meet(m, n), p)

    def test_meet_parallel_lines_is_at_infinity(self):
        point = meet(np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 2.0]))
        assert point[2] == 0.0
        assert np.abs(point).max() > 0.0

    def test_meet_identical_lines_raises(self):
        with pytest.raises(DegenerateInputError):
            meet(np.array([1.0, 2.0, 3.0]), np.array([-2.0, -4.0, -6.0]))

    @given(triples(), triples(), triples())
    # recovers (4.95e-10, 0, -495): its first entry is above 1e-12 after scaling, p's is not
    @example(np.array([1e-12, 0.0, -1.0]), np.array([0.0, 45.0, 0.0]), np.array([11.0, 0.0, 0.0]))
    def test_join_meet_duality(self, p, q, r):
        # meet(join(p,q), join(p,r)) recovers p for non-collinear triples
        assume(np.abs(np.cross(p, q)).max() > 1e-2)
        assume(np.abs(np.cross(p, r)).max() > 1e-2)
        assume(abs(np.cross(p, q) @ r) > 1e-2)
        recovered = meet(join(p, q), join(p, r))
        assert projectively_equal(recovered, p, tol=1e-6)


class TestRotY:
    def test_zero_angle_is_identity(self):
        assert_allclose(rot_y(0.0), np.eye(3))

    def test_quarter_turn_maps_z_to_minus_x(self):
        assert_allclose(rot_y(np.pi / 2) @ np.array([0.0, 0.0, 1.0]),
                        np.array([-1.0, 0.0, 0.0]), atol=1e-15)

    @given(st.floats(-10, 10))
    def test_inverse(self, theta):
        assert_allclose(rot_y(theta) @ rot_y(-theta), np.eye(3), atol=1e-15)

    def test_orthonormal_with_unit_determinant(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(-np.pi, np.pi, 1000):
            r = rot_y(theta)
            assert_allclose(r.T @ r, np.eye(3), atol=1e-15)
            assert abs(np.linalg.det(r) - 1.0) < 1e-14


class TestNormalizePoint:
    def test_scales_third_component_to_one(self):
        assert_allclose(normalize_point(np.array([2.0, 4.0, 2.0])),
                        np.array([1.0, 2.0, 1.0]))

    def test_already_normalized_is_identity(self):
        assert_allclose(normalize_point(np.array([0.0, 0.0, 1.0])),
                        np.array([0.0, 0.0, 1.0]))

    def test_point_at_infinity_raises(self):
        with pytest.raises(PointAtInfinityError):
            normalize_point(np.array([1.0, 1.0, 0.0]))

    def test_batch_marks_points_at_infinity(self):
        points = np.array([[2.0, 4.0, 2.0], [1.0, 1.0, 0.0], [0.0, 0.0, -3.0]])
        normalized = normalize_point(points)
        assert_allclose(normalized[[0, 2]], [[1.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
        assert np.isnan(normalized[1]).all()


KEPT_DEPTH = float(np.nextafter(1e-12, 1.0))


class TestInFront:
    """The one visibility rule: a depth along an eye's axis above 1e-12."""

    @pytest.mark.parametrize("depth", [0.0, 1e-12])
    def test_a_single_point_at_or_below_1e_12_raises_the_callers_message(self, depth):
        with pytest.raises(BehindEyeError, match="^behind the left eye$"):
            in_front(depth, "behind the left eye", 7.0)

    def test_a_single_point_just_above_1e_12_comes_back_as_it_is(self):
        assert in_front(KEPT_DEPTH, "behind", 7.0) == 7.0

    def test_a_batch_reads_nan_in_each_refused_row_of_its_values(self):
        depths = np.array([0.0, 1e-12, KEPT_DEPTH])
        points = np.arange(9.0).reshape(3, 3)
        marked = in_front(depths, "behind", points)
        assert np.isnan(marked[:2]).all() and marked[2].tolist() == [6.0, 7.0, 8.0]
        assert np.isnan(in_front(depths, "behind", depths)[:2]).all()
        assert in_front(depths, "behind", depths)[2] == KEPT_DEPTH


class TestNormalizeInFront:
    def test_a_depth_of_exactly_1e_12_is_refused(self):
        with pytest.raises(BehindEyeError):
            normalize_in_front(np.array([0.5, 0.25, 1e-12]), "behind")

    def test_the_next_depth_up_is_accepted(self):
        depth = float(np.nextafter(1e-12, 1.0))
        image, got = normalize_in_front(np.array([0.5, 0.25, depth]), "behind")
        assert image.tolist() == [0.5 / depth, 0.25 / depth, 1.0]
        assert got == depth

    @pytest.mark.parametrize("depth", [0.0, -0.0, -2.0])
    def test_a_single_image_raises_with_the_callers_message(self, depth):
        with pytest.raises(BehindEyeError, match="^point lies behind the left eye$"):
            normalize_in_front(np.array([1.0, 2.0, depth]), "point lies behind the left eye")

    def test_a_batch_reads_nan_in_each_failing_row_without_a_warning(self):
        images = np.array([[2.0, 4.0, 2.0], [1.0, 1.0, 1e-12], [0.0, 0.0, -3.0],
                           [3.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            normalized, depths = normalize_in_front(images, "behind")
        assert normalized[[0, 3]].tolist() == [[1.0, 2.0, 1.0], [3.0, 0.0, 1.0]]
        assert depths[[0, 3]].tolist() == [2.0, 1.0]
        assert np.isnan(normalized[[1, 2]]).all() and np.isnan(depths[[1, 2]]).all()
