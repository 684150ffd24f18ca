import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclovision.epipolar import epipolar_residual, essential_closed_form
from cyclovision.estimation import estimate_depth_map
from cyclovision.gaze import GazeState, eye_azimuths, project
from cyclovision.geometry import normalize_point, transform
from cyclovision.simulate import (
    GENERATORS,
    PATCH_HALF_WIDTH,
    SceneSpec,
    _scene_candidates,
    default_region,
    synthesize_scene,
)

from helpers import NOT_INTEGERS

GAZE = GazeState(beta=0.1, rho=1.5)


class TestSceneSpec:
    def test_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            SceneSpec(generator="mystery")

    def test_rejects_bad_count_and_sigma(self):
        with pytest.raises(ValueError):
            SceneSpec(count=0)
        with pytest.raises(ValueError):
            SceneSpec(sigma=-1.0)

    @pytest.mark.parametrize("field", ["count", "seed"])
    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_rejects_a_count_or_seed_that_is_not_an_integer(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            SceneSpec(**{field: value})

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)])
    def test_accepts_python_and_numpy_integers(self, value):
        assert SceneSpec(count=value, seed=value) == SceneSpec(count=3, seed=3)
        assert len(synthesize_scene(GAZE, SceneSpec(count=value, seed=value)).records) == 3

    @pytest.mark.parametrize("field,value", [
        ("sigma", True), ("sigma", np.bool_(True)), ("sigma", "0.1"), ("sigma", None),
        ("region bound", ((0.0, 1.0), (False, 1.0), (1.0, 2.0))),
        ("region bound", ((0.0, 1.0), (0.0, 1.0), (1.0, "2"))),
        ("sigma", Fraction(1, 10)), ("sigma", Decimal("0.1")),
        ("region bound", ((Fraction(0), 1.0), (0.0, 1.0), (1.0, 2.0))),
        ("region bound", ((0.0, 1.0), (0.0, Decimal(1)), (1.0, 2.0))),
    ])
    def test_rejects_a_sigma_or_region_bound_that_is_not_a_real_number(self, field, value):
        name = "sigma" if field == "sigma" else "region"
        with pytest.raises(TypeError, match=f"^{field} must be a number"):
            SceneSpec(**{name: value})

    def test_reads_a_sigma_too_large_for_a_float_as_not_finite(self):
        with pytest.raises(ValueError, match="^sigma must be finite"):
            SceneSpec(sigma=10**400)

    @pytest.mark.parametrize("pair", [(0, 10**400), (-10**400, 0), (1e308, 10**400),
                                      (-10**400, 10**400)],
                             ids=["high", "low", "high-beside-a-float", "both"])
    def test_reads_a_bound_too_large_for_a_float_as_not_finite(self, pair):
        with pytest.raises(ValueError, match="^region bounds and their width must be finite"):
            SceneSpec(region=((0.0, 1.0), pair, (1.0, 2.0)))

    @pytest.mark.parametrize("region", [((0, 1), (0, 1)), ((0, 1), (0, 1), (0, 1), (0, 1)),
                                        ((0, 1), (0, 1), (0, 1, 2)), ((0, 1), (0, 1), 5), 5, ()])
    def test_rejects_a_region_that_is_not_three_pairs(self, region):
        with pytest.raises(ValueError, match="^region must be three"):
            SceneSpec(region=region)

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), 0, np.int64(0)])
    def test_accepts_python_and_numpy_real_sigmas_and_bounds(self, value):
        region = ((value, 1.0), (-1.0, 1.0), (1.0, 2.0))
        assert SceneSpec(sigma=value, region=region) == SceneSpec(sigma=float(value),
                                                                  region=region)

    @pytest.mark.parametrize("kind", ["list", "ndarray", "mutated-list"])
    def test_keeps_the_checked_floats_not_the_callers_region(self, kind):
        region = ((-1.0, 1.0), (-0.5, 0.5), (1.0, 3.0))
        given_region = np.array(region) if kind == "ndarray" else [list(p) for p in region]
        spec = SceneSpec(count=40, sigma=np.float64(1e-3), seed=4, region=given_region)
        if kind == "mutated-list":  # an inverted z pair and an infinite bound
            given_region[2][:] = [5, 2]
            given_region[0][1] = math.inf
        expected = SceneSpec(count=40, sigma=1e-3, seed=4, region=region)
        assert spec.region == region and type(spec.region) is tuple
        assert all(type(pair) is tuple and type(b) is float for pair in spec.region for b in pair)
        assert type(spec.sigma) is float
        assert spec == expected and hash(spec) == hash(expected)
        result, reference = synthesize_scene(GAZE, spec), synthesize_scene(GAZE, expected)
        assert result.skipped == reference.skipped
        for name in ("q_l", "q_r", "p_c", "s"):
            assert same_bytes(getattr(result.records, name), getattr(reference.records, name))

    @pytest.mark.parametrize("generator", ["horopter-samples", "fixation-plane-patch"])
    def test_rejects_a_region_that_the_generator_would_ignore(self, generator):
        message = f"^region bounds random-box points only, not {generator}$"
        with pytest.raises(ValueError, match=message):
            SceneSpec(generator=generator, region=((0.0, 1.0), (0.0, 1.0), (1.0, 2.0)))

    def test_rejects_inverted_region(self):
        with pytest.raises(ValueError):
            SceneSpec(region=((1.0, -1.0), (-1.0, 1.0), (0.5, 2.0)))

    def test_default_region_brackets_fixation_point(self):
        region = default_region(GAZE)
        assert region[2][0] < GAZE.rho * np.cos(GAZE.beta) < region[2][1]


class TestFiniteScenes:
    """Inputs that would overflow the box draw or the noise fail early,
    with a ValueError that names the flag at fault."""

    @pytest.mark.parametrize("gaze,spec,name", [
        (GAZE, dict(sigma=float("nan")), "sigma"),
        (GAZE, dict(sigma=float("inf")), "sigma"),
        (GAZE, dict(sigma=1e308, count=50), "sigma"),
        (GAZE, dict(region=((-1e308, 1e308), (-1.0, 1.0), (1.0, 3.0))), "region"),
        (GAZE, dict(region=((0.0, 1.0), (0.0, 1.0), (1.0, float("inf")))), "region"),
        (GazeState(beta=0.0, rho=1.7e308), dict(), "rho"),
    ])
    def test_rejected_with_the_flag_named(self, gaze, spec, name):
        with pytest.raises(ValueError, match=f"^{name}"):
            synthesize_scene(gaze, SceneSpec(**spec))


class TestSynthesizeScene:
    def test_deterministic_for_seed(self):
        a = synthesize_scene(GAZE, SceneSpec(count=25, seed=3, sigma=1e-3))
        b = synthesize_scene(GAZE, SceneSpec(count=25, seed=3, sigma=1e-3))
        assert a.skipped == b.skipped
        assert np.array_equal(a.records.q_l, b.records.q_l)
        assert np.array_equal(a.records.q_r, b.records.q_r)

    def test_noiseless_records_satisfy_epipolar_constraint(self):
        result = synthesize_scene(GAZE, SceneSpec(count=100, seed=5))
        e = essential_closed_form(eye_azimuths(GAZE))
        for q_l, q_r in zip(result.records.q_l, result.records.q_r):
            assert abs(epipolar_residual(e, q_l, q_r)) < 1e-9

    def test_noise_perturbs_images_not_truth(self):
        clean = synthesize_scene(GAZE, SceneSpec(count=25, seed=7))
        noisy = synthesize_scene(GAZE, SceneSpec(count=25, seed=7, sigma=1e-3))
        rc, rn = clean.records, noisy.records
        assert len(rc) == len(rn)
        assert (rc.q_l != rn.q_l).any(axis=1).all()
        assert np.abs(rc.q_l - rn.q_l).max() < 0.01
        assert (rn.q_l[:, 2] == 1.0).all()
        assert np.array_equal(rc.p_c, rn.p_c)
        assert np.array_equal(rc.s, rn.s)

    def test_noise_is_drawn_per_row_left_then_right(self):
        # the noise stream follows the scene draw: two values for the left
        # image, then two for the right, row by row
        spec = SceneSpec(count=25, seed=7, sigma=1e-3)
        clean = synthesize_scene(GAZE, SceneSpec(count=25, seed=7)).records
        noisy = synthesize_scene(GAZE, spec).records
        rng = np.random.default_rng(7)
        rng.uniform(size=(25, 3))
        for i in range(len(noisy)):
            assert np.array_equal(noisy.q_l[i, :2], clean.q_l[i, :2] + rng.normal(0.0, 1e-3, 2))
            assert np.array_equal(noisy.q_r[i, :2], clean.q_r[i, :2] + rng.normal(0.0, 1e-3, 2))

    def test_plane_patch_depths_are_zero(self):
        result = synthesize_scene(GAZE, SceneSpec(generator="fixation-plane-patch",
                                                  count=40, seed=9))
        assert len(result.records) == 40
        assert (result.records.s == 0.0).all()

    def test_horopter_samples_lie_on_the_meridian(self):
        result = synthesize_scene(GAZE, SceneSpec(generator="horopter-samples",
                                                  count=40, seed=11))
        records = result.records
        assert np.abs(records.q_l[:, 1]).max() < 1e-12
        assert np.abs(records.q_r[:, 1]).max() < 1e-12
        # fixed points: both images coincide
        assert np.abs(records.q_l - records.q_r).max() < 1e-9

    def test_points_behind_eyes_are_skipped_and_counted(self):
        # a box straddling the baseline plane puts some points behind the eyes
        region = ((-0.5, 0.5), (-0.5, 0.5), (-1.0, 1.0))
        result = synthesize_scene(GAZE, SceneSpec(count=200, seed=13, region=region))
        assert result.skipped > 0
        assert len(result.records) + result.skipped == 200
        records = result.records
        for p_c, s in zip(records.p_c, records.s):
            scene = (GAZE.rho + s) * (GAZE.rotations[2].T @ p_c)
            left, right, _ = project(GAZE, scene)
            assert left[2] > 0 and right[2] > 0

    def test_elevated_gaze_synthesis_matches_projection(self):
        gaze = GazeState(beta=0.2, rho=2.0, alpha=0.5)
        result = synthesize_scene(gaze, SceneSpec(count=30, seed=15))
        records = result.records
        for p_c, s, q_l in zip(records.p_c, records.s, records.q_l):
            scene = (gaze.rho + s) * (gaze.rotations[2].T @ p_c)
            left = project(gaze, scene)[0]
            assert np.abs(q_l - left / left[2]).max() < 1e-9


def drawn_scene(gaze: GazeState, spec: SceneSpec):
    """The candidate scene points of ``spec``, drawn as ``synthesize_scene``
    draws them, and the patch's drawn rays (None for the other generators)."""
    rng = np.random.default_rng(spec.seed)
    if spec.generator != "fixation-plane-patch":
        return _scene_candidates(gaze, spec, rng)[0], None
    offsets = rng.uniform(-PATCH_HALF_WIDTH, PATCH_HALF_WIDTH, (spec.count, 2))
    rays = np.column_stack([offsets, np.ones(spec.count)])
    turn_back = gaze.rotations[2].T
    return np.array([gaze.rho * transform(turn_back, ray) for ray in rays]), rays


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


scene_gazes = st.builds(GazeState, beta=st.floats(-1.4, 1.4), rho=st.floats(0.75, 100.0),
                        alpha=st.floats(-math.pi / 2, math.pi / 2))
# random-box regions that may reach around and behind the eyes, or the default box
scene_regions = st.one_of(st.none(), st.tuples(
    *[st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 6.0))] * 3
).map(lambda pairs: tuple((low, low + width) for low, width in pairs)))


class TestPinholeSynthesis:
    """Synthesis is one pinhole projection through the three eye poses."""

    @settings(max_examples=150, deadline=None)
    @given(scene_gazes, st.sampled_from(GENERATORS), scene_regions,
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_rows_are_the_projections_of_the_points_in_front_of_all_three_eyes(
            self, gaze, generator, region, count, seed):
        spec = SceneSpec(generator=generator, count=count, seed=seed,
                         region=region if generator == "random-box" else None)
        records = synthesize_scene(gaze, spec).records
        scene, rays = drawn_scene(gaze, spec)
        with np.errstate(all="ignore"):
            expected = []
            for i, point in enumerate(scene):
                left, right, cyclopean = project(gaze, point)
                if not all(image[2] > 1e-12 for image in (left, right, cyclopean)):
                    continue
                q_l, q_r = left / left[2], right / right[2]
                p_c, s = ((rays[i], 0.0) if rays is not None
                          else (normalize_point(cyclopean), cyclopean[2] - gaze.rho))
                if np.isfinite(q_l + q_r).all() and np.isfinite(p_c).all():
                    expected.append((q_l, q_r, p_c, s))
        assert len(records) == len(expected)
        for row, (q_l, q_r, p_c, s) in zip(records, expected):
            assert same_bytes(row.q_l, q_l) and same_bytes(row.q_r, q_r)
            assert same_bytes(row.p_c, p_c) and same_bytes(row.s, s)

    @settings(max_examples=150, deadline=None)
    @given(scene_gazes, st.sampled_from(GENERATORS), scene_regions,
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_the_depth_map_at_the_true_gaze_recovers_every_kept_row(
            self, gaze, generator, region, count, seed):
        spec = SceneSpec(generator=generator, count=count, seed=seed,
                         region=region if generator == "random-box" else None)
        records = synthesize_scene(gaze, spec).records
        depth = estimate_depth_map(records, gaze)
        assert not np.isnan(depth.s).any()
        error = np.abs(depth.p_c - records.p_c).max(axis=1, initial=0.0)
        assert (error <= 1e-9 * (1.0 + np.abs(records.p_c).max(axis=1, initial=0.0))).all()
        assert (np.abs(depth.s - records.s) <= 1e-9 * (gaze.rho + np.abs(records.s))).all()
