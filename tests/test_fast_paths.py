"""The per-call shortcuts agree bit for bit with their reference formulations.

- ``mark_failures`` returns a batch without failing rows as it is.
- ``decompose`` reads each eye's sine and cosine off that eye's rotation.
- ``_r_factor`` normalizes both images in one ``normalize_point`` call on
  their (2, N, 3) stack and writes the four feature columns into one array.
- Each damped step of ``estimate_gaze`` is ``_damped_step``, a closed-form
  2 x 2 solve on Python floats, whose backward error is pinned instead of
  its bits; a system that is not positive definite gives a NaN step, which
  the fit rejects, instead of an exception.
- ``GazeState``, ``EyeAzimuths``, ``VergenceVersion`` and ``estimate_gaze``
  convert each number to a Python float after one type test, and check it
  with ``math.isfinite``; an integer too large for a float reads as
  infinite. A number is a Python float or int, or a numpy scalar or 0-d
  array of integer or float kind, and never a bool. A numpy gaze computes
  as the float gaze of the same value.
- ``GazeState.rotations`` builds a gaze's three eye rotations once, read-only,
  and a copied or unpickled gaze builds its own.
- ``project`` images points in the three eyes with one stacked ``transform``,
  and ``synthesize_scene`` makes one ``project`` call a scene.
- The random box is drawn as ``rng.random`` scaled and shifted in place,
  ``rng.uniform``'s own formula without its broadcast path.

Each must give the same bits as the long way in ``helpers`` (or in numpy),
with NaN rows counted as equal, and fail the same way where the long way
fails. (The separable grid seed is checked against the brute-force grid in
``tests/test_estimation.py``.)
"""

import copy
import dataclasses
import math
import pickle
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyclovision import disparity, estimation, simulate
from cyclovision.disparity import (
    Correspondences,
    ParallaxDecomposition,
    decompose,
    synthesize_correspondence,
)
from cyclovision.epipolar import epipoles
from cyclovision.errors import BehindEyeError, DegenerateGeometryError
from cyclovision.estimation import (
    _damped_step,
    _r_factor,
    estimate_depth_map,
    estimate_gaze,
)
from cyclovision.gaze import (
    BASELINE,
    EYE_CENTRES,
    EyeAzimuths,
    GazeState,
    VergenceVersion,
    eye_azimuths,
    project,
)
from cyclovision.geometry import mark_failures, normalize_point
from cyclovision.simulate import (
    GENERATORS,
    SceneSpec,
    _scene_candidates,
    default_region,
    synthesize_scene,
)
from helpers import (
    reference_box,
    reference_decompose,
    reference_eye_rotations,
    reference_mark_failures,
    reference_normalize_point,
    reference_project,
    reference_r_factor,
    reference_synthesize_correspondence,
)


def ulps_from(value: float, count: int) -> float:
    for _ in range(abs(count)):
        value = float(np.nextafter(value, math.copysign(math.inf, count)))
    return value


# max|p| on both sides of 1e12, where a normalized point turns into one at infinity
NEAR_1E12 = [ulps_from(sign * 1e12, k) for sign in (1.0, -1.0) for k in range(-3, 4)]
EDGES = [0.0, -0.0, 1.0, -1.0, 1e-13, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan,
         *NEAR_1E12]
component = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(EDGES),
                      st.floats(allow_nan=True, allow_infinity=True))
third = st.one_of(st.just(1.0), component)
row = st.tuples(component, component, third)


@st.composite
def points(draw, min_rows=0):
    """A single (3,) point or an (n, 3) batch; half of them already normalized."""
    if draw(st.booleans()):
        p = np.array(draw(row), dtype=float)
    else:
        p = np.array(draw(st.lists(row, min_size=min_rows, max_size=6)), dtype=float).reshape(-1, 3)
    if draw(st.booleans()):
        p[..., 2] = 1.0
    return p


HALF_PI = math.pi / 2
gazes = st.builds(
    GazeState,
    beta=st.one_of(st.floats(-HALF_PI, HALF_PI),
                   st.sampled_from([HALF_PI, -HALF_PI, HALF_PI - 1e-13, 0.0])),
    rho=st.one_of(st.floats(0.75, 1e6), st.sampled_from([0.75, 1e12])),
    alpha=st.floats(-HALF_PI, HALF_PI),
)


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of what it raised."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except Exception as err:  # the error is the outcome
            return type(err), str(err)


def same_bits(a, b) -> bool:
    """Equal values and signs of zero, with every NaN equal to every NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b)))


def assert_identical(actual, expected):
    if isinstance(expected, tuple) and expected and isinstance(expected[0], type):
        assert actual == expected
    elif isinstance(expected, (Correspondences, ParallaxDecomposition)):
        assert type(actual) is type(expected)
        for name, value in vars(expected).items():
            assert_identical(getattr(actual, name), value)
    elif isinstance(expected, tuple):
        assert isinstance(actual, tuple) and len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_identical(a, e)
    elif isinstance(expected, str):
        assert actual == expected
    else:
        assert not isinstance(actual, tuple), actual
        assert same_bits(actual, expected)


class TestNormalizePoint:
    @settings(max_examples=500, deadline=None)
    @given(points())
    def test_matches_the_full_pass(self, p):
        assert_identical(outcome(normalize_point, p), outcome(reference_normalize_point, p))

    @pytest.mark.parametrize("x", NEAR_1E12)
    def test_normalized_point_near_1e12(self, x):
        p = np.array([[x, 0.5, 1.0], [0.25, x, 1.0]])
        assert_identical(outcome(normalize_point, p), outcome(reference_normalize_point, p))
        assert_identical(outcome(normalize_point, p[0]), outcome(reference_normalize_point, p[0]))

    def test_already_normalized_points_come_back_as_a_copy(self):
        p = np.array([[0.1, -0.2, 1.0], [3.0, 4.0, 1.0]])
        result = normalize_point(p)
        assert same_bits(result, p)
        assert not np.shares_memory(result, p)


class TestMarkFailures:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), component, component, component), max_size=6),
           st.booleans())
    def test_matches_np_where(self, rows, per_point):
        bad = np.array([r[0] for r in rows], dtype=bool)
        values = np.array([r[1:] for r in rows], dtype=float).reshape(-1, 3)
        if not per_point:
            values = values[:, 0]
        assert_identical(mark_failures(bad, BehindEyeError, "m", values),
                         reference_mark_failures(bad, BehindEyeError, "m", values))

    def test_batch_without_failures_is_returned_as_is(self):
        values = np.array([[1.0, 2.0, 3.0]])
        assert mark_failures(np.array([False]), BehindEyeError, "m", values) is values

    @pytest.mark.parametrize("bad", [True, np.True_])
    def test_single_failure_raises(self, bad):
        with pytest.raises(BehindEyeError, match="m"):
            mark_failures(bad, BehindEyeError, "m", 1.0)


class TestPipelineFunctions:
    # the second ray meets the fixation plane behind the right eye
    BEHIND_RIGHT = (GazeState(beta=1.2, rho=0.8), np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]))

    @settings(max_examples=300, deadline=None)
    @given(gazes, points())
    @example(*BEHIND_RIGHT)
    def test_decompose_matches_both_eyes_form(self, gaze, p_c):
        def pair(gaze, p_c):
            return reference_decompose(gaze, p_c, "left"), reference_decompose(gaze, p_c, "right")

        assert_identical(outcome(decompose, gaze, p_c), outcome(pair, gaze, p_c))

    @settings(max_examples=300, deadline=None)
    @given(gazes, points(min_rows=1), st.lists(component, min_size=6, max_size=6))
    @example(*BEHIND_RIGHT, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    def test_synthesize_correspondence_matches_the_per_eye_loop(self, gaze, p_c, depths):
        s = depths[0] if p_c.ndim == 1 else np.array(depths[:len(p_c)])
        assert_identical(outcome(synthesize_correspondence, gaze, p_c, s),
                         outcome(reference_synthesize_correspondence, gaze, p_c, s))

    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    def test_epipoles_are_the_signed_triples(self, beta_l, beta_r):
        beta_l, beta_r = max(beta_l, beta_r), min(beta_l, beta_r)
        epi = epipoles(EyeAzimuths(beta_l, beta_r))
        assert same_bits(epi.e_l, np.array([np.cos(beta_l), 0.0, np.sin(beta_l)]))
        assert same_bits(epi.e_r, np.array([-np.cos(beta_r), 0.0, -np.sin(beta_r)]))

    @pytest.mark.parametrize("beta", [HALF_PI, -HALF_PI])
    def test_depth_map_refuses_beta_at_half_pi_as_project_does(self, beta):
        q = np.array([0.0, 0.0, 1.0])
        with pytest.raises(DegenerateGeometryError, match="unbounded"):
            estimate_depth_map(Correspondences(q, q), GazeState(beta=beta, rho=2.0))


class TestFit:
    @pytest.mark.parametrize("seed", [0, 401, 7])
    @pytest.mark.parametrize("sigma", [0.0, 1e-3])
    def test_r_factor_matches_the_stacked_form(self, seed, sigma):
        records = synthesize_scene(GazeState(beta=0.3, rho=3.0),
                                   SceneSpec(count=50, sigma=sigma, seed=seed)).records
        assert_identical(_r_factor(records), reference_r_factor(records))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(row, row), min_size=1, max_size=6))
    def test_r_factor_fails_as_the_stacked_form(self, pairs):
        records = Correspondences(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
        assert_identical(outcome(_r_factor, records), outcome(reference_r_factor, records))


class CountingDecompose:
    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return decompose(*args, **kwargs)


class TestDecomposeCalls:
    """Both eyes are decomposed by one call to ``decompose``, visible to a wrapper."""

    def test_synthesize_correspondence_calls_decompose_once(self, monkeypatch):
        counter = CountingDecompose()
        monkeypatch.setattr(disparity, "decompose", counter)
        synthesize_correspondence(GazeState(beta=0.2, rho=2.0),
                                  np.array([[0.1, 0.0, 1.0], [0.0, 0.2, 1.0]]), np.zeros(2))
        assert counter.calls == 1


class RecordingProject:
    """``gaze.project`` that keeps the points and images of each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, gaze, points):
        images = project(gaze, points)
        self.calls.append((points, images))
        return images


SYNTHESIS_GAZES = [GazeState(beta=0.3, rho=2.5, alpha=-0.4), GazeState(beta=-0.6, rho=9.0, alpha=0.8)]


class TestPoses:
    """``gaze.rotations`` and ``EYE_CENTRES`` are the one record of the three eye poses."""

    @pytest.mark.parametrize("gaze", SYNTHESIS_GAZES)
    @pytest.mark.parametrize("generator", GENERATORS)
    @pytest.mark.parametrize("count", [1, 50, 10_000])
    def test_synthesis_projects_once_with_the_bits_of_one_call_per_pose(
            self, monkeypatch, gaze, generator, count):
        recorder = RecordingProject()
        monkeypatch.setattr(simulate, "project", recorder)
        synthesize_scene(gaze, SceneSpec(generator=generator, count=count, sigma=1e-3, seed=count))
        [(scene, images)] = recorder.calls
        assert images.shape == (3, count, 3)
        assert same_bits(images, reference_project(gaze, scene))

    @pytest.mark.parametrize("gaze", SYNTHESIS_GAZES)
    @pytest.mark.parametrize("shape", [(3,), (1, 3), (50, 3), (10_000, 3),
                                       (2, 1, 3), (2, 50, 3), (2, 10_000, 3)])
    def test_project_has_the_bits_of_one_transform_per_eye(self, gaze, shape):
        points = np.random.default_rng(sum(shape)).normal(0.0, gaze.rho, shape)
        images = project(gaze, points)
        assert images.shape == (3, *shape)
        assert same_bits(images, reference_project(gaze, points))

    @pytest.mark.parametrize("gaze", SYNTHESIS_GAZES + [GazeState(beta=-0.0, rho=1.0, alpha=-0.0)])
    def test_rotations_are_built_once_per_gaze_and_read_only(self, gaze):
        rotations = gaze.rotations
        assert same_bits(rotations, reference_eye_rotations(gaze))
        for array in (rotations, rotations[0], EYE_CENTRES, EYE_CENTRES[0], BASELINE):
            with pytest.raises(ValueError):
                array[0] = 7.0
        assert gaze.rotations is rotations

    @pytest.mark.parametrize("make", [
        lambda gaze: GazeState(gaze.beta, gaze.rho, gaze.alpha),
        lambda gaze: dataclasses.replace(gaze),
        lambda gaze: dataclasses.replace(gaze, alpha=-gaze.alpha),
    ], ids=["new", "replaced", "replaced-alpha"])
    def test_a_new_or_replaced_gaze_builds_its_own_rotations(self, make):
        gaze = GazeState(beta=0.0, rho=2.0, alpha=0.0)
        rotations = gaze.rotations
        other = make(gaze)
        assert other == gaze
        assert not np.shares_memory(other.rotations, rotations)
        assert same_bits(other.rotations, reference_eye_rotations(other))

    @pytest.mark.parametrize("make", [
        copy.copy,
        copy.deepcopy,
        lambda gaze: pickle.loads(pickle.dumps(gaze)),
    ], ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("gaze", SYNTHESIS_GAZES + [GazeState(beta=-0.0, rho=1.0, alpha=-0.0)])
    def test_a_copied_gaze_builds_its_own_read_only_rotations(self, make, gaze):
        rotations = gaze.rotations
        points = np.random.default_rng(3).normal(0.0, gaze.rho, (50, 3))
        other = make(gaze)
        assert other == gaze and hash(other) == hash(gaze)
        assert not other.rotations.flags.writeable
        assert not np.shares_memory(other.rotations, rotations)
        assert same_bits(other.rotations, rotations)
        assert same_bits(project(other, points), project(gaze, points))

    @pytest.mark.parametrize("beta", [HALF_PI, -HALF_PI])
    def test_rotations_at_beta_half_pi_raise_on_every_call(self, beta):
        gaze = GazeState(beta=beta, rho=2.0)
        for _ in range(2):
            with pytest.raises(DegenerateGeometryError, match="unbounded"):
                gaze.rotations
            with pytest.raises(DegenerateGeometryError, match="unbounded"):
                project(gaze, np.zeros(3))


# the default box is finite up to rho = max / 1.4 at beta = alpha = 0
NEAR_BOX_OVERFLOW = [ulps_from(np.finfo(float).max / 1.4, k) for k in range(-2, 3)]


class TestBoxDraw:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 60),
           st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(1e-300, 1e300)),
                    min_size=3, max_size=3))
    def test_matches_rng_uniform(self, seed, count, box):
        region = tuple((low, low + width) for low, width in box)
        assume(all(low < high for low, high in region))
        spec = SceneSpec(count=count, seed=seed, region=region)
        gaze = GazeState(beta=0.2, rho=2.0)
        drawn, truth = _scene_candidates(gaze, spec, np.random.default_rng(seed))
        assert drawn.tobytes() == reference_box(gaze, spec, np.random.default_rng(seed)).tobytes()
        assert truth is None

    @pytest.mark.parametrize("gaze", [
        GazeState(beta=-0.0, rho=2.0), GazeState(beta=0.3, rho=1.5, alpha=-0.0),
        GazeState(beta=-0.0, rho=5.0, alpha=-0.0), GazeState(beta=-0.6, rho=9.0, alpha=0.8),
        *(GazeState(beta=0.0, rho=rho) for rho in NEAR_BOX_OVERFLOW),
    ])
    def test_default_box_matches_rng_uniform(self, gaze):
        spec = SceneSpec(count=50, seed=7)
        drawn = outcome(_scene_candidates, gaze, spec, np.random.default_rng(7))
        expected = outcome(reference_box, gaze, spec, np.random.default_rng(7))
        if isinstance(expected, tuple):  # the default box refused this range
            assert_identical(drawn, expected)
        else:
            assert_identical(drawn[0], expected)
            assert drawn[1] is None

    def test_near_overflow_gazes_reach_both_sides_of_the_refusal(self):
        refused = [outcome(default_region, GazeState(beta=0.0, rho=rho))[0] is ValueError
                   for rho in NEAR_BOX_OVERFLOW]
        assert any(refused) and not all(refused)


class TestEstimateGazeAlpha:
    @pytest.mark.parametrize("alpha", [2.0, -2.0, HALF_PI + 1e-9, math.nan, math.inf, -math.inf,
                                       pytest.param(np.float64(math.nan), id="float64-nan"),
                                       pytest.param(np.array(math.inf), id="0d-inf")])
    def test_bad_alpha_raises_a_value_error_naming_it_before_the_fit(self, alpha, monkeypatch):
        def no_fit(*args):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(estimation, "_r_factor", no_fit)
        records = Correspondences(np.zeros((5, 3)), np.zeros((5, 3)))
        with pytest.raises(ValueError, match="alpha") as err:
            estimate_gaze(records, alpha=alpha)
        assert not isinstance(err.value, DegenerateGeometryError)

    @pytest.mark.parametrize("alpha", [True, False, np.bool_(False), np.array(True)])
    def test_boolean_alpha_raises_a_type_error_naming_it_before_the_fit(self, alpha, monkeypatch):
        def no_fit(*args):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(estimation, "_r_factor", no_fit)
        with pytest.raises(TypeError, match="alpha must be a number"):
            estimate_gaze(Correspondences(np.zeros((5, 3)), np.zeros((5, 3))), alpha=alpha)

    @pytest.mark.parametrize("alpha", [None, "0.2", Fraction(1, 10), Decimal("0.1")])
    def test_non_number_alpha_raises_a_type_error(self, alpha):
        with pytest.raises(TypeError):
            estimate_gaze(Correspondences(np.zeros((5, 3)), np.zeros((5, 3))), alpha=alpha)

    @pytest.mark.parametrize("alpha", [HALF_PI, -HALF_PI, 0.3, np.float32(0.3)])
    def test_alpha_orients_the_fitted_gaze(self, alpha):
        gaze = GazeState(beta=0.2, rho=2.0)
        records = synthesize_scene(gaze, SceneSpec(count=30, seed=3)).records
        fit = estimate_gaze(records, alpha=alpha)
        assert fit.gaze.alpha == alpha and type(fit.gaze.alpha) is float
        assert (fit.gaze.beta, fit.gaze.rho) == (estimate_gaze(records).gaze.beta,
                                                 estimate_gaze(records).gaze.rho)


jacobians = st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8).map(
    lambda entries: np.reshape(entries, (4, 2)))


@st.composite
def near_rank_one_jacobians(draw):
    """(4, 2) Jacobians whose second column is a multiple of the first plus a
    perturbation 1e-17 to 1 times as large: J^T J is near singular."""
    first, perturbation = draw(jacobians).T
    multiple, log_gap = draw(st.floats(-2.0, 2.0)), draw(st.floats(-17.0, 0.0))
    return np.column_stack([first, multiple * first + 10.0 ** log_gap * perturbation])


class TestDampedStep:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(jacobians, near_rank_one_jacobians()), st.floats(-15.0, 15.0),
           st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))
    def test_step_has_a_small_backward_error(self, jac, log_damping, descent):
        (a, b), (_, d) = (jac.T @ jac).tolist()
        damping = 10.0 ** log_damping
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = np.array(_damped_step(a, b, d, *descent, damping))
        system = np.array([[a + damping, b], [b, d + damping]])
        norm = np.linalg.norm(system, 2)
        if np.isnan(step).all():  # positive definite, but singular to working precision
            assert np.linalg.eigvalsh(system)[0] <= 1e-12 * norm
        else:
            residual = np.linalg.norm(system @ step + descent)
            assert residual <= 1e-12 * norm * np.linalg.norm(step) + 1e-300

    @pytest.mark.parametrize("system", [(1.0, 2.0, 4.0, 0.0), (1.0, 3.0, 4.0, 0.0),
                                        (0.0, 1.0, 0.0, 0.0), (-1.0, 0.0, 1.0, 0.0),
                                        (math.nan, 0.0, 1.0, 1.0), (math.inf, math.inf, 1.0, 1.0)],
                             ids=["singular", "indefinite", "zero-pivot", "negative-pivot",
                                  "nan", "inf"])
    def test_no_positive_definite_system_gives_a_nan_step_without_warning_or_error(self, system):
        a, b, d, damping = system
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = _damped_step(a, b, d, 1.0, -1.0, damping)
        assert all(math.isnan(s) for s in step)

    @pytest.mark.parametrize("step", [(math.nan, math.nan), (math.inf, 0.0), (0.0, -math.inf)])
    def test_non_finite_steps_are_rejected_and_the_fit_returns(self, monkeypatch, step):
        records = synthesize_scene(GazeState(beta=0.2, rho=2.0), SceneSpec(count=30, seed=3)).records
        seed = EyeAzimuths(0.3, 0.1)
        monkeypatch.setattr(estimation, "_damped_step", lambda *system: step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = estimate_gaze(records, initial=seed)
        assert fit.azimuths == seed
        assert (fit.iterations, fit.converged) == (0, True)


NON_FINITE = [math.nan, math.inf, -math.inf, np.float64(math.nan), np.array(math.inf),
              pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400")]
NOT_NUMBERS = [None, "0.2", pytest.param(Fraction(1, 10), id="fraction"),
               pytest.param(Decimal("0.1"), id="decimal")]


class TestScalarChecks:
    """The checks raise what their ``np.isfinite`` forms raised
    (``estimate_gaze``'s ``alpha`` is covered by ``TestEstimateGazeAlpha``)."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["beta", "rho", "alpha"])
    def test_gaze_state_refuses_non_finite(self, field, value):
        with pytest.raises(ValueError, match="gaze parameters must be finite"):
            GazeState(**{"beta": 0.2, "rho": 2.0, "alpha": 0.0, field: value})

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("field", ["beta", "rho", "alpha"])
    def test_gaze_state_refuses_non_numbers(self, field, value):
        with pytest.raises(TypeError):
            GazeState(**{"beta": 0.2, "rho": 2.0, "alpha": 0.0, field: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["beta_l", "beta_r"])
    def test_eye_azimuths_refuse_non_finite(self, field, value):
        with pytest.raises(ValueError, match="azimuths must be finite"):
            EyeAzimuths(**{"beta_l": 0.3, "beta_r": 0.1, field: value})

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("field", ["beta_l", "beta_r"])
    def test_eye_azimuths_refuse_non_numbers(self, field, value):
        with pytest.raises(TypeError):
            EyeAzimuths(**{"beta_l": 0.3, "beta_r": 0.1, field: value})

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    @pytest.mark.parametrize("field", ["beta", "rho", "alpha"])
    def test_gaze_state_names_a_non_number(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be a number"):
            GazeState(**{"beta": 0.2, "rho": 2.0, "alpha": 0.0, field: value})

    @pytest.mark.parametrize("value", [np.array([0.2]), np.array([[2.0]])])
    def test_arrays_of_one_element_are_not_numbers(self, value):
        with pytest.raises(TypeError, match="^beta must be a number"):
            GazeState(beta=value, rho=2.0)

    @pytest.mark.parametrize("beta,rho,alpha", [
        (np.float64(0.2), np.float64(2.0), 0.1),
        (np.array(0.2), np.array(2.0), np.array(0.0)),
        (np.float16(0.2), np.float16(2.0), np.float16(0.1)),
        (np.float32(0.2), np.float32(2.0), np.float32(0.1)),
        (np.int64(0), np.int64(2), np.int64(-1)),
        (np.array(0.2, np.float32), np.array(2, np.int64), np.array(0.1, np.float16)),
    ])
    def test_numpy_scalars_are_accepted(self, beta, rho, alpha):
        """Each field holds the Python float with the float64 bits of its value."""
        held = (*dataclasses.astuple(GazeState(beta=beta, rho=rho, alpha=alpha)),
                *dataclasses.astuple(EyeAzimuths(beta, beta)),
                *dataclasses.astuple(VergenceVersion(rho, alpha)))
        values = (beta, rho, alpha, beta, beta, rho, alpha)
        assert all(type(value) is float for value in held)
        assert np.array(held).tobytes() == np.array(values, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("number", [np.float32, lambda value: np.array(value, np.float32)],
                             ids=["float32", "0d-float32"])
    def test_a_numpy_gaze_computes_as_the_float_gaze_of_its_value(self, number):
        values = {"beta": 0.2, "rho": 2.0, "alpha": 0.1}
        numpy_gaze = GazeState(**{name: number(value) for name, value in values.items()})
        gaze = GazeState(**{name: float(np.float32(value)) for name, value in values.items()})
        assert numpy_gaze == gaze and hash(numpy_gaze) == hash(gaze)
        assert eye_azimuths(numpy_gaze) == eye_azimuths(gaze)
        assert numpy_gaze.rotations.tobytes() == gaze.rotations.tobytes()
        records = synthesize_scene(gaze, SceneSpec(count=20, seed=1)).records
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(estimate_depth_map(records, numpy_gaze), estimate_depth_map(records, gaze)))

