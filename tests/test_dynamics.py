"""Twist-limit convergence and the direction-foliation circle map.

The iteration oracle here is exact: clearing denominators makes every
iterate an integer vector, so the recorded errors are exact rationals and
satisfy err(k) * (S0 + 2 X k) = const, the hyperbola coming from the
unipotent normalization.  The closed form is checked against a k = 10^6
honest iteration on one seed and against the error law on many.
"""

from fractions import Fraction
import random
import tracemalloc

import mpmath
import pytest

from lamkit.dynamics import (
    ProjectiveClass,
    circle_samples,
    decay_fit,
    direction_foliation,
    foliation_entries,
    iterate_trace,
    min_pairwise_distance,
    numerical_rank_ratio,
    twist_limit,
)
from lamkit.errors import HypothesisError, ParameterError
from lamkit.flat_surface import HORIZONTAL, VERTICAL, cylinder_decomposition
from lamkit.traintrack import TrackWeights, curve_class


def w(*comps, rest=()):
    return TrackWeights(components=tuple(comps), rest=tuple(rest))


# ---------------------------------------------------------------------------
# projective classes


def test_projective_class_guards():
    with pytest.raises(HypothesisError):
        ProjectiveClass((0, 0))
    with pytest.raises(HypothesisError):
        ProjectiveClass((1, -1))
    with pytest.raises(HypothesisError):
        ProjectiveClass(())
    with pytest.raises(ParameterError):
        ProjectiveClass((1, 2)).distance(ProjectiveClass((1, 2, 3)))


def test_projective_class_exact_normalization():
    cls = ProjectiveClass((Fraction(1, 2), Fraction(3, 2)))
    assert cls.normalized() == (Fraction(1, 4), Fraction(3, 4))
    assert sum(cls.normalized()) == 1
    other = ProjectiveClass((Fraction(2), Fraction(6)))  # same ray
    assert cls.distance(other) == 0
    assert isinstance(cls.distance(other), Fraction)


# ---------------------------------------------------------------------------
# twist limits


def test_single_curve_limit_is_the_curve():
    limit = twist_limit(w((1, 0, 1)))
    expected = ProjectiveClass(curve_class(1, 1).as_vector())
    assert limit.distance(expected) == 0


def test_two_component_limit_weights():
    limit = twist_limit(w((2, 3, 5), (1, 0, 1)))
    # limit = 2 c_1 + 1 c_2 in track coordinates
    assert limit.normalized() == (
        Fraction(0),
        Fraction(2, 6),
        Fraction(2, 6),
        Fraction(0),
        Fraction(1, 6),
        Fraction(1, 6),
    )


def test_limit_requires_nonzero_crossings():
    with pytest.raises(HypothesisError):
        twist_limit(w((0, 1, 1), (2, 0, 2)))


def test_iterate_matches_limit_at_one_million():
    rng = random.Random(3)
    comps = []
    for _ in range(3):
        x = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        y = Fraction(rng.randint(0, 9), rng.randint(1, 9))
        comps.append((x, y, x + y))
    weights = w(*comps)
    limit = twist_limit(weights)
    final = iterate_trace(weights, 10**6, checkpoints=[10**6])[0]
    assert float(final.projective.distance(limit)) < 1e-5


def test_error_is_an_exact_hyperbola():
    rng = random.Random(21)
    for _ in range(5):
        comps = []
        for _ in range(rng.randint(1, 4)):
            x = Fraction(rng.randint(1, 8), rng.randint(1, 8))
            y = Fraction(rng.randint(0, 8), rng.randint(1, 8))
            comps.append((x, y, x + y))
        weights = w(*comps)
        vec = weights.as_vector()
        s0 = sum(vec)
        two_x = 2 * sum(c[0] for c in weights.components)
        trace = iterate_trace(weights, 500, checkpoints=[1, 7, 50, 123, 500])
        consts = {s.error * (s0 + two_x * s.k) for s in trace if s.error}
        assert len(consts) <= 1  # err(k) = C / (S0 + 2Xk) exactly


def test_fixed_point_has_zero_error_and_no_fit():
    trace = iterate_trace(curve_class(2, 3), 200)
    assert all(s.error == 0 for s in trace)
    assert decay_fit(trace) is None


def test_decay_slope_near_minus_one():
    # (1,0,1): the exact error at step k is 1/(2k+2)
    trace = iterate_trace(w((1, 0, 1)), 1000)
    for s in trace:
        assert s.error == Fraction(1, 2 * s.k + 2)
    slope, constant = decay_fit(trace, k_min=10)
    assert abs(slope + 1) < 0.05
    assert constant > 0


def test_errors_decrease_monotonically():
    trace = iterate_trace(w((2, 5, 7), (3, 1, 4)), 2000)
    errs = [s.error for s in trace]
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_iterate_trace_guards():
    with pytest.raises(ParameterError):
        iterate_trace(w((1, 0, 1)), 0)
    # all crossing weights zero: the input is fixed and is its own limit
    trace = iterate_trace(w((0, 2, 2)), 10)
    assert all(s.error == 0 for s in trace)


def test_iterate_trace_with_mixed_zero_crossings():
    # components with x_j = 0 fade out projectively; the limit is supported
    # on the twisted components only
    weights = w((0, 3, 3), (2, 1, 3))
    trace = iterate_trace(weights, 5000, checkpoints=[1, 5000])
    assert trace[-1].error < trace[0].error
    assert float(trace[-1].error) < 1e-3
    limit_entries = [float(v) for v in trace[-1].projective.normalized()]
    assert limit_entries[1] < 1e-3  # the untwisted component's y coordinate


@pytest.mark.parametrize("n", [1, 3, 5])
def test_oracle_equivalence_random(n):
    rng = random.Random(100 + n)
    for _ in range(20):
        comps = []
        for _ in range(n):
            x = Fraction(rng.randint(1, 10), rng.randint(1, 10))
            y = x * Fraction(rng.randint(0, 30), 10)
            comps.append((x, y, x + y))
        weights = w(*comps)
        final = iterate_trace(weights, 10**4, checkpoints=[10**4])[0]
        assert float(final.projective.distance(twist_limit(weights))) < 1e-3


# ---------------------------------------------------------------------------
# the circle map


def test_horizontal_class_pairs_like_the_vertical_circumferences(surface):
    s = surface(2)
    cls = direction_foliation(s, 0)
    g = 2
    assert all(v == 0 for v in cls.vector[:g])
    with mpmath.workprec(s.precision):
        ref = ProjectiveClass(
            (0, 0) + tuple(c.circumference for c in cylinder_decomposition(s, VERTICAL))
        )
        assert float(cls.distance(ref)) < 1e-30


def test_vertical_class_pairs_like_the_horizontal_circumferences(surface):
    s = surface(2)
    with mpmath.workprec(s.precision):
        cls = direction_foliation(s, mpmath.pi / 2)
        g = 2
        assert all(v == 0 for v in cls.vector[g:])
        ref = ProjectiveClass(
            tuple(c.circumference for c in cylinder_decomposition(s, HORIZONTAL)) + (0, 0)
        )
        assert float(cls.distance(ref)) < 1e-30


def test_generic_direction_pairs_positively(surface):
    cls = direction_foliation(surface(3), 0.7)
    assert all(v > 0 for v in cls.vector)


def test_fold_symmetry_of_the_core_coordinates(surface):
    # the 2g cores are axis-parallel, so theta and pi - theta have equal
    # pairing vectors: the coordinate circle is folded over [0, pi/2]
    s = surface(2)
    with mpmath.workprec(s.precision):
        for theta in (0.3, 0.9, 1.4):
            a = direction_foliation(s, theta)
            b = direction_foliation(s, mpmath.pi - theta)
            assert float(a.distance(b)) < 1e-33


def _all_pairs_min_distance(classes):
    """Reference: the smallest max-abs distance over all pairs of float lifts."""
    import numpy as np

    lifts = np.array([[float(v) for v in cls.normalized()] for cls in classes])
    diffs = np.max(np.abs(lifts[:, None, :] - lifts[None, :, :]), axis=2)
    np.fill_diagonal(diffs, np.inf)
    return float(diffs.min())


def test_injectivity_on_the_fundamental_arc(surface):
    # every lift coordinate is monotone along the arc, so the closest pair of
    # samples is a neighbouring pair and the neighbour scan gives the same float
    for g in (2, 3, 4):
        for count in (3, 180, 720):
            classes = [cls for _, cls in circle_samples(surface(g), count)]
            distance = min_pairwise_distance(classes)
            assert repr(distance) == repr(_all_pairs_min_distance(classes))
            assert distance > 1e-10


def test_min_pairwise_distance_memory_is_flat(surface):
    classes = [cls for _, cls in circle_samples(surface(2), 3000)]
    tracemalloc.start()
    try:
        min_pairwise_distance(classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_circle_checks_need_enough_classes(surface):
    classes = [cls for _, cls in circle_samples(surface(2), 3)]
    with pytest.raises(ParameterError):
        min_pairwise_distance(classes[:1])
    with pytest.raises(ParameterError):
        numerical_rank_ratio(classes[:2])


def test_rank_two_within_arcs(surface):
    s = surface(3)
    rng = random.Random(2)
    with mpmath.workprec(s.precision):
        pi = mpmath.pi
        for lo, hi in ((mpmath.mpf("1e-9"), pi / 2), (pi / 2, pi)):
            thetas = [lo + (hi - lo) * mpmath.mpf(rng.random()) for _ in range(4)]
            classes = [direction_foliation(s, t) for t in thetas]
            assert numerical_rank_ratio(classes) < 1e-9


def test_zero_vector_cannot_occur(surface):
    entries = foliation_entries(surface(2), 0.25)
    assert any(e > 0 for e in entries)


def test_circle_samples_guards(surface):
    with pytest.raises(ParameterError):
        circle_samples(surface(2), 1)
