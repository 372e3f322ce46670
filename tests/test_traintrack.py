"""Exact linear action of the multitwist on track weights."""

from fractions import Fraction
import random

import pytest

from lamkit.errors import InvalidWeightsError, ParameterError
from lamkit.traintrack import (
    MAX_DECIMAL_EXPONENT,
    TrackWeights,
    curve_class,
    exact_fraction,
    intersection_with_component,
    multitwist_step,
    rationalize,
)


def w(*comps, rest=()):
    return TrackWeights(components=tuple(comps), rest=tuple(rest))


def test_single_component_step():
    assert multitwist_step(w((2, 3, 5))).components == ((2, 5, 7),)


def test_twisting_curves_are_fixed():
    for j in (1, 2, 3):
        c = curve_class(j, 3, rest_len=2)
        assert multitwist_step(c) == c
    assert curve_class(1, 2).components == ((0, 1, 1), (0, 0, 0))


def test_fixed_cone_is_preserved():
    lam = (Fraction(3, 2), Fraction(0), Fraction(7))
    vec = [Fraction(0)] * 9
    for j, coeff in enumerate(lam, start=1):
        base = curve_class(j, 3).as_vector()
        vec = [a + coeff * b for a, b in zip(vec, base)]
    combo = TrackWeights(components=tuple((vec[3 * i], vec[3 * i + 1], vec[3 * i + 2]) for i in range(3)))
    assert multitwist_step(combo) == combo


def test_k_fold_composition_closed_form():
    cur = w((1, 0, 1))
    for k in range(1, 58):
        cur = multitwist_step(cur)
        assert cur.components == ((1, k, k + 1),)


def test_switch_condition_violations_rejected():
    with pytest.raises(InvalidWeightsError):
        w((2, 3, 6))
    with pytest.raises(InvalidWeightsError):
        w((2, -1, 1))
    with pytest.raises(InvalidWeightsError):
        TrackWeights(components=())
    with pytest.raises(InvalidWeightsError):
        w((1, 0, 1), rest=(-1,))


def test_switch_condition_exact_under_iteration():
    rng = random.Random(5)
    comps = []
    for _ in range(4):
        x = Fraction(rng.randint(0, 50), rng.randint(1, 50))
        y = Fraction(rng.randint(0, 50), rng.randint(1, 50))
        comps.append((x, y, x + y))
    cur = TrackWeights(components=tuple(comps), rest=(Fraction(1, 3),))
    for _ in range(500):
        cur = multitwist_step(cur)
        for x, y, z in cur.components:
            assert z == x + y  # exact rational identity, no tolerance


def test_step_is_unipotent():
    # (step - id)^2 = 0: apply it twice to a generic vector
    rng = random.Random(9)
    comps = []
    for _ in range(3):
        x = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        y = Fraction(rng.randint(0, 9), rng.randint(1, 9))
        comps.append((x, y, x + y))
    v0 = TrackWeights(components=tuple(comps)).as_vector()
    v1 = multitwist_step(TrackWeights(components=tuple(comps))).as_vector()
    first = [b - a for a, b in zip(v0, v1)]  # (step - id) v
    # x block of the difference vanishes, so (step - id) of it is zero
    assert all(first[3 * i] == 0 for i in range(3))
    as_weights = TrackWeights(
        components=tuple(
            (first[3 * i], first[3 * i + 1], first[3 * i + 2]) for i in range(3)
        )
    )
    second = [
        b - a
        for a, b in zip(as_weights.as_vector(), multitwist_step(as_weights).as_vector())
    ]
    assert all(entry == 0 for entry in second)


def test_crossing_weight_is_invariant():
    cur = w((2, 3, 5), (7, 0, 7))
    for _ in range(20):
        cur = multitwist_step(cur)
        assert intersection_with_component(cur, 1) == 2
        assert intersection_with_component(cur, 2) == 7
    assert intersection_with_component(curve_class(1, 2), 1) == 0


def test_component_index_bounds():
    with pytest.raises(ParameterError):
        curve_class(0, 3)
    with pytest.raises(ParameterError):
        curve_class(4, 3)
    with pytest.raises(ParameterError):
        intersection_with_component(w((1, 0, 1)), 2)


def test_json_roundtrip_keeps_exact_rationals():
    orig = w((Fraction(2, 3), Fraction(1, 7), Fraction(17, 21)), rest=(Fraction(5, 11),))
    doc = orig.to_json_dict()
    assert doc["components"][0]["x"] == "2/3"
    assert TrackWeights.from_json_dict(doc) == orig


def test_rationalize_bounds_denominators():
    vals = rationalize([0.125, 1 / 3], max_denominator=100)
    assert vals[0] == Fraction(1, 8)
    assert vals[1] == Fraction(1, 3)
    assert all(v.denominator <= 100 for v in vals)


def test_exact_fraction_bounds_decimal_exponents():
    e = MAX_DECIMAL_EXPONENT
    assert exact_fraction(f"1e{e}") == 10**e
    assert exact_fraction(f" -2.5E-{e} ") == Fraction(-5, 2 * 10**e)
    assert exact_fraction("3/4") == Fraction(3, 4) and exact_fraction(0.5) == Fraction(1, 2)
    # underscores are digit separators for Fraction, so they count towards the exponent
    for text in (f"1e{e + 1}", f"1e-{e + 1}", "1e1_0000", "1e100000000"):
        with pytest.raises(ParameterError, match="decimal exponent"):
            exact_fraction(text)
    for bad in ("1/0", "nan", "inf", "1e", "1ee5", True, None, float("inf")):
        with pytest.raises(ParameterError):
            exact_fraction(bad)
