"""Twist derivatives, their classification and the parabolic generator."""

import itertools

from hypothesis import given, settings, strategies as st
import mpmath
import pytest

from lamkit.affine import (
    Mat2,
    classify,
    evaluate_word,
    generators,
    identity_matrix,
    parabolic_generator,
    twist_derivative,
)
from lamkit.errors import InvalidMatrixError, NotParabolicError, ParameterError
from lamkit.flat_surface import (
    Cylinder,
    HORIZONTAL,
    VERTICAL,
    build_double_polygon,
    cylinder_decomposition,
)


def test_horizontal_shear_closed_form(surface):
    s = surface(2)
    m = twist_derivative(cylinder_decomposition(s, HORIZONTAL))
    assert m.trace() == 2
    assert m.c == 0 and m.a == 1 and m.d == 1
    with mpmath.workprec(s.precision):
        assert abs(m.b - 2 / mpmath.tan(mpmath.pi / 5)) < mpmath.mpf("1e-25")


def test_vertical_shear_matches_cylinder_data(surface):
    s = surface(2)
    cyls = cylinder_decomposition(s, VERTICAL)
    m = twist_derivative(cyls)
    assert m.b == 0 and m.trace() == 2
    with mpmath.workprec(s.precision):
        for c in cyls:
            assert abs(-m.c - c.circumference / c.height) < mpmath.mpf("1e-12")


def _fake_cylinder(direction, circumference, height):
    return Cylinder(
        direction=direction,
        label="x",
        circumference=circumference,
        height=height,
        strips=(),
        core_segments=(),
    )


def test_unequal_moduli_is_not_parabolic():
    cyls = [_fake_cylinder(HORIZONTAL, 1.0, 1.0), _fake_cylinder(HORIZONTAL, 1.0, 2.0)]
    with pytest.raises(NotParabolicError):
        twist_derivative(cyls)


def test_mixed_directions_rejected():
    cyls = [_fake_cylinder(HORIZONTAL, 1.0, 1.0), _fake_cylinder(VERTICAL, 1.0, 1.0)]
    with pytest.raises(ParameterError):
        twist_derivative(cyls)


def test_classification_table():
    assert classify(Mat2(1, 3, 0, 1)) == "parabolic"
    assert classify(Mat2(0, -1, 1, 0)) == "elliptic"
    assert classify(Mat2(2, 1, 1, 1)) == "hyperbolic"
    assert classify(identity_matrix()) == "identity"
    assert classify(Mat2(-1, 0, 0, -1)) == "identity"
    with pytest.raises(InvalidMatrixError):
        classify(Mat2(2, 0, 0, 1))


def test_product_of_the_two_twists_is_hyperbolic(surface):
    gens = generators(surface(2))
    product = gens["TA"] * gens["TB"]
    assert classify(product.derivative) == "hyperbolic"


@pytest.mark.parametrize("g", range(2, 9))
@pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
def test_twists_parabolic_for_all_genera(surface, g, direction):
    m = twist_derivative(cylinder_decomposition(surface(g), direction))
    assert classify(m) == "parabolic"


@pytest.mark.parametrize("g", range(2, 5))
def test_parabolic_generator_trace(surface, g):
    s = surface(g)
    gen0 = parabolic_generator(g, s)
    assert gen0.derivative.trace() == -2  # exact, not approximate
    square = gen0 * gen0
    assert square.derivative.trace() == 2
    with mpmath.workprec(s.precision):
        shear = twist_derivative(cylinder_decomposition(s, HORIZONTAL)).b
        k = 2 * (2 * g + 1)
        assert abs(gen0.derivative.b + k * shear) < mpmath.mpf("1e-28")
        assert abs(square.derivative.b - 2 * k * shear) < mpmath.mpf("1e-27")


def test_parabolic_generator_label(surface):
    gen0 = parabolic_generator(2, surface(2))
    assert gen0.label == "TA^10 sigma"
    with pytest.raises(ParameterError):
        parabolic_generator(3, surface(2))


def test_sigma_is_central_minus_identity(surface):
    gens = generators(surface(2))
    sig = gens["sigma"]
    assert classify(sig.derivative) == "identity"
    for key in ("TA", "TB"):
        left = (sig * gens[key]).derivative
        right = (gens[key] * sig).derivative
        assert left.rows() == right.rows()


def test_derivative_is_multiplicative_on_words(surface):
    # exhaustive over all split products of total length up to 4; exact since
    # Mat2 never rounds
    alphabet = ["TA", "TA^-1", "TB", "TB^-1", "sigma"]
    words = [" ".join(p) for n in (1, 2) for p in itertools.product(alphabet, repeat=n)]
    for g in (2, 5, 8):
        s = surface(g)
        cache = {w: evaluate_word(w, s).derivative for w in words}
        for w1 in words:
            for w2 in words:
                combined = evaluate_word(f"{w1} {w2}", s).derivative
                assert combined.rows() == (cache[w1] * cache[w2]).rows(), (g, w1, w2)


def test_long_mixed_word_is_exact(surface, mixed_word):
    # the entries reach 2^566; det = 1 must hold however fast they grow, and a
    # conjugate of TA must keep trace 2 although its entries cancel 2^1100-fold
    s = surface(8)
    u = evaluate_word(mixed_word, s)
    assert u.derivative.det() == 1
    assert classify(u.derivative) == "hyperbolic"
    conjugate = (u * generators(s)["TA"] * u.inverse()).derivative
    assert conjugate.trace() == 2
    assert classify(conjugate) == "parabolic"


_SURFACES = {g: build_double_polygon(g, precision=128) for g in (2, 3, 5)}
_TOKENS = st.tuples(st.sampled_from(("TA", "TB", "sigma")), st.integers(-50, 50))
_WORDS = st.lists(_TOKENS, max_size=30).map(lambda ts: " ".join(f"{sym}^{k}" for sym, k in ts))
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@_PROPERTY
@given(st.sampled_from(sorted(_SURFACES)), _WORDS, _WORDS)
def test_twist_words_are_exact(g, w1, w2):
    s = _SURFACES[g]
    first, second = evaluate_word(w1, s).derivative, evaluate_word(w2, s).derivative
    assert first.det() == 1
    assert evaluate_word(f"{w1} {w2}", s).derivative.rows() == (first * second).rows()
    assert (second * first * second.inverse()).trace() == first.trace()


def test_word_parsing_errors(surface):
    s = surface(2)
    with pytest.raises(ParameterError):
        evaluate_word("TC^2", s)
    with pytest.raises(ParameterError):
        evaluate_word("TA^2 junk", s)
    assert evaluate_word("", s).label == "1"
    assert evaluate_word("TA^0", s).label == "1"


def test_inverse_and_identity_power(surface):
    gens = generators(surface(2))
    ta = gens["TA"]
    prod = (ta * ta.inverse()).derivative
    assert classify(prod) == "identity"
    assert (ta**0).label == "1"


def _powers_by_products(element, k_max):
    """Yield (k, element**k) for k = 1..k_max by repeated right multiplication.

    This is the |k|-fold product loop that ``AffineElement.__pow__`` once ran;
    step k performs exactly the products that loop performed for exponent k.
    """
    result = element
    for k in range(1, k_max + 1):
        yield k, result
        result = result * element


@pytest.mark.parametrize("bits", [64, 128, 1024])
@pytest.mark.parametrize("g", [2, 5, 8])
def test_power_matches_product_loop(surface, g, bits):
    wanted = set(range(1, 301)) | {3000}
    for name, gen in generators(surface(g, precision=bits)).items():
        assert (gen**0).label == "1" and (gen**0).derivative == identity_matrix()
        for sign, base in ((1, gen), (-1, gen.inverse())):
            for k, expected in _powers_by_products(base, 3000):
                if k in wanted:
                    actual = gen ** (sign * k)
                    assert actual.label == expected.label, (name, sign * k)
                    assert actual.derivative.rows() == expected.derivative.rows(), (name, sign * k)


def test_huge_twist_power_is_exact(surface):
    s = surface(2)
    shear = generators(s)["TA"].derivative.b
    element = evaluate_word("TA^100000", s)
    assert element.label == "TA^100000"
    with mpmath.workprec(s.precision + 32):  # 100000 * shear is exact here
        expected = ((1, 100000 * shear), (0, 1))
    assert element.derivative.rows() == expected
