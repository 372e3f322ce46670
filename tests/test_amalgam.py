"""Free reduction, edge powers, Britton reduction and classification.

The independent machinery (coset normal form, bounded rewriting search,
rotation-based conjugacy oracle) lives in lamkit.acceptance; here it is
exercised on spot cases plus randomized words, while the acceptance
criterion sweeps the full bounded universe.
"""

import random

import pytest

from lamkit.acceptance import (
    bounded_rewriting_min_length,
    conjugacy_oracle,
    enumerate_words,
    normal_form,
    normal_form_length,
)
from lamkit.amalgam import (
    EDGE_CONJUGATE,
    IDENTITY,
    PSEUDO_ANOSOV_TYPE,
    AmalgamWord,
    EdgeWords,
    Syllable,
    amalgam_word,
    britton_reduce,
    classify_element,
    conjugate_power_of_edge,
    cyclic_decompose,
    format_word,
    free_inv,
    free_mul,
    free_pow,
    free_reduce,
    is_britton_reduced,
    is_proper_power,
    parse_word,
    power_of_edge,
)
from lamkit.errors import EdgeWordError, ParameterError


# ---------------------------------------------------------------------------
# free words


def test_free_reduce_examples():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, 1)) == (1, 1)
    assert free_reduce((3, -2, 2, -3, 1)) == (1,)


def test_word_times_inverse_is_trivial():
    rng = random.Random(4)
    for _ in range(50):
        word = free_reduce(
            tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(rng.randint(0, 12)))
        )
        assert free_mul(word, free_inv(word)) == ()


def test_cyclic_decompose():
    conj, core = cyclic_decompose((1, 2, 3, -2, -1))
    assert conj == (1, 2) and core == (3,)
    assert cyclic_decompose((1, 2)) == ((), (1, 2))


def test_proper_power_detection():
    assert is_proper_power((1, 1))
    assert is_proper_power((1, 2, 1, 2))
    assert is_proper_power((2, 1, 1, -2))  # conjugate of a square
    assert not is_proper_power((1,))
    assert not is_proper_power((1, 2))
    assert not is_proper_power(())


def test_power_of_edge_basics():
    z = (1,)
    assert power_of_edge((1, 1, 1), z) == 3
    assert power_of_edge((-1, -1), z) == -2
    assert power_of_edge((), z) == 0
    assert power_of_edge((1, 2), z) is None
    assert power_of_edge((2,), z) is None


@pytest.mark.parametrize("z", [(1,), (1, 2), (2, -1), (1, 2, -1), (2, 1, 1, -2)])
def test_power_of_edge_sweep(z):
    if is_proper_power(z):
        with pytest.raises(EdgeWordError):
            power_of_edge((1,), z)
        return
    for k in range(-20, 21):
        assert power_of_edge(free_pow(z, k), z) == k
    # appending a fresh letter lands outside the cyclic subgroup
    assert power_of_edge(free_mul(z, (3,)), z) is None


def test_edge_word_validation():
    with pytest.raises(EdgeWordError):
        EdgeWords(left=(), right=(1,))
    with pytest.raises(EdgeWordError):
        EdgeWords(left=(1, 1), right=(1,))


# The quadratic rotation test and slice peeling that the linear versions
# replaced, kept as the reference they must agree with.


def _reference_cyclic_decompose(word):
    core = list(word)
    conj = []
    while len(core) >= 2 and core[0] == -core[-1]:
        conj.append(core[0])
        core = core[1:-1]
    return tuple(conj), tuple(core)


def _reference_is_rotation(word, of):
    if len(word) != len(of):
        return False
    if len(word) == 0:
        return True
    doubled = of + of
    return any(doubled[i : i + len(word)] == word for i in range(len(of)))


def _reference_conjugate_power_of_edge(word, z):
    word = free_reduce(word)
    if not word:
        return True
    _, core_w = _reference_cyclic_decompose(word)
    _, core_z = _reference_cyclic_decompose(free_reduce(z))
    if len(core_w) % len(core_z) != 0:
        return False
    k = len(core_w) // len(core_z)
    return _reference_is_rotation(core_w, core_z * k) or _reference_is_rotation(
        core_w, free_inv(core_z) * k
    )


def _random_word(rng, z):
    """A random reduced word; about half are conjugates of a rotated power of
    z, some of those with one letter changed."""
    letters = (1, -1, 2, -2, 3, -3)
    if rng.random() < 0.5:
        return free_reduce(rng.choice(letters) for _ in range(rng.randint(0, 12)))
    power = free_pow(z, rng.choice((-1, 1)) * rng.randint(1, 5))
    j = rng.randrange(len(power))
    core = list(power[j:] + power[:j])
    if rng.random() < 0.3:
        core[rng.randrange(len(core))] = rng.choice(letters)
    conj = free_reduce(rng.choice(letters) for _ in range(rng.randint(0, 4)))
    return free_mul(conj, core, free_inv(conj))


@pytest.mark.parametrize("z", [(1,), (1, 2), (2, -1, 3), (1, 1, 2)])
def test_rotation_test_and_peeling_match_the_quadratic_reference(z):
    rng = random.Random(41)
    positives = 0
    for _ in range(2000):
        word = _random_word(rng, z)
        assert cyclic_decompose(word) == _reference_cyclic_decompose(word)
        expected = _reference_conjugate_power_of_edge(word, z)
        assert conjugate_power_of_edge(word, z) == expected
        positives += expected
    assert 500 < positives < 1500


# ---------------------------------------------------------------------------
# britton reduction


def test_edge_power_absorbed_across_the_amalgam():
    word = amalgam_word([("L", (1, 1)), ("R", (2,))])
    reduced = britton_reduce(word)
    assert reduced.syllables == (Syllable("R", (1, 1, 2)),)


def test_trivial_syllable_merges_neighbors():
    word = amalgam_word([("L", (2,)), ("R", ()), ("L", (3,))])
    reduced = britton_reduce(word)
    assert reduced.syllables == (Syllable("L", (2, 3)),)


def test_identity_collapses_to_empty_word():
    word = amalgam_word([("L", (1,)), ("R", (-1,))])
    assert britton_reduce(word).is_identity()


def test_reduction_is_idempotent_and_non_increasing():
    rng = random.Random(8)
    universe = enumerate_words(max_syllables=3, rank=2, max_letters=2)
    for word in rng.sample(universe, 300):
        reduced = britton_reduce(word)
        assert is_britton_reduced(reduced)
        assert reduced.syllable_length <= word.syllable_length
        again = britton_reduce(reduced)
        assert again.syllables == reduced.syllables


def test_reduced_word_represents_the_same_element():
    # the coset normal form is a complete invariant; it must agree before
    # and after reduction
    rng = random.Random(13)
    universe = enumerate_words(max_syllables=3, rank=2, max_letters=2)
    for word in rng.sample(universe, 300):
        reduced = britton_reduce(word)
        assert normal_form(word) == normal_form(reduced)
        assert reduced.syllable_length == normal_form_length(word)


def test_reduced_length_matches_bounded_rewriting_search():
    rng = random.Random(23)
    universe = enumerate_words(max_syllables=3, rank=2, max_letters=1)
    for word in rng.sample(universe, 60):
        assert britton_reduce(word).syllable_length == bounded_rewriting_min_length(word)


def test_non_default_edge_word():
    edge = EdgeWords(left=(1, 2), right=(1, 2))
    word = amalgam_word([("L", (1, 2, 1, 2)), ("R", (3,))], edge)
    reduced = britton_reduce(word)
    assert reduced.syllables == (Syllable("R", (1, 2, 1, 2, 3)),)


# ---------------------------------------------------------------------------
# classification


def test_edge_power_is_edge_conjugate():
    word = amalgam_word([("L", (1, 1, 1, 1, 1))])
    assert classify_element(word) == EDGE_CONJUGATE


def test_conjugated_edge_power_is_edge_conjugate():
    word = amalgam_word([("L", (2, 1, 1, 1, 1, 1, -2))])
    assert classify_element(word) == EDGE_CONJUGATE


def test_two_syllable_word_is_pseudo_anosov_type():
    word = amalgam_word([("L", (2,)), ("R", (3,))])
    assert classify_element(word) == PSEUDO_ANOSOV_TYPE
    assert conjugacy_oracle(word) == PSEUDO_ANOSOV_TYPE


def test_identity_classification():
    assert classify_element(amalgam_word([])) == IDENTITY
    assert classify_element(amalgam_word([("L", (1,)), ("R", (-1,))])) == IDENTITY


def test_classification_is_a_conjugacy_invariant():
    rng = random.Random(31)
    universe = enumerate_words(max_syllables=3, rank=2, max_letters=2)
    for word in rng.sample(universe, 120):
        label = classify_element(word)
        sylls = word.syllables
        # cyclic permutation of syllables
        for r in range(1, len(sylls)):
            rotated = AmalgamWord(sylls[r:] + sylls[:r], word.edge)
            assert classify_element(rotated) == label
        # conjugation by a single letter on either side
        letter = rng.choice((1, -1, 2, -2))
        factor = rng.choice(("L", "R"))
        conjugated = AmalgamWord(
            (Syllable(factor, (letter,)),) + sylls + (Syllable(factor, (-letter,)),),
            word.edge,
        )
        assert classify_element(conjugated) == label


def test_classification_matches_rotation_oracle_spotwise():
    rng = random.Random(37)
    universe = enumerate_words(max_syllables=3, rank=2, max_letters=2)
    for word in rng.sample(universe, 200):
        assert classify_element(word) == conjugacy_oracle(word)


def test_long_edge_power_reduces_and_classifies():
    word = parse_word("L:z^100000 R:g2", rank=4)
    assert format_word(britton_reduce(word)) == "R:g1^100000g2"
    assert classify_element(word) == PSEUDO_ANOSOV_TYPE


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_and_format_roundtrip():
    word = parse_word("L:g1^2 R:g3 L:z^-1", rank=4)
    assert word.syllables == (
        Syllable("L", (1, 1)),
        Syllable("R", (3,)),
        Syllable("L", (-1,)),
    )
    assert format_word(word) == "L:g1^2 R:g3 L:g1^-1"
    assert format_word(britton_reduce(amalgam_word([]))) == "1"


def test_parse_expands_edge_word():
    edge = EdgeWords(left=(1, 2), right=(2,))
    word = parse_word("L:z^2 R:z^-1", rank=4, edge=edge)
    assert word.syllables == (Syllable("L", (1, 2, 1, 2)), Syllable("R", (-2,)))


def test_parse_errors():
    with pytest.raises(ParameterError):
        parse_word("X:g1", rank=4)
    with pytest.raises(ParameterError):
        parse_word("L:g9", rank=4)
    with pytest.raises(ParameterError):
        parse_word("L:what", rank=4)
    with pytest.raises(ParameterError):
        parse_word("L:g0", rank=4)
