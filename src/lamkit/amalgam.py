r"""Words in a free product of two free groups amalgamated over a cyclic subgroup.

Letters of a free group are nonzero integers: ``+i`` is the i-th generator,
``-i`` its inverse.  A syllable is a freely reduced word together with a
factor tag ``'L'`` or ``'R'``; an amalgam word is a sequence of syllables.
The amalgamated subgroup is the cyclic group generated by a configured word
``z_L`` in the left factor, identified with ``z_R`` in the right factor
(by default generator 1 on each side; the edge generator must not be a
proper power, which keeps powers of it unambiguous).

``britton_reduce`` drops trivial syllables, merges same-factor neighbors,
and rewrites any syllable that is a power of the edge generator into the
other factor, where it merges with a neighbor.  Words with at least two
syllables and no syllable in the edge subgroup cannot be shortened, so the
reduced syllable count is an invariant of the group element; a cyclic
version of the same procedure underlies the element classification.
"""

from dataclasses import dataclass
import re

from .errors import EdgeWordError, ParameterError

LEFT = "L"
RIGHT = "R"


# ---------------------------------------------------------------------------
# free words as tuples of nonzero integers


def free_reduce(letters):
    """Freely reduce a letter sequence (cancel adjacent inverse pairs)."""
    out = []
    for letter in letters:
        letter = int(letter)
        if letter == 0:
            raise ParameterError("0 is not a letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def free_mul(*words):
    letters = []
    for w in words:
        letters.extend(w)
    return free_reduce(letters)


def free_inv(word):
    return tuple(-letter for letter in reversed(word))


def free_pow(word, k):
    if k == 0:
        return ()
    base = word if k > 0 else free_inv(word)
    return free_mul(*([base] * abs(k)))


def cyclic_decompose(word):
    """Split a reduced word as conjugator * core * conjugator^-1.

    The core is cyclically reduced; the decomposition is unique and obtained
    by peeling matched inverse letters off the two ends.
    """
    word = tuple(word)
    i = 0
    while len(word) - 2 * i >= 2 and word[i] == -word[-1 - i]:
        i += 1
    return word[:i], word[i : len(word) - i]


def is_proper_power(word):
    """True iff the word equals u**m for some shorter u and m >= 2."""
    _, core = cyclic_decompose(word)
    n = len(core)
    if n == 0:
        return False
    for d in range(1, n):
        if n % d == 0 and core == core[:d] * (n // d):
            return True
    return False


def _validate_edge_word(z):
    z = free_reduce(z)
    if not z:
        raise EdgeWordError("edge generator must be nontrivial")
    if is_proper_power(z):
        raise EdgeWordError("edge generator must not be a proper power")
    return z


def power_of_edge(word, z):
    """The integer k with word = z**k, or None if no such power exists.

    ``z`` must be nontrivial and not a proper power, which makes k unique.
    """
    z = _validate_edge_word(z)
    word = free_reduce(word)
    if not word:
        return 0
    conj_w, core_w = cyclic_decompose(word)
    conj_z, core_z = cyclic_decompose(z)
    if conj_w != conj_z:
        return None
    if len(core_w) % len(core_z) != 0:
        return None
    k = len(core_w) // len(core_z)
    if core_w == core_z * k:
        return k
    if core_w == free_inv(core_z) * k:
        return -k
    return None


def conjugate_power_of_edge(word, z):
    """True iff the word is conjugate, within its factor, to a power of z."""
    z = _validate_edge_word(z)
    word = free_reduce(word)
    if not word:
        return True
    _, core_w = cyclic_decompose(word)
    _, core_z = cyclic_decompose(z)
    if len(core_w) % len(core_z) != 0:
        return False
    # a rotation of c**k is the k-th power of a rotation of c
    k = len(core_w) // len(core_z)
    return any(
        core_w == (c[j:] + c[:j]) * k for c in (core_z, free_inv(core_z)) for j in range(len(c))
    )


# ---------------------------------------------------------------------------
# amalgam words


@dataclass(frozen=True)
class Syllable:
    factor: str
    letters: tuple

    def __post_init__(self):
        if self.factor not in (LEFT, RIGHT):
            raise ParameterError(f"factor must be 'L' or 'R', got {self.factor!r}")
        object.__setattr__(self, "letters", free_reduce(self.letters))


@dataclass(frozen=True)
class EdgeWords:
    """The edge generator expressed in each factor."""

    left: tuple = (1,)
    right: tuple = (1,)

    def __post_init__(self):
        object.__setattr__(self, "left", _validate_edge_word(self.left))
        object.__setattr__(self, "right", _validate_edge_word(self.right))

    def word(self, factor):
        return self.left if factor == LEFT else self.right

    def other(self, factor):
        return RIGHT if factor == LEFT else LEFT


@dataclass(frozen=True)
class AmalgamWord:
    syllables: tuple
    edge: EdgeWords = EdgeWords()

    @property
    def syllable_length(self):
        return len(self.syllables)

    def is_identity(self):
        return not self.syllables


def amalgam_word(parts, edge=None):
    """Build an amalgam word from (factor, letters) pairs."""
    edge = edge if edge is not None else EdgeWords()
    sylls = tuple(Syllable(factor, tuple(letters)) for factor, letters in parts)
    return AmalgamWord(syllables=sylls, edge=edge)


def _merge_pass(sylls):
    """Drop trivial syllables and multiply same-factor neighbors."""
    changed = False
    out = []
    for s in sylls:
        if not s.letters:
            changed = True
            continue
        if out and out[-1].factor == s.factor:
            out[-1] = Syllable(s.factor, free_mul(out[-1].letters, s.letters))
            changed = True
        else:
            out.append(s)
    return out, changed


def britton_reduce(word):
    """Rewrite to a form with no syllable in the edge subgroup (when length >= 2).

    Any syllable equal to a power of the edge generator is re-expressed in
    the other factor and merged with a neighbor, strictly shortening the
    word; the loop runs to a fixpoint.  A resulting single edge-power
    syllable is canonically expressed in the left factor.
    """
    edge = word.edge
    sylls = list(word.syllables)
    while True:
        sylls, changed = _merge_pass(sylls)
        if len(sylls) >= 2:
            for i, s in enumerate(sylls):
                k = power_of_edge(s.letters, edge.word(s.factor))
                if k is None:
                    continue
                other = edge.other(s.factor)
                converted = free_pow(edge.word(other), k)
                if i > 0:
                    sylls[i - 1] = Syllable(
                        sylls[i - 1].factor, free_mul(sylls[i - 1].letters, converted)
                    )
                else:
                    sylls[1] = Syllable(
                        sylls[1].factor, free_mul(converted, sylls[1].letters)
                    )
                del sylls[i]
                changed = True
                break
        if not changed:
            break
    if len(sylls) == 1:
        k = power_of_edge(sylls[0].letters, edge.word(sylls[0].factor))
        if k == 0:
            sylls = []
        elif k is not None and sylls[0].factor == RIGHT:
            sylls = [Syllable(LEFT, free_pow(edge.left, k))]
    return AmalgamWord(syllables=tuple(sylls), edge=edge)


def is_britton_reduced(word):
    sylls = word.syllables
    if any(not s.letters for s in sylls):
        return False
    if any(a.factor == b.factor for a, b in zip(sylls, sylls[1:])):
        return False
    if len(sylls) >= 2:
        for s in sylls:
            if power_of_edge(s.letters, word.edge.word(s.factor)) is not None:
                return False
    return True


IDENTITY = "identity"
EDGE_CONJUGATE = "conjugate_into_edge_group"
PSEUDO_ANOSOV_TYPE = "pseudo_anosov_type"


def classify_element(word):
    """Classify by conjugacy: identity, conjugate into the edge subgroup, or not.

    The word is cyclically Britton-reduced.  A cyclic reduction of length at
    least two is not conjugate into either factor; a single syllable is
    conjugate into the edge subgroup exactly when its free cyclic core is a
    rotation of a power of the edge generator's core.  The last label is
    symbolic: for the groups this models, everything outside the edge
    conjugates is of pseudo-Anosov type.
    """
    reduced = britton_reduce(word)
    sylls = list(reduced.syllables)
    while len(sylls) >= 2 and sylls[0].factor == sylls[-1].factor:
        rotated = [
            Syllable(sylls[0].factor, free_mul(sylls[-1].letters, sylls[0].letters))
        ] + sylls[1:-1]
        reduced = britton_reduce(AmalgamWord(tuple(rotated), word.edge))
        sylls = list(reduced.syllables)
    if not sylls:
        return IDENTITY
    if len(sylls) >= 2:
        return PSEUDO_ANOSOV_TYPE
    s = sylls[0]
    if conjugate_power_of_edge(s.letters, word.edge.word(s.factor)):
        return EDGE_CONJUGATE
    return PSEUDO_ANOSOV_TYPE


# ---------------------------------------------------------------------------
# parsing and formatting (CLI word syntax: "L:g1^2g3^-1 R:z^-1 ...")

_ATOM = re.compile(r"(g(\d+)|z)(?:\^(-?\d+))?")


def parse_word(text, rank, edge=None):
    """Parse the CLI word syntax into an AmalgamWord.

    Each whitespace-separated token is ``L:`` or ``R:`` followed by atoms
    ``g<i>`` (generator, 1-based, at most ``rank``) or ``z`` (the edge
    generator of that factor), each with an optional integer exponent.
    """
    edge = edge if edge is not None else EdgeWords()
    parts = []
    for token in text.split():
        if len(token) < 2 or token[1] != ":" or token[0] not in (LEFT, RIGHT):
            raise ParameterError(f"syllable {token!r} must look like L:... or R:...")
        factor, body = token[0], token[2:]
        letters = []
        pos = 0
        for match in _ATOM.finditer(body):
            if match.start() != pos:
                raise ParameterError(f"unparsable atoms in {token!r}")
            exp = int(match.group(3)) if match.group(3) else 1
            if match.group(1) == "z":
                letters.extend(free_pow(edge.word(factor), exp))
            else:
                idx = int(match.group(2))
                if not 1 <= idx <= rank:
                    raise ParameterError(
                        f"generator g{idx} out of range 1..{rank} in {token!r}"
                    )
                letters.extend([idx if exp > 0 else -idx] * abs(exp))
            pos = match.end()
        if pos != len(body):
            raise ParameterError(f"unparsable atoms in {token!r}")
        parts.append((factor, letters))
    return amalgam_word(parts, edge)


def format_word(word):
    if not word.syllables:
        return "1"
    tokens = []
    for s in word.syllables:
        atoms = []
        i = 0
        letters = s.letters
        while i < len(letters):
            j = i
            while j < len(letters) and letters[j] == letters[i]:
                j += 1
            gen, count = abs(letters[i]), j - i
            exp = count if letters[i] > 0 else -count
            atoms.append(f"g{gen}" if exp == 1 else f"g{gen}^{exp}")
            i = j
        tokens.append(f"{s.factor}:{''.join(atoms)}")
    return " ".join(tokens)
