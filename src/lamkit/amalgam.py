r"""Words in a free product of two free groups amalgamated over a cyclic subgroup.

Letters of a free group are nonzero integers: ``+i`` is the i-th generator,
``-i`` its inverse.  A syllable is a freely reduced word together with a
factor tag ``'L'`` or ``'R'``; an amalgam word is a sequence of syllables.
The amalgamated subgroup is the cyclic group generated by a configured word
``z_L`` in the left factor, identified with ``z_R`` in the right factor
(by default generator 1 on each side; the edge generator must not be a
proper power, which keeps powers of it unambiguous).

``britton_reduce`` pushes the syllables one at a time onto a stack that
holds a reduced word (Britton's lemma; Lyndon-Schupp, *Combinatorial Group
Theory*, IV.2).  A pushed syllable merges with a same-factor top; an edge
power is rewritten into the other factor and merges with the top; a lone
edge-power stack is rewritten into the pushed syllable's factor.  Each
syllable is pushed and popped O(1) times, and reduction is a left fold:
reducing u*v equals reducing (reduced u)*v.  A reduced word with at least
two syllables has no syllable in the edge subgroup and cannot be shortened,
so its syllable count is an invariant of the group element.  A lone edge
power is written in the left factor.  ``classify_element`` reduces
cyclically with the same rule, moving the first syllable onto the end while
the two ends share a factor.
"""

from collections import deque
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


def _push(stack, s, edge):
    """Multiply the reduced word held by ``stack`` on the right by syllable s.

    While s is nontrivial, each step does the first case that applies:
    a same-factor top is popped into s; an edge power s is rewritten into
    the top's factor and absorbs the popped top; a lone edge-power stack is
    rewritten into s's factor and absorbed into s; otherwise s is appended.
    The stack stays reduced, and each call appends at most once.
    """
    while s.letters:
        top = stack[-1] if stack else None
        if top is not None and top.factor == s.factor:
            stack.pop()
            s = Syllable(s.factor, free_mul(top.letters, s.letters))
            continue
        k = power_of_edge(s.letters, edge.word(s.factor)) if stack else None
        if k is not None:
            stack.pop()
            s = Syllable(top.factor, free_mul(top.letters, free_pow(edge.word(top.factor), k)))
            continue
        k = power_of_edge(top.letters, edge.word(top.factor)) if len(stack) == 1 else None
        if k is not None:
            stack.pop()
            s = Syllable(s.factor, free_mul(free_pow(edge.word(s.factor), k), s.letters))
            continue
        stack.append(s)
        return


def _pushed(word):
    stack = deque()
    for s in word.syllables:
        _push(stack, s, word.edge)
    return stack


def britton_reduce(word):
    """The reduced word of the element: every syllable pushed by ``_push``.

    Pushing is a left fold, so ``britton_reduce(u * v)`` equals
    ``britton_reduce(britton_reduce(u) * v)``.  A result of two or more
    syllables alternates factors and has no edge-power syllable; a lone
    edge-power syllable is canonically written in the left factor.
    """
    edge = word.edge
    sylls = list(_pushed(word))
    if len(sylls) == 1 and sylls[0].factor == RIGHT:
        k = power_of_edge(sylls[0].letters, edge.right)
        if k is not None:
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

    The word is pushed as in ``britton_reduce``; then, while its two ends
    share a factor, the first syllable is popped and pushed onto the end (a
    conjugation that merges the ends).  A cyclic reduction of length at
    least two is not conjugate into either factor; a single syllable is
    conjugate into the edge subgroup exactly when its free cyclic core is a
    rotation of a power of the edge generator's core.  The last label is
    symbolic: for the groups this models, everything outside the edge
    conjugates is of pseudo-Anosov type.
    """
    stack = _pushed(word)
    while len(stack) >= 2 and stack[0].factor == stack[-1].factor:
        _push(stack, stack.popleft(), word.edge)
    if not stack:
        return IDENTITY
    if len(stack) >= 2:
        return PSEUDO_ANOSOV_TYPE
    s = stack[0]
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
    generator of that factor), each with an optional integer exponent.  A
    token ``1`` is the identity, as ``format_word`` prints it.  The edge
    words' letters must name generators in 1..``rank`` too.
    """
    edge = edge if edge is not None else EdgeWords()
    bad = [abs(x) for x in edge.left + edge.right if not 1 <= abs(x) <= rank]
    if bad:
        raise ParameterError(f"edge word letter g{bad[0]} out of range 1..{rank}")
    parts = []
    for token in text.split():
        if token == "1":
            continue
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
