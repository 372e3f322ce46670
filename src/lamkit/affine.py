r"""Derivatives of the affine self-maps attached to the cylinder directions.

In the flat coordinates the simultaneous Dehn twist in all the cylinders of
an equal-modulus direction is affine; its derivative is the unit shear

    horizontal:  [[1, s], [0, 1]]        vertical:  [[1, 0], [-s, 1]]

with s = circumference/height, the common inverse modulus.  The vertical
convention is the conjugate of the horizontal one by a quarter turn.  The
central hyperelliptic involution has derivative -Id; the generator of the
parabolic subgroup over the horizontal direction is the 2(2g+1)-st twist
power composed with the involution, whose derivative has trace exactly -2
(the sign carried by the central element).
"""

from dataclasses import dataclass
import re

import mpmath

from .errors import InvalidMatrixError, NotParabolicError, ParameterError
from .flat_surface import HORIZONTAL, VERTICAL, cylinder_decomposition
from .precision import DEFAULT_TOLERANCE, value_precision

TRACE_TOLERANCE = 1e-9


def _dot(x, y, u, v):
    """x*y + u*v without rounding (an mpf is a dyadic rational), so det = 1 stays exact."""
    return mpmath.fadd(mpmath.fmul(x, y, exact=True), mpmath.fmul(u, v, exact=True), exact=True)


@dataclass(frozen=True)
class Mat2:
    """A 2x2 real matrix of int or mpf entries whose arithmetic never rounds."""

    a: object
    b: object
    c: object
    d: object

    def trace(self):
        return mpmath.fadd(self.a, self.d, exact=True)

    def det(self):
        return _dot(self.a, self.d, mpmath.fneg(self.b, exact=True), self.c)

    def __mul__(self, other):
        return Mat2(
            _dot(self.a, other.a, self.b, other.c),
            _dot(self.a, other.b, self.b, other.d),
            _dot(self.c, other.a, self.d, other.c),
            _dot(self.c, other.b, self.d, other.d),
        )

    def inverse(self):
        # valid for det = 1
        return Mat2(self.d, mpmath.fneg(self.b, exact=True), mpmath.fneg(self.c, exact=True), self.a)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result, base = identity_matrix(), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))


def identity_matrix():
    return Mat2(1, 0, 0, 1)


def classify(m):
    """Classify a unit-determinant matrix as identity/parabolic/elliptic/hyperbolic.

    Plus or minus the identity is reported as ``identity`` (central).  The det
    must be exactly 1; comparisons with +-1 and +-2 allow TRACE_TOLERANCE, as
    the group's relations hold only approximately for the rounded shears.
    """
    # ad = bc + 1 exactly; forming ad - bc would make mpmath strip its ~all-zero
    # mantissa 8 bits at a time, quadratic in the entries' width
    if mpmath.fmul(m.a, m.d, exact=True) != _dot(m.b, m.c, 1, 1):
        raise InvalidMatrixError(f"matrix determinant {m.det()} is not 1")
    for sign in (1, -1):
        if (
            abs(m.a - sign) <= TRACE_TOLERANCE
            and abs(m.d - sign) <= TRACE_TOLERANCE
            and abs(m.b) <= TRACE_TOLERANCE
            and abs(m.c) <= TRACE_TOLERANCE
        ):
            return "identity"
    t = abs(m.trace())
    if t > 2 + TRACE_TOLERANCE:
        return "hyperbolic"
    if t < 2 - TRACE_TOLERANCE:
        return "elliptic"
    return "parabolic"


def twist_derivative(cylinders):
    """Derivative of the simultaneous unit twist in an equal-modulus direction.

    All cylinders must share a direction and have equal moduli (within the
    relative DEFAULT_TOLERANCE); otherwise the multitwist is not affine and a
    NotParabolicError is raised.
    """
    if not cylinders:
        raise ParameterError("need at least one cylinder")
    direction = cylinders[0].direction
    if any(c.direction != direction for c in cylinders):
        raise ParameterError("cylinders come from different directions")
    values = [c.circumference for c in cylinders] + [c.height for c in cylinders]
    with mpmath.workprec(value_precision(*values)):
        moduli = [c.modulus for c in cylinders]
        m0 = moduli[0]
        if any(abs(m - m0) > DEFAULT_TOLERANCE * abs(m0) for m in moduli):
            raise NotParabolicError(
                f"moduli in the {direction} direction are not all equal"
            )
        shear = cylinders[0].circumference / cylinders[0].height
    if direction == HORIZONTAL:
        return Mat2(1, shear, 0, 1)
    return Mat2(1, 0, -shear, 1)


@dataclass(frozen=True)
class AffineElement:
    """A symbolic word in the twist generators with its derivative matrix."""

    tokens: tuple  # ((symbol, exponent), ...) with symbols 'TA', 'TB', 'sigma'
    derivative: Mat2

    @property
    def label(self):
        if not self.tokens:
            return "1"
        parts = []
        for sym, k in self.tokens:
            parts.append(sym if k == 1 else f"{sym}^{k}")
        return " ".join(parts)

    def __mul__(self, other):
        return AffineElement(
            tokens=_merge_tokens(self.tokens + other.tokens),
            derivative=self.derivative * other.derivative,
        )

    def __pow__(self, k):
        base = self if k >= 0 else self.inverse()
        return AffineElement(_merge_tokens(base.tokens * abs(k)), self.derivative ** k)

    def inverse(self):
        tokens = tuple((sym, -k) for sym, k in reversed(self.tokens))
        return AffineElement(_merge_tokens(tokens), self.derivative.inverse())


def _merge_tokens(tokens):
    out = []
    for sym, k in tokens:
        if k == 0:
            continue
        if out and out[-1][0] == sym:
            total = out[-1][1] + k
            out.pop()
            if total:
                out.append((sym, total))
        else:
            out.append((sym, k))
    return tuple(out)


def generators(surface):
    """The twist elements and the central involution for a surface."""
    # twist_derivative negates the vertical shear at the ambient precision
    with mpmath.workprec(surface.precision):
        ta = twist_derivative(cylinder_decomposition(surface, HORIZONTAL))
        tb = twist_derivative(cylinder_decomposition(surface, VERTICAL))
        minus_id = Mat2(mpmath.mpf(-1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(-1))
    return {
        "TA": AffineElement((("TA", 1),), ta),
        "TB": AffineElement((("TB", 1),), tb),
        "sigma": AffineElement((("sigma", 1),), minus_id),
    }


def parabolic_generator(g, surface):
    """Generator of the parabolic subgroup over the horizontal direction.

    The word is the 2(2g+1)-st power of the horizontal multitwist composed
    with the central involution; its derivative has trace exactly -2 and the
    derivative of its square has trace exactly +2.
    """
    if surface.genus != g:
        raise ParameterError(f"surface has genus {surface.genus}, expected {g}")
    gens = generators(surface)
    return (gens["TA"] ** (2 * (2 * g + 1))) * gens["sigma"]


_WORD_TOKEN = re.compile(r"(TA|TB|sigma|s)\s*(?:\^\s*(-?\d+))?", re.IGNORECASE)


def evaluate_word(text, surface):
    """Evaluate a twist word like ``"TA^5 sigma TB^-2"`` on a surface."""
    gens = generators(surface)
    cleaned = text.replace("*", " ")
    pos = 0
    tokens, derivative = [], identity_matrix()
    for match in _WORD_TOKEN.finditer(cleaned):
        if cleaned[pos : match.start()].strip():
            raise ParameterError(f"unparsable word fragment {cleaned[pos:match.start()]!r}")
        sym = match.group(1)
        sym = "sigma" if sym.lower() in ("sigma", "s") else sym.upper()
        k = int(match.group(2)) if match.group(2) else 1
        tokens.append((sym, k))
        derivative = derivative * gens[sym].derivative ** k
        pos = match.end()
    if cleaned[pos:].strip():
        raise ParameterError(f"unparsable word fragment {cleaned[pos:]!r}")
    return AffineElement(_merge_tokens(tokens), derivative)
