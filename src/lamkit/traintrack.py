r"""Exact weight vectors on the standard track around a twisting multicurve.

Near each component c_j of the multicurve the track carries three branch
weights: x_j (the crossing weight, equal to the intersection number of the
carried class with c_j), y_j, and z_j = x_j + y_j, the switch condition.
All remaining branches of the track are collected in an opaque ``rest``
block that the twist never touches.

One application of the multitwist adds x_j to both y_j and z_j and leaves
everything else alone, so the operator is linear and unipotent on the weight
vector.  Weights are exact rationals throughout, which makes the switch
condition and the fixed-point statements checkable with equality, not
tolerance.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidWeightsError, ParameterError

DEFAULT_MAX_DENOMINATOR = 10**12
# Fraction expands a decimal exponent to an exact integer of that many digits;
# beyond Python's own limit on the digits of an integer string, input is refused
MAX_DECIMAL_EXPONENT = 4300


def _as_fraction(value, max_denominator=DEFAULT_MAX_DENOMINATOR):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        exact = Fraction(value)
    except (TypeError, ValueError):
        # mpmath and friends: go through the exact binary value of a double,
        # which resolves far below the denominator bound
        exact = Fraction(float(value))
    return exact.limit_denominator(max_denominator)


def exact_fraction(value):
    """``Fraction(value)`` for a string or a non-boolean number; anything else, a value
    that is not a finite number and a decimal exponent beyond ``MAX_DECIMAL_EXPONENT``
    raise ParameterError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParameterError(f"{value!r} is not a number or a string")
    try:
        exponent = int(value.lower().partition("e")[2] or 0) if isinstance(value, str) else 0
        if abs(exponent) <= MAX_DECIMAL_EXPONENT:
            return Fraction(value)
    except (ArithmeticError, ValueError):
        raise ParameterError(f"{value!r} is not a finite number") from None
    raise ParameterError(f"{value!r} has a decimal exponent beyond {MAX_DECIMAL_EXPONENT}")


def rationalize(values, max_denominator=DEFAULT_MAX_DENOMINATOR):
    """Convert a sequence of numbers to exact Fractions (bounded denominator)."""
    return tuple(_as_fraction(v, max_denominator) for v in values)


@dataclass(frozen=True)
class TrackWeights:
    """Nonnegative rational branch weights, one (x, y, z) triple per component."""

    components: tuple  # ((x, y, z), ...) as Fractions
    rest: tuple = ()

    def __post_init__(self):
        comps = tuple(
            (Fraction(x), Fraction(y), Fraction(z)) for (x, y, z) in self.components
        )
        rest = tuple(Fraction(r) for r in self.rest)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "rest", rest)
        if not comps:
            raise InvalidWeightsError("track needs at least one component")
        for j, (x, y, z) in enumerate(comps, start=1):
            if x < 0 or y < 0 or z < 0:
                raise InvalidWeightsError(f"negative weight at component {j}")
            if z != x + y:
                raise InvalidWeightsError(
                    f"switch condition z = x + y fails at component {j}: "
                    f"{z} != {x} + {y}"
                )
        if any(r < 0 for r in rest):
            raise InvalidWeightsError("negative weight in rest block")

    @property
    def n(self):
        return len(self.components)

    def as_vector(self):
        """Flattened (x_1, y_1, z_1, ..., x_n, y_n, z_n, rest...) tuple."""
        flat = []
        for x, y, z in self.components:
            flat.extend((x, y, z))
        flat.extend(self.rest)
        return tuple(flat)

    def to_json_dict(self):
        return {
            "components": [
                {"x": str(x), "y": str(y), "z": str(z)} for (x, y, z) in self.components
            ],
            "rest": [str(r) for r in self.rest],
        }

    @classmethod
    def from_json_dict(cls, doc):
        """Read :meth:`to_json_dict` output; a malformed document raises ParameterError.

        ``components`` and ``rest`` are arrays; a weight is a string or a
        non-boolean number.
        """
        try:
            comps, rest = doc["components"], doc.get("rest", [])
            if not (isinstance(comps, list) and isinstance(rest, list)):
                raise TypeError("components and rest must be arrays")
            comps = tuple(tuple(exact_fraction(c[key]) for key in "xyz") for c in comps)
            rest = tuple(exact_fraction(r) for r in rest)
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
            raise ParameterError(
                f"malformed weights JSON ({type(exc).__name__}: {exc})"
            ) from None
        return cls(components=comps, rest=rest)


def curve_class(j, n, rest_len=0):
    """The weight vector carrying the j-th twisting curve itself.

    Component j gets (x, y, z) = (0, 1, 1); everything else is zero.  These
    vectors are fixed by the multitwist and span its fixed cone.
    """
    if not 1 <= j <= n:
        raise ParameterError(f"component index {j} out of range 1..{n}")
    comps = tuple(
        (Fraction(0), Fraction(1), Fraction(1)) if i == j else (Fraction(0),) * 3
        for i in range(1, n + 1)
    )
    return TrackWeights(components=comps, rest=(Fraction(0),) * rest_len)


def multitwist_step(weights):
    """One application of the multitwist: y_j and z_j gain x_j, x_j and rest stay."""
    comps = tuple((x, y + x, z + x) for (x, y, z) in weights.components)
    return TrackWeights(components=comps, rest=weights.rest)


def intersection_with_component(weights, j):
    """The crossing weight x_j, i.e. the intersection number with the j-th curve."""
    if not 1 <= j <= weights.n:
        raise ParameterError(f"component index {j} out of range 1..{weights.n}")
    return weights.components[j - 1][0]
