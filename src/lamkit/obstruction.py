r"""The height-ratio locus and the separation witness behind the main obstruction.

The vertical foliation class of a double-polygon surface is the vertical
cylinder heights w_1..w_g read as weights on the b-curves.  A candidate
class is described here only through its vector v of intersection numbers
with the b-curves.  Two such data conflict unless v is projectively
proportional to w: iterating the vertical multitwist drives the candidate
to the class [v], while invariance arguments force the same limit to be
[w].  The separation between the two normalized vectors is therefore a
quantitative witness: zero exactly on the proportionality locus, positive
off it.

Random positive vectors miss the locus with probability one; the sampler
below checks this with exact rational arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction
import random

from .dynamics import ProjectiveClass
from .errors import HypothesisError, ParameterError
from .flat_surface import VERTICAL, build_double_polygon, cylinder_decomposition
from .traintrack import rationalize

DEFAULT_RATIO_TOLERANCE = 1e-10


def vertical_heights(surface):
    """Vertical cylinder heights in b-label order."""
    return tuple(c.height for c in cylinder_decomposition(surface, VERTICAL))


def _check_positive(name, values):
    if len(values) == 0:
        raise ParameterError(f"{name} must be nonempty")
    for i, v in enumerate(values, start=1):
        if not v > 0:
            raise HypothesisError(
                f"{name}[{i}] = {v} violates the positivity hypothesis"
            )


def in_ratio_locus(v, w, tol=DEFAULT_RATIO_TOLERANCE):
    """True iff v and w have equal ratios: v_i w_j = v_j w_i for all i, j.

    The test is multiplicative (cross products against ``tol`` times the
    scale max(v) * max(w)), so no divisions occur.  With ``tol=0`` and
    rational inputs the comparison is exact.  All entries must be positive.
    """
    v, w = tuple(v), tuple(w)
    if len(v) != len(w):
        raise ParameterError("vectors must have equal length")
    _check_positive("v", v)
    _check_positive("w", w)
    exact = tol == 0 and all(isinstance(x, (Fraction, int)) for x in v + w)
    scale = max(v) * max(w)
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            cross = v[i] * w[j] - v[j] * w[i]
            if exact:
                if cross != 0:
                    return False
            elif abs(cross) > tol * scale:
                return False
    return True


@dataclass(frozen=True)
class WitnessResult:
    """Separation between the twist-limit class of v and the heights class."""

    separation: object
    in_locus: bool
    limit_class: ProjectiveClass
    heights_class: ProjectiveClass


def contradiction_witness(v, w, tol=DEFAULT_RATIO_TOLERANCE):
    """Projective distance between the limit class [v] and the heights class [w].

    Iterating the vertical multitwist on any class with b-intersection
    vector v converges to [v] (closed form of the twist limit); the
    separation of [v] from [w] is zero exactly on the ratio locus and
    otherwise certifies the incompatibility of the two limits.
    """
    v, w = tuple(v), tuple(w)
    in_locus = in_ratio_locus(v, w, tol)
    limit_class = ProjectiveClass(v)
    heights_class = ProjectiveClass(w)
    return WitnessResult(
        separation=limit_class.distance(heights_class),
        in_locus=in_locus,
        limit_class=limit_class,
        heights_class=heights_class,
    )


@dataclass(frozen=True)
class SampleReport:
    genus: int
    n_samples: int
    seed: int
    hits: int

    @property
    def fraction_in_locus(self):
        return Fraction(self.hits, self.n_samples)


def genericity_sample(g, n_samples, seed, plant_at=None, precision=None):
    """Fraction of random positive rational vectors lying on the ratio locus.

    Entries are independent rationals p/q with p, q uniform in 1..1000;
    membership is tested exactly (tol = 0) against the rationalized heights
    vector.  ``plant_at`` optionally replaces one sample with the heights
    vector itself, which must then be the only hit.
    """
    if not isinstance(n_samples, int) or n_samples < 1:
        raise ParameterError(f"n_samples must be a positive integer, got {n_samples!r}")
    surface = build_double_polygon(g, precision=precision)
    w = rationalize(vertical_heights(surface))
    rng = random.Random(seed)
    hits = 0
    for index in range(n_samples):
        if plant_at is not None and index == plant_at:
            v = w
        else:
            v = tuple(
                Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(g)
            )
        if in_ratio_locus(v, w, tol=0):
            hits += 1
    return SampleReport(genus=g, n_samples=n_samples, seed=seed, hits=hits)
