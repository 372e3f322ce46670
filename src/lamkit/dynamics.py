r"""Twist-limit dynamics and the boundary-circle direction map.

The multitwist acts linearly and unipotently on track weights; iterating it
on a class whose crossing weights x_j are all nonzero converges projectively
to the weighted sum of the twisting curves with coefficients x_j.  The limit
is computed in closed form by ``twist_limit``; ``iterate_trace`` runs the
honest iteration (exact integer arithmetic) and records the sup-norm
distance to the limit, which decays exactly like C/k.

``direction_foliation`` realizes points of the boundary circle of the
surface's deformation disk through their pairings with the 2g cylinder core
curves: the straight foliation in direction theta pairs with a core of
holonomy v as |v x u_theta|.  Because all 2g cores of the double-polygon
family are axis-parallel, this coordinate projection identifies theta with
pi - theta; the fold-free fundamental arc is [0, pi/2], with the horizontal
and vertical foliation classes as endpoints.

On the arc put t = tan theta: the normalized a-entries c_i t / (A t + B)
rise and the b-entries c_j / (A t + B) fall, where A and B sum the
horizontal and vertical circumferences.  Float rounding and subtraction are
monotone, so for samples i < j < k in arc order the float lift distance
d(i, k) is at least d(i, j): ``min_pairwise_distance`` compares neighbours.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from math import gcd

import mpmath

from .errors import HypothesisError, ParameterError
from .flat_surface import HORIZONTAL, VERTICAL, cylinder_decomposition
from .precision import merge_tolerance, value_precision
from .traintrack import curve_class


def _to_mpf(value):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


@dataclass(frozen=True)
class ProjectiveClass:
    """A projective class of a nonnegative, nonzero weight vector.

    Normalization divides by the coordinate sum; equality and distance are
    sup-norm on normalizations.  Exact (rational) vectors normalize and
    compare exactly.
    """

    vector: tuple

    def __post_init__(self):
        vec = tuple(self.vector)
        object.__setattr__(self, "vector", vec)
        if not vec:
            raise HypothesisError("empty vector is not projectivizable")
        if any(v < 0 for v in vec):
            raise HypothesisError("projective class needs nonnegative entries")
        if all(v == 0 for v in vec):
            raise HypothesisError("zero vector is not projectivizable")

    def normalized(self):
        if all(isinstance(v, (Fraction, int)) for v in self.vector):
            total = sum(self.vector)
            return tuple(Fraction(v) / total for v in self.vector)
        with mpmath.workprec(value_precision(*self.vector)):
            total = _to_mpf(sum(self.vector))
            return tuple(_to_mpf(v) / total for v in self.vector)

    def distance(self, other):
        """Sup-norm distance between the normalizations."""
        if len(self.vector) != len(other.vector):
            raise ParameterError("projective classes live in different dimensions")
        a, b = self.normalized(), other.normalized()
        if all(isinstance(v, Fraction) for v in a + b):
            return max(abs(x - y) for x, y in zip(a, b))
        with mpmath.workprec(value_precision(*a, *b)):
            return max(abs(_to_mpf(x) - _to_mpf(y)) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# twist limits


def twist_limit(weights):
    """Closed-form projective limit of iterating the multitwist.

    Requires every crossing weight x_j to be nonzero; the limit is the class
    of the sum of the twisting curves weighted by the x_j, expressed in the
    same flattened track coordinates as the iterates.
    """
    if any(c[0] == 0 for c in weights.components):
        raise HypothesisError(
            "twist limit needs nonzero crossing weight on every component"
        )
    return ProjectiveClass(_crossing_curve_sum(weights))


def _crossing_curve_sum(weights):
    """Sum of the twisting curves weighted by their crossing weights x_j."""
    n = weights.n
    acc = [Fraction(0)] * (3 * n + len(weights.rest))
    for j, (x, _, _) in enumerate(weights.components, start=1):
        if x != 0:
            base = curve_class(j, n, rest_len=len(weights.rest)).as_vector()
            acc = [a + x * b for a, b in zip(acc, base)]
    return tuple(acc)


@dataclass(frozen=True)
class TraceSample:
    k: int
    projective: ProjectiveClass
    error: Fraction  # exact sup-norm distance to the iteration limit


_CHECKPOINTS = 80


def _default_checkpoints(k_max):
    ks = {1, k_max}
    for i in range(1, _CHECKPOINTS):
        ks.add(max(1, round(k_max ** (i / _CHECKPOINTS))))
    return sorted(ks)


def iterate_trace(weights, k_max, checkpoints=None):
    """Honest multitwist iteration with projective snapshots.

    Applies the twist step k_max times using exact integer arithmetic
    (denominators cleared once up front) and records the projectivized
    weight vector at each checkpoint together with its exact sup-norm
    distance to the iteration's limit.  Unlike ``twist_limit`` this also
    covers zero crossing weights: coordinates over components with x_j = 0
    stay constant and vanish projectively under the growth of the others,
    so the limit is the crossing-weighted curve sum whenever some x_j is
    nonzero, and the (fixed) input itself when all of them vanish.
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise ParameterError(f"k_max must be a positive integer, got {k_max!r}")
    if checkpoints is None:
        checkpoints = _default_checkpoints(k_max)
    checkpoints = sorted({int(k) for k in checkpoints if 1 <= int(k) <= k_max})
    # all x_j = 0 leaves the input fixed, so it is its own limit
    limit = _crossing_curve_sum(weights)
    limit_norm = ProjectiveClass(limit if any(limit) else weights.as_vector()).normalized()

    vec = weights.as_vector()
    denom = 1
    for v in vec:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    xs = [int(c[0] * denom) for c in weights.components]
    ys = [int(c[1] * denom) for c in weights.components]
    zs = [int(c[2] * denom) for c in weights.components]
    rest = [int(r * denom) for r in weights.rest]
    n = weights.n

    samples = []
    want = set(checkpoints)
    for k in range(1, k_max + 1):
        for j in range(n):
            ys[j] += xs[j]
            zs[j] += xs[j]
        if k in want:
            flat = []
            for j in range(n):
                flat.extend((xs[j], ys[j], zs[j]))
            flat.extend(rest)
            total = sum(flat)
            norm = tuple(Fraction(v, total) for v in flat)
            err = max(abs(p - q) for p, q in zip(norm, limit_norm))
            samples.append(TraceSample(k=k, projective=ProjectiveClass(norm), error=err))
    return samples


def decay_fit(samples, k_min=1):
    """Least-squares slope and constant of log error against log k.

    Fits error ~ C * k**slope over the samples with k >= k_min whose error
    is positive as a float; returns (slope, C), or None when fewer than two
    usable samples exist (e.g. on fixed-point inputs, where the error vanishes).
    """
    ks, errs = [], []
    for s in samples:
        if s.k >= k_min and float(s.error) > 0:
            ks.append(float(s.k))
            errs.append(float(s.error))
    if len(ks) < 2:
        return None
    import numpy as np  # only here: the CLI corpus pins polyfit's constant

    slope, intercept = np.polyfit(np.log10(ks), np.log10(errs), 1)
    return float(slope), float(10**intercept)


# ---------------------------------------------------------------------------
# the boundary-circle direction map


def foliation_entries(surface, theta):
    """Unnormalized pairings of the direction-theta foliation with the cores.

    Entry order is (a_1..a_g, b_1..b_g).  A core of holonomy v pairs as
    |v x u_theta|; horizontal cores have holonomy (c, 0) and vertical ones
    (0, c), so the entries are c_i |sin theta| and c_j |cos theta|.
    """
    with mpmath.workprec(surface.precision):
        t = mpmath.mpf(theta)
        s, c = abs(mpmath.sin(t)), abs(mpmath.cos(t))
        # the distinguished angles 0 and pi/2 are meant exactly; snap the
        # roundoff residue of the pi/2 representation to a true zero
        eps = merge_tolerance(surface.precision)
        s = mpmath.mpf(0) if s < eps else s
        c = mpmath.mpf(0) if c < eps else c
        hs = cylinder_decomposition(surface, HORIZONTAL)
        vs = cylinder_decomposition(surface, VERTICAL)
        return tuple(cyl.circumference * s for cyl in hs) + tuple(
            cyl.circumference * c for cyl in vs
        )


def direction_foliation(surface, theta):
    """Projective pairing vector of the straight foliation in direction theta."""
    entries = foliation_entries(surface, theta)
    if all(e == 0 for e in entries):
        raise HypothesisError("foliation pairs trivially with every core (impossible)")
    return ProjectiveClass(entries)


def circle_samples(surface, count):
    """Evenly spaced (theta, class) samples along the arc [0, pi/2].

    The arc is a fundamental domain for the fold theta ~ pi - theta of the
    core-pairing coordinates and contains both distinguished directions as
    endpoints.
    """
    if count < 2:
        raise ParameterError("need at least two samples")
    with mpmath.workprec(surface.precision):
        step = mpmath.pi / 2 / (count - 1)
        return [(i * step, direction_foliation(surface, i * step)) for i in range(count)]


def min_pairwise_distance(classes):
    """Smallest sup-norm distance between the float lifts of two of the classes.

    The classes must be in arc order, as ``circle_samples`` returns them; only
    neighbours are compared (see the module docstring).
    """
    if len(classes) < 2:
        raise ParameterError("need at least two classes for a pairwise distance")
    lifts = (tuple(float(v) for v in cls.normalized()) for cls in classes)
    return min(max(abs(x - y) for x, y in zip(a, b)) for a, b in pairwise(lifts))


def numerical_rank_ratio(classes):
    """(third singular value) / (first singular value) of the lifts, at working precision.

    Values below ~1e-9 certify that the sampled classes lie on a single
    projective line, which is the piecewise-projective property of the
    direction map within an arc free of core directions.
    """
    if len(classes) < 3:
        raise ParameterError("need at least three classes for a rank test")
    lifts = mpmath.matrix([[_to_mpf(v) for v in cls.normalized()] for cls in classes])
    sv = mpmath.svd_r(lifts, compute_uv=False)
    return float(sv[2] / sv[0])
