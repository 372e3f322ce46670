r"""Double regular-polygon translation surfaces and their cylinder decompositions.

The basic object is a pair of convex polygons in the plane with every edge
glued to a parallel edge of the other polygon by a translation.  The genus-g
member of the family built here is a pair of regular (2g+1)-gons with unit
sides, the second the point reflection of the first, glued edge-to-parallel-
edge.  The first polygon sits above its horizontal bottom edge, which fixes
the two distinguished directions: ``horizontal`` and ``vertical``.

Cylinder decompositions are computed by tracing the levels of horizontal
(resp. vertical) separatrices through the gluings.  For convex polygons a
straight segment through a cone point crosses each polygon it visits in a
full boundary-to-boundary chord, so the critical levels in each polygon are
exactly the closure of the vertex levels under transport across glued edges.
Consecutive critical levels bound trapezoidal strips; the first-return map
of the straight-line flow permutes the strips, and its orbits are the
cylinders.  A gluing translates levels, so the map goes by order along glued
edges: the k-th strip leaving through an edge enters through the k-th strip
of its partner.  The symmetry check tries every assignment of polygons that
the point reflection allows and compares strips by order, since the
reflection reverses level order; a reflected surface that does not decompose
raises.

``validate`` guarantees finite, strictly convex polygons, so each polygon's
edges form two monotone chains (level rising, level falling), a level meets at
most one edge of each, and a chord's edges are found by one bisect per chain.
It decides cone angles exactly, by sign tests: each is 2*pi times the number of
full turns of the edge vectors around its corner cycle, and the angle excess
2*pi*(2g-2) is the Euler count of the gluing.  It remembers the last few valid
surface values (an equal surface, such as a JSON round trip, is not checked
again); an invalid one raises on every call.

A decomposition needs mpf coordinates.  Circumferences and core endpoints are
read off per-edge line rows, four line evaluations per strip.  It is checked
once against the area: the cylinders' c * h must sum to it, which shows a
missing or doubled strip.  A per-cylinder trapezoid check would add nothing,
since strip widths are affine in the level: (w_lo + w_hi) / 2 * h = w_mid * h,
which holds whenever the cylinder's strip heights agree.  Bisects over levels
and chains, and the symmetry check's sort, compare ``(double, value)`` keys
(:func:`_key`), exact wherever ``float`` is monotone on the compared values:
on mpf values, and on int and Fraction values within the double range.

Tolerance tests are filtered: the validation tests and the neighbour test of the
level merge (:func:`_neighbours`, on the keys' doubles) are first computed in
IEEE doubles, which decide only where their value clears the threshold by more
than a stated bound on the distance to the mpf value (:func:`_in_doubles`,
:func:`_apart_test`).  The unchanged mpf test decides every close call, so
verdicts and messages are those of the mpf tests.  A surface object computes
its diameter, area and edge partners once, at its own precision.
"""

import bisect
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import product
import json

import mpmath

from .errors import DecompositionError, InvalidSurfaceError, ParameterError
from .precision import (
    DEFAULT_TOLERANCE,
    merge_tolerance,
    mpf_str,
    parse_mpf,
    resolve_precision,
)

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
DISTINGUISHED_DIRECTIONS = (HORIZONTAL, VERTICAL)
_DECOMPOSITION_CACHE_SIZE = 64  # (surface, direction) pairs; least recently used go first
_VALIDATION_CACHE_SIZE = 8  # valid surfaces whose verdict is remembered

# Relative position of the marked core leaf inside a cylinder.  The two
# directions use different offsets so that core crossings never land on a
# glued edge (with equal offsets the leaves of this family meet exactly at
# edge midpoints).
_CORE_OFFSET = {HORIZONTAL: Fraction(1, 2), VERTICAL: Fraction(1, 3)}

# The level coordinate of a point: height for horizontal cylinders, the
# x-coordinate for vertical ones.  The flow coordinate is the other axis.
_LEVEL_AXIS = {HORIZONTAL: 1, VERTICAL: 0}


@dataclass(frozen=True)
class CoreSegment:
    """One straight piece of a cylinder's marked core leaf.

    ``level`` is the constant coordinate on the level axis of the cylinder's
    direction; the segment spans ``(lo, hi)`` on the flow axis inside
    polygon ``polygon``.
    """

    polygon: int
    level: object
    lo: object
    hi: object


@dataclass(frozen=True)
class Strip:
    """A maximal trapezoid between consecutive critical levels of a polygon."""

    polygon: int
    level_lo: object
    level_hi: object
    edge_lo: int
    edge_hi: int

    @property
    def height(self):
        return self.level_hi - self.level_lo


@dataclass(frozen=True)
class Cylinder:
    """A maximal flat cylinder in one of the two distinguished directions."""

    direction: str
    label: str
    circumference: object
    height: object
    strips: tuple
    core_segments: tuple

    @property
    def modulus(self):
        return self.height / self.circumference


@dataclass(frozen=True)
class TranslationSurface:
    """Two convex polygons with translation gluings.

    ``polygons`` is a pair of counterclockwise vertex tuples, ``gluings`` a
    tuple of pairs ``((p, e), (q, f))`` matching edge ``e`` of polygon ``p``
    with edge ``f`` of polygon ``q``.  ``precision`` records the binary
    precision the coordinates were computed at; all geometric operations on
    the surface re-enter that precision.
    """

    genus: int
    polygons: tuple
    gluings: tuple
    precision: int

    def edge(self, p, e):
        poly = self.polygons[p]
        return poly[e], poly[(e + 1) % len(poly)]

    def edge_vector(self, p, e):
        a, b = self.edge(p, e)
        return (b[0] - a[0], b[1] - a[1])

    def all_vertices(self):
        return [v for poly in self.polygons for v in poly]


def build_double_polygon(g, precision=None):
    """Glue two regular (2g+1)-gons, one the point reflection of the other.

    The first polygon has its bottom edge on the segment from (0,0) to
    (1,0); the second is the reflection of the first through the midpoint
    (1/2, 0), so the shared segment realizes one of the gluing pairs.  Edge
    k of the first polygon is glued to (its unique parallel) edge k of the
    second.
    """
    if not isinstance(g, int) or g < 2:
        raise ParameterError(f"genus must be an integer >= 2, got {g!r}")
    bits = resolve_precision(precision)
    n = 2 * g + 1
    with mpmath.workprec(bits):
        two_pi = 2 * mpmath.pi
        verts = [(mpmath.mpf(0), mpmath.mpf(0))]
        for k in range(n - 1):
            ang = two_pi * k / n
            x, y = verts[-1]
            c, s = mpmath.cos_sin(ang)
            verts.append((x + c, y + s))
        cx, cy = mpmath.mpf(1), mpmath.mpf(0)  # 2 * midpoint of the bottom edge
        mirrored = tuple((cx - x, cy - y) for (x, y) in verts)
        gluings = tuple(((0, k), (1, k)) for k in range(n))
        surface = TranslationSurface(
            genus=g,
            polygons=(tuple(verts), mirrored),
            gluings=gluings,
            precision=bits,
        )
    validate(surface)
    return surface


# ---------------------------------------------------------------------------
# validation


def _shoelace(poly, total=mpmath.mpf(0)):
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2


def _per_surface(compute):
    """``compute(surface)``, evaluated once per surface object at the surface's
    precision and kept on the object, as ``functools.cached_property`` keeps its
    values (a lookup by the surface's value would hash every coordinate)."""

    @wraps(compute)
    def cached(surface):
        memo = vars(surface)
        if compute.__name__ not in memo:
            with mpmath.workprec(surface.precision):
                memo[compute.__name__] = compute(surface)
        return memo[compute.__name__]

    return cached


@_per_surface
def _diameter(surface):
    vs = surface.all_vertices()
    xs = [v[0] for v in vs]
    ys = [v[1] for v in vs]
    return max(max(xs) - min(xs), max(ys) - min(ys))


@_per_surface
def area(surface):
    """Total flat area: sum of the polygon areas (shoelace formula)."""
    return sum(abs(_shoelace(poly)) for poly in surface.polygons)


@_per_surface
def _partners(surface):
    """The edge glued to each edge, both ways (shared: do not modify)."""
    partner = {}
    for one, other in surface.gluings:
        partner[one], partner[other] = other, one
    return partner


def vertex_classes(surface):
    """Vertex identification classes under the gluings (the cone points) of a surface
    whose every edge is glued, each the cycle of its corners.  The translation matching
    edge ``(p, i-1)`` with ``(q, f)`` sends vertex ``i`` of polygon ``p``, the end of the
    first, to the start of the second, so corner ``(p, i)`` is followed by ``(q, f)``."""
    partner, sizes = _partners(surface), [len(poly) for poly in surface.polygons]
    seen, classes = set(), []
    for start in ((p, i) for p, n in enumerate(sizes) for i in range(n)):
        cycle, corner = [], start
        while corner not in seen:
            seen.add(corner)
            cycle.append(corner)
            corner = partner[(corner[0], (corner[1] - 1) % sizes[corner[0]])]
        if cycle:
            classes.append(cycle)
    return classes


def _turns(surface):
    """Each vertex class with its turn count k.  Turning counterclockwise from the
    outgoing edge e_i(p) through the interior angle reaches -e_{i-1}(p), which the gluing
    matches with the next outgoing edge e_f(q).  On strictly convex polygons each turn
    lies strictly between 0 and pi, so k counts the turns from the lower half-plane
    (y < 0, or y = 0 and x < 0) into the upper one.  An edge's half-plane is decided by
    comparing its end points, which is exact and agrees with the signs of its rounded
    mpf vector."""
    below = {}
    for p, poly in enumerate(surface.polygons):
        for e, ((ax, ay), (bx, by)) in enumerate(zip(poly, poly[1:] + poly[:1])):
            below[(p, e)] = by < ay or (by == ay and bx < ax)
    return [
        (cycle, sum(below[c] and not below[nxt] for c, nxt in zip(cycle, cycle[1:] + cycle[:1])))
        for cycle in vertex_classes(surface)
    ]


def cone_angles(surface):
    """Total interior angle at each identified vertex class of a valid surface:
    2*pi times the class's exact turn count (see :func:`validate`)."""
    with mpmath.workprec(surface.precision):
        return [2 * mpmath.pi * k for _, k in _turns(surface)]


def validate(surface):
    """Check all structural invariants; raise InvalidSurfaceError on failure.

    Polygons are finite, counterclockwise and strictly convex, and every edge is
    glued once to a translation-opposite edge (both within ``DEFAULT_TOLERANCE``
    of the diameter).  Cone angles are decided exactly, with sign tests and no
    trigonometry: each vertex class turns 2*pi*k with k >= 1 counted from its
    corner cycle (:func:`_turns`), its first-order angle defect (the sum of
    cross / dot of its glued edge vectors) stays within
    2*pi*100*``DEFAULT_TOLERANCE``, and the Euler count of the gluing holds,
    V - E + 2 = 2 - 2g, which is the angle excess 2*pi*(2g-2).  The tolerance
    tests run in doubles first (:func:`_in_doubles`); the mpf tests decide
    every close call.
    """
    # checked on every call: with genus 2.0 a surface equals a remembered valid one
    if not isinstance(surface.genus, int) or surface.genus < 2:
        raise InvalidSurfaceError(f"genus must be an integer >= 2, got {surface.genus!r}")
    return _validated(surface)


@lru_cache(maxsize=_VALIDATION_CACHE_SIZE)
def _validated(surface):
    if len(surface.polygons) != 2:
        raise InvalidSurfaceError("expected exactly two polygons")
    for p, poly in enumerate(surface.polygons):
        bad = next((i for i, v in enumerate(poly) if not all(map(mpmath.isfinite, v))), None)
        if bad is not None:
            raise InvalidSurfaceError(f"vertex {bad} of polygon {p} is not finite")
    with mpmath.workprec(surface.precision):
        slack = _diameter(surface) * mpmath.mpf(DEFAULT_TOLERANCE)
        bound = 2 * mpmath.pi * DEFAULT_TOLERANCE * 100
        doubles = _in_doubles(surface, slack, bound)
        try:
            if doubles is not None:
                return _tolerance_tests(surface, *doubles)
        except InvalidSurfaceError:  # a failure or a close call: the mpf tests decide
            pass
        return _tolerance_tests(surface, surface, mpmath.mpf(0), 0, slack, slack, bound)


def _tolerance_tests(surface, numbers, zero, orient, convex, glued, bound):
    """The checks of :func:`validate` after finiteness, on the vertices of ``numbers``:
    ``surface`` itself with the mpf thresholds (``zero`` = 0, ``orient`` = 0, ``convex``
    = ``glued`` = the gluing slack, ``bound`` the defect bound), or its doubles with
    each threshold moved by its error bound (:func:`_in_doubles`).  Turn counts are
    exact, from ``surface``.  Raises InvalidSurfaceError at the first failure."""
    for p, poly in enumerate(numbers.polygons):
        if len(poly) < 3:
            raise InvalidSurfaceError(f"polygon {p} has fewer than 3 vertices")
        n = len(poly)
        if _shoelace(poly, zero) <= orient * n * n:
            raise InvalidSurfaceError(f"polygon {p} is not counterclockwise")
        for i in range(n):
            ax, ay = poly[i]
            bx, by = poly[(i + 1) % n]
            cx, cy = poly[(i + 2) % n]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross <= convex:
                raise InvalidSurfaceError(f"polygon {p} is not strictly convex at corner {i}")

    vectors = {}
    for (p, e), (q, f) in surface.gluings:
        for key in ((p, e), (q, f)):
            if key in vectors:
                raise InvalidSurfaceError(f"edge {key} appears in more than one gluing")
            vectors[key] = numbers.edge_vector(*key)
        (vx, vy), (wx, wy) = vectors[(p, e)], vectors[(q, f)]
        if abs(vx + wx) > glued or abs(vy + wy) > glued:
            raise InvalidSurfaceError(
                f"glued edges ({p},{e}) and ({q},{f}) are not translation-opposite"
            )
    total_edges = sum(len(poly) for poly in surface.polygons)
    if len(vectors) != total_edges:
        raise InvalidSurfaceError("some edge is missing from the gluings")

    classes = _turns(surface)
    for cycle, turns in classes:
        defect = zero
        for (p, i), nxt in zip(cycle, cycle[1:] + cycle[:1]):
            (vx, vy), (wx, wy) = vectors[(p, (i - 1) % len(surface.polygons[p]))], vectors[nxt]
            dot = vx * wx + vy * wy
            defect += (vx * wy - vy * wx) / dot if dot < 0 else mpmath.inf
        if abs(defect) > bound:
            raise InvalidSurfaceError("cone angle is not an integer multiple of 2*pi")
        if turns < 1:
            raise InvalidSurfaceError("cone angle below 2*pi")
    if 2 * len(classes) != total_edges - 4 * surface.genus:
        raise InvalidSurfaceError(f"{len(classes)} cone points: excess is not 2*pi*(2g-2)")
    return True


def _in_doubles(surface, slack, bound):
    """The arguments of :func:`_tolerance_tests` for its run in doubles, or None where
    the error bounds below do not apply.

    With u = 2^-53, M the largest coordinate, l the shortest edge and N the number of
    edges (all by max-norm, in doubles), and a working precision of at least 53 bits,
    each double tested value is within these bounds of the value the mpf test computes:
    the shoelace sum of an n-gon 4 n^2 u M^2, a corner's cross product 80 u M^2, a sum
    of glued edge vectors 21 u M, and a class's defect N (9 u M / l + 25 u + N u / 128).
    The last needs l >= 2^10 slack and l >= 2^-30 M: a glued pair is then opposite
    within the slack, so each dot product is near -|v|^2 and each term below 2^-8.
    The thresholds are moved by 2^-50 n^2 M^2, 2^-46 M^2, 2^-48 M and
    2^-48 N (M / l + N), and scaled by 1 +- 2^-50 for the rounding of the mpf
    thresholds; M within 2^+-400 keeps underflow out of these bounds."""
    if surface.precision < 53:
        return None
    try:
        numbers = replace(surface, polygons=tuple(
            tuple((float(x), float(y)) for x, y in poly) for poly in surface.polygons
        ))
    except OverflowError:  # an int or Fraction beyond the doubles (an mpf gives inf)
        return None
    big = max((abs(c) for v in numbers.all_vertices() for c in v), default=0.0)
    short = min((max(map(abs, numbers.edge_vector(p, e)))
                 for p, poly in enumerate(numbers.polygons) for e in range(len(poly))),
                default=0.0)
    s, n = float(slack), sum(len(poly) for poly in numbers.polygons)
    if not 2.0**-400 <= big <= 2.0**400 or short < max(2.0**10 * s, 2.0**-30 * big):
        return None
    return (numbers, 0.0, 2.0**-50 * big * big, s * (1 + 2.0**-50) + 2.0**-46 * big * big,
            s * (1 - 2.0**-50) - 2.0**-48 * big,
            float(bound) * (1 - 2.0**-50) - 2.0**-48 * n * (big / short + n))


# ---------------------------------------------------------------------------
# cylinder decomposition


def _level(point, direction):
    return point[_LEVEL_AXIS[direction]]


def _along(point, direction):
    return point[1 - _LEVEL_AXIS[direction]]


def _key(x):
    """``(float(x), x)``, ordered as ``x``: rounding to a double is monotone, so the
    doubles decide where they differ and the value breaks their ties (at +-inf and
    0.0 too).  Needs a ``float`` that is monotone on the compared values, as it is
    on mpf values and on int and Fraction values within the double range."""
    return (float(x), x)


def _neighbours(keys, key, apart):
    """The bisect point of ``key`` in the sorted ``keys`` and the values of its two
    neighbours there that ``apart`` (:func:`_apart_test`, on the doubles) does not
    rule out.  The values are sorted and rounded subtraction is monotone, so if any
    value lies within a tolerance of ``key``'s value, one of its two neighbours does."""
    i = bisect.bisect_left(keys, key)
    return i, [keys[j][1] for j in (i - 1, i)
               if 0 <= j < len(keys) and not apart(keys[j][0], key[0])]


def _apart_test(tol):
    """A filter in doubles for the mpf test ``abs(x - y) <= tol`` (or ``< tol``) at the
    working precision ``prec``: a function of ``float(x)`` and ``float(y)`` that is True
    only where that test is False, the values being farther apart.  The double
    difference is within 2^-51 (|x| + |y|) + 2^-1073 of x - y (the last term covers
    underflow) and the mpf difference within 2^-prec |x - y|, so the function asks the
    double difference to exceed ``tol`` by 2^-49 (|x| + |y|) + 2^-1070, with ``tol``
    widened by 2^-50 + 2^(2 - prec) for its own double and the mpf rounding.  Infinite
    or NaN doubles are never apart."""
    far = float(tol) * (1 + 2.0**-50 + 2.0 ** (2 - mpmath.mp.prec)) + 2.0**-1070
    return lambda a, b: abs(a - b) > far + 2.0**-49 * (abs(a) + abs(b))


def _on_line(row, level):
    """The along coordinate at ``level`` on the line of an edge-table row."""
    _, _, la, aa, dl, da = row
    return aa + (level - la) / dl * da


def _edge_table(surface, direction, slack):
    """Per polygon, one row ``(q, shift, la, aa, dl, da)`` per edge: the polygon
    glued to it, the level shift of the gluing (end of the edge to start of its
    partner), the edge's start (level, along) and its (level, along) extent;
    and the polygon's rising and falling chains (see :func:`_crossing_edges`)."""
    partner = _partners(surface)
    table, chains = [], []
    for p, poly in enumerate(surface.polygons):
        rows, spans = [], ([], [])
        for e in range(len(poly)):
            a, b = surface.edge(p, e)
            la, lb = _level(a, direction), _level(b, direction)
            aa = _along(a, direction)
            q, f = partner[(p, e)]
            shift = _level(surface.edge(q, f)[0], direction) - lb
            rows.append((q, shift, la, aa, lb - la, _along(b, direction) - aa))
            if la != lb:
                spans[la > lb].append((min(la, lb), max(la, lb), e))
        table.append(rows)
        chains.append([_chain(p, sorted(side), slack) for side in spans])
    return table, chains


def _chain(p, spans, slack):
    if any(hi > lo for (_, hi, _), (lo, _, _) in zip(spans, spans[1:])):
        raise DecompositionError(
            f"level chords of polygon {p} cross more than two edges (is the polygon convex?)"
        )
    starts = [_key(s[0] + slack) for s in spans]
    return starts, [_key(s[1] - slack) for s in spans], [s[2] for s in spans]


def _critical_levels(surface, direction, table, chains, slack, cap):
    """Vertex levels of each polygon, closed under transport across gluings.

    A critical level with its chord endpoint in the interior of an edge
    continues into the partner polygon; repeating until stable reproduces
    the full set of separatrix levels; one within ``slack`` of a known level
    merges into it.  Failure to stabilize within ``cap`` levels means the
    direction is not completely periodic.  Returns each polygon's levels, sorted.
    """
    keys = [[] for _ in surface.polygons]  # per polygon, the sorted keys of its levels
    queue, apart = [], _apart_test(slack)

    def insert(p, level):
        # levels lie more than slack apart, so only the two neighbours can match;
        # doubles rule out a far one, the mpf test decides a close one
        key = _key(level)
        i, near = _neighbours(keys[p], key, apart)
        if any(abs(x - level) <= slack for x in near):
            return False
        keys[p].insert(i, key)
        queue.append((p, key))
        return True

    for p, poly in enumerate(surface.polygons):
        for v in poly:
            insert(p, _level(v, direction))
    while queue:
        p, key = queue.pop()
        for e in _crossing_edges(chains[p], key):
            q, shift = table[p][e][:2]
            if insert(q, key[1] + shift) and sum(map(len, keys)) > cap:
                raise DecompositionError(
                    f"{direction} direction is not completely periodic "
                    f"(separatrix levels fail to close up)"
                )
    return [[level for _, level in ks] for ks in keys]


def _crossing_edges(chains, key):
    """Edges, in index order, whose span holds the level keyed ``key`` (:func:`_key`)
    with slack to spare.

    A chain is three lists over the edges whose level rises (or falls), sorted
    by span: the ``(double, value)`` keys of ``lo + slack`` and ``hi - slack``,
    and the edge index.  Its spans do not overlap, so only the last edge
    starting below the level can hold it."""
    found = []
    for starts, ends, edges in chains:
        k = bisect.bisect_left(starts, key) - 1
        if k >= 0 and key < ends[k]:
            found.append(edges[k])
    return sorted(found)


def _build_strips(direction, chains, levels):
    """One strip per pair of consecutive levels, between the two edges that cross
    its mid-level, and the mid-levels.  ``edge_lo`` has the smaller along
    coordinate: in a counterclockwise polygon that is the falling edge of a
    horizontal strip and the rising edge of a vertical one."""
    strips, mids = [], []
    for p, ls in enumerate(levels):
        rising = set(chains[p][0][2])  # the edge indices of the rising chain
        for la, lb in zip(ls, ls[1:]):
            mid = (la + lb) / 2
            edges = _crossing_edges(chains[p], _key(mid))
            if len(edges) != 2:
                raise DecompositionError(
                    f"level chord of polygon {p} crossed {len(edges)} edges; "
                    f"expected 2 (is the polygon convex?)"
                )
            if (edges[0] in rising) == (direction == HORIZONTAL):
                edges.reverse()
            strips.append(Strip(p, la, lb, *edges))
            mids.append(mid)
    return strips, mids


def cylinder_decomposition(surface, direction):
    """Decompose the surface into maximal flat cylinders.

    Returns exactly one :class:`Cylinder` per orbit of the strip first-return
    map, labeled ``a1..ag`` (horizontal, ordered by increasing height of the
    core in polygon 0) or ``b1..bg`` (vertical, ordered by increasing
    x-coordinate of the core in polygon 0).
    """
    if direction not in DISTINGUISHED_DIRECTIONS:
        raise ParameterError(f"direction must be one of {DISTINGUISHED_DIRECTIONS}")
    return _decomposition_cached(surface, direction)


@lru_cache(maxsize=_DECOMPOSITION_CACHE_SIZE)
def _decomposition_cached(surface, direction):
    """:func:`cylinder_decomposition` for a distinguished direction.

    The strip first-return map needs no bijection check and its orbits no closing
    check: every strip leaves through one edge, the leaving groups' partners are
    distinct edges and each group passes the count check, so the map is injective
    on a finite set, a bijection, and the orbits of a bijection close."""
    if not all(isinstance(c, mpmath.mpf) for v in surface.all_vertices() for c in v):
        raise DecompositionError("vertex coordinates must be mpf values")
    with mpmath.workprec(surface.precision):
        slack = merge_tolerance(surface.precision) * max(1, _diameter(surface))
        cap = 64 * sum(len(p) for p in surface.polygons) + 256
        table, chains = _edge_table(surface, direction, slack)
        levels = _critical_levels(surface, direction, table, chains, slack, cap)
        strips, mids = _build_strips(direction, chains, levels)

        # first-return map on strips: exit through the high-along edge.  A gluing
        # translates levels, so the k-th strip leaving through an edge is the k-th
        # entering through its partner, both in level order.
        leaving, entering = {}, {}
        for i, s in enumerate(strips):
            leaving.setdefault((s.polygon, s.edge_hi), []).append(i)
            entering.setdefault((s.polygon, s.edge_lo), []).append(i)
        partner, next_strip = _partners(surface), {}
        for (p, e), out in leaving.items():
            shift, into = table[p][e][1], entering.get(partner[(p, e)], [])
            next_strip.update(zip(out, into))
            if len(into) != len(out) or any(
                abs(strips[i].level_lo + shift - strips[j].level_lo) > slack
                for i, j in zip(out, into)
            ):
                raise DecompositionError(
                    "transported strip does not match any strip (closure bug)"
                )

        offset = _CORE_OFFSET[direction]
        seen = [False] * len(strips)
        cylinders = []
        for start in range(len(strips)):
            if seen[start]:
                continue
            orbit = []
            i = start
            while not seen[i]:
                seen[i] = True
                orbit.append(i)
                i = next_strip[i]
            members = [strips[j] for j in orbit]
            heights = [s.height for s in members]
            height = heights[0]
            if max(abs(h - height) for h in heights) > slack:
                raise DecompositionError("strips of one cylinder have unequal heights")
            circumference = mpmath.mpf(0)
            core_segments = []
            for j, s, h in zip(orbit, members, heights):
                lo_row, hi_row = (table[s.polygon][e] for e in (s.edge_lo, s.edge_hi))
                circumference += _on_line(hi_row, mids[j]) - _on_line(lo_row, mids[j])
                core_level = s.level_lo + h * offset.numerator / offset.denominator
                lo, hi = _on_line(lo_row, core_level), _on_line(hi_row, core_level)
                core_segments.append(CoreSegment(s.polygon, core_level, lo, hi))
            cylinders.append((circumference, height, tuple(members), tuple(core_segments)))

        # one tiling check; per cylinder it would repeat the equal-heights test above
        total = area(surface)
        if abs(sum(c * h for c, h, *_ in cylinders) - total) > slack * max(1, total) * 64:
            raise DecompositionError("cylinder areas c * h do not sum to the area (tracing bug)")

        def sort_key(cyl):
            base = [seg.level for seg in cyl[3] if seg.polygon == 0]
            return min(base) if base else min(seg.level for seg in cyl[3])

        cylinders.sort(key=sort_key)
        prefix = "a" if direction == HORIZONTAL else "b"
        return tuple(Cylinder(direction, f"{prefix}{i + 1}", *c) for i, c in enumerate(cylinders))


# ---------------------------------------------------------------------------
# hyperelliptic symmetry


def hyperelliptic_symmetry(surface):
    """True iff point reflection through the center is a self-map fixing
    every horizontal and every vertical cylinder.

    Every assignment is tried that sends each polygon's reflected vertices to
    a cyclic shift of a different polygon's (within ``DEFAULT_TOLERANCE`` of
    the diameter) and glued edges to glued edges.  The reflection reverses
    level order and swaps each strip's two edges, so an assignment fixes every
    cylinder exactly when each polygon's strips, reversed with their edges
    mapped, are the image polygon's strips in level order, cylinder for
    cylinder.  The surface is validated first; invalid input raises rather than
    returning False, and so does a reflected surface that does not decompose.
    """
    validate(surface)
    with mpmath.workprec(surface.precision):
        verts = surface.all_vertices()
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        slack = mpmath.mpf(DEFAULT_TOLERANCE) * max(1, _diameter(surface))

        # per polygon: (image polygon, image of each edge) for every matching cyclic shift
        matches = []
        for poly in surface.polygons:
            n = len(poly)
            images = [(2 * cx - x, 2 * cy - y) for x, y in poly]  # doubling is exact
            matches.append([
                (q, [(shift + e) % n for e in range(n)])
                for q, other in enumerate(surface.polygons) if len(other) == n
                for shift in range(n)
                if all(abs(tx - wx) <= slack and abs(ty - wy) <= slack
                       for (tx, ty), (wx, wy) in zip(images, other[shift:] + other[:shift]))
            ])

    gluings = {frozenset(pair) for pair in surface.gluings}
    assignments = [
        a for a in product(*matches)
        if len({q for q, _ in a}) == len(a)
        and all(frozenset((a[p][0], a[p][1][e]) for p, e in pair) in gluings
                for pair in surface.gluings)
    ]
    if not assignments:
        return False

    by_polygon = []  # per direction and polygon: (cylinder, edge_lo, edge_hi) in level order
    for direction in DISTINGUISHED_DIRECTIONS:
        rows = [[] for _ in surface.polygons]
        for c, cyl in enumerate(cylinder_decomposition(surface, direction)):
            for s in cyl.strips:
                rows[s.polygon].append((_key(s.level_lo), c, s.edge_lo, s.edge_hi))
        by_polygon.append([[row[1:] for row in sorted(ss)] for ss in rows])
    return any(
        all([(c, edges[hi], edges[lo]) for c, lo, hi in reversed(strips[p])] == strips[q]
            for strips in by_polygon for p, (q, edges) in enumerate(a))
        for a in assignments
    )


# ---------------------------------------------------------------------------
# serialization


def surface_to_json(surface):
    """Serialize to the documented JSON schema with full-precision decimals."""
    with mpmath.workprec(surface.precision):
        doc = {
            "genus": surface.genus,
            "precision_bits": surface.precision,
            "polygons": [
                [[mpf_str(x), mpf_str(y)] for (x, y) in poly] for poly in surface.polygons
            ],
            "gluings": [[p, e, q, f] for (p, e), (q, f) in surface.gluings],
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def surface_from_json(text, precision=None):
    """Read a surface written by :func:`surface_to_json`; a malformed document
    raises ParameterError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ParameterError("surface JSON must be an object")
    bits = resolve_precision(precision if precision is not None else doc.get("precision_bits"))
    try:
        with mpmath.workprec(bits):
            polygons = tuple(
                tuple((parse_mpf(x), parse_mpf(y)) for x, y in poly) for poly in doc["polygons"]
            )
        gluings = tuple(((p, e), (q, f)) for p, e, q, f in doc["gluings"])
        edges = {(p, e) for p, poly in enumerate(polygons) for e in range(len(poly))}
        for edge in (edge for pair in gluings for edge in pair):
            if edge not in edges or not all(type(i) is int for i in edge):
                raise IndexError(f"gluing names edge {edge}, which does not exist")
        if type(doc["genus"]) is not int:
            raise TypeError(f"genus must be an integer, got {doc['genus']!r}")
        surface = TranslationSurface(doc["genus"], polygons, gluings, bits)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed surface JSON ({type(exc).__name__}: {exc})") from None
    validate(surface)
    return surface
