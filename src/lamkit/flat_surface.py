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
cylinders.
"""

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
            verts.append((x + mpmath.cos(ang), y + mpmath.sin(ang)))
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


def _shoelace(poly):
    total = mpmath.mpf(0)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2


def _diameter(surface):
    vs = surface.all_vertices()
    xs = [v[0] for v in vs]
    ys = [v[1] for v in vs]
    return max(max(xs) - min(xs), max(ys) - min(ys))


def area(surface):
    """Total flat area: sum of the polygon areas (shoelace formula)."""
    with mpmath.workprec(surface.precision):
        return sum(abs(_shoelace(poly)) for poly in surface.polygons)


def vertex_classes(surface):
    """Vertex identification classes under the gluings (the cone points).

    The translation matching edge ``(p, e)`` with ``(q, f)`` sends the start
    of ``e`` to the end of ``f`` and vice versa, which is where the
    identifications below come from.
    """
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for p, poly in enumerate(surface.polygons):
        for i in range(len(poly)):
            parent[(p, i)] = (p, i)
    for (p, e), (q, f) in surface.gluings:
        np_, nq = len(surface.polygons[p]), len(surface.polygons[q])
        union((p, e), (q, (f + 1) % nq))
        union((p, (e + 1) % np_), (q, f))
    classes = {}
    for key in parent:
        classes.setdefault(find(key), []).append(key)
    return list(classes.values())


def _interior_angle(poly, i):
    n = len(poly)
    vx, vy = poly[i]
    ux, uy = poly[(i - 1) % n][0] - vx, poly[(i - 1) % n][1] - vy
    wx, wy = poly[(i + 1) % n][0] - vx, poly[(i + 1) % n][1] - vy
    cross = ux * wy - uy * wx
    dot = ux * wx + uy * wy
    return mpmath.atan2(abs(cross), dot)


def cone_angles(surface):
    """Total interior angle at each identified vertex class."""
    with mpmath.workprec(surface.precision):
        angles = []
        for cls in vertex_classes(surface):
            total = mpmath.mpf(0)
            for p, i in cls:
                total += _interior_angle(surface.polygons[p], i)
            angles.append(total)
        return angles


def validate(surface):
    """Check all structural invariants; raise InvalidSurfaceError on failure."""
    if not isinstance(surface.genus, int) or surface.genus < 2:
        raise InvalidSurfaceError(f"genus must be an integer >= 2, got {surface.genus!r}")
    if len(surface.polygons) != 2:
        raise InvalidSurfaceError("expected exactly two polygons")
    with mpmath.workprec(surface.precision):
        scale = _diameter(surface)
        slack = scale * mpmath.mpf(DEFAULT_TOLERANCE)
        for p, poly in enumerate(surface.polygons):
            if len(poly) < 3:
                raise InvalidSurfaceError(f"polygon {p} has fewer than 3 vertices")
            if _shoelace(poly) <= 0:
                raise InvalidSurfaceError(f"polygon {p} is not counterclockwise")
            n = len(poly)
            for i in range(n):
                ax, ay = poly[i]
                bx, by = poly[(i + 1) % n]
                cx, cy = poly[(i + 2) % n]
                cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                if cross <= slack:
                    raise InvalidSurfaceError(f"polygon {p} is not strictly convex at corner {i}")

        seen = {}
        for (p, e), (q, f) in surface.gluings:
            for key in ((p, e), (q, f)):
                if key in seen:
                    raise InvalidSurfaceError(f"edge {key} appears in more than one gluing")
                seen[key] = True
            vx, vy = surface.edge_vector(p, e)
            wx, wy = surface.edge_vector(q, f)
            if abs(vx + wx) > slack or abs(vy + wy) > slack:
                raise InvalidSurfaceError(
                    f"glued edges ({p},{e}) and ({q},{f}) are not translation-opposite"
                )
        total_edges = sum(len(poly) for poly in surface.polygons)
        if len(seen) != total_edges:
            raise InvalidSurfaceError("some edge is missing from the gluings")

        if area(surface) <= 0:
            raise InvalidSurfaceError("surface has nonpositive area")

        two_pi = 2 * mpmath.pi
        excess = mpmath.mpf(0)
        for angle in cone_angles(surface):
            multiple = angle / two_pi
            if abs(multiple - mpmath.nint(multiple)) > DEFAULT_TOLERANCE * 100:
                raise InvalidSurfaceError("cone angle is not an integer multiple of 2*pi")
            if mpmath.nint(multiple) < 1:
                raise InvalidSurfaceError("cone angle below 2*pi")
            excess += angle - two_pi
        expected = two_pi * (2 * surface.genus - 2)
        if abs(excess - expected) > DEFAULT_TOLERANCE * 100 * max(1, abs(expected)):
            raise InvalidSurfaceError(
                f"angle excess {excess} does not match 2*pi*(2g-2) = {expected}"
            )
    return True


# ---------------------------------------------------------------------------
# cylinder decomposition


def _level(point, direction):
    return point[_LEVEL_AXIS[direction]]


def _along(point, direction):
    return point[1 - _LEVEL_AXIS[direction]]


def _along_on_edge(surface, p, e, level, direction):
    a, b = surface.edge(p, e)
    la, lb = _level(a, direction), _level(b, direction)
    t = (level - la) / (lb - la)
    return _along(a, direction) + t * (_along(b, direction) - _along(a, direction))


def _edge_table(surface, direction):
    """Per polygon, one row ``(lo, hi, q, f, shift)`` per edge: its level span, the
    edge glued to it and the level shift of the gluing (end of e to start of f)."""
    partner = {}
    for one, other in surface.gluings:
        partner[one], partner[other] = other, one
    table = []
    for p, poly in enumerate(surface.polygons):
        rows = []
        for e in range(len(poly)):
            a, b = surface.edge(p, e)
            la, lb = _level(a, direction), _level(b, direction)
            q, f = partner[(p, e)]
            shift = _level(surface.edge(q, f)[0], direction) - lb
            rows.append(((la, lb) if la <= lb else (lb, la)) + (q, f, shift))
        table.append(rows)
    return table


def _find_level(levels, value, slack):
    """Index of the lowest level within ``slack`` of ``value`` in the sorted list,
    or None.  Levels lie more than ``slack`` apart, so only two can match."""
    i = bisect.bisect_left(levels, value)
    for j in (i - 1, i):
        if 0 <= j < len(levels) and abs(levels[j] - value) <= slack:
            return j
    return None


def _critical_levels(surface, direction, table, slack, cap):
    """Vertex levels of each polygon, closed under transport across gluings.

    A critical level with its chord endpoint in the interior of an edge
    continues into the partner polygon; repeating until stable reproduces
    the full set of separatrix levels; one within ``slack`` of a known level
    merges into it.  Failure to stabilize within ``cap`` levels means the
    direction is not completely periodic.
    """
    levels = [[] for _ in surface.polygons]
    queue = []

    def insert(p, level):
        new = _find_level(levels[p], level, slack) is None
        if new:
            bisect.insort(levels[p], level)
            queue.append((p, level))
        return new

    for p, poly in enumerate(surface.polygons):
        for v in poly:
            insert(p, _level(v, direction))
    while queue:
        p, lv = queue.pop()
        for e in _crossing_edges(table[p], lv, slack):
            _, _, q, _, shift = table[p][e]
            if insert(q, lv + shift) and sum(len(ls) for ls in levels) > cap:
                raise DecompositionError(
                    f"{direction} direction is not completely periodic "
                    f"(separatrix levels fail to close up)"
                )
    return levels


def _crossing_edges(rows, level, slack):
    """Edges, in index order, whose span contains ``level`` with ``slack`` to spare."""
    return [e for e, (lo, hi, *_) in enumerate(rows) if lo + slack < level < hi - slack]


def _build_strips(surface, direction, table, levels, slack):
    """One strip per pair of consecutive levels, between the two edges that cross
    its mid-level (``edge_lo`` has the smaller along coordinate)."""
    strips = []
    for p, ls in enumerate(levels):
        for la, lb in zip(ls, ls[1:]):
            mid = (la + lb) / 2
            edges = _crossing_edges(table[p], mid, slack)
            if len(edges) != 2:
                raise DecompositionError(
                    f"level chord of polygon {p} crossed {len(edges)} edges; "
                    f"expected 2 (is the polygon convex?)"
                )
            edges.sort(key=lambda e: _along_on_edge(surface, p, e, mid, direction))
            strips.append(Strip(p, la, lb, *edges))
    return strips


def _strip_width(surface, strip, level, direction):
    hi = _along_on_edge(surface, strip.polygon, strip.edge_hi, level, direction)
    lo = _along_on_edge(surface, strip.polygon, strip.edge_lo, level, direction)
    return hi - lo


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
    with mpmath.workprec(surface.precision):
        slack = merge_tolerance(surface.precision) * max(1, _diameter(surface))
        n_edges = sum(len(p) for p in surface.polygons)
        cap = 64 * n_edges + 256
        table = _edge_table(surface, direction)
        levels = _critical_levels(surface, direction, table, slack, cap)
        strips = _build_strips(surface, direction, table, levels, slack)

        # first-return map on strips: exit through the high-along edge.  The
        # strips of polygon q are its consecutive level pairs, from first[q] on.
        first = [0]
        for ls in levels:
            first.append(first[-1] + len(ls) - 1)
        next_strip = []
        for s in strips:
            _, _, q, _, shift = table[s.polygon][s.edge_hi]
            j = _find_level(levels[q], s.level_lo + shift, slack)
            if j is None or j == len(levels[q]) - 1:
                raise DecompositionError(
                    "transported strip does not match any strip (closure bug)"
                )
            next_strip.append(first[q] + j)
        if sorted(next_strip) != list(range(len(strips))):
            raise DecompositionError("strip return map is not a bijection")

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
            if i != start:
                raise DecompositionError("strip orbit failed to close")
            members = [strips[j] for j in orbit]
            height = members[0].height
            if max(abs(s.height - height) for s in members) > slack:
                raise DecompositionError("strips of one cylinder have unequal heights")
            circumference = mpmath.mpf(0)
            cyl_area = mpmath.mpf(0)
            core_segments = []
            for s in members:
                mid = (s.level_lo + s.level_hi) / 2
                circumference += _strip_width(surface, s, mid, direction)
                w_lo = _strip_width(surface, s, s.level_lo, direction)
                w_hi = _strip_width(surface, s, s.level_hi, direction)
                cyl_area += (w_lo + w_hi) / 2 * s.height
                core_level = s.level_lo + s.height * offset.numerator / offset.denominator
                core_segments.append(
                    CoreSegment(
                        polygon=s.polygon,
                        level=core_level,
                        lo=_along_on_edge(surface, s.polygon, s.edge_lo, core_level, direction),
                        hi=_along_on_edge(surface, s.polygon, s.edge_hi, core_level, direction),
                    )
                )
            if abs(cyl_area - circumference * height) > slack * max(1, abs(cyl_area)) * 64:
                raise DecompositionError("cylinder area does not match c * h (tracing bug)")
            cylinders.append(
                {
                    "height": height,
                    "circumference": circumference,
                    "strips": tuple(members),
                    "cores": tuple(core_segments),
                }
            )

        def sort_key(cyl):
            base = [seg.level for seg in cyl["cores"] if seg.polygon == 0]
            return min(base) if base else min(seg.level for seg in cyl["cores"])

        cylinders.sort(key=sort_key)
        prefix = "a" if direction == HORIZONTAL else "b"
        return tuple(
            Cylinder(
                direction=direction,
                label=f"{prefix}{i + 1}",
                circumference=c["circumference"],
                height=c["height"],
                strips=c["strips"],
                core_segments=c["cores"],
            )
            for i, c in enumerate(cylinders)
        )


# ---------------------------------------------------------------------------
# hyperelliptic symmetry


def hyperelliptic_symmetry(surface):
    """True iff point reflection through the center is a self-map fixing
    every horizontal and every vertical cylinder.

    The surface is validated first; invalid input raises rather than
    returning False.
    """
    validate(surface)
    with mpmath.workprec(surface.precision):
        verts = surface.all_vertices()
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        slack = mpmath.mpf(DEFAULT_TOLERANCE) * max(1, _diameter(surface))

        def reflect(pt):
            return (2 * cx - pt[0], 2 * cy - pt[1])

        # match each reflected vertex with a vertex of some polygon
        edge_image = {}
        poly_image = {}
        for p, poly in enumerate(surface.polygons):
            n = len(poly)
            found = None
            for q, other in enumerate(surface.polygons):
                if len(other) != n:
                    continue
                for shift in range(n):
                    ok = True
                    for i in range(n):
                        tx, ty = reflect(poly[i])
                        wx, wy = other[(shift + i) % n]
                        if abs(tx - wx) > slack or abs(ty - wy) > slack:
                            ok = False
                            break
                    if ok:
                        found = (q, shift)
                        break
                if found:
                    break
            if found is None:
                return False
            q, shift = found
            poly_image[p] = q
            for e in range(n):
                edge_image[(p, e)] = (q, (shift + e) % n)

        gluing_set = {frozenset(pair) for pair in surface.gluings}
        for (p, e), (q, f) in surface.gluings:
            image = frozenset((edge_image[(p, e)], edge_image[(q, f)]))
            if image not in gluing_set:
                return False

        for direction in DISTINGUISHED_DIRECTIONS:
            center_level = cx if direction == VERTICAL else cy
            for cyl in cylinder_decomposition(surface, direction):
                strip_keys = [(s.polygon, s.level_lo, s.level_hi) for s in cyl.strips]
                for s in cyl.strips:
                    img = (
                        poly_image[s.polygon],
                        2 * center_level - s.level_hi,
                        2 * center_level - s.level_lo,
                    )
                    if not any(
                        img[0] == k[0]
                        and abs(img[1] - k[1]) <= slack
                        and abs(img[2] - k[2]) <= slack
                        for k in strip_keys
                    ):
                        return False
        return True


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
        surface = TranslationSurface(int(doc["genus"]), polygons, gluings, bits)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed surface JSON ({type(exc).__name__}: {exc})") from None
    validate(surface)
    return surface
