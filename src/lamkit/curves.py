r"""Multicurve systems on the double-polygon surfaces and their pairings.

Two intersection structures live here.

``chain_intersection_matrix`` builds the combinatorial chain system: the 2g
labeled curves a_1..a_g, b_1..b_g arranged in the chain order

    a_1, b_g, a_2, b_{g-1}, ..., a_g, b_1

with consecutive curves meeting once and all other pairs disjoint (a path
graph on 2g nodes).  The reversal of the b indices relative to the a indices
is fixed here once; downstream code only consumes adjacency and ratios.

``derive_intersection_matrix`` counts actual transverse crossings of the
horizontal and vertical cylinder core geodesics on a surface.  For the
regular double-(2g+1)-gon family these counts are even multiplicities, not
the unit chain pattern (e.g. [[6,4],[4,2]] in genus 2): the two distinguished
directions of the regular presentation are a different parabolic pair than
the one realizing the chain picture.  The flat-geometry cross-checks that do
hold, and are enforced by the test suite, are

    sum_{i,j} h_i w_j M[i][j] = area,
    M^T h = vertical circumferences,   M w = horizontal circumferences,

where h and w are the horizontal/vertical height vectors.

A segment endpoint within the crossing margin of a core of the other
direction raises DecompositionError.  That margin pass tests each endpoint
against its two bisect neighbours among the core levels of its polygon
(``flat_surface._neighbours``), keyed by ``(double, value)`` pairs
(``flat_surface._key``: monotone rounding makes their order exact); then four
strict comparisons of those pairs decide each crossing.  Each margin test runs
in doubles first and falls back to the mpf test unless the double difference
clears the margin by 2^-49 (|x| + |y|) and the margin's own rounding
(``flat_surface._apart_test``); on the family none falls back.
"""

from dataclasses import dataclass

import mpmath

from .errors import DecompositionError, HypothesisError, ParameterError
from .flat_surface import (
    HORIZONTAL,
    VERTICAL,
    cylinder_decomposition,
    _apart_test,
    _diameter,
    _key,
    _neighbours,
)

# margin (relative to surface diameter) below which a core crossing is
# considered degenerate; the family stays far above this
_CROSSING_MARGIN = 1e-9


@dataclass(frozen=True)
class IntersectionSystem:
    """Labeled curves with a symmetric nonnegative intersection matrix.

    ``labels`` lists the curve names, a-side first; ``matrix`` is a tuple of
    tuples of ints indexed compatibly.
    """

    genus: int
    labels: tuple
    matrix: tuple

    def index(self, label):
        return self.labels.index(label)

    def entry(self, x, y):
        return self.matrix[self.index(x)][self.index(y)]

    def ab_block(self):
        g = self.genus
        return tuple(tuple(self.matrix[i][g + j] for j in range(g)) for i in range(g))


@dataclass(frozen=True)
class ChainSystem(IntersectionSystem):
    """The combinatorial chain: curves in ``chain_order`` meet consecutively."""

    chain_order: tuple = ()


@dataclass(frozen=True)
class WeightedMulticurve:
    """Nonnegative weights on the components of one side of the chain."""

    side: str
    coefficients: tuple

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ParameterError(f"side must be 'A' or 'B', got {self.side!r}")
        if len(self.coefficients) == 0:
            raise HypothesisError("multicurve needs at least one component")
        if any(c < 0 for c in self.coefficients):
            raise HypothesisError("multicurve weights must be nonnegative")
        if all(c == 0 for c in self.coefficients):
            raise HypothesisError("zero multicurve is not projectivizable")


def chain_intersection_matrix(g):
    """Chain system on 2g curves: path-graph adjacency in chain order."""
    if not isinstance(g, int) or g < 2:
        raise ParameterError(f"genus must be an integer >= 2, got {g!r}")
    a_labels = tuple(f"a{i}" for i in range(1, g + 1))
    b_labels = tuple(f"b{j}" for j in range(1, g + 1))
    labels = a_labels + b_labels
    chain_order = []
    for k in range(1, g + 1):
        chain_order.append(f"a{k}")
        chain_order.append(f"b{g + 1 - k}")
    index = {lab: i for i, lab in enumerate(labels)}
    size = 2 * g
    m = [[0] * size for _ in range(size)]
    for x, y in zip(chain_order, chain_order[1:]):
        m[index[x]][index[y]] = 1
        m[index[y]][index[x]] = 1
    return ChainSystem(
        genus=g,
        labels=labels,
        matrix=tuple(tuple(row) for row in m),
        chain_order=tuple(chain_order),
    )


def _by_polygon(cylinders):
    groups = {}
    for i, c in enumerate(cylinders):
        for s in c.core_segments:
            groups.setdefault(s.polygon, []).append((i, s))
    return groups


def _crossing_matrix(horizontal, vertical, margin):
    """Crossing counts of every horizontal core with every vertical core; only
    segments in one polygon can cross."""
    hs, vs = _by_polygon(horizontal), _by_polygon(vertical)
    counts = [[0] * len(vertical) for _ in horizontal]
    apart = _apart_test(margin)
    for p in hs.keys() & vs.keys():
        keyed = [_key(x) for _, s in hs[p] + vs[p] for x in (s.level, s.lo, s.hi)]
        h, v = keyed[: 3 * len(hs[p])], keyed[3 * len(hs[p]) :]
        for near, far in ((h, v), (v, h)):
            levels = sorted(far[0::3])
            for end in near[1::3] + near[2::3]:
                # doubles rule out a far neighbour, the mpf test decides a close one
                if any(abs(x - end[1]) < margin for x in _neighbours(levels, end, apart)[1]):
                    raise DecompositionError(
                        "core curves meet a segment endpoint: degenerate crossing"
                    )
        triples = list(zip(keyed[0::3], keyed[1::3], keyed[2::3]))
        vk = [(j, *t) for (j, _), t in zip(vs[p], triples[len(hs[p]) :])]
        for (i, _), (hl, hlo, hhi) in zip(hs[p], triples):
            for j, vl, vlo, vhi in vk:
                if hlo < vl < hhi and vlo < hl < vhi:
                    counts[i][j] += 1
    return tuple(map(tuple, counts))


def derive_intersection_matrix(surface):
    """Transverse crossing counts between horizontal and vertical cores.

    Returns the g x g integer matrix M with M[i][j] the number of crossings
    of the a_{i+1} core with the b_{j+1} core, in the labeling order of
    :func:`lamkit.flat_surface.cylinder_decomposition`.
    """
    with mpmath.workprec(surface.precision):
        hs = cylinder_decomposition(surface, HORIZONTAL)
        vs = cylinder_decomposition(surface, VERTICAL)
        margin = mpmath.mpf(_CROSSING_MARGIN) * max(1, _diameter(surface))
        return _crossing_matrix(hs, vs, margin)


def intersection_system(surface):
    """The flat-geometry intersection structure of the 2g cylinder cores.

    Same interface as the chain system but with the true crossing counts in
    the off-diagonal blocks (cores of one direction are disjoint, so the
    diagonal blocks vanish).
    """
    g = surface.genus
    ab = derive_intersection_matrix(surface)
    labels = tuple(f"a{i}" for i in range(1, g + 1)) + tuple(
        f"b{j}" for j in range(1, g + 1)
    )
    size = 2 * g
    m = [[0] * size for _ in range(size)]
    for i in range(g):
        for j in range(g):
            m[i][g + j] = ab[i][j]
            m[g + j][i] = ab[i][j]
    return IntersectionSystem(genus=g, labels=labels, matrix=tuple(tuple(r) for r in m))


def pair(u, v, system, allow_same_side=False):
    """Bilinear intersection pairing of two weighted multicurves.

    Extends the matrix of ``system`` bilinearly over the component weights.
    Same-side input is an error unless ``allow_same_side`` is set, in which
    case the pairing is identically zero (disjoint components).
    """
    if not isinstance(u, WeightedMulticurve) or not isinstance(v, WeightedMulticurve):
        raise ParameterError("pair expects WeightedMulticurve inputs")
    g = system.genus
    if len(u.coefficients) != g or len(v.coefficients) != g:
        raise ParameterError("multicurve size does not match the system genus")
    if u.side == v.side:
        if allow_same_side:
            return 0
        raise HypothesisError(
            "same-side multicurves are disjoint; pass allow_same_side=True "
            "to get the zero pairing explicitly"
        )
    a, b = (u, v) if u.side == "A" else (v, u)
    block = system.ab_block()
    total = 0
    for i in range(g):
        if a.coefficients[i] == 0:
            continue
        row = block[i]
        for j in range(g):
            if row[j]:
                total += a.coefficients[i] * b.coefficients[j] * row[j]
    return total


def matches_chain_pattern(matrix):
    """Search for relabelings making ``matrix`` the chain a/b block.

    Returns a pair of permutations (rows, cols) if the g x g matrix equals
    the chain system's A x B block after relabeling, else None.  Exists to
    make the relation between the geometric counts and the combinatorial
    chain checkable; for the double regular-polygon family it returns None.

    The chain block is the bipartite path a_1, b_g, a_2, ..., a_g, b_1, and a
    path has no side-preserving symmetry, so the relabeling is unique: walk
    the nonzero entries from the row with one of them and check the result.
    """
    g = len(matrix)
    chain = chain_intersection_matrix(g).ab_block()
    graph = {(0, i): [(1, j) for j in range(g) if matrix[i][j] != 0] for i in range(g)}
    graph.update({(1, j): [(0, i) for i in range(g) if matrix[i][j] != 0] for j in range(g)})
    path = [node for node in graph if node[0] == 0 and len(graph[node]) == 1][:1]
    while path and len(path) < 2 * g:
        step = [node for node in graph[path[-1]] if node not in path[-2:-1]]
        if len(step) != 1:
            return None
        path.append(step[0])
    pr, pc = tuple(i for _, i in path[::2]), tuple(j for _, j in reversed(path[1::2]))
    if len(path) == 2 * g and all(
        matrix[pr[i]][pc[j]] == chain[i][j] for i in range(g) for j in range(g)
    ):
        return pr, pc
    return None
