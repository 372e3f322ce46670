"""Geometry of the double regular-polygon surfaces.

Independent oracles used here:

* area of two unit-side regular n-gons: n / (2 tan(pi/n));
* total cone angle: 2n corners of interior angle (n-2) pi / n each;
* the former ``validate``, which summed ``atan2`` interior angles per vertex
  class (``_atan2_validate``): the exact turn counts give the same verdicts;
* the former per-cylinder trapezoid check (``_trapezoid_check_holds``): it
  holds on every decomposition returned;
* the former slack strip matcher of the symmetry check, made to try every
  polygon assignment (``_slack_symmetry``): matching strips by level order
  gives the same verdicts;
* horizontal cylinder data: heights sin(2 pi k / n) and circumferences
  2 cot(pi/n) sin(2 pi k / n), k = 1..g (trigonometric closed forms);
* vertical heights in genus 2: (sqrt(5)-1)/4 and (3-sqrt(5))/4, derived by
  hand from the pentagon vertex coordinates.
"""

import bisect
from dataclasses import replace
from itertools import accumulate, chain, product, takewhile
import json

from hypothesis import given, settings, strategies as st
import mpmath
import pytest

from lamkit import flat_surface
from lamkit.affine import parabolic_generator
from lamkit.curves import derive_intersection_matrix
from lamkit.errors import DecompositionError, InvalidSurfaceError, ParameterError
from lamkit.flat_surface import (
    HORIZONTAL,
    VERTICAL,
    TranslationSurface,
    _along,
    _critical_levels,
    _crossing_edges,
    _decomposition_cached,
    _diameter,
    _edge_table,
    _key,
    _level,
    _on_line,
    _validated,
    area,
    build_double_polygon,
    cone_angles,
    cylinder_decomposition,
    hyperelliptic_symmetry,
    surface_from_json,
    surface_to_json,
    validate,
    vertex_classes,
)
from lamkit.obstruction import vertical_heights
from lamkit.precision import DEFAULT_TOLERANCE, merge_tolerance


def test_build_rejects_small_genus():
    for bad in (1, 0, -3):
        with pytest.raises(ParameterError):
            build_double_polygon(bad)


def test_pentagon_pair_combinatorics(surface):
    s = surface(2)
    assert s.genus == 2
    assert len(s.polygons) == 2
    assert all(len(p) == 5 for p in s.polygons)
    assert len(s.gluings) == 5


def test_area_matches_frozen_pentagon_value(surface):
    # two unit-side regular pentagons
    assert abs(float(area(surface(2))) - 3.4409548) < 1e-6


@pytest.mark.parametrize("g", range(2, 7))
def test_area_matches_closed_form(surface, g):
    s = surface(g)
    n = 2 * g + 1
    with mpmath.workprec(s.precision):
        expected = n / (2 * mpmath.tan(mpmath.pi / n))
        assert abs(area(s) - expected) / expected < mpmath.mpf("1e-30")


@pytest.mark.parametrize("g", range(2, 7))
def test_single_cone_point_and_gauss_bonnet(surface, g):
    s = surface(g)
    classes = vertex_classes(s)
    assert len(classes) == 1
    assert len(classes[0]) == 2 * (2 * g + 1)
    angles = cone_angles(s)
    with mpmath.workprec(s.precision):
        two_pi = 2 * mpmath.pi
        # total angle 2 pi (2g - 1), excess 2 pi (2g - 2)
        assert abs(angles[0] - two_pi * (2 * g - 1)) < mpmath.mpf("1e-30")
        excess = sum(a - two_pi for a in angles)
        assert abs(excess - two_pi * (2 * g - 2)) < mpmath.mpf("1e-30")


@pytest.mark.parametrize("g", range(2, 9))
@pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
def test_decomposition_counts_and_tiling(surface, g, direction):
    s = surface(g)
    cyls = cylinder_decomposition(s, direction)
    assert len(cyls) == g
    prefix = "a" if direction == HORIZONTAL else "b"
    assert [c.label for c in cyls] == [f"{prefix}{i}" for i in range(1, g + 1)]
    with mpmath.workprec(s.precision):
        total = area(s)
        tiled = sum(c.circumference * c.height for c in cyls)
        assert abs(tiled - total) / total < mpmath.mpf("1e-12")
        mods = [c.modulus for c in cyls]
        assert (max(mods) - min(mods)) / mods[0] < mpmath.mpf("1e-12")
        assert all(c.height > 0 and c.circumference > 0 for c in cyls)


@pytest.mark.parametrize("g", range(2, 17))
def test_strip_counts(surface, g):
    # genus g: 2g horizontal and 2g(g+1) vertical strips
    strips = {
        d: sum(len(c.strips) for c in cylinder_decomposition(surface(g), d))
        for d in (HORIZONTAL, VERTICAL)
    }
    assert strips == {HORIZONTAL: 2 * g, VERTICAL: 2 * g * (g + 1)}


def test_rotated_surface_is_valid_but_not_periodic_in_either_direction(surface):
    s = surface(2)
    with mpmath.workprec(s.precision):
        c, t = mpmath.cos(mpmath.mpf("0.1")), mpmath.sin(mpmath.mpf("0.1"))
        polygons = tuple(tuple((c * x - t * y, t * x + c * y) for x, y in p) for p in s.polygons)
    rotated = TranslationSurface(s.genus, polygons, s.gluings, s.precision)
    assert validate(rotated)
    for direction in (HORIZONTAL, VERTICAL):
        with pytest.raises(DecompositionError, match="not completely periodic"):
            cylinder_decomposition(rotated, direction)


def _linear_crossing_edges(surface, p, direction, level, slack):
    """Reference: scan every edge of polygon p for a span that holds ``level``
    with ``slack`` to spare, edge by edge."""
    found = []
    for e in range(len(surface.polygons[p])):
        la, lb = (_level(v, direction) for v in surface.edge(p, e))
        lo, hi = (la, lb) if la <= lb else (lb, la)
        if lo + slack < level < hi - slack:
            found.append(e)
    return found


@pytest.mark.parametrize("bits", [64, 128, 512])
@pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
def test_chain_lookup_matches_linear_scan(direction, bits):
    # at every critical level, every strip mid-level, and at, inside and
    # outside the slack around every vertex level
    for g in range(2, 13):
        s = build_double_polygon(g, precision=bits)
        with mpmath.workprec(bits):
            slack = merge_tolerance(bits) * max(1, _diameter(s))
            table, chains = _edge_table(s, direction, slack)
            levels = _critical_levels(s, direction, table, chains, slack, 10**6)
            for p, ls in enumerate(levels):
                probes = ls + [(a + b) / 2 for a, b in zip(ls, ls[1:])]
                for v in s.polygons[p]:
                    lv = _level(v, direction)
                    probes += [lv + k * slack for k in (-2, -1, -0.5, 0.5, 1, 2)]
                for level in probes:
                    expected = _linear_crossing_edges(s, p, direction, level, slack)
                    assert _crossing_edges(chains[p], _key(level)) == expected


def _vertices_from_separate_trig(g, bits):
    """Reference: the vertex loop with one ``cos`` and one ``sin`` call per vertex."""
    n = 2 * g + 1
    with mpmath.workprec(bits):
        two_pi = 2 * mpmath.pi
        verts = [(mpmath.mpf(0), mpmath.mpf(0))]
        for k in range(n - 1):
            ang = two_pi * k / n
            x, y = verts[-1]
            verts.append((x + mpmath.cos(ang), y + mpmath.sin(ang)))
    return verts


@pytest.mark.parametrize("bits", [64, 100, 517, 2048])
def test_vertices_match_separate_cos_and_sin(bits):
    for g in range(2, 17):
        s = build_double_polygon(g, precision=bits)
        expected = _vertices_from_separate_trig(g, bits)
        assert [(x._mpf_, y._mpf_) for x, y in s.polygons[0]] == [
            (x._mpf_, y._mpf_) for x, y in expected
        ]


def test_float_coordinates_still_fail_to_decompose(surface):
    # floats are 53-bit values in a 128-bit surface: the gluings do not close
    # up within the merge slack, so a decomposition needs mpf coordinates
    s = surface(2)
    polygons = tuple(tuple((float(x), float(y)) for x, y in p) for p in s.polygons)
    floats = TranslationSurface(s.genus, polygons, s.gluings, s.precision)
    assert validate(floats)
    for direction in (HORIZONTAL, VERTICAL):
        with pytest.raises(DecompositionError, match="mpf"):
            cylinder_decomposition(floats, direction)
    with pytest.raises(DecompositionError):
        hyperelliptic_symmetry(floats)


def test_vertical_strip_widths_are_traced_once(monkeypatch):
    # _on_line calls per strip: two for the mid-level width and two for the
    # core endpoints
    calls = []

    def counted(row, level):
        calls.append(level)
        return _on_line(row, level)

    s = build_double_polygon(8, precision=131)
    monkeypatch.setattr(flat_surface, "_on_line", counted)
    cylinders = _decomposition_cached.__wrapped__(s, VERTICAL)
    strips = sum(len(c.strips) for c in cylinders)
    assert strips == 144
    assert len(calls) == 4 * strips


def _vertex_along(surface, p, e, level, direction):
    """Reference: the along coordinate at ``level`` on edge e of polygon p,
    derived from the edge's vertices on every call."""
    a, b = surface.edge(p, e)
    la, lb = _level(a, direction), _level(b, direction)
    t = (level - la) / (lb - la)
    return _along(a, direction) + t * (_along(b, direction) - _along(a, direction))


@pytest.mark.parametrize("bits", [64, 128, 512])
@pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
def test_line_rows_match_the_vertex_formula_exactly(direction, bits):
    # circumferences sum strip widths at mid-level in strip order; core
    # segments end on the strip's edges at the core level
    for g in range(2, 13):
        s = build_double_polygon(g, precision=bits)
        for c in cylinder_decomposition(s, direction):
            with mpmath.workprec(bits):
                circumference = mpmath.mpf(0)
                ends = []
                for st, seg in zip(c.strips, c.core_segments):
                    mid = (st.level_lo + st.level_hi) / 2
                    hi = _vertex_along(s, st.polygon, st.edge_hi, mid, direction)
                    circumference += hi - _vertex_along(s, st.polygon, st.edge_lo, mid, direction)
                    ends.append(
                        tuple(
                            _vertex_along(s, st.polygon, e, seg.level, direction)
                            for e in (st.edge_lo, st.edge_hi)
                        )
                    )
            assert c.circumference._mpf_ == circumference._mpf_
            assert [(seg.lo._mpf_, seg.hi._mpf_) for seg in c.core_segments] == [
                (lo._mpf_, hi._mpf_) for lo, hi in ends
            ]


def test_non_monotone_polygon_is_refused(surface):
    # lowering the top vertex of a pentagon below its neighbours leaves a notch,
    # so a horizontal chord near the top crosses four edges
    s = surface(2)
    with mpmath.workprec(s.precision):
        polys = [list(p) for p in s.polygons]
        x, y = polys[0][3]
        polys[0][3] = (x, y - 1)
    notched = TranslationSurface(s.genus, tuple(map(tuple, polys)), s.gluings, s.precision)
    with pytest.raises(DecompositionError, match="is the polygon convex"):
        cylinder_decomposition(notched, HORIZONTAL)


@pytest.mark.parametrize("g", range(2, 7))
def test_horizontal_closed_forms(surface, g):
    s = surface(g)
    n = 2 * g + 1
    cyls = cylinder_decomposition(s, HORIZONTAL)
    with mpmath.workprec(s.precision):
        shear = 2 / mpmath.tan(mpmath.pi / n)
        for k, c in enumerate(cyls, start=1):
            expected_h = mpmath.sin(2 * mpmath.pi * k / n)
            assert abs(c.height - expected_h) < mpmath.mpf("1e-25")
            assert abs(c.circumference - shear * expected_h) < mpmath.mpf("1e-25")


def test_vertical_heights_genus2_frozen(surface):
    s = surface(2)
    cyls = cylinder_decomposition(s, VERTICAL)
    with mpmath.workprec(s.precision):
        root5 = mpmath.sqrt(5)
        expected = [(root5 - 1) / 4, (3 - root5) / 4]
        for c, e in zip(cyls, expected):
            assert abs(c.height - e) < mpmath.mpf("1e-12")
        phi = (1 + root5) / 2
        assert abs(cyls[0].height / cyls[1].height - phi) < mpmath.mpf("1e-12")


def test_labels_follow_core_positions(surface):
    # a-labels by increasing height of the core in polygon 0, b-labels by
    # increasing x-coordinate
    s = surface(3)
    for direction in (HORIZONTAL, VERTICAL):
        cyls = cylinder_decomposition(s, direction)
        keys = [
            min(seg.level for seg in c.core_segments if seg.polygon == 0)
            for c in cyls
        ]
        assert keys == sorted(keys)


@pytest.mark.parametrize("g", range(2, 7))
def test_hyperelliptic_symmetry_fixes_every_cylinder(surface, g):
    assert hyperelliptic_symmetry(surface(g)) is True


def test_invalid_surface_rejected_before_symmetry_check(surface):
    s = surface(2)
    with mpmath.workprec(s.precision):
        polys = [list(map(tuple, p)) for p in s.polygons]
        x, y = polys[0][2]
        polys[0][2] = (x + mpmath.mpf("0.01"), y)
    broken = TranslationSurface(
        genus=s.genus,
        polygons=tuple(tuple(p) for p in polys),
        gluings=s.gluings,
        precision=s.precision,
    )
    with pytest.raises(InvalidSurfaceError):
        hyperelliptic_symmetry(broken)


def test_validate_catches_bad_genus_and_orientation(surface):
    s = surface(2)
    wrong_genus = TranslationSurface(
        genus=3, polygons=s.polygons, gluings=s.gluings, precision=s.precision
    )
    with pytest.raises(InvalidSurfaceError):
        validate(wrong_genus)
    clockwise = TranslationSurface(
        genus=2,
        polygons=(tuple(reversed(s.polygons[0])), s.polygons[1]),
        gluings=s.gluings,
        precision=s.precision,
    )
    with pytest.raises(InvalidSurfaceError):
        validate(clockwise)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_vertex_is_invalid(surface, bad):
    s = surface(2)
    polys = [list(p) for p in s.polygons]
    polys[1][3] = (polys[1][3][0], mpmath.mpf(bad))
    broken = TranslationSurface(2, tuple(map(tuple, polys)), s.gluings, s.precision)
    for _ in range(2):
        with pytest.raises(InvalidSurfaceError, match="vertex 3 of polygon 1 is not finite"):
            validate(broken)


def test_validation_is_remembered_for_valid_surfaces_only(surface):
    s = surface(3)
    validate(s)
    restored = surface_from_json(surface_to_json(s))
    hits = _validated.cache_info().hits
    assert validate(restored) is True
    assert _validated.cache_info().hits == hits + 1
    # equal to a remembered valid surface, but its genus is not an integer
    with pytest.raises(InvalidSurfaceError, match="genus"):
        validate(TranslationSurface(3.0, s.polygons, s.gluings, s.precision))
    with mpmath.workprec(s.precision):
        polys = [list(p) for p in s.polygons]
        x, y = polys[0][2]
        polys[0][2] = (x + mpmath.mpf("0.01"), y)
    broken = TranslationSurface(3, tuple(map(tuple, polys)), s.gluings, s.precision)
    for _ in range(2):
        with pytest.raises(InvalidSurfaceError):
            validate(broken)
    assert 0 < _validated.cache_info().maxsize <= 16


def test_one_geometry_pass_validates_once():
    # build, both decompositions, crossings, heights, generator, symmetry and
    # the JSON round trip of a never-seen surface
    misses = _validated.cache_info().misses
    s = build_double_polygon(5, precision=211)
    for direction in (HORIZONTAL, VERTICAL):
        cylinder_decomposition(s, direction)
    derive_intersection_matrix(s)
    vertical_heights(s)
    parabolic_generator(5, s)
    assert hyperelliptic_symmetry(s) is True
    assert surface_from_json(surface_to_json(s), precision=211) == s
    assert _validated.cache_info().misses == misses + 1


def test_surface_facts_are_kept_and_read_at_the_surface_precision():
    # asked first at 53 bits, the diameter and the area are still those of 211 bits,
    # and a second request returns the kept objects
    s, t = (build_double_polygon(5, precision=211) for _ in range(2))
    with mpmath.workprec(53):
        facts = _diameter(s), area(s), flat_surface._partners(s)
    with mpmath.workprec(211):
        assert (_diameter(t), area(t), flat_surface._partners(t)) == facts
    assert all(a is b for a, b in zip(facts, (_diameter(s), area(s), flat_surface._partners(s))))


def test_direction_must_be_distinguished(surface):
    with pytest.raises(ParameterError):
        cylinder_decomposition(surface(2), "diagonal")


def test_json_roundtrip_is_byte_stable(surface):
    s = surface(2)
    text = surface_to_json(s)
    reloaded = surface_from_json(text)
    assert surface_to_json(reloaded) == text
    doc = json.loads(text)
    assert doc["genus"] == 2
    assert len(doc["polygons"]) == 2
    assert all(len(entry) == 4 for entry in doc["gluings"])
    # decomposition data survives the roundtrip
    orig = cylinder_decomposition(s, VERTICAL)
    back = cylinder_decomposition(reloaded, VERTICAL)
    with mpmath.workprec(s.precision):
        for a, b in zip(orig, back):
            assert abs(a.height - b.height) < mpmath.mpf("1e-30")


@pytest.mark.parametrize("bits", [134, 141, 151])
def test_json_roundtrip_is_exact(surface, bits):
    # at these precisions mpmath's dps + 2 digits are one too few to read back
    s = surface(2, precision=bits)
    assert surface_from_json(surface_to_json(s)) == s


def test_decomposition_cache_is_bounded():
    maxsize = _decomposition_cached.cache_info().maxsize
    assert maxsize is not None
    for bits in range(64, 64 + maxsize + 2):
        cylinder_decomposition(build_double_polygon(2, precision=bits), HORIZONTAL)
    assert _decomposition_cached.cache_info().currsize <= maxsize


def test_custom_precision_is_recorded_and_used():
    s = build_double_polygon(2, precision=96)
    assert s.precision == 96
    with pytest.raises(ParameterError):
        build_double_polygon(2, precision=32)


def _atan2_validate(surface):
    """Reference: the former ``validate``, which summed ``atan2`` interior angles
    over each vertex class and compared the angle excess with 2*pi*(2g-2)."""
    if not isinstance(surface.genus, int) or surface.genus < 2:
        raise InvalidSurfaceError("genus")
    if len(surface.polygons) != 2:
        raise InvalidSurfaceError("polygons")
    if not all(mpmath.isfinite(c) for v in surface.all_vertices() for c in v):
        raise InvalidSurfaceError("finite")
    with mpmath.workprec(surface.precision):
        slack = _diameter(surface) * mpmath.mpf(DEFAULT_TOLERANCE)
        for poly in surface.polygons:
            n = len(poly)
            if n < 3 or flat_surface._shoelace(poly) <= 0:
                raise InvalidSurfaceError("orientation")
            for i in range(n):
                (ax, ay), (bx, by), (cx, cy) = (poly[(i + k) % n] for k in range(3))
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= slack:
                    raise InvalidSurfaceError("convexity")
        seen = set()
        for one, other in surface.gluings:
            if one in seen or other in seen:
                raise InvalidSurfaceError("gluing")
            seen |= {one, other}
            (vx, vy), (wx, wy) = surface.edge_vector(*one), surface.edge_vector(*other)
            if abs(vx + wx) > slack or abs(vy + wy) > slack:
                raise InvalidSurfaceError("translation")
        if len(seen) != sum(len(poly) for poly in surface.polygons):
            raise InvalidSurfaceError("missing edge")

        def interior(poly, i):
            n = len(poly)
            (vx, vy), (px, py), (qx, qy) = poly[i], poly[(i - 1) % n], poly[(i + 1) % n]
            ux, uy, wx, wy = px - vx, py - vy, qx - vx, qy - vy
            return mpmath.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)

        two_pi = 2 * mpmath.pi
        excess = mpmath.mpf(0)
        for cls in vertex_classes(surface):
            angle = sum((interior(surface.polygons[p], i) for p, i in cls), mpmath.mpf(0))
            multiple = angle / two_pi
            if abs(multiple - mpmath.nint(multiple)) > DEFAULT_TOLERANCE * 100:
                raise InvalidSurfaceError("multiple")
            if mpmath.nint(multiple) < 1:
                raise InvalidSurfaceError("below")
            excess += angle - two_pi
        expected = two_pi * (2 * surface.genus - 2)
        if abs(excess - expected) > DEFAULT_TOLERANCE * 100 * max(1, abs(expected)):
            raise InvalidSurfaceError("excess")
    return True


def _verdict(check, surface):
    try:
        return check(surface)
    except InvalidSurfaceError:
        return "invalid"


@pytest.mark.parametrize("bits", [64, 128, 517, 2048, 4096])
def test_validation_verdicts_match_atan2_on_the_family(bits):
    # the atan2 reference takes most of the time: a wrong genus only at low precision
    for g in range(2, 25):
        s = build_double_polygon(g, precision=bits)
        assert _verdict(validate, s) is _verdict(_atan2_validate, s) is True
        for genus in (g - 1, g + 1) if bits <= 128 else ():
            wrong = TranslationSurface(genus, s.polygons, s.gluings, s.precision)
            assert _verdict(validate, wrong) == _verdict(_atan2_validate, wrong) == "invalid"


def _outcome(check, surface):
    """True, or the message of the InvalidSurfaceError ``check`` raises."""
    try:
        return check(surface)
    except InvalidSurfaceError as exc:
        return str(exc)


def _mpf_outcome(monkeypatch, surface):
    """Reference: the outcome of the mpf tests alone, with no run in doubles."""
    with monkeypatch.context() as m:
        m.setattr(flat_surface, "_in_doubles", lambda *args: None)
        return _outcome(_validated.__wrapped__, surface)


def _flat_corner(s, i, target):
    """``s`` with vertex i + 1 of polygon 0 moved across the chord from vertex i to
    vertex i + 2 until the cross product of corner i is ``target``, and vertex i + 1
    of polygon 1 moved by the point reflection, so glued edges stay opposite."""
    polys = [list(p) for p in s.polygons]
    (ax, ay), (bx, by), (cx, cy) = polys[0][i : i + 3]
    dx, dy = cx - ax, cy - ay
    t = ((bx - ax) * dy - (by - ay) * dx - target) / (dx * dx + dy * dy)
    polys[0][i + 1] = (bx - t * dy, by + t * dx)
    polys[1][i + 1] = (1 - polys[0][i + 1][0], -polys[0][i + 1][1])
    return tuple(map(tuple, polys))


@pytest.mark.parametrize("bits", [64, 128, 2048])
def test_validation_matches_the_mpf_tests_at_the_threshold(monkeypatch, bits):
    # a corner's cross product or a gluing sum at slack * (1 -+ 2^-50): the doubles
    # cannot decide it, so the verdict and the message must be the mpf tests'
    outcomes = []
    for g in (2, 5):
        s = build_double_polygon(g, precision=bits)
        with mpmath.workprec(bits):
            slack = _diameter(s) * mpmath.mpf(DEFAULT_TOLERANCE)
            shapes = [_flat_corner(s, 1, slack * k) for k in (1 - 2.0**-50, 1 + 2.0**-50)]
            for k, axis in product((1 - 2.0**-50, 1 + 2.0**-50), (0, 1)):
                polys = [list(p) for p in s.polygons]
                vertex = list(polys[0][2])
                vertex[axis] += slack * k
                polys[0][2] = tuple(vertex)
                shapes.append(tuple(map(tuple, polys)))
        for polygons in shapes:
            nudged = TranslationSurface(g, polygons, s.gluings, bits)
            outcomes.append(_outcome(validate, nudged))
            assert outcomes[-1] == _mpf_outcome(monkeypatch, nudged)
    if bits > 64:  # the rounding of the nudged coordinates is far below slack * 2^-50
        assert outcomes.count(True) == 6
        assert outcomes.count("polygon 0 is not strictly convex at corner 1") == 2
        assert sum("not translation-opposite" in str(v) for v in outcomes) == 4


def _bad_surfaces(s):
    """Every surface the bad-surface tests above build from the genus-2 surface ``s``."""
    polys = [list(p) for p in s.polygons]
    with mpmath.workprec(s.precision):
        c, t = mpmath.cos(mpmath.mpf("0.1")), mpmath.sin(mpmath.mpf("0.1"))
        rotated = tuple(tuple((c * x - t * y, t * x + c * y) for x, y in p) for p in s.polygons)
        notched, shifted = [list(p) for p in polys], [list(p) for p in polys]
        notched[0][3] = (polys[0][3][0], polys[0][3][1] - 1)
        shifted[0][2] = (polys[0][2][0] + mpmath.mpf("0.01"), polys[0][2][1])
    floats = tuple(tuple((float(x), float(y)) for x, y in p) for p in s.polygons)
    clockwise = (tuple(reversed(s.polygons[0])), s.polygons[1])
    shapes = [(2, rotated), (2, floats), (2, notched), (2, shifted), (2, clockwise)]
    shapes += [(3, s.polygons), (3.0, s.polygons)]
    for bad in ("nan", "inf", "-inf"):
        broken = [list(p) for p in polys]
        broken[1][3] = (broken[1][3][0], mpmath.mpf(bad))
        shapes.append((2, broken))
    return [
        TranslationSurface(genus, tuple(map(tuple, p)), s.gluings, s.precision)
        for genus, p in shapes
    ]


@pytest.mark.parametrize("g", [2, 3])
def test_validation_verdicts_match_atan2_on_the_bad_surfaces(surface, g):
    verdicts = []
    for s in _bad_surfaces(surface(g)):
        verdicts.append(_verdict(validate, s))
        assert verdicts[-1] == _verdict(_atan2_validate, s)
    assert True in verdicts and "invalid" in verdicts


def _circle_polygon_surface(gaps, bits):
    """A convex polygon with vertices on the unit circle, the k-th at the angle
    2*pi*(gaps[0] + ... + gaps[k-1]) / sum(gaps), glued edge k to edge k of its
    point reflection: n = len(gaps) edge pairs, one cone point for odd n and two
    for even n, so genus (n - 1) // 2."""
    with mpmath.workprec(bits):
        scale = 2 * mpmath.pi / mpmath.fsum(gaps)
        verts = tuple(mpmath.cos_sin(scale * a) for a in accumulate(gaps[:-1], initial=0))
        polygons = (verts, tuple((-x, -y) for x, y in verts))
    gluings = tuple(((0, k), (1, k)) for k in range(len(gaps)))
    return TranslationSurface((len(gaps) - 1) // 2, polygons, gluings, bits)


_GAPS = st.lists(
    st.sampled_from([1e-6, 1e-4, 1e-3, 1e-2]) | st.floats(0.05, 1), min_size=5, max_size=8
)
# (polygon, vertex counted from the start of the shortest edge, axis, multiple of
# the gluing slack DEFAULT_TOLERANCE * diameter); a nudged end of a short edge turns
# it by the most, which the cone-angle defect bound has to catch
_NUDGE = st.tuples(
    st.integers(0, 1), st.integers(0, 1) | st.integers(0, 7), st.integers(0, 1), st.floats(-3, 3)
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_GAPS, st.lists(_NUDGE, max_size=3), st.none() | st.integers(1, 4),
       st.sampled_from([64, 128, 300]))
def test_validation_verdicts_match_atan2_on_mutated_surfaces(gaps, nudges, genus, bits):
    s = _circle_polygon_surface(gaps, bits)
    polys = [list(p) for p in s.polygons]
    shortest = gaps.index(min(gaps))
    with mpmath.workprec(bits):
        step = _diameter(s) * mpmath.mpf(DEFAULT_TOLERANCE)
        for p, i, axis, multiple in nudges:
            k = (shortest + i) % len(gaps)
            vertex = list(polys[p][k])
            vertex[axis] += step * multiple
            polys[p][k] = tuple(vertex)
    mutated = TranslationSurface(
        s.genus if genus is None else genus, tuple(map(tuple, polys)), s.gluings, bits
    )
    assert _verdict(validate, mutated) == _verdict(_atan2_validate, mutated)


def _trapezoid_check_holds(surface, cylinders, direction):
    """Reference: the former per-cylinder check, the strips' trapezoid areas
    (w_lo + w_hi) / 2 * h summed against c * h within 64 merge slacks."""
    with mpmath.workprec(surface.precision):
        slack = merge_tolerance(surface.precision) * max(1, _diameter(surface))
        for c in cylinders:
            cyl_area = mpmath.mpf(0)
            for s in c.strips:
                lo, hi = (
                    _vertex_along(surface, s.polygon, s.edge_hi, level, direction)
                    - _vertex_along(surface, s.polygon, s.edge_lo, level, direction)
                    for level in (s.level_lo, s.level_hi)
                )
                cyl_area += (lo + hi) / 2 * s.height
            if abs(cyl_area - c.circumference * c.height) > 64 * slack * max(1, abs(cyl_area)):
                return False
    return True


@pytest.mark.parametrize("bits", [64, 128, 517, 2048])
@pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
def test_trapezoid_check_holds_on_every_decomposition(direction, bits):
    for g in range(2, 11):
        s = build_double_polygon(g, precision=bits)
        assert _trapezoid_check_holds(s, cylinder_decomposition(s, direction), direction)


@pytest.mark.parametrize("bits", [128, 2048])
@pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
def test_level_merge_matches_the_mpf_insert_at_the_slack(monkeypatch, direction, bits):
    # a vertex of the double pentagon moved along the level axis by slack * (1 -+ 2^-50)
    # plants a level that far from another one: it merges, or the levels fail to close
    # up, as with the mpf test alone
    s = build_double_polygon(2, precision=bits)
    with mpmath.workprec(bits):
        slack = merge_tolerance(bits) * max(1, _diameter(s))

    def closure(surface):
        with mpmath.workprec(bits):
            table, chains = _edge_table(surface, direction, slack)
            try:
                return _critical_levels(surface, direction, table, chains, slack, 100)
            except DecompositionError as exc:
                return str(exc)

    outcomes = []
    for k in (1 - 2.0**-50, 1 + 2.0**-50):
        polys = [list(p) for p in s.polygons]
        vertex = list(polys[0][2])
        with mpmath.workprec(bits):
            vertex[1 if direction == HORIZONTAL else 0] += slack * k
        polys[0][2] = tuple(vertex)
        nudged = TranslationSurface(2, tuple(map(tuple, polys)), s.gluings, bits)
        outcomes.append(closure(nudged))
        with monkeypatch.context() as m:
            m.setattr(flat_surface, "_apart_test", lambda tol: lambda a, b: False)
            assert closure(nudged) == outcomes[-1]
    assert list(map(len, outcomes[0])) == list(map(len, closure(s)))
    assert "not completely periodic" in outcomes[1]


def test_tiling_check_catches_a_wrong_area(monkeypatch):
    s = build_double_polygon(3, precision=140)
    monkeypatch.setattr(flat_surface, "area", lambda surface: 1.001 * area(surface))
    with pytest.raises(DecompositionError, match="sum to the area"):
        _decomposition_cached.__wrapped__(s, VERTICAL)


def test_return_map_refuses_a_missing_level(monkeypatch):
    # without polygon 1's lowest interior level its strips no longer pair off
    # with the strips of the edges glued to them
    critical_levels = flat_surface._critical_levels

    def dropped(*args):
        levels = critical_levels(*args)
        del levels[1][1]
        return levels

    monkeypatch.setattr(flat_surface, "_critical_levels", dropped)
    s = build_double_polygon(3, precision=140)
    for direction in (HORIZONTAL, VERTICAL):
        with pytest.raises(DecompositionError, match="closure bug"):
            _decomposition_cached.__wrapped__(s, direction)


def _has_strip(keys, lo, hi, polygon, slack):
    """Reference, the former strip lookup of the symmetry check: whether a
    ``(key, level_lo, level_hi, polygon)`` entry, sorted, matches within
    ``slack`` on both levels.  Rounded subtraction is monotone, so the
    entries with a close ``level_lo`` form one run around the bisect point."""
    i = bisect.bisect_left(keys, (_key(lo),))

    def close(k):
        return abs(lo - k[1]) <= slack

    run = chain(takewhile(close, keys[i:]), takewhile(close, reversed(keys[:i])))
    return any(k[3] == polygon and abs(hi - k[2]) <= slack for k in run)


def _slack_symmetry(surface):
    """Reference: the former symmetry check, made to try every polygon assignment
    that maps gluings to gluings: each strip of each cylinder, reflected, must lie
    within the slack of a strip of the same cylinder in the image polygon."""
    validate(surface)
    with mpmath.workprec(surface.precision):
        verts = surface.all_vertices()
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        twice = {VERTICAL: 2 * cx, HORIZONTAL: 2 * cy}
        slack = mpmath.mpf(DEFAULT_TOLERANCE) * max(1, _diameter(surface))
        matches = [
            [
                (q, shift)
                for q, other in enumerate(surface.polygons) if len(other) == len(poly)
                for shift in range(len(poly))
                if all(abs(twice[VERTICAL] - x - wx) <= slack
                       and abs(twice[HORIZONTAL] - y - wy) <= slack
                       for (x, y), (wx, wy) in zip(poly, other[shift:] + other[:shift]))
            ]
            for poly in surface.polygons
        ]
        gluing_set = {frozenset(pair) for pair in surface.gluings}
        for assignment in product(*matches):
            poly_image = [q for q, _ in assignment]
            if len(set(poly_image)) < len(poly_image):
                continue
            edge_image = {
                (p, e): (q, (shift + e) % len(surface.polygons[p]))
                for p, (q, shift) in enumerate(assignment)
                for e in range(len(surface.polygons[p]))
            }
            if any(frozenset(edge_image[e] for e in pair) not in gluing_set
                   for pair in surface.gluings):
                continue
            if all(
                _has_strip(keys, twice[direction] - s.level_hi, twice[direction] - s.level_lo,
                           poly_image[s.polygon], slack)
                for direction in (HORIZONTAL, VERTICAL)
                for cyl in flat_surface.cylinder_decomposition(surface, direction)
                for keys in [sorted((_key(s.level_lo), s.level_lo, s.level_hi, s.polygon)
                                    for s in cyl.strips)]
                for s in cyl.strips
            ):
                return True
        return False


def _symmetry_verdict(check, surface):
    try:
        return check(surface)
    except DecompositionError:
        return "raises"


@pytest.mark.parametrize("bits", [64, 128, 517])
def test_symmetry_matches_the_slack_matcher_on_the_family(bits):
    for g in range(2, 13):
        s = build_double_polygon(g, precision=bits)
        assert hyperelliptic_symmetry(s) is _slack_symmetry(s) is True


def test_symmetry_matches_the_slack_matcher_on_circle_polygons():
    verdicts = []
    for n in range(5, 13):
        s = _circle_polygon_surface([1] * n, 128)
        verdicts.append(_symmetry_verdict(hyperelliptic_symmetry, s))
        assert verdicts[-1] == _symmetry_verdict(_slack_symmetry, s)
    assert verdicts == [True] * 8


def test_symmetry_matches_the_slack_matcher_on_traded_strips(monkeypatch):
    # two strips of polygon 0 trade vertical cylinders: the reflection no longer
    # fixes either cylinder
    s = build_double_polygon(3, precision=140)
    decomposition = flat_surface.cylinder_decomposition

    def traded(surface, direction):
        cyls = list(decomposition(surface, direction))
        if direction == VERTICAL:
            strips = [list(cyls[c].strips) for c in (0, 1)]
            i, j = (next(k for k, st in enumerate(ss) if st.polygon == 0) for ss in strips)
            strips[0][i], strips[1][j] = strips[1][j], strips[0][i]
            for c in (0, 1):
                cyls[c] = replace(cyls[c], strips=tuple(strips[c]))
        return tuple(cyls)

    assert hyperelliptic_symmetry(s) is _slack_symmetry(s) is True
    monkeypatch.setattr(flat_surface, "cylinder_decomposition", traded)
    assert hyperelliptic_symmetry(s) is _slack_symmetry(s) is False


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_symmetric_polygons_swap_under_the_reflection(n):
    # each regular 2k-gon is also its own point reflection; the reflection of the
    # surface swaps the two polygons
    assert hyperelliptic_symmetry(_circle_polygon_surface([1] * n, 128)) is True


def test_reflected_surface_that_does_not_decompose_raises():
    s = _circle_polygon_surface([1, 2] * 4, 128)
    assert validate(s)
    with pytest.raises(DecompositionError, match="not completely periodic"):
        hyperelliptic_symmetry(s)


def test_unmatched_polygons_are_refused_before_any_decomposition(monkeypatch):
    # the regular octagon with opposite sides glued, cut along the diagonal v0-v3
    # into a quadrilateral and a hexagon: the reflection cannot swap them
    bits = 128
    with mpmath.workprec(bits):
        octagon = [(mpmath.mpf(0), mpmath.mpf(0))]
        for k in range(7):
            c, t = mpmath.cos_sin(2 * mpmath.pi * k / 8)
            octagon.append((octagon[-1][0] + c, octagon[-1][1] + t))
    polygons = (tuple(octagon[:4]), tuple(octagon[3:] + octagon[:1]))
    gluings = (((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 3)), ((1, 0), (1, 4)),
               ((0, 3), (1, 5)))
    s = TranslationSurface(2, polygons, gluings, bits)
    assert validate(s)
    assert [len(cylinder_decomposition(s, d)) for d in (HORIZONTAL, VERTICAL)] == [2, 2]
    calls = []
    monkeypatch.setattr(flat_surface, "cylinder_decomposition", lambda *a: calls.append(a))
    assert hyperelliptic_symmetry(s) is False
    assert calls == []
