"""Geometry of the double regular-polygon surfaces.

Independent oracles used here:

* area of two unit-side regular n-gons: n / (2 tan(pi/n));
* total cone angle: 2n corners of interior angle (n-2) pi / n each;
* horizontal cylinder data: heights sin(2 pi k / n) and circumferences
  2 cot(pi/n) sin(2 pi k / n), k = 1..g (trigonometric closed forms);
* vertical heights in genus 2: (sqrt(5)-1)/4 and (3-sqrt(5))/4, derived by
  hand from the pentagon vertex coordinates.
"""

import json

import mpmath
import pytest

from lamkit.errors import DecompositionError, InvalidSurfaceError, ParameterError
from lamkit.flat_surface import (
    HORIZONTAL,
    VERTICAL,
    TranslationSurface,
    _decomposition_cached,
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
