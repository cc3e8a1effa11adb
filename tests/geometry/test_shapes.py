"""Rectilinear geometry, with property-based invariants."""

from functools import reduce

import pytest
from hypothesis import given, strategies as st

from repro.errors import LayoutError
from repro.geometry import Point, Rect, bounding_box

coords = st.integers(min_value=-100_000, max_value=100_000)
sizes = st.integers(min_value=0, max_value=50_000)


def rects():
    return st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h), coords, coords, sizes, sizes
    )


def test_point_translation():
    assert Point(1, 2).translated(3, -4) == Point(4, -2)


def test_rect_basic_properties():
    r = Rect(0, 0, 100, 50)
    assert r.width == 100
    assert r.height == 50
    assert r.area == 5000
    assert r.center == Point(50, 25)
    assert r.aspect_ratio == pytest.approx(2.0)


def test_rect_from_size():
    assert Rect.from_size(10, 20, 30, 40) == Rect(10, 20, 40, 60)


def test_inverted_rect_rejected():
    with pytest.raises(LayoutError):
        Rect(10, 0, 0, 10)


def test_degenerate_rect_allowed():
    r = Rect(0, 0, 100, 0)
    assert r.height == 0
    assert r.aspect_ratio == float("inf")


def test_intersects_vs_overlaps():
    a = Rect(0, 0, 10, 10)
    b = Rect(10, 0, 20, 10)  # touching edge
    c = Rect(5, 5, 15, 15)
    assert a.intersects(b)
    assert not a.overlaps(b)
    assert a.overlaps(c)


def test_contains_point_boundary():
    r = Rect(0, 0, 10, 10)
    assert r.contains_point(Point(0, 0))
    assert r.contains_point(Point(10, 10))
    assert not r.contains_point(Point(11, 5))


def test_union():
    a = Rect(0, 0, 10, 10)
    b = Rect(20, -5, 30, 5)
    assert a.union(b) == Rect(0, -5, 30, 10)


def test_expanded():
    assert Rect(0, 0, 10, 10).expanded(5) == Rect(-5, -5, 15, 15)


def test_bounding_box_empty_raises():
    with pytest.raises(LayoutError):
        bounding_box([])


@given(rects(), coords, coords)
def test_translation_preserves_size(r, dx, dy):
    t = r.translated(dx, dy)
    assert t.width == r.width
    assert t.height == r.height


@given(rects(), rects())
def test_union_contains_both(a, b):
    u = a.union(b)
    for r in (a, b):
        assert u.x0 <= r.x0 and u.y0 <= r.y0
        assert u.x1 >= r.x1 and u.y1 >= r.y1


@given(rects(), rects())
def test_union_commutative(a, b):
    assert a.union(b) == b.union(a)


@given(rects(), rects())
def test_overlap_implies_intersect(a, b):
    if a.overlaps(b):
        assert a.intersects(b)


@given(rects(), rects())
def test_intersects_symmetric(a, b):
    assert a.intersects(b) == b.intersects(a)


@given(st.lists(rects(), min_size=1, max_size=10))
def test_bounding_box_covers_all(rs):
    box = bounding_box(rs)
    for r in rs:
        assert box.union(r) == box
    assert box == reduce(Rect.union, rs)
