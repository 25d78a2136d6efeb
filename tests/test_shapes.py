import pytest
from hypothesis import given, strategies as st

from kgraphlab.errors import ShapeError
from kgraphlab.shapes import INF, ExtendedShape, Shape, make_shape, shapes_below, witness_pairs

coord = st.one_of(st.integers(min_value=0, max_value=9), st.just(INF))
finite_coord = st.integers(min_value=0, max_value=9)


def xshape(rank=3):
    return st.tuples(*([coord] * rank)).map(lambda t: make_shape(t))


def fshape(rank=3):
    return st.tuples(*([finite_coord] * rank)).map(lambda t: Shape(*t))


def test_construction_and_validation():
    assert Shape(1, 2).coords == (1, 2)
    assert Shape((1, 2)).coords == (1, 2)
    assert ExtendedShape(1, INF).coords == (1, INF)
    with pytest.raises(ShapeError):
        Shape(1, INF)
    with pytest.raises(ShapeError):
        Shape(-1, 0)
    with pytest.raises(ShapeError):
        Shape(1.5, 0)
    with pytest.raises(ShapeError):
        Shape(True, 0)
    with pytest.raises(ShapeError):
        make_shape((-1, 0))
    with pytest.raises(ShapeError):
        Shape()


def test_basic_algebra():
    a, b = Shape(2, 1), Shape(1, 3)
    assert a + b == Shape(3, 4)
    assert a.join(b) == Shape(2, 3)
    assert a.meet(b) == Shape(1, 1)
    assert (a + b) - b == a
    assert not a <= b and not b <= a
    assert Shape.zero(2) <= a
    assert a.diff(b) == (1, -2)
    assert Shape.unit(3, 2) == Shape(0, 1, 0)
    assert same_as_validated(Shape.unit(3, 2)) and same_as_validated(Shape.zero(3))
    assert 2 * Shape(1, 2) == Shape(2, 4)


def test_infinite_coordinates():
    s = ExtendedShape(INF, 2)
    assert s + Shape(5, 5) == ExtendedShape(INF, 7)
    assert s - Shape(3, 1) == ExtendedShape(INF, 1)
    assert Shape(100, 1) <= s
    assert s.infinite_support() == frozenset({1})
    assert not s.is_finite and Shape(1, 1).is_finite
    with pytest.raises(ShapeError):
        s - ExtendedShape(INF, 0)
    with pytest.raises(ShapeError):
        Shape(1, 1) - ExtendedShape(INF, 0)


def test_mixed_class_equality_and_make_shape():
    assert ExtendedShape(1, 2) == Shape(1, 2)
    assert hash(ExtendedShape(1, 2)) == hash(Shape(1, 2))
    assert isinstance(make_shape((1, 2)), Shape)
    assert isinstance(make_shape((1, INF)), ExtendedShape)
    assert isinstance(Shape(1, 1) + Shape(0, 0), Shape)


def test_coord_is_one_based():
    s = ExtendedShape(4, INF, 6)
    assert s.coord(1) == 4 and s.coord(3) == 6
    with pytest.raises(ShapeError):
        s.coord(0)


def test_shapes_below_order_and_count():
    got = list(shapes_below(Shape(1, 2)))
    assert got[0] == Shape(0, 0) and got[-1] == Shape(1, 2)
    assert len(got) == 2 * 3
    assert [tuple(s.coords) for s in got] == sorted(tuple(s.coords) for s in got)


@given(xshape(), xshape())
def test_join_meet_commute(a, b):
    assert a.join(b) == b.join(a)
    assert a.meet(b) == b.meet(a)
    assert a.meet(b) <= a <= a.join(b)


@given(xshape(), xshape(), xshape())
def test_join_associative_add_monotone(a, b, c):
    assert a.join(b).join(c) == a.join(b.join(c))
    if a <= b:
        assert a + c <= b + c


@given(fshape(), fshape())
def test_sub_inverts_add(a, b):
    assert (a + b) - b == a
    assert (a + b).diff(a) == tuple(b.coords)


@given(xshape(), fshape())
def test_lattice_subtraction_law(s, n):
    # exit-time style arithmetic: (s + n) - n == s even through INF coordinates
    assert (s + n) - n == s


def same_as_validated(s):
    """s equals, hashes like and has the class of make_shape over its coordinates."""
    ref = make_shape(s.coords)
    return s == ref and hash(s) == hash(ref) and type(s) is type(ref)


@given(st.one_of(xshape(), fshape()), st.one_of(xshape(), fshape()))
def test_arithmetic_matches_validated_construction(a, b):
    for s in (a + b, a.join(b), a.meet(b), 2 * a):
        assert same_as_validated(s)
    if b.is_finite:
        assert same_as_validated((a + b) - b)


@given(st.tuples(*([st.integers(min_value=0, max_value=9)] * 2)).map(ExtendedShape))
def test_finite_extended_shapes_close_into_shape(a):
    # an ExtendedShape without INF: every result is a Shape, as make_shape would build
    for s in (a + a, a - a, a.join(a), a.meet(a), 3 * a):
        assert same_as_validated(s) and type(s) is Shape


@given(fshape(rank=2), st.tuples(*([st.integers(min_value=-3, max_value=3)] * 2)))
def test_enumerated_shapes_match_validated_construction(bound, z):
    for n in shapes_below(bound):
        assert n == Shape(*n.coords) and type(n) is Shape
    for m, n in witness_pairs(bound, z):
        assert m == Shape(*m.coords) and n == Shape(*n.coords)
        assert type(m) is type(n) is Shape and m.diff(n) == z


def test_witness_pairs_take_int_translations():
    with pytest.raises(ShapeError):
        list(witness_pairs(Shape(1, 1), (0.5, 0)))
