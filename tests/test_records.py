"""Report records against their oracle, the frozen dataclass of their fields
(`conftest.frozen_dataclass`): the two agree on construction, repr, equality,
hash, vars and immutability on drawn field values."""

import copy
import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frozen_dataclass
from latmink import cube, sigma
from latmink.groups import BoundaryReport
from latmink.minkowski import Decomposition, EqualityReport
from latmink.records import Record
from latmink.triangulation import (
    SearchResult,
    SimplexClass,
    Triangulation,
    TriangulationReport,
    UnimodularCriteria,
)
from latmink.verify import ClaimResult

RECORDS = [
    BoundaryReport,
    EqualityReport,
    Decomposition,
    SimplexClass,
    UnimodularCriteria,
    Triangulation,
    TriangulationReport,
    SearchResult,
    ClaimResult,
]

# no floats: a report holds none, and NaN compares unequal to itself
leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))
values = st.one_of(leaves, st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.lists(leaves, max_size=2))


@st.composite
def field_values(draw, record: type) -> tuple:
    """Values for each field of record that pass its __post_init__."""
    if record is EqualityReport:
        holds = draw(st.booleans())
        return draw(values), holds, draw(values.filter(lambda w: w is not None) if not holds else values)
    if record is Decomposition:
        summands = tuple(draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=3)))
        return tuple(sum(c) for c in zip(*summands)), summands
    if record is Triangulation:
        dim = draw(st.integers(1, 3))
        simplices = draw(st.lists(st.sampled_from([sigma(dim, m) for m in (1, 2, 3)]), min_size=1, max_size=3))
        return cube(dim), tuple(simplices)
    return tuple(draw(values) for _ in record._fields)


def outcome(fn):
    """fn()'s value, or the type and message of what it raised."""
    try:
        return "value", fn()
    except Exception as exc:
        return "raised", type(exc), str(exc)


def attribute_error(fn) -> str:
    """The message of the AttributeError fn() raises."""
    with pytest.raises(AttributeError) as info:
        fn()
    return str(info.value)


@functools.cache
def twin(record: type) -> type:
    """Another record class with the same fields."""
    return type("Twin", (Record,), {"__annotations__": dict.fromkeys(record._fields, "object")})


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_agrees_with_the_frozen_dataclass(record, data):
    oracle = frozen_dataclass(record)
    args = data.draw(field_values(record))
    other = data.draw(field_values(record))
    kwargs = dict(zip(record._fields, args))
    r, o = record(*args), oracle(*args)
    assert record(**kwargs) == r and oracle(**kwargs) == o
    assert repr(r) == repr(o) == repr(record(**kwargs))
    assert list(vars(r).items()) == list(vars(o).items())
    assert outcome(lambda: hash(r)) == outcome(lambda: hash(o))
    assert (r == record(*args), r != record(*args)) == (o == oracle(*args), o != oracle(*args)) == (True, False)
    assert (r == record(*other), r != record(*other)) == (o == oracle(*other), o != oracle(*other))
    assert (r == twin(record)(*args), r != twin(record)(*args)) == (False, True)
    assert (o == frozen_dataclass(twin(record))(*args)) is False
    # wrong arguments: a field missing, one too many, an unknown or repeated keyword
    first = record._fields[0]
    for bad_args, bad_kwargs in [
        (args[:-1], {}),
        (args + (None,), {}),
        (args, {"extra": 1}),
        (args, {first: args[0]}),
        ((), dict(list(kwargs.items())[1:])),
    ]:
        assert outcome(lambda: record(*bad_args, **bad_kwargs))[:2] == ("raised", TypeError)
        assert outcome(lambda: oracle(*bad_args, **bad_kwargs))[:2] == ("raised", TypeError)
    for name in (first, record._fields[-1], "extra"):
        assert attribute_error(lambda: setattr(r, name, 0)) == attribute_error(lambda: setattr(o, name, 0))
        assert attribute_error(lambda: delattr(r, name)) == attribute_error(lambda: delattr(o, name))
    assert list(vars(r).items()) == list(vars(o).items())


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_copy_and_pickle(record, data):
    r = record(*data.draw(field_values(record)))
    for twin_ in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin_) is record and twin_ == r and repr(twin_) == repr(r)
        assert list(vars(twin_)) == list(record._fields)


def test_fields_are_the_annotations_in_order():
    assert UnimodularCriteria._fields[:2] == ("singular", "lattice_onto")
    assert SearchResult._fields == ("triangulation", "exhausted", "nodes")
    assert Record._fields == ()


class TestPostInit:
    def test_failing_equality_report_needs_a_witness(self):
        with pytest.raises(ValueError, match="^a failing report needs a witness$"):
            EqualityReport(2, False, None)
        assert EqualityReport(n=2, holds=False, witness=(0, 0, 1)).witness == (0, 0, 1)

    def test_decomposition_summands_add_up(self):
        with pytest.raises(ValueError, match="^summands do not add up to the target$"):
            Decomposition((1, 2), ((0, 1), (1, 0)))
        assert Decomposition(target=(1, 1), summands=((0, 1), (1, 0))).target == (1, 1)

    def test_triangulation_needs_a_simplex(self):
        with pytest.raises(ValueError, match="^a triangulation needs at least one simplex$"):
            Triangulation(cube(2), ())
        with pytest.raises(ValueError, match="^simplex dimension does not match the polytope$"):
            Triangulation(cube(3), (sigma(2, 1),))
