import enum
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_to_json
from latmink import (
    GroupPresentation,
    check_boundary_equality_range,
    check_equality_range,
    classify_simplex,
    cube,
    decompose,
    gl2z_swap_shear_generators,
    search_primitive_triangulation,
    serialize,
    sigma,
    unimodular_criteria,
    validate_triangulation,
)
from latmink.geometry import LatticePolytope, PointSet, ResourceLimitError
from latmink.groups import ElementSet, ball_boundary, word_ball
from latmink.triangulation import LatticeSimplex, Triangulation
from latmink.verify import ClaimResult


def oracle_text(value) -> str:
    """The report text by the two-stage form `serialize.dumps` replaces: the
    plain JSON data first, then the standard library's pure-Python indent
    encoder."""
    return json.dumps(oracle_to_json(value), sort_keys=True, indent=2)


class TestStrictJson:
    def test_floats_rejected(self):
        with pytest.raises(ValueError, match="exact integers"):
            serialize.loads_strict('{"dim": 2, "vertices": [[0.5, 1]]}')

    @pytest.mark.parametrize(
        "literal, quoted",
        [("0.5", "'0.5'"), ("1." + "0" * 18, "'1." + "0" * 18 + "'"), ("1." + "0" * 19, "'1." + "0" * 18 + "'...")],
    )
    def test_float_literal_quoted_by_its_first_20_characters(self, literal, quoted):
        with pytest.raises(ValueError) as raised:
            serialize.loads_strict(f"[{literal}]")
        assert str(raised.value) == f"floating point literal {quoted}: coordinates must be exact integers"

    def test_special_constants_rejected(self):
        with pytest.raises(ValueError):
            serialize.loads_strict('{"x": NaN}')

    def test_plain_integers_pass(self):
        doc = serialize.loads_strict('{"dim": 1, "vertices": [[-3], [4]]}')
        assert doc["vertices"] == [[-3], [4]]

    @pytest.mark.parametrize("text", ["\ufeff{}", "", "{", '{"a": 1} x', "[1, 2", '"\\x"', "01"])
    def test_errors_are_those_of_json_loads(self, text):
        # one decoder serves every call; a leading byte order mark and every
        # malformed document keep json.loads's message
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(json.JSONDecodeError) as raised:
            serialize.loads_strict(text)
        assert str(raised.value) == str(expected.value)

    def test_no_decoder_is_built_per_call(self, monkeypatch):
        built = []
        monkeypatch.setattr(json.JSONDecoder, "__init__", lambda self, *a, **k: built.append(k))
        assert serialize.loads_strict('{"dim": 1, "vertices": [[0], [2]]}') == {"dim": 1, "vertices": [[0], [2]]}
        with pytest.raises(ValueError, match="exact integers"):
            serialize.loads_strict("[1.5]")
        assert built == []


class TestPolytopeFormat:
    def test_round_trip(self):
        poly = LatticePolytope([(0, 0), (2, 0), (0, 2)])
        doc = serialize.polytope_to_dict(poly)
        assert doc == {"dim": 2, "vertices": [[0, 0], [0, 2], [2, 0]]}
        assert serialize.parse_polytope(doc) == poly

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            serialize.parse_polytope({"dim": 3, "vertices": [[0, 0]]})

    def test_bool_coordinates_rejected(self):
        with pytest.raises(ValueError):
            serialize.parse_polytope({"dim": 1, "vertices": [[True]]})

    def test_missing_vertices_rejected(self):
        with pytest.raises(ValueError):
            serialize.parse_polytope({"dim": 2})

    def test_dim_optional(self):
        poly = serialize.parse_polytope({"vertices": [[0], [1]]})
        assert poly.dim == 1


class TestTriangulationFormat:
    def test_round_trip(self):
        poly = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        tri = Triangulation(
            poly,
            (
                LatticeSimplex([(0, 0), (1, 0), (1, 1)]),
                LatticeSimplex([(0, 0), (0, 1), (1, 1)]),
            ),
        )
        doc = json.loads(serialize.dumps(tri))
        parsed = serialize.parse_triangulation(doc)
        assert parsed.polytope == poly
        assert parsed.simplices == tri.simplices

    def test_degenerate_simplex_rejected(self):
        doc = {
            "polytope": {"dim": 2, "vertices": [[0, 0], [2, 2]]},
            "simplices": [[[0, 0], [1, 1], [2, 2]]],
        }
        with pytest.raises(ValueError):
            serialize.parse_triangulation(doc)

    @given(
        st.integers(2, 3).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=d + 1, max_size=d + 4)
        ),
        st.sampled_from(
            ["same", "no dim", "null dim", "reversed", "duplicate", "non-vertex", "wrong dim", "str dim",
             "bool dim", "bool coordinate", "other"]
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_polytope_reuse_matches_a_fresh_parse(self, pts, variant):
        # the loaded polytope stands in for parse_polytope only where that would rebuild
        # it: the outcome is the same polytope, or the same ValueError, as a fresh parse,
        # and it is reused exactly when the document's text lists its canonical vertices
        poly = LatticePolytope(pts)
        vertices = [list(v) for v in poly.vertices]
        extra = [list(p) for p in poly.integer_points(1) if p not in poly.vertices]
        listed = {
            "reversed": vertices[::-1],
            "duplicate": vertices + [vertices[-1]],
            "non-vertex": vertices + extra[:1],
            "bool coordinate": [[c or False for c in v] for v in vertices],
            "other": vertices[:-1],
        }.get(variant, vertices)
        dim = {"wrong dim": poly.dim + 1, "str dim": str(poly.dim), "bool dim": True, "null dim": None}.get(variant, poly.dim)
        polytope = {"vertices": listed} if variant == "no dim" else {"dim": dim, "vertices": listed}
        unit = [[0] * poly.dim] + [[int(i == j) for j in range(poly.dim)] for i in range(poly.dim)]
        doc = {"polytope": polytope, "simplices": [unit]}

        def outcome(*args):
            try:
                tri = serialize.parse_triangulation(doc, *args)
            except ValueError as exc:
                return str(exc), False
            return (tri.polytope, tri.simplices), tri.polytope is poly

        (fresh, _), (reused, same_object) = outcome(), outcome(poly)
        assert reused == fresh
        canonical = json.dumps({"dim": poly.dim, "vertices": vertices})
        assert same_object == (json.dumps({"dim": poly.dim, **polytope}) == canonical)


class TestGroupFormat:
    def test_zd_round_trip(self):
        doc = {"kind": "zd", "dim": 2, "generators": [[0, 0], [1, 0], [-1, 0]]}
        group, warnings = serialize.parse_group(doc)
        assert warnings == []
        assert group.kind == "zd" and group.dim == 2
        assert serialize.group_to_dict(group)["generators"] == [[-1, 0], [0, 0], [1, 0]]

    def test_identity_auto_inserted_with_warning(self):
        doc = {"kind": "zd", "dim": 1, "generators": [[1], [-1]]}
        group, warnings = serialize.parse_group(doc)
        assert len(warnings) == 1
        assert (0,) in group.generators

    def test_gl2z_parse(self):
        doc = {"kind": "gl2z", "generators": [[[0, 1], [1, 0]]]}
        group, warnings = serialize.parse_group(doc)
        assert len(warnings) == 1  # identity inserted
        assert ((0, 1), (1, 0)) in group.generators
        assert serialize.group_to_dict(group) == {"kind": "gl2z", "generators": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]}

    def test_gl2z_bad_determinant(self):
        doc = {"kind": "gl2z", "generators": [[[2, 0], [0, 1]]]}
        with pytest.raises(ValueError, match="determinant"):
            serialize.parse_group(doc)

    def test_polytope_document_accepted(self):
        doc = {"dim": 1, "vertices": [[-1], [1]]}
        group, warnings = serialize.parse_group(doc)
        assert warnings == []
        assert group.kind == "zd"
        assert set(group.generators) == {(-1,), (0,), (1,)}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            serialize.parse_group({"kind": "free", "generators": [[1]]})

    def test_huge_dimension_rejected_in_bounded_memory(self):
        # the generators' lengths are checked before the identity is built
        doc = {"kind": "zd", "dim": 5_000_000, "generators": [[0], [1]]}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dimension mismatch"):
                serialize.parse_group(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestMatrixFormat:
    def test_bare_and_wrapped(self):
        assert serialize.parse_matrix([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
        assert serialize.parse_matrix({"matrix": [[2]]}) == [[2]]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            serialize.parse_matrix([[1, 0, 0], [0, 1, 0]])


# JSON-like values for the parsers: scalars, nested lists and dicts over the
# parsers' keys, plus documents with the required keys whose values are often
# well-formed points. Coordinates stay small, so a polytope document read as
# a group has few integer points; "dim" reaches +-1000.
_KEYS = ("dim", "vertices", "polytope", "simplices", "kind", "generators", "matrix")
_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["zd", "gl2z", "x"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=16,
)
_points = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=4)
)
_dims = {"dim": st.integers(-1000, 1000) | _values}
_polytopes = st.fixed_dictionaries({"vertices": _points | _values}, optional=_dims)
_documents = st.one_of(
    _values,
    _polytopes,
    st.fixed_dictionaries(
        {"polytope": _polytopes, "simplices": st.lists(_points | _values, max_size=3) | _values}
    ),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["zd", "gl2z"]) | _values, "generators": _points | _values},
        optional=_dims,
    ),
    st.fixed_dictionaries({"matrix": _points | _values}),
)


@settings(max_examples=300, deadline=None)
@given(doc=_documents)
def test_parsers_return_or_raise_value_error(doc):
    for parse in (serialize.parse_polytope, serialize.parse_triangulation, serialize.parse_matrix):
        try:
            parse(doc)
        except ValueError:
            pass
    try:
        serialize.parse_group(doc)
    except (ValueError, ResourceLimitError):  # the box cap of a polytope read as a group
        pass


class TestReportRule:
    def test_record_keys_are_its_fields(self):
        square = cube(2)
        search = search_primitive_triangulation(square)
        gl2z = GroupPresentation("gl2z", gl2z_swap_shear_generators())
        reports = [
            check_equality_range(LatticePolytope(sigma(3, 2).vertices), range(2, 3))[0],
            check_boundary_equality_range(gl2z, range(1, 2))[0],
            decompose(square, search.triangulation, 2, (1, 2)),
            classify_simplex(sigma(3, 3)),
            unimodular_criteria([[1, 0], [0, 2]]),
            validate_triangulation(search.triangulation),
            search,
            ClaimResult("claim", "description", True, "detail"),
        ]
        for report in reports:
            text = serialize.dumps(report)
            assert text == oracle_text(report)
            assert list(json.loads(text)) == sorted(type(report)._fields)

    def test_leaves(self):
        matrix = ((1, 0), (0, 1))
        for value, data in [
            ((Fraction(1, 2), Fraction(4, 2), None, True, "x"), ["1/2", "2", None, True, "x"]),
            (LatticeSimplex([(0, 0), (1, 0), (0, 1)]), [[0, 0], [0, 1], [1, 0]]),
            ([matrix], [[[1, 0], [0, 1]]]),
            ([(1, 2), matrix, (True, None)], [[1, 2], [[1, 0], [0, 1]], [True, None]]),
        ]:
            text = serialize.dumps(value)
            assert text == oracle_text(value)
            assert json.loads(text) == data

    @pytest.mark.parametrize("value", [{1, 2}, frozenset({(0, 1)}), 0.5, [(1, 0.5)], [((1, 0), (0, 0.5))]])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            serialize.dumps(value)


# Report-shaped values: dicts keyed by text with quotes, backslashes, control
# and non-ASCII characters; rectangular int arrays of depth 1-3 (points, Z^d
# elements and GL(2, Z) matrices), each level a list or a tuple, some with a
# bool or None in place of one leaf; ragged and empty lists and tuples; ints
# of many machine words.
_ints = st.integers() | st.integers(-(2**200), 2**200)
_text = st.text(st.characters(max_codepoint=0x1F600) | st.sampled_from('"\\\x00\x1f\x7f\n\té☃\U0001f600'), max_size=6)
_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3)


@st.composite
def _int_arrays(draw, leaves=_ints):
    def array(dims):
        if not dims:
            return draw(leaves)
        items = [array(dims[1:]) for _ in range(dims[0])]
        return tuple(items) if draw(st.booleans()) else items

    return array(draw(_shapes))


_mixed_leaves = st.one_of(_ints, _ints, _ints, st.booleans(), st.none())
_report_data = st.recursive(
    st.one_of(_ints, st.booleans(), st.none(), _text, _int_arrays(), _int_arrays(_mixed_leaves)),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12,
)


class TestReportText:
    @settings(max_examples=400, deadline=None)
    @given(data=_report_data)
    def test_matches_the_stdlib_oracle(self, data):
        assert serialize.dumps(data) == oracle_text(data)

    @pytest.mark.parametrize(
        "data",
        [
            [], {}, [[], []], [[1]], [[[1]]], [[[-1, 2], [3, 4]]], [1, True], [[1, 2], [3, True]],
            [[0, None], [0, 1]], [[1, 2], [3]], [[1, [2]], [3, 4]], {"a": {}, "b": [[]]}, -(2**130),
            {'"\\\x00é': [False, None, "\n"]}, (1, 2), [[1, 2], (3, 4)], ((), ()), ([1], (2,)),
        ],
        ids=repr,
    )
    def test_pinned_shapes(self, data):
        assert serialize.dumps(data) == oracle_text(data)

    def test_true_stays_true_in_an_int_array(self):
        assert serialize.dumps([[1, True]]) == "[\n  [\n    1,\n    true\n  ]\n]"

    def test_library_reports(self):
        square = cube(2)
        search = search_primitive_triangulation(square)
        gl2z = GroupPresentation("gl2z", gl2z_swap_shear_generators())
        matrix = [[1, 1], [0, 2]]
        for value in [
            square.integer_points(3),
            check_equality_range(LatticePolytope(sigma(3, 2).vertices), range(1, 3)),
            check_boundary_equality_range(gl2z, range(1, 3)),
            decompose(square, search.triangulation, 2, (1, 2)),
            validate_triangulation(search.triangulation),
            search,
            search.triangulation,
            gl2z,
            GroupPresentation.zd(2, [(0, 0), (1, 0), (0, -1)]),
            classify_simplex(sigma(3, 3)),
            {"matrix": matrix, "criteria": unimodular_criteria(matrix)},
            [ClaimResult("claim", "description \"quoted\"", False, "detail")],
            {"volume": LatticePolytope([(0, 0), (1, 0), (0, 1)]).volume()},
        ]:
            report = {"command": "c", "inputs": {}, "result": value}
            assert serialize.dumps(report) == oracle_text(report)

    class Int(int):
        pass

    class Flag(enum.IntEnum):
        ON = 1

    @pytest.mark.parametrize(
        "data",
        [0.5, [1, 2.0], {1, 2}, frozenset({1}), Int(3), [Int(3)], [Flag.ON], {1: 2}, {"a": {None: 1}}],
        ids=repr,
    )
    def test_other_types_rejected(self, data):
        with pytest.raises(TypeError):
            serialize.dumps(data)


class TestShapedSets:
    """Sets whose builder knows the shape of every element (PointSets, and the
    ElementSets BallCodec.elements builds) are written by one template after a
    flatten, with one check that every leaf is an int; any other set, and a set
    with a non-int leaf, takes the generic walk."""

    GL2Z_IDENTITY_ONLY = GroupPresentation.gl2z([((1, 0), (0, 1))])

    @staticmethod
    def walks(monkeypatch) -> list:
        """The lengths of the tuples _int_array walks from now on: a set's items
        are a tuple, a list of reports is a list."""
        calls, real = [], serialize._int_array

        def counted(value):
            if type(value) is tuple:
                calls.append(len(value))
            return real(value)

        monkeypatch.setattr(serialize, "_int_array", counted)
        return calls

    @pytest.mark.parametrize(
        "build",
        [
            lambda: word_ball(GroupPresentation.zd(1, [(0,), (1,), (-2,)]), 5),
            lambda: word_ball(GroupPresentation.zd(5, [(0,) * 5, (1, 0, 0, 0, 0), (0, 0, 0, -1, 2)]), 3),
            lambda: word_ball(GroupPresentation.gl2z(gl2z_swap_shear_generators()), 4),
            lambda: ball_boundary(GroupPresentation.gl2z(gl2z_swap_shear_generators()), 3),
            lambda: ball_boundary(TestShapedSets.GL2Z_IDENTITY_ONLY, 3),
            lambda: check_boundary_equality_range(TestShapedSets.GL2Z_IDENTITY_ONLY, range(1, 3)),
            lambda: check_boundary_equality_range(GroupPresentation.gl2z(gl2z_swap_shear_generators()), range(1, 4)),
        ],
        ids=["z1-ball", "z5-ball", "gl2z-ball", "gl2z-boundary", "identity-boundary", "identity-reports", "gl2z-reports"],
    )
    def test_codec_sets_match_the_oracle_without_the_walk(self, monkeypatch, build):
        value = build()
        calls = self.walks(monkeypatch)
        report = {"command": "c", "inputs": {}, "result": value}
        assert serialize.dumps(report) == oracle_text(report)
        assert calls == []

    def test_codec_shapes(self):
        assert word_ball(GroupPresentation.zd(5, [(0,) * 5, (1, 0, 0, 0, 0)]), 2).shape == (5,)
        assert word_ball(GroupPresentation.gl2z(gl2z_swap_shear_generators()), 2).shape == (2, 2)
        assert ball_boundary(self.GL2Z_IDENTITY_ONLY, 2).elements == ()

    @pytest.mark.parametrize("dim", range(1, 6))
    def test_point_sets_match_the_oracle_without_the_walk(self, monkeypatch, dim):
        calls = self.walks(monkeypatch)
        for value in (cube(dim, -1, 1).integer_points(2), PointSet([], dim), PointSet([(7,) * dim], dim)):
            report = {"result": {"points": value, "count": len(value)}}
            assert serialize.dumps(report) == oracle_text(report)
        assert calls == []

    def test_caller_built_element_sets_take_the_generic_walk(self, monkeypatch):
        calls = self.walks(monkeypatch)
        for value in (ElementSet([(1, 2), (0, 5)]), ElementSet([((1, 0), (0, 1))]), ElementSet([])):
            assert value.shape is None
            assert serialize.dumps(value) == oracle_text(value)
        assert calls == [2, 1]  # an empty set is "[]" before any walk

    def test_a_difference_keeps_the_shape(self):
        group = GroupPresentation.gl2z(gl2z_swap_shear_generators())
        ball = word_ball(group, 3)
        assert ball.difference(word_ball(group, 1)).shape == (2, 2)
        assert ElementSet(ball.elements).difference(ball).shape is None

    @pytest.mark.parametrize(
        "value",
        [
            PointSet._canonical(((1, 2), (3, 0.5)), 2),
            ElementSet._canonical(((1, 2), (3, 0.5)), (2,)),
            ElementSet._canonical((((1, 0), (0, 1)), ((1, 0.5), (0, 1))), (2, 2)),
            ElementSet([(1, 2), (3, 0.5)]),
        ],
        ids=["point-set", "shaped-zd", "shaped-gl2z", "caller-built"],
    )
    def test_a_non_int_leaf_raises(self, value):
        with pytest.raises(TypeError):
            serialize.dumps({"result": value})

    def test_a_bool_leaf_is_written_as_the_generic_walk_writes_it(self):
        value = PointSet._canonical(((0, 1), (1, True)), 2)
        assert serialize.dumps(value) == oracle_text(value) == "[\n  [\n    0,\n    1\n  ],\n  [\n    1,\n    true\n  ]\n]"
