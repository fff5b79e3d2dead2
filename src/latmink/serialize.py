"""JSON file formats and the one rule for reports.

File schemas (all coordinates must be exact JSON integers; floats are
rejected outright):

    polytope       {"dim": d, "vertices": [[int, ...], ...]}
    triangulation  {"polytope": {...}, "simplices": [[[int, ...], ...], ...]}
    group          {"kind": "zd", "dim": d, "generators": [[int, ...], ...]}
                   {"kind": "gl2z", "generators": [[[a, b], [c, d]], ...]}

Group files missing the identity get it inserted with a warning. Polytope
files are accepted wherever a zd group is expected, via the presentation
generated by the polytope's integer points. `parse_*` read these forms;
`polytope_to_dict` and `group_to_dict` write them as plain data, and `dumps`
writes a triangulation (the record of its polytope and simplices) in its
form. The parsers check shapes (keys, the lists they read, "dim", square
matrices); each point and value is checked by the constructor it reaches
(as_point, as_points, as_gl2z), in the library's own words.

Reports: `dumps` writes a value made of library objects and plain data as
the text `json.dumps(data, sort_keys=True, indent=2)` writes for its JSON
data, byte for byte, in one recursive pass with no intermediate data. The
JSON data of a value: dicts with str keys, lists, tuples, int, str, bool and
None are their own; a `Record` is the dict of its fields; a `PointSet` is
its points, an `ElementSet` its elements and a `LatticeSimplex` its vertex
list; a `LatticePolytope` or `GroupPresentation` is its file form; a
`Fraction` is "p/q", or "p" when integral. Any other type (a float, a set,
an int subclass, a non-str key) raises TypeError, so floats and unordered
sets never reach a report. With an indent the standard library encodes in
pure Python, element by element; `dumps` instead writes each rectangular int
array (points, Z^d elements, GL(2, Z) matrices, in lists or tuples) with one
%-template filled at C speed. A set whose builder fixed its elements as flat
int rows of one shape, every PointSet (its points, of shape (dim,)) and the
ElementSets of BallCodec.elements (ElementSet.rows, of shape (d,) or (2, 2)),
is written from its rows: one `chain.from_iterable` of the rows fills the
template of that shape, with no walk of the levels to find it and no GL(2, Z)
matrix nested. One check that every leaf is an int stays, and a set that
fails it, like every other value, takes the generic walk of its elements,
which raises TypeError on a leaf that is not an int or a bool. The two-stage
form, the JSON data first (`oracle_to_json` in the tests' conftest) and then
the standard library's text, is its test oracle.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

from .geometry import LatticePolytope, PointSet, quoted_prefix
from .groups import ElementSet, GroupPresentation, group_elements, zd_presentation_from_polytope
from .records import Record
from .triangulation import LatticeSimplex, Triangulation

_ARRAYS = {list, tuple}


def _reject_float(text: str):
    raise ValueError(f"floating point literal {quoted_prefix(text)}: coordinates must be exact integers")


_DECODER = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_float)


def loads_strict(text: str) -> Any:
    """The JSON document of text, with floats rejected; a document nested too
    deep for the decoder's recursion is a ValueError, like any bad document.
    One decoder serves every call, with json.loads's check for a leading
    byte order mark, so the messages are json.loads's."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def parse_polytope(doc: Any) -> LatticePolytope:
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ValueError('polytope document needs a "vertices" key')
    dim = doc.get("dim")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise ValueError('"vertices" must be a non-empty list')
    if dim is not None and type(dim) is not int:
        raise ValueError('"dim" must be an integer')
    poly = LatticePolytope(vertices)
    if dim is not None and poly.dim != dim:
        raise ValueError('vertex length does not match "dim"')
    return poly


def polytope_to_dict(poly: LatticePolytope) -> dict:
    return {"dim": poly.dim, "vertices": [list(v) for v in poly.vertices]}


def _lists_vertices_of(doc: Any, poly: LatticePolytope) -> bool:
    """Does the polytope document list exactly poly's canonical vertices, in order and as
    plain ints, with "dim" absent or poly's? Then parse_polytope would return poly again."""
    dim = doc.get("dim", poly.dim) if isinstance(doc, dict) else None
    vertices = doc.get("vertices") if type(dim) is int and dim == poly.dim else None
    return vertices == [list(v) for v in poly.vertices] and all(type(c) is int for v in vertices for c in v)


def parse_triangulation(doc: Any, polytope: LatticePolytope | None = None) -> Triangulation:
    """A triangulation document. Its "polytope" is read by parse_polytope, unless it
    lists exactly the canonical vertices of polytope (when given), which is then reused."""
    if not isinstance(doc, dict) or "polytope" not in doc or "simplices" not in doc:
        raise ValueError('triangulation document needs "polytope" and "simplices"')
    reuse = polytope is not None and _lists_vertices_of(doc["polytope"], polytope)
    poly = polytope if reuse else parse_polytope(doc["polytope"])
    simplices = tuple(LatticeSimplex(_list(s, "simplex")) for s in _list(doc["simplices"], '"simplices"'))
    return Triangulation(poly, simplices)


def parse_matrix(doc: Any) -> list[list]:
    """A square matrix, either bare [[...], ...] or {"matrix": ...}; its
    entries are checked by unimodular_criteria."""
    if isinstance(doc, dict):
        doc = doc.get("matrix")
    if not isinstance(doc, list) or not doc:
        raise ValueError("expected a non-empty matrix (list of rows)")
    rows = [_list(r, "matrix row") for r in doc]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return rows


def parse_group(doc: Any) -> tuple[GroupPresentation, list[str]]:
    """Parse a group document; returns the presentation plus any warnings.

    A polytope document is accepted too and converted to the zd presentation
    generated by its integer points.
    """
    warnings: list[str] = []
    if isinstance(doc, dict) and "vertices" in doc and "generators" not in doc:
        return zd_presentation_from_polytope(parse_polytope(doc)), warnings
    if not isinstance(doc, dict) or "kind" not in doc or "generators" not in doc:
        raise ValueError('group document needs "kind" and "generators"')
    gens = doc["generators"]
    if not isinstance(gens, list) or not gens:
        raise ValueError('"generators" must be a non-empty list')
    kind, dim = doc["kind"], doc.get("dim")
    elements, identity = group_elements(kind, gens, dim)
    if identity not in elements:
        elements.append(identity)
        warnings.append("identity element was missing from the generators; inserted")
    return GroupPresentation(kind, elements, dim=dim), warnings


def group_to_dict(group: GroupPresentation) -> dict:
    if group.dim is None:  # GL(2, Z): each generator a pair of rows
        return {"kind": group.kind, "generators": [list(map(list, g)) for g in group.generators]}
    return {"kind": group.kind, "dim": group.dim, "generators": [list(g) for g in group.generators]}


# The value each library type of a report is written as.
_FORMS = {
    PointSet: lambda s: s.points,
    ElementSet: lambda s: s.elements,
    LatticeSimplex: lambda s: s.vertices,
    LatticePolytope: polytope_to_dict,
    GroupPresentation: group_to_dict,
    Fraction: str,
}
# The flat int rows of a library set's elements and the shape each row nests
# into, as ElementSet.rows and .shape: a PointSet's points are rows of dim
# coordinates by construction.
_ROWS = {PointSet: lambda s: (s.points, (s.dim,)), ElementSet: lambda s: (s.rows, s.shape)}
_LITERALS = {True: "true", False: "false", None: "null"}


def dumps(value) -> str:
    """The report text of a value, by the rule in the module docstring."""
    # The recursion calls _text, so that a wrapper around this public name
    # (a tracer, a profiler) sees one call per report.
    return _text(value, "\n")


def _text(value, newline: str) -> str:
    # newline is a line break and the indent of value's own line. Exact type
    # tests, commonest first.
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        dims, leaves = _int_array(value)
        if dims:
            return _template(dims, newline) % tuple(leaves)
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_text(v, inner) for v in value]) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [encode_basestring_ascii(key) + ": " + _text(v, inner) for key, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is bool or value is None:
        return _LITERALS[value]
    form = _FORMS.get(kind)
    if form is not None:
        rows, shape = _ROWS[kind](value) if kind in _ROWS else (None, None)
        if rows:
            leaves = tuple(chain.from_iterable(rows))
            if set(map(type, leaves)) == {int}:  # the one leaf check: else the generic walk raises or writes a bool
                return _template([len(rows), *shape], newline) % leaves
        return _text(form(value), newline)
    if issubclass(kind, Record):
        return _text(vars(value), newline)
    raise TypeError(f"no report text for {kind.__name__}")


def _int_array(value):
    """The dimensions and the leaves, in order, of a non-empty rectangular
    array of plain ints nested in lists and tuples; (None, None) for anything
    else. Each level is read with a few passes at C speed."""
    dims, leaves = [len(value)], value
    while True:
        kinds = set(map(type, leaves))
        if kinds == {int}:
            return dims, leaves
        lengths = set(map(len, leaves)) if kinds <= _ARRAYS else ()
        if len(lengths) != 1:
            return None, None
        dims.append(lengths.pop())
        leaves = list(chain.from_iterable(leaves))


def _template(dims: list, newline: str) -> str:
    """The text of an int array of these dimensions at this indent, with a
    %d for each leaf."""
    inner = newline + "  "
    item = _template(dims[1:], inner) if len(dims) > 1 else "%d"
    return "[" + inner + ("," + inner).join([item] * dims[0]) + newline + "]"
