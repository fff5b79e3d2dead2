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
`polytope_to_dict` and `group_to_dict` write them, and `to_json` writes a
triangulation (the dataclass of its polytope and simplices) in its form.
The parsers check shapes (keys, the lists they read, "dim", square matrices);
each point and value is checked by the constructor it reaches (as_point,
as_points, as_gl2z), in the library's own words.

Reports: `to_json` turns a value made of library objects into plain JSON
data. A dataclass becomes the dict of its fields in field order; a tuple,
list, `PointSet` or `ElementSet` becomes a list; a `Fraction` becomes "p/q",
or "p" when integral; a `LatticePolytope`, `LatticeSimplex` (its vertex
list) or `GroupPresentation` becomes its file form. Any other type raises
TypeError, so floats and unordered sets never reach a report.

Report text: `dumps` writes that data as the text `json.dumps(data,
sort_keys=True, indent=2)` writes, byte for byte, for dicts with str keys,
lists, int, str, bool and None; any other type (a float, a tuple, an int
subclass, a non-str key) raises TypeError. With an indent the standard
library encodes in pure Python, element by element. `dumps` instead writes
each rectangular int array (points, Z^d elements, GL(2, Z) matrices) with
one %-template filled at C speed. The standard-library form is its test
oracle.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

from .geometry import LatticePolytope, PointSet
from .groups import ElementSet, GroupPresentation, group_elements, zd_presentation_from_polytope
from .triangulation import LatticeSimplex, Triangulation

_SEQUENCES = (tuple, list, ElementSet)
_SCALARS = {int, str, bool, type(None)}


def _reject_float(text: str):
    raise ValueError(f"floating point literal {text!r}: coordinates must be exact integers")


def loads_strict(text: str) -> Any:
    return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)


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


def parse_triangulation(doc: Any) -> Triangulation:
    if not isinstance(doc, dict) or "polytope" not in doc or "simplices" not in doc:
        raise ValueError('triangulation document needs "polytope" and "simplices"')
    poly = parse_polytope(doc["polytope"])
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
    dim = {} if group.dim is None else {"dim": group.dim}
    return {"kind": group.kind, **dim, "generators": _json(group.generators)}


def to_json(value) -> Any:
    """The JSON data of a report value, by the rule in the module docstring."""
    # The recursion calls _json, so that a wrapper around this public name
    # (a tracer, a profiler) sees one call per report.
    return _json(value)


def _json(value):
    # Exact type tests, commonest first: an isinstance test on Fraction is slow.
    kind = type(value)
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is PointSet:  # int tuples by construction (as_point)
        return list(map(list, value.points))
    if kind in _SEQUENCES:
        # Leaf rules: a sequence of scalars, of int tuples (points, Z^d
        # elements) or of tuples of int tuples (GL(2, Z) elements) is
        # type-checked a level at a time at C speed and copied without recursion.
        kinds = set(map(type, value))
        if kinds <= _SCALARS:
            return list(value)
        if kinds == {tuple}:
            flat = chain.from_iterable
            inner = set(map(type, flat(value)))
            if inner == {int}:
                return list(map(list, value))
            if inner == {tuple} and set(map(type, flat(flat(value)))) == {int}:
                return [list(map(list, m)) for m in value]
        return [_json(v) for v in value]
    if kind is dict:
        return {key: _json(v) for key, v in value.items()}
    if kind is Fraction:
        return str(value)
    if kind is LatticePolytope:
        return polytope_to_dict(value)
    if kind is LatticeSimplex:
        return [list(v) for v in value.vertices]
    if kind is GroupPresentation:
        return group_to_dict(value)
    if is_dataclass(kind):
        return {f.name: _json(getattr(value, f.name)) for f in fields(value)}
    raise TypeError(f"no JSON form for {kind.__name__}")


_LITERALS = {True: "true", False: "false", None: "null"}


def dumps(data) -> str:
    """The report text of JSON data, by the rule in the module docstring."""
    # The recursion calls _text, so that a wrapper around this public name
    # sees one call per report.
    return _text(data, "\n")


def _text(value, newline: str) -> str:
    # newline is a line break and the indent of value's own line.
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is list:
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
    raise TypeError(f"no report text for {kind.__name__}")


def _int_array(value: list):
    """The dimensions and the leaves, in order, of a non-empty rectangular
    array of plain ints nested in lists; (None, None) for anything else. Each
    level is read with a few passes at C speed."""
    dims, leaves = [len(value)], value
    while True:
        kinds = set(map(type, leaves))
        if kinds == {int}:
            return dims, leaves
        lengths = set(map(len, leaves)) if kinds == {list} else ()
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
