"""JSON file formats and report serialization.

File schemas (all coordinates must be exact JSON integers; floats are
rejected outright):

    polytope       {"dim": d, "vertices": [[int, ...], ...]}
    triangulation  {"polytope": {...}, "simplices": [[[int, ...], ...], ...]}
    group          {"kind": "zd", "dim": d, "generators": [[int, ...], ...]}
                   {"kind": "gl2z", "generators": [[[a, b], [c, d]], ...]}

Group files missing the identity get it inserted with a warning. Polytope
files are accepted wherever a zd group is expected, via the presentation
generated by the polytope's integer points.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .geometry import LatticePolytope, PointSet
from .groups import (
    GL2Z_IDENTITY,
    KIND_GL2Z,
    KIND_ZD,
    ElementSet,
    GroupPresentation,
    zd_presentation_from_polytope,
)
from .minkowski import Decomposition, EqualityReport
from .triangulation import (
    LatticeSimplex,
    SearchResult,
    SimplexClass,
    Triangulation,
    TriangulationReport,
    UnimodularCriteria,
)


def _reject_float(text: str):
    raise ValueError(f"floating point literal {text!r}: coordinates must be exact integers")


def loads_strict(text: str) -> Any:
    return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)


def _int_list(values, what: str) -> list[int]:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list")
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} entries must be plain integers, got {v!r}")
    return values


def parse_polytope(doc: Any) -> LatticePolytope:
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ValueError('polytope document needs a "vertices" key')
    dim = doc.get("dim")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise ValueError('"vertices" must be a non-empty list')
    rows = [_int_list(v, "vertex") for v in vertices]
    if dim is not None:
        if type(dim) is not int:
            raise ValueError('"dim" must be an integer')
        if any(len(r) != dim for r in rows):
            raise ValueError('vertex length does not match "dim"')
    return LatticePolytope(rows)


def polytope_to_dict(poly: LatticePolytope) -> dict:
    return {"dim": poly.dim, "vertices": [list(v) for v in poly.vertices]}


def parse_triangulation(doc: Any) -> Triangulation:
    if not isinstance(doc, dict) or "polytope" not in doc or "simplices" not in doc:
        raise ValueError('triangulation document needs "polytope" and "simplices"')
    poly = parse_polytope(doc["polytope"])
    simplices = []
    for entry in doc["simplices"]:
        if not isinstance(entry, list):
            raise ValueError("each simplex must be a list of vertices")
        simplices.append(LatticeSimplex([_int_list(v, "simplex vertex") for v in entry]))
    return Triangulation(poly, tuple(simplices))


def triangulation_to_dict(tri: Triangulation) -> dict:
    return {
        "polytope": polytope_to_dict(tri.polytope),
        "simplices": [[list(v) for v in s.vertices] for s in tri.simplices],
    }


def parse_matrix(doc: Any) -> list[list[int]]:
    """A square integer matrix, either bare [[...], ...] or {"matrix": ...}."""
    if isinstance(doc, dict):
        doc = doc.get("matrix")
    if not isinstance(doc, list) or not doc:
        raise ValueError("expected a non-empty matrix (list of rows)")
    rows = [_int_list(r, "matrix row") for r in doc]
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
    kind = doc["kind"]
    gens = doc["generators"]
    if not isinstance(gens, list) or not gens:
        raise ValueError('"generators" must be a non-empty list')
    dim = doc.get("dim")
    if kind == KIND_ZD:
        if type(dim) is not int or dim < 1:
            raise ValueError('zd group documents need an integer "dim" >= 1')
        parsed = [tuple(_int_list(g, "generator")) for g in gens]
        identity = (0,) * dim
    elif kind == KIND_GL2Z:
        parsed = []
        for g in gens:
            if not isinstance(g, list) or len(g) != 2:
                raise ValueError("gl2z generators must be 2x2 integer matrices")
            parsed.append(tuple(tuple(_int_list(row, "matrix row")) for row in g))
        identity = GL2Z_IDENTITY
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    if identity not in parsed:
        parsed.append(identity)
        warnings.append("identity element was missing from the generators; inserted")
    return GroupPresentation(kind, parsed, dim=dim), warnings


def group_to_dict(group: GroupPresentation) -> dict:
    doc: dict[str, Any] = {"kind": group.kind}
    if group.kind == KIND_ZD:
        doc["dim"] = group.dim
        doc["generators"] = [list(g) for g in group.generators]
    else:
        doc["generators"] = [[list(row) for row in g] for g in group.generators]
    return doc


def element_to_jsonable(element):
    if element and isinstance(element[0], tuple):
        return [list(row) for row in element]
    return list(element)


def element_set_to_list(elements: ElementSet) -> list:
    return [element_to_jsonable(e) for e in elements]


def point_set_to_list(points: PointSet) -> list[list[int]]:
    return [list(p) for p in points]


def fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def equality_report_to_dict(report: EqualityReport) -> dict:
    return {
        "n": report.n,
        "holds": report.holds,
        "witness": list(report.witness) if report.witness is not None else None,
    }


def boundary_report_to_dict(report) -> dict:
    return {
        "n": report.n,
        "holds": report.holds,
        "lhs_minus_rhs": element_set_to_list(report.lhs_minus_rhs),
        "rhs_minus_lhs": element_set_to_list(report.rhs_minus_lhs),
    }


def simplex_class_to_dict(cls: SimplexClass) -> dict:
    return {
        "normalized_volume": cls.normalized_volume,
        "is_elementary": cls.is_elementary,
        "is_primitive": cls.is_primitive,
        "non_vertex_points": point_set_to_list(cls.non_vertex_points),
    }


def criteria_to_dict(criteria: UnimodularCriteria) -> dict:
    return {
        "singular": criteria.singular,
        "lattice_onto": criteria.lattice_onto,
        "inverse_integral": criteria.inverse_integral,
        "det_unit": criteria.det_unit,
        "parallelotope_unit_volume": criteria.parallelotope_unit_volume,
        "parallelotope_elementary": criteria.parallelotope_elementary,
        "corner_simplex_elementary": criteria.corner_simplex_elementary,
    }


def triangulation_report_to_dict(report: TriangulationReport) -> dict:
    return {
        "valid": report.valid,
        "is_elementary": report.is_elementary,
        "is_primitive": report.is_primitive,
        "covered_volume": fraction_to_str(report.covered_volume),
        "problems": list(report.problems),
    }


def search_result_to_dict(result: SearchResult) -> dict:
    return {
        "found": result.triangulation is not None,
        "exhausted": result.exhausted,
        "nodes": result.nodes,
        "triangulation": (
            triangulation_to_dict(result.triangulation)
            if result.triangulation is not None
            else None
        ),
    }


def decomposition_to_dict(dec: Decomposition) -> dict:
    return {
        "target": list(dec.target),
        "summands": [list(s) for s in dec.summands],
    }
