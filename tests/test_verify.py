"""The verify-paper claim registry and the size of a run."""

from pathlib import Path

import pytest
from conftest import per_point_equality_reports

import latmink
from latmink import LatticePolytope, cli, verify
from latmink.triangulation import sigma

CLAIM_IDS = [
    "sigma-simplex-interior-points",
    "reeve-simplex-elementary",
    "sigma-3-2-sum-misses-e3",
    "sigma-3-2-equality-breaks-at-2",
    "sigma-5-2-delayed-failure",
    "symmetric-counterexample",
    "planar-equality",
    "volumes",
    "unimodular-criteria",
    "primitive-triangulation-pipeline",
    "sigma-3-2-no-primitive-triangulation",
    "cross-polytope-orthant-fan",
    "zd-boundary-equality",
    "gl2z-products",
    "gl2z-boundary-violation",
    "inclusion-chains",
    "word-ball-equals-minkowski",
    "sigma-small-point-sets",
    "facet-counts",
]


def test_claim_ids_in_order():
    assert [claim_id for claim_id, _, _ in verify.CLAIMS] == CLAIM_IDS


def test_readme_names_every_claim():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Reproduction suite\n", 1)[1].split("\n## ", 1)[0]
    assert [claim_id for claim_id, _, _ in verify.CLAIMS if f"`{claim_id}`" not in section] == []


def test_readme_overview_names_every_public_name():
    # each row of the "Library overview" table is a module's public names and
    # a one-line purpose: every latmink.__all__ name appears, and no row grows long
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library overview\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in latmink.__all__ if f"`{name}`" not in section] == []
    rows = [line for line in section.splitlines() if line.startswith("| `latmink.")]
    assert len(rows) == 7 and max(map(len, rows)) < 500


def test_claim_registers_and_returns_the_function(monkeypatch):
    monkeypatch.setattr(verify, "CLAIMS", [])

    def check(seed, **_):
        return True, "fine"

    assert verify.claim("an-id", "a description")(check) is check
    assert verify.CLAIMS == [("an-id", "a description", check)]
    assert verify.run_all(seed=3) == [verify.ClaimResult("an-id", "a description", True, "fine")]


def test_quick_and_full_sample_counts():
    for quick, polygons, matrices in ((True, 25, 60), (False, 200, 500)):
        rows = {r.claim: r for r in verify.run_all(seed=0, quick=quick)}
        assert [claim_id for claim_id in rows] == CLAIM_IDS
        assert all(r.ok for r in rows.values())
        assert rows["planar-equality"].detail.startswith(f"{polygons} seeded polygons ")
        assert rows["unimodular-criteria"].detail.startswith(f"{matrices} seeded matrices ")


def test_cli_passes_seed_and_quick(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(verify, "run_all", lambda **kwargs: calls.append(kwargs) or [])
    assert cli.main(["verify-paper", "--quick", "--seed", "5"]) == 0
    assert cli.main(["verify-paper"]) == 0
    assert calls == [{"seed": 5, "quick": True}, {"seed": 0, "quick": False}]


def test_planar_equality_computes_every_n(monkeypatch):
    # check_equality_range would answer n = 2..5 of a polygon from n = 1 by the
    # theorem; the claim reads the reports of every n off _equality_reports,
    # and they match the per-point oracle
    def stopped(*args, **kwargs):
        raise AssertionError("the planar claim must not read check_equality_range")

    read = []
    real = verify._equality_reports

    def recorded(poly, ns):
        reports = list(real(poly, ns))
        assert reports == per_point_equality_reports(poly, ns)
        read.extend(r.n for r in reports)
        return reports

    monkeypatch.setattr(verify, "check_equality_range", stopped)
    monkeypatch.setattr(verify, "_equality_reports", recorded)
    ok, detail = verify._claim_polygon_equality(0, quick=True)
    assert ok and detail == "25 seeded polygons satisfy equality for n <= 5"
    assert read == [1, 2, 3, 4, 5] * 25


def test_planar_equality_reports_a_failing_n_with_its_witness(monkeypatch):
    # sigma(3, 2) in place of the first polygon: it holds at n = 1 and fails at 2
    poly = LatticePolytope(sigma(3, 2).vertices)
    monkeypatch.setattr(verify, "random_lattice_polygon", lambda rng: poly)
    ok, detail = verify._claim_polygon_equality(0, quick=True)
    assert not ok
    assert detail == f"polygon #0 {list(poly.vertices)} fails at n=2, witness (0, 0, 1)"


def test_planar_equality_raises_on_a_sum_outside_the_dilation(monkeypatch):
    # nQ less its last run (which ends at n times Q's lex-max vertex, a sum) at
    # n = 3: the guard of every computed n reports the escaped sum
    real = LatticePolytope.line_runs

    def dropped(self, n, cap=None):
        runs = real(self, n, cap)
        return runs[:-1] if n == 3 else runs

    monkeypatch.setattr(LatticePolytope, "line_runs", dropped)
    with pytest.raises(RuntimeError, match="sums escaped the dilation"):
        verify._claim_polygon_equality(0, quick=True)
