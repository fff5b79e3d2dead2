"""The verify-paper claim registry and the size of a run."""

from pathlib import Path

import latmink
from latmink import cli, verify

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
