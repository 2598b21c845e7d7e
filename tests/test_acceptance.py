"""Acceptance suite: one test (and one pass/fail line under pytest -v)
per criterion.  Criteria marked "extended" elsewhere run here only in
their budgeted smoke form."""

import json

import numpy as np
import pytest

from orthokit import bounds, bundle, check, cli, explore, geom
from orthokit.build import (
    BIG_SETS_TABLE,
    build_askew_pair,
    build_char_p_pair,
    build_phi_family,
    build_phi_map,
    build_product_family,
    catalog_entry,
    catalog_family,
    phi_space,
)
from orthokit.errors import BudgetExceeded


def test_criterion_01_char_p_pairs_by_exhaustive_oracle():
    cases = [(2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2),
             (3, 1, 2), (3, 1, 3), (3, 2, 2)]
    for p, n, k in cases:
        s, t, _ = build_char_p_pair(p, n, k)
        assert check.naive_k_orthogoval_pair(s, t, p), (p, n, k)


def test_criterion_02_phi_inverse_pairs():
    for r, q in ((1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (3, 2)):
        g = geom.projective(2 * r, q)
        v = check.is_k_orthogoval_pair(check.standard(g), phi_space(g, -1), 2)
        assert v, (r, q)


def test_criterion_03_big_sets_table():
    expected = {(2, 5): 6, (2, 7): 18, (3, 5): 10, (3, 7): 78,
                (4, 5): 3, (4, 7): 11, (5, 5): 7}
    for q, r, ws, n in BIG_SETS_TABLE:
        assert n + 1 == expected[(q, r)]
        for w in ws:
            fam = build_phi_family(q, r, w, n)
            assert len(fam) == expected[(q, r)], (q, r, w)
            assert check.are_mutually_orthogoval(fam), (q, r, w)


def test_criterion_04_explicit_catalogs():
    for name, size in (("AG3_F3_X8", 8), ("PG3_F3_X2", 2), ("PG3_F2_X7", 7)):
        fam = catalog_family(name)
        assert len(fam) == size, name
        assert check.are_mutually_orthogoval(fam), name
    # the ambiguous labelling modulus resolves to a definite answer
    assert catalog_entry("PG3_F2_X7")["resolved_modulus"] == [1, 1, 0, 0, 1]


def test_criterion_05_askew_pairs():
    for k, q in ((2, 2), (2, 3), (2, 5), (4, 2), (4, 3), (6, 2)):
        s, t = build_askew_pair(k, q)
        assert check.is_askew_pair(s, t), (k, q)


def test_criterion_06_bounds():
    g23 = geom.affine(2, 3)
    assert bounds.triple_bound(g23) == bounds.johnson_bound(g23) == 7
    assert len(catalog_family("AG2_F3_X7")) == 7
    for q in (3, 4, 5, 7, 8, 9):
        for d in range(2, 7):
            for mk in (geom.affine, geom.projective):
                g = mk(d, q)
                assert bounds.johnson_bound(g) <= bounds.triple_bound(g)
    for name, g in (("AG2_F3_X7", geom.affine(2, 3)),
                    ("AG3_F3_X8", geom.affine(3, 3)),
                    ("PG3_F2_X7", geom.projective(3, 2)),
                    ("PG3_F3_X2", geom.projective(3, 3))):
        fam = catalog_family(name)
        assert len(fam) <= min(bounds.triple_bound(g), bounds.johnson_bound(g))


def test_criterion_07_orthomorphism_algebra():
    g = geom.projective(4, 2)
    s = check.standard(g)
    for w in (3, 11, 13, 17):
        perm = build_phi_map(g, w)
        image = check.from_map(g, perm)
        # item 1: orthomorphism <=> image space orthogoval to the standard
        assert bool(check.is_orthomorphism(g, perm)) == \
            bool(check.naive_k_orthogoval_pair(s, image, 2))
        # item 3: closed under inverses
        assert check.is_orthomorphism(g, image.inverse())
    # item 4: if f^i is an orthomorphism for 1 <= i <= n, the n+1 spaces
    # f^i(S), 0 <= i <= n, are mutually orthogoval
    w, n = 3, 5
    big = 2 ** 5 - 1
    for i in range(1, n + 1):
        assert check.is_orthomorphism(g, build_phi_map(g, pow(w, i, big)))
    assert check.are_mutually_orthogoval(build_phi_family(2, 5, w, n))


def test_criterion_08_product_construction():
    fam = catalog_family("AG2_F3_X7")
    prod = build_product_family(fam, fam)
    g = prod[0].geometry
    assert (g.kind, g.dim, g.q) == ("affine", 4, 3)
    assert len(prod) == 7
    assert check.are_mutually_orthogoval(prod)


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(987654321)
    cases = [geom.affine(2, 3), geom.affine(2, 4), geom.affine(2, 5),
             geom.affine(3, 3), geom.affine(4, 2), geom.affine(2, 7),
             geom.affine(3, 4), geom.affine(2, 8), geom.affine(2, 9),
             geom.affine(2, 11), geom.affine(2, 13),
             geom.projective(2, 2), geom.projective(2, 3),
             geom.projective(3, 2), geom.projective(2, 4),
             geom.projective(2, 5), geom.projective(3, 3),
             geom.projective(4, 2), geom.projective(2, 7),
             geom.projective(2, 8), geom.projective(2, 9),
             geom.projective(3, 4), geom.projective(5, 2),
             geom.projective(2, 11), geom.projective(2, 13)]
    assert all(g.point_count <= 200 for g in cases)
    total = 0
    for g in cases:
        s = check.standard(g)
        for _ in range(4):
            t = check.from_map(g, rng.permutation(g.point_count))
            fast = check.is_k_orthogoval_pair(s, t, 2)
            slow = check.naive_k_orthogoval_pair(s, t, 2)
            assert bool(fast) == bool(slow), g
            total += 1
    assert total == 100


def test_criterion_10_half_dim_budgeted_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOKIT_CHECKPOINT_DIR", str(tmp_path))
    with pytest.raises(BudgetExceeded) as exc:
        explore.half_dim_exhaustive(4, 2, budget=10 ** 3)
    res = exc.value.result
    assert res.nodes == 10 ** 3 and not res.exhaustive
    assert res.certificates == []
    # same through the CLI, with exit code 4
    code = cli.main(["search", "half-dim", "--dim", "4", "--q", "2",
                     "--budget", "1000"])
    assert code == 4


def test_criterion_11_reports_identical_across_worker_counts(tmp_path, capsys):
    phi = str(tmp_path / "phi.json")
    chp = str(tmp_path / "chp.json")
    ask = str(tmp_path / "ask.json")
    cat = str(tmp_path / "cat.json")
    cli.main(["construct", "phi-family", "--q", "2", "--r", "5", "--w", "3",
              "--n", "5", "--out", phi])
    cli.main(["construct", "char-p", "--p", "2", "--n", "2", "--k", "3",
              "--out", chp])
    cli.main(["construct", "askew", "--k", "4", "--q", "2", "--out", ask])
    cli.main(["construct", "catalog", "--name", "AG2_F3_X7", "--out", cat])
    capsys.readouterr()
    commands = [
        ["verify", phi],
        ["verify", chp, "--k", "2"],
        ["verify", ask, "--property", "askew"],
        ["verify", cat],
        ["bound", "--kind", "affine", "--dim", "2", "--q", "3", cat],
        ["search", "exponent-scan", "--q", "2", "--r", "5", "--w-max", "17"],
        ["search", "power-chain", "--q", "5", "--r", "5", "--w", "3"],
        ["reproduce", "askew"],
        ["reproduce", "big-sets", "--rows", "2,5,3"],
    ]
    for argv in commands:
        outs = []
        for workers in ("1", "4", "8"):
            code = cli.main(argv + ["--workers", workers])
            outs.append((code, capsys.readouterr().out))
        assert outs[0] == outs[1] == outs[2], argv
        json.loads(outs[0][1])  # reports stay machine-readable
