"""Workloads: the cases each one runs, the inputs set-up makes for them,
and the gate that checks every verdict.

A case's ``run`` goes from its parameters to the program's verdict and
is the part that is timed.  Its ``gate`` then checks that verdict,
untimed and untraced; where a verdict carries a witness, the gate
re-verifies the witness through a different code path than the one
that found it.  A case whose gate fails, or that raises, counts as
failed.  Calls go through module attributes (``check.X``, not a name
imported from it) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from orthokit import bounds, build, bundle, check, cli, explore, geom
from orthokit.build import BIG_SETS_TABLE


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    gate: Callable[[object], bool]


# Chains one step longer than their big-sets row: each family must fail.
BIG_SETS_NEGATIVES = ((2, 5, 3, 6), (2, 7, 3, 18), (3, 5, 17, 10), (5, 5, 3, 7))

# Small geometries that get a seeded random point bijection in every
# workload; the fast k=2 decider on them is timed, the naive oracle gives
# the expected verdict during set-up.
RANDOM_GEOMETRIES = (("affine", 2, 5), ("projective", 2, 3),
                     ("affine", 3, 3), ("projective", 2, 4))

ASKEW_PAIRS = ((2, 2), (2, 3), (2, 5), (4, 2), (4, 3), (6, 2))
CHAR_P_PAIRS = ((2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2),
                (3, 1, 2), (3, 1, 3), (3, 2, 2))


# ----------------------------------------------------------------------
# independent witness checks
# ----------------------------------------------------------------------

def _on_line_of(space, tri, line) -> bool:
    """``tri`` is colinear in ``space`` and ``line`` is the line through
    it, found with ``Geometry.line_through`` on the preimages (no triple
    index, no line enumeration)."""
    inv = space.inverse()
    a, b, c = (int(inv[x]) for x in tri)
    std_line = space.geometry.line_through(a, b)
    image = tuple(sorted(int(space.perm[x]) for x in std_line))
    return c in std_line and image == tuple(line)


def triple_witness_holds(family, witness) -> bool:
    tri = tuple(witness["triple"])
    i, j = witness["space_a"], witness["space_b"]
    return (i != j and len(set(tri)) == 3
            and _on_line_of(family[i], tri, witness["line_a"])
            and _on_line_of(family[j], tri, witness["line_b"]))


def _is_flat_of(space, flat, k) -> bool:
    """``flat`` is the image under ``space`` of a k-flat of the standard
    space: q^k (affine) or (q^(k+1)-1)/(q-1) (projective) points of rank
    k+1."""
    g = space.geometry
    q = g.q
    size = q ** k if g.kind == "affine" else (q ** (k + 1) - 1) // (q - 1)
    inv = space.inverse()
    pre = [int(inv[x]) for x in flat]
    return len(set(flat)) == size and g.rank_of(pre) == k + 1


def flat_witness_holds(s, t, witness) -> bool:
    k = s.geometry.dim // 2
    inter = set(witness["flat_a"]) & set(witness["flat_b"])
    return (len(inter) > k + 1 and inter == set(witness["intersection"])
            and _is_flat_of(s, witness["flat_a"], k)
            and _is_flat_of(t, witness["flat_b"], k))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _geometry(kind, dim, q):
    return geom.affine(dim, q) if kind == "affine" else geom.projective(dim, q)


def _random_cases(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for kind, dim, q in RANDOM_GEOMETRIES:
        g = _geometry(kind, dim, q)
        perm = rng.permutation(g.point_count)
        want = bool(check.naive_k_orthogoval_pair(
            check.standard(g), check.from_map(g, perm), 2))

        def run(g=g, perm=perm):
            return check.is_k_orthogoval_pair(
                check.standard(g), check.from_map(g, perm), 2)

        cases.append(Case(f"random {g!r}", run,
                          lambda v, want=want: bool(v) == want))
    return cases


def _big_sets(workdir):
    cases = []
    for q, r, ws, n in BIG_SETS_TABLE:
        for w in ws:
            def run(q=q, r=r, w=w, n=n):
                fam = build.build_phi_family(q, r, w, n)
                return len(fam), check.are_mutually_orthogoval(fam)

            cases.append(Case(f"row q={q} r={r} w={w} n={n}", run,
                              lambda out, n=n: out[0] == n + 1 and out[1].ok))
    for q, r, w, n in BIG_SETS_NEGATIVES:
        def run(q=q, r=r, w=w, n=n):
            fam = build.build_phi_family(q, r, w, n)
            return fam, check.are_mutually_orthogoval(fam)

        cases.append(Case(
            f"negative q={q} r={r} w={w} n={n}", run,
            lambda out: not out[1].ok and triple_witness_holds(out[0], out[1].witness)))
    return cases


def _half_dim(workdir):
    def exhaustive():
        return explore.half_dim_exhaustive(4, 2)

    cases = [Case("half-dim AG(4,2) exhaustive", exhaustive,
                  lambda res: res.exhaustive and res.certificates == [])]
    for q in (3, 4):
        def run(q=q):
            return explore.half_dim_exhaustive(2, q)

        def gate(res, q=q):
            g = geom.affine(2, q)
            s = check.standard(g)
            # in dimension 2 the half-dimension flats are lines, so the
            # naive line-pair oracle decides the same property
            return bool(res.certificates) and all(
                check.is_half_dimension_orthogoval(s, check.from_map(g, c))
                and check.naive_k_orthogoval_pair(s, check.from_map(g, c), 2)
                for c in res.certificates)

        cases.append(Case(f"half-dim AG(2,{q}) positive control", run, gate))
    return cases


def _power_scan(workdir):
    cases = [
        Case("exponent-scan q=5 r=5 w<=10",
             lambda: explore.exponent_scan(5, 5, 10),
             lambda res: res["orthomorphisms"] == [3, 7, 9]),
        Case("power-chain q=3 r=7 w=25",
             lambda: explore.power_chain(3, 7, 25), lambda n: n == 77),
        Case("power-chain q=4 r=7 w=11",
             lambda: explore.power_chain(4, 7, 11), lambda n: n == 3),
    ]
    return cases


def _verify(argv):
    """``orthokit verify`` in-process: exit code and parsed report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", *argv, "--workers", "1"])
    return code, json.loads(buf.getvalue())


def _deciders(workdir):
    cases = []

    def k3():
        s, t, _ = build.build_char_p_pair(3, 2, 3)
        return check.is_k_orthogoval_pair(s, t, 3)

    cases.append(Case("k=3 AG(3,9) char-p pair", k3, lambda v: v.ok))

    def half():
        s, t, _ = build.build_char_p_pair(3, 1, 4)
        return s, t, check.is_half_dimension_orthogoval(s, t)

    cases.append(Case("half-dim AG(4,3) char-p pair", half,
                      lambda out: not out[2].ok
                      and flat_witness_holds(out[0], out[1], out[2].witness)))
    cases.append(Case("phi half-dim probe PG(4,2)",
                      lambda: explore.phi_half_dim_probe([(2, 2)]),
                      lambda rows: [r["half_dimension_orthogoval"] for r in rows]
                      == [False]))
    for k, q in ASKEW_PAIRS:
        def askew(k=k, q=q):
            s, t = build.build_askew_pair(k, q)
            return check.is_askew_pair(s, t)

        cases.append(Case(f"askew PG({k},{q})", askew, lambda v: v.ok))
    for p, n, k in CHAR_P_PAIRS:
        def char_p(p=p, n=n, k=k):
            s, t, _ = build.build_char_p_pair(p, n, k)
            return (check.is_k_orthogoval_pair(s, t, p),
                    check.naive_k_orthogoval_pair(s, t, p))

        cases.append(Case(f"char-p p={p} n={n} k={k} fast+naive", char_p,
                          lambda out: out[0].ok and out[1].ok))

    family = build.build_phi_family(3, 7, 25, 77)
    fam_path = os.path.join(workdir, "pg63-78.json")

    def round_trip():
        bundle.write_bundle(fam_path, family)
        return bundle.read_bundle(fam_path)[0]

    cases.append(Case("bundle write+read PG(6,3) x78", round_trip,
                      lambda back: len(back) == 78 and all(
                          a.name == b.name and np.array_equal(a.perm, b.perm)
                          for a, b in zip(family, back))))

    def bound():
        fam = build.catalog_family("AG3_F3_X8")
        return bounds.bound_report(fam[0].geometry, [fam])

    cases.append(Case("bound report AG3_F3_X8", bound,
                      lambda rep: rep.achieved == 8 and rep.families == [8]
                      and rep.triple_bound == 25
                      and rep.slack == min(rep.triple_bound, rep.johnson_bound) - 8))

    g42 = geom.projective(4, 2)
    ask = os.path.join(workdir, "askew-pg42.json")
    half_path = os.path.join(workdir, "phi-pg42.json")
    k3_path = os.path.join(workdir, "char3-ag29.json")
    bundle.write_bundle(ask, list(build.build_askew_pair(4, 2)))
    bundle.write_bundle(half_path, [check.standard(g42), build.phi_space(g42, -1)])
    bundle.write_bundle(k3_path, list(build.build_char_p_pair(3, 2, 2)[:2]))

    def cli_gate(want_code, want_holds, witness_ok=None):
        def gate(out):
            code, report = out
            if code != want_code or report["verdicts"]["holds"] is not want_holds:
                return False
            return witness_ok is None or witness_ok(report["witnesses"]["witness"])
        return gate

    def half_witness(w):
        s, t = bundle.read_bundle(half_path)[0]
        return flat_witness_holds(s, t, w)

    def k2_witness(w):
        return triple_witness_holds(bundle.read_bundle(k3_path)[0], w)

    for name, argv, gate in (
            ("cli verify askew PG(4,2)", [ask, "--property", "askew"],
             cli_gate(0, True)),
            ("cli verify half-dim PG(4,2)", [half_path, "--property", "half-dim"],
             cli_gate(1, False, half_witness)),
            ("cli verify k=3 AG(2,9)", [k3_path, "--k", "3"], cli_gate(0, True)),
            ("cli verify k=2 AG(2,9)", [k3_path, "--k", "2"],
             cli_gate(1, False, k2_witness))):
        cases.append(Case(name, lambda argv=argv: _verify(argv), gate))
    return cases


# workload -> (case builder, geometries whose fields set-up warms)
WORKLOADS = {
    "big-sets": (_big_sets, [("projective", r - 1, q)
                             for q, r, _, _ in BIG_SETS_TABLE]),
    "half-dim": (_half_dim, [("affine", 4, 2), ("affine", 2, 3), ("affine", 2, 4)]),
    "power-scan": (_power_scan, [("projective", 4, 5), ("projective", 6, 3),
                                 ("projective", 6, 4)]),
    "deciders": (_deciders, [("affine", 3, 9), ("affine", 4, 3), ("affine", 3, 3),
                             ("affine", 2, 9), ("projective", 6, 3)]
                 + [("projective", k, q) for k, q in ASKEW_PAIRS]
                 + [("affine", k, p ** n) for p, n, k in CHAR_P_PAIRS]),
}


# Workloads that are nearly all pure-Python interpretation.  Their case
# times are scaled by the box's speed as a pure-Python loop reads it
# (run.py).  Numpy sorting and merging slows far less than that loop on a
# contended box, so scaling the other workloads would make them less steady.
PYTHON_BOUND = {"half-dim", "deciders"}

# Median length of one unscaled pass on the reference box (2 cores,
# Python 3.11, numpy 2.4).  A run measures seconds // this many passes, at
# least one, so a run of median speed fits in its seconds and the work per
# run never depends on the box's current speed.
PASS_S = {"big-sets": 18.3, "half-dim": 21.5, "power-scan": 18.0, "deciders": 10.8}


def setup(workload: str, seed: int, workdir: str) -> list[Case]:
    """Warm the field cache for every field the workload touches, make
    the seeded inputs, and return the cases in seeded order."""
    builder, geoms = WORKLOADS[workload]
    for kind, dim, q in geoms + list(RANDOM_GEOMETRIES):
        g = _geometry(kind, dim, q)  # creates the base field
        if kind == "projective":
            g.labeling_field
    cases = builder(workdir) + _random_cases(seed)
    random.Random(seed).shuffle(cases)
    return cases
