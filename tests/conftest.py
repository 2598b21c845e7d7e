"""Shared test helpers."""

import json

import numpy as np
import pytest

from orthokit import bundle, check
from orthokit.errors import MalformedBundle


def _translation_map(g, t_coords):
    """Index permutation of the affine translation x -> x + t_coords."""
    base = g.field
    out = np.empty(g.point_count, dtype=np.int64)
    for i, pt in enumerate(g.points()):
        out[i] = g.point_index(tuple(base.add(a, b) for a, b in zip(pt, t_coords)))
    return out


@pytest.fixture
def translation_map():
    return _translation_map


@pytest.fixture
def assert_additive():
    """Assert that a point map of an affine geometry is additive, read
    from the permutation alone: it fixes the origin and commutes with the
    translations by a generating set of the point group, the vectors
    with one nonzero coordinate p^j (a field code with a single digit)."""
    def check_map(g, perm):
        perm = np.asarray(perm)
        assert int(perm[0]) == 0
        pts = g.points()
        for i in range(g.dim):
            for j in range(g.field.n):
                t = [0] * g.dim
                t[i] = g.field.p ** j
                image = pts[int(perm[g.point_index(t)])]
                assert np.array_equal(
                    check.compose(perm, _translation_map(g, t)),
                    check.compose(_translation_map(g, image), perm))
    return check_map


@pytest.fixture
def multiplier_orbit():
    """The orbit of the unit u mod n under u -> p*u and u -> 1/u, as a
    frozenset: the units a multiplier decider decides together."""
    def orbit(u, n, p):
        powers = [1]
        while powers[-1] * p % n != 1:
            powers.append(powers[-1] * p % n)
        return frozenset(v * f % n for v in (u, pow(u, -1, n)) for f in powers)
    return orbit


def _read_outcome(read):
    """What a bundle read gives: the names, permutations and provenance,
    or the class of its refusal."""
    try:
        spaces, prov = read()
    except Exception as exc:
        return type(exc)
    return [s.name for s in spaces], [s.perm.tolist() for s in spaces], prov


@pytest.fixture
def assert_reads_like_json(tmp_path):
    """Assert that ``read_bundle`` of a file holding ``text`` gives what
    ``load_bundle(json.loads(text))`` gives, and return that."""
    def check_text(text):
        path = tmp_path / "read-like-json.json"
        path.write_bytes(text.encode("utf-8"))

        def oracle():
            try:
                data = json.loads(text)
            except ValueError as exc:
                raise MalformedBundle(str(exc))
            return bundle.load_bundle(data)

        want = _read_outcome(oracle)
        assert _read_outcome(lambda: bundle.read_bundle(str(path))) == want
        return want
    return check_text
