"""Shared test helpers."""

import numpy as np
import pytest

from orthokit import check


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
                    check.compose(perm, check.translation_map(g, t)),
                    check.compose(check.translation_map(g, image), perm))
    return check_map
