"""Upper bounds on the size of a mutually orthogoval family.

All arithmetic is exact integer arithmetic so the nested floors are
bit-exact.  The affine formulas have a q-2 denominator; for q = 2 every
pair of affine spaces is trivially orthogoval (lines have 2 points) and
the bound is refused rather than returned as infinity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .check import Space, are_mutually_orthogoval
from .errors import AffineQ2Undefined, GeometryMismatch, UnverifiedCertificate
from .geom import AFFINE, Geometry


def _guard(g: Geometry):
    if g.kind == AFFINE and g.q == 2:
        raise AffineQ2Undefined(
            "affine orthogovality over F_2 is vacuous; bound undefined")


def triple_bound(g: Geometry) -> int:
    """Triple-counting bound: each point triple is colinear in at most
    one space of the family."""
    _guard(g)
    q, d = g.q, g.dim
    if g.kind == AFFINE:
        return (q ** d - 2) // (q - 2)
    return (q ** (d + 1) - 2 * q + 1) // ((q - 1) ** 2)


def johnson_bound(g: Geometry) -> int:
    """Constant-weight-code packing bound with all lines as blocks,
    divided by the per-space line count."""
    _guard(g)
    n, b, lines = g.point_count, g.points_per_line, g.line_count
    inner = (n - 2) // (b - 2)
    mid = ((n - 1) * inner) // (b - 1)
    outer = (n * mid) // b
    return outer // lines


@dataclass
class BoundReport:
    geometry: dict
    triple_bound: int
    johnson_bound: int
    achieved: int
    slack: int
    families: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def bound_report(g: Geometry, certificates: list[list[Space]] = ()) -> BoundReport:
    """Compare verified families against both bounds.

    Every certificate family is re-verified here; an invalid one is a
    hard error, not a silent drop.  So is a family of another kind,
    dimension or q than ``g``; basis and labelling leave bounds alone."""
    tb, jb = triple_bound(g), johnson_bound(g)
    achieved = 1  # the standard space alone
    sizes = []
    for fam in certificates:
        for s in fam:
            h = s.geometry
            if (h.kind, h.dim, h.q) != (g.kind, g.dim, g.q):
                raise GeometryMismatch(
                    f"certificate family lives on {h!r}, not on {g!r}")
        if len(fam) >= 2 and not are_mutually_orthogoval(fam):
            raise UnverifiedCertificate(
                f"certificate family of size {len(fam)} fails verification")
        sizes.append(len(fam))
        achieved = max(achieved, len(fam))
    return BoundReport(
        geometry=g.describe(),
        triple_bound=tb,
        johnson_bound=jb,
        achieved=achieved,
        slack=min(tb, jb) - achieved,
        families=sizes,
    )
