"""Structure-preserving maps between two topological rough groups.

A topological rough group homomorphism is a rough homomorphism between
the upper approximations that is also continuous for the two given
topologies.  A homeomorphism additionally requires bijectivity with a
continuous, structure-preserving inverse; the identity composites are
checked on the source G (the definition's reading) and on both full
upper approximations (the stronger conventional reading), with each
verdict reported separately.
"""

from __future__ import annotations

from collections import namedtuple

from .groups import verify_rough_homomorphism
from .report import INFO, Clause, VerificationReport, combine, law
from .topology import FiniteMap, is_continuous
from .trg import TRGCert


class TRGHom(namedtuple("TRGHom", "src tgt fmap algebra")):
    """A verified continuous rough homomorphism between certificates."""

    __slots__ = ()


def verify_trg_homomorphism(
    src: TRGCert,
    tgt: TRGCert,
    fmap: FiniteMap,
    strict: bool = False,
) -> tuple[VerificationReport, TRGHom | None]:
    """Both halves of the definition: algebra then continuity."""
    algebra_rep, algebra = verify_rough_homomorphism(
        src.group, tgt.group, fmap, strict=strict
    )
    clauses = [algebra_rep.as_clause("rough-homomorphism")]
    clauses.append(law("continuity", is_continuous(fmap, src.tau, tgt.tau)))
    clauses.append(algebra_rep.clause("classification"))
    report = combine("trg-homomorphism", clauses, stats=algebra_rep.stats)
    if not report.passed:
        return report, None
    return report, TRGHom(src, tgt, fmap, algebra)


def verify_trg_homeomorphism(hom: TRGHom) -> VerificationReport:
    """Bijectivity plus a verified inverse homomorphism.

    The inverse is the set-theoretic one, so the composite-identity
    clauses, on the source G and on both upper approximations, hold by
    construction once bijectivity does: `FiniteMap.inverse` swaps each
    pair of the bijection, and they are stated without a scan.  The
    image of G under the map is reported for information only: the
    definition does not say whether a homeomorphism must carry the
    source G onto the target G.
    """
    fmap = hom.fmap
    tu = hom.tgt.universe
    wit = (None if fmap.is_bijective()
           else "map is not injective" if not fmap.is_injective()
           else "map is not onto the target upper approximation")
    clauses = [law("bijective", wit)]
    if wit is not None:
        return combine("trg-homeomorphism", clauses)
    inverse = fmap.inverse()
    inv_rep, _ = verify_trg_homomorphism(hom.tgt, hom.src, inverse)
    clauses.append(inv_rep.as_clause("inverse-homomorphism"))

    clauses += [law(f"composite-identity-on-{name}", None)
                for name in ("source-G", "source-upper", "target-upper")]
    g_image = fmap.image_mask(hom.src.g_mask)
    clauses.append(Clause(
        "G-image", INFO,
        f"map carries G to {tu.set_str(g_image)}; the target G is "
        f"{tu.set_str(hom.tgt.g_mask)} (agreement is not asserted)",
    ))
    return combine("trg-homeomorphism", clauses)
