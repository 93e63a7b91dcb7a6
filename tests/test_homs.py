"""Structure-and-topology preserving maps between topological rough groups."""

import pytest

from roughtop.errors import InputError
from roughtop.groups import rough_kernel
from roughtop.homs import verify_trg_homeomorphism, verify_trg_homomorphism
from roughtop.topology import FiniteMap

from conftest import compose, identity_map


def test_constant_map_is_trg_hom(fixa_trg, fixb_trg, ws_hom):
    rep, hom = verify_trg_homomorphism(fixa_trg, fixb_trg, ws_hom.maps["Phi"][2])
    assert rep.verdict == "pass"
    assert [c.name for c in rep.clauses] == [
        "rough-homomorphism", "continuity", "classification"]
    assert rep.clause("classification").witness == "homomorphism-only"
    assert rep.stats == (("constrained-pairs", 9), ("unconstrained-pairs", 0))
    kernel, krep = rough_kernel(hom.algebra)
    u = fixa_trg.group.space.universe
    assert u.set_str(kernel) == "{1,2}"
    assert krep.verdict == "pass"
    assert krep.clause("kernel-normal").verdict == "pass"


def test_constant_map_is_not_homeo(fixa_trg, fixb_trg, ws_hom):
    _, hom = verify_trg_homomorphism(fixa_trg, fixb_trg, ws_hom.maps["Phi"][2])
    rep = verify_trg_homeomorphism(hom)
    assert rep.verdict == "fail"
    assert rep.clause("bijective").witness == "map is not injective"


def test_embedding_is_mono_but_not_onto(fixa_trg, fixb_trg, ws_hom):
    rep, hom = verify_trg_homomorphism(fixa_trg, fixb_trg, ws_hom.maps["emb"][2])
    assert rep.verdict == "pass"
    assert rep.clause("classification").witness == "monomorphism"
    homeo = verify_trg_homeomorphism(hom)
    assert homeo.verdict == "fail"
    assert homeo.clause("bijective").witness == (
        "map is not onto the target upper approximation")


def test_identity_is_trg_isomorphism(fixa_trg):
    u = fixa_trg.group.space.universe
    ident = identity_map(u, fixa_trg.group.upper)
    rep, hom = verify_trg_homomorphism(fixa_trg, fixa_trg, ident)
    assert rep.verdict == "pass"
    assert rep.clause("classification").witness == "isomorphism"
    homeo = verify_trg_homeomorphism(hom)
    assert homeo.verdict == "pass"
    assert [c.name for c in homeo.clauses] == [
        "bijective", "inverse-homomorphism",
        "composite-identity-on-source-G",
        "composite-identity-on-source-upper",
        "composite-identity-on-target-upper",
        "G-image"]
    assert homeo.clause("G-image").verdict == "info"
    assert homeo.clause("G-image").witness == (
        "map carries G to {1,2}; the target G is {1,2} "
        "(agreement is not asserted)")


def test_negation_is_trg_automorphism(fixa_trg, ws_zmod3):
    rep, hom = verify_trg_homomorphism(fixa_trg, fixa_trg, ws_zmod3.maps["neg"][2])
    assert rep.verdict == "pass"
    assert rep.clause("classification").witness == "isomorphism"
    assert verify_trg_homeomorphism(hom).verdict == "pass"


def test_bad_map_fails_both_clauses(fixa_trg, fixb_trg, ws_hom):
    rep, hom = verify_trg_homomorphism(fixa_trg, fixb_trg, ws_hom.maps["Phi2"][2])
    assert rep.verdict == "fail"
    assert hom is None
    assert rep.clause("rough-homomorphism").witness == (
        "map(1 * 2) = 1 but map(1) * map(2) = (12)")
    assert rep.clause("continuity").witness == (
        "open {1,(123),(132)} has preimage {0,2}, which is not open")


def test_composition_of_homs(fixa_trg, fixb_trg, ws_zmod3, ws_hom):
    """Composing the negation automorphism with the embedding stays a
    continuous monomorphism."""
    neg = ws_zmod3.maps["neg"][2]
    emb = ws_hom.maps["emb"][2]
    composite = compose(neg, emb)
    rep, hom = verify_trg_homomorphism(fixa_trg, fixb_trg, composite)
    assert rep.verdict == "pass"
    assert rep.clause("classification").witness == "monomorphism"


def test_hom_rejects_wrong_domain(fixa_trg, fixb_trg):
    uA = fixa_trg.group.space.universe
    uB = fixb_trg.group.space.universe
    partial = FiniteMap(
        uA, uB, uA.mask_of(["0"]), fixb_trg.group.upper, ((uA.index("0"), 0),))
    with pytest.raises(InputError, match=r"domain"):
        verify_trg_homomorphism(fixa_trg, fixb_trg, partial)
