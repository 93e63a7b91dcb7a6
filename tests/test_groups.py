"""Rough groups, subgroups, normality, homomorphisms, kernels, products."""

import pytest

import roughtop.groups as groups
from roughtop import ApproxSpace, Partition, Universe
from roughtop.errors import CapExceededError, InputError
from roughtop.groups import (
    CayleyTable,
    enumerate_rough_subgroups,
    is_rough_normal,
    product_rough_group,
    rough_kernel,
    set_product,
    upper_group_witness,
    verify_rough_group,
    verify_rough_homomorphism,
    verify_rough_subgroup,
)
from roughtop.topology import FiniteMap

from conftest import identity_map, space_of, sympy_s4_oracle


def test_cayley_table_validation():
    u = Universe(("a", "b"))
    with pytest.raises(InputError, match=r"has 1 rows, expected 2"):
        CayleyTable(u, ((0, 1),))
    with pytest.raises(InputError, match=r"has 1 entries, expected 2"):
        CayleyTable(u, ((0, 1), (1,)))
    with pytest.raises(InputError, match=r"not a universe element"):
        CayleyTable(u, ((0, 1), (1, 2)))
    tab = CayleyTable.from_names(u, [["a", "b"], ["b", "a"]])
    assert tab.rows[0][1] == 1
    assert tab.rows[1][1] == 0


def test_s4_table_matches_sympy(ws_s4):
    """Every product in the 24x24 fixture table agrees with a permutation oracle."""
    u = ws_s4.universes["UB"]
    tab = ws_s4.tables["TB"][1]
    perm = sympy_s4_oracle(u.elements)
    for x in range(24):
        for y in range(24):
            got = perm[u.elements[tab.rows[x][y]]]
            assert got == perm[u.elements[y]] * perm[u.elements[x]]


def test_set_product_and_translates(ws_zmod3):
    u = ws_zmod3.universes["UA"]
    tab = ws_zmod3.tables["TA"][1]
    g = ws_zmod3.subsets["GA"][1]
    assert set_product(tab, g, g) == 0b111
    assert set_product(tab, 1 << u.index("1"), g) == u.mask_of(["2", "0"])
    assert set_product(tab, g, 1 << u.index("2")) == u.mask_of(["0", "1"])


def test_upper_group_witness(ws_zmod3, fixa_cert):
    assert upper_group_witness(fixa_cert) is None  # upper(G) is all of Z_3
    tab = ws_zmod3.tables["TA"][1]
    u = tab.universe
    space = ApproxSpace(u, Partition.from_names(u, [["0", "1"], ["2"]]), tab)
    _, cert = verify_rough_group(space, u.mask_of(["0"]))
    assert upper_group_witness(cert) == "1 * 1 = 2 leaves the set"


def test_fixa_rough_group(ws_zmod3, fixa_cert):
    rep, cert = verify_rough_group(
        space_of(ws_zmod3, "TA", "PA"), ws_zmod3.subsets["GA"][1])
    assert cert == fixa_cert
    u = cert.space.universe
    assert rep.verdict == "pass"
    assert rep.clause("identity-exists").witness == (
        "designated identity 0; candidates {0}")
    assert rep.stats == (("identity-candidates", 1), ("upper-size", 3))
    assert u.elements[cert.designated_e] == "0"
    assert cert.inverse.apply(u.index("1")) == u.index("2")
    assert cert.inverse.apply(u.index("2")) == u.index("1")
    assert cert.inverse.domain == cert.inverse.codomain == cert.g_mask


def test_fixb_rough_group(ws_s4, fixb_cert):
    rep, cert = verify_rough_group(
        space_of(ws_s4, "TB", "PB"), ws_s4.subsets["GB"][1])
    assert cert == fixb_cert
    u = cert.space.universe
    assert rep.verdict == "pass"
    assert u.elements[cert.designated_e] == "1"
    assert rep.stats == (("identity-candidates", 1), ("upper-size", 15))
    assert cert.upper.bit_count() == 15
    assert u.elements[cert.inverse.apply(u.index("(123)"))] == "(132)"
    assert u.elements[cert.inverse.apply(u.index("(12)"))] == "(12)"


def test_products_escape_upper(ws_s4):
    rep, cert = verify_rough_group(
        space_of(ws_s4, "TB", "PB"), ws_s4.subsets["GPB"][1])
    assert rep.verdict == "fail"
    assert cert is None
    assert rep.clause("products-in-upper").witness == (
        "(12) * (13)(24) = (1324) escapes the upper approximation")
    assert rep.clause("associativity-on-upper").verdict == "pass"
    assert rep.clause("identity-exists").verdict == "pass"
    assert rep.clause("inverses-exist").verdict == "pass"
    assert rep.stats == (("identity-candidates", 1), ("upper-size", 10))


def test_rough_group_input_errors(ws_zmod3):
    with pytest.raises(InputError, match=r"G is empty"):
        verify_rough_group(space_of(ws_zmod3, "TA", "PA"), 0)
    no_op = ApproxSpace(
        ws_zmod3.universes["UA"], ws_zmod3.partitions["PA"][1])
    with pytest.raises(InputError, match=r"no operation table"):
        verify_rough_group(no_op, ws_zmod3.subsets["GA"][1])


def test_per_element_identities_info():
    """Left-projection table: every column acts as a right identity.

    Each member of G finds an identity of its own but no single element
    works for all of G, so the common-identity clause fails with an
    informational clause explaining how close the data came.
    """
    u = Universe(("0", "1"))
    tab = CayleyTable.from_names(u, [["0", "1"], ["0", "1"]])
    space = ApproxSpace(u, Partition(u, (u.all_mask,)), tab)
    rep, cert = verify_rough_group(space, 0b11)
    assert rep.verdict == "fail"
    assert cert is None
    assert rep.clause("products-in-upper").verdict == "pass"
    assert rep.clause("identity-exists").witness == (
        "no element of the upper approximation is a two-sided identity "
        "for all of G")
    assert rep.clause("per-element-identities").verdict == "info"
    assert rep.clause("per-element-identities").witness == (
        "each member of G has some identity of its own, but no single "
        "element serves all of G")
    assert rep.clause("inverses-exist").verdict == "not-applicable"
    assert rep.clause("inverses-exist").witness == "skipped: no identity"


def test_subgroup_whole_group_passes(fixa_cert, ws_zmod3):
    cert = fixa_cert
    rep = verify_rough_subgroup(cert, ws_zmod3.subsets["GA"][1])
    assert rep.verdict == "pass"
    assert rep.stats == (("upper-size", 3),)


def test_subgroup_singleton_fails(fixa_cert, ws_zmod3):
    cert = fixa_cert
    rep = verify_rough_subgroup(cert, ws_zmod3.subsets["HA"][1])
    assert rep.verdict == "fail"
    assert rep.clause("products-in-upper").witness == (
        "1 * 1 = 2 escapes the upper approximation of H")
    assert rep.clause("inverses-in-H").witness == (
        "1 has no inverse inside H with respect to identity 0")


def test_subgroup_three_cycles_fail(fixb_cert, ws_s4):
    """The two 3-cycles do not form a rough subgroup: their product is the
    identity, which lies outside the upper approximation of the pair."""
    cert = fixb_cert
    rep = verify_rough_subgroup(cert, ws_s4.subsets["HB"][1])
    assert rep.verdict == "fail"
    assert rep.clause("products-in-upper").witness == (
        "(123) * (132) = 1 escapes the upper approximation of H")
    assert rep.clause("inverses-in-H").verdict == "pass"
    assert rep.stats == (("upper-size", 8),)


def test_subgroup_input_errors(fixa_cert):
    cert = fixa_cert
    with pytest.raises(InputError, match=r"H is empty"):
        verify_rough_subgroup(cert, 0)
    with pytest.raises(InputError, match=r"H contains \{0\}, outside G"):
        verify_rough_subgroup(cert, 0b111)


def test_normal_whole_group_in_fixa(fixa_cert, ws_zmod3):
    cert = fixa_cert
    rep = is_rough_normal(cert, ws_zmod3.subsets["GA"][1])
    assert rep.verdict == "pass"
    assert [c.name for c in rep.clauses] == [
        "premise-rough-subgroup", "cosets-match"]


def test_normal_premise_failure(fixb_cert, ws_s4):
    cert = fixb_cert
    rep = is_rough_normal(cert, ws_s4.subsets["HB"][1])
    assert rep.verdict == "not-applicable"
    assert rep.clause("premise-rough-subgroup").witness == (
        "(123) * (132) = 1 escapes the upper approximation of H")


def test_normal_coset_mismatch(fixb_cert, ws_s4):
    cert = fixb_cert
    rep = is_rough_normal(cert, ws_s4.subsets["A12"][1])
    assert rep.verdict == "fail"
    assert rep.clause("cosets-match").witness == (
        "x = (123): x*N = {(13)} but N*x = {(23)}")


def test_normal_whole_group_in_fixb_fails(fixb_cert, ws_s4):
    """N = G is a rough subgroup here, yet translation by a 3-cycle tells
    the two cosets apart, so normality genuinely fails on this data."""
    cert = fixb_cert
    rep = is_rough_normal(cert, ws_s4.subsets["GB"][1])
    assert rep.verdict == "fail"
    assert rep.clause("premise-rough-subgroup").verdict == "pass"
    assert rep.clause("cosets-match").witness == (
        "x = (123): x*N = {1,(13),(132)} but N*x = {1,(23),(132)}")


def test_enumerate_subgroups_fixa(fixa_cert):
    cert = fixa_cert
    u = cert.space.universe
    subs = enumerate_rough_subgroups(cert)
    assert [u.set_str(m) for m in subs] == ["{1,2}"]


def test_enumerate_subgroups_fixb(fixb_cert, ws_s4):
    cert = fixb_cert
    u = cert.space.universe
    subs = enumerate_rough_subgroups(cert)
    assert [u.set_str(m) for m in subs] == ["{(12)}", "{(12),(123),(132)}"]
    assert ws_s4.subsets["HB"][1] not in subs


def test_enumerate_subgroups_cap(fixb_cert):
    cert = fixb_cert
    with pytest.raises(CapExceededError, match=r"at most 2 elements, got 3"):
        enumerate_rough_subgroups(cert, cap=2)


def test_hom_constant_map(fixa_cert, fixb_cert, ws_hom):
    src = fixa_cert
    tgt = fixb_cert
    rep, hom = verify_rough_homomorphism(src, tgt, ws_hom.maps["Phi"][2])
    assert rep.verdict == "pass"
    assert rep.clause("classification").witness == "homomorphism-only"
    assert rep.stats == (("constrained-pairs", 9), ("unconstrained-pairs", 0))
    kernel, krep = rough_kernel(hom)
    assert src.space.universe.set_str(kernel) == "{1,2}"
    assert krep.verdict == "pass"
    assert krep.clause("kernel-subgroup").verdict == "pass"
    assert krep.clause("kernel-normal").verdict == "pass"
    assert krep.stats == (("kernel-size", 2),)


def test_hom_compatibility_failure(fixa_cert, fixb_cert, ws_hom):
    src = fixa_cert
    tgt = fixb_cert
    rep, hom = verify_rough_homomorphism(src, tgt, ws_hom.maps["Phi2"][2])
    assert rep.verdict == "fail"
    assert hom is None
    assert rep.clause("compatibility").witness == (
        "map(1 * 2) = 1 but map(1) * map(2) = (12)")
    assert rep.clause("kernel-subgroup") is None


def test_hom_embedding_is_mono(fixa_cert, fixb_cert, ws_hom):
    src = fixa_cert
    tgt = fixb_cert
    rep, hom = verify_rough_homomorphism(src, tgt, ws_hom.maps["emb"][2])
    assert rep.verdict == "pass"
    assert rep.clause("classification").witness == "monomorphism"


def test_hom_identity_is_iso_with_empty_kernel(fixa_cert):
    cert = fixa_cert
    u = cert.space.universe
    ident = identity_map(u, cert.upper)
    rep, hom = verify_rough_homomorphism(cert, cert, ident)
    assert rep.verdict == "pass"
    assert rep.clause("classification").witness == "isomorphism"
    kernel, krep = rough_kernel(hom)
    assert kernel == 0
    assert krep.verdict == "not-applicable"
    assert krep.clause("kernel-nonempty").witness == (
        "empty kernel: no member of G maps to the target identity")
    assert krep.stats == (("kernel-size", 0),)


def test_hom_negation_is_automorphism(fixa_cert, ws_zmod3):
    cert = fixa_cert
    rep, hom = verify_rough_homomorphism(cert, cert, ws_zmod3.maps["neg"][2])
    assert rep.verdict == "pass"
    assert rep.clause("classification").witness == "isomorphism"


def test_hom_strict_mode(fixb_cert):
    """Identity on a source whose upper approximation is not product-closed:
    fine normally, rejected when the upper-closed clause is requested."""
    cert = fixb_cert
    ident = identity_map(cert.space.universe, cert.upper)
    loose, hom = verify_rough_homomorphism(cert, cert, ident)
    assert loose.verdict == "pass" and hom is not None
    assert loose.clause("classification").witness == "isomorphism"
    assert loose.stats == (("constrained-pairs", 147), ("unconstrained-pairs", 78))
    strict, shom = verify_rough_homomorphism(cert, cert, ident, strict=True)
    assert strict.verdict == "fail"
    assert shom is None
    assert strict.clause("upper-closed").witness == (
        "(12) * (34) = (12)(34) leaves the source upper approximation")
    assert strict.clause("compatibility").verdict == "pass"


def test_kernel_need_not_be_normal(fixa_cert, fixb_cert):
    """Constant map onto the target identity: its kernel is all of G, and
    the source data itself refutes kernel normality, so the classical
    kernel theorem does not carry over to every rough group."""
    src = fixb_cert
    tgt = fixa_cert
    uB = src.space.universe
    uA = tgt.space.universe
    const = FiniteMap(
        uB, uA, src.upper, tgt.upper,
        tuple((i, uA.index("0")) for i in range(24) if (src.upper >> i) & 1))
    rep, hom = verify_rough_homomorphism(src, tgt, const)
    assert rep.verdict == "pass"
    assert rep.clause("classification").witness == "homomorphism-only"
    kernel, krep = rough_kernel(hom)
    assert uB.set_str(kernel) == "{(12),(123),(132)}"
    assert krep.verdict == "fail"
    assert krep.clause("kernel-subgroup").verdict == "pass"
    assert krep.clause("kernel-normal").witness == (
        "x = (123): x*N = {1,(13),(132)} but N*x = {1,(23),(132)}")


def test_rough_kernel_verifies_the_kernel_once(fixa_cert, fixb_cert, ws_hom, monkeypatch):
    calls = []
    sub = groups.verify_rough_subgroup
    monkeypatch.setattr(groups, "verify_rough_subgroup", lambda *a: calls.append(a) or sub(*a))
    _, hom = verify_rough_homomorphism(fixa_cert, fixb_cert, ws_hom.maps["Phi"][2])
    kernel, krep = rough_kernel(hom)
    assert krep.clause("kernel-normal").verdict == "pass"
    assert calls == [(fixa_cert, kernel)]


def test_hom_domain_mismatch(fixa_cert, fixb_cert):
    src = fixa_cert
    tgt = fixb_cert
    u = src.space.universe
    half = FiniteMap(
        u, tgt.space.universe, u.mask_of(["0"]), tgt.upper,
        ((u.index("0"), 0),))
    with pytest.raises(InputError, match=r"domain"):
        verify_rough_homomorphism(src, tgt, half)


def test_product_rough_group(fixa_cert):
    cert = fixa_cert
    prod = product_rough_group(cert, cert)
    u = prod.space.universe
    assert len(prod.space.partition.blocks) == 4
    assert u.elements[prod.designated_e] == "(0,0)"
    assert prod.g_mask.bit_count() == 4
    assert prod.upper == u.all_mask
    rows = prod.space.op.rows
    assert u.elements[rows[u.index("(2,2)")][u.index("(2,2)")]] == "(1,1)"
    assert u.elements[prod.inverse.apply(u.index("(2,1)"))] == "(1,2)"


def test_product_rough_group_cap(fixb_cert):
    cert = fixb_cert
    with pytest.raises(CapExceededError, match=r"576 elements, exceeding the cap of 64"):
        product_rough_group(cert, cert)
