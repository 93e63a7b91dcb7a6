"""Topological rough groups: continuity of the product and inversion maps,
derived symmetry facts, and the openness propositions."""

import pytest

import roughtop.approx
import roughtop.cli
import roughtop.topology
import roughtop.trg
from roughtop import ApproxSpace, Partition, Universe
from roughtop.actions import check_AU_open, check_subgroup_open
from roughtop.errors import CapExceededError, InputError
from roughtop.groups import CayleyTable, RoughGroupCert, verify_rough_group
from roughtop.parser import parse_spec
from roughtop.report import serialize_report
from roughtop.topology import (
    FiniteTopology,
    enumerate_topologies,
    generate_topology,
    subspace_topology,
)
from roughtop.trg import (
    TRGCert,
    check_G_equals_G_inverse,
    check_base_translation,
    check_closure_subgroup,
    check_closure_symmetric,
    check_open_iff_inverse_open,
    check_topological_group,
    check_translations,
    decide_trg,
    find_symmetric_square_nbhd,
    inverse_of_set,
    is_rough_symmetric,
    product_trg,
    trg_topologies,
    verify_trg,
)

from conftest import (
    cert_of,
    identity_map,
    load_fixture,
    mask_to_set,
    oracle_close_family,
    oracle_upper,
    run_cli,
    set_to_mask,
    trg_of,
)


@pytest.fixture(scope="module")
def z4_trg(ws_zmod4):
    return trg_of(ws_zmod4, "T4", "P4", "G4", "tau4")


@pytest.fixture(scope="module")
def z4_indiscrete_trg(ws_zmod4):
    cert = cert_of(ws_zmod4, "T4", "P4", "G4")
    u = ws_zmod4.universes["U4"]
    upper = ws_zmod4.subsets["Gbar4"][1]
    rep, tcert = verify_trg(cert, generate_topology(u, upper, (0, upper)))
    assert rep.verdict == "pass"
    return tcert


def test_fixa_trg_passes(ws_zmod3, fixa_cert):
    rep, tcert = verify_trg(fixa_cert, ws_zmod3.topologies["tauA"][1])
    assert rep.verdict == "pass"
    assert rep.clause("codomain-topology").witness == "upper"
    assert rep.clause("product-map-continuity").verdict == "pass"
    assert rep.clause("inverse-map-continuity").verdict == "pass"
    assert rep.stats == (
        ("product-opens", 16), ("tau-G-opens", 4), ("tau-opens", 5))
    u = ws_zmod3.universes["UA"]
    assert " ".join(u.set_str(m) for m in tcert.tau_G.opens) == "{} {1} {2} {1,2}"


def test_fixb_trg_passes(ws_s4, fixb_cert):
    rep, tcert = verify_trg(fixb_cert, ws_s4.topologies["tauB"][1])
    assert rep.verdict == "pass"
    assert rep.stats == (
        ("product-opens", 16), ("tau-G-opens", 4), ("tau-opens", 5))
    u = ws_s4.universes["UB"]
    assert " ".join(u.set_str(m) for m in tcert.tau_G.opens) == (
        "{} {(12)} {(123),(132)} {(12),(123),(132)}")


def test_discrete_trg_past_the_old_cap_lists_no_opens():
    """Discrete Z_16 was refused by the open-set cap; it now passes, with
    exact counts, and no topology involved ever lists its opens."""
    n = 16
    u = Universe(tuple(str(i) for i in range(n)))
    table = CayleyTable.from_names(
        u, [[str((x + y) % n) for y in range(n)] for x in range(n)])
    _, cert = verify_rough_group(
        ApproxSpace(u, Partition.singletons(u), table), u.all_mask)
    tau = generate_topology(u, u.all_mask, [1 << i for i in range(n)])
    rep, tcert = verify_trg(cert, tau)
    assert rep.verdict == "pass"
    assert rep.stats == (
        ("product-opens", 2 ** 256), ("tau-G-opens", 2 ** 16), ("tau-opens", 2 ** 16))
    assert "opens" not in vars(tau) and "opens" not in vars(tcert.tau_G)


def test_trg_fails_on_asymmetric_topology(ws_zmod3, fixa_cert):
    rep, tcert = verify_trg(fixa_cert, ws_zmod3.topologies["tauA2"][1])
    assert rep.verdict == "fail"
    assert tcert is None
    assert rep.clause("product-map-continuity").witness == (
        "open {0} pulls back to {(1,2),(2,1)}, which is not open in the "
        "product topology on G x G")
    assert rep.clause("inverse-map-continuity").verdict == "pass"


@pytest.mark.parametrize("mode", ["upper", "relative"])
def test_trg_unmet_clauses_name_their_witness(ws_zmod3, fixa_cert, mode):
    """On every topology of Z_3's upper approximation, each clause of
    the TRG report that is not met carries a witness."""
    tops = enumerate_topologies(ws_zmod3.universes["UA"], fixa_cert.upper)
    assert len(tops) == 29
    reports = [verify_trg(fixa_cert, tau, codomain_topology=mode)[0] for tau in tops]
    assert any(not rep.passed for rep in reports)
    unwitnessed = [(i, c.name) for i, rep in enumerate(reports) for c in rep.clauses
                   if c.verdict in ("fail", "not-applicable", "error") and not c.witness]
    assert unwitnessed == []


def test_trg_relative_mode(ws_s4, fixb_cert):
    """The same data that passes with the ambient codomain fails when the
    codomain carries the relative topology on G."""
    rep, tcert = verify_trg(
        fixb_cert, ws_s4.topologies["tauB"][1], codomain_topology="relative")
    assert rep.verdict == "fail"
    assert tcert is None
    assert rep.clause("codomain-topology").witness == "relative"
    assert rep.clause("product-map-continuity").witness == (
        "open {(123),(132)} pulls back to {((123),(123)),((132),(132))}, "
        "which is not open in the product topology on G x G")


def test_trg_input_errors(ws_zmod3, fixa_cert):
    u = ws_zmod3.universes["UA"]
    wrong_carrier = generate_topology(
        u, u.mask_of(["1", "2"]), (0, u.mask_of(["1", "2"])))
    with pytest.raises(InputError, match=r"carrier \{1,2\} is not the upper"):
        verify_trg(fixa_cert, wrong_carrier)
    with pytest.raises(InputError, match=r"expected one of upper, relative"):
        verify_trg(
            fixa_cert, ws_zmod3.topologies["tauA"][1],
            codomain_topology="weird")


def _with_identity_inverse(cert):
    """The certificate's fields, with the identity map of G standing in
    for its inverse map."""
    u = cert.space.universe
    return RoughGroupCert(cert.space, cert.g_mask, cert.upper, cert.designated_e,
                          identity_map(u, cert.g_mask))


def test_decide_trg_reads_the_certificate_inverse(ws_zmod3, fixa_cert):
    """On tau_G = {} {1} {1,2}, swapping 1 and 2 is not continuous; with
    the identity map in its place the inverse-map clause passes."""
    u = ws_zmod3.universes["UA"]
    tau = generate_topology(u, u.all_mask, (u.mask_of(["1"]),))
    rep, _ = decide_trg(fixa_cert, tau)
    assert rep.clause("inverse-map-continuity").witness == (
        "open {1} has preimage {2}, which is not open")
    rep, _ = decide_trg(_with_identity_inverse(fixa_cert), tau)
    assert rep.clause("inverse-map-continuity").verdict == "pass"


def test_trg_topologies_read_the_certificate_inverse(ws_zmod4):
    """`trg_topologies` lists the topologies that `decide_trg` passes
    when both read the inverse map from the certificate: with the
    identity map in place of 1 <-> 3, the rough group G4 gains two."""
    cert = cert_of(ws_zmod4, "T4", "P4", "G4")
    u = cert.space.universe
    listed = []
    for c in (cert, _with_identity_inverse(cert)):
        got = [t.opens for t in trg_topologies(c)]
        assert got == [t.opens for t in enumerate_topologies(u, c.upper)
                       if decide_trg(c, t)[0].passed]
        listed.append(got)
    assert (len(listed[0]), len(listed[1])) == (20, 22)
    assert set(listed[0]) < set(listed[1])


def test_trg_topologies_guard_like_decide_trg(fixa_cert):
    with pytest.raises(InputError, match=r"unknown codomain topology mode 'weird'"):
        trg_topologies(fixa_cert, "weird")


def test_trg_topologies_cap():
    u = Universe(tuple(str(i) for i in range(7)))
    table = CayleyTable.from_names(
        u, [[str((x + y) % 7) for y in range(7)] for x in range(7)])
    cert = verify_rough_group(ApproxSpace(u, Partition.singletons(u), table), 1)[1]
    assert len(trg_topologies(cert)) == 1
    whole = verify_rough_group(
        ApproxSpace(u, Partition(u, (u.all_mask,)), table), 1)[1]
    with pytest.raises(CapExceededError, match=r"at most 6 points, got 7"):
        trg_topologies(whole)


def test_trg_open_counts_on_indiscrete_and_discrete_z64():
    """The indiscrete and discrete topologies of Z_64: the counts on the
    4,096-point product come from `up`, which walks each distinct
    neighbourhood once."""
    n = 64
    u = Universe(tuple(str(i) for i in range(n)))
    table = CayleyTable.from_names(
        u, [[str((x + y) % n) for y in range(n)] for x in range(n)])
    cert = verify_rough_group(
        ApproxSpace(u, Partition.singletons(u), table), u.all_mask)[1]
    rep, _ = verify_trg(cert, generate_topology(u, u.all_mask, ()))
    assert rep.verdict == "pass"
    assert rep.stats == (("product-opens", 2), ("tau-G-opens", 2), ("tau-opens", 2))
    rep, _ = verify_trg(cert, generate_topology(u, u.all_mask,
                                                [1 << i for i in range(n)]))
    assert rep.verdict == "pass"
    assert rep.stats == (("product-opens", 2 ** 4096), ("tau-G-opens", 2 ** 64),
                         ("tau-opens", 2 ** 64))


def test_inverse_set_helpers(fixa_trg):
    u = fixa_trg.group.space.universe
    assert u.set_str(inverse_of_set(fixa_trg, u.mask_of(["1"]))) == "{2}"
    assert is_rough_symmetric(fixa_trg, u.mask_of(["1", "2"]))
    assert not is_rough_symmetric(fixa_trg, u.mask_of(["1"]))
    assert is_rough_symmetric(fixa_trg, 0)


def test_translations(fixa_trg, fixb_trg):
    uA = fixa_trg.group.space.universe
    rep = check_translations(fixa_trg, uA.index("1"))
    assert rep.verdict == "pass"
    assert [c.name for c in rep.clauses] == [
        "left-injective", "left-continuity",
        "right-injective", "right-continuity", "inverse-homeomorphism"]
    uB = fixb_trg.group.space.universe
    assert check_translations(fixb_trg, uB.index("(12)")).verdict == "pass"
    with pytest.raises(InputError, match=r"0 is not a member of G"):
        check_translations(fixa_trg, uA.index("0"))


def test_derived_symmetry_checks(fixa_trg, fixb_trg):
    for tcert in (fixa_trg, fixb_trg):
        assert check_G_equals_G_inverse(tcert).verdict == "pass"
        rep = check_open_iff_inverse_open(tcert)
        assert rep.verdict == "pass"
        assert [c.name for c in rep.clauses] == ["open-sets", "closed-sets"]


def test_open_inverse_names_failing_witnesses():
    """A certificate whose tau_G is not inversion-invariant: the first
    open V with V^-1 not open, and its complement C, are the witnesses."""
    u = Universe(("0", "1", "2"))
    table = CayleyTable.from_names(
        u, [[str((x + y) % 3) for y in range(3)] for x in range(3)])
    _, cert = verify_rough_group(
        ApproxSpace(u, Partition.singletons(u), table), u.all_mask)
    _, tcert = verify_trg(cert, generate_topology(u, u.all_mask, (0, u.all_mask)))
    doctored = TRGCert(tcert.group, tcert.tau,
                       generate_topology(u, u.all_mask, (u.mask_of(["1"]),)))
    rep = check_open_iff_inverse_open(doctored)
    assert serialize_report(rep) == (
        "FAIL open-inverse\n"
        "  open-sets: fail  witness: V = {1} is open but V^-1 = {2} is not\n"
        "  closed-sets: fail  witness: C = {0,2} is closed but C^-1 = {0,1} is not\n")


def test_symmetric_square_whole_upper(fixa_trg):
    u = fixa_trg.group.space.universe
    v, rep = find_symmetric_square_nbhd(fixa_trg, u.all_mask)
    assert u.set_str(v) == "{0,1,2}"
    assert rep.verdict == "pass"
    assert rep.clause("witness-found").witness == "V = {0,1,2}"
    assert rep.clause("inverse-convention").witness == (
        "inverses taken inside the upper approximation with respect to "
        "the designated identity")


def test_symmetric_square_fixb(fixb_trg, ws_s4):
    u = fixb_trg.group.space.universe
    v, rep = find_symmetric_square_nbhd(fixb_trg, ws_s4.subsets["WB"][1])
    assert u.set_str(v) == "{1,(123),(132)}"
    assert rep.verdict == "pass"


def test_symmetric_square_input_errors(fixa_trg):
    u = fixa_trg.group.space.universe
    with pytest.raises(InputError, match=r"identity 0 is not a member of W"):
        find_symmetric_square_nbhd(fixa_trg, u.mask_of(["1", "2"]))
    with pytest.raises(InputError, match=r"W = \{0\} is not open"):
        find_symmetric_square_nbhd(fixa_trg, u.mask_of(["0"]))


def test_symmetric_square_no_witness(fixa_trg):
    """With the open sets thinned out no symmetric square fits inside W."""
    u = fixa_trg.group.space.universe
    thin = generate_topology(u, 0b111, (0, 0b011, 0b111))
    doctored = TRGCert(fixa_trg.group, thin, fixa_trg.tau_G)
    v, rep = find_symmetric_square_nbhd(doctored, 0b011)
    assert v is None
    assert rep.verdict == "fail"
    assert rep.clause("witness-found").witness == (
        "no open V with the identity in V, V = V^-1, and V*V inside W")


def test_topological_group_pass(ws_zmod3):
    u = ws_zmod3.universes["UA"]
    space = ApproxSpace(u, Partition.singletons(u), ws_zmod3.tables["TA"][1])
    _, cert = verify_rough_group(space, 0b111)
    _, tcert = verify_trg(cert, generate_topology(u, 0b111, tuple(range(8))))
    rep = check_topological_group(tcert)
    assert rep.verdict == "pass"
    assert [c.name for c in rep.clauses] == [
        "premise-G-equals-upper", "group-axioms",
        "product-map-continuity", "inversion-continuity"]


def test_topological_group_premise_na(fixa_trg):
    rep = check_topological_group(fixa_trg)
    assert rep.verdict == "not-applicable"
    assert rep.clause("premise-G-equals-upper").witness == (
        "G = {1,2} differs from its upper approximation {0,1,2}")


def test_closure_symmetric(fixa_trg, ws_zmod3, z4_trg, ws_zmod4):
    rep = check_closure_symmetric(fixa_trg, 0)
    assert rep.verdict == "pass"
    assert rep.clause("closure-inside-G").witness == "cl(A) = {}"
    rep2 = check_closure_symmetric(fixa_trg, ws_zmod3.subsets["GA"][1])
    assert rep2.verdict == "not-applicable"
    assert rep2.clause("closure-inside-G").witness == (
        "closure escapes G: cl(A) = {0,1,2}")
    u = fixa_trg.group.space.universe
    with pytest.raises(InputError,
                       match=r"A = \{1\} is not rough symmetric: A\^-1 = \{2\}"):
        check_closure_symmetric(fixa_trg, u.mask_of(["1"]))
    b13 = ws_zmod4.subsets["B1"][1] | ws_zmod4.subsets["B3"][1]
    rep3 = check_closure_symmetric(z4_trg, b13)
    assert rep3.verdict == "pass"
    assert rep3.clause("closure-inside-G").witness == "cl(A) = {1,3}"


def test_closure_symmetric_fixb_large_set(fixb_trg, ws_s4):
    rep = check_closure_symmetric(fixb_trg, ws_s4.subsets["A12"][1])
    assert rep.verdict == "not-applicable"
    witness = rep.clause("closure-inside-G").witness
    assert witness.startswith("closure escapes G: cl(A) = {")


def test_closure_subgroup(fixa_trg, fixb_trg, ws_zmod3, ws_s4, z4_trg, ws_zmod4):
    rep = check_closure_subgroup(fixa_trg, ws_zmod3.subsets["GA"][1])
    assert rep.verdict == "not-applicable"
    assert rep.clause("closure-inside-G").witness == (
        "closure escapes G: cl(H) = {0,1,2}")
    rep2 = check_closure_subgroup(fixb_trg, ws_s4.subsets["HB"][1])
    assert rep2.verdict == "not-applicable"
    assert rep2.clause("premise-rough-subgroup").verdict == "not-applicable"
    rep3 = check_closure_subgroup(z4_trg, ws_zmod4.subsets["G4"][1])
    assert rep3.verdict == "pass"
    assert rep3.clause("closure-inside-G").witness == "cl(H) = {0,1,3}"
    assert rep3.clause("closure-is-subgroup").verdict == "pass"
    rep4 = check_closure_subgroup(z4_trg, ws_zmod4.subsets["B0"][1])
    assert rep4.verdict == "pass"
    assert rep4.clause("closure-inside-G").witness == "cl(H) = {0}"


def test_product_trg(fixa_trg, fixb_trg):
    prod = product_trg(fixa_trg, fixa_trg)
    assert prod.group.space.universe.size == 9
    assert len(prod.tau.opens) == 48
    assert len(prod.tau_G.opens) == 16
    assert verify_trg(prod.group, prod.tau)[0].verdict == "pass"
    with pytest.raises(CapExceededError,
                       match=r"72 elements, exceeding the cap of 64"):
        product_trg(fixa_trg, fixb_trg)
    mixed = product_trg(fixa_trg, fixb_trg, cap=128)
    assert mixed.group.space.universe.size == 72
    assert len(mixed.tau.opens) == 48
    assert len(mixed.tau_G.opens) == 16


def test_base_translation_pass(z4_trg, ws_zmod4):
    g4 = ws_zmod4.subsets["G4"][1]
    singles = [1 << i for i in range(4) if (g4 >> i) & 1]
    rep = check_base_translation(z4_trg, singles)
    assert rep.verdict == "pass"
    assert rep.clause("base-at-0").verdict == "pass"
    assert rep.clause("base-at-1").verdict == "pass"
    assert rep.clause("base-at-3").verdict == "pass"
    assert rep.stats == (("base-members-at-identity", 1),)


def test_base_translation_premise_na(fixa_trg, ws_zmod3):
    u = ws_zmod3.universes["UA"]
    rep = check_base_translation(
        fixa_trg, [u.mask_of(["1"]), u.mask_of(["2"])])
    assert rep.verdict == "not-applicable"
    assert rep.clause("premise-identity-in-G").witness == (
        "designated identity 0 lies outside G")


def test_au_open_product_fails_on_fixa(fixa_trg, ws_zmod3):
    u = ws_zmod3.universes["UA"]
    rep = check_AU_open(fixa_trg, u.mask_of(["1"]), u.mask_of(["1", "2"]))
    assert rep.verdict == "fail"
    assert rep.clause("premise-upper-group").verdict == "pass"
    assert rep.clause("AU-open").witness == "A*U = {0,2} is not open"
    assert rep.clause("UA-open").witness == "U*A = {0,2} is not open"


def test_au_open_trivial_cases(fixa_trg, z4_trg, ws_zmod3, ws_zmod4):
    u = ws_zmod3.universes["UA"]
    assert check_AU_open(fixa_trg, 0, u.mask_of(["1", "2"])).verdict == "pass"
    assert check_AU_open(
        fixa_trg, u.mask_of(["0"]), u.mask_of(["1", "2"])).verdict == "pass"
    rep = check_AU_open(
        z4_trg, ws_zmod4.subsets["B1"][1], ws_zmod4.subsets["G4"][1])
    assert rep.verdict == "pass"


def test_au_open_premise_na(fixb_trg, ws_s4):
    u = ws_s4.universes["UB"]
    rep = check_AU_open(fixb_trg, u.mask_of(["(12)"]), u.mask_of(["(12)"]))
    assert rep.verdict == "not-applicable"
    assert rep.clause("premise-upper-group").witness == (
        "the upper approximation is not a group: (12) * (34) = (12)(34) "
        "leaves the set")


def test_subgroup_open_pass(z4_trg, ws_zmod4):
    g4 = ws_zmod4.subsets["G4"][1]
    rep = check_subgroup_open(z4_trg, g4, g4)
    assert rep.verdict == "pass"
    assert rep.clause("union-is-upper-H").verdict == "pass"
    assert rep.clause("upper-H-open").verdict == "pass"
    assert rep.clause("translates-open-in-upper-H").verdict == "pass"


def test_subgroup_open_identity_outside_w(z4_trg, ws_zmod4):
    g4 = ws_zmod4.subsets["G4"][1]
    w = ws_zmod4.subsets["B1"][1] | ws_zmod4.subsets["B3"][1]
    rep = check_subgroup_open(z4_trg, g4, w)
    assert rep.verdict == "not-applicable"
    assert rep.clause("premise-identity-in-W").witness == (
        "the identity 0 is not in W")


def test_subgroup_open_w_not_open(z4_indiscrete_trg, ws_zmod4):
    g4 = ws_zmod4.subsets["G4"][1]
    rep = check_subgroup_open(z4_indiscrete_trg, g4, ws_zmod4.subsets["B0"][1])
    assert rep.verdict == "not-applicable"
    assert rep.clause("premise-W-open").witness == (
        "W = {0} is not open in tau_G")


def _zn_group(n: int, blocks, g: int) -> RoughGroupCert:
    """The rough group G of Z_n with the given blocks."""
    u = Universe(tuple(str(i) for i in range(n)))
    table = CayleyTable.from_names(
        u, [[str((x + y) % n) for y in range(n)] for x in range(n)])
    return verify_rough_group(ApproxSpace(u, Partition(u, blocks), table), g)[1]


def _zn_trg(n: int, blocks, g: int, nbhd) -> TRGCert:
    """The TRG on Z_n with the given blocks and G, under the topology
    whose N(p) are `nbhd`."""
    cert = _zn_group(n, blocks, g)
    rep, tcert = verify_trg(cert, FiniteTopology(cert.space.universe, cert.upper, nbhd))
    assert tcert is not None, rep.first_witness()
    return tcert


def test_base_translation_names_a_translate_that_is_not_open():
    """Z_4 in one block, G = {0,1,3}, N = {0} {1} {0,2} {3}, and every
    open of tau_G as the base: 1 + {0,1} = {1,2} is not open in tau."""
    tcert = _zn_trg(4, (0b1111,), 0b1011, (0b1, 0b10, 0b101, 0b1000))
    rep = check_base_translation(tcert, tcert.tau_G.opens)
    assert rep.verdict == "fail"
    assert rep.clause("base-at-1").witness == (
        "g*O = {1,2} (O = {0,1}) is not open in tau")
    assert set_to_mask((1 + o) % 4 for o in (0, 1)) == 0b110
    assert 0b110 not in oracle_close_family(0b1111, tcert.tau.nbhd)


def test_subgroup_open_names_an_upper_H_that_is_not_open():
    """Z_4 with blocks {0,2} {1,3}, G = {0,1,3}, N = {0} {1} {1,2} {3}
    and H = W = {0}: upper(H) = {0,2} is not open in tau."""
    tcert = _zn_trg(4, (0b101, 0b1010), 0b1011, (0b1, 0b10, 0b110, 0b1000))
    rep = check_subgroup_open(tcert, 0b1, 0b1)
    assert rep.verdict == "fail"
    assert rep.clause("upper-H-open").witness == "upper(H) = {0,2} is not open in tau"
    upper_h = set_to_mask(oracle_upper([frozenset({0, 2}), frozenset({1, 3})],
                                       frozenset({0})))
    assert upper_h == 0b101
    assert upper_h not in oracle_close_family(0b1111, tcert.tau.nbhd)


def test_subgroup_open_names_a_translate_not_open_in_upper_H():
    """Z_2 in one block, G = {0}, N = {0,1} {1} and H = W = {0}: on
    upper(H) = {0,1}, 0 + W = {0} is not open."""
    tcert = _zn_trg(2, (0b11,), 0b1, (0b11, 0b10))
    rep = check_subgroup_open(tcert, 0b1, 0b1)
    assert rep.verdict == "fail"
    assert rep.clause("translates-open-in-upper-H").witness == (
        "h = 0: h*W = {0} is not open in the subspace on upper(H)")
    assert 0b1 not in {o & 0b11 for o in oracle_close_family(0b11, tcert.tau.nbhd)}


def _z3_hand_built(nbhd) -> TRGCert:
    """Z_3 with singleton blocks and G = Z_3, under the topology whose
    N(p) are `nbhd`, certified by hand: the topology is no TRG."""
    cert = _zn_group(3, (0b001, 0b010, 0b100), 0b111)
    tau = FiniteTopology(cert.space.universe, 0b111, nbhd)
    assert decide_trg(cert, tau)[1] is None
    return TRGCert(cert, tau, subspace_topology(tau, 0b111))


def test_base_translation_names_a_base_at_g_that_no_translate_fits():
    """N = {0,1} {1} {2}, with the opens of tau_G as the base: the base
    at 0 is {0,1} and {0,1,2}, whose translates by 1 are {1,2} and
    {0,1,2}, both open, and neither fits inside the open {1}."""
    tcert = _z3_hand_built((0b011, 0b010, 0b100))
    rep = check_base_translation(tcert, tcert.tau_G.opens)
    assert serialize_report(rep).splitlines()[5:] == [
        "  base-at-0: pass",
        "  base-at-1: fail  witness: open {1} contains 1 but no translated "
        "member fits inside it",
        "  base-at-2: fail  witness: g*O = {0,2} (O = {0,1}) is not open in tau",
        "  stat base-members-at-identity=2"]
    opens = oracle_close_family(0b111, tcert.tau.nbhd)
    at_0 = [o for o in opens if o & 1]
    translates = [set_to_mask((1 + x) % 3 for x in mask_to_set(o)) for o in at_0]
    assert (at_0, translates) == ([0b011, 0b111], [0b110, 0b111])
    assert set(translates) <= set(opens)
    assert min((o for o in opens if o & 0b10), key=int.bit_count) == 0b010
    assert not any(t & ~0b010 == 0 for t in translates)


def test_closure_symmetric_names_a_closure_that_is_not_symmetric():
    """N = {0} {0,1} {2} and A = {0}: the closeds holding 0 are {0,1}
    and {0,1,2}, so cl(A) = {0,1}, whose negation is {0,2}."""
    tcert = _z3_hand_built((0b001, 0b011, 0b100))
    rep = check_closure_symmetric(tcert, 0b001)
    assert serialize_report(rep) == (
        "FAIL closure-symmetric\n"
        "  closure-inside-G: pass  witness: cl(A) = {0,1}\n"
        "  closure-symmetric: fail  witness: cl(A) = {0,1} but cl(A)^-1 = {0,2}\n")
    closeds = [0b111 & ~o for o in oracle_close_family(0b111, tcert.tau.nbhd)]
    cl = min((c for c in closeds if c & 1), key=int.bit_count)
    assert cl == 0b011
    assert set_to_mask(-x % 3 for x in mask_to_set(cl)) == 0b101


@pytest.mark.parametrize("rows, identities, witness", [
    ("e e\n  e e", [], "no identity element in the set"),
    ("e e\n  e a", [1], "e has no inverse in the set"),
])
def test_au_open_names_why_the_upper_approximation_is_not_a_group(
        rows, identities, witness):
    """Universe {e, a} in one block, G = {e}, the indiscrete topology:
    with every product e there is no identity in {e, a}; with a*a = a
    as well, a is one, and e has no inverse under it."""
    doc = (f"universe S: e a\ntable T on S:\n  {rows}\npartition P on S: {{e a}}\n"
           "subset G of S: e\nsubset U of S: e a\ntopology tau on U: {} {e a}\n")
    code, out, err = run_cli("check prop au-open --table T --partition P --group G "
                             "--topology tau --subset G --open U".split(), stdin=doc)
    assert (code, err) == (2, "")
    assert out == ("NOT-APPLICABLE AU-open\n  premise-upper-group: not-applicable  "
                   f"witness: the upper approximation is not a group: {witness}\n")
    t = parse_spec(doc).tables["T"][1].rows
    assert [i for i in (0, 1) if all(t[i][x] == x == t[x][i] for x in (0, 1))] == identities
    assert not any(t[0][y] == i == t[y][0] for i in identities for y in (0, 1))


@pytest.mark.parametrize("fixture, argv", [
    ("s4.rg", "check trg --table TB --partition PB --group GB --topology tauB"),
    ("zmod4_discrete.rg", "check trg --table T4 --partition P4 --group G4 --topology tau4"),
])
def test_check_trg_builds_no_product_space(monkeypatch, fixture, argv):
    """`product-opens` is counted on pairs of tau_G's classes: with the
    document parsed beforehand, `check trg` prints the same report when
    building a universe or a product topology raises."""
    want = run_cli(argv.split(), fixture)
    assert want[0] == 0 and "product-opens" in want[1]
    ws = load_fixture(fixture)
    monkeypatch.setattr(roughtop.cli, "parse_spec", lambda text: ws)

    def refuse(*args, **kwargs):
        raise AssertionError("check trg built a universe or a product")

    for module, name in ((roughtop.topology, "product_topology"),
                         (roughtop.trg, "product_topology"),
                         (roughtop.approx, "product_universe"),
                         (roughtop.topology, "product_universe")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(Universe, "__init__", refuse)
    assert run_cli(argv.split(), fixture) == want
