"""Topological rough groups: the two continuity conditions plus the
proposition suite that holds for every verified structure.

A topological rough group is a verified rough group G carrying a
topology tau on its upper approximation such that the product map
(x, y) -> x*y from G x G and the inverse map on G are continuous.  The
product map's codomain is the upper approximation; its continuity is
checked against tau by default, with a strict mode that instead pulls
back only the opens of the subspace topology on G (the two readings
genuinely disagree on some inputs, so every report names the mode).
Both maps are decided by the relations they require
(`topology.first_unmet`, whose witness is the least N(d) over the unmet
pairs), the product map's by monotonicity in each argument, without
building G x G.  Fed one candidate relation at a time, the same
producers give `trg_topologies` the relations each one requires, as
rules to list TRG topologies straight from the preorder generator.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import reduce
from operator import or_

from .approx import DEFAULT_UNIVERSE_CAP, bit_indices, pair_name
from .errors import InputError
from .groups import (
    RoughGroupCert,
    escape_witness,
    inverses_in,
    product_rough_group,
    set_product,
    verify_rough_subgroup,
)
from .report import (
    INFO,
    PASS,
    Clause,
    VerificationReport,
    combine,
    law,
    premise,
)
from .topology import (
    FiniteMap,
    FiniteTopology,
    Topologies,
    base_at,
    closure,
    enumerate_topologies,
    first_unmet,
    is_continuous,
    map_needs,
    product_topology,
    subspace_topology,
    table_needs,
    verify_base,
)

CODOMAIN_MODES = ("upper", "relative")
INVERSE_CONVENTION = Clause(
    "inverse-convention", INFO,
    "inverses taken inside the upper approximation with respect to the "
    "designated identity",
)


class TRGCert(namedtuple("TRGCert", "group tau tau_G")):
    """A rough group certificate with a topology tau on its upper
    approximation, and the subspace topology tau_G on G, under which
    both continuity conditions hold."""

    __slots__ = ()

    @property
    def universe(self):
        return self.group.space.universe

    @property
    def table(self):
        return self.group.table

    @property
    def g_mask(self) -> int:
        return self.group.g_mask

    @property
    def upper(self) -> int:
        return self.group.upper

    @property
    def e(self) -> int:
        return self.group.designated_e


def _product_map_clause(
    group: RoughGroupCert,
    factor: FiniteTopology,
    cod: FiniteTopology,
) -> Clause:
    """Continuity of (x, y) -> x*y out of G x G, where G carries
    `factor`, into `cod`, by monotonicity in each argument
    (`table_needs`); the product space is never built.  A
    failure is named by the first open of `cod` whose preimage is not
    open in the product topology on G x G.
    """
    table = group.table
    below = factor.below_lists
    v = first_unmet(cod, table_needs(table.rows, below, below))
    if v is None:
        return law("product-map-continuity", None)
    u = group.space.universe
    g_elems = tuple(bit_indices(group.g_mask))
    pre = ",".join(pair_name(u.elements[x], u.elements[y])
                   for x in g_elems for y in g_elems if v >> table.rows[x][y] & 1)
    return law("product-map-continuity",
               f"open {u.set_str(v)} pulls back to {{{pre}}}, which is not "
               "open in the product topology on G x G")


def _check_mode(codomain_topology: str) -> None:
    if codomain_topology not in CODOMAIN_MODES:
        raise InputError(
            f"unknown codomain topology mode {codomain_topology!r}; "
            f"expected one of {', '.join(CODOMAIN_MODES)}"
        )


def decide_trg(
    group: RoughGroupCert,
    tau: FiniteTopology,
    codomain_topology: str = "upper",
) -> tuple[VerificationReport, TRGCert | None]:
    """Check the two continuity conditions over a verified rough group.

    Requires tau to live on the upper approximation.  The report
    carries no stats; `verify_trg` adds the open counts.
    """
    _check_mode(codomain_topology)
    u = group.space.universe
    if tau.universe != u:
        raise InputError("topology is defined over a different universe")
    if tau.carrier != group.upper:
        raise InputError(
            f"topology carrier {u.set_str(tau.carrier)} is not the upper "
            f"approximation {u.set_str(group.upper)}"
        )
    tau_G = subspace_topology(tau, group.g_mask)
    clauses = [Clause("codomain-topology", INFO, codomain_topology)]
    cod = tau if codomain_topology == "upper" else tau_G
    clauses.append(_product_map_clause(group, tau_G, cod))
    clauses.append(law("inverse-map-continuity", is_continuous(group.inverse, tau_G, tau_G)))
    report = combine("trg", clauses)
    if not report.passed:
        return report, None
    return report, TRGCert(group, tau, tau_G)


def trg_topologies(group: RoughGroupCert,
                   codomain_topology: str = "upper") -> Topologies:
    """Every topology tau on the upper approximation for which
    `decide_trg` passes, in canonical order, without deciding any one
    of them: the preorder generator drops each preorder that breaks a
    continuity rule as soon as the rule's points are placed.

    The rules come from the producers `decide_trg` reads.  Fed one
    candidate relation a <= x of points of G (a in N(x)) as the only
    below-list, they give the relations c <= d that it requires: a^-1
    <= x^-1 from the inverse map, and a*y <= x*y and y*a <= y*x for
    every y in G from the product map (none when a = x), each the rule
    (a, x, c, d) of `enumerate_topologies`.  A d outside the codomain
    requires nothing; in relative mode no c outside G lies under a d in
    G, so c is None.  Several producers can require the same relation,
    so the rules form a set.  The carrier cap is `enumerate_topologies`'.
    """
    _check_mode(codomain_topology)
    g_mask, rows = group.g_mask, group.table.rows
    cod = g_mask if codomain_topology == "relative" else group.upper
    g_elems = tuple(bit_indices(g_mask))
    rules = set()
    below = dict.fromkeys(g_elems, ())
    for x in g_elems:
        for a in g_elems:
            below[x] = (a,)
            for d, mask in [*table_needs(rows, below, below),
                            *map_needs(group.inverse, below)]:
                if cod >> d & 1:
                    rules.update((a, x, c if cod >> c & 1 else None, d)
                                 for c in bit_indices(mask & ~(1 << d)))
        below[x] = ()
    return enumerate_topologies(group.space.universe, group.upper, rules)


def verify_trg(
    group: RoughGroupCert,
    tau: FiniteTopology,
    codomain_topology: str = "upper",
) -> tuple[VerificationReport, TRGCert | None]:
    """`decide_trg`, with the report's stats counting the opens of tau,
    of tau_G and of the product topology on G x G, which
    `FiniteTopology.count_opens` counts without building it."""
    report, cert = decide_trg(group, tau, codomain_topology)
    tau_G = cert.tau_G if cert else subspace_topology(tau, group.g_mask)
    return combine(
        "trg", report.clauses,
        stats=[("tau-opens", tau.count_opens()),
               ("tau-G-opens", tau_G.count_opens()),
               ("product-opens", tau_G.count_opens(tau_G))],
    ), cert


def inverse_of_set(cert: TRGCert, v_mask: int) -> int:
    """Image of a subset of G under the inverse map."""
    u = cert.universe
    if v_mask < 0 or v_mask & ~cert.g_mask:
        raise InputError(f"V = {u.set_str(v_mask)} is not a subset of G")
    return cert.group.inverse.image_mask(v_mask)


def is_rough_symmetric(cert: TRGCert, v_mask: int) -> bool:
    """V = V^-1 under the inverse map on G."""
    return v_mask == inverse_of_set(cert, v_mask)


def check_translations(cert: TRGCert, a: int) -> VerificationReport:
    """Left and right translation by a member of G are injective and
    continuous from (G, tau_G) into the upper space; the inverse map is
    a homeomorphism of (G, tau_G).

    Injectivity holds in every rough group: a*x = a*y gives x =
    (a^-1*a)*x = a^-1*(a*x) = a^-1*(a*y) = y by associativity on the
    upper approximation, and likewise on the right.  The inverse map is
    its own inverse, so it is a bijection of G and its continuity
    decides continuity both ways."""
    u = cert.universe
    if (cert.g_mask >> a) & 1 == 0:
        raise InputError(f"{u.elements[a]} is not a member of G")
    table = cert.table
    g_elems = tuple(bit_indices(cert.g_mask))
    clauses = []
    for label, pairs in (
        ("left", tuple((x, table.rows[a][x]) for x in g_elems)),
        ("right", tuple((x, table.rows[x][a]) for x in g_elems)),
    ):
        fmap = FiniteMap(u, u, cert.g_mask, cert.upper, pairs)
        clauses.append(law(f"{label}-injective", None))
        clauses.append(law(f"{label}-continuity", is_continuous(fmap, cert.tau_G, cert.tau)))
    clauses.append(law("inverse-homeomorphism",
                       is_continuous(cert.group.inverse, cert.tau_G, cert.tau_G)))
    return combine("translations", clauses)


def check_G_equals_G_inverse(cert: TRGCert) -> VerificationReport:
    """The inverse image of G is G itself: the inverse map sends G into
    G and is its own inverse, so it is onto G."""
    return combine("G-inverse", [law("G-equals-G-inverse", None)])


def check_open_iff_inverse_open(cert: TRGCert) -> VerificationReport:
    """The inverse map carries opens of tau_G to opens and closeds to
    closeds (both subsets of G, complements taken inside G).  The inverse
    map is an involution of G, so V^-1 is V's preimage and (G - V)^-1 =
    G - V^-1: C = G - V has C^-1 closed exactly when V^-1 is open, and
    the continuity of the inverse map decides both (`first_unmet`)."""
    u = cert.universe
    top = cert.tau_G
    v = first_unmet(top, map_needs(cert.group.inverse, top.below_lists))
    open_wit = closed_wit = None
    if v is not None:
        c = cert.g_mask & ~v
        open_wit = (f"V = {u.set_str(v)} is open but V^-1 = "
                    f"{u.set_str(inverse_of_set(cert, v))} is not")
        closed_wit = (f"C = {u.set_str(c)} is closed but C^-1 = "
                      f"{u.set_str(inverse_of_set(cert, c))} is not")
    return combine("open-inverse", [law("open-sets", open_wit),
                                    law("closed-sets", closed_wit)])


def symmetric_square_nbhds(cert: TRGCert, w_mask: int) -> Iterator[int]:
    """The opens V of tau, in canonical order, with the identity in V,
    V = V^-1 and V*V inside W.  V^-1 is the rough inverse: every element
    of the upper approximation that inverts some member of V with
    respect to the designated identity, so members outside G may have
    none.  W must be open and hold the identity; that is checked at
    once, the opens are scanned as they are drawn."""
    u = cert.universe
    if not cert.tau.is_open(w_mask):
        raise InputError(f"W = {u.set_str(w_mask)} is not open in the topology")
    if (w_mask >> cert.e) & 1 == 0:
        raise InputError(
            f"the designated identity {u.elements[cert.e]} is not a member of W"
        )
    inverses = {x: inverses_in(cert.table, x, cert.upper, cert.e)
                for x in bit_indices(cert.upper)}
    return (v for v in cert.tau.opens
            if (v >> cert.e) & 1
            and reduce(or_, map(inverses.get, bit_indices(v)), 0) == v
            and set_product(cert.table, v, v) & ~w_mask == 0)


def find_symmetric_square_nbhd(
    cert: TRGCert, w_mask: int
) -> tuple[int | None, VerificationReport]:
    """The first open V of `symmetric_square_nbhds`, or None."""
    found = next(symmetric_square_nbhds(cert, w_mask), None)
    if found is None:
        clause = law(
            "witness-found",
            "no open V with the identity in V, V = V^-1, and V*V inside W",
        )
    else:
        clause = Clause("witness-found", PASS,
                        f"V = {cert.universe.set_str(found)}")
    return found, combine("symmetric-square", [INVERSE_CONVENTION, clause])


def check_topological_group(cert: TRGCert) -> VerificationReport:
    """When G equals its upper approximation, the structure must be a
    classical topological group; otherwise the check does not apply."""
    u = cert.universe
    wit = None if cert.g_mask == cert.upper else (
        f"G = {u.set_str(cert.g_mask)} differs from its upper "
        f"approximation {u.set_str(cert.upper)}")
    clauses = [premise("premise-G-equals-upper", wit)]
    if wit is not None:
        return combine("topological-group", clauses)
    # with G = upper(G) the rough-group axioms the certificate passed
    # are the group axioms on G, with the same canonically first identity
    clauses.append(law("group-axioms", None))
    clauses.append(_product_map_clause(cert.group, cert.tau, cert.tau))
    clauses.append(law("inversion-continuity",
                       is_continuous(cert.group.inverse, cert.tau_G, cert.tau_G)))
    return combine("topological-group", clauses)


def check_closure_symmetric(cert: TRGCert, a_mask: int) -> VerificationReport:
    """Closure (in tau) of a rough symmetric subset of G stays
    symmetric, provided it stays inside G at all."""
    u = cert.universe
    if a_mask < 0 or a_mask & ~cert.g_mask:
        raise InputError(f"A = {u.set_str(a_mask)} is not a subset of G")
    if not is_rough_symmetric(cert, a_mask):
        raise InputError(
            f"A = {u.set_str(a_mask)} is not rough symmetric: "
            f"A^-1 = {u.set_str(inverse_of_set(cert, a_mask))}"
        )
    cl = closure(cert.tau, a_mask)
    if cl & ~cert.g_mask:
        return combine("closure-symmetric", [premise(
            "closure-inside-G", f"closure escapes G: cl(A) = {u.set_str(cl)}")])
    clauses = [Clause("closure-inside-G", PASS, f"cl(A) = {u.set_str(cl)}")]
    inv = inverse_of_set(cert, cl)
    wit = None
    if inv != cl:
        wit = f"cl(A) = {u.set_str(cl)} but cl(A)^-1 = {u.set_str(inv)}"
    clauses.append(law("closure-symmetric", wit))
    return combine("closure-symmetric", clauses)


def check_closure_subgroup(cert: TRGCert, h_mask: int) -> VerificationReport:
    """Closure (in tau) of a rough subgroup is again a rough subgroup,
    provided it stays inside G."""
    u = cert.universe
    wit = verify_rough_subgroup(cert.group, h_mask).first_witness()
    clauses = [premise("premise-rough-subgroup", wit)]
    if wit is not None:
        return combine("closure-subgroup", clauses)
    cl = closure(cert.tau, h_mask)
    if cl & ~cert.g_mask:
        clauses.append(premise("closure-inside-G",
                               f"closure escapes G: cl(H) = {u.set_str(cl)}"))
        return combine("closure-subgroup", clauses)
    clauses.append(Clause("closure-inside-G", PASS, f"cl(H) = {u.set_str(cl)}"))
    clauses.append(verify_rough_subgroup(cert.group, cl)
                   .as_clause("closure-is-subgroup"))
    return combine("closure-subgroup", clauses)


def product_trg(a: TRGCert, b: TRGCert, cap: int = DEFAULT_UNIVERSE_CAP) -> TRGCert:
    """Componentwise product; the continuity conditions re-verify by
    construction, so a failure here signals an internal bug."""
    group = product_rough_group(a.group, b.group, cap)
    tau = product_topology(a.tau, b.tau)
    report, cert = decide_trg(group, tau)
    if cert is None:
        raise RuntimeError(
            "internal error: product of verified topological rough groups "
            f"failed re-verification: {report.first_witness()}"
        )
    return cert


def check_base_translation(cert: TRGCert, members) -> VerificationReport:
    """Translating a base at the identity by g yields a base at g in
    the upper space, for every g in G.

    Premises (each reported, any failure makes the check inapplicable):
    the identity lies in G; the upper approximation is closed under the
    operation; G is open in tau; the family is a base of tau_G.  Each
    g*O then holds g, since every O in the base at e holds e and g*e = g.
    """
    u = cert.universe
    table = cert.table
    e = cert.e
    premises = [
        premise("premise-identity-in-G", None if (cert.g_mask >> e) & 1
                else f"designated identity {u.elements[e]} lies outside G"),
        premise("premise-upper-closed",
                escape_witness(table, cert.upper, cert.upper,
                               "leaves the upper approximation")),
        premise("premise-G-open", None if cert.tau.is_open(cert.g_mask)
                else f"G = {u.set_str(cert.g_mask)} is not open in tau"),
        premise("premise-base", verify_base(cert.tau_G, members)),
    ]
    if any(c.verdict != PASS for c in premises):
        return combine("base-translation", premises)

    clauses = list(premises)
    b_e = base_at(members, e)
    for g in bit_indices(cert.g_mask):
        translated = tuple(set_product(table, 1 << g, o) for o in b_e)
        wit = next((f"g*O = {u.set_str(go)} (O = {u.set_str(o)}) is not "
                    "open in tau" for o, go in zip(b_e, translated)
                    if not cert.tau.is_open(go)), None)
        # every open holding g contains N(g), so N(g) is the first one
        # in canonical order that no translated member fits inside
        w = cert.tau.nbhd[g]
        if wit is None and not any(go & ~w == 0 for go in translated):
            wit = (f"open {u.set_str(w)} contains {u.elements[g]} but "
                   "no translated member fits inside it")
        clauses.append(law(f"base-at-{u.elements[g]}", wit))
    return combine("base-translation", clauses,
                   stats=[("base-members-at-identity", len(b_e))])
