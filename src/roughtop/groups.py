"""The rough-group layer.

A rough group is a subset G of an approximation-space universe whose
products stay inside the upper approximation of G, with associativity
on that upper approximation, a common identity there, and an inverse
inside G for every member.  Verification returns a clause-by-clause
report plus, on success, a certificate that downstream checks consume.

Convention for tables: ``rows[x][y]`` is x * y, so row x lists x * y
for each y.  Element sets are bitmasks over the universe's canonical
order throughout.

The laws are checked a row at a time: a row restricted to a set is
read in one `itemgetter` call, so associativity compares the row
z -> (x*y)*z with z -> x*(y*z) for each pair (x, y), and an identity
candidate is tested on its row first.  Entries are scanned one by one
only in the first pair or candidate that fails, so the witness is the
one a scan of every entry in canonical order would name.  One code
path serves every table size.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .approx import (
    DEFAULT_UNIVERSE_CAP,
    ApproxSpace,
    CayleyTable,
    bit_indices,
    product_mask,
    product_space,
    upper_approx,
)
from .errors import CapExceededError, InputError
from .report import (
    INFO,
    PASS,
    Clause,
    VerificationReport,
    combine,
    law,
    premise,
)
from .topology import FiniteMap

DEFAULT_SUBGROUP_ENUM_CAP = 20


def set_product(table: CayleyTable, m1: int, m2: int) -> int:
    """Elementwise product set {x*y : x in m1, y in m2}."""
    acc = 0
    for i in bit_indices(m1):
        row = table.rows[i]
        for j in bit_indices(m2):
            acc |= 1 << row[j]
    return acc


def escape_witness(table: CayleyTable, mask: int, target: int,
                   where: str) -> str | None:
    """`x * y = z <where>` for the first pair of members of mask, in
    canonical order, whose product z lies outside target; None when
    every product stays inside."""
    u = table.universe
    elems = tuple(bit_indices(mask))
    for x in elems:
        row = table.rows[x]
        for y in elems:
            z = row[y]
            if (target >> z) & 1 == 0:
                return (f"{u.elements[x]} * {u.elements[y]} = {u.elements[z]} "
                        f"{where}")
    return None


def associativity_witness(table: CayleyTable, mask: int) -> str | None:
    """The first triple of members of mask, a nonempty mask, in
    canonical order, that the operation does not associate, or None.

    For each pair (x, y) the row z -> (x*y)*z over mask is compared
    with z -> x*(y*z) in one step; z is scanned one at a time only in
    the first pair whose rows differ."""
    u = table.universe
    rows = table.rows
    elems = tuple(bit_indices(mask))
    # over_mask[w] is the row z -> w*z over mask (an int when mask has
    # one member, as is then[y](row_x), the row z -> x*(y*z))
    over_mask = list(map(itemgetter(*elems), rows))
    then = [itemgetter(*map(rows[y].__getitem__, elems)) for y in elems]
    for x in elems:
        row_x = rows[x]
        for y, then_y in zip(elems, then):
            if over_mask[row_x[y]] != then_y(row_x):
                row_xy, row_y = rows[row_x[y]], rows[y]
                z = next(z for z in elems if row_xy[z] != row_x[row_y[z]])
                a, b = row_xy[z], row_x[row_y[z]]
                return (f"({u.elements[x]} * {u.elements[y]}) * {u.elements[z]} = "
                        f"{u.elements[a]} but {u.elements[x]} * "
                        f"({u.elements[y]} * {u.elements[z]}) = {u.elements[b]}")
    return None


def inverses_in(table: CayleyTable, x: int, mask: int, e: int) -> int:
    """Members y of mask with x*y = y*x = e."""
    row = table.rows[x]
    acc = 0
    for y in bit_indices(mask):
        if row[y] == e and table.rows[y][x] == e:
            acc |= 1 << y
    return acc


def _identities(table: CayleyTable, candidates: int, members: int) -> int:
    """The candidates c with x*c = c*x = x for every x in members, a
    nonempty mask, as a mask.  Row c is read at the members in one step;
    the column is scanned only for a c that passes on its row."""
    rows = table.rows
    elems = tuple(bit_indices(members))
    at_members = itemgetter(*elems)
    fixed = at_members(range(table.universe.size))  # the identity row at members
    acc = 0
    for c in bit_indices(candidates):
        if at_members(rows[c]) == fixed and all(rows[x][c] == x for x in elems):
            acc |= 1 << c
    return acc


class RoughGroupCert(namedtuple("RoughGroupCert", "space g_mask upper designated_e inverse")):
    """Evidence that (space, G) passed the rough-group axioms.

    `designated_e` is the first element of the upper approximation, in
    canonical order, that acts as a two-sided identity on all of G, and
    `inverse` maps each member of G to its inverse in G with respect to
    that identity.  The inverse is unique, so one map holds it: if
    x*y = y*x = e and x*y' = y'*x = e for y, y' in G, associativity on
    the upper approximation gives y = y*(x*y') = (y*x)*y' = y'.
    """

    __slots__ = ()

    @property
    def table(self) -> CayleyTable:
        return self.space.op


def upper_group_witness(cert: RoughGroupCert) -> str | None:
    """The first group-axiom violation on upper(G), or None when it is
    a group: closure, a two-sided identity inside it, then inverses.
    Associativity is left out: the certificate has passed it on upper(G)
    (`associativity-on-upper`), so its witness cannot be reached."""
    table, upper = cert.table, cert.upper
    wit = escape_witness(table, upper, upper, "leaves the set")
    if wit:
        return wit
    identities = _identities(table, upper, upper)
    if not identities:
        return "no identity element in the set"
    e = (identities & -identities).bit_length() - 1
    for x in bit_indices(upper):
        if not inverses_in(table, x, upper, e):
            return f"{table.universe.elements[x]} has no inverse in the set"
    return None


def verify_rough_group(
    space: ApproxSpace, g_mask: int
) -> tuple[VerificationReport, RoughGroupCert | None]:
    """Check the four rough-group axioms on (space, G), in order.

    Clause order: products land in the upper approximation;
    associativity over the upper approximation; a common two-sided
    identity there; an inverse in G for every member.  The report
    lists every identity candidate; the certificate designates the
    canonically first one.
    """
    if space.op is None:
        raise InputError("the approximation space has no operation table")
    u = space.universe
    u.check_subset(g_mask, "G")
    if g_mask == 0:
        raise InputError("G is empty")
    table = space.op
    upper = upper_approx(space, g_mask)
    g_elems = tuple(bit_indices(g_mask))
    clauses = []

    wit = escape_witness(table, g_mask, upper,
                         "escapes the upper approximation")
    clauses.append(law("products-in-upper", wit))
    wit = associativity_witness(table, upper)
    clauses.append(law("associativity-on-upper", wit))

    identities = _identities(table, upper, g_mask)
    if identities:
        e = (identities & -identities).bit_length() - 1
        clauses.append(Clause(
            "identity-exists", PASS,
            f"designated identity {u.elements[e]}; candidates {u.set_str(identities)}",
        ))
    else:
        e = None
        clauses.append(law(
            "identity-exists",
            "no element of the upper approximation is a two-sided identity "
            "for all of G",
        ))
        # the definition quantifies per element; note when that weaker
        # reading would have been satisfiable
        if all(_identities(table, upper, 1 << x) for x in g_elems):
            clauses.append(Clause(
                "per-element-identities", INFO,
                "each member of G has some identity of its own, but no single "
                "element serves all of G",
            ))

    inverse = []
    if e is None:
        clauses.append(premise("inverses-exist", "skipped: no identity"))
    else:
        wit = None
        for x in g_elems:
            inv = inverses_in(table, x, g_mask, e)
            if inv == 0:
                wit = (f"{u.elements[x]} has no inverse in G with respect to "
                       f"identity {u.elements[e]}")
                break
            inverse.append((x, inv.bit_length() - 1))
        clauses.append(law("inverses-exist", wit))

    report = combine("rough-group", clauses,
                     stats=[("identity-candidates", identities.bit_count()),
                            ("upper-size", upper.bit_count())])
    if not report.passed:
        return report, None
    return report, RoughGroupCert(space, g_mask, upper, e,
                                  FiniteMap(u, u, g_mask, g_mask, tuple(inverse)))


def verify_rough_subgroup(parent: RoughGroupCert, h_mask: int) -> VerificationReport:
    """H is a rough subgroup when its own products stay inside upper(H)
    and each member has an inverse inside H (for the parent identity)."""
    u = parent.space.universe
    u.check_subset(h_mask, "H")
    if h_mask == 0:
        raise InputError("H is empty")
    if h_mask & ~parent.g_mask:
        raise InputError(
            f"H contains {u.set_str(h_mask & ~parent.g_mask)}, outside G"
        )
    table = parent.table
    upper_h = upper_approx(parent.space, h_mask)
    e = parent.designated_e
    wit = escape_witness(table, h_mask, upper_h,
                         "escapes the upper approximation of H")
    clauses = [law("products-in-upper", wit)]
    x = next((x for x in bit_indices(h_mask)
              if not inverses_in(table, x, h_mask, e)), None)
    wit = None if x is None else (
        f"{u.elements[x]} has no inverse inside H with respect to "
        f"identity {u.elements[e]}")
    clauses.append(law("inverses-in-H", wit))
    return combine("rough-subgroup", clauses,
                   stats=[("upper-size", upper_h.bit_count())])


def is_rough_normal(parent: RoughGroupCert, n_mask: int) -> VerificationReport:
    """xN = Nx (as element sets in the universe) for every x in G.

    Being a rough subgroup is a premise: when it fails, the verdict is
    not-applicable rather than fail, carrying the subgroup witness.
    """
    wit = verify_rough_subgroup(parent, n_mask).first_witness()
    clauses = [premise("premise-rough-subgroup", wit)]
    if wit is not None:
        return combine("rough-normal", clauses)
    u = parent.space.universe
    table = parent.table
    wit = None
    for x in bit_indices(parent.g_mask):
        xn = set_product(table, 1 << x, n_mask)
        nx = set_product(table, n_mask, 1 << x)
        if xn != nx:
            wit = (f"x = {u.elements[x]}: x*N = {u.set_str(xn)} but "
                   f"N*x = {u.set_str(nx)}")
            break
    clauses.append(law("cosets-match", wit))
    return combine("rough-normal", clauses)


def enumerate_rough_subgroups(
    parent: RoughGroupCert, cap: int = DEFAULT_SUBGROUP_ENUM_CAP
) -> tuple[int, ...]:
    """All nonempty rough subgroups of G, as masks in ascending order."""
    n = parent.g_mask.bit_count()
    if n > cap:
        raise CapExceededError(
            f"subgroup enumeration supports at most {cap} elements, got {n}"
        )
    found = []
    g = parent.g_mask
    # ascending enumeration of the nonempty submasks of g
    sub = 0
    while True:
        sub = (sub - g) & g
        if sub == 0:
            break
        if verify_rough_subgroup(parent, sub).passed:
            found.append(sub)
    return tuple(found)


class RoughHom(namedtuple("RoughHom", "source target fmap")):
    """A verified structure-compatible map between two rough groups."""

    __slots__ = ()


def verify_rough_homomorphism(
    src: RoughGroupCert,
    tgt: RoughGroupCert,
    fmap: FiniteMap,
    strict: bool = False,
) -> tuple[VerificationReport, RoughHom | None]:
    """Compatibility of a map between the two upper approximations.

    The clause map(x*y) = map(x)*map(y) is checked for every pair
    whose product stays inside the source upper approximation; pairs
    whose product leaves it are unconstrained and only counted.  In
    strict mode a further clause requires that no pair leaves it.
    The map is classified by injectivity and surjectivity onto the
    target upper approximation.
    """
    su = src.space.universe
    tu = tgt.space.universe
    if fmap.domain_universe != su or fmap.domain != src.upper:
        raise InputError("map domain is not the source upper approximation")
    if fmap.codomain_universe != tu or fmap.codomain != tgt.upper:
        raise InputError("map codomain is not the target upper approximation")
    s_table = src.table
    t_table = tgt.table
    up1 = tuple(bit_indices(src.upper))
    constrained = 0
    unconstrained = 0
    wit = None
    for x in up1:
        fx = fmap.apply(x)
        for y in up1:
            z = s_table.rows[x][y]
            if (src.upper >> z) & 1 == 0:
                unconstrained += 1
                continue
            constrained += 1
            lhs = fmap.apply(z)
            rhs = t_table.rows[fx][fmap.apply(y)]
            if lhs != rhs and wit is None:
                wit = (f"map({su.elements[x]} * {su.elements[y]}) = "
                       f"{tu.elements[lhs]} but map({su.elements[x]}) * "
                       f"map({su.elements[y]}) = {tu.elements[rhs]}")
    clauses = [law("compatibility", wit)]
    if strict:
        escape = escape_witness(s_table, src.upper, src.upper,
                                "leaves the source upper approximation")
        clauses.append(law("upper-closed", escape))
    injective = fmap.is_injective()
    surjective = fmap.image_mask() == tgt.upper
    if injective and surjective:
        classification = "isomorphism"
    elif surjective:
        classification = "epimorphism"
    elif injective:
        classification = "monomorphism"
    else:
        classification = "homomorphism-only"
    clauses.append(Clause("classification", INFO, classification))
    report = combine(
        "rough-homomorphism", clauses,
        stats=[("constrained-pairs", constrained),
               ("unconstrained-pairs", unconstrained)],
    )
    if not report.passed:
        return report, None
    return report, RoughHom(src, tgt, fmap)


def rough_kernel(hom: RoughHom) -> tuple[int, VerificationReport]:
    """Members of the source G mapped to the target identity, with a
    report on whether that set is a rough normal subgroup."""
    src = hom.source
    e2 = hom.target.designated_e
    kernel = hom.fmap.preimage(1 << e2) & src.g_mask
    u = src.space.universe
    clauses = [Clause("kernel-elements", INFO, u.set_str(kernel))]
    if kernel == 0:
        clauses.append(premise(
            "kernel-nonempty",
            "empty kernel: no member of G maps to the target identity",
        ))
        return kernel, combine("rough-kernel", clauses,
                               stats=[("kernel-size", 0)])
    normal = is_rough_normal(src, kernel)
    wit = normal.clause("premise-rough-subgroup").witness
    clauses += [law("kernel-subgroup", wit),
                premise("kernel-normal", "skipped: kernel is not a rough subgroup")
                if wit else normal.as_clause("kernel-normal")]
    return kernel, combine("rough-kernel", clauses,
                           stats=[("kernel-size", kernel.bit_count())])


def product_rough_group(
    a: RoughGroupCert, b: RoughGroupCert, cap: int = DEFAULT_UNIVERSE_CAP
) -> RoughGroupCert:
    """Componentwise product certificate; the axioms re-verify by
    construction, so a failure here signals an internal bug."""
    space = product_space(a.space, b.space, cap)
    n2 = b.space.universe.size
    g = product_mask(a.g_mask, b.g_mask, n2)
    report, cert = verify_rough_group(space, g)
    if cert is None:
        raise RuntimeError(
            f"internal error: product of verified rough groups failed "
            f"re-verification: {report.first_witness()}"
        )
    return cert
