"""Rough actions of a topological rough group on a rough space.

An action is a continuous map from (upper(G) x upper(X)) to upper(X)
that is compatible with the group operation and fixes every point
under the designated identity.  Both laws quantify over the upper
approximations, so closure of upper(G) under the operation is an
explicit premise: without it the compatibility law is not even
well-posed, and the verdict is "not applicable" rather than a failure.

Right actions are mirrored onto the same code path: `RoughAction`
reads the map into one table g -> x -> g.x whichever order it takes
its arguments in, and the compatibility law composes the group
elements in the other order.  Continuity is decided on that table like
the TRG product map, by the relations of monotonicity in each argument
(`topology.table_needs`), with the least N(d) over the unmet pairs as
witness, so no product topology is built.
"""

from __future__ import annotations

from itertools import product

from .approx import (
    ApproxSpace,
    bit_indices,
    product_mask,
    product_universe,
    upper_approx,
)
from .errors import InputError
from .groups import (
    escape_witness,
    set_product,
    upper_group_witness,
    verify_rough_subgroup,
)
from .record import Record
from .report import PASS, Clause, VerificationReport, combine, law, premise
from .topology import (
    FiniteMap,
    FiniteTopology,
    first_unmet,
    subspace_topology,
    table_needs,
)
from .trg import TRGCert

SIDES = ("left", "right")


class RoughSpace(Record):
    """A rough set with a topology on its (derived) upper approximation."""

    _fields = ("space", "x_mask", "tau_x")

    def __init__(self, space: ApproxSpace, x_mask: int, tau_x: FiniteTopology):
        upper_x = upper_approx(space, x_mask)
        if tau_x.universe != space.universe:
            raise InputError("topology is defined over a different universe")
        if tau_x.carrier != upper_x:
            raise InputError("topology carrier is not the upper approximation of X")
        self._set(space=space, x_mask=x_mask, upper_x=upper_x, tau_x=tau_x)


class RoughAction(Record):
    """An action map read into one table: `table[g][x]` is g.x for g in
    upper(G) and x in upper(X)."""

    _fields = ("cert", "rspace", "mu", "side")

    def __init__(self, cert: TRGCert, rspace: RoughSpace, mu: FiniteMap, side: str):
        ng, nx = cert.universe.size, rspace.space.universe.size
        pair = (lambda g, x: g * nx + x) if side == "left" else (lambda g, x: x * ng + g)
        x_elems = tuple(bit_indices(rspace.upper_x))
        table = {g: {x: mu.apply(pair(g, x)) for x in x_elems}
                 for g in bit_indices(cert.upper)}
        self._set(cert=cert, rspace=rspace, mu=mu, side=side, table=table)

    def act(self, g: int, x: int) -> int:
        """g.x, read from the action table."""
        return self.table[g][x]


def verify_rough_action(
    cert: TRGCert,
    rspace: RoughSpace,
    mu: FiniteMap,
    side: str = "left",
) -> tuple[VerificationReport, RoughAction | None]:
    """Check the action laws and the continuity of mu.

    Clause order: closure of upper(G) under the operation (premise),
    continuity of mu against the product topology, compatibility
    g(g'x) = (gg')x over all of upper(G)^2 x upper(X), and identity
    e*x = x over upper(X).
    """
    if side not in SIDES:
        raise InputError(f"unknown action side {side!r}")
    gu = cert.universe
    xu = rspace.space.universe
    g_side, x_side = (gu, cert.upper), (xu, rspace.upper_x)
    (left, a_mask), (right, b_mask) = ((g_side, x_side) if side == "left"
                                       else (x_side, g_side))
    pu = product_universe(left, right)
    if mu.domain_universe != pu or mu.domain != product_mask(a_mask, b_mask, right.size):
        raise InputError(
            "action map domain is not upper(G) x upper(X) in the stated order"
        )
    if mu.codomain_universe != xu or mu.codomain != rspace.upper_x:
        raise InputError("action map codomain is not upper(X)")

    table = cert.table
    wit = escape_witness(table, cert.upper, cert.upper,
                         "leaves the upper approximation of G")
    clauses = [premise("premise-upper-closed", wit)]
    if wit is not None:
        return combine("rough-action", clauses), None

    action = RoughAction(cert, rspace, mu, side)
    v = first_unmet(rspace.tau_x, table_needs(
        action.table, cert.tau.below_lists, rspace.tau_x.below_lists))
    wit = None if v is None else (f"open {xu.set_str(v)} has preimage "
                                  f"{pu.set_str(mu.preimage(v))}, which is not open")
    clauses.append(law("action-continuity", wit))

    g_elems = tuple(bit_indices(cert.upper))
    x_elems = tuple(bit_indices(rspace.upper_x))
    g_names = gu.elements
    x_names = xu.elements
    wit = None
    for g, gp, x in product(g_elems, g_elems, x_elems):
        outer, inner = (g, gp) if side == "left" else (gp, g)
        lhs = action.act(outer, action.act(inner, x))
        rhs = action.act(table.rows[g][gp], x)
        if lhs != rhs:
            order = (f"{g_names[outer]}({g_names[inner]} {x_names[x]})" if side == "left"
                     else f"(({x_names[x]} {g_names[inner]}) {g_names[outer]})")
            wit = f"{order} = {x_names[lhs]} but the combined element gives {x_names[rhs]}"
            break
    clauses.append(law("compatibility", wit))

    wit = None
    for x in x_elems:
        y = action.act(cert.e, x)
        if y != x:
            wit = f"identity {g_names[cert.e]} moves {x_names[x]} to {x_names[y]}"
            break
    clauses.append(law("identity", wit))

    report = combine("rough-action", clauses,
                     stats=[("compatibility-triples", len(g_elems) ** 2 * len(x_elems))])
    if not report.passed:
        return report, None
    return report, action


def is_effective(action: RoughAction) -> str | None:
    """Distinct elements of upper(G) act differently on some point: the
    first pair that acts identically on every point, or None."""
    gu = action.cert.universe
    g_elems = tuple(bit_indices(action.cert.upper))
    x_elems = tuple(bit_indices(action.rspace.upper_x))
    for i, g in enumerate(g_elems):
        for gp in g_elems[i + 1:]:
            if all(action.act(g, x) == action.act(gp, x) for x in x_elems):
                return (f"{gu.elements[g]} and {gu.elements[gp]} "
                        "act identically on every point")
    return None


def is_transitive(action: RoughAction) -> str | None:
    """Every point reaches every other under some element of upper(G):
    the first point and a point it cannot reach, or None."""
    xu = action.rspace.space.universe
    g_elems = tuple(bit_indices(action.cert.upper))
    x_elems = tuple(bit_indices(action.rspace.upper_x))
    for x in x_elems:
        reached = 0
        for g in g_elems:
            reached |= 1 << action.act(g, x)
        missing = action.rspace.upper_x & ~reached
        if missing:
            y = (missing & -missing).bit_length() - 1
            return (f"no group element carries {xu.elements[x]} to "
                    f"{xu.elements[y]}")
    return None


def is_rough_homogeneous(rspace: RoughSpace) -> str | None:
    """Every ordered pair of points of upper(X) is connected by some
    self-homeomorphism: a pair that is not, or None.

    Rule: give each point p the key (|N(p)|, |closure of {p}|); the
    space is homogeneous iff all keys are equal.  A homeomorphism of a
    finite space is an automorphism of its specialization preorder
    (a in N(b)), so it preserves both sizes, which makes the key an
    invariant.  Conversely, if all |N(p)| are equal, a in N(b) gives
    N(a) inside N(b) of the same size, hence N(a) = N(b): the preorder
    is an equivalence whose classes are the neighbourhoods, all open
    and of one size, and a bijection carrying classes to classes joins
    any two points.  So the sizes |N(p)| decide, and the closures of
    the classes (`FiniteTopology.class_closures`) only name the witness.

    Witness: p is the first point and q the first point whose key
    differs from p's; no self-homeomorphism carries p to q.
    """
    xu = rspace.space.universe
    top = rspace.tau_x
    if len({n.bit_count() for n, _, _ in top.classes}) < 2:
        return None
    key = {points: (n.bit_count(), cl.bit_count())
           for (n, points, _), cl in zip(top.classes, top.class_closures)}
    p = rspace.upper_x & -rspace.upper_x
    first = next(k for points, k in key.items() if points & p)
    q = sum(points for points, k in key.items() if k != first)
    return (f"no self-homeomorphism carries {xu.elements[p.bit_length() - 1]} "
            f"to {xu.elements[(q & -q).bit_length() - 1]}")


def _upper_group_premise(cert: TRGCert) -> Clause:
    """The premise that the upper approximation of G is a group."""
    why = upper_group_witness(cert.group)
    return premise("premise-upper-group", None if why is None
                   else f"the upper approximation is not a group: {why}")


def check_AU_open(cert: TRGCert, a_mask: int, u_mask: int) -> VerificationReport:
    """Products of a subset with an open set stay open, on both sides,
    when the upper approximation is a group."""
    gu = cert.universe
    if a_mask < 0 or a_mask & ~cert.upper:
        raise InputError("A is not a subset of the upper approximation")
    if not cert.tau.is_open(u_mask):
        raise InputError(f"U = {gu.set_str(u_mask)} is not open in the topology")
    clauses = [_upper_group_premise(cert)]
    if clauses[0].verdict != PASS:
        return combine("AU-open", clauses)
    au = set_product(cert.table, a_mask, u_mask)
    ua = set_product(cert.table, u_mask, a_mask)
    wit = None
    if not cert.tau.is_open(au):
        wit = f"A*U = {gu.set_str(au)} is not open"
    clauses.append(law("AU-open", wit))
    wit = None
    if not cert.tau.is_open(ua):
        wit = f"U*A = {gu.set_str(ua)} is not open"
    clauses.append(law("UA-open", wit))
    return combine("AU-open", clauses)


def check_subgroup_open(
    cert: TRGCert, h_mask: int, w_mask: int
) -> VerificationReport:
    """An open neighborhood of the identity inside a rough subgroup
    makes the subgroup's upper approximation open; each translate of
    the neighborhood is open in the subspace on that set.

    Premises: the upper approximation of G is a group; H is a rough
    subgroup; upper(H) is closed under the operation; W is open in
    tau_G, contains the identity, and sits inside H.
    """
    gu = cert.universe
    # the subgroup check validates H, so it runs before upper(H) is taken
    not_sub = verify_rough_subgroup(cert.group, h_mask).first_witness()
    upper_h = upper_approx(cert.group.space, h_mask)
    premises = [
        _upper_group_premise(cert),
        premise("premise-rough-subgroup", not_sub),
        premise("premise-upper-H-closed",
                escape_witness(cert.table, upper_h, upper_h,
                               "leaves the upper approximation of H")),
        premise("premise-W-open", None if cert.tau_G.is_open(w_mask)
                else f"W = {gu.set_str(w_mask)} is not open in tau_G"),
        premise("premise-identity-in-W", None if (w_mask >> cert.e) & 1
                else f"the identity {gu.elements[cert.e]} is not in W"),
        premise("premise-W-inside-H", None if w_mask & ~h_mask == 0
                else f"W = {gu.set_str(w_mask)} is not a subset of H"),
    ]
    if any(c.verdict != PASS for c in premises):
        return combine("subgroup-open", premises)

    # upper(H)*W = upper(H): it lies inside, as upper(H) is closed and
    # W is inside H, and it holds each h*e = h, as e is in W and, by
    # cancellation, is the identity of the group upper(G)
    clauses = [*premises, law("union-is-upper-H", None)]
    wit = None
    if not cert.tau.is_open(upper_h):
        wit = f"upper(H) = {gu.set_str(upper_h)} is not open in tau"
    clauses.append(law("upper-H-open", wit))
    sub_top = subspace_topology(cert.tau, upper_h)
    wit = None
    for h in bit_indices(h_mask):
        hw = set_product(cert.table, 1 << h, w_mask)
        if not sub_top.is_open(hw):
            wit = (f"h = {gu.elements[h]}: h*W = {gu.set_str(hw)} is not open "
                   "in the subspace on upper(H)")
            break
    clauses.append(law("translates-open-in-upper-H", wit))
    return combine("subgroup-open", clauses)
