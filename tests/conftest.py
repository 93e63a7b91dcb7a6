"""Shared fixtures and independent oracles.

Every oracle here recomputes a result with a method deliberately
different from the library implementation (frozensets instead of
bitmasks, fixpoint closure instead of down-set enumeration, sympy
instead of the hand-rolled permutation table) so that agreement is
meaningful evidence rather than the same code run twice.
"""

from __future__ import annotations

import argparse
import io
import contextlib
import itertools
import shutil
from functools import cache, partial
from pathlib import Path

import pytest

from roughtop.cli import _next_words, _non_negative_int, main as cli_main
from roughtop.parser import Workspace, parse_spec
from roughtop import (
    ApproxSpace,
    FiniteMap,
    FiniteTopology,
    RoughGroupCert,
    RoughSpace,
    TRGCert,
    verify_rough_group,
    verify_trg,
)
from roughtop.approx import (
    CayleyTable,
    Partition,
    Universe,
    bit_indices,
    product_mask,
    product_universe,
)
from roughtop.errors import CapExceededError, InputError
from roughtop.groups import DEFAULT_SUBGROUP_ENUM_CAP
from roughtop.report import FAIL, INFO, PASS, Clause, VerificationReport, combine
from roughtop.topology import enumerate_topologies
from roughtop.trg import trg_topologies

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"


# ---------------------------------------------------------------------------
# oracle: approximations via frozensets


def oracle_lower(blocks: list[frozenset], xs: frozenset) -> frozenset:
    out: set = set()
    for b in blocks:
        if b <= xs:
            out |= b
    return frozenset(out)


def oracle_upper(blocks: list[frozenset], xs: frozenset) -> frozenset:
    out: set = set()
    for b in blocks:
        if b & xs:
            out |= b
    return frozenset(out)


def mask_to_set(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def set_to_mask(s) -> int:
    return sum(1 << i for i in s)


# ---------------------------------------------------------------------------
# oracle: topology generation by union/intersection fixpoint closure


def oracle_close_family(carrier: int, members) -> tuple[int, ...]:
    """Smallest topology on the carrier containing the members, found by
    adding pairwise unions and intersections until nothing changes."""
    fam = set(members)
    fam.add(0)
    fam.add(carrier)
    changed = True
    while changed:
        changed = False
        snapshot = sorted(fam)
        for a in snapshot:
            for b in snapshot:
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return tuple(sorted(fam))


def oracle_is_topology(carrier: int, fam) -> bool:
    s = set(fam)
    if 0 not in s or carrier not in s:
        return False
    for a in s:
        if a & ~carrier:
            return False
        for b in s:
            if (a | b) not in s or (a & b) not in s:
                return False
    return True


def oracle_all_topologies(n: int) -> list[tuple[int, ...]]:
    """All topologies on n points by filtering every family of proper
    nonempty subsets.  Exponential in 2^n; keep n tiny."""
    carrier = (1 << n) - 1
    proper = [m for m in range(1, carrier)]
    out = []
    for pick in range(1 << len(proper)):
        fam = {0, carrier}
        for i, m in enumerate(proper):
            if (pick >> i) & 1:
                fam.add(m)
        if oracle_is_topology(carrier, fam):
            out.append(tuple(sorted(fam)))
    return sorted(out)


def oracle_enumerate_topologies(universe, carrier: int) -> tuple[FiniteTopology, ...]:
    """All topologies on the carrier, sorted by their lists of opens,
    by filtering every reflexive relation on it for transitivity: each
    preorder gives N(p) as the set of points p relates to.  Scans
    2^(n^2 - n) relations; keep n at 4 or below."""
    points = tuple(bit_indices(carrier))
    n = len(points)
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for bitsv in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if (bitsv >> k) & 1:
                rows[i] |= 1 << j
        if any(rows[j] & ~rows[i] for i in range(n) for j in bit_indices(rows[i])):
            continue
        nbhd = [0] * universe.size
        for i in range(n):
            for j in bit_indices(rows[i]):
                nbhd[points[i]] |= 1 << points[j]
        found.append(FiniteTopology(universe, carrier, nbhd))
    found.sort(key=lambda t: t.opens)
    return tuple(found)


# ---------------------------------------------------------------------------
# oracles: the explicit-open algorithms, which store and scan every open
# set.  The library decides the same questions from minimal open
# neighbourhoods; these keep the earlier list-every-open implementations
# so that whole reports (verdict, witnesses, stats) can be compared.


def oracle_verify_topology(universe, carrier, family):
    """Topology axioms by the pairwise union and intersection scan."""
    universe.check_subset(carrier, "carrier")
    fam = tuple(sorted(set(family)))
    for m in fam:
        if m < 0 or m & ~carrier:
            raise InputError(
                f"family member {universe.set_str(m & universe.all_mask)} is not a subset "
                f"of the carrier {universe.set_str(carrier)}"
            )
    members = frozenset(fam)
    clauses = []
    ok = 0 in members
    clauses.append(Clause("empty-set-member", PASS if ok else FAIL,
                          None if ok else "the empty set is missing from the family"))
    ok = carrier in members
    clauses.append(Clause("carrier-member", PASS if ok else FAIL,
                          None if ok else f"the carrier {universe.set_str(carrier)} is missing"))
    for name, op, word in (("union-closure", int.__or__, "union"),
                           ("intersection-closure", int.__and__, "intersection")):
        wit = None
        for a, b in itertools.combinations(fam, 2):
            if op(a, b) not in members:
                wit = (f"{word} of {universe.set_str(a)} and {universe.set_str(b)} = "
                       f"{universe.set_str(op(a, b))} is not in the family")
                break
        clauses.append(Clause(name, FAIL if wit else PASS, wit))
    return combine("topology", clauses, stats=[("members", len(fam))])


def oracle_generate_opens(carrier: int, subbasis) -> tuple[int, ...]:
    """Every open of the generated topology, listed by a depth-first walk
    over point classes in a linear extension of neighbourhood inclusion."""
    nbhd_pts: dict[int, int] = {}
    for p in bit_indices(carrier):
        acc = carrier
        for m in subbasis:
            if m >> p & 1:
                acc &= m
        nbhd_pts[acc] = nbhd_pts.get(acc, 0) | 1 << p
    classes = sorted(nbhd_pts, key=lambda m: (m.bit_count(), m))
    pts = [nbhd_pts[m] for m in classes]
    req = [sum(1 << j for j in range(i) if classes[j] & ~ni == 0)
           for i, ni in enumerate(classes)]
    opens: list[int] = []

    def walk(i: int, chosen: int, mask: int) -> None:
        if i == len(classes):
            opens.append(mask)
            return
        walk(i + 1, chosen, mask)
        if req[i] & ~chosen == 0:
            walk(i + 1, chosen | 1 << i, mask | pts[i])

    walk(0, 0, 0)
    return tuple(sorted(opens))


def oracle_product_opens(opens1, carrier1, opens2, carrier2, n2: int) -> tuple[int, ...]:
    """Product topology generated by every open rectangle."""
    rectangles = [product_mask(o1, o2, n2) for o1 in opens1 for o2 in opens2]
    return oracle_generate_opens(product_mask(carrier1, carrier2, n2), rectangles)


def oracle_is_continuous(fmap, dom_universe, dom_opens, cod_universe, cod_opens):
    """Preimage scan: every open of the codomain pulls back to an open."""
    dom = frozenset(dom_opens)
    wit = None
    for o in sorted(cod_opens):
        pre = fmap.preimage(o)
        if pre not in dom:
            wit = (f"open {cod_universe.set_str(o)} has preimage "
                   f"{dom_universe.set_str(pre)}, which is not open")
            break
    return combine("continuity", [Clause("preimage-openness", FAIL if wit else PASS, wit)])


def oracle_product_map_clause(group, prod_universe, prod_opens, cod_universe, cod_opens):
    """Continuity of (x, y) -> x*y by pulling every codomain open back
    into the materialised product topology on G x G."""
    table = group.table
    n = group.space.universe.size
    g_elems = tuple(bit_indices(group.g_mask))
    prod = frozenset(prod_opens)
    wit = None
    for v in sorted(cod_opens):
        pre = 0
        for x in g_elems:
            for y in g_elems:
                if v >> table.rows[x][y] & 1:
                    pre |= 1 << (x * n + y)
        if pre not in prod:
            wit = (f"open {cod_universe.set_str(v)} pulls back to "
                   f"{prod_universe.set_str(pre)}, which is not open "
                   "in the product topology on G x G")
            break
    return Clause("product-map-continuity", FAIL if wit else PASS, wit)


def oracle_verify_trg(group, tau_opens, mode: str = "upper"):
    """The TRG report, with tau, tau_G and G x G as explicit families."""
    u = group.space.universe
    g = group.g_mask
    tau = tuple(sorted(set(tau_opens)))
    tau_g = tuple(sorted({o & g for o in tau}))
    prod = oracle_product_opens(tau_g, g, tau_g, g, u.size)
    cod = tau if mode == "upper" else tau_g
    clauses = [Clause("codomain-topology", INFO, mode),
               oracle_product_map_clause(group, product_universe(u, u), prod, u, cod)]
    inv = oracle_is_continuous(group.inverse, u, tau_g, u, tau_g)
    clauses.append(Clause("inverse-map-continuity", inv.verdict, inv.first_witness()))
    return combine("trg", clauses, stats=[("tau-opens", len(tau)),
                                          ("tau-G-opens", len(tau_g)),
                                          ("product-opens", len(prod))])


def oracle_homogeneity_orbits(carrier: int, opens, cap: int = 8) -> dict:
    """p -> the mask of points some self-homeomorphism carries p to,
    found by trying every bijection of the carrier against every open."""
    points = tuple(bit_indices(carrier))
    if len(points) > cap:
        raise CapExceededError(f"{len(points)} points exceed the cap of {cap}")
    members = frozenset(opens)
    reach = {p: 1 << p for p in points}
    for perm in itertools.permutations(points):
        assign = dict(zip(points, perm))
        if all(sum(1 << assign[p] for p in bit_indices(o)) in members for o in opens):
            for p in points:
                reach[p] |= 1 << assign[p]
    return reach


def oracle_is_rough_homogeneous(universe, carrier: int, opens, cap: int = 8):
    """A witness naming the first point p whose orbit misses a point and
    the first point q it misses; None when every orbit is the carrier."""
    reach = oracle_homogeneity_orbits(carrier, opens, cap)
    for p in bit_indices(carrier):
        missing = carrier & ~reach[p]
        if missing:
            q = (missing & -missing).bit_length() - 1
            return (f"no self-homeomorphism carries {universe.elements[p]} "
                    f"to {universe.elements[q]}")
    return None


# ---------------------------------------------------------------------------
# oracle: classical group axioms on an explicit table


def oracle_is_group(rows, elems) -> bool:
    es = set(elems)
    for x in elems:
        for y in elems:
            if rows[x][y] not in es:
                return False
            for z in elems:
                if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
                    return False
    ident = None
    for e in elems:
        if all(rows[e][x] == x and rows[x][e] == x for x in elems):
            ident = e
            break
    if ident is None:
        return False
    for x in elems:
        if not any(rows[x][y] == ident and rows[y][x] == ident for y in elems):
            return False
    return True


# ---------------------------------------------------------------------------
# oracles: the table scans one entry at a time.  The library compares a
# whole row at once and scans entries only to name a witness; these
# walk every entry in canonical order, so witnesses can be compared.


def oracle_escape_witness(table, mask: int, target: int, where: str) -> str | None:
    u = table.universe
    elems = tuple(bit_indices(mask))
    for x in elems:
        for y in elems:
            z = table.rows[x][y]
            if (target >> z) & 1 == 0:
                return (f"{u.elements[x]} * {u.elements[y]} = {u.elements[z]} "
                        f"{where}")
    return None


def oracle_associativity_witness(table, mask: int) -> str | None:
    u = table.universe
    rows = table.rows
    elems = tuple(bit_indices(mask))
    for x in elems:
        for y in elems:
            for z in elems:
                a = rows[rows[x][y]][z]
                b = rows[x][rows[y][z]]
                if a != b:
                    return (f"({u.elements[x]} * {u.elements[y]}) * {u.elements[z]} = "
                            f"{u.elements[a]} but {u.elements[x]} * "
                            f"({u.elements[y]} * {u.elements[z]}) = {u.elements[b]}")
    return None


def oracle_identities(table, candidates: int, members: int) -> int:
    rows = table.rows
    acc = 0
    for c in bit_indices(candidates):
        if all(rows[x][c] == x and rows[c][x] == x for x in bit_indices(members)):
            acc |= 1 << c
    return acc


def oracle_compatibility(src, tgt, fmap) -> tuple[str | None, int, int]:
    """The first pair (x, y) of the source upper approximation whose
    product stays inside it and that the map does not preserve, with
    the counts of constrained and unconstrained pairs."""
    su, tu = src.space.universe, tgt.space.universe
    rows, t_rows = src.table.rows, tgt.table.rows
    up = tuple(bit_indices(src.upper))
    constrained = unconstrained = 0
    wit = None
    for x in up:
        for y in up:
            z = rows[x][y]
            if not src.upper >> z & 1:
                unconstrained += 1
                continue
            constrained += 1
            lhs, rhs = fmap.apply(z), t_rows[fmap.apply(x)][fmap.apply(y)]
            if lhs != rhs and wit is None:
                wit = (f"map({su.elements[x]} * {su.elements[y]}) = "
                       f"{tu.elements[lhs]} but map({su.elements[x]}) * "
                       f"map({su.elements[y]}) = {tu.elements[rhs]}")
    return wit, constrained, unconstrained


# ---------------------------------------------------------------------------
# oracle: S4 composition via sympy


def sympy_s4_oracle(names):
    """name -> sympy Permutation, under the convention that our x*y
    applies y first (sympy's p*q applies p first, so ours is q*p)."""
    from sympy.combinatorics import Permutation

    def of_name(name: str) -> Permutation:
        if name == "1":
            return Permutation(3)
        cycles = []
        for part in name.replace(")(", ")|(").split("|"):
            digits = part.strip("()")
            cycles.append([int(d) - 1 for d in digits])
        return Permutation(cycles, size=4)

    return {n: of_name(n) for n in names}


# ---------------------------------------------------------------------------
# every rough group of a table


def partitions(n: int):
    """Every partition of range(n), as a tuple of block masks."""
    if n == 0:
        yield ()
        return
    for rest in partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + (rest[i] | 1 << n - 1,) + rest[i + 1:]
        yield rest + (1 << n - 1,)


def table_of(rows) -> CayleyTable:
    """The table on the universe 0, 1, ..., n - 1 whose row x lists x*y."""
    u = Universe(tuple(map(str, range(len(rows)))))
    return CayleyTable(u, tuple(map(tuple, rows)))


def cyclic_table(n: int) -> CayleyTable:
    """Z_n under addition."""
    return table_of([[(x + y) % n for y in range(n)] for x in range(n)])


def rough_groups(table: CayleyTable) -> list:
    """Every rough group of the table: each partition of its universe
    with each nonempty G that passes."""
    u = table.universe
    certs = []
    for blocks in partitions(u.size):
        space = ApproxSpace(u, Partition(u, blocks), table)
        for g_mask in range(1, 1 << u.size):
            cert = verify_rough_group(space, g_mask)[1]
            if cert is not None:
                certs.append(cert)
    return certs


# ---------------------------------------------------------------------------
# maps built from others


def identity_map(universe: Universe, mask: int) -> FiniteMap:
    """The identity map of a subset."""
    return FiniteMap(universe, universe, mask, mask, tuple((i, i) for i in bit_indices(mask)))


def compose(f: FiniteMap, g: FiniteMap) -> FiniteMap:
    """x -> g(f(x)), for f's codomain equal to g's domain."""
    return FiniteMap(f.domain_universe, g.codomain_universe, f.domain, g.codomain,
                     tuple((src, g.apply(dst)) for src, dst in f.pairs))


# ---------------------------------------------------------------------------
# the serializer: a workspace back to a document, for round trips


def _braces(universe: Universe, masks) -> str:
    return " ".join("{" + " ".join(universe.names_of(m)) + "}" for m in masks)


def serialize_workspace(ws: Workspace) -> str:
    """Canonical text form: kinds grouped, sets in canonical order.

    Parsing the output yields a workspace equal to the original, and
    serializing again reproduces the same bytes.
    """
    out = []
    for name, u in ws.universes.items():
        out.append(f"universe {name}: " + " ".join(u.elements))
    for name, (uname, t) in ws.tables.items():
        out.append(f"table {name} on {uname}:")
        for row in t.rows:
            out.append(" ".join(t.universe.elements[v] for v in row))
    for name, (uname, p) in ws.partitions.items():
        out.append(f"partition {name} on {uname}: {_braces(p.universe, p.blocks)}")
    for name, (uname, mask) in ws.subsets.items():
        toks = " ".join(ws.universes[uname].names_of(mask))
        out.append(f"subset {name} of {uname}:" + (f" {toks}" if toks else ""))
    for name, (cname, top) in ws.topologies.items():
        out.append(f"topology {name} on {cname}: {_braces(top.universe, top.opens)}")
    for name, (aname, bname, m) in ws.maps.items():
        pairs = " ".join(
            f"{m.domain_universe.elements[s]}->{m.codomain_universe.elements[d]}"
            for s, d in m.pairs
        )
        out.append(f"map {name} from {aname} to {bname}:" +
                   (f" {pairs}" if pairs else ""))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# workspace fixtures


def load_fixture(name: str) -> Workspace:
    return parse_spec((FIXDIR / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def ws_zmod3() -> Workspace:
    return load_fixture("zmod3.rg")


@pytest.fixture(scope="session")
def ws_s4() -> Workspace:
    return load_fixture("s4.rg")


@pytest.fixture(scope="session")
def ws_product() -> Workspace:
    return load_fixture("zmod3_product.rg")


@pytest.fixture(scope="session")
def ws_hom() -> Workspace:
    return load_fixture("hom_z3_to_s4.rg")


@pytest.fixture(scope="session")
def ws_zmod4() -> Workspace:
    return load_fixture("zmod4_discrete.rg")


@pytest.fixture(scope="session")
def ws_selfaction() -> Workspace:
    return load_fixture("zmod3_selfaction.rg")


def space_of(ws: Workspace, table: str, partition: str) -> ApproxSpace:
    uname, tab = ws.tables[table]
    _, part = ws.partitions[partition]
    return ApproxSpace(ws.universes[uname], part, tab)


def cert_of(ws: Workspace, table: str, partition: str,
            group: str) -> RoughGroupCert:
    space = space_of(ws, table, partition)
    report, cert = verify_rough_group(space, ws.subsets[group][1])
    assert cert is not None, report.first_witness()
    return cert


def trg_of(ws: Workspace, table: str, partition: str, group: str,
           topology: str, **kw) -> TRGCert:
    cert = cert_of(ws, table, partition, group)
    _, tau = ws.topologies[topology]
    report, tcert = verify_trg(cert, tau, **kw)
    assert tcert is not None, report.first_witness()
    return tcert


@pytest.fixture(scope="session")
def fixa_cert(ws_zmod3) -> RoughGroupCert:
    return cert_of(ws_zmod3, "TA", "PA", "GA")


@pytest.fixture(scope="session")
def fixa_trg(ws_zmod3) -> TRGCert:
    return trg_of(ws_zmod3, "TA", "PA", "GA", "tauA")


@pytest.fixture(scope="session")
def fixb_cert(ws_s4) -> RoughGroupCert:
    return cert_of(ws_s4, "TB", "PB", "GB")


@pytest.fixture(scope="session")
def fixb_trg(ws_s4) -> TRGCert:
    return trg_of(ws_s4, "TB", "PB", "GB", "tauB")


@pytest.fixture(scope="session")
def fixa_rspace(ws_zmod3) -> RoughSpace:
    space = space_of(ws_zmod3, "TA", "PA")
    _, tau = ws_zmod3.topologies["tauA"]
    return RoughSpace(space, ws_zmod3.subsets["GA"][1], tau)


# ---------------------------------------------------------------------------
# oracle: the argparse parser with both subcommands built in full, their
# shared options copied from a parent parser, whatever the command line


def oracle_build_parser() -> argparse.ArgumentParser:
    # every HelpFormatter would ask the terminal for its width; ask once,
    # and wrap exactly as HelpFormatter does when given no width
    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    # the options of both subcommands, which take them as a parent
    common = argparse.ArgumentParser(add_help=False, formatter_class=fmt)
    common.add_argument("--file", help="input document (default: stdin)")
    common.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    common.add_argument("--cap", type=_non_negative_int, default=DEFAULT_SUBGROUP_ENUM_CAP,
                        help="size cap for enumerating subgroups")
    common.add_argument("--strict-hom", action="store_true",
                        help="also require the source upper approximation to "
                             "be closed under the operation")
    common.add_argument("--codomain-topology", choices=("upper", "relative"),
                        default="upper",
                        help="topology the product map is checked into")
    common.add_argument("--table")
    common.add_argument("--partition")
    common.add_argument("--group")
    common.add_argument("--subgroup")
    common.add_argument("--topology")
    common.add_argument("--map")
    common.add_argument("--src-table")
    common.add_argument("--src-partition")
    common.add_argument("--src-group")
    common.add_argument("--src-topology")
    common.add_argument("--tgt-table")
    common.add_argument("--tgt-partition")
    common.add_argument("--tgt-group")
    common.add_argument("--tgt-topology")
    common.add_argument("--x-partition")
    common.add_argument("--x-subset")
    common.add_argument("--x-topology")
    common.add_argument("--side", choices=("left", "right"), default="left")
    common.add_argument("--element")
    common.add_argument("--w")
    common.add_argument("--open")
    common.add_argument("--subset")
    common.add_argument("--base-member", action="append", default=[])
    common.add_argument("--max-size", type=_non_negative_int, default=3)

    p = argparse.ArgumentParser(
        prog="roughtop",
        description="Verify and explore finite rough algebraic-topological "
                    "structures described in a declaration file.",
        formatter_class=fmt,
    )
    sub = p.add_subparsers(dest="command", required=True)
    cp = sub.add_parser("check", parents=[common], formatter_class=fmt,
                        help="verify one structure or theorem instance")
    cp.add_argument("kind", choices=_next_words("check"))
    cp.add_argument("prop", nargs="?", default=None,
                    help="proposition name when kind is 'prop'")

    ep = sub.add_parser("enumerate", parents=[common], formatter_class=fmt,
                        help="list structures of a given kind")
    ep.add_argument("what", choices=_next_words("enumerate"))
    return p



# ---------------------------------------------------------------------------
# oracle: `enumerate topologies` listed through one FiniteTopology per
# topology, its opens matched as tuples and formatted mask by mask


def oracle_enumerate_topologies_report(r) -> VerificationReport:
    """The report of `enumerate topologies` for the command run `r`."""
    cert = r.group()
    n = cert.upper.bit_count()
    if n > r.args.max_size:
        raise InputError(
            f"the upper approximation has {n} points, exceeding "
            f"--max-size {r.args.max_size}"
        )
    u = r.universe
    # at most 2^n distinct opens occur, so each is formatted once
    set_str = cache(u.set_str)
    tops = enumerate_topologies(u, cert.upper)
    trg_opens = {t.opens for t in trg_topologies(cert, r.args.codomain_topology)}
    clauses = []
    for i, top in enumerate(tops):
        verdict = PASS if top.opens in trg_opens else FAIL
        opens = " ".join(map(set_str, top.opens))
        clauses.append(Clause(f"topology-{i}", INFO, f"trg={verdict} opens: {opens}"))
    return combine(r.name, clauses,
                   stats=[("count", len(tops)), ("trg-pass", len(trg_opens))])


# ---------------------------------------------------------------------------
# CLI runner


def run_cli(args: list[str], fixture: str | None = None,
            stdin: str | None = None):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    argv = list(args)
    if fixture is not None:
        argv += ["--file", str(FIXDIR / fixture)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if stdin is None:
            code = cli_main(argv)
        else:
            import sys

            old = sys.stdin
            sys.stdin = io.StringIO(stdin)
            try:
                code = cli_main(argv)
            finally:
                sys.stdin = old
    return code, out.getvalue(), err.getvalue()
