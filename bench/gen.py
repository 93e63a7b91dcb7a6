"""Seeded documents and known answers for the trg-dense workload.

Each operation gets its own document: a Cayley table (Z_n for n <= 12,
or the S4 table of fixtures/s4.rg), a partition, a rough group G of 1
to 8 members whose upper approximation has 2 to 12 points, and a
topology on that upper approximation drawn as a random preorder at one
of five densities, declared as its full list of opens.  The mix of
operation kinds and of (|G|, density) cells is fixed; the seed picks
everything else, so two seeds load the layers alike.

The known answer for each operation comes from `oracle`, computed from
the same raw sets the document was written from.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import oracle

LEVELS = ("discrete", "sparse", "medium", "dense", "indiscrete")
_EDGE_P = {"discrete": 0.0, "sparse": 0.08, "medium": 0.2, "dense": 0.45}

# The body of a pass: operation kind -> count.  Cell i of a kind has
# |G| = 1 + i % 4 (1 + i % 2 for topologies) and the next density after
# every round of sizes, so every seed loads the same cells.
BODY = {
    "trg": 120, "trg-relative": 80, "open-inverse": 80, "witness": 80,
    "topologies": 20, "trg-hom": 60, "trg-homeo": 60, "action": 60,
    "homogeneous": 60,
}
# Z_n moduli for the body, small tables weighted up
MODULI = (2, 3, 4) * 4 + (5, 6) * 3 + (7, 8) * 2 + (9, 10, 11, 12)
# The heavy group, twice per pass: instances at or past the seed
# program's limits, each a fixed shape (the seed only relabels it).
# (kind, |G|, density, modulus or S4, G is exact, points of the upper
# approximation)
HEAVY = (
    ("trg", 4, "discrete", 4, True, 4),          # product topology of 65536 opens
    ("trg", 4, "discrete", "S4", True, 4),       # the same over 576 pair names
    ("trg", 5, "discrete", 5, True, 5),          # refused by the 65536-open cap
    ("trg", 6, "discrete", 6, True, 6),
    ("trg", 7, "discrete", 7, True, 7),
    ("trg", 8, "discrete", 8, True, 8),
    ("action", 4, "discrete", 12, True, 4),      # product of 65536 opens over 144 pair names
    ("action", 5, "discrete", 5, True, 5),
    ("trg", 1, "discrete", 12, False, 12),       # 4096 declared opens to validate
    ("homogeneous", 7, "discrete", 7, True, 7),  # 5040 bijections, all homeomorphisms
    ("homogeneous", 8, "indiscrete", 8, True, 8),
    ("topologies", 4, "indiscrete", 4, True, 4),  # 355 topologies to verify
    ("topologies", 4, "indiscrete", 4, True, 4),
)

_SET = re.compile(r"\{([^}]*)\}")


@dataclass
class Instance:
    names: list
    table: list
    blocks: list
    g: frozenset
    nb: dict                     # N(p) for every point of the upper approximation
    up: frozenset = field(init=False)

    def __post_init__(self):
        self.up = oracle.upper_of(self.blocks, self.g)


@dataclass
class Op:
    kind: str
    argv: list
    doc: str
    expect: int                  # expected exit code
    check: object = None         # callable(stdout) -> True when the report is right


def load_s4(root: Path):
    """Element names and table of fixtures/s4.rg, read without the package."""
    lines = (root / "fixtures" / "s4.rg").read_text(encoding="utf-8").splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("table TB on UB:"))
    names = next(l for l in lines if l.startswith("universe UB:")).split(":", 1)[1].split()
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[t] for t in lines[start + 1 + r].split()] for r in range(len(names))]
    return names, rows


def random_preorder(rng: random.Random, pts, level: str) -> dict:
    pts = sorted(pts)
    if level == "indiscrete":
        return {p: frozenset(pts) for p in pts}
    q = _EDGE_P[level]
    order = pts[:]
    rng.shuffle(order)
    rel = {p: {p} for p in pts}
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if rng.random() < q:
                rel[a].add(b)
            if rng.random() < q / 3:
                rel[b].add(a)
    changed = True
    while changed:
        changed = False
        for a in pts:
            grown = set().union(*(rel[b] for b in rel[a]))
            if grown != rel[a]:
                rel[a] = grown
                changed = True
    return {p: frozenset(rel[p]) for p in pts}


def _random_blocks(rng, atoms) -> list:
    """Random set partition of a list of atoms (each atom a frozenset)."""
    blocks = []
    for a in atoms:
        if blocks and rng.random() < 0.5:
            rng.choice(blocks).update(a)
        else:
            blocks.append(set(a))
    return blocks


def _z_instance(rng, n, k, exact, level, neg_atoms, pad_all):
    table = oracle.z_table(n)
    if neg_atoms:
        atoms = {frozenset({x, (-x) % n}) for x in range(n)}
    else:
        atoms = {frozenset({x}) for x in range(n)}
    if exact:
        g = frozenset(range(0, n, n // k))
        s = g
    else:
        g = set()
        while len(g) < k:
            x = rng.randrange(n)
            g |= {x, (-x) % n}
        if len(g) != k:
            return None
        g = frozenset(g)
        s = g | {table[x][y] for x in g for y in g} | {0}
    inside = sorted((a for a in atoms if a <= g), key=sorted)
    rng.shuffle(inside)
    g_blocks = _random_blocks(rng, inside)
    rest = []
    for a in sorted((a for a in atoms if not a <= g), key=sorted):
        if a & s or (not exact and (pad_all or rng.random() < 0.15)):
            rng.choice(g_blocks).update(a)
        else:
            rest.append(a)
    rng.shuffle(rest)
    blocks = [frozenset(b) for b in g_blocks + _random_blocks(rng, rest)]
    up = oracle.upper_of(blocks, g)
    nb = random_preorder(rng, up, level)
    return Instance([str(i) for i in range(n)], table, blocks, g, nb)


def _s4_instance(rng, s4, k, exact, level):
    names, table = s4
    h = set()
    gens = [rng.randrange(24) for _ in range(rng.choice((1, 2)))]
    frontier = set(gens) | {0}
    while frontier - h:
        h |= frontier
        frontier = {table[a][b] for a in h for b in h}
    if len(h) > 12:
        return None
    inv = {x: next(y for y in range(24) if table[x][y] == 0) for x in range(24)}
    if exact:
        if len(h) != k:
            return None
        g = frozenset(h)
    else:
        g = set()
        pool = sorted(h)
        while len(g) < min(k, len(h)):
            x = rng.choice(pool)
            g |= {x, inv[x]}
        if len(g) != k:
            return None
        g = frozenset(g)
    s = g | {table[x][y] for x in g for y in g} | {0}
    g_blocks = _random_blocks(rng, [frozenset({x}) for x in sorted(g)])
    rest = []
    for x in range(24):
        if x in g:
            continue
        if x in s or (not exact and x in h and rng.random() < 0.15):
            rng.choice(g_blocks).add(x)
        else:
            rest.append(frozenset({x}))
    rng.shuffle(rest)
    blocks = [frozenset(b) for b in g_blocks + _random_blocks(rng, rest)]
    up = oracle.upper_of(blocks, g)
    return Instance(names, table, blocks, g, random_preorder(rng, up, level))


def _instance(rng, s4, kind, k, level, n=None, exact=None, m=None) -> Instance:
    """Draw until the instance suits the operation kind and the fixed
    shape, where one is given."""
    for _ in range(1000):
        ex = rng.random() < 0.4 if exact is None else exact
        use_s4 = n == "S4" or n is None and kind in (
            "trg", "trg-relative", "open-inverse", "witness", "homogeneous"
        ) and rng.random() < 0.2
        if use_s4:
            inst = _s4_instance(rng, s4, k, ex, level)
        else:
            mod = n or rng.choice([v for v in MODULI if v >= k])
            if ex and mod % k:
                continue
            inst = _z_instance(rng, mod, k, ex, level,
                               neg_atoms=kind in ("trg-hom", "trg-homeo"),
                               pad_all=not ex and (m == mod or kind == "action"))
        if inst is None:
            continue
        size = len(inst.up)
        if m is not None and size != m:
            continue
        lo, hi = 2, 12
        if m is None:
            lo, hi = _BODY_SIZES.get(kind, (2, 12))
            hi = min(hi, _BODY_MAX_POINTS.get(level, 12))
        if not lo <= size <= hi:
            continue
        if kind == "action" and any(
                inst.table[a][b] not in inst.up for a in inst.up for b in inst.up):
            continue  # the action map must land in the upper approximation
        if oracle.rough_group(inst.table, inst.blocks, inst.g) is None:
            continue
        return inst
    raise RuntimeError(f"no {kind} instance with |G|={k} at {level}")


# upper-approximation sizes the body allows per density and per kind;
# larger ones, whose declared families run to thousands of opens, sit in
# the heavy group
_BODY_MAX_POINTS = {"discrete": 8, "sparse": 10}
_BODY_SIZES = {"topologies": (2, 3), "action": (2, 4), "homogeneous": (3, 6)}


def _mask_key(s) -> int:
    return sum(1 << i for i in s)


def _fmt(names, s) -> str:
    return "{" + " ".join(names[i] for i in sorted(s)) + "}"


def render(inst: Instance, extra: str = "") -> str:
    nm = inst.names
    opens = sorted(oracle.opens_of(inst.nb), key=_mask_key)
    lines = [f"universe U: {' '.join(nm)}", "table T on U:"]
    lines += ["  " + " ".join(nm[v] for v in row) for row in inst.table]
    lines.append("partition P on U: "
                 + " ".join(_fmt(nm, b) for b in sorted(inst.blocks, key=_mask_key)))
    lines.append(f"subset G of U: {' '.join(nm[i] for i in sorted(inst.g))}")
    lines.append(f"subset GBAR of U: {' '.join(nm[i] for i in sorted(inst.up))}")
    lines.append("topology tau on GBAR: " + " ".join(_fmt(nm, o) for o in opens))
    return "\n".join(lines) + "\n" + extra


def _parse_sets(names, text) -> list:
    index = {n: i for i, n in enumerate(names)}
    return [frozenset(index[t] for t in m.split(",") if t) for m in _SET.findall(text)]


def _stat(out: str, key: str) -> int | None:
    m = re.search(rf"^  stat {re.escape(key)}=(\d+)$", out, re.M)
    return int(m.group(1)) if m else None


TRG_FLAGS = "--table T --partition P --group G --topology tau"


def make_op(rng, s4, kind, k, level, *shape) -> Op:
    inst = _instance(rng, s4, kind, k, level, *shape)
    rg = oracle.rough_group(inst.table, inst.blocks, inst.g)
    nb, nm = inst.nb, inst.names
    is_trg = oracle.trg(rg, nb)
    if kind in ("trg", "trg-relative"):
        mode = "upper" if kind == "trg" else "relative"
        argv = f"check trg {TRG_FLAGS}"
        if mode == "relative":
            argv += " --codomain-topology relative"
        return Op(kind, argv.split(), render(inst), 0 if oracle.trg(rg, nb, mode) else 1)
    if kind == "open-inverse":
        nb_g = oracle.restrict(nb, rg.g)
        code = 2 if not is_trg else (0 if oracle.continuous(rg.inv, nb_g, nb_g) else 1)
        return Op(kind, f"check prop open-inverse {TRG_FLAGS}".split(), render(inst), code)
    if kind == "witness":
        w = nb[rg.e] | nb[rng.choice(sorted(inst.up))]
        doc = render(inst, f"subset W of U: {' '.join(nm[i] for i in sorted(w))}\n")
        want = oracle.symmetric_square_witnesses(rg, nb, w) if is_trg else None

        def check(out, want=want, names=nm):
            items = [l for l in out.splitlines() if l.startswith("  item-")]
            return (_parse_sets(names, "".join(items)) == want
                    and _stat(out, "count") == len(want))
        return Op(kind, f"enumerate witness --w W {TRG_FLAGS}".split(), doc,
                  0 if is_trg else 2, check if is_trg else None)
    if kind == "topologies":
        m = len(inst.up)

        def check(out, rg=rg, names=nm, m=m):
            seen = set()
            passes = 0
            for line in out.splitlines():
                if not line.startswith("  topology-"):
                    continue
                verdict, _, sets = line.partition("trg=")[2].partition(" opens: ")
                fam = frozenset(_parse_sets(names, sets))
                if fam in seen or not oracle.is_topology(rg.up, fam):
                    return False
                seen.add(fam)
                ok = oracle.trg(rg, oracle.neighbourhoods(rg.up, fam))
                if verdict != ("pass" if ok else "fail"):
                    return False
                passes += ok
            return (len(seen) == oracle.A000798[m] == _stat(out, "count")
                    and _stat(out, "trg-pass") == passes)
        argv = "enumerate topologies --max-size 4 --table T --partition P --group G"
        return Op(kind, argv.split(), render(inst), 0, check)
    if kind in ("trg-hom", "trg-homeo"):
        n = len(nm)
        neg = {x: (-x) % n for x in inst.up}
        doc = render(inst, "map neg from GBAR to GBAR: "
                     + " ".join(f"{x}->{neg[x]}" for x in sorted(inst.up)) + "\n")
        t = inst.table
        hom = all(neg[t[x][y]] == t[neg[x]][neg[y]]
                  for x in inst.up for y in inst.up if t[x][y] in inst.up)
        trg_hom = hom and oracle.continuous(neg, nb, nb)
        if not is_trg:
            code = 2
        elif kind == "trg-hom":
            code = 0 if trg_hom else 1
        else:
            code = 0 if trg_hom else 2
        flags = " ".join(f"--{side}-{f} {v}" for side in ("src", "tgt") for f, v in
                         (("table", "T"), ("partition", "P"), ("group", "G"),
                          ("topology", "tau")))
        return Op(kind, f"check {kind} {flags} --map neg".split(), doc, code)
    if kind == "action":
        n = len(nm)
        up = sorted(inst.up)
        pairs = [(a, b) for a in range(n) for b in range(n)]
        extra = ("universe UxU: " + " ".join(f"({nm[a]},{nm[b]})" for a, b in pairs) + "\n"
                 + "subset DOM of UxU: "
                 + " ".join(f"({nm[a]},{nm[b]})" for a in up for b in up) + "\n"
                 + "map mu from DOM to GBAR: "
                 + " ".join(f"({nm[a]},{nm[b]})->{nm[inst.table[a][b]]}"
                            for a in up for b in up) + "\n")
        t = inst.table
        closed = all(t[a][b] in inst.up for a in up for b in up)
        if not (is_trg and closed):
            code = 2
        else:
            cont = all(t[a][b] in nb[t[g][x]]
                       for g in up for x in up for a in nb[g] for b in nb[x])
            laws = (all(t[g][t[h][x]] == t[t[g][h]][x]
                        for g in up for h in up for x in up)
                    and all(t[rg.e][x] == x for x in up))
            code = 0 if cont and laws else 1
        argv = (f"check action {TRG_FLAGS} --x-partition P --x-subset G "
                "--x-topology tau --map mu")
        return Op(kind, argv.split(), render(inst, extra), code)
    if kind == "homogeneous":
        argv = "check homogeneous --x-partition P --x-subset G --x-topology tau"
        return Op(kind, argv.split(), render(inst), 0 if oracle.homogeneous(nb) else 1)
    raise ValueError(kind)


def make_pass(seed: int, root: Path) -> list:
    """One pass of the workload: the fixed body cells and the heavy
    group, filled in from the seed, in a seeded order."""
    rng = random.Random(seed)
    s4 = load_s4(root)
    ops = []
    for kind, count in BODY.items():
        sizes = 2 if kind == "topologies" else 4
        for i in range(count):
            ops.append(make_op(rng, s4, kind, 1 + i % sizes,
                               LEVELS[i // sizes % len(LEVELS)]))
    rng.shuffle(ops)
    heavy = [make_op(rng, s4, kind, k, level, *shape) for kind, k, level, *shape in HEAVY * 2]
    return heavy + ops
