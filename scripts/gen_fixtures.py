#!/usr/bin/env python3
"""Regenerate the bundled fixture documents under fixtures/.

Every fixture is produced from first principles in this script (modular
addition tables, permutation composition, a brute-force union and
intersection closure for the one product topology we ship) rather than
through the library, so the files double as an independent cross-check
of the package.  Output is deterministic: rerunning the script must be
a no-op on a clean checkout.
"""

from __future__ import annotations

import itertools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"


# ---------------------------------------------------------------------------
# small helpers


def zmod_rows(n: int) -> list[list[str]]:
    return [[str((x + y) % n) for y in range(n)] for x in range(n)]


def cycle_name(perm: tuple[int, ...]) -> str:
    """Cycle notation on objects 1..n, fixed points dropped, '1' if trivial."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = perm[i]
        parts.append("(" + "".join(str(j + 1) for j in cyc) + ")")
    return "".join(parts) if parts else "1"


def compose(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """x * y = apply y first, then x."""
    return tuple(x[y[i]] for i in range(len(y)))


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lens = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        k, i = 0, start
        while not seen[i]:
            seen[i] = True
            k += 1
            i = perm[i]
        lens.append(k)
    return tuple(sorted(lens, reverse=True))


def s4_universe() -> tuple[list[str], dict[str, tuple[int, ...]], list[list[str]]]:
    """Names in class order (identity+transpositions, then 3-cycles,
    4-cycles, double transpositions), plus the composition table."""
    rank = {(1, 1, 1, 1): 0, (2, 1, 1): 0, (3, 1): 1, (4,): 2, (2, 2): 3}
    perms = list(itertools.permutations(range(4)))
    named = [(cycle_name(p), p) for p in perms]
    named.sort(key=lambda np: (rank[cycle_type(np[1])], np[0] != "1", np[0]))
    names = [n for n, _ in named]
    by_name = dict(named)
    name_of = {p: n for n, p in named}
    rows = [
        [name_of[compose(by_name[x], by_name[y])] for y in names]
        for x in names
    ]
    return names, by_name, rows


def s4_classes(names: list[str], by_name) -> list[list[str]]:
    rank = {(1, 1, 1, 1): 0, (2, 1, 1): 0, (3, 1): 1, (4,): 2, (2, 2): 3}
    blocks: list[list[str]] = [[], [], [], []]
    for n in names:
        blocks[rank[cycle_type(by_name[n])]].append(n)
    return blocks


def close_family(masks: set[int]) -> list[int]:
    """Union/intersection closure by fixpoint, smallest first."""
    fam = set(masks)
    changed = True
    while changed:
        changed = False
        items = sorted(fam)
        for a in items:
            for b in items:
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return sorted(fam)


# ---------------------------------------------------------------------------
# document emission


class Doc:
    def __init__(self, title: str):
        self.lines = [f"# {title}"]

    def blank(self):
        self.lines.append("")

    def universe(self, name: str, elems: list[str]):
        self.lines.append(f"universe {name}: " + " ".join(elems))

    def table(self, name: str, uni: str, rows: list[list[str]]):
        self.lines.append(f"table {name} on {uni}:")
        for row in rows:
            self.lines.append("  " + " ".join(row))

    def partition(self, name: str, uni: str, blocks: list[list[str]]):
        groups = " ".join("{" + " ".join(b) + "}" for b in blocks)
        self.lines.append(f"partition {name} on {uni}: {groups}")

    def subset(self, name: str, uni: str, elems: list[str]):
        self.lines.append(f"subset {name} of {uni}: " + " ".join(elems))

    def topology(self, name: str, carrier: str, opens: list[list[str]]):
        groups = " ".join("{" + " ".join(o) + "}" for o in opens)
        self.lines.append(f"topology {name} on {carrier}: {groups}")

    def map(self, name: str, src: str, dst: str, pairs: list[tuple[str, str]]):
        body = " ".join(f"{a}->{b}" for a, b in pairs)
        self.lines.append(f"map {name} from {src} to {dst}: {body}")

    def write(self, path: Path):
        path.write_text("\n".join(self.lines) + "\n", encoding="utf-8")


def masks_to_opens(masks: list[int], elems: list[str]) -> list[list[str]]:
    return [[elems[i] for i in range(len(elems)) if (m >> i) & 1]
            for m in sorted(masks)]


def all_subset_opens(elems: list[str]) -> list[list[str]]:
    return masks_to_opens(list(range(1 << len(elems))), elems)


Z3 = [str(i) for i in range(3)]
Z3_TAU = [[], ["1"], ["2"], ["1", "2"], ["0", "1", "2"]]


def emit_zmod3(doc: Doc):
    doc.universe("UA", Z3)
    doc.table("TA", "UA", zmod_rows(3))
    doc.partition("PA", "UA", [["0", "2"], ["1"]])
    doc.subset("GA", "UA", ["1", "2"])
    doc.subset("GbarA", "UA", Z3)
    doc.subset("HA", "UA", ["1"])
    doc.topology("tauA", "GbarA", Z3_TAU)
    doc.topology("tauA2", "GbarA", [[], ["0"], ["0", "1", "2"]])
    doc.map("neg", "GbarA", "GbarA", [("0", "0"), ("1", "2"), ("2", "1")])


def gen_zmod3():
    doc = Doc("3-element cyclic table with a 2-block partition")
    emit_zmod3(doc)
    doc.write(FIXDIR / "zmod3.rg")


def emit_s4(doc: Doc):
    names, by_name, rows = s4_universe()
    blocks = s4_classes(names, by_name)
    gbar = blocks[0] + blocks[1]
    doc.universe("UB", names)
    doc.table("TB", "UB", rows)
    doc.partition("PB", "UB", blocks)
    doc.subset("GB", "UB", ["(12)", "(123)", "(132)"])
    doc.subset("GbarB", "UB", gbar)
    doc.subset("WB", "UB", ["1", "(12)", "(123)", "(132)"])
    doc.subset("HB", "UB", ["(123)", "(132)"])
    doc.subset("GPB", "UB", ["(12)", "(13)(24)"])
    doc.subset("A12", "UB", ["(12)"])
    doc.topology("tauB", "GbarB", [
        [],
        ["(12)"],
        ["1", "(123)", "(132)"],
        ["1", "(12)", "(123)", "(132)"],
        gbar,
    ])


def gen_s4():
    doc = Doc("symmetric group on four objects, partitioned by shape")
    emit_s4(doc)
    doc.write(FIXDIR / "s4.rg")


def gen_product():
    pair = [f"({a},{b})" for a in Z3 for b in Z3]
    rows = [
        [f"({(a + c) % 3},{(b + d) % 3})" for c in range(3) for d in range(3)]
        for a in range(3) for b in range(3)
    ]
    blocks_z3 = [["0", "2"], ["1"]]
    blocks = [
        [f"({a},{b})" for a in Z3 for b in Z3 if a in ba and b in bb]
        for ba in blocks_z3 for bb in blocks_z3
    ]
    g = [f"({a},{b})" for a in ["1", "2"] for b in ["1", "2"]]

    idx = {n: i for i, n in enumerate(pair)}
    tau_masks = {
        sum(1 << idx[f"({a},{b})"] for a in o1 for b in o2)
        for o1 in Z3_TAU for o2 in Z3_TAU
    }
    opens = masks_to_opens(close_family(tau_masks), pair)

    doc = Doc("componentwise product of the 3-element fixture with itself")
    doc.universe("UP", pair)
    doc.table("TP", "UP", rows)
    doc.partition("PP", "UP", blocks)
    doc.subset("GP", "UP", g)
    doc.subset("GbarP", "UP", pair)
    doc.topology("tauP", "GbarP", opens)
    doc.write(FIXDIR / "zmod3_product.rg")


def gen_hom():
    doc = Doc("constant homomorphism between the two bundled groups")
    emit_zmod3(doc)
    doc.blank()
    emit_s4(doc)
    doc.blank()
    doc.map("Phi", "GbarA", "GbarB", [("0", "1"), ("1", "1"), ("2", "1")])
    doc.map("Phi2", "GbarA", "GbarB", [("0", "1"), ("1", "(12)"), ("2", "1")])
    doc.map("emb", "GbarA", "GbarB",
            [("0", "1"), ("1", "(123)"), ("2", "(132)")])
    doc.write(FIXDIR / "hom_z3_to_s4.rg")


def gen_zmod4():
    elems = [str(i) for i in range(4)]
    doc = Doc("4-element cyclic table whose identity stays inside G")
    doc.universe("U4", elems)
    doc.table("T4", "U4", zmod_rows(4))
    doc.partition("P4", "U4", [["0", "1"], ["2", "3"]])
    doc.subset("G4", "U4", ["0", "1", "3"])
    doc.subset("Gbar4", "U4", elems)
    doc.subset("B0", "U4", ["0"])
    doc.subset("B1", "U4", ["1"])
    doc.subset("B3", "U4", ["3"])
    doc.topology("tau4", "Gbar4", all_subset_opens(elems))
    doc.write(FIXDIR / "zmod4_discrete.rg")


def gen_selfaction():
    pair = [f"({a},{b})" for a in Z3 for b in Z3]
    doc = Doc("3-element group acting on itself")
    emit_zmod3(doc)
    doc.topology("tauD", "GbarA", all_subset_opens(Z3))
    doc.universe("UAxUA", pair)
    doc.map("mu", "UAxUA", "UA",
            [(f"({a},{b})", str((int(a) + int(b)) % 3))
             for a in Z3 for b in Z3])
    doc.map("mut", "UAxUA", "UA",
            [(f"({a},{b})", b) for a in Z3 for b in Z3])
    doc.write(FIXDIR / "zmod3_selfaction.rg")


BAD_DOCS = {
    "missing_colon.rg": "universe UA 0 1 2\n",
    "unknown_kind.rg": "universes UA: 0 1 2\n",
    "duplicate_name.rg": "universe UA: 0 1 2\nuniverse UA: 3 4\n",
    "unknown_universe.rg": "subset G of UX: 1\n",
    "unknown_element.rg": "universe UA: 0 1 2\nsubset G of UA: 5\n",
    "short_table_row.rg": (
        "universe UA: 0 1 2\ntable TA on UA:\n0 1 2\n1 2\n2 0 1\n"
    ),
    "missing_table_rows.rg": "universe UA: 0 1 2\ntable TA on UA:\n0 1 2\n",
    "unbalanced_brace.rg": (
        "universe UA: 0 1 2\npartition PA on UA: {0 2 {1}\n"
    ),
    "outside_braces.rg": (
        "universe UA: 0 1 2\npartition PA on UA: {0 2} 1\n"
    ),
    "bad_map_pair.rg": (
        "universe UA: 0 1 2\nmap f from UA to UA: 0->0 1 2->2\n"
    ),
    "noncovering_partition.rg": (
        "universe UA: 0 1 2\npartition PA on UA: {0} {1}\n"
    ),
    "topology_no_carrier.rg": (
        "universe UA: 0 1 2\ntopology t on UA: {} {1}\n"
    ),
    "duplicate_universe_element.rg": "universe UA: 0 0 1\n",
    "empty_braces_partition.rg": (
        "universe UA: 0 1 2\npartition PA on UA: {0 1 2} {}\n"
    ),
    "element_inside_keyword.rg": "universe U: a b\nsubset S of U: t\n",
    "unknown_element_subset_topology.rg": (
        "universe U: a b c\nsubset S of U: a b\ntopology t on S: {} {z} {a b}\n"
    ),
    "unknown_element_subset_map.rg": (
        "universe U: a b c\nsubset S of U: a b\nmap m from S to U: a->a q->b\n"
    ),
    "map_outside_domain.rg": (
        "universe U: a b c\nsubset S of U: a b\nmap m from S to U: a->a b->b c->a\n"
    ),
    "topology_outside_carrier.rg": (
        "universe U: a b c\nsubset S of U: a b\ntopology t on S: {} {a} {a c} {a b}\n"
    ),
}


def gen_bad():
    bad = FIXDIR / "bad"
    bad.mkdir(parents=True, exist_ok=True)
    for fname, text in sorted(BAD_DOCS.items()):
        (bad / fname).write_text(text, encoding="utf-8")


def main():
    FIXDIR.mkdir(parents=True, exist_ok=True)
    gen_zmod3()
    gen_s4()
    gen_product()
    gen_hom()
    gen_zmod4()
    gen_selfaction()
    gen_bad()
    count = len(list(FIXDIR.glob("*.rg"))) + len(list(FIXDIR.glob("bad/*.rg")))
    print(f"wrote {count} fixture documents under {FIXDIR}")


if __name__ == "__main__":
    main()
