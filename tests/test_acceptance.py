"""Acceptance gate: eight end-to-end criteria with pinned runtimes.

Each test exercises one headline capability of the toolkit against frozen
expected values, measures wall-clock time with time.perf_counter, and prints
a single summary line.  Run with `pytest tests/test_acceptance.py -v -s` to
see the per-criterion lines; plain `pytest` only reports pass/fail.

Criteria and pins:
  1. two-block mod-3 fixture: approximations, tau_G, CLI verdict      < 1 s
  2. permutation fixture: block sizes, 15-point upper, CLI verdict    < 1 s
  3. product structure: blocks, products, inverses, CLI verdict       < 5 s
  4. homomorphism fixture: compatibility, continuity, kernel          < 1 s
  5. proposition suite over every topology on a 3-point carrier       < 10 s
  6. oracle equivalence sweeps (topologies and approximations)        < 30 s
  7. parser round-trips and line-accurate rejection of malformed files
  8. byte-for-byte determinism of every pinned CLI invocation
"""

import random
import time

from conftest import (
    FIXDIR,
    load_fixture,
    mask_to_set,
    oracle_all_topologies,
    oracle_close_family,
    oracle_lower,
    oracle_upper,
    run_cli,
    serialize_workspace,
    space_of,
    cert_of,
    trg_of,
)
from test_cli import MATRIX
from test_parser import BAD_CASES

from roughtop.approx import (
    ApproxSpace,
    Partition,
    Universe,
    lower_approx,
    upper_approx,
)
from roughtop.groups import (
    CayleyTable,
    enumerate_rough_subgroups,
    is_rough_normal,
    product_rough_group,
    rough_kernel,
)
from roughtop.homs import verify_trg_homomorphism
from roughtop.parser import parse_spec
from roughtop.topology import generate_topology
from roughtop.trg import (
    check_G_equals_G_inverse,
    check_open_iff_inverse_open,
    check_translations,
    inverse_of_set,
    verify_trg,
)


def _report(criterion: str, elapsed: float, detail: str) -> None:
    print(f"ACCEPT {criterion}: pass ({elapsed:.3f}s) {detail}")


def test_criterion_1_two_block_mod3_fixture():
    t0 = time.perf_counter()
    ws = load_fixture("zmod3.rg")
    space = space_of(ws, "TA", "PA")
    g_mask = ws.subsets["GA"][1]
    u = space.universe

    assert u.names_of(lower_approx(space, g_mask)) == ("1",)
    assert u.names_of(upper_approx(space, g_mask)) == ("0", "1", "2")

    tc = trg_of(ws, "TA", "PA", "GA", "tauA")
    families = {u.set_str(m) for m in tc.tau_G.opens}
    assert families == {"{}", "{1}", "{2}", "{1,2}"}

    code, out, _ = run_cli(
        "check trg --table TA --partition PA --group GA --topology tauA".split(),
        fixture="zmod3.rg")
    assert code == 0
    assert out.splitlines()[0] == "PASS trg"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion-1", elapsed,
            "lower {1}, upper {0,1,2}, tau_G has 4 opens, CLI verdict PASS")


def test_criterion_2_permutation_fixture():
    t0 = time.perf_counter()
    ws = load_fixture("s4.rg")
    space = space_of(ws, "TB", "PB")
    g_mask = ws.subsets["GB"][1]
    u = space.universe

    sizes = sorted(bin(b).count("1") for b in space.partition.blocks)
    assert sizes == [3, 6, 7, 8]
    identity_block = next(b for b in space.partition.blocks if b >> u.index("1") & 1)
    assert bin(identity_block).count("1") == 7

    assert lower_approx(space, g_mask) == 0
    assert bin(upper_approx(space, g_mask)).count("1") == 15

    rep, tcert = verify_trg(cert_of(ws, "TB", "PB", "GB"),
                            ws.topologies["tauB"][1])
    assert rep.verdict == "pass" and tcert is not None
    stats = dict(rep.stats)
    assert stats["tau-opens"] == 5
    assert stats["tau-G-opens"] == 4
    assert stats["product-opens"] == 16

    code, out, _ = run_cli(
        "check trg --table TB --partition PB --group GB --topology tauB".split(),
        fixture="s4.rg")
    assert code == 0 and out.splitlines()[0] == "PASS trg"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion-2", elapsed,
            "block sizes 3/6/7/8, empty lower, 15-point upper, CLI verdict PASS")


def test_criterion_3_product_structure():
    t0 = time.perf_counter()
    wa = load_fixture("zmod3.rg")
    wp = load_fixture("zmod3_product.rg")
    cert_a = cert_of(wa, "TA", "PA", "GA")
    cert_c = product_rough_group(cert_a, cert_a)

    space = cert_c.space
    u = space.universe
    assert len(space.partition.blocks) == 4
    assert u.elements == wp.universes["UP"].elements
    assert cert_c.g_mask == wp.subsets["GP"][1]
    assert u.names_of(cert_c.g_mask) == ("(1,1)", "(1,2)", "(2,1)", "(2,2)")

    def prod(x: str, y: str) -> str:
        return u.elements[space.op.rows[u.index(x)][u.index(y)]]

    expected_products = {
        ("(2,2)", "(2,2)"): "(1,1)",
        ("(2,2)", "(2,1)"): "(1,0)",
        ("(2,2)", "(1,1)"): "(0,0)",
        ("(2,2)", "(1,2)"): "(0,1)",
        ("(2,1)", "(2,1)"): "(1,2)",
        ("(2,1)", "(1,1)"): "(0,2)",
        ("(2,1)", "(1,2)"): "(0,0)",
        ("(1,1)", "(1,1)"): "(2,2)",
        ("(1,1)", "(1,2)"): "(2,0)",
    }
    for (x, y), want in expected_products.items():
        assert prod(x, y) == want, (x, y, prod(x, y))

    assert u.elements[cert_c.inverse.apply(u.index("(2,1)"))] == "(1,2)"

    trep, _ = verify_trg(cert_c, wp.topologies["tauP"][1])
    assert trep.verdict == "pass"
    stats = dict(trep.stats)
    assert stats["tau-opens"] == 48
    assert stats["tau-G-opens"] == 16
    assert stats["product-opens"] == 65536

    code, out, _ = run_cli(
        "check trg --table TP --partition PP --group GP --topology tauP".split(),
        fixture="zmod3_product.rg")
    assert code == 0 and out.splitlines()[0] == "PASS trg"

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion-3", elapsed,
            "4 blocks, 9 frozen products, (2,1) inverse (1,2), CLI verdict PASS")


def test_criterion_4_homomorphism_fixture():
    t0 = time.perf_counter()
    ws = load_fixture("hom_z3_to_s4.rg")
    src = trg_of(ws, "TA", "PA", "GA", "tauA")
    tgt = trg_of(ws, "TB", "PB", "GB", "tauB")
    phi = ws.maps["Phi"][2]

    rep, hom = verify_trg_homomorphism(src, tgt, phi)
    assert rep.verdict == "pass" and hom is not None
    assert rep.clause("rough-homomorphism").verdict == "pass"
    assert rep.clause("continuity").verdict == "pass"
    assert rep.clause("classification").witness == "homomorphism-only"

    kmask, kernel_rep = rough_kernel(hom.algebra)
    u1 = src.group.space.universe
    assert u1.names_of(kmask) == ("1", "2")
    krep = is_rough_normal(src.group, kmask)
    assert krep.verdict == "pass"

    tail = ("check trg-hom --src-table TA --src-partition PA --src-group GA "
            "--src-topology tauA --tgt-table TB --tgt-partition PB "
            "--tgt-group GB --tgt-topology tauB --map Phi").split()
    code, out, _ = run_cli(tail, fixture="hom_z3_to_s4.rg")
    assert code == 0
    assert out.splitlines()[0] == "PASS trg-homomorphism"
    assert "  kernel-elements: info  witness: {1,2}" in out.splitlines()
    assert "  kernel-normal: info  witness: pass" in out.splitlines()

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion-4", elapsed,
            "compatibility + continuity PASS, kernel {1,2} is rough normal")


def test_criterion_5_proposition_suite_over_all_topologies():
    t0 = time.perf_counter()
    ws = load_fixture("zmod3.rg")
    cert = cert_of(ws, "TA", "PA", "GA")
    u = cert.space.universe
    carrier = cert.upper
    from roughtop.topology import enumerate_topologies
    tops = enumerate_topologies(u, carrier)
    assert len(tops) == 29
    assert {tuple(sorted(t.opens)) for t in tops} == {
        tuple(sorted(fam)) for fam in oracle_all_topologies(3)}

    passing = 0
    counterexamples = []
    for tau in tops:
        rep, tcert = verify_trg(cert, tau)
        if rep.verdict != "pass":
            continue
        passing += 1
        if check_G_equals_G_inverse(tcert).verdict != "pass":
            counterexamples.append(("g-inverse", tau.opens))
        if check_open_iff_inverse_open(tcert).verdict != "pass":
            counterexamples.append(("open-inverse", tau.opens))
        for i in sorted(mask_to_set(cert.g_mask)):
            if check_translations(tcert, i).verdict != "pass":
                counterexamples.append(("translation", i, tau.opens))
        for h_mask in enumerate_rough_subgroups(cert):
            if inverse_of_set(tcert, h_mask) != h_mask:
                counterexamples.append(("subgroup-symmetry", h_mask))
    assert passing == 10
    assert counterexamples == []

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion-5", elapsed,
            "29 topologies enumerated, 10 admit a TRG, 0 counterexamples")


def _closure_sweep(n: int) -> int:
    """Compare generate_topology with the union/intersection fixpoint oracle
    on every subbasis over an n-point carrier.  For n <= 3 the oracle is run
    directly; for n = 4 the fixpoint is built by dynamic programming over
    family bitmasks, adding one member at a time with a small worklist."""
    u = Universe(tuple(str(i) for i in range(n)))
    carrier = (1 << n) - 1
    n_subsets = 1 << n
    checked = 0
    if n <= 3:
        for famask in range(1 << n_subsets):
            members = [s for s in range(n_subsets) if famask >> s & 1]
            got = set(generate_topology(u, carrier, members).opens)
            want = set(oracle_close_family(carrier, members))
            assert got == want, (n, members)
            checked += 1
        return checked

    def close_with(fam: int, new: int) -> int:
        work = [new]
        while work:
            x = work.pop()
            bit = 1 << x
            if fam & bit:
                continue
            fam |= bit
            for y in range(n_subsets):
                if fam >> y & 1:
                    work.append(x | y)
                    work.append(x & y)
        return fam

    base = (1 << 0) | (1 << carrier)
    closures = [0] * (1 << n_subsets)
    closures[0] = close_with(close_with(0, 0), carrier)
    assert closures[0] == base
    for famask in range(1, 1 << n_subsets):
        low = famask & -famask
        member = low.bit_length() - 1
        closures[famask] = close_with(closures[famask ^ low], member)

    for famask in range(1 << n_subsets):
        members = [s for s in range(n_subsets) if famask >> s & 1]
        got = 0
        for m in generate_topology(u, carrier, members).opens:
            got |= 1 << m
        assert got == closures[famask], (famask, members)
        checked += 1
    return checked


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    topo_checked = sum(_closure_sweep(n) for n in (1, 2, 3, 4))
    assert topo_checked == 4 + 16 + 256 + 65536

    rng = random.Random(20260815)
    approx_checked = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        names = tuple(str(i) for i in range(n))
        u = Universe(names)
        k = rng.randint(1, n)
        assignment = [rng.randrange(k) for _ in range(n)]
        blocks = {}
        for i, b in enumerate(assignment):
            blocks.setdefault(b, set()).add(names[i])
        part = Partition.from_names(u, blocks.values())
        mask = rng.randrange(1 << n)
        space = ApproxSpace(u, part, CayleyTable.from_names(
            u, [[names[0]] * n] * n))
        oracle_blocks = [frozenset(b) for b in blocks.values()]
        xs = frozenset(u.names_of(mask))
        assert frozenset(u.names_of(lower_approx(space, mask))) == (
            oracle_lower(oracle_blocks, xs))
        assert frozenset(u.names_of(upper_approx(space, mask))) == (
            oracle_upper(oracle_blocks, xs))
        approx_checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("criterion-6", elapsed,
            f"{topo_checked} subbases and {approx_checked} random "
            "approximation instances agree with the oracles")


def test_criterion_7_parser_round_trip_and_rejection():
    t0 = time.perf_counter()
    fixtures = ["zmod3.rg", "s4.rg", "zmod3_product.rg", "hom_z3_to_s4.rg",
                "zmod4_discrete.rg", "zmod3_selfaction.rg"]
    for name in fixtures:
        text = (FIXDIR / name).read_text()
        once = serialize_workspace(parse_spec(text))
        twice = serialize_workspace(parse_spec(once))
        assert once == twice, name

    tail = "check trg --table TA --partition PA --group GA --topology tauA"
    for name, line, column, message in BAD_CASES:
        code, out, err = run_cli(tail.split(), fixture=f"bad/{name}")
        assert code == 3, name
        assert out == "", name
        path = FIXDIR / "bad" / name
        assert err == f"{path}:{line}:{column}: {message}\n", name

    elapsed = time.perf_counter() - t0
    _report("criterion-7", elapsed,
            f"{len(fixtures)} round-trips stable, "
            f"{len(BAD_CASES)} malformed files rejected with exact positions")


def test_criterion_8_cli_determinism():
    t0 = time.perf_counter()
    for fixture, tail, expected in MATRIX:
        first = run_cli(tail.split(), fixture=fixture)
        second = run_cli(tail.split(), fixture=fixture)
        assert first == second, (fixture, tail)
        assert first[0] == expected, (fixture, tail, first[0])
    elapsed = time.perf_counter() - t0
    _report("criterion-8", elapsed,
            f"{len(MATRIX)} CLI invocations byte-identical across repeat runs")
