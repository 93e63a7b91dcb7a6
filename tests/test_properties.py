"""Property-based checks of the algebraic laws the implementation promises.

Randomized inputs go through the same public API the unit tests use, and
every assertion is cross-checked against the independent oracles in
conftest where one exists.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from roughtop import (
    ApproxSpace,
    Partition,
    Universe,
    lower_approx,
    upper_approx,
)
from roughtop.groups import (
    CayleyTable,
    inverses_in,
    rough_kernel,
    upper_group_witness,
    verify_rough_group,
    verify_rough_homomorphism,
)
from roughtop.report import INFO, Clause, combine, law, premise
from roughtop.topology import (
    FiniteMap,
    closure,
    enumerate_topologies,
    generate_topology,
    is_continuous,
    subspace_topology,
    verify_topology,
)
from roughtop.trg import (
    check_G_equals_G_inverse,
    check_open_iff_inverse_open,
    check_translations,
    verify_trg,
)

from conftest import (
    compose,
    mask_to_set,
    oracle_close_family,
    oracle_is_group,
    oracle_lower,
    oracle_upper,
    set_to_mask,
)


@st.composite
def partitioned_spaces(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    u = Universe(tuple(str(i) for i in range(n)))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[str]] = {}
    for i, b in enumerate(ids):
        groups.setdefault(b, []).append(str(i))
    part = Partition.from_names(u, list(groups.values()))
    return ApproxSpace(u, part)


@st.composite
def space_and_mask(draw, max_n: int = 8):
    space = draw(partitioned_spaces(max_n))
    mask = draw(st.integers(0, (1 << space.universe.size) - 1))
    return space, mask


@st.composite
def space_and_two_masks(draw, max_n: int = 8):
    space = draw(partitioned_spaces(max_n))
    full = (1 << space.universe.size) - 1
    return space, draw(st.integers(0, full)), draw(st.integers(0, full))


def blocks_of(space):
    return [mask_to_set(b) for b in space.partition.blocks]


@given(space_and_mask())
def test_approximations_match_oracle(sm):
    space, mask = sm
    xs = mask_to_set(mask)
    assert lower_approx(space, mask) == set_to_mask(
        oracle_lower(blocks_of(space), xs))
    assert upper_approx(space, mask) == set_to_mask(
        oracle_upper(blocks_of(space), xs))


@given(space_and_mask())
def test_approximation_sandwich_and_duality(sm):
    space, mask = sm
    lo = lower_approx(space, mask)
    hi = upper_approx(space, mask)
    assert lo & ~mask == 0
    assert mask & ~hi == 0
    full = space.universe.all_mask
    assert lo == full & ~upper_approx(space, full & ~mask)


@given(space_and_mask())
def test_approximations_idempotent(sm):
    space, mask = sm
    lo = lower_approx(space, mask)
    hi = upper_approx(space, mask)
    assert lower_approx(space, lo) == lo
    assert upper_approx(space, hi) == hi


@given(space_and_two_masks())
def test_approximations_monotone(smm):
    space, m1, m2 = smm
    meet = m1 & m2
    assert lower_approx(space, meet) & ~lower_approx(space, m1) == 0
    assert upper_approx(space, meet) & ~upper_approx(space, m1) == 0


@given(st.integers(1, 8), st.data())
def test_singleton_partition_is_identity(n, data):
    u = Universe(tuple(str(i) for i in range(n)))
    space = ApproxSpace(u, Partition.singletons(u))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    assert lower_approx(space, mask) == mask == upper_approx(space, mask)


@st.composite
def small_subbasis(draw, max_n: int = 4):
    n = draw(st.integers(1, max_n))
    u = Universe(tuple(str(i) for i in range(n)))
    carrier = (1 << n) - 1
    members = draw(st.lists(st.integers(0, carrier), max_size=6))
    return u, carrier, members


@given(small_subbasis())
@settings(max_examples=200)
def test_generated_topology_matches_fixpoint_oracle(sub):
    """The down-set generator agrees with the union-and-intersection
    fixpoint closure on every subbasis over up to four points."""
    u, carrier, members = sub
    top = generate_topology(u, carrier, members)
    assert set(top.opens) == set(oracle_close_family(carrier, members))
    assert verify_topology(u, carrier, top.opens) == top


@given(small_subbasis(), st.data())
def test_subspace_composition(sub, data):
    u, carrier, members = sub
    top = generate_topology(u, carrier, members)
    a = data.draw(st.integers(0, carrier))
    b = a & data.draw(st.integers(0, carrier))
    assert subspace_topology(subspace_topology(top, a), b) == \
        subspace_topology(top, b)


@given(small_subbasis(), st.data())
def test_closure_interior_laws(sub, data):
    u, carrier, members = sub
    top = generate_topology(u, carrier, members)
    a = data.draw(st.integers(0, carrier))
    b = a | data.draw(st.integers(0, carrier))
    cl = closure(top, a)
    assert a & ~cl == 0
    assert closure(top, cl) == cl
    assert cl & ~closure(top, b) == 0
    # the complement of the closure of the rest is the largest open inside A
    inside = carrier & ~closure(top, carrier & ~a)
    assert top.is_open(inside)
    assert all(o & ~inside == 0 for o in top.opens if o & ~a == 0)


THREE = Universe(("0", "1", "2"))
TOPS3 = enumerate_topologies(THREE, 0b111)
MAPS3 = [
    FiniteMap(THREE, THREE, 0b111, 0b111, ((0, a), (1, b), (2, c)))
    for a in range(3) for b in range(3) for c in range(3)
]


@given(st.sampled_from(TOPS3), st.sampled_from(TOPS3), st.sampled_from(TOPS3),
       st.sampled_from(MAPS3), st.sampled_from(MAPS3))
@settings(max_examples=300)
def test_continuity_composes(s, t, r, f, g):
    if is_continuous(f, s, t) is None and is_continuous(g, t, r) is None:
        assert is_continuous(compose(f, g), s, r) is None


@st.composite
def zmod_groups(draw, max_n: int = 8):
    """Addition mod n with a random partition and a random nonempty G."""
    n = draw(st.integers(2, max_n))
    u = Universe(tuple(str(i) for i in range(n)))
    rows = [[str((i + j) % n) for j in range(n)] for i in range(n)]
    table = CayleyTable.from_names(u, rows)
    ids = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[str]] = {}
    for i, b in enumerate(ids):
        groups.setdefault(b, []).append(str(i))
    space = ApproxSpace(u, Partition.from_names(u, list(groups.values())), table)
    g_mask = draw(st.integers(1, (1 << n) - 1))
    return space, g_mask


@given(zmod_groups())
@settings(max_examples=200)
def test_rough_group_certificate_invariants(sg):
    space, g_mask = sg
    rep, cert = verify_rough_group(space, g_mask)
    upper = upper_approx(space, g_mask)
    in_upper = all(
        (upper >> space.op.rows[x][y]) & 1
        for x in mask_to_set(g_mask) for y in mask_to_set(g_mask))
    assert (rep.clause("products-in-upper").verdict == "pass") == in_upper
    if cert is None:
        assert rep.verdict == "fail"
        return
    assert rep.verdict == "pass"
    assert cert.upper == upper
    assert cert.g_mask == g_mask
    e = cert.designated_e
    assert (cert.upper >> e) & 1
    assert e == min(c for c in mask_to_set(upper) if all(
        space.op.rows[c][g] == g == space.op.rows[g][c] for g in mask_to_set(g_mask)))
    for g in mask_to_set(g_mask):
        h = cert.inverse.apply(g)
        assert inverses_in(space.op, g, g_mask, e) == 1 << h
        assert space.op.rows[g][h] == e == space.op.rows[h][g]


@given(zmod_groups())
@settings(max_examples=200)
def test_exact_groups_match_classical_oracle(sg):
    """When G equals its own upper approximation, the rough axioms agree
    with the ordinary group axioms checked independently."""
    space, g_mask = sg
    if upper_approx(space, g_mask) != g_mask:
        return
    rep, cert = verify_rough_group(space, g_mask)
    classical = oracle_is_group(space.op.rows, sorted(mask_to_set(g_mask)))
    assert (cert is not None) == classical
    assert (cert is not None and upper_group_witness(cert) is None) == classical


Z3_SPACE = ApproxSpace(
    THREE,
    Partition.from_names(THREE, [["0", "2"], ["1"]]),
    CayleyTable.from_names(
        THREE, [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]]))
_, Z3_CERT = verify_rough_group(Z3_SPACE, 0b110)


@given(st.sampled_from(TOPS3))
@settings(max_examples=29)
def test_trg_symmetry_theorems_hold_when_trg_passes(top):
    """Whenever the continuity checks pass, the derived symmetry facts
    must come out true: no counterexample exists at this scale."""
    rep, tcert = verify_trg(Z3_CERT, top)
    if tcert is None:
        return
    assert check_G_equals_G_inverse(tcert).verdict == "pass"
    assert check_open_iff_inverse_open(tcert).verdict == "pass"
    for a in mask_to_set(Z3_CERT.g_mask):
        assert check_translations(tcert, a).verdict == "pass"


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=60)
def test_kernels_of_constant_maps_on_abelian_groups(n, seed):
    """For commutative tables the kernel of any passing homomorphism is
    normal, here exercised with constant maps onto a one-point target."""
    rng = random.Random(seed)
    u = Universe(tuple(str(i) for i in range(n)))
    rows = [[str((i + j) % n) for j in range(n)] for i in range(n)]
    ids = [rng.randrange(2) for _ in range(n)]
    groups: dict[int, list[str]] = {}
    for i, b in enumerate(ids):
        groups.setdefault(b, []).append(str(i))
    space = ApproxSpace(
        u, Partition.from_names(u, list(groups.values())),
        CayleyTable.from_names(u, rows))
    g_mask = rng.randrange(1, 1 << n)
    rep, cert = verify_rough_group(space, g_mask)
    if cert is None:
        return
    one = Universe(("e",))
    tspace = ApproxSpace(one, Partition.singletons(one),
                         CayleyTable.from_names(one, [["e"]]))
    _, tcert = verify_rough_group(tspace, 0b1)
    const = FiniteMap(
        u, one, cert.upper, 0b1,
        tuple((i, 0) for i in mask_to_set(cert.upper)))
    hrep, hom = verify_rough_homomorphism(cert, tcert, const)
    assert hrep.verdict == "pass"
    kernel, krep = rough_kernel(hom)
    assert kernel == cert.g_mask
    assert krep.verdict in ("pass", "not-applicable")
    if krep.verdict == "pass":
        assert krep.clause("kernel-normal").verdict == "pass"


_WITNESSES = st.one_of(st.none(), st.text(max_size=3))
_CLAUSES = st.recursive(
    st.one_of(
        st.builds(law, st.sampled_from("ab"), _WITNESSES),
        st.builds(premise, st.sampled_from("ab"), _WITNESSES),
        st.builds(Clause, st.sampled_from("ab"), st.just(INFO), _WITNESSES),
    ),
    lambda children: st.builds(
        lambda name, clauses: combine("nested", clauses).as_clause(name),
        st.sampled_from("ab"), st.lists(children, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=200)
@given(st.lists(_CLAUSES, max_size=5))
def test_report_names_a_witness_exactly_when_it_does_not_pass(clauses):
    """Built by `law`, `premise`, info clauses and nested reports under
    `combine`, a report has a first witness if and only if it does not
    pass, so no caller needs a fallback witness."""
    rep = combine("top", clauses)
    assert (rep.first_witness() is None) == rep.passed
