"""Universes, partitions, and the two approximation operators."""

import pytest

from roughtop import (
    ApproxSpace,
    Partition,
    Universe,
    lower_approx,
    pair_name,
    product_space,
    product_universe,
    upper_approx,
)
from roughtop.errors import CapExceededError, InputError

from conftest import mask_to_set, oracle_lower, oracle_upper, set_to_mask


def test_universe_basics():
    u = Universe(("a", "b", "c"))
    assert u.size == 3
    assert u.index("b") == 1
    assert u.mask_of(["a", "c"]) == 0b101
    assert u.names_of(0b101) == ("a", "c")
    assert u.set_str(0b101) == "{a,c}"
    assert u.set_str(0) == "{}"
    assert u.all_mask == 0b111


def test_universe_rejects_duplicates_and_unknowns():
    with pytest.raises(InputError):
        Universe(("a", "a"))
    u = Universe(("a", "b"))
    with pytest.raises(InputError):
        u.index("z")
    with pytest.raises(InputError):
        u.mask_of(["a", "z"])
    with pytest.raises(InputError):
        u.check_subset(0b100)


def test_partition_validation():
    u = Universe(("a", "b", "c"))
    p = Partition.from_names(u, [["a", "c"], ["b"]])
    assert p.blocks == (0b010, 0b101)
    with pytest.raises(InputError):
        Partition.from_names(u, [["a"], ["b"]])  # not covering
    with pytest.raises(InputError):
        Partition.from_names(u, [["a", "b"], ["b", "c"]])  # overlap
    with pytest.raises(InputError):
        Partition.from_names(u, [["a", "b", "c"], []])  # empty block


def test_fixa_lower_upper(ws_zmod3):
    u = ws_zmod3.universes["UA"]
    space = ApproxSpace(u, ws_zmod3.partitions["PA"][1])
    g = ws_zmod3.subsets["GA"][1]
    assert u.set_str(lower_approx(space, g)) == "{1}"
    assert u.set_str(upper_approx(space, g)) == "{0,1,2}"
    assert lower_approx(space, 0) == 0
    assert upper_approx(space, u.all_mask) == u.all_mask


def test_fixb_lower_upper(ws_s4):
    u = ws_s4.universes["UB"]
    space = ApproxSpace(u, ws_s4.partitions["PB"][1])
    g = ws_s4.subsets["GB"][1]
    assert lower_approx(space, g) == 0
    upper = upper_approx(space, g)
    assert upper == ws_s4.subsets["GbarB"][1]
    assert bin(upper).count("1") == 15


def test_fixa_against_oracle(ws_zmod3):
    u = ws_zmod3.universes["UA"]
    part = ws_zmod3.partitions["PA"][1]
    space = ApproxSpace(u, part)
    blocks = [mask_to_set(b) for b in part.blocks]
    for mask in range(1 << u.size):
        assert lower_approx(space, mask) == set_to_mask(
            oracle_lower(blocks, mask_to_set(mask)))
        assert upper_approx(space, mask) == set_to_mask(
            oracle_upper(blocks, mask_to_set(mask)))


def test_rough_set_invariants(ws_zmod3):
    u = ws_zmod3.universes["UA"]
    space = ApproxSpace(u, ws_zmod3.partitions["PA"][1])
    subset = ws_zmod3.subsets["GA"][1]
    lower, upper = lower_approx(space, subset), upper_approx(space, subset)
    assert lower == u.mask_of(["1"])
    assert upper == u.all_mask
    assert lower & ~subset == 0
    assert subset & ~upper == 0


def test_singleton_and_one_block_partitions():
    u = Universe(("a", "b", "c"))
    sing = ApproxSpace(u, Partition.singletons(u))
    coarse = ApproxSpace(u, Partition(u, (u.all_mask,)))
    for mask in range(8):
        assert lower_approx(sing, mask) == mask == upper_approx(sing, mask)
    assert lower_approx(coarse, 0b011) == 0
    assert upper_approx(coarse, 0b001) == 0b111
    assert lower_approx(coarse, 0b111) == 0b111


def test_rejects_non_subset():
    u = Universe(("a", "b"))
    space = ApproxSpace(u, Partition.singletons(u))
    with pytest.raises(InputError):
        lower_approx(space, 0b100)
    with pytest.raises(InputError):
        upper_approx(space, -1)


def test_product_universe_order():
    u1 = Universe(("x", "y"))
    u2 = Universe(("0", "1", "2"))
    pu = product_universe(u1, u2)
    assert pu.elements == (
        "(x,0)", "(x,1)", "(x,2)", "(y,0)", "(y,1)", "(y,2)")
    assert pair_name("x", "0") == "(x,0)"


def test_product_space_matches_fixture(ws_zmod3, ws_product):
    u = ws_zmod3.universes["UA"]
    part = ws_zmod3.partitions["PA"][1]
    tab = ws_zmod3.tables["TA"][1]
    space = ApproxSpace(u, part, tab)
    prod = product_space(space, space)
    up = ws_product.universes["UP"]
    assert prod.universe.elements == up.elements
    assert sorted(prod.partition.blocks) == sorted(
        ws_product.partitions["PP"][1].blocks)
    assert len(prod.partition.blocks) == 4
    assert prod.op.rows == ws_product.tables["TP"][1].rows


def test_product_space_upper_is_product(ws_zmod3):
    u = ws_zmod3.universes["UA"]
    space = ApproxSpace(u, ws_zmod3.partitions["PA"][1], ws_zmod3.tables["TA"][1])
    prod = product_space(space, space)
    g = ws_zmod3.subsets["GA"][1]
    gg = prod.universe.mask_of(
        [pair_name(a, b) for a in ("1", "2") for b in ("1", "2")])
    assert upper_approx(prod, gg) == prod.universe.all_mask


def test_product_with_point_space(ws_zmod3):
    u = ws_zmod3.universes["UA"]
    space = ApproxSpace(u, ws_zmod3.partitions["PA"][1], ws_zmod3.tables["TA"][1])
    one = Universe(("e",))
    point = ApproxSpace(
        one, Partition.singletons(one),
        type(space.op).from_names(one, [["e"]]))
    prod = product_space(space, point)
    assert prod.universe.size == 3
    assert len(prod.partition.blocks) == 2
    for x in range(3):
        for y in range(3):
            assert prod.op.rows[x][y] == space.op.rows[x][y]


def test_product_space_cap():
    u = Universe(tuple(str(i) for i in range(9)))
    space = ApproxSpace(u, Partition.singletons(u))
    with pytest.raises(CapExceededError):
        product_space(space, space, cap=64)
    assert product_space(space, space, cap=81).universe.size == 81


def test_product_approximations_componentwise():
    u1 = Universe(("a", "b", "c"))
    u2 = Universe(("x", "y"))
    s1 = ApproxSpace(u1, Partition.from_names(u1, [["a", "b"], ["c"]]))
    s2 = ApproxSpace(u2, Partition(u2, (u2.all_mask,)))
    prod = product_space(s1, s2)
    for m1 in range(1 << 3):
        for m2 in range(1 << 2):
            want_lo = 0
            want_hi = 0
            lo1, hi1 = lower_approx(s1, m1), upper_approx(s1, m1)
            lo2, hi2 = lower_approx(s2, m2), upper_approx(s2, m2)
            for i in range(3):
                for j in range(2):
                    if (lo1 >> i) & 1 and (lo2 >> j) & 1:
                        want_lo |= 1 << (i * 2 + j)
                    if (hi1 >> i) & 1 and (hi2 >> j) & 1:
                        want_hi |= 1 << (i * 2 + j)
            joint = 0
            for i in range(3):
                for j in range(2):
                    if (m1 >> i) & 1 and (m2 >> j) & 1:
                        joint |= 1 << (i * 2 + j)
            assert lower_approx(prod, joint) == want_lo
            assert upper_approx(prod, joint) == want_hi
