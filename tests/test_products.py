"""Products of rough groups and of TRGs are certified from their
factors, and each certificate equals the one that deciding the product
from scratch gives.

`product_rough_group` and `product_trg` build their certificates
componentwise, without re-running `verify_rough_group` or `decide_trg`
on the n1*n2-point product.  Here the product is decided from scratch:
every pair of rough groups of Z_2 and Z_3, same-mode pairs of TRG
certificates over Z_2 and Z_3 (92 upper, 89 relative), and the
self-product of each TRG of Z_4 that holds in relative mode only.
"""

import random

import pytest

from roughtop.approx import product_mask, product_space
from roughtop.errors import InputError
from roughtop.groups import product_rough_group, verify_rough_group
from roughtop.topology import FiniteTopology, product_topology
from roughtop.trg import decide_trg, product_trg, trg_topologies

from conftest import cyclic_table, rough_groups

SMALL_GROUPS = [cert for n in (2, 3) for cert in rough_groups(cyclic_table(n))]


def _trgs(groups, mode):
    """Every TRG certificate in the mode over the rough groups."""
    return [decide_trg(cert, tau, mode)[1]
            for cert in groups for tau in trg_topologies(cert, mode)]


def _relative_only_z4_trgs():
    """The TRG certificates of Z_4 that hold in relative mode but not in
    upper mode."""
    found = []
    for cert in rough_groups(cyclic_table(4)):
        upper = {tau.nbhd for tau in trg_topologies(cert, "upper")}
        found += [decide_trg(cert, tau, "relative")[1]
                  for tau in trg_topologies(cert, "relative") if tau.nbhd not in upper]
    return found


def _decided_group(a, b):
    """The product of two rough groups, verified on the product space."""
    g = product_mask(a.g_mask, b.g_mask, b.space.universe.size)
    return verify_rough_group(product_space(a.space, b.space), g)[1]


def test_product_rough_groups_of_z2_and_z3_equal_their_verification():
    assert len(SMALL_GROUPS) == 18
    for a in SMALL_GROUPS:
        for b in SMALL_GROUPS:
            assert product_rough_group(a, b) == _decided_group(a, b)


@pytest.mark.parametrize("mode, count, pairs", [("upper", 92, 3223),
                                                 ("relative", 89, 3145)])
def test_product_trgs_equal_their_decision_over_z2_and_z3(mode, count, pairs):
    """Same-mode pairs of TRG certificates over Z_2 and Z_3: the product
    certificate is the one `decide_trg` gives the product group (checked
    against `verify_rough_group` above) and topology in that mode.
    Every pair with a Z_2 factor is taken, and 1,000 seeded pairs of Z_3
    ones: all 8,464 and 7,921 pairs take about 3 s together (2-core Intel
    Xeon VM), and the sample about 1 s."""
    trgs = _trgs(SMALL_GROUPS, mode)
    assert len(trgs) == count
    rng = random.Random(1909)
    z3 = [t for t in trgs if t.universe.size == 3]
    sample = [(a, b) for a in trgs for b in trgs if 2 in (a.universe.size, b.universe.size)]
    sample += rng.sample([(a, b) for a in z3 for b in z3], 1000)
    assert len(sample) == pairs
    for a, b in sample:
        want = decide_trg(product_rough_group(a.group, b.group),
                          product_topology(a.tau, b.tau), mode)[1]
        assert product_trg(a, b) == want


def test_self_products_of_relative_only_z4_trgs_hold_in_relative_mode():
    """The product group is the verified one, and the product TRG the
    one decided in relative mode."""
    trgs = _relative_only_z4_trgs()
    assert len(trgs) == 125
    for t in trgs:
        prod = product_trg(t, t)
        assert prod.group == _decided_group(t.group, t.group)
        assert prod.mode == "relative"
        assert prod == decide_trg(prod.group, product_topology(t.tau, t.tau),
                                  "relative")[1]


def test_product_of_a_relative_only_z4_trg_stays_relative():
    """Z_4 in one block, G = {1,3}, N(0) = {0}, N(1) = N(3) = {1,3} and
    N(2) = {2}: a TRG in relative mode only.  Its self-product is one in
    relative mode only as well, so deciding it in upper mode fails."""
    cert = next(c for c in rough_groups(cyclic_table(4))
                if c.g_mask == 0b1010 and c.space.partition.blocks == (0b1111,))
    tau = FiniteTopology(cert.space.universe, 0b1111, (0b1, 0b1010, 0b100, 0b1010))
    assert decide_trg(cert, tau, "upper")[1] is None
    tcert = decide_trg(cert, tau, "relative")[1]
    prod = product_trg(tcert, tcert)
    assert prod.mode == "relative"
    assert prod == decide_trg(prod.group, prod.tau, "relative")[1]
    assert decide_trg(prod.group, prod.tau, "upper")[1] is None


def test_product_trg_refuses_a_mixed_mode_pair(fixa_trg):
    relative = decide_trg(fixa_trg.group, fixa_trg.tau, "relative")[1]
    with pytest.raises(InputError, match=r"TRG in upper mode by one in relative mode"):
        product_trg(fixa_trg, relative)
    with pytest.raises(InputError, match=r"TRG in relative mode by one in upper mode"):
        product_trg(relative, fixa_trg)

