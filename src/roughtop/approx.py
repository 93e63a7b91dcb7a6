"""Approximation spaces: finite universes, partitions, Cayley tables,
rough approximations.

Subsets are integer bitmasks over the canonical element order of their
universe: bit i stands for ``elements[i]``.  Since masks impose a total
order on subsets, every derived family and every serialized set comes
out in a canonical order for free, which keeps reports byte-stable.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import CapExceededError, InputError
from .record import Record

DEFAULT_UNIVERSE_CAP = 64


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Universe(Record):
    """Ordered finite set of distinct, opaque element names."""

    _fields = ("elements",)

    def __init__(self, elements: tuple[str, ...]):
        index: dict[str, int] = {}  # name -> position
        for i, name in enumerate(elements):
            if name in index:
                raise InputError(f"duplicate element name {name!r} in universe")
            index[name] = i
        bit = {name: 1 << i for name, i in index.items()}  # name -> its one-element mask
        self._set(elements=elements, _index=index, _bit=bit)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def all_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown element {name!r}") from None

    def indices(self, names: Iterable[str]) -> tuple[int, ...]:
        """The positions of the names, in their order, in one dict pass."""
        try:
            return tuple(map(self._index.__getitem__, names))
        except KeyError as e:
            raise InputError(f"unknown element {e.args[0]!r}") from None

    def mask_of(self, names: Iterable[str]) -> int:
        bit = self._bit
        mask = 0
        try:
            for name in names:
                mask |= bit[name]
        except KeyError:
            raise InputError(f"unknown element {name!r}") from None
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in bit_indices(mask))

    def set_str(self, mask: int) -> str:
        return "{%s}" % ",".join(self.names_of(mask))

    def check_subset(self, mask: int, what: str = "subset") -> None:
        if mask < 0 or mask & ~self.all_mask:
            raise InputError(f"{what} is not a subset of the universe")


class Partition(Record):
    """Partition of a universe into nonempty disjoint covering blocks.

    Blocks are normalized to ascending mask order, so two partitions are
    equal exactly when they induce the same equivalence relation.
    """

    _fields = ("universe", "blocks")

    def __init__(self, universe: Universe, blocks: tuple[int, ...]):
        blocks = tuple(sorted(blocks))
        union = 0
        for b in blocks:
            if b == 0:
                raise InputError("partition block may not be empty")
            if b & union:
                raise InputError("partition blocks overlap")
            union |= b
        if union != universe.all_mask:
            missing = universe.set_str(universe.all_mask & ~union)
            raise InputError(f"partition does not cover the universe; missing {missing}")
        self._set(universe=universe, blocks=blocks)

    @classmethod
    def from_names(cls, universe: Universe, named_blocks) -> "Partition":
        return cls(universe, tuple(universe.mask_of(b) for b in named_blocks))

    @classmethod
    def singletons(cls, universe: Universe) -> "Partition":
        return cls(universe, tuple(1 << i for i in range(universe.size)))


class CayleyTable(Record):
    """Total binary operation on a universe, stored as an index matrix."""

    _fields = ("universe", "rows")

    def __init__(self, universe: Universe, rows: tuple[tuple[int, ...], ...]):
        n = universe.size
        if len(rows) != n:
            raise InputError(f"table has {len(rows)} rows, expected {n}")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise InputError(
                    f"table row for {universe.elements[i]} has {len(row)} "
                    f"entries, expected {n}"
                )
            if min(row) < 0 or max(row) >= n:
                raise InputError("table entry is not a universe element")
        self._set(universe=universe, rows=rows)

    @classmethod
    def from_names(cls, universe: Universe, name_rows) -> "CayleyTable":
        return cls(universe, tuple(map(universe.indices, name_rows)))


class ApproxSpace(Record):
    """A universe with an equivalence partition and an optional operation."""

    _fields = ("universe", "partition", "op")

    def __init__(self, universe: Universe, partition: Partition,
                 op: CayleyTable | None = None):
        if partition.universe != universe:
            raise InputError("partition is defined on a different universe")
        if op is not None and op.universe != universe:
            raise InputError("operation table is defined on a different universe")
        self._set(universe=universe, partition=partition, op=op)


def lower_approx(space: ApproxSpace, x_mask: int) -> int:
    """Union of the blocks contained in X."""
    space.universe.check_subset(x_mask, "X")
    acc = 0
    for b in space.partition.blocks:
        if b & ~x_mask == 0:
            acc |= b
    return acc


def upper_approx(space: ApproxSpace, x_mask: int) -> int:
    """Union of the blocks meeting X, which is U - lower(U - X): the
    blocks partition U, so a block that misses X lies inside U - X."""
    u = space.universe
    u.check_subset(x_mask, "X")
    return u.all_mask & ~lower_approx(space, u.all_mask & ~x_mask)


def pair_name(a: str, b: str) -> str:
    return f"({a},{b})"


def product_universe(u1: Universe, u2: Universe) -> Universe:
    """Pair universe with names "(a,b)", ordered first-component-major."""
    names = tuple(pair_name(a, b) for a in u1.elements for b in u2.elements)
    return Universe(names)  # a name clash raises InputError


def product_mask(m1: int, m2: int, n2: int) -> int:
    """Mask of the rectangle m1 x m2 inside a pair universe with |U2| = n2."""
    mask = 0
    for i in bit_indices(m1):
        mask |= m2 << (i * n2)
    return mask


def product_space(s1: ApproxSpace, s2: ApproxSpace, cap: int = DEFAULT_UNIVERSE_CAP) -> ApproxSpace:
    """Componentwise product: pair universe, block products, pointwise operation.

    Blocks of the product are exactly the products of component blocks,
    so approximations commute with products (tested as an invariant).
    """
    n = s1.universe.size * s2.universe.size
    if n > cap:
        raise CapExceededError(
            f"product universe would have {n} elements, exceeding the cap of {cap}"
        )
    universe = product_universe(s1.universe, s2.universe)
    n2 = s2.universe.size
    blocks = tuple(
        product_mask(b1, b2, n2)
        for b1 in s1.partition.blocks
        for b2 in s2.partition.blocks
    )
    partition = Partition(universe, blocks)
    op = None
    if s1.op is not None and s2.op is not None:
        # row (i1, j1) holds (i1 * i2, j1 * j2) at column (i2, j2)
        rows = [tuple(a * n2 + b for a in r1 for b in r2)
                for r1 in s1.op.rows for r2 in s2.op.rows]
        op = CayleyTable(universe, tuple(rows))
    return ApproxSpace(universe, partition, op)

