"""Approximation spaces of the exploration sweep, built with the
package's own constructors (the program-side input of explore-z4)."""

from __future__ import annotations

import roughtop.approx as approx
import roughtop.groups as groups

MODULI = (2, 3, 4)


def set_partitions(n: int):
    """Every partition of range(n), blocks in order of first element."""
    if n == 0:
        yield []
        return
    for rest in set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n - 1]] + rest[i + 1:]
        yield rest + [[n - 1]]


def spaces_for(moduli):
    """Every approximation space over Z_n: (n, blocks, ApproxSpace)."""
    out = []
    for n in moduli:
        u = approx.Universe(tuple(str(i) for i in range(n)))
        table = groups.CayleyTable.from_names(
            u, [[str((x + y) % n) for y in range(n)] for x in range(n)])
        for blocks in set_partitions(n):
            part = approx.Partition(u, tuple(sum(1 << i for i in b) for b in blocks))
            out.append((n, [frozenset(b) for b in blocks],
                        approx.ApproxSpace(u, part, table)))
    return out
