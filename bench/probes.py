"""Frontier probes: the largest instance a command still decides.

Each rung of a ladder runs under its own time limit (an interval timer
interrupts the call), and a ladder stops at its first failure, so on
code that refuses early a probe costs milliseconds.  The known answers
are the oracle's: the discrete topology on any group is a TRG, and
n points carry A000798(n) topologies.
"""

from __future__ import annotations

import signal

import oracle

import roughtop.approx as approx
import roughtop.groups as groups
import roughtop.topology as topology
import roughtop.trg as trg

PROBE_LIMIT_S = 2.0
TRG_LADDER = range(2, 25)
ENUM_LADDER = range(1, 8)


class ProbeTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ProbeTimeout


def _within_limit(fn) -> bool:
    """fn() under the per-probe limit; False on timeout, on an input
    error (a cap refusal) or on a wrong answer."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_LIMIT_S)
    try:
        return fn()
    except (ProbeTimeout, ValueError, MemoryError):
        return False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _discrete_trg(n: int) -> bool:
    u = approx.Universe(tuple(str(i) for i in range(n)))
    table = groups.CayleyTable.from_names(
        u, [[str((x + y) % n) for y in range(n)] for x in range(n)])
    space = approx.ApproxSpace(u, approx.Partition.singletons(u), table)
    _, cert = groups.verify_rough_group(space, u.all_mask)
    tau = topology.generate_topology(u, u.all_mask, [1 << i for i in range(n)])
    report, _ = trg.verify_trg(cert, tau)
    return report.verdict == "pass"


def _enumeration(n: int) -> bool:
    u = approx.Universe(tuple(str(i) for i in range(n)))
    tops = topology.enumerate_topologies(u, u.all_mask)
    return len({t.opens for t in tops}) == len(tops) == oracle.A000798[n]


def frontier(ladder, probe) -> int:
    """Largest rung such that it and every smaller rung pass."""
    best = ladder[0] - 1
    for n in ladder:
        if not _within_limit(lambda: probe(n)):
            break
        best = n
    return best


def frontier_trg_n() -> int:
    return frontier(TRG_LADDER, _discrete_trg)


def frontier_enum_n() -> int:
    return frontier(ENUM_LADDER, _enumeration)
