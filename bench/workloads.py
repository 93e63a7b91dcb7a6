"""The three workloads.

Each workload builds one pass of operations from the seed, runs a pass
as a closed loop with a single client (one process, one thread, the
next operation starts when the previous one returned), and judges the
recorded outcomes against known answers after the clock has stopped.

An outcome is "ok", "refused" (a size cap refused an operation whose
answer is known) or "wrong" (a wrong verdict or exit code, a
traceback, or stdout bytes that differ from an earlier repetition of
the same operation).  Refused and wrong operations both count as
failed; only wrong ones make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
import time
from pathlib import Path

import gen
import oracle
import sweep
from matrix import FIRST_WORD, MATRIX

import roughtop.cli as cli
import roughtop.groups as groups
import roughtop.topology as topology
import roughtop.trg as trg
from roughtop.errors import CapExceededError

_CAP = re.compile(r"\bcap\b|--max-size")


def call_cli(argv, doc):
    """roughtop.cli.main in-process with stdin, stdout and stderr
    captured; returns (exit code or None on a traceback, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if doc is not None:
        sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a crash of the run
        code = None
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


class CliWorkload:
    """Operations are CLI invocations: (argv, stdin document or None,
    expected exit code, optional stdout check)."""

    def run_pass(self, ops, recorder=None, first=None, calibrator=None):
        """((start, end), exit code, stdout) per operation.  Given the
        first pass, a later pass keeps only whether stdout repeated it."""
        rec = []
        for i, op in enumerate(ops):
            if recorder is not None:
                recorder.op += 1
            if calibrator is not None:
                calibrator.maybe_probe()
            t0 = time.perf_counter()
            code, out = call_cli(op.argv, op.doc)
            t1 = time.perf_counter()
            rec.append(((t0, t1), code, out if first is None else out == first[i][2]))
        return rec

    def spans(self, passes):
        return [r[0] for rec in passes for r in rec]

    def judge(self, ops, passes):
        """Outcome per recorded operation, in run order."""
        first = [self._judge_one(op, code, out)
                 for op, (_, code, out) in zip(ops, passes[0])]
        outcomes = list(first)
        for rec in passes[1:]:
            outcomes += [o if same and code == ref[1] else "wrong"
                         for o, ref, (_, code, same) in zip(first, passes[0], rec)]
        return outcomes

    @staticmethod
    def _judge_one(op, code, out):
        if code is None:
            return "wrong"
        if code == op.expect:
            if op.expect in FIRST_WORD and not out.startswith(FIRST_WORD[op.expect] + " "):
                return "wrong"
            if op.check is not None and not op.check(out):
                return "wrong"
            return "ok"
        if code == 3 and _CAP.search(out):
            return "refused"
        return "wrong"


class CliPinned(CliWorkload):
    name = "cli-pinned"
    setup_code = "import roughtop.cli"

    def build(self, seed, root: Path):
        # the order is fixed; the seed has nothing to vary here
        return [gen.Op("pinned", tail.split() + ["--file", str(root / "fixtures" / fx)],
                       None, code) for fx, tail, code in MATRIX]


class TrgDense(CliWorkload):
    name = "trg-dense"
    setup_code = "import roughtop.cli"

    def build(self, seed, root: Path):
        return gen.make_pass(seed, root)


class ExploreZ4:
    """The sweep of scripts/explore_small_trgs.py --max-n 4, through the
    same library calls; one operation is one verify_trg call."""

    name = "explore-z4"
    setup_code = ("import roughtop.topology, roughtop.trg, sweep\n"
                  "sweep.spaces_for(sweep.MODULI)")

    def build(self, seed, root: Path):
        cands = [(n, blocks, space, g)
                 for n, blocks, space in sweep.spaces_for(sweep.MODULI)
                 for g in range(1, 1 << n)]
        random.Random(seed).shuffle(cands)
        return cands

    def run_pass(self, cands, recorder=None, first=None, calibrator=None):
        """Per candidate: (cert is not None, topologies, verdicts,
        (start, end) spans); only the first pass keeps the topologies."""
        rec = []
        for n, blocks, space, g in cands:
            if recorder is not None:
                recorder.op += 1
            _, cert = groups.verify_rough_group(space, g)
            if cert is None:
                rec.append((False, (), (), ()))
                continue
            if recorder is not None:
                recorder.op += 1
            tops = topology.enumerate_topologies(space.universe, cert.upper)
            verdicts = []
            spans = []
            for tau in tops:
                if recorder is not None:
                    recorder.op += 1
                if calibrator is not None:
                    calibrator.maybe_probe()
                t0 = time.perf_counter()
                try:
                    report, _ = trg.verify_trg(cert, tau)
                    verdict = report.verdict
                except CapExceededError:
                    verdict = "refused"
                except Exception:  # a traceback: judged wrong
                    verdict = "traceback"
                spans.append((t0, time.perf_counter()))
                verdicts.append(verdict)
            rec.append((True, tops if first is None else (), verdicts, spans))
        return rec

    def spans(self, passes):
        return [t for rec in passes for c in rec for t in c[3]]

    def judge(self, cands, passes):
        """A candidate misjudged by verify_rough_group counts as one wrong
        operation; a wrong enumeration makes all its operations wrong."""
        first = passes[0]
        expected = {}
        outcomes = []
        for rec in passes:
            for i, ((n, blocks, _, g), got) in enumerate(zip(cands, rec)):
                is_group, _, verdicts, _ = got
                if i not in expected:
                    rg = oracle.rough_group(oracle.z_table(n), blocks, oracle.mask_set(g))
                    expected[i] = None if rg is None else self._expected(rg, first[i][1])
                want = expected[i]
                if is_group != (want is not None):
                    outcomes.append("wrong")
                    continue
                if want is None:
                    continue
                complete = want[0] and len(verdicts) == len(want[1])
                for verdict, right in zip(verdicts, want[1]):
                    if verdict == "refused":
                        outcomes.append("refused")
                    else:
                        outcomes.append("ok" if complete and verdict == right else "wrong")
        return outcomes

    @staticmethod
    def _expected(rg, tops):
        """Whether the enumeration is exactly the A000798 count of distinct
        topologies, and the oracle's TRG verdict for each one."""
        fams = [frozenset(oracle.mask_set(o) for o in t.opens) for t in tops]
        complete = (len(set(fams)) == len(fams) == oracle.A000798[len(rg.up)]
                    and all(oracle.is_topology(rg.up, f) for f in fams))
        verdicts = ["pass" if oracle.trg(rg, oracle.neighbourhoods(rg.up, f)) else "fail"
                    for f in fams]
        return complete, verdicts


WORKLOADS = {w.name: w for w in (CliPinned(), ExploreZ4(), TrgDense())}
