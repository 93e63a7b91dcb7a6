"""Structured verdicts with witnesses, serialized deterministically.

Every check a command prints returns a :class:`VerificationReport`: an
overall verdict, an ordered list of named clauses (each with its own
verdict and, where relevant, a witness or counterexample string), and a
few integer counters.  A clause's verdict follows from its witness
(`law`, `premise`), and the report's from its clauses (`combine`): a
failed premise makes a check not-applicable rather than failed.
Reports are pure values; serializing the same report twice yields
byte-identical output.
"""

from __future__ import annotations

from collections import namedtuple

from .record import Record

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
ERROR = "error"
INFO = "info"

_EXIT_CODES = {PASS: 0, FAIL: 1, NOT_APPLICABLE: 2, ERROR: 3}


class Clause(namedtuple("Clause", "name verdict witness", defaults=(None,))):
    """One named condition inside a report."""

    __slots__ = ()


class VerificationReport(Record):
    _fields = ("check", "verdict", "clauses", "stats")

    def __init__(self, check: str, verdict: str, clauses: tuple[Clause, ...] = (),
                 stats: tuple[tuple[str, int], ...] = ()):
        # keep counters in a fixed order regardless of how they were supplied
        self._set(check=check, verdict=verdict, clauses=clauses,
                  stats=tuple(sorted(stats)))

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def clause(self, name: str) -> Clause | None:
        for c in self.clauses:
            if c.name == name:
                return c
        return None

    def first_witness(self) -> str | None:
        """Witness of the first non-passing clause, if any."""
        for c in self.clauses:
            if c.verdict in (FAIL, NOT_APPLICABLE, ERROR) and c.witness:
                return c.witness
        return None

    def as_clause(self, name: str) -> Clause:
        """This report as one clause of another: its verdict and its
        first witness."""
        return Clause(name, self.verdict, self.first_witness())


def combine(check: str, clauses, stats=None) -> VerificationReport:
    """Build a report whose verdict follows from its clauses: fail if
    any clause failed, else not-applicable if any clause is
    not-applicable, else pass.  Info clauses never decide."""
    clauses = tuple(clauses)
    verdicts = {c.verdict for c in clauses}
    verdict = (FAIL if FAIL in verdicts
               else NOT_APPLICABLE if NOT_APPLICABLE in verdicts else PASS)
    return VerificationReport(check, verdict, clauses, tuple(stats or ()))


def law(name: str, witness: str | None) -> Clause:
    """A law clause: fail with the witness that breaks it, or pass when
    there is none.  Under `combine` a failed law fails the check."""
    return Clause(name, FAIL if witness else PASS, witness)


def premise(name: str, witness: str | None) -> Clause:
    """A premise clause: not-applicable with the witness that breaks
    it, or pass when there is none.  Under `combine` a failed premise
    makes the check not-applicable, never failed."""
    return Clause(name, NOT_APPLICABLE if witness else PASS, witness)


def error_report(check: str, message: str) -> VerificationReport:
    return VerificationReport(check, ERROR, (Clause("input", ERROR, message),))


def exit_code(report: VerificationReport) -> int:
    return _EXIT_CODES[report.verdict]


def serialize_report(report: VerificationReport, fmt: str = "text") -> str:
    """Render a report as text or JSON.  Output always ends with a newline."""
    if fmt == "json":
        import json  # only `--json` reads it, so a text report never loads it

        payload = {
            "check": report.check,
            "verdict": report.verdict,
            "clauses": [
                {"name": c.name, "verdict": c.verdict, "witness": c.witness}
                for c in report.clauses
            ],
            "stats": dict(report.stats),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"{report.verdict.upper()} {report.check}"]
    for c in report.clauses:
        line = f"  {c.name}: {c.verdict}"
        if c.witness is not None:
            line += f"  witness: {c.witness}"
        lines.append(line)
    for key, value in report.stats:
        lines.append(f"  stat {key}={value}")
    return "\n".join(lines) + "\n"
