"""Command-line interface.

Reads a structure-description document (a file or stdin), runs one
check or enumeration against the declarations in it, and prints a
deterministic report to stdout.  Exit codes: 0 the check passed, 1 it
failed (with a witness in the report), 2 it did not apply (a premise
failed), 3 the input or the command line was malformed (parse
diagnostics and usage errors go to stderr; semantic input errors become
an error report on stdout).

Both spellings of the command word work: `check trg ...` and
`--check trg ...` are equivalent, likewise for `enumerate`.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from functools import partial

from .actions import (
    SIDES,
    RoughSpace,
    check_AU_open,
    check_subgroup_open,
    is_rough_homogeneous,
    verify_rough_action,
)
from .approx import ApproxSpace
from .errors import InputError, ParseError
from .groups import (
    DEFAULT_SUBGROUP_ENUM_CAP,
    enumerate_rough_subgroups,
    is_rough_normal,
    rough_kernel,
    verify_rough_group,
    verify_rough_homomorphism,
    verify_rough_subgroup,
)
from .homs import verify_trg_homeomorphism, verify_trg_homomorphism
from .parser import Workspace, parse_spec
from .report import (
    FAIL,
    INFO,
    PASS,
    Clause,
    VerificationReport,
    combine,
    error_report,
    exit_code,
    law,
    premise,
    serialize_report,
)
from .topology import enumerate_topologies
from .trg import (
    CODOMAIN_MODES,
    INVERSE_CONVENTION,
    check_G_equals_G_inverse,
    check_base_translation,
    check_closure_subgroup,
    check_closure_symmetric,
    check_open_iff_inverse_open,
    check_topological_group,
    check_translations,
    decide_trg,
    find_symmetric_square_nbhd,
    symmetric_square_nbhds,
    trg_topologies,
    verify_trg,
)

def _shim_argv(argv: list[str]) -> list[str]:
    """Accept `--check X` / `--enumerate X` as spellings of the
    subcommands, by rewriting the flag token in place where it stands
    for the command word: while every earlier token starts with `-`."""
    out = list(argv)
    for i, tok in enumerate(out):
        if tok in ("--check", "--enumerate"):
            out[i] = tok[2:]
        if not out[i].startswith("-"):
            break
    return out


# each subcommand and its line in the top parser's help, in help order
_SUBCOMMANDS = {"check": "verify one structure or theorem instance",
                "enumerate": "list structures of a given kind"}


def _non_negative_int(text: str) -> int:
    """A non-negative integer option value; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _add_common(sp: argparse.ArgumentParser) -> None:
    """The options that `check` and `enumerate` both take."""
    sp.add_argument("--file", help="input document (default: stdin)")
    sp.add_argument("--json", action="store_true",
                    help="emit the report as JSON")
    sp.add_argument("--cap", type=_non_negative_int, default=DEFAULT_SUBGROUP_ENUM_CAP,
                    help="size cap for enumerating subgroups")
    sp.add_argument("--strict-hom", action="store_true",
                    help="also require the source upper approximation to "
                         "be closed under the operation")
    sp.add_argument("--codomain-topology", choices=CODOMAIN_MODES,
                    default="upper",
                    help="topology the product map is checked into")
    sp.add_argument("--table")
    sp.add_argument("--partition")
    sp.add_argument("--group")
    sp.add_argument("--subgroup")
    sp.add_argument("--topology")
    sp.add_argument("--map")
    sp.add_argument("--src-table")
    sp.add_argument("--src-partition")
    sp.add_argument("--src-group")
    sp.add_argument("--src-topology")
    sp.add_argument("--tgt-table")
    sp.add_argument("--tgt-partition")
    sp.add_argument("--tgt-group")
    sp.add_argument("--tgt-topology")
    sp.add_argument("--x-partition")
    sp.add_argument("--x-subset")
    sp.add_argument("--x-topology")
    sp.add_argument("--side", choices=SIDES, default="left")
    sp.add_argument("--element")
    sp.add_argument("--w")
    sp.add_argument("--open")
    sp.add_argument("--subset")
    sp.add_argument("--base-member", action="append", default=[])
    sp.add_argument("--max-size", type=_non_negative_int, default=3)


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`, with options only on the subcommand it names."""
    # every HelpFormatter would ask the terminal for its width; ask once,
    # and wrap exactly as HelpFormatter does when given no width
    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    p = argparse.ArgumentParser(
        prog="roughtop",
        description="Verify and explore finite rough algebraic-topological "
                    "structures described in a declaration file.",
        formatter_class=fmt,
    )
    # The top parser takes no option with a value, so argparse dispatches
    # on the first token it reads as a positional: this word, or else a
    # token starting with "-", which names no subcommand and ends the
    # parse at the top level.  Only the named subcommand needs arguments.
    word = next((tok for tok in argv if not tok.startswith("-")), None)
    if argv[:1] == [word] and word in _SUBCOMMANDS:
        # The word leads, so the top parser can print no more than its
        # usage line (on unrecognized arguments), which the metavar keeps
        # as it was.  Any other command line gets both subcommands and no
        # metavar: the top parser's help and its "invalid choice" and
        # "required" errors list or name them.  A given `prog` spares
        # formatting a usage line to work it out.
        sub = p.add_subparsers(dest="command", required=True, prog="roughtop",
                               metavar="{" + ",".join(_SUBCOMMANDS) + "}")
        words = (word,)
    else:
        sub = p.add_subparsers(dest="command", required=True, prog="roughtop")
        words = tuple(_SUBCOMMANDS)
    for name in words:
        sp = sub.add_parser(name, formatter_class=fmt, help=_SUBCOMMANDS[name])
        if name == "check" == word:
            _add_common(sp)
            sp.add_argument("kind", choices=_next_words("check"))
            sp.add_argument("prop", nargs="?", default=None,
                            help="proposition name when kind is 'prop'")
        elif name == "enumerate" == word:
            _add_common(sp)
            sp.add_argument("what", choices=_next_words("enumerate"))
    return p


class _NotApplicable(Exception):
    """A premise failed; `report` is the command's not-applicable report."""

    def __init__(self, report: VerificationReport):
        self.report = report


class _Run:
    """One command on a parsed document.  Missing flags, bad references
    and failed premises are reported under `name`, the name the
    command's own report carries."""

    def __init__(self, ws: Workspace, args: argparse.Namespace, name: str):
        self.ws, self.args, self.name = ws, args, name
        self.universe = None
        # (flags, the declarations they name) -> the certificate verified
        # from them, so that src- and tgt- flags naming the same
        # declarations verify once; a failed premise stops the command
        self.certs = {}

    def named(self, dash: str, *flags: str) -> tuple:
        """The key of the declarations the `dash` forms of `flags` name."""
        return flags, tuple(getattr(self.args, (dash + flag).replace("-", "_"))
                            for flag in flags)

    def need(self, flag: str) -> str:
        value = getattr(self.args, flag.replace("-", "_"))
        if value is None:
            raise InputError(f"{self.name} requires --{flag}")
        return value

    def get(self, kind: str, flag: str):
        """The `kind` declaration named by --flag."""
        return self.ws.get(kind, self.need(flag))[-1]

    def on(self, name: str, what: str) -> int:
        """The mask of the set `name`, which must lie on the universe of
        the table and partition read last."""
        uname, u, mask = self.ws.set_ref(name)
        if u != self.universe:
            raise InputError(f"{what} {name!r} lives on universe {uname!r}, "
                             "not the one the table and partition share")
        return mask

    def subset(self, flag: str, what: str) -> int:
        return self.on(self.need(flag), what)

    def premise(self, label: str, report: VerificationReport):
        """Stop the command: its premise `label` failed, as `report` shows."""
        raise _NotApplicable(combine(self.name, [premise(label, report.first_witness())]))

    def space(self, dash: str = "") -> ApproxSpace:
        table_name = self.need(f"{dash}table")
        partition_name = self.need(f"{dash}partition")
        t_uname, table = self.ws.get("table", table_name)
        p_uname, partition = self.ws.get("partition", partition_name)
        if t_uname != p_uname:
            raise InputError(f"table {table_name!r} is on universe {t_uname!r} but "
                             f"partition {partition_name!r} is on {p_uname!r}")
        self.universe = table.universe
        return ApproxSpace(table.universe, partition, table)

    def group(self, dash: str = ""):
        """The rough group of --table/--partition/--group, or of their
        `src-`/`tgt-` forms; failing axioms are a failed premise."""
        key = self.named(dash, "table", "partition", "group")
        if key not in self.certs:
            space = self.space(dash)
            rep, cert = verify_rough_group(space, self.subset(f"{dash}group", "group"))
            if cert is None:
                self.premise(f"premise-{dash}rough-group", rep)
            self.certs[key] = cert
        return self.certs[key]

    def trg(self, dash: str = ""):
        """The TRG of that rough group and --topology (or its form)."""
        key = self.named(dash, "table", "partition", "group", "topology")
        if key not in self.certs:
            cert = self.group(dash)
            rep, trg = decide_trg(cert, self.get("topology", f"{dash}topology"),
                                  codomain_topology=self.args.codomain_topology)
            if trg is None:
                self.premise(f"premise-{dash}trg", rep)
            self.certs[key] = trg
        return self.certs[key]

    def rough_space(self) -> RoughSpace:
        x_uname, xu, x_mask = self.ws.set_ref(self.need("x-subset"))
        pname = self.need("x-partition")
        _, partition = self.ws.get("partition", pname)
        if partition.universe != xu:
            raise InputError(f"partition {pname!r} is not on the universe of {x_uname!r}")
        space = ApproxSpace(xu, partition, None)
        return RoughSpace(space, x_mask, self.get("topology", "x-topology"))


def _with_kernel_info(report: VerificationReport, hom) -> VerificationReport:
    """Append informational kernel clauses to a homomorphism report."""
    if hom is None:
        return report
    kernel, krep = rough_kernel(hom)
    wit = krep.first_witness()
    extra = [krep.clause("kernel-elements"),
             Clause("kernel-normal", INFO, krep.verdict + (f": {wit}" if wit else ""))]
    stats = list(report.stats) + [("kernel-size", kernel.bit_count())]
    return combine(report.check, list(report.clauses) + extra, stats=stats)


def _items(u, masks: list[int]) -> list[Clause]:
    return [Clause(f"item-{i}", INFO, u.set_str(mask)) for i, mask in enumerate(masks)]


def _rough_hom(r: _Run) -> VerificationReport:
    return _with_kernel_info(*verify_rough_homomorphism(
        r.group("src-"), r.group("tgt-"), r.get("map", "map"), strict=r.args.strict_hom))


def _trg_hom(r: _Run):
    return verify_trg_homomorphism(r.trg("src-"), r.trg("tgt-"), r.get("map", "map"),
                                   strict=r.args.strict_hom)


def _trg_hom_kernel(r: _Run) -> VerificationReport:
    rep, hom = _trg_hom(r)
    return _with_kernel_info(rep, hom.algebra if hom else None)


def _trg_homeo(r: _Run) -> VerificationReport:
    rep, hom = _trg_hom(r)
    if hom is None:
        r.premise("premise-trg-homomorphism", rep)
    return verify_trg_homeomorphism(hom)


def _homogeneous(r: _Run) -> VerificationReport:
    rspace = r.rough_space()
    wit = is_rough_homogeneous(rspace)
    return combine(r.name, [law("orbit-transitivity", wit)],
                   stats=[("points", rspace.upper_x.bit_count())])


def _base_translation(r: _Run) -> VerificationReport:
    cert = r.trg()
    if not r.args.base_member:
        raise InputError(f"{r.name} requires at least one --base-member")
    return check_base_translation(
        cert, [r.on(m, "base member") for m in r.args.base_member])


def _enumerate_subgroups(r: _Run) -> VerificationReport:
    cert = r.group()
    found = enumerate_rough_subgroups(cert, cap=r.args.cap)
    return combine(r.name, _items(r.universe, found),
                   stats=[("count", len(found))])


def _enumerate_topologies(r: _Run) -> VerificationReport:
    cert = r.group()
    n = cert.upper.bit_count()
    if n > r.args.max_size:
        raise InputError(
            f"the upper approximation has {n} points, exceeding "
            f"--max-size {r.args.max_size}"
        )
    u = r.universe
    # both listings come from one carrier, so a topology's opens, as
    # bytes of local masks, name it in either; each of the 2^n local
    # masks is formatted once, and no topology object is built
    tops = enumerate_topologies(u, cert.upper)
    listed, table = tops.local_opens()
    trg_opens = set(trg_topologies(cert, r.args.codomain_topology).local_opens()[0])
    set_str = [u.set_str(m) for m in table].__getitem__
    clauses = []
    for i, opens in enumerate(listed):
        verdict = PASS if opens in trg_opens else FAIL
        clauses.append(Clause(f"topology-{i}", INFO,
                              f"trg={verdict} opens: " + " ".join(map(set_str, opens))))
    return combine(r.name, clauses,
                   stats=[("count", len(tops)), ("trg-pass", len(trg_opens))])


def _enumerate_witness(r: _Run) -> VerificationReport:
    cert = r.trg()
    found = list(symmetric_square_nbhds(cert, r.subset("w", "W")))
    return combine(r.name, [INVERSE_CONVENTION] + _items(r.universe, found),
                   stats=[("count", len(found))])


# The command table: the positional words of a command line, with each
# proposition a row of its own, give the name of the command's report
# and the function that runs it.  The argparse choices and the list of
# propositions are read off its keys.  Library functions are reached
# through this module's globals when a row runs, never stored here, so
# a wrapper installed over such a global sees every call.
_COMMANDS = {
    ("check", "rough-group"): ("rough-group", lambda r: verify_rough_group(
        r.space(), r.subset("group", "group"))[0]),
    ("check", "subgroup"): ("rough-subgroup", lambda r: verify_rough_subgroup(
        r.group(), r.subset("subgroup", "subgroup"))),
    ("check", "normal"): ("rough-normal", lambda r: is_rough_normal(
        r.group(), r.subset("subgroup", "subgroup"))),
    ("check", "hom"): ("rough-homomorphism", _rough_hom),
    ("check", "trg"): ("trg", lambda r: verify_trg(
        r.group(), r.get("topology", "topology"),
        codomain_topology=r.args.codomain_topology)[0]),
    ("check", "trg-hom"): ("trg-homomorphism", _trg_hom_kernel),
    ("check", "trg-homeo"): ("trg-homeomorphism", _trg_homeo),
    ("check", "action"): ("rough-action", lambda r: verify_rough_action(
        r.trg(), r.rough_space(), r.get("map", "map"), side=r.args.side)[0]),
    ("check", "homogeneous"): ("homogeneous", _homogeneous),
    ("check", "prop", "g-inverse"): (
        "G-inverse", lambda r: check_G_equals_G_inverse(r.trg())),
    ("check", "prop", "open-inverse"): (
        "open-inverse", lambda r: check_open_iff_inverse_open(r.trg())),
    ("check", "prop", "translations"): (
        "translations",
        lambda r: check_translations(r.trg(), r.universe.index(r.need("element")))),
    ("check", "prop", "symmetric-square"): (
        "symmetric-square",
        lambda r: find_symmetric_square_nbhd(r.trg(), r.subset("w", "W"))[1]),
    ("check", "prop", "topological-group"): (
        "topological-group", lambda r: check_topological_group(r.trg())),
    ("check", "prop", "closure-symmetric"): (
        "closure-symmetric",
        lambda r: check_closure_symmetric(r.trg(), r.subset("subset", "A"))),
    ("check", "prop", "closure-subgroup"): (
        "closure-subgroup",
        lambda r: check_closure_subgroup(r.trg(), r.subset("subgroup", "H"))),
    ("check", "prop", "au-open"): ("AU-open", lambda r: check_AU_open(
        r.trg(), r.subset("subset", "A"), r.subset("open", "U"))),
    ("check", "prop", "subgroup-open"): (
        "subgroup-open", lambda r: check_subgroup_open(
            r.trg(), r.subset("subgroup", "H"), r.subset("w", "W"))),
    ("check", "prop", "base-translation"): ("base-translation", _base_translation),
    ("enumerate", "subgroups"): ("enumerate-subgroups", _enumerate_subgroups),
    ("enumerate", "topologies"): ("enumerate-topologies", _enumerate_topologies),
    ("enumerate", "witness"): ("enumerate-witness", _enumerate_witness),
}


def _next_words(*prefix: str) -> tuple[str, ...]:
    """The words that follow `prefix` in the table's keys, in table order."""
    n = len(prefix)
    return tuple(dict.fromkeys(key[n] for key in _COMMANDS if key[:n] == prefix))


def _unknown_prop(r: _Run) -> VerificationReport:
    names = ", ".join(_next_words("check", "prop"))
    if r.args.prop is None:
        raise InputError("check prop requires a proposition name: " + names)
    raise InputError(f"unknown proposition {r.args.prop!r}; expected one of: " + names)


def _decode(data: bytes) -> str:
    """The bytes as UTF-8 text with universal newlines, as text-mode
    `open` reads them; a byte that does not decode is a ParseError at
    the line and column the parser would give its character."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raise ParseError(f"invalid UTF-8 byte 0x{data[e.start]:02x}",
                         head.count("\n") + 1,
                         len(head) - head.rfind("\n")) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_input(path: str | None) -> str:
    """The document from the file, even at an empty path, or else from
    stdin.  Stdin is decoded from its bytes like a file; a text-only
    stream (no `buffer`, as an in-memory StringIO) is read as text."""
    if path is not None:
        with open(path, "rb") as fh:
            return _decode(fh.read())
    buf = getattr(sys.stdin, "buffer", None)
    return sys.stdin.read() if buf is None else _decode(buf.read())


def main(argv: list[str] | None = None) -> int:
    argv = _shim_argv(sys.argv[1:] if argv is None else argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        # the optional proposition word belongs to `check prop` alone
        if args.command == "check" and args.kind != "prop" and args.prop is not None:
            parser.error(f"unrecognized arguments: {args.prop}")
    except SystemExit as exc:
        # argparse has printed its usage error; a malformed command
        # line is bad input (3), while 2 means a failed premise
        if exc.code != 2:
            raise
        return 3
    source = "<stdin>" if args.file is None else args.file
    try:
        ws = parse_spec(_read_input(args.file))
    except OSError as e:
        print(f"{source}: {e.strerror or e}", file=sys.stderr)
        return 3
    except ParseError as e:
        print(f"{source}:{e.line}:{e.column}: {e}", file=sys.stderr)
        return 3
    if args.command == "enumerate":
        words = (args.command, args.what)
    else:
        words = (args.command, args.kind) + ((args.prop,) if args.kind == "prop" else ())
    name, run = _COMMANDS.get(words) or (
        f"prop-{args.prop}" if args.prop else "prop", _unknown_prop)
    try:
        report = run(_Run(ws, args, name))
    except InputError as e:
        report = error_report(name, str(e))
    except _NotApplicable as e:
        report = e.report
    sys.stdout.write(serialize_report(report, "json" if args.json else "text"))
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
