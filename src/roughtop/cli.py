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
import sys
from functools import cache

from .actions import (
    RoughSpace,
    check_AU_open,
    check_subgroup_open,
    is_rough_homogeneous,
    verify_rough_action,
)
from .approx import ApproxSpace, popcount
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
    not_applicable,
    serialize_report,
)
from .topology import enumerate_topologies
from .trg import (
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

_CHECK_KINDS = (
    "rough-group", "subgroup", "normal", "hom", "trg", "trg-hom",
    "trg-homeo", "action", "homogeneous", "prop",
)
_PROP_NAMES = (
    "g-inverse", "open-inverse", "translations", "symmetric-square",
    "topological-group", "closure-symmetric", "closure-subgroup",
    "au-open", "subgroup-open", "base-translation",
)
_ENUM_KINDS = ("subgroups", "topologies", "witness")


def _shim_argv(argv: list[str]) -> list[str]:
    """Accept `--check X` / `--enumerate X` as spellings of the
    subcommands, by rewriting the flag token in place."""
    out = []
    for tok in argv:
        if tok == "--check":
            out.append("check")
        elif tok == "--enumerate":
            out.append("enumerate")
        else:
            out.append(tok)
    return out


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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="roughtop",
        description="Verify and explore finite rough algebraic-topological "
                    "structures described in a declaration file.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--file", help="input document (default: stdin)")
        sp.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
        sp.add_argument("--cap", type=_non_negative_int, default=DEFAULT_SUBGROUP_ENUM_CAP,
                        help="size cap for enumerating subgroups")
        sp.add_argument("--strict-hom", action="store_true",
                        help="also require the source upper approximation to "
                             "be closed under the operation")
        sp.add_argument("--codomain-topology", choices=("upper", "relative"),
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
        sp.add_argument("--side", choices=("left", "right"), default="left")
        sp.add_argument("--element")
        sp.add_argument("--w")
        sp.add_argument("--open")
        sp.add_argument("--subset")
        sp.add_argument("--base-member", action="append", default=[])
        sp.add_argument("--max-size", type=_non_negative_int, default=3)

    cp = sub.add_parser("check", help="verify one structure or theorem instance")
    cp.add_argument("kind", choices=_CHECK_KINDS)
    cp.add_argument("prop", nargs="?", default=None,
                    help="proposition name when kind is 'prop'")
    add_common(cp)

    ep = sub.add_parser("enumerate", help="list structures of a given kind")
    ep.add_argument("what", choices=_ENUM_KINDS)
    add_common(ep)
    return p


def _need(args, flag: str, kind: str) -> str:
    value = getattr(args, flag.replace("-", "_"))
    if value is None:
        raise InputError(f"{kind} requires --{flag}")
    return value


def _build_space(ws: Workspace, table_name: str, partition_name: str) -> ApproxSpace:
    t_uname, table = ws.get("table", table_name)
    p_uname, partition = ws.get("partition", partition_name)
    if t_uname != p_uname:
        raise InputError(
            f"table {table_name!r} is on universe {t_uname!r} but partition "
            f"{partition_name!r} is on {p_uname!r}"
        )
    return ApproxSpace(table.universe, partition, table)


def _subset_on(ws: Workspace, name: str, space: ApproxSpace, what: str) -> int:
    uname, u, mask = ws.set_ref(name)
    if u != space.universe:
        raise InputError(f"{what} {name!r} lives on universe {uname!r}, "
                         "not the one the table and partition share")
    return mask


def _group_cert(ws: Workspace, args, check: str, prefix: str = ""):
    """Build a rough-group certificate from --table/--partition/--group
    (or their src-/tgt- prefixed forms).  Returns (cert, None) or
    (None, not-applicable report) when the group axioms fail."""
    dash = f"{prefix}-" if prefix else ""
    space = _build_space(ws,
                         _need(args, f"{dash}table", check),
                         _need(args, f"{dash}partition", check))
    g_mask = _subset_on(ws, _need(args, f"{dash}group", check), space, "group")
    rep, cert = verify_rough_group(space, g_mask)
    if cert is None:
        label = f"premise-{prefix}-rough-group" if prefix else "premise-rough-group"
        return None, not_applicable(
            check, label, rep.first_witness() or "the group axioms fail")
    return cert, None


def _trg_cert(ws: Workspace, args, check: str, prefix: str = ""):
    cert, na = _group_cert(ws, args, check, prefix)
    if cert is None:
        return None, na
    dash = f"{prefix}-" if prefix else ""
    _, top = ws.get("topology", _need(args, f"{dash}topology", check))
    rep, trg = decide_trg(cert, top, codomain_topology=args.codomain_topology)
    if trg is None:
        label = f"premise-{prefix}-trg" if prefix else "premise-trg"
        return None, not_applicable(
            check, label, rep.first_witness() or "the continuity conditions fail")
    return trg, None


def _with_kernel_info(report: VerificationReport, hom) -> VerificationReport:
    """Append informational kernel clauses to a homomorphism report."""
    if hom is None:
        return report
    kernel, krep = rough_kernel(hom)
    u = hom.source.space.universe
    extra = [Clause("kernel-elements", INFO, u.set_str(kernel))]
    if krep.verdict == PASS:
        extra.append(Clause("kernel-normal", INFO, "pass"))
    else:
        wit = krep.first_witness()
        extra.append(Clause("kernel-normal", INFO,
                            krep.verdict + (f": {wit}" if wit else "")))
    stats = list(report.stats) + [("kernel-size", popcount(kernel))]
    return combine(report.check, list(report.clauses) + extra, stats=stats)


def _rough_space(ws: Workspace, args, check: str) -> RoughSpace:
    x_uname, xu, x_mask = ws.set_ref(_need(args, "x-subset", check))
    pname = _need(args, "x-partition", check)
    _, partition = ws.get("partition", pname)
    if partition.universe != xu:
        raise InputError(
            f"partition {pname!r} is not on the universe of {x_uname!r}"
        )
    _, tau_x = ws.get("topology", _need(args, "x-topology", check))
    space = ApproxSpace(xu, partition, None)
    return RoughSpace.make(space, x_mask, tau_x)


def _run_check(ws: Workspace, args) -> VerificationReport:
    kind = args.kind
    if kind == "rough-group":
        space = _build_space(ws, _need(args, "table", kind),
                             _need(args, "partition", kind))
        g_mask = _subset_on(ws, _need(args, "group", kind), space, "group")
        rep, _ = verify_rough_group(space, g_mask)
        return rep
    if kind == "subgroup":
        cert, na = _group_cert(ws, args, "rough-subgroup")
        if cert is None:
            return na
        h = _subset_on(ws, _need(args, "subgroup", kind), cert.space, "subgroup")
        return verify_rough_subgroup(cert, h)
    if kind == "normal":
        cert, na = _group_cert(ws, args, "rough-normal")
        if cert is None:
            return na
        n = _subset_on(ws, _need(args, "subgroup", kind), cert.space, "subgroup")
        return is_rough_normal(cert, n)
    if kind == "hom":
        src, na = _group_cert(ws, args, "rough-homomorphism", prefix="src")
        if src is None:
            return na
        tgt, na = _group_cert(ws, args, "rough-homomorphism", prefix="tgt")
        if tgt is None:
            return na
        _, _, fmap = ws.get("map", _need(args, "map", kind))
        rep, hom = verify_rough_homomorphism(src, tgt, fmap,
                                             strict=args.strict_hom)
        return _with_kernel_info(rep, hom)
    if kind == "trg":
        cert, na = _group_cert(ws, args, "trg")
        if cert is None:
            return na
        _, top = ws.get("topology", _need(args, "topology", kind))
        rep, _ = verify_trg(cert, top, codomain_topology=args.codomain_topology)
        return rep
    if kind in ("trg-hom", "trg-homeo"):
        check = "trg-homomorphism" if kind == "trg-hom" else "trg-homeomorphism"
        src, na = _trg_cert(ws, args, check, prefix="src")
        if src is None:
            return na
        tgt, na = _trg_cert(ws, args, check, prefix="tgt")
        if tgt is None:
            return na
        _, _, fmap = ws.get("map", _need(args, "map", kind))
        rep, hom = verify_trg_homomorphism(src, tgt, fmap,
                                           strict=args.strict_hom)
        if kind == "trg-hom":
            return _with_kernel_info(rep, hom.algebra if hom else None)
        if hom is None:
            return not_applicable(
                check, "premise-trg-homomorphism",
                rep.first_witness() or "the map is not a continuous homomorphism")
        return verify_trg_homeomorphism(hom)
    if kind == "action":
        cert, na = _trg_cert(ws, args, "rough-action")
        if cert is None:
            return na
        rspace = _rough_space(ws, args, kind)
        _, _, mu = ws.get("map", _need(args, "map", kind))
        rep, _ = verify_rough_action(cert, rspace, mu, side=args.side)
        return rep
    if kind == "homogeneous":
        rspace = _rough_space(ws, args, kind)
        ok, wit = is_rough_homogeneous(rspace)
        clause = Clause("orbit-transitivity", PASS if ok else FAIL, wit)
        return combine("homogeneous", [clause],
                       stats=[("points", popcount(rspace.upper_x))])
    if kind == "prop":
        return _run_prop(ws, args)
    raise InputError(f"unknown check kind {kind!r}")


def _run_prop(ws: Workspace, args) -> VerificationReport:
    name = args.prop
    if name is None:
        raise InputError(
            "check prop requires a proposition name: " + ", ".join(_PROP_NAMES)
        )
    if name not in _PROP_NAMES:
        raise InputError(f"unknown proposition {name!r}; expected one of: "
                         + ", ".join(_PROP_NAMES))
    check = f"prop-{name}"
    cert, na = _trg_cert(ws, args, check)
    if cert is None:
        return na
    u = cert.universe
    if name == "g-inverse":
        return check_G_equals_G_inverse(cert)
    if name == "open-inverse":
        return check_open_iff_inverse_open(cert)
    if name == "translations":
        tok = _need(args, "element", check)
        return check_translations(cert, u.index(tok))
    if name == "symmetric-square":
        w = _subset_on(ws, _need(args, "w", check), cert.group.space, "W")
        _, rep = find_symmetric_square_nbhd(cert, w)
        return rep
    if name == "topological-group":
        return check_topological_group(cert)
    if name == "closure-symmetric":
        a = _subset_on(ws, _need(args, "subset", check), cert.group.space, "A")
        return check_closure_symmetric(cert, a)
    if name == "closure-subgroup":
        h = _subset_on(ws, _need(args, "subgroup", check), cert.group.space, "H")
        return check_closure_subgroup(cert, h)
    if name == "au-open":
        a = _subset_on(ws, _need(args, "subset", check), cert.group.space, "A")
        uopen = _subset_on(ws, _need(args, "open", check), cert.group.space, "U")
        return check_AU_open(cert, a, uopen)
    if name == "subgroup-open":
        h = _subset_on(ws, _need(args, "subgroup", check), cert.group.space, "H")
        w = _subset_on(ws, _need(args, "w", check), cert.group.space, "W")
        return check_subgroup_open(cert, h, w)
    if name == "base-translation":
        if not args.base_member:
            raise InputError(f"{check} requires at least one --base-member")
        members = [
            _subset_on(ws, m, cert.group.space, "base member")
            for m in args.base_member
        ]
        return check_base_translation(cert, members)
    raise InputError(f"unknown proposition {name!r}")


def _run_enumerate(ws: Workspace, args) -> VerificationReport:
    what = args.what
    if what == "subgroups":
        cert, na = _group_cert(ws, args, "enumerate-subgroups")
        if cert is None:
            return na
        found = enumerate_rough_subgroups(cert, cap=args.cap)
        u = cert.space.universe
        clauses = [
            Clause(f"item-{i}", INFO, u.set_str(mask))
            for i, mask in enumerate(found)
        ]
        return combine("enumerate-subgroups", clauses,
                       stats=[("count", len(found))])
    if what == "topologies":
        cert, na = _group_cert(ws, args, "enumerate-topologies")
        if cert is None:
            return na
        n = popcount(cert.upper)
        if n > args.max_size:
            raise InputError(
                f"the upper approximation has {n} points, exceeding "
                f"--max-size {args.max_size}"
            )
        u = cert.space.universe
        # at most 2^n distinct opens occur, so each is formatted once
        set_str = cache(u.set_str)
        tops = enumerate_topologies(u, cert.upper)
        trg_opens = {t.opens for t in trg_topologies(cert, args.codomain_topology)}
        clauses = []
        for i, top in enumerate(tops):
            verdict = PASS if top.opens in trg_opens else FAIL
            opens = " ".join(map(set_str, top.opens))
            clauses.append(Clause(f"topology-{i}", INFO,
                                  f"trg={verdict} opens: {opens}"))
        return combine("enumerate-topologies", clauses,
                       stats=[("count", len(tops)), ("trg-pass", len(trg_opens))])
    if what == "witness":
        cert, na = _trg_cert(ws, args, "enumerate-witness")
        if cert is None:
            return na
        w = _subset_on(ws, _need(args, "w", "enumerate witness"),
                       cert.group.space, "W")
        found = list(symmetric_square_nbhds(cert, w))
        clauses = [INVERSE_CONVENTION] + [
            Clause(f"item-{i}", INFO, cert.universe.set_str(v))
            for i, v in enumerate(found)
        ]
        return combine("enumerate-witness", clauses,
                       stats=[("count", len(found))])
    raise InputError(f"unknown enumeration {what!r}")


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
    """The document from the file, or else from stdin.  Stdin is decoded
    from its bytes like a file; a text-only stream (no `buffer`, as an
    in-memory StringIO) is read as text."""
    if path:
        with open(path, "rb") as fh:
            return _decode(fh.read())
    buf = getattr(sys.stdin, "buffer", None)
    return sys.stdin.read() if buf is None else _decode(buf.read())


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_shim_argv(list(argv)))
    except SystemExit as exc:
        # argparse has printed its usage error; a malformed command
        # line is bad input (3), while 2 means a failed premise
        if exc.code != 2:
            raise
        return 3
    source = args.file or "<stdin>"
    try:
        ws = parse_spec(_read_input(args.file))
    except OSError as e:
        print(f"{source}: {e.strerror or e}", file=sys.stderr)
        return 3
    except ParseError as e:
        print(f"{source}:{e.line}:{e.column}: {e}", file=sys.stderr)
        return 3
    check_label = (f"prop-{args.prop}" if getattr(args, "kind", None) == "prop"
                   and args.prop else None)
    try:
        if args.command == "check":
            report = _run_check(ws, args)
        else:
            report = _run_enumerate(ws, args)
    except InputError as e:
        label = check_label or getattr(args, "kind", None) or getattr(
            args, "what", "command")
        report = error_report(label, str(e))
    sys.stdout.write(serialize_report(report, "json" if args.json else "text"))
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
