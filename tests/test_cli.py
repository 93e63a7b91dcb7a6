"""Command-line behavior: exit codes, report texts, JSON, error paths."""

import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import roughtop
import roughtop.cli as cli
from roughtop.parser import parse_spec
from roughtop.record import Record
from roughtop.report import serialize_report
from roughtop.topology import FiniteTopology
from conftest import (FIXDIR, oracle_build_parser, oracle_enumerate_topologies_report,
                      run_cli)

# Recorded stdout, stderr and exit code of every MATRIX row, in text and
# in --json mode. Regenerate after a deliberate output change with
#   PYTHONPATH=src python tests/test_cli.py --record
GOLDEN = Path(__file__).resolve().parent / "golden" / "matrix.json"

# (fixture, argv tail, expected exit code) covering every subcommand,
# every proposition, and all four exit codes.
MATRIX = [
    ("zmod3.rg", "check rough-group --table TA --partition PA --group GA", 0),
    ("zmod3.rg", "check trg --table TA --partition PA --group GA --topology tauA", 0),
    ("zmod3.rg", "check trg --table TA --partition PA --group GA --topology tauA2", 1),
    ("zmod3.rg", "check subgroup --table TA --partition PA --group GA --subgroup HA", 1),
    ("zmod3.rg", "check normal --table TA --partition PA --group GA --subgroup GA", 0),
    ("zmod3.rg", "check prop g-inverse --table TA --partition PA --group GA --topology tauA", 0),
    ("zmod3.rg", "check prop translations --element 1 --table TA --partition PA --group GA --topology tauA", 0),
    ("zmod3.rg", "check prop open-inverse --table TA --partition PA --group GA --topology tauA", 0),
    ("zmod3.rg", "check prop symmetric-square --w GbarA --table TA --partition PA --group GA --topology tauA", 0),
    ("zmod3.rg", "check prop topological-group --table TA --partition PA --group GA --topology tauA", 2),
    ("zmod3.rg", "check prop closure-symmetric --subset GA --table TA --partition PA --group GA --topology tauA", 2),
    ("zmod3.rg", "check prop closure-subgroup --subgroup GA --table TA --partition PA --group GA --topology tauA", 2),
    ("zmod3.rg", "check prop au-open --subset HA --open GA --table TA --partition PA --group GA --topology tauA", 1),
    ("zmod3.rg", "check hom --src-table TA --src-partition PA --src-group GA --tgt-table TA --tgt-partition PA --tgt-group GA --map neg", 0),
    ("zmod3.rg", "check trg-hom --src-table TA --src-partition PA --src-group GA --src-topology tauA --tgt-table TA --tgt-partition PA --tgt-group GA --tgt-topology tauA --map neg", 0),
    ("zmod3.rg", "check trg-homeo --src-table TA --src-partition PA --src-group GA --src-topology tauA --tgt-table TA --tgt-partition PA --tgt-group GA --tgt-topology tauA --map neg", 0),
    ("zmod3.rg", "check homogeneous --x-partition PA --x-subset GA --x-topology tauA", 1),
    ("zmod3.rg", "enumerate subgroups --table TA --partition PA --group GA", 0),
    ("zmod3.rg", "enumerate topologies --table TA --partition PA --group GA", 0),
    ("zmod3.rg", "enumerate witness --w GbarA --table TA --partition PA --group GA --topology tauA", 0),
    ("s4.rg", "check rough-group --table TB --partition PB --group GB", 0),
    ("s4.rg", "check rough-group --table TB --partition PB --group GPB", 1),
    ("s4.rg", "check trg --table TB --partition PB --group GB --topology tauB", 0),
    ("s4.rg", "check trg --table TB --partition PB --group GB --topology tauB --codomain-topology relative", 1),
    ("s4.rg", "check subgroup --table TB --partition PB --group GB --subgroup HB", 1),
    ("s4.rg", "check normal --table TB --partition PB --group GB --subgroup HB", 2),
    ("s4.rg", "check prop symmetric-square --w WB --table TB --partition PB --group GB --topology tauB", 0),
    ("s4.rg", "check prop translations --element (12) --table TB --partition PB --group GB --topology tauB", 0),
    ("s4.rg", "check prop closure-symmetric --subset A12 --table TB --partition PB --group GB --topology tauB", 2),
    ("s4.rg", "check prop closure-subgroup --subgroup HB --table TB --partition PB --group GB --topology tauB", 2),
    ("s4.rg", "enumerate subgroups --table TB --partition PB --group GB", 0),
    ("s4.rg", "enumerate witness --w WB --table TB --partition PB --group GB --topology tauB", 0),
    ("zmod3_product.rg", "check rough-group --table TP --partition PP --group GP", 0),
    ("zmod3_product.rg", "check trg --table TP --partition PP --group GP --topology tauP", 0),
    ("hom_z3_to_s4.rg", "check hom --src-table TA --src-partition PA --src-group GA --tgt-table TB --tgt-partition PB --tgt-group GB --map Phi", 0),
    ("hom_z3_to_s4.rg", "check hom --src-table TA --src-partition PA --src-group GA --tgt-table TB --tgt-partition PB --tgt-group GB --map Phi2", 1),
    ("hom_z3_to_s4.rg", "check trg-hom --src-table TA --src-partition PA --src-group GA --src-topology tauA --tgt-table TB --tgt-partition PB --tgt-group GB --tgt-topology tauB --map Phi", 0),
    ("hom_z3_to_s4.rg", "check trg-homeo --src-table TA --src-partition PA --src-group GA --src-topology tauA --tgt-table TB --tgt-partition PB --tgt-group GB --tgt-topology tauB --map Phi", 1),
    ("zmod4_discrete.rg", "check trg --table T4 --partition P4 --group G4 --topology tau4", 0),
    ("zmod4_discrete.rg", "check prop base-translation --base-member B0 --base-member B1 --base-member B3 --table T4 --partition P4 --group G4 --topology tau4", 0),
    ("zmod4_discrete.rg", "check prop subgroup-open --subgroup G4 --w B0 --table T4 --partition P4 --group G4 --topology tau4", 0),
    ("zmod4_discrete.rg", "check prop subgroup-open --subgroup G4 --w B1 --table T4 --partition P4 --group G4 --topology tau4", 2),
    ("zmod3_selfaction.rg", "check action --table TA --partition PA --group GA --topology tauD --x-partition PA --x-subset GA --x-topology tauD --map mu", 0),
    ("zmod3_selfaction.rg", "check action --table TA --partition PA --group GA --topology tauA --x-partition PA --x-subset GA --x-topology tauA --map mu", 1),
    ("zmod3_selfaction.rg", "check action --table TA --partition PA --group GA --topology tauA --x-partition PA --x-subset GA --x-topology tauA --map mut", 0),
    ("zmod3.rg", "check homogeneous --x-partition PA --x-subset HA --x-topology tauA2", 3),
    ("zmod3_selfaction.rg", "check homogeneous --x-partition PA --x-subset GA --x-topology tauD", 0),
    ("zmod3.rg", "--check rough-group --table TA --partition PA --group GA", 0),
]


@pytest.mark.parametrize("fixture,tail,expected", MATRIX)
def test_exit_code_matrix(fixture, tail, expected):
    code, out, err = run_cli(tail.split(), fixture=fixture)
    assert code == expected, f"{tail!r} on {fixture}: {out}{err}"
    if expected < 3:
        first = out.splitlines()[0]
        word = {0: "PASS", 1: "FAIL", 2: "NOT-APPLICABLE"}[expected]
        assert first.startswith(word)


@pytest.mark.parametrize("fixture,tail,expected", MATRIX)
def test_json_mode_matches_text_mode(fixture, tail, expected):
    code, out, _ = run_cli(tail.split() + ["--json"], fixture=fixture)
    assert code == expected
    payload = json.loads(out)
    verdict = {0: "pass", 1: "fail", 2: "not-applicable", 3: "error"}[expected]
    assert payload["verdict"] == verdict


def _golden_key(fixture: str, tail: str, mode: str) -> str:
    return f"{fixture} {tail} [{mode}]"


def _matrix_runs():
    for fixture, tail, _ in MATRIX:
        for mode, extra in (("text", []), ("json", ["--json"])):
            code, out, err = run_cli(tail.split() + extra, fixture=fixture)
            yield _golden_key(fixture, tail, mode), {
                "exit": code, "stdout": out, "stderr": err}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("fixture,tail", [row[:2] for row in MATRIX])
def test_matrix_matches_golden(golden, fixture, tail, mode):
    extra = ["--json"] if mode == "json" else []
    code, out, err = run_cli(tail.split() + extra, fixture=fixture)
    assert {"exit": code, "stdout": out, "stderr": err} == \
        golden[_golden_key(fixture, tail, mode)]


def _unmet_clauses(out: str, mode: str) -> list[tuple[str, str | None]]:
    """(name, witness) of each failed, not-applicable or error clause of
    a printed report."""
    if mode == "json":
        clauses = [(c["name"], c["verdict"], c["witness"])
                   for c in json.loads(out)["clauses"]]
    else:
        clauses = []
        for line in out.splitlines()[1:]:
            if not line.startswith("  stat "):
                name, _, rest = line.strip().partition(": ")
                verdict, _, witness = rest.partition("  witness: ")
                clauses.append((name, verdict, witness or None))
    return [(name, witness) for name, verdict, witness in clauses
            if verdict in ("fail", "not-applicable", "error")]


def test_matrix_unmet_clauses_name_their_witness():
    """Every failed, not-applicable or error clause of every MATRIX
    report carries a witness, in text and in JSON alike."""
    unmet = {"text": [], "json": []}
    for fixture, tail, _ in MATRIX:
        for mode, extra in (("text", []), ("json", ["--json"])):
            _, out, _ = run_cli(tail.split() + extra, fixture=fixture)
            unmet[mode] += [(tail, clause) for clause in _unmet_clauses(out, mode)]
    assert unmet["text"] and unmet["text"] == unmet["json"]
    assert [entry for entry in unmet["text"] if not entry[1][1]] == []


def test_trg_report_text():
    _, out, _ = run_cli(
        "check trg --table TB --partition PB --group GB --topology tauB".split(),
        fixture="s4.rg")
    assert out == (
        "PASS trg\n"
        "  codomain-topology: info  witness: upper\n"
        "  product-map-continuity: pass\n"
        "  inverse-map-continuity: pass\n"
        "  stat product-opens=16\n"
        "  stat tau-G-opens=4\n"
        "  stat tau-opens=5\n")


def test_trg_hom_report_appends_kernel():
    _, out, _ = run_cli(
        ("check trg-hom --src-table TA --src-partition PA --src-group GA "
         "--src-topology tauA --tgt-table TB --tgt-partition PB "
         "--tgt-group GB --tgt-topology tauB --map Phi").split(),
        fixture="hom_z3_to_s4.rg")
    assert out == (
        "PASS trg-homomorphism\n"
        "  rough-homomorphism: pass\n"
        "  continuity: pass\n"
        "  classification: info  witness: homomorphism-only\n"
        "  kernel-elements: info  witness: {1,2}\n"
        "  kernel-normal: info  witness: pass\n"
        "  stat constrained-pairs=9\n"
        "  stat kernel-size=2\n"
        "  stat unconstrained-pairs=0\n")


def test_enumerate_subgroups_text():
    _, out, _ = run_cli(
        "enumerate subgroups --table TB --partition PB --group GB".split(),
        fixture="s4.rg")
    assert out == (
        "PASS enumerate-subgroups\n"
        "  item-0: info  witness: {(12)}\n"
        "  item-1: info  witness: {(12),(123),(132)}\n"
        "  stat count=2\n")


def test_enumerate_witness_text():
    _, out, _ = run_cli(
        ("enumerate witness --w WB --table TB --partition PB --group GB "
         "--topology tauB").split(),
        fixture="s4.rg")
    assert out == (
        "PASS enumerate-witness\n"
        "  inverse-convention: info  witness: inverses taken inside the "
        "upper approximation with respect to the designated identity\n"
        "  item-0: info  witness: {1,(123),(132)}\n"
        "  stat count=1\n")


def test_enumerate_topologies_text():
    _, out, _ = run_cli(
        "enumerate topologies --table TA --partition PA --group GA".split(),
        fixture="zmod3.rg")
    lines = out.splitlines()
    assert lines[0] == "PASS enumerate-topologies"
    assert lines[1] == ("  topology-0: info  witness: trg=pass opens: "
                        "{} {0} {1} {0,1} {2} {0,2} {1,2} {0,1,2}")
    assert lines[-2] == "  stat count=29"
    assert lines[-1] == "  stat trg-pass=10"
    assert sum("trg=pass" in l for l in lines) == 10


def test_topology_listing_builds_no_topology_object(monkeypatch):
    """Once the document is parsed, `enumerate topologies` formats and
    matches every listed topology from its key, without building one
    FiniteTopology, and prints what the object-based listing prints."""
    argv = ("enumerate topologies --max-size 4 --table T4 --partition P4 "
            "--group G4").split()
    built = []
    parsed = []

    def parse(text):
        ws = cli_parse(text)
        parsed.append(len(built))  # the declared topology tau4
        built.clear()
        return ws

    def fill(self, **fields):
        built.append(fields)
        Record._set(self, **fields)

    cli_parse = cli.parse_spec
    monkeypatch.setattr(cli, "parse_spec", parse)
    # every way of making a FiniteTopology, the constructor and the
    # builds through __new__ alike, sets its fields through _set
    monkeypatch.setattr(FiniteTopology, "_set", fill)
    code, out, err = run_cli(argv, fixture="zmod4_discrete.rg")
    assert (code, err) == (0, "")
    assert parsed == [1] and built == []
    monkeypatch.undo()
    args = cli._build_parser(argv).parse_args(argv)
    want = oracle_enumerate_topologies_report(
        cli._Run(parse_spec((FIXDIR / "zmod4_discrete.rg").read_text()), args,
                 "enumerate-topologies"))
    assert out == serialize_report(want)
    assert "stat count=355" in out


def test_normal_premise_text():
    code, out, _ = run_cli(
        "check normal --table TB --partition PB --group GB --subgroup HB".split(),
        fixture="s4.rg")
    assert code == 2
    assert out == (
        "NOT-APPLICABLE rough-normal\n"
        "  premise-rough-subgroup: not-applicable  witness: (123) * (132) "
        "= 1 escapes the upper approximation of H\n")


def test_homogeneous_text():
    code, out, _ = run_cli(
        "check homogeneous --x-partition PA --x-subset GA --x-topology tauA".split(),
        fixture="zmod3.rg")
    assert code == 1
    assert out == (
        "FAIL homogeneous\n"
        "  orbit-transitivity: fail  witness: no self-homeomorphism "
        "carries 0 to 1\n"
        "  stat points=3\n")


_ACTION_RIGHT = ("check action --table TA --partition PA --group GA --topology tauD "
                 "--x-partition PA --x-subset GA --x-topology tauD --side right --map")


def test_right_action_reads_the_group_element_second():
    code, out, _ = run_cli(_ACTION_RIGHT.split() + ["mu"], fixture="zmod3_selfaction.rg")
    assert code == 0 and out.startswith("PASS rough-action\n")
    code, out, _ = run_cli(_ACTION_RIGHT.split() + ["mut"], fixture="zmod3_selfaction.rg")
    assert code == 1
    assert ("  compatibility: fail  witness: ((0 1) 0) = 0 but the combined "
            "element gives 1\n") in out
    assert "  identity: fail  witness: identity 0 moves 1 to 0\n" in out


_STRICT_HOM = ("check hom --src-table {t} --src-partition {p} --src-group {g} "
               "--tgt-table {t} --tgt-partition {p} --tgt-group {g} --map {m} --strict-hom")


def test_strict_hom_passes_an_upper_closed_source():
    code, out, _ = run_cli(
        _STRICT_HOM.format(t="TA", p="PA", g="GA", m="neg").split(), fixture="zmod3.rg")
    assert code == 0
    assert "  upper-closed: pass\n" in out


def test_strict_hom_names_the_product_that_leaves_the_upper_approximation(tmp_path):
    text = (FIXDIR / "s4.rg").read_text(encoding="utf-8")
    upper = next(line for line in text.splitlines()
                 if line.startswith("subset GbarB ")).split(":")[1].split()
    path = tmp_path / "s4_identity.rg"
    path.write_text(text + "map idB from GbarB to GbarB: "
                    + " ".join(f"{x}->{x}" for x in upper) + "\n", encoding="utf-8")
    code, out, _ = run_cli(_STRICT_HOM.format(t="TB", p="PB", g="GB", m="idB").split()
                           + ["--file", str(path)])
    assert code == 1
    assert ("  upper-closed: fail  witness: (12) * (34) = (12)(34) leaves the "
            "source upper approximation\n") in out


def test_missing_flag_is_error_report():
    code, out, err = run_cli(
        "check trg --table TA --partition PA --group GA".split(),
        fixture="zmod3.rg")
    assert code == 3
    assert out == ("ERROR trg\n"
                   "  input: error  witness: trg requires --topology\n")
    assert err == ""


def test_au_open_requires_open():
    code, out, err = run_cli(
        "check prop au-open --subset HA --table TA --partition PA --group GA "
        "--topology tauA".split(), fixture="zmod3.rg")
    assert code == 3
    assert out == ("ERROR AU-open\n"
                   "  input: error  witness: AU-open requires --open\n")
    assert err == ""


_GROUP = "--table TA --partition PA --group GA"
_TRG = _GROUP + " --topology tauA"
_PAIR = ("--src-table TA --src-partition PA --src-group GA "
         "--tgt-table TA --tgt-partition PA --tgt-group GA")
_TRG_PAIR = _PAIR + " --src-topology tauA --tgt-topology tauA"
_X = "--x-partition PA --x-subset GA --x-topology tauA"


# Every command with flags it runs on, and the name of its report, which
# its error report and every `requires --flag` message carry too.
MISSING_FLAG = [
    ("check rough-group", "zmod3.rg", _GROUP, "rough-group"),
    ("check subgroup", "zmod3.rg", _GROUP + " --subgroup GA", "rough-subgroup"),
    ("check normal", "zmod3.rg", _GROUP + " --subgroup GA", "rough-normal"),
    ("check hom", "zmod3.rg", _PAIR + " --map neg", "rough-homomorphism"),
    ("check trg", "zmod3.rg", _TRG, "trg"),
    ("check trg-hom", "zmod3.rg", _TRG_PAIR + " --map neg", "trg-homomorphism"),
    ("check trg-homeo", "zmod3.rg", _TRG_PAIR + " --map neg", "trg-homeomorphism"),
    ("check action", "zmod3_selfaction.rg",
     _GROUP + " --topology tauD --x-partition PA --x-subset GA --x-topology tauD --map mu",
     "rough-action"),
    ("check homogeneous", "zmod3.rg", _X, "homogeneous"),
    ("check prop g-inverse", "zmod3.rg", _TRG, "G-inverse"),
    ("check prop open-inverse", "zmod3.rg", _TRG, "open-inverse"),
    ("check prop translations", "zmod3.rg", _TRG + " --element 1", "translations"),
    ("check prop symmetric-square", "zmod3.rg", _TRG + " --w GbarA",
     "symmetric-square"),
    ("check prop topological-group", "zmod3.rg", _TRG, "topological-group"),
    ("check prop closure-symmetric", "zmod3.rg", _TRG + " --subset GA",
     "closure-symmetric"),
    ("check prop closure-subgroup", "zmod3.rg", _TRG + " --subgroup GA",
     "closure-subgroup"),
    ("check prop au-open", "zmod3.rg", _TRG + " --subset HA --open GA", "AU-open"),
    ("check prop subgroup-open", "zmod3.rg", _TRG + " --subgroup GA --w GbarA",
     "subgroup-open"),
    ("check prop base-translation", "zmod3.rg", _TRG + " --base-member GA",
     "base-translation"),
    ("enumerate subgroups", "zmod3.rg", _GROUP, "enumerate-subgroups"),
    ("enumerate topologies", "zmod3.rg", _GROUP, "enumerate-topologies"),
    ("enumerate witness", "zmod3.rg", _TRG + " --w GbarA", "enumerate-witness"),
]


def _missing_flag_cases():
    for words, fixture, flags, name in MISSING_FLAG:
        pairs = [flags.split()[i:i + 2] for i in range(0, len(flags.split()), 2)]
        for i, (flag, _) in enumerate(pairs):
            rest = [tok for pair in pairs[:i] + pairs[i + 1:] for tok in pair]
            need = "at least one " if flag == "--base-member" else ""
            yield pytest.param(words.split() + rest, fixture, name,
                               f"{name} requires {need}{flag}", id=f"{words} {flag}")


@pytest.mark.parametrize("argv, fixture, label, message", _missing_flag_cases())
def test_missing_flag_report(argv, fixture, label, message):
    code, out, err = run_cli(argv, fixture=fixture)
    assert (code, err) == (3, "")
    assert out == f"ERROR {label}\n  input: error  witness: {message}\n"


@pytest.mark.parametrize("words, fixture, flags, name", MISSING_FLAG)
def test_missing_flag_rows_run_with_every_flag(words, fixture, flags, name):
    code, out, _ = run_cli(words.split() + flags.split(), fixture=fixture)
    assert code < 3, out
    assert out.split("\n", 1)[0].split(" ", 1)[1] == name


_BASE_ORDER_DOC = """universe U4: 0 1 2 3
table T4 on U4:
  0 1 2 3
  1 2 3 0
  2 3 0 1
  3 0 1 2
partition P4 on U4: {0 1} {2 3}
subset G4 of U4: 0 1 3
subset Gbar4 of U4: 0 1 2 3
subset B1 of U4: 1
subset B2 of U4: 2
subset B013 of U4: 0 1 3
topology ind on Gbar4: {} {0 1 2 3}
"""


@pytest.mark.parametrize("members", [("B1", "B2"), ("B2", "B1"), ("B2", "B013"),
                                     ("B013", "B2")])
def test_a_base_member_outside_G_is_an_input_error_in_any_order(members):
    """Under the indiscrete topology tau_G has the opens {} and {0,1,3}:
    the member {1} is not open and {0,1,3} is, but {2} lies outside G,
    so each order ends in the input error that names {2}."""
    argv = ("check prop base-translation --table T4 --partition P4 --group G4 "
            "--topology ind").split()
    code, out, err = run_cli(argv + ["--base-member", "B1"], stdin=_BASE_ORDER_DOC)
    assert code == 2
    assert out.endswith("  premise-base: not-applicable  witness: member {1} is not open\n")
    for m in members:
        argv += ["--base-member", m]
    assert run_cli(argv, stdin=_BASE_ORDER_DOC) == (
        3, "ERROR base-translation\n  input: error  witness: base member {2} is not a "
        "subset of the carrier {0,1,3}\n", "")


# the rows that verify a TRG before they read anything else: every row
# that takes --topology or --src-topology but `check trg`, whose report
# is that verdict
_TRG_ROWS = [pytest.param(words, flags, id=words) for words, _, flags, _ in MISSING_FLAG
             if ("--topology " in flags or "--src-topology " in flags)
             and words != "check trg"]


def test_trg_rows_are_the_props_action_witness_and_homs():
    assert sorted(row.values[0] for row in _TRG_ROWS) == sorted(
        [" ".join(words) for words in cli._COMMANDS if words[1] == "prop"]
        + ["check action", "check trg-hom", "check trg-homeo", "enumerate witness"])


@pytest.mark.parametrize("words, flags", _TRG_ROWS)
def test_a_row_on_a_topology_that_fails_trg_does_not_apply(words, flags):
    """Under tauA2 = {} {0} {0 1 2} the product map of zmod3.rg is not
    continuous, so each row stops at its TRG premise (the source's for a
    homomorphism) and exits 2."""
    argv = words.split() + [("tauA2" if tok.startswith("tau") else tok)
                            for tok in flags.split()]
    label = "premise-src-trg" if "--src-topology" in flags else "premise-trg"
    code, out, err = run_cli(argv, fixture="zmod3.rg")
    assert (code, err) == (2, "")
    assert out == (f"NOT-APPLICABLE {cli._COMMANDS[tuple(words.split())][0]}\n"
                   f"  {label}: not-applicable  witness: open {{0}} pulls back to "
                   "{(1,2),(2,1)}, which is not open in the product topology on G x G\n")


def test_trg_homeo_of_a_map_that_is_no_trg_homomorphism_does_not_apply():
    code, out, err = run_cli((
        "check trg-homeo --src-table TA --src-partition PA --src-group GA "
        "--src-topology tauA --tgt-table TB --tgt-partition PB --tgt-group GB "
        "--tgt-topology tauB --map Phi2").split(), fixture="hom_z3_to_s4.rg")
    assert (code, err) == (2, "")
    assert out == ("NOT-APPLICABLE trg-homeomorphism\n  premise-trg-homomorphism: "
                   "not-applicable  witness: map(1 * 2) = 1 but map(1) * map(2) = (12)\n")


@pytest.mark.parametrize("argv, name, message", [
    ("check subgroup --table TA --partition PA --group GA --subgroup GB", "rough-subgroup",
     "subgroup 'GB' lives on universe 'UB', not the one the table and partition share"),
    ("check rough-group --table TA --partition PB --group GA", "rough-group",
     "table 'TA' is on universe 'UA' but partition 'PB' is on 'UB'"),
    ("check homogeneous --x-partition PB --x-subset GA --x-topology tauA", "homogeneous",
     "partition 'PB' is not on the universe of 'UA'"),
])
def test_a_declaration_on_another_universe_is_an_input_error(argv, name, message):
    code, out, err = run_cli(argv.split(), fixture="hom_z3_to_s4.rg")
    assert (code, err) == (3, "")
    assert out == f"ERROR {name}\n  input: error  witness: {message}\n"


@pytest.mark.parametrize("value", ["--check", "--enumerate", "--other"])
def test_a_spelled_subcommand_after_the_command_word_is_an_option(value):
    """`--check` and `--enumerate` spell the command word only before
    it; after it they are options, so one standing as `--group`'s value
    leaves `--group` without its argument, as any other option does."""
    code, out, err = run_cli(
        f"check rough-group --table TA --partition PA --group {value}".split(),
        fixture="zmod3.rg")
    assert (code, out) == (3, "")
    assert err.endswith("roughtop check: error: argument --group: expected one argument\n")


def test_missing_flag_rows_are_the_command_table():
    assert {tuple(row[0].split()): row[3] for row in MISSING_FLAG} == {
        words: name for words, (name, _) in cli._COMMANDS.items()}


def _subparsers(argv: list[str]) -> dict[str, argparse.ArgumentParser]:
    """Subcommand -> its subparser, in the parser built for `argv`."""
    return next(a for a in cli._build_parser(argv)._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_choices_and_proposition_names_are_the_table_keys():
    choices = {command: next(a.choices for a in _subparsers([command])[command]._actions
                             if a.dest in ("kind", "what"))
               for command in _subparsers([])}
    keys = list(cli._COMMANDS)
    assert choices == {
        "check": tuple(dict.fromkeys(k[1] for k in keys if k[0] == "check")),
        "enumerate": tuple(k[1] for k in keys if k[0] == "enumerate")}
    _, out, _ = run_cli(["check", "prop"], fixture="zmod3.rg")
    names = out.splitlines()[1].split("requires a proposition name: ")[1]
    assert names.split(", ") == [k[2] for k in keys if k[1] == "prop"]
    # the order argparse shows in --help and in its usage errors
    assert choices["check"] == ("rough-group", "subgroup", "normal", "hom", "trg",
                                "trg-hom", "trg-homeo", "action", "homogeneous", "prop")
    assert choices["enumerate"] == ("subgroups", "topologies", "witness")


def test_readme_tables_name_every_command_and_its_report():
    """The README's tables of check kinds, propositions and enumerations
    give the command table's rows and report names, in its order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    heads = {"kind": ("check",), "proposition": ("check", "prop"), "what": ("enumerate",)}
    documented, words = [], None
    for line in section.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        if not line.startswith("|") or cells[0].startswith("---"):
            continue
        if cells[0] in heads:
            words = heads[cells[0]]
        else:
            documented.append((words + (cells[0],), cells[1]))
    assert documented == [(key, name) for key, (name, _) in cli._COMMANDS.items()]


def test_prop_requires_name():
    code, out, _ = run_cli(
        "check prop --table TA --partition PA --group GA --topology tauA".split(),
        fixture="zmod3.rg")
    assert code == 3
    assert out.startswith("ERROR prop\n")
    assert "requires a proposition name" in out


def test_parse_error_goes_to_stderr():
    code, out, err = run_cli(
        "check trg --table TA --partition PA --group GA --topology tauA".split(),
        fixture="bad/unknown_element.rg")
    assert code == 3
    assert out == ""
    path = FIXDIR / "bad" / "unknown_element.rg"
    assert err == f"{path}:2:17: unknown element '5' in universe UA\n"


@pytest.mark.parametrize("fixture, where", [
    ("map_outside_domain.rg", "3:30: map assigns 'c', which lies outside its domain S"),
    ("topology_outside_carrier.rg", "3:28: family member {a,c} is not a subset of "
     "the carrier {a,b}: 'c' lies outside it"),
])
def test_element_outside_its_set_is_located(fixture, where):
    code, out, err = run_cli(
        "check rough-group --table T --partition P --group G".split(),
        fixture=f"bad/{fixture}")
    assert (code, out) == (3, "")
    assert err == f"{FIXDIR / 'bad' / fixture}:{where}\n"


@pytest.mark.parametrize("pairs, where", [
    ("a->a b->c c->a", "3:28: map sends 'b' to 'c', which lies outside its codomain S"),
    ("a->a b->b a->b", "3:30: map assigns 'a' twice"),
])
def test_bad_map_pair_is_located(pairs, where):
    doc = f"universe U: a b c\nsubset S of U: a b\nmap m from U to S: {pairs}\n"
    code, out, err = run_cli(
        "check rough-group --table T --partition P --group G".split(), stdin=doc)
    assert (code, out) == (3, "")
    assert err == f"<stdin>:{where}\n"


UNDECODABLE = [
    (b"\xff", "1:1: invalid UTF-8 byte 0xff"),
    # columns count characters: the two-byte \u00e9 is one column
    ("universe U: \u00e9 ".encode() + b"\xff b\n", "1:15: invalid UTF-8 byte 0xff"),
    # \r\n and a lone \r end lines, as in text-mode reading
    (b"# one\r\n# two\rx\ny \x80\n", "4:3: invalid UTF-8 byte 0x80"),
    (b"universe U: a\n\xff\n", "2:1: invalid UTF-8 byte 0xff"),
]


@pytest.mark.parametrize("data, where", UNDECODABLE)
def test_undecodable_file_is_a_diagnostic(tmp_path, data, where):
    path = tmp_path / "bad.rg"
    path.write_bytes(data)
    code, out, err = run_cli(
        "check rough-group --table T --partition P --group G".split()
        + ["--file", str(path)])
    assert code == 3
    assert out == ""
    assert err == f"{path}:{where}\n"


@pytest.mark.parametrize("data, where", UNDECODABLE)
def test_undecodable_stdin_is_a_diagnostic(data, where):
    # a real process, so that stdin is a byte stream, not a StringIO
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C")
    proc = subprocess.run(
        [sys.executable, "-m", "roughtop", "check", "rough-group",
         "--table", "T", "--partition", "P", "--group", "G"],
        input=data, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"<stdin>:{where}\n"


def test_crlf_file_reads_like_lf(tmp_path):
    path = tmp_path / "crlf.rg"
    path.write_bytes((FIXDIR / "zmod3.rg").read_bytes().replace(b"\n", b"\r\n"))
    tail = "check trg --table TA --partition PA --group GA --topology tauA".split()
    assert run_cli(tail + ["--file", str(path)]) == run_cli(tail, fixture="zmod3.rg")


def test_enumerate_witness_refuses_W_without_the_identity():
    tail = ("--w GA --table TA --partition PA --group GA "
            "--topology tauA").split()
    for argv in (["enumerate", "witness"], ["check", "prop", "symmetric-square"]):
        code, out, err = run_cli(argv + tail, fixture="zmod3.rg")
        assert code == 3
        assert out.endswith("  input: error  witness: the designated identity 0 "
                            "is not a member of W\n")
        assert err == ""


USAGE_ERRORS = [
    (["check", "nope"], "roughtop check: error: argument kind: invalid choice: 'nope'"),
    (["check", "trg", "--bogus"], "roughtop: error: unrecognized arguments: --bogus"),
    (["check", "trg", "nope"], "roughtop: error: unrecognized arguments: nope"),
    (["enumerate", "subgroups", "--cap", "-1"],
     "roughtop enumerate: error: argument --cap: expected a non-negative integer, got '-1'"),
    (["enumerate", "topologies", "--max-size", "-1"],
     "roughtop enumerate: error: argument --max-size: expected a non-negative "
     "integer, got '-1'"),
    (["enumerate", "topologies", "--max-size", "three"],
     "argument --max-size: expected a non-negative integer, got 'three'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_exits_3(argv, message):
    code, out, err = run_cli(argv)
    assert code == 3
    assert out == ""
    assert err.startswith("usage: roughtop")
    assert message in err


def test_cold_import_loads_every_module_and_no_dataclasses():
    """A fresh `import roughtop.cli` loads every module of the package,
    so no import waits for the first operation, and it needs neither
    `dataclasses` nor the `inspect` chain behind it, nor `json`, which
    only a `--json` report reads."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, roughtop.cli\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in "
            "('roughtop', 'dataclasses', 'inspect', 'json')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = {f"roughtop.{p.stem}" for p in (src / "roughtop").glob("*.py")}
    assert set(proc.stdout.split()) == (
        modules - {"roughtop.__init__", "roughtop.__main__"} | {"roughtop"})


def test_cold_import_without_site_loads_no_typing():
    """Under `python -S`, where no site hook has loaded `typing` first,
    `import roughtop.cli` does not load it either."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import roughtop.cli; "
            "print('typing' in sys.modules, 'roughtop.trg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_every_annotation_in_the_package_resolves():
    """`typing.get_type_hints` resolves every function and method that
    a `roughtop` module defines, so each annotated name is importable
    where it is used."""
    checked = 0
    for info in pkgutil.iter_modules(roughtop.__path__):
        module = importlib.import_module(f"roughtop.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                # unwrap classmethod, staticmethod, cached_property, property
                for attr in ("__func__", "func", "fget"):
                    member = getattr(member, attr, member)
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
                    checked += 1
    assert checked > 100


def test_subcommands_take_the_same_options_declared_once():
    """`check` and `enumerate` take the same optional arguments in the
    same order.  A parser built for a command line that leads with one
    subcommand registers no other, and one built where that word does
    not lead gives the other nothing but `-h`."""
    fields = ("option_strings", "dest", "default", "type", "choices", "nargs", "help")
    optionals = {}
    for word, other in (("check", "enumerate"), ("enumerate", "check")):
        subparsers = _subparsers([word])
        assert list(subparsers) == [word]
        optionals[word] = [tuple(getattr(a, f) for f in fields)
                           for a in subparsers[word]._actions if a.option_strings]
        subparsers = _subparsers(["--json", word])
        assert list(subparsers) == ["check", "enumerate"]
        assert [a.dest for a in subparsers[other]._actions] == ["help"]
    assert optionals["check"] == optionals["enumerate"]
    assert len(optionals["check"]) == 30  # -h and the 29 shared options


def test_help_still_exits_0():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0


# Recorded stdout, stderr and exit code of each help text and usage
# error, at a terminal 80 columns wide; `--record` regenerates it too.
USAGE_GOLDEN = GOLDEN.parent / "usage.json"
USAGE_RUNS = ([["--help"], ["check", "--help"], ["enumerate", "--help"]]
              + [argv for argv, _ in USAGE_ERRORS] + [["check"], ["enumerate"], []])


def _usage_key(argv: list[str]) -> str:
    return " ".join(["roughtop"] + argv)


def _usage_run(argv: list[str]) -> dict:
    """Like `run_cli`, but `--help` leaves `main` through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def usage_golden():
    return json.loads(USAGE_GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", USAGE_RUNS, ids=_usage_key)
def test_help_and_usage_text_match_golden(monkeypatch, usage_golden, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert _usage_run(argv) == usage_golden[_usage_key(argv)]


def test_many_main_calls_in_one_process(golden):
    """Calls of `main` in one process do not leak into each other: the
    `--base-member` list starts empty on every call, and neither a
    usage error nor `--help` changes the next report."""
    fixture, tail, _ = next(row for row in MATRIX if "base-translation" in row[1])
    words = tail.split()
    bare = [w for i, w in enumerate(words)
            if "--base-member" not in (w, words[i - 1])]
    assert len(bare) == len(words) - 6
    first = run_cli(words, fixture=fixture)
    assert first[1] == golden[_golden_key(fixture, tail, "text")]["stdout"]
    code, out, _ = run_cli(bare, fixture=fixture)
    assert code == 3
    assert out.endswith("base-translation requires at least one --base-member\n")
    assert run_cli(words, fixture=fixture) == first
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    assert run_cli("check trg nope".split() + _TRG.split(), fixture="zmod3.rg")[0] == 3
    assert run_cli(words, fixture=fixture) == first


def test_one_terminal_query_per_call(monkeypatch):
    """`main` asks the terminal for its width once, not once per
    argparse formatter, on a verdict, a usage error and `--help` alike."""
    queries = []
    real = shutil.get_terminal_size

    def counted(*args, **kwargs):
        queries.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    fixture, tail, _ = MATRIX[0]
    assert run_cli(tail.split(), fixture=fixture)[0] == 0
    assert len(queries) == 1
    assert run_cli(["check", "nope"])[0] == 3
    assert len(queries) == 2
    assert _usage_run(["check", "--help"])["exit"] == 0
    assert len(queries) == 3


def test_help_wraps_to_the_width_of_each_call(monkeypatch, usage_golden):
    """The width is read on every call, not once per process.  A line
    runs past it only when it is one word argparse cannot break, such
    as the list of kinds."""
    texts = {}
    for columns in (60, 132):
        monkeypatch.setenv("COLUMNS", str(columns))
        run = _usage_run(["check", "--help"])
        assert run["exit"] == 0
        texts[columns] = run["stdout"]
        assert [line for line in texts[columns].splitlines()
                if len(line) > columns and len(line.split()) > 1] == []
    assert texts[60] != texts[132]
    monkeypatch.setenv("COLUMNS", "80")
    assert _usage_run(["check", "--help"]) == usage_golden["roughtop check --help"]


def _parser_run(argv: list[str], fixture: str | None = None):
    if fixture is None:
        return pytest.param(argv, id=" ".join(argv))
    return pytest.param(argv + ["--file", str(FIXDIR / fixture)],
                        id=" ".join(argv + ["--file", fixture]))


# Command lines whose first word is not the subcommand, or that name
# both, or an option's value that is a subcommand's name.
_ODD_ARGVS = ["--", "-1", "-", "-h check", "--he check", "--json check trg",
              "check -- trg", "-x check trg", "--check --enumerate", "enumerate check",
              "check enumerate", "check --file enumerate trg"]
PARSER_RUNS = (
    [_parser_run(tail.split(), fixture) for fixture, tail, _ in MATRIX]
    + [_parser_run(argv) for argv in USAGE_RUNS]
    + [_parser_run((words + " " + flags).split(), fixture)
       for words, fixture, flags, _ in MISSING_FLAG]
    + [_parser_run(argv.split()) for argv in _ODD_ARGVS]
    + [_parser_run(argv.split(), "zmod3.rg") for argv in (
        "enumerate --max-size=2 topologies " + _GROUP,
        "enumerate topologies --max-size 3 " + _GROUP,
        "--enumerate topologies " + _GROUP,
        "--check trg " + _TRG,
        "--check prop g-inverse " + _TRG,
        "check --enumerate " + _GROUP,
        # the top parser's "unrecognized arguments" on the leading path
        "check trg nope " + _TRG,
        "check trg --bogus " + _TRG,
        "check -h",
        # an option before the word: the full tree's usage error
        "--json check trg " + _TRG,
        "enumerate " + _GROUP)])


def _main_with(monkeypatch, builder, argv: list[str]):
    """The stdout, stderr and exit or SystemExit code of one `main` call
    on an empty stdin, with `builder(argv)` as its parser, and the
    namespaces that parser's `parse_args` returned."""
    namespaces = []

    def build(args):
        parser = builder(args)
        parse = parser.parse_args

        def parse_args(*a, **kw):
            ns = parse(*a, **kw)
            namespaces.append(vars(ns))
            return ns

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "_build_parser", build)
    monkeypatch.setattr(sys, "stdin", io.StringIO())
    return _usage_run(argv), namespaces


@pytest.mark.parametrize("argv", PARSER_RUNS)
def test_parser_of_the_named_subcommand_matches_the_full_parser(monkeypatch, argv):
    """Building only the subcommand the command line names changes no
    output, exit code or parsed namespace of the parser that built both."""
    monkeypatch.setenv("COLUMNS", "80")
    new = _main_with(monkeypatch, cli._build_parser, argv)
    assert new == _main_with(monkeypatch, lambda _: oracle_build_parser(), argv)


def _argparse_work(monkeypatch, argv: list[str], fixture: str) -> tuple[int, dict]:
    """The exit code of one `main` call, and the `ArgumentParser`s it
    made, the parent parsers' actions it copied, its `add_argument`
    calls and its gettext lookups."""
    counts = dict.fromkeys(("__init__", "_add_container_actions", "add_argument"), 0)
    for name in counts:
        real = getattr(argparse.ArgumentParser, name)

        def counted(self, *a, _name=name, _real=real, **kw):
            counts[_name] += 1
            return _real(self, *a, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, name, counted)
    real_gettext = argparse._

    def gettext(message):
        counts["gettext"] += 1
        return real_gettext(message)

    counts["gettext"] = 0
    monkeypatch.setattr(argparse, "_", gettext)
    return run_cli(argv, fixture=fixture)[0], counts


_TRG_ROW = next(row for row in MATRIX if row[1].startswith("check trg "))
_TOPOLOGIES_ROW = next(row for row in MATRIX if row[1].startswith("enumerate topologies "))


@pytest.mark.parametrize("row, adds", [(_TRG_ROW, 33), (_TOPOLOGIES_ROW, 32)])
def test_one_main_call_declares_one_subcommand(monkeypatch, row, adds):
    """A `main` call whose command word leads makes the top parser and
    the one subparser it runs, copies no parent parser's actions, and
    declares two `-h` options plus the 29 shared options and the
    positionals of that subcommand, with six gettext lookups in all."""
    fixture, tail, code = row
    assert _argparse_work(monkeypatch, tail.split(), fixture) == (
        code, {"__init__": 2, "_add_container_actions": 0, "add_argument": adds,
               "gettext": 6})


@pytest.mark.parametrize("row, adds", [(_TRG_ROW, 34), (_TOPOLOGIES_ROW, 33)])
def test_a_main_call_led_by_an_option_declares_both_subcommands(monkeypatch, row, adds):
    """With an option before the command word, the top parser may list
    both subcommands, so `main` makes both subparsers and declares the
    options of the named one alone."""
    fixture, tail, _ = row
    code, counts = _argparse_work(monkeypatch, ["--json"] + tail.split(), fixture)
    del counts["gettext"]  # the usage error looks up its own messages
    assert (code, counts) == (
        3, {"__init__": 3, "_add_container_actions": 0, "add_argument": adds})


def test_reads_stdin_when_no_file():
    source = (FIXDIR / "zmod3.rg").read_text()
    code, out, _ = run_cli(
        "check rough-group --table TA --partition PA --group GA".split(),
        stdin=source)
    assert code == 0
    assert out.splitlines()[0] == "PASS rough-group"


@pytest.mark.parametrize("path", ["", "no-such-file.rg"])
def test_missing_file_is_a_diagnostic_and_stdin_is_not_read(path):
    """An empty path is a path, not a request for stdin."""
    source = (FIXDIR / "zmod3.rg").read_text()
    code, out, err = run_cli(
        "check rough-group --table TA --partition PA --group GA --file".split() + [path],
        stdin=source)
    assert (code, out, err) == (3, "", f"{path}: No such file or directory\n")


def test_output_is_deterministic():
    tail = ("check trg --table TB --partition PB --group GB "
            "--topology tauB").split()
    runs = [run_cli(tail, fixture="s4.rg") for _ in range(2)]
    assert runs[0] == runs[1]
    json_runs = [run_cli(tail + ["--json"], fixture="s4.rg") for _ in range(2)]
    assert json_runs[0] == json_runs[1]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(dict(_matrix_runs()), indent=1,
                                 ensure_ascii=False) + "\n", encoding="utf-8")
    os.environ["COLUMNS"] = "80"
    USAGE_GOLDEN.write_text(json.dumps({_usage_key(argv): _usage_run(argv) for argv in USAGE_RUNS},
                                       indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
