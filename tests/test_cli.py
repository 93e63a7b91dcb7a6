"""Command-line behavior: exit codes, report texts, JSON, error paths."""

import json

import pytest

from conftest import FIXDIR, run_cli

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


def test_missing_flag_is_error_report():
    code, out, err = run_cli(
        "check trg --table TA --partition PA --group GA".split(),
        fixture="zmod3.rg")
    assert code == 3
    assert out == ("ERROR trg\n"
                   "  input: error  witness: trg requires --topology\n")
    assert err == ""


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


@pytest.mark.parametrize("argv, message", [
    (["check", "nope"], "roughtop check: error: argument kind: invalid choice: 'nope'"),
    (["check", "trg", "--bogus"], "roughtop: error: unrecognized arguments: --bogus"),
])
def test_usage_error_exits_3(argv, message):
    code, out, err = run_cli(argv)
    assert code == 3
    assert out == ""
    assert err.startswith("usage: roughtop")
    assert message in err


def test_help_still_exits_0():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0


def test_reads_stdin_when_no_file():
    source = (FIXDIR / "zmod3.rg").read_text()
    code, out, _ = run_cli(
        "check rough-group --table TA --partition PA --group GA".split(),
        stdin=source)
    assert code == 0
    assert out.splitlines()[0] == "PASS rough-group"


def test_output_is_deterministic():
    tail = ("check trg --table TB --partition PB --group GB "
            "--topology tauB").split()
    runs = [run_cli(tail, fixture="s4.rg") for _ in range(2)]
    assert runs[0] == runs[1]
    json_runs = [run_cli(tail + ["--json"], fixture="s4.rg") for _ in range(2)]
    assert json_runs[0] == json_runs[1]
