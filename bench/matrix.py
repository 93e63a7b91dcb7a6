"""The 48 pinned command-line invocations and their hand-written answers.

Each row is (fixture under fixtures/, argument tail, expected exit
code).  The expected first word of the report follows from the exit
code; exit 3 rows print an error report and are checked by code only.
The self-tests compare this copy with the one the test suite pins.
"""

FIRST_WORD = {0: "PASS", 1: "FAIL", 2: "NOT-APPLICABLE"}

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
