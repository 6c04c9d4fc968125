//! The batched column-detection path's core guarantee, mirroring
//! `crates/core/tests/parallel_determinism.rs`: `table2` run through the
//! exec pool produces bit-identical per-method `Detection` sets and
//! `Table2Row` scores at every worker count, because the lazy tiered
//! scheduler decides each column from pure batch-validator calls, so which
//! cells it skips or runs in parallel never changes a verdict.

use autotype::{AutoType, AutoTypeConfig};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_eval::{table2_full, EvalConfig, Table2Row};
use autotype_tables::Detection;

/// Everything observable about a table2 run, rendered to comparable form.
#[derive(Debug, PartialEq)]
struct Snapshot {
    dnf: Vec<Detection>,
    kw: Vec<Detection>,
    regex: Vec<Detection>,
    rows: Vec<Table2Row>,
}

fn snapshot(workers: usize) -> Snapshot {
    let engine = AutoType::new(
        build_corpus(&CorpusConfig::default()),
        AutoTypeConfig {
            workers,
            ..AutoTypeConfig::default()
        },
    );
    let cfg = EvalConfig {
        n_test_neg: 40,
        ..EvalConfig::default()
    };
    let out = table2_full(&engine, &cfg, 0.1, 150);
    Snapshot {
        dnf: out.dnf,
        kw: out.kw,
        regex: out.regex,
        rows: out.rows,
    }
}

#[test]
fn table2_is_worker_count_invariant() {
    let baseline = snapshot(1);
    // The serial run must actually detect something via the synthesized
    // validators, or the comparison below is vacuous.
    assert!(!baseline.dnf.is_empty(), "no DNF detections at workers=1");
    assert!(
        baseline.rows.iter().any(|r| r.dnf.correct > 0),
        "no correct DNF detections at workers=1"
    );
    for workers in [2, 4, 8] {
        let got = snapshot(workers);
        assert_eq!(got, baseline, "workers={workers} diverged from serial");
    }
}
