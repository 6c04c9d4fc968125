//! # autotype-eval — metrics and experiment drivers
//!
//! Implements the evaluation machinery of §8–§9: IR metrics
//! (precision@K, NDCG, pooled relative recall), the relevance model
//! `rel(F) = I(F)·Q(F)` with holdout unit-testing of synthesized functions,
//! and one driver per figure/table of the paper (see DESIGN.md's
//! per-experiment index). The `autotype-bench` crate's `figures` binary
//! renders these drivers' outputs as the paper's tables.

pub mod experiments;
pub mod metrics;
pub mod relevance;

pub use experiments::{
    fig10c, fig12, fig14, fig8, fig9, sensitivity_examples, table2, table2_full, table3,
    types_by_slugs, CoverageReport, EvalConfig, MethodQuality, Table2Output, Table2Row,
};
pub use metrics::{dcg, mean, ndcg, precision_at_k, relative_recall};
pub use relevance::{relevance, top_k_relevances, Holdout};

#[cfg(test)]
mod tests {
    use super::*;
    use autotype::{AutoType, AutoTypeConfig};
    use autotype_corpus::{build_corpus, CorpusConfig};
    use autotype_rank::Method;

    fn engine() -> AutoType {
        AutoType::new(
            build_corpus(&CorpusConfig::default()),
            AutoTypeConfig::default(),
        )
    }

    fn small_cfg() -> EvalConfig {
        EvalConfig {
            n_test_neg: 40,
            ..Default::default()
        }
    }

    #[test]
    fn fig8_orders_methods_like_the_paper() {
        let engine = engine();
        let types = types_by_slugs(&["creditcard", "isbn", "ipv4", "email", "issn", "vin"]);
        let results = fig8(&engine, &types, &small_cfg());
        let p1 = |m: Method| results.iter().find(|r| r.method == m).unwrap().precision_at[0];
        // DNF-S strong at top-1; KW clearly worse (Figure 8a shape).
        assert!(p1(Method::DnfS) >= 0.8, "DNF-S p@1 = {}", p1(Method::DnfS));
        assert!(
            p1(Method::DnfS) > p1(Method::Kw),
            "DNF-S {} vs KW {}",
            p1(Method::DnfS),
            p1(Method::Kw)
        );
    }

    #[test]
    fn fig9_counts_relevant_functions() {
        let engine = engine();
        let types = types_by_slugs(&["creditcard", "lcc", "sql"]);
        let report = fig9(&engine, &types, &small_cfg());
        // creditcard covered; LCC (no code) and SQL (unsupported
        // invocation) must contribute zero relevant functions.
        assert_eq!(report.covered, 1, "{:?}", report.per_type);
        let cc = report
            .per_type
            .iter()
            .find(|(name, _)| *name == "credit card number")
            .unwrap();
        assert!(cc.1 >= 1);
    }

    #[test]
    fn fig10c_hierarchy_beats_random_beats_none() {
        let engine = engine();
        let types = types_by_slugs(&["creditcard", "isbn"]);
        let results = fig10c(&engine, &types, &small_cfg());
        let p1 = |label: &str| results.iter().find(|(l, _)| *l == label).unwrap().1[0];
        assert!(
            p1("orig") > p1("only_random_neg"),
            "orig {} vs random {}",
            p1("orig"),
            p1("only_random_neg")
        );
        assert!(p1("orig") > p1("no_neg"));
    }

    #[test]
    fn table2_detects_checksum_types_regex_does_not() {
        let engine = engine();
        let rows = table2(&engine, &small_cfg(), 0.1, 150);
        let isbn = rows.iter().find(|r| r.slug == "isbn").unwrap();
        assert!(isbn.dnf.correct >= 1, "DNF must detect ISBN columns");
        // REGEX cannot handle mixed dashed/undashed ISBN formats.
        assert!(
            isbn.regex.correct <= isbn.dnf.correct,
            "regex {} vs dnf {}",
            isbn.regex.correct,
            isbn.dnf.correct
        );
        let datetime = rows.iter().find(|r| r.slug == "datetime").unwrap();
        assert_eq!(
            datetime.regex.detected, 0,
            "regex inference must fail on mixed date formats"
        );
        assert!(datetime.dnf.correct >= 1);
    }

    #[test]
    fn table3_harvests_transformations() {
        let engine = engine();
        let rows = table3(&engine, &small_cfg());
        let cc = rows
            .iter()
            .find(|(name, _)| *name == "credit card number")
            .unwrap();
        assert!(!cc.1.is_empty(), "credit card should yield transformations");
    }
}
