//! Semantic-transformation mining (§7.1, Appendix B).
//!
//! When relevant functions process values of a type they produce
//! intermediate results (card brand, VIN region, date components). The
//! harness harvests atomic intermediates per positive example; this module
//! aggregates them into candidate transformation columns — exactly the
//! tabular preview of Figure 6 — filtering out low-entropy variables
//! ("producing the same value across P").

use std::collections::BTreeMap;

/// One candidate transformation: a named derived column over the positive
/// examples.
#[derive(Debug, Clone, PartialEq)]
pub struct Transformation {
    /// Variable name, e.g. `return.card_brand`.
    pub name: String,
    /// One derived value per positive example (`None` when the run did not
    /// produce the variable).
    pub values: Vec<Option<String>>,
    /// Number of distinct non-missing values.
    pub distinct: usize,
}

impl Transformation {
    /// Fraction of positives with a value.
    pub fn coverage(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|v| v.is_some()).count() as f64 / self.values.len() as f64
    }
}

/// Variables present on fewer than this fraction of the examples are
/// dropped.
const MIN_COVERAGE: f64 = 0.5;

/// Aggregate per-example harvests into transformation candidates.
///
/// * `harvests[i]` — the (name, value) pairs produced when the function ran
///   on positive example `i`.
/// * Variables present on fewer than half of the examples are dropped, as
///   are constant variables when `drop_constant` is set (the paper filters
///   low-entropy variables "when necessary").
pub fn harvest_transformations(
    harvests: &[Vec<(String, String)>],
    drop_constant: bool,
) -> Vec<Transformation> {
    let n = harvests.len();
    if n == 0 {
        return Vec::new();
    }
    let mut by_name: BTreeMap<&str, Vec<Option<String>>> = BTreeMap::new();
    for (i, harvest) in harvests.iter().enumerate() {
        for (name, value) in harvest {
            let column = by_name
                .entry(name.as_str())
                .or_insert_with(|| vec![None; n]);
            column[i] = Some(value.clone());
        }
    }
    let mut out = Vec::new();
    for (name, values) in by_name {
        let present = values.iter().filter(|v| v.is_some()).count();
        if (present as f64 / n as f64) < MIN_COVERAGE {
            continue;
        }
        let mut distinct: Vec<&String> = values.iter().flatten().collect();
        distinct.sort();
        distinct.dedup();
        let distinct = distinct.len();
        if drop_constant && distinct <= 1 && n > 2 {
            continue;
        }
        out.push(Transformation {
            name: name.to_string(),
            values,
            distinct,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harvests() -> Vec<Vec<(String, String)>> {
        vec![
            vec![
                ("return.card_brand".into(), "Visa".into()),
                ("return.issuer_prefix".into(), "414720".into()),
                ("return.api_version".into(), "2".into()),
            ],
            vec![
                ("return.card_brand".into(), "Mastercard".into()),
                ("return.issuer_prefix".into(), "521802".into()),
                ("return.api_version".into(), "2".into()),
            ],
            vec![
                ("return.card_brand".into(), "Amex".into()),
                ("return.issuer_prefix".into(), "371449".into()),
                ("return.api_version".into(), "2".into()),
            ],
        ]
    }

    #[test]
    fn harvests_brand_and_prefix_columns() {
        let transforms = harvest_transformations(&harvests(), true);
        let names: Vec<&str> = transforms.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"return.card_brand"));
        assert!(names.contains(&"return.issuer_prefix"));
    }

    #[test]
    fn constant_variables_are_filtered() {
        let transforms = harvest_transformations(&harvests(), true);
        assert!(
            !transforms.iter().any(|t| t.name == "return.api_version"),
            "constant api_version must be entropy-filtered"
        );
        // With the filter off it is kept.
        let unfiltered = harvest_transformations(&harvests(), false);
        assert!(unfiltered.iter().any(|t| t.name == "return.api_version"));
    }

    #[test]
    fn sparse_variables_are_dropped_by_coverage() {
        let mut h = harvests();
        h[0].push(("return.rare".into(), "x".into()));
        let transforms = harvest_transformations(&h, true);
        assert!(!transforms.iter().any(|t| t.name == "return.rare"));
    }

    #[test]
    fn coverage_and_distinct_counts() {
        let transforms = harvest_transformations(&harvests(), true);
        let brand = transforms
            .iter()
            .find(|t| t.name == "return.card_brand")
            .unwrap();
        assert_eq!(brand.distinct, 3);
        assert!((brand.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(harvest_transformations(&[], true).is_empty());
    }
}
