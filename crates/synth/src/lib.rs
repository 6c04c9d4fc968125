//! # autotype-synth — validator synthesis and semantic transformations
//!
//! Once a ranked function's DNF explanation is accepted, AutoType
//! synthesizes a *new* Boolean type-detection function from it
//! (§5.3, Appendix G): the concise DNF is expanded to **DNF-E** — every
//! literal replaced by the conjunction of its whole coverage-equivalence
//! group, restricting future inputs to the exact sub-paths positives took —
//! and validation of a new string means: run the function, featurize the
//! trace, check `∧T(s) → DNF-E`.
//!
//! The crate also implements §7.1 / Appendix B: mining *semantic
//! transformations* from intermediate values produced while relevant
//! functions execute (card brand, VIN manufacturer, date components, ...),
//! with the paper's low-entropy filter.

use autotype_dnf::DnfCover;
use autotype_exec::Literal;
use std::collections::BTreeSet;

pub mod transform;

pub use transform::{harvest_transformations, Transformation};

/// A synthesized type-detection function: the DNF-E of Appendix G, checked
/// against the featurized trace of a fresh execution.
#[derive(Debug, Clone)]
pub struct SynthesizedValidator {
    /// Disjunction of conjunctions of literals.
    pub dnf_e: Vec<Vec<Literal>>,
}

impl SynthesizedValidator {
    /// Expand a cover into DNF-E: each chosen literal is replaced by its
    /// full equal-coverage group (Algorithm 3 lines 1-3).
    pub fn from_cover(cover: &DnfCover, literals: &[Literal]) -> SynthesizedValidator {
        let mut dnf_e = Vec::with_capacity(cover.conjunctions.len());
        for conj in &cover.conjunctions {
            let mut expanded: BTreeSet<Literal> = BTreeSet::new();
            for &lit_id in &conj.literals {
                for &member in cover.group_of(lit_id) {
                    expanded.insert(literals[member].clone());
                }
            }
            dnf_e.push(expanded.into_iter().collect());
        }
        SynthesizedValidator { dnf_e }
    }

    /// `∧T(s) → DNF-E`: accept when some conjunction is a subset of the
    /// trace (Algorithm 3 line 6, with Definition 2's cover semantics).
    pub fn accepts(&self, trace: &BTreeSet<Literal>) -> bool {
        self.dnf_e
            .iter()
            .any(|conj| conj.iter().all(|lit| trace.contains(lit)))
    }
}

/// Render a concise (pre-expansion) DNF for display.
pub fn explain_cover(cover: &DnfCover, literals: &[Literal]) -> String {
    let clauses: Vec<String> = cover
        .conjunctions
        .iter()
        .map(|conj| {
            let lits: Vec<String> = conj
                .literals
                .iter()
                .map(|&l| literals[l].to_string())
                .collect();
            format!("({})", lits.join(" ∧ "))
        })
        .collect();
    clauses.join(" ∨ ")
}

/// Build the quality score `Q(F)` of §8.1 from holdout outcomes:
/// `0.5·(pass in P_test)/|P_test| + 0.5·(reject in N_test)/|N_test|`.
pub fn quality_score(
    pos_pass: usize,
    pos_total: usize,
    neg_reject: usize,
    neg_total: usize,
) -> f64 {
    let p = if pos_total == 0 {
        0.0
    } else {
        pos_pass as f64 / pos_total as f64
    };
    let n = if neg_total == 0 {
        0.0
    } else {
        neg_reject as f64 / neg_total as f64
    };
    0.5 * p + 0.5 * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_dnf::{best_k_concise_cover, BitSet, CoverInput, CoverParams};
    use autotype_lang::SiteId;

    fn lit(line: u32, taken: bool) -> Literal {
        Literal::Branch {
            site: SiteId::new(0, line),
            taken,
        }
    }

    /// Paper running example: literals b6, b9, b16 with redundant twin
    /// literal b7 (same coverage as b6) to exercise group expansion.
    fn example() -> (CoverInput, Vec<Literal>) {
        let literals = vec![lit(6, true), lit(9, true), lit(16, true), lit(7, true)];
        let traces: Vec<Vec<usize>> = vec![
            vec![0, 2, 3], // visa: b6, b16, b7(=b6 twin)
            vec![1, 2],    // mc
            vec![0, 2, 3],
            vec![2], // passes checksum branch but no brand: forces
            // conjunctions instead of b16 alone
            vec![0, 3], // visa prefix, bad checksum
            vec![],     // crash
        ];
        let mut coverage = vec![BitSet::new(6); literals.len()];
        for (e, lits) in traces.iter().enumerate() {
            for &l in lits {
                coverage[l].insert(e);
            }
        }
        (
            CoverInput {
                n_pos: 3,
                n_neg: 3,
                coverage,
            },
            literals,
        )
    }

    #[test]
    fn dnf_e_expands_groups() {
        let (input, literals) = example();
        let cover = best_k_concise_cover(
            &input,
            &CoverParams {
                theta: 0.0,
                ..CoverParams::default()
            },
        )
        .unwrap();
        let validator = SynthesizedValidator::from_cover(&cover, &literals);
        for conj in &validator.dnf_e {
            let has_b6 = conj.contains(&lit(6, true));
            let has_b7 = conj.contains(&lit(7, true));
            assert_eq!(has_b6, has_b7, "group expansion must add the twin");
        }
    }

    #[test]
    fn validator_accepts_positive_paths_and_rejects_negative_paths() {
        let (input, literals) = example();
        let cover = best_k_concise_cover(
            &input,
            &CoverParams {
                theta: 0.0,
                ..CoverParams::default()
            },
        )
        .unwrap();
        let validator = SynthesizedValidator::from_cover(&cover, &literals);
        let visa: BTreeSet<Literal> = [lit(6, true), lit(16, true), lit(7, true)]
            .into_iter()
            .collect();
        let mc: BTreeSet<Literal> = [lit(9, true), lit(16, true)].into_iter().collect();
        let bad: BTreeSet<Literal> = [lit(6, true), lit(7, true)].into_iter().collect();
        let checksum_only: BTreeSet<Literal> = [lit(16, true)].into_iter().collect();
        let crash: BTreeSet<Literal> = BTreeSet::new();
        assert!(validator.accepts(&visa));
        assert!(validator.accepts(&mc));
        assert!(!validator.accepts(&bad));
        assert!(!validator.accepts(&checksum_only));
        assert!(!validator.accepts(&crash));
    }

    #[test]
    fn dnf_e_is_stricter_than_concise_dnf() {
        // Example 7: a trace hitting b6 but not the twin b7 satisfies the
        // concise DNF (which only names b6) but not DNF-E.
        let (input, literals) = example();
        let cover = best_k_concise_cover(
            &input,
            &CoverParams {
                theta: 0.0,
                ..CoverParams::default()
            },
        )
        .unwrap();
        let validator = SynthesizedValidator::from_cover(&cover, &literals);
        let partial: BTreeSet<Literal> = [lit(6, true), lit(16, true)].into_iter().collect();
        assert!(!validator.accepts(&partial));
    }

    #[test]
    fn explain_renders_paper_notation() {
        let (input, literals) = example();
        let cover = best_k_concise_cover(
            &input,
            &CoverParams {
                theta: 0.0,
                ..CoverParams::default()
            },
        )
        .unwrap();
        let text = explain_cover(&cover, &literals);
        assert!(text.contains("b16==True"), "{text}");
    }

    #[test]
    fn quality_score_formula() {
        assert_eq!(quality_score(10, 10, 1000, 1000), 1.0);
        assert_eq!(quality_score(0, 10, 0, 1000), 0.0);
        assert!((quality_score(10, 10, 500, 1000) - 0.75).abs() < 1e-12);
        assert_eq!(quality_score(0, 0, 0, 0), 0.0);
    }
}
