//! The relevance model of §8.1: `rel(F) = I(F) · Q(F)`.
//!
//! `I(F)` — does the function *intend* to process the target type? The
//! corpus ground-truth labels stand in for the paper's human judge.
//!
//! `Q(F)` — holdout quality: `0.5·|pass P_test|/|P_test| +
//! 0.5·|reject N_test|/|N_test|`, with `P_test` fresh positives disjoint
//! from the training examples and `N_test` verified negatives sampled from
//! web-table values.

use autotype::{RankedFunction, Session};
use autotype_synth::quality_score;
use autotype_typesys::SemanticType;
use rand::rngs::StdRng;
use rand::Rng;

/// Holdout sets used to compute `Q(F)`.
pub struct Holdout {
    pub pos_test: Vec<String>,
    pub neg_test: Vec<String>,
}

impl Holdout {
    /// Build a holdout for a type: `n_pos` fresh positives and `n_neg`
    /// values drawn from web-table-like content, filtered to be truly
    /// negative under the ground-truth validator (the paper's human
    /// inspection).
    pub fn build(
        ty: &SemanticType,
        n_pos: usize,
        n_neg: usize,
        table_values: &[String],
        rng: &mut StdRng,
    ) -> Holdout {
        let pos_test = ty.examples(rng, n_pos);
        let mut neg_test = Vec::with_capacity(n_neg);
        let mut attempts = 0;
        while neg_test.len() < n_neg && attempts < n_neg * 20 {
            attempts += 1;
            let v = &table_values[rng.gen_range(0..table_values.len())];
            if !(ty.validate)(v) && !v.is_empty() {
                neg_test.push(v.clone());
            }
        }
        Holdout { pos_test, neg_test }
    }
}

/// Compute `rel(F)` for one ranked function. DNF-backed functions validate
/// through the synthesized DNF-E; baseline rankings (KW/LR) fall back to
/// raw acceptance semantics.
pub fn relevance(
    session: &mut Session<'_>,
    function: &RankedFunction,
    target_slug: &str,
    holdout: &Holdout,
) -> f64 {
    // I(F): intent ground truth.
    if function.intent != Some(target_slug) {
        return 0.0;
    }
    // Q(F): holdout quality.
    let use_validator = function.validator.is_some();
    let mut accepts = |value: &String| {
        if use_validator {
            session.validate(function, value)
        } else {
            session.executes_ok(function, value)
        }
    };
    let pos_pass = holdout.pos_test.iter().filter(|p| accepts(p)).count();
    let neg_reject = holdout.neg_test.iter().filter(|n| !accepts(n)).count();
    quality_score(
        pos_pass,
        holdout.pos_test.len(),
        neg_reject,
        holdout.neg_test.len(),
    )
}

/// Relevance scores for the top-`k` of a ranked list, padded with zeros.
pub fn top_k_relevances(
    session: &mut Session<'_>,
    ranked: &[RankedFunction],
    target_slug: &str,
    holdout: &Holdout,
    k: usize,
) -> Vec<f64> {
    let mut out: Vec<f64> = ranked
        .iter()
        .take(k)
        .map(|f| relevance(session, f, target_slug, holdout))
        .collect();
    out.resize(k, 0.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_typesys::by_slug;
    use rand::SeedableRng;

    #[test]
    fn holdout_negatives_are_truly_negative() {
        let ty = by_slug("creditcard").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let table_values: Vec<String> = (0..200)
            .map(|i| format!("value-{i}"))
            .chain((0..50).map(|i| format!("{i}")))
            .collect();
        let holdout = Holdout::build(ty, 10, 50, &table_values, &mut rng);
        assert_eq!(holdout.pos_test.len(), 10);
        assert_eq!(holdout.neg_test.len(), 50);
        for n in &holdout.neg_test {
            assert!(!(ty.validate)(n));
        }
        for p in &holdout.pos_test {
            assert!((ty.validate)(p));
        }
    }
}
