//! The five function-ranking methods compared in §8.1.

use crate::features::FunctionTraces;
use crate::lr::lr_score;
use autotype_dnf::{best_cover_complete, best_k_concise_cover, CoverParams, DnfCover};
use autotype_exec::Literal;
use autotype_search::{Document, Field, FieldWeights, Index, Scoring};

/// The ranking methods of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// DNF-S: Best-k-Concise-DNF-Cover (the AutoType approach).
    DnfS,
    /// DNF-C: complete (full-path) DNF cover.
    DnfC,
    /// RET: return values only, functions as black boxes.
    Ret,
    /// KW: TF-IDF keyword match over function text.
    Kw,
    /// LR: logistic regression on the same features.
    Lr,
}

impl Method {
    pub const ALL: [Method; 5] = [
        Method::DnfS,
        Method::DnfC,
        Method::Ret,
        Method::Kw,
        Method::Lr,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Method::DnfS => "DNF-S",
            Method::DnfC => "DNF-C",
            Method::Ret => "RET",
            Method::Kw => "KW",
            Method::Lr => "LR",
        }
    }
}

/// A ranked function.
#[derive(Debug, Clone)]
pub struct Ranked {
    /// The candidate's position in the ranked slices.
    pub id: usize,
    /// Primary score in `[0,1]` (positive coverage / accuracy / normalized
    /// keyword score).
    pub score: f64,
    /// Negative coverage (tie-breaker; 0 for methods without one).
    pub neg_fraction: f64,
    /// The synthesized DNF where applicable.
    pub dnf: Option<DnfCover>,
    /// Literal universe matching the DNF's literal ids.
    pub literals: Vec<Literal>,
}

/// Rank candidates under a method. Candidate `id` has traces `traces[id]`
/// and KW document `documents[id]` (source text + names + repository
/// description). Candidates the method cannot score (no separating DNF
/// exists) are omitted, matching Algorithm 2's
/// `Best-k-Concise-Cover(P, N, F) ≠ ∅` filter.
pub fn rank(
    method: Method,
    traces: &[FunctionTraces],
    documents: Vec<String>,
    keyword: &str,
    params: &CoverParams,
) -> Vec<Ranked> {
    let mut out: Vec<Ranked> = match method {
        Method::DnfS | Method::DnfC | Method::Ret => traces
            .iter()
            .enumerate()
            .filter_map(|(id, t)| {
                let (input, literals) = if method == Method::Ret {
                    t.black_box().cover_input()
                } else {
                    t.cover_input()
                };
                let cover = if method == Method::DnfC {
                    best_cover_complete(&input, params)
                } else {
                    best_k_concise_cover(&input, params)
                }?;
                Some(Ranked {
                    id,
                    score: cover.pos_fraction(),
                    neg_fraction: cover.neg_fraction(),
                    dnf: Some(cover),
                    literals,
                })
            })
            .collect(),
        Method::Lr => traces
            .iter()
            .enumerate()
            .map(|(id, t)| Ranked {
                id,
                score: lr_score(t),
                neg_fraction: 0.0,
                dnf: None,
                literals: Vec::new(),
            })
            .filter(|r| r.score > 0.5)
            .collect(),
        Method::Kw => {
            let documents: Vec<Document> = documents
                .into_iter()
                .enumerate()
                .map(|(id, text)| Document {
                    id,
                    fields: vec![(Field::Code, text)],
                })
                .collect();
            let index = Index::build(&documents);
            let hits = index.score(keyword, FieldWeights::uniform(), Scoring::TfIdf);
            let max = hits.first().map(|(_, s)| *s).unwrap_or(1.0).max(1e-9);
            hits.into_iter()
                .map(|(id, score)| Ranked {
                    id,
                    score: score / max,
                    neg_fraction: 0.0,
                    dnf: None,
                    literals: Vec::new(),
                })
                .collect()
        }
    };
    // Sort: score desc, then fewer negatives, then id for determinism.
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                a.neg_fraction
                    .partial_cmp(&b.neg_fraction)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.id.cmp(&b.id))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_lang::SiteId;
    use std::collections::BTreeSet;

    fn lit(line: u32, taken: bool) -> Literal {
        Literal::Branch {
            site: SiteId::new(0, line),
            taken,
        }
    }

    fn set(lits: &[Literal]) -> BTreeSet<Literal> {
        lits.iter().cloned().collect()
    }

    /// One separating candidate, one non-separating candidate, and their
    /// KW documents.
    fn candidates() -> (Vec<FunctionTraces>, Vec<String>) {
        let traces = vec![
            FunctionTraces {
                pos: (0..10).map(|_| set(&[lit(5, true)])).collect(),
                neg: (0..40).map(|_| set(&[lit(5, false)])).collect(),
                ..Default::default()
            },
            FunctionTraces {
                pos: (0..10).map(|_| set(&[lit(9, true)])).collect(),
                neg: (0..40).map(|_| set(&[lit(9, true)])).collect(),
                ..Default::default()
            },
        ];
        let documents = vec![
            "validate credit card checksum luhn".into(),
            "credit card credit card credit card form field".into(),
        ];
        (traces, documents)
    }

    fn rank_candidates(method: Method) -> Vec<Ranked> {
        let (traces, documents) = candidates();
        rank(
            method,
            &traces,
            documents,
            "credit card",
            &CoverParams::default(),
        )
    }

    #[test]
    fn dnf_s_ranks_separating_function_first_and_drops_the_other() {
        let ranked = rank_candidates(Method::DnfS);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].id, 0);
        assert!((ranked[0].score - 1.0).abs() < 1e-9);
        assert!(ranked[0].dnf.is_some());
    }

    #[test]
    fn kw_prefers_keyword_stuffed_document() {
        let ranked = rank_candidates(Method::Kw);
        assert_eq!(ranked[0].id, 1, "KW must fall for keyword stuffing");
    }

    #[test]
    fn lr_keeps_only_better_than_chance() {
        let ranked = rank_candidates(Method::Lr);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].id, 0);
    }

    #[test]
    fn ret_misses_branch_only_separation() {
        // Separation exists only in branches; the recorded black-box
        // traces are identical on both sides, so RET must fail to rank it.
        let result = set(&[Literal::Ret {
            site: SiteId::new(0, 20),
            value: autotype_lang::ValueSummary::Bool(true),
        }]);
        let traces = vec![FunctionTraces {
            pos: (0..10).map(|_| set(&[lit(5, true)])).collect(),
            neg: (0..40).map(|_| set(&[lit(5, false)])).collect(),
            pos_bb: vec![result.clone(); 10],
            neg_bb: vec![result; 40],
        }];
        let ranked = rank(
            Method::Ret,
            &traces,
            vec![String::new()],
            "x",
            &CoverParams::default(),
        );
        assert!(ranked.is_empty(), "RET saw branch literals");
        let ranked = rank(
            Method::DnfS,
            &traces,
            vec![String::new()],
            "x",
            &CoverParams::default(),
        );
        assert_eq!(ranked.len(), 1, "DNF-S separates on the branch");
    }

    #[test]
    fn ranking_is_deterministic() {
        let a = rank_candidates(Method::DnfS);
        let b = rank_candidates(Method::DnfS);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].id, b[0].id);
    }
}
