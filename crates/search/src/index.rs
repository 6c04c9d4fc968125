//! Inverted index of per-field token counts, scored under any field
//! weighting with TF-IDF or BM25.
//!
//! The index stores raw counts, not weighted frequencies: each engine's
//! field weights are applied at query time, so the two simulated engines
//! share one pass over the corpus.

use crate::tokenize::tokenize;
use std::collections::HashMap;

/// Document fields, with different weights per engine (repository name
/// matches matter more on GitHub search; body text matters more on a web
/// engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// Repository or function name.
    Name,
    /// Short description / docstring.
    Description,
    /// README or comments.
    Readme,
    /// Source code text (identifiers).
    Code,
}

/// A document to index: id + per-field text.
#[derive(Debug, Clone)]
pub struct Document {
    pub id: usize,
    pub fields: Vec<(Field, String)>,
}

/// Scoring function selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scoring {
    TfIdf,
    Bm25,
}

/// Token counts of one document (or one term in one document), indexed by
/// `Field as usize`.
type FieldCounts = [u32; 4];

/// Per-field weights applied to token counts at query time.
#[derive(Debug, Clone, Copy)]
pub struct FieldWeights {
    pub name: f64,
    pub description: f64,
    pub readme: f64,
    pub code: f64,
}

impl FieldWeights {
    pub fn uniform() -> Self {
        FieldWeights {
            name: 1.0,
            description: 1.0,
            readme: 1.0,
            code: 1.0,
        }
    }

    /// Σ weight · count over the fields. With weights that are multiples of
    /// 0.25 every partial sum is exact, so this equals adding each token's
    /// weight one at a time.
    fn weigh(&self, counts: &FieldCounts) -> f64 {
        self.name * f64::from(counts[Field::Name as usize])
            + self.description * f64::from(counts[Field::Description as usize])
            + self.readme * f64::from(counts[Field::Readme as usize])
            + self.code * f64::from(counts[Field::Code as usize])
    }
}

/// An inverted index over a fixed document collection.
pub struct Index {
    /// term -> (doc position, the term's count per field), by position.
    postings: HashMap<String, Vec<(usize, FieldCounts)>>,
    /// Token count per field, per document.
    doc_len: Vec<FieldCounts>,
    /// Caller-supplied document ids, by position.
    pub(crate) ids: Vec<usize>,
}

impl Index {
    /// Tokenize every document once, in order, on the calling thread.
    pub fn build(documents: &[Document]) -> Index {
        let mut postings: HashMap<String, Vec<(usize, FieldCounts)>> = HashMap::new();
        let mut doc_len = Vec::with_capacity(documents.len());
        for (pos, doc) in documents.iter().enumerate() {
            let mut len = FieldCounts::default();
            for (field, text) in &doc.fields {
                let f = *field as usize;
                for token in tokenize(text) {
                    let posting = postings.entry(token).or_default();
                    match posting.last_mut() {
                        Some((doc, counts)) if *doc == pos => counts[f] += 1,
                        _ => {
                            let mut counts = FieldCounts::default();
                            counts[f] = 1;
                            posting.push((pos, counts));
                        }
                    }
                    len[f] += 1;
                }
            }
            doc_len.push(len);
        }
        Index {
            postings,
            doc_len,
            ids: documents.iter().map(|d| d.id).collect(),
        }
    }

    /// Score all documents against a query under a field weighting;
    /// returns (doc position, score) for every document that contains a
    /// query term, sorted descending (ties by position for determinism).
    pub fn score(&self, query: &str, weights: FieldWeights, scoring: Scoring) -> Vec<(usize, f64)> {
        let doc_len: Vec<f64> = self.doc_len.iter().map(|c| weights.weigh(c)).collect();
        let n = doc_len.len() as f64;
        let avg_len = doc_len.iter().sum::<f64>() / n.max(1.0);
        let mut scores: Vec<Option<f64>> = vec![None; doc_len.len()];
        for term in tokenize(query) {
            let Some(posting) = self.postings.get(&term) else {
                continue;
            };
            let df = posting.len() as f64;
            match scoring {
                Scoring::TfIdf => {
                    let idf = (n / df).ln() + 1.0;
                    for (doc, counts) in posting {
                        let tf = weights.weigh(counts);
                        let norm = doc_len[*doc].max(1.0);
                        *scores[*doc].get_or_insert(0.0) += (tf / norm.sqrt()) * idf;
                    }
                }
                Scoring::Bm25 => {
                    const K1: f64 = 1.2;
                    const B: f64 = 0.75;
                    let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
                    for (doc, counts) in posting {
                        let tf = weights.weigh(counts);
                        let norm = K1 * (1.0 - B + B * doc_len[*doc] / avg_len.max(1.0));
                        *scores[*doc].get_or_insert(0.0) += idf * (tf * (K1 + 1.0)) / (tf + norm);
                    }
                }
            }
        }
        let mut out: Vec<(usize, f64)> = scores
            .into_iter()
            .enumerate()
            .filter_map(|(doc, score)| Some((doc, score?)))
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: usize, name: &str, body: &str) -> Document {
        Document {
            id,
            fields: vec![
                (Field::Name, name.to_string()),
                (Field::Readme, body.to_string()),
            ],
        }
    }

    #[test]
    fn relevant_documents_rank_first() {
        let docs = vec![
            doc(
                0,
                "credit-card-validator",
                "validate credit card numbers with luhn",
            ),
            doc(1, "ip-tools", "parse ip address ipv4 ipv6"),
            doc(2, "string-utils", "generic string helpers"),
        ];
        let index = Index::build(&docs);
        let uniform = FieldWeights::uniform();
        let hits = index.score("credit card", uniform, Scoring::TfIdf);
        assert_eq!(hits[0].0, 0);
        let hits = index.score("ip address", uniform, Scoring::Bm25);
        assert_eq!(hits[0].0, 1);
    }

    #[test]
    fn no_match_returns_empty() {
        let docs = vec![doc(0, "a", "b")];
        let index = Index::build(&docs);
        assert!(index
            .score("zzz qqq", FieldWeights::uniform(), Scoring::TfIdf)
            .is_empty());
    }

    #[test]
    fn field_weights_shift_ranking() {
        let docs = vec![
            doc(0, "swift", "a general purpose programming language"),
            doc(
                1,
                "bank-messages",
                "parse swift mt103 interbank financial messages",
            ),
        ];
        let index = Index::build(&docs);
        // Name-heavy weighting favours the Swift language repo.
        let name_heavy = FieldWeights {
            name: 8.0,
            description: 1.0,
            readme: 0.5,
            code: 0.5,
        };
        assert_eq!(index.score("swift", name_heavy, Scoring::TfIdf)[0].0, 0);
        // Body-heavy weighting of the same index favours the
        // financial-message repo for the disambiguated query.
        let body_heavy = FieldWeights {
            name: 1.0,
            description: 1.0,
            readme: 3.0,
            code: 1.0,
        };
        assert_eq!(
            index.score("swift message", body_heavy, Scoring::Bm25)[0].0,
            1
        );
    }

    #[test]
    fn weights_scale_counts_exactly() {
        // "isbn" twice in the name, once in the README: tf = 2·6 + 1·1.
        let docs = vec![doc(0, "isbn-isbn", "isbn")];
        let index = Index::build(&docs);
        let weights = FieldWeights {
            name: 6.0,
            description: 3.0,
            readme: 1.0,
            code: 0.25,
        };
        // One document: idf = ln(1) + 1 = 1 and the length is the tf.
        let hits = index.score("isbn", weights, Scoring::TfIdf);
        assert_eq!(hits, vec![(0, 13.0 / 13.0f64.sqrt())]);
    }

    #[test]
    fn idf_downweights_common_terms() {
        let docs = vec![
            doc(0, "x", "parser parser parser credit"),
            doc(1, "y", "parser"),
            doc(2, "z", "parser"),
        ];
        let index = Index::build(&docs);
        for scoring in [Scoring::TfIdf, Scoring::Bm25] {
            let hits = index.score("credit parser", FieldWeights::uniform(), scoring);
            assert_eq!(hits[0].0, 0, "rare term should dominate ({scoring:?})");
        }
    }

    #[test]
    fn deterministic_tie_break() {
        let docs = vec![doc(0, "same", "x"), doc(1, "same", "x")];
        let index = Index::build(&docs);
        for scoring in [Scoring::TfIdf, Scoring::Bm25] {
            let hits = index.score("same", FieldWeights::uniform(), scoring);
            assert_eq!(hits.len(), 2);
            assert_eq!(hits[0].1, hits[1].1);
            assert_eq!((hits[0].0, hits[1].0), (0, 1));
        }
    }
}
