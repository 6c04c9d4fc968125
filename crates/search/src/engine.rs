//! The two simulated search APIs and their top-k union (§4.1).

use crate::index::{FieldWeights, Index, Scoring};

/// One search hit: the caller-supplied document id plus score.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    pub doc_id: usize,
    pub score: f64,
}

/// A simulated search API: a field weighting and a scoring function,
/// applied to a shared [`Index`] at query time.
#[derive(Debug, Clone, Copy)]
pub struct SearchEngine {
    pub weights: FieldWeights,
    pub scoring: Scoring,
}

impl SearchEngine {
    /// The simulated GitHub search API: name/description-heavy TF-IDF —
    /// repository metadata dominates, like topic/name matching on GitHub.
    pub const GITHUB: SearchEngine = SearchEngine {
        weights: FieldWeights {
            name: 6.0,
            description: 3.0,
            readme: 1.0,
            code: 0.25,
        },
        scoring: Scoring::TfIdf,
    };

    /// The simulated Bing web search (`"<keyword> site:github.com"`):
    /// full-text BM25 over READMEs and code, which surfaces repositories
    /// whose names don't mention the type — the complementary results the
    /// paper relies on.
    pub const BING: SearchEngine = SearchEngine {
        weights: FieldWeights {
            name: 1.5,
            description: 1.5,
            readme: 3.0,
            code: 1.0,
        },
        scoring: Scoring::Bm25,
    };

    /// Top-k results for a query over `index`.
    pub fn search(&self, index: &Index, query: &str, k: usize) -> Vec<SearchHit> {
        index
            .score(query, self.weights, self.scoring)
            .into_iter()
            .take(k)
            .map(|(pos, score)| SearchHit {
                doc_id: index.ids[pos],
                score,
            })
            .collect()
    }
}

/// Union of the top-k results from several engines over one index,
/// preserving first-seen order (GitHub results first, then new Bing
/// results — §4.1 takes "the union of top-40 repositories returned by
/// these two APIs").
pub fn union_top_k(index: &Index, engines: &[SearchEngine], query: &str, k: usize) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for engine in engines {
        for hit in engine.search(index, query, k) {
            if seen.insert(hit.doc_id) {
                out.push(hit.doc_id);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Document, Field};

    fn docs() -> Vec<Document> {
        vec![
            Document {
                id: 100,
                fields: vec![
                    (Field::Name, "isbn-tools".into()),
                    (Field::Description, "ISBN utilities".into()),
                    (Field::Readme, "validate isbn numbers".into()),
                ],
            },
            Document {
                id: 200,
                fields: vec![
                    (Field::Name, "book-manager".into()),
                    (Field::Description, "library manager".into()),
                    (
                        Field::Readme,
                        "manage books by isbn international standard book number".into(),
                    ),
                ],
            },
            Document {
                id: 300,
                fields: vec![
                    (Field::Name, "unrelated".into()),
                    (Field::Readme, "nothing to see".into()),
                ],
            },
        ]
    }

    #[test]
    fn both_engines_find_the_obvious_repo() {
        let index = Index::build(&docs());
        let github = SearchEngine::GITHUB.search(&index, "isbn", 1);
        assert_eq!(github[0].doc_id, 100);
        let bing = SearchEngine::BING.search(&index, "isbn", 2);
        assert!(bing.iter().any(|h| h.doc_id == 100));
    }

    #[test]
    fn engines_are_complementary() {
        let index = Index::build(&docs());
        let top = |engine: SearchEngine, query| -> Vec<usize> {
            engine
                .search(&index, query, 1)
                .iter()
                .map(|h| h.doc_id)
                .collect()
        };
        // One index, two weightings: the GitHub-style name match and the
        // Bing-style README/description match disagree on the best repo,
        // so each engine's top-1 adds one the other misses.
        let query = "library isbn";
        assert_eq!(top(SearchEngine::GITHUB, query), vec![100]);
        assert_eq!(top(SearchEngine::BING, query), vec![200]);
        let engines = [SearchEngine::GITHUB, SearchEngine::BING];
        assert_eq!(union_top_k(&index, &engines, query, 1), vec![100, 200]);
        // The long-form query matches only README text.
        let long_form = "international standard book number";
        assert_eq!(top(SearchEngine::BING, long_form), vec![200]);
    }

    #[test]
    fn union_deduplicates_and_preserves_order() {
        let index = Index::build(&docs());
        let engines = [SearchEngine::GITHUB, SearchEngine::BING];
        let union = union_top_k(&index, &engines, "isbn", 3);
        let unique: std::collections::HashSet<_> = union.iter().collect();
        assert_eq!(unique.len(), union.len());
        let github: Vec<usize> = SearchEngine::GITHUB
            .search(&index, "isbn", 3)
            .iter()
            .map(|h| h.doc_id)
            .collect();
        assert_eq!(union[..github.len()], github[..], "GitHub results first");
    }

    #[test]
    fn k_limits_results() {
        let index = Index::build(&docs());
        assert!(SearchEngine::GITHUB.search(&index, "isbn", 1).len() <= 1);
    }
}
