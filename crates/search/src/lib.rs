//! # autotype-search — simulated code-search engines
//!
//! AutoType retrieves candidate repositories with keyword search: "we
//! leverage both the GitHub search API as well as the Bing search API ...
//! We take the union of top-40 repositories returned by these two APIs
//! since their results are often complementary" (§4.1).
//!
//! This crate supplies the substitution: one inverted index of per-field
//! token counts, scored with TF-IDF or BM25 under a field weighting chosen
//! at query time. The two complementary engines are two (weighting,
//! scoring) pairs over that one index; the uniform weighting with TF-IDF
//! is the plain *function* ranking of the paper's KW baseline (§8.1).

pub mod engine;
pub mod index;
pub mod tokenize;

pub use engine::{union_top_k, SearchEngine, SearchHit};
pub use index::{Document, Field, FieldWeights, Index, Scoring};
pub use tokenize::tokenize;
