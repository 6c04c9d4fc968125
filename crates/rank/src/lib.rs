//! # autotype-rank — the five function-ranking methods of §8.1
//!
//! * **DNF-S** — Best-k-Concise-DNF-Cover over trace literals (the paper's
//!   approach, Definition 4 / Algorithm 1);
//! * **DNF-C** — the complete (full-path) cover without the k limit;
//! * **RET** — return-value literals only (functions as black boxes);
//! * **KW** — TF-IDF keyword match treating each function as a document;
//! * **LR** — from-scratch logistic regression on the identical feature
//!   space, scored by held-out balanced accuracy.
//!
//! Candidates are ranked by positive-example coverage with negative
//! coverage as the tie-breaker (§5.2, "Ranking-by-DNF").

pub mod features;
pub mod lr;
pub mod methods;

pub use features::FunctionTraces;
pub use lr::lr_score;
pub use methods::{rank, Method, Ranked};
