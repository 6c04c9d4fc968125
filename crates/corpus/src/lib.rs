//! # autotype-corpus — the synthetic open-source universe
//!
//! AutoType mines GitHub and Gist; a Rust reproduction cannot crawl and
//! execute arbitrary Python, so this crate *generates* the universe the
//! system searches: repositories of PyLite code with realistic population
//! properties (DESIGN.md documents the substitution):
//!
//! * every **covered** benchmark type has faithful validators/parsers —
//!   mostly code "not initially written for data validation" (§8.2.2):
//!   parsers that raise on bad input, converters, class-based readers —
//!   wrapped in all six invocation variants of Appendix D.1;
//! * **sloppy** variants reproduce the §9.2 failure modes (a UPC checksum
//!   without a length check accepts ISBNs);
//! * the 24 **NoCode** types have nothing, and the 4
//!   **UnsupportedInvocation** types only have multi-step pipelines the
//!   code analysis rejects;
//! * distractor fleets create the keyword ambiguities of Figure 12
//!   ("SWIFT" the language vs. SWIFT messages; "DOI number") and the
//!   keyword-bait that sinks the KW baseline;
//! * a simulated pip index (`relib`, `checklib`) exercises dependency
//!   installation (§4.2).

pub mod build;
pub mod misc;
pub mod model;
pub mod pylite;
pub mod recipes;
pub mod snippets;
pub mod wrap;

pub use build::{build_corpus, CorpusConfig};
pub use model::{Corpus, Quality, Repository, SnippetFile};

#[cfg(test)]
mod integration_tests {
    use super::*;

    #[test]
    fn corpus_is_nontrivial() {
        let corpus = build_corpus(&CorpusConfig::default());
        let total_files: usize = corpus.repositories.iter().map(|r| r.files.len()).sum();
        assert!(total_files > 150, "only {total_files} files");
    }
}
