//! Corpus assembly: repositories, distractor fleets, and the package index.

use crate::model::{Corpus, Quality, Repository, SnippetFile};
use crate::recipes::snippet_files_for;
use crate::{pylite, wrap};
use autotype_typesys::{registry, Coverage, SemanticType};

/// Seed for the per-type snippet variations.
const SEED: u64 = 0xA07071;

/// Size of the "Swift programming language" distractor fleet that makes
/// the bare "SWIFT" query ambiguous (Figure 12).
const SWIFT_FLEET: usize = 12;

/// Size of the "number"-dense distractor fleet that degrades the
/// non-standard "DOI number" query (Figure 12).
const NUMBER_FLEET: usize = 12;

/// The argument of [`build_corpus`]. It has no fields: the corpus is one
/// fixed synthetic universe. The type stays only because the benchmark
/// harness calls `build_corpus(&CorpusConfig::default())`.
#[derive(Debug, Clone, Default)]
pub struct CorpusConfig {}

/// Build the full synthetic open-source universe.
pub fn build_corpus(_: &CorpusConfig) -> Corpus {
    let mut corpus = Corpus::default();
    corpus
        .packages
        .insert("relib".to_string(), pylite::relib_source().to_string());
    corpus.packages.insert(
        "checklib".to_string(),
        pylite::checklib_source().to_string(),
    );

    for ty in registry() {
        match ty.coverage {
            Coverage::Covered => add_type_repos(&mut corpus, ty),
            Coverage::UnsupportedInvocation => add_unsupported_repo(&mut corpus, ty),
            Coverage::NoCode => { /* nothing exists on "GitHub" */ }
        }
    }

    add_distractors(&mut corpus);
    corpus
}

fn readme_for(ty: &SemanticType) -> String {
    // READMEs mention every known keyword for the type, so well-established
    // alternate names retrieve the same repositories (the insensitive cases
    // of Figure 12). The DOI repositories deliberately never say "number",
    // and the SWIFT repositories lead with "SWIFT message".
    let mut text = format!(
        "{} utilities. This project can parse, validate and convert {} values.\n",
        ty.name, ty.name
    );
    for kw in ty.keywords {
        text.push_str(&format!("Supports lookups by {kw}.\n"));
    }
    text.push_str("Includes unit tests and example scripts.\n");
    text
}

fn add_type_repos(corpus: &mut Corpus, ty: &SemanticType) {
    let mut files = snippet_files_for(ty, SEED);
    if files.is_empty() {
        return;
    }
    // Real repositories carry generic helper modules alongside the type
    // logic. These parse-anything helpers are what make *random* negative
    // examples useless (§6: every int-accepting function separates numeric
    // positives from random strings) — the Figure 10(c) mechanism.
    files.push(SnippetFile {
        name: format!("{}_helpers", ty.slug),
        source: wrap::int_utils(),
        intent: None,
        quality: Quality::Unrelated,
    });
    // Chunk into repositories of up to 3 files so popular types occupy
    // several repositories, as on real GitHub.
    let repo_suffixes = ["tools", "parser", "scripts", "lib", "utils"];
    for (chunk_idx, chunk) in files.chunks(3).enumerate() {
        let suffix = repo_suffixes[chunk_idx % repo_suffixes.len()];
        let id = corpus.repositories.len();
        corpus.repositories.push(Repository {
            id,
            name: format!("{}-{}", ty.slug, suffix),
            description: format!("Parse and validate {} values ({})", ty.name, ty.keyword()),
            readme: readme_for(ty),
            files: chunk.to_vec(),
        });
    }
    // Roughly half the popular types attract keyword-stuffed UI projects
    // (enough to cost the KW baseline its top ranks, as in Figure 8).
    if ty.popular && ty.id.is_multiple_of(2) {
        let id = corpus.repositories.len();
        corpus.repositories.push(Repository {
            id,
            name: format!("{}-ui-widgets", ty.slug),
            description: format!("Render {} form fields and input widgets", ty.name),
            readme: format!(
                "Front-end helpers for {} entry forms. {} widgets, {} labels, {} styling.\n",
                ty.name, ty.name, ty.name, ty.name
            ),
            files: vec![
                SnippetFile {
                    name: format!("{}_widgets", ty.slug),
                    source: wrap::keyword_bait(ty.name, "render_field"),
                    intent: None,
                    quality: Quality::Unrelated,
                },
                SnippetFile {
                    name: format!("{}_labels", ty.slug),
                    source: wrap::keyword_bait(ty.name, "render_label"),
                    intent: None,
                    quality: Quality::Unrelated,
                },
                SnippetFile {
                    name: format!("{}_tooltips", ty.slug),
                    source: wrap::keyword_bait(ty.name, "render_tooltip"),
                    intent: None,
                    quality: Quality::Unrelated,
                },
            ],
        });
    }
}

/// Repositories for the four types whose code needs multi-step invocation
/// chains (§8.2.2: SQL query, TAF, ISNI, Reuters instrument code).
fn add_unsupported_repo(corpus: &mut Corpus, ty: &SemanticType) {
    let id = corpus.repositories.len();
    let prefix: String = ty
        .slug
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();
    corpus.repositories.push(Repository {
        id,
        name: format!("{}-pipeline", ty.slug),
        description: format!("Staged processing pipeline for {} data", ty.name),
        readme: readme_for(ty),
        files: vec![SnippetFile {
            name: format!("{}_pipeline", ty.slug),
            source: wrap::multi_step_chain(ty.name, &prefix),
            intent: Some(ty.slug),
            quality: Quality::Good,
        }],
    });
}

fn add_distractors(corpus: &mut Corpus) {
    let mut push = |name: String, description: String, readme: String, files: Vec<SnippetFile>| {
        let id = corpus.repositories.len();
        corpus.repositories.push(Repository {
            id,
            name,
            description,
            readme,
            files,
        });
    };

    push(
        "number-parse-kit".into(),
        "General purpose number parsing".into(),
        "Parse integers and floats from strings. Handles signs and decimals.\n".into(),
        vec![SnippetFile {
            name: "numparse".into(),
            source: wrap::int_utils(),
            intent: None,
            quality: Quality::Unrelated,
        }],
    );
    push(
        "string-toolbox".into(),
        "Assorted string helpers".into(),
        "Reverse, upper, lower, word counting and other string utilities.\n".into(),
        vec![SnippetFile {
            name: "strtools".into(),
            source: wrap::string_utils(),
            intent: None,
            quality: Quality::Unrelated,
        }],
    );

    // The Swift-language fleet: saturates the bare "SWIFT" query.
    const SWIFT_TOPICS: &[&str] = &[
        "tutorial",
        "examples",
        "compiler",
        "syntax",
        "playground",
        "cookbook",
        "patterns",
        "snippets",
        "macros",
        "concurrency",
        "generics",
        "protocols",
        "closures",
        "optionals",
    ];
    for topic in SWIFT_TOPICS.iter().take(SWIFT_FLEET) {
        push(
            format!("swift-{topic}"),
            format!("Swift {topic}: learn the Swift programming language"),
            format!(
                "Swift {topic} for Swift developers. Swift swift swift code samples in Swift.\n"
            ),
            vec![SnippetFile {
                name: format!("swift_{topic}"),
                source: wrap::swift_language_repo_file(),
                intent: None,
                quality: Quality::Unrelated,
            }],
        );
    }

    // The "number"-dense fleet: makes the non-standard "DOI number" query
    // retrieve the wrong repositories.
    const NUMBER_TOPICS: &[&str] = &[
        "serial",
        "account",
        "invoice",
        "ticket",
        "tracking",
        "order",
        "part",
        "batch",
        "lot",
        "case",
        "reference",
        "customer",
    ];
    for topic in NUMBER_TOPICS.iter().take(NUMBER_FLEET) {
        push(
            format!("{topic}-number-manager"),
            format!("Manage {topic} number records: number generation, number lookup"),
            format!(
                "{topic} number tools. Generate a number, check a number, renumber a number, \
                 format the number, number history, number audits, number reports.\n"
            ),
            vec![SnippetFile {
                name: format!("{topic}_numbers"),
                source: wrap::int_utils(),
                intent: None,
                quality: Quality::Unrelated,
            }],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_builds_and_all_files_parse() {
        let corpus = build_corpus(&CorpusConfig::default());
        corpus.verify_parses().unwrap();
        assert!(corpus.repositories.len() > 100);
    }

    #[test]
    fn covered_types_have_repositories_uncovered_do_not() {
        let corpus = build_corpus(&CorpusConfig::default());
        for ty in registry() {
            let relevant = corpus
                .repositories
                .iter()
                .any(|r| r.files.iter().any(|f| f.intent == Some(ty.slug)));
            match ty.coverage {
                Coverage::Covered | Coverage::UnsupportedInvocation => {
                    assert!(relevant, "{} should have code in the corpus", ty.name)
                }
                Coverage::NoCode => {
                    assert!(!relevant, "{} should have no code", ty.name)
                }
            }
        }
    }

    #[test]
    fn packages_are_registered() {
        let corpus = build_corpus(&CorpusConfig::default());
        assert!(corpus.packages.contains_key("relib"));
        assert!(corpus.packages.contains_key("checklib"));
    }

    #[test]
    fn build_is_deterministic() {
        let a = build_corpus(&CorpusConfig::default());
        let b = build_corpus(&CorpusConfig::default());
        assert_eq!(a.repositories.len(), b.repositories.len());
        for (ra, rb) in a.repositories.iter().zip(&b.repositories) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.files.len(), rb.files.len());
            for (fa, fb) in ra.files.iter().zip(&rb.files) {
                assert_eq!(fa.source, fb.source);
            }
        }
    }

    #[test]
    fn sloppy_upc_reproduces_the_paper_false_positive() {
        // §9.2: the best UPC function checks the GS1 checksum but not the
        // length, so valid ISBN-13s pass it.
        let corpus = build_corpus(&CorpusConfig::default());
        let upc_repo = corpus
            .repositories
            .iter()
            .find(|r| r.files.iter().any(|f| f.intent == Some("upc")))
            .unwrap();
        let upc_file = upc_repo
            .files
            .iter()
            .find(|f| f.intent == Some("upc"))
            .unwrap();
        assert_eq!(upc_file.quality, Quality::Sloppy);
    }
}
