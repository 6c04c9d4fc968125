//! Behavioral verification of every generated snippet: the code the corpus
//! plants must actually *behave* like type-handling code — completing
//! normally (and truthily) on valid values of its intended type, and
//! erroring out or returning falsy on garbage. This is what makes the
//! downstream trace-separation experiments meaningful.

use autotype_corpus::{build_corpus, CorpusConfig, Quality};
use autotype_exec::{analyze_module, Candidate, EntryPoint, Executor, PackageIndex, RunOutcome};
use autotype_lang::Value;
use autotype_typesys::{registry, Coverage};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FUEL: u64 = 400_000;

fn package_index(corpus: &autotype_corpus::Corpus) -> PackageIndex {
    let mut idx = PackageIndex::new();
    for (name, source) in &corpus.packages {
        idx.insert(name, source);
    }
    idx
}

/// A run "accepts" when it completes and does not return an explicit False
/// (parsers signal acceptance by not raising).
fn accepts(outcome: &RunOutcome) -> bool {
    match &outcome.result {
        Ok(Value::Bool(false)) => false,
        Ok(_) => true,
        Err(_) => false,
    }
}

#[test]
fn every_good_primary_snippet_accepts_positives_and_rejects_garbage() {
    let corpus = build_corpus(&CorpusConfig::default());
    let packages = package_index(&corpus);
    let mut rng = StdRng::seed_from_u64(99);
    let mut checked_types = 0;

    for ty in registry()
        .iter()
        .filter(|t| t.coverage == Coverage::Covered)
    {
        // Find the type's first Good-quality snippet file.
        let Some((repo, file)) = corpus.repositories.iter().find_map(|r| {
            r.files
                .iter()
                .find(|f| {
                    f.intent == Some(ty.slug)
                        && f.quality == Quality::Good
                        // Taggers classify instead of accept/reject; raw
                        // acceptance semantics do not apply to them.
                        && !f.name.ends_with("_tagger")
                        && !f.source.contains("def classify_value")
                })
                .map(|f| (r, f))
        }) else {
            // Some types only ship sloppy code on purpose (UPC).
            continue;
        };
        let program = repo.program().unwrap_or_else(|e| {
            panic!("{}: {e}", ty.slug);
        });
        let file_id = program.file_id(&file.name).unwrap();
        let (cands, _) = analyze_module(file_id, &program.file(file_id).module);
        // The emitters define helpers first and the main entry last; pick
        // the plain-function candidate for the last-defined function.
        let main_fn = program
            .file(file_id)
            .module
            .functions()
            .last()
            .map(|f| f.name.clone());
        let cand: Candidate = cands
            .iter()
            .find(|c| {
                matches!(&c.entry, EntryPoint::Function { name } if Some(name) == main_fn.as_ref())
            })
            .or_else(|| {
                cands
                    .iter()
                    .find(|c| matches!(c.entry, EntryPoint::Function { .. }))
            })
            .or_else(|| cands.first())
            .unwrap_or_else(|| panic!("{}: no candidates in {}", ty.slug, file.name))
            .clone();

        let exec = Executor::new(program, &packages, FUEL);
        // Positives must be accepted.
        let positives = ty.examples(&mut rng, 8);
        let mut accepted = 0;
        for p in &positives {
            let out = exec.run(&cand, p, &packages);
            if accepts(&out) {
                accepted += 1;
            }
        }
        assert!(
            accepted >= 7,
            "{}: snippet {} ({:?}) accepted only {accepted}/8 positives, e.g. {:?}",
            ty.slug,
            file.name,
            cand.entry,
            positives.first()
        );

        // Clearly-wrong inputs must be rejected (completed-but-falsy or
        // raised).
        let garbage = ["", "!!!", "hello world this is not typed data", "@@##$$"];
        let mut rejected = 0;
        for g in garbage {
            let out = exec.run(&cand, g, &packages);
            if !accepts(&out) {
                rejected += 1;
            }
        }
        assert!(
            rejected >= 3,
            "{}: snippet {} rejected only {rejected}/4 garbage inputs",
            ty.slug,
            file.name
        );
        checked_types += 1;
    }
    assert!(checked_types >= 70, "only {checked_types} types checked");
}

#[test]
fn sloppy_upc_snippet_accepts_isbn13() {
    // Reproduces the §9.2 false-positive mechanism end to end.
    let corpus = build_corpus(&CorpusConfig::default());
    let packages = package_index(&corpus);
    let (repo, file) = corpus
        .repositories
        .iter()
        .find_map(|r| {
            r.files
                .iter()
                .find(|f| f.intent == Some("upc"))
                .map(|f| (r, f))
        })
        .unwrap();
    let program = repo.program().unwrap();
    let file_id = program.file_id(&file.name).unwrap();
    let (cands, _) = analyze_module(file_id, &program.file(file_id).module);
    let cand = cands
        .iter()
        .find(|c| matches!(c.entry, EntryPoint::Function { .. }))
        .unwrap()
        .clone();
    let exec = Executor::new(program, &packages, FUEL);
    // A valid UPC passes...
    let upc = exec.run(&cand, "036000291452", &packages);
    assert!(accepts(&upc));
    // ...but so does a valid ISBN-13 (same GS1 checksum, length unchecked).
    let isbn = exec.run(&cand, "9784063641561", &packages);
    assert!(accepts(&isbn), "sloppy UPC must accept ISBN-13");
}

#[test]
fn multi_step_pipelines_yield_no_separating_candidates() {
    let corpus = build_corpus(&CorpusConfig::default());
    for ty in registry()
        .iter()
        .filter(|t| t.coverage == Coverage::UnsupportedInvocation)
    {
        let repo = corpus
            .repositories
            .iter()
            .find(|r| r.files.iter().any(|f| f.intent == Some(ty.slug)))
            .unwrap_or_else(|| panic!("{} repo missing", ty.slug));
        let program = repo.program().unwrap();
        for (fid, _) in program.files.iter().enumerate() {
            let (cands, stats) = analyze_module(fid as u32, &program.files[fid].module);
            // The final multi-parameter step must be rejected.
            assert!(stats.rejected_multi_param >= 1, "{}", ty.slug);
            // Whatever single-param helpers remain do not touch the input
            // in a type-specific way — sanity: none of them is the
            // `*_process` function.
            for c in &cands {
                assert!(
                    !c.entry.label().contains("process"),
                    "{}: {} should be rejected",
                    ty.slug,
                    c.entry.label()
                );
            }
        }
    }
}

#[test]
fn wrapped_variants_execute_equivalently() {
    // The argv/stdin/file/class wrappers of a validator must agree with
    // the plain function on the same inputs.
    let corpus = build_corpus(&CorpusConfig::default());
    let packages = package_index(&corpus);
    let mut rng = StdRng::seed_from_u64(7);
    let ty = autotype_typesys::by_slug("creditcard").unwrap();
    let positives = ty.examples(&mut rng, 3);

    let mut variants_seen = 0;
    for repo in &corpus.repositories {
        for file in &repo.files {
            if file.intent != Some("creditcard") || file.quality != Quality::Good {
                continue;
            }
            let program = repo.program().unwrap();
            let file_id = program.file_id(&file.name).unwrap();
            let (cands, _) = analyze_module(file_id, &program.file(file_id).module);
            for cand in cands {
                // Skip the Listing-1 class (raises on valid-but-unknown
                // brands by design) and taggers (classify, never reject).
                let label = cand.entry.label();
                if label.contains("CreditCard") || label.contains("classify_value") {
                    continue;
                }
                // Wrappers around the tagger inherit its classify-don't-
                // reject behavior.
                if file.source.contains("classify_value(value)") {
                    continue;
                }
                let exec = Executor::new(program.clone(), &packages, FUEL);
                for p in &positives {
                    let out = exec.run(&cand, p, &packages);
                    assert!(accepts(&out), "{:?} rejected positive {p}", cand.entry);
                }
                let out = exec.run(&cand, "not-a-card", &packages);
                assert!(!accepts(&out), "{:?} accepted garbage", cand.entry);
                variants_seen += 1;
            }
        }
    }
    assert!(
        variants_seen >= 4,
        "only {variants_seen} variants exercised"
    );
}
