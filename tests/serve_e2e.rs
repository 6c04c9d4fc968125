//! The full deployment story, end to end: synthesize a detector for a
//! built-in type, export it as a pack, start a [`DetectorRuntime`] from
//! the pack directory with **zero re-synthesis** (no corpus, no search
//! index, no tracing — only the pack bytes), and serve a batch whose
//! verdicts are bit-identical to the in-process `Session` validator at
//! every worker count. This is the acceptance test for the pack +
//! serve subsystem.

use autotype::{AutoType, AutoTypeConfig, NegativeMode};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_negative::Strategy;
use autotype_rank::Method;
use autotype_serve::DetectorRuntime;
use autotype_typesys::by_slug;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn synthesized_pack_serves_bit_identical_verdicts() {
    // --- Synthesis (the only phase that touches the corpus). ---
    let engine = AutoType::new(
        build_corpus(&CorpusConfig::default()),
        AutoTypeConfig::default(),
    );
    // A checksum type that separates at S1 and a structural one that
    // needs S2, each probed with valid values plus near misses and junk.
    serves_bit_identical_verdicts(
        &engine,
        "creditcard",
        "credit card",
        Strategy::S1,
        &[
            "4147202263232836", // last digit off: Luhn fails
            "1234567890123456",
            "not a number",
            "",
            "4111111111111111", // classic test PAN, Luhn-valid
        ],
    );
    serves_bit_identical_verdicts(
        &engine,
        "ipv6",
        "IPv6",
        Strategy::S2,
        &[
            "2001:db8::1::2", // two `::` runs
            "2001:db8:0:0:0:0:0:0:1",
            "192.168.0.1",
            "not an address",
            "",
            "fe80::1",
        ],
    );
}

fn serves_bit_identical_verdicts(
    engine: &AutoType,
    slug: &str,
    keyword: &str,
    strategy: Strategy,
    off_type: &[&str],
) {
    let ty = by_slug(slug).unwrap();
    let mut ex_rng = StdRng::seed_from_u64(1);
    let positives = ty.examples(&mut ex_rng, 20);
    let mut rng = StdRng::seed_from_u64(42);
    let mut session = engine
        .session(keyword, &positives, NegativeMode::Hierarchy, &mut rng)
        .unwrap_or_else(|| panic!("{slug} session"));
    assert_eq!(session.strategy, Some(strategy), "{slug}");
    let ranked = session.rank(Method::DnfS);
    let top = ranked.first().cloned().expect("ranked functions");

    // --- Export. ---
    let dir =
        std::env::temp_dir().join(format!("autotype-serve-e2e-{}-{slug}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("00-{slug}.atpk"));
    let pack = session
        .save_pack(&top, slug, Method::DnfS, &path)
        .expect("save pack");
    assert!(pack.pack_id().starts_with(&format!("{slug}-")));
    assert!(path.exists());

    // The probe batch: valid values, near misses, and junk.
    let mut batch: Vec<String> = positives.clone();
    batch.extend(off_type.iter().map(|s| s.to_string()));

    // In-process reference verdicts from the live session, which the
    // session's in-memory detector must reproduce value for value.
    let reference: Vec<bool> = batch.iter().map(|v| session.validate(&top, v)).collect();
    assert!(reference.iter().any(|&b| b), "some positives must accept");
    assert!(reference.iter().any(|&b| !b), "some negatives must reject");
    let detector = session
        .batch_validator(&top)
        .expect("top function detector");
    for (value, &expected) in batch.iter().zip(&reference) {
        assert_eq!(
            detector.accepts(value),
            expected,
            "{slug}: batch_validator diverged from validate on {value:?}"
        );
    }

    // --- Serving: rebuilt purely from the pack directory. ---
    for workers in [1usize, 2, 4, 8] {
        let runtime = DetectorRuntime::load_dir(&dir, workers, 4096)
            .unwrap_or_else(|e| panic!("load_dir at workers={workers}: {e}"));
        assert_eq!(runtime.packs().len(), 1);
        assert_eq!(runtime.packs()[0].pack_id(), pack.pack_id());

        let verdicts = runtime.detect_batch(&batch);
        let served: Vec<bool> = verdicts.iter().map(|v| v.is_some()).collect();
        assert_eq!(
            served, reference,
            "{slug}: pack verdicts diverged from the in-process session at workers={workers}"
        );

        // Second identical batch: all verdicts come from the cache.
        let misses = autotype_serve::Metrics::read(&runtime.metrics().cache_misses);
        let again = runtime.detect_batch(&batch);
        assert_eq!(again, verdicts);
        assert_eq!(
            autotype_serve::Metrics::read(&runtime.metrics().cache_misses),
            misses,
            "second batch must not re-probe (workers={workers})"
        );
        assert!(
            autotype_serve::Metrics::read(&runtime.metrics().cache_hits) >= batch.len() as u64,
            "second batch must be served from cache (workers={workers})"
        );
        assert!(autotype_serve::Metrics::read(&runtime.metrics().fuel_spent) > 0);
    }

    std::fs::remove_dir_all(&dir).ok();
}
