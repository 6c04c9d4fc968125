//! Integration tests for the paper's application scenarios: keyword
//! ambiguity (Figure 12), table-column detection (§9), and semantic
//! transformations (§7.1).

use autotype::{AutoType, AutoTypeConfig, NegativeMode};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_rank::Method;
use autotype_tables::{generate_columns, TableConfig, VALUE_THRESHOLD};
use autotype_typesys::by_slug;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine() -> AutoType {
    AutoType::new(
        build_corpus(&CorpusConfig::default()),
        AutoTypeConfig::default(),
    )
}

/// The "SWIFT" ambiguity (Figure 12): the bare keyword retrieves the
/// programming-language fleet; the disambiguated keyword finds the
/// financial-message code.
#[test]
fn swift_keyword_ambiguity() {
    let engine = engine();
    let ty = by_slug("swift").unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let positives = ty.examples(&mut rng, 15);

    // Bare "SWIFT": top-ranked function must NOT be the MT-message parser.
    let relevant_top = |keyword: &str| -> bool {
        let mut rng = StdRng::seed_from_u64(2);
        match engine.session(keyword, &positives, NegativeMode::Hierarchy, &mut rng) {
            None => false,
            Some(mut session) => session
                .rank(Method::DnfS)
                .first()
                .is_some_and(|f| f.intent == Some("swift")),
        }
    };
    assert!(
        !relevant_top("SWIFT"),
        "bare SWIFT should drown in Swift-language repositories"
    );
    assert!(
        relevant_top("SWIFT message"),
        "the disambiguated query must find the MT parser"
    );
}

/// End-to-end column annotation: a synthesized ISBN detector finds ISBN
/// columns in a dirty table corpus and skips everything else.
#[test]
fn isbn_column_detection_end_to_end() {
    let engine = engine();
    let ty = by_slug("isbn").unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let positives = ty.examples(&mut rng, 20);
    let mut session = engine
        .session("ISBN", &positives, NegativeMode::Hierarchy, &mut rng)
        .unwrap();
    let top = session.rank(Method::DnfS).into_iter().next().unwrap();
    assert_eq!(top.intent, Some("isbn"));

    let columns = generate_columns(
        &TableConfig {
            scale: 0.4,
            untyped: 60,
            dirt: 0.05,
            ..Default::default()
        },
        &mut rng,
    );
    let mut detected_truths = Vec::new();
    for column in &columns {
        let accepted = column
            .values
            .iter()
            .filter(|v| session.validate(&top, v))
            .count();
        if accepted as f64 / column.values.len().max(1) as f64 > VALUE_THRESHOLD {
            detected_truths.push(column.truth);
        }
    }
    assert!(
        detected_truths.contains(&Some("isbn")),
        "at least one ISBN column must be detected"
    );
    // The GS1-checksum validator must not fire on non-ISBN columns (EAN
    // shares the checksum but the 978/979 prefix check blocks it).
    assert!(
        detected_truths.iter().all(|t| *t == Some("isbn")),
        "non-ISBN columns detected: {detected_truths:?}"
    );
}

/// Transformation mining surfaces the Figure 6 card-brand column.
#[test]
fn credit_card_transformations_surface_brand() {
    let engine = engine();
    let ty = by_slug("creditcard").unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let positives = ty.examples(&mut rng, 16);
    let mut session = engine
        .session("credit card", &positives, NegativeMode::Hierarchy, &mut rng)
        .unwrap();
    let ranked = session.rank(Method::DnfS);
    let mut names = Vec::new();
    for f in ranked.iter().take(16).cloned().collect::<Vec<_>>() {
        if f.intent != Some("creditcard") {
            continue;
        }
        for t in session.transformations(&f) {
            names.push(t.name);
        }
    }
    assert!(
        names.iter().any(|n| n.contains("card_brand")),
        "harvested: {names:?}"
    );
}

/// Dependency installation is exercised by repositories importing `relib`: the
/// session still synthesizes working validators for shape-based types.
#[test]
fn relib_backed_types_synthesize() {
    let engine = engine();
    for (slug, keyword) in [("zipcode", "US zipcode"), ("mac", "MAC address")] {
        let ty = by_slug(slug).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let positives = ty.examples(&mut rng, 20);
        let mut session = engine
            .session(keyword, &positives, NegativeMode::Hierarchy, &mut rng)
            .unwrap_or_else(|| panic!("{slug}"));
        let ranked = session.rank(Method::DnfS);
        assert_eq!(ranked[0].intent, Some(slug), "{slug}: {}", ranked[0].label);
        let fresh = ty.examples(&mut rng, 4);
        let top = ranked[0].clone();
        for v in &fresh {
            assert!(session.validate(&top, v), "{slug} rejected {v}");
        }
    }
}
