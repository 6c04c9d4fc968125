//! Column-type detection over web tables (paper §9): synthesize detectors
//! for several types, then annotate a table corpus, exactly like the data-
//! preparation scenario in the paper's introduction (Figure 1).
//!
//! ```sh
//! cargo run --release --example detect_columns
//! ```

use autotype::{AutoType, AutoTypeConfig, NegativeMode, PackValidator};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_rank::Method;
use autotype_tables::{
    detect_by_values_batched, generate_columns, SyncValueDetector, TableConfig, VALUE_THRESHOLD,
};
use autotype_typesys::by_slug;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let engine = AutoType::new(
        build_corpus(&CorpusConfig::default()),
        AutoTypeConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(7);

    // Synthesize a detector for each type of interest.
    let slugs = ["ipv4", "creditcard", "isbn", "email", "datetime"];
    let mut synthesized = Vec::new();
    for slug in slugs {
        let ty = by_slug(slug).unwrap();
        let positives = ty.examples(&mut rng, 20);
        let mut session = engine
            .session(ty.keyword(), &positives, NegativeMode::Hierarchy, &mut rng)
            .expect("session");
        let top = session
            .rank(Method::DnfS)
            .into_iter()
            .next()
            .expect("ranked");
        println!("{slug}: synthesized from {}", top.label);
        synthesized.push((slug, session, top));
    }

    // A small column corpus (mirrors the sales-transactions table of the
    // paper's Figure 1: typed columns, dirty values, missing headers).
    let columns = generate_columns(
        &TableConfig {
            scale: 0.01,
            untyped: 30,
            ..Default::default()
        },
        &mut rng,
    );
    println!(
        "\nannotating {} columns (>{:.0}% of values must pass):",
        columns.len(),
        VALUE_THRESHOLD * 100.0
    );

    // Schedule the columns through the engine's exec pool: each
    // synthesized validator becomes a thread-safe batch handle, and since
    // every call is pure, first-matching-type-wins detections are
    // identical at every worker count.
    let handles: Vec<(&'static str, PackValidator)> = synthesized
        .iter()
        .filter_map(|(slug, session, top)| session.batch_validator(top).map(|bv| (*slug, bv)))
        .collect();
    let detectors: Vec<SyncValueDetector<'_>> = handles
        .iter()
        .map(|(slug, bv)| {
            (
                *slug,
                Box::new(move |v: &str| bv.accepts(v)) as Box<dyn Fn(&str) -> bool + Sync>,
            )
        })
        .collect();
    let detections = detect_by_values_batched(&columns, &detectors, engine.pool());

    for d in &detections {
        let column = &columns[d.column];
        println!(
            "  column {:>3} {:<12} detected as {:<11} (truth: {:?}), e.g. {:?}",
            d.column,
            column
                .header
                .as_deref()
                .map(|h| format!("{h:?}"))
                .unwrap_or_else(|| "<no header>".into()),
            d.slug,
            column.truth,
            column.values.first().unwrap()
        );
    }
    println!(
        "\n{} columns annotated with rich semantic types",
        detections.len()
    );
}
