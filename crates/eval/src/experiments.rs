//! Experiment drivers regenerating every figure and table of the paper's
//! evaluation (§8–§9). Each driver is parameterized by a type subset and a
//! scale so the same code powers fast tests and the full `figures` binary.

use autotype::{AutoType, NegativeMode, PackValidator, RankedFunction, Session};
use autotype_negative::{generate_negatives, MutationConfig, Strategy};
use autotype_rank::Method;
use autotype_tables::{
    correct_columns, detect_by_header, detect_by_pattern, detect_by_values_batched,
    generate_columns, infer_pattern, score_type, Detection, InferredPattern, SyncValueDetector,
    TableConfig, TypeOutcome, PAPER_TYPE_COUNTS,
};
use autotype_typesys::{by_slug, popular_types, SemanticType};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{mean, ndcg, precision_at_k};
use crate::relevance::{top_k_relevances, Holdout};

/// Shared evaluation configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    pub seed: u64,
    /// Training positives per test case (paper: ~20).
    pub n_pos: usize,
    /// Holdout positives (paper: 10).
    pub n_test_pos: usize,
    /// Holdout negatives from web tables (paper: 1000; scaled default).
    pub n_test_neg: usize,
    /// Ranking depth (paper: 7).
    pub k_max: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            seed: 0x5EED,
            n_pos: 20,
            n_test_pos: 10,
            n_test_neg: 100,
            k_max: 7,
        }
    }
}

/// A pool of web-table cell values used to sample holdout negatives.
pub fn table_value_pool(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let columns = generate_columns(
        &TableConfig {
            scale: 0.005,
            untyped: 300,
            ..Default::default()
        },
        &mut rng,
    );
    columns.into_iter().flat_map(|c| c.values).collect()
}

fn build_session<'a>(
    engine: &'a AutoType,
    ty: &SemanticType,
    keyword: &str,
    positives: &[String],
    mode: NegativeMode,
    seed: u64,
) -> Option<Session<'a>> {
    let mut rng = StdRng::seed_from_u64(seed ^ ty.id as u64);
    engine.session(keyword, positives, mode, &mut rng)
}

/// Figure 8: precision@K, NDCG@K and pooled relative recall for the five
/// ranking methods over a set of types.
#[derive(Debug, Clone)]
pub struct MethodQuality {
    pub method: Method,
    pub precision_at: Vec<f64>,
    pub ndcg_at: Vec<f64>,
    pub relative_recall: f64,
}

pub fn fig8(engine: &AutoType, types: &[&SemanticType], cfg: &EvalConfig) -> Vec<MethodQuality> {
    let pool_values = table_value_pool(cfg.seed);
    let mut per_method_precision: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); cfg.k_max]; Method::ALL.len()];
    let mut per_method_ndcg: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); cfg.k_max]; Method::ALL.len()];
    let mut per_method_relevant_found: Vec<usize> = vec![0; Method::ALL.len()];
    let mut pool_total = 0usize;

    for ty in types {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (ty.id as u64) << 1);
        let positives = ty.examples(&mut rng, cfg.n_pos);
        let Some(mut session) = build_session(
            engine,
            ty,
            ty.keyword(),
            &positives,
            NegativeMode::Hierarchy,
            cfg.seed,
        ) else {
            continue;
        };
        let holdout = Holdout::build(ty, cfg.n_test_pos, cfg.n_test_neg, &pool_values, &mut rng);
        // Pool of relevant functions across methods (relative recall).
        let mut pooled: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut per_method_found: Vec<Vec<String>> = vec![Vec::new(); Method::ALL.len()];

        for (mi, method) in Method::ALL.iter().enumerate() {
            let ranked = session.rank(*method);
            let rels = top_k_relevances(&mut session, &ranked, ty.slug, &holdout, cfg.k_max);
            for k in 1..=cfg.k_max {
                per_method_precision[mi][k - 1].push(precision_at_k(&rels, k));
                per_method_ndcg[mi][k - 1].push(ndcg(&rels, k));
            }
            for (f, rel) in ranked.iter().take(cfg.k_max).zip(&rels) {
                if *rel > 0.5 {
                    pooled.insert(f.label.clone());
                    per_method_found[mi].push(f.label.clone());
                }
            }
        }
        pool_total += pooled.len();
        for (mi, found) in per_method_found.iter().enumerate() {
            per_method_relevant_found[mi] += found.iter().filter(|l| pooled.contains(*l)).count();
        }
    }

    Method::ALL
        .iter()
        .enumerate()
        .map(|(mi, method)| MethodQuality {
            method: *method,
            precision_at: per_method_precision[mi].iter().map(|xs| mean(xs)).collect(),
            ndcg_at: per_method_ndcg[mi].iter().map(|xs| mean(xs)).collect(),
            relative_recall: if pool_total == 0 {
                0.0
            } else {
                per_method_relevant_found[mi] as f64 / pool_total as f64
            },
        })
        .collect()
}

/// Figure 9 / §8.2.2: how many relevant functions AutoType finds per type.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// (type name, #relevant functions ranked).
    pub per_type: Vec<(&'static str, usize)>,
    pub covered: usize,
    pub total: usize,
    pub mean_relevant: f64,
}

pub fn fig9(engine: &AutoType, types: &[&SemanticType], cfg: &EvalConfig) -> CoverageReport {
    let mut per_type = Vec::new();
    for ty in types {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (ty.id as u64) << 2);
        let positives = ty.examples(&mut rng, cfg.n_pos);
        let relevant = match build_session(
            engine,
            ty,
            ty.keyword(),
            &positives,
            NegativeMode::Hierarchy,
            cfg.seed,
        ) {
            None => 0,
            Some(mut session) => session
                .rank(Method::DnfS)
                .iter()
                .filter(|f| f.intent == Some(ty.slug) && f.score > 0.8)
                .count(),
        };
        per_type.push((ty.name, relevant));
    }
    let covered = per_type.iter().filter(|(_, n)| *n > 0).count();
    let counts: Vec<f64> = per_type
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(_, n)| *n as f64)
        .collect();
    CoverageReport {
        covered,
        total: per_type.len(),
        mean_relevant: mean(&counts),
        per_type,
    }
}

/// Figures 10(a)/(b)/13: sensitivity sweeps returning precision@1..=4.
pub fn sensitivity_examples(
    engine: &AutoType,
    types: &[&SemanticType],
    cfg: &EvalConfig,
    n_examples: usize,
    noise: f64,
    method: Method,
) -> Vec<f64> {
    let pool_values = table_value_pool(cfg.seed);
    let mut per_k: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for ty in types {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (ty.id as u64) << 3);
        let mut positives = ty.examples(&mut rng, n_examples);
        // Inject noise: corrupt a fraction of the positives into invalid
        // strings (Figure 10(b)).
        let n_noise = (noise * positives.len() as f64).round() as usize;
        if n_noise > 0 {
            let corrupted = generate_negatives(
                &positives.clone(),
                Strategy::S3,
                &MutationConfig {
                    char_probability: 0.8,
                    length_probability: 0.3,
                    per_positive: 1,
                },
                &mut rng,
            );
            for i in 0..n_noise.min(corrupted.len()) {
                if !(ty.validate)(&corrupted[i]) {
                    positives[i] = corrupted[i].clone();
                }
            }
        }
        let Some(mut session) = build_session(
            engine,
            ty,
            ty.keyword(),
            &positives,
            NegativeMode::Hierarchy,
            cfg.seed,
        ) else {
            for xs in per_k.iter_mut() {
                xs.push(0.0);
            }
            continue;
        };
        let holdout = Holdout::build(ty, cfg.n_test_pos, cfg.n_test_neg, &pool_values, &mut rng);
        let ranked = session.rank(method);
        let rels = top_k_relevances(&mut session, &ranked, ty.slug, &holdout, 4);
        for k in 1..=4 {
            per_k[k - 1].push(precision_at_k(&rels, k));
        }
    }
    per_k.iter().map(|xs| mean(xs)).collect()
}

/// Figure 10(c): negative-generation ablation, precision@1..=4 per mode.
pub fn fig10c(
    engine: &AutoType,
    types: &[&SemanticType],
    cfg: &EvalConfig,
) -> Vec<(&'static str, Vec<f64>)> {
    let pool_values = table_value_pool(cfg.seed);
    let modes: [(&'static str, NegativeMode); 3] = [
        ("orig", NegativeMode::Hierarchy),
        ("only_random_neg", NegativeMode::RandomOnly),
        ("no_neg", NegativeMode::None),
    ];
    let mut out = Vec::new();
    for (label, mode) in modes {
        let mut per_k: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for ty in types {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (ty.id as u64) << 4);
            let positives = ty.examples(&mut rng, cfg.n_pos);
            let Some(mut session) =
                build_session(engine, ty, ty.keyword(), &positives, mode, cfg.seed)
            else {
                for xs in per_k.iter_mut() {
                    xs.push(0.0);
                }
                continue;
            };
            let holdout =
                Holdout::build(ty, cfg.n_test_pos, cfg.n_test_neg, &pool_values, &mut rng);
            let ranked = session.rank(Method::DnfS);
            // Functions ranked without a validator (no-neg mode) are scored
            // with raw acceptance.
            let rels = top_k_relevances(&mut session, &ranked, ty.slug, &holdout, 4);
            for k in 1..=4 {
                per_k[k - 1].push(precision_at_k(&rels, k));
            }
        }
        out.push((label, per_k.iter().map(|xs| mean(xs)).collect()));
    }
    out
}

/// Per-keyword rows of Figure 12: (keyword, precision@1..=4).
pub type KeywordRows = Vec<(&'static str, Vec<f64>)>;

/// Figure 12: keyword sensitivity — precision@1..=4 for each alternative
/// keyword of each sampled type.
pub fn fig12(engine: &AutoType, cfg: &EvalConfig) -> Vec<(&'static str, KeywordRows)> {
    const FIG12_TYPES: &[&str] = &[
        "isbn", "ipv4", "swift", "zipcode", "sedol", "isin", "vin", "rgbcolor", "fasta", "doi",
    ];
    let pool_values = table_value_pool(cfg.seed);
    let mut out = Vec::new();
    for slug in FIG12_TYPES {
        let ty = by_slug(slug).expect("fig12 type");
        let mut rows = Vec::new();
        for keyword in ty.keywords {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (ty.id as u64) << 5);
            let positives = ty.examples(&mut rng, cfg.n_pos);
            let rels = match build_session(
                engine,
                ty,
                keyword,
                &positives,
                NegativeMode::Hierarchy,
                cfg.seed,
            ) {
                None => vec![0.0; 4],
                Some(mut session) => {
                    let holdout =
                        Holdout::build(ty, cfg.n_test_pos, cfg.n_test_neg, &pool_values, &mut rng);
                    let ranked = session.rank(Method::DnfS);
                    top_k_relevances(&mut session, &ranked, ty.slug, &holdout, 4)
                }
            };
            let precisions = (1..=4).map(|k| precision_at_k(&rels, k)).collect();
            rows.push((*keyword, precisions));
        }
        out.push((ty.name, rows));
    }
    out
}

/// Figure 14: per-type execution cost. Fuel is the deterministic stand-in
/// for wall-clock; `fuel_per_minute` calibrates the simulated 60-minute cap.
pub fn fig14(
    engine: &AutoType,
    types: &[&SemanticType],
    cfg: &EvalConfig,
    fuel_per_minute: f64,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for ty in types {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (ty.id as u64) << 6);
        let positives = ty.examples(&mut rng, cfg.n_pos);
        let minutes = match build_session(
            engine,
            ty,
            ty.keyword(),
            &positives,
            NegativeMode::Hierarchy,
            cfg.seed,
        ) {
            None => 0.5, // retrieval-only, finishes immediately
            Some(session) => (session.fuel_spent as f64 / fuel_per_minute).min(60.0),
        };
        out.push((ty.name, minutes));
    }
    out
}

/// One Table 2 row: per-method detections and precision for a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    pub slug: &'static str,
    pub dnf: TypeOutcome,
    pub kw: TypeOutcome,
    pub regex: TypeOutcome,
    pub union_all: usize,
}

impl Table2Row {
    /// Figure 11's F-scores for this type: (DNF-S, REGEX, KW).
    pub fn f_scores(&self) -> (f64, f64, f64) {
        (self.dnf.f_score(), self.regex.f_score(), self.kw.f_score())
    }
}

/// Header keywords per Table 2 type (the KW detection baseline).
fn header_keywords(slug: &str) -> Vec<&'static str> {
    match slug {
        "datetime" => vec!["date", "time"],
        "address" => vec!["address"],
        "country" => vec!["country"],
        "phone" => vec!["phone", "telephone"],
        "currency" => vec!["price", "cost", "currency"],
        "email" => vec!["email", "e-mail"],
        "zipcode" => vec!["zip"],
        "url" => vec!["url", "website"],
        "isbn" => vec!["isbn"],
        "ipv4" => vec!["ip"],
        "ean" => vec!["ean"],
        "upc" => vec!["upc"],
        "isin" => vec!["isin"],
        "issn" => vec!["issn"],
        "creditcard" => vec!["card"],
        _ => vec![],
    }
}

/// Everything a [`table2`] run produces: per-type rows plus the raw
/// per-method detections (for determinism pinning).
#[derive(Debug, Clone)]
pub struct Table2Output {
    pub rows: Vec<Table2Row>,
    pub dnf: Vec<Detection>,
    pub kw: Vec<Detection>,
    pub regex: Vec<Detection>,
}

/// Table 2 / Figure 11: column-type detection over the synthetic web-table
/// corpus, comparing the synthesized DNF-S functions, header keywords, and
/// inferred REGEX patterns.
pub fn table2(
    engine: &AutoType,
    cfg: &EvalConfig,
    table_scale: f64,
    untyped: usize,
) -> Vec<Table2Row> {
    table2_full(engine, cfg, table_scale, untyped).rows
}

/// [`table2`] with the per-method detections exposed.
///
/// DNF-S detection is batched: each per-type synthesized validator becomes
/// a thread-safe [`PackValidator`] handle, and `detect_by_values_batched`
/// schedules the columns through the engine's exec pool one detector tier
/// at a time, probing only the cells that can still change a verdict.
/// Probes are pure, so first-matching-type-wins per column under the
/// strict `> VALUE_THRESHOLD` rule gives detections and `Table2Row`
/// scores that are bit-identical at every worker count — the same
/// guarantee the trace engine pins in
/// `crates/core/tests/parallel_determinism.rs`, pinned here by
/// `crates/eval/tests/batched_detection.rs`.
pub fn table2_full(
    engine: &AutoType,
    cfg: &EvalConfig,
    table_scale: f64,
    untyped: usize,
) -> Table2Output {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7AB1E);
    let columns = generate_columns(
        &TableConfig {
            scale: table_scale,
            untyped,
            ..Default::default()
        },
        &mut rng,
    );

    // Build one session + top-1 function per type.
    let mut sessions: Vec<(&'static str, Session<'_>, RankedFunction)> = Vec::new();
    let mut patterns: Vec<(&'static str, Option<InferredPattern>)> = Vec::new();
    for (slug, _) in PAPER_TYPE_COUNTS {
        let ty = by_slug(slug).expect("table type");
        let mut ty_rng = StdRng::seed_from_u64(cfg.seed ^ (ty.id as u64) << 7);
        let positives = ty.examples(&mut ty_rng, cfg.n_pos);
        patterns.push((ty.slug, infer_pattern(&positives)));
        if let Some(mut session) = build_session(
            engine,
            ty,
            ty.keyword(),
            &positives,
            NegativeMode::Hierarchy,
            cfg.seed,
        ) {
            let ranked = session.rank(Method::DnfS);
            if let Some(top) = ranked.into_iter().next() {
                sessions.push((ty.slug, session, top));
            }
        }
    }

    // DNF detection: >80% of values accepted by the synthesized validator,
    // batched through the exec pool. Functions without a validator would
    // answer false for every value (never reaching the threshold), so
    // skipping them changes nothing — including first-win priority.
    let handles: Vec<(&'static str, PackValidator)> = sessions
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
    let dnf_detections = detect_by_values_batched(&columns, &detectors, engine.pool());

    let keywords: Vec<(&'static str, Vec<&'static str>)> = PAPER_TYPE_COUNTS
        .iter()
        .map(|(slug, _)| (*slug, header_keywords(slug)))
        .collect();
    let kw_detections = detect_by_header(&columns, &keywords);
    let regex_detections = detect_by_pattern(&columns, &patterns);

    let rows = PAPER_TYPE_COUNTS
        .iter()
        .map(|(slug, _)| {
            let mut union = correct_columns(&dnf_detections, &columns, slug);
            union.extend(correct_columns(&kw_detections, &columns, slug));
            union.extend(correct_columns(&regex_detections, &columns, slug));
            Table2Row {
                slug,
                dnf: score_type(&dnf_detections, &columns, slug, &union),
                kw: score_type(&kw_detections, &columns, slug, &union),
                regex: score_type(&regex_detections, &columns, slug, &union),
                union_all: union.len(),
            }
        })
        .collect();
    Table2Output {
        rows,
        dnf: dnf_detections,
        kw: kw_detections,
        regex: regex_detections,
    }
}

/// Table 3: semantic transformations per popular type — names of the
/// harvested derived columns from the top functions.
pub fn table3(engine: &AutoType, cfg: &EvalConfig) -> Vec<(&'static str, Vec<String>)> {
    let mut out = Vec::new();
    for ty in popular_types() {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (ty.id as u64) << 8);
        let positives = ty.examples(&mut rng, cfg.n_pos);
        let Some(mut session) = build_session(
            engine,
            ty,
            ty.keyword(),
            &positives,
            NegativeMode::Hierarchy,
            cfg.seed,
        ) else {
            out.push((ty.name, Vec::new()));
            continue;
        };
        let ranked = session.rank(Method::DnfS);
        let mut names: Vec<String> = Vec::new();
        // The paper inspects the top-10 functions; our ranked lists are
        // shorter, so inspect every relevant ranked function.
        for f in ranked.iter().take(16).cloned().collect::<Vec<_>>() {
            if f.intent != Some(ty.slug) {
                continue;
            }
            for t in session.transformations(&f) {
                if !names.contains(&t.name) {
                    names.push(t.name.clone());
                }
            }
        }
        out.push((ty.name, names));
    }
    out
}

/// The benchmark types named by `slugs`, in that order.
pub fn types_by_slugs(slugs: &[&str]) -> Vec<&'static SemanticType> {
    slugs
        .iter()
        .map(|s| by_slug(s).expect("known slug"))
        .collect()
}
