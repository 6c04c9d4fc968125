//! The synthesis half: synthesize one detector per Table-2 type
//! (`AutoType::session` → `rank(DnfS)` → `export_pack`) and detect the
//! web-table corpus with each type's top detector.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use autotype::{AutoType, AutoTypeConfig, NegativeMode, Pack, RankedFunction, Session};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_negative::{generate_negatives, MutationConfig, Strategy};
use autotype_rank::Method;
use autotype_tables::{
    detect_by_values_batched, generate_columns, Column, Detection, SyncValueDetector, TableConfig,
    PAPER_TYPE_COUNTS,
};
use autotype_typesys::by_slug;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::replay::SessionWork;
use crate::report::{
    available_parallelism, calm_limit, calm_medians, cpu_ticks, median, peak_rss_mb, ratio,
    steal_share,
};
use crate::spans::{SpanId, Tracer};
use crate::{Args, Run};

/// Training positives per type (the paper's ~20).
pub const POSITIVES: usize = 20;
/// Held-out positives (and as many mutated negatives) per type for the
/// pack-versus-session verdict check.
pub const HOLDOUT: usize = 10;
/// Columns per detected table: the corpus is detected one table at a time.
pub const TABLE_COLUMNS: usize = 6;
/// Table corpus scale and untyped filler columns (994 columns in total).
const TABLE_SCALE: f64 = 0.1;
const TABLE_UNTYPED: usize = 600;

/// Derive an independent sub-seed (SplitMix64 finalizer over both words).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one type's synthesis consumes, derived from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeInput {
    pub slug: &'static str,
    pub keyword: &'static str,
    pub positives: Vec<String>,
    /// Seeds the session's negative-generation RNG.
    pub session_seed: u64,
    /// Held-out positives followed by mutated negatives.
    pub holdout: Vec<String>,
}

/// The 15 Table-2 types in detection-priority order, with their inputs.
pub fn type_inputs(seed: u64) -> Vec<TypeInput> {
    PAPER_TYPE_COUNTS
        .iter()
        .map(|(slug, _)| {
            let ty = by_slug(slug).expect("Table-2 type is registered");
            let mut rng = StdRng::seed_from_u64(mix(seed, ty.id as u64));
            let positives = ty.examples(&mut rng, POSITIVES);
            let mut holdout = ty.examples(&mut rng, HOLDOUT);
            let one_each = MutationConfig {
                per_positive: 1,
                ..MutationConfig::default()
            };
            let negatives = generate_negatives(&holdout, Strategy::S1, &one_each, &mut rng);
            holdout.extend(negatives);
            TypeInput {
                slug: ty.slug,
                keyword: ty.keyword(),
                positives,
                session_seed: mix(seed, 0x5E55 + ty.id as u64),
                holdout,
            }
        })
        .collect()
}

/// The synthesis engine over the default synthetic corpus.
pub fn engine(workers: usize) -> AutoType {
    AutoType::new(
        build_corpus(&CorpusConfig::default()),
        AutoTypeConfig {
            workers,
            ..AutoTypeConfig::default()
        },
    )
}

/// The scale-0.1 web-table corpus.
pub fn table_columns(seed: u64) -> Vec<Column> {
    let config = TableConfig {
        scale: TABLE_SCALE,
        untyped: TABLE_UNTYPED,
        ..TableConfig::default()
    };
    generate_columns(&config, &mut StdRng::seed_from_u64(mix(seed, 0x7AB1E)))
}

/// One synthesized type: the live session, its top function and the pack
/// exported from it.
pub struct Synthesized<'e> {
    pub slug: &'static str,
    pub session: Session<'e>,
    pub top: RankedFunction,
    pub pack: Pack,
    /// Wall time of session + rank + export, and of the last two alone.
    pub ms: f64,
    /// Share of machine CPU time the hypervisor stole during `ms`.
    pub steal: f64,
    pub rank_ms: f64,
    pub export_ms: f64,
    /// Functions in the ranking.
    pub ranked: usize,
    /// The session's own accounting right after it was built (before any
    /// validation run adds fuel).
    pub work: SessionWork,
}

/// Synthesize one type. `None` when the type yields no pack.
pub fn synthesize<'e>(
    engine: &'e AutoType,
    input: &TypeInput,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Option<Synthesized<'e>> {
    let ticks = cpu_ticks();
    let start = Instant::now();
    tracer.span("synth.type", parent, 0, |id| {
        let mut rng = StdRng::seed_from_u64(input.session_seed);
        let mut session = tracer.span("core.session", id, 0, |_| {
            engine.session(
                input.keyword,
                &input.positives,
                NegativeMode::Hierarchy,
                &mut rng,
            )
        })?;
        let work = SessionWork {
            fuel: session.fuel_spent,
            candidates: session.candidate_count(),
            installs: session.installs,
        };
        let t = Instant::now();
        let ranked = tracer.span("rank", id, 0, |_| session.rank(Method::DnfS));
        let rank_ms = ms_since(t);
        let n_ranked = ranked.len();
        let top = ranked.into_iter().next()?;
        let t = Instant::now();
        let pack = tracer.span("pack.export", id, 0, |_| {
            session.export_pack(&top, input.slug, Method::DnfS)
        })?;
        let export_ms = ms_since(t);
        Some(Synthesized {
            slug: input.slug,
            session,
            top,
            pack,
            ms: ms_since(start),
            steal: steal_share(ticks, cpu_ticks()),
            rank_ms,
            export_ms,
            ranked: n_ranked,
            work,
        })
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-call accounting of `BatchValidator::accepts` (traced runs only).
#[derive(Default)]
pub struct AcceptStats {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
}

/// Detect the given tables (of [`TABLE_COLUMNS`] corpus columns each) with
/// every synthesized type's top detector, in priority order. Returns each
/// table's index, detections (corpus column indices), wall time in ms and
/// the share of machine CPU time the hypervisor stole meanwhile.
pub fn detect_tables(
    engine: &AutoType,
    columns: &[Column],
    tables: &[usize],
    synthesized: &[Synthesized<'_>],
    tracer: &Tracer,
    stats: &AcceptStats,
) -> Vec<(usize, Vec<Detection>, f64, f64)> {
    let handles: Vec<_> = synthesized
        .iter()
        .filter_map(|s| s.session.batch_validator(&s.top).map(|bv| (s.slug, bv)))
        .collect();
    let traced = tracer.enabled();
    let detectors: Vec<SyncValueDetector<'_>> = handles
        .iter()
        .map(|(slug, bv)| {
            let detector: Box<dyn Fn(&str) -> bool + Sync> = if traced {
                Box::new(move |v: &str| {
                    let t = Instant::now();
                    let verdict = bv.accepts(v);
                    stats
                        .ns
                        .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    stats.calls.fetch_add(1, Ordering::Relaxed);
                    verdict
                })
            } else {
                Box::new(move |v: &str| bv.accepts(v))
            };
            (*slug, detector)
        })
        .collect();
    tables
        .iter()
        .map(|&ti| {
            let first = ti * TABLE_COLUMNS;
            let table = &columns[first..(first + TABLE_COLUMNS).min(columns.len())];
            let ticks = cpu_ticks();
            let start = Instant::now();
            let found = tracer.span("tables.detect", None, ti as u64, |_| {
                detect_by_values_batched(table, &detectors, engine.pool())
            });
            let ms = ms_since(start);
            let steal = steal_share(ticks, cpu_ticks());
            let found = found
                .into_iter()
                .map(|d| Detection {
                    column: d.column + first,
                    slug: d.slug,
                })
                .collect();
            (ti, found, ms, steal)
        })
        .collect()
}

/// Verdicts of a rehydrated pack and of `Session::validate` on the held-out
/// values; returns the values on which they differ.
pub fn pack_mismatches(s: &mut Synthesized<'_>, holdout: &[String]) -> Result<Vec<String>, String> {
    let bytes = s.pack.to_bytes();
    let validator = Pack::from_bytes(&bytes)
        .and_then(|p| p.validator())
        .map_err(|e| format!("{}: pack does not rehydrate: {e}", s.slug))?;
    let top = s.top.clone();
    Ok(holdout
        .iter()
        .filter(|v| validator.accepts(v) != s.session.validate(&top, v))
        .cloned()
        .collect())
}

/// Each iteration detects one of this many interleaved slices of the
/// tables, so that synthesis, which is sampled once per iteration, gets
/// more samples per run while every table is still detected.
const DETECT_SLICES: usize = 2;
/// Set-ups per iteration: one takes about 40 ms, so a single sample per
/// iteration would leave `setup_s` a median of a handful of short samples.
const SETUP_REPS: usize = 4;

/// Run the `synth` workload: set up, synthesize all 15 types, then detect
/// a slice of the table corpus; repeat on the same inputs until the run
/// length is used up (and at least until every table was detected once).
pub fn run(args: &Args, run: &mut Run) -> Result<(), String> {
    let workers = available_parallelism();
    let tracer = Tracer::new(args.trace);
    let untraced = Tracer::new(false);

    let inputs = type_inputs(args.seed);
    let columns = table_columns(args.seed);
    let n_tables = columns.len().div_ceil(TABLE_COLUMNS);
    let table_values = |ti: usize| -> usize {
        let first = ti * TABLE_COLUMNS;
        columns[first..(first + TABLE_COLUMNS).min(columns.len())]
            .iter()
            .map(|c| c.values.len())
            .sum()
    };

    // Each sample with the steal share while it was taken.
    let mut setup_s: Vec<(f64, f64)> = Vec::new();
    let mut type_ms: Vec<Vec<(f64, f64)>> = vec![Vec::new(); inputs.len()];
    let mut table_ms: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_tables];
    let mut synth_s = Vec::new();
    let (mut traced_type_ms, mut plain_type_ms) = (vec![], vec![]);
    let mut first_ids: Option<Vec<String>> = None;
    let mut first_detections: Vec<Option<Vec<Detection>>> = vec![None; n_tables];
    let stats = AcceptStats::default();
    let mut traced_layers = TracedLayers::default();
    let ticks = cpu_ticks();
    let deadline = Instant::now() + std::time::Duration::from_secs(args.seconds);
    let mut iteration = 0;
    while iteration < DETECT_SLICES || Instant::now() < deadline {
        // Set-up is repeated every iteration, so its samples spread over
        // the run: the corpus and engine, the type inputs and the tables.
        // The last engine built is the one used.
        let mut built = None;
        for _ in 0..SETUP_REPS {
            let before = cpu_ticks();
            let t = Instant::now();
            let engine = engine(workers);
            let again = (type_inputs(args.seed), table_columns(args.seed));
            setup_s.push((t.elapsed().as_secs_f64(), steal_share(before, cpu_ticks())));
            run.outcome.check(
                again.0 == inputs
                    && again.1.len() == columns.len()
                    && again
                        .1
                        .iter()
                        .zip(&columns)
                        .all(|(a, b)| a.values == b.values),
                || "the same seed built different inputs".to_string(),
            );
            built = Some(engine);
        }
        let engine = built.expect("SETUP_REPS is at least 1");

        // A traced run alternates untraced and traced iterations, so that
        // the tracing overhead is measured under the same conditions.
        let traced = args.trace && iteration % 2 == 1;
        let tr = if traced { &tracer } else { &untraced };
        let t = Instant::now();
        let mut synthesized = Vec::with_capacity(inputs.len());
        for (k, input) in inputs.iter().enumerate() {
            run.outcome.attempted += 1;
            match synthesize(&engine, input, tr, None) {
                Some(s) => {
                    type_ms[k].push((s.ms, s.steal));
                    if traced {
                        &mut traced_type_ms
                    } else {
                        &mut plain_type_ms
                    }
                    .push(s.ms);
                    synthesized.push(s);
                }
                None => {
                    run.outcome.failed += 1;
                    run.outcome
                        .problems
                        .push(format!("{}: no pack", input.slug));
                }
            }
        }
        synth_s.push(t.elapsed().as_secs_f64());

        let slice: Vec<usize> = (iteration % DETECT_SLICES..n_tables)
            .step_by(DETECT_SLICES)
            .collect();
        let detected = detect_tables(&engine, &columns, &slice, &synthesized, tr, &stats);
        run.outcome.attempted += detected.len() as u64;

        // Output checks, outside the timed work.
        for (ti, found, ms, steal) in detected {
            table_ms[ti].push((ms, steal));
            if traced {
                traced_layers.detect_ms += ms;
                traced_layers.detections += found.len();
            }
            match &first_detections[ti] {
                None => first_detections[ti] = Some(found),
                Some(before) => run.outcome.check(before == &found, || {
                    format!("detections of table {ti} changed between iterations")
                }),
            }
        }
        for s in synthesized.iter_mut() {
            let input = inputs
                .iter()
                .find(|i| i.slug == s.slug)
                .expect("input of a synthesized type");
            match pack_mismatches(s, &input.holdout) {
                Ok(bad) if bad.is_empty() => {}
                Ok(bad) => {
                    run.outcome.failed += 1;
                    run.outcome.problems.push(format!(
                        "{}: rehydrated pack and Session::validate disagree on {bad:?}",
                        s.slug
                    ));
                }
                Err(e) => {
                    run.outcome.failed += 1;
                    run.outcome.problems.push(e);
                }
            }
        }
        let ids: Vec<String> = synthesized.iter().map(|s| s.pack.pack_id()).collect();
        match &first_ids {
            None => first_ids = Some(ids),
            Some(before) => run.outcome.check(&ids == before, || {
                format!("pack ids changed between iterations: {before:?} -> {ids:?}")
            }),
        }
        if iteration == 0 {
            let fuel: u64 = synthesized.iter().map(|s| s.work.fuel).sum();
            run.record.push(("session_fuel".into(), fuel.to_string()));
        }
        if traced && traced_layers.packs.is_empty() {
            traced_layers.work = synthesized.iter().map(|s| s.work).collect();
            traced_layers.packs = synthesized.iter().map(|s| s.pack.clone()).collect();
            traced_layers.rank_ms = synthesized.iter().map(|s| s.rank_ms).sum();
            traced_layers.export_ms = synthesized.iter().map(|s| s.export_ms).sum();
            traced_layers.ranked = synthesized.iter().map(|s| s.ranked).sum();
        }
        iteration += 1;
    }
    let rss = peak_rss_mb();
    let steal = steal_share(ticks, cpu_ticks());

    // Each type's and each table's median over its calm samples (see
    // `report::calm_medians`).
    let per_type = calm_medians(&type_ms);
    let per_table = calm_medians(&table_ms);
    let detect_s = per_table.iter().sum::<f64>() / 1e3;
    let corpus_values: usize = (0..n_tables).map(table_values).sum();
    let e2e = &mut run.e2e;
    e2e.set("setup_s", calm_medians(&[setup_s])[0], "s");
    e2e.set("peak_rss_mb", rss, "MB");
    e2e.set("synth_s", per_type.iter().sum::<f64>() / 1e3, "s");
    e2e.set(
        "detect_values_per_s",
        corpus_values as f64 / detect_s,
        "values/s",
    );
    e2e.set("detect_p50_ms", median(&per_table), "ms");

    let ids = first_ids.unwrap_or_default();
    let detections: usize = first_detections.iter().flatten().map(Vec::len).sum();
    let each = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let rec = &mut run.record;
    rec.push(("iterations".into(), iteration.to_string()));
    rec.push(("steal_share".into(), format!("{steal:.4}")));
    for (key, samples) in [
        ("calm_type_samples", &type_ms),
        ("calm_table_samples", &table_ms),
    ] {
        let steal: Vec<f64> = samples.iter().flatten().map(|s| s.1).collect();
        let limit = calm_limit(&steal);
        let calm = steal.iter().filter(|&&x| x <= limit).count();
        rec.push((
            key.into(),
            format!("{calm} of {} (steal <= {limit:.3})", steal.len()),
        ));
    }
    rec.push(("types".into(), inputs.len().to_string()));
    rec.push(("columns".into(), columns.len().to_string()));
    rec.push(("tables".into(), n_tables.to_string()));
    rec.push((
        "tables_detected".into(),
        table_ms.iter().map(Vec::len).sum::<usize>().to_string(),
    ));
    rec.push(("corpus_values".into(), corpus_values.to_string()));
    rec.push(("table_detect_s".into(), format!("{detect_s:.4}")));
    rec.push(("synth_s_each".into(), each(&synth_s)));
    rec.push((
        "synth_type_p50_ms".into(),
        format!("{:.3}", median(&per_type)),
    ));
    rec.push(("detections".into(), detections.to_string()));
    rec.push((
        "pack_digest".into(),
        format!("{:016x}", autotype_pack::fnv1a(ids.join(",").as_bytes())),
    ));
    rec.push(("cache_hit_rate".into(), "n/a".into()));
    rec.push(("probes_per_value".into(), "n/a".into()));

    if args.trace {
        let it = traced_layers;
        let l = &mut run.layers;
        l.set(
            "trace.overhead_ms",
            median(&traced_type_ms) - median(&plain_type_ms),
            "ms",
        );
        crate::layers::synthesis(&inputs, &it.work, &tracer, l, &mut run.outcome);
        l.set("rank.ms", it.rank_ms, "ms");
        l.set("rank.ranked", it.ranked as f64, "count");
        l.set("pack.export_ms", it.export_ms, "ms");
        let bytes: Vec<Vec<u8>> = it.packs.iter().map(Pack::to_bytes).collect();
        l.set(
            "pack.bytes",
            bytes.iter().map(Vec::len).sum::<usize>() as f64,
            "bytes",
        );
        let t = Instant::now();
        let validators: Result<Vec<_>, _> = bytes
            .iter()
            .map(|b| Pack::from_bytes(b).and_then(|p| p.validator()))
            .collect();
        l.set("pack.load_ms", ms_since(t), "ms");
        let validators = validators.map_err(|e| format!("pack does not load: {e}"))?;
        let mut holdout: Vec<String> = Vec::new();
        for input in &inputs {
            for v in &input.holdout {
                if !holdout.contains(v) {
                    holdout.push(v.clone());
                }
            }
        }
        let split = crate::replay::replay_probes(&it.packs, &validators, &holdout, &tracer);
        crate::layers::probes(&split, l, &mut run.outcome);
        let calls = stats.calls.load(Ordering::Relaxed) as f64;
        let ns = stats.ns.load(Ordering::Relaxed) as f64;
        l.set("tables.detect_ms", it.detect_ms, "ms");
        l.set("tables.cells", calls, "count");
        l.set("tables.detections", it.detections as f64, "count");
        l.set("core.batch_accept_us", ratio(ns, calls) / 1e3, "us");
        l.set("trace.spans", tracer.len() as f64, "count");
        crate::serve::write_spans(&tracer, args, run);
    }
    Ok(())
}

/// What the per-layer metrics take from the traced iterations: synthesis
/// figures from the first, table figures summed over all of them.
#[derive(Default)]
struct TracedLayers {
    work: Vec<SessionWork>,
    packs: Vec<Pack>,
    rank_ms: f64,
    export_ms: f64,
    ranked: usize,
    detect_ms: f64,
    detections: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_type_list_and_inputs() {
        let a = type_inputs(7);
        assert_eq!(a, type_inputs(7));
        assert_eq!(a.len(), PAPER_TYPE_COUNTS.len());
        let slugs: Vec<&str> = a.iter().map(|t| t.slug).collect();
        let expected: Vec<&str> = PAPER_TYPE_COUNTS.iter().map(|(s, _)| *s).collect();
        assert_eq!(slugs, expected);
        assert!(a
            .iter()
            .all(|t| t.positives.len() == POSITIVES && t.holdout.len() > HOLDOUT));
    }

    #[test]
    fn different_seed_different_values() {
        let a = type_inputs(7);
        let b = type_inputs(8);
        assert_ne!(a[0].positives, b[0].positives);
        assert_ne!(a[0].session_seed, b[0].session_seed);
        let (ta, tb) = (table_columns(7), table_columns(8));
        assert_eq!(ta.len(), tb.len());
        assert_ne!(ta[0].values, tb[0].values);
    }
}
