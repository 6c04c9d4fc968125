//! The per-layer metrics of a traced run, named after the workspace
//! crates. Every traced run prints all of them; a layer the workload does
//! not reach reads 0 (see `perfbench/LAYERS.md` for which workload reaches
//! which layer and which end-to-end metric each should move).

use std::time::Instant;

use autotype::NegativeMode;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::replay::{self, ProbeSplit, SessionWork, SynthReplay};
use crate::report::{mean, percentile, ratio, Metrics, Outcome};
use crate::spans::Tracer;
use crate::synth::{self, TypeInput};

/// Every per-layer metric with its unit, in print order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("search.retrieve_ms", "ms"),
    ("search.repos", "count"),
    ("lang.parse_ms", "ms"),
    ("lang.files", "count"),
    ("exec.analyze_ms", "ms"),
    ("exec.candidates", "count"),
    ("exec.run_ms", "ms"),
    ("exec.runs", "count"),
    ("exec.fuel", "count"),
    ("exec.installs", "count"),
    ("exec.run_error_ratio", "ratio"),
    ("exec.featurize_ms", "ms"),
    ("exec.literals_per_trace", "count"),
    ("negative.generate_ms", "ms"),
    ("negative.rounds", "count"),
    ("negative.examples", "count"),
    ("dnf.cover_ms", "ms"),
    ("dnf.cover_calls", "count"),
    ("rank.ms", "ms"),
    ("rank.ranked", "count"),
    ("core.session_self_ms", "ms"),
    ("core.batch_accept_us", "us"),
    ("tables.detect_ms", "ms"),
    ("tables.cells", "count"),
    ("tables.detections", "count"),
    ("pack.export_ms", "ms"),
    ("pack.bytes", "bytes"),
    ("pack.load_ms", "ms"),
    ("pack.lease_clone_us", "us"),
    ("pack.executors_reused", "count"),
    ("pack.executors_cloned", "count"),
    ("pack.reuse_ratio", "ratio"),
    ("pack.probe_us_p50", "us"),
    ("pack.probe_us_p99", "us"),
    ("pack.fuel_per_probe", "count"),
    ("pack.accept_ratio", "ratio"),
    ("exec.probe_run_us", "us"),
    ("exec.probe_featurize_us", "us"),
    ("synth.dnf_check_us", "us"),
    ("exec.reset_us", "us"),
    ("serve.runtime.detect_us_p50", "us"),
    ("serve.runtime.detect_us_p99", "us"),
    ("serve.runtime.probes_issued", "count"),
    ("serve.runtime.probes_saved", "count"),
    ("serve.runtime.saved_ratio", "ratio"),
    ("serve.runtime.probes_per_value", "count"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.entries", "count"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.put_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.json.bytes", "bytes"),
    ("serve.http.overhead_us", "us"),
    ("serve.http.connections", "count"),
    ("serve.http.shed", "count"),
    ("serve.http.errors", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// All per-layer metrics at 0, to be overwritten by what a workload reaches.
pub fn zeroed() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in LAYER_METRICS {
        m.set(name, 0.0, unit);
    }
    m
}

/// The synthesis split: for each type, time the session on a one-worker
/// engine (so that session time and replay time are both serial), replay
/// it, and require the replay to do the work the measured session did.
pub fn synthesis(
    inputs: &[TypeInput],
    work: &[SessionWork],
    tracer: &Tracer,
    layers: &mut Metrics,
    outcome: &mut Outcome,
) {
    let engine = synth::engine(1);
    let packages = replay::package_index(&engine);
    let mut acc = SynthReplay::default();
    for (input, expected) in inputs.iter().zip(work) {
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(input.session_seed);
        let serial = engine.session(
            input.keyword,
            &input.positives,
            NegativeMode::Hierarchy,
            &mut rng,
        );
        let serial_ms = t.elapsed().as_secs_f64() * 1e3;
        let serial_fuel = serial.map(|s| s.fuel_spent);
        outcome.check(serial_fuel == Some(expected.fuel), || {
            format!(
                "{}: one-worker session fuel {serial_fuel:?} != measured {}",
                input.slug, expected.fuel
            )
        });
        let (split, replayed) = tracer.span("replay.type", None, 0, |id| {
            replay::replay_session(&engine, &packages, input, tracer, id)
        });
        acc.add(input.slug, split, replayed, *expected, serial_ms);
    }
    outcome.check(acc.unfaithful.is_empty(), || {
        format!(
            "synthesis replay is not faithful: {}",
            acc.unfaithful.join("; ")
        )
    });
    let s = &acc.split;
    layers.set("search.retrieve_ms", s.search_ms, "ms");
    layers.set("search.repos", s.search_repos as f64, "count");
    layers.set("lang.parse_ms", s.lang_parse_ms, "ms");
    layers.set("lang.files", s.lang_files as f64, "count");
    layers.set("exec.analyze_ms", s.exec_analyze_ms, "ms");
    layers.set("exec.candidates", s.exec_candidates as f64, "count");
    layers.set("exec.run_ms", s.exec_run_ms, "ms");
    layers.set("exec.runs", s.exec_runs as f64, "count");
    layers.set("exec.fuel", s.exec_fuel as f64, "count");
    layers.set("exec.installs", s.exec_installs as f64, "count");
    layers.set(
        "exec.run_error_ratio",
        ratio(s.exec_run_errors as f64, s.exec_runs as f64),
        "ratio",
    );
    layers.set("exec.featurize_ms", s.exec_featurize_ms, "ms");
    layers.set(
        "exec.literals_per_trace",
        ratio(s.exec_literals as f64, s.exec_runs as f64),
        "count",
    );
    layers.set("negative.generate_ms", s.negative_ms, "ms");
    layers.set("negative.rounds", s.negative_rounds as f64, "count");
    layers.set("negative.examples", s.negative_examples as f64, "count");
    layers.set("dnf.cover_ms", s.dnf_cover_ms, "ms");
    layers.set("dnf.cover_calls", s.dnf_cover_calls as f64, "count");
    layers.set("core.session_self_ms", acc.session_self_ms, "ms");
}

/// The probe split. Pack parsing counts towards `lang`.
pub fn probes(split: &ProbeSplit, layers: &mut Metrics, outcome: &mut Outcome) {
    outcome.check(split.mismatches.is_empty(), || {
        format!(
            "probe replay disagrees with PackValidator: {}",
            split
                .mismatches
                .iter()
                .take(4)
                .cloned()
                .collect::<Vec<_>>()
                .join("; ")
        )
    });
    let add = |layers: &mut Metrics, name: &str, v: f64, unit: &'static str| {
        let base = layers.get(name).unwrap_or(0.0);
        layers.set(name, base + v, unit);
    };
    add(layers, "lang.parse_ms", split.parse_ms, "ms");
    add(layers, "lang.files", split.files as f64, "count");
    layers.set("pack.lease_clone_us", mean(&split.lease_clone_us), "us");
    layers.set("pack.probe_us_p50", percentile(&split.probe_us, 50.0), "us");
    layers.set("pack.probe_us_p99", percentile(&split.probe_us, 99.0), "us");
    layers.set(
        "pack.fuel_per_probe",
        ratio(split.fuel as f64, split.probes as f64),
        "count",
    );
    layers.set(
        "pack.accept_ratio",
        ratio(split.accepts as f64, split.probes as f64),
        "ratio",
    );
    layers.set("exec.probe_run_us", mean(&split.run_us), "us");
    layers.set("exec.probe_featurize_us", mean(&split.featurize_us), "us");
    layers.set("synth.dnf_check_us", mean(&split.dnf_check_us), "us");
    layers.set("exec.reset_us", mean(&split.reset_us), "us");
}
