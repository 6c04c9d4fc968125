//! Replays that split end-to-end work into layers through public APIs.
//!
//! * The synthesis replay repeats what `AutoType::session` does for one
//!   type — retrieval, parsing, candidate analysis, negative generation,
//!   traced runs, featurization and the separability cover — serially and
//!   with the same seed, timing each call. It must do the same work as the
//!   session it shadows: equal fuel, candidates and installs.
//! * The probe replay rebuilds each pack's executor from the pack's public
//!   fields and splits every probe into run, featurize, DNF-E check and
//!   reset. Each replayed verdict must equal `PackValidator`'s.

use std::collections::BTreeSet;
use std::time::Instant;

use autotype::{AutoType, Pack, PackValidator};
use autotype_dnf::best_k_concise_cover;
use autotype_exec::{analyze_module, featurize, Candidate, Executor, Literal, PackageIndex};
use autotype_lang::{Program, SiteId, ValueSummary};
use autotype_negative::{generate_negatives, Strategy};
use autotype_rank::FunctionTraces;
use autotype_synth::SynthesizedValidator;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::{SpanId, Tracer};
use crate::synth::TypeInput;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Per-layer totals of the synthesis replay, summed over types.
#[derive(Debug, Default, Clone)]
pub struct SynthSplit {
    pub search_ms: f64,
    pub search_repos: u64,
    pub lang_parse_ms: f64,
    pub lang_files: u64,
    /// Static dependency installs plus candidate analysis.
    pub exec_analyze_ms: f64,
    pub exec_candidates: u64,
    pub exec_run_ms: f64,
    pub exec_runs: u64,
    pub exec_run_errors: u64,
    pub exec_fuel: u64,
    pub exec_installs: u64,
    pub exec_featurize_ms: f64,
    pub exec_literals: u64,
    pub negative_ms: f64,
    pub negative_rounds: u64,
    pub negative_examples: u64,
    pub dnf_cover_ms: f64,
    pub dnf_cover_calls: u64,
}

impl SynthSplit {
    /// Time spent in the layers a session calls (everything replayed).
    pub fn children_ms(&self) -> f64 {
        self.search_ms
            + self.lang_parse_ms
            + self.exec_analyze_ms
            + self.exec_run_ms
            + self.exec_featurize_ms
            + self.negative_ms
            + self.dnf_cover_ms
    }

    fn add(&mut self, o: &SynthSplit) {
        self.search_ms += o.search_ms;
        self.search_repos += o.search_repos;
        self.lang_parse_ms += o.lang_parse_ms;
        self.lang_files += o.lang_files;
        self.exec_analyze_ms += o.exec_analyze_ms;
        self.exec_candidates += o.exec_candidates;
        self.exec_run_ms += o.exec_run_ms;
        self.exec_runs += o.exec_runs;
        self.exec_run_errors += o.exec_run_errors;
        self.exec_fuel += o.exec_fuel;
        self.exec_installs += o.exec_installs;
        self.exec_featurize_ms += o.exec_featurize_ms;
        self.exec_literals += o.exec_literals;
        self.negative_ms += o.negative_ms;
        self.negative_rounds += o.negative_rounds;
        self.negative_examples += o.negative_examples;
        self.dnf_cover_ms += o.dnf_cover_ms;
        self.dnf_cover_calls += o.dnf_cover_calls;
    }
}

/// The session accounting a replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionWork {
    pub fuel: u64,
    pub candidates: usize,
    pub installs: usize,
}

type TracePairs = Vec<(Vec<BTreeSet<Literal>>, Vec<BTreeSet<Literal>>)>;

/// The package index every engine builds from its corpus.
pub fn package_index(engine: &AutoType) -> PackageIndex {
    let mut packages = PackageIndex::new();
    for (name, source) in &engine.corpus().packages {
        packages.insert(name, source);
    }
    packages
}

/// Replay one type's session serially; returns the split and the work done.
pub fn replay_session(
    engine: &AutoType,
    packages: &PackageIndex,
    input: &TypeInput,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (SynthSplit, SessionWork) {
    let mut split = SynthSplit::default();
    let corpus = engine.corpus();

    let t = Instant::now();
    let repos = tracer.span("search.retrieve", parent, 0, |_| {
        engine.retrieve(input.keyword)
    });
    split.search_ms += ms_since(t);
    split.search_repos += repos.len() as u64;

    let mut executors: Vec<Executor> = Vec::new();
    let mut candidates: Vec<(usize, Candidate)> = Vec::new();
    let mut installs = 0usize;
    for &repo_id in &repos {
        let repo = corpus.repository(repo_id);
        let t = Instant::now();
        let program = tracer.span("lang.parse", parent, 0, |_| repo.program());
        split.lang_parse_ms += ms_since(t);
        let Ok(program) = program else {
            continue;
        };
        split.lang_files += repo.files.len() as u64;
        let t = Instant::now();
        tracer.span("exec.analyze", parent, 0, |_| {
            let exec = Executor::new(program, packages, engine.config.fuel);
            installs += exec.installs;
            let slot = executors.len();
            for (file_idx, file) in exec.program().files.iter().enumerate() {
                if repo.files.iter().all(|f| f.name != file.name) {
                    continue;
                }
                let (found, _) = analyze_module(file_idx as u32, &file.module);
                candidates.extend(found.into_iter().map(|c| (slot, c)));
            }
            executors.push(exec);
        });
        split.exec_analyze_ms += ms_since(t);
    }
    split.exec_candidates += candidates.len() as u64;
    if candidates.is_empty() {
        return (
            split,
            SessionWork {
                fuel: 0,
                candidates: 0,
                installs,
            },
        );
    }

    let mut fuel = 0u64;
    let mut run_all = |inputs: &[String], split: &mut SynthSplit| -> TracePairs {
        let mut out = TracePairs::with_capacity(candidates.len());
        for (slot, candidate) in &candidates {
            let exec = &mut executors[*slot];
            let mut full = Vec::with_capacity(inputs.len());
            let mut black_box = Vec::with_capacity(inputs.len());
            tracer.span("exec.trace", parent, 0, |_| {
                for input in inputs {
                    let t = Instant::now();
                    let outcome = exec.run(candidate, input, packages);
                    split.exec_run_ms += ms_since(t);
                    split.exec_runs += 1;
                    split.exec_run_errors += u64::from(outcome.result.is_err());
                    fuel += outcome.fuel_used;
                    installs = installs.max(exec.installs);
                    let t = Instant::now();
                    let trace = featurize(&outcome.trace);
                    let bb: BTreeSet<Literal> = [result_literal(&outcome.result)].into();
                    split.exec_featurize_ms += ms_since(t);
                    split.exec_literals += trace.len() as u64;
                    full.push(trace);
                    black_box.push(bb);
                }
            });
            out.push((full, black_box));
        }
        out
    };

    let positives = run_all(&input.positives, &mut split);
    let mut rng = StdRng::seed_from_u64(input.session_seed);
    for strategy in Strategy::HIERARCHY {
        let t = Instant::now();
        let negatives = tracer.span("negative.generate", parent, 0, |_| {
            generate_negatives(
                &input.positives,
                strategy,
                &engine.config.mutation,
                &mut rng,
            )
        });
        split.negative_ms += ms_since(t);
        split.negative_rounds += 1;
        split.negative_examples += negatives.len() as u64;
        let negative_traces = run_all(&negatives, &mut split);
        let traces: Vec<FunctionTraces> = positives
            .iter()
            .cloned()
            .zip(negative_traces)
            .map(|((pos, pos_bb), (neg, neg_bb))| FunctionTraces {
                pos,
                neg,
                pos_bb,
                neg_bb,
            })
            .collect();
        let t = Instant::now();
        let separable = tracer.span("dnf.cover", parent, 0, |_| {
            traces.iter().any(|tr| {
                split.dnf_cover_calls += 1;
                let (cover_input, _) = tr.cover_input();
                best_k_concise_cover(&cover_input, &engine.config.cover)
                    .is_some_and(|c| c.pos_fraction() >= 0.95 && c.neg_fraction() <= 0.4)
            })
        });
        split.dnf_cover_ms += ms_since(t);
        if separable {
            break;
        }
    }
    split.exec_fuel += fuel;
    split.exec_installs += installs as u64;
    let work = SessionWork {
        fuel,
        candidates: candidates.len(),
        installs,
    };
    (split, work)
}

/// The synthetic black-box literal every probe trace carries: the run's
/// summarized return value, or the exception that escaped it.
fn result_literal(result: &Result<autotype_lang::Value, autotype_lang::PyError>) -> Literal {
    match result {
        Ok(value) => Literal::Ret {
            site: SiteId::new(u32::MAX, 0),
            value: ValueSummary::of(value),
        },
        Err(e) => Literal::Exception {
            kind: e.kind.clone(),
        },
    }
}

/// Accumulates replays over several types.
#[derive(Debug, Default)]
pub struct SynthReplay {
    pub split: SynthSplit,
    /// Serial session wall time minus its replayed children, summed.
    pub session_self_ms: f64,
    /// Types whose replay did different work than the session.
    pub unfaithful: Vec<String>,
}

impl SynthReplay {
    /// Replay one type and compare against the session's own accounting.
    /// `serial_session_ms` is the same session timed on a one-worker
    /// engine, so that session time and replay time are both serial.
    pub fn add(
        &mut self,
        slug: &str,
        split: SynthSplit,
        replayed: SessionWork,
        expected: SessionWork,
        serial_session_ms: f64,
    ) {
        if replayed != expected {
            self.unfaithful.push(format!(
                "{slug}: replay {replayed:?} != session {expected:?}"
            ));
        }
        self.session_self_ms += serial_session_ms - split.children_ms();
        self.split.add(&split);
    }
}

/// Per-probe timings of the probe replay, in microseconds.
#[derive(Debug, Default)]
pub struct ProbeSplit {
    pub parse_ms: f64,
    pub files: u64,
    pub lease_clone_us: Vec<f64>,
    pub run_us: Vec<f64>,
    pub featurize_us: Vec<f64>,
    pub dnf_check_us: Vec<f64>,
    pub reset_us: Vec<f64>,
    /// run + featurize + check + reset of each probe.
    pub probe_us: Vec<f64>,
    pub probes: u64,
    pub accepts: u64,
    pub fuel: u64,
    /// Probes whose verdict or fuel differs from `PackValidator`'s.
    pub mismatches: Vec<String>,
}

struct ReplayPack {
    packages: PackageIndex,
    candidate: Candidate,
    validator: SynthesizedValidator,
    slot: Executor,
    base_files: usize,
    base_installs: usize,
}

/// Rebuild every pack's probe executor from its public fields, then probe
/// each value down the priority order until a pack accepts (the
/// single-value detection order), checking each verdict against the
/// rehydrated `PackValidator`.
pub fn replay_probes(
    packs: &[Pack],
    validators: &[PackValidator],
    values: &[String],
    tracer: &Tracer,
) -> ProbeSplit {
    let mut split = ProbeSplit::default();
    let mut replays = Vec::with_capacity(packs.len());
    for pack in packs {
        let t = Instant::now();
        let mut program = Program::new();
        for (name, source) in &pack.files {
            if let Err(e) = program.add_file(name, source) {
                split
                    .mismatches
                    .push(format!("{}: {name} does not parse: {e}", pack.slug));
            }
        }
        split.parse_ms += ms_since(t);
        split.files += pack.files.len() as u64;
        let mut packages = PackageIndex::new();
        for (name, source) in &pack.packages {
            packages.insert(name, source);
        }
        let exec = Executor::from_snapshot(program, pack.fuel, pack.installs as usize);
        let t = Instant::now();
        let slot = exec.clone();
        split.lease_clone_us.push(us_since(t));
        replays.push(ReplayPack {
            packages,
            candidate: Candidate {
                file: pack.candidate_file,
                entry: pack.entry.clone(),
            },
            validator: SynthesizedValidator {
                dnf_e: pack.dnf_e.clone(),
            },
            base_files: slot.program().files.len(),
            base_installs: slot.installs,
            slot,
        });
    }
    for (vi, value) in values.iter().enumerate() {
        for (pi, r) in replays.iter_mut().enumerate() {
            let (verdict, fuel) = tracer.span("pack.probe", None, vi as u64, |_| {
                let t = Instant::now();
                let outcome = r.slot.run(&r.candidate, value, &r.packages);
                let run_us = us_since(t);
                let t = Instant::now();
                let mut trace = featurize(&outcome.trace);
                trace.insert(result_literal(&outcome.result));
                let featurize_us = us_since(t);
                let t = Instant::now();
                let verdict = r.validator.accepts(&trace);
                let check_us = us_since(t);
                let t = Instant::now();
                r.slot.reset_snapshot(r.base_files, r.base_installs);
                let reset_us = us_since(t);
                split.run_us.push(run_us);
                split.featurize_us.push(featurize_us);
                split.dnf_check_us.push(check_us);
                split.reset_us.push(reset_us);
                split
                    .probe_us
                    .push(run_us + featurize_us + check_us + reset_us);
                (verdict, outcome.fuel_used)
            });
            split.probes += 1;
            split.accepts += u64::from(verdict);
            split.fuel += fuel;
            let expected = validators[pi].accepts_with_fuel(value);
            if (verdict, fuel) != expected {
                split.mismatches.push(format!(
                    "{} on {value:?}: replay ({verdict}, fuel {fuel}) != pack {expected:?}",
                    packs[pi].slug
                ));
            }
            if verdict {
                break;
            }
        }
    }
    split
}
