//! # autotype — program synthesis for type detection (SIGMOD 2018)
//!
//! The public facade of the reproduction: given a search keyword `N` and
//! positive examples `P` for a target type `T`, [`AutoType::session`] runs
//! the full pipeline of Definition 1 —
//!
//! 1. keyword search over the (synthetic) open-source universe, taking the
//!    union of top-k repositories from two complementary engines (§4.1);
//! 2. AST analysis for single-parameter candidate functions (§4.2);
//! 3. negative-example generation by the S1→S2→S3 mutation hierarchy,
//!    escalating until candidates separate `P` from `N` (Algorithm 2, §6);
//! 4. instrumented execution of every candidate on `P ∪ N`, with every
//!    package a repository imports installed up front (§4.2, §5.1);
//! 5. ranking by Best-k-Concise-DNF-Cover, or any of the baseline methods
//!    (§5.2, §8.1);
//! 6. synthesis of an executable validator from the expanded DNF-E
//!    (§5.3, Appendix G) plus semantic-transformation mining (§7.1).
//!
//! ```no_run
//! use autotype::{AutoType, AutoTypeConfig, NegativeMode};
//! use autotype_corpus::{build_corpus, CorpusConfig};
//! use autotype_rank::Method;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let corpus = build_corpus(&CorpusConfig::default());
//! let engine = AutoType::new(corpus, AutoTypeConfig::default());
//! let mut rng = StdRng::seed_from_u64(1);
//! let positives: Vec<String> = vec!["4147202263232835".into(), "371449635398431".into()];
//! let mut session = engine
//!     .session("credit card", &positives, NegativeMode::Hierarchy, &mut rng)
//!     .unwrap();
//! let ranked = session.rank(Method::DnfS);
//! println!("top function: {} — {}", ranked[0].label, ranked[0].explanation);
//! ```

use std::collections::BTreeSet;

use autotype_corpus::{Corpus, Quality};
use autotype_dnf::CoverParams;
pub use autotype_exec::ExecPool;
use autotype_exec::{
    analyze_module, featurize, probe_trace, Candidate, EntryPoint, Executor, Literal, PackageIndex,
    RunOutcome,
};
use autotype_lang::Program;
use autotype_negative::{generate_negatives, random_negatives, MutationConfig, Strategy};
pub use autotype_pack::{Pack, PackError, PackValidator};
use autotype_rank::{rank as rank_methods, FunctionTraces, Method};
use autotype_search::{union_top_k, Document, Field, Index, SearchEngine};
use autotype_synth::{
    explain_cover, harvest_transformations, SynthesizedValidator, Transformation,
};
use rand::rngs::StdRng;

/// Repositories taken from each search engine before the union. The paper
/// uses 40 against all of GitHub; this scales that to the synthetic corpus
/// (documented in DESIGN.md).
const TOP_K_REPOS: usize = 8;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct AutoTypeConfig {
    /// Execution fuel per run (the deterministic 30-second watchdog).
    pub fuel: u64,
    /// DNF cover parameters (paper: k = 3, θ = 0.3).
    pub cover: CoverParams,
    /// Mutation configuration for negative generation.
    pub mutation: MutationConfig,
    /// Worker threads for the candidate × example trace-collection loop.
    /// Defaults to the machine's available parallelism. `1` takes the exact
    /// serial code path (no threads); any other count produces bit-identical
    /// sessions — traces, rankings, fuel accounting, and figures do not
    /// depend on this knob.
    pub workers: usize,
}

impl Default for AutoTypeConfig {
    fn default() -> Self {
        AutoTypeConfig {
            fuel: 300_000,
            cover: CoverParams::default(),
            mutation: MutationConfig::default(),
            workers: autotype_exec::default_workers(),
        }
    }
}

/// How negative examples are produced (the Figure 10(c) ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegativeMode {
    /// The paper's S1→S2→S3 mutation hierarchy (Algorithm 2).
    Hierarchy,
    /// Random strings only.
    RandomOnly,
    /// No negatives: rank by how many positives share the same path.
    None,
}

/// A ranked, synthesized type-detection function.
#[derive(Debug, Clone)]
pub struct RankedFunction {
    /// Repository id in the corpus.
    pub repo: usize,
    /// Module (file) name inside the repository.
    pub file: String,
    /// How the function is invoked.
    pub entry: EntryPoint,
    /// Display label `file.entry`.
    pub label: String,
    /// Positive coverage (primary ranking score).
    pub score: f64,
    /// Negative coverage (tie-breaker).
    pub neg_fraction: f64,
    /// The synthesized validator (None for KW/LR rankings).
    pub validator: Option<SynthesizedValidator>,
    /// Human-readable concise DNF.
    pub explanation: String,
    /// Ground-truth intent of the file (the human judge `I(F)`).
    pub intent: Option<&'static str>,
    /// Ground-truth quality label.
    pub quality: Quality,
}

/// The engine: corpus + search index + package index + execution pool.
pub struct AutoType {
    corpus: Corpus,
    /// One index over the corpus; the GitHub and Bing engines are two
    /// weightings of it.
    index: Index,
    packages: PackageIndex,
    /// The trace-collection pool, shared by every session of this engine
    /// (evaluation drivers that loop over many types reuse it for free).
    pool: ExecPool,
    pub config: AutoTypeConfig,
}

/// One candidate discovered during a session.
struct SessionCandidate {
    repo: usize,
    file: String,
    /// Index of the executor (one per repository) the candidate runs on.
    slot: usize,
    candidate: Candidate,
}

/// One candidate's traces over a list of inputs: the full featurized trace
/// set and the black-box view, aligned with the inputs.
type CandidateTraces = (Vec<BTreeSet<Literal>>, Vec<BTreeSet<Literal>>);

/// Pair each candidate's positive traces with its negative traces.
fn function_traces(
    pos: impl IntoIterator<Item = CandidateTraces>,
    neg: Vec<CandidateTraces>,
) -> Vec<FunctionTraces> {
    pos.into_iter()
        .zip(neg)
        .map(|((pos, pos_bb), (neg, neg_bb))| FunctionTraces {
            pos,
            neg,
            pos_bb,
            neg_bb,
        })
        .collect()
}

/// A synthesis session: retrieved repositories, discovered candidates,
/// their traces over `P ∪ N`, and everything needed to rank and replay.
pub struct Session<'a> {
    engine: &'a AutoType,
    pub keyword: String,
    pub positives: Vec<String>,
    pub negatives: Vec<String>,
    /// Which mutation strategy produced the accepted negatives.
    pub strategy: Option<Strategy>,
    candidates: Vec<SessionCandidate>,
    /// Each candidate's traces, aligned with `candidates`.
    traces: Vec<FunctionTraces>,
    executors: Vec<Executor>,
    /// Total fuel consumed by all runs (the Figure 14 cost measure).
    pub fuel_spent: u64,
    /// Packages the session's executors installed when they were built.
    pub installs: usize,
}

/// Map a corpus to the per-repository search `Document` collection the
/// index holds (name / description / README / code text, weighted
/// differently per engine at query time).
fn corpus_documents(corpus: &Corpus) -> Vec<Document> {
    corpus
        .repositories
        .iter()
        .map(|r| Document {
            id: r.id,
            fields: vec![
                (Field::Name, r.name.clone()),
                (Field::Description, r.description.clone()),
                (Field::Readme, r.readme.clone()),
                (Field::Code, r.code_text()),
            ],
        })
        .collect()
}

impl AutoType {
    /// Index the corpus (one tokenizing pass on the calling thread), load
    /// its packages and start the execution pool of `config.workers`.
    pub fn new(corpus: Corpus, config: AutoTypeConfig) -> AutoType {
        let index = Index::build(&corpus_documents(&corpus));
        let pool = ExecPool::new(config.workers);
        let mut packages = PackageIndex::new();
        for (name, source) in &corpus.packages {
            packages.insert(name, source);
        }
        AutoType {
            corpus,
            index,
            packages,
            pool,
            config,
        }
    }

    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The engine's execution pool: sessions shard trace collection over
    /// it, and evaluation drivers schedule column detection through it
    /// (see `detect_by_values_batched`).
    pub fn pool(&self) -> &ExecPool {
        &self.pool
    }

    /// Keyword retrieval: union of top-k from both engines (§4.1).
    pub fn retrieve(&self, keyword: &str) -> Vec<usize> {
        union_top_k(
            &self.index,
            &[SearchEngine::GITHUB, SearchEngine::BING],
            keyword,
            TOP_K_REPOS,
        )
    }

    /// Build a synthesis session for a target type.
    ///
    /// Returns `None` when retrieval produced no candidate functions at
    /// all (nothing to rank — the "no relevant code" outcome).
    pub fn session(
        &self,
        keyword: &str,
        positives: &[String],
        negative_mode: NegativeMode,
        rng: &mut StdRng,
    ) -> Option<Session<'_>> {
        let repos = self.retrieve(keyword);
        let mut candidates = Vec::new();
        let mut executors: Vec<Executor> = Vec::new();
        let mut installs = 0;

        for &repo_id in &repos {
            let repo = self.corpus.repository(repo_id);
            let Ok(program) = repo.program() else {
                continue; // uncompilable repository
            };
            let exec = Executor::new(program, &self.packages, self.config.fuel);
            installs += exec.installs;
            let slot = executors.len();
            executors.push(exec);
            let program: &Program = executors[slot].program();
            for (file_idx, file) in program.files.iter().enumerate() {
                // Only the repository's own files are analyzed, not
                // installed packages.
                if repo.files.iter().all(|f| f.name != file.name) {
                    continue;
                }
                let (cands, _) = analyze_module(file_idx as u32, &file.module);
                for candidate in cands {
                    candidates.push(SessionCandidate {
                        repo: repo_id,
                        file: file.name.clone(),
                        slot,
                        candidate,
                    });
                }
            }
        }
        if candidates.is_empty() {
            return None;
        }

        let mut session = Session {
            engine: self,
            keyword: keyword.to_string(),
            positives: positives.to_vec(),
            negatives: Vec::new(),
            strategy: None,
            candidates,
            traces: Vec::new(),
            executors,
            fuel_spent: 0,
            installs,
        };
        session.generate_and_trace(negative_mode, rng);
        Some(session)
    }
}

impl<'a> Session<'a> {
    /// Run Algorithm 2: try mutation strategies in hierarchy order until
    /// some candidate separates P from N, then keep those traces.
    fn generate_and_trace(&mut self, mode: NegativeMode, rng: &mut StdRng) {
        let pos_traces = self.run_all(&self.positives.clone());
        match mode {
            NegativeMode::None => {
                self.traces = pos_traces
                    .into_iter()
                    .map(|(pos, pos_bb)| FunctionTraces {
                        pos,
                        pos_bb,
                        ..Default::default()
                    })
                    .collect();
            }
            NegativeMode::RandomOnly => {
                let per_pos = self.engine.config.mutation.per_positive;
                let negatives = random_negatives(self.positives.len() * per_pos, rng);
                let neg_traces = self.run_all(&negatives);
                self.negatives = negatives;
                self.traces = function_traces(pos_traces, neg_traces);
            }
            NegativeMode::Hierarchy => {
                for strategy in Strategy::HIERARCHY {
                    let negatives = generate_negatives(
                        &self.positives,
                        strategy,
                        &self.engine.config.mutation,
                        rng,
                    );
                    let neg_traces = self.run_all(&negatives);
                    let traces = function_traces(pos_traces.iter().cloned(), neg_traces);
                    // R ≠ ∅ check: does any candidate separate?
                    let separable = traces.iter().any(|t| {
                        let (input, _) = t.cover_input();
                        autotype_dnf::best_k_concise_cover(&input, &self.engine.config.cover)
                            .is_some_and(|c| c.pos_fraction() >= 0.95 && c.neg_fraction() <= 0.4)
                    });
                    self.negatives = negatives;
                    self.traces = traces;
                    if separable {
                        self.strategy = Some(strategy);
                        return;
                    }
                }
                // All strategies exhausted: keep S3's traces, no strategy
                // marked as accepted.
                self.strategy = None;
            }
        }
    }

    /// Execute every candidate on every input; returns per-candidate
    /// (full trace set, black-box trace set) pairs aligned with
    /// `self.candidates`. The black-box view records only the summarized
    /// final result (or escaping exception) — the RET baseline's input.
    ///
    /// Candidates are sharded one per job across the engine's
    /// [`ExecPool`], sharing their repository's executor (executors never
    /// change after they are built). Results come back in candidate order
    /// and `fuel_spent` is a sum, so the output is bit-identical for every
    /// worker count; one worker runs inline on the calling thread.
    fn run_all(&mut self, inputs: &[String]) -> Vec<CandidateTraces> {
        let packages = &self.engine.packages;
        let (candidates, executors) = (&self.candidates, &self.executors);
        let results =
            self.engine
                .pool
                .run_ordered((0..candidates.len()).collect(), |_, ci: usize| {
                    let sc = &candidates[ci];
                    let exec = &executors[sc.slot];
                    let mut fuel = 0u64;
                    let mut traces = CandidateTraces::default();
                    for input in inputs {
                        let outcome = exec.run(&sc.candidate, input, packages);
                        fuel += outcome.fuel_used;
                        record_run(&mut traces, &outcome);
                    }
                    (fuel, traces)
                });
        self.fuel_spent += results.iter().map(|(fuel, _)| fuel).sum::<u64>();
        results.into_iter().map(|(_, traces)| traces).collect()
    }

    /// Resolve a ranked function to `(candidate index, executor slot)`:
    /// the one lookup every replay path goes through. `None` when the
    /// function names no candidate of this session.
    fn resolve(&self, function: &RankedFunction) -> Option<(usize, usize)> {
        let ci = self.candidates.iter().position(|sc| {
            sc.repo == function.repo
                && sc.file == function.file
                && sc.candidate.entry == function.entry
        })?;
        Some((ci, self.candidates[ci].slot))
    }

    /// Number of discovered candidate functions.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Rank candidates with a method and synthesize validators.
    pub fn rank(&mut self, method: Method) -> Vec<RankedFunction> {
        // The no-negatives ablation: rank by the largest group of positives
        // sharing an identical trace.
        if self.negatives.is_empty() {
            return self.rank_without_negatives();
        }
        let documents = if method == Method::Kw {
            self.kw_documents()
        } else {
            Vec::new()
        };
        let ranked = rank_methods(
            method,
            &self.traces,
            documents,
            &self.keyword,
            &self.engine.config.cover,
        );
        ranked
            .into_iter()
            .map(|r| {
                let sc = &self.candidates[r.id];
                let repo = self.engine.corpus.repository(sc.repo);
                let validator = r
                    .dnf
                    .as_ref()
                    .map(|cover| SynthesizedValidator::from_cover(cover, &r.literals));
                let explanation = r
                    .dnf
                    .as_ref()
                    .map(|cover| explain_cover(cover, &r.literals))
                    .unwrap_or_default();
                RankedFunction {
                    repo: sc.repo,
                    file: sc.file.clone(),
                    entry: sc.candidate.entry.clone(),
                    label: format!("{}/{}.{}", repo.name, sc.file, sc.candidate.entry.label()),
                    score: r.score,
                    neg_fraction: r.neg_fraction,
                    validator,
                    explanation,
                    intent: repo.intent_of(&sc.file),
                    quality: repo.quality_of(&sc.file).unwrap_or(Quality::Unrelated),
                }
            })
            .collect()
    }

    /// Each candidate's KW document, aligned with `candidates`: its
    /// repository's name and description, its file name, its entry label
    /// and its file's source text. Only [`Method::Kw`] reads them.
    fn kw_documents(&self) -> Vec<String> {
        self.candidates
            .iter()
            .map(|sc| {
                let repo = self.engine.corpus.repository(sc.repo);
                let source = repo
                    .files
                    .iter()
                    .find(|f| f.name == sc.file)
                    .map_or("", |f| f.source.as_str());
                format!(
                    "{} {} {} {} {}",
                    repo.name,
                    repo.description,
                    sc.file,
                    sc.candidate.entry.label(),
                    source,
                )
            })
            .collect()
    }

    fn rank_without_negatives(&self) -> Vec<RankedFunction> {
        let mut scored: Vec<(usize, f64)> = self
            .traces
            .iter()
            .enumerate()
            .map(|(id, t)| {
                let mut counts: std::collections::HashMap<&BTreeSet<Literal>, usize> =
                    std::collections::HashMap::new();
                for trace in &t.pos {
                    *counts.entry(trace).or_default() += 1;
                }
                let max_share = counts.values().copied().max().unwrap_or(0);
                (id, max_share as f64 / t.pos.len().max(1) as f64)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored
            .into_iter()
            .map(|(id, score)| {
                let sc = &self.candidates[id];
                let repo = self.engine.corpus.repository(sc.repo);
                RankedFunction {
                    repo: sc.repo,
                    file: sc.file.clone(),
                    entry: sc.candidate.entry.clone(),
                    label: format!("{}/{}.{}", repo.name, sc.file, sc.candidate.entry.label()),
                    score,
                    neg_fraction: 0.0,
                    validator: None,
                    explanation: String::new(),
                    intent: repo.intent_of(&sc.file),
                    quality: repo.quality_of(&sc.file).unwrap_or(Quality::Unrelated),
                }
            })
            .collect()
    }

    /// Execute a ranked function's synthesized validator on a fresh input
    /// (Algorithm 3: run, trace, check `∧T(s) → DNF-E`).
    pub fn validate(&mut self, function: &RankedFunction, input: &str) -> bool {
        let (Some(validator), Some((ci, slot))) = (&function.validator, self.resolve(function))
        else {
            return false;
        };
        let exec = &self.executors[slot];
        let (trace, fuel_used) =
            probe_trace(exec, &self.candidates[ci].candidate, input, exec.fuel());
        self.fuel_spent += fuel_used;
        validator.accepts(&trace)
    }

    /// The detector for a ranked function: its [exported](Session::export_pack)
    /// pack rehydrated in memory — the same thread-safe [`PackValidator`]
    /// the serve runtime loads from disk. The pack's slug (the session
    /// keyword) and method are metadata only and never affect a verdict.
    /// `None` exactly when `export_pack` is, so callers can skip those.
    pub fn batch_validator(&self, function: &RankedFunction) -> Option<PackValidator> {
        let pack = self.export_pack(function, &self.keyword, Method::DnfS)?;
        Some(pack.validator().expect("an exported pack rehydrates"))
    }

    /// Export a ranked function's synthesized validator as a portable
    /// detector [`Pack`] — the offline artifact of the offline-synthesis /
    /// online-serving split. The pack snapshots the DNF-E, the candidate's
    /// entry point, the executor's complete program source (in file-id
    /// order, so every trace `SiteId` resolves identically at load time),
    /// and the pip index the snapshot was resolved over, plus ranking
    /// metadata and provenance.
    ///
    /// Returns `None` for functions without a synthesized validator (KW/LR
    /// rankings) or whose candidate no longer resolves — the same cases
    /// where [`validate`](Session::validate) answers `false` for every
    /// input. A rehydrated pack validator's verdicts are bit-identical to
    /// [`validate`](Session::validate)'s.
    pub fn export_pack(
        &self,
        function: &RankedFunction,
        slug: &str,
        method: Method,
    ) -> Option<Pack> {
        let validator = function.validator.as_ref()?;
        let (ci, slot) = self.resolve(function)?;
        let sc = &self.candidates[ci];
        let exec = &self.executors[slot];
        let repo = self.engine.corpus.repository(sc.repo);
        // Snapshot every program file's source in file-id order. The
        // executor starts from the repository's own files and only ever
        // adds packages from the engine's index, so every file is one or
        // the other.
        let files = exec
            .program()
            .files
            .iter()
            .map(|file| {
                let source = repo
                    .files
                    .iter()
                    .find(|f| f.name == file.name)
                    .map(|f| f.source.clone())
                    .or_else(|| self.engine.packages.get(&file.name).map(str::to_string))
                    .expect("a program file is a repository file or an installed package");
                (file.name.clone(), source)
            })
            .collect();
        Some(Pack {
            slug: slug.to_string(),
            keyword: self.keyword.clone(),
            label: function.label.clone(),
            repo_name: repo.name.clone(),
            file: function.file.clone(),
            strategy: self.strategy.map(|s| s.to_string()).unwrap_or_default(),
            method: method.name().to_string(),
            score: function.score,
            neg_fraction: function.neg_fraction,
            explanation: function.explanation.clone(),
            fuel: self.engine.config.fuel,
            installs: exec.installs as u64,
            candidate_file: sc.candidate.file,
            entry: sc.candidate.entry.clone(),
            files,
            packages: self
                .engine
                .packages
                .iter()
                .map(|(n, s)| (n.to_string(), s.to_string()))
                .collect(),
            dnf_e: validator.dnf_e.clone(),
        })
    }

    /// [`export_pack`](Session::export_pack) straight to disk.
    pub fn save_pack(
        &self,
        function: &RankedFunction,
        slug: &str,
        method: Method,
        path: &std::path::Path,
    ) -> Result<Pack, PackError> {
        let pack = self.export_pack(function, slug, method).ok_or_else(|| {
            PackError::Malformed(format!(
                "{}: no synthesized validator to export",
                function.label
            ))
        })?;
        pack.save(path)?;
        Ok(pack)
    }

    /// Run a ranked function directly and report whether it *accepted* the
    /// input (completed without an exception and did not return `False`) —
    /// the acceptance notion used to unit-test functions that were ranked
    /// without a synthesized DNF (the KW/LR baselines).
    pub fn executes_ok(&mut self, function: &RankedFunction, input: &str) -> bool {
        let Some((ci, slot)) = self.resolve(function) else {
            return false;
        };
        let outcome =
            self.executors[slot].run(&self.candidates[ci].candidate, input, &self.engine.packages);
        self.fuel_spent += outcome.fuel_used;
        !matches!(
            outcome.result,
            Ok(autotype_lang::Value::Bool(false)) | Err(_)
        )
    }

    /// Mine semantic transformations from a ranked function over the
    /// session's positive examples (§7.1).
    pub fn transformations(&mut self, function: &RankedFunction) -> Vec<Transformation> {
        let Some((ci, slot)) = self.resolve(function) else {
            return Vec::new();
        };
        let harvests: Vec<Vec<(String, String)>> = self
            .positives
            .iter()
            .map(|p| {
                let outcome = self.executors[slot].run(
                    &self.candidates[ci].candidate,
                    p,
                    &self.engine.packages,
                );
                self.fuel_spent += outcome.fuel_used;
                outcome.harvest
            })
            .collect();
        harvest_transformations(&harvests, true)
    }
}

/// Append one run to a candidate's traces: the featurized full trace and
/// the black-box view holding only the run's black-box literal.
fn record_run(traces: &mut CandidateTraces, outcome: &RunOutcome) {
    traces.0.push(featurize(&outcome.trace));
    traces.1.push(BTreeSet::from([outcome.black_box_literal()]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_corpus::{build_corpus, CorpusConfig};
    use autotype_typesys::by_slug;
    use rand::SeedableRng;

    fn engine() -> AutoType {
        AutoType::new(
            build_corpus(&CorpusConfig::default()),
            AutoTypeConfig::default(),
        )
    }

    fn positives(slug: &str, n: usize, seed: u64) -> Vec<String> {
        let ty = by_slug(slug).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        ty.examples(&mut rng, n)
    }

    #[test]
    fn credit_card_pipeline_end_to_end() {
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(42);
        let pos = positives("creditcard", 20, 1);
        let mut session = engine
            .session("credit card", &pos, NegativeMode::Hierarchy, &mut rng)
            .expect("session");
        // Checksum types separate already at S1 (§6).
        assert_eq!(session.strategy, Some(Strategy::S1));
        let ranked = session.rank(Method::DnfS);
        assert!(!ranked.is_empty());
        let top = &ranked[0];
        assert_eq!(
            top.intent,
            Some("creditcard"),
            "top-1 must be relevant: {}",
            top.label
        );
        assert!(top.score > 0.9, "top-1 score {}", top.score);
        // The synthesized validator detects fresh positives and rejects
        // corrupted ones.
        let fresh = positives("creditcard", 5, 77);
        for card in &fresh {
            assert!(session.validate(&top.clone(), card), "rejects {card}");
        }
        assert!(!session.validate(&top.clone(), "4147202263232836"));
        assert!(!session.validate(&top.clone(), "not a card"));
    }

    #[test]
    fn ipv6_escalates_to_s2() {
        // Example 6 of the paper: S1 keeps IPv6 valid; S2 breaks the colon
        // structure and is the accepted strategy.
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(11);
        let pos = positives("ipv6", 20, 2);
        let mut session = engine
            .session("IPv6", &pos, NegativeMode::Hierarchy, &mut rng)
            .expect("session");
        assert_eq!(session.strategy, Some(Strategy::S2));
        let ranked = session.rank(Method::DnfS);
        assert_eq!(ranked[0].intent, Some("ipv6"), "{}", ranked[0].label);
    }

    #[test]
    fn transformations_include_card_brand() {
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(4);
        // Visa + Mastercard + Amex mix so the brand column has entropy.
        let pos = positives("creditcard", 20, 3);
        let mut session = engine
            .session("credit card", &pos, NegativeMode::Hierarchy, &mut rng)
            .unwrap();
        let ranked = session.rank(Method::DnfS);
        let class_fn = ranked
            .iter()
            .find(|f| f.label.contains("CreditCard"))
            .cloned();
        if let Some(f) = class_fn {
            let transforms = session.transformations(&f);
            assert!(
                transforms.iter().any(|t| t.name.contains("card_brand")),
                "harvested: {:?}",
                transforms.iter().map(|t| &t.name).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn keyword_retrieval_finds_type_repositories() {
        let engine = engine();
        let repos = engine.retrieve("ISBN");
        assert!(repos
            .iter()
            .any(|&r| engine.corpus.repository(r).name.starts_with("isbn")));
    }

    #[test]
    fn no_code_types_yield_no_relevant_functions() {
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(8);
        let pos = positives("lcc", 10, 5);
        // Retrieval may hit distractor repos; ranking must not produce a
        // relevant (intent-matching) top function.
        if let Some(mut session) = engine.session(
            "Library of Congress Classification",
            &pos,
            NegativeMode::Hierarchy,
            &mut rng,
        ) {
            let ranked = session.rank(Method::DnfS);
            assert!(ranked.iter().all(|f| f.intent != Some("lcc")));
        }
    }
}
