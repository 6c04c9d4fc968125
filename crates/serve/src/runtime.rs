//! The read-only detection runtime: a fixed, priority-ordered set of
//! rehydrated detector packs, a shared execution pool, a verdict cache,
//! leased probe executors, and live metrics.
//!
//! ## Semantics
//!
//! Detection follows the evaluation driver's contract exactly
//! (`autotype_tables::detect_by_values_mut` and the batched variant):
//! packs are scanned in **priority order** — lexicographic pack-file order
//! at load time — and the **first** pack that accepts a value (or whose
//! per-column accept fraction clears `VALUE_THRESHOLD`) wins. Verdicts are
//! pure functions of `(pack, value)` (leased executors are rolled back to
//! the pack snapshot after every probe), so the cache, the pool, and the
//! scheduler are all transparent: any worker count, any cache state, and
//! any probe order produce bit-identical answers.
//!
//! ## Lazy tiered scheduling
//!
//! First-match-wins makes most of the eager `value × pack` matrix dead
//! work: once pack 0 accepts a value, packs 1..N can never be consulted
//! for it. The scheduler therefore probes **one pack tier at a time**
//! across all still-unresolved values (each tier is one
//! [`ExecPool::run_ordered`] fan-out), drops resolved values, and advances
//! to the next tier. Columns additionally stop a tier's wave as soon as
//! the accept count either mathematically clears `VALUE_THRESHOLD` or can
//! no longer reach it. Probe purity is what makes this safe: skipping a
//! cell the merge would have discarded anyway changes no verdict, only the
//! probe count — exported as `autotype_probes_saved_total`. The serial
//! full-matrix oracle the scheduler is checked against lives in
//! `tests/lazy_eager.rs`.
//!
//! ## Per-request fuel ceilings
//!
//! Every `detect_*_with` entry point takes an optional `max_fuel`, clamped
//! per pack to `min(max_fuel, pack.fuel)`. A ceiling **below** a pack's
//! own budget changes what a verdict means (a long-running probe exhausts
//! early and rejects), so capped probes bypass the `(pack, value)`-keyed
//! cache in both directions — they neither read stale full-budget verdicts
//! nor poison the cache with starved ones.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;

use autotype_exec::ExecPool;
use autotype_pack::{load_pack, PackError, PackValidator, ProbeExecutor, PACK_EXTENSION};
use autotype_tables::VALUE_THRESHOLD;

use crate::cache::ShardedLru;
use crate::metrics::Metrics;

/// Shard count for the verdict cache. Fixed rather than scaled to the
/// worker count: 16 mutexes are cheap and keep contention negligible even
/// on large machines.
const CACHE_SHARDS: usize = 16;

/// Cells per column contributed to one scheduling wave: `workers × this`.
/// Large enough that a wave keeps every pool worker busy, small enough
/// that column early-termination still skips most of a long column.
const WAVE_FACTOR: usize = 4;

/// Everything a serving process needs, built once at startup.
pub struct DetectorRuntime {
    packs: Vec<PackValidator>,
    /// Per-pack spares of leased probe executors. A probe pops a slot
    /// (cloning only when the spare list is empty), runs, and pushes the
    /// reset slot back — so the clone cost is paid once per concurrent
    /// worker per pack, not once per probe. Bounded by the pool width.
    spares: Vec<Mutex<Vec<ProbeExecutor>>>,
    pool: ExecPool,
    cache: ShardedLru,
    metrics: Metrics,
}

impl DetectorRuntime {
    /// Build a runtime from already-loaded validators. Pack order is the
    /// detection priority order.
    pub fn from_packs(packs: Vec<PackValidator>, workers: usize, cache_capacity: usize) -> Self {
        let summaries: Vec<(String, String)> = packs
            .iter()
            .map(|p| (p.pack_id().to_string(), p.slug().to_string()))
            .collect();
        let cache = ShardedLru::new(CACHE_SHARDS, cache_capacity.max(1), packs.len());
        DetectorRuntime {
            metrics: Metrics::new(&summaries),
            cache,
            spares: (0..packs.len()).map(|_| Mutex::new(Vec::new())).collect(),
            pool: ExecPool::new(workers),
            packs,
        }
    }

    /// Load every `*.atpk` file in `dir`, **sorted by file name** — the
    /// file-name sort defines detection priority, so operators order packs
    /// by prefixing names (`00-creditcard.atpk`, `01-ipv6.atpk`, ...).
    pub fn load_dir(dir: &Path, workers: usize, cache_capacity: usize) -> Result<Self, PackError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(PACK_EXTENSION))
            .collect();
        paths.sort();
        let packs = paths
            .iter()
            .map(|p| load_pack(p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_packs(packs, workers, cache_capacity))
    }

    pub fn packs(&self) -> &[PackValidator] {
        &self.packs
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Entries currently held by the verdict cache (for `/metrics`).
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// One uncached `(pack, value)` probe through a leased executor, with
    /// full metric accounting. This is the only place probes execute.
    fn probe_uncached(&self, pack: usize, value: &str, max_fuel: Option<u64>) -> bool {
        let start = Instant::now();
        let slot = self.spares[pack].lock().unwrap().pop();
        let mut slot = match slot {
            Some(slot) => {
                Metrics::bump(&self.metrics.executors_reused);
                slot
            }
            None => {
                Metrics::bump(&self.metrics.executors_cloned);
                self.packs[pack].probe_executor()
            }
        };
        let (verdict, fuel) = self.packs[pack].accepts_with_fuel_in(&mut slot, value, max_fuel);
        {
            let mut spares = self.spares[pack].lock().unwrap();
            if spares.len() < self.pool.workers() {
                spares.push(slot);
            }
        }
        let pm = &self.metrics.per_pack[pack];
        pm.latency.record_us(start.elapsed().as_micros() as u64);
        Metrics::bump(&pm.probes);
        if verdict {
            Metrics::bump(&pm.accepts);
        }
        self.metrics.fuel_spent.fetch_add(fuel, Ordering::Relaxed);
        verdict
    }

    /// One `(pack, value)` verdict through the cache, with an optional fuel
    /// ceiling. Ceilings below the pack budget bypass the cache (see the
    /// module docs).
    fn probe_capped(&self, pack: usize, value: &str, max_fuel: Option<u64>) -> bool {
        if max_fuel.is_some_and(|cap| cap < self.packs[pack].fuel_budget()) {
            return self.probe_uncached(pack, value, max_fuel);
        }
        if let Some(verdict) = self.cache.get(pack, value) {
            Metrics::bump(&self.metrics.cache_hits);
            return verdict;
        }
        Metrics::bump(&self.metrics.cache_misses);
        let verdict = self.probe_uncached(pack, value, None);
        self.cache.put(pack, value, verdict);
        verdict
    }

    /// Detect a single value: first pack (in priority order) that accepts.
    /// Returns the pack index.
    pub fn detect_value(&self, value: &str) -> Option<usize> {
        self.detect_value_with(value, None)
    }

    /// [`detect_value`](Self::detect_value) with an optional per-request
    /// fuel ceiling.
    pub fn detect_value_with(&self, value: &str, max_fuel: Option<u64>) -> Option<usize> {
        self.metrics.values_served.fetch_add(1, Ordering::Relaxed);
        let mut issued = 0u64;
        let found = (0..self.packs.len()).find(|&pi| {
            issued += 1;
            self.probe_capped(pi, value, max_fuel)
        });
        self.metrics
            .probes_saved
            .fetch_add(self.packs.len() as u64 - issued, Ordering::Relaxed);
        found
    }

    /// Detect a batch of values with lazy tiered scheduling: probe pack 0
    /// across all values through the pool, drop the values it claimed,
    /// advance to pack 1 with the survivors, and so on. Identical verdicts
    /// to mapping [`detect_value`](Self::detect_value) over the batch;
    /// cells below the first match are never issued.
    pub fn detect_batch(&self, values: &[String]) -> Vec<Option<usize>> {
        self.detect_batch_with(values, None)
    }

    /// [`detect_batch`](Self::detect_batch) with an optional per-request
    /// fuel ceiling.
    pub fn detect_batch_with(
        &self,
        values: &[String],
        max_fuel: Option<u64>,
    ) -> Vec<Option<usize>> {
        self.metrics
            .values_served
            .fetch_add(values.len() as u64, Ordering::Relaxed);
        let npacks = self.packs.len();
        let mut out = vec![None; values.len()];
        if npacks == 0 || values.is_empty() {
            return out;
        }
        let mut issued = 0u64;
        let mut unresolved: Vec<usize> = (0..values.len()).collect();
        for pi in 0..npacks {
            if unresolved.is_empty() {
                break;
            }
            issued += unresolved.len() as u64;
            let verdicts = self.pool.run_ordered(unresolved.clone(), |_, vi| {
                self.probe_capped(pi, &values[vi], max_fuel)
            });
            let mut survivors = Vec::with_capacity(unresolved.len());
            for (&vi, verdict) in unresolved.iter().zip(verdicts) {
                if verdict {
                    out[vi] = Some(pi);
                } else {
                    survivors.push(vi);
                }
            }
            unresolved = survivors;
        }
        self.metrics
            .probes_saved
            .fetch_add((values.len() * npacks) as u64 - issued, Ordering::Relaxed);
        out
    }

    /// Detect a whole column: first pack (in priority order) whose accept
    /// fraction over the column clears `VALUE_THRESHOLD` — the exact
    /// semantics of the evaluation driver's `detect_by_values_mut`, with
    /// lazy tiered scheduling and intra-tier early termination.
    pub fn detect_column(&self, values: &[String]) -> Option<usize> {
        self.detect_column_with(values, None)
    }

    /// [`detect_column`](Self::detect_column) with an optional per-request
    /// fuel ceiling.
    pub fn detect_column_with(&self, values: &[String], max_fuel: Option<u64>) -> Option<usize> {
        self.detect_columns_tiered(&[values], max_fuel)[0]
    }

    /// Detect every column of a table in one tiered schedule — the
    /// `POST /detect/table` fan-out. Per column, the verdict equals
    /// [`detect_column`](Self::detect_column); across columns, each tier's
    /// waves interleave all undecided columns so the pool stays saturated.
    pub fn detect_table(
        &self,
        columns: &[Vec<String>],
        max_fuel: Option<u64>,
    ) -> Vec<Option<usize>> {
        let refs: Vec<&[String]> = columns.iter().map(Vec::as_slice).collect();
        self.detect_columns_tiered(&refs, max_fuel)
    }

    /// The tiered column scheduler. For each pack tier, still-unclaimed
    /// columns contribute waves of `workers × WAVE_FACTOR` cells each; a
    /// column stops probing within the tier the moment its accept count
    /// reaches [`min_accepts_to_pass`] (it passes whatever the remaining
    /// values say) or mathematically cannot reach it (it fails). Columns a
    /// tier claims drop out of later tiers entirely.
    fn detect_columns_tiered(
        &self,
        columns: &[&[String]],
        max_fuel: Option<u64>,
    ) -> Vec<Option<usize>> {
        let total: u64 = columns.iter().map(|c| c.len() as u64).sum();
        self.metrics
            .values_served
            .fetch_add(total, Ordering::Relaxed);
        let npacks = self.packs.len();
        let mut out = vec![None; columns.len()];
        if npacks == 0 || total == 0 {
            return out;
        }
        let wave = self.pool.workers().max(1) * WAVE_FACTOR;
        let mut issued = 0u64;
        let mut unresolved: Vec<usize> = (0..columns.len())
            .filter(|&ci| !columns[ci].is_empty())
            .collect();
        for pi in 0..npacks {
            if unresolved.is_empty() {
                break;
            }
            // Per-column probe state within this tier.
            struct TierState {
                ci: usize,
                probed: usize,
                accepted: usize,
                need: usize,
                decided: Option<bool>,
            }
            let mut tiers: Vec<TierState> = unresolved
                .iter()
                .map(|&ci| TierState {
                    ci,
                    probed: 0,
                    accepted: 0,
                    need: min_accepts_to_pass(columns[ci].len()),
                    decided: None,
                })
                .collect();
            let column_of: Vec<usize> = unresolved.clone();
            loop {
                let mut cells: Vec<(usize, usize)> = Vec::new();
                for (ti, t) in tiers.iter().enumerate() {
                    if t.decided.is_none() {
                        let hi = (t.probed + wave).min(columns[t.ci].len());
                        cells.extend((t.probed..hi).map(|vi| (ti, vi)));
                    }
                }
                if cells.is_empty() {
                    break;
                }
                issued += cells.len() as u64;
                let verdicts = self.pool.run_ordered(cells.clone(), |_, (ti, vi)| {
                    self.probe_capped(pi, &columns[column_of[ti]][vi], max_fuel)
                });
                for (&(ti, _), verdict) in cells.iter().zip(verdicts) {
                    tiers[ti].probed += 1;
                    if verdict {
                        tiers[ti].accepted += 1;
                    }
                }
                for t in tiers.iter_mut() {
                    if t.decided.is_some() {
                        continue;
                    }
                    let remaining = columns[t.ci].len() - t.probed;
                    if t.accepted >= t.need {
                        t.decided = Some(true);
                    } else if t.accepted + remaining < t.need {
                        t.decided = Some(false);
                    }
                }
            }
            let mut survivors = Vec::with_capacity(tiers.len());
            for t in &tiers {
                if t.decided == Some(true) {
                    out[t.ci] = Some(pi);
                } else {
                    survivors.push(t.ci);
                }
            }
            unresolved = survivors;
        }
        self.metrics
            .probes_saved
            .fetch_add(total * npacks as u64 - issued, Ordering::Relaxed);
        out
    }
}

/// The smallest accept count that clears `column_passes` for a column of
/// `n` values — i.e. the least `a` with `a / n > VALUE_THRESHOLD`. Returns
/// `n + 1` (unreachable) for an empty column, matching "empty columns
/// never pass". Computed with the same `f64` comparison `column_passes`
/// uses so the two can never disagree on a boundary count.
fn min_accepts_to_pass(n: usize) -> usize {
    (0..=n)
        .find(|&a| a as f64 / n as f64 > VALUE_THRESHOLD)
        .unwrap_or(n + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_exec::{EntryPoint, Literal};
    use autotype_lang::{SiteId, ValueSummary};
    use autotype_pack::Pack;
    use autotype_tables::column_passes;

    /// A pack whose DNF-E is just the synthetic black-box literal "the
    /// function returned True" — robust to branch-site numbering, so the
    /// tests only depend on the program's return value.
    fn boolean_pack(slug: &str, func: &str, source: &str) -> Pack {
        Pack {
            slug: slug.into(),
            keyword: slug.into(),
            label: format!("demo/mod.{func}"),
            repo_name: "demo".into(),
            file: "mod".into(),
            strategy: "S1".into(),
            method: "DNF-S".into(),
            score: 1.0,
            neg_fraction: 0.0,
            explanation: "(ret==True)".into(),
            fuel: 10_000,
            installs: 0,
            candidate_file: 0,
            entry: EntryPoint::Function { name: func.into() },
            files: vec![("mod".into(), source.into())],
            packages: vec![],
            dnf_e: vec![vec![Literal::Ret {
                site: SiteId::new(u32::MAX, 0),
                value: ValueSummary::Bool(true),
            }]],
        }
    }

    fn runtime(workers: usize) -> DetectorRuntime {
        // Priority order: even-length first, then short (< 3 chars).
        let even = boolean_pack(
            "evenlen",
            "is_even_len",
            "def is_even_len(s):\n    if len(s) % 2 == 0:\n        return True\n    return False\n",
        );
        let short = boolean_pack(
            "short",
            "is_short",
            "def is_short(s):\n    if len(s) < 3:\n        return True\n    return False\n",
        );
        DetectorRuntime::from_packs(
            vec![even.validator().unwrap(), short.validator().unwrap()],
            workers,
            1024,
        )
    }

    #[test]
    fn detect_value_first_match_wins() {
        let rt = runtime(1);
        // "ab": even length → pack 0 wins even though pack 1 also accepts.
        assert_eq!(rt.detect_value("ab"), Some(0));
        // "a": odd but short → pack 1.
        assert_eq!(rt.detect_value("a"), Some(1));
        // "abc": odd and long → no pack.
        assert_eq!(rt.detect_value("abc"), None);
        // "ab" stopped at pack 0 → one saved cell; the others issued all.
        assert_eq!(Metrics::read(&rt.metrics().probes_saved), 1);
    }

    #[test]
    fn detect_batch_matches_serial_at_any_worker_count() {
        let values: Vec<String> = ["ab", "a", "abc", "abcd", "", "xyzzy"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let serial = runtime(1);
        let expected: Vec<Option<usize>> = values.iter().map(|v| serial.detect_value(v)).collect();
        for workers in [1usize, 2, 4, 8] {
            let rt = runtime(workers);
            assert_eq!(rt.detect_batch(&values), expected, "workers={workers}");
        }
    }

    #[test]
    fn lazy_batch_skips_tiers_below_the_first_match() {
        let rt = runtime(2);
        // "ab" and "cd" resolve at pack 0 → their pack-1 cells are skipped.
        let values: Vec<String> = ["ab", "cd", "abc"].iter().map(|s| s.to_string()).collect();
        rt.detect_batch(&values);
        assert_eq!(Metrics::read(&rt.metrics().probes_saved), 2);
        // 3 tier-0 cells + 1 tier-1 cell ("abc") actually probed.
        assert_eq!(Metrics::read(&rt.metrics().cache_misses), 4);
    }

    #[test]
    fn second_identical_batch_is_all_cache_hits() {
        let rt = runtime(2);
        let values: Vec<String> = ["ab", "abc", "x"].iter().map(|s| s.to_string()).collect();
        let first = rt.detect_batch(&values);
        let misses_after_first = Metrics::read(&rt.metrics().cache_misses);
        assert_eq!(
            misses_after_first, 5,
            "3 tier-0 cells + 2 tier-1 cells (\"ab\" resolved at tier 0)"
        );
        let second = rt.detect_batch(&values);
        assert_eq!(first, second);
        assert_eq!(
            Metrics::read(&rt.metrics().cache_misses),
            misses_after_first,
            "second batch must not probe"
        );
        assert_eq!(Metrics::read(&rt.metrics().cache_hits), 5);
        assert!(rt.metrics().hit_rate() > 0.49);
    }

    #[test]
    fn detect_column_uses_threshold_and_priority() {
        let rt = runtime(4);
        // 5/6 even-length (> 0.8 threshold) → pack 0.
        let mostly_even: Vec<String> = ["ab", "cd", "ef", "gh", "ij", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(rt.detect_column(&mostly_even), Some(0));
        // All short-but-odd → only pack 1 passes.
        let short_odd: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(rt.detect_column(&short_odd), Some(1));
        // Mixed junk: neither passes.
        let junk: Vec<String> = ["abc", "defgh", "x", "yz"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(rt.detect_column(&junk), None);
        // Empty column never matches.
        assert_eq!(rt.detect_column(&[]), None);
    }

    #[test]
    fn column_early_termination_saves_probes() {
        // A long all-even column at workers=1: the wave size is 4, and the
        // pass threshold (need = 33 of 40) is reached after the 9th wave —
        // pack 0 claims the column without probing the last 4 values, and
        // pack 1 never runs at all.
        let rt = runtime(1);
        let values: Vec<String> = (0..40).map(|i| format!("ev{i:02}")).collect();
        assert_eq!(rt.detect_column(&values), Some(0));
        let issued = Metrics::read(&rt.metrics().cache_misses);
        assert!(
            issued < values.len() as u64,
            "early accept must stop the wave: issued {issued}"
        );
        assert_eq!(
            Metrics::read(&rt.metrics().probes_saved),
            values.len() as u64 * 2 - issued
        );
    }

    #[test]
    fn detect_table_matches_per_column_detection() {
        let columns: Vec<Vec<String>> = [
            vec!["ab", "cd", "ef", "gh", "ij", "x"],
            vec!["a", "b", "c"],
            vec!["abc", "defgh", "x", "yz"],
            vec![],
        ]
        .iter()
        .map(|c| c.iter().map(|s| s.to_string()).collect())
        .collect();
        for workers in [1usize, 2, 4, 8] {
            let per_column = runtime(workers);
            let expected: Vec<Option<usize>> = columns
                .iter()
                .map(|c| per_column.detect_column(c))
                .collect();
            let rt = runtime(workers);
            assert_eq!(
                rt.detect_table(&columns, None),
                expected,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn capped_probes_bypass_the_cache_and_change_no_cached_verdict() {
        let rt = runtime(1);
        // Full-budget verdict, cached.
        assert_eq!(rt.detect_value("ab"), Some(0));
        let misses = Metrics::read(&rt.metrics().cache_misses);
        // A starved probe rejects everywhere — and must not read or write
        // the cache.
        assert_eq!(rt.detect_value_with("ab", Some(1)), None);
        assert_eq!(Metrics::read(&rt.metrics().cache_misses), misses);
        // The cached full-budget verdict is unharmed.
        assert_eq!(rt.detect_value("ab"), Some(0));
        // A generous cap clamps to the pack budget and may use the cache.
        assert_eq!(rt.detect_value_with("ab", Some(u64::MAX)), Some(0));
    }

    #[test]
    fn executors_are_leased_not_recloned() {
        let rt = runtime(1);
        let values: Vec<String> = (0..12).map(|i| format!("w{i}")).collect();
        rt.detect_batch(&values);
        let cloned = Metrics::read(&rt.metrics().executors_cloned);
        let reused = Metrics::read(&rt.metrics().executors_reused);
        assert!(
            cloned <= 2,
            "one clone per (pack, concurrent worker) expected, got {cloned}"
        );
        assert!(
            reused > cloned,
            "steady state must reuse: {reused} vs {cloned}"
        );
    }

    #[test]
    fn min_accepts_matches_column_passes_on_boundaries() {
        for n in 0..=50usize {
            let need = min_accepts_to_pass(n);
            for accepted in 0..=n {
                let values: Vec<String> = (0..n).map(|i| i.to_string()).collect();
                let mut left = accepted;
                let passes = column_passes(&values, |_| {
                    if left > 0 {
                        left -= 1;
                        true
                    } else {
                        false
                    }
                });
                assert_eq!(
                    passes,
                    accepted >= need,
                    "n={n} accepted={accepted} need={need}"
                );
            }
        }
    }
}
