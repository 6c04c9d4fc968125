//! The read-only detection runtime: a fixed, priority-ordered set of
//! rehydrated detector packs, a shared execution pool, a verdict cache,
//! and live metrics.
//!
//! ## Semantics
//!
//! Detection is the evaluation driver's §9.1 rule, run by the same code:
//! every `detect_*` method goes through
//! [`detect_columns`](DetectorRuntime::detect_columns), which hands
//! [`autotype_tables::detect_columns`] a probe that consults the cache and
//! then the pack itself. Packs are scanned in **priority order** —
//! lexicographic pack-file order at load time — and the **first** pack
//! whose per-column accept fraction clears `VALUE_THRESHOLD` wins; a value
//! is a one-value column, so for it that is the first pack that accepts.
//! Verdicts are pure functions of `(pack, value)` (a pack's executor never
//! changes after it is built), so the cache, the
//! pool, and the scheduler are all transparent: any worker count, any
//! cache state, and any probe order produce bit-identical answers.
//!
//! ## Lazy tiered scheduling
//!
//! The scheduler probes one pack tier at a time across the still-unclaimed
//! columns, stops a column's tier once its accept count decides the
//! threshold, and never consults later packs for a claimed column. The
//! cells of the `value × pack` matrix it skips are exported as
//! `autotype_probes_saved_total`. The serial full-matrix oracle the
//! runtime is checked against lives in `tests/lazy_eager.rs`.
//!
//! ## Per-request fuel ceilings
//!
//! [`detect_columns`](DetectorRuntime::detect_columns) takes an optional
//! `max_fuel`, clamped per pack to `min(max_fuel, pack.fuel)`. A ceiling
//! **below** a pack's own budget changes what a verdict means (a
//! long-running probe exhausts early and rejects), so capped probes
//! bypass the `(pack, value)`-keyed cache in both directions — they
//! neither read stale full-budget verdicts nor poison the cache with
//! starved ones.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use autotype_exec::ExecPool;
use autotype_pack::{load_pack, PackError, PackValidator, PACK_EXTENSION};
use autotype_tables::detect_columns;

use crate::cache::ShardedLru;
use crate::metrics::Metrics;

/// Shard count for the verdict cache. Fixed rather than scaled to the
/// worker count: 16 mutexes are cheap and keep contention negligible even
/// on large machines.
const CACHE_SHARDS: usize = 16;

/// Everything a serving process needs, built once at startup.
pub struct DetectorRuntime {
    packs: Vec<PackValidator>,
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

    /// One uncached `(pack, value)` probe, with full metric accounting. This is the only place the
    /// runtime executes probes.
    fn probe_uncached(&self, pack: usize, value: &str, max_fuel: Option<u64>) -> bool {
        let start = Instant::now();
        let probe = self.packs[pack].probe(value, max_fuel);
        let pm = &self.metrics.per_pack[pack];
        pm.latency.record_us(start.elapsed().as_micros() as u64);
        Metrics::bump(&pm.probes);
        if probe.verdict {
            Metrics::bump(&pm.accepts);
        }
        self.metrics
            .fuel_spent
            .fetch_add(probe.fuel, Ordering::Relaxed);
        probe.verdict
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
        self.detect_columns(&[&[value.to_string()]], None)[0]
    }

    /// Detect a batch of values: each value is a one-value column, so each
    /// pack tier probes every still-unclaimed value in one fan-out.
    /// Identical verdicts to mapping [`detect_value`](Self::detect_value)
    /// over the batch; cells below the first match are never issued.
    pub fn detect_batch(&self, values: &[String]) -> Vec<Option<usize>> {
        let columns: Vec<&[String]> = values.iter().map(std::slice::from_ref).collect();
        self.detect_columns(&columns, None)
    }

    /// Detect a whole column: first pack (in priority order) whose accept
    /// fraction over the column clears `VALUE_THRESHOLD`.
    pub fn detect_column(&self, values: &[String]) -> Option<usize> {
        self.detect_columns(&[values], None)[0]
    }

    /// Detect every column of a table in one schedule — the
    /// `POST /detect/table` fan-out. Per column, the verdict equals
    /// [`detect_column`](Self::detect_column).
    pub fn detect_table(
        &self,
        columns: &[Vec<String>],
        max_fuel: Option<u64>,
    ) -> Vec<Option<usize>> {
        let refs: Vec<&[String]> = columns.iter().map(Vec::as_slice).collect();
        self.detect_columns(&refs, max_fuel)
    }

    /// The one detection entry point: each column's first passing pack,
    /// scheduled by [`autotype_tables::detect_columns`] through the
    /// runtime's pool and cache, with an optional per-request fuel
    /// ceiling. Every other `detect_*` method and every HTTP route goes
    /// through here.
    pub fn detect_columns(
        &self,
        columns: &[&[String]],
        max_fuel: Option<u64>,
    ) -> Vec<Option<usize>> {
        let total: usize = columns.iter().map(|c| c.len()).sum();
        self.metrics
            .values_served
            .fetch_add(total as u64, Ordering::Relaxed);
        let npacks = self.packs.len();
        let (found, issued) = detect_columns(columns, npacks, &self.pool, |pi, v| {
            self.probe_capped(pi, v, max_fuel)
        });
        self.metrics
            .probes_saved
            .fetch_add((total * npacks - issued) as u64, Ordering::Relaxed);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_exec::{EntryPoint, Literal};
    use autotype_lang::{SiteId, ValueSummary};
    use autotype_pack::Pack;

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
        assert_eq!(rt.detect_columns(&[&["ab".to_string()]], Some(1))[0], None);
        assert_eq!(Metrics::read(&rt.metrics().cache_misses), misses);
        // The cached full-budget verdict is unharmed.
        assert_eq!(rt.detect_value("ab"), Some(0));
        // A generous cap clamps to the pack budget and may use the cache.
        assert_eq!(
            rt.detect_columns(&[&["ab".to_string()]], Some(u64::MAX))[0],
            Some(0)
        );
    }

    #[test]
    fn function_body_import_packs_serve_identically_at_any_width() {
        let late = Pack {
            packages: vec![(
                "latelib".into(),
                "def short(s):\n    if len(s) < 3:\n        return True\n    return False\n".into(),
            )],
            ..boolean_pack(
                "late",
                "is_short",
                "def is_short(s):\n    import latelib\n    return latelib.short(s)\n",
            )
        };
        let values: Vec<String> = (0..12).map(|i| "w".repeat(i % 5)).collect();
        let expected: Vec<Option<usize>> =
            values.iter().map(|v| (v.len() < 3).then_some(0)).collect();
        for workers in [1usize, 4] {
            let rt = DetectorRuntime::from_packs(vec![late.validator().unwrap()], workers, 1024);
            assert_eq!(rt.detect_batch(&values), expected, "workers={workers}");
            assert_eq!(
                rt.detect_batch(&values),
                expected,
                "cached, workers={workers}"
            );
        }
    }
}
