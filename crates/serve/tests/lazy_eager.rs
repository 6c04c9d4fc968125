//! Property-style equivalence test: lazy tiered scheduling must produce
//! bit-identical verdicts to the eager `value × pack` matrix — per value
//! and per column — on randomized pack sets and value sets, at every
//! worker count. This is the load-bearing guarantee of the scheduler:
//! skipping dead matrix cells is only a perf change, never a semantic one.
//!
//! The eager matrix is a serial oracle over the validators themselves: no
//! runtime, no pool, no cache.

use autotype_exec::{EntryPoint, Literal};
use autotype_lang::{SiteId, ValueSummary};
use autotype_pack::{Pack, PackValidator};
use autotype_serve::DetectorRuntime;
use autotype_tables::column_passes;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A pack accepting exactly the inputs for which the program returns True.
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

/// A pool of length-predicate detectors with overlapping accept sets, so
/// random subsets produce genuine priority contention (many values match
/// several packs and the tie-break order matters).
fn pack_pool() -> Vec<Pack> {
    let pred = |slug: &str, cond: &str| {
        boolean_pack(
            slug,
            "check",
            &format!("def check(s):\n    if {cond}:\n        return True\n    return False\n"),
        )
    };
    vec![
        pred("evenlen", "len(s) % 2 == 0"),
        pred("short", "len(s) < 3"),
        pred("long", "len(s) > 5"),
        pred("triple", "len(s) % 3 == 0"),
        pred("exact4", "len(s) == 4"),
    ]
}

fn validators(packs: &[Pack]) -> Vec<PackValidator> {
    packs.iter().map(|p| p.validator().unwrap()).collect()
}

/// Eager per-value detection: probe the value's whole `× pack` row, then
/// take the first pack (in priority order) that accepted.
fn eager_batch(packs: &[PackValidator], values: &[String]) -> Vec<Option<usize>> {
    values
        .iter()
        .map(|v| {
            let row: Vec<bool> = packs.iter().map(|p| p.accepts_with_fuel(v).0).collect();
            row.iter().position(|&accepted| accepted)
        })
        .collect()
}

/// Eager column detection: the first pack whose accept fraction over the
/// whole column clears the threshold.
fn eager_column(packs: &[PackValidator], values: &[String]) -> Option<usize> {
    packs
        .iter()
        .position(|p| column_passes(values, |v| p.accepts_with_fuel(v).0))
}

#[test]
fn lazy_equals_eager_on_random_pack_and_value_sets() {
    let pool = pack_pool();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for trial in 0..8 {
        // A random subset of packs in random priority order…
        let mut order: Vec<usize> = (0..pool.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let npacks = rng.gen_range(2..=pool.len());
        let chosen: Vec<Pack> = order[..npacks].iter().map(|&i| pool[i].clone()).collect();

        // …and a random batch of values with clumpy lengths (clumps make
        // column thresholds actually trigger both pass and fail paths).
        let nvalues = rng.gen_range(4..=24usize);
        let values: Vec<String> = (0..nvalues)
            .map(|_| {
                let len = if rng.gen_bool(0.6) {
                    rng.gen_range(0..4usize) * 2 // mostly even, incl. empty
                } else {
                    rng.gen_range(0..9usize)
                };
                (0..len)
                    .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                    .collect()
            })
            .collect();

        // Ground truth: serial per-value scan at one worker, eager matrix.
        let serial = DetectorRuntime::from_packs(validators(&chosen), 1, 1024);
        let expected_batch: Vec<Option<usize>> =
            values.iter().map(|v| serial.detect_value(v)).collect();
        let oracle = validators(&chosen);
        let expected_column = eager_column(&oracle, &values);
        assert_eq!(
            eager_batch(&oracle, &values),
            expected_batch,
            "trial {trial}: eager batch diverged\nvalues: {values:?}"
        );

        for workers in [1usize, 2, 4, 8] {
            let lazy = DetectorRuntime::from_packs(validators(&chosen), workers, 1024);
            assert_eq!(
                lazy.detect_batch(&values),
                expected_batch,
                "trial {trial} workers {workers}: lazy batch diverged\nvalues: {values:?}"
            );
            let lazy_col = DetectorRuntime::from_packs(validators(&chosen), workers, 1024);
            assert_eq!(
                lazy_col.detect_column(&values),
                expected_column,
                "trial {trial} workers {workers}: lazy column diverged\nvalues: {values:?}"
            );
            // Lazy never issues more probes than the full matrix.
            let spent = autotype_serve::Metrics::read(&lazy.metrics().cache_misses);
            assert!(
                spent <= (values.len() * npacks) as u64,
                "trial {trial} workers {workers}: issued {spent} > matrix"
            );
        }
    }
}

#[test]
fn lazy_column_matches_eager_at_any_worker_count() {
    // Even length first, then short (< 3 chars).
    let packs = &pack_pool()[..2];
    let columns: Vec<Vec<String>> = [
        vec!["ab", "cd", "ef", "gh", "ij", "x"],
        vec!["a", "b", "c"],
        vec!["abc", "defgh", "x", "yz"],
        vec![],
        vec!["ab"],
    ]
    .iter()
    .map(|c| c.iter().map(|s| s.to_string()).collect())
    .collect();
    let oracle = validators(packs);
    for workers in [1usize, 2, 4, 8] {
        for column in &columns {
            let lazy = DetectorRuntime::from_packs(validators(packs), workers, 1024);
            assert_eq!(
                lazy.detect_column(column),
                eager_column(&oracle, column),
                "workers={workers} column={column:?}"
            );
        }
    }
}
