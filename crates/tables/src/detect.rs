//! Column-type detection (§9.1): the three compared methods.
//!
//! * **DNF-S** — a synthesized type-detection function per type; a column
//!   is predicted as type T when over 80 % of its values are accepted
//!   ("to account for dirty values such as meta-data mixed in columns").
//! * **KW** — header keyword matching.
//! * **REGEX** — the Potter's-Wheel structure pattern inferred from the
//!   same positive examples AutoType used.
//!
//! DNF-S and REGEX share one rule, [`column_passes`], and one scheduler,
//! [`detect_columns`], which the serving runtime (`autotype-serve`) uses
//! as well. First-match-wins makes most of the column × detector matrix
//! dead work, so the scheduler probes one detector tier at a time, stops
//! a column's tier as soon as its accept count decides the threshold, and
//! drops claimed columns from later tiers. Probes are pure functions of
//! `(detector, value)`, so skipping cells changes which probes run, never
//! a verdict: every worker count returns the serial loop's detections.

use crate::corpus::Column;
use crate::regex::InferredPattern;
use autotype_exec::ExecPool;

/// Acceptance threshold over column values (both DNF-S and REGEX).
pub const VALUE_THRESHOLD: f64 = 0.8;

/// Cells per column contributed to one scheduling wave: `workers × this`.
/// Large enough that a wave keeps every pool worker busy, small enough
/// that column early-termination still skips most of a long column.
const WAVE_FACTOR: usize = 4;

/// A detection produced by some method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    pub column: usize,
    pub slug: &'static str,
}

/// A named thread-safe per-value predicate, as produced by validator
/// synthesis.
pub type SyncValueDetector<'a> = (&'static str, Box<dyn Fn(&str) -> bool + Sync + 'a>);

/// The §9.1 acceptance rule for one column: strictly more than
/// [`VALUE_THRESHOLD`] of its values pass the predicate ("to account for
/// dirty values such as meta-data mixed in columns"). Empty columns never
/// pass. [`detect_columns`] decides columns early with an accept count
/// computed from this same comparison.
pub fn column_passes(values: &[String], mut predicate: impl FnMut(&str) -> bool) -> bool {
    if values.is_empty() {
        return false;
    }
    let accepted = values.iter().filter(|v| predicate(v)).count();
    accepted as f64 / values.len() as f64 > VALUE_THRESHOLD
}

/// The smallest accept count that clears [`column_passes`] for a column of
/// `n` values — i.e. the least `a` with `a / n > VALUE_THRESHOLD`. Returns
/// `n + 1` (unreachable) for an empty column, matching "empty columns
/// never pass". Computed with the same `f64` comparison `column_passes`
/// uses so the two can never disagree on a boundary count.
fn min_accepts_to_pass(n: usize) -> usize {
    (0..=n)
        .find(|&a| a as f64 / n as f64 > VALUE_THRESHOLD)
        .unwrap_or(n + 1)
}

/// The column-detection scheduler: for each column, the first of
/// `detectors` (in priority order) under which the column passes
/// [`column_passes`], plus the number of `probe(detector, value)` calls
/// issued.
///
/// For each detector tier, still-unclaimed columns contribute waves of
/// `workers × WAVE_FACTOR` cells each; a column stops probing within the
/// tier the moment its accept count reaches the least count that passes
/// (it passes whatever the remaining values say) or can no longer reach
/// it (it fails). Columns a tier claims drop out of later tiers entirely,
/// and no `(detector, value)` cell is probed twice. A one-value column
/// decides each tier in one wave, so a batch of values passed as
/// one-value columns is the per-value first-match scan.
///
/// One call opens one [`crew`](ExecPool::crew) of `pool` and sends every
/// wave of every tier through it, so the pool's helper threads are
/// spawned at most once per call, not once per wave.
///
/// `probe` must be a pure function of its arguments: then the result
/// equals the serial column-by-column, detector-by-detector loop at every
/// worker count.
pub fn detect_columns<P>(
    columns: &[&[String]],
    detectors: usize,
    pool: &ExecPool,
    probe: P,
) -> (Vec<Option<usize>>, usize)
where
    P: Fn(usize, &str) -> bool + Sync,
{
    /// One column's probe state within a tier.
    struct Tally {
        ci: usize,
        probed: usize,
        accepted: usize,
        need: usize,
        decided: Option<bool>,
    }
    let mut out = vec![None; columns.len()];
    let wave = pool.workers() * WAVE_FACTOR;
    let mut issued = 0;
    let mut unresolved: Vec<usize> = (0..columns.len())
        .filter(|&ci| !columns[ci].is_empty())
        .collect();
    // A cell is `(tally, detector, column, value)`: the crew's work
    // function outlives each tier's tallies, so it carries its indices.
    let work =
        |_, (ti, di, ci, vi): (usize, usize, usize, usize)| (ti, probe(di, &columns[ci][vi]));
    pool.crew(work, |crew| {
        for di in 0..detectors {
            if unresolved.is_empty() {
                break;
            }
            let mut tallies: Vec<Tally> = unresolved
                .iter()
                .map(|&ci| Tally {
                    ci,
                    probed: 0,
                    accepted: 0,
                    need: min_accepts_to_pass(columns[ci].len()),
                    decided: None,
                })
                .collect();
            loop {
                let mut cells = Vec::new();
                for (ti, t) in tallies.iter().enumerate() {
                    if t.decided.is_none() {
                        let hi = (t.probed + wave).min(columns[t.ci].len());
                        cells.extend((t.probed..hi).map(|vi| (ti, di, t.ci, vi)));
                    }
                }
                if cells.is_empty() {
                    break;
                }
                issued += cells.len();
                for (ti, verdict) in crew.run(cells) {
                    tallies[ti].probed += 1;
                    if verdict {
                        tallies[ti].accepted += 1;
                    }
                }
                for t in tallies.iter_mut().filter(|t| t.decided.is_none()) {
                    let remaining = columns[t.ci].len() - t.probed;
                    if t.accepted >= t.need {
                        t.decided = Some(true);
                    } else if t.accepted + remaining < t.need {
                        t.decided = Some(false);
                    }
                }
            }
            unresolved.clear();
            for t in &tallies {
                if t.decided == Some(true) {
                    out[t.ci] = Some(di);
                } else {
                    unresolved.push(t.ci);
                }
            }
        }
    });
    (out, issued)
}

/// [`detect_columns`] over corpus columns, with detector `i` named
/// `slugs[i]`: one [`Detection`] per claimed column, in column order.
fn detect_corpus(
    columns: &[Column],
    slugs: &[&'static str],
    pool: &ExecPool,
    probe: impl Fn(usize, &str) -> bool + Sync,
) -> Vec<Detection> {
    let values: Vec<&[String]> = columns.iter().map(|c| c.values.as_slice()).collect();
    let (found, _) = detect_columns(&values, slugs.len(), pool, probe);
    found
        .into_iter()
        .enumerate()
        .filter_map(|(column, di)| {
            Some(Detection {
                column,
                slug: slugs[di?],
            })
        })
        .collect()
}

/// DNF-S detection with per-type value predicates (the synthesized
/// functions), in priority order, scheduled through `pool` by
/// [`detect_columns`]: the first type whose predicate passes a column
/// wins it. Detections are identical at every worker count.
pub fn detect_by_values_batched(
    columns: &[Column],
    detectors: &[SyncValueDetector<'_>],
    pool: &ExecPool,
) -> Vec<Detection> {
    let slugs: Vec<&'static str> = detectors.iter().map(|(slug, _)| *slug).collect();
    detect_corpus(columns, &slugs, pool, |di, v| (detectors[di].1)(v))
}

/// Detect with header keywords (the KW baseline): a column is predicted as
/// T when its header contains one of T's keywords as a token substring.
pub fn detect_by_header(
    columns: &[Column],
    keywords: &[(&'static str, Vec<&'static str>)],
) -> Vec<Detection> {
    // Normalize the keyword lists once up front instead of re-lowercasing
    // every keyword for every column.
    let keywords: Vec<(&'static str, Vec<String>)> = keywords
        .iter()
        .map(|(slug, words)| (*slug, words.iter().map(|w| w.to_lowercase()).collect()))
        .collect();
    let mut out = Vec::new();
    for (idx, column) in columns.iter().enumerate() {
        let Some(header) = &column.header else {
            continue;
        };
        let header = header.to_lowercase();
        for (slug, words) in &keywords {
            if words.iter().any(|w| header.contains(w.as_str())) {
                out.push(Detection { column: idx, slug });
                break;
            }
        }
    }
    out
}

/// Detect with inferred structure patterns (the REGEX baseline), on one
/// thread. Types whose pattern inference failed contribute no detections.
pub fn detect_by_pattern(
    columns: &[Column],
    patterns: &[(&'static str, Option<InferredPattern>)],
) -> Vec<Detection> {
    let (slugs, patterns): (Vec<&'static str>, Vec<&InferredPattern>) = patterns
        .iter()
        .filter_map(|(slug, pattern)| Some((*slug, pattern.as_ref()?)))
        .unzip();
    detect_corpus(columns, &slugs, &ExecPool::new(1), |pi, v| {
        patterns[pi].matches(v)
    })
}

/// Per-type precision / relative recall / F-score against ground truth,
/// using the union of correct detections across methods as the recall
/// denominator (§9.1's pooled "relative recall").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypeOutcome {
    pub detected: usize,
    pub correct: usize,
    pub union_truth: usize,
}

impl TypeOutcome {
    pub fn precision(&self) -> f64 {
        if self.detected == 0 {
            return 0.0;
        }
        self.correct as f64 / self.detected as f64
    }

    pub fn recall(&self) -> f64 {
        if self.union_truth == 0 {
            return 0.0;
        }
        self.correct as f64 / self.union_truth as f64
    }

    pub fn f_score(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Score a method's detections for one type. `union_correct` is the set of
/// column indices any method detected correctly for this type.
pub fn score_type(
    detections: &[Detection],
    columns: &[Column],
    slug: &str,
    union_correct: &std::collections::BTreeSet<usize>,
) -> TypeOutcome {
    let mine: Vec<&Detection> = detections.iter().filter(|d| d.slug == slug).collect();
    let correct = mine
        .iter()
        .filter(|d| columns[d.column].truth == Some(d.slug))
        .count();
    TypeOutcome {
        detected: mine.len(),
        correct,
        union_truth: union_correct.len(),
    }
}

/// Column indices a method detected correctly for a type.
pub fn correct_columns(
    detections: &[Detection],
    columns: &[Column],
    slug: &str,
) -> std::collections::BTreeSet<usize> {
    detections
        .iter()
        .filter(|d| d.slug == slug && columns[d.column].truth == Some(d.slug))
        .map(|d| d.column)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::infer_pattern;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A named per-value predicate with mutable state.
    type ValueDetectorMut<'a> = (&'static str, Box<dyn FnMut(&str) -> bool + 'a>);

    /// The serial reference loop [`detect_columns`] is checked against:
    /// columns in order, detectors in order, first matching type wins.
    fn detect_by_values_mut(
        columns: &[Column],
        detectors: &mut [ValueDetectorMut<'_>],
    ) -> Vec<Detection> {
        let mut out = Vec::new();
        for (idx, column) in columns.iter().enumerate() {
            for (slug, predicate) in detectors.iter_mut() {
                if column_passes(&column.values, &mut **predicate) {
                    out.push(Detection { column: idx, slug });
                    break; // first matching type wins for a column
                }
            }
        }
        out
    }

    fn columns() -> Vec<Column> {
        vec![
            Column {
                header: Some("ip".into()),
                values: vec![
                    "1.2.3.4".into(),
                    "10.0.0.1".into(),
                    "N/A".into(),
                    "8.8.8.8".into(),
                    "9.9.9.9".into(),
                    "7.7.7.7".into(),
                ],
                truth: Some("ipv4"),
            },
            Column {
                header: Some("version number".into()),
                values: vec![
                    "7.74.0.0".into(),
                    "1.2.0.0".into(),
                    "2.0.0.1".into(),
                    "3.1.0.0".into(),
                    "8.0.0.0".into(),
                ],
                truth: None,
            },
            Column {
                header: Some("ip address list".into()),
                values: vec![
                    "hello".into(),
                    "world".into(),
                    "x".into(),
                    "y".into(),
                    "z".into(),
                ],
                truth: None,
            },
        ]
    }

    fn ipv4_like(v: &str) -> bool {
        let parts: Vec<&str> = v.split('.').collect();
        parts.len() == 4
            && parts
                .iter()
                .all(|p| p.parse::<u32>().map(|x| x <= 255).unwrap_or(false))
    }

    #[test]
    fn value_detection_uses_80_percent_threshold() {
        let cols = columns();
        let detectors: Vec<SyncValueDetector> = vec![("ipv4", Box::new(ipv4_like))];
        let detections = detect_by_values_batched(&cols, &detectors, &ExecPool::new(1));
        // Column 0 has 5/6 valid (83%) → detected; column 1 is the
        // version-number ambiguity → also detected (the §9.2 false
        // positive); column 2 rejected.
        assert!(detections.contains(&Detection {
            column: 0,
            slug: "ipv4"
        }));
        assert!(detections.contains(&Detection {
            column: 1,
            slug: "ipv4"
        }));
        assert!(!detections.iter().any(|d| d.column == 2));
    }

    #[test]
    fn batched_detection_matches_serial_at_every_worker_count() {
        let cols = columns();
        let mut serial: Vec<ValueDetectorMut> = vec![
            ("ipv4", Box::new(ipv4_like)),
            ("anything", Box::new(|v: &str| !v.is_empty())),
        ];
        let expected = detect_by_values_mut(&cols, &mut serial);
        // "anything" accepts every non-empty value, so first-win priority is
        // actually exercised: ipv4 must still win columns 0 and 1.
        assert_eq!(expected.iter().filter(|d| d.slug == "ipv4").count(), 2);
        assert_eq!(expected.iter().filter(|d| d.slug == "anything").count(), 1);
        for workers in [1, 2, 4, 8] {
            let batched: Vec<SyncValueDetector> = vec![
                ("ipv4", Box::new(ipv4_like)),
                ("anything", Box::new(|v: &str| !v.is_empty())),
            ];
            let got = detect_by_values_batched(&cols, &batched, &ExecPool::new(workers));
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn mut_detectors_share_threshold_and_break_semantics() {
        let cols = columns();
        let mut calls = 0usize;
        let mut detectors: Vec<ValueDetectorMut> = vec![(
            "ipv4",
            Box::new(|v: &str| {
                calls += 1;
                ipv4_like(v)
            }),
        )];
        let detections = detect_by_values_mut(&cols, &mut detectors);
        drop(detectors);
        assert_eq!(
            detections,
            vec![
                Detection {
                    column: 0,
                    slug: "ipv4"
                },
                Detection {
                    column: 1,
                    slug: "ipv4"
                }
            ]
        );
        // Every value of every column probed exactly once.
        assert_eq!(calls, cols.iter().map(|c| c.values.len()).sum::<usize>());
    }

    #[test]
    fn header_detection_matches_keywords_including_false_positives() {
        let cols = columns();
        let keywords = vec![("ipv4", vec!["ip", "ip address"])];
        let detections = detect_by_header(&cols, &keywords);
        assert!(detections.contains(&Detection {
            column: 0,
            slug: "ipv4"
        }));
        // The keyword baseline's classic false positive: header mentions
        // "ip address" but the values are not addresses.
        assert!(detections.contains(&Detection {
            column: 2,
            slug: "ipv4"
        }));
    }

    #[test]
    fn scoring_computes_precision_and_pooled_recall() {
        let cols = columns();
        let detectors: Vec<SyncValueDetector> = vec![("ipv4", Box::new(ipv4_like))];
        let detections = detect_by_values_batched(&cols, &detectors, &ExecPool::new(1));
        let union = correct_columns(&detections, &cols, "ipv4");
        let outcome = score_type(&detections, &cols, "ipv4", &union);
        assert_eq!(outcome.detected, 2);
        assert_eq!(outcome.correct, 1);
        assert!((outcome.precision() - 0.5).abs() < 1e-12);
        assert!((outcome.recall() - 1.0).abs() < 1e-12);
        assert!((outcome.f_score() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pattern_detection_skips_failed_inference() {
        let cols = columns();
        let patterns = vec![
            ("none", None),
            ("dotted", infer_pattern(&["1.2.3.4", "10.20.30.40"])),
        ];
        let detections = detect_by_pattern(&cols, &patterns);
        // The dotted-quad pattern claims both dotted columns; the failed
        // inference never claims anything, despite its higher priority.
        assert_eq!(
            detections,
            vec![
                Detection {
                    column: 0,
                    slug: "dotted"
                },
                Detection {
                    column: 1,
                    slug: "dotted"
                }
            ]
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

    /// A pure detector: accepts `value` for about `rate`% of values,
    /// decided by a hash of the detector index and the value.
    fn accepts(di: usize, rate: u64, value: &str) -> bool {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ di as u64;
        for b in value.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h % 100 < rate
    }

    #[test]
    fn scheduler_matches_the_serial_oracle_and_probes_each_cell_once() {
        const SLUGS: [&str; 5] = ["d0", "d1", "d2", "d3", "d4"];
        // The threshold boundaries: 1 needs 1 accept, 4 needs 4, 5 needs
        // 5, 10 needs 9 and 24 needs 20.
        const LENGTHS: [usize; 7] = [0, 1, 4, 5, 10, 24, 30];
        let mut rng = StdRng::seed_from_u64(0x5CED);
        // Columns claimed by the first detector, by a later one, and by
        // none: all three must occur, or the comparison is vacuous.
        let mut outcomes = [0usize; 3];
        for trial in 0..60 {
            let ncolumns = rng.gen_range(0..=12usize);
            let columns: Vec<Column> = (0..ncolumns)
                .map(|ci| {
                    let len = if rng.gen_bool(0.5) {
                        LENGTHS[rng.gen_range(0..LENGTHS.len())]
                    } else {
                        rng.gen_range(0..=30usize)
                    };
                    // Values are unique within a trial, so a repeated
                    // (detector, value) probe is a repeated cell.
                    let values = (0..len)
                        .map(|vi| format!("{ci}.{vi}.{}", rng.gen_range(0..1000u32)))
                        .collect();
                    Column {
                        header: None,
                        values,
                        truth: None,
                    }
                })
                .collect();
            let rates: Vec<u64> = (0..rng.gen_range(0..=SLUGS.len()))
                .map(|_| [0, 20, 75, 85, 95, 100][rng.gen_range(0..6usize)])
                .collect();

            let mut oracle: Vec<ValueDetectorMut> = rates
                .iter()
                .enumerate()
                .map(|(di, &rate)| {
                    let predicate = move |v: &str| accepts(di, rate, v);
                    (
                        SLUGS[di],
                        Box::new(predicate) as Box<dyn FnMut(&str) -> bool>,
                    )
                })
                .collect();
            let mut expected = vec![None; columns.len()];
            for d in detect_by_values_mut(&columns, &mut oracle) {
                expected[d.column] = SLUGS.iter().position(|s| *s == d.slug);
            }
            for found in &expected {
                outcomes[match found {
                    Some(0) => 0,
                    Some(_) => 1,
                    None => 2,
                }] += 1;
            }

            let values: Vec<&[String]> = columns.iter().map(|c| c.values.as_slice()).collect();
            let eager: usize = values.iter().map(|v| v.len()).sum::<usize>() * rates.len();
            for workers in [1, 2, 4, 8] {
                let calls = AtomicUsize::new(0);
                let seen = Mutex::new(HashSet::new());
                let (found, issued) =
                    detect_columns(&values, rates.len(), &ExecPool::new(workers), |di, v| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        let fresh = seen.lock().unwrap().insert((di, v.to_string()));
                        assert!(fresh, "cell ({di}, {v}) probed twice");
                        accepts(di, rates[di], v)
                    });
                let context = format!("trial={trial} workers={workers}");
                assert_eq!(found, expected, "{context}");
                assert_eq!(issued, calls.load(Ordering::Relaxed), "{context}");
                assert!(issued <= eager, "{context}: {issued} > {eager}");
            }
        }
        assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
    }
}
