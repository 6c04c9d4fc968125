//! Column-type detection (§9.1): the three compared methods.
//!
//! * **DNF-S** — a synthesized type-detection function per type; a column
//!   is predicted as type T when over 80 % of its values are accepted
//!   ("to account for dirty values such as meta-data mixed in columns").
//! * **KW** — header keyword matching.
//! * **REGEX** — the Potter's-Wheel structure pattern inferred from the
//!   same positive examples AutoType used.

use crate::corpus::Column;
use crate::regex::InferredPattern;
use autotype_exec::ExecPool;

/// Acceptance threshold over column values (both DNF-S and REGEX).
pub const VALUE_THRESHOLD: f64 = 0.8;

/// A detection produced by some method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    pub column: usize,
    pub slug: &'static str,
}

/// A named per-value predicate, as produced by validator synthesis.
pub type ValueDetector<'a> = (&'static str, Box<dyn Fn(&str) -> bool + 'a>);

/// A named per-value predicate with mutable state — the shape a synthesis
/// `Session` produces, where every probe run charges fuel to the session.
pub type ValueDetectorMut<'a> = (&'static str, Box<dyn FnMut(&str) -> bool + 'a>);

/// A named thread-safe per-value predicate for the batched detection path.
pub type SyncValueDetector<'a> = (&'static str, Box<dyn Fn(&str) -> bool + Sync + 'a>);

/// The §9.1 acceptance rule for one column: strictly more than
/// [`VALUE_THRESHOLD`] of its values pass the predicate ("to account for
/// dirty values such as meta-data mixed in columns"). Empty columns never
/// pass. Every detection path funnels through this one comparison so the
/// threshold semantics cannot drift between the serial, mutable, batched,
/// and serve-runtime variants (`autotype-serve` calls it for
/// `POST /detect/column`).
pub fn column_passes(values: &[String], mut predicate: impl FnMut(&str) -> bool) -> bool {
    if values.is_empty() {
        return false;
    }
    let accepted = values.iter().filter(|v| predicate(v)).count();
    accepted as f64 / values.len() as f64 > VALUE_THRESHOLD
}

/// Detect with stateful per-type value predicates. This is the reference
/// detection loop: columns in order, detectors in order, first matching
/// type wins for a column. [`detect_by_values`], [`detect_by_pattern`], and
/// (by an index-ordered merge) [`detect_by_values_batched`] all share these
/// semantics.
pub fn detect_by_values_mut(
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

/// Detect with per-type value predicates (the synthesized functions).
pub fn detect_by_values(columns: &[Column], detectors: &[ValueDetector<'_>]) -> Vec<Detection> {
    let mut muts: Vec<ValueDetectorMut<'_>> = detectors
        .iter()
        .map(|(slug, f)| {
            (
                *slug,
                Box::new(move |v: &str| f(v)) as Box<dyn FnMut(&str) -> bool>,
            )
        })
        .collect();
    detect_by_values_mut(columns, &mut muts)
}

/// Batched column detection through an [`ExecPool`]: one job per
/// column × detector, merged in input order.
///
/// Each job scores one (column, detector) cell of the matrix against
/// [`VALUE_THRESHOLD`]; because jobs are enqueued column-major with
/// detectors in priority order and merged by input index, the
/// first-matching-type-wins rule produces exactly the [`detect_by_values`]
/// detections at every worker count (`workers = 1` runs the jobs serially
/// in input order). Unlike the serial loop, lower-priority detectors still
/// run for an already-detected column — they execute in parallel and their
/// verdicts are discarded by the merge, trading redundant work for
/// latency.
pub fn detect_by_values_batched(
    columns: &[Column],
    detectors: &[SyncValueDetector<'_>],
    pool: &ExecPool,
) -> Vec<Detection> {
    let jobs: Vec<(usize, usize)> = (0..columns.len())
        .filter(|ci| !columns[*ci].values.is_empty())
        .flat_map(|ci| (0..detectors.len()).map(move |di| (ci, di)))
        .collect();
    let passed = pool.run_ordered(jobs.clone(), |_, (ci, di)| {
        column_passes(&columns[ci].values, |v| (detectors[di].1)(v))
    });
    let mut out = Vec::new();
    let mut decided: Option<usize> = None;
    for (&(ci, di), pass) in jobs.iter().zip(passed) {
        if decided == Some(ci) {
            continue; // an earlier (higher-priority) detector already won
        }
        if pass {
            out.push(Detection {
                column: ci,
                slug: detectors[di].0,
            });
            decided = Some(ci);
        }
    }
    out
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

/// Detect with inferred structure patterns (the REGEX baseline). Types
/// whose pattern inference failed contribute no detections.
pub fn detect_by_pattern(
    columns: &[Column],
    patterns: &[(&'static str, Option<InferredPattern>)],
) -> Vec<Detection> {
    let mut detectors: Vec<ValueDetectorMut<'_>> = patterns
        .iter()
        .filter_map(|(slug, pattern)| {
            let pattern = pattern.as_ref()?;
            Some((
                *slug,
                Box::new(move |v: &str| pattern.matches(v)) as Box<dyn FnMut(&str) -> bool>,
            ))
        })
        .collect();
    detect_by_values_mut(columns, &mut detectors)
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

    type Detector = (&'static str, Box<dyn Fn(&str) -> bool>);

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
        let detectors: Vec<Detector> = vec![("ipv4", Box::new(ipv4_like))];
        let detections = detect_by_values(&cols, &detectors);
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
        let serial: Vec<Detector> = vec![
            ("ipv4", Box::new(ipv4_like)),
            ("anything", Box::new(|v: &str| !v.is_empty())),
        ];
        let expected = detect_by_values(&cols, &serial);
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
        let detectors: Vec<Detector> = vec![("ipv4", Box::new(ipv4_like))];
        let detections = detect_by_values(&cols, &detectors);
        let union = correct_columns(&detections, &cols, "ipv4");
        let outcome = score_type(&detections, &cols, "ipv4", &union);
        assert_eq!(outcome.detected, 2);
        assert_eq!(outcome.correct, 1);
        assert!((outcome.precision() - 0.5).abs() < 1e-12);
        assert!((outcome.recall() - 1.0).abs() < 1e-12);
        assert!((outcome.f_score() - 2.0 / 3.0).abs() < 1e-12);
    }
}
