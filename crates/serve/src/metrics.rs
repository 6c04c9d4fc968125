//! Live service metrics: lock-free atomic counters plus per-pack latency
//! histograms, rendered in the Prometheus text exposition format at
//! `GET /metrics`.
//!
//! Counters are monotone `AtomicU64`s updated with relaxed ordering — every
//! update is a commutative increment, so totals are exact under any thread
//! interleaving even though no two counters are read atomically together.

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds, in microseconds. Probe latency spans
/// short interpreter runs (a few microseconds) to runs that spend a pack's
/// whole fuel budget (milliseconds), so the buckets are logarithmic.
pub const LATENCY_BUCKETS_US: [u64; 11] =
    [1, 2, 5, 10, 50, 100, 500, 1_000, 5_000, 20_000, 100_000];

/// A fixed-bucket latency histogram (Prometheus `_bucket`/`_sum`/`_count`
/// semantics: buckets are cumulative at render time, stored sparse here).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len()],
    overflow: AtomicU64,
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    pub fn record_us(&self, us: u64) {
        match LATENCY_BUCKETS_US.iter().position(|&b| us <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Render cumulative `_bucket` lines plus `_sum` and `_count`.
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "{name}_bucket{{{labels}le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.overflow.load(Ordering::Relaxed);
        out.push_str(&format!(
            "{name}_bucket{{{labels}le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!("{name}_sum{{{labels}}} {}\n", self.sum_us()));
        out.push_str(&format!("{name}_count{{{labels}}} {}\n", self.count()));
    }
}

/// Per-pack observability.
#[derive(Debug)]
pub struct PackMetrics {
    pub pack_id: String,
    pub slug: String,
    /// Uncached probes executed against this pack's validator.
    pub probes: AtomicU64,
    /// Probes that returned `true`.
    pub accepts: AtomicU64,
    /// Latency of uncached probes.
    pub latency: Histogram,
}

impl PackMetrics {
    pub fn new(pack_id: &str, slug: &str) -> PackMetrics {
        PackMetrics {
            pack_id: pack_id.to_string(),
            slug: slug.to_string(),
            probes: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
            latency: Histogram::default(),
        }
    }

    fn labels(&self) -> String {
        format!("pack=\"{}\",slug=\"{}\"", self.pack_id, self.slug)
    }
}

/// The routes whose requests are counted one series each.
#[derive(Clone, Copy)]
pub(crate) enum Route {
    Detect,
    DetectColumn,
    DetectTable,
    Healthz,
    Metrics,
}

impl Route {
    /// Every route, in the order `render` emits them.
    const ALL: [Route; 5] = [
        Route::Detect,
        Route::DetectColumn,
        Route::DetectTable,
        Route::Healthz,
        Route::Metrics,
    ];

    /// The route's series name and HELP text.
    const fn series(self) -> (&'static str, &'static str) {
        match self {
            Route::Detect => ("autotype_requests_detect_total", "POST /detect requests"),
            Route::DetectColumn => (
                "autotype_requests_detect_column_total",
                "POST /detect/column requests",
            ),
            Route::DetectTable => (
                "autotype_requests_detect_table_total",
                "POST /detect/table requests",
            ),
            Route::Healthz => ("autotype_requests_healthz_total", "GET /healthz requests"),
            Route::Metrics => ("autotype_requests_metrics_total", "GET /metrics requests"),
        }
    }
}

/// All counters the service exposes.
#[derive(Debug)]
pub struct Metrics {
    pub requests_total: AtomicU64,
    /// Requests per route, indexed by [`Route`].
    requests: [AtomicU64; Route::ALL.len()],
    /// 4xx/5xx responses (bad JSON, over-limit bodies, unknown routes).
    pub http_errors: AtomicU64,
    /// TCP connections accepted (each may carry many keep-alive requests).
    pub connections_total: AtomicU64,
    /// Connections refused with 503 because the handler pool was saturated.
    pub connections_shed: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    /// Matrix cells the lazy tiered scheduler never issued — the probes an
    /// eager `value × pack` sweep would have run but first-match-wins (or
    /// the column threshold math) proved dead.
    pub probes_saved: AtomicU64,
    /// Kept for perfbench, which reads them: probes share their seat's
    /// executor of each pack, so nothing bumps these and `/metrics` does
    /// not export them.
    pub executors_reused: AtomicU64,
    pub executors_cloned: AtomicU64,
    /// Total interpreter fuel burned by uncached probes.
    pub fuel_spent: AtomicU64,
    /// Values the service answered (across batch and column requests).
    pub values_served: AtomicU64,
    pub per_pack: Vec<PackMetrics>,
}

impl Metrics {
    pub fn new(packs: &[(String, String)]) -> Metrics {
        Metrics {
            requests_total: AtomicU64::new(0),
            requests: Default::default(),
            http_errors: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            probes_saved: AtomicU64::new(0),
            executors_reused: AtomicU64::new(0),
            executors_cloned: AtomicU64::new(0),
            fuel_spent: AtomicU64::new(0),
            values_served: AtomicU64::new(0),
            per_pack: packs
                .iter()
                .map(|(id, slug)| PackMetrics::new(id, slug))
                .collect(),
        }
    }

    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Count one request on `route`.
    pub(crate) fn bump_route(&self, route: Route) {
        Self::bump(&self.requests[route as usize]);
    }

    /// Prometheus text exposition: every family gets exactly one HELP and
    /// one TYPE line, before its first sample.
    pub fn render(&self, cache_entries: usize) -> String {
        let mut out = String::with_capacity(4096);
        let mut counters = vec![(
            "autotype_requests_total",
            "HTTP requests received",
            &self.requests_total,
        )];
        counters.extend(Route::ALL.iter().map(|&route| {
            let (name, help) = route.series();
            (name, help, &self.requests[route as usize])
        }));
        counters.extend([
            (
                "autotype_http_errors_total",
                "Error responses returned",
                &self.http_errors,
            ),
            (
                "autotype_cache_hits_total",
                "Verdict cache hits",
                &self.cache_hits,
            ),
            (
                "autotype_cache_misses_total",
                "Verdict cache misses",
                &self.cache_misses,
            ),
            (
                "autotype_connections_total",
                "TCP connections accepted",
                &self.connections_total,
            ),
            (
                "autotype_connections_shed_total",
                "Connections refused with 503 under saturation",
                &self.connections_shed,
            ),
            (
                "autotype_probes_saved_total",
                "Probe cells skipped by lazy tiered scheduling vs the eager matrix",
                &self.probes_saved,
            ),
            (
                "autotype_fuel_spent_total",
                "Interpreter fuel burned by uncached probes",
                &self.fuel_spent,
            ),
            (
                "autotype_values_served_total",
                "Values answered across batch and column requests",
                &self.values_served,
            ),
        ]);
        for (name, help, counter) in counters {
            family(&mut out, name, "counter", help);
            out.push_str(&format!("{name} {}\n", Self::read(counter)));
        }
        family(
            &mut out,
            "autotype_cache_entries",
            "gauge",
            "Verdicts currently cached",
        );
        out.push_str(&format!("autotype_cache_entries {cache_entries}\n"));

        self.per_pack_counter(
            &mut out,
            "autotype_pack_probes_total",
            "Uncached probes per pack",
            |pm| &pm.probes,
        );
        self.per_pack_counter(
            &mut out,
            "autotype_pack_accepts_total",
            "Uncached probes per pack that accepted",
            |pm| &pm.accepts,
        );
        let latency = "autotype_pack_probe_latency_us";
        family(
            &mut out,
            latency,
            "histogram",
            "Uncached probe latency per pack, in microseconds",
        );
        for pm in &self.per_pack {
            pm.latency
                .render(&mut out, latency, &format!("{},", pm.labels()));
        }
        out
    }

    /// One counter family with a sample per pack.
    fn per_pack_counter(
        &self,
        out: &mut String,
        name: &str,
        help: &str,
        counter: impl Fn(&PackMetrics) -> &AtomicU64,
    ) {
        family(out, name, "counter", help);
        for pm in &self.per_pack {
            let value = Self::read(counter(pm));
            out.push_str(&format!("{name}{{{}}} {value}\n", pm.labels()));
        }
    }
}

/// The HELP and TYPE lines that open a metric family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let h = Histogram::default();
        h.record_us(5); // le=10
        h.record_us(60); // le=100
        h.record_us(1_000_000); // +Inf overflow
        let mut out = String::new();
        h.render(&mut out, "t", "");
        assert!(out.contains("t_bucket{le=\"10\"} 1"), "{out}");
        assert!(out.contains("t_bucket{le=\"100\"} 2"), "{out}");
        assert!(out.contains("t_bucket{le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("t_count{} 3"), "{out}");
        assert_eq!(h.sum_us(), 1_000_065);
    }

    #[test]
    fn microsecond_probes_get_their_own_buckets() {
        let h = Histogram::default();
        h.record_us(3);
        let mut out = String::new();
        h.render(&mut out, "t", "");
        assert!(out.contains("t_bucket{le=\"1\"} 0\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"2\"} 0\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"5\"} 1\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"10\"} 1\n"), "{out}");
    }

    #[test]
    fn render_includes_per_pack_series() {
        let m = Metrics::new(&[
            ("cc-abc".into(), "creditcard".into()),
            ("ip-def".into(), "ipv6".into()),
        ]);
        Metrics::bump(&m.per_pack[0].probes);
        Metrics::bump(&m.per_pack[1].accepts);
        m.per_pack[0].latency.record_us(42);
        // Route i is bumped i + 1 times, so a series counted under another
        // route's name shows up as a wrong count.
        for (i, &route) in Route::ALL.iter().enumerate() {
            for _ in 0..=i {
                m.bump_route(route);
            }
        }
        let text = m.render(7);
        assert!(text.contains("autotype_pack_probes_total{pack=\"cc-abc\",slug=\"creditcard\"} 1"));
        assert!(text.contains("autotype_pack_accepts_total{pack=\"ip-def\",slug=\"ipv6\"} 1"));
        for (i, route) in Route::ALL.iter().enumerate() {
            let (name, _) = route.series();
            assert!(text.contains(&format!("\n{name} {}\n", i + 1)), "{name}");
        }
        assert!(text.contains("autotype_cache_entries 7"));
        assert!(text.contains("autotype_pack_probe_latency_us_count"));

        // Every family has exactly one HELP and one TYPE line, the HELP
        // right before the TYPE, and both come before its first sample.
        let lines: Vec<&str> = text.lines().collect();
        let mut kind = std::collections::HashMap::new();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, k) = rest.split_once(' ').unwrap();
                assert!(kind.insert(name, k).is_none(), "second TYPE for {name}");
                assert!(lines[i - 1].starts_with(&format!("# HELP {name} ")));
            } else if !line.starts_with('#') {
                let series = line.split(['{', ' ']).next().unwrap();
                let family = ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|s| series.strip_suffix(s))
                    .filter(|f| kind.get(f) == Some(&"histogram"))
                    .unwrap_or(series);
                assert!(kind.contains_key(family), "no TYPE before {line}");
            }
        }
        let helps = lines.iter().filter(|l| l.starts_with("# HELP ")).count();
        assert_eq!(helps, kind.len(), "one HELP per family");
        assert_eq!(kind["autotype_cache_entries"], "gauge");
        assert_eq!(kind["autotype_pack_probes_total"], "counter");
        assert_eq!(kind["autotype_pack_accepts_total"], "counter");
        assert_eq!(kind["autotype_pack_probe_latency_us"], "histogram");
    }
}
