//! Regenerate every table and figure of the AutoType paper.
//!
//! ```text
//! figures [experiment] [--full]
//!
//! experiments: fig8 fig9 fig10a fig10b fig10c fig12 fig13 fig14
//!              table2 table3 all bench-json
//! ```
//!
//! `bench-json` is not part of `all`: it sweeps the exec-pool worker count
//! over a few representative types and writes per-stage wall-clock timings
//! to `BENCH_pipeline.json` — the synthesis pipeline stages per type, plus
//! the batched table2 column detection and the search-index build (figures
//! themselves are bit-identical at every worker count; only the timings
//! vary).
//!
//! Without `--full`, sweeps run over the 20 popular types and a scaled
//! table corpus so the whole suite finishes in minutes; `--full` evaluates
//! all 112 benchmark types and the full-scale column corpus.

use autotype_bench::{engine_with_workers, session_for, standard_engine};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_eval as eval;
use autotype_eval::EvalConfig;
use autotype_exec::ExecPool;
use autotype_rank::Method;
use autotype_search::SearchEngine;
use autotype_typesys::{popular_types, registry, SemanticType};
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .unwrap_or("all");

    if which == "bench-json" {
        bench_json();
        return;
    }

    let engine = standard_engine();
    let cfg = EvalConfig::default();
    let popular: Vec<&SemanticType> = popular_types();
    let all_types: Vec<&SemanticType> = registry().iter().collect();
    let fig8_types: &[&SemanticType] = if full { &all_types } else { &popular };

    let run = |name: &str| which == name || which == "all";

    if run("fig8") {
        println!(
            "== Figure 8: ranking quality ({} types) ==",
            fig8_types.len()
        );
        let results = eval::fig8(&engine, fig8_types, &cfg);
        print!("{:<8}", "method");
        for k in 1..=cfg.k_max {
            print!("  p@{k:<4}");
        }
        for k in 1..=cfg.k_max {
            print!(" ndcg@{k}");
        }
        println!("  rel-recall@{}", cfg.k_max);
        for r in &results {
            print!("{:<8}", r.method.name());
            for p in &r.precision_at {
                print!("  {p:>5.2}");
            }
            for n in &r.ndcg_at {
                print!("  {n:>5.2}");
            }
            println!("  {:>5.2}", r.relative_recall);
        }
        println!();
    }

    if run("fig9") {
        println!("== Figure 9 / §8.2.2: coverage over all 112 types ==");
        let report = eval::fig9(&engine, &all_types, &cfg);
        println!(
            "covered {}/{} types; mean relevant functions per covered type: {:.1}",
            report.covered, report.total, report.mean_relevant
        );
        // Distribution histogram.
        let mut buckets = [0usize; 7]; // 0,1-2,3-4,5-6,7-9,10-14,15+
        for (_, n) in &report.per_type {
            let b = match n {
                0 => 0,
                1..=2 => 1,
                3..=4 => 2,
                5..=6 => 3,
                7..=9 => 4,
                10..=14 => 5,
                _ => 6,
            };
            buckets[b] += 1;
        }
        let labels = ["0", "1-2", "3-4", "5-6", "7-9", "10-14", "15+"];
        for (label, count) in labels.iter().zip(buckets) {
            println!(
                "  {label:>6} relevant functions: {count:>3} types {}",
                "#".repeat(count)
            );
        }
        println!();
    }

    if run("fig10a") {
        println!("== Figure 10(a): #positive examples (DNF-S, 20 popular types) ==");
        println!("{:<12} p@1   p@2   p@3   p@4", "examples");
        for n in [10usize, 20, 30] {
            let p = eval::sensitivity_examples(&engine, &popular, &cfg, n, 0.0, Method::DnfS);
            println!("{n:<12} {:.2}  {:.2}  {:.2}  {:.2}", p[0], p[1], p[2], p[3]);
        }
        println!();
    }

    if run("fig10b") {
        println!("== Figure 10(b): noise in positive examples (DNF-S) ==");
        println!("{:<12} p@1   p@2   p@3   p@4", "noise");
        for noise in [0.0, 0.1, 0.2, 0.3] {
            let p =
                eval::sensitivity_examples(&engine, &popular, &cfg, cfg.n_pos, noise, Method::DnfS);
            println!(
                "{:<12} {:.2}  {:.2}  {:.2}  {:.2}",
                format!("{:.0}%", noise * 100.0),
                p[0],
                p[1],
                p[2],
                p[3]
            );
        }
        println!();
    }

    if run("fig10c") {
        println!("== Figure 10(c): negative-generation ablation ==");
        println!("{:<18} p@1   p@2   p@3   p@4", "mode");
        for (label, p) in eval::fig10c(&engine, &popular, &cfg) {
            println!(
                "{label:<18} {:.2}  {:.2}  {:.2}  {:.2}",
                p[0], p[1], p[2], p[3]
            );
        }
        println!();
    }

    if run("fig12") {
        println!("== Figure 12: keyword sensitivity (10 types × alternates) ==");
        for (ty, rows) in eval::fig12(&engine, &cfg) {
            println!("{ty}:");
            for (keyword, p) in rows {
                println!(
                    "  {keyword:<55} p@1 {:.2}  p@2 {:.2}  p@3 {:.2}  p@4 {:.2}",
                    p[0], p[1], p[2], p[3]
                );
            }
        }
        println!();
    }

    if run("fig13") {
        println!("== Figure 13: LR sensitivity to #examples vs DNF-S ==");
        println!("{:<22} p@1   p@2   p@3   p@4", "setting");
        let d = eval::sensitivity_examples(&engine, &popular, &cfg, 20, 0.0, Method::DnfS);
        println!(
            "{:<22} {:.2}  {:.2}  {:.2}  {:.2}",
            "DNF-S #pos=20", d[0], d[1], d[2], d[3]
        );
        for n in [10usize, 20, 30] {
            let p = eval::sensitivity_examples(&engine, &popular, &cfg, n, 0.0, Method::Lr);
            println!(
                "{:<22} {:.2}  {:.2}  {:.2}  {:.2}",
                format!("LR #pos={n}"),
                p[0],
                p[1],
                p[2],
                p[3]
            );
        }
        println!();
    }

    if run("fig14") {
        println!("== Figure 14: running-time distribution (simulated minutes) ==");
        let fuel_per_minute = 25_000.0;
        let types: &[&SemanticType] = if full { &all_types } else { &popular };
        let times = eval::fig14(&engine, types, &cfg, fuel_per_minute);
        let under10 = times.iter().filter(|(_, m)| *m < 10.0).count();
        let capped = times.iter().filter(|(_, m)| *m >= 60.0).count();
        println!(
            "{} types < 10 min; {} types hit the 60-min cap (of {})",
            under10,
            capped,
            times.len()
        );
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        for (name, minutes) in sorted.iter().take(10) {
            println!("  {minutes:>5.1} min  {name}");
        }
        println!();
    }

    if run("table2") {
        let (scale, untyped) = if full { (1.0, 20_000) } else { (0.1, 600) };
        println!("== Table 2 / Figure 11: column-type detection (scale {scale}) ==");
        println!(
            "{:<12} {:>16} {:>16} {:>16} {:>7}   F: dnf   regex  kw",
            "type", "DNF-S", "KW", "REGEX", "union"
        );
        let rows = eval::table2(&engine, &cfg, scale, untyped);
        for r in &rows {
            let fmt = |o: &autotype_eval::Table2Row, which: u8| {
                let oc = match which {
                    0 => &o.dnf,
                    1 => &o.kw,
                    _ => &o.regex,
                };
                if oc.detected == 0 {
                    "0 (-)".to_string()
                } else {
                    format!("{} ({:.2})", oc.correct, oc.precision())
                }
            };
            let (fd, fr, fk) = r.f_scores();
            println!(
                "{:<12} {:>16} {:>16} {:>16} {:>7}   {fd:.2}   {fr:.2}   {fk:.2}",
                r.slug,
                fmt(r, 0),
                fmt(r, 1),
                fmt(r, 2),
                r.union_all
            );
        }
        println!();
    }

    if run("table3") {
        println!("== Table 3: semantic transformations (20 popular types) ==");
        let rows = eval::table3(&engine, &cfg);
        let counts: Vec<f64> = rows.iter().map(|(_, t)| t.len() as f64).collect();
        for (ty, transforms) in &rows {
            let preview: Vec<&str> = transforms.iter().take(6).map(|s| s.as_str()).collect();
            println!("{ty:<28} ({:>2}) {}", transforms.len(), preview.join(", "));
        }
        println!(
            "mean transformations per type: {:.1}",
            autotype_eval::mean(&counts)
        );
        println!();
    }
}

/// Sweep the trace-engine worker count and record per-stage wall-clock
/// timings: the per-type synthesis pipeline, the batched table2 column
/// detection, and the search-index build. Written as hand-rolled JSON: the
/// repo is dependency-free by policy and the schema is a few numbers per
/// row.
fn bench_json() {
    let ms = |t: std::time::Instant| t.elapsed().as_secs_f64() * 1e3;
    let cfg = EvalConfig::default();
    let slugs = ["creditcard", "ipv6", "isbn"];
    let mut rows: Vec<eval::StageTimings> = Vec::new();
    let mut detection_rows: Vec<(eval::Table2Timings, f64, usize)> = Vec::new();
    let documents = autotype::corpus_documents(&build_corpus(&CorpusConfig::default()));
    println!("== bench-json: per-stage timings across worker counts ==");
    for workers in [1usize, 2, 4, 8] {
        let engine = engine_with_workers(workers);
        for slug in slugs {
            let Some(t) = eval::pipeline_timings(&engine, slug, &cfg) else {
                eprintln!("  skipped {slug} at workers={workers}: no session");
                continue;
            };
            println!(
                "workers={:<2} {:<12} retrieval {:>8.3} ms  trace {:>9.3} ms  rank {:>8.3} ms  validate {:>8.3} ms  ({} ranked, fuel {})",
                t.workers, t.slug, t.retrieval_ms, t.trace_ms, t.rank_ms, t.validate_ms, t.ranked, t.fuel_spent
            );
            rows.push(t);
        }

        // Both-engine index build over the corpus documents (the serial
        // phase ROADMAP flagged; one job per repository document).
        let pool = ExecPool::new(workers);
        let t = std::time::Instant::now();
        let gh = SearchEngine::github_with_pool(&documents, &pool);
        let bing = SearchEngine::bing_with_pool(&documents, &pool);
        let index_build_ms = ms(t);
        std::hint::black_box((&gh, &bing));

        // Batched table2 column detection (lazy tiered scheduling through
        // the exec pool).
        let out = eval::table2_full(&engine, &cfg, 0.1, 600);
        println!(
            "workers={:<2} table2: sessions {:>9.3} ms  dnf-detect {:>9.3} ms  kw {:>7.3} ms  regex {:>8.3} ms  index-build {:>8.3} ms  ({} columns, {} dnf detections)",
            workers,
            out.timings.sessions_ms,
            out.timings.dnf_ms,
            out.timings.kw_ms,
            out.timings.regex_ms,
            index_build_ms,
            out.timings.columns,
            out.dnf.len()
        );
        detection_rows.push((out.timings, index_build_ms, out.dnf.len()));
    }

    // --- Serve: pack cold-load and verdict-cache latency. ---
    // Synthesize one pack per slug, then measure what a deployment sees:
    // cold pack load, first (uncached) batch, repeat (cached) batch.
    println!("== bench-json: serve (pack cold-load + verdict cache) ==");
    struct ServeRow {
        slug: String,
        pack_id: String,
        pack_bytes: u64,
        cold_load_ms: f64,
    }
    let pack_dir =
        std::env::temp_dir().join(format!("autotype-bench-packs-{}", std::process::id()));
    std::fs::create_dir_all(&pack_dir).expect("pack dir");
    let engine = standard_engine();
    let mut serve_rows: Vec<ServeRow> = Vec::new();
    let mut batch: Vec<String> = Vec::new();
    for (i, slug) in slugs.iter().enumerate() {
        let (mut session, ty) = session_for(&engine, slug, 20, 0xBEEF + i as u64);
        let ranked = session.rank(Method::DnfS);
        let Some(top) = ranked.first().cloned() else {
            eprintln!("  skipped {slug}: nothing ranked");
            continue;
        };
        let path = pack_dir.join(format!("{i:02}-{slug}.atpk"));
        session
            .save_pack(&top, slug, Method::DnfS, &path)
            .expect("save pack");
        let pack_bytes = std::fs::metadata(&path).expect("pack metadata").len();
        let t = std::time::Instant::now();
        let validator = autotype_pack::load_pack(&path).expect("load pack");
        let cold_load_ms = ms(t);
        println!(
            "serve: {:<12} pack {:>7} bytes  cold-load {:>7.3} ms  ({})",
            slug,
            pack_bytes,
            cold_load_ms,
            validator.pack_id()
        );
        serve_rows.push(ServeRow {
            slug: slug.to_string(),
            pack_id: validator.pack_id().to_string(),
            pack_bytes,
            cold_load_ms,
        });
        // The probe batch: this type's positives plus shared junk.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xCAFE + i as u64);
        batch.extend(ty.examples(&mut rng, 20));
    }
    for junk in ["", "hello world", "12345", "not-a-type", "###"] {
        batch.push(junk.to_string());
    }
    let serve_workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let runtime = autotype_serve::DetectorRuntime::load_dir(&pack_dir, serve_workers, 65_536)
        .expect("serve runtime");
    let t = std::time::Instant::now();
    let uncached = runtime.detect_batch(&batch);
    let uncached_batch_ms = ms(t);
    let t = std::time::Instant::now();
    let cached = runtime.detect_batch(&batch);
    let cached_batch_ms = ms(t);
    assert_eq!(uncached, cached, "cache must be verdict-transparent");
    let hit_rate = runtime.metrics().hit_rate();
    let per_value = |total_ms: f64| total_ms * 1e3 / batch.len().max(1) as f64;
    println!(
        "serve: batch of {} values  uncached {:>8.3} ms ({:>7.1} us/value)  cached {:>7.3} ms ({:>6.1} us/value)  hit rate {:.3}",
        batch.len(),
        uncached_batch_ms,
        per_value(uncached_batch_ms),
        cached_batch_ms,
        per_value(cached_batch_ms),
        hit_rate
    );
    let executors_reused = autotype_serve::Metrics::read(&runtime.metrics().executors_reused);
    let executors_cloned = autotype_serve::Metrics::read(&runtime.metrics().executors_cloned);

    // --- Serve throughput: lazy vs eager probe counts, keep-alive vs
    // per-request connections. Fresh runtimes so caches start cold and
    // the probe counts are comparable.
    println!("== bench-json: serve throughput (lazy scheduling + keep-alive) ==");
    let lazy_rt = autotype_serve::DetectorRuntime::load_dir(&pack_dir, serve_workers, 65_536)
        .expect("lazy runtime");
    lazy_rt.detect_batch(&batch);
    let lazy_probes = autotype_serve::Metrics::read(&lazy_rt.metrics().cache_misses);
    let probes_saved = autotype_serve::Metrics::read(&lazy_rt.metrics().probes_saved);
    // The eager matrix probes every `value × pack` cell.
    let eager_probes = (batch.len() * lazy_rt.packs().len()) as u64;
    println!(
        "serve: probes issued  lazy {lazy_probes}  eager {eager_probes}  saved {probes_saved}"
    );
    assert!(
        lazy_probes <= eager_probes,
        "lazy scheduling must not issue more probes than the eager matrix"
    );

    let http_rt = std::sync::Arc::new(
        autotype_serve::DetectorRuntime::load_dir(&pack_dir, serve_workers, 65_536)
            .expect("http runtime"),
    );
    let handle = autotype_serve::serve(
        http_rt,
        autotype_serve::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..autotype_serve::ServerConfig::default()
        },
    )
    .expect("bind bench server");
    let addr = handle.addr();
    let body = format!("{{\"value\":\"{}\"}}", batch[0]);
    const HTTP_REQUESTS: usize = 64;
    // Warm the verdict cache so both runs measure HTTP overhead, not
    // first-probe interpreter time.
    http_request_close(addr, &body);

    let t = std::time::Instant::now();
    http_requests_keepalive(addr, &body, HTTP_REQUESTS);
    let keepalive_ms = ms(t);
    let t = std::time::Instant::now();
    for _ in 0..HTTP_REQUESTS {
        http_request_close(addr, &body);
    }
    let close_ms = ms(t);
    handle.shutdown();
    let req_per_s = |total_ms: f64| HTTP_REQUESTS as f64 / (total_ms / 1e3);
    println!(
        "serve: {HTTP_REQUESTS} requests  keep-alive {:>8.3} ms ({:>8.0} req/s)  close {:>8.3} ms ({:>8.0} req/s)",
        keepalive_ms,
        req_per_s(keepalive_ms),
        close_ms,
        req_per_s(close_ms)
    );
    std::fs::remove_dir_all(&pack_dir).ok();

    let mut out = String::from(
        "{\n  \"bench\": \"pipeline_stage_timings\",\n  \"unit\": \"ms\",\n  \"stages\": [\"retrieval\", \"trace\", \"rank\", \"validate\"],\n  \"rows\": [\n",
    );
    for (i, t) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"slug\": \"{}\", \"workers\": {}, \"retrieval_ms\": {:.3}, \"trace_ms\": {:.3}, \"rank_ms\": {:.3}, \"validate_ms\": {:.3}, \"ranked\": {}, \"fuel_spent\": {}}}{}\n",
            t.slug,
            t.workers,
            t.retrieval_ms,
            t.trace_ms,
            t.rank_ms,
            t.validate_ms,
            t.ranked,
            t.fuel_spent,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str(
        "  ],\n  \"detection_stages\": [\"sessions\", \"dnf_detect\", \"kw_detect\", \"regex_detect\", \"index_build\"],\n  \"detection_rows\": [\n",
    );
    for (i, (t, index_build_ms, dnf_detections)) in detection_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"columns\": {}, \"sessions_ms\": {:.3}, \"dnf_detect_ms\": {:.3}, \"kw_detect_ms\": {:.3}, \"regex_detect_ms\": {:.3}, \"index_build_ms\": {:.3}, \"dnf_detections\": {}}}{}\n",
            t.workers,
            t.columns,
            t.sessions_ms,
            t.dnf_ms,
            t.kw_ms,
            t.regex_ms,
            index_build_ms,
            dnf_detections,
            if i + 1 == detection_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"serve_rows\": [\n");
    for (i, r) in serve_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"slug\": \"{}\", \"pack_id\": \"{}\", \"pack_bytes\": {}, \"cold_load_ms\": {:.3}}}{}\n",
            r.slug,
            r.pack_id,
            r.pack_bytes,
            r.cold_load_ms,
            if i + 1 == serve_rows.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"serve_summary\": {{\"packs\": {}, \"workers\": {}, \"batch_values\": {}, \"uncached_batch_ms\": {:.3}, \"uncached_us_per_value\": {:.1}, \"cached_batch_ms\": {:.3}, \"cached_us_per_value\": {:.1}, \"cache_hit_rate\": {:.4}, \"executors_reused\": {executors_reused}, \"executors_cloned\": {executors_cloned}}},\n",
        serve_rows.len(),
        serve_workers,
        batch.len(),
        uncached_batch_ms,
        per_value(uncached_batch_ms),
        cached_batch_ms,
        per_value(cached_batch_ms),
        hit_rate
    ));
    out.push_str(&format!(
        "  \"serve_throughput\": {{\"requests\": {HTTP_REQUESTS}, \"keepalive_ms\": {:.3}, \"keepalive_req_per_s\": {:.0}, \"close_ms\": {:.3}, \"close_req_per_s\": {:.0}, \"lazy_probes\": {lazy_probes}, \"eager_probes\": {eager_probes}, \"probes_saved\": {probes_saved}, \"uncached_us_per_value\": {:.1}}}\n",
        keepalive_ms,
        req_per_s(keepalive_ms),
        close_ms,
        req_per_s(close_ms),
        per_value(uncached_batch_ms)
    ));
    out.push_str("}\n");
    std::fs::write("BENCH_pipeline.json", &out).expect("write BENCH_pipeline.json");
    println!(
        "wrote BENCH_pipeline.json ({} pipeline rows, {} detection rows, {} serve rows)",
        rows.len(),
        detection_rows.len(),
        serve_rows.len()
    );
}

/// One `POST /detect` with `Connection: close`, reading to EOF.
fn http_request_close(addr: std::net::SocketAddr, body: &str) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let request = format!(
        "POST /detect HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
}

/// `n` `POST /detect` requests pipelined serially over one persistent
/// connection, each response framed by Content-Length.
fn http_requests_keepalive(addr: std::net::SocketAddr, body: &str, n: usize) {
    use std::io::{BufRead, BufReader, Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let request = format!(
        "POST /detect HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    for _ in 0..n {
        stream.write_all(request.as_bytes()).expect("write");
        let mut status = String::new();
        reader.read_line(&mut status).expect("status");
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("length");
                }
            }
        }
        let mut resp = vec![0u8; content_length];
        reader.read_exact(&mut resp).expect("body");
    }
}
