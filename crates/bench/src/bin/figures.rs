//! Regenerate every table and figure of the AutoType paper.
//!
//! ```text
//! figures [experiment] [--full]
//! ```
//!
//! `experiment` is one of the paper's figures and tables, `fig8` through
//! `table3` (the names are listed in `EXPERIMENTS`), or `all`, the
//! default, which runs every one of them in that order. An unknown
//! experiment, a second experiment or an unknown flag prints the usage to
//! stderr and exits with status 2.
//!
//! Without `--full`, sweeps run over the 20 popular types and a scaled
//! table corpus so the whole suite finishes in minutes; `--full` evaluates
//! all 112 benchmark types and the full-scale column corpus.

use autotype::{AutoType, AutoTypeConfig};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_eval as eval;
use autotype_eval::EvalConfig;
use autotype_rank::Method;
use autotype_typesys::{popular_types, registry, SemanticType};

/// The experiments, in the order `all` runs them; the usage text and the
/// argument check both read this list.
const EXPERIMENTS: [&str; 10] = [
    "fig8", "fig9", "fig10a", "fig10b", "fig10c", "fig12", "fig13", "fig14", "table2", "table3",
];

fn usage_error() -> ! {
    eprintln!(
        "usage: figures [experiment] [--full]\nexperiments: {} all",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut full = false;
    let mut which: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--full" {
            full = true;
        } else if which.is_none() && (arg == "all" || EXPERIMENTS.contains(&arg.as_str())) {
            which = Some(arg);
        } else {
            usage_error();
        }
    }
    let which = which.as_deref().unwrap_or("all");

    let engine = AutoType::new(
        build_corpus(&CorpusConfig::default()),
        AutoTypeConfig::default(),
    );
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
