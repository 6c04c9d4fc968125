//! The serving half: synthesize the 15 packs, serve them over loopback, and
//! drive the service with closed-loop keep-alive clients.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use autotype::{Pack, PackValidator};
use autotype_serve::json;
use autotype_serve::{
    serve, DetectorRuntime, Metrics as ServeMetrics, ServerConfig, ServerHandle, ShardedLru,
};

use crate::client::Connection;
use crate::layers;
use crate::replay::{self, SessionWork};
use crate::report::{
    available_parallelism, calm_limit, calm_medians, cpu_ticks, mean, median, peak_rss_mb,
    percentile, ratio, steal_share, windows, Done,
};
use crate::spans::Tracer;
use crate::stream::{ClientStream, ColdStream, HotSet, Request, ValueSource};
use crate::synth::{self, mix, TypeInput};
use crate::{Args, Run};

/// Verdict cache size of the service.
pub const CACHE_CAPACITY: usize = 65_536;
/// Shards of the service's verdict cache (the runtime's fixed count).
const CACHE_SHARDS: usize = 16;
/// Rounds of set-up and timed segment per run; `setup_s` is the calm
/// median of their set-ups.
pub const ROUNDS: usize = 6;
/// Closed-loop clients, one keep-alive connection each. One client keeps
/// the threads that run at once (client, connection handler, the
/// runtime's workers) near the core count, so the figures measure the
/// service rather than the scheduler.
const CLIENTS: usize = 1;
/// Width of the windows the timed phase is cut into, in seconds.
const WINDOW_S: f64 = 0.5;
/// Distinct values the probe replay walks down the pack priority order.
const PROBE_REPLAY_VALUES: usize = 200;

/// A running service and what it took to build it.
struct Service {
    packs: Vec<Pack>,
    dir: PathBuf,
    runtime: Arc<DetectorRuntime>,
    handle: ServerHandle,
    /// Each type's synthesis time and steal share.
    synth_ms: Vec<(f64, f64)>,
    rank_ms: f64,
    export_ms: f64,
    ranked: usize,
    load_ms: f64,
    work: Vec<SessionWork>,
}

impl Service {
    fn stop(self) {
        self.handle.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

/// What each set-up took, each time with the steal share while it ran.
#[derive(Default)]
struct SetupSamples {
    setup_s: Vec<(f64, f64)>,
    /// Per type, in input order.
    type_ms: Vec<Vec<(f64, f64)>>,
    load_ms: Vec<f64>,
}

impl SetupSamples {
    /// Time one set-up ([`start`]) and keep its samples.
    fn set_up(
        &mut self,
        rep: usize,
        inputs: &[TypeInput],
        workers: usize,
        tracer: &Tracer,
        warm: &dyn Fn(&DetectorRuntime, SocketAddr) -> Result<(), String>,
    ) -> Result<Service, String> {
        let dir = PathBuf::from(".perfbench").join(format!("packs-{}-{rep}", std::process::id()));
        let ticks = cpu_ticks();
        let t = Instant::now();
        let s = start(inputs, workers, &dir, tracer, warm)?;
        let secs = t.elapsed().as_secs_f64();
        let steal = steal_share(ticks, cpu_ticks());
        self.setup_s.push((secs, steal));
        for (samples, sample) in self.type_ms.iter_mut().zip(&s.synth_ms) {
            samples.push(*sample);
        }
        self.load_ms.push(s.load_ms);
        Ok(s)
    }
}

/// Synthesize every type, save the packs in priority order, load them with
/// `load_dir`, bind on loopback, and warm up.
fn start(
    inputs: &[TypeInput],
    workers: usize,
    dir: &Path,
    tracer: &Tracer,
    warm: &dyn Fn(&DetectorRuntime, SocketAddr) -> Result<(), String>,
) -> Result<Service, String> {
    let engine = synth::engine(workers);
    let mut packs = Vec::with_capacity(inputs.len());
    let mut synth_ms = Vec::with_capacity(inputs.len());
    let mut work = Vec::with_capacity(inputs.len());
    let (mut rank_ms, mut export_ms, mut ranked) = (0.0, 0.0, 0);
    for input in inputs {
        let s = synth::synthesize(&engine, input, tracer, None)
            .ok_or_else(|| format!("{}: no pack", input.slug))?;
        synth_ms.push((s.ms, s.steal));
        rank_ms += s.rank_ms;
        export_ms += s.export_ms;
        ranked += s.ranked;
        work.push(s.work);
        packs.push(s.pack);
    }
    drop(engine);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (i, pack) in packs.iter().enumerate() {
        let path = dir.join(format!("{i:02}-{}.atpk", pack.slug));
        pack.save(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let t = Instant::now();
    let runtime = DetectorRuntime::load_dir(dir, workers, CACHE_CAPACITY)
        .map_err(|e| format!("load_dir: {e}"))?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let runtime = Arc::new(runtime);
    let handle = serve(
        runtime.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: workers,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let service = Service {
        packs,
        dir: dir.to_path_buf(),
        runtime,
        handle,
        synth_ms,
        rank_ms,
        export_ms,
        ranked,
        load_ms,
        work,
    };
    match warm(&service.runtime, service.addr()) {
        Ok(()) => Ok(service),
        Err(e) => {
            service.stop();
            Err(format!("warm-up: {e}"))
        }
    }
}

/// One request sent during the timed phase. The request itself is not
/// kept, so that the harness's memory stays out of `peak_rss_mb`: the
/// client's stream regenerates it for the checks.
struct Exchange {
    end: Instant,
    latency_us: f64,
    values: usize,
    /// The pack each column or value was assigned (by index in priority
    /// order), or why the request failed.
    verdicts: Result<Vec<Option<usize>>, String>,
    traced: bool,
}

/// A closed loop on one keep-alive connection until the deadline.
fn drive(
    addr: SocketAddr,
    deadline: Instant,
    client: usize,
    tracer: &Tracer,
    slugs: &[&str],
    stream: &mut ClientStream<'_>,
) -> Vec<Exchange> {
    let mut out = Vec::new();
    let mut conn: Option<Connection> = None;
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let (request, close) = stream.next_request();
        let body = request.body();
        let request_id = ((client as u64) << 40) | seq;
        // A traced run traces every other request, so traced and untraced
        // latencies come from the same conditions.
        let traced = tracer.enabled() && seq % 2 == 1;
        seq += 1;
        let start = Instant::now();
        let response = match conn.as_mut() {
            Some(c) => c.request("POST", request.path(), &body, close),
            None => Connection::open(addr).and_then(|mut c| {
                let r = c.request("POST", request.path(), &body, close);
                conn = Some(c);
                r
            }),
        };
        let end = Instant::now();
        if traced {
            tracer.record("http.request", None, request_id, start, end);
        }
        if response.as_ref().map_or(true, |r| r.closed) {
            conn = None;
        }
        let verdicts = match response {
            Ok(r) if r.status == 200 => type_fields(&r.body, slugs),
            Ok(r) => Err(format!(
                "HTTP {} on {}: {}",
                r.status,
                request.path(),
                r.body
            )),
            Err(e) => Err(format!("{} failed: {e}", request.path())),
        };
        out.push(Exchange {
            end,
            latency_us: (end - start).as_secs_f64() * 1e6,
            values: request.value_count(),
            verdicts,
            traced,
        });
    }
    out
}

/// Counter snapshot for deltas over the timed phase.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    saved: u64,
    values: u64,
    connections: u64,
    shed: u64,
    errors: u64,
    reused: u64,
    cloned: u64,
}

impl Counters {
    fn read(m: &ServeMetrics) -> Counters {
        let r = ServeMetrics::read;
        Counters {
            hits: r(&m.cache_hits),
            misses: r(&m.cache_misses),
            saved: r(&m.probes_saved),
            values: r(&m.values_served),
            connections: r(&m.connections_total),
            shed: r(&m.connections_shed),
            errors: r(&m.http_errors),
            reused: r(&m.executors_reused),
            cloned: r(&m.executors_cloned),
        }
    }

    fn plus(self, other: Counters) -> Counters {
        Counters {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            saved: self.saved + other.saved,
            values: self.values + other.values,
            connections: self.connections + other.connections,
            shed: self.shed + other.shed,
            errors: self.errors + other.errors,
            reused: self.reused + other.reused,
            cloned: self.cloned + other.cloned,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            saved: self.saved - before.saved,
            values: self.values - before.values,
            connections: self.connections - before.connections,
            shed: self.shed - before.shed,
            errors: self.errors - before.errors,
            reused: self.reused - before.reused,
            cloned: self.cloned - before.cloned,
        }
    }
}

fn validators(packs: &[Pack]) -> Result<Vec<PackValidator>, String> {
    packs
        .iter()
        .map(|p| p.validator().map_err(|e| format!("{}: {e}", p.slug)))
        .collect()
}

/// A one-worker in-process runtime over the same packs: the reference
/// every HTTP verdict is checked against.
fn reference(packs: &[Pack]) -> Result<DetectorRuntime, String> {
    Ok(DetectorRuntime::from_packs(
        validators(packs)?,
        1,
        CACHE_CAPACITY,
    ))
}

/// The `"type"` fields of a response in order, as pack indices. Values
/// are escaped in the body, so the unescaped `"type":` only ever starts a
/// field.
fn type_fields(body: &str, slugs: &[&str]) -> Result<Vec<Option<usize>>, String> {
    let bad = || format!("malformed \"type\" field in {body}");
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find("\"type\":") {
        rest = &rest[at + "\"type\":".len()..];
        if let Some(after) = rest.strip_prefix("null") {
            out.push(None);
            rest = after;
            continue;
        }
        let quoted = rest.strip_prefix('"').ok_or_else(bad)?;
        let close = quoted.find('"').ok_or_else(bad)?;
        let slug = &quoted[..close];
        let pack = slugs
            .iter()
            .position(|s| *s == slug)
            .ok_or_else(|| format!("unknown type {slug:?} in {body}"))?;
        out.push(Some(pack));
        rest = &quoted[close + 1..];
    }
    Ok(out)
}

/// First pack accepting a value on the reference, memoized.
fn claim(
    reference: &DetectorRuntime,
    memo: &mut HashMap<String, Option<usize>>,
    v: &str,
) -> Option<usize> {
    if let Some(p) = memo.get(v) {
        return *p;
    }
    let p = reference.detect_value(v);
    memo.insert(v.to_string(), p);
    p
}

fn expected_verdicts(
    request: &Request,
    reference: &DetectorRuntime,
    memo: &mut HashMap<String, Option<usize>>,
) -> Vec<Option<usize>> {
    match request {
        Request::Column(values) => vec![reference.detect_column(values)],
        Request::Table(columns) => reference.detect_table(columns, None),
        Request::Value(v) => vec![claim(reference, memo, v)],
        Request::Values(vs) => vs.iter().map(|v| claim(reference, memo, v)).collect(),
    }
}

/// Keep the first few problem lines of a check.
fn note(problems: &mut Vec<String>, line: String) {
    if problems.len() < 8 {
        problems.push(line);
    }
}

/// Check every exchange against the reference. Returns the failed count
/// and a few problem lines.
fn verify(
    exchanges: &[(&Exchange, &Request)],
    reference: &DetectorRuntime,
    memo: &mut HashMap<String, Option<usize>>,
) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut problems = Vec::new();
    for (ex, request) in exchanges {
        let line = match &ex.verdicts {
            Err(e) => e.clone(),
            Ok(got) => {
                let expected = expected_verdicts(request, reference, memo);
                if *got == expected {
                    continue;
                }
                format!(
                    "verdict mismatch on {}: got {got:?}, reference {expected:?}",
                    request.path()
                )
            }
        };
        failed += 1;
        note(&mut problems, line);
    }
    (failed, problems)
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Run `serve_cold` (`hot == false`) or `serve_hot`.
pub fn run(args: &Args, hot: bool, run: &mut Run) -> Result<(), String> {
    let workers = available_parallelism();
    let clients = CLIENTS.min(workers);
    let tracer = Tracer::new(args.trace);
    let untraced = Tracer::new(false);
    let inputs = synth::type_inputs(args.seed);
    let hot_set = hot.then(|| HotSet::new(args.seed, clients));
    let seed = args.seed;

    let warm = |rt: &DetectorRuntime, addr: SocketAddr| -> Result<(), String> {
        let mut conn = Connection::open(addr).map_err(|e| e.to_string())?;
        let health = conn
            .request("GET", "/healthz", "", false)
            .map_err(|e| e.to_string())?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        match &hot_set {
            Some(set) => {
                rt.detect_batch(&set.working);
            }
            None => {
                // One column and one table request from a stream no timed
                // client draws from.
                let mut warmup = ColdStream::new(seed, usize::MAX >> 1);
                let mut sent = 0;
                while sent < 2 {
                    let request = warmup.next_request();
                    let r = conn
                        .request("POST", request.path(), &request.body(), false)
                        .map_err(|e| e.to_string())?;
                    if r.status != 200 {
                        return Err(format!("{} answered {}", request.path(), r.status));
                    }
                    sent += 1;
                }
            }
        }
        Ok(())
    };

    // The run is `ROUNDS` rounds of set-up followed by a timed segment, so
    // that set-up samples and timed windows both spread over the whole run.
    // The last set-up is traced in a traced run, and its service is the one
    // the checks and replays use.
    let mut samples = SetupSamples {
        type_ms: vec![Vec::new(); inputs.len()],
        ..SetupSamples::default()
    };
    let segment = Duration::from_secs_f64(args.seconds as f64 / ROUNDS as f64);
    let width = segment.min(Duration::from_secs_f64(WINDOW_S));
    let width_s = width.as_secs_f64();
    let mut streams: Vec<ClientStream<'_>> = (0..clients)
        .map(|c| ClientStream::new(hot_set.as_ref(), seed, c))
        .collect();
    let mut per_client: Vec<Vec<Exchange>> = (0..clients).map(|_| Vec::new()).collect();
    let (mut delta, mut elapsed, mut ticks) = (Counters::default(), 0.0, (0, 0));
    // Throughput, median latency and steal share of each window.
    let mut per_window: Vec<(f64, f64, f64)> = Vec::new();
    let mut max_entries = 0;
    let (mut rss, mut round_rates) = (f64::NAN, Vec::new());
    let mut pack_ids: Option<Vec<String>> = None;
    let mut service: Option<Service> = None;
    let mut fill_s = 0.0;
    for round in 0..ROUNDS {
        if let Some(old) = service.take() {
            old.stop();
        }
        let last = round + 1 == ROUNDS;
        let s = samples.set_up(
            round,
            &inputs,
            workers,
            if last { &tracer } else { &untraced },
            &warm,
        )?;
        let ids: Vec<String> = s.packs.iter().map(Pack::pack_id).collect();
        match &pack_ids {
            None => pack_ids = Some(ids),
            Some(before) => run.outcome.check(&ids == before, || {
                format!("pack ids changed between set-ups: {before:?} -> {ids:?}")
            }),
        }
        let rt = s.runtime.clone();
        if !hot {
            // Fill the cache before timing, with values no client sends,
            // so that every timed write pays an eviction: the cost does
            // not change part-way through a segment.
            let t = Instant::now();
            let mut filler = ValueSource::new(mix(seed, 0xF111));
            while rt.cache_entries() < CACHE_CAPACITY {
                rt.detect_batch(&filler.distinct(256));
            }
            fill_s += t.elapsed().as_secs_f64();
        }

        // The timed segment: closed-loop clients on keep-alive connections,
        // each continuing its stream where the last segment left it.
        let before = Counters::read(rt.metrics());
        let round_ticks = cpu_ticks();
        let started = Instant::now();
        let deadline = started + segment;
        let addr = s.addr();
        let slugs: Vec<&str> = s.packs.iter().map(|p| p.slug.as_str()).collect();
        let (exchanges, marks): (Vec<Vec<Exchange>>, Vec<(u64, u64)>) =
            std::thread::scope(|scope| {
                // Machine CPU ticks at each window boundary, for each window's
                // steal share.
                let marks = scope.spawn(move || {
                    let mut marks = vec![cpu_ticks()];
                    let mut next = started + width;
                    while next <= deadline {
                        std::thread::sleep(next.saturating_duration_since(Instant::now()));
                        marks.push(cpu_ticks());
                        next += width;
                    }
                    marks
                });
                let handles: Vec<_> = streams
                    .iter_mut()
                    .enumerate()
                    .map(|(c, stream)| {
                        let (tracer, slugs) = (&tracer, &slugs);
                        let id = round * clients + c;
                        scope.spawn(move || drive(addr, deadline, id, tracer, slugs, stream))
                    })
                    .collect();
                let exchanges = handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect();
                (exchanges, marks.join().expect("tick sampler panicked"))
            });
        elapsed += started.elapsed().as_secs_f64();
        let now = cpu_ticks();
        ticks = (
            ticks.0 + now.0 - round_ticks.0,
            ticks.1 + now.1 - round_ticks.1,
        );
        delta = delta.plus(Counters::read(rt.metrics()).since(before));
        max_entries = max_entries.max(rt.cache_entries());

        // Windows of this segment only: none straddles a set-up.
        let mut done: Vec<Done> = exchanges
            .iter()
            .flatten()
            .filter(|e| e.verdicts.is_ok())
            .map(|e| Done {
                end_s: (e.end - started).as_secs_f64(),
                values: e.values,
                latency_us: e.latency_us,
            })
            .collect();
        done.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        let round_windows = windows(&done, width_s, segment.as_secs_f64(), 2);
        let rates: Vec<f64> = round_windows.iter().map(|w| w.1).collect();
        round_rates.push(format!("{:.0}", median(&rates)));
        per_window.extend(round_windows.iter().map(|&(k, rate, p50)| {
            let steal = match (marks.get(k), marks.get(k + 1)) {
                (Some(&from), Some(&to)) => steal_share(from, to),
                // No reading closes the window: count it as not calm.
                _ => 1.0,
            };
            (rate, p50, steal)
        }));
        if round == 0 {
            // Later rounds rebuild the service in a heap the earlier ones
            // fragmented; the first round's peak is the service's own.
            rss = peak_rss_mb();
        }
        for (all, mine) in per_client.iter_mut().zip(exchanges) {
            all.extend(mine);
        }
        service = Some(s);
    }
    let service = service.expect("at least one round");
    let steal = steal_share((0, 0), ticks);
    let cache_entries = max_entries;

    let all: Vec<&Exchange> = per_client.iter().flatten().collect();
    let ok: Vec<&Exchange> = all.iter().copied().filter(|e| e.verdicts.is_ok()).collect();
    let values_ok: usize = ok.iter().map(|e| e.values).sum();
    let latency_us: Vec<f64> = ok.iter().map(|e| e.latency_us).collect();
    let window_rates: Vec<(f64, f64)> = per_window.iter().map(|w| (w.0, w.2)).collect();
    let window_p50s: Vec<(f64, f64)> = per_window.iter().map(|w| (w.1, w.2)).collect();
    let window_steal: Vec<f64> = per_window.iter().map(|w| w.2).collect();
    let limit = calm_limit(&window_steal);
    let calm_windows = window_steal.iter().filter(|&&x| x <= limit).count();
    let hit_rate = ratio(delta.hits as f64, (delta.hits + delta.misses) as f64);
    let issued = delta.hits + delta.misses;
    let probes_per_value = ratio(issued as f64, delta.values as f64);

    // Output checks: every verdict against one-worker references, one per
    // checking thread (hot values repeat, so one reference shares its memo).
    let requests: Vec<Vec<Request>> = per_client
        .iter()
        .enumerate()
        .map(|(c, exchanges)| ClientStream::first(hot_set.as_ref(), seed, c, exchanges.len()))
        .collect();
    let pairs: Vec<(&Exchange, &Request)> = per_client
        .iter()
        .zip(&requests)
        .flat_map(|(exchanges, requests)| exchanges.iter().zip(requests))
        .collect();
    let checked = Instant::now();
    let checkers = if hot { 1 } else { workers };
    let results: Vec<Result<(u64, Vec<String>), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..checkers)
            .map(|k| {
                let mine: Vec<(&Exchange, &Request)> =
                    pairs.iter().copied().skip(k).step_by(checkers).collect();
                let packs = &service.packs;
                s.spawn(move || {
                    let reference = reference(packs)?;
                    Ok(verify(&mine, &reference, &mut HashMap::new()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread panicked"))
            .collect()
    });
    let check_s = checked.elapsed().as_secs_f64();
    run.outcome.attempted = all.len() as u64;
    for result in results {
        let (failed, problems) = result?;
        run.outcome.failed += failed;
        run.outcome.problems.extend(problems);
    }
    run.outcome
        .check(hot_set.is_none() || cache_entries < CACHE_CAPACITY, || {
            format!("hot working set overflowed the cache: {cache_entries} entries")
        });

    let e2e = &mut run.e2e;
    e2e.set("peak_rss_mb", rss, "MB");
    e2e.set(
        "detect_values_per_s",
        calm_medians(&[window_rates])[0],
        "values/s",
    );
    e2e.set("detect_p50_ms", calm_medians(&[window_p50s])[0] / 1e3, "ms");

    let rec = &mut run.record;
    let fuel: u64 = service.work.iter().map(|w| w.fuel).sum();
    rec.push(("session_fuel".into(), fuel.to_string()));
    rec.push(("requests".into(), all.len().to_string()));
    rec.push(("values".into(), values_ok.to_string()));
    rec.push(("timed_s".into(), format!("{elapsed:.3}")));
    rec.push(("fill_s".into(), format!("{fill_s:.3}")));
    rec.push(("check_s".into(), format!("{check_s:.3}")));
    rec.push(("round_values_per_s".into(), round_rates.join(" ")));
    rec.push(("steal_share".into(), format!("{steal:.4}")));
    rec.push((
        "calm_windows".into(),
        format!(
            "{calm_windows} of {} (steal <= {limit:.3})",
            per_window.len()
        ),
    ));
    rec.push(("cache_hit_rate".into(), format!("{hit_rate:.4}")));
    rec.push(("probes_per_value".into(), format!("{probes_per_value:.3}")));
    rec.push(("cache_entries".into(), cache_entries.to_string()));
    let p = |q: f64| percentile(&latency_us, q);
    if hot {
        rec.push((
            "hot_req_per_s".into(),
            format!("{:.1}", ok.len() as f64 / elapsed),
        ));
        rec.push(("hot_req_p50_us".into(), format!("{:.1}", p(50.0))));
        rec.push(("hot_req_p99_us".into(), format!("{:.1}", p(99.0))));
    } else {
        rec.push((
            "cold_values_per_s".into(),
            format!("{:.1}", values_ok as f64 / elapsed),
        ));
        rec.push(("cold_req_p50_ms".into(), format!("{:.3}", p(50.0) / 1e3)));
        rec.push(("cold_req_p99_ms".into(), format!("{:.3}", p(99.0) / 1e3)));
    }

    if args.trace {
        let traced: Vec<f64> = ok
            .iter()
            .filter(|e| e.traced)
            .map(|e| e.latency_us)
            .collect();
        let plain: Vec<f64> = ok
            .iter()
            .filter(|e| !e.traced)
            .map(|e| e.latency_us)
            .collect();
        let l = &mut run.layers;
        l.set(
            "trace.overhead_ms",
            (median(&traced) - median(&plain)) / 1e3,
            "ms",
        );
        layers::synthesis(&inputs, &service.work, &tracer, l, &mut run.outcome);
        l.set("rank.ms", service.rank_ms, "ms");
        l.set("rank.ranked", service.ranked as f64, "count");
        l.set("pack.export_ms", service.export_ms, "ms");
        let bytes: usize = service.packs.iter().map(|p| p.to_bytes().len()).sum();
        l.set("pack.bytes", bytes as f64, "bytes");
        l.set("pack.load_ms", median(&samples.load_ms), "ms");

        // Probe split over the first distinct values the clients sent.
        let mut sample: Vec<String> = Vec::new();
        for request in requests.iter().flatten() {
            for v in request.values() {
                if sample.len() < PROBE_REPLAY_VALUES && !sample.contains(v) {
                    sample.push(v.clone());
                }
            }
        }
        let pack_validators = validators(&service.packs)?;
        let split = replay::replay_probes(&service.packs, &pack_validators, &sample, &tracer);
        layers::probes(&split, l, &mut run.outcome);

        // Runtime, JSON and cache split: replay client 0's requests
        // in-process on a fresh runtime over the same packs.
        replay_service(
            args,
            &service,
            hot_set.as_ref(),
            &per_client[0],
            &requests[0],
            &tracer,
            run,
        )?;

        let l = &mut run.layers;
        l.set("serve.runtime.probes_issued", issued as f64, "count");
        l.set("serve.runtime.probes_saved", delta.saved as f64, "count");
        l.set(
            "serve.runtime.saved_ratio",
            ratio(delta.saved as f64, (issued + delta.saved) as f64),
            "ratio",
        );
        l.set("serve.runtime.probes_per_value", probes_per_value, "count");
        l.set("serve.cache.hit_rate", hit_rate, "ratio");
        l.set("serve.cache.entries", cache_entries as f64, "count");
        l.set("serve.http.connections", delta.connections as f64, "count");
        l.set("serve.http.shed", delta.shed as f64, "count");
        l.set("serve.http.errors", delta.errors as f64, "count");
        l.set("pack.executors_reused", delta.reused as f64, "count");
        l.set("pack.executors_cloned", delta.cloned as f64, "count");
        l.set(
            "pack.reuse_ratio",
            ratio(delta.reused as f64, (delta.reused + delta.cloned) as f64),
            "ratio",
        );
        l.set("trace.spans", tracer.len() as f64, "count");
        write_spans(&tracer, args, run);
    }
    service.stop();

    // Each type's median synthesis time over the calm set-ups, as on
    // `synth`.
    let per_type = calm_medians(&samples.type_ms);
    run.e2e
        .set("setup_s", calm_medians(&[samples.setup_s])[0], "s");
    run.e2e
        .set("synth_s", per_type.iter().sum::<f64>() / 1e3, "s");
    run.record.push((
        "synth_type_p50_ms".into(),
        format!("{:.3}", median(&per_type)),
    ));
    Ok(())
}

/// Replay one client's requests in-process: `json::parse` of each body,
/// the matching `DetectorRuntime::detect_*` call, and the `ShardedLru`
/// reads and writes the lazy scheduler would make for its values.
fn replay_service(
    args: &Args,
    service: &Service,
    hot_set: Option<&HotSet>,
    exchanges: &[Exchange],
    requests: &[Request],
    tracer: &Tracer,
    run: &mut Run,
) -> Result<(), String> {
    let runtime = DetectorRuntime::from_packs(
        validators(&service.packs)?,
        available_parallelism(),
        CACHE_CAPACITY,
    );
    let reference = reference(&service.packs)?;
    let mut memo = HashMap::new();
    let npacks = service.packs.len();
    let cache = ShardedLru::new(CACHE_SHARDS, CACHE_CAPACITY, npacks);
    // The lazy scheduler reads each pack tier until one accepts, and
    // writes every verdict it had to compute. Returns the time of each
    // read and write in microseconds.
    let touch = |v: &str, memo: &mut HashMap<String, Option<usize>>| {
        let claimed = claim(&reference, memo, v);
        let (mut gets, mut puts) = (Vec::new(), Vec::new());
        for pi in 0..npacks {
            let t = Instant::now();
            let hit = cache.get(pi, v);
            gets.push(us_since(t));
            if hit.is_none() {
                let t = Instant::now();
                cache.put(pi, v, claimed == Some(pi));
                puts.push(us_since(t));
            }
            if claimed == Some(pi) {
                break;
            }
        }
        (gets, puts)
    };
    if let Some(set) = hot_set {
        runtime.detect_batch(&set.working);
        for v in &set.working {
            touch(v, &mut memo);
        }
    }
    // Bring both caches to the fill level the service's cache ended at,
    // with values no replayed request carries, so reads and writes (and
    // evictions, once full) cost what they cost in the service.
    let target = service.runtime.cache_entries();
    let mut filler = ValueSource::new(mix(args.seed, 0xF111));
    for _ in 0..target {
        if runtime.cache_entries() >= target {
            break;
        }
        runtime.detect_batch(&filler.distinct(64));
    }
    for i in 0..4 * target {
        if cache.len() >= target {
            break;
        }
        cache.put(i % npacks, &format!("fill-{i}"), false);
    }
    run.record.push((
        "replay_cache_entries".into(),
        format!("{} {}", runtime.cache_entries(), cache.len()),
    ));

    let budget = Duration::from_secs_f64((args.seconds as f64 / 4.0).max(1.0));
    let t0 = Instant::now();
    let (mut json_us, mut detect_us, mut bytes, mut overhead) = (vec![], vec![], vec![], vec![]);
    let (mut get_us, mut put_us) = (vec![], vec![]);
    for (i, (ex, request)) in exchanges.iter().zip(requests).enumerate() {
        if t0.elapsed() > budget {
            break;
        }
        if ex.verdicts.is_err() {
            continue;
        }
        let body = request.body();
        let t = Instant::now();
        let parsed = tracer.span("serve.json", None, i as u64, |_| json::parse(&body));
        let j = us_since(t);
        if parsed.is_err() {
            run.outcome
                .problems
                .push(format!("replayed body does not parse: {body}"));
            continue;
        }
        let t = Instant::now();
        tracer.span("serve.runtime", None, i as u64, |_| match request {
            Request::Column(values) => {
                runtime.detect_column(values);
            }
            Request::Table(columns) => {
                runtime.detect_table(columns, None);
            }
            Request::Value(value) => {
                runtime.detect_batch(std::slice::from_ref(value));
            }
            Request::Values(values) => {
                runtime.detect_batch(values);
            }
        });
        let d = us_since(t);
        json_us.push(j);
        detect_us.push(d);
        bytes.push(body.len() as f64);
        overhead.push(ex.latency_us - j - d);
        tracer.span("serve.cache", None, i as u64, |_| {
            for v in request.values() {
                let (gets, puts) = touch(v, &mut memo);
                get_us.extend(gets);
                put_us.extend(puts);
            }
        });
    }
    let l = &mut run.layers;
    l.set(
        "serve.runtime.detect_us_p50",
        percentile(&detect_us, 50.0),
        "us",
    );
    l.set(
        "serve.runtime.detect_us_p99",
        percentile(&detect_us, 99.0),
        "us",
    );
    l.set("serve.json.parse_us", mean(&json_us), "us");
    l.set("serve.json.bytes", mean(&bytes), "bytes");
    l.set("serve.http.overhead_us", median(&overhead), "us");
    l.set("serve.cache.get_us", mean(&get_us), "us");
    l.set("serve.cache.put_us", mean(&put_us), "us");
    run.record
        .push(("replayed_requests".into(), json_us.len().to_string()));
    Ok(())
}

/// Write the span file and the per-name self times into the run record.
pub fn write_spans(tracer: &Tracer, args: &Args, run: &mut Run) {
    let path =
        PathBuf::from(".perfbench").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => run
            .record
            .push(("spans_file".into(), path.display().to_string())),
        Err(e) => run
            .outcome
            .problems
            .push(format!("{}: {e}", path.display())),
    }
    for (name, ms) in tracer.self_ms_by_name() {
        run.record
            .push((format!("self_ms.{name}"), format!("{ms:.3}")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_fields_reads_every_verdict_in_order() {
        let slugs = ["datetime", "email"];
        let body = r#"{"results":[{"value":"a\"type\":\"x","type":"email","pack":"email-1"},{"value":"b","type":null,"pack":null}]}"#;
        assert_eq!(type_fields(body, &slugs), Ok(vec![Some(1), None]));
        let table = r#"{"columns":[{"type":"datetime","pack":"d","values":3},{"type":null,"pack":null,"values":2}]}"#;
        assert_eq!(type_fields(table, &slugs), Ok(vec![Some(0), None]));
        assert!(type_fields(r#"{"type":"phone"}"#, &slugs).is_err());
        assert!(type_fields(r#"{"type":7}"#, &slugs).is_err());
    }
}
