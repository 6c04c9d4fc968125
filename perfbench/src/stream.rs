//! Deterministic request streams for the serving workloads.
//!
//! Each client draws from its own stream, seeded from the run seed and the
//! client index, so the same seed always yields the same sequence of
//! requests; how much of the sequence a run consumes depends on speed.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use autotype_negative::{generate_negatives, random_negatives, MutationConfig, Strategy};
use autotype_serve::json::escape;
use autotype_tables::PAPER_TYPE_COUNTS;
use autotype_typesys::{by_slug, SemanticType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::synth::mix;

/// One request body and the values it carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `POST /detect/column`.
    Column(Vec<String>),
    /// `POST /detect/table`.
    Table(Vec<Vec<String>>),
    /// `POST /detect` with `{"value"}`.
    Value(String),
    /// `POST /detect` with `{"values"}`.
    Values(Vec<String>),
}

fn json_list(values: &[String]) -> String {
    let quoted: Vec<String> = values
        .iter()
        .map(|v| format!("\"{}\"", escape(v)))
        .collect();
    format!("[{}]", quoted.join(","))
}

impl Request {
    pub fn path(&self) -> &'static str {
        match self {
            Request::Column(_) => "/detect/column",
            Request::Table(_) => "/detect/table",
            Request::Value(_) | Request::Values(_) => "/detect",
        }
    }

    pub fn body(&self) -> String {
        match self {
            Request::Column(values) | Request::Values(values) => {
                format!("{{\"values\":{}}}", json_list(values))
            }
            Request::Table(columns) => {
                let cols: Vec<String> = columns.iter().map(|c| json_list(c)).collect();
                format!("{{\"columns\":[{}]}}", cols.join(","))
            }
            Request::Value(value) => format!("{{\"value\":\"{}\"}}", escape(value)),
        }
    }

    /// Every value the request carries.
    pub fn values(&self) -> Vec<&String> {
        match self {
            Request::Column(v) | Request::Values(v) => v.iter().collect(),
            Request::Table(c) => c.iter().flatten().collect(),
            Request::Value(v) => vec![v],
        }
    }

    pub fn value_count(&self) -> usize {
        match self {
            Request::Column(values) | Request::Values(values) => values.len(),
            Request::Table(columns) => columns.iter().map(Vec::len).sum(),
            Request::Value(_) => 1,
        }
    }
}

/// How often a generator retries before accepting an already-sent value
/// (only types with a small value space, such as country, run out).
const FRESH_TRIES: usize = 16;

fn table_types() -> Vec<&'static SemanticType> {
    PAPER_TYPE_COUNTS
        .iter()
        .map(|(slug, _)| by_slug(slug).expect("Table-2 type is registered"))
        .collect()
}

/// The values a source has produced, as a Bloom filter of fixed size: the
/// harness's memory stays the same however many values a run sends, so
/// `peak_rss_mb` does not grow with the service's throughput. A false
/// positive (about 1 in 10^5 after a quarter of a million values) only
/// makes the source draw again.
struct Seen {
    bits: Vec<u64>,
}

impl Seen {
    /// 2 MiB of bits, four probes per value.
    const WORDS: usize = 1 << 18;
    const PROBES: u64 = 4;

    fn new() -> Seen {
        Seen {
            bits: vec![0; Seen::WORDS],
        }
    }

    /// Bit positions of a value. `DefaultHasher::new` has fixed keys, so
    /// they are the same in every run and the streams stay deterministic.
    fn positions(value: &str) -> impl Iterator<Item = usize> {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        let h = h.finish();
        let (a, b) = (h & 0xFFFF_FFFF, (h >> 32) | 1);
        let bits = (Seen::WORDS * 64) as u64;
        (0..Seen::PROBES).map(move |i| (a.wrapping_add(i.wrapping_mul(b)) % bits) as usize)
    }

    fn contains(&self, value: &str) -> bool {
        Seen::positions(value).all(|p| self.bits[p / 64] & (1 << (p % 64)) != 0)
    }

    /// Record a value; true when it was not seen before.
    fn insert(&mut self, value: &str) -> bool {
        let new = !self.contains(value);
        for p in Seen::positions(value) {
            self.bits[p / 64] |= 1 << (p % 64);
        }
        new
    }
}

/// Draws values of three kinds: values of one of the 15 types, near misses
/// made by mutating such values, and random strings. Skips values it has
/// already produced unless the value space is too small.
pub struct ValueSource {
    rng: StdRng,
    types: Vec<&'static SemanticType>,
    sent: Seen,
}

/// The three column kinds.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Typed(usize),
    NearMiss(usize, Strategy),
    Random,
}

/// The kind of the i-th value of a [`ValueSource::distinct`] list: half
/// typed, three tenths near misses, one fifth random strings, with the
/// types cycling through all of them.
fn pattern(i: usize, types: usize) -> Kind {
    let ty = i % types;
    match i % 10 {
        0..=4 => Kind::Typed(ty),
        5..=7 if i % 20 < 10 => Kind::NearMiss(ty, Strategy::S1),
        5..=7 => Kind::NearMiss(ty, Strategy::S2),
        _ => Kind::Random,
    }
}

impl ValueSource {
    pub fn new(seed: u64) -> ValueSource {
        ValueSource {
            rng: StdRng::seed_from_u64(seed),
            types: table_types(),
            sent: Seen::new(),
        }
    }

    fn draw(&mut self, kind: Kind) -> String {
        let rng = &mut self.rng;
        match kind {
            Kind::Typed(ty) => (self.types[ty].generate)(rng),
            Kind::NearMiss(ty, strategy) => {
                let positive = (self.types[ty].generate)(rng);
                let one = MutationConfig {
                    per_positive: 1,
                    ..MutationConfig::default()
                };
                generate_negatives(&[positive.as_str()], strategy, &one, rng)
                    .pop()
                    .unwrap_or(positive)
            }
            Kind::Random => random_negatives(1, rng).pop().unwrap_or_default(),
        }
    }

    fn fresh(&mut self, kind: Kind) -> String {
        let mut value = self.draw(kind);
        for _ in 1..FRESH_TRIES {
            if !self.sent.contains(&value) {
                break;
            }
            value = self.draw(kind);
        }
        self.sent.insert(&value);
        value
    }

    /// A column of `len` fresh values of one kind.
    fn column(&mut self, kind: Kind, len: usize) -> Vec<String> {
        (0..len).map(|_| self.fresh(kind)).collect()
    }

    /// `n` distinct values, none produced before, whose kinds follow a
    /// fixed pattern by position: the i-th value's kind and type do not
    /// depend on the seed, so neither does the work a position costs
    /// (which matters where a few positions get most of the draws).
    pub fn distinct(&mut self, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let mut kind = pattern(i, self.types.len());
                for attempt in 0.. {
                    // A type with a small value space runs dry: fall back
                    // to random strings, which never do.
                    if attempt == FRESH_TRIES * 4 {
                        kind = Kind::Random;
                    }
                    let value = self.draw(kind);
                    if self.sent.insert(&value) {
                        return value;
                    }
                }
                unreachable!("the attempt loop only ends by returning")
            })
            .collect()
    }
}

/// `serve_cold`: half `/detect/column` requests of 50–200 values, half
/// `/detect/table` requests of 2–6 columns of 20–60 values; every value is
/// fresh. Each column is of one kind, drawn in the proportions of
/// [`pattern`]. The shape of the i-th request (its endpoint, column sizes
/// and kinds) comes from a stream that does not depend on the seed, so a
/// run's mix of work is the same whatever the seed; the values do.
pub struct ColdStream {
    shape: StdRng,
    source: ValueSource,
}

impl ColdStream {
    pub fn new(seed: u64, client: usize) -> ColdStream {
        ColdStream {
            shape: StdRng::seed_from_u64(mix(0x5BA9E, client as u64)),
            source: ValueSource::new(mix(seed, 0xC01D + client as u64)),
        }
    }

    fn column(&mut self, len: std::ops::RangeInclusive<usize>) -> Vec<String> {
        let len = self.shape.gen_range(len);
        let kind = pattern(self.shape.gen_range(0..60), self.source.types.len());
        self.source.column(kind, len)
    }

    pub fn next_request(&mut self) -> Request {
        if self.shape.gen_bool(0.5) {
            Request::Column(self.column(50..=200))
        } else {
            let n = self.shape.gen_range(2..=6);
            Request::Table((0..n).map(|_| self.column(20..=60)).collect())
        }
    }
}

/// Values in the `serve_hot` working set.
pub const WORKING_SET: usize = 2048;
/// Fresh values available to each hot client; once used up, fresh draws
/// cycle through them again (and hit the cache).
pub const FRESH_PER_CLIENT: usize = 1024;
/// Share of hot value draws that take the next fresh value.
pub const FRESH_SHARE: f64 = 0.02;
/// Share of hot requests that carry a single value; the rest carry 1–16.
/// Single-value lookups are the common case of a hot cache, and keeping
/// them a clear majority puts the median latency inside their cluster
/// rather than on the edge between the two request shapes.
pub const SINGLE_SHARE: f64 = 0.75;
/// Every this many requests a hot client closes its connection.
pub const CLOSE_EVERY: u64 = 64;

/// The hot working set, its Zipf weights, and each client's fresh values.
/// With 15 packs a value occupies at most 15 cache entries, so
/// `(WORKING_SET + clients × FRESH_PER_CLIENT) × 15` stays below the
/// 65,536-entry cache for two clients, whatever the run length.
pub struct HotSet {
    pub working: Vec<String>,
    cdf: Vec<f64>,
    pub fresh: Vec<Vec<String>>,
}

impl HotSet {
    pub fn new(seed: u64, clients: usize) -> HotSet {
        let mut source = ValueSource::new(mix(seed, 0x407));
        let working = source.distinct(WORKING_SET);
        let fresh = (0..clients)
            .map(|_| source.distinct(FRESH_PER_CLIENT))
            .collect();
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=WORKING_SET)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= total);
        HotSet {
            working,
            cdf,
            fresh,
        }
    }

    /// The working-set value at a Zipf-distributed rank.
    fn zipf(&self, u: f64) -> &String {
        let rank = self.cdf.partition_point(|&c| c < u);
        &self.working[rank.min(self.working.len() - 1)]
    }
}

/// `serve_hot`: small `/detect` requests of one value, or of 1–16 values.
pub struct HotStream<'a> {
    set: &'a HotSet,
    client: usize,
    rng: StdRng,
    fresh_next: usize,
    sent: u64,
}

impl<'a> HotStream<'a> {
    pub fn new(set: &'a HotSet, seed: u64, client: usize) -> HotStream<'a> {
        HotStream {
            set,
            client,
            rng: StdRng::seed_from_u64(mix(seed, 0x4070 + client as u64)),
            fresh_next: 0,
            sent: 0,
        }
    }

    fn draw(&mut self) -> String {
        if self.rng.gen_bool(FRESH_SHARE) {
            let pool = &self.set.fresh[self.client];
            let value = pool[self.fresh_next % pool.len()].clone();
            self.fresh_next += 1;
            value
        } else {
            let u = self.rng.gen_range(0.0..1.0);
            self.set.zipf(u).clone()
        }
    }

    /// The next request and whether it should close the connection.
    pub fn next_request(&mut self) -> (Request, bool) {
        self.sent += 1;
        let close = self.sent.is_multiple_of(CLOSE_EVERY);
        let request = if self.rng.gen_bool(SINGLE_SHARE) {
            Request::Value(self.draw())
        } else {
            let n = self.rng.gen_range(1..=16);
            Request::Values((0..n).map(|_| self.draw()).collect())
        };
        (request, close)
    }
}

/// One client's request stream in either serving workload.
pub enum ClientStream<'a> {
    Cold(ColdStream),
    Hot(HotStream<'a>),
}

impl<'a> ClientStream<'a> {
    /// `serve_hot` when a hot set is given, `serve_cold` otherwise.
    pub fn new(hot: Option<&'a HotSet>, seed: u64, client: usize) -> ClientStream<'a> {
        match hot {
            Some(set) => ClientStream::Hot(HotStream::new(set, seed, client)),
            None => ClientStream::Cold(ColdStream::new(seed, client)),
        }
    }

    /// The next request and whether it should close the connection.
    pub fn next_request(&mut self) -> (Request, bool) {
        match self {
            ClientStream::Hot(s) => s.next_request(),
            ClientStream::Cold(s) => (s.next_request(), false),
        }
    }

    /// The first `n` requests of a stream: a run keeps only what came back
    /// and regenerates what it sent.
    pub fn first(hot: Option<&'a HotSet>, seed: u64, client: usize, n: usize) -> Vec<Request> {
        let mut stream = ClientStream::new(hot, seed, client);
        (0..n).map(|_| stream.next_request().0).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    fn cold(seed: u64, client: usize, n: usize) -> Vec<Request> {
        let mut s = ColdStream::new(seed, client);
        (0..n).map(|_| s.next_request()).collect()
    }

    fn hot(set: &HotSet, seed: u64, n: usize) -> Vec<(Request, bool)> {
        let mut s = HotStream::new(set, seed, 0);
        (0..n).map(|_| s.next_request()).collect()
    }

    #[test]
    fn cold_stream_repeats_per_seed_and_differs_across_seeds() {
        assert_eq!(cold(3, 0, 20), cold(3, 0, 20));
        assert_ne!(cold(3, 0, 20), cold(4, 0, 20));
        assert_ne!(cold(3, 0, 20), cold(3, 1, 20));
    }

    #[test]
    fn cold_request_shapes_do_not_depend_on_the_seed() {
        let shape = |r: &Request| match r {
            Request::Table(c) => c.iter().map(Vec::len).collect(),
            other => vec![other.value_count()],
        };
        let (a, b) = (cold(3, 0, 30), cold(4, 0, 30));
        assert_eq!(
            a.iter().map(shape).collect::<Vec<_>>(),
            b.iter().map(shape).collect::<Vec<_>>()
        );
        assert!(a.iter().zip(&b).all(|(x, y)| x.path() == y.path()));
    }

    #[test]
    fn cold_values_are_fresh_and_sized() {
        let requests = cold(5, 0, 40);
        let mut seen = HashSet::new();
        let mut total = 0;
        for r in &requests {
            match r {
                Request::Column(v) => assert!((50..=200).contains(&v.len())),
                Request::Table(c) => {
                    assert!((2..=6).contains(&c.len()));
                    assert!(c.iter().all(|v| (20..=60).contains(&v.len())));
                }
                other => panic!("unexpected cold request {other:?}"),
            }
            for v in match r {
                Request::Column(v) => v.clone(),
                Request::Table(c) => c.concat(),
                _ => Vec::new(),
            } {
                total += 1;
                seen.insert(v);
            }
        }
        // Only types with tiny value spaces may repeat.
        assert!(
            seen.len() as f64 > 0.95 * total as f64,
            "{} of {total}",
            seen.len()
        );
    }

    #[test]
    fn hot_stream_repeats_per_seed_and_differs_across_seeds() {
        let set = HotSet::new(9, 2);
        assert_eq!(set.working.len(), WORKING_SET);
        let again = HotSet::new(9, 2);
        assert_eq!(set.working, again.working);
        assert_eq!(hot(&set, 9, 200), hot(&again, 9, 200));
        let other = HotSet::new(10, 2);
        assert_ne!(set.working, other.working);
        assert_ne!(hot(&set, 9, 200), hot(&other, 10, 200));
    }

    #[test]
    fn hot_stream_closes_every_64th_and_stays_in_the_set() {
        let set = HotSet::new(1, 2);
        let known: HashSet<&String> = set.working.iter().chain(set.fresh[0].iter()).collect();
        let requests = hot(&set, 1, 640);
        for (i, (r, close)) in requests.iter().enumerate() {
            assert_eq!(*close, (i + 1) % 64 == 0);
            match r {
                Request::Value(v) => assert!(known.contains(v)),
                Request::Values(vs) => {
                    assert!((1..=16).contains(&vs.len()));
                    assert!(vs.iter().all(|v| known.contains(v)));
                }
                other => panic!("unexpected hot request {other:?}"),
            }
        }
    }

    #[test]
    fn bodies_are_valid_json() {
        let mut s = ColdStream::new(2, 0);
        for _ in 0..10 {
            let r = s.next_request();
            let parsed = autotype_serve::json::parse(&r.body()).expect("valid JSON body");
            let n = match (&r, parsed.get("values"), parsed.get("columns")) {
                (Request::Column(_), Some(v), _) => v.as_array().unwrap().len(),
                (Request::Table(_), _, Some(c)) => c
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|col| col.as_array().unwrap().len())
                    .sum(),
                _ => panic!("body does not match request"),
            };
            assert_eq!(n, r.value_count());
        }
    }
}
