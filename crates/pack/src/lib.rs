//! # autotype-pack — versioned binary detector packs
//!
//! The paper's end product is the synthesized validator (§5.3, Appendix G):
//! a cheap Boolean function meant to be reused long after the expensive
//! mine-trace-rank pipeline has run. A **detector pack** is that validator
//! made durable — a deterministic, std-only binary serialization of
//! everything needed to answer `accepts(value)` again in a fresh process
//! with **zero re-synthesis and zero re-tracing**:
//!
//! * the expanded DNF-E clauses (trace literals over `SiteId`s),
//! * the candidate program snapshot — every source file of the executor's
//!   program at export time, **in order**, so re-parsing reproduces the
//!   exact file ids the literals reference,
//! * the entry point and invocation variant,
//! * the slice of the simulated pip index the snapshot was resolved over,
//! * ranking metadata and provenance (score, explanation, repository,
//!   mutation strategy) for observability.
//!
//! ## Byte layout (version 1)
//!
//! ```text
//! magic    4 bytes  b"ATPK"
//! version  u16      format version (currently 1)
//! length   u64      payload byte count
//! payload  ...      fields below, little-endian
//! crc32    u32      IEEE CRC-32 over the payload
//! ```
//!
//! Readers reject unknown magic, versions newer than they understand, and
//! payloads whose CRC does not match — always with an error, never a panic.
//! Versioning rule: additive fields bump the version and are appended to
//! the payload tail; field reordering or re-typing requires a new magic.
//!
//! [`Pack::validator`] rehydrates a [`PackValidator`] — the one detector
//! type, used in process (`Session::batch_validator`) and by the serve
//! runtime alike: every probe runs on its crew seat's executor, each built
//! from the same sources and never changed after it is built, so a probe
//! is a pure function of its input and verdicts are bit-identical to the
//! in-process session validator at any concurrency.

use std::path::Path;

use autotype_exec::pool::{default_workers, seat};
use autotype_exec::{probe_trace, Candidate, EntryPoint, Executor, Literal, PackageIndex};
use autotype_lang::{Program, SiteId, ValueSummary};
use autotype_synth::SynthesizedValidator;

mod wire;

pub use wire::{crc32, fnv1a, WireError};
use wire::{Reader, Writer};

/// File magic: "AutoType PacK".
pub const MAGIC: [u8; 4] = *b"ATPK";

/// Current format version.
pub const FORMAT_VERSION: u16 = 1;

/// Conventional file extension for packs on disk.
pub const PACK_EXTENSION: &str = "atpk";

/// Everything that can go wrong writing, reading, or rehydrating a pack.
#[derive(Debug)]
pub enum PackError {
    Io(std::io::Error),
    /// Fewer bytes than the fixed header, or a field running past the end.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Written by a newer format than this reader understands.
    UnsupportedVersion(u16),
    /// The payload CRC-32 does not match the sealed value.
    CorruptCrc {
        expected: u32,
        found: u32,
    },
    /// Structurally invalid payload (bad tag, bad UTF-8, absurd length).
    Malformed(String),
    /// A snapshot source file no longer parses (format-compatible but
    /// semantically broken pack).
    Parse(String),
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::Io(e) => write!(f, "pack I/O error: {e}"),
            PackError::Truncated => write!(f, "pack truncated"),
            PackError::BadMagic(m) => write!(f, "bad pack magic {m:?}"),
            PackError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "pack version {v} is newer than supported {FORMAT_VERSION}"
                )
            }
            PackError::CorruptCrc { expected, found } => {
                write!(
                    f,
                    "pack CRC mismatch: sealed {expected:#010x}, computed {found:#010x}"
                )
            }
            PackError::Malformed(what) => write!(f, "malformed pack: {what}"),
            PackError::Parse(what) => write!(f, "pack source no longer parses: {what}"),
        }
    }
}

impl std::error::Error for PackError {}

impl From<std::io::Error> for PackError {
    fn from(e: std::io::Error) -> PackError {
        PackError::Io(e)
    }
}

impl From<WireError> for PackError {
    fn from(e: WireError) -> PackError {
        match e {
            WireError::Truncated => PackError::Truncated,
            other => PackError::Malformed(other.to_string()),
        }
    }
}

/// A complete compiled detector, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct Pack {
    /// Benchmark-type slug this detector was synthesized for.
    pub slug: String,
    /// The search keyword the synthesis session used.
    pub keyword: String,
    /// Display label (`repo/file.entry`).
    pub label: String,
    /// Provenance: repository the candidate was mined from.
    pub repo_name: String,
    /// Provenance: module (file) name the candidate lives in.
    pub file: String,
    /// Provenance: accepted mutation strategy (empty when none separated).
    pub strategy: String,
    /// Ranking method that selected this function (e.g. `DNF-S`).
    pub method: String,
    /// Positive coverage (primary ranking score).
    pub score: f64,
    /// Negative coverage (tie-breaker).
    pub neg_fraction: f64,
    /// Human-readable concise DNF.
    pub explanation: String,
    /// Execution fuel per probe run.
    pub fuel: u64,
    /// Packages the snapshot executor installed when it was built.
    pub installs: u64,
    /// File id of the candidate's module within `files`.
    pub candidate_file: u32,
    /// How the candidate is invoked.
    pub entry: EntryPoint,
    /// The executor's program snapshot: `(module name, source)` in file-id
    /// order. Order is load-bearing — every `SiteId.file` in `dnf_e` indexes
    /// into it.
    pub files: Vec<(String, String)>,
    /// The pip-index slice the snapshot is resolved over when it loads.
    pub packages: Vec<(String, String)>,
    /// The expanded DNF-E: disjunction of conjunctions of trace literals.
    pub dnf_e: Vec<Vec<Literal>>,
}

impl Pack {
    /// Deterministic content-derived identity: the slug plus an FNV-1a hash
    /// of the serialized payload. Two packs with the same id hold the same
    /// detector byte for byte.
    pub fn pack_id(&self) -> String {
        format!("{}-{:016x}", self.slug, fnv1a(&self.payload()))
    }

    /// Serialize to the full on-disk format (header + payload + CRC).
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut w = Writer::new();
        for b in MAGIC {
            w.u8(b);
        }
        w.u16(FORMAT_VERSION);
        w.u64(payload.len() as u64);
        let mut out = w.into_bytes();
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out
    }

    /// Parse the on-disk format, verifying magic, version, and CRC.
    pub fn from_bytes(bytes: &[u8]) -> Result<Pack, PackError> {
        let mut r = Reader::new(bytes);
        let magic: [u8; 4] = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
        if magic != MAGIC {
            return Err(PackError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version == 0 || version > FORMAT_VERSION {
            return Err(PackError::UnsupportedVersion(version));
        }
        let payload_len = r.u64()?;
        if payload_len > bytes.len() as u64 {
            return Err(PackError::Truncated);
        }
        if r.remaining() as u64 != payload_len + 4 {
            // Trailing garbage or a short CRC field: either way the seal
            // cannot be trusted.
            return Err(PackError::Truncated);
        }
        // Header: magic (4) + version (2) + payload length (8).
        const HEADER_LEN: usize = 14;
        let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len as usize];
        let mut tail = Reader::new(&bytes[HEADER_LEN + payload_len as usize..]);
        let expected = tail.u32()?;
        let found = crc32(payload);
        if expected != found {
            return Err(PackError::CorruptCrc { expected, found });
        }
        Pack::decode_payload(payload)
    }

    /// Write the pack to a file (atomically: temp file + rename, so a
    /// crashed writer never leaves a half-pack behind for the loader).
    pub fn save(&self, path: &Path) -> Result<(), PackError> {
        let tmp = path.with_extension("atpk.tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read and parse a pack file.
    pub fn load(path: &Path) -> Result<Pack, PackError> {
        Pack::from_bytes(&std::fs::read(path)?)
    }

    /// Rehydrate the runtime validator with one executor per crew seat
    /// ([`default_workers`] of them): each re-parses the program snapshot
    /// in file-id order and resolves its imports over the pack's own
    /// `packages`, and the DNF-E is wrapped once. Resolution only appends
    /// files, so no file id in the DNF-E moves; an exported snapshot is
    /// already closed and gains nothing.
    pub fn validator(&self) -> Result<PackValidator, PackError> {
        self.validator_with_seats(default_workers())
    }

    /// [`validator`](Self::validator) with `seats` executors (at least
    /// one), as many as an [`ExecPool`](autotype_exec::ExecPool) has
    /// threads. Each parses the sources afresh rather than cloning the
    /// first: a `Program` clone shares every AST `Arc`, so two cores
    /// probing it would bump the same refcounts on every probe.
    pub fn validator_with_seats(&self, seats: usize) -> Result<PackValidator, PackError> {
        let mut packages = PackageIndex::new();
        for (name, source) in &self.packages {
            packages.insert(name, source);
        }
        let execs = (0..seats.max(1))
            .map(|_| {
                let mut program = Program::new();
                for (name, source) in &self.files {
                    program
                        .add_file(name, source)
                        .map_err(|e| PackError::Parse(format!("{name}: {e}")))?;
                }
                Ok(Executor::new(program, &packages, self.fuel))
            })
            .collect::<Result<_, PackError>>()?;
        if self.candidate_file as usize >= self.files.len() {
            return Err(PackError::Malformed(format!(
                "candidate file id {} out of range ({} files)",
                self.candidate_file,
                self.files.len()
            )));
        }
        Ok(PackValidator {
            pack_id: self.pack_id(),
            slug: self.slug.clone(),
            label: self.label.clone(),
            candidate: Candidate {
                file: self.candidate_file,
                entry: self.entry.clone(),
            },
            execs,
            validator: SynthesizedValidator {
                dnf_e: self.dnf_e.clone(),
            },
        })
    }

    fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.slug);
        w.str(&self.keyword);
        w.str(&self.label);
        w.str(&self.repo_name);
        w.str(&self.file);
        w.str(&self.strategy);
        w.str(&self.method);
        w.f64(self.score);
        w.f64(self.neg_fraction);
        w.str(&self.explanation);
        w.u64(self.fuel);
        w.u64(self.installs);
        w.u32(self.candidate_file);
        write_entry(&mut w, &self.entry);
        w.u32(self.files.len() as u32);
        for (name, source) in &self.files {
            w.str(name);
            w.str(source);
        }
        w.u32(self.packages.len() as u32);
        for (name, source) in &self.packages {
            w.str(name);
            w.str(source);
        }
        w.u32(self.dnf_e.len() as u32);
        for clause in &self.dnf_e {
            w.u32(clause.len() as u32);
            for literal in clause {
                write_literal(&mut w, literal);
            }
        }
        w.into_bytes()
    }

    fn decode_payload(payload: &[u8]) -> Result<Pack, PackError> {
        let mut r = Reader::new(payload);
        let slug = r.str()?;
        let keyword = r.str()?;
        let label = r.str()?;
        let repo_name = r.str()?;
        let file = r.str()?;
        let strategy = r.str()?;
        let method = r.str()?;
        let score = r.f64()?;
        let neg_fraction = r.f64()?;
        let explanation = r.str()?;
        let fuel = r.u64()?;
        let installs = r.u64()?;
        let candidate_file = r.u32()?;
        let entry = read_entry(&mut r)?;
        let n_files = r.list_len("file count")?;
        let mut files = Vec::with_capacity(n_files.min(1024));
        for _ in 0..n_files {
            files.push((r.str()?, r.str()?));
        }
        let n_packages = r.list_len("package count")?;
        let mut packages = Vec::with_capacity(n_packages.min(1024));
        for _ in 0..n_packages {
            packages.push((r.str()?, r.str()?));
        }
        let n_clauses = r.list_len("clause count")?;
        let mut dnf_e = Vec::with_capacity(n_clauses.min(1024));
        for _ in 0..n_clauses {
            let n_literals = r.list_len("literal count")?;
            let mut clause = Vec::with_capacity(n_literals.min(1024));
            for _ in 0..n_literals {
                clause.push(read_literal(&mut r)?);
            }
            dnf_e.push(clause);
        }
        if r.remaining() != 0 {
            return Err(PackError::Malformed(format!(
                "{} unread payload bytes",
                r.remaining()
            )));
        }
        Ok(Pack {
            slug,
            keyword,
            label,
            repo_name,
            file,
            strategy,
            method,
            score,
            neg_fraction,
            explanation,
            fuel,
            installs,
            candidate_file,
            entry,
            files,
            packages,
            dnf_e,
        })
    }
}

fn write_entry(w: &mut Writer, entry: &EntryPoint) {
    match entry {
        EntryPoint::Function { name } => {
            w.u8(0);
            w.str(name);
        }
        EntryPoint::MethodWithParam { class, method } => {
            w.u8(1);
            w.str(class);
            w.str(method);
        }
        EntryPoint::CtorThenMethod { class, method } => {
            w.u8(2);
            w.str(class);
            w.str(method);
        }
        EntryPoint::ArgvFunction { name } => {
            w.u8(3);
            w.str(name);
        }
        EntryPoint::StdinFunction { name } => {
            w.u8(4);
            w.str(name);
        }
        EntryPoint::FileFunction { name, takes_path } => {
            w.u8(5);
            w.str(name);
            w.bool(*takes_path);
        }
        EntryPoint::ScriptConstant { variable } => {
            w.u8(6);
            w.str(variable);
        }
    }
}

fn read_entry(r: &mut Reader<'_>) -> Result<EntryPoint, PackError> {
    Ok(match r.u8()? {
        0 => EntryPoint::Function { name: r.str()? },
        1 => EntryPoint::MethodWithParam {
            class: r.str()?,
            method: r.str()?,
        },
        2 => EntryPoint::CtorThenMethod {
            class: r.str()?,
            method: r.str()?,
        },
        3 => EntryPoint::ArgvFunction { name: r.str()? },
        4 => EntryPoint::StdinFunction { name: r.str()? },
        5 => EntryPoint::FileFunction {
            name: r.str()?,
            takes_path: r.bool()?,
        },
        6 => EntryPoint::ScriptConstant { variable: r.str()? },
        tag => return Err(PackError::Malformed(format!("entry-point tag {tag}"))),
    })
}

fn write_literal(w: &mut Writer, literal: &Literal) {
    match literal {
        Literal::Branch { site, taken } => {
            w.u8(0);
            w.u32(site.file);
            w.u32(site.line);
            w.bool(*taken);
        }
        Literal::Ret { site, value } => {
            w.u8(1);
            w.u32(site.file);
            w.u32(site.line);
            let (tag, flag) = match value {
                ValueSummary::Bool(b) => (0u8, *b),
                ValueSummary::NumZero(z) => (1, *z),
                ValueSummary::LenZero(z) => (2, *z),
                ValueSummary::IsNone(n) => (3, *n),
            };
            w.u8(tag);
            w.bool(flag);
        }
        Literal::Exception { kind } => {
            w.u8(2);
            w.str(kind);
        }
    }
}

fn read_literal(r: &mut Reader<'_>) -> Result<Literal, PackError> {
    Ok(match r.u8()? {
        0 => Literal::Branch {
            site: SiteId::new(r.u32()?, r.u32()?),
            taken: r.bool()?,
        },
        1 => {
            let site = SiteId::new(r.u32()?, r.u32()?);
            let tag = r.u8()?;
            let flag = r.bool()?;
            let value = match tag {
                0 => ValueSummary::Bool(flag),
                1 => ValueSummary::NumZero(flag),
                2 => ValueSummary::LenZero(flag),
                3 => ValueSummary::IsNone(flag),
                t => return Err(PackError::Malformed(format!("value-summary tag {t}"))),
            };
            Literal::Ret { site, value }
        }
        2 => Literal::Exception { kind: r.str()? },
        tag => return Err(PackError::Malformed(format!("literal tag {tag}"))),
    })
}

/// The rehydrated detector: runs the packed candidate under
/// instrumentation and checks `∧T(s) → DNF-E` (Algorithm 3), exactly like
/// `Session::validate`.
///
/// Thread-safe by construction: no executor changes after it is built,
/// so each probe is a pure function of its input and any number of
/// threads can probe at once.
#[derive(Debug)]
pub struct PackValidator {
    pack_id: String,
    slug: String,
    label: String,
    candidate: Candidate,
    /// One executor per crew seat, each over its own parse of the pack's
    /// sources, so threads in different seats share no AST `Arc`. A probe
    /// runs on `execs[seat() % execs.len()]`.
    execs: Vec<Executor>,
    validator: SynthesizedValidator,
}

impl PackValidator {
    /// Content-derived pack identity (`slug-<fnv64 hex>`).
    pub fn pack_id(&self) -> &str {
        &self.pack_id
    }

    pub fn slug(&self) -> &str {
        &self.slug
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    /// The DNF-E itself (for explain endpoints and tests).
    pub fn dnf_e(&self) -> &[Vec<Literal>] {
        &self.validator.dnf_e
    }

    /// Algorithm 3 on one input: run, trace, check `∧T(s) → DNF-E`.
    pub fn accepts(&self, input: &str) -> bool {
        self.probe(input, None).verdict
    }

    /// [`accepts`](Self::accepts), plus the fuel the probe burned.
    pub fn accepts_with_fuel(&self, input: &str) -> (bool, u64) {
        let probe = self.probe(input, None);
        (probe.verdict, probe.fuel)
    }

    /// The one probe path: run on the calling thread's seat executor with
    /// an optional per-probe fuel ceiling, clamped to the pack's own budget.
    pub fn probe(&self, input: &str, max_fuel: Option<u64>) -> Probe {
        let exec = &self.execs[seat() % self.execs.len()];
        let budget = exec.fuel();
        let fuel = max_fuel.map_or(budget, |cap| cap.min(budget));
        let (trace, fuel) = probe_trace(exec, &self.candidate, input, fuel);
        Probe {
            verdict: self.validator.accepts(&trace),
            fuel,
        }
    }

    /// The per-probe fuel budget baked into the pack at export time.
    pub fn fuel_budget(&self) -> u64 {
        self.execs[0].fuel()
    }
}

/// The outcome of one [`PackValidator::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    pub verdict: bool,
    pub fuel: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_exec::ExecPool;
    use std::sync::{Arc, Barrier};

    /// Run `f` once in each seat of a two-thread crew and return the
    /// results in seat order, or `None` on a one-core machine, whose crews
    /// run every job on the caller.
    fn on_both_seats<R: Send>(f: impl Fn() -> R + Sync) -> Option<Vec<R>> {
        if default_workers() < 2 {
            return None;
        }
        // Each job waits at the barrier, so each thread runs one of them.
        let barrier = Barrier::new(2);
        let mut out = ExecPool::new(2).run_ordered(vec![(); 2], |_, ()| {
            barrier.wait();
            (seat(), f())
        });
        out.sort_by_key(|(seat, _)| *seat);
        assert_eq!(
            out.iter().map(|(seat, _)| *seat).collect::<Vec<_>>(),
            [0, 1]
        );
        Some(out.into_iter().map(|(_, r)| r).collect())
    }

    /// A hand-built pack around a trivial one-file program, small enough to
    /// exercise the full format without a synthesis session.
    fn sample_pack() -> Pack {
        let source =
            "def is_even_len(s):\n    if len(s) % 2 == 0:\n        return True\n    return False\n";
        // The DNF-E: the branch on line 2 taken, and the synthetic
        // black-box return literal.
        let clause = vec![
            Literal::Branch {
                site: SiteId::new(0, 2),
                taken: true,
            },
            Literal::Ret {
                site: SiteId::new(u32::MAX, 0),
                value: ValueSummary::Bool(true),
            },
        ];
        Pack {
            slug: "evenlen".into(),
            keyword: "even length".into(),
            label: "demo/mod.is_even_len".into(),
            repo_name: "demo".into(),
            file: "mod".into(),
            strategy: "S1".into(),
            method: "DNF-S".into(),
            score: 1.0,
            neg_fraction: 0.0,
            explanation: "(b2==True)".into(),
            fuel: 10_000,
            installs: 0,
            candidate_file: 0,
            entry: EntryPoint::Function {
                name: "is_even_len".into(),
            },
            files: vec![("mod".into(), source.into())],
            packages: vec![],
            dnf_e: vec![clause],
        }
    }

    #[test]
    fn byte_round_trip_is_identity() {
        let pack = sample_pack();
        let bytes = pack.to_bytes();
        let back = Pack::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, pack);
        assert_eq!(back.pack_id(), pack.pack_id());
    }

    #[test]
    fn rehydrated_validator_detects() {
        let v = sample_pack().validator().expect("validator");
        assert!(v.accepts("abcd"));
        assert!(v.accepts(""));
        assert!(!v.accepts("abc"));
        assert!(v.accepts_with_fuel("abcd").1 > 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_pack().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Pack::from_bytes(&bytes),
            Err(PackError::BadMagic(_))
        ));
    }

    #[test]
    fn newer_version_is_rejected() {
        let mut bytes = sample_pack().to_bytes();
        bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Pack::from_bytes(&bytes),
            Err(PackError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        let bytes = sample_pack().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Pack::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_of_payload_is_caught() {
        let pack = sample_pack();
        let bytes = pack.to_bytes();
        // Flip one bit in every payload byte: the CRC must catch each.
        for i in 18..bytes.len() - 4 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                matches!(
                    Pack::from_bytes(&corrupt),
                    Err(PackError::CorruptCrc { .. })
                ),
                "flip at byte {i} must fail the CRC"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_pack().to_bytes();
        bytes.push(0);
        assert!(Pack::from_bytes(&bytes).is_err());
    }

    /// A pack whose candidate imports `latelib` inside its body.
    fn late_import_pack() -> Pack {
        let source = "def f(s):\n    import latelib\n    if latelib.short(s):\n        return True\n    return False\n";
        Pack {
            files: vec![("mod".into(), source.into())],
            packages: vec![(
                "latelib".into(),
                "def short(s):\n    if len(s) < 3:\n        return True\n    return False\n".into(),
            )],
            entry: EntryPoint::Function { name: "f".into() },
            dnf_e: vec![vec![Literal::Ret {
                site: SiteId::new(u32::MAX, 0),
                value: ValueSummary::Bool(true),
            }]],
            ..sample_pack()
        }
    }

    #[test]
    fn function_body_import_resolves_when_the_pack_loads() {
        let v = late_import_pack().validator().expect("validator");
        assert_eq!(v.execs.len(), default_workers());
        for exec in &v.execs {
            let names: Vec<&str> = exec
                .program()
                .files
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            assert_eq!(names, ["mod", "latelib"]);
        }
        assert!(v.accepts("ab"));
        assert!(!v.accepts("abcd"));
    }

    #[test]
    fn one_seat_validator_agrees_with_the_default() {
        let pack = late_import_pack();
        let one = pack.validator_with_seats(1).expect("validator");
        assert_eq!(one.execs.len(), 1);
        let default = pack.validator().expect("validator");
        for input in ["ab", "abcd", "", "abc", "x", "xyz12"] {
            assert_eq!(
                one.probe(input, None),
                default.probe(input, None),
                "{input:?}"
            );
        }
    }

    #[test]
    fn seat_executors_share_no_ast() {
        let v = late_import_pack()
            .validator_with_seats(2)
            .expect("validator");
        let [a, b] = &v.execs[..] else {
            panic!("{} executors", v.execs.len());
        };
        // A clone would share every file; each seat parses its own.
        assert!(Arc::ptr_eq(
            &a.program().clone().files[0],
            &a.program().files[0]
        ));
        assert!(!Arc::ptr_eq(&a.program().files[0], &b.program().files[0]));
        assert!(!Arc::ptr_eq(&a.program().files[1], &b.program().files[1]));
    }

    #[test]
    fn probes_from_both_seats_agree_with_serial_probes() {
        let v = late_import_pack().validator().expect("validator");
        let inputs = ["ab", "abcd", "", "abc", "x", "xyz12"];
        let serial: Vec<(bool, u64)> = inputs.iter().map(|i| v.accepts_with_fuel(i)).collect();
        let Some(seats) = on_both_seats(|| {
            inputs
                .iter()
                .map(|i| v.accepts_with_fuel(i))
                .collect::<Vec<_>>()
        }) else {
            return;
        };
        for probes in seats {
            assert_eq!(probes, serial);
        }
    }

    #[test]
    fn repeated_and_concurrent_probes_agree() {
        let v = late_import_pack().validator().expect("validator");
        let inputs = ["ab", "abcd", "", "abc", "x"];
        let first: Vec<(bool, u64)> = inputs.iter().map(|i| v.accepts_with_fuel(i)).collect();
        assert_eq!(first.iter().filter(|(verdict, _)| *verdict).count(), 3);
        for _ in 0..3 {
            let again: Vec<(bool, u64)> = inputs.iter().map(|i| v.accepts_with_fuel(i)).collect();
            assert_eq!(again, first);
        }
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        inputs
                            .iter()
                            .map(|i| v.accepts_with_fuel(i))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for t in threads {
                assert_eq!(t.join().expect("probe thread"), first);
            }
        });
    }

    #[test]
    fn module_state_never_leaks_between_probes() {
        // The candidate mutates a module-level list. Module init re-runs on
        // every probe, so each probe sees a fresh, empty `SEEN`.
        let source = "SEEN = []\n\ndef first(s):\n    SEEN.append(s)\n    return len(SEEN) == 1\n";
        let pack = Pack {
            files: vec![("mod".into(), source.into())],
            entry: EntryPoint::Function {
                name: "first".into(),
            },
            dnf_e: vec![vec![Literal::Ret {
                site: SiteId::new(u32::MAX, 0),
                value: ValueSummary::Bool(true),
            }]],
            ..sample_pack()
        };
        let v = pack.validator().expect("validator");
        let probes = || ["a", "b", "a", "cd"].map(|input| v.probe(input, None));
        let first = v.probe("a", None);
        assert!(first.verdict);
        assert_eq!(probes(), [first; 4]);
        for seat in on_both_seats(probes).unwrap_or_default() {
            assert_eq!(seat, [first; 4]);
        }
    }

    #[test]
    fn fuel_ceiling_clamps_to_pack_budget_and_caps_runs() {
        let v = sample_pack().validator().expect("validator");
        assert_eq!(v.fuel_budget(), 10_000);
        // A cap above the budget clamps down to the budget: same verdict,
        // same fuel as the uncapped probe.
        let uncapped = v.probe("abcd", None);
        assert_eq!(v.probe("abcd", Some(u64::MAX)), uncapped);
        // A starvation cap exhausts fuel: the probe cannot accept and burns
        // at most the cap. The cap must not leak into later probes.
        let Probe { verdict, fuel } = v.probe("abcd", Some(1));
        assert!(!verdict, "starved probe cannot accept");
        assert!(fuel <= 1, "burned {fuel} with cap 1");
        assert_eq!(v.probe("abcd", None), uncapped);
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("autotype-pack-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evenlen.atpk");
        let pack = sample_pack();
        pack.save(&path).expect("save");
        let back = Pack::load(&path).expect("load");
        assert_eq!(back, pack);
        std::fs::remove_file(&path).ok();
    }
}
