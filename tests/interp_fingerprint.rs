//! Corpus-wide interpreter fingerprint: every file of the default corpus is
//! executed — each top-level one-parameter function on a fixed list of
//! inputs, and each file's top level as a script — and everything the
//! pipeline can observe about those runs is folded into one FNV-1a hash:
//! the fuel used, the trace events, and the result's repr or the escaping
//! exception's kind and message.
//!
//! Fuel, traces and verdicts are the interpreter's contract with synthesis
//! and detection, so any change to name resolution, dispatch or value
//! representation must leave this constant untouched. A change that moves
//! it on purpose must say why and re-pin it.

use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_lang::{Interp, Io, PyError, Value};

/// The pinned fingerprint.
const FINGERPRINT: u64 = 0xa4d0_fe4c_4f97_d76d;

/// Fuel per run: enough for every corpus validator, small enough that the
/// corpus's deliberately runaway snippets die quickly in the debug profile.
const FUEL: u64 = 20_000;

/// Typed values, near misses, the empty string and non-ASCII text.
const INPUTS: &[&str] = &[
    "4111111111111111",
    "978-0-306-40615-7",
    "192.168.0.1",
    "2018-06-10",
    "4111 1111 1111 1112",
    "abc-XYZ",
    "",
    "Ünïcødé ✓ 日本",
];

/// Streaming 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, so adjacent fields cannot run into each other.
    fn field(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }
}

fn hash_run(h: &mut Fnv, interp: &Interp, outcome: Result<String, PyError>) {
    h.write(&interp.fuel_used().to_le_bytes());
    for event in interp.trace_events() {
        h.field(&format!("{event:?}"));
    }
    match outcome {
        Ok(repr) => h.field(&repr),
        Err(e) => {
            // The escaping exception, recorded after the run's events; its
            // kind is hashed next.
            h.field("exception");
            h.field(&e.kind);
            h.field(&e.message);
        }
    }
}

fn repr_namespace(globals: &std::collections::BTreeMap<String, Value>) -> String {
    globals
        .iter()
        .map(|(k, v)| format!("{k}={}", v.repr()))
        .collect::<Vec<_>>()
        .join(";")
}

fn corpus_fingerprint() -> (u64, usize) {
    let corpus = build_corpus(&CorpusConfig::default());
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut runs = 0;
    for repo in &corpus.repositories {
        let mut program = repo.program().expect("corpus files parse");
        for (name, source) in &corpus.packages {
            program.add_file(name, source).expect("packages parse");
        }
        for (file, snippet) in repo.files.iter().enumerate() {
            let file = file as u32;
            h.field(&format!("{}/{}", repo.name, snippet.name));

            let mut interp = Interp::with_options(&program, Io::default(), FUEL);
            let outcome = interp
                .load_module(file)
                .map(|g| repr_namespace(&g.borrow().attrs));
            hash_run(&mut h, &interp, outcome);
            runs += 1;

            let entries: Vec<String> = program
                .file(file)
                .module
                .functions()
                .filter(|f| f.params.len() == 1)
                .map(|f| f.name.clone())
                .collect();
            for entry in &entries {
                for input in INPUTS {
                    h.field(entry);
                    h.field(input);
                    let mut interp = Interp::with_options(&program, Io::default(), FUEL);
                    let outcome = interp
                        .call_function(file, entry, vec![Value::str(*input)])
                        .map(|v| v.repr());
                    hash_run(&mut h, &interp, outcome);
                    runs += 1;
                }
            }
        }
    }
    (h.0, runs)
}

#[test]
fn corpus_execution_fingerprint_is_pinned() {
    let (fingerprint, runs) = corpus_fingerprint();
    assert!(runs > 1_000, "only {runs} runs: the corpus shrank");
    assert_eq!(
        fingerprint, FINGERPRINT,
        "interpreter fingerprint moved ({fingerprint:#018x} over {runs} runs): \
         fuel, traces or results changed"
    );
}
