//! Executor fingerprint: every default-corpus repository is built into an
//! [`Executor`] against the corpus package index, and each executor's
//! program file names (in file-id order) and install count are folded into
//! one FNV-1a hash.
//!
//! File ids are load-bearing: every trace `SiteId` names a file by its
//! position in the executor's program, and detector packs snapshot that
//! order. A change to dependency resolution must leave this constant
//! untouched; a change that moves it on purpose must say why and re-pin it.

use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_exec::{Executor, PackageIndex};

/// The pinned fingerprint.
const FINGERPRINT: u64 = 0x8489_ac2d_9162_98da;

/// 64-bit FNV-1a.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn executor_file_ids_are_pinned() {
    let corpus = build_corpus(&CorpusConfig::default());
    let mut packages = PackageIndex::new();
    for (name, source) in &corpus.packages {
        packages.insert(name, source);
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut built = 0;
    for repo in &corpus.repositories {
        let Ok(program) = repo.program() else {
            continue;
        };
        let exec = Executor::new(program, &packages, 1_000);
        let files = &exec.program().files;
        fnv1a(&mut h, &(repo.id as u64).to_le_bytes());
        fnv1a(&mut h, &(files.len() as u64).to_le_bytes());
        for file in files {
            fnv1a(&mut h, &(file.name.len() as u64).to_le_bytes());
            fnv1a(&mut h, file.name.as_bytes());
        }
        fnv1a(&mut h, &(exec.installs as u64).to_le_bytes());
        built += 1;
    }
    assert!(built > 100, "the default corpus builds {built} executors");
    assert_eq!(h, FINGERPRINT, "executor fingerprint {h:#018x}");
}
