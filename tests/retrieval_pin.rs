//! Retrieval fingerprint: every registry keyword, canonical and alternate,
//! is run through [`AutoType::retrieve`] on the default corpus, and the
//! repository lists it returns (the union of both engines' top-k, in
//! order) are folded into one FNV-1a hash.
//!
//! Retrieval decides which code every later stage sees, so a change to
//! tokenization, the index or either engine's weighting or scoring must
//! leave this constant untouched. A change that moves it on purpose must
//! say why and re-pin it.

use autotype::{AutoType, AutoTypeConfig};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_typesys::registry;

/// The pinned fingerprint.
const FINGERPRINT: u64 = 0x3c0a_498b_064c_290c;

/// 64-bit FNV-1a.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn retrieval_is_pinned() {
    let engine = AutoType::new(
        build_corpus(&CorpusConfig::default()),
        AutoTypeConfig::default(),
    );
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut queries = 0;
    for t in registry() {
        for keyword in t.keywords {
            let repos = engine.retrieve(keyword);
            fnv1a(&mut h, &(keyword.len() as u64).to_le_bytes());
            fnv1a(&mut h, keyword.as_bytes());
            fnv1a(&mut h, &(repos.len() as u64).to_le_bytes());
            for repo in repos {
                fnv1a(&mut h, &(repo as u64).to_le_bytes());
            }
            queries += 1;
        }
    }
    assert!(queries > 112, "every type has a canonical keyword");
    assert_eq!(h, FINGERPRINT, "retrieval fingerprint {h:#018x}");
}
