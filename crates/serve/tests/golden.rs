//! Golden-file determinism test: the `.atpk` fixtures under `tests/data/`
//! were serialized by a past process and checked into the repo. Loading
//! them here and pinning their pack ids and exact verdicts catches any
//! cross-PR drift in the wire format, the interpreter, or the detection
//! semantics — if any of those change observable behavior, this test
//! fails loudly rather than letting the drift ship silently.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! cargo test -p autotype-serve --test golden -- --ignored regenerate
//! ```
//!
//! then update the pinned ids/verdicts below and say why in the PR.

use autotype_exec::{EntryPoint, Literal};
use autotype_lang::{SiteId, ValueSummary};
use autotype_pack::Pack;
use autotype_serve::DetectorRuntime;

fn data_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
}

/// The fixture definitions. Only used by the regeneration path — the
/// pinned test reads the serialized bytes from disk.
fn fixture_packs() -> Vec<(String, Pack)> {
    let boolean_pack = |slug: &str, func: &str, source: &str| Pack {
        slug: slug.into(),
        keyword: slug.into(),
        label: format!("demo/mod.{func}"),
        repo_name: "demo".into(),
        file: "mod".into(),
        strategy: "S1".into(),
        method: "DNF-S".into(),
        score: 1.0,
        neg_fraction: 0.0,
        explanation: "(ret==True)".into(),
        fuel: 10_000,
        installs: 0,
        candidate_file: 0,
        entry: EntryPoint::Function { name: func.into() },
        files: vec![("mod".into(), source.into())],
        packages: vec![],
        dnf_e: vec![vec![Literal::Ret {
            site: SiteId::new(u32::MAX, 0),
            value: ValueSummary::Bool(true),
        }]],
    };
    vec![
        (
            "00-evenlen.atpk".into(),
            boolean_pack(
                "evenlen",
                "is_even_len",
                "def is_even_len(s):\n    if len(s) % 2 == 0:\n        return True\n    return False\n",
            ),
        ),
        (
            "01-short.atpk".into(),
            boolean_pack(
                "short",
                "is_short",
                "def is_short(s):\n    if len(s) < 3:\n        return True\n    return False\n",
            ),
        ),
    ]
}

/// Values probed by the pinned test, chosen to exercise both packs, both
/// priority-order tie-breaks, and the no-match path.
const GOLDEN_VALUES: [&str; 8] = ["ab", "a", "abc", "", "xyzq", "zzzzz", "yz", "q"];

/// Expected `detect_value` verdicts for [`GOLDEN_VALUES`], as pack
/// indices (0 = evenlen, 1 = short).
const GOLDEN_VERDICTS: [Option<usize>; 8] = [
    Some(0), // "ab": even length beats short on priority
    Some(1), // "a": odd but short
    None,    // "abc": odd, not short
    Some(0), // "": zero length is even
    Some(0), // "xyzq"
    None,    // "zzzzz"
    Some(0), // "yz"
    Some(1), // "q"
];

/// Pinned content-derived pack ids — these change iff the serialized
/// payload bytes change.
const GOLDEN_PACK_IDS: [&str; 2] = ["evenlen-b8d93d00186e8701", "short-31c119371cec2799"];

#[test]
fn golden_fixture_pins_ids_and_verdicts() {
    let rt = DetectorRuntime::load_dir(&data_dir(), 2, 256).expect("load golden fixtures");
    assert_eq!(rt.packs().len(), 2, "fixture pack count");
    for (pack, want) in rt.packs().iter().zip(GOLDEN_PACK_IDS) {
        assert_eq!(
            pack.pack_id(),
            want,
            "pack id drifted — wire format or payload serialization changed"
        );
    }
    let values: Vec<String> = GOLDEN_VALUES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        rt.detect_batch(&values),
        GOLDEN_VERDICTS.to_vec(),
        "verdicts drifted — interpreter or detection semantics changed"
    );
    // Column semantics over the same fixture: 5/6 even-length clears the
    // 0.8 threshold; all-short claims pack 1; junk matches nothing.
    let col = |vals: &[&str]| -> Vec<String> { vals.iter().map(|s| s.to_string()).collect() };
    assert_eq!(
        rt.detect_column(&col(&["ab", "cd", "ef", "gh", "ij", "x"])),
        Some(0)
    );
    assert_eq!(rt.detect_column(&col(&["a", "b", "c"])), Some(1));
    assert_eq!(rt.detect_column(&col(&["abc", "defgh", "qqq"])), None);
}

/// Rewrites the fixtures from [`fixture_packs`]. Run explicitly (see the
/// module docs); never part of a normal test run.
#[test]
#[ignore = "regenerates the checked-in golden fixtures"]
fn regenerate() {
    let dir = data_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, pack) in fixture_packs() {
        let path = dir.join(&name);
        pack.save(&path).expect("serialize fixture");
        let loaded = Pack::load(&path)
            .and_then(|pack| pack.validator())
            .expect("reload fixture");
        println!("{name}: pack_id = {}", loaded.pack_id());
    }
}
