//! Soundness integration tests (Theorem 1, empirically): G-QED raises **no
//! false positives** — every bug-free design in the catalogue passes all
//! QED checks, and every reported violation on a buggy build carries a
//! replay-confirmed trace.
//!
//! (Replay confirmation itself is enforced inside the BMC engine: it
//! panics rather than return a non-replayable trace, so these tests also
//! exercise that guard.)

use gqed::core::{check_design, CheckKind, Verdict};
use gqed::ha::all_designs;

/// Every clean design passes G-QED at a moderate bound. False positives
/// overwhelmingly manifest shallowly (a couple of transactions), so this
/// bound is meaningful; `gqed table3` re-checks every clean design at
/// its recommended bound (capped at 12).
#[test]
fn no_false_positives_on_any_clean_design() {
    for entry in all_designs() {
        let d = entry.build_clean();
        let bound = 10.min(d.meta.recommended_bound);
        let o = check_design(&d, CheckKind::GQed, bound);
        assert!(
            !o.verdict.is_violation(),
            "{}: false positive {:?}",
            entry.name,
            o.verdict
        );
    }
}

/// Clean designs also pass their own conventional assertions.
#[test]
fn clean_designs_pass_conventional_assertions() {
    for entry in all_designs() {
        let d = entry.build_clean();
        let o = check_design(
            &d,
            CheckKind::Conventional,
            d.meta.recommended_bound.min(14),
        );
        assert!(
            !o.verdict.is_violation(),
            "{}: conventional assertion fired on the clean design: {:?}",
            entry.name,
            o.verdict
        );
    }
}

/// A-QED is sound on *non-interfering* designs: no false positives there.
#[test]
fn aqed_sound_on_non_interfering_designs() {
    for entry in all_designs().into_iter().filter(|e| !e.interfering) {
        let d = entry.build_clean();
        let o = check_design(&d, CheckKind::AQed, 10.min(d.meta.recommended_bound));
        assert!(
            !o.verdict.is_violation(),
            "{}: A-QED false positive on a non-interfering design: {:?}",
            entry.name,
            o.verdict
        );
    }
}

/// …and unsound on interfering ones: the false alarm the paper opens
/// with. (One representative design keeps the test fast; `gqed table2`
/// demonstrates it across the suite.)
#[test]
fn aqed_false_alarms_on_interfering_designs() {
    let entry = all_designs()
        .into_iter()
        .find(|e| e.name == "accum")
        .unwrap();
    let d = entry.build_clean();
    let o = check_design(&d, CheckKind::AQed, 14);
    match o.verdict {
        Verdict::Violation { ref property, .. } => {
            assert!(
                property.starts_with("fcg."),
                "false alarm must come from the FC check, got {property}"
            );
        }
        Verdict::CleanUpTo(_) => panic!("expected an A-QED false alarm on accum"),
    }
}

/// Violations on buggy builds carry well-formed traces.
#[test]
fn violations_carry_replayable_traces() {
    for (design, bug) in [
        ("accum", "uninit-acc"),
        ("vecadd", "result-recomputed-from-bus"),
        ("movavg", "shift-during-stall"),
    ] {
        let entry = all_designs()
            .into_iter()
            .find(|e| e.name == design)
            .unwrap();
        let d = entry.build_buggy(bug);
        let o = check_design(&d, CheckKind::GQed, 14);
        let trace = o
            .trace
            .unwrap_or_else(|| panic!("{design}::{bug}: no trace"));
        assert!(!trace.is_empty());
        assert!(trace.len() <= 15);
        // The engine replays internally; re-assert shape here.
        if let Verdict::Violation { cycles, .. } = o.verdict {
            assert_eq!(cycles, trace.len());
        } else {
            panic!("{design}::{bug}: expected violation");
        }
    }
}
