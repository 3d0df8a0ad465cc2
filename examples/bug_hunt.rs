//! Catalogue-wide bug hunt: run G-QED against every catalogued bug of a
//! chosen design (or of all designs with `--all`) and tabulate the
//! detection results against the catalogue's ground truth.
//!
//! Run with:
//!   cargo run --release --example bug_hunt            # one design (accum)
//!   cargo run --release --example bug_hunt -- crc32   # pick a design
//!   cargo run --release --example bug_hunt -- --all   # the full suite
//!
//! This is the interactive sibling of the Table 2 generator
//! (`cargo run --release --bin gqed -- table2`).

use gqed::core::theory::evaluation_bound;
use gqed::core::{check_design, CheckKind, Verdict};
use gqed::ha::{all_designs, DesignEntry};

fn hunt(entry: &DesignEntry) {
    println!(
        "\n=== {} ({}) ===",
        entry.name,
        if entry.interfering {
            "interfering"
        } else {
            "non-interfering"
        }
    );
    println!(
        "{:32} {:18} {:>7} {:>9} expected",
        "bug", "verdict", "cycles", "time"
    );
    for bug in (entry.bugs)() {
        let design = entry.build_buggy(bug.id);
        let bound = evaluation_bound(&design, &bug);
        let o = check_design(&design, CheckKind::GQed, bound);
        let (verdict, cycles) = match &o.verdict {
            Verdict::Violation { property, cycles } => (property.clone(), cycles.to_string()),
            Verdict::CleanUpTo(_) => ("clean".to_string(), "-".to_string()),
        };
        let agree = o.verdict.is_violation() == bug.expected.gqed;
        println!(
            "{:32} {:18} {:>7} {:>8.1?} {}{}",
            bug.id,
            verdict,
            cycles,
            o.elapsed,
            if bug.expected.gqed {
                "detect"
            } else {
                "miss (outside bug class)"
            },
            if agree { "" } else { "  << MISMATCH" }
        );
        assert!(
            agree,
            "{}::{} disagrees with the catalogue",
            entry.name, bug.id
        );
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    let designs = all_designs();
    match arg.as_deref() {
        Some("--all") => {
            for e in &designs {
                hunt(e);
            }
        }
        Some(name) => {
            let e = designs
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("unknown design '{name}'"));
            hunt(e);
        }
        None => {
            let e = designs.iter().find(|e| e.name == "accum").unwrap();
            hunt(e);
        }
    }
    println!("\nall verdicts agree with the catalogue ground truth");
}
