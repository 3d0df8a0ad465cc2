//! Golden search counters.
//!
//! A seeded incremental workload under assumptions, large enough to
//! exercise learnt-clause database reduction, arena compaction and an
//! inprocessing pass, must reproduce these exact search counters. Any
//! change to the SAT core that is meant to be a pure speed-up (storage
//! layout, allocation, indexing) has to keep the search bit-for-bit
//! identical: same propagation order, same learnt clauses, same LBDs,
//! same reduction decisions. A counter drifting here means the search
//! itself changed, which is a behavioural change and must be argued for
//! separately.

use gqed_logic::SplitMix64;
use gqed_sat::{SatResult, Solver, SolverStats};

/// Number of problem variables (selectors are allocated above them).
const VARS: i32 = 200;

fn random_clause(rng: &mut SplitMix64, len: usize) -> Vec<i32> {
    let mut c: Vec<i32> = Vec::with_capacity(len);
    while c.len() < len {
        let v = rng.range_i32(1, VARS);
        if !c.contains(&v) && !c.contains(&-v) {
            c.push(if rng.next_bool() { v } else { -v });
        }
    }
    c
}

/// Runs the workload and returns the verdict sequence plus final stats.
///
/// Each round adds a batch of random 3-clauses (every sixteenth replaced
/// by a near-copy of its predecessor, every eighth guarded by one of four
/// selector variables) and solves under a random selector and
/// problem-literal assumption set, so the solver carries learnt clauses,
/// tombstones and eliminated variables across calls. The first solve
/// runs the inprocessing pass; later ones trigger reduction and
/// compaction.
fn run_workload() -> (Vec<SatResult>, SolverStats) {
    let mut rng = SplitMix64::new(0x5EA2_C4C0_0A7E_5EED);
    let mut s = Solver::new();
    for _ in 0..VARS {
        s.new_var();
    }
    let selectors: Vec<i32> = (0..4).map(|_| s.new_var()).collect();
    let mut verdicts = Vec::new();
    for round in 0..16 {
        let batch = if round == 0 { 720 } else { 20 };
        let mut prev: Vec<i32> = Vec::new();
        for i in 0..batch {
            let mut c = random_clause(&mut rng, 3);
            if i % 16 == 5 && !prev.is_empty() {
                // A superset of the previous clause (subsumed), or one
                // with a literal flipped (strengthened by self-subsuming
                // resolution): feeds the inprocessing pass real work.
                c = prev.clone();
                if rng.next_bool() {
                    c[0] = -c[0];
                }
                let v = rng.range_i32(1, VARS);
                if !c.contains(&v) && !c.contains(&-v) {
                    c.push(v);
                }
            }
            prev = c.clone();
            if i % 8 == 0 {
                let sel = selectors[rng.below(selectors.len() as u64) as usize];
                c.push(-sel);
            }
            s.add_clause(&c);
        }
        let mut assumptions: Vec<i32> = selectors
            .iter()
            .map(|&sel| if rng.next_bool() { sel } else { -sel })
            .collect();
        for _ in 0..3 {
            let v = rng.range_i32(1, VARS);
            assumptions.push(if rng.next_bool() { v } else { -v });
        }
        verdicts.push(s.solve(&assumptions));
    }
    (verdicts, s.stats())
}

/// Recorded on the per-clause `Vec<Lit>` store that preceded the flat
/// clause arena; the arena, allocation-free conflict analysis and
/// literal-indexed values all had to reproduce them exactly.
#[test]
fn seeded_incremental_workload_pins_search_counters() {
    use SatResult::{Sat, Unsat};
    let (verdicts, st) = run_workload();
    assert_eq!(
        verdicts,
        [
            Sat, Sat, Sat, Sat, Sat, Sat, Sat, Sat, Sat, Unsat, Unsat, Unsat, Unsat, Unsat, Unsat,
            Unsat
        ]
    );
    // The workload must reach every path the counters are meant to pin.
    assert!(st.compactions >= 1 && st.simplify_rounds >= 1 && st.deleted_clauses > 0);
    assert!(st.subsumed_clauses > 0 && st.strengthened_clauses > 0 && st.eliminated_vars > 0);
    let got = [
        ("conflicts", st.conflicts),
        ("decisions", st.decisions),
        ("propagations", st.propagations),
        ("restarts", st.restarts),
        ("deleted_clauses", st.deleted_clauses),
        ("compactions", st.compactions),
        ("simplify_rounds", st.simplify_rounds),
        ("eliminated_vars", st.eliminated_vars),
        ("restored_vars", st.restored_vars),
        ("subsumed_clauses", st.subsumed_clauses),
        ("strengthened_clauses", st.strengthened_clauses),
        ("vivified_clauses", st.vivified_clauses),
        ("learnt_clauses", st.learnt_clauses as u64),
        ("tier_core", st.tier_core as u64),
        ("tier_mid", st.tier_mid as u64),
        ("tier_local", st.tier_local as u64),
    ];
    let want = [
        ("conflicts", 23_685),
        ("decisions", 30_621),
        ("propagations", 867_516),
        ("restarts", 188),
        ("deleted_clauses", 12_772),
        ("compactions", 1),
        ("simplify_rounds", 1),
        ("eliminated_vars", 9),
        ("restored_vars", 9),
        ("subsumed_clauses", 18),
        ("strengthened_clauses", 27),
        ("vivified_clauses", 0),
        ("learnt_clauses", 10_913),
        ("tier_core", 1_130),
        ("tier_mid", 2_591),
        ("tier_local", 7_192),
    ];
    assert_eq!(got, want, "the search diverged from the pinned run");
}
