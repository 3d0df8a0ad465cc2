//! Exact-counter gates of the warm-start pipeline, SAT-core inprocessing
//! and the IC3/PDR engine.
//!
//! Three campaigns solve every bounded check of `relu` on one worker,
//! engine `bmc` only, with no deadline and a base conflict budget of 600
//! Luby-escalated over up to 16 attempts, so every non-trivial obligation
//! is stopped and retried: *cold* (every attempt re-synthesizes,
//! re-bitblasts and re-solves from frame 0), *warm* (model cache plus
//! resumable sessions), and warm with inprocessing off. One IC3/PDR run
//! on a fixed non-inductive property of `bitflip` completes the set.
//!
//! Each test first asserts the structural gates, so a failure names the
//! broken invariant: warm never does more frame-solving work than cold,
//! inprocessing never changes a verdict and strictly helps, PDR proves
//! within the portfolio's query cap and re-checks its invariant. Then it
//! pins the exact counters, the way `crates/sat/tests/search_counters.rs`
//! pins the SAT core's: single thread, no randomness and no wall-clock
//! cutoff make every counter an exact function of the models and the
//! engines. A drifting counter means the encoding or an engine's search
//! changed; re-record it here and argue the change on its own.

use gqed::bmc::BmcLimits;
use gqed::campaign::{
    enumerate_obligations, Campaign, CampaignConfig, CampaignSummary, EngineId, FlowFilter,
    JobVerdict, Obligation, ObligationKind, Telemetry, PDR_QUERY_CAP,
};
use gqed::core::{build_model, CheckKind};
use gqed::ha::all_designs;
use gqed::pdr::{check_invariant, prove_pdr_limited, PdrOptions, PdrVerdict};
use gqed::sat::SolverStats;
use std::sync::OnceLock;

/// The suite: every bounded check of `relu`. Clean-design proof
/// obligations are left out: their deepest queries need orders of
/// magnitude more conflicts than the budget, so the cold campaign would
/// spend its whole run re-solving one of them.
fn suite() -> Vec<Obligation> {
    enumerate_obligations(FlowFilter::all(), &["relu".to_string()])
        .into_iter()
        .filter(|o| !matches!(o.kind, ObligationKind::ProveClean { .. }))
        .collect()
}

fn run(warm_start: bool, inprocessing: bool) -> CampaignSummary {
    let config = CampaignConfig::default()
        .with_base_budget(600)
        .with_max_attempts(16)
        .with_engines(vec![EngineId::Bmc])
        .with_warm_start(warm_start)
        .with_inprocessing(inprocessing);
    Campaign::new(&suite())
        .config(config)
        .run(&Telemetry::null())
}

/// The warm campaign (inprocessing on), shared by both campaign tests.
fn warm() -> &'static CampaignSummary {
    static WARM: OnceLock<CampaignSummary> = OnceLock::new();
    WARM.get_or_init(|| run(true, true))
}

/// A solver counter summed over the deciding runs of every obligation.
fn solver_sum(s: &CampaignSummary, counter: fn(&SolverStats) -> u64) -> u64 {
    s.records
        .iter()
        .filter_map(|r| r.stats.as_ref())
        .map(|st| counter(&st.solver))
        .sum()
}

fn attempts(s: &CampaignSummary) -> u64 {
    s.records.iter().map(|r| u64::from(r.attempts)).sum()
}

/// The pinned counters of one campaign, named so a mismatch reads as a
/// diff.
fn counters(s: &CampaignSummary) -> Vec<(&'static str, u64)> {
    vec![
        ("frames_solved", s.frames_solved),
        ("attempts", attempts(s)),
        ("session_resumes", s.session_resumes),
        ("encoding_cache_hits", s.encoding_cache_hits),
        ("encoding_cache_misses", s.encoding_cache_misses),
        ("timeouts", s.timeouts as u64),
        ("mismatches", s.mismatches as u64),
        ("conflicts", solver_sum(s, |st| st.conflicts)),
        ("propagations", solver_sum(s, |st| st.propagations)),
        ("simplify_rounds", solver_sum(s, |st| st.simplify_rounds)),
        ("eliminated_vars", solver_sum(s, |st| st.eliminated_vars)),
        ("subsumed_clauses", solver_sum(s, |st| st.subsumed_clauses)),
        (
            "strengthened_clauses",
            solver_sum(s, |st| st.strengthened_clauses),
        ),
        ("vivified_clauses", solver_sum(s, |st| st.vivified_clauses)),
    ]
}

/// Whether two campaigns reached equivalent verdicts on every
/// obligation: the same class, and violations at the same depth. The
/// violated property's name is not compared: when several properties fire
/// at one depth, which one the witness shows depends on the model the
/// solver happened to find, and solver state legitimately changes that.
fn verdicts_match(a: &CampaignSummary, b: &CampaignSummary) -> bool {
    a.records.len() == b.records.len()
        && a.records
            .iter()
            .zip(&b.records)
            .all(|(x, y)| match (&x.verdict, &y.verdict) {
                (
                    JobVerdict::Violation { cycles: cx, .. },
                    JobVerdict::Violation { cycles: cy, .. },
                ) => cx == cy,
                (vx, vy) => vx == vy,
            })
}

/// A warm retry resumes its kept session at the stopped frame instead of
/// re-synthesizing, re-bitblasting and re-solving from frame 0.
#[test]
fn warm_pipeline_resumes_instead_of_redoing_cold_work() {
    let cold = run(false, true);
    let warm = warm();

    assert_eq!((cold.mismatches, warm.mismatches), (0, 0));
    assert!(verdicts_match(&cold, warm), "warm and cold verdicts differ");
    assert!(
        warm.frames_solved <= cold.frames_solved,
        "warm solved more frames from zero than cold ({} > {})",
        warm.frames_solved,
        cold.frames_solved
    );
    assert!(warm.timeouts <= cold.timeouts, "warm lost work cold kept");
    assert_eq!(warm.timeouts, 0, "warm run timed out");
    // The budget must force retries, and the retries must resume sessions
    // and reuse cached models rather than rebuild them.
    assert!(
        attempts(warm) > suite().len() as u64,
        "budget never forced a retry"
    );
    assert!(warm.session_resumes > 0, "no session was resumed");
    assert!(
        warm.encoding_cache_misses < attempts(warm),
        "every attempt rebuilt its model"
    );
    // Cold must not silently warm up.
    assert_eq!((cold.encoding_cache_hits, cold.session_resumes), (0, 0));

    assert_eq!(
        counters(&cold),
        [
            ("frames_solved", 320),
            ("attempts", 36),
            ("session_resumes", 0),
            ("encoding_cache_hits", 0),
            ("encoding_cache_misses", 0),
            ("timeouts", 0),
            ("mismatches", 0),
            ("conflicts", 17_188),
            ("propagations", 10_227_433),
            ("simplify_rounds", 35),
            ("eliminated_vars", 14_740),
            ("subsumed_clauses", 8_771),
            ("strengthened_clauses", 3_456),
            ("vivified_clauses", 9_978),
        ],
        "the cold campaign diverged from the pinned run"
    );
    assert_eq!(
        counters(warm),
        [
            ("frames_solved", 88),
            ("attempts", 22),
            ("session_resumes", 12),
            ("encoding_cache_hits", 0),
            ("encoding_cache_misses", 10),
            ("timeouts", 0),
            ("mismatches", 0),
            ("conflicts", 17_170),
            ("propagations", 10_167_323),
            ("simplify_rounds", 35),
            ("eliminated_vars", 14_739),
            ("subsumed_clauses", 8_767),
            ("strengthened_clauses", 3_455),
            ("vivified_clauses", 9_959),
        ],
        "the warm campaign diverged from the pinned run"
    );
}

/// Inprocessing (bounded variable elimination, subsumption,
/// vivification) is a pure performance knob: it never changes a verdict,
/// and it must buy something.
#[test]
fn inprocessing_is_verdict_invariant_and_strictly_helps() {
    let on = warm();
    let off = run(true, false);

    assert_eq!((on.mismatches, off.mismatches), (0, 0));
    assert!(verdicts_match(on, &off), "inprocessing flipped a verdict");
    assert!(on.timeouts <= off.timeouts, "inprocessing added a timeout");
    // The gate means nothing unless the passes ran, and only in `on`.
    let work = |s| {
        solver_sum(s, |st| {
            st.eliminated_vars + st.subsumed_clauses + st.strengthened_clauses + st.vivified_clauses
        })
    };
    assert!(
        solver_sum(on, |st| st.simplify_rounds) > 0 && work(on) > 0,
        "inprocessing did no work"
    );
    assert_eq!(solver_sum(&off, |st| st.simplify_rounds), 0);
    // Strictly fewer frame queries, or as many at strictly fewer conflicts.
    let conflicts = |s| solver_sum(s, |st| st.conflicts);
    assert!(
        on.frames_solved < off.frames_solved
            || (on.frames_solved == off.frames_solved && conflicts(on) < conflicts(&off)),
        "inprocessing bought nothing: {} vs {} frames, {} vs {} conflicts",
        on.frames_solved,
        off.frames_solved,
        conflicts(on),
        conflicts(&off)
    );

    assert_eq!(
        counters(&off),
        [
            ("frames_solved", 93),
            ("attempts", 27),
            ("session_resumes", 17),
            ("encoding_cache_hits", 0),
            ("encoding_cache_misses", 10),
            ("timeouts", 0),
            ("mismatches", 0),
            ("conflicts", 21_615),
            ("propagations", 12_032_073),
            ("simplify_rounds", 0),
            ("eliminated_vars", 0),
            ("subsumed_clauses", 0),
            ("strengthened_clauses", 0),
            ("vivified_clauses", 0),
        ],
        "the inprocessing-off campaign diverged from the pinned run"
    );
}

/// One property of the seeded PDR-win design: cheap, but not inductive,
/// so the engine runs its full CTI, blocking, generalization and
/// propagation loop. The property is looked up by name, so reordering the
/// catalogue cannot silently change what is measured.
#[test]
fn pdr_proves_the_non_inductive_fixture_within_the_query_cap() {
    let entry = all_designs()
        .into_iter()
        .find(|e| e.name == "bitflip")
        .expect("bitflip is catalogued");
    let model = build_model(&entry.build_clean(), CheckKind::GQed);
    let bad = model
        .ts
        .bads
        .iter()
        .position(|b| b.name == "flow.orphan.c1")
        .expect("bitflip G-QED model has the orphan-response property");
    let opts = PdrOptions {
        max_queries: Some(PDR_QUERY_CAP),
        ..PdrOptions::default()
    };
    let out = prove_pdr_limited(&model.ctx, &model.ts, bad, &opts, &BmcLimits::default());

    let PdrVerdict::Proven { frames, invariant } = &out.verdict else {
        panic!("PDR no longer proves the fixture: {:?}", out.verdict);
    };
    assert_eq!(*frames, out.stats.frames);
    let st = &out.stats;
    assert_eq!(st.recheck_failures, 0, "the invariant failed its re-check");
    // The engine certified its invariant before reporting the proof: the
    // returned invariant passes an independent re-check, whose exact cost
    // the engine recorded, a number only running that re-check produces.
    let recheck = check_invariant(&model.ctx, &model.ts, bad, invariant)
        .expect("the returned invariant certifies the proof");
    assert!(recheck.propagations > 0);
    assert_eq!(
        st.recheck_propagations, recheck.propagations,
        "the engine did not re-check its invariant"
    );
    assert!(
        st.queries <= PDR_QUERY_CAP,
        "PDR exceeded the portfolio query cap ({} > {PDR_QUERY_CAP})",
        st.queries
    );
    // Genuine non-inductive work, not a degenerate instant proof.
    assert!(st.frames > 1 && st.ctis > 0 && st.blocked_cubes > 0);

    assert_eq!(
        [
            ("frames", u64::from(st.frames)),
            ("ctis", st.ctis),
            ("blocked_cubes", st.blocked_cubes),
            ("generalize_drops", st.generalize_drops),
            ("propagated", st.propagated),
            ("queries", st.queries),
            ("recheck_propagations", st.recheck_propagations),
        ],
        [
            ("frames", 18),
            ("ctis", 187),
            ("blocked_cubes", 732),
            ("generalize_drops", 567),
            ("propagated", 3_534),
            ("queries", 9_426),
            ("recheck_propagations", 114_135),
        ],
        "the PDR search diverged from the pinned run"
    );
}
