//! The campaign workloads (`prove`, `hunt`, `portfolio`): fixed catalogue
//! obligation sets run through `gqed_campaign::Campaign` with one worker,
//! and the traced replica that re-runs each obligation layer by layer.

use crate::harness::{median, ms, peak_rss_mb, percentile, process_cpu, Outcome};
use crate::spans::Tracer;
use gqed_bmc::{BmcEngine, BmcLimits, BmcStats, BmcStatus};
use gqed_campaign::{
    default_portfolio, enumerate_obligations, Campaign, CampaignConfig, CampaignSummary, EngineId,
    FlowFilter, JobVerdict, Obligation, ObligationKind, Telemetry, PDR_QUERY_CAP,
};
use gqed_core::{fnv1a64, synthesize, CheckKind, QedConfig};
use gqed_ha::all_designs;
use gqed_ir::{eval_terms, to_btor2, BitBlaster, Context, Model, TermId, TransitionSystem};
use gqed_logic::{Aig, AigLit, Cnf, Tseitin};
use gqed_pdr::{prove_pdr_limited, PdrOptions, PdrStats};
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Prove,
    Hunt,
    Portfolio,
}

/// Length and number of the untraced run's set-up rounds (see `measure`).
const SETUP_WINDOW: Duration = Duration::from_millis(200);
const SETUP_ROUNDS: usize = 5;

/// Designs whose bug checks make up `hunt`. `alu` and `matvec` are left
/// out only for run length (their bug checks add 14 s and 31 s).
const HUNT_DESIGNS: &[&str] = &["relu", "bitflip", "vecadd", "pipeadd", "accum", "crc32"];

impl Workload {
    /// The workload's obligations, in catalogue order, and the count the
    /// catalogue is expected to yield.
    pub fn obligations(self) -> (Vec<Obligation>, usize) {
        let designs = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let is_prove = |o: &Obligation| matches!(o.kind, ObligationKind::ProveClean { .. });
        match self {
            Workload::Prove => {
                let all = enumerate_obligations(FlowFilter::all(), &designs(&["vecadd", "crc32"]));
                (all.into_iter().filter(is_prove).collect(), 2)
            }
            Workload::Hunt => {
                let all = enumerate_obligations(FlowFilter::all(), &designs(HUNT_DESIGNS));
                (all.into_iter().filter(|o| !is_prove(o)).collect(), 74)
            }
            Workload::Portfolio => (
                enumerate_obligations(FlowFilter::all(), &designs(&["bitflip"])),
                11,
            ),
        }
    }

    pub fn config(self) -> CampaignConfig {
        let engines = match self {
            Workload::Portfolio => default_portfolio(),
            Workload::Prove | Workload::Hunt => vec![EngineId::Bmc],
        };
        CampaignConfig::default().with_jobs(1).with_engines(engines)
    }
}

/// Telemetry sink that timestamps each `job_verdict` line as the runner
/// writes it: the time from campaign start to each obligation's verdict.
#[derive(Clone)]
struct VerdictClock(Arc<Mutex<ClockState>>);

struct ClockState {
    start: Instant,
    line: Vec<u8>,
    verdicts: Vec<Duration>,
}

impl Write for VerdictClock {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let mut st = self.0.lock().unwrap_or_else(|e| e.into_inner());
        for &b in data {
            if b == b'\n' {
                if st.line.starts_with(b"{\"type\":\"job_verdict\"") {
                    let at = st.start.elapsed();
                    st.verdicts.push(at);
                }
                st.line.clear();
            } else {
                st.line.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One untraced pass over the workload's obligations.
struct Pass {
    wall: Duration,
    cpu: Duration,
    summary: CampaignSummary,
    /// Campaign start → verdict, one per obligation.
    verdict_times: Vec<Duration>,
}

fn run_pass(obligations: &[Obligation], config: &CampaignConfig) -> Pass {
    let clock = VerdictClock(Arc::new(Mutex::new(ClockState {
        start: Instant::now(),
        line: Vec::new(),
        verdicts: Vec::new(),
    })));
    let telemetry = Telemetry::new(Box::new(clock.clone()));
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    clock.0.lock().expect("clock lock").start = t0;
    let summary = Campaign::new(obligations)
        .config(config.clone())
        .run(&telemetry);
    let wall = t0.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let verdict_times = std::mem::take(&mut clock.0.lock().expect("clock lock").verdicts);
    Pass {
        wall,
        cpu,
        summary,
        verdict_times,
    }
}

/// Correctness gate of one pass; returns the number of failed
/// obligations.
fn check_pass(w: Workload, obligations: &[Obligation], pass: &Pass, out: &mut Outcome) -> u64 {
    let s = &pass.summary;
    if s.records.len() != obligations.len() {
        out.fail(format!(
            "{} of {} obligations reported",
            s.records.len(),
            obligations.len()
        ));
    }
    if pass.verdict_times.len() != obligations.len() {
        out.fail(format!(
            "{} job_verdict events for {} obligations",
            pass.verdict_times.len(),
            obligations.len()
        ));
    }
    if !s.is_success() {
        out.fail(format!(
            "campaign not clean: {} mismatches, {} timeouts, {} failures, {} cancelled, {} poisoned",
            s.mismatches, s.timeouts, s.failures, s.cancelled, s.poisoned
        ));
    }
    let mut failed = (obligations.len() as u64).saturating_sub(s.records.len() as u64);
    for r in &s.records {
        if r.mismatch || !r.verdict.is_conclusive() {
            failed += 1;
            out.fail(format!("{}: {:?}", r.obligation.id, r.verdict));
        }
        let is_prove = matches!(r.obligation.kind, ObligationKind::ProveClean { .. });
        let pdr_proof = matches!(r.verdict, JobVerdict::Proven { .. }) && r.engine == "pdr";
        if w == Workload::Portfolio && is_prove && !pdr_proof {
            out.fail(format!(
                "{} settled {:?} by {}, expected Proven by pdr",
                r.obligation.id, r.verdict, r.engine
            ));
        }
        if w == Workload::Prove && !matches!(r.verdict, JobVerdict::Clean { .. }) {
            out.fail(format!("{} settled {:?}", r.obligation.id, r.verdict));
        }
    }
    failed
}

/// The untraced run: set up (enumerate the obligations) repeatedly, then
/// run whole passes, at least one, until the next one would end past
/// `seconds`. Peak memory is read after the first pass, so it does not
/// depend on how many passes fit.
pub fn measure(w: Workload, seconds: u64) -> Outcome {
    let mut out = Outcome::new();
    // One enumeration takes well under a millisecond, and this box's CPU
    // speed shifts by up to half between sub-second phases, so a set-up
    // is `SETUP_WINDOW` of back-to-back enumerations (reported per
    // enumeration) and `setup_s` is the median of `SETUP_ROUNDS` of them.
    let mut setups = Vec::new();
    let mut obligations = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        let mut count = 0u32;
        while count == 0 || t0.elapsed() < SETUP_WINDOW {
            let (obls, expected) = w.obligations();
            if obls.len() != expected && obligations.is_empty() {
                out.fail(format!("{} obligations, expected {expected}", obls.len()));
            }
            obligations = obls;
            count += 1;
        }
        setups.push(t0.elapsed().as_secs_f64() / f64::from(count));
    }
    let config = w.config();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut latencies = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let pass = run_pass(&obligations, &config);
        out.attempted += obligations.len() as u64;
        let failed = check_pass(w, &obligations, &pass, &mut out);
        out.failed += failed;
        walls.push(pass.wall.as_secs_f64());
        cpus.push(pass.cpu.as_secs_f64());
        latencies.extend(pass.verdict_times.iter().map(|&d| ms(d)));
        if walls.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        let mean = start.elapsed() / walls.len() as u32;
        if start.elapsed() + mean > budget {
            break;
        }
    }
    latencies.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: {} verdicts, pass walls {walls:.3?} s",
        latencies.len()
    );
    out.set("wall_s", median(&walls));
    out.set("cpu_s", median(&cpus));
    out.set("peak_rss_mb", peak_rss);
    out.set("setup_s", median(&setups));
    out.set("latency_p50_ms", percentile(&latencies, 50.0));
    out
}

/// Per-obligation exact counters of the traced replica.
#[derive(Default)]
struct Counters {
    aig_ands: u64,
    cnf_vars: u64,
    cnf_clauses: u64,
    state_bits: u64,
    kept_state_bits: u64,
    btor2_bytes: u64,
    frame_queries: u64,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    restarts: u64,
    peak_arena: u64,
    simplify_rounds: u64,
    eliminated_vars: u64,
    traces: u64,
    kind_depth: u64,
    pdr: PdrStats,
}

impl Counters {
    fn add_bmc(&mut self, s: &BmcStats) {
        self.frame_queries += s.frame_queries;
        self.conflicts += s.solver.conflicts;
        self.decisions += s.solver.decisions;
        self.propagations += s.solver.propagations;
        self.restarts += s.solver.restarts;
        self.peak_arena = self.peak_arena.max(s.solver.peak_arena_bytes as u64);
        self.simplify_rounds += s.solver.simplify_rounds;
        self.eliminated_vars += s.solver.eliminated_vars;
    }
}

/// Layer names for the dominant-layer report, indexed as the
/// `dominant.*.layer` metrics report them.
const LAYERS: &[&str] = &[
    "ha.build",
    "wrapper.synth",
    "coi",
    "fingerprint",
    "encode",
    "sat",
    "replay",
    "kind",
    "pdr",
];

/// Share of a traced campaign pass that layer spans must cover; below
/// it, harness glue would hide work the ledger cannot attribute.
const MIN_COVERAGE: f64 = 0.95;

/// The traced run: one untraced pass (the reference for tracing
/// overhead and the source of runner and portfolio counters), then the
/// replica under spans.
pub fn trace(w: Workload, span_file: &std::path::Path) -> Outcome {
    let mut out = Outcome::new();
    let (obligations, expected) = w.obligations();
    if obligations.len() != expected {
        out.fail(format!(
            "{} obligations, expected {expected}",
            obligations.len()
        ));
    }
    let config = w.config();
    let pass = run_pass(&obligations, &config);
    out.attempted += obligations.len() as u64;
    let failed = check_pass(w, &obligations, &pass, &mut out);
    out.failed += failed;
    let s = &pass.summary;

    let mut tracer = Tracer::new();
    let mut total = Counters::default();
    let t0 = Instant::now();
    let root = tracer.open("pass", "");
    let mut per_obligation = Vec::new();
    for (i, obl) in obligations.iter().enumerate() {
        let id = tracer.open("obligation", obl.id.as_str());
        let (verdict, c) = replica(obl, &mut tracer, &config);
        tracer.close(id);
        per_obligation.push(id);
        out.attempted += 1;
        let Some(rec) = s.records.get(i) else {
            out.failed += 1;
            continue;
        };
        let mut ok = verdict.normalized() == rec.verdict.normalized();
        if !ok {
            out.fail(format!(
                "{}: replica {:?}, campaign {:?}",
                obl.id, verdict, rec.verdict
            ));
        }
        ok &= exact_counters_match(obl, rec, &c, &mut out);
        if !ok {
            out.failed += 1;
        }
        add_counters(&mut total, &c);
    }
    tracer.close(root);
    let traced_wall = t0.elapsed();

    let layers = tracer.layer_totals(|_| true);
    let layer_ms = |name: &str| layers.get(name).map_or(0.0, |&d| ms(d));
    let frame_ms_max = tracer
        .spans()
        .iter()
        .filter(|sp| sp.name == "bmc")
        .map(|sp| ms(sp.duration()))
        .fold(0.0, f64::max);
    let sat_ms = (layer_ms("bmc") - layer_ms("encode")).max(0.0);
    out.set("ha.build_ms", layer_ms("ha.build"));
    out.set("wrapper.synth_ms", layer_ms("wrapper.synth"));
    out.set("coi.ms", layer_ms("coi"));
    out.set(
        "coi.kept_state_bits_ratio",
        ratio(total.kept_state_bits, total.state_bits),
    );
    out.set("fingerprint.ms", layer_ms("fingerprint"));
    out.set("fingerprint.btor2_bytes", total.btor2_bytes as f64);
    out.set("encode.ms", layer_ms("encode"));
    out.set("encode.aig_ands", total.aig_ands as f64);
    out.set("encode.cnf_vars", total.cnf_vars as f64);
    out.set("encode.cnf_clauses", total.cnf_clauses as f64);
    out.set("sat.self_ms_est", sat_ms);
    out.set("sat.conflicts", total.conflicts as f64);
    out.set("sat.decisions", total.decisions as f64);
    out.set("sat.propagations", total.propagations as f64);
    out.set(
        "sat.props_per_s",
        total.propagations as f64 / (sat_ms / 1e3).max(1e-9),
    );
    out.set("sat.restarts", total.restarts as f64);
    out.set("sat.peak_arena_bytes", total.peak_arena as f64);
    out.set("sat.simplify_rounds", total.simplify_rounds as f64);
    out.set("sat.eliminated_vars", total.eliminated_vars as f64);
    out.set("bmc.ms", layer_ms("bmc"));
    out.set("bmc.frame_queries", total.frame_queries as f64);
    out.set("bmc.frame_ms_max", frame_ms_max);
    out.set("replay.ms", layer_ms("replay"));
    out.set("replay.traces", total.traces as f64);
    out.set("kind.ms", layer_ms("kind"));
    out.set("kind.depth", total.kind_depth as f64);
    out.set("pdr.ms", layer_ms("pdr"));
    out.set("pdr.queries", total.pdr.queries as f64);
    out.set("pdr.ctis", total.pdr.ctis as f64);
    out.set("pdr.blocked_cubes", total.pdr.blocked_cubes as f64);
    out.set("pdr.frames", f64::from(total.pdr.frames));
    out.set("portfolio.wins_bmc", s.wins_bmc as f64);
    out.set("portfolio.wins_kind", s.wins_kind as f64);
    out.set("portfolio.wins_pdr", s.wins_pdr as f64);
    out.set(
        "portfolio.cpu_per_wall",
        pass.cpu.as_secs_f64() / pass.wall.as_secs_f64().max(1e-9),
    );
    let attempts: u64 = s.records.iter().map(|r| u64::from(r.attempts)).sum();
    let job_wall: Duration = s.records.iter().map(|r| r.wall).sum();
    out.set("runner.attempts", attempts as f64);
    out.set(
        "runner.model_cache_hit_ratio",
        ratio(
            s.encoding_cache_hits,
            s.encoding_cache_hits + s.encoding_cache_misses,
        ),
    );
    out.set("runner.overhead_ms", ms(s.wall.saturating_sub(job_wall)));
    let mut verdicts: Vec<f64> = pass.verdict_times.iter().map(|&d| ms(d)).collect();
    verdicts.sort_by(f64::total_cmp);
    out.set("latency_p99_ms", percentile(&verdicts, 99.0));
    out.set(
        "trace.overhead_pct",
        (traced_wall.as_secs_f64() / pass.wall.as_secs_f64() - 1.0) * 100.0,
    );
    let coverage = tracer.coverage(root);
    out.set("trace.coverage", coverage);
    if coverage < MIN_COVERAGE {
        out.fail(format!(
            "layer spans cover {coverage:.4} of the traced wall, below {MIN_COVERAGE}"
        ));
    }
    eprintln!(
        "perfbench: untraced pass {:.3} s, traced replica {:.3} s, coverage {coverage:.4}",
        pass.wall.as_secs_f64(),
        traced_wall.as_secs_f64(),
    );
    for (obl, &span) in obligations.iter().zip(&per_obligation) {
        let metric = match obl.id.as_str() {
            "vecadd/clean/prove" => ("dominant.vecadd_prove.layer", "dominant.vecadd_prove.share"),
            "crc32/clean/prove" => ("dominant.crc32_prove.layer", "dominant.crc32_prove.share"),
            _ => continue,
        };
        let (index, share) = dominant_layer(&tracer, span);
        println!(
            "dominant layer of {}: {} ({:.1}% of {:.3} s traced)",
            obl.id,
            LAYERS[index],
            share * 100.0,
            tracer.spans()[span].duration().as_secs_f64()
        );
        out.set(metric.0, index as f64);
        out.set(metric.1, share);
    }
    if let Err(e) = tracer.write(span_file) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The layer with the largest self time inside one obligation span, and
/// its share of the span. SAT time is the BMC span time minus the
/// encoding replica's (an estimate until the engine has its own spans).
fn dominant_layer(tracer: &Tracer, span: usize) -> (usize, f64) {
    let totals = tracer.layer_totals(|i| tracer.within(i, span));
    let get = |n: &str| totals.get(n).copied().unwrap_or_default().as_secs_f64();
    let times: Vec<f64> = LAYERS
        .iter()
        .map(|&l| match l {
            "sat" => (get("bmc") - get("encode")).max(0.0),
            other => get(other),
        })
        .collect();
    let (index, best) =
        times.iter().enumerate().fold(
            (0, 0.0),
            |acc, (i, &t)| if t > acc.1 { (i, t) } else { acc },
        );
    let whole = tracer.spans()[span].duration().as_secs_f64().max(1e-9);
    (index, best / whole)
}

fn add_counters(acc: &mut Counters, c: &Counters) {
    acc.aig_ands += c.aig_ands;
    acc.cnf_vars += c.cnf_vars;
    acc.cnf_clauses += c.cnf_clauses;
    acc.state_bits += c.state_bits;
    acc.kept_state_bits += c.kept_state_bits;
    acc.btor2_bytes += c.btor2_bytes;
    acc.frame_queries += c.frame_queries;
    acc.conflicts += c.conflicts;
    acc.decisions += c.decisions;
    acc.propagations += c.propagations;
    acc.restarts += c.restarts;
    acc.peak_arena = acc.peak_arena.max(c.peak_arena);
    acc.simplify_rounds += c.simplify_rounds;
    acc.eliminated_vars += c.eliminated_vars;
    acc.traces += c.traces;
    acc.kind_depth = acc.kind_depth.max(c.kind_depth);
    acc.pdr.queries += c.pdr.queries;
    acc.pdr.ctis += c.pdr.ctis;
    acc.pdr.blocked_cubes += c.pdr.blocked_cubes;
    acc.pdr.frames = acc.pdr.frames.max(c.pdr.frames);
}

/// Exact-count self-check: the replica re-solves with the same engine,
/// so its deterministic counters must equal the campaign's. The BMC side
/// of a portfolio race is cut short by cancellation at a timing-dependent
/// point, so only its PDR side is compared.
fn exact_counters_match(
    obl: &Obligation,
    rec: &gqed_campaign::JobRecord,
    c: &Counters,
    out: &mut Outcome,
) -> bool {
    let mut pairs: Vec<(&str, u64, u64)> = Vec::new();
    match &rec.pdr_stats {
        Some(p) => {
            pairs.push(("pdr.queries", p.queries, c.pdr.queries));
            pairs.push(("pdr.ctis", p.ctis, c.pdr.ctis));
            pairs.push(("pdr.blocked_cubes", p.blocked_cubes, c.pdr.blocked_cubes));
            pairs.push(("pdr.frames", u64::from(p.frames), u64::from(c.pdr.frames)));
        }
        None => match &rec.stats {
            Some(s) => {
                pairs.push(("sat.conflicts", s.solver.conflicts, c.conflicts));
                pairs.push(("sat.decisions", s.solver.decisions, c.decisions));
                pairs.push(("sat.propagations", s.solver.propagations, c.propagations));
                pairs.push(("bmc.frame_queries", s.frame_queries, c.frame_queries));
                pairs.push(("encode.aig_ands", s.aig_ands as u64, c.aig_ands));
                pairs.push(("encode.cnf_vars", u64::from(s.cnf_vars), c.cnf_vars));
                pairs.push(("encode.cnf_clauses", s.cnf_clauses as u64, c.cnf_clauses));
            }
            None => {
                out.fail(format!("{}: campaign record has no statistics", obl.id));
                return false;
            }
        },
    }
    let mut ok = true;
    for (name, campaign, replica) in pairs {
        if campaign != replica {
            out.fail(format!(
                "{}: {name} campaign {campaign} != replica {replica}",
                obl.id
            ));
            ok = false;
        }
    }
    ok
}

fn state_bits_of(ctx: &Context, ts: &TransitionSystem) -> u64 {
    ts.states.iter().map(|s| u64::from(ctx.width(s.term))).sum()
}

/// Builds an obligation's model as `gqed_core::build_model` does, one
/// layer per span: design build, wrapper synthesis (for the QED flows)
/// and cone-of-influence reduction. Also returns the state bits before
/// the reduction.
pub fn build_traced(obl: &Obligation, tracer: &mut Tracer) -> (Model, u64) {
    let entry = all_designs()
        .into_iter()
        .find(|e| e.name == obl.design)
        .expect("catalogue design");
    let kind = match obl.kind {
        ObligationKind::Check { kind, .. } => kind,
        _ => CheckKind::GQed,
    };
    let mut design = tracer.time("ha.build", "", || match obl.bug {
        Some(bug) => entry.build_buggy(bug),
        None => entry.build_clean(),
    });
    let ts = tracer.time("wrapper.synth", "", || match kind {
        CheckKind::GQed => synthesize(&mut design, &QedConfig::gqed()).ts,
        CheckKind::AQed => synthesize(&mut design, &QedConfig::aqed()).ts,
        CheckKind::Conventional => {
            let mut ts = design.ts.clone();
            ts.bads = design.conventional.clone();
            ts
        }
    });
    let ctx = design.ctx;
    let before = state_bits_of(&ctx, &ts);
    let ts = tracer.time("coi", "", || ts.cone_of_influence(&ctx));
    (Model { ctx, ts }, before)
}

/// Re-runs one obligation layer by layer under spans: design build,
/// wrapper synthesis, COI, fingerprint, BMC one frame at a time,
/// counterexample replay, an encoding replica of the unrolling, and on a
/// portfolio proof the k-induction and PDR engines in turn.
fn replica(
    obl: &Obligation,
    tracer: &mut Tracer,
    config: &CampaignConfig,
) -> (JobVerdict, Counters) {
    let mut c = Counters::default();
    let bound = match obl.kind {
        ObligationKind::Check { bound, .. } | ObligationKind::ProveClean { bound, .. } => bound,
        _ => unreachable!("workloads hold catalogue obligations only"),
    };
    let (model, state_bits) = build_traced(obl, tracer);
    c.state_bits = state_bits;
    c.kept_state_bits = state_bits_of(&model.ctx, &model.ts);
    let model = Arc::new(model);
    let (_fingerprint, bytes) = tracer.time("fingerprint", "", || {
        let text = to_btor2(&model.ctx, &model.ts);
        (fnv1a64(text.as_bytes()), text.len())
    });
    c.btor2_bytes = bytes as u64;

    let limits = BmcLimits::default();
    let mut engine = BmcEngine::for_model(Arc::clone(&model));
    engine.set_inprocessing(config.inprocessing);
    let mut verdict = JobVerdict::Clean { bound };
    let mut last_frame = bound;
    for frame in 0..=bound {
        let status = tracer.time("bmc", &frame.to_string(), || {
            engine.try_check_up_to(frame, &limits)
        });
        match status {
            BmcStatus::NoneUpTo(_) => {}
            BmcStatus::Violated(trace) => {
                let replayed = tracer.time("replay", "", || {
                    gqed_bmc::replay(&model.ctx, &model.ts, &trace)
                });
                assert!(replayed.is_ok(), "{}: trace does not replay", obl.id);
                c.traces += 1;
                verdict = JobVerdict::Violation {
                    property: trace.bad_name.clone(),
                    cycles: trace.len(),
                };
                last_frame = frame;
                break;
            }
            BmcStatus::Stopped { .. } => unreachable!("no limits installed"),
        }
    }
    let stats = engine.stats();
    c.add_bmc(&stats);
    drop(engine);
    let (ands, vars, clauses) = tracer.time("encode", "", || encode_unrolling(&model, last_frame));
    c.aig_ands = ands as u64;
    c.cnf_vars = u64::from(vars);
    c.cnf_clauses = clauses as u64;

    let portfolio = config.engines.iter().any(|&e| e != EngineId::Bmc);
    if let (ObligationKind::ProveClean { max_k, .. }, true, false) =
        (&obl.kind, portfolio, verdict.is_violation())
    {
        // (proved, deepest k): k-induction gives up at the first property
        // it cannot prove within `max_k`.
        let (kind_proven, kind_depth) = tracer.time("kind", "", || {
            let mut depth = 0;
            for i in 0..model.ts.bads.len() {
                match gqed_bmc::prove_k_induction_limited(&model.ctx, &model.ts, i, *max_k, &limits)
                {
                    gqed_bmc::ProofResult::Proven { k } => depth = depth.max(k),
                    gqed_bmc::ProofResult::Unknown { max_k } => return (false, max_k),
                    other => panic!("{}: k-induction {other:?} on a clean design", obl.id),
                }
            }
            (true, depth)
        });
        c.kind_depth = u64::from(kind_depth);
        let opts = PdrOptions {
            max_queries: Some(PDR_QUERY_CAP),
            ..PdrOptions::default()
        };
        let pdr_proven = tracer.time("pdr", "", || {
            for i in 0..model.ts.bads.len() {
                let o = prove_pdr_limited(&model.ctx, &model.ts, i, &opts, &limits);
                c.pdr.queries += o.stats.queries;
                c.pdr.ctis += o.stats.ctis;
                c.pdr.blocked_cubes += o.stats.blocked_cubes;
                c.pdr.frames = c.pdr.frames.max(o.stats.frames);
                if !o.verdict.is_proven() {
                    return false;
                }
            }
            true
        });
        if pdr_proven {
            verdict = JobVerdict::Proven { k: c.pdr.frames };
        } else if kind_proven {
            verdict = JobVerdict::Proven { k: kind_depth };
        }
    }
    (verdict, c)
}

/// Replica of the BMC engine's incremental encoding of frames
/// `0..=last`: per frame, the next-state cones blasted in the previous
/// frame, the constraints behind one activation variable, and the bad
/// properties (ORed when there are several), each Tseitin-encoded in the
/// engine's order. Returns (AIG ANDs, CNF variables, CNF clauses).
fn encode_unrolling(model: &Model, last: u32) -> (usize, u32, usize) {
    let (ctx, ts) = (&model.ctx, &model.ts);
    let mut aig = Aig::new();
    let mut cnf = Cnf::new();
    let mut tseitin = Tseitin::new();
    let mut frames: Vec<(BitBlaster, HashMap<TermId, Vec<AigLit>>)> = Vec::new();
    for f in 0..=last {
        let mut blaster = BitBlaster::new();
        if f == 0 {
            for s in &ts.states {
                let w = ctx.width(s.term);
                let bits = match s.init {
                    Some(init) => {
                        let v = eval_terms(ctx, &[init], |_| None)[0];
                        (0..w)
                            .map(|i| {
                                if v >> i & 1 != 0 {
                                    AigLit::TRUE
                                } else {
                                    AigLit::FALSE
                                }
                            })
                            .collect()
                    }
                    None => (0..w).map(|_| aig.input()).collect(),
                };
                blaster.seed(ctx, s.term, bits);
            }
        } else {
            let (prev, inputs) = frames.last_mut().expect("previous frame");
            let next: Vec<(TermId, Vec<AigLit>)> = ts
                .states
                .iter()
                .map(|s| {
                    (
                        s.term,
                        prev.blast(ctx, &mut aig, s.next, &mut leaves(inputs)),
                    )
                })
                .collect();
            for (t, bits) in next {
                blaster.seed(ctx, t, bits);
            }
        }
        let mut inputs = HashMap::new();
        if !ts.constraints.is_empty() {
            let act = cnf.fresh_var();
            for &con in &ts.constraints {
                let bits = blaster.blast(ctx, &mut aig, con, &mut leaves(&mut inputs));
                let lit = tseitin.lit(&aig, &mut cnf, bits[0]);
                cnf.add_clause(&[-act, lit]);
            }
        }
        let mut bad_bits = Vec::with_capacity(ts.bads.len());
        for bad in &ts.bads {
            bad_bits.push(blaster.blast(ctx, &mut aig, bad.term, &mut leaves(&mut inputs))[0]);
        }
        match bad_bits.len() {
            0 => {}
            1 => {
                tseitin.lit(&aig, &mut cnf, bad_bits[0]);
            }
            _ => {
                let any = aig.or_all(&bad_bits);
                if any != AigLit::FALSE {
                    tseitin.lit(&aig, &mut cnf, any);
                }
            }
        }
        frames.push((blaster, inputs));
    }
    (aig.num_ands(), cnf.num_vars(), cnf.num_clauses())
}

/// Fresh AIG inputs for each TS input a frame reads, allocated once.
fn leaves(
    inputs: &mut HashMap<TermId, Vec<AigLit>>,
) -> impl FnMut(&mut Aig, TermId, u32) -> Vec<AigLit> + '_ {
    move |aig, t, w| {
        inputs
            .entry(t)
            .or_insert_with(|| (0..w).map(|_| aig.input()).collect())
            .clone()
    }
}
