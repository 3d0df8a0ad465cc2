//! `gqed` — command-line front-end to the G-QED verification flow.
//!
//! Each subcommand declares its flags once, in `COMMANDS`. One parser
//! splits a command line into operands and flags; an unknown, repeated
//! or value-less flag, or a value that does not parse, exits with code 2
//! and a usage line printed from the same table. A unit test keeps the
//! list below in step with the tables.
//!
//! ```text
//! gqed list                         designs and their bug catalogues
//! gqed check <design> [opts]        run a verification flow
//!      --bug <id>                   inject a catalogued bug
//!      --flow gqed|aqed|conv        flow to run (default gqed)
//!      --bound <n>                  BMC bound (default: design recommendation)
//!      --vcd <file>                 dump the counterexample waveform
//! gqed hunt [<design>|--all]        sweep a design's bug catalogue with G-QED
//! gqed export <design> [opts]       emit the design as BTOR2 on stdout
//!      --bug <id>                   inject a catalogued bug first
//!      --wrapped                    export the G-QED-wrapped model instead
//!      --format btor2|dot|smt2      output format (default btor2)
//!      --frame <k>                  smt2 only: frame to assert the first
//!                                   property at (default 5)
//! gqed bmc <file.btor2> [opts]      model-check an external BTOR2 file
//!      --bound <n>                  BMC bound (default 20)
//!      --prove                      try k-induction after clean BMC
//! gqed prove <design> [opts]        k-induction on the conventional assertions
//!      --bug <id>                   inject a catalogued bug first
//!      --max-k <n>                  induction depth limit (default 6)
//! gqed campaign [<design>…|--all]   run the full verification campaign
//!      --jobs <n>                   worker threads (default 1)
//!      --deadline-ms <m>            per-attempt deadline, Luby-escalated
//!      --budget <c>                 per-attempt conflict budget, Luby-escalated
//!      --max-attempts <n>           escalation attempts (default 4)
//!      --engines bmc,kind,pdr       proof-engine portfolio raced on clean
//!                                   designs (default: all three)
//!      --no-race                    shorthand for --engines bmc (plain
//!                                   deterministic bounded BMC)
//!      --cold                       disable the warm-start pipeline
//!                                   (model cache + resumable sessions)
//!      --mem-limit <bytes[K|M|G]>   clause-arena byte budget per solver;
//!                                   memory-stopped jobs retry cold
//!      --flow gqed[,aqed,conv]      restrict to the listed flows
//!      --telemetry <file>           write JSONL telemetry (schema: EXPERIMENTS.md)
//!      --journal <file>             crash-safe write-ahead journal of verdicts
//!                                   (schema: EXPERIMENTS.md)
//!      --resume <file>              resume from a journal: skip obligations
//!                                   with settled verdicts, re-run the rest,
//!                                   merge into one summary
//!      --summary-out <file>         write the normalized per-obligation
//!                                   summary (stable across runs/resumes)
//!      --store <file>               content-addressed verdict store: serve
//!                                   unchanged obligations from disk, publish
//!                                   fresh conclusive verdicts back
//!      --fleet <n>                  solve on n supervised worker *processes*
//!                                   (gqed worker children) instead of threads:
//!                                   crashes are contained, crashed obligations
//!                                   requeued, repeat offenders quarantined as
//!                                   `poisoned`
//!      --crash-budget <n>           worker crashes one obligation may cause
//!                                   before quarantine (default 3)
//!      --heartbeat-timeout-ms <m>   silence after which a worker is declared
//!                                   dead and restarted (default 30000)
//!      --chaos-kills <n>            chaos testing: seeded-randomly kill the
//!                                   worker on n obligations' first dispatch
//!      --chaos-seed <s>             seed for --chaos-kills (default 1)
//!
//!      SIGINT/SIGTERM cancel the campaign gracefully: in-flight solvers
//!      stop at the next poll, pending obligations drain as `cancelled`
//!      with journal checkpoints, and the exit code is 130. A second
//!      signal exits immediately.
//! gqed mutants [<design>…|--all]    seeded mutation campaign: synthesize
//!                                   mutants, solve them, report the
//!                                   detection-rate table
//!      --seed <s>                   mutation seed (default 1)
//!      --per-design <n>             distinct mutants per design (default 10)
//!      --out <file>                 report path (default BENCH_mutants.json)
//!      --floor <f>                  detection-rate regression floor
//!      plus the campaign flags other than the fleet ones (--jobs,
//!      --deadline-ms, --budget, --max-attempts, --engines, --no-race,
//!      --cold, --mem-limit, --flow, --telemetry, --journal, --resume,
//!      --summary-out, --store); engines default to bmc-only so the table
//!      is byte-identical at any worker count
//! gqed serve [opts]                 long-running campaign service (TCP,
//!                                   line-delimited JSON; see EXPERIMENTS.md)
//!      --addr <host:port>           listen address (default 127.0.0.1:7878;
//!                                   port 0 picks an ephemeral port)
//!      --store <file>               persistent verdict store shared by every
//!                                   batch (default: in-memory, process-lifetime)
//!      --telemetry <file>           write serve_error/serve_summary JSONL
//!                                   telemetry for the accept loop
//!      --max-request-bytes <n>      cap on one request line (default 8 MiB);
//!                                   oversize requests get a structured error
//!      --read-timeout-ms <m>        socket read timeout (default 30000;
//!                                   0 disables)
//!      plus the campaign solver flags (--jobs, --deadline-ms, --budget,
//!      --max-attempts, --engines, --no-race, --cold, --mem-limit) as the
//!      base configuration; each batch request may override them
//! gqed submit [<design>…|--all]     submit one batch to a running server
//!      --addr <host:port>           server address (default 127.0.0.1:7878)
//!      --batch <label>              batch label echoed in telemetry
//!      --flow gqed[,aqed,conv]      restrict to the listed flows
//!      --jobs/--deadline-ms/--budget/--max-attempts/--engines
//!                                   per-batch overrides of the server's base
//!      --telemetry <file>           write the streamed JSONL telemetry
//!      --summary-out <file>         write the normalized summary
//!      --retries <n>                retry refused/broken connections with
//!                                   capped exponential backoff (default 0)
//!      --retry-delay-ms <m>         base retry delay (default 200)
//!      --shutdown                   ask the server to shut down instead
//! gqed worker                       fleet worker child (internal): solves
//!                                   single-obligation work_request lines from
//!                                   stdin, answers on stdout (EXPERIMENTS.md)
//! gqed productivity [opts]          evaluate the person-day cost model
//!      --features <n>               features of the case study (default 120)
//!      --properties <n>             properties of the case study (default 160)
//!
//! Evaluation subcommands (`DESIGN.md` §3), each printing one table or
//! figure as Markdown or CSV on stdout:
//!
//! gqed table1                       T1: design-suite characteristics
//! gqed table2 [<design>] [opts]     T2: A-QED applicability and the bug-
//!                                   detection matrix; exit 1 if a verdict
//!                                   disagrees with the catalogue
//!      --jobs <n>                   campaign worker threads (default 1); the
//!                                   table is byte-identical at any count
//! gqed table3 [<design>] [opts]     T3: model-checking effort per design
//!      --jobs <n>                   campaign worker threads (default 1)
//! gqed table4                       T4: productivity, 370 → 21 person-days
//! gqed table5                       T5: QED-module overhead per design
//! gqed fig1                         F1: BMC runtime vs bound (CSV)
//! gqed fig2                         F2: counterexample length vs random
//!                                   simulation (CSV)
//! gqed fig3                         F3: detection frame vs the theory bound
//!                                   B(k) (CSV); exit 1 if a bug exceeds it
//! gqed ablation                     detection with one check family at a time
//! gqed obscan                       observability audit by differential
//!                                   simulation; exit 2 if a bug never diverges
//! ```

use gqed::campaign::{
    CampaignConfig, CampaignSummary, EngineId, FleetConfig, FlowFilter, Obligation, Telemetry,
};
use gqed::core::productivity::{
    conventional_person_days, gqed_person_days, productivity_gain, CaseStudy, ConventionalCosts,
    GqedCosts,
};
use gqed::core::theory::{detection_bound, evaluation_bound};
use gqed::core::{check_design, synthesize, CheckKind, QedChecks, QedConfig, Verdict};
use gqed::evaluation::{
    gate_count, md_header, md_row, mean_expose_depth, random_differential_expose, render_table2,
    render_table3, ExposeResult,
};
use gqed::ha::{all_designs, BugInfo, Design, DesignEntry};
use gqed::ir::to_btor2;
use std::path::Path;
use std::process::exit;
use std::time::Instant;

// Each flag group below is written exactly as the usage line shows it:
// `[--name]` is a switch, `[--name value]` takes a value.

/// Solver knobs a `submit` batch may override on the server.
const BATCH_KNOBS: &str =
    "[--jobs n] [--deadline-ms m] [--budget c] [--max-attempts n] [--engines bmc,kind,pdr]";
/// Solver knobs fixed for the life of the process.
const PROCESS_KNOBS: &str = "[--no-race] [--cold] [--mem-limit bytes[K|M|G]]";
/// Obligation selection and outputs of a campaign run.
const CAMPAIGN_IO: &str = "[--all] [--flow gqed,aqed,conv] [--telemetry file] [--summary-out file]";
/// State a campaign run persists: journal and verdict store.
const CAMPAIGN_STATE: &str = "[--journal file] [--resume file] [--store file]";
/// Worker-process fleet supervision; `campaign` only, because mutant
/// obligations have no wire form.
const FLEET: &str =
    "[--fleet n] [--crash-budget n] [--heartbeat-timeout-ms m] [--chaos-kills n] [--chaos-seed s]";

const CHECK: &[&str] = &["[--bug id] [--flow gqed|aqed|conv] [--bound n] [--vcd file]"];
const EXPORT: &[&str] = &["[--bug id] [--wrapped] [--format btor2|dot|smt2] [--frame k]"];
const PRODUCTIVITY: &[&str] = &["[--features n] [--properties n]"];
const CAMPAIGN: &[&str] = &[
    BATCH_KNOBS,
    PROCESS_KNOBS,
    CAMPAIGN_IO,
    CAMPAIGN_STATE,
    FLEET,
];
const MUTANTS: &[&str] = &[
    BATCH_KNOBS,
    PROCESS_KNOBS,
    CAMPAIGN_IO,
    CAMPAIGN_STATE,
    "[--seed s] [--per-design n] [--out file] [--floor f]",
];
const SERVE: &[&str] = &[
    BATCH_KNOBS,
    PROCESS_KNOBS,
    "[--addr host:port] [--store file] [--telemetry file]",
    "[--max-request-bytes n] [--read-timeout-ms m]",
];
const SUBMIT: &[&str] = &[
    BATCH_KNOBS,
    "[--all] [--addr host:port] [--batch label] [--flow gqed,aqed,conv] [--telemetry file]",
    "[--summary-out file] [--retries n] [--retry-delay-ms m] [--shutdown]",
];

const COMMANDS: &[Cmd] = &[
    cmd("list", "", &[], cmd_list),
    cmd("check", "<design>", CHECK, cmd_check),
    cmd("hunt", "[<design>|--all]", &["[--all]"], cmd_hunt),
    cmd("export", "<design>", EXPORT, cmd_export),
    cmd("bmc", "<file.btor2>", &["[--bound n] [--prove]"], cmd_bmc),
    cmd("prove", "<design>", &["[--bug id] [--max-k n]"], cmd_prove),
    cmd("campaign", "[<design>…|--all]", CAMPAIGN, cmd_campaign),
    cmd("mutants", "[<design>…|--all]", MUTANTS, cmd_mutants),
    cmd("serve", "", SERVE, cmd_serve),
    cmd("submit", "[<design>…|--all]", SUBMIT, cmd_submit),
    cmd("worker", "", &[], cmd_worker),
    cmd("productivity", "", PRODUCTIVITY, cmd_productivity),
    cmd("table1", "", &[], cmd_table1),
    cmd("table2", "[<design>]", &["[--jobs n]"], cmd_table2),
    cmd("table3", "[<design>]", &["[--jobs n]"], cmd_table3),
    cmd("table4", "", &[], cmd_table4),
    cmd("table5", "", &[], cmd_table5),
    cmd("fig1", "", &[], cmd_fig1),
    cmd("fig2", "", &[], cmd_fig2),
    cmd("fig3", "", &[], cmd_fig3),
    cmd("ablation", "", &[], cmd_ablation),
    cmd("obscan", "", &[], cmd_obscan),
];

/// A subcommand: its operand synopsis, its flag groups and its entry point.
struct Cmd {
    name: &'static str,
    operands: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args),
}

const fn cmd(
    name: &'static str,
    operands: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args),
) -> Cmd {
    Cmd {
        name,
        operands,
        flags,
        run,
    }
}

impl Cmd {
    /// The declared flags as `(name, takes a value)`.
    fn flags(&self) -> impl Iterator<Item = (&'static str, bool)> {
        self.flags.iter().flat_map(|group| {
            group.match_indices("[--").map(|(at, _)| {
                let item = &group[at + 1..];
                let end = item.find([' ', ']']).unwrap_or(item.len());
                (&item[..end], item[end..].starts_with(' '))
            })
        })
    }

    /// Operand count bounds read off the synopsis: `<x>` is exactly one,
    /// `[<x>]` at most one, `[<x>…]` any number.
    fn arity(&self) -> (usize, usize) {
        match self.operands {
            "" => (0, 0),
            o if o.contains('…') => (0, usize::MAX),
            o if o.starts_with('[') => (0, 1),
            _ => (1, 1),
        }
    }

    /// Prints `message` and the usage lines, then exits with code 2.
    fn fail(&self, message: impl std::fmt::Display) -> ! {
        let head = format!("usage: gqed {} {}", self.name, self.operands);
        eprintln!("gqed {}: {message}\n{}", self.name, head.trim_end());
        for group in self.flags {
            eprintln!("{:indent$}{group}", "", indent = 13 + self.name.len());
        }
        exit(2);
    }
}

/// A parsed command line: the operands, plus each given flag (at most
/// once) with its value.
struct Args {
    cmd: &'static Cmd,
    operands: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Splits `raw` into operands and `cmd`'s declared flags; the error
    /// names the offending flag or operand.
    fn parse(cmd: &'static Cmd, raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            cmd,
            operands: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.iter();
        while let Some(arg) = raw.next() {
            if !arg.starts_with("--") {
                args.operands.push(arg.clone());
                continue;
            }
            let (name, takes_value) = cmd
                .flags()
                .find(|(name, _)| *name == arg.as_str())
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            if args.has(name) {
                return Err(format!("{arg} given twice"));
            }
            let value = if takes_value {
                match raw.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("{arg} needs a value")),
                }
            } else {
                None
            };
            args.flags.push((name, value));
        }
        let (min, max) = cmd.arity();
        if args.operands.len() > max {
            return Err(format!("unexpected argument '{}'", args.operands[max]));
        }
        if args.operands.len() < min {
            return Err(format!("missing {}", cmd.operands));
        }
        Ok(args)
    }

    /// The given flag's entry: `Some(None)` for a switch.
    fn lookup(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.cmd.flags().any(|(n, _)| n == name),
            "{name} is not declared for gqed {}",
            self.cmd.name
        );
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    fn has(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.lookup(name).and_then(Option::as_deref)
    }

    /// The flag's value parsed as `T`; exits 2 if it does not parse.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.fail(format!("bad {name} '{v}'")))
        })
    }

    fn fail(&self, message: impl std::fmt::Display) -> ! {
        self.cmd.fail(message)
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name.as_str()))
    else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        eprintln!("usage: gqed <{}> …", names.join("|"));
        eprintln!("       (see the crate docs or src/bin/gqed.rs for options)");
        exit(2);
    };
    let args = Args::parse(cmd, &raw[1..]).unwrap_or_else(|e| cmd.fail(e));
    (cmd.run)(&args);
}

fn find_design(args: &Args, name: &str) -> DesignEntry {
    all_designs()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| {
            let names: Vec<&str> = all_designs().iter().map(|e| e.name).collect();
            args.fail(format!("unknown design '{name}'; available: {names:?}"))
        })
}

/// The design named by the first operand, with `--bug` injected if given.
fn build(args: &Args) -> Design {
    let entry = find_design(args, &args.operands[0]);
    match args.value("--bug") {
        Some(b) => entry.build_buggy(b),
        None => entry.build_clean(),
    }
}

fn cmd_list(_: &Args) {
    for entry in all_designs() {
        let d = entry.build_clean();
        println!(
            "{:10} {:15} {}",
            entry.name,
            if entry.interfering {
                "interfering"
            } else {
                "non-interfering"
            },
            d.meta.description
        );
        for b in (entry.bugs)() {
            println!(
                "    {:32} [{:?}] {}",
                b.id,
                b.class,
                if b.expected.gqed {
                    "G-QED detects"
                } else {
                    "outside self-consistency class"
                }
            );
        }
    }
}

fn cmd_check(args: &Args) {
    let kind = match args.value("--flow") {
        None | Some("gqed") => CheckKind::GQed,
        Some("aqed") => CheckKind::AQed,
        Some("conv") | Some("conventional") => CheckKind::Conventional,
        Some(f) => args.fail(format!("unknown flow '{f}'")),
    };
    let bound = args.get("--bound");
    let design = build(args);
    let bound = bound.unwrap_or(design.meta.recommended_bound);
    eprintln!(
        "checking {} ({}) with {} at bound {bound}…",
        design.meta.name,
        design
            .injected_bug
            .map(|b| format!("bug: {b}"))
            .unwrap_or_else(|| "bug-free".into()),
        kind.name()
    );
    let o = check_design(&design, kind, bound);
    match &o.verdict {
        Verdict::Violation { property, cycles } => {
            println!(
                "VIOLATION of '{property}' in {cycles} cycles ({:.2?})",
                o.elapsed
            );
            let trace = o.trace.as_ref().expect("violation carries trace");
            // Re-synthesize to print against the right model.
            let mut d2 = design.clone();
            let ts = match kind {
                CheckKind::GQed => synthesize(&mut d2, &QedConfig::gqed()).ts,
                CheckKind::AQed => synthesize(&mut d2, &QedConfig::aqed()).ts,
                CheckKind::Conventional => {
                    let mut ts = d2.ts.clone();
                    ts.bads = d2.conventional.clone();
                    ts
                }
            };
            println!("{}", trace.pretty(&d2.ctx, &ts));
            if let Some(path) = args.value("--vcd") {
                let vcd = trace.to_vcd(&d2.ctx, &ts);
                or_exit(
                    std::fs::write(path, vcd.render()),
                    format!("cannot write {path}"),
                );
                eprintln!("waveform written to {path}");
            }
            exit(1);
        }
        Verdict::CleanUpTo(b) => {
            println!(
                "clean up to bound {b} ({:.2?}; {} clauses, {} conflicts)",
                o.elapsed, o.stats.cnf_clauses, o.stats.solver.conflicts
            );
        }
    }
}

fn cmd_hunt(args: &Args) {
    let selected = match args.operands.first() {
        Some(name) if !args.has("--all") => vec![find_design(args, name)],
        _ => all_designs(),
    };
    let mut failures = 0;
    for entry in selected {
        println!("== {} ==", entry.name);
        for bug in (entry.bugs)() {
            let d = entry.build_buggy(bug.id);
            let bound = evaluation_bound(&d, &bug);
            let o = check_design(&d, CheckKind::GQed, bound);
            let ok = o.verdict.is_violation() == bug.expected.gqed;
            if !ok {
                failures += 1;
            }
            println!(
                "  {:32} {:40} {}",
                bug.id,
                match &o.verdict {
                    Verdict::Violation { property, cycles } =>
                        format!("caught: {property} ({cycles}cy)"),
                    Verdict::CleanUpTo(b) => format!("clean@{b}"),
                },
                if ok { "ok" } else { "MISMATCH" }
            );
        }
    }
    if failures > 0 {
        eprintln!("{failures} verdicts disagree with the catalogue");
        exit(1);
    }
}

fn cmd_export(args: &Args) {
    let frame = args.get("--frame").unwrap_or(5);
    let mut design = build(args);
    let ts = if args.has("--wrapped") {
        synthesize(&mut design, &QedConfig::gqed()).ts
    } else {
        // Attach the conventional assertions so the export carries
        // checkable properties.
        let mut ts = design.ts.clone();
        ts.bads = design.conventional.clone();
        ts
    };
    match args.value("--format") {
        None | Some("btor2") => print!("{}", to_btor2(&design.ctx, &ts)),
        Some("dot") => {
            let mut roots: Vec<(String, gqed::ir::TermId)> = ts.outputs.clone();
            roots.extend(ts.bads.iter().map(|b| (b.name.clone(), b.term)));
            print!("{}", gqed::ir::to_dot(&design.ctx, &roots));
        }
        Some("smt2") => {
            if ts.bads.is_empty() {
                eprintln!("no properties to export; use --wrapped or a buggy build");
                exit(2);
            }
            print!(
                "{}",
                gqed::ir::unrolling_to_smt2(&design.ctx, &ts, 0, frame)
            );
        }
        Some(f) => args.fail(format!("unknown format '{f}'")),
    }
}

/// One `ProofResult` as the `bmc --prove` and `prove` tables print it.
fn proof_cell(r: gqed::bmc::ProofResult, falsified: &str, unknown: &str) -> String {
    use gqed::bmc::ProofResult;
    match r {
        ProofResult::Proven { k } => format!("PROVEN (k = {k})"),
        ProofResult::Falsified(t) => format!("FALSIFIED ({}{falsified})", t.len()),
        ProofResult::Unknown { max_k } => format!("unknown up to k = {max_k}{unknown}"),
        ProofResult::Cancelled { k, reason } => format!("cancelled at k = {k} ({reason:?})"),
    }
}

fn cmd_bmc(args: &Args) {
    let bound: u32 = args.get("--bound").unwrap_or(20);
    let path = &args.operands[0];
    let text = or_exit(std::fs::read_to_string(path), format!("cannot read {path}"));
    let (ctx, ts) = or_exit(gqed::ir::from_btor2(&text), path);
    if ts.bads.is_empty() {
        eprintln!("model has no bad properties");
        exit(2);
    }
    eprintln!(
        "model: {} inputs, {} states ({} bits), {} properties",
        ts.inputs.len(),
        ts.states.len(),
        ts.state_bits(&ctx),
        ts.bads.len()
    );
    let mut engine = gqed::bmc::BmcEngine::new(&ctx, &ts);
    match engine.check_up_to(bound) {
        gqed::bmc::BmcResult::Violated(trace) => {
            println!(
                "VIOLATION of '{}' in {} cycles",
                trace.bad_name,
                trace.len()
            );
            println!("{}", trace.pretty(&ctx, &ts));
            print!("{}", trace.to_btor2_witness(&ctx, &ts));
            exit(1);
        }
        gqed::bmc::BmcResult::NoneUpTo(b) => {
            println!("clean up to bound {b}");
            if args.has("--prove") {
                for (i, bad) in ts.bads.iter().enumerate() {
                    let r = gqed::bmc::prove_k_induction(&ctx, &ts, i, 8);
                    println!("{:30} {}", bad.name, proof_cell(r, " cycles", ""));
                }
            }
        }
    }
}

fn cmd_prove(args: &Args) {
    let max_k: u32 = args.get("--max-k").unwrap_or(6);
    let design = build(args);
    let mut ts = design.ts.clone();
    ts.bads = design.conventional.clone();
    for (i, b) in ts.bads.iter().enumerate() {
        let r = gqed::bmc::prove_k_induction(&design.ctx, &ts, i, max_k);
        println!(
            "{:35} {}",
            b.name,
            proof_cell(r, "-cycle counterexample", " (needs an invariant)")
        );
    }
}

/// The `--flow` filter shared by `campaign`, `mutants` and `submit`.
fn parse_flows(args: &Args) -> FlowFilter {
    let Some(list) = args.value("--flow") else {
        return FlowFilter::all();
    };
    let mut f = FlowFilter {
        gqed: false,
        aqed: false,
        conventional: false,
    };
    for flow in list.split(',') {
        match flow {
            "gqed" => f.gqed = true,
            "aqed" => f.aqed = true,
            "conv" | "conventional" => f.conventional = true,
            other => args.fail(format!(
                "unknown flow '{other}' (expected gqed, aqed or conv)"
            )),
        }
    }
    f
}

/// The one mapping from the solver flags to a [`CampaignConfig`]:
/// `campaign` and `mutants` run with it, `serve` uses it as the base
/// configuration batch requests override. `--engines` picks the
/// clean-design proof portfolio (`default_engines` when absent);
/// `--no-race` is the historical shorthand for `--engines bmc`.
fn campaign_config_from_args(args: &Args, default_engines: Vec<EngineId>) -> CampaignConfig {
    let engines = match (args.value("--engines"), args.has("--no-race")) {
        (Some(_), true) => args
            .fail("--engines and --no-race are mutually exclusive (--no-race means --engines bmc)"),
        (Some(list), false) => EngineId::parse_list(list)
            .unwrap_or_else(|e| args.fail(format!("bad --engines '{list}': {e}"))),
        (None, true) => vec![EngineId::Bmc],
        (None, false) => default_engines,
    };
    let mut config = CampaignConfig::default()
        .with_engines(engines)
        .with_warm_start(!args.has("--cold"));
    if let Some(jobs) = args.get("--jobs") {
        config = config.with_jobs(jobs);
    }
    if let Some(ms) = args.get("--deadline-ms") {
        config = config.with_deadline_ms(ms);
    }
    if let Some(budget) = args.get("--budget") {
        config = config.with_base_budget(budget);
    }
    if let Some(attempts) = args.get("--max-attempts") {
        config = config.with_max_attempts(attempts);
    }
    if let Some(v) = args.value("--mem-limit") {
        let bytes = parse_size(v).unwrap_or_else(|| {
            args.fail(format!(
                "bad --mem-limit '{v}' (expected bytes with optional K/M/G suffix)"
            ))
        });
        config = config.with_mem_limit(bytes);
    }
    config
}

/// Parses a byte size with an optional `K`/`M`/`G` suffix (powers of
/// 1024), e.g. `512M`.
fn parse_size(v: &str) -> Option<usize> {
    let (digits, shift) = match v.as_bytes().last()? {
        b'K' | b'k' => (&v[..v.len() - 1], 10),
        b'M' | b'm' => (&v[..v.len() - 1], 20),
        b'G' | b'g' => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(1 << shift))
}

/// Raw SIGINT/SIGTERM handling (no libc dependency): the first signal
/// sets a flag the campaign monitor polls; a second one exits
/// immediately with the conventional interrupt code.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    extern "C" fn on_signal(_sig: i32) {
        if SHUTDOWN.swap(true, Ordering::Relaxed) {
            // Second signal: the user really means it.
            // SAFETY: `_exit` is async-signal-safe and takes no pointers.
            unsafe { _exit(130) }
        }
    }

    /// Installs the graceful handler for SIGINT (2) and SIGTERM (15) and
    /// returns the cooperative interrupt flag a first signal sets.
    pub fn interrupt_flag() -> Arc<AtomicBool> {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `handler` is an `extern "C" fn(i32)` that lives for the
        // whole program and only touches an atomic and `_exit`, both
        // async-signal-safe; 2 and 15 are valid signal numbers.
        unsafe {
            signal(2, handler);
            signal(15, handler);
        }
        let flag = Arc::new(AtomicBool::new(false));
        let forward = Arc::clone(&flag);
        std::thread::spawn(move || loop {
            if SHUTDOWN.load(Ordering::Relaxed) {
                eprintln!("interrupt received; shutting down…");
                forward.store(true, Ordering::Relaxed);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
        flag
    }
}

#[cfg(not(unix))]
mod signals {
    /// Without Unix signals nothing ever sets the flag.
    pub fn interrupt_flag() -> std::sync::Arc<std::sync::atomic::AtomicBool> {
        Default::default()
    }
}

/// The result's value; on an error, prints `context: error` and exits 1.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, context: impl std::fmt::Display) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{context}: {e}");
        exit(1)
    })
}

fn open_telemetry(args: &Args) -> Telemetry {
    match args.value("--telemetry") {
        Some(path) => or_exit(
            Telemetry::file(Path::new(path)),
            format!("cannot open telemetry file {path}"),
        ),
        None => Telemetry::null(),
    }
}

fn write_summary(args: &Args, normalized: &str) {
    if let Some(path) = args.value("--summary-out") {
        let written = std::fs::write(path, normalized);
        or_exit(written, format!("cannot write summary file {path}"));
    }
}

/// The design operands, each validated with the friendly error.
fn design_operands(args: &Args) -> &[String] {
    for name in &args.operands {
        find_design(args, name);
    }
    &args.operands
}

/// Runs `obligations` with the setup `campaign` and `mutants` share:
/// telemetry, the verdict store, `--journal`/`--resume` (refusing a
/// journal of another obligation set), SIGINT/SIGTERM forwarded into
/// the interrupt flag, and the `--summary-out` write.
fn run_campaign(
    args: &Args,
    obligations: &[Obligation],
    config: CampaignConfig,
    fleet: Option<FleetConfig>,
) -> CampaignSummary {
    use gqed::campaign::{manifest_crc, Campaign, Journal, VerdictStore};

    let telemetry = open_telemetry(args);
    let store = args.value("--store").map(|path| {
        let store = VerdictStore::open(Path::new(path));
        or_exit(store, format!("cannot open verdict store {path}"))
    });

    // Crash-safe journaling: --resume replays (and truncates) an existing
    // journal and keeps appending to it; --journal starts a fresh one.
    let (journal, resume) = match (args.value("--journal"), args.value("--resume")) {
        (Some(_), Some(_)) => args
            .fail("--journal and --resume are mutually exclusive (resume appends to its journal)"),
        (None, Some(path)) => {
            let replayed = Journal::resume(Path::new(path));
            let (journal, state) = or_exit(replayed, format!("cannot resume journal {path}"));
            match state.manifest_crc {
                Some(crc) if crc == manifest_crc(obligations) => {}
                Some(_) => {
                    // Mutant ids embed the seed, so this also rejects a
                    // journal from a different --seed or --per-design.
                    eprintln!(
                        "journal {path} belongs to a different obligation set (manifest mismatch); \
                         re-run with the original designs/flows/seed"
                    );
                    exit(2);
                }
                None => {
                    eprintln!(
                        "journal {path} has no campaign_start record; cannot verify manifest"
                    );
                    exit(2);
                }
            }
            eprintln!(
                "resuming: {} of {} obligations already settled",
                state.completed.len(),
                obligations.len()
            );
            (Some(journal), Some(state))
        }
        (Some(path), None) => {
            let journal = Journal::create(Path::new(path));
            (
                Some(or_exit(journal, format!("cannot create journal {path}"))),
                None,
            )
        }
        (None, None) => (None, None),
    };

    let config = config.with_interrupt(signals::interrupt_flag());
    match fleet.as_ref() {
        Some(f) => eprintln!(
            "{}: {} obligations, {} worker process(es)…",
            args.cmd.name,
            obligations.len(),
            f.workers.max(1)
        ),
        None => eprintln!(
            "{}: {} obligations, {} worker(s)…",
            args.cmd.name,
            obligations.len(),
            config.jobs.max(1)
        ),
    }
    let mut campaign = Campaign::new(obligations).config(config);
    if let Some(j) = journal.as_ref() {
        campaign = campaign.journal(j);
    }
    if let Some(s) = resume.as_ref() {
        campaign = campaign.resume(s);
    }
    if let Some(s) = store.as_ref() {
        campaign = campaign.verdict_store(s);
    }
    if let Some(f) = fleet {
        campaign = campaign.fleet(f);
    }
    let summary = campaign.run(&telemetry);
    write_summary(args, &summary.normalized_render());
    summary
}

fn print_store_counters(args: &Args, summary: &CampaignSummary) {
    if args.value("--store").is_some() {
        println!(
            "verdict store: {} cache hits, {} cache misses",
            summary.cache_hits, summary.cache_misses
        );
    }
}

fn cmd_campaign(args: &Args) {
    use gqed::campaign::{chaos_kill_plan, default_portfolio, enumerate_obligations};

    let designs = design_operands(args);
    if designs.is_empty() && !args.has("--all") {
        args.fail("name the designs to run, or pass --all");
    }
    let config = campaign_config_from_args(args, default_portfolio());
    let obligations = enumerate_obligations(parse_flows(args), designs);

    // Process isolation: --fleet n solves on n supervised `gqed worker`
    // child processes; --chaos-kills injects deterministic worker deaths
    // for crash-containment testing.
    let fleet = args.get("--fleet").map(|workers| {
        let mut f = FleetConfig::default().with_workers(workers);
        if let Some(n) = args.get("--crash-budget") {
            f = f.with_crash_budget(n);
        }
        if let Some(ms) = args.get("--heartbeat-timeout-ms") {
            f = f.with_heartbeat_timeout_ms(ms);
        }
        if let Some(kills) = args.get("--chaos-kills") {
            let seed = args.get("--chaos-seed").unwrap_or(1);
            f = f.with_faults(chaos_kill_plan(&obligations, kills, seed));
        }
        f
    });
    let is_fleet = fleet.is_some();
    let summary = run_campaign(args, &obligations, config, fleet);

    println!(
        "{:34} {:8} {:44} {:>3} {:>10}  engine",
        "obligation", "flow", "verdict", "try", "wall"
    );
    for r in &summary.records {
        println!(
            "{:34} {:8} {:44} {:>3} {:>10}  {}{}",
            r.obligation.id,
            r.obligation.flow_tag(),
            format!("{:?}", r.verdict),
            r.attempts,
            format!("{:.1?}", r.wall),
            r.engine,
            if r.mismatch { "  MISMATCH" } else { "" }
        );
    }
    println!(
        "\n{} obligations in {:.2?} on {} worker(s): {} violations, {} passes, {} unknown, {} timeouts, {} failures, {} cancelled, {} poisoned, {} replayed, {} mismatches",
        summary.records.len(),
        summary.wall,
        summary.jobs,
        summary.violations,
        summary.passes,
        summary.unknowns,
        summary.timeouts,
        summary.failures,
        summary.cancelled,
        summary.poisoned,
        summary.replayed,
        summary.mismatches
    );
    println!(
        "engine wins: {} bmc, {} kind, {} pdr",
        summary.wins_bmc, summary.wins_kind, summary.wins_pdr
    );
    if is_fleet {
        println!(
            "fleet: {} worker crash(es), {} restart(s), {} requeue(s)",
            summary.worker_crashes, summary.worker_restarts, summary.requeued
        );
    }
    print_store_counters(args, &summary);
    exit(summary.exit_code());
}

fn cmd_mutants(args: &Args) {
    use gqed::campaign::{enumerate_mutant_obligations, MutantsReport, DEFAULT_DETECTION_FLOOR};

    let designs = design_operands(args);
    let seed: u64 = args.get("--seed").unwrap_or(1);
    let per_design: usize = args.get("--per-design").unwrap_or(10);
    let floor: f64 = args.get("--floor").unwrap_or(DEFAULT_DETECTION_FLOOR);
    let out = args.value("--out").unwrap_or("BENCH_mutants.json");
    // Detection-rate tables must be byte-identical across runs and worker
    // counts, so the racing portfolio defaults off; --engines opts back in.
    let config = campaign_config_from_args(args, vec![EngineId::Bmc]);
    let flows = parse_flows(args);

    eprintln!("mutants: synthesizing {per_design} mutant(s) per design with seed {seed}…");
    let batch = enumerate_mutant_obligations(seed, per_design, flows, designs);
    eprintln!(
        "mutants: {} accepted ({} no-ops and {} duplicates discarded before solving), {} obligations",
        batch.plans.len(),
        batch.discarded_noops,
        batch.discarded_dups,
        batch.obligations.len()
    );
    let summary = run_campaign(args, &batch.obligations, config, None);

    let report = MutantsReport::from_summary(&batch, &summary, floor);
    print!("{}", report.render_table());
    println!(
        "engine wins: {} bmc, {} kind, {} pdr",
        report.wins_bmc, report.wins_kind, report.wins_pdr
    );
    print_store_counters(args, &summary);
    let written = std::fs::write(out, report.to_json().render() + "\n");
    or_exit(written, format!("cannot write {out}"));
    eprintln!("report: {out}");
    if summary.exit_code() != 0 {
        exit(summary.exit_code());
    }
    if let Some(reason) = report.regression() {
        eprintln!("REGRESSION: {reason}");
        exit(1);
    }
}

fn cmd_serve(args: &Args) {
    use gqed::campaign::{default_portfolio, serve, ServeOptions};

    let mut opts = ServeOptions {
        config: campaign_config_from_args(args, default_portfolio()),
        store: args.value("--store").map(std::path::PathBuf::from),
        telemetry: open_telemetry(args),
        ..ServeOptions::default()
    };
    if let Some(bytes) = args.get("--max-request-bytes") {
        opts.max_request_bytes = bytes;
    }
    if let Some(ms) = args.get("--read-timeout-ms") {
        opts.read_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    let listener = or_exit(
        std::net::TcpListener::bind(addr),
        format!("cannot bind {addr}"),
    );
    let local = listener
        .local_addr()
        .expect("bound listener has an address");

    // Ctrl-C stops the accept loop between connections.
    opts.config.interrupt = Some(signals::interrupt_flag());

    println!("gqed serve: listening on {local}");
    match opts.store.as_deref() {
        Some(path) => eprintln!("verdict store: {}", path.display()),
        None => eprintln!("verdict store: in-memory (process lifetime)"),
    }
    let summary = or_exit(serve(listener, &opts), "serve failed");
    eprintln!(
        "gqed serve: shut down after {} connection(s), {} batch(es), {} connection error(s), {} oversize request(s), {} timeout(s)",
        summary.connections,
        summary.batches,
        summary.connection_errors,
        summary.oversize_requests,
        summary.timeouts
    );
}

fn cmd_submit(args: &Args) {
    use gqed::campaign::{
        enumerate_obligations, request_shutdown, submit_batch_with_retry, BatchRequest,
        ObligationSpec,
    };

    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    if args.has("--shutdown") {
        or_exit(request_shutdown(addr), "shutdown request failed");
        eprintln!("server at {addr} acknowledged shutdown");
        return;
    }

    let designs = design_operands(args);
    if designs.is_empty() && !args.has("--all") {
        args.fail("name the designs to submit, or pass --all");
    }
    let obligations = enumerate_obligations(parse_flows(args), designs);
    let request = BatchRequest {
        batch: args.value("--batch").unwrap_or("batch").to_string(),
        jobs: args.get("--jobs"),
        deadline_ms: args.get("--deadline-ms"),
        budget: args.get("--budget"),
        max_attempts: args.get("--max-attempts"),
        engines: args
            .value("--engines")
            .map(|list| list.split(',').map(str::to_string).collect()),
        obligations: obligations
            .iter()
            .filter_map(ObligationSpec::from_obligation)
            .collect(),
    };
    let retries: u32 = args.get("--retries").unwrap_or(0);
    let retry_delay = std::time::Duration::from_millis(args.get("--retry-delay-ms").unwrap_or(200));

    let telemetry = open_telemetry(args);
    eprintln!(
        "submitting {} obligations to {addr}…",
        request.obligations.len()
    );
    let response = submit_batch_with_retry(addr, &request, retries, retry_delay, |event| {
        telemetry.emit(event)
    });
    let response = or_exit(response, "submit failed");
    telemetry.sync();

    write_summary(args, &response.normalized);
    print!("{}", response.normalized);
    println!(
        "\nbatch '{}': {} obligations in {}ms on {} worker(s): {} violations, {} passes, {} unknown, {} timeouts, {} failures, {} cancelled, {} mismatches",
        response.batch,
        response.obligations,
        response.wall_ms,
        response.jobs,
        response.violations,
        response.passes,
        response.unknowns,
        response.timeouts,
        response.failures,
        response.cancelled,
        response.mismatches
    );
    println!(
        "verdict store: {} cache hits, {} cache misses",
        response.cache_hits, response.cache_misses
    );
    exit(i32::try_from(response.exit_code).unwrap_or(1));
}

fn cmd_worker(_: &Args) {
    exit(gqed::campaign::run_worker());
}

fn cmd_productivity(args: &Args) {
    let cs = CaseStudy {
        features: args.get("--features").unwrap_or(120),
        properties: args.get("--properties").unwrap_or(160),
    };
    let c = ConventionalCosts::default();
    let g = GqedCosts::default();
    println!(
        "conventional: {:.0} person-days; G-QED: {:.0} person-days; gain {:.1}x",
        conventional_person_days(&cs, &c),
        gqed_person_days(&cs, &g),
        productivity_gain(&cs, &c, &g)
    );
}

/// T1: per design its interference class, state size, gate count after
/// bit-blasting, interface widths, latency, bug-catalogue size and
/// evaluation BMC bound.
fn cmd_table1(_: &Args) {
    println!("## Table 1 — design suite\n");
    println!(
        "{}",
        md_header(&[
            "design",
            "class",
            "description",
            "state bits",
            "AIG gates",
            "in/out width",
            "latency",
            "#bugs",
            "BMC bound",
        ])
    );
    let mut total_bugs = 0;
    for entry in all_designs() {
        let d = entry.build_clean();
        let bugs = (entry.bugs)().len();
        total_bugs += bugs;
        println!(
            "{}",
            md_row(&[
                d.meta.name.to_string(),
                if d.meta.interfering {
                    "interfering".into()
                } else {
                    "non-interfering".into()
                },
                d.meta.description.to_string(),
                d.ts.state_bits(&d.ctx).to_string(),
                gate_count(&d.ctx, &d.ts).to_string(),
                format!("{}/{}", d.iface.in_width(&d.ctx), d.iface.out_width(&d.ctx)),
                d.meta.latency.to_string(),
                bugs.to_string(),
                d.meta.recommended_bound.to_string(),
            ])
        );
    }
    println!("\ntotal catalogued buggy versions: {total_bugs}");
}

/// T2, the headline: every buggy version of every design checked by the
/// three flows. G-QED detects every bug in the self-consistency class,
/// including every conventional-flow escape; A-QED false-alarms on the
/// clean interfering designs; consistent-functional bugs escape both QED
/// flows, the honest boundary of the technique.
fn cmd_table2(args: &Args) {
    let design = design_operands(args).first().map(String::as_str);
    let jobs = args.get("--jobs").unwrap_or(1);
    let t = render_table2(design, jobs, &Telemetry::null());
    print!("{}", t.markdown);
    if t.mismatches > 0 {
        exit(1);
    }
}

/// T3: CNF size, conflicts and wall-clock of the G-QED run on each clean
/// design, plus counterexample data for one representative bug.
fn cmd_table3(args: &Args) {
    let design = design_operands(args).first().map(String::as_str);
    let jobs = args.get("--jobs").unwrap_or(1);
    let t = render_table3(design, jobs, &Telemetry::null());
    print!("{}", t.markdown);
    if t.mismatches > 0 {
        eprintln!("{} rows disagree with the catalogue", t.mismatches);
        exit(1);
    }
}

/// T4: conventional-flow vs G-QED person-days under the calibrated cost
/// model, for the paper's IP and a sweep of sizes; the headline row is
/// the abstract's 370 vs 21 person-days, 18×.
fn cmd_table4(_: &Args) {
    let c = ConventionalCosts::default();
    let g = GqedCosts::default();
    println!("## Table 4 — verification productivity (person-days)\n");
    println!(
        "{}",
        md_header(&[
            "case study",
            "features",
            "properties",
            "conventional",
            "G-QED",
            "gain",
        ])
    );
    let study = |features, properties| CaseStudy {
        features,
        properties,
    };
    for (name, cs) in [
        ("small block", study(10, 14)),
        ("medium block", study(40, 55)),
        ("industrial IP (paper)", CaseStudy::industrial_dma()),
        ("SoC subsystem", study(400, 520)),
    ] {
        println!(
            "{}",
            md_row(&[
                name.to_string(),
                cs.features.to_string(),
                cs.properties.to_string(),
                format!("{:.0}", conventional_person_days(&cs, &c)),
                format!("{:.0}", gqed_person_days(&cs, &g)),
                format!("{:.1}x", productivity_gain(&cs, &c, &g)),
            ])
        );
    }
    let cs = CaseStudy::industrial_dma();
    let gain = productivity_gain(&cs, &c, &g);
    println!(
        "\nheadline: {:.0} -> {:.0} person-days = {:.1}x (paper: 370 -> 21 = 18x)",
        conventional_person_days(&cs, &c),
        gqed_person_days(&cs, &g),
        gain
    );
    assert!((17.0..19.5).contains(&gain));
}

/// T5: one-frame AIG size of the bare design, of the G-QED wrapped model
/// (tape, two copies, monitors) and of the single-copy A-QED wrapper, and
/// the wrapper-synthesis wall-clock.
fn cmd_table5(_: &Args) {
    println!("## Table 5 — QED-module overhead per design\n");
    println!(
        "{}",
        md_header(&[
            "design",
            "design gates",
            "G-QED wrapped",
            "ratio",
            "A-QED wrapped",
            "state bits (design → wrapped)",
            "synthesis time",
        ])
    );
    for entry in all_designs() {
        let base = entry.build_clean();
        let base_gates = gate_count(&base.ctx, &base.ts);
        let base_bits = base.ts.state_bits(&base.ctx);

        let mut dg = entry.build_clean();
        let t0 = Instant::now();
        let gmodel = synthesize(&mut dg, &QedConfig::gqed());
        let synth_time = t0.elapsed();
        let g_gates = gate_count(&dg.ctx, &gmodel.ts);
        let g_bits = gmodel.ts.state_bits(&dg.ctx);

        let mut da = entry.build_clean();
        let amodel = synthesize(&mut da, &QedConfig::aqed());
        let a_gates = gate_count(&da.ctx, &amodel.ts);

        println!(
            "{}",
            md_row(&[
                entry.name.to_string(),
                base_gates.to_string(),
                g_gates.to_string(),
                format!("{:.1}x", g_gates as f64 / base_gates as f64),
                a_gates.to_string(),
                format!("{base_bits} → {g_bits}"),
                format!("{synth_time:.2?}"),
            ])
        );
    }
}

/// F1: wall-clock of the G-QED dual-copy check and of the single-copy
/// conventional check at increasing bounds, on three interfering designs.
fn cmd_fig1(_: &Args) {
    println!("design,flow,bound,seconds,cnf_clauses");
    let picks = ["accum", "crc32", "dma"];
    for entry in all_designs().iter().filter(|e| picks.contains(&e.name)) {
        for bound in [2u32, 4, 6, 8, 10, 12] {
            for kind in [CheckKind::GQed, CheckKind::Conventional] {
                let o = check_design(&entry.build_clean(), kind, bound);
                assert!(!o.verdict.is_violation());
                println!(
                    "{},{},{},{:.4},{}",
                    entry.name,
                    kind.name(),
                    bound,
                    o.elapsed.as_secs_f64(),
                    o.stats.cnf_clauses
                );
            }
        }
    }
}

/// F2: G-QED's BMC counterexample length against the mean exposure depth
/// of lockstep random differential simulation, per detectable bug.
fn cmd_fig2(_: &Args) {
    println!("design,bug,gqed_cycles,sim_mean_cycles,ratio");
    let mut ratios = Vec::new();
    for entry in all_designs() {
        let clean = entry.build_clean();
        for bug in (entry.bugs)().into_iter().filter(|b| b.expected.gqed) {
            let buggy = entry.build_buggy(bug.id);
            let bound = evaluation_bound(&buggy, &bug);
            let cycles = match check_design(&buggy, CheckKind::GQed, bound).verdict {
                Verdict::Violation { cycles, .. } => cycles as f64,
                Verdict::CleanUpTo(_) => {
                    eprintln!(
                        "warning: {}::{} not detected at bound {bound}",
                        entry.name, bug.id
                    );
                    continue;
                }
            };
            let sim = mean_expose_depth(&clean, &buggy, 10, 20_000);
            let ratio = sim / cycles;
            ratios.push(ratio);
            println!(
                "{},{},{:.0},{:.0},{:.1}",
                entry.name, bug.id, cycles, sim, ratio
            );
        }
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let geo: f64 = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    eprintln!(
        "\nbugs: {}   median ratio: {:.1}x   geometric mean: {:.1}x (paper line: ~37x)",
        ratios.len(),
        ratios[ratios.len() / 2],
        geo
    );
}

/// F3 (Theorem 2 empirics): the minimal BMC frame at which G-QED finds
/// each detectable bug, against the theory's conservative bound `B(k)`.
fn cmd_fig3(_: &Args) {
    println!("design,bug,class,min_txns,detect_cycles,theory_bound");
    let mut violations_of_theory = 0u32;
    for entry in all_designs() {
        for bug in (entry.bugs)().into_iter().filter(|b| b.expected.gqed) {
            let buggy = entry.build_buggy(bug.id);
            let theory = detection_bound(&buggy, bug.min_transactions + 1);
            // `check_up_to` searches depth-first by frame, so the reported
            // counterexample length *is* the minimal detection frame + 1.
            match check_design(&buggy, CheckKind::GQed, evaluation_bound(&buggy, &bug)).verdict {
                Verdict::Violation { cycles, .. } => println!(
                    "{},{},{:?},{},{},{}",
                    entry.name, bug.id, bug.class, bug.min_transactions, cycles, theory
                ),
                Verdict::CleanUpTo(b) => {
                    violations_of_theory += 1;
                    eprintln!(
                        "THEORY VIOLATION: {}::{} undetected at bound {b} (B(k) = {theory})",
                        entry.name, bug.id
                    );
                }
            }
        }
    }
    if violations_of_theory > 0 {
        eprintln!("{violations_of_theory} bugs exceeded the theoretical detection bound");
        exit(1);
    }
    eprintln!("\nall detectable bugs found within the theoretical bound B(k)");
}

/// Re-checks each detectable bug with only the `checks` monitor families.
fn detected_with(checks: QedChecks, entry: &DesignEntry, bug: &BugInfo) -> bool {
    let mut d = entry.build_buggy(bug.id);
    let bound = detection_bound(&d, bug.min_transactions + 1).min(24);
    let cfg = QedConfig {
        checks,
        ..QedConfig::gqed()
    };
    let ts = synthesize(&mut d, &cfg).ts.cone_of_influence(&d.ctx);
    gqed::bmc::BmcEngine::new(&d.ctx, &ts)
        .check_up_to(bound)
        .is_violated()
}

/// Ablation: which of TLD, FC-G and RB+flow carries the detection of each
/// bug class. Schedule-dependent corruption and uninitialized state fall
/// to TLD, cross-transaction leaks need FC-G, hangs need RB/flow — no
/// single check suffices.
fn cmd_ablation(_: &Args) {
    let only = |tld, fcg, rb| QedChecks {
        tld,
        fcg,
        rb,
        flow: rb,
    };
    println!("## Ablation — per-check detection of each catalogued bug\n");
    println!(
        "{}",
        md_header(&[
            "design",
            "bug",
            "class",
            "TLD only",
            "FC-G only",
            "RB+flow only"
        ])
    );
    // class → (bugs, tld, fcg, rb) detection counters
    let mut by_class: std::collections::BTreeMap<String, (u32, u32, u32, u32)> = Default::default();
    for entry in all_designs() {
        for bug in (entry.bugs)().into_iter().filter(|b| b.expected.gqed) {
            let tld = detected_with(only(true, false, false), &entry, &bug);
            let fcg = detected_with(only(false, true, false), &entry, &bug);
            let rb = detected_with(only(false, false, true), &entry, &bug);
            let e = by_class.entry(format!("{:?}", bug.class)).or_default();
            e.0 += 1;
            e.1 += u32::from(tld);
            e.2 += u32::from(fcg);
            e.3 += u32::from(rb);
            let cell = |x: bool| if x { "✔" } else { "–" }.to_string();
            println!(
                "{}",
                md_row(&[
                    entry.name.to_string(),
                    bug.id.to_string(),
                    format!("{:?}", bug.class),
                    cell(tld),
                    cell(fcg),
                    cell(rb),
                ])
            );
            assert!(
                tld || fcg || rb,
                "{}::{} undetected by every individual check (but detected by the union?)",
                entry.name,
                bug.id
            );
        }
    }
    println!("\n### Per-class summary (detected / total)\n");
    println!("{}", md_header(&["class", "TLD", "FC-G", "RB+flow"]));
    for (class, (n, t, f, r)) in by_class {
        println!(
            "{}",
            md_row(&[
                class,
                format!("{t}/{n}"),
                format!("{f}/{n}"),
                format!("{r}/{n}")
            ])
        );
    }
}

/// Observability audit: every catalogued bug must diverge from the clean
/// build in lockstep random differential simulation (8 seeds × 50k
/// cycles). One that never does is an injection mistake or needs a very
/// specific schedule; both deserve a look before trusting the sweeps.
fn cmd_obscan(_: &Args) {
    let mut unexposed = Vec::new();
    for entry in all_designs() {
        let clean = entry.build_clean();
        for bug in (entry.bugs)() {
            let buggy = entry.build_buggy(bug.id);
            let best = (0..8)
                .filter_map(
                    |seed| match random_differential_expose(&clean, &buggy, seed, 50_000) {
                        ExposeResult::ExposedAt(c) => Some(c),
                        ExposeResult::NotExposed(_) => None,
                    },
                )
                .min();
            match best {
                Some(c) => println!("{:12} {:32} exposed at cycle {c}", entry.name, bug.id),
                None => {
                    println!(
                        "{:12} {:32} NOT EXPOSED in 8x50k cycles",
                        entry.name, bug.id
                    );
                    unexposed.push(format!("{}::{}", entry.name, bug.id));
                }
            }
        }
    }
    if !unexposed.is_empty() {
        eprintln!("\nWARNING — bugs with no random-simulation exposure:");
        for u in &unexposed {
            eprintln!("  {u}");
        }
        eprintln!("(these may still be exposable by a directed schedule; check the BMC sweep)");
        exit(2);
    }
    println!("\nall catalogued bugs are observable in differential simulation");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn parse(name: &str, line: &str) -> Result<Args, String> {
        let cmd = COMMANDS.iter().find(|c| c.name == name).unwrap();
        let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(cmd, &raw)
    }

    #[test]
    fn command_lines_parse_in_any_order_and_errors_name_the_offender() {
        let a = parse("campaign", "--flow gqed relu --no-race accum --jobs 2").unwrap();
        assert_eq!(a.operands, ["relu", "accum"]);
        assert_eq!(
            (a.value("--flow"), a.get::<usize>("--jobs")),
            (Some("gqed"), Some(2))
        );
        assert!(a.has("--no-race") && !a.has("--cold"));

        let err = |name, line| parse(name, line).err().unwrap();
        assert_eq!(err("campaign", "relu --job 2"), "unknown flag --job");
        assert_eq!(err("campaign", "relu --jobs"), "--jobs needs a value");
        assert_eq!(
            err("campaign", "--jobs --cold relu"),
            "--jobs needs a value"
        );
        assert_eq!(err("campaign", "--cold relu --cold"), "--cold given twice");
        assert_eq!(err("mutants", "--fleet 2"), "unknown flag --fleet");
        assert_eq!(err("check", "--bug x"), "missing <design>");
        assert_eq!(err("check", "relu accum"), "unexpected argument 'accum'");
        assert_eq!(err("list", "relu"), "unexpected argument 'relu'");
        assert_eq!(err("table2", "relu accum"), "unexpected argument 'accum'");
        assert_eq!(err("table3", "--jobs 1 --jobs 2"), "--jobs given twice");
    }

    /// Every `--flag` token in `text`.
    fn flag_tokens(text: &str) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        let mut rest = text;
        while let Some(i) = rest.find("--") {
            let tail = &rest[i..];
            let end = tail[2..]
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .map_or(tail.len(), |e| e + 2);
            out.insert(&tail[..end]);
            rest = &tail[end..];
        }
        out
    }

    /// The module doc is written by hand; this keeps each subcommand's
    /// section naming exactly the flags its table declares, each once.
    #[test]
    fn module_doc_lists_exactly_the_declared_flags() {
        let mut sections: BTreeMap<&str, String> = BTreeMap::new();
        let mut current = None;
        for line in include_str!("gqed.rs").lines() {
            let Some(doc) = line.strip_prefix("//!") else {
                break;
            };
            if let Some(header) = doc.strip_prefix(" gqed ") {
                current = header.split_whitespace().next();
            }
            if let Some(name) = current {
                sections.entry(name).or_default().push_str(doc);
            }
        }
        assert_eq!(sections.len(), COMMANDS.len());
        for c in COMMANDS {
            let declared: Vec<&str> = c.flags().map(|(name, _)| name).collect();
            let unique: BTreeSet<&str> = declared.iter().copied().collect();
            assert_eq!(declared.len(), unique.len(), "gqed {}", c.name);
            assert_eq!(flag_tokens(&sections[c.name]), unique, "gqed {}", c.name);
        }
    }
}
