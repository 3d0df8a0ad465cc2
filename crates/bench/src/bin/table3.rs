//! T3 — verification effort and problem sizes per design: the
//! model-checking metrics table (CNF size, conflicts, wall-clock) for the
//! G-QED run on each clean design, plus counterexample data for one
//! representative bug.
//!
//! The `time` column is the obligation's wall-clock; `solve time` is the
//! BMC engine's own cumulative wall-clock (`BmcStats::wall`) — the gap
//! between them is wrapper synthesis and cone-of-influence reduction.
//!
//! Regenerate with: `cargo run --release -p gqed-bench --bin table3`
//! (pass a design name to restrict, `--jobs N` to parallelize the runs
//! through the campaign runner).

use gqed_bench::table_args;
use gqed_bench::tables::render_table3;
use gqed_campaign::Telemetry;

fn main() {
    let (filter, jobs) = table_args("table3");
    let t = render_table3(filter.as_deref(), jobs, &Telemetry::null());
    print!("{}", t.markdown);
    if t.mismatches > 0 {
        eprintln!("{} rows disagree with the catalogue", t.mismatches);
        std::process::exit(1);
    }
}
