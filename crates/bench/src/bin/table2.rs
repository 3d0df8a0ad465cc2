//! T2 — the bug-detection matrix (the paper's headline result table):
//! every buggy version of every design, checked by the three flows.
//!
//! Expected shape (see DESIGN.md §3): G-QED detects every bug in the
//! self-consistency class, including every bug that escapes the
//! conventional assertions; plain A-QED false-alarms on interfering
//! designs (shown on the clean builds) and is therefore inapplicable
//! there; consistent-functional bugs escape both QED flows and are caught
//! only by design-specific assertions — the honest boundary of the
//! technique.
//!
//! The obligations run through the campaign runner, so `--jobs N`
//! parallelizes the sweep; the rendered table is byte-identical for any
//! worker count.
//!
//! Regenerate with: `cargo run --release -p gqed-bench --bin table2`
//! (pass a design name to restrict, `--jobs N` to parallelize).

use gqed_bench::table_args;
use gqed_bench::tables::render_table2;
use gqed_campaign::Telemetry;

fn main() {
    let (filter, jobs) = table_args("table2");
    let t = render_table2(filter.as_deref(), jobs, &Telemetry::null());
    print!("{}", t.markdown);
    if t.mismatches > 0 {
        std::process::exit(1);
    }
}
