//! The `gqed` command line: malformed flags and unknown designs are usage
//! errors (exit 2, a message naming the flag or operand, never a panic),
//! the position of the operands among the flags does not change what a
//! campaign computes, and the evaluation subcommands run.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gqed(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gqed"))
        .args(args)
        .output()
        .expect("spawn gqed")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("gqed-cli-{}-{name}", std::process::id()))
}

#[test]
fn unparsable_flag_values_are_usage_errors_not_panics() {
    for line in [
        "prove relu --max-k x",
        "export relu --wrapped --format smt2 --frame x",
        "productivity --features x",
        "campaign relu --jobs x",
    ] {
        let out = gqed(&line.split(' ').collect::<Vec<_>>());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "gqed {line}: {err}");
        assert!(!err.contains("panicked"), "gqed {line}: {err}");
    }
}

#[test]
fn misspelt_and_value_less_flags_are_named() {
    for (line, offender) in [
        ("campaign relu --job 2", "--job"),
        ("campaign relu --flow gqed --jobs", "--jobs"),
        ("table2 relu --jobs x", "--jobs"),
        ("table2 nosuch", "nosuch"),
        // 2^64 and 2^64 + 1024 bytes: an overflowing size is rejected,
        // never wrapped.
        ("campaign relu --mem-limit 17179869184G", "--mem-limit"),
        (
            "campaign relu --mem-limit 18014398509481985K",
            "--mem-limit",
        ),
    ] {
        let out = gqed(&line.split(' ').collect::<Vec<_>>());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "gqed {line}: {err}");
        assert!(!err.contains("panicked"), "gqed {line}: {err}");
        // The first line is the diagnosis; the usage lines after it list
        // every flag, so only the first one can name the offender.
        let first = err.lines().next().unwrap_or_default();
        assert!(
            first
                .split_whitespace()
                .any(|w| w.trim_matches(['\'', ';']) == offender),
            "gqed {line}: first stderr line should name {offender}: {err}"
        );
    }
}

#[test]
fn operands_may_come_before_or_after_the_flags() {
    let (a, b) = (scratch("a.txt"), scratch("b.txt"));
    let (a_s, b_s) = (a.to_str().unwrap(), b.to_str().unwrap());
    for args in [
        [
            "campaign",
            "relu",
            "--flow",
            "gqed",
            "--engines",
            "bmc",
            "--summary-out",
            a_s,
        ],
        [
            "campaign",
            "--flow",
            "gqed",
            "--engines",
            "bmc",
            "relu",
            "--summary-out",
            b_s,
        ],
    ] {
        let out = gqed(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    }
    let (sa, sb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    assert!(!sa.is_empty());
    assert_eq!(sa, sb, "summaries differ with the operand moved");
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

#[test]
fn table4_prints_the_headline() {
    let out = gqed(&["table4"]);
    assert!(out.status.success(), "gqed table4: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("headline: ")),
        "gqed table4 printed no headline: {stdout}"
    );
}
