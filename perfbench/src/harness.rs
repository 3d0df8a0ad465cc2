//! Measurement helpers shared by every workload: percentiles, the seeded
//! arrival schedule, process CPU and memory readings, and the metric
//! tables the benchmark prints.

use gqed_logic::SplitMix64;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run (`--trace 0`), in
/// the order and with the units of `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ha.build_ms", "ms"),
    ("wrapper.synth_ms", "ms"),
    ("coi.ms", "ms"),
    ("coi.kept_state_bits_ratio", "ratio"),
    ("fingerprint.ms", "ms"),
    ("fingerprint.btor2_bytes", "bytes"),
    ("encode.ms", "ms"),
    ("encode.aig_ands", "count"),
    ("encode.cnf_vars", "count"),
    ("encode.cnf_clauses", "count"),
    ("sat.self_ms_est", "ms"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.restarts", "count"),
    ("sat.peak_arena_bytes", "bytes"),
    ("sat.simplify_rounds", "count"),
    ("sat.eliminated_vars", "count"),
    ("bmc.ms", "ms"),
    ("bmc.frame_queries", "count"),
    ("bmc.frame_ms_max", "ms"),
    ("replay.ms", "ms"),
    ("replay.traces", "count"),
    ("kind.ms", "ms"),
    ("kind.depth", "count"),
    ("pdr.ms", "ms"),
    ("pdr.queries", "count"),
    ("pdr.ctis", "count"),
    ("pdr.blocked_cubes", "count"),
    ("pdr.frames", "count"),
    ("portfolio.wins_bmc", "count"),
    ("portfolio.wins_kind", "count"),
    ("portfolio.wins_pdr", "count"),
    ("portfolio.cpu_per_wall", "ratio"),
    ("runner.attempts", "count"),
    ("runner.model_cache_hit_ratio", "ratio"),
    ("runner.overhead_ms", "ms"),
    ("store.get_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.put_ms", "ms"),
    ("api.request_bytes", "bytes"),
    ("api.response_bytes", "bytes"),
    ("api.event_lines", "count"),
    ("api.codec_us", "us"),
    ("service.first_event_ms", "ms"),
    ("service.stream_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("gen.late_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("dominant.vecadd_prove.layer", "index"),
    ("dominant.vecadd_prove.share", "ratio"),
    ("dominant.crc32_prove.layer", "index"),
    ("dominant.crc32_prove.share", "ratio"),
];

/// One run's outcome: the correctness verdict, the attempted/failed
/// operation counts and the metric values by name.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Records a failed correctness check; the message goes to stderr.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        eprintln!("perfbench: CHECK FAILED: {}", why.as_ref());
        self.correct = false;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The final result line: every metric of `table`, in table order.
    /// A metric the run did not set reads 0; a non-finite one fails the
    /// run (JSON has no NaN).
    pub fn render(&mut self, table: &[(&'static str, &'static str)]) -> String {
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let v = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            let v = if v.is_finite() {
                v
            } else {
                self.fail(format!("metric {name} is not finite"));
                0.0
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. With 1000 samples
/// the 99th percentile leaves exactly ten samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples: the middle one, or the mean of the two
/// middle ones.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Due times of an open-loop Poisson arrival process with `count`
/// arrivals in `span`: `count` uniform draws over the span from a
/// SplitMix64 stream seeded with `seed`, sorted (a Poisson process
/// conditioned on its arrival count). The same seed gives the same
/// schedule; fixing the count and span keeps the load identical across
/// seeds.
pub fn poisson_schedule(seed: u64, count: usize, span: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed);
    let mut due: Vec<Duration> = (0..count)
        .map(|_| {
            // 53 uniform bits in [0, 1).
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            span.mul_f64(u)
        })
        .collect();
    due.sort_unstable();
    due
}

/// User plus system CPU time of this process so far, all threads
/// included (exited ones too), from `/proc/self/stat`. Linux reports it
/// in clock ticks of 1/100 s.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqed_campaign::{parse_json, JsonValue};

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 99.0)).count(), 10);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 99.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let span = Duration::from_secs(25);
        let a = poisson_schedule(7, 1000, span);
        assert_eq!(a, poisson_schedule(7, 1000, span));
        assert_ne!(a, poisson_schedule(8, 1000, span));
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < span);
        // Gaps are exponential with a mean of 25 ms: about 1/e of them
        // exceed the mean.
        let long = a
            .windows(2)
            .filter(|w| w[1] - w[0] > Duration::from_millis(25))
            .count();
        assert!((300..440).contains(&long), "{long} gaps above the mean");
    }

    fn declared(v: &JsonValue, key: &str) -> Vec<(String, String)> {
        match v.get(key) {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v = parse_json(&text).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&v, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&v, "per_layer"), own(PER_LAYER));
        let mut out = Outcome::new();
        let line = out.render(END_TO_END);
        let parsed = parse_json(&line).expect("result line parses");
        for (name, unit) in END_TO_END {
            let m = parsed.get("metrics").and_then(|m| m.get(name)).unwrap();
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(*unit));
        }
    }
}
