//! The `resubmit` workload: `gqed_campaign::serve` in-process on
//! `127.0.0.1:0` with an on-disk verdict store, one cold submission that
//! fills the store, then an open loop of cached resubmissions arriving
//! as a seeded Poisson process. One client connection at a time.

use crate::harness::{median, ms, peak_rss_mb, percentile, poisson_schedule, process_cpu, Outcome};
use crate::spans::Tracer;
use gqed_campaign::{
    derive_key, enumerate_obligations, parse_json, request_shutdown, serve, submit_batch,
    BatchRequest, BatchResponse, CampaignConfig, EngineId, FlowFilter, JsonValue, Obligation,
    ObligationSpec, ServeOptions, ServeSummary, VerdictStore,
};
use gqed_core::model_fingerprint;
use gqed_ir::Model;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mean arrival rate of resubmitted batches, per second.
const RATE: f64 = 40.0;
/// Obligations in the batch: all of `bitflip` plus the conventional-flow
/// checks of five more designs.
const BATCH_SIZE: usize = 35;
/// Distinct store keys among them: two obligations build the same model
/// under the same flow and bound as an earlier one, so even the cold
/// submission answers them from the store.
const DISTINCT_KEYS: usize = 33;
/// Batches in each closed loop of the traced run.
const TRACED_BATCHES: usize = 100;

fn batch_obligations() -> Vec<Obligation> {
    let mut obls = enumerate_obligations(FlowFilter::all(), &["bitflip".to_string()]);
    let conv = FlowFilter {
        gqed: false,
        aqed: false,
        conventional: true,
    };
    let others: Vec<String> = ["relu", "vecadd", "pipeadd", "accum", "crc32"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    obls.extend(enumerate_obligations(conv, &others));
    obls
}

fn request(obls: &[Obligation]) -> BatchRequest {
    BatchRequest {
        batch: "resubmit".to_string(),
        jobs: Some(1),
        deadline_ms: None,
        budget: None,
        max_attempts: None,
        engines: Some(vec!["bmc".to_string()]),
        obligations: obls
            .iter()
            .map(|o| ObligationSpec::from_obligation(o).expect("catalogue obligation"))
            .collect(),
    }
}

/// The server's base configuration: one worker, BMC only.
fn server_config() -> CampaignConfig {
    CampaignConfig::default()
        .with_jobs(1)
        .with_engines(vec![EngineId::Bmc])
}

/// A running in-process server and the cold response that filled its
/// store.
struct Server {
    addr: String,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
    store: PathBuf,
    cold: BatchResponse,
}

impl Server {
    fn start(store: PathBuf, req: &BatchRequest) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let opts = ServeOptions {
            config: server_config(),
            store: Some(store.clone()),
            ..ServeOptions::default()
        };
        let handle = std::thread::spawn(move || serve(listener, &opts));
        let cold = submit_batch(&addr, req, |_| {}).map_err(|e| format!("{e:?}"))?;
        Ok(Server {
            addr,
            handle,
            store,
            cold,
        })
    }

    fn stop(self) -> Result<(), String> {
        request_shutdown(&self.addr).map_err(|e| format!("{e:?}"))?;
        match self.handle.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("serve thread panicked".to_string()),
        }
    }
}

/// Checks the cold submission: every distinct obligation solved (a store
/// miss) and settled as the catalogue expects.
fn check_cold(r: &BatchResponse, out: &mut Outcome) -> u64 {
    let clean = r.obligations == BATCH_SIZE as u64
        && r.cache_misses == DISTINCT_KEYS as u64
        && r.cache_hits == (BATCH_SIZE - DISTINCT_KEYS) as u64
        && r.mismatches == 0
        && r.failures == 0
        && r.timeouts == 0
        && r.cancelled == 0
        && r.unknowns == 0
        && r.exit_code == 0;
    if !clean {
        out.fail(format!("cold submission not clean: {r:?}"));
    }
    u64::from(!clean)
}

/// Checks a resubmission: 100% cache hits and a normalized summary
/// byte-identical to the cold submission's.
fn check_resubmission(r: &BatchResponse, cold: &BatchResponse, out: &mut Outcome) -> u64 {
    let ok = r.cache_hits == BATCH_SIZE as u64
        && r.cache_misses == 0
        && r.exit_code == 0
        && r.normalized == cold.normalized;
    if !ok {
        out.fail(format!(
            "resubmission: {} hits, {} misses, exit {}, summary identical: {}",
            r.cache_hits,
            r.cache_misses,
            r.exit_code,
            r.normalized == cold.normalized
        ));
    }
    u64::from(!ok)
}

/// Sets up (starts a server on a fresh store and submits the cold batch)
/// `times` times, keeping the last server. Returns it with the set-up
/// times in seconds.
fn set_up(
    work: &Path,
    req: &BatchRequest,
    times: usize,
    out: &mut Outcome,
) -> Result<(Server, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut kept: Option<Server> = None;
    for i in 0..times {
        if let Some(old) = kept.take() {
            old.stop()?;
        }
        let t0 = Instant::now();
        let server = Server::start(work.join(format!("store-{i}.j1")), req)?;
        setups.push(t0.elapsed().as_secs_f64());
        out.attempted += BATCH_SIZE as u64;
        let failed = check_cold(&server.cold, out) * BATCH_SIZE as u64;
        out.failed += failed;
        kept = Some(server);
    }
    Ok((kept.expect("at least one set-up"), setups))
}

/// The open loop: `count` resubmissions due at seeded Poisson times.
/// Each is timed from its due time to its response; lateness is how far
/// past its due time the generator sent it.
struct OpenLoop {
    latencies_ms: Vec<f64>,
    late_ms_max: f64,
    wall: Duration,
    cpu: Duration,
}

fn open_loop(
    server: &Server,
    req: &BatchRequest,
    seed: u64,
    count: usize,
    out: &mut Outcome,
) -> OpenLoop {
    let span = Duration::from_secs_f64(count as f64 / RATE);
    let schedule = poisson_schedule(seed, count, span);
    let mut latencies_ms = Vec::with_capacity(count);
    let mut late_ms_max = 0.0f64;
    let mut client = Client::new(server);
    let cpu0 = process_cpu();
    let start = Instant::now();
    for due in schedule {
        let due_at = start + due;
        let now = Instant::now();
        if now < due_at {
            client.close();
            std::thread::sleep(due_at - now);
        }
        let sent = Instant::now();
        late_ms_max = late_ms_max.max(ms(sent.saturating_duration_since(due_at)));
        resubmit(&mut client, &server.cold, req, |_| {}, out);
        latencies_ms.push(ms(Instant::now().saturating_duration_since(due_at)));
    }
    OpenLoop {
        latencies_ms,
        late_ms_max,
        wall: start.elapsed(),
        cpu: process_cpu().saturating_sub(cpu0),
    }
}

/// A per-process scratch directory inside the working directory,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The load generator's client: a new connection per batch, one batch in
/// flight at a time, like `gqed_campaign::submit_batch`. The one
/// difference: the finished connection is closed only after the next one
/// is open, or when the generator waits for the next due time. A batch
/// sent after a wait thus meets the serve loop in its 25 ms accept poll,
/// as any new client does. A batch sent back to back is already queued
/// at the listener when the server finishes the previous connection.
/// Reconnecting only after the close would race the server's return to
/// its accept poll; a process that loses that race pays the poll sleep on
/// every queued batch and stays backlogged for the whole run (seen in
/// about one run in ten), which would make the run's latency depend on
/// that race rather than on the serve loop's work.
struct Client {
    addr: String,
    finished: Option<TcpStream>,
}

impl Client {
    fn new(server: &Server) -> Client {
        Client {
            addr: server.addr.clone(),
            finished: None,
        }
    }

    /// Closes the finished connection (before the generator waits).
    fn close(&mut self) {
        self.finished = None;
    }

    /// Sends one batch on a new connection and reads its streamed events
    /// and final response.
    fn submit(
        &mut self,
        req: &BatchRequest,
        mut on_event: impl FnMut(&JsonValue),
    ) -> Result<BatchResponse, String> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        self.close();
        let mut line = req.to_json().render();
        line.push('\n');
        stream
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        loop {
            line.clear();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("connection closed before the batch response".to_string());
            }
            let value = parse_json(line.trim()).ok_or(format!("unparseable line: {line}"))?;
            match value.get("type").and_then(JsonValue::as_str) {
                Some("batch_response") => {
                    self.finished = Some(reader.into_inner());
                    return BatchResponse::from_json(&value).map_err(|e| format!("{e:?}"));
                }
                Some("error") => return Err(format!("server error: {}", line.trim())),
                _ => on_event(&value),
            }
        }
    }
}

/// Submits one resubmission and checks it, counting the attempt.
fn resubmit(
    client: &mut Client,
    cold: &BatchResponse,
    req: &BatchRequest,
    on_event: impl FnMut(&JsonValue),
    out: &mut Outcome,
) -> Option<BatchResponse> {
    out.attempted += 1;
    match client.submit(req, on_event) {
        Ok(r) => {
            let failed = check_resubmission(&r, cold, out);
            out.failed += failed;
            Some(r)
        }
        Err(e) => {
            client.close();
            out.failed += 1;
            out.fail(format!("resubmission failed: {e}"));
            None
        }
    }
}

pub fn measure(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let work = WorkDir::create()?;
    let obls = batch_obligations();
    if obls.len() != BATCH_SIZE {
        out.fail(format!("batch has {} obligations", obls.len()));
    }
    let req = request(&obls);
    let (server, setups) = set_up(&work.0, &req, 3, &mut out)?;
    let count = (RATE * seconds as f64).round() as usize;
    let run = open_loop(&server, &req, seed, count, &mut out);
    server.stop()?;
    let mut lat = run.latencies_ms;
    lat.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: {} resubmissions, generator late by at most {:.3} ms",
        lat.len(),
        run.late_ms_max
    );
    out.set("wall_s", run.wall.as_secs_f64());
    out.set("cpu_s", run.cpu.as_secs_f64());
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("setup_s", median(&setups));
    out.set("latency_p50_ms", percentile(&lat, 50.0));
    Ok(out)
}

/// Per-batch measurements of the traced closed loop.
#[derive(Default)]
struct BatchSamples {
    codec_us: Vec<f64>,
    first_event_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    event_lines: Vec<f64>,
    fingerprint_ms: Vec<f64>,
    request_bytes: usize,
    response_bytes: usize,
}

/// Builds the batch's models layer by layer under spans, as the server's
/// model cache does once per obligation.
fn build_models(obls: &[Obligation], tracer: &mut Tracer) -> Vec<Model> {
    let root = tracer.open("pass", "models");
    let models = obls
        .iter()
        .map(|obl| crate::campaign::build_traced(obl, tracer).0)
        .collect();
    tracer.close(root);
    models
}

/// The traced run: the same set-up and open loop (for the generator's
/// lateness and the tail latency), then two closed loops of
/// resubmissions, untraced and traced (client codec and service round
/// trip under spans), then the server's per-obligation store probe and
/// the cold batch's store writes replicated outside-in under spans.
pub fn trace(seed: u64, seconds: u64, span_file: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let work = WorkDir::create()?;
    let obls = batch_obligations();
    if obls.len() != BATCH_SIZE {
        out.fail(format!("batch has {} obligations", obls.len()));
    }
    let req = request(&obls);
    let (server, _) = set_up(&work.0, &req, 1, &mut out)?;
    let count = (RATE * seconds as f64).round() as usize;
    let run = open_loop(&server, &req, seed, count, &mut out);

    // Closed loops: each batch is due as soon as the previous one is
    // answered.
    let mut client = Client::new(&server);
    let t0 = Instant::now();
    for _ in 0..TRACED_BATCHES {
        resubmit(&mut client, &server.cold, &req, |_| {}, &mut out);
    }
    let untraced = t0.elapsed();

    let mut tracer = Tracer::new();
    let mut samples = BatchSamples::default();
    let t1 = Instant::now();
    let root = tracer.open("pass", "resubmit");
    for b in 0..TRACED_BATCHES {
        let batch = tracer.open("batch", b.to_string());
        let c0 = Instant::now();
        let line = tracer.time("api.encode", "", || req.to_json().render());
        let mut codec = c0.elapsed();
        samples.request_bytes = line.len();
        let sent = Instant::now();
        let mut first: Option<Instant> = None;
        let mut events = 0u64;
        let svc = tracer.open("service", "");
        let response = resubmit(
            &mut client,
            &server.cold,
            &req,
            |_| {
                first.get_or_insert_with(Instant::now);
                events += 1;
            },
            &mut out,
        );
        tracer.close(svc);
        let done = Instant::now();
        if let Some(response) = response {
            let first = first.unwrap_or(done);
            samples.first_event_ms.push(ms(first - sent));
            samples.stream_ms.push(ms(done - first));
            samples.event_lines.push(events as f64);
            let c1 = Instant::now();
            let (text, parsed) = tracer.time("api.decode", "", || {
                let text = response.to_json().render();
                let parsed = parse_json(&text).and_then(|v| BatchResponse::from_json(&v).ok());
                (text, parsed)
            });
            codec += c1.elapsed();
            samples.codec_us.push(codec.as_secs_f64() * 1e6);
            samples.response_bytes = text.len();
            if parsed.as_ref() != Some(&response) {
                out.fail("response does not survive its own codec");
            }
        }
        tracer.close(batch);
    }
    tracer.close(root);
    let traced = t1.elapsed();
    client.close();
    let coverage = tracer.coverage(root);

    // The server's per-obligation store probe, replicated: fingerprint
    // the cached model, derive the key, look it up.
    let models = build_models(&obls, &mut tracer);
    let config = req
        .apply_to(&server_config())
        .map_err(|e| format!("{e:?}"))?;
    let store = VerdictStore::open(&server.store).map_err(|e| e.to_string())?;
    let mut keys = Vec::new();
    let probes = tracer.open("pass", "store-probes");
    for b in 0..TRACED_BATCHES {
        let batch = tracer.open("batch", b.to_string());
        let f0 = Instant::now();
        keys.clear();
        for (obl, model) in obls.iter().zip(&models) {
            let fp = tracer.time("fingerprint", "", || model_fingerprint(model));
            keys.push(derive_key(fp, obl, &config));
        }
        samples.fingerprint_ms.push(ms(f0.elapsed()));
        for &key in &keys {
            if tracer.time("store.get", "", || store.get(key)).is_none() {
                out.fail("resubmitted obligation missing from the store");
            }
        }
        tracer.close(batch);
    }
    tracer.close(probes);
    let (hits, misses) = store.counters();
    // The write path: the stored verdicts appended, fsync'd, to a fresh
    // store.
    let fresh = VerdictStore::open(&work.0.join("put.j1")).map_err(|e| e.to_string())?;
    let mut puts = Vec::new();
    for &key in &keys {
        let Some(record) = store.get(key) else {
            continue;
        };
        let p0 = Instant::now();
        tracer
            .time("store.put", "", || fresh.put(key, &record))
            .map_err(|e| e.to_string())?;
        puts.push(ms(p0.elapsed()));
    }
    drop((store, fresh));
    server.stop()?;

    let layers = tracer.layer_totals(|_| true);
    let layer_ms = |name: &str| layers.get(name).map_or(0.0, |&d| ms(d));
    let bytes: usize = models
        .iter()
        .map(|m| gqed_ir::to_btor2(&m.ctx, &m.ts).len())
        .sum();
    let get_us = layers.get("store.get").map_or(0.0, |d| {
        d.as_secs_f64() * 1e6 / (hits + misses).max(1) as f64
    });
    out.set("ha.build_ms", layer_ms("ha.build"));
    out.set("wrapper.synth_ms", layer_ms("wrapper.synth"));
    out.set("coi.ms", layer_ms("coi"));
    out.set("fingerprint.ms", median(&samples.fingerprint_ms));
    out.set("fingerprint.btor2_bytes", bytes as f64);
    out.set("store.get_us", get_us);
    out.set(
        "store.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("store.put_ms", median(&puts));
    out.set("api.request_bytes", samples.request_bytes as f64);
    out.set("api.response_bytes", samples.response_bytes as f64);
    out.set("api.event_lines", median(&samples.event_lines));
    out.set("api.codec_us", median(&samples.codec_us));
    out.set("service.first_event_ms", median(&samples.first_event_ms));
    out.set("service.stream_ms", median(&samples.stream_ms));
    out.set("gen.late_ms_max", run.late_ms_max);
    let mut lat = run.latencies_ms;
    lat.sort_by(f64::total_cmp);
    out.set("latency_p99_ms", percentile(&lat, 99.0));
    out.set(
        "trace.overhead_pct",
        (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0,
    );
    out.set("trace.coverage", coverage);
    eprintln!(
        "perfbench: closed loop of {TRACED_BATCHES}: untraced {:.3} s, traced {:.3} s, coverage {coverage:.4}",
        untraced.as_secs_f64(),
        traced.as_secs_f64()
    );
    if let Err(e) = tracer.write(span_file) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    Ok(out)
}
