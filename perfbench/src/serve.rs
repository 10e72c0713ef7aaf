//! The `serve_single` and `serve_sharded` workloads: single-example
//! `POST /v1/predict` requests, open loop at a reference rate and closed
//! loop at one and at `nproc` connections, against one `HttpServer`, or
//! against four shard servers behind a `Router`. Every answer is checked
//! bit for bit against the in-process engine on the full snapshot.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slide_core::snapshot::slice_snapshot;
use slide_core::{DenseSelector, SlideTrainer, TopK, TrainOptions};
use slide_data::rng::{mix64, Rng, Xoshiro256PlusPlus};
use slide_data::{Dataset, SparseVector};
use slide_serve::conn::{ParseStatus, RequestParser};
use slide_serve::http::{HttpOptions, HttpServer};
use slide_serve::wire::{self, PredictRequest};
use slide_serve::{
    Client, EngineHandle, Router, RouterOptions, ServeOptions, ServerStats, ServingEngine,
    WirePrediction,
};

use crate::idle::IdlePoll;
use crate::report::{nproc, peak_rss_mib, Outcome};
use crate::stats::{median, quantile, sort};
use crate::train::{report_training_layers, traced_train, Geometry, CORPUS_SEED};

/// One box, or the snapshot sliced across shard servers behind a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `HttpServer` over the full snapshot.
    Single,
    /// Four shard servers behind a `Router`.
    Sharded,
}

/// Shard count of `serve_sharded`.
const SHARDS: usize = 4;

/// The latency limit `rps_at_slo` holds: client-observed p99.
const SLO_P99_US: f64 = 5_000.0;

/// Ratio between neighbouring rungs of the rate ladder.
const LADDER_STEP: f64 = 1.05;
/// The ladder climbs `reference × LADDER_STEP^i` for `i` in `1..=LADDER_TOP`.
const LADDER_TOP: i32 = 48;
/// Fewest requests on one rung, so its p99 has ten samples beyond it.
const MIN_RUNG_REQUESTS: usize = 1_000;
/// Windows of the reference phase; `p99_us` is the median of their p99s.
const REF_WINDOWS: usize = 3;
/// Unscored-for-latency requests that open every connection and warm
/// the caches (still checked for correctness).
const WARMUP_REQUESTS: usize = 200;
/// A rung whose completions fall behind its offered rate by more than
/// this share has a growing backlog.
const BACKLOG_SHARE: f64 = 0.05;
/// Rounds of the measured phase. Each round sends a share of the
/// reference-rate requests, then runs one closed-loop window at one
/// connection and one at `nproc`, so every end-to-end metric samples
/// the whole run rather than one stretch of the host's speed.
const ROUNDS: usize = 8;
/// Length of one closed-loop window, as a share of `--seconds`.
const CLOSED_WINDOW_SHARE: f64 = 0.05;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Epochs of one-thread training that make the served snapshot.
const SNAPSHOT_EPOCHS: usize = 2;
/// Requests of the traced in-process pass and of the shard round trip.
const TRACE_REQUESTS: usize = 1_000;
/// Queries whose served top-1 is compared with dense scoring.
const RECALL_QUERIES: usize = 500;
/// How long a request may take before the client gives up on it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

impl Topology {
    /// The fixed rate `p50_us` and `p99_us` are measured at: about a
    /// third of the single box's knee and two thirds of the sharded
    /// fleet's capacity on the reference host.
    fn reference_rate(self) -> f64 {
        match self {
            Topology::Single => 400.0,
            Topology::Sharded => 150.0,
        }
    }

    /// Whether the run searches the rate ladder for `rps_at_slo`. Through
    /// the router no rate meets the p99 limit at this commit (p99 stays
    /// near 7 ms from 40 to 250 req/s on the reference host), so the
    /// sharded workload reports latency at its reference rate only.
    fn searches_ladder(self) -> bool {
        self == Topology::Single
    }
}

/// Held-out queries the request stream is drawn from.
const QUERY_POOL: usize = 4_000;

fn serve_geometry() -> Geometry {
    Geometry {
        test_size: QUERY_POOL,
        ..Geometry::MEDIUM
    }
}

/// The served model before training, its corpus and its options: the
/// `train_lsh` geometry with buckets as large as the class count (so
/// neither the full tables nor any slice's tables evict, and slices hold
/// exactly the full tables' entries), one thread, fixed epochs.
fn snapshot_training() -> (SlideTrainer, Dataset, TrainOptions) {
    let g = serve_geometry();
    let trainer = SlideTrainer::new(g.config(Some(g.labels))).expect("valid serving network");
    let options = g.options(SNAPSHOT_EPOCHS, 1, CORPUS_SEED);
    (trainer, g.data(CORPUS_SEED).train, options)
}

/// Trains the served model. Deterministic.
pub fn make_snapshot() -> Vec<u8> {
    let (mut trainer, train, options) = snapshot_training();
    trainer.train(&train, &options);
    trainer.network().to_snapshot_bytes()
}

/// The served model for a traced run, trained in process twice: through
/// `Trainer::train`, then through the traced loop from the same initial
/// network. Reports the training layers, and fails unless the two
/// snapshots are byte-identical.
fn traced_snapshot(out: &mut Outcome) -> Result<Vec<u8>, String> {
    let (mut trainer, train, options) = snapshot_training();
    let report = trainer.train(&train, &options);
    let bytes = trainer.network().to_snapshot_bytes();
    let (mut traced, _, _) = snapshot_training();
    let t = traced_train(traced.network_mut(), &train, &options);
    if traced.network().to_snapshot_bytes() != bytes {
        return Err("the traced loop trained a different served model".to_string());
    }
    report_training_layers(out, &t, &report, &report);
    Ok(bytes)
}

/// Runs [`make_snapshot`] in a child process (this binary with
/// `--make-snapshot`), so the serving process's memory high-water mark
/// holds serving only.
fn snapshot_from_child() -> Result<Vec<u8>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--make-snapshot")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the snapshot trainer: {e}"))?;
    if !out.status.success() {
        return Err(format!("snapshot trainer exited with {}", out.status));
    }
    Ok(out.stdout)
}

/// A running deployment.
enum Deployment {
    Single(HttpServer),
    Sharded {
        shards: Vec<HttpServer>,
        router: Router,
    },
}

impl Deployment {
    /// Decodes the snapshot, builds the engines, starts the servers and
    /// waits until the front door answers `/readyz`.
    fn start(topology: Topology, bytes: &[u8]) -> Result<Self, String> {
        let serve = |engine: ServingEngine| {
            HttpServer::serve(
                Arc::new(EngineHandle::new(engine)),
                "127.0.0.1:0",
                HttpOptions::default(),
            )
            .map_err(|e| format!("bind: {e}"))
        };
        let d = match topology {
            Topology::Single => {
                let engine = ServingEngine::from_snapshot_bytes(bytes, ServeOptions::default())
                    .map_err(|e| format!("snapshot: {e}"))?;
                Deployment::Single(serve(engine)?)
            }
            Topology::Sharded => {
                let slices = slice_snapshot(bytes, SHARDS).map_err(|e| format!("slice: {e}"))?;
                let mut shards = Vec::with_capacity(SHARDS);
                for s in &slices {
                    let engine = ServingEngine::from_slice_bytes(s, ServeOptions::default())
                        .map_err(|e| format!("slice engine: {e}"))?;
                    shards.push(serve(engine)?);
                }
                let addrs = shards.iter().map(HttpServer::local_addr).collect();
                let router = Router::serve("127.0.0.1:0", addrs, RouterOptions::default())
                    .map_err(|e| format!("router bind: {e}"))?;
                Deployment::Sharded { shards, router }
            }
        };
        wait_ready(d.addr())?;
        Ok(d)
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Deployment::Single(s) => s.local_addr(),
            Deployment::Sharded { router, .. } => router.local_addr(),
        }
    }

    /// The servers that run engines (the shards, or the one box).
    fn servers(&self) -> &[HttpServer] {
        match self {
            Deployment::Single(s) => std::slice::from_ref(s),
            Deployment::Sharded { shards, .. } => shards,
        }
    }

    fn shutdown(self) {
        match self {
            Deployment::Single(s) => s.shutdown(),
            Deployment::Sharded { shards, router } => {
                router.shutdown();
                for s in shards {
                    s.shutdown();
                }
            }
        }
    }
}

fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    while Instant::now() < deadline {
        if client.readyz().unwrap_or(false) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(format!("{addr} not ready within 10 s"))
}

/// The request stream: the held-out pool in a seed-determined order,
/// each query with its labels and the in-process engine's answer.
struct Traffic {
    queries: Vec<SparseVector>,
    labels: Vec<Vec<u32>>,
    reference: Vec<Vec<(u32, f32)>>,
    order: Vec<u32>,
}

impl Traffic {
    fn new(seed: u64, engine: &ServingEngine) -> Result<Self, String> {
        let test = serve_geometry().data(CORPUS_SEED).test;
        let queries: Vec<SparseVector> = test.iter().map(|e| e.features.clone()).collect();
        let labels = test.iter().map(|e| e.labels.clone()).collect();
        let halves: Vec<Result<Vec<_>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(queries.len().div_ceil(2))
                .map(|half| {
                    scope.spawn(move || {
                        let mut answers = Vec::with_capacity(half.len());
                        for chunk in half.chunks(64) {
                            let batch = engine
                                .predict_batch_k(chunk, engine.default_top_k())
                                .map_err(|e| format!("reference predict: {e}"))?;
                            answers.extend(batch.iter().map(|p| p.topk.items().to_vec()));
                        }
                        Ok(answers)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        let mut reference = Vec::with_capacity(queries.len());
        for half in halves {
            reference.extend(half?);
        }
        let mut order: Vec<u32> = (0..queries.len() as u32).collect();
        Xoshiro256PlusPlus::seed_from_u64(mix64(seed)).shuffle(&mut order);
        Ok(Self {
            queries,
            labels,
            reference,
            order,
        })
    }

    /// Query index of the `i`-th request of the run.
    fn query(&self, i: u64) -> usize {
        self.order[(i % self.order.len() as u64) as usize] as usize
    }
}

/// Whether a served prediction equals the reference: same classes in
/// the same order and the same score bits.
fn matches(got: &WirePrediction, want: &[(u32, f32)]) -> bool {
    got.classes.len() == want.len()
        && got.scores.len() == want.len()
        && got
            .classes
            .iter()
            .zip(&got.scores)
            .zip(want)
            .all(|((&c, &s), &(wc, ws))| c == wc && s.to_bits() == ws.to_bits())
}

/// What happened to one request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Position in the rung's schedule.
    index: usize,
    query: usize,
    /// Completion minus due time.
    latency_us: f64,
    /// Send minus due time.
    late_us: f64,
    /// Completion, seconds after the rung's first due time.
    done_s: f64,
    answer: Answer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Right,
    /// Non-2xx, transport error or timeout.
    Failed,
    /// 2xx but not bit-identical to the in-process engine.
    Wrong,
}

/// One stretch of open-loop load at a fixed offered rate.
#[derive(Debug)]
struct Rung {
    rate: f64,
    /// In schedule order.
    samples: Vec<Sample>,
    /// Sorted latencies, µs.
    latency_us: Vec<f64>,
}

impl Rung {
    fn count(&self, a: Answer) -> u64 {
        self.samples.iter().filter(|s| s.answer == a).count() as u64
    }

    fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_us, q)
    }

    /// Completions per second from the first due time to the last
    /// completion.
    fn achieved_rps(&self) -> f64 {
        self.samples.len() as f64 / self.end_s()
    }

    /// The last completion, seconds after the first due time.
    fn end_s(&self) -> f64 {
        self.samples.iter().map(|s| s.done_s).fold(0.0, f64::max)
    }

    /// Meets the SLO: no failed or wrong answers, p99 within the limit,
    /// and completions keeping up with the offered rate.
    fn passes(&self) -> bool {
        self.count(Answer::Failed) == 0
            && self.count(Answer::Wrong) == 0
            && self.p(0.99) <= SLO_P99_US
            && self.achieved_rps() >= (1.0 - BACKLOG_SHARE) * self.rate
    }

    /// The p99 of each of `windows` consecutive stretches of the
    /// schedule, median across them: a host stall inside one stretch
    /// moves one window, not the result.
    fn windowed_p99(&self, windows: usize) -> f64 {
        let per = self.samples.len().div_ceil(windows);
        let p99s: Vec<f64> = self
            .samples
            .chunks(per)
            .map(|w| {
                let mut l: Vec<f64> = w.iter().map(|s| s.latency_us).collect();
                sort(&mut l);
                quantile(&l, 0.99)
            })
            .collect();
        median(&p99s)
    }

    /// The rungs at one rate, joined as one: their samples in order, each
    /// rung's completion times shifted past the end of the ones before,
    /// so the gaps between them do not count against the achieved rate.
    fn concat(parts: Vec<Rung>) -> Rung {
        let rate = parts[0].rate;
        let (mut samples, mut offset_s) = (Vec::new(), 0.0);
        for part in parts {
            let (offset_i, end) = (samples.len(), part.end_s());
            samples.extend(part.samples.into_iter().map(|s| Sample {
                index: s.index + offset_i,
                done_s: s.done_s + offset_s,
                ..s
            }));
            offset_s += end;
        }
        let mut latency_us: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        sort(&mut latency_us);
        Rung {
            rate,
            samples,
            latency_us,
        }
    }

    /// Sorted lateness, µs.
    fn lateness_us(&self) -> Vec<f64> {
        let mut l: Vec<f64> = self.samples.iter().map(|s| s.late_us).collect();
        sort(&mut l);
        l
    }
}

/// The open-loop load generator: `n` requests due at `rate` per second,
/// spread round-robin over the keep-alive `clients`, one thread each.
/// Each request is sent at its due time or, if its connection is still
/// busy, as soon as it frees; latency counts from the due time.
fn run_rung(clients: &mut [Client], traffic: &Traffic, first: u64, rate: f64, n: usize) -> Rung {
    let conns = clients.len();
    let start = Instant::now() + Duration::from_millis(2);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(n / conns + 1);
                    for index in (c..n).step_by(conns) {
                        let due = start + Duration::from_secs_f64(index as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let query = traffic.query(first + index as u64);
                        let answer = match client.predict(&traffic.queries[query], None) {
                            Ok(resp) => match resp.predictions.as_slice() {
                                [p] if matches(p, &traffic.reference[query]) => Answer::Right,
                                _ => Answer::Wrong,
                            },
                            Err(_) => Answer::Failed,
                        };
                        let done = Instant::now();
                        out.push(Sample {
                            index,
                            query,
                            latency_us: (done - due).as_secs_f64() * 1e6,
                            late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
                            done_s: (done - start).as_secs_f64(),
                            answer,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    let mut latency_us: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
    sort(&mut latency_us);
    Rung {
        rate,
        samples,
        latency_us,
    }
}

/// Drives load through one deployment and keeps the books.
struct LoadGen<'a> {
    clients: Vec<Client>,
    traffic: &'a Traffic,
    next: u64,
    attempted: u64,
    failed: u64,
    /// Target length of one ladder rung, seconds.
    rung_s: f64,
    /// Rung measurements made on the ladder.
    rungs_run: u32,
}

impl LoadGen<'_> {
    fn run(&mut self, rate: f64, n: usize) -> Rung {
        let rung = run_rung(&mut self.clients, self.traffic, self.next, rate, n);
        self.next += n as u64;
        self.attempted += n as u64;
        self.failed += rung.count(Answer::Failed) + rung.count(Answer::Wrong);
        // Let the queues drain before the next rung.
        std::thread::sleep(Duration::from_millis(50));
        rung
    }

    /// Closed-loop throughput over the first `conns` connections: each
    /// sends its next request as soon as the last one is answered, for
    /// `window`. Answered requests per second; every answer is checked.
    fn closed_window(&mut self, conns: usize, window: Duration) -> f64 {
        let (first, traffic) = (self.next, self.traffic);
        let sent = AtomicU64::new(0);
        let start = Instant::now();
        let end = start + window;
        let bad: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = self.clients[..conns]
                .iter_mut()
                .map(|client| {
                    let sent = &sent;
                    scope.spawn(move || {
                        let mut bad = 0u64;
                        while Instant::now() < end {
                            let i = sent.fetch_add(1, Ordering::Relaxed);
                            let query = traffic.query(first + i);
                            let right = match client.predict(&traffic.queries[query], None) {
                                Ok(resp) => matches!(
                                    resp.predictions.as_slice(),
                                    [p] if matches(p, &traffic.reference[query])
                                ),
                                Err(_) => false,
                            };
                            bad += u64::from(!right);
                        }
                        bad
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop thread panicked"))
                .sum()
        });
        let n = sent.into_inner();
        self.next += n;
        self.attempted += n;
        self.failed += bad;
        n as f64 / start.elapsed().as_secs_f64()
    }

    /// Measures ladder rung `i`; a rung that misses the SLO is measured
    /// once more, so that one host stall does not decide the knee.
    fn ladder_rung(&mut self, reference: f64, i: i32) -> Rung {
        let rate = reference * LADDER_STEP.powi(i);
        let n = ((rate * self.rung_s) as usize).max(MIN_RUNG_REQUESTS);
        let mut rung = self.run(rate, n);
        self.rungs_run += 1;
        if !rung.passes() {
            rung = self.run(rate, n);
            self.rungs_run += 1;
        }
        let late = rung.lateness_us();
        eprintln!(
            "rung {i:+}: offered {:.1} req/s, achieved {:.1}, p50 {:.0} us, p99 {:.0} us, late p99 {:.0} us, {}",
            rung.rate,
            rung.achieved_rps(),
            rung.p(0.5),
            rung.p(0.99),
            quantile(&late, 0.99),
            if rung.passes() { "pass" } else { "fail" }
        );
        rung
    }
}

/// Climbs the ladder from the reference rate (rung 0, already measured)
/// and stops at the first rung that fails twice. Returns the achieved
/// rate and offered rate of the last passing rung, or `None` if the
/// reference rung failed or the top rung passed (a capped result).
fn find_knee(load: &mut LoadGen<'_>, reference: f64, at_ref: &Rung) -> Option<(f64, f64)> {
    if !at_ref.passes() {
        return None;
    }
    let mut knee = (at_ref.achieved_rps(), at_ref.rate);
    for i in 1..=LADDER_TOP {
        let r = load.ladder_rung(reference, i);
        if !r.passes() {
            return Some(knee);
        }
        knee = (r.achieved_rps(), r.rate);
    }
    None
}

fn sum_stats(servers: &[HttpServer]) -> (u64, u64, f64) {
    servers.iter().map(HttpServer::batch_stats).fold(
        (0, 0, 0.0),
        |(req, batches, wait_ns), s: ServerStats| {
            (
                req + s.requests,
                batches + s.batches,
                wait_ns + s.mean_queue_wait.as_nanos() as f64 * s.requests as f64,
            )
        },
    )
}

/// Runs `serve_single` or `serve_sharded`.
pub fn run(topology: Topology, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_into(&mut out, topology, seed, seconds, traced) {
        out.problems.push(e);
    }
    out
}

fn run_into(
    out: &mut Outcome,
    topology: Topology,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(), String> {
    let bytes = if traced {
        traced_snapshot(out)?
    } else {
        snapshot_from_child()?
    };
    let full = ServingEngine::from_snapshot_bytes(&bytes, ServeOptions::default())
        .map_err(|e| format!("reference engine: {e}"))?;
    let traffic = Traffic::new(seed, &full)?;

    // Without the pollers the run still measures, with a noisier tail.
    let idle_poll = IdlePoll::start(nproc())
        .map_err(|e| out.detail("idle_pollers", format!("off: {e}")))
        .ok();
    // Set-up, repeated; the last deployment serves the load.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut deployment = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = deployment.take() {
            Deployment::shutdown(d);
        }
        let t0 = Instant::now();
        deployment = Some(Deployment::start(topology, &bytes)?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let deployment = deployment.expect("at least one set-up");

    let conns = nproc();
    let clients = (0..conns)
        .map(|_| {
            Client::connect(deployment.addr())
                .map(|c| c.with_read_timeout(CLIENT_TIMEOUT))
                .map_err(|e| format!("connect: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let secs = seconds as f64;
    let mut load = LoadGen {
        clients,
        traffic: &traffic,
        next: 0,
        attempted: 0,
        failed: 0,
        rung_s: 0.05 * secs,
        rungs_run: 0,
    };

    let reference = topology.reference_rate();
    load.run(reference, WARMUP_REQUESTS);
    let n_ref = ((reference * 0.4 * secs) as usize).max(REF_WINDOWS * MIN_RUNG_REQUESTS);
    let window = Duration::from_secs_f64(CLOSED_WINDOW_SHARE * secs);
    let (mut chunks, mut rates_1, mut rates_n) = (Vec::new(), Vec::new(), Vec::new());
    // Batch counters over the reference-rate requests only.
    let mut batch = (0u64, 0u64, 0.0f64);
    for _ in 0..ROUNDS {
        let before = sum_stats(deployment.servers());
        chunks.push(load.run(reference, n_ref.div_ceil(ROUNDS)));
        let after = sum_stats(deployment.servers());
        batch.0 += after.0 - before.0;
        batch.1 += after.1 - before.1;
        batch.2 += after.2 - before.2;
        rates_1.push(load.closed_window(1, window));
        rates_n.push(load.closed_window(conns, window));
    }
    eprintln!("closed loop, 1 connection: {rates_1:.0?} req/s; {conns}: {rates_n:.0?} req/s");
    let ex_per_s_1t = median(&rates_1);
    let ex_per_s = median(&rates_n);
    let at_ref = Rung::concat(chunks);
    // The tail and the knee spread too widely on the reference host to
    // gate: every run prints `p99_us`, and the traced run climbs the
    // ladder and prints `rps_at_slo`.
    let p50_us = at_ref.p(0.5);
    let p99_us = at_ref.windowed_p99(REF_WINDOWS);
    out.detail("p99_us", p99_us);
    if traced && topology.searches_ladder() {
        // A ladder with no passing rung (or a passing top) is a finding
        // about the host or the ladder, not a failed operation: it is
        // printed in the knee's place.
        match find_knee(&mut load, reference, &at_ref) {
            Some((achieved, offered)) => {
                out.detail("rps_at_slo", achieved);
                out.detail("knee_offered_rps", offered);
            }
            None => out.detail("rps_at_slo", "no rung met the SLO, or the top rung did"),
        }
        out.detail("ladder_rungs_run", load.rungs_run);
    }

    let hits = at_ref
        .samples
        .iter()
        .filter(|s| s.answer == Answer::Right)
        .filter(|s| {
            let top1 = traffic.reference[s.query][0].0;
            traffic.labels[s.query].binary_search(&top1).is_ok()
        })
        .count();
    let late = at_ref.lateness_us();

    out.e2e("ex_per_s", "examples/s", ex_per_s);
    out.e2e("ex_per_s_1t", "examples/s", ex_per_s_1t);
    out.e2e(
        "p_at_1",
        "fraction",
        hits as f64 / at_ref.samples.len() as f64,
    );
    out.e2e("p50_us", "us", p50_us);
    out.e2e("setup_s", "s", median(&setup));
    out.detail("connections", conns);
    out.detail("reference_rate_rps", reference);
    out.detail("reference_samples", at_ref.samples.len());

    if traced {
        let engines: Vec<Arc<ServingEngine>> = deployment
            .servers()
            .iter()
            .map(|s| s.handle().engine())
            .collect();
        let engines: Vec<&ServingEngine> = engines.iter().map(|e| &**e).collect();
        let queries: Vec<&SparseVector> = (0..TRACE_REQUESTS as u64)
            .map(|i| &traffic.queries[traffic.query(i)])
            .collect();
        let stages = report_serving_layers(out, &engines, &full, &queries)?;
        // The transport, batching, generator and router layers exist on
        // the serving workloads only; they are printed, not reported.
        out.detail("serve.transport_us", p50_us - stages.iter().sum::<f64>());
        out.detail("serve.queue_wait_us", batch.2 / batch.0 as f64 / 1e3);
        out.detail("serve.mean_batch", batch.0 as f64 / batch.1 as f64);
        out.detail("client.late_p99_us", quantile(&late, 0.99));
        if let Deployment::Sharded { shards, router } = &deployment {
            let rtt = shard_rtt_us(shards[0].local_addr(), &traffic)?;
            out.detail("cluster.shard_rtt_us", rtt);
            out.detail("cluster.router_overhead_x", p50_us / rtt);
            out.detail("cluster.shard_errors", router.stats().shard_errors);
        }
    }

    out.attempted += load.attempted;
    out.failed += load.failed;
    drop(load);
    if let Some(p) = idle_poll {
        p.stop();
    }
    deployment.shutdown();
    out.e2e("peak_rss_mb", "MiB", peak_rss_mib());
    Ok(())
}

/// The HTTP request bytes `Client::predict` sends for `features`.
fn request_bytes(features: &SparseVector) -> Vec<u8> {
    let body = wire::encode_predict_request(&PredictRequest {
        inputs: vec![features.clone()],
        top_k: None,
    });
    format!(
        "POST /v1/predict HTTP/1.1\r\nHost: slide\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The serving layers' per-layer metrics, in process: `queries` through
/// parse, engine and encode ([`traced_stages`]), the share of `engines`'
/// requests so far that fell back to dense scoring, and the share of
/// `full`'s top-1 answers that dense scoring agrees with. Returns the
/// stage medians.
fn report_serving_layers(
    out: &mut Outcome,
    engines: &[&ServingEngine],
    full: &ServingEngine,
    queries: &[&SparseVector],
) -> Result<[f64; 3], String> {
    let stages = traced_stages(engines, queries, full.default_top_k())?;
    out.layer("serve.parse_us", "us", stages[0]);
    out.layer("serve.engine_us", "us", stages[1]);
    out.layer("serve.encode_us", "us", stages[2]);
    let (fallbacks, requests) = engines.iter().fold((0, 0), |(f, r), e| {
        let st = e.stats();
        (f + st.dense_fallbacks, r + st.requests)
    });
    out.layer(
        "serve.dense_fallback_frac",
        "fraction",
        fallbacks as f64 / requests as f64,
    );
    out.layer(
        "serve.retrieval_recall",
        "fraction",
        retrieval_recall(full, queries)?,
    );
    Ok(stages)
}

/// [`report_serving_layers`] for the model a training run made: one
/// engine restored from `snapshot` with default options.
pub(crate) fn report_trained_model_serving(
    out: &mut Outcome,
    snapshot: &[u8],
    queries: &[&SparseVector],
) -> Result<(), String> {
    let engine = ServingEngine::from_snapshot_bytes(snapshot, ServeOptions::default())
        .map_err(|e| format!("engine from the trained snapshot: {e}"))?;
    let queries = &queries[..TRACE_REQUESTS.min(queries.len())];
    report_serving_layers(out, &[&engine], &engine, queries).map(drop)
}

/// The traced in-process pass: `queries` through the serving layers'
/// public functions, one stage at a time. Returns the median µs of parse
/// (`RequestParser::advance` then `decode_predict_request`), engine
/// (`predict_batch_k` with `default_k` unless the request names one; for
/// several engines, the shards of one deployment, the slowest, since the
/// shards score in parallel) and encode (`response_from_predictions`
/// then `encode_predict_response`).
fn traced_stages(
    engines: &[&ServingEngine],
    queries: &[&SparseVector],
    default_k: usize,
) -> Result<[f64; 3], String> {
    let max_body = HttpOptions::default().max_body_bytes;
    let mut stages: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(queries.len()));
    for features in queries {
        let bytes = request_bytes(features);
        let t0 = Instant::now();
        let mut parser = RequestParser::new(max_body);
        let ParseStatus::Request(req) = parser.advance(&bytes).1 else {
            return Err("traced parse did not yield a request".to_string());
        };
        let decoded =
            wire::decode_predict_request(&req.body).map_err(|e| format!("traced decode: {e}"))?;
        let parse_s = t0.elapsed().as_secs_f64();
        let k = decoded.top_k.unwrap_or(default_k);
        let mut engine_s = 0.0f64;
        let mut predictions = Vec::new();
        for engine in engines {
            let e0 = Instant::now();
            predictions = engine
                .predict_batch_k(&decoded.inputs, k)
                .map_err(|e| format!("traced predict: {e}"))?;
            engine_s = engine_s.max(e0.elapsed().as_secs_f64());
        }
        let e1 = Instant::now();
        let body = wire::encode_predict_response(&wire::response_from_predictions(0, &predictions));
        let encode_s = e1.elapsed().as_secs_f64();
        std::hint::black_box(body);
        for (v, s) in stages.iter_mut().zip([parse_s, engine_s, encode_s]) {
            v.push(s * 1e6);
        }
    }
    Ok(stages.map(|v| median(&v)))
}

/// Share of the first [`RECALL_QUERIES`] of `queries` whose top-1 from
/// `engine` is the dense argmax (`Network::predict_topk` under
/// `DenseSelector`).
fn retrieval_recall(engine: &ServingEngine, queries: &[&SparseVector]) -> Result<f64, String> {
    let net = engine.network();
    let mut ws = net.workspace(0);
    let mut top = TopK::new(1);
    let queries = &queries[..RECALL_QUERIES.min(queries.len())];
    let mut agree = 0usize;
    for &q in queries {
        let served = engine
            .predict_batch_k(std::slice::from_ref(q), 1)
            .map_err(|e| format!("recall predict: {e}"))?;
        net.predict_topk(&DenseSelector, &mut ws, q, &mut top);
        agree += usize::from(top.top1() == served[0].topk.items().first().map(|&(c, _)| c));
    }
    Ok(agree as f64 / queries.len() as f64)
}

/// Median round trip of `Client` predicts sent straight to one shard,
/// one at a time.
fn shard_rtt_us(addr: SocketAddr, traffic: &Traffic) -> Result<f64, String> {
    let mut client = Client::connect(addr)
        .map(|c| c.with_read_timeout(CLIENT_TIMEOUT))
        .map_err(|e| format!("shard connect: {e}"))?;
    let mut rtt = Vec::with_capacity(TRACE_REQUESTS);
    for i in 0..(TRACE_REQUESTS + WARMUP_REQUESTS) as u64 {
        let t0 = Instant::now();
        client
            .predict(&traffic.queries[traffic.query(i)], None)
            .map_err(|e| format!("shard predict: {e}"))?;
        if i >= WARMUP_REQUESTS as u64 {
            rtt.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(median(&rtt))
}
