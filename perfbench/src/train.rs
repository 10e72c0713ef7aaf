//! The `train_lsh` workload: `Trainer<LshSelector>::train` on a
//! Delicious-like corpus at the `hot_path` medium geometry, at `nproc`
//! threads and at one thread, plus the traced one-thread loop the
//! per-layer numbers come from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use slide_core::selector::{ActiveSet, NeuronSelector, SelectionContext, SelectorScratch};
use slide_core::{
    hash_layer_input, probe_tables, LshLayerConfig, LshSelector, Network, NetworkConfig,
    RebuildSchedule, SlideTrainer, TopK, TrainOptions, TrainReport,
};
use slide_data::rng::{mix64, Rng, Xoshiro256PlusPlus};
use slide_data::synth::{generate, Scale, SyntheticConfig, SyntheticData};
use slide_data::{Dataset, SparseVector};

use crate::report::{nproc, peak_rss_mib, Outcome};

/// Model and corpus shape of a training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Input features.
    pub features: usize,
    /// Output classes.
    pub labels: usize,
    /// Hidden units.
    pub hidden: usize,
    /// Training examples.
    pub train_size: usize,
    /// Held-out examples.
    pub test_size: usize,
    /// SimHash bits per table.
    pub k: usize,
    /// Hash tables.
    pub l: usize,
    /// Vanilla sampling budget (active output neurons per example).
    pub budget: usize,
    /// Examples per batch.
    pub batch_size: usize,
}

impl Geometry {
    /// The `hot_path` medium geometry the paper's workload is scaled to.
    pub const MEDIUM: Geometry = Geometry {
        features: 10_000,
        labels: 20_000,
        hidden: 128,
        train_size: 4_000,
        test_size: 2_000,
        k: 6,
        l: 12,
        budget: 1_000,
        batch_size: 128,
    };

    /// Batches per epoch; the tables rebuild once per this many.
    pub fn batches_per_epoch(&self) -> u64 {
        self.train_size.div_ceil(self.batch_size) as u64
    }

    /// The corpus generated from `seed`.
    pub fn data(&self, seed: u64) -> SyntheticData {
        let mut synth = SyntheticConfig::delicious_like(Scale::Medium).with_seed(mix64(seed));
        synth.feature_dim = self.features;
        synth.label_dim = self.labels;
        synth.train_size = self.train_size;
        synth.test_size = self.test_size;
        generate(&synth)
    }

    /// The network. Its initial weights and hash functions come from
    /// [`MODEL_SEED`], not from the workload seed: the SimHash planes
    /// drawn at initialization move held-out P@1 and the serving
    /// candidate-set size more than anything else a seed controls, so a
    /// seed-drawn model would turn every run into a different system.
    /// `bucket_capacity` overrides the default bucket size (serving sets
    /// it to the class count so that no bucket evicts and sharded tables
    /// hold exactly the full tables' entries).
    pub fn config(&self, bucket_capacity: Option<usize>) -> NetworkConfig {
        let mut lsh = LshLayerConfig::simhash(self.k, self.l)
            .with_strategy(slide_lsh::SamplingStrategy::Vanilla {
                budget: self.budget,
            })
            .with_rebuild(RebuildSchedule::fixed(self.batches_per_epoch()));
        if let Some(cap) = bucket_capacity {
            let bits = lsh.table_bits;
            lsh = lsh.with_tables(bits, cap);
        }
        NetworkConfig::builder(self.features, self.labels)
            .hidden(self.hidden)
            .output_lsh(lsh)
            .learning_rate(2e-3)
            .seed(MODEL_SEED)
            .build()
            .expect("the workload geometry is a valid network")
    }

    /// Training options for `epochs` passes.
    pub fn options(&self, epochs: usize, threads: usize, seed: u64) -> TrainOptions {
        TrainOptions::new(epochs)
            .batch_size(self.batch_size)
            .threads(threads)
            .seed(seed)
    }
}

/// Seed of the corpus the served model is trained on and the serving
/// queries are drawn from. The served model is the same in every run:
/// trained from a seed-drawn corpus, its LSH candidate sets, and so the
/// engine cost, ranged 223–487 µs p50 across six corpora. The serving
/// workloads' seed draws the request stream.
pub(crate) const CORPUS_SEED: u64 = 0x5E_4E;

/// Seed of every workload's initial weights and hash functions.
pub const MODEL_SEED: u64 = 0x5_11DE;

/// Lowest held-out P@1 a correct `train_lsh` run reaches.
const P_AT_1_FLOOR: f64 = 0.2;

/// `Trainer::new` repetitions beyond the ones the runs need; `setup_s`
/// is the median over all of them.
const EXTRA_SETUPS: usize = 8;

/// Wall time spent in each phase of the traced loop, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// Hashing each layer input into K×L codes (`hash_layer_input`).
    pub hash_s: f64,
    /// Probing the tables and sampling the active set (`probe_tables`).
    pub probe_s: f64,
    /// `Network::forward` minus hashing and probing: the fused
    /// `gather_dot` kernels and the nonlinearities.
    pub forward_s: f64,
    /// `Network::backward`: the fused `adam_step_gather` updates.
    pub backward_s: f64,
    /// `Layer::maintain` after every batch: scheduled table rebuilds.
    pub rebuild_s: f64,
}

impl Phases {
    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.hash_s + self.probe_s + self.forward_s + self.backward_s + self.rebuild_s
    }
}

/// What the traced loop measured.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRun {
    /// Batches run.
    pub iterations: u64,
    /// Examples trained.
    pub examples: u64,
    /// Training seconds, defined as `Trainer::train` defines them: batch
    /// compute plus table maintenance.
    pub seconds: f64,
    /// Mean loss over the final (possibly capped) epoch, as
    /// `TrainReport::final_loss`.
    pub final_loss: f64,
    /// Examples whose loss was not finite.
    pub nonfinite: u64,
    /// Time per phase.
    pub phases: Phases,
    /// `maintain` calls that rebuilt tables.
    pub rebuilds: u64,
    /// Summed output active-set size (after label insertion).
    pub active_out: u64,
    /// Examples with at least one true label in the probed set, before
    /// the labels are forced in.
    pub label_hits: u64,
}

/// `LshSelector` with a clock around each of its two public halves.
/// `select` makes exactly the calls `LshSelector::select` makes, in the
/// same order, so the loop it drives computes what production computes.
#[derive(Debug, Default)]
struct TracedSelector {
    hash_ns: AtomicU64,
    probe_ns: AtomicU64,
    /// Time spent on the label-recall check, subtracted from forward.
    check_ns: AtomicU64,
    label_hits: AtomicU64,
}

impl TracedSelector {
    fn clocks(&self) -> [u64; 3] {
        [
            self.hash_ns.load(Ordering::Relaxed),
            self.probe_ns.load(Ordering::Relaxed),
            self.check_ns.load(Ordering::Relaxed),
        ]
    }
}

impl NeuronSelector for TracedSelector {
    fn name(&self) -> &'static str {
        "lsh"
    }

    fn select(
        &self,
        ctx: &SelectionContext<'_>,
        scratch: &mut SelectorScratch,
        active: &mut ActiveSet,
    ) {
        let Some(lsh) = ctx.layer.lsh() else {
            active.fill_dense(ctx.layer.units());
            return;
        };
        let t0 = Instant::now();
        hash_layer_input(lsh, ctx, scratch, false);
        let t1 = Instant::now();
        probe_tables(lsh, ctx, scratch, active);
        let t2 = Instant::now();
        if let (true, Some(labels)) = (ctx.is_output, ctx.labels) {
            if labels.iter().any(|&y| active.contains(y)) {
                self.label_hits.fetch_add(1, Ordering::Relaxed);
            }
            self.check_ns
                .fetch_add(nanos(t2.elapsed()), Ordering::Relaxed);
        }
        self.hash_ns.fetch_add(nanos(t1 - t0), Ordering::Relaxed);
        self.probe_ns.fetch_add(nanos(t2 - t1), Ordering::Relaxed);
    }

    fn maintains_tables(&self) -> bool {
        true
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The one-thread training loop of `Trainer::train`, driven through the
/// same public calls (`begin_step`, `forward` under an LSH selector that
/// calls `hash_layer_input` then `probe_tables`, `backward`, `maintain`
/// on every layer) with a clock around each. With one thread the trainer
/// checks one workspace seeded `options.seed` out of its pool and keeps
/// it for the whole run; so does this loop. `options.threads` is
/// ignored: the loop is single-threaded.
pub fn traced_train(network: &mut Network, train: &Dataset, options: &TrainOptions) -> TracedRun {
    let selector = TracedSelector::default();
    let mut ws = network.workspace(options.seed);
    let mut order: Vec<u32> = (0..train.len() as u32).collect();
    let mut shuffle_rng = Xoshiro256PlusPlus::seed_from_u64(options.seed ^ 0x5F0F);
    let last = network.layers().len() - 1;

    let mut run = TracedRun {
        iterations: 0,
        examples: 0,
        seconds: 0.0,
        final_loss: 0.0,
        nonfinite: 0,
        phases: Phases::default(),
        rebuilds: 0,
        active_out: 0,
        label_hits: 0,
    };
    let mut fwd_ns = 0u64;
    let mut bwd_ns = 0u64;

    'epochs: for _ in 0..options.epochs {
        if options.shuffle {
            shuffle_rng.shuffle(&mut order);
        }
        let mut epoch_loss = 0.0f64;
        let mut epoch_examples = 0u64;
        for batch in order.chunks(options.batch_size) {
            let clr = network.begin_step();
            let t0 = Instant::now();
            let net = &*network;
            let batch_loss: f64 = batch
                .iter()
                .map(|&idx| {
                    let ex = &train.examples()[idx as usize];
                    let f0 = Instant::now();
                    let loss = net.forward(&selector, &mut ws, &ex.features, Some(&ex.labels));
                    let f1 = Instant::now();
                    net.backward(&mut ws, &ex.features, &ex.labels, clr);
                    bwd_ns += nanos(f1.elapsed());
                    fwd_ns += nanos(f1 - f0);
                    run.active_out += ws.active_set(last).len() as u64;
                    run.nonfinite += u64::from(!loss.is_finite());
                    loss as f64
                })
                .sum();
            run.seconds += t0.elapsed().as_secs_f64();
            run.iterations += 1;
            run.examples += batch.len() as u64;
            epoch_loss += batch_loss;
            epoch_examples += batch.len() as u64;

            let m0 = Instant::now();
            for layer in network.layers_mut() {
                run.rebuilds += u64::from(layer.maintain(run.iterations));
            }
            let maintain_s = m0.elapsed().as_secs_f64();
            run.seconds += maintain_s;
            run.phases.rebuild_s += maintain_s;

            if options
                .max_iterations
                .is_some_and(|cap| run.iterations >= cap)
            {
                run.final_loss = mean(epoch_loss, epoch_examples);
                break 'epochs;
            }
        }
        run.final_loss = mean(epoch_loss, epoch_examples);
    }

    let [hash_ns, probe_ns, check_ns] = selector.clocks();
    run.phases.hash_s = hash_ns as f64 * 1e-9;
    run.phases.probe_s = probe_ns as f64 * 1e-9;
    run.phases.forward_s = fwd_ns.saturating_sub(hash_ns + probe_ns + check_ns) as f64 * 1e-9;
    run.phases.backward_s = bwd_ns as f64 * 1e-9;
    run.label_hits = selector.label_hits.load(Ordering::Relaxed);
    run
}

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `Trainer::train_with_eval` with a checkpoint after every epoch, so
/// each epoch's training seconds (evaluation excluded, table rebuild
/// included) and mean loss can be read back. The checkpoint evaluates
/// one example.
fn train_by_epoch(
    trainer: &mut SlideTrainer,
    data: &SyntheticData,
    options: &TrainOptions,
) -> TrainReport {
    let per_epoch = (data.train.len() as u64).div_ceil(options.batch_size as u64);
    let options = options.clone().eval_every(per_epoch).eval_examples(1);
    trainer.train_with_eval(&data.train, &data.test, &options)
}

/// Examples per training second over the whole fixed run (evaluation
/// excluded, table rebuilds included). The per-epoch rate climbs about
/// threefold as the tables learn to return smaller active sets, so a
/// median epoch would read how far training had got, not how fast it
/// ran.
fn run_rate(report: &TrainReport) -> f64 {
    report.telemetry.examples as f64 / report.seconds
}

/// Examples per training second of each epoch.
fn epoch_rates(report: &TrainReport, epoch_examples: usize) -> Vec<f64> {
    let mut prev = 0.0;
    report
        .history
        .iter()
        .map(|c| {
            let dt = c.seconds - prev;
            prev = c.seconds;
            epoch_examples as f64 / dt
        })
        .collect()
}

/// Examples of the epochs whose mean loss was not finite: each epoch's
/// checkpoint carries its mean training loss, and one non-finite example
/// makes that mean non-finite. A non-finite `final_loss` counts one
/// epoch even if no checkpoint showed it.
fn nonfinite_epoch_examples(report: &TrainReport, epoch_examples: usize) -> u64 {
    let bad_epochs = report
        .history
        .iter()
        .filter(|c| !c.train_loss.is_finite())
        .count()
        .max(usize::from(!report.final_loss.is_finite()));
    (bad_epochs * epoch_examples) as u64
}

/// Held-out examples predicted one at a time in each round of `p50_us`.
const PREDICT_EXAMPLES: usize = 2_000;
/// Measured rounds of `p50_us`, after one warm-up round; `p50_us` is
/// their median.
const PREDICT_ROUNDS: usize = 12;
/// Pause before each round. A round takes about 0.1 s on the reference
/// host, where one model's round times moved twofold from one second to
/// the next; spread over several seconds, the median round holds.
const PREDICT_PAUSE: std::time::Duration = std::time::Duration::from_millis(500);

/// Latency of `Network::predict_topk` under the training selector
/// (`LshSelector`: hash, probe the tables the run wrote, score the
/// sampled classes), one held-out example at a time, on `threads`
/// threads at once. A round's value is each thread's median µs,
/// averaged over the threads; the result is the median round. One
/// thread per core measures every core each round; on the reference
/// host one core is at times much slower than the other, and a lone
/// thread's median reads whichever core it landed on.
fn predict_p50_us(network: &Network, test: &Dataset, threads: usize) -> f64 {
    let n = PREDICT_EXAMPLES.min(test.len());
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut ws = network.workspace(0);
                    let mut top = TopK::new(1);
                    let mut latency_us = Vec::with_capacity(n);
                    let mut rounds = Vec::with_capacity(PREDICT_ROUNDS);
                    for round in 0..=PREDICT_ROUNDS {
                        latency_us.clear();
                        for ex in &test.examples()[..n] {
                            let t0 = Instant::now();
                            network.predict_topk(&LshSelector, &mut ws, &ex.features, &mut top);
                            latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
                            std::hint::black_box(top.top1());
                        }
                        if round > 0 {
                            rounds.push(crate::stats::median(&latency_us));
                        }
                        if round < PREDICT_ROUNDS {
                            std::thread::sleep(PREDICT_PAUSE);
                        }
                    }
                    rounds
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("predict thread panicked"))
            .collect()
    });
    let rounds: Vec<f64> = (0..PREDICT_ROUNDS)
        .map(|r| mean(per_thread.iter().map(|t| t[r]).sum(), threads as u64))
        .collect();
    crate::stats::median(&rounds)
}

/// `Trainer::train` at one thread, one trainer per core at once, each
/// over the same corpus and options. One-thread training is
/// deterministic, so every trainer must end with the same final-loss
/// bits; a run where they differ is incorrect.
fn train_one_thread_per_core(
    trainers: Vec<SlideTrainer>,
    data: &SyntheticData,
    options: &TrainOptions,
) -> Vec<TrainReport> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = trainers
            .into_iter()
            .map(|mut trainer| scope.spawn(move || train_by_epoch(&mut trainer, data, options)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("one-thread trainer panicked"))
            .collect()
    })
}

/// The training layers' per-layer metrics: the phases and selector
/// counters of the traced run `t`, the work counters and thread
/// utilization of the untraced run `work`, and `t`'s speed against
/// `untraced`, the untraced one-thread run over the same work.
pub(crate) fn report_training_layers(
    out: &mut Outcome,
    t: &TracedRun,
    untraced: &TrainReport,
    work: &TrainReport,
) {
    let per_ex = 1.0 / t.examples.max(1) as f64;
    let tel = &work.telemetry;
    out.layer("lsh.hash_s", "s", t.phases.hash_s);
    out.layer("lsh.probe_s", "s", t.phases.probe_s);
    out.layer("kernels.forward_s", "s", t.phases.forward_s);
    out.layer("kernels.backward_s", "s", t.phases.backward_s);
    out.layer("lsh.rebuild_s", "s", t.phases.rebuild_s);
    out.layer("lsh.rebuilds", "count", t.rebuilds as f64);
    out.layer(
        "lsh.active_out_mean",
        "neurons",
        t.active_out as f64 * per_ex,
    );
    out.layer("lsh.label_recall", "fraction", t.label_hits as f64 * per_ex);
    out.layer(
        "kernels.ops_per_ex",
        "ops/example",
        tel.compute_ops as f64 / tel.examples as f64,
    );
    out.layer(
        "kernels.bytes_per_ex",
        "bytes/example",
        4.0 * tel.weight_touches as f64 / tel.examples as f64,
    );
    out.layer("rayon.utilization", "fraction", tel.utilization);
    out.layer("trace.coverage", "fraction", t.phases.total() / t.seconds);
    let untraced_rate = untraced.telemetry.examples as f64 / untraced.seconds;
    out.layer(
        "trace.overhead",
        "ratio",
        t.examples as f64 / t.seconds / untraced_rate,
    );
}

fn timed_trainer(config: &NetworkConfig, setup: &mut Vec<f64>) -> SlideTrainer {
    let t0 = Instant::now();
    let trainer = SlideTrainer::new(config.clone()).expect("valid workload network");
    setup.push(t0.elapsed().as_secs_f64());
    trainer
}

/// Runs `train_lsh`. Untraced: `setup_s`; `ex_per_s`, `p_at_1` and
/// `p50_us` of the `nproc`-thread run; `ex_per_s_1t`; `peak_rss_mb`.
/// Traced: additionally the serving layers in process on the
/// `nproc`-thread model, and the one-thread traced loop over the same
/// work as a one-thread run.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let g = Geometry::MEDIUM;
    let mut out = Outcome::default();
    let data = g.data(seed);
    let config = g.config(None);
    let threads = nproc();
    // Fixed work per run: about the budget at `nproc` threads and as much
    // again at one thread, on the reference host.
    let epochs_n = (seconds as usize).max(2);
    let epochs_1 = (seconds as usize / 2).max(2);

    let mut setup = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        drop(timed_trainer(&config, &mut setup));
    }

    // `nproc` threads: throughput, quality, thread utilization.
    let mut trainer = timed_trainer(&config, &mut setup);
    let report = train_by_epoch(&mut trainer, &data, &g.options(epochs_n, threads, seed));
    let examples = report.telemetry.examples;
    out.attempted += examples;
    out.failed += nonfinite_epoch_examples(&report, g.train_size);
    let ex_per_s = run_rate(&report);
    let p_at_1 = trainer.network().evaluate(&data.test, data.test.len());
    if p_at_1 < P_AT_1_FLOOR {
        out.problems.push(format!(
            "held-out P@1 {p_at_1:.4} below the floor {P_AT_1_FLOOR}"
        ));
    }
    out.detail("threads", threads);
    out.detail("epochs_nproc", epochs_n);
    out.detail("examples_nproc", examples);
    out.detail("final_loss_nproc", report.final_loss);
    out.detail(
        "epoch_rates_nproc",
        format!("{:.0?}", epoch_rates(&report, g.train_size)),
    );
    out.detail("test_examples", data.test.len());
    let p50_us = predict_p50_us(trainer.network(), &data.test, threads);
    if traced {
        // The serving layers, in process, on the model this run trained.
        let queries: Vec<&SparseVector> = data.test.iter().map(|e| &e.features).collect();
        if let Err(e) = crate::serve::report_trained_model_serving(
            &mut out,
            &trainer.network().to_snapshot_bytes(),
            &queries,
        ) {
            out.problems.push(e);
        }
    }
    drop(trainer);

    // One thread: the scaling baseline, on every core at once (see
    // `predict_p50_us` for why), averaged over the cores.
    let trainers = (0..threads)
        .map(|_| timed_trainer(&config, &mut setup))
        .collect();
    let opts_1 = g.options(epochs_1, 1, seed);
    let reports_1 = train_one_thread_per_core(trainers, &data, &opts_1);
    let mut rates_1 = 0.0;
    for r in &reports_1 {
        out.attempted += r.telemetry.examples;
        out.failed += nonfinite_epoch_examples(r, g.train_size);
        rates_1 += run_rate(r);
    }
    let ex_per_s_1t = rates_1 / reports_1.len() as f64;
    let report_1 = &reports_1[0];
    if reports_1
        .iter()
        .any(|r| r.final_loss.to_bits() != report_1.final_loss.to_bits())
    {
        out.problems
            .push("one-thread trainers on the same input ended apart".to_string());
    }
    out.detail("epochs_1t", epochs_1);
    out.detail("final_loss_1t", report_1.final_loss);
    for r in &reports_1 {
        out.detail(
            "epoch_rates_1t",
            format!("{:.0?}", epoch_rates(r, g.train_size)),
        );
    }

    if traced {
        let mut trainer = timed_trainer(&config, &mut setup);
        let t = traced_train(trainer.network_mut(), &data.train, &opts_1);
        out.attempted += t.examples;
        out.failed += t.nonfinite;
        report_training_layers(&mut out, &t, report_1, &report);
        out.detail("traced_final_loss", t.final_loss);
    }

    out.e2e("ex_per_s", "examples/s", ex_per_s);
    out.e2e("ex_per_s_1t", "examples/s", ex_per_s_1t);
    out.e2e("p_at_1", "fraction", p_at_1);
    out.e2e("p50_us", "us", p50_us);
    out.e2e("setup_s", "s", crate::stats::median(&setup));
    out.e2e("peak_rss_mb", "MiB", peak_rss_mib());
    out.detail("setup_samples", setup.len());
    out
}
