//! The traced training loop must compute exactly what `Trainer::train`
//! computes at one thread: same weights, same tables, same loss bits.
//! This is what makes the per-layer numbers describe the production
//! computation rather than a copy of it.

use perfbench::train::{traced_train, Geometry};
use slide_core::{SlideTrainer, TrainOptions};

/// The workload's shape, shrunk so a debug build runs it in seconds:
/// eight batches per epoch, so the tables rebuild every eight.
const SMALL: Geometry = Geometry {
    features: 1_000,
    labels: 2_000,
    hidden: 32,
    train_size: 512,
    test_size: 1,
    k: 6,
    l: 12,
    budget: 100,
    batch_size: 64,
};

fn assert_identical(g: Geometry, options: &TrainOptions) {
    let data = g.data(7);
    let mut trainer = SlideTrainer::new(g.config(None)).expect("valid network");
    let report = trainer.train(&data.train, options);

    let mut traced = SlideTrainer::new(g.config(None)).expect("valid network");
    let run = traced_train(traced.network_mut(), &data.train, options);

    assert_eq!(run.iterations, report.iterations);
    assert_eq!(run.examples, report.telemetry.examples);
    assert_eq!(run.final_loss.to_bits(), report.final_loss.to_bits());
    assert_eq!(run.nonfinite, 0);
    assert!(
        traced.network().to_snapshot_bytes() == trainer.network().to_snapshot_bytes(),
        "traced loop left different weights or tables than Trainer::train"
    );
}

#[test]
fn traced_loop_matches_trainer_on_an_unshuffled_prefix() {
    let options = SMALL.options(3, 1, 5).no_shuffle().max_iterations(12);
    assert_identical(SMALL, &options);
}

#[test]
fn traced_loop_matches_trainer_with_shuffling_and_rebuilds() {
    assert_identical(SMALL, &SMALL.options(2, 1, 5));
}

#[test]
fn traced_loop_matches_trainer_at_the_workload_geometry() {
    let options = Geometry::MEDIUM
        .options(1, 1, 5)
        .no_shuffle()
        .max_iterations(2);
    assert_identical(Geometry::MEDIUM, &options);
}

#[test]
fn traced_phases_cover_the_loop() {
    let data = SMALL.data(3);
    let mut trainer = SlideTrainer::new(SMALL.config(None)).expect("valid network");
    let run = traced_train(trainer.network_mut(), &data.train, &SMALL.options(2, 1, 9));
    assert_eq!(run.rebuilds, 2);
    assert!(run.phases.total() <= run.seconds);
    assert!(run.label_hits <= run.examples);
    assert!(run.active_out >= run.examples);
}
