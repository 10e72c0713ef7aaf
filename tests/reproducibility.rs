//! Determinism guarantees: everything keyed by a seed reproduces exactly.

use slide::memsim::{MemoryHierarchy, PageSize};
use slide::prelude::*;

#[test]
fn dataset_generation_is_bit_identical() {
    let cfg = SyntheticConfig::tiny().with_seed(123);
    let a = generate(&cfg);
    let b = generate(&cfg);
    assert_eq!(a.train, b.train);
    assert_eq!(a.test, b.test);
}

#[test]
fn network_initialization_is_deterministic() {
    let data = generate(&SyntheticConfig::tiny().with_seed(1));
    let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(16)
        .output_lsh(LshLayerConfig::simhash(3, 8))
        .seed(99)
        .build()
        .unwrap();
    let a = SlideTrainer::new(cfg.clone()).unwrap();
    let b = SlideTrainer::new(cfg).unwrap();
    let wa = a.network().layers()[0].weights();
    let wb = b.network().layers()[0].weights();
    for j in 0..wa.rows() {
        for i in 0..wa.cols() {
            assert_eq!(wa.get(j, i), wb.get(j, i), "weight ({j},{i}) differs");
        }
    }
}

#[test]
fn single_threaded_training_reproduces_exactly() {
    let data = generate(&SyntheticConfig::tiny().with_seed(2));
    let make = || {
        let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(7)
            .build()
            .unwrap();
        SlideTrainer::new(cfg).unwrap()
    };
    let opts = TrainOptions::new(1)
        .batch_size(32)
        .threads(1)
        .no_shuffle()
        .seed(5);
    let mut a = make();
    a.train(&data.train, &opts);
    let mut b = make();
    b.train(&data.train, &opts);
    let wa = a.network().layers()[1].weights();
    let wb = b.network().layers()[1].weights();
    let mut diffs = 0;
    for j in 0..wa.rows().min(50) {
        for i in 0..wa.cols() {
            if wa.get(j, i) != wb.get(j, i) {
                diffs += 1;
            }
        }
    }
    assert_eq!(
        diffs, 0,
        "{diffs} weights differ after identical 1-thread runs"
    );
}

#[test]
fn memsim_replay_is_deterministic() {
    let mut trace = slide::memsim::AccessTrace::new();
    for i in 0..50_000u64 {
        trace.record(0, (i * 613) % (1 << 26));
    }
    trace.add_compute(100_000);
    let mut s1 = MemoryHierarchy::typical_server(PageSize::Kb4);
    let mut s2 = MemoryHierarchy::typical_server(PageSize::Kb4);
    let r1 = trace.replay(&mut s1);
    let r2 = trace.replay(&mut s2);
    assert_eq!(r1, r2);
}

#[test]
fn evaluation_is_deterministic() {
    let data = generate(&SyntheticConfig::tiny().with_seed(3));
    let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(16)
        .seed(11)
        .build()
        .unwrap();
    let trainer = DenseTrainer::new(cfg).unwrap();
    let p1 = trainer.evaluate_n(&data.test, 100);
    let p2 = trainer.evaluate_n(&data.test, 100);
    assert_eq!(p1, p2);
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden pins on the Scalar reference path: the snapshot bytes of a
/// freshly built network and of the same network after one 1-thread
/// Scalar epoch hash to fixed values. They pin the Glorot init order,
/// the on-disk neuron-major weight order and the Scalar forward/backward
/// arithmetic together, so a storage-layout change that alters any of
/// them fails here.
#[test]
fn scalar_snapshot_bytes_match_golden_hashes() {
    use slide::core::snapshot::write_network;
    use slide::kernels::KernelMode;

    const FRESH: u64 = 0x13e8_f1d1_cf93_1e56;
    const TRAINED: u64 = 0x6016_d7e3_39eb_05de;

    let data = generate(&SyntheticConfig::tiny().with_seed(4));
    let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(24)
        .output_lsh(LshLayerConfig::simhash(3, 8))
        .kernel_mode(KernelMode::Scalar)
        .seed(31)
        .build()
        .unwrap();
    let mut trainer = SlideTrainer::new(cfg).unwrap();
    let fresh = fnv1a(&write_network(trainer.network()));
    trainer.train(
        &data.train,
        &TrainOptions::new(1).batch_size(32).threads(1).seed(9),
    );
    let trained = fnv1a(&write_network(trainer.network()));
    assert_eq!(
        (fresh, trained),
        (FRESH, TRAINED),
        "snapshot hashes {fresh:#018x} / {trained:#018x} left the golden values"
    );
}
