//! Refactor-preservation guarantees for the selector-based engine:
//!
//! 1. the dense [`NeuronSelector`] is *exactly* full softmax — bit-identical
//!    logits to an independent dense matrix-vector reference;
//! 2. pooled/reused workspaces are behavior-neutral — a pooled run and a
//!    fresh-workspace run produce the same `TrainReport` and weights under
//!    a fixed seed and one thread;
//! 3. the [`ShardedSelector`] is a pure partitioning of the [`LshSelector`]
//!    — bit-identical active sets for any shard count (including boundaries
//!    that split a hash bucket), and a full training epoch through sharded
//!    selection leaves a byte-identical snapshot.

use slide::kernels::{relu_in_place, softmax_in_place, KernelMode};
use slide::prelude::*;

fn tiny_data(seed: u64) -> slide::data::synth::SyntheticData {
    generate(&SyntheticConfig::tiny().with_seed(seed))
}

/// Independent full-softmax forward pass: plain dense matrix-vector
/// products over the network's weights, mirroring the engine's scalar
/// accumulation order so equality is exact, not approximate. Returns
/// every layer's activations, input to output.
fn reference_layer_activations(
    net: &slide::core::network::Network,
    features: &SparseVector,
) -> Vec<Vec<f32>> {
    let mut input_ids: Vec<u32> = features.indices().to_vec();
    let mut input_vals: Vec<f32> = features.values().to_vec();
    let mut layers = Vec::new();
    for (l, layer) in net.layers().iter().enumerate() {
        let mut acts: Vec<f32> = (0..layer.units())
            .map(|j| {
                let mut z = layer.biases().get(j);
                for (&id, &v) in input_ids.iter().zip(&input_vals) {
                    z += layer.weights().get(j, id as usize) * v;
                }
                z
            })
            .collect();
        if l + 1 == net.layers().len() {
            softmax_in_place(&mut acts, KernelMode::Scalar);
        } else {
            relu_in_place(&mut acts, KernelMode::Scalar);
            input_ids = (0..layer.units() as u32).collect();
            input_vals = acts.clone();
        }
        layers.push(acts);
    }
    layers
}

/// The output layer of [`reference_layer_activations`].
fn reference_full_softmax_logits(
    net: &slide::core::network::Network,
    features: &SparseVector,
) -> Vec<f32> {
    reference_layer_activations(net, features)
        .pop()
        .expect("at least one layer")
}

#[test]
fn dense_selector_is_bit_identical_to_full_softmax() {
    let data = tiny_data(42);
    let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(24)
        .kernel_mode(KernelMode::Scalar)
        .seed(7)
        .build()
        .unwrap();
    let mut trainer = DenseTrainer::new(cfg).unwrap();
    // Compare on the random init AND after training (weights far from
    // init), so the equivalence is not an artifact of symmetric weights.
    for round in 0..2 {
        let net = trainer.network();
        let mut ws = net.workspace(1);
        for (i, ex) in data.test.iter().take(25).enumerate() {
            let engine = net.predict_logits(&mut ws, &ex.features);
            let reference = reference_full_softmax_logits(net, &ex.features);
            assert_eq!(engine.len(), reference.len());
            for (j, (a, b)) in engine.iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round {round}, example {i}, class {j}: engine {a} != reference {b}"
                );
            }
        }
        if round == 0 {
            trainer.train(
                &data.train,
                &TrainOptions::new(1).batch_size(32).threads(1).seed(3),
            );
        }
    }
}

/// The input-major hidden layer accumulates each neuron in feature order
/// with separate multiply and add in both kernel modes, so even
/// `Vectorized` layer-0 activations equal the sequential reference
/// exactly — before and after training.
#[test]
fn vectorized_hidden_activations_match_the_reference_exactly() {
    let data = tiny_data(43);
    let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(24)
        .output_lsh(LshLayerConfig::simhash(3, 8))
        .kernel_mode(KernelMode::Vectorized)
        .seed(8)
        .build()
        .unwrap();
    let mut trainer = SlideTrainer::new(cfg).unwrap();
    assert!(trainer.network().layers()[0].is_input_major());
    for round in 0..2 {
        let net = trainer.network();
        let mut ws = net.workspace(1);
        for (i, ex) in data.test.iter().take(25).enumerate() {
            net.forward(&DenseSelector, &mut ws, &ex.features, None);
            let reference = &reference_layer_activations(net, &ex.features)[0];
            assert_eq!(ws.activations(0).len(), reference.len());
            for (j, (a, b)) in ws.activations(0).iter().zip(reference).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round {round}, example {i}, hidden {j}: engine {a} != reference {b}"
                );
            }
        }
        if round == 0 {
            trainer.train(
                &data.train,
                &TrainOptions::new(1).batch_size(32).threads(2).seed(3),
            );
        }
    }
}

/// Strips the wall-clock fields (which legitimately differ between runs)
/// from a report, keeping everything deterministic.
fn deterministic_view(r: &TrainReport) -> (u64, u64, Vec<(u64, u64, u64)>) {
    (
        r.iterations,
        r.final_loss.to_bits(),
        r.history
            .iter()
            .map(|c| (c.iteration, c.p_at_1.to_bits(), c.train_loss.to_bits()))
            .collect(),
    )
}

#[test]
fn pooled_workspaces_match_fresh_workspaces() {
    let data = tiny_data(11);
    let cfg = || {
        NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .learning_rate(2e-3)
            .seed(13)
            .build()
            .unwrap()
    };
    let opts = TrainOptions::new(2)
        .batch_size(32)
        .threads(1)
        .seed(5)
        .eval_every(4)
        .eval_examples(60);

    let mut pooled = DenseTrainer::new(cfg()).unwrap();
    let rp = pooled.train_with_eval(&data.train, &data.test, &opts.clone());

    let mut fresh = DenseTrainer::new(cfg()).unwrap();
    let rf = fresh.train_with_eval(&data.train, &data.test, &opts.workspace_pooling(false));

    assert_eq!(
        deterministic_view(&rp),
        deterministic_view(&rf),
        "pooled and fresh workspaces diverged"
    );

    // Stronger: the learned parameters are bit-identical.
    for (l, (a, b)) in pooled
        .network()
        .layers()
        .iter()
        .zip(fresh.network().layers())
        .enumerate()
    {
        for j in 0..a.units() {
            for i in 0..a.fan_in() {
                assert_eq!(
                    a.weights().get(j, i).to_bits(),
                    b.weights().get(j, i).to_bits(),
                    "layer {l} weight ({j},{i}) differs"
                );
            }
            assert_eq!(
                a.biases().get(j).to_bits(),
                b.biases().get(j).to_bits(),
                "layer {l} bias {j} differs"
            );
        }
    }
}

#[test]
fn pooled_lsh_training_is_reproducible() {
    // The LSH selector consumes workspace RNG, so pooling changes which
    // stream each example draws from vs fresh workspaces — but two pooled
    // runs with the same seed must agree exactly.
    let data = tiny_data(17);
    let make = || {
        let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(19)
            .build()
            .unwrap();
        SlideTrainer::new(cfg).unwrap()
    };
    let opts = TrainOptions::new(1).batch_size(32).threads(1).seed(23);
    let mut a = make();
    let ra = a.train(&data.train, &opts);
    let mut b = make();
    let rb = b.train(&data.train, &opts);
    assert_eq!(deterministic_view(&ra), deterministic_view(&rb));
    let wa = a.network().layers()[1].weights();
    let wb = b.network().layers()[1].weights();
    for j in 0..wa.rows() {
        for i in 0..wa.cols() {
            assert_eq!(
                wa.get(j, i).to_bits(),
                wb.get(j, i).to_bits(),
                "weight ({j},{i}) differs between identical pooled runs"
            );
        }
    }
}

/// Builds a network whose output layer is wide relative to its hash code
/// space, so LSH buckets are crowded and any contiguous shard boundary
/// is near-certain to cut through one (asserted below, not assumed).
fn bucket_spanning_network(units: usize) -> slide::core::network::Network {
    // K=2 → 4 buckets per table over `units` neurons, capacity == units →
    // nothing is ever evicted and the average bucket holds units/4 ids.
    let config = NetworkConfig::builder(64, units)
        .hidden(16)
        .seed(31)
        .output_lsh(LshLayerConfig::simhash(2, 8).with_tables(6, units))
        .build()
        .unwrap();
    slide::core::network::Network::new(config).unwrap()
}

/// True iff some hash bucket of the output layer holds neuron ids on both
/// sides of the contiguous boundary `split` — i.e. the shard cut passes
/// through the middle of a bucket rather than between buckets.
fn some_bucket_spans(net: &slide::core::network::Network, split: usize) -> bool {
    let lsh = net.layers()[1].lsh().expect("output layer is LSH");
    lsh.tables().tables().iter().any(|t| {
        t.buckets().iter().any(|b| {
            b.items().iter().any(|&id| (id as usize) < split)
                && b.items().iter().any(|&id| (id as usize) >= split)
        })
    })
}

#[test]
fn sharded_selection_is_bit_identical_across_shard_counts() {
    use slide::data::rng::{Rng, Xoshiro256PlusPlus};

    let units = 42;
    let net = bucket_spanning_network(units);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5EED);
    for n in [1usize, 2, 7] {
        // The guarantee must not hinge on shard cuts landing between
        // buckets: for every multi-shard count, pin that at least one
        // interior boundary splits a bucket's members across two shards.
        if n > 1 {
            let split_bucket = (1..n).any(|s| some_bucket_spans(&net, s * units / n));
            assert!(
                split_bucket,
                "test precondition lost at {n} shards: no hash bucket \
                 straddles a shard boundary (change the seed)"
            );
        }
        let sharded = ShardedSelector::new(n);
        let mut ws_ref = net.workspace(9);
        let mut ws_shard = net.workspace(9);
        for round in 0..12 {
            let x = SparseVector::from_pairs(
                (0..8).map(|_| (rng.gen_range(0, 64) as u32, rng.next_f32() + 0.1)),
            );
            net.forward(&LshSelector, &mut ws_ref, &x, None);
            net.forward(&sharded, &mut ws_shard, &x, None);
            assert_eq!(
                ws_ref.active_set(1).ids(),
                ws_shard.active_set(1).ids(),
                "active sets diverged at {n} shards, round {round}"
            );
        }
    }
}

#[test]
fn sharded_training_epoch_leaves_a_byte_identical_snapshot() {
    // The strongest equivalence statement available: run a whole epoch of
    // SGD — forwards, backwards, updates, and LSH table rebuilds — once
    // through the monolithic selector and once through the sharded one,
    // then compare the *serialized networks byte for byte*. Any divergence
    // anywhere (weights, biases, table state reachable through retrieval)
    // shows up as a snapshot diff.
    let data = tiny_data(29);
    let cfg = || {
        NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .learning_rate(2e-3)
            .seed(37)
            .build()
            .unwrap()
    };
    let opts = TrainOptions::new(1).batch_size(32).threads(1).seed(43);

    let mut mono = SlideTrainer::new(cfg()).unwrap();
    let rm = mono.train(&data.train, &opts);

    for n in [2usize, 7] {
        let mut sharded = Trainer::with_selector(cfg(), ShardedSelector::new(n)).unwrap();
        let rs = sharded.train(&data.train, &opts);
        assert_eq!(
            deterministic_view(&rm),
            deterministic_view(&rs),
            "training reports diverged at {n} shards"
        );
        assert_eq!(
            mono.network().to_snapshot_bytes(),
            sharded.network().to_snapshot_bytes(),
            "snapshot bytes diverged after a sharded epoch at {n} shards"
        );
    }
}
