//! Correctness properties of the batched / epoch-sharded agent engine
//! (`pp_core::agent_batch`):
//!
//! * `run_batched` is **byte-identical** to the sequential `step` loop on
//!   every built-in sampler — same RNG stream, same final per-agent states,
//!   same counters (a stronger claim than the count engine's distributional
//!   equivalence, because agent-engine batching reorders nothing);
//! * `run_epochs` is byte-identical to `run_batched` at *any* thread count;
//! * under crashes, the masked `CsrScheduler` path agrees in distribution
//!   (total-variation distance) with rejection sampling on the same graph,
//!   mirroring `batch_properties.rs`;
//! * starvation surfaces as `PopulationError::StarvedSchedule` without
//!   consuming randomness.

use std::collections::HashMap;

use pp_core::scheduler::{
    BatchPairSampler, CsrScheduler, EdgeListScheduler, UniformPairScheduler,
};
use pp_core::{
    seeded_rng, AgentSimulation, FnProtocol, PopulationError, Protocol,
};
use proptest::prelude::*;
use rand::RngCore;

/// Three-state approximate majority: transitions in every direction, so the
/// dense δ-table sees a rich rule set.
fn approx_majority() -> impl Protocol<State = u8, Input = u8, Output = u8> {
    FnProtocol::new(
        |&x: &u8| x,
        |&q: &u8| q,
        |&p: &u8, &q: &u8| match (p, q) {
            (0, 1) => (0, 2),
            (1, 0) => (1, 2),
            (0, 2) => (0, 0),
            (1, 2) => (1, 1),
            _ => (p, q),
        },
    )
}

fn majority_inputs(n: usize) -> Vec<u8> {
    (0..n).map(|i| u8::from(i % 3 == 0)).collect()
}

/// Both directions around a ring of `n` agents.
fn ring_edges(n: u32) -> Vec<(u32, u32)> {
    (0..n).flat_map(|i| [(i, (i + 1) % n), ((i + 1) % n, i)]).collect()
}

/// Asserts that a batched run over `sampler` matches the sequential loop
/// byte for byte: same states, same counters, same RNG position.
fn assert_batched_matches_sequential<S: BatchPairSampler + Clone>(
    n: usize,
    sampler: S,
    steps: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let inputs = majority_inputs(n);
    let mut seq = AgentSimulation::from_inputs(approx_majority(), &inputs, sampler.clone());
    let mut bat = AgentSimulation::from_inputs(approx_majority(), &inputs, sampler);
    let mut rng_a = seeded_rng(seed);
    let mut rng_b = seeded_rng(seed);
    for _ in 0..steps {
        seq.step(&mut rng_a);
    }
    bat.run_batched(steps, &mut rng_b).expect("no crashes, cannot starve");
    prop_assert_eq!(seq.agents(), bat.agents());
    prop_assert_eq!(seq.steps(), bat.steps());
    prop_assert_eq!(seq.effective_steps(), bat.effective_steps());
    prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_batched_matches_sequential_on_uniform(
        seed in 0u64..1_000,
        n in 3usize..40,
        steps in 1u64..3_000,
    ) {
        assert_batched_matches_sequential(n, UniformPairScheduler::new(n), steps, seed)?;
    }

    #[test]
    fn prop_batched_matches_sequential_on_edge_list(
        seed in 0u64..1_000,
        n in 3u32..40,
        steps in 1u64..3_000,
    ) {
        let sampler = EdgeListScheduler::new(n as usize, ring_edges(n));
        assert_batched_matches_sequential(n as usize, sampler, steps, seed)?;
    }

    #[test]
    fn prop_batched_matches_sequential_on_csr(
        seed in 0u64..1_000,
        n in 3u32..40,
        steps in 1u64..3_000,
    ) {
        let sampler = CsrScheduler::new(n as usize, &ring_edges(n));
        assert_batched_matches_sequential(n as usize, sampler, steps, seed)?;
    }

    #[test]
    fn prop_epoch_sharded_is_thread_count_invariant(
        seed in 0u64..1_000,
        n in 4u32..48,
        steps in 1u64..6_000,
        threads in 1usize..9,
    ) {
        let inputs = majority_inputs(n as usize);
        let mut base = AgentSimulation::from_inputs(
            approx_majority(),
            &inputs,
            CsrScheduler::new(n as usize, &ring_edges(n)),
        );
        let mut rng = seeded_rng(seed);
        base.run_batched(steps, &mut rng).unwrap();
        let base_word = rng.next_u64();

        let mut sharded = AgentSimulation::from_inputs(
            approx_majority(),
            &inputs,
            CsrScheduler::new(n as usize, &ring_edges(n)),
        );
        let mut rng = seeded_rng(seed);
        sharded.run_epochs(steps, threads, &mut rng).unwrap();
        prop_assert_eq!(base.agents(), sharded.agents(), "threads={}", threads);
        prop_assert_eq!(base.steps(), sharded.steps());
        prop_assert_eq!(base.effective_steps(), sharded.effective_steps());
        prop_assert_eq!(base_word, rng.next_u64(), "RNG streams diverged");
    }

    #[test]
    fn prop_starved_schedule_errors_without_consuming_randomness(
        seed in 0u64..1_000,
        pad in 2u32..8,
    ) {
        // Two components joined by nothing: crash one side's endpoints and
        // only edgeless agents remain live.
        let n = 4 + pad;
        let edges = [(0u32, 1u32), (1, 0), (2, 3), (3, 2)];
        let inputs = majority_inputs(n as usize);
        let mut sim = AgentSimulation::from_inputs(
            approx_majority(),
            &inputs,
            EdgeListScheduler::new(n as usize, edges.to_vec()),
        );
        for a in 0..4u32 {
            sim.crash_agent(a);
        }
        let mut rng = seeded_rng(seed);
        let mut witness = rng.clone();
        let live = u64::from(n) - 4;
        prop_assert_eq!(
            sim.run_batched(64, &mut rng),
            Err(PopulationError::StarvedSchedule { live })
        );
        prop_assert_eq!(
            sim.try_step_transitions(&mut rng),
            Err(PopulationError::StarvedSchedule { live })
        );
        prop_assert_eq!(witness.next_u64(), rng.next_u64());
    }
}

/// Runs `trials` copies of `k` interactions with 2 crashed agents and
/// histograms the final per-agent state vectors.
fn crashed_run_histogram<S: BatchPairSampler + Clone>(
    sampler: S,
    n: usize,
    k: u64,
    trials: u64,
    seed_base: u64,
) -> HashMap<Vec<u32>, u64> {
    let mut hist: HashMap<Vec<u32>, u64> = HashMap::new();
    for t in 0..trials {
        let mut sim = AgentSimulation::from_inputs(
            approx_majority(),
            &majority_inputs(n),
            sampler.clone(),
        );
        sim.crash_agent(1);
        sim.crash_agent(4);
        let mut rng = seeded_rng(seed_base + t);
        sim.run_batched(k, &mut rng).expect("live edges remain");
        let key: Vec<u32> = sim.agents().iter().map(|s| s.0).collect();
        *hist.entry(key).or_insert(0) += 1;
    }
    hist
}

/// Total-variation distance between two empirical distributions.
fn tv_distance(a: &HashMap<Vec<u32>, u64>, b: &HashMap<Vec<u32>, u64>, trials: u64) -> f64 {
    let mut keys: Vec<&Vec<u32>> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    let m = trials as f64;
    keys.iter()
        .map(|k| {
            let pa = a.get(*k).copied().unwrap_or(0) as f64 / m;
            let pb = b.get(*k).copied().unwrap_or(0) as f64 / m;
            (pa - pb).abs()
        })
        .sum::<f64>()
        / 2.0
}

/// Under crashes the masked CSR sampler redraws nothing (its live-edge view
/// pre-conditions every draw) while the edge-list sampler rejects; the two
/// must still agree in distribution over trajectories — per live step, both
/// are uniform over live edges.
#[test]
fn masked_csr_matches_rejection_sampling_in_distribution() {
    let n = 8usize;
    let edges = ring_edges(n as u32);
    let (k, trials) = (6u64, 6_000u64);
    let masked =
        crashed_run_histogram(CsrScheduler::new(n, &edges), n, k, trials, 3_000_000);
    let rejection = crashed_run_histogram(
        EdgeListScheduler::new(n, edges.clone()),
        n,
        k,
        trials,
        11_000_000,
    );
    let tv = tv_distance(&masked, &rejection, trials);
    // Empirical-vs-empirical TV noise at 6000 trials over this support is
    // ≈ 0.05; a masking bug (wrong live-edge set or weighting) shifts whole
    // trajectory probabilities by far more.
    assert!(tv < 0.10, "TV distance {tv:.4} between masked and rejection");
}

/// The masked sampler must also agree with rejection *step for step* on the
/// number of live draws: crashing and un-starving around a cut vertex.
#[test]
fn mask_live_tracks_crash_sequence() {
    let n = 6usize;
    let edges = ring_edges(n as u32);
    let mut sim = AgentSimulation::from_inputs(
        approx_majority(),
        &majority_inputs(n),
        CsrScheduler::new(n, &edges),
    );
    let mut rng = seeded_rng(5);
    sim.run_batched(100, &mut rng).unwrap();
    assert!(sim.crash_agent(0));
    assert!(sim.crash_agent(2));
    sim.run_batched(100, &mut rng).unwrap();
    // Every interaction after the crashes joined two live agents.
    for a in [0u32, 2] {
        assert!(sim.is_crashed(a));
    }
    assert_eq!(sim.steps(), 200);
    // Crash until only a disconnected pair survives: 1 is walled off by the
    // crashed 0 and 2, so live edges vanish even with 3 agents live.
    assert!(sim.crash_agent(4));
    assert_eq!(
        sim.run_batched(1, &mut rng),
        Err(PopulationError::StarvedSchedule { live: 3 })
    );
}
