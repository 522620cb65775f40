//! The count-engine dispatcher stops simulating once a stabilization run
//! goes quiescent. That exit must not move a byte: every `SingleRun` field
//! and every ensemble record has to equal what the public full-horizon
//! `measure_stabilization{,_batched}` produces from the same seed — on
//! protocols that go quiescent (approximate majority, count-to-k,
//! epidemic) and on one that never does (Lemma 5 majority, whose leader
//! swap churns forever).

use pp_core::ensemble::Ensemble;
use pp_core::spec::{run_counts, EngineSel, ProtocolRef, RunOutcome, RunSpec, SingleRun};
use pp_core::{seeded_rng, FnProtocol, Protocol, Simulation, StabilizationReport};
use pp_protocols::{majority, ApproximateMajority, CountThreshold};
use rand::rngs::StdRng;

const SEEDS: [u64; 4] = [1, 2, 3, 4];
const ENGINES: [EngineSel; 2] = [EngineSel::Sequential, EngineSel::Batched];

fn epidemic() -> impl Protocol<State = bool, Input = bool, Output = bool> + Clone {
    FnProtocol::new(
        |&b: &bool| b,
        |&q: &bool| q,
        |&p: &bool, &q: &bool| (p || q, p || q),
    )
}

fn spec(engine: EngineSel, seed: u64, horizon: u64, trials: u64) -> RunSpec {
    let name = ProtocolRef::Name { name: "under-test".to_string(), params: vec![] };
    let mut spec = RunSpec::new(name, vec![("x".to_string(), 2)], seed);
    spec.engine = engine;
    spec.horizon = Some(horizon);
    spec.trials = trials;
    spec
}

/// The public full-horizon run for one trial.
fn full_run<P: Protocol + Clone>(
    protocol: &P,
    pairs: &[(P::Input, u64)],
    expected: &P::Output,
    engine: EngineSel,
    horizon: u64,
    rng: &mut StdRng,
) -> (Simulation<P>, StabilizationReport)
where
    P::Input: Clone,
{
    let mut sim = Simulation::from_counts(protocol.clone(), pairs.iter().cloned());
    let rep = match engine {
        EngineSel::Batched => sim.measure_stabilization_batched(expected, horizon, rng),
        _ => sim.measure_stabilization(expected, horizon, rng),
    };
    (sim, rep)
}

/// Asserts, for every engine and seed, that `run_counts` reports exactly
/// the full-horizon run: the single trial field for field, the 3-trial
/// ensemble byte for byte.
fn assert_exact<P>(protocol: P, pairs: &[(P::Input, u64)], expected: P::Output, horizon: u64)
where
    P: Protocol + Clone + Send + Sync,
    P::Input: Clone + Sync,
    P::Output: Sync,
{
    for engine in ENGINES {
        for seed in SEEDS {
            let label = format!("{} seed {seed}", engine.name());
            let s = spec(engine, seed, horizon, 1);
            let RunOutcome::Single(got) = run_counts(&s, &protocol, pairs, &expected).unwrap()
            else {
                panic!("{label}: expected a single run")
            };
            let (sim, rep) =
                full_run(&protocol, pairs, &expected, engine, horizon, &mut seeded_rng(seed));
            let want = SingleRun {
                stabilized_at: rep.stabilized_at,
                silent_tail: rep.silent_tail(),
                horizon,
                steps: sim.steps(),
                effective_steps: Some(sim.effective_steps()),
                outputs: sim
                    .output_histogram()
                    .into_iter()
                    .map(|(o, c)| (format!("{o:?}"), c))
                    .collect(),
            };
            assert_eq!(got, want, "{label}");

            let s = spec(engine, seed, horizon, 3);
            let RunOutcome::Ensemble(got) = run_counts(&s, &protocol, pairs, &expected).unwrap()
            else {
                panic!("{label}: expected an ensemble")
            };
            let want = Ensemble::new(3, seed)
                .with_seed_mode(s.ensemble_seed_mode())
                .summarize(|_trial, rng| {
                    let (_, rep) = full_run(&protocol, pairs, &expected, engine, horizon, rng);
                    rep.stabilized_at.map(|t| t as f64)
                });
            assert_eq!(got.to_json(), want.to_json(), "{label} ensemble");
        }
    }
}

#[test]
fn approximate_majority_exit_is_exact() {
    assert_exact(ApproximateMajority, &[(true, 240), (false, 160)], true, 60_000);
}

#[test]
fn count_to_k_exit_is_exact() {
    // Reaching k floods the population with the alert state (quiescent);
    // one token short, the lone token keeps hopping (never quiescent).
    assert_exact(CountThreshold::new(3), &[(true, 4), (false, 96)], true, 40_000);
    assert_exact(CountThreshold::new(3), &[(true, 2), (false, 98)], false, 20_000);
}

#[test]
fn epidemic_exit_is_exact() {
    assert_exact(epidemic(), &[(true, 2), (false, 98)], true, 30_000);
}

#[test]
fn never_quiescent_majority_is_unchanged() {
    assert_exact(majority(), &[(0usize, 45), (1usize, 55)], true, 60_000);
}
