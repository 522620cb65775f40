//! The agents engine's request path against its reference.
//!
//! `pp_core::spec::run_agents` serves every `engine: "agents"` request on
//! the batched stabilization kernel
//! (`AgentSimulation::measure_stabilization_batched`). These tests pin it,
//! field for field, to the public sequential
//! `AgentSimulation::measure_stabilization` built from the per-agent input
//! list, on every protocol family the server resolves (named protocols and
//! a compiled Presburger formula, all wrapped in the Theorem 7 simulator)
//! over both sampler kinds the server caches (CSR torus, edge lists).

use std::sync::Arc;

use pp_core::spec::{run_agents, EngineSel, ProtocolRef, RunOutcome, RunSpec};
use pp_core::{seeded_rng, AgentSimulation, Ensemble, EnsembleReport, Protocol, SharedPairSampler};
use pp_protocols::GraphSimulator;
use pp_server::{resolve_named, NamedProtocol};

const N: usize = 16;
const HORIZON: u64 = 60_000;
const SEEDS: [u64; 4] = [1, 2, 3, 4];

/// The spec `run_agents` reads: seed, trials and horizon (the population
/// itself arrives as `pairs`).
fn spec(seed: u64, trials: u64) -> RunSpec {
    let mut spec = RunSpec::new(
        ProtocolRef::Name {
            name: "test".into(),
            params: vec![],
        },
        vec![],
        seed,
    );
    spec.engine = EngineSel::Agents;
    spec.trials = trials;
    spec.horizon = Some(HORIZON);
    spec
}

/// What a sequential reference run reports, in `SingleRun` terms.
#[derive(Debug, PartialEq)]
struct Fields {
    stabilized_at: Option<u64>,
    silent_tail: u64,
    steps: u64,
    effective_steps: Option<u64>,
    outputs: Vec<(String, u64)>,
}

/// The four sampler kinds × topologies the server builds, at `N` agents.
fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        (
            "torus2d",
            Topology::Csr(Arc::new(pp_graphs::torus2d_csr(4, 4).into_scheduler())),
        ),
        (
            "complete",
            Topology::Edges(Arc::new(pp_graphs::complete(N).into_scheduler())),
        ),
        (
            "line",
            Topology::Edges(Arc::new(pp_graphs::undirected_line(N).into_scheduler())),
        ),
        (
            "star",
            Topology::Edges(Arc::new(pp_graphs::star(N).into_scheduler())),
        ),
    ]
}

enum Topology {
    Csr(Arc<pp_core::CsrScheduler>),
    Edges(Arc<pp_core::EdgeListScheduler>),
}

/// Asserts `run_agents` (one trial, and a 3-trial ensemble) equals the
/// sequential reference on every topology and seed.
fn check<P>(name: &str, protocol: P, pairs: &[(P::Input, u64)], expected: bool)
where
    P: Protocol<Output = bool> + Clone + Send + Sync,
    P::Input: Clone + Sync,
{
    let wrapped = GraphSimulator::new(protocol);
    let inputs: Vec<P::Input> = pairs
        .iter()
        .flat_map(|(x, c)| std::iter::repeat_n(x.clone(), *c as usize))
        .collect();
    assert_eq!(inputs.len(), N);
    for (topo_name, topo) in topologies() {
        for seed in SEEDS {
            let ctx = format!("{name} on {topo_name}, seed {seed}");
            match &topo {
                Topology::Csr(s) => compare(&ctx, &wrapped, pairs, &inputs, expected, seed, s),
                Topology::Edges(s) => compare(&ctx, &wrapped, pairs, &inputs, expected, seed, s),
            }
        }
    }
}

fn compare<P, S>(
    ctx: &str,
    wrapped: &P,
    pairs: &[(P::Input, u64)],
    inputs: &[P::Input],
    expected: bool,
    seed: u64,
    sampler: &Arc<S>,
) where
    P: Protocol<Output = bool> + Clone + Send + Sync,
    P::Input: Sync,
    S: SharedPairSampler + Send + Sync,
{
    let reference = |rng: &mut _| {
        let mut sim = AgentSimulation::from_inputs(wrapped.clone(), inputs, (**sampler).clone());
        let rep = sim.measure_stabilization(&expected, HORIZON, rng);
        Fields {
            stabilized_at: rep.stabilized_at,
            silent_tail: rep.silent_tail(),
            steps: sim.steps(),
            effective_steps: Some(sim.effective_steps()),
            outputs: sim
                .output_histogram()
                .into_iter()
                .map(|(o, c)| (format!("{o:?}"), c))
                .collect(),
        }
    };

    let single = run_agents(&spec(seed, 1), wrapped, pairs, &expected, || {
        Arc::clone(sampler)
    })
    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let RunOutcome::Single(run) = single else {
        panic!("{ctx}: expected a single run")
    };
    assert_eq!(run.horizon, HORIZON, "{ctx}");
    let got = Fields {
        stabilized_at: run.stabilized_at,
        silent_tail: run.silent_tail,
        steps: run.steps,
        effective_steps: run.effective_steps,
        outputs: run.outputs,
    };
    assert_eq!(got, reference(&mut seeded_rng(seed)), "{ctx}: single trial");

    let ensemble = run_agents(&spec(seed, 3), wrapped, pairs, &expected, || {
        Arc::clone(sampler)
    })
    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let RunOutcome::Ensemble(report) = ensemble else {
        panic!("{ctx}: expected an ensemble")
    };
    let records =
        Ensemble::new(3, seed).map(|_, rng| reference(rng).stabilized_at.map(|t| t as f64));
    assert_eq!(
        report.to_json(),
        EnsembleReport::from_records(records).to_json(),
        "{ctx}: 3-trial ensemble"
    );
}

/// A named protocol's spec-order input runs and ground truth for
/// `population` (symbol, count) pairs, as the server resolves them.
fn named(name: &str, population: &[(usize, u64)]) {
    let protocol = resolve_named(name, &[]).expect("registry name");
    let mut counts = vec![0u64; protocol.symbols().len()];
    for &(sym, c) in population {
        counts[sym] += c;
    }
    let expected = protocol.ground_truth(&counts);
    let as_index: Vec<(usize, u64)> = population.to_vec();
    let as_bool: Vec<(bool, u64)> = population.iter().map(|&(i, c)| (i == 1, c)).collect();
    match protocol {
        NamedProtocol::Majority(p) => check(name, p, &as_index, expected),
        NamedProtocol::Parity(p) => check(name, p, &as_index, expected),
        NamedProtocol::ApproximateMajority(p) => check(name, p, &as_bool, expected),
        NamedProtocol::CountTo(p) => check(name, p, &as_bool, expected),
    }
}

#[test]
fn majority_matches_sequential_reference() {
    named("majority", &[(1, 9), (0, 7)]);
}

#[test]
fn approximate_majority_matches_sequential_reference() {
    named("approximate-majority", &[(1, 10), (0, 6)]);
}

#[test]
fn count_to_3_matches_sequential_reference() {
    let protocol = resolve_named("count-to-k", &[("k".to_string(), 3)]).expect("count-to-k");
    let NamedProtocol::CountTo(p) = protocol else {
        panic!("count-to-k resolves to CountTo")
    };
    check("count-to-3", p, &[(true, 4), (false, 12)], true);
}

#[test]
fn parity_matches_sequential_reference() {
    named("parity", &[(0, 9), (1, 7)]);
}

#[test]
fn formula_matches_sequential_reference() {
    let compiled = pp_presburger::compile_spec("x + 3*y > 40").expect("formula compiles");
    assert_eq!(compiled.symbols, ["x", "y"]);
    let pairs = [(0usize, 3u64), (1usize, 13u64)];
    let expected = compiled.protocol.eval(&[3, 13]);
    assert!(expected, "3 + 39 > 40");
    check("x + 3*y > 40", compiled.protocol.clone(), &pairs, expected);
}

/// The batched kernel's transition table is filled from the runtime's memo
/// on first lookup, never by closing the state space under δ: a
/// one-interaction run interns exactly the states the sequential engine
/// interns, under the same ids. (Closing the two input states of this
/// threshold under the Theorem 7 simulator's δ reaches 1214 states, about
/// half a second of work in a release build.)
#[test]
fn formula_horizon_one_never_closes_the_state_space() {
    let compiled = pp_presburger::compile_spec("x + 3*y > 200").expect("formula compiles");
    let wrapped = GraphSimulator::new(compiled.protocol.clone());
    let sampler = Arc::new(pp_graphs::torus2d_csr(8, 8).into_scheduler());
    let pairs = [(0usize, 30u64), (1usize, 34u64)];
    let inputs: Vec<usize> = [0usize; 30].into_iter().chain([1usize; 34]).collect();

    let mut batched =
        AgentSimulation::from_input_runs(wrapped.clone(), &pairs, Arc::clone(&sampler));
    let initial = batched.runtime().state_count();
    assert_eq!(initial, 2, "one state per input symbol");
    let b = batched
        .measure_stabilization_batched(&false, 1, &mut seeded_rng(5))
        .unwrap();

    let mut sequential = AgentSimulation::from_inputs(wrapped, &inputs, (*sampler).clone());
    let s = sequential.measure_stabilization(&false, 1, &mut seeded_rng(5));

    assert_eq!(b, s);
    assert_eq!(batched.agents(), sequential.agents());
    // One δ evaluation interns at most two new states.
    assert!(batched.runtime().state_count() <= initial + 2);
    assert_eq!(
        batched.runtime().state_count(),
        sequential.runtime().state_count()
    );
}
