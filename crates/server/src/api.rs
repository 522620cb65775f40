//! The unified run entry point: [`execute`]`(spec) -> `[`RunReport`].
//!
//! This is the layer the HTTP server, the `pp` CLI, and the benches all
//! route through. It resolves a [`RunSpec`]'s protocol reference (registry
//! name or Presburger formula), materializes its topology, and enters the
//! generic engine dispatchers in `pp_core::spec` — so every front end gets
//! the same semantics, the same validation, and the same byte-reproducible
//! reports.
//!
//! # The cache
//!
//! [`CompiledCache`] is the server's **only** mutable state, and it is
//! purely memoization: compiled Presburger products (Cooper QE is the
//! expensive step), mean-field drift fields, and interaction-graph
//! samplers, each behind a deterministic key. A cache hit returns an
//! artifact *interchangeable* with a cold compile's, so cached and uncached
//! responses are byte-identical — which is why the server can hold no
//! other mutable state and still honor the reproducibility guarantee.
//! Hit/miss status travels in HTTP headers, never in bodies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pp_analysis::{DriftCache, MeanFieldOptions};
use pp_core::spec::{
    check_population, counts_by_symbol, index_population, run_agents, run_counts_with,
    EngineSel, JsonValue, ProtocolRef, RunOutcome, RunReport, RunSpec, SpecError, TopologySpec,
};
use pp_core::{
    seeded_rng, CsrScheduler, EdgeListScheduler, JsonlSink, NoProbe, Probe, Protocol, Simulation,
    StateId,
};
use pp_presburger::CompiledSpec;
use pp_protocols::GraphSimulator;

use crate::registry::{self, NamedProtocol};

/// Execution limits (the request-independent server policy).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Largest population a spec may materialize (the HTTP 413 bound).
    /// A [`MeanFieldSpec`](pp_core::MeanFieldSpec) `population` override
    /// is exempt — it changes an ODE parameter, not an allocation.
    pub max_population: u64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self { max_population: 10_000_000 }
    }
}

/// Whether a request was served from the compiled-protocol cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Formula request served from cache.
    Hit,
    /// Formula request compiled cold (and cached for the next request).
    Miss,
    /// Named-protocol request — nothing to compile.
    None,
}

impl CacheStatus {
    /// The `X-PP-Cache` header value.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::None => "none",
        }
    }
}

/// Cache statistics (the `GET /v1/cache` body).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Compiled Presburger products held.
    pub compiled: usize,
    /// Mean-field drift fields held.
    pub drift: usize,
    /// Interaction-graph samplers held (edge-list + CSR).
    pub graphs: usize,
    /// Compile-cache hits since start.
    pub hits: u64,
    /// Compile-cache misses since start.
    pub misses: u64,
}

impl CacheStats {
    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"pp-cache/v1\",\"compiled\":{},\"drift\":{},\"graphs\":{},\"hits\":{},\"misses\":{}}}",
            self.compiled, self.drift, self.graphs, self.hits, self.misses
        )
    }
}

/// Keyed store of compiled artifacts reused across requests: Presburger
/// products, drift fields, interaction-graph samplers. Shared by every
/// server worker behind `Arc`; all interior mutability is memoization (see
/// the [module docs](self)).
///
/// A topology is held once, as the sampler the agents engine draws from:
/// every request and every ensemble trial on it shares that one `Arc`
/// (samplers are [`SharedPairSampler`](pp_core::SharedPairSampler)s), so
/// no request copies the edge arrays and no graph copy stays resident
/// beside the sampler.
#[derive(Debug, Default)]
pub struct CompiledCache {
    compiled: Mutex<HashMap<String, Arc<CompiledSpec>>>,
    drift: Mutex<DriftCache>,
    graphs: Mutex<HashMap<String, Arc<EdgeListScheduler>>>,
    csr: Mutex<HashMap<String, Arc<CsrScheduler>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A lock acquisition that survives a poisoned peer: cache contents are
/// always internally consistent (inserts are atomic under the lock), so a
/// panic elsewhere must not take the cache down with it.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl CompiledCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The compiled product for `src`, compiling on first use.
    ///
    /// # Errors
    ///
    /// [`SpecError::Compile`] when parsing or compilation fails.
    pub fn compiled(&self, src: &str) -> Result<(Arc<CompiledSpec>, CacheStatus), SpecError> {
        let key = pp_presburger::spec_key(pp_presburger::BACKEND_COOPER_PRODUCT, src);
        if let Some(c) = lock(&self.compiled).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(c), CacheStatus::Hit));
        }
        // Compile outside the lock: Cooper QE can be slow and must not
        // serialize unrelated requests. Two racers compile twice; the
        // artifacts are interchangeable, last insert wins.
        let compiled = Arc::new(
            pp_presburger::compile_spec(src)
                .map_err(|e| SpecError::Compile(e.to_string()))?,
        );
        lock(&self.compiled).insert(key, Arc::clone(&compiled));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((compiled, CacheStatus::Miss))
    }

    /// The sampler cached under `key` in `map`, built on first use (outside
    /// the lock; racers build interchangeable samplers, last insert wins).
    fn sampler<S>(
        map: &Mutex<HashMap<String, Arc<S>>>,
        key: &str,
        build: impl FnOnce() -> S,
    ) -> Arc<S> {
        if let Some(s) = lock(map).get(key) {
            return Arc::clone(s);
        }
        let s = Arc::new(build());
        lock(map).insert(key.to_string(), Arc::clone(&s));
        s
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            compiled: lock(&self.compiled).len(),
            drift: lock(&self.drift).len(),
            graphs: lock(&self.graphs).len() + lock(&self.csr).len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Runs a spec end to end: resolve, validate, dispatch, report.
///
/// The returned report's [`to_json`](RunReport::to_json) bytes depend only
/// on the spec (protocol, population order, seed, engine, trials, horizon
/// — never on cache state, thread count, or timing).
///
/// # Errors
///
/// A structured [`SpecError`] for every bad request; this function does
/// not panic on untrusted input.
pub fn execute(
    spec: &RunSpec,
    cache: &CompiledCache,
    opts: &ExecOptions,
) -> Result<(RunReport, CacheStatus), SpecError> {
    if spec.probe.jsonl {
        return Err(SpecError::Unsupported(
            "probe=jsonl streams; POST the spec to /v1/stream instead".to_string(),
        ));
    }
    execute_inner(spec, cache, opts, NoProbe).map(|(report, status, _)| (report, status))
}

/// Runs a single-trial count-engine spec through the same dispatcher as
/// [`execute`] with a [`JsonlSink`] as its probe, streaming interaction
/// events as JSON Lines into `out`, followed by the sink's summary line
/// and the final `pp-run/v1` report line. On the sequential engine the
/// report's `outcome` is the one [`execute`] gives for the same spec
/// without `probe`; the batched engine feeds a probe from single-run
/// batches rather than its probe-free windows, which is equal in law but
/// not draw for draw.
///
/// # Errors
///
/// Structured [`SpecError`]s; ensembles, the agents/mean-field engines,
/// and fault plans are [`SpecError::Unsupported`] here.
pub fn execute_stream<W: std::io::Write>(
    spec: &RunSpec,
    cache: &CompiledCache,
    opts: &ExecOptions,
    out: W,
) -> Result<CacheStatus, SpecError> {
    if spec.trials != 1 {
        return Err(SpecError::Unsupported(
            "streaming serves single-trial runs; drop \"trials\"".to_string(),
        ));
    }
    if !matches!(spec.engine, EngineSel::Sequential | EngineSel::Batched) {
        return Err(SpecError::Unsupported(
            "streaming runs on the count engines (sequential or batched)".to_string(),
        ));
    }
    if spec.faults.is_some() {
        return Err(SpecError::Unsupported(
            "streaming does not take a fault plan".to_string(),
        ));
    }
    let sink = JsonlSink::with_stride(out, spec.probe.stride.max(1));
    let (report, status, sink) = execute_inner(spec, cache, opts, sink)?;
    let mut w = sink.into_inner();
    writeln!(w, "{}", report.to_json())
        .map_err(|e| SpecError::Internal(format!("stream write failed: {e}")))?;
    let _ = w.flush();
    Ok(status)
}

fn execute_inner<Pr: Probe>(
    spec: &RunSpec,
    cache: &CompiledCache,
    opts: &ExecOptions,
    probe: Pr,
) -> Result<(RunReport, CacheStatus, Pr), SpecError> {
    check_population(spec, opts.max_population)?;
    match &spec.protocol {
        ProtocolRef::Name { name, params } => {
            let named = registry::resolve_named(name, params)?;
            let key = named.key();
            let symbols = named.symbols();
            let gt = |c: &[u64]| named.ground_truth(c);
            let (report, probe) = match &named {
                NamedProtocol::Majority(p) => {
                    drive(spec, cache, p.clone(), symbols, key, gt, |i| i, probe)?
                }
                NamedProtocol::Parity(p) => {
                    drive(spec, cache, p.clone(), symbols, key, gt, |i| i, probe)?
                }
                NamedProtocol::ApproximateMajority(p) => {
                    drive(spec, cache, *p, symbols, key, gt, |i| i == 1, probe)?
                }
                NamedProtocol::CountTo(p) => {
                    drive(spec, cache, *p, symbols, key, gt, |i| i == 1, probe)?
                }
            };
            Ok((report, CacheStatus::None, probe))
        }
        ProtocolRef::Formula(src) => {
            let (compiled, status) = cache.compiled(src)?;
            let (report, probe) = drive(
                spec,
                cache,
                compiled.protocol.clone(),
                compiled.symbols.clone(),
                compiled.key.clone(),
                |c| compiled.protocol.eval(c),
                |i| i,
                probe,
            )?;
            Ok((report, status, probe))
        }
    }
}

/// The generic engine router: everything after protocol resolution.
/// `probe` rides along to the count engines and is handed back; the
/// agents and mean-field engines never see it ([`execute_stream`] admits
/// only count-engine specs).
#[allow(clippy::too_many_arguments)]
fn drive<P, FI, FG, Pr>(
    spec: &RunSpec,
    cache: &CompiledCache,
    protocol: P,
    symbols: Vec<String>,
    key: String,
    ground_truth: FG,
    to_input: FI,
    probe: Pr,
) -> Result<(RunReport, Pr), SpecError>
where
    P: Protocol<Output = bool> + Clone + Send + Sync,
    P::Input: Sync,
    FI: Fn(usize) -> P::Input + Copy,
    FG: Fn(&[u64]) -> bool,
    Pr: Probe,
{
    let indexed = index_population(&spec.population, &symbols)?;
    let counts = counts_by_symbol(&indexed, symbols.len());
    let expected = ground_truth(&counts);
    // Spec order is semantic: it fixes the state-interning order and with
    // it the RNG stream, exactly like calling the engines directly.
    let pairs: Vec<(P::Input, u64)> =
        indexed.iter().map(|&(i, c)| (to_input(i), c)).collect();

    let (outcome, edges, probe) = match spec.engine {
        EngineSel::Sequential | EngineSel::Batched => {
            let (outcome, probe) = run_counts_with(spec, &protocol, &pairs, &expected, probe)?;
            (outcome, None, probe)
        }
        EngineSel::Agents => {
            let (outcome, edges) = run_on_topology(spec, cache, &protocol, &pairs, &expected)?;
            (outcome, Some(edges), probe)
        }
        EngineSel::MeanField => {
            (mean_field_outcome(spec, cache, &protocol, &pairs, &key)?, None, probe)
        }
    };

    let report = RunReport {
        protocol_key: key,
        engine: spec.engine,
        symbols,
        counts,
        population: spec.population_size(),
        ground_truth: Some(expected),
        edges,
        outcome,
        spec: spec.to_value(),
    };
    Ok((report, probe))
}

/// The agents engine: materialize the topology's sampler (cached), wrap the
/// protocol in the Theorem 7 simulator `A′`, and dispatch.
fn run_on_topology<P>(
    spec: &RunSpec,
    cache: &CompiledCache,
    protocol: &P,
    pairs: &[(P::Input, u64)],
    expected: &bool,
) -> Result<(RunOutcome, u64), SpecError>
where
    P: Protocol<Output = bool> + Clone + Send + Sync,
    P::Input: Sync,
{
    let n64 = spec.population_size();
    // The Theorem 7 baton construction assumes n ≥ 4; the paper covers
    // smaller populations by table lookup, which we don't implement.
    if n64 < 4 {
        return Err(SpecError::Unsupported(
            "the agents engine needs a population of at least 4 (Theorem 7)".to_string(),
        ));
    }
    let n = usize::try_from(n64)
        .map_err(|_| SpecError::Internal("population exceeds usize".to_string()))?;

    // Resolve the topology to its cache key, size check and builder. Each
    // graph kind gets exactly one `run_agents` call, so the per-interaction
    // sampler stays monomorphic: tori are CSR graphs whose dimensions fix
    // the population, every other kind is an edge list over any n.
    let wrapped = GraphSimulator::new(protocol.clone());
    let (w, h, d) = match spec.topology.clone().unwrap_or(TopologySpec::Complete) {
        TopologySpec::Torus2d { w, h } => (w as usize, h as usize, None),
        TopologySpec::Torus3d { w, h, d } => (w as usize, h as usize, Some(d as usize)),
        topo => {
            let key = match &topo {
                TopologySpec::Random { p, graph_seed } => {
                    format!("random:p={p}:seed={graph_seed}:n={n}")
                }
                other => format!("{}:n={n}", other.kind()),
            };
            let sampler = CompiledCache::sampler(&cache.graphs, &key, || {
                match topo {
                    TopologySpec::Complete => pp_graphs::complete(n),
                    TopologySpec::Line => pp_graphs::undirected_line(n),
                    TopologySpec::Cycle => pp_graphs::undirected_cycle(n),
                    TopologySpec::Star => pp_graphs::star(n),
                    TopologySpec::Random { p, graph_seed } => {
                        pp_graphs::erdos_renyi_connected(n, p, &mut seeded_rng(graph_seed))
                    }
                    _ => unreachable!("tori matched above"),
                }
                .into_scheduler()
            });
            let edges = sampler.edges().len() as u64;
            let outcome =
                run_agents(spec, &wrapped, pairs, expected, || Arc::clone(&sampler))?;
            return Ok((outcome, edges));
        }
    };
    let (kind, dims, cells) = match d {
        None => ("torus2d", format!("{w}x{h}"), w * h),
        Some(d) => ("torus3d", format!("{w}x{h}x{d}"), w * h * d),
    };
    if cells != n {
        return Err(SpecError::BadField {
            field: "topology".to_string(),
            detail: format!("{kind} {dims} needs population {cells}, got {n}"),
        });
    }
    let sampler = CompiledCache::sampler(&cache.csr, &format!("{kind}:{dims}"), || {
        match d {
            None => pp_graphs::torus2d_csr(w, h),
            Some(d) => pp_graphs::torus3d_csr(w, h, d),
        }
        .into_scheduler()
    });
    let edges = sampler.edge_count() as u64;
    let outcome = run_agents(spec, &wrapped, pairs, expected, || Arc::clone(&sampler))?;
    Ok((outcome, edges))
}

/// The mean-field fast path: derive (or fetch) the drift field, integrate
/// the ODE, and package the prediction as [`RunOutcome::External`].
fn mean_field_outcome<P>(
    spec: &RunSpec,
    cache: &CompiledCache,
    protocol: &P,
    pairs: &[(P::Input, u64)],
    key: &str,
) -> Result<RunOutcome, SpecError>
where
    P: Protocol + Clone,
{
    if spec.trials != 1 {
        return Err(SpecError::Unsupported(
            "mean-field is deterministic; trials must be 1".to_string(),
        ));
    }
    if spec.faults.is_some() {
        return Err(SpecError::Unsupported(
            "mean-field takes no fault plan".to_string(),
        ));
    }
    let mf = spec.mean_field.clone().unwrap_or_default();
    let mut sim = Simulation::from_counts(protocol.clone(), pairs.iter().cloned());
    let n = sim.population();
    let support: Vec<StateId> = sim.config().support().map(|(s, _)| s).collect();
    // The field depends on the δ-closure of the supported states, so the
    // cache key is protocol identity + the support's state ids.
    let support_ids: Vec<u32> = support.iter().map(|s| s.0).collect();
    let drift_key = format!("{key}|support:{support_ids:?}");
    let field = lock(&cache.drift).get_or_derive(&drift_key, sim.runtime_mut(), &support);
    let init: Vec<f64> =
        sim.config().as_slice().iter().map(|&c| c as f64 / n as f64).collect();
    let population = mf.population.unwrap_or(n);
    let model = pp_analysis::MeanField::new(field, init, population);
    let run = model.run(&MeanFieldOptions {
        horizon: mf.horizon,
        diffusion: mf.diffusion,
        ..MeanFieldOptions::default()
    });

    let (accepted, rejected) = run.step_counts();
    let body = vec![
        ("population".to_string(), JsonValue::Num(population as f64)),
        (
            "terminal_fractions".to_string(),
            JsonValue::Arr(
                run.terminal_fractions().iter().map(|&f| JsonValue::Num(f)).collect(),
            ),
        ),
        ("terminal_time".to_string(), JsonValue::Num(run.terminal_time())),
        (
            "quiescent_at".to_string(),
            run.quiescent_at().map_or(JsonValue::Null, JsonValue::Num),
        ),
        (
            "predicted_stabilization_interactions".to_string(),
            run.predicted_stabilization_interactions(mf.eps)
                .map_or(JsonValue::Null, |k| JsonValue::Num(k as f64)),
        ),
        ("eps".to_string(), JsonValue::Num(mf.eps)),
        (
            "divergences".to_string(),
            JsonValue::Arr(
                run.divergences().iter().map(|d| JsonValue::Str(format!("{d:?}"))).collect(),
            ),
        ),
        ("accepted_steps".to_string(), JsonValue::Num(accepted as f64)),
        ("rejected_steps".to_string(), JsonValue::Num(rejected as f64)),
    ];
    Ok(RunOutcome::External {
        kind: "mean-field".to_string(),
        body: JsonValue::Obj(body),
    })
}
