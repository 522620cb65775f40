//! Batched and epoch-sharded execution for the agent engine.
//!
//! The sequential [`AgentSimulation::step`] loop interleaves one scheduler
//! draw with one transition apply, which serializes a cache miss per
//! interaction once the population spills out of cache. This module breaks
//! that dependence in two stages:
//!
//! * **Batched sampling** ([`run_batched`](AgentSimulation::run_batched),
//!   [`measure_stabilization_batched`](AgentSimulation::measure_stabilization_batched)):
//!   draw `K` edges at once through [`BatchPairSampler`] (monomorphized RNG,
//!   independent random reads that overlap in the memory pipeline), then
//!   apply them in draw order, looking transitions up in a dense `δ`-table
//!   instead of the runtime's hash memo. The RNG stream and the applied
//!   interaction sequence are **byte-identical** to the sequential loop.
//! * **Epoch sharding** ([`run_epochs`](AgentSimulation::run_epochs)): shard
//!   one trajectory across threads in conflict-free epochs. Each epoch's
//!   `K` sampled edges are classified in draw order — an edge is
//!   *independent* iff no earlier edge of the same epoch touches either
//!   endpoint — and worker threads read the transition of every edge from
//!   the pre-epoch states into disjoint result chunks. The main thread
//!   then merges in draw order: independent edges take their precomputed
//!   result (valid because their endpoints are untouched when they apply),
//!   conflicted edges and table misses are recomputed from the current
//!   states. Sampling, classification, and merging all happen on the main
//!   thread with a single RNG, so the trajectory is byte-identical at
//!   **any** thread count — parallelism changes wall-clock only, never
//!   results.
//!
//! # The `δ`-table
//!
//! The table (`DeltaTable`) is filled lazily: a pair's entry is written
//! from the runtime's memo ([`DenseRuntime::transition`]) the first time the
//! pair is looked up, so a run only ever evaluates `δ` on pairs it actually
//! meets, in the order it meets them — states are interned in the same
//! order, under the same ids, as on the sequential engine. (Closing the
//! state space under `δ` up front instead costs `k²` evaluations before the
//! first interaction: for a Presburger threshold under the Theorem 7
//! simulator that is hundreds of milliseconds for a one-interaction run.)
//! The table covers state ids below `DELTA_TABLE_CAP` (1024); pairs beyond
//! it go to the memo on every lookup.
//!
//! All paths surface starvation (no live pair can ever be sampled again) as
//! [`PopulationError::StarvedSchedule`] instead of spinning or panicking.

use rand::RngCore;

use crate::engine::{
    consensus_reached, AgentSimulation, StabilizationReport, MAX_PAIR_RESAMPLES,
};
use crate::error::PopulationError;
use crate::observe::Probe;
use crate::protocol::Protocol;
use crate::registry::{DenseRuntime, StateId};
use crate::scheduler::BatchPairSampler;
use crate::trace::{SpanKind, Tracer};

/// Edges sampled per batch/epoch. Large enough to amortize the buffer walk
/// and expose memory-level parallelism; small enough that an epoch's stamp
/// working set stays cache-resident and conflicts stay rare on sparse
/// graphs.
pub const EPOCH_EDGES: usize = 4096;

/// Upper bound on the side of the dense `δ`-table (`k × k` entries of 8
/// bytes: 8 MiB at the cap). Pairs involving a state id at or above the cap
/// are looked up in the runtime's memo instead.
const DELTA_TABLE_CAP: usize = 1024;

/// Marks a table entry whose pair has not been looked up yet. No interned
/// state has this id: interning stops far below `u32::MAX`.
const UNFILLED: (StateId, StateId) = (StateId(u32::MAX), StateId(u32::MAX));

/// The transition function as a dense table over state ids, filled from the
/// runtime's memo on first lookup (see the [module docs](self)). Worker
/// threads read it through a shared reference ([`get`](Self::get)); only
/// the main thread fills it.
#[derive(Debug, Clone, Default)]
struct DeltaTable {
    /// Side of the table, a power of two (0 before the first fill).
    stride: usize,
    /// `log2(stride)`.
    shift: u32,
    /// `stride × stride` entries, row-major by initiator.
    next: Vec<(StateId, StateId)>,
}

impl DeltaTable {
    /// `δ(p, q)` if the table holds it.
    #[inline]
    fn get(&self, p: StateId, q: StateId) -> Option<(StateId, StateId)> {
        let (i, j) = (p.index(), q.index());
        if i >= self.stride || j >= self.stride {
            return None;
        }
        let r = self.next[(i << self.shift) | j];
        (r != UNFILLED).then_some(r)
    }

    /// `δ(p, q)`, filling the table on a miss.
    #[inline]
    fn lookup<P: Protocol>(
        &mut self,
        rt: &mut DenseRuntime<P>,
        p: StateId,
        q: StateId,
    ) -> (StateId, StateId) {
        match self.get(p, q) {
            Some(r) => r,
            None => self.fill(rt, p, q),
        }
    }

    /// The miss path: `δ(p, q)` from the memo (evaluated and interned on
    /// the pair's first use anywhere), recorded when both ids fit.
    #[cold]
    #[inline(never)]
    fn fill<P: Protocol>(
        &mut self,
        rt: &mut DenseRuntime<P>,
        p: StateId,
        q: StateId,
    ) -> (StateId, StateId) {
        let r = rt.transition(p, q);
        self.cover(rt.state_count());
        let (i, j) = (p.index(), q.index());
        if i < self.stride && j < self.stride {
            self.next[(i << self.shift) | j] = r;
        }
        r
    }

    /// Grows the table to cover `k` states (up to the cap), keeping every
    /// filled entry. Growth doubles, so a run re-lays the table at most
    /// `log2` of the cap times.
    fn cover(&mut self, k: usize) {
        if k <= self.stride || self.stride == DELTA_TABLE_CAP {
            return;
        }
        let stride = k.next_power_of_two().clamp(16, DELTA_TABLE_CAP);
        let mut next = vec![UNFILLED; stride * stride];
        if self.stride > 0 {
            for (i, row) in self.next.chunks_exact(self.stride).enumerate() {
                next[i * stride..i * stride + self.stride].copy_from_slice(row);
            }
        }
        self.stride = stride;
        self.shift = stride.trailing_zeros();
        self.next = next;
    }
}

/// Reusable scratch buffers for batched and epoch-sharded execution, owned
/// by every [`AgentSimulation`] (empty until the first batched call, so the
/// sequential engine pays nothing for it).
#[derive(Debug, Clone, Default)]
pub struct AgentBatchScratch {
    /// Sampled edges of the current batch, in draw order.
    edges: Vec<(u32, u32)>,
    /// Per-edge precomputed transition results (epoch sharding only).
    results: Vec<(StateId, StateId)>,
    /// Per-agent epoch stamp for conflict classification.
    stamp: Vec<u32>,
    /// Current epoch number (stamp values equal to this are "touched").
    epoch: u32,
    /// Per-edge independence verdicts, in draw order.
    independent: Vec<bool>,
    /// Lazily filled dense transition table.
    delta: DeltaTable,
}

/// Per-state wrong-output flags (`1` where the state's output differs from
/// the expected one), extended as the run interns states.
fn sync_wrong_flags<P: Protocol>(
    flags: &mut Vec<u64>,
    rt: &DenseRuntime<P>,
    expected: &P::Output,
) {
    while flags.len() < rt.state_count() {
        let s = StateId(flags.len() as u32);
        flags.push(u64::from(rt.output_value(rt.output_of(s)) != expected));
    }
}

impl<P: Protocol, S: BatchPairSampler, Pr: Probe, Tr: Tracer> AgentSimulation<P, S, Pr, Tr> {
    /// Fills the scratch edge buffer with `k` edges joining live agents.
    ///
    /// With no crashed agents this is exactly the sampler's batched draw
    /// (stream-identical to `k` sequential draws). Masked samplers (see
    /// [`crate::scheduler::PairSampler::mask_live`]) never emit a crashed
    /// endpoint, so the fix-up scan finds nothing; for rejection samplers,
    /// offending slots are redrawn in place with the usual capped budget.
    fn fill_live_batch(
        &mut self,
        k: usize,
        rng: &mut impl RngCore,
    ) -> Result<(), PopulationError> {
        let starved_err =
            |live: usize| PopulationError::StarvedSchedule { live: live as u64 };
        if self.starved || self.agents.live() < 2 {
            return Err(starved_err(self.agents.live()));
        }
        let mut edges = std::mem::take(&mut self.batch.edges);
        self.sampler.sample_batch(rng, k, &mut edges);
        if self.agents.live() < self.agents.population() {
            'slots: for slot in edges.iter_mut() {
                if !self.agents.is_crashed(slot.0) && !self.agents.is_crashed(slot.1) {
                    continue;
                }
                for _ in 0..MAX_PAIR_RESAMPLES {
                    let (u, v) = self.sampler.sample(rng);
                    if !self.agents.is_crashed(u) && !self.agents.is_crashed(v) {
                        *slot = (u, v);
                        continue 'slots;
                    }
                }
                self.batch.edges = edges;
                return Err(starved_err(self.agents.live()));
            }
        }
        self.batch.edges = edges;
        Ok(())
    }

    /// Applies the buffered batch in draw order on the calling thread.
    fn apply_batch_sequential(&mut self) {
        let edges = std::mem::take(&mut self.batch.edges);
        if Pr::ACTIVE {
            for &(u, v) in &edges {
                let (p, q) = (self.agents.state(u), self.agents.state(v));
                let r = self.batch.delta.lookup(&mut self.rt, p, q);
                // Same store elision as the fast path below.
                if r != (p, q) {
                    self.agents.apply((u, v), r);
                }
                self.note_interaction((p, q), r);
            }
        } else {
            // The hottest loop of the engine: no probe to feed, a dense
            // δ-table to look transitions up in. The step counters
            // accumulate in registers (one read-modify-write of the `self`
            // fields per batch, not per interaction), and an ineffective
            // interaction skips its writes entirely — the store is what it
            // read, so elision is unobservable, and it keeps no-ops (the
            // vast majority away from the convergence frontier) from
            // dirtying two random state-array lines.
            let mut effective = 0u64;
            let (delta, rt) = (&mut self.batch.delta, &mut self.rt);
            let states = self.agents.states_mut();
            for &(u, v) in &edges {
                let (p, q) = (states[u as usize], states[v as usize]);
                let r = delta.lookup(rt, p, q);
                if r != (p, q) {
                    states[u as usize] = r.0;
                    states[v as usize] = r.1;
                    effective += 1;
                }
            }
            self.steps += edges.len() as u64;
            self.effective_steps += effective;
        }
        self.batch.edges = edges;
    }

    /// Runs `steps` interactions through batched sampling and the dense
    /// `δ`-table.
    ///
    /// Byte-identical to [`run`](Self::run) — same RNG stream, same
    /// interaction sequence, same final states (under the same state ids)
    /// and step counters — just faster, because scheduler draws are batched
    /// (independent random reads overlap in the memory pipeline) and each
    /// transition is one dense table load instead of a hash-map probe.
    ///
    /// # Errors
    ///
    /// [`PopulationError::StarvedSchedule`] if no pair of live agents can
    /// interact; interactions executed before starvation was detected remain
    /// applied.
    pub fn run_batched(
        &mut self,
        steps: u64,
        rng: &mut impl RngCore,
    ) -> Result<(), PopulationError> {
        let mut remaining = steps;
        while remaining > 0 {
            let k = remaining.min(EPOCH_EDGES as u64) as usize;
            if Tr::ACTIVE {
                self.tracer.enter(SpanKind::BatchSample);
            }
            let fill = self.fill_live_batch(k, rng);
            if Tr::ACTIVE {
                self.tracer.exit(SpanKind::BatchSample, k as u64);
            }
            fill?;
            if Tr::ACTIVE {
                self.tracer.enter(SpanKind::BatchApply);
            }
            self.apply_batch_sequential();
            if Tr::ACTIVE {
                self.tracer.exit(SpanKind::BatchApply, k as u64);
            }
            remaining -= k as u64;
        }
        Ok(())
    }

    /// Stamps every edge of the buffered batch, in draw order, as
    /// independent (no earlier edge of this epoch touches either endpoint)
    /// or conflicted.
    fn classify_epoch(&mut self) {
        let AgentBatchScratch { edges, stamp, epoch, independent, .. } = &mut self.batch;
        let n = self.agents.population();
        if stamp.len() != n {
            *stamp = vec![0; n];
            *epoch = 0;
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            stamp.fill(0);
            *epoch = 1;
        }
        independent.clear();
        independent.reserve(edges.len());
        for &(u, v) in edges.iter() {
            let free = stamp[u as usize] != *epoch && stamp[v as usize] != *epoch;
            independent.push(free);
            stamp[u as usize] = *epoch;
            stamp[v as usize] = *epoch;
        }
    }

    /// Applies the buffered epoch: workers read every edge's transition
    /// for the pre-epoch states from the table in disjoint chunks, then the
    /// main thread merges in draw order (precomputed where independent and
    /// found, recomputed — filling the table — otherwise).
    fn apply_epoch(&mut self, threads: usize) {
        let edges = std::mem::take(&mut self.batch.edges);
        let mut results = std::mem::take(&mut self.batch.results);
        let independent = std::mem::take(&mut self.batch.independent);

        // Workers only read the table: a miss stays `UNFILLED` and the
        // merge evaluates it on the main thread, so states are interned in
        // draw order exactly as on the sequential engine.
        results.clear();
        results.resize(edges.len(), UNFILLED);
        let states = self.agents.states().as_slice();
        let d = &self.batch.delta;
        let read = |es: &[(u32, u32)], rs: &mut [(StateId, StateId)]| {
            for (&(u, v), r) in es.iter().zip(rs.iter_mut()) {
                *r = d.get(states[u as usize], states[v as usize]).unwrap_or(UNFILLED);
            }
        };
        if threads > 1 {
            let chunk = edges.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (es, rs) in edges.chunks(chunk).zip(results.chunks_mut(chunk)) {
                    scope.spawn(move || read(es, rs));
                }
            });
        } else {
            read(&edges, &mut results);
        }

        for (i, &(u, v)) in edges.iter().enumerate() {
            let (p, q) = (self.agents.state(u), self.agents.state(v));
            // An independent edge's endpoints are untouched by earlier
            // edges of the epoch, so its precomputed result is exactly what
            // sequential execution would produce here.
            let r = match results[i] {
                r if independent[i] && r != UNFILLED => r,
                _ => self.batch.delta.lookup(&mut self.rt, p, q),
            };
            // Same store elision as the batched path: identity writes skip.
            if r != (p, q) {
                self.agents.apply((u, v), r);
            }
            self.note_interaction((p, q), r);
        }

        self.batch.edges = edges;
        self.batch.results = results;
        self.batch.independent = independent;
    }

    /// Runs `steps` interactions, sharding each epoch of sampled edges
    /// across `threads` worker threads.
    ///
    /// The trajectory is byte-identical to [`run_batched`](Self::run_batched)
    /// (and therefore to the sequential [`run`](Self::run)) at **any**
    /// `threads` value, including 1: sampling, conflict classification, and
    /// the draw-order merge all run on the calling thread with the single
    /// `rng`, and workers only read a pure function of the pre-epoch
    /// states. Property-tested in `tests/agent_batch_properties.rs` and
    /// hard-asserted by the `e23_agent_engine` bench.
    ///
    /// # Errors
    ///
    /// [`PopulationError::StarvedSchedule`] as for
    /// [`run_batched`](Self::run_batched).
    pub fn run_epochs(
        &mut self,
        steps: u64,
        threads: usize,
        rng: &mut impl RngCore,
    ) -> Result<(), PopulationError> {
        let threads = threads.max(1);
        let mut remaining = steps;
        while remaining > 0 {
            let k = remaining.min(EPOCH_EDGES as u64) as usize;
            if Tr::ACTIVE {
                self.tracer.enter(SpanKind::BatchSample);
            }
            let fill = self.fill_live_batch(k, rng);
            if Tr::ACTIVE {
                self.tracer.exit(SpanKind::BatchSample, k as u64);
            }
            fill?;
            self.classify_epoch();
            if Tr::ACTIVE {
                self.tracer.enter(SpanKind::BatchApply);
            }
            self.apply_epoch(threads);
            if Tr::ACTIVE {
                self.tracer.exit(SpanKind::BatchApply, k as u64);
            }
            remaining -= k as u64;
        }
        Ok(())
    }

    /// [`run_epochs`](Self::run_epochs) with the thread count resolved from
    /// the environment ([`crate::ensemble::default_threads`]: 1 under
    /// `PP_BENCH_SMOKE`, else `PP_THREADS`, else the host parallelism).
    pub fn run_sharded(
        &mut self,
        steps: u64,
        rng: &mut impl RngCore,
    ) -> Result<(), PopulationError> {
        self.run_epochs(steps, crate::ensemble::default_threads(), rng)
    }

    /// Batched counterpart of
    /// [`measure_stabilization`](Self::measure_stabilization): runs up to
    /// `horizon` interactions and reports when the output assignment last
    /// became (and stayed) `expected` on every live agent.
    ///
    /// Wherever the schedule does not starve, the report, the step
    /// counters, the final states (under the same state ids) and the RNG
    /// position equal the sequential method's on the same seed: the draws
    /// are stream-identical, transitions come from the same memo, and the
    /// wrong-output count is the same quantity, kept through a per-state
    /// flag table. Without a probe the kernel runs on a local state slice
    /// with its counters in registers, skips identity writes, and settles
    /// `last_wrong` once per batch (from the last interaction that brought
    /// the count to zero, or the batch end while it is positive).
    ///
    /// # Errors
    ///
    /// [`PopulationError::StarvedSchedule`] if the schedule starves before
    /// the horizon — fewer than two live agents, or no live pair left to
    /// draw — where the sequential method instead idles through the
    /// remaining steps. Starvation needs crashed agents or a sampler with
    /// no edges, so a run without a fault plan on a connected graph of
    /// `n ≥ 2` agents (every run `pp_core::spec::run_agents` serves: it
    /// takes no fault plan, and its callers build connected graphs of
    /// `n ≥ 4`) never starves, and there this method and the sequential
    /// one are interchangeable.
    pub fn measure_stabilization_batched(
        &mut self,
        expected: &P::Output,
        horizon: u64,
        rng: &mut impl RngCore,
    ) -> Result<StabilizationReport, PopulationError> {
        let mut flags = Vec::new();
        sync_wrong_flags(&mut flags, &self.rt, expected);
        let mut wrong = self.wrong_output_count(expected);
        let mut last_wrong: Option<u64> = if wrong == 0 { None } else { Some(0) };
        let start = self.steps;
        let mut remaining = horizon;
        while remaining > 0 {
            let k = remaining.min(EPOCH_EDGES as u64) as usize;
            if Tr::ACTIVE {
                self.tracer.enter(SpanKind::BatchSample);
            }
            let fill = self.fill_live_batch(k, rng);
            if Tr::ACTIVE {
                self.tracer.exit(SpanKind::BatchSample, k as u64);
            }
            fill?;
            if Tr::ACTIVE {
                self.tracer.enter(SpanKind::BatchApply);
            }
            let edges = std::mem::take(&mut self.batch.edges);
            if Pr::ACTIVE {
                for &(u, v) in &edges {
                    let (p, q) = (self.agents.state(u), self.agents.state(v));
                    let r = self.batch.delta.lookup(&mut self.rt, p, q);
                    sync_wrong_flags(&mut flags, &self.rt, expected);
                    if r != (p, q) {
                        self.agents.apply((u, v), r);
                        wrong = wrong + flags[r.0.index()] + flags[r.1.index()]
                            - flags[p.index()]
                            - flags[q.index()];
                    }
                    self.note_interaction((p, q), r);
                    if wrong > 0 {
                        last_wrong = Some(self.steps - start);
                    }
                }
            } else {
                // `apply_batch_sequential`'s fast path plus the wrong-output
                // count. `u ≠ v` and both agents are counted in `wrong`, so
                // the subtraction cannot underflow.
                let base = self.steps - start;
                let mut effective = 0u64;
                let mut zeroed_after: Option<u64> = None;
                let (delta, rt) = (&mut self.batch.delta, &mut self.rt);
                let states = self.agents.states_mut();
                for (i, &(u, v)) in edges.iter().enumerate() {
                    let (p, q) = (states[u as usize], states[v as usize]);
                    let r = match delta.get(p, q) {
                        Some(r) => r,
                        None => {
                            let r = delta.fill(rt, p, q);
                            sync_wrong_flags(&mut flags, rt, expected);
                            r
                        }
                    };
                    if r != (p, q) {
                        states[u as usize] = r.0;
                        states[v as usize] = r.1;
                        effective += 1;
                        let was = wrong;
                        wrong = wrong + flags[r.0.index()] + flags[r.1.index()]
                            - flags[p.index()]
                            - flags[q.index()];
                        if was > 0 && wrong == 0 {
                            // Wrong through interaction `base + i`, right
                            // from `base + i + 1` on.
                            zeroed_after = Some(base + i as u64);
                        }
                    }
                }
                self.steps += edges.len() as u64;
                self.effective_steps += effective;
                if wrong > 0 {
                    last_wrong = Some(base + edges.len() as u64);
                } else if zeroed_after.is_some() {
                    last_wrong = zeroed_after;
                }
            }
            self.batch.edges = edges;
            if Tr::ACTIVE {
                self.tracer.exit(SpanKind::BatchApply, k as u64);
            }
            remaining -= k as u64;
        }
        Ok(StabilizationReport {
            horizon,
            stabilized_at: consensus_reached(wrong, last_wrong, 0),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{seeded_rng, AgentSimulation};
    use crate::error::PopulationError;
    use crate::protocol::FnProtocol;
    use crate::scheduler::{CsrScheduler, EdgeListScheduler, UniformPairScheduler};
    use rand::RngCore;

    fn epidemic() -> impl crate::protocol::Protocol<State = bool, Input = bool, Output = bool>
    {
        FnProtocol::new(
            |&b: &bool| b,
            |&q: &bool| q,
            |&p: &bool, &q: &bool| (p || q, p || q),
        )
    }

    fn inputs(n: usize) -> Vec<bool> {
        (0..n).map(|i| i == 0).collect()
    }

    #[test]
    fn run_batched_is_byte_identical_to_sequential() {
        let n = 64;
        let mut seq = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(n),
            UniformPairScheduler::new(n),
        );
        let mut bat = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(n),
            UniformPairScheduler::new(n),
        );
        let mut rng_a = seeded_rng(42);
        let mut rng_b = seeded_rng(42);
        seq.run(10_000, &mut rng_a);
        bat.run_batched(10_000, &mut rng_b).unwrap();
        assert_eq!(seq.agents(), bat.agents());
        assert_eq!(seq.steps(), bat.steps());
        assert_eq!(seq.effective_steps(), bat.effective_steps());
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams must stay aligned");
    }

    #[test]
    fn run_epochs_matches_at_any_thread_count() {
        let edges: Vec<(u32, u32)> = (0..32u32)
            .flat_map(|i| [(i, (i + 1) % 32), ((i + 1) % 32, i)])
            .collect();
        let mut base = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(32),
            CsrScheduler::new(32, &edges),
        );
        let mut rng = seeded_rng(7);
        base.run_batched(20_000, &mut rng).unwrap();
        for threads in [1usize, 2, 8] {
            let mut sim = AgentSimulation::from_inputs(
                epidemic(),
                &inputs(32),
                CsrScheduler::new(32, &edges),
            );
            let mut rng = seeded_rng(7);
            sim.run_epochs(20_000, threads, &mut rng).unwrap();
            assert_eq!(sim.agents(), base.agents(), "threads={threads}");
            assert_eq!(sim.effective_steps(), base.effective_steps(), "threads={threads}");
        }
    }

    #[test]
    fn starved_schedule_is_a_structured_error() {
        // Two disconnected dumbbells plus two isolated agents: crashing
        // agents 0..=3 leaves agents 4 and 5 live but edgeless.
        let edges = [(0u32, 1u32), (1, 0), (2, 3), (3, 2)];
        let mut sim = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(6),
            EdgeListScheduler::new(6, edges.to_vec()),
        );
        for a in 0..=3 {
            sim.crash_agent(a);
        }
        let mut rng = seeded_rng(3);
        let before = rng.clone();
        assert_eq!(
            sim.run_batched(100, &mut rng),
            Err(PopulationError::StarvedSchedule { live: 2 })
        );
        assert_eq!(
            sim.try_step_transitions(&mut rng),
            Err(PopulationError::StarvedSchedule { live: 2 })
        );
        // Structural detection: the failing calls consumed no randomness.
        let mut a = before;
        assert_eq!(a.next_u64(), rng.next_u64());
    }

    #[test]
    fn measure_stabilization_batched_matches_sequential() {
        let n = 48;
        let mut seq = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(n),
            UniformPairScheduler::new(n),
        );
        let mut bat = AgentSimulation::from_inputs(
            epidemic(),
            &inputs(n),
            UniformPairScheduler::new(n),
        );
        let mut rng_a = seeded_rng(19);
        let mut rng_b = seeded_rng(19);
        let a = seq.measure_stabilization(&true, 30_000, &mut rng_a);
        let b = bat.measure_stabilization_batched(&true, 30_000, &mut rng_b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn measure_stabilization_batched_matches_sequential_beyond_the_table_cap() {
        // δ scatters over 3001 states, so state ids cross the dense table's
        // cap within the run and pairs beyond it are served by the memo.
        let wide = || {
            FnProtocol::new(
                |&b: &bool| u32::from(b),
                |&q: &u32| q % 2 == 0,
                |&p: &u32, &q: &u32| ((p * 7 + q + 1) % 3001, (q * 13 + p + 3) % 3001),
            )
        };
        let n = 64;
        let mut seq =
            AgentSimulation::from_inputs(wide(), &inputs(n), UniformPairScheduler::new(n));
        let mut bat =
            AgentSimulation::from_inputs(wide(), &inputs(n), UniformPairScheduler::new(n));
        let mut rng_a = seeded_rng(29);
        let mut rng_b = seeded_rng(29);
        let a = seq.measure_stabilization(&true, 50_000, &mut rng_a);
        let b = bat.measure_stabilization_batched(&true, 50_000, &mut rng_b).unwrap();
        assert_eq!(a, b);
        assert!(bat.runtime().state_count() > 1024, "the run must cross the table cap");
        assert_eq!(seq.runtime().state_count(), bat.runtime().state_count());
        assert_eq!(seq.agents(), bat.agents(), "same states under the same ids");
        assert_eq!(seq.effective_steps(), bat.effective_steps());
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams must stay aligned");
    }
}
