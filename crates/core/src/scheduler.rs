//! Schedulers: who interacts next?
//!
//! The model itself is nondeterministic — any encounter permitted by the
//! interaction graph may happen next, subject only to fairness (§3.1). For
//! simulation we must pick. The paper's probabilistic layer (§6,
//! *conjugating automata*) draws the ordered pair uniformly at random from
//! the edges of the interaction graph; random pairing guarantees fairness
//! with probability 1.
//!
//! [`UniformPairScheduler`] implements the complete-graph case,
//! [`EdgeListScheduler`] the general case, [`RoundRobinScheduler`] a
//! deterministic fair schedule useful in tests, and [`ScriptedScheduler`] an
//! arbitrary (possibly adversarial) fixed schedule.

use std::collections::HashMap;
use std::sync::Arc;

use rand::{Rng, RngCore};

use crate::error::PopulationError;

/// A source of ordered agent pairs `(initiator, responder)` for agent-based
/// simulations.
pub trait PairSampler {
    /// Draws the next interacting pair. The two indices are always distinct
    /// and in `0..n`.
    fn sample(&mut self, rng: &mut dyn RngCore) -> (u32, u32);

    /// Population size this sampler draws from.
    fn population(&self) -> usize;

    /// Number of schedulable pairs joining two agents for which `is_live`
    /// holds, or `None` if this sampler cannot tell (the engine then falls
    /// back to capped rejection sampling).
    ///
    /// [`AgentSimulation`](crate::AgentSimulation) calls this after every
    /// crash so that a *starved* schedule (zero live pairs) is detected
    /// structurally — an `O(n + m)` scan per crash — instead of by spinning
    /// through a 100k-draw rejection budget on every subsequent step.
    fn live_pairs(&self, is_live: &dyn Fn(u32) -> bool) -> Option<u64> {
        let _ = is_live;
        None
    }

    /// Preconditions future draws on liveness: after `mask_live` returns
    /// `Some(k)`, every [`sample`](Self::sample) hits a pair of live agents
    /// directly (no rejection needed) and `k` is the number of live pairs
    /// (`Some(0)` = starved; the caller must stop sampling). Returns `None`
    /// if this sampler does not support masking (the default).
    ///
    /// Samplers that support it rebuild an internal live-edge view, so the
    /// cost is paid once per crash burst rather than per draw.
    fn mask_live(&mut self, is_live: &dyn Fn(u32) -> bool) -> Option<u64> {
        let _ = is_live;
        None
    }
}

/// Extension of [`PairSampler`]: fills a buffer of `k` sampled pairs per
/// call, monomorphized over the RNG.
///
/// Two things make the batched form faster than `k` calls through the
/// object-safe [`sample`](PairSampler::sample):
///
/// * the RNG is a concrete type here, so the generator inlines into the
///   sampling loop instead of costing two virtual calls per draw;
/// * the loop body has no dependence between iterations, so the CPU can
///   overlap the random edge-array reads (memory-level parallelism) — at
///   populations whose edge list spills out of cache this is the dominant
///   win, because a sequential draw-apply-draw loop serializes one cache
///   miss per interaction.
///
/// The default implementation routes through `sample`, so any sampler can be
/// used where a `BatchPairSampler` is required; the built-in samplers
/// override it with stream-identical monomorphized loops (property-tested in
/// `tests/agent_batch_properties.rs`).
pub trait BatchPairSampler: PairSampler {
    /// Clears `buf` and fills it with `k` sampled pairs, exactly as `k`
    /// successive [`sample`](PairSampler::sample) calls would (same
    /// distribution; for the built-in samplers, the same RNG stream).
    fn sample_batch<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        k: usize,
        buf: &mut Vec<(u32, u32)>,
    ) {
        buf.clear();
        let mut r = rng;
        for _ in 0..k {
            let pair = self.sample(&mut r);
            buf.push(pair);
        }
    }
}

/// A [`BatchPairSampler`] whose draws only *read* it: all of its state is
/// the graph (plus any live mask), none of it is a cursor. One instance can
/// then serve any number of runs at once behind an [`Arc`], and `Arc<S>` is
/// itself a sampler — so a server can cache one sampler per topology and
/// hand every request and every ensemble trial a reference-count bump
/// instead of a copy of the edge arrays.
///
/// [`draw`](Self::draw) and [`draw_batch`](Self::draw_batch) are the
/// implementor's [`sample`](PairSampler::sample) and
/// [`sample_batch`](BatchPairSampler::sample_batch) (same streams), taking
/// `&self`. Masking an `Arc`-shared sampler
/// ([`mask_live`](PairSampler::mask_live), after a crash) copies it first,
/// so a faulted run never changes what the other holders draw.
pub trait SharedPairSampler: BatchPairSampler + Clone {
    /// [`sample`](PairSampler::sample) through a shared reference.
    fn draw(&self, rng: &mut dyn RngCore) -> (u32, u32);

    /// [`sample_batch`](BatchPairSampler::sample_batch) through a shared
    /// reference.
    fn draw_batch<R: RngCore + ?Sized>(&self, rng: &mut R, k: usize, buf: &mut Vec<(u32, u32)>);
}

impl<S: SharedPairSampler> PairSampler for Arc<S> {
    #[inline]
    fn sample(&mut self, rng: &mut dyn RngCore) -> (u32, u32) {
        self.draw(rng)
    }

    fn population(&self) -> usize {
        (**self).population()
    }

    fn live_pairs(&self, is_live: &dyn Fn(u32) -> bool) -> Option<u64> {
        (**self).live_pairs(is_live)
    }

    fn mask_live(&mut self, is_live: &dyn Fn(u32) -> bool) -> Option<u64> {
        Arc::make_mut(self).mask_live(is_live)
    }
}

impl<S: SharedPairSampler> BatchPairSampler for Arc<S> {
    fn sample_batch<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        k: usize,
        buf: &mut Vec<(u32, u32)>,
    ) {
        self.draw_batch(rng, k, buf);
    }
}

/// Uniform random ordered pairs from the complete interaction graph — the
/// sampling rule of conjugating automata (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformPairScheduler {
    n: u32,
}

impl UniformPairScheduler {
    /// Creates a sampler over `n ≥ 2` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`; [`try_new`](Self::try_new) reports the same
    /// condition as an error instead.
    pub fn new(n: usize) -> Self {
        Self::try_new(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: errors with
    /// [`PopulationError::PopulationTooSmall`] if `n < 2`.
    pub fn try_new(n: usize) -> Result<Self, PopulationError> {
        if n < 2 {
            return Err(PopulationError::PopulationTooSmall { n });
        }
        Ok(Self { n: u32::try_from(n).expect("population exceeds u32::MAX") })
    }
}

impl PairSampler for UniformPairScheduler {
    #[inline]
    fn sample(&mut self, rng: &mut dyn RngCore) -> (u32, u32) {
        let u = rng.gen_range(0..self.n);
        let mut v = rng.gen_range(0..self.n - 1);
        if v >= u {
            v += 1;
        }
        (u, v)
    }

    fn population(&self) -> usize {
        self.n as usize
    }

    /// Every ordered pair of distinct live agents: `live · (live − 1)`.
    fn live_pairs(&self, is_live: &dyn Fn(u32) -> bool) -> Option<u64> {
        let live = (0..self.n).filter(|&a| is_live(a)).count() as u64;
        Some(live * live.saturating_sub(1))
    }
}

impl BatchPairSampler for UniformPairScheduler {
    fn sample_batch<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        k: usize,
        buf: &mut Vec<(u32, u32)>,
    ) {
        buf.clear();
        buf.reserve(k);
        // Same inversion draw as `sample`, monomorphized: identical stream.
        for _ in 0..k {
            let u = rng.gen_range(0..self.n);
            let mut v = rng.gen_range(0..self.n - 1);
            if v >= u {
                v += 1;
            }
            buf.push((u, v));
        }
    }
}

/// Uniform random ordered pairs from an explicit directed edge list.
///
/// # Duplicate edges are weights
///
/// Each draw picks a uniformly random *slot* of the edge list, so an edge
/// listed `k` times is drawn with `k` times the probability of a singly
/// listed one — duplicates are a deliberate, validated way to weight the
/// schedule (the multigraph reading of §5's interaction graphs). Callers
/// who want exact uniformity over *distinct* edges must deduplicate first
/// ([`pp_graphs::InteractionGraph`] does) or use
/// [`CsrScheduler`], which merges duplicate edges into explicit weights at
/// construction.
///
/// [`pp_graphs::InteractionGraph`]: https://docs.rs/pp-graphs
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeListScheduler {
    edges: Vec<(u32, u32)>,
    n: usize,
}

impl EdgeListScheduler {
    /// Creates a sampler over the given directed edges in a population of
    /// size `n`.
    ///
    /// # Panics
    ///
    /// Panics if the edge list is empty, contains a self-loop, or refers to
    /// an agent outside `0..n`; [`try_new`](Self::try_new) reports the same
    /// conditions as errors instead.
    pub fn new(n: usize, edges: Vec<(u32, u32)>) -> Self {
        Self::try_new(n, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: errors with [`PopulationError::NoEdges`] on an
    /// empty edge list, [`PopulationError::SelfLoop`] on an edge `(u, u)`,
    /// or [`PopulationError::EdgeOutOfRange`] on an endpoint outside `0..n`.
    ///
    /// Duplicate edges are accepted and act as weights (see the
    /// [type-level docs](Self)).
    pub fn try_new(n: usize, edges: Vec<(u32, u32)>) -> Result<Self, PopulationError> {
        if edges.is_empty() {
            return Err(PopulationError::NoEdges);
        }
        for &(u, v) in &edges {
            if u == v {
                return Err(PopulationError::SelfLoop { agent: u });
            }
            if (u as usize) >= n || (v as usize) >= n {
                let agent = if (u as usize) >= n { u } else { v };
                return Err(PopulationError::EdgeOutOfRange { agent, n });
            }
        }
        Ok(Self { edges, n })
    }

    /// The directed edges this sampler draws from.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }
}

impl PairSampler for EdgeListScheduler {
    #[inline]
    fn sample(&mut self, rng: &mut dyn RngCore) -> (u32, u32) {
        self.draw(rng)
    }

    fn population(&self) -> usize {
        self.n
    }

    /// Number of edge *slots* whose endpoints are both live (duplicates
    /// count once per slot, consistent with their weighting semantics).
    fn live_pairs(&self, is_live: &dyn Fn(u32) -> bool) -> Option<u64> {
        Some(self.edges.iter().filter(|&&(u, v)| is_live(u) && is_live(v)).count() as u64)
    }
}

impl BatchPairSampler for EdgeListScheduler {
    fn sample_batch<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        k: usize,
        buf: &mut Vec<(u32, u32)>,
    ) {
        self.draw_batch(rng, k, buf);
    }
}

impl SharedPairSampler for EdgeListScheduler {
    #[inline]
    fn draw(&self, rng: &mut dyn RngCore) -> (u32, u32) {
        self.edges[rng.gen_range(0..self.edges.len())]
    }

    fn draw_batch<R: RngCore + ?Sized>(&self, rng: &mut R, k: usize, buf: &mut Vec<(u32, u32)>) {
        buf.clear();
        buf.reserve(k);
        let m = self.edges.len();
        // Same uniform slot draw as `sample`, monomorphized: identical
        // stream, and the random edge-array reads of consecutive iterations
        // are independent, so they overlap in the memory pipeline.
        for _ in 0..k {
            buf.push(self.edges[rng.gen_range(0..m)]);
        }
    }
}

/// Compressed-sparse-row edge sampler: the scalable form of
/// [`EdgeListScheduler`] for large interaction graphs (§5 at 10⁸ agents).
///
/// The graph is stored as a CSR adjacency (`offsets` + `targets`, edges
/// grouped by initiator) plus a parallel `srcs` column so a flat edge index
/// resolves to its ordered pair in `O(1)`. Construction counting-sorts the
/// input edges by initiator (no comparison sort) and **merges duplicate
/// edges into explicit weights**: a simple graph samples by one uniform
/// index per draw, a multigraph through a Walker–Vose alias table over
/// edges (the same machinery as [`WeightedPairScheduler`]) — `O(1)` either
/// way, and duplicates keep exactly the slot-multiplicity semantics of
/// `EdgeListScheduler`.
///
/// # Regular graphs need no `srcs` column
///
/// When every agent has the same out-degree `d` (a torus, a ring, …), the
/// CSR layout makes the initiator of flat edge `e` *arithmetic*:
/// `srcs[e] == e / d`, a shift when `d` is a power of two. Construction
/// detects this and skips materializing `srcs` entirely, which both saves
/// the column's memory (4 bytes/edge — 1.6 GB at 4·10⁸ edges) and, more
/// importantly, removes one random out-of-cache read per draw: at 10⁶+
/// agents the sampler's cost is dominated by latency of exactly these
/// reads, so halving them nearly halves ns/interaction. The computed value
/// is identical to the stored one, so sampled streams are unchanged.
///
/// # Crash masking
///
/// [`mask_live`](PairSampler::mask_live) is supported: it rebuilds a live
/// edge view (ids of edges joining two live agents, re-weighted and
/// re-aliased in the weighted case) once per crash burst, after which every
/// draw is preconditioned on liveness — no per-draw rejection, and a
/// starved schedule is reported as `Some(0)` instead of a rejection spin.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrScheduler {
    n: usize,
    /// `offsets[u]..offsets[u + 1]` indexes `u`'s out-edges; length `n + 1`.
    offsets: Vec<u32>,
    /// Initiator of each edge (parallel to `targets`): resolves a flat edge
    /// index without a binary search over `offsets`. Empty when `regular`
    /// is set — the initiator is then computed, not loaded.
    srcs: Vec<u32>,
    /// `Some((d, log2 d))` when every agent has out-degree `d` (`log2 d`
    /// only when `d` is a power of two): `srcs[e] == e / d`.
    regular: Option<(u32, Option<u32>)>,
    /// Responder of each edge, grouped by initiator.
    targets: Vec<u32>,
    /// Stencil-compressed responder column (see [`StencilTargets`]); present
    /// on regular graphs whose vertices share at most 256 distinct
    /// neighborhood shapes. The batched sampler then reads one dictionary
    /// byte per *vertex* instead of one word per *edge*.
    stencil: Option<StencilTargets>,
    /// Delta-compressed responder column (see [`NarrowTargets`]); fallback
    /// when no stencil exists but nearly every target sits within `i16` of
    /// its initiator. The batched sampler gathers from this column — 2
    /// bytes per edge instead of 4 — so the hot working set halves;
    /// `targets` stays authoritative for `neighbors`, single draws, and the
    /// live-edge machinery.
    narrow: Option<NarrowTargets>,
    /// Per-edge weights (duplicate multiplicities); `None` when uniform.
    weights: Option<Vec<f64>>,
    /// Alias table over all edges; present iff `weights` is.
    alias: Option<(Vec<f64>, Vec<u32>)>,
    /// Live-edge view installed by `mask_live`; `None` = all edges live.
    live: Option<LiveEdges>,
}

/// Stencil-dictionary form of a regular CSR responder column. Lattice-like
/// graphs have very few distinct *neighborhood shapes*: on a torus every
/// interior vertex sees the same sorted delta-tuple `(-side, -1, +1, +side)`,
/// and only the wrap rows/columns differ — nine shapes in total, whatever
/// the size. When every vertex has the same out-degree `d` and the distinct
/// shapes number ≤ 256, the batched gather resolves a responder as
/// `u + table[class[u] · d + slot]`: one random byte load into `class`
/// (1 byte per vertex) plus one load into the dictionary-resident `table`,
/// instead of one random word load into the `m`-long responder column. At
/// n = 10⁷ (torus, d = 4) that shrinks the randomly-touched array from
/// 160 MB (`u32` per edge) to 10 MB — resident even in a contended cache.
/// Deltas are stored exact (`i64`), so there is no exception path.
#[derive(Debug, Clone, PartialEq)]
struct StencilTargets {
    /// Dictionary index of each vertex's neighborhood shape.
    class: Vec<u8>,
    /// `classes × d` signed deltas, row per class, slot-major.
    table: Vec<i64>,
}

/// Dictionary capacity of [`StencilTargets`]: shapes must fit a `u8` class.
const STENCIL_MAX_CLASSES: usize = 256;

/// Builds the stencil dictionary for a `d`-regular CSR responder column, or
/// `None` when the graph has more than [`STENCIL_MAX_CLASSES`] distinct
/// neighborhood shapes (then not lattice-like, and the dictionary would
/// stop being cache-resident anyway).
fn build_stencil(n: usize, d: u32, targets: &[u32]) -> Option<StencilTargets> {
    if d == 0 || n == 0 {
        return None;
    }
    let d = d as usize;
    let mut class = Vec::with_capacity(n);
    let mut table: Vec<i64> = Vec::new();
    let mut dict: HashMap<Vec<i64>, u8> = HashMap::new();
    let mut tuple: Vec<i64> = vec![0; d];
    for u in 0..n {
        for (slot, t) in tuple.iter_mut().enumerate() {
            *t = i64::from(targets[u * d + slot]) - u as i64;
        }
        let id = match dict.get(&tuple) {
            Some(&id) => id,
            None => {
                if dict.len() == STENCIL_MAX_CLASSES {
                    return None;
                }
                let id = dict.len() as u8;
                dict.insert(tuple.clone(), id);
                table.extend_from_slice(&tuple);
                id
            }
        };
        class.push(id);
    }
    Some(StencilTargets { class, table })
}

/// Delta-compressed form of a CSR responder column. On mesh-like graphs
/// (tori, grids, rings) almost every edge connects near-numbered agents, so
/// `target - src` fits an `i16`; the few that don't — wrap-around edges —
/// carry the [`NARROW_EXCEPTION`] sentinel and live on a sorted side list.
/// Built only when at most 1 edge in 64 is an exception, so hot-loop
/// branches on the sentinel stay near-perfectly predicted.
#[derive(Debug, Clone, PartialEq)]
struct NarrowTargets {
    /// `target - src` per edge, or [`NARROW_EXCEPTION`].
    deltas: Vec<i16>,
    /// `(edge index, target)` for edges whose delta overflows, sorted by
    /// edge index for binary search.
    exceptions: Vec<(u32, u32)>,
}

/// Sentinel in [`NarrowTargets::deltas`]: resolve via the exception list.
const NARROW_EXCEPTION: i16 = i16::MIN;

/// Builds the delta-compressed responder column, or `None` when more than
/// 1 edge in 64 would overflow an `i16` delta.
fn build_narrow(offsets: &[u32], targets: &[u32]) -> Option<NarrowTargets> {
    let m = targets.len();
    let mut deltas = Vec::with_capacity(m);
    let mut exceptions: Vec<(u32, u32)> = Vec::new();
    let mut u = 0usize;
    for (e, &v) in targets.iter().enumerate() {
        while offsets[u + 1] as usize <= e {
            u += 1;
        }
        let d = i64::from(v) - u as i64;
        match i16::try_from(d) {
            Ok(d16) if d16 != NARROW_EXCEPTION => deltas.push(d16),
            _ => {
                deltas.push(NARROW_EXCEPTION);
                exceptions.push((e as u32, v));
                if exceptions.len() * 64 > m {
                    return None;
                }
            }
        }
    }
    Some(NarrowTargets { deltas, exceptions })
}

/// Resolves an exception-listed edge's target. Out of line: reached for a
/// vanishing fraction of draws by construction.
#[cold]
#[inline(never)]
fn narrow_exception_target(nt: &NarrowTargets, e: usize) -> u32 {
    let i = nt
        .exceptions
        .binary_search_by_key(&(e as u32), |&(idx, _)| idx)
        .expect("sentinel delta without an exception entry");
    nt.exceptions[i].1
}

/// The gather phase of batched sampling: rewrites each `(edge index, 0)`
/// placeholder in `buf` to its ordered pair, computing initiators through
/// `src` (a shift / divide for regular graphs, a `srcs` load otherwise) and
/// responders from the narrow column when present. The representation match
/// sits outside the loops; each loop body is branch-free but for the
/// near-never exception sentinel.
#[inline]
fn gather_pairs(
    narrow: Option<&NarrowTargets>,
    targets: &[u32],
    buf: &mut [(u32, u32)],
    src: impl Fn(usize) -> u32,
) {
    match narrow {
        Some(nt) => {
            for p in buf.iter_mut() {
                let e = p.0 as usize;
                let u = src(e);
                let d = nt.deltas[e];
                let v = if d != NARROW_EXCEPTION {
                    u.wrapping_add_signed(i32::from(d))
                } else {
                    narrow_exception_target(nt, e)
                };
                *p = (u, v);
            }
        }
        None => {
            for p in buf.iter_mut() {
                let e = p.0 as usize;
                *p = (src(e), targets[e]);
            }
        }
    }
}

/// The live-edge view of a [`CsrScheduler`] under crash masking.
#[derive(Debug, Clone, PartialEq)]
struct LiveEdges {
    /// Flat indices of edges joining two live agents.
    ids: Vec<u32>,
    /// Alias table over `ids` (weighted graphs only).
    alias: Option<(Vec<f64>, Vec<u32>)>,
}

impl CsrScheduler {
    /// Builds the sampler from a directed edge list (any order, duplicates
    /// allowed — they become weights).
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`try_new`](Self::try_new) reports as
    /// errors.
    pub fn new(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::try_new(n, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: errors with [`PopulationError::NoEdges`] on an
    /// empty edge list, [`PopulationError::SelfLoop`] on an edge `(u, u)`,
    /// or [`PopulationError::EdgeOutOfRange`] on an endpoint outside `0..n`.
    pub fn try_new(n: usize, edges: &[(u32, u32)]) -> Result<Self, PopulationError> {
        if edges.is_empty() {
            return Err(PopulationError::NoEdges);
        }
        for &(u, v) in edges {
            if u == v {
                return Err(PopulationError::SelfLoop { agent: u });
            }
            if (u as usize) >= n || (v as usize) >= n {
                let agent = if (u as usize) >= n { u } else { v };
                return Err(PopulationError::EdgeOutOfRange { agent, n });
            }
        }
        // Counting sort by initiator.
        let mut offsets = vec![0u32; n + 1];
        for &(u, _) in edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0u32; edges.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            let c = &mut cursor[u as usize];
            targets[*c as usize] = v;
            *c += 1;
        }
        // Merge duplicates row by row (rows are small — one sort per row
        // over the agent's out-degree).
        let mut m_targets: Vec<u32> = Vec::with_capacity(targets.len());
        let mut m_offsets = vec![0u32; n + 1];
        let mut mults: Vec<u32> = Vec::with_capacity(targets.len());
        let mut weighted = false;
        for u in 0..n {
            let row = &mut targets[offsets[u] as usize..offsets[u + 1] as usize];
            row.sort_unstable();
            let mut i = 0;
            while i < row.len() {
                let v = row[i];
                let mut k = 1u32;
                while i + (k as usize) < row.len() && row[i + k as usize] == v {
                    k += 1;
                }
                if k > 1 {
                    weighted = true;
                }
                m_targets.push(v);
                mults.push(k);
                i += k as usize;
            }
            m_offsets[u + 1] = m_targets.len() as u32;
        }
        let regular = detect_regular(&m_offsets);
        let srcs = if regular.is_some() { Vec::new() } else { build_srcs(&m_offsets) };
        let stencil = regular.and_then(|(d, _)| build_stencil(n, d, &m_targets));
        let narrow = if stencil.is_some() {
            None
        } else {
            build_narrow(&m_offsets, &m_targets)
        };
        let (weights, alias) = if weighted {
            let w: Vec<f64> = mults.iter().map(|&k| f64::from(k)).collect();
            let total: f64 = w.iter().sum();
            let table = build_alias_table(&w, total);
            (Some(w), Some(table))
        } else {
            (None, None)
        };
        Ok(Self {
            n,
            offsets: m_offsets,
            srcs,
            regular,
            targets: m_targets,
            stencil,
            narrow,
            weights,
            alias,
            live: None,
        })
    }

    /// Builds the sampler directly from CSR arrays (`offsets.len() == n + 1`,
    /// edges of agent `u` at `targets[offsets[u]..offsets[u + 1]]`) — the
    /// allocation-lean path for generators that already produce CSR, e.g.
    /// a 10⁸-agent torus. Edges are taken as given: a target listed twice in
    /// a row acts as a double-probability slot (no merge pass runs).
    ///
    /// Errors as [`try_new`](Self::try_new), plus
    /// [`PopulationError::UnrepresentableInput`] on malformed offsets.
    pub fn from_csr(
        n: usize,
        offsets: Vec<u32>,
        targets: Vec<u32>,
    ) -> Result<Self, PopulationError> {
        if offsets.len() != n + 1
            || offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets[n] as usize != targets.len()
        {
            return Err(PopulationError::UnrepresentableInput {
                reason: "malformed CSR offsets".into(),
            });
        }
        if targets.is_empty() {
            return Err(PopulationError::NoEdges);
        }
        for u in 0..n {
            for &v in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                if (v as usize) >= n {
                    return Err(PopulationError::EdgeOutOfRange { agent: v, n });
                }
                if v as usize == u {
                    return Err(PopulationError::SelfLoop { agent: v });
                }
            }
        }
        let regular = detect_regular(&offsets);
        let srcs = if regular.is_some() { Vec::new() } else { build_srcs(&offsets) };
        let stencil = regular.and_then(|(d, _)| build_stencil(n, d, &targets));
        let narrow = if stencil.is_some() {
            None
        } else {
            build_narrow(&offsets, &targets)
        };
        Ok(Self {
            n,
            offsets,
            srcs,
            regular,
            targets,
            stencil,
            narrow,
            weights: None,
            alias: None,
            live: None,
        })
    }

    /// Number of distinct edges after duplicate merging.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of agent `u` (sorted).
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.targets[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// The ordered pair of flat edge `e`.
    #[inline]
    pub fn edge(&self, e: usize) -> (u32, u32) {
        (self.src_of(e), self.targets[e])
    }

    /// Initiator of flat edge `e`: computed for regular graphs, loaded from
    /// the `srcs` column otherwise.
    #[inline]
    fn src_of(&self, e: usize) -> u32 {
        match self.regular {
            Some((_, Some(shift))) => (e >> shift) as u32,
            Some((d, None)) => (e / d as usize) as u32,
            None => self.srcs[e],
        }
    }

    /// Per-edge weights (duplicate multiplicities), if any edge was merged.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Draws a flat edge index respecting weights and any live mask.
    #[inline]
    fn draw_edge<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        match &self.live {
            Some(lv) => {
                let i = match &lv.alias {
                    Some((prob, alias)) => draw_alias_idx(rng, prob, alias),
                    None => rng.gen_range(0..lv.ids.len()),
                };
                lv.ids[i] as usize
            }
            None => match &self.alias {
                Some((prob, alias)) => draw_alias_idx(rng, prob, alias),
                None => rng.gen_range(0..self.targets.len()),
            },
        }
    }
}

/// `Some((d, log2 d))` when the CSR offsets describe a `d`-regular
/// out-degree sequence (every row the same length), `log2 d` present only
/// when `d` is a power of two.
fn detect_regular(offsets: &[u32]) -> Option<(u32, Option<u32>)> {
    let d = offsets[1] - offsets[0];
    if d == 0 || offsets.windows(2).any(|w| w[1] - w[0] != d) {
        return None;
    }
    let shift = d.is_power_of_two().then(|| d.trailing_zeros());
    Some((d, shift))
}

/// Materializes the per-edge initiator column from CSR offsets.
fn build_srcs(offsets: &[u32]) -> Vec<u32> {
    let n = offsets.len() - 1;
    let mut srcs = vec![0u32; offsets[n] as usize];
    for u in 0..n {
        srcs[offsets[u] as usize..offsets[u + 1] as usize].fill(u as u32);
    }
    srcs
}

/// One `O(1)` alias-table draw (Walker/Vose): pick a bucket uniformly, then
/// accept it or take its alias.
#[inline]
fn draw_alias_idx<R: RngCore + ?Sized>(rng: &mut R, prob: &[f64], alias: &[u32]) -> usize {
    let i = rng.gen_range(0..prob.len());
    if rng.gen_f64() < prob[i] {
        i
    } else {
        alias[i] as usize
    }
}

impl PairSampler for CsrScheduler {
    #[inline]
    fn sample(&mut self, rng: &mut dyn RngCore) -> (u32, u32) {
        self.draw(rng)
    }

    fn population(&self) -> usize {
        self.n
    }

    fn live_pairs(&self, is_live: &dyn Fn(u32) -> bool) -> Option<u64> {
        Some(
            (0..self.targets.len())
                .filter(|&e| is_live(self.src_of(e)) && is_live(self.targets[e]))
                .count() as u64,
        )
    }

    fn mask_live(&mut self, is_live: &dyn Fn(u32) -> bool) -> Option<u64> {
        let mut ids: Vec<u32> = Vec::new();
        for e in 0..self.targets.len() {
            if is_live(self.src_of(e)) && is_live(self.targets[e]) {
                ids.push(e as u32);
            }
        }
        if ids.len() == self.targets.len() {
            // Everyone is live again (or still): drop the view entirely so
            // the unmasked fast path is taken.
            self.live = None;
            return Some(self.targets.len() as u64);
        }
        let k = ids.len() as u64;
        let alias = match (&self.weights, ids.is_empty()) {
            (Some(w), false) => {
                let lw: Vec<f64> = ids.iter().map(|&e| w[e as usize]).collect();
                let total: f64 = lw.iter().sum();
                Some(build_alias_table(&lw, total))
            }
            _ => None,
        };
        self.live = Some(LiveEdges { ids, alias });
        Some(k)
    }
}

/// A uniform edge-index draw below a fixed width, stream-identical to the
/// shim's `gen_range(0..width)` — same rejection zone, same accepted word,
/// same value — with the accepted word's `% width` computed through a
/// precomputed Granlund–Montgomery round-up magic instead of a hardware
/// divide. `gen_range` recomputes its zone per call and ends in a
/// data-dependent `div`; batched sampling draws against one fixed width
/// thousands of times, so both are hoisted into this one-time setup.
/// Exactness (identical value to `%` for every 64-bit word) is asserted
/// against `gen_range` in `fast_uniform_matches_gen_range` below and,
/// end-to-end, by every batch-vs-sequential stream-identity test.
///
/// Power-of-two widths need no special arm: their zone is `u64::MAX`
/// (every word accepted, exactly like the shim's mask shortcut) and the
/// magic reduces to `v - (v >> log2(width)) * width == v & (width - 1)`,
/// so words, values, and stream position all coincide with the shim.
enum FastUniform {
    /// Width in `2..2^63`: rejection zone + round-up magic.
    Magic { width: u64, zone: u64, magic_lo: u64, shift: u32 },
    /// Width 1 or at least `2^63` (no real edge list hits either): plain
    /// division, still stream-identical.
    Div { width: u64, zone: u64 },
}

/// `v % width` via the round-up magic `2^(64+shift) / width + 1`, of which
/// only the low word is kept — the implicit `2^64` bit becomes the `v - t`
/// fold-in. Exact for every `v` when `2 <= width < 2^63`.
#[inline]
fn magic_rem(v: u64, width: u64, magic_lo: u64, shift: u32) -> u64 {
    let t = (((v as u128) * (magic_lo as u128)) >> 64) as u64;
    let q = (((v - t) >> 1) + t) >> (shift - 1);
    v - q * width
}

impl FastUniform {
    fn new(width: u64) -> Self {
        debug_assert!(width > 0);
        // The same acceptance zone `uniform_below` computes in the shim:
        // the largest `v` below the last whole multiple of `width`.
        let zone = u64::MAX - (u64::MAX % width + 1) % width;
        if !(2..1 << 63).contains(&width) {
            return FastUniform::Div { width, zone };
        }
        // `2^(shift-1) <= width - 1 < 2^shift`, so the magic strictly
        // exceeds `2^64` and its low word is what `magic_rem` needs.
        let shift = 64 - (width - 1).leading_zeros();
        let magic = (1u128 << (64 + shift)) / width as u128 + 1;
        FastUniform::Magic {
            width,
            zone,
            magic_lo: (magic - (1u128 << 64)) as u64,
            shift,
        }
    }

    /// One draw; the per-draw arm dispatch makes this the test/reference
    /// form — the batched path hoists the match around its fill loop.
    #[cfg(test)]
    fn draw(&self, rng: &mut (impl RngCore + ?Sized)) -> u64 {
        match *self {
            FastUniform::Magic { width, zone, magic_lo, shift } => loop {
                let v = rng.next_u64();
                if v <= zone {
                    return magic_rem(v, width, magic_lo, shift);
                }
            },
            FastUniform::Div { width, zone } => loop {
                let v = rng.next_u64();
                if v <= zone {
                    return v % width;
                }
            },
        }
    }

    /// Appends `k` draws to `buf` as `(index, 0)` placeholder pairs — the
    /// phase-one layout of the batched sampler. The arm match sits outside
    /// the loop and the loop is an exact-size `extend`, so the hot arm is
    /// pure register arithmetic: no growth call, no per-draw dispatch, no
    /// divide.
    fn fill(
        &self,
        rng: &mut (impl RngCore + ?Sized),
        k: usize,
        buf: &mut Vec<(u32, u32)>,
    ) {
        match *self {
            FastUniform::Magic { width, zone, magic_lo, shift } => {
                // `move` closures: the width constants become immediates
                // and registers instead of loads through the environment.
                // (A two-pass variant that pre-generates raw words into a
                // stack chunk measured ~25% slower here — the extra L1
                // round-trip costs more than the per-draw RNG state
                // spill it removes.)
                buf.extend((0..k).map(move |_| loop {
                    let v = rng.next_u64();
                    if v <= zone {
                        break (magic_rem(v, width, magic_lo, shift) as u32, 0);
                    }
                }));
            }
            FastUniform::Div { width, zone } => {
                buf.extend((0..k).map(move |_| loop {
                    let v = rng.next_u64();
                    if v <= zone {
                        break ((v % width) as u32, 0);
                    }
                }));
            }
        }
    }
}

impl BatchPairSampler for CsrScheduler {
    fn sample_batch<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        k: usize,
        buf: &mut Vec<(u32, u32)>,
    ) {
        self.draw_batch(rng, k, buf);
    }
}

impl SharedPairSampler for CsrScheduler {
    #[inline]
    fn draw(&self, rng: &mut dyn RngCore) -> (u32, u32) {
        let e = self.draw_edge(rng);
        (self.src_of(e), self.targets[e])
    }

    fn draw_batch<R: RngCore + ?Sized>(&self, rng: &mut R, k: usize, buf: &mut Vec<(u32, u32)>) {
        buf.clear();
        buf.reserve(k);
        // Identical stream to `k` sequential `sample` calls. On the
        // unmasked unweighted path the draws are split from the gathers:
        // phase one is pure arithmetic (RNG + index), phase two a
        // branch-free loop of independent random reads — nothing between
        // the loads for the out-of-order core to mispredict, so the cache
        // misses overlap up to the hardware's memory-level parallelism.
        // A fused draw-and-gather loop keeps the RNG's rejection branch in
        // front of every load and measurably caps that overlap.
        if self.live.is_none() && self.alias.is_none() {
            let m = self.targets.len();
            FastUniform::new(m as u64).fill(rng, k, buf);
            if let (Some(st), Some((d, shift))) = (self.stencil.as_ref(), self.regular) {
                let d = d as usize;
                match shift {
                    Some(shift) => {
                        let mask = (1usize << shift) - 1;
                        for p in buf.iter_mut() {
                            let e = p.0 as usize;
                            let u = e >> shift;
                            let base = usize::from(st.class[u]) * d;
                            let v = (u as i64 + st.table[base + (e & mask)]) as u32;
                            *p = (u as u32, v);
                        }
                    }
                    None => {
                        for p in buf.iter_mut() {
                            let e = p.0 as usize;
                            let u = e / d;
                            let base = usize::from(st.class[u]) * d;
                            let v = (u as i64 + st.table[base + (e - u * d)]) as u32;
                            *p = (u as u32, v);
                        }
                    }
                }
            } else {
                let narrow = self.narrow.as_ref();
                match self.regular {
                    Some((_, Some(shift))) => {
                        gather_pairs(narrow, &self.targets, buf, |e| (e >> shift) as u32);
                    }
                    Some((d, None)) => {
                        gather_pairs(narrow, &self.targets, buf, move |e| {
                            (e / d as usize) as u32
                        });
                    }
                    None => {
                        gather_pairs(narrow, &self.targets, buf, |e| self.srcs[e]);
                    }
                }
            }
        } else {
            for _ in 0..k {
                let e = self.draw_edge(rng);
                buf.push((self.src_of(e), self.targets[e]));
            }
        }
    }
}

/// Deterministically cycles through every ordered pair of a complete graph.
///
/// Every permitted encounter occurs once per round, which makes executions
/// driven by this scheduler fair in the intuitive sense of §1 (and, on any
/// protocol whose configuration sequence becomes periodic, in the formal
/// sense too). Ideal for reproducible tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundRobinScheduler {
    n: u32,
    next: u64,
}

impl RoundRobinScheduler {
    /// Creates a round-robin schedule over `n ≥ 2` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "population must have at least 2 agents");
        Self { n: n as u32, next: 0 }
    }
}

impl PairSampler for RoundRobinScheduler {
    fn sample(&mut self, _rng: &mut dyn RngCore) -> (u32, u32) {
        let pairs = u64::from(self.n) * u64::from(self.n - 1);
        let k = self.next % pairs;
        self.next += 1;
        let u = (k / u64::from(self.n - 1)) as u32;
        let mut v = (k % u64::from(self.n - 1)) as u32;
        if v >= u {
            v += 1;
        }
        (u, v)
    }

    fn population(&self) -> usize {
        self.n as usize
    }
}

/// Weighted random ordered pairs (§8's *weighted sampling* direction): the
/// initiator is drawn with probability proportional to its weight, and the
/// responder proportional to weight among the rest.
///
/// The paper conjectures that, with reasonable restrictions on the weights,
/// weighted sampling yields the same computational power as uniform
/// sampling; experiment E15 compares convergence behavior empirically.
///
/// Drawing uses a Walker alias table built once in the constructor, so each
/// draw costs `O(1)` — one uniform index plus one biased coin — instead of
/// a linear CDF scan. The responder (which must differ from the initiator)
/// is drawn by rejection against the same table; since the initiator's
/// weight share is at most that of the heaviest agent, the expected number
/// of rejections is bounded by `1 / (1 − w_max/W)`, and a bounded retry
/// budget falls back to an exact weighted scan over the remaining agents.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedPairScheduler {
    weights: Vec<f64>,
    total: f64,
    /// Alias-table acceptance probability of bucket `i` (Walker/Vose).
    prob: Vec<f64>,
    /// Alias-table donor index of bucket `i`.
    alias: Vec<u32>,
}

/// Rejection budget for the responder draw before falling back to the exact
/// weighted scan. With any sane weight profile a handful suffices; the
/// fallback keeps pathological profiles (one agent carrying almost all the
/// weight) correct rather than slow-looping.
const MAX_RESPONDER_REJECTS: u32 = 64;

impl WeightedPairScheduler {
    /// Creates a sampler with one positive weight per agent.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 weights are given or any weight is not a
    /// finite positive number.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(weights.len() >= 2, "population must have at least 2 agents");
        for &w in &weights {
            assert!(w.is_finite() && w > 0.0, "weights must be finite and positive");
        }
        let total: f64 = weights.iter().sum();
        let (prob, alias) = build_alias_table(&weights, total);
        Self { weights, total, prob, alias }
    }

    /// The agent weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// One `O(1)` draw from the alias table: pick a bucket uniformly, then
    /// accept it or take its alias.
    fn draw_alias(&self, rng: &mut dyn RngCore) -> u32 {
        let n = self.weights.len();
        let i = rng.gen_range(0..n);
        if rng.gen_f64() < self.prob[i] {
            i as u32
        } else {
            self.alias[i]
        }
    }

    /// Exact weighted draw over all agents except `skip` — the rejection
    /// fallback, and the reference law the alias path must match.
    fn draw_scan(&self, rng: &mut dyn RngCore, skip: usize) -> u32 {
        let total = self.total - self.weights[skip];
        let mut x = rng.gen_range(0.0..total);
        for (i, &w) in self.weights.iter().enumerate() {
            if i == skip {
                continue;
            }
            if x < w {
                return i as u32;
            }
            x -= w;
        }
        // Floating-point slack: return the last eligible agent.
        (0..self.weights.len())
            .rev()
            .find(|&i| i != skip)
            .expect("at least two agents") as u32
    }
}

/// Builds a Walker/Vose alias table for the distribution `weights / total`:
/// buckets with below-average weight are topped up by an above-average
/// donor, giving `P(i) = (prob[i] + Σ_{j: alias[j]=i} (1 − prob[j])) / n`.
fn build_alias_table(weights: &[f64], total: f64) -> (Vec<f64>, Vec<u32>) {
    let n = weights.len();
    let mut prob = vec![0.0f64; n];
    let mut alias: Vec<u32> = (0..n as u32).collect();
    // Scaled weights: mean 1 per bucket.
    let mut scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
    let mut small: Vec<usize> = (0..n).filter(|&i| scaled[i] < 1.0).collect();
    let mut large: Vec<usize> = (0..n).filter(|&i| scaled[i] >= 1.0).collect();
    while let Some(s) = small.pop() {
        let Some(l) = large.pop() else {
            // Floating-point slack only: an under-full bucket with no donor
            // left keeps full mass.
            prob[s] = 1.0;
            continue;
        };
        prob[s] = scaled[s];
        alias[s] = l as u32;
        // The donor gave away 1 − scaled[s] of its mass.
        scaled[l] -= 1.0 - scaled[s];
        if scaled[l] < 1.0 {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    // Leftover donors keep full mass.
    for i in large {
        prob[i] = 1.0;
    }
    (prob, alias)
}

impl PairSampler for WeightedPairScheduler {
    fn sample(&mut self, rng: &mut dyn RngCore) -> (u32, u32) {
        let u = self.draw_alias(rng);
        // Responder: same marginal as a weighted draw excluding `u`.
        for _ in 0..MAX_RESPONDER_REJECTS {
            let v = self.draw_alias(rng);
            if v != u {
                return (u, v);
            }
        }
        (u, self.draw_scan(rng, u as usize))
    }

    fn population(&self) -> usize {
        self.weights.len()
    }
}

/// Batch sampling via the default per-draw fallback.
impl BatchPairSampler for WeightedPairScheduler {}

/// Batch sampling via the default per-draw fallback.
impl BatchPairSampler for RoundRobinScheduler {}

/// Replays a fixed, possibly adversarial, schedule; panics when exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedScheduler {
    script: Vec<(u32, u32)>,
    pos: usize,
    n: usize,
}

impl ScriptedScheduler {
    /// Creates a scheduler replaying `script` over a population of size `n`.
    pub fn new(n: usize, script: Vec<(u32, u32)>) -> Self {
        Self { script, pos: 0, n }
    }

    /// Number of scripted interactions remaining.
    pub fn remaining(&self) -> usize {
        self.script.len() - self.pos
    }
}

impl PairSampler for ScriptedScheduler {
    fn sample(&mut self, _rng: &mut dyn RngCore) -> (u32, u32) {
        let e = self.script[self.pos];
        self.pos += 1;
        e
    }

    fn population(&self) -> usize {
        self.n
    }
}

/// Batch sampling via the default per-draw fallback.
impl BatchPairSampler for ScriptedScheduler {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn alias_table_encodes_exact_marginals() {
        // The table's implied law P(i) = (prob[i] + Σ_{j: alias[j]=i}
        // (1 − prob[j])) / n must equal w_i / W.
        let weights = vec![8.0, 1.0, 1.0, 1.0, 1.0, 0.5, 3.5];
        let total: f64 = weights.iter().sum();
        let (prob, alias) = build_alias_table(&weights, total);
        let n = weights.len();
        for (i, &w) in weights.iter().enumerate() {
            let mut p = prob[i];
            for j in 0..n {
                if alias[j] as usize == i && j != i {
                    p += 1.0 - prob[j];
                }
            }
            let expect = w * n as f64 / total;
            assert!((p - expect).abs() < 1e-12, "agent {i}: {p} vs {expect}");
        }
    }

    #[test]
    fn uniform_pairs_are_distinct_and_in_range() {
        let mut s = UniformPairScheduler::new(5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let (u, v) = s.sample(&mut rng);
            assert_ne!(u, v);
            assert!(u < 5 && v < 5);
        }
    }

    #[test]
    fn uniform_pairs_cover_all_ordered_pairs_roughly_uniformly() {
        let n = 4u32;
        let mut s = UniformPairScheduler::new(n as usize);
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = std::collections::HashMap::new();
        let trials = 120_000;
        for _ in 0..trials {
            *hits.entry(s.sample(&mut rng)).or_insert(0u32) += 1;
        }
        assert_eq!(hits.len(), (n * (n - 1)) as usize);
        let expect = trials as f64 / (n * (n - 1)) as f64;
        for (&pair, &c) in &hits {
            let ratio = f64::from(c) / expect;
            assert!((0.9..1.1).contains(&ratio), "pair {pair:?} ratio {ratio}");
        }
    }

    #[test]
    fn edge_list_scheduler_samples_only_listed_edges() {
        let edges = vec![(0, 1), (1, 2), (2, 0)];
        let mut s = EdgeListScheduler::new(3, edges.clone());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let e = s.sample(&mut rng);
            assert!(edges.contains(&e));
        }
        assert_eq!(s.population(), 3);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_list_rejects_self_loops() {
        EdgeListScheduler::new(3, vec![(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_list_rejects_out_of_range() {
        EdgeListScheduler::new(3, vec![(0, 7)]);
    }

    #[test]
    fn try_new_reports_structured_errors() {
        assert_eq!(
            UniformPairScheduler::try_new(1).unwrap_err(),
            PopulationError::PopulationTooSmall { n: 1 },
        );
        assert_eq!(UniformPairScheduler::try_new(2).unwrap().population(), 2);
        assert_eq!(
            EdgeListScheduler::try_new(3, vec![]).unwrap_err(),
            PopulationError::NoEdges,
        );
        assert_eq!(
            EdgeListScheduler::try_new(3, vec![(0, 1), (2, 2)]).unwrap_err(),
            PopulationError::SelfLoop { agent: 2 },
        );
        assert_eq!(
            EdgeListScheduler::try_new(3, vec![(0, 1), (5, 1)]).unwrap_err(),
            PopulationError::EdgeOutOfRange { agent: 5, n: 3 },
        );
        assert!(EdgeListScheduler::try_new(3, vec![(0, 1)]).is_ok());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn uniform_new_panics_on_tiny_population() {
        UniformPairScheduler::new(1);
    }

    #[test]
    fn round_robin_covers_every_ordered_pair_each_round() {
        let n = 5usize;
        let mut s = RoundRobinScheduler::new(n);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n * (n - 1) {
            let (u, v) = s.sample(&mut rng);
            assert_ne!(u, v);
            assert!(seen.insert((u, v)), "duplicate pair ({u},{v}) within a round");
        }
        assert_eq!(seen.len(), n * (n - 1));
    }

    #[test]
    fn weighted_sampler_respects_weights() {
        // Agent 0 has weight 8, agents 1..4 weight 1 each: agent 0 should
        // initiate ~8/12 of the time.
        let mut s = WeightedPairScheduler::new(vec![8.0, 1.0, 1.0, 1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut zero_initiates = 0u32;
        let trials = 60_000;
        for _ in 0..trials {
            let (u, v) = s.sample(&mut rng);
            assert_ne!(u, v);
            assert!(u < 5 && v < 5);
            if u == 0 {
                zero_initiates += 1;
            }
        }
        let rate = f64::from(zero_initiates) / f64::from(trials);
        assert!((rate - 8.0 / 12.0).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn uniform_weights_match_uniform_sampler_distribution() {
        let mut s = WeightedPairScheduler::new(vec![1.0; 4]);
        let mut rng = StdRng::seed_from_u64(6);
        let mut hits = std::collections::HashMap::new();
        let trials = 120_000;
        for _ in 0..trials {
            *hits.entry(s.sample(&mut rng)).or_insert(0u32) += 1;
        }
        assert_eq!(hits.len(), 12);
        let expect = trials as f64 / 12.0;
        for (&pair, &c) in &hits {
            let ratio = f64::from(c) / expect;
            assert!((0.9..1.1).contains(&ratio), "pair {pair:?} ratio {ratio}");
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn weighted_rejects_nonpositive_weights() {
        WeightedPairScheduler::new(vec![1.0, 0.0]);
    }

    #[test]
    fn edge_list_duplicates_act_as_weights() {
        // Edge (0,1) listed 3 times, (1,2) once: (0,1) drawn ~3/4.
        let mut s = EdgeListScheduler::new(3, vec![(0, 1), (0, 1), (0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(8);
        let trials = 40_000;
        let heavy = (0..trials).filter(|_| s.sample(&mut rng) == (0, 1)).count();
        let rate = heavy as f64 / f64::from(trials);
        assert!((rate - 0.75).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn edge_list_live_pairs_counts_live_slots() {
        let s = EdgeListScheduler::new(4, vec![(0, 1), (0, 1), (2, 3)]);
        assert_eq!(s.live_pairs(&|_| true), Some(3));
        assert_eq!(s.live_pairs(&|a| a != 3), Some(2));
        assert_eq!(s.live_pairs(&|a| a >= 2), Some(1));
        assert_eq!(s.live_pairs(&|a| a == 0), Some(0));
        let u = UniformPairScheduler::new(5);
        assert_eq!(u.live_pairs(&|_| true), Some(20));
        assert_eq!(u.live_pairs(&|a| a < 3), Some(6));
        assert_eq!(u.live_pairs(&|a| a == 1), Some(0));
    }

    #[test]
    fn csr_merges_duplicates_into_weights() {
        let s = CsrScheduler::new(3, &[(0, 1), (1, 2), (0, 1), (2, 0)]);
        assert_eq!(s.edge_count(), 3, "duplicate (0,1) merged");
        assert_eq!(s.neighbors(0), &[1]);
        assert_eq!(s.weights().unwrap(), &[2.0, 1.0, 1.0]);
        // Merged weights preserve the slot-multiplicity law: (0,1) ~ 1/2.
        let mut s = s;
        let mut rng = StdRng::seed_from_u64(10);
        let trials = 40_000;
        let heavy = (0..trials).filter(|_| s.sample(&mut rng) == (0, 1)).count();
        let rate = heavy as f64 / f64::from(trials);
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn csr_simple_graph_is_uniform_over_edges() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (2, 1)];
        let mut s = CsrScheduler::new(3, &edges);
        assert!(s.weights().is_none());
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = std::collections::HashMap::new();
        let trials = 80_000;
        for _ in 0..trials {
            *hits.entry(s.sample(&mut rng)).or_insert(0u32) += 1;
        }
        assert_eq!(hits.len(), 4);
        for (&pair, &c) in &hits {
            let ratio = f64::from(c) / (trials as f64 / 4.0);
            assert!((0.9..1.1).contains(&ratio), "pair {pair:?} ratio {ratio}");
        }
    }

    #[test]
    fn csr_mask_live_preconditions_draws() {
        let mut s = CsrScheduler::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        // Crash agent 3: edges (2,3) and (3,0) die.
        assert_eq!(s.mask_live(&|a| a != 3), Some(2));
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..2000 {
            let (u, v) = s.sample(&mut rng);
            assert!(u != 3 && v != 3, "masked draw hit a crashed agent");
        }
        // Everyone live again: the view is dropped.
        assert_eq!(s.mask_live(&|_| true), Some(4));
        // Full starvation is structural, not a spin.
        assert_eq!(s.mask_live(&|a| a == 0), Some(0));
    }

    #[test]
    fn csr_masked_weighted_graph_reweights_live_edges() {
        // (0,1) ×2, (1,2) ×1, (2,3) ×1; crash 3 → live edges (0,1) w2,
        // (1,2) w1 → (0,1) at 2/3.
        let mut s = CsrScheduler::new(4, &[(0, 1), (0, 1), (1, 2), (2, 3)]);
        assert_eq!(s.mask_live(&|a| a != 3), Some(2));
        let mut rng = StdRng::seed_from_u64(13);
        let trials = 40_000;
        let heavy = (0..trials).filter(|_| s.sample(&mut rng) == (0, 1)).count();
        let rate = heavy as f64 / f64::from(trials);
        assert!((rate - 2.0 / 3.0).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn csr_from_csr_validates() {
        let s = CsrScheduler::from_csr(3, vec![0, 1, 2, 3], vec![1, 2, 0]).unwrap();
        assert_eq!(s.edge(0), (0, 1));
        assert_eq!(s.edge(2), (2, 0));
        assert!(matches!(
            CsrScheduler::from_csr(3, vec![0, 2, 1, 3], vec![1, 2, 0]),
            Err(PopulationError::UnrepresentableInput { .. })
        ));
        assert_eq!(
            CsrScheduler::from_csr(3, vec![0, 0, 0, 0], vec![]),
            Err(PopulationError::NoEdges)
        );
        assert_eq!(
            CsrScheduler::from_csr(2, vec![0, 1, 2], vec![1, 5]),
            Err(PopulationError::EdgeOutOfRange { agent: 5, n: 2 })
        );
        assert_eq!(
            CsrScheduler::from_csr(2, vec![0, 1, 2], vec![0, 0]),
            Err(PopulationError::SelfLoop { agent: 0 })
        );
    }

    #[test]
    fn csr_try_new_reports_structured_errors() {
        assert_eq!(CsrScheduler::try_new(3, &[]), Err(PopulationError::NoEdges));
        assert_eq!(
            CsrScheduler::try_new(3, &[(0, 1), (2, 2)]),
            Err(PopulationError::SelfLoop { agent: 2 })
        );
        assert_eq!(
            CsrScheduler::try_new(3, &[(0, 5)]),
            Err(PopulationError::EdgeOutOfRange { agent: 5, n: 3 })
        );
    }

    #[test]
    fn regular_csr_computes_srcs_identically_to_stored_column() {
        // A directed 3-regular circulant (degrees 3 — not a power of two)
        // and a 4-regular torus-like ring (power of two): both must sample
        // the exact same pairs as EdgeListScheduler over the same sorted
        // edge list, with the same RNG stream — `srcs[e] == e / d`.
        for d in [3u32, 4] {
            let n = 11u32;
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for u in 0..n {
                for j in 1..=d {
                    edges.push((u, (u + j) % n));
                }
            }
            edges.sort_unstable();
            let mut csr = CsrScheduler::new(n as usize, &edges);
            let mut flat = EdgeListScheduler::new(n as usize, edges.clone());
            let mut rng_a = StdRng::seed_from_u64(u64::from(d));
            let mut rng_b = StdRng::seed_from_u64(u64::from(d));
            for _ in 0..4_000 {
                assert_eq!(csr.sample(&mut rng_a), flat.sample(&mut rng_b));
            }
            for (e, &pair) in edges.iter().enumerate() {
                assert_eq!(csr.edge(e), pair);
            }
            // The live-edge machinery also resolves computed sources:
            // crashing one agent kills its d out-edges and d in-edges.
            assert_eq!(csr.live_pairs(&|a| a != 0), Some(u64::from((n - 2) * d)));
        }
    }

    /// Sorted-neighbor CSR arrays of a `side × side` torus.
    fn torus_csr(side: usize) -> (usize, Vec<u32>, Vec<u32>) {
        let n = side * side;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(4 * n);
        offsets.push(0u32);
        for r in 0..side {
            for c in 0..side {
                let at = |r: usize, c: usize| (r * side + c) as u32;
                let mut nb = [
                    at((r + side - 1) % side, c),
                    at((r + 1) % side, c),
                    at(r, (c + side - 1) % side),
                    at(r, (c + 1) % side),
                ];
                nb.sort_unstable();
                targets.extend_from_slice(&nb);
                offsets.push(targets.len() as u32);
            }
        }
        (n, offsets, targets)
    }

    /// Batch draws must equal `k` sequential draws (which read the wide
    /// column) on the same seed, and leave the RNG at the same position.
    fn assert_batch_matches_sequential(csr: &mut CsrScheduler, seed: u64, k: usize) {
        let mut seq = csr.clone();
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let mut buf = Vec::new();
        csr.sample_batch(&mut rng_a, k, &mut buf);
        for (i, &pair) in buf.iter().enumerate() {
            assert_eq!(pair, seq.sample(&mut rng_b), "draw {i}");
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "streams must align");
    }

    /// Sorted-neighbor CSR arrays of a `side³` 3D torus (6-regular).
    fn torus3d_csr_arrays(side: usize) -> (usize, Vec<u32>, Vec<u32>) {
        let n = side * side * side;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(6 * n);
        offsets.push(0u32);
        for z in 0..side {
            for y in 0..side {
                for x in 0..side {
                    let at = |z: usize, y: usize, x: usize| {
                        ((z * side + y) * side + x) as u32
                    };
                    let mut nb = [
                        at(z, y, (x + side - 1) % side),
                        at(z, y, (x + 1) % side),
                        at(z, (y + side - 1) % side, x),
                        at(z, (y + 1) % side, x),
                        at((z + side - 1) % side, y, x),
                        at((z + 1) % side, y, x),
                    ];
                    nb.sort_unstable();
                    targets.extend_from_slice(&nb);
                    offsets.push(targets.len() as u32);
                }
            }
        }
        (n, offsets, targets)
    }

    #[test]
    fn stencil_handles_the_6_neighbor_lattice_unchanged() {
        // A side³ 3D torus is 6-regular with at most 27 neighborhood shapes
        // (each axis is interior, low-wrap, or high-wrap), so the existing
        // stencil-dictionary build must compress it exactly as it does the
        // 2D torus — no code path changes for the third dimension.
        let (n, offsets, targets) = torus3d_csr_arrays(12);
        let mut csr = CsrScheduler::from_csr(n, offsets, targets).unwrap();
        let st = csr.stencil.as_ref().expect("regular 3D torus must build a stencil");
        assert_eq!(st.class.len(), n);
        assert_eq!(st.table.len() % 6, 0);
        assert!(st.table.len() / 6 <= 27, "a 3D torus has at most 27 shapes");
        assert!(csr.narrow.is_none(), "stencil supersedes the narrow column");
        assert_batch_matches_sequential(&mut csr, 27, 40_000);
    }

    #[test]
    fn stencil_targets_resolve_identically_to_wide_column() {
        // A 260×260 torus is 4-regular with nine neighborhood shapes
        // (interior, four wrap sides, four corners), so the batched gather
        // takes the stencil-dictionary path.
        let (n, offsets, targets) = torus_csr(260);
        let mut csr = CsrScheduler::from_csr(n, offsets, targets).unwrap();
        let st = csr.stencil.as_ref().expect("regular torus must build a stencil");
        assert_eq!(st.class.len(), n);
        assert_eq!(st.table.len() % 4, 0);
        assert!(st.table.len() / 4 <= 9, "a torus has at most nine shapes");
        assert!(csr.narrow.is_none(), "stencil supersedes the narrow column");
        assert_batch_matches_sequential(&mut csr, 260, 40_000);
    }

    #[test]
    fn narrow_targets_resolve_identically_to_wide_column() {
        // Dropping one edge de-regularizes the torus, so the stencil bails
        // and the fallback narrow column is built: interior deltas (±1,
        // ±260) and horizontal wraps (±259) fit an i16; the 2·260 vertical
        // wrap edges (±259·260) overflow and land on the exception list.
        // The batched gather (narrow column + sentinel branch) must produce
        // the exact pairs the sequential draws read from the wide column.
        let side = 260usize;
        let (n, mut offsets, mut targets) = torus_csr(side);
        targets.remove(0); // vertex 0 loses its delta-1 neighbor
        for o in &mut offsets[1..] {
            *o -= 1;
        }
        let mut csr = CsrScheduler::from_csr(n, offsets, targets).unwrap();
        assert!(csr.stencil.is_none(), "irregular graph must not stencil");
        let nt = csr.narrow.as_ref().expect("torus deltas must compress");
        assert_eq!(nt.exceptions.len(), 2 * side);
        assert!(nt.exceptions.windows(2).all(|w| w[0].0 < w[1].0));

        let mut seq = csr.clone();
        let mut rng_a = StdRng::seed_from_u64(260);
        let mut rng_b = StdRng::seed_from_u64(260);
        let mut buf = Vec::new();
        // 40_000 draws hit the 0.38% exception edges ~150 times.
        csr.sample_batch(&mut rng_a, 40_000, &mut buf);
        let hits = buf
            .iter()
            .filter(|&&(u, v)| {
                i16::try_from(i64::from(v) - i64::from(u)).is_err()
            })
            .count();
        assert!(hits > 0, "draws must exercise the exception branch");
        for (i, &pair) in buf.iter().enumerate() {
            assert_eq!(pair, seq.sample(&mut rng_b), "draw {i}");
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "streams must align");
    }

    #[test]
    fn fast_uniform_matches_gen_range() {
        // The magic-multiply remainder must agree with `gen_range`'s
        // hardware divide on the identical RNG stream: same words consumed,
        // same value returned, for power-of-two, tiny, huge, and
        // rejection-heavy widths alike.
        let widths = [
            1u64,
            2,
            3,
            5,
            7,
            64,
            1000,
            4_000_000,
            (1 << 32) - 1,
            (1 << 32) + 1,
            (1 << 40) + 12345,
            (1 << 62) + 999,          // zone rejects almost half the words
            (1 << 63) - 1,
            1 << 63,                  // power of two at the Div boundary
            (1 << 63) + 1,            // Div fallback
            u64::MAX,
        ];
        for &w in &widths {
            let fu = FastUniform::new(w);
            let mut rng_a = StdRng::seed_from_u64(w ^ 0x5eed);
            let mut rng_b = StdRng::seed_from_u64(w ^ 0x5eed);
            for _ in 0..2_000 {
                assert_eq!(
                    fu.draw(&mut rng_a),
                    rng_b.gen_range(0..w),
                    "width {w}"
                );
            }
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "width {w} stream");
        }
    }

    #[test]
    fn sample_batch_matches_sequential_stream() {
        // The monomorphized batch loops must consume the RNG exactly as the
        // sequential draws do.
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (2, 1), (1, 0)];
        let mut a = CsrScheduler::new(3, &edges);
        let mut b = a.clone();
        let mut buf = Vec::new();
        let mut rng_a = StdRng::seed_from_u64(14);
        let mut rng_b = StdRng::seed_from_u64(14);
        a.sample_batch(&mut rng_a, 257, &mut buf);
        let seq: Vec<(u32, u32)> = (0..257).map(|_| b.sample(&mut rng_b)).collect();
        assert_eq!(buf, seq);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "streams must stay aligned");

        let mut a = UniformPairScheduler::new(9);
        let mut b = a;
        let mut rng_a = StdRng::seed_from_u64(15);
        let mut rng_b = StdRng::seed_from_u64(15);
        a.sample_batch(&mut rng_a, 100, &mut buf);
        let seq: Vec<(u32, u32)> = (0..100).map(|_| b.sample(&mut rng_b)).collect();
        assert_eq!(buf, seq);

        let mut a = EdgeListScheduler::new(3, edges.to_vec());
        let mut b = a.clone();
        let mut rng_a = StdRng::seed_from_u64(16);
        let mut rng_b = StdRng::seed_from_u64(16);
        a.sample_batch(&mut rng_a, 100, &mut buf);
        let seq: Vec<(u32, u32)> = (0..100).map(|_| b.sample(&mut rng_b)).collect();
        assert_eq!(buf, seq);
    }

    #[test]
    fn scripted_replays_in_order() {
        let mut s = ScriptedScheduler::new(3, vec![(0, 1), (2, 1)]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.sample(&mut rng), (0, 1));
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.sample(&mut rng), (2, 1));
    }
}
