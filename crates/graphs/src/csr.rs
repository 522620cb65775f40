//! Compressed-sparse-row storage for large interaction graphs.
//!
//! [`InteractionGraph`] keeps an explicit sorted `(u, v)` edge list — ideal
//! for small graphs and exact set queries, but at 10⁸ agents the 8-byte
//! tuples and the sort dominate. [`CsrGraph`] stores the same directed graph
//! as `offsets` (length `n + 1`) plus a flat `edges` array of targets
//! grouped by initiator: half the memory, no per-edge tuple, and `O(1)`
//! neighbor slicing. [`CsrGraph::scheduler`] hands the arrays straight to
//! [`pp_core::scheduler::CsrScheduler`] for uniform edge sampling.
//!
//! Edge and offset indices are `u32`: populations up to `u32::MAX` agents
//! and graphs up to `u32::MAX` directed edges (a 10⁸-agent torus has
//! `4 × 10⁸` edges, comfortably inside).

use pp_core::scheduler::CsrScheduler;

use crate::graph::InteractionGraph;

/// A directed, irreflexive interaction graph in compressed-sparse-row form:
/// the targets of agent `u`'s out-edges are
/// `edges[offsets[u] .. offsets[u + 1]]`, sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    n: usize,
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl CsrGraph {
    /// Converts an [`InteractionGraph`] (whose edge list is already sorted
    /// and deduplicated) into CSR form in one counting pass.
    pub fn from_graph(g: &InteractionGraph) -> Self {
        let n = g.population();
        let mut offsets = vec![0u32; n + 1];
        for &(u, _) in g.edges() {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let edges = g.edges().iter().map(|&(_, v)| v).collect();
        Self { n, offsets, edges }
    }

    /// Builds a CSR graph over `n` agents from an arbitrary directed edge
    /// list (counting sort by initiator; targets sorted and deduplicated per
    /// row).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, any edge is a self-loop, an endpoint is out of
    /// range, or the edge count overflows `u32`.
    pub fn from_edges(n: usize, edge_list: &[(u32, u32)]) -> Self {
        assert!(n >= 2, "population must have at least 2 agents");
        u32::try_from(edge_list.len()).expect("edge count exceeds u32::MAX");
        let mut counts = vec![0u32; n + 1];
        for &(u, v) in edge_list {
            assert!(u != v, "self-loop on agent {u}");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for population of size {n}"
            );
            counts[u as usize + 1] += 1;
        }
        let mut offsets = counts;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut edges = vec![0u32; edge_list.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in edge_list {
            edges[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
        // Sort and dedup each row in place, then compact.
        let mut write = 0usize;
        let mut new_offsets = vec![0u32; n + 1];
        for u in 0..n {
            let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
            let row = &mut edges[start..end];
            row.sort_unstable();
            let mut prev: Option<u32> = None;
            let row_start = write;
            for i in start..end {
                let v = edges[i];
                if prev != Some(v) {
                    edges[write] = v;
                    write += 1;
                    prev = Some(v);
                }
            }
            new_offsets[u] = row_start as u32;
        }
        new_offsets[n] = write as u32;
        edges.truncate(write);
        Self { n, offsets: new_offsets, edges }
    }

    /// Assembles a CSR graph from pre-built arrays; the caller guarantees
    /// the invariants (monotone offsets, per-row sorted targets, no
    /// self-loops). Used by sort-free builders like
    /// [`torus2d_csr`](crate::generators::torus2d_csr).
    pub(crate) fn from_raw_parts(n: usize, offsets: Vec<u32>, edges: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.len(), n + 1);
        debug_assert_eq!(*offsets.last().unwrap() as usize, edges.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { n, offsets, edges }
    }

    /// Number of agents.
    pub fn population(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Out-degree of agent `u`.
    pub fn degree(&self, u: u32) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Sorted out-neighbors of agent `u`.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.edges[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// The row-offset array (length `population() + 1`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat target array, grouped by initiator.
    pub fn targets(&self) -> &[u32] {
        &self.edges
    }

    /// Whether `(u, v)` is a permitted encounter.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// A uniform-random-edge sampler over this graph — the scalable
    /// counterpart of [`InteractionGraph::scheduler`].
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    pub fn scheduler(&self) -> CsrScheduler {
        self.clone().into_scheduler()
    }

    /// [`scheduler`](Self::scheduler) without the copy: the CSR arrays move
    /// into the sampler.
    pub fn into_scheduler(self) -> CsrScheduler {
        CsrScheduler::from_csr(self.n, self.offsets, self.edges).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl From<&InteractionGraph> for CsrGraph {
    fn from(g: &InteractionGraph) -> Self {
        Self::from_graph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_graph_matches_edge_list() {
        let g = InteractionGraph::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]);
        let c = CsrGraph::from_graph(&g);
        assert_eq!(c.population(), 4);
        assert_eq!(c.edge_count(), g.edge_count());
        assert_eq!(c.neighbors(1), &[2, 3]);
        assert_eq!(c.degree(0), 1);
        assert!(c.has_edge(3, 0));
        assert!(!c.has_edge(0, 3));
    }

    #[test]
    fn from_edges_sorts_and_dedups_rows() {
        let c = CsrGraph::from_edges(3, &[(2, 0), (0, 2), (0, 1), (0, 2), (2, 1)]);
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbors(1), &[] as &[u32]);
        assert_eq!(c.neighbors(2), &[0, 1]);
        assert_eq!(c.edge_count(), 4);
        assert_eq!(c.offsets(), &[0, 2, 2, 4]);
    }

    #[test]
    fn csr_agrees_with_interaction_graph_on_random_family() {
        let g = crate::generators::undirected_cycle(9);
        let c = CsrGraph::from_graph(&g);
        for &(u, v) in g.edges() {
            assert!(c.has_edge(u, v));
        }
        assert_eq!(c.edge_count(), g.edge_count());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_edges_rejects_self_loop() {
        CsrGraph::from_edges(3, &[(1, 1)]);
    }

    #[test]
    fn scheduler_population_matches() {
        let c = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let s = c.scheduler();
        assert_eq!(pp_core::scheduler::PairSampler::population(&s), 5);
    }
}
