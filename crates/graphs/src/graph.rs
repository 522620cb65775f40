//! The [`InteractionGraph`] type: agents plus permitted encounters.

use pp_core::scheduler::EdgeListScheduler;

/// A directed, irreflexive interaction graph on agents `0..n`.
///
/// Edge `(u, v)` permits an encounter with `u` as initiator and `v` as
/// responder. The graph owns a deduplicated, sorted edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionGraph {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl InteractionGraph {
    /// Builds a graph over `n` agents with the given directed edges.
    ///
    /// Duplicate edges are removed; edges are stored sorted.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, any edge is a self-loop, or an endpoint is out of
    /// range.
    pub fn new(n: usize, mut edges: Vec<(u32, u32)>) -> Self {
        assert!(n >= 2, "population must have at least 2 agents");
        for &(u, v) in &edges {
            assert!(u != v, "self-loop on agent {u}");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for population of size {n}"
            );
        }
        edges.sort_unstable();
        edges.dedup();
        Self { n, edges }
    }

    /// Number of agents.
    pub fn population(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The sorted directed edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Whether `(u, v)` is a permitted encounter.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.edges.binary_search(&(u, v)).is_ok()
    }

    /// Undirected adjacency lists (neighbors in either direction).
    pub fn undirected_adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(u, v) in &self.edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        adj
    }

    /// Whether the graph is weakly connected (connected when edge directions
    /// are ignored). Theorem 7 requires weak connectivity of the target
    /// population.
    pub fn is_weakly_connected(&self) -> bool {
        let adj = self.undirected_adjacency();
        let mut seen = vec![false; self.n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut visited = 1;
        while let Some(u) = stack.pop() {
            for &v in &adj[u as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    visited += 1;
                    stack.push(v);
                }
            }
        }
        visited == self.n
    }

    /// A spanning tree of the underlying undirected graph, as
    /// `parent[child]` pairs rooted at agent 0 (the root maps to itself).
    ///
    /// Returns `None` if the graph is not weakly connected.
    pub fn spanning_tree(&self) -> Option<Vec<u32>> {
        let adj = self.undirected_adjacency();
        let mut parent = vec![u32::MAX; self.n];
        parent[0] = 0;
        let mut queue = std::collections::VecDeque::from([0u32]);
        let mut visited = 1;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u as usize] {
                if parent[v as usize] == u32::MAX {
                    parent[v as usize] = u;
                    visited += 1;
                    queue.push_back(v);
                }
            }
        }
        (visited == self.n).then_some(parent)
    }

    /// Leaves of the spanning tree returned by
    /// [`spanning_tree`](Self::spanning_tree): nodes that are no other
    /// node's parent.
    pub fn spanning_tree_leaves(&self) -> Option<Vec<u32>> {
        let parent = self.spanning_tree()?;
        let mut is_parent = vec![false; self.n];
        for (child, &p) in parent.iter().enumerate() {
            if child as u32 != p {
                is_parent[p as usize] = true;
            }
        }
        Some(
            (0..self.n as u32)
                .filter(|&v| !is_parent[v as usize])
                .collect(),
        )
    }

    /// A uniform-random-edge scheduler over this graph, as required by the
    /// conjugating-automaton sampling rule restricted to `E` (§6).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    pub fn scheduler(&self) -> EdgeListScheduler {
        EdgeListScheduler::new(self.n, self.edges.clone())
    }

    /// [`scheduler`](Self::scheduler) without the copy: the edge list moves
    /// into the sampler.
    pub fn into_scheduler(self) -> EdgeListScheduler {
        EdgeListScheduler::new(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_sort() {
        let g = InteractionGraph::new(3, vec![(2, 0), (0, 1), (2, 0)]);
        assert_eq!(g.edges(), &[(0, 1), (2, 0)]);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        InteractionGraph::new(3, vec![(1, 1)]);
    }

    #[test]
    fn weak_connectivity() {
        let connected = InteractionGraph::new(4, vec![(0, 1), (2, 1), (3, 2)]);
        assert!(connected.is_weakly_connected());
        let split = InteractionGraph::new(4, vec![(0, 1), (2, 3)]);
        assert!(!split.is_weakly_connected());
    }

    #[test]
    fn spanning_tree_covers_all_agents() {
        let g = InteractionGraph::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let parent = g.spanning_tree().unwrap();
        assert_eq!(parent[0], 0);
        for v in 1..5 {
            // Walk to the root.
            let mut cur = v as u32;
            let mut hops = 0;
            while cur != 0 {
                cur = parent[cur as usize];
                hops += 1;
                assert!(hops <= 5, "cycle in spanning tree");
            }
        }
    }

    #[test]
    fn spanning_tree_none_when_disconnected() {
        let g = InteractionGraph::new(4, vec![(0, 1), (2, 3)]);
        assert!(g.spanning_tree().is_none());
        assert!(g.spanning_tree_leaves().is_none());
    }

    #[test]
    fn line_leaves_are_endpoints() {
        let g = InteractionGraph::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let leaves = g.spanning_tree_leaves().unwrap();
        assert_eq!(leaves, vec![3]);
        // In a path rooted at 0, only the far endpoint is a leaf by the
        // parent-based definition (0 is the root and parent of 1).
    }
}
