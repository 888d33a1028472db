//! # galo-workloads
//!
//! Synthetic evaluation workloads for the GALO reproduction:
//!
//! * [`tpcds::workload`] — a TPC-DS-like star schema at 1 GB-scale row
//!   counts (taken from the paper's own figures) with 99 deterministic
//!   queries spanning 1–31 joins;
//! * [`client::workload`] — an insurance-style stand-in for the paper's
//!   proprietary IBM client workload (116 queries), with hero tables at
//!   the magnitudes of the paper's Figure 1 and a band of mid-size tables
//!   structurally mirroring TPC-DS facts (enabling cross-workload template
//!   reuse, Exp-2).
//!
//! Both databases carry planted *quirks* — belief/truth divergences that
//! reproduce the paper's four problem-pattern families.

pub mod builder;
pub mod client;
pub mod scenario;
pub mod tpcds;

use galo_catalog::Database;
use galo_sql::Query;

pub use builder::QueryBuilder;
pub use scenario::{OpMix, Scenario, ScenarioOp, ScenarioParseError, ScenarioSpec};

/// A workload: a populated database plus its periodic query set
/// (the paper's definition, §2).
pub struct Workload {
    pub name: String,
    pub db: Database,
    pub queries: Vec<Query>,
}

/// Deterministic round-robin assignment of work items to learner nodes.
///
/// The paper's knowledge base is "built off-peak by parallel learner
/// machines" (§4): each machine mines a partition of the workload and
/// appends its templates to the shared store. The partitioner is the
/// contract that makes that split coordination-free — every node computes
/// the same assignment from `(nodes, item index)` alone, so N machines
/// agree on who owns what without exchanging a single message, and the
/// union of all nodes' slices covers every item exactly once.
///
/// Items are abstract indices: the learner cluster partitions the
/// workload's *unique sub-query mining space* (the expensive part of
/// learning), while [`Partitioner::partition_queries`] splits the raw
/// query list for coarser distribution schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    nodes: usize,
}

impl Partitioner {
    /// A partitioner over `nodes` learner machines (clamped to ≥ 1).
    pub fn new(nodes: usize) -> Self {
        Partitioner {
            nodes: nodes.max(1),
        }
    }

    /// Number of nodes the work is split across.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node that owns work item `item` (round-robin).
    pub fn node_of(&self, item: usize) -> usize {
        item % self.nodes
    }

    /// True when `node` owns work item `item`.
    pub fn owns(&self, node: usize, item: usize) -> bool {
        self.node_of(item) == node
    }

    /// The items out of `0..total` assigned to `node`, ascending.
    pub fn assigned(&self, node: usize, total: usize) -> Vec<usize> {
        (0..total).filter(|&i| self.owns(node, i)).collect()
    }

    /// Split a workload's query list across the nodes: slot `k` of the
    /// result holds node `k`'s queries, in workload order. Every query
    /// appears in exactly one slot.
    pub fn partition_queries<'a>(&self, workload: &'a Workload) -> Vec<Vec<&'a Query>> {
        let mut parts: Vec<Vec<&'a Query>> = vec![Vec::new(); self.nodes];
        for (i, q) in workload.queries.iter().enumerate() {
            parts[self.node_of(i)].push(q);
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_covers_every_item_exactly_once() {
        for nodes in 1..=5 {
            let p = Partitioner::new(nodes);
            let total = 17;
            let mut seen = vec![0usize; total];
            for node in 0..nodes {
                for item in p.assigned(node, total) {
                    assert!(p.owns(node, item));
                    seen[item] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "nodes={nodes}: {seen:?}");
            // Round-robin balance: slice sizes differ by at most one.
            let sizes: Vec<usize> = (0..nodes).map(|n| p.assigned(n, total).len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "{sizes:?}");
        }
    }

    #[test]
    fn zero_nodes_clamps_to_one() {
        let p = Partitioner::new(0);
        assert_eq!(p.nodes(), 1);
        assert_eq!(p.node_of(7), 0);
    }

    #[test]
    fn query_partitions_are_disjoint_and_ordered() {
        let w = tpcds::workload();
        let p = Partitioner::new(3);
        let parts = p.partition_queries(&w);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, w.queries.len());
        // Each slot preserves workload order; slots are disjoint by name.
        let mut names: Vec<&str> = Vec::new();
        for part in &parts {
            for pair in part.windows(2) {
                let i = w.queries.iter().position(|q| q.name == pair[0].name);
                let j = w.queries.iter().position(|q| q.name == pair[1].name);
                assert!(i < j);
            }
            names.extend(part.iter().map(|q| q.name.as_str()));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), w.queries.len());
    }
}
