//! Connected backbones from dominating sets.
//!
//! The paper's introduction motivates dominating sets as *virtual
//! backbones* for routing [1, 22, 23]. A backbone must be **connected** to
//! route, and a (k-fold) dominating set is not automatically so. This
//! module implements the classic connection step: any two dominators of
//! neighboring clusters are within 3 hops, so joining clusters along
//! ordinary graph edges with at most two *connector* nodes per join yields
//! a connected dominating set of size at most `3·|S| − 2` per connected
//! component — the approach of Wan, Alzoubi & Frieder (INFOCOM 2002),
//! reference \[22\] of the paper.
//!
//! The input set keeps its k-fold domination property (we only add nodes).

use crate::{DominatingSet, KmdsError};
use ftclust_graphs::{Graph, NodeId};
use std::collections::VecDeque;

/// Union–find over node ids.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            false
        } else {
            self.parent[ra as usize] = rb;
            true
        }
    }
}

/// Extends a dominating set to a **connected** dominating set by adding
/// connector nodes.
///
/// Every non-dominator is labeled with its lowest-id dominator neighbor;
/// scanning the graph's edges, whenever an edge bridges two different
/// clusters whose dominators are not yet connected in the backbone, its
/// (at most two) non-dominator endpoints are added as connectors. The
/// result is connected within every connected component of `g` and
/// contains the input set, so it retains any k-fold domination property
/// the input had.
///
/// Returns the backbone and the number of connectors added.
///
/// # Errors
///
/// Returns [`KmdsError::InvalidInput`] if `set` is over a universe other
/// than `g`'s nodes, or if it is not a dominating set of `g` (some node
/// has no dominator in its closed neighborhood), since then no labeling
/// exists.
///
/// # Example
///
/// ```
/// use ftclust_core::connect::connect_dominating_set;
/// use ftclust_core::DominatingSet;
/// use ftclust_graphs::{generators, NodeId};
///
/// let g = generators::path(7);
/// // {1, 5} dominates P7 minus node 3... take {0, 3, 6}: dominating,
/// // but the induced subgraph has no edges.
/// let ds = DominatingSet::from_ids(7, [0, 3, 6].map(NodeId::new));
/// let (cds, added) = connect_dominating_set(&g, &ds)?;
/// assert!(added > 0);
/// assert!(ftclust_core::connect::is_backbone_connected(&g, &cds));
/// # Ok::<(), ftclust_core::KmdsError>(())
/// ```
pub fn connect_dominating_set(
    g: &Graph,
    set: &DominatingSet,
) -> Result<(DominatingSet, usize), KmdsError> {
    let n = g.node_count();
    if set.universe() != n {
        return Err(KmdsError::InvalidInput {
            what: "connect: set universe differs from the node count",
        });
    }
    // Label every node with a dominator in its closed neighborhood.
    let mut label = vec![u32::MAX; n];
    for v in g.nodes() {
        if set.contains(v) {
            label[v.index()] = v.raw();
        } else if let Some(d) = g.closed_neighbors(v).find(|&w| set.contains(w)) {
            label[v.index()] = d.raw();
        } else if g.degree(v) > 0 || !set.is_empty() {
            return Err(KmdsError::InvalidInput {
                what: "connect: input not dominating",
            });
        }
    }
    let mut dsu = Dsu::new(n);
    let mut backbone = set.clone();
    let mut connectors = 0usize;
    // First merge clusters joined by dominator-dominator or
    // dominator-adjacent edges (no connectors needed), then the rest.
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    for &(u, v) in &edges {
        let (lu, lv) = (label[u.index()], label[v.index()]);
        if lu == lv {
            continue;
        }
        let cost = usize::from(!set.contains(u) && u.raw() != lv && v.raw() != lu)
            + usize::from(!set.contains(v) && v.raw() != lu && u.raw() != lv);
        if cost == 0 {
            dsu.union(lu, lv);
        }
    }
    // Cheap joins first (one connector), then two-connector joins.
    for want_cost in [1usize, 2] {
        for &(u, v) in &edges {
            let (lu, lv) = (label[u.index()], label[v.index()]);
            if lu == lv || dsu.find(lu) == dsu.find(lv) {
                continue;
            }
            let mut needed: Vec<NodeId> = Vec::new();
            if !set.contains(u) {
                needed.push(u);
            }
            if !set.contains(v) {
                needed.push(v);
            }
            if needed.len() != want_cost {
                continue;
            }
            dsu.union(lu, lv);
            for w in needed {
                if backbone.insert(w) {
                    connectors += 1;
                }
            }
        }
    }
    Ok((backbone, connectors))
}

/// Checks that the subgraph of `g` induced by `backbone` is connected
/// **within every connected component of `g`** — i.e. any two backbone
/// nodes joined by a path in `g` are joined by a path through backbone
/// nodes only. (Vacuously true for empty backbones.)
pub fn is_backbone_connected(g: &Graph, backbone: &DominatingSet) -> bool {
    let n = g.node_count();
    assert_eq!(backbone.universe(), n, "set universe mismatch");
    // BFS over the induced subgraph from one backbone seed per component.
    let comps = ftclust_graphs::traversal::connected_components(g);
    let mut seen_comp = vec![false; comps.component_count()];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    for v in backbone.ids() {
        let c = comps.label(v) as usize;
        if seen_comp[c] {
            continue;
        }
        seen_comp[c] = true;
        visited[v.index()] = true;
        queue.push_back(v);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if backbone.contains(w) && !visited[w.index()] {
                    visited[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    backbone.ids().all(|v| visited[v.index()])
}

/// Structural robustness of a backbone: how many of its nodes are single
/// points of failure for backbone connectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct BackboneRobustness {
    /// Backbone size.
    pub size: usize,
    /// Articulation points *within the induced backbone subgraph* — nodes
    /// whose individual failure splits the backbone.
    pub articulation_points: usize,
    /// `articulation_points / size` (0 for empty backbones).
    pub articulation_fraction: f64,
}

/// Measures how fragile a backbone's *connectivity* is: a connected
/// backbone with many articulation points still partitions when a single
/// head dies, so fault-tolerant deployments want this fraction low.
/// Complements the coverage-centric analysis in [`crate::fault`].
pub fn backbone_robustness(g: &Graph, backbone: &DominatingSet) -> BackboneRobustness {
    let members: Vec<NodeId> = backbone.ids().collect();
    let (sub, _) = g.induced_subgraph(&members);
    let cuts = ftclust_graphs::traversal::articulation_points(&sub).len();
    BackboneRobustness {
        size: members.len(),
        articulation_points: cuts,
        articulation_fraction: if members.is_empty() {
            0.0
        } else {
            cuts as f64 / members.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::greedy_kmds;
    use crate::udg::UdgAlgorithm;
    use crate::validate::{is_k_dominating, is_k_dominating_instance, Semantics};
    use crate::Instance;
    use ftclust_graphs::generators;
    use ftclust_graphs::traversal::connected_components;
    use proptest::prelude::*;

    #[test]
    fn connects_udg_backbones() {
        for k in [1u32, 3] {
            let udg = generators::random_udg(400, 10.0, 1.0, 3);
            let run = UdgAlgorithm::new(k).seed(1).run(&udg).unwrap();
            let (cds, added) = connect_dominating_set(udg.graph(), &run.set).unwrap();
            assert!(is_backbone_connected(udg.graph(), &cds), "k={k}");
            // Still k-fold dominating (we only added nodes).
            assert!(is_k_dominating(udg.graph(), &cds, k, Semantics::Strict));
            // Size bound: at most 3|S| per the 2-connectors-per-join bound.
            assert!(
                cds.len() <= 3 * run.set.len() + 1,
                "added {added} connectors"
            );
        }
    }

    #[test]
    fn connects_greedy_sets_on_general_graphs() {
        let g = generators::gnp(200, 0.05, 9);
        let inst = Instance::uniform_clamped(&g, 2);
        let set = greedy_kmds(&inst, Semantics::CoverSelf);
        let (cds, _) = connect_dominating_set(&g, &set).unwrap();
        assert!(is_backbone_connected(&g, &cds));
        assert!(is_k_dominating_instance(&inst, &cds, Semantics::CoverSelf));
    }

    #[test]
    fn already_connected_sets_gain_nothing() {
        let g = generators::star(8);
        let ds = DominatingSet::from_ids(8, [NodeId::new(0)]);
        let (cds, added) = connect_dominating_set(&g, &ds).unwrap();
        assert_eq!(added, 0);
        assert_eq!(cds.len(), 1);
    }

    #[test]
    fn path_with_spread_dominators() {
        let g = generators::path(7);
        let ds = DominatingSet::from_ids(7, [0, 3, 6].map(NodeId::new));
        let (cds, added) = connect_dominating_set(&g, &ds).unwrap();
        assert!(is_backbone_connected(&g, &cds));
        // Connecting 0–3 and 3–6 needs all four intermediate nodes.
        assert_eq!(added, 4);
        assert_eq!(cds.len(), 7);
    }

    #[test]
    fn disconnected_graphs_connect_per_component() {
        let mut b = ftclust_graphs::GraphBuilder::new(8);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)] {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        let ds = DominatingSet::from_ids(8, [0, 3, 4, 7].map(NodeId::new));
        let (cds, _) = connect_dominating_set(&g, &ds).unwrap();
        assert!(is_backbone_connected(&g, &cds));
    }

    #[test]
    fn non_dominating_input_is_rejected() {
        let g = generators::path(5);
        let ds = DominatingSet::from_ids(5, [NodeId::new(0)]);
        assert!(matches!(
            connect_dominating_set(&g, &ds),
            Err(KmdsError::InvalidInput { .. })
        ));
    }

    #[test]
    fn set_over_another_universe_is_rejected() {
        let g = generators::path(5);
        for ds in [DominatingSet::full(4), DominatingSet::full(6)] {
            assert!(matches!(
                connect_dominating_set(&g, &ds),
                Err(KmdsError::InvalidInput { .. })
            ));
        }
    }

    #[test]
    fn empty_graph_and_empty_set() {
        let g = generators::empty(0);
        let (cds, added) = connect_dominating_set(&g, &DominatingSet::empty(0)).unwrap();
        assert!(cds.is_empty());
        assert_eq!(added, 0);
        assert!(is_backbone_connected(&g, &cds));
    }

    #[test]
    fn connectivity_checker_detects_gaps() {
        let g = generators::path(5);
        let gap = DominatingSet::from_ids(5, [0, 4].map(NodeId::new));
        assert!(!is_backbone_connected(&g, &gap));
        let full = DominatingSet::full(5);
        assert!(is_backbone_connected(&g, &full));
    }

    #[test]
    fn connecting_is_idempotent() {
        // A second connection pass on an already-connected backbone adds
        // nothing.
        let udg = generators::random_udg(300, 9.0, 1.0, 4);
        let run = UdgAlgorithm::new(2).seed(3).run(&udg).unwrap();
        let (cds, _) = connect_dominating_set(udg.graph(), &run.set).unwrap();
        let (cds2, added2) = connect_dominating_set(udg.graph(), &cds).unwrap();
        assert_eq!(added2, 0);
        assert_eq!(cds, cds2);
    }

    #[test]
    fn robustness_counts_backbone_cut_vertices() {
        // A path backbone: every interior member is an articulation point.
        let g = generators::path(5);
        let full = DominatingSet::full(5);
        let rob = backbone_robustness(&g, &full);
        assert_eq!(rob.size, 5);
        assert_eq!(rob.articulation_points, 3);
        assert!((rob.articulation_fraction - 0.6).abs() < 1e-12);
        // Empty backbone.
        let rob = backbone_robustness(&g, &DominatingSet::empty(5));
        assert_eq!(rob.articulation_fraction, 0.0);
        // Denser k-fold backbones on a UDG have proportionally fewer
        // single points of failure than a k = 1 backbone.
        let udg = generators::random_udg(400, 12.0, 1.0, 6);
        let b1 = UdgAlgorithm::new(1).seed(1).run(&udg).unwrap().set;
        let b3 = UdgAlgorithm::new(3).seed(1).run(&udg).unwrap().set;
        let (c1, _) = connect_dominating_set(udg.graph(), &b1).unwrap();
        let (c3, _) = connect_dominating_set(udg.graph(), &b3).unwrap();
        let r1 = backbone_robustness(udg.graph(), &c1);
        let r3 = backbone_robustness(udg.graph(), &c3);
        assert!(
            r3.articulation_fraction <= r1.articulation_fraction + 0.05,
            "k=3 backbone should not be more fragile: {r3:?} vs {r1:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn always_connects_greedy_outputs(
            n in 2u32..60,
            p in 0.05f64..0.5,
            seed in 0u64..100,
        ) {
            let g = generators::gnp(n, p, seed);
            let inst = Instance::uniform_clamped(&g, 1);
            let set = greedy_kmds(&inst, Semantics::Strict);
            let (cds, _) = connect_dominating_set(&g, &set).unwrap();
            prop_assert!(is_backbone_connected(&g, &cds));
            prop_assert!(is_k_dominating_instance(&inst, &cds, Semantics::Strict));
            // The documented bound: at most 3·|S| − 2 backbone nodes in
            // every component that holds a member of S.
            let comps = connected_components(&g);
            let mut sizes = vec![(0usize, 0usize); comps.component_count()];
            for v in g.nodes() {
                let (members, backbone) = &mut sizes[comps.label(v) as usize];
                *members += usize::from(set.contains(v));
                *backbone += usize::from(cds.contains(v));
            }
            for (c, &(members, backbone)) in sizes.iter().enumerate() {
                prop_assert!(
                    members == 0 || backbone + 2 <= 3 * members,
                    "component {} holds {} backbone nodes for {} members",
                    c,
                    backbone,
                    members
                );
            }
        }
    }
}
