//! Connectivity primitives: BFS, components, diameter.

use crate::adjacency::MultiGraph;
use crate::fxhash::FxHashMap;
use crate::ids::NodeId;

/// BFS from slot `root` in slot space: the reached slots in discovery
/// order, and every slot's hop distance (`u32::MAX` where unreached).
fn bfs_slots(g: &MultiGraph, root: u32) -> (Vec<u32>, Vec<u32>) {
    let mut dist = vec![u32::MAX; g.slot_bound()];
    // The unread tail of `order` is the BFS queue.
    let mut order = vec![root];
    dist[root as usize] = 0;
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        let du = dist[u as usize];
        for &v in g.neighbor_slots(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                order.push(v);
            }
        }
    }
    (order, dist)
}

/// BFS distances from `src` (unreachable nodes are absent from the map).
pub fn bfs_distances(g: &MultiGraph, src: NodeId) -> FxHashMap<NodeId, u32> {
    let Some(root) = g.slot_of(src) else {
        return FxHashMap::default();
    };
    let (order, dist) = bfs_slots(g, root);
    order
        .iter()
        .map(|&s| (g.id_of_slot(s), dist[s as usize]))
        .collect()
}

/// Is the graph connected? (The empty graph and singletons count as
/// connected.)
pub fn is_connected(g: &MultiGraph) -> bool {
    let Some(start) = g.nodes().next() else {
        return true;
    };
    let root = g.slot_of(start).expect("a listed node has a slot");
    bfs_slots(g, root).0.len() == g.num_nodes()
}

/// Connected components as sorted vectors of node ids, largest first
/// (ties broken by smallest member id).
pub fn components(g: &MultiGraph) -> Vec<Vec<NodeId>> {
    let mut seen: crate::fxhash::FxHashSet<NodeId> = Default::default();
    let mut comps = Vec::new();
    for u in g.nodes_sorted() {
        if seen.contains(&u) {
            continue;
        }
        let comp_map = bfs_distances(g, u);
        let mut comp: Vec<NodeId> = comp_map.keys().copied().collect();
        comp.sort_unstable();
        for &v in &comp {
            seen.insert(v);
        }
        comps.push(comp);
    }
    comps.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    comps
}

/// Eccentricity of `src`: max BFS distance to any reachable node.
pub fn eccentricity(g: &MultiGraph, src: NodeId) -> u32 {
    bfs_distances(g, src).values().copied().max().unwrap_or(0)
}

/// Exact diameter by all-pairs BFS — O(n·m). Returns `None` when the graph
/// is disconnected (diameter is infinite).
pub fn diameter(g: &MultiGraph) -> Option<u32> {
    if !is_connected(g) {
        return None;
    }
    let mut best = 0;
    for u in g.nodes() {
        best = best.max(eccentricity(g, u));
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(k: u64) -> MultiGraph {
        let mut g = MultiGraph::new();
        for i in 0..k {
            g.add_node(NodeId(i));
        }
        for i in 0..k.saturating_sub(1) {
            g.add_edge(NodeId(i), NodeId(i + 1));
        }
        g
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[&NodeId(4)], 4);
        assert_eq!(d[&NodeId(0)], 0);
    }

    #[test]
    fn connectivity_detection() {
        let mut g = path_graph(5);
        assert!(is_connected(&g));
        g.remove_edge(NodeId(2), NodeId(3));
        assert!(!is_connected(&g));
        let comps = components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(comps[1], vec![NodeId(3), NodeId(4)]);
    }

    #[test]
    fn diameter_of_path_and_disconnected() {
        let mut g = path_graph(6);
        assert_eq!(diameter(&g), Some(5));
        g.remove_edge(NodeId(0), NodeId(1));
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn empty_and_singleton_connected() {
        let g = MultiGraph::new();
        assert!(is_connected(&g));
        let g = path_graph(1);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(0));
    }

    #[test]
    fn self_loops_do_not_affect_connectivity() {
        let mut g = path_graph(3);
        g.add_edge(NodeId(1), NodeId(1));
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(2));
    }
}
