//! Failure injection: hand-crafted worst-case adversarial sequences that
//! target specific mechanisms of the algorithm.

use dex_core::{invariants, DexConfig, DexNetwork, RecoveryMode};
use dex_graph::ids::{NodeId, VertexId};

fn cfg(mode: RecoveryMode, seed: u64) -> DexConfig {
    match mode {
        RecoveryMode::Simplified => DexConfig::new(seed).simplified(),
        RecoveryMode::Staggered => DexConfig::new(seed).staggered(),
    }
}

const MODES: [RecoveryMode; 2] = [RecoveryMode::Simplified, RecoveryMode::Staggered];

/// Kill the entire founding population: every node that bootstrapped the
/// network dies; only adversarially inserted nodes remain.
#[test]
fn genocide_of_the_founders() {
    for mode in MODES {
        let mut net = DexNetwork::bootstrap(cfg(mode, 1), 16);
        // First, add 32 newcomers.
        for i in 0..32u64 {
            let live = net.node_ids();
            net.insert(NodeId(1000 + i), live[i as usize % live.len()]);
        }
        // Then delete all 16 founders (ids 0..16).
        for i in 0..16u64 {
            net.delete(NodeId(i));
            invariants::assert_ok(&net);
        }
        assert_eq!(net.n(), 32);
        assert!(net.spectral_gap() > 0.01, "{mode:?}");
    }
}

/// Always delete the node that rescued the previous deletion — a chain of
/// rescuer assassinations.
#[test]
fn rescuer_assassination_chain() {
    for mode in MODES {
        let mut net = DexNetwork::bootstrap(cfg(mode, 2), 24);
        // Find the current rescuer convention: the minimum-id neighbor.
        let mut victim = net.node_ids()[5];
        for step in 0..40 {
            // The rescuer of `victim` will be its min-id neighbor.
            let mut nbrs: Vec<NodeId> = net
                .graph()
                .neighbors(victim)
                .iter()
                .filter(|&w| w != victim)
                .collect();
            nbrs.sort_unstable();
            let rescuer = nbrs[0];
            net.delete(victim);
            invariants::assert_ok(&net);
            // Keep size up and aim at the rescuer next.
            let live = net.node_ids();
            net.insert(NodeId(50_000 + step), live[step as usize % live.len()]);
            victim = if net.graph().has_node(rescuer) {
                rescuer
            } else {
                net.node_ids()[0]
            };
        }
    }
}

/// Hotspot: every insertion attaches to the same node.
#[test]
fn hotspot_attachment() {
    for mode in MODES {
        let mut net = DexNetwork::bootstrap(cfg(mode, 3), 8);
        let hotspot = net.node_ids()[0];
        for i in 0..120u64 {
            net.insert(NodeId(2000 + i), hotspot);
            invariants::assert_ok(&net);
        }
        // The hotspot must not have accumulated degree or load.
        assert!(
            net.load(hotspot) <= net.cfg.max_load(),
            "{mode:?}: hotspot load {}",
            net.load(hotspot)
        );
        assert!(net.graph().degree(hotspot) <= 3 * net.cfg.max_load() as usize);
    }
}

/// Orphan the newcomer: delete the attach point right after each insert.
#[test]
fn attach_point_assassination() {
    for mode in MODES {
        let mut net = DexNetwork::bootstrap(cfg(mode, 4), 16);
        for i in 0..40u64 {
            let live = net.node_ids();
            let attach = live[(i as usize * 3) % live.len()];
            let id = NodeId(3000 + i);
            net.insert(id, attach);
            if net.graph().has_node(attach) && net.n() > 4 {
                net.delete(attach);
            }
            invariants::assert_ok(&net);
        }
        assert!(net.spectral_gap() > 0.01);
    }
}

/// Follow the vertices: always delete the owner of virtual vertex 0 (the
/// coordinator seat) *and* the node that most recently received a
/// transferred vertex.
#[test]
fn follow_the_coordinator_seat() {
    for mode in MODES {
        let mut net = DexNetwork::bootstrap(cfg(mode, 5), 20);
        for i in 0..60u64 {
            let coord = net.map.owner_of(VertexId(0));
            if net.n() > 6 {
                net.delete(coord);
                invariants::assert_ok(&net);
            }
            let live = net.node_ids();
            net.insert(NodeId(4000 + i), live[i as usize % live.len()]);
            invariants::assert_ok(&net);
        }
        // Vertex 0 always has a live owner.
        assert!(net.graph().has_node(net.map.owner_of(VertexId(0))));
    }
}

/// Deletions in strictly increasing id order (always the rescuer-by-
/// convention side of the id space).
#[test]
fn ordered_sweep_deletions() {
    for mode in MODES {
        let mut net = DexNetwork::bootstrap(cfg(mode, 6), 32);
        for i in 0..24u64 {
            // Delete the smallest id (often a recent rescuer).
            let victim = net.node_ids()[0];
            net.delete(victim);
            let live = net.node_ids();
            net.insert(NodeId(6000 + i), live[0]);
            invariants::assert_ok(&net);
        }
    }
}

/// Churn hammered directly onto a mid-flight staggered operation: start an
/// inflation, then delete aggressively among the nodes holding staged
/// vertices (max staged load first).
#[test]
fn staggered_operation_under_fire() {
    let mut net = DexNetwork::bootstrap(DexConfig::new(7).staggered(), 8);
    // Pure growth until an operation starts.
    let mut i = 0u64;
    while !net.type2_in_progress() {
        let live = net.node_ids();
        net.insert(NodeId(7000 + i), live[i as usize % live.len()]);
        i += 1;
        assert!(i < 30_000, "staggered inflation never started");
    }
    // Now alternate: delete a heavy staged holder, insert a newcomer.
    let mut steps_in_op = 0;
    while net.type2_in_progress() && steps_in_op < 400 {
        let heavy = net
            .node_ids()
            .into_iter()
            .max_by_key(|&u| net.staged_load(u) + net.load(u))
            .unwrap();
        if net.n() > 6 {
            net.delete(heavy);
            invariants::assert_ok(&net);
        }
        let live = net.node_ids();
        net.insert(NodeId(8000 + steps_in_op), live[0]);
        invariants::assert_ok(&net);
        steps_in_op += 1;
    }
    // Operation either finished cleanly or is still healthy.
    invariants::assert_ok(&net);
    assert!(net.spectral_gap() > 0.003);
}

/// Deep shrink through several deflations: grow large, then delete down to
/// the minimum in one unbroken run.
#[test]
fn collapse_through_multiple_deflations() {
    for mode in MODES {
        let mut net = DexNetwork::bootstrap(cfg(mode, 8), 8);
        for i in 0..800u64 {
            let live = net.node_ids();
            net.insert(NodeId(9000 + i), live[i as usize % live.len()]);
        }
        let p_grown = net.cycle.p();
        let mut guard = 0;
        while net.n() > 6 {
            let victim = net.node_ids()[guard % 3];
            net.delete(victim);
            guard += 1;
            if guard % 50 == 0 {
                invariants::assert_ok(&net);
            }
        }
        invariants::assert_ok(&net);
        assert!(net.cycle.p() < p_grown, "{mode:?}: no deflation happened");
        assert!(net.spectral_gap() > 0.01);
    }
}
