//! Compiling phases into concrete [`Action`]s against the live network.
//!
//! Every helper is a pure function of (network state, the trial's RNG
//! stream): replaying the recorded actions on an identical bootstrap
//! reproduces the run bit-for-bit, and the same seed gives the same
//! stream regardless of how many trials run in parallel around it.

use dex_adversary::{cross_degrees, sparsest_sweep_side, Action, IdAllocator};
use dex_core::batch::MAX_ATTACH_FAN_IN;
use dex_core::DexNetwork;
use dex_graph::fxhash::{FxHashMap, FxHashSet};
use dex_graph::ids::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::Targeting;

/// Smallest network any generated deletion may leave behind. Keeps every
/// phase comfortably above the `DexNetwork` floors (delete requires n > 2,
/// batches require victims < n − 1).
pub const MIN_N: usize = 8;

/// One flash-crowd wave: `wave_size` fresh newcomers, attach points drawn
/// uniformly but never exceeding the O(1) fan-in bound per attach point.
pub fn flash_wave(
    dex: &DexNetwork,
    rng: &mut StdRng,
    ids: &mut IdAllocator,
    wave_size: usize,
) -> Action {
    let live = dex.node_ids();
    let mut fan: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut joins = Vec::with_capacity(wave_size);
    for _ in 0..wave_size {
        // Rejection-sample an attach point with fan-in room; fall back to
        // a linear scan if the wave saturates the sampled region.
        let mut attach = None;
        for _ in 0..16 {
            let v = live[rng.random_range(0..live.len())];
            if fan.get(&v).copied().unwrap_or(0) < MAX_ATTACH_FAN_IN {
                attach = Some(v);
                break;
            }
        }
        let v = attach.unwrap_or_else(|| {
            live.iter()
                .copied()
                .find(|v| fan.get(v).copied().unwrap_or(0) < MAX_ATTACH_FAN_IN)
                .expect("wave larger than total attach capacity")
        });
        *fan.entry(v).or_insert(0) += 1;
        joins.push((ids.fresh(), v));
    }
    Action::BatchInsert { joins }
}

/// One correlated deletion burst under the given targeting policy.
/// Returns `None` when the network is too small to lose a burst.
pub fn correlated_burst(
    dex: &DexNetwork,
    rng: &mut StdRng,
    burst_size: usize,
    targeting: Targeting,
) -> Option<Action> {
    let live = dex.node_ids();
    let n = live.len();
    let take = burst_size.min(n.saturating_sub(MIN_N) / 2);
    if take == 0 {
        return None;
    }
    let victims: Vec<NodeId> = match targeting {
        Targeting::Random => {
            let mut picked: FxHashSet<NodeId> = FxHashSet::default();
            let mut out = Vec::with_capacity(take);
            while out.len() < take {
                let v = live[rng.random_range(0..n)];
                if picked.insert(v) {
                    out.push(v);
                }
            }
            out
        }
        Targeting::Neighborhood => {
            // Epicenter plus BFS layers, neighbor order sorted so the
            // expansion is deterministic.
            let epicenter = live[rng.random_range(0..n)];
            let mut seen: FxHashSet<NodeId> = FxHashSet::default();
            let mut order = vec![epicenter];
            seen.insert(epicenter);
            let mut queue = std::collections::VecDeque::from([epicenter]);
            while order.len() < take {
                let Some(u) = queue.pop_front() else { break };
                let mut nbrs: Vec<NodeId> = dex.graph().neighbors(u).iter().collect();
                nbrs.sort_unstable();
                nbrs.dedup();
                for v in nbrs {
                    if v != u && seen.insert(v) {
                        order.push(v);
                        queue.push_back(v);
                        if order.len() == take {
                            break;
                        }
                    }
                }
            }
            order.truncate(take);
            order
        }
        Targeting::HighLoad => {
            let mut by_load: Vec<NodeId> = live;
            by_load.sort_unstable_by_key(|&u| (std::cmp::Reverse(dex.load(u)), u));
            by_load.truncate(take);
            by_load
        }
    };
    Some(Action::BatchDelete { victims })
}

/// Sparsest-cut attack burst: batch-delete the highest-cross-degree
/// nodes of [`sparsest_sweep_side`] (the side `CutAttacker` attacks),
/// the smaller id first on a tie. Returns `None` when the network is too
/// small.
pub fn cut_burst(dex: &DexNetwork, burst_size: usize) -> Option<Action> {
    let g = dex.graph();
    let n = g.num_nodes();
    let take = burst_size.min(n.saturating_sub(MIN_N) / 2);
    if take == 0 || n < 2 * MIN_N {
        return None;
    }
    let mut boundary = cross_degrees(g, &sparsest_sweep_side(g));
    boundary.sort_unstable_by_key(|&(cross, u)| (std::cmp::Reverse(cross), u));
    let victims = boundary.into_iter().take(take).map(|(_, u)| u).collect();
    Some(Action::BatchDelete { victims })
}

/// One DHT operation: a lookup of a known key with probability
/// `read_pct`% (or a fresh-key miss when nothing is stored yet), else an
/// insert of a fresh `(key, value)`.
pub fn dht_op(
    dex: &DexNetwork,
    rng: &mut StdRng,
    read_pct: u32,
    keyspace: u64,
    known_keys: &[u64],
) -> Action {
    let live = dex.node_ids();
    let from = live[rng.random_range(0..live.len())];
    let read = rng.random_range(0..100u32) < read_pct;
    if read && !known_keys.is_empty() {
        let key = known_keys[rng.random_range(0..known_keys.len())];
        Action::DhtGet { from, key }
    } else {
        let key = rng.random_range(0..keyspace.max(1));
        let value = rng.random::<u64>();
        Action::DhtPut { from, key, value }
    }
}

/// One single-node insertion at a uniform attach point.
pub fn single_insert(dex: &DexNetwork, rng: &mut StdRng, ids: &mut IdAllocator) -> Action {
    let live = dex.node_ids();
    Action::Insert {
        id: ids.fresh(),
        attach: live[rng.random_range(0..live.len())],
    }
}

/// One single-node deletion of a uniform victim, or `None` at the floor.
pub fn single_delete(dex: &DexNetwork, rng: &mut StdRng, floor: usize) -> Option<Action> {
    let live = dex.node_ids();
    if live.len() <= floor.max(MIN_N) {
        return None;
    }
    Some(Action::Delete {
        victim: live[rng.random_range(0..live.len())],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::DexConfig;
    use rand::SeedableRng;

    fn net() -> DexNetwork {
        DexNetwork::bootstrap(DexConfig::new(1).simplified(), 24)
    }

    #[test]
    fn flash_wave_respects_fan_in() {
        let dex = net();
        let mut rng = StdRng::seed_from_u64(2);
        let mut ids = IdAllocator::new();
        let Action::BatchInsert { joins } = flash_wave(&dex, &mut rng, &mut ids, 40) else {
            panic!("expected batch insert");
        };
        assert_eq!(joins.len(), 40);
        let mut fan: FxHashMap<NodeId, usize> = FxHashMap::default();
        for &(u, v) in &joins {
            assert!(u.0 >= 1 << 32, "fresh id");
            *fan.entry(v).or_insert(0) += 1;
        }
        assert!(fan.values().all(|&c| c <= MAX_ATTACH_FAN_IN));
    }

    #[test]
    fn bursts_are_distinct_and_bounded() {
        let dex = net();
        let mut rng = StdRng::seed_from_u64(3);
        for t in [
            Targeting::Random,
            Targeting::Neighborhood,
            Targeting::HighLoad,
        ] {
            let Some(Action::BatchDelete { victims }) = correlated_burst(&dex, &mut rng, 6, t)
            else {
                panic!("expected burst");
            };
            let set: FxHashSet<NodeId> = victims.iter().copied().collect();
            assert_eq!(set.len(), victims.len(), "{t:?} victims distinct");
            assert!(victims.len() <= 6);
            assert!(victims.iter().all(|&v| dex.graph().has_node(v)));
        }
    }

    #[test]
    fn neighborhood_burst_is_connected_region() {
        let dex = net();
        let mut rng = StdRng::seed_from_u64(4);
        let Some(Action::BatchDelete { victims }) =
            correlated_burst(&dex, &mut rng, 5, Targeting::Neighborhood)
        else {
            panic!("expected burst");
        };
        // Every victim after the epicenter must neighbor an earlier one.
        for (i, &v) in victims.iter().enumerate().skip(1) {
            let nbrs: Vec<NodeId> = dex.graph().neighbors(v).iter().collect();
            assert!(
                victims[..i].iter().any(|e| nbrs.contains(e)),
                "victim {v} not adjacent to the growing region"
            );
        }
    }

    #[test]
    fn cut_burst_targets_live_nodes() {
        let dex = net();
        let Some(Action::BatchDelete { victims }) = cut_burst(&dex, 4) else {
            panic!("expected burst");
        };
        assert!(!victims.is_empty() && victims.len() <= 4);
        assert!(victims.iter().all(|&v| dex.graph().has_node(v)));
    }

    #[test]
    fn cut_burst_strikes_the_side_cut_attacker_attacks() {
        use dex_adversary::{Adversary, CutAttacker, View};
        for n in [24, 300] {
            let dex = DexNetwork::bootstrap(DexConfig::new(n), n);
            let side = sparsest_sweep_side(dex.graph());
            let Some(Action::BatchDelete { victims }) = cut_burst(&dex, 6) else {
                panic!("expected burst");
            };
            assert!(victims.iter().all(|v| side.contains(v)), "n = {n}");
            let load = |u| dex.load(u);
            let owner = |z| dex.map.owner(z);
            let view = View {
                graph: dex.graph(),
                load: &load,
                owner: &owner,
                p: dex.cycle.p(),
            };
            let Action::Delete { victim } = CutAttacker::new(1).next(&view) else {
                panic!("expected delete");
            };
            // Both pick the most cross edges; only the tie rule differs.
            let cross = cross_degrees(dex.graph(), &side);
            let of = |x| cross.iter().find(|&&(_, u)| u == x).map(|&(c, _)| c);
            assert_eq!(of(victim), of(victims[0]), "n = {n}");
        }
    }

    #[test]
    fn shrink_stops_at_floor() {
        let dex = net(); // n = 24
        let mut rng = StdRng::seed_from_u64(5);
        assert!(single_delete(&dex, &mut rng, 24).is_none());
        assert!(single_delete(&dex, &mut rng, 8).is_some());
    }
}
