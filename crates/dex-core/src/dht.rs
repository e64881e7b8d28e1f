//! Distributed hash table on top of DEX (paper, Sect. 4.4.4).
//!
//! Every node knows the current p-cycle size `s = p`, hence the same hash
//! function `h_s : keys → Z_p` (we use the SplitMix64 finalizer mod p). A
//! key–value pair lives with the node simulating vertex `h_s(k)`; insert
//! and lookup route along locally computed shortest paths in the virtual
//! graph, which map to physical paths (Fact 1) — O(log n) rounds and
//! messages each.
//!
//! When the virtual graph is replaced (type-2 recovery), responsibility
//! rehashes to the new cycle. The paper staggers the data handoff with the
//! staggered inflation at a constant-factor overhead; we apply the whole
//! migration at switchover and charge one message per stored item then
//! (the same total cost, lumped).

use crate::dex::DexNetwork;
use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::{NodeId, VertexId};
use dex_sim::rng::splitmix64;
use dex_sim::{RecoveryKind, StepKind, StepMetrics};

/// Key type.
pub type Key = u64;
/// Value type (O(log n) bits, as CONGEST requires).
pub type Value = u64;

/// DHT storage (simulator-global view; ownership is always derived from
/// the *current* virtual mapping, so vertex transfers implicitly move
/// responsibility exactly as the paper prescribes).
#[derive(Default)]
pub struct DhtStore {
    entries: FxHashMap<Key, Value>,
    /// p value the stored data is currently partitioned under; a change
    /// triggers the (charged) migration.
    hashed_under: Option<u64>,
}

impl DhtStore {
    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `p` the stored data is currently partitioned under (`None`
    /// until the first DHT operation observes a cycle).
    pub fn hashed_under(&self) -> Option<u64> {
        self.hashed_under
    }

    /// All stored pairs, sorted by key — a canonical representation for
    /// differential end-state comparison.
    pub fn entries_sorted(&self) -> Vec<(Key, Value)> {
        let mut v: Vec<(Key, Value)> = self.entries.iter().map(|(&k, &val)| (k, val)).collect();
        v.sort_unstable();
        v
    }
}

/// `h_s(k)`: hash a key to a vertex of the current cycle.
pub fn hash_to_vertex(key: Key, p: u64) -> VertexId {
    VertexId(splitmix64(key) % p)
}

impl DexNetwork {
    /// Node that is currently responsible for `key`.
    pub fn dht_owner(&self, key: Key) -> NodeId {
        let z = hash_to_vertex(key, self.cycle.p());
        self.map.owner_of(z)
    }

    /// Read-only view of the DHT storage state (entry count, current
    /// partitioning).
    pub fn dht_store(&self) -> &DhtStore {
        &self.dht
    }

    /// Store `(key, value)`, initiated by node `from`. Returns the metered
    /// cost (recorded in history as its own step).
    pub fn dht_insert(&mut self, from: NodeId, key: Key, value: Value) -> StepMetrics {
        let from = self.initiator_slot(from, "dht_insert");
        self.net.begin_step();
        self.migrate_if_rehashed();
        // An abandoned put is simply not applied (graceful degradation,
        // counted in `dht_abandoned`).
        if self.route_dht(from, key, false) {
            self.dht.entries.insert(key, value);
        }
        self.net.end_step(StepKind::Insert, RecoveryKind::Type1)
    }

    /// Look up `key`, initiated by node `from`. The reply routes back along
    /// the same path, so the cost is twice the one-way routing cost.
    pub fn dht_lookup(&mut self, from: NodeId, key: Key) -> (Option<Value>, StepMetrics) {
        let from = self.initiator_slot(from, "dht_lookup");
        self.net.begin_step();
        self.migrate_if_rehashed();
        // Request + reply as one round-trip route; an abandoned lookup
        // reports `None` (counted in `dht_abandoned`).
        let v = if self.route_dht(from, key, true) {
            self.dht.entries.get(&key).copied()
        } else {
            None
        };
        let m = self.net.end_step(StepKind::Insert, RecoveryKind::Type1);
        (v, m)
    }

    /// Slot of the initiator `from` of a DHT `op` — the op's one id
    /// translation, through the graph arena's index.
    fn initiator_slot(&self, from: NodeId, op: &str) -> u32 {
        self.net
            .graph()
            .slot_of(from)
            .unwrap_or_else(|| panic!("{op}: initiator {from} missing"))
    }

    /// Route one message from the node in slot `from` to the node owning
    /// `h(key)` (and, for a `round_trip`, the reply back along the same
    /// path): the initiator computes a shortest path in the virtual graph
    /// from the nearest of its own vertices — it knows p and its `Sim`
    /// set, so choosing the start is local computation (Sect. 4.4.4) —
    /// and forwards hop by hop; hops between vertices simulated by the
    /// same node are free local computation, and a key hashed to one of
    /// the initiator's own vertices costs nothing. Returns whether the
    /// message was delivered. The path is resolved once; without a fault
    /// spec every hop arrives and costs one round and one message, with
    /// one the hop sequence runs on the message schedule
    /// ([`Self::route_scheduled`]) and may be abandoned.
    ///
    /// Hot path: the virtual path comes from the pooled multi-source
    /// bidirectional BFS
    /// ([`dex_graph::pcycle::PCycle::shortest_path_from_any`]), whose
    /// forward side starts from the whole `Sim` set (≈ p/n vertices).
    /// At p = 2,000,003 a route from the four vertices of a bootstrap
    /// node is 21.4 virtual hops (24.2 from one of them); it expands
    /// ≈ 4.7k vertices and inverts the chords of ≈ 3.2k of them, a
    /// frontier block at a time through the four-lane chord kernel
    /// (≈ 6 ns each on a 2.1 GHz Xeon, against 70–110 ns for a scalar
    /// inversion); each expansion also probes three one-byte visited
    /// marks, two of them on its own cache line. The initiator's
    /// own `Sim` set is read by slot (the caller translated its id once,
    /// through the graph arena's index); each path vertex then resolves
    /// to its owner's slot ([`crate::VirtualMapping::owner_slot_of`], one
    /// load of an 8-byte record), and a change of slot is a physical hop.
    /// Only the message-scheduled transport, which speaks ids, reads the
    /// hops' ids from the arena. Every buffer lives in the pooled
    /// [`crate::routing::RouteScratch`] — zero allocation per operation
    /// once warm. The one buffer of size p is the search's epoch-stamped
    /// visited marks, p bytes, zeroed once every 31 searches: under 17 B
    /// per node, as p/n peaks at 16.9 before a deflation on the `resize`
    /// trace.
    fn route_dht(&mut self, from: u32, key: Key, round_trip: bool) -> bool {
        let target = hash_to_vertex(key, self.cycle.p());
        let route = &mut self.heal.route;
        self.cycle.shortest_path_from_any(
            self.map.sim_at(from),
            target,
            &mut route.bfs,
            &mut route.vpath,
        );
        // A physical hop is a change of owner slot along the path; only
        // the message schedule needs the hops' node ids.
        let (g, scheduled) = (self.net.graph(), self.faults.is_some());
        let mut prev = self.map.owner_slot_of(route.vpath[0]);
        let mut hops = 0;
        route.npath.clear();
        if scheduled {
            route.npath.push(g.id_of_slot(prev));
        }
        for &z in &route.vpath[1..] {
            let cur = self.map.owner_slot_of(z);
            if cur != prev {
                debug_assert!(
                    g.contains_edge(g.id_of_slot(prev), g.id_of_slot(cur)),
                    "virtual path step not physical: slots {prev} {cur}"
                );
                hops += 1;
                if scheduled {
                    route.npath.push(g.id_of_slot(cur));
                }
                prev = cur;
            }
        }
        match self.faults {
            None => {
                let hops = hops * if round_trip { 2 } else { 1 };
                self.net.charge_rounds(hops);
                self.net.charge_messages(hops);
                true
            }
            Some(spec) => self.route_scheduled(&spec, key, round_trip),
        }
    }

    /// After a type-2 recovery the hash function changed: rehash all data,
    /// charging one message per item (lump-sum equivalent of the paper's
    /// staggered handoff).
    fn migrate_if_rehashed(&mut self) {
        let p = self.cycle.p();
        match self.dht.hashed_under {
            Some(q) if q == p => {}
            Some(_) => {
                self.net.charge_messages(self.dht.entries.len() as u64);
                self.net.charge_rounds(1);
                self.dht.hashed_under = Some(p);
            }
            None => self.dht.hashed_under = Some(p),
        }
    }
}
