//! Differential tests: the slot-arena Φ against the legacy HashMap Φ.
//!
//! A long random insert/delete/batch-style op sequence is driven through
//! both implementations (the HashMap one lives here, [`HashMapping`]: it
//! is test scaffolding, not API); after *every* operation the observable state —
//! owner of every touched vertex, every `Sim` slice (order included: both
//! implementations use push + swap-remove, so slices must match exactly),
//! load, `|Spare|`, `|Low|`, node and vertex counts — must be identical,
//! and the slot implementation's internal structures must validate.
//!
//! The same scripts also run through the slot-explicit `*_at` forms on a
//! caller-slotted Φ — what every Φ inside a `DexNetwork` is — under an
//! injective node → slot table with holes drawn by the proptest.
//!
//! One op kind piles vertex runs onto a single hot node, so its `Sim` set
//! grows through the slot Φ's 8 → 16 → 32 → 64 → 128 segment-class spills
//! while both sides are compared.

use dex_core::VirtualMapping;
use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::{NodeId, VertexId};
use proptest::prelude::*;

/// The previous `FxHashMap`-backed Φ, the oracle. Semantics are identical
/// to [`VirtualMapping`], including `Sim` slice order (push +
/// swap-remove).
struct HashMapping {
    owner: FxHashMap<VertexId, NodeId>,
    sim: FxHashMap<NodeId, Vec<VertexId>>,
    spare_count: usize,
    low_count: usize,
    zeta: u64,
}

impl HashMapping {
    fn new(zeta: u64) -> Self {
        HashMapping {
            owner: FxHashMap::default(),
            sim: FxHashMap::default(),
            spare_count: 0,
            low_count: 0,
            zeta,
        }
    }

    fn num_vertices(&self) -> usize {
        self.owner.len()
    }

    fn num_nodes(&self) -> usize {
        self.sim.len()
    }

    fn owner(&self, z: VertexId) -> Option<NodeId> {
        self.owner.get(&z).copied()
    }

    fn sim(&self, u: NodeId) -> &[VertexId] {
        self.sim.get(&u).map(Vec::as_slice).unwrap_or(&[])
    }

    fn load(&self, u: NodeId) -> u64 {
        self.sim(u).len() as u64
    }

    fn spare_count(&self) -> usize {
        self.spare_count
    }

    fn low_count(&self) -> usize {
        self.low_count
    }

    fn count_delta(&mut self, load_before: u64, load_after: u64) {
        let spare = |l: u64| l >= 2;
        let low = |l: u64| l >= 1 && l <= 2 * self.zeta;
        match (spare(load_before), spare(load_after)) {
            (false, true) => self.spare_count += 1,
            (true, false) => self.spare_count -= 1,
            _ => {}
        }
        match (low(load_before), low(load_after)) {
            (false, true) => self.low_count += 1,
            (true, false) => self.low_count -= 1,
            _ => {}
        }
    }

    fn assign(&mut self, z: VertexId, u: NodeId) {
        let prev = self.owner.insert(z, u);
        assert!(prev.is_none(), "vertex {z} already owned by {prev:?}");
        let list = self.sim.entry(u).or_default();
        list.push(z);
        let after = list.len() as u64;
        self.count_delta(after - 1, after);
    }

    fn unassign(&mut self, z: VertexId) -> NodeId {
        let u = self
            .owner
            .remove(&z)
            .unwrap_or_else(|| panic!("vertex {z} not assigned"));
        let list = self.sim.get_mut(&u).expect("sim list missing");
        let pos = list
            .iter()
            .position(|&w| w == z)
            .expect("sim entry missing");
        list.swap_remove(pos);
        let after = list.len() as u64;
        self.count_delta(after + 1, after);
        if after == 0 {
            self.sim.remove(&u);
        }
        u
    }

    fn transfer(&mut self, z: VertexId, to: NodeId) -> NodeId {
        let from = self.unassign(z);
        self.assign(z, to);
        from
    }

    /// All `(vertex, owner)` pairs by collect-and-sort: the canonical-order
    /// oracle for the slot Φ's dense scan.
    fn entries_sorted(&self) -> Vec<(VertexId, NodeId)> {
        let mut v: Vec<(VertexId, NodeId)> = self.owner.iter().map(|(&z, &u)| (z, u)).collect();
        v.sort_unstable();
        v
    }

    fn max_load(&self) -> u64 {
        self.sim.values().map(|v| v.len() as u64).max().unwrap_or(0)
    }
}

/// One scripted operation over a bounded vertex/node universe.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Assign vertex `z` to node `u` (skipped if `z` is owned).
    Assign(u64, u64),
    /// Unassign vertex `z` (skipped if unowned).
    Unassign(u64),
    /// Transfer vertex `z` to node `u` (skipped if unowned).
    Transfer(u64, u64),
    /// Batch: assign a run of `k` consecutive vertices starting at `z`
    /// to node `u` (the type-2 rebuild / batch-insert shape).
    AssignRun(u64, u64, u8),
    /// Batch: unassign a run of `k` consecutive vertices starting at `z`
    /// (the batch-delete shape).
    UnassignRun(u64, u8),
    /// Skew: move (or assign) a run of `k` consecutive vertices starting
    /// at `z` onto node [`HOT`].
    Pile(u64, u8),
}

const VERTS: u64 = 512;
const NODES: u64 = 37;
/// The node [`Op::Pile`] loads up.
const HOT: u64 = 0;

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..9, 0u64..VERTS, 0u64..NODES, 0u8..9).prop_map(|(kind, z, u, k)| match kind {
        0 | 1 => Op::Assign(z, u),
        2 => Op::Unassign(z),
        3..=5 => Op::Transfer(z, u),
        6 => Op::AssignRun(z, u, k + 1),
        7 => Op::UnassignRun(z, k + 1),
        _ => Op::Pile(z, k + 1),
    })
}

/// Apply `op` to both implementations, asserting identical behaviour.
/// With a slot table the fast side is driven through its `*_at` forms.
fn apply_both(fast: &mut VirtualMapping, slow: &mut HashMapping, op: Op, slots: Option<&[u32]>) {
    let one = |fast: &mut VirtualMapping, slow: &mut HashMapping, z: u64, u: Option<u64>| {
        let z = VertexId(z);
        let owned = slow.owner(z).is_some();
        assert_eq!(fast.owner(z), slow.owner(z));
        match (u, owned) {
            (Some(u), false) => {
                match slots {
                    Some(slots) => fast.assign_at(z, NodeId(u), slots[u as usize]),
                    None => fast.assign(z, NodeId(u)),
                }
                slow.assign(z, NodeId(u));
            }
            (Some(u), true) => {
                let from = match slots {
                    Some(slots) => fast.transfer_at(z, NodeId(u), slots[u as usize]),
                    None => fast.transfer(z, NodeId(u)),
                };
                assert_eq!(from, slow.transfer(z, NodeId(u)));
            }
            (None, true) => {
                assert_eq!(fast.unassign(z), slow.unassign(z));
            }
            (None, false) => {}
        }
    };
    match op {
        Op::Assign(z, u) => {
            if slow.owner(VertexId(z)).is_none() {
                one(fast, slow, z, Some(u));
            }
        }
        Op::Transfer(z, u) => {
            if slow.owner(VertexId(z)).is_some() {
                one(fast, slow, z, Some(u));
            }
        }
        Op::Unassign(z) => one(fast, slow, z, None),
        Op::AssignRun(z, u, k) if slots.is_some() => {
            // The type-2 shape proper: the longest free run from `z`, all
            // to one node, by a single `assign_run_at`.
            let len = (0..k as u64)
                .take_while(|i| z + i < VERTS && slow.owner(VertexId(z + i)).is_none())
                .count() as u64;
            fast.assign_run_at(VertexId(z), len, NodeId(u), slots.unwrap()[u as usize]);
            for i in 0..len {
                slow.assign(VertexId(z + i), NodeId(u));
            }
        }
        Op::AssignRun(z, u, k) => {
            for i in 0..k as u64 {
                let zi = (z + i) % VERTS;
                if slow.owner(VertexId(zi)).is_none() {
                    one(fast, slow, zi, Some((u + i) % NODES));
                }
            }
        }
        Op::UnassignRun(z, k) => {
            for i in 0..k as u64 {
                one(fast, slow, (z + i) % VERTS, None);
            }
        }
        Op::Pile(z, k) => {
            for i in 0..k as u64 {
                one(fast, slow, (z + i) % VERTS, Some(HOT));
            }
        }
    }
}

/// Full observable-state comparison.
fn assert_same(fast: &VirtualMapping, slow: &HashMapping) {
    assert_eq!(fast.num_vertices(), slow.num_vertices());
    assert_eq!(fast.num_nodes(), slow.num_nodes());
    assert_eq!(fast.spare_count(), slow.spare_count());
    assert_eq!(fast.low_count(), slow.low_count());
    assert_eq!(fast.max_load(), slow.max_load());
    for u in 0..NODES {
        assert_eq!(fast.load(NodeId(u)), slow.load(NodeId(u)), "load({u})");
        assert_eq!(fast.sim(NodeId(u)), slow.sim(NodeId(u)), "sim({u})");
    }
    for z in 0..VERTS {
        assert_eq!(
            fast.owner(VertexId(z)),
            slow.owner(VertexId(z)),
            "owner({z})"
        );
    }
    // Canonical-order entries: the dense scan vs the collect-and-sort
    // oracle path.
    assert_eq!(fast.entries_sorted(), slow.entries_sorted());
    let scanned: Vec<_> = fast.entries().collect();
    assert_eq!(scanned, slow.entries_sorted());
}

/// An injective node → slot table with holes: a shuffle of the nodes,
/// spread three slots apart, each nudged by 0 or 1.
fn slot_table(seed: u64) -> Vec<u32> {
    let mut s = seed | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let mut order: Vec<u32> = (0..NODES as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, next() as usize % (i + 1));
    }
    order.iter().map(|&r| 3 * r + (next() & 1) as u32).collect()
}

/// The slot readers agree with the oracle through the table, and every
/// node sits in the slot the caller named.
fn assert_slots(fast: &VirtualMapping, slow: &HashMapping, slots: &[u32]) {
    for u in 0..NODES {
        let slot = slots[u as usize];
        assert_eq!(fast.load_at(slot), slow.load(NodeId(u)), "load_at({slot})");
        assert_eq!(fast.sim_at(slot), slow.sim(NodeId(u)), "sim_at({slot})");
    }
    for z in (0..VERTS).map(VertexId) {
        if let Some(u) = slow.owner(z) {
            assert_eq!(
                fast.owner_slot_of(z),
                slots[u.0 as usize],
                "owner_slot_of({z})"
            );
        }
    }
    let held: Vec<_> = fast.nodes_at().collect();
    assert!(held.iter().all(|&(u, slot)| slots[u.0 as usize] == slot));
    assert_eq!(held.len(), slow.num_nodes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn caller_slotted_phi_matches_hashmap_phi_on_random_scripts(
        ops in proptest::collection::vec(arb_op(), 1..400),
        table_seed in any::<u64>()
    ) {
        let slots = slot_table(table_seed);
        let mut fast = VirtualMapping::with_caller_slots(8, 0, 0);
        let mut slow = HashMapping::new(8);
        for (i, &op) in ops.iter().enumerate() {
            apply_both(&mut fast, &mut slow, op, Some(&slots));
            prop_assert_eq!(fast.num_vertices(), slow.num_vertices());
            prop_assert_eq!(fast.spare_count(), slow.spare_count());
            prop_assert_eq!(fast.low_count(), slow.low_count());
            if i % 16 == 0 {
                fast.validate().map_err(proptest::prelude::TestCaseError::fail)?;
                assert_same(&fast, &slow);
                assert_slots(&fast, &slow, &slots);
            }
        }
        fast.validate().map_err(proptest::prelude::TestCaseError::fail)?;
        assert_same(&fast, &slow);
        assert_slots(&fast, &slow, &slots);
    }

    #[test]
    fn slot_phi_matches_hashmap_phi_on_random_scripts(
        ops in proptest::collection::vec(arb_op(), 1..400)
    ) {
        let mut fast = VirtualMapping::new(8);
        let mut slow = HashMapping::new(8);
        for (i, &op) in ops.iter().enumerate() {
            apply_both(&mut fast, &mut slow, op, None);
            // Counters/owners after every op; full deep compare periodically
            // (the deep compare is O(V + N·load)).
            prop_assert_eq!(fast.num_vertices(), slow.num_vertices());
            prop_assert_eq!(fast.spare_count(), slow.spare_count());
            prop_assert_eq!(fast.low_count(), slow.low_count());
            if i % 16 == 0 {
                fast.validate().map_err(proptest::prelude::TestCaseError::fail)?;
                assert_same(&fast, &slow);
            }
        }
        fast.validate().map_err(proptest::prelude::TestCaseError::fail)?;
        assert_same(&fast, &slow);
    }

    #[test]
    fn slot_phi_survives_dense_fill_and_drain(
        seed in any::<u64>()
    ) {
        // Type-2 shape: fill the whole vertex space, churn, drain.
        let mut fast = VirtualMapping::new(8);
        let mut slow = HashMapping::new(8);
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 11
        };
        for z in 0..VERTS {
            let u = next() % NODES;
            fast.assign(VertexId(z), NodeId(u));
            slow.assign(VertexId(z), NodeId(u));
        }
        assert_same(&fast, &slow);
        for _ in 0..200 {
            let z = next() % VERTS;
            let u = next() % NODES;
            assert_eq!(fast.transfer(VertexId(z), NodeId(u)), slow.transfer(VertexId(z), NodeId(u)));
        }
        fast.validate().map_err(proptest::prelude::TestCaseError::fail)?;
        assert_same(&fast, &slow);
        for z in 0..VERTS {
            assert_eq!(fast.unassign(VertexId(z)), slow.unassign(VertexId(z)));
        }
        prop_assert_eq!(fast.num_vertices(), 0);
        prop_assert_eq!(fast.num_nodes(), 0);
        fast.validate().map_err(proptest::prelude::TestCaseError::fail)?;
    }
}
