//! Batch churn: multiple insertions or deletions per step
//! (paper, Sect. 5 and Corollary 2).
//!
//! The adversary may insert or delete up to εn nodes at once, subject to
//! the paper's conditions: each inserted node attaches to an existing
//! node with only O(1) newcomers per attach point; deletions leave the
//! remainder connected with at least one surviving neighbor per victim.
//! Recovery may lean on the simplified type-2 procedures every O(1) steps,
//! for O(n log² n) messages and O(log³ n) rounds per batch.
//!
//! Implementation: the batch shares one step scope and its ops are healed
//! one at a time in canonical (batch) order by the same type-1 machinery
//! as single-op steps, with walk streams keyed by `(step, node, attempt)`.

use crate::config::RecoveryMode;
use crate::dex::{DexNetwork, HealScope};
use dex_graph::ids::NodeId;
use dex_sim::{RecoveryKind, StepKind, StepMetrics};

/// Maximum newcomers per attach point in one batch (the paper's O(1)
/// anti-congestion bound, Sect. 5).
pub const MAX_ATTACH_FAN_IN: usize = 8;

/// Read by the frozen benchmark crate (`benchmark/src/metrics.rs`) and
/// written by nothing; goes away with the four `core.batch_*` per-layer
/// metrics in the next `benchmark` PR.
#[derive(Debug, Clone, Default)]
pub struct BatchHealStats {
    pub waves: u64,
    pub replans: u64,
    pub max_wave: usize,
    pub plan_ns: u64,
    pub partition_ns: u64,
    pub commit_ns: u64,
    pub serial_ns: u64,
}

impl DexNetwork {
    /// Insert a batch of `(new_node, attach_to)` pairs in one adversarial
    /// step, healed pair-by-pair in batch order. Requires simplified mode
    /// (the staggered machinery assumes one event per step, as in the
    /// paper).
    ///
    /// # Panics
    /// Panics on duplicate ids, missing attach points, or more than O(1)
    /// newcomers per attach point (the paper's congestion condition).
    pub fn insert_batch(&mut self, joins: &[(NodeId, NodeId)]) -> StepMetrics {
        self.validate_insert_batch(joins);
        self.step_no += 1;
        self.net.begin_step();
        let mut used_type2 = false;
        for (i, &(u, v)) in joins.iter().enumerate() {
            let su = self.net.adversary_add_node(u);
            // Resolved at validation unless `v` joined earlier in this batch.
            let sv = self.heal.batch_slots[i].unwrap_or_else(|| self.slot(v));
            self.net.adversary_add_edge_slots(su, sv);
            used_type2 |= self.heal_insert(su, sv, HealScope::BatchOp) != RecoveryKind::Type1;
        }
        self.net.end_step(
            StepKind::BatchInsert(joins.len() as u32),
            if used_type2 {
                RecoveryKind::InflateSimple
            } else {
                RecoveryKind::Type1
            },
        )
    }

    /// Validate the whole batch before touching any state: fan-in per
    /// attach point (the paper's O(1) anti-congestion requirement,
    /// counted in one pass), newcomer uniqueness, no collision with a
    /// live node, and attach-point existence — an attach point may be a
    /// live node or an *earlier newcomer of the same batch* (healing
    /// runs pair-by-pair, so chained joins are well-defined). A
    /// mid-batch panic after partial mutation would leave the fabric
    /// unhealable. Each attach point is translated here, once:
    /// `heal.batch_slots[i]` is its slot, `None` for an earlier newcomer.
    fn validate_insert_batch(&mut self, joins: &[(NodeId, NodeId)]) {
        assert_eq!(
            self.cfg.mode,
            RecoveryMode::Simplified,
            "batch mode requires simplified type-2 (Sect. 5)"
        );
        assert!(!joins.is_empty());
        self.heal.fan_in.clear();
        self.heal.seen.clear();
        self.heal.batch_slots.clear();
        for &(u, v) in joins {
            let fan = self.heal.fan_in.entry(v).or_insert(0);
            *fan += 1;
            let fan = *fan;
            assert!(
                fan <= MAX_ATTACH_FAN_IN,
                "attach fan-in {fan} at {v} violates O(1) bound"
            );
            let sv = self.net.graph().slot_of(v);
            assert!(
                sv.is_some() || self.heal.seen.contains(&v),
                "attach point {v} missing"
            );
            self.heal.batch_slots.push(sv);
            assert!(self.heal.seen.insert(u), "duplicate newcomer {u} in batch");
            assert!(
                !self.net.graph().has_node(u),
                "newcomer {u} collides with an existing node"
            );
        }
    }

    /// Delete a batch of victims in one adversarial step, healed
    /// victim-by-victim in batch order. The remainder graph must stay
    /// connected (checked after healing, which restores the contraction
    /// fabric and hence connectivity).
    pub fn delete_batch(&mut self, victims: &[NodeId]) -> StepMetrics {
        self.validate_delete_batch(victims);
        self.step_no += 1;
        self.net.begin_step();
        let mut used_type2 = false;
        for (i, &victim) in victims.iter().enumerate() {
            let victim_slot = self.heal.batch_slots[i].expect("validated live");
            // Every victim must keep one surviving neighbor (paper's
            // condition); because healing runs victim-by-victim, the
            // previous victims' vertices have already been rehomed.
            let rescuer = self
                .rescuer_of(victim_slot)
                .unwrap_or_else(|| panic!("victim {victim} lost all neighbors"));
            self.net.adversary_remove_node(victim);
            used_type2 |= self.heal_delete(victim, victim_slot, rescuer, HealScope::BatchOp)
                != RecoveryKind::Type1;
        }
        self.net.end_step(
            StepKind::BatchDelete(victims.len() as u32),
            if used_type2 {
                RecoveryKind::DeflateSimple
            } else {
                RecoveryKind::Type1
            },
        )
    }

    /// Validate before mutating: victims must be live and distinct. Each
    /// is translated here, once: `heal.batch_slots[i]` is its slot.
    fn validate_delete_batch(&mut self, victims: &[NodeId]) {
        assert_eq!(self.cfg.mode, RecoveryMode::Simplified);
        assert!(!victims.is_empty());
        assert!(
            victims.len() < self.n() - 1,
            "batch would empty the network"
        );
        self.heal.seen.clear();
        self.heal.batch_slots.clear();
        for &victim in victims {
            let slot = self.net.graph().slot_of(victim);
            assert!(slot.is_some(), "victim {victim} missing");
            self.heal.batch_slots.push(slot);
            assert!(
                self.heal.seen.insert(victim),
                "duplicate victim {victim} in batch"
            );
        }
    }
}
