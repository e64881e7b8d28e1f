//! Regression: a deletion during a staggered deflation must not leave a
//! node holding two reserves.
//!
//! The rescuer of a deleted node adopts the victim's staged vertices, the
//! victim's reserve among them. If it kept both reserves, its credit
//! would count a vertex that `donate` may not give, and the next node to
//! walk to it for credit hit `expect("credit >= 1 guaranteed a donatable
//! unit")`. These traces panicked there before the rescuer released the
//! extra reserve; `invariants::check` now also checks each node's reserve
//! while a deflation runs.
//!
//! Two more traces pin the credit protocol's rarest branches, found by a
//! seed sweep of the same driver with the branches counted: `donate`'s
//! last resort (the donor's only credit is a preassignment, which it
//! passes on) and a deletion of a node holding a preassignment (the
//! rescuer inherits the promise).

use dex_core::{invariants, DexConfig, DexNetwork};
use dex_graph::ids::NodeId;
use dex_sim::rng::splitmix64;

/// Bootstrap `DexConfig::new(seed)` at `n0`, grow to `top` by inserting
/// each new node at a random live one, then delete random live nodes down
/// to `floor`. The choices come from the SplitMix64 sequence seeded with
/// `seed ^ 0xabcdef`. Invariants are checked every `every` steps and at
/// the end.
fn grow_then_shrink(seed: u64, n0: u64, top: usize, floor: usize, every: u64) {
    let mut dex = DexNetwork::bootstrap(DexConfig::new(seed), n0);
    let mut ids = dex.node_ids();
    let mut state = seed ^ 0xabcdef;
    let mut pick = |len: usize| {
        let r = splitmix64(state);
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (r % len as u64) as usize
    };
    let mut fresh = dex.fresh_node_id().0;
    let mut step = 0u64;
    let check = |dex: &DexNetwork, step: u64| {
        if let Err(e) = invariants::check(dex) {
            panic!("seed {seed}, step {step} (n = {}): {e}", dex.n());
        }
    };
    while ids.len() < top {
        let attach = ids[pick(ids.len())];
        dex.insert(NodeId(fresh), attach);
        ids.push(NodeId(fresh));
        fresh += 1;
        step += 1;
        if step.is_multiple_of(every) {
            check(&dex, step);
        }
    }
    while ids.len() > floor {
        let victim = ids.swap_remove(pick(ids.len()));
        dex.delete(victim);
        step += 1;
        if step.is_multiple_of(every) {
            check(&dex, step);
        }
    }
    check(&dex, step);
}

/// 128 → 4,000 → 64 on seed 18 panicked at step 7,374, deleting from
/// n = 499 during a deflation; the run stops a few deletions past it.
#[test]
fn seed_18_deflation_deletions_keep_one_reserve_per_node() {
    grow_then_shrink(18, 128, 4000, 480, 97);
}

/// The same failure, shrunk: 64 → 1,000 on seed 101 panicked at step
/// 1,692, deleting from n = 245.
#[test]
fn shrunk_trace_keeps_one_reserve_per_node() {
    grow_then_shrink(101, 64, 1000, 200, 97);
}

/// 64 → 1,000 → 16 on seed 36 reaches `donate`'s last resort once.
#[test]
fn seed_36_donor_passes_on_a_preassignment() {
    grow_then_shrink(36, 64, 1000, 16, 1);
}

/// 64 → 1,000 → 16 on seed 165 deletes a node holding a preassignment
/// once.
#[test]
fn seed_165_rescuer_inherits_a_preassignment() {
    grow_then_shrink(165, 64, 1000, 16, 1);
}
