//! Driving a [`DexNetwork`] with an [`Adversary`].

use crate::{Action, Adversary, View};
use dex_core::DexNetwork;
use dex_sim::StepMetrics;

/// Apply one action to the network through the matching entry point and
/// return the step's metered cost. This is the single dispatch every
/// driver (adversary loop, trace replay, scenario engine) goes through, so
/// a recorded trace replays through exactly the code paths that produced
/// it.
pub fn apply(dex: &mut DexNetwork, action: &Action) -> StepMetrics {
    match action {
        Action::Insert { id, attach } => dex.insert(*id, *attach),
        Action::Delete { victim } => dex.delete(*victim),
        Action::BatchInsert { joins } => dex.insert_batch(joins),
        Action::BatchDelete { victims } => dex.delete_batch(victims),
        Action::DhtPut { from, key, value } => dex.dht_insert(*from, *key, *value),
        Action::DhtGet { from, key } => dex.dht_lookup(*from, *key).1,
        Action::SetFaults { spec } => dex.set_faults_step(Some(*spec)),
        Action::ClearFaults => dex.set_faults_step(None),
    }
}

/// Let the adversary observe the full network state and strike once;
/// returns the action taken and the step's metered recovery cost.
pub fn step(dex: &mut DexNetwork, adv: &mut dyn Adversary) -> (Action, StepMetrics) {
    let action = {
        let load = |u| dex.load(u);
        let owner = |z| dex.map.owner(z);
        let view = View {
            graph: dex.graph(),
            load: &load,
            owner: &owner,
            p: dex.cycle.p(),
        };
        adv.next(&view)
    };
    let metrics = apply(dex, &action);
    (action, metrics)
}

/// Run `steps` adversarial steps; returns the recorded actions (a trace
/// that [`crate::ReplayTrace`] can replay bit-identically).
pub fn run(dex: &mut DexNetwork, adv: &mut dyn Adversary, steps: usize) -> Vec<Action> {
    let mut actions = Vec::with_capacity(steps);
    for _ in 0..steps {
        let (a, _) = step(dex, adv);
        actions.push(a);
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CoordinatorHunter, CutAttacker, HighLoadHunter, OscillatingSize, RandomChurn, ReplayTrace,
    };
    use dex_core::{invariants, DexConfig};

    fn fresh(seed: u64) -> DexNetwork {
        DexNetwork::bootstrap(DexConfig::new(seed).simplified(), 16)
    }

    #[test]
    fn all_adversaries_preserve_invariants() {
        let advs: Vec<Box<dyn Adversary>> = vec![
            Box::new(RandomChurn::new(1, 0.5)),
            Box::new(HighLoadHunter::new(2)),
            Box::new(CoordinatorHunter::new(3)),
            Box::new(CutAttacker::new(4)),
            Box::new(OscillatingSize::new(5, 8, 40)),
        ];
        for mut adv in advs {
            let mut dex = fresh(9);
            for s in 0..120 {
                step(&mut dex, adv.as_mut());
                if let Err(e) = invariants::check(&dex) {
                    panic!("{} step {s}: {e}", adv.name());
                }
            }
            assert!(
                dex.spectral_gap() > 0.005,
                "{} degraded the gap",
                adv.name()
            );
        }
    }

    /// Every adversary against the paper's default (staggered) mode at
    /// n0 = 64, `invariants::check` after each of 800 steps. The
    /// oscillation (32 ↔ 400 nodes) runs inflations and deflations — p
    /// goes 257 → 1,031 → 131 → 541 — so staggered windows are open while
    /// the others hunt loads, coordinators and cuts.
    fn staggered_sweep(seed: u64) {
        let advs: Vec<Box<dyn Adversary>> = vec![
            Box::new(RandomChurn::new(1, 0.5)),
            Box::new(HighLoadHunter::new(2)),
            Box::new(CoordinatorHunter::new(3)),
            Box::new(CutAttacker::new(4)),
            Box::new(OscillatingSize::new(5, 32, 400)),
        ];
        for mut adv in advs {
            let mut dex = DexNetwork::bootstrap(DexConfig::new(seed).staggered(), 64);
            let mut cycles = vec![dex.cycle.p()];
            let mut staging_steps = 0;
            for s in 0..800 {
                step(&mut dex, adv.as_mut());
                if let Err(e) = invariants::check(&dex) {
                    panic!("{} seed {seed} step {s}: {e}", adv.name());
                }
                staging_steps += dex.type2_in_progress() as u32;
                if cycles.last() != Some(&dex.cycle.p()) {
                    cycles.push(dex.cycle.p());
                }
            }
            if adv.name() == "oscillating-size" {
                assert!(staging_steps > 0, "seed {seed}: no staggered window");
                assert!(
                    cycles.windows(2).any(|w| w[1] > w[0])
                        && cycles.windows(2).any(|w| w[1] < w[0]),
                    "seed {seed}: p went {cycles:?}, not up and down"
                );
            }
        }
    }

    #[test]
    fn staggered_mode_survives_every_adversary_seed_9() {
        staggered_sweep(9);
    }

    #[test]
    fn staggered_mode_survives_every_adversary_seed_10() {
        staggered_sweep(10);
    }

    #[test]
    fn staggered_mode_survives_every_adversary_seed_11() {
        staggered_sweep(11);
    }

    #[test]
    fn staggered_mode_survives_coordinator_hunting() {
        let mut dex = DexNetwork::bootstrap(DexConfig::new(6).staggered(), 16);
        let mut adv = CoordinatorHunter::new(7);
        for s in 0..200 {
            step(&mut dex, &mut adv);
            if let Err(e) = invariants::check(&dex) {
                panic!("step {s}: {e}");
            }
        }
    }

    #[test]
    fn fault_phase_trace_replays_bit_identically() {
        // A campaign: churn clean, install heavy loss mid-trace, churn
        // through it, clear, churn again. The whole thing — fault spec
        // included — must survive a text round trip and replay to the
        // identical end state, lost-message counters and all.
        let spec = dex_core::FaultSpec::zero()
            .with_loss(350)
            .with_latency(1, 3)
            .with_retries(4, 4)
            .with_seed(0xfa57);
        let mut actions = Vec::new();
        let mut adv = RandomChurn::new(21, 0.7);
        let mut dex1 = DexNetwork::bootstrap(DexConfig::new(22).simplified(), 48);
        actions.extend(run(&mut dex1, &mut adv, 20));
        let a = Action::SetFaults { spec };
        apply(&mut dex1, &a);
        actions.push(a);
        actions.extend(run(&mut dex1, &mut adv, 30));
        apply(&mut dex1, &Action::ClearFaults);
        actions.push(Action::ClearFaults);
        actions.extend(run(&mut dex1, &mut adv, 20));
        invariants::assert_ok(&dex1);
        let s1 = dex1.fault_stats();
        assert!(s1.sent > s1.delivered, "loss never fired under the spec");

        let text = crate::trace::to_string(&actions);
        let parsed = crate::trace::parse(&text).unwrap();
        let mut dex2 = DexNetwork::bootstrap(DexConfig::new(22).simplified(), 48);
        let mut replay = ReplayTrace::new(parsed);
        run(&mut dex2, &mut replay, actions.len());
        assert_eq!(s1, dex2.fault_stats(), "fault counters diverged");
        let mut e1 = dex1.graph().edges();
        let mut e2 = dex2.graph().edges();
        e1.sort();
        e2.sort();
        assert_eq!(e1, e2);
    }

    #[test]
    fn trace_replay_reproduces_topology() {
        let mut dex1 = fresh(11);
        let mut adv = RandomChurn::new(12, 0.6);
        let actions = run(&mut dex1, &mut adv, 100);

        let text = crate::trace::to_string(&actions);
        let parsed = crate::trace::parse(&text).unwrap();
        let mut dex2 = fresh(11);
        let mut replay = ReplayTrace::new(parsed);
        run(&mut dex2, &mut replay, 100);

        let mut e1 = dex1.graph().edges();
        let mut e2 = dex2.graph().edges();
        e1.sort();
        e2.sort();
        assert_eq!(e1, e2);
    }
}
