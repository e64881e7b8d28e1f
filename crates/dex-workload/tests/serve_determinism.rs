//! Property tests for the sharded serving harness: over arbitrary mixed
//! put/get/join/leave schedules (arrival process, load, mix, shard count
//! and queue bound all drawn by proptest), the whole-harness run must be
//! **bit-identical across executor fan-out widths** — the serving-layer
//! face of the workspace's determinism contract — and its accounting
//! must always close (every offered op is either served with a latency
//! sample or deterministically shed).

mod common;

use common::arb_opts;
use dex_workload::serve::{build_schedule, route_shard, OpKind};
use dex_workload::{run_serve, Arrivals, ServeOptions};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn harness_is_bit_identical_across_exec_threads(o in arb_opts()) {
        let base = run_serve(&o);
        for threads in [3usize, 8] {
            let r = run_serve(&ServeOptions { threads, ..o });
            prop_assert_eq!(&base, &r, "diverged at threads={}", threads);
        }
    }

    #[test]
    fn accounting_always_closes(o in arb_opts()) {
        let r = run_serve(&o);
        prop_assert_eq!(r.served + r.shed, o.ops as u64);
        prop_assert_eq!(r.latency.count as u64, r.served);
        if o.queue_cap == usize::MAX {
            prop_assert_eq!(r.shed, 0);
        }
        for sr in &r.shards {
            prop_assert_eq!(sr.mismatches, 0, "shard {} oracle mismatch", sr.shard);
            prop_assert!(sr.queue_peak <= o.queue_cap);
            prop_assert!(sr.batch_peak <= o.batch_max.max(1));
            prop_assert_eq!(
                sr.served,
                sr.puts + sr.gets + sr.joins + sr.leaves + sr.leaves_skipped
            );
        }
    }

    #[test]
    fn schedule_routes_by_key_and_stays_sorted(o in arb_opts()) {
        let sched = build_schedule(&o);
        prop_assert_eq!(sched.iter().map(Vec::len).sum::<usize>(), o.ops);
        for (s, ops) in sched.iter().enumerate() {
            for w in ops.windows(2) {
                prop_assert!(w[0].arrival <= w[1].arrival);
            }
            for op in ops {
                if let OpKind::Put { key, .. } | OpKind::Get { key } = op.kind {
                    prop_assert_eq!(route_shard(key, o.shards), s);
                }
            }
        }
    }
}
