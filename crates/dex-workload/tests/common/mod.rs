//! The arbitrary serving-harness options the property tests draw from,
//! shared by `serve_determinism.rs` and the unit tests of `serve.rs`
//! (which include this file by path). The includer brings `Arrivals` and
//! `ServeOptions` into scope.

use super::{Arrivals, ServeOptions};
use proptest::prelude::*;

/// Strategy over a small but genuinely mixed harness configuration.
pub fn arb_opts() -> impl Strategy<Value = ServeOptions> {
    (
        1usize..4,    // shards
        0u8..3,       // arrival process selector
        1u32..64,     // offered load ×4 (0.25 .. 16 ops/round)
        0u32..101,    // read_pct
        0u32..81,     // churn_pct
        0usize..32,   // queue_cap selector (0 → unbounded)
        1usize..48,   // batch_max
        any::<u64>(), // seed
    )
        .prop_map(
            |(shards, arr, offered4, read_pct, churn_pct, cap_sel, batch_max, seed)| {
                let queue_cap = if cap_sel == 0 {
                    usize::MAX
                } else {
                    cap_sel + 1
                };
                ServeOptions {
                    shards,
                    n0: 20,
                    ops: 160,
                    offered: offered4 as f64 / 4.0,
                    arrivals: match arr {
                        0 => Arrivals::Burst,
                        1 => Arrivals::Uniform,
                        _ => Arrivals::Poisson,
                    },
                    read_pct,
                    churn_pct,
                    keyspace: 1 << 12,
                    queue_cap,
                    batch_max,
                    seed,
                    threads: 1,
                    ..ServeOptions::default()
                }
            },
        )
}
