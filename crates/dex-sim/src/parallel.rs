//! Batches of independent random walks fanned over the [`dex_exec`]
//! worker pool. Output order always equals input order and results never
//! depend on the thread count — determinism tests enforce it.

use dex_graph::adjacency::MultiGraph;
use dex_graph::ids::NodeId;
use dex_graph::walks::SlotWalkJob;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One batch-walk job: start node, walk length, and an RNG seed. Seeds are
/// carried per job (not derived from job position at run time) so a batch
/// can be split, filtered, or re-ordered without changing any endpoint.
#[derive(Debug, Clone, Copy)]
pub struct WalkJob {
    /// Start node (must be in the graph when the batch runs).
    pub start: NodeId,
    /// Number of hops.
    pub len: usize,
    /// Per-walk RNG seed.
    pub seed: u64,
}

/// Jobs per interleaving unit on the memory-level-parallel path. Fixed
/// (never derived from `threads`) so chunk boundaries — and therefore the
/// exact interleaving schedule — are thread-count invariant. The schedule
/// doesn't affect results anyway (each walk owns its RNG), but a fixed
/// split keeps the memory access pattern reproducible for profiling.
const WALK_CHUNK: usize = 1024;

/// Endpoints of a batch of independent random walks, computed in parallel
/// over `threads` workers. Walk `i` of the output corresponds to
/// `jobs[i]`; every walk derives its randomness exclusively from its own
/// `seed`, so results are identical for any thread count (a determinism
/// test enforces this).
///
/// Walks run on the graph's dense slot space: after one id→slot resolution
/// per job, each hop is two array reads and no heap allocation. Within a
/// worker, walks go through the K-way interleaved engine
/// ([`dex_graph::walks::run_interleaved`]) unless `DEX_MLP_KERNELS=0`:
/// ~K walks advance round-robin with their next rows prefetched, so
/// DRAM misses overlap instead of serializing — bit-identical endpoints
/// either way, since interleaving only permutes *when* each walk's own
/// RNG stream is consumed, never *what* it draws.
pub fn par_walk_endpoints(g: &MultiGraph, jobs: &[WalkJob], threads: usize) -> Vec<NodeId> {
    walk_endpoints_impl(g, jobs, threads, dex_graph::par::mlp_enabled())
}

/// Internal switch between the interleaved and scalar batch paths, so
/// differential tests can compare both in one process regardless of the
/// `DEX_MLP_KERNELS` environment.
fn walk_endpoints_impl(
    g: &MultiGraph,
    jobs: &[WalkJob],
    threads: usize,
    interleave: bool,
) -> Vec<NodeId> {
    if !interleave {
        return dex_exec::par_map(jobs, threads, |job| {
            let mut rng = StdRng::seed_from_u64(job.seed);
            let slot = g
                .slot_of(job.start)
                .unwrap_or_else(|| panic!("walk start {} not in graph", job.start));
            g.id_of_slot(g.walk_slots(slot, job.len, &mut rng))
        });
    }
    // Resolve ids to slots once up front (sequential: it's a hash probe per
    // job, cheap next to the walks), then fan WALK_CHUNK-sized runs of jobs
    // over the pool, each run driven K-way through the interleaved engine.
    let slot_jobs: Vec<SlotWalkJob> = jobs
        .iter()
        .map(|job| SlotWalkJob {
            start: g
                .slot_of(job.start)
                .unwrap_or_else(|| panic!("walk start {} not in graph", job.start)),
            len: job.len,
            seed: job.seed,
        })
        .collect();
    let k = dex_graph::par::walk_pipeline_k();
    let mut ends = vec![0u32; jobs.len()];
    dex_exec::for_chunks_state_mut(
        &mut ends,
        threads,
        WALK_CHUNK,
        || (),
        |start, chunk, ()| {
            dex_graph::walks::walk_endpoints_interleaved(
                g,
                &slot_jobs[start..start + chunk.len()],
                k,
                chunk,
            );
        },
    );
    ends.into_iter().map(|s| g.id_of_slot(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_graph::PCycle;

    #[test]
    fn batch_walks_deterministic_across_thread_counts() {
        let g = PCycle::new(101).to_multigraph();
        let jobs: Vec<WalkJob> = (0..64)
            .map(|i| WalkJob {
                start: NodeId(i % 101),
                len: 30,
                seed: 0xabcd ^ i,
            })
            .collect();
        let seq = par_walk_endpoints(&g, &jobs, 1);
        for threads in [2, 4, 16] {
            assert_eq!(
                par_walk_endpoints(&g, &jobs, threads),
                seq,
                "threads={threads}"
            );
        }
        for &u in &seq {
            assert!(g.has_node(u));
        }
    }

    #[test]
    fn interleaved_batch_is_bit_identical_to_scalar() {
        // The K-way engine must produce byte-equal endpoints to the scalar
        // per-job path at every thread count, including across the
        // WALK_CHUNK boundary (batch > 1024 jobs) and with zero-length and
        // repeated-start jobs in the mix.
        let g = PCycle::new(257).to_multigraph();
        let jobs: Vec<WalkJob> = (0..(WALK_CHUNK as u64 + 300))
            .map(|i| WalkJob {
                start: NodeId(i % 257),
                len: (i as usize * 13) % 50, // includes len == 0
                seed: 0x5eed_0000 ^ (i * 0x9e37),
            })
            .collect();
        let scalar = walk_endpoints_impl(&g, &jobs, 1, false);
        for threads in [1, 8] {
            assert_eq!(
                walk_endpoints_impl(&g, &jobs, threads, true),
                scalar,
                "interleaved vs scalar, threads={threads}"
            );
        }
    }
}
