//! Sharded open-loop DHT serving harness.
//!
//! Everything else in this crate drives a *closed-loop* adversary: each
//! step waits for the previous heal to finish. A production deployment
//! looks different — traffic arrives on its own schedule whether or not
//! the network is mid-heal, and the question is how much sustained load a
//! process can absorb before latency collapses. This module answers it
//! deterministically:
//!
//! * the key space is split across `S` independent [`DexNetwork`] shards
//!   ([`route_shard`]: a splitmix64 hash of the key — the same key always
//!   lands on the same shard);
//! * an **open-loop arrival schedule** ([`build_schedule`]) is derived
//!   entirely from the seed: virtual-time Poisson or uniform arrivals of
//!   a put/get/join/leave mix. No wall-clock anywhere — time is counted
//!   in the simulator's synchronous *rounds*;
//! * each shard pumps its arrivals through a **bounded ingestion queue**
//!   in FIFO order, against two clocks. A DHT get or put is a route of
//!   O(log n) rounds along a locally computed path (Sect. 4.4.4), and
//!   nothing makes one initiator's route wait for another's: it starts
//!   once it has arrived and the churn batch in progress has ended, and
//!   later DHT ops do not wait for it. Churn is exclusive: a join/leave
//!   batch starts only once every earlier DHT op has completed, so the
//!   topology never changes under an in-flight route. Compatible churn
//!   ops at the queue head coalesce into one batch step (`insert_batch` /
//!   `delete_batch`: k joins heal in one step scope instead of k), and an
//!   arrival that finds the queue full is **shed** — deterministic
//!   backpressure, visible in the report;
//! * shard execution fans out over the order-preserving
//!   `dex_exec::par_map`. Shards are fully independent (own RNG
//!   stream, own heal queue, own [`StepLog`]), so the whole run is
//!   **bit-identical at any thread count**.
//!
//! Ops apply to the network in FIFO order, one at a time, so every op
//! sees the network state it would see served singly; only the timing
//! (and with it how churn coalesces) comes from the two clocks. Per-op
//! latency is `completion − arrival` in virtual rounds: queueing delay
//! (`start − arrival`) plus service rounds (heal rounds of the batch for
//! churn, route rounds for DHT traffic), each also summarised per class.
//! Latencies pool across shards into a [`Summary`] (p50/p99/p999);
//! per-step heal costs pool through the same [`StepAggregate::pooled`]
//! entry point the trial runners use. Concurrent routes are not charged
//! for sharing edges; [`ShardReport::inflight_peak`] measures how many
//! share a shard at once.

use dex_core::batch::MAX_ATTACH_FAN_IN;
use dex_core::{DexConfig, DexNetwork};
use dex_graph::fxhash::FxHashMap;
use dex_graph::ids::NodeId;
use dex_sim::rng::splitmix64;
use dex_sim::{HasStepLog, HistoryMode, StepAggregate, StepLog, Summary};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Smallest node count a shard may shrink to; leave ops that would cross
/// the floor are skipped (counted in [`ShardReport::leaves_skipped`]).
pub const SHARD_FLOOR: usize = crate::gen::MIN_N;

// Domain-separation salts for the schedule's keyed draws.
const ROUTE_SALT: u64 = 0x5e7d_0001;
const MIX_SALT: u64 = 0x5e7d_0002;
const CHURN_SALT: u64 = 0x5e7d_0003;
const KEY_SALT: u64 = 0x5e7d_0004;
const VALUE_SALT: u64 = 0x5e7d_0005;
const PICK_SALT: u64 = 0x5e7d_0006;
const GAP_SALT: u64 = 0x5e7d_0007;
const SHARD_SALT: u64 = 0x5e7d_0008;

/// Which shard a DHT key lives on. Pure function of `(key, shards)` —
/// the routing contract the DHT shards rely on.
pub fn route_shard(key: u64, shards: usize) -> usize {
    (splitmix64(key ^ ROUTE_SALT) % shards.max(1) as u64) as usize
}

/// Arrival-time process of the open-loop schedule (virtual rounds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Every op arrives at round 0 — the closed-loop saturation probe
    /// used to calibrate a shard's service capacity (run it with an
    /// unbounded queue so nothing sheds).
    Burst,
    /// Evenly spaced: op `k` arrives at `⌊k / offered⌋`.
    Uniform,
    /// Poisson: exponential inter-arrival gaps at rate `offered`,
    /// sampled from the seed's splitmix64 stream.
    Poisson,
}

/// One serving-harness run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Number of key-space shards (independent networks).
    pub shards: usize,
    /// Bootstrap size of every shard (aggregate n ≈ `shards × n0`).
    pub n0: u64,
    /// Total operations offered across all shards.
    pub ops: usize,
    /// Aggregate offered load in ops per virtual round (ignored by
    /// [`Arrivals::Burst`]).
    pub offered: f64,
    /// Arrival-time process.
    pub arrivals: Arrivals,
    /// Percentage (0–100) of non-churn ops that are lookups.
    pub read_pct: u32,
    /// Percentage (0–100) of ops that are churn (join/leave, split evenly).
    pub churn_pct: u32,
    /// DHT key domain size.
    pub keyspace: u64,
    /// Bounded per-shard ingestion-queue capacity; an arrival that finds
    /// the queue full is shed. `usize::MAX` disables shedding.
    pub queue_cap: usize,
    /// Most ops one coalesced batch may carry.
    pub batch_max: usize,
    /// Master seed; every stream derives from it via splitmix64.
    pub seed: u64,
    /// Shard fan-out width of the `par_map` (0 → the global
    /// thread budget). Pure throughput knob: results are bit-identical
    /// for any value.
    pub threads: usize,
    /// Ignored, kept only because the frozen `benchmark/` crate sets it:
    /// a shard network fans nothing out. Goes with the next `benchmark`
    /// PR (ROADMAP).
    pub heal_threads: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: 4,
            n0: 64,
            ops: 512,
            offered: 1.0,
            arrivals: Arrivals::Poisson,
            read_pct: 60,
            churn_pct: 20,
            keyspace: 1 << 20,
            queue_cap: 4096,
            batch_max: 64,
            seed: 0x5e7e,
            threads: 0,
            heal_threads: 1,
        }
    }
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// DHT write of `(key, value)`.
    Put {
        /// DHT key.
        key: u64,
        /// Stored value.
        value: u64,
    },
    /// DHT read of `key`.
    Get {
        /// DHT key.
        key: u64,
    },
    /// One node joins the shard.
    Join,
    /// One node leaves the shard.
    Leave,
}

/// One op of the open-loop schedule, routed to its shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpec {
    /// Global sequence number (the op's identity — RNG draws key on it).
    pub seq: u64,
    /// Arrival time in virtual rounds (nondecreasing in `seq`).
    pub arrival: u64,
    /// What the op does.
    pub kind: OpKind,
}

/// Compile the deterministic open-loop schedule: `opts.ops` operations
/// with arrival times from the configured process, routed to shards by
/// key hash (DHT ops) or a keyed draw (churn ops). Per-shard lists come
/// out sorted by `(arrival, seq)` because global arrival times are
/// nondecreasing in `seq`.
pub fn build_schedule(opts: &ServeOptions) -> Vec<Vec<OpSpec>> {
    assert!(opts.shards >= 1, "need at least one shard");
    if opts.arrivals != Arrivals::Burst {
        assert!(
            opts.offered > 0.0 && opts.offered.is_finite(),
            "open-loop arrivals need a positive offered load"
        );
    }
    let mut per_shard: Vec<Vec<OpSpec>> = vec![Vec::new(); opts.shards];
    // Keys already written, for read traffic (generation-time view; the
    // per-shard shadow stores re-derive the same contents at serve time).
    let mut known: Vec<u64> = Vec::new();
    let mut clock = 0.0f64;
    for seq in 0..opts.ops as u64 {
        let arrival = match opts.arrivals {
            Arrivals::Burst => 0,
            Arrivals::Uniform => (seq as f64 / opts.offered) as u64,
            Arrivals::Poisson => {
                // u ∈ (0, 1]: 53 mantissa bits, nudged off zero.
                let u = ((splitmix64(opts.seed ^ GAP_SALT ^ seq) >> 11) as f64 + 1.0)
                    * (1.0 / (1u64 << 53) as f64);
                clock += -u.ln() / opts.offered;
                clock as u64
            }
        };
        let r = splitmix64(opts.seed ^ MIX_SALT ^ seq);
        let (shard, kind) = if (r % 100) < opts.churn_pct as u64 {
            let shard = (splitmix64(opts.seed ^ CHURN_SALT ^ seq) % opts.shards as u64) as usize;
            let kind = if r & (1 << 32) == 0 {
                OpKind::Join
            } else {
                OpKind::Leave
            };
            (shard, kind)
        } else if (splitmix64(r) % 100) < opts.read_pct as u64 && !known.is_empty() {
            let key =
                known[(splitmix64(opts.seed ^ PICK_SALT ^ seq) % known.len() as u64) as usize];
            (route_shard(key, opts.shards), OpKind::Get { key })
        } else {
            let key = splitmix64(opts.seed ^ KEY_SALT ^ seq) % opts.keyspace.max(1);
            let value = splitmix64(opts.seed ^ VALUE_SALT ^ seq);
            known.push(key);
            (route_shard(key, opts.shards), OpKind::Put { key, value })
        };
        per_shard[shard].push(OpSpec { seq, arrival, kind });
    }
    per_shard
}

/// Everything one shard produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Network size after the run.
    pub final_n: usize,
    /// Ops served to completion (latency recorded for each).
    pub served: u64,
    /// Arrivals dropped because the bounded queue was full.
    pub shed: u64,
    /// Leave ops skipped at the [`SHARD_FLOOR`] (served as 1-round no-ops).
    pub leaves_skipped: u64,
    /// Service batches executed (each one `StepLog` entry).
    pub batches: u64,
    /// Largest coalesced batch observed.
    pub batch_peak: usize,
    /// Deepest the ingestion queue got (ops arrived, not yet started).
    pub queue_peak: usize,
    /// Most DHT ops in flight at once.
    pub inflight_peak: usize,
    /// Virtual round at which the shard went idle (makespan).
    pub makespan: u64,
    /// Served op counts by kind: puts, gets, joins, leaves.
    pub puts: u64,
    /// Lookups served.
    pub gets: u64,
    /// Joins healed in.
    pub joins: u64,
    /// Leaves healed out.
    pub leaves: u64,
    /// Lookups that found a value.
    pub lookup_hits: u64,
    /// Lookups disagreeing with the shard's shadow store (must be 0).
    pub mismatches: u64,
    /// Per-batch heal/route costs, one entry per service batch.
    pub log: StepLog,
    /// Per-op latency in virtual rounds (`completion − arrival`),
    /// service (FIFO) order.
    pub latencies: Vec<u64>,
    /// Queueing and service rounds of every DHT op, service order.
    pub dht: ClassTimes,
    /// Queueing and service rounds of every churn op, service order.
    pub churn: ClassTimes,
    /// splitmix64 fold of every served step's costs and lookup results —
    /// the cheap bit-identity witness.
    pub digest: u64,
}

/// Per-op timing of one service class, in virtual rounds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassTimes {
    /// `start − arrival` of each op.
    pub queueing: Vec<u64>,
    /// `completion − start` of each op (its batch's service rounds).
    pub service: Vec<u64>,
}

impl ClassTimes {
    fn push(&mut self, arrival: u64, start: u64, end: u64) {
        self.queueing.push(start - arrival);
        self.service.push(end - start);
    }
}

impl HasStepLog for ShardReport {
    fn step_log(&self) -> &StepLog {
        &self.log
    }
}

/// Aggregate view of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-shard reports, shard order.
    pub shards: Vec<ShardReport>,
    /// Aggregate network size after the run.
    pub final_n: usize,
    /// Ops served across all shards.
    pub served: u64,
    /// Ops shed across all shards.
    pub shed: u64,
    /// Slowest shard's makespan in virtual rounds.
    pub makespan: u64,
    /// Sustained throughput in ops per virtual round (`served/makespan`).
    pub ops_per_round: f64,
    /// Latency percentiles over every served op, pooled across shards.
    pub latency: Summary,
    /// Queueing delay of DHT ops, pooled across shards.
    pub dht_queueing: Summary,
    /// Service (route) rounds of DHT ops, pooled across shards.
    pub dht_service: Summary,
    /// Queueing delay of churn ops, pooled across shards.
    pub churn_queueing: Summary,
    /// Service (heal) rounds of churn ops, pooled across shards.
    pub churn_service: Summary,
    /// Per-batch heal/route costs pooled across shards.
    pub steps: StepAggregate,
    /// Fold of the shard digests (order-independent-free: shard order is
    /// fixed, so a plain chain suffices).
    pub digest: u64,
}

/// Run the full sharded harness: build the schedule, serve every shard
/// over `dex_exec::par_map`, pool the results. Bit-identical for any
/// `threads` value.
pub fn run_serve(opts: &ServeOptions) -> ServeReport {
    let schedule = build_schedule(opts);
    let idx: Vec<usize> = (0..opts.shards).collect();
    let threads = if opts.threads == 0 {
        dex_exec::thread_budget()
    } else {
        opts.threads
    };
    let shards = dex_exec::par_map(&idx, threads, |&s| {
        serve_shard(s, &schedule[s], opts).into_report()
    });
    let served: u64 = shards.iter().map(|r| r.served).sum();
    let shed: u64 = shards.iter().map(|r| r.shed).sum();
    let makespan = shards.iter().map(|r| r.makespan).max().unwrap_or(0);
    let pool = |col: fn(&ShardReport) -> &[u64]| {
        Summary::of(shards.iter().flat_map(|r| col(r).iter().copied()))
    };
    let latency = pool(|r| &r.latencies);
    let dht_queueing = pool(|r| &r.dht.queueing);
    let dht_service = pool(|r| &r.dht.service);
    let churn_queueing = pool(|r| &r.churn.queueing);
    let churn_service = pool(|r| &r.churn.service);
    let steps = StepAggregate::pooled(&shards);
    let mut digest = splitmix64(opts.seed ^ SHARD_SALT);
    for r in &shards {
        digest = splitmix64(digest ^ r.digest);
    }
    ServeReport {
        final_n: shards.iter().map(|r| r.final_n).sum(),
        served,
        shed,
        makespan,
        ops_per_round: if makespan == 0 {
            served as f64
        } else {
            served as f64 / makespan as f64
        },
        latency,
        dht_queueing,
        dht_service,
        churn_queueing,
        churn_service,
        steps,
        digest,
        shards,
    }
}

/// The service classes a batch may coalesce. DHT ops are served singly
/// (their cost is one route) and overlap one another; churn ops of the
/// same direction coalesce into one exclusive batch step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Join,
    Leave,
    Dht,
}

fn class_of(kind: &OpKind) -> Class {
    match kind {
        OpKind::Join => Class::Join,
        OpKind::Leave => Class::Leave,
        OpKind::Put { .. } | OpKind::Get { .. } => Class::Dht,
    }
}

/// One shard's discrete-event serving loop — a pure function of
/// `(shard, its schedule slice, opts)`, sequential inside.
fn serve_shard(shard: usize, arrivals: &[OpSpec], opts: &ServeOptions) -> Shard {
    let mut sh = Shard::new(shard, opts);
    for op in arrivals {
        // Serve every batch that must start before this op can be part
        // of one: a batch starting at `start` may only carry ops with
        // arrival ≤ start, and those are exactly the ones already queued.
        sh.drain(op.arrival, false);
        if sh.queue.len() >= opts.queue_cap {
            sh.shed += 1;
            sh.digest = splitmix64(sh.digest ^ splitmix64(op.seq ^ 0x5ed));
        } else {
            sh.queue.push_back(*op);
            sh.queue_peak = sh.queue_peak.max(sh.queue.len());
        }
    }
    sh.drain(u64::MAX, true);
    sh
}

struct Shard {
    shard: usize,
    dex: DexNetwork,
    live: Vec<NodeId>,
    next_id: u64,
    state: u64,
    queue: VecDeque<OpSpec>,
    /// End of the latest churn batch.
    churn_until: u64,
    /// Latest completion of any DHT op.
    dht_until: u64,
    /// Completion rounds of the DHT ops that may still be in flight.
    inflight: BinaryHeap<Reverse<u64>>,
    inflight_peak: usize,
    shadow: FxHashMap<u64, u64>,
    log: StepLog,
    latencies: Vec<u64>,
    dht: ClassTimes,
    churn: ClassTimes,
    /// Every service interval `[start, end)` with its class.
    #[cfg(test)]
    intervals: Vec<(Class, u64, u64)>,
    batch: Vec<OpSpec>,
    joins_buf: Vec<(NodeId, NodeId)>,
    victims_buf: Vec<NodeId>,
    fan: FxHashMap<NodeId, usize>,
    batch_max: usize,
    served: u64,
    shed: u64,
    leaves_skipped: u64,
    batches: u64,
    batch_peak: usize,
    queue_peak: usize,
    puts: u64,
    gets: u64,
    joins: u64,
    leaves: u64,
    lookup_hits: u64,
    mismatches: u64,
    digest: u64,
}

impl Shard {
    fn new(shard: usize, opts: &ServeOptions) -> Shard {
        let seed = splitmix64(opts.seed ^ SHARD_SALT ^ shard as u64);
        let mut dex = DexNetwork::bootstrap(
            DexConfig::new(splitmix64(seed ^ 0x6e75)).simplified(),
            opts.n0,
        );
        dex.net.set_history_mode(HistoryMode::Off);
        let live = dex.node_ids();
        let next_id = live.iter().map(|u| u.0).max().unwrap_or(0) + 1;
        Shard {
            shard,
            dex,
            live,
            next_id,
            state: splitmix64(seed ^ 0x11ea1),
            queue: VecDeque::new(),
            churn_until: 0,
            dht_until: 0,
            inflight: BinaryHeap::new(),
            inflight_peak: 0,
            shadow: FxHashMap::default(),
            log: StepLog::new(),
            latencies: Vec::new(),
            dht: ClassTimes::default(),
            churn: ClassTimes::default(),
            #[cfg(test)]
            intervals: Vec::new(),
            batch: Vec::new(),
            joins_buf: Vec::new(),
            victims_buf: Vec::new(),
            fan: FxHashMap::default(),
            batch_max: opts.batch_max.max(1),
            served: 0,
            shed: 0,
            leaves_skipped: 0,
            batches: 0,
            batch_peak: 0,
            queue_peak: 0,
            puts: 0,
            gets: 0,
            joins: 0,
            leaves: 0,
            lookup_hits: 0,
            mismatches: 0,
            digest: splitmix64(seed),
        }
    }

    #[inline]
    fn rnd(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Serve batches from the queue head, in FIFO order. A DHT op may
    /// start once it has arrived and the latest churn batch has ended; a
    /// churn batch also waits for every earlier DHT op to complete. A
    /// batch must not start at or after `horizon` (the next arrival's
    /// time) unless `force`, since that arrival could still belong to it.
    fn drain(&mut self, horizon: u64, force: bool) {
        while let Some(front) = self.queue.front().copied() {
            let class = class_of(&front.kind);
            let ready = match class {
                Class::Dht => self.churn_until,
                Class::Join | Class::Leave => self.churn_until.max(self.dht_until),
            };
            let start = ready.max(front.arrival);
            if !force && start >= horizon {
                break;
            }
            // Coalesce the head run: same class, already arrived.
            let cap = if class == Class::Dht {
                1
            } else {
                self.batch_max
            };
            self.batch.clear();
            while self.batch.len() < cap {
                match self.queue.front() {
                    Some(op) if class_of(&op.kind) == class && op.arrival <= start => {
                        self.batch
                            .push(self.queue.pop_front().expect("front exists"));
                    }
                    _ => break,
                }
            }
            let end = start + self.serve_batch(class).max(1);
            #[cfg(test)]
            self.intervals.push((class, start, end));
            let times = if class == Class::Dht {
                self.dht_until = self.dht_until.max(end);
                while self.inflight.peek().is_some_and(|&Reverse(t)| t <= start) {
                    self.inflight.pop();
                }
                self.inflight.push(Reverse(end));
                self.inflight_peak = self.inflight_peak.max(self.inflight.len());
                &mut self.dht
            } else {
                self.churn_until = end;
                &mut self.churn
            };
            for op in &self.batch {
                times.push(op.arrival, start, end);
                self.latencies.push(end - op.arrival);
            }
            self.batches += 1;
            self.batch_peak = self.batch_peak.max(self.batch.len());
            self.served += self.batch.len() as u64;
        }
    }

    /// Execute one coalesced batch; returns its service time in rounds.
    fn serve_batch(&mut self, class: Class) -> u64 {
        match class {
            Class::Join => {
                self.joins_buf.clear();
                self.fan.clear();
                for _ in 0..self.batch.len() {
                    // Rejection-sample an attach point with fan-in room
                    // (mirrors `gen::flash_wave`).
                    let mut attach = None;
                    for _ in 0..16 {
                        let r = self.rnd();
                        let v = self.live[(r % self.live.len() as u64) as usize];
                        if self.fan.get(&v).copied().unwrap_or(0) < MAX_ATTACH_FAN_IN {
                            attach = Some(v);
                            break;
                        }
                    }
                    let v = attach.unwrap_or_else(|| {
                        self.live
                            .iter()
                            .copied()
                            .find(|v| self.fan.get(v).copied().unwrap_or(0) < MAX_ATTACH_FAN_IN)
                            .expect("batch larger than total attach capacity")
                    });
                    *self.fan.entry(v).or_insert(0) += 1;
                    let u = NodeId(self.next_id);
                    self.next_id += 1;
                    self.joins_buf.push((u, v));
                }
                let joins = std::mem::take(&mut self.joins_buf);
                let m = self.dex.insert_batch(&joins);
                self.live.extend(joins.iter().map(|&(u, _)| u));
                self.joins_buf = joins;
                self.joins += self.batch.len() as u64;
                self.account(&m);
                m.rounds
            }
            Class::Leave => {
                // Respect the shard floor: serve what fits, skip the rest
                // as 1-round no-ops (deterministic graceful degradation).
                let kmax = self.live.len().saturating_sub(SHARD_FLOOR);
                let take = self.batch.len().min(kmax);
                if take == 0 {
                    self.leaves_skipped += self.batch.len() as u64;
                    return 1;
                }
                self.victims_buf.clear();
                for _ in 0..take {
                    let idx = (self.rnd() % self.live.len() as u64) as usize;
                    self.victims_buf.push(self.live.swap_remove(idx));
                }
                let victims = std::mem::take(&mut self.victims_buf);
                let m = self.dex.delete_batch(&victims);
                self.victims_buf = victims;
                self.leaves += take as u64;
                self.leaves_skipped += (self.batch.len() - take) as u64;
                self.account(&m);
                m.rounds
            }
            Class::Dht => {
                debug_assert_eq!(self.batch.len(), 1);
                let r = self.rnd();
                let from = self.live[(r % self.live.len() as u64) as usize];
                let m = match self.batch[0].kind {
                    OpKind::Put { key, value } => {
                        let m = self.dex.dht_insert(from, key, value);
                        self.shadow.insert(key, value);
                        self.puts += 1;
                        m
                    }
                    OpKind::Get { key } => {
                        let (got, m) = self.dex.dht_lookup(from, key);
                        if got.is_some() {
                            self.lookup_hits += 1;
                        }
                        if got != self.shadow.get(&key).copied() {
                            self.mismatches += 1;
                        }
                        self.digest = splitmix64(self.digest ^ got.unwrap_or(u64::MAX));
                        self.gets += 1;
                        m
                    }
                    _ => unreachable!("Dht class carries only Put/Get"),
                };
                self.account(&m);
                m.rounds
            }
        }
    }

    fn account(&mut self, m: &dex_sim::StepMetrics) {
        self.log.push(m);
        self.digest = splitmix64(self.digest ^ m.rounds);
        self.digest = splitmix64(self.digest ^ m.messages);
        self.digest = splitmix64(self.digest ^ m.topology_changes);
    }

    fn into_report(self) -> ShardReport {
        let final_n = self.dex.n();
        let digest = splitmix64(self.digest ^ final_n as u64);
        ShardReport {
            shard: self.shard,
            final_n,
            served: self.served,
            shed: self.shed,
            leaves_skipped: self.leaves_skipped,
            batches: self.batches,
            batch_peak: self.batch_peak,
            queue_peak: self.queue_peak,
            inflight_peak: self.inflight_peak,
            makespan: self.churn_until.max(self.dht_until),
            puts: self.puts,
            gets: self.gets,
            joins: self.joins,
            leaves: self.leaves,
            lookup_hits: self.lookup_hits,
            mismatches: self.mismatches,
            log: self.log,
            latencies: self.latencies,
            dht: self.dht,
            churn: self.churn,
            digest,
        }
    }
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod arb;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn opts() -> ServeOptions {
        ServeOptions {
            shards: 3,
            n0: 24,
            ops: 240,
            offered: 2.0,
            arrivals: Arrivals::Poisson,
            seed: 0xabc,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn same_key_same_shard() {
        for key in [0u64, 1, 7, 1 << 40, u64::MAX] {
            for shards in [1usize, 2, 4, 16] {
                let s = route_shard(key, shards);
                assert!(s < shards);
                assert_eq!(s, route_shard(key, shards), "routing must be stable");
            }
        }
        // And the schedule respects the routing: every DHT op in shard
        // s's list hashes to s.
        let o = opts();
        for (s, ops) in build_schedule(&o).iter().enumerate() {
            for op in ops {
                if let OpKind::Put { key, .. } | OpKind::Get { key } = op.kind {
                    assert_eq!(route_shard(key, o.shards), s);
                }
            }
        }
    }

    #[test]
    fn schedule_is_sorted_and_complete() {
        let o = opts();
        let sched = build_schedule(&o);
        assert_eq!(sched.len(), o.shards);
        assert_eq!(sched.iter().map(Vec::len).sum::<usize>(), o.ops);
        for ops in &sched {
            for w in ops.windows(2) {
                assert!(w[0].arrival <= w[1].arrival, "arrivals sorted");
                assert!(w[0].seq < w[1].seq, "seq strictly increasing");
            }
        }
    }

    #[test]
    fn serve_accounts_every_op_and_shadow_agrees() {
        let o = opts();
        let r = run_serve(&o);
        assert_eq!(r.served + r.shed, o.ops as u64);
        assert_eq!(r.shed, 0, "default queue cap must not shed at this load");
        assert_eq!(
            r.latency.count as u64, r.served,
            "one latency sample per served op"
        );
        for sr in &r.shards {
            assert_eq!(sr.mismatches, 0, "shard {} shadow disagrees", sr.shard);
            assert_eq!(
                sr.served,
                sr.puts + sr.gets + sr.joins + sr.leaves + sr.leaves_skipped
            );
            assert_eq!(sr.log.len() as u64, sr.batches);
        }
        assert!(r.latency.p999 >= r.latency.p50);
        assert!(r.makespan > 0 && r.ops_per_round > 0.0);
    }

    #[test]
    fn burst_arrivals_coalesce_into_batches() {
        let o = ServeOptions {
            arrivals: Arrivals::Burst,
            queue_cap: usize::MAX,
            churn_pct: 60,
            ..opts()
        };
        let r = run_serve(&o);
        assert_eq!(r.shed, 0);
        let peak = r.shards.iter().map(|s| s.batch_peak).max().unwrap();
        assert!(peak > 1, "burst load must coalesce churn (peak {peak})");
        assert!(r.shards.iter().map(|s| s.batches).sum::<u64>() < r.served);
    }

    #[test]
    fn full_queue_sheds_deterministically() {
        let o = ServeOptions {
            arrivals: Arrivals::Burst,
            queue_cap: 4,
            ..opts()
        };
        let a = run_serve(&o);
        let b = run_serve(&o);
        assert!(a.shed > 0, "burst into a 4-deep queue must shed");
        assert_eq!(a, b, "shedding must be deterministic");
        assert_eq!(a.served + a.shed, o.ops as u64);
        // Shedding bounds the queue, hence the queueing delay: served
        // ops were all admitted at depth < cap.
        for sr in &a.shards {
            assert!(sr.queue_peak <= 4);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let o = opts();
        let base = run_serve(&ServeOptions { threads: 1, ..o });
        for threads in [2, 3, 8] {
            let r = run_serve(&ServeOptions { threads, ..o });
            assert_eq!(base, r, "threads={threads}");
        }
    }

    #[test]
    fn offered_load_moves_the_latency_knee() {
        // Same mix at 4× the offered load: queueing delay must not
        // shrink (open-loop saturation behaves monotonically here).
        let lo = run_serve(&ServeOptions {
            offered: 0.5,
            ..opts()
        });
        let hi = run_serve(&ServeOptions {
            offered: 16.0,
            ..opts()
        });
        assert!(
            hi.latency.p50 >= lo.latency.p50,
            "median latency fell under 32x load: {} < {}",
            hi.latency.p50,
            lo.latency.p50
        );
        assert!(hi.makespan <= lo.makespan, "higher load compresses time");
    }

    // Churn is exclusive: no churn batch's service interval overlaps a
    // DHT op's or another churn batch's, so the topology never changes
    // under an in-flight route.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn churn_runs_alone(o in arb::arb_opts()) {
            for (s, arrivals) in build_schedule(&o).iter().enumerate() {
                let iv = serve_shard(s, arrivals, &o).intervals;
                for (i, &(class, start, end)) in iv.iter().enumerate() {
                    if class == Class::Dht {
                        continue;
                    }
                    for (j, &(other, s2, e2)) in iv.iter().enumerate() {
                        prop_assert!(
                            i == j || e2 <= start || end <= s2,
                            "shard {}: {:?} [{}, {}) overlaps {:?} [{}, {})",
                            s, class, start, end, other, s2, e2
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn without_churn_every_op_is_its_route() {
        let o = ServeOptions {
            churn_pct: 0,
            offered: 16.0,
            ..opts()
        };
        for (s, arrivals) in build_schedule(&o).iter().enumerate() {
            let r = serve_shard(s, arrivals, &o).into_report();
            assert_eq!(r.latencies.len(), r.log.len());
            for (&lat, &rounds) in r.latencies.iter().zip(&r.log.rounds) {
                assert_eq!(lat, rounds.max(1), "shard {s}: a route queued");
            }
            assert!(r.inflight_peak > 1, "shard {s}: routes never overlapped");
            // The same ops served one at a time, nothing overlapping.
            let mut one = Shard::new(s, &o);
            for op in arrivals {
                one.batch.clear();
                one.batch.push(*op);
                one.serve_batch(Class::Dht);
            }
            assert_eq!(r.log, one.log, "shard {s}");
        }
    }
}
