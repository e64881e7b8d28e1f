//! Event-driven message-level simulator with fault injection.
//!
//! The rest of the workspace *charges* CONGEST costs — a walk calls
//! [`crate::tokens::random_walk_search_slots`] and bills one round and one
//! message per hop, but the hop itself is a synchronous array read that
//! cannot fail. This module puts the same token exchanges on an actual
//! message schedule: every hop becomes a send that is enqueued into the
//! destination's inbox, delivered after a per-link latency, and subject
//! to pluggable fault models. Three fault families are supported:
//!
//! * **Bernoulli loss** — each send independently dropped with
//!   probability `loss_milli / 1000`, keyed on (seed, src, dst, round,
//!   op, send tag);
//! * **burst loss** — per-link bad windows of `burst_window` rounds
//!   (a deterministic Gilbert–Elliott-style gate: during a bad window
//!   every send on the link is dropped);
//! * **partitions** — a periodic schedule splits the node set in two
//!   (sides chosen by a seeded hash of the node id); while the partition
//!   is active, cross-side sends are dropped, and when the window ends
//!   the sides rejoin mid-protocol.
//!
//! Protocol-level robustness rides on top, in two layers:
//!
//! * **hop-level ARQ** — a walk or route token is retransmitted per
//!   link, not per path. The receiver of each hop acks it; a sender that
//!   has heard no ack τ = 2·`lat_hi` + 1 rounds after a send (the
//!   longest round trip an ack can take, so only loss fires it) resends
//!   the same token on the same link, a charged send with its own fate
//!   draw, up to the spec's budget (`walk_retries` / `route_retries`)
//!   retransmissions per hop. Acks are not charged as messages — a hop
//!   costs 1/(1−ℓ) sends in expectation — but τ charges their latency in
//!   rounds. Only a hop that exhausts its budget loses the token;
//! * **op-level re-initiation** — every operation schedules a timeout
//!   when it launches a token, sized to the ARQ lifetime of the whole
//!   path so it can only fire after the token has provably been lost
//!   (a partition that outlasts a hop's budget); a firing timeout
//!   re-initiates the operation from scratch (the same budget bounds the
//!   re-initiations, deterministic exponential backoff), and an
//!   operation that exhausts it is closed as abandoned and counted in
//!   [`FaultStats`] — graceful degradation, never a hang.
//!
//! A zero spec never loses a send, so it never retransmits.
//!
//! # Determinism
//!
//! Everything is a pure function of the inputs:
//!
//! * the event heap is keyed on `(round, slot, seq)` — total order, no
//!   ties, so pop order never depends on insertion order races;
//! * fault decisions are splitmix64 hashes of (spec seed, link/node ids,
//!   round, op key, send tag) — never wall-clock, never arrival order;
//! * a round runs in three phases — drain the round's events, decide and
//!   commit each delivery (new sends, stat charges, op completion) in
//!   heap order, then fire the round's timers — on one thread: a run is
//!   a sequential function of its inputs.
//!
//! With a zero [`FaultSpec`] the walk engine reproduces
//! [`crate::tokens::random_walk_search_slots`] exactly — same RNG draws,
//! same hit, same hop count — which is what lets `dex-core` route its
//! healing walks through here unconditionally and stay bit-identical to
//! the centralized oracle when faults are off.
//!
//! [`run_flood`] puts the protocol's broadcast/convergecast aggregates
//! (Algorithm 4.4's computeSpare/computeLow) on the same schedule:
//! per-round frontier expansion where every forward and every
//! convergecast report is a faultable send, bounded re-flood on timeout,
//! and graceful degradation to a partial count plus best partial witness
//! when the budget exhausts. With a zero spec it reproduces
//! [`crate::flood::flood_count_slots`]'s result and charges exactly.
//!
//! # One id space
//!
//! The engine speaks the graph's arena slots end to end: a walk's start
//! and exclusion, a route's path, a flood's root, the `accept` / `pred`
//! argument, a walk's hit and a flood's witness are all slots, so a
//! caller that heals on slots (`dex-core`) translates nothing per hop.
//! Node ids enter only where they decide something: every fault draw —
//! loss, burst window, link latency, partition side — hashes the ids of
//! the link's endpoints ([`MultiGraph::id_of_slot`], one array read), so
//! the draws do not depend on which slots the arena happened to hand
//! out, and a flood's witness breaks a depth tie on the lower id.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dex_graph::adjacency::MultiGraph;
use dex_graph::ids::NodeId;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::flood::{flood_kernel, FloodScratch};
use crate::rng::splitmix64;

/// Domain-separation salts for the fault decision hashes. Arbitrary odd
/// constants; each fault family draws from its own stream.
const SALT_LOSS: u64 = 0x6c6f_7373_9e37_79b1;
const SALT_BURST: u64 = 0x6275_7273_7400_4d5d;
const SALT_PART: u64 = 0x7061_7274_1ce4_e5b9;
const SALT_LAT: u64 = 0x6c61_7465_6e63_79d3;

/// Fold context words into a salted seed, splitmix64 per word (same
/// construction as [`crate::rng::SeedSpace::stream`]).
#[inline]
fn fold(seed: u64, words: &[u64]) -> u64 {
    let mut acc = splitmix64(seed);
    for &w in words {
        acc = splitmix64(acc ^ w.wrapping_mul(0xe703_7ed1_a0b4_28db));
    }
    acc
}

/// Fault model + robustness budget for one simulated run.
///
/// All probabilities are in **milli** units (per-1000) so specs hash and
/// compare exactly — no floats anywhere in the decision path. The
/// default ([`FaultSpec::zero`]) injects nothing: unit latency, no loss,
/// no partitions; retry budgets are still set so the same spec can be
/// extended with builder calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Bernoulli per-send loss probability, in 1/1000 units.
    pub loss_milli: u32,
    /// Burst-loss window length in rounds (0 disables bursts).
    pub burst_window: u32,
    /// Probability that a given (link, window) is bad, in 1/1000 units.
    pub burst_milli: u32,
    /// Minimum per-link latency in rounds (clamped to ≥ 1).
    pub lat_min: u32,
    /// Maximum per-link latency in rounds (clamped to ≥ `lat_min`).
    pub lat_max: u32,
    /// Partition schedule period in rounds (0 disables partitions).
    pub partition_period: u32,
    /// Rounds the partition stays up at the start of each period.
    pub partition_len: u32,
    /// Walk budget: both the retransmissions per hop (hop-level ARQ) and
    /// the re-initiations per walk operation.
    pub walk_retries: u32,
    /// Route budget: both the retransmissions per hop (hop-level ARQ) and
    /// the re-initiations per route operation.
    pub route_retries: u32,
    /// After this many *lost* walks for one heal step, `dex-core` falls
    /// back to a flood-discovered candidate instead of walking again.
    pub fallback_after: u32,
    /// Re-flood budget for flood/convergecast operations: how many times
    /// an initiator re-floods after an incomplete generation before
    /// settling for the partial count.
    pub flood_retries: u32,
    /// Re-initiation budget for type-2 (inflate/deflate) coordination:
    /// failed coordination attempts roll back and re-initiate up to this
    /// many times before escalating to a reliable (per-link ARQ) round.
    pub type2_retries: u32,
    /// Fault-stream seed (independent of the protocol's `SeedSpace`).
    pub seed: u64,
}

impl FaultSpec {
    /// The no-fault spec: unit latency, no loss, no partitions, default
    /// retry budgets. Running under this spec is bit-identical to the
    /// centralized execution.
    pub const fn zero() -> Self {
        FaultSpec {
            loss_milli: 0,
            burst_window: 0,
            burst_milli: 0,
            lat_min: 1,
            lat_max: 1,
            partition_period: 0,
            partition_len: 0,
            walk_retries: 6,
            route_retries: 6,
            fallback_after: 2,
            flood_retries: 4,
            type2_retries: 4,
            seed: 0xd5ef_0001,
        }
    }

    /// True when no fault model can ever fire (loss, bursts and
    /// partitions disabled, unit latency). Retry budgets are irrelevant
    /// at zero faults: timeouts are sized to fire only after a loss.
    pub fn is_zero(&self) -> bool {
        self.loss_milli == 0
            && (self.burst_window == 0 || self.burst_milli == 0)
            && (self.partition_period == 0 || self.partition_len == 0)
            && self.lat_hi() == 1
    }

    /// Effective minimum latency (≥ 1 round; a 0 in the spec means
    /// "default").
    #[inline]
    pub fn lat_lo(&self) -> u32 {
        self.lat_min.max(1)
    }

    /// Effective maximum latency (≥ [`Self::lat_lo`]).
    #[inline]
    pub fn lat_hi(&self) -> u32 {
        self.lat_max.max(self.lat_lo())
    }

    /// Per-hop retransmission timeout τ in rounds: the longest round
    /// trip a send and its ack can take, plus one, so a retransmission
    /// fires only once the send is provably lost.
    #[inline]
    pub fn hop_timeout(&self) -> u64 {
        2 * self.lat_hi() as u64 + 1
    }

    /// Set Bernoulli loss probability (per-1000).
    pub fn with_loss(mut self, milli: u32) -> Self {
        self.loss_milli = milli;
        self
    }

    /// Set the burst model: window length in rounds and per-(link,
    /// window) bad probability (per-1000).
    pub fn with_burst(mut self, window: u32, milli: u32) -> Self {
        self.burst_window = window;
        self.burst_milli = milli;
        self
    }

    /// Set the per-link latency band in rounds (clamped to ≥ 1).
    pub fn with_latency(mut self, min: u32, max: u32) -> Self {
        self.lat_min = min;
        self.lat_max = max;
        self
    }

    /// Set the partition schedule: up for `len` rounds at the start of
    /// every `period` rounds.
    pub fn with_partition(mut self, period: u32, len: u32) -> Self {
        self.partition_period = period;
        self.partition_len = len;
        self
    }

    /// Set the walk and route budgets; each bounds both the
    /// retransmissions per hop and the re-initiations per operation.
    pub fn with_retries(mut self, walk: u32, route: u32) -> Self {
        self.walk_retries = walk;
        self.route_retries = route;
        self
    }

    /// Set the lost-walk threshold past which `dex-core` heals via a
    /// flood-discovered fallback candidate.
    pub fn with_fallback(mut self, after: u32) -> Self {
        self.fallback_after = after;
        self
    }

    /// Set the re-flood budget for flood/convergecast operations.
    pub fn with_flood_retries(mut self, retries: u32) -> Self {
        self.flood_retries = retries;
        self
    }

    /// Set the re-initiation budget for type-2 coordination.
    pub fn with_type2_retries(mut self, retries: u32) -> Self {
        self.type2_retries = retries;
        self
    }

    /// Set the fault-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::zero()
    }
}

/// Counters for everything the fault layer did to a run. Additive:
/// adapters keep one per network and [`FaultStats::merge`] run reports
/// into it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Sends attempted (every hop of every token, all generations,
    /// retransmissions included).
    pub sent: u64,
    /// Sends that reached their destination inbox.
    pub delivered: u64,
    /// Sends dropped by the Bernoulli model.
    pub lost_random: u64,
    /// Sends dropped inside a per-link bad window.
    pub lost_burst: u64,
    /// Sends dropped across an active partition cut.
    pub lost_partition: u64,
    /// Hop-level retransmissions: walk or route sends repeated on the
    /// same link after the per-hop timeout (counted in `sent` too).
    pub retransmits: u64,
    /// Timeouts that fired on a still-open operation.
    pub timeouts: u64,
    /// Operations re-initiated after a timeout.
    pub reinitiations: u64,
    /// Walk operations abandoned after exhausting their retry budget.
    pub walks_lost: u64,
    /// Route operations abandoned after exhausting their retry budget.
    pub routes_lost: u64,
    /// Heal steps that fell back to a flood-discovered candidate after
    /// repeated walk loss (maintained by `dex-core`).
    pub heal_fallbacks: u64,
    /// DHT operations abandoned because routing failed terminally
    /// (maintained by `dex-core`).
    pub dht_abandoned: u64,
    /// Re-floods launched after a flood generation timed out incomplete.
    pub flood_retries: u64,
    /// Floods that closed on a partial count after exhausting their
    /// re-flood budget (graceful degradation: partial count + best
    /// partial witness).
    pub floods_partial: u64,
    /// Type-2 coordination attempts rolled back with no state mutated
    /// (maintained by `dex-core`).
    pub type2_rollbacks: u64,
    /// Type-2 operations re-initiated after a rollback (maintained by
    /// `dex-core`).
    pub type2_reinitiations: u64,
}

impl FaultStats {
    /// Accumulate another stats block into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.lost_random += other.lost_random;
        self.lost_burst += other.lost_burst;
        self.lost_partition += other.lost_partition;
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
        self.reinitiations += other.reinitiations;
        self.walks_lost += other.walks_lost;
        self.routes_lost += other.routes_lost;
        self.heal_fallbacks += other.heal_fallbacks;
        self.dht_abandoned += other.dht_abandoned;
        self.flood_retries += other.flood_retries;
        self.floods_partial += other.floods_partial;
        self.type2_rollbacks += other.type2_rollbacks;
        self.type2_reinitiations += other.type2_reinitiations;
    }

    /// Charge one send with the given fate: `sent`, plus `delivered`
    /// or the loss counter of its fault family.
    fn charge(&mut self, fate: SendFate) {
        self.sent += 1;
        match fate {
            SendFate::Deliver { .. } => self.delivered += 1,
            SendFate::LostRandom => self.lost_random += 1,
            SendFate::LostBurst => self.lost_burst += 1,
            SendFate::LostPartition => self.lost_partition += 1,
        }
    }

    /// Fraction of sends delivered (1.0 when nothing was sent).
    pub fn delivery_rate(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }
}

/// What happened to one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// Delivered after `latency` rounds.
    Deliver {
        /// Link latency in rounds (≥ 1).
        latency: u32,
    },
    /// Dropped by the Bernoulli model.
    LostRandom,
    /// Dropped inside a per-link bad window.
    LostBurst,
    /// Dropped across an active partition cut.
    LostPartition,
}

/// Is the partition up at `round`?
#[inline]
pub fn partition_active(spec: &FaultSpec, round: u64) -> bool {
    spec.partition_period > 0
        && spec.partition_len > 0
        && round % (spec.partition_period as u64) < spec.partition_len as u64
}

/// Which side of the partition a node is on (seeded hash of the id, so
/// the split is stable across the whole run and across thread counts).
#[inline]
pub fn partition_side(spec: &FaultSpec, id: u64) -> bool {
    fold(spec.seed ^ SALT_PART, &[id]) & 1 == 1
}

/// Deterministic per-link latency in rounds, constant over the run and
/// symmetric (keyed on the unordered id pair).
#[inline]
pub fn link_latency(spec: &FaultSpec, a: u64, b: u64) -> u32 {
    let lo = spec.lat_lo();
    let hi = spec.lat_hi();
    if hi == lo {
        return lo;
    }
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    lo + (fold(spec.seed ^ SALT_LAT, &[x, y]) % (hi - lo + 1) as u64) as u32
}

/// Is the (unordered) link inside a bad burst window at `round`?
#[inline]
pub fn burst_bad(spec: &FaultSpec, a: u64, b: u64, round: u64) -> bool {
    if spec.burst_window == 0 || spec.burst_milli == 0 {
        return false;
    }
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    let window = round / spec.burst_window as u64;
    fold(spec.seed ^ SALT_BURST, &[x, y, window]) % 1000 < spec.burst_milli as u64
}

/// Decide the fate of one send, as a pure function of the spec and the
/// send's identity — never of arrival order or wall-clock. Precedence:
/// partition cut, then burst window, then Bernoulli loss.
///
/// `op_key` names the operation (so two ops between the same nodes in
/// the same round draw independently) and `send_tag` names the send
/// within the operation (retry generation, retransmission index and hop
/// index), so every physical send gets its own Bernoulli draw.
pub fn send_fate(
    spec: &FaultSpec,
    src: u64,
    dst: u64,
    round: u64,
    op_key: u64,
    send_tag: u64,
) -> SendFate {
    if partition_active(spec, round) && partition_side(spec, src) != partition_side(spec, dst) {
        return SendFate::LostPartition;
    }
    if burst_bad(spec, src, dst, round) {
        return SendFate::LostBurst;
    }
    if spec.loss_milli > 0
        && fold(spec.seed ^ SALT_LOSS, &[src, dst, round, op_key, send_tag]) % 1000
            < spec.loss_milli as u64
    {
        return SendFate::LostRandom;
    }
    SendFate::Deliver {
        latency: link_latency(spec, src, dst),
    }
}

/// One random-walk search to schedule (same inputs as
/// [`crate::tokens::random_walk_search_slots`], plus an op key for the
/// fault hashes).
#[derive(Debug, Clone)]
pub struct WalkOp {
    /// Slot of the start node (must be live).
    pub start: u32,
    /// Hop budget.
    pub max_len: u64,
    /// Slot never stepped onto.
    pub exclude: Option<u32>,
    /// Stable operation identity for fault draws (derive from protocol
    /// state — step number, node id — never from batch position).
    pub op_key: u64,
}

/// One token to route along a prescribed node path.
#[derive(Debug, Clone)]
pub struct RouteOp {
    /// Slots of the nodes visited in order, endpoints included
    /// (consecutive entries must be adjacent; a single-entry path
    /// delivers immediately).
    pub path: Vec<u32>,
    /// Route back along the reversed path after reaching the end (a DHT
    /// lookup's request + reply).
    pub round_trip: bool,
    /// Stable operation identity for fault draws.
    pub op_key: u64,
}

/// Terminal status of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// Walk reached an accepting node.
    Hit,
    /// Walk exhausted its hop budget (or got stuck) without a hit — a
    /// legitimate protocol outcome, not a fault.
    Miss,
    /// Route token reached the end of its path.
    Delivered,
    /// Abandoned: every retry generation lost its token.
    Lost,
}

/// Outcome of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult {
    /// Slot of the accepting node (walks that hit).
    pub hit: Option<u32>,
    /// How the operation closed.
    pub status: OpStatus,
    /// Hops taken by the generation that closed the op.
    pub hops: u64,
    /// Sends attempted across all generations of this op,
    /// retransmissions included.
    pub sends: u64,
    /// Hop-level retransmissions across all generations of this op.
    pub retransmits: u64,
    /// Round at which the operation closed.
    pub close_round: u64,
    /// Re-initiations consumed (0 = first generation closed it).
    pub retries: u32,
}

/// Whole-run accounting for one engine invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Fault-layer counters for the run.
    pub stats: FaultStats,
    /// Last round in which any operation closed (0 for an empty run) —
    /// the number of synchronous rounds the batch occupied.
    pub makespan: u64,
    /// Total sends (= `stats.sent`; the CONGEST message charge).
    pub messages: u64,
}

// ---------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------

/// Timers carry this pseudo-slot so they sort after every delivery of
/// the same round (real slots are always < `u32::MAX`).
const TIMER_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvKind {
    /// Token `tok` arrives at `slot`.
    Deliver(u32),
    /// The sender at `slot`, still holding token `tok`, heard no ack for
    /// its send to `dst`: it transmits again, as retransmission `k` ≥ 1.
    Resend { tok: u32, dst: u32, k: u32 },
    /// Timeout for op `op`, generation `retry`.
    Timer { op: u32, retry: u32 },
}

/// Heap key: `(round, slot, seq)` — `seq` is unique, so the order is
/// total and `kind` never breaks a tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    round: u64,
    slot: u32,
    seq: u64,
    kind: EvKind,
}

#[derive(Debug)]
enum MetaKind {
    Walk {
        start: u32,
        max_len: u64,
        exclude: Option<u32>,
    },
    Route {
        /// Flattened slot path (round trips already unrolled).
        path: Vec<u32>,
    },
}

#[derive(Debug)]
struct OpMeta {
    key: u64,
    /// Base timeout in rounds (see [`generation_timeout`]).
    timeout: u64,
    /// Retransmissions per hop, and re-initiations per op.
    budget: u32,
    kind: MetaKind,
}

/// Base generation timeout for a token of up to `len` hops: strictly
/// more than the longest in-flight lifetime of one generation — every
/// hop spending its whole retransmission budget, then the slowest link —
/// so a firing timer proves the token was lost (and zero-fault runs
/// never re-initiate).
fn generation_timeout(spec: &FaultSpec, len: u64, budget: u32) -> u64 {
    (len + 2) * (spec.lat_hi() as u64 + budget as u64 * spec.hop_timeout()) + 1
}

#[derive(Debug)]
struct OpState {
    retry: u32,
    done: bool,
    sends: u64,
    retransmits: u64,
    result_hops: u64,
    hit: Option<u32>,
    status: OpStatus,
    close_round: u64,
}

#[derive(Debug)]
enum TokBody {
    Walk { rng: StdRng, hops: u64 },
    Route { pos: u32 },
}

impl TokBody {
    /// Index of the hop the token last took (0 before its first send).
    fn hop(&self) -> u64 {
        match self {
            TokBody::Walk { hops, .. } => *hops,
            TokBody::Route { pos } => *pos as u64,
        }
    }
}

#[derive(Debug)]
struct Token {
    op: u32,
    retry: u32,
    body: TokBody,
}

/// Fault-draw tag of transmission `k` of hop `hop` in generation
/// `retry`. A first transmission (`k = 0`) keeps the tag it had before
/// hops retransmitted, so a token that loses nothing draws exactly the
/// same fates; hop indices stay below 2^24.
#[inline]
fn send_tag(retry: u32, k: u32, hop: u64) -> u64 {
    ((retry as u64) << 32) | ((k as u64) << 24) | hop
}

/// What one delivered token decided to do.
#[derive(Debug)]
enum Intent {
    /// Forward the token to `dst` (a slot).
    Forward(u32),
    /// Close the op: a walk hit (with the accepting slot), a walk that
    /// exhausted its budget or got stuck (`Miss`), or a route that
    /// reached the end of its path (`Delivered`).
    Close(OpStatus, Option<u32>),
}

struct Work {
    /// Arena index of the token (returned there when it is sent).
    tok_idx: u32,
    /// Slot the token is at (the event's slot key): where it was
    /// delivered, or the sender awaiting an ack.
    at: u32,
    /// `Some((dst, k))` for retransmission `k` to `dst`, `None` for a
    /// delivery.
    resend: Option<(u32, u32)>,
    tok: Token,
}

/// Decide what token `tok`, delivered at `slot`, does next. Reads the
/// graph and the op metadata, mutates only the token (RNG, hop/pos
/// counters).
fn decide<A: Fn(u32) -> bool>(
    g: &MultiGraph,
    metas: &[OpMeta],
    accept: &A,
    slot: u32,
    tok: &mut Token,
) -> Intent {
    match (&metas[tok.op as usize].kind, &mut tok.body) {
        (
            MetaKind::Walk {
                max_len, exclude, ..
            },
            TokBody::Walk { rng, hops },
        ) => {
            // Mirrors `random_walk_search_slots` exactly: the start node
            // is not tested, the accept test runs after each hop, the
            // budget gate runs before each pick, and the pick is a
            // reservoir pass over the adjacency multiset skipping the
            // excluded node (which consumes no draw).
            if *hops > 0 && accept(slot) {
                return Intent::Close(OpStatus::Hit, Some(slot));
            }
            if *hops >= *max_len {
                return Intent::Close(OpStatus::Miss, None);
            }
            let mut choice: Option<u32> = None;
            let mut seen = 0usize;
            for &v in g.neighbor_slots(slot) {
                if Some(v) == *exclude {
                    continue;
                }
                seen += 1;
                if rng.random_range(0..seen) == 0 {
                    choice = Some(v);
                }
            }
            let Some(next) = choice else {
                return Intent::Close(OpStatus::Miss, None);
            };
            *hops += 1;
            Intent::Forward(next)
        }
        (MetaKind::Route { path }, TokBody::Route { pos }) => {
            if *pos as usize + 1 >= path.len() {
                return Intent::Close(OpStatus::Delivered, None);
            }
            *pos += 1;
            Intent::Forward(path[*pos as usize])
        }
        _ => unreachable!("token body does not match op kind"),
    }
}

/// The shared engine: runs a batch of operations (walk and/or route
/// metadata) to completion and reports per-op outcomes plus run-level
/// fault stats. `mk_rng` builds the RNG for a walk op's generation
/// (op index, retry); route ops never call it.
fn run_engine<A, M>(
    g: &MultiGraph,
    spec: &FaultSpec,
    metas: Vec<OpMeta>,
    accept: A,
    mut mk_rng: M,
) -> (Vec<OpResult>, RunReport)
where
    A: Fn(u32) -> bool,
    M: FnMut(usize, u32) -> StdRng,
{
    let n_ops = metas.len();
    let mut states: Vec<OpState> = Vec::with_capacity(n_ops);
    let mut arena: Vec<Option<Token>> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut stats = FaultStats::default();
    let mut makespan = 0u64;

    // Launch a fresh token generation for op `i` at `round`. The launch
    // "delivery" to the start slot is local state, not a message — no
    // send is charged for it.
    macro_rules! launch {
        ($i:expr, $retry:expr, $round:expr, $mk:expr) => {{
            let i: usize = $i;
            let retry: u32 = $retry;
            let round: u64 = $round;
            let (start, body) = match &metas[i].kind {
                MetaKind::Walk { start, .. } => (
                    *start,
                    TokBody::Walk {
                        rng: $mk(i, retry),
                        hops: 0,
                    },
                ),
                MetaKind::Route { path } => (path[0], TokBody::Route { pos: 0 }),
            };
            let tok = Token {
                op: i as u32,
                retry,
                body,
            };
            let idx = match free.pop() {
                Some(idx) => {
                    arena[idx as usize] = Some(tok);
                    idx
                }
                None => {
                    arena.push(Some(tok));
                    (arena.len() - 1) as u32
                }
            };
            heap.push(Reverse(Event {
                round,
                slot: start,
                seq,
                kind: EvKind::Deliver(idx),
            }));
            seq += 1;
            heap.push(Reverse(Event {
                round: round + (metas[i].timeout << retry.min(3)),
                slot: TIMER_SLOT,
                seq,
                kind: EvKind::Timer {
                    op: i as u32,
                    retry,
                },
            }));
            seq += 1;
        }};
    }

    for i in 0..n_ops {
        states.push(OpState {
            retry: 0,
            done: false,
            sends: 0,
            retransmits: 0,
            result_hops: 0,
            hit: None,
            status: OpStatus::Lost,
            close_round: 0,
        });
        launch!(i, 0, 0, mk_rng);
    }

    let mut open = n_ops;
    let mut work: Vec<Work> = Vec::new();
    let mut timers: Vec<Event> = Vec::new();

    while open > 0 {
        let round = heap
            .peek()
            .expect("open operations but an empty event heap")
            .0
            .round;

        // Phase A: drain every event of this round, in (slot, seq)
        // order. Tokens of closed ops are freed on the spot; the rest
        // (deliveries and retransmissions) become the round's work list.
        // Timers are deferred to phase C.
        work.clear();
        timers.clear();
        while heap.peek().is_some_and(|e| e.0.round == round) {
            let ev = heap.pop().expect("peeked event vanished").0;
            let (tok_idx, resend) = match ev.kind {
                EvKind::Deliver(idx) => (idx, None),
                EvKind::Resend { tok, dst, k } => (tok, Some((dst, k))),
                EvKind::Timer { .. } => {
                    timers.push(ev);
                    continue;
                }
            };
            let tok = arena[tok_idx as usize]
                .take()
                .expect("event for a freed token");
            if states[tok.op as usize].done {
                // A slow token of an earlier generation after its op
                // already closed: drop it.
                free.push(tok_idx);
            } else {
                work.push(Work {
                    tok_idx,
                    at: ev.slot,
                    resend,
                    tok,
                });
            }
        }

        // Phase B: decide and commit every delivery and retransmission,
        // in heap order. A decision reads only its own token and state
        // no commit changes (graph, op metadata). A retransmission resends
        // the same token (a walk draws nothing new) with a fresh fate; a
        // lost send waits τ for the ack that never comes, and only a hop
        // that has spent its budget loses the token.
        for mut w in work.drain(..) {
            let op = w.tok.op as usize;
            let st = &mut states[op];
            if st.done {
                // Closed earlier in this same pass (e.g. an older
                // generation hit first): drop the token.
                free.push(w.tok_idx);
                continue;
            }
            let (dst, k) = match w.resend {
                Some(resend) => resend,
                None => match decide(g, &metas, &accept, w.at, &mut w.tok) {
                    Intent::Forward(dst) => (dst, 0),
                    Intent::Close(status, hit) => {
                        st.done = true;
                        st.hit = hit;
                        st.status = status;
                        st.close_round = round;
                        st.result_hops = w.tok.body.hop();
                        st.retry = w.tok.retry;
                        makespan = makespan.max(round);
                        open -= 1;
                        free.push(w.tok_idx);
                        continue;
                    }
                },
            };
            let fate = send_fate(
                spec,
                g.id_of_slot(w.at).0,
                g.id_of_slot(dst).0,
                round,
                metas[op].key,
                send_tag(w.tok.retry, k, w.tok.body.hop()),
            );
            stats.charge(fate);
            st.sends += 1;
            if k > 0 {
                stats.retransmits += 1;
                st.retransmits += 1;
            }
            let (at, slot, kind) = match fate {
                SendFate::Deliver { latency } => {
                    (round + latency as u64, dst, EvKind::Deliver(w.tok_idx))
                }
                _ if k < metas[op].budget => (
                    round + spec.hop_timeout(),
                    w.at,
                    EvKind::Resend {
                        tok: w.tok_idx,
                        dst,
                        k: k + 1,
                    },
                ),
                _ => {
                    // The hop spent its budget: the token is lost, which
                    // only the op's timer proves.
                    free.push(w.tok_idx);
                    continue;
                }
            };
            arena[w.tok_idx as usize] = Some(w.tok);
            heap.push(Reverse(Event {
                round: at,
                slot,
                seq,
                kind,
            }));
            seq += 1;
        }

        // Phase C: timers, in the order they were drained. A timer for
        // a closed op or a superseded generation is stale; otherwise
        // the token of that generation was provably lost (the timeout
        // exceeds any in-flight lifetime), so re-initiate or abandon.
        for ev in timers.drain(..) {
            let EvKind::Timer { op, retry } = ev.kind else {
                unreachable!("non-timer event deferred to phase C");
            };
            let opi = op as usize;
            if states[opi].done || states[opi].retry != retry {
                continue;
            }
            stats.timeouts += 1;
            if retry >= metas[opi].budget {
                let st = &mut states[opi];
                st.done = true;
                st.status = OpStatus::Lost;
                st.close_round = round;
                st.retry = retry;
                makespan = makespan.max(round);
                open -= 1;
                match &metas[opi].kind {
                    MetaKind::Walk { .. } => stats.walks_lost += 1,
                    MetaKind::Route { .. } => stats.routes_lost += 1,
                }
            } else {
                stats.reinitiations += 1;
                states[opi].retry = retry + 1;
                launch!(opi, retry + 1, round, mk_rng);
            }
        }
    }

    let results: Vec<OpResult> = states
        .iter()
        .map(|st| OpResult {
            hit: st.hit,
            status: st.status,
            hops: st.result_hops,
            sends: st.sends,
            retransmits: st.retransmits,
            close_round: st.close_round,
            retries: st.retry,
        })
        .collect();
    let report = RunReport {
        stats,
        makespan,
        messages: stats.sent,
    };
    (results, report)
}

/// Run a batch of random-walk searches on an actual message schedule.
///
/// `accept` is the membership test on a slot (pure, consulted at every
/// delivered hop except the start node); `mk_rng` builds the RNG for op
/// `i`'s generation `retry` — generation 0 must use exactly the stream
/// the centralized walk would use, so a zero [`FaultSpec`] reproduces
/// [`crate::tokens::random_walk_search_slots`] bit-for-bit (same hit,
/// same hops, `makespan == hops` for a single op). Hop-level
/// retransmissions draw nothing, so under loss a walk still takes the
/// centralized walk's hops unless one of them spends its whole budget.
pub fn run_walks<A, M>(
    g: &MultiGraph,
    spec: &FaultSpec,
    ops: &[WalkOp],
    accept: A,
    mk_rng: M,
) -> (Vec<OpResult>, RunReport)
where
    A: Fn(u32) -> bool,
    M: FnMut(usize, u32) -> StdRng,
{
    let metas: Vec<OpMeta> = ops
        .iter()
        .map(|op| {
            assert!(g.slot_alive(op.start), "walk start slot {} dead", op.start);
            OpMeta {
                key: op.op_key,
                timeout: generation_timeout(spec, op.max_len, spec.walk_retries),
                budget: spec.walk_retries,
                kind: MetaKind::Walk {
                    start: op.start,
                    max_len: op.max_len,
                    exclude: op.exclude,
                },
            }
        })
        .collect();
    run_engine(g, spec, metas, accept, mk_rng)
}

/// Run a batch of path routes on an actual message schedule. Round
/// trips are unrolled (the reply retraces the request path), so one op
/// models a DHT lookup's request + reply. Route ops carry no RNG.
pub fn run_routes(g: &MultiGraph, spec: &FaultSpec, ops: &[RouteOp]) -> (Vec<OpResult>, RunReport) {
    let metas: Vec<OpMeta> = ops
        .iter()
        .map(|op| {
            let mut slots = op.path.clone();
            assert!(!slots.is_empty(), "empty route path");
            if op.round_trip && slots.len() > 1 {
                let back: Vec<u32> = slots[..slots.len() - 1].iter().rev().copied().collect();
                slots.extend(back);
            }
            OpMeta {
                key: op.op_key,
                timeout: generation_timeout(spec, slots.len() as u64, spec.route_retries),
                budget: spec.route_retries,
                kind: MetaKind::Route { path: slots },
            }
        })
        .collect();
    run_engine(g, spec, metas, |_| false, |_, _| StdRng::seed_from_u64(0))
}

// ---------------------------------------------------------------------
// Message-scheduled floods
// ---------------------------------------------------------------------

/// Outcome of a message-scheduled flood-aggregate ([`run_flood`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodOutcome {
    /// Nodes whose reports reached the initiator. Equals the component
    /// size exactly when `complete`; a partial count otherwise.
    pub n: usize,
    /// Reported nodes satisfying the predicate.
    pub matching: usize,
    /// Slot of the best reported witness: the reported matching node
    /// minimizing (flood-tree depth, node id). With zero faults this is
    /// exactly the centralized flood's (BFS distance, id) witness.
    pub witness: Option<u32>,
    /// Whether the count covers the whole component (every node reached
    /// and every convergecast report delivered before the initiator's
    /// timeout).
    pub complete: bool,
    /// Re-floods consumed (0 = the first generation completed).
    pub retries: u32,
    /// Round at which the initiator closed the flood (== the run's
    /// makespan; `2·ecc(root)` with zero faults).
    pub close_round: u64,
}

/// Broadcast delivery event for [`run_flood`]. Ordered by
/// `(round, slot, seq)` — `seq` is unique, so the trailing payload
/// fields never decide a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FloodEv {
    round: u64,
    slot: u32,
    seq: u64,
    /// Sender slot (`UNSEEN_SLOT` for the initiator's local launch).
    from: u32,
    /// Hop depth the token carries.
    depth: u32,
}

/// Sentinel for "no slot" (initiator launch / no parent). Real slots are
/// always `< u32::MAX` (the timer pseudo-slot convention).
const UNSEEN_SLOT: u32 = u32::MAX;

/// A witness candidate as `(depth, id, slot)`: it compares on depth, then
/// id (a node's slot follows from its id, so it never decides).
type Witness = (u32, NodeId, u32);

/// Best `(count, matching, witness)` convergecast seen so far, retained
/// across flood generations so an exhausted retry budget can still
/// report its richest partial evidence.
type PartialBest = (u64, u64, Option<Witness>);

/// Reusable buffers for [`run_flood`]: slot-indexed per-node state of one
/// flood generation, the event heap, the generation's reached list, and
/// the centralized flood's scratch for the ground truth. Every slot array
/// holds its neutral value between generations: a generation resets
/// exactly the slots it reached, through the reached list, so a flood
/// costs O(reached) on top of its sends, not O(slot bound) per
/// generation. The arrays grow to the largest slot bound seen and stay
/// allocated.
#[derive(Default)]
pub struct FloodRunScratch {
    /// Flood-tree depth per slot (`UNSEEN_SLOT` = not reached).
    dist: Vec<u32>,
    /// Flood-tree parent per slot (`UNSEEN_SLOT` for the initiator).
    parent: Vec<u32>,
    /// Round of first receipt per slot.
    arrival: Vec<u64>,
    /// Convergecast aggregates per slot: count, matching, best witness.
    acc_cnt: Vec<u64>,
    acc_mat: Vec<u64>,
    acc_wit: Vec<Option<Witness>>,
    /// Round by which every child report of the slot has arrived.
    ready: Vec<u64>,
    /// The slots the current generation reached (children before
    /// parents once its broadcast has closed).
    reached: Vec<u32>,
    heap: BinaryHeap<Reverse<FloodEv>>,
    truth: FloodScratch,
}

impl FloodRunScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the slots the last generation reached to their neutral
    /// values, and make room for `bound` slots.
    fn begin_generation(&mut self, bound: usize) {
        for &s in &self.reached {
            let s = s as usize;
            self.dist[s] = UNSEEN_SLOT;
            self.parent[s] = UNSEEN_SLOT;
            self.arrival[s] = 0;
            self.acc_cnt[s] = 0;
            self.acc_mat[s] = 0;
            self.acc_wit[s] = None;
            self.ready[s] = 0;
        }
        self.reached.clear();
        self.heap.clear();
        if self.dist.len() < bound {
            self.dist.resize(bound, UNSEEN_SLOT);
            self.parent.resize(bound, UNSEEN_SLOT);
            self.arrival.resize(bound, 0);
            self.acc_cnt.resize(bound, 0);
            self.acc_mat.resize(bound, 0);
            self.acc_wit.resize(bound, None);
            self.ready.resize(bound, 0);
        }
    }
}

/// Run `flood_count_slots`' broadcast + convergecast on an actual
/// message schedule: every first-receipt forward and every convergecast
/// report is a send subject to [`send_fate`].
///
/// Protocol: the initiator floods; each node forwards on first receipt
/// (to all adjacency entries except the one it received on) and, once
/// every child subtree below it has reported, sends one aggregated
/// report (count, matching count, best witness) to its flood-tree
/// parent. The initiator's timeout is sized from its eccentricity bound
/// so that with zero faults the flood always completes first — a firing
/// timer proves loss. An incomplete generation (some node unreached or
/// some report lost/late) is re-flooded up to `retries` times with
/// deterministic exponential backoff; when the budget exhausts, the
/// initiator settles for the best partial count and witness seen
/// (graceful degradation, never a hang).
///
/// With a zero [`FaultSpec`] the outcome and charges reproduce the
/// centralized [`crate::flood::flood_count_slots`] exactly: same `n`,
/// `matching` and witness (there an id, here its slot), `2·ecc(root)`
/// rounds, broadcast degree-sum plus `n − 1` convergecast messages.
///
/// Every buffer lives in `scratch`, which the caller holds across floods.
pub fn run_flood<P: Fn(u32) -> bool>(
    g: &MultiGraph,
    spec: &FaultSpec,
    root_slot: u32,
    pred: P,
    op_key: u64,
    retries: u32,
    scratch: &mut FloodRunScratch,
) -> (FloodOutcome, RunReport) {
    assert!(g.slot_alive(root_slot), "flood root slot {root_slot} dead");
    let bound = g.slot_bound();

    // Ground truth (the initiator's eccentricity bound sizes the
    // timeout; the component size is the completion check the per-hop
    // acks implement in the real protocol).
    let truth = flood_kernel(g, root_slot, |_| false, &mut scratch.truth);
    let (truth_n, ecc) = (truth.n as u64, truth.rounds / 2);

    // Strictly more than the longest possible in-flight lifetime of a
    // zero-fault generation (broadcast ≤ ecc hops + convergecast ≤ ecc
    // hops, each ≤ lat_hi rounds), so a firing timer proves loss.
    let t0 = (2 * ecc + 2) * spec.lat_hi() as u64 + 1;

    let mut stats = FaultStats::default();
    let mut seq = 0u64;
    let mut cur_round = 0u64;
    let mut best: Option<PartialBest> = None;

    for gen in 0..=retries {
        let launch = cur_round;
        let timer = launch + (t0 << gen.min(3));
        let mut snd = 0u64;

        scratch.begin_generation(bound);
        let FloodRunScratch {
            dist,
            parent,
            arrival,
            acc_cnt,
            acc_mat,
            acc_wit,
            ready,
            reached,
            heap,
            ..
        } = &mut *scratch;
        heap.push(Reverse(FloodEv {
            round: launch,
            slot: root_slot,
            seq,
            from: UNSEEN_SLOT,
            depth: 0,
        }));
        seq += 1;

        // Broadcast: per-round frontier expansion. Arrivals after the
        // initiator's timeout belong to a closed generation and are
        // dropped (they were charged at send time).
        while let Some(&Reverse(head)) = heap.peek() {
            let round = head.round;
            if round > timer {
                break;
            }
            while heap.peek().is_some_and(|e| e.0.round == round) {
                let ev = heap.pop().expect("peeked event vanished").0;
                if dist[ev.slot as usize] != UNSEEN_SLOT {
                    // Duplicate receipt: dropped, no forward.
                    continue;
                }
                dist[ev.slot as usize] = ev.depth;
                parent[ev.slot as usize] = ev.from;
                arrival[ev.slot as usize] = round;
                reached.push(ev.slot);
                let mut skipped_parent = false;
                for &v in g.neighbor_slots(ev.slot) {
                    if !skipped_parent && ev.from != UNSEEN_SLOT && v == ev.from {
                        // One adjacency entry leads back to the sender;
                        // parallel edges each still carry a copy.
                        skipped_parent = true;
                        continue;
                    }
                    let tag = ((gen as u64) << 32) | snd;
                    snd += 1;
                    let fate = send_fate(
                        spec,
                        g.id_of_slot(ev.slot).0,
                        g.id_of_slot(v).0,
                        round,
                        op_key,
                        tag,
                    );
                    stats.charge(fate);
                    // A forward lands at least one round later, so it
                    // never joins the round being drained.
                    if let SendFate::Deliver { latency } = fate {
                        heap.push(Reverse(FloodEv {
                            round: round + latency as u64,
                            slot: v,
                            seq,
                            from: ev.slot,
                            depth: ev.depth + 1,
                        }));
                        seq += 1;
                    }
                }
            }
        }

        // Convergecast: children before parents (a child's first receipt
        // is strictly later than its parent's), each report one send. A
        // lost or post-timeout report drops its whole aggregated
        // subtree.
        reached.sort_unstable_by(|&a, &b| {
            arrival[b as usize]
                .cmp(&arrival[a as usize])
                .then(a.cmp(&b))
        });
        for &s in reached.iter() {
            acc_cnt[s as usize] = 1;
            if pred(s) {
                acc_mat[s as usize] = 1;
                acc_wit[s as usize] = Some((dist[s as usize], g.id_of_slot(s), s));
            }
        }
        let mut root_done = launch;
        for &s in reached.iter() {
            if s == root_slot {
                continue;
            }
            let p = parent[s as usize];
            let send_round = arrival[s as usize].max(ready[s as usize]);
            if send_round > timer {
                continue;
            }
            let tag = ((gen as u64) << 32) | snd;
            snd += 1;
            let fate = send_fate(
                spec,
                g.id_of_slot(s).0,
                g.id_of_slot(p).0,
                send_round,
                op_key,
                tag,
            );
            stats.charge(fate);
            let SendFate::Deliver { latency } = fate else {
                continue;
            };
            let arr = send_round + latency as u64;
            if p == root_slot && arr > timer {
                // Arrived after the initiator gave up.
                continue;
            }
            acc_cnt[p as usize] += acc_cnt[s as usize];
            acc_mat[p as usize] += acc_mat[s as usize];
            if let Some(cand) = acc_wit[s as usize] {
                if acc_wit[p as usize].is_none_or(|bw| cand < bw) {
                    acc_wit[p as usize] = Some(cand);
                }
            }
            ready[p as usize] = ready[p as usize].max(arr);
            if p == root_slot {
                root_done = root_done.max(arr);
            }
        }

        let got_n = acc_cnt[root_slot as usize];
        let got_mat = acc_mat[root_slot as usize];
        let got_wit = acc_wit[root_slot as usize];
        if got_n == truth_n {
            let outcome = FloodOutcome {
                n: got_n as usize,
                matching: got_mat as usize,
                witness: got_wit.map(|(_, _, slot)| slot),
                complete: true,
                retries: gen,
                close_round: root_done,
            };
            let report = RunReport {
                stats,
                makespan: root_done,
                messages: stats.sent,
            };
            return (outcome, report);
        }

        // Incomplete: the timer fires (provable loss — with zero faults
        // the flood always completes first), and the best partial result
        // across generations is retained.
        stats.timeouts += 1;
        let cand = (got_n, got_mat, got_wit);
        if best.is_none_or(|(bn, bm, _)| (got_n, got_mat) > (bn, bm)) {
            best = Some(cand);
        }
        cur_round = timer;
        if gen < retries {
            stats.flood_retries += 1;
        }
    }

    stats.floods_partial += 1;
    let (bn, bm, bw) = best.expect("at least one generation ran");
    let outcome = FloodOutcome {
        n: bn as usize,
        matching: bm as usize,
        witness: bw.map(|(_, _, slot)| slot),
        complete: false,
        retries,
        close_round: cur_round,
    };
    let report = RunReport {
        stats,
        makespan: cur_round,
        messages: stats.sent,
    };
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::{flood_count_slots, FloodScratch};
    use crate::network::Network;
    use crate::tokens::random_walk_search_slots;

    /// Ring of `n` nodes plus deterministic chords — connected, degree
    /// ≥ 2 everywhere, enough structure for walks to wander. Node `i`
    /// sits in slot `i`.
    fn test_net(n: u64) -> Network {
        let mut net = Network::new();
        for i in 0..n {
            net.adversary_add_node(NodeId(i));
        }
        for i in 0..n {
            net.adversary_add_edge(NodeId(i), NodeId((i + 1) % n));
            net.adversary_add_edge(NodeId(i), NodeId(splitmix64(i) % n));
        }
        net
    }

    fn walk_ops(n: u64, count: usize, max_len: u64) -> Vec<WalkOp> {
        (0..count)
            .map(|i| WalkOp {
                start: (splitmix64(0x5747 ^ i as u64) % n) as u32,
                max_len,
                exclude: None,
                op_key: 0x6f70_0000 + i as u64,
            })
            .collect()
    }

    fn accept_mod7(s: u32) -> bool {
        s.is_multiple_of(7)
    }

    /// Every counter — including the flood/type-2 additions — must
    /// survive a merge. Distinct per-field values catch a field that
    /// `merge` forgot (it would keep its pre-merge value, not the sum).
    #[test]
    fn fault_stats_merge_covers_every_field() {
        let fill = |base: u64| FaultStats {
            sent: base + 1,
            delivered: base + 2,
            lost_random: base + 3,
            lost_burst: base + 4,
            lost_partition: base + 5,
            retransmits: base + 6,
            timeouts: base + 7,
            reinitiations: base + 8,
            walks_lost: base + 9,
            routes_lost: base + 10,
            heal_fallbacks: base + 11,
            dht_abandoned: base + 12,
            flood_retries: base + 13,
            floods_partial: base + 14,
            type2_rollbacks: base + 15,
            type2_reinitiations: base + 16,
        };
        let mut acc = FaultStats::default();
        acc.merge(&fill(100));
        assert_eq!(acc, fill(100), "a field was dropped by merge");
    }

    #[test]
    fn zero_fault_walk_matches_scalar_engine() {
        let mut net = test_net(64);
        let spec = FaultSpec::zero();
        for trial in 0..20u64 {
            let start = (splitmix64(trial) % 64) as u32;
            let exclude = (trial % 3 == 0).then(|| (splitmix64(trial ^ 1) % 64) as u32);
            let mut rng = StdRng::seed_from_u64(splitmix64(0xabc ^ trial));
            let scalar =
                random_walk_search_slots(&mut net, start, 40, exclude, accept_mod7, &mut rng);
            let ops = [WalkOp {
                start,
                max_len: 40,
                exclude,
                op_key: trial,
            }];
            let (res, report) = run_walks(net.graph(), &spec, &ops, accept_mod7, |_, retry| {
                assert_eq!(retry, 0, "zero faults must never retry");
                StdRng::seed_from_u64(splitmix64(0xabc ^ trial))
            });
            assert_eq!(res[0].hit, scalar.hit, "trial {trial}");
            assert_eq!(res[0].hops, scalar.hops, "trial {trial}");
            assert_eq!(res[0].sends, scalar.hops, "trial {trial}");
            assert_eq!(res[0].close_round, scalar.hops, "trial {trial}");
            assert_eq!(report.makespan, scalar.hops, "trial {trial}");
            assert_eq!(report.stats.sent, report.stats.delivered);
            assert_eq!(report.stats.reinitiations, 0);
            assert_eq!(report.stats.retransmits, 0);
            assert_eq!(res[0].retransmits, 0);
        }
    }

    /// Hop-level ARQ under Bernoulli loss alone: a retransmission resends
    /// the token without a new RNG draw, so every walk takes the zero-spec
    /// walk's hops and hits the same node, and each extra send is one
    /// counted retransmission. The budget is wide enough that no hop
    /// spends it (12 straight losses at 20 %: p ≈ 4·10⁻⁹).
    #[test]
    fn lossy_walks_take_the_zero_fault_hops() {
        let net = test_net(96);
        let ops = walk_ops(96, 40, 50);
        let mk =
            |i: usize, retry: u32| StdRng::seed_from_u64(fold(0xbbb, &[i as u64, retry as u64]));
        let (clean, _) = run_walks(net.graph(), &FaultSpec::zero(), &ops, accept_mod7, mk);
        let spec = FaultSpec::zero()
            .with_loss(200)
            .with_latency(1, 3)
            .with_retries(12, 12)
            .with_seed(0xa7a7);
        let (lossy, rep) = run_walks(net.graph(), &spec, &ops, accept_mod7, mk);
        assert!(rep.stats.retransmits > 0, "20 % loss never retransmitted");
        for (i, (c, l)) in clean.iter().zip(&lossy).enumerate() {
            assert_eq!(l.retries, 0, "op {i} re-initiated");
            assert_eq!(l.status, c.status, "op {i}");
            assert_eq!(l.hit, c.hit, "op {i}");
            assert_eq!(l.hops, c.hops, "op {i}");
            assert_eq!(l.sends, l.hops + l.retransmits, "op {i}");
        }
        let retransmits: u64 = lossy.iter().map(|r| r.retransmits).sum();
        assert_eq!(rep.stats.retransmits, retransmits);
        // Every lost send was retransmitted once, and no op timed out.
        assert_eq!(rep.stats.lost_random, rep.stats.retransmits);
        assert_eq!(rep.stats.timeouts, 0);
    }

    /// A route under loss closes at the sum of its link latencies plus
    /// one per-hop timeout τ per retransmission: a lost send costs the
    /// sender exactly τ before it tries the same link again.
    #[test]
    fn lossy_route_pays_one_hop_timeout_per_retransmission() {
        let net = test_net(64);
        let path: Vec<u32> = (0..12).collect();
        let spec = FaultSpec::zero()
            .with_loss(300)
            .with_latency(1, 4)
            .with_retries(12, 12)
            .with_seed(0x70a7);
        let ops = [RouteOp {
            path: path.clone(),
            round_trip: true,
            op_key: 21,
        }];
        let (res, rep) = run_routes(net.graph(), &spec, &ops);
        let r = res[0];
        assert_eq!(r.status, OpStatus::Delivered);
        assert_eq!(r.retries, 0);
        assert!(r.retransmits > 0, "30 % loss never retransmitted");
        // Latency is symmetric, so the reply pays the request's links.
        let id = |s: u32| net.graph().id_of_slot(s).0;
        let one_way: u64 = path
            .windows(2)
            .map(|w| link_latency(&spec, id(w[0]), id(w[1])) as u64)
            .sum();
        assert_eq!(
            r.close_round,
            2 * one_way + r.retransmits * spec.hop_timeout()
        );
        assert_eq!(r.sends, 22 + r.retransmits);
        assert_eq!(rep.stats.retransmits, r.retransmits);
        assert_eq!(rep.stats.reinitiations, 0);
    }

    #[test]
    fn loss_degrades_delivery_monotonically() {
        let net = test_net(96);
        let ops = walk_ops(96, 30, 50);
        let mut prev_rate = 1.1f64;
        for loss in [0u32, 250, 500, 800] {
            let spec = FaultSpec::zero().with_loss(loss).with_seed(0x1055_f1f1);
            let (_, rep) = run_walks(net.graph(), &spec, &ops, accept_mod7, |i, retry| {
                StdRng::seed_from_u64(fold(0x888, &[i as u64, retry as u64]))
            });
            let rate = rep.stats.delivery_rate();
            assert!(
                rate <= prev_rate + 0.05,
                "delivery rate should not grow with loss: {rate} after {prev_rate}"
            );
            prev_rate = rate;
            if loss == 0 {
                assert_eq!(rate, 1.0);
                assert_eq!(rep.stats.retransmits, 0);
            }
            if loss >= 800 {
                assert!(rep.stats.walks_lost > 0, "heavy loss must abandon some ops");
                assert!(rep.stats.reinitiations > 0);
            }
        }
    }

    #[test]
    fn latency_stretches_makespan() {
        let net = test_net(32);
        // A fixed 5-hop path route at latency 3 closes at round 15.
        let path: Vec<u32> = (0..6).collect();
        let ops = [RouteOp {
            path,
            round_trip: false,
            op_key: 9,
        }];
        let spec = FaultSpec::zero().with_latency(3, 3);
        let (res, rep) = run_routes(net.graph(), &spec, &ops);
        assert_eq!(res[0].status, OpStatus::Delivered);
        assert_eq!(res[0].sends, 5);
        assert_eq!(res[0].close_round, 15);
        assert_eq!(rep.makespan, 15);
        assert_eq!(rep.stats.retransmits, 0);
    }

    #[test]
    fn round_trip_route_retraces_path() {
        let net = test_net(32);
        let path: Vec<u32> = (0..4).collect();
        let ops = [RouteOp {
            path,
            round_trip: true,
            op_key: 11,
        }];
        let (res, rep) = run_routes(net.graph(), &FaultSpec::zero(), &ops);
        assert_eq!(res[0].status, OpStatus::Delivered);
        // 3 hops out + 3 hops back.
        assert_eq!(res[0].sends, 6);
        assert_eq!(res[0].close_round, 6);
        assert_eq!(rep.stats.retransmits, 0);
    }

    /// A ring edge of `test_net(n)` that crosses the partition cut of
    /// `spec`, as slots.
    fn cross_edge(spec: &FaultSpec, n: u64) -> (u32, u32) {
        (0..n)
            .map(|i| (i, (i + 1) % n))
            .find(|&(a, b)| partition_side(spec, a) != partition_side(spec, b))
            .map(|(a, b)| (a as u32, b as u32))
            .expect("hash split leaves no crossing ring edge")
    }

    #[test]
    fn partition_blocks_then_rejoins() {
        let net = test_net(64);
        let spec = FaultSpec::zero()
            .with_partition(1 << 20, 12)
            .with_retries(6, 30)
            .with_seed(0xcafe);
        let (a, b) = cross_edge(&spec, 64);
        let ops = [RouteOp {
            path: vec![a, b],
            round_trip: false,
            op_key: 3,
        }];
        let (res, rep) = run_routes(net.graph(), &spec, &ops);
        // The partition is up for rounds 0..12: the hop's send stalls,
        // the sender retransmits it every τ rounds, and the first one
        // after the rejoin gets across — the hop's budget outlasts the
        // cut, so the op never re-initiates.
        assert_eq!(res[0].status, OpStatus::Delivered);
        assert!(res[0].close_round >= 12, "closed at {}", res[0].close_round);
        assert!(rep.stats.lost_partition > 0);
        assert!(rep.stats.retransmits > 0);
        assert_eq!(rep.stats.reinitiations, 0);
    }

    #[test]
    fn partition_outlasting_the_hop_budget_reinitiates() {
        let net = test_net(64);
        // A hop budget of 2 retransmissions (τ = 3) spans rounds 0..7,
        // well inside the 40-round cut: the token is lost, and only the
        // op-level timer, re-initiating with backoff, outlasts the
        // partition.
        let spec = FaultSpec::zero()
            .with_partition(1 << 20, 40)
            .with_retries(6, 2)
            .with_seed(0xcafe);
        let (a, b) = cross_edge(&spec, 64);
        let ops = [RouteOp {
            path: vec![a, b],
            round_trip: false,
            op_key: 3,
        }];
        let (res, rep) = run_routes(net.graph(), &spec, &ops);
        assert_eq!(res[0].status, OpStatus::Delivered);
        assert!(res[0].retries > 0);
        assert!(res[0].close_round >= 40, "closed at {}", res[0].close_round);
        assert!(rep.stats.lost_partition > 0);
        assert!(rep.stats.retransmits > 0);
        assert!(rep.stats.reinitiations > 0);
    }

    #[test]
    fn burst_windows_drop_whole_links() {
        let net = test_net(64);
        // Every (link, window) is bad: all sends lost, every op
        // abandoned after its retry budget — graceful degradation, no
        // hang.
        let spec = FaultSpec::zero().with_burst(16, 1000).with_retries(2, 2);
        let ops = walk_ops(64, 8, 20);
        let (res, rep) = run_walks(net.graph(), &spec, &ops, accept_mod7, |i, retry| {
            StdRng::seed_from_u64(fold(0x999, &[i as u64, retry as u64]))
        });
        assert_eq!(rep.stats.delivered, 0);
        assert_eq!(rep.stats.lost_burst, rep.stats.sent);
        for r in &res {
            assert_eq!(r.status, OpStatus::Lost);
            assert_eq!(r.retries, 2);
        }
        assert_eq!(rep.stats.walks_lost, 8);
    }

    #[test]
    fn rerun_is_bit_identical() {
        let net = test_net(80);
        let spec = FaultSpec::zero().with_loss(400).with_latency(1, 3);
        let ops = walk_ops(80, 25, 40);
        let run = || {
            run_walks(net.graph(), &spec, &ops, accept_mod7, |i, retry| {
                StdRng::seed_from_u64(fold(0xaaa, &[i as u64, retry as u64]))
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_draws_ignore_arrival_order() {
        // send_fate is a pure function: permuting evaluation order
        // cannot change any verdict.
        let spec = FaultSpec::zero().with_loss(500).with_burst(8, 300);
        let forward: Vec<SendFate> = (0..200u64)
            .map(|i| send_fate(&spec, i % 9, (i + 1) % 9, i, i / 3, i))
            .collect();
        let backward: Vec<SendFate> = (0..200u64)
            .rev()
            .map(|i| send_fate(&spec, i % 9, (i + 1) % 9, i, i / 3, i))
            .collect();
        let backward: Vec<SendFate> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn zero_fault_flood_matches_centralized_flood() {
        let mut net = test_net(48);
        let mut scratch = FloodScratch::new();
        let mut run_scratch = FloodRunScratch::new();
        let spec = FaultSpec::zero();
        for trial in 0..8u64 {
            let root = (splitmix64(0xf10d ^ trial) % 48) as u32;
            let pred = |s: u32| s as u64 % 5 == trial % 5;
            net.begin_step();
            let central = flood_count_slots(&mut net, root, pred, &mut scratch);
            net.end_step(crate::StepKind::Insert, crate::RecoveryKind::Type1);
            let (out, rep) = run_flood(net.graph(), &spec, root, pred, trial, 4, &mut run_scratch);
            assert!(out.complete, "trial {trial}");
            assert_eq!(out.retries, 0, "zero faults must never re-flood");
            assert_eq!(out.n, central.n, "trial {trial}");
            assert_eq!(out.matching, central.matching, "trial {trial}");
            let witness = out.witness.map(|s| net.graph().id_of_slot(s));
            assert_eq!(witness, central.witness, "trial {trial}");
            assert_eq!(out.close_round, central.rounds, "trial {trial}");
            assert_eq!(rep.makespan, central.rounds, "trial {trial}");
            assert_eq!(rep.messages, central.messages, "trial {trial}");
            assert_eq!(rep.stats.sent, rep.stats.delivered);
            assert_eq!(rep.stats.retransmits, 0);
            assert_eq!(rep.stats.timeouts, 0);
            assert_eq!(rep.stats.flood_retries, 0);
            assert_eq!(rep.stats.floods_partial, 0);
        }
    }

    #[test]
    fn flood_timeout_fires_exactly_when_all_frontier_deliveries_lost() {
        // Every (link, window) bad: the root's entire first frontier is
        // lost, nothing is ever in flight past round 0, and the only
        // thing that can close the generation is the timer — which fires
        // at exactly launch + t0 (a firing timer proves loss). With no
        // re-flood budget the initiator settles for the partial count of
        // itself alone.
        let net = test_net(32);
        let spec = FaultSpec::zero().with_burst(1 << 20, 1000);
        let root = 0u32;
        let (out, rep) = run_flood(
            net.graph(),
            &spec,
            root,
            |_| true,
            7,
            0,
            &mut FloodRunScratch::new(),
        );
        assert!(!out.complete);
        assert_eq!(out.n, 1, "only the initiator is counted");
        assert_eq!(out.matching, 1);
        assert_eq!(out.witness, Some(root));
        // ecc of the ring-with-chords from node 0, recomputed here the
        // same way the engine sizes its timer.
        let g = net.graph();
        let mut dist = vec![u32::MAX; g.slot_bound()];
        let mut q = std::collections::VecDeque::new();
        dist[root as usize] = 0;
        q.push_back(root);
        let mut ecc = 0u32;
        while let Some(u) = q.pop_front() {
            ecc = ecc.max(dist[u as usize]);
            for &v in g.neighbor_slots(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        let t0 = (2 * ecc as u64 + 2) * spec.lat_hi() as u64 + 1;
        assert_eq!(out.close_round, t0, "timer fires exactly at launch + t0");
        assert_eq!(rep.stats.timeouts, 1);
        assert_eq!(rep.stats.floods_partial, 1);
        assert_eq!(rep.stats.flood_retries, 0);
        assert_eq!(rep.stats.delivered, 0);
        assert!(rep.stats.sent > 0, "the lost frontier was still charged");
    }

    #[test]
    fn flood_retry_recovers_or_degrades_gracefully() {
        let net = test_net(40);
        // Moderate loss: some generations fail; the budget either finds
        // a complete generation or settles for a partial count that
        // never exceeds the truth. One scratch serves every flood, and
        // reports what a fresh one does.
        let mut warm = FloodRunScratch::new();
        for seed in 0..6u64 {
            let spec = FaultSpec::zero().with_loss(300).with_seed(0xbad0 + seed);
            let (out, rep) = run_flood(net.graph(), &spec, 1, |_| true, seed, 3, &mut warm);
            let cold = run_flood(
                net.graph(),
                &spec,
                1,
                |_| true,
                seed,
                3,
                &mut FloodRunScratch::new(),
            );
            assert_eq!((out, rep), cold, "seed {seed}: warm scratch differs");
            assert!(out.n <= 40);
            assert!(out.matching <= out.n);
            if out.complete {
                assert_eq!(out.n, 40);
                assert_eq!(rep.stats.floods_partial, 0);
            } else {
                assert_eq!(out.retries, 3);
                assert_eq!(rep.stats.floods_partial, 1);
                assert_eq!(rep.stats.flood_retries, 3);
            }
            assert_eq!(rep.stats.flood_retries as u32, out.retries);
        }
    }

    #[test]
    fn flood_partial_count_degrades_with_loss() {
        let net = test_net(64);
        let mut prev = u64::MAX;
        for loss in [0u32, 250, 500, 800] {
            // No retry budget: one generation per loss level, so the
            // reported count directly tracks the loss rate.
            let spec = FaultSpec::zero().with_loss(loss).with_seed(0x10ad);
            let (out, _) = run_flood(
                net.graph(),
                &spec,
                0,
                |_| true,
                9,
                0,
                &mut FloodRunScratch::new(),
            );
            assert!(
                (out.n as u64) <= prev.saturating_add(6),
                "partial count should not grow with loss: {} after {prev}",
                out.n
            );
            prev = out.n as u64;
            if loss == 0 {
                assert!(out.complete);
                assert_eq!(out.n, 64);
            }
        }
    }

    /// The ring-with-chords of `test_net(n)` in two arenas. `straight`
    /// holds node `i` in slot `i`; `shuffled` first vacates a few slots,
    /// then inserts the nodes in a permuted order, so they land in
    /// recycled and fresh slots and no slot names the same node in both.
    /// Edges go in by id in the same order, so every row lists the same
    /// ids in the same order and a walk draws the same neighbours.
    fn twin_arenas(n: u64) -> (MultiGraph, MultiGraph) {
        let edges: Vec<(u64, u64)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), (i, splitmix64(i) % n)])
            .collect();
        let mut straight = MultiGraph::new();
        let mut shuffled = MultiGraph::new();
        for i in 0..n {
            straight.add_node(NodeId(i));
        }
        for i in 0..8 {
            shuffled.add_node(NodeId(1_000 + i));
        }
        for i in [3, 0, 6, 1, 7, 2, 5, 4] {
            shuffled.remove_node(NodeId(1_000 + i));
        }
        for i in 0..n {
            shuffled.add_node(NodeId((i * 37 + 11) % n));
        }
        for g in [&mut straight, &mut shuffled] {
            for &(a, b) in &edges {
                g.add_edge(NodeId(a), NodeId(b));
            }
        }
        let moved = (0..n)
            .filter(|&i| shuffled.slot_of(NodeId(i)) != Some(i as u32))
            .count();
        assert_eq!(moved as u64, n, "some node kept its slot");
        (straight, shuffled)
    }

    /// An op's outcome with its hit read as an id.
    type IdOutcome = (Option<NodeId>, OpStatus, u64, u64, u64, u64, u32);

    fn as_ids(g: &MultiGraph, results: &[OpResult]) -> Vec<IdOutcome> {
        results
            .iter()
            .map(|r| {
                let hit = r.hit.map(|s| g.id_of_slot(s));
                let OpResult {
                    status,
                    hops,
                    sends,
                    retransmits,
                    close_round,
                    retries,
                    ..
                } = *r;
                (hit, status, hops, sends, retransmits, close_round, retries)
            })
            .collect()
    }

    /// The engine runs on slots but draws every fault from node ids, so
    /// the same topology in an arena that numbers its slots differently
    /// gives the same outcome, read as ids: lossy walks and routes under
    /// every fault family, and a zero-spec flood. A fault draw keyed on
    /// slots would tell the two arenas apart.
    #[test]
    fn outcomes_read_as_ids_do_not_depend_on_slot_numbering() {
        let n = 96u64;
        let (straight, shuffled) = twin_arenas(n);
        let spec = FaultSpec::zero()
            .with_loss(200)
            .with_burst(8, 100)
            .with_latency(1, 3)
            .with_partition(64, 6)
            .with_retries(3, 3)
            .with_seed(0x5107);
        // Walk and route inputs, as ids.
        let walks: Vec<(u64, Option<u64>)> = (0..40u64)
            .map(|i| {
                let start = splitmix64(0x5747 ^ i) % n;
                (start, (i % 3 == 0).then(|| (start + 1) % n))
            })
            .collect();
        let paths: Vec<Vec<u64>> = (0..40u64)
            .map(|i| {
                let mut at = splitmix64(0x7a7e ^ i) % n;
                let mut path = vec![at];
                for hop in 0..12u64 {
                    let row = straight.neighbor_slots(at as u32);
                    at = row[(splitmix64(i ^ (hop << 32)) % row.len() as u64) as usize] as u64;
                    path.push(at);
                }
                path
            })
            .collect();
        let run = |g: &MultiGraph| {
            let slot = |u: u64| g.slot_of(NodeId(u)).expect("live node");
            let walk_ops: Vec<WalkOp> = walks
                .iter()
                .enumerate()
                .map(|(i, &(start, exclude))| WalkOp {
                    start: slot(start),
                    max_len: 40,
                    exclude: exclude.map(slot),
                    op_key: 0x6f70_0000 + i as u64,
                })
                .collect();
            let accept = |s: u32| g.id_of_slot(s).0.is_multiple_of(7);
            let mk = |i: usize, retry: u32| {
                StdRng::seed_from_u64(fold(0x1d5, &[i as u64, retry as u64]))
            };
            let (w, w_rep) = run_walks(g, &spec, &walk_ops, accept, mk);
            let route_ops: Vec<RouteOp> = paths
                .iter()
                .enumerate()
                .map(|(i, path)| RouteOp {
                    path: path.iter().map(|&u| slot(u)).collect(),
                    round_trip: i % 2 == 0,
                    op_key: 0x7200 + i as u64,
                })
                .collect();
            let (r, r_rep) = run_routes(g, &spec, &route_ops);
            let floods: Vec<_> = [0u64, 17, 58]
                .iter()
                .map(|&root| {
                    let pred = |s: u32| g.id_of_slot(s).0 % 5 == root % 5;
                    let (mut out, rep) = run_flood(
                        g,
                        &FaultSpec::zero(),
                        slot(root),
                        pred,
                        root,
                        4,
                        &mut FloodRunScratch::new(),
                    );
                    let witness = out.witness.take().map(|s| g.id_of_slot(s));
                    (out, witness, rep)
                })
                .collect();
            (as_ids(g, &w), w_rep, as_ids(g, &r), r_rep, floods)
        };
        let (a, b) = (run(&straight), run(&shuffled));
        assert!(a.1.stats.retransmits > 0 && a.3.stats.lost_partition > 0);
        assert!(a.0.iter().any(|o| o.0.is_some()), "no walk hit");
        assert_eq!(a.0, b.0, "walk outcomes");
        assert_eq!(a.1, b.1, "walk report");
        assert_eq!(a.2, b.2, "route outcomes");
        assert_eq!(a.3, b.3, "route report");
        assert_eq!(a.4, b.4, "floods");
    }

    #[test]
    fn spec_zero_detects_fault_models() {
        assert!(FaultSpec::zero().is_zero());
        assert!(!FaultSpec::zero().with_loss(1).is_zero());
        assert!(!FaultSpec::zero().with_burst(4, 100).is_zero());
        assert!(!FaultSpec::zero().with_partition(10, 2).is_zero());
        assert!(!FaultSpec::zero().with_latency(1, 2).is_zero());
        // Disabled halves keep the spec zero.
        assert!(FaultSpec::zero().with_burst(4, 0).is_zero());
        assert!(FaultSpec::zero().with_partition(0, 5).is_zero());
    }
}
