//! Operation generator. Every draw comes from the run's seed; the script
//! keeps its own live-node list and never reads the network, so the library
//! receives only the generated calls and the same seed gives the same calls.

use dex::core::batch::MAX_ATTACH_FAN_IN;
use dex::graph::fxhash::FxHashMap;
use dex::graph::NodeId;
use dex::sim::rng::splitmix64;

/// Keys are drawn from `0..KEYSPACE`.
pub const KEYSPACE: u64 = 1 << 20;
/// Newcomers / victims per batch step.
pub const BATCH: usize = 64;
/// The script never deletes below this many live nodes.
pub const MIN_LIVE: usize = 12;

/// splitmix64 sequence.
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(splitmix64(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Which operations a workload issues, and in what proportion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// insert / delete, each with probability ½.
    Churn,
    /// 80 % get / 20 % put; half of the gets aim at a key already put.
    Dht,
    /// `grow` inserts, then deletes only.
    Resize { grow: u64 },
    /// `insert_batch` and `delete_batch` of [`BATCH`], alternating.
    Batch,
    /// 25 % insert / 25 % delete / 10 % put / 40 % get.
    Lossy,
}

/// One generated call. Batch payloads stay in the script's buffers
/// ([`Script::joins`], [`Script::victims`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert { u: NodeId, v: NodeId },
    Delete { victim: NodeId },
    Get { from: NodeId, key: u64 },
    Put { from: NodeId, key: u64, value: u64 },
    InsertBatch,
    DeleteBatch,
}

pub struct Script {
    mix: Mix,
    gen: Gen,
    live: Vec<NodeId>,
    next_id: u64,
    known: Vec<u64>,
    issued: u64,
    pub joins: Vec<(NodeId, NodeId)>,
    pub victims: Vec<NodeId>,
    fan: FxHashMap<NodeId, usize>,
}

impl Script {
    /// A script over a network bootstrapped with ids `0..n0`.
    pub fn new(mix: Mix, n0: u64, seed: u64) -> Script {
        Script {
            mix,
            gen: Gen::new(seed),
            live: (0..n0).map(NodeId).collect(),
            next_id: n0,
            known: Vec::new(),
            issued: 0,
            joins: Vec::with_capacity(BATCH),
            victims: Vec::with_capacity(BATCH),
            fan: FxHashMap::default(),
        }
    }

    pub fn live(&self) -> usize {
        self.live.len()
    }

    fn pick_live(&mut self) -> NodeId {
        let i = self.gen.below(self.live.len() as u64) as usize;
        self.live[i]
    }

    fn insert(&mut self) -> Op {
        let v = self.pick_live();
        let u = NodeId(self.next_id);
        self.next_id += 1;
        self.live.push(u);
        Op::Insert { u, v }
    }

    fn delete(&mut self) -> Op {
        if self.live.len() <= MIN_LIVE {
            return self.insert();
        }
        let i = self.gen.below(self.live.len() as u64) as usize;
        Op::Delete {
            victim: self.live.swap_remove(i),
        }
    }

    fn get(&mut self) -> Op {
        let from = self.pick_live();
        let r = self.gen.next();
        let key = if r & 1 == 0 && !self.known.is_empty() {
            self.known[(r >> 1) as usize % self.known.len()]
        } else {
            (r >> 1) % KEYSPACE
        };
        Op::Get { from, key }
    }

    fn put(&mut self) -> Op {
        let from = self.pick_live();
        let key = self.gen.below(KEYSPACE);
        let value = self.gen.next();
        self.known.push(key);
        Op::Put { from, key, value }
    }

    /// Attach points come from the nodes live before the batch, redrawn
    /// while one already has [`MAX_ATTACH_FAN_IN`] newcomers.
    fn insert_batch(&mut self) -> Op {
        self.joins.clear();
        self.fan.clear();
        let before = self.live.len() as u64;
        for _ in 0..BATCH {
            let v = loop {
                let v = self.live[self.gen.below(before) as usize];
                let fan = self.fan.entry(v).or_insert(0);
                if *fan < MAX_ATTACH_FAN_IN {
                    *fan += 1;
                    break v;
                }
            };
            let u = NodeId(self.next_id);
            self.next_id += 1;
            self.live.push(u);
            self.joins.push((u, v));
        }
        Op::InsertBatch
    }

    fn delete_batch(&mut self) -> Op {
        if self.live.len() <= MIN_LIVE + BATCH {
            return self.insert_batch();
        }
        self.victims.clear();
        for _ in 0..BATCH {
            let i = self.gen.below(self.live.len() as u64) as usize;
            self.victims.push(self.live.swap_remove(i));
        }
        Op::DeleteBatch
    }

    pub fn next_op(&mut self) -> Op {
        let k = self.issued;
        self.issued += 1;
        match self.mix {
            Mix::Churn => {
                if self.gen.next() & 1 == 0 {
                    self.insert()
                } else {
                    self.delete()
                }
            }
            Mix::Dht => {
                if self.gen.below(100) < 80 {
                    self.get()
                } else {
                    self.put()
                }
            }
            Mix::Resize { grow } => {
                if k < grow {
                    self.insert()
                } else {
                    self.delete()
                }
            }
            Mix::Batch => {
                if k.is_multiple_of(2) {
                    self.insert_batch()
                } else {
                    self.delete_batch()
                }
            }
            Mix::Lossy => match self.gen.below(100) {
                0..=24 => self.insert(),
                25..=49 => self.delete(),
                50..=59 => self.put(),
                _ => self.get(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(mix: Mix, seed: u64, n: usize) -> Vec<Op> {
        let mut s = Script::new(mix, 64, seed);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_calls() {
        for mix in [Mix::Churn, Mix::Dht, Mix::Lossy, Mix::Resize { grow: 50 }] {
            assert_eq!(stream(mix, 5, 300), stream(mix, 5, 300));
            assert_ne!(stream(mix, 5, 300), stream(mix, 6, 300));
        }
    }

    #[test]
    fn batches_respect_fan_in_and_distinctness() {
        let mut s = Script::new(Mix::Batch, 16, 3);
        for step in 0..40 {
            match s.next_op() {
                Op::InsertBatch => {
                    assert_eq!(s.joins.len(), BATCH);
                    let mut fan = std::collections::BTreeMap::new();
                    for &(_, v) in &s.joins {
                        *fan.entry(v).or_insert(0usize) += 1;
                    }
                    assert!(fan.values().all(|&f| f <= MAX_ATTACH_FAN_IN), "step {step}");
                }
                Op::DeleteBatch => {
                    let mut v = s.victims.clone();
                    v.sort_unstable();
                    v.dedup();
                    assert_eq!(v.len(), BATCH, "step {step}");
                }
                other => panic!("batch mix issued {other:?}"),
            }
            assert!(s.live() >= MIN_LIVE);
        }
    }

    #[test]
    fn resize_grows_then_shrinks_to_the_floor() {
        let mut s = Script::new(Mix::Resize { grow: 100 }, 20, 1);
        for _ in 0..100 {
            assert!(matches!(s.next_op(), Op::Insert { .. }));
        }
        assert_eq!(s.live(), 120);
        for _ in 0..108 {
            assert!(matches!(s.next_op(), Op::Delete { .. }));
        }
        assert_eq!(s.live(), MIN_LIVE);
        assert!(matches!(s.next_op(), Op::Insert { .. }), "floor holds");
    }
}
