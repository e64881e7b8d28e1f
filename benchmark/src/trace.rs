//! In-memory span recorder for the traced run.
//!
//! A span wraps one call from the benchmark into a layer's public function
//! (or one segment of such calls). Spans live in a preallocated buffer and
//! are written out once, after the run; nothing is recorded from inside the
//! library.

use std::time::Instant;

/// What a span wraps. The string form is `<crate>.<call>`, the crate being
/// the layer the call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    Segment,
    Bootstrap,
    Insert,
    Delete,
    /// An `insert` whose recovery was a type-2 inflation.
    InsertType2,
    /// A `delete` whose recovery was a type-2 deflation.
    DeleteType2,
    Get,
    Put,
    InsertBatch,
    DeleteBatch,
    InsertBatchType2,
    DeleteBatchType2,
    BuildSchedule,
    RunServe,
    InvariantsCheck,
    Lambda2,
    Probe,
}

impl Name {
    pub const ALL: [Name; 17] = [
        Name::Segment,
        Name::Bootstrap,
        Name::Insert,
        Name::Delete,
        Name::InsertType2,
        Name::DeleteType2,
        Name::Get,
        Name::Put,
        Name::InsertBatch,
        Name::DeleteBatch,
        Name::InsertBatchType2,
        Name::DeleteBatchType2,
        Name::BuildSchedule,
        Name::RunServe,
        Name::InvariantsCheck,
        Name::Lambda2,
        Name::Probe,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Segment => "driver.segment",
            Name::Bootstrap => "core.bootstrap",
            Name::Insert => "core.insert",
            Name::Delete => "core.delete",
            Name::InsertType2 => "core.insert.type2",
            Name::DeleteType2 => "core.delete.type2",
            Name::Get => "core.dht_lookup",
            Name::Put => "core.dht_insert",
            Name::InsertBatch => "core.insert_batch",
            Name::DeleteBatch => "core.delete_batch",
            Name::InsertBatchType2 => "core.insert_batch.type2",
            Name::DeleteBatchType2 => "core.delete_batch.type2",
            Name::BuildSchedule => "workload.build_schedule",
            Name::RunServe => "workload.run_serve",
            Name::InvariantsCheck => "core.invariants_check",
            Name::Lambda2 => "graph.lambda2",
            Name::Probe => "driver.probe",
        }
    }

    pub fn is_type2(self) -> bool {
        matches!(
            self,
            Name::InsertType2 | Name::DeleteType2 | Name::InsertBatchType2 | Name::DeleteBatchType2
        )
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: u32,
    /// Index of the operation in the workload's stream (segment index for a
    /// segment span); spans of one operation share it.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: Name, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one. `name`
    /// replaces the name given at `begin`: whether a heal was type-1 or
    /// type-2 is known only from the call's result.
    pub fn end_as(&mut self, id: u32, name: Name) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.name = name;
    }

    pub fn end(&mut self, id: u32) {
        let name = self.spans[id as usize].name;
        self.end_as(id, name);
    }

    /// Self time per span: its duration minus the part its child spans
    /// cover. One thread records, so children of one span never overlap and
    /// the covered part is the sum of their durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.dur_ns();
            }
        }
        own
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: Name) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    pub fn total_ns(&self, pred: impl Fn(Name) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| pred(s.name))
            .map(Span::dur_ns)
            .sum()
    }

    /// Share of segment time covered by the spans inside the segments.
    pub fn coverage(&self) -> f64 {
        let own = self.self_times_ns();
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.name == Name::Segment {
                total += s.dur_ns();
                uncovered += own;
            }
        }
        if total == 0 {
            return 0.0;
        }
        1.0 - uncovered as f64 / total as f64
    }

    /// Compact JSON: a name table and one `[name, start_ns, end_ns, parent,
    /// op]` row per span (`parent` −1 for a root).
    pub fn write_json(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        write!(
            w,
            "{{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"], \"names\": ["
        )?;
        for (i, n) in Name::ALL.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            write!(w, "{sep}\"{}\"", n.as_str())?;
        }
        writeln!(w, "], \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "[{}, {}, {}, {}, {}]{sep}",
                s.name as u8, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a tracer with hand-set times: (name, start, end, parent).
    fn hand(spans: &[(Name, u64, u64, u32)]) -> Tracer {
        let mut t = Tracer::with_capacity(spans.len());
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let t = hand(&[
            (Name::Segment, 0, 100, NO_PARENT),
            (Name::Insert, 10, 40, 0),
            (Name::Delete, 50, 90, 0),
            (Name::Probe, 55, 60, 2),
        ]);
        assert_eq!(t.self_times_ns(), vec![30, 30, 35, 5]);
        assert!((t.coverage() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn nesting_follows_begin_and_end() {
        let mut t = Tracer::with_capacity(4);
        let seg = t.begin(Name::Segment, 7);
        let op = t.begin(Name::Insert, 3);
        t.end_as(op, Name::InsertType2);
        t.end(seg);
        let s = &t.spans;
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!(s[1].parent, seg);
        assert_eq!(s[1].name, Name::InsertType2);
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        t.write_json(&mut out).unwrap();
        let parsed = crate::json::Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(parsed.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn name_table_matches_discriminants() {
        for (i, n) in Name::ALL.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
    }
}
