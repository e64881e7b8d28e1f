//! Strongly-typed identifiers.
//!
//! The paper is careful to distinguish *vertices* of the virtual graph from
//! *nodes* (processors) of the real network ("we reserve the term 'vertex'
//! for vertices in a virtual graph and 'node' for the real network",
//! Sect. 3). We encode that distinction in the type system so the two can
//! never be mixed up.

use std::fmt;

/// Identifier of a *real* node (a processor in the network).
///
/// Node ids are chosen by the adversary on insertion (Sect. 2) and are never
/// reused within a run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

/// Identifier of a *virtual* vertex, i.e. an element of `Z_p` for the
/// current p-cycle `Z(p)` (Definition 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u64);

impl NodeId {
    /// The one id no node may carry: it marks a freed arena slot
    /// ([`crate::adjacency::MultiGraph`]) and a vacant Φ node record. Inputs
    /// are rejected at validation (trace parsing, `insert`,
    /// `insert_batch`), and the arena refuses to insert it.
    pub const VACANT: NodeId = NodeId(u64::MAX);

    /// Raw integer value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl VertexId {
    /// Raw integer value (the residue in `Z_p`).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "z{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "z{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

impl From<u64> for VertexId {
    fn from(v: u64) -> Self {
        VertexId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_formats_are_distinct() {
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
        assert_eq!(format!("{:?}", VertexId(7)), "z7");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(NodeId(2) < NodeId(10));
        assert!(VertexId(0) < VertexId(1));
    }

    #[test]
    fn from_raw_roundtrip() {
        assert_eq!(NodeId::from(42).raw(), 42);
        assert_eq!(VertexId::from(42).raw(), 42);
    }
}
