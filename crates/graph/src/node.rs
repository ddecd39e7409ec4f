//! Node identifiers.

use std::fmt;

/// A node identifier: a dense index in `0..n`.
///
/// Stored as `u32` to keep hot per-node structures compact (see the type-size
/// guidance in the Rust Performance Book); graphs with more than `u32::MAX`
/// nodes are out of scope for a single-machine simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node id from a `usize` index.
    ///
    /// # Panics
    /// Panics if `idx` does not fit in a `u32`.
    #[inline]
    pub fn new(idx: usize) -> Self {
        debug_assert!(
            idx <= u32::MAX as usize,
            "node index {idx} exceeds u32 range"
        );
        NodeId(idx as u32)
    }

    /// Returns the node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(idx: usize) -> Self {
        NodeId::new(idx)
    }
}

impl From<u32> for NodeId {
    fn from(idx: u32) -> Self {
        NodeId(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v = NodeId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v, NodeId::from(42usize));
        assert_eq!(v, NodeId::from(42u32));
        assert_eq!(format!("{v}"), "42");
        assert_eq!(format!("{v:?}"), "v42");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(NodeId::new(100) > NodeId::new(99));
    }

    #[test]
    fn is_small() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
    }
}
