//! The typed error for a graph that outgrows the `u32` index width.
//!
//! Node ids ([`crate::NodeId`]) and the CSR's arc offsets and cross-indices
//! ([`crate::CsrGraph`]'s neighbour-rank and reverse-arc maps) are `u32`, so
//! a graph holds at most 2³² − 1 directed arcs and 2³² distinct node ids.
//! [`crate::CsrGraph::try_from_graph`] and
//! [`crate::ingest::NodeIdMap::try_intern`] report a larger input as an
//! [`IdxOverflow`] instead of panicking.

use std::fmt;

/// A count did not fit the `u32` index width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdxOverflow {
    /// The value that did not fit.
    pub value: usize,
    /// What was being indexed (e.g. `"arc count"`).
    pub what: &'static str,
}

impl IdxOverflow {
    pub(crate) fn new(value: usize, what: &'static str) -> Self {
        IdxOverflow { value, what }
    }
}

impl fmt::Display for IdxOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} exceeds u32 index range", self.what, self.value)
    }
}

impl std::error::Error for IdxOverflow {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_error_is_displayable() {
        let e = IdxOverflow::new(1 << 33, "arc count");
        let msg = e.to_string();
        assert!(msg.contains("arc count"), "{msg}");
        assert!(msg.contains("u32"), "{msg}");
    }
}
