//! Deterministic hash-based node → shard assignment.
//!
//! A [`Partitioner`] assigns every node to one of `num_shards` shards by a
//! pure splitmix64 hash of `(seed, node id)` — no iteration-order or RNG-state
//! dependence, so the same `(seed, num_shards)` yields the same assignment on
//! every machine. Sharded execution (`dkc_distsim::NetworkBuilder::shards`)
//! materializes [`Partitioner::shard_of`] as its owner table and charges each
//! round's copies between differently owned nodes as boundary frames.

use crate::node::NodeId;

/// The splitmix64 finalizer: the one avalanche step behind every seeded hash
/// decision in the workspace (shard assignment here, fault and tamper
/// decisions in `dkc_distsim::faults`, checkpoint graph fingerprints in
/// `dkc_core::checkpoint`).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic node → shard assignment by seeded hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partitioner {
    num_shards: usize,
    seed: u64,
}

impl Partitioner {
    /// Creates a partitioner over `num_shards ≥ 1` shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn new(num_shards: usize, seed: u64) -> Self {
        assert!(num_shards >= 1, "a partition needs at least one shard");
        Partitioner { num_shards, seed }
    }

    /// The shard owning node `v` — a pure function of `(seed, v)`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        // splitmix64's golden-ratio increment precedes the finalizer.
        let x = (self.seed ^ 0xE4C5_8A0D_71F6_23B9 ^ u64::from(v.0))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        (splitmix64(x) % self.num_shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        let nodes = || (0..200).map(NodeId::new);
        let owners = |part: Partitioner| nodes().map(|v| part.shard_of(v)).collect::<Vec<_>>();
        let a = owners(Partitioner::new(3, 42));
        assert_eq!(a, owners(Partitioner::new(3, 42)));
        assert!(a.iter().all(|&s| s < 3));
        // Every shard gets nodes, and a different seed moves some of them.
        assert!((0..3).all(|s| a.contains(&s)));
        assert_ne!(a, owners(Partitioner::new(3, 43)));
        // One shard owns everything.
        assert!(owners(Partitioner::new(1, 1234)).iter().all(|&s| s == 0));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        Partitioner::new(0, 0);
    }
}
