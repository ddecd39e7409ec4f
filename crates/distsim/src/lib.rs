//! # dkc-distsim
//!
//! A simulator for the **synchronous LOCAL / CONGEST model** used by the paper:
//! every node is a processor that knows only its incident edges (and their
//! weights) and, in each synchronous round, sends a message to (a subset of)
//! its neighbours, then updates its state from the messages it received.
//!
//! The simulator is the substrate substitution for an actual distributed
//! deployment: all of the paper's claims are about *round complexity* and
//! *message size*, and both are measured exactly here (see [`metrics`] and
//! [`congest`]).
//!
//! ## Structure
//!
//! * [`program::NodeProgram`] — the per-node state machine interface
//!   (broadcast phase + receive phase per round).
//! * [`network::Network`] — the synchronous executor; runs dense rounds or
//!   rounds over the active frontier, data-parallel across nodes (rayon) at
//!   any thread count — rounds are barriers, so every mode and thread count
//!   produces identical results.
//! * [`metrics`] — per-round and cumulative message/bit accounting.
//! * [`congest`] — CONGEST-model message-size budgets and checks.
//! * [`message::MessageSize`] — payload size accounting used by the metrics.
//! * [`faults`] — the deterministic [`FaultPlan`] subsystem: composable
//!   i.i.d. loss, burst loss, crash-stop, partition, and byzantine
//!   (lie/equivocate/mute/spam, with detection and quarantine) fault
//!   injection.
//! * [`checkpoint`] — versioned snapshot/restore of mid-run executor state,
//!   so a run killed at any round resumes byte-identically.
//! * [`shard`] — the [`shard::BoundaryDelta`] wire frame behind
//!   sharded execution ([`NetworkBuilder::shards`]): each round's
//!   frontier ∩ boundary copies per ordered shard pair are charged to the
//!   boundary counters at the length that frame would have, without
//!   building it.

#![deny(deprecated)]

pub mod checkpoint;
pub mod congest;
pub mod faults;
mod mailbox;
pub mod message;
pub mod metrics;
pub mod network;
pub mod program;
pub mod shard;
pub mod wire;

pub use checkpoint::{CheckpointError, SnapshotState};
pub use congest::congest_budget_bits;
pub use faults::{
    Behavior, BurstLoss, ByzantineModel, CrashModel, DropCause, FaultPlan, LossModel,
    PartitionModel,
};
pub use message::{MessageSize, Tamper};
pub use metrics::{Counter, Reducer, RoundStats, RunMetrics, COUNTERS};
pub use network::{
    ExecutionMode, ExecutorBufferStats, Network, NetworkBuilder, MAX_ROUNDS, MAX_SHARDS,
    PULL_DIVISOR,
};
pub use program::{Delivery, NodeContext, NodeProgram, Outgoing};
pub use shard::{BoundaryDelta, BoundaryRecord};
pub use wire::{WireCodec, WireError};
