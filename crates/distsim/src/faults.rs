//! Composable deterministic fault injection: the [`FaultPlan`] subsystem.
//!
//! The paper's protocols are synchronous and fault-free; related work studies
//! faulty settings with distinctly non-i.i.d. failure patterns — periodic
//! channel unavailability, impulsive (bursty) noise, node churn. To let the
//! experiment harness probe robustness beyond independent per-message loss,
//! the simulator accepts a [`FaultPlan`]: a composition of up to four fault
//! components, each deciding its faults by the same **splitmix64-style
//! hashing** of `(seed, round, link/node, message index)` so that every run is
//! reproducible and dense and sparse rounds, at any thread count, stay
//! byte-identical.
//!
//! The components:
//!
//! * [`LossModel`] — i.i.d. loss: each delivered copy is dropped independently
//!   with a fixed probability. Decisions are per `(round, sender, receiver,
//!   message index)`; the index distinguishes multiple messages on the same
//!   link in the same round (e.g. a unicast batch), while index 0 reproduces
//!   the historical single-message hash bit-for-bit.
//! * [`BurstLoss`] — deterministic on/off windows per link: each undirected
//!   link gets a hashed phase within a fixed period and drops everything
//!   during the first `burst_len` rounds of each of its periods. This models
//!   periodic channel unavailability / impulsive noise, which i.i.d. loss
//!   flatters: drops arrive correlated in time on the same link.
//! * [`CrashModel`] — crash-stop nodes: a hashed subset of nodes halt at a
//!   hashed round inside a window and never broadcast (or step) again. The
//!   executor treats a crashed node exactly like a program-halted one, and the
//!   sparse frontier executor removes it from the frontier.
//! * [`PartitionModel`] — link partition: a hashed node subset is cut off from
//!   the rest for a round interval (every crossing message is dropped in both
//!   directions); the partition heals after the interval.
//!
//! * [`ByzantineModel`] — *commission* faults: a hashed subset of nodes
//!   actively misbehave inside a round window. Each byzantine node is
//!   assigned exactly one [`Behavior`]: **lie** (perturb every outgoing value
//!   by a per-node salt), **equivocate** (perturb per-receiver, so different
//!   neighbours see different values), **mute** (drop a hashed half of its
//!   outgoing copies while appearing alive), or **spam** (send every frame
//!   twice). The model also carries a deterministic *detection* layer:
//!   accusation events are a pure hash of `(seed, round, node)` — never of
//!   observed traffic, so all executors agree — and an opt-in *quarantine*
//!   policy silences a node one round after its accusation count crosses a
//!   threshold.
//!
//! Dropped copies (loss, burst, partition, byzantine mute) keep the
//! **sender** in the sparse frontier so it re-sends its current value —
//! exactly reproducing the rounds at which a dense run would have delivered
//! it. A crashed *receiver* does not: a crash is not a transient drop, and
//! re-sending to a dead node would pin its neighbours in the frontier
//! forever. Per-component drop totals, the cumulative crashed-node count,
//! and the cumulative accusation/quarantine counts are surfaced through
//! [`crate::RoundStats`] / [`crate::RunMetrics`] as deterministic counters.

use crate::network::MAX_ROUNDS;
use dkc_graph::NodeId;

/// The workspace's splitmix64 finalizer: the avalanche step behind every
/// fault decision (also reused by [`crate::message::Tamper`]'s salt-to-factor
/// map).
pub(crate) use dkc_graph::partition::splitmix64 as splitmix;

/// Maps a hash to the unit interval `[0, 1)` with 53 bits of precision.
#[inline]
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Why a particular message copy was dropped. One cause is attributed per
/// drop; see [`FaultPlan::drop_cause`] for the fixed attribution precedence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropCause {
    /// Dropped by the i.i.d. [`LossModel`].
    Loss,
    /// Dropped inside a [`BurstLoss`] outage window of the link.
    Burst,
    /// Dropped because the [`PartitionModel`] cut severed the link.
    Partition,
    /// Dropped because the byzantine sender selectively muted this copy.
    ByzantineMute,
}

/// A deterministic i.i.d. per-message loss model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossModel {
    /// Probability in `[0, 1]` that any single delivered message is dropped.
    pub probability: f64,
    /// Seed making the drop pattern reproducible.
    pub seed: u64,
}

impl LossModel {
    /// Creates a loss model; panics if the probability is outside `[0, 1]`.
    pub fn new(probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "loss probability must be in [0, 1]"
        );
        LossModel { probability, seed }
    }

    /// Whether the message copy `index` sent by `from` to `to` in `round` is
    /// dropped. `index` distinguishes distinct messages on the same link in
    /// the same round (a unicast batch position); broadcast and multicast
    /// carry a single message per round and use index 0, which reproduces the
    /// historical `(round, from, to)` hash bit-for-bit.
    pub fn drops(&self, round: usize, from: NodeId, to: NodeId, index: usize) -> bool {
        if self.probability <= 0.0 {
            return false;
        }
        if self.probability >= 1.0 {
            return true;
        }
        let x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(u64::from(from.0) << 32 | u64::from(to.0))
            // Index 0 must leave the pre-mix untouched so single-message
            // rounds keep the exact historical drop pattern.
            .wrapping_add((index as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        unit(splitmix(x)) < self.probability
    }
}

/// Deterministic bursty link outages: each undirected link is dark for the
/// first `burst_len` rounds of every `period`-round cycle, with a per-link
/// hashed phase offset so outages are desynchronized across the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurstLoss {
    /// Cycle length in rounds (≥ 1).
    pub period: usize,
    /// Consecutive dark rounds per cycle (`0 ..= period`; `period` means the
    /// link never delivers).
    pub burst_len: usize,
    /// Seed for the per-link phase.
    pub seed: u64,
}

impl BurstLoss {
    /// Creates a burst model; panics unless `period ≥ 1` and
    /// `burst_len ≤ period`.
    pub fn new(period: usize, burst_len: usize, seed: u64) -> Self {
        assert!(period >= 1, "burst period must be at least 1 round");
        assert!(
            burst_len <= period,
            "burst length {burst_len} exceeds period {period}"
        );
        BurstLoss {
            period,
            burst_len,
            seed,
        }
    }

    /// The hashed phase offset of the (undirected) link `{a, b}`.
    pub fn phase(&self, a: NodeId, b: NodeId) -> usize {
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        let x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(lo) << 32 | u64::from(hi));
        (splitmix(x) % self.period as u64) as usize
    }

    /// Whether the link `{from, to}` is inside an outage window in `round`.
    /// Symmetric in the endpoints: a dark channel drops both directions.
    pub fn drops(&self, round: usize, from: NodeId, to: NodeId) -> bool {
        if self.burst_len == 0 {
            return false;
        }
        (round + self.phase(from, to)) % self.period < self.burst_len
    }
}

/// Crash-stop failures: a hashed subset of nodes each halt at a hashed round
/// and never broadcast, receive, or step again.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashModel {
    /// Probability that any given node crashes at all.
    pub probability: f64,
    /// Crash rounds are hashed uniformly into `first_round ..= last_round`.
    pub first_round: usize,
    /// Inclusive upper end of the crash window.
    pub last_round: usize,
    /// Seed for node selection and crash-round placement.
    pub seed: u64,
}

impl CrashModel {
    /// Creates a crash model; panics if the probability is outside `[0, 1]`
    /// or the window is empty or ends past [`MAX_ROUNDS`].
    pub fn new(probability: f64, first_round: usize, last_round: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "crash probability must be in [0, 1]"
        );
        assert!(
            first_round >= 1 && first_round <= last_round,
            "crash window must satisfy 1 <= first_round <= last_round"
        );
        assert!(
            last_round as u64 <= MAX_ROUNDS,
            "crash window must end by round {MAX_ROUNDS}"
        );
        CrashModel {
            probability,
            first_round,
            last_round,
            seed,
        }
    }

    /// The round at which `node` crash-stops (`None` = never). A node crashed
    /// at round `r` does not broadcast or step in round `r` or any later
    /// round.
    pub fn crash_round(&self, node: NodeId) -> Option<usize> {
        if self.probability <= 0.0 {
            return None;
        }
        let pick = splitmix(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(node.0)),
        );
        if unit(pick) >= self.probability {
            return None;
        }
        let span = (self.last_round - self.first_round + 1) as u64;
        Some(self.first_round + (splitmix(pick ^ 0xC2B2_AE3D_27D4_EB4F) % span) as usize)
    }

    /// Whether `node` has crash-stopped as of `round`.
    pub fn crashed(&self, round: usize, node: NodeId) -> bool {
        self.crash_round(node).is_some_and(|r| r <= round)
    }
}

/// A temporary network partition: a hashed node subset (the "minority side")
/// is cut off for `first_round ..= last_round`; every message crossing the
/// cut is dropped in both directions, and the cut heals afterwards.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionModel {
    /// Expected fraction of nodes on the minority side, in `[0, 1]`.
    pub fraction: f64,
    /// First round (inclusive) in which the cut is active.
    pub first_round: usize,
    /// Last round (inclusive) in which the cut is active.
    pub last_round: usize,
    /// Seed for the side assignment.
    pub seed: u64,
}

impl PartitionModel {
    /// Creates a partition model; panics if the fraction is outside `[0, 1]`
    /// or the window is empty or ends past [`MAX_ROUNDS`].
    pub fn new(fraction: f64, first_round: usize, last_round: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "partition fraction must be in [0, 1]"
        );
        assert!(
            first_round >= 1 && first_round <= last_round,
            "partition window must satisfy 1 <= first_round <= last_round"
        );
        assert!(
            last_round as u64 <= MAX_ROUNDS,
            "partition window must end by round {MAX_ROUNDS}"
        );
        PartitionModel {
            fraction,
            first_round,
            last_round,
            seed,
        }
    }

    /// Whether `node` is on the minority side of the cut.
    pub fn minority_side(&self, node: NodeId) -> bool {
        if self.fraction <= 0.0 {
            return false;
        }
        let x = splitmix(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(node.0) ^ 0xA076_1D64_78BD_642F),
        );
        unit(x) < self.fraction
    }

    /// Whether the cut is active in `round` and severs the link `from → to`.
    pub fn severs(&self, round: usize, from: NodeId, to: NodeId) -> bool {
        round >= self.first_round
            && round <= self.last_round
            && self.minority_side(from) != self.minority_side(to)
    }
}

/// The four byzantine behaviors. Each byzantine node is assigned exactly
/// one, hashed from the enabled set, so a single node never combines (say)
/// lying with muting — keeping the per-copy accounting invariants simple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Behavior {
    /// Perturb every outgoing value with one per-node salt (all receivers
    /// see the same wrong value).
    Lie,
    /// Perturb outgoing values with a per-`(node, receiver)` salt (different
    /// neighbours see different wrong values).
    Equivocate,
    /// Drop a hashed half of the outgoing copies while appearing alive.
    Mute,
    /// Send every outgoing frame [`ByzantineModel::SPAM_FACTOR`] times.
    Spam,
}

impl Behavior {
    /// All behaviors in their canonical (bit) order.
    pub const ALL: [Behavior; 4] = [
        Behavior::Lie,
        Behavior::Equivocate,
        Behavior::Mute,
        Behavior::Spam,
    ];

    /// The bit this behavior occupies in a [`ByzantineModel::behaviors`]
    /// bitfield.
    #[inline]
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// The spec-grammar name of the behavior.
    pub fn name(self) -> &'static str {
        match self {
            Behavior::Lie => "lie",
            Behavior::Equivocate => "equivocate",
            Behavior::Mute => "mute",
            Behavior::Spam => "spam",
        }
    }

    /// Parses a spec-grammar behavior name.
    pub fn from_name(name: &str) -> Option<Behavior> {
        Behavior::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// Byzantine (commission) faults: a hashed node subset misbehaves inside a
/// round window, with deterministic detection and optional quarantine. All
/// decisions — which nodes are byzantine, which behavior each performs,
/// per-copy mute/tamper outcomes, and the accusation schedule — are pure
/// splitmix64 hashes of the seed and round/node/link coordinates, so every
/// execution mode reproduces the identical run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ByzantineModel {
    /// Expected fraction of byzantine nodes, in `[0, 1]`.
    pub fraction: f64,
    /// Bitfield of enabled [`Behavior`]s (each byzantine node is hashed onto
    /// exactly one of them). Must be non-empty and within
    /// [`ByzantineModel::ALL_BEHAVIORS`].
    pub behaviors: u8,
    /// First round (inclusive) of misbehavior.
    pub first_round: usize,
    /// Last round (inclusive) of misbehavior.
    pub last_round: usize,
    /// Per-round probability (in `[0, 1]`) that a byzantine node triggers an
    /// accusation event while the window is active. Detection is a pure hash
    /// schedule — independent of observed traffic — so all executors agree.
    pub detect: f64,
    /// Accusation threshold after which a node is quarantined (its outgoing
    /// traffic silenced from the following round). `0` disables quarantine.
    pub quarantine: u32,
    /// Seed for all byzantine decisions.
    pub seed: u64,
}

impl ByzantineModel {
    /// Bitfield of all four behaviors.
    pub const ALL_BEHAVIORS: u8 = 0b1111;

    /// Default per-round accusation-event probability.
    pub const DEFAULT_DETECT: f64 = 0.5;

    /// How many times a spamming node sends each outgoing frame.
    pub const SPAM_FACTOR: usize = 2;

    /// Probability that a muting node drops any given outgoing copy.
    pub const MUTE_PROBABILITY: f64 = 0.5;

    /// Creates a byzantine model with detection at
    /// [`ByzantineModel::DEFAULT_DETECT`] and quarantine disabled; panics if
    /// the fraction is outside `[0, 1]`, the behavior set is empty or
    /// contains unknown bits, or the window is empty or ends past
    /// [`MAX_ROUNDS`].
    pub fn new(
        fraction: f64,
        behaviors: u8,
        first_round: usize,
        last_round: usize,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "byzantine fraction must be in [0, 1]"
        );
        assert!(
            behaviors != 0 && behaviors & !Self::ALL_BEHAVIORS == 0,
            "byzantine behaviors must be a non-empty subset of lie|equivocate|mute|spam"
        );
        assert!(
            first_round >= 1 && first_round <= last_round,
            "byzantine window must satisfy 1 <= first_round <= last_round"
        );
        assert!(
            last_round as u64 <= MAX_ROUNDS,
            "byzantine window must end by round {MAX_ROUNDS}"
        );
        ByzantineModel {
            fraction,
            behaviors,
            first_round,
            last_round,
            detect: Self::DEFAULT_DETECT,
            quarantine: 0,
            seed,
        }
    }

    /// Builder: sets the per-round accusation-event probability; panics if
    /// it is outside `[0, 1]`.
    pub fn with_detect(mut self, detect: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&detect),
            "byzantine detect probability must be in [0, 1]"
        );
        self.detect = detect;
        self
    }

    /// Builder: sets the quarantine accusation threshold (`0` disables).
    pub fn with_quarantine(mut self, threshold: u32) -> Self {
        self.quarantine = threshold;
        self
    }

    /// The per-node selection hash (also the base for behavior assignment
    /// and tamper salts).
    #[inline]
    fn node_pick(&self, node: NodeId) -> u64 {
        splitmix(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(node.0) ^ 0x1BAD_B002_D15E_A5E5),
        )
    }

    /// Whether `node` is byzantine at all (behavior-independent).
    #[inline]
    pub fn is_byzantine(&self, node: NodeId) -> bool {
        self.fraction > 0.0 && unit(self.node_pick(node)) < self.fraction
    }

    /// The behavior `node` performs, or `None` if it is honest. Each
    /// byzantine node is hashed onto exactly one enabled behavior.
    pub fn behavior_of(&self, node: NodeId) -> Option<Behavior> {
        if self.fraction <= 0.0 {
            return None;
        }
        let pick = self.node_pick(node);
        if unit(pick) >= self.fraction {
            return None;
        }
        // The idx-th enabled behavior in bit order: clear the lowest set
        // bit idx times. Per-copy fault decisions call this, so it must not
        // allocate.
        let mut enabled = self.behaviors & Self::ALL_BEHAVIORS;
        let idx = splitmix(pick ^ 0x9216_D5D9_8979_FB1B) % u64::from(enabled.count_ones());
        for _ in 0..idx {
            enabled &= enabled - 1;
        }
        Some(Behavior::ALL[enabled.trailing_zeros() as usize])
    }

    /// Whether the misbehavior window is active in `round`.
    #[inline]
    pub fn active(&self, round: usize) -> bool {
        round >= self.first_round && round <= self.last_round
    }

    /// The tamper salt for the copy `from → to` in `round`, or `None` when
    /// the sender transmits truthfully. Lie salts depend only on the sender
    /// (all receivers see the same wrong value); equivocation salts depend on
    /// the `(sender, receiver)` pair. Salts are deliberately
    /// **round-independent**: a tampered value re-sent by the sparse
    /// executor's resend path is byte-identical to the dense executor's
    /// re-broadcast, so the modes cannot diverge.
    pub fn tamper_salt(&self, round: usize, from: NodeId, to: NodeId) -> Option<u64> {
        if !self.active(round) {
            return None;
        }
        match self.behavior_of(from)? {
            Behavior::Lie => Some(splitmix(self.node_pick(from) ^ 0x452A_F09B_5AAC_5D9E)),
            Behavior::Equivocate => Some(splitmix(
                self.node_pick(from)
                    ^ u64::from(to.0).wrapping_mul(0xD6E8_FEB8_6659_FD93)
                    ^ 0x6A09_E667_F3BC_C909,
            )),
            Behavior::Mute | Behavior::Spam => None,
        }
    }

    /// Whether the muting sender `from` drops its copy to `to` in `round`.
    pub fn mutes(&self, round: usize, from: NodeId, to: NodeId) -> bool {
        if !self.active(round) || self.behavior_of(from) != Some(Behavior::Mute) {
            return false;
        }
        let x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(u64::from(from.0) << 32 | u64::from(to.0))
            ^ 0xA076_1D64_78BD_642F;
        unit(splitmix(x)) < Self::MUTE_PROBABILITY
    }

    /// How many times `from` sends each outgoing frame in `round` (1 =
    /// honest; [`ByzantineModel::SPAM_FACTOR`] for an active spammer).
    pub fn spam_factor(&self, round: usize, from: NodeId) -> usize {
        if self.active(round) && self.behavior_of(from) == Some(Behavior::Spam) {
            Self::SPAM_FACTOR
        } else {
            1
        }
    }

    /// Whether `node` triggers an accusation event in `round`. Events fire
    /// only for byzantine nodes inside the active window, by a pure hash of
    /// `(seed, round, node)` — never of observed traffic — so the schedule
    /// is identical in every execution mode. Events keep firing after a node
    /// is quarantined (the counter reports detections, not deliveries).
    pub fn accusation_event(&self, round: usize, node: NodeId) -> bool {
        if !self.active(round) || self.detect <= 0.0 || !self.is_byzantine(node) {
            return false;
        }
        let x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round as u64)
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(u64::from(node.0))
            ^ 0xACC0_5EDD_EC0D_EDAD;
        unit(splitmix(x)) < self.detect
    }

    /// The first round in which `node` is quarantined (`None` = never): one
    /// round **after** its `quarantine`-th accusation event, so the round
    /// that produced the decisive accusation still delivers. O(window): the
    /// executor looks it up in the table [`FaultPlan::quarantine_rounds`]
    /// builds once per run.
    pub fn quarantine_round(&self, node: NodeId) -> Option<usize> {
        if self.quarantine == 0 || !self.is_byzantine(node) {
            return None;
        }
        let mut events = 0u32;
        for round in self.first_round..=self.last_round {
            if self.accusation_event(round, node) {
                events += 1;
                if events >= self.quarantine {
                    return Some(round + 1);
                }
            }
        }
        None
    }

    /// Whether `node` is quarantined (its outgoing traffic silenced) as of
    /// `round`. Quarantine is permanent once entered. O(window), like
    /// [`ByzantineModel::quarantine_round`].
    pub fn quarantined(&self, round: usize, node: NodeId) -> bool {
        self.quarantine != 0 && self.quarantine_round(node).is_some_and(|r| r <= round)
    }
}

/// A composition of fault components applied to one run (see the module
/// docs). `FaultPlan::default()` is the empty, fault-free plan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// i.i.d. per-message loss.
    pub loss: Option<LossModel>,
    /// Periodic per-link outage windows.
    pub burst: Option<BurstLoss>,
    /// Crash-stop node failures.
    pub crash: Option<CrashModel>,
    /// A healing node-set partition.
    pub partition: Option<PartitionModel>,
    /// Byzantine (commission) faults with detection and quarantine.
    pub byzantine: Option<ByzantineModel>,
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan containing only the given i.i.d. loss component.
    pub fn from_loss(model: LossModel) -> Self {
        FaultPlan {
            loss: Some(model),
            ..FaultPlan::default()
        }
    }

    /// Builder: sets the i.i.d. loss component.
    pub fn with_loss(mut self, model: LossModel) -> Self {
        self.loss = Some(model);
        self
    }

    /// Builder: sets the burst-loss component.
    pub fn with_burst(mut self, model: BurstLoss) -> Self {
        self.burst = Some(model);
        self
    }

    /// Builder: sets the crash-stop component.
    pub fn with_crash(mut self, model: CrashModel) -> Self {
        self.crash = Some(model);
        self
    }

    /// Builder: sets the partition component.
    pub fn with_partition(mut self, model: PartitionModel) -> Self {
        self.partition = Some(model);
        self
    }

    /// Builder: sets the byzantine component.
    pub fn with_byzantine(mut self, model: ByzantineModel) -> Self {
        self.byzantine = Some(model);
        self
    }

    /// Whether the plan can never produce any fault. The executor skips all
    /// fault bookkeeping for trivial plans, so an empty (or zero-probability)
    /// plan reproduces fault-free runs bit-for-bit at identical cost.
    pub fn is_trivial(&self) -> bool {
        self.loss.is_none_or(|l| l.probability <= 0.0)
            && self.burst.is_none_or(|b| b.burst_len == 0)
            && self.crash.is_none_or(|c| c.probability <= 0.0)
            && self.partition.is_none_or(|p| p.fraction <= 0.0)
            && self.byzantine.is_none_or(|b| b.fraction <= 0.0)
    }

    /// Whether any link-level drop component (loss, burst, partition, or a
    /// byzantine model that may mute) is present — i.e. whether per-copy
    /// drop decisions must be evaluated at all. A crash-only plan skips the
    /// per-arc hashing entirely.
    pub fn affects_links(&self) -> bool {
        self.loss.is_some_and(|l| l.probability > 0.0)
            || self.burst.is_some_and(|b| b.burst_len > 0)
            || self.partition.is_some_and(|p| p.fraction > 0.0)
            || self
                .byzantine
                .is_some_and(|b| b.fraction > 0.0 && b.behaviors & Behavior::Mute.bit() != 0)
    }

    /// Whether `node` has crash-stopped as of `round`.
    #[inline]
    pub fn crashed(&self, round: usize, node: NodeId) -> bool {
        self.crash.is_some_and(|c| c.crashed(round, node))
    }

    /// Whether the message copy `index` from `from` to `to` in `round` is
    /// dropped by any link-level component.
    #[inline]
    pub fn drops(&self, round: usize, from: NodeId, to: NodeId, index: usize) -> bool {
        self.loss.is_some_and(|l| l.drops(round, from, to, index))
            || self.burst.is_some_and(|b| b.drops(round, from, to))
            || self.partition.is_some_and(|p| p.severs(round, from, to))
            || self.byzantine.is_some_and(|b| b.mutes(round, from, to))
    }

    /// Like [`FaultPlan::drops`], but attributes the drop to exactly one
    /// component for the per-component counters. Returns `None` when the
    /// copy is delivered.
    ///
    /// **Attribution precedence (pinned by a unit test — counter totals
    /// depend on it):** crash > partition > burst > loss > byzantine-mute.
    /// Crash precedence is *structural* rather than checked here: a crashed
    /// sender returns [`crate::Outgoing::Silent`] before any per-copy drop
    /// decision is evaluated, so none of its copies ever reach this method.
    /// Among the link-level components the widest-scope cause wins: a
    /// severed partition link attributes every crossing copy to the
    /// partition even if i.i.d. loss would also have dropped it, a dark
    /// burst window beats per-copy loss, and byzantine muting — the only
    /// sender-chosen drop — is attributed only when no network-level
    /// component already claimed the copy.
    #[inline]
    pub fn drop_cause(
        &self,
        round: usize,
        from: NodeId,
        to: NodeId,
        index: usize,
    ) -> Option<DropCause> {
        if self.partition.is_some_and(|p| p.severs(round, from, to)) {
            Some(DropCause::Partition)
        } else if self.burst.is_some_and(|b| b.drops(round, from, to)) {
            Some(DropCause::Burst)
        } else if self.loss.is_some_and(|l| l.drops(round, from, to, index)) {
            Some(DropCause::Loss)
        } else if self.byzantine.is_some_and(|b| b.mutes(round, from, to)) {
            Some(DropCause::ByzantineMute)
        } else {
            None
        }
    }

    /// The tamper salt for the copy `from → to` in `round`, or `None` when
    /// the sender transmits truthfully (no byzantine component, inactive
    /// window, or an honest / non-tampering sender).
    #[inline]
    pub fn tamper_salt(&self, round: usize, from: NodeId, to: NodeId) -> Option<u64> {
        self.byzantine.and_then(|b| b.tamper_salt(round, from, to))
    }

    /// How many times `from` sends each outgoing frame in `round` (1 unless
    /// an active byzantine spammer).
    #[inline]
    pub fn spam_factor(&self, round: usize, from: NodeId) -> usize {
        self.byzantine.map_or(1, |b| b.spam_factor(round, from))
    }

    /// The sorted crash rounds of all nodes in `0..n` that ever crash (one
    /// entry per crashing node). The executor uses this to report the
    /// cumulative crashed-node count per round in O(log n).
    pub fn crash_schedule(&self, n: usize) -> Vec<u32> {
        let Some(crash) = self.crash else {
            return Vec::new();
        };
        let mut rounds: Vec<u32> = (0..n)
            .filter_map(|v| crash.crash_round(NodeId::new(v)).map(|r| r as u32))
            .collect();
        rounds.sort_unstable();
        rounds
    }

    /// The sorted rounds of every accusation event across all nodes in
    /// `0..n` (one entry per event, so a node accused in several rounds
    /// appears several times). The executor reports the cumulative
    /// accusation count per round in O(log total) from this.
    pub fn byz_accusation_schedule(&self, n: usize) -> Vec<u32> {
        let Some(byz) = self.byzantine else {
            return Vec::new();
        };
        if byz.fraction <= 0.0 || byz.detect <= 0.0 {
            return Vec::new();
        }
        let mut rounds: Vec<u32> = Vec::new();
        for v in 0..n {
            let node = NodeId::new(v);
            if !byz.is_byzantine(node) {
                continue;
            }
            for round in byz.first_round..=byz.last_round {
                if byz.accusation_event(round, node) {
                    rounds.push(round as u32);
                }
            }
        }
        rounds.sort_unstable();
        rounds
    }

    /// Each node's quarantine-entry round ([`ByzantineModel::quarantine_round`])
    /// for the nodes `0..n`, with `u32::MAX` for a node never quarantined;
    /// empty when the plan quarantines no one. One walk of the byzantine
    /// window per node, so the executor builds it once per run and looks a
    /// sender up in O(1).
    pub fn quarantine_rounds(&self, n: usize) -> Vec<u32> {
        let Some(byz) = self.byzantine.filter(|b| b.quarantine != 0) else {
            return Vec::new();
        };
        (0..n)
            .map(|v| {
                byz.quarantine_round(NodeId::new(v))
                    .map_or(u32::MAX, |r| r as u32)
            })
            .collect()
    }
}

/// Shared parsing of the fault-injection command-line specs (`--loss P`,
/// `--burst PERIOD:LEN`, `--crash P:FIRST:LAST`, `--partition F:FIRST:LAST`,
/// `--byzantine F:BEHAVIORS:FIRST:LAST` with `--quarantine THRESHOLD`,
/// seeded by `--fault-seed S`). Both front ends — the `exp_*` binaries'
/// `ExpArgs` and the `dkc` CLI — build their plans through
/// [`spec::plan_from_flags`], so the two can never drift apart on grammar,
/// validation, or the per-component seed derivation.
pub mod spec {
    use super::*;

    /// Default `--fault-seed` when the flag is absent.
    pub const DEFAULT_SEED: u64 = 0xFA17;

    fn probability(flag: &str, value: &str) -> Result<f64, String> {
        let p: f64 = value
            .parse()
            .map_err(|_| format!("--{flag} expects a probability, got {value:?}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--{flag} must be in [0, 1] (got {p})"));
        }
        Ok(p)
    }

    /// Splits `p:first:last` — a probability/fraction plus a round
    /// [`window`].
    fn windowed(flag: &str, value: &str, min_first: usize) -> Result<(f64, usize, usize), String> {
        let parts: Vec<&str> = value.split(':').collect();
        let [p, first, last] = parts.as_slice() else {
            return Err(format!(
                "--{flag} expects <p>:<first-round>:<last-round>, got {value:?}"
            ));
        };
        let p = probability(flag, p)?;
        let (first, last) = window(flag, first, last, min_first)?;
        Ok((p, first, last))
    }

    /// Parses a 1-based inclusive round window `first..=last` that starts
    /// no earlier than `min_first` and ends by [`MAX_ROUNDS`].
    fn window(
        flag: &str,
        first: &str,
        last: &str,
        min_first: usize,
    ) -> Result<(usize, usize), String> {
        let parse_round = |what: &str, s: &str| -> Result<usize, String> {
            s.parse()
                .map_err(|_| format!("--{flag}: {what} round must be an integer, got {s:?}"))
        };
        let first = parse_round("first", first)?;
        let last = parse_round("last", last)?;
        if first < min_first || first > last {
            return Err(format!(
                "--{flag} window must satisfy {min_first} <= first <= last \
                 (got {first}..={last})"
            ));
        }
        if last as u64 > MAX_ROUNDS {
            return Err(format!(
                "--{flag} window must end by round {MAX_ROUNDS} (got last round {last})"
            ));
        }
        Ok((first, last))
    }

    /// Parses the `--byzantine` behavior list: `+`-separated names from
    /// lie/equivocate/mute/spam, or `all`.
    fn behaviors(value: &str) -> Result<u8, String> {
        if value == "all" {
            return Ok(ByzantineModel::ALL_BEHAVIORS);
        }
        let mut bits = 0u8;
        for name in value.split('+') {
            let b = Behavior::from_name(name).ok_or_else(|| {
                format!(
                    "--byzantine: unknown behavior name {name:?} \
                     (expected lie, equivocate, mute, spam, or all)"
                )
            })?;
            bits |= b.bit();
        }
        Ok(bits)
    }

    /// Builds a [`FaultPlan`] from the raw flag values (`None` = flag
    /// absent), validating every component so a malformed spec yields a CLI
    /// error instead of a library panic. Crash and byzantine windows must
    /// start at round 2 or later: a node crashed (or lying) in round 1 never
    /// executes (or corrupts) its initialization step, freezing protocol
    /// state at its uninitialized value (e.g. a surviving number of +∞).
    /// Every window must end by round [`MAX_ROUNDS`].
    pub fn plan_from_flags(
        loss: Option<&str>,
        burst: Option<&str>,
        crash: Option<&str>,
        partition: Option<&str>,
        byzantine: Option<&str>,
        quarantine: Option<&str>,
        seed: u64,
    ) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        if let Some(v) = loss {
            plan = plan.with_loss(LossModel::new(probability("loss", v)?, seed));
        }
        if let Some(v) = burst {
            let (period, len) = v
                .split_once(':')
                .ok_or_else(|| format!("--burst expects <period>:<len>, got {v:?}"))?;
            let period: usize = period
                .parse()
                .map_err(|_| format!("--burst period must be an integer, got {period:?}"))?;
            let len: usize = len
                .parse()
                .map_err(|_| format!("--burst length must be an integer, got {len:?}"))?;
            if period < 1 || len > period {
                return Err(format!(
                    "--burst requires 1 <= period and len <= period (got {period}:{len})"
                ));
            }
            plan = plan.with_burst(BurstLoss::new(period, len, seed ^ 0xB0));
        }
        if let Some(v) = crash {
            let (p, first, last) = windowed("crash", v, 2)?;
            plan = plan.with_crash(CrashModel::new(p, first, last, seed ^ 0xC0));
        }
        if let Some(v) = partition {
            let (f, first, last) = windowed("partition", v, 1)?;
            plan = plan.with_partition(PartitionModel::new(f, first, last, seed ^ 0xD0));
        }
        if let Some(v) = byzantine {
            let parts: Vec<&str> = v.split(':').collect();
            let [f, names, first, last] = parts.as_slice() else {
                return Err(format!(
                    "--byzantine expects <fraction>:<behaviors>:<first-round>:<last-round>, \
                     got {v:?}"
                ));
            };
            let f = probability("byzantine", f)?;
            let bits = behaviors(names)?;
            // Like crashes, misbehavior may not start before round 2: a node
            // lying during round 1 corrupts its neighbours' initialization.
            let (first, last) = window("byzantine", first, last, 2)?;
            let mut model = ByzantineModel::new(f, bits, first, last, seed ^ 0xE0);
            if let Some(q) = quarantine {
                let threshold: u32 = q.parse().map_err(|_| {
                    format!("--quarantine expects an accusation threshold, got {q:?}")
                })?;
                model = model.with_quarantine(threshold);
            }
            plan = plan.with_byzantine(model);
        } else if quarantine.is_some() {
            return Err("--quarantine requires --byzantine".to_string());
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "byzantine window must end by round 65536")]
    fn windows_past_max_rounds_panic_at_construction() {
        ByzantineModel::new(
            0.5,
            ByzantineModel::ALL_BEHAVIORS,
            2,
            MAX_ROUNDS as usize + 1,
            1,
        );
    }

    #[test]
    fn extreme_probabilities() {
        let never = LossModel::new(0.0, 1);
        let always = LossModel::new(1.0, 1);
        for r in 0..5 {
            assert!(!never.drops(r, NodeId(1), NodeId(2), 0));
            assert!(always.drops(r, NodeId(1), NodeId(2), 0));
        }
    }

    #[test]
    fn drop_rate_is_close_to_probability() {
        let model = LossModel::new(0.3, 42);
        let mut dropped = 0usize;
        let total = 20_000usize;
        for i in 0..total {
            if model.drops(
                i % 17,
                NodeId((i % 251) as u32),
                NodeId((i % 127) as u32),
                0,
            ) {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed drop rate {rate}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = LossModel::new(0.5, 7);
        let b = LossModel::new(0.5, 7);
        let c = LossModel::new(0.5, 8);
        let mut differs = false;
        for r in 0..50 {
            assert_eq!(
                a.drops(r, NodeId(3), NodeId(9), 0),
                b.drops(r, NodeId(3), NodeId(9), 0)
            );
            if a.drops(r, NodeId(3), NodeId(9), 0) != c.drops(r, NodeId(3), NodeId(9), 0) {
                differs = true;
            }
        }
        assert!(differs, "different seeds should give different patterns");
    }

    /// Pins the index-0 hash to the exact historical `(round, from, to)` drop
    /// pattern (values captured from the pre-`FaultPlan` implementation), so
    /// committed loss baselines stay bit-for-bit valid.
    #[test]
    fn index_zero_is_bit_compatible_with_the_historical_hash() {
        let expected = [
            (0.5, 7u64, 0usize, 3u32, 9u32, true),
            (0.5, 7, 1, 3, 9, true),
            (0.5, 7, 2, 3, 9, false),
            (0.5, 7, 3, 3, 9, false),
            (0.3, 42, 5, 17, 4, false),
            (0.3, 42, 6, 17, 4, false),
            (0.9, 1, 1, 0, 1, true),
            (0.1, 123, 10, 250, 126, false),
            (0.5, 99, 1, 0, 5, true),
            (0.5, 99, 1, 5, 0, false),
            (0.5, 2024, 3, 12, 7, false),
            (0.5, 2024, 4, 12, 7, false),
        ];
        for (p, seed, round, from, to, want) in expected {
            assert_eq!(
                LossModel::new(p, seed).drops(round, NodeId(from), NodeId(to), 0),
                want,
                "p={p} seed={seed} round={round} {from}->{to}"
            );
        }
    }

    /// Regression (the correlated-drop bug): two distinct messages on the
    /// same link in the same round must get independent drop decisions.
    #[test]
    fn message_index_decorrelates_same_link_messages() {
        let model = LossModel::new(0.5, 11);
        let mut differing = 0usize;
        let mut agreeing = 0usize;
        for r in 0..200 {
            let a = model.drops(r, NodeId(4), NodeId(8), 0);
            let b = model.drops(r, NodeId(4), NodeId(8), 1);
            if a != b {
                differing += 1;
            } else {
                agreeing += 1;
            }
        }
        assert!(
            differing > 50 && agreeing > 50,
            "indices should be ~independent (differ {differing}, agree {agreeing})"
        );
    }

    #[test]
    #[should_panic]
    fn invalid_probability_rejected() {
        let _ = LossModel::new(1.5, 0);
    }

    #[test]
    fn burst_windows_are_periodic_and_symmetric() {
        let burst = BurstLoss::new(8, 3, 5);
        let (a, b) = (NodeId(2), NodeId(17));
        for round in 0..40 {
            assert_eq!(
                burst.drops(round, a, b),
                burst.drops(round, b, a),
                "burst outages must be symmetric (round {round})"
            );
            assert_eq!(
                burst.drops(round, a, b),
                burst.drops(round + 8, a, b),
                "burst outages must be periodic (round {round})"
            );
        }
        // Exactly burst_len dark rounds per period.
        let dark = (0..8).filter(|&r| burst.drops(r, a, b)).count();
        assert_eq!(dark, 3);
        // Different links get different phases somewhere.
        let phases: std::collections::HashSet<usize> = (0..50u32)
            .map(|v| burst.phase(NodeId(v), NodeId(v + 1)))
            .collect();
        assert!(phases.len() > 1, "per-link phases should be desynchronized");
    }

    #[test]
    fn burst_extremes() {
        let never = BurstLoss::new(4, 0, 1);
        let always = BurstLoss::new(4, 4, 1);
        for r in 0..12 {
            assert!(!never.drops(r, NodeId(0), NodeId(1)));
            assert!(always.drops(r, NodeId(0), NodeId(1)));
        }
    }

    #[test]
    #[should_panic]
    fn burst_length_cannot_exceed_period() {
        let _ = BurstLoss::new(4, 5, 0);
    }

    #[test]
    fn crash_rounds_stay_in_window_and_hit_the_rate() {
        let crash = CrashModel::new(0.3, 5, 12, 77);
        let mut crashed = 0usize;
        for v in 0..10_000u32 {
            if let Some(r) = crash.crash_round(NodeId(v)) {
                crashed += 1;
                assert!((5..=12).contains(&r), "crash round {r} outside window");
            }
        }
        let rate = crashed as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed crash rate {rate}");
        // crashed() is monotone: once down, forever down.
        for v in 0..100u32 {
            let node = NodeId(v);
            if let Some(r) = crash.crash_round(node) {
                assert!(!crash.crashed(r - 1, node));
                assert!(crash.crashed(r, node));
                assert!(crash.crashed(r + 100, node));
            } else {
                assert!(!crash.crashed(1_000_000, node));
            }
        }
    }

    #[test]
    fn partition_severs_only_crossing_links_inside_the_window() {
        let part = PartitionModel::new(0.4, 3, 6, 9);
        let mut minority = 0usize;
        for v in 0..10_000u32 {
            if part.minority_side(NodeId(v)) {
                minority += 1;
            }
        }
        let rate = minority as f64 / 10_000.0;
        assert!(
            (rate - 0.4).abs() < 0.03,
            "observed minority fraction {rate}"
        );
        // Find one crossing and one same-side pair.
        let a = NodeId(0);
        let cross = (1..100u32)
            .map(NodeId)
            .find(|&v| part.minority_side(v) != part.minority_side(a))
            .unwrap();
        let same = (1..100u32)
            .map(NodeId)
            .find(|&v| part.minority_side(v) == part.minority_side(a))
            .unwrap();
        for round in 0..10 {
            let active = (3..=6).contains(&round);
            assert_eq!(part.severs(round, a, cross), active, "round {round}");
            assert_eq!(part.severs(round, cross, a), active, "symmetric");
            assert!(!part.severs(round, a, same));
        }
    }

    #[test]
    fn plan_composition_and_triviality() {
        assert!(FaultPlan::none().is_trivial());
        assert!(!FaultPlan::none().affects_links());
        assert!(FaultPlan::from_loss(LossModel::new(0.0, 1)).is_trivial());
        assert!(FaultPlan::none()
            .with_burst(BurstLoss::new(4, 0, 1))
            .is_trivial());
        assert!(FaultPlan::none()
            .with_crash(CrashModel::new(0.0, 1, 5, 1))
            .is_trivial());
        assert!(FaultPlan::none()
            .with_partition(PartitionModel::new(0.0, 1, 5, 1))
            .is_trivial());
        assert!(FaultPlan::none()
            .with_byzantine(ByzantineModel::new(0.0, Behavior::Lie.bit(), 2, 5, 1))
            .is_trivial());

        let plan = FaultPlan::from_loss(LossModel::new(0.5, 7))
            .with_burst(BurstLoss::new(6, 2, 8))
            .with_crash(CrashModel::new(0.2, 2, 9, 3))
            .with_partition(PartitionModel::new(0.3, 4, 7, 4));
        assert!(!plan.is_trivial());
        assert!(plan.affects_links());
        let crash_only = FaultPlan::none().with_crash(CrashModel::new(0.5, 1, 3, 1));
        assert!(!crash_only.is_trivial());
        assert!(!crash_only.affects_links());
        // A byzantine component only affects links when it may mute.
        let lie_only = FaultPlan::none().with_byzantine(ByzantineModel::new(
            0.5,
            Behavior::Lie.bit(),
            2,
            5,
            1,
        ));
        assert!(!lie_only.is_trivial());
        assert!(!lie_only.affects_links());
        let mute_only = FaultPlan::none().with_byzantine(ByzantineModel::new(
            0.5,
            Behavior::Mute.bit(),
            2,
            5,
            1,
        ));
        assert!(mute_only.affects_links());

        // drop_cause attribution matches drops.
        for round in 0..12 {
            for v in 0..20u32 {
                let (from, to) = (NodeId(v), NodeId(v + 1));
                for idx in 0..2 {
                    let cause = plan.drop_cause(round, from, to, idx);
                    assert_eq!(cause.is_some(), plan.drops(round, from, to, idx));
                }
            }
        }
    }

    /// Pins the drop-attribution precedence (crash > partition > burst >
    /// loss > byzantine-mute; crash never reaches `drop_cause` because a
    /// crashed sender is structurally silent). The per-component counter
    /// totals in committed baselines depend on this order staying fixed.
    #[test]
    fn drop_cause_precedence_is_partition_then_burst_then_loss_then_mute() {
        let plan = FaultPlan::from_loss(LossModel::new(0.6, 7))
            .with_burst(BurstLoss::new(5, 2, 8))
            .with_partition(PartitionModel::new(0.4, 2, 8, 4))
            .with_byzantine(
                ByzantineModel::new(0.6, Behavior::Mute.bit(), 2, 10, 9).with_detect(0.0),
            );
        let (mut p_hits, mut b_hits, mut l_hits, mut m_hits) = (0, 0, 0, 0);
        for round in 0..12 {
            for v in 0..40u32 {
                let (from, to) = (NodeId(v), NodeId((v + 1) % 40));
                let cause = plan.drop_cause(round, from, to, 0);
                let part = plan.partition.unwrap().severs(round, from, to);
                let burst = plan.burst.unwrap().drops(round, from, to);
                let loss = plan.loss.unwrap().drops(round, from, to, 0);
                let mute = plan.byzantine.unwrap().mutes(round, from, to);
                let want = if part {
                    Some(DropCause::Partition)
                } else if burst {
                    Some(DropCause::Burst)
                } else if loss {
                    Some(DropCause::Loss)
                } else if mute {
                    Some(DropCause::ByzantineMute)
                } else {
                    None
                };
                assert_eq!(cause, want, "round {round} {from:?}->{to:?}");
                match cause {
                    Some(DropCause::Partition) => p_hits += 1,
                    Some(DropCause::Burst) => b_hits += 1,
                    Some(DropCause::Loss) => l_hits += 1,
                    Some(DropCause::ByzantineMute) => m_hits += 1,
                    None => {}
                }
            }
        }
        // The plan is dense enough that every precedence branch is exercised.
        assert!(
            p_hits > 0 && b_hits > 0 && l_hits > 0 && m_hits > 0,
            "precedence branches not all hit ({p_hits}/{b_hits}/{l_hits}/{m_hits})"
        );
    }

    #[test]
    fn byzantine_behavior_assignment_is_deterministic_and_hits_the_rate() {
        let byz = ByzantineModel::new(0.3, ByzantineModel::ALL_BEHAVIORS, 2, 9, 21);
        let mut byzantine = 0usize;
        let mut per_behavior = [0usize; 4];
        for v in 0..10_000u32 {
            let node = NodeId(v);
            assert_eq!(byz.behavior_of(node).is_some(), byz.is_byzantine(node));
            if let Some(b) = byz.behavior_of(node) {
                byzantine += 1;
                per_behavior[b as usize] += 1;
            }
        }
        let rate = byzantine as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed byzantine rate {rate}");
        // Each behavior gets a roughly equal share of the byzantine nodes.
        for (i, &count) in per_behavior.iter().enumerate() {
            let share = count as f64 / byzantine as f64;
            assert!(
                (share - 0.25).abs() < 0.05,
                "behavior {i} share {share} far from uniform"
            );
        }
        // Restricting the enabled set restricts the assignment.
        let lie_spam =
            ByzantineModel::new(0.3, Behavior::Lie.bit() | Behavior::Spam.bit(), 2, 9, 21);
        for v in 0..1_000u32 {
            if let Some(b) = lie_spam.behavior_of(NodeId(v)) {
                assert!(matches!(b, Behavior::Lie | Behavior::Spam));
            }
        }
    }

    #[test]
    fn tamper_salts_are_round_independent_and_receiver_scoped() {
        let all = ByzantineModel::new(0.6, ByzantineModel::ALL_BEHAVIORS, 2, 9, 5);
        let liar = (0..200u32)
            .map(NodeId)
            .find(|&v| all.behavior_of(v) == Some(Behavior::Lie))
            .expect("some liar");
        let equiv = (0..200u32)
            .map(NodeId)
            .find(|&v| all.behavior_of(v) == Some(Behavior::Equivocate))
            .expect("some equivocator");
        // Lie: same salt for every receiver and every active round.
        let s = all.tamper_salt(2, liar, NodeId(1_000)).unwrap();
        for round in 2..=9 {
            for to in 0..10u32 {
                assert_eq!(all.tamper_salt(round, liar, NodeId(to)), Some(s));
            }
        }
        // Equivocate: per-receiver salts, still round-independent.
        let s0 = all.tamper_salt(2, equiv, NodeId(0)).unwrap();
        let s1 = all.tamper_salt(2, equiv, NodeId(1)).unwrap();
        assert_ne!(s0, s1, "equivocation must differ per receiver");
        assert_eq!(all.tamper_salt(7, equiv, NodeId(0)), Some(s0));
        // Outside the window everyone is truthful.
        assert_eq!(all.tamper_salt(1, liar, NodeId(0)), None);
        assert_eq!(all.tamper_salt(10, equiv, NodeId(0)), None);
        // Mute and spam nodes never tamper.
        for v in 0..200u32 {
            if matches!(
                all.behavior_of(NodeId(v)),
                Some(Behavior::Mute) | Some(Behavior::Spam) | None
            ) {
                assert_eq!(all.tamper_salt(3, NodeId(v), NodeId(0)), None);
            }
        }
    }

    #[test]
    fn mute_and_spam_respect_behavior_and_window() {
        let all = ByzantineModel::new(0.6, ByzantineModel::ALL_BEHAVIORS, 2, 9, 5);
        let muter = (0..200u32)
            .map(NodeId)
            .find(|&v| all.behavior_of(v) == Some(Behavior::Mute))
            .expect("some muter");
        let spammer = (0..200u32)
            .map(NodeId)
            .find(|&v| all.behavior_of(v) == Some(Behavior::Spam))
            .expect("some spammer");
        // Mute drops roughly MUTE_PROBABILITY of copies inside the window.
        let mut muted = 0usize;
        let mut total = 0usize;
        for round in 2..=9 {
            for to in 0..500u32 {
                total += 1;
                if all.mutes(round, muter, NodeId(to)) {
                    muted += 1;
                }
            }
        }
        let rate = muted as f64 / total as f64;
        assert!((rate - 0.5).abs() < 0.05, "observed mute rate {rate}");
        // Outside the window nothing is muted; non-muters never mute.
        assert!((0..500u32).all(|to| !all.mutes(1, muter, NodeId(to))));
        assert!((0..500u32).all(|to| !all.mutes(10, muter, NodeId(to))));
        assert!((2..=9).all(|r| !all.mutes(r, spammer, NodeId(0))));
        // Spam doubles frames only for active spammers.
        assert_eq!(all.spam_factor(2, spammer), ByzantineModel::SPAM_FACTOR);
        assert_eq!(all.spam_factor(1, spammer), 1);
        assert_eq!(all.spam_factor(10, spammer), 1);
        assert_eq!(all.spam_factor(2, muter), 1);
    }

    /// On random plans, the executor's quarantine table holds exactly each
    /// node's `quarantine_round`.
    #[test]
    fn quarantine_table_matches_quarantine_round() {
        let n = 200;
        let mut quarantined = 0;
        for seed in 0..32u64 {
            let r = |salt: u64| splitmix(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
            let first = 1 + (r(1) % 30) as usize;
            let last = first + (r(2) % 60) as usize;
            let behaviors = 1 + (r(3) % 15) as u8;
            let byz = ByzantineModel::new(unit(r(4)), behaviors, first, last, r(5))
                .with_detect(unit(r(6)))
                .with_quarantine((r(7) % 5) as u32);
            let table = FaultPlan::none().with_byzantine(byz).quarantine_rounds(n);
            if byz.quarantine == 0 {
                assert!(table.is_empty(), "seed {seed}");
                continue;
            }
            assert_eq!(table.len(), n);
            quarantined += table.iter().filter(|&&q| q != u32::MAX).count();
            for (v, &q) in table.iter().enumerate() {
                let expected = byz.quarantine_round(NodeId::new(v));
                assert_eq!(
                    q,
                    expected.map_or(u32::MAX, |r| r as u32),
                    "seed {seed} node {v}"
                );
            }
        }
        assert!(quarantined > 0, "the plans quarantined no one");
    }

    #[test]
    fn accusations_and_quarantine_follow_the_hash_schedule() {
        let byz = ByzantineModel::new(0.4, ByzantineModel::ALL_BEHAVIORS, 2, 20, 31)
            .with_detect(0.5)
            .with_quarantine(3);
        let plan = FaultPlan::none().with_byzantine(byz);
        let n = 300;
        // Honest nodes are never accused or quarantined.
        for v in 0..n {
            let node = NodeId::new(v);
            if !byz.is_byzantine(node) {
                assert!((0..25).all(|r| !byz.accusation_event(r, node)));
                assert_eq!(byz.quarantine_round(node), None);
            }
        }
        // Quarantine fires one round after the threshold-th event and is
        // permanent; quarantined nodes are a subset of byzantine nodes.
        let mut some_quarantined = false;
        for v in 0..n {
            let node = NodeId::new(v);
            if let Some(q) = byz.quarantine_round(node) {
                some_quarantined = true;
                assert!(byz.is_byzantine(node));
                let events_before =
                    (2..q).filter(|&r| byz.accusation_event(r, node)).count() as u32;
                assert_eq!(events_before, 3, "node {v} quarantined at {q}");
                assert!(!byz.quarantined(q - 1, node));
                assert!(byz.quarantined(q, node));
                assert!(byz.quarantined(q + 100, node));
            }
        }
        assert!(some_quarantined, "expected some quarantines at these rates");
        // The schedules match the per-node queries.
        let acc = plan.byz_accusation_schedule(n);
        assert!(acc.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let quar = plan.quarantine_rounds(n);
        assert_eq!(quar.len(), n);
        for round in 0..25u32 {
            let acc_by_schedule = acc.partition_point(|&r| r <= round);
            let acc_by_query: usize = (0..n)
                .map(|v| {
                    (0..=round as usize)
                        .filter(|&r| byz.accusation_event(r, NodeId::new(v)))
                        .count()
                })
                .sum();
            assert_eq!(acc_by_schedule, acc_by_query, "accusations @ {round}");
            let q_by_schedule = quar.iter().filter(|&&r| r <= round).count();
            let q_by_query = (0..n)
                .filter(|&v| byz.quarantined(round as usize, NodeId::new(v)))
                .count();
            assert_eq!(q_by_schedule, q_by_query, "quarantined @ {round}");
        }
        // Threshold 0 disables quarantine but keeps the accusation schedule.
        let no_quar = FaultPlan::none().with_byzantine(byz.with_quarantine(0));
        assert!(no_quar.quarantine_rounds(n).is_empty());
        assert_eq!(no_quar.byz_accusation_schedule(n), acc);
    }

    #[test]
    fn spec_builds_a_plan_with_derived_seeds() {
        let plan = spec::plan_from_flags(
            Some("0.25"),
            Some("6:2"),
            Some("0.1:2:9"),
            Some("0.3:4:8"),
            Some("0.2:lie+mute:2:9"),
            Some("3"),
            77,
        )
        .unwrap();
        assert_eq!(plan.loss, Some(LossModel::new(0.25, 77)));
        assert_eq!(plan.burst, Some(BurstLoss::new(6, 2, 77 ^ 0xB0)));
        assert_eq!(plan.crash, Some(CrashModel::new(0.1, 2, 9, 77 ^ 0xC0)));
        assert_eq!(
            plan.partition,
            Some(PartitionModel::new(0.3, 4, 8, 77 ^ 0xD0))
        );
        assert_eq!(
            plan.byzantine,
            Some(
                ByzantineModel::new(
                    0.2,
                    Behavior::Lie.bit() | Behavior::Mute.bit(),
                    2,
                    9,
                    77 ^ 0xE0
                )
                .with_quarantine(3)
            )
        );
        // `all` enables every behavior; quarantine defaults to disabled.
        let all = spec::plan_from_flags(None, None, None, None, Some("0.1:all:2:5"), None, 1)
            .unwrap()
            .byzantine
            .unwrap();
        assert_eq!(all.behaviors, ByzantineModel::ALL_BEHAVIORS);
        assert_eq!(all.quarantine, 0);
        assert_eq!(all.detect, ByzantineModel::DEFAULT_DETECT);
        // Absent flags build the trivial plan.
        assert!(
            spec::plan_from_flags(None, None, None, None, None, None, 77)
                .unwrap()
                .is_trivial()
        );
        // Partitions may start at round 1.
        assert!(spec::plan_from_flags(None, None, None, Some("0.5:1:3"), None, None, 1).is_ok());
    }

    #[test]
    fn spec_rejects_malformed_and_round_one_crashes() {
        let err = |v: Result<FaultPlan, String>| v.unwrap_err();
        let flags = |loss, burst, crash, partition| {
            spec::plan_from_flags(loss, burst, crash, partition, None, None, 1)
        };
        assert!(err(flags(Some("1.5"), None, None, None)).contains("[0, 1]"));
        assert!(err(flags(Some("p"), None, None, None)).contains("expects a probability"));
        assert!(err(flags(None, Some("6"), None, None)).contains("<period>:<len>"));
        assert!(err(flags(None, Some("4:9"), None, None)).contains("len <= period"));
        assert!(err(flags(None, Some("0:0"), None, None)).contains("1 <= period"));
        assert!(
            err(flags(None, None, Some("0.5"), None)).contains("<p>:<first-round>:<last-round>")
        );
        assert!(err(flags(None, None, Some("0.5:6:4"), None)).contains("first <= last"));
        assert!(err(flags(None, None, None, Some("0.5:3:x"))).contains("must be an integer"));
        assert!(err(flags(None, None, None, Some("0.5:0:4"))).contains("1 <= first"));
        // A crash at round 1 would freeze uninitialized protocol state
        // (nodes never run their first step), so the spec surface rejects it
        // even though the library type allows it.
        let err = flags(None, None, Some("0.5:1:4"), None).unwrap_err();
        assert!(err.contains("2 <= first"), "{err}");
    }

    /// Exact-message rejection tests for the `--byzantine` / `--quarantine`
    /// grammar, mirroring the crash-window checks above.
    #[test]
    fn spec_rejects_malformed_byzantine_specs() {
        let byz = |v| spec::plan_from_flags(None, None, None, None, Some(v), None, 1);
        let err = |v| byz(v).unwrap_err();
        // Fraction out of [0, 1] (and non-numeric).
        assert_eq!(
            err("1.5:lie:2:9"),
            "--byzantine must be in [0, 1] (got 1.5)"
        );
        assert_eq!(
            err("x:lie:2:9"),
            "--byzantine expects a probability, got \"x\""
        );
        // Unknown behavior name.
        assert_eq!(
            err("0.2:gossip:2:9"),
            "--byzantine: unknown behavior name \"gossip\" \
             (expected lie, equivocate, mute, spam, or all)"
        );
        assert_eq!(
            err("0.2:lie+flood:2:9"),
            "--byzantine: unknown behavior name \"flood\" \
             (expected lie, equivocate, mute, spam, or all)"
        );
        // Window before round 2 (misbehavior during initialization).
        assert_eq!(
            err("0.2:lie:1:9"),
            "--byzantine window must satisfy 2 <= first <= last (got 1..=9)"
        );
        assert_eq!(
            err("0.2:lie:5:3"),
            "--byzantine window must satisfy 2 <= first <= last (got 5..=3)"
        );
        // Shape and integer errors.
        assert_eq!(
            err("0.2:lie:2"),
            "--byzantine expects <fraction>:<behaviors>:<first-round>:<last-round>, \
             got \"0.2:lie:2\""
        );
        assert_eq!(
            err("0.2:lie:2:x"),
            "--byzantine: last round must be an integer, got \"x\""
        );
        // Quarantine needs a byzantine component and an integer threshold.
        assert_eq!(
            spec::plan_from_flags(None, None, None, None, None, Some("3"), 1).unwrap_err(),
            "--quarantine requires --byzantine"
        );
        assert_eq!(
            spec::plan_from_flags(None, None, None, None, Some("0.2:lie:2:9"), Some("x"), 1)
                .unwrap_err(),
            "--quarantine expects an accusation threshold, got \"x\""
        );
    }

    #[test]
    fn crash_schedule_matches_per_node_queries() {
        let plan = FaultPlan::none().with_crash(CrashModel::new(0.4, 2, 7, 13));
        let n = 200;
        let schedule = plan.crash_schedule(n);
        let expected: usize = (0..n)
            .filter(|&v| plan.crash.unwrap().crash_round(NodeId::new(v)).is_some())
            .count();
        assert_eq!(schedule.len(), expected);
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]), "sorted");
        for round in 0..10u32 {
            let by_schedule = schedule.partition_point(|&r| r <= round);
            let by_query = (0..n)
                .filter(|&v| plan.crashed(round as usize, NodeId::new(v)))
                .count();
            assert_eq!(by_schedule, by_query, "round {round}");
        }
        assert!(FaultPlan::none().crash_schedule(50).is_empty());
    }
}
