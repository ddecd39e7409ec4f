//! Round-by-round message and bit accounting.
//!
//! Every counter is declared once, as a row of the table below: its field
//! name, its doc, its [`Reducer`] over rounds, and — for the counters CI
//! gates — its report key. The [`RoundStats`] struct, its
//! [`RoundStats::merge`], the run totals ([`RunMetrics::totals`]), the
//! checkpoint codec and the benchmark report's counters all derive from it,
//! so adding a counter is one row plus the code that computes it.

use std::time::Duration;

/// How a counter folds over the rounds of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reducer {
    /// The per-round values add up.
    Sum,
    /// The largest per-round value.
    Max,
    /// The value of the last round (the round number and the cumulative,
    /// schedule-driven counters).
    Last,
}

impl Reducer {
    /// Folds the later value `x` into the accumulator `acc`.
    #[inline]
    pub fn fold(self, acc: usize, x: usize) -> usize {
        match self {
            Reducer::Sum => acc + x,
            Reducer::Max => acc.max(x),
            Reducer::Last => x,
        }
    }
}

/// One row of the counter table ([`COUNTERS`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter {
    /// The [`RoundStats`] field name.
    pub name: &'static str,
    /// How the counter folds over rounds.
    pub reducer: Reducer,
    /// The key of the run total in a benchmark report, for the counters CI
    /// gates against the committed baseline; `None` for ungated counters.
    pub report_key: Option<&'static str>,
}

macro_rules! counter_table {
    ($($(#[doc = $doc:literal])+ $field:ident: $reducer:ident $(=> $key:literal)?;)+) => {
        /// Statistics for one synchronous round.
        ///
        /// All counters reflect **delivered** communication: under a
        /// [`crate::faults::FaultPlan`], dropped copies are not counted in
        /// the message/bit totals (the receiver never saw them, and the
        /// round/bit budgets of the paper are statements about successful
        /// communication) — instead each dropped copy increments the
        /// per-component drop counter of the fault that claimed it. Copies
        /// addressed to a crashed (or program-halted) node still count as
        /// delivered: the sender put them on the wire and cannot know the
        /// receiver is dead.
        #[derive(Clone, Copy, Debug, Default, PartialEq)]
        pub struct RoundStats {
            $($(#[doc = $doc])+ pub $field: usize,)+
        }

        /// The counter table: one row per [`RoundStats`] field, in
        /// declaration order, which is also the checkpoint layout.
        pub const COUNTERS: &[Counter] = &[$(Counter {
            name: stringify!($field),
            reducer: Reducer::$reducer,
            report_key: counter_table!(@key $($key)?),
        }),+];

        impl RoundStats {
            /// Every counter's value, in [`COUNTERS`] order.
            pub fn values(&self) -> [usize; COUNTERS.len()] {
                [$(self.$field),+]
            }

            /// Every counter, mutably, in [`COUNTERS`] order.
            pub fn values_mut(&mut self) -> [&mut usize; COUNTERS.len()] {
                [$(&mut self.$field),+]
            }

            /// Folds `other` in as the later of the two, each counter by its
            /// [`Reducer`]. Folding the rounds of a run gives its totals;
            /// folding a round's per-sender rows or per-shard partials gives
            /// the round's statistics, with the last-value counters set by
            /// the builder afterwards.
            #[inline]
            pub fn merge(&mut self, other: &RoundStats) {
                $(self.$field = Reducer::$reducer.fold(self.$field, other.$field);)+
            }
        }
    };
    (@key) => { None };
    (@key $key:literal) => { Some($key) };
}

counter_table! {
    /// The round number (1-based).
    round: Last;
    /// Number of (point-to-point) messages delivered this round. A broadcast
    /// from a node of degree `d` counts as `d` messages, matching the way the
    /// LOCAL/CONGEST literature counts per-edge communication.
    messages: Sum => "total_messages";
    /// Total payload bits delivered this round.
    payload_bits: Sum => "payload_bits";
    /// Total *measured* wire bits delivered this round: each delivered copy's
    /// length-prefixed encoded frame (see [`crate::wire`]), as opposed to the
    /// analytical `payload_bits` estimate from
    /// [`crate::message::MessageSize`]. Byte-identical across execution modes
    /// and thread counts.
    wire_bits: Sum => "wire_bits";
    /// Largest single delivered message payload (bits) this round — the
    /// quantity bounded by the CONGEST model.
    max_message_bits: Max => "max_message_bits";
    /// Number of nodes that had at least one message delivered.
    sending_nodes: Sum;
    /// Number of nodes whose observable state changed in the receive phase.
    changed_nodes: Sum;
    /// Number of nodes that executed their receive/update step this round.
    /// Dense execution runs every non-halted node; the sparse frontier
    /// executor runs only nodes that were delivered a message (plus every
    /// node once, in round 1). Deterministic across machines and execution
    /// modes of the same activation kind — this is the CI-gateable measure of
    /// the active-set work reduction.
    node_updates: Sum => "node_updates";
    /// Message copies dropped this round by the i.i.d. loss component of the
    /// [`crate::faults::FaultPlan`]. Deterministic.
    dropped_loss: Sum => "dropped_loss";
    /// Message copies dropped this round inside a burst-outage window.
    dropped_burst: Sum => "dropped_burst";
    /// Message copies dropped this round by the active partition cut.
    dropped_partition: Sum => "dropped_partition";
    /// Message copies dropped this round by byzantine senders selectively
    /// muting (see [`crate::faults::ByzantineModel`]). Deterministic.
    dropped_byzantine: Sum => "dropped_byzantine";
    /// Number of nodes that have crash-stopped as of this round (cumulative,
    /// monotone non-decreasing across rounds). Deterministic.
    crashed_nodes: Last => "crashed_nodes";
    /// Total byzantine accusation events through this round (cumulative
    /// across rounds and nodes). Accusations are a pure hash schedule of the
    /// plan — independent of delivered traffic — so the counter is identical
    /// across *all* execution modes, like [`RoundStats::crashed_nodes`].
    byzantine_accusations: Last => "byzantine_accusations";
    /// Number of nodes quarantined as of this round (cumulative, monotone
    /// non-decreasing; schedule-driven and identical across all modes).
    quarantined_nodes: Last => "quarantined_nodes";
    /// Wire bits of the cross-shard `BoundaryDelta` frames this round would
    /// exchange under sharded execution ([`crate::NetworkBuilder::shards`]):
    /// each frame's length prefix, header and records, charged as if encoded
    /// (see [`crate::shard`]); no frame is built. The per-copy bits of the
    /// deliveries themselves are already in [`RoundStats::wire_bits`],
    /// identically to unsharded execution. Zero when unsharded and with a
    /// single shard.
    boundary_bits: Sum => "boundary_bits";
    /// Number of distinct boundary nodes whose updates crossed a shard cut
    /// this round (frontier ∩ boundary set, counted once per sender even when
    /// its copies go to several peer shards). Zero outside sharded execution.
    boundary_nodes: Sum => "boundary_nodes";
}

impl RoundStats {
    /// Copies dropped by any fault component.
    pub fn dropped(&self) -> usize {
        self.dropped_loss + self.dropped_burst + self.dropped_partition + self.dropped_byzantine
    }

    /// The gated counters as `(report key, value)` pairs, in [`COUNTERS`]
    /// order.
    pub fn gated(&self) -> impl Iterator<Item = (&'static str, usize)> {
        COUNTERS
            .iter()
            .zip(self.values())
            .filter_map(|(c, v)| Some((c.report_key?, v)))
    }
}

/// Accumulated statistics for a full protocol run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    rounds: Vec<RoundStats>,
    elapsed: Duration,
}

impl RunMetrics {
    /// Creates an empty metrics accumulator.
    pub fn new() -> Self {
        RunMetrics::default()
    }

    /// Rebuilds a metrics accumulator from previously recorded state — the
    /// restore half of checkpoint/resume (see [`crate::checkpoint`]). The
    /// counters in `rounds` are trusted as-is; the caller is responsible for
    /// validating them against the round counter.
    pub fn from_parts(rounds: Vec<RoundStats>, elapsed: Duration) -> Self {
        RunMetrics { rounds, elapsed }
    }

    /// Records one round.
    pub fn push(&mut self, stats: RoundStats) {
        self.rounds.push(stats);
    }

    /// Adds executor wall-clock time (accumulated by
    /// [`crate::Network::run_round`]).
    pub fn add_elapsed(&mut self, elapsed: Duration) {
        self.elapsed += elapsed;
    }

    /// Total executor wall-clock time across all recorded rounds. Timing is
    /// *not* part of the deterministic counters: two result-identical runs
    /// (e.g. on one thread vs many) report different elapsed times.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Delivered messages per wall-clock second (0 when no time was recorded).
    pub fn messages_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.total_messages() as f64 / secs
        } else {
            0.0
        }
    }

    /// Per-round statistics, in execution order.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Number of rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The run totals: every counter folded over the rounds by its
    /// [`Reducer`] (sums, the largest `max_message_bits`, and the last
    /// round's number and cumulative counters; all 0 for empty metrics).
    pub fn totals(&self) -> RoundStats {
        let mut totals = RoundStats::default();
        for r in &self.rounds {
            totals.merge(r);
        }
        totals
    }

    /// Total number of messages across all rounds.
    pub fn total_messages(&self) -> usize {
        self.totals().messages
    }

    /// Total measured wire bits across all rounds (see
    /// [`RoundStats::wire_bits`]).
    pub fn total_wire_bits(&self) -> usize {
        self.totals().wire_bits
    }

    /// Total number of executed node steps across all rounds (see
    /// [`RoundStats::node_updates`]).
    pub fn total_node_updates(&self) -> usize {
        self.totals().node_updates
    }

    /// Total copies dropped by any fault component across all rounds.
    pub fn total_dropped(&self) -> usize {
        self.totals().dropped()
    }

    /// Number of nodes that had crash-stopped by the end of the run (the
    /// cumulative counter of the last recorded round; 0 for empty metrics).
    pub fn crashed_nodes(&self) -> usize {
        self.totals().crashed_nodes
    }

    /// Total cross-shard `BoundaryDelta` frame bits across all rounds (see
    /// [`RoundStats::boundary_bits`]).
    pub fn total_boundary_bits(&self) -> usize {
        self.totals().boundary_bits
    }

    /// Total boundary-node shipments across all rounds (see
    /// [`RoundStats::boundary_nodes`]).
    pub fn total_boundary_nodes(&self) -> usize {
        self.totals().boundary_nodes
    }

    /// The last round in which any node's state changed (`None` if no round
    /// changed anything).
    pub fn last_active_round(&self) -> Option<usize> {
        self.rounds
            .iter()
            .rev()
            .find(|r| r.changed_nodes > 0)
            .map(|r| r.round)
    }

    /// Names the first place where the deterministic counters of this run
    /// and `other` differ: the first round with a differing counter (its
    /// first in [`COUNTERS`] order, with both values), else the first round
    /// only one run recorded. `None` when both recorded the same rounds;
    /// wall-clock time is not compared. Rounds are numbered by position, so
    /// a differing `round` counter is named too.
    pub fn first_divergence(&self, other: &RunMetrics) -> Option<String> {
        for (i, (a, b)) in self.rounds.iter().zip(&other.rounds).enumerate() {
            let mut diff = COUNTERS.iter().zip(a.values().into_iter().zip(b.values()));
            if let Some((c, (x, y))) = diff.find(|(_, (x, y))| x != y) {
                return Some(format!("round {}, {}: {x} vs {y}", i + 1, c.name));
            }
        }
        let (a, b) = (self.rounds.len(), other.rounds.len());
        (a != b).then(|| {
            format!(
                "round {}: only one run has it ({a} vs {b} rounds)",
                a.min(b) + 1
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_totals() {
        let mut m = RunMetrics::new();
        m.push(RoundStats {
            round: 1,
            messages: 10,
            payload_bits: 640,
            max_message_bits: 64,
            sending_nodes: 5,
            changed_nodes: 5,
            node_updates: 5,
            ..RoundStats::default()
        });
        m.push(RoundStats {
            round: 2,
            messages: 4,
            payload_bits: 256,
            max_message_bits: 128,
            sending_nodes: 2,
            changed_nodes: 0,
            node_updates: 2,
            ..RoundStats::default()
        });
        assert_eq!(m.num_rounds(), 2);
        assert_eq!(m.total_messages(), 14);
        let totals = m.totals();
        assert_eq!(totals.payload_bits, 896);
        assert_eq!(totals.max_message_bits, 128);
        assert_eq!(totals.round, 2, "last-value counters keep the last round's");
        assert_eq!(totals.sending_nodes, 7);
        assert_eq!(m.last_active_round(), Some(1));
    }

    #[test]
    fn empty_metrics() {
        let m = RunMetrics::new();
        assert_eq!(m.num_rounds(), 0);
        assert_eq!(m.total_messages(), 0);
        assert_eq!(m.totals(), RoundStats::default());
        assert_eq!(m.last_active_round(), None);
        assert_eq!(m.elapsed(), Duration::ZERO);
        assert_eq!(m.messages_per_sec(), 0.0);
    }

    #[test]
    fn elapsed_accumulates_and_derives_throughput() {
        let mut m = RunMetrics::new();
        m.push(RoundStats {
            round: 1,
            messages: 500,
            payload_bits: 16_000,
            max_message_bits: 32,
            sending_nodes: 10,
            changed_nodes: 10,
            node_updates: 10,
            ..RoundStats::default()
        });
        m.add_elapsed(Duration::from_millis(200));
        m.add_elapsed(Duration::from_millis(300));
        assert_eq!(m.elapsed(), Duration::from_millis(500));
        assert!((m.messages_per_sec() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn first_divergence_names_the_round_and_counter() {
        let round = |round, messages, node_updates| RoundStats {
            round,
            messages,
            node_updates,
            ..RoundStats::default()
        };
        let run = |rounds: &[RoundStats]| RunMetrics::from_parts(rounds.to_vec(), Duration::ZERO);
        let a = run(&[round(1, 4, 3), round(2, 2, 12)]);
        let timed = RunMetrics::from_parts(a.rounds().to_vec(), Duration::from_secs(1));
        assert_eq!(a.first_divergence(&timed), None, "time is not a counter");
        let b = run(&[round(1, 4, 3), round(2, 2, 13)]);
        assert_eq!(
            a.first_divergence(&b).as_deref(),
            Some("round 2, node_updates: 12 vs 13")
        );
        let shorter = run(&[round(1, 4, 3)]);
        assert_eq!(
            a.first_divergence(&shorter).as_deref(),
            Some("round 2: only one run has it (2 vs 1 rounds)")
        );
        assert_eq!(
            shorter.first_divergence(&a).as_deref(),
            Some("round 2: only one run has it (1 vs 2 rounds)")
        );
    }

    #[test]
    fn table_rows_name_the_fields_they_fold() {
        let names: Vec<&str> = COUNTERS.iter().map(|c| c.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "counter names are unique");
        // Row i folds field i: a value planted in one field moves exactly
        // that row, by that row's reducer.
        for (i, c) in COUNTERS.iter().enumerate() {
            let mut acc = RoundStats::default();
            *acc.values_mut()[i] = 5;
            let mut later = RoundStats::default();
            *later.values_mut()[i] = 3;
            acc.merge(&later);
            let expected = c.reducer.fold(5, 3);
            assert_eq!(acc.values()[i], expected, "{}", c.name);
            assert_eq!(acc.values().iter().sum::<usize>(), expected, "{}", c.name);
        }
        let stats = RoundStats {
            round: 4,
            messages: 9,
            sending_nodes: 2,
            changed_nodes: 1,
            ..RoundStats::default()
        };
        let gated: Vec<_> = stats.gated().collect();
        assert_eq!(
            gated.len(),
            COUNTERS.len() - 3,
            "round/sending/changed are ungated"
        );
        assert_eq!(gated[0], ("total_messages", 9));
    }
}
