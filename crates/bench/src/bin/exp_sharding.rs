//! E15: shard-partitioned execution — the compact elimination under
//! sharded execution (cross-shard copies charged as the `BoundaryDelta` wire
//! frames they would travel in) vs the unsharded sparse lockstep reference,
//! asserted byte-identical on every deterministic counter and gated in CI on
//! the `boundary_bits`/`boundary_nodes` counters (its `E15` records in
//! `bench/baselines/tiny.json`).
//!
//! Pass `--shards <n>` to narrow the default {1, 2, 4, 8} sweep to one shard
//! count, `--shard-seed <seed>` to move the hash partition, and fault flags
//! (`--loss`, `--crash`, …) to replace the composed default fault scenario:
//!
//! ```sh
//! exp_sharding --scale tiny --shards 4 --loss 0.1
//! ```

#![deny(deprecated)]
use dkc_bench::{ExpArgs, Reads, Report};

fn main() {
    let args = ExpArgs::parse(Reads {
        faults: true,
        shards: true,
    });
    let custom = (!args.faults.is_trivial()).then_some(args.faults);
    let mut report = Report::new("exp_sharding", args.scale);
    let out =
        dkc_bench::experiments::exp_sharding(args.scale, custom, args.shards, args.shard_seed);
    out.print();
    report.extend(out.records);
    args.write_report(&report);
}
