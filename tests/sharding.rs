//! Stitch-equivalence suite: depth-sharded parallel collection must be
//! bit-identical to a serial full-window pass on **every** bundled `.kc`
//! workload (`ISSUE` satellite for `kremlin_hcpa::parallel`).
//!
//! `identical_stats` compares every per-region statistic bit-for-bit,
//! including the exact per-depth integer accumulators, so a pass here
//! means the sharded pipeline loses nothing relative to serial HCPA.
//!
//! Every sharded profile is collected by replaying a recorded trace, so
//! the tests below also prove replay equivalence: profiling from a
//! replayed trace — serial or fanned out across shard workers — matches
//! live execution exactly.

use kremlin_repro::hcpa::{
    profile_decoded_parallel, profile_trace_parallel, profile_unit, HcpaConfig, ParallelConfig,
    ParallelismProfile, ProfileOutcome,
};
use kremlin_repro::interp::trace::DecodedTrace;
use kremlin_repro::interp::{record, MachineConfig};
use kremlin_repro::ir::compile;

fn serial_and_compiled(
    w: &kremlin_repro::workloads::Workload,
) -> (kremlin_repro::ir::CompiledUnit, ProfileOutcome) {
    let unit = compile(w.source, &w.file_name()).expect("workload compiles");
    let serial = profile_unit(&unit, HcpaConfig::default()).expect("serial profile");
    (unit, serial)
}

fn assert_stitched_identical(
    name: &str,
    jobs: usize,
    serial: &ProfileOutcome,
    sharded: &ProfileOutcome,
) {
    assert!(
        sharded.profile.identical_stats(&serial.profile),
        "{name}: {jobs}-way sharded profile differs from serial"
    );
    assert_eq!(sharded.run, serial.run, "{name}: sharded run result differs");
    assert_eq!(
        sharded.stats.max_depth, serial.stats.max_depth,
        "{name}: sharded max_depth differs"
    );
    assert_eq!(
        sharded.stats.instr_events, serial.stats.instr_events,
        "{name}: sharded instruction-event count differs"
    );
}

/// Every workload: one recorded trace replayed by 3 shard workers and
/// stitched is bit-identical to live serial profiling — interpretation
/// happens once, never per shard, and the depth range comes from the
/// decoded trace itself.
#[test]
fn three_way_sharding_is_bit_identical_on_every_workload() {
    for w in kremlin_repro::workloads::all() {
        let (unit, serial) = serial_and_compiled(&w);
        let trace = record(&unit.module, MachineConfig::default()).expect("record");
        let sharded = profile_trace_parallel(
            &unit,
            &trace,
            ParallelConfig { jobs: 3, ..ParallelConfig::default() },
        )
        .expect("own trace replays sharded");
        assert_stitched_identical(w.name, 3, &serial, &sharded);
    }
}

/// Every workload, 2-way sharding with an explicit depth hint — the path
/// a caller with a prior run would use.
#[test]
fn two_way_sharding_with_depth_hint_is_bit_identical() {
    for w in kremlin_repro::workloads::all() {
        let (unit, serial) = serial_and_compiled(&w);
        let trace = record(&unit.module, MachineConfig::default()).expect("record");
        let sharded = profile_trace_parallel(
            &unit,
            &trace,
            ParallelConfig {
                jobs: 2,
                depth_hint: Some(serial.stats.max_depth),
                ..ParallelConfig::default()
            },
        )
        .expect("sharded profile");
        assert_stitched_identical(w.name, 2, &serial, &sharded);
    }
}

/// Every workload: one recorded trace replayed into a serial profiler is
/// `identical_stats` to profiling the live execution directly.
#[test]
fn serial_replay_matches_live_execution_on_every_workload() {
    for w in kremlin_repro::workloads::all() {
        let (unit, serial) = serial_and_compiled(&w);
        let trace = record(&unit.module, MachineConfig::default()).expect("record");
        assert_eq!(
            trace.run_result(),
            serial.run,
            "{}: recorded run differs from live run",
            w.name
        );
        let replayed = profile_trace_parallel(
            &unit,
            &trace,
            ParallelConfig { jobs: 1, ..ParallelConfig::default() },
        )
        .expect("own trace replays");
        assert_stitched_identical(w.name, 1, &serial, &replayed);
    }
}

/// Replay survives the disk round trip on **every** workload: encode,
/// re-parse from bytes, decode into the arena, then shard — the stitched
/// result must still be bit-identical to live serial profiling.
#[test]
fn sharded_replay_survives_the_byte_round_trip() {
    for w in kremlin_repro::workloads::all() {
        let (unit, serial) = serial_and_compiled(&w);
        let trace = record(&unit.module, MachineConfig::default()).expect("record");
        let reparsed = kremlin_repro::interp::Trace::from_bytes(&trace.to_bytes())
            .expect("encoded trace decodes");
        let sharded = profile_trace_parallel(
            &unit,
            &reparsed,
            ParallelConfig { jobs: 2, ..ParallelConfig::default() },
        )
        .expect("round-tripped trace replays sharded");
        assert_stitched_identical(w.name, 2, &serial, &sharded);
        // And explicitly through the arena, so the decode-once path is
        // proven against disk bytes, not just in-memory traces.
        let arena = DecodedTrace::decode(&reparsed, &unit.module).expect("decode");
        let sharded = profile_decoded_parallel(
            &unit,
            &arena,
            ParallelConfig { jobs: 3, ..ParallelConfig::default() },
        )
        .expect("round-tripped arena replays sharded");
        assert_stitched_identical(w.name, 3, &serial, &sharded);
    }
}

/// Stitching the trivial one-slice case is the identity: guards against
/// the stitcher quietly renormalizing anything when there is nothing to
/// stitch.
#[test]
fn one_slice_stitch_is_identity() {
    let w = kremlin_repro::workloads::by_name("is").expect("is workload");
    let (_, serial) = serial_and_compiled(&w);
    let slices = [serial.profile.clone()];
    let stitched = ParallelismProfile::stitch_at(&slices, &[0]);
    assert!(stitched.identical_stats(&serial.profile));
}
