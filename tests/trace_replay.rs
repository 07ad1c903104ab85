//! Trace-layer property suite: record-once/replay-many must be lossless
//! and robust against hostile bytes (`ISSUE` satellite for
//! `kremlin_interp::trace`).
//!
//! Two families of checks over randomized `bench::progen` programs:
//!
//! 1. **Round trip** — record a program, push the trace through the full
//!    byte encoding (`to_bytes` → `from_bytes`), stream it into an HCPA
//!    profiler as an upload is (`hcpa::profile_trace`), and demand the
//!    live execution's profile, dictionary included. Covers varint/zigzag
//!    coding, the embedded source, and the checksum trailer on programs
//!    nobody hand-picked.
//! 2. **Robustness** — every truncation prefix and a sweep of single-bit
//!    flips must come back as a clean [`TraceError`], never a panic and
//!    never a silently different profile.

use kremlin_bench::progen;
use kremlin_bench::XorShift;
use kremlin_repro::hcpa::{profile_decoded, profile_trace, profile_unit, HcpaConfig};
use kremlin_repro::interp::trace::{self, DecodedTrace, TRACE_MAGIC};
use kremlin_repro::interp::{
    record, run_with_hook, ExecHook, InstrCtx, MachineConfig, Trace, TraceError,
};
use kremlin_repro::ir::{compile, segments, CompiledUnit, FuncId, InstrKind, Module, ValueId};

/// Seeds chosen arbitrarily but fixed, so failures reproduce exactly.
const SEEDS: [u64; 8] = [3, 17, 99, 256, 1021, 4096, 70_001, 987_654_321];

#[test]
fn randomized_programs_round_trip_through_trace_bytes() {
    for (case, seed) in SEEDS.into_iter().enumerate() {
        let mut rng = XorShift::new(seed);
        let deep = case % 2 == 1;
        let src = progen::program(&mut rng, deep);
        let name = format!("progen_{seed}.kc");
        let unit = compile(&src, &name).unwrap_or_else(|e| {
            panic!("seed {seed}: generated program fails to compile: {e}\n{src}")
        });

        let live = profile_unit(&unit, HcpaConfig::default()).expect("live profile");
        let mut trace = record(&unit.module, MachineConfig::default()).expect("record");
        trace.source = src.clone();
        assert_eq!(trace.run_result(), live.run, "seed {seed}: recorded run differs");

        let bytes = trace.to_bytes();
        let decoded = Trace::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed}: round trip failed: {e}"));
        assert_eq!(decoded.events(), trace.events(), "seed {seed}: event count changed");
        assert_eq!(decoded.source, src, "seed {seed}: embedded source changed");

        let replayed = profile_trace(&unit, &decoded, HcpaConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: decoded trace fails to replay: {e}"));
        assert!(
            replayed.profile.identical_stats(&live.profile),
            "seed {seed}: replayed profile differs from live"
        );
        assert!(replayed.profile.dict == live.profile.dict, "seed {seed}: dictionaries differ");
        assert_eq!(replayed.run, live.run, "seed {seed}: replayed run differs");
    }
}

/// Property over randomized programs: replaying the decode-once arena
/// fires the same events as live execution — same profile bit-for-bit,
/// same run result — and the decode pass's free histograms are
/// consistent with the recorded execution.
#[test]
fn randomized_programs_replay_identically_from_the_decoded_arena() {
    for seed in SEEDS {
        let mut rng = XorShift::new(seed);
        let src = progen::program(&mut rng, seed % 2 == 0);
        let name = format!("progen_arena_{seed}.kc");
        let unit = compile(&src, &name).unwrap_or_else(|e| {
            panic!("seed {seed}: generated program fails to compile: {e}\n{src}")
        });

        let live = profile_unit(&unit, HcpaConfig::default()).expect("live profile");
        let trace = record(&unit.module, MachineConfig::default()).expect("record");

        let arena = DecodedTrace::decode(&trace, &unit.module)
            .unwrap_or_else(|e| panic!("seed {seed}: decode fails: {e}"));
        assert_eq!(arena.events(), trace.events(), "seed {seed}: decode changed event count");
        assert_eq!(arena.run_result(), trace.run_result(), "seed {seed}: run result differs");
        let instr_total: u64 = arena.instr_depth_hist().iter().sum();
        let mut committed = CommittedEvents::new(&unit.module);
        run_with_hook(&unit.module, &mut committed, MachineConfig::default()).unwrap();
        assert_eq!(
            instr_total, committed.events,
            "seed {seed}: decode histogram misses committed instruction events"
        );

        let decoded = profile_decoded(&unit, &arena, HcpaConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: decoded replay fails: {e}"));
        assert!(
            decoded.profile.identical_stats(&live.profile),
            "seed {seed}: decoded-replay profile differs from live"
        );
        assert_eq!(decoded.run, live.run, "seed {seed}: decoded run differs");
        assert_eq!(
            decoded.stats.instr_events, live.stats.instr_events,
            "seed {seed}: decoded instruction-event count differs"
        );
    }
}

/// Selects the committed values (`kremlin_ir::segments::committed`), the
/// only instruction events a recording carries, and folds each delivered
/// event, in order, into a count and a hash.
struct CommittedEvents {
    committed: Vec<Vec<bool>>,
    events: u64,
    hash: u64,
}

impl CommittedEvents {
    fn new(module: &Module) -> Self {
        let committed = module.funcs.iter().map(segments::committed).collect();
        CommittedEvents { committed, events: 0, hash: 0xcbf2_9ce4_8422_2325 }
    }
}

impl ExecHook for CommittedEvents {
    fn selects_instr(&self, func: FuncId, value: ValueId) -> bool {
        self.committed[func.index()][value.index()]
    }

    fn on_instr(&mut self, ctx: &InstrCtx<'_>) {
        self.events += 1;
        let phi = ctx.phi_source.map_or(u64::MAX, |v| u64::from(v.0));
        let words =
            [u64::from(ctx.func.id.0), u64::from(ctx.value.0), ctx.mem_addr.unwrap_or(0), phi];
        for w in words {
            self.hash = (self.hash ^ w).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The committed instruction events of a live run of `unit` and of the
/// replay of its recording, as (count, hash) pairs.
fn live_and_recorded_committed_events(unit: &CompiledUnit) -> ((u64, u64), (u64, u64)) {
    let machine = MachineConfig::default();
    let mut live = CommittedEvents::new(&unit.module);
    run_with_hook(&unit.module, &mut live, machine).expect("runs");
    let trace = record(&unit.module, machine).expect("records");
    let mut replayed = CommittedEvents::new(&unit.module);
    trace::replay(&trace, &unit.module, &mut replayed).expect("replays");
    ((live.events, live.hash), (replayed.events, replayed.hash))
}

/// A recording carries exactly the committed instruction events of a
/// live run, in order, on the 12 workloads and 200 generated programs.
#[test]
fn recordings_carry_exactly_the_committed_events_of_a_live_run() {
    for w in kremlin_repro::workloads::all() {
        let unit = compile(w.source, &w.file_name()).unwrap();
        let (live, recorded) = live_and_recorded_committed_events(&unit);
        assert_eq!(recorded, live, "{}", w.name);
    }
    for seed in 0..200u64 {
        let src = progen::program(&mut XorShift::new(seed), seed % 2 == 1);
        let unit = compile(&src, &format!("progen_{seed}.kc")).unwrap();
        let (live, recorded) = live_and_recorded_committed_events(&unit);
        assert_eq!(recorded, live, "seed {seed}\n{src}");
    }
}

/// A replayed recording gives each workload's live profile (dictionary,
/// stats, every profiler counter and the run) whether or not the
/// profiler breaks carried dependences and over a shifted depth range,
/// though the recording carries the one committed set.
#[test]
fn replayed_recordings_profile_like_live_runs_in_every_config() {
    let configs = [
        HcpaConfig::default(),
        HcpaConfig { break_carried_deps: false, ..HcpaConfig::default() },
        HcpaConfig { window: 3, min_depth: 2, ..HcpaConfig::default() },
    ];
    for w in kremlin_repro::workloads::all() {
        let unit = compile(w.source, &w.file_name()).unwrap();
        let recorded = record(&unit.module, MachineConfig::default()).unwrap();
        let trace = Trace::from_bytes(&recorded.to_bytes()).unwrap();
        for config in configs {
            let at = format!("{}, {config:?}", w.name);
            let live = profile_unit(&unit, config).unwrap();
            let replayed = profile_trace(&unit, &trace, config).unwrap();
            assert!(replayed.profile.dict == live.profile.dict, "dictionaries differ ({at})");
            assert!(replayed.profile.identical_stats(&live.profile), "profiles differ ({at})");
            assert_eq!(format!("{:?}", replayed.stats), format!("{:?}", live.stats), "{at}");
            assert_eq!(replayed.run, live.run, "{at}");
        }
    }
}

#[test]
fn truncated_trace_files_error_cleanly() {
    let mut rng = XorShift::new(42);
    let src = progen::program(&mut rng, true);
    let unit = compile(&src, "progen_trunc.kc").expect("compiles");
    let bytes = record(&unit.module, MachineConfig::default()).expect("record").to_bytes();

    for len in 0..bytes.len() {
        let err = Trace::from_bytes(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("prefix of {len} bytes decoded successfully"));
        assert!(
            matches!(
                err,
                TraceError::Truncated { .. }
                    | TraceError::BadMagic
                    | TraceError::ChecksumMismatch
                    | TraceError::Corrupt { .. }
            ),
            "prefix of {len} bytes: unexpected error {err:?}"
        );
        // Display must render without panicking — the CLI prints it.
        let _ = err.to_string();
    }
}

#[test]
fn bit_flipped_trace_files_never_panic_or_misreport() {
    let mut rng = XorShift::new(7);
    let src = progen::program(&mut rng, false);
    let unit = compile(&src, "progen_flip.kc").expect("compiles");
    let machine = MachineConfig::default();
    let trace = record(&unit.module, machine).expect("record");
    let bytes = trace.to_bytes();

    // Step through the file so the sweep stays fast but touches the
    // magic, header, source, payload, and checksum regions.
    let step = (bytes.len() / 97).max(1);
    for pos in (0..bytes.len()).step_by(step) {
        for bit in [0x01u8, 0x40u8] {
            let mut mutated = bytes.clone();
            mutated[pos] ^= bit;
            match Trace::from_bytes(&mutated) {
                // The trailing checksum covers every preceding byte, so a
                // decode success would mean the flip escaped detection.
                Ok(_) => panic!("flip at byte {pos} (mask {bit:#x}) escaped the checksum"),
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
    }

    // And a flip *after* decode (simulating in-memory corruption of the
    // payload handed to replay) must surface as a TraceError, not a panic
    // inside the profiler hooks.
    let decoded = Trace::from_bytes(&bytes).expect("pristine bytes decode");
    let replayed = profile_trace(&unit, &decoded, HcpaConfig::default());
    assert!(replayed.is_ok(), "pristine decode must replay");
}

/// Selects only loads and stores and records each delivered event's
/// `(function, value, mem_addr)`; with `all` set it selects every event
/// and records the loads and stores among them.
struct MemoryEvents<'m> {
    module: &'m Module,
    all: bool,
    seen: Vec<(FuncId, ValueId, Option<u64>)>,
}

impl<'m> MemoryEvents<'m> {
    fn new(module: &'m Module, all: bool) -> Self {
        MemoryEvents { module, all, seen: Vec::new() }
    }

    fn is_memory(&self, func: FuncId, value: ValueId) -> bool {
        matches!(
            self.module.func(func).value(value).kind,
            InstrKind::Load(_) | InstrKind::Store { .. }
        )
    }
}

impl ExecHook for MemoryEvents<'_> {
    fn selects_instr(&self, func: FuncId, value: ValueId) -> bool {
        self.all || self.is_memory(func, value)
    }

    fn on_instr(&mut self, ctx: &InstrCtx<'_>) {
        let memory = self.is_memory(ctx.func.id, ctx.value);
        assert!(self.all || memory, "{} delivered but not selected", ctx.value);
        if memory {
            self.seen.push((ctx.func.id, ctx.value, ctx.mem_addr));
        }
    }
}

const MEMORY_SRC: &str = "float a[40]; int hist[8];\n\
    float scale(float x, int k) { float s = 0.0; for (int j = 0; j < k; j++) { s += x * a[j]; } return s; }\n\
    int main() {\n\
      for (int i = 0; i < 40; i++) { a[i] = (float) (i % 7) * 0.5; }\n\
      float t = 0.0;\n\
      for (int i = 0; i < 40; i++) { t += scale(a[i], i % 5); hist[i % 8] += 1; }\n\
      return (int) t + hist[3];\n\
    }";

#[test]
fn live_and_replayed_runs_deliver_exactly_the_selected_events() {
    let unit = compile(MEMORY_SRC, "memory.kc").unwrap();
    let machine = MachineConfig::default();
    let mut every = MemoryEvents::new(&unit.module, true);
    let run = run_with_hook(&unit.module, &mut every, machine).unwrap();
    assert!(every.seen.len() > 100, "{} memory events", every.seen.len());

    let mut live = MemoryEvents::new(&unit.module, false);
    assert_eq!(run_with_hook(&unit.module, &mut live, machine).unwrap(), run);
    let recorded = record(&unit.module, machine).unwrap();
    let mut streamed = MemoryEvents::new(&unit.module, false);
    assert_eq!(trace::replay(&recorded, &unit.module, &mut streamed).unwrap(), run);
    let decoded = DecodedTrace::decode(&recorded, &unit.module).unwrap();
    let mut arena = MemoryEvents::new(&unit.module, false);
    assert_eq!(trace::replay_decoded(&decoded, &unit.module, &mut arena).unwrap(), run);

    assert_eq!(live.seen, every.seen, "live run");
    assert_eq!(streamed.seen, every.seen, "trace::replay");
    assert_eq!(arena.seen, every.seen, "replay_decoded");
}

/// The `kremlin-trace v3` checksum of `body`: FNV-1a's xor-multiply over
/// each little-endian `u64` word, the last one zero-padded, then over the
/// byte length.
fn checksum_v3(body: &[u8]) -> u64 {
    let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100_0000_01b3);
    let words = body.chunks(8).map(|w| {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(word)
    });
    fold(words.fold(0xcbf2_9ce4_8422_2325, fold), body.len() as u64)
}

/// The bytes of `trace` with the first plain instruction event retagged
/// as a phi event and the checksum recomputed: the file parses, and the
/// damage is an event no memory-only hook selects.
fn retag_first_plain_instruction(trace: &Trace) -> Vec<u8> {
    let mut bytes = trace.to_bytes();
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) as usize;
    let mut pos = TRACE_MAGIC.len() + 5 * 8;
    pos += 8 + word(&bytes, pos); // source name
    pos += 8 + word(&bytes, pos); // source
    let end = pos + 8 + word(&bytes, pos);
    pos += 8;
    // Walk the events: a head varint `(payload << 4) | tag`, then one
    // more varint for a memory (tag 1) or phi (tag 2) event.
    let skip_varint = |b: &[u8], mut at: usize| {
        while b[at] & 0x80 != 0 {
            at += 1;
        }
        at + 1
    };
    while pos < end {
        let tag = bytes[pos] & 0xf;
        if tag == 0 {
            bytes[pos] |= 2;
            let body = bytes.len() - 8;
            let checksum = checksum_v3(&bytes[..body]);
            bytes[body..].copy_from_slice(&checksum.to_le_bytes());
            return bytes;
        }
        pos = skip_varint(&bytes, pos);
        if tag == 1 || tag == 2 {
            pos = skip_varint(&bytes, pos);
        }
    }
    panic!("the trace has no plain instruction event");
}

#[test]
fn replay_validates_the_events_a_hook_did_not_select() {
    let unit = compile(MEMORY_SRC, "memory.kc").unwrap();
    let recorded = record(&unit.module, MachineConfig::default()).unwrap();
    let damaged = Trace::from_bytes(&retag_first_plain_instruction(&recorded)).unwrap();
    let mut hook = MemoryEvents::new(&unit.module, false);
    let err = trace::replay(&damaged, &unit.module, &mut hook).unwrap_err();
    assert!(matches!(err, TraceError::Corrupt { .. }), "{err:?}");
    assert!(matches!(
        DecodedTrace::decode(&damaged, &unit.module),
        Err(TraceError::Corrupt { .. })
    ));
}
