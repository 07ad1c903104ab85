//! Forged `.ktrace` files: each parses (valid header, recomputed
//! checksum) but carries an event stream no execution produces. The CLI
//! and daemon tests feed them to `kremlin replay` and `POST /v1/trace`.

use kremlin::interp::trace::TRACE_MAGIC;
use kremlin::interp::{ExecHook, Recorder, RetCtx, RunResult};
use kremlin::ir::ValueId;
use kremlin::Kremlin;

/// The program every forged trace claims to come from.
const SRC: &str = "float a[64];\n\
    int main() { for (int i = 0; i < 64; i++) { a[i] = sqrt((float) i); } return 0; }";
const NAME: &str = "forged.kc";

/// Nesting levels of the forged nesting traces: far beyond the
/// interpreter's call-depth limit of 4096.
const LEVELS: usize = 20_000;

/// `bytes` (a `.ktrace` file) with the header's event count set to
/// `events` and the FNV-1a checksum trailer recomputed.
fn with_event_count(bytes: &[u8], events: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    // The header opens with the fingerprint, exit code, instruction
    // count and event count, eight bytes each.
    let at = TRACE_MAGIC.len() + 3 * 8;
    out[at..at + 8].copy_from_slice(&events.to_le_bytes());
    let body = out.len() - 8;
    let checksum = out[..body]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    out[body..].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// The forged traces, each with a name for assertion messages: a header
/// event count of 2^40, `main` nested 20,000 deep without and with its
/// returns, a loop region entered inside itself 20,000 times, and 20,000
/// control-dependence pushes without a pop.
pub fn traces() -> Vec<(&'static str, Vec<u8>)> {
    let unit = kremlin::ir::compile(SRC, NAME).unwrap();
    let main = unit.module.main.unwrap();
    let region = unit.module.func(main).region;
    let ret = RetCtx { func: main, region, returned: None };
    let lp = unit.module.regions.by_label("main#L0").unwrap();
    let forge = |write: &dyn Fn(&mut Recorder)| {
        let mut rec = Recorder::new();
        write(&mut rec);
        let mut trace = rec.into_trace(&unit.module, RunResult { exit: 0, instrs_executed: 0 });
        trace.source = SRC.to_owned();
        trace.to_bytes()
    };
    let recorded = Kremlin::new().record(&unit, SRC).unwrap().to_bytes();
    vec![
        ("2^40 events", with_event_count(&recorded, 1 << 40)),
        (
            "unbalanced main nesting",
            forge(&|rec| (0..LEVELS).for_each(|_| rec.on_function_enter(main, region))),
        ),
        (
            "balanced main nesting",
            forge(&|rec| {
                (0..LEVELS).for_each(|_| rec.on_function_enter(main, region));
                (0..LEVELS).for_each(|_| rec.on_return(&ret));
            }),
        ),
        (
            "loop inside itself",
            forge(&|rec| {
                rec.on_function_enter(main, region);
                (0..LEVELS).for_each(|_| rec.on_region_enter(lp));
            }),
        ),
        (
            "cd pushes without pops",
            forge(&|rec| {
                rec.on_function_enter(main, region);
                (0..LEVELS).for_each(|_| rec.on_cd_push(ValueId::from_index(0)));
            }),
        ),
    ]
}
