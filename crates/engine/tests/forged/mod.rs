//! Forged `.ktrace` files: each parses (valid header, recomputed
//! checksum) but carries an event stream no execution produces. The CLI
//! and daemon tests feed them to `kremlin replay` and `POST /v1/trace`.

use kremlin::interp::trace::TRACE_MAGIC;
use kremlin::interp::{ExecHook, InstrCtx, Recorder, RetCtx, RunResult};
use kremlin::ir::{segments, CompiledUnit, InstrKind, ValueId, MAX_GLOBAL_SLOTS};
use kremlin::Kremlin;

/// The program the forged traces claim to come from, but for the one
/// that claims [`big_src`].
const SRC: &str = "float a[64];\n\
    int main() { for (int i = 0; i < 64; i++) { a[i] = sqrt((float) i); } return 0; }";
const NAME: &str = "forged.kc";

/// [`SRC`] with its array as large as compilation admits, so its address
/// space is as large as any program's.
fn big_src() -> String {
    SRC.replace("a[64]", &format!("a[{MAX_GLOBAL_SLOTS}]"))
}

/// Nesting levels of the forged nesting traces: far beyond the
/// interpreter's call-depth limit of 4096.
const LEVELS: usize = 20_000;

/// `bytes` (a `.ktrace` file) with the header's event count set to
/// `events` and the checksum trailer recomputed: FNV-1a's xor-multiply
/// over each little-endian `u64` word of the body, the last one
/// zero-padded, then over the body's byte length.
fn with_event_count(bytes: &[u8], events: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    // The header opens with the fingerprint, exit code, instruction
    // count and event count, eight bytes each.
    let at = TRACE_MAGIC.len() + 3 * 8;
    out[at..at + 8].copy_from_slice(&events.to_le_bytes());
    let body = out.len() - 8;
    let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100_0000_01b3);
    let words = out[..body].chunks(8).map(|w| {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(word)
    });
    let checksum = fold(words.fold(0xcbf2_9ce4_8422_2325, fold), body as u64);
    out[body..].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// `write`'s events as a `.ktrace` file claiming `unit`, compiled from
/// `source`.
fn forge_for(unit: &CompiledUnit, source: &str, write: &dyn Fn(&mut Recorder)) -> Vec<u8> {
    let mut rec = Recorder::new(&unit.module);
    write(&mut rec);
    let mut trace = rec.into_trace(&unit.module, RunResult { exit: 0, instrs_executed: 0 });
    trace.source = source.to_owned();
    trace.to_bytes()
}

/// A run of `main` in `unit` that fires an instruction event for its
/// first folded value: one no recording carries.
fn main_firing_a_folded_value(rec: &mut Recorder, unit: &CompiledUnit) {
    let main = unit.module.main.unwrap();
    let func = unit.module.func(main);
    let committed = segments::committed(func);
    let folded = func
        .values
        .iter()
        .enumerate()
        .position(|(v, data)| !committed[v] && !segments::splits(&data.kind));
    let folded = ValueId::from_index(folded.unwrap());
    rec.on_function_enter(main, func.region);
    rec.on_instr(&InstrCtx {
        func,
        value: folded,
        kind: &func.value(folded).kind,
        mem_addr: None,
        phi_source: None,
    });
    rec.on_return(&RetCtx { func: main, region: func.region, returned: None });
}

/// A run of `main` in `unit` that executes its first store once for
/// each address of `addrs`.
fn main_storing_to(rec: &mut Recorder, unit: &CompiledUnit, addrs: impl Iterator<Item = u64>) {
    let main = unit.module.main.unwrap();
    let func = unit.module.func(main);
    let store = func.values.iter().position(|v| matches!(v.kind, InstrKind::Store { .. }));
    let store = ValueId::from_index(store.unwrap());
    rec.on_function_enter(main, func.region);
    for addr in addrs {
        rec.on_instr(&InstrCtx {
            func,
            value: store,
            kind: &func.value(store).kind,
            mem_addr: Some(addr),
            phi_source: None,
        });
    }
    rec.on_return(&RetCtx { func: main, region: func.region, returned: None });
}

/// The forged traces, each with a name for assertion messages and the
/// part of the refusal that names why: a header event count of 2^40,
/// `main` nested 20,000 deep without and with its returns, a loop region
/// entered inside itself 20,000 times, 20,000 control-dependence pushes
/// without a pop, a run of `main` that stores to 1,000 distinct pages far
/// above the stack, of its program and of [`big_src`], and an event for a
/// value a recording folds. Every one is refused as a corrupt event
/// stream.
pub fn traces() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let unit = kremlin::ir::compile(SRC, NAME).unwrap();
    let main = unit.module.main.unwrap();
    let region = unit.module.func(main).region;
    let ret = RetCtx { func: main, region, returned: None };
    let lp = unit.module.regions.by_label("main#L0").unwrap();
    let forge = |write: &dyn Fn(&mut Recorder)| forge_for(&unit, SRC, write);
    let recorded = Kremlin::new().record(&unit, SRC).unwrap().to_bytes();
    let big = big_src();
    let big_unit = kremlin::ir::compile(&big, NAME).unwrap();
    let pages = || (0..1000u64).map(|k| (k + 1) << 20);
    let nest = "calls nest deeper than 4096";
    let above = "at or above the stack top";
    vec![
        ("2^40 events", "event count mismatch", with_event_count(&recorded, 1 << 40)),
        (
            "unbalanced main nesting",
            nest,
            forge(&|rec| (0..LEVELS).for_each(|_| rec.on_function_enter(main, region))),
        ),
        (
            "balanced main nesting",
            nest,
            forge(&|rec| {
                (0..LEVELS).for_each(|_| rec.on_function_enter(main, region));
                (0..LEVELS).for_each(|_| rec.on_return(&ret));
            }),
        ),
        (
            "loop inside itself",
            "entered outside its parent",
            forge(&|rec| {
                rec.on_function_enter(main, region);
                (0..LEVELS).for_each(|_| rec.on_region_enter(lp));
            }),
        ),
        (
            "cd pushes without pops",
            "more cds open than",
            forge(&|rec| {
                rec.on_function_enter(main, region);
                (0..LEVELS).for_each(|_| rec.on_cd_push(ValueId::from_index(0)));
            }),
        ),
        (
            "1,000 stores far above the stack",
            above,
            forge(&|rec| main_storing_to(rec, &unit, pages())),
        ),
        (
            "1,000 stores above the largest globals",
            above,
            forge_for(&big_unit, &big, &|rec| main_storing_to(rec, &big_unit, pages())),
        ),
        (
            "an event for a folded value",
            "is folded: never recorded",
            forge(&|rec| main_firing_a_folded_value(rec, &unit)),
        ),
    ]
}

/// A trace whose source declares 1,000 globals of 4,294,967,295 slots
/// each, 16.8 GB of shadow page table at one entry per 1,024 slots, and
/// whose one event past `main`'s entry is a store to the last of those
/// slots. Every event is one an execution of that program could produce,
/// but compilation refuses the program before anything is sized from it.
pub fn oversized_globals() -> Vec<u8> {
    let globals =
        |slots: u32| -> String { (0..1000).map(|k| format!("float g{k}[{slots}];\n")).collect() };
    let main = "int main() { g999[0] = 1.0; return 0; }";
    let source = format!("{}{main}", globals(u32::MAX));
    // The unit compilation would give `source` without its cap: the same
    // program with one-slot globals, then given `source`'s slots and
    // fingerprint.
    let mut unit = kremlin::ir::compile(&format!("{}{main}", globals(1)), NAME).unwrap();
    for g in &mut unit.module.globals {
        g.slots = u32::MAX;
    }
    unit.module.source_fp = kremlin::ir::source_fingerprint(NAME, &source);
    let last = unit.module.global_slots() - 1;
    forge_for(&unit, &source, &|rec| main_storing_to(rec, &unit, std::iter::once(last)))
}
