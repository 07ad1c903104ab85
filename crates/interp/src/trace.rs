//! Record-once / replay-many event traces.
//!
//! The interpreter drives an [`ExecHook`](crate::ExecHook) with the exact
//! event stream Kremlin's instrumented binaries feed KremLib (paper §3).
//! Historically every consumer had to re-run the interpreter to see that
//! stream — K depth shards meant K full interpretations. This module
//! decouples execution from analysis: [`record`] captures the stream once
//! into a compact [`Trace`], and [`replay`] drives any hook with a
//! byte-for-byte identical sequence of events, as many times as needed
//! and from as many threads as needed (`&Trace` is `Sync`).
//!
//! # Event encoding
//!
//! Events are packed into a byte stream of LEB128 varints. Every event
//! starts with one *head* varint `(payload << 4) | tag`; instruction
//! events with a resolved memory address append the address as a
//! zigzag-encoded delta against the previously recorded address (spatial
//! locality makes most deltas one byte), and phi events append the taken
//! source. A plain instruction on a small value id — the overwhelmingly
//! common case — is exactly one byte.
//!
//! The stream does not store operand lists, callee ids, or region kinds:
//! anything derivable from the static IR is looked up during replay, so
//! the trace stays proportional to the *dynamic* event count only.
//!
//! # File format
//!
//! [`Trace::to_bytes`] follows the `core/persist.rs` conventions (magic,
//! version, integrity check, graceful errors): a `kremlin-trace v2\n`
//! magic line, little-endian header fields, the embedded source (so a
//! trace file is self-contained and replayable without the original
//! `.kc` file), the event payload, and a trailing FNV-1a checksum over
//! every preceding byte. [`Trace::from_bytes`] never panics on foreign
//! input: truncation, bit flips, and version skew all surface as
//! [`TraceError`]s, and [`replay`] re-validates every decoded id against
//! the module before firing a hook method.
//!
//! # Versioning policy
//!
//! The magic line carries the format version. Readers reject any version
//! they do not know ([`TraceError::UnsupportedVersion`]); the encoding is
//! append-only within a version (new tags would bump it). A trace also
//! embeds a fingerprint of the module it was recorded from (its source
//! fingerprint and its shapes, see [`module_fingerprint`]), so replaying
//! against a different (or recompiled-and-changed) program fails fast
//! instead of producing garbage. Version 2 folded the source into that
//! fingerprint; v1 files are rejected.

use crate::error::InterpError;
use crate::hooks::{CallCtx, ExecHook, InstrCtx, RetCtx};
use crate::machine::{run_with_hook, MachineConfig, RunResult};
use kremlin_ir::{FuncId, Function, InstrKind, Module, RegionId, ValueId};
use std::fmt;

/// Magic line opening every trace file; the trailing digit is the format
/// version.
pub const TRACE_MAGIC: &[u8] = b"kremlin-trace v2\n";

// Event tags (low 4 bits of the head varint).
const TAG_INSTR: u8 = 0;
const TAG_INSTR_MEM: u8 = 1;
const TAG_INSTR_PHI: u8 = 2;
const TAG_CALL: u8 = 3;
const TAG_FUNC_ENTER: u8 = 4;
const TAG_RETURN: u8 = 5;
const TAG_REGION_ENTER: u8 = 6;
const TAG_REGION_EXIT: u8 = 7;
const TAG_CD_PUSH: u8 = 8;
const TAG_CD_POP: u8 = 9;

/// Errors from decoding or replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input does not start with a kremlin-trace magic line.
    BadMagic,
    /// The input is a kremlin trace of a version this reader rejects.
    UnsupportedVersion,
    /// The input ends before the declared structure is complete.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
    },
    /// The integrity checksum does not match the file contents.
    ChecksumMismatch,
    /// The trace was recorded from a different program than the one it is
    /// being replayed against.
    ModuleMismatch,
    /// The event stream is structurally invalid (bad id, broken nesting,
    /// malformed varint, ...).
    Corrupt {
        /// Byte offset of the offending event within the payload.
        offset: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a kremlin trace (bad magic)"),
            TraceError::UnsupportedVersion => {
                write!(f, "unsupported kremlin-trace version (this reader knows v2)")
            }
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated at byte {offset}")
            }
            TraceError::ChecksumMismatch => write!(f, "trace checksum mismatch (corrupt file)"),
            TraceError::ModuleMismatch => {
                write!(f, "trace was recorded from a different program")
            }
            TraceError::Corrupt { offset, message } => {
                write!(f, "corrupt trace event stream at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A recorded execution: the compact event stream plus the run metadata
/// needed to reproduce a [`RunResult`] without re-executing.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Source file name of the recorded program.
    pub source_name: String,
    /// Embedded program source; empty when not supplied. A trace with an
    /// embedded source is self-contained: `kremlin replay` recompiles it.
    pub source: String,
    fingerprint: u64,
    exit: i64,
    instrs_executed: u64,
    events: u64,
    max_depth: usize,
    bytes: Vec<u8>,
}

impl Trace {
    /// The recorded program's own result, without re-executing.
    pub fn run_result(&self) -> RunResult {
        RunResult { exit: self.exit, instrs_executed: self.instrs_executed }
    }

    /// Number of recorded hook events.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Maximum region/function nesting depth observed while recording —
    /// what depth-shard planners need, with no discovery pre-pass.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Size of the encoded event payload in bytes.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// [`module_fingerprint`] of the module this trace was recorded from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True when this trace was recorded from `module`: the same source,
    /// compiled to the same shapes.
    pub fn matches(&self, module: &Module) -> bool {
        self.fingerprint == module_fingerprint(module)
    }

    /// Serializes the trace to the on-disk format (see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes.len() + self.source.len() + 128);
        out.extend_from_slice(TRACE_MAGIC);
        push_u64(&mut out, self.fingerprint);
        push_u64(&mut out, self.exit as u64);
        push_u64(&mut out, self.instrs_executed);
        push_u64(&mut out, self.events);
        push_u64(&mut out, self.max_depth as u64);
        push_u64(&mut out, self.source_name.len() as u64);
        out.extend_from_slice(self.source_name.as_bytes());
        push_u64(&mut out, self.source.len() as u64);
        out.extend_from_slice(self.source.as_bytes());
        push_u64(&mut out, self.bytes.len() as u64);
        out.extend_from_slice(&self.bytes);
        let checksum = fnv1a(&out);
        push_u64(&mut out, checksum);
        out
    }

    /// Parses the on-disk format back into a trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] — never panics — on bad magic, unknown
    /// version, truncation at any byte, or checksum mismatch.
    pub fn from_bytes(data: &[u8]) -> Result<Trace, TraceError> {
        if data.len() < TRACE_MAGIC.len() {
            // A short prefix of the magic is still "not a trace" unless it
            // matches so far — call it truncated only when it does.
            return if TRACE_MAGIC.starts_with(data) {
                Err(TraceError::Truncated { offset: data.len() })
            } else {
                Err(TraceError::BadMagic)
            };
        }
        if &data[..TRACE_MAGIC.len()] != TRACE_MAGIC {
            return if data.starts_with(b"kremlin-trace ") {
                Err(TraceError::UnsupportedVersion)
            } else {
                Err(TraceError::BadMagic)
            };
        }
        let mut pos = TRACE_MAGIC.len();
        let fingerprint = read_u64(data, &mut pos)?;
        let exit = read_u64(data, &mut pos)? as i64;
        let instrs_executed = read_u64(data, &mut pos)?;
        let events = read_u64(data, &mut pos)?;
        let max_depth = read_u64(data, &mut pos)? as usize;
        let source_name = read_string(data, &mut pos)?;
        let source = read_string(data, &mut pos)?;
        let payload_len = read_u64(data, &mut pos)? as usize;
        if data.len() - pos < payload_len {
            return Err(TraceError::Truncated { offset: data.len() });
        }
        let bytes = data[pos..pos + payload_len].to_vec();
        pos += payload_len;
        let body_end = pos;
        let checksum = read_u64(data, &mut pos)?;
        if fnv1a(&data[..body_end]) != checksum {
            return Err(TraceError::ChecksumMismatch);
        }
        Ok(Trace {
            source_name,
            source,
            fingerprint,
            exit,
            instrs_executed,
            events,
            max_depth,
            bytes,
        })
    }
}

/// FNV-1a 64-bit hash — the integrity check and fingerprint primitive.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fingerprint of `module`: its source fingerprint
/// ([`kremlin_ir::source_fingerprint`], which covers every instruction
/// and constant), source name, function shapes and region count. Two
/// modules with the same fingerprint were compiled from the same source
/// and decode every recorded id to the same entity, which is all replay
/// relies on. Hashing a few words per function keeps it cheap: nothing
/// prints the module.
pub fn module_fingerprint(module: &Module) -> u64 {
    let mut buf = Vec::with_capacity(64 + module.funcs.len() * 24);
    push_u64(&mut buf, module.source_fp);
    buf.extend_from_slice(module.source_name.as_bytes());
    push_u64(&mut buf, module.funcs.len() as u64);
    for f in &module.funcs {
        push_u64(&mut buf, f.values.len() as u64);
        push_u64(&mut buf, f.frame_slots as u64);
        push_u64(&mut buf, u64::from(f.region.0));
    }
    push_u64(&mut buf, module.regions.len() as u64);
    fnv1a(&buf)
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(data: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let end = pos.checked_add(8).ok_or(TraceError::Truncated { offset: data.len() })?;
    let bytes = data.get(*pos..end).ok_or(TraceError::Truncated { offset: data.len() })?;
    *pos = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
}

fn read_string(data: &[u8], pos: &mut usize) -> Result<String, TraceError> {
    let len = read_u64(data, pos)? as usize;
    let end = pos.checked_add(len).ok_or(TraceError::Truncated { offset: data.len() })?;
    let bytes = data.get(*pos..end).ok_or(TraceError::Truncated { offset: data.len() })?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::Corrupt {
        offset: *pos,
        message: "embedded string is not UTF-8".into(),
    })
}

#[inline]
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// An [`ExecHook`] that encodes the event stream; feed it to
/// [`run_with_hook`] (or use the [`record`] convenience) and convert with
/// [`Recorder::into_trace`].
#[derive(Debug, Default)]
pub struct Recorder {
    bytes: Vec<u8>,
    events: u64,
    last_addr: u64,
    depth: usize,
    max_depth: usize,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    #[inline]
    fn event(&mut self, tag: u8, payload: u64) {
        self.events += 1;
        push_varint(&mut self.bytes, (payload << 4) | u64::from(tag));
    }

    #[inline]
    fn enter(&mut self) {
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
    }

    /// Finalizes the recording into a [`Trace`] for `module` (the module
    /// that was just executed) and its completed `run`.
    pub fn into_trace(self, module: &Module, run: RunResult) -> Trace {
        Trace {
            source_name: module.source_name.clone(),
            source: String::new(),
            fingerprint: module_fingerprint(module),
            exit: run.exit,
            instrs_executed: run.instrs_executed,
            events: self.events,
            max_depth: self.max_depth,
            bytes: self.bytes,
        }
    }
}

impl ExecHook for Recorder {
    fn on_instr(&mut self, ctx: &InstrCtx<'_>) {
        let idx = ctx.value.index() as u64;
        match (ctx.mem_addr, ctx.phi_source) {
            (Some(addr), _) => {
                self.event(TAG_INSTR_MEM, idx);
                let delta = addr.wrapping_sub(self.last_addr) as i64;
                push_varint(&mut self.bytes, zigzag(delta));
                self.last_addr = addr;
            }
            (None, Some(src)) => {
                self.event(TAG_INSTR_PHI, idx);
                push_varint(&mut self.bytes, src.index() as u64);
            }
            (None, None) => self.event(TAG_INSTR, idx),
        }
    }

    fn on_call(&mut self, ctx: &CallCtx<'_>) {
        self.event(TAG_CALL, ctx.call_value.index() as u64);
    }

    fn on_function_enter(&mut self, func: FuncId, _region: RegionId) {
        self.event(TAG_FUNC_ENTER, u64::from(func.0));
        self.enter();
    }

    fn on_return(&mut self, ctx: &RetCtx) {
        let payload = ctx.returned.map_or(0, |v| v.index() as u64 + 1);
        self.event(TAG_RETURN, payload);
        self.depth -= 1;
    }

    fn on_region_enter(&mut self, region: RegionId) {
        self.event(TAG_REGION_ENTER, u64::from(region.0));
        self.enter();
    }

    fn on_region_exit(&mut self, region: RegionId) {
        self.event(TAG_REGION_EXIT, u64::from(region.0));
        self.depth -= 1;
    }

    fn on_cd_push(&mut self, cond: ValueId) {
        self.event(TAG_CD_PUSH, cond.index() as u64);
    }

    fn on_cd_pop(&mut self) {
        self.event(TAG_CD_POP, 0);
    }
}

/// Executes `module` once while recording its full event stream.
///
/// # Errors
///
/// Propagates interpreter failures; a trace is only produced for runs
/// that complete.
pub fn record(module: &Module, config: MachineConfig) -> Result<Trace, InterpError> {
    let _span = kremlin_obs::span("record");
    let mut rec = Recorder::new();
    let run = run_with_hook(module, &mut rec, config)?;
    let trace = rec.into_trace(module, run);
    kremlin_obs::counter!("trace.record.runs").incr();
    kremlin_obs::counter!("trace.record.events").add(trace.events);
    kremlin_obs::counter!("trace.record.bytes").add(trace.bytes.len() as u64);
    Ok(trace)
}

/// `hook`'s [`ExecHook::selects_instr`] answer for every value of every
/// function of `module`, asked once before a replay delivers any event.
fn selection<H: ExecHook>(module: &Module, hook: &H) -> Vec<Vec<bool>> {
    module
        .funcs
        .iter()
        .map(|f| {
            (0..f.values.len()).map(|v| hook.selects_instr(f.id, ValueId::from_index(v))).collect()
        })
        .collect()
}

/// One open bracket while validating replay nesting.
enum Open {
    Region(u32),
    Func,
}

/// Replays a recorded trace into `hook`, firing an event sequence
/// observably identical to the live [`run_with_hook`] execution the trace
/// was recorded from — without re-executing anything.
///
/// Every decoded id is validated against `module` and the region/function
/// bracket structure is checked before each event fires, so a corrupt or
/// adversarial trace yields a [`TraceError`], never a panicked hook. Every
/// event is validated, but only the instruction events the hook selects
/// ([`ExecHook::selects_instr`]) are delivered.
///
/// # Errors
///
/// [`TraceError::ModuleMismatch`] when the trace was recorded from a
/// different program; [`TraceError::Corrupt`] for any structural damage.
pub fn replay<H: ExecHook>(
    trace: &Trace,
    module: &Module,
    hook: &mut H,
) -> Result<RunResult, TraceError> {
    let _span = kremlin_obs::span("replay");
    let run = replay_into(trace, module, hook)?;
    kremlin_obs::counter!("trace.replay.runs").incr();
    kremlin_obs::counter!("trace.replay.events").add(trace.events);
    Ok(run)
}

/// The shared decode-validate-dispatch loop behind [`replay`] and
/// [`DecodedTrace::decode`]: everything except the span and the
/// `trace.replay.*` counters, so decoding a trace is not misreported as
/// replaying it.
fn replay_into<H: ExecHook>(
    trace: &Trace,
    module: &Module,
    hook: &mut H,
) -> Result<RunResult, TraceError> {
    if !trace.matches(module) {
        return Err(TraceError::ModuleMismatch);
    }
    let corrupt = |offset: usize, message: String| TraceError::Corrupt { offset, message };
    let selected = selection(module, hook);

    let data = &trace.bytes[..];
    let mut pos = 0usize;
    let mut decoded: u64 = 0;
    let mut funcs: Vec<FuncId> = Vec::new();
    let mut open: Vec<Open> = Vec::new();
    let mut cd_depth = 0usize;
    let mut last_addr = 0u64;

    // One inlined varint reader over the local cursor.
    macro_rules! varint {
        () => {{
            let mut shift = 0u32;
            let mut out = 0u64;
            loop {
                let Some(&b) = data.get(pos) else {
                    return Err(corrupt(pos, "stream ends mid-varint".into()));
                };
                pos += 1;
                out |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    break out;
                }
                shift += 7;
                if shift >= 64 {
                    return Err(corrupt(pos, "oversized varint".into()));
                }
            }
        }};
    }

    while pos < data.len() {
        let at = pos;
        let head: u64 = varint!();
        let tag = (head & 0xf) as u8;
        let payload = head >> 4;
        decoded += 1;

        match tag {
            TAG_INSTR | TAG_INSTR_MEM | TAG_INSTR_PHI | TAG_CALL | TAG_CD_PUSH => {
                let Some(&fid) = funcs.last() else {
                    return Err(corrupt(at, "event outside any function".into()));
                };
                let func = module.func(fid);
                let idx = payload as usize;
                if idx >= func.values.len() {
                    return Err(corrupt(at, format!("value v{idx} out of range in {fid}")));
                }
                let value = ValueId::from_index(idx);
                let kind = &func.value(value).kind;
                let deliver = selected[fid.index()][idx];
                match tag {
                    TAG_INSTR => {
                        if matches!(
                            kind,
                            InstrKind::Load(_) | InstrKind::Store { .. } | InstrKind::Phi { .. }
                        ) {
                            return Err(corrupt(at, format!("{value} needs a memory/phi payload")));
                        }
                        if deliver {
                            hook.on_instr(&InstrCtx {
                                func,
                                value,
                                kind,
                                mem_addr: None,
                                phi_source: None,
                            });
                        }
                    }
                    TAG_INSTR_MEM => {
                        if !matches!(kind, InstrKind::Load(_) | InstrKind::Store { .. }) {
                            return Err(corrupt(
                                at,
                                format!("{value} is not a memory instruction"),
                            ));
                        }
                        let delta = unzigzag(varint!());
                        let addr = last_addr.wrapping_add(delta as u64);
                        last_addr = addr;
                        if deliver {
                            hook.on_instr(&InstrCtx {
                                func,
                                value,
                                kind,
                                mem_addr: Some(addr),
                                phi_source: None,
                            });
                        }
                    }
                    TAG_INSTR_PHI => {
                        if !matches!(kind, InstrKind::Phi { .. }) {
                            return Err(corrupt(at, format!("{value} is not a phi")));
                        }
                        let src = varint!() as usize;
                        if src >= func.values.len() {
                            return Err(corrupt(at, format!("phi source v{src} out of range")));
                        }
                        if deliver {
                            hook.on_instr(&InstrCtx {
                                func,
                                value,
                                kind,
                                mem_addr: None,
                                phi_source: Some(ValueId::from_index(src)),
                            });
                        }
                    }
                    TAG_CALL => {
                        let InstrKind::Call { func: callee, args } = kind else {
                            return Err(corrupt(at, format!("{value} is not a call")));
                        };
                        let callee_region = module.func(*callee).region;
                        hook.on_call(&CallCtx {
                            caller: func,
                            callee: *callee,
                            callee_region,
                            args,
                            call_value: value,
                        });
                    }
                    _ => {
                        // TAG_CD_PUSH
                        hook.on_cd_push(value);
                        cd_depth += 1;
                    }
                }
            }
            TAG_FUNC_ENTER => {
                let idx = payload as usize;
                if idx >= module.funcs.len() {
                    return Err(corrupt(at, format!("function fn{idx} out of range")));
                }
                let fid = FuncId::from_index(idx);
                funcs.push(fid);
                open.push(Open::Func);
                hook.on_function_enter(fid, module.func(fid).region);
            }
            TAG_RETURN => {
                let Some(&fid) = funcs.last() else {
                    return Err(corrupt(at, "return outside any function".into()));
                };
                match open.pop() {
                    Some(Open::Func) => {}
                    _ => return Err(corrupt(at, "return crosses an open region".into())),
                }
                let func = module.func(fid);
                let returned = match payload {
                    0 => None,
                    v => {
                        let idx = v as usize - 1;
                        if idx >= func.values.len() {
                            return Err(corrupt(at, format!("returned value v{idx} out of range")));
                        }
                        Some(ValueId::from_index(idx))
                    }
                };
                hook.on_return(&RetCtx { func: fid, region: func.region, returned });
                funcs.pop();
            }
            TAG_REGION_ENTER => {
                let idx = payload as usize;
                if idx >= module.regions.len() {
                    return Err(corrupt(at, format!("region r{idx} out of range")));
                }
                if funcs.is_empty() {
                    return Err(corrupt(at, "region outside any function".into()));
                }
                let rid = RegionId(idx as u32);
                open.push(Open::Region(rid.0));
                hook.on_region_enter(rid);
            }
            TAG_REGION_EXIT => {
                let idx = payload as usize;
                if idx >= module.regions.len() {
                    return Err(corrupt(at, format!("region r{idx} out of range")));
                }
                match open.pop() {
                    Some(Open::Region(r)) if r == idx as u32 => {}
                    _ => return Err(corrupt(at, format!("region exit r{idx} mismatched"))),
                }
                hook.on_region_exit(RegionId(idx as u32));
            }
            TAG_CD_POP => {
                if cd_depth == 0 {
                    return Err(corrupt(at, "cd pop without a push".into()));
                }
                cd_depth -= 1;
                hook.on_cd_pop();
            }
            other => return Err(corrupt(at, format!("unknown event tag {other}"))),
        }
    }

    if !open.is_empty() || cd_depth != 0 {
        return Err(corrupt(pos, "trace ends mid-execution (open brackets)".into()));
    }
    if decoded != trace.events {
        return Err(corrupt(
            pos,
            format!("event count mismatch: header says {}, decoded {decoded}", trace.events),
        ));
    }
    Ok(trace.run_result())
}

/// A fully decoded, validated, in-memory form of a [`Trace`]: the varint
/// stream expanded once into structure-of-arrays event buffers so that
/// [`replay_decoded`] can re-fire the event sequence with zero decode
/// work per pass.
///
/// This is an in-memory *representation*, not a format: the on-disk
/// trace stays `kremlin-trace v2`, and [`DecodedTrace::decode`] accepts
/// exactly the traces [`replay`] accepts (it runs the same validating
/// decode loop). K depth-shard workers replaying a shared
/// `&DecodedTrace` pay the LEB128/zigzag decode once instead of K times;
/// [`arena_bytes`](DecodedTrace::arena_bytes) reports what holding the
/// arena costs.
///
/// Layout: one tag byte and one `u32` payload per event (parallel
/// arrays), plus side arrays consumed in order by cursors during
/// replay — resolved *absolute* memory addresses (one per mem event, the
/// zigzag delta chain already applied) and phi sources (one per phi
/// event). Each event is annotated with its region/function nesting
/// depth, and the decode pass accumulates a per-depth histogram of
/// instruction events as a free by-product — the cost model
/// [`per_depth_cost`](DecodedTrace::per_depth_cost) that weighted shard
/// planning runs on.
#[derive(Debug, Clone)]
pub struct DecodedTrace {
    fingerprint: u64,
    exit: i64,
    instrs_executed: u64,
    max_depth: usize,
    tags: Vec<u8>,
    payloads: Vec<u32>,
    depths: Vec<u16>,
    mem_addrs: Vec<u64>,
    phi_sources: Vec<u32>,
    instr_depth_hist: Vec<u64>,
    region_enter_hist: Vec<u64>,
}

/// The [`ExecHook`] that builds a [`DecodedTrace`] while the validating
/// replay loop drives it: the inverse of [`Recorder`], but into SoA
/// buffers instead of varints.
#[derive(Debug, Default)]
struct ArenaBuilder {
    tags: Vec<u8>,
    payloads: Vec<u32>,
    depths: Vec<u16>,
    mem_addrs: Vec<u64>,
    phi_sources: Vec<u32>,
    instr_depth_hist: Vec<u64>,
    region_enter_hist: Vec<u64>,
    depth: usize,
    too_deep: bool,
}

impl ArenaBuilder {
    #[inline]
    fn event(&mut self, tag: u8, payload: u64) {
        self.tags.push(tag);
        // Every valid payload was range-checked against a module entity
        // count by the replay loop, so the cast cannot truncate (cd-pop
        // payloads are 0 by construction and never read back).
        self.payloads.push(payload as u32);
        self.depths.push(self.depth as u16);
        self.too_deep |= self.depth > usize::from(u16::MAX);
    }

    #[inline]
    fn bump(hist: &mut Vec<u64>, depth: usize) {
        if depth >= hist.len() {
            hist.resize(depth + 1, 0);
        }
        hist[depth] += 1;
    }

    #[inline]
    fn instr_at_depth(&mut self) {
        Self::bump(&mut self.instr_depth_hist, self.depth);
    }

    /// Called for function and region enters alike: the new region
    /// instance lands at stack position `self.depth` (the pre-push
    /// nesting depth), which is the tracked-depth index its
    /// instance-churn cost accrues to.
    #[inline]
    fn enter_at_depth(&mut self) {
        Self::bump(&mut self.region_enter_hist, self.depth);
    }
}

impl ExecHook for ArenaBuilder {
    fn on_instr(&mut self, ctx: &InstrCtx<'_>) {
        let idx = ctx.value.index() as u64;
        match (ctx.mem_addr, ctx.phi_source) {
            (Some(addr), _) => {
                self.event(TAG_INSTR_MEM, idx);
                self.mem_addrs.push(addr);
            }
            (None, Some(src)) => {
                self.event(TAG_INSTR_PHI, idx);
                self.phi_sources.push(src.index() as u32);
            }
            (None, None) => self.event(TAG_INSTR, idx),
        }
        self.instr_at_depth();
    }

    fn on_call(&mut self, ctx: &CallCtx<'_>) {
        self.event(TAG_CALL, ctx.call_value.index() as u64);
    }

    fn on_function_enter(&mut self, func: FuncId, _region: RegionId) {
        self.event(TAG_FUNC_ENTER, u64::from(func.0));
        self.enter_at_depth();
        self.depth += 1;
    }

    fn on_return(&mut self, ctx: &RetCtx) {
        self.event(TAG_RETURN, ctx.returned.map_or(0, |v| v.index() as u64 + 1));
        self.depth -= 1;
    }

    fn on_region_enter(&mut self, region: RegionId) {
        self.event(TAG_REGION_ENTER, u64::from(region.0));
        self.enter_at_depth();
        self.depth += 1;
    }

    fn on_region_exit(&mut self, region: RegionId) {
        self.event(TAG_REGION_EXIT, u64::from(region.0));
        self.depth -= 1;
    }

    fn on_cd_push(&mut self, cond: ValueId) {
        self.event(TAG_CD_PUSH, cond.index() as u64);
    }

    fn on_cd_pop(&mut self) {
        self.event(TAG_CD_POP, 0);
    }
}

impl DecodedTrace {
    /// Decodes and validates `trace` in one pass.
    ///
    /// Runs the exact [`replay`] decode loop (every id bounds-checked,
    /// every bracket balanced), so this accepts precisely the traces the
    /// streaming path accepts — and a decoded trace never needs
    /// re-validating.
    ///
    /// # Errors
    ///
    /// [`TraceError::ModuleMismatch`] when the trace was recorded from a
    /// different program; [`TraceError::Corrupt`] for structural damage
    /// or nesting too deep to annotate (more than `u16::MAX` levels).
    pub fn decode(trace: &Trace, module: &Module) -> Result<DecodedTrace, TraceError> {
        let _span = kremlin_obs::span("decode");
        let mut builder = ArenaBuilder::default();
        builder.tags.reserve(trace.events as usize);
        builder.payloads.reserve(trace.events as usize);
        builder.depths.reserve(trace.events as usize);
        let run = replay_into(trace, module, &mut builder)?;
        if builder.too_deep {
            return Err(TraceError::Corrupt {
                offset: 0,
                message: "nesting exceeds u16::MAX, too deep to annotate".into(),
            });
        }
        let decoded = DecodedTrace {
            fingerprint: trace.fingerprint,
            exit: run.exit,
            instrs_executed: run.instrs_executed,
            max_depth: trace.max_depth,
            tags: builder.tags,
            payloads: builder.payloads,
            depths: builder.depths,
            mem_addrs: builder.mem_addrs,
            phi_sources: builder.phi_sources,
            instr_depth_hist: builder.instr_depth_hist,
            region_enter_hist: builder.region_enter_hist,
        };
        kremlin_obs::counter!("trace.decode.runs").incr();
        kremlin_obs::counter!("trace.decode.events").add(decoded.events());
        kremlin_obs::counter!("trace.decode.bytes").add(decoded.arena_bytes() as u64);
        Ok(decoded)
    }

    /// The recorded program's own result, without re-executing.
    pub fn run_result(&self) -> RunResult {
        RunResult { exit: self.exit, instrs_executed: self.instrs_executed }
    }

    /// Number of decoded events.
    pub fn events(&self) -> u64 {
        self.tags.len() as u64
    }

    /// Maximum region/function nesting depth of the recorded execution.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// [`module_fingerprint`] of the module this trace was recorded from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True when this trace was recorded from `module`: the same source,
    /// compiled to the same shapes.
    pub fn matches(&self, module: &Module) -> bool {
        self.fingerprint == module_fingerprint(module)
    }

    /// Per-event nesting depth annotations (parallel to the event order).
    pub fn depths(&self) -> &[u16] {
        &self.depths
    }

    /// Instruction events observed per nesting depth — the raw histogram
    /// accumulated for free during [`decode`](DecodedTrace::decode).
    pub fn instr_depth_hist(&self) -> &[u64] {
        &self.instr_depth_hist
    }

    /// Region/function enter events per stack position: entry `p`
    /// counts the region instances created at nesting depth `p` (the
    /// pre-push depth — where the new instance lands on the region
    /// stack). Accumulated for free during
    /// [`decode`](DecodedTrace::decode); the instance-churn term of
    /// weighted shard cost models.
    pub fn region_enter_hist(&self) -> &[u64] {
        &self.region_enter_hist
    }

    /// Estimated profiler cost of tracking each depth, for weighted
    /// shard planning.
    ///
    /// The HCPA profiler does per-depth work for an instruction at
    /// nesting depth `D` at every tracked depth `d < D` (time
    /// propagation touches all enclosing levels), so the cost of owning
    /// depth `d` is the number of instruction events strictly deeper
    /// than it: the suffix sums of
    /// [`instr_depth_hist`](DecodedTrace::instr_depth_hist). The result
    /// is nonincreasing in `d` and has one entry per depth that does any
    /// work.
    #[must_use]
    pub fn per_depth_cost(&self) -> Vec<u64> {
        let hist = &self.instr_depth_hist;
        if hist.is_empty() {
            return Vec::new();
        }
        let mut cost = vec![0u64; hist.len() - 1];
        let mut deeper = 0u64;
        for d in (0..cost.len()).rev() {
            deeper += hist[d + 1];
            cost[d] = deeper;
        }
        cost
    }

    /// Resident size of the decoded arena in bytes — what a cache holding
    /// decoded traces charges for one.
    pub fn arena_bytes(&self) -> usize {
        self.tags.len()
            + self.payloads.len() * 4
            + self.depths.len() * 2
            + self.mem_addrs.len() * 8
            + self.phi_sources.len() * 4
            + self.instr_depth_hist.len() * 8
            + self.region_enter_hist.len() * 8
    }
}

/// Replays a decoded trace into `hook`, firing the exact event sequence
/// of the streaming [`replay`] — bit-identical hook inputs — with zero
/// varint work: one tag-dispatch per event over cache-friendly
/// sequential buffers.
///
/// Validation already happened in [`DecodedTrace::decode`]; only the
/// module fingerprint is re-checked, so a decoded arena can be replayed
/// many times (and from many threads, `&DecodedTrace` is `Sync`) at the
/// cost of a dispatch loop. Only the instruction events the hook selects
/// ([`ExecHook::selects_instr`]) are delivered.
///
/// # Errors
///
/// [`TraceError::ModuleMismatch`] when `module` does not have the
/// [`module_fingerprint`] of the module the trace was decoded against.
pub fn replay_decoded<H: ExecHook>(
    decoded: &DecodedTrace,
    module: &Module,
    hook: &mut H,
) -> Result<RunResult, TraceError> {
    // Shares the streaming path's phase name so "replay" spans stay
    // comparable across strategies; decode time shows up under "decode".
    let _span = kremlin_obs::span("replay");
    if !decoded.matches(module) {
        return Err(TraceError::ModuleMismatch);
    }
    let selected = selection(module, hook);
    let mut funcs: Vec<(FuncId, &Function, &[bool])> = Vec::new();
    let mut mem = 0usize;
    let mut phi = 0usize;
    for (&tag, &payload) in decoded.tags.iter().zip(&decoded.payloads) {
        let idx = payload as usize;
        match tag {
            TAG_INSTR | TAG_INSTR_MEM | TAG_INSTR_PHI => {
                let &(_, func, deliver) = funcs.last().expect("decode validated function nesting");
                let (mem_addr, phi_source) = match tag {
                    TAG_INSTR_MEM => {
                        mem += 1;
                        (Some(decoded.mem_addrs[mem - 1]), None)
                    }
                    TAG_INSTR_PHI => {
                        phi += 1;
                        (None, Some(ValueId::from_index(decoded.phi_sources[phi - 1] as usize)))
                    }
                    _ => (None, None),
                };
                if deliver[idx] {
                    let value = ValueId::from_index(idx);
                    let kind = &func.value(value).kind;
                    hook.on_instr(&InstrCtx { func, value, kind, mem_addr, phi_source });
                }
            }
            TAG_CALL => {
                let (_, func, _) = funcs.last().expect("decode validated function nesting");
                let value = ValueId::from_index(idx);
                let InstrKind::Call { func: callee, args } = &func.value(value).kind else {
                    unreachable!("decode validated call events");
                };
                hook.on_call(&CallCtx {
                    caller: func,
                    callee: *callee,
                    callee_region: module.func(*callee).region,
                    args,
                    call_value: value,
                });
            }
            TAG_FUNC_ENTER => {
                let fid = FuncId::from_index(idx);
                let func = module.func(fid);
                funcs.push((fid, func, &selected[idx]));
                hook.on_function_enter(fid, func.region);
            }
            TAG_RETURN => {
                let (fid, func, _) = *funcs.last().expect("decode validated function nesting");
                let returned = match idx {
                    0 => None,
                    v => Some(ValueId::from_index(v - 1)),
                };
                hook.on_return(&RetCtx { func: fid, region: func.region, returned });
                funcs.pop();
            }
            TAG_REGION_ENTER => hook.on_region_enter(RegionId(payload)),
            TAG_REGION_EXIT => hook.on_region_exit(RegionId(payload)),
            TAG_CD_PUSH => hook.on_cd_push(ValueId::from_index(idx)),
            TAG_CD_POP => hook.on_cd_pop(),
            _ => unreachable!("decode validated event tags"),
        }
    }
    kremlin_obs::counter!("trace.replay.runs").incr();
    kremlin_obs::counter!("trace.replay.events").add(decoded.events());
    Ok(decoded.run_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::TraceHook;
    use kremlin_ir::compile;

    const SRC: &str = "float a[32];\n\
        float f(float x) { return sqrt(x) + 1.0; }\n\
        int main() {\n\
          float s = 0.0;\n\
          for (int i = 0; i < 16; i++) { a[i] = f((float) i); s += a[i]; }\n\
          return (int) s;\n\
        }";

    fn recorded() -> (kremlin_ir::CompiledUnit, Trace) {
        let unit = compile(SRC, "t.kc").unwrap();
        let trace = record(&unit.module, MachineConfig::default()).unwrap();
        (unit, trace)
    }

    /// One run records, another observes live: replaying the recording
    /// fires the live run's marker stream.
    #[test]
    fn replay_fires_an_identical_marker_stream() {
        let (unit, trace) = recorded();
        let mut live = TraceHook::default();
        let run = run_with_hook(&unit.module, &mut live, MachineConfig::default()).unwrap();
        live.check_nesting().unwrap();
        let mut replayed = TraceHook::default();
        let rrun = replay(&trace, &unit.module, &mut replayed).unwrap();
        assert_eq!(run, rrun);
        assert_eq!(live.events, replayed.events);
        assert_eq!(run, trace.run_result());
    }

    #[test]
    fn recorder_tracks_nesting_depth() {
        let (unit, trace) = recorded();
        let mut probe = TraceHook::default();
        run_with_hook(&unit.module, &mut probe, MachineConfig::default()).unwrap();
        assert_eq!(trace.max_depth(), probe.check_nesting().unwrap());
        assert!(trace.events() > 0);
        assert!(trace.encoded_len() > 0);
        // Compactness: far fewer bytes than a naive 16-byte event record.
        assert!((trace.encoded_len() as u64) < trace.events() * 4, "{}", trace.encoded_len());
    }

    #[test]
    fn file_round_trip_is_lossless() {
        let (unit, mut trace) = recorded();
        trace.source = SRC.to_owned();
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(back.source_name, trace.source_name);
        assert_eq!(back.source, SRC);
        assert_eq!(back.fingerprint(), trace.fingerprint());
        assert_eq!(back.run_result(), trace.run_result());
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.max_depth(), trace.max_depth());
        let mut hook = TraceHook::default();
        replay(&back, &unit.module, &mut hook).unwrap();
        hook.check_nesting().unwrap();
    }

    #[test]
    fn every_truncation_is_rejected_without_panic() {
        let (_, trace) = recorded();
        let bytes = trace.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Trace::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let (_, trace) = recorded();
        let bytes = trace.to_bytes();
        let step = (bytes.len() / 97).max(1);
        for i in (0..bytes.len()).step_by(step) {
            let mut dam = bytes.clone();
            dam[i] ^= 0x40;
            assert!(Trace::from_bytes(&dam).is_err(), "flip at byte {i} must not parse");
        }
    }

    #[test]
    fn version_1_files_are_unsupported() {
        let (_, trace) = recorded();
        let mut bytes = trace.to_bytes();
        bytes[..TRACE_MAGIC.len()].copy_from_slice(b"kremlin-trace v1\n");
        assert_eq!(Trace::from_bytes(&bytes).unwrap_err(), TraceError::UnsupportedVersion);
    }

    #[test]
    fn replay_against_the_wrong_module_fails() {
        let (_, trace) = recorded();
        let other = compile("int main() { return 3; }", "other.kc").unwrap();
        let e = replay(&trace, &other.module, &mut crate::NullHook).unwrap_err();
        assert_eq!(e, TraceError::ModuleMismatch);
    }

    #[test]
    fn corrupt_event_stream_is_a_clean_error() {
        let (unit, trace) = recorded();
        // Damage the payload directly (bypassing the checksum) to prove the
        // replay-side validation stands on its own.
        for (i, flip) in [(0usize, 0xffu8), (3, 0x3f), (10, 0x70)] {
            let mut dam = trace.clone();
            if i < dam.bytes.len() {
                dam.bytes[i] ^= flip;
                let _ = replay(&dam, &unit.module, &mut crate::NullHook);
            }
        }
        // An empty stream with a nonzero event count is inconsistent.
        let mut empty = trace.clone();
        empty.bytes.clear();
        assert!(matches!(
            replay(&empty, &unit.module, &mut crate::NullHook),
            Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn decoded_replay_fires_the_identical_event_stream() {
        let (unit, trace) = recorded();
        let mut streamed = TraceHook::default();
        let run = replay(&trace, &unit.module, &mut streamed).unwrap();
        let decoded = DecodedTrace::decode(&trace, &unit.module).unwrap();
        let mut arena = TraceHook::default();
        let drun = replay_decoded(&decoded, &unit.module, &mut arena).unwrap();
        assert_eq!(run, drun);
        assert_eq!(streamed.events, arena.events, "decoded replay must be bit-identical");
        assert_eq!(decoded.events(), trace.events());
        assert_eq!(decoded.max_depth(), trace.max_depth());
        assert_eq!(decoded.run_result(), trace.run_result());
    }

    #[test]
    fn decode_histogram_is_consistent() {
        let (unit, trace) = recorded();
        let decoded = DecodedTrace::decode(&trace, &unit.module).unwrap();
        let hist = decoded.instr_depth_hist();
        assert_eq!(hist.first(), Some(&0), "no instruction fires outside main");
        assert!(hist.len() <= decoded.max_depth() + 1);
        // Depth annotations and the histogram are two views of one count.
        let mut by_depth = vec![0u64; hist.len()];
        for (i, &d) in decoded.depths().iter().enumerate() {
            // Private-field access: tags is in-module here.
            if decoded.tags[i] <= TAG_INSTR_PHI {
                by_depth[usize::from(d)] += 1;
            }
        }
        assert_eq!(by_depth, hist);
        // The cost model is the suffix sums: nonincreasing, starting at
        // the total instruction event count.
        let cost = decoded.per_depth_cost();
        assert_eq!(cost.len(), hist.len() - 1);
        assert_eq!(cost[0], hist.iter().sum::<u64>());
        assert!(cost.windows(2).all(|w| w[0] >= w[1]), "{cost:?}");
        assert!(decoded.arena_bytes() > 0);
    }

    #[test]
    fn decoded_replay_against_the_wrong_module_fails() {
        let (unit, trace) = recorded();
        let decoded = DecodedTrace::decode(&trace, &unit.module).unwrap();
        let other = compile("int main() { return 3; }", "other.kc").unwrap();
        let e = replay_decoded(&decoded, &other.module, &mut crate::NullHook).unwrap_err();
        assert_eq!(e, TraceError::ModuleMismatch);
        let e = DecodedTrace::decode(&trace, &other.module).unwrap_err();
        assert_eq!(e, TraceError::ModuleMismatch);
    }

    #[test]
    fn decode_rejects_what_streaming_replay_rejects() {
        let (unit, trace) = recorded();
        let mut empty = trace.clone();
        empty.bytes.clear();
        assert!(matches!(
            DecodedTrace::decode(&empty, &unit.module),
            Err(TraceError::Corrupt { .. })
        ));
        // Same damaged payloads as the streaming-side corruption test:
        // both decoders must agree event-stream damage is an error, never
        // a panic.
        for (i, flip) in [(0usize, 0xffu8), (3, 0x3f), (10, 0x70)] {
            let mut dam = trace.clone();
            if i < dam.bytes.len() {
                dam.bytes[i] ^= flip;
                let streamed = replay(&dam, &unit.module, &mut crate::NullHook).is_err();
                let decoded = DecodedTrace::decode(&dam, &unit.module).is_err();
                assert_eq!(streamed, decoded, "paths disagree on damage at byte {i}");
            }
        }
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            let mut shift = 0;
            let mut out = 0u64;
            loop {
                let b = buf[pos];
                pos += 1;
                out |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            assert_eq!(out, v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
