//! The hierarchical critical path analysis profiler.
//!
//! Implements [`ExecHook`]: for every executed instruction it updates one
//! availability time **per active region-nesting depth** (paper §4.2 —
//! "we must run separate critical path analyses across each nested dynamic
//! region"), tracks per-region work, and on region exit interns a
//! `(static region, work, cp, children)` summary into the compression
//! dictionary (§4.4).
//!
//! Dependence rules (§4.1):
//!
//! * data dependencies through SSA values and memory, with **false
//!   dependencies factored out** (writes never depend on the old value);
//! * control dependencies via the condition times pushed on the
//!   control-dependence stack (times only increase, so only the top is
//!   consulted);
//! * induction/reduction updates ignore their old-value operand when
//!   [`HcpaConfig::break_carried_deps`] is set (the default — turning it
//!   off is the ablation that makes most loops look serial).
//!
//! # Hot path
//!
//! [`Profiler::on_instr`] runs once per committed instruction and is
//! where nearly all profiling time goes, so each event does only the
//! dependence work HCPA defines:
//!
//! * **Pre-resolved op table.** [`Profiler::new`] resolves every value of
//!   every function once: its latency, its class (folded, parameter,
//!   phi, load, store or other) and its committed inputs, with the
//!   broken dependence already removed. An event indexes the table by
//!   function and value instead of matching on the instruction.
//! * **Segment folding.** Most values never leave the straight-line run
//!   that computes them. Each block is split into *segments* at region
//!   and control-dependence markers and at calls; inside a segment the
//!   control-dependence top, the open region tags and the tracked range
//!   are constant. A value is **committed** if it is a parameter, phi,
//!   load or store, if it is used outside its segment or by a phi, a
//!   call, a `cd.push`, a branch or a return, or if nothing in its
//!   segment reads it (a consumer that breaks its dependence on the value
//!   does not read it). Every other value is **folded**: no shadow read,
//!   no write, no per-depth loop, and no event at all — the profiler
//!   selects only committed values ([`ExecHook::selects_instr`]), and
//!   each committed value's event also counts the folded values run
//!   since the previous committed value of its segment and accrues their
//!   latency. The sink rule ends every segment in a committed value, so
//!   the counts and the work stay exact. A committed value reads its
//!   committed inputs instead, each with the longest static latency path
//!   to the value through folded values (the value's own latency
//!   included), and seeds its times with the control-dependence top plus
//!   one more offset, the longest such path of all. This is exact: times
//!   are max-plus expressions and `+` distributes over `max`; a folded
//!   value's run would have been written and read back in the same
//!   segment with a full valid prefix, so its formula can stand in for
//!   it; an input still reads only its own valid prefix, and the seed
//!   offset covers every input's offset on the depths past it; and a
//!   folded value's time never exceeds that of the committed value that
//!   reads it (transitively), so the region critical paths do not
//!   change.
//! * **One commit pass.** The per-depth times start as the
//!   control-dependence top plus the seed offset; each committed input
//!   (operand, phi source, call argument or loaded location) folds in
//!   its valid times plus its offset with one [`ShadowRegs::read_run`] /
//!   [`ShadowMemory::read_run`]; then one loop writes the destination's
//!   stamped run and folds each open region's critical path, kept in a
//!   flat array beside the region tags. The latency is already in the
//!   offsets, so the commit adds nothing.
//! * **O(1) work.** A single global latency counter advances per event,
//!   and each region's work is the counter delta across its lifetime
//!   (plus call latencies credited at tracked depths).
//! * **Allocation-free region exit.** The children of every open region
//!   share one stack, innermost region on top; a child appended right
//!   after an equal child merges into its run (a loop appends the same
//!   body entry again and again). At exit the region's children are
//!   interned by reference ([`Dictionary::intern`] sorts and merges them
//!   and allocates only for a new summary) and truncated.
//!
//! Shadow state lives in the stamped stores of [`crate::shadow`]. The
//! full pre-optimization profiler — the `BENCH_profiler.json` baseline
//! and the differential-test reference — is kept frozen in
//! [`crate::seed`].

use crate::cost::CostModel;
use crate::shadow::{ShadowMemory, ShadowRegs};
use kremlin_compress::{Dictionary, EntryId};
use kremlin_interp::{CallCtx, ExecHook, InstrCtx, RetCtx};
use kremlin_ir::instr::{InstrKind, Terminator};
use kremlin_ir::{FuncId, Function, Module, RegionId, ValueId};

/// HCPA configuration.
#[derive(Debug, Clone, Copy)]
pub struct HcpaConfig {
    /// Number of region-nesting depths tracked in shadow state (the paper's
    /// "command line flag [that] can vary the range of region depths that
    /// are collected", §4.2). Regions outside the tracked range report SP 1.
    pub window: usize,
    /// First depth tracked. Together with `window` this is the paper's
    /// depth *range*: several runs with disjoint ranges can be collected
    /// (even in parallel, see [`crate::parallel`]) and stitched with
    /// [`crate::profile::ParallelismProfile::stitch_at`].
    pub min_depth: usize,
    /// Apply the induction/reduction dependence-breaking rule. Disabling
    /// this reproduces plain (non-broken) CPA per level.
    pub break_carried_deps: bool,
    /// Instruction latencies.
    pub cost: CostModel,
}

impl Default for HcpaConfig {
    fn default() -> Self {
        HcpaConfig {
            window: 24,
            min_depth: 0,
            break_carried_deps: true,
            cost: CostModel::default(),
        }
    }
}

/// Statistics about one profiling run.
#[derive(Debug, Clone, Default)]
pub struct ProfilerStats {
    /// Instruction events observed.
    pub instr_events: u64,
    /// Dynamic region instances summarized (loops, bodies, functions).
    pub dynamic_regions: u64,
    /// Peak region nesting depth observed.
    pub max_depth: usize,
    /// Shadow memory pages ever allocated (historical count).
    pub shadow_pages: u64,
    /// Shadow memory pages currently resident at the end of the run.
    pub shadow_live_pages: u64,
    /// Shadow memory footprint in bytes of the live pages: one stamp and
    /// `window` times (`8 × (window + 1)` bytes) per location.
    pub shadow_bytes: u64,
    /// Instruction events of committed values that did shadow work (at
    /// least one tracked depth open); folded values never count.
    pub shadow_commits: u64,
}

/// Where an instruction's input times come from.
#[derive(Debug, Clone, Copy)]
enum OpClass {
    /// Folded into the committed values that read it: the event only
    /// counts and accrues its latency.
    Folded,
    /// Parameter `i`: the call site's argument times.
    Param(u32),
    /// Phi: the incoming value taken, unless it is the broken dependence.
    Phi { broken: Option<ValueId> },
    /// Load: the committed inputs and the loaded location.
    Load,
    /// Store: the committed inputs; the result goes to the stored
    /// location.
    Store,
    /// Anything else: the committed inputs.
    Other,
}

/// One value's pre-resolved entry in the op table.
#[derive(Debug, Clone, Copy)]
struct Op {
    lat: u64,
    class: OpClass,
    /// Instruction events a committed value's event stands for: its own
    /// and those of the folded values executed since the previous
    /// committed value of its segment. 0 for a folded value.
    events: u64,
    /// The latency of those events.
    work: u64,
    /// Offset of the control-dependence seed: the longest latency path
    /// from the value back through the folded values it reads, its own
    /// latency included. It is at least every input's offset.
    cd_off: u64,
    /// `Profiler::inputs[start..end]`: the distinct committed inputs.
    inputs: (u32, u32),
}

/// A committed value read by a committed value.
#[derive(Debug, Clone, Copy)]
struct Input {
    value: ValueId,
    /// The longest latency path from `value` to its reader through
    /// folded values: the reader's latency included, `value`'s excluded.
    off: u64,
}

struct ActiveRegion {
    static_id: RegionId,
    /// Global work-counter value at region entry: the region's work is the
    /// counter delta over its lifetime plus `work_extra`.
    work_base: u64,
    /// Work credited explicitly (call latencies at tracked depths).
    work_extra: u64,
    /// Where this region's children start in `Profiler::children`.
    children_start: usize,
}

struct CallRecord {
    call_value: ValueId,
    /// Caller depth count at call time: the row stride of `arg_times`.
    depths: usize,
    /// Flattened per-argument availability times, indexed
    /// `arg * depths + depth` (absolute depth; untracked depths are 0).
    arg_times: Vec<u64>,
}

/// The HCPA profiler. Feed it to [`kremlin_interp::run_with_hook`] (or a
/// trace replay), then call [`Profiler::finish`].
pub struct Profiler<'m> {
    module: &'m Module,
    config: HcpaConfig,
    dict: Dictionary,
    /// The op table: value `v` of function `f` is
    /// `op_table[op_base[f] + v]`.
    op_table: Vec<Op>,
    op_base: Vec<usize>,
    inputs: Vec<Input>,
    regions: Vec<ActiveRegion>,
    /// `region_tags[d]`: the tag of the region instance open at depth `d`.
    region_tags: Vec<u64>,
    /// `region_cp[d]`: the critical path so far of the region open at
    /// depth `d`.
    region_cp: Vec<u64>,
    /// `(entry, count)` children of every open region, each region's
    /// own starting at its `children_start`.
    children: Vec<(EntryId, u64)>,
    cd_stack: Vec<Vec<u64>>,
    /// Retired control-dependence vectors, reused by `on_cd_push`.
    cd_pool: Vec<Vec<u64>>,
    mem: ShadowMemory,
    frames: Vec<ShadowRegs>,
    calls: Vec<CallRecord>,
    /// Retired call argument-time buffers, reused by `on_call`.
    call_pool: Vec<Vec<u64>>,
    next_tag: u64,
    /// Total instruction latency observed so far (O(1) work accrual).
    work_counter: u64,
    stats: ProfilerStats,
    /// Whether this profiler publishes the run-wide metrics (instruction
    /// events, dynamic regions, region work). Every depth shard sees the
    /// whole run, so only one of them does.
    publishes_run: bool,
    /// Scratch: per tracked depth, the availability time being computed.
    t_scratch: Vec<u64>,
    /// Scratch: returned-value times captured across the callee teardown.
    ret_scratch: Vec<u64>,
}

/// `t[i] = max(t[i], run[i] + off)` over the shorter of the two.
#[inline]
fn fold_max(t: &mut [u64], run: &[u64], off: u64) {
    for (slot, &time) in t.iter_mut().zip(run) {
        *slot = (*slot).max(time + off);
    }
}

/// Adds `(value, off)` to `inputs`; a repeated input keeps the longer
/// path.
fn merge_input(inputs: &mut Vec<Input>, value: ValueId, off: u64) {
    match inputs.iter_mut().find(|i| i.value == value) {
        Some(i) => i.off = i.off.max(off),
        None => inputs.push(Input { value, off }),
    }
}

/// Appends the op table entries of `f` to `op_table` and their committed
/// inputs to `inputs` (see "Segment folding" in the module docs).
fn resolve_ops(f: &Function, config: &HcpaConfig, op_table: &mut Vec<Op>, inputs: &mut Vec<Input>) {
    let n = f.values.len();
    let mut gathered = Vec::new();
    // The operands whose times each value reads: distinct, the broken
    // dependence removed. Parameters and phis read theirs at run time.
    let reads: Vec<Vec<ValueId>> = f
        .values
        .iter()
        .map(|v| {
            let broken = if config.break_carried_deps { v.break_dep_on } else { None };
            let mut reads = Vec::new();
            if !matches!(v.kind, InstrKind::Param(_) | InstrKind::Phi { .. }) {
                gathered.clear();
                v.kind.operands(&mut gathered);
                for &o in &gathered {
                    if Some(o) != broken && !reads.contains(&o) {
                        reads.push(o);
                    }
                }
            }
            reads
        })
        .collect();

    // Segments: each block split at region and control-dependence markers
    // and at calls. Lowered mini-C opens or closes a block at every cd
    // marker, so splitting there changes no commit today; it keeps the
    // rule exact on any IR at no cost. Markers, calls and values in no
    // block belong to no segment (`NONE`).
    const NONE: u32 = u32::MAX;
    let mut segment = vec![NONE; n];
    let mut next = 0;
    for b in &f.blocks {
        next += 1;
        for &v in &b.instrs {
            let kind = &f.values[v.index()].kind;
            if kind.is_marker() || matches!(kind, InstrKind::Call { .. }) {
                next += 1;
            } else {
                segment[v.index()] = next;
            }
        }
    }

    let mut committed: Vec<bool> = f
        .values
        .iter()
        .zip(&segment)
        .map(|(v, &seg)| {
            seg == NONE
                || matches!(
                    v.kind,
                    InstrKind::Param(_)
                        | InstrKind::Phi { .. }
                        | InstrKind::Load(_)
                        | InstrKind::Store { .. }
                )
        })
        .collect();
    let mut read = vec![false; n];
    for b in &f.blocks {
        for &u in &b.instrs {
            let kind = &f.values[u.index()].kind;
            // A phi, a call and a `cd.push` read their operands' runs.
            let boundary = matches!(
                kind,
                InstrKind::Phi { .. } | InstrKind::Call { .. } | InstrKind::CdPush(_)
            );
            gathered.clear();
            kind.operands(&mut gathered);
            for &o in &gathered {
                if boundary || segment[o.index()] != segment[u.index()] {
                    committed[o.index()] = true;
                }
            }
            for &o in &reads[u.index()] {
                read[o.index()] = true;
            }
        }
        match b.term {
            Some(Terminator::CondBr { cond: v, .. }) | Some(Terminator::Ret(Some(v))) => {
                committed[v.index()] = true;
            }
            _ => {}
        }
    }
    // The sink rule: a value nothing in its segment reads is committed.
    // Every folded value then has a committed reader later in its
    // segment, directly or through folded values.
    for (c, &r) in committed.iter_mut().zip(&read) {
        *c |= !r;
    }

    // Each value's seed offset and committed inputs, in block order so a
    // folded value is resolved before the values of its segment that
    // read it. A value in no block never executes and keeps none.
    let mut formula: Vec<(u64, Vec<Input>)> = vec![(0, Vec::new()); n];
    for v in f.blocks.iter().flat_map(|b| &b.instrs).map(|v| v.index()) {
        let lat = config.cost.latency(&f.values[v].kind);
        let mut cd_off = lat;
        let mut ins = Vec::new();
        for &o in &reads[v] {
            if committed[o.index()] {
                merge_input(&mut ins, o, lat);
            } else {
                let (o_cd_off, o_ins) = &formula[o.index()];
                cd_off = cd_off.max(o_cd_off + lat);
                for i in o_ins {
                    merge_input(&mut ins, i.value, i.off + lat);
                }
            }
        }
        formula[v] = (cd_off, ins);
    }

    // The events and latency each committed value accounts for: its own
    // and those of the folded values run since the previous committed
    // value of its segment. The sink rule makes every segment end in a
    // committed value, so no folded event goes unaccounted.
    let mut credit = vec![(0u64, 0u64); n];
    for b in &f.blocks {
        let mut folded = (0, 0);
        for &v in &b.instrs {
            let lat = config.cost.latency(&f.values[v.index()].kind);
            if segment[v.index()] == NONE {
                assert_eq!(folded, (0, 0), "a segment ends in a committed value");
            } else if committed[v.index()] {
                credit[v.index()] = (folded.0 + 1, folded.1 + lat);
                folded = (0, 0);
            } else {
                folded = (folded.0 + 1, folded.1 + lat);
            }
        }
        assert_eq!(folded, (0, 0), "a segment ends in a committed value");
    }

    let index = |i: usize| u32::try_from(i).expect("input table fits u32 indices");
    for (((v, (cd_off, ins)), &c), (events, work)) in
        f.values.iter().zip(formula).zip(&committed).zip(credit)
    {
        let broken = if config.break_carried_deps { v.break_dep_on } else { None };
        let class = match v.kind {
            _ if !c => OpClass::Folded,
            InstrKind::Param(i) => OpClass::Param(i),
            InstrKind::Phi { .. } => OpClass::Phi { broken },
            InstrKind::Load(_) => OpClass::Load,
            InstrKind::Store { .. } => OpClass::Store,
            _ => OpClass::Other,
        };
        let start = inputs.len();
        if c {
            inputs.extend(ins);
        }
        op_table.push(Op {
            lat: config.cost.latency(&v.kind),
            class,
            events,
            work,
            cd_off,
            inputs: (index(start), index(inputs.len())),
        });
    }
}

impl<'m> Profiler<'m> {
    /// Creates a profiler for `module`, resolving its op table.
    pub fn new(module: &'m Module, config: HcpaConfig) -> Self {
        let mut op_table = Vec::new();
        let mut op_base = Vec::with_capacity(module.funcs.len());
        let mut inputs = Vec::new();
        for f in &module.funcs {
            op_base.push(op_table.len());
            resolve_ops(f, &config, &mut op_table, &mut inputs);
        }
        Profiler {
            module,
            config,
            dict: Dictionary::new(),
            op_table,
            op_base,
            inputs,
            regions: Vec::new(),
            region_tags: Vec::new(),
            region_cp: Vec::new(),
            children: Vec::new(),
            cd_stack: vec![vec![0; config.min_depth + config.window]],
            cd_pool: Vec::new(),
            mem: ShadowMemory::new(config.window),
            frames: Vec::new(),
            calls: Vec::new(),
            call_pool: Vec::new(),
            next_tag: 1,
            work_counter: 0,
            stats: ProfilerStats::default(),
            publishes_run: true,
            t_scratch: vec![0; config.window],
            ret_scratch: Vec::new(),
        }
    }

    /// A profiler that leaves the run-wide metrics (instruction events,
    /// dynamic regions, region work) to another profiler of the same run:
    /// a depth shard other than the first.
    pub(crate) fn without_run_metrics(mut self) -> Self {
        self.publishes_run = false;
        self
    }

    /// Consumes the profiler, returning the compressed parallelism profile
    /// and run statistics.
    ///
    /// # Panics
    ///
    /// Panics if regions are still open (the run did not complete).
    pub fn finish(mut self) -> (Dictionary, ProfilerStats) {
        assert!(self.regions.is_empty(), "profiling finished with open regions");
        self.stats.shadow_pages = self.mem.pages_allocated();
        self.stats.shadow_live_pages = self.mem.live_pages();
        self.stats.shadow_bytes = self.mem.footprint_bytes();
        if kremlin_obs::metrics_enabled() {
            // Flush run-local tallies in one shot; nothing is counted per
            // instruction on the hot path.
            if self.publishes_run {
                kremlin_obs::counter!("hcpa.instr_events").add(self.stats.instr_events);
                kremlin_obs::counter!("hcpa.dynamic_regions").add(self.stats.dynamic_regions);
            }
            kremlin_obs::counter!("hcpa.shadow.commits").add(self.stats.shadow_commits);
            kremlin_obs::counter!("hcpa.shadow.pages_allocated").add(self.stats.shadow_pages);
            kremlin_obs::gauge!("hcpa.shadow.live_pages").set_max(self.stats.shadow_live_pages);
            kremlin_obs::gauge!("hcpa.shadow.footprint_bytes").set_max(self.stats.shadow_bytes);
            kremlin_obs::gauge!("hcpa.max_depth").set_max(self.stats.max_depth as u64);
            let (hits, misses) = self.mem.cache_stats();
            kremlin_obs::counter!("hcpa.shadow.cache_hits").add(hits);
            kremlin_obs::counter!("hcpa.shadow.cache_misses").add(misses);
        }
        (self.dict, self.stats)
    }

    /// The stamp of a write happening now: the last tag issued.
    fn stamp(&self) -> u64 {
        self.next_tag - 1
    }

    fn push_region(&mut self, static_id: RegionId) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.regions.push(ActiveRegion {
            static_id,
            work_base: self.work_counter,
            work_extra: 0,
            children_start: self.children.len(),
        });
        self.region_tags.push(tag);
        self.region_cp.push(0);
        self.stats.max_depth = self.stats.max_depth.max(self.regions.len());
    }

    fn pop_region(&mut self, expected: RegionId) {
        let r = self.regions.pop().expect("region stack underflow");
        self.region_tags.pop();
        let cp = self.region_cp.pop().expect("one cp per open region");
        debug_assert_eq!(r.static_id, expected, "mismatched region exit");
        let work = self.work_counter - r.work_base + r.work_extra;
        let id = self.dict.intern(r.static_id.0, work, cp, &self.children[r.children_start..]);
        self.children.truncate(r.children_start);
        self.stats.dynamic_regions += 1;
        if self.publishes_run {
            kremlin_obs::histogram!("hcpa.region_work").record(work);
        }
        let Some(parent) = self.regions.last() else {
            self.dict.set_root(id);
            return;
        };
        let in_parent = self.children.len() > parent.children_start;
        match self.children.last_mut() {
            Some((last, count)) if in_parent && *last == id => *count += 1,
            _ => self.children.push((id, 1)),
        }
    }

    /// The tracked absolute-depth range `[lo, hi)`.
    #[inline]
    fn tracked_range(&self) -> (usize, usize) {
        let lo = self.config.min_depth.min(self.regions.len());
        let hi = self.regions.len().min(self.config.min_depth + self.config.window);
        (lo, hi)
    }
}

impl ExecHook for Profiler<'_> {
    /// Only committed values: a folded value's event is accounted for by
    /// the next committed value of its segment.
    fn selects_instr(&self, func: FuncId, value: ValueId) -> bool {
        !matches!(self.op_table[self.op_base[func.index()] + value.index()].class, OpClass::Folded)
    }

    fn on_instr(&mut self, ctx: &InstrCtx<'_>) {
        let op = self.op_table[self.op_base[ctx.func.id.index()] + ctx.value.index()];
        // The event counts for the folded events before it in its segment
        // too. Work accrues at every active depth: a single counter
        // advance stands in for incrementing each open region (the
        // region's work is reconstructed as a counter delta at exit).
        self.stats.instr_events += op.events;
        self.work_counter += op.work;
        if let OpClass::Folded = op.class {
            // Delivered only when the selection is ignored: the
            // committed values that read it fold its times in, and the
            // next committed value counts it.
            return;
        }

        let (lo, hi) = self.tracked_range();
        if lo >= hi {
            // No tracked depth is active (e.g. a depth shard whose range
            // the execution has not reached): nothing else to update.
            return;
        }
        self.stats.shadow_commits += 1;
        let stamp = self.stamp();

        // Per-depth availability times seeded from the control dependence
        // on the enclosing branch condition, plus the seed offset.
        let t = &mut self.t_scratch[..hi - lo];
        let cd = &self.cd_stack.last().expect("base cd entry")[lo..hi];
        for (slot, &time) in t.iter_mut().zip(cd) {
            *slot = time + op.cd_off;
        }

        let tags = &self.region_tags[lo..hi];
        let frame = self.frames.last().expect("shadow frame");
        match op.class {
            OpClass::Folded => unreachable!("folded values return early"),
            OpClass::Param(i) => {
                // Parameter times come from the call site's argument times
                // (depths beyond the caller's depth default to 0).
                if let Some(call) = self.calls.last().filter(|c| c.depths > lo) {
                    let row = i as usize * call.depths;
                    let m = call.depths.min(hi) - lo;
                    fold_max(t, &call.arg_times[row + lo..row + lo + m], op.lat);
                }
            }
            OpClass::Phi { broken } => {
                if let Some(src) = ctx.phi_source.filter(|&src| Some(src) != broken) {
                    fold_max(t, frame.read_run(src.index(), tags), op.lat);
                }
            }
            class => {
                let (start, end) = op.inputs;
                for input in &self.inputs[start as usize..end as usize] {
                    fold_max(t, frame.read_run(input.value.index(), tags), input.off);
                }
                if let (OpClass::Load, Some(addr)) = (class, ctx.mem_addr) {
                    fold_max(t, self.mem.read_run(addr, tags), op.lat);
                }
            }
        }

        // Commit: write the destination's run and fold each open region's
        // critical path, in one pass (the offsets hold the latency).
        let dst = if let OpClass::Store = op.class {
            let addr = ctx.mem_addr.expect("store has an address");
            self.mem.write_run(addr, stamp, t.len())
        } else {
            let frame = self.frames.last_mut().expect("shadow frame");
            frame.write_run(ctx.value.index(), stamp, t.len())
        };
        for ((slot, &time), cp) in dst.iter_mut().zip(t.iter()).zip(&mut self.region_cp[lo..hi]) {
            *slot = time;
            *cp = (*cp).max(time);
        }
    }

    fn on_call(&mut self, ctx: &CallCtx<'_>) {
        let (lo, hi) = self.tracked_range();
        let mut buf = self.call_pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(ctx.args.len() * hi, 0);
        let frame = self.frames.last().expect("caller shadow frame");
        let tags = &self.region_tags[lo..hi];
        for (a_i, a) in ctx.args.iter().enumerate() {
            let run = frame.read_run(a.index(), tags);
            let at = a_i * hi + lo;
            buf[at..at + run.len()].copy_from_slice(run);
        }
        self.calls.push(CallRecord { call_value: ctx.call_value, depths: hi, arg_times: buf });
    }

    fn on_function_enter(&mut self, func: FuncId, region: RegionId) {
        self.push_region(region);
        let f = self.module.func(func);
        self.frames.push(ShadowRegs::new(f.values.len(), self.config.window));
    }

    fn on_return(&mut self, ctx: &RetCtx) {
        // Capture the returned value's times at the caller's depths before
        // tearing the callee down. The callee's own depth is the current
        // innermost region.
        let (lo, hi) = self.tracked_range();
        let caller_hi = hi.min(self.regions.len() - 1);
        let mut ret_times = std::mem::take(&mut self.ret_scratch);
        ret_times.clear();
        ret_times.resize(caller_hi, 0);
        if let (Some(v), true) = (ctx.returned, lo < caller_hi) {
            let frame = self.frames.last().expect("callee shadow frame");
            let run = frame.read_run(v.index(), &self.region_tags[lo..caller_hi]);
            ret_times[lo..lo + run.len()].copy_from_slice(run);
        }

        self.pop_region(ctx.region);
        self.frames.pop();

        if let Some(call) = self.calls.pop() {
            let lat = self.config.cost.call;
            // The caller's tracked range ends at `caller_hi`.
            let (lo, hi) = self.tracked_range();
            if lo < hi {
                let stamp = self.stamp();
                let frame = self.frames.last_mut().expect("caller shadow frame");
                let dst = frame.write_run(call.call_value.index(), stamp, hi - lo);
                for ((slot, &ret), cp) in
                    dst.iter_mut().zip(&ret_times[lo..hi]).zip(&mut self.region_cp[lo..hi])
                {
                    *slot = ret + lat;
                    *cp = (*cp).max(ret + lat);
                }
                for r in &mut self.regions[lo..hi] {
                    r.work_extra += lat;
                }
            }
            let mut buf = call.arg_times;
            buf.clear();
            self.call_pool.push(buf);
        }
        self.ret_scratch = ret_times;
    }

    fn on_region_enter(&mut self, region: RegionId) {
        self.push_region(region);
    }

    fn on_region_exit(&mut self, region: RegionId) {
        self.pop_region(region);
    }

    fn on_cd_push(&mut self, cond: ValueId) {
        let (lo, hi) = self.tracked_range();
        let mut entry = self.cd_pool.pop().unwrap_or_default();
        entry.clear();
        entry.resize(self.config.min_depth + self.config.window, 0);
        // Control times only increase: start from the enclosing top, then
        // fold in the condition's times.
        let top = self.cd_stack.last().expect("base cd entry");
        entry[lo..hi].copy_from_slice(&top[lo..hi]);
        let frame = self.frames.last().expect("shadow frame");
        fold_max(&mut entry[lo..hi], frame.read_run(cond.index(), &self.region_tags[lo..hi]), 0);
        self.cd_stack.push(entry);
    }

    fn on_cd_pop(&mut self) {
        assert!(self.cd_stack.len() > 1, "cd stack underflow");
        let entry = self.cd_stack.pop().expect("a pushed cd entry");
        self.cd_pool.push(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kremlin_interp::{run_with_hook, MachineConfig};
    use kremlin_ir::compile;

    fn profile_src(src: &str) -> (kremlin_ir::CompiledUnit, Dictionary, ProfilerStats) {
        let unit = compile(src, "t.kc").expect("compiles");
        let mut p = Profiler::new(&unit.module, HcpaConfig::default());
        run_with_hook(&unit.module, &mut p, MachineConfig::default()).expect("runs");
        let (dict, stats) = p.finish();
        (unit, dict, stats)
    }

    /// Work-weighted average SP of a labeled region.
    fn sp_of(unit: &kremlin_ir::CompiledUnit, dict: &Dictionary, label: &str) -> f64 {
        let region = unit.module.regions.by_label(label).expect("region exists");
        let counts = dict.instance_counts();
        let sp = dict.self_parallelism();
        let mut num = 0.0;
        let mut den = 0.0;
        for (id, e) in dict.iter() {
            if e.static_id == region.0 && counts[id.index()] > 0 {
                let w = (counts[id.index()] * e.work.max(1)) as f64;
                num += w * sp[id.index()];
                den += w;
            }
        }
        assert!(den > 0.0, "region {label} never executed");
        num / den
    }

    #[test]
    fn doall_loop_sp_tracks_iteration_count() {
        let (unit, dict, _) = profile_src(
            "float a[64]; float b[64];\n\
             int main() {\n\
               for (int i = 0; i < 64; i++) { a[i] = (float) i; }\n\
               for (int i = 0; i < 64; i++) { b[i] = a[i] * 2.0 + 1.0; }\n\
               return (int) b[63];\n\
             }",
        );
        let sp = sp_of(&unit, &dict, "main#L1");
        assert!(sp > 50.0, "DOALL loop should have SP ≈ 64, got {sp}");
    }

    #[test]
    fn serial_chain_loop_sp_is_low() {
        // x[i] = x[i-1] * 1.5 + 1.0 is a true recurrence: serial.
        let (unit, dict, _) = profile_src(
            "float x[64];\n\
             int main() {\n\
               x[0] = 1.0;\n\
               for (int i = 1; i < 64; i++) { x[i] = x[i - 1] * 1.5 + 1.0; }\n\
               return (int) x[63];\n\
             }",
        );
        let sp = sp_of(&unit, &dict, "main#L0");
        assert!(sp < 3.0, "serial recurrence should have SP ≈ 1, got {sp}");
    }

    #[test]
    fn reduction_loop_is_parallel_after_breaking() {
        let (unit, dict, _) = profile_src(
            "float a[64];\n\
             int main() {\n\
               for (int i = 0; i < 64; i++) { a[i] = (float) i; }\n\
               float s = 0.0;\n\
               for (int i = 0; i < 64; i++) { s += a[i] * a[i]; }\n\
               return (int) s;\n\
             }",
        );
        let sp = sp_of(&unit, &dict, "main#L1");
        assert!(sp > 40.0, "reduction loop should be near-DOALL after breaking, got {sp}");
    }

    #[test]
    fn ablation_disabling_breaking_serializes_reduction() {
        let src = "float a[64];\n\
             int main() {\n\
               for (int i = 0; i < 64; i++) { a[i] = (float) i; }\n\
               float s = 0.0;\n\
               for (int i = 0; i < 64; i++) { s += a[i] * a[i]; }\n\
               return (int) s;\n\
             }";
        let unit = compile(src, "t.kc").unwrap();
        let mut p = Profiler::new(
            &unit.module,
            HcpaConfig { break_carried_deps: false, ..HcpaConfig::default() },
        );
        run_with_hook(&unit.module, &mut p, MachineConfig::default()).unwrap();
        let (dict, _) = p.finish();
        let sp = sp_of(&unit, &dict, "main#L1");
        assert!(sp < 8.0, "without breaking, the accumulator chain serializes: {sp}");
        // Even the init loop serializes through `i++` itself.
        let sp0 = sp_of(&unit, &dict, "main#L0");
        assert!(sp0 < 8.0, "induction chain should serialize loop 0: {sp0}");
    }

    #[test]
    fn fig2_only_innermost_loop_is_parallel() {
        // The paper's Figure 2 pattern: outer loops carry a serializing
        // min-tracking dependency through `features`, the innermost loop's
        // iterations are independent... in the paper it is the innermost
        // that is parallel while traditional CPA would report parallelism
        // in the outer loops too. We model the structure: outer loop walks
        // rows serially updating a running value; inner loop is DOALL.
        let (unit, dict, _) = profile_src(
            "float img[16][16]; float acc[16];\n\
             int main() {\n\
               for (int i = 0; i < 16; i++) { for (int j = 0; j < 16; j++) { img[i][j] = (float)(i + j); } }\n\
               float carry = 0.0;\n\
               for (int i = 0; i < 16; i++) {\n\
                 carry = carry * 0.5 + 1.0;\n\
                 for (int j = 0; j < 16; j++) { acc[j] = img[i][j] * 2.0 + carry; }\n\
               }\n\
               return (int) acc[3];\n\
             }",
        );
        // Loop labels are lexical: L0/L1 are the init nest, L2 is the
        // carry-serialized outer loop, L3 the DOALL inner loop.
        let outer = sp_of(&unit, &dict, "main#L2");
        let inner = sp_of(&unit, &dict, "main#L3");
        assert!(inner > 10.0, "inner loop is DOALL: {inner}");
        assert!(outer < 4.0, "outer loop serialized by recurrence: {outer}");
        // Total parallelism at the outer loop *would* look high (it
        // contains the parallel inner loop) — HCPA localizes it instead.
        let region = unit.module.regions.by_label("main#L2").unwrap();
        let tp = dict.total_parallelism();
        let counts = dict.instance_counts();
        let mut max_tp = 0.0f64;
        for (id, e) in dict.iter() {
            if e.static_id == region.0 && counts[id.index()] > 0 {
                max_tp = max_tp.max(tp[id.index()]);
            }
        }
        assert!(
            max_tp > outer * 2.0,
            "total parallelism ({max_tp}) hides the serialization that SP ({outer}) exposes"
        );
    }

    #[test]
    fn function_regions_summarize_calls() {
        let (unit, dict, stats) = profile_src(
            "float square(float x) { return x * x; }\n\
             int main() { float s = 0.0; for (int i = 0; i < 8; i++) { s += square((float) i); } return (int) s; }",
        );
        let sq = unit.module.regions.by_label("square").unwrap();
        let counts = dict.instance_counts();
        let total: u64 = dict
            .iter()
            .filter(|(_, e)| e.static_id == sq.0)
            .map(|(id, _)| counts[id.index()])
            .sum();
        assert_eq!(total, 8, "square called 8 times");
        assert!(stats.dynamic_regions > 16);
        assert!(stats.max_depth >= 4); // main > loop > body > square
    }

    #[test]
    fn control_dependence_serializes_dependent_branches() {
        // Each iteration's condition depends on a serial accumulator; the
        // work under the branch is control-dependent on it, so the loop
        // cannot look DOALL even though the branch bodies touch disjoint
        // data.
        let (unit, dict, _) = profile_src(
            "float out[64];\n\
             int main() {\n\
               float t = 1.0;\n\
               for (int i = 0; i < 64; i++) {\n\
                 t = t * 1.000001 + 0.5;\n\
                 if (t > (float) i) { out[i] = t * 2.0; } else { out[i] = 1.0; }\n\
               }\n\
               return (int) out[10];\n\
             }",
        );
        let sp = sp_of(&unit, &dict, "main#L0");
        assert!(sp < 6.0, "control dependence on serial value must serialize: {sp}");
    }

    #[test]
    fn nested_doall_both_levels_parallel() {
        let (unit, dict, _) = profile_src(
            "float m[16][16];\n\
             int main() {\n\
               for (int i = 0; i < 16; i++) {\n\
                 for (int j = 0; j < 16; j++) { m[i][j] = (float)(i * j) * 0.5; }\n\
               }\n\
               return (int) m[3][4];\n\
             }",
        );
        let outer = sp_of(&unit, &dict, "main#L0");
        let inner = sp_of(&unit, &dict, "main#L1");
        assert!(outer > 10.0, "outer DOALL: {outer}");
        assert!(inner > 10.0, "inner DOALL: {inner}");
    }

    #[test]
    fn work_is_conserved_down_the_tree() {
        let (_, dict, _) = profile_src(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * i; } return s; }\n\
             int main() { int t = 0; for (int k = 1; k < 9; k++) { t += f(k * 8); } return t; }",
        );
        for (_, e) in dict.iter() {
            let child_work: u64 = e.children.iter().map(|(c, n)| n * dict.entry(*c).work).sum();
            assert!(
                e.work >= child_work,
                "parent work {} < sum of child work {child_work}",
                e.work
            );
            assert!(e.cp <= e.work.max(1), "cp {} exceeds work {}", e.cp, e.work);
        }
    }

    #[test]
    fn sp_at_least_one_everywhere() {
        let (_, dict, _) = profile_src(
            "int main() { int s = 0; for (int i = 0; i < 20; i++) { if (i % 3) { s += i; } else { s -= 1; } } return s; }",
        );
        for sp in dict.self_parallelism() {
            assert!(sp >= 0.99, "SP must be ≥ 1, got {sp}");
        }
    }

    #[test]
    fn deep_recursion_beyond_window_is_safe() {
        let src = "int f(int n) { if (n <= 0) { return 0; } return 1 + f(n - 1); }\n\
                   int main() { return f(100); }";
        let unit = compile(src, "t.kc").unwrap();
        let mut p = Profiler::new(&unit.module, HcpaConfig { window: 8, ..HcpaConfig::default() });
        let r = run_with_hook(&unit.module, &mut p, MachineConfig::default()).unwrap();
        assert_eq!(r.exit, 100);
        let (dict, stats) = p.finish();
        assert!(stats.max_depth > 8);
        assert!(dict.root().is_some());
    }
}
