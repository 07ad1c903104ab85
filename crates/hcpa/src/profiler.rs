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
//! [`Profiler::on_instr`] runs once per executed instruction and is
//! where nearly all profiling time goes. It is structured as a single
//! **op-major** pass: per-depth region tags and availability times live in
//! reusable scratch buffers, each operand/memory access is resolved with
//! one bulk [`ShadowRegs::gather_max`] / [`ShadowMemory::gather_max`] call
//! that amortizes the location lookup across every tracked depth, and the
//! final times are committed with one bulk `write_run`. Per-region work is
//! not accumulated per instruction at all: a single global latency counter
//! advances in O(1), and each region's work is the counter delta across
//! its lifetime (plus call latencies credited at tracked depths, exactly
//! as the depth-major reference formulation does).
//!
//! Shadow state lives in the packed depth-contiguous stores of
//! [`crate::shadow`]. The full pre-optimization profiler — the
//! `BENCH_profiler.json` baseline and the differential-test reference —
//! is kept frozen in [`crate::seed`].

use crate::cost::CostModel;
use crate::shadow::{ShadowMemory, ShadowRegs};
use kremlin_compress::{Dictionary, EntryId};
use kremlin_interp::{CallCtx, ExecHook, InstrCtx, RetCtx};
use kremlin_ir::instr::InstrKind;
use kremlin_ir::{FuncId, Module, RegionId, ValueId};
use std::collections::HashMap;

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
    /// Shadow memory footprint in bytes of the live pages, derived from
    /// the backend's actual slot layout.
    pub shadow_bytes: u64,
    /// Minimum dynamic nesting depth observed per static region (indexed
    /// by region id); `None` for regions never entered. Diagnostic: a
    /// region may also appear at deeper depths (stitching accounts for
    /// every depth separately).
    pub region_min_depth: Vec<Option<usize>>,
}

struct ActiveRegion {
    static_id: RegionId,
    /// Global work-counter value at region entry: the region's work is the
    /// counter delta over its lifetime plus `work_extra`.
    work_base: u64,
    /// Work credited explicitly (call latencies at tracked depths).
    work_extra: u64,
    cp: u64,
    children: HashMap<EntryId, u64>,
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
    regions: Vec<ActiveRegion>,
    /// `region_tags[d]` mirrors `regions[d].tag`: kept as a flat array so
    /// the per-instruction hot path can slice it instead of re-gathering
    /// tags from the region stack.
    region_tags: Vec<u64>,
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
    ops: Vec<ValueId>,
    /// Scratch: per tracked depth, the availability time being computed.
    t_scratch: Vec<u64>,
    /// Scratch: returned-value times captured across the callee teardown.
    ret_scratch: Vec<u64>,
}

impl<'m> Profiler<'m> {
    /// Creates a profiler for `module`.
    pub fn new(module: &'m Module, config: HcpaConfig) -> Self {
        Profiler {
            module,
            config,
            dict: Dictionary::new(),
            regions: Vec::new(),
            region_tags: Vec::new(),
            cd_stack: Vec::new(),
            cd_pool: Vec::new(),
            mem: ShadowMemory::new(config.window),
            frames: Vec::new(),
            calls: Vec::new(),
            call_pool: Vec::new(),
            next_tag: 1,
            work_counter: 0,
            stats: ProfilerStats {
                region_min_depth: vec![None; module.regions.len()],
                ..ProfilerStats::default()
            },
            ops: Vec::new(),
            t_scratch: Vec::with_capacity(config.window),
            ret_scratch: Vec::new(),
        }
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
            kremlin_obs::counter!("hcpa.instr_events").add(self.stats.instr_events);
            kremlin_obs::counter!("hcpa.dynamic_regions").add(self.stats.dynamic_regions);
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

    fn fresh_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    fn push_region(&mut self, static_id: RegionId) {
        let tag = self.fresh_tag();
        let depth = self.regions.len();
        let slot = &mut self.stats.region_min_depth[static_id.index()];
        *slot = Some(slot.map_or(depth, |d| d.min(depth)));
        self.regions.push(ActiveRegion {
            static_id,
            work_base: self.work_counter,
            work_extra: 0,
            cp: 0,
            children: HashMap::new(),
        });
        self.region_tags.push(tag);
        self.stats.max_depth = self.stats.max_depth.max(self.regions.len());
    }

    fn pop_region(&mut self, expected: RegionId) -> EntryId {
        let r = self.regions.pop().expect("region stack underflow");
        self.region_tags.pop();
        debug_assert_eq!(r.static_id, expected, "mismatched region exit");
        let work = self.work_counter - r.work_base + r.work_extra;
        let mut children: Vec<(EntryId, u64)> = r.children.into_iter().collect();
        children.sort_by_key(|(c, _)| *c);
        let id = self.dict.intern(r.static_id.0, work, r.cp, children);
        self.stats.dynamic_regions += 1;
        kremlin_obs::histogram!("hcpa.region_work").record(work);
        match self.regions.last_mut() {
            Some(parent) => {
                *parent.children.entry(id).or_insert(0) += 1;
            }
            None => self.dict.set_root(id),
        }
        id
    }

    #[inline]
    fn cd_time(&self, depth: usize) -> u64 {
        match self.cd_stack.last() {
            Some(v) => v.get(depth).copied().unwrap_or(0),
            None => 0,
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
    fn on_instr(&mut self, ctx: &InstrCtx<'_>) {
        self.stats.instr_events += 1;
        let lat = self.config.cost.latency(ctx.kind);

        // Work accrues at every active depth: a single counter advance
        // stands in for incrementing each open region (the region's work
        // is reconstructed as a counter delta at exit).
        self.work_counter += lat;

        let (lo, hi) = self.tracked_range();
        if lo >= hi {
            // No tracked depth is active (e.g. a depth shard whose range
            // the execution has not reached): nothing else to update.
            return;
        }
        let n = hi - lo;

        // Per-depth availability times seeded from the control dependence
        // on the enclosing branch condition.
        self.t_scratch.clear();
        match self.cd_stack.last() {
            Some(v) => self.t_scratch.extend((lo..hi).map(|d| v.get(d).copied().unwrap_or(0))),
            None => self.t_scratch.resize(n, 0),
        }

        let is_store = matches!(ctx.kind, InstrKind::Store { .. });
        if let InstrKind::Param(i) = ctx.kind {
            // Parameter times come from the call site's argument times
            // (depths beyond the caller's depth default to 0).
            if let Some(call) = self.calls.last() {
                let base = *i as usize * call.depths;
                for (k, slot) in self.t_scratch.iter_mut().enumerate() {
                    let d = lo + k;
                    if d < call.depths {
                        *slot = (*slot).max(call.arg_times[base + d]);
                    }
                }
            }
        } else {
            // Gather value operands, then fold each one's times across all
            // tracked depths in one bulk pass per operand.
            self.ops.clear();
            match ctx.kind {
                InstrKind::Phi { .. } => {
                    if let Some(src) = ctx.phi_source {
                        self.ops.push(src);
                    }
                }
                kind => kind.operands(&mut self.ops),
            }
            let break_on = if self.config.break_carried_deps {
                ctx.func.value(ctx.value).break_dep_on
            } else {
                None
            };
            let frame = self.frames.last().expect("shadow frame");
            let tags = &self.region_tags[lo..hi];
            for &op in &self.ops {
                if Some(op) == break_on {
                    continue;
                }
                frame.gather_max(op.index(), tags, &mut self.t_scratch);
            }
            if let (InstrKind::Load(_), Some(addr)) = (ctx.kind, ctx.mem_addr) {
                self.mem.gather_max(addr, tags, &mut self.t_scratch);
            }
        }

        for t in &mut self.t_scratch {
            *t += lat;
        }
        let tags = &self.region_tags[lo..hi];
        if is_store {
            let addr = ctx.mem_addr.expect("store has an address");
            self.mem.write_run(addr, tags, &self.t_scratch);
        } else {
            let frame = self.frames.last_mut().expect("shadow frame");
            frame.write_run(ctx.value.index(), tags, &self.t_scratch);
        }
        for (r, &t) in self.regions[lo..hi].iter_mut().zip(&self.t_scratch) {
            r.cp = r.cp.max(t);
        }
    }

    fn on_call(&mut self, ctx: &CallCtx<'_>) {
        let (lo, hi) = self.tracked_range();
        let mut buf = self.call_pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(ctx.args.len() * hi, 0);
        let frame = self.frames.last().expect("caller shadow frame");
        for (a_i, a) in ctx.args.iter().enumerate() {
            for d in lo..hi {
                buf[a_i * hi + d] = frame.read(a.index(), d - lo, self.region_tags[d]);
            }
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
        if let Some(v) = ctx.returned {
            let frame = self.frames.last().expect("callee shadow frame");
            for (d, slot) in ret_times.iter_mut().enumerate().take(caller_hi).skip(lo) {
                *slot = frame.read(v.index(), d - lo, self.region_tags[d]);
            }
        }

        self.pop_region(ctx.region);
        self.frames.pop();

        if let Some(call) = self.calls.pop() {
            let lat = self.config.cost.call;
            let (lo, hi) = self.tracked_range();
            let frame = self.frames.last_mut().expect("caller shadow frame");
            for d in lo..hi {
                let tag = self.region_tags[d];
                let t = ret_times.get(d).copied().unwrap_or(0) + lat;
                frame.write(call.call_value.index(), d - lo, tag, t);
                let r = &mut self.regions[d];
                r.cp = r.cp.max(t);
                r.work_extra += lat;
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
        entry.resize(hi, 0);
        let frame = self.frames.last().expect("shadow frame");
        for (d, slot) in entry.iter_mut().enumerate().take(hi).skip(lo) {
            let cond_t = frame.read(cond.index(), d - lo, self.region_tags[d]);
            // Control times only increase: fold in the enclosing top.
            *slot = cond_t.max(self.cd_time(d));
        }
        self.cd_stack.push(entry);
    }

    fn on_cd_pop(&mut self) {
        let entry = self.cd_stack.pop().expect("cd stack underflow");
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
