//! The pre-optimization HCPA profiler, vendored verbatim.
//!
//! This is the profiler and shadow state exactly as they stood before the
//! hot-path overhaul (see the crate docs and `DESIGN.md`): a **depth-major**
//! per-instruction loop that re-resolves the shadow location once per
//! tracked depth (one page-hash lookup per depth for memory operands),
//! accumulates work into every active region on every instruction
//! (O(depth) instead of O(1)), and allocates fresh vectors on every call
//! and control-dependence push.
//!
//! It is kept — frozen — for two purposes:
//!
//! * the **benchmark baseline**: `BENCH_profiler.json` reports speedups of
//!   the optimized serial pass and of depth-sharded collection against
//!   this implementation, so the numbers measure the PR's actual delta
//!   rather than a strawman;
//! * a **differential reference**: [`SeedProfiler`] and the optimized
//!   [`crate::Profiler`] are independent implementations of the same
//!   specification, and tests assert their profiles are bit-identical.
//!
//! Do not "improve" this module; that would silently invalidate the
//! baseline.

use crate::profile::ParallelismProfile;
use crate::profiler::{HcpaConfig, ProfilerStats};
use crate::ProfileOutcome;
use kremlin_compress::{Dictionary, EntryId};
use kremlin_interp::{CallCtx, ExecHook, InstrCtx, InterpError, MachineConfig, RetCtx};
use kremlin_ir::instr::InstrKind;
use kremlin_ir::{CompiledUnit, FuncId, Module, RegionId, ValueId};
use std::collections::HashMap;

/// Slots per shadow-memory page (power of two). Matches the optimized
/// store so footprint numbers stay comparable.
const PAGE_SLOTS: u64 = 1024;

/// The seed per-frame shadow register table: split `tags`/`times` arrays
/// indexed `value * window + depth`.
#[derive(Debug)]
pub struct SeedShadowRegs {
    window: usize,
    tags: Vec<u64>,
    times: Vec<u64>,
}

impl SeedShadowRegs {
    /// Creates a table for `n_values` SSA values with `window` depth slots.
    #[must_use]
    pub fn new(n_values: usize, window: usize) -> Self {
        SeedShadowRegs {
            window,
            tags: vec![0; n_values * window],
            times: vec![0; n_values * window],
        }
    }

    /// Availability time of `value` at `depth`, or 0 on tag mismatch or
    /// out-of-window depth.
    #[inline]
    #[must_use]
    pub fn read(&self, value: usize, depth: usize, tag: u64) -> u64 {
        if depth >= self.window {
            return 0;
        }
        let i = value * self.window + depth;
        if self.tags[i] == tag {
            self.times[i]
        } else {
            0
        }
    }

    /// Records `time` for `value` at `depth` under `tag`.
    #[inline]
    pub fn write(&mut self, value: usize, depth: usize, tag: u64, time: u64) {
        if depth >= self.window {
            return;
        }
        let i = value * self.window + depth;
        self.tags[i] = tag;
        self.times[i] = time;
    }
}

/// The seed two-level shadow memory: every `read`/`write` hashes the page
/// number — once **per depth** in the profiler's depth-major loop.
#[derive(Debug, Default)]
pub struct SeedShadowMemory {
    window: usize,
    pages: HashMap<u64, SeedPage>,
    pages_allocated: u64,
}

#[derive(Debug)]
struct SeedPage {
    tags: Vec<u64>,
    times: Vec<u64>,
}

impl SeedShadowMemory {
    /// Creates an empty shadow memory with `window` depth slots per
    /// location.
    #[must_use]
    pub fn new(window: usize) -> Self {
        SeedShadowMemory { window, pages: HashMap::new(), pages_allocated: 0 }
    }

    /// Availability time of the value stored at `addr`, observed at
    /// `depth`, or 0 on tag mismatch, unallocated page, or out-of-window
    /// depth.
    #[must_use]
    pub fn read(&self, addr: u64, depth: usize, tag: u64) -> u64 {
        if depth >= self.window {
            return 0;
        }
        let Some(page) = self.pages.get(&(addr / PAGE_SLOTS)) else { return 0 };
        let i = (addr % PAGE_SLOTS) as usize * self.window + depth;
        if page.tags[i] == tag {
            page.times[i]
        } else {
            0
        }
    }

    /// Records `time` for `addr` at `depth` under `tag`, allocating the
    /// page on first touch.
    pub fn write(&mut self, addr: u64, depth: usize, tag: u64, time: u64) {
        if depth >= self.window {
            return;
        }
        let window = self.window;
        let pages_allocated = &mut self.pages_allocated;
        let page = self.pages.entry(addr / PAGE_SLOTS).or_insert_with(|| {
            *pages_allocated += 1;
            SeedPage {
                tags: vec![0; PAGE_SLOTS as usize * window],
                times: vec![0; PAGE_SLOTS as usize * window],
            }
        });
        let i = (addr % PAGE_SLOTS) as usize * self.window + depth;
        page.tags[i] = tag;
        page.times[i] = time;
    }

    /// Number of distinct pages ever allocated.
    #[must_use]
    pub fn pages_allocated(&self) -> u64 {
        self.pages_allocated
    }

    /// Shadow-memory footprint in bytes (split arrays: 16 bytes per slot).
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SLOTS * self.window as u64 * 16
    }
}

struct ActiveRegion {
    static_id: RegionId,
    tag: u64,
    work: u64,
    cp: u64,
    children: HashMap<EntryId, u64>,
}

struct CallRecord {
    call_value: ValueId,
    /// Per argument: availability time per caller depth.
    arg_times: Vec<Vec<u64>>,
}

/// The seed profiler. Feed it to [`kremlin_interp::run_with_hook`], then
/// call [`SeedProfiler::finish`].
pub struct SeedProfiler<'m> {
    module: &'m Module,
    config: HcpaConfig,
    dict: Dictionary,
    regions: Vec<ActiveRegion>,
    cd_stack: Vec<Vec<u64>>,
    mem: SeedShadowMemory,
    frames: Vec<SeedShadowRegs>,
    calls: Vec<CallRecord>,
    next_tag: u64,
    stats: ProfilerStats,
    ops: Vec<ValueId>,
}

impl<'m> SeedProfiler<'m> {
    /// Creates a profiler for `module`.
    #[must_use]
    pub fn new(module: &'m Module, config: HcpaConfig) -> Self {
        SeedProfiler {
            module,
            config,
            dict: Dictionary::new(),
            regions: Vec::new(),
            cd_stack: Vec::new(),
            mem: SeedShadowMemory::new(config.window),
            frames: Vec::new(),
            calls: Vec::new(),
            next_tag: 1,
            stats: ProfilerStats::default(),
            ops: Vec::new(),
        }
    }

    /// Consumes the profiler, returning the compression dictionary and run
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if regions are still open (the run did not complete).
    #[must_use]
    pub fn finish(mut self) -> (Dictionary, ProfilerStats) {
        assert!(self.regions.is_empty(), "profiling finished with open regions");
        self.stats.shadow_pages = self.mem.pages_allocated();
        self.stats.shadow_bytes = self.mem.footprint_bytes();
        (self.dict, self.stats)
    }

    fn fresh_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    fn push_region(&mut self, static_id: RegionId) {
        let tag = self.fresh_tag();
        self.regions.push(ActiveRegion {
            static_id,
            tag,
            work: 0,
            cp: 0,
            children: HashMap::new(),
        });
        self.stats.max_depth = self.stats.max_depth.max(self.regions.len());
    }

    fn pop_region(&mut self, expected: RegionId) -> EntryId {
        let r = self.regions.pop().expect("region stack underflow");
        debug_assert_eq!(r.static_id, expected, "mismatched region exit");
        let mut children: Vec<(EntryId, u64)> = r.children.into_iter().collect();
        children.sort_by_key(|(c, _)| *c);
        let id = self.dict.intern(r.static_id.0, r.work, r.cp, &children);
        self.stats.dynamic_regions += 1;
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

impl ExecHook for SeedProfiler<'_> {
    fn on_instr(&mut self, ctx: &InstrCtx<'_>) {
        self.stats.instr_events += 1;
        let lat = self.config.cost.latency(ctx.kind);

        // Work accrues at every active depth (not just tracked ones):
        // `work(R)` includes all nested instructions.
        for r in &mut self.regions {
            r.work += lat;
        }

        // Gather value operands.
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

        let is_store = matches!(ctx.kind, InstrKind::Store { .. });
        let is_param = matches!(ctx.kind, InstrKind::Param(_));
        let (lo, hi) = self.tracked_range();
        for d in lo..hi {
            let tag = self.regions[d].tag;
            let mut t = self.cd_time(d);
            if is_param {
                // Parameter times come from the call site's argument times
                // (depths beyond the caller's depth default to 0).
                if let (InstrKind::Param(i), Some(call)) = (ctx.kind, self.calls.last()) {
                    t = t.max(call.arg_times[*i as usize].get(d).copied().unwrap_or(0));
                }
            } else {
                let frame = self.frames.last().expect("shadow frame");
                for &op in &self.ops {
                    if Some(op) == break_on {
                        continue;
                    }
                    t = t.max(frame.read(op.index(), d - lo, tag));
                }
                if let (InstrKind::Load(_), Some(addr)) = (ctx.kind, ctx.mem_addr) {
                    t = t.max(self.mem.read(addr, d - lo, tag));
                }
            }
            t += lat;
            if is_store {
                let addr = ctx.mem_addr.expect("store has an address");
                self.mem.write(addr, d - lo, tag, t);
            } else {
                let frame = self.frames.last_mut().expect("shadow frame");
                frame.write(ctx.value.index(), d - lo, tag, t);
            }
            let r = &mut self.regions[d];
            r.cp = r.cp.max(t);
        }
    }

    fn on_call(&mut self, ctx: &CallCtx<'_>) {
        let (lo, hi) = self.tracked_range();
        let frame = self.frames.last().expect("caller shadow frame");
        // Argument-time vectors are indexed by absolute depth; untracked
        // depths stay zero.
        let arg_times = ctx
            .args
            .iter()
            .map(|a| {
                let mut v = vec![0u64; hi];
                for (d, slot) in v.iter_mut().enumerate().take(hi).skip(lo) {
                    *slot = frame.read(a.index(), d - lo, self.regions[d].tag);
                }
                v
            })
            .collect();
        self.calls.push(CallRecord { call_value: ctx.call_value, arg_times });
    }

    fn on_function_enter(&mut self, func: FuncId, region: RegionId) {
        self.push_region(region);
        let f = self.module.func(func);
        self.frames.push(SeedShadowRegs::new(f.values.len(), self.config.window));
    }

    fn on_return(&mut self, ctx: &RetCtx) {
        // Capture the returned value's times at the caller's depths before
        // tearing the callee down. The callee's own depth is the current
        // innermost region.
        let (lo, hi) = self.tracked_range();
        let caller_hi = hi.min(self.regions.len() - 1);
        let ret_times: Vec<u64> = match ctx.returned {
            Some(v) => {
                let frame = self.frames.last().expect("callee shadow frame");
                let mut v_times = vec![0u64; caller_hi];
                for (d, slot) in v_times.iter_mut().enumerate().take(caller_hi).skip(lo) {
                    *slot = frame.read(v.index(), d - lo, self.regions[d].tag);
                }
                v_times
            }
            None => vec![0; caller_hi],
        };

        self.pop_region(ctx.region);
        self.frames.pop();

        if let Some(call) = self.calls.pop() {
            let lat = self.config.cost.call;
            let (lo, hi) = self.tracked_range();
            let frame = self.frames.last_mut().expect("caller shadow frame");
            for d in lo..hi {
                let tag = self.regions[d].tag;
                let t = ret_times.get(d).copied().unwrap_or(0) + lat;
                frame.write(call.call_value.index(), d - lo, tag, t);
                let r = &mut self.regions[d];
                r.cp = r.cp.max(t);
                r.work += lat;
            }
        }
    }

    fn on_region_enter(&mut self, region: RegionId) {
        self.push_region(region);
    }

    fn on_region_exit(&mut self, region: RegionId) {
        self.pop_region(region);
    }

    fn on_cd_push(&mut self, cond: ValueId) {
        let (lo, hi) = self.tracked_range();
        let frame = self.frames.last().expect("shadow frame");
        let mut entry = vec![0u64; hi];
        for (d, slot) in entry.iter_mut().enumerate().take(hi).skip(lo) {
            let cond_t = frame.read(cond.index(), d - lo, self.regions[d].tag);
            // Control times only increase: fold in the enclosing top.
            *slot = cond_t.max(self.cd_time(d));
        }
        self.cd_stack.push(entry);
    }

    fn on_cd_pop(&mut self) {
        self.cd_stack.pop().expect("cd stack underflow");
    }
}

/// [`crate::profile_unit_with_machine`] on the frozen seed profiler.
///
/// # Errors
///
/// Propagates interpreter failures ([`InterpError`]).
pub fn profile_unit_seed(
    unit: &CompiledUnit,
    config: HcpaConfig,
    machine: MachineConfig,
) -> Result<ProfileOutcome, InterpError> {
    let mut profiler = SeedProfiler::new(&unit.module, config);
    let run = kremlin_interp::run_with_hook(&unit.module, &mut profiler, machine)?;
    let (dict, stats) = profiler.finish();
    let mut profile =
        ParallelismProfile::build(&unit.module.regions, dict, &unit.reduction_loops());
    profile.set_source_name(&unit.module.source_name);
    Ok(ProfileOutcome { profile, stats, run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profile_unit, HcpaConfig};

    /// The optimized profiler and the frozen seed profiler are independent
    /// implementations of the same specification: their profiles must be
    /// bit-identical, instruction counts and all.
    #[test]
    fn optimized_profiler_matches_seed_profiler() {
        let srcs = [
            "float acc[16];\n\
             float work(float x) { float s = 0.0; for (int k = 0; k < 6; k++) { s += sqrt(x + (float) k); } return s; }\n\
             int main() {\n\
               for (int i = 0; i < 6; i++) {\n\
                 for (int j = 0; j < 6; j++) { acc[j] += work((float) (i * j)); }\n\
               }\n\
               return (int) acc[3];\n\
             }",
            "float a[64];\n\
             int main() {\n\
               for (int i = 0; i < 64; i++) { a[i] = (float) i; }\n\
               float s = 0.0;\n\
               for (int i = 0; i < 64; i++) { s += a[i] * a[i]; }\n\
               if (s > 10.0) { a[0] = s; } else { a[0] = 0.0; }\n\
               return (int) a[0] % 97;\n\
             }",
            "float a[64]; float b[64];\n\
             int main() {\n\
               for (int i = 0; i < 64; i++) { a[i] = (float) i; }\n\
               float s = 0.0;\n\
               for (int i = 0; i < 64; i++) { if (a[i] > 10.0) { s += a[i]; } else { b[i] = s; } }\n\
               return (int) s;\n\
             }",
            "float m[12][12];\n\
             float f(float x) { float t = 0.0; for (int h = 0; h < 4; h++) { t += x * 0.5 + (float) h; } return t; }\n\
             int main() {\n\
               for (int i = 0; i < 12; i++) { for (int j = 0; j < 12; j++) { m[i][j] = f((float)(i + j)); } }\n\
               return (int) m[3][4];\n\
             }",
            // `g`'s first activation in the loop body has the same summary
            // as the one right before the loop: it must count as the
            // body's child, not merge into `main`'s.
            "int g(int x) { return x * 2 + 1; }\n\
             int main() { int s = g(1); for (int i = 0; i < 3; i++) { s += g(1); } return s; }",
            // Segment folding, sink rule: `dead` is read by nothing, so
            // it is committed, and `g`'s critical path still includes
            // its `sqrt`. (A dead local inside a loop would not test
            // this: mem2reg routes it into a header phi, which is
            // committed anyway.)
            "float out[8];\n\
             float g(float x) { float dead = sqrt(x) * 40.0; return 1.0; }\n\
             int main() { for (int i = 0; i < 8; i++) { out[i] = g((float) i); } return (int) out[3]; }",
            // Segment folding, longest paths: the store reads `x` through
            // a short path found first and a long one found second, and
            // its input offset must be the longer.
            "float a[16]; float b[16];\n\
             int main() {\n\
               for (int i = 0; i < 16; i++) { a[i] = (float) (i * i); }\n\
               for (int i = 0; i < 16; i++) { float x = a[i]; b[i] = (x + 1.0) + (x * x * x * 2.0); }\n\
               return (int) b[5];\n\
             }",
        ];
        let configs = [
            HcpaConfig::default(),
            HcpaConfig { window: 3, ..HcpaConfig::default() },
            HcpaConfig { window: 4, min_depth: 2, ..HcpaConfig::default() },
            HcpaConfig { window: 4, min_depth: 3, ..HcpaConfig::default() },
            HcpaConfig { break_carried_deps: false, ..HcpaConfig::default() },
        ];
        for (i, src) in srcs.iter().enumerate() {
            let unit = kremlin_ir::compile(src, "t.kc").unwrap();
            for config in configs {
                let opt = profile_unit(&unit, config).unwrap();
                let seed = profile_unit_seed(&unit, config, MachineConfig::default()).unwrap();
                let at = format!(
                    "program {i}, window {}, min_depth {}, break {}",
                    config.window, config.min_depth, config.break_carried_deps
                );
                assert!(opt.profile.identical_stats(&seed.profile), "profiles differ ({at})");
                // `identical_stats` skips the dictionary: compare it entry
                // by entry, with its root and raw summary count.
                assert!(opt.profile.dict == seed.profile.dict, "dictionaries differ ({at})");
                assert_eq!(opt.run, seed.run);
                assert_eq!(opt.stats.instr_events, seed.stats.instr_events);
                assert_eq!(opt.stats.dynamic_regions, seed.stats.dynamic_regions);
                assert_eq!(opt.stats.max_depth, seed.stats.max_depth);
                assert_eq!(opt.stats.shadow_pages, seed.stats.shadow_pages);
            }
        }
    }
}
