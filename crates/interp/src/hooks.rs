//! Instrumentation hooks.
//!
//! The interpreter drives an [`ExecHook`] with the exact event stream that
//! Kremlin's statically instrumented binaries feed KremLib (paper §3):
//! per-instruction events with operand dependencies, region entry/exit,
//! control-dependence pushes/pops, and call/return boundary events. As
//! Kremlin's compiler decides statically which instructions KremLib must
//! see, a hook names the instruction events it needs
//! ([`ExecHook::selects_instr`]) and receives only those.
//! `kremlin-hcpa` implements this trait to run hierarchical critical path
//! analysis; [`NullHook`] runs nothing (plain execution, the baseline for
//! the instrumentation-overhead experiment of paper §4.4).

use kremlin_ir::{FuncId, Function, InstrKind, RegionId, ValueId};

/// Context for one executed instruction.
#[derive(Debug)]
pub struct InstrCtx<'a> {
    /// The function being executed.
    pub func: &'a Function,
    /// The instruction's value ID (its result slot).
    pub value: ValueId,
    /// The instruction.
    pub kind: &'a InstrKind,
    /// Resolved memory slot for `Load`/`Store`, else `None`.
    pub mem_addr: Option<u64>,
    /// For phis: the incoming value actually taken this time.
    pub phi_source: Option<ValueId>,
}

/// Context for a call, observed in the *caller's* frame just before the
/// callee frame is created.
#[derive(Debug)]
pub struct CallCtx<'a> {
    /// Caller function.
    pub caller: &'a Function,
    /// Callee function ID.
    pub callee: FuncId,
    /// Callee's function region.
    pub callee_region: RegionId,
    /// Argument value IDs in the caller's frame.
    pub args: &'a [ValueId],
    /// The call instruction's own value ID (receives the return value).
    pub call_value: ValueId,
}

/// Context for a return, observed just before the callee frame is popped.
#[derive(Debug)]
pub struct RetCtx {
    /// Returning function.
    pub func: FuncId,
    /// Its function region.
    pub region: RegionId,
    /// The returned value's ID in the *callee's* frame, if any.
    pub returned: Option<ValueId>,
}

/// Observer of the dynamic execution. All event methods default to
/// no-ops.
pub trait ExecHook {
    /// Whether the hook needs the [`on_instr`](ExecHook::on_instr) events
    /// of `value` in `func`. Every event source ([`run_with_hook`],
    /// [`replay`](crate::trace::replay) and
    /// [`replay_decoded`](crate::trace::replay_decoded)) asks once per
    /// value before the first event and then delivers only the selected
    /// instruction events, in order; every other event is delivered. The
    /// default selects every instruction event.
    ///
    /// [`run_with_hook`]: crate::machine::run_with_hook
    fn selects_instr(&self, _func: FuncId, _value: ValueId) -> bool {
        true
    }

    /// A selected instruction was executed (markers and calls are
    /// reported through their dedicated methods instead).
    fn on_instr(&mut self, _ctx: &InstrCtx<'_>) {}

    /// A call is about to transfer control (caller frame still current).
    fn on_call(&mut self, _ctx: &CallCtx<'_>) {}

    /// Execution entered a function body (new frame current). Also fired
    /// once for `main` at startup.
    fn on_function_enter(&mut self, _func: FuncId, _region: RegionId) {}

    /// A function is about to return (callee frame still current). Also
    /// fired for `main` at exit.
    fn on_return(&mut self, _ctx: &RetCtx) {}

    /// A loop or loop-body region was entered.
    fn on_region_enter(&mut self, _region: RegionId) {}

    /// A loop or loop-body region was exited.
    fn on_region_exit(&mut self, _region: RegionId) {}

    /// A condition was pushed onto the control-dependence stack.
    fn on_cd_push(&mut self, _cond: ValueId) {}

    /// The control-dependence stack was popped.
    fn on_cd_pop(&mut self) {}
}

/// A hook that observes nothing: plain, uninstrumented execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl ExecHook for NullHook {}

/// A recording hook that captures the marker stream; used by tests to
/// check that region events nest properly and that the control-dependence
/// stack balances.
#[derive(Debug, Default)]
pub struct TraceHook {
    /// Flattened event trace.
    pub events: Vec<TraceEvent>,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `on_region_enter`
    RegionEnter(RegionId),
    /// `on_region_exit`
    RegionExit(RegionId),
    /// `on_function_enter`
    FuncEnter(FuncId),
    /// `on_return`
    FuncExit(FuncId),
    /// `on_cd_push`
    CdPush,
    /// `on_cd_pop`
    CdPop,
}

impl ExecHook for TraceHook {
    fn on_function_enter(&mut self, func: FuncId, _region: RegionId) {
        self.events.push(TraceEvent::FuncEnter(func));
    }

    fn on_return(&mut self, ctx: &RetCtx) {
        self.events.push(TraceEvent::FuncExit(ctx.func));
    }

    fn on_region_enter(&mut self, region: RegionId) {
        self.events.push(TraceEvent::RegionEnter(region));
    }

    fn on_region_exit(&mut self, region: RegionId) {
        self.events.push(TraceEvent::RegionExit(region));
    }

    fn on_cd_push(&mut self, _cond: ValueId) {
        self.events.push(TraceEvent::CdPush);
    }

    fn on_cd_pop(&mut self) {
        self.events.push(TraceEvent::CdPop);
    }
}

impl TraceHook {
    /// Checks that region/function events form a properly nested bracket
    /// sequence and that cd pushes/pops balance *within* each region
    /// bracket. Returns the maximum region nesting depth.
    ///
    /// # Errors
    ///
    /// Returns a description of the first nesting violation.
    pub fn check_nesting(&self) -> Result<usize, String> {
        #[derive(Debug, PartialEq)]
        enum Open {
            Region(RegionId),
            Func(FuncId),
        }
        let mut stack: Vec<Open> = Vec::new();
        let mut max_depth = 0usize;
        for (i, e) in self.events.iter().enumerate() {
            match e {
                TraceEvent::RegionEnter(r) => {
                    stack.push(Open::Region(*r));
                }
                TraceEvent::FuncEnter(f) => {
                    stack.push(Open::Func(*f));
                }
                TraceEvent::RegionExit(r) => match stack.pop() {
                    Some(Open::Region(top)) if top == *r => {}
                    other => {
                        return Err(format!(
                            "event {i}: region exit {r} does not match open {other:?}"
                        ))
                    }
                },
                TraceEvent::FuncExit(f) => match stack.pop() {
                    Some(Open::Func(top)) if top == *f => {}
                    other => {
                        return Err(format!(
                            "event {i}: function exit {f} does not match open {other:?}"
                        ))
                    }
                },
                TraceEvent::CdPush | TraceEvent::CdPop => {}
            }
            max_depth = max_depth.max(stack.len());
        }
        if !stack.is_empty() {
            return Err(format!("{} brackets left open at end of trace", stack.len()));
        }
        // cd pushes/pops must balance globally as well.
        let pushes = self.events.iter().filter(|e| **e == TraceEvent::CdPush).count();
        let pops = self.events.iter().filter(|e| **e == TraceEvent::CdPop).count();
        if pushes != pops {
            return Err(format!("{pushes} cd pushes vs {pops} pops"));
        }
        Ok(max_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_checker_accepts_proper_brackets() {
        let t = TraceHook {
            events: vec![
                TraceEvent::FuncEnter(FuncId(0)),
                TraceEvent::RegionEnter(RegionId(1)),
                TraceEvent::CdPush,
                TraceEvent::RegionEnter(RegionId(2)),
                TraceEvent::RegionExit(RegionId(2)),
                TraceEvent::CdPop,
                TraceEvent::RegionExit(RegionId(1)),
                TraceEvent::FuncExit(FuncId(0)),
            ],
        };
        assert_eq!(t.check_nesting().unwrap(), 3);
    }

    #[test]
    fn nesting_checker_rejects_crossed_brackets() {
        let t = TraceHook {
            events: vec![
                TraceEvent::RegionEnter(RegionId(1)),
                TraceEvent::RegionEnter(RegionId(2)),
                TraceEvent::RegionExit(RegionId(1)),
            ],
        };
        assert!(t.check_nesting().is_err());
    }

    #[test]
    fn nesting_checker_rejects_unbalanced_cd() {
        let t = TraceHook { events: vec![TraceEvent::CdPush] };
        assert!(t.check_nesting().is_err());
    }
}
