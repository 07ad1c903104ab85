//! Flat slot-addressed memory: globals at the bottom, an upward-growing
//! frame stack above them.
//!
//! Addresses are slot indices (one slot = one scalar). This mirrors the
//! addressing granularity of Kremlin's shadow memory, which tracks one
//! availability-time vector per memory location.

use crate::error::InterpError;
use kremlin_ir::module::{GlobalInit, Module};
use kremlin_ir::FuncId;

/// The live extent of a module's slot address space: its globals, then
/// one frame per open activation. The interpreter's [`Memory`] keeps one,
/// and so does trace replay's validator, so a replayed frame or address is
/// one an execution could have produced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StackTop {
    top: u64,
    limit: u64,
}

impl StackTop {
    /// The empty stack of `module`: its top sits right above the globals,
    /// and frames may take `stack_slots` slots beyond them.
    pub fn for_module(module: &Module, stack_slots: u64) -> StackTop {
        let globals_end = module.global_slots();
        StackTop { top: globals_end, limit: globals_end + stack_slots }
    }

    /// Opens a frame of `slots` slots, returning its base address, or
    /// `None` when it would take the top past the limit.
    #[inline]
    pub fn push(&mut self, slots: u32) -> Option<u64> {
        let base = self.top;
        let top = base + u64::from(slots);
        if top > self.limit {
            return None;
        }
        self.top = top;
        Some(base)
    }

    /// Closes the most recent frame, of `slots` slots.
    #[inline]
    pub fn pop(&mut self, slots: u32) {
        self.top -= u64::from(slots);
    }

    /// Whether `addr` is a slot of a global or of an open frame.
    #[inline]
    pub fn holds(&self, addr: u64) -> bool {
        addr < self.top
    }
}

/// Interpreter memory.
#[derive(Debug)]
pub struct Memory {
    slots: Vec<u64>,
    stack: StackTop,
}

impl Memory {
    /// Creates memory for a module: globals initialized, stack empty.
    ///
    /// Frames may take `stack_limit` slots beyond the globals.
    pub fn for_module(m: &Module, stack_limit: u64) -> Memory {
        let mut slots = vec![0u64; m.global_slots() as usize];
        let mut off = 0usize;
        for g in &m.globals {
            match g.init {
                GlobalInit::Int(v) => slots[off] = v as u64,
                GlobalInit::Float(v) => slots[off] = v.to_bits(),
                GlobalInit::Zero => {}
            }
            off += g.slots as usize;
        }
        Memory { slots, stack: StackTop::for_module(m, stack_limit) }
    }

    /// Pushes a zeroed frame of `slots` slots, returning its base address.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::StackOverflow`] if the limit is exceeded.
    pub fn push_frame(&mut self, slots: u32) -> Result<u64, InterpError> {
        let base = self.stack.push(slots).ok_or(InterpError::StackOverflow)?;
        let top = base as usize + slots as usize;
        // The slots below the highest top seen so far may hold an earlier
        // frame's values, whether or not this frame also grows memory.
        let reused = top.min(self.slots.len());
        self.slots[base as usize..reused].fill(0);
        if top > self.slots.len() {
            self.slots.resize(top, 0);
        }
        Ok(base)
    }

    /// Pops the most recent frame of `slots` slots.
    pub fn pop_frame(&mut self, slots: u32) {
        self.stack.pop(slots);
    }

    /// Reads raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::OutOfBounds`] for addresses outside the live
    /// globals+stack area.
    pub fn load(&self, addr: u64, func: FuncId) -> Result<u64, InterpError> {
        if !self.stack.holds(addr) {
            return Err(InterpError::OutOfBounds { addr, func });
        }
        Ok(self.slots[addr as usize])
    }

    /// Writes raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::OutOfBounds`] for addresses outside the live
    /// globals+stack area.
    pub fn store(&mut self, addr: u64, bits: u64, func: FuncId) -> Result<(), InterpError> {
        if !self.stack.holds(addr) {
            return Err(InterpError::OutOfBounds { addr, func });
        }
        self.slots[addr as usize] = bits;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kremlin_ir::compile;

    fn mem(stack: u64) -> Memory {
        let unit =
            compile("int g = 7; float h = 1.5; float a[3]; int main() { return 0; }", "t.kc")
                .unwrap();
        Memory::for_module(&unit.module, stack)
    }

    #[test]
    fn globals_are_initialized() {
        let m = mem(16);
        assert_eq!(m.load(0, FuncId(0)).unwrap(), 7);
        assert_eq!(f64::from_bits(m.load(1, FuncId(0)).unwrap()), 1.5);
        assert_eq!(m.load(2, FuncId(0)).unwrap(), 0); // array zeroed
        assert!(m.load(4, FuncId(0)).is_ok()); // the globals take five slots
    }

    #[test]
    fn frames_push_zeroed_and_pop() {
        let mut m = mem(16);
        let base = m.push_frame(4).unwrap();
        assert_eq!(base, 5);
        m.store(base + 1, 99, FuncId(0)).unwrap();
        m.pop_frame(4);
        // Reuse: frame must be zeroed again.
        let base2 = m.push_frame(4).unwrap();
        assert_eq!(base2, base);
        assert_eq!(m.load(base2 + 1, FuncId(0)).unwrap(), 0);
    }

    #[test]
    fn a_frame_that_grows_memory_is_zeroed_below_the_old_top_too() {
        let mut m = mem(16);
        let base = m.push_frame(4).unwrap();
        m.store(base + 1, 99, FuncId(0)).unwrap();
        m.pop_frame(4);
        // Half of this frame reuses the first one's slots.
        let base2 = m.push_frame(8).unwrap();
        assert_eq!(base2, base);
        assert_eq!(m.load(base2 + 1, FuncId(0)).unwrap(), 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = mem(16);
        assert!(m.load(5, FuncId(0)).is_err()); // above sp
        let base = m.push_frame(2).unwrap();
        assert!(m.load(base + 1, FuncId(0)).is_ok());
        assert!(m.store(base + 2, 0, FuncId(0)).is_err());
        // Negative-index wraparound lands far above sp.
        assert!(m.load(u64::MAX, FuncId(0)).is_err());
    }

    #[test]
    fn stack_overflow() {
        let mut m = mem(8);
        assert!(m.push_frame(8).is_ok());
        assert!(matches!(m.push_frame(1), Err(InterpError::StackOverflow)));
    }
}
