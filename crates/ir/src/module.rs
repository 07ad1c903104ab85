//! Modules: the unit of compilation, profiling, and planning.

use crate::func::Function;
use crate::ids::{FuncId, GlobalId};
use crate::instr::Ty;
use crate::regions::RegionTable;

/// Initial value of a scalar global.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GlobalInit {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// Zero-initialized (all globals default to zero).
    Zero,
}

/// A global variable: `slots` contiguous memory slots.
#[derive(Debug, Clone)]
pub struct Global {
    /// Name (unique in the module).
    pub name: String,
    /// Scalar type of elements.
    pub elem_ty: Ty,
    /// Size in slots (1 for scalars).
    pub slots: u32,
    /// Initializer (scalars only; arrays are zeroed).
    pub init: GlobalInit,
}

/// A compiled module.
#[derive(Debug, Clone)]
pub struct Module {
    /// Source file name used in region labels and plans.
    pub source_name: String,
    /// [`source_fingerprint`](crate::source_fingerprint) of the name and
    /// source this module was compiled from, set by
    /// [`compile`](crate::compile); `0` for a module lowered directly.
    pub source_fp: u64,
    /// Functions, indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Globals, indexed by [`GlobalId`].
    pub globals: Vec<Global>,
    /// The module-wide static region table.
    pub regions: RegionTable,
    /// The entry function (`main`), if present.
    pub main: Option<FuncId>,
}

impl Module {
    /// Looks up a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Looks up a global.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Total slots occupied by all globals (the base of the stack area in
    /// the interpreter's memory layout).
    pub fn global_slots(&self) -> u64 {
        self.globals.iter().map(|g| g.slots as u64).sum()
    }

    /// Slot offset of a global within the globals area.
    pub fn global_offset(&self, id: GlobalId) -> u64 {
        self.globals[..id.index()].iter().map(|g| g.slots as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_layout_is_sequential() {
        let g = |name: &str, slots| Global {
            name: name.into(),
            elem_ty: Ty::I64,
            slots,
            init: GlobalInit::Zero,
        };
        let m = Module {
            source_name: "t.kc".into(),
            source_fp: 0,
            funcs: vec![],
            globals: vec![g("a", 4), g("b", 1), g("c", 16)],
            regions: RegionTable::new(),
            main: None,
        };
        assert_eq!(m.global_offset(GlobalId(0)), 0);
        assert_eq!(m.global_offset(GlobalId(1)), 4);
        assert_eq!(m.global_offset(GlobalId(2)), 5);
        assert_eq!(m.global_slots(), 21);
    }
}
