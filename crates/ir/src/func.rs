//! Functions, blocks, and values.

use crate::ids::{BlockId, FuncId, LoopId, RegionId, ValueId};
use crate::instr::{InstrKind, Terminator, Ty};
use kremlin_minic::Span;

/// One value in a function: its defining instruction, type, and metadata.
#[derive(Debug, Clone)]
pub struct ValueData {
    /// The defining instruction.
    pub kind: InstrKind,
    /// Result type ([`Ty::Unit`] for stores and markers).
    pub ty: Ty,
    /// Source span of the originating AST node.
    pub span: Span,
    /// When set, the profiler ignores the dependence on this operand:
    /// the induction/reduction-variable breaking of paper §4.1
    /// ("a special shadow memory update rule that ignores the dependency on
    /// their old value"). Filled in by the `indvar` analysis.
    pub break_dep_on: Option<ValueId>,
}

/// A basic block: ordered instructions plus one terminator.
#[derive(Debug, Clone)]
pub struct Block {
    /// Instruction list (value IDs into [`Function::values`]).
    pub instrs: Vec<ValueId>,
    /// The terminator. Lowering guarantees every reachable block has one;
    /// `None` only transiently during construction.
    pub term: Option<Terminator>,
}

impl Block {
    /// The terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block was never terminated (a lowering bug).
    pub fn terminator(&self) -> &Terminator {
        self.term.as_ref().expect("block has no terminator")
    }
}

/// A stack allocation (local variable or array) in a function frame.
#[derive(Debug, Clone)]
pub struct AllocaInfo {
    /// Slot offset within the frame.
    pub offset: u32,
    /// Size in slots.
    pub slots: u32,
    /// Source-level variable name (for diagnostics and printing).
    pub name: String,
    /// Whether this is a single scalar slot (mem2reg candidate).
    pub is_scalar: bool,
}

/// Metadata for one structured loop, recorded during lowering.
///
/// The `loops` module independently recomputes natural loops from back
/// edges; tests cross-check the two.
#[derive(Debug, Clone)]
pub struct LoopMeta {
    /// Loop ID within the function.
    pub id: LoopId,
    /// Block that evaluates the condition; target of the back edge.
    pub header: BlockId,
    /// Block jumped to before the first condition evaluation.
    pub preheader: BlockId,
    /// Block holding the step and the back edge to `header`.
    pub latch: BlockId,
    /// First block of the loop body (starts with `CdPush`, `RegionEnter`).
    pub body_entry: BlockId,
    /// Block on the exit edge (contains the loop's `RegionExit`).
    pub exit: BlockId,
    /// The loop region.
    pub region: RegionId,
    /// The loop-body region.
    pub body_region: RegionId,
    /// Enclosing loop, if nested.
    pub parent: Option<LoopId>,
}

/// A function: values, blocks, frame layout, and loop/region metadata.
#[derive(Debug, Clone)]
pub struct Function {
    /// This function's ID in the module.
    pub id: FuncId,
    /// Name (unique within the module).
    pub name: String,
    /// Parameter types, in order. Parameter `i` is value
    /// [`Function::param_value`]`(i)`.
    pub param_tys: Vec<Ty>,
    /// Return type; `None` for `void`.
    pub ret_ty: Option<Ty>,
    /// All values (instructions and params), indexed by [`ValueId`].
    pub values: Vec<ValueData>,
    /// All blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// Stack allocations; frame size is [`Function::frame_slots`].
    pub allocas: Vec<AllocaInfo>,
    /// Total frame size in slots.
    pub frame_slots: u32,
    /// This function's region.
    pub region: RegionId,
    /// Structured-loop metadata from lowering, indexed by [`LoopId`].
    pub loops: Vec<LoopMeta>,
    /// Source span.
    pub span: Span,
}

impl Function {
    /// The value representing parameter `i`.
    ///
    /// Lowering always materializes parameters as the first `param_tys.len()`
    /// values of the function.
    pub fn param_value(&self, i: usize) -> ValueId {
        debug_assert!(i < self.param_tys.len());
        ValueId::from_index(i)
    }

    /// Data for a value.
    pub fn value(&self, v: ValueId) -> &ValueData {
        &self.values[v.index()]
    }

    /// A block.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Iterates block IDs in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BinOp;

    fn tiny_func() -> Function {
        // fn f(a: i64) -> i64 { a + 1 }
        let values = vec![
            ValueData {
                kind: InstrKind::Param(0),
                ty: Ty::I64,
                span: Span::dummy(),
                break_dep_on: None,
            },
            ValueData {
                kind: InstrKind::ConstInt(1),
                ty: Ty::I64,
                span: Span::dummy(),
                break_dep_on: None,
            },
            ValueData {
                kind: InstrKind::Bin(BinOp::IAdd, ValueId(0), ValueId(1)),
                ty: Ty::I64,
                span: Span::dummy(),
                break_dep_on: None,
            },
        ];
        Function {
            id: FuncId(0),
            name: "f".into(),
            param_tys: vec![Ty::I64],
            ret_ty: Some(Ty::I64),
            values,
            blocks: vec![Block {
                instrs: vec![ValueId(1), ValueId(2)],
                term: Some(Terminator::Ret(Some(ValueId(2)))),
            }],
            entry: BlockId(0),
            allocas: vec![],
            frame_slots: 0,
            region: RegionId(0),
            loops: vec![],
            span: Span::dummy(),
        }
    }

    #[test]
    fn param_values_are_leading() {
        let f = tiny_func();
        assert_eq!(f.param_value(0), ValueId(0));
        assert!(matches!(f.value(ValueId(0)).kind, InstrKind::Param(0)));
    }

    #[test]
    #[should_panic(expected = "no terminator")]
    fn unterminated_block_panics() {
        let mut f = tiny_func();
        f.blocks[0].term = None;
        let _ = f.block(BlockId(0)).terminator();
    }
}
