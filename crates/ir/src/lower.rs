//! AST → IR lowering.
//!
//! This pass plays the role of Kremlin's two LLVM instrumentation passes
//! (paper §3): while translating the elaborated AST into the IR it
//!
//! * places **region markers** around every loop and loop body (function
//!   regions are implicit in call/return), and
//! * places **control-dependence markers** (`CdPush`/`CdPop`) around every
//!   control-dependent block, exploiting mini-C's structured control flow.
//!
//! `break`/`continue`/`return` emit explicit *unwind sequences* that close
//! any regions and pop any control-dependence entries they jump out of, so
//! the dynamic marker stream is always properly nested — the invariant
//! Kremlin's region model requires (§2.2).
//!
//! Scalar locals and parameters are lowered through stack slots
//! ([`InstrKind::Alloca`]) and later promoted to SSA by `mem2reg`, exactly
//! as Clang does ahead of LLVM's SSA construction.

use crate::func::{AllocaInfo, Block, Function, LoopMeta, ValueData};
use crate::ids::{AllocaId, BlockId, FuncId, GlobalId, LoopId, RegionId, ValueId};
use crate::instr::{BinOp, Cmp, InstrKind, Intrinsic, Terminator, Ty, UnOp};
use crate::module::{Global, GlobalInit, Module};
use crate::regions::{RegionKind, RegionTable};
use kremlin_minic::ast;
use kremlin_minic::types::{Scalar, Type};
use kremlin_minic::Span;
use std::collections::HashMap;

/// Lowers a type-checked program into an IR [`Module`].
///
/// The input **must** come from `kremlin_minic::typeck::check` — lowering
/// assumes all implicit conversions are explicit and all names resolve.
///
/// # Panics
///
/// Panics on ill-typed input (these are compiler bugs, not user errors,
/// because the type checker has already accepted the program).
pub fn lower(program: &ast::Program, source_name: &str) -> Module {
    let mut regions = RegionTable::new();

    let mut func_ids = HashMap::new();
    for (i, f) in program.funcs.iter().enumerate() {
        func_ids.insert(f.name.clone(), FuncId::from_index(i));
    }

    let mut global_ids = HashMap::new();
    let mut globals = Vec::new();
    for (i, g) in program.globals.iter().enumerate() {
        let id = GlobalId::from_index(i);
        global_ids.insert(g.name.clone(), (id, g.ty.clone()));
        let elem_ty = match &g.ty {
            Type::Scalar(Scalar::Int) => Ty::I64,
            Type::Scalar(Scalar::Float) => Ty::F64,
            Type::Array { elem: Scalar::Int, .. } => Ty::I64,
            Type::Array { elem: Scalar::Float, .. } => Ty::F64,
            Type::Void => unreachable!("void global rejected by parser"),
        };
        let init = match g.init {
            Some(ast::ConstInit::Int(v)) => GlobalInit::Int(v),
            Some(ast::ConstInit::Float(v)) => GlobalInit::Float(v),
            None => GlobalInit::Zero,
        };
        globals.push(Global { name: g.name.clone(), elem_ty, slots: g.ty.slot_count(), init });
    }

    let mut funcs = Vec::new();
    for (i, f) in program.funcs.iter().enumerate() {
        let id = FuncId::from_index(i);
        let lowerer = FuncLowerer::new(id, f, &func_ids, &global_ids, program, &mut regions);
        funcs.push(lowerer.run(f));
    }

    let main = func_ids.get("main").copied();
    Module { source_name: source_name.to_owned(), source_fp: 0, funcs, globals, regions, main }
}

/// Where a surface variable lives.
#[derive(Clone)]
enum VarSlot {
    /// Frame slot (scalar or array local / scalar param).
    Alloca(AllocaId, Type),
    /// Array parameter: the pointer is the parameter value itself.
    ParamArray(ValueId, Type),
    /// Module global.
    Global(GlobalId, Type),
}

/// The value category an expression lowers to.
enum Lowered {
    /// A scalar value.
    Scalar(ValueId, Scalar),
    /// A pointer to an array (with its remaining array type).
    ArrayPtr(ValueId, Type),
}

impl Lowered {
    fn scalar(self) -> (ValueId, Scalar) {
        match self {
            Lowered::Scalar(v, s) => (v, s),
            Lowered::ArrayPtr(..) => panic!("expected scalar, found array (typeck bug)"),
        }
    }
}

struct LoopScope {
    /// Block following the loop (`break` target after unwinding).
    after: BlockId,
    /// Block that closes the body region (`continue` target after
    /// unwinding to body level).
    body_end: BlockId,
    /// `cd_depth` just before the loop's condition push.
    cd_depth_at_loop: u32,
    body_region: RegionId,
    loop_region: RegionId,
}

struct FuncLowerer<'a> {
    func_id: FuncId,
    func_sigs: &'a HashMap<String, FuncId>,
    global_ids: &'a HashMap<String, (GlobalId, Type)>,
    program: &'a ast::Program,
    regions: &'a mut RegionTable,

    values: Vec<ValueData>,
    blocks: Vec<Block>,
    cur: BlockId,
    scopes: Vec<HashMap<String, VarSlot>>,
    allocas: Vec<AllocaInfo>,
    frame_slots: u32,
    loops: Vec<LoopMeta>,
    loop_stack: Vec<LoopScope>,
    /// Number of `CdPush`es live at the current lexical point.
    cd_depth: u32,
    /// Open loop/body regions at the current lexical point (for `return`).
    open_regions: Vec<RegionId>,
    func_region: RegionId,
    loop_counter: u32,
}

impl<'a> FuncLowerer<'a> {
    fn new(
        func_id: FuncId,
        f: &ast::FuncDecl,
        func_sigs: &'a HashMap<String, FuncId>,
        global_ids: &'a HashMap<String, (GlobalId, Type)>,
        program: &'a ast::Program,
        regions: &'a mut RegionTable,
    ) -> Self {
        let func_region = regions.add(RegionKind::Func, func_id, None, f.name.clone(), f.span);
        FuncLowerer {
            func_id,
            func_sigs,
            global_ids,
            program,
            regions,
            values: Vec::new(),
            blocks: vec![Block { instrs: Vec::new(), term: None }],
            cur: BlockId(0),
            scopes: vec![HashMap::new()],
            allocas: Vec::new(),
            frame_slots: 0,
            loops: Vec::new(),
            loop_stack: Vec::new(),
            cd_depth: 0,
            open_regions: Vec::new(),
            func_region,
            loop_counter: 0,
        }
    }

    // ---- low-level emission ----------------------------------------------

    fn new_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(Block { instrs: Vec::new(), term: None });
        id
    }

    fn terminated(&self) -> bool {
        self.blocks[self.cur.index()].term.is_some()
    }

    fn terminate(&mut self, term: Terminator) {
        debug_assert!(!self.terminated(), "double termination of {:?}", self.cur);
        self.blocks[self.cur.index()].term = Some(term);
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    fn emit(&mut self, kind: InstrKind, ty: Ty, span: Span) -> ValueId {
        if self.terminated() {
            // Unreachable code after return/break: keep lowering into a
            // fresh dead block so the IR stays well-formed.
            let dead = self.new_block();
            self.switch_to(dead);
        }
        let id = ValueId::from_index(self.values.len());
        self.values.push(ValueData { kind, ty, span, break_dep_on: None });
        self.blocks[self.cur.index()].instrs.push(id);
        id
    }

    fn const_int(&mut self, v: i64, span: Span) -> ValueId {
        self.emit(InstrKind::ConstInt(v), Ty::I64, span)
    }

    fn new_alloca(&mut self, name: &str, ty: &Type) -> AllocaId {
        let slots = ty.slot_count();
        let id = AllocaId::from_index(self.allocas.len());
        self.allocas.push(AllocaInfo {
            offset: self.frame_slots,
            slots,
            name: name.to_owned(),
            is_scalar: !ty.is_array(),
        });
        self.frame_slots += slots;
        id
    }

    fn declare_var(&mut self, name: &str, slot: VarSlot) {
        self.scopes.last_mut().expect("scope stack").insert(name.to_owned(), slot);
    }

    fn lookup_var(&self, name: &str) -> VarSlot {
        for s in self.scopes.iter().rev() {
            if let Some(v) = s.get(name) {
                return v.clone();
            }
        }
        let (gid, ty) = self.global_ids.get(name).expect("typeck resolved all names");
        VarSlot::Global(*gid, ty.clone())
    }

    // ---- entry -------------------------------------------------------------

    fn run(mut self, f: &ast::FuncDecl) -> Function {
        // Materialize parameters as the first values.
        let mut param_tys = Vec::new();
        for (i, p) in f.params.iter().enumerate() {
            let ty = match &p.ty {
                Type::Scalar(Scalar::Int) => Ty::I64,
                Type::Scalar(Scalar::Float) => Ty::F64,
                Type::Array { .. } => Ty::Ptr,
                Type::Void => unreachable!(),
            };
            param_tys.push(ty);
            let v = self.emit(InstrKind::Param(i as u32), ty, p.span);
            debug_assert_eq!(v.index(), i);
        }
        // Scalar params get a frame slot so they are assignable; mem2reg
        // promotes them right back. Array params are pointers as-is.
        for (i, p) in f.params.iter().enumerate() {
            match &p.ty {
                Type::Scalar(_) => {
                    let a = self.new_alloca(&p.name, &p.ty);
                    let ptr = self.emit(InstrKind::Alloca(a), Ty::Ptr, p.span);
                    let pv = ValueId::from_index(i);
                    self.emit(InstrKind::Store { ptr, value: pv }, Ty::Unit, p.span);
                    self.declare_var(&p.name, VarSlot::Alloca(a, p.ty.clone()));
                }
                ty @ Type::Array { .. } => {
                    self.declare_var(
                        &p.name,
                        VarSlot::ParamArray(ValueId::from_index(i), ty.clone()),
                    );
                }
                Type::Void => unreachable!(),
            }
        }

        self.lower_block(&f.body);

        if !self.terminated() {
            // Type checking guarantees value-returning functions always
            // return; only void functions can fall off the end.
            self.terminate(Terminator::Ret(None));
        }
        // Terminate any dead blocks produced by unreachable code.
        for b in &mut self.blocks {
            if b.term.is_none() {
                b.term = Some(Terminator::Ret(None));
            }
        }

        // Fix up loop parents from the region tree: a nested loop's region
        // parent is the enclosing loop's *body* region.
        let region_to_loop: HashMap<RegionId, LoopId> =
            self.loops.iter().map(|l| (l.region, l.id)).collect();
        let parent_of = |loop_region: RegionId, regions: &RegionTable| -> Option<LoopId> {
            let mut cur = regions.info(loop_region).parent;
            while let Some(r) = cur {
                if let Some(l) = region_to_loop.get(&r) {
                    return Some(*l);
                }
                cur = regions.info(r).parent;
            }
            None
        };
        for i in 0..self.loops.len() {
            self.loops[i].parent = parent_of(self.loops[i].region, self.regions);
        }

        let ret_ty = match &f.ret {
            Type::Void => None,
            Type::Scalar(Scalar::Int) => Some(Ty::I64),
            Type::Scalar(Scalar::Float) => Some(Ty::F64),
            Type::Array { .. } => unreachable!("array returns rejected"),
        };

        Function {
            id: self.func_id,
            name: f.name.clone(),
            param_tys,
            ret_ty,
            values: self.values,
            blocks: self.blocks,
            entry: BlockId(0),
            allocas: self.allocas,
            frame_slots: self.frame_slots,
            region: self.func_region,
            loops: self.loops,
            span: f.span,
        }
    }

    // ---- statements --------------------------------------------------------

    fn lower_block(&mut self, b: &ast::Block) {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.lower_stmt(s);
        }
        self.scopes.pop();
    }

    fn lower_stmt(&mut self, s: &ast::Stmt) {
        match s {
            ast::Stmt::Decl { name, ty, init, span } => {
                let a = self.new_alloca(name, ty);
                let ptr = self.emit(InstrKind::Alloca(a), Ty::Ptr, *span);
                if let Some(e) = init {
                    let (v, _) = self.lower_expr(e).scalar();
                    self.emit(InstrKind::Store { ptr, value: v }, Ty::Unit, *span);
                }
                self.declare_var(name, VarSlot::Alloca(a, ty.clone()));
            }
            ast::Stmt::Assign { target, op, value, span } => {
                let (ptr, scalar) = self.lower_lvalue_addr(target);
                let (rhs, _) = self.lower_expr(value).scalar();
                let stored = match op {
                    ast::AssignOp::Set => rhs,
                    compound => {
                        let old = self.emit(InstrKind::Load(ptr), scalar_ty(scalar), *span);
                        let bin = match (compound, scalar) {
                            (ast::AssignOp::Add, Scalar::Int) => BinOp::IAdd,
                            (ast::AssignOp::Sub, Scalar::Int) => BinOp::ISub,
                            (ast::AssignOp::Mul, Scalar::Int) => BinOp::IMul,
                            (ast::AssignOp::Div, Scalar::Int) => BinOp::IDiv,
                            (ast::AssignOp::Add, Scalar::Float) => BinOp::FAdd,
                            (ast::AssignOp::Sub, Scalar::Float) => BinOp::FSub,
                            (ast::AssignOp::Mul, Scalar::Float) => BinOp::FMul,
                            (ast::AssignOp::Div, Scalar::Float) => BinOp::FDiv,
                            (ast::AssignOp::Set, _) => unreachable!(),
                        };
                        self.emit(InstrKind::Bin(bin, old, rhs), scalar_ty(scalar), *span)
                    }
                };
                self.emit(InstrKind::Store { ptr, value: stored }, Ty::Unit, *span);
            }
            ast::Stmt::Expr(e) => {
                let _ = self.lower_expr(e);
            }
            ast::Stmt::If { cond, then_branch, else_branch, span } => {
                self.lower_if(cond, then_branch, else_branch.as_ref(), *span);
            }
            ast::Stmt::While { cond, body, span } => {
                self.lower_loop(None, Some(cond), None, body, *span);
            }
            ast::Stmt::For { init, cond, step, body, span } => {
                self.scopes.push(HashMap::new()); // for-init scope
                if let Some(init) = init {
                    self.lower_stmt(init);
                }
                self.lower_loop(None, cond.as_ref(), step.as_deref(), body, *span);
                self.scopes.pop();
            }
            ast::Stmt::Return { value, span } => {
                let v = value.as_ref().map(|e| self.lower_expr(e).scalar().0);
                // Unwind: pop every live control dependence, close every
                // open loop/body region.
                for _ in 0..self.cd_depth {
                    self.emit(InstrKind::CdPop, Ty::Unit, *span);
                }
                for r in self.open_regions.clone().into_iter().rev() {
                    self.emit(InstrKind::RegionExit(r), Ty::Unit, *span);
                }
                self.terminate(Terminator::Ret(v));
            }
            ast::Stmt::Break(span) => {
                let scope_data = self
                    .loop_stack
                    .last()
                    .map(|l| (l.cd_depth_at_loop, l.body_region, l.loop_region, l.after))
                    .expect("typeck rejects break outside loops");
                let (cd_at_loop, body_region, loop_region, after) = scope_data;
                for _ in 0..(self.cd_depth - cd_at_loop) {
                    self.emit(InstrKind::CdPop, Ty::Unit, *span);
                }
                self.emit(InstrKind::RegionExit(body_region), Ty::Unit, *span);
                self.emit(InstrKind::RegionExit(loop_region), Ty::Unit, *span);
                self.terminate(Terminator::Br(after));
            }
            ast::Stmt::Continue(span) => {
                let scope_data = self
                    .loop_stack
                    .last()
                    .map(|l| (l.cd_depth_at_loop, l.body_end))
                    .expect("typeck rejects continue outside loops");
                let (cd_at_loop, body_end) = scope_data;
                // Keep the loop-condition push (popped by body_end); pop
                // only the excess from enclosing `if`s inside the body.
                for _ in 0..(self.cd_depth - cd_at_loop - 1) {
                    self.emit(InstrKind::CdPop, Ty::Unit, *span);
                }
                self.terminate(Terminator::Br(body_end));
            }
            ast::Stmt::Block(b) => self.lower_block(b),
        }
    }

    fn lower_if(
        &mut self,
        cond: &ast::Expr,
        then_branch: &ast::Block,
        else_branch: Option<&ast::Block>,
        span: Span,
    ) {
        let (c, _) = self.lower_expr(cond).scalar();
        let then_b = self.new_block();
        let join = self.new_block();
        let else_b = if else_branch.is_some() { self.new_block() } else { join };
        self.terminate(Terminator::CondBr { cond: c, then_bb: then_b, else_bb: else_b });

        self.switch_to(then_b);
        self.emit(InstrKind::CdPush(c), Ty::Unit, span);
        self.cd_depth += 1;
        self.lower_block(then_branch);
        self.cd_depth -= 1;
        if !self.terminated() {
            self.emit(InstrKind::CdPop, Ty::Unit, span);
            self.terminate(Terminator::Br(join));
        }

        if let Some(eb) = else_branch {
            self.switch_to(else_b);
            self.emit(InstrKind::CdPush(c), Ty::Unit, span);
            self.cd_depth += 1;
            self.lower_block(eb);
            self.cd_depth -= 1;
            if !self.terminated() {
                self.emit(InstrKind::CdPop, Ty::Unit, span);
                self.terminate(Terminator::Br(join));
            }
        }
        self.switch_to(join);
    }

    /// Shared lowering for `while` (no step) and `for` (optional step).
    fn lower_loop(
        &mut self,
        _init: Option<()>,
        cond: Option<&ast::Expr>,
        step: Option<&ast::Stmt>,
        body: &ast::Block,
        span: Span,
    ) {
        let func_name = self.regions.info(self.func_region).label.clone();
        let n = self.loop_counter;
        self.loop_counter += 1;
        let parent_region = self.open_regions.last().copied().unwrap_or(self.func_region);
        let loop_region = self.regions.add(
            RegionKind::Loop,
            self.func_id,
            Some(parent_region),
            format!("{func_name}#L{n}"),
            span,
        );
        let body_region = self.regions.add(
            RegionKind::LoopBody,
            self.func_id,
            Some(loop_region),
            format!("{func_name}#L{n}b"),
            span,
        );

        let header = self.new_block();
        let body_entry = self.new_block();
        let body_end = self.new_block();
        let latch = self.new_block();
        let exit_blk = self.new_block();
        let after = self.new_block();

        // preheader (current block)
        self.emit(InstrKind::RegionEnter(loop_region), Ty::Unit, span);
        let preheader = self.cur;
        self.terminate(Terminator::Br(header));

        // header: condition
        self.switch_to(header);
        let c = match cond {
            Some(e) => self.lower_expr(e).scalar().0,
            None => self.const_int(1, span),
        };
        self.terminate(Terminator::CondBr { cond: c, then_bb: body_entry, else_bb: exit_blk });

        // body
        self.switch_to(body_entry);
        self.emit(InstrKind::CdPush(c), Ty::Unit, span);
        self.emit(InstrKind::RegionEnter(body_region), Ty::Unit, span);
        let cd_depth_at_loop = self.cd_depth;
        self.cd_depth += 1;
        self.open_regions.push(loop_region);
        self.open_regions.push(body_region);
        self.loop_stack.push(LoopScope {
            after,
            body_end,
            cd_depth_at_loop,
            body_region,
            loop_region,
        });
        self.lower_block(body);
        self.loop_stack.pop();
        self.open_regions.pop();
        self.open_regions.pop();
        self.cd_depth -= 1;
        if !self.terminated() {
            self.terminate(Terminator::Br(body_end));
        }

        // body_end: close the iteration region, pop the condition
        self.switch_to(body_end);
        self.emit(InstrKind::RegionExit(body_region), Ty::Unit, span);
        self.emit(InstrKind::CdPop, Ty::Unit, span);
        self.terminate(Terminator::Br(latch));

        // latch: step, back edge
        self.switch_to(latch);
        if let Some(s) = step {
            self.lower_stmt(s);
        }
        self.terminate(Terminator::Br(header));

        // exit edge
        self.switch_to(exit_blk);
        self.emit(InstrKind::RegionExit(loop_region), Ty::Unit, span);
        self.terminate(Terminator::Br(after));

        let id = LoopId::from_index(self.loops.len());
        self.loops.push(LoopMeta {
            id,
            header,
            preheader,
            latch,
            body_entry,
            exit: exit_blk,
            region: loop_region,
            body_region,
            parent: None, // fixed up in `run` once all loops are collected
        });

        self.switch_to(after);
    }

    // ---- expressions -------------------------------------------------------

    fn lower_lvalue_addr(&mut self, lv: &ast::LValue) -> (ValueId, Scalar) {
        let slot = self.lookup_var(&lv.name);
        let (mut ptr, mut ty) = self.base_ptr(slot, lv.span);
        for idx in &lv.indices {
            let (iv, _) = self.lower_expr(idx).scalar();
            let stride = ty.outer_stride().expect("typeck checked index depth");
            ptr = self.emit(InstrKind::Gep { base: ptr, index: iv, stride }, Ty::Ptr, lv.span);
            ty = ty.index_once().expect("typeck checked index depth");
        }
        let scalar = ty.as_scalar().expect("typeck ensured full indexing");
        (ptr, scalar)
    }

    fn base_ptr(&mut self, slot: VarSlot, span: Span) -> (ValueId, Type) {
        match slot {
            VarSlot::Alloca(a, ty) => {
                let p = self.emit(InstrKind::Alloca(a), Ty::Ptr, span);
                (p, ty)
            }
            VarSlot::ParamArray(v, ty) => (v, ty),
            VarSlot::Global(g, ty) => {
                let p = self.emit(InstrKind::GlobalAddr(g), Ty::Ptr, span);
                (p, ty)
            }
        }
    }

    fn lower_expr(&mut self, e: &ast::Expr) -> Lowered {
        match e {
            ast::Expr::IntLit(v, span) => {
                Lowered::Scalar(self.emit(InstrKind::ConstInt(*v), Ty::I64, *span), Scalar::Int)
            }
            ast::Expr::FloatLit(v, span) => {
                Lowered::Scalar(self.emit(InstrKind::ConstFloat(*v), Ty::F64, *span), Scalar::Float)
            }
            ast::Expr::Var(name, span) => {
                let slot = self.lookup_var(name);
                let (ptr, ty) = self.base_ptr(slot, *span);
                match ty.as_scalar() {
                    Some(s) => {
                        let v = self.emit(InstrKind::Load(ptr), scalar_ty(s), *span);
                        Lowered::Scalar(v, s)
                    }
                    None => Lowered::ArrayPtr(ptr, ty),
                }
            }
            ast::Expr::Index { base, index, span } => {
                let (ptr, ty) = match self.lower_expr(base) {
                    Lowered::ArrayPtr(p, t) => (p, t),
                    Lowered::Scalar(..) => panic!("indexing a scalar (typeck bug)"),
                };
                let (iv, _) = self.lower_expr(index).scalar();
                let stride = ty.outer_stride().expect("typeck checked index depth");
                let p2 = self.emit(InstrKind::Gep { base: ptr, index: iv, stride }, Ty::Ptr, *span);
                let inner = ty.index_once().expect("typeck checked index depth");
                match inner.as_scalar() {
                    Some(s) => {
                        let v = self.emit(InstrKind::Load(p2), scalar_ty(s), *span);
                        Lowered::Scalar(v, s)
                    }
                    None => Lowered::ArrayPtr(p2, inner),
                }
            }
            ast::Expr::Binary { op, lhs, rhs, span } => {
                let (a, sa) = self.lower_expr(lhs).scalar();
                let (b, sb) = self.lower_expr(rhs).scalar();
                debug_assert_eq!(sa, sb, "typeck inserted coercions");
                let (bin, result) = lower_binop(*op, sa);
                Lowered::Scalar(
                    self.emit(InstrKind::Bin(bin, a, b), scalar_ty(result), *span),
                    result,
                )
            }
            ast::Expr::Unary { op, operand, span } => {
                let (v, s) = self.lower_expr(operand).scalar();
                let (un, result) = match (op, s) {
                    (ast::UnOp::Neg, Scalar::Int) => (UnOp::INeg, Scalar::Int),
                    (ast::UnOp::Neg, Scalar::Float) => (UnOp::FNeg, Scalar::Float),
                    (ast::UnOp::Not, _) => (UnOp::LNot, Scalar::Int),
                };
                Lowered::Scalar(self.emit(InstrKind::Un(un, v), scalar_ty(result), *span), result)
            }
            ast::Expr::Call { callee, args, span } => {
                if let Some(op) = Intrinsic::from_name(callee) {
                    let vals: Vec<ValueId> =
                        args.iter().map(|a| self.lower_expr(a).scalar().0).collect();
                    let ty = op.result_ty();
                    let s = if ty == Ty::I64 { Scalar::Int } else { Scalar::Float };
                    return Lowered::Scalar(
                        self.emit(InstrKind::IntrinsicCall { op, args: vals }, ty, *span),
                        s,
                    );
                }
                let func = *self.func_sigs.get(callee).expect("typeck resolved calls");
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let v = match self.lower_expr(a) {
                        Lowered::Scalar(v, _) => v,
                        Lowered::ArrayPtr(p, _) => p,
                    };
                    vals.push(v);
                }
                let decl = &self.program.funcs[func.index()];
                let (ty, s) = match &decl.ret {
                    Type::Void => (Ty::Unit, Scalar::Int),
                    Type::Scalar(Scalar::Int) => (Ty::I64, Scalar::Int),
                    Type::Scalar(Scalar::Float) => (Ty::F64, Scalar::Float),
                    Type::Array { .. } => unreachable!(),
                };
                Lowered::Scalar(self.emit(InstrKind::Call { func, args: vals }, ty, *span), s)
            }
            ast::Expr::Cast { to, operand, span } => {
                let (v, s) = self.lower_expr(operand).scalar();
                let (un, result) = match (s, to.as_scalar().expect("scalar cast")) {
                    (Scalar::Int, Scalar::Float) => (UnOp::IntToFloat, Scalar::Float),
                    (Scalar::Float, Scalar::Int) => (UnOp::FloatToInt, Scalar::Int),
                    (a, b) => {
                        debug_assert_eq!(a, b, "identity casts dropped by typeck");
                        return Lowered::Scalar(v, s);
                    }
                };
                Lowered::Scalar(self.emit(InstrKind::Un(un, v), scalar_ty(result), *span), result)
            }
        }
    }
}

fn scalar_ty(s: Scalar) -> Ty {
    match s {
        Scalar::Int => Ty::I64,
        Scalar::Float => Ty::F64,
    }
}

fn lower_binop(op: ast::BinOp, operand: Scalar) -> (BinOp, Scalar) {
    use ast::BinOp as B;
    let cmp = |c: Cmp| match operand {
        Scalar::Int => (BinOp::ICmp(c), Scalar::Int),
        Scalar::Float => (BinOp::FCmp(c), Scalar::Int),
    };
    match (op, operand) {
        (B::Add, Scalar::Int) => (BinOp::IAdd, Scalar::Int),
        (B::Sub, Scalar::Int) => (BinOp::ISub, Scalar::Int),
        (B::Mul, Scalar::Int) => (BinOp::IMul, Scalar::Int),
        (B::Div, Scalar::Int) => (BinOp::IDiv, Scalar::Int),
        (B::Rem, Scalar::Int) => (BinOp::IRem, Scalar::Int),
        (B::Add, Scalar::Float) => (BinOp::FAdd, Scalar::Float),
        (B::Sub, Scalar::Float) => (BinOp::FSub, Scalar::Float),
        (B::Mul, Scalar::Float) => (BinOp::FMul, Scalar::Float),
        (B::Div, Scalar::Float) => (BinOp::FDiv, Scalar::Float),
        (B::Rem, Scalar::Float) => unreachable!("typeck rejects float %"),
        (B::Eq, _) => cmp(Cmp::Eq),
        (B::Ne, _) => cmp(Cmp::Ne),
        (B::Lt, _) => cmp(Cmp::Lt),
        (B::Le, _) => cmp(Cmp::Le),
        (B::Gt, _) => cmp(Cmp::Gt),
        (B::Ge, _) => cmp(Cmp::Ge),
        (B::And, _) => (BinOp::LAnd, Scalar::Int),
        (B::Or, _) => (BinOp::LOr, Scalar::Int),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::RegionKind;

    fn lower_src(src: &str) -> Module {
        let prog = kremlin_minic::compile_frontend(src).expect("frontend");
        lower(&prog, "test.kc")
    }

    #[test]
    fn lowers_minimal_main() {
        let m = lower_src("int main() { return 1 + 2; }");
        assert_eq!(m.funcs.len(), 1);
        let f = &m.funcs[0];
        assert!(matches!(f.block(f.entry).terminator(), Terminator::Ret(Some(_))));
        assert_eq!(m.main, Some(FuncId(0)));
        // One region: the function itself.
        assert_eq!(m.regions.len(), 1);
        assert_eq!(m.regions.info(f.region).kind, RegionKind::Func);
    }

    #[test]
    fn loop_regions_and_markers() {
        let m = lower_src(
            "int main() { int s = 0; for (int i = 0; i < 4; i++) { s += i; } return s; }",
        );
        // Regions: main, loop, body.
        assert_eq!(m.regions.len(), 3);
        let labels: Vec<_> = m.regions.iter().map(|r| r.label.clone()).collect();
        assert_eq!(labels, vec!["main", "main#L0", "main#L0b"]);
        let f = &m.funcs[0];
        assert_eq!(f.loops.len(), 1);
        let lm = &f.loops[0];
        // Marker structure around the loop.
        let kinds_in = |b: BlockId| -> Vec<&InstrKind> {
            f.block(b).instrs.iter().map(|v| &f.value(*v).kind).collect()
        };
        assert!(kinds_in(lm.body_entry)
            .iter()
            .any(|k| matches!(k, InstrKind::RegionEnter(r) if *r == lm.body_region)));
        assert!(kinds_in(lm.body_entry).iter().any(|k| matches!(k, InstrKind::CdPush(_))));
        assert!(kinds_in(lm.exit)
            .iter()
            .any(|k| matches!(k, InstrKind::RegionExit(r) if *r == lm.region)));
    }

    #[test]
    fn nested_loop_regions_have_parents() {
        let m = lower_src(
            "int main() { for (int i = 0; i < 2; i++) { for (int j = 0; j < 2; j++) { } } return 0; }",
        );
        // main, L0, L0b, L1, L1b
        assert_eq!(m.regions.len(), 5);
        let l1 = m.regions.by_label("main#L1").expect("lowering labels the second loop main#L1");
        let l0b =
            m.regions.by_label("main#L0b").expect("lowering labels the first loop body main#L0b");
        assert_eq!(m.regions.info(l1).parent, Some(l0b));
        let f = &m.funcs[0];
        assert_eq!(f.loops.len(), 2);
        let inner = f
            .loops
            .iter()
            .find(|l| l.region == l1)
            .expect("loop metadata exists for region main#L1");
        assert!(inner.parent.is_some());
    }

    #[test]
    fn break_emits_unwind_markers() {
        let m = lower_src(
            "int main() { for (int i = 0; i < 9; i++) { if (i > 3) { break; } } return 0; }",
        );
        let f = &m.funcs[0];
        // Find the block that ends with Br and contains two RegionExits
        // (body then loop) preceded by CdPops for the if + the loop cond.
        let unwind = f
            .blocks
            .iter()
            .find(|b| {
                let exits = b
                    .instrs
                    .iter()
                    .filter(|v| matches!(f.value(**v).kind, InstrKind::RegionExit(_)))
                    .count();
                exits == 2
            })
            .expect("break unwind block exists");
        let pops =
            unwind.instrs.iter().filter(|v| matches!(f.value(**v).kind, InstrKind::CdPop)).count();
        // One pop for the `if` push, one for the loop condition push.
        assert_eq!(pops, 2);
    }

    #[test]
    fn return_inside_loop_unwinds_all_regions() {
        let m = lower_src(
            "int f() { for (int i = 0; i < 4; i++) { for (int j = 0; j < 4; j++) { if (j == 2) { return j; } } } return 0; }\
             int main() { return f(); }",
        );
        let f = m.func_by_name("f").expect("test source defines f");
        let ret_block = f
            .blocks
            .iter()
            .find(|b| {
                matches!(b.term, Some(Terminator::Ret(Some(_))))
                    && b.instrs.iter().any(|v| matches!(f.value(*v).kind, InstrKind::RegionExit(_)))
            })
            .expect("returning unwind block");
        let exits = ret_block
            .instrs
            .iter()
            .filter(|v| matches!(f.value(**v).kind, InstrKind::RegionExit(_)))
            .count();
        // Two loops and two bodies are open at the return site.
        assert_eq!(exits, 4);
        let pops = ret_block
            .instrs
            .iter()
            .filter(|v| matches!(f.value(**v).kind, InstrKind::CdPop))
            .count();
        // Pushes live: outer cond, inner cond, if.
        assert_eq!(pops, 3);
    }

    #[test]
    fn global_indexing_uses_gep() {
        let m = lower_src("float a[4][8]; int main() { a[1][2] = 5.0; return 0; }");
        let f = &m.funcs[0];
        let geps: Vec<u32> = f
            .values
            .iter()
            .filter_map(|v| match v.kind {
                InstrKind::Gep { stride, .. } => Some(stride),
                _ => None,
            })
            .collect();
        assert_eq!(geps, vec![8, 1]);
        assert_eq!(m.globals[0].slots, 32);
    }

    #[test]
    fn scalar_params_get_frame_slots() {
        let m = lower_src("int f(int x) { x = x + 1; return x; } int main() { return f(1); }");
        let f = m.func_by_name("f").expect("test source defines f");
        assert_eq!(f.allocas.len(), 1);
        assert!(f.allocas[0].is_scalar);
        assert_eq!(f.param_tys, vec![Ty::I64]);
    }

    #[test]
    fn array_params_are_pointers() {
        let m = lower_src("float f(float a[], int i) { return a[i]; } float g[8]; int main() { float x = f(g, 0); return 0; }");
        let f = m.func_by_name("f").expect("test source defines f");
        assert_eq!(f.param_tys, vec![Ty::Ptr, Ty::I64]);
        assert_eq!(f.allocas.len(), 1); // only `i`
    }

    #[test]
    fn every_block_is_terminated() {
        let m = lower_src(
            "int main() { int s = 0; while (s < 5) { if (s == 3) { break; } s++; } return s; }",
        );
        for f in &m.funcs {
            for b in &f.blocks {
                assert!(b.term.is_some());
            }
        }
    }

    #[test]
    fn unreachable_code_after_return_is_tolerated() {
        let m = lower_src("int main() { return 1; }");
        assert_eq!(m.funcs[0].blocks.len(), 1);
        // Statements after return land in dead blocks without panicking.
        let m2 = lower_src("int f() { return 1; } int main() { return f(); }");
        assert!(m2.funcs.len() == 2);
    }

    #[test]
    fn while_loop_has_no_step_in_latch() {
        let m = lower_src("int main() { int i = 0; while (i < 3) { i++; } return i; }");
        let f = &m.funcs[0];
        let latch = f.loops[0].latch;
        assert!(f.block(latch).instrs.is_empty());
        assert!(
            matches!(f.block(latch).terminator(), Terminator::Br(t) if *t == f.loops[0].header)
        );
    }
}
