//! The IR interpreter.
//!
//! Executes a compiled [`Module`] directly, firing [`ExecHook`] events —
//! the stand-in for running Kremlin's instrumented binary. With
//! [`NullHook`](crate::hooks::NullHook) this is plain execution; with the
//! HCPA profiler hook it produces a parallelism profile.
//!
//! # Decoded execution
//!
//! A run starts by decoding every function into a flat array of typed
//! operations, which the loop then executes by index:
//!
//! * registers are raw `u64` bits (an integer, a float's bits or a slot
//!   address), one per value, addressed by `u32` value index;
//! * `GlobalAddr` resolves to a constant and `Alloca` to a frame offset;
//! * the blocks reachable from the entry are laid out back to back, each
//!   ending in its terminator. A branch names a CFG edge, and the edge
//!   holds the target's address and the parallel copy its phis perform
//!   (every source read before any phi is written), so entering a block
//!   searches nothing;
//! * only the operations that can trap (integer division and remainder,
//!   loads, stores, calls) produce errors;
//! * the operand types that the IR's typed values imply are asserted once
//!   per operation while decoding, with the result types they rest on, so
//!   every register holds the type its value declares and no execution
//!   checks one;
//! * the hook's [`selects_instr`](ExecHook::selects_instr) answer is
//!   decoded into each operation, so an instruction event the hook did
//!   not select costs one branch.
//!
//! Fuel counts every executed instruction (phis, markers and calls
//! included; terminators are not instructions), and the events, errors and
//! [`RunResult`] are those of executing the IR one instruction at a time.

use crate::error::InterpError;
use crate::hooks::{CallCtx, ExecHook, InstrCtx, RetCtx};
use crate::memory::Memory;
use kremlin_ir::instr::{BinOp, Cmp, InstrKind, Intrinsic, Terminator, UnOp};
use kremlin_ir::{BlockId, FuncId, Function, Module, RegionId, Ty, ValueId};
use std::fmt::Display;

/// Interpreter limits.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Maximum executed instructions before aborting.
    pub fuel: u64,
    /// Maximum stack slots (beyond globals).
    pub stack_slots: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig { fuel: 10_000_000_000, stack_slots: 1 << 22, max_call_depth: 4096 }
    }
}

/// Result of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// `main`'s return value.
    pub exit: i64,
    /// Number of instructions executed (markers included).
    pub instrs_executed: u64,
}

/// A register: the index of its value in the function.
type Reg = u32;

/// The register of no value (a `ret` without one, `main`'s caller).
const NO_REG: Reg = Reg::MAX;

/// One decoded operation. A value-producing operation writes the
/// register of its own value ([`Inst::dst`]).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Argument `i` of the current call.
    Param(u32),
    /// An integer, a float's bits or a global's address.
    Const(u64),
    /// The frame base plus this slot offset.
    Alloca(u32),
    IAdd(Reg, Reg),
    ISub(Reg, Reg),
    IMul(Reg, Reg),
    IDiv(Reg, Reg),
    IRem(Reg, Reg),
    FAdd(Reg, Reg),
    FSub(Reg, Reg),
    FMul(Reg, Reg),
    FDiv(Reg, Reg),
    ICmp(Cmp, Reg, Reg),
    FCmp(Cmp, Reg, Reg),
    LAnd(Reg, Reg),
    LOr(Reg, Reg),
    INeg(Reg),
    FNeg(Reg),
    LNot(Reg),
    IntToFloat(Reg),
    FloatToInt(Reg),
    Gep {
        base: Reg,
        index: Reg,
        stride: u32,
    },
    Load(Reg),
    Store {
        ptr: Reg,
        value: Reg,
    },
    /// A unary intrinsic names its operand twice.
    Intrinsic(Intrinsic, Reg, Reg),
    RegionEnter(RegionId),
    RegionExit(RegionId),
    CdPush(ValueId),
    CdPop,
    /// A call with arguments `Program::args[args..end]`.
    Call {
        callee: FuncId,
        args: u32,
        end: u32,
    },
    /// Takes `Program::edges[edge]`.
    Br(u32),
    CondBr {
        cond: Reg,
        then_edge: u32,
        else_edge: u32,
    },
    /// Returns the register, or nothing for [`NO_REG`].
    Ret(Reg),
}

/// A decoded instruction or terminator.
#[derive(Debug, Clone, Copy)]
struct Inst {
    op: Op,
    /// The instruction's value: its result register and its event's id.
    dst: Reg,
    /// Whether the hook selected this instruction's event.
    fire: bool,
}

/// A CFG edge: where it lands and the phi copies it performs, which are
/// `Program::copies[copies..end]`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    target: u32,
    copies: u32,
    end: u32,
}

/// One phi of an edge's parallel copy.
#[derive(Debug, Clone, Copy)]
struct PhiCopy {
    phi: Reg,
    src: Reg,
    fire: bool,
}

/// A function's decoded blocks.
#[derive(Debug)]
struct Code {
    insts: Vec<Inst>,
    /// Address of the entry block.
    entry: u32,
}

/// A module decoded for one run of one hook.
#[derive(Debug)]
struct Program {
    funcs: Vec<Code>,
    /// Every call's argument values.
    args: Vec<ValueId>,
    edges: Vec<Edge>,
    copies: Vec<PhiCopy>,
}

/// Asserts that `user` reads a value of type `ty` in `operand`.
fn want(f: &Function, operand: ValueId, ty: Ty, user: &dyn Display) {
    let found = f.value(operand).ty;
    assert!(found == ty, "{}: {user} reads {operand} as {ty:?}, but it is {found:?}", f.name);
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("decoded program fits u32 indices")
}

impl Program {
    fn decode<H: ExecHook>(module: &Module, hook: &H) -> Program {
        let mut global_at = Vec::with_capacity(module.globals.len());
        let mut at = 0u64;
        for g in &module.globals {
            global_at.push(at);
            at += u64::from(g.slots);
        }
        let mut program =
            Program { funcs: Vec::new(), args: Vec::new(), edges: Vec::new(), copies: Vec::new() };
        for f in &module.funcs {
            let code = program.decode_func(module, f, &global_at, hook);
            program.funcs.push(code);
        }
        program
    }

    /// Lays out the blocks of `f` reachable from its entry, in block order;
    /// a block that cannot run is not decoded.
    fn decode_func<H: ExecHook>(
        &mut self,
        module: &Module,
        f: &Function,
        global_at: &[u64],
        hook: &H,
    ) -> Code {
        let mut reachable = vec![false; f.blocks.len()];
        reachable[f.entry.index()] = true;
        let mut work = vec![f.entry];
        while let Some(b) = work.pop() {
            for s in f.block(b).terminator().successors() {
                if !std::mem::replace(&mut reachable[s.index()], true) {
                    work.push(s);
                }
            }
        }
        let phis = |b: &kremlin_ir::func::Block| {
            b.instrs
                .iter()
                .take_while(|&&v| matches!(f.value(v).kind, InstrKind::Phi { .. }))
                .count()
        };
        assert_eq!(phis(f.block(f.entry)), 0, "{}: the entry block has phis", f.name);
        let mut start = vec![u32::MAX; f.blocks.len()];
        let mut len = 0;
        for (b, block) in f.blocks.iter().enumerate().filter(|(b, _)| reachable[*b]) {
            start[b] = index(len);
            len += block.instrs.len() - phis(block) + 1;
        }

        let mut insts = Vec::with_capacity(len);
        for (b, block) in f.blocks.iter().enumerate().filter(|(b, _)| reachable[*b]) {
            let from = BlockId::from_index(b);
            for &v in &block.instrs[phis(block)..] {
                let op = self.decode_instr(module, f, v, global_at);
                insts.push(Inst { op, dst: v.0, fire: hook.selects_instr(f.id, v) });
            }
            let mut edge = |to: BlockId| self.edge(f, from, to, start[to.index()], hook);
            let op = match block.terminator() {
                Terminator::Br(to) => Op::Br(edge(*to)),
                Terminator::CondBr { cond, then_bb, else_bb } => {
                    want(f, *cond, Ty::I64, &format_args!("the branch of {from}"));
                    Op::CondBr {
                        cond: cond.0,
                        then_edge: edge(*then_bb),
                        else_edge: edge(*else_bb),
                    }
                }
                Terminator::Ret(v) => {
                    if let Some(v) = *v {
                        let user = format_args!("the return of {from}");
                        want(f, v, f.ret_ty.unwrap_or(Ty::Unit), &user);
                        if module.main == Some(f.id) {
                            want(f, v, Ty::I64, &user);
                        }
                    }
                    Op::Ret(v.map_or(NO_REG, |v| v.0))
                }
            };
            insts.push(Inst { op, dst: NO_REG, fire: false });
        }
        Code { insts, entry: start[f.entry.index()] }
    }

    /// Decodes the edge `from -> to` of `f`: the target's address and the
    /// copy of each of its phis.
    fn edge<H: ExecHook>(
        &mut self,
        f: &Function,
        from: BlockId,
        to: BlockId,
        target: u32,
        hook: &H,
    ) -> u32 {
        let copies = index(self.copies.len());
        for &phi in &f.block(to).instrs {
            let pd = f.value(phi);
            let InstrKind::Phi { incoming } = &pd.kind else { break };
            let &(_, src) = incoming
                .iter()
                .find(|(p, _)| *p == from)
                .unwrap_or_else(|| panic!("phi {phi} has no incoming for edge {from}->{to}"));
            want(f, src, pd.ty, &phi);
            self.copies.push(PhiCopy {
                phi: phi.0,
                src: src.0,
                fire: hook.selects_instr(f.id, phi),
            });
        }
        self.edges.push(Edge { target, copies, end: index(self.copies.len()) });
        index(self.edges.len() - 1)
    }

    /// Decodes one non-phi instruction, asserting its operand types and
    /// that its declared type is the type it yields.
    fn decode_instr(&mut self, module: &Module, f: &Function, v: ValueId, global_at: &[u64]) -> Op {
        let vd = f.value(v);
        let read = |o: ValueId, ty: Ty| {
            want(f, o, ty, &v);
            o.0
        };
        let int = |o: ValueId| read(o, Ty::I64);
        let float = |o: ValueId| read(o, Ty::F64);
        let (op, yields) = match &vd.kind {
            InstrKind::Param(i) => (Op::Param(*i), f.param_tys[*i as usize]),
            InstrKind::ConstInt(c) => (Op::Const(*c as u64), Ty::I64),
            InstrKind::ConstFloat(c) => (Op::Const(c.to_bits()), Ty::F64),
            InstrKind::Alloca(a) => (Op::Alloca(f.allocas[a.index()].offset), Ty::Ptr),
            InstrKind::GlobalAddr(g) => (Op::Const(global_at[g.index()]), Ty::Ptr),
            InstrKind::Gep { base, index, stride } => (
                Op::Gep { base: read(*base, Ty::Ptr), index: int(*index), stride: *stride },
                Ty::Ptr,
            ),
            InstrKind::Bin(op, a, b) => {
                let decoded = match op {
                    BinOp::IAdd => Op::IAdd(int(*a), int(*b)),
                    BinOp::ISub => Op::ISub(int(*a), int(*b)),
                    BinOp::IMul => Op::IMul(int(*a), int(*b)),
                    BinOp::IDiv => Op::IDiv(int(*a), int(*b)),
                    BinOp::IRem => Op::IRem(int(*a), int(*b)),
                    BinOp::FAdd => Op::FAdd(float(*a), float(*b)),
                    BinOp::FSub => Op::FSub(float(*a), float(*b)),
                    BinOp::FMul => Op::FMul(float(*a), float(*b)),
                    BinOp::FDiv => Op::FDiv(float(*a), float(*b)),
                    BinOp::ICmp(c) => Op::ICmp(*c, int(*a), int(*b)),
                    BinOp::FCmp(c) => Op::FCmp(*c, float(*a), float(*b)),
                    BinOp::LAnd => Op::LAnd(int(*a), int(*b)),
                    BinOp::LOr => Op::LOr(int(*a), int(*b)),
                };
                (decoded, op.result_ty())
            }
            InstrKind::Un(op, a) => {
                let decoded = match op {
                    UnOp::INeg => Op::INeg(int(*a)),
                    UnOp::FNeg => Op::FNeg(float(*a)),
                    UnOp::LNot => Op::LNot(int(*a)),
                    UnOp::IntToFloat => Op::IntToFloat(int(*a)),
                    UnOp::FloatToInt => Op::FloatToInt(float(*a)),
                };
                (decoded, op.result_ty())
            }
            InstrKind::Load(p) => (Op::Load(read(*p, Ty::Ptr)), vd.ty),
            InstrKind::Store { ptr, value } => {
                (Op::Store { ptr: read(*ptr, Ty::Ptr), value: value.0 }, Ty::Unit)
            }
            InstrKind::IntrinsicCall { op, args } => {
                let (a, b) = match op {
                    Intrinsic::Pow | Intrinsic::FMin | Intrinsic::FMax => {
                        (float(args[0]), float(args[1]))
                    }
                    Intrinsic::IMin | Intrinsic::IMax => (int(args[0]), int(args[1])),
                    Intrinsic::IAbs => (int(args[0]), args[0].0),
                    _ => (float(args[0]), args[0].0),
                };
                (Op::Intrinsic(*op, a, b), op.result_ty())
            }
            InstrKind::Phi { .. } => panic!("{}: phi {v} is not at the head of its block", f.name),
            InstrKind::RegionEnter(r) => (Op::RegionEnter(*r), Ty::Unit),
            InstrKind::RegionExit(r) => (Op::RegionExit(*r), Ty::Unit),
            InstrKind::CdPush(c) => (Op::CdPush(*c), Ty::Unit),
            InstrKind::CdPop => (Op::CdPop, Ty::Unit),
            InstrKind::Call { func, args } => {
                let callee = module.func(*func);
                assert_eq!(args.len(), callee.param_tys.len(), "{}: {v} argument count", f.name);
                for (&a, &ty) in args.iter().zip(&callee.param_tys) {
                    read(a, ty);
                }
                let first = index(self.args.len());
                self.args.extend_from_slice(args);
                let end = index(self.args.len());
                (Op::Call { callee: *func, args: first, end }, callee.ret_ty.unwrap_or(Ty::Unit))
            }
        };
        assert!(vd.ty == yields, "{}: {v} is declared {:?} but yields {yields:?}", f.name, vd.ty);
        op
    }
}

/// One activation.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: FuncId,
    /// Where execution resumes once the frame is on top again.
    pc: u32,
    /// The frame's first register in the register stack.
    regs: usize,
    /// The frame's first argument in the argument stack.
    args: usize,
    /// The frame's first stack slot in memory.
    base: u64,
    /// The caller's register that receives the return value.
    ret: Reg,
}

/// Runs `main` with default limits and no instrumentation.
///
/// # Errors
///
/// Propagates any [`InterpError`].
pub fn run(module: &Module) -> Result<RunResult, InterpError> {
    run_with_hook(module, &mut crate::hooks::NullHook, MachineConfig::default())
}

/// Runs `main`, feeding every dynamic event to `hook` (instruction events
/// only where [`ExecHook::selects_instr`] says so).
///
/// # Errors
///
/// Propagates any [`InterpError`].
///
/// # Panics
///
/// Panics if the module is ill-typed: an operand whose declared type is
/// not the type its instruction reads.
pub fn run_with_hook<H: ExecHook>(
    module: &Module,
    hook: &mut H,
    config: MachineConfig,
) -> Result<RunResult, InterpError> {
    let _span = kremlin_obs::span("interp");
    let main_id = module.main.ok_or(InterpError::NoMain)?;
    let program = Program::decode(module, hook);
    let mut mem = Memory::for_module(module, config.stack_slots);
    let main = module.func(main_id);
    let mut frames = vec![Frame {
        func: main_id,
        pc: program.funcs[main_id.index()].entry,
        regs: 0,
        args: 0,
        base: mem.push_frame(main.frame_slots)?,
        ret: NO_REG,
    }];
    let mut regs = vec![0u64; main.values.len()];
    let mut args: Vec<u64> = Vec::new();
    // Phi sources read by one edge before its phis are written.
    let mut phi_scratch: Vec<u64> = Vec::new();
    hook.on_function_enter(main_id, main.region);

    let fuel = config.fuel;
    let mut executed: u64 = 0;
    let exit: i64;

    'frames: loop {
        // The current frame's function, code and registers stay in hand
        // until a call or a return changes the frame.
        let frame = *frames.last().expect("at least one frame");
        let fid = frame.func;
        let func = module.func(fid);
        let code = &program.funcs[fid.index()].insts[..];
        let r = &mut regs[frame.regs..];
        let params = &args[frame.args..];
        let mut pc = frame.pc as usize;

        macro_rules! tick {
            () => {
                executed += 1;
                if executed > fuel {
                    return Err(InterpError::FuelExhausted { budget: fuel });
                }
            };
        }
        macro_rules! int {
            ($reg:expr) => {
                r[$reg as usize] as i64
            };
        }
        macro_rules! float {
            ($reg:expr) => {
                f64::from_bits(r[$reg as usize])
            };
        }
        macro_rules! take_edge {
            ($edge:expr) => {{
                let edge = program.edges[$edge as usize];
                let copies = &program.copies[edge.copies as usize..edge.end as usize];
                if !copies.is_empty() {
                    phi_scratch.clear();
                    phi_scratch.extend(copies.iter().map(|c| r[c.src as usize]));
                    for (c, &bits) in copies.iter().zip(&phi_scratch) {
                        tick!();
                        r[c.phi as usize] = bits;
                        if c.fire {
                            hook.on_instr(&InstrCtx {
                                func,
                                value: ValueId(c.phi),
                                kind: &func.values[c.phi as usize].kind,
                                mem_addr: None,
                                phi_source: Some(ValueId(c.src)),
                            });
                        }
                    }
                }
                pc = edge.target as usize;
            }};
        }

        loop {
            let inst = code[pc];
            pc += 1;
            let dst = inst.dst as usize;
            // A plain value operation: charge the fuel, then write the
            // result.
            macro_rules! set {
                ($value:expr) => {{
                    tick!();
                    r[dst] = $value;
                    None
                }};
            }
            let mem_addr = match inst.op {
                Op::Param(i) => set!(params[i as usize]),
                Op::Const(bits) => set!(bits),
                Op::Alloca(offset) => set!(frame.base + u64::from(offset)),
                Op::IAdd(a, b) => set!(int!(a).wrapping_add(int!(b)) as u64),
                Op::ISub(a, b) => set!(int!(a).wrapping_sub(int!(b)) as u64),
                Op::IMul(a, b) => set!(int!(a).wrapping_mul(int!(b)) as u64),
                Op::IDiv(a, b) => {
                    tick!();
                    let d = int!(b);
                    if d == 0 {
                        return Err(InterpError::DivisionByZero { func: fid });
                    }
                    r[dst] = int!(a).wrapping_div(d) as u64;
                    None
                }
                Op::IRem(a, b) => {
                    tick!();
                    let d = int!(b);
                    if d == 0 {
                        return Err(InterpError::DivisionByZero { func: fid });
                    }
                    r[dst] = int!(a).wrapping_rem(d) as u64;
                    None
                }
                Op::FAdd(a, b) => set!((float!(a) + float!(b)).to_bits()),
                Op::FSub(a, b) => set!((float!(a) - float!(b)).to_bits()),
                Op::FMul(a, b) => set!((float!(a) * float!(b)).to_bits()),
                Op::FDiv(a, b) => set!((float!(a) / float!(b)).to_bits()),
                Op::ICmp(c, a, b) => set!(u64::from(compare(c, int!(a), int!(b)))),
                Op::FCmp(c, a, b) => set!(u64::from(compare(c, float!(a), float!(b)))),
                Op::LAnd(a, b) => set!(u64::from(int!(a) != 0 && int!(b) != 0)),
                Op::LOr(a, b) => set!(u64::from(int!(a) != 0 || int!(b) != 0)),
                Op::INeg(a) => set!(int!(a).wrapping_neg() as u64),
                Op::FNeg(a) => set!((-float!(a)).to_bits()),
                Op::LNot(a) => set!(u64::from(int!(a) == 0)),
                Op::IntToFloat(a) => set!((int!(a) as f64).to_bits()),
                Op::FloatToInt(a) => set!(float!(a) as i64 as u64),
                Op::Gep { base, index, stride } => {
                    tick!();
                    let offset = (int!(index) as u64).wrapping_mul(u64::from(stride));
                    r[dst] = r[base as usize].wrapping_add(offset);
                    None
                }
                Op::Load(ptr) => {
                    tick!();
                    let addr = r[ptr as usize];
                    r[dst] = mem.load(addr, fid)?;
                    Some(addr)
                }
                Op::Store { ptr, value } => {
                    tick!();
                    let addr = r[ptr as usize];
                    mem.store(addr, r[value as usize], fid)?;
                    Some(addr)
                }
                Op::Intrinsic(op, a, b) => set!(intrinsic(op, r[a as usize], r[b as usize])),
                Op::RegionEnter(region) => {
                    tick!();
                    hook.on_region_enter(region);
                    continue;
                }
                Op::RegionExit(region) => {
                    tick!();
                    hook.on_region_exit(region);
                    continue;
                }
                Op::CdPush(cond) => {
                    tick!();
                    hook.on_cd_push(cond);
                    continue;
                }
                Op::CdPop => {
                    tick!();
                    hook.on_cd_pop();
                    continue;
                }
                Op::Call { callee, args: first, end } => {
                    tick!();
                    let call_args = &program.args[first as usize..end as usize];
                    let cf = module.func(callee);
                    hook.on_call(&CallCtx {
                        caller: func,
                        callee,
                        callee_region: cf.region,
                        args: call_args,
                        call_value: ValueId(inst.dst),
                    });
                    let args_base = args.len();
                    args.extend(call_args.iter().map(|a| r[a.index()]));
                    // Resume after the call.
                    frames.last_mut().expect("the calling frame").pc = pc as u32;
                    if frames.len() >= config.max_call_depth {
                        return Err(InterpError::CallDepthExceeded {
                            limit: config.max_call_depth,
                        });
                    }
                    let base = mem.push_frame(cf.frame_slots)?;
                    let regs_base = regs.len();
                    regs.resize(regs_base + cf.values.len(), 0);
                    frames.push(Frame {
                        func: callee,
                        pc: program.funcs[callee.index()].entry,
                        regs: regs_base,
                        args: args_base,
                        base,
                        ret: inst.dst,
                    });
                    hook.on_function_enter(callee, cf.region);
                    continue 'frames;
                }
                Op::Br(edge) => {
                    take_edge!(edge);
                    continue;
                }
                Op::CondBr { cond, then_edge, else_edge } => {
                    take_edge!(if r[cond as usize] != 0 { then_edge } else { else_edge });
                    continue;
                }
                Op::Ret(v) => {
                    let returned = (v != NO_REG).then(|| r[v as usize]);
                    let returned_id = (v != NO_REG).then_some(ValueId(v));
                    hook.on_return(&RetCtx {
                        func: fid,
                        region: func.region,
                        returned: returned_id,
                    });
                    mem.pop_frame(func.frame_slots);
                    frames.pop();
                    regs.truncate(frame.regs);
                    args.truncate(frame.args);
                    match frames.last() {
                        None => {
                            exit = returned.map_or(0, |bits| bits as i64);
                            break 'frames;
                        }
                        Some(caller) => {
                            if let Some(bits) = returned {
                                regs[caller.regs + frame.ret as usize] = bits;
                            }
                        }
                    }
                    continue 'frames;
                }
            };
            if inst.fire {
                hook.on_instr(&InstrCtx {
                    func,
                    value: ValueId(inst.dst),
                    kind: &func.values[dst].kind,
                    mem_addr,
                    phi_source: None,
                });
            }
        }
    }

    kremlin_obs::counter!("interp.instrs").add(executed);
    kremlin_obs::counter!("interp.runs").incr();
    Ok(RunResult { exit, instrs_executed: executed })
}

#[inline]
fn compare<T: PartialOrd>(c: Cmp, x: T, y: T) -> bool {
    match c {
        Cmp::Eq => x == y,
        Cmp::Ne => x != y,
        Cmp::Lt => x < y,
        Cmp::Le => x <= y,
        Cmp::Gt => x > y,
        Cmp::Ge => x >= y,
    }
}

/// Evaluates an intrinsic on raw register bits (a unary one ignores
/// `b`).
fn intrinsic(op: Intrinsic, a: u64, b: u64) -> u64 {
    let (f, g) = (f64::from_bits(a), f64::from_bits(b));
    let (n, m) = (a as i64, b as i64);
    match op {
        Intrinsic::Sqrt => f.sqrt().to_bits(),
        Intrinsic::Fabs => f.abs().to_bits(),
        Intrinsic::Exp => f.exp().to_bits(),
        Intrinsic::Log => f.ln().to_bits(),
        Intrinsic::Sin => f.sin().to_bits(),
        Intrinsic::Cos => f.cos().to_bits(),
        Intrinsic::Pow => f.powf(g).to_bits(),
        Intrinsic::FMin => f.min(g).to_bits(),
        Intrinsic::FMax => f.max(g).to_bits(),
        Intrinsic::IAbs => n.wrapping_abs() as u64,
        Intrinsic::IMin => n.min(m) as u64,
        Intrinsic::IMax => n.max(m) as u64,
    }
}
