//! The IR interpreter.
//!
//! Executes a compiled [`Module`] directly, firing [`ExecHook`] events —
//! the stand-in for running Kremlin's instrumented binary. With
//! [`NullHook`](crate::hooks::NullHook) this is plain execution; with the
//! HCPA profiler hook it produces a parallelism profile.

use crate::error::InterpError;
use crate::hooks::{CallCtx, ExecHook, InstrCtx, RetCtx};
use crate::memory::Memory;
use crate::value::Value;
use kremlin_ir::instr::{BinOp, Cmp, InstrKind, Intrinsic, Terminator, UnOp};
use kremlin_ir::{BlockId, FuncId, Module, ValueId};

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

struct Frame {
    func: FuncId,
    regs: Vec<Value>,
    args: Vec<Value>,
    base: u64,
    block: BlockId,
    idx: usize,
    ret_slot: Option<ValueId>,
}

/// Runs `main` with default limits and no instrumentation.
///
/// # Errors
///
/// Propagates any [`InterpError`].
pub fn run(module: &Module) -> Result<RunResult, InterpError> {
    run_with_hook(module, &mut crate::hooks::NullHook, MachineConfig::default())
}

/// Runs `main`, feeding every dynamic event to `hook`.
///
/// # Errors
///
/// Propagates any [`InterpError`].
pub fn run_with_hook<H: ExecHook>(
    module: &Module,
    hook: &mut H,
    config: MachineConfig,
) -> Result<RunResult, InterpError> {
    let _span = kremlin_obs::span("interp");
    let main_id = module.main.ok_or(InterpError::NoMain)?;
    let mut mem = Memory::for_module(module, config.stack_slots);
    let mut frames: Vec<Frame> = Vec::new();

    let main = module.func(main_id);
    let base = mem.push_frame(main.frame_slots)?;
    frames.push(Frame {
        func: main_id,
        regs: vec![Value::Unit; main.values.len()],
        args: Vec::new(),
        base,
        block: main.entry,
        idx: 0,
        ret_slot: None,
    });
    hook.on_function_enter(main_id, main.region);

    let mut executed: u64 = 0;
    // Phi scratch reused by every block entry.
    let mut phis: Vec<(ValueId, Value, ValueId)> = Vec::new();
    let exit_value: i64;

    'run: loop {
        let frame = frames.last_mut().expect("at least one frame");
        let fid = frame.func;
        let func = module.func(fid);
        let block = func.block(frame.block);

        // ---- straight-line instructions --------------------------------
        // `func`, the block's instructions, the frame's registers and the
        // instruction index stay in hand until a call or the terminator
        // moves control elsewhere.
        let (regs, args) = (&mut frame.regs, &frame.args);
        let mut idx = frame.idx;
        while let Some(&vid) = block.instrs.get(idx) {
            executed += 1;
            if executed > config.fuel {
                return Err(InterpError::FuelExhausted { budget: config.fuel });
            }
            idx += 1;
            let vd = func.value(vid);
            let mem_addr = match &vd.kind {
                InstrKind::Param(i) => {
                    regs[vid.index()] = args[*i as usize];
                    None
                }
                InstrKind::ConstInt(c) => {
                    regs[vid.index()] = Value::Int(*c);
                    None
                }
                InstrKind::ConstFloat(c) => {
                    regs[vid.index()] = Value::Float(*c);
                    None
                }
                InstrKind::Bin(op, a, b) => {
                    regs[vid.index()] = eval_bin(*op, regs[a.index()], regs[b.index()], fid)?;
                    None
                }
                InstrKind::Un(op, a) => {
                    regs[vid.index()] = eval_un(*op, regs[a.index()]);
                    None
                }
                InstrKind::Alloca(a) => {
                    let info = &func.allocas[a.index()];
                    regs[vid.index()] = Value::Ptr(frame.base + info.offset as u64);
                    None
                }
                InstrKind::GlobalAddr(g) => {
                    regs[vid.index()] = Value::Ptr(module.global_offset(*g));
                    None
                }
                InstrKind::Gep { base, index, stride } => {
                    let b = regs[base.index()].as_ptr();
                    let i = regs[index.index()].as_int();
                    regs[vid.index()] =
                        Value::Ptr(b.wrapping_add((i as u64).wrapping_mul(*stride as u64)));
                    None
                }
                InstrKind::Load(p) => {
                    let addr = regs[p.index()].as_ptr();
                    regs[vid.index()] = Value::from_bits(mem.load(addr, fid)?, vd.ty);
                    Some(addr)
                }
                InstrKind::Store { ptr, value } => {
                    let addr = regs[ptr.index()].as_ptr();
                    mem.store(addr, regs[value.index()].to_bits(), fid)?;
                    Some(addr)
                }
                InstrKind::IntrinsicCall { op, args } => {
                    regs[vid.index()] = eval_intrinsic(*op, args, regs);
                    None
                }
                InstrKind::Phi { .. } => {
                    // Phis at the head of the entry block cannot exist (no
                    // predecessors); all other phis are executed by
                    // `enter_block`. Reaching one here is a pass bug.
                    unreachable!("phi executed outside block entry");
                }
                InstrKind::RegionEnter(r) => {
                    hook.on_region_enter(*r);
                    continue;
                }
                InstrKind::RegionExit(r) => {
                    hook.on_region_exit(*r);
                    continue;
                }
                InstrKind::CdPush(c) => {
                    hook.on_cd_push(*c);
                    continue;
                }
                InstrKind::CdPop => {
                    hook.on_cd_pop();
                    continue;
                }
                InstrKind::Call { func: callee_id, args } => {
                    let callee = module.func(*callee_id);
                    hook.on_call(&CallCtx {
                        caller: func,
                        callee: *callee_id,
                        callee_region: callee.region,
                        args,
                        call_value: vid,
                    });
                    let arg_vals: Vec<Value> = args.iter().map(|a| regs[a.index()]).collect();
                    // Resume after the call; the borrow of `frame` ends
                    // here, before `frames` grows.
                    frame.idx = idx;
                    if frames.len() >= config.max_call_depth {
                        return Err(InterpError::CallDepthExceeded {
                            limit: config.max_call_depth,
                        });
                    }
                    let base = mem.push_frame(callee.frame_slots)?;
                    frames.push(Frame {
                        func: *callee_id,
                        regs: vec![Value::Unit; callee.values.len()],
                        args: arg_vals,
                        base,
                        block: callee.entry,
                        idx: 0,
                        ret_slot: Some(vid),
                    });
                    hook.on_function_enter(*callee_id, callee.region);
                    continue 'run;
                }
            };
            hook.on_instr(&InstrCtx {
                func,
                value: vid,
                kind: &vd.kind,
                mem_addr,
                phi_source: None,
            });
        }

        // ---- terminator ---------------------------------------------------
        match block.terminator() {
            Terminator::Br(t) => {
                enter_block(frame, func, *t, hook, &mut executed, config.fuel, &mut phis)?;
            }
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let taken =
                    if frame.regs[cond.index()].as_int() != 0 { *then_bb } else { *else_bb };
                enter_block(frame, func, taken, hook, &mut executed, config.fuel, &mut phis)?;
            }
            Terminator::Ret(v) => {
                let returned_value = v.map(|v| frame.regs[v.index()]);
                hook.on_return(&RetCtx { func: fid, region: func.region, returned: *v });
                mem.pop_frame(func.frame_slots);
                let ret_slot = frame.ret_slot;
                frames.pop();
                match frames.last_mut() {
                    None => {
                        exit_value = returned_value.map(Value::as_int).unwrap_or(0);
                        break 'run;
                    }
                    Some(caller) => {
                        if let (Some(slot), Some(val)) = (ret_slot, returned_value) {
                            caller.regs[slot.index()] = val;
                        }
                    }
                }
            }
        }
    }

    kremlin_obs::counter!("interp.instrs").add(executed);
    kremlin_obs::counter!("interp.runs").incr();
    Ok(RunResult { exit: exit_value, instrs_executed: executed })
}

/// Enters `target`, executing its leading phis atomically (all reads happen
/// before any writes, so mutually- or self-referencing phis behave like the
/// parallel copies they denote). Each phi counts against `fuel` like any
/// other instruction. `phis` is scratch, reused across calls.
fn enter_block<H: ExecHook>(
    frame: &mut Frame,
    func: &kremlin_ir::Function,
    target: BlockId,
    hook: &mut H,
    executed: &mut u64,
    fuel: u64,
    phis: &mut Vec<(ValueId, Value, ValueId)>,
) -> Result<(), InterpError> {
    let from = frame.block;
    let block = func.block(target);
    phis.clear();
    for &vid in &block.instrs {
        let vd = func.value(vid);
        let InstrKind::Phi { incoming } = &vd.kind else { break };
        let (_, src) = incoming
            .iter()
            .find(|(p, _)| *p == from)
            .unwrap_or_else(|| panic!("phi {vid} has no incoming for edge {from}->{target}"));
        phis.push((vid, frame.regs[src.index()], *src));
    }
    for &(vid, val, src) in phis.iter() {
        *executed += 1;
        if *executed > fuel {
            return Err(InterpError::FuelExhausted { budget: fuel });
        }
        frame.regs[vid.index()] = val;
        hook.on_instr(&InstrCtx {
            func,
            value: vid,
            kind: &func.value(vid).kind,
            mem_addr: None,
            phi_source: Some(src),
        });
    }
    frame.block = target;
    frame.idx = phis.len();
    Ok(())
}

fn eval_bin(op: BinOp, a: Value, b: Value, func: FuncId) -> Result<Value, InterpError> {
    let cmp_i = |c: Cmp, x: i64, y: i64| -> bool {
        match c {
            Cmp::Eq => x == y,
            Cmp::Ne => x != y,
            Cmp::Lt => x < y,
            Cmp::Le => x <= y,
            Cmp::Gt => x > y,
            Cmp::Ge => x >= y,
        }
    };
    let cmp_f = |c: Cmp, x: f64, y: f64| -> bool {
        match c {
            Cmp::Eq => x == y,
            Cmp::Ne => x != y,
            Cmp::Lt => x < y,
            Cmp::Le => x <= y,
            Cmp::Gt => x > y,
            Cmp::Ge => x >= y,
        }
    };
    Ok(match op {
        BinOp::IAdd => Value::Int(a.as_int().wrapping_add(b.as_int())),
        BinOp::ISub => Value::Int(a.as_int().wrapping_sub(b.as_int())),
        BinOp::IMul => Value::Int(a.as_int().wrapping_mul(b.as_int())),
        BinOp::IDiv => {
            let d = b.as_int();
            if d == 0 {
                return Err(InterpError::DivisionByZero { func });
            }
            Value::Int(a.as_int().wrapping_div(d))
        }
        BinOp::IRem => {
            let d = b.as_int();
            if d == 0 {
                return Err(InterpError::DivisionByZero { func });
            }
            Value::Int(a.as_int().wrapping_rem(d))
        }
        BinOp::FAdd => Value::Float(a.as_float() + b.as_float()),
        BinOp::FSub => Value::Float(a.as_float() - b.as_float()),
        BinOp::FMul => Value::Float(a.as_float() * b.as_float()),
        BinOp::FDiv => Value::Float(a.as_float() / b.as_float()),
        BinOp::ICmp(c) => Value::Int(cmp_i(c, a.as_int(), b.as_int()) as i64),
        BinOp::FCmp(c) => Value::Int(cmp_f(c, a.as_float(), b.as_float()) as i64),
        BinOp::LAnd => Value::Int(((a.as_int() != 0) && (b.as_int() != 0)) as i64),
        BinOp::LOr => Value::Int(((a.as_int() != 0) || (b.as_int() != 0)) as i64),
    })
}

fn eval_un(op: UnOp, a: Value) -> Value {
    match op {
        UnOp::INeg => Value::Int(a.as_int().wrapping_neg()),
        UnOp::FNeg => Value::Float(-a.as_float()),
        UnOp::LNot => Value::Int((a.as_int() == 0) as i64),
        UnOp::IntToFloat => Value::Float(a.as_int() as f64),
        UnOp::FloatToInt => Value::Int(a.as_float() as i64),
    }
}

fn eval_intrinsic(op: Intrinsic, args: &[ValueId], regs: &[Value]) -> Value {
    let f = |i: usize| regs[args[i].index()].as_float();
    let n = |i: usize| regs[args[i].index()].as_int();
    match op {
        Intrinsic::Sqrt => Value::Float(f(0).sqrt()),
        Intrinsic::Fabs => Value::Float(f(0).abs()),
        Intrinsic::Exp => Value::Float(f(0).exp()),
        Intrinsic::Log => Value::Float(f(0).ln()),
        Intrinsic::Sin => Value::Float(f(0).sin()),
        Intrinsic::Cos => Value::Float(f(0).cos()),
        Intrinsic::Pow => Value::Float(f(0).powf(f(1))),
        Intrinsic::FMin => Value::Float(f(0).min(f(1))),
        Intrinsic::FMax => Value::Float(f(0).max(f(1))),
        Intrinsic::IAbs => Value::Int(n(0).wrapping_abs()),
        Intrinsic::IMin => Value::Int(n(0).min(n(1))),
        Intrinsic::IMax => Value::Int(n(0).max(n(1))),
    }
}
