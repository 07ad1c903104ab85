//! # kremlin-ir — typed IR with the analyses Kremlin's instrumentation needs
//!
//! This crate stands in for the LLVM layer of the original Kremlin tool
//! (paper §3: critical-path instrumentation + region instrumentation as
//! static passes). It provides:
//!
//! * a typed, SSA-based three-address IR ([`instr`], [`func`], [`module`]);
//! * lowering from the mini-C AST with **region** and **control-dependence
//!   markers** placed by construction ([`lower`]);
//! * the classic analysis stack: CFG ([`cfg`]), dominators/post-dominators/
//!   dominance frontiers ([`dom`]), `mem2reg` SSA construction
//!   ([`mem2reg`]), natural loops ([`loops`]), control dependence
//!   ([`controldep`]), and induction/reduction-variable detection
//!   ([`indvar`]) whose results drive the profiler's dependence-breaking
//!   rules;
//! * an IR verifier ([`verify`]) and printer ([`printer`]).
//!
//! The one-call entry point is [`compile`]:
//!
//! ```
//! let unit = kremlin_ir::compile(
//!     "int main() { int s = 0; for (int i = 0; i < 9; i++) { s += i; } return s; }",
//!     "demo.kc",
//! )?;
//! assert_eq!(unit.module.regions.len(), 3); // main, loop, body
//! assert!(!unit.indvars[0].vars.is_empty()); // `i` and `s` detected
//! # Ok::<(), kremlin_ir::CompileError>(())
//! ```

pub mod affine;
pub mod cfg;
pub mod controldep;
pub mod depend;
pub mod dom;
pub mod func;
pub mod ids;
pub mod indvar;
pub mod instr;
pub mod loops;
pub mod lower;
pub mod mem2reg;
pub mod module;
pub mod printer;
pub mod regions;
pub mod verify;

pub use depend::{DepEvidence, DependenceInfo, LoopDependence, LoopVerdict};
pub use func::Function;
pub use ids::{AllocaId, BlockId, FuncId, GlobalId, LoopId, RegionId, ValueId};
pub use instr::{BinOp, Cmp, InstrKind, Intrinsic, Terminator, Ty, UnOp};
pub use module::Module;
pub use regions::{RegionInfo, RegionKind, RegionTable};

use std::fmt;

/// A fully compiled and analyzed translation unit, ready for execution
/// and profiling.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    /// The SSA-form module with regions and markers.
    pub module: Module,
    /// Per-function induction/reduction info, indexed by [`FuncId`].
    pub indvars: Vec<indvar::IndvarInfo>,
    /// Per-function mem2reg statistics, indexed by [`FuncId`].
    pub mem2reg: Vec<mem2reg::Mem2RegStats>,
    /// Static loop-dependence verdicts for every loop region.
    pub depend: depend::DependenceInfo,
}

impl CompiledUnit {
    /// All loop regions that contain a reduction accumulator.
    pub fn reduction_loops(&self) -> std::collections::HashSet<RegionId> {
        let mut out = std::collections::HashSet::new();
        for info in &self.indvars {
            out.extend(info.reduction_loops());
        }
        out
    }
}

/// Errors from [`compile`].
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The mini-C frontend rejected the source.
    Frontend(kremlin_minic::FrontendError),
    /// Internal invariant violation (a bug in lowering or a pass).
    Verify(verify::VerifyError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "{e}"),
            CompileError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Frontend(e) => Some(e),
            CompileError::Verify(e) => Some(e),
        }
    }
}

impl From<kremlin_minic::FrontendError> for CompileError {
    fn from(e: kremlin_minic::FrontendError) -> Self {
        CompileError::Frontend(e)
    }
}

impl From<verify::VerifyError> for CompileError {
    fn from(e: verify::VerifyError) -> Self {
        CompileError::Verify(e)
    }
}

/// Compiles mini-C source through the full pipeline: frontend → lowering
/// (with region/control-dependence instrumentation) → `mem2reg` →
/// induction/reduction detection → verification.
///
/// # Errors
///
/// Returns [`CompileError::Frontend`] for invalid source and
/// [`CompileError::Verify`] if an internal pass produced malformed IR.
pub fn compile(src: &str, source_name: &str) -> Result<CompiledUnit, CompileError> {
    let prog = kremlin_minic::compile_frontend(src)?;
    let _span = kremlin_obs::span("lower");
    let mut module = lower::lower(&prog, source_name);
    module.source_fp = source_fingerprint(source_name, src);
    verify::verify_module(&module)?;
    let mut indvars = Vec::with_capacity(module.funcs.len());
    let mut m2r = Vec::with_capacity(module.funcs.len());
    for f in &mut module.funcs {
        m2r.push(mem2reg::promote(f));
        indvars.push(indvar::analyze(f));
    }
    verify::verify_module(&module)?;
    let depend = depend::analyze_module(&module, &indvars);
    kremlin_obs::counter!("ir.funcs").add(module.funcs.len() as u64);
    kremlin_obs::counter!("ir.regions").add(module.regions.len() as u64);
    kremlin_obs::counter!("ir.promoted_allocas").add(m2r.iter().map(|s| s.promoted as u64).sum());
    Ok(CompiledUnit { module, indvars, mem2reg: m2r, depend })
}

/// FNV-1a over `(name, NUL, source)`: the identity of a program before
/// compilation. [`compile`] stores it on the module, the trace layer's
/// module fingerprint hashes it, and the engine keys its cache rows by
/// it.
pub fn source_fingerprint(name: &str, source: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [name.as_bytes(), &[0u8], source.as_bytes()] {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_full_pipeline() {
        let unit = compile(
            "float a[32];\n\
             float dot(float x[], float y[], int n) {\n\
               float s = 0.0;\n\
               for (int i = 0; i < n; i++) { s += x[i] * y[i]; }\n\
               return s;\n\
             }\n\
             int main() {\n\
               for (int i = 0; i < 32; i++) { a[i] = (float) i; }\n\
               return (int) dot(a, a, 32);\n\
             }",
            "dot.kc",
        )
        .expect("test source compiles");
        assert_eq!(unit.module.funcs.len(), 2);
        // dot: func + loop + body; main: func + loop + body
        assert_eq!(unit.module.regions.len(), 6);
        assert_eq!(unit.reduction_loops().len(), 1);
        assert!(unit.mem2reg.iter().all(|s| s.promoted > 0));
    }

    #[test]
    fn compile_reports_frontend_errors() {
        let e = compile("int main() { return x; }", "bad.kc").unwrap_err();
        assert!(matches!(e, CompileError::Frontend(_)));
        assert!(e.to_string().contains("undeclared"));
    }

    #[test]
    fn recursion_compiles() {
        let unit = compile(
            "int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }\n\
             int main() { return fact(10); }",
            "fact.kc",
        )
        .expect("test source compiles");
        assert_eq!(unit.module.regions.len(), 2); // two function regions
    }

    #[test]
    fn source_fingerprint_separates_name_and_source() {
        assert_ne!(source_fingerprint("a.kc", "x"), source_fingerprint("a.kcx", ""));
        assert_ne!(source_fingerprint("a.kc", "x"), source_fingerprint("a.kc", "y"));
        assert_eq!(source_fingerprint("a.kc", "x"), source_fingerprint("a.kc", "x"));
        let src = "int main() { return 0; }";
        let unit = compile(src, "z.kc").unwrap();
        assert_eq!(unit.module.source_fp, source_fingerprint("z.kc", src));
    }
}
