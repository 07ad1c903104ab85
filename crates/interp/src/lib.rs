//! # kremlin-interp — execution substrate for profiling
//!
//! Kremlin compiles instrumented native binaries and runs them; this crate
//! is the equivalent substrate for the reproduction: an interpreter for
//! `kremlin-ir` modules, run over operations decoded once per run, that
//! fires an [`ExecHook`] event for every dynamic instruction the hook
//! selects, region boundary, control-dependence push/pop, and
//! call/return. The HCPA profiler in `kremlin-hcpa` is "linked in" by
//! implementing that trait — exactly the role of the paper's KremLib.
//!
//! ```
//! let unit = kremlin_ir::compile(
//!     "int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }",
//!     "sum.kc",
//! ).unwrap();
//! let result = kremlin_interp::run(&unit.module)?;
//! assert_eq!(result.exit, 45);
//! # Ok::<(), kremlin_interp::InterpError>(())
//! ```

pub mod error;
pub mod hooks;
pub mod machine;
pub mod memory;
pub mod trace;

pub use error::InterpError;
pub use hooks::{CallCtx, ExecHook, InstrCtx, NullHook, RetCtx, TraceHook};
pub use machine::{run, run_with_hook, MachineConfig, RunResult};
pub use trace::{record, replay, Recorder, Trace, TraceError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::TraceEvent;
    use kremlin_ir::compile;

    fn run_src(src: &str) -> i64 {
        let unit = compile(src, "t.kc").expect("compiles");
        run(&unit.module).expect("runs").exit
    }

    #[test]
    fn arithmetic_and_control_flow() {
        assert_eq!(run_src("int main() { return 2 + 3 * 4; }"), 14);
        assert_eq!(run_src("int main() { if (1 < 2) { return 7; } return 8; }"), 7);
        assert_eq!(
            run_src("int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }"),
            45
        );
        assert_eq!(run_src("int main() { int i = 0; while (i * i < 50) { i++; } return i; }"), 8);
    }

    #[test]
    fn float_math() {
        assert_eq!(run_src("int main() { float x = 2.0; return (int) (x * 3.5); }"), 7);
        assert_eq!(run_src("int main() { return (int) sqrt(81.0); }"), 9);
        assert_eq!(run_src("int main() { return (int) pow(2.0, 10.0); }"), 1024);
        assert_eq!(run_src("int main() { return (int) fmax(1.5, -2.0); }"), 1);
        assert_eq!(run_src("int main() { return imin(3, -4) + iabs(-5); }"), 1);
    }

    #[test]
    fn logical_ops_and_not() {
        assert_eq!(run_src("int main() { return (1 && 2) + (0 || 3 > 2) + !5 + !0; }"), 3);
    }

    #[test]
    fn arrays_and_globals() {
        assert_eq!(
            run_src(
                "float m[3][3];\n\
                 int main() {\n\
                   for (int i = 0; i < 3; i++) { for (int j = 0; j < 3; j++) { m[i][j] = (float)(i * 3 + j); } }\n\
                   float t = 0.0;\n\
                   for (int i = 0; i < 3; i++) { t += m[i][i]; }\n\
                   return (int) t;\n\
                 }"
            ),
            12 // 0 + 4 + 8
        );
        assert_eq!(run_src("int g = 41; int main() { g++; return g; }"), 42);
    }

    #[test]
    fn local_arrays_are_zeroed() {
        assert_eq!(
            run_src("int main() { int a[8]; int s = 0; for (int i = 0; i < 8; i++) { s += a[i]; } return s; }"),
            0
        );
    }

    #[test]
    fn every_frame_starts_zeroed() {
        // `g`'s frame reaches past the highest stack top seen so far and
        // `h`'s does not; both reuse the slots `f` filled with 7.0.
        assert_eq!(
            run_src(
                "void f() { float t[4]; for (int i = 0; i < 4; i++) { t[i] = 7.0; } }\n\
                 float g() { float u[8]; float s = 0.0; for (int i = 0; i < 8; i++) { s += u[i]; } return s; }\n\
                 float h() { float v[4]; float s = 0.0; for (int i = 0; i < 4; i++) { s += v[i]; } return s; }\n\
                 int main() { f(); float b = g(); f(); float d = h(); return (int)(b * 100.0 + d); }"
            ),
            0
        );
    }

    #[test]
    fn calls_and_recursion() {
        assert_eq!(
            run_src(
                "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
                 int main() { return fib(12); }"
            ),
            144
        );
        assert_eq!(
            run_src(
                "void bump(float a[], int i) { a[i] += 1.0; }\n\
                 float acc[4];\n\
                 int main() { for (int i = 0; i < 4; i++) { bump(acc, i); bump(acc, i); } return (int)(acc[0] + acc[3]); }"
            ),
            4
        );
    }

    #[test]
    fn break_and_continue() {
        assert_eq!(
            run_src(
                "int main() { int s = 0; for (int i = 0; i < 100; i++) { if (i == 5) { break; } if (i % 2 == 0) { continue; } s += i; } return s; }"
            ),
            1 + 3
        );
    }

    #[test]
    fn division_by_zero_reported() {
        let unit = compile("int main() { int z = 0; return 4 / z; }", "t.kc").unwrap();
        let e = run(&unit.module).unwrap_err();
        assert!(matches!(e, InterpError::DivisionByZero { .. }));
    }

    #[test]
    fn fuel_limit_stops_infinite_loops() {
        let unit = compile("int main() { while (1) { } return 0; }", "t.kc").unwrap();
        let e = run_with_hook(
            &unit.module,
            &mut NullHook,
            MachineConfig { fuel: 10_000, ..MachineConfig::default() },
        )
        .unwrap_err();
        assert!(matches!(e, InterpError::FuelExhausted { .. }));
    }

    /// Fuel counts every executed instruction, phis included: a budget of
    /// exactly `instrs_executed` completes and one less fails.
    #[test]
    fn fuel_budget_is_exact_including_phis() {
        let srcs = [
            // Ends with a phi-merging branch: 71 instructions.
            "int main() { int s = 0; for (int i = 0; i < 5; i++) { s += i; } int r = 0; \
             if (s > 3) { r = 1; } else { r = 2; } return r; }",
            "int sq(int x) { if (x > 2) { return x * x; } return x; }\n\
             int main() { int s = 0; for (int i = 0; i < 6; i++) { if (i % 2 == 0) { s += sq(i); } \
             else { s -= 1; } } return s; }",
        ];
        for src in srcs {
            let unit = compile(src, "t.kc").unwrap();
            let full = run(&unit.module).unwrap();
            let with_fuel = |fuel| {
                let config = MachineConfig { fuel, ..MachineConfig::default() };
                run_with_hook(&unit.module, &mut NullHook, config)
            };
            assert_eq!(with_fuel(full.instrs_executed), Ok(full), "{src}");
            assert!(
                matches!(
                    with_fuel(full.instrs_executed - 1),
                    Err(InterpError::FuelExhausted { .. })
                ),
                "{src}"
            );
        }
    }

    /// Registers hold raw bits, so operand types are asserted once while
    /// decoding, for every reachable instruction: an integer add of a
    /// float is rejected even where the run never goes.
    #[test]
    #[should_panic(expected = "as I64, but it is F64")]
    fn operand_types_are_asserted_when_decoding() {
        let mut unit = compile(
            "int main() { int s = 0; float f = 2.5; if (s > 1) { s = s + 2; } return s + (int) f; }",
            "t.kc",
        )
        .unwrap();
        let main = &mut unit.module.funcs[0];
        let float = main.values.iter().position(|v| v.ty == kremlin_ir::Ty::F64).unwrap();
        let add = main
            .values
            .iter_mut()
            .find(|v| {
                matches!(v.kind, kremlin_ir::InstrKind::Bin(kremlin_ir::instr::BinOp::IAdd, ..))
            })
            .unwrap();
        let kremlin_ir::InstrKind::Bin(_, a, _) = &mut add.kind else { unreachable!() };
        *a = kremlin_ir::ValueId::from_index(float);
        let _ = run(&unit.module);
    }

    #[test]
    fn call_depth_limit() {
        let unit = compile("int f(int n) { return f(n + 1); } int main() { return f(0); }", "t.kc")
            .unwrap();
        let e = run(&unit.module).unwrap_err();
        // Either the call depth or the stack trips first; both are fine.
        assert!(matches!(e, InterpError::CallDepthExceeded { .. } | InterpError::StackOverflow));
    }

    #[test]
    fn marker_stream_nests_properly() {
        let unit = compile(
            "int work(int n) {\n\
               int s = 0;\n\
               for (int i = 0; i < n; i++) {\n\
                 if (i == 7) { break; }\n\
                 for (int j = 0; j < 3; j++) { if (j == i) { continue; } s += j; }\n\
                 if (s > 100) { return s; }\n\
               }\n\
               return s;\n\
             }\n\
             int main() { return work(20); }",
            "t.kc",
        )
        .unwrap();
        let mut trace = TraceHook::default();
        run_with_hook(&unit.module, &mut trace, MachineConfig::default()).unwrap();
        let depth = trace.check_nesting().unwrap();
        assert!(depth >= 5, "expected nested regions, got depth {depth}");
    }

    #[test]
    fn marker_stream_nests_with_early_return_from_loops() {
        let unit = compile(
            "int find(float a[], int n, float needle) {\n\
               for (int i = 0; i < n; i++) { if (a[i] == needle) { return i; } }\n\
               return -1;\n\
             }\n\
             float xs[16];\n\
             int main() {\n\
               for (int i = 0; i < 16; i++) { xs[i] = (float) (i * i); }\n\
               return find(xs, 16, 49.0);\n\
             }",
            "t.kc",
        )
        .unwrap();
        let mut trace = TraceHook::default();
        let r = run_with_hook(&unit.module, &mut trace, MachineConfig::default()).unwrap();
        assert_eq!(r.exit, 7);
        trace.check_nesting().unwrap();
    }

    #[test]
    fn body_region_count_equals_iterations() {
        let unit = compile(
            "int main() { int s = 0; for (int i = 0; i < 6; i++) { s += i; } return s; }",
            "t.kc",
        )
        .unwrap();
        let body = unit.module.regions.by_label("main#L0b").unwrap();
        let mut trace = TraceHook::default();
        run_with_hook(&unit.module, &mut trace, MachineConfig::default()).unwrap();
        let body_entries =
            trace.events.iter().filter(|e| **e == TraceEvent::RegionEnter(body)).count();
        assert_eq!(body_entries, 6);
    }

    #[test]
    fn uninstrumented_run_counts_instructions() {
        let unit = compile("int main() { return 1 + 2; }", "t.kc").unwrap();
        let r = run(&unit.module).unwrap();
        assert!(r.instrs_executed >= 3);
        assert_eq!(r.exit, 3);
    }
}
