//! Instrumentation overhead (paper §4.4): the paper reports HCPA-
//! instrumented binaries running ~50x slower than gprof-instrumented
//! ones. Our equivalents: plain interpretation (no hook) vs HCPA
//! profiling of the same program — the ratio of the two medians is the
//! overhead factor to quote.
//!
//! Hand-rolled `fn main` timer harness (`kremlin_bench::timer`); the
//! workspace builds with no external crates.

use kremlin_bench::timer::Group;
use kremlin_hcpa::{HcpaConfig, Profiler, SeedProfiler};
use kremlin_interp::{run, run_with_hook, MachineConfig};

const SRC: &str = "float a[256]; float b[256];\n\
    int main() {\n\
      for (int r = 0; r < 8; r++) {\n\
        for (int i = 0; i < 256; i++) { a[i] = sqrt((float) (i + r)) * 1.5; }\n\
        for (int i = 1; i < 256; i++) { b[i] = b[i - 1] * 0.5 + a[i]; }\n\
      }\n\
      return (int) b[200];\n\
    }";

fn main() {
    let unit = kremlin_ir::compile(SRC, "bench.kc").expect("compiles");
    let mut g = Group::new("profiler_overhead");

    g.bench("plain_interpretation", || run(&unit.module).expect("runs"));

    g.bench("hcpa_profiling", || {
        let mut p = Profiler::new(&unit.module, HcpaConfig::default());
        run_with_hook(&unit.module, &mut p, MachineConfig::default()).expect("runs");
        p.finish()
    });

    g.bench("hcpa_profiling_seed_baseline", || {
        let mut p = SeedProfiler::new(&unit.module, HcpaConfig::default());
        run_with_hook(&unit.module, &mut p, MachineConfig::default()).expect("runs");
        p.finish()
    });

    // The depth window dominates per-instruction cost; a narrow window is
    // the cheap configuration the paper's depth-range flag enables.
    g.bench("hcpa_profiling_window4", || {
        let mut p = Profiler::new(&unit.module, HcpaConfig { window: 4, ..HcpaConfig::default() });
        run_with_hook(&unit.module, &mut p, MachineConfig::default()).expect("runs");
        p.finish()
    });
}
