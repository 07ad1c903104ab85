//! # kremlin-workloads — benchmark analogues with MANUAL plans
//!
//! The paper evaluates Kremlin on the eight NAS Parallel Benchmarks and
//! the three C programs of SPEC OMP2001, comparing Kremlin's plans to the
//! regions parallelized in the third-party OpenMP versions ("MANUAL"),
//! plus the SD-VBS `tracking` benchmark as the running example. Those
//! suites cannot be redistributed or compiled here, so this crate carries
//! **mini-C analogues**: for each benchmark, a kernel with the same
//! *parallelism structure class* (DOALL sweeps, reductions with small or
//! ample work, wavefront/DOACROSS solves, coarse loops the third party
//! missed, serial scans), plus the region set a third-party parallelizer
//! annotated (the `MANUAL` plan) and the paper's published numbers for
//! reference. Plan size, overlap, prioritization, and speedup *shape* are
//! functions of this structure, which is what the substitution preserves.
//!
//! Region labels follow the `kremlin-ir` lowering convention:
//! `{function}#L{n}` for the `n`-th loop (lexical order) of `function`.
//!
//! Besides the hand-written analogues, [`scenario`] holds the
//! **kremlin-corpus** layer: declarative [`scenario::ScenarioSpec`]s that
//! lower parallelism-structure classes (DOALL nests, wavefronts,
//! pipelines, task DAGs, reductions, serialized chains) to generated
//! mini-C, with per-spec oracle expectations gated by
//! `CORPUS_verdicts.json` the same way `ANALYZE_verdicts.json` gates the
//! workloads below. [`rng`] is the workspace's zero-dependency seeded
//! generator shared by the corpus sampler and the bench property suites.

pub mod rng;
pub mod scenario;

/// Which suite a workload models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// NAS Parallel Benchmarks (serial → NPB 2.3 OpenMP-C comparison).
    Npb,
    /// SPEC OMP2001 C benchmarks (serial SPEC 2000 counterparts).
    SpecOmp,
    /// San Diego Vision Benchmark Suite.
    SdVbs,
}

impl Suite {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Npb => "NPB",
            Suite::SpecOmp => "SPEC OMP2001",
            Suite::SdVbs => "SD-VBS",
        }
    }
}

/// Published numbers from the paper's Figure 6 for one benchmark
/// (used by the harness to print paper-vs-measured tables).
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// MANUAL plan size (regions parallelized by the third party).
    pub manual_regions: u32,
    /// Kremlin plan size.
    pub kremlin_regions: u32,
    /// Regions common to both.
    pub overlap: u32,
    /// Relative speedup of Kremlin-planned vs MANUAL (Fig. 6b).
    pub rel_speedup: f64,
}

/// One benchmark analogue.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (lowercase, as in the paper).
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// mini-C source.
    pub source: &'static str,
    /// Region labels the third-party (MANUAL) version parallelized.
    pub manual_plan: &'static [&'static str],
    /// One-line description of the parallelism structure modeled.
    pub description: &'static str,
    /// The paper's Figure 6 row (`None` for `tracking`, which only
    /// appears in Figure 3).
    pub paper: Option<PaperRow>,
}

impl Workload {
    /// Source file name used in diagnostics and plan locations.
    pub fn file_name(&self) -> String {
        format!("{}.kc", self.name)
    }
}

/// All workloads: the 8 NPB analogues, 3 SPEC OMP analogues, and
/// `tracking`, in the paper's Figure 6 row order plus tracking last.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "ammp",
            suite: Suite::SpecOmp,
            source: include_str!("../kc/ammp.kc"),
            manual_plan: &[
                "zero_forces#L0",
                "compute_forces#L0",
                "update_positions#L0",
                "kinetic_energy#L0",
                "potential_energy#L0",
                "bond_energy#L0",
            ],
            description: "O(n^2) force DOALL + tiny energy reductions (too little work)",
            paper: Some(PaperRow {
                manual_regions: 6,
                kremlin_regions: 3,
                overlap: 2,
                rel_speedup: 0.96,
            }),
        },
        Workload {
            name: "art",
            suite: Suite::SpecOmp,
            source: include_str!("../kc/art.kc"),
            manual_plan: &["init_net#L0", "f1_layer#L0", "train_weights#L0"],
            description: "neural-net layers; Kremlin finds a match loop MANUAL missed",
            paper: Some(PaperRow {
                manual_regions: 3,
                kremlin_regions: 4,
                overlap: 1,
                rel_speedup: 1.0,
            }),
        },
        Workload {
            name: "equake",
            suite: Suite::SpecOmp,
            source: include_str!("../kc/equake.kc"),
            manual_plan: &[
                "init_mesh#L0",
                "smvp#L0",
                "element_forces#L0",
                "integrate_accvel#L0",
                "integrate_disp#L0",
                "seismic_energy#L0",
                "boundary#L0",
                "damp_edges#L0",
                "probe_history#L0",
                "scale_stiffness#L0",
            ],
            description: "banded sparse matvec + integration DOALLs + short setup loops",
            paper: Some(PaperRow {
                manual_regions: 10,
                kremlin_regions: 6,
                overlap: 6,
                rel_speedup: 0.95,
            }),
        },
        Workload {
            name: "bt",
            suite: Suite::Npb,
            source: include_str!("../kc/bt.kc"),
            manual_plan: &[
                "init_bt#L0",
                "compute_speed#L0",
                "scale_speed#L0",
                "zero_edges_x#L0",
                "zero_edges_y#L0",
                "fix_corners#L0",
                "assemble_rhs#L0",
                "x_solve#L0",
                "y_solve#L0",
                "add_update#L0",
                "residual#L0",
            ],
            description: "block-tridiagonal line sweeps: DOALL outer, serial inner solves",
            paper: Some(PaperRow {
                manual_regions: 54,
                kremlin_regions: 27,
                overlap: 27,
                rel_speedup: 0.95,
            }),
        },
        Workload {
            name: "cg",
            suite: Suite::Npb,
            source: include_str!("../kc/cg.kc"),
            manual_plan: &[
                "init_system#L0",
                "matvec#L0",
                "dot_rr#L0",
                "dot_pq#L0",
                "axpy_z#L0",
                "axpy_r#L0",
                "update_p#L0",
                "copy_rp#L0",
                "norm_z#L0",
                "sum_x#L0",
                "trace_a#L0",
            ],
            description: "dominant matvec + a fleet of overhead-bound vector loops",
            paper: Some(PaperRow {
                manual_regions: 22,
                kremlin_regions: 9,
                overlap: 9,
                rel_speedup: 0.96,
            }),
        },
        Workload {
            name: "ep",
            suite: Suite::Npb,
            source: include_str!("../kc/ep.kc"),
            manual_plan: &["main#L0"],
            description: "one embarrassingly parallel reduction loop with ample work",
            paper: Some(PaperRow {
                manual_regions: 1,
                kremlin_regions: 1,
                overlap: 1,
                rel_speedup: 1.0,
            }),
        },
        Workload {
            name: "ft",
            suite: Suite::Npb,
            source: include_str!("../kc/ft.kc"),
            manual_plan: &[
                "init_twiddle#L0",
                "init_grid#L0",
                "pass_rows#L0",
                "pass_cols#L0",
                "evolve#L0",
                "checksum_grid#L0",
            ],
            description: "spectral passes: row/column DOALLs, evolve nest, checksum",
            paper: Some(PaperRow {
                manual_regions: 6,
                kremlin_regions: 6,
                overlap: 5,
                rel_speedup: 0.97,
            }),
        },
        Workload {
            name: "is",
            suite: Suite::Npb,
            source: include_str!("../kc/is.kc"),
            manual_plan: &["global_hist#L1"],
            description:
                "bucket counting: MANUAL hit the shared histogram, Kremlin the blocked phase",
            paper: Some(PaperRow {
                manual_regions: 1,
                kremlin_regions: 1,
                overlap: 0,
                rel_speedup: 1.46,
            }),
        },
        Workload {
            name: "lu",
            suite: Suite::Npb,
            source: include_str!("../kc/lu.kc"),
            manual_plan: &[
                "init_fields#L0",
                "compute_rhs#L0",
                "compute_flux#L0",
                "lower_solve#L1",
                "upper_solve#L1",
                "update_u#L0",
                "scale_tmp#L0",
                "norm_rsd#L0",
                "zero_tmp#L0",
                "boundary_u#L0",
                "max_tmp#L0",
                "copy_edge#L0",
            ],
            description: "SSOR: DOALL sweeps + wavefront DOACROSS solves",
            paper: Some(PaperRow {
                manual_regions: 28,
                kremlin_regions: 11,
                overlap: 11,
                rel_speedup: 0.95,
            }),
        },
        Workload {
            name: "mg",
            suite: Suite::Npb,
            source: include_str!("../kc/mg.kc"),
            manual_plan: &[
                "smooth_fine#L0",
                "smooth_fine#L1",
                "restrict_fine#L0",
                "smooth_mid#L0",
                "coarse_cycle#L0",
                "coarse_cycle#L1",
                "prolong#L0",
                "prolong#L1",
                "fix_boundary#L0",
                "residual_norm#L0",
            ],
            description: "multigrid V-cycle: stencil DOALLs at three levels + tiny fixups",
            paper: Some(PaperRow {
                manual_regions: 10,
                kremlin_regions: 8,
                overlap: 7,
                rel_speedup: 0.95,
            }),
        },
        Workload {
            name: "sp",
            suite: Suite::Npb,
            source: include_str!("../kc/sp.kc"),
            manual_plan: &[
                "init_sp#L1",
                "tx_sweep#L1",
                "ty_sweep#L1",
                "tz_sweep#L1",
                "norm_edges#L0",
                "rms#L1",
            ],
            description: "MANUAL annotated fine inner loops; Kremlin the coarse outer sweeps",
            paper: Some(PaperRow {
                manual_regions: 70,
                kremlin_regions: 58,
                overlap: 47,
                rel_speedup: 1.85,
            }),
        },
        Workload {
            name: "tracking",
            suite: Suite::SdVbs,
            source: include_str!("../kc/tracking.kc"),
            manual_plan: &[
                "blur_h#L0",
                "blur_v#L0",
                "sobel_dx_h#L0",
                "sobel_dx_v#L0",
                "calc_lambda#L0",
                "interp_patch#L0",
            ],
            description:
                "the paper's running example: blur/Sobel DOALLs + Figure 2's fillFeatures nest",
            paper: None,
        },
    ]
}

/// Looks up a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_twelve() {
        let ws = all();
        assert_eq!(ws.len(), 12);
        assert_eq!(ws.iter().filter(|w| w.suite == Suite::Npb).count(), 8);
        assert_eq!(ws.iter().filter(|w| w.suite == Suite::SpecOmp).count(), 3);
        assert_eq!(by_name("tracking").unwrap().suite, Suite::SdVbs);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn paper_rows_match_figure6_totals() {
        // Fig. 6a's Overall row: MANUAL 211, Kremlin 134, overlap 116.
        let (m, k, o) = all().iter().filter_map(|w| w.paper).fold((0, 0, 0), |(m, k, o), p| {
            (m + p.manual_regions, k + p.kremlin_regions, o + p.overlap)
        });
        assert_eq!(m, 211);
        assert_eq!(k, 134);
        assert_eq!(o, 116);
        let ratio = m as f64 / k as f64;
        assert!((ratio - 1.57).abs() < 0.02, "plan-size reduction {ratio}");
    }

    #[test]
    fn manual_plans_are_nonempty_and_unique() {
        for w in all() {
            assert!(!w.manual_plan.is_empty(), "{} has an empty MANUAL plan", w.name);
            let mut labels: Vec<_> = w.manual_plan.to_vec();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), w.manual_plan.len(), "{} has duplicate labels", w.name);
        }
    }

    #[test]
    fn corpus_expectations_file_matches_scenario_grid() {
        // `CORPUS_verdicts.json` is the CI corpus-fuzz gate's source of
        // expectations; keep it in lockstep with `scenario::corpus()`.
        let file = include_str!("../../../CORPUS_verdicts.json");
        assert!(file.contains("\"schema\": \"kremlin-corpus-expected-v1\""));
        let specs = scenario::corpus();
        for spec in &specs {
            let e = spec.expectation();
            let start = file
                .find(&format!("\"{}\": {{", spec.name()))
                .unwrap_or_else(|| panic!("{spec} missing from CORPUS_verdicts.json"));
            let section = &file[start..];
            let section = &section[..section.find('}').expect("section is closed")];
            for needle in [
                format!("\"class\": \"{}\"", spec.class.name()),
                format!("\"hot\": \"{}\"", e.hot),
                format!("\"verdict\": \"{}\"", e.verdict),
                format!("\"self_p\": [{:.1}, {:.1}]", e.self_p.0, e.self_p.1),
            ] {
                assert!(
                    section.contains(&needle),
                    "{spec}: `{needle}` missing from its CORPUS_verdicts.json row"
                );
            }
        }
        let rows = file.lines().filter(|l| l.contains("\"hot\":")).count();
        assert_eq!(rows, specs.len(), "CORPUS_verdicts.json has extra or missing scenario rows");
    }

    #[test]
    fn suite_names() {
        assert_eq!(Suite::Npb.name(), "NPB");
        assert_eq!(Suite::SpecOmp.name(), "SPEC OMP2001");
        assert_eq!(by_name("ep").unwrap().file_name(), "ep.kc");
    }
}
