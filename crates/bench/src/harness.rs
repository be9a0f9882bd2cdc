//! Suite-level experiment drivers shared by the figure binaries.

use mf_baselines::Baseline;
use mf_collection::{bicgstab_suite, cg_suite, SuiteEntry, SuiteOptions};
use mf_gpu::DeviceSpec;
use mf_kernels::ilu0;
use mf_solver::{
    ExecutedMode, Method, MilleFeuille, Precond, PrecondKind, SolveReport, SolveSpec, SolverConfig,
};
use rayon::prelude::*;

/// One comparison point (one matrix, Mille-feuille vs one baseline).
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Matrix name.
    pub name: String,
    /// Rows.
    pub n: usize,
    /// Nonzeros.
    pub nnz: usize,
    /// Mille-feuille modeled solve time, µs.
    pub mf_us: f64,
    /// Baseline modeled solve time, µs.
    pub base_us: f64,
    /// `base_us / mf_us`.
    pub speedup: f64,
    /// Mille-feuille iterations executed.
    pub mf_iters: usize,
    /// Baseline iterations executed.
    pub base_iters: usize,
    /// Execution mode Mille-feuille chose.
    pub mf_mode: ExecutedMode,
    /// Mille-feuille termination status: `converged`, `max_iter`, or
    /// `aborted(<breakdown>)` ([`SolveReport::status_label`]) — Table-II
    /// style rows no longer conflate "ran the iteration budget" with
    /// "broke down".
    pub mf_status: String,
    /// Barrier epochs per iteration per warp from the run's
    /// [`mf_trace::TraceSummary`] (see [`barriers_per_iter`]); `None`
    /// when tracing was off for the run.
    pub mf_barriers_per_iter: Option<f64>,
}

/// Barrier epochs per iteration per warp for the `barriers/iter` table
/// column, from a solve's merged trace. `None` when tracing was off, the
/// stream is incomplete (ring drops would undercount the epochs), or the
/// engine recorded no barrier epochs at all — the sequential model cores
/// charge sync time in the timeline but emit no barrier events, so only
/// the threaded engines (the population this column measures) produce a
/// number.
pub fn barriers_per_iter(trace: Option<&mf_trace::Trace>) -> Option<f64> {
    let s = trace?.summary();
    (s.dropped == 0 && s.count(mf_trace::EventKind::BarrierEnter) > 0)
        .then(|| s.barriers_per_iteration())
}

impl CompareRow {
    /// Builds a row from one matrix's Mille-feuille report plus the
    /// baseline's time and iteration count.
    fn from_reports(
        name: &str,
        n: usize,
        nnz: usize,
        mf: &SolveReport,
        base_us: f64,
        base_iters: usize,
    ) -> Self {
        CompareRow {
            name: name.to_string(),
            n,
            nnz,
            mf_us: mf.solve_us(),
            base_us,
            speedup: base_us / mf.solve_us(),
            mf_iters: mf.iterations,
            base_iters,
            mf_mode: mf.mode,
            mf_status: mf.status_label(),
            mf_barriers_per_iter: barriers_per_iter(mf.trace.as_ref()),
        }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Suite options from `MF_SUITE_COUNT` / `MF_MAX_NNZ` (defaults 60 /
/// 2_000_000 — pass 230/686 and 4_000_000 for the paper-scale run).
pub fn suite_options_from_env() -> SuiteOptions {
    SuiteOptions {
        count: env_usize("MF_SUITE_COUNT", 60),
        max_nnz: env_usize("MF_MAX_NNZ", 2_000_000),
        ..SuiteOptions::default()
    }
}

/// Benchmark iteration count from `MF_ITERS` (paper: 100).
pub fn iters_from_env() -> usize {
    env_usize("MF_ITERS", 100)
}

/// The CG population (named SPD proxies + synthetic sweep).
pub fn cg_entries() -> Vec<SuiteEntry> {
    cg_suite(&suite_options_from_env())
}

/// The BiCGSTAB population.
pub fn bicgstab_entries() -> Vec<SuiteEntry> {
    bicgstab_suite(&suite_options_from_env())
}

/// Right-hand side the paper uses: `b = A · 1` (§IV-A).
pub fn paper_rhs(a: &mf_sparse::Csr) -> Vec<f64> {
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    b
}

fn mf_config(iters: usize) -> SolverConfig {
    SolverConfig {
        fixed_iterations: Some(iters),
        ..SolverConfig::default()
    }
}

/// Runs Mille-feuille vs a baseline on CG over a suite (`iters` fixed
/// iterations each, paper Figs. 8–9), in parallel over matrices.
pub fn compare_cg(
    entries: &[SuiteEntry],
    device: &DeviceSpec,
    baseline: &Baseline,
    iters: usize,
) -> Vec<CompareRow> {
    entries
        .par_iter()
        .map(|e| {
            let a = e.generate();
            let b = paper_rhs(&a);
            let mf = MilleFeuille::new(device.clone(), mf_config(iters));
            let rep = mf.solve(&a, &b, &SolveSpec::new(Method::Cg)).unwrap();
            let base = baseline.solve_cg(&a, &b, &mf_config(iters));
            CompareRow::from_reports(
                &e.name,
                a.nrows,
                a.nnz(),
                &rep,
                base.solve_us(),
                base.iterations,
            )
        })
        .collect()
}

/// Runs Mille-feuille vs a baseline on BiCGSTAB over a suite.
pub fn compare_bicgstab(
    entries: &[SuiteEntry],
    device: &DeviceSpec,
    baseline: &Baseline,
    iters: usize,
) -> Vec<CompareRow> {
    entries
        .par_iter()
        .map(|e| {
            let a = e.generate();
            let b = paper_rhs(&a);
            let mf = MilleFeuille::new(device.clone(), mf_config(iters));
            let rep = mf.solve(&a, &b, &SolveSpec::new(Method::BiCgStab)).unwrap();
            let base = baseline.solve_bicgstab(&a, &b, &mf_config(iters));
            CompareRow::from_reports(
                &e.name,
                a.nrows,
                a.nnz(),
                &rep,
                base.solve_us(),
                base.iterations,
            )
        })
        .collect()
}

/// Preconditioned CG comparison (Fig. 10). Matrices whose ILU(0) breaks
/// down are skipped, mirroring how the artifact filters failures.
pub fn compare_pcg(
    entries: &[SuiteEntry],
    device: &DeviceSpec,
    baseline: &Baseline,
    iters: usize,
) -> Vec<CompareRow> {
    entries
        .par_iter()
        .filter_map(|e| {
            let a = e.generate();
            let ilu = ilu0(&a).ok()?;
            let b = paper_rhs(&a);
            let mf = MilleFeuille::new(device.clone(), mf_config(iters));
            let rep = mf
                .solve(
                    &a,
                    &b,
                    &SolveSpec::new(Method::Pcg(PrecondKind::Ilu0))
                        .with_factors(Precond::Ilu0(&ilu)),
                )
                .unwrap();
            let base = baseline.solve_pcg_with(&a, &b, &mf_config(iters), &ilu);
            Some(CompareRow::from_reports(
                &e.name,
                a.nrows,
                a.nnz(),
                &rep,
                base.solve_us(),
                base.iterations,
            ))
        })
        .collect()
}

/// Preconditioned BiCGSTAB comparison (Fig. 10).
pub fn compare_pbicgstab(
    entries: &[SuiteEntry],
    device: &DeviceSpec,
    baseline: &Baseline,
    iters: usize,
) -> Vec<CompareRow> {
    entries
        .par_iter()
        .filter_map(|e| {
            let a = e.generate();
            let ilu = ilu0(&a).ok()?;
            let b = paper_rhs(&a);
            let mf = MilleFeuille::new(device.clone(), mf_config(iters));
            let rep = mf
                .solve(
                    &a,
                    &b,
                    &SolveSpec::new(Method::PBiCgStab).with_factors(Precond::Ilu0(&ilu)),
                )
                .unwrap();
            let base = baseline.solve_pbicgstab_with(&a, &b, &mf_config(iters), &ilu);
            Some(CompareRow::from_reports(
                &e.name,
                a.nrows,
                a.nnz(),
                &rep,
                base.solve_us(),
                base.iterations,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_collection::SolverKind;

    fn tiny_suite(kind: SolverKind) -> Vec<SuiteEntry> {
        let opts = SuiteOptions {
            count: 45,
            max_nnz: 5_000,
            seed: 7,
        };
        let all = match kind {
            SolverKind::Cg => cg_suite(&opts),
            SolverKind::Bicgstab => bicgstab_suite(&opts),
        };
        // Keep only the small synthetic entries for fast tests.
        all.into_iter()
            .filter(|e| e.name.starts_with("spd_") || e.name.starts_with("nonsym_"))
            .take(6)
            .collect()
    }

    #[test]
    fn cg_comparison_produces_rows() {
        let entries = tiny_suite(SolverKind::Cg);
        let rows = compare_cg(&entries, &DeviceSpec::a100(), &Baseline::cusparse(), 10);
        assert_eq!(rows.len(), entries.len());
        for r in &rows {
            assert!(r.mf_us > 0.0 && r.base_us > 0.0);
            assert!(r.speedup.is_finite());
            assert_eq!(r.mf_iters, 10);
            assert_eq!(r.base_iters, 10);
        }
    }

    #[test]
    fn small_matrices_speed_up() {
        // The paper's core claim, smoke-tested: on small systems the single
        // kernel beats the multi-kernel baseline comfortably.
        let entries = tiny_suite(SolverKind::Cg);
        let rows = compare_cg(&entries, &DeviceSpec::a100(), &Baseline::cusparse(), 100);
        let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
        let s = crate::stats::summarize(&speedups);
        assert!(s.geomean > 1.5, "geomean {}", s.geomean);
        assert!(s.win_rate > 0.9, "win rate {}", s.win_rate);
    }

    #[test]
    fn bicgstab_comparison_runs() {
        let entries = tiny_suite(SolverKind::Bicgstab);
        let rows = compare_bicgstab(&entries, &DeviceSpec::mi210(), &Baseline::hipsparse(), 10);
        assert_eq!(rows.len(), entries.len());
        assert!(rows.iter().all(|r| r.speedup > 0.0));
    }

    #[test]
    fn preconditioned_comparisons_run() {
        let entries = tiny_suite(SolverKind::Cg);
        let rows = compare_pcg(&entries, &DeviceSpec::a100(), &Baseline::cusparse(), 10);
        assert!(!rows.is_empty());
        let nentries = tiny_suite(SolverKind::Bicgstab);
        let nrows = compare_pbicgstab(&nentries, &DeviceSpec::a100(), &Baseline::cusparse(), 10);
        assert!(!nrows.is_empty());
    }

    /// Synthetic reports exercising every status a row can carry — the
    /// Table-II-style output must distinguish a clean convergence, an
    /// exhausted iteration budget, and each structured abort.
    #[test]
    fn status_column_distinguishes_termination_kinds() {
        use mf_solver::report::{
            BreakdownEvent, BreakdownKind, ExecutedMode, RecoveryAction, SolveFailure,
        };

        fn synthetic(
            converged: bool,
            breakdowns: Vec<BreakdownEvent>,
            failure: Option<SolveFailure>,
        ) -> mf_solver::SolveReport {
            mf_solver::SolveReport {
                x: vec![0.0; 4],
                converged,
                iterations: 12,
                final_relres: 1e-3,
                mode: ExecutedMode::SingleKernel,
                timeline: mf_gpu::Timeline::new(),
                spmv_stats: Default::default(),
                tiled_memory: Default::default(),
                csr_memory: 0,
                warp_count: 4,
                residual_history: vec![],
                error_history: vec![],
                p_range_history: vec![],
                bypass_history: vec![],
                precision_history: vec![],
                preprocess_wall_us: 0.0,
                preprocess_passes: 1,
                breakdowns,
                failure,
                trace: None,
                retier_trail: vec![],
                engine: None,
            }
        }

        let abort = |kind| BreakdownEvent {
            iteration: 11,
            kind,
            action: RecoveryAction::Aborted,
        };
        let cases = [
            (synthetic(true, vec![], None), "converged"),
            (synthetic(false, vec![], None), "max_iter"),
            (
                synthetic(
                    false,
                    vec![abort(BreakdownKind::Curvature)],
                    Some(SolveFailure::Stalled { iteration: 11 }),
                ),
                "aborted(curvature)",
            ),
            (
                synthetic(
                    false,
                    vec![abort(BreakdownKind::NonFinite)],
                    Some(SolveFailure::NonFinite { iteration: 11 }),
                ),
                "aborted(non_finite)",
            ),
            (
                synthetic(false, vec![], Some(SolveFailure::Wedged { iteration: 2 })),
                "aborted(wedged)",
            ),
        ];
        for (mf, expect) in &cases {
            let row = CompareRow::from_reports("synthetic", 4, 10, mf, 1.0, 12);
            assert_eq!(&row.mf_status, expect);
            assert_eq!(row.mf_barriers_per_iter, None, "tracing was off");
        }
        // Statuses must be distinct so the table actually separates them.
        let labels: std::collections::HashSet<_> =
            cases.iter().map(|(r, _)| r.status_label()).collect();
        assert_eq!(labels.len(), cases.len());
    }

    /// The `barriers/iter` column only reports complete threaded-style
    /// streams: barrier epochs divided by warps × iterations, `None` for
    /// untraced runs, barrier-free (sequential) traces, and lossy rings.
    #[test]
    fn barriers_column_measures_complete_threaded_traces_only() {
        use mf_trace::{EventKind, Trace, WarpTracer};
        // Threaded-style: 2 warps × 4 iterations × 2 barrier epochs each.
        let streams: Vec<_> = (0..2u32)
            .map(|w| {
                let t = WarpTracer::new(w as usize, 256);
                for j in 0..4 {
                    t.stamp(j, 0);
                    t.record(EventKind::BarrierEnter, 1, 0);
                    t.record(EventKind::BarrierEnter, 2, 0);
                }
                t.finish()
            })
            .collect();
        let threaded = Trace::merge(streams);
        assert_eq!(barriers_per_iter(Some(&threaded)), Some(2.0));

        // Sequential-style: events recorded, but no barrier epochs.
        let t = WarpTracer::new(0, 256);
        t.stamp(0, 0);
        t.record(EventKind::SpmvBytes, 0, 64);
        let sequential = Trace::merge(vec![t.finish()]);
        assert_eq!(barriers_per_iter(Some(&sequential)), None);
        assert_eq!(barriers_per_iter(None), None);

        // Lossy ring: a capacity-1 tracer drops events, so the count
        // would undercount — the column must decline to report.
        let t = WarpTracer::new(0, 1);
        t.stamp(0, 0);
        for _ in 0..8 {
            t.record(EventKind::BarrierEnter, 1, 0);
        }
        let lossy = Trace::merge(vec![t.finish()]);
        assert!(lossy.dropped > 0, "fixture must actually drop");
        assert_eq!(barriers_per_iter(Some(&lossy)), None);
    }

    #[test]
    fn env_defaults() {
        // Don't set the vars — just exercise the default paths.
        let opts = suite_options_from_env();
        assert!(opts.count >= 1);
        assert!(iters_from_env() >= 1);
    }
}
