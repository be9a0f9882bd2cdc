//! Property-based tests for the solver: random diagonally-dominant systems
//! must converge, match across execution modes, and respect the report
//! invariants.

use mf_gpu::DeviceSpec;
use mf_solver::{KernelMode, MilleFeuille, SolverConfig};
use mf_sparse::{Coo, Csr};
use proptest::prelude::*;

/// Random symmetric diagonally dominant (⇒ SPD) matrix.
fn random_spd(n: usize, extra: usize, seed: u64) -> Csr {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut a = Coo::new(n, n);
    let mut row_abs = vec![0.0; n];
    for _ in 0..extra {
        let i = (next() as usize) % n;
        let j = (next() as usize) % n;
        if i == j {
            continue;
        }
        let v = ((next() % 2000) as f64 - 1000.0) / 500.0;
        a.push(i, j, v);
        a.push(j, i, v);
        row_abs[i] += v.abs();
        row_abs[j] += v.abs();
    }
    for (i, &off) in row_abs.iter().enumerate() {
        a.push(i, i, 1.3 * off + 1.0 + ((next() % 8) as f64));
    }
    let mut csr = a.to_csr();
    // Duplicates may have merged; re-dominate.
    for r in 0..n {
        let mut off = 0.0;
        let mut dk = 0;
        for k in csr.rowptr[r]..csr.rowptr[r + 1] {
            if csr.colidx[k] == r {
                dk = k;
            } else {
                off += csr.vals[k].abs();
            }
        }
        if csr.vals[dk] < 1.3 * off + 1.0 {
            csr.vals[dk] = 1.3 * off + 1.0;
        }
    }
    csr
}

fn rhs(a: &Csr) -> Vec<f64> {
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CG converges on every random SPD system and recovers x = 1.
    #[test]
    fn cg_always_converges_on_spd(n in 8usize..160, extra in 0usize..400, seed in 0u64..1000) {
        let a = random_spd(n, extra, seed);
        let b = rhs(&a);
        let rep = MilleFeuille::with_defaults(DeviceSpec::a100()).solve_cg(&a, &b);
        prop_assert!(rep.converged, "relres {}", rep.final_relres);
        for v in &rep.x {
            prop_assert!((v - 1.0).abs() < 1e-5, "{v}");
        }
    }

    /// Single- and multi-kernel modes produce identical numerics when the
    /// dynamic strategy is off.
    #[test]
    fn modes_agree_numerically(n in 8usize..100, extra in 0usize..200, seed in 0u64..500) {
        let a = random_spd(n, extra, seed);
        let b = rhs(&a);
        let run = |mode| {
            let cfg = SolverConfig {
                kernel_mode: mode,
                partial_convergence: false,
                ..SolverConfig::default()
            };
            MilleFeuille::new(DeviceSpec::a100(), cfg).solve_cg(&a, &b)
        };
        let s = run(KernelMode::SingleKernel);
        let m = run(KernelMode::MultiKernel);
        prop_assert_eq!(s.iterations, m.iterations);
        prop_assert_eq!(s.x, m.x);
    }

    /// The modeled solve time is positive, finite, and the single-kernel
    /// mode beats the multi-kernel mode on small systems.
    #[test]
    fn single_kernel_wins_small(n in 8usize..120, seed in 0u64..500) {
        let a = random_spd(n, n, seed);
        let b = rhs(&a);
        let run = |mode| {
            let cfg = SolverConfig {
                kernel_mode: mode,
                fixed_iterations: Some(50),
                ..SolverConfig::default()
            };
            MilleFeuille::new(DeviceSpec::a100(), cfg).solve_cg(&a, &b).solve_us()
        };
        let s = run(KernelMode::SingleKernel);
        let m = run(KernelMode::MultiKernel);
        prop_assert!(s.is_finite() && s > 0.0);
        prop_assert!(s < m, "single {s} vs multi {m}");
    }

    /// Report invariants hold for arbitrary systems and iteration caps.
    #[test]
    fn report_invariants(n in 8usize..120, extra in 0usize..250, seed in 0u64..500, iters in 1usize..40) {
        let a = random_spd(n, extra, seed);
        let b = rhs(&a);
        let cfg = SolverConfig {
            fixed_iterations: Some(iters),
            trace_residuals: true,
            ..SolverConfig::default()
        };
        let rep = MilleFeuille::new(DeviceSpec::a100(), cfg).solve_cg(&a, &b);
        prop_assert_eq!(rep.iterations, iters);
        prop_assert_eq!(rep.residual_history.len(), iters);
        prop_assert!(rep.total_us() >= rep.solve_us());
        prop_assert!(rep.solve_us() > 0.0);
        // Work accounting: every iteration considers every nonzero once.
        prop_assert_eq!(rep.spmv_stats.nnz_total(), iters * a.nnz());
        // Memory report is self-consistent.
        prop_assert_eq!(rep.csr_memory, a.memory_bytes());
    }

    /// The partial-convergence strategy never prevents convergence on
    /// well-conditioned dominant systems.
    #[test]
    fn partial_strategy_preserves_convergence(n in 16usize..120, seed in 0u64..300) {
        let a = random_spd(n, 2 * n, seed);
        let b = rhs(&a);
        let on = MilleFeuille::with_defaults(DeviceSpec::a100()).solve_cg(&a, &b);
        prop_assert!(on.converged, "relres {}", on.final_relres);
        prop_assert!(on.final_relres < 1e-10);
    }

    /// The threaded single-kernel engine agrees with the facade.
    #[test]
    fn threaded_agrees(n in 16usize..90, seed in 0u64..200) {
        let a = random_spd(n, n, seed);
        let b = rhs(&a);
        let t = mf_sparse::TiledMatrix::from_csr(&a);
        let rep = mf_solver::threaded::run_cg_threaded(&t, &b, 1e-10, 1000, &mf_solver::ThreadedOpts::new(4));
        prop_assert!(rep.converged);
        for v in &rep.x {
            prop_assert!((v - 1.0).abs() < 1e-5);
        }
    }
}
