//! Batched serving under the adaptive precision controller v2.
//!
//! The blocked lockstep core ignores `SolverConfig::adaptive` (a re-tier
//! plan is a function of one residual trajectory; applying any column's
//! plan to the shared tile state would couple the batch-mates'
//! arithmetic), so `solve_batch` must route adaptive configs to `k`
//! independent single-RHS adaptive solves. This pins the equivalence:
//! every batched answer is bitwise the never-batched adaptive solve of
//! the same request, regardless of grouping — and the controller really
//! fires, so the equivalence is not vacuous.

use mf_serve::{ServeConfig, SolveService};
use mf_solver::{AdaptiveConfig, Method, MilleFeuille, SolveSpec, SolverConfig};
use mf_sparse::{Coo, Csr};

/// Diagonally dominant SPD tridiagonal with noisy values, so tiles
/// classify at full precision and the controller has demotion headroom.
fn noisy_spd(n: usize, seed: u64) -> Csr {
    let noise = seeded_vec(n, seed);
    let mut a = Coo::new(n, n);
    for (i, &w) in noise.iter().enumerate() {
        a.push(i, i, 4.0 + 0.3 * w.abs());
        if i + 1 < n {
            let v = -1.0 + 0.1 * w;
            a.push(i, i + 1, v);
            a.push(i + 1, i, v);
        }
    }
    a.to_csr()
}

fn seeded_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

#[test]
fn adaptive_batches_match_independent_adaptive_solves() {
    let n = 150;
    let a = noisy_spd(n, 11);
    let solver_cfg = SolverConfig {
        adaptive: Some(AdaptiveConfig::default()),
        ..SolverConfig::default()
    };
    let svc = SolveService::new(ServeConfig {
        solver: solver_cfg.clone(),
        ..ServeConfig::default()
    });
    let rhss: Vec<Vec<f64>> = (0..3).map(|j| seeded_vec(n, 100 + j)).collect();

    let outcomes = svc.solve_batch(&a, &rhss);
    assert_eq!(outcomes.len(), rhss.len());

    // Reference: the cold one-shot adaptive facade with the batch path's
    // config (`partial_convergence` forced off — adaptive forces it off
    // anyway, but mirror the service exactly).
    let reference = MilleFeuille::new(
        mf_gpu::DeviceSpec::a100(),
        SolverConfig {
            partial_convergence: false,
            ..solver_cfg
        },
    );
    for (i, (outcome, rhs)) in outcomes.iter().zip(&rhss).enumerate() {
        let solo = reference
            .solve(&a, rhs, &SolveSpec::new(Method::Cg))
            .unwrap();
        assert!(
            !outcome.batched,
            "request {i}: adaptive batches must take the independent path"
        );
        assert!(outcome.converged, "request {i}");
        assert_eq!(
            outcome.x, solo.x,
            "request {i}: batched adaptive answer must be bitwise the \
             never-batched adaptive solve"
        );
        assert_eq!(outcome.iterations, solo.iterations, "request {i}");
        assert!(
            !solo.retier_trail.is_empty(),
            "request {i}: the controller never fired — the equivalence \
             above is vacuous on this fixture"
        );
    }
}
