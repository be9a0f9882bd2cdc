//! Shared differential-testing kit for the threaded single-kernel engines.
//!
//! The threaded PCG/PBiCGSTAB engines are *deterministic and warp-count
//! invariant by construction*: owner-computes SpMV in `TiledMatrix::matvec`
//! order, per-segment single-writer dot partials reduced in fixed segment
//! order, and sequential-order in-kernel SpTRSV. The references here mirror
//! those engines operation-for-operation (same summation orders, same
//! breakdown branches), so a cross-engine comparison can assert *bitwise*
//! equality of iteration counts, residual trajectories and solutions — far
//! stronger than the 1e-12-relative acceptance bar, and any divergence
//! localizes a synchronization bug precisely.

use mille_feuille::kernels::ilu::Ilu0;
use mille_feuille::kernels::{sptrsv_lower_into, sptrsv_upper_into};
use mille_feuille::solver::config::MAX_CONSECUTIVE_RESTARTS;
use mille_feuille::sparse::{Csr, Dense, TiledMatrix};

/// Segmented dot product in the engines' reduction order: one partial per
/// `seg`-sized chunk (accumulated in element order), partials summed in
/// chunk order. Identical to "every warp stores its segments' partials,
/// every warp reduces all segments in order" at ANY warp count.
pub fn segmented_dot(a: &[f64], b: &[f64], seg: usize) -> f64 {
    assert_eq!(a.len(), b.len());
    assert!(seg >= 1);
    let mut total = 0.0;
    for (ca, cb) in a.chunks(seg).zip(b.chunks(seg)) {
        let mut part = 0.0;
        for (x, y) in ca.iter().zip(cb) {
            part += x * y;
        }
        total += part;
    }
    total
}

/// What a reference solve produces — the subset of `SolveReport` the
/// parity harness compares.
#[derive(Clone, Debug)]
pub struct RefReport {
    pub x: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    pub final_relres: f64,
    pub residual_history: Vec<f64>,
    /// Mirrors `SolveReport::failure.is_some()` for the deterministic
    /// abort paths (non-finite state, stalled restarts).
    pub failed: bool,
}

/// Sequential mirror of `run_pcg_threaded`: same SpMV (`m.matvec`), same
/// ILU(0) application (`sptrsv_lower_into`/`sptrsv_upper_into`), same
/// segmented dots, same breakdown/restart/abort ordering.
pub fn reference_pcg(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> RefReport {
    let n = m.nrows;
    let seg = m.tile_size;
    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    let mut out = RefReport {
        x: vec![0.0; n],
        iterations: 0,
        converged: false,
        final_relres: f64::INFINITY,
        residual_history: Vec::new(),
        failed: false,
    };
    if norm_b == 0.0 {
        out.converged = true;
        out.final_relres = 0.0;
        return out;
    }

    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = vec![0.0; n];
    let mut u = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut z = vec![0.0; n];

    let apply = |r: &[f64], y: &mut [f64], z: &mut [f64]| {
        sptrsv_lower_into(&ilu.l, r, y, true);
        sptrsv_upper_into(&ilu.u, y, z, false);
    };

    apply(&r, &mut y, &mut z);
    p.copy_from_slice(&z);
    let mut rz = segmented_dot(&r, &z, seg);
    let mut consecutive_restarts = 0usize;

    for j in 0..max_iter {
        m.matvec(&p, &mut u);
        let pu = segmented_dot(&u, &p, seg);
        let alpha = rz / pu;

        if !alpha.is_finite() || pu <= 0.0 {
            p.copy_from_slice(&z);
            let rz_restart = segmented_dot(&r, &z, seg);
            rz = rz_restart;
            consecutive_restarts += 1;
            let abort_nonfinite = !rz_restart.is_finite();
            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
            out.iterations = j + 1;
            if abort_nonfinite || abort_stalled {
                out.failed = true;
                out.x = x;
                return out;
            }
            continue;
        }

        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * u[i];
        }
        let rr = segmented_dot(&r, &r, seg);
        if !rr.is_finite() {
            out.iterations = j + 1;
            out.failed = true;
            out.x = x;
            return out;
        }
        consecutive_restarts = 0;

        apply(&r, &mut y, &mut z);
        let rz_new = segmented_dot(&r, &z, seg);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
        let relres = rr.max(0.0).sqrt() / norm_b;
        out.iterations = j + 1;
        out.final_relres = relres;
        out.residual_history.push(relres);
        if relres < tol {
            out.converged = true;
            break;
        }
        if !beta.is_finite() {
            out.failed = true;
            out.x = x;
            return out;
        }
    }
    out.x = x;
    out
}

/// Sequential mirror of `run_pbicgstab_threaded` (right-preconditioned,
/// shadow residual fixed at `b`).
pub fn reference_pbicgstab(
    m: &TiledMatrix,
    ilu: &Ilu0,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> RefReport {
    let n = m.nrows;
    let seg = m.tile_size;
    let norm_b: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    let mut out = RefReport {
        x: vec![0.0; n],
        iterations: 0,
        converged: false,
        final_relres: f64::INFINITY,
        residual_history: Vec::new(),
        failed: false,
    };
    if norm_b == 0.0 {
        out.converged = true;
        out.final_relres = 0.0;
        return out;
    }

    let r0s = b.to_vec();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = b.to_vec();
    let mut phat = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut shat = vec![0.0; n];
    let mut t = vec![0.0; n];
    let mut y = vec![0.0; n];

    // ρ₀ is accumulated flat on the host in the engine, not segmented.
    let mut rho: f64 = b.iter().zip(&r0s).map(|(a, b)| a * b).sum();
    let mut consecutive_restarts = 0usize;

    for j in 0..max_iter {
        sptrsv_lower_into(&ilu.l, &p, &mut y, true);
        sptrsv_upper_into(&ilu.u, &y, &mut phat, false);
        m.matvec(&phat, &mut v);
        let denom = segmented_dot(&v, &r0s, seg);
        let alpha = rho / denom;

        if !alpha.is_finite() || denom.abs() < f64::MIN_POSITIVE {
            p.copy_from_slice(&r);
            let mut rho_restart = segmented_dot(&r, &r0s, seg);
            let rr = segmented_dot(&r, &r, seg);
            if rho_restart.abs() < f64::MIN_POSITIVE {
                rho_restart = rr;
            }
            rho = rho_restart;
            consecutive_restarts += 1;
            let abort_nonfinite = !rho_restart.is_finite() || !rr.is_finite();
            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
            out.iterations = j + 1;
            let relres = rr.max(0.0).sqrt() / norm_b;
            if relres.is_finite() {
                out.final_relres = relres;
            }
            if abort_nonfinite || abort_stalled {
                out.failed = true;
                out.x = x;
                return out;
            }
            continue;
        }

        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        sptrsv_lower_into(&ilu.l, &s, &mut y, true);
        sptrsv_upper_into(&ilu.u, &y, &mut shat, false);
        m.matvec(&shat, &mut t);
        let ts = segmented_dot(&t, &s, seg);
        let tt = segmented_dot(&t, &t, seg);
        let omega = if tt > 0.0 { ts / tt } else { 0.0 };

        #[allow(clippy::assign_op_pattern)]
        for i in 0..n {
            // Left-associated like the engine: (x + αp̂) + ωŝ, not x + (αp̂ + ωŝ).
            x[i] = x[i] + alpha * phat[i] + omega * shat[i];
            r[i] = s[i] - omega * t[i];
        }
        let rho_new = segmented_dot(&r, &r0s, seg);
        let rr = segmented_dot(&r, &r, seg);
        let relres = rr.max(0.0).sqrt() / norm_b;
        if !rr.is_finite() {
            out.iterations = j + 1;
            out.failed = true;
            out.x = x;
            return out;
        }
        consecutive_restarts = 0;

        let beta = (rho_new / rho) * (alpha / omega);
        let restart = !beta.is_finite() || omega == 0.0 || rho_new.abs() < f64::MIN_POSITIVE;
        for i in 0..n {
            p[i] = if restart {
                r[i]
            } else {
                r[i] + beta * (p[i] - omega * v[i])
            };
        }
        rho = if restart && rho_new.abs() < f64::MIN_POSITIVE {
            rr
        } else {
            rho_new
        };
        out.iterations = j + 1;
        out.final_relres = relres;
        out.residual_history.push(relres);
        if relres < tol {
            out.converged = true;
            break;
        }
    }
    out.x = x;
    out
}

/// `b = A·1`, the paper's right-hand side.
pub fn paper_rhs(a: &Csr) -> Vec<f64> {
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    b
}

/// Dense-LU oracle solution of `A x = b` (panics if singular — the grid
/// fixtures are all nonsingular).
pub fn oracle_solution(a: &Csr, b: &[f64]) -> Vec<f64> {
    Dense::from_csr(a).solve(b).expect("oracle solvable")
}

/// Asserts `x` agrees with the dense oracle row-wise within `tol` relative
/// to the oracle's magnitude.
pub fn assert_matches_oracle(a: &Csr, b: &[f64], x: &[f64], tol: f64, label: &str) {
    let oracle = oracle_solution(a, b);
    for i in 0..a.nrows {
        let scale = oracle[i].abs().max(1.0);
        assert!(
            (x[i] - oracle[i]).abs() <= tol * scale,
            "{label}: row {i}: {} vs oracle {}",
            x[i],
            oracle[i]
        );
    }
}
