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

/// Scalar update of the pipelined (Ghysels–Vanroose) recurrence — kept in
/// the exact operation order of `mf_solver::pipelined::pipeline_scalars`
/// (crate-private there) so the references stay bitwise-faithful.
fn pipeline_scalars(
    fresh: bool,
    gamma: f64,
    gamma_old: f64,
    delta: f64,
    alpha_old: f64,
) -> (f64, f64, f64) {
    if fresh {
        (0.0, gamma / delta, delta)
    } else {
        let beta = gamma / gamma_old;
        let denom = delta - (beta / alpha_old) * gamma;
        (beta, gamma / denom, denom)
    }
}

/// `true` when the pipelined scalar pair is a breakdown. The engines also
/// classify the kind (curvature vs non-finite); the references only need
/// the branch decision, which is `Some(_)` exactly when this is `true`.
fn pipeline_breakdown(alpha: f64, denom: f64) -> bool {
    !alpha.is_finite() || denom <= 0.0
}

/// Sequential mirror of `run_cg_pipelined_threaded`: same SpMV
/// (`m.matvec`), same fused six-vector update in element order, same
/// segmented dot partials reduced in segment order, same flag-only
/// restart/abort bookkeeping. Any threaded run at any warp count must
/// match this bitwise.
pub fn reference_cg_pipelined(m: &TiledMatrix, b: &[f64], tol: f64, max_iter: usize) -> RefReport {
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
    let mut s = vec![0.0; n]; // s = A·p (recurrence)
    let mut z = vec![0.0; n]; // z = A·s (recurrence)
    let mut q = vec![0.0; n]; // q = A·w (per-iteration SpMV output)
    let mut w = vec![0.0; n]; // w = A·r

    // Init: w = A·r (r = b), γ₀ = (r, r), δ₀ = (w, r).
    m.matvec(&r, &mut w);
    let mut gamma = segmented_dot(&r, &r, seg);
    let mut delta = segmented_dot(&w, &r, seg);

    let mut gamma_old = 1.0f64;
    let mut alpha_old = 1.0f64;
    let mut fresh = true;
    let mut consecutive_restarts = 0usize;

    for j in 0..max_iter {
        m.matvec(&w, &mut q);
        let (beta, alpha, denom) = pipeline_scalars(fresh, gamma, gamma_old, delta, alpha_old);
        if pipeline_breakdown(alpha, denom) {
            // Flag-only restart: β = 0 next iteration rebuilds p, s, z;
            // (γ, δ) and w are re-read unchanged, exactly as the engine
            // re-reads the same published parity slot.
            fresh = true;
            consecutive_restarts += 1;
            let abort_nonfinite = !gamma.is_finite();
            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
            out.iterations = j + 1;
            let relres = gamma.max(0.0).sqrt() / norm_b;
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
        consecutive_restarts = 0;

        // Fused six-vector update, element order identical to the engine's
        // in-kernel loop (and to `blas1::cg_pipelined_update`).
        for i in 0..n {
            let wv = w[i];
            let qv = q[i];
            let pv = r[i] + beta * p[i];
            p[i] = pv;
            let sv = wv + beta * s[i];
            s[i] = sv;
            let zv = qv + beta * z[i];
            z[i] = zv;
            x[i] += alpha * pv;
            let rv = r[i] - alpha * sv;
            r[i] = rv;
            w[i] = wv - alpha * zv;
        }
        gamma_old = gamma;
        alpha_old = alpha;
        fresh = false;

        let gamma_new = segmented_dot(&r, &r, seg);
        let delta_new = segmented_dot(&w, &r, seg);
        if !gamma_new.is_finite() {
            out.iterations = j + 1;
            out.failed = true;
            out.x = x;
            return out;
        }
        gamma = gamma_new;
        delta = delta_new;
        let relres = gamma_new.max(0.0).sqrt() / norm_b;
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

/// Sequential mirror of `run_pcg_pipelined_threaded`: same ILU(0)
/// application (`sptrsv_lower_into`/`sptrsv_upper_into`), same SpMV, same
/// fused eight-vector update and segmented (γ, δ, ρ) partials, same
/// breakdown/abort ordering.
pub fn reference_pcg_pipelined(
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
    let mut s = vec![0.0; n]; // s = A·p (recurrence)
    let mut q = vec![0.0; n]; // q = M⁻¹s (recurrence)
    let mut zz = vec![0.0; n]; // z = A·q (recurrence)
    let mut u = vec![0.0; n]; // u = M⁻¹r
    let mut w = vec![0.0; n]; // w = A·u
    let mut mv = vec![0.0; n]; // m = M⁻¹w
    let mut nv = vec![0.0; n]; // n = A·m
    let mut y = vec![0.0; n]; // forward-solve scratch

    // Init: u = M⁻¹r (r = b), w = A·u, γ₀ = (r, u), δ₀ = (w, u), ρ₀ = (r, r).
    sptrsv_lower_into(&ilu.l, &r, &mut y, true);
    sptrsv_upper_into(&ilu.u, &y, &mut u, false);
    m.matvec(&u, &mut w);
    let mut gamma = segmented_dot(&r, &u, seg);
    let mut delta = segmented_dot(&w, &u, seg);
    let mut rho = segmented_dot(&r, &r, seg);

    let mut gamma_old = 1.0f64;
    let mut alpha_old = 1.0f64;
    let mut fresh = true;
    let mut consecutive_restarts = 0usize;

    for j in 0..max_iter {
        sptrsv_lower_into(&ilu.l, &w, &mut y, true);
        sptrsv_upper_into(&ilu.u, &y, &mut mv, false);
        m.matvec(&mv, &mut nv);
        let (beta, alpha, denom) = pipeline_scalars(fresh, gamma, gamma_old, delta, alpha_old);
        if pipeline_breakdown(alpha, denom) {
            fresh = true;
            consecutive_restarts += 1;
            let abort_nonfinite = !gamma.is_finite();
            let abort_stalled = consecutive_restarts >= MAX_CONSECUTIVE_RESTARTS;
            out.iterations = j + 1;
            let relres = rho.max(0.0).sqrt() / norm_b;
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
        consecutive_restarts = 0;

        // Fused eight-vector update, element order identical to the
        // engine's in-kernel loop (and to `blas1::pcg_pipelined_update`).
        for i in 0..n {
            let mvv = mv[i];
            let nvv = nv[i];
            let uo = u[i];
            let wo = w[i];
            let pv = uo + beta * p[i];
            p[i] = pv;
            let sv = wo + beta * s[i];
            s[i] = sv;
            let qv = mvv + beta * q[i];
            q[i] = qv;
            let zv = nvv + beta * zz[i];
            zz[i] = zv;
            x[i] += alpha * pv;
            let rv = r[i] - alpha * sv;
            r[i] = rv;
            u[i] = uo - alpha * qv;
            w[i] = wo - alpha * zv;
        }
        gamma_old = gamma;
        alpha_old = alpha;
        fresh = false;

        let rho_new = segmented_dot(&r, &r, seg);
        if !rho_new.is_finite() {
            out.iterations = j + 1;
            out.failed = true;
            out.x = x;
            return out;
        }
        gamma = segmented_dot(&r, &u, seg);
        delta = segmented_dot(&w, &u, seg);
        rho = rho_new;
        let relres = rho_new.max(0.0).sqrt() / norm_b;
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
