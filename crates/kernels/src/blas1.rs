//! Vector (BLAS-1) kernels.
//!
//! The CG/BiCGSTAB loops use exactly these: dot products, `y ± αx` updates,
//! `p = r + βp` recurrences, 2-norms, and the fused multi-vector updates of
//! the pipelined variants. Every reduction sums left-to-right in index
//! order, so its bits depend on the input alone. The threaded engines in
//! `mf-solver` split vectors into per-warp segments themselves and fold the
//! per-segment partials in a fixed order.

/// Dot product `(x, y)`.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Squared 2-norm.
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// 2-norm.
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
}

/// `y += alpha * x` (classic AXPY).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + alpha * y` (XPAY — the `p = r + βp` recurrence of CG line 10).
pub fn xpay(x: &[f64], alpha: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + alpha * *yi;
    }
}

/// `z = x + alpha * y` written into `z`.
pub fn waxpy(x: &[f64], alpha: f64, y: &[f64], z: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), z.len());
    for i in 0..x.len() {
        z[i] = x[i] + alpha * y[i];
    }
}

/// `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// `y = x`.
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// The BiCGSTAB direction update `p = r + beta * (p - omega * mu)`
/// (Algorithm 2 line 13), fused as one pass.
pub fn bicgstab_p_update(r: &[f64], beta: f64, omega: f64, mu: &[f64], p: &mut [f64]) {
    debug_assert_eq!(r.len(), p.len());
    debug_assert_eq!(mu.len(), p.len());
    for i in 0..p.len() {
        p[i] = r[i] + beta * (p[i] - omega * mu[i]);
    }
}

/// Fused dot-product pair `((x1, y), (x2, y))` in one pass over the data —
/// the pipelined-CG reduction `γ' = (r, r), δ' = (w, r)` costs one sweep
/// instead of two. Each accumulator sums left-to-right in index order, so
/// either component is bitwise identical to the corresponding [`dot`] call.
pub fn dot2(x1: &[f64], x2: &[f64], y: &[f64]) -> (f64, f64) {
    debug_assert_eq!(x1.len(), y.len());
    debug_assert_eq!(x2.len(), y.len());
    let (mut a, mut b) = (0.0, 0.0);
    for i in 0..y.len() {
        a += x1[i] * y[i];
        b += x2[i] * y[i];
    }
    (a, b)
}

/// The fused pipelined-CG vector update (Ghysels–Vanroose recurrence), one
/// pass instead of six kernels. `q = A·w` is this iteration's SpMV output;
/// the auxiliary recurrences maintain `s = A·p` and `z = A·s` without extra
/// SpMVs:
///
/// ```text
/// p = r + β p;  s = w + β s;  z = q + β z;
/// x += α p;  r -= α s;  w -= α z
/// ```
///
/// Per element the six updates are evaluated in exactly this order, and no
/// element reads another element's state, so the fused pass is bitwise
/// identical to the unfused `xpay`/`axpy` sequence for any segment split.
#[allow(clippy::too_many_arguments)]
pub fn cg_pipelined_update(
    alpha: f64,
    beta: f64,
    q: &[f64],
    p: &mut [f64],
    s: &mut [f64],
    z: &mut [f64],
    x: &mut [f64],
    r: &mut [f64],
    w: &mut [f64],
) {
    let n = q.len();
    debug_assert!([p.len(), s.len(), z.len(), x.len(), r.len(), w.len()]
        .iter()
        .all(|&l| l == n));
    for i in 0..n {
        p[i] = r[i] + beta * p[i];
        s[i] = w[i] + beta * s[i];
        z[i] = q[i] + beta * z[i];
        x[i] += alpha * p[i];
        r[i] -= alpha * s[i];
        w[i] -= alpha * z[i];
    }
}

/// The fused pipelined-PCG vector update, one pass instead of eight kernels:
///
/// ```text
/// p = u + β p;  s = w + β s;  q = m + β q;  zz = n + β zz;
/// x += α p;  r -= α s;  u -= α q;  w -= α zz
/// ```
///
/// Same bitwise-equivalence argument as [`cg_pipelined_update`]: per-element
/// order is fixed and elements are independent.
#[allow(clippy::too_many_arguments)]
pub fn pcg_pipelined_update(
    alpha: f64,
    beta: f64,
    m: &[f64],
    n: &[f64],
    p: &mut [f64],
    s: &mut [f64],
    q: &mut [f64],
    zz: &mut [f64],
    x: &mut [f64],
    r: &mut [f64],
    u: &mut [f64],
    w: &mut [f64],
) {
    let len = m.len();
    debug_assert!([
        n.len(),
        p.len(),
        s.len(),
        q.len(),
        zz.len(),
        x.len(),
        r.len(),
        u.len(),
        w.len()
    ]
    .iter()
    .all(|&l| l == len));
    for i in 0..len {
        p[i] = u[i] + beta * p[i];
        s[i] = w[i] + beta * s[i];
        q[i] = m[i] + beta * q[i];
        zz[i] = n[i] + beta * zz[i];
        x[i] += alpha * p[i];
        r[i] -= alpha * s[i];
        u[i] -= alpha * q[i];
        w[i] -= alpha * zz[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm2_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn xpay_is_cg_p_update() {
        // p = r + beta p
        let mut p = vec![1.0, 2.0];
        xpay(&[10.0, 20.0], 0.5, &mut p);
        assert_eq!(p, vec![10.5, 21.0]);
    }

    #[test]
    fn waxpy_writes_output() {
        let mut z = vec![0.0; 2];
        waxpy(&[1.0, 2.0], 3.0, &[10.0, 20.0], &mut z);
        assert_eq!(z, vec![31.0, 62.0]);
    }

    #[test]
    fn scale_and_copy() {
        let mut x = vec![1.0, -2.0];
        scale(-2.0, &mut x);
        assert_eq!(x, vec![-2.0, 4.0]);
        let mut y = vec![0.0; 2];
        copy(&x, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn dot2_matches_two_dots_bitwise() {
        let n = 12_295;
        let x1: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 1e3).collect();
        let x2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos() * 1e-4).collect();
        let y: Vec<f64> = (0..n).map(|i| (i * 7 % 31) as f64 - 15.0).collect();
        let (a, b) = dot2(&x1, &x2, &y);
        assert_eq!(a.to_bits(), dot(&x1, &y).to_bits());
        assert_eq!(b.to_bits(), dot(&x2, &y).to_bits());
    }

    #[test]
    fn cg_pipelined_update_matches_unfused_sequence() {
        let n = 257;
        let q: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin()).collect();
        let mk = |k: f64| -> Vec<f64> { (0..n).map(|i| ((i as f64) * k).cos()).collect() };
        let (alpha, beta) = (0.37, -1.25);

        let (mut p, mut s, mut z, mut x, mut r, mut w) =
            (mk(0.1), mk(0.2), mk(0.15), mk(0.3), mk(0.4), mk(0.5));
        cg_pipelined_update(
            alpha, beta, &q, &mut p, &mut s, &mut z, &mut x, &mut r, &mut w,
        );

        let (mut p2, mut s2, mut z2, mut x2, mut r2, mut w2) =
            (mk(0.1), mk(0.2), mk(0.15), mk(0.3), mk(0.4), mk(0.5));
        xpay(&r2.clone(), beta, &mut p2);
        xpay(&w2.clone(), beta, &mut s2);
        xpay(&q, beta, &mut z2);
        axpy(alpha, &p2, &mut x2);
        axpy(-alpha, &s2, &mut r2);
        axpy(-alpha, &z2, &mut w2);

        for i in 0..n {
            assert_eq!(p[i].to_bits(), p2[i].to_bits());
            assert_eq!(s[i].to_bits(), s2[i].to_bits());
            assert_eq!(z[i].to_bits(), z2[i].to_bits());
            assert_eq!(x[i].to_bits(), x2[i].to_bits());
            assert_eq!(r[i].to_bits(), r2[i].to_bits());
            assert_eq!(w[i].to_bits(), w2[i].to_bits());
        }
    }

    #[test]
    fn pcg_pipelined_update_matches_unfused_sequence() {
        let len = 193;
        let mk = |k: f64| -> Vec<f64> { (0..len).map(|i| ((i as f64) * k).sin() * 3.0).collect() };
        let (alpha, beta) = (-0.6, 0.85);
        let (m, nn) = (mk(0.7), mk(0.9));

        let (mut p, mut s, mut q, mut zz) = (mk(0.1), mk(0.2), mk(0.3), mk(0.4));
        let (mut x, mut r, mut u, mut w) = (mk(0.5), mk(0.6), mk(0.8), mk(1.1));
        pcg_pipelined_update(
            alpha, beta, &m, &nn, &mut p, &mut s, &mut q, &mut zz, &mut x, &mut r, &mut u, &mut w,
        );

        let (mut p2, mut s2, mut q2, mut zz2) = (mk(0.1), mk(0.2), mk(0.3), mk(0.4));
        let (mut x2, mut r2, mut u2, mut w2) = (mk(0.5), mk(0.6), mk(0.8), mk(1.1));
        xpay(&u2.clone(), beta, &mut p2);
        xpay(&w2.clone(), beta, &mut s2);
        xpay(&m, beta, &mut q2);
        xpay(&nn, beta, &mut zz2);
        axpy(alpha, &p2, &mut x2);
        axpy(-alpha, &s2, &mut r2);
        axpy(-alpha, &q2, &mut u2);
        axpy(-alpha, &zz2, &mut w2);

        for i in 0..len {
            assert_eq!(p[i].to_bits(), p2[i].to_bits());
            assert_eq!(s[i].to_bits(), s2[i].to_bits());
            assert_eq!(q[i].to_bits(), q2[i].to_bits());
            assert_eq!(zz[i].to_bits(), zz2[i].to_bits());
            assert_eq!(x[i].to_bits(), x2[i].to_bits());
            assert_eq!(r[i].to_bits(), r2[i].to_bits());
            assert_eq!(u[i].to_bits(), u2[i].to_bits());
            assert_eq!(w[i].to_bits(), w2[i].to_bits());
        }
    }

    #[test]
    fn fused_updates_propagate_non_finite() {
        // A NaN in the SpMV result must reach w (not be masked by fusion),
        // and an Inf alpha must poison x/r exactly as the unfused path does.
        let q = vec![f64::NAN, 1.0];
        let (mut p, mut s, mut z, mut x, mut r, mut w) = (
            vec![1.0; 2],
            vec![1.0; 2],
            vec![1.0; 2],
            vec![0.0; 2],
            vec![2.0; 2],
            vec![3.0; 2],
        );
        cg_pipelined_update(0.5, 0.0, &q, &mut p, &mut s, &mut z, &mut x, &mut r, &mut w);
        assert!(z[0].is_nan() && w[0].is_nan());
        assert!(z[1].is_finite() && w[1].is_finite());

        let q = vec![1.0, 1.0];
        let (mut p, mut s, mut z, mut x, mut r, mut w) = (
            vec![1.0; 2],
            vec![1.0; 2],
            vec![1.0; 2],
            vec![0.0; 2],
            vec![2.0; 2],
            vec![3.0; 2],
        );
        cg_pipelined_update(
            f64::INFINITY,
            0.0,
            &q,
            &mut p,
            &mut s,
            &mut z,
            &mut x,
            &mut r,
            &mut w,
        );
        assert!(x.iter().all(|v| v.is_infinite()));
        assert!(r.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn bicgstab_update_formula() {
        let mut p = vec![1.0, 1.0];
        bicgstab_p_update(&[2.0, 3.0], 0.5, 0.25, &[4.0, 8.0], &mut p);
        // p_i = r + 0.5*(p - 0.25*mu) = [2 + .5*(1-1), 3 + .5*(1-2)]
        assert_eq!(p, vec![2.0, 2.5]);
    }
}
