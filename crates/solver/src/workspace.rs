//! Reusable solve-loop buffers.
//!
//! The GPU solver keeps every iterate vector resident in device memory for
//! the lifetime of the solve; re-allocating them per call on the host would
//! both misrepresent that and dominate small-solve wall-clock. A
//! [`SolverWorkspace`] owns the union of the vectors the CG / BiCGSTAB /
//! preconditioned cores need. `ensure(n)` zero-fills and resizes them; once
//! a workspace has seen a system of size `n`, subsequent solves of size
//! `≤ n` perform **zero** heap allocations inside the iteration loop (the
//! returned [`crate::SolveReport`] still clones the solution out, one
//! allocation per solve).

/// Pre-allocated vectors shared by all solver cores. Create once, pass to
/// the `*_ws` entry points, reuse across solves.
#[derive(Clone, Debug, Default)]
pub struct SolverWorkspace {
    /// Solution iterate `x`.
    pub x: Vec<f64>,
    /// Residual `r`.
    pub r: Vec<f64>,
    /// Shadow residual `r₀*` (BiCGSTAB).
    pub r0s: Vec<f64>,
    /// Search direction `p`.
    pub p: Vec<f64>,
    /// First SpMV output (`µ` in CG, `v` in BiCGSTAB).
    pub u: Vec<f64>,
    /// BiCGSTAB intermediate `s`.
    pub s: Vec<f64>,
    /// Second SpMV output (`θ` / `t` in BiCGSTAB).
    pub t: Vec<f64>,
    /// Preconditioned residual `z = M⁻¹r`.
    pub z: Vec<f64>,
    /// SpTRSV intermediate (the `y` of `L y = r`, `U z = y`).
    pub y: Vec<f64>,
    /// Preconditioned direction `p̂ = M⁻¹p` (PBiCGSTAB).
    pub phat: Vec<f64>,
    /// Preconditioned intermediate `ŝ = M⁻¹s` (PBiCGSTAB).
    pub shat: Vec<f64>,
    /// Pipelined auxiliary `w = A·r` (CG) / `w = A·u` (PCG) — the SpMV
    /// input of the Ghysels–Vanroose recurrence.
    pub w: Vec<f64>,
    /// Pipelined PCG auxiliary `m = M⁻¹w`.
    pub m: Vec<f64>,
    /// Pipelined PCG auxiliary `n = A·m`.
    pub n: Vec<f64>,
    /// Pipelined PCG auxiliary `q = M⁻¹s` (recurrence-maintained).
    pub q: Vec<f64>,
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> SolverWorkspace {
        SolverWorkspace::default()
    }

    /// A workspace pre-sized for `n`-row systems.
    pub fn with_size(n: usize) -> SolverWorkspace {
        let mut ws = SolverWorkspace::default();
        ws.ensure(n);
        ws
    }

    /// Sizes every buffer to `n` and zero-fills it. Never shrinks capacity,
    /// so a warm workspace allocates nothing.
    ///
    /// The `clear()` before `resize` is load-bearing for shrink-then-grow
    /// reuse (n=250 → n=37 → n=250, the serving loop's access pattern):
    /// `resize` alone only zeroes *appended* elements, so growing back
    /// would resurrect stale iterate values from the earlier larger solve.
    /// `tests/facade_edge_cases.rs` pins this with cross-engine
    /// interleaving.
    pub fn ensure(&mut self, n: usize) {
        for v in [
            &mut self.x,
            &mut self.r,
            &mut self.r0s,
            &mut self.p,
            &mut self.u,
            &mut self.s,
            &mut self.t,
            &mut self.z,
            &mut self.y,
            &mut self.phat,
            &mut self.shat,
            &mut self.w,
            &mut self.m,
            &mut self.n,
            &mut self.q,
        ] {
            v.clear();
            v.resize(n, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_sizes_and_zeroes() {
        let mut ws = SolverWorkspace::new();
        ws.ensure(8);
        assert_eq!(ws.x.len(), 8);
        ws.x[3] = 5.0;
        ws.ensure(8);
        assert_eq!(ws.x[3], 0.0);
    }

    #[test]
    fn warm_workspace_keeps_buffers() {
        let mut ws = SolverWorkspace::with_size(64);
        let ptr = ws.x.as_ptr();
        let cap = ws.x.capacity();
        ws.ensure(32); // shrink: no realloc
        ws.ensure(64); // regrow within capacity: no realloc
        assert_eq!(ws.x.as_ptr(), ptr);
        assert_eq!(ws.x.capacity(), cap);
    }
}
