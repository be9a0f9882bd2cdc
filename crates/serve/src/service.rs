//! The request-facing service: cache-aware single solves and batched
//! multi-RHS solves.
//!
//! [`SolveService`] owns a [`MilleFeuille`] facade plus a
//! [`PreparedCache`]; requests are `(A, b)` pairs (or `(A, [b…])` batches)
//! and the service decides what preparation can be reused and which
//! execution shape to run. The determinism contract (crate docs) is
//! enforced structurally: a cache hit feeds the *same* `Preprocessed`
//! value into the *same* facade entry point a cold solve uses, and the
//! batched path's per-column arithmetic is pinned bitwise to the k = 1
//! path by `mf-solver/tests/block_parity.rs`.

use std::sync::Arc;

use mf_gpu::DeviceSpec;
use mf_kernels::SharedTiles;
use mf_solver::block::{run_cg_block_ws, BlockWorkspace, ColumnStatus};
use mf_solver::{MilleFeuille, SolveReport, SolverConfig, SolverWorkspace};
use mf_sparse::Csr;
use mf_trace::Trace;

use crate::cache::{CacheConfig, CacheStats, PreparedCache, PreparedMatrix};

/// Configuration of the serving layer.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Device the cost model simulates.
    pub device: DeviceSpec,
    /// Solver configuration used for single solves (batched solves force
    /// `partial_convergence: false`, see [`SolveService::solve_batch`]).
    pub solver: SolverConfig,
    /// Preprocessing-cache sizing and admission knobs.
    pub cache: CacheConfig,
    /// Also factor ILU(0) during preparation and serve single solves
    /// through the preconditioned path. The factors are cached with the
    /// tiled matrix, so warm preconditioned solves skip both the
    /// conversion *and* the factorization.
    pub precondition: bool,
    /// Largest lockstep batch; longer request groups are chunked.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            device: DeviceSpec::a100(),
            solver: SolverConfig::default(),
            cache: CacheConfig::default(),
            precondition: false,
            max_batch: 32,
        }
    }
}

/// A single solve's outcome, annotated with what the serving layer did.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The full facade report (bitwise identical to a cold facade solve of
    /// the same request — `preprocess_passes` is 0 on a cache hit because
    /// this request genuinely paid no preprocessing).
    pub report: SolveReport,
    /// Whether preparation came from the cache.
    pub cache_hit: bool,
}

/// A batched request's per-right-hand-side outcome.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Iterations this right-hand side executed.
    pub iterations: usize,
    /// Converged within tolerance?
    pub converged: bool,
    /// Final relative residual from the recurrence.
    pub final_relres: f64,
    /// `true` when the answer came out of the lockstep batch; `false` when
    /// this right-hand side ran individually (k = 1 chunk, or the column
    /// detached and was re-solved — the re-solve is the never-batched
    /// path, so the answer is still deterministic).
    pub batched: bool,
    /// Whether preparation came from the cache.
    pub cache_hit: bool,
}

/// Long-lived solver-as-a-service front end. All methods take `&self`;
/// the service is meant to be shared across request threads (the cache
/// handles cross-thread build deduplication internally).
pub struct SolveService {
    config: ServeConfig,
    solver: MilleFeuille,
    /// Facade with `partial_convergence` forced off — the configuration
    /// under which the batched core's bitwise-parity contract holds; also
    /// used for individual re-solves of detached columns so batch and
    /// fallback agree on the arithmetic.
    batch_solver: MilleFeuille,
    batch_cfg: SolverConfig,
    cache: PreparedCache,
}

impl SolveService {
    pub fn new(config: ServeConfig) -> SolveService {
        let batch_cfg = SolverConfig {
            partial_convergence: false,
            ..config.solver.clone()
        };
        let solver = MilleFeuille::new(config.device.clone(), config.solver.clone());
        let batch_solver = MilleFeuille::new(config.device.clone(), batch_cfg.clone());
        let cache = PreparedCache::new(config.cache);
        SolveService {
            config,
            solver,
            batch_solver,
            batch_cfg,
            cache,
        }
    }

    /// Looks up (or builds) the prepared state for `a`. Returns the entry
    /// and whether it was a cache hit.
    pub fn prepare(&self, a: &Csr) -> (Arc<PreparedMatrix>, bool) {
        let fp = a.fingerprint();
        self.cache.get_or_build(fp, || {
            let (pre, ilu) = if self.config.precondition {
                // Cold path: ILU(0) factors alongside the tile build
                // when host parallelism allows. A factorization
                // failure (non-square, irreparable pivot) downgrades this
                // matrix to plain CG rather than failing the request.
                let (pre, factors) = self.solver.preprocess_with_ilu0(a);
                (pre, factors.ok().map(|(f, _shifts)| f))
            } else {
                (self.solver.preprocess(a), None)
            };
            let mode = self.solver.decide_mode(&pre.tiled);
            let mut bytes = pre.tiled.memory_bytes().total();
            if let Some(f) = &ilu {
                bytes += f.l.memory_bytes() + f.u.memory_bytes();
            }
            PreparedMatrix {
                fingerprint: fp,
                pre,
                ilu,
                mode,
                bytes,
            }
        })
    }

    /// Serves one solve request. Cold requests pay preprocessing once and
    /// populate the cache; warm requests reuse it. Hit or miss, the
    /// numbers are bitwise identical — the facade runs the same entry
    /// point on the same `Preprocessed` either way.
    pub fn solve(&self, a: &Csr, b: &[f64]) -> ServeReport {
        let (prepared, hit) = self.prepare(a);
        let mut report = match &prepared.ilu {
            Some(ilu) => self.solver.solve_pcg_preprocessed(a, &prepared.pre, b, ilu),
            None => {
                let mut ws = SolverWorkspace::new();
                self.solver
                    .solve_cg_preprocessed(a, &prepared.pre, b, &mut ws)
            }
        };
        if hit {
            // The modeled timeline still charges the full cold cost (it is
            // a property of the solve, not of this request); the passes
            // counter records what this request actually paid.
            report.preprocess_passes = 0;
        }
        ServeReport {
            report,
            cache_hit: hit,
        }
    }

    /// Serves a group of requests that share the matrix `a` by advancing
    /// all right-hand sides through one tile pass per iteration
    /// ([`run_cg_block_ws`]). Chunks of one, and columns the lockstep
    /// detaches (breakdown / residual spread), fall back to individual
    /// solves — the never-batched path — so every answer is bitwise
    /// independent of how requests happened to be grouped.
    ///
    /// Batched solves always run plain CG with `partial_convergence`
    /// forced off (the configuration under which per-column bitwise parity
    /// with the single-RHS core is pinned); the cached ILU factors only
    /// accelerate [`SolveService::solve`].
    ///
    /// An adaptive-precision config ([`mf_solver::SolverConfig::adaptive`])
    /// never enters the lockstep: a re-tier plan is a function of one
    /// residual trajectory, so applying any column's plan to the shared
    /// tile state would couple the batch-mates' arithmetic. Adaptive
    /// batches fall back to `k` independent single-RHS adaptive solves —
    /// bitwise what the same requests would produce unbatched.
    pub fn solve_batch(&self, a: &Csr, rhss: &[Vec<f64>]) -> Vec<BatchOutcome> {
        if rhss.is_empty() {
            return Vec::new();
        }
        let n = a.nrows;
        for b in rhss {
            assert_eq!(b.len(), n, "every right-hand side must have n entries");
        }
        let (prepared, hit) = self.prepare(a);
        if self.batch_cfg.adaptive.is_some() {
            return rhss
                .iter()
                .map(|rhs| {
                    let mut sws = SolverWorkspace::new();
                    let rep =
                        self.batch_solver
                            .solve_cg_preprocessed(a, &prepared.pre, rhs, &mut sws);
                    BatchOutcome {
                        x: rep.x,
                        iterations: rep.iterations,
                        converged: rep.converged,
                        final_relres: rep.final_relres,
                        batched: false,
                        cache_hit: hit,
                    }
                })
                .collect();
        }
        let mut out: Vec<Option<BatchOutcome>> = (0..rhss.len()).map(|_| None).collect();
        let mut bws = BlockWorkspace::new();
        let step = self.config.max_batch.max(1);
        let mut start = 0;
        while start < rhss.len() {
            let end = (start + step).min(rhss.len());
            let k = end - start;
            if k == 1 {
                out[start] = Some(self.solve_one_unbatched(a, &prepared, &rhss[start], hit));
                start = end;
                continue;
            }
            let mut b = vec![0.0f64; n * k];
            for (jj, rhs) in rhss[start..end].iter().enumerate() {
                b[jj * n..(jj + 1) * n].copy_from_slice(rhs);
            }
            let mut shared = SharedTiles::load(&prepared.pre.tiled);
            let coster = self.solver.build_coster(&prepared.pre.tiled, prepared.mode);
            let res = run_cg_block_ws(
                &prepared.pre.tiled,
                &mut shared,
                &b,
                k,
                &self.batch_cfg,
                &coster,
                &mut bws,
            );
            for (jj, c) in res.columns.iter().enumerate() {
                let i = start + jj;
                out[i] = Some(if c.status == ColumnStatus::Detached {
                    self.solve_one_unbatched(a, &prepared, &rhss[i], hit)
                } else {
                    BatchOutcome {
                        x: c.x.clone(),
                        iterations: c.iterations,
                        converged: c.status == ColumnStatus::Converged,
                        final_relres: c.final_relres,
                        batched: true,
                        cache_hit: hit,
                    }
                });
            }
            start = end;
        }
        out.into_iter()
            .map(|o| o.expect("every slot filled"))
            .collect()
    }

    /// The individual (never-batched) path: the blocked core with k = 1 —
    /// bitwise the arithmetic a lockstep column executes. If even that
    /// detaches (a genuine breakdown), the full facade takes over with its
    /// restart machinery.
    fn solve_one_unbatched(
        &self,
        a: &Csr,
        prepared: &PreparedMatrix,
        b: &[f64],
        hit: bool,
    ) -> BatchOutcome {
        let mut shared = SharedTiles::load(&prepared.pre.tiled);
        let coster = self.solver.build_coster(&prepared.pre.tiled, prepared.mode);
        let mut ws = BlockWorkspace::new();
        let res = run_cg_block_ws(
            &prepared.pre.tiled,
            &mut shared,
            b,
            1,
            &self.batch_cfg,
            &coster,
            &mut ws,
        );
        let c = &res.columns[0];
        if c.status != ColumnStatus::Detached {
            return BatchOutcome {
                x: c.x.clone(),
                iterations: c.iterations,
                converged: c.status == ColumnStatus::Converged,
                final_relres: c.final_relres,
                batched: false,
                cache_hit: hit,
            };
        }
        let mut sws = SolverWorkspace::new();
        let rep = self
            .batch_solver
            .solve_cg_preprocessed(a, &prepared.pre, b, &mut sws);
        BatchOutcome {
            x: rep.x,
            iterations: rep.iterations,
            converged: rep.converged,
            final_relres: rep.final_relres,
            batched: false,
            cache_hit: hit,
        }
    }

    /// Aggregate cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resident cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Resident cache bytes.
    pub fn cache_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }

    /// Whether `a`'s prepared state is resident right now.
    pub fn is_cached(&self, a: &Csr) -> bool {
        self.cache.contains(a.fingerprint())
    }

    /// Drains the cache-event trace (CacheHit / CacheMiss / CacheEvict).
    pub fn take_trace(&self) -> Trace {
        self.cache.take_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::Coo;

    fn poisson1d(n: usize) -> Csr {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0);
            if i + 1 < n {
                a.push(i, i + 1, -1.0);
                a.push(i + 1, i, -1.0);
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
    fn warm_solve_is_bitwise_cold_and_skips_preprocessing() {
        let svc = SolveService::new(ServeConfig::default());
        let a = poisson1d(96);
        let b = seeded_vec(96, 3);
        let cold = svc.solve(&a, &b);
        let warm = svc.solve(&a, &b);
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(cold.report.preprocess_passes, 1);
        assert_eq!(warm.report.preprocess_passes, 0);
        assert_eq!(cold.report.x, warm.report.x, "hit must be bitwise cold");
        assert_eq!(cold.report.iterations, warm.report.iterations);
        let s = svc.cache_stats();
        assert_eq!((s.hits, s.misses, s.builds), (1, 1, 1));
    }

    #[test]
    fn preconditioned_service_caches_factors() {
        let svc = SolveService::new(ServeConfig {
            precondition: true,
            ..ServeConfig::default()
        });
        let a = poisson1d(64);
        let b = seeded_vec(64, 5);
        let cold = svc.solve(&a, &b);
        let warm = svc.solve(&a, &b);
        assert!(cold.report.converged);
        assert_eq!(cold.report.x, warm.report.x);
        let (prepared, hit) = svc.prepare(&a);
        assert!(hit);
        assert!(prepared.ilu.is_some(), "ILU factors cached with the matrix");
    }

    #[test]
    fn batch_matches_individual_solves_bitwise() {
        let svc = SolveService::new(ServeConfig::default());
        let a = poisson1d(80);
        let rhss: Vec<Vec<f64>> = (0..4).map(|j| seeded_vec(80, 20 + j)).collect();
        let batched = svc.solve_batch(&a, &rhss);
        assert!(batched.iter().all(|o| o.batched && o.converged));
        for (j, rhs) in rhss.iter().enumerate() {
            let solo = svc.solve_batch(&a, std::slice::from_ref(rhs));
            assert!(!solo[0].batched, "k = 1 runs the individual path");
            assert_eq!(solo[0].x, batched[j].x, "column {j} bitwise");
            assert_eq!(solo[0].iterations, batched[j].iterations);
        }
    }

    #[test]
    fn batch_chunks_and_zero_rhs_columns() {
        let svc = SolveService::new(ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        });
        let a = poisson1d(40);
        let mut rhss: Vec<Vec<f64>> = (0..5).map(|j| seeded_vec(40, 40 + j)).collect();
        rhss[1] = vec![0.0; 40]; // zero RHS inside a batch
        let out = svc.solve_batch(&a, &rhss);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|o| o.converged));
        assert!(out[1].x.iter().all(|&v| v == 0.0));
        assert_eq!(out[1].iterations, 0);
        // One preparation for the whole call.
        assert_eq!(svc.cache_stats().builds, 1);
        assert!(svc.solve_batch(&a, &[]).is_empty());
    }

    #[test]
    fn detached_column_falls_back_to_individual_solve() {
        // An indefinite matrix breaks CG down (pᵀAp < 0): the lockstep
        // detaches the columns and the service re-solves them
        // individually via the facade (which records the breakdown).
        let n = 24;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, if i % 2 == 0 { 2.0 } else { -2.0 });
        }
        let a = coo.to_csr();
        let rhss: Vec<Vec<f64>> = (0..2).map(|j| seeded_vec(n, 60 + j)).collect();
        let out = SolveService::new(ServeConfig::default()).solve_batch(&a, &rhss);
        assert!(out.iter().all(|o| !o.batched), "breakdown columns re-solve");
        assert!(out.iter().all(|o| !o.x.is_empty()));
    }
}
