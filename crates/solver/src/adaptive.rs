//! Adaptive re-tiering glue: building a [`PrecisionController`] from a
//! tiled matrix and packaging its decisions for the trace stream.
//!
//! The controller itself ([`mf_precision::retier`]) is a pure function of
//! the residual trajectory and the tile census — it never reads solver
//! state. This module owns the census: per-tile nonzero counts,
//! classification-time precisions and max-magnitudes (the scaled-FP8
//! exponent input), extracted once at solve start. Every engine —
//! sequential classic/pipelined/PCG and the threaded warps — builds its
//! controller through [`controller_for`], so identical inputs yield
//! bitwise-identical plans everywhere, which is what the cross-engine
//! differential harness (`tests/adaptive_parity.rs`) pins.

use mf_precision::{AdaptiveConfig, PrecisionController, RetierDecision, TileInfo};
use mf_sparse::TiledMatrix;

/// Extracts the per-tile census the controller classifies against:
/// nonzero count (bytes-moved projection), classification-time precision
/// (the promotion ceiling) and max |value| (scaled-FP8 exponent choice).
pub fn tile_infos(m: &TiledMatrix) -> Vec<TileInfo> {
    (0..m.tile_count())
        .map(|i| {
            let vals = m.decode_tile_values(i);
            let max_abs = vals.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            TileInfo {
                nnz: vals.len(),
                initial: m.tile_prec[i],
                max_abs,
            }
        })
        .collect()
}

/// Builds the controller for one solve of `m`. Pure: same matrix + same
/// config ⇒ same controller state machine, on any engine.
pub fn controller_for(m: &TiledMatrix, cfg: AdaptiveConfig) -> PrecisionController {
    PrecisionController::new(cfg, tile_infos(m))
}

/// Nonzeros a re-tier plan requantizes: the sum over its actions' tiles
/// (the input of the coster's re-tier charge).
pub(crate) fn touched_nnz(m: &TiledMatrix, d: &RetierDecision) -> usize {
    d.actions
        .iter()
        .map(|a| (m.tile_nnz[a.tile as usize + 1] - m.tile_nnz[a.tile as usize]) as usize)
        .sum()
}

/// Packs a decision into the two payload words of an
/// [`mf_trace::EventKind::Retier`] event: `a = cap_code << 32 | actions`,
/// `b = iteration`.
pub fn retier_trace_payload(d: &RetierDecision) -> (u64, u64) {
    (
        ((d.cap.code() as u64) << 32) | d.actions.len() as u64,
        d.iteration as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_precision::{ClassifyOptions, TierCap};
    use mf_sparse::Coo;

    fn tiny_tiled(n: usize) -> TiledMatrix {
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, i, 4.0);
            if i > 0 {
                a.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                a.push(i, i + 1, -1.0);
            }
        }
        TiledMatrix::from_csr_with(&a.to_csr(), 4, &ClassifyOptions::default())
    }

    #[test]
    fn census_matches_matrix() {
        let tiled = tiny_tiled(36);
        let infos = tile_infos(&tiled);
        assert_eq!(infos.len(), tiled.tile_count());
        let total: usize = infos.iter().map(|t| t.nnz).sum();
        assert_eq!(total, tiled.nnz());
        for (i, t) in infos.iter().enumerate() {
            assert_eq!(t.initial, tiled.tile_prec[i]);
            assert!(t.max_abs > 0.0);
        }
    }

    #[test]
    fn controllers_are_replicable() {
        let tiled = tiny_tiled(25);
        let mut a = controller_for(&tiled, AdaptiveConfig::default());
        let mut b = controller_for(&tiled, AdaptiveConfig::default());
        let traj = [(8usize, 5e-1), (16, 3e-2), (24, 8e-4), (32, 5e-7)];
        for &(it, rr) in &traj {
            let da = a.observe(it, rr, 1e-10);
            let db = b.observe(it, rr, 1e-10);
            assert_eq!(da, db, "replicated controllers diverged at iter {it}");
        }
        assert_eq!(a.tiers(), b.tiers());
    }

    #[test]
    fn trace_payload_packs_cap_and_actions() {
        let d = RetierDecision {
            iteration: 42,
            decade: -3,
            cap: TierCap::Half,
            actions: vec![],
        };
        let (a, b) = retier_trace_payload(&d);
        assert_eq!(a >> 32, TierCap::Half.code() as u64);
        assert_eq!(a & 0xffff_ffff, 0);
        assert_eq!(b, 42);
    }
}
