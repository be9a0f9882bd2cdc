//! Property-based tests for the shard partitioner behind the multi-device
//! sharded engine.

use mf_gpu::ShardPlan;
use mf_sparse::{Coo, TiledMatrix};
use proptest::prelude::*;

fn random_spd_tiled(n: usize, extra: usize, seed: u64) -> TiledMatrix {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut a = Coo::new(n, n);
    for i in 0..n {
        a.push(i, i, 4.0 + (i % 3) as f64);
    }
    for _ in 0..extra {
        let i = (next() as usize) % n;
        let j = (next() as usize) % n;
        if i != j {
            // Symmetric off-diagonal pair keeps the pattern SPD-ish; the
            // partitioner only cares about structure.
            let v = ((next() % 8) as f64 - 4.0) * 0.125;
            a.push(i, j, v);
            a.push(j, i, v);
        }
    }
    TiledMatrix::from_csr(&a.to_csr())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The partitioner covers every row exactly once, contiguously and in
    /// order, for any (n, tile_size, shards) — including shards > segments.
    #[test]
    fn partition_covers_rows_exactly_once(
        n in 1usize..5_000,
        ts in 1usize..64,
        shards in 1usize..12,
    ) {
        let plan = ShardPlan::partition(n, ts, shards);
        prop_assert!(plan.shards >= 1);
        prop_assert!(plan.shards <= shards);
        let mut covered = 0usize;
        let mut segs = 0usize;
        for k in 0..plan.shards {
            let rows = plan.rows(k);
            prop_assert_eq!(rows.start, covered);
            covered = rows.end;
            // Shard boundaries sit on segment boundaries.
            prop_assert_eq!(rows.start % ts, 0);
            segs += plan.segs(k).len();
            for r in rows {
                prop_assert_eq!(plan.owner_of_row(r), k);
            }
        }
        prop_assert_eq!(covered, n);
        prop_assert_eq!(segs, n.div_ceil(ts).max(1));
    }

    /// A shard's halo is exactly the set of off-block columns its tile
    /// span references: everything the SpMV reads, nothing more.
    #[test]
    fn halo_is_exactly_off_block_references(
        n in 8usize..260,
        extra in 0usize..500,
        seed in 0u64..200,
        shards in 1usize..6,
    ) {
        let m = random_spd_tiled(n, extra, seed);
        let plan = ShardPlan::for_matrix(&m, shards);
        let tile_lo = plan.tile_bounds(&m);
        for k in 0..plan.shards {
            let own = plan.rows(k);
            let halo = plan.halo_columns_with(&m, &tile_lo, k);
            // Sorted, deduplicated, disjoint from the owned block.
            prop_assert!(halo.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(halo.iter().all(|c| !own.contains(c)));
            // Equal to the brute-force reference: walk every tile in the
            // span and collect its out-of-block column references.
            let mut expect: std::collections::BTreeSet<usize> = Default::default();
            for t in tile_lo[k]..tile_lo[k + 1] {
                let base = m.tile_colidx[t] as usize * m.tile_size;
                let nnz_lo = m.tile_nnz[t] as usize;
                let nnz_hi = m.tile_nnz[t + 1] as usize;
                for e in nnz_lo..nnz_hi {
                    let c = base + m.csr_colidx[e] as usize;
                    if !own.contains(&c) {
                        expect.insert(c);
                    }
                }
            }
            prop_assert_eq!(halo, expect.into_iter().collect::<Vec<_>>());
        }
    }
}
