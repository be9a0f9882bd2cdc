//! **Figure 1**: per-nonzero "enough good" precision distribution of the
//! three example matrices (`garon2`, `nmos3`, `ASIC_320k`).
//!
//! The paper renders spy plots; this binary prints the classification
//! histograms (per nonzero and per 16×16 tile) that color those plots, and
//! dumps a per-tile precision map CSV for external plotting.

use mf_bench::{write_csv, Table};
use mf_collection::named_matrix;
use mf_precision::{classification_histogram, ClassifyOptions};
use mf_sparse::TiledMatrix;

fn main() {
    let opts = ClassifyOptions::default();
    let mut table = Table::new(vec![
        "matrix",
        "n",
        "nnz",
        "fp64%",
        "fp32%",
        "fp16%",
        "fp8%",
        "tiles",
        "tile_fp64",
        "tile_fp32",
        "tile_fp16",
        "tile_fp8",
    ]);

    println!("Figure 1 — 'enough good' precision of each nonzero (loss < 1e-15)\n");
    for name in ["garon2", "nmos3", "ASIC_320k"] {
        let a = named_matrix(name).expect("named proxy").generate();
        let h = classification_histogram(&a.vals, &opts);
        let t = TiledMatrix::from_csr(&a);
        let th = t.tile_precision_histogram();
        let pct = |c: usize| 100.0 * c as f64 / a.nnz() as f64;
        println!(
            "{name:<12} n={:<8} nnz={:<9} FP64 {:5.1}%  FP32 {:5.1}%  FP16 {:5.1}%  FP8 {:5.1}%",
            a.nrows,
            a.nnz(),
            pct(h[0]),
            pct(h[1]),
            pct(h[2]),
            pct(h[3])
        );
        println!(
            "             {} tiles: FP64 {}  FP32 {}  FP16 {}  FP8 {}\n",
            t.tile_count(),
            th[0],
            th[1],
            th[2],
            th[3]
        );
        table.row(vec![
            name.to_string(),
            a.nrows.to_string(),
            a.nnz().to_string(),
            format!("{:.2}", pct(h[0])),
            format!("{:.2}", pct(h[1])),
            format!("{:.2}", pct(h[2])),
            format!("{:.2}", pct(h[3])),
            t.tile_count().to_string(),
            th[0].to_string(),
            th[1].to_string(),
            th[2].to_string(),
            th[3].to_string(),
        ]);

        // Per-tile map (tile_row, tile_col, precision) for spy-plot rendering.
        let mut map = Table::new(vec!["tile_row", "tile_col", "precision"]);
        for i in 0..t.tile_count() {
            map.row(vec![
                t.tile_rowidx[i].to_string(),
                t.tile_colidx[i].to_string(),
                t.tile_prec[i].to_string(),
            ]);
        }
        let path = write_csv(&format!("fig01_map_{name}"), &map).unwrap();
        println!("             tile map -> {}", path.display());
        let svg = mf_bench::write_tile_map_svg(&format!("fig01_{name}"), &t, 900).unwrap();
        println!("             spy plot -> {}", svg.display());
    }

    let path = write_csv("fig01_precision_histograms", &table).unwrap();
    println!("\nhistograms -> {}", path.display());
    println!(
        "\nPaper reference: garon2 mostly FP16/FP8; nmos3 half FP64 / half FP8;\n\
         ASIC_320k FP8 blocks with FP64 row/column hub connections."
    );
}
