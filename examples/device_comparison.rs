//! Device comparison: the same solves priced on the A100, the MI210, and a
//! user-defined device — showing how the execution model responds to
//! launch latency, bandwidth and shared-memory capacity.
//!
//! ```text
//! cargo run --release --example device_comparison
//! ```

use mille_feuille::collection::{convdiff2d, poisson2d};
use mille_feuille::gpu::Vendor;
use mille_feuille::prelude::*;

/// A hypothetical next-gen device: twice the bandwidth, half the launch
/// latency, 2.5× the shared memory of an A100.
fn nextgen() -> DeviceSpec {
    let mut d = DeviceSpec::a100();
    d.name = "Hypothetical NextGen".into();
    d.vendor = Vendor::Nvidia;
    d.mem_bw_gbs *= 2.0;
    d.fp64_gflops *= 2.0;
    d.kernel_launch_us *= 0.5;
    d.shared_mem_per_sm = (d.shared_mem_per_sm as f64 * 2.5) as usize;
    d
}

fn main() {
    let devices = [DeviceSpec::a100(), DeviceSpec::mi210(), nextgen()];

    println!("CG on 2-D Poisson grids, converged to 1e-10, per device:\n");
    println!(
        "{:<22} {:>9} {:>7} | {:>12} {:>14} {:>9}",
        "device", "n", "iters", "MF µs", "baseline µs", "speedup"
    );
    for grid in [32usize, 128, 384] {
        let a = poisson2d(grid, grid);
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        for device in &devices {
            let solver = MilleFeuille::with_defaults(device.clone());
            let rep = solver
                .solve(&a, &b, &SolveSpec::new(Method::Cg))
                .expect("every method runs on the sequential engine");
            // Price the FP64 multi-kernel baseline on the same device.
            let base = {
                let cfg = SolverConfig {
                    kernel_mode: KernelMode::MultiKernel,
                    ..SolverConfig::fp64_only()
                };
                MilleFeuille::new(device.clone(), cfg)
                    .solve(&a, &b, &SolveSpec::new(Method::Cg))
                    .expect("every method runs on the sequential engine")
            };
            println!(
                "{:<22} {:>9} {:>7} | {:>12.1} {:>14.1} {:>8.2}x",
                device.name,
                a.nrows,
                rep.iterations,
                rep.solve_us(),
                base.solve_us(),
                base.solve_us() / rep.solve_us()
            );
        }
        println!();
    }

    println!("BiCGSTAB on convection–diffusion (200×200):");
    let a = convdiff2d(200, 200, 0.5, 0.25);
    let mut b = vec![0.0; a.nrows];
    a.matvec(&vec![1.0; a.ncols], &mut b);
    for device in &devices {
        let rep = MilleFeuille::with_defaults(device.clone())
            .solve(&a, &b, &SolveSpec::new(Method::BiCgStab))
            .expect("every method runs on the sequential engine");
        println!(
            "  {:<22} {:>4} iterations, {:>10.1} µs [{:?}, {} warps]",
            device.name,
            rep.iterations,
            rep.solve_us(),
            rep.mode,
            rep.warp_count
        );
    }
}
