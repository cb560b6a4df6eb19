//! §1 motivation quantified: sweep memory capacities for every benchmark
//! kernel and show what sizing to the optimized window saves.
//!
//! Run with `cargo run --example memory_sizing`.

use loopmem::sim::{thread_count, try_simulate_with_threads, AnalysisBudget, ScratchpadModel};
use loopmem::Session;
use loopmem_bench::all_kernels;

fn main() {
    let model = ScratchpadModel::new();
    println!(
        "{:<12} {:>8} {:>8} {:>12} {:>12} {:>9}",
        "kernel", "default", "MWS_opt", "pJ (default)", "pJ (sized)", "saving"
    );
    for k in all_kernels() {
        let nest = k.nest();
        let opt = Session::new().optimize(&nest).expect("search succeeds");
        let default = nest.default_memory() as u64;
        let sized = opt.mws_after.max(1);
        let (big, small) = (model.report(default), model.report(sized));
        println!(
            "{:<12} {:>8} {:>8} {:>12.1} {:>12.1} {:>8.2}x",
            k.name,
            default,
            sized,
            big.energy_per_access_pj,
            small.energy_per_access_pj,
            big.energy_per_access_pj / small.energy_per_access_pj
        );
    }

    // Show one window profile: how the live set evolves over execution.
    let k = loopmem_bench::kernel_by_name("rasta_flt").expect("kernel exists");
    let s = try_simulate_with_threads(
        &k.nest(),
        true,
        thread_count(),
        &AnalysisBudget::unlimited(),
    )
    .expect("kernel simulates");
    let profile = s.profile.expect("profile requested");
    println!("\nrasta_flt window profile (live words after each iteration, downsampled):");
    let step = (profile.len() / 20).max(1);
    for (t, w) in profile.iter().enumerate().step_by(step) {
        println!(
            "  t={t:>6}  {:<60} {w}",
            "#".repeat((*w as usize / 4).min(60))
        );
    }
    println!("  peak = {} words (the MWS)", s.mws_total);
}
