//! Figure 2 methodology applied to the extended kernel suite (generality
//! check beyond the paper's seven codes).
use loopmem_core::Session;

fn main() {
    println!("Extended suite — default vs MWS before/after optimization");
    println!(
        "{:<12} {:>8} {:>10} {:>8} {:>10} {:>8}",
        "code", "default", "MWS_unopt", "(red.)", "MWS_opt", "(red.)"
    );
    for k in loopmem_bench::extended_kernels() {
        let nest = k.nest();
        let opt = Session::new().optimize(&nest).expect("search succeeds");
        let default = nest.default_memory();
        let pct = |v: u64| 100.0 * (1.0 - v as f64 / default as f64);
        println!(
            "{:<12} {:>8} {:>10} {:>7.1}% {:>10} {:>7.1}%",
            k.name,
            default,
            opt.mws_before,
            pct(opt.mws_before),
            opt.mws_after,
            pct(opt.mws_after)
        );
    }
}
