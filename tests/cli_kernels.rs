//! The `kernels/*.loop` files shipped for the CLI stay valid and keep the
//! properties their comments advertise.

use loopmem::ir::{parse, LoopNest};
use loopmem::sim::SimResult;
use loopmem::Session;
use std::fs;

/// The nest's exact simulation (default session).
fn simulate(nest: &LoopNest) -> SimResult {
    Session::new().simulate(nest).unwrap()
}

fn load(name: &str) -> loopmem::ir::LoopNest {
    let path = format!("{}/kernels/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn all_kernel_files_parse() {
    let dir = format!("{}/kernels", env!("CARGO_MANIFEST_DIR"));
    let mut count = 0;
    for entry in fs::read_dir(&dir).expect("kernels directory exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "loop") {
            let src = fs::read_to_string(&path).expect("readable");
            // parse_program accepts both single nests and sequences.
            loopmem::ir::parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            count += 1;
        }
    }
    assert!(
        count >= 4,
        "expected the shipped kernel files, found {count}"
    );
}

#[test]
fn example8_file_matches_its_comment() {
    let nest = load("example8.loop");
    assert_eq!(simulate(&nest).mws_total, 44);
    let opt = Session::new().optimize(&nest).expect("search succeeds");
    assert_eq!(opt.mws_after, 21);
    assert_eq!(opt.transform.row(0), &[2, 3]);
}

#[test]
fn matmult_file_matches_its_comment() {
    let nest = load("matmult.loop");
    assert_eq!(simulate(&nest).mws_total, 273);
}

#[test]
fn rasta_file_improves_64x() {
    let nest = load("rasta_flt.loop");
    let opt = Session::new().optimize(&nest).expect("search succeeds");
    assert!(opt.mws_before >= 64 * opt.mws_after);
}
