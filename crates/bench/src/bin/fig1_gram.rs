//! Figure 1 — Gram matrix computation, six platforms × dims {10,100,1000}.
//!
//! ```text
//! cargo run --release -p lardb-bench --bin fig1_gram [-- --n 20k --dims 10,100,1000 --workers 8]
//! ```

use lardb_bench::{figure, Args, Workload};

fn main() {
    let args = Args::default().parse_env(&["--n", "--dims", "--block", "--seed", "--quick"]);
    println!(
        "Figure 1: Gram matrix (n = {}, workers = {}, block = {}, seed = {})",
        args.n, args.config.workers, args.block, args.seed
    );
    figure("Gram Matrix Computation", Workload::Gram, args.n, args.block, &args);
}
