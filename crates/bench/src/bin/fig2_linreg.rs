//! Figure 2 — least-squares linear regression, six platforms × dims.
//!
//! ```text
//! cargo run --release -p lardb-bench --bin fig2_linreg [-- --n 20k --dims 10,100,1000]
//! ```

use lardb_bench::{figure, Args, Workload};

fn main() {
    let args = Args::default().parse_env(&["--n", "--dims", "--block", "--seed", "--quick"]);
    println!(
        "Figure 2: Linear regression (n = {}, workers = {}, block = {}, seed = {})",
        args.n, args.config.workers, args.block, args.seed
    );
    figure("Linear Regression", Workload::Regression, args.n, args.block, &args);
}
