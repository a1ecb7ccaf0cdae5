//! Figure 3 — the distance computation, six platforms × dims.
//!
//! The paper reports "Fail" for tuple-based SimSQL at every
//! dimensionality; our harness instead runs the tuple formulation at a
//! reduced row count when the full size would blow the materialization
//! budget, and marks the cell. Block size for block-based SQL follows the
//! paper's 1000 unless `--block` overrides it; for small `--n-dist` the
//! harness shrinks it so there are enough blocks to distribute.
//!
//! ```text
//! cargo run --release -p lardb-bench --bin fig3_distance [-- --n-dist 1500 --dims 10,100,1000]
//! ```

use lardb_bench::{figure, Args, Workload};

fn main() {
    let args =
        Args::default().parse_env(&["--n-dist", "--dims", "--block", "--seed", "--quick"]);
    // Ensure several blocks exist even at laptop scale.
    let block = args.block.min((args.n_dist / 8).max(1));
    println!(
        "Figure 3: Distance computation (n = {}, workers = {}, block = {block}, seed = {})",
        args.n_dist, args.config.workers, args.seed
    );
    figure("Distance Computation", Workload::Distance, args.n_dist, block, &args);
}
