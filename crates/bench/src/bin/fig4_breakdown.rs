//! Figure 4 — per-operation breakdown of the Gram computation, tuple-based
//! vs vector-based.
//!
//! The paper's Figure 4 shows that in the tuple-based computation the
//! *aggregation* (not the join) dominates: 5×10⁵ thousand-dimensional
//! points explode into 5×10¹¹ joined tuples that all flow into the
//! GROUP BY. This harness re-runs both formulations and prints wall time
//! attributed to scans, joins, aggregation and exchanges from the
//! executor's per-operator statistics.
//!
//! ```text
//! cargo run --release -p lardb-bench --bin fig4_breakdown [-- --n 20k --dims 100]
//! ```
//!
//! With `--profile-json PATH` the harness also writes a machine-readable
//! JSON document containing, per platform, the merged query-lifecycle
//! profile (parse/bind/optimize/plan/execute stage timings plus
//! per-operator estimate-vs-actual records).
//!
//! The harness additionally runs a **filter-heavy segment ablation**: a
//! nearest-centroid prefilter executed under both expression engines
//! (`compiled` vectorized bytecode vs the row-at-a-time `interpret`
//! tree walker), comparing the Filter operator's attributed wall time.
//! The comparison is printed and included in the profile JSON under
//! `filter_segment`.

use std::time::Duration;

use lardb::{
    DataType, Database, DatabaseConfig, ExprEngine, Partitioning, Row, Schema, Value,
};
use lardb_bench::{format_duration, platforms, Args, Platform, Workload};

fn bucket(label: &str) -> &'static str {
    if label.starts_with("TableScan") {
        "scan"
    } else if label.contains("Join") {
        "join"
    } else if label.starts_with("HashAggregate") {
        "aggregation"
    } else if label.starts_with("Exchange") {
        "exchange"
    } else {
        "other"
    }
}

/// Rows in the filter-ablation table. Fixed (not tied to `--n`) so the
/// segment timing is comparable across sweep configurations.
const ABLATION_ROWS: i64 = 60_000;

/// Filter-heavy probe: a k-means-style nearest-centroid prefilter —
/// squared distance to each of four centroids, OR'd. Expression
/// evaluation dominates the Filter operator's wall time, which is the
/// segment the compiled engine's fused morsel kernels target.
const ABLATION_QUERY: &str = "SELECT id FROM points \
     WHERE (a - 120.0) * (a - 120.0) + (b - -30.0) * (b - -30.0) < 2500.0 \
        OR (a - 900.0) * (a - 900.0) + (b - 10.0) * (b - 10.0) < 2500.0 \
        OR (a - 2400.0) * (a - 2400.0) + (b - 40.0) * (b - 40.0) < 2500.0 \
        OR (a - 5100.0) * (a - 5100.0) + (b - -12.0) * (b - -12.0) < 2500.0";

fn ablation_db(engine: ExprEngine, args: &Args) -> Database {
    let db = Database::with_config(DatabaseConfig { expr_engine: engine, ..args.config.clone() });
    db.create_table(
        "points",
        Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("a", DataType::Double),
            ("b", DataType::Double),
        ]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    let rows = (0..ABLATION_ROWS).map(|i| {
        Row::new(vec![
            Value::Integer(i),
            Value::Double(i as f64 * 0.125),
            Value::Double((i % 97) as f64 - 48.0),
        ])
    });
    db.insert_rows("points", rows).unwrap();
    db
}

/// Best-of-`runs` wall time of the Filter segment (all operators whose
/// label starts with `Filter`), in milliseconds. Best-of rather than
/// median: the segment is the quantity under test, and min is the most
/// noise-robust estimator of its intrinsic cost.
fn filter_segment_ms(db: &Database, runs: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let out = db.query(ABLATION_QUERY).unwrap();
        let seg: Duration = out
            .stats
            .time_by_label()
            .into_iter()
            .filter(|(label, _)| label.starts_with("Filter"))
            .map(|(_, wall)| wall)
            .sum();
        best = best.min(seg.as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let args = Args::default()
        .parse_env(&["--n", "--dims", "--block", "--seed", "--quick", "--profile-json"]);
    // Figure 4 used 1000-dimensional data on a five-machine cluster; the
    // default here uses the sweep's largest dims value.
    let dims = args.dims.iter().copied().max().unwrap_or(100);
    println!(
        "Figure 4: Gram computation per-operation breakdown \
         (n = {}, dims = {dims}, workers = {}, engine = {})",
        args.n, args.config.workers, args.config.expr_engine
    );

    // (platform label, QueryProfile JSON) pairs for --profile-json.
    let mut profiles: Vec<(String, String)> = Vec::new();
    for platform in [Platform::TupleSimSql, Platform::VectorSimSql] {
        let out = platforms::run(
            platform, Workload::Gram, args.n, dims, args.block, args.seed, &args.config,
        );
        let Some(total) = out.duration else {
            println!("\n{}: Fail ({:?})", platform.label(), out.note);
            continue;
        };
        if let Some(profile) = &out.profile {
            profiles.push((platform.label().to_string(), profile.to_json()));
        }
        println!(
            "\n{} — total {}{}",
            platform.label(),
            format_duration(total),
            out.note.as_deref().map(|n| format!("  [{n}]")).unwrap_or_default()
        );
        let Some(stats) = out.stats else { continue };
        let mut buckets: std::collections::BTreeMap<&str, Duration> = Default::default();
        for (label, wall) in stats.time_by_label() {
            *buckets.entry(bucket(&label)).or_default() += wall;
        }
        let sum: Duration = buckets.values().sum();
        for (b, wall) in &buckets {
            let pct = if sum.as_nanos() > 0 {
                wall.as_secs_f64() / sum.as_secs_f64() * 100.0
            } else {
                0.0
            };
            println!("  {b:<12} {:>14}  {pct:5.1}%", format!("{:.1} ms", wall.as_secs_f64() * 1e3));
        }
        println!(
            "  rows shuffled: {}   bytes shuffled: {:.2} MB",
            stats.total_rows_shuffled(),
            stats.total_bytes_shuffled() as f64 / 1e6
        );
    }

    println!(
        "\nPaper's observation to check: in the tuple-based run the dominant cost is the \
         aggregation, not the join (§5, Figure 4)."
    );

    // Expression-engine ablation on a filter-heavy segment: the same
    // nearest-centroid prefilter, compiled vectorized bytecode vs the
    // row-at-a-time interpreter, comparing only the Filter operator's
    // attributed wall time.
    let compiled_ms = filter_segment_ms(&ablation_db(ExprEngine::Compiled, &args), 7);
    let interpret_ms = filter_segment_ms(&ablation_db(ExprEngine::Interpret, &args), 7);
    let speedup = interpret_ms / compiled_ms;
    println!(
        "\nFilter-heavy segment ablation ({ABLATION_ROWS} rows, nearest-centroid prefilter):\n  \
         compiled  {compiled_ms:8.3} ms\n  \
         interpret {interpret_ms:8.3} ms\n  \
         speedup   {speedup:8.2}x"
    );

    if let Some(path) = &args.profile_json {
        let runs: Vec<String> = profiles
            .iter()
            .map(|(label, json)| format!("{{\"platform\":\"{label}\",\"profile\":{json}}}"))
            .collect();
        let doc = format!(
            "{{\"bench\":\"fig4_breakdown\",\
             \"filter_segment\":{{\"rows\":{ABLATION_ROWS},\
             \"compiled_ms\":{compiled_ms:.3},\"interpret_ms\":{interpret_ms:.3},\
             \"speedup\":{speedup:.3}}},\
             \"runs\":[{}]}}",
            runs.join(",")
        );
        match std::fs::write(path, doc) {
            Ok(()) => println!("wrote query profiles to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
