//! Repeat-query ablation — plan-cache hit path vs cold planning.
//!
//! Runs a small workload of SELECT shapes once cold and then several
//! warm repeats against the same database. On a warm repeat the plan
//! cache serves the optimized plan directly, so the parse, bind and
//! optimize lifecycle stages are skipped entirely: their stage timings
//! stay at the profile's pre-seeded zero. The harness prints the
//! front-end (parse + bind + optimize) wall time per run and the cache
//! counters, and with `--profile-json PATH` writes a machine-readable
//! document the CI job asserts against (warm front-end must be exactly
//! zero — elided, not merely fast).
//!
//! ```text
//! cargo run --release -p lardb-bench --bin plan_cache_repeat [-- --quick]
//! ```

use lardb::{DataType, Database, Partitioning, QueryProfile, Row, Schema, Value};
use lardb_bench::Args;

/// Warm repeats per query after the cold seeding run.
const WARM_RUNS: usize = 5;

const QUERIES: &[&str] = &[
    "SELECT id, v * 2 AS vv FROM facts WHERE id >= 100",
    "SELECT g, COUNT(*) AS c, SUM(v) AS s FROM facts GROUP BY g",
    "SELECT f.id, d.label FROM facts AS f, dims AS d WHERE f.g = d.g AND f.id < 50",
];

fn build_db(args: &Args) -> Database {
    let db = Database::with_config(args.config.clone());
    db.create_table(
        "facts",
        Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("g", DataType::Integer),
            ("v", DataType::Double),
        ]),
        Partitioning::Hash(0),
    )
    .unwrap();
    let n = args.n as i64;
    db.insert_rows(
        "facts",
        (0..n).map(|i| {
            Row::new(vec![
                Value::Integer(i),
                Value::Integer(i % 16),
                Value::Double(i as f64 * 0.25),
            ])
        }),
    )
    .unwrap();
    db.create_table(
        "dims",
        Schema::from_pairs(&[("g", DataType::Integer), ("label", DataType::Integer)]),
        Partitioning::Hash(0),
    )
    .unwrap();
    db.insert_rows(
        "dims",
        (0..16i64).map(|g| Row::new(vec![Value::Integer(g), Value::Integer(g * 100)])),
    )
    .unwrap();
    db
}

/// Parse + bind + optimize wall time — the work a cache hit elides.
fn front_end_ms(profile: &QueryProfile) -> f64 {
    ["parse", "bind", "optimize"]
        .iter()
        .map(|s| profile.stage_ms(s).unwrap_or(0.0))
        .sum()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    // Pin the default capacity: the ablation asserts hit counts, so it
    // must not inherit a plan-cache override from the environment (the
    // flag still sets it).
    let mut defaults = Args::default();
    defaults.config.plan_cache_entries = 256;
    let args = defaults.parse_env(&["--n", "--quick", "--profile-json"]);
    let db = build_db(&args);
    println!(
        "plan-cache repeat-query ablation: {} rows, {} workers, {} warm runs\n",
        args.n, args.config.workers, WARM_RUNS
    );

    let mut runs_json = Vec::new();
    for q in QUERIES {
        let cold_rows = db.query(q).unwrap().rows.len();
        let cold = db.last_profile().expect("statement just ran");
        let cold_ms = front_end_ms(&cold);

        let mut warm_profiles = Vec::new();
        for run in 0..WARM_RUNS {
            let rows = db.query(q).unwrap().rows.len();
            assert_eq!(rows, cold_rows, "warm run {run} changed the result");
            warm_profiles.push(db.last_profile().expect("statement just ran"));
        }
        let warm_ms: f64 =
            warm_profiles.iter().map(front_end_ms).sum::<f64>() / WARM_RUNS as f64;
        println!("  {q}");
        println!(
            "    cold front-end {cold_ms:8.3} ms   warm front-end {warm_ms:8.3} ms   \
             ({cold_rows} rows)"
        );

        let warm_json: Vec<String> =
            warm_profiles.iter().map(|p| p.to_json()).collect();
        runs_json.push(format!(
            "{{\"query\":\"{}\",\"rows\":{cold_rows},\
             \"cold_front_end_ms\":{cold_ms:.6},\"warm_front_end_ms\":{warm_ms:.6},\
             \"cold\":{},\"warm\":[{}]}}",
            json_escape(q),
            cold.to_json(),
            warm_json.join(","),
        ));
    }

    let stats = db.plan_cache_stats();
    println!(
        "\ncache: {} hits, {} misses, {} entries, {} evictions, {} invalidations",
        stats.hits, stats.misses, stats.entries, stats.evictions, stats.invalidations
    );
    assert_eq!(
        stats.hits as usize,
        QUERIES.len() * WARM_RUNS,
        "every warm repeat must be a cache hit"
    );

    if let Some(path) = &args.profile_json {
        let doc = format!(
            "{{\"bench\":\"plan_cache_repeat\",\"warm_runs\":{WARM_RUNS},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\
             \"evictions\":{},\"invalidations\":{}}},\
             \"runs\":[{}]}}",
            stats.hits,
            stats.misses,
            stats.entries,
            stats.evictions,
            stats.invalidations,
            runs_json.join(","),
        );
        match std::fs::write(path, doc) {
            Ok(()) => println!("wrote repeat-query profiles to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
