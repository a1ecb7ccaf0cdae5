//! Engine configuration and its one knob table.
//!
//! [`KNOBS`] is the only place an engine setting is named, parsed and
//! validated. [`DatabaseConfig::default`] reads its env overrides from it,
//! and `lardb-cli` and the bench harness parse their engine flags and print
//! their engine usage from it.

use std::path::PathBuf;

use lardb_exec::{ExprEngine, NetConfig, SchedulerMode, TransportMode};
use lardb_obs::DispatchMode;
use lardb_planner::OptimizerConfig;

use crate::plan_cache::DEFAULT_PLAN_CACHE_ENTRIES;

/// Engine configuration. Each field a flag can set has one row in
/// [`KNOBS`].
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Number of simulated shared-nothing workers (the paper used 10
    /// machines × 8 cores).
    pub workers: usize,
    /// Optimizer switches (size inference, early projection, DP budget).
    pub optimizer: OptimizerConfig,
    /// How exchange operators move batches between workers: `Pointer`
    /// (in-memory hand-off, estimated bytes), `Serialized` (wire-encoded
    /// over bounded channels, actual bytes), or `Tcp` (wire-encoded over
    /// loopback sockets).
    pub transport: TransportMode,
    /// Slow-query log threshold in milliseconds. Statements that take at
    /// least this long are reported on stderr and counted under the
    /// `db.slow_queries` metric. `None` (the default) disables the log.
    pub slow_query_ms: Option<f64>,
    /// Threads in the persistent worker pool that executes morsels.
    /// `None` (the default) shares the process-wide pool (sized from
    /// `LARDB_POOL_WORKERS` or the machine's core count); `Some(n)` gives
    /// this database a dedicated pool of `n` threads, created once and
    /// reused by every query.
    pub pool_workers: Option<usize>,
    /// Rows per scheduled morsel. Smaller morsels balance skew better;
    /// larger ones amortize scheduling further.
    pub morsel_rows: usize,
    /// Scheduling strategy: morsel-driven pool (default) or the
    /// one-thread-per-partition-per-operator spawn baseline.
    pub scheduler: SchedulerMode,
    /// Kernel-dispatch mode of this database's queries: `Adaptive` (the
    /// default, also for `None`) picks dense or sparse kernels per tile by
    /// measured density; `Dense` / `Sparse` force one representation
    /// everywhere (the sparse ≡ dense differential oracle). Each query
    /// carries it in its own context, so databases with different modes
    /// can run side by side.
    pub sparse_dispatch: Option<DispatchMode>,
    /// Network-layer knobs for serialized/TCP exchanges: I/O timeouts, the
    /// maximum accepted frame size, and an optional deterministic fault
    /// injection plan (see `lardb_exec::FaultPlan`) for chaos testing.
    pub net: NetConfig,
    /// Memory budget for pipeline-breaking operators, in MiB. `None`
    /// (the default) shares the process-wide governor sized from
    /// `LARDB_MEM_BUDGET_MB` (unset ⇒ unbounded); `Some(0)` gives this
    /// database a dedicated *unbounded* governor; `Some(n)` gives it a
    /// dedicated `n`-MiB governor. When a hash join or grouped aggregate
    /// cannot reserve its working set it spills partitions to disk and
    /// finishes out-of-core (see `lardb_buf`).
    pub mem: Option<u64>,
    /// Directory for spill files. `None` (the default) uses
    /// `LARDB_SPILL_DIR`, falling back to the OS temp dir. Spill files
    /// are removed as soon as they are drained (and on abort).
    pub spill_dir: Option<PathBuf>,
    /// Directory where each completed query trace is written as Chrome
    /// trace-event JSON (`trace-<id>.json`, loadable in Perfetto /
    /// `chrome://tracing`). `None` (the default) keeps traces only in the
    /// in-memory flight recorder.
    pub trace_dir: Option<PathBuf>,
    /// Expression engine for scan→filter→project→aggregate pipelines:
    /// `Compiled` (the default) pivots morsels into column batches and
    /// evaluates register bytecode with fused vectorized kernels, falling
    /// back to the row interpreter per chunk on any kernel error;
    /// `Interpret` keeps the row-at-a-time tree walker (the ablation
    /// baseline).
    pub expr_engine: ExprEngine,
    /// Rows per column batch in the compiled engine. Smaller batches stay
    /// cache-resident; larger ones amortize the pivot and dispatch further.
    pub batch_rows: usize,
    /// Capacity of the normalized plan cache in entries. Repeat SELECTs
    /// whose shape, literals, catalog version and optimizer knobs all
    /// match a cached entry skip parse/bind/optimize entirely. `0`
    /// disables caching.
    pub plan_cache_entries: usize,
}

/// One engine setting: its flag, its env override (if any), a one-line
/// doc, and the single step that parses and validates a value into a
/// [`DatabaseConfig`].
#[derive(Debug)]
pub struct Knob {
    /// The command-line flag, e.g. `--batch-rows`.
    pub flag: &'static str,
    /// The env var [`DatabaseConfig::default`] reads, if any.
    pub env: Option<&'static str>,
    /// What the value looks like, e.g. `N` or `pointer|serialized|tcp`.
    pub value: &'static str,
    /// One line for `--help` and the README knob table.
    pub doc: &'static str,
    /// Parses `value` into the config; `None` rejects it and leaves the
    /// config untouched.
    set: fn(&mut DatabaseConfig, &str) -> Option<()>,
}

fn at_least_one(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

/// Every engine setting, in `--help` order.
pub const KNOBS: &[Knob] = &[
    Knob {
        flag: "--workers",
        env: None,
        value: "N",
        doc: "simulated shared-nothing workers, at least 1",
        set: |c, v| at_least_one(v).map(|n| c.workers = n),
    },
    Knob {
        flag: "--transport",
        env: None,
        value: "pointer|serialized|tcp",
        doc: "how exchanges move batches between workers",
        set: |c, v| TransportMode::parse(v).map(|t| c.transport = t),
    },
    Knob {
        flag: "--slow-ms",
        env: None,
        value: "MS",
        doc: "log statements taking at least MS milliseconds to stderr",
        set: |c, v| v.parse().ok().map(|ms| c.slow_query_ms = Some(ms)),
    },
    Knob {
        flag: "--pool-workers",
        env: None,
        value: "N",
        doc: "dedicated N-thread worker pool instead of the shared one",
        set: |c, v| v.parse().ok().map(|n| c.pool_workers = Some(n)),
    },
    Knob {
        flag: "--morsel-rows",
        env: None,
        value: "N",
        doc: "rows per scheduled morsel",
        set: |c, v| v.parse().ok().map(|n| c.morsel_rows = n),
    },
    Knob {
        flag: "--scheduler",
        env: None,
        value: "pool|spawn",
        doc: "morsel-driven pool, or the thread-per-partition baseline",
        set: |c, v| v.parse().ok().map(|s| c.scheduler = s),
    },
    Knob {
        flag: "--expr-engine",
        env: Some("LARDB_EXPR_ENGINE"),
        value: "compiled|interpret",
        doc: "vectorized bytecode, or the row-at-a-time baseline",
        set: |c, v| v.parse().ok().map(|e| c.expr_engine = e),
    },
    Knob {
        flag: "--batch-rows",
        env: Some("LARDB_BATCH_ROWS"),
        value: "N",
        doc: "rows per column batch in the compiled engine, at least 1",
        set: |c, v| at_least_one(v).map(|n| c.batch_rows = n),
    },
    Knob {
        flag: "--plan-cache-entries",
        env: Some("LARDB_PLAN_CACHE"),
        value: "N",
        doc: "plan-cache capacity per database; 0 disables caching",
        set: |c, v| v.parse().ok().map(|n| c.plan_cache_entries = n),
    },
    Knob {
        flag: "--sparse-dispatch",
        env: None,
        value: "dense|sparse|adaptive",
        doc: "kernel family for this database's multiplies",
        set: |c, v| DispatchMode::parse(v).map(|m| c.sparse_dispatch = Some(m)),
    },
    Knob {
        flag: "--net-timeout-ms",
        env: None,
        value: "MS",
        doc: "TCP connect/accept/handshake/read deadline",
        set: |c, v| v.parse().ok().map(|ms| c.net.timeout_ms = ms),
    },
    Knob {
        flag: "--max-frame-bytes",
        env: None,
        value: "N",
        doc: "reject wire frames above N bytes before allocating them",
        set: |c, v| v.parse().ok().map(|n| c.net.max_frame_bytes = n),
    },
    Knob {
        flag: "--mem-budget-mb",
        env: None,
        value: "N",
        doc: "dedicated N-MiB memory budget; 0 = unbounded",
        set: |c, v| v.parse().ok().map(|mb| c.mem = Some(mb)),
    },
    Knob {
        flag: "--spill-dir",
        env: None,
        value: "PATH",
        doc: "directory for spill files",
        set: |c, v| Some(PathBuf::from(v)).map(|p| c.spill_dir = Some(p)),
    },
    Knob {
        flag: "--trace-dir",
        env: None,
        value: "PATH",
        doc: "write each completed trace as Chrome trace JSON here",
        set: |c, v| Some(PathBuf::from(v)).map(|p| c.trace_dir = Some(p)),
    },
];

impl Knob {
    /// The knob whose flag is exactly `flag` (e.g. `--batch-rows`).
    pub fn find(flag: &str) -> Option<&'static Knob> {
        KNOBS.iter().find(|k| k.flag == flag)
    }

    /// The engine-flag lines of a `--help` text, one per knob.
    pub fn usage() -> String {
        KNOBS
            .iter()
            .map(|k| {
                let head = format!("{} {}", k.flag, k.value);
                let env = k.env.map(|e| format!(" (env {e})")).unwrap_or_default();
                format!("  {head:<40} {}{env}\n", k.doc)
            })
            .collect()
    }
}

impl DatabaseConfig {
    /// Sets one knob by its flag name, with or without the leading `--`
    /// (`set("batch-rows", "512")`). An unknown name or a bad value is an
    /// error, a one-line message naming the flag and what it expects; on
    /// error the config is unchanged.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let name = name.strip_prefix("--").unwrap_or(name);
        let knob = KNOBS
            .iter()
            .find(|k| k.flag.strip_prefix("--") == Some(name))
            .ok_or_else(|| format!("unknown setting '{name}'"))?;
        (knob.set)(self, value).ok_or_else(|| {
            format!("invalid {} '{value}': expected {} — {}", knob.flag, knob.value, knob.doc)
        })
    }

    /// Applies the env override of every knob that has one, looking each
    /// variable up through `var`. A value the knob rejects is ignored.
    fn with_env(mut self, var: impl Fn(&str) -> Option<String>) -> Self {
        for knob in KNOBS {
            if let Some(value) = knob.env.and_then(&var) {
                let _ = (knob.set)(&mut self, &value);
            }
        }
        self
    }

    /// The built-in defaults, before any env override.
    fn builtin() -> Self {
        DatabaseConfig {
            workers: 4,
            optimizer: OptimizerConfig::default(),
            transport: TransportMode::Pointer,
            slow_query_ms: None,
            pool_workers: None,
            morsel_rows: lardb_exec::DEFAULT_MORSEL_ROWS,
            scheduler: SchedulerMode::default(),
            sparse_dispatch: None,
            net: NetConfig::default(),
            mem: None,
            spill_dir: None,
            trace_dir: None,
            expr_engine: ExprEngine::default(),
            batch_rows: lardb_exec::DEFAULT_BATCH_ROWS,
            plan_cache_entries: DEFAULT_PLAN_CACHE_ENTRIES,
        }
    }
}

impl Default for DatabaseConfig {
    /// The built-in defaults with every knob's env override applied.
    fn default() -> Self {
        DatabaseConfig::builtin().with_env(|name| std::env::var(name).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every engine flag and env spelling the engine has ever accepted,
    /// with a valid value for each.
    const SPELLINGS: [(&str, &str); 15] = [
        ("--workers", "8"),
        ("--transport", "serialized"),
        ("--slow-ms", "2.5"),
        ("--pool-workers", "3"),
        ("--morsel-rows", "64"),
        ("--scheduler", "spawn"),
        ("--expr-engine", "interpret"),
        ("--batch-rows", "512"),
        ("--plan-cache-entries", "0"),
        ("--sparse-dispatch", "sparse"),
        ("--net-timeout-ms", "500"),
        ("--max-frame-bytes", "4096"),
        ("--mem-budget-mb", "64"),
        ("--spill-dir", "/tmp/spill"),
        ("--trace-dir", "/tmp/traces"),
    ];
    const ENVS: [(&str, &str); 3] = [
        ("LARDB_EXPR_ENGINE", "interpret"),
        ("LARDB_BATCH_ROWS", "16"),
        ("LARDB_PLAN_CACHE", "2"),
    ];

    fn env(name: &'static str, value: &str) -> DatabaseConfig {
        let value = value.to_string();
        DatabaseConfig::builtin().with_env(move |n| (n == name).then(|| value.clone()))
    }

    #[test]
    fn every_spelling_is_accepted() {
        assert_eq!(KNOBS.len(), SPELLINGS.len());
        for (flag, value) in SPELLINGS {
            assert!(Knob::find(flag).is_some(), "{flag} not in KNOBS");
            // The same knob by bare name.
            DatabaseConfig::builtin().set(&flag[2..], value).unwrap();
        }
        let mut c = DatabaseConfig::builtin();
        for (flag, value) in SPELLINGS {
            c.set(flag, value).unwrap();
        }
        assert_eq!(c.workers, 8);
        assert_eq!(c.transport, TransportMode::Serialized);
        assert_eq!(c.slow_query_ms, Some(2.5));
        assert_eq!(c.pool_workers, Some(3));
        assert_eq!(c.morsel_rows, 64);
        assert_eq!(c.scheduler, SchedulerMode::Spawn);
        assert_eq!(c.expr_engine, ExprEngine::Interpret);
        assert_eq!(c.batch_rows, 512);
        assert_eq!(c.plan_cache_entries, 0);
        assert_eq!(c.sparse_dispatch, Some(DispatchMode::Sparse));
        assert_eq!(c.net.timeout_ms, 500);
        assert_eq!(c.net.max_frame_bytes, 4096);
        assert_eq!(c.mem, Some(64));
        assert_eq!(c.spill_dir, Some(PathBuf::from("/tmp/spill")));
        assert_eq!(c.trace_dir, Some(PathBuf::from("/tmp/traces")));

        let envs: Vec<_> = KNOBS.iter().filter_map(|k| k.env).collect();
        assert_eq!(envs, ENVS.map(|(name, _)| name));
        assert_eq!(env("LARDB_EXPR_ENGINE", "interpret").expr_engine, ExprEngine::Interpret);
        assert_eq!(env("LARDB_BATCH_ROWS", "16").batch_rows, 16);
        assert_eq!(env("LARDB_PLAN_CACHE", "2").plan_cache_entries, 2);
    }

    #[test]
    fn workers_zero_is_rejected() {
        let mut c = DatabaseConfig::builtin();
        let err = c.set("workers", "0").unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        assert_eq!(c.workers, 4, "a rejected value leaves the config untouched");
        assert!(c.set("workers", "-1").is_err());
    }

    #[test]
    fn batch_rows_env_and_flag_agree() {
        for value in ["0", "many", "-4", "", "16"] {
            let from_env = env("LARDB_BATCH_ROWS", value);
            let mut from_flag = DatabaseConfig::builtin();
            let accepted = from_flag.set("--batch-rows", value).is_ok();
            assert_eq!(accepted, value == "16", "{value:?}");
            assert_eq!(from_env.batch_rows, from_flag.batch_rows, "{value:?}");
        }
        assert_eq!(env("LARDB_BATCH_ROWS", "0").batch_rows, lardb_exec::DEFAULT_BATCH_ROWS);
    }

    #[test]
    fn bad_values_and_names_are_errors() {
        let mut c = DatabaseConfig::builtin();
        for (flag, bad) in [
            ("--transport", "carrier-pigeon"),
            ("--scheduler", "fifo"),
            ("--expr-engine", "jit"),
            ("--sparse-dispatch", "maybe"),
            ("--morsel-rows", "ten"),
            ("--mem-budget-mb", "-1"),
        ] {
            let err = c.set(flag, bad).unwrap_err();
            assert!(err.contains(flag) && err.contains(bad), "{err}");
        }
        assert!(c.set("--no-such-knob", "1").is_err());
        // A malformed env value is ignored: the built-in default stands.
        assert_eq!(env("LARDB_EXPR_ENGINE", "jit").expr_engine, ExprEngine::default());
        assert_eq!(env("LARDB_PLAN_CACHE", "lots").plan_cache_entries, DEFAULT_PLAN_CACHE_ENTRIES);
    }

    #[test]
    fn every_knob_is_in_the_readme_table() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<&str> = readme.lines().filter(|l| l.starts_with("| `")).collect();
        for knob in KNOBS {
            for name in std::iter::once(knob.flag).chain(knob.env) {
                let cell = format!("`{name}");
                assert!(
                    rows.iter().any(|r| r.contains(&cell)),
                    "{name} is missing from README's knob table"
                );
            }
        }
        let usage = Knob::usage();
        assert_eq!(usage.lines().count(), KNOBS.len());
        assert!(KNOBS.iter().all(|k| usage.contains(k.flag)));
    }
}
