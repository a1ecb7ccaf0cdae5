//! The `Database` façade: the full query path in one object.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lardb_exec::{CancelToken, Cluster, ExecStats, Executor, MemoryConfig};
use lardb_pool::WorkerPool;
use lardb_obs::context::ContextGuard;
use lardb_obs::{ActiveTrace, DispatchMode, OperatorProfile, QueryContext, QueryProfile, Stage};
use lardb_planner::physical::PhysicalPlanner;
use lardb_planner::{LogicalPlan, Optimizer, OptimizerConfig, PlanEstimate};
use lardb_sql::ast::{SelectStatement, Statement, TableRef};
use lardb_sql::{parse_statement, Binder};
use lardb_storage::{
    Catalog, DataType, MatViewDef, Partitioning, Row, Schema, Table, Value,
};

use crate::config::DatabaseConfig;
use crate::error::{EngineError, Result};
use crate::plan_cache::{
    normalize, CacheStats, InvalidationReason, NormalizedStatement, PlanCache,
    StatementKind,
};
use crate::sessions::SessionRegistry;

/// The outcome of a gathered query.
#[derive(Debug)]
pub struct QueryResult {
    /// Output schema.
    pub schema: Schema,
    /// All result rows.
    pub rows: Vec<Row>,
    /// Per-operator execution statistics.
    pub stats: ExecStats,
}

impl QueryResult {
    /// First row, first column — convenient for scalar results.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().map(|r| r.value(0))
    }

    /// Renders the result as a simple table.
    pub fn display_table(&self) -> String {
        let mut out = String::new();
        let names: Vec<String> =
            self.schema.columns().iter().map(|c| c.name.clone()).collect();
        out.push_str(&names.join(" | "));
        out.push('\n');
        for r in &self.rows {
            let vals: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
            out.push_str(&vals.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// What a statement produced.
#[derive(Debug)]
pub enum Response {
    /// SELECT results.
    Rows(QueryResult),
    /// DDL completed (CREATE/DROP).
    Done,
    /// INSERT (or CREATE TABLE AS) row count.
    Inserted(usize),
    /// EXPLAIN output.
    Explained(String),
}

impl Response {
    /// Unwraps SELECT results.
    pub fn into_rows(self) -> Result<QueryResult> {
        match self {
            Response::Rows(q) => Ok(q),
            other => Err(EngineError::Usage(format!(
                "statement did not produce rows (got {other:?})"
            ))),
        }
    }
}

/// A parallel relational database with the paper's linear-algebra
/// extensions. Cloning shares the catalog (sessions over one store).
///
/// ```
/// use lardb::Database;
/// let db = Database::new(4);
/// db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
/// db.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)").unwrap();
/// let r = db.query("SELECT SUM(v) AS s FROM t").unwrap();
/// assert_eq!(r.scalar().unwrap().as_double(), Some(2.0));
/// ```
#[derive(Clone)]
pub struct Database {
    catalog: Arc<Catalog>,
    config: DatabaseConfig,
    /// The [`QueryProfile`] of the most recent statement that ran a plan
    /// (shared across clones, like the catalog).
    last_profile: Arc<Mutex<Option<QueryProfile>>>,
    /// True when the `metrics` catalog table was auto-materialized by the
    /// engine (and may therefore be refreshed/replaced); a user-created
    /// `metrics` table is never touched.
    metrics_table_auto: Arc<AtomicBool>,
    /// Same auto-materialization marker for the `queries` virtual table
    /// (the flight recorder's in-flight queries).
    queries_table_auto: Arc<AtomicBool>,
    /// Same marker for the `sessions` virtual table (the session
    /// registry, as rendered by `SHOW SESSIONS`).
    sessions_table_auto: Arc<AtomicBool>,
    /// The dedicated worker pool when [`DatabaseConfig::pool_workers`] is
    /// set — created once here and shared by every query's cluster (and
    /// by clones of this database). `None` ⇒ the process-wide pool.
    pool: Option<Arc<WorkerPool>>,
    /// Memory governor + spill directory every query's executor runs
    /// under, built once from [`DatabaseConfig::mem`] /
    /// [`DatabaseConfig::spill_dir`] so reservations and peak tracking
    /// are shared across queries (and clones) of this database.
    mem: MemoryConfig,
    /// Session/query bookkeeping shared across clones: `SHOW SESSIONS`
    /// renders it, `KILL <query-id>` cancels through it. The query server
    /// registers each connection here.
    sessions: Arc<SessionRegistry>,
    /// Label appended to this clone's slow-query log lines (e.g.
    /// `session 3 tenant acme`); per-clone, not shared.
    session_label: Option<String>,
    /// The normalized plan cache, shared across clones like the catalog
    /// (a schema change seen by one session must invalidate them all).
    plan_cache: Arc<PlanCache>,
}

impl Database {
    /// A database with `workers` simulated workers and default optimizer
    /// settings.
    pub fn new(workers: usize) -> Self {
        Database::with_config(DatabaseConfig {
            workers,
            ..DatabaseConfig::default()
        })
    }

    /// A database with explicit configuration.
    pub fn with_config(config: DatabaseConfig) -> Self {
        let pool = config.pool_workers.map(|n| Arc::new(WorkerPool::new(n)));
        let mem = match config.mem {
            None => match &config.spill_dir {
                None => MemoryConfig::shared(),
                Some(dir) => MemoryConfig::shared().with_spill_dir(dir.clone()),
            },
            Some(0) => MemoryConfig::with_budget(None, config.spill_dir.clone()),
            Some(mb) => {
                MemoryConfig::with_budget(Some(mb * 1024 * 1024), config.spill_dir.clone())
            }
        };
        let plan_cache = Arc::new(PlanCache::new(config.plan_cache_entries));
        Database {
            catalog: Arc::new(Catalog::new()),
            config,
            last_profile: Arc::new(Mutex::new(None)),
            metrics_table_auto: Arc::new(AtomicBool::new(false)),
            queries_table_auto: Arc::new(AtomicBool::new(false)),
            sessions_table_auto: Arc::new(AtomicBool::new(false)),
            pool,
            mem,
            sessions: Arc::new(SessionRegistry::new()),
            session_label: None,
            plan_cache,
        }
    }

    /// The cluster every query of this database executes on: the
    /// configured worker count, scheduler, morsel size, and (if
    /// dedicated) worker pool, under the statement's cancel token
    /// (KILL / disconnect wiring) and the query's context, so morsel
    /// workers dispatch kernels and attribute to the query.
    fn cluster(&self, cancel: &CancelToken, ctx: &Arc<QueryContext>) -> Cluster {
        let mut cluster = Cluster::new(self.config.workers)
            .with_scheduler(self.config.scheduler)
            .with_morsel_rows(self.config.morsel_rows)
            .with_cancel_token(cancel.clone())
            .with_context(Arc::clone(ctx));
        if let Some(pool) = &self.pool {
            cluster = cluster.with_pool(Arc::clone(pool));
        }
        cluster
    }

    /// The kernel-dispatch mode of this database's queries.
    fn dispatch_mode(&self) -> DispatchMode {
        self.config.sparse_dispatch.unwrap_or(DispatchMode::Adaptive)
    }

    /// Installs a fresh query context on this thread: `trace`, this
    /// database's dispatch mode and zeroed kernel counts.
    fn enter_context(&self, trace: Option<Arc<ActiveTrace>>) -> (Arc<QueryContext>, ContextGuard) {
        let ctx = QueryContext::new(trace, self.dispatch_mode());
        let guard = lardb_obs::context::enter(Some(Arc::clone(&ctx)));
        (ctx, guard)
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The session registry shared by every clone of this database (what
    /// `SHOW SESSIONS` renders and `KILL` cancels through).
    pub fn sessions(&self) -> &Arc<SessionRegistry> {
        &self.sessions
    }

    /// The memory configuration (governor + spill directory) this
    /// database's queries execute under.
    pub fn memory(&self) -> &MemoryConfig {
        &self.mem
    }

    /// Replaces the memory configuration (builder style). The query server
    /// uses this to give a clone a *tenant* governor: a sub-budget of the
    /// shared governor, so one tenant's reservations are capped without
    /// losing process-wide accounting. Catalog, pool, profile slot and
    /// session registry stay shared with the original.
    pub fn with_memory_config(mut self, mem: MemoryConfig) -> Self {
        self.mem = mem;
        self
    }

    /// Tags this clone's slow-query log lines with a session label
    /// (builder style), e.g. `session 3 tenant acme`.
    pub fn with_session_label(mut self, label: impl Into<String>) -> Self {
        self.session_label = Some(label.into());
        self
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Mutates the optimizer configuration (ablation benchmarks flip
    /// [`OptimizerConfig::size_inference`] here). Counts a config
    /// invalidation on the plan cache; the knobs are also part of every
    /// cache key (the fingerprint), so even clones sharing the cache but
    /// not this config change can never see a mismatched plan.
    pub fn set_optimizer_config(&mut self, cfg: OptimizerConfig) {
        if cfg != self.config.optimizer {
            self.plan_cache.bump(InvalidationReason::Config);
        }
        self.config.optimizer = cfg;
    }

    /// Fingerprint of the configuration an optimized plan depends on —
    /// the whole [`OptimizerConfig`], so no optimizer knob can be left out
    /// of the plan-cache key and clones with diverged optimizer settings
    /// never share entries.
    fn config_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.config.optimizer.hash(&mut h);
        h.finish()
    }

    /// The shared plan cache (version bumps, stats).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Point-in-time counters of this database's plan cache. Unlike the
    /// process-global `cache.*` metrics, these are per-cache, so tests
    /// running concurrently don't see each other's traffic.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// The [`QueryProfile`] of the most recent statement that ran a plan
    /// (SELECT, EXPLAIN ANALYZE, or CREATE TABLE AS), or `None` if no
    /// plan has run yet. The profile carries all five lifecycle stage
    /// timings plus per-operator estimate-vs-actual records.
    pub fn last_profile(&self) -> Option<QueryProfile> {
        self.last_profile.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Executes one SQL statement.
    ///
    /// ```
    /// # use lardb::{Database, Response};
    /// # let db = Database::new(2);
    /// assert!(matches!(
    ///     db.execute("CREATE TABLE m (mat MATRIX[3][3], vec VECTOR[3])").unwrap(),
    ///     Response::Done
    /// ));
    /// // §3.1: a dimension mismatch is caught before execution.
    /// db.execute("CREATE TABLE bad (mat MATRIX[3][3], vec VECTOR[7])").unwrap();
    /// assert!(db.query("SELECT matrix_vector_multiply(mat, vec) AS x FROM bad").is_err());
    /// ```
    pub fn execute(&self, sql: &str) -> Result<Response> {
        let trace = lardb_obs::recorder().start(sql, "embedded");
        self.execute_with(Stmt::Sql(sql), &CancelToken::new(), trace.as_ref())
    }

    /// Executes a prepared statement. The stored parse tree is reused and
    /// the precomputed shape key routes SELECTs through the plan cache —
    /// repeat executions skip parse, bind *and* optimize.
    pub fn execute_prepared(&self, prepared: &PreparedStatement) -> Result<Response> {
        let trace = lardb_obs::recorder().start(&prepared.sql, "embedded");
        self.execute_with(Stmt::Prepared(prepared), &CancelToken::new(), trace.as_ref())
    }

    /// Executes SQL text or a prepared statement under an externally-owned
    /// cancel token and the caller's flight-recorder trace decision.
    ///
    /// Flipping `cancel` (from any thread) aborts the statement at the
    /// next morsel/row-batch boundary with `ExecError::Cancelled`; a token
    /// already cancelled when execution starts aborts immediately. With
    /// `Some(trace)` the statement runs under that trace, which is
    /// finished when the statement completes; with `None` it runs
    /// untraced. This never mints a trace: the query server mints (or,
    /// when sampling skips the query, does not mint) one before admission,
    /// under the session's tenant, so queue wait is on the trace.
    pub fn execute_with(
        &self,
        stmt: Stmt<'_>,
        cancel: &CancelToken,
        trace: Option<&Arc<ActiveTrace>>,
    ) -> Result<Response> {
        let t0 = Instant::now();
        let mut profile = QueryProfile::new(stmt.sql());
        if let Some(t) = trace {
            t.set_running();
        }
        let result = {
            let _cur = self.enter_context(trace.cloned());
            self.run_statement(stmt, cancel, &mut profile)
        };
        if let Some(t) = trace {
            if let Ok(Response::Rows(q)) = &result {
                t.add_rows(q.rows.len() as u64);
            }
            let err = result.as_ref().err().map(|e| e.to_string());
            let done = lardb_obs::recorder().finish(t, err.as_deref());
            self.write_trace_file(&done);
        }
        let trace_ids = trace.map(|t| (t.id(), t.query_id()));
        self.finish_statement(t0, result.is_err(), profile, trace_ids);
        result
    }

    /// Parses and validates a statement once, precomputing its plan-cache
    /// shape. Executing the returned handle skips re-parsing; cacheable
    /// SELECT shapes are planned into the cache right here (best-effort),
    /// so the first [`Database::execute_prepared`] is already a cache hit.
    /// Planning errors are swallowed and surface at execute time,
    /// preserving the prepare-then-create-table workflow.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        let statement = parse_statement(sql)?;
        let norm = if self.plan_cache.enabled() { normalize(sql) } else { None };
        if let (Some(norm), Statement::Select(sel)) = (&norm, &statement) {
            let slot = CacheSlot { norm, version: self.plan_cache.version() };
            let _ = self.plan(sel, Some(slot), &mut QueryProfile::default());
        }
        Ok(PreparedStatement { sql: sql.into(), statement, norm })
    }

    /// Best-effort export of one completed trace as Chrome trace-event
    /// JSON under [`DatabaseConfig::trace_dir`]. I/O failures are
    /// swallowed: tracing must never fail a query.
    fn write_trace_file(&self, done: &lardb_obs::CompletedTrace) {
        let Some(dir) = &self.config.trace_dir else { return };
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(
            dir.join(format!("trace-{}.json", done.id)),
            done.to_chrome_json(),
        );
    }

    /// Bookkeeping for one finished statement: process-wide counters, the
    /// per-query latency histogram, the slow-query log, and publishing the
    /// statement's [`QueryProfile`]. Slow-query log lines carry the
    /// statement's trace and query ids when it ran traced, so a log line
    /// correlates directly with flight-recorder output.
    fn finish_statement(
        &self,
        t0: Instant,
        errored: bool,
        profile: QueryProfile,
        trace_ids: Option<(lardb_obs::TraceId, u64)>,
    ) {
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let registry = lardb_obs::global();
        registry.counter("db.queries").inc();
        registry.histogram("db.query_ms").observe(ms as u64);
        if errored {
            registry.counter("db.errors").inc();
        }
        if let Some(threshold) = self.config.slow_query_ms {
            if ms >= threshold {
                registry.counter("db.slow_queries").inc();
                let ids = match trace_ids {
                    Some((tid, 0)) => format!(" trace {tid}"),
                    Some((tid, qid)) => format!(" trace {tid} query {qid}"),
                    None => String::new(),
                };
                let sql = &profile.query;
                match &self.session_label {
                    Some(label) => eprintln!(
                        "[lardb] slow query ({ms:.1} ms ≥ {threshold:.1} ms) \
                         [{label}]{ids}: {sql}"
                    ),
                    None => eprintln!(
                        "[lardb] slow query ({ms:.1} ms ≥ {threshold:.1} ms){ids}: {sql}"
                    ),
                }
            }
        }
        *self.last_profile.lock().unwrap_or_else(|e| e.into_inner()) = Some(profile);
    }

    /// Statement dispatch. Every statement that runs a query plans it
    /// through [`Database::plan`] and executes it through
    /// [`Database::run`]; the arms differ only in their statement-specific
    /// tail. Stage timings and per-operator records go into `profile`.
    fn run_statement(
        &self,
        stmt: Stmt<'_>,
        cancel: &CancelToken,
        profile: &mut QueryProfile,
    ) -> Result<Response> {
        let normalized;
        let norm = match stmt {
            Stmt::Prepared(p) => p.norm.as_ref(),
            Stmt::Sql(sql) => {
                normalized = if self.plan_cache.enabled() { normalize(sql) } else { None };
                normalized.as_ref()
            }
        };
        // The catalog version is captured once, before any bind: lookups
        // read under it and inserts are keyed (and validity-checked)
        // against it, so a plan is only ever cached under the catalog
        // version it was bound at.
        let slot = norm.map(|norm| CacheSlot { norm, version: self.plan_cache.version() });
        // Fast path: a bare SELECT whose shape, literals, catalog version
        // and config fingerprint are all cached skips parse, bind and
        // optimize entirely — their lifecycle stages stay at the
        // profile's pre-seeded zero, which is how the repeat-query bench
        // verifies the elision. Cached shapes never reference virtual
        // tables (gated at insert), so skipping their refresh is sound.
        if let Some(s) = slot.filter(|s| s.norm.kind == StatementKind::Select) {
            if let Some(plan) = self.plan_cache.lookup(s.norm, self.config_fingerprint(), s.version)
            {
                return Ok(Response::Rows(self.run(&plan, true, cancel, profile)?));
            }
        }
        let statement = match stmt {
            Stmt::Prepared(p) => p.statement.clone(),
            Stmt::Sql(sql) => profile.time(Stage::Parse, || parse_statement(sql))?,
        };
        match statement {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(n, t)| lardb_storage::Column::new(n, t))
                        .collect(),
                );
                self.create_table(&name, schema, Partitioning::RoundRobin)?;
                Ok(Response::Done)
            }
            Statement::CreateTableAs { name, query } => {
                let (plan, _) = self.plan(&query, None, profile)?;
                let result = self.run(&plan, false, cancel, profile)?;
                let n = self.create_table_from(&name, result.schema, result.rows)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Inserted(n))
            }
            Statement::CreateView { name, columns, query, sql } => {
                // Plan now so errors surface at CREATE VIEW time.
                let (plan, _) = self.plan(&query, None, profile)?;
                if let Some(cols) = &columns {
                    if plan.schema().arity() != cols.len() {
                        return Err(EngineError::Usage(format!(
                            "view column list has {} names but query yields {}",
                            cols.len(),
                            plan.schema().arity()
                        )));
                    }
                }
                self.catalog.create_view(&name, sql, columns)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Done)
            }
            Statement::CreateMaterializedView { name, query, sql } => {
                let (plan, _) = self.plan(&query, None, profile)?;
                // Lineage from the planned query: views are expanded, so
                // these are the base tables whose INSERTs must maintain
                // the view. Lineage through another materialized view is
                // rejected outright: maintenance writes to backing tables
                // directly (not through INSERT dispatch), so a view over
                // a view's backing table would silently go stale.
                let base_tables = crate::matview::scan_tables(&plan);
                if let Some(mv) = base_tables.iter().find(|t| self.catalog.has_matview(t))
                {
                    return Err(EngineError::Usage(format!(
                        "cannot create materialized view {name} over materialized \
                         view {mv}: maintenance does not cascade through \
                         materialized views"
                    )));
                }
                let result = self.run(&plan, false, cancel, profile)?;
                let n = self.create_table_from(&name, result.schema, result.rows)?;
                if let Err(e) =
                    self.catalog.create_matview(&name, MatViewDef { sql, base_tables })
                {
                    let _ = self.catalog.drop_table(&name);
                    return Err(e.into());
                }
                self.plan_cache.bump(InvalidationReason::Ddl);
                lardb_obs::global().counter("mv.created").inc();
                Ok(Response::Inserted(n))
            }
            Statement::DropMaterializedView { name } => {
                if !self.catalog.has_matview(&name) {
                    return Err(EngineError::Usage(format!(
                        "no such materialized view: {name}"
                    )));
                }
                // Mirror the DropTable guard: CREATE rejects lineage
                // through materialized views, but a registry that names
                // one anyway (however it got there) must not lose its
                // base out from under it.
                let dependents = self.catalog.matviews_on(&name);
                if !dependents.is_empty() {
                    return Err(EngineError::Usage(format!(
                        "materialized view {name} has dependent materialized \
                         views: {}",
                        dependents.join(", ")
                    )));
                }
                self.catalog.drop_matview(&name)?;
                self.catalog.drop_table(&name)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Done)
            }
            Statement::RefreshMaterializedView { name } => {
                // recompute_matview bumps the view's stats version.
                let n = self.recompute_matview(&name)?;
                Ok(Response::Inserted(n))
            }
            Statement::DropTable { name } => {
                if self.catalog.has_matview(&name) {
                    return Err(EngineError::Usage(format!(
                        "{name} is a materialized view; use DROP MATERIALIZED VIEW"
                    )));
                }
                let dependents = self.catalog.matviews_on(&name);
                if !dependents.is_empty() {
                    return Err(EngineError::Usage(format!(
                        "table {name} has dependent materialized views: {}",
                        dependents.join(", ")
                    )));
                }
                self.catalog.drop_table(&name)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Done)
            }
            Statement::DropView { name } => {
                self.catalog.drop_view(&name)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Done)
            }
            Statement::Insert { table, rows } => {
                let binder = Binder::new(&self.catalog);
                let empty = Schema::default();
                let empty_row = Row::default();
                let mut materialized = Vec::with_capacity(rows.len());
                for r in rows {
                    let mut vals = Vec::with_capacity(r.len());
                    for e in &r {
                        let bound = binder.bind_expr(e, &empty)?;
                        vals.push(lardb_exec::eval::eval(&bound, &empty_row)?);
                    }
                    materialized.push(Row::new(vals));
                }
                Ok(Response::Inserted(self.insert_rows(&table, materialized)?))
            }
            Statement::Select(sel) => {
                self.refresh_virtual_tables(&sel)?;
                let (plan, cache) = self.plan(&sel, slot, profile)?;
                if cache == "off" && self.plan_cache.enabled() {
                    self.plan_cache.note_uncacheable();
                }
                Ok(Response::Rows(self.run(&plan, true, cancel, profile)?))
            }
            Statement::Explain { query, analyze, trace } => {
                self.refresh_virtual_tables(&query)?;
                if trace {
                    // EXPLAIN TRACE: run the query under a *forced* trace
                    // (sampling does not apply) and return its Chrome
                    // trace-event JSON instead of the plan text. The
                    // statement was parsed before the trace existed, so
                    // its measured parse lands at the trace's origin; plan
                    // onward runs live under the forced trace, uncached.
                    let parse_ms = profile.stage_ms(Stage::Parse.name()).unwrap_or(0.0);
                    let minted = Instant::now();
                    let forced = lardb_obs::recorder().start_forced(stmt.sql(), "explain");
                    forced.set_running();
                    let parse = std::time::Duration::from_secs_f64(parse_ms / 1e3);
                    forced.record("parse", "query", minted, parse, Vec::new());
                    let run = {
                        let _cur = self.enter_context(Some(Arc::clone(&forced)));
                        self.plan(&query, None, profile)
                            .and_then(|(plan, _)| self.run(&plan, true, cancel, profile))
                    };
                    let err = run.as_ref().err().map(|e| e.to_string());
                    if let Ok(result) = &run {
                        forced.add_rows(result.rows.len() as u64);
                    }
                    let done = lardb_obs::recorder().finish(&forced, err.as_deref());
                    self.write_trace_file(&done);
                    run?;
                    return Ok(Response::Explained(done.to_chrome_json()));
                }
                // EXPLAIN shares the wrapped SELECT's cache shape (the
                // prefix is stripped during normalization): a hit reuses
                // the cached optimized plan and says so; a miss seeds the
                // cache for the bare statement.
                let (plan, cache) = self.plan(&query, slot, profile)?;
                let mut text = self.explain_optimized(&plan)?;
                if !text.ends_with('\n') {
                    text.push('\n');
                }
                text.push_str(&format!("plan cache: {cache}\n"));
                if analyze {
                    let result = self.run(&plan, true, cancel, profile)?;
                    text.push_str(&format!(
                        "== Execution Statistics ==\n{}\
                         total: {} rows shuffled, {} bytes shuffled, \
                         {} frames, blocked {:.3} ms\n",
                        result.stats.display_table(),
                        result.stats.total_rows_shuffled(),
                        result.stats.total_bytes_shuffled(),
                        result.stats.total_frames(),
                        result.stats.total_enqueue_block().as_secs_f64() * 1e3,
                    ));
                    if result.stats.total_batches() > 0
                        || result.stats.total_fallbacks() > 0
                    {
                        text.push_str(&format!(
                            "vectorized: {} batches, {} rows, {} kernel \
                             dispatches, {} interpreter fallbacks\n",
                            result.stats.total_batches(),
                            result.stats.total_batch_rows(),
                            result.stats.total_kernels(),
                            result.stats.total_fallbacks(),
                        ));
                    }
                    let d = result.stats.dispatch;
                    if d.any() {
                        text.push_str(&format!(
                            "la dispatch ({}): {} dense, {} skip-zero, \
                             {} spmv, {} sp×dense, {} spgemm, {} sp-syrk, \
                             {} densified\n",
                            self.dispatch_mode().name(),
                            d.dense,
                            d.skipzero,
                            d.spmv,
                            d.sp_dense,
                            d.spgemm,
                            d.sp_syrk,
                            d.densified,
                        ));
                    }
                    text.push_str(&render_estimate_table(&profile.operators));
                }
                Ok(Response::Explained(text))
            }
            Statement::ShowMetrics => Ok(Response::Rows(metrics_snapshot_result())),
            Statement::ShowSessions => {
                Ok(Response::Rows(sessions_snapshot_result(&self.sessions)))
            }
            Statement::ShowQueries => Ok(Response::Rows(queries_snapshot_result())),
            Statement::Kill { query_id } => {
                if self.sessions.kill(query_id) {
                    Ok(Response::Done)
                } else {
                    Err(EngineError::Usage(format!(
                        "no running query with id {query_id} (see SHOW SESSIONS)"
                    )))
                }
            }
        }
    }

    /// Executes a SELECT and returns its rows.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)?.into_rows()
    }

    /// EXPLAIN: optimized logical plan plus the physical plan with
    /// exchanges.
    pub fn explain(&self, sql: &str) -> Result<String> {
        match parse_statement(sql)? {
            Statement::Select(sel) | Statement::Explain { query: sel, .. } => {
                let (plan, _) = self.plan(&sel, None, &mut QueryProfile::default())?;
                self.explain_optimized(&plan)
            }
            _ => Err(EngineError::Usage("EXPLAIN expects a SELECT".into())),
        }
    }

    /// Renders the EXPLAIN text for an already-optimized plan.
    fn explain_optimized(&self, optimized: &LogicalPlan) -> Result<String> {
        let mut pp = PhysicalPlanner::new(&self.catalog, self.catalog.as_ref());
        let physical = pp.plan_gathered(optimized)?;
        Ok(format!(
            "== Optimized Logical Plan ==\n{}\n== Physical Plan ==\n{}",
            optimized.display_tree(),
            physical.display_tree()
        ))
    }

    /// The one planning path every statement takes: bind → plan-cache
    /// lookup → optimize → plan-cache insert, with the bind and optimize
    /// stages timed into `profile`. `slot` is the statement's place in the
    /// plan cache; `None` (and any query over a virtual table) plans
    /// uncached. A bare SELECT probes the cache before it is even parsed
    /// (the fast path in [`Database::run_statement`]), so here only an
    /// EXPLAIN looks up, after binding; both insert what they optimize.
    /// Also returns the cache outcome EXPLAIN reports: `hit`, `miss` or
    /// `off`.
    pub(crate) fn plan(
        &self,
        sel: &SelectStatement,
        slot: Option<CacheSlot<'_>>,
        profile: &mut QueryProfile,
    ) -> Result<(Arc<LogicalPlan>, &'static str)> {
        // Virtual tables re-snapshot live state on every reference, so
        // plans over them are never cached.
        let slot = slot.filter(|_| !references_virtual(sel));
        let bound = profile.time(Stage::Bind, || Binder::new(&self.catalog).bind_select(sel))?;
        if let Some(s) = slot.filter(|s| s.norm.kind == StatementKind::Explain) {
            if let Some(plan) = self.plan_cache.lookup(s.norm, self.config_fingerprint(), s.version)
            {
                return Ok((plan, "hit"));
            }
        }
        let optimizer = Optimizer::new(self.catalog.as_ref(), self.config.optimizer.clone());
        let plan = Arc::new(profile.time(Stage::Optimize, || optimizer.optimize(bound))?);
        let Some(s) = slot else { return Ok((plan, "off")) };
        self.plan_cache.insert(
            s.norm,
            self.config_fingerprint(),
            s.version,
            &crate::matview::scan_tables(&plan),
            Arc::clone(&plan),
        );
        Ok((plan, "miss"))
    }

    /// The one execution back half: physical planning and execution of an
    /// optimized plan, timed as the plan and execute stages of `profile`,
    /// which also receives one estimate-vs-actual record per operator.
    /// Plan-cache hits enter here directly, which is exactly what makes
    /// the parse/bind/optimize stages disappear from their profiles.
    ///
    /// Actual bytes are the metered shuffle bytes for exchanges; other
    /// operators don't move data across workers, so their "actual" bytes
    /// are derived as measured rows × the cost model's row width.
    pub(crate) fn run(
        &self,
        plan: &LogicalPlan,
        gather: bool,
        cancel: &CancelToken,
        profile: &mut QueryProfile,
    ) -> Result<QueryResult> {
        // A fresh context (same trace) per execution, so the kernel counts
        // are exactly this plan's.
        let (ctx, _cur) = self.enter_context(lardb_obs::trace::current());
        let (physical, estimates) = profile.time(Stage::Plan, || -> Result<_> {
            let mut pp = PhysicalPlanner::new(&self.catalog, self.catalog.as_ref());
            let physical = if gather { pp.plan_gathered(plan)? } else { pp.plan(plan)? };
            let estimates = pp.estimates(&physical);
            Ok((physical, estimates))
        })?;
        let mut result = profile.time(Stage::Execute, || {
            Executor::new(&self.catalog, self.cluster(cancel, &ctx))
                .with_transport(self.config.transport)
                .with_net_config(self.config.net.clone())
                .with_memory(self.mem.clone())
                .with_expr_engine(self.config.expr_engine)
                .with_batch_rows(self.config.batch_rows)
                .execute(&physical)
        })?;
        // The query's own kernel-dispatch counts, also bridged to the
        // global `la.dispatch.*` metrics SHOW METRICS exposes.
        let d = ctx.counts();
        result.stats.dispatch = d;
        if d.any() {
            let m = lardb_obs::global();
            m.counter("la.dispatch.dense").add(d.dense);
            m.counter("la.dispatch.skipzero").add(d.skipzero);
            m.counter("la.dispatch.spmv").add(d.spmv);
            m.counter("la.dispatch.sp_dense").add(d.sp_dense);
            m.counter("la.dispatch.spgemm").add(d.spgemm);
            m.counter("la.dispatch.sp_syrk").add(d.sp_syrk);
            m.counter("la.dispatch.densified").add(d.densified);
        }
        profile.operators.extend(join_estimates(&estimates, &result.stats));
        let schema = result.schema.clone();
        let stats = std::mem::take(&mut result.stats);
        Ok(QueryResult { schema, rows: result.into_rows(), stats })
    }

    /// Creates catalog table `name` holding `rows` (round-robin
    /// placement); returns the row count.
    fn create_table_from(&self, name: &str, schema: Schema, rows: Vec<Row>) -> Result<usize> {
        let mut table = Table::new(name, schema, self.config.workers, Partitioning::RoundRobin);
        let n = rows.len();
        table.insert_all(rows)?;
        self.catalog.create_table(table)?;
        Ok(n)
    }

    /// Re-materializes the introspection virtual tables (`metrics`,
    /// `queries`, `sessions`) when `sel` references them (directly or in
    /// a subquery), so live engine state can be filtered, joined and
    /// aggregated with ordinary SQL. A user-created table with one of
    /// these names is never touched.
    fn refresh_virtual_tables(&self, sel: &SelectStatement) -> Result<()> {
        if references_table(sel, "metrics") {
            self.refresh_virtual("metrics", &self.metrics_table_auto, || {
                (metrics_schema(), metric_rows())
            })?;
        }
        if references_table(sel, "queries") {
            self.refresh_virtual("queries", &self.queries_table_auto, || {
                (queries_schema(), queries_rows())
            })?;
        }
        if references_table(sel, "sessions") {
            self.refresh_virtual("sessions", &self.sessions_table_auto, || {
                (sessions_schema(), sessions_rows(&self.sessions))
            })?;
        }
        Ok(())
    }

    /// Drops and re-creates one auto-materialized virtual table from a
    /// fresh snapshot. The `auto` flag distinguishes engine-created
    /// tables (refreshable) from a user's table of the same name (never
    /// clobbered).
    fn refresh_virtual(
        &self,
        name: &str,
        auto: &AtomicBool,
        snapshot: impl FnOnce() -> (Schema, Vec<Row>),
    ) -> Result<()> {
        if self.catalog.has_table(name) {
            if !auto.load(Ordering::Acquire) {
                return Ok(()); // the user's own table; never clobber it
            }
            self.catalog.drop_table(name)?;
        }
        let (schema, rows) = snapshot();
        self.create_table_from(name, schema, rows)?;
        auto.store(true, Ordering::Release);
        Ok(())
    }

    /// Programmatic table creation with an explicit partitioning scheme
    /// (SQL `CREATE TABLE` defaults to round-robin; benchmark loaders use
    /// hash/replicated placement like the paper's §5 setups).
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        partitioning: Partitioning,
    ) -> Result<()> {
        let table = Table::new(name, schema, self.config.workers, partitioning);
        self.catalog.create_table(table)?;
        self.plan_cache.bump(InvalidationReason::Ddl);
        Ok(())
    }

    /// Bulk load: SQL `INSERT` lands here with its evaluated rows, and
    /// generators call it directly (vectors and matrices cannot be written
    /// as SQL literals). Maintains materialized views over the table and
    /// invalidates the plan cache's stats version for it.
    pub fn insert_rows(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<usize> {
        let materialized: Vec<Row> = rows.into_iter().collect();
        let n = materialized.len();
        let handle = self.catalog.table(table)?;
        // Clone the delta only when some materialized view's lineage
        // includes this table.
        if self.catalog.matviews_on(table).is_empty() {
            handle.write().insert_all(materialized)?;
        } else {
            let delta = materialized.clone();
            handle.write().insert_all(materialized)?;
            self.maintain_matviews_on(table, &delta)?;
        }
        // Per-table: only cached plans reading this table (or a
        // maintained view, bumped during maintenance) go stale.
        self.plan_cache.bump_stats(table);
        Ok(n)
    }
}

/// A statement prepared once via [`Database::prepare`]: the parse tree
/// and plan-cache shape key are stored, so executing it never re-parses
/// and SELECT shapes go straight to the plan cache.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    sql: Arc<str>,
    statement: Statement,
    norm: Option<NormalizedStatement>,
}

impl PreparedStatement {
    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }
}

/// A statement for [`Database::execute_with`]: SQL text, or a statement
/// prepared by [`Database::prepare`].
#[derive(Debug, Clone, Copy)]
pub enum Stmt<'a> {
    /// SQL text, parsed when executed.
    Sql(&'a str),
    /// A prepared statement: its parse tree and cache shape are reused.
    Prepared(&'a PreparedStatement),
}

impl<'a> Stmt<'a> {
    fn sql(self) -> &'a str {
        match self {
            Stmt::Sql(sql) => sql,
            Stmt::Prepared(p) => &p.sql,
        }
    }
}

/// A statement's place in the plan cache: its normalized shape and the
/// catalog version captured before it was bound.
#[derive(Clone, Copy)]
pub(crate) struct CacheSlot<'a> {
    norm: &'a NormalizedStatement,
    version: u64,
}

/// True when the SELECT references any auto-materialized introspection
/// table. Their contents change between executions (each reference
/// re-snapshots live engine state from the AST), so plans over them must
/// never be served from the cache.
fn references_virtual(sel: &SelectStatement) -> bool {
    ["metrics", "queries", "sessions"]
        .iter()
        .any(|t| references_table(sel, t))
}

/// True when the SELECT references `name` in any FROM clause, including
/// nested subqueries.
fn references_table(sel: &SelectStatement, name: &str) -> bool {
    sel.from.iter().any(|r| match r {
        TableRef::Table { name: t, .. } => t.eq_ignore_ascii_case(name),
        TableRef::Subquery { query, .. } => references_table(query, name),
    })
}

/// Schema of the `metrics` relation: one row per metric, name-sorted.
/// Counters and gauges fill `value`; histograms fill the distribution
/// columns (`count`, `sum`, `p50`, `p90`, `p99`) and leave `value` NULL.
/// `value` stays at column index 2 for backward compatibility.
fn metrics_schema() -> Schema {
    Schema::from_pairs(&[
        ("name", DataType::Varchar),
        ("kind", DataType::Varchar),
        ("value", DataType::Double),
        ("count", DataType::Double),
        ("sum", DataType::Double),
        ("p50", DataType::Double),
        ("p90", DataType::Double),
        ("p99", DataType::Double),
    ])
}

/// The process-wide metrics snapshot, one row per metric (see
/// [`metrics_schema`]).
fn metric_rows() -> Vec<Row> {
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Double);
    lardb_obs::global()
        .table_snapshot()
        .into_iter()
        .map(|s| {
            Row::new(vec![
                Value::Varchar(s.name.as_str().into()),
                Value::Varchar(s.kind.label().into()),
                opt(s.value),
                opt(s.count),
                opt(s.sum),
                opt(s.p50),
                opt(s.p90),
                opt(s.p99),
            ])
        })
        .collect()
}

/// Schema of the `sessions` relation (`SHOW SESSIONS`).
fn sessions_schema() -> Schema {
    Schema::from_pairs(&[
        ("session_id", DataType::Integer),
        ("tenant", DataType::Varchar),
        ("peer", DataType::Varchar),
        ("state", DataType::Varchar),
        ("query_id", DataType::Integer),
        ("sql", DataType::Varchar),
        ("elapsed_ms", DataType::Double),
    ])
}

/// One row per open session — idle sessions carry NULL query columns.
fn sessions_rows(sessions: &SessionRegistry) -> Vec<Row> {
    sessions
        .snapshot()
        .into_iter()
        .map(|s| {
            Row::new(vec![
                Value::Integer(s.session_id as i64),
                Value::Varchar(s.tenant.as_str().into()),
                Value::Varchar(s.peer.as_str().into()),
                Value::Varchar(s.state.into()),
                s.query_id.map_or(Value::Null, |q| Value::Integer(q as i64)),
                s.sql.map_or(Value::Null, |q| Value::Varchar(q.as_str().into())),
                Value::Double(s.elapsed_ms),
            ])
        })
        .collect()
}

/// Builds the `SHOW SESSIONS` response relation.
fn sessions_snapshot_result(sessions: &SessionRegistry) -> QueryResult {
    QueryResult {
        schema: sessions_schema(),
        rows: sessions_rows(sessions),
        stats: ExecStats::new(),
    }
}

/// Builds the `SHOW METRICS` response relation.
fn metrics_snapshot_result() -> QueryResult {
    QueryResult {
        schema: metrics_schema(),
        rows: metric_rows(),
        stats: ExecStats::new(),
    }
}

/// Schema of the `queries` relation (`SHOW QUERIES`): one row per
/// in-flight traced query, straight from the flight recorder.
fn queries_schema() -> Schema {
    Schema::from_pairs(&[
        ("query_id", DataType::Integer),
        ("trace_id", DataType::Varchar),
        ("tenant", DataType::Varchar),
        ("state", DataType::Varchar),
        ("sql", DataType::Varchar),
        ("elapsed_ms", DataType::Double),
        ("queue_wait_ms", DataType::Double),
        ("rows", DataType::Integer),
        ("reserved_bytes", DataType::Integer),
        ("spill_bytes", DataType::Integer),
    ])
}

/// One row per in-flight traced query, in trace-id order.
fn queries_rows() -> Vec<Row> {
    lardb_obs::recorder()
        .active_snapshot()
        .into_iter()
        .map(|t| {
            Row::new(vec![
                match t.query_id() {
                    0 => Value::Null,
                    q => Value::Integer(q as i64),
                },
                Value::Varchar(t.id().to_string().into()),
                Value::Varchar(t.tenant().as_str().into()),
                Value::Varchar(t.state().name().into()),
                Value::Varchar(t.sql().into()),
                Value::Double(t.elapsed_ms()),
                Value::Double(t.queue_wait_ms()),
                Value::Integer(t.rows() as i64),
                Value::Integer(t.reserved_bytes()),
                Value::Integer(t.spill_bytes() as i64),
            ])
        })
        .collect()
}

/// Builds the `SHOW QUERIES` response relation.
fn queries_snapshot_result() -> QueryResult {
    QueryResult {
        schema: queries_schema(),
        rows: queries_rows(),
        stats: ExecStats::new(),
    }
}

/// Joins the planner's per-operator estimates against the executor's
/// measured actuals, producing one [`OperatorProfile`] per operator in
/// completion order. Exchange operators report metered shuffle bytes;
/// for all other operators the "actual" bytes are derived (measured rows
/// × the cost model's row width), since nothing was shipped.
fn join_estimates(
    estimates: &HashMap<usize, PlanEstimate>,
    stats: &ExecStats,
) -> Vec<OperatorProfile> {
    stats
        .operators()
        .iter()
        .map(|op| {
            let est = estimates
                .get(&op.id)
                .copied()
                .unwrap_or(PlanEstimate::new(0.0, 0.0));
            let actual_bytes = if op.label.starts_with("Exchange") {
                op.shuffle.bytes as f64
            } else {
                op.rows_out as f64 * est.row_bytes
            };
            OperatorProfile {
                id: op.id,
                label: op.label.clone(),
                est_rows: est.rows,
                actual_rows: op.rows_out as f64,
                est_bytes: est.total_bytes(),
                actual_bytes,
                wall_ms: op.wall.as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Renders the EXPLAIN ANALYZE estimate-vs-actual section: est/actual
/// rows and megabytes plus the per-operator q-error of each.
fn render_estimate_table(operators: &[OperatorProfile]) -> String {
    let label_w = operators.iter().map(|o| o.label.len()).max().unwrap_or(0).max(24);
    let mut out = format!(
        "== Estimate vs Actual ==\n{:<5} {:<label_w$} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}\n",
        "id", "operator", "est_rows", "act_rows", "q_rows", "est_MB", "act_MB", "q_MB",
    );
    for o in operators {
        out.push_str(&format!(
            "{:<5} {:<label_w$} {:>12.0} {:>12.0} {:>8.2} {:>10.3} {:>10.3} {:>8.2}\n",
            o.id,
            o.label,
            o.est_rows,
            o.actual_rows,
            o.q_error_rows(),
            o.est_bytes / 1e6,
            o.actual_bytes / 1e6,
            o.q_error_bytes(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_la::Vector;
    use lardb_storage::DataType;

    #[test]
    fn ddl_insert_query_roundtrip() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)").unwrap();
        let r = db.query("SELECT SUM(v) AS s FROM t").unwrap();
        assert_eq!(r.scalar().unwrap().as_double(), Some(7.5));
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        assert!(db.execute("CREATE TABLE t (id INTEGER)").is_err());
    }

    #[test]
    fn view_and_drop() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.execute("CREATE VIEW big AS SELECT id FROM t WHERE id > 1").unwrap();
        let r = db.query("SELECT COUNT(*) AS n FROM big").unwrap();
        assert_eq!(r.scalar().unwrap().as_integer(), Some(1));
        db.execute("DROP VIEW big").unwrap();
        assert!(db.query("SELECT * FROM big").is_err());
        db.execute("DROP TABLE t").unwrap();
        assert!(db.query("SELECT * FROM t").is_err());
    }

    #[test]
    fn create_table_as() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let resp = db.execute("CREATE TABLE doubled AS SELECT id + id AS d FROM t").unwrap();
        assert!(matches!(resp, Response::Inserted(3)));
        let r = db.query("SELECT SUM(d) AS s FROM doubled").unwrap();
        assert_eq!(r.scalar().unwrap().as_integer(), Some(12));
    }

    #[test]
    fn programmatic_vectors_and_gram() {
        let db = Database::new(4);
        db.create_table(
            "x",
            Schema::from_pairs(&[("id", DataType::Integer), ("val", DataType::Vector(None))]),
            Partitioning::RoundRobin,
        )
        .unwrap();
        let rows = vec![
            Row::new(vec![Value::Integer(0), Value::vector(Vector::from_slice(&[1.0, 0.0]))]),
            Row::new(vec![Value::Integer(1), Value::vector(Vector::from_slice(&[0.0, 2.0]))]),
        ];
        db.insert_rows("x", rows).unwrap();
        let r = db
            .query("SELECT SUM(outer_product(val, val)) AS g FROM x")
            .unwrap();
        let g = r.scalar().unwrap().as_matrix().unwrap().clone();
        assert_eq!(g.get(0, 0).unwrap(), 1.0);
        assert_eq!(g.get(1, 1).unwrap(), 4.0);
        assert_eq!(g.get(0, 1).unwrap(), 0.0);
    }

    #[test]
    fn explain_shows_plans() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        let text = db.explain("SELECT id FROM t WHERE id = 1").unwrap();
        assert!(text.contains("Optimized Logical Plan"));
        assert!(text.contains("Physical Plan"));
        assert!(text.contains("TableScan"));
        // The EXPLAIN statement form works too.
        let resp = db.execute("EXPLAIN SELECT id FROM t").unwrap();
        assert!(matches!(resp, Response::Explained(_)));
    }

    #[test]
    fn usage_errors() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        assert!(db.execute("CREATE TABLE t2 (id INTEGER)").unwrap().into_rows().is_err());
        assert!(db.explain("INSERT INTO t VALUES (1)").is_err());
    }

    #[test]
    fn shared_catalog_across_clones() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        let session2 = db.clone();
        session2.execute("INSERT INTO t VALUES (42)").unwrap();
        let r = db.query("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(r.scalar().unwrap().as_integer(), Some(1));
    }

    #[test]
    fn show_metrics_returns_counters() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.query("SELECT id FROM t").unwrap();
        let r = db.query("SHOW METRICS").unwrap();
        assert_eq!(
            r.schema.columns().iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            ["name", "kind", "value", "count", "sum", "p50", "p90", "p99"]
        );
        // Deterministic ordering: rows come out sorted by metric name.
        let names: Vec<String> = r.rows.iter().map(|row| row.value(0).to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "SHOW METRICS must be name-sorted");
        // The registry is process-global and other tests run concurrently,
        // so assert presence and lower bounds, never exact equality.
        let queries = r
            .rows
            .iter()
            .find(|row| row.value(0).to_string().contains("db.queries"))
            .expect("db.queries metric present");
        assert!(queries.value(2).as_double().unwrap() >= 3.0);
    }

    #[test]
    fn metrics_virtual_table_is_queryable_and_refreshed() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.query("SELECT id FROM t").unwrap();
        let r = db
            .query("SELECT name, value FROM metrics WHERE name = 'exec.plans_run'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let first = r.rows[0].value(1).as_double().unwrap();
        assert!(first >= 1.0);
        // Re-querying refreshes the snapshot: the counter has moved on.
        db.query("SELECT id FROM t").unwrap();
        let r2 = db
            .query("SELECT value FROM metrics WHERE name = 'exec.plans_run'")
            .unwrap();
        assert!(r2.rows[0].value(0).as_double().unwrap() > first);
    }

    #[test]
    fn show_metrics_surfaces_histogram_percentiles() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.query("SELECT id FROM t").unwrap();
        let r = db.query("SHOW METRICS").unwrap();
        // db.query_ms is a histogram: one row, distribution columns
        // filled, scalar value NULL.
        let h = r
            .rows
            .iter()
            .find(|row| row.value(0).to_string() == "db.query_ms")
            .expect("db.query_ms histogram present");
        assert_eq!(h.value(1).to_string(), "histogram");
        assert!(matches!(h.value(2), Value::Null), "histogram has no scalar value");
        assert!(h.value(3).as_double().unwrap() >= 1.0, "count");
        for idx in [5usize, 6, 7] {
            assert!(h.value(idx).as_double().is_some(), "percentile column {idx}");
        }
    }

    #[test]
    fn show_queries_and_queries_virtual_table() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        // While a traced query runs, SHOW QUERIES (from another clone)
        // lists it with its trace id and state.
        let trace = lardb_obs::recorder().start_forced("SELECT id FROM t", "acme");
        trace.set_query_id(77);
        let r = db.query("SHOW QUERIES").unwrap();
        assert_eq!(
            r.schema.columns().iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            [
                "query_id",
                "trace_id",
                "tenant",
                "state",
                "sql",
                "elapsed_ms",
                "queue_wait_ms",
                "rows",
                "reserved_bytes",
                "spill_bytes"
            ]
        );
        let row = r
            .rows
            .iter()
            .find(|row| row.value(1).to_string() == trace.id().to_string())
            .expect("in-flight trace listed");
        assert_eq!(row.value(0).as_integer(), Some(77));
        assert_eq!(row.value(2).to_string(), "acme");
        // The `queries` virtual table sees the same in-flight query.
        let vt = db
            .query(&format!(
                "SELECT tenant FROM queries WHERE trace_id = '{}'",
                trace.id()
            ))
            .unwrap();
        assert_eq!(vt.rows.len(), 1);
        assert_eq!(vt.rows[0].value(0).to_string(), "acme");
        lardb_obs::recorder().finish(&trace, None);
        // Finished: no longer listed.
        let r = db.query("SHOW QUERIES").unwrap();
        assert!(r
            .rows
            .iter()
            .all(|row| row.value(1).to_string() != trace.id().to_string()));
    }

    #[test]
    fn sessions_virtual_table_is_queryable() {
        let db = Database::new(2);
        let sid = db.sessions().open("acme", "local");
        let r = db
            .query("SELECT tenant, state FROM sessions WHERE tenant = 'acme'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].value(1).to_string(), "idle");
        db.sessions().close(sid);
    }

    #[test]
    fn explain_trace_returns_chrome_json() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)").unwrap();
        let Response::Explained(json) =
            db.execute("EXPLAIN TRACE SELECT SUM(v) AS s FROM t").unwrap()
        else {
            panic!("expected Explained");
        };
        assert!(json.contains("\"traceEvents\""), "{json}");
        for span in ["parse", "bind", "optimize", "plan", "execute"] {
            assert!(json.contains(&format!("\"name\": \"{span}\"")), "missing {span}");
        }
        // The umbrella event carries the SQL and the row count.
        assert!(json.contains("SUM(v)"), "{json}");
    }

    #[test]
    fn embedded_statements_land_in_flight_recorder() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let marker = "SELECT COUNT(*) AS embedded_recorder_probe FROM t";
        db.query(marker).unwrap();
        let done = lardb_obs::recorder()
            .completed_snapshot()
            .into_iter()
            .rev()
            .find(|t| t.sql == marker)
            .expect("embedded query traced");
        assert_eq!(done.rows, 1);
        assert!(done.has_span("execute"), "lifecycle spans recorded");
        assert!(done.error.is_none());
    }

    #[test]
    fn user_metrics_table_is_never_clobbered() {
        let db = Database::new(2);
        db.execute("CREATE TABLE metrics (id INTEGER)").unwrap();
        db.execute("INSERT INTO metrics VALUES (7)").unwrap();
        let r = db.query("SELECT id FROM metrics").unwrap();
        assert_eq!(r.scalar().unwrap().as_integer(), Some(7));
    }

    #[test]
    fn explain_analyze_prints_estimate_vs_actual() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)").unwrap();
        let Response::Explained(text) =
            db.execute("EXPLAIN ANALYZE SELECT SUM(v) AS s FROM t").unwrap()
        else {
            panic!("expected Explained");
        };
        assert!(text.contains("== Estimate vs Actual =="), "{text}");
        assert!(text.contains("est_rows"), "{text}");
        assert!(text.contains("act_rows"), "{text}");
        assert!(text.contains("q_rows"), "{text}");
        assert!(text.contains("q_MB"), "{text}");
    }

    #[test]
    fn last_profile_covers_all_lifecycle_stages() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.query("SELECT COUNT(*) AS n FROM t").unwrap();
        let p = db.last_profile().expect("profile after a query");
        for stage in ["parse", "bind", "optimize", "plan", "execute"] {
            assert!(p.stage_ms(stage).is_some(), "missing stage {stage}");
        }
        assert!(!p.operators.is_empty());
        assert!(p.operators.iter().all(|o| o.q_error_rows() >= 1.0));
        let json = p.to_json();
        assert!(json.contains("\"stage\": \"execute\""));
    }

    #[test]
    fn slow_query_log_counts_slow_statements() {
        let registry = lardb_obs::global();
        let before = registry.counter("db.slow_queries").get();
        let db = Database::with_config(DatabaseConfig {
            workers: 2,
            slow_query_ms: Some(0.0),
            ..DatabaseConfig::default()
        });
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        assert!(registry.counter("db.slow_queries").get() > before);
    }

    #[test]
    fn show_sessions_and_kill_statements() {
        let db = Database::new(2);
        // No sessions registered: empty relation with the right shape.
        let r = db.query("SHOW SESSIONS").unwrap();
        assert_eq!(
            r.schema.columns().iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            ["session_id", "tenant", "peer", "state", "query_id", "sql", "elapsed_ms"]
        );
        assert!(r.rows.is_empty());
        // A registered session with a running query shows up and is
        // killable by query id.
        let sid = db.sessions().open("acme", "local");
        let cancel = lardb_exec::CancelToken::new();
        let qid = db.sessions().begin_query(sid, "SELECT 1", &cancel);
        let r = db.query("SHOW SESSIONS").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].value(1).to_string(), "acme");
        assert_eq!(r.rows[0].value(3).to_string(), "running");
        assert!(matches!(
            db.execute(&format!("KILL {qid}")).unwrap(),
            Response::Done
        ));
        assert!(cancel.is_cancelled());
        // Killing a finished (or unknown) query is a usage error.
        db.sessions().end_query(sid);
        assert!(db.execute(&format!("KILL {qid}")).is_err());
        db.sessions().close(sid);
    }

    #[test]
    fn pre_cancelled_token_aborts_before_execution() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let cancel = lardb_exec::CancelToken::new();
        cancel.cancel();
        let err = db.execute_with(Stmt::Sql("SELECT id FROM t"), &cancel, None).unwrap_err();
        assert!(
            err.to_string().contains("killed") || err.to_string().contains("cancel"),
            "unexpected error: {err}"
        );
        // The same database still runs uncancelled statements fine.
        assert!(db.query("SELECT id FROM t").is_ok());
    }

    #[test]
    fn references_table_walks_subqueries() {
        let sql = "SELECT * FROM (SELECT name FROM metrics) AS m";
        let Ok(Statement::Select(sel)) = parse_statement(sql) else { panic!() };
        assert!(references_table(&sel, "metrics"));
        assert!(!references_table(&sel, "other"));
    }
}
