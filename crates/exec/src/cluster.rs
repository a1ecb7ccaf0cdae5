//! The simulated shared-nothing cluster and its morsel scheduler.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lardb_obs::{ActiveTrace, QueryContext};
use lardb_pool::WorkerPool;

use crate::{ExecError, Result};

/// A query-wide cancellation flag: the first worker to hit an error flips
/// it, and every sibling checks it at morsel boundaries (and exchange
/// senders before each frame), so a failing query stops shuffling instead
/// of draining work whose result will be discarded.
///
/// Clones share the flag (it is the *query's* token, carried by the
/// query's [`Cluster`] and all its clones).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Flips the token. Returns `true` only for the flipping caller —
    /// the winner of the race is the query's *first* failure.
    pub fn cancel(&self) -> bool {
        !self.0.swap(true, Ordering::AcqRel)
    }

    /// True once any worker has cancelled the query.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Re-arms the token (a fresh execution on a reused cluster).
    pub fn reset(&self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Records a worker failure on the query token: the first (non-cancel)
/// error flips the token and counts one `query.aborts`. Cancellation
/// errors themselves don't re-flip — they are the *effect* of an abort,
/// not a cause.
pub(crate) fn flag_abort(cancel: &CancelToken, e: &ExecError) {
    if matches!(e, ExecError::Cancelled(_)) {
        return;
    }
    if cancel.cancel() {
        lardb_obs::global().counter("query.aborts").inc();
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// How per-partition work is put on threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Morsel-driven: work is split into row-range morsels scheduled on
    /// the persistent work-stealing pool (the default).
    #[default]
    Pool,
    /// One fresh scoped thread per partition per operator — the
    /// pre-morsel behavior, kept as the ablation baseline.
    Spawn,
}

impl std::str::FromStr for SchedulerMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "pool" => Ok(SchedulerMode::Pool),
            "spawn" => Ok(SchedulerMode::Spawn),
            other => Err(format!("unknown scheduler '{other}' (pool|spawn)")),
        }
    }
}

/// Default rows per morsel. Small enough that a skewed partition splits
/// into many stealable pieces, large enough that per-morsel scheduling
/// cost is noise; also keeps small inputs on the single-morsel path,
/// whose float accumulation order is identical to a sequential run.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// A cluster of `W` shared-nothing workers.
///
/// Substitution note (see DESIGN.md): the paper ran on 10 EC2 machines with
/// Hadoop; here each "machine" is a *partition* of every table and
/// intermediate, and the per-partition work is scheduled on a persistent
/// work-stealing [`WorkerPool`] as row-range morsels. All dataflow
/// properties the paper measures — per-tuple fixed costs, shuffle volumes,
/// blocking amortization — are preserved, because partition *boundaries*
/// never change; only the mapping of partition work onto OS threads does.
/// The §5 load-imbalance pathology (hashing 100 blocks onto 80 cores) is
/// what the morsel scheduler removes: idle workers steal morsels from a
/// heavy partition instead of waiting for it.
#[derive(Debug, Clone)]
pub struct Cluster {
    workers: usize,
    /// `None` ⇒ use the process-wide [`lardb_pool::global`] pool.
    pool: Option<Arc<WorkerPool>>,
    scheduler: SchedulerMode,
    morsel_rows: usize,
    /// Query-wide cancellation token, shared by clones of this cluster.
    cancel: CancelToken,
    /// True when the token was supplied by an external controller (a
    /// server session wiring `KILL` / disconnect into the query). The
    /// executor must not re-arm an external token at query start — a kill
    /// that lands before execution begins must still abort the query.
    external_cancel: bool,
    /// The query's context: its trace (if sampled), kernel-dispatch mode
    /// and kernel-choice counts. Worker closures run under it
    /// (thread-local), so LA kernels dispatch and count for this query and
    /// leaf code — spill, governor — attributes to it, even on pool
    /// threads it never created; a traced query also gets per-morsel
    /// spans.
    ctx: Option<Arc<QueryContext>>,
}

impl Cluster {
    /// A cluster with `workers` workers (≥ 1), scheduling on the global
    /// pool with default morsel size.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "cluster needs at least one worker");
        Cluster {
            workers,
            pool: None,
            scheduler: SchedulerMode::default(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            cancel: CancelToken::new(),
            external_cancel: false,
            ctx: None,
        }
    }

    /// Replaces the query's cancellation token with an externally-owned
    /// one (e.g. a server session's), so `KILL` and client-disconnect
    /// detection can abort the query from outside the executor. The
    /// executor will not reset an external token at query start.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self.external_cancel = true;
        self
    }

    /// True when the cancel token is externally owned (see
    /// [`Self::with_cancel_token`]).
    pub fn has_external_cancel(&self) -> bool {
        self.external_cancel
    }

    /// Attaches the query's context: worker closures run under it as the
    /// thread-local current context (opening per-morsel spans when the
    /// query is traced), and exchange senders ship its trace id across
    /// the wire.
    pub fn with_context(mut self, ctx: Arc<QueryContext>) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// The query's trace, if its context has one (see
    /// [`Self::with_context`]).
    pub fn trace(&self) -> Option<&Arc<ActiveTrace>> {
        self.ctx.as_ref().and_then(|c| c.trace())
    }

    /// Schedules on a dedicated pool instead of the global one.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Selects the scheduling strategy.
    pub fn with_scheduler(mut self, scheduler: SchedulerMode) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the morsel size in rows (clamped to ≥ 1).
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Number of workers (== partitions of every table and intermediate).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Rows per scheduled morsel.
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// Active scheduling strategy.
    pub fn scheduler(&self) -> SchedulerMode {
        self.scheduler
    }

    /// The query-wide cancellation token (shared across clones).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The pool this cluster schedules on.
    pub fn pool(&self) -> &WorkerPool {
        match &self.pool {
            Some(p) => p,
            None => lardb_pool::global(),
        }
    }

    /// Runs `f(worker_index, item)` for every item in parallel, preserving
    /// item order in the result. Errors from any worker are propagated
    /// (first one wins), and a worker that panics surfaces as
    /// [`ExecError::Runtime`] instead of tearing down the process — a
    /// query must not crash the database.
    ///
    /// Used for partition-granular stages (hash-table builds, sorts,
    /// frame encoding) where splitting finer buys nothing; row-granular
    /// stages go through [`Self::morsel_map`].
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> Result<R> + Sync,
    {
        let f = self.guard(f);
        // Single worker or single item: run inline, no scheduling overhead.
        if items.len() <= 1 {
            return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        match self.scheduler {
            SchedulerMode::Pool => self.pool_map(items, f),
            SchedulerMode::Spawn => spawn_map(items, f),
        }
    }

    /// Wraps a work closure with the query's cancellation protocol: a
    /// cancelled query skips the work outright (morsel-boundary abort),
    /// and any failure flips the token so siblings stop too. The closure
    /// runs under the query's context (thread-local), on whichever pool or
    /// spawned thread picks it up, so its kernels dispatch and count for
    /// this query; when the query is traced it also runs inside a
    /// per-morsel span, so the flight recorder sees which thread ran each
    /// morsel and leaf code attributes its events.
    fn guard<T, R, F>(&self, f: F) -> impl Fn(usize, T) -> Result<R> + Sync
    where
        F: Fn(usize, T) -> Result<R> + Sync,
    {
        let cancel = self.cancel.clone();
        let ctx = self.ctx.clone();
        move |i, item| {
            if cancel.is_cancelled() {
                return Err(ExecError::Cancelled(
                    "a sibling worker failed first".into(),
                ));
            }
            let _cur = ctx.clone().map(|c| lardb_obs::context::enter(Some(c)));
            let _span = ctx
                .as_ref()
                .and_then(|c| c.trace())
                .map(|t| t.span("morsel", "worker").arg("partition", i.to_string()));
            let r = f(i, item);
            if let Err(e) = &r {
                flag_abort(&cancel, e);
            }
            r
        }
    }

    /// Runs `f(partition, morsel_rows)` over every partition of `parts`,
    /// splitting each partition into row-range morsels of
    /// [`Self::morsel_rows`] rows scheduled together on the pool — so
    /// workers drain a skewed partition's tail instead of idling.
    ///
    /// Returns, per partition, the morsel results **in ascending row
    /// order** (deterministic regardless of which worker ran what; the
    /// caller's merge sees the same sequence a sequential run would).
    /// Every partition yields at least one morsel, so empty partitions
    /// still produce one result (preserving per-partition semantics such
    /// as empty-input aggregates).
    ///
    /// Under [`SchedulerMode::Spawn`] each partition is one morsel on its
    /// own scoped thread — the pre-pool behavior, kept for ablation.
    pub fn morsel_map<T, R, F>(&self, parts: Vec<Vec<T>>, f: F) -> Result<Vec<Vec<R>>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, Vec<T>) -> Result<R> + Sync,
    {
        if self.scheduler == SchedulerMode::Spawn {
            return self
                .par_map(parts, |p, rows| f(p, rows).map(|r| vec![r]))
                .map(|v| v.into_iter().collect());
        }
        let f = self.guard(f);
        // Split partitions into (partition, rows) morsels, partition-major.
        let num_parts = parts.len();
        let mut homes: Vec<usize> = Vec::new();
        let mut morsels: Vec<Vec<T>> = Vec::new();
        for (p, rows) in parts.into_iter().enumerate() {
            for chunk in chunk_rows(rows, self.morsel_rows) {
                homes.push(p);
                morsels.push(chunk);
            }
        }
        // One morsel total: run inline (bit-identical to sequential).
        let results: Vec<Result<R>> = if morsels.len() <= 1 {
            homes
                .iter()
                .zip(morsels)
                .map(|(&p, chunk)| f(p, chunk))
                .collect()
        } else {
            let mut slots: Vec<Option<Result<R>>> = Vec::new();
            slots.resize_with(morsels.len(), || None);
            let scoped = self.pool().scope(|s| {
                for ((&p, chunk), slot) in
                    homes.iter().zip(morsels).zip(slots.iter_mut())
                {
                    let f = &f;
                    s.spawn(move || {
                        *slot = Some(f(p, chunk));
                    });
                }
            });
            if let Err(msg) = scoped {
                lardb_obs::global().counter("exec.worker_panics").inc();
                let e = ExecError::Runtime(format!("worker thread panicked: {msg}"));
                flag_abort(&self.cancel, &e);
                return Err(e);
            }
            // An unfilled slot means the pool dropped a morsel without
            // running it — surface as an error instead of panicking the
            // coordinating thread.
            slots
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|| {
                        Err(ExecError::Runtime("pool dropped a morsel unrun".into()))
                    })
                })
                .collect()
        };
        // Reassemble per partition, morsel order preserved.
        let mut out: Vec<Vec<R>> = (0..num_parts).map(|_| Vec::new()).collect();
        for (p, r) in homes.into_iter().zip(root_cause(results)?) {
            out[p].push(r);
        }
        Ok(out)
    }

    /// Partition-granular scheduling on the worker pool: one task per
    /// item, results in item order.
    fn pool_map<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> Result<R> + Sync,
    {
        let mut slots: Vec<Option<Result<R>>> = Vec::new();
        slots.resize_with(items.len(), || None);
        let scoped = self.pool().scope(|s| {
            for ((i, item), slot) in items.into_iter().enumerate().zip(slots.iter_mut())
            {
                let f = &f;
                s.spawn(move || {
                    *slot = Some(f(i, item));
                });
            }
        });
        if let Err(msg) = scoped {
            lardb_obs::global().counter("exec.worker_panics").inc();
            let e = ExecError::Runtime(format!("worker thread panicked: {msg}"));
            flag_abort(&self.cancel, &e);
            return Err(e);
        }
        root_cause(slots.into_iter().map(|r| {
            r.unwrap_or_else(|| Err(ExecError::Runtime("pool dropped a task unrun".into())))
        }))
    }
}

/// Unwraps per-item results in item order, or returns the root-cause
/// error: the first error that is not `Cancelled`, else the first error.
/// Once one worker fails, siblings that notice the flipped token report
/// `Cancelled`, and such a sibling can precede the failing item.
fn root_cause<R>(results: impl IntoIterator<Item = Result<R>>) -> Result<Vec<R>> {
    let mut out = Vec::new();
    let mut err: Option<ExecError> = None;
    for r in results {
        match (r, &err) {
            (Ok(v), _) => out.push(v),
            (Err(e), None) => err = Some(e),
            (Err(e), Some(ExecError::Cancelled(_))) if !matches!(e, ExecError::Cancelled(_)) => {
                err = Some(e)
            }
            (Err(_), Some(_)) => {}
        }
    }
    err.map_or(Ok(out), Err)
}

/// The pre-pool execution strategy: one scoped OS thread per item.
fn spawn_map<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> Result<R> + Sync,
{
    let results: Vec<Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let f = &f;
                scope.spawn(move || f(i, item))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    lardb_obs::global().counter("exec.worker_panics").inc();
                    Err(ExecError::Runtime(format!(
                        "worker thread panicked: {}",
                        panic_message(payload.as_ref())
                    )))
                })
            })
            .collect()
    });
    root_cause(results)
}

/// Splits `rows` into chunks of ≤ `size` rows, moving (never cloning)
/// elements. An empty input yields one empty chunk.
fn chunk_rows<T>(rows: Vec<T>, size: usize) -> Vec<Vec<T>> {
    if rows.len() <= size {
        return vec![rows];
    }
    let mut out = Vec::with_capacity(rows.len() / size + 1);
    let mut cur = Vec::with_capacity(size);
    for r in rows {
        cur.push(r);
        if cur.len() == size {
            out.push(std::mem::replace(&mut cur, Vec::with_capacity(size)));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecError;

    #[test]
    fn par_map_preserves_order() {
        let c = Cluster::new(4);
        let out = c
            .par_map((0..8).collect::<Vec<i32>>(), |i, x| Ok((i, x * 2)))
            .unwrap();
        assert_eq!(out.len(), 8);
        for (i, (wi, v)) in out.iter().enumerate() {
            assert_eq!(*wi, i);
            assert_eq!(*v, (i as i32) * 2);
        }
    }

    #[test]
    fn par_map_propagates_errors() {
        let c = Cluster::new(2);
        let out: Result<Vec<i32>> = c.par_map(vec![1, 2, 3], |_, x| {
            if x == 2 {
                Err(ExecError::Runtime("boom".into()))
            } else {
                Ok(x)
            }
        });
        assert!(out.is_err());
    }

    #[test]
    fn single_item_runs_inline() {
        let c = Cluster::new(8);
        let out = c.par_map(vec![42], |i, x| Ok(i + x)).unwrap();
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        Cluster::new(0);
    }

    #[test]
    fn par_map_converts_worker_panics_to_errors() {
        for mode in [SchedulerMode::Pool, SchedulerMode::Spawn] {
            let c = Cluster::new(2).with_scheduler(mode);
            let out: Result<Vec<i32>> = c.par_map(vec![1, 2, 3], |_, x| {
                if x == 2 {
                    panic!("kaboom on {x}");
                }
                Ok(x)
            });
            match out {
                Err(ExecError::Runtime(msg)) => {
                    assert!(msg.contains("kaboom"), "unexpected message: {msg}")
                }
                other => panic!("expected Runtime error, got {other:?}"),
            }
        }
    }

    #[test]
    fn first_error_cancels_siblings() {
        // After one item fails, later items on the same cluster see the
        // flipped token and come back Cancelled instead of running.
        let c = Cluster::new(2);
        let _ = c.par_map(vec![1], |_, _| -> Result<i32> {
            Err(ExecError::Runtime("first failure".into()))
        });
        assert!(c.cancel_token().is_cancelled());
        let out: Result<Vec<i32>> = c.par_map(vec![1], |_, x| Ok(x));
        assert!(matches!(out, Err(ExecError::Cancelled(_))), "got {out:?}");
        // Re-arming restores normal operation.
        c.cancel_token().reset();
        assert_eq!(c.par_map(vec![1], |_, x| Ok(x)).unwrap(), vec![1]);
    }

    #[test]
    fn cancel_token_flips_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.cancel(), "first cancel must win");
        assert!(!t.cancel(), "second cancel must lose");
        assert!(t.is_cancelled());
    }

    #[test]
    fn chunk_rows_splits_and_preserves_order() {
        assert_eq!(chunk_rows(Vec::<i32>::new(), 4), vec![Vec::<i32>::new()]);
        assert_eq!(chunk_rows(vec![1, 2, 3], 4), vec![vec![1, 2, 3]]);
        assert_eq!(
            chunk_rows((0..10).collect::<Vec<_>>(), 4),
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]
        );
    }

    #[test]
    fn morsel_map_matches_sequential_on_skew() {
        // One partition holds nearly all rows; morsel outputs must still
        // arrive per partition in row order.
        let parts: Vec<Vec<i64>> =
            vec![(0..900).collect(), (900..950).collect(), vec![], (950..1000).collect()];
        let c = Cluster::new(4)
            .with_pool(Arc::new(WorkerPool::new(4)))
            .with_morsel_rows(16);
        let out = c
            .morsel_map(parts.clone(), |p, rows| {
                Ok(rows.into_iter().map(|x| x * 2 + p as i64).collect::<Vec<_>>())
            })
            .unwrap();
        assert_eq!(out.len(), 4);
        for (p, (morsels, rows)) in out.into_iter().zip(parts).enumerate() {
            let flat: Vec<i64> = morsels.into_iter().flatten().collect();
            let want: Vec<i64> = rows.into_iter().map(|x| x * 2 + p as i64).collect();
            assert_eq!(flat, want, "partition {p}");
        }
    }

    #[test]
    fn morsel_map_empty_partition_yields_one_morsel() {
        let c = Cluster::new(2).with_morsel_rows(8);
        let out = c
            .morsel_map(vec![Vec::<i32>::new(), vec![1]], |_, rows| Ok(rows.len()))
            .unwrap();
        assert_eq!(out, vec![vec![0], vec![1]]);
    }

    #[test]
    fn morsel_map_spawn_mode_is_partition_granular() {
        let c = Cluster::new(2)
            .with_scheduler(SchedulerMode::Spawn)
            .with_morsel_rows(2);
        let out = c
            .morsel_map(vec![(0..10).collect::<Vec<i32>>(), vec![7]], |_, rows| {
                Ok(rows.len())
            })
            .unwrap();
        // Spawn mode never splits: one morsel per partition.
        assert_eq!(out, vec![vec![10], vec![1]]);
    }

    #[test]
    fn morsel_map_propagates_errors_and_panics() {
        let c = Cluster::new(2)
            .with_pool(Arc::new(WorkerPool::new(2)))
            .with_morsel_rows(1);
        let err = c
            .morsel_map(vec![vec![1, 2, 3]], |_, rows| {
                if rows == [2] {
                    Err(ExecError::Runtime("bad morsel".into()))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::Runtime(ref m) if m.contains("bad morsel")));
        // The error flipped the query-wide cancel token; re-arm it the way
        // Executor::execute does at the start of each query.
        c.cancel_token().reset();
        let err = c
            .morsel_map(vec![vec![1, 2, 3]], |_, rows: Vec<i32>| {
                if rows == [3] {
                    panic!("morsel panic");
                }
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::Runtime(ref m) if m.contains("morsel panic")));
    }

    #[test]
    fn root_cause_error_wins_over_earlier_cancelled_sibling() {
        // Item 0 plays a sibling that saw the token flip and gave up; item
        // 1 is the failure that flipped it. Every scheduler must report
        // the failure, whichever order the items ran in.
        let fail = |i: usize| -> Result<()> {
            match i {
                0 => Err(ExecError::Cancelled("a sibling worker failed first".into())),
                1 => Err(ExecError::Runtime("root cause".into())),
                _ => Ok(()),
            }
        };
        let root = |e: ExecError| matches!(e, ExecError::Runtime(ref m) if m == "root cause");
        for mode in [SchedulerMode::Pool, SchedulerMode::Spawn] {
            let c = Cluster::new(2)
                .with_scheduler(mode)
                .with_pool(Arc::new(WorkerPool::new(2)))
                .with_morsel_rows(1);
            let err = c.par_map(vec![0, 1, 2], |_, i| fail(i)).unwrap_err();
            assert!(root(err), "par_map under {mode:?}");
            c.cancel_token().reset();
            let err = c
                .morsel_map(vec![vec![0], vec![1], vec![2]], |_, rows| fail(rows[0]))
                .unwrap_err();
            assert!(root(err), "morsel_map under {mode:?}");
            c.cancel_token().reset();
        }
        // A query cancelled outright still reports the cancellation.
        let all = vec![Err(ExecError::Cancelled("killed".into())), Ok(1)];
        assert!(matches!(root_cause(all), Err(ExecError::Cancelled(_))));
    }
}
