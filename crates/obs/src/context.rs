//! The per-query context: what leaf code needs to know about the query
//! it is running for, without a parameter threaded through every call.
//!
//! A [`QueryContext`] holds the query's sampled trace (if any), its
//! kernel-[`DispatchMode`] and its own kernel-choice counts. The database
//! installs one on the thread that runs a statement ([`enter`]); it
//! crosses threads only where work does — each pool task captures the
//! spawner's context, and the executor's per-morsel guard installs the
//! query's — so an LA kernel on any worker reads the mode of the query
//! it computes for and bumps that query's counts. Outside a query there
//! is no context: kernels dispatch adaptively and count nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::trace::ActiveTrace;

/// Which kernel family multiplies get routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Always the branch-free dense loops; sparse tiles densify first.
    Dense,
    /// Always skip-zero / sparse kernels.
    Sparse,
    /// Pick per tile pair from sampled density (the default).
    Adaptive,
}

impl DispatchMode {
    /// Parses the CLI spelling (`dense` / `sparse` / `adaptive`).
    pub fn parse(s: &str) -> Option<DispatchMode> {
        match s.to_ascii_lowercase().as_str() {
            "dense" => Some(DispatchMode::Dense),
            "sparse" => Some(DispatchMode::Sparse),
            "adaptive" => Some(DispatchMode::Adaptive),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchMode::Dense => "dense",
            DispatchMode::Sparse => "sparse",
            DispatchMode::Adaptive => "adaptive",
        }
    }
}

/// The kernel choices a query counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// A branch-free dense GEMM/SYRK inner loop.
    Dense,
    /// A skip-zero (branchy) GEMM/SYRK inner loop.
    SkipZero,
    /// Sparse × dense-vector product.
    Spmv,
    /// Sparse × dense matrix product.
    SpDense,
    /// Sparse × sparse product.
    SpGemm,
    /// Sparse Gram (SYRK).
    SpSyrk,
    /// A sparse tile was densified before a dense kernel ran.
    Densified,
}

/// One query's kernel-choice counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCounters {
    /// Branch-free dense GEMM/SYRK inner-loop choices.
    pub dense: u64,
    /// Skip-zero (branchy) inner-loop choices.
    pub skipzero: u64,
    /// SpMV kernel runs.
    pub spmv: u64,
    /// Sparse × dense GEMM runs.
    pub sp_dense: u64,
    /// SpGEMM runs.
    pub spgemm: u64,
    /// Sparse SYRK runs.
    pub sp_syrk: u64,
    /// Sparse tiles densified before a dense kernel.
    pub densified: u64,
}

impl DispatchCounters {
    /// Total sparse-kernel runs.
    pub fn sparse_total(&self) -> u64 {
        self.spmv + self.sp_dense + self.spgemm + self.sp_syrk
    }

    /// Elementwise sum (merging multi-statement workload stats).
    pub fn plus(&self, other: &DispatchCounters) -> DispatchCounters {
        DispatchCounters {
            dense: self.dense + other.dense,
            skipzero: self.skipzero + other.skipzero,
            spmv: self.spmv + other.spmv,
            sp_dense: self.sp_dense + other.sp_dense,
            spgemm: self.spgemm + other.spgemm,
            sp_syrk: self.sp_syrk + other.sp_syrk,
            densified: self.densified + other.densified,
        }
    }

    /// True when any kernel choice was recorded.
    pub fn any(&self) -> bool {
        *self != DispatchCounters::default()
    }
}

/// One query's context (see the module docs).
#[derive(Debug)]
pub struct QueryContext {
    trace: Option<Arc<ActiveTrace>>,
    dispatch: DispatchMode,
    /// Counts indexed by `Kernel as usize`.
    counts: [AtomicU64; Kernel::Densified as usize + 1],
}

impl QueryContext {
    /// A context with zeroed counts.
    pub fn new(trace: Option<Arc<ActiveTrace>>, dispatch: DispatchMode) -> Arc<QueryContext> {
        Arc::new(QueryContext { trace, dispatch, counts: Default::default() })
    }

    /// The query's trace, if it is sampled.
    pub fn trace(&self) -> Option<&Arc<ActiveTrace>> {
        self.trace.as_ref()
    }

    /// The query's kernel-dispatch mode.
    pub fn dispatch(&self) -> DispatchMode {
        self.dispatch
    }

    /// Counts one kernel choice.
    pub fn note(&self, kernel: Kernel) {
        self.counts[kernel as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The kernel choices counted so far.
    pub fn counts(&self) -> DispatchCounters {
        let c = |k: Kernel| self.counts[k as usize].load(Ordering::Relaxed);
        DispatchCounters {
            dense: c(Kernel::Dense),
            skipzero: c(Kernel::SkipZero),
            spmv: c(Kernel::Spmv),
            sp_dense: c(Kernel::SpDense),
            spgemm: c(Kernel::SpGemm),
            sp_syrk: c(Kernel::SpSyrk),
            densified: c(Kernel::Densified),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<QueryContext>>> = const { RefCell::new(None) };
}

/// The context of the query this thread is running for, if any.
pub fn current() -> Option<Arc<QueryContext>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Calls `f` with the current context, without cloning it.
pub fn with_current<R>(f: impl FnOnce(Option<&QueryContext>) -> R) -> R {
    CURRENT.with(|c| f(c.borrow().as_deref()))
}

/// Installs `ctx` as this thread's context for the guard's lifetime,
/// restoring the previous one on drop (contexts nest across re-entrant
/// executions, e.g. a pool waiter that helps run another query's task).
pub fn enter(ctx: Option<Arc<QueryContext>>) -> ContextGuard {
    ContextGuard { prev: CURRENT.with(|c| c.replace(ctx)) }
}

/// Restores the previously current context when dropped.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<Arc<QueryContext>>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}
