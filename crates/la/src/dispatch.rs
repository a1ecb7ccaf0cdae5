//! Density-adaptive kernel dispatch.
//!
//! Multiplies pick between the branch-free dense loops, the skip-zero
//! loops and the sparse kernels. The choice reads the [`DispatchMode`] of
//! the running query's [`lardb_obs::QueryContext`], and every choice is
//! counted on that context, so EXPLAIN ANALYZE and the `la.dispatch.*`
//! metrics report exactly one query's kernels. The modes:
//!
//! * `dense` forces the branch-free dense loops and densifies sparse tiles
//!   at kernel entry;
//! * `sparse` forces skip-zero / sparse kernels;
//! * `adaptive` (the default, and the mode outside any query) picks per
//!   tile pair from the sampled density against [`SPARSE_THRESHOLD`].

use lardb_obs::context::{with_current, QueryContext};
pub use lardb_obs::context::{DispatchCounters, DispatchMode, Kernel};

/// The zero fraction above which adaptive dispatch takes the skip-zero
/// loop; a sparse tile densifies when `density > 1 - SPARSE_THRESHOLD`.
pub const SPARSE_THRESHOLD: f64 = 0.25;

fn mode(ctx: Option<&QueryContext>) -> DispatchMode {
    ctx.map_or(DispatchMode::Adaptive, QueryContext::dispatch)
}

/// Resolves one density-dispatch decision for a dense tile whose sampled
/// zero fraction is `zero_fraction`: `true` means take the skip-zero loop.
/// Also counts the choice.
pub fn choose_skip_zero(zero_fraction: f64) -> bool {
    with_current(|ctx| {
        let skip = match mode(ctx) {
            DispatchMode::Dense => false,
            DispatchMode::Sparse => true,
            DispatchMode::Adaptive => zero_fraction > SPARSE_THRESHOLD,
        };
        if let Some(ctx) = ctx {
            ctx.note(if skip { Kernel::SkipZero } else { Kernel::Dense });
        }
        skip
    })
}

/// Whether a *sparse-typed* tile of the given stored density should stay
/// on sparse kernels (`true`) or densify first (`false`). Sparse tiles
/// stay sparse except under forced-dense mode or when adaptive dispatch
/// sees a tile dense enough that the branch-free loop wins
/// (`density > 1 - threshold`, the mirror image of the skip-zero rule).
pub fn keep_sparse(density: f64) -> bool {
    match with_current(mode) {
        DispatchMode::Dense => false,
        DispatchMode::Sparse => true,
        DispatchMode::Adaptive => density <= 1.0 - SPARSE_THRESHOLD,
    }
}

/// Records that a sparse kernel (or a densification) ran.
pub fn note_kernel(kernel: Kernel) {
    with_current(|ctx| {
        if let Some(ctx) = ctx {
            ctx.note(kernel);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_obs::context::enter;

    #[test]
    fn mode_parse_roundtrip() {
        for m in [DispatchMode::Dense, DispatchMode::Sparse, DispatchMode::Adaptive] {
            assert_eq!(DispatchMode::parse(m.name()), Some(m));
        }
        assert_eq!(DispatchMode::parse("ADAPTIVE"), Some(DispatchMode::Adaptive));
        assert_eq!(DispatchMode::parse("banana"), None);
    }

    #[test]
    fn forced_modes_override_density() {
        {
            let _ctx = enter(Some(QueryContext::new(None, DispatchMode::Dense)));
            assert!(!choose_skip_zero(1.0));
            assert!(!keep_sparse(0.0001));
        }
        {
            let _ctx = enter(Some(QueryContext::new(None, DispatchMode::Sparse)));
            assert!(choose_skip_zero(0.0));
            assert!(keep_sparse(0.9999));
        }
        // Outside a query dispatch is adaptive.
        assert!(choose_skip_zero(0.9));
        assert!(!choose_skip_zero(0.1));
        assert!(keep_sparse(0.01));
        assert!(!keep_sparse(0.9));
    }

    #[test]
    fn counters_are_monotone_and_diffable() {
        let ctx = QueryContext::new(None, DispatchMode::Adaptive);
        note_kernel(Kernel::Spmv); // outside the query: counted nowhere
        {
            let _ctx = enter(Some(ctx.clone()));
            note_kernel(Kernel::Spmv);
            note_kernel(Kernel::SpGemm);
            note_kernel(Kernel::Densified);
            choose_skip_zero(0.9);
        }
        note_kernel(Kernel::SpGemm);
        let d = ctx.counts();
        assert_eq!(d.spmv, 1);
        assert_eq!(d.spgemm, 1);
        assert_eq!(d.densified, 1);
        assert_eq!(d.skipzero, 1);
        assert_eq!(d.dense, 0);
        assert_eq!(d.sparse_total(), 2);
    }
}
