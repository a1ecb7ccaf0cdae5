//! The query-lifecycle stages.
//!
//! A statement moves through five stages — parse, bind, optimize, plan,
//! execute. [`crate::QueryProfile::time`] times one stage into the
//! statement's profile and mirrors it into the thread's current trace.

/// The five query-lifecycle stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// SQL text → AST.
    Parse,
    /// AST → bound logical plan.
    Bind,
    /// Logical rewrites + cost-based join ordering.
    Optimize,
    /// Logical → physical plan (partitioning, exchanges).
    Plan,
    /// Physical plan execution across the worker pool.
    Execute,
}

impl Stage {
    /// Stable lowercase name used in profiles and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Bind => "bind",
            Stage::Optimize => "optimize",
            Stage::Plan => "plan",
            Stage::Execute => "execute",
        }
    }

    /// The five lifecycle stages, in pipeline order.
    pub const LIFECYCLE: [Stage; 5] = [
        Stage::Parse,
        Stage::Bind,
        Stage::Optimize,
        Stage::Plan,
        Stage::Execute,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_order_and_names() {
        let names: Vec<&str> = Stage::LIFECYCLE.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["parse", "bind", "optimize", "plan", "execute"]);
    }
}
