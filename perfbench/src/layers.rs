//! The per-layer metrics of a traced run, in one place so every workload
//! reports the same names.
//!
//! Layer times are per job: the traced phase's total for the layer divided
//! by the jobs it completed (statements outside jobs, such as the served
//! dashboard's, are charged to the jobs they ran beside).

use std::path::Path;

use lardb::Row;

use crate::probes::{self, LaShapes};
use crate::report::Report;
use crate::session::{q_error, Layers};

pub struct LayerRun<'a> {
    pub layers: &'a Layers,
    /// Jobs completed in the traced phase.
    pub jobs: usize,
    pub shapes: LaShapes,
    /// A sample of the rows and tiles the workload moves.
    pub probe_rows: &'a [Row],
    pub pool_workers: usize,
    pub seed: u64,
    pub read_overhead_ms: f64,
    pub write_overhead_ms: f64,
    pub load_mbps: f64,
    pub tracing_overhead_pct: f64,
}

pub fn report(r: &mut Report, run: LayerRun<'_>, spill_dir: &Path) -> Result<(), String> {
    let l = run.layers;
    let per_job = |v: f64| v / run.jobs.max(1) as f64;
    let e = &l.exec;
    r.metric("sql.parse_ms", per_job(l.parse_ms), "ms");
    r.metric("sql.bind_ms", per_job(l.bind_ms), "ms");
    r.metric("planner.optimize_ms", per_job(l.optimize_ms), "ms");
    r.metric("planner.physical_ms", per_job(l.physical_ms), "ms");
    r.metric(
        "planner.join_qerror_max",
        l.join_qerror_max.max(1.0),
        "ratio",
    );
    r.metric(
        "planner.shuffle_qerror",
        q_error(l.shuffle_est_bytes, l.shuffle_act_bytes),
        "ratio",
    );
    r.metric("core.self_ms", per_job(l.core_self_ms), "ms");
    let hit_frac = if l.cache_lookups == 0 {
        0.0
    } else {
        l.cache_hits as f64 / l.cache_lookups as f64
    };
    r.metric("core.plan_cache_hit_frac", hit_frac, "ratio");
    r.metric("core.mv_maintain_ms", per_job(l.mv_maintain_ms), "ms");
    r.metric("exec.execute_ms", per_job(e.execute_ms), "ms");
    r.metric("exec.join_ms", per_job(e.join_ms), "ms");
    r.metric("exec.agg_ms", per_job(e.agg_ms), "ms");
    r.metric("exec.exchange_ms", per_job(e.exchange_ms), "ms");
    r.metric("exec.scan_filter_ms", per_job(e.scan_filter_ms), "ms");
    let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    r.metric(
        "exec.vec_rows_frac",
        frac(e.batch_rows, e.scanned_rows),
        "ratio",
    );
    r.metric(
        "exec.vec_fallback_frac",
        frac(e.fallbacks, e.kernels),
        "ratio",
    );
    probes::la(r, &run.shapes, run.seed);
    r.metric(
        "la.dispatch_sparse_frac",
        frac(e.dispatch_sparse, e.dispatch_all),
        "ratio",
    );
    r.metric("net.shuffle_mb", per_job(e.shuffle_bytes) / 1e6, "MB");
    r.metric("net.frames", per_job(e.frames), "count");
    let (enc, dec) = probes::codec(run.probe_rows);
    r.metric("net.encode_mbps", enc, "MB/s");
    r.metric("net.decode_mbps", dec, "MB/s");
    r.metric(
        "net.enqueue_block_pct",
        100.0 * frac(e.enqueue_block_ms, e.execute_ms),
        "%",
    );
    r.metric("buf.spill_mb", per_job(e.spill_bytes) / 1e6, "MB");
    r.metric("buf.spill_files", per_job(e.spill_files), "count");
    let (sw, sr) = probes::spill(run.probe_rows, spill_dir)?;
    r.metric("buf.spill_write_mbps", sw, "MB/s");
    r.metric("buf.spill_read_mbps", sr, "MB/s");
    r.metric(
        "pool.task_overhead_us",
        probes::pool_task_overhead_us(run.pool_workers),
        "us",
    );
    r.metric("server.read_overhead_ms", run.read_overhead_ms, "ms");
    r.metric("server.write_overhead_ms", run.write_overhead_ms, "ms");
    r.metric("storage.load_mbps", run.load_mbps, "MB/s");
    r.metric("obs.tracing_overhead_pct", run.tracing_overhead_pct, "%");
    r.note(format!(
        "traced phase: {} jobs, {} statements; layer times are per job",
        run.jobs, l.statements
    ));
    Ok(())
}
