//! The benchmark's own tracing: spans recorded around the calls the
//! benchmark makes into each crate, kept in memory and written out as
//! Chrome trace-event JSON when the run ends. Only the traced run turns it
//! on; end-to-end metrics are always measured with it off.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    pub name: &'static str,
    /// Client thread that recorded it.
    pub thread: u32,
    pub start: Duration,
    pub dur: Duration,
}

pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An open span; [`Tracer::close`] records it.
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    thread: u32,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    pub fn open(&self, parent: u64, thread: u32, name: &'static str) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            thread,
            start: Instant::now(),
        }
    }

    /// Records `open` and returns its duration.
    pub fn close(&self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            thread: open.thread,
            start: open.start.duration_since(self.t0),
            dur,
        };
        self.spans
            .lock()
            .expect("span log poisoned by a panicking client")
            .push(span);
        dur
    }

    /// Runs `f` under a child span of `parent`; returns its result and
    /// duration.
    pub fn time<R>(
        &self,
        parent: u64,
        thread: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.open(parent, thread, name);
        let r = f();
        (r, self.close(open))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking client")
            .clone()
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its child spans cover, summed by name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, Duration> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Duration> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *children.entry(s.parent).or_default() += s.dur;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for s in &spans {
            let covered = children.get(&s.id).copied().unwrap_or_default().min(s.dur);
            *out.entry(s.name).or_default() += s.dur - covered;
        }
        out
    }

    /// One line: self time per span name, ms.
    pub fn self_time_summary(&self) -> String {
        let parts: Vec<String> = self
            .self_time_by_name()
            .iter()
            .map(|(name, d)| format!("{name} {:.1}", d.as_secs_f64() * 1e3))
            .collect();
        format!("span self times, ms: {}", parts.join(", "))
    }

    /// Writes every span as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto).
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"id\":{},\"parent\":{}}}}}",
                    s.name,
                    s.thread,
                    s.start.as_secs_f64() * 1e6,
                    s.dur.as_secs_f64() * 1e6,
                    s.id,
                    s.parent
                )
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        let root = t.open(0, 0, "root");
        let ((), child) = t.time(root.id(), 0, "child", || {
            std::thread::sleep(Duration::from_millis(5))
        });
        let total = t.close(root);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["child"], child);
        assert_eq!(by_name["root"], total - child);
    }
}
