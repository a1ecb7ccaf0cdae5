//! Table formatting for the figure harness, matching the paper's layout.

use std::time::Duration;

use crate::platforms::{self, Platform, RunOutcome, Workload, ALL_PLATFORMS};
use crate::Args;

/// Formats a duration the way the paper's tables do (`HH:MM:SS`), with
/// millisecond precision appended for sub-second laptop-scale runs.
pub fn format_duration(d: Duration) -> String {
    let total = d.as_secs();
    let (h, m, s) = (total / 3600, (total % 3600) / 60, total % 60);
    if d < Duration::from_secs(10) {
        format!("{:02}:{:02}:{:02} ({:.0} ms)", h, m, s, d.as_secs_f64() * 1e3)
    } else {
        format!("{:02}:{:02}:{:02}", h, m, s)
    }
}

/// Runs `workload` with `n` points on all six platforms at each of
/// `args.dims` and prints the figure's table.
pub fn figure(title: &str, workload: Workload, n: usize, block: usize, args: &Args) {
    let rows: Vec<_> = ALL_PLATFORMS
        .iter()
        .map(|&p| {
            let outcomes = args
                .dims
                .iter()
                .map(|&d| {
                    eprintln!("running {p:?} at {d} dims …");
                    platforms::run(p, workload, n, d, block, args.seed, &args.config)
                })
                .collect();
            (p, outcomes)
        })
        .collect();
    print_figure_table(title, &args.dims, &rows);
}

/// Prints one of the paper's Figure 1–3 tables: platforms × dims.
fn print_figure_table(
    title: &str,
    dims: &[usize],
    rows: &[(Platform, Vec<RunOutcome>)],
) {
    println!("\n{title}");
    let mut header = format!("{:<24}", "Platform");
    for d in dims {
        header.push_str(&format!(" | {:>20}", format!("{d} dims")));
    }
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    let mut notes: Vec<String> = Vec::new();
    for (platform, outcomes) in rows {
        let mut line = format!("{:<24}", platform.label());
        for out in outcomes {
            let cell = match out.duration {
                Some(d) => {
                    let mut c = format_duration(d);
                    if out.note.is_some() {
                        c.push('*');
                    }
                    c
                }
                None => "Fail".to_string(),
            };
            line.push_str(&format!(" | {cell:>20}"));
            if let Some(note) = &out.note {
                notes.push(format!("* {}: {}", platform.label(), note));
            }
        }
        println!("{line}");
    }
    for n in notes {
        println!("{n}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_secs(3_725)), "01:02:05");
        assert!(format_duration(Duration::from_millis(250)).contains("250 ms"));
        assert_eq!(format_duration(Duration::from_secs(59)), "00:00:59");
    }
}
