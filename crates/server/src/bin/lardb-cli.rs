//! The lardb command-line interface: embedded SQL shell, query server,
//! and network client.
//!
//! ```text
//! # embedded shell (the original mode)
//! cargo run --release -p lardb-server --bin lardb-cli [-- --workers 8]
//!
//! # serve a database over TCP
//! cargo run --release -p lardb-server --bin lardb-cli -- serve --port 5433
//!
//! # connect a shell to a running server
//! cargo run --release -p lardb-server --bin lardb-cli -- \
//!     --connect 127.0.0.1:5433 --tenant acme
//! ```
//!
//! Reads statements terminated by `;` (multi-line input supported).
//! Meta-commands: `\q` quit, `\d` list tables, `\timing` toggle timing,
//! `\explain <select>` show plans, `\metrics` dump the process metrics
//! registry, `\profile` print the last query's profile as JSON,
//! `\trace [path]` dump the last traced query's Chrome trace JSON, `\help`.
//! `-c "<sql>"` runs one statement and exits (local or remote).

use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

use lardb::{Database, DatabaseConfig, FaultKind, FaultPlan, Knob, Response};
use lardb_server::{Client, QueryOutput, Server, ServerConfig, ServerError};

/// Flags shared by the shell and `serve` that are not `DatabaseConfig`
/// knobs: the fault plan (its four flags are validated together) and the
/// process-wide flight recorder.
#[derive(Default)]
struct ProcessArgs {
    kind: Option<FaultKind>,
    seed: Option<u64>,
    rate_ppm: Option<u32>,
    after: Option<u64>,
    trace_sample: Option<u64>,
    trace_capacity: Option<usize>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve_main(&args[1..]);
    } else {
        shell_main(&args);
    }
}

// ---------------------------------------------------------------- serve

fn serve_main(args: &[String]) {
    let mut config = DatabaseConfig::default();
    let mut process = ProcessArgs::default();
    let mut server_cfg = ServerConfig::default();
    let mut host = "127.0.0.1".to_string();
    let mut port: u16 = 5433;
    let mut serve_seconds: Option<u64> = None;

    let mut argv = args.iter().cloned();
    while let Some(flag) = argv.next() {
        if shared_flag(&flag, &mut argv, &mut config, &mut process) {
            continue;
        }
        match flag.as_str() {
            "--host" => host = argv.next().unwrap_or_else(|| usage()),
            "--port" => port = next_parsed(&mut argv),
            "--max-sessions" => server_cfg.max_sessions = next_parsed(&mut argv),
            "--max-concurrent" => server_cfg.max_concurrent = next_parsed(&mut argv),
            "--queue-depth" => server_cfg.queue_depth = next_parsed(&mut argv),
            "--queue-wait-ms" => server_cfg.queue_wait_ms = next_parsed(&mut argv),
            "--tenant-mem-mb" => server_cfg.tenant_mem_mb = Some(next_parsed(&mut argv)),
            "--tenant-slots" => server_cfg.tenant_slots = next_parsed(&mut argv),
            "--admission-floor-bytes" => {
                server_cfg.admission_floor_bytes = next_parsed(&mut argv)
            }
            "--auth" => server_cfg.auth_token = Some(argv.next().unwrap_or_else(|| usage())),
            "--serve-seconds" => serve_seconds = Some(next_parsed(&mut argv)),
            _ => usage(),
        }
    }
    process.apply(&mut config);
    server_cfg.addr = format!("{host}:{port}");

    let db = Database::with_config(config);
    let server = match Server::start(db, server_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[lardb] cannot bind {host}:{port}: {e}");
            std::process::exit(1);
        }
    };
    println!("lardb serving on {}", server.local_addr());
    let _ = std::io::stdout().flush();

    // Run until "q" on stdin or --serve-seconds elapses (whichever first;
    // EOF on stdin leaves only the deadline, or forever without one).
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { return };
            if matches!(line.trim(), "q" | "quit" | "\\q") {
                let _ = tx.send(());
                return;
            }
        }
    });
    let deadline = serve_seconds.map(|s| Instant::now() + Duration::from_secs(s));
    loop {
        if rx.try_recv().is_ok() {
            break;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    server.shutdown();
    println!("lardb server stopped");
}

// ------------------------------------------------- shell (local/remote)

fn shell_main(args: &[String]) {
    let mut config = DatabaseConfig::default();
    let mut process = ProcessArgs::default();
    let mut connect: Option<String> = None;
    let mut tenant = String::new();
    let mut auth = String::new();
    let mut one_shot: Option<String> = None;

    let mut argv = args.iter().cloned();
    while let Some(flag) = argv.next() {
        if shared_flag(&flag, &mut argv, &mut config, &mut process) {
            continue;
        }
        match flag.as_str() {
            "--connect" => connect = Some(argv.next().unwrap_or_else(|| usage())),
            "--tenant" => tenant = argv.next().unwrap_or_else(|| usage()),
            "--auth" => auth = argv.next().unwrap_or_else(|| usage()),
            "-c" => one_shot = Some(argv.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    process.apply(&mut config);

    match connect {
        Some(addr) => remote_shell(&addr, &tenant, &auth, one_shot),
        None => local_shell(config, one_shot),
    }
}

fn remote_shell(addr: &str, tenant: &str, auth: &str, one_shot: Option<String>) {
    let mut client = match Client::connect(addr, tenant, auth) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[lardb] cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(sql) = one_shot {
        let failed = run_remote_statement(&mut client, &sql, false);
        let _ = client.close();
        std::process::exit(if failed { 1 } else { 0 });
    }

    let mut timing = true;
    println!("lardb — connected to {addr} (session {})", client.session_id());
    println!("end statements with ';', \\q to quit");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    prompt(true);
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if buffer.trim().is_empty() && trimmed.starts_with('\\') {
            buffer.clear();
            match trimmed.split_once(' ').map_or(trimmed, |(c, _)| c) {
                "\\q" | "\\quit" => break,
                "\\timing" => {
                    timing = !timing;
                    println!("timing {}", if timing { "on" } else { "off" });
                }
                other => println!(
                    "unknown meta-command {other} (remote shell: \\q, \\timing; \
                     SHOW SESSIONS / SHOW METRICS / KILL are SQL)"
                ),
            }
            prompt(true);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        while let Some(pos) = buffer.find(';') {
            let stmt: String = buffer.drain(..=pos).collect();
            let stmt = stmt.trim_end_matches(';').trim();
            if stmt.is_empty() {
                continue;
            }
            run_remote_statement(&mut client, stmt, timing);
        }
        if buffer.trim().is_empty() {
            buffer.clear();
        }
        prompt(buffer.is_empty());
    }
    let _ = client.close();
}

/// Returns `true` when the statement failed.
fn run_remote_statement(client: &mut Client, sql: &str, timing: bool) -> bool {
    let t0 = Instant::now();
    let failed = match client.query(sql) {
        Ok(out) => {
            print!("{}", out.display());
            if let QueryOutput::Rows { rows, .. } = &out {
                println!("({} rows)", rows.len());
            }
            false
        }
        Err(ServerError::Saturated { reason }) => {
            println!("rejected (server saturated): {reason}");
            true
        }
        Err(e) => {
            println!("error: {e}");
            true
        }
    };
    if timing {
        println!("time: {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    failed
}

fn local_shell(config: DatabaseConfig, one_shot: Option<String>) {
    let workers = config.workers;
    let db = Database::with_config(config);
    if let Some(sql) = one_shot {
        let failed = run_statement(&db, &sql, false);
        std::process::exit(if failed { 1 } else { 0 });
    }
    let mut timing = true;
    let stdin = std::io::stdin();
    let mut buffer = String::new();

    println!("lardb — scalable linear algebra on a relational database");
    println!("{workers} simulated workers; end statements with ';', \\help for help");
    prompt(buffer.is_empty());

    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();

        // Meta-commands only at the start of a fresh statement.
        if buffer.trim().is_empty() && trimmed.starts_with('\\') {
            buffer.clear();
            let (cmd, rest) = trimmed.split_once(' ').unwrap_or((trimmed, ""));
            match cmd {
                "\\q" | "\\quit" => break,
                "\\d" => {
                    for t in db.catalog().table_names() {
                        let stats = db.catalog().table_stats(&t).unwrap_or_default();
                        let schema = db.catalog().table_schema(&t).unwrap();
                        println!("  {t} {schema}  [{} rows]", stats.num_rows);
                    }
                }
                "\\timing" => {
                    timing = !timing;
                    println!("timing {}", if timing { "on" } else { "off" });
                }
                "\\explain" => match db.explain(rest) {
                    Ok(plan) => println!("{plan}"),
                    Err(e) => println!("error: {e}"),
                },
                "\\metrics" => match db.execute("SHOW METRICS") {
                    Ok(Response::Rows(q)) => print!("{}", q.display_table()),
                    Ok(_) => {}
                    Err(e) => println!("error: {e}"),
                },
                "\\profile" => match db.last_profile() {
                    Some(p) => println!("{}", p.to_json()),
                    None => println!("no query has run yet"),
                },
                "\\trace" => match lardb_obs::recorder().last() {
                    Some(done) => {
                        let json = done.to_chrome_json();
                        if rest.is_empty() {
                            println!("{json}");
                        } else {
                            match std::fs::write(rest, &json) {
                                Ok(()) => println!(
                                    "trace {} written to {rest} ({} bytes)",
                                    done.id,
                                    json.len()
                                ),
                                Err(e) => println!("error: cannot write {rest}: {e}"),
                            }
                        }
                    }
                    None => println!(
                        "no traced query has completed yet \
                         (tracing samples 1-in-N; see --trace-sample)"
                    ),
                },
                "\\help" => {
                    println!("  \\q          quit");
                    println!("  \\d          list tables");
                    println!("  \\timing     toggle per-statement timing");
                    println!("  \\explain Q  show optimized + physical plan for a SELECT");
                    println!("  \\metrics    dump the process-wide metrics registry");
                    println!("  \\profile    print the last query's profile as JSON");
                    println!("  \\trace [F]  dump the last trace as Chrome JSON (to F if given)");
                }
                other => println!("unknown meta-command {other}; try \\help"),
            }
            prompt(true);
            continue;
        }

        buffer.push_str(&line);
        buffer.push('\n');
        // Execute every complete `;`-terminated statement in the buffer.
        while let Some(pos) = buffer.find(';') {
            let stmt: String = buffer.drain(..=pos).collect();
            let stmt = stmt.trim_end_matches(';').trim();
            if stmt.is_empty() {
                continue;
            }
            run_statement(&db, stmt, timing);
        }
        if buffer.trim().is_empty() {
            buffer.clear();
        }
        prompt(buffer.is_empty());
    }
}

/// Returns `true` when the statement failed.
fn run_statement(db: &Database, sql: &str, timing: bool) -> bool {
    let t0 = std::time::Instant::now();
    let failed = match db.execute(sql) {
        Ok(Response::Rows(q)) => {
            print!("{}", q.display_table());
            println!("({} rows)", q.rows.len());
            false
        }
        Ok(Response::Inserted(n)) => {
            println!("inserted {n} rows");
            false
        }
        Ok(Response::Done) => {
            println!("ok");
            false
        }
        Ok(Response::Explained(plan)) => {
            println!("{plan}");
            false
        }
        Err(e) => {
            println!("error: {e}");
            true
        }
    };
    if timing {
        println!("time: {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    failed
}

// -------------------------------------------------------------- helpers

/// Parses one flag shared by the shell and `serve`: a [`lardb::KNOBS`]
/// engine knob or a [`ProcessArgs`] flag. Returns `false` when `flag` is
/// neither (so mode-specific parsing can try it).
fn shared_flag(
    flag: &str,
    argv: &mut impl Iterator<Item = String>,
    config: &mut DatabaseConfig,
    process: &mut ProcessArgs,
) -> bool {
    if Knob::find(flag).is_some() {
        let value = argv.next().unwrap_or_else(|| usage());
        if let Err(e) = config.set(flag, &value) {
            eprintln!("[lardb] {e}");
            usage();
        }
        return true;
    }
    match flag {
        "--fault-kind" => {
            process.kind = Some(
                argv.next().and_then(|v| FaultKind::parse(&v)).unwrap_or_else(|| usage()),
            );
        }
        "--fault-seed" => process.seed = Some(next_parsed(argv)),
        "--fault-rate-ppm" => process.rate_ppm = Some(next_parsed(argv)),
        "--fault-after" => process.after = Some(next_parsed(argv)),
        "--trace-sample" => process.trace_sample = Some(next_parsed(argv)),
        "--trace-capacity" => process.trace_capacity = Some(next_parsed(argv)),
        _ => return false,
    }
    true
}

impl ProcessArgs {
    /// Applies the flight-recorder flags to the process-wide recorder and
    /// arms the fault plan on `config`.
    fn apply(&self, config: &mut DatabaseConfig) {
        let recorder = lardb_obs::recorder();
        match self.trace_sample {
            Some(0) => recorder.set_enabled(false),
            Some(n) => {
                recorder.set_enabled(true);
                recorder.set_sample_every(n);
            }
            None => {}
        }
        if let Some(cap) = self.trace_capacity {
            recorder.set_capacity(cap);
        }
        let Some(kind) = self.kind else {
            if self.rate_ppm.is_some() || self.after.is_some() {
                eprintln!("[lardb] --fault-rate-ppm/--fault-after require --fault-kind");
                usage();
            }
            return;
        };
        let seed = self.seed.unwrap_or(42);
        let mut plan = FaultPlan::new(kind, seed);
        if let Some(ppm) = self.rate_ppm {
            plan.rate_ppm = ppm;
        }
        if let Some(after) = self.after {
            plan.kill_after = after;
        }
        eprintln!(
            "[lardb] fault injection armed: {kind} (seed {seed}, rate {} ppm, kill-after {})",
            plan.rate_ppm, plan.kill_after,
        );
        config.net.faults = Some(plan);
    }
}

fn next_parsed<T: std::str::FromStr>(argv: &mut impl Iterator<Item = String>) -> T {
    argv.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn prompt(fresh: bool) {
    print!("{}", if fresh { "lardb> " } else { "   ... " });
    let _ = std::io::stdout().flush();
}

fn usage() -> ! {
    eprintln!(
        "usage: lardb-cli [engine flags] [-c SQL]                      embedded shell\n       \
         lardb-cli --connect HOST:PORT [--tenant T] [--auth A] [-c SQL]\n       \
         lardb-cli serve [engine flags] [server flags]"
    );
    eprint!("engine flags:\n{}", Knob::usage());
    eprintln!(
        "  [--fault-kind drop|truncate|corrupt|delay|kill] [--fault-seed N] \
         [--fault-rate-ppm N] [--fault-after N]\n  \
         [--trace-sample N (0 = off, N = 1-in-N)] [--trace-capacity N]\n\
         server flags: [--host H] [--port N] [--max-sessions N] \
         [--max-concurrent N] [--queue-depth N] [--queue-wait-ms MS] \
         [--tenant-mem-mb N] [--tenant-slots N] [--admission-floor-bytes N] \
         [--auth TOKEN] [--serve-seconds N]"
    );
    std::process::exit(2);
}
