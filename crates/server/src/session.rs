//! One connection's lifecycle: handshake, query loop, result streaming,
//! kill and disconnect handling.
//!
//! Each session owns its socket and runs queries on a helper thread so
//! the socket stays pollable while a query executes: a `Kill` for any
//! query, a `Close`, or an EOF (client vanished) arriving mid-query is
//! acted on immediately — disconnects cancel the running query through
//! its [`CancelToken`], which the executor's morsel loops poll. The
//! session never returns to the idle loop until the helper thread has
//! finished, so governor reservations and spill files are provably
//! released before the session is deregistered.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lardb::{CancelToken, Database, EngineError, PreparedStatement, QueryResult, Response, Stmt};
use lardb_exec::ExecError;
use lardb_net::codec::{checksum_update, FinSummary, Frame, CHECKSUM_SEED};
use lardb_net::{msg, Message};

use crate::wire::{recv_message, send_message, Recv};
use crate::Shared;

/// Socket poll granularity: how quickly the session notices shutdown,
/// kill traffic, and disconnects.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// How long a fresh connection may sit silent before `Hello`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Rows per result frame (matches the exchange's batching scale).
const ROWS_PER_FRAME: usize = 256;

/// Serves one accepted connection to completion. Errors are terminal for
/// the connection only; the server keeps running.
pub(crate) fn run(shared: &Shared, mut stream: TcpStream, peer: SocketAddr) {
    if stream.set_read_timeout(Some(POLL_TIMEOUT)).is_err() {
        return;
    }
    // Session cap: this connection was already counted by the accept
    // loop, so `>` (not `>=`) means someone beyond the cap.
    if shared.connections.load(Ordering::SeqCst) > shared.cfg.max_sessions {
        lardb_obs::global().counter("server.sessions_rejected").inc();
        let _ = send_message(
            &mut stream,
            &Message::Error {
                code: msg::ERR_SATURATED,
                message: format!("server at max sessions ({})", shared.cfg.max_sessions),
            },
        );
        return;
    }
    let Some(tenant) = handshake(shared, &mut stream) else {
        return;
    };
    let session_id = shared.db.sessions().open(&tenant, &peer.to_string());
    let db = shared
        .tenant_db(&tenant)
        .with_session_label(format!("session {session_id} tenant {tenant}"));
    if send_message(
        &mut stream,
        &Message::Ok { code: msg::OK_HELLO, value: session_id, text: tenant.clone() },
    )
    .is_err()
    {
        shared.db.sessions().close(session_id);
        return;
    }
    serve_session(shared, &db, &mut stream, session_id, &tenant);
    shared.db.sessions().close(session_id);
}

/// Waits for `Hello` and validates auth. Returns the tenant name, or
/// `None` when the connection should just be dropped.
fn handshake(shared: &Shared, stream: &mut TcpStream) -> Option<String> {
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    loop {
        match recv_message(stream) {
            Ok(Recv::Msg(Message::Hello { tenant, auth })) => {
                if let Some(expected) = &shared.cfg.auth_token {
                    if &auth != expected {
                        let _ = send_message(
                            stream,
                            &Message::Error {
                                code: msg::ERR_AUTH,
                                message: "bad auth token".to_string(),
                            },
                        );
                        return None;
                    }
                }
                let tenant = if tenant.is_empty() { "default".to_string() } else { tenant };
                return Some(tenant);
            }
            Ok(Recv::Msg(_)) => {
                let _ = send_message(
                    stream,
                    &Message::Error {
                        code: msg::ERR_PROTOCOL,
                        message: "expected HELLO first".to_string(),
                    },
                );
                return None;
            }
            Ok(Recv::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline {
                    return None;
                }
            }
            Ok(Recv::Closed) | Err(_) => return None,
        }
    }
}

/// The post-handshake request loop.
fn serve_session(
    shared: &Shared,
    db: &Database,
    stream: &mut TcpStream,
    session_id: u64,
    tenant: &str,
) {
    // Statements prepared on this session: parsed (and, for cacheable
    // SELECTs, bound + optimized into the shared plan cache) exactly once
    // at Prepare; every Execute reuses the stored handle instead of
    // re-planning the SQL text. Keyed by statement id — sessions
    // accumulate statements, so lookup must not degrade linearly.
    let mut prepared: HashMap<u64, PreparedStatement> = HashMap::new();
    let mut next_stmt: u64 = 1;
    loop {
        match recv_message(stream) {
            Ok(Recv::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(Recv::Closed) | Err(_) => return,
            Ok(Recv::Msg(message)) => match message {
                Message::Query { sql } => {
                    if run_query(shared, db, stream, session_id, tenant, &sql, None).is_err() {
                        return;
                    }
                }
                Message::Prepare { sql } => {
                    let reply = match db.prepare(&sql) {
                        Ok(stmt) => {
                            let id = next_stmt;
                            next_stmt += 1;
                            prepared.insert(id, stmt);
                            Message::Ok { code: msg::OK_PREPARED, value: id, text: String::new() }
                        }
                        Err(e) => {
                            Message::Error { code: msg::ERR_QUERY, message: e.to_string() }
                        }
                    };
                    if send_message(stream, &reply).is_err() {
                        return;
                    }
                }
                Message::Execute { stmt_id } => {
                    match prepared.get(&stmt_id) {
                        Some(stmt) => {
                            let stmt = stmt.clone();
                            if run_query(
                                shared,
                                db,
                                stream,
                                session_id,
                                tenant,
                                stmt.sql(),
                                Some(&stmt),
                            )
                            .is_err()
                            {
                                return;
                            }
                        }
                        None => {
                            let reply = Message::Error {
                                code: msg::ERR_QUERY,
                                message: format!("unknown prepared statement id {stmt_id}"),
                            };
                            if send_message(stream, &reply).is_err() {
                                return;
                            }
                        }
                    }
                }
                Message::Kill { query_id } => {
                    if send_message(stream, &kill_reply(db, query_id)).is_err() {
                        return;
                    }
                }
                Message::Close => {
                    let _ = send_message(
                        stream,
                        &Message::Ok { code: msg::OK_CLOSED, value: session_id, text: String::new() },
                    );
                    return;
                }
                other => {
                    let reply = Message::Error {
                        code: msg::ERR_PROTOCOL,
                        message: format!("unexpected message in idle session: {other:?}"),
                    };
                    if send_message(stream, &reply).is_err() {
                        return;
                    }
                }
            },
        }
    }
}

fn kill_reply(db: &Database, query_id: u64) -> Message {
    if db.sessions().kill(query_id) {
        Message::Ok { code: msg::OK_KILLED, value: query_id, text: String::new() }
    } else {
        Message::Error {
            code: msg::ERR_QUERY,
            message: format!("no running query with id {query_id} (see SHOW SESSIONS)"),
        }
    }
}

/// Admits, executes, and streams one query. `Err(())` means the
/// connection is gone and the session should end; protocol-level
/// failures (saturation, query errors) are replies, not `Err`. With
/// `prepared`, execution reuses the stored parse tree and shape key
/// instead of re-planning `sql`.
#[allow(clippy::too_many_arguments)]
fn run_query(
    shared: &Shared,
    db: &Database,
    stream: &mut TcpStream,
    session_id: u64,
    tenant: &str,
    sql: &str,
    prepared: Option<&PreparedStatement>,
) -> Result<(), ()> {
    // Mint the trace BEFORE admission so queue wait is on the trace; the
    // recorder applies its sampling policy here.
    let trace = lardb_obs::recorder().start(sql, tenant);
    let floor_gov = shared.floor_governor(tenant);
    let t_admit = Instant::now();
    let permit = match shared.admission.admit(tenant, floor_gov.as_ref()) {
        Ok(p) => p,
        Err(e) => {
            let (code, reason) = match e {
                crate::ServerError::Saturated { reason } => (msg::ERR_SATURATED, reason),
                other => (msg::ERR_QUERY, other.to_string()),
            };
            if let Some(t) = &trace {
                lardb_obs::recorder().finish(t, Some(&reason));
            }
            let message = match &trace {
                Some(t) => format!("{reason} [trace {}]", t.id()),
                None => reason,
            };
            return send_message(stream, &Message::Error { code, message }).map_err(drop);
        }
    };
    let queue_wait = t_admit.elapsed();
    lardb_obs::global()
        .histogram(&format!("server.tenant.{tenant}.queue_wait_ms"))
        .observe(queue_wait.as_millis() as u64);
    if let Some(t) = &trace {
        t.set_queue_wait_us(queue_wait.as_micros() as u64);
        t.record(
            "admission.wait",
            "admission",
            t_admit,
            queue_wait,
            vec![("tenant", tenant.to_string())],
        );
    }

    let cancel = CancelToken::new();
    let query_id = db.sessions().begin_query(session_id, sql, &cancel);
    if let Some(t) = &trace {
        t.set_query_id(query_id);
    }

    // Execute on a helper thread so this thread can keep polling the
    // socket for Kill/Close/disconnect.
    let (tx, rx) = mpsc::channel();
    let exec_db = db.clone();
    let exec_sql = sql.to_string();
    let exec_cancel = cancel.clone();
    let exec_trace = trace.clone();
    let exec_prepared = prepared.cloned();
    let exec = std::thread::Builder::new()
        .name(format!("lardb-query-{query_id}"))
        .spawn(move || {
            let stmt = exec_prepared.as_ref().map_or(Stmt::Sql(&exec_sql), Stmt::Prepared);
            let result = exec_db.execute_with(stmt, &exec_cancel, exec_trace.as_ref());
            let _ = tx.send(result);
        });
    let exec = match exec {
        Ok(h) => h,
        Err(e) => {
            db.sessions().end_query(session_id);
            drop(permit);
            return send_message(
                stream,
                &Message::Error {
                    code: msg::ERR_QUERY,
                    message: format!("could not spawn query thread: {e}"),
                },
            )
            .map_err(drop);
        }
    };

    let mut disconnected = false;
    let result = loop {
        match rx.try_recv() {
            Ok(result) => break result,
            Err(mpsc::TryRecvError::Disconnected) => {
                break Err(EngineError::Exec(ExecError::Cancelled(
                    "query thread died".to_string(),
                )))
            }
            Err(mpsc::TryRecvError::Empty) => {}
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            cancel.cancel();
        }
        // The read timeout doubles as the poll tick.
        match recv_message(stream) {
            Ok(Recv::TimedOut) => {}
            Ok(Recv::Closed) | Err(_) => {
                // Client vanished mid-query: cancel and wait for the
                // executor to unwind (releasing memory + spill files).
                cancel.cancel();
                disconnected = true;
                break rx.recv().unwrap_or_else(|_| {
                    Err(EngineError::Exec(ExecError::Cancelled(
                        "query thread died".to_string(),
                    )))
                });
            }
            Ok(Recv::Msg(Message::Kill { query_id: target })) => {
                // In-band kill (possibly of this very query). The ack is
                // sent before any result frames.
                if send_message(stream, &kill_reply(db, target)).is_err() {
                    cancel.cancel();
                    disconnected = true;
                }
            }
            Ok(Recv::Msg(Message::Close)) => {
                // Orderly close while a query runs: abort it, then close.
                cancel.cancel();
                let result = rx.recv().unwrap_or_else(|_| {
                    Err(EngineError::Exec(ExecError::Cancelled(
                        "query thread died".to_string(),
                    )))
                });
                let _ = exec.join();
                db.sessions().end_query(session_id);
                drop(permit);
                drop(result);
                let _ = send_message(
                    stream,
                    &Message::Ok { code: msg::OK_CLOSED, value: session_id, text: String::new() },
                );
                return Err(());
            }
            Ok(Recv::Msg(other)) => {
                let reply = Message::Error {
                    code: msg::ERR_PROTOCOL,
                    message: format!("unexpected message while a query is running: {other:?}"),
                };
                if send_message(stream, &reply).is_err() {
                    cancel.cancel();
                    disconnected = true;
                }
            }
        }
    };

    let _ = exec.join();
    db.sessions().end_query(session_id);
    drop(permit);
    lardb_obs::global()
        .histogram(&format!("server.tenant.{tenant}.query_ms"))
        .observe(t_admit.elapsed().saturating_sub(queue_wait).as_millis() as u64);

    if disconnected {
        drop(result);
        return Err(());
    }
    // Correlation stamp for error replies and the result stream: the
    // query id (always) and the trace id (when this query was sampled).
    let ids = match &trace {
        Some(t) => format!(" [query {query_id} trace {}]", t.id()),
        None => format!(" [query {query_id}]"),
    };
    let trace_id = trace.as_ref().map(|t| t.id().0);
    match result {
        Ok(Response::Rows(q)) => stream_rows(stream, q, trace_id).map_err(drop),
        Ok(Response::Done) => send_message(
            stream,
            &Message::Ok { code: msg::OK_DONE, value: 0, text: String::new() },
        )
        .map_err(drop),
        Ok(Response::Inserted(n)) => send_message(
            stream,
            &Message::Ok { code: msg::OK_INSERTED, value: n as u64, text: String::new() },
        )
        .map_err(drop),
        Ok(Response::Explained(text)) => {
            send_message(stream, &Message::Ok { code: msg::OK_TEXT, value: 0, text })
                .map_err(drop)
        }
        Err(EngineError::Exec(ExecError::Cancelled(m))) => send_message(
            stream,
            &Message::Error { code: msg::ERR_KILLED, message: format!("{m}{ids}") },
        )
        .map_err(drop),
        Err(e) => send_message(
            stream,
            &Message::Error { code: msg::ERR_QUERY, message: format!("{e}{ids}") },
        )
        .map_err(drop),
    }
}

/// Streams a result as exchange-format data frames: an optional trace
/// frame (when the query was traced), schema, row batches, then a fin
/// summary the client re-verifies (frames / rows / checksum).
fn stream_rows(
    stream: &mut TcpStream,
    q: QueryResult,
    trace_id: Option<u64>,
) -> std::io::Result<()> {
    let mut frames: u64 = 0;
    let mut checksum = CHECKSUM_SEED;
    let mut send_data = |stream: &mut TcpStream, frame: Frame| -> std::io::Result<()> {
        let bytes = lardb_net::encode_message(&Message::Data(frame));
        checksum = checksum_update(checksum, &bytes);
        frames += 1;
        crate::wire::send_bytes(stream, &bytes)
    };
    if let Some(id) = trace_id {
        send_data(stream, Frame::Trace(id))?;
    }
    send_data(stream, Frame::Schema(q.schema))?;
    let total_rows = q.rows.len() as u64;
    for chunk in q.rows.chunks(ROWS_PER_FRAME) {
        send_data(stream, Frame::Rows(chunk.to_vec()))?;
    }
    let fin = FinSummary { frames, rows: total_rows, checksum };
    send_message(stream, &Message::Data(Frame::Fin(fin)))
}
