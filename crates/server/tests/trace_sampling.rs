//! Served queries honour the flight recorder's sampling policy.
//!
//! The server mints (or, when the query is not sampled, skips) each
//! query's trace before admission, under the session's tenant. The
//! engine must run the query under exactly that decision: it must not
//! mint a second, `embedded` trace for a query the server chose not to
//! trace. Sampling is process-global, so this file holds one test.

use lardb::{Database, DatabaseConfig};
use lardb_server::{Client, Server, ServerConfig};

#[test]
fn unsampled_served_queries_are_not_retraced_as_embedded() {
    const QUERIES: usize = 20;
    const MARKER: &str = "SELECT COUNT(*) AS trace_sampling_marker FROM t";

    let db = Database::with_config(DatabaseConfig {
        workers: 2,
        trace_sample: Some(2),
        ..DatabaseConfig::default()
    });
    db.execute("CREATE TABLE t (id INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let server = Server::start(db, ServerConfig::default()).unwrap();

    let mut client =
        Client::connect(&server.local_addr().to_string(), "acme", "").unwrap();
    for _ in 0..QUERIES {
        client.query(MARKER).unwrap();
    }
    let prepared = client.prepare(MARKER).unwrap();
    for _ in 0..QUERIES {
        client.execute(prepared).unwrap();
    }
    client.close().unwrap();
    server.shutdown();

    let traced: Vec<_> = lardb_obs::recorder()
        .completed_snapshot()
        .into_iter()
        .filter(|t| t.sql == MARKER)
        .collect();
    for t in &traced {
        assert_eq!(t.tenant, "acme", "served query traced under the wrong tenant");
    }
    assert!(!traced.is_empty(), "1-in-2 sampling traced none of the queries");
    assert!(
        traced.len() < 2 * QUERIES,
        "sampling defeated: {} of {} served queries traced",
        traced.len(),
        2 * QUERIES
    );
}
