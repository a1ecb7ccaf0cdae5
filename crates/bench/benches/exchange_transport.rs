//! Transport ablation: what does real serialization cost?
//!
//! The simulation's `pointer` exchanges hand `Arc` pointers between
//! threads and only *estimate* shuffle bytes; `serialized` mode encodes
//! every boundary-crossing batch through the `lardb-net` wire codec and
//! ships it over bounded channels, metering actual bytes. This bench
//! runs the vector-based Gram computation (`SUM(outer_product(x, x))`)
//! at the paper's three dimensionalities under both modes, isolating the
//! codec + channel overhead the simulation otherwise abstracts away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lardb::{DataType, Database, DatabaseConfig, Partitioning, Schema, TransportMode};
use lardb_storage::gen;

const N: usize = 400;
const WORKERS: usize = 4;

fn gram_db(dims: usize, transport: TransportMode) -> Database {
    let db = Database::with_config(DatabaseConfig {
        workers: WORKERS,
        transport,
        ..DatabaseConfig::default()
    });
    db.create_table(
        "x_vm",
        Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("value", DataType::Vector(Some(dims))),
        ]),
        Partitioning::RoundRobin,
    )
    .unwrap();
    db.insert_rows("x_vm", gen::vector_rows(42, N, dims)).unwrap();
    db
}

fn bench_exchange_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange_transport");
    group.sample_size(10);
    for dims in [10usize, 100, 1000] {
        for transport in [TransportMode::Pointer, TransportMode::Serialized] {
            let db = gram_db(dims, transport);
            group.bench_with_input(
                BenchmarkId::new(format!("gram_{}", transport.label()), dims),
                &dims,
                |b, _| {
                    b.iter(|| {
                        db.query(
                            "SELECT SUM(outer_product(x.value, x.value)) AS g \
                             FROM x_vm AS x",
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_exchange_transport);
criterion_main!(benches);
