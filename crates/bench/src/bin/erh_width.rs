//! ERH wave width: wall time of one request wave on a handler pinned to 4
//! threads versus the elastic handler of a 13-endpoint federation, for
//! waves that wait (sleep, like a network round trip) and waves that
//! compute (spin, like a zero-latency endpoint or a join partition).
//!
//! The elastic handler runs a wave on `min(n, 13)` threads from the start:
//! a waiting wave of n > 4 tasks should take ⌈n/13⌉ task times instead of
//! ⌈n/4⌉, and a computing wave about what the pinned handler takes — the
//! cores are the same, only more threads share them.
//!
//! `cargo run -p lusail-bench --bin erh_width --release --offline`

use lusail_bench::{sample, write_records, Record};
use lusail_federation::RequestHandler;
use std::convert::Infallible;
use std::time::{Duration, Instant};

/// One warm-up wave (the thread stacks), then the samples.
const RUNS: usize = 26;
const ENDPOINTS: usize = 13;

fn spin(d: Duration) {
    let until = Instant::now() + d;
    let mut x = 1u64;
    while Instant::now() < until {
        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
    }
}

fn main() {
    let kinds: [(&str, fn()); 2] = [
        ("sleep4ms", || std::thread::sleep(Duration::from_millis(4))),
        ("spin200us", || spin(Duration::from_micros(200))),
    ];
    println!(
        "=== ERH wave wall time, {} samples per row ({} logical CPUs) ===",
        RUNS - 1,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:<18}{:>16}{:>12}{:>10}{:>8}",
        "wave", "handler", "median(ms)", "p95(ms)", "peak"
    );
    let mut records = Vec::new();
    for n in [4usize, 13, 52] {
        for (kind, task) in kinds {
            for handler in [RequestHandler::new(4), RequestHandler::elastic(ENDPOINTS)] {
                let Ok(sampled) = sample(RUNS, || {
                    handler.run(vec![task; n]);
                    Ok::<_, Infallible>(())
                });
                let snap = handler.snapshot();
                let record = Record::new(
                    format!("erh-{}..{}", snap.floor, snap.ceiling),
                    format!("n{n}/{kind}"),
                    n as u64,
                    sampled.ms,
                );
                println!(
                    "{:<18}{:>16}{:>12.3}{:>10.3}{:>8}",
                    record.query, record.system, record.elapsed_ms, record.p95_ms, snap.peak_width
                );
                records.push(record);
            }
        }
    }
    write_records("erh_width", &records);
}
