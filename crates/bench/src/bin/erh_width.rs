//! ERH wave width: wall time of one request wave on a handler pinned to 4
//! threads versus the elastic handler of a 13-endpoint federation, for
//! waves that wait (sleep, like a network round trip) and waves that
//! compute (spin, like a zero-latency endpoint or a join partition).
//!
//! The elastic handler should finish a waiting wave of n > 4 tasks in about
//! one task time plus the 1 ms ramp interval instead of ⌈n/4⌉ task times,
//! and should match the pinned handler on computing waves, which deliver
//! results faster than the ramp and never widen.
//!
//! `cargo run -p lusail-bench --bin erh_width --release --offline`

use lusail_bench::{write_bench_json, BenchRecord};
use lusail_federation::RequestHandler;
use std::time::{Duration, Instant};

const SAMPLES: usize = 25;
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
        "=== ERH wave wall time, {SAMPLES} samples per row ({} logical CPUs) ===",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:<18}{:>16}{:>12}{:>10}{:>10}{:>8}",
        "wave", "handler", "median(ms)", "p95(ms)", "ramped", "peak"
    );
    let mut records = Vec::new();
    for n in [4usize, 13, 52] {
        for (kind, task) in kinds {
            for handler in [RequestHandler::new(4), RequestHandler::elastic(ENDPOINTS)] {
                handler.run(vec![task; n]); // warm the thread stacks
                let mut samples_ms: Vec<f64> = (0..SAMPLES)
                    .map(|_| {
                        let start = Instant::now();
                        handler.run(vec![task; n]);
                        start.elapsed().as_secs_f64() * 1000.0
                    })
                    .collect();
                let snap = handler.snapshot();
                let record = BenchRecord::from_samples(
                    format!("n{n}/{kind}"),
                    format!("erh-{}..{}", snap.floor, snap.ceiling),
                    n as u64,
                    &mut samples_ms,
                );
                println!(
                    "{:<18}{:>16}{:>12.3}{:>10.3}{:>10}{:>8}",
                    record.query,
                    record.codec,
                    record.elapsed_ms,
                    record.p95_ms,
                    format!("{}/{}", snap.ramped_waves, snap.waves),
                    snap.peak_width
                );
                records.push(record);
            }
        }
    }
    match write_bench_json("erh_width", &records) {
        Ok(path) => println!("\nwrote {path} ({} records)", records.len()),
        Err(e) => eprintln!("\nfailed to write BENCH_erh_width.json: {e}"),
    }
}
