//! The benchmark's inputs and exact counts are a function of the seed:
//! the same seed gives the same op script and, op for op, the same
//! crypto ops, log bytes, cache hits and misses, and records replayed
//! on reopen; another seed gives another script. Only timings vary.
//!
//! The crypto is slow in a debug build: run with `cargo test --release`.

use mabe_cloud::DurableSystem;
use mabe_perfbench::runner::{copy_disk, OpResult};
use mabe_perfbench::script::{Script, Workload};
use mabe_perfbench::{measure, setup};

/// Everything exact about one op: the result minus its timing.
fn counts(r: &OpResult) -> String {
    format!(
        "{:?} {:?} {:?} hits {} misses {} chain {}/{} log {} ckpt {} up {} wire {} queue {}",
        r.kind,
        r.outcome,
        r.ops,
        r.content_hits,
        r.content_misses,
        r.chain_hits,
        r.chain_misses,
        r.wal_bytes,
        r.checkpoints,
        r.upgrades,
        r.wire_bytes,
        r.queue_depth
    )
}

/// Runs a shortened copy of the workload's script and returns its exact
/// counts plus the records replayed when the final image is reopened.
fn run(script: &Script) -> (Vec<String>, usize) {
    let s = setup(script).expect("set-up");
    let mut bench = s.bench;
    let mut lines: Vec<String> = s.warmup.iter().map(counts).collect();
    let m = measure(&mut bench, &script.ops, None);
    lines.extend(m.results.iter().map(counts));
    let (_, open) =
        DurableSystem::open(copy_disk(&bench.durable.storage()), script.seed).expect("reopen");
    (lines, open.records_replayed)
}

fn short(workload: Workload, seed: u64, ops: usize) -> Script {
    let mut script = Script::generate(workload, seed, 1);
    script.warmup.truncate(24);
    script.ops.truncate(ops);
    script
}

#[test]
fn same_seed_same_script_other_seed_other_script() {
    for w in Workload::ALL {
        let a = Script::generate(w, 7, 2);
        let b = Script::generate(w, 7, 2);
        assert_eq!(a.ops, b.ops, "{}: ops", w.name());
        assert_eq!(a.warmup, b.warmup, "{}: warm-up", w.name());
        assert_eq!(
            format!("{:?}", a.spec),
            format!("{:?}", b.spec),
            "{}: spec",
            w.name()
        );
        let c = Script::generate(w, 8, 2);
        assert_ne!(a.ops, c.ops, "{}: another seed, another script", w.name());
    }
}

// One test runs every workload: the log-byte and upgrade counts come
// from process-wide counters, which parallel tests would disturb.
#[test]
fn same_seed_same_counts() {
    for (w, ops) in [
        (Workload::ReadHot, 200),
        (Workload::ReadCold, 24),
        (Workload::RevokeChurn, 40),
    ] {
        let script = short(w, 3, ops);
        let (first, replayed_first) = run(&script);
        let (second, replayed_second) = run(&script);
        assert_eq!(first.len(), second.len());
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            assert_eq!(a, b, "{}: op {i} counts differ", w.name());
        }
        assert_eq!(
            replayed_first,
            replayed_second,
            "{}: records replayed",
            w.name()
        );
    }
}
