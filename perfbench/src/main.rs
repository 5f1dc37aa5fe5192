//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): sets the workload's system up three times
//! (reporting the median), runs the measured script once, reopens the
//! image it left once to check it, reopens a compacted copy five times,
//! and prints every end-to-end metric.
//! Traced (`--trace 1`): runs the script four times on fresh systems —
//! shipped defaults, wide events off, with `bench.<op>` root spans folded
//! from the flight recorder, and shipped defaults again — then times the
//! lower layers directly, and prints every per-layer metric.
//!
//! Human-readable lines come first; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use mabe_cloud::DurableSystem;
use mabe_perfbench::clock::{Clock, Work, REFERENCE_NS};
use mabe_perfbench::layers::{unit_costs, SpanFold};
use mabe_perfbench::runner::{copy_disk, Bench, OpResult, Outcome};
use mabe_perfbench::script::{Op, OpKind, Script, Workload};
use mabe_perfbench::stats::{
    best_supported, distance_to_class_boundary, median, percentile, rank, supported,
};
use mabe_perfbench::{measure, setup, Setup};
use mabe_policy::{parse, AccessStructure};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reopens of the final image per untraced run; `reopen_s` is their
/// median.
const REOPENS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What one run prints.
struct Report {
    lines: Vec<String>,
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new(header: String) -> Report {
        Report {
            lines: vec![header],
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.lines.push(format!("{name} {value:.6} {unit}"));
        self.metrics.push((name.to_owned(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN; a value that could not be measured has
                // already failed a check, so `correct` is false.
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// An op's latency at the reference machine speed, ms.
fn ms(r: &OpResult) -> f64 {
    r.ref_ns / 1e6
}

/// The deterministic latency class of an op, from the work the script
/// made it do: 0 for an op that did no pairing work (a content-cache
/// hit, a refusal), 1 for one that decrypted or re-encrypted, 2 for one
/// that also paid for a checkpoint inline. Latency jumps by an order of
/// magnitude between these classes, so a percentile sitting on a
/// boundary between them would flip between runs.
fn class(r: &OpResult) -> u64 {
    if r.checkpoints > 0 {
        2
    } else if r.ops.pairings > 0 || r.upgrades > 0 {
        1
    } else {
        0
    }
}

/// `(class, ms)` of the ops of `kind` whose outcome the oracle accepted.
fn samples(results: &[OpResult], kind: OpKind) -> Vec<(u64, f64)> {
    results
        .iter()
        .filter(|r| r.kind == kind && r.succeeded())
        .map(|r| (class(r), ms(r)))
        .collect()
}

fn sorted_ms(samples: &[(u64, f64)]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|s| s.1).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Prints the latency line of `kind` (median and best-supported tail,
/// with the sample count) and returns the sorted samples.
fn latency_lines(report: &mut Report, results: &[OpResult], kind: OpKind) -> Vec<(u64, f64)> {
    let s = samples(results, kind);
    let sorted = sorted_ms(&s);
    let n = sorted.len();
    let name = kind.name();
    if !supported(50.0, n) {
        if n > 0 {
            report.lines.push(format!(
                "{name} latency: {n} samples, too few for a median (max {:.3} ms)",
                sorted[n - 1]
            ));
        }
        return s;
    }
    let tail = best_supported(99.0, n).expect("p50 is supported");
    let mut raw: Vec<f64> = results
        .iter()
        .filter(|r| r.kind == kind && r.succeeded())
        .map(|r| r.ns as f64 / 1e6)
        .collect();
    raw.sort_by(f64::total_cmp);
    report.lines.push(format!(
        "{name} latency: p50 {:.3} ms, p{tail} {:.3} ms (raw {:.3}, {:.3}) (n={n}, {} classes)",
        percentile(&sorted, 50.0),
        percentile(&sorted, tail),
        percentile(&raw, 50.0),
        percentile(&raw, tail),
        s.iter()
            .map(|c| c.0)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    ));
    s
}

/// A percentile that goes into the JSON: it must be supported and sit
/// clear of every class boundary of the deterministic script.
fn gated_percentile(report: &mut Report, s: &[(u64, f64)], p: f64, what: &str) -> f64 {
    let sorted = sorted_ms(s);
    let n = sorted.len();
    if !supported(p, n) {
        report.failures.push(format!(
            "{what}: p{p} needs 10 samples beyond it, have n={n}"
        ));
        return f64::NAN;
    }
    let margin = 5.max(n / 100);
    let d = distance_to_class_boundary(s, rank(p, n));
    report.lines.push(if d == usize::MAX {
        format!("{what}: rank {} of {n}, one latency class", rank(p, n))
    } else {
        format!(
            "{what}: rank {} of {n}, {d} ranks from the nearest class boundary",
            rank(p, n)
        )
    });
    if d < margin {
        report.failures.push(format!(
            "{what}: p{p} sits {d} ranks from a latency-class boundary (need {margin})"
        ));
    }
    percentile(&sorted, p)
}

/// Oracle verdicts over set-up warm-up and measured ops.
fn oracle(report: &mut Report, setup: &Setup, results: &[OpResult]) {
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    for r in &setup.warmup {
        match &r.outcome {
            Outcome::Ok | Outcome::Denied => {}
            Outcome::Unexpected(e) | Outcome::Violation(e) => {
                report.failures.push(format!("warm-up op failed: {e}"));
            }
        }
    }
    let mut violations = 0;
    let mut denied = 0;
    for r in results {
        match &r.outcome {
            Outcome::Ok => {}
            Outcome::Denied => denied += 1,
            Outcome::Unexpected(e) => {
                report.failed += 1;
                *kinds.entry(e.clone()).or_default() += 1;
            }
            Outcome::Violation(e) => {
                violations += 1;
                if violations <= 5 {
                    report.failures.push(format!("oracle violation: {e}"));
                }
            }
        }
    }
    report.attempted = results.len();
    report.lines.push(format!(
        "oracle: {} ops, {denied} correctly denied, {} unexpected errors, {violations} violations",
        results.len(),
        report.failed
    ));
    report.lines.push(format!(
        "error_share {:.6} (unexpected errors / ops attempted)",
        report.failed as f64 / results.len().max(1) as f64
    ));
    for (e, n) in kinds {
        report.lines.push(format!("  unexpected x{n}: {e}"));
    }
    if violations > 5 {
        report
            .failures
            .push(format!("{} more oracle violations", violations - 5));
    }
}

/// The workload-identity self-checks: each workload must still be the
/// workload its name says.
fn identity_checks(report: &mut Report, script: &Script, bench: &Bench, results: &[OpResult]) {
    let reads: Vec<&OpResult> = results.iter().filter(|r| r.kind == OpKind::Read).collect();
    let hits: u64 = reads.iter().map(|r| r.content_hits).sum();
    let misses: u64 = reads.iter().map(|r| r.content_misses).sum();
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    report.lines.push(format!(
        "content-cache hit ratio {ratio:.4} ({hits} hits, {misses} misses)"
    ));
    match script.workload {
        Workload::ReadHot if ratio < 0.9 => report
            .failures
            .push(format!("read_hot: content hit ratio {ratio:.3} < 0.9")),
        Workload::ReadCold if ratio > 0.2 => report
            .failures
            .push(format!("read_cold: content hit ratio {ratio:.3} > 0.2")),
        _ => {}
    }
    if script.workload == Workload::ReadCold {
        // n_A + 2·|I| pairings per decrypting read, none on a hit.
        let expected: Vec<u64> = script
            .spec
            .records
            .iter()
            .map(|rec| {
                let access = AccessStructure::from_policy(&parse(&rec.policy).expect("policy"))
                    .expect("lsss");
                let held = &bench.model.held[0];
                let rows = access
                    .reconstruction_coefficients(held)
                    .map_or(0, |w| w.len()) as u64;
                access.authorities().len() as u64 + 2 * rows
            })
            .collect();
        let mut checked = 0;
        let mut wrong = 0;
        for (op, r) in script.ops.iter().zip(results) {
            if let (Op::Read { record, .. }, true) = (op, r.succeeded()) {
                checked += 1;
                let want = r.content_misses * expected[*record];
                if r.ops.pairings != want {
                    wrong += 1;
                }
            }
        }
        report.lines.push(format!(
            "pairings per read = n_A + 2|I| on misses, 0 on hits: {} of {checked} reads",
            checked - wrong
        ));
        if wrong > 0 {
            report.failures.push(format!(
                "read_cold: {wrong} reads broke the n_A + 2|I| pairing count"
            ));
        }
    }
    if script.workload == Workload::RevokeChurn {
        let checkpoints: u64 = results.iter().map(|r| r.checkpoints).sum();
        let depth_max = results.iter().map(|r| r.queue_depth).max().unwrap_or(0);
        let depth_end = results.last().map_or(0, |r| r.queue_depth);
        report.lines.push(format!(
            "revoke_churn: {checkpoints} checkpoints, lazy queue max {depth_max}, end {depth_end}"
        ));
        if checkpoints < 3 {
            report
                .failures
                .push(format!("revoke_churn: only {checkpoints} checkpoints"));
        }
        if depth_max == 0 || depth_end != 0 {
            report.failures.push(format!(
                "revoke_churn: lazy queue max {depth_max}, end {depth_end} (want >0, 0)"
            ));
        }
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn per_op_counts(report: &mut Report, results: &[OpResult]) {
    for kind in OpKind::ALL {
        let rs: Vec<&OpResult> = results.iter().filter(|r| r.kind == kind).collect();
        if rs.is_empty() {
            continue;
        }
        let n = rs.len() as f64;
        let sum = |f: fn(&OpResult) -> u64| rs.iter().map(|r| f(r)).sum::<u64>() as f64 / n;
        report.lines.push(format!(
            "per {}: n={} pairings {:.3} g1_muls {:.3} gt_pows {:.3} h2c {:.3} \
             log_bytes {:.1} wire_bytes {:.1} checkpoints {:.4} upgrades {:.4}",
            kind.name(),
            rs.len(),
            sum(|r| r.ops.pairings),
            sum(|r| r.ops.g1_muls),
            sum(|r| r.ops.gt_pows),
            sum(|r| r.ops.hash_to_curve),
            sum(|r| r.wal_bytes),
            sum(|r| r.wire_bytes),
            sum(|r| r.checkpoints),
            sum(|r| r.upgrades),
        ));
    }
}

fn untraced(args: &Args, script: &Script) -> Result<Report, String> {
    let mut report = Report::new(format!(
        "workload {} seed {} ops {} (script length from --seconds {})",
        script.workload.name(),
        args.seed,
        script.ops.len(),
        args.seconds
    ));
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let s = setup(script)?;
        report.lines.push(format!(
            "set-up: build {:.3} s, warm-up {:.3} s ({} ops); {:.3} s at reference speed",
            s.build_seconds,
            s.seconds - s.build_seconds,
            s.warmup.len(),
            s.ref_seconds
        ));
        setup_times.push(s.ref_seconds);
        last = Some(s);
    }
    let mut s = last.expect("SETUPS > 0");
    let gen0 = s.bench.durable.generation();
    let m = measure(&mut s.bench, &script.ops, None);
    let results = m.results;
    report.lines.push(format!(
        "measured phase: {:.3} s, {:.3} s at reference speed; calibration slices (field, bytes) \
         median {:.1}, {:.1} us over {} slices (reference {:.1}, {:.1} us)",
        m.seconds,
        m.ref_seconds,
        m.calibration.0[0] / 1e3,
        m.calibration.0[1] / 1e3,
        m.calibration.1,
        REFERENCE_NS[0] / 1e3,
        REFERENCE_NS[1] / 1e3
    ));
    oracle(&mut report, &s, &results);
    identity_checks(&mut report, script, &s.bench, &results);
    per_op_counts(&mut report, &results);

    // The image as the script left it: what a crash right now would
    // leave. Reopen it once to check every acknowledged op survived.
    let gen_end = s.bench.durable.generation();
    let start = Instant::now();
    let (reopened, open) = DurableSystem::open(copy_disk(&s.bench.durable.storage()), args.seed)
        .map_err(|f| format!("reopen: {}", f.error))?;
    report.lines.push(format!(
        "reopen as left: {:.3} s, {} records replayed, {} live log bytes",
        start.elapsed().as_secs_f64(),
        open.records_replayed,
        s.bench.durable.live_log_bytes()
    ));
    let stride = (script.spec.records.len() / 32).max(1);
    report
        .failures
        .extend(s.bench.verify_reopened(&reopened, stride));
    drop(reopened);

    // The compacted image: how far the replay tail reaches depends on
    // where the script ends against the checkpoint cadence, so the timed
    // reopens load a fresh checkpoint of the same state instead.
    s.bench
        .durable
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let mut clock = Clock::start();
    let mut reopens = Vec::with_capacity(REOPENS);
    for _ in 0..REOPENS {
        let disk = copy_disk(&s.bench.durable.storage());
        clock.slice();
        let at = clock.now();
        let (reopened, _) =
            DurableSystem::open(disk, args.seed).map_err(|f| format!("reopen: {}", f.error))?;
        reopens.push((at, clock.now() - at));
        clock.slice();
        drop(reopened);
    }
    let reopen_raw: Vec<f64> = reopens.iter().map(|r| r.1).collect();
    let reopen_ref: Vec<f64> = reopens
        .iter()
        .map(|&(at, secs)| secs * clock.factor_at(at + secs / 2.0, Work::Field))
        .collect();
    report.lines.push(format!(
        "reopen of the compacted image: raw {:.3} s, {:.3} s at reference speed (each: {})",
        median(&reopen_raw),
        median(&reopen_ref),
        reopen_ref
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let durable_bytes = s.bench.durable.storage().total_durable_bytes();
    report.lines.push(format!(
        "store: generation {gen0} -> {gen_end} in the measured phase, {durable_bytes} durable \
         bytes after a final checkpoint"
    ));

    let reads = latency_lines(&mut report, &results, OpKind::Read);
    let publishes = latency_lines(&mut report, &results, OpKind::Publish);
    let grants = latency_lines(&mut report, &results, OpKind::Grant);
    let revokes = latency_lines(&mut report, &results, OpKind::Revoke);
    latency_lines(&mut report, &results, OpKind::Drain);
    let read_p50 = gated_percentile(&mut report, &reads, 50.0, "read_p50_ms");
    let read_p90 = gated_percentile(&mut report, &reads, 90.0, "read_p90_ms");
    let publish_p50 = gated_percentile(&mut report, &publishes, 50.0, "publish_p50_ms");
    for (s, what) in [(&grants, "grant_p50_ms"), (&revokes, "revoke_ack_p50_ms")] {
        if supported(50.0, s.len()) {
            let v = percentile(&sorted_ms(s), 50.0);
            report
                .lines
                .push(format!("{what} {v:.6} ms (n={})", s.len()));
        }
    }
    let log_bytes: u64 = results.iter().map(|r| r.wal_bytes).sum();
    report.metric("setup_s", median(&setup_times), "s");
    report.metric("ops_per_s", results.len() as f64 / m.ref_seconds, "1/s");
    report.metric("read_p50_ms", read_p50, "ms");
    report.metric("read_p90_ms", read_p90, "ms");
    report.metric("publish_p50_ms", publish_p50, "ms");
    report.metric("reopen_s", median(&reopen_ref), "s");
    report.metric(
        "log_bytes_per_op",
        log_bytes as f64 / results.len() as f64,
        "B",
    );
    report.metric(
        "stored_bytes_per_user_byte",
        durable_bytes as f64 / s.bench.user_bytes() as f64,
        "ratio",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(report)
}

fn traced(args: &Args, script: &Script) -> Result<Report, String> {
    let mut report = Report::new(format!(
        "workload {} seed {} ops {} traced",
        script.workload.name(),
        args.seed,
        script.ops.len()
    ));
    // Untraced passes on fresh systems: shipped defaults before and
    // after the others (their mean cancels drift across the run), and
    // one with wide events off.
    let n = script.ops.len() as f64;
    let untraced_rate = |events: bool| -> Result<f64, String> {
        mabe_events::set_enabled(events);
        let mut s = setup(script)?;
        let m = measure(&mut s.bench, &script.ops, None);
        mabe_events::set_enabled(true);
        Ok(n / m.ref_seconds)
    };
    let rate_a1 = untraced_rate(true)?;
    let rate_b = untraced_rate(false)?;
    let mut c = setup(script)?;
    let gen0 = c.bench.durable.generation();
    let evictions0 = c.bench.durable.system().cache_stats().content_evictions;
    let mut fold = SpanFold::start();
    let measured = measure(&mut c.bench, &script.ops, Some(&mut fold));
    let results = measured.results;
    let rate_a2 = untraced_rate(true)?;
    oracle(&mut report, &c, &results);
    identity_checks(&mut report, script, &c.bench, &results);
    per_op_counts(&mut report, &results);
    let rate_a = (rate_a1 + rate_a2) / 2.0;
    let rate_c = n / measured.ref_seconds;
    report.lines.push(format!(
        "ops_per_s: defaults {rate_a1:.1} and {rate_a2:.1}, events off {rate_b:.1}, traced {rate_c:.1}"
    ));

    report.lines.push(format!(
        "spans (name count total_ms self_ms_per_call), {} dropped:",
        fold.dropped
    ));
    for (name, t) in &fold.by_name {
        report.lines.push(format!(
            "  {name} {} {:.3} {:.4}",
            t.count,
            t.total_us as f64 / 1e3,
            t.self_us as f64 / 1e3 / t.count.max(1) as f64
        ));
    }

    let of =
        |kind: OpKind| -> Vec<&OpResult> { results.iter().filter(|r| r.kind == kind).collect() };
    let mean = |rs: &[&OpResult], f: fn(&OpResult) -> u64| -> f64 {
        rs.iter().map(|r| f(r)).sum::<u64>() as f64 / rs.len().max(1) as f64
    };
    let reads = of(OpKind::Read);
    let publishes = of(OpKind::Publish);
    let per_call_ms = |name: &str, self_time: bool| {
        let t = fold.get(name);
        let us = if self_time { t.self_us } else { t.total_us };
        us as f64 / 1e3 / t.count.max(1) as f64
    };
    let journal_ms = |kind: &str| {
        let d = fold.get(&format!("durable.{kind}"));
        let c = fold.get(&format!("cloud.{kind}"));
        (d.total_us as f64 - c.total_us as f64) / 1e3 / d.count.max(1) as f64
    };

    // Workload-specific layers: printed where the workload runs them.
    for (op, kind) in [(OpKind::Grant, "grant"), (OpKind::Revoke, "revoke")] {
        let rs = of(op);
        if !rs.is_empty() {
            report.lines.push(format!(
                "durable.journal_ms_{kind} {:.4} ms; durable.log_bytes_per_{kind} {:.1} B",
                journal_ms(kind),
                mean(&rs, |r| r.wal_bytes)
            ));
        }
    }
    if fold.get("cloud.grant").count > 0 {
        report.lines.push(format!(
            "control.grant_self_ms {:.4} ms",
            per_call_ms("cloud.grant", true)
        ));
    }
    if fold.get("durable.revoke").count > 0 {
        let revokes = fold.get("durable.revoke").count as f64;
        report.lines.push(format!(
            "control.revoke_self_ms {:.4} ms; control.deliver_keys_ms {:.4} ms per revoke",
            per_call_ms("durable.revoke", true),
            fold.get("cloud.deliver_keys").total_us as f64 / 1e3 / revokes
        ));
    }
    let drained = fold.under("bench.drain", "server.reencrypt").count;
    if fold.get("bench.drain").count > 0 && drained > 0 {
        report.lines.push(format!(
            "lazy.drain_ms_per_component {:.4} ms ({drained} components)",
            fold.get("bench.drain").total_us as f64 / 1e3 / drained as f64
        ));
    }

    // Durable-layer state as the script left it, then costs measured on
    // that final state.
    let segments_end = c.bench.durable.segments_live();
    let live_log_end = c.bench.durable.live_log_bytes();
    let (_, open) = DurableSystem::open(copy_disk(&c.bench.durable.storage()), args.seed)
        .map_err(|f| format!("reopen: {}", f.error))?;
    let gen_end = c.bench.durable.generation();
    let mut checkpoint_ms = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        c.bench
            .durable
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let evictions = c.bench.durable.system().cache_stats().content_evictions - evictions0;
    let chain_hits: u64 = results.iter().map(|r| r.chain_hits).sum();
    let chain_lookups: u64 = results.iter().map(|r| r.chain_hits + r.chain_misses).sum();

    let hits: u64 = reads.iter().map(|r| r.content_hits).sum();
    let lookups: u64 = reads
        .iter()
        .map(|r| r.content_hits + r.content_misses)
        .sum();
    report.metric(
        "obs.trace_overhead_pct",
        (rate_a - rate_c) / rate_a * 100.0,
        "%",
    );
    report.metric(
        "obs.events_cost_pct",
        (rate_b - rate_a) / rate_b * 100.0,
        "%",
    );
    report.metric(
        "math.pairings_per_read",
        mean(&reads, |r| r.ops.pairings),
        "count",
    );
    report.metric(
        "math.g1_muls_per_publish",
        mean(&publishes, |r| r.ops.g1_muls),
        "count",
    );
    let (costs, shape_lines) = unit_costs(&script.spec, args.seed);
    report.lines.extend(shape_lines);
    for cost in costs {
        report.metric(cost.name, cost.value, cost.unit);
    }
    report.metric(
        "cache.content_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.metric("cache.content_evictions", evictions as f64, "count");
    report.metric(
        "cache.chain_hit_ratio",
        chain_hits as f64 / chain_lookups.max(1) as f64,
        "ratio",
    );
    report.metric("data.read_self_ms", per_call_ms("cloud.read", true), "ms");
    report.metric(
        "data.fetch_us",
        per_call_ms("server.fetch", false) * 1e3,
        "us",
    );
    report.metric(
        "data.publish_self_ms",
        per_call_ms("cloud.publish", true),
        "ms",
    );
    report.metric(
        "data.read_upgrades_per_read",
        mean(&reads, |r| r.upgrades),
        "count",
    );
    report.metric("durable.journal_ms_read", journal_ms("read"), "ms");
    report.metric("durable.journal_ms_publish", journal_ms("publish"), "ms");
    report.metric(
        "durable.log_bytes_per_read",
        mean(&reads, |r| r.wal_bytes),
        "B",
    );
    report.metric(
        "durable.log_bytes_per_publish",
        mean(&publishes, |r| r.wal_bytes),
        "B",
    );
    report.metric("durable.checkpoints", (gen_end - gen0) as f64, "count");
    report.metric("durable.checkpoint_ms", median(&checkpoint_ms), "ms");
    report.metric(
        "durable.reopen_records_replayed",
        open.records_replayed as f64,
        "count",
    );
    report.metric("store.segments_live_end", segments_end as f64, "count");
    report.metric("store.live_log_bytes_end", live_log_end as f64, "B");
    report.metric(
        "lazy.queue_depth_max",
        results.iter().map(|r| r.queue_depth).max().unwrap_or(0) as f64,
        "count",
    );
    report.metric("wire.bytes_per_read", mean(&reads, |r| r.wire_bytes), "B");
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <read_hot|read_cold|revoke_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let script = Script::generate(args.workload, args.seed, args.seconds);
    let result = if args.trace {
        traced(&args, &script)
    } else {
        untraced(&args, &script)
    };
    match result {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for f in &report.failures {
                println!("CHECK FAILED: {f}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
