//! End-to-end benchmark of the durable cloud plane (`DurableSystem`
//! over `SimDisk`): one closed-loop client executes a seeded op script,
//! an oracle checks every outcome, and a separate traced pass breaks
//! the cost down by layer. See `README.md` for the rationale.

#![forbid(unsafe_code)]

pub mod clock;
pub mod layers;
pub mod runner;
pub mod script;
pub mod stats;

use clock::{Clock, Work};
use runner::{build, Bench, OpResult};
use script::{Op, Script};

/// A built system with its warm-up done, plus how long that took.
pub struct Setup {
    /// The system, ready for the measured phase.
    pub bench: Bench,
    /// Results of the untimed warm-up ops.
    pub warmup: Vec<OpResult>,
    /// Wall time of build plus warm-up, seconds.
    pub seconds: f64,
    /// Wall time of the build alone, seconds.
    pub build_seconds: f64,
    /// `seconds` at the reference machine speed ([`clock`]).
    pub ref_seconds: f64,
}

/// Builds the script's system and runs its warm-up.
///
/// # Errors
///
/// Any failing set-up call.
pub fn setup(script: &Script) -> Result<Setup, String> {
    let mut clock = Clock::start();
    let start = clock.now();
    let mut bench = build(script, &mut clock)?;
    let build_seconds = clock.now() - start;
    let warmup = script
        .warmup
        .iter()
        .map(|op| {
            clock.tick();
            bench.exec(op, false)
        })
        .collect();
    let seconds = clock.now() - start - clock.spent;
    Ok(Setup {
        bench,
        warmup,
        seconds,
        build_seconds,
        ref_seconds: seconds * clock.factor(Work::Field),
    })
}

/// A measured phase: per-op results and the loop's time.
pub struct Measured {
    /// Per-op results, `ref_ns` filled in.
    pub results: Vec<OpResult>,
    /// Wall time of the loop, calibration excluded, seconds.
    pub seconds: f64,
    /// `seconds` at the reference machine speed.
    pub ref_seconds: f64,
    /// Median calibration slice times, ns (`[field, bytes]`), and the
    /// number of slices.
    pub calibration: ([f64; 2], usize),
}

/// Runs `ops` in order on one thread, interleaving calibration slices.
/// With a fold, each op runs under a `bench.<op>` root span and the
/// recorder is folded as it fills.
pub fn measure(bench: &mut Bench, ops: &[Op], mut fold: Option<&mut layers::SpanFold>) -> Measured {
    let mut clock = Clock::start();
    let mut results = Vec::with_capacity(ops.len());
    let mut loop_secs = Vec::with_capacity(ops.len());
    for op in ops {
        clock.tick();
        let at = clock.now();
        let mut r = bench.exec(op, fold.is_some());
        if let Some(f) = fold.as_deref_mut() {
            f.maybe_fold();
        }
        r.at = at;
        loop_secs.push(clock.now() - at);
        results.push(r);
    }
    if let Some(f) = fold {
        f.fold();
    }
    clock.slice();
    let mut ref_seconds = 0.0;
    for (r, secs) in results.iter_mut().zip(&loop_secs) {
        let f = clock.factor_at(r.at, r.work());
        r.ref_ns = r.ns as f64 * f;
        ref_seconds += secs * f;
    }
    Measured {
        results,
        seconds: loop_secs.iter().sum(),
        ref_seconds,
        calibration: clock.summary(),
    }
}
