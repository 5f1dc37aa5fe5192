//! Wall time corrected for the speed the machine ran at.
//!
//! On a shared 2-core VM the same CPU-bound loop runs up to 2x
//! slower for tens of seconds at a time (a busy neighbour on the same
//! physical core). Raw wall times of runs minutes apart then differ by
//! far more than any change worth detecting. The bench therefore times
//! fixed calibration kernels at short intervals during every timed phase
//! and reports each time scaled to a reference speed:
//!
//! `reported = raw × reference / (kernel time measured nearby)`.
//!
//! A slowdown does not hit all code alike, so there are two kernels,
//! each tracking one kind of work (measured over 150 s of fluctuating
//! load, the ratio of the work to its kernel stayed within 7-9% while
//! the raw times moved by 40-67%):
//!
//! * [`Work::Field`]: 8-limb Montgomery products, the instruction mix of
//!   the program's field arithmetic (pairings, scalar multiplication,
//!   point decoding);
//! * [`Work::Bytes`]: ChaCha quarter rounds, the 32-bit add-rotate-xor
//!   mix of AEAD, hashing and serialization.
//!
//! An op is scaled by the kernel of the work it did, which its exact
//! crypto-op counts tell. The kernels are the bench's own code, so a
//! change to the program speeds up what is measured but never the
//! yardstick. Raw times are printed beside the corrected ones.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kind of work a timed interval did, choosing its kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Work {
    /// Big-number field arithmetic.
    Field,
    /// Byte crunching: AEAD, hashing, encoding, copying.
    Bytes,
}

/// Kernel slice times, in ns, that define the reference speed (their
/// values on an unloaded 2-core x86-64 VM): `[Field, Bytes]`.
pub const REFERENCE_NS: [f64; 2] = [72_000.0, 18_000.0];

/// Seconds of timed work between calibration slices.
const INTERVAL_S: f64 = 0.02;

/// Slices on each side of an instant that set its speed.
const NEIGHBOURS: usize = 4;

/// Field elements in the Montgomery kernel's working set (4 KiB, so it
/// stays in L1 whatever the program did in between).
const ELEMENTS: usize = 64;

/// The odd 511-bit modulus of the calibration arithmetic.
const M: [u64; 8] = [
    0xffff_ffff_ffff_ffc5,
    u64::MAX,
    u64::MAX,
    u64::MAX,
    u64::MAX,
    u64::MAX,
    u64::MAX,
    0x7fff_ffff_ffff_ffff,
];

/// 8-limb CIOS Montgomery multiplication modulo [`M`]; `minv` is
/// `-M^-1 mod 2^64`.
fn mont_mul(a: &[u64; 8], b: &[u64; 8], minv: u64) -> [u64; 8] {
    let mut t = [0u64; 10];
    for &ai in a {
        let mut c = 0u128;
        for j in 0..8 {
            let v = t[j] as u128 + (ai as u128) * (b[j] as u128) + c;
            t[j] = v as u64;
            c = v >> 64;
        }
        let v = t[8] as u128 + c;
        t[8] = v as u64;
        t[9] = (v >> 64) as u64;
        let m = t[0].wrapping_mul(minv);
        let mut c = (t[0] as u128 + (m as u128) * (M[0] as u128)) >> 64;
        for j in 1..8 {
            let v = t[j] as u128 + (m as u128) * (M[j] as u128) + c;
            t[j - 1] = v as u64;
            c = v >> 64;
        }
        let v = t[8] as u128 + c;
        t[7] = v as u64;
        t[8] = t[9] + (v >> 64) as u64;
    }
    let mut out = [0u64; 8];
    out.copy_from_slice(&t[..8]);
    out
}

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The calibration kernels and their state.
#[derive(Debug)]
struct Kernels {
    elements: Vec<[u64; 8]>,
    minv: u64,
    cursor: usize,
    chacha: [u32; 16],
}

impl Kernels {
    fn new() -> Kernels {
        // -M^-1 mod 2^64 by Newton iteration.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(M[0].wrapping_mul(inv)));
        }
        Kernels {
            elements: (0..ELEMENTS as u64)
                .map(|i| [i + 1, 3, 5, 7, 11, 13, 17, 19])
                .collect(),
            minv: inv.wrapping_neg(),
            cursor: 1,
            chacha: core::array::from_fn(|i| 0x6170_7865 ^ i as u32),
        }
    }

    /// 1000 Montgomery products between scattered elements; ns.
    fn field(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..1000 {
            let j = self.cursor.wrapping_mul(2_654_435_761) % ELEMENTS;
            let k = (self.cursor.wrapping_mul(40_503) + 7) % ELEMENTS;
            self.elements[j] = mont_mul(&self.elements[j], &self.elements[k], self.minv);
            self.cursor += 1;
        }
        black_box(&self.elements);
        start.elapsed().as_nanos() as f64
    }

    /// 750 pairs of ChaCha double rounds on a 64-byte state; ns.
    fn bytes(&mut self) -> f64 {
        let start = Instant::now();
        let mut s = self.chacha;
        for _ in 0..750 {
            for _ in 0..2 {
                quarter_round(&mut s, 0, 4, 8, 12);
                quarter_round(&mut s, 1, 5, 9, 13);
                quarter_round(&mut s, 2, 6, 10, 14);
                quarter_round(&mut s, 3, 7, 11, 15);
                quarter_round(&mut s, 0, 5, 10, 15);
                quarter_round(&mut s, 1, 6, 11, 12);
                quarter_round(&mut s, 2, 7, 8, 13);
                quarter_round(&mut s, 3, 4, 9, 14);
            }
            s = black_box(s);
        }
        self.chacha = s;
        start.elapsed().as_nanos() as f64
    }
}

/// A timeline of calibration slices over one timed phase.
#[derive(Debug)]
pub struct Clock {
    kernels: Kernels,
    origin: Instant,
    next: f64,
    /// `(seconds since origin, [field ns, bytes ns])`.
    slices: Vec<(f64, [f64; 2])>,
    /// Total wall time spent calibrating, seconds.
    pub spent: f64,
}

impl Clock {
    /// Starts a timeline with one slice.
    pub fn start() -> Clock {
        let mut c = Clock {
            kernels: Kernels::new(),
            origin: Instant::now(),
            next: 0.0,
            slices: Vec::new(),
            spent: 0.0,
        };
        c.tick();
        c
    }

    /// Seconds since the timeline started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs a calibration slice if one is due. Call between timed ops.
    pub fn tick(&mut self) {
        if self.now() >= self.next {
            self.slice();
        }
    }

    /// Runs a calibration slice now.
    pub fn slice(&mut self) {
        let now = self.now();
        let ns = [self.kernels.field(), self.kernels.bytes()];
        self.slices.push((now, ns));
        self.spent += (ns[0] + ns[1]) / 1e9;
        self.next = self.now() + INTERVAL_S;
    }

    /// Scale factor from raw to reference time for `work` at instant `t`
    /// (seconds since origin): the reference over the median of the
    /// slices nearest `t`.
    pub fn factor_at(&self, t: f64, work: Work) -> f64 {
        let i = self.slices.partition_point(|s| s.0 <= t);
        let lo = i.saturating_sub(NEIGHBOURS);
        let hi = (i + NEIGHBOURS).min(self.slices.len());
        let near: Vec<f64> = self.slices[lo..hi]
            .iter()
            .map(|s| s.1[work as usize])
            .collect();
        REFERENCE_NS[work as usize] / median(&near)
    }

    /// Scale factor for `work` over the whole timeline.
    pub fn factor(&self, work: Work) -> f64 {
        let all: Vec<f64> = self.slices.iter().map(|s| s.1[work as usize]).collect();
        REFERENCE_NS[work as usize] / median(&all)
    }

    /// Median slice times, ns (`[field, bytes]`), and the slice count.
    pub fn summary(&self) -> ([f64; 2], usize) {
        let field: Vec<f64> = self.slices.iter().map(|s| s.1[0]).collect();
        let bytes: Vec<f64> = self.slices.iter().map(|s| s.1[1]).collect();
        ([median(&field), median(&bytes)], self.slices.len())
    }
}
