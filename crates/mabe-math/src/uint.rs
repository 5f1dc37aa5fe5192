//! Fixed-width little-endian big integers.
//!
//! [`Uint<L>`] is the raw-integer layer underneath the Montgomery prime
//! fields in [`crate::field`]. Limbs are `u64`, least-significant first.
//! Widths used in this workspace: `Uint<8>` (512-bit base field),
//! `Uint<3>` (160-bit scalar field) and `Uint<6>` (the 353-bit cofactor).

/// Maximum limb count supported by the scratch-buffer based routines.
pub const MAX_LIMBS: usize = 8;

/// A fixed-width unsigned integer with `L` 64-bit little-endian limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const L: usize> {
    /// Little-endian limbs.
    pub limbs: [u64; L],
}

#[inline(always)]
pub(crate) const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

#[inline(always)]
pub(crate) const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128)
        .wrapping_sub(b as u128)
        .wrapping_sub(borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// `a + b * c + carry`, returning `(low, high)`.
#[inline(always)]
pub(crate) const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) * (c as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

impl<const L: usize> Uint<L> {
    /// The zero value.
    pub const ZERO: Self = Uint { limbs: [0u64; L] };

    /// Constructs from a single `u64`.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; L];
        limbs[0] = v;
        Uint { limbs }
    }

    /// The one value.
    pub const fn one() -> Self {
        Self::from_u64(1)
    }

    /// Parses a decimal string at compile time.
    ///
    /// # Panics
    ///
    /// Panics on non-digit characters or overflow of the `L`-limb width.
    pub const fn from_decimal(s: &str) -> Self {
        let bytes = s.as_bytes();
        let mut out = Self::ZERO;
        let mut i = 0;
        while i < bytes.len() {
            let d = bytes[i];
            assert!(d >= b'0' && d <= b'9', "invalid decimal digit");
            out = out.mul_small(10);
            out = out.add_small((d - b'0') as u64);
            i += 1;
        }
        out
    }

    /// Multiplies by a small constant, panicking on overflow (const-safe).
    pub const fn mul_small(self, m: u64) -> Self {
        let mut limbs = [0u64; L];
        let mut carry = 0u64;
        let mut i = 0;
        while i < L {
            let (lo, hi) = mac(carry, self.limbs[i], m, 0);
            limbs[i] = lo;
            carry = hi;
            i += 1;
        }
        assert!(carry == 0, "mul_small overflow");
        Uint { limbs }
    }

    /// Adds a small constant, panicking on overflow (const-safe).
    pub const fn add_small(self, v: u64) -> Self {
        let mut limbs = self.limbs;
        let mut carry = v;
        let mut i = 0;
        while i < L {
            let (lo, c) = adc(limbs[i], carry, 0);
            limbs[i] = lo;
            carry = c;
            if carry == 0 {
                break;
            }
            i += 1;
        }
        assert!(carry == 0, "add_small overflow");
        Uint { limbs }
    }

    /// Wrapping addition; returns `(sum, carry)`.
    pub const fn adc(self, rhs: Self) -> (Self, u64) {
        let mut limbs = [0u64; L];
        let mut carry = 0u64;
        let mut i = 0;
        while i < L {
            let (lo, c) = adc(self.limbs[i], rhs.limbs[i], carry);
            limbs[i] = lo;
            carry = c;
            i += 1;
        }
        (Uint { limbs }, carry)
    }

    /// Wrapping subtraction; returns `(difference, borrow)`.
    pub const fn sbb(self, rhs: Self) -> (Self, u64) {
        let mut limbs = [0u64; L];
        let mut borrow = 0u64;
        let mut i = 0;
        while i < L {
            let (lo, b) = sbb(self.limbs[i], rhs.limbs[i], borrow);
            limbs[i] = lo;
            borrow = b;
            i += 1;
        }
        (Uint { limbs }, borrow)
    }

    /// `true` if `self < rhs`.
    pub const fn lt(&self, rhs: &Self) -> bool {
        let mut i = L;
        while i > 0 {
            i -= 1;
            if self.limbs[i] < rhs.limbs[i] {
                return true;
            }
            if self.limbs[i] > rhs.limbs[i] {
                return false;
            }
        }
        false
    }

    /// `true` if all limbs are zero.
    pub const fn is_zero(&self) -> bool {
        let mut i = 0;
        while i < L {
            if self.limbs[i] != 0 {
                return false;
            }
            i += 1;
        }
        true
    }

    /// `true` if the value is odd.
    pub const fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Modular doubling: `2 * self mod modulus`. Requires `self < modulus`.
    pub const fn mod_double(self, modulus: &Self) -> Self {
        let (dbl, carry) = self.adc(self);
        let (red, borrow) = dbl.sbb(*modulus);
        // Keep the reduced value if doubling overflowed or dbl >= modulus.
        if carry == 1 || borrow == 0 {
            red
        } else {
            dbl
        }
    }

    /// Modular addition for values `< modulus`.
    pub const fn mod_add(self, rhs: Self, modulus: &Self) -> Self {
        let (sum, carry) = self.adc(rhs);
        let (red, borrow) = sum.sbb(*modulus);
        if carry == 1 || borrow == 0 {
            red
        } else {
            sum
        }
    }

    /// Modular subtraction for values `< modulus`.
    pub const fn mod_sub(self, rhs: Self, modulus: &Self) -> Self {
        let (diff, borrow) = self.sbb(rhs);
        if borrow == 1 {
            diff.adc(*modulus).0
        } else {
            diff
        }
    }

    /// Modular halving: `self / 2 mod modulus` for `self < modulus`,
    /// `modulus` odd.
    pub fn mod_half(&self, modulus: &Self) -> Self {
        if !self.is_odd() {
            return self.shr1();
        }
        // self + modulus is even; its carry becomes the top bit.
        let (sum, carry) = self.adc(*modulus);
        let mut out = sum.shr1();
        out.limbs[L - 1] |= carry << 63;
        out
    }

    /// Returns bit `i` (0 = least significant).
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        if i >= 64 * L {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        for i in (0..L).rev() {
            if self.limbs[i] != 0 {
                return 64 * i + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Logical right shift by one bit.
    #[allow(clippy::needless_range_loop)] // each limb borrows a bit from limb i+1
    pub fn shr1(&self) -> Self {
        let mut limbs = [0u64; L];
        for i in 0..L {
            limbs[i] = self.limbs[i] >> 1;
            if i + 1 < L {
                limbs[i] |= self.limbs[i + 1] << 63;
            }
        }
        Uint { limbs }
    }

    /// Big-endian byte encoding (`8 * L` bytes).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * L);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Parses a big-endian byte encoding of exactly `8 * L` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != 8 * L`.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), 8 * L, "wrong byte length for Uint");
        let mut limbs = [0u64; L];
        for (i, chunk) in bytes.rchunks(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            limbs[i] = u64::from_be_bytes(b);
        }
        Uint { limbs }
    }

    /// Interprets up to the low `8 * L` bytes of a big-endian slice,
    /// zero-extending short inputs and ignoring the most-significant excess.
    pub fn from_be_bytes_lossy(bytes: &[u8]) -> Self {
        let take = bytes.len().min(8 * L);
        let slice = &bytes[bytes.len() - take..];
        let mut limbs = [0u64; L];
        for (i, chunk) in slice.rchunks(8).enumerate() {
            let mut b = [0u8; 8];
            b[8 - chunk.len()..].copy_from_slice(chunk);
            limbs[i] = u64::from_be_bytes(b);
        }
        Uint { limbs }
    }
}

impl<const L: usize> Ord for Uint<L> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        for i in (0..L).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }
}

impl<const L: usize> PartialOrd for Uint<L> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const L: usize> Default for Uint<L> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const L: usize> core::fmt::Debug for Uint<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "0x")?;
        for limb in self.limbs.iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        Ok(())
    }
}

impl<const L: usize> core::fmt::Display for Uint<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Debug::fmt(self, f)
    }
}

/// Width-`w` signed windowed NAF digits of a little-endian limb slice,
/// least-significant first: each digit is odd with `|d| < 2^(w-1)` or
/// zero, and any two nonzero digits are at least `w` positions apart.
/// Width 2 is the plain NAF (digits in `{0, ±1}`).
pub fn wnaf_digits(limbs: &[u64], width: u32) -> Vec<i8> {
    debug_assert!((2..=7).contains(&width), "digits must fit an i8");
    let window = 1u64 << width;
    // One spare limb absorbs the carry of a negative digit at the top.
    let mut x = limbs.to_vec();
    x.push(0);
    let mut digits = Vec::with_capacity(64 * limbs.len() + 1);
    while x.iter().any(|&l| l != 0) {
        let mut d = 0i64;
        if x[0] & 1 == 1 {
            let low = x[0] & (window - 1);
            d = if low >= window / 2 {
                low as i64 - window as i64
            } else {
                low as i64
            };
            // x -= d clears the low `width` bits.
            if d >= 0 {
                x[0] -= d as u64;
            } else {
                let mut carry = (-d) as u64;
                for limb in x.iter_mut() {
                    let (sum, c) = adc(*limb, carry, 0);
                    *limb = sum;
                    carry = c;
                    if carry == 0 {
                        break;
                    }
                }
            }
        }
        digits.push(d as i8);
        for i in 0..x.len() {
            let hi = x.get(i + 1).map_or(0, |h| h << 63);
            x[i] = (x[i] >> 1) | hi;
        }
    }
    digits
}

/// Schoolbook multiplication of two limb slices into `out`.
///
/// `out` must have length `>= a.len() + b.len()` and is fully overwritten.
pub fn mul_limbs(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert!(out.len() >= a.len() + b.len(), "output too small");
    for o in out.iter_mut() {
        *o = 0;
    }
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u64;
        for (j, &bj) in b.iter().enumerate() {
            let (lo, hi) = mac(out[i + j], ai, bj, carry);
            out[i + j] = lo;
            carry = hi;
        }
        out[i + b.len()] = carry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_parse_small() {
        let x: Uint<2> = Uint::from_decimal("1234567890123456789");
        assert_eq!(x.limbs[0], 1234567890123456789);
        assert_eq!(x.limbs[1], 0);
    }

    #[test]
    fn decimal_parse_multi_limb() {
        // 2^64 = 18446744073709551616
        let x: Uint<2> = Uint::from_decimal("18446744073709551616");
        assert_eq!(x.limbs, [0, 1]);
        // 2^64 + 5
        let y: Uint<2> = Uint::from_decimal("18446744073709551621");
        assert_eq!(y.limbs, [5, 1]);
    }

    #[test]
    fn adc_sbb_roundtrip() {
        let a: Uint<3> = Uint::from_decimal("999999999999999999999999999999");
        let b: Uint<3> = Uint::from_decimal("123456789012345678901234567890");
        let (sum, c) = a.adc(b);
        assert_eq!(c, 0);
        let (diff, borrow) = sum.sbb(b);
        assert_eq!(borrow, 0);
        assert_eq!(diff, a);
    }

    #[test]
    fn subtraction_borrow() {
        let a: Uint<2> = Uint::from_u64(1);
        let b: Uint<2> = Uint::from_u64(2);
        let (_, borrow) = a.sbb(b);
        assert_eq!(borrow, 1);
    }

    #[test]
    fn ordering() {
        let a: Uint<2> = Uint { limbs: [5, 1] };
        let b: Uint<2> = Uint {
            limbs: [u64::MAX, 0],
        };
        assert!(b < a);
        assert!(b.lt(&a));
        assert!(!a.lt(&b));
        assert!(!a.lt(&a));
    }

    #[test]
    fn bit_access_and_bits() {
        let r: Uint<3> = Uint::from_decimal("730750818665451621361119245571504901405976559617");
        // r = 2^159 + 2^107 + 1
        assert!(r.bit(0));
        assert!(r.bit(107));
        assert!(r.bit(159));
        assert!(!r.bit(1));
        assert!(!r.bit(158));
        assert_eq!(r.bits(), 160);
        assert_eq!(Uint::<3>::ZERO.bits(), 0);
        assert!(!r.bit(10_000));
    }

    #[test]
    fn mod_double_behaviour() {
        let m: Uint<1> = Uint::from_u64(97);
        let x: Uint<1> = Uint::from_u64(60);
        assert_eq!(x.mod_double(&m).limbs[0], 23); // 120 - 97
        let y: Uint<1> = Uint::from_u64(40);
        assert_eq!(y.mod_double(&m).limbs[0], 80);
    }

    #[test]
    fn mod_add_behaviour() {
        let m: Uint<1> = Uint::from_u64(97);
        let a: Uint<1> = Uint::from_u64(90);
        let b: Uint<1> = Uint::from_u64(20);
        assert_eq!(a.mod_add(b, &m).limbs[0], 13);
        assert_eq!(b.mod_add(b, &m).limbs[0], 40);
    }

    #[test]
    fn mod_sub_and_half_behaviour() {
        let m: Uint<1> = Uint::from_u64(97);
        let a: Uint<1> = Uint::from_u64(90);
        let b: Uint<1> = Uint::from_u64(20);
        assert_eq!(b.mod_sub(a, &m).limbs[0], 27);
        assert_eq!(a.mod_sub(b, &m).limbs[0], 70);
        assert_eq!(b.mod_half(&m).limbs[0], 10);
        // 7 / 2 = (7 + 97) / 2 = 52, and 2·52 = 104 ≡ 7.
        assert_eq!(Uint::<1>::from_u64(7).mod_half(&m).limbs[0], 52);
        // A full-width odd modulus: the carry of x + m lands in the top bit.
        let big: Uint<1> = Uint::from_u64(u64::MAX - 58); // odd
        let x: Uint<1> = Uint::from_u64(u64::MAX - 60); // odd, < big
        let half = x.mod_half(&big);
        assert_eq!(half.mod_add(half, &big), x);
    }

    #[test]
    fn wnaf_digits_recombine() {
        for (value, width) in [
            (0b10111u64, 4),
            (u64::MAX, 2),
            (u64::MAX, 4),
            (1, 4),
            (0, 4),
        ] {
            let digits = wnaf_digits(&[value, 0], width);
            let sum: i128 = digits
                .iter()
                .enumerate()
                .map(|(i, &d)| (d as i128) << i)
                .sum();
            assert_eq!(sum, value as i128, "value {value:#x}, width {width}");
            for (i, &d) in digits.iter().enumerate() {
                if d != 0 {
                    assert!(d % 2 != 0 && (d.unsigned_abs() as u64) < (1 << (width - 1)));
                    let next = &digits[i + 1..digits.len().min(i + width as usize)];
                    assert!(next.iter().all(|&n| n == 0), "digits too close");
                }
            }
        }
        // A top-limb value whose last digit is negative needs the spare limb.
        let digits = wnaf_digits(&[u64::MAX], 4);
        assert_eq!(digits.len(), 65);
    }

    #[test]
    fn shr1_shifts_across_limbs() {
        let x: Uint<2> = Uint {
            limbs: [0b101, 0b11],
        };
        let y = x.shr1();
        assert_eq!(y.limbs[0], (0b101 >> 1) | (1 << 63));
        assert_eq!(y.limbs[1], 0b1);
        assert_eq!(Uint::<2>::one().shr1(), Uint::ZERO);
    }

    #[test]
    fn byte_roundtrip() {
        let x: Uint<3> = Uint::from_decimal("730750818665451621361119245571504901405976559617");
        let bytes = x.to_be_bytes();
        assert_eq!(bytes.len(), 24);
        assert_eq!(Uint::<3>::from_be_bytes(&bytes), x);
    }

    #[test]
    fn lossy_bytes_short_and_long() {
        let x: Uint<2> = Uint::from_be_bytes_lossy(&[0x01, 0x02]);
        assert_eq!(x.limbs, [0x0102, 0]);
        let long = [0xffu8; 24]; // 3 limbs worth into 2 limbs
        let y: Uint<2> = Uint::from_be_bytes_lossy(&long);
        assert_eq!(y.limbs, [u64::MAX, u64::MAX]);
    }

    #[test]
    fn mul_limbs_known_product() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = [u64::MAX];
        let mut out = [0u64; 2];
        mul_limbs(&a, &a, &mut out);
        assert_eq!(out, [1, u64::MAX - 1]);
    }

    #[test]
    fn mul_limbs_mixed_width() {
        let a = [10u64, 0, 0];
        let b = [20u64];
        let mut out = [0u64; 4];
        mul_limbs(&a, &b, &mut out);
        assert_eq!(out, [200, 0, 0, 0]);
    }

    #[test]
    fn cofactor_times_order_is_q_plus_one() {
        // The defining relation of the paper's type-A curve: q + 1 = h * r.
        let q: Uint<8> = Uint::from_decimal(crate::params::Q_DEC);
        let r: Uint<3> = Uint::from_decimal(crate::params::R_DEC);
        let h: Uint<6> = Uint::from_decimal(crate::params::H_DEC);
        let mut prod = [0u64; 9];
        mul_limbs(&h.limbs, &r.limbs, &mut prod);
        let (q1, carry) = q.adc(Uint::one());
        assert_eq!(carry, 0);
        assert_eq!(&prod[..8], &q1.limbs);
        assert_eq!(prod[8], 0);
    }

    #[test]
    fn display_is_nonempty() {
        let z = Uint::<2>::ZERO;
        assert!(!format!("{z:?}").is_empty());
        assert_eq!(format!("{z}"), format!("{z:?}"));
    }
}
