//! The quadratic extension `F_{q²} = F_q[i] / (i² + 1)`.
//!
//! Because `q ≡ 3 (mod 4)`, `-1` is a quadratic non-residue in `F_q` and
//! `i² = -1` defines a field. The Tate pairing of the type-A curve takes
//! values in the order-`r` subgroup of `F_{q²}*`, and the Frobenius map
//! `z ↦ z^q` is simply complex conjugation — which makes the "easy" part of
//! the final exponentiation a conjugate-and-divide.

use rand::RngCore;

use crate::field::Fq;
use crate::uint::wnaf_digits;

/// An element `c0 + c1·i` of `F_{q²}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fq2 {
    /// Real coefficient.
    pub c0: Fq,
    /// Imaginary coefficient.
    pub c1: Fq,
}

impl core::fmt::Debug for Fq2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Fq2({:?} + {:?}·i)",
            self.c0.to_uint(),
            self.c1.to_uint()
        )
    }
}

impl core::fmt::Display for Fq2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Debug::fmt(self, f)
    }
}

impl Fq2 {
    /// The additive identity.
    pub fn zero() -> Self {
        Fq2 {
            c0: Fq::zero(),
            c1: Fq::zero(),
        }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Fq2 {
            c0: Fq::one(),
            c1: Fq::zero(),
        }
    }

    /// Builds an element from its two coefficients.
    pub fn new(c0: Fq, c1: Fq) -> Self {
        Fq2 { c0, c1 }
    }

    /// Embeds a base-field element.
    pub fn from_fq(c0: Fq) -> Self {
        Fq2 { c0, c1: Fq::zero() }
    }

    /// `true` for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Addition.
    pub fn add(&self, rhs: &Self) -> Self {
        Fq2 {
            c0: self.c0.add(&rhs.c0),
            c1: self.c1.add(&rhs.c1),
        }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        Fq2 {
            c0: self.c0.sub(&rhs.c0),
            c1: self.c1.sub(&rhs.c1),
        }
    }

    /// Additive inverse.
    pub fn neg(&self) -> Self {
        Fq2 {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
        }
    }

    /// Karatsuba-style multiplication (3 base-field multiplications).
    pub fn mul(&self, rhs: &Self) -> Self {
        let aa = self.c0.mul(&rhs.c0);
        let bb = self.c1.mul(&rhs.c1);
        let sum = self.c0.add(&self.c1).mul(&rhs.c0.add(&rhs.c1));
        Fq2 {
            c0: aa.sub(&bb),           // a0·b0 - a1·b1
            c1: sum.sub(&aa).sub(&bb), // a0·b1 + a1·b0
        }
    }

    /// Squaring (2 base-field multiplications): `(a+bi)² = (a+b)(a-b) + 2abi`.
    pub fn square(&self) -> Self {
        let plus = self.c0.add(&self.c1);
        let minus = self.c0.sub(&self.c1);
        let cross = self.c0.mul(&self.c1);
        Fq2 {
            c0: plus.mul(&minus),
            c1: cross.double(),
        }
    }

    /// Multiplication by a base-field scalar.
    pub fn mul_by_fq(&self, k: &Fq) -> Self {
        Fq2 {
            c0: self.c0.mul(k),
            c1: self.c1.mul(k),
        }
    }

    /// Complex conjugate `a - bi` — also the Frobenius map `z^q`.
    pub fn conjugate(&self) -> Self {
        Fq2 {
            c0: self.c0,
            c1: self.c1.neg(),
        }
    }

    /// The norm `a² + b²` (an `F_q` element).
    pub fn norm(&self) -> Fq {
        self.c0.square().add(&self.c1.square())
    }

    /// Multiplicative inverse: `(a - bi) / (a² + b²)`. `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        let inv_norm = self.norm().invert()?;
        Some(Fq2 {
            c0: self.c0.mul(&inv_norm),
            c1: self.c1.neg().mul(&inv_norm),
        })
    }

    /// Variable-time exponentiation by a little-endian limb slice.
    pub fn pow_vartime(&self, exp: &[u64]) -> Self {
        let mut res = Self::one();
        let mut started = false;
        for i in (0..exp.len() * 64).rev() {
            if started {
                res = res.square();
            }
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                res = res.mul(self);
                started = true;
            }
        }
        res
    }

    /// Squaring of a unitary element (norm `c0² + c1² = 1`, as every
    /// member of `G_T` and every output of the easy part of the final
    /// exponentiation): `(2c0² − 1) + ((c0 + c1)² − 1)·i`, two base-field
    /// squarings. Wrong for elements of any other norm.
    pub fn unitary_square(&self) -> Self {
        let one = Fq::one();
        Fq2 {
            c0: self.c0.square().double().sub(&one),
            c1: self.c0.add(&self.c1).square().sub(&one),
        }
    }

    /// Variable-time exponentiation of a unitary element by a
    /// little-endian limb slice: unitary squarings and width-4 signed
    /// digits, a negative digit multiplying by the conjugate (the
    /// inverse of a unitary element).
    pub fn unitary_pow_vartime(&self, exp: &[u64]) -> Self {
        signed_multi_pow(&[(*self, &wnaf_digits(exp, 4))], Fq2::unitary_square)
    }

    /// Uniformly random element.
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Fq2 {
            c0: Fq::random(rng),
            c1: Fq::random(rng),
        }
    }

    /// Canonical encoding: `c0 || c1`, 128 bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.c0.to_canonical_bytes();
        out.extend_from_slice(&self.c1.to_canonical_bytes());
        out
    }

    /// Parses the canonical 128-byte encoding.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 128 {
            return None;
        }
        Some(Fq2 {
            c0: Fq::from_canonical_bytes(&bytes[..64])?,
            c1: Fq::from_canonical_bytes(&bytes[64..])?,
        })
    }
}

/// `Π base^digits` over one shared chain of squarings (Straus), each
/// term's exponent given as signed digits (least-significant first, odd
/// or zero, as [`wnaf_digits`] emits). A negative digit multiplies by the
/// conjugate of the matching odd power.
///
/// The conjugate is the inverse for unitary elements; for any other
/// element it is the inverse up to a factor the final exponentiation
/// kills (`conj(f) = f^q` and `q ≡ −1 (mod r)`), which is how the pairing
/// product applies exponents to Miller-loop values. `square` is
/// [`Fq2::unitary_square`] for unitary bases and [`Fq2::square`]
/// otherwise.
pub(crate) fn signed_multi_pow(terms: &[(Fq2, &[i8])], square: fn(&Fq2) -> Fq2) -> Fq2 {
    // tables[t][k] = base_t^(2k+1), up to the largest digit of the term.
    let tables: Vec<Vec<Fq2>> = terms
        .iter()
        .map(|(base, digits)| {
            let max = digits.iter().map(|d| d.unsigned_abs()).max().unwrap_or(0);
            let mut table = vec![*base];
            if max > 1 {
                let base_sq = square(base);
                for k in 1..=usize::from(max / 2) {
                    table.push(table[k - 1].mul(&base_sq));
                }
            }
            table
        })
        .collect();
    let len = terms.iter().map(|(_, d)| d.len()).max().unwrap_or(0);
    let mut acc: Option<Fq2> = None;
    for i in (0..len).rev() {
        if let Some(a) = acc.as_mut() {
            *a = square(a);
        }
        for ((_, digits), table) in terms.iter().zip(&tables) {
            let d = digits.get(i).copied().unwrap_or(0);
            if d == 0 {
                continue;
            }
            let entry = table[usize::from(d.unsigned_abs() / 2)];
            let entry = if d < 0 { entry.conjugate() } else { entry };
            acc = Some(acc.map_or(entry, |a| a.mul(&entry)));
        }
    }
    acc.unwrap_or_else(Fq2::one)
}

impl core::ops::Add for Fq2 {
    type Output = Fq2;
    fn add(self, rhs: Fq2) -> Fq2 {
        Fq2::add(&self, &rhs)
    }
}
impl core::ops::Sub for Fq2 {
    type Output = Fq2;
    fn sub(self, rhs: Fq2) -> Fq2 {
        Fq2::sub(&self, &rhs)
    }
}
impl core::ops::Mul for Fq2 {
    type Output = Fq2;
    fn mul(self, rhs: Fq2) -> Fq2 {
        Fq2::mul(&self, &rhs)
    }
}
impl core::ops::Neg for Fq2 {
    type Output = Fq2;
    fn neg(self) -> Fq2 {
        Fq2::neg(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn i_squared_is_minus_one() {
        let i = Fq2::new(Fq::zero(), Fq::one());
        assert_eq!(i.square(), Fq2::from_fq(Fq::one().neg()));
        assert_eq!(i.mul(&i), Fq2::from_fq(Fq::one().neg()));
    }

    #[test]
    fn mul_matches_schoolbook() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fq2::random(&mut r);
            let b = Fq2::random(&mut r);
            // (a0 + a1 i)(b0 + b1 i) = (a0b0 - a1b1) + (a0b1 + a1b0) i
            let expect = Fq2 {
                c0: a.c0.mul(&b.c0).sub(&a.c1.mul(&b.c1)),
                c1: a.c0.mul(&b.c1).add(&a.c1.mul(&b.c0)),
            };
            assert_eq!(a.mul(&b), expect);
        }
    }

    #[test]
    fn square_matches_mul() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fq2::random(&mut r);
            assert_eq!(a.square(), a.mul(&a));
        }
    }

    #[test]
    fn inverse() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Fq2::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fq2::one());
        }
        assert!(Fq2::zero().invert().is_none());
    }

    #[test]
    fn conjugate_equals_q_power() {
        // The Frobenius map z ↦ z^q on F_{q²} must literally equal
        // conjugation — exponentiate by the full 512-bit q and compare.
        let mut r = rng();
        let z = Fq2::random(&mut r);
        let frobenius = z.pow_vartime(&crate::params::Q.limbs);
        assert_eq!(frobenius, z.conjugate());
    }

    #[test]
    fn unitary_subgroup_order_divides_q_plus_one() {
        // For z ≠ 0: (conj(z)/z) has norm 1 and order dividing q+1;
        // raising it by h·r = q+1 must give 1.
        let mut r = rng();
        let z = Fq2::random(&mut r);
        let unitary = z.conjugate().mul(&z.invert().unwrap());
        assert_eq!(unitary.norm(), Fq::one());
        let to_h = unitary.pow_vartime(&crate::params::H.limbs);
        let to_hr = to_h.pow_vartime(&crate::params::R.limbs);
        assert_eq!(to_hr, Fq2::one());
    }

    #[test]
    fn conjugate_is_frobenius() {
        // z^q must equal conj(z): verify via norms — z·conj(z) = norm ∈ Fq,
        // and (z^q)·z = z^{q+1} must equal the embedded norm.
        let mut r = rng();
        let z = Fq2::random(&mut r);
        let norm = Fq2::from_fq(z.norm());
        assert_eq!(z.mul(&z.conjugate()), norm);
        // Frobenius is an automorphism: conj(ab) = conj(a)conj(b).
        let w = Fq2::random(&mut r);
        assert_eq!(z.mul(&w).conjugate(), z.conjugate().mul(&w.conjugate()));
    }

    /// A random unitary element: `conj(z)/z` has norm 1.
    fn random_unitary(r: &mut StdRng) -> Fq2 {
        let z = Fq2::random(r);
        z.conjugate().mul(&z.invert().unwrap())
    }

    #[test]
    fn unitary_pow_matches_generic_pow() {
        let mut r = rng();
        let u = random_unitary(&mut r);
        for exp in [vec![0u64], vec![1], vec![2], vec![7], vec![u64::MAX, 3]] {
            assert_eq!(u.unitary_pow_vartime(&exp), u.pow_vartime(&exp));
        }
        let h = crate::params::H.limbs;
        assert_eq!(u.unitary_pow_vartime(&h), u.pow_vartime(&h));
    }

    #[test]
    fn signed_multi_pow_matches_product_of_pows() {
        let mut r = rng();
        let (a, b) = (Fq2::random(&mut r), Fq2::random(&mut r));
        let (ea, eb) = ([0x1234_5678_9abc_def1u64, 5], [77u64, 0]);
        let joint = signed_multi_pow(
            &[(a, &wnaf_digits(&ea, 4)), (b, &wnaf_digits(&eb, 4))],
            Fq2::square,
        );
        // Non-unitary bases: negative digits multiply by conjugates, so
        // the result agrees with the plain product only after the norm
        // map to unitary elements (z ↦ conj(z)/z) that the final
        // exponentiation's easy part applies.
        let plain = a.pow_vartime(&ea).mul(&b.pow_vartime(&eb));
        let easy = |z: Fq2| z.conjugate().mul(&z.invert().unwrap());
        assert_eq!(easy(joint), easy(plain));
        assert_eq!(signed_multi_pow(&[], Fq2::square), Fq2::one());
        assert_eq!(signed_multi_pow(&[(a, &[])], Fq2::square), Fq2::one());
    }

    #[test]
    fn pow_small_exponents() {
        let mut r = rng();
        let a = Fq2::random(&mut r);
        assert_eq!(a.pow_vartime(&[0]), Fq2::one());
        assert_eq!(a.pow_vartime(&[1]), a);
        assert_eq!(a.pow_vartime(&[2]), a.square());
        assert_eq!(a.pow_vartime(&[3]), a.square().mul(&a));
    }

    #[test]
    fn distributivity() {
        let mut r = rng();
        let a = Fq2::random(&mut r);
        let b = Fq2::random(&mut r);
        let c = Fq2::random(&mut r);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn byte_roundtrip() {
        let mut r = rng();
        let a = Fq2::random(&mut r);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), 128);
        assert_eq!(Fq2::from_bytes(&bytes), Some(a));
        assert!(Fq2::from_bytes(&bytes[..100]).is_none());
    }

    #[test]
    fn mul_by_fq_consistent() {
        let mut r = rng();
        let a = Fq2::random(&mut r);
        let k = Fq::from_u64(7);
        assert_eq!(a.mul_by_fq(&k), a.mul(&Fq2::from_fq(k)));
    }

    #[test]
    fn operator_overloads() {
        let mut r = rng();
        let a = Fq2::random(&mut r);
        let b = Fq2::random(&mut r);
        assert_eq!(a + b, a.add(&b));
        assert_eq!(a - b, a.sub(&b));
        assert_eq!(a * b, a.mul(&b));
        assert_eq!(-a, a.neg());
    }
}
