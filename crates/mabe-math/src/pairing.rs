//! The symmetric Tate pairing `e : G × G → G_T` and the target group
//! [`Gt`].
//!
//! The curve is supersingular with embedding degree 2, so the modified
//! Tate pairing `ê(P, Q) = τ_r(P, φ(Q))` with the distortion map
//! `φ(x, y) = (-x, iy)` is **symmetric and non-degenerate on G × G** —
//! exactly the `e : G × G → G_T` the paper's construction assumes.
//!
//! Implementation notes:
//!
//! * Miller loop over `r = 2¹⁵⁹ + 2¹⁰⁷ + 1` (Hamming weight 3 ⇒ only two
//!   addition steps), Jacobian coordinates, denominator elimination (all
//!   vertical-line values lie in `F_q` and die in the final
//!   exponentiation).
//! * Because `φ(Q)` has `x ∈ F_q` and `y ∈ i·F_q`, every line evaluation
//!   costs only `F_q` multiplications.
//! * Final exponentiation `(q² - 1)/r = (q - 1) · h`: the easy part is a
//!   conjugate-divide (Frobenius on `F_{q²}` is conjugation), the hard
//!   part a 353-bit exponentiation by the cofactor `h`. The easy part's
//!   output is unitary, so the hard part (like [`Gt::pow`]) uses
//!   two-squaring unitary squarings and signed digits.
//! * [`PairingProduct`] is the one Miller-loop driver: [`pairing`] and
//!   [`multi_pairing`] are one-group products, and the scheme's
//!   decryption is a product of `|I| + 1` groups sharing one final
//!   exponentiation.

use std::collections::HashMap;
use std::sync::OnceLock;

use rand::RngCore;

use crate::curve::{G1Affine, G1};
use crate::field::{Fq, Fr};
use crate::fp2::{signed_multi_pow, Fq2};
use crate::params;
use crate::uint::wnaf_digits;

/// A Miller-loop line, stored as the coefficients of its value at the
/// distorted partner point: `l(φQ) = (a·x_Q + b) + (c·y_Q)·i`. Walking
/// the Miller point once yields the lines; each partner then pays two
/// `F_q` multiplications per line.
#[derive(Clone, Copy)]
struct Line {
    a: Fq,
    b: Fq,
    c: Fq,
}

impl Line {
    fn eval(&self, xq: &Fq, yq: &Fq) -> Fq2 {
        Fq2::new(self.a.mul(xq).add(&self.b), self.c.mul(yq))
    }
}

/// Doubling step: replaces `t` by `2t` and returns the tangent line at
/// `t`, or `None` when its value lies in `F_q` (eliminated by the final
/// exponentiation).
fn double_step(t: &mut G1) -> Option<Line> {
    if t.is_identity() {
        return None;
    }
    let x = t.x;
    let (doubled, [m, y2, z2]) = t.double_with_slope();
    *t = doubled;
    // l(φQ) = Z₃·Z²·(i·y_q) - 2Y² - M·(Z²·(-x_q) - X)
    //       = [(M·Z²)·x_q + (M·X - 2Y²)] + [(Z₃·Z²)·y_q]·i
    Some(Line {
        a: m.mul(&z2),
        b: m.mul(&x).sub(&y2.double()),
        c: t.z.mul(&z2),
    })
}

/// Addition step: replaces `t` by `t + p` and returns the chord through
/// `t` and the affine base point `p` (`None` when eliminated).
fn add_step(t: &mut G1, p: &G1Affine) -> Option<Line> {
    if t.is_identity() {
        *t = G1::from(*p);
        return None;
    }
    let (x, y, z) = (t.x, t.y, t.z);
    let z2 = z.square();
    let u = p.x().mul(&z2);
    let s_val = p.y().mul(&z2).mul(&z);
    let h = u.sub(&x);
    let r = s_val.sub(&y);
    if h.is_zero() {
        if r.is_zero() {
            // t == p: tangent case (cannot occur in our loop, but correct).
            return double_step(t);
        }
        // t == -p: vertical line, value in F_q ⇒ eliminated.
        *t = G1::identity();
        return None;
    }
    let h2 = h.square();
    let h3 = h2.mul(&h);
    let xh2 = x.mul(&h2);
    let x3 = r.square().sub(&h3).sub(&xh2.double());
    let y3 = r.mul(&xh2.sub(&x3)).sub(&y.mul(&h3));
    let z3 = z.mul(&h);
    *t = G1 {
        x: x3,
        y: y3,
        z: z3,
    };
    // l(φQ) = Z₃·(i·y_q - y_p) - R·(-x_q - x_p)
    //       = [R·x_q + (R·x_p - Z₃·y_p)] + [Z₃·y_q]·i
    Some(Line {
        a: r,
        b: r.mul(&p.x()).sub(&z3.mul(&p.y())),
        c: z3,
    })
}

/// Raises a Miller-loop value to `(q² - 1)/r`, landing in the order-`r`
/// subgroup of `F_{q²}*`.
fn final_exponentiation(f: &Fq2) -> Fq2 {
    // Easy part: f^(q-1) = conj(f) / f, a unitary element.
    let inv = f.invert().expect("Miller loop output is nonzero");
    let easy = f.conjugate().mul(&inv);
    // Hard part: (q + 1)/r = h, by unitary squarings and signed digits.
    signed_multi_pow(&[(easy, params::h_wnaf())], Fq2::unitary_square)
}

/// An exponent `k ∈ F_r` as signed digits. When `r - k` is shorter than
/// `k`, the digits are those of `r - k` and apply to the conjugate of the
/// base (its inverse, up to the final exponentiation).
struct Exponent {
    conj: bool,
    digits: Vec<i8>,
}

impl Exponent {
    fn of(k: &Fr) -> Self {
        let (pos, neg) = (k.to_uint(), k.neg().to_uint());
        let conj = neg.bits() < pos.bits();
        let limbs = if conj { neg.limbs } else { pos.limbs };
        Exponent {
            conj,
            digits: wnaf_digits(&limbs, 4),
        }
    }

    fn one() -> Self {
        Exponent {
            conj: false,
            digits: vec![1],
        }
    }

    /// The `(base, digits)` term of a [`signed_multi_pow`] ladder.
    fn term(&self, base: &Fq2) -> (Fq2, &[i8]) {
        let base = if self.conj { base.conjugate() } else { *base };
        (base, &self.digits)
    }
}

/// One group of a [`PairingProduct`]: `(factor · Π e(P, Q))^exp`.
struct Group {
    pairs: Vec<(G1Affine, G1Affine)>,
    factor: Option<Gt>,
    exp: Option<Fr>,
}

/// A distinct Miller point, walked once, and the partners its lines are
/// evaluated at: `(x_Q, y_Q, group)`.
struct Walk {
    base: G1Affine,
    t: G1,
    partners: Vec<(Fq, Fq, usize)>,
}

/// The pairing-product engine: computes
/// `Π_g (f_g · Π_{(P,Q) ∈ g} e(P, Q))^{e_g}` with one final
/// exponentiation.
///
/// * Each distinct Miller point is walked once; its line coefficients
///   are evaluated at every partner point. Because `e(P, Q) = e(Q, P)`
///   on `G`, a pair whose second argument repeats across the product
///   walks that argument instead.
/// * Each group keeps its own Miller accumulator. The group exponents
///   are applied to the accumulators in one shared ladder of squarings
///   before the single final exponentiation (a homomorphism, so
///   `FE(Π m_g^{e_g}) = Π FE(m_g)^{e_g}`).
/// * The optional `G_T` factors `f_g` are raised in a second, unitary
///   ladder and multiplied in afterwards.
///
/// Op accounting follows the paper's nominal counts: one
/// [`Pairing`](mabe_telemetry::CryptoOp::Pairing) per pair (identity
/// arguments included) and one
/// [`GtPow`](mabe_telemetry::CryptoOp::GtPow) per group with an
/// explicit exponent.
///
/// ```
/// use mabe_math::curve::{G1Affine, G1};
/// use mabe_math::field::Fr;
/// use mabe_math::pairing::{pairing, PairingProduct};
///
/// let g = G1Affine::generator();
/// let h = G1Affine::from(G1::generator().mul(&Fr::from_u64(5)));
/// let mut product = PairingProduct::new();
/// product.pair(&g, &h); // group 0, exponent 1
/// product.group(Fr::from_u64(3)).pair(&g, &g);
/// let expect = pairing(&g, &h).mul(&pairing(&g, &g).pow(&Fr::from_u64(3)));
/// assert_eq!(product.eval(), expect);
/// ```
pub struct PairingProduct {
    groups: Vec<Group>,
}

impl Default for PairingProduct {
    fn default() -> Self {
        Self::new()
    }
}

impl PairingProduct {
    /// An empty product with one open group of exponent 1.
    pub fn new() -> Self {
        PairingProduct {
            groups: vec![Group {
                pairs: Vec::new(),
                factor: None,
                exp: None,
            }],
        }
    }

    /// Opens a new group raised to `exp`; later [`Self::pair`] and
    /// [`Self::factor`] calls join it.
    pub fn group(&mut self, exp: Fr) -> &mut Self {
        self.groups.push(Group {
            pairs: Vec::new(),
            factor: None,
            exp: Some(exp),
        });
        self
    }

    /// Multiplies `e(p, q)` into the open group.
    pub fn pair(&mut self, p: &G1Affine, q: &G1Affine) -> &mut Self {
        self.open().pairs.push((*p, *q));
        self
    }

    /// Multiplies a `G_T` element into the open group (it is raised to
    /// the group's exponent with the pairings).
    pub fn factor(&mut self, f: &Gt) -> &mut Self {
        let open = self.open();
        open.factor = Some(open.factor.map_or(*f, |g| g.mul(f)));
        self
    }

    fn open(&mut self) -> &mut Group {
        self.groups
            .last_mut()
            .expect("a product always has a group")
    }

    /// Evaluates the product.
    pub fn eval(&self) -> Gt {
        for group in &self.groups {
            for _ in &group.pairs {
                mabe_telemetry::record(mabe_telemetry::CryptoOp::Pairing);
            }
            if group.exp.is_some() {
                mabe_telemetry::record(mabe_telemetry::CryptoOp::GtPow);
            }
        }
        let exps: Vec<Exponent> = self
            .groups
            .iter()
            .map(|g| g.exp.as_ref().map_or_else(Exponent::one, Exponent::of))
            .collect();
        let mut result = self.miller_part(&exps);
        let factors: Vec<(Fq2, &[i8])> = self
            .groups
            .iter()
            .zip(&exps)
            .filter_map(|(g, e)| Some(e.term(&g.factor?.0)))
            .collect();
        if !factors.is_empty() {
            result = result.mul(&Gt(signed_multi_pow(&factors, Fq2::unitary_square)));
        }
        result
    }

    /// `FE(Π_g m_g^{e_g})` over the groups' Miller accumulators.
    fn miller_part(&self, exps: &[Exponent]) -> Gt {
        let live = self.groups.iter().enumerate().flat_map(|(g, group)| {
            group
                .pairs
                .iter()
                .filter(|(p, q)| !p.is_identity() && !q.is_identity())
                .map(move |(p, q)| (g, p, q))
        });
        let mut uses: HashMap<G1Affine, usize> = HashMap::new();
        for (_, p, q) in live.clone() {
            *uses.entry(*p).or_default() += 1;
            *uses.entry(*q).or_default() += 1;
        }
        // Walk the argument already being walked, else the more used one.
        let mut walks: Vec<Walk> = Vec::new();
        let mut walk_of: HashMap<G1Affine, usize> = HashMap::new();
        for (g, p, q) in live {
            let (base, partner) = if walk_of.contains_key(p) {
                (p, q)
            } else if walk_of.contains_key(q) || uses[q] > uses[p] {
                (q, p)
            } else {
                (p, q)
            };
            let w = *walk_of.entry(*base).or_insert_with(|| {
                walks.push(Walk {
                    base: *base,
                    t: G1::from(*base),
                    partners: Vec::new(),
                });
                walks.len() - 1
            });
            walks[w].partners.push((partner.x(), partner.y(), g));
        }
        if walks.is_empty() {
            return Gt::one();
        }

        // Accumulators of groups without live pairs stay 1 and are skipped.
        let mut active = vec![false; self.groups.len()];
        for walk in &walks {
            for (_, _, g) in &walk.partners {
                active[*g] = true;
            }
        }
        let mut acc = vec![Fq2::one(); self.groups.len()];
        // r = 2^159 + 2^107 + 1; iterate bits 158..=0 below the leading 1.
        for i in (0..(params::R_BITS - 1)).rev() {
            for (f, _) in acc.iter_mut().zip(&active).filter(|(_, a)| **a) {
                *f = f.square();
            }
            for walk in walks.iter_mut() {
                let mut lines = [double_step(&mut walk.t), None];
                if params::R.bit(i) {
                    lines[1] = add_step(&mut walk.t, &walk.base);
                }
                for line in lines.iter().flatten() {
                    for (xq, yq, g) in &walk.partners {
                        acc[*g] = acc[*g].mul(&line.eval(xq, yq));
                    }
                }
            }
        }
        let terms: Vec<(Fq2, &[i8])> = acc
            .iter()
            .zip(exps)
            .zip(&active)
            .filter(|(_, a)| **a)
            .map(|((f, e), _)| e.term(f))
            .collect();
        Gt(final_exponentiation(&signed_multi_pow(&terms, Fq2::square)))
    }
}

/// The symmetric pairing `e(P, Q)`.
///
/// Returns the identity of `G_T` if either argument is the identity of
/// `G` (consistent with bilinearity).
pub fn pairing(p: &G1Affine, q: &G1Affine) -> Gt {
    multi_pairing(&[(*p, *q)])
}

/// Computes `Π e(P_i, Q_i)` with one shared final exponentiation: a
/// one-group [`PairingProduct`].
///
/// Identity arguments contribute a factor of 1, like [`pairing`].
pub fn multi_pairing(pairs: &[(G1Affine, G1Affine)]) -> Gt {
    let mut product = PairingProduct::new();
    for (p, q) in pairs {
        product.pair(p, q);
    }
    product.eval()
}

/// An element of the target group `G_T` (the order-`r` subgroup of
/// `F_{q²}*`; all members are unitary, so inversion is conjugation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Gt(Fq2);

impl Gt {
    /// The multiplicative identity.
    pub fn one() -> Self {
        Gt(Fq2::one())
    }

    /// `true` for the identity.
    pub fn is_one(&self) -> bool {
        self.0 == Fq2::one()
    }

    /// The canonical generator `e(g, g)`.
    pub fn generator() -> Self {
        static GEN: OnceLock<Gt> = OnceLock::new();
        *GEN.get_or_init(|| {
            let g = G1Affine::generator();
            pairing(&g, &g)
        })
    }

    /// Group operation (multiplication in `F_{q²}`).
    pub fn mul(&self, rhs: &Self) -> Self {
        Gt(self.0.mul(&rhs.0))
    }

    /// Exponentiation by a scalar (unitary squarings, signed digits).
    pub fn pow(&self, k: &Fr) -> Self {
        mabe_telemetry::record(mabe_telemetry::CryptoOp::GtPow);
        let exp = Exponent::of(k);
        Gt(signed_multi_pow(&[exp.term(&self.0)], Fq2::unitary_square))
    }

    /// Inverse (conjugation — valid because `G_T` elements are unitary).
    pub fn invert(&self) -> Self {
        Gt(self.0.conjugate())
    }

    /// Division: `self · rhs⁻¹`.
    pub fn div(&self, rhs: &Self) -> Self {
        self.mul(&rhs.invert())
    }

    /// Uniformly random element (known exponent is discarded).
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generator().pow(&Fr::random(rng))
    }

    /// Canonical 128-byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Parses and validates the canonical encoding (subgroup-checked).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let inner = Fq2::from_bytes(bytes)?;
        if !in_subgroup(&inner) {
            return None;
        }
        Some(Gt(inner))
    }

    /// Raw access to the underlying `F_{q²}` element (for tests/benches).
    pub fn as_fq2(&self) -> &Fq2 {
        &self.0
    }

    /// Compressed 65-byte encoding exploiting unitarity: members of
    /// `G_T` satisfy `c0² + c1² = 1`, so `c1` is determined by `c0` up
    /// to sign. Format: flag byte (`0x02 | parity(c1)`) followed by the
    /// 64-byte big-endian `c0`.
    pub fn to_compressed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(65);
        out.push(0x02 | u8::from(self.0.c1.is_odd()));
        out.extend_from_slice(&self.0.c0.to_canonical_bytes());
        out
    }

    /// Parses the compressed encoding (subgroup-checked).
    pub fn from_compressed_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 65 {
            return None;
        }
        let flag = bytes[0];
        if flag != 0x02 && flag != 0x03 {
            return None;
        }
        let c0 = Fq::from_canonical_bytes(&bytes[1..])?;
        // c1² = 1 - c0²
        let c1_sq = Fq::one().sub(&c0.square());
        let mut c1 = c1_sq.sqrt()?;
        if c1.is_odd() != (flag & 1 == 1) {
            c1 = c1.neg();
        }
        let inner = Fq2::new(c0, c1);
        if !in_subgroup(&inner) {
            return None;
        }
        Some(Gt(inner))
    }
}

/// Membership in the order-`r` subgroup of `F_{q²}*`: unitary (norm 1,
/// which also rules out zero), then order dividing `r`, checked with
/// unitary squarings.
fn in_subgroup(x: &Fq2) -> bool {
    x.norm() == Fq::one() && x.unitary_pow_vartime(&params::R.limbs) == Fq2::one()
}

impl core::ops::Mul for Gt {
    type Output = Gt;
    fn mul(self, rhs: Gt) -> Gt {
        Gt::mul(&self, &rhs)
    }
}

impl core::fmt::Display for Gt {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Gt({:?})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn non_degenerate() {
        let e = Gt::generator();
        assert!(!e.is_one());
    }

    #[test]
    fn generator_has_order_r() {
        let e = Gt::generator();
        let r_scalar = params::R;
        assert_eq!(e.as_fq2().pow_vartime(&r_scalar.limbs), Fq2::one());
    }

    #[test]
    fn bilinear_in_first_argument() {
        let g = G1Affine::generator();
        let a = Fr::from_u64(123456);
        let ga = G1Affine::from(G1::generator().mul(&a));
        let lhs = pairing(&ga, &g);
        let rhs = pairing(&g, &g).pow(&a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bilinear_in_second_argument() {
        let g = G1Affine::generator();
        let b = Fr::from_u64(98765);
        let gb = G1Affine::from(G1::generator().mul(&b));
        assert_eq!(pairing(&g, &gb), pairing(&g, &g).pow(&b));
    }

    #[test]
    fn bilinear_random_scalars() {
        let mut r = rng();
        let g = G1Affine::generator();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let ga = G1Affine::from(G1::generator().mul(&a));
        let gb = G1Affine::from(G1::generator().mul(&b));
        assert_eq!(pairing(&ga, &gb), pairing(&g, &g).pow(&a.mul(&b)));
    }

    #[test]
    fn symmetric() {
        let mut r = rng();
        let p = G1Affine::from(G1::random(&mut r));
        let q = G1Affine::from(G1::random(&mut r));
        assert_eq!(pairing(&p, &q), pairing(&q, &p));
    }

    #[test]
    fn identity_arguments() {
        let g = G1Affine::generator();
        let id = G1Affine::identity();
        assert!(pairing(&id, &g).is_one());
        assert!(pairing(&g, &id).is_one());
    }

    #[test]
    fn pairing_with_negation() {
        let mut r = rng();
        let p = G1Affine::from(G1::random(&mut r));
        let q = G1Affine::from(G1::random(&mut r));
        let e = pairing(&p, &q);
        assert_eq!(pairing(&p.neg(), &q), e.invert());
        assert_eq!(pairing(&p, &q.neg()), e.invert());
        assert!(pairing(&p.neg(), &q).mul(&e).is_one());
    }

    #[test]
    fn gt_group_laws() {
        let mut r = rng();
        let a = Gt::random(&mut r);
        let b = Gt::random(&mut r);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert!(a.mul(&a.invert()).is_one());
        assert_eq!(a.div(&a), Gt::one());
        assert_eq!(a.mul(&Gt::one()), a);
    }

    #[test]
    fn gt_pow_laws() {
        let mut r = rng();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let g = Gt::generator();
        assert_eq!(g.pow(&a).pow(&b), g.pow(&a.mul(&b)));
        assert_eq!(g.pow(&a).mul(&g.pow(&b)), g.pow(&a.add(&b)));
        assert_eq!(g.pow(&Fr::zero()), Gt::one());
        assert_eq!(g.pow(&Fr::one()), g);
    }

    #[test]
    fn gt_bytes_roundtrip() {
        let mut r = rng();
        let a = Gt::random(&mut r);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), 128);
        assert_eq!(Gt::from_bytes(&bytes), Some(a));
        // Zero is rejected.
        assert!(Gt::from_bytes(&[0u8; 128]).is_none());
        // Wrong length is rejected.
        assert!(Gt::from_bytes(&bytes[..127]).is_none());
    }

    #[test]
    fn gt_compressed_roundtrip() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Gt::random(&mut r);
            let compressed = a.to_compressed_bytes();
            assert_eq!(compressed.len(), 65);
            assert_eq!(Gt::from_compressed_bytes(&compressed), Some(a));
        }
        // Identity: c0 = 1, c1 = 0.
        let one = Gt::one();
        assert_eq!(
            Gt::from_compressed_bytes(&one.to_compressed_bytes()),
            Some(one)
        );
        // Bad flag and bad length rejected.
        let mut bad = Gt::generator().to_compressed_bytes();
        bad[0] = 0x00;
        assert!(Gt::from_compressed_bytes(&bad).is_none());
        assert!(Gt::from_compressed_bytes(&[0u8; 64]).is_none());
        // Random c0 almost surely fails the subgroup/sqrt checks.
        let mut junk = vec![0x02u8];
        junk.extend_from_slice(&Fq::from_u64(123456).to_canonical_bytes());
        assert!(Gt::from_compressed_bytes(&junk).is_none());
    }

    #[test]
    fn gt_from_bytes_rejects_wrong_order() {
        // A random Fq2 element is overwhelmingly unlikely to have order r.
        let mut r = rng();
        let junk = Fq2::random(&mut r);
        assert!(Gt::from_bytes(&junk.to_bytes()).is_none());
    }

    #[test]
    fn multi_pairing_matches_product() {
        let mut r = rng();
        let pairs: Vec<(G1Affine, G1Affine)> = (0..4)
            .map(|_| {
                (
                    G1Affine::from(G1::random(&mut r)),
                    G1Affine::from(G1::random(&mut r)),
                )
            })
            .collect();
        let expected = pairs
            .iter()
            .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing(p, q)));
        assert_eq!(multi_pairing(&pairs), expected);
    }

    #[test]
    fn multi_pairing_edge_cases() {
        let mut r = rng();
        assert!(multi_pairing(&[]).is_one());
        let p = G1Affine::from(G1::random(&mut r));
        let q = G1Affine::from(G1::random(&mut r));
        // Single pair equals plain pairing.
        assert_eq!(multi_pairing(&[(p, q)]), pairing(&p, &q));
        // Identity pairs are skipped.
        let id = G1Affine::identity();
        assert_eq!(multi_pairing(&[(p, q), (id, q), (p, id)]), pairing(&p, &q));
        assert!(multi_pairing(&[(id, id)]).is_one());
        // A pair and its negation cancel.
        assert!(multi_pairing(&[(p, q), (p.neg(), q)]).is_one());
    }

    #[test]
    fn pairing_linear_in_both_args_simultaneously() {
        // e(P1 + P2, Q) = e(P1, Q) · e(P2, Q)
        let mut r = rng();
        let p1 = G1::random(&mut r);
        let p2 = G1::random(&mut r);
        let q = G1Affine::from(G1::random(&mut r));
        let lhs = pairing(&G1Affine::from(p1.add(&p2)), &q);
        let rhs = pairing(&G1Affine::from(p1), &q).mul(&pairing(&G1Affine::from(p2), &q));
        assert_eq!(lhs, rhs);
    }
}
