//! Parameters of the pairing group: the PBC library's standard type-A
//! curve, i.e. the exact curve the paper's evaluation ran on.
//!
//! * Base field `F_q`, `q` a 512-bit prime with `q ≡ 3 (mod 4)`.
//! * Supersingular curve `E : y² = x³ + x` over `F_q` with
//!   `#E(F_q) = q + 1 = h · r`.
//! * `G` is the order-`r` subgroup (`r = 2¹⁵⁹ + 2¹⁰⁷ + 1`, a 160-bit prime).
//! * Embedding degree 2: the Tate pairing lands in `μ_r ⊂ F_{q²}*`.

use std::sync::OnceLock;

use crate::uint::{wnaf_digits, Uint};

/// Decimal expansion of the base-field prime `q` (512 bits).
pub const Q_DEC: &str = "8780710799663312522437781984754049815806883199414208211028653399266475630880222957078625179422662221423155858769582317459277713367317481324925129998224791";

/// Decimal expansion of the group order `r = 2¹⁵⁹ + 2¹⁰⁷ + 1` (160 bits).
pub const R_DEC: &str = "730750818665451621361119245571504901405976559617";

/// Decimal expansion of the cofactor `h = (q + 1) / r` (353 bits).
pub const H_DEC: &str = "12016012264891146079388821366740534204802954401251311822919615131047207289359704531102844802183906537786776";

/// The base-field prime as an 8-limb integer.
pub const Q: Uint<8> = Uint::from_decimal(Q_DEC);

/// The group order as a 3-limb integer.
pub const R: Uint<3> = Uint::from_decimal(R_DEC);

/// The cofactor as a 6-limb integer.
pub const H: Uint<6> = Uint::from_decimal(H_DEC);

/// Bit length of `r` — drives the Miller loop length.
pub const R_BITS: usize = 160;

/// Width-4 signed digits of the cofactor `h`, shared by cofactor
/// clearing in hash-to-curve and the final exponentiation's hard part.
pub(crate) fn h_wnaf() -> &'static [i8] {
    static DIGITS: OnceLock<Vec<i8>> = OnceLock::new();
    DIGITS.get_or_init(|| wnaf_digits(&H.limbs, 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_has_512_bits() {
        assert_eq!(Q.bits(), 512);
    }

    #[test]
    fn q_is_3_mod_4() {
        assert_eq!(Q.limbs[0] & 3, 3);
    }

    #[test]
    fn r_structure() {
        assert_eq!(R.bits(), 160);
        let mut expect = Uint::<3>::ZERO;
        expect.limbs[2] = 1 << 31; // 2^159
        expect.limbs[1] = 1 << 43; // 2^107
        expect.limbs[0] = 1;
        assert_eq!(R, expect);
    }

    #[test]
    fn h_has_353_bits() {
        assert_eq!(H.bits(), 353);
    }
}
