//! The pairing-product engine against the naive product
//! `Π pairing(P, Q)^e`, the unitary `G_T` arithmetic against the generic
//! `F_{q²}` routines, and the binary-GCD inversion against Fermat.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use mabe_math::field::{FieldParams, FqParams, FrParams};
use mabe_math::uint::Uint;
use mabe_math::{multi_pairing, pairing, Fq, Fr, G1Affine, Gt, PairingProduct, G1};

fn point(rng: &mut StdRng) -> G1Affine {
    G1Affine::from(G1::random(rng))
}

/// A group: its pairs and its exponent (`None` = 1).
type Group = (Vec<(G1Affine, G1Affine)>, Option<Fr>);

fn naive(groups: &[Group]) -> Gt {
    groups.iter().fold(Gt::one(), |acc, (pairs, exp)| {
        let inner = pairs
            .iter()
            .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing(p, q)));
        acc.mul(&exp.as_ref().map_or(inner, |e| inner.pow(e)))
    })
}

fn engine(groups: &[Group]) -> Gt {
    let mut product = PairingProduct::new();
    for (pairs, exp) in groups {
        if let Some(e) = exp {
            product.group(*e);
        }
        for (p, q) in pairs {
            product.pair(p, q);
        }
    }
    product.eval()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn product_matches_naive_on_random_points(seed in any::<u64>(), groups in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape: Vec<Group> = (0..groups)
            .map(|g| {
                let pairs = (0..1 + g % 2).map(|_| (point(&mut rng), point(&mut rng))).collect();
                let exp = (g > 0).then(|| Fr::random(&mut rng));
                (pairs, exp)
            })
            .collect();
        prop_assert_eq!(engine(&shape), naive(&shape));
    }

    #[test]
    fn repeated_points_in_either_position(seed in any::<u64>(), small in 0u64..9) {
        // The decryption shape: C' first in many pairs, PK second in
        // several, each row a group with its own exponent.
        let mut rng = StdRng::seed_from_u64(seed);
        let (c_prime, pk) = (point(&mut rng), point(&mut rng));
        let mut shape: Vec<Group> = vec![(vec![(c_prime, point(&mut rng)), (c_prime, point(&mut rng))], None)];
        for exp in [Fr::random(&mut rng), Fr::from_u64(small), Fr::from_u64(small).neg()] {
            shape.push((vec![(point(&mut rng), pk), (c_prime, point(&mut rng))], Some(exp)));
        }
        prop_assert_eq!(engine(&shape), naive(&shape));
    }
}

#[test]
fn identity_arguments_contribute_one() {
    let mut rng = StdRng::seed_from_u64(7);
    let (p, q) = (point(&mut rng), point(&mut rng));
    let id = G1Affine::identity();
    let e = Fr::random(&mut rng);
    let with_ids: Vec<Group> = vec![
        (vec![(p, q), (id, q)], None),
        (vec![(p, id), (id, id)], Some(e)),
        (vec![(q, p)], Some(e)),
    ];
    let without: Vec<Group> = vec![(vec![(p, q)], None), (vec![(q, p)], Some(e))];
    assert_eq!(engine(&with_ids), naive(&without));
    assert!(engine(&[(vec![(id, p)], Some(e))]).is_one());
}

#[test]
fn single_term_is_pairing_and_empty_product_is_one() {
    let mut rng = StdRng::seed_from_u64(8);
    let (p, q) = (point(&mut rng), point(&mut rng));
    assert_eq!(engine(&[(vec![(p, q)], None)]), pairing(&p, &q));
    assert!(PairingProduct::new().eval().is_one());
    let mut empty_groups = PairingProduct::new();
    empty_groups.group(Fr::from_u64(5)).group(Fr::zero());
    assert!(empty_groups.eval().is_one());
}

#[test]
fn exponent_zero_one_and_minus_one() {
    let mut rng = StdRng::seed_from_u64(9);
    let (p, q) = (point(&mut rng), point(&mut rng));
    let e = pairing(&p, &q);
    let one = Fr::one();
    assert!(engine(&[(vec![(p, q)], Some(Fr::zero()))]).is_one());
    assert_eq!(engine(&[(vec![(p, q)], Some(one))]), e);
    assert_eq!(engine(&[(vec![(p, q)], Some(one.neg()))]), e.invert());
}

#[test]
fn gt_factors_are_raised_with_their_group() {
    let mut rng = StdRng::seed_from_u64(10);
    let (p, q) = (point(&mut rng), point(&mut rng));
    let f = Gt::random(&mut rng);
    let c = Fr::random(&mut rng);
    let mut product = PairingProduct::new();
    product.group(c).factor(&f).pair(&p, &q);
    assert_eq!(product.eval(), f.mul(&pairing(&p, &q)).pow(&c));
}

#[test]
fn multi_pairing_is_the_product_of_pairings() {
    let mut rng = StdRng::seed_from_u64(11);
    let c = point(&mut rng);
    let pairs: Vec<(G1Affine, G1Affine)> = (0..4)
        .map(|i| {
            if i % 2 == 0 {
                (c, point(&mut rng))
            } else {
                (point(&mut rng), c)
            }
        })
        .collect();
    let expect = pairs
        .iter()
        .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing(p, q)));
    assert_eq!(multi_pairing(&pairs), expect);
    // Bilinearity through the engine: e(aP, bQ) = e(P, Q)^{ab}.
    let (a, b) = (Fr::random(&mut rng), Fr::random(&mut rng));
    let (p, q) = (G1::random(&mut rng), G1::random(&mut rng));
    let lhs = multi_pairing(&[(G1Affine::from(p.mul(&a)), G1Affine::from(q.mul(&b)))]);
    let rhs = pairing(&G1Affine::from(p), &G1Affine::from(q)).pow(&a.mul(&b));
    assert_eq!(lhs, rhs);
}

#[test]
fn op_accounting_follows_nominal_counts() {
    let mut rng = StdRng::seed_from_u64(12);
    let (p, q) = (point(&mut rng), point(&mut rng));
    let id = G1Affine::identity();
    let mut product = PairingProduct::new();
    product.pair(&p, &q).pair(&id, &q);
    product.group(Fr::from_u64(3)).pair(&q, &p);
    product.group(Fr::from_u64(4));
    let ((), counts) = mabe_telemetry::measure(|| {
        product.eval();
    });
    assert_eq!(counts.pairings, 3);
    assert_eq!(counts.gt_pows, 2);
    assert_eq!(counts.g1_muls, 0);
}

#[test]
fn unitary_square_equals_square_on_gt() {
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..8 {
        let x = *Gt::random(&mut rng).as_fq2();
        assert_eq!(x.unitary_square(), x.square());
    }
}

#[test]
fn unitary_gt_pow_matches_generic_pow() {
    let mut rng = StdRng::seed_from_u64(14);
    let g = Gt::random(&mut rng);
    let r_minus_1 = Fr::one().neg();
    let mut exps = vec![Fr::zero(), Fr::one(), r_minus_1, Fr::from_u64(2).neg()];
    exps.extend((0..6).map(|_| Fr::random(&mut rng)));
    for k in exps {
        let generic = g.as_fq2().pow_vartime(&k.to_uint().limbs);
        assert_eq!(g.pow(&k).as_fq2(), &generic, "exponent {k:?}");
    }
    assert_eq!(g.pow(&r_minus_1), g.invert());
}

fn fermat_oracle_agrees<P: FieldParams<L>, const L: usize>(seed: u64) {
    use mabe_math::field::FieldElement;
    let mut rng = StdRng::seed_from_u64(seed);
    let one = FieldElement::<P, L>::one();
    assert!(FieldElement::<P, L>::zero().invert().is_none());
    assert_eq!(one.invert(), Some(one));
    let minus_one = one.neg(); // m - 1
    assert_eq!(minus_one.invert(), Some(minus_one));
    let top = FieldElement::<P, L>::from_uint(&P::MODULUS.sbb(Uint::from_u64(2)).0);
    assert_eq!(top.invert(), top.invert_fermat());
    for _ in 0..32 {
        let a = FieldElement::<P, L>::random(&mut rng);
        let inv = a.invert();
        assert_eq!(inv, a.invert_fermat());
        if let Some(inv) = inv {
            assert_eq!(inv.mul(&a), one);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn binary_inversion_matches_fermat(seed in any::<u64>()) {
        fermat_oracle_agrees::<FqParams, 8>(seed);
        fermat_oracle_agrees::<FrParams, 3>(seed);
    }

    #[test]
    fn binary_inversion_of_small_values(v in 1u64..u64::MAX) {
        let (a, b) = (Fq::from_u64(v), Fr::from_u64(v));
        prop_assert_eq!(a.invert(), a.invert_fermat());
        prop_assert_eq!(b.invert(), b.invert_fermat());
    }
}
