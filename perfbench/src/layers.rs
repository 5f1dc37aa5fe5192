//! The per-layer half of the cost ledger: self time of the program's
//! own spans, folded from the flight recorder during a traced run, and
//! unit costs of the lower layers timed by calling their public
//! functions directly on the workload's own policy shapes, ciphertexts
//! and points.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::time::Instant;

use mabe_core::{
    decrypt, reencrypt, AttributeAuthority, CertificateAuthority, DataOwner, OwnerId, UserSecretKey,
};
use mabe_math::{hash_to_curve, pairing, Fr, G1Affine, Gt, G1};
use mabe_policy::{parse, AccessStructure, Attribute, AuthorityId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::script::{attribute, Spec};
use crate::stats::median;

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, µs.
    pub total_us: u64,
    /// Sum of self times (duration minus direct children), µs.
    pub self_us: u64,
}

/// Folds spans from the global flight recorder as they commit.
///
/// The recorder is a ring of [`mabe_trace::DEFAULT_CAPACITY`] spans, so
/// the fold runs whenever a quarter of it has filled; spans that were
/// overwritten before a fold are counted in `dropped`.
#[derive(Debug, Default)]
pub struct SpanFold {
    last: u64,
    /// Totals per span name.
    pub by_name: BTreeMap<&'static str, SpanTotals>,
    /// Totals per (root span name, span name): which op a span served.
    pub by_root: BTreeMap<(&'static str, &'static str), SpanTotals>,
    /// Spans lost to ring wrap-around.
    pub dropped: u64,
}

impl SpanFold {
    /// Starts folding at the recorder's current position.
    pub fn start() -> SpanFold {
        SpanFold {
            last: mabe_trace::recorder::global().committed(),
            ..SpanFold::default()
        }
    }

    /// Folds if enough spans are waiting.
    pub fn maybe_fold(&mut self) {
        let waiting = mabe_trace::recorder::global().committed() - self.last;
        if waiting as usize >= mabe_trace::DEFAULT_CAPACITY / 4 {
            self.fold();
        }
    }

    /// Folds every span committed since the last fold.
    pub fn fold(&mut self) {
        let rec = mabe_trace::recorder::global();
        let now = rec.committed();
        let waiting = (now - self.last) as usize;
        self.last = now;
        if waiting == 0 {
            return;
        }
        let take = waiting.min(rec.capacity());
        self.dropped += (waiting - take) as u64;
        let spans = rec.recent(take);
        let mut children: HashMap<u64, u64> = HashMap::new();
        let mut roots: HashMap<u64, &'static str> = HashMap::new();
        for s in &spans {
            if s.ctx.is_root() {
                roots.insert(s.ctx.trace_id, s.name);
            } else {
                *children.entry(s.ctx.parent_id).or_default() += s.dur_us;
            }
        }
        for s in &spans {
            let covered = children.get(&s.ctx.span_id).copied().unwrap_or(0);
            let root = roots.get(&s.ctx.trace_id).copied().unwrap_or("?");
            for t in [
                self.by_name.entry(s.name).or_default(),
                self.by_root.entry((root, s.name)).or_default(),
            ] {
                t.count += 1;
                t.total_us += s.dur_us;
                t.self_us += s.dur_us.saturating_sub(covered);
            }
        }
    }

    /// Totals for `name` (zero if it never closed).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Totals for spans named `name` under a root named `root`.
    pub fn under(&self, root: &str, name: &str) -> SpanTotals {
        self.by_root.get(&(root, name)).copied().unwrap_or_default()
    }
}

/// Median per-call time in µs of `f`, over 5 batches of `reps` calls.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut batches = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..reps {
            black_box(f());
        }
        batches.push(start.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    median(&batches)
}

/// One unit cost.
pub struct UnitCost {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Times the lower layers directly on `spec`'s shapes. Returns the
/// ledger's unit costs plus one human-readable line per policy shape.
///
/// # Panics
///
/// If the scheme fails on the workload's own shapes, which would be a
/// bug the oracle also reports.
pub fn unit_costs(spec: &Spec, seed: u64) -> (Vec<UnitCost>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = CertificateAuthority::new();
    let owner_id = OwnerId::new("owner0");
    let mut owner = DataOwner::new(owner_id.clone(), &mut rng);
    let reader = ca.register_user("reader", &mut rng).expect("fresh uid");
    let victim = ca.register_user("victim", &mut rng).expect("fresh uid");
    let mut authorities: Vec<AttributeAuthority> = Vec::new();
    let mut keys: BTreeMap<AuthorityId, UserSecretKey> = BTreeMap::new();
    let mut held: BTreeSet<Attribute> = BTreeSet::new();
    for (name, attrs) in &spec.authorities {
        let aid = ca.register_authority(name).expect("fresh aid");
        let mut aa = AttributeAuthority::new(aid.clone(), attrs, &mut rng);
        aa.register_owner(owner.owner_secret_key())
            .expect("fresh owner");
        owner.learn_authority_keys(aa.public_keys());
        let mine: Vec<Attribute> = attrs
            .iter()
            .map(|a| attribute(&format!("{a}@{name}")))
            .collect();
        held.extend(mine.iter().cloned());
        aa.grant(&reader, mine.clone()).expect("grant");
        aa.grant(&victim, mine).expect("grant");
        keys.insert(aid, aa.keygen(&reader.uid, &owner_id).expect("keygen"));
        authorities.push(aa);
    }

    // Scheme and LSSS costs per shape, weighted by how many records
    // carry the shape.
    let mut weight: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &spec.records {
        *weight.entry(r.policy.as_str()).or_default() += 1;
    }
    let mut lines = Vec::new();
    let (mut enc, mut dec, mut lsss, mut rec, mut total) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut sample = None;
    for (policy_str, &w) in &weight {
        let policy = parse(policy_str).expect("scripted policy");
        let lsss_us = time_us(200, || AccessStructure::from_policy(&policy).expect("lsss"));
        let access = AccessStructure::from_policy(&policy).expect("lsss");
        let rec_us = time_us(200, || access.reconstruction_coefficients(&held));
        let msg = Gt::random(&mut rng);
        let enc_ms = time_us(3, || {
            owner
                .encrypt_under(&msg, &access, &mut rng)
                .expect("encrypt")
        }) / 1e3;
        let ct = owner
            .encrypt_under(&msg, &access, &mut rng)
            .expect("encrypt");
        assert_eq!(decrypt(&ct, &reader, &keys).expect("decrypt"), msg);
        let dec_ms = time_us(3, || decrypt(&ct, &reader, &keys).expect("decrypt")) / 1e3;
        lines.push(format!(
            "shape {policy_str:?} x{w}: core.encrypt {enc_ms:.3} ms, core.decrypt {dec_ms:.3} ms, \
             policy.lsss_build {lsss_us:.2} us, policy.reconstruct {rec_us:.2} us"
        ));
        let w = w as f64;
        enc += enc_ms * w;
        dec += dec_ms * w;
        lsss += lsss_us * w;
        rec += rec_us * w;
        total += w;
        sample.get_or_insert((ct, msg));
    }
    let (ct, kem) = sample.expect("every workload has records");

    // Proxy re-encryption of one of the workload's ciphertexts after a
    // revocation at the authority of its first row.
    let first = ct.access.rho()[0].clone();
    let aa = authorities
        .iter_mut()
        .find(|a| a.aid() == first.authority())
        .expect("row authority");
    let event = aa
        .revoke_attribute(&victim.uid, &first, &mut rng)
        .expect("revoke");
    let uk = &event.update_keys[&owner_id];
    owner.apply_update_key(uk).expect("update key");
    let ui = owner
        .update_info_for(ct.id, &event.aid, event.from_version, event.to_version)
        .expect("update info");
    let mut batches = Vec::new();
    for _ in 0..5 {
        let mut copy = ct.clone();
        let start = Instant::now();
        reencrypt(&mut copy, uk, &ui).expect("reencrypt");
        batches.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let reenc_ms = median(&batches);

    // Field and curve costs on the workload's own points: the attribute
    // public keys its authorities publish.
    let points: Vec<G1Affine> = authorities
        .iter()
        .flat_map(|aa| aa.public_keys().attr_pks.into_values())
        .collect();
    let scalar = Fr::random(&mut rng);
    let mut i = 0;
    let mut next = || {
        i += 1;
        (points[i % points.len()], points[(i + 1) % points.len()])
    };
    let pairing_us = time_us(10, || {
        let (p, q) = next();
        pairing(&p, &q)
    });
    let gt_pow_us = time_us(40, || kem.pow(&scalar));
    let g1_mul_us = time_us(10, || G1::from(points[0]).mul(&scalar));
    let names: Vec<Vec<u8>> = held.iter().map(Attribute::canonical_bytes).collect();
    let mut j = 0;
    let h2c_us = time_us(10, || {
        j += 1;
        hash_to_curve(&names[j % names.len()])
    });
    let encoded: Vec<Vec<u8>> = points.iter().map(G1Affine::to_bytes).collect();
    let mut k = 0;
    let decode_us = time_us(10, || {
        k += 1;
        G1Affine::from_bytes(&encoded[k % encoded.len()]).expect("valid point")
    });

    // AEAD open at the workload's payload size.
    let key = [7u8; 32];
    let nonce = [1u8; 12];
    let body = vec![0x5au8; spec.payload_len];
    let sealed = mabe_crypto::aead::seal(&key, &nonce, b"body", &body);
    let aead_us = time_us(200, || {
        mabe_crypto::aead::open(&key, &nonce, b"body", &sealed).expect("opens")
    });
    let kib = spec.payload_len as f64 / 1024.0;

    let costs = vec![
        UnitCost {
            name: "math.pairing_us",
            value: pairing_us,
            unit: "us",
        },
        UnitCost {
            name: "math.gt_pow_us",
            value: gt_pow_us,
            unit: "us",
        },
        UnitCost {
            name: "math.g1_mul_us",
            value: g1_mul_us,
            unit: "us",
        },
        UnitCost {
            name: "math.hash_to_curve_us",
            value: h2c_us,
            unit: "us",
        },
        UnitCost {
            name: "math.g1_decode_us",
            value: decode_us,
            unit: "us",
        },
        UnitCost {
            name: "policy.lsss_build_us",
            value: lsss / total,
            unit: "us",
        },
        UnitCost {
            name: "policy.reconstruct_us",
            value: rec / total,
            unit: "us",
        },
        UnitCost {
            name: "core.encrypt_ms",
            value: enc / total,
            unit: "ms",
        },
        UnitCost {
            name: "core.decrypt_ms",
            value: dec / total,
            unit: "ms",
        },
        UnitCost {
            name: "core.reencrypt_ms",
            value: reenc_ms,
            unit: "ms",
        },
        UnitCost {
            name: "crypto.aead_open_us_per_kib",
            value: aead_us / kib,
            unit: "us/KiB",
        },
    ];
    (costs, lines)
}
