//! Seeded op scripts: the benchmark's inputs.
//!
//! A [`Script`] is a pure function of `(workload, seed, seconds)`. It
//! holds the system to build (authorities, owners, users, initial
//! grants and records), an untimed warm-up, and the measured op list.
//! The generator keeps its own model of who holds what, so every
//! revoke names a held attribute, every re-grant names a revoked one,
//! and reads by revoked users target records they can no longer open.

use std::collections::{BTreeMap, BTreeSet};

use mabe_policy::{parse, Attribute, Policy};

/// SplitMix64: small, fast and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-mostly traffic whose working set fits the content cache.
    ReadHot,
    /// Read-mostly traffic over 8x the content cache: full decrypts.
    ReadCold,
    /// Write-heavy traffic with lazy revocation and scripted drains.
    RevokeChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::ReadHot, Workload::ReadCold, Workload::RevokeChurn];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::ReadCold => "read_cold",
            Workload::RevokeChurn => "revoke_churn",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured ops per second of `--seconds`: sized so one run's
    /// measured phase takes about `--seconds` on a 2-core x86-64 box.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::ReadHot => 2000,
            Workload::ReadCold => 150,
            Workload::RevokeChurn => 80,
        }
    }
}

/// One scripted operation. Users, records and attributes are indices
/// into the script's [`Spec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `user` reads the single component of `record`.
    Read {
        /// Reader.
        user: usize,
        /// Record read.
        record: usize,
    },
    /// The record's owner overwrites `record` with payload `version`.
    Publish {
        /// Record overwritten.
        record: usize,
        /// Payload version (the payload bytes derive from it).
        version: u32,
    },
    /// `user` is granted `attr`.
    Grant {
        /// Grantee.
        user: usize,
        /// Attribute, `name@authority`.
        attr: String,
    },
    /// `attr` is revoked from `user`.
    Revoke {
        /// Revoked user.
        user: usize,
        /// Attribute, `name@authority`.
        attr: String,
    },
    /// One `drain_lazy_batch` call.
    Drain,
    /// `drain_lazy` until the queue is empty (the last op of a lazy
    /// script).
    DrainAll,
}

impl Op {
    /// The op type, as latency lines and per-op counts name it.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Read { .. } => OpKind::Read,
            Op::Publish { .. } => OpKind::Publish,
            Op::Grant { .. } => OpKind::Grant,
            Op::Revoke { .. } => OpKind::Revoke,
            Op::Drain | Op::DrainAll => OpKind::Drain,
        }
    }
}

/// Op types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Component read.
    Read,
    /// Record publish.
    Publish,
    /// Attribute grant.
    Grant,
    /// Attribute revoke (acknowledged after its security phase).
    Revoke,
    /// Lazy drain batch.
    Drain,
}

impl OpKind {
    /// Every op type, in report order.
    pub const ALL: [OpKind; 5] = [
        OpKind::Read,
        OpKind::Publish,
        OpKind::Grant,
        OpKind::Revoke,
        OpKind::Drain,
    ];

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Publish => "publish",
            OpKind::Grant => "grant",
            OpKind::Revoke => "revoke",
            OpKind::Drain => "drain",
        }
    }
}

/// One stored record: a single component under one policy.
#[derive(Clone, Debug)]
pub struct RecordSpec {
    /// Index of the owning owner.
    pub owner: usize,
    /// Record name.
    pub name: String,
    /// Access policy of its one component.
    pub policy: String,
}

/// The system a script runs against.
#[derive(Clone, Debug)]
pub struct Spec {
    /// `(name, attribute names)` per authority.
    pub authorities: Vec<(String, Vec<String>)>,
    /// Number of data owners.
    pub owners: usize,
    /// Number of users.
    pub users: usize,
    /// Attributes granted to each user at set-up.
    pub initial_grants: Vec<Vec<String>>,
    /// Records published at set-up (payload version 0).
    pub records: Vec<RecordSpec>,
    /// Payload bytes per component.
    pub payload_len: usize,
    /// Whether revocations defer re-encryption to the lazy queue.
    pub lazy: bool,
}

/// The component label every record uses.
pub const LABEL: &str = "body";

/// A complete, deterministic benchmark input.
#[derive(Clone, Debug)]
pub struct Script {
    /// Which workload this is.
    pub workload: Workload,
    /// The seed it came from.
    pub seed: u64,
    /// The system to build.
    pub spec: Spec,
    /// Untimed ops run at the end of set-up.
    pub warmup: Vec<Op>,
    /// The measured ops.
    pub ops: Vec<Op>,
}

/// The payload of `record` at `version`: deterministic bytes, so the
/// oracle knows exactly what a read must return.
pub fn payload(seed: u64, record: usize, version: u32, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed, 1 + ((record as u64) << 32 | version as u64));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The generator's (and the oracle's) view of who holds what.
///
/// Decryption needs a current key from *every* authority a policy
/// involves, not only from those whose attributes satisfy it, so the
/// model tracks key versions as well as attributes: a grant issues keys
/// at the authority's current version, and a revocation bumps the
/// version, re-keys the revoked user, and updates the keys of everyone
/// still holding an attribute there. Anyone else's key at that
/// authority goes stale.
#[derive(Clone, Debug)]
pub struct Model {
    /// Attributes each user holds.
    pub held: Vec<BTreeSet<Attribute>>,
    /// Parsed policy per record.
    policies: Vec<Policy>,
    /// Current payload version per record.
    versions: Vec<u32>,
    /// Authorities each record's policy involves.
    involved: Vec<BTreeSet<String>>,
    /// Current key version per authority.
    authority_version: BTreeMap<String, u64>,
    /// Key version each user holds per authority.
    keys: Vec<BTreeMap<String, u64>>,
}

impl Model {
    /// The model right after set-up.
    pub fn new(spec: &Spec) -> Model {
        let policies: Vec<Policy> = spec
            .records
            .iter()
            .map(|r| parse(&r.policy).expect("scripted policies parse"))
            .collect();
        let mut model = Model {
            held: vec![BTreeSet::new(); spec.users],
            involved: policies
                .iter()
                .map(|p| p.authorities().iter().map(|a| a.to_string()).collect())
                .collect(),
            policies,
            versions: vec![0; spec.records.len()],
            authority_version: spec
                .authorities
                .iter()
                .map(|(a, _)| (a.clone(), 1))
                .collect(),
            keys: vec![BTreeMap::new(); spec.users],
        };
        for (user, attrs) in spec.initial_grants.iter().enumerate() {
            for attr in attrs {
                model.grant(user, &attribute(attr));
            }
        }
        model
    }

    /// Whether `user` may read `record` now.
    pub fn allows(&self, user: usize, record: usize) -> bool {
        self.policies[record].is_satisfied_by(self.held[user].iter())
            && self.involved[record]
                .iter()
                .all(|aid| self.keys[user].get(aid) == self.authority_version.get(aid))
    }

    fn grant(&mut self, user: usize, attr: &Attribute) {
        let aid = attr.authority().to_string();
        self.held[user].insert(attr.clone());
        self.keys[user].insert(aid.clone(), self.authority_version[&aid]);
    }

    fn revoke(&mut self, user: usize, attr: &Attribute) {
        let aid = attr.authority().to_string();
        self.held[user].remove(attr);
        let version = self.authority_version[&aid] + 1;
        self.authority_version.insert(aid.clone(), version);
        self.keys[user].insert(aid.clone(), version);
        for (held, keys) in self.held.iter().zip(self.keys.iter_mut()) {
            if held.iter().any(|a| a.authority().as_str() == aid) {
                keys.insert(aid.clone(), version);
            }
        }
    }

    /// Applies one op that succeeded.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Publish { record, version } => self.versions[*record] = *version,
            Op::Grant { user, attr } => self.grant(*user, &attribute(attr)),
            Op::Revoke { user, attr } => self.revoke(*user, &attribute(attr)),
            Op::Read { .. } | Op::Drain | Op::DrainAll => {}
        }
    }
}

/// Parses a scripted `name@authority` attribute.
pub fn attribute(raw: &str) -> Attribute {
    raw.parse().expect("scripted attributes parse")
}

impl Script {
    /// The script for `workload` at `seed`, with a measured phase sized
    /// for `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Script {
        let ops = workload.ops_per_second() * seconds.max(1) as usize;
        let mut rng = Rng::new(seed, 0);
        match workload {
            Workload::ReadHot => read_hot(seed, ops, &mut rng),
            Workload::ReadCold => read_cold(seed, ops, &mut rng),
            Workload::RevokeChurn => revoke_churn(seed, ops, &mut rng),
        }
    }
}

fn authorities(prefix: &str, count: usize, attrs: &[&str]) -> Vec<(String, Vec<String>)> {
    (0..count)
        .map(|i| {
            (
                format!("{prefix}{i}"),
                attrs.iter().map(|a| (*a).to_owned()).collect(),
            )
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Records dealt over `shapes` in proportion to their weights (record
/// `i` takes slot `i` mod the total weight), so every seed stores the
/// same mix of policy shapes; the seed only shuffles which record
/// carries which shape.
fn records(
    shapes: &[(&str, usize)],
    count: usize,
    owners: usize,
    rng: &mut Rng,
) -> Vec<RecordSpec> {
    let slots: Vec<&str> = shapes
        .iter()
        .flat_map(|&(policy, weight)| std::iter::repeat_n(policy, weight))
        .collect();
    let mut dealt: Vec<&str> = (0..count).map(|i| slots[i % slots.len()]).collect();
    shuffle(&mut dealt, rng);
    dealt
        .into_iter()
        .enumerate()
        .map(|(i, policy)| RecordSpec {
            owner: i % owners,
            name: format!("rec{i:04}"),
            policy: policy.to_owned(),
        })
        .collect()
}

/// What a measured op is, before the generator picks its arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Read,
    RevokedRead,
    Publish,
    Grant,
    Revoke,
    Drain,
}

/// The measured phase's slot sequence: blocks that each hold exactly
/// `mix` (slot, count) pairs in seeded order, so every seed runs the
/// same op mix and only the order and arguments vary.
fn slots(mix: &[(Slot, usize)], n: usize, rng: &mut Rng) -> Vec<Slot> {
    let block: Vec<Slot> = mix
        .iter()
        .flat_map(|&(slot, k)| std::iter::repeat_n(slot, k))
        .collect();
    let mut out = Vec::with_capacity(n + block.len());
    while out.len() < n {
        let mut b = block.clone();
        shuffle(&mut b, rng);
        out.extend(b);
    }
    out
}

/// Zipf(s) sampler over `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A grant of an attribute from `vocabulary` that `user` does not hold,
/// if there is one.
fn fresh_grant(model: &Model, user: usize, vocabulary: &[String], rng: &mut Rng) -> Option<Op> {
    let free: Vec<&String> = vocabulary
        .iter()
        .filter(|a| !model.held[user].contains(&attribute(a)))
        .collect();
    (!free.is_empty()).then(|| Op::Grant {
        user,
        attr: free[rng.below(free.len())].clone(),
    })
}

/// Policy shapes taking turns in proportion to their weights, so every
/// seed touches the same mix of shapes; the record within a shape is
/// the generator's random pick.
struct ShapeCycle {
    /// Records of each weighted shape slot, in slot order.
    slots: Vec<Vec<usize>>,
    next: usize,
}

impl ShapeCycle {
    fn new(records: &[RecordSpec], shapes: &[(&str, usize)]) -> ShapeCycle {
        let slots = shapes
            .iter()
            .flat_map(|&(policy, weight)| {
                let of_shape: Vec<usize> = (0..records.len())
                    .filter(|&r| records[r].policy == policy)
                    .collect();
                std::iter::repeat_n(of_shape, weight)
            })
            .collect();
        ShapeCycle { slots, next: 0 }
    }

    /// The records of the shape whose turn it is.
    fn turn(&mut self) -> &[usize] {
        let i = self.next % self.slots.len();
        self.next += 1;
        &self.slots[i]
    }

    /// A publish overwriting a record of the shape whose turn it is.
    fn overwrite(&mut self, model: &Model, rng: &mut Rng) -> Op {
        let records = self.turn();
        let record = records[rng.below(records.len())];
        Op::Publish {
            record,
            version: model.versions[record] + 1,
        }
    }
}

const HOT_SHAPES: &[(&str, usize)] = &[("core@H0", 1), ("core@H1", 1)];

fn read_hot(seed: u64, n: usize, rng: &mut Rng) -> Script {
    const USERS: usize = 48;
    const RECORDS: usize = 48;
    let spec = Spec {
        authorities: authorities("H", 2, &["core", "x1", "x2", "x3", "x4", "x5", "x6", "x7"]),
        owners: 2,
        users: USERS,
        initial_grants: vec![vec!["core@H0".into(), "core@H1".into()]; USERS],
        records: records(HOT_SHAPES, RECORDS, 2, rng),
        payload_len: 4096,
        lazy: false,
    };
    let mut model = Model::new(&spec);
    // Every (user, record) pair is read once during set-up, so the
    // measured phase starts with the whole working set cached.
    let warmup = (0..RECORDS)
        .flat_map(|record| (0..USERS).map(move |user| Op::Read { user, record }))
        .collect();
    // Zipf popularity over a seeded permutation of the pairs.
    let mut pairs: Vec<(usize, usize)> = (0..USERS)
        .flat_map(|u| (0..RECORDS).map(move |r| (u, r)))
        .collect();
    shuffle(&mut pairs, rng);
    let zipf = Zipf::new(pairs.len(), 0.9);
    // Grants hand out unused attributes: they re-key the user without
    // changing what any record's policy admits.
    let vocabulary: Vec<String> = spec
        .authorities
        .iter()
        .flat_map(|(aid, names)| names.iter().map(move |a| format!("{a}@{aid}")))
        .collect();
    let mut publishes = ShapeCycle::new(&spec.records, HOT_SHAPES);
    let mix = [(Slot::Read, 95), (Slot::Publish, 4), (Slot::Grant, 1)];
    let mut ops = Vec::with_capacity(n);
    for slot in slots(&mix, n, rng) {
        let read = |rng: &mut Rng| {
            let (user, record) = pairs[zipf.sample(rng)];
            Op::Read { user, record }
        };
        let op = match slot {
            Slot::Publish => publishes.overwrite(&model, rng),
            Slot::Grant => {
                let user = rng.below(USERS);
                fresh_grant(&model, user, &vocabulary, rng).unwrap_or_else(|| read(rng))
            }
            _ => read(rng),
        };
        model.apply(&op);
        ops.push(op);
    }
    Script {
        workload: Workload::ReadHot,
        seed,
        spec,
        warmup,
        ops,
    }
}

/// Eight shapes over 1-3 authorities with 1-2 attributes each, plus one
/// threshold gate. The weights (in 16ths) put the median read inside the
/// 37.5% share of 2-authority ANDs and the 90th percentile inside the
/// 12.5% share of 6-leaf ANDs, away from the jumps between shapes.
const COLD_SHAPES: &[(&str, usize)] = &[
    ("p@C0", 2),
    ("q@C1", 2),
    ("p@C0 AND q@C0", 1),
    ("p@C1 AND p@C2", 6),
    ("2 of (p@C0, q@C1, q@C2)", 1),
    ("p@C0 AND q@C1 AND p@C2", 1),
    ("p@C0 AND q@C0 AND p@C1 AND q@C1", 1),
    ("p@C0 AND q@C0 AND p@C1 AND q@C1 AND p@C2 AND q@C2", 2),
];

fn read_cold(seed: u64, n: usize, rng: &mut Rng) -> Script {
    const USERS: usize = 256;
    const RECORDS: usize = 128;
    let all: Vec<String> = (0..3)
        .flat_map(|i| [format!("p@C{i}"), format!("q@C{i}")])
        .collect();
    let spec = Spec {
        authorities: authorities("C", 3, &["p", "q"]),
        owners: 1,
        users: USERS,
        initial_grants: vec![all; USERS],
        records: records(COLD_SHAPES, RECORDS, 1, rng),
        payload_len: 1024,
        lazy: false,
    };
    let mut model = Model::new(&spec);
    let warmup = (0..32)
        .map(|i| Op::Read {
            user: i,
            record: i * 4,
        })
        .collect();
    let mut publishes = ShapeCycle::new(&spec.records, COLD_SHAPES);
    let mix = [(Slot::Read, 49), (Slot::Publish, 1)];
    let mut ops = Vec::with_capacity(n);
    for slot in slots(&mix, n, rng) {
        let op = match slot {
            Slot::Publish => publishes.overwrite(&model, rng),
            _ => Op::Read {
                user: rng.below(USERS),
                record: rng.below(RECORDS),
            },
        };
        model.apply(&op);
        ops.push(op);
    }
    Script {
        workload: Workload::ReadCold,
        seed,
        spec,
        warmup,
        ops,
    }
}

const CHURN_SHAPES: &[(&str, usize)] = &[
    ("a@R0", 1),
    ("b@R1 OR c@R2", 1),
    ("a@R1 AND d@R2", 1),
    ("c@R0 AND b@R1", 1),
    ("2 of (d@R0, a@R1, b@R2)", 1),
    ("b@R0 AND c@R1 AND a@R2", 1),
];

fn revoke_churn(seed: u64, n: usize, rng: &mut Rng) -> Script {
    const USERS: usize = 64;
    const RECORDS: usize = 192;
    let spec_auth = authorities("R", 3, &["a", "b", "c", "d"]);
    let vocabulary: Vec<String> = spec_auth
        .iter()
        .flat_map(|(aid, attrs)| attrs.iter().map(move |a| format!("{a}@{aid}")))
        .collect();
    let initial_grants: Vec<Vec<String>> = (0..USERS)
        .map(|_| {
            vocabulary
                .iter()
                .filter(|_| rng.unit() < 0.5)
                .cloned()
                .collect()
        })
        .collect();
    let spec = Spec {
        authorities: spec_auth,
        owners: 1,
        users: USERS,
        initial_grants,
        records: records(CHURN_SHAPES, RECORDS, 1, rng),
        payload_len: 1024,
        lazy: true,
    };
    let mut model = Model::new(&spec);
    // Every record read once by a holder: caches warm, no queue yet.
    let warmup = (0..RECORDS)
        .filter_map(|record| {
            (0..USERS)
                .find(|&u| model.allows(u, record))
                .map(|user| Op::Read { user, record })
        })
        .collect();
    // Per block of 50: 23 reads (6 by recently revoked users), 10
    // publishes, 10 grants (half re-grants of revoked attributes), 5
    // revokes, 2 drain batches; one full drain ends the script.
    let mix = [
        (Slot::Read, 17),
        (Slot::RevokedRead, 6),
        (Slot::Publish, 10),
        (Slot::Grant, 10),
        (Slot::Revoke, 5),
        (Slot::Drain, 2),
    ];
    let mut publishes = ShapeCycle::new(&spec.records, CHURN_SHAPES);
    let mut reads = ShapeCycle::new(&spec.records, CHURN_SHAPES);
    let mut revoked: Vec<(usize, String)> = Vec::new();
    let mut ops = Vec::with_capacity(n);
    for slot in slots(&mix, n.saturating_sub(1), rng) {
        let op = match slot {
            Slot::Read => holder_read(&model, &mut reads, rng),
            Slot::RevokedRead => revoked_read(&model, &revoked, rng)
                .unwrap_or_else(|| holder_read(&model, &mut reads, rng)),
            Slot::Publish => publishes.overwrite(&model, rng),
            Slot::Grant => {
                let regrant = if rng.unit() < 0.5 {
                    take_revoked(&model, &mut revoked, rng)
                } else {
                    None
                };
                match regrant {
                    Some((user, attr)) => Op::Grant { user, attr },
                    None => (0..100)
                        .find_map(|_| fresh_grant(&model, rng.below(USERS), &vocabulary, rng))
                        .unwrap_or_else(|| holder_read(&model, &mut reads, rng)),
                }
            }
            Slot::Revoke => {
                let pick = (0..100).find_map(|_| {
                    let user = rng.below(USERS);
                    let held: Vec<&Attribute> = model.held[user].iter().collect();
                    (!held.is_empty()).then(|| (user, held[rng.below(held.len())].to_string()))
                });
                match pick {
                    Some((user, attr)) => {
                        revoked.push((user, attr.clone()));
                        Op::Revoke { user, attr }
                    }
                    None => holder_read(&model, &mut reads, rng),
                }
            }
            Slot::Drain => Op::Drain,
        };
        model.apply(&op);
        ops.push(op);
    }
    ops.push(Op::DrainAll);
    Script {
        workload: Workload::RevokeChurn,
        seed,
        spec,
        warmup,
        ops,
    }
}

/// A read the model allows of a record of the shape whose turn it is
/// (falling back to any read if none turns up in a bounded search,
/// which the oracle then expects to be refused).
fn holder_read(model: &Model, shapes: &mut ShapeCycle, rng: &mut Rng) -> Op {
    let records = shapes.turn();
    let mut op = None;
    for _ in 0..1000 {
        let user = rng.below(model.held.len());
        let record = records[rng.below(records.len())];
        op = Some(Op::Read { user, record });
        if model.allows(user, record) {
            break;
        }
    }
    op.expect("at least one draw")
}

/// A read by a recently revoked user of a record whose policy names the
/// revoked attribute and that the user can no longer open.
fn revoked_read(model: &Model, revoked: &[(usize, String)], rng: &mut Rng) -> Option<Op> {
    let recent = &revoked[revoked.len().saturating_sub(16)..];
    if recent.is_empty() {
        return None;
    }
    let (user, attr) = &recent[rng.below(recent.len())];
    let attr = attribute(attr);
    let candidates: Vec<usize> = (0..model.policies.len())
        .filter(|&r| model.policies[r].leaves().contains(&&attr) && !model.allows(*user, r))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(Op::Read {
        user: *user,
        record: candidates[rng.below(candidates.len())],
    })
}

fn take_revoked(
    model: &Model,
    revoked: &mut Vec<(usize, String)>,
    rng: &mut Rng,
) -> Option<(usize, String)> {
    revoked.retain(|(u, a)| !model.held[*u].contains(&attribute(a)));
    if revoked.is_empty() {
        return None;
    }
    Some(revoked.swap_remove(rng.below(revoked.len())))
}
