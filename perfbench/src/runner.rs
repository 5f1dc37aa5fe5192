//! Builds a [`DurableSystem`] from a script's spec and executes ops
//! against it one at a time, timing each call and checking its outcome
//! against the bench's own model.

use std::time::Instant;

use mabe_cloud::{CloudError, DurableSystem};
use mabe_core::{OwnerId, Uid};
use mabe_store::{SimDisk, Storage};
use mabe_telemetry::{Counter, OpSnapshot};

use crate::clock::{Clock, Work};
use crate::script::{payload, Model, Op, OpKind, Script, Spec, LABEL};

/// How one op ended, judged by the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Succeeded (a read returned exactly the expected plaintext).
    Ok,
    /// A read the model says must be refused was refused.
    Denied,
    /// A `CloudError` the model did not expect. Counted, not fatal.
    Unexpected(String),
    /// A broken guarantee: a read returned the wrong bytes, or served a
    /// user the model says must be refused. Fails the run.
    Violation(String),
}

/// Everything measured about one op. Every field but `ns` is an exact
/// count that repeats for a given seed.
#[derive(Clone, Debug)]
pub struct OpResult {
    /// Op type.
    pub kind: OpKind,
    /// Wall time of the call into the system, in nanoseconds.
    pub ns: u64,
    /// Oracle verdict.
    pub outcome: Outcome,
    /// Crypto ops performed on this thread during the call.
    pub ops: OpSnapshot,
    /// Content-cache hits during the call.
    pub content_hits: u64,
    /// Content-cache misses during the call.
    pub content_misses: u64,
    /// Update-key chain cache hits during the call.
    pub chain_hits: u64,
    /// Update-key chain cache misses during the call.
    pub chain_misses: u64,
    /// WAL frame bytes appended during the call.
    pub wal_bytes: u64,
    /// Checkpoints (generation advances) during the call.
    pub checkpoints: u64,
    /// Read-triggered component upgrades during the call.
    pub upgrades: u64,
    /// Wire bytes sent during the call.
    pub wire_bytes: u64,
    /// Lazy queue depth after the call.
    pub queue_depth: usize,
    /// When the op started, seconds into the timed phase.
    pub at: f64,
    /// `ns` scaled to the reference machine speed ([`crate::clock`]).
    pub ref_ns: f64,
}

impl OpResult {
    /// The kind of work the op mostly did: field arithmetic if it ran
    /// any pairing, exponentiation or hash-to-curve and paid for no
    /// checkpoint, byte crunching otherwise (cache hits, refusals,
    /// checkpoints).
    pub fn work(&self) -> Work {
        let o = &self.ops;
        if self.checkpoints == 0 && o.pairings + o.g1_muls + o.gt_pows + o.hash_to_curve > 0 {
            Work::Field
        } else {
            Work::Bytes
        }
    }

    /// Whether the oracle accepted the outcome.
    pub fn succeeded(&self) -> bool {
        matches!(self.outcome, Outcome::Ok | Outcome::Denied)
    }
}

/// A built system plus the oracle's model of it.
pub struct Bench {
    /// The system under test.
    pub durable: DurableSystem<SimDisk>,
    /// The oracle's model, updated only by ops that succeeded.
    pub model: Model,
    owners: Vec<OwnerId>,
    users: Vec<Uid>,
    spec: Spec,
    seed: u64,
    /// Current plaintext per record.
    payloads: Vec<Vec<u8>>,
    wal_bytes: Counter,
    upgrades: Counter,
}

fn cloud(what: &str, e: CloudError) -> String {
    format!("{what}: {e}")
}

/// Opens a fresh system over an empty [`SimDisk`] at the shipped flush
/// and checkpoint defaults, and registers the spec's entities, initial
/// grants and records.
///
/// # Errors
///
/// Any failing set-up call.
pub fn build(script: &Script, clock: &mut Clock) -> Result<Bench, String> {
    let spec = &script.spec;
    let (durable, _) = DurableSystem::open(SimDisk::unfaulted(), script.seed)
        .map_err(|f| format!("open: {}", f.error))?;
    durable.system().set_lazy_revocation(spec.lazy);
    for (aid, attrs) in &spec.authorities {
        clock.tick();
        let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
        durable
            .add_authority(aid, &names)
            .map_err(|e| cloud("add_authority", e))?;
    }
    let owners = (0..spec.owners)
        .map(|i| durable.add_owner(&format!("owner{i}")))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| cloud("add_owner", e))?;
    let users = (0..spec.users)
        .map(|i| {
            clock.tick();
            durable.add_user(&format!("user{i:03}"))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| cloud("add_user", e))?;
    for (uid, attrs) in users.iter().zip(&spec.initial_grants) {
        clock.tick();
        if attrs.is_empty() {
            continue;
        }
        let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        durable.grant(uid, &attrs).map_err(|e| cloud("grant", e))?;
    }
    let mut payloads = Vec::with_capacity(spec.records.len());
    for (i, rec) in spec.records.iter().enumerate() {
        clock.tick();
        let bytes = payload(script.seed, i, 0, spec.payload_len);
        durable
            .publish(
                &owners[rec.owner],
                &rec.name,
                &[(LABEL, bytes.as_slice(), rec.policy.as_str())],
            )
            .map_err(|e| cloud("publish", e))?;
        payloads.push(bytes);
    }
    let registry = mabe_telemetry::global();
    Ok(Bench {
        durable,
        model: Model::new(spec),
        owners,
        users,
        spec: spec.clone(),
        seed: script.seed,
        payloads,
        wal_bytes: registry.counter("mabe_wal_bytes_total", &[]),
        upgrades: registry.counter("mabe_read_upgrades_total", &[]),
    })
}

/// The root span the bench opens around each call when tracing.
fn root_span_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "bench.read",
        OpKind::Publish => "bench.publish",
        OpKind::Grant => "bench.grant",
        OpKind::Revoke => "bench.revoke",
        OpKind::Drain => "bench.drain",
    }
}

impl Bench {
    /// Executes one op, timing only the call into the system. With
    /// `trace`, the call runs under a `bench.<op>` root span.
    pub fn exec(&mut self, op: &Op, trace: bool) -> OpResult {
        let sys = self.durable.system();
        let cache0 = sys.cache_stats();
        let gen0 = self.durable.generation();
        let wal0 = self.wal_bytes.get();
        let up0 = self.upgrades.get();
        let wire0 = sys.wire().total_bytes();
        let new_payload = match op {
            Op::Publish { record, version } => {
                Some(payload(self.seed, *record, *version, self.spec.payload_len))
            }
            _ => None,
        };
        let ops0 = OpSnapshot::capture();
        let start = Instant::now();
        let span = trace.then(|| mabe_trace::Span::root(root_span_name(op.kind())));
        let result: Result<Option<Vec<u8>>, CloudError> = match op {
            Op::Read { user, record } => {
                let rec = &self.spec.records[*record];
                self.durable
                    .read(
                        &self.users[*user],
                        &self.owners[rec.owner],
                        &rec.name,
                        LABEL,
                    )
                    .map(Some)
            }
            Op::Publish { record, .. } => {
                let rec = &self.spec.records[*record];
                let bytes = new_payload.as_deref().expect("built above");
                self.durable
                    .publish(
                        &self.owners[rec.owner],
                        &rec.name,
                        &[(LABEL, bytes, rec.policy.as_str())],
                    )
                    .map(|()| None)
            }
            Op::Grant { user, attr } => self
                .durable
                .grant(&self.users[*user], &[attr.as_str()])
                .map(|()| None),
            Op::Revoke { user, attr } => {
                self.durable.revoke(&self.users[*user], attr).map(|()| None)
            }
            Op::Drain => self.durable.drain_lazy_batch().map(|_| None),
            Op::DrainAll => self.durable.drain_lazy().map(|_| None),
        };
        drop(span);
        let ns = start.elapsed().as_nanos() as u64;
        let ops = OpSnapshot::capture().since(&ops0);
        let sys = self.durable.system();
        let cache = sys.cache_stats();
        let mut result_row = OpResult {
            kind: op.kind(),
            ns,
            outcome: Outcome::Ok,
            ops,
            content_hits: cache.content_hits - cache0.content_hits,
            content_misses: cache.content_misses - cache0.content_misses,
            chain_hits: cache.chain_hits - cache0.chain_hits,
            chain_misses: cache.chain_misses - cache0.chain_misses,
            wal_bytes: self.wal_bytes.get() - wal0,
            checkpoints: self.durable.generation() - gen0,
            upgrades: self.upgrades.get() - up0,
            wire_bytes: (sys.wire().total_bytes() - wire0) as u64,
            queue_depth: sys.lazy_queue_depth(),
            at: 0.0,
            ref_ns: ns as f64,
        };
        result_row.outcome = self.judge(op, result, new_payload);
        result_row
    }

    /// The oracle: compares a result with the model and, on success,
    /// advances the model.
    fn judge(
        &mut self,
        op: &Op,
        result: Result<Option<Vec<u8>>, CloudError>,
        new_payload: Option<Vec<u8>>,
    ) -> Outcome {
        match (op, result) {
            (Op::Read { user, record }, Ok(bytes)) => {
                let bytes = bytes.expect("reads return bytes");
                if !self.model.allows(*user, *record) {
                    Outcome::Violation(format!(
                        "user {user} read record {record} after losing access"
                    ))
                } else if bytes != self.payloads[*record] {
                    Outcome::Violation(format!("user {user} read record {record}: wrong plaintext"))
                } else {
                    Outcome::Ok
                }
            }
            (Op::Read { user, record }, Err(e)) => {
                if self.model.allows(*user, *record) {
                    Outcome::Unexpected(format!("read: {e}"))
                } else {
                    Outcome::Denied
                }
            }
            (_, Ok(_)) => {
                if let Op::Publish { record, .. } = op {
                    self.payloads[*record] = new_payload.expect("publish payload");
                }
                self.model.apply(op);
                Outcome::Ok
            }
            (op, Err(e)) => Outcome::Unexpected(format!("{}: {e}", op.kind().name())),
        }
    }

    /// Checks every `stride`-th record against the model on a reopened
    /// system: one reader the model allows must read the current
    /// plaintext. Returns the violations found.
    pub fn verify_reopened(&self, reopened: &DurableSystem<SimDisk>, stride: usize) -> Vec<String> {
        let mut bad = Vec::new();
        for (record, rec) in self.spec.records.iter().enumerate().step_by(stride.max(1)) {
            let Some(user) = (0..self.users.len()).find(|&u| self.model.allows(u, record)) else {
                continue;
            };
            match reopened.read(&self.users[user], &self.owners[rec.owner], &rec.name, LABEL) {
                Ok(bytes) if bytes == self.payloads[record] => {}
                Ok(_) => bad.push(format!("reopened: record {record} wrong plaintext")),
                Err(e) => bad.push(format!("reopened: record {record}: {e}")),
            }
        }
        bad
    }

    /// Plaintext bytes the system currently stores for users.
    pub fn user_bytes(&self) -> usize {
        self.payloads.iter().map(Vec::len).sum()
    }
}

/// A byte-for-byte copy of the durable image of `disk`: what survives
/// a restart.
pub fn copy_disk(disk: &SimDisk) -> SimDisk {
    let mut copy = SimDisk::unfaulted();
    for name in disk.list() {
        if let Some(bytes) = disk.durable_bytes(&name) {
            copy.set_durable(&name, bytes.to_vec());
        }
    }
    copy
}
