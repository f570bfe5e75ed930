//! The three workloads and the single generator thread that drives them
//! through the front door: open-loop paced phases timed from each step's
//! due time, closed-loop saturated phases, and the per-response
//! correctness gate.

use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use palaemon::cluster::ClusterError;
use palaemon::core::server::{TmsRequest, TmsResponse};
use palaemon::crypto::Digest;
use palaemon::shielded_fs::fs::TagEvent;
use palaemon::tee_sim::quote::Quote;

use crate::deploy::{self, Cluster, Kind, Span, VOLUME};
use crate::host::Ticks;
use crate::stats::{due_latency_ns, Outcomes, Schedule};

/// Tenant policies (and long-running services) in every workload.
pub const TENANTS: usize = 256;
/// Steps in flight during a saturated phase (closed loop).
pub const IN_FLIGHT: usize = 64;
/// In `tag_sync` and `tenant_mix`, one step in this many starts a fresh
/// service instance (attest → read tag → close) beside the running fleet.
pub const PROVISION_EVERY: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Startup,
    TagSync,
    TenantMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Startup, Workload::TagSync, Workload::TenantMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Startup => "startup",
            Workload::TagSync => "tag_sync",
            Workload::TenantMix => "tenant_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop step rate of the paced phase: on a 2-core host, about a
    /// fifth of the saturated step rate (`tenant_mix`, whose steps are
    /// mostly cheap reads, a tenth). At half the saturated rate a
    /// host that lends the run less CPU drives the front door towards
    /// saturation, and the queueing multiplies the loss into the p50s.
    pub fn paced_steps_per_sec(self) -> f64 {
        match self {
            Workload::Startup => 10_000.0,
            Workload::TagSync => 1_500.0,
            Workload::TenantMix => 1_500.0,
        }
    }

    /// `tenant_mix` runs wide (~50-record) policies; the others run
    /// single-record ones.
    pub fn wide(self) -> bool {
        self == Workload::TenantMix
    }
}

/// SplitMix64: the benchmark's only randomness, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Tenant names and their seeded `PAYLOAD` env values. Names (and so ring
/// placement) are fixed; the payloads vary with the seed.
pub fn tenant_specs(seed: u64) -> Vec<(String, String)> {
    let mut rng = Rng::new(seed ^ 0x7E4A_4175);
    (0..TENANTS)
        .map(|i| (format!("tenant-{i:03}"), format!("{:016x}", rng.next_u64())))
        .collect()
}

/// One unit of generated work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A fresh service instance: attest → read its volume tag → close.
    Provision(usize),
    Push(usize),
    ReadTag(usize),
    ReadPolicy(usize),
    Update(usize),
}

/// The seeded step sequence of one workload.
pub struct Mix {
    workload: Workload,
    rng: Rng,
    /// Zipf(s = 1) cumulative weights over tenant rank (`tenant_mix`).
    zipf: Vec<f64>,
}

impl Mix {
    pub fn new(workload: Workload, seed: u64) -> Mix {
        let mut zipf: Vec<f64> = (1..=TENANTS).map(|r| 1.0 / r as f64).collect();
        let total: f64 = zipf.iter().sum();
        let mut acc = 0.0;
        for w in &mut zipf {
            acc += *w / total;
            *w = acc;
        }
        Mix {
            workload,
            rng: Rng::new(seed),
            zipf,
        }
    }

    fn tenant(&mut self) -> usize {
        match self.workload {
            Workload::TenantMix => {
                let u = self.rng.unit();
                self.zipf.partition_point(|&c| c < u).min(TENANTS - 1)
            }
            _ => self.rng.below(TENANTS as u64) as usize,
        }
    }

    pub fn next_step(&mut self) -> Step {
        let t = self.tenant();
        match self.workload {
            Workload::Startup => Step::Provision(t),
            _ if self.rng.below(PROVISION_EVERY) == 0 => Step::Provision(t),
            Workload::TagSync => Step::Push(t),
            Workload::TenantMix => match self.rng.below(100) {
                0..=49 => Step::ReadTag(t),
                50..=69 => Step::ReadPolicy(t),
                70..=94 => Step::Push(t),
                _ => Step::Update(t),
            },
        }
    }
}

/// What the generator knows about a value the cluster stores: the last
/// acknowledged write, unless concurrent or failed writes left it open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Known<T> {
    Value(T),
    Open,
}

struct TenantState {
    session: palaemon::core::tms::SessionId,
    pushes_in_flight: u32,
    push_epoch: u64,
    tag: Known<Option<Digest>>,
    updates_in_flight: u32,
    update_epoch: u64,
    version: Known<u64>,
    next_version: u64,
}

#[derive(Debug, Clone, Copy)]
enum Check {
    None,
    /// A tag read (or an attestation's expected tag): checkable when no
    /// push for the volume was in flight when it was sent.
    Tag {
        checkable: bool,
        epoch: u64,
    },
    Push {
        clean: bool,
        epoch: u64,
        tag: Digest,
    },
    Policy {
        checkable: bool,
        epoch: u64,
    },
    Update {
        clean: bool,
        epoch: u64,
        version: u64,
    },
}

struct Pending {
    kind: Kind,
    tenant: usize,
    /// When this request was due (a chained request is due when the
    /// generator sends it on its predecessor's answer).
    due: Instant,
    /// When the step this request belongs to was due.
    step_due: Instant,
    /// Part of a recorded paced phase.
    measured: bool,
    check: Check,
    user_bytes: u64,
    /// The start-up session a chained tag read must close afterwards.
    closes: Option<palaemon::core::tms::SessionId>,
}

struct Done {
    id: u64,
    result: Result<TmsResponse, ClusterError>,
    at: Instant,
    spans: Vec<Span>,
}

/// A recorded paced phase is cut into this many equal slices by step due
/// time; each latency figure is the median of its per-slice values, so a
/// transient stall on the host moves one slice, not the figure.
pub const PACED_SLICES: usize = 15;

/// Samples of one recorded paced phase, per slice.
pub struct Recording {
    start: Instant,
    slice: Duration,
    /// Attest due → its tag read answered, per provisioning step.
    pub provision_ns: Vec<Vec<u64>>,
    pub read_ns: Vec<Vec<u64>>,
    pub write_ns: Vec<Vec<u64>>,
    /// How late the generator sent each scheduled step.
    pub late_ns: Vec<u64>,
    pub requests: u64,
    /// Completed `PushTag`/`UpdatePolicy` requests.
    pub mutations: u64,
    /// Payload bytes those mutations asked to store.
    pub user_bytes: u64,
    /// (request id, span) for every span a recorded request produced.
    pub spans: Vec<(u64, Span)>,
    /// The machine's CPU ticks at each slice boundary (one more than the
    /// slices).
    ticks: Vec<Ticks>,
}

impl Recording {
    fn new(start: Instant, length: Duration) -> Recording {
        Recording {
            start,
            slice: length / PACED_SLICES as u32,
            provision_ns: vec![Vec::new(); PACED_SLICES],
            read_ns: vec![Vec::new(); PACED_SLICES],
            write_ns: vec![Vec::new(); PACED_SLICES],
            late_ns: Vec::new(),
            requests: 0,
            mutations: 0,
            user_bytes: 0,
            spans: Vec::new(),
            ticks: Vec::new(),
        }
    }

    /// Reads the CPU ticks at every slice boundary up to `now`.
    fn mark(&mut self, now: Instant) {
        let passed = now.saturating_duration_since(self.start).as_nanos() / self.slice.as_nanos();
        while self.ticks.len() <= (passed as usize).min(PACED_SLICES) {
            self.ticks.push(Ticks::now());
        }
    }

    /// The share of the machine's CPU time the hypervisor stole in each
    /// slice.
    pub fn slice_steal(&self) -> Vec<f64> {
        self.ticks
            .windows(2)
            .map(|t| t[1].steal_since(&t[0]))
            .collect()
    }

    /// The slice a step due at `step_due` belongs to.
    fn slot(&self, step_due: Instant) -> usize {
        let k = step_due.saturating_duration_since(self.start).as_nanos() / self.slice.as_nanos();
        (k as usize).min(PACED_SLICES - 1)
    }
}

/// Completions per time slice of a saturated phase: the count and the
/// first and last completion instants of each slice.
struct SliceCounter {
    start: Instant,
    slice: Duration,
    counts: Vec<(u64, Option<(Instant, Instant)>)>,
}

pub struct Generator<'a> {
    cluster: &'a Cluster,
    quote: Quote,
    mix: Mix,
    tags: Rng,
    tenants: Vec<TenantState>,
    tx: Sender<Done>,
    rx: Receiver<Done>,
    pending: HashMap<u64, Pending>,
    next_id: u64,
    steps_in_flight: usize,
    pub outcomes: Outcomes,
    recording: Option<Recording>,
    slices: Option<SliceCounter>,
    reported: usize,
}

impl<'a> Generator<'a> {
    pub fn new(cluster: &'a Cluster, workload: Workload, seed: u64) -> Generator<'a> {
        let (tx, rx) = mpsc::channel();
        Generator {
            cluster,
            quote: deploy::quote(&cluster.platform),
            mix: Mix::new(workload, seed),
            tags: Rng::new(seed ^ 0x7A65),
            tenants: cluster
                .tenants
                .iter()
                .map(|t| TenantState {
                    session: t.session,
                    pushes_in_flight: 0,
                    push_epoch: 0,
                    tag: Known::Value(None),
                    updates_in_flight: 0,
                    update_epoch: 0,
                    version: Known::Value(0),
                    next_version: 1,
                })
                .collect(),
            tx,
            rx,
            pending: HashMap::new(),
            next_id: 0,
            steps_in_flight: 0,
            outcomes: Outcomes::default(),
            recording: None,
            slices: None,
            reported: 0,
        }
    }

    /// Requests the generator has sent through the front door.
    pub fn sent(&self) -> u64 {
        self.next_id
    }

    /// Runs an open-loop phase at `rate` steps per second for `length`,
    /// then waits for every step to finish. Returns the samples when
    /// `record` is set.
    pub fn paced(&mut self, rate: f64, length: Duration, record: bool) -> Option<Recording> {
        let start = Instant::now();
        let end = start + length;
        self.recording = record.then(|| Recording::new(start, length));
        let schedule = Schedule::new(start, rate);
        let mut i = 0;
        loop {
            while let Ok(done) = self.rx.try_recv() {
                self.complete(done);
            }
            let due = schedule.due(i);
            let now = Instant::now();
            if let Some(r) = self.recording.as_mut() {
                r.mark(now);
            }
            if due >= end {
                break;
            }
            if now >= due {
                if let Some(r) = self.recording.as_mut() {
                    r.late_ns.push(due_latency_ns(due, now));
                }
                let step = self.mix.next_step();
                self.start_step(step, due, record);
                i += 1;
                continue;
            }
            match self.rx.recv_timeout(due - now) {
                Ok(done) => self.complete(done),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("the generator holds a sender"),
            }
        }
        if let Some(r) = self.recording.as_mut() {
            r.mark(end);
        }
        self.drain();
        self.recording.take()
    }

    /// Runs a closed-loop phase with [`IN_FLIGHT`] steps in flight for
    /// `slices` × `slice`, and returns the completed requests per second
    /// of each slice. `on_slice(k)` runs as slice `k` begins, and
    /// `on_slice(slices)` as the last one ends.
    pub fn saturated(
        &mut self,
        slices: usize,
        slice: Duration,
        mut on_slice: impl FnMut(usize),
    ) -> Vec<f64> {
        let start = Instant::now();
        let end = start + slice * slices as u32;
        self.slices = Some(SliceCounter {
            start,
            slice,
            counts: vec![(0, None); slices],
        });
        // The next slice to announce: every one is, even one the
        // generator slept through.
        let mut next = 0;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let k = ((now - start).as_nanos() / slice.as_nanos()) as usize;
            while next <= k {
                on_slice(next);
                next += 1;
            }
            while self.steps_in_flight < IN_FLIGHT {
                let step = self.mix.next_step();
                self.start_step(step, Instant::now(), false);
            }
            let wait = (start + slice * (k as u32 + 1)).min(end) - now;
            match self.rx.recv_timeout(wait) {
                Ok(done) => self.complete(done),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("the generator holds a sender"),
            }
        }
        while next <= slices {
            on_slice(next);
            next += 1;
        }
        self.drain();
        let counter = self.slices.take().expect("slice counter installed above");
        // Completions between a slice's first and last one, over the time
        // between them: a rate with a measured (not a fixed) denominator.
        counter
            .counts
            .iter()
            .map(|&(n, span)| match span {
                Some((first, last)) if n > 1 && last > first => {
                    (n - 1) as f64 / (last - first).as_secs_f64()
                }
                _ => 0.0,
            })
            .collect()
    }

    fn drain(&mut self) {
        while !self.pending.is_empty() {
            let done = self.rx.recv().expect("the generator holds a sender");
            self.complete(done);
        }
    }

    fn start_step(&mut self, step: Step, due: Instant, measured: bool) {
        self.steps_in_flight += 1;
        match step {
            Step::Provision(t) => self.send_attest(t, due, measured),
            Step::ReadTag(t) => {
                let session = self.tenants[t].session;
                self.send_read_tag(t, session, due, due, measured);
            }
            Step::Push(t) => {
                let st = &mut self.tenants[t];
                let clean = st.pushes_in_flight == 0;
                st.pushes_in_flight += 1;
                st.push_epoch += 1;
                let (session, epoch) = (st.session, st.push_epoch);
                let mut bytes = [0u8; 32];
                bytes[..8].copy_from_slice(&self.tags.next_u64().to_le_bytes());
                bytes[8..16].copy_from_slice(&self.next_id.to_le_bytes());
                let tag = Digest::from_bytes(bytes);
                let request = TmsRequest::PushTag {
                    session,
                    volume: VOLUME.into(),
                    tag,
                    event: TagEvent::Sync,
                };
                let check = Check::Push { clean, epoch, tag };
                self.send(Kind::Push, t, request, due, due, measured, check, 32);
            }
            Step::ReadPolicy(t) => {
                let st = &self.tenants[t];
                let check = Check::Policy {
                    checkable: st.updates_in_flight == 0,
                    epoch: st.update_epoch,
                };
                let request = TmsRequest::ReadPolicy {
                    name: self.cluster.tenants[t].name.clone(),
                    client: deploy::owner(),
                    approval: None,
                    votes: Vec::new(),
                };
                self.send(Kind::ReadPolicy, t, request, due, due, measured, check, 0);
            }
            Step::Update(t) => {
                let st = &mut self.tenants[t];
                let clean = st.updates_in_flight == 0;
                st.updates_in_flight += 1;
                st.update_epoch += 1;
                let version = st.next_version;
                st.next_version += 1;
                let epoch = st.update_epoch;
                let tenant = &self.cluster.tenants[t];
                let policy = deploy::policy(&tenant.name, &tenant.payload, version, true);
                let bytes = policy.encode().len() as u64;
                let request = TmsRequest::UpdatePolicy {
                    client: deploy::owner(),
                    policy: Box::new(policy),
                    approval: None,
                    votes: Vec::new(),
                };
                let check = Check::Update {
                    clean,
                    epoch,
                    version,
                };
                self.send(Kind::Update, t, request, due, due, measured, check, bytes);
            }
        }
    }

    fn tag_check(&self, t: usize) -> Check {
        let st = &self.tenants[t];
        Check::Tag {
            checkable: st.pushes_in_flight == 0,
            epoch: st.push_epoch,
        }
    }

    fn send_attest(&mut self, t: usize, due: Instant, measured: bool) {
        let check = self.tag_check(t);
        let request = deploy::attest_request(&self.quote, &self.cluster.tenants[t].name);
        self.send(Kind::Attest, t, request, due, due, measured, check, 0);
    }

    fn send_read_tag(
        &mut self,
        t: usize,
        session: palaemon::core::tms::SessionId,
        due: Instant,
        step_due: Instant,
        measured: bool,
    ) {
        let check = self.tag_check(t);
        let request = TmsRequest::ReadTag {
            session,
            volume: VOLUME.into(),
        };
        self.send(Kind::ReadTag, t, request, due, step_due, measured, check, 0);
    }

    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        kind: Kind,
        tenant: usize,
        request: TmsRequest,
        due: Instant,
        step_due: Instant,
        measured: bool,
        check: Check,
        user_bytes: u64,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        self.outcomes.attempted += 1;
        self.pending.insert(
            id,
            Pending {
                kind,
                tenant,
                due,
                step_due,
                measured,
                check,
                user_bytes,
                closes: None,
            },
        );
        let tx = self.tx.clone();
        self.cluster.door.submit_with(request, move |result| {
            let at = Instant::now();
            let spans = deploy::take_spans();
            // The generator outlives every request it sends (it drains
            // before returning), so the receiver is still there.
            let _ = tx.send(Done {
                id,
                result,
                at,
                spans,
            });
        });
    }

    /// Whether the stored tag of tenant `t` must equal what `check`
    /// expects, given `got`.
    fn tag_matches(&self, t: usize, check: Check, got: Option<Digest>) -> bool {
        let st = &self.tenants[t];
        match check {
            Check::Tag { checkable, epoch }
                if checkable && epoch == st.push_epoch && st.pushes_in_flight == 0 =>
            {
                match st.tag {
                    Known::Value(expected) => expected == got,
                    Known::Open => true,
                }
            }
            _ => true,
        }
    }

    fn version_matches(&self, t: usize, check: Check, got: Option<u64>) -> bool {
        let st = &self.tenants[t];
        match check {
            Check::Policy { checkable, epoch }
                if checkable && epoch == st.update_epoch && st.updates_in_flight == 0 =>
            {
                match st.version {
                    Known::Value(expected) => Some(expected) == got,
                    Known::Open => true,
                }
            }
            _ => true,
        }
    }

    fn complete(&mut self, done: Done) {
        let p = self
            .pending
            .remove(&done.id)
            .expect("every completion matches a sent request");
        let t = p.tenant;
        let ok = done.result.is_ok();
        let mut step_over = true;
        let mut right = true;
        match (&done.result, p.check) {
            (_, Check::Push { clean, epoch, tag }) => {
                let st = &mut self.tenants[t];
                st.pushes_in_flight -= 1;
                st.tag = match (&done.result, clean && epoch == st.push_epoch) {
                    (Ok(TmsResponse::Done), true) => Known::Value(Some(tag)),
                    _ => Known::Open,
                };
                right = matches!(done.result, Ok(TmsResponse::Done) | Err(_));
            }
            (
                _,
                Check::Update {
                    clean,
                    epoch,
                    version,
                },
            ) => {
                let st = &mut self.tenants[t];
                st.updates_in_flight -= 1;
                st.version = match (&done.result, clean && epoch == st.update_epoch) {
                    (Ok(TmsResponse::Done), true) => Known::Value(version),
                    _ => Known::Open,
                };
                right = matches!(done.result, Ok(TmsResponse::Done) | Err(_));
            }
            (Ok(TmsResponse::Config(config)), check) if p.kind == Kind::Attest => {
                let tenant = &self.cluster.tenants[t];
                let grant = config.volumes.iter().find(|g| g.volume == VOLUME);
                right = config.env.get("PAYLOAD") == Some(&tenant.payload)
                    && grant.is_some_and(|g| self.tag_matches(t, check, g.expected_tag));
                // Continue the start-up: read the granted volume's tag.
                let session = config.session;
                self.send_read_tag(t, session, Instant::now(), p.step_due, p.measured);
                if let Some(read) = self.pending.get_mut(&(self.next_id - 1)) {
                    read.closes = Some(session);
                }
                step_over = false;
            }
            (Ok(TmsResponse::Tag(record)), check) if p.kind == Kind::ReadTag => {
                right = self.tag_matches(t, check, record.map(|r| r.tag));
                if let Some(session) = p.closes {
                    if p.measured {
                        if let Some(r) = self.recording.as_mut() {
                            let k = r.slot(p.step_due);
                            r.provision_ns[k].push(due_latency_ns(p.step_due, done.at));
                        }
                    }
                    self.send(
                        Kind::Close,
                        t,
                        TmsRequest::CloseSession { session },
                        Instant::now(),
                        p.step_due,
                        p.measured,
                        Check::None,
                        0,
                    );
                    step_over = false;
                }
            }
            (Ok(TmsResponse::Policy(policy)), check) if p.kind == Kind::ReadPolicy => {
                let tenant = &self.cluster.tenants[t];
                let env = policy.services.first().map(|s| &s.env);
                right = policy.name == tenant.name
                    && env.and_then(|e| e.get("PAYLOAD")) == Some(&tenant.payload)
                    && self.version_matches(
                        t,
                        check,
                        env.and_then(|e| e.get("VERSION"))
                            .and_then(|v| v.parse().ok()),
                    );
            }
            (Ok(TmsResponse::Done), Check::None) => right = p.kind == Kind::Close,
            (Ok(_), _) => right = false,
            (Err(_), _) => {
                // A start-up whose tag read failed still closes its
                // session.
                if let Some(session) = p.closes {
                    self.send(
                        Kind::Close,
                        t,
                        TmsRequest::CloseSession { session },
                        Instant::now(),
                        p.step_due,
                        p.measured,
                        Check::None,
                        0,
                    );
                    step_over = false;
                }
            }
        }
        if !ok {
            self.outcomes.errors += 1;
        } else if !right {
            self.outcomes.wrong += 1;
        }
        if (!ok || !right) && self.reported < 5 {
            self.reported += 1;
            let what = match &done.result {
                Err(e) => format!("error: {e}"),
                Ok(r) => format!("wrong answer: {r:?}"),
            };
            eprintln!(
                "perfbench: {:?} for {}: {what}",
                p.kind, self.cluster.tenants[t].name
            );
        }
        if step_over {
            self.steps_in_flight -= 1;
        }
        if let Some(s) = self.slices.as_mut() {
            let k = (done.at.saturating_duration_since(s.start).as_nanos() / s.slice.as_nanos())
                as usize;
            if let Some((n, span)) = s.counts.get_mut(k) {
                *n += 1;
                let first = span.map_or(done.at, |(first, _)| first);
                *span = Some((first, done.at));
            }
        }
        if p.measured {
            if let Some(r) = self.recording.as_mut() {
                r.requests += 1;
                let latency = due_latency_ns(p.due, done.at);
                let k = r.slot(p.step_due);
                match p.kind {
                    Kind::ReadTag | Kind::ReadPolicy => r.read_ns[k].push(latency),
                    Kind::Push | Kind::Update | Kind::Close => r.write_ns[k].push(latency),
                    Kind::Attest => {}
                }
                if ok && matches!(p.kind, Kind::Push | Kind::Update) {
                    r.mutations += 1;
                    r.user_bytes += p.user_bytes;
                }
                r.spans.extend(done.spans.into_iter().map(|s| (done.id, s)));
            }
        }
    }
}
