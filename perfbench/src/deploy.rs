//! The fixed deployment and the three seams the benchmark observes it
//! through: a [`BlockStore`] wrapper (the modelled disk), a
//! [`MonotonicCounter`] wrapper (the Fig. 6 counter) and a [`Door`]
//! wrapper (the cluster behind the front door). Everything else is public
//! constructors and stats, so a signature change in the program is
//! absorbed here.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use palaemon::cluster::{
    strict_shard, AckMode, ClusterDoor, ClusterError, ClusterMonitor, ClusterRouter, MonitorConfig,
    ReadPreference, ReplicationMode, ShardId,
};
use palaemon::core::counterfile::{MonotonicCounter, ShieldedCounter};
use palaemon::core::frontdoor::{Door, FrontDoor};
use palaemon::core::policy::Policy;
use palaemon::core::server::{TmsRequest, TmsResponse, TmsServer};
use palaemon::core::tms::{Palaemon, SessionId};
use palaemon::crypto::aead::AeadKey;
use palaemon::crypto::sig::{SigningKey, VerifyingKey};
use palaemon::crypto::Digest;
use palaemon::db::Db;
use palaemon::shielded_fs::fs::ShieldedFs;
use palaemon::shielded_fs::store::{BlockStore, MemStore};
use palaemon::tee_sim::platform::{Microcode, Platform};
use palaemon::tee_sim::quote::{create_report, quote_report, Quote};

pub const SHARDS: u32 = 2;
pub const REPLICAS: u32 = 3;
pub const WRITE_QUORUM: usize = 2;
pub const WORKERS: usize = 4;
/// Front-door queue bound: the library default of 128 jobs per worker.
pub const QUEUE_CAPACITY: usize = WORKERS * 128;
pub const RING_VNODES: u32 = 128;
/// Modelled durable-media flush: every replica store's `sync()` sleeps
/// this long, the sleep model the repository's benches use.
pub const SYNC_SLEEP: Duration = Duration::from_micros(150);
/// Measurement of the one service every tenant policy runs.
pub const MRENCLAVE: [u8; 32] = [0x5B; 32];
pub const SERVICE: &str = "app";
pub const VOLUME: &str = "data";

// ---------------------------------------------------------------------
// Spans: recorded only while tracing, only on a front-door worker inside
// `BenchDoor::call`, and handed to the completion callback that runs on
// the same worker right after the call returns.
// ---------------------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(false);

pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide span epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The request kinds the workloads send (the `Door` span's label).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Attest,
    ReadTag,
    ReadPolicy,
    Push,
    Update,
    Close,
}

impl Kind {
    pub fn of(request: &TmsRequest) -> Option<Kind> {
        Some(match request {
            TmsRequest::AttestService { .. } => Kind::Attest,
            TmsRequest::ReadTag { .. } => Kind::ReadTag,
            TmsRequest::ReadPolicy { .. } => Kind::ReadPolicy,
            TmsRequest::PushTag { .. } => Kind::Push,
            TmsRequest::UpdatePolicy { .. } => Kind::Update,
            TmsRequest::CloseSession { .. } => Kind::Close,
            _ => return None,
        })
    }

    /// The `cluster.handle_us.<label>` label: both read kinds share one.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Attest => "attest",
            Kind::ReadTag | Kind::ReadPolicy => "read",
            Kind::Push => "push",
            Kind::Update => "update",
            Kind::Close => "close",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ClusterDoor::call`: router → server → engine → replication.
    Door(Kind),
    /// A primary replica's store `sync()` (the group-commit WAL flush).
    PrimarySync,
    /// A follower replica's store `sync()` (a span only when it runs on
    /// the calling worker; followers normally apply on their senders).
    FollowerSync,
    /// One physical Fig. 6 counter increment.
    CounterIncrement,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    static IN_CALL: Cell<bool> = const { Cell::new(false) };
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn record_child(layer: Layer, start_ns: u64) {
    if IN_CALL.with(Cell::get) {
        let end_ns = now_ns();
        SPANS.with(|s| {
            s.borrow_mut().push(Span {
                layer,
                start_ns,
                end_ns,
            })
        });
    }
}

/// Takes the spans the last `Door::call` on this thread recorded.
pub fn take_spans() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

// ---------------------------------------------------------------------
// Counts: always on (a handful of relaxed atomics per operation).
// ---------------------------------------------------------------------

pub struct StoreProbe {
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    put_bytes: AtomicU64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct StoreCounts {
    pub syncs: u64,
    pub sync_ns: u64,
    pub put_bytes: u64,
}

impl StoreProbe {
    fn read(&self) -> StoreCounts {
        StoreCounts {
            syncs: self.syncs.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
        }
    }
}

pub static PRIMARY_STORES: StoreProbe = StoreProbe {
    syncs: AtomicU64::new(0),
    sync_ns: AtomicU64::new(0),
    put_bytes: AtomicU64::new(0),
};
pub static FOLLOWER_STORES: StoreProbe = StoreProbe {
    syncs: AtomicU64::new(0),
    sync_ns: AtomicU64::new(0),
    put_bytes: AtomicU64::new(0),
};
static INCREMENTS: AtomicU64 = AtomicU64::new(0);
static INCREMENT_NS: AtomicU64 = AtomicU64::new(0);

/// Every always-on count, read at one instant (phases report deltas).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub primary: StoreCounts,
    pub follower: StoreCounts,
    pub increments: u64,
    pub increment_ns: u64,
}

impl Counts {
    pub fn now() -> Counts {
        Counts {
            primary: PRIMARY_STORES.read(),
            follower: FOLLOWER_STORES.read(),
            increments: INCREMENTS.load(Ordering::Relaxed),
            increment_ns: INCREMENT_NS.load(Ordering::Relaxed),
        }
    }

    pub fn since(&self, earlier: &Counts) -> Counts {
        let d = |a: StoreCounts, b: StoreCounts| StoreCounts {
            syncs: a.syncs - b.syncs,
            sync_ns: a.sync_ns - b.sync_ns,
            put_bytes: a.put_bytes - b.put_bytes,
        };
        Counts {
            primary: d(self.primary, earlier.primary),
            follower: d(self.follower, earlier.follower),
            increments: self.increments - earlier.increments,
            increment_ns: self.increment_ns - earlier.increment_ns,
        }
    }
}

// ---------------------------------------------------------------------
// The three wrappers.
// ---------------------------------------------------------------------

/// A replica's disk: an in-memory store whose `sync()` sleeps
/// [`SYNC_SLEEP`]. `primary` picks the counts it feeds; `None` (the
/// calibration stores) feeds none.
pub struct BenchStore {
    inner: MemStore,
    role: Option<(&'static StoreProbe, Layer)>,
}

impl BenchStore {
    pub fn new(primary: Option<bool>) -> BenchStore {
        BenchStore {
            inner: MemStore::new(),
            role: primary.map(|p| match p {
                true => (&PRIMARY_STORES, Layer::PrimarySync),
                false => (&FOLLOWER_STORES, Layer::FollowerSync),
            }),
        }
    }
}

impl BlockStore for BenchStore {
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.get(name)
    }
    fn put(&self, name: &str, data: Vec<u8>) {
        if let Some((probe, _)) = self.role {
            probe
                .put_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        self.inner.put(name, data);
    }
    fn delete(&self, name: &str) {
        self.inner.delete(name);
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn sync(&self) -> palaemon::shielded_fs::Result<()> {
        let start = now_ns();
        std::thread::sleep(SYNC_SLEEP);
        let result = self.inner.sync();
        if let Some((probe, layer)) = self.role {
            probe.syncs.fetch_add(1, Ordering::Relaxed);
            probe.sync_ns.fetch_add(now_ns() - start, Ordering::Relaxed);
            if tracing() {
                record_child(layer, start);
            }
        }
        result
    }
}

/// Bytes a store holds right now (blob payloads only).
pub fn stored_bytes(store: &MemStore) -> u64 {
    store.snapshot().values().map(|v| v.len() as u64).sum()
}

/// The Fig. 6 counter: a [`ShieldedCounter`] whose increments are counted
/// and timed.
pub struct BenchCounter(ShieldedCounter);

impl BenchCounter {
    pub fn new(key: u8) -> BenchCounter {
        let fs = ShieldedFs::create(Box::new(MemStore::new()), AeadKey::from_bytes([key; 32]));
        BenchCounter(ShieldedCounter::create(fs).expect("counter file on a fresh fs"))
    }
}

impl MonotonicCounter for BenchCounter {
    fn increment(&mut self) -> palaemon::core::Result<u64> {
        let start = now_ns();
        let result = self.0.increment();
        INCREMENTS.fetch_add(1, Ordering::Relaxed);
        INCREMENT_NS.fetch_add(now_ns() - start, Ordering::Relaxed);
        if tracing() {
            record_child(Layer::CounterIncrement, start);
        }
        result
    }
}

/// The cluster as the front door sees it; times each call while tracing.
#[derive(Clone)]
pub struct BenchDoor(ClusterDoor);

impl Door for BenchDoor {
    type Error = ClusterError;

    fn call(&self, request: TmsRequest) -> Result<TmsResponse, ClusterError> {
        let kind = match tracing() {
            true => Kind::of(&request),
            false => None,
        };
        let Some(kind) = kind else {
            return self.0.call(request);
        };
        IN_CALL.with(|c| c.set(true));
        let start_ns = now_ns();
        let result = self.0.call(request);
        let end_ns = now_ns();
        IN_CALL.with(|c| c.set(false));
        SPANS.with(|s| {
            s.borrow_mut().push(Span {
                layer: Layer::Door(kind),
                start_ns,
                end_ns,
            })
        });
        result
    }
}

// ---------------------------------------------------------------------
// Tenants and the cluster.
// ---------------------------------------------------------------------

pub fn owner_key() -> SigningKey {
    SigningKey::from_seed(b"perfbench-owner")
}

pub fn owner() -> VerifyingKey {
    owner_key().verifying_key()
}

/// The policy text of tenant `name` at `version`. A wide policy carries
/// 24 fixed secrets, 8 secrets rotated by every version and 16 extra
/// volumes (about 50 stored records), so an update ships a multi-record
/// delta.
pub fn policy(name: &str, payload: &str, version: u64, wide: bool) -> Policy {
    let mut text = format!(
        "name: {name}\nservices:\n  - name: {SERVICE}\n    mrenclaves: [\"{}\"]\n    \
         volumes: [\"{VOLUME}\"]\n    env:\n      PAYLOAD: \"{payload}\"\n      \
         VERSION: \"{version}\"\n",
        Digest::from_bytes(MRENCLAVE).to_hex()
    );
    if wide {
        text.push_str("secrets:\n");
        for i in 0..24 {
            text.push_str(&format!(
                "  - name: s{i}\n    kind: ascii\n    length: 16\n"
            ));
        }
        for i in 0..8 {
            text.push_str(&format!(
                "  - name: r{i}v{version}\n    kind: ascii\n    length: 16\n"
            ));
        }
    }
    text.push_str(&format!("volumes:\n  - name: {VOLUME}\n"));
    if wide {
        for i in 0..16 {
            text.push_str(&format!("  - name: x{i}\n"));
        }
    }
    Policy::parse(&text).expect("generated policy parses")
}

pub struct Tenant {
    pub name: String,
    pub payload: String,
    /// The session the tenant's long-running service attested in set-up.
    pub session: SessionId,
}

pub struct Cluster {
    pub router: Arc<ClusterRouter>,
    pub monitor: Arc<ClusterMonitor>,
    pub door: FrontDoor<BenchDoor>,
    pub platform: Platform,
    pub tenants: Vec<Tenant>,
    /// Each replica's underlying store, for the stored-bytes figure.
    pub stores: Vec<MemStore>,
}

/// A quote for the tenants' service measurement.
pub fn quote(platform: &Platform) -> Quote {
    let report = create_report(platform, Digest::from_bytes(MRENCLAVE), [0u8; 64]);
    quote_report(platform, &report).expect("quote a fresh report")
}

pub fn attest_request(quote: &Quote, policy: &str) -> TmsRequest {
    TmsRequest::AttestService {
        quote: Box::new(quote.clone()),
        tls_key_binding: [0u8; 64],
        policy_name: policy.into(),
        service_name: SERVICE.into(),
    }
}

pub fn engine(platform: &Platform, store: Box<dyn BlockStore>, id: u32) -> Arc<Palaemon> {
    let db = Db::create(store, AeadKey::from_bytes([id as u8; 32])).expect("db on a fresh store");
    let engine = Arc::new(Palaemon::new(
        db,
        SigningKey::from_seed(format!("perfbench-replica-{id}").as_bytes()),
        Digest::ZERO,
        1_000 + u64::from(id),
    ));
    engine.register_platform(platform.id(), platform.qe_verifying_key());
    engine
}

/// Builds the fixed deployment and creates and attests `tenants`
/// (name, payload) pairs through the router.
pub fn build(tenants: &[(String, String)], wide: bool) -> Cluster {
    let platform = Platform::new("perfbench-host", Microcode::PostForeshadow);
    let router = Arc::new(ClusterRouter::new(0x007E_11A5, RING_VNODES));
    router.set_read_preference(ReadPreference::Quorum);
    assert_eq!(router.ack_mode(), AckMode::Durable);
    assert_eq!(router.replication_mode(), ReplicationMode::Incremental);
    router.telemetry().set_tracing(false);
    let mut stores = Vec::new();
    for shard in 0..SHARDS {
        let set: Vec<(TmsServer, _)> = (0..REPLICAS)
            .map(|r| {
                let id = shard * REPLICAS + r;
                let store = BenchStore::new(Some(r == 0));
                stores.push(store.inner.clone());
                let engine = engine(&platform, Box::new(store), id);
                let (server, counter) = strict_shard(engine, BenchCounter::new(0xC0 + id as u8));
                (server, Some(counter))
            })
            .collect();
        router
            .add_replicated_shard(ShardId(shard), set, WRITE_QUORUM)
            .expect("replicated shard");
    }
    let quote = quote(&platform);
    let tenants = tenants
        .iter()
        .map(|(name, payload)| {
            router
                .handle(TmsRequest::CreatePolicy {
                    owner: owner(),
                    policy: Box::new(policy(name, payload, 0, wide)),
                    approval: None,
                    votes: Vec::new(),
                })
                .expect("create tenant policy");
            let session = match router.handle(attest_request(&quote, name)) {
                Ok(TmsResponse::Config(config)) => config.session,
                other => panic!("attesting tenant {name}: {other:?}"),
            };
            Tenant {
                name: name.clone(),
                payload: payload.clone(),
                session,
            }
        })
        .collect();
    let door = FrontDoor::with_telemetry(
        BenchDoor(ClusterDoor(Arc::clone(&router))),
        WORKERS,
        QUEUE_CAPACITY,
        Arc::clone(router.telemetry()),
    );
    let monitor = ClusterMonitor::new(Arc::clone(&router), MonitorConfig::default());
    monitor.start();
    Cluster {
        router,
        monitor,
        door,
        platform,
        tenants,
        stores,
    }
}

impl Cluster {
    /// Turns request tracing on or off in the program and the wrappers.
    pub fn set_tracing(&self, on: bool) {
        self.router.telemetry().set_tracing(on);
        set_tracing(on);
    }

    /// Stops the monitor, drains the front door and joins every thread.
    pub fn shutdown(self) -> palaemon::core::frontdoor::FrontDoorStats {
        self.monitor.stop();
        let stats = self.door.drain();
        drop(self.router);
        stats
    }
}
