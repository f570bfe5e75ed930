//! Uncontended calibration: one caller, direct calls into each layer's
//! public function with the workload's own inputs. The gap between these
//! and the contended spans of the traced run is each layer's waiting time.

use std::time::{Duration, Instant};

use palaemon::core::counterfile::{BatchedCounter, ShieldedCounter};
use palaemon::crypto::aead::AeadKey;
use palaemon::crypto::Digest;
use palaemon::db::Db;
use palaemon::shielded_fs::fs::{ShieldedFs, TagEvent};
use palaemon::shielded_fs::store::MemStore;
use palaemon::tee_sim::platform::Platform;

use crate::deploy::{self, BenchStore, SERVICE, VOLUME};
use crate::stats::median;

/// Each calibration times calls until this budget is spent (or
/// [`MAX_CALLS`] calls) and reports the median call.
const BUDGET: Duration = Duration::from_millis(150);
const MAX_CALLS: usize = 2_000;

fn time_calls(mut call: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MAX_CALLS && start.elapsed() < BUDGET {
        let t = Instant::now();
        call(samples.len());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Returns `(metric, microseconds)` pairs for the five calibrated calls.
pub fn run(platform: &Platform, tenant: &(String, String), wide: bool) -> Vec<(&'static str, f64)> {
    let quote = deploy::quote(platform);
    let qe_key = platform.qe_verifying_key();
    let quote_verify = time_calls(|_| quote.verify(&qe_key).expect("quote verifies"));

    // One engine on a sleep-model store, holding the tenant's policy.
    let engine = deploy::engine(platform, Box::new(BenchStore::new(None)), 0xCA);
    let (name, payload) = tenant;
    engine
        .create_policy(
            &deploy::owner(),
            deploy::policy(name, payload, 0, wide),
            None,
            &[],
        )
        .expect("calibration policy");
    let attest = time_calls(|_| {
        let config = engine
            .attest_service(&quote, &[0u8; 64], name, SERVICE)
            .expect("calibration attest");
        engine.close_session(config.session);
    });
    let session = engine
        .attest_service(&quote, &[0u8; 64], name, SERVICE)
        .expect("calibration attest")
        .session;
    let push = time_calls(|i| {
        let mut tag = [0u8; 32];
        tag[..8].copy_from_slice(&(i as u64).to_le_bytes());
        engine
            .push_tag(session, VOLUME, Digest::from_bytes(tag), TagEvent::Sync)
            .expect("calibration push");
    });

    let mut db = Db::create(
        Box::new(BenchStore::new(None)),
        AeadKey::from_bytes([0xCB; 32]),
    )
    .expect("calibration db");
    let commit = time_calls(|i| {
        db.put(
            format!("tag/{name}/{VOLUME}").into_bytes(),
            (i as u64).to_le_bytes().to_vec(),
        );
        db.commit_stage().wait().expect("calibration commit");
    });

    let fs = ShieldedFs::create(Box::new(MemStore::new()), AeadKey::from_bytes([0xCC; 32]));
    let counter = BatchedCounter::new(ShieldedCounter::create(fs).expect("calibration counter"));
    let counter_commit = time_calls(|_| {
        counter.commit().expect("calibration counter commit");
    });

    vec![
        ("crypto.quote_verify_solo_us", quote_verify),
        ("tms.attest_service_solo_us", attest),
        ("tms.push_tag_solo_us", push),
        ("kvdb.commit_solo_us", commit),
        ("counter.commit_solo_us", counter_commit),
    ]
}
