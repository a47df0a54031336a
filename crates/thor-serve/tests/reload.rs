//! Reload chaos suite: hot engine swaps under live traffic.
//!
//! The contract under test (ISSUE 8):
//!
//! * **Zero dropped requests, zero mixed generations.** Concurrent
//!   clients hammer `/enrich` while the artifact is rewritten and
//!   swapped repeatedly; every 200 names its generation in
//!   `X-Thor-Engine`, and its body is byte-identical to what that
//!   generation's engine produces offline.
//! * **Never swap-to-broken.** A corrupt or truncated replacement
//!   artifact is rejected by name (`reload.rejected`), and the old
//!   generation keeps answering.
//! * **Self-healing.** A panicked accept worker is restarted
//!   (`worker.restarts`); a crash loop trips the breaker into a 503
//!   `degraded` healthz that recovers after the cooldown.
//! * **Deadline budgets.** An exhausted per-request budget is a named
//!   503 `deadline-exceeded`, not a hung connection.
//!
//! The reload request flag and the failpoint registry are process-wide,
//! so every test here takes a [`scoped_failpoints`] guard (possibly
//! with an empty spec) — the same lock the rest of the workspace uses
//! to serialize chaos tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use thor_core::{MapMode, PreparedEngine, ResilientOptions, RunMode, Thor, ThorConfig};
use thor_data::{Schema, Table};
use thor_embed::SemanticSpaceBuilder;
use thor_fault::failpoint::set_failpoints;
use thor_fault::scoped_failpoints;
use thor_obs::MetricsSnapshot;
use thor_serve::http::request;
use thor_serve::{ReloadConfig, ServeOptions, Server};

/// Two semantically different engines: different integrated tables (and
/// τ), so fingerprints and served bytes both differ.
fn engine_a() -> PreparedEngine {
    let store = SemanticSpaceBuilder::new(16, 3)
        .topic("anatomy")
        .words("anatomy", ["lung", "heart", "skin"])
        .generic_words(["damages", "the"])
        .build()
        .into_store();
    let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    table.fill_slot("Tuberculosis", "Anatomy", "lung");
    Thor::new(store, ThorConfig::with_tau(0.6)).prepare(&table)
}

fn engine_b() -> PreparedEngine {
    let store = SemanticSpaceBuilder::new(16, 3)
        .topic("anatomy")
        .words("anatomy", ["lung", "heart", "skin"])
        .generic_words(["damages", "the"])
        .build()
        .into_store();
    let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    table.fill_slot("Tuberculosis", "Anatomy", "lung");
    table.fill_slot("Dermatitis", "Anatomy", "skin");
    Thor::new(store, ThorConfig::with_tau(0.7)).prepare(&table)
}

fn batch_body() -> Vec<u8> {
    br#"{"documents":[{"id":"d0","text":"Tuberculosis damages the heart."}]}"#.to_vec()
}

/// The bytes `/enrich` must answer for `engine` — the same resilient
/// lenient path the server runs.
fn expected_csv(engine: &PreparedEngine) -> String {
    let docs = vec![thor_core::Document::new(
        "d0".to_string(),
        "Tuberculosis damages the heart.".to_string(),
    )];
    let opts = ResilientOptions {
        mode: RunMode::Lenient,
        ..ResilientOptions::default()
    };
    let outcome = engine.enrich_resilient(&docs, &opts).expect("enrich");
    thor_data::to_csv(&outcome.result.table)
}

fn tmp_artifact(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "thor-reload-test-{}-{name}.thor",
        std::process::id()
    ))
}

struct LiveServer {
    addr: std::net::SocketAddr,
    handle: thor_serve::ShutdownHandle,
    join: Option<std::thread::JoinHandle<()>>,
}

impl LiveServer {
    /// Serve the artifact at `path` with hot reload wired up.
    fn start(path: &Path, opts: ServeOptions, poll: Option<Duration>) -> LiveServer {
        let engine = PreparedEngine::load_with(path, MapMode::Owned).expect("load");
        let reload = ReloadConfig {
            path: path.to_path_buf(),
            mode: MapMode::Owned,
            threads: None,
            poll,
        };
        let server = Server::bind_with(engine, "127.0.0.1:0", opts, Some(reload)).expect("bind");
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().expect("serve loop"));
        LiveServer {
            addr,
            handle,
            join: Some(join),
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            join.join().expect("server thread");
        }
    }
}

/// `(fingerprint, epoch)` currently being served, from the
/// `X-Thor-Engine` header every routed response carries.
fn current_tag(addr: &std::net::SocketAddr) -> (String, u64) {
    let resp = request(addr, "GET", "/healthz", b"").expect("healthz");
    let tag = resp
        .header("X-Thor-Engine")
        .expect("X-Thor-Engine header")
        .trim();
    let (fp, epoch) = tag.rsplit_once('@').expect("fp@epoch");
    (fp.to_string(), epoch.parse().expect("numeric epoch"))
}

/// Wait until the serving fingerprint becomes `fp`.
fn wait_for_fp(addr: &std::net::SocketAddr, fp: &str, ctx: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if current_tag(addr).0 == fp {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{ctx}: never started serving {fp}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A counter's value as `/metrics` reports it.
fn metric_count(addr: &std::net::SocketAddr, name: &str) -> u64 {
    let resp = request(addr, "GET", "/metrics", b"").expect("metrics");
    let snapshot = MetricsSnapshot::from_json_str(&resp.body_str()).expect("metrics JSON");
    snapshot.count(name)
}

/// Wait until a counter reaches at least `want`.
fn wait_for_count(addr: &std::net::SocketAddr, name: &str, want: u64, ctx: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if metric_count(addr, name) >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{ctx}: `{name}` never reached {want}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A structurally valid THORENG container that is not an engine: its
/// stamp reads fine (so polling notices the change), but the full load
/// rejects it — the candidate must never be swapped in.
fn bogus_artifact(seed: usize) -> Vec<u8> {
    let mut w = thor_fault::SectionWriter::new();
    w.add("meta", 1, format!("not an engine #{seed}").as_bytes());
    w.finish()
}

/// Tentpole: hundreds of requests from concurrent clients race dozens
/// of SIGHUP-driven swaps; every response is attributable to exactly
/// one generation and byte-identical to that generation's engine.
#[test]
fn hot_swap_under_traffic_never_drops_or_mixes_generations() {
    let _guard = scoped_failpoints("");
    let path = tmp_artifact("hot-swap");
    let (a, b) = (engine_a(), engine_b());
    a.save(&path).expect("save a");
    let fp_a = a.fingerprint().to_string();
    let fp_b = b.fingerprint().to_string();
    assert_ne!(fp_a, fp_b, "engines must be distinguishable");
    let (want_a, want_b) = (expected_csv(&a), expected_csv(&b));
    assert_ne!(want_a, want_b, "served bytes must differ across engines");

    let srv = LiveServer::start(&path, ServeOptions::default(), None);
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = srv.addr;
            let stop = Arc::clone(&stop);
            let (fp_a, fp_b) = (fp_a.clone(), fp_b.clone());
            let (want_a, want_b) = (want_a.clone(), want_b.clone());
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let resp = request(&addr, "POST", "/enrich", &batch_body()).expect("enrich");
                    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
                    let tag = resp.header("X-Thor-Engine").expect("engine header").trim();
                    let (fp, epoch) = tag.rsplit_once('@').expect("fp@epoch");
                    let epoch: u64 = epoch.parse().expect("numeric epoch");
                    // Sequential requests on one client never go back
                    // in time across a swap.
                    assert!(epoch >= last_epoch, "epoch went backwards: {tag}");
                    last_epoch = epoch;
                    let want = match fp {
                        f if f == fp_a => &want_a,
                        f if f == fp_b => &want_b,
                        other => panic!("unknown generation fingerprint {other}"),
                    };
                    assert_eq!(
                        resp.body_str(),
                        want.as_str(),
                        "generation {tag} served foreign bytes"
                    );
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Dozens of swaps, alternating engines, each driven exactly the way
    // SIGHUP drives it.
    for i in 0..24 {
        let (next, fp) = if i % 2 == 0 {
            (&b, fp_b.as_str())
        } else {
            (&a, fp_a.as_str())
        };
        next.save(&path).expect("rewrite artifact");
        thor_serve::signal::request_reload();
        wait_for_fp(&srv.addr, fp, &format!("swap {i}"));
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    assert!(total >= 50, "only {total} requests landed during the churn");
    let (_, epoch) = current_tag(&srv.addr);
    assert_eq!(epoch, 25, "24 swaps on top of the initial generation");
    assert_eq!(metric_count(&srv.addr, "reload.ok"), 24);
    std::fs::remove_file(&path).ok();
}

/// Corrupt and truncated replacement artifacts — detected by polling,
/// no signal involved — are rejected while the old generation keeps
/// answering with its exact bytes; a good artifact then swaps in.
#[test]
fn corrupt_replacement_is_rejected_and_old_engine_keeps_serving() {
    let _guard = scoped_failpoints("");
    let path = tmp_artifact("corrupt");
    let (a, b) = (engine_a(), engine_b());
    a.save(&path).expect("save a");
    let want_a = expected_csv(&a);

    let srv = LiveServer::start(
        &path,
        ServeOptions::default(),
        Some(Duration::from_millis(25)),
    );
    let (fp0, epoch0) = current_tag(&srv.addr);
    assert_eq!(fp0, a.fingerprint());

    // A structurally plausible but non-engine replacement: polling
    // notices it, validation rejects it, the slot is untouched.
    thor_fault::atomic_write(&path, &bogus_artifact(1)).expect("corrupt write");
    wait_for_count(&srv.addr, "reload.rejected", 1, "bogus container");

    // Truncated garbage on top: the stamp itself is unreadable, which
    // must never trigger a swap either.
    thor_fault::atomic_write(&path, b"THORENG\0 oops").expect("truncated write");
    std::thread::sleep(Duration::from_millis(120));

    let (fp_now, epoch_now) = current_tag(&srv.addr);
    assert_eq!((fp_now, epoch_now), (fp0.clone(), epoch0), "slot moved");
    let resp = request(&srv.addr, "POST", "/enrich", &batch_body()).expect("enrich");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_str(), want_a, "old generation's bytes changed");

    // Recovery: a good artifact lands and polling swaps it in.
    b.save(&path).expect("save b");
    wait_for_fp(&srv.addr, b.fingerprint(), "recovery swap");
    assert_eq!(metric_count(&srv.addr, "reload.ok"), 1);
    std::fs::remove_file(&path).ok();
}

/// Every injectable step of the reload state machine — open, validate,
/// swap — fails without moving the slot; the next (uninjected) reload
/// succeeds on the same process.
#[test]
fn reload_failpoints_never_swap_to_broken() {
    let guard = scoped_failpoints("");
    let path = tmp_artifact("failpoints");
    let (a, b) = (engine_a(), engine_b());
    a.save(&path).expect("save a");
    let srv = LiveServer::start(&path, ServeOptions::default(), None);
    let (fp0, epoch0) = current_tag(&srv.addr);

    b.save(&path).expect("save b");
    for (i, spec) in ["reload_open:err@1", "reload_validate:err@1", "swap:err@1"]
        .iter()
        .enumerate()
    {
        set_failpoints(spec).expect("arm");
        thor_serve::signal::request_reload();
        wait_for_count(&srv.addr, "reload.rejected", i as u64 + 1, spec);
        let (fp, epoch) = current_tag(&srv.addr);
        assert_eq!((fp, epoch), (fp0.clone(), epoch0), "{spec} moved the slot");
        let resp = request(&srv.addr, "POST", "/enrich", &batch_body()).expect("enrich");
        assert_eq!(resp.status, 200, "{spec} broke serving");
    }

    set_failpoints("").expect("disarm");
    thor_serve::signal::request_reload();
    wait_for_fp(&srv.addr, b.fingerprint(), "post-chaos reload");
    assert_eq!(current_tag(&srv.addr).1, epoch0 + 1);
    drop(guard);
    std::fs::remove_file(&path).ok();
}

/// A panicked accept worker is restarted and the server keeps
/// answering; a crash loop trips the breaker into 503 `degraded`, and
/// the breaker resets after the cooldown.
#[test]
fn worker_panics_recover_and_crash_loops_degrade_health() {
    let guard = scoped_failpoints("");
    let path = tmp_artifact("supervision");
    engine_a().save(&path).expect("save");
    let opts = ServeOptions {
        breaker_threshold: 2,
        breaker_window: Duration::from_secs(30),
        breaker_cooldown: Duration::from_millis(300),
        ..ServeOptions::default()
    };
    let srv = LiveServer::start(&path, opts, None);

    // One injected panic: a worker dies, the supervisor restarts it,
    // requests keep succeeding.
    set_failpoints("worker_panic:panic@1").expect("arm");
    wait_for_count(&srv.addr, "worker.restarts", 1, "first panic");
    let resp = request(&srv.addr, "POST", "/enrich", &batch_body()).expect("after panic");
    assert_eq!(resp.status, 200);
    let health = request(&srv.addr, "GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200, "one restart must not degrade");

    // A second restart inside the window trips the breaker.
    set_failpoints("worker_panic:err@1").expect("re-arm");
    wait_for_count(&srv.addr, "worker.restarts", 2, "second panic");
    set_failpoints("").expect("disarm");
    let deadline = Instant::now() + Duration::from_secs(5);
    let degraded = loop {
        let health = request(&srv.addr, "GET", "/healthz", b"").expect("healthz");
        if health.status == 503 {
            assert!(
                health.body_str().contains("degraded"),
                "{}",
                health.body_str()
            );
            break health;
        }
        assert!(Instant::now() < deadline, "breaker never tripped");
        std::thread::sleep(Duration::from_millis(20));
    };
    drop(degraded);
    // Degraded is a health report, not an outage: enrichment still works.
    let resp = request(&srv.addr, "POST", "/enrich", &batch_body()).expect("degraded enrich");
    assert_eq!(resp.status, 200);

    // After a quiet cooldown, the breaker resets.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = request(&srv.addr, "GET", "/healthz", b"").expect("healthz");
        if health.status == 200 {
            assert!(health.body_str().contains("serving"));
            break;
        }
        assert!(Instant::now() < deadline, "breaker never reset");
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(guard);
    std::fs::remove_file(&path).ok();
}

/// An exhausted deadline budget answers 503 `deadline-exceeded` and is
/// counted; a sane budget changes nothing.
#[test]
fn exhausted_deadline_budget_is_a_named_503() {
    let _guard = scoped_failpoints("");
    let path = tmp_artifact("deadline");
    engine_a().save(&path).expect("save");
    let opts = ServeOptions {
        deadline: Some(Duration::from_nanos(1)),
        ..ServeOptions::default()
    };
    let srv = LiveServer::start(&path, opts, None);
    let resp = request(&srv.addr, "POST", "/enrich", &batch_body()).expect("enrich");
    assert_eq!(resp.status, 503, "body: {}", resp.body_str());
    assert!(
        resp.body_str().contains("deadline-exceeded"),
        "{}",
        resp.body_str()
    );
    assert!(metric_count(&srv.addr, "deadline.exceeded") >= 1);
    drop(srv);

    let opts = ServeOptions {
        deadline: Some(Duration::from_secs(30)),
        ..ServeOptions::default()
    };
    let srv = LiveServer::start(&path, opts, None);
    let resp = request(&srv.addr, "POST", "/enrich", &batch_body()).expect("enrich");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    std::fs::remove_file(&path).ok();
}

/// Property: under any small interleaving of good rewrites, bogus
/// rewrites and concurrent clients, every 200 response's body is
/// byte-identical to the engine its `X-Thor-Engine` fingerprint names.
#[derive(Debug, Clone, Copy)]
enum Op {
    SwapA,
    SwapB,
    Corrupt,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3).prop_map(|i| match i {
        0 => Op::SwapA,
        1 => Op::SwapB,
        _ => Op::Corrupt,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn interleaved_rewrites_preserve_per_epoch_byte_identity(
        ops in prop::collection::vec(op_strategy(), 1..5),
    ) {
        let _guard = scoped_failpoints("");
        let path = tmp_artifact("interleave");
        let (a, b) = (engine_a(), engine_b());
        a.save(&path).expect("save a");
        let fp_a = a.fingerprint().to_string();
        let fp_b = b.fingerprint().to_string();
        let (want_a, want_b) = (expected_csv(&a), expected_csv(&b));

        let srv = LiveServer::start(
            &path,
            ServeOptions::default(),
            Some(Duration::from_millis(20)),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let addr = srv.addr;
                let stop = Arc::clone(&stop);
                let (fp_a, fp_b) = (fp_a.clone(), fp_b.clone());
                let (want_a, want_b) = (want_a.clone(), want_b.clone());
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let resp =
                            request(&addr, "POST", "/enrich", &batch_body()).expect("enrich");
                        assert_eq!(resp.status, 200, "body: {}", resp.body_str());
                        let tag =
                            resp.header("X-Thor-Engine").expect("engine header").trim();
                        let fp = tag.rsplit_once('@').expect("fp@epoch").0;
                        let want = match fp {
                            f if f == fp_a => &want_a,
                            f if f == fp_b => &want_b,
                            other => panic!("unknown fingerprint {other}"),
                        };
                        assert_eq!(resp.body_str(), want.as_str(), "mixed bytes in {tag}");
                    }
                })
            })
            .collect();

        let mut rejected = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::SwapA => {
                    a.save(&path).expect("rewrite a");
                    wait_for_fp(&srv.addr, &fp_a, &format!("op {i}: swap a"));
                }
                Op::SwapB => {
                    b.save(&path).expect("rewrite b");
                    wait_for_fp(&srv.addr, &fp_b, &format!("op {i}: swap b"));
                }
                Op::Corrupt => {
                    let before = current_tag(&srv.addr);
                    rejected += 1;
                    thor_fault::atomic_write(&path, &bogus_artifact(i)).expect("corrupt");
                    wait_for_count(
                        &srv.addr,
                        "reload.rejected",
                        rejected,
                        &format!("op {i}: corrupt"),
                    );
                    prop_assert_eq!(current_tag(&srv.addr), before, "corrupt op moved the slot");
                    // Put a good artifact back so a trailing corrupt op
                    // leaves the next op's baseline well-defined.
                    let (fp_now, _) = current_tag(&srv.addr);
                    let restore = if fp_now == fp_a { &a } else { &b };
                    restore.save(&path).expect("restore");
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        for c in clients {
            c.join().expect("client");
        }
        std::fs::remove_file(&path).ok();
    }
}
