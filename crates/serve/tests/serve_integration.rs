//! Integration tests for the serving layer: a real server on an
//! ephemeral port, concurrent clients, mid-traffic hot swaps, and the
//! drain discipline.
//!
//! The swap invariants under test are the strongest the protocol
//! promises:
//!
//! * **zero dropped requests** — every frame a client manages to send
//!   gets exactly one response, even when shutdown lands mid-pipeline;
//! * **no torn snapshots** — each response's labels are entirely
//!   consistent with the single generation it reports, never a mix.

use mc_core::MonotoneClassifier;
use mc_serve::{encode_classify, spawn, Client, ServeConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::{Duration, Instant};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mc-serve-test-{}-{name}", std::process::id()));
    p
}

/// Generation parity decides the model in the swap tests: odd
/// generations serve anchor `[10.0]`, even generations serve the
/// all-one classifier. Query points `[0.0]` and `[20.0]` distinguish
/// them: odd → `[0, 1]`, even → `[1, 1]`.
fn expected_labels(generation: u64) -> [u8; 2] {
    if generation % 2 == 1 {
        [0, 1]
    } else {
        [1, 1]
    }
}

#[test]
fn concurrent_clients_are_all_served_and_metrics_reconcile() {
    let h = MonotoneClassifier::from_anchors(2, vec![vec![1.0, 1.0]]);
    let server = spawn(ServeConfig::default(), h).expect("bind");
    let addr = server.addr();

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 50;
    const BATCH: usize = 8;
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..REQUESTS {
                    let rows: Vec<Vec<f64>> = (0..BATCH)
                        .map(|j| vec![(i + j) as f64, ((i + j) % 3) as f64])
                        .collect();
                    let reply = client.classify(&rows).expect("classify");
                    assert_eq!(reply.generation, 1);
                    for (row, &label) in rows.iter().zip(&reply.labels) {
                        let expect = u8::from(row[0] >= 1.0 && row[1] >= 1.0);
                        assert_eq!(label, expect, "row {row:?}");
                    }
                }
            });
        }
    });

    // Server-side counters must reconcile exactly with what the
    // clients sent: no dropped, no double-counted frames.
    let mut client = Client::connect(addr).expect("connect");
    let metrics = client.metrics().expect("metrics");
    let get = |k: &str| {
        metrics
            .get(k)
            .and_then(mc_serve::JsonValue::as_u64)
            .unwrap()
    };
    assert_eq!(get("requests"), (CLIENTS * REQUESTS) as u64);
    assert_eq!(get("points"), (CLIENTS * REQUESTS * BATCH) as u64);
    assert_eq!(get("errors"), 0);
    assert_eq!(get("connections"), CLIENTS as u64 + 1);
    // Every classify frame, and nothing else, is timed in each stage.
    for stage in ["decode_us_count", "classify_us_count", "encode_us_count"] {
        assert_eq!(get(stage), (CLIENTS * REQUESTS) as u64, "{stage}");
    }
    server.shutdown_and_join();
}

#[test]
fn hot_swap_under_load_drops_nothing_and_never_tears() {
    let odd_model = || MonotoneClassifier::from_anchors(1, vec![vec![10.0]]);
    let server = spawn(ServeConfig::default(), odd_model()).expect("bind");
    let addr = server.addr();
    let store = server.store();

    // Swap via the in-process store on one thread while clients hammer
    // classify on others; every reply must be internally consistent
    // with exactly one generation.
    let stop = AtomicBool::new(false);
    let swaps_done = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            for g in 0..60 {
                if g % 2 == 0 {
                    store.swap(MonotoneClassifier::all_one(1));
                } else {
                    store.swap(odd_model());
                }
                swaps_done.fetch_add(1, SeqCst);
                std::thread::sleep(Duration::from_millis(2));
            }
            stop.store(true, SeqCst);
        });
        for _ in 0..3 {
            s.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                let mut served = 0u64;
                let mut generations_seen = std::collections::BTreeSet::new();
                while !stop.load(SeqCst) {
                    let reply = client.classify(&[vec![0.0], vec![20.0]]).expect("classify");
                    assert_eq!(
                        reply.labels,
                        expected_labels(reply.generation),
                        "torn response at generation {}",
                        reply.generation
                    );
                    generations_seen.insert(reply.generation);
                    served += 1;
                }
                assert!(served > 0);
                // The load ran across swaps, so clients must actually
                // have observed more than one generation.
                assert!(
                    generations_seen.len() > 1,
                    "load never crossed a swap: {generations_seen:?}"
                );
            });
        }
    });
    assert_eq!(swaps_done.load(SeqCst), 60);
    server.shutdown_and_join();
}

#[test]
fn reload_frame_swaps_from_csv_and_reports_new_generation() {
    let model_path = temp_path("reload.csv");
    std::fs::write(&model_path, "10\n").expect("write model");
    let config = ServeConfig {
        model_path: Some(model_path.clone()),
        ..ServeConfig::default()
    };
    let server = spawn(
        config,
        MonotoneClassifier::from_anchors(1, vec![vec![10.0]]),
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    assert_eq!(client.classify(&[vec![5.0]]).unwrap().labels, vec![0]);

    // Path-less reload re-reads the configured path.
    std::fs::write(&model_path, "-inf\n").expect("rewrite model");
    let generation = client.reload(None).expect("reload");
    assert_eq!(generation, 2);
    let reply = client.classify(&[vec![5.0]]).unwrap();
    assert_eq!(reply.generation, 2);
    assert_eq!(reply.labels, vec![1]);

    // Explicit-path reload.
    let other_path = temp_path("reload-other.csv");
    std::fs::write(&other_path, "3\n").expect("write model");
    let generation = client
        .reload(Some(other_path.to_str().expect("utf-8 path")))
        .expect("reload");
    assert_eq!(generation, 3);
    assert_eq!(client.classify(&[vec![5.0]]).unwrap().labels, vec![1]);
    assert_eq!(client.classify(&[vec![2.0]]).unwrap().labels, vec![0]);

    // A bad snapshot is rejected and the old model keeps serving.
    std::fs::write(&model_path, "not,a\nnumber,csv,x\n").expect("corrupt model");
    assert!(client.reload(None).is_err());
    assert_eq!(client.ping().unwrap(), 3);

    let metrics = client.metrics().expect("metrics");
    assert_eq!(
        metrics.get("swaps").and_then(mc_serve::JsonValue::as_u64),
        Some(2)
    );
    server.shutdown_and_join();
    let _ = std::fs::remove_file(&model_path);
    let _ = std::fs::remove_file(&other_path);
}

#[test]
fn shutdown_drains_pipelined_frames_before_closing() {
    let h = MonotoneClassifier::from_anchors(1, vec![vec![0.5]]);
    let server = spawn(ServeConfig::default(), h).expect("bind");
    let addr = server.addr();

    // Connection A pipelines a burst of classify frames and a shutdown
    // frame without reading a single response; connection B pipelines
    // its own burst that is in flight when the shutdown lands. Every
    // frame from both connections must still be answered.
    const BURST: usize = 100;
    let frame = encode_classify(&[1.0], 1);

    let mut conn_b = Client::connect(addr).expect("connect B");
    for _ in 0..BURST {
        conn_b.send_raw(&frame).expect("pipeline B");
    }

    let mut conn_a = Client::connect(addr).expect("connect A");
    for _ in 0..BURST {
        conn_a.send_raw(&frame).expect("pipeline A");
    }
    conn_a
        .send_raw(b"{\"op\":\"shutdown\"}")
        .expect("shutdown frame");

    conn_a
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn_b
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for i in 0..BURST {
        let resp = conn_a
            .recv_raw()
            .unwrap_or_else(|e| panic!("A dropped frame {i}: {e}"));
        assert!(resp.starts_with(b"{\"ok\":true"), "frame {i}");
        let resp = conn_b
            .recv_raw()
            .unwrap_or_else(|e| panic!("B dropped frame {i}: {e}"));
        assert!(resp.starts_with(b"{\"ok\":true"), "frame {i}");
    }
    let ack = conn_a.recv_raw().expect("shutdown ack");
    assert_eq!(ack, b"{\"ok\":true,\"draining\":true}".to_vec());

    // The server must now exit on its own (drain, then accept-loop
    // teardown) — join without requesting shutdown locally.
    let t0 = Instant::now();
    server.join();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drain did not complete promptly"
    );

    // Post-drain, both connections see EOF, not an error.
    assert!(conn_a.recv_raw().is_err());
    assert!(conn_b.recv_raw().is_err());
}

#[test]
fn dimension_mismatch_is_an_error_not_a_crash() {
    let h = MonotoneClassifier::from_anchors(2, vec![vec![1.0, 1.0]]);
    let server = spawn(ServeConfig::default(), h).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let err = client
        .classify(&[vec![1.0, 2.0, 3.0]])
        .expect_err("dim mismatch");
    assert!(err.to_string().contains("mismatch"), "{err}");
    // The connection survives the error.
    assert_eq!(client.classify(&[vec![2.0, 2.0]]).unwrap().labels, vec![1]);
    // Empty batches are fine.
    assert_eq!(client.classify(&[]).unwrap().labels, Vec::<u8>::new());
    server.shutdown_and_join();
}
