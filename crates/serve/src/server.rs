//! The TCP server: accept loop, per-connection workers, hot swap,
//! graceful drain.
//!
//! Threading model (std only, no async runtime):
//!
//! * one **accept thread** owns the listener;
//! * each connection gets its own **worker thread** reading frames with
//!   a short poll timeout ([`crate::protocol::READ_POLL_INTERVAL`]) so
//!   it can observe the shutdown flag between reads;
//! * a shared [`SnapshotStore`] holds the model; classify requests
//!   clone the current `Arc` once and serve the whole batch from it.
//!
//! **Drain discipline**: once shutdown is requested (remote `shutdown`
//! frame or [`ServerHandle::request_shutdown`]), the accept loop stops
//! taking new connections (a self-connect unblocks it), while existing
//! workers keep serving every frame that is already buffered or
//! arrives before their read poll goes idle — so pipelined requests in
//! flight at shutdown time are all answered, none dropped — and only
//! then close. The accept thread joins the drain via a condition
//! variable counting live workers.

use crate::protocol::{
    encode_classify_response, encode_error, parse_request, write_frame, FrameEvent, FrameReader,
    Request, MAX_FRAME_BYTES, READ_POLL_INTERVAL,
};
use crate::snapshot::SnapshotStore;
use crate::stats::ServeStats;
use mc_core::MonotoneClassifier;
use std::io::{self, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`] for the resolved one).
    pub addr: String,
    /// CSV snapshot path used by path-less `reload` frames.
    pub model_path: Option<PathBuf>,
    /// Per-frame payload cap.
    pub max_frame_bytes: usize,
    /// Whether a `shutdown` frame from a client is honored. On for the
    /// CLI and tests (single-host tooling); off for exposed deployments.
    pub allow_remote_shutdown: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            model_path: None,
            max_frame_bytes: MAX_FRAME_BYTES,
            allow_remote_shutdown: true,
        }
    }
}

struct ServerCtx {
    config: ServeConfig,
    store: Arc<SnapshotStore>,
    stats: Arc<ServeStats>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    /// Live worker count + its condvar; the accept thread waits here
    /// for the drain to finish.
    workers: (Mutex<usize>, Condvar),
}

impl ServerCtx {
    /// Sets the shutdown flag and (first time only) unblocks the
    /// accept loop with a throwaway connection.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, SeqCst) {
            mc_obs::event("serve.shutdown_requested", &[]);
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }
}

/// A running server. Dropping the handle shuts the server down and
/// joins it; use [`ServerHandle::join`] to instead wait for a
/// client-initiated shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    store: Arc<SnapshotStore>,
    stats: Arc<ServeStats>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The resolved listen address (with the real port when the config
    /// asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The snapshot store (for in-process swaps and inspection).
    pub fn store(&self) -> Arc<SnapshotStore> {
        self.store.clone()
    }

    /// The server's always-on statistics.
    pub fn stats(&self) -> Arc<ServeStats> {
        self.stats.clone()
    }

    /// Requests shutdown (idempotent): stop accepting, drain workers.
    pub fn request_shutdown(&self) {
        if !self.shutdown.swap(true, SeqCst) {
            mc_obs::event("serve.shutdown_requested", &[]);
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }

    /// Blocks until the server exits (however shutdown was initiated).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Requests shutdown and waits for the drain to complete.
    pub fn shutdown_and_join(self) {
        self.request_shutdown();
        self.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.request_shutdown();
            let _ = t.join();
        }
    }
}

/// Binds and starts serving `classifier` in background threads.
pub fn spawn(config: ServeConfig, classifier: MonotoneClassifier) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let store = Arc::new(SnapshotStore::new(classifier));
    let stats = Arc::new(ServeStats::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    let ctx = Arc::new(ServerCtx {
        config,
        store: store.clone(),
        stats: stats.clone(),
        shutdown: shutdown.clone(),
        addr,
        workers: (Mutex::new(0), Condvar::new()),
    });
    mc_obs::event(
        "serve.listening",
        &[("addr", mc_obs::json::Value::S(addr.to_string()))],
    );
    let accept_thread = std::thread::Builder::new()
        .name("mc-serve-accept".to_string())
        .spawn(move || accept_loop(listener, ctx))?;
    Ok(ServerHandle {
        addr,
        store,
        stats,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: TcpListener, ctx: Arc<ServerCtx>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if ctx.shutdown.load(SeqCst) {
                    // Either the wake connection or a late client;
                    // stop accepting in both cases.
                    break;
                }
                ctx.stats.note_connection();
                {
                    let (lock, _) = &ctx.workers;
                    *lock.lock().unwrap_or_else(|e| e.into_inner()) += 1;
                }
                let worker_ctx = ctx.clone();
                let spawned = std::thread::Builder::new()
                    .name("mc-serve-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, &worker_ctx);
                        let (lock, cvar) = &worker_ctx.workers;
                        *lock.lock().unwrap_or_else(|e| e.into_inner()) -= 1;
                        cvar.notify_all();
                    });
                if spawned.is_err() {
                    // Spawn failure: roll the count back and drop the
                    // connection rather than wedging the drain.
                    let (lock, cvar) = &ctx.workers;
                    *lock.lock().unwrap_or_else(|e| e.into_inner()) -= 1;
                    cvar.notify_all();
                }
            }
            Err(e) => {
                if ctx.shutdown.load(SeqCst) {
                    break;
                }
                mc_obs::event(
                    "serve.accept_error",
                    &[("error", mc_obs::json::Value::S(e.to_string()))],
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    // Drain: every worker finishes its buffered frames before exiting.
    let (lock, cvar) = &ctx.workers;
    let mut live = lock.lock().unwrap_or_else(|e| e.into_inner());
    while *live > 0 {
        live = cvar.wait(live).unwrap_or_else(|e| e.into_inner());
    }
    mc_obs::event("serve.stopped", &[]);
}

fn handle_connection(stream: TcpStream, ctx: &ServerCtx) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL_INTERVAL));
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut out = BufWriter::new(writer);
    let mut stream = stream;
    let mut reader = FrameReader::new();
    loop {
        match reader.poll_frame(&mut stream, ctx.config.max_frame_bytes) {
            Ok(FrameEvent::Frame(payload)) => {
                let t0 = Instant::now();
                let outcome = handle_request(&payload, ctx);
                // Counted before the reply leaves: a client that has read
                // it (and then asks for metrics) must see it counted.
                ctx.stats
                    .note_request(outcome.batch_points, outcome.errored);
                let write_ok = write_frame(&mut out, &outcome.response)
                    .and_then(|()| out.flush())
                    .is_ok();
                ctx.stats.note_latency(t0.elapsed().as_micros() as u64);
                if outcome.shutdown {
                    ctx.begin_shutdown();
                }
                if !write_ok {
                    break;
                }
            }
            Ok(FrameEvent::Eof) => break,
            Ok(FrameEvent::TimedOut { partial }) => {
                // Drained: shutdown requested, no frame mid-flight, and
                // nothing new arrived within the poll interval.
                if ctx.shutdown.load(SeqCst) && !partial {
                    break;
                }
            }
            Err(e) => {
                mc_obs::event(
                    "serve.connection_error",
                    &[("error", mc_obs::json::Value::S(e.to_string()))],
                );
                break;
            }
        }
    }
}

struct Outcome {
    response: Vec<u8>,
    /// `Some(batch size)` for classify frames.
    batch_points: Option<u64>,
    errored: bool,
    shutdown: bool,
}

impl Outcome {
    fn ok(response: Vec<u8>) -> Self {
        Self {
            response,
            batch_points: None,
            errored: false,
            shutdown: false,
        }
    }

    fn err(msg: &str) -> Self {
        Self {
            response: encode_error(msg),
            batch_points: None,
            errored: true,
            shutdown: false,
        }
    }
}

fn handle_request(payload: &[u8], ctx: &ServerCtx) -> Outcome {
    let t0 = Instant::now();
    let request = match parse_request(payload) {
        Ok(r) => r,
        Err(e) => return Outcome::err(&format!("bad request: {e}")),
    };
    let decode_us = t0.elapsed().as_micros() as u64;
    match request {
        Request::Classify { data, dim, n } => {
            // One Arc clone; the whole batch is answered from this
            // snapshot no matter how many reloads land meanwhile.
            let snap = ctx.store.load();
            if n > 0 && dim != snap.classifier.dim() {
                return Outcome {
                    batch_points: Some(0),
                    ..Outcome::err(&format!(
                        "dimensionality mismatch: got {dim}, serving {}",
                        snap.classifier.dim()
                    ))
                };
            }
            let t1 = Instant::now();
            let labels = snap.index.classify_batch(&data);
            let t2 = Instant::now();
            let response = encode_classify_response(snap.generation, &labels);
            ctx.stats.note_classify_frame(
                decode_us,
                (t2 - t1).as_micros() as u64,
                t2.elapsed().as_micros() as u64,
            );
            Outcome {
                batch_points: Some(n as u64),
                ..Outcome::ok(response)
            }
        }
        Request::Reload { path } => {
            let path = match path
                .map(PathBuf::from)
                .or_else(|| ctx.config.model_path.clone())
            {
                Some(p) => p,
                None => return Outcome::err("reload: no path given and no model path configured"),
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    return Outcome::err(&format!("reload: cannot read {}: {e}", path.display()))
                }
            };
            let classifier = match mc_data::csv::classifier_from_csv_auto(&text) {
                Ok(c) => c,
                Err(e) => {
                    return Outcome::err(&format!("reload: bad snapshot {}: {e}", path.display()))
                }
            };
            let snap = ctx.store.swap(classifier);
            ctx.stats.note_swap();
            mc_obs::event(
                "serve.swapped",
                &[("generation", mc_obs::json::Value::U(snap.generation))],
            );
            Outcome::ok(
                mc_obs::json::Obj::new()
                    .bool("ok", true)
                    .u64("generation", snap.generation)
                    .u64("anchors", snap.classifier.anchors().len() as u64)
                    .u64("dim", snap.classifier.dim() as u64)
                    .finish()
                    .into_bytes(),
            )
        }
        Request::Metrics => {
            let body = ctx.stats.to_json(ctx.store.load().generation);
            Outcome::ok(format!("{{\"ok\":true,\"metrics\":{body}}}").into_bytes())
        }
        Request::Ping => Outcome::ok(
            mc_obs::json::Obj::new()
                .bool("ok", true)
                .u64("generation", ctx.store.load().generation)
                .finish()
                .into_bytes(),
        ),
        Request::Shutdown => {
            if !ctx.config.allow_remote_shutdown {
                return Outcome::err("shutdown: disabled on this server");
            }
            Outcome {
                shutdown: true,
                ..Outcome::ok(b"{\"ok\":true,\"draining\":true}".to_vec())
            }
        }
    }
}
