//! `serve-batch` and `serve-point`: a child `mcc serve` process over TCP.
//! serve-batch is a closed loop of canonical 256-point frames, bound by
//! the anchor index; serve-point is an open loop of single-point frames
//! that take the generic JSON parser, bound by protocol and syscalls.

use crate::gen::{self, MODEL_DIM};
use crate::report::Outcome;
use crate::stats::{self, Schedule};
use crate::trace::Tracer;
use crate::{end_to_end, mib, ms, per_layer, Ctx};
use mc_core::{AnchorIndex, MonotoneClassifier};
use mc_serve::protocol::{
    encode_classify_response, parse_classify_response, parse_request, FrameEvent,
};
use mc_serve::{encode_classify, Client, FrameReader, JsonValue, Request, MAX_FRAME_BYTES};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Anchors in the served model.
const ANCHORS: usize = 4096;
/// `mcc serve` start-ups timed for `setup_s` before the load; the last
/// one serves it.
const SPAWNS_BEFORE: usize = 3;
/// Start-ups timed after the load, so the set-up median spans the run as
/// the latencies do.
const SPAWNS_AFTER: usize = 2;
/// Points per serve-batch frame.
const BATCH_POINTS: usize = 256;
/// Distinct serve-batch frames, replayed in turn.
const BATCH_FRAMES: usize = 64;
/// serve-batch connections, each on its own thread.
const CONNECTIONS: usize = 2;
/// Frames each serve-batch connection keeps in flight.
const DEPTH: usize = 8;
/// serve-point frames per second.
const RATE: u64 = 5_000;
/// Distinct serve-point frames, replayed in turn.
const POINT_FRAMES: usize = 2048;
/// How long the open loop waits for replies after its last frame;
/// frames still unanswered then count as failed.
const DRAIN: Duration = Duration::from_secs(2);
/// A reply slower than this counts as failed (closed loop).
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a server may take to drain and exit once asked to.
const STOP_TIMEOUT: Duration = Duration::from_secs(10);
/// Calls per prepared frame when timing a layer in-process.
const LAYER_REPS: usize = 3;

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Closed loop, 2 connections × 8 in flight, 256-point frames.
    Batch,
    /// Open loop at 5,000 single-point frames/s on one connection.
    Point,
}

/// A running `mcc serve` child. Dropping it kills the process if it is
/// still running and waits for it.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    generation: u64,
}

impl Server {
    /// Starts `mcc serve` on an ephemeral port and waits until a `ping`
    /// answers; returns the server and how long that took. With
    /// `metrics_out`, the server runs with its own instrumentation on and
    /// writes it there when it exits.
    fn spawn(
        mcc: &Path,
        model: &Path,
        metrics_out: Option<&Path>,
    ) -> io::Result<(Server, Duration)> {
        let start = Instant::now();
        let mut command = Command::new(mcc);
        command
            .arg("serve")
            .arg(model)
            .args(["--addr", "127.0.0.1:0"]);
        if let Some(path) = metrics_out {
            command.arg("--metrics-out").arg(path);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| {
                io::Error::new(e.kind(), format!("cannot start {}: {e}", mcc.display()))
            })?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // From here on, dropping `server` on an error stops the child.
        let mut server = Server {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            generation: 0,
        };
        // "serving 4-d model (4096 anchors) on 127.0.0.1:PORT"
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .split_whitespace()
            .last()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("mcc serve printed {line:?}")))?;
        server.generation = Client::connect(server.addr)?
            .ping()
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok((server, start.elapsed()))
    }

    /// Peak resident set of the server process (VmHWM), in bytes.
    fn peak_rss_bytes(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// The server's `metrics` frame.
    fn metrics(&self) -> io::Result<JsonValue> {
        Client::connect(self.addr)?
            .metrics()
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// Asks the server to drain and exit, and waits until it has (killing
    /// it after [`STOP_TIMEOUT`]). Its few closing lines fit in the pipe,
    /// which stays open until the process is reaped.
    fn stop(mut self) -> io::Result<()> {
        let asked = Client::connect(self.addr).map(|mut c| c.shutdown().is_ok());
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return match asked {
                    Ok(true) if status.success() => Ok(()),
                    _ => Err(io::Error::other(format!(
                        "mcc serve did not stop cleanly: {status}"
                    ))),
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("mcc serve did not exit; killed it"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Frames of one traffic mix with the labels each must come back with.
struct Frames {
    /// Request payloads.
    payloads: Vec<Vec<u8>>,
    /// Expected 0/1 labels per frame, from the naive anchor scan.
    expected: Vec<Vec<u8>>,
    /// Points per frame.
    points: usize,
}

impl Frames {
    fn prepare(mode: Mode, model: &MonotoneClassifier, seed: u64) -> Self {
        let (count, points) = match mode {
            Mode::Batch => (BATCH_FRAMES, BATCH_POINTS),
            Mode::Point => (POINT_FRAMES, 1),
        };
        let coords = gen::query_points(count * points, seed);
        let rows: Vec<&[f64]> = coords.chunks_exact(points * MODEL_DIM).collect();
        Frames {
            payloads: rows
                .iter()
                .map(|r| match mode {
                    Mode::Batch => encode_classify(r, MODEL_DIM),
                    Mode::Point => gen::spaced_point_frame(r),
                })
                .collect(),
            expected: rows.iter().map(|r| gen::naive_labels(model, r)).collect(),
            points,
        }
    }

    fn len(&self) -> usize {
        self.payloads.len()
    }

    fn reply_ok(&self, k: usize, reply: &[u8], generation: u64) -> bool {
        matches!(parse_classify_response(reply), Ok((g, labels)) if g == generation && labels == self.expected[k % self.len()])
    }
}

/// What one load period saw.
#[derive(Debug, Default)]
struct Load {
    /// Frame latencies, ms.
    latency_ms: Vec<f64>,
    /// `(seconds since start, points)` per acknowledged frame.
    acks: Vec<(f64, u64)>,
    /// How late each open-loop frame went out, µs.
    late_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// `(due or sent, answered)` per frame, kept only when tracing.
    frames: Vec<(Instant, Instant)>,
}

impl Load {
    fn merge(&mut self, other: Load) {
        self.latency_ms.extend(other.latency_ms);
        self.acks.extend(other.acks);
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.frames.extend(other.frames);
    }
}

/// One closed-loop connection: keeps [`DEPTH`] frames in flight until
/// `seconds` have passed, then collects the replies still in flight.
fn closed_loop(
    addr: SocketAddr,
    frames: &Frames,
    generation: u64,
    first: usize,
    seconds: f64,
    keep: bool,
) -> io::Result<Load> {
    let mut client = Client::connect(addr)?;
    client.set_recv_timeout(Some(REPLY_TIMEOUT))?;
    let mut load = Load::default();
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(DEPTH);
    let start = Instant::now();
    let mut next = first;
    for _ in 0..DEPTH {
        client.send_raw(&frames.payloads[next % frames.len()])?;
        in_flight.push_back((next, Instant::now()));
        next += 1;
    }
    while let Some((k, sent)) = in_flight.pop_front() {
        load.attempted += 1;
        let reply = match client.recv_raw() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mcbench: serve-batch connection lost: {e}");
                load.attempted += in_flight.len() as u64;
                load.failed += 1 + in_flight.len() as u64;
                break;
            }
        };
        let now = Instant::now();
        if frames.reply_ok(k, &reply, generation) {
            load.latency_ms.push(ms(now - sent));
            load.acks
                .push(((now - start).as_secs_f64(), frames.points as u64));
            if keep {
                load.frames.push((sent, now));
            }
        } else {
            load.failed += 1;
        }
        if start.elapsed().as_secs_f64() < seconds {
            client.send_raw(&frames.payloads[next % frames.len()])?;
            in_flight.push_back((next, Instant::now()));
            next += 1;
        }
    }
    Ok(load)
}

/// The open loop: one thread writes frame `i` at its due time whatever
/// happened before; this thread reads the replies in order. Latency runs
/// from the due time, so a stall also delays every frame queued behind it.
fn open_loop(
    addr: SocketAddr,
    frames: &Frames,
    generation: u64,
    seconds: f64,
    keep: bool,
) -> io::Result<Load> {
    let schedule = Schedule { rate: RATE };
    let total = schedule.frames_in(seconds);
    let wire: Vec<Vec<u8>> = frames
        .payloads
        .iter()
        .map(|p| {
            let mut w = (p.len() as u32).to_le_bytes().to_vec();
            w.extend_from_slice(p);
            w
        })
        .collect();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = stream.try_clone()?;
    let start = Instant::now();
    let due = |i: u64| start + Duration::from_nanos(schedule.due_ns(i));
    let mut load = Load::default();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late_us = Vec::with_capacity(total as usize);
            for i in 0..total {
                let now = Instant::now();
                if due(i) > now {
                    std::thread::sleep(due(i) - now);
                }
                let at = Instant::now();
                if writer.write_all(&wire[i as usize % wire.len()]).is_err() {
                    break;
                }
                late_us.push(schedule.lateness_ns(i, (at - start).as_nanos() as u64) as f64 / 1e3);
            }
            late_us
        });
        let mut reader = FrameReader::new();
        let deadline = start + Duration::from_secs_f64(seconds) + DRAIN;
        let mut i = 0u64;
        while i < total && Instant::now() < deadline {
            let reply = match reader.poll_frame(&mut stream, MAX_FRAME_BYTES) {
                Ok(FrameEvent::Frame(p)) => p,
                Ok(FrameEvent::TimedOut { .. }) => continue,
                Ok(FrameEvent::Eof) | Err(_) => break,
            };
            let now = Instant::now();
            if frames.reply_ok(i as usize, &reply, generation) {
                load.latency_ms
                    .push(ms(now.saturating_duration_since(due(i))));
                load.acks.push(((now - start).as_secs_f64(), 1));
                if keep {
                    load.frames.push((due(i), now));
                }
            } else {
                load.failed += 1;
            }
            i += 1;
        }
        // Unanswered frames, and frames never sent, are failures.
        load.attempted = total;
        load.failed += total - i;
        load.late_us = sender.join().expect("sender thread");
    });
    Ok(load)
}

fn run_load(
    mode: Mode,
    server: &Server,
    frames: &Frames,
    seconds: f64,
    keep: bool,
) -> io::Result<Load> {
    match mode {
        Mode::Point => open_loop(server.addr, frames, server.generation, seconds, keep),
        Mode::Batch => {
            let mut total = Load::default();
            std::thread::scope(|scope| -> io::Result<()> {
                let workers: Vec<_> = (0..CONNECTIONS)
                    .map(|c| {
                        let first = c * frames.len() / CONNECTIONS;
                        scope.spawn(move || {
                            closed_loop(
                                server.addr,
                                frames,
                                server.generation,
                                first,
                                seconds,
                                keep,
                            )
                        })
                    })
                    .collect();
                for w in workers {
                    total.merge(w.join().expect("load thread")?);
                }
                Ok(())
            })?;
            Ok(total)
        }
    }
}

/// Acknowledged points per second: the median over the run's complete
/// one-second windows (or the whole run when it is shorter than one).
fn throughput(load: &Load, seconds: f64) -> f64 {
    stats::window_median(&load.acks, seconds)
        .unwrap_or_else(|| load.acks.iter().map(|a| a.1).sum::<u64>() as f64 / seconds)
}

/// Runs one serve workload.
pub fn run(mode: Mode, ctx: &Ctx) -> io::Result<Outcome> {
    let model =
        MonotoneClassifier::from_anchors(MODEL_DIM, gen::antichain_anchors(ANCHORS, ctx.seed));
    let csv = mc_data::csv::classifier_to_csv(&model);
    let model_path = ctx.input("model.csv");
    std::fs::write(&model_path, &csv)?;
    let frames = Frames::prepare(mode, &model, ctx.seed);

    let result = (|| {
        let mut setup = Vec::with_capacity(SPAWNS_BEFORE + SPAWNS_AFTER);
        let server = timed_spawns(ctx, &model_path, SPAWNS_BEFORE, &mut setup)?;
        let mut out = Outcome::default();
        if ctx.trace {
            traced(
                mode,
                ctx,
                server,
                &frames,
                &csv,
                &model_path,
                &setup,
                &mut out,
            )?;
        } else {
            let measured = plain(mode, ctx, &server, &frames, &mut out);
            let stopped = server.stop();
            let (throughput, peak_rss, latency_ms) = measured?;
            stopped?;
            timed_spawns(ctx, &model_path, SPAWNS_AFTER, &mut setup)?.stop()?;
            end_to_end(&mut out, &setup, &latency_ms, throughput, peak_rss);
        }
        Ok(out)
    })();
    std::fs::remove_file(&model_path)?;
    result
}

fn add_load(out: &mut Outcome, load: &Load) {
    out.attempted += load.attempted;
    out.failed += load.failed;
    if load.failed > 0 {
        eprintln!(
            "mcbench: {} of {} frames failed",
            load.failed, load.attempted
        );
    }
}

fn load_diag(out: &mut Outcome, server: &Server, load: &Load) -> io::Result<()> {
    let sorted = stats::sorted(&load.latency_ms);
    if !sorted.is_empty() {
        out.diag("latency_p99_ms", stats::nearest_rank(&sorted, 0.99), "ms");
    }
    if !load.late_us.is_empty() {
        let late_p99 = stats::nearest_rank(&stats::sorted(&load.late_us), 0.99);
        out.diag("load.late_p99_us", late_p99, "us");
        if late_p99 >= 1000.0 {
            eprintln!(
                "mcbench: the open loop ran late (p99 {late_p99:.0} us); latencies include the lag"
            );
        }
    }
    let m = server.metrics()?;
    let get = |k: &str| m.get(k).and_then(JsonValue::as_u64).unwrap_or(0) as f64;
    out.diag("serve.service_p50_us", get("latency_us_p50"), "us");
    out.diag("serve.service_p99_us", get("latency_us_p99"), "us");
    out.diag("serve.requests", get("requests"), "count");
    out.diag("serve.errors", get("errors"), "count");
    Ok(())
}

/// The plain run's load; returns its throughput, the server's peak
/// resident set and the frame latencies.
fn plain(
    mode: Mode,
    ctx: &Ctx,
    server: &Server,
    frames: &Frames,
    out: &mut Outcome,
) -> io::Result<(f64, u64, Vec<f64>)> {
    let load = run_load(mode, server, frames, ctx.seconds, false)?;
    add_load(out, &load);
    if load.latency_ms.is_empty() {
        return Err(io::Error::other("no frame was answered"));
    }
    load_diag(out, server, &load)?;
    Ok((
        throughput(&load, ctx.seconds),
        server.peak_rss_bytes()?,
        load.latency_ms,
    ))
}

/// Starts `mcc serve` `count` times, timing each start-up into `setup`,
/// and stops all but the last, which it returns.
fn timed_spawns(
    ctx: &Ctx,
    model_path: &Path,
    count: usize,
    setup: &mut Vec<f64>,
) -> io::Result<Server> {
    let mut server: Option<Server> = None;
    for _ in 0..count {
        if let Some(previous) = server.take() {
            previous.stop()?;
        }
        let (s, took) = Server::spawn(&ctx.mcc, model_path, None)?;
        setup.push(took.as_secs_f64());
        server = Some(s);
    }
    Ok(server.expect("count is positive"))
}

/// Median per-frame time of `f` over every prepared frame, `LAYER_REPS`
/// times each, with one span per call.
fn per_frame<T>(
    tracer: &mut Tracer,
    name: &'static str,
    n: usize,
    mut f: impl FnMut(usize) -> T,
) -> f64 {
    let mut samples = Vec::with_capacity(n * LAYER_REPS);
    for k in 0..n * LAYER_REPS {
        let (_, t) = tracer.time(name, |_| black_box(f(k % n)));
        samples.push(ms(t));
    }
    stats::median(&samples)
}

/// Mean service time in ms from the `serve.latency_us` histogram a
/// server wrote with `--metrics-out` (the `metrics` frame reports only
/// power-of-two bucket bounds).
fn mean_service_ms(metrics_out: &Path) -> io::Result<f64> {
    let text = std::fs::read_to_string(metrics_out)?;
    text.lines()
        .filter_map(|line| mc_serve::json_in::parse(line.as_bytes()).ok())
        .find(|v| {
            v.get("type").and_then(JsonValue::as_str) == Some("histogram")
                && v.get("name").and_then(JsonValue::as_str) == Some("serve.latency_us")
        })
        .and_then(|h| {
            let count = h.get("count")?.as_f64()?;
            Some(h.get("sum")?.as_f64()? / count.max(1.0) / 1e3)
        })
        .ok_or_else(|| io::Error::other("no serve.latency_us histogram in the server's metrics"))
}

/// The traced run: half the time against a plain server, half against one
/// with its own instrumentation on, keeping a span per frame; then the
/// server's per-frame work timed in this process on the same frames.
#[allow(clippy::too_many_arguments)]
fn traced(
    mode: Mode,
    ctx: &Ctx,
    server: Server,
    frames: &Frames,
    csv: &str,
    model_path: &Path,
    setup: &[f64],
    out: &mut Outcome,
) -> io::Result<()> {
    let mut tracer = Tracer::new();
    let half = ctx.seconds / 2.0;
    let plain = run_load(mode, &server, frames, half, false);
    server.stop()?;
    let plain = plain?;
    let metrics_out = ctx.input("serve-metrics.jsonl");
    let (server, _) = Server::spawn(&ctx.mcc, model_path, Some(&metrics_out))?;
    let generation = server.generation;
    let load_start = Instant::now();
    let load = run_load(mode, &server, frames, half, true)?;
    let load_end = Instant::now();
    add_load(out, &plain);
    add_load(out, &load);
    if plain.latency_ms.is_empty() || load.latency_ms.is_empty() {
        return Err(io::Error::other("no frame was answered"));
    }
    out.diag("peak_rss_mib", mib(server.peak_rss_bytes()?), "MiB");
    load_diag(out, &server, &load)?;
    server.stop()?;
    let service = mean_service_ms(&metrics_out);
    std::fs::remove_file(&metrics_out)?;
    let service = service?;
    let parent = tracer.record("serve.load", load_start, load_end, None);
    for &(sent, answered) in &load.frames {
        tracer.record("serve.frame", sent, answered, Some(parent));
    }
    let p50 = stats::nearest_rank(&stats::sorted(&load.latency_ms), 0.5);
    let plain_p50 = stats::nearest_rank(&stats::sorted(&plain.latency_ms), 0.5);

    let n = frames.len();
    let decoded: Vec<Vec<f64>> = frames
        .payloads
        .iter()
        .map(|p| match parse_request(p) {
            Ok(Request::Classify { data, .. }) => data,
            other => panic!("prepared frame must decode: {other:?}"),
        })
        .collect();
    let decode = per_frame(&mut tracer, "serve.decode", n, |k| {
        parse_request(&frames.payloads[k])
    });
    let mut loads = Vec::with_capacity(SPAWNS_BEFORE);
    let mut index = None;
    for _ in 0..SPAWNS_BEFORE {
        let (built, t) = tracer.time("serve.model_load", |_| {
            let model =
                mc_data::csv::classifier_from_csv_auto(csv).expect("generated model parses");
            black_box(AnchorIndex::build(&model))
        });
        loads.push(t.as_secs_f64());
        index = Some(built);
    }
    let index = index.expect("at least one model load");
    let labels: Vec<_> = decoded.iter().map(|d| index.classify_batch(d)).collect();
    for (k, l) in labels.iter().enumerate() {
        let got: Vec<u8> = l.iter().map(|x| x.as_u8()).collect();
        out.check(
            got == frames.expected[k],
            "in-process index disagrees with the naive scan",
        );
    }
    let query = per_frame(&mut tracer, "core.index", n, |k| {
        index.classify_batch(&decoded[k])
    });
    let encode = per_frame(&mut tracer, "serve.encode", n, |k| {
        encode_classify_response(generation, &labels[k])
    });

    let work = decode + query + encode;
    per_layer(
        out,
        &[
            ("trace.latency_p50_ms", p50),
            ("trace_overhead_frac", p50 / plain_p50 - 1.0),
            ("unattributed_frac", 1.0 - work / service),
            ("core.index_frac", query / p50),
            ("serve.decode_frac", decode / p50),
            ("serve.encode_frac", encode / p50),
            ("net.residual_frac", 1.0 - service / p50),
            (
                "serve.model_load_frac",
                stats::median(&loads) / stats::median(setup),
            ),
        ],
    );
    out.diag("setup_s", stats::median(setup), "s");
    out.diag("serve.service_mean_us", service * 1e3, "us");
    out.diag(
        "core.index_ns_per_point",
        query * 1e6 / frames.points as f64,
        "ns",
    );
    out.diag("core.index_vs_service", query / service, "ratio");
    out.diag("serve.decode_us", decode * 1e3, "us");
    out.diag("serve.encode_us", encode * 1e3, "us");
    out.diag("serve.model_load_ms", stats::median(&loads) * 1e3, "ms");
    out.spans = tracer.spans().to_vec();
    Ok(())
}
