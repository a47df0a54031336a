//! serve-mixed: `batch-wide`'s engine, saved and mapped, behind
//! `thor_serve::Server`. Each request carries one test document, 3
//! `/extract` : 1 `/enrich`. Load comes from this process: first a
//! closed loop of two keep-alive clients, then an open loop at a fixed
//! rate over two pipelined nonblocking connections, each generator
//! thread waiting in `ppoll(2)` until its next due time. (`SO_RCVTIMEO`
//! timeouts are jiffy-granular and a spin-wait steals the server's CPU.)

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use thor_core::{
    entities_tsv, Document, ExtractedEntity, MapMode, PipelineMetrics, PreparedEngine,
    ResilientOptions, RunMode,
};
use thor_data::to_csv;
use thor_fault::fnv1a;
use thor_obs::Json;
use thor_serve::http::{parse_head, request, send_request, write_response};
use thor_serve::{HttpLimits, RequestReader, Response, ServeOptions, Server, ShutdownHandle};

use crate::decompose::Decomposed;
use crate::inputs::{Inputs, SplitMix64, Workload};
use crate::report::{Metric, Outcome};
use crate::speed::{Cpus, Series, Speed, Timed};
use crate::stats::{percentile, sorted, summarize};
use crate::trace::{per, Tracer};
use crate::workloads::{
    another, build_engine, decomposition_gate, end_to_end, err, gate, layer_metrics, write_trace,
    Failure, Probe, Run, SETUPS_AFTER, SETUPS_BEFORE,
};

/// Offered rate of the open loop, requests per second over both
/// connections.
const OPEN_RATE: f64 = 200.0;
/// Share of the measured seconds spent in the closed loop; the open
/// loop gets the rest.
const CLOSED_SHARE: f64 = 0.4;
/// Closed-loop throughput is taken per slice of about this length,
/// with the kernel run between slices.
const SLICE: Duration = Duration::from_millis(500);
/// The open loop runs in segments of about this length, each with a
/// fresh schedule and the kernel run between segments.
const SEGMENT: Duration = Duration::from_secs(2);
/// Open-loop latency is taken per window of due times of this length:
/// each window's p50 is one sample of `latency_ms`.
const WINDOW: Duration = Duration::from_millis(500);
/// Open-loop latency follows the machine's speed less than the kernel
/// does, since wake-ups and the loopback stack are part of it: over 50
/// runs, log p50 against log kernel time had slope 0.59 (correlation
/// 0.86), where closed-loop throughput's slope was −1.08. So latency is
/// rescaled by the kernel's speed to this power, throughput in full.
const LATENCY_SPEED_EXPONENT: f64 = 0.6;
/// Generator validity: p99 lateness of sends against the schedule.
const MAX_LATE_MS: f64 = 1.0;
/// Generator validity: achieved share of the offered rate.
const MIN_RATE_SHARE: f64 = 0.98;
/// Load generator threads and connections (the machine has two cores).
const CONNECTIONS: usize = 2;
/// Requests per untraced or traced block of the traced run.
const TRACE_BLOCK: usize = 32;

/// The two batch endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Extract = 0,
    Enrich = 1,
}

impl Endpoint {
    fn path(self) -> &'static str {
        match self {
            Endpoint::Extract => "/extract",
            Endpoint::Enrich => "/enrich",
        }
    }
}

/// Every request the workload sends, with the bytes it must return.
struct Catalog {
    docs: Vec<Document>,
    /// Request bytes per document and endpoint, and the head's length
    /// (without the blank line ending it).
    requests: Vec<[(Vec<u8>, usize); 2]>,
    /// Batch output per document and endpoint: entity TSV for
    /// `/extract`, enriched CSV for `/enrich`.
    expected: Vec<[Vec<u8>; 2]>,
    /// Entities `PreparedEngine::enrich` extracts from each document.
    entities: Vec<Vec<ExtractedEntity>>,
}

impl Catalog {
    fn new(engine: &PreparedEngine, docs: Vec<Document>) -> Catalog {
        let mut requests = Vec::new();
        let mut expected = Vec::new();
        let mut entities = Vec::new();
        for doc in &docs {
            let body = Json::Object(
                [(
                    "documents".to_string(),
                    Json::Array(vec![Json::Object(
                        [
                            ("id".to_string(), Json::Str(doc.id.clone())),
                            ("text".to_string(), Json::Str(doc.text.clone())),
                        ]
                        .into_iter()
                        .collect(),
                    )]),
                )]
                .into_iter()
                .collect(),
            )
            .render();
            let request = |ep: Endpoint| {
                let head = format!(
                    "POST {} HTTP/1.1\r\nHost: thor\r\nContent-Length: {}\r\n\
                     Content-Type: application/json",
                    ep.path(),
                    body.len()
                );
                let bytes = [head.as_bytes(), b"\r\n\r\n", body.as_bytes()].concat();
                (bytes, head.len())
            };
            requests.push([request(Endpoint::Extract), request(Endpoint::Enrich)]);
            let r = engine.enrich(std::slice::from_ref(doc));
            expected.push([
                entities_tsv(&r.entities).into_bytes(),
                to_csv(&r.table).into_bytes(),
            ]);
            entities.push(r.entities);
        }
        Catalog {
            docs,
            requests,
            expected,
            entities,
        }
    }

    fn request(&self, (doc, ep): (usize, Endpoint)) -> &[u8] {
        &self.requests[doc][ep as usize].0
    }

    fn head(&self, (doc, ep): (usize, Endpoint)) -> &[u8] {
        let (bytes, head_len) = &self.requests[doc][ep as usize];
        &bytes[..*head_len]
    }

    fn body(&self, (doc, ep): (usize, Endpoint)) -> &[u8] {
        let (bytes, head_len) = &self.requests[doc][ep as usize];
        &bytes[head_len + 4..]
    }

    fn expected(&self, (doc, ep): (usize, Endpoint)) -> &[u8] {
        &self.expected[doc][ep as usize]
    }
}

/// The seeded request sequence of one connection.
struct Mix {
    rng: SplitMix64,
    docs: usize,
}

impl Mix {
    fn new(seed: u64, stream: usize, docs: usize) -> Mix {
        Mix {
            rng: SplitMix64(seed.wrapping_mul(0x100_0000_01B3) ^ stream as u64),
            docs,
        }
    }

    fn next(&mut self) -> (usize, Endpoint) {
        let doc = (self.rng.next() % self.docs as u64) as usize;
        let ep = if self.rng.next().is_multiple_of(4) {
            Endpoint::Enrich
        } else {
            Endpoint::Extract
        };
        (doc, ep)
    }
}

/// Parse one response off the front of `buf`: status, body range and
/// bytes consumed; `None` while it is incomplete.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, std::ops::Range<usize>)>, String> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in `{head}`"))?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or("response without Content-Length")?;
    let body = end + 4..end + 4 + len;
    Ok((buf.len() >= body.end).then_some((status, body)))
}

/// A blocking keep-alive connection driven by thor-serve's client side.
struct Conn {
    stream: TcpStream,
    reader: RequestReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = RequestReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Send one of the catalog's requests and read its response.
    fn call(&mut self, cat: &Catalog, req: (usize, Endpoint)) -> Result<Response, String> {
        send_request(&mut self.stream, "POST", req.1.path(), cat.body(req))?;
        Response::read_from(&mut self.reader)
    }
}

/// A running server on a loopback port.
struct Live {
    addr: SocketAddr,
    handle: ShutdownHandle,
    metrics: PipelineMetrics,
    thread: JoinHandle<Result<(), String>>,
}

impl Live {
    /// Bind, run, and wait for the first `/healthz` 200.
    fn start(engine: PreparedEngine) -> Result<Live, Failure> {
        let server = Server::bind(engine, "127.0.0.1:0", ServeOptions::default()).map_err(err)?;
        let addr = server.local_addr();
        let live = Live {
            addr,
            handle: server.shutdown_handle(),
            metrics: server.metrics().clone(),
            thread: std::thread::spawn(move || server.run().map_err(|e| e.to_string())),
        };
        let health = request(&addr, "GET", "/healthz", b"")?;
        if health.status != 200 {
            return Err(Failure::Error(format!(
                "/healthz answered {}",
                health.status
            )));
        }
        Ok(live)
    }

    /// Drain the server and wait for it to finish.
    fn stop(self) -> Result<(), Failure> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| Failure::Error("server thread panicked".into()))?
            .map_err(Failure::Error)
    }
}

/// Build and save the engine, then load it mapped, as `thor serve
/// --engine` does.
fn setup(t: &mut Tracer, inputs: &Inputs, artifact: &Path) -> Result<PreparedEngine, Failure> {
    build_engine(t, inputs, Workload::ServeMixed, artifact)?;
    t.span("engine.load", || {
        PreparedEngine::load_with(artifact, MapMode::Mapped)
    })
    .map_err(err)
}

/// Every distinct request must return exactly the batch bytes for its
/// document.
fn served_gate(addr: SocketAddr, cat: &Catalog) -> Result<(), Failure> {
    let mut conn = Conn::open(addr)?;
    for doc in 0..cat.docs.len() {
        for ep in [Endpoint::Extract, Endpoint::Enrich] {
            let resp = conn.call(cat, (doc, ep))?;
            gate(
                "serve-equals-batch",
                resp.status == 200 && resp.body == cat.expected((doc, ep)),
                || {
                    format!(
                        "{} for {} answered {} with {} bytes, batch wrote {} bytes",
                        ep.path(),
                        cat.docs[doc].id,
                        resp.status,
                        resp.body.len(),
                        cat.expected((doc, ep)).len()
                    )
                },
            )?;
        }
    }
    Ok(())
}

/// What the closed loop measured.
#[derive(Default)]
struct Closed {
    /// Completed requests per second, one sample per slice.
    rates: Series,
    latency_ms: Vec<f64>,
    sent: u64,
    failed: u64,
}

/// [`CONNECTIONS`] clients, each sending its next request as soon as
/// the last response arrives, for `duration`, in slices of about
/// [`SLICE`]. Between slices, while the clients and the server are
/// idle, the kernel runs on every CPU.
fn closed_loop(
    addr: SocketAddr,
    cat: &Catalog,
    seed: u64,
    duration: Duration,
    speed: &mut Speed,
) -> Result<Closed, Failure> {
    let mut clients = (0..CONNECTIONS)
        .map(|i| Ok((Conn::open(addr)?, Mix::new(seed, i, cat.docs.len()))))
        .collect::<Result<Vec<_>, String>>()?;
    let slices = ((duration.as_secs_f64() / SLICE.as_secs_f64()).round() as u32).max(1);
    let mut closed = Closed::default();
    let timed = speed.time_each(slices as usize, |_| {
        closed_slice(&mut clients, cat, duration / slices)
    });
    for (per_client, t) in timed {
        let mut completed = 0;
        for (latency_ms, failed) in per_client? {
            completed += latency_ms.len();
            closed.latency_ms.extend(latency_ms);
            closed.failed += failed;
        }
        closed.sent += completed as u64;
        closed.rates.rate(completed as f64, t);
    }
    Ok(closed)
}

/// One slice of the closed loop: each client on a thread of its own
/// until `length` has passed. Returns each client's latencies and
/// failed responses.
fn closed_slice(
    clients: &mut [(Conn, Mix)],
    cat: &Catalog,
    length: Duration,
) -> Result<Vec<(Vec<f64>, u64)>, String> {
    let end = Instant::now() + length;
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|(conn, mix)| {
                scope.spawn(move || {
                    let (mut latency_ms, mut failed) = (Vec::new(), 0u64);
                    while Instant::now() < end {
                        let req = mix.next();
                        let t0 = Instant::now();
                        let resp = conn.call(cat, req)?;
                        latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        if resp.status != 200 || resp.body.len() != cat.expected(req).len() {
                            failed += 1;
                        }
                    }
                    Ok((latency_ms, failed))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop client panicked"))
            .collect()
    })
}

/// The raw `ppoll(2)` binding (no libc crate): the same declaration
/// style thor-fault uses for `mmap`.
mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Block until `fd` is readable (or writable, when `write`) or `timeout`
/// passes. An interrupted or failed wait returns early; callers loop.
fn wait(fd: RawFd, write: bool, timeout: Duration) {
    let mut pfd = sys::PollFd {
        fd,
        events: sys::POLLIN | if write { sys::POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as _,
        tv_nsec: timeout.subsec_nanos() as _,
    };
    // SAFETY: `pfd` and `ts` are initialized locals that outlive the
    // call; `nfds` is 1, the length of the one-element array; a null
    // sigmask leaves the signal mask unchanged.
    unsafe { sys::ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
}

/// What the open loop measured.
#[derive(Default)]
struct Open {
    /// Latency of each response, timed from its request's due time.
    latency_ms: Vec<f64>,
    /// Due time of each response's request, seconds after the first.
    due_s: Vec<f64>,
    /// How late each request was handed to the socket.
    late_ms: Vec<f64>,
    sent: u64,
    failed: u64,
    /// Seconds from the first due time to the last send, plus one
    /// period.
    span_s: f64,
}

impl Open {
    /// Requests sent per second of the schedule.
    fn achieved_rps(&self) -> f64 {
        per(self.sent as f64, self.span_s)
    }

    /// Add a later segment's measurements.
    fn absorb(&mut self, later: Open) {
        self.latency_ms.extend(later.latency_ms);
        self.due_s.extend(later.due_s);
        self.late_ms.extend(later.late_ms);
        self.sent += later.sent;
        self.failed += later.failed;
        self.span_s += later.span_s;
    }

    /// The p50 latency of each [`WINDOW`] of due times.
    fn window_p50s(&self) -> Vec<f64> {
        let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (due, &ms) in self.due_s.iter().zip(&self.latency_ms) {
            let window = (due / WINDOW.as_secs_f64()) as u64;
            windows.entry(window).or_default().push(ms);
        }
        windows.values().map(|v| summarize(v).median).collect()
    }
}

/// Offer [`OPEN_RATE`] requests per second for `duration`, split over
/// [`CONNECTIONS`] pipelined connections; connection `i` sends requests
/// `i, i + n, i + 2n, …` of the schedule. Each `segment` of a loop
/// draws its own request sequence.
fn open_loop(
    addr: SocketAddr,
    cat: &Catalog,
    seed: u64,
    segment: usize,
    duration: Duration,
) -> Result<Open, Failure> {
    let streams = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let period = Duration::from_secs_f64(CONNECTIONS as f64 / OPEN_RATE);
    let first = Instant::now() + Duration::from_millis(20);
    let end = first + duration;
    let parts = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, stream)| {
                let first_due = first + Duration::from_secs_f64(i as f64 / OPEN_RATE);
                let mix = Mix::new(seed, CONNECTIONS * (1 + segment) + i, cat.docs.len());
                scope.spawn(move || generate(stream, cat, mix, first, first_due, period, end))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("open-loop generator panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut open = Open::default();
    let mut last_send = first;
    for (part, last) in parts {
        open.absorb(part);
        last_send = last_send.max(last);
    }
    open.span_s = (last_send - first).as_secs_f64() + 1.0 / OPEN_RATE;
    Ok(open)
}

/// One open-loop generator: send each request at its due time, read
/// responses as they come, sleep in `ppoll` until the next due time or
/// the next response byte. Due times are recorded relative to `origin`.
/// Returns what it measured and when it last sent.
fn generate(
    stream: &TcpStream,
    cat: &Catalog,
    mut mix: Mix,
    origin: Instant,
    first_due: Instant,
    period: Duration,
    end: Instant,
) -> Result<(Open, Instant), String> {
    let fd = stream.as_raw_fd();
    let drain_deadline = end + Duration::from_secs(10);
    let mut open = Open::default();
    let (mut out, mut written) = (Vec::new(), 0usize);
    let (mut inbuf, mut chunk) = (Vec::new(), vec![0u8; 1 << 16]);
    let mut pending: VecDeque<(Instant, usize)> = VecDeque::new();
    let (mut k, mut next_due, mut last_send) = (0u32, first_due, first_due);
    loop {
        let now = Instant::now();
        while next_due <= now && next_due < end {
            let req = mix.next();
            open.late_ms.push((now - next_due).as_secs_f64() * 1e3);
            out.extend_from_slice(cat.request(req));
            pending.push_back((next_due, cat.expected(req).len()));
            open.sent += 1;
            last_send = now;
            k += 1;
            next_due = first_due + period * k;
        }
        while written < out.len() {
            match (&*stream).write(&out[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        if written == out.len() {
            out.clear();
            written = 0;
        }
        loop {
            match (&*stream).read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        let now = Instant::now();
        while let Some((status, body)) = parse_response(&inbuf)? {
            let (due, want) = pending
                .pop_front()
                .ok_or("a response arrived for no request")?;
            open.latency_ms.push((now - due).as_secs_f64() * 1e3);
            open.due_s.push((due - origin).as_secs_f64());
            if status != 200 || body.len() != want {
                open.failed += 1;
            }
            inbuf.drain(..body.end);
        }
        let sending = next_due < end;
        if !sending && pending.is_empty() {
            return Ok((open, last_send));
        }
        if now > drain_deadline {
            return Err(format!("{} responses never arrived", pending.len()));
        }
        let wake = if sending { next_due } else { drain_deadline };
        wait(fd, !out.is_empty(), wake.saturating_duration_since(now));
    }
}

/// p99 lateness of the generator's sends, in milliseconds.
fn late_p99(open: &Open) -> f64 {
    percentile(&sorted(&open.late_ms), 9900)
}

/// Why the open loop measured the generator rather than the server:
/// its p99 send lateness is over [`MAX_LATE_MS`], or it sent less than
/// [`MIN_RATE_SHARE`] of the offered rate. `None` for a valid loop.
fn generator_problem(open: &Open) -> Option<String> {
    let late = late_p99(open);
    if late > MAX_LATE_MS {
        Some(format!(
            "`generator-late`: p99 send lateness {late:.3} ms exceeds {MAX_LATE_MS} ms"
        ))
    } else if open.achieved_rps() < MIN_RATE_SHARE * OPEN_RATE {
        Some(format!(
            "`generator-rate`: achieved {:.1} req/s of the offered {OPEN_RATE} req/s",
            open.achieved_rps()
        ))
    } else {
        None
    }
}

/// FNV-1a over every expected response body of the catalog.
fn catalog_digest(cat: &Catalog) -> u64 {
    fnv1a(&cat.expected.concat().concat())
}

/// The extra metric that is 1 when the timed run's open loop held its
/// schedule and 0 when it measured the generator.
pub const OPEN_VALID: &str = "serve.open_valid";

/// A running server and the engine it serves.
type Serving = (PreparedEngine, Live);

/// `n` timed, calibrated set-ups, their times added to `setup_s`: build
/// and save the engine, load it mapped, start the server, first
/// `/healthz` 200. The engine builds on one thread, pinned to the CPU
/// the kernel times; the server's threads must not inherit that pin, so
/// it starts unpinned. Every server is stopped except, with `keep`, the
/// last one, which is returned with its engine.
fn serve_setups(
    inputs: &Inputs,
    artifact: &Path,
    n: usize,
    keep: bool,
    speed: &mut Speed,
    setup_s: &mut Series,
) -> Result<Option<Serving>, Failure> {
    let mut serving: Option<Serving> = None;
    for _ in 0..n {
        let around = speed.begin(Cpus::Next);
        let t0 = Instant::now();
        let engine = setup(&mut Tracer::off(), inputs, artifact);
        speed.unpin();
        let started = engine.and_then(|e| Ok((e.clone(), Live::start(e)?)));
        let wall_s = t0.elapsed().as_secs_f64();
        let kernel_s = speed.end(around);
        setup_s.time(Timed { wall_s, kernel_s }, 1.0);
        if let Some((_, old)) = serving.replace(started?) {
            old.stop()?;
        }
    }
    if !keep {
        if let Some((_, live)) = serving.take() {
            live.stop()?;
        }
    }
    Ok(serving)
}

/// The timed run of serve-mixed.
pub fn timed(run: &Run, inputs: &Inputs) -> Result<Outcome, Failure> {
    let artifact = inputs.path("engine.thor");
    let mut speed = Speed::new();
    let mut setup_s = Series::default();
    let serving = serve_setups(
        inputs,
        &artifact,
        SETUPS_BEFORE,
        true,
        &mut speed,
        &mut setup_s,
    )?;
    let (engine, live) = serving.expect("at least one set-up");

    let docs = inputs.read_docs()?;
    crate::workloads::threads_gate(&engine, &docs)?;
    let cat = Catalog::new(&engine, docs);
    served_gate(live.addr, &cat)?;

    let total = Duration::from_secs_f64(run.seconds);
    let closed_s = total.mul_f64(CLOSED_SHARE);
    let closed = closed_loop(live.addr, &cat, run.seed, closed_s, &mut speed)?;
    // The kernel cannot run while a schedule is kept, so each segment's
    // window p50s are rescaled by the kernel runs on either side of it.
    let open_s = total - closed_s;
    let segments = ((open_s.as_secs_f64() / SEGMENT.as_secs_f64()).round() as u32).max(1);
    let (mut open, mut latency_ms) = (Open::default(), Series::default());
    let timed = speed.time_each(segments as usize, |segment| {
        open_loop(live.addr, &cat, run.seed, segment, open_s / segments)
    });
    for (part, t) in timed {
        let part = part?;
        let factor = t.scale().powf(LATENCY_SPEED_EXPONENT);
        for p50 in part.window_p50s() {
            latency_ms.scaled_by(p50, factor);
        }
        open.absorb(part);
    }
    // An invalid loop still reports its numbers, since a run must, but
    // says so by name here and in `serve.open_valid`, and `compare`
    // refuses to judge its `latency_ms`. Smoke runs are too short to
    // hold the schedule.
    let problem = generator_problem(&open).filter(|_| !run.smoke);
    if let Some(problem) = &problem {
        eprintln!("bench_thor: serve-mixed: open loop invalid, {problem}");
    }
    let rejected = live.metrics.snapshot().count("serve.rejected");
    live.stop()?;
    serve_setups(
        inputs,
        &artifact,
        SETUPS_AFTER,
        false,
        &mut speed,
        &mut setup_s,
    )?;

    let attempted = closed.sent + open.sent;
    let failed = closed.failed + open.failed;
    let (metrics, mut extra) = end_to_end(run, &speed, &closed.rates, &latency_ms, &setup_s)?;
    extra.extend([
        Metric::single(OPEN_VALID, "bool", f64::from(u8::from(problem.is_none()))),
        Metric::of("serve.open_latency_ms", "ms", &open.latency_ms),
        Metric::of("serve.closed_latency_ms", "ms", &closed.latency_ms),
        Metric::single("serve.gen_late_ms", "ms", late_p99(&open)),
        Metric::single("serve.achieved_rps", "req/s", open.achieved_rps()),
        Metric::single(
            "serve.rejected_ratio",
            "ratio",
            per(rejected as f64, attempted as f64),
        ),
    ]);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        digest: catalog_digest(&cat),
        metrics,
        extra,
    })
}

/// Decode a request body the way the server does:
/// `{"documents":[{"id":…,"text":…},…]}`.
fn parse_documents(body: &[u8]) -> Result<Vec<Document>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let json = Json::parse(text)?;
    let Some(Json::Array(items)) = json.get("documents") else {
        return Err("request body has no `documents` array".into());
    };
    items
        .iter()
        .map(|item| match (item.get("id"), item.get("text")) {
            (Some(Json::Str(id)), Some(Json::Str(text))) => {
                Ok(Document::new(id.clone(), text.clone()))
            }
            _ => Err("document without string `id` and `text`".to_string()),
        })
        .collect()
}

/// One request served in-process, from the outside in: parse the head,
/// decode the body, enrich, render, frame the response. Untraced the
/// pipeline is `PreparedEngine::enrich`; traced it is the decomposed
/// layers. Returns the rendered body and the entities.
fn replay(
    t: &mut Tracer,
    traced: Option<&mut Decomposed>,
    engine: &PreparedEngine,
    cat: &Catalog,
    req: (usize, Endpoint),
    tag: &str,
) -> Result<(Vec<u8>, Vec<ExtractedEntity>), Failure> {
    let limits = HttpLimits::default();
    t.span("http.parse_head", || {
        parse_head(cat.head(req), &limits).and_then(|h| h.content_length(&limits))
    })
    .map_err(err)?;
    let docs = t.span("serve.json_parse", || parse_documents(cat.body(req)))?;
    let (table, entities) = match traced {
        None => {
            let result = engine.enrich(&docs);
            (result.table, result.entities)
        }
        Some(dec) => {
            let entities = dec.extract(t, engine, &docs);
            let table = dec.slot_fill(t, engine, &entities);
            (table, entities)
        }
    };
    let body = match req.1 {
        Endpoint::Enrich => t.span("data.write_csv", || to_csv(&table)),
        Endpoint::Extract => t.span("entity.tsv", || entities_tsv(&entities)),
    };
    t.span("data.drop_table", || drop(table));
    let mut response = Vec::new();
    let headers = [
        ("Content-Type", "text/plain".to_string()),
        ("X-Thor-Engine", tag.to_string()),
        ("X-Thor-Quarantined", "0".to_string()),
        ("X-Thor-Docs", docs.len().to_string()),
    ];
    t.span("http.write_response", || {
        write_response(&mut response, 200, &headers, body.as_bytes(), true)
    })
    .map_err(err)?;
    Ok((body.into_bytes(), entities))
}

/// Mean time of the server's pipeline call — `enrich_resilient` in
/// lenient mode — over `reqs`, in microseconds.
fn resilient_us(
    engine: &PreparedEngine,
    cat: &Catalog,
    reqs: &[(usize, Endpoint)],
) -> Result<f64, Failure> {
    let opts = ResilientOptions {
        mode: RunMode::Lenient,
        ..ResilientOptions::default()
    };
    let docs: Vec<Vec<Document>> = reqs
        .iter()
        .map(|&(doc, _)| vec![cat.docs[doc].clone()])
        .collect();
    let t0 = Instant::now();
    for batch in &docs {
        engine.enrich_resilient(batch, &opts).map_err(err)?;
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / reqs.len() as f64)
}

/// The traced run of serve-mixed: requests replayed in-process, blocks
/// of untraced and traced replays alternating until the budget is
/// spent; then a short open loop against a live server for the residual
/// (socket, admission and wake-ups) the replay cannot see.
pub fn traced(run: &Run, inputs: &Inputs, trace_path: &Path) -> Result<Outcome, Failure> {
    let artifact = inputs.path("engine.thor");
    let mut t = Tracer::new();
    t.enter("op.setup");
    let engine = setup(&mut t, inputs, &artifact)?;
    t.exit();
    let cat = Catalog::new(&engine, inputs.read_docs()?);
    // Building the catalog warmed `engine`'s phrase cache. The untraced
    // and the traced replays each run on a fresh load instead, whose
    // cache the same request sequence fills, so their ratio measures
    // only the tracer.
    let load = || PreparedEngine::load_with(&artifact, MapMode::Mapped).map_err(err);
    let (plain, cold) = (load()?, load()?);
    let tag = format!("{}@1", engine.fingerprint());
    let mut dec = Decomposed::new();
    let mut mix = Mix::new(run.seed, 0, cat.docs.len());
    let block = TRACE_BLOCK;
    let deadline = run.deadline();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = Duration::ZERO;
    while another(traced_s.len(), last, deadline) {
        let reqs: Vec<(usize, Endpoint)> = (0..block).map(|_| mix.next()).collect();
        let t0 = Instant::now();
        for &req in &reqs {
            let (body, _) = replay(&mut Tracer::off(), None, &plain, &cat, req, &tag)?;
            gate("serve-equals-batch", body == cat.expected(req), || {
                format!("replayed {} for doc {} differs", req.1.path(), req.0)
            })?;
        }
        let untraced = t0.elapsed();
        untraced_s.push(untraced.as_secs_f64());

        let before = t.wall_ns();
        for &req in &reqs {
            t.enter("op.request");
            let (body, entities) = replay(&mut t, Some(&mut dec), &cold, &cat, req, &tag)?;
            t.exit();
            decomposition_gate(&cat.entities[req.0], &entities)?;
            gate("traced-output", body == cat.expected(req), || {
                format!("traced {} for doc {} differs", req.1.path(), req.0)
            })?;
        }
        let traced = Duration::from_nanos(t.wall_ns() - before);
        traced_s.push(traced.as_secs_f64());
        last = untraced + traced;
    }
    let requests = (traced_s.len() * block) as f64;
    let first_block: Vec<(usize, Endpoint)> = {
        let mut mix = Mix::new(run.seed, 0, cat.docs.len());
        (0..block).map(|_| mix.next()).collect()
    };
    let pipeline = resilient_us(&engine, &cat, &first_block)?;

    let live = Live::start(engine.clone())?;
    let probe_len = Duration::from_secs_f64((run.seconds / 4.0).min(2.0));
    let open = open_loop(live.addr, &cat, run.seed, 0, probe_len)?;
    live.stop()?;
    let p50_us = summarize(&open.latency_ms).median * 1e3;

    let probe = Probe::run(&engine, &cat.docs);
    write_trace(&t, run, trace_path)?;
    let times = t.self_times();
    let us = |names: &[&str]| {
        let ns: u64 = names
            .iter()
            .filter_map(|n| times.get(n))
            .map(|s| s.ns)
            .sum();
        per(ns as f64 / 1e3, requests)
    };
    let parse = us(&["http.parse_head"]);
    let json = us(&["serve.json_parse"]);
    let render = us(&["data.write_csv", "entity.tsv"]);
    let write = us(&["http.write_response"]);
    Ok(Outcome {
        correct: true,
        attempted: (requests as usize + untraced_s.len() * block) as u64,
        failed: 0,
        digest: catalog_digest(&cat),
        metrics: layer_metrics(&t, &dec, &probe, &artifact, &untraced_s, &traced_s)?,
        extra: vec![
            Metric::single("http.parse_head_us", "us", parse),
            Metric::single("serve.json_parse_us", "us", json),
            Metric::single("serve.pipeline_us", "us", pipeline),
            Metric::single("serve.render_us", "us", render),
            Metric::single("http.write_response_us", "us", write),
            Metric::single(
                "serve.residual_us",
                "us",
                p50_us - (parse + json + pipeline + render + write),
            ),
        ],
    })
}
