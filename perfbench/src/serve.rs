//! The two socket workloads, `serve-session` and `serve-poll`.
//!
//! The load generator boots `ftts-serve` from `serve.toml`, drives a
//! frame plan generated from the workload seed over loopback TCP and
//! times each frame from its single write to the end of its reply line.
//! Afterwards the same frames replay in-process on a fresh
//! `ServeRuntime`: that replay is the correctness oracle (every socket
//! reply must equal its in-process reply byte for byte) and, with
//! `--trace 1`, the per-layer measurement.
//!
//! Frames on the two `serve-poll` connections run in phases separated
//! by a barrier: read phases (memo-hit `status` and `stats` polls on
//! both connections) never change server state, and each write phase
//! runs on one connection only. Every reply is therefore independent of
//! how the server interleaves the two connections, so the serial oracle
//! order is exact.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use ftts_core::{
    BatchConfig, BatchRun, EventConfig, EventServerSim, FaultPlan, TenantPolicy, TenantSpec,
    TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_serve::{parse_frame, Frame as Wire, Json, ServeConfig, ServeRuntime};
use ftts_workload::{Dataset, RequestArrival};

use crate::layers;
use crate::report::{Metrics, Outcome};
use crate::seed::SplitMix;
use crate::stats::{median, peak_rss_mib, quantile, tail_quantile, timed};

/// The deployment both serve workloads boot.
pub const CONFIG_TEXT: &str = include_str!("../serve.toml");
const CONFIG_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/serve.toml");

/// `serve-session`: submit-then-status steps per session.
const SESSION_STEPS: usize = 100;
/// Virtual seconds between consecutive session arrivals (the cadence of
/// the fault fixture, `crates/bench/benches/pr6_faults.rs`).
const ARRIVAL_CADENCE_S: f64 = 1.0;
/// `serve-poll`: requests preloaded before the polls start.
const POLL_HISTORY: usize = 100;
/// `serve-poll`: read/write phase pairs per round; with twelve, every
/// one of the seven write kinds occurs in every round.
const POLL_PHASES: usize = 12;
/// `serve-poll`: reads per connection per read phase; with these, a
/// round times at least 200 operations, enough for a p95 tail.
const POLL_READS: usize = 8;
/// `serve-poll`: one read in this many is a `stats` poll, the rest are
/// `status` polls (see `README.md`).
const STATS_ONE_IN: u64 = 5;
/// Servers booted only to sample set-up time, before the measured rounds.
const SETUP_BOOTS: usize = 15;
/// Any reply slower than this is a hung server.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

const PROBE: &str = r#"{"op":"status","id":"probe"}"#;
const STATS: &str = r#"{"op":"stats"}"#;
const SHUTDOWN: &str = r#"{"op":"shutdown"}"#;
/// SLO classes with their deadline slack, seconds: the fleet fixture's
/// (`crates/bench/benches/pr8_fleet.rs`), assigned round-robin.
const SLOS: [(&str, u64); 3] = [("interactive", 90), ("standard", 120), ("batch", 180)];

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One connection, submit-then-status steps over a growing history.
    Session,
    /// Two connections, memo-hit polls over a fixed history plus churn
    /// and structured rejects.
    Poll,
}

/// The operation a frame asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `submit`.
    Submit,
    /// `status`.
    Status,
    /// `cancel`.
    Cancel,
    /// `stats`.
    Stats,
    /// Malformed frames, unknown ops and `shutdown`.
    Other,
}

/// One generated frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The frame line, without its newline.
    pub line: String,
    /// What it asks for.
    pub op: Op,
    /// The request id it names (empty if none).
    pub id: String,
    /// Whether a timed operation starts here; following frames up to
    /// the next start belong to the same operation.
    pub op_start: bool,
}

/// Every frame of one round, in the serial order the oracle replays,
/// and how the round sends them.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Frames in oracle order: the set-up probe first, `shutdown` last.
    pub frames: Vec<Frame>,
    /// Untimed frames pipelined on connection 0 after the probe.
    pub preload: Vec<usize>,
    /// Timed phases: the frames each connection sends, closed loop,
    /// with a barrier between phases.
    pub phases: Vec<[Vec<usize>; 2]>,
    /// Untimed frames on connection 0 after the phases (the final
    /// `stats`).
    pub epilogue: Vec<usize>,
    /// Connections the phases use.
    pub connections: usize,
    /// Timed operations one round always yields.
    pub ops_per_round: usize,
}

struct Builder {
    frames: Vec<Frame>,
    rng: SplitMix,
}

impl Builder {
    fn push(&mut self, line: String, op: Op, id: &str, op_start: bool) -> usize {
        self.frames.push(Frame {
            line,
            op,
            id: id.to_string(),
            op_start,
        });
        self.frames.len() - 1
    }

    /// A `submit` of request number `n` with a seeded problem. The SLO
    /// class and dataset rotate with `n`, so every seed offers the same
    /// mix and only the problems differ. Every fourth request is
    /// MATH-500, the rest AMC-2023: the datasets the serve smoke trace
    /// (`crates/serve/ci/smoke_trace.jsonl`) gives tenants 1 and 0.
    fn submit(&mut self, id: &str, n: usize, tenant: u32, at: f64, op_start: bool) -> usize {
        let (slo, slack) = SLOS[n % SLOS.len()];
        let dataset = if n % 4 == 3 { "math500" } else { "amc2023" };
        let problem = self.rng.below(1_000_000);
        let line = format!(
            r#"{{"op":"submit","id":"{id}","tenant":{tenant},"slo":"{slo}","deadline_secs":{slack},"dataset":"{dataset}","problem_seed":{problem},"arrive_at":{at}}}"#
        );
        self.push(line, Op::Submit, id, op_start)
    }

    fn simple(&mut self, op: Op, id: &str) -> usize {
        let name = match op {
            Op::Status => "status",
            Op::Cancel => "cancel",
            _ => unreachable!("only status and cancel name a request"),
        };
        self.push(format!(r#"{{"op":"{name}","id":"{id}"}}"#), op, id, true)
    }
}

/// The frame plan of `kind` for `seed`.
pub fn plan(kind: Kind, seed: u64) -> Plan {
    let mut b = Builder {
        frames: Vec::new(),
        rng: SplitMix::new(seed, kind as u64 + 1),
    };
    b.push(PROBE.to_string(), Op::Status, "probe", false);
    let mut plan = Plan {
        frames: Vec::new(),
        preload: Vec::new(),
        phases: Vec::new(),
        epilogue: Vec::new(),
        connections: 1,
        ops_per_round: 0,
    };
    match kind {
        Kind::Session => {
            let mut steps = Vec::new();
            for i in 0..SESSION_STEPS {
                let id = format!("r{i}");
                let tenant = u32::from(i % 4 == 3);
                steps.push(b.submit(&id, i, tenant, i as f64 * ARRIVAL_CADENCE_S, true));
                let status = b.simple(Op::Status, &id);
                b.frames[status].op_start = false;
                steps.push(status);
            }
            plan.phases.push([steps, Vec::new()]);
            plan.ops_per_round = SESSION_STEPS;
        }
        Kind::Poll => {
            plan.connections = 2;
            for j in 0..POLL_HISTORY {
                let tenant = u32::from(j % 4 == 3);
                let i = b.submit(
                    &format!("r{j}"),
                    j,
                    tenant,
                    j as f64 * ARRIVAL_CADENCE_S,
                    false,
                );
                plan.preload.push(i);
            }
            plan.preload
                .push(b.push(STATS.to_string(), Op::Stats, "", false));
            let offset = b.rng.below(WRITES);
            for p in 0..POLL_PHASES {
                let mut reads = [Vec::new(), Vec::new()];
                for _ in 0..POLL_READS {
                    for conn in &mut reads {
                        conn.push(if b.rng.below(STATS_ONE_IN) == 0 {
                            b.push(STATS.to_string(), Op::Stats, "", true)
                        } else {
                            let id = format!("r{}", b.rng.below(POLL_HISTORY as u64));
                            b.simple(Op::Status, &id)
                        });
                    }
                }
                plan.phases.push(reads);
                let writer = p % 2;
                let mut writes = [Vec::new(), Vec::new()];
                writes[writer] = write_block(&mut b, (p as u64 + offset) % WRITES, p, writer);
                plan.phases.push(writes);
            }
            plan.ops_per_round = plan
                .phases
                .iter()
                .flatten()
                .flatten()
                .filter(|&&i| b.frames[i].op_start)
                .count();
        }
    }
    plan.epilogue
        .push(b.push(STATS.to_string(), Op::Stats, "", false));
    b.push(SHUTDOWN.to_string(), Op::Other, "", false);
    plan.frames = b.frames;
    plan
}

/// Kinds of `serve-poll` write block.
const WRITES: u64 = 7;

/// One `serve-poll` write block: no-op churn or a structured reject.
/// Only the writer's connection is active, so nothing observes the
/// churn's transient trace.
fn write_block(b: &mut Builder, kind: u64, phase: usize, writer: usize) -> Vec<usize> {
    let tenant = writer as u32;
    let late = (POLL_HISTORY as f64 + 1000.0 + phase as f64) * ARRIVAL_CADENCE_S;
    match kind {
        // Submit then cancel: the effective trace is unchanged.
        0 => {
            let id = format!("c{phase}");
            vec![
                b.submit(&id, phase, tenant, late, true),
                b.simple(Op::Cancel, &id),
            ]
        }
        1 => vec![b.push(r#"{"op":"submit","id":"#.to_string(), Op::Other, "", true)],
        2 => vec![b.push(r#"{"op":"ping"}"#.to_string(), Op::Other, "", true)],
        3 => vec![b.submit(&format!("u{phase}"), phase, 9, late, true)],
        // A HumanEval prompt over the configured ceiling.
        4 => {
            let mut seed = b.rng.below(1_000_000);
            while Dataset::HumanEval.problems(1, seed)[0].prompt_tokens <= 256 {
                seed += 1;
            }
            let line = format!(
                r#"{{"op":"submit","id":"o{phase}","tenant":{tenant},"slo":"batch","dataset":"humaneval","problem_seed":{seed},"arrive_at":{late}}}"#
            );
            vec![b.push(line, Op::Submit, "", true)]
        }
        5 => {
            let id = format!("r{}", b.rng.below(POLL_HISTORY as u64));
            vec![b.submit(&id, phase, tenant, late, true)]
        }
        // Tenant 2 may hold one open request: the second is refused,
        // then the first is withdrawn.
        _ => {
            let (first, second) = (format!("q{phase}"), format!("q{phase}b"));
            vec![
                b.submit(&first, phase, 2, late, true),
                b.submit(&second, phase, 2, late, true),
                b.simple(Op::Cancel, &first),
            ]
        }
    }
}

/// The server under test.
#[derive(Debug, Clone)]
pub enum Target {
    /// The `ftts-serve` binary at this path, one process per boot.
    Binary(PathBuf),
    /// `ftts_serve::net::serve` on a thread of this process (the
    /// harness self-test, which has no binary to boot).
    #[cfg(test)]
    InProcess,
}

struct Server {
    addr: SocketAddr,
    pid: u32,
    child: Option<(Child, BufReader<ChildStdout>)>,
    thread: Option<thread::JoinHandle<usize>>,
}

impl Target {
    /// Start a server and wait until it listens.
    fn boot(&self) -> Result<Server, String> {
        match self {
            Target::Binary(bin) => {
                let mut child = Command::new(bin)
                    .arg("--config")
                    .arg(CONFIG_PATH)
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
                let pid = child.id();
                let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
                let mut line = String::new();
                let listening = out.read_line(&mut line).is_ok();
                let mut server = Server {
                    addr: "127.0.0.1:0".parse().expect("placeholder address"),
                    pid,
                    child: Some((child, out)),
                    thread: None,
                };
                // On error `server` drops here, which kills the child.
                server.addr = line
                    .trim()
                    .strip_prefix("LISTENING ")
                    .and_then(|a| a.parse().ok())
                    .filter(|_| listening)
                    .ok_or_else(|| format!("ftts-serve did not report LISTENING: {line:?}"))?;
                Ok(server)
            }
            #[cfg(test)]
            Target::InProcess => {
                let config = ServeConfig::parse(CONFIG_TEXT)?;
                let listener =
                    std::net::TcpListener::bind(&config.listen).map_err(|e| e.to_string())?;
                let addr = listener.local_addr().map_err(|e| e.to_string())?;
                let runtime = std::sync::Arc::new(std::sync::Mutex::new(ServeRuntime::new(config)));
                let thread = thread::spawn(move || ftts_serve::net::serve(&listener, &runtime));
                Ok(Server {
                    addr,
                    pid: std::process::id(),
                    child: None,
                    thread: Some(thread),
                })
            }
        }
    }
}

impl Server {
    /// Wait for a clean exit after `shutdown`.
    fn finish(mut self) -> Result<(), String> {
        if let Some(t) = self.thread.take() {
            t.join().map_err(|_| "server thread panicked".to_string())?;
        }
        if let Some((mut child, _)) = self.child.take() {
            let deadline = Instant::now() + IO_TIMEOUT;
            loop {
                match child.try_wait().map_err(|e| e.to_string())? {
                    Some(status) if status.success() => return Ok(()),
                    Some(status) => return Err(format!("ftts-serve exited with {status}")),
                    None if Instant::now() > deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err("ftts-serve did not exit after shutdown".into());
                    }
                    None => thread::sleep(Duration::from_millis(1)),
                }
            }
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some((mut child, _)) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection. Each frame and its newline leave in a single
/// write with Nagle's algorithm off, so any stall measured is the
/// server's.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server hung up".into()),
            Ok(_) => Ok(line.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Send one frame and read its reply; seconds from the write to the
    /// end of the reply line.
    fn exchange(&mut self, frame: &[u8]) -> Result<(String, f64), String> {
        let t = Instant::now();
        self.send(frame)?;
        let reply = self.recv()?;
        Ok((reply, t.elapsed().as_secs_f64()))
    }
}

/// What one socket round observed.
struct Round {
    setup_s: f64,
    replies: Vec<Option<String>>,
    /// Seconds per timed frame (`None` for untimed frames).
    secs: Vec<Option<f64>>,
    phases_s: f64,
    rss_mib: f64,
}

/// Send one connection's frames, closed loop, through every phase.
fn drive(
    conn: &mut Conn,
    plan: &Plan,
    wire: &[Vec<u8>],
    c: usize,
    barrier: &Barrier,
) -> (Vec<(usize, String, f64)>, Option<String>) {
    let mut out = Vec::new();
    let mut err = None;
    for phase in &plan.phases {
        if err.is_none() {
            for &i in &phase[c] {
                match conn.exchange(&wire[i]) {
                    Ok((reply, secs)) => out.push((i, reply, secs)),
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
        }
        // Keep meeting the barrier after an error so the other
        // connection is never stranded.
        barrier.wait();
    }
    (out, err)
}

/// Boot a server and read its reply to the probe frame: the set-up
/// time, plus the probe reply and the open connection.
fn boot_probe(target: &Target, wire: &[Vec<u8>]) -> Result<(f64, String, Conn, Server), String> {
    let (booted, setup_s) = timed(|| -> Result<_, String> {
        let server = target.boot()?;
        let mut conn = Conn::open(server.addr)?;
        let (probe, _) = conn.exchange(&wire[0])?;
        Ok((probe, conn, server))
    });
    let (probe, conn, server) = booted?;
    Ok((setup_s, probe, conn, server))
}

fn shutdown(mut conn: Conn, server: Server, wire: &[Vec<u8>]) -> Result<String, String> {
    let (reply, _) = conn.exchange(wire.last().expect("shutdown frame"))?;
    drop(conn);
    server.finish()?;
    Ok(reply)
}

fn run_round(target: &Target, plan: &Plan, wire: &[Vec<u8>]) -> Result<Round, String> {
    let n = plan.frames.len();
    let mut replies: Vec<Option<String>> = vec![None; n];
    let mut secs = vec![None; n];
    let (setup_s, probe, mut c0, server) = boot_probe(target, wire)?;
    replies[0] = Some(probe);
    if !plan.preload.is_empty() {
        let batch: Vec<u8> = plan.preload.iter().flat_map(|&i| wire[i].clone()).collect();
        c0.send(&batch)?;
        for &i in &plan.preload {
            replies[i] = Some(c0.recv()?);
        }
    }
    let mut c1 = if plan.connections > 1 {
        Some(Conn::open(server.addr)?)
    } else {
        None
    };
    let barrier = Barrier::new(plan.connections);
    let start = Instant::now();
    let driven = thread::scope(|s| {
        let other = c1
            .as_mut()
            .map(|c| s.spawn(|| drive(c, plan, wire, 1, &barrier)));
        let mine = drive(&mut c0, plan, wire, 0, &barrier);
        let theirs = other.map(|h| h.join().expect("connection thread"));
        [Some(mine), theirs]
    });
    let phases_s = start.elapsed().as_secs_f64();
    for (out, err) in driven.into_iter().flatten() {
        if let Some(e) = err {
            return Err(e);
        }
        for (i, reply, s) in out {
            replies[i] = Some(reply);
            secs[i] = Some(s);
        }
    }
    for &i in &plan.epilogue {
        replies[i] = Some(c0.exchange(&wire[i])?.0);
    }
    let rss_mib = peak_rss_mib(server.pid)?;
    drop(c1);
    replies[n - 1] = Some(shutdown(c0, server, wire)?);
    Ok(Round {
        setup_s,
        replies,
        secs,
        phases_s,
        rss_mib,
    })
}

/// The in-process replay of a plan on a fresh runtime.
struct Replay {
    replies: Vec<String>,
    handle_s: Vec<f64>,
    parse_s: Vec<f64>,
    missed: Vec<bool>,
    /// Active (accepted, not cancelled) requests when each frame ran.
    active: Vec<usize>,
    replays: u64,
    /// Frame indices of the submits still active at the end.
    final_active: Vec<usize>,
}

fn replay(plan: &Plan) -> Result<Replay, String> {
    let mut rt = ServeRuntime::new(ServeConfig::parse(CONFIG_TEXT)?);
    let n = plan.frames.len();
    let mut r = Replay {
        replies: Vec::with_capacity(n),
        handle_s: Vec::with_capacity(n),
        parse_s: Vec::with_capacity(n),
        missed: Vec::with_capacity(n),
        active: Vec::with_capacity(n),
        replays: 0,
        final_active: Vec::new(),
    };
    // Accepted submissions by id, in acceptance order.
    let mut live: Vec<(String, usize)> = Vec::new();
    for (i, f) in plan.frames.iter().enumerate() {
        let t = Instant::now();
        let _ = std::hint::black_box(parse_frame(std::hint::black_box(&f.line)));
        r.parse_s.push(t.elapsed().as_secs_f64());
        let before = rt.replays();
        let t = Instant::now();
        let h = rt.handle_line(&f.line);
        r.handle_s.push(t.elapsed().as_secs_f64());
        r.missed.push(rt.replays() > before);
        let ok = h.reply.starts_with(r#"{"ok":true"#);
        match f.op {
            Op::Submit if ok => live.push((f.id.clone(), i)),
            Op::Cancel if ok => live.retain(|(id, _)| *id != f.id),
            _ => {}
        }
        r.active.push(live.len());
        r.replies.push(h.reply);
    }
    r.replays = rt.replays();
    r.final_active = live.into_iter().map(|(_, i)| i).collect();
    Ok(r)
}

/// The final `stats` reply's virtual-time results: deadline-hit rate
/// weighted by tenant request count, stream goodput summed over
/// tenants, and the worst tenant p99 latency.
fn vt_from_stats(reply: &str) -> Result<(f64, f64, f64), String> {
    let json = Json::parse(reply)?;
    let Some(Json::Array(rows)) = json.at("tenants") else {
        return Err(format!("stats reply has no tenants: {reply}"));
    };
    let (mut requests, mut hits, mut goodput, mut p99) = (0.0, 0.0, 0.0, 0.0f64);
    for row in rows {
        let get = |k: &str| {
            row.number_at(k)
                .ok_or_else(|| format!("tenant row lacks {k}"))
        };
        requests += get("requests")?;
        hits += get("requests")? * get("deadline_hit_rate")?;
        goodput += get("stream_goodput")?;
        p99 = p99.max(get("p99_latency_secs")?);
    }
    Ok((goodput, hits / requests.max(1.0), p99))
}

/// Run a serve workload for at least `seconds` of measured rounds.
///
/// # Errors
///
/// Fails when the server cannot be booted or driven, or a reply is
/// missing: the run produces no result then.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    target: &Target,
) -> Result<(Outcome, Metrics, Vec<String>), String> {
    let plan = plan(kind, seed);
    let wire: Vec<Vec<u8>> = plan
        .frames
        .iter()
        .map(|f| format!("{}\n", f.line).into_bytes())
        .collect();

    let mut setups = Vec::new();
    let mut boot_replies = Vec::new();
    for _ in 0..SETUP_BOOTS {
        let (setup_s, probe, conn, server) = boot_probe(target, &wire)?;
        setups.push(setup_s);
        boot_replies.push((probe, shutdown(conn, server, &wire)?));
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = Vec::new();
    loop {
        rounds.push(run_round(target, &plan, &wire)?);
        if Instant::now() >= deadline {
            break;
        }
    }
    setups.extend(rounds.iter().map(|r| r.setup_s));

    let oracle = replay(&plan)?;
    let mut outcome = Outcome::default();
    let shutdown_reply = oracle.replies.last().expect("shutdown reply");
    for (probe, reply) in &boot_replies {
        outcome.check(*probe == oracle.replies[0] && reply == shutdown_reply);
    }
    for round in &rounds {
        for (got, want) in round.replies.iter().zip(&oracle.replies) {
            outcome.check(got.as_deref() == Some(want.as_str()));
        }
    }

    // One sample per timed operation: a frame, or a session's
    // submit-then-status step.
    let mut ops = Vec::new();
    for round in &rounds {
        for c in 0..plan.connections {
            for phase in &plan.phases {
                for &i in &phase[c] {
                    let s = round.secs[i].expect("timed frame") * 1e3;
                    if plan.frames[i].op_start {
                        ops.push(s);
                    } else {
                        *ops.last_mut().expect("an operation is open") += s;
                    }
                }
            }
        }
    }
    let tail_q = tail_quantile(plan.ops_per_round);
    let phases_s: f64 = rounds.iter().map(|r| r.phases_s).sum();
    let final_stats = &oracle.replies[plan.epilogue[0]];
    let (goodput, hit_rate, p99) = vt_from_stats(final_stats)?;

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("op_p50_ms", median(&ops));
    m.set("op_tail_ms", quantile(&ops, tail_q));
    m.set("ops_per_s", ops.len() as f64 / phases_s);
    m.set(
        "peak_rss_mb",
        median(&rounds.iter().map(|r| r.rss_mib).collect::<Vec<_>>()),
    );
    m.set("vt_goodput_tok_s", goodput);
    m.set("vt_deadline_hit_rate", hit_rate);
    m.set("vt_latency_p99_s", p99);

    let mut info = vec![format!(
        "closed loop, {} connection(s), {} rounds, {} ops ({} per round), tail = p{}, {} set-up samples, socket time {:.1} ms",
        plan.connections,
        rounds.len(),
        ops.len(),
        plan.ops_per_round,
        tail_q * 100.0,
        setups.len(),
        phases_s * 1e3
    )];
    if trace {
        layer_metrics(
            &plan,
            &oracle,
            &rounds,
            final_stats,
            &mut m,
            &mut outcome,
            &mut info,
        )?;
    }
    m.set("failed_frac", outcome.failed_frac());
    Ok((outcome, m, info))
}

/// The per-layer metrics of a serve workload, from the in-process
/// replay and the socket rounds.
fn layer_metrics(
    plan: &Plan,
    oracle: &Replay,
    rounds: &[Round],
    final_stats: &str,
    m: &mut Metrics,
    outcome: &mut Outcome,
    info: &mut Vec<String>,
) -> Result<(), String> {
    let us = |v: &[f64]| median(v) * 1e6;
    let timed: BTreeSet<usize> = plan.phases.iter().flatten().flatten().copied().collect();

    let mut overhead = Vec::new();
    for round in rounds {
        for &i in &timed {
            let s = round.secs[i].expect("timed frame");
            overhead.push((s - oracle.handle_s[i]) * 1e6);
        }
    }
    m.set("net.overhead_p50_us", median(&overhead));
    m.set(
        "net.overhead_tail_us",
        quantile(&overhead, tail_quantile(timed.len())),
    );

    // Protocol and runtime: every frame after the probe, up to the
    // final stats.
    let body = 1..plan.frames.len() - 1;
    let parse: Vec<f64> = body.clone().map(|i| oracle.parse_s[i]).collect();
    m.set("protocol.parse_p50_us", us(&parse));
    let code = |i: usize| -> Option<String> {
        Json::parse(&oracle.replies[i])
            .ok()
            .and_then(|j| j.str_at("error").map(str::to_string))
    };
    let codes: Vec<String> = body.clone().filter_map(code).collect();
    m.set("protocol.rejects", codes.len() as f64);
    let refusals = codes
        .iter()
        .filter(|c| ["unknown_tenant", "oversized_prompt", "quota_exhausted"].contains(&c.as_str()))
        .count();
    m.set("tenant.refusals", refusals as f64);

    let of = |op: Op, missed: Option<bool>| -> Vec<f64> {
        body.clone()
            .filter(|&i| plan.frames[i].op == op && missed.is_none_or(|x| oracle.missed[i] == x))
            .map(|i| oracle.handle_s[i])
            .collect()
    };
    m.set("runtime.submit_p50_us", us(&of(Op::Submit, None)));
    m.set(
        "runtime.status_hit_p50_us",
        us(&of(Op::Status, Some(false))),
    );
    m.set(
        "runtime.status_miss_p50_ms",
        median(&of(Op::Status, Some(true))) * 1e3,
    );
    m.set("runtime.stats_p50_us", us(&of(Op::Stats, None)));
    m.set("runtime.cancel_p50_us", us(&of(Op::Cancel, None)));
    m.set("runtime.replays", oracle.replays as f64);
    let queries: Vec<usize> = body
        .clone()
        .filter(|&i| matches!(plan.frames[i].op, Op::Status | Op::Stats))
        .collect();
    let misses: Vec<usize> = queries
        .iter()
        .copied()
        .filter(|&i| oracle.missed[i])
        .collect();
    m.set(
        "runtime.memo_hit_ratio",
        1.0 - misses.len() as f64 / queries.len().max(1) as f64,
    );
    let miss_ms: f64 = misses.iter().map(|&i| oracle.handle_s[i] * 1e3).sum();
    let miss_reqs: usize = misses.iter().map(|&i| oracle.active[i]).sum();
    m.set("runtime.miss_ms_per_req", miss_ms / miss_reqs.max(1) as f64);

    // The scheduler, built exactly as the runtime builds it, over the
    // final active trace.
    let config = ServeConfig::parse(CONFIG_TEXT)?;
    if config.devices != 1 || config.storm.is_some() {
        return Err("the traced run replicates the single-device, storm-free runtime".into());
    }
    let mut arrivals: Vec<(f64, usize, RequestArrival)> = Vec::new();
    for &i in &oracle.final_active {
        let Ok(Wire::Submit(s)) = parse_frame(&plan.frames[i].line) else {
            return Err(format!("frame {i} is not a submit"));
        };
        let problem = s.dataset.problems(1, s.problem_seed)[0];
        arrivals.push((
            s.arrive_at,
            i,
            RequestArrival {
                at: s.arrive_at,
                problem,
                slo: s.slo,
                deadline: s.arrive_at + s.deadline_secs,
                tenant: s.tenant,
            },
        ));
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let arrivals: Vec<RequestArrival> = arrivals.into_iter().map(|(_, _, a)| a).collect();
    let server = {
        let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        s.config_mut().seed = config.seed;
        s.config_mut().memory_fraction = config.memory_fraction;
        s
    };
    let pool = server.config().kv_budget_bytes();
    let specs: Vec<TenantSpec> = config
        .tenants
        .iter()
        .map(|t| TenantSpec {
            id: t.id,
            weight: t.weight,
            kv_cap_bytes: if t.kv_cap_frac <= 0.0 {
                u64::MAX
            } else {
                ((pool as f64 * t.kv_cap_frac) as u64).max(1)
            },
            max_in_flight: t.max_in_flight,
        })
        .collect();
    let batch = BatchConfig::fused(config.max_batch).with_tenants(TenantPolicy::new(&specs));
    let sim = EventServerSim::new(
        server.clone(),
        config.n_beams,
        SearchKind::BeamSearch,
        EventConfig::new(batch, config.window_secs),
    );
    let mut times = Vec::new();
    let mut run: Option<BatchRun> = None;
    for _ in 0..3 {
        let t = Instant::now();
        let r = sim
            .run_faulted(&arrivals, &FaultPlan::none())
            .map_err(|e| format!("scheduler run: {e:?}"))?;
        times.push(t.elapsed().as_secs_f64());
        run = Some(r);
    }
    let run = run.expect("three runs");
    let run_s = median(&times);
    m.set("sched.run_ms", run_s * 1e3);
    m.set(
        "sched.sim_tok_per_s",
        layers::sim_tokens(&run.served) as f64 / run_s,
    );
    layers::run_counters(&[&run], &run.served, m);
    for name in [
        "fleet.run_ms",
        "fleet.resim_factor",
        "fleet.migrations",
        "fleet.hedges_launched",
        "fleet.hedges_wasted",
        "fleet.warm_hits",
    ] {
        m.set(name, 0.0);
    }

    // The replica must reproduce the server's own per-tenant totals.
    let tagged: Vec<_> = arrivals
        .iter()
        .zip(&run.served)
        .map(|(a, r)| (a.tenant, layers::record(r)))
        .collect();
    let rollup = ftts_metrics::TenantRollup::of(&tagged);
    let json = Json::parse(final_stats)?;
    let rows = match json.at("tenants") {
        Some(Json::Array(rows)) => rows.clone(),
        _ => Vec::new(),
    };
    let same = rows.len() == rollup.len()
        && rows.iter().zip(&rollup).all(|(row, r)| {
            row.number_at("requests") == Some(r.requests as f64)
                && row.number_at("accepted_tokens") == Some(r.summary.total_accepted_tokens as f64)
        });
    outcome.check(same);
    m.set("metrics.rollup_p50_us", layers::rollup_p50_us(&tagged));

    let us_per_ktok = layers::engine_us_per_ktok(&server, &arrivals, config.n_beams)?;
    m.set("engine.us_per_ktok", us_per_ktok);

    let traced: f64 = oracle.handle_s.iter().sum::<f64>() * 1e3;
    let socket: f64 = rounds
        .iter()
        .map(|r| r.secs.iter().flatten().sum::<f64>())
        .sum::<f64>()
        * 1e3
        / rounds.len() as f64;
    info.push(format!(
        "traced in-process total {traced:.1} ms vs untraced socket total {socket:.1} ms per round; reject codes {codes:?}"
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_function_of_the_seed() {
        for kind in [Kind::Session, Kind::Poll] {
            assert_eq!(plan(kind, 5), plan(kind, 5));
            assert_ne!(plan(kind, 5), plan(kind, 6));
        }
    }

    #[test]
    fn poll_writes_stay_on_one_connection() {
        let p = plan(Kind::Poll, 3);
        for phase in &p.phases {
            let writes = |c: usize| {
                phase[c]
                    .iter()
                    .any(|&i| !matches!(p.frames[i].op, Op::Status | Op::Stats))
            };
            assert!(!writes(0) || phase[1].is_empty());
            assert!(!writes(1) || phase[0].is_empty());
        }
    }
}
