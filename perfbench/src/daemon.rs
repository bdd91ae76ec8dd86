//! The two `sbitmapd` workloads.
//!
//! * `backbone-ingest` — one durable primary (journal on), two agents in
//!   a closed loop shipping pre-generated v3 delta rounds. The window
//!   spans every epoch, so no frame can expire however the two agents
//!   race, and each pass ships more frames than `snapshot_every`, so the
//!   snapshot path runs.
//! * `replicated-query` — an in-memory primary with one attached
//!   standby. One agent ships at a fixed frame rate, open loop, at a
//!   fixed share of the pair's measured capacity, so it works under real
//!   load and a much slower collector shows in the throughput. Epochs
//!   outrun the window, so ring rotation and clear-on-expire run; a
//!   single agent keeps frames in order.
//!
//! After the last ack of a pass, a closed-loop client reads the idle
//! collector with the query mix, one session per query. Traced
//! `replicated-query` runs add passes in which that client reads while
//! the agent ships, for the cost of reads and writes to each other.
//!
//! Every pass starts fresh collectors and replays the same frames, and
//! must drain to estimates bit-identical to the in-process pipeline.

use std::cell::RefCell;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbitmap_core::journal::{self, JournalConfig, JournalRecord, JournalWriter};
use sbitmap_core::{FleetDeltaFrame, RateSchedule, WindowedFleet};
use sbitmap_daemon::{
    query_once, run_agent_rounds, AgentConfig, AgentReport, Daemon, DaemonConfig, DaemonReport,
};
use sbitmap_hash::rng::{Rng, Xoshiro256StarStar};
use sbitmap_stream::net::{
    encode, ConfigEcho, FrameReader, Message, QueryReply, QueryRequest, ReadEvent, Role,
    PROTO_VERSION,
};
use sbitmap_stream::{
    quantile_summary, run_windowed_pipeline, DeltaFrameSource, EpochFrames, WindowedPipelineConfig,
};

use crate::stats;
use crate::tap::{match_frames, Event, Log, Pacer, SharedLog, Tap};
use crate::{E2e, Layers, Outcome, RunArgs};

/// Shape of one daemon workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    links: usize,
    agents: usize,
    window: usize,
    epochs: usize,
    rounds: usize,
    durable: bool,
    standby: bool,
    /// Open-loop frame rate; `None` runs the agents closed loop.
    frame_rate: Option<f64>,
    /// Closed-loop queries after the last ack.
    idle_queries: usize,
}

/// 2 agents × 12 epochs × 96 rounds = 2304 frames a pass, past the
/// default `snapshot_every` of 1024.
pub const BACKBONE: Shape = Shape {
    links: 300,
    agents: 2,
    window: 12,
    epochs: 12,
    rounds: 96,
    durable: true,
    standby: false,
    frame_rate: None,
    idle_queries: 40,
};

/// The repository's default windowed pipeline
/// (`WindowedPipelineConfig::default`: 150 links, n_max = 1.5M,
/// m = 8000, a window of 8) run for 16 epochs of 64 rounds: 1024 frames
/// a pass, offered at [`OFFERED_LOAD`] of the pair's capacity. The
/// paper's own cadence, one sketch per link per five minutes, is under
/// 1 frame/s: too little to load a collector, so the frame rate comes
/// from measured capacity instead. 64 reads a pass give a 40 s run well
/// over the 1000 read samples a p99 needs.
pub const REPLICATED: Shape = Shape {
    links: 150,
    agents: 1,
    window: 8,
    epochs: 16,
    rounds: 64,
    durable: false,
    standby: true,
    frame_rate: Some(OFFERED_LOAD * FRAME_CAPACITY),
    idle_queries: 64,
};

/// Share of the capacity the open-loop agent offers: the collector
/// works under real load with room for the host's stalls, and
/// throughput falls below the offered rate once it runs twice as slow.
const OFFERED_LOAD: f64 = 0.5;
/// Frames per second one agent gets acked by a primary with one
/// attached standby, in the `replicated-query` shape, at the low end of
/// what a shared 2-vCPU Xeon host gave: 2120–2460 while other tenants
/// took a quarter of its CPU time, 6360–6810 while it was quiet. Offered
/// half the quiet figure, every run in a busy spell saturated and its
/// write p50 went from 0.2 ms to 34–75 ms; the low end keeps the one
/// fixed workload short of saturation in both states.
const FRAME_CAPACITY: f64 = 2100.0;
/// Queries generated per run. Idle reads take the first
/// `idle_queries`; a client reading beside the agent cycles through
/// them (it gets ~190 answered a second, about 200 a pass).
const QUERY_MIX_LEN: usize = 256;

const N_MAX: u64 = 1_500_000;
const M_BITS: usize = 8_000;
const QUERY_DEADLINE: Duration = Duration::from_secs(2);
/// Stop-and-wait passes a traced closed-loop run adds for
/// `server.residual_us_per_frame`.
const RESIDUAL_PASSES: usize = 3;
/// Passes a traced open-loop run adds with reads beside the agent, for
/// the `contention.*` metrics.
const CONTENTION_PASSES: usize = 6;

impl Shape {
    fn pipeline(&self, seed: u64) -> WindowedPipelineConfig {
        WindowedPipelineConfig {
            links: self.links,
            shards: self.agents,
            n_max: N_MAX,
            m_bits: M_BITS,
            window: self.window,
            epochs: self.epochs,
            rounds: self.rounds,
            seed,
        }
    }
}

/// What the drained collector must hold.
#[derive(Clone)]
struct Reference {
    estimates: Vec<(u64, f64)>,
    quantiles: Vec<(f64, f64)>,
}

fn same_estimates(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn same_quantiles(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

/// The correctness gate for one drained collector.
fn check_report(what: &str, report: &DaemonReport, want: &Reference) -> Result<(), String> {
    if !same_estimates(&report.estimates, &want.estimates) {
        return Err(format!(
            "{what}: drained estimates differ from run_windowed_pipeline"
        ));
    }
    let mut values: Vec<f64> = report.estimates.iter().map(|&(_, e)| e).collect();
    if !same_quantiles(&quantile_summary(&mut values), &want.quantiles) {
        return Err(format!(
            "{what}: quantile summary differs from run_windowed_pipeline"
        ));
    }
    if report.expired != 0 || report.duplicates != 0 {
        return Err(format!(
            "{what}: {} expired and {} duplicate frames (must both be 0)",
            report.expired, report.duplicates
        ));
    }
    Ok(())
}

/// The query mix: TopK(10), Summary and a point estimate in turn, one
/// for each answer the paper's backbone study reads — the heaviest
/// links, the quantile summary over links, one link's count. No query
/// trace weights them, so each gets an equal share.
///
/// Reads are closed loop: the client opens the next session as soon as
/// the last one is answered, as a monitoring client polling the
/// collector would. An open-loop client at a fixed rate was tried
/// first: its arrivals fall at random points of the collector's 5 ms
/// accept poll, so each read waited 0–5 ms, and with that much spread
/// the median moved with the host's load by up to a quarter between
/// runs of the same code. Reads beside the agent were dropped from the
/// bounded metrics because they make the writes follow the host: with
/// two top-priority threads taking 3 ms of every ~18 ms on both cores,
/// the write p50 rose by 11–450% over fifteen paired runs with either
/// client reading beside the agent, and by 2–12% over three with the
/// reads after the last ack.
fn query_mix(seed: u64, n: usize, links: usize) -> Vec<QueryRequest> {
    let mut rng = Xoshiro256StarStar::new(seed ^ 0x9e_e7);
    (0..n)
        .map(|i| match i % 3 {
            0 => QueryRequest::TopK(10),
            1 => QueryRequest::Summary,
            _ => QueryRequest::Estimate(rng.next_u64() % links as u64),
        })
        .collect()
}

fn kind_of(req: &QueryRequest) -> usize {
    match req {
        QueryRequest::TopK(_) => 0,
        QueryRequest::Summary => 1,
        _ => 2,
    }
}

/// One query session's timings.
#[derive(Debug, Default, Clone, Copy)]
struct QueryTiming {
    /// From its start to the reply.
    total_us: f64,
    /// Connect → `Welcome` (traced runs only).
    connect_us: f64,
    /// `Query` → `Reply` (traced runs only).
    reply_us: f64,
}

/// Run one query in its own session, as `sbitmap query` does.
fn one_query(addr: SocketAddr, req: &QueryRequest, trace: bool) -> Result<QueryTiming, String> {
    let start = Instant::now();
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let timeout = Some(Duration::from_millis(20));
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    let log = SharedLog::default();
    let reply = if trace {
        let tap = Tap::new(stream, timeout, log.clone(), None).map_err(|e| e.to_string())?;
        query_once(tap, req, QUERY_DEADLINE)
    } else {
        query_once(stream, req, QUERY_DEADLINE)
    }?;
    let done = Instant::now();
    let ok = match (req, &reply) {
        (QueryRequest::TopK(k), Message::Reply(QueryReply::TopK(rows))) => rows.len() as u64 <= *k,
        (QueryRequest::Summary, Message::Reply(QueryReply::Summary { .. }))
        | (QueryRequest::Estimate(_), Message::Reply(QueryReply::Estimate(_))) => true,
        _ => false,
    };
    if !ok {
        return Err(format!("unexpected answer to {req:?}: {reply:?}"));
    }
    let mut t = QueryTiming {
        total_us: (done - start).as_secs_f64() * 1e6,
        ..QueryTiming::default()
    };
    if trace {
        let at = |want: Event| {
            log.lock()
                .map_err(|_| "query log poisoned".to_string())?
                .events
                .iter()
                .find(|(_, e)| *e == want)
                .map(|&(at, _)| at)
                .ok_or_else(|| format!("traced query saw no {want:?}"))
        };
        t.connect_us = (at(Event::Welcome)? - start).as_secs_f64() * 1e6;
        t.reply_us = (at(Event::Reply)? - at(Event::Query)?).as_secs_f64() * 1e6;
    }
    Ok(t)
}

/// Per-pass results, pooled across passes.
#[derive(Default)]
struct Pool {
    e2e: E2e,
    attempted: u64,
    failed: u64,
    connect_us: Vec<f64>,
    reply_us: [Vec<f64>; 3],
    start_ms: Vec<f64>,
    attach_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    session_s: Vec<f64>,
    write_block_us: Vec<f64>,
    late_max_ms: f64,
    lag_max: u64,
    retransmits: u64,
    busy_backoffs: u64,
    backpressure: u64,
    busy_rejections: u64,
    snapshots: u64,
    frames: u64,
    wire_bytes: u64,
    /// Frames acked, and the sum over agents of each one's first write
    /// → last ack span.
    frames_acked: u64,
    agent_span_s: f64,
}

/// A directory inside the working tree for journals, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        let dir = Path::new(".perfbench_tmp").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no other run uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

fn primary_config(shape: &Shape, seed: u64, data_dir: Option<PathBuf>) -> DaemonConfig {
    DaemonConfig {
        n_max: N_MAX,
        m_bits: M_BITS,
        seed,
        window: shape.window,
        data_dir,
        ..DaemonConfig::default()
    }
}

/// How a pass runs its agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agents {
    /// All at once, with the collector's default credits.
    Concurrent,
    /// One after another with one credit, so the collector holds one
    /// frame at a time: each frame's stages run back to back, as in
    /// the one-thread stage replay.
    StopAndWait,
}

/// When a pass reads the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reads {
    /// `idle_queries` closed-loop reads after the last ack.
    Idle,
    /// Closed-loop reads while the agents ship, and none after.
    Busy,
}

/// One long-lived query session for `Status` polls. A fresh session per
/// poll would wait out the accept loop's 5 ms poll each time, and the
/// attach wait would race the standby's own accept on the same tick.
struct StatusSession(FrameReader<TcpStream>);

impl StatusSession {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| e.to_string())?;
        let mut session = Self(FrameReader::new(stream));
        session.send(&Message::Hello {
            proto: PROTO_VERSION,
            role: Role::Query,
            agent: 0,
            config: ConfigEcho {
                n_max: 0,
                m: 0,
                sampling_bits: 0,
                seed: 0,
                window: 0,
                term: 0,
            },
        })?;
        match session.next()? {
            Message::Welcome { .. } => Ok(session),
            other => Err(format!("status session refused: {other:?}")),
        }
    }

    fn send(&mut self, msg: &Message) -> Result<(), String> {
        self.0
            .inner_mut()
            .write_all(&encode(msg))
            .map_err(|e| e.to_string())
    }

    fn next(&mut self) -> Result<Message, String> {
        let deadline = Instant::now() + QUERY_DEADLINE;
        loop {
            match self.0.read_event() {
                Ok(ReadEvent::Message(msg)) => return Ok(msg),
                Ok(ReadEvent::TimedOut) if Instant::now() < deadline => {}
                other => return Err(format!("status session: {other:?}")),
            }
        }
    }

    /// `(absorbed, replicated, peers)` from the collector's `Status`.
    fn status(&mut self) -> Result<(u64, u64, u64), String> {
        self.send(&Message::Query(QueryRequest::Status))?;
        match self.next()? {
            Message::Reply(QueryReply::Status {
                absorbed,
                replicated,
                peers,
                ..
            }) => Ok((absorbed, replicated, peers)),
            other => Err(format!("unexpected status answer: {other:?}")),
        }
    }
}

impl Drop for StatusSession {
    fn drop(&mut self) {
        let _ = self.send(&Message::Goodbye);
    }
}

fn wait_for_standby(primary: &Daemon) -> Result<(), String> {
    let mut session = StatusSession::open(primary.query_addr())?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if session.status()?.2 >= 1 {
            return Ok(());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Err("standby failed to attach within 5 s".into())
}

/// What one agent thread hands back.
struct AgentRun {
    report: AgentReport,
    log: Log,
    session_s: f64,
    late_max: Duration,
}

fn run_agent(
    shard: usize,
    backlog: Vec<EpochFrames>,
    addr: SocketAddr,
    echo: ConfigEcho,
    frame_rate: Option<f64>,
) -> Result<AgentRun, String> {
    let dcfg = DaemonConfig::default();
    let acfg = AgentConfig::new(shard as u64 + 1, echo);
    let log = SharedLog::default();
    let pacer = frame_rate.map(|r| Rc::new(RefCell::new(Pacer::new(r))));
    let t = Instant::now();
    let report = run_agent_rounds(&acfg, backlog, |_attempt| {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(dcfg.read_deadline))?;
        stream.set_write_timeout(Some(dcfg.write_deadline))?;
        Tap::new(stream, Some(dcfg.read_deadline), log.clone(), pacer.clone())
    })?;
    let session_s = t.elapsed().as_secs_f64();
    let late_max = pacer.map_or(Duration::ZERO, |p| p.borrow().late_max);
    let log = std::mem::take(&mut *log.lock().map_err(|_| "agent log poisoned")?);
    Ok(AgentRun {
        report,
        log,
        session_s,
        late_max,
    })
}

/// One pass: fresh collector(s), every frame shipped and acked, reads,
/// drain, and the correctness gate.
#[allow(clippy::too_many_arguments)]
fn one_pass(
    shape: &Shape,
    args: &RunArgs,
    agents: Agents,
    reads: Reads,
    frames: &[Vec<EpochFrames>],
    queries: &[QueryRequest],
    want: &Reference,
    pool: &mut Pool,
    tmp: &TempDir,
) -> Result<(), String> {
    let data_dir = shape.durable.then(|| tmp.0.join("journal"));
    if let Some(dir) = &data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let backlogs: Vec<Vec<EpochFrames>> = frames.to_vec();

    // --- setup: everything before the first frame ---
    let t = Instant::now();
    let primary = Daemon::start(DaemonConfig {
        credits: match agents {
            Agents::Concurrent => DaemonConfig::default().credits,
            Agents::StopAndWait => 1,
        },
        ..primary_config(shape, args.seed, data_dir)
    })?;
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let standby = if shape.standby {
        let t = Instant::now();
        let standby = Daemon::start(DaemonConfig {
            standby_of: Some(primary.ingest_addr().to_string()),
            ..primary_config(shape, args.seed, None)
        })?;
        wait_for_standby(&primary)?;
        pool.attach_ms.push(t.elapsed().as_secs_f64() * 1e3);
        Some(standby)
    } else {
        None
    };
    pool.e2e.setup_s.push(t.elapsed().as_secs_f64());
    pool.start_ms.push(start_ms);

    let (echo, ingest, query_addr) = (
        primary.config_echo(),
        primary.ingest_addr(),
        primary.query_addr(),
    );
    let trace = args.trace;
    let ingest_done = AtomicBool::new(false);
    let (runs, query_results, lag_max) = std::thread::scope(|s| {
        let join = |a: std::thread::ScopedJoinHandle<'_, Result<AgentRun, String>>| {
            a.join().map_err(|_| "agent thread panicked".to_string())?
        };
        let mut runs = Vec::new();
        let mut running = Vec::new();
        for (shard, backlog) in backlogs.into_iter().enumerate() {
            let agent = s.spawn(move || run_agent(shard, backlog, ingest, echo, shape.frame_rate));
            match agents {
                Agents::Concurrent => running.push(agent),
                Agents::StopAndWait => runs.push(join(agent)),
            }
        }
        let ingest_done = &ingest_done;
        let client = (reads == Reads::Busy).then(|| {
            s.spawn(move || {
                let mut out = Vec::new();
                for req in queries.iter().cycle() {
                    if ingest_done.load(Ordering::Relaxed) {
                        break;
                    }
                    out.push((kind_of(req), one_query(query_addr, req, trace)));
                }
                out
            })
        });
        // Traced runs sample replication lag while the agents run.
        let mut lag_max = 0u64;
        if trace && shape.standby {
            let mut session = StatusSession::open(query_addr)?;
            while !running.iter().all(|a| a.is_finished()) {
                let (absorbed, replicated, _) = session.status()?;
                lag_max = lag_max.max(absorbed.saturating_sub(replicated));
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        runs.extend(running.into_iter().map(join));
        ingest_done.store(true, Ordering::Relaxed);
        let client = client
            .map(|c| c.join().map_err(|_| "query thread panicked".to_string()))
            .transpose();
        Ok::<_, String>((runs, client, lag_max))
    })?;
    pool.lag_max = pool.lag_max.max(lag_max);

    // Reads of the idle collector, closed loop, before the drain.
    let mut query_results = query_results?;
    if reads == Reads::Idle && shape.idle_queries > 0 {
        let out = queries[..shape.idle_queries]
            .iter()
            .map(|req| (kind_of(req), one_query(query_addr, req, trace)))
            .collect();
        query_results = Some(out);
    }

    let t = Instant::now();
    primary.drain();
    let report = primary.join()?;
    let standby_report = match standby {
        Some(sb) => {
            sb.drain();
            Some(sb.join()?)
        }
        None => None,
    };
    pool.drain_ms.push(t.elapsed().as_secs_f64() * 1e3);

    // --- outcomes and the correctness gate ---
    let mut first_write: Option<Instant> = None;
    let mut last_ack: Option<Instant> = None;
    let mut frames_acked = 0u64;
    for run in runs {
        let run = run?;
        let m = match_frames(&run.log.events);
        let r = &run.report;
        if r.duplicates != 0 || r.stale_acks != 0 || m.unacked != 0 || run.log.corrupt != 0 {
            return Err(format!(
                "agent saw {} duplicate acks, {} stale acks, {} unacked frames, {} undecodable frames",
                r.duplicates, r.stale_acks, m.unacked, run.log.corrupt
            ));
        }
        frames_acked += m.latencies_us.len() as u64;
        pool.attempted += m.latencies_us.len() as u64;
        if let (Some(a), Some(b)) = (m.first_write, m.last_ack) {
            pool.agent_span_s += (b - a).as_secs_f64();
        }
        pool.failed += r.retransmits + r.error_frames_seen;
        pool.retransmits += r.retransmits;
        pool.busy_backoffs += r.busy_backoffs;
        pool.wire_bytes += r.bytes_on_wire;
        pool.frames += r.frames_sent;
        pool.session_s.push(run.session_s);
        pool.write_block_us
            .push(run.log.write_block.as_secs_f64() * 1e6 / run.log.writes.max(1) as f64);
        pool.late_max_ms = pool.late_max_ms.max(run.late_max.as_secs_f64() * 1e3);
        pool.e2e.writes_us.extend(m.latencies_us);
        first_write = match (first_write, m.first_write) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        last_ack = last_ack.max(m.last_ack);
    }
    if let (Some(a), Some(b)) = (first_write, last_ack) {
        pool.e2e
            .throughput
            .push(frames_acked as f64 / (b - a).as_secs_f64());
    }
    pool.frames_acked += frames_acked;
    if let Some(results) = query_results {
        for (kind, r) in results {
            pool.attempted += 1;
            match r {
                Ok(t) => {
                    pool.e2e.reads_us.push(t.total_us);
                    if trace {
                        pool.connect_us.push(t.connect_us);
                        pool.reply_us[kind].push(t.reply_us);
                    }
                }
                Err(_) => pool.failed += 1,
            }
        }
    }
    pool.backpressure += report.backpressure_events;
    pool.busy_rejections += report.busy_rejections;
    pool.snapshots += report.snapshots;
    check_report("primary", &report, want)?;
    let shipped: usize = frames.iter().flatten().map(|ef| ef.deltas.len()).sum();
    if shape.durable
        && shipped as u64 > DaemonConfig::default().snapshot_every
        && report.snapshots == 0
    {
        return Err("the pass took no journal snapshot".into());
    }
    if let Some(sb) = standby_report {
        if !same_estimates(&sb.estimates, &report.estimates) {
            return Err("standby estimates differ from the primary's".into());
        }
    }
    Ok(())
}

/// Per-stage replay of the collector's work over the same frames, in
/// process and on one thread: decode, ring absorb, journal encode and
/// append (the durable primary's path), or the standby's record replay.
struct Stages {
    decode_us: f64,
    absorb_us: f64,
    encode_us: f64,
    append_us: f64,
    replay_us: f64,
}

fn replay_stages(
    shape: &Shape,
    seed: u64,
    frames: &[Vec<EpochFrames>],
    want: &Reference,
    tmp: &TempDir,
) -> Result<Stages, String> {
    let schedule = Arc::new(RateSchedule::from_memory(N_MAX, M_BITS).map_err(|e| e.to_string())?);
    let jcfg = JournalConfig {
        n_max: N_MAX,
        m: M_BITS as u64,
        sampling_bits: schedule.split().sampling_bits(),
        seed,
        window: shape.window as u64,
    };
    let mut ring: WindowedFleet =
        WindowedFleet::with_schedule(schedule.clone(), seed, shape.window)
            .map_err(|e| e.to_string())?;
    let mut standby: WindowedFleet =
        WindowedFleet::with_schedule(schedule, seed, shape.window).map_err(|e| e.to_string())?;
    let dir = tmp.0.join("replay");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut writer = JournalWriter::create(&dir, &jcfg, 1, 1, false).map_err(|e| e.to_string())?;

    let mut order: Vec<(u64, usize, u32, &Vec<u8>)> = Vec::new();
    for (shard, epochs) in frames.iter().enumerate() {
        for ef in epochs {
            order.extend(
                (0u32..)
                    .zip(&ef.deltas)
                    .map(|(r, b)| (ef.epoch, shard, r, b)),
            );
        }
    }
    order.sort_unstable_by_key(|&(epoch, shard, round, _)| (epoch, shard, round));
    let mut sum = [Duration::ZERO; 5];
    for &(epoch, shard, _, bytes) in &order {
        let source = shard as u64 + 1;
        let t = Instant::now();
        let frame = FleetDeltaFrame::decode(bytes).map_err(|e| e.to_string())?;
        sum[0] += t.elapsed();
        let t = Instant::now();
        if epoch > ring.current_epoch() {
            ring.advance_to(epoch).map_err(|e| e.to_string())?;
        }
        ring.absorb_delta_from(source, &frame)
            .map_err(|e| e.to_string())?;
        sum[1] += t.elapsed();
        let t = Instant::now();
        let record = journal::encode_record(&JournalRecord {
            source,
            epoch,
            payload: bytes.clone(),
        });
        sum[2] += t.elapsed();
        let t = Instant::now();
        writer.append_bytes(&record).map_err(|e| e.to_string())?;
        sum[3] += t.elapsed();
        let t = Instant::now();
        let rec = journal::decode_record(&record).map_err(|e| e.to_string())?;
        let frame = FleetDeltaFrame::decode(&rec.payload).map_err(|e| e.to_string())?;
        if rec.epoch > standby.current_epoch() {
            standby.advance_to(rec.epoch).map_err(|e| e.to_string())?;
        }
        standby
            .absorb_delta_replay(rec.source, &frame)
            .map_err(|e| e.to_string())?;
        sum[4] += t.elapsed();
    }
    for (what, fleet) in [("stage replay", &ring), ("standby replay", &standby)] {
        if !same_estimates(&fleet.estimates(), &want.estimates) {
            return Err(format!(
                "{what} estimates differ from run_windowed_pipeline"
            ));
        }
    }
    let per = |d: Duration| d.as_secs_f64() * 1e6 / order.len() as f64;
    Ok(Stages {
        decode_us: per(sum[0]),
        absorb_us: per(sum[1]),
        encode_us: per(sum[2]),
        append_us: per(sum[3]),
        replay_us: per(sum[4]),
    })
}

/// Every agent's backlog of v3 delta rounds, built before any timing.
/// Of each epoch's full checkpoints only the last is kept: it is the
/// agent's fallback for a v2-only collector, which never runs here.
fn generate(shape: &Shape, seed: u64) -> Result<Vec<Vec<EpochFrames>>, String> {
    let pcfg = shape.pipeline(seed);
    (0..shape.agents)
        .map(|shard| {
            let mut source = DeltaFrameSource::new(&pcfg, shard)?;
            let mut backlog = Vec::with_capacity(shape.epochs);
            while let Some(mut ef) = source.next_frames() {
                ef.fulls.drain(..ef.fulls.len().saturating_sub(1));
                backlog.push(ef);
            }
            Ok(backlog)
        })
        .collect()
}

/// The in-process pipeline's answer for the same configuration.
fn reference(shape: &Shape, seed: u64) -> Result<Reference, String> {
    let summary = run_windowed_pipeline(&shape.pipeline(seed))?;
    Ok(Reference {
        estimates: summary
            .links
            .iter()
            .map(|r| (r.link as u64, r.estimate))
            .collect(),
        quantiles: summary.estimate_quantiles,
    })
}

pub fn run(shape: &Shape, args: &RunArgs) -> Result<Outcome, String> {
    let t = Instant::now();
    let frames = generate(shape, args.seed)?;
    let queries = query_mix(args.seed, QUERY_MIX_LEN, shape.links);
    let gen_s = t.elapsed().as_secs_f64();
    let want = reference(shape, args.seed)?;

    let tmp = TempDir::new(if shape.durable {
        "backbone"
    } else {
        "replicated"
    })?;
    let mut pool = Pool::default();
    let start = Instant::now();
    while !args.done(start, pool.e2e.writes_us.len().min(pool.e2e.reads_us.len())) {
        one_pass(
            shape,
            args,
            Agents::Concurrent,
            Reads::Idle,
            &frames,
            &queries,
            &want,
            &mut pool,
            &tmp,
        )?;
    }

    let mut layers = Layers::default();
    if args.trace {
        let st = replay_stages(shape, args.seed, &frames, &want, &tmp)?;
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
        let mut set = |k: &'static str, v: f64| layers.0.push((k, v));
        set("codec.decode_us_per_frame", st.decode_us);
        set("window.absorb_us_per_frame", st.absorb_us);
        if shape.durable {
            set("journal.encode_us_per_frame", st.encode_us);
            set("journal.append_us_per_frame", st.append_us);
            set("journal.snapshots", pool.snapshots as f64);
        }
        if shape.frame_rate.is_none() {
            // The time per acked frame the in-process stages do not
            // account for — framing, queue hand-offs, wake-ups and the
            // ack write — on the stage replay's basis: stop-and-wait
            // passes, one frame in the collector at a time.
            let mut serial = Pool::default();
            for _ in 0..RESIDUAL_PASSES {
                one_pass(
                    shape,
                    args,
                    Agents::StopAndWait,
                    Reads::Idle,
                    &frames,
                    &queries,
                    &want,
                    &mut serial,
                    &tmp,
                )?;
            }
            let stages = st.decode_us + st.absorb_us + st.encode_us + st.append_us;
            set(
                "server.residual_us_per_frame",
                serial.agent_span_s * 1e6 / serial.frames_acked as f64 - stages,
            );
        }
        if shape.frame_rate.is_some() {
            // Reads and writes at once: what each costs the other.
            let mut busy = Pool::default();
            for _ in 0..CONTENTION_PASSES {
                one_pass(
                    shape,
                    args,
                    Agents::Concurrent,
                    Reads::Busy,
                    &frames,
                    &queries,
                    &want,
                    &mut busy,
                    &tmp,
                )?;
            }
            let p50 = |what, v: &[f64]| stats::quantile(what, v, 0.5);
            set(
                "contention.write_p50_us",
                p50("contended writes", &busy.e2e.writes_us)?,
            );
            set(
                "contention.read_p50_us",
                p50("contended reads", &busy.e2e.reads_us)?,
            );
        }
        if shape.standby {
            set("window.replay_us_per_record", st.replay_us);
            set("replica.lag_max", pool.lag_max as f64);
            set("replica.attach_ms", med(&pool.attach_ms));
        }
        set("query.connect_us", med(&pool.connect_us));
        set("query.reply_us.topk", med(&pool.reply_us[0]));
        set("query.reply_us.summary", med(&pool.reply_us[1]));
        set("query.reply_us.estimate", med(&pool.reply_us[2]));
        set("net.write_block_us", med(&pool.write_block_us));
        set(
            "net.wire_bytes_per_frame",
            pool.wire_bytes as f64 / pool.frames as f64,
        );
        set("agent.session_s", med(&pool.session_s));
        set("agent.retransmits", pool.retransmits as f64);
        set("agent.busy_backoffs", pool.busy_backoffs as f64);
        set("server.backpressure_events", pool.backpressure as f64);
        set("server.busy_rejections", pool.busy_rejections as f64);
        set("server.drain_ms", med(&pool.drain_ms));
        set("server.start_ms", med(&pool.start_ms));
        set("loadgen.gen_s", gen_s);
        set("loadgen.late_max_ms", pool.late_max_ms);
    }
    Ok(Outcome {
        attempted: pool.attempted,
        failed: pool.failed,
        e2e: pool.e2e,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass small enough for a unit test, with every daemon path on:
    /// journal, standby, ring rotation (3 epochs over a 2-epoch window).
    const TINY: Shape = Shape {
        links: 6,
        agents: 1,
        window: 2,
        epochs: 3,
        rounds: 2,
        durable: true,
        standby: true,
        frame_rate: None,
        idle_queries: 0,
    };

    #[test]
    fn gate_accepts_the_reference_and_refuses_a_one_ulp_mismatch() {
        let seed = 7;
        let frames = generate(&TINY, seed).unwrap();
        let want = reference(&TINY, seed).unwrap();
        let mut bad = want.clone();
        bad.estimates[0].1 = f64::from_bits(bad.estimates[0].1.to_bits() + 1);
        let tmp = TempDir::new("gate-test").unwrap();
        let args = RunArgs {
            seed,
            seconds: Duration::ZERO,
            trace: false,
        };
        let pass = |agents, want: &Reference, pool: &mut Pool| {
            one_pass(
                &TINY,
                &args,
                agents,
                Reads::Idle,
                &frames,
                &[],
                want,
                pool,
                &tmp,
            )
        };
        let mut pool = Pool::default();
        pass(Agents::Concurrent, &want, &mut pool).unwrap();
        pass(Agents::StopAndWait, &want, &mut pool).unwrap();
        assert_eq!(
            pool.e2e.writes_us.len(),
            12,
            "2 passes × 3 epochs × 2 rounds acked"
        );
        assert_eq!(pool.frames_acked, 12);
        assert!(pool.agent_span_s > 0.0);
        assert_eq!(pool.failed, 0);
        let err = pass(Agents::Concurrent, &bad, &mut pool).unwrap_err();
        assert!(err.contains("drained estimates differ"), "{err}");

        replay_stages(&TINY, seed, &frames, &want, &tmp).unwrap();
        let err = replay_stages(&TINY, seed, &frames, &bad, &tmp)
            .err()
            .unwrap();
        assert!(err.contains("stage replay estimates differ"), "{err}");
    }

    #[test]
    fn quantile_gate_is_bit_exact() {
        let a = [(0.5, 100.0), (0.9, 250.0)];
        let mut b = a;
        assert!(same_quantiles(&a, &b));
        b[1].1 = f64::from_bits(b[1].1.to_bits() + 1);
        assert!(!same_quantiles(&a, &b));
    }
}
