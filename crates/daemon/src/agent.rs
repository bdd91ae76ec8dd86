//! The node agent: ships one shard's epoch frames to the collector,
//! surviving cuts, stalls, corruption and restarts.
//!
//! Delivery contract — **at-least-once, resume from last ack**: a frame
//! leaves the agent's `pending` set only when the collector acks its
//! epoch, so a connection lost mid-flight simply means the next session
//! retransmits whatever is still pending. The collector's per-source
//! absorb guard (and the OR-idempotence of sketch union beneath it)
//! turns every replay into a no-op, which is what makes at-least-once
//! equivalent to exactly-once for this state.
//!
//! The agent is deliberately single-threaded: one stream, writes
//! interleaved with reads through [`FrameReader::inner_mut`], a credit
//! window from the handshake bounding unacked frames. Reconnection uses
//! capped exponential backoff with deterministic seeded jitter so a
//! fleet of agents restarting together does not stampede the collector
//! in lockstep — and so every test run backs off identically.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use sbitmap_hash::mix64;
use sbitmap_stream::net::{
    encode, AckOutcome, ConfigEcho, ErrorCode, FrameReader, Message, QueryRequest, ReadEvent, Role,
    PROTO_VERSION,
};
use sbitmap_stream::{EpochFrames, FaultPlan, FaultyStream};

/// Capped exponential backoff with deterministic jitter.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// First retry delay.
    pub base: Duration,
    /// Upper bound on any delay.
    pub cap: Duration,
    /// Jitter seed; two agents with different seeds spread out, the
    /// same seed replays the same schedule.
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(200),
            seed: 0x0b_ac_0f_f5,
        }
    }
}

impl Backoff {
    /// The delay before retry number `attempt` (0-based): `base · 2^n`
    /// capped at `cap`, scaled by a jitter fraction in `[0.5, 1.0]`
    /// derived from the seed — deterministic per `(seed, attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
            .min(self.cap);
        let r = mix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // 53 high bits → uniform fraction in [0, 1), mapped to [0.5, 1.0).
        let frac = 0.5 + (r >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        exp.mul_f64(frac)
    }
}

/// Configuration of one agent run.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Stable identity; drives the collector's at-least-once guard, so
    /// it must survive reconnects (and restarts, if frames could be
    /// replayed across them).
    pub agent_id: u64,
    /// The sketch configuration the collector must echo.
    pub config: ConfigEcho,
    /// Local backlog bound: while disconnected the agent keeps at most
    /// this many unacked frames, dropping the **oldest** beyond it
    /// (oldest epochs expire from the collector's window first anyway).
    pub buffer_cap: usize,
    /// Give up after this many connection attempts.
    pub max_attempts: u32,
    /// Reconnect pacing.
    pub backoff: Backoff,
    /// A session with no ack (or other progress) for this long is torn
    /// down and retried.
    pub ack_timeout: Duration,
    /// Fault injection plan (clean by default); see
    /// [`sbitmap_stream::fault`].
    pub plan: FaultPlan,
}

impl AgentConfig {
    /// An agent with production-shaped defaults for the given identity
    /// and config echo.
    pub fn new(agent_id: u64, config: ConfigEcho) -> Self {
        Self {
            agent_id,
            config,
            buffer_cap: usize::MAX,
            max_attempts: 24,
            backoff: Backoff {
                seed: mix64(agent_id ^ 0xa6e7),
                ..Backoff::default()
            },
            ack_timeout: Duration::from_secs(2),
            plan: FaultPlan::none(),
        }
    }
}

/// What one [`run_agent`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentReport {
    /// Frames acknowledged (any outcome) and removed from pending.
    pub frames_acked: u64,
    /// Acks that came back [`AckOutcome::Duplicate`] — replays the
    /// collector's guard skipped.
    pub duplicates: u64,
    /// Targeted same-session retransmits after a `BadFrame` error.
    pub retransmits: u64,
    /// Connection attempts that reached an established stream.
    pub connections: u64,
    /// Frames dropped to honor [`AgentConfig::buffer_cap`].
    pub dropped: u64,
    /// Typed error frames received from the collector.
    pub error_frames_seen: u64,
    /// `Batch`/`BatchDelta` frames written to the stream, retransmits
    /// and replays included.
    pub frames_sent: u64,
    /// Sketch-payload bytes written to the stream across all sends —
    /// the agent-side view of the wire cost the v3 encoding shrinks.
    pub bytes_on_wire: u64,
    /// Epochs re-sent from their round-0 baseline after the collector
    /// answered [`ErrorCode::MissingBaseline`].
    pub baseline_resyncs: u64,
    /// Sessions backed off after the collector shed a frame with
    /// [`ErrorCode::Busy`] (the agent slept the advertised retry-after
    /// hint, then reconnected and retransmitted).
    pub busy_backoffs: u64,
    /// Acks discarded because they carried a fencing term older than
    /// one this agent had already seen — answers from a deposed
    /// primary; their frames stay pending and are retransmitted to the
    /// new one.
    pub stale_acks: u64,
    /// Times the agent rotated to the next collector address (connect
    /// failure, [`ErrorCode::NotPrimary`], or a stale-term welcome).
    pub failovers: u64,
}

/// One unacked wire frame: a full v2 epoch checkpoint (`round: None`,
/// sent as [`Message::Batch`]) or one round of a v3 delta chain
/// (`round: Some(r)`, sent as [`Message::BatchDelta`]).
#[derive(Debug, Clone)]
struct WireItem {
    epoch: u64,
    round: Option<u32>,
    bytes: Vec<u8>,
}

/// How one session ended, from the outer retry loop's point of view.
enum SessionEnd {
    /// All pending frames acked; stop.
    Done,
    /// Transient trouble; back off and reconnect.
    Retry,
    /// This collector cannot take writes (standby, or fenced behind a
    /// newer term): back off and try the *next* configured address.
    RetryRotate,
    /// The collector rejected us in a way retrying cannot fix.
    Fatal(String),
}

/// Ship `frames` (`(epoch, tag-9 fleet checkpoint)` pairs) to the
/// collector, reconnecting through `connect` until every frame is acked
/// or the attempt budget is exhausted.
///
/// `connect` is called with the 0-based attempt number and returns a
/// fresh duplex stream (a `TcpStream` in production; anything
/// `Read + Write` in tests). The connector should set a read timeout —
/// the agent relies on periodic read timeouts to notice a dead or
/// stalled collector via [`AgentConfig::ack_timeout`].
///
/// # Errors
///
/// Exhausting [`AgentConfig::max_attempts`], or a fatal handshake
/// rejection (version/config mismatch).
pub fn run_agent<S, C>(
    cfg: &AgentConfig,
    frames: Vec<(u64, Vec<u8>)>,
    connect: C,
) -> Result<AgentReport, String>
where
    S: Read + Write,
    C: FnMut(u32) -> io::Result<S>,
{
    let items = frames
        .into_iter()
        .map(|(epoch, bytes)| WireItem {
            epoch,
            round: None,
            bytes,
        })
        .collect();
    let mut connect = connect;
    run_items(cfg, items, &HashMap::new(), |a, _| connect(a))
}

/// Flatten a delta backlog into wire items (every epoch's round chain,
/// in order) plus each epoch's round-0 baseline, kept for
/// [`ErrorCode::MissingBaseline`] resyncs.
fn delta_items(backlog: Vec<EpochFrames>) -> (Vec<WireItem>, HashMap<u64, Vec<u8>>) {
    let mut items = Vec::new();
    let mut baselines = HashMap::new();
    for ef in backlog {
        if let Some(first) = ef.deltas.first() {
            baselines.insert(ef.epoch, first.clone());
        }
        for (round, bytes) in ef.deltas.into_iter().enumerate() {
            items.push(WireItem {
                epoch: ef.epoch,
                round: Some(round as u32),
                bytes,
            });
        }
    }
    (items, baselines)
}

/// Ship a v3 delta backlog — each epoch's round chain from
/// [`sbitmap_stream::DeltaFrameSource`] — reconnecting until every round
/// is acked or the attempt budget is exhausted.
///
/// Per-shard baseline tracking lives here: the agent keeps every
/// epoch's round-0 baseline (even after it is acked) so a collector
/// answering [`ErrorCode::MissingBaseline`] — restart, expiry race, or
/// a reordered chain head — gets the epoch re-sent from its baseline,
/// and at-least-once delivery stays correct because replayed rounds
/// come back as guard duplicates.
///
/// # Errors
///
/// Exhausting [`AgentConfig::max_attempts`], or a fatal handshake
/// rejection (version/config mismatch).
pub fn run_agent_rounds<S, C>(
    cfg: &AgentConfig,
    backlog: Vec<EpochFrames>,
    connect: C,
) -> Result<AgentReport, String>
where
    S: Read + Write,
    C: FnMut(u32) -> io::Result<S>,
{
    let (items, baselines) = delta_items(backlog);
    let mut connect = connect;
    run_items(cfg, items, &baselines, |a, _| connect(a))
}

/// Ship a v3 delta backlog to a **replicated collector fleet**: an
/// ordered address list (primary first, standbys after). The agent
/// dials the first address, and rotates to the next on connection
/// refusal/timeout, on a typed [`ErrorCode::NotPrimary`] answer, or on
/// a welcome carrying an older fencing term than one already seen —
/// the failover path after a primary dies and a standby is promoted.
///
/// Term tracking makes the rotation safe against split-brain: the agent
/// remembers the highest term any collector welcomed it with, refuses
/// to absorb acks from a lower one (the frames stay pending and are
/// retransmitted to the new primary, where the seen-guard keeps
/// absorption exactly-once-effective), and presents that term in its
/// hello so a deposed primary fences itself.
///
/// # Errors
///
/// An empty address list, exhausting [`AgentConfig::max_attempts`], or
/// a fatal handshake rejection (version/config mismatch).
pub fn run_agent_rounds_failover(
    cfg: &AgentConfig,
    backlog: Vec<EpochFrames>,
    addrs: &[String],
    connect_timeout: Duration,
    read_deadline: Duration,
) -> Result<AgentReport, String> {
    if addrs.is_empty() {
        return Err(format!("agent {} has no collector addresses", cfg.agent_id));
    }
    let (items, baselines) = delta_items(backlog);
    let current = Cell::new(0usize);
    let rotations = Cell::new(0u64);
    let rotate = || {
        current.set((current.get() + 1) % addrs.len());
        rotations.set(rotations.get() + 1);
    };
    let connect = |_attempt: u32, rotate_first: bool| -> io::Result<TcpStream> {
        if rotate_first {
            rotate();
        }
        let addr = &addrs[current.get()];
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
        match TcpStream::connect_timeout(&sock, connect_timeout) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(read_deadline));
                let _ = stream.set_write_timeout(Some(connect_timeout));
                Ok(stream)
            }
            Err(e) => {
                // A dead or refusing host: aim the next attempt at the
                // next address in the list.
                rotate();
                Err(e)
            }
        }
    };
    let mut report = run_items(cfg, items, &baselines, connect)?;
    report.failovers = rotations.get();
    Ok(report)
}

/// The shared retry loop beneath [`run_agent`], [`run_agent_rounds`]
/// and [`run_agent_rounds_failover`]. `connect` receives the attempt
/// number and whether the previous session asked to rotate to the next
/// collector address (always `false` for the single-address entry
/// points, which ignore it).
fn run_items<S, C>(
    cfg: &AgentConfig,
    items: Vec<WireItem>,
    baselines: &HashMap<u64, Vec<u8>>,
    mut connect: C,
) -> Result<AgentReport, String>
where
    S: Read + Write,
    C: FnMut(u32, bool) -> io::Result<S>,
{
    let mut report = AgentReport::default();
    let mut pending = items;
    let mut attempt: u32 = 0;
    // The highest fencing term any collector has welcomed us with —
    // survives reconnects, so acks from a deposed primary are
    // recognizably stale.
    let mut term_seen: u64 = cfg.config.term;
    let mut rotate_next = false;
    while !pending.is_empty() {
        if attempt >= cfg.max_attempts {
            return Err(format!(
                "agent {} gave up after {} attempts with {} frames unacked",
                cfg.agent_id,
                attempt,
                pending.len()
            ));
        }
        if attempt > 0 {
            std::thread::sleep(cfg.backoff.delay(attempt - 1));
            // While disconnected the local backlog is bounded: shed the
            // oldest epochs first — they are the ones the collector's
            // window will expire first anyway.
            if pending.len() > cfg.buffer_cap {
                let shed = pending.len() - cfg.buffer_cap;
                pending.drain(..shed);
                report.dropped += shed as u64;
            }
        }
        let byte_plan = cfg.plan.for_attempt(attempt);
        attempt += 1;
        let want_rotate = std::mem::take(&mut rotate_next);
        let stream = match connect(attempt - 1, want_rotate) {
            Ok(s) => s,
            Err(_) => continue,
        };
        report.connections += 1;
        let stream = FaultyStream::new(stream, &byte_plan);
        match session(
            cfg,
            &byte_plan,
            &mut pending,
            baselines,
            stream,
            &mut report,
            &mut term_seen,
        ) {
            SessionEnd::Done => break,
            SessionEnd::Retry => {}
            SessionEnd::RetryRotate => rotate_next = true,
            SessionEnd::Fatal(e) => return Err(e),
        }
    }
    Ok(report)
}

/// Convenience for monitoring clients: open a query session over
/// `stream`, send one request, and return the raw reply message.
///
/// # Errors
///
/// Handshake rejection, transport failure, or a non-reply answer.
pub fn query_once<S: Read + Write>(
    stream: S,
    request: &QueryRequest,
    deadline: Duration,
) -> Result<Message, String> {
    let mut reader = FrameReader::new(stream);
    let hello = Message::Hello {
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
    };
    send(&mut reader, &hello).map_err(|e| format!("query hello: {e}"))?;
    let start = Instant::now();
    loop {
        match reader.read_event() {
            Ok(ReadEvent::Message(Message::Welcome { .. })) => break,
            Ok(ReadEvent::Message(Message::Error { code, detail, .. })) => {
                return Err(format!("query handshake rejected ({code:?}): {detail}"));
            }
            Ok(ReadEvent::TimedOut) if start.elapsed() < deadline => {}
            other => return Err(format!("query handshake: unexpected {other:?}")),
        }
    }
    send(&mut reader, &Message::Query(request.clone())).map_err(|e| format!("query send: {e}"))?;
    let start = Instant::now();
    loop {
        match reader.read_event() {
            Ok(ReadEvent::Message(msg @ (Message::Reply(_) | Message::Error { .. }))) => {
                let _ = send(&mut reader, &Message::Goodbye);
                return Ok(msg);
            }
            Ok(ReadEvent::TimedOut) if start.elapsed() < deadline => {}
            other => return Err(format!("query reply: unexpected {other:?}")),
        }
    }
}

/// Write one message through the reader's underlying stream (the agent
/// is single-threaded, so reads and writes interleave on one handle).
fn send<S: Read + Write>(reader: &mut FrameReader<S>, msg: &Message) -> io::Result<()> {
    let bytes = encode(msg);
    reader.inner_mut().write_all(&bytes)?;
    reader.inner_mut().flush()
}

/// One connection's worth of work: handshake, then send pending frames
/// under the credit window and process acks until pending drains or the
/// session dies.
fn session<S: Read + Write>(
    cfg: &AgentConfig,
    plan: &FaultPlan,
    pending: &mut Vec<WireItem>,
    baselines: &HashMap<u64, Vec<u8>>,
    stream: FaultyStream<S>,
    report: &mut AgentReport,
    term_seen: &mut u64,
) -> SessionEnd {
    let mut reader = FrameReader::new(stream);
    // The hello presents the highest term we have seen: a deposed
    // primary that missed its own fencing recognizes it and refuses.
    let hello = Message::Hello {
        proto: PROTO_VERSION,
        role: Role::Ingest,
        agent: cfg.agent_id,
        config: cfg.config.with_term(*term_seen),
    };
    if send(&mut reader, &hello).is_err() {
        return SessionEnd::Retry;
    }
    let mut last_progress = Instant::now();
    let credits = loop {
        match reader.read_event() {
            Ok(ReadEvent::Message(Message::Welcome {
                credits,
                proto,
                config,
            })) => {
                if config.term < *term_seen {
                    // A welcome from a term the fleet has moved past: a
                    // stale primary that failed to fence itself. Never
                    // write to it — rotate to the next address.
                    return SessionEnd::RetryRotate;
                }
                if proto < PROTO_VERSION {
                    return SessionEnd::Fatal(format!(
                        "collector welcomed agent {} at protocol {proto}, below {PROTO_VERSION}",
                        cfg.agent_id
                    ));
                }
                *term_seen = config.term;
                break (credits.max(1)) as usize;
            }
            Ok(ReadEvent::Message(Message::Error { code, detail, .. })) => {
                report.error_frames_seen += 1;
                match code {
                    ErrorCode::VersionMismatch | ErrorCode::ConfigMismatch => {
                        return SessionEnd::Fatal(format!(
                            "collector rejected handshake ({code:?}): {detail}"
                        ));
                    }
                    // A standby (or a fenced ex-primary): writes only
                    // land on the acting primary, so try the next
                    // address in the list.
                    ErrorCode::NotPrimary => return SessionEnd::RetryRotate,
                    _ => return SessionEnd::Retry,
                }
            }
            Ok(ReadEvent::TimedOut) => {
                if last_progress.elapsed() >= cfg.ack_timeout {
                    return SessionEnd::Retry;
                }
            }
            Ok(ReadEvent::Message(_)) | Ok(ReadEvent::Corrupt(_)) | Ok(ReadEvent::Closed) => {
                return SessionEnd::Retry;
            }
            Err(_) => return SessionEnd::Retry,
        }
    };

    // The send queue for this session: the pending frames, mangled by
    // the plan's frame-level faults (reorder first, then duplication).
    let mut queue: Vec<WireItem> = pending.clone();
    if let Some(k) = plan.swap_every {
        let k = k.max(2) as usize;
        let mut i = k - 1;
        while i < queue.len() {
            queue.swap(i - 1, i);
            i += k;
        }
    }
    if let Some(k) = plan.duplicate_every {
        let k = k.max(1) as usize;
        let mut mangled = Vec::with_capacity(queue.len() * 2);
        for (i, item) in queue.into_iter().enumerate() {
            let dup = (i + 1) % k == 0;
            if dup {
                mangled.push(item.clone());
            }
            mangled.push(item);
        }
        queue = mangled;
    }

    let mut next = 0usize; // next queue slot to send
    let mut in_flight = 0usize;
    // Bound same-session retransmission so a frame the collector keeps
    // rejecting cannot ping-pong forever; past the cap we reconnect and
    // let `max_attempts` own the give-up decision.
    let mut retransmit_budget = 4 + 2 * pending.len();
    last_progress = Instant::now();
    loop {
        while in_flight < credits && next < queue.len() {
            let item = &queue[next];
            let batch = match item.round {
                None => Message::Batch {
                    epoch: item.epoch,
                    agent: cfg.agent_id,
                    frame: item.bytes.clone(),
                },
                Some(round) => Message::BatchDelta {
                    epoch: item.epoch,
                    round,
                    agent: cfg.agent_id,
                    frame: item.bytes.clone(),
                },
            };
            report.frames_sent += 1;
            report.bytes_on_wire += item.bytes.len() as u64;
            if send(&mut reader, &batch).is_err() {
                return SessionEnd::Retry;
            }
            next += 1;
            in_flight += 1;
        }
        if pending.is_empty() {
            let _ = send(&mut reader, &Message::Goodbye);
            return SessionEnd::Done;
        }
        match reader.read_event() {
            Ok(ReadEvent::Message(Message::Ack {
                epoch,
                outcome,
                term,
            })) => {
                last_progress = Instant::now();
                in_flight = in_flight.saturating_sub(1);
                if term < *term_seen {
                    // An ack stamped with a fenced term: a deposed
                    // primary answering after the fleet moved on. The
                    // frame stays pending — it will be retransmitted to
                    // the real primary, where the seen-guard keeps the
                    // replay exactly-once-effective.
                    report.stale_acks += 1;
                    continue;
                }
                *term_seen = term.max(*term_seen);
                if outcome == AckOutcome::Duplicate {
                    report.duplicates += 1;
                }
                if let Some(pos) = pending
                    .iter()
                    .position(|i| i.round.is_none() && i.epoch == epoch)
                {
                    pending.remove(pos);
                    report.frames_acked += 1;
                }
            }
            Ok(ReadEvent::Message(Message::AckDelta {
                epoch,
                round,
                outcome,
                term,
            })) => {
                last_progress = Instant::now();
                in_flight = in_flight.saturating_sub(1);
                if term < *term_seen {
                    report.stale_acks += 1;
                    continue;
                }
                *term_seen = term.max(*term_seen);
                if outcome == AckOutcome::Duplicate {
                    report.duplicates += 1;
                }
                if let Some(pos) = pending
                    .iter()
                    .position(|i| i.round == Some(round) && i.epoch == epoch)
                {
                    pending.remove(pos);
                    report.frames_acked += 1;
                }
            }
            Ok(ReadEvent::Message(Message::Error {
                code: ErrorCode::BadFrame,
                context,
                ..
            })) => {
                // The collector kept the connection; retransmit the
                // named epoch in-session when we can identify it. A
                // corrupt frame the collector could not decode arrives
                // as context 0 — its epoch never gets acked, so the
                // ack timeout below forces a reconnect that resends it.
                report.error_frames_seen += 1;
                in_flight = in_flight.saturating_sub(1);
                let hits: Vec<WireItem> = pending
                    .iter()
                    .filter(|i| i.epoch == context)
                    .cloned()
                    .collect();
                for item in hits {
                    if retransmit_budget == 0 {
                        return SessionEnd::Retry;
                    }
                    retransmit_budget -= 1;
                    report.retransmits += 1;
                    queue.push(item);
                }
            }
            Ok(ReadEvent::Message(Message::Error {
                code: ErrorCode::MissingBaseline,
                context,
                ..
            })) => {
                // A delta round arrived before its epoch's baseline was
                // absorbed (chain head reordered away, collector
                // restarted, or the epoch's guard state expired).
                // Resync: replay the retained round-0 baseline, then
                // every still-pending round of that epoch. Replays the
                // collector already absorbed come back as duplicates.
                report.error_frames_seen += 1;
                in_flight = in_flight.saturating_sub(1);
                let Some(baseline) = baselines.get(&context) else {
                    return SessionEnd::Retry;
                };
                if retransmit_budget == 0 {
                    return SessionEnd::Retry;
                }
                retransmit_budget -= 1;
                report.baseline_resyncs += 1;
                queue.push(WireItem {
                    epoch: context,
                    round: Some(0),
                    bytes: baseline.clone(),
                });
                let rounds: Vec<WireItem> = pending
                    .iter()
                    .filter(|i| i.epoch == context && i.round.is_some_and(|r| r > 0))
                    .cloned()
                    .collect();
                for item in rounds {
                    if retransmit_budget == 0 {
                        return SessionEnd::Retry;
                    }
                    retransmit_budget -= 1;
                    report.retransmits += 1;
                    queue.push(item);
                }
            }
            Ok(ReadEvent::Message(Message::Error {
                code: ErrorCode::Busy,
                context,
                ..
            })) => {
                // The collector shed a frame under overload: it was
                // dropped unacked. Sleep the advertised retry-after
                // hint (capped — the hint is advisory, not a command),
                // then resync with a fresh session; everything still
                // pending is retransmitted and replays land as guard
                // duplicates.
                report.error_frames_seen += 1;
                report.busy_backoffs += 1;
                std::thread::sleep(Duration::from_millis(context.min(1_000)));
                return SessionEnd::Retry;
            }
            Ok(ReadEvent::Message(Message::Error { code, detail, .. })) => {
                report.error_frames_seen += 1;
                match code {
                    ErrorCode::VersionMismatch
                    | ErrorCode::ConfigMismatch
                    | ErrorCode::EpochOutOfRange => {
                        return SessionEnd::Fatal(format!(
                            "collector rejected session ({code:?}): {detail}"
                        ));
                    }
                    ErrorCode::NotPrimary => return SessionEnd::RetryRotate,
                    _ => return SessionEnd::Retry,
                }
            }
            Ok(ReadEvent::Message(Message::Goodbye)) | Ok(ReadEvent::Closed) => {
                return SessionEnd::Retry;
            }
            Ok(ReadEvent::Message(_)) | Ok(ReadEvent::Corrupt(_)) => {
                // An undecodable or unexpected inbound frame: we cannot
                // tell what it acked, so resync with a fresh session.
                return SessionEnd::Retry;
            }
            Ok(ReadEvent::TimedOut) => {
                if last_progress.elapsed() >= cfg.ack_timeout {
                    return SessionEnd::Retry;
                }
            }
            Err(_) => return SessionEnd::Retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let b = Backoff {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
            seed: 7,
        };
        let delays: Vec<Duration> = (0..8).map(|a| b.delay(a)).collect();
        assert_eq!(delays, (0..8).map(|a| b.delay(a)).collect::<Vec<_>>());
        for (i, d) in delays.iter().enumerate() {
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << i.min(20))
                .min(Duration::from_millis(80));
            assert!(
                *d >= exp / 2 && *d <= exp,
                "delay {i} = {d:?} vs cap {exp:?}"
            );
        }
        // Different seeds give different jitter somewhere in the run.
        let other = Backoff {
            seed: 8,
            ..b.clone()
        };
        assert!((0..8).any(|a| b.delay(a) != other.delay(a)));
    }

    #[test]
    fn agent_gives_up_after_max_attempts() {
        let cfg = AgentConfig {
            max_attempts: 3,
            backoff: Backoff {
                base: Duration::from_micros(10),
                cap: Duration::from_micros(20),
                seed: 1,
            },
            ..AgentConfig::new(
                9,
                ConfigEcho {
                    n_max: 1000,
                    m: 100,
                    sampling_bits: 4,
                    seed: 1,
                    window: 2,
                    term: 0,
                },
            )
        };
        let frames = vec![(0u64, vec![1, 2, 3])];
        let mut tries = 0u32;
        let err = run_agent(&cfg, frames, |_attempt| {
            tries += 1;
            Err::<std::io::Cursor<Vec<u8>>, _>(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "nobody home",
            ))
        })
        .unwrap_err();
        assert_eq!(tries, 3);
        assert!(err.contains("gave up after 3 attempts"), "{err}");
    }

    #[test]
    fn welcome_below_proto_version_is_fatal() {
        /// A collector that answers every hello with one scripted
        /// welcome and swallows writes.
        struct OldCollector(io::Cursor<Vec<u8>>);
        impl Read for OldCollector {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.0.read(buf)
            }
        }
        impl Write for OldCollector {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let echo = ConfigEcho {
            n_max: 1000,
            m: 100,
            sampling_bits: 4,
            seed: 1,
            window: 2,
            term: 0,
        };
        let welcome = encode(&Message::Welcome {
            proto: PROTO_VERSION - 1,
            credits: 4,
            config: echo,
        });
        let mut dials = 0u32;
        let err = run_agent(&AgentConfig::new(1, echo), vec![(0, vec![1, 2, 3])], |_| {
            dials += 1;
            Ok(OldCollector(io::Cursor::new(welcome.clone())))
        })
        .unwrap_err();
        assert_eq!(dials, 1, "an old collector is not retried");
        assert!(err.contains("below"), "{err}");
    }
}
