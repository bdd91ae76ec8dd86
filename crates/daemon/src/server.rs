//! The collector daemon: TCP ingest + query listeners over a central
//! [`WindowedFleet`] ring.
//!
//! Concurrency layout (all std threads, no async runtime):
//!
//! ```text
//! ingest accept loop ──spawns──▶ per-connection handler
//!                                  ├─ reader (the handler thread):
//!                                  │    handshake, decode batches,
//!                                  │    push absorb jobs
//!                                  └─ writer thread: acks + errors
//! query accept loop  ──spawns──▶ per-connection request/reply handler
//! absorber thread    ◀── bounded sync_channel of decoded jobs
//! ```
//!
//! The **bounded absorb queue is the backpressure mechanism**: when the
//! absorber falls behind, `try_send` fails, the handler counts a
//! backpressure event and falls back to a blocking send — which stops it
//! reading its socket, which fills the kernel receive buffer, which
//! stalls the remote agent's sends. Flow control composes out of
//! `sync_channel` + TCP, no protocol machinery needed beyond the credit
//! window advertised in the handshake.
//!
//! Failure policy per the wire spec: a frame that fails its checksum or
//! payload validation is answered with a typed [`Message::Error`] frame
//! and the connection lives on; only a desynchronized byte stream (bad
//! magic, absurd length, EOF mid-frame) closes the connection, because
//! after desync no frame boundary can be trusted.

use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sbitmap_core::codec::{self, Checkpoint};
use sbitmap_core::journal::{self, JournalConfig, JournalRecord, JournalWriter};
use sbitmap_core::{
    AbsorbOutcome, CounterKind, FleetArena, FleetDeltaFrame, KeyedEstimates, RateSchedule,
    SBitmapError, WindowedFleet,
};
use sbitmap_stream::net::{
    ConfigEcho, ErrorCode, FrameReader, Message, NetError, NodeRole, QueryReply, QueryRequest,
    ReadEvent, Role, PROTO_VERSION,
};
use sbitmap_stream::quantile_summary;

/// Largest forward epoch jump a batch frame may demand. The ring
/// advances one rotation at a time, so an unbounded hostile epoch would
/// be a CPU DoS; no healthy agent ever runs this far ahead of the
/// collector.
const MAX_EPOCH_JUMP: u64 = 1 << 20;

/// How long the accept loops sleep between polls of the shutdown flag
/// when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// How long a handler sleeps between retries while the absorb queue is
/// full, before the [`DaemonConfig::busy_timeout`] deadline sheds the
/// frame with a typed [`ErrorCode::Busy`] answer.
const BUSY_POLL: Duration = Duration::from_millis(1);

/// How many journal records a standby sender session keeps in flight:
/// records go on the wire as soon as the completer queues them, acks
/// settle in order. A peer whose queue backs up this far is hopelessly
/// behind and gets dropped (it re-syncs from a snapshot on reconnect).
const REPL_PIPELINE: usize = 64;

/// Where the absorber deliberately dies when a [`CrashPoint`] fires —
/// each site models one step of the durability pipeline being cut by a
/// `kill -9`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// After the frame is folded into the in-memory ring but before its
    /// journal record is written: the crash loses the frame entirely
    /// (it was never acked, so the agent retransmits it).
    AbsorbBeforeJournal,
    /// Halfway through the journal append: the segment is left with a
    /// torn tail record that recovery must discard by checksum.
    MidJournalAppend,
    /// Halfway through writing the snapshot temp file: recovery must
    /// ignore the partial `.tmp` and fall back to the previous
    /// snapshot + journal.
    MidSnapshotWrite,
    /// After the snapshot is atomically in place (and the journal has
    /// rotated) but before the covered segments are deleted: recovery
    /// must replay the stale segments as no-ops.
    AfterSnapshotRename,
    /// After the frame's journal record has been shipped to (and acked
    /// by) every attached standby, but before the agent's ack leaves:
    /// the standby holds the frame, the agent retransmits it after
    /// failover, and the seen-guard absorbs the replay as a duplicate.
    AfterReplicate,
}

/// Test hook: abort the process (no unwinding, no flushes — the moral
/// equivalent of `SIGKILL` landing mid-operation) at a deterministic
/// point of the durability pipeline. `after` counts absorbed frames for
/// the absorb/journal sites and snapshots for the snapshot sites; the
/// crash fires when the count reaches it (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Which pipeline step to die in.
    pub site: CrashSite,
    /// Fire on the `after`-th event at that site (1-based).
    pub after: u64,
}

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Ingest listener address (`127.0.0.1:0` picks a free port).
    pub ingest_addr: String,
    /// Query listener address.
    pub query_addr: String,
    /// Per-key design maximum cardinality.
    pub n_max: u64,
    /// Bits per key per epoch.
    pub m_bits: usize,
    /// Fleet seed.
    pub seed: u64,
    /// Window span in epochs.
    pub window: usize,
    /// Credit window advertised to agents: batch frames an agent may
    /// leave unacked before it must stop sending.
    pub credits: u32,
    /// Bound of the absorb queue, in decoded frames — the backpressure
    /// knob.
    pub queue_frames: usize,
    /// Per-connection read deadline; doubles as the shutdown-flag poll
    /// interval of blocked reads.
    pub read_deadline: Duration,
    /// Per-connection write deadline.
    pub write_deadline: Duration,
    /// A connection idle longer than this is closed.
    pub idle_limit: Duration,
    /// Where the final ring checkpoint is written on drain; `None`
    /// skips the write. The write is atomic (temp file + fsync +
    /// rename), so a crash mid-drain can never leave a truncated
    /// checkpoint a later restore would trust.
    pub checkpoint_path: Option<PathBuf>,
    /// Durability root: when set, every absorbed frame is appended to a
    /// write-ahead journal under this directory *before* it is acked,
    /// periodic atomic snapshots truncate the journal, and a restart
    /// with the same directory recovers the ring (snapshot + journal
    /// replay) instead of starting empty. `None` keeps the ring purely
    /// in memory (the pre-durability behavior).
    pub data_dir: Option<PathBuf>,
    /// Absorbed frames between periodic snapshots (journal rotation
    /// points). 0 disables periodic snapshots — the journal then only
    /// truncates on graceful drain.
    pub snapshot_every: u64,
    /// When true, every journal append is fsynced before the frame is
    /// acked (power-loss durability). The default `false` flushes
    /// appends to the OS page cache only — that already survives a
    /// process crash (`kill -9`), which is what the crash harness
    /// proves, at a fraction of the cost. Snapshots are always fsynced.
    pub fsync_journal: bool,
    /// How long an ingest handler may wait on the full absorb queue
    /// before shedding the frame with a typed [`ErrorCode::Busy`] answer
    /// (carrying a retry-after hint) instead of stalling the socket
    /// indefinitely.
    pub busy_timeout: Duration,
    /// Test hook: deterministically abort the process at a chosen point
    /// of the durability pipeline (see [`CrashPoint`]). `None` in
    /// production.
    pub crash_point: Option<CrashPoint>,
    /// Test hook: the absorber sleeps this long per frame, so the suite
    /// can force the bounded queue to fill and observe backpressure
    /// deterministically. Zero in production.
    pub absorb_stall: Duration,
    /// Standby mode: follow the primary whose *ingest* address this is.
    /// The daemon starts as a standby — it refuses ingest sessions with
    /// [`ErrorCode::NotPrimary`] until promoted, and runs a replication
    /// client that absorbs + journals the primary's record stream.
    /// `None` starts as a primary.
    pub standby_of: Option<String>,
    /// The fencing term this collector starts at when its journal holds
    /// no higher one. Primaries default to 1; standbys adopt the
    /// primary's term at the replication handshake and bump it on
    /// promotion.
    pub initial_term: u64,
    /// How long the primary waits for a standby to acknowledge one
    /// replicated record before declaring the standby dead and dropping
    /// it from the stream. Acked-implies-replicated holds for every
    /// standby still attached; a dropped standby re-syncs from a fresh
    /// snapshot when it reconnects.
    pub replication_timeout: Duration,
    /// Identity this collector presents when it dials a primary as a
    /// replication client (the journal `source` field is per-record, so
    /// this only names the session in primary-side accounting).
    pub replica_id: u64,
    /// Test hook: an Estimate query for this key panics the handler
    /// thread *while it holds the ring lock* — the regression fixture
    /// proving a poisoned ring mutex cannot wedge later ingest. `None`
    /// in production.
    pub panic_on_query: Option<u64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            ingest_addr: "127.0.0.1:0".into(),
            query_addr: "127.0.0.1:0".into(),
            n_max: 1_500_000,
            m_bits: 8_000,
            seed: 0xc011,
            window: 8,
            credits: 4,
            queue_frames: 64,
            read_deadline: Duration::from_millis(50),
            write_deadline: Duration::from_millis(2_000),
            idle_limit: Duration::from_secs(10),
            checkpoint_path: None,
            data_dir: None,
            snapshot_every: 1_024,
            fsync_journal: false,
            busy_timeout: Duration::from_secs(2),
            crash_point: None,
            absorb_stall: Duration::ZERO,
            standby_of: None,
            initial_term: 1,
            replication_timeout: Duration::from_secs(2),
            replica_id: 0xEDD1,
            panic_on_query: None,
        }
    }
}

/// Counters the daemon accumulates while serving (all monotone).
#[derive(Debug, Default)]
struct Stats {
    connections: AtomicU64,
    frames_absorbed: AtomicU64,
    duplicates: AtomicU64,
    expired: AtomicU64,
    bad_frames: AtomicU64,
    backpressure_events: AtomicU64,
    handshake_rejects: AtomicU64,
    desyncs: AtomicU64,
    queries: AtomicU64,
    bytes_on_wire: AtomicU64,
    missing_baselines: AtomicU64,
    busy_rejections: AtomicU64,
    journal_records: AtomicU64,
    snapshots: AtomicU64,
    replayed_records: AtomicU64,
    replay_skipped: AtomicU64,
    replicated_frames: AtomicU64,
    replica_drops: AtomicU64,
    not_primary_rejects: AtomicU64,
}

/// What [`Daemon::join`] returns after a graceful drain.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// `(key, windowed estimate)` pairs, ascending key order.
    pub estimates: Vec<(u64, f64)>,
    /// The ring's open epoch at drain.
    pub final_epoch: u64,
    /// The complete tag-10 checkpoint of the drained ring (also written
    /// to [`DaemonConfig::checkpoint_path`] when set).
    pub final_checkpoint: Vec<u8>,
    /// Ingest + query connections accepted.
    pub connections: u64,
    /// Batch frames folded into the ring.
    pub frames_absorbed: u64,
    /// Batch frames skipped by the at-least-once guard.
    pub duplicates: u64,
    /// Batch frames for already-expired epochs.
    pub expired: u64,
    /// Frames answered with a typed error instead of being absorbed.
    pub bad_frames: u64,
    /// Times a handler found the absorb queue full and had to block.
    pub backpressure_events: u64,
    /// Handshakes rejected (version or config mismatch).
    pub handshake_rejects: u64,
    /// Connections dropped for stream desynchronization.
    pub desyncs: u64,
    /// Query requests answered.
    pub queries: u64,
    /// Total sketch-frame bytes received over ingest sessions (the
    /// payload of every `Batch`/`BatchDelta`, before decoding) — the
    /// number the v3 delta encoding exists to shrink.
    pub bytes_on_wire: u64,
    /// Delta frames rejected because their epoch's round-0 baseline had
    /// not been absorbed (each one told the agent to resync).
    pub missing_baselines: u64,
    /// Frames shed with a typed [`ErrorCode::Busy`] answer because the
    /// absorb queue stayed full past [`DaemonConfig::busy_timeout`].
    pub busy_rejections: u64,
    /// Write-ahead journal records appended (one per absorbed frame
    /// when [`DaemonConfig::data_dir`] is set).
    pub journal_records: u64,
    /// Periodic ring snapshots written (journal rotations).
    pub snapshots: u64,
    /// Journal records replayed into the ring during startup recovery.
    pub replayed_records: u64,
    /// Journal records skipped during recovery (undecodable payloads,
    /// epochs the restored ring cannot accept) — each skip left the
    /// ring untouched.
    pub replay_skipped: u64,
    /// The fencing term the collector held at drain.
    pub term: u64,
    /// Journal records replicated: on a primary, per-standby shipped
    /// *and acknowledged* sends; on a standby, records absorbed from
    /// the primary's stream.
    pub replicated_frames: u64,
    /// Standby sessions dropped for missing the replication-ack
    /// deadline (each re-syncs from a snapshot when it reconnects).
    pub replica_drops: u64,
    /// Ingest/replication handshakes refused with
    /// [`ErrorCode::NotPrimary`] while this collector was a standby.
    pub not_primary_rejects: u64,
    /// Connection-handler threads that panicked. The daemon survives
    /// them — the ring lock recovers from poisoning because absorbs are
    /// atomic per frame — but a nonzero count is worth alerting on.
    pub handler_panics: u64,
}

/// The sketch payload of one decoded ingest frame.
pub(crate) enum JobPayload {
    /// A full v2 `sketch-fleet` checkpoint.
    Full(Box<FleetArena>),
    /// One round of a v3 delta chain (the wire `round` is validated
    /// against the frame before queueing).
    Delta(FleetDeltaFrame),
}

/// One unit of work queued for the absorber (the single ring writer).
pub(crate) enum Job {
    /// A decoded batch frame from an ingest session or, on a standby,
    /// one record from the primary's replication stream.
    Frame(FrameJob),
    /// Standby catch-up: replace the whole ring with the primary's
    /// checkpoint and reset the local journal underneath it.
    InstallSnapshot {
        /// A complete tag-10 window checkpoint frame.
        bytes: Vec<u8>,
        /// Where to report success/failure.
        done: mpsc::Sender<Result<(), String>>,
    },
}

/// A decoded batch frame queued for the absorber.
pub(crate) struct FrameJob {
    pub(crate) epoch: u64,
    pub(crate) agent: u64,
    pub(crate) payload: JobPayload,
    /// The frame exactly as it arrived on the wire — what the journal
    /// records, so replay decodes the same bytes the live path did.
    pub(crate) wire: Vec<u8>,
    /// Replay semantics: replicated records skip the live delta
    /// baseline check (the primary's journal order already proved the
    /// chain, but the baseline may live only inside the catch-up
    /// snapshot here).
    pub(crate) replay: bool,
    pub(crate) ack: mpsc::Sender<Message>,
}

/// A standby attached to this primary. The completer encodes
/// `Replicate` frames straight onto `out` — the session's writer-thread
/// queue — so shipping a record costs one channel send, no relay hop.
struct ReplPeer {
    id: u64,
    out: mpsc::Sender<Message>,
    /// Cleared by the completer when it detaches the peer (deadline
    /// miss, hopeless backlog); the session's read loop notices within
    /// one read deadline and closes the connection.
    alive: Arc<AtomicBool>,
}

/// Everything that can wake the completer. Unifying absorber output and
/// peer-session acknowledgements on one channel keeps the completer
/// event-driven — it never has to poll two sources, so a finished
/// absorb ships to the standbys immediately and a standby ack releases
/// its agent ack immediately.
enum CompleterEvent {
    /// The absorber finished a frame: ship `record` (if any) and hold
    /// the ack until every attached standby confirms.
    Complete(Complete),
    /// A peer session read a (cumulative) `ReplicateAck`: every record
    /// shipped to `peer` with wire seq ≤ `acked` is on the standby.
    PeerAck { peer: u64, acked: u64 },
    /// A peer session died; everything still in flight on it failed.
    PeerGone { peer: u64 },
    /// The absorber is done; settle what remains and exit.
    Shutdown,
}

/// State shared by every daemon thread.
pub(crate) struct Shared {
    pub(crate) cfg: DaemonConfig,
    pub(crate) echo: ConfigEcho,
    ring: Mutex<WindowedFleet>,
    shutdown: AtomicBool,
    /// Set while the absorber replays the journal tail after a restart;
    /// handshakes answer [`ErrorCode::Recovering`] until it clears.
    recovering: AtomicBool,
    /// Wire value of the current [`NodeRole`] (primary / standby).
    role: AtomicU8,
    /// The current fencing term: stamped into welcomes, acks, journal
    /// segment headers and the replication stream.
    term: AtomicU64,
    /// Sequence number of the live journal segment (0 without a data
    /// dir) — surfaced by [`QueryRequest::Status`].
    journal_seq: AtomicU64,
    /// Tells the standby replication client to stop (promotion/drain).
    standby_stop: AtomicBool,
    /// Asks the absorber to rotate the journal segment so a freshly
    /// bumped term reaches disk (set by promotion).
    promote_rotate: AtomicBool,
    /// Standby sender sessions currently attached (primary side).
    peers: Mutex<Vec<ReplPeer>>,
    /// The completer's event inlet, cloned by replication sender
    /// sessions so they can report standby acks. Set by the absorber
    /// before the recovering gate opens; `None` only before that.
    repl_events: Mutex<Option<mpsc::Sender<CompleterEvent>>>,
    stats: Stats,
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }

    pub(crate) fn term(&self) -> u64 {
        self.term.load(Ordering::SeqCst)
    }

    /// Adopt a term seen on the wire if it is newer than ours (terms
    /// only move forward).
    pub(crate) fn observe_term(&self, term: u64) {
        self.term.fetch_max(term, Ordering::SeqCst);
    }

    /// `true` once the standby replication client must exit: promotion
    /// fenced the old stream, or the daemon is draining.
    pub(crate) fn replica_stopped(&self) -> bool {
        self.standby_stop.load(Ordering::SeqCst) || self.draining()
    }

    /// Count one record absorbed from the primary's stream (standby
    /// side of [`DaemonReport::replicated_frames`]).
    pub(crate) fn note_replicated(&self) {
        self.stats.replicated_frames.fetch_add(1, Ordering::Relaxed);
    }

    fn is_standby(&self) -> bool {
        self.role.load(Ordering::SeqCst) == 1
    }

    fn node_role(&self) -> NodeRole {
        if self.recovering() {
            NodeRole::Recovering
        } else if self.is_standby() {
            NodeRole::Standby
        } else {
            NodeRole::Primary
        }
    }

    /// Promote a standby to primary: bump the term, fence the old
    /// stream, stop the replication client, start accepting ingest.
    /// Idempotent — promoting a primary just reports the current term.
    fn promote(&self) -> u64 {
        if self.is_standby() {
            let term = self.term.fetch_add(1, Ordering::SeqCst) + 1;
            self.standby_stop.store(true, Ordering::SeqCst);
            self.promote_rotate.store(true, Ordering::SeqCst);
            self.role.store(0, Ordering::SeqCst);
            term
        } else {
            self.term()
        }
    }
}

/// Lock the ring, recovering the guard if a panicked handler poisoned
/// it. Safe because every ring mutation is atomic per frame: a handler
/// that panics mid-query mutated nothing, and the absorber's writes
/// complete before its lock drops — the state under a poisoned lock is
/// always a valid ring.
fn lock_ring(ring: &Mutex<WindowedFleet>) -> MutexGuard<'_, WindowedFleet> {
    ring.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Connection handler threads: the ones not yet joined, plus the panic
/// count of those already reaped.
#[derive(Default)]
struct Handlers {
    live: Vec<JoinHandle<()>>,
    panics: u64,
}

impl Handlers {
    /// Join every finished handler, so a long-running daemon holds one
    /// thread per *open* connection, not per connection ever accepted.
    fn reap(&mut self) {
        let (done, live): (Vec<_>, Vec<_>) = std::mem::take(&mut self.live)
            .into_iter()
            .partition(JoinHandle::is_finished);
        self.live = live;
        self.panics += done
            .into_iter()
            .map(JoinHandle::join)
            .filter(Result::is_err)
            .count() as u64;
    }
}

/// A running daemon. Dropping it without [`Daemon::join`] leaks the
/// serving threads; always drain + join.
pub struct Daemon {
    shared: Arc<Shared>,
    ingest_addr: SocketAddr,
    query_addr: SocketAddr,
    accept_threads: Vec<JoinHandle<()>>,
    handlers: Arc<Mutex<Handlers>>,
    absorber: JoinHandle<()>,
    replica: Option<JoinHandle<()>>,
    job_tx: mpsc::SyncSender<Job>,
}

impl Daemon {
    /// Bind both listeners and start serving.
    ///
    /// # Errors
    ///
    /// Un-dimensionable sketch parameters, a zero window, or a bind
    /// failure.
    pub fn start(cfg: DaemonConfig) -> Result<Self, String> {
        if cfg.credits == 0 || cfg.queue_frames == 0 {
            return Err("credits and queue_frames must be at least 1".into());
        }
        let schedule =
            Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).map_err(|e| e.to_string())?);
        // The echo template carries term 0; every handshake stamps the
        // live term in with `with_term`.
        let echo = ConfigEcho {
            n_max: cfg.n_max,
            m: cfg.m_bits as u64,
            sampling_bits: schedule.split().sampling_bits(),
            seed: cfg.seed,
            window: cfg.window as u64,
            term: 0,
        };
        let ring = WindowedFleet::with_schedule(schedule, cfg.seed, cfg.window)
            .map_err(|e| e.to_string())?;
        // Durability: restore the newest snapshot (config-checked) and
        // stage the journal tail for replay; both refuse typed on a
        // config mismatch. The actual replay runs on the absorber
        // thread behind the `recovering` flag so startup stays fast.
        // The term resumes at the highest one stamped on a surviving
        // segment, so a promotion is not forgotten across a restart.
        let (ring, durability, term) = match &cfg.data_dir {
            None => (ring, None, cfg.initial_term),
            Some(dir) => {
                let (restored, durability, term) = open_durability(dir, &echo, &cfg)?;
                (restored.unwrap_or(ring), Some(durability), term)
            }
        };
        let must_replay = durability.as_ref().is_some_and(|d| !d.replay.is_empty());
        let journal_seq = durability.as_ref().map_or(0, |d| d.writer.seq());
        let ingest = TcpListener::bind(&cfg.ingest_addr)
            .map_err(|e| format!("bind {}: {e}", cfg.ingest_addr))?;
        let query = TcpListener::bind(&cfg.query_addr)
            .map_err(|e| format!("bind {}: {e}", cfg.query_addr))?;
        let ingest_addr = ingest.local_addr().map_err(|e| e.to_string())?;
        let query_addr = query.local_addr().map_err(|e| e.to_string())?;
        ingest.set_nonblocking(true).map_err(|e| e.to_string())?;
        query.set_nonblocking(true).map_err(|e| e.to_string())?;

        let is_standby = cfg.standby_of.is_some();
        let shared = Arc::new(Shared {
            cfg,
            echo,
            ring: Mutex::new(ring),
            shutdown: AtomicBool::new(false),
            recovering: AtomicBool::new(must_replay),
            role: AtomicU8::new(u8::from(is_standby)),
            term: AtomicU64::new(term),
            journal_seq: AtomicU64::new(journal_seq),
            standby_stop: AtomicBool::new(false),
            promote_rotate: AtomicBool::new(false),
            peers: Mutex::new(Vec::new()),
            repl_events: Mutex::new(None),
            stats: Stats::default(),
        });
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(shared.cfg.queue_frames);
        let handlers = Arc::new(Mutex::new(Handlers::default()));

        let absorber = {
            let shared = shared.clone();
            std::thread::spawn(move || absorber_loop(&shared, &job_rx, durability))
        };
        let replica = if is_standby {
            let shared = shared.clone();
            let job_tx = job_tx.clone();
            Some(std::thread::spawn(move || {
                crate::replica::run_standby(&shared, &job_tx);
            }))
        } else {
            None
        };
        let mut accept_threads = Vec::with_capacity(2);
        {
            let shared = shared.clone();
            let handlers = handlers.clone();
            let job_tx = job_tx.clone();
            accept_threads.push(std::thread::spawn(move || {
                accept_loop(&shared, &ingest, &handlers, move |shared, stream| {
                    let job_tx = job_tx.clone();
                    move || ingest_conn(&shared, stream, &job_tx)
                })
            }));
        }
        {
            let shared = shared.clone();
            let handlers = handlers.clone();
            accept_threads.push(std::thread::spawn(move || {
                accept_loop(&shared, &query, &handlers, |shared, stream| {
                    move || query_conn(&shared, stream)
                })
            }));
        }
        Ok(Self {
            shared,
            ingest_addr,
            query_addr,
            accept_threads,
            handlers,
            absorber,
            replica,
            job_tx,
        })
    }

    /// The bound ingest address (resolves port 0).
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// The bound query address.
    pub fn query_addr(&self) -> SocketAddr {
        self.query_addr
    }

    /// The sketch configuration the daemon echoes in handshakes.
    pub fn config_echo(&self) -> ConfigEcho {
        self.shared.echo
    }

    /// Flip the drain flag: acceptors stop, open connections are told
    /// [`ErrorCode::Draining`] on their next deadline tick, in-flight
    /// frames finish absorbing.
    pub fn drain(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// `true` once a drain has been requested (locally or via a
    /// [`QueryRequest::Drain`]).
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// `true` while the absorber is still replaying the journal tail
    /// after a restart; handshakes answer [`ErrorCode::Recovering`]
    /// until this clears.
    pub fn is_recovering(&self) -> bool {
        self.shared.recovering()
    }

    /// The collector's current replication role.
    pub fn node_role(&self) -> NodeRole {
        self.shared.node_role()
    }

    /// The current fencing term.
    pub fn term(&self) -> u64 {
        self.shared.term()
    }

    /// Promote a standby to primary: bump the fencing term, stop the
    /// replication client, start accepting ingest sessions. Idempotent
    /// on a primary. Returns the term now in force. (Remote peers do
    /// the same thing with [`QueryRequest::Promote`].)
    pub fn promote(&self) -> u64 {
        self.shared.promote()
    }

    /// Block until the daemon has fully drained (the flag must be — or
    /// become — set, e.g. via [`Daemon::drain`] or a remote
    /// [`QueryRequest::Drain`]), write the final ring checkpoint, and
    /// return the report.
    ///
    /// # Errors
    ///
    /// A panicked core thread (acceptor/absorber), or a failed
    /// checkpoint write. Panicked *connection handlers* are tolerated —
    /// the ring lock recovers from their poisoning — and reported via
    /// [`DaemonReport::handler_panics`].
    pub fn join(self) -> Result<DaemonReport, String> {
        // The standby replication client polls both the drain flag and
        // the promote stop flag; it exits within one read deadline.
        self.shared.standby_stop.store(true, Ordering::SeqCst);
        for t in self.accept_threads {
            t.join().map_err(|_| "accept thread panicked".to_string())?;
        }
        // No new connections past this point; existing handlers observe
        // the flag within one read deadline.
        let Handlers {
            live,
            panics: mut handler_panics,
        } = std::mem::take(
            &mut *self
                .handlers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for t in live {
            if t.join().is_err() {
                handler_panics += 1;
            }
        }
        if let Some(t) = self.replica {
            t.join()
                .map_err(|_| "replica thread panicked".to_string())?;
        }
        drop(self.job_tx);
        self.absorber
            .join()
            .map_err(|_| "absorber thread panicked".to_string())?;
        let (estimates, final_epoch, final_checkpoint) = {
            let ring = lock_ring(&self.shared.ring);
            (
                ring.estimates_sorted(),
                ring.current_epoch(),
                ring.checkpoint(),
            )
        };
        if let Some(path) = &self.shared.cfg.checkpoint_path {
            // Atomic (temp + fsync + rename): a crash mid-drain can
            // never leave a truncated checkpoint a later restore trusts.
            journal::write_atomic(path, &final_checkpoint)
                .map_err(|e| format!("checkpoint write {}: {e}", path.display()))?;
        }
        if let Some(dir) = &self.shared.cfg.data_dir {
            // The drain snapshot captures the whole ring, so the journal
            // has nothing left to add: write it, then clear the segments.
            journal::write_atomic(&dir.join(journal::SNAPSHOT_FILE), &final_checkpoint)
                .map_err(|e| format!("final snapshot in {}: {e}", dir.display()))?;
            for (_, path) in journal::list_segments(dir).map_err(|e| e.to_string())? {
                let _ = std::fs::remove_file(path);
            }
        }
        let s = &self.shared.stats;
        Ok(DaemonReport {
            estimates,
            final_epoch,
            final_checkpoint,
            connections: s.connections.load(Ordering::Relaxed),
            frames_absorbed: s.frames_absorbed.load(Ordering::Relaxed),
            duplicates: s.duplicates.load(Ordering::Relaxed),
            expired: s.expired.load(Ordering::Relaxed),
            bad_frames: s.bad_frames.load(Ordering::Relaxed),
            backpressure_events: s.backpressure_events.load(Ordering::Relaxed),
            handshake_rejects: s.handshake_rejects.load(Ordering::Relaxed),
            desyncs: s.desyncs.load(Ordering::Relaxed),
            queries: s.queries.load(Ordering::Relaxed),
            bytes_on_wire: s.bytes_on_wire.load(Ordering::Relaxed),
            missing_baselines: s.missing_baselines.load(Ordering::Relaxed),
            busy_rejections: s.busy_rejections.load(Ordering::Relaxed),
            journal_records: s.journal_records.load(Ordering::Relaxed),
            snapshots: s.snapshots.load(Ordering::Relaxed),
            replayed_records: s.replayed_records.load(Ordering::Relaxed),
            replay_skipped: s.replay_skipped.load(Ordering::Relaxed),
            term: self.shared.term(),
            replicated_frames: s.replicated_frames.load(Ordering::Relaxed),
            replica_drops: s.replica_drops.load(Ordering::Relaxed),
            not_primary_rejects: s.not_primary_rejects.load(Ordering::Relaxed),
            handler_panics,
        })
    }
}

/// Accept until the drain flag flips, spawning one handler per
/// connection and reaping finished ones. `make_handler` builds the
/// per-connection closure (which captures the shared state and, for
/// ingest, a queue sender).
fn accept_loop<F, G>(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    handlers: &Mutex<Handlers>,
    make_handler: F,
) where
    F: Fn(Arc<Shared>, TcpStream) -> G,
    G: FnOnce() + Send + 'static,
{
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                // Accepted sockets must block (with timeouts); only the
                // listener polls.
                let _ = stream.set_nonblocking(false);
                let handler = make_handler(shared.clone(), stream);
                let mut handlers = handlers
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                handlers.reap();
                handlers.live.push(std::thread::spawn(handler));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// The absorber's view of an open durability directory: the journal
/// writer for the live segment, the config every record must match, and
/// the segments staged for startup replay.
struct Durability {
    dir: PathBuf,
    jcfg: JournalConfig,
    writer: JournalWriter,
    /// Segments found at startup, ascending `(seq, path)` — replayed by
    /// the absorber before it serves its first job.
    replay: Vec<(u64, PathBuf)>,
    /// Frames journaled since the last snapshot (the rotation counter).
    since_snapshot: u64,
    /// Frames absorbed this run (drives the absorb/journal crash sites).
    absorbed: u64,
    /// Snapshots attempted this run (drives the snapshot crash sites).
    snapshot_attempts: u64,
}

/// Open (or create) the durability directory: restore the snapshot if
/// one exists, validate every journal segment header against the
/// collector's config, and open a fresh segment for this run's appends.
/// The returned term is the highest one stamped on a surviving segment
/// (floored at [`DaemonConfig::initial_term`]) — a promotion is not
/// forgotten across a restart.
///
/// Refuses with a typed message when the snapshot or any segment was
/// written under a different sketch configuration — replaying foreign
/// frames into the ring would corrupt estimates silently.
fn open_durability(
    dir: &Path,
    echo: &ConfigEcho,
    cfg: &DaemonConfig,
) -> Result<(Option<WindowedFleet>, Durability, u64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create data dir {}: {e}", dir.display()))?;
    let jcfg = JournalConfig {
        n_max: echo.n_max,
        m: echo.m,
        sampling_bits: echo.sampling_bits,
        seed: echo.seed,
        window: echo.window,
    };
    let restored = match journal::read_snapshot(dir).map_err(|e| e.to_string())? {
        None => None,
        Some(bytes) => {
            let snap = dir.join(journal::SNAPSHOT_FILE);
            let ring: WindowedFleet = Checkpoint::restore(&bytes)
                .map_err(|e| format!("snapshot {}: {e}", snap.display()))?;
            let found = ring_config(&ring);
            if found != jcfg {
                return Err(journal::JournalError::ConfigMismatch {
                    expected: jcfg,
                    found,
                }
                .to_string());
            }
            Some(ring)
        }
    };
    let segments = journal::list_segments(dir).map_err(|e| e.to_string())?;
    let mut replay = Vec::with_capacity(segments.len());
    let mut term = cfg.initial_term;
    let last = segments.len().saturating_sub(1);
    for (i, (seq, path)) in segments.into_iter().enumerate() {
        match read_segment_header(&path) {
            Ok(header) => {
                let (found, _, seg_term) =
                    journal::decode_segment_header(&header).map_err(|e| e.to_string())?;
                if found != jcfg {
                    return Err(journal::JournalError::ConfigMismatch {
                        expected: jcfg,
                        found,
                    }
                    .to_string());
                }
                term = term.max(seg_term);
                replay.push((seq, path));
            }
            // The newest segment may have a torn header (crash during
            // its creation): it cannot hold a valid record, skip it.
            // A torn header on an *older* segment is real corruption.
            Err(e) if i == last => {
                let _ = e;
            }
            Err(e) => return Err(e),
        }
    }
    let seq = journal::next_segment_seq(dir).map_err(|e| e.to_string())?;
    let writer = JournalWriter::create(dir, &jcfg, seq, term, cfg.fsync_journal)
        .map_err(|e| e.to_string())?;
    Ok((
        restored,
        Durability {
            dir: dir.to_path_buf(),
            jcfg,
            writer,
            replay,
            since_snapshot: 0,
            absorbed: 0,
            snapshot_attempts: 0,
        },
        term,
    ))
}

/// The sketch configuration a restored ring was built with, in journal
/// form — compared against the collector's own config on recovery.
fn ring_config(ring: &WindowedFleet) -> JournalConfig {
    let schedule = ring.schedule();
    JournalConfig {
        n_max: schedule.dims().n_max(),
        m: schedule.dims().m() as u64,
        sampling_bits: schedule.split().sampling_bits(),
        seed: ring.seed(),
        window: ring.window_epochs() as u64,
    }
}

/// Read exactly the segment header prefix of a journal file.
fn read_segment_header(path: &Path) -> Result<Vec<u8>, String> {
    use std::io::Read;
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut header = vec![0u8; journal::SEGMENT_HEADER_LEN];
    file.read_exact(&mut header)
        .map_err(|e| format!("segment {}: truncated header: {e}", path.display()))?;
    Ok(header)
}

/// Replay every staged segment into the ring, record by record. Skips
/// (counted, ring untouched) anything the restored state cannot accept:
/// undecodable payloads, resealed records whose inner frame fails its
/// own checksum, epochs absurdly far ahead. Replay runs before the
/// first job, so it holds the ring lock uncontended.
fn replay_journal(shared: &Shared, d: &Durability) {
    for (_, path) in &d.replay {
        // Headers were validated at startup; an unreadable file here is
        // an I/O race (operator deleted it) — skip the segment.
        let Ok(scan) = journal::read_segment(path) else {
            continue;
        };
        for rec in &scan.records {
            match replay_record(shared, rec) {
                Ok(AbsorbOutcome::Absorbed) => {
                    shared
                        .stats
                        .replayed_records
                        .fetch_add(1, Ordering::Relaxed);
                }
                // Duplicate/expired replays (stale segments a crash left
                // behind, records older than the snapshot) are no-ops.
                Ok(_) | Err(()) => {
                    shared.stats.replay_skipped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Apply one journal record to the ring. `Err(())` means the record was
/// skipped (undecodable, resealed, or out of range) and the ring is
/// exactly as it was before the call.
fn replay_record(shared: &Shared, rec: &JournalRecord) -> Result<AbsorbOutcome, ()> {
    let (_, kind) = codec::peek_kind(&rec.payload).map_err(|_| ())?;
    let mut ring = lock_ring(&shared.ring);
    let current = ring.current_epoch();
    if rec.epoch > current && rec.epoch - current > MAX_EPOCH_JUMP {
        return Err(());
    }
    match kind {
        CounterKind::SketchFleet => {
            let fleet = <FleetArena as Checkpoint>::restore(&rec.payload).map_err(|_| ())?;
            if rec.epoch > current {
                ring.advance_to(rec.epoch).map_err(|_| ())?;
            }
            ring.absorb_epoch_from(rec.source, rec.epoch, &fleet)
                .map_err(|_| ())
        }
        CounterKind::FleetDelta => {
            let frame = FleetDeltaFrame::decode(&rec.payload).map_err(|_| ())?;
            if frame.epoch != rec.epoch {
                return Err(());
            }
            if rec.epoch > current {
                ring.advance_to(rec.epoch).map_err(|_| ())?;
            }
            // The replay variant: the journal's causal order guarantees
            // the baseline preceded this delta, but the snapshot may
            // have absorbed (and truncated) its record, so the live
            // baseline check would spuriously refuse the chain.
            ring.absorb_delta_replay(rec.source, &frame).map_err(|_| ())
        }
        _ => Err(()),
    }
}

/// Deliberately die if the configured crash point names this site and
/// its counter has reached the trigger.
fn crash_if(shared: &Shared, site: CrashSite, count: u64) {
    if shared.cfg.crash_point == Some(CrashPoint { site, after: count }) {
        // `abort`, not `exit`: no unwinding, no buffer flushes — the
        // closest safe stand-in for SIGKILL landing mid-operation.
        std::process::abort();
    }
}

/// Append the just-absorbed frame to the journal — the write-ahead step
/// that must land *before* the ack leaves. Returns the encoded record
/// image (what replication ships verbatim). `Err(detail)` means the
/// append failed and the frame must not be acked as durable.
fn journal_absorbed(
    shared: &Shared,
    d: &mut Durability,
    job: &FrameJob,
) -> Result<Vec<u8>, String> {
    d.absorbed += 1;
    crash_if(shared, CrashSite::AbsorbBeforeJournal, d.absorbed);
    let encoded = journal::encode_record(&JournalRecord {
        source: job.agent,
        epoch: job.epoch,
        payload: job.wire.clone(),
    });
    if let Some(cp) = shared.cfg.crash_point {
        if cp.site == CrashSite::MidJournalAppend && cp.after == d.absorbed {
            // Write half the record, then die: recovery must discard
            // the torn tail by checksum.
            let _ = d.writer.append_bytes(&encoded[..encoded.len() / 2]);
            std::process::abort();
        }
    }
    d.writer.append_bytes(&encoded).map_err(|e| e.to_string())?;
    d.since_snapshot += 1;
    shared.stats.journal_records.fetch_add(1, Ordering::Relaxed);
    Ok(encoded)
}

/// Snapshot the ring and rotate the journal when the cadence is due.
///
/// Ordering is what makes every crash recoverable: (1) write the
/// snapshot atomically, (2) rotate appends to a fresh segment, (3) only
/// then delete the covered segments. A crash between any two steps
/// leaves either the old snapshot + full journal, or the new snapshot +
/// stale segments whose replay is an OR-idempotent no-op.
fn maybe_snapshot(shared: &Shared, d: &mut Durability) {
    if shared.cfg.snapshot_every == 0 || d.since_snapshot < shared.cfg.snapshot_every {
        return;
    }
    let bytes = lock_ring(&shared.ring).checkpoint();
    d.snapshot_attempts += 1;
    let snap_path = d.dir.join(journal::SNAPSHOT_FILE);
    if let Some(cp) = shared.cfg.crash_point {
        if cp.site == CrashSite::MidSnapshotWrite && cp.after == d.snapshot_attempts {
            // Leave a partial temp file, then die: recovery must ignore
            // it and fall back to the previous snapshot + journal.
            let _ = std::fs::write(snap_path.with_extension("tmp"), &bytes[..bytes.len() / 2]);
            std::process::abort();
        }
    }
    if journal::write_atomic(&snap_path, &bytes).is_err() {
        // Snapshot failed; keep journaling into the current segment and
        // try again at the next cadence point. Nothing was lost.
        return;
    }
    let covered = d.writer.seq();
    match JournalWriter::create(
        &d.dir,
        &d.jcfg,
        covered + 1,
        shared.term(),
        shared.cfg.fsync_journal,
    ) {
        Ok(writer) => {
            d.writer = writer;
            shared.journal_seq.store(covered + 1, Ordering::SeqCst);
        }
        // Rotation failed: the old writer stays live. The snapshot is
        // still valid — replaying the covered segment is a no-op.
        Err(_) => return,
    }
    crash_if(shared, CrashSite::AfterSnapshotRename, d.snapshot_attempts);
    if let Ok(segments) = journal::list_segments(&d.dir) {
        for (seq, path) in segments {
            if seq <= covered {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    d.since_snapshot = 0;
    shared.stats.snapshots.fetch_add(1, Ordering::Relaxed);
}

/// One finished absorb handed to the completer thread: the ack to
/// release, and — for a newly absorbed primary frame — the journal
/// record image to ship to every attached standby first.
struct Complete {
    msg: Message,
    ack: mpsc::Sender<Message>,
    record: Option<Arc<Vec<u8>>>,
}

/// `true` when at least one standby sender session is attached.
fn has_peers(shared: &Shared) -> bool {
    !shared
        .peers
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .is_empty()
}

/// One agent ack the completer is holding back until every standby that
/// was attached at ship time has acknowledged the frame's journal
/// record (or missed the replication deadline and been dropped).
struct PendingAck {
    /// The completer's own monotone id for this frame (what per-peer
    /// ship FIFOs reference).
    seq: u64,
    msg: Message,
    ack: mpsc::Sender<Message>,
    /// Whether a journal record rode along (drives the crash-site
    /// counter and the `AfterReplicate` semantics: after broadcast,
    /// before the agent ack).
    record: bool,
    shipped_at: Instant,
    /// Peers whose acknowledgement is still outstanding.
    waits: Vec<u64>,
}

/// The completer's view of one attached standby: the wire seqs shipped
/// to it and not yet acked, paired with the pending acks they hold up
/// (a standby acks strictly in ship order, so a cumulative `PeerAck`
/// settles a prefix of this FIFO).
struct PeerShip {
    fifo: VecDeque<(u64, u64)>,
    next_wire: u64,
}

/// The completer's working state: acks held in absorb order, plus the
/// per-peer ship FIFOs.
struct Completer {
    pending: VecDeque<PendingAck>,
    ships: HashMap<u64, PeerShip>,
    next_seq: u64,
    shipped: u64,
}

impl Completer {
    /// Ship one absorbed frame's record to every attached standby
    /// without waiting, and hold its ack. The `Replicate` frame goes
    /// straight onto each peer's writer queue; a peer already sitting
    /// on [`REPL_PIPELINE`] unacked records is hopelessly behind and is
    /// dropped on the spot — it re-syncs from a snapshot on reconnect.
    fn ship(&mut self, shared: &Shared, c: Complete) {
        self.next_seq += 1;
        let seq = self.next_seq;
        let mut waits = Vec::new();
        let mut dead = Vec::new();
        if let Some(record) = &c.record {
            let term = shared.term();
            let mut peers = shared
                .peers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            peers.retain(|p| {
                let ship = self.ships.entry(p.id).or_insert_with(|| PeerShip {
                    fifo: VecDeque::new(),
                    next_wire: 0,
                });
                ship.next_wire += 1;
                let sent = ship.fifo.len() < REPL_PIPELINE
                    && p.out
                        .send(Message::Replicate {
                            seq: ship.next_wire,
                            term,
                            record: record.as_ref().clone(),
                        })
                        .is_ok();
                if sent {
                    waits.push(p.id);
                    ship.fifo.push_back((ship.next_wire, seq));
                    true
                } else {
                    shared.stats.replica_drops.fetch_add(1, Ordering::Relaxed);
                    p.alive.store(false, Ordering::SeqCst);
                    dead.push(p.id);
                    false
                }
            });
        }
        self.pending.push_back(PendingAck {
            seq,
            msg: c.msg,
            ack: c.ack,
            record: c.record.is_some(),
            shipped_at: Instant::now(),
            waits,
        });
        for peer in dead {
            self.drop_peer(shared, peer);
        }
    }

    /// A peer cumulatively acknowledged every record shipped to it with
    /// wire seq ≤ `acked`.
    fn peer_acked(&mut self, shared: &Shared, peer: u64, acked: u64) {
        // A stray ack from a peer the deadline already expired is
        // simply absent from the map.
        let Some(ship) = self.ships.get_mut(&peer) else {
            return;
        };
        while ship.fifo.front().is_some_and(|(wire, _)| *wire <= acked) {
            let (_, seq) = ship.fifo.pop_front().expect("front exists");
            if let Some(p) = self.pending.iter_mut().find(|p| p.seq == seq) {
                p.waits.retain(|id| *id != peer);
                shared
                    .stats
                    .replicated_frames
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Forget a dead peer: every record still in flight on it failed.
    fn drop_peer(&mut self, shared: &Shared, peer: u64) {
        self.ships.remove(&peer);
        for p in &mut self.pending {
            let before = p.waits.len();
            p.waits.retain(|id| *id != peer);
            let failed = (before - p.waits.len()) as u64;
            if failed > 0 {
                shared
                    .stats
                    .replica_drops
                    .fetch_add(failed, Ordering::Relaxed);
            }
        }
        // Clearing `alive` tells the sender session to close; the
        // session deregisters itself on the way out.
        let mut peers = shared
            .peers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(p) = peers.iter().find(|p| p.id == peer) {
            p.alive.store(false, Ordering::SeqCst);
        }
        peers.retain(|p| p.id != peer);
    }

    /// Release every front ack whose waits are all settled.
    fn release_ready(&mut self, shared: &Shared) {
        while self.pending.front().is_some_and(|p| p.waits.is_empty()) {
            let p = self.pending.pop_front().expect("front exists");
            if p.record {
                self.shipped += 1;
                // The frame is on the standby but the agent never saw
                // the ack: after failover the agent retransmits and the
                // seen-guard absorbs the replay as a duplicate.
                crash_if(shared, CrashSite::AfterReplicate, self.shipped);
            }
            let _ = p.ack.send(p.msg);
        }
    }

    /// The oldest ack missed [`DaemonConfig::replication_timeout`]:
    /// drop every peer still holding it up.
    fn expire_front(&mut self, shared: &Shared) {
        let Some(front) = self.pending.front() else {
            return;
        };
        if front.shipped_at.elapsed() < shared.cfg.replication_timeout {
            return;
        }
        for peer in front.waits.clone() {
            self.drop_peer(shared, peer);
        }
    }
}

/// The completer thread: ships each newly absorbed record to every
/// attached standby *immediately*, then releases agent acks in absorb
/// order as the standby acknowledgements stream back. Everything is
/// event-driven over one channel — no polling ticks anywhere — so the
/// standby can be absorbing record N while records N+1.. are already on
/// the wire, and the write-ahead guarantee ("acked ⇒ journaled and
/// replicated") costs latency, not throughput.
fn completer_loop(shared: &Shared, rx: &mpsc::Receiver<CompleterEvent>) {
    let mut state = Completer {
        pending: VecDeque::new(),
        ships: HashMap::new(),
        next_seq: 0,
        shipped: 0,
    };
    let mut open = true;
    while open || !state.pending.is_empty() {
        let event = if let Some(front) = state.pending.front() {
            // Wake when the oldest ack would miss the replication
            // deadline, even if no event arrives.
            let left = shared
                .cfg
                .replication_timeout
                .saturating_sub(front.shipped_at.elapsed());
            match rx.recv_timeout(left) {
                Ok(e) => e,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    state.expire_front(shared);
                    state.release_ready(shared);
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Absorber and every session are gone; nothing can
                    // settle the remaining waits.
                    for p in &mut state.pending {
                        for _ in p.waits.drain(..) {
                            shared.stats.replica_drops.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    state.release_ready(shared);
                    break;
                }
            }
        } else {
            match rx.recv() {
                Ok(e) => e,
                Err(_) => break,
            }
        };
        match event {
            CompleterEvent::Complete(c) => state.ship(shared, c),
            CompleterEvent::PeerAck { peer, acked } => state.peer_acked(shared, peer, acked),
            CompleterEvent::PeerGone { peer } => state.drop_peer(shared, peer),
            CompleterEvent::Shutdown => open = false,
        }
        state.release_ready(shared);
    }
}

/// Standby catch-up: validate + persist the primary's checkpoint, reset
/// the local journal underneath it, then swap the ring. On `Err` the
/// ring is untouched and the standby must retry from a fresh session.
fn install_snapshot(
    shared: &Shared,
    durability: &mut Option<Durability>,
    bytes: &[u8],
) -> Result<(), String> {
    let ring: WindowedFleet =
        Checkpoint::restore(bytes).map_err(|e| format!("replicated snapshot: {e}"))?;
    if let Some(d) = durability.as_mut() {
        if ring_config(&ring) != d.jcfg {
            return Err("replicated snapshot has a foreign sketch configuration".into());
        }
        // Disk first, ring second: a crash between the two recovers
        // from the just-written snapshot, which the primary will top up
        // through the normal record stream on reconnect.
        journal::write_atomic(&d.dir.join(journal::SNAPSHOT_FILE), bytes)
            .map_err(|e| e.to_string())?;
        let covered = d.writer.seq();
        let writer = JournalWriter::create(
            &d.dir,
            &d.jcfg,
            covered + 1,
            shared.term(),
            shared.cfg.fsync_journal,
        )
        .map_err(|e| e.to_string())?;
        d.writer = writer;
        shared.journal_seq.store(covered + 1, Ordering::SeqCst);
        if let Ok(segments) = journal::list_segments(&d.dir) {
            for (seq, path) in segments {
                if seq <= covered {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        d.since_snapshot = 0;
    } else if ring_config(&ring)
        != (JournalConfig {
            n_max: shared.echo.n_max,
            m: shared.echo.m,
            sampling_bits: shared.echo.sampling_bits,
            seed: shared.echo.seed,
            window: shared.echo.window,
        })
    {
        return Err("replicated snapshot has a foreign sketch configuration".into());
    }
    *lock_ring(&shared.ring) = ring;
    Ok(())
}

/// Rotate the journal segment when a promotion asks for it, so the
/// bumped term reaches disk. (Until the next record lands, the term
/// survives a restart only via this rotated header.)
fn maybe_promote_rotate(shared: &Shared, durability: &mut Option<Durability>) {
    if !shared.promote_rotate.swap(false, Ordering::SeqCst) {
        return;
    }
    if let Some(d) = durability.as_mut() {
        let next = d.writer.seq() + 1;
        if let Ok(writer) = JournalWriter::create(
            &d.dir,
            &d.jcfg,
            next,
            shared.term(),
            shared.cfg.fsync_journal,
        ) {
            d.writer = writer;
            shared.journal_seq.store(next, Ordering::SeqCst);
        }
    }
}

/// The single ring writer: replays the journal tail (when recovering),
/// then drains the bounded job queue until every sender is gone. Each
/// frame is absorbed, journaled, and handed to the completer thread,
/// which ships it to the standbys and only then releases the ack.
fn absorber_loop(shared: &Arc<Shared>, rx: &mpsc::Receiver<Job>, durability: Option<Durability>) {
    let mut durability = durability;
    if let Some(d) = durability.as_ref() {
        replay_journal(shared, d);
    }
    let (comp_tx, comp_rx) = mpsc::channel::<CompleterEvent>();
    // Publish the completer's inlet before the recovery gate opens so a
    // replication sender session can never race past it.
    *shared
        .repl_events
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(comp_tx.clone());
    shared.recovering.store(false, Ordering::SeqCst);
    let completer = {
        let shared = shared.clone();
        std::thread::spawn(move || completer_loop(&shared, &comp_rx))
    };
    for job in rx {
        maybe_promote_rotate(shared, &mut durability);
        let job = match job {
            Job::Frame(job) => job,
            Job::InstallSnapshot { bytes, done } => {
                let _ = done.send(install_snapshot(shared, &mut durability, &bytes));
                continue;
            }
        };
        if !shared.cfg.absorb_stall.is_zero() {
            std::thread::sleep(shared.cfg.absorb_stall);
        }
        let term = shared.term();
        let mut newly_absorbed = false;
        let mut msg = {
            let mut ring = lock_ring(&shared.ring);
            let current = ring.current_epoch();
            if job.epoch > current && job.epoch - current > MAX_EPOCH_JUMP {
                shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                Message::Error {
                    code: ErrorCode::EpochOutOfRange,
                    context: job.epoch,
                    detail: format!("epoch {} is too far ahead of {current}", job.epoch),
                }
            } else {
                if job.epoch > current {
                    ring.advance_to(job.epoch).expect("monotone advance");
                }
                let absorbed = match &job.payload {
                    JobPayload::Full(fleet) => ring.absorb_epoch_from(job.agent, job.epoch, fleet),
                    // Replicated records ride the replay path: the
                    // primary's journal order already proved the delta
                    // chain, and the baseline may live only inside the
                    // catch-up snapshot here.
                    JobPayload::Delta(frame) if job.replay => {
                        ring.absorb_delta_replay(job.agent, frame)
                    }
                    JobPayload::Delta(frame) => ring.absorb_delta_from(job.agent, frame),
                };
                match absorbed {
                    Ok(outcome) => {
                        let counter = match outcome {
                            AbsorbOutcome::Absorbed => &shared.stats.frames_absorbed,
                            AbsorbOutcome::Duplicate => &shared.stats.duplicates,
                            AbsorbOutcome::Expired => &shared.stats.expired,
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        newly_absorbed = outcome == AbsorbOutcome::Absorbed;
                        let outcome = match outcome {
                            AbsorbOutcome::Absorbed => sbitmap_stream::net::AckOutcome::Absorbed,
                            AbsorbOutcome::Duplicate => sbitmap_stream::net::AckOutcome::Duplicate,
                            AbsorbOutcome::Expired => sbitmap_stream::net::AckOutcome::Expired,
                        };
                        match &job.payload {
                            JobPayload::Full(_) => Message::Ack {
                                epoch: job.epoch,
                                outcome,
                                term,
                            },
                            JobPayload::Delta(frame) => Message::AckDelta {
                                epoch: job.epoch,
                                round: frame.round,
                                outcome,
                                term,
                            },
                        }
                    }
                    Err(SBitmapError::MissingBaseline { epoch, round }) => {
                        // Not corruption: the chain head never landed
                        // (daemon restart, expiry race). The typed error
                        // tells the agent to resend the epoch from its
                        // round-0 baseline.
                        shared
                            .stats
                            .missing_baselines
                            .fetch_add(1, Ordering::Relaxed);
                        Message::Error {
                            code: ErrorCode::MissingBaseline,
                            context: epoch,
                            detail: format!(
                                "delta round {round} for epoch {epoch} has no absorbed baseline"
                            ),
                        }
                    }
                    Err(e) => {
                        shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                        Message::Error {
                            code: ErrorCode::BadFrame,
                            context: job.epoch,
                            detail: e.to_string(),
                        }
                    }
                }
            }
        };
        let mut journal_ok = true;
        let mut record = None;
        if newly_absorbed {
            // Replicated records are never re-shipped (no cascading
            // replication); local frames only need encoding when a
            // standby is actually attached.
            let want_ship = !job.replay && has_peers(shared);
            if let Some(d) = durability.as_mut() {
                match journal_absorbed(shared, d, &job) {
                    Ok(encoded) => {
                        if want_ship {
                            record = Some(Arc::new(encoded));
                        }
                    }
                    Err(detail) => {
                        // The frame reached memory but not the journal:
                        // do not ack it as durable. The typed error
                        // makes the agent retransmit once the disk
                        // recovers, and the retry lands as a guarded
                        // duplicate if it races.
                        shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                        journal_ok = false;
                        msg = Message::Error {
                            code: ErrorCode::Internal,
                            context: job.epoch,
                            detail,
                        };
                    }
                }
            } else if want_ship {
                record = Some(Arc::new(journal::encode_record(&JournalRecord {
                    source: job.agent,
                    epoch: job.epoch,
                    payload: job.wire.clone(),
                })));
            }
        }
        // Every ack routes through the completer so per-session ack
        // order matches absorb order even when only some frames ship.
        if comp_tx
            .send(CompleterEvent::Complete(Complete {
                msg,
                ack: job.ack,
                record,
            }))
            .is_err()
        {
            return;
        }
        if newly_absorbed && journal_ok {
            if let Some(d) = durability.as_mut() {
                maybe_snapshot(shared, d);
            }
        }
    }
    // Stop handing out the inlet, tell the completer no more frames are
    // coming, and let it flush every held ack before the ring is read
    // for the final drain summaries.
    *shared
        .repl_events
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    let _ = comp_tx.send(CompleterEvent::Shutdown);
    drop(comp_tx);
    let _ = completer.join();
}

/// Read events until a `Hello` arrives (tolerating deadline ticks up to
/// the idle limit); validate its role against `accept`; send `Welcome`
/// on success. A peer speaking at least [`PROTO_VERSION`] is answered at
/// `PROTO_VERSION`; an older one is refused with
/// [`ErrorCode::VersionMismatch`]. Returns the agent id and the peer's
/// role, or `None` when the session should close (the typed rejection
/// has already been queued).
///
/// Fencing happens here: a standby refuses `Ingest` and `Replicate`
/// hellos with [`ErrorCode::NotPrimary`], and so does a *primary* whose
/// term is older than the one the peer has already seen — a deposed
/// primary must not accept writes the rest of the fleet has moved past.
fn handshake(
    shared: &Shared,
    reader: &mut FrameReader<TcpStream>,
    out: &impl Fn(Message),
    accept: &[Role],
) -> Option<(u64, Role)> {
    let mut idle = Duration::ZERO;
    let (proto, role, agent, config) = loop {
        if shared.draining() {
            out(Message::Error {
                code: ErrorCode::Draining,
                context: 0,
                detail: "collector is draining".into(),
            });
            return None;
        }
        if shared.recovering() {
            // The ring is mid-replay: absorbing or answering now would
            // expose a state that is neither the crashed run nor the
            // recovered one. Agents retry; recovery is typically fast.
            out(Message::Error {
                code: ErrorCode::Recovering,
                context: 0,
                detail: "collector is replaying its journal".into(),
            });
            return None;
        }
        match reader.read_event() {
            Ok(ReadEvent::Message(Message::Hello {
                proto,
                role,
                agent,
                config,
            })) => break (proto, role, agent, config),
            Ok(ReadEvent::Message(_)) => {
                out(Message::Error {
                    code: ErrorCode::Protocol,
                    context: 0,
                    detail: "expected Hello".into(),
                });
                return None;
            }
            Ok(ReadEvent::Corrupt(detail)) => {
                // A corrupt handshake is rejected outright: there is no
                // session to keep alive yet.
                shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                out(Message::Error {
                    code: ErrorCode::BadFrame,
                    context: 0,
                    detail,
                });
                return None;
            }
            Ok(ReadEvent::TimedOut) => {
                idle += shared.cfg.read_deadline;
                if idle >= shared.cfg.idle_limit {
                    return None;
                }
            }
            Ok(ReadEvent::Closed) => return None,
            Err(NetError::Desync(detail)) => {
                shared.stats.desyncs.fetch_add(1, Ordering::Relaxed);
                out(Message::Error {
                    code: ErrorCode::Desync,
                    context: 0,
                    detail,
                });
                return None;
            }
            Err(NetError::Io(_)) => return None,
        }
    };
    if proto < PROTO_VERSION {
        shared
            .stats
            .handshake_rejects
            .fetch_add(1, Ordering::Relaxed);
        out(Message::Error {
            code: ErrorCode::VersionMismatch,
            context: u64::from(proto),
            detail: format!("collector speaks protocol {PROTO_VERSION}, peer spoke {proto}"),
        });
        return None;
    }
    if !accept.contains(&role) {
        shared
            .stats
            .handshake_rejects
            .fetch_add(1, Ordering::Relaxed);
        out(Message::Error {
            code: ErrorCode::Protocol,
            context: 0,
            detail: "wrong role for this port".into(),
        });
        return None;
    }
    if role != Role::Query {
        // Writes only land on the acting primary. `context` carries the
        // refusing collector's term so a failing-over agent learns how
        // far the fleet has moved.
        if shared.is_standby() {
            shared
                .stats
                .not_primary_rejects
                .fetch_add(1, Ordering::Relaxed);
            out(Message::Error {
                code: ErrorCode::NotPrimary,
                context: shared.term(),
                detail: "collector is a standby; promote it or dial the primary".into(),
            });
            return None;
        }
        if config.term > shared.term() {
            // The peer has seen a newer term than ours: we are a deposed
            // primary that missed its own fencing. Refusing here is the
            // split-brain guard for agents that reconnect to the old
            // address after a failover.
            shared
                .stats
                .not_primary_rejects
                .fetch_add(1, Ordering::Relaxed);
            out(Message::Error {
                code: ErrorCode::NotPrimary,
                context: shared.term(),
                detail: format!(
                    "peer has seen term {}, collector is fenced at term {}",
                    config.term,
                    shared.term()
                ),
            });
            return None;
        }
    }
    // Only writer sessions must agree on the sketch configuration; a
    // query client reads whatever the collector holds. The fencing term
    // is deliberately excluded from agreement — it is negotiated, not
    // configured.
    if role != Role::Query && !config.agrees_with(&shared.echo) {
        shared
            .stats
            .handshake_rejects
            .fetch_add(1, Ordering::Relaxed);
        out(Message::Error {
            code: ErrorCode::ConfigMismatch,
            context: 0,
            detail: format!("collector config {:?}, peer config {config:?}", shared.echo),
        });
        return None;
    }
    out(Message::Welcome {
        proto: PROTO_VERSION,
        credits: shared.cfg.credits,
        config: shared.echo.with_term(shared.term()),
    });
    Some((agent, role))
}

/// One ingest connection: handshake, then decode batches into absorb
/// jobs until EOF, desync, idle timeout or drain.
fn ingest_conn(shared: &Arc<Shared>, stream: TcpStream, job_tx: &mpsc::SyncSender<Job>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_deadline));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_deadline));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // Acks are produced by the absorber thread while this thread is
    // blocked reading, so writes go through a dedicated writer thread
    // fed by an unbounded channel (acks are small; the bound that
    // matters is the job queue).
    let (out_tx, out_rx) = mpsc::channel::<Message>();
    let writer = std::thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        // On error: keep draining so ack sends never block.
        let mut dead = false;
        while let Ok(msg) = out_rx.recv() {
            if !dead && out.write_all(&sbitmap_stream::net::encode(&msg)).is_err() {
                dead = true;
            }
            // Coalesce everything already queued into this flush: under
            // load the queue holds bursts (replication ships, ack runs)
            // and one syscall per burst beats one per message.
            while let Ok(msg) = out_rx.try_recv() {
                if !dead && out.write_all(&sbitmap_stream::net::encode(&msg)).is_err() {
                    dead = true;
                }
            }
            if !dead && out.flush().is_err() {
                dead = true;
            }
        }
    });
    let out = |msg: Message| {
        let _ = out_tx.send(msg);
    };

    let mut reader = FrameReader::new(stream);
    match handshake(shared, &mut reader, &out, &[Role::Ingest, Role::Replicate]) {
        Some((agent, Role::Ingest)) => {
            ingest_session(shared, &mut reader, &out_tx, job_tx, agent);
        }
        Some((agent, Role::Replicate)) => {
            replicate_sender_session(shared, &mut reader, &out_tx, agent);
        }
        _ => {}
    }
    drop(out_tx);
    let _ = writer.join();
}

/// The primary side of one attached standby: register with the
/// completer's peer list, ship a catch-up snapshot, then relay each
/// journal record the completer hands over and report its ack.
///
/// Registration happens *before* the ring checkpoint is taken, so every
/// record is covered exactly once-or-more: anything absorbed before the
/// checkpoint is inside it, anything after is queued to this peer, and
/// the overlap replays as OR-idempotent duplicates on the standby.
fn replicate_sender_session(
    shared: &Arc<Shared>,
    reader: &mut FrameReader<TcpStream>,
    out_tx: &mpsc::Sender<Message>,
    _agent: u64,
) {
    // The completer's event inlet exists once the absorber is past
    // recovery; a session that somehow lands earlier just closes.
    let Some(comp_tx) = shared
        .repl_events
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
    else {
        return;
    };
    static PEER_SEQ: AtomicU64 = AtomicU64::new(1);
    let peer_id = PEER_SEQ.fetch_add(1, Ordering::Relaxed);
    let alive = Arc::new(AtomicBool::new(true));
    {
        // Checkpoint, queue the snapshot and register while holding the
        // peers lock: the completer ships under the same lock, so no
        // record can slip onto the writer queue ahead of the snapshot,
        // and anything absorbed before registration is inside it —
        // every frame is covered once-or-more (the overlap replays as
        // OR-idempotent duplicates on the standby).
        let mut peers = shared
            .peers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let frame = lock_ring(&shared.ring).checkpoint();
        let _ = out_tx.send(Message::ReplicateSnapshot {
            term: shared.term(),
            frame,
        });
        peers.push(ReplPeer {
            id: peer_id,
            out: out_tx.clone(),
            alive: alive.clone(),
        });
    }
    // Records are shipped by the completer directly; this loop only
    // reads the standby's cumulative acks and forwards them as
    // `PeerAck` events. Deadline enforcement lives in the completer
    // (`expire_front`), which clears `alive` to evict us.
    loop {
        match reader.read_event() {
            Ok(ReadEvent::Message(Message::ReplicateAck { seq: acked, .. })) => {
                let _ = comp_tx.send(CompleterEvent::PeerAck {
                    peer: peer_id,
                    acked,
                });
            }
            Ok(ReadEvent::TimedOut) => {
                if shared.draining() || !alive.load(Ordering::SeqCst) {
                    break;
                }
            }
            Ok(ReadEvent::Message(Message::Goodbye)) | Ok(ReadEvent::Closed) | Err(_) => {
                break;
            }
            Ok(_) => {}
        }
    }
    // Anything still un-acked failed with the session; `PeerGone` makes
    // the completer count the drops and detach this peer.
    let _ = comp_tx.send(CompleterEvent::PeerGone { peer: peer_id });
    shared
        .peers
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .retain(|p| p.id != peer_id);
}

/// The post-handshake ingest loop.
fn ingest_session(
    shared: &Arc<Shared>,
    reader: &mut FrameReader<TcpStream>,
    out_tx: &mpsc::Sender<Message>,
    job_tx: &mpsc::SyncSender<Job>,
    agent: u64,
) {
    // Queue a decoded payload, blocking on the bounded job queue when
    // the absorber falls behind — up to the busy deadline, past which
    // the frame is shed with a typed `Busy` answer (overload must not
    // stall a socket forever). Returns `false` when the daemon side is
    // gone and the session should end.
    let enqueue = |epoch: u64, payload: JobPayload, wire: Vec<u8>| -> bool {
        let mut job = Job::Frame(FrameJob {
            epoch,
            agent,
            payload,
            wire,
            replay: false,
            ack: out_tx.clone(),
        });
        job = match job_tx.try_send(job) {
            Ok(()) => return true,
            Err(mpsc::TrySendError::Disconnected(_)) => return false,
            Err(mpsc::TrySendError::Full(job)) => {
                // The queue is the backpressure valve: stop reading the
                // socket and retry until the absorber catches up or the
                // shed deadline passes.
                shared
                    .stats
                    .backpressure_events
                    .fetch_add(1, Ordering::Relaxed);
                job
            }
        };
        let deadline = Instant::now() + shared.cfg.busy_timeout;
        loop {
            job = match job_tx.try_send(job) {
                Ok(()) => return true,
                Err(mpsc::TrySendError::Disconnected(_)) => return false,
                Err(mpsc::TrySendError::Full(job)) => job,
            };
            if Instant::now() >= deadline {
                shared.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                // The frame is dropped unacked; the hint tells the
                // agent how long to back off before retransmitting.
                let hint_ms = (shared.cfg.busy_timeout.as_millis() / 4).max(10) as u64;
                let _ = out_tx.send(Message::Error {
                    code: ErrorCode::Busy,
                    context: hint_ms,
                    detail: format!(
                        "absorb queue full past {:?}; retry in {hint_ms} ms",
                        shared.cfg.busy_timeout
                    ),
                });
                return true;
            }
            std::thread::sleep(BUSY_POLL);
        }
    };
    let mut idle = Duration::ZERO;
    loop {
        match reader.read_event() {
            Ok(ReadEvent::Message(Message::Batch {
                epoch,
                agent: frame_agent,
                frame,
            })) => {
                idle = Duration::ZERO;
                shared
                    .stats
                    .bytes_on_wire
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                // Trust the handshake identity over the per-frame echo;
                // a mismatch is a protocol slip worth flagging.
                if frame_agent != agent {
                    let _ = out_tx.send(Message::Error {
                        code: ErrorCode::Protocol,
                        context: epoch,
                        detail: format!("batch from agent {frame_agent} on session {agent}"),
                    });
                    continue;
                }
                match <FleetArena as Checkpoint>::restore(&frame) {
                    Err(e) => {
                        shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                        let _ = out_tx.send(Message::Error {
                            code: ErrorCode::BadFrame,
                            context: epoch,
                            detail: e.to_string(),
                        });
                    }
                    Ok(fleet) => {
                        if !enqueue(epoch, JobPayload::Full(Box::new(fleet)), frame) {
                            return;
                        }
                    }
                }
            }
            Ok(ReadEvent::Message(Message::BatchDelta {
                epoch,
                round,
                agent: frame_agent,
                frame,
            })) => {
                idle = Duration::ZERO;
                shared
                    .stats
                    .bytes_on_wire
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                if frame_agent != agent {
                    let _ = out_tx.send(Message::Error {
                        code: ErrorCode::Protocol,
                        context: epoch,
                        detail: format!("delta from agent {frame_agent} on session {agent}"),
                    });
                    continue;
                }
                match FleetDeltaFrame::decode(&frame) {
                    Ok(delta) if delta.epoch == epoch && delta.round == round => {
                        if !enqueue(epoch, JobPayload::Delta(delta), frame) {
                            return;
                        }
                    }
                    Ok(delta) => {
                        // The envelope must agree with the payload it
                        // carries, or acks would name the wrong frame.
                        shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                        let _ = out_tx.send(Message::Error {
                            code: ErrorCode::BadFrame,
                            context: epoch,
                            detail: format!(
                                "envelope says epoch {epoch} round {round}, frame says epoch {} round {}",
                                delta.epoch, delta.round
                            ),
                        });
                    }
                    Err(e) => {
                        shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                        let _ = out_tx.send(Message::Error {
                            code: ErrorCode::BadFrame,
                            context: epoch,
                            detail: e.to_string(),
                        });
                    }
                }
            }
            Ok(ReadEvent::Message(Message::Goodbye)) => {
                let _ = out_tx.send(Message::Goodbye);
                return;
            }
            Ok(ReadEvent::Message(_)) => {
                let _ = out_tx.send(Message::Error {
                    code: ErrorCode::Protocol,
                    context: 0,
                    detail: "unexpected message on an ingest session".into(),
                });
            }
            Ok(ReadEvent::Corrupt(detail)) => {
                // The headline robustness behavior: answer with a typed
                // error frame and keep the connection.
                shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                let _ = out_tx.send(Message::Error {
                    code: ErrorCode::BadFrame,
                    context: 0,
                    detail,
                });
            }
            Ok(ReadEvent::TimedOut) => {
                if shared.draining() {
                    let _ = out_tx.send(Message::Error {
                        code: ErrorCode::Draining,
                        context: 0,
                        detail: "collector is draining".into(),
                    });
                    return;
                }
                idle += shared.cfg.read_deadline;
                if idle >= shared.cfg.idle_limit {
                    return;
                }
            }
            Ok(ReadEvent::Closed) => return,
            Err(NetError::Desync(detail)) => {
                shared.stats.desyncs.fetch_add(1, Ordering::Relaxed);
                let _ = out_tx.send(Message::Error {
                    code: ErrorCode::Desync,
                    context: 0,
                    detail,
                });
                return;
            }
            Err(NetError::Io(_)) => return,
        }
    }
}

/// One query connection: strict request/reply on a single thread.
fn query_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_deadline));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_deadline));
    let mut reader = FrameReader::new(stream);
    // Replies are synchronous here, so the handshake writes directly.
    let pending = Mutex::new(Vec::new());
    let queue = |msg: Message| pending.lock().unwrap().push(msg);
    let accepted = handshake(shared, &mut reader, &queue, &[Role::Query]);
    for msg in pending.into_inner().unwrap() {
        if reader
            .inner_mut()
            .write_all(&sbitmap_stream::net::encode(&msg))
            .is_err()
        {
            return;
        }
    }
    if accepted.is_none() {
        return;
    }
    let mut idle = Duration::ZERO;
    loop {
        match reader.read_event() {
            Ok(ReadEvent::Message(Message::Query(req))) => {
                idle = Duration::ZERO;
                shared.stats.queries.fetch_add(1, Ordering::Relaxed);
                let reply = answer(shared, &req);
                let bytes = sbitmap_stream::net::encode(&Message::Reply(reply));
                if reader.inner_mut().write_all(&bytes).is_err() {
                    return;
                }
            }
            Ok(ReadEvent::Message(Message::Goodbye)) | Ok(ReadEvent::Closed) => return,
            Ok(ReadEvent::Message(_)) | Ok(ReadEvent::Corrupt(_)) => {
                let bytes = sbitmap_stream::net::encode(&Message::Error {
                    code: ErrorCode::Protocol,
                    context: 0,
                    detail: "query sessions accept Query frames only".into(),
                });
                if reader.inner_mut().write_all(&bytes).is_err() {
                    return;
                }
            }
            Ok(ReadEvent::TimedOut) => {
                if shared.draining() {
                    // Keep answering until the client leaves? No: the
                    // daemon is tearing down; tell the client and close.
                    let bytes = sbitmap_stream::net::encode(&Message::Error {
                        code: ErrorCode::Draining,
                        context: 0,
                        detail: "collector is draining".into(),
                    });
                    let _ = reader.inner_mut().write_all(&bytes);
                    return;
                }
                idle += shared.cfg.read_deadline;
                if idle >= shared.cfg.idle_limit {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Answer one query against the ring.
fn answer(shared: &Shared, req: &QueryRequest) -> QueryReply {
    match req {
        QueryRequest::Estimate(key) => {
            let ring = lock_ring(&shared.ring);
            if shared.cfg.panic_on_query == Some(*key) {
                // Test hook: die *while holding the ring lock* — the
                // regression fixture proving a poisoned ring mutex
                // cannot wedge later ingest or queries.
                panic!("injected query panic for key {key}");
            }
            QueryReply::Estimate(ring.estimate(*key))
        }
        QueryRequest::Fill(key) => {
            QueryReply::Fill(lock_ring(&shared.ring).window_fill(*key).map(|f| f as u64))
        }
        QueryRequest::TopK(k) => {
            let mut rows = lock_ring(&shared.ring).estimates_sorted();
            rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            rows.truncate(usize::try_from(*k).unwrap_or(usize::MAX).min(rows.len()));
            QueryReply::TopK(rows)
        }
        QueryRequest::Summary => {
            let estimates = lock_ring(&shared.ring).estimates_sorted();
            let mut sample: Vec<f64> = estimates.iter().map(|&(_, e)| e).collect();
            let quantiles = if sample.is_empty() {
                Vec::new()
            } else {
                quantile_summary(&mut sample)
            };
            QueryReply::Summary {
                keys: estimates.len() as u64,
                quantiles,
            }
        }
        QueryRequest::Status => {
            let s = &shared.stats;
            QueryReply::Status {
                role: shared.node_role(),
                term: shared.term(),
                journal_seq: shared.journal_seq.load(Ordering::SeqCst),
                absorbed: s.frames_absorbed.load(Ordering::Relaxed),
                shed: s.busy_rejections.load(Ordering::Relaxed),
                replicated: s.replicated_frames.load(Ordering::Relaxed),
                peers: shared
                    .peers
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len() as u64,
            }
        }
        QueryRequest::Promote => QueryReply::Promoted {
            term: shared.promote(),
        },
        QueryRequest::Drain => {
            shared.shutdown.store(true, Ordering::SeqCst);
            QueryReply::Draining
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::query_once;

    #[test]
    fn finished_connection_handlers_are_reaped() {
        let daemon = Daemon::start(DaemonConfig {
            read_deadline: Duration::from_millis(10),
            ..DaemonConfig::default()
        })
        .unwrap();
        let ask = || {
            let s = TcpStream::connect(daemon.query_addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
            match query_once(s, &QueryRequest::Status, Duration::from_secs(2)).unwrap() {
                Message::Reply(_) => {}
                other => panic!("expected Reply, got {other:?}"),
            }
        };
        // 1,000 one-shot sessions from four clients at once.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..250).for_each(|_| ask()));
            }
        });
        // Let the last handlers wind down; the next accept reaps them.
        let deadline = Instant::now() + Duration::from_secs(5);
        while daemon
            .handlers
            .lock()
            .unwrap()
            .live
            .iter()
            .any(|t| !t.is_finished())
        {
            assert!(Instant::now() < deadline, "query handlers never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
        ask();
        assert_eq!(
            daemon.handlers.lock().unwrap().live.len(),
            1,
            "only the newest session's handler may still be held"
        );
        daemon.drain();
        let report = daemon.join().unwrap();
        assert_eq!(report.connections, 1_001);
        assert_eq!(report.handler_panics, 0);
    }
}
