//! A transport wrapper that timestamps session frames from outside the
//! client, and paces an open-loop agent.
//!
//! The agent and `query_once` take any `Read + Write` transport, so the
//! benchmark hands them a [`Tap`] around the TCP stream. Every byte in
//! either direction is fed through the public session frame reader;
//! the decoded frames (batch writes, acks, handshake and query
//! replies) are logged with the instant they crossed the socket. Frames
//! are matched by `(epoch, round)` afterwards, so no timing code runs
//! inside the agent.
//!
//! A reader thread per tap blocks on the socket and logs what arrives
//! the moment it arrives, whatever the client is doing; the client
//! reads those bytes from a channel. A socket read timeout cannot do
//! this: the kernel rounds it up to whole timer ticks (8 ms on a
//! 250 Hz kernel), far longer than the gaps between paced frames.
//!
//! Pacing: with a [`Pacer`], the first write of frame *k* is held until
//! `t0 + k / rate`. Acks that arrive during the hold are logged by the
//! reader thread and handed to the agent on its next read.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::rc::Rc;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sbitmap_stream::net::{AckOutcome, FrameReader, Message, ReadEvent};

/// What the log keeps of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Agent → collector delta round.
    Batch { epoch: u64, round: u32 },
    /// Collector → agent delta ack.
    Ack {
        epoch: u64,
        round: u32,
        outcome: AckOutcome,
    },
    /// Handshake accepted.
    Welcome,
    /// A query request left.
    Query,
    /// A query reply arrived.
    Reply,
    /// Anything else (hello, goodbye, errors, ...).
    Other,
}

impl Event {
    fn of(msg: &Message) -> Self {
        match msg {
            Message::BatchDelta { epoch, round, .. } => Event::Batch {
                epoch: *epoch,
                round: *round,
            },
            Message::AckDelta {
                epoch,
                round,
                outcome,
                ..
            } => Event::Ack {
                epoch: *epoch,
                round: *round,
                outcome: *outcome,
            },
            Message::Welcome { .. } => Event::Welcome,
            Message::Query(_) => Event::Query,
            Message::Reply(_) => Event::Reply,
            _ => Event::Other,
        }
    }
}

/// Everything one client's taps saw, across reconnects.
#[derive(Debug, Default)]
pub struct Log {
    /// `(instant, event)` in observation order. A paced batch is logged
    /// at its due time, not at the (later or equal) write.
    pub events: Vec<(Instant, Event)>,
    /// Time spent inside the socket's `write_all`.
    pub write_block: Duration,
    /// Socket writes made.
    pub writes: u64,
    /// Frames that failed their checksum or decode.
    pub corrupt: u64,
}

/// Open-loop schedule: the first write of the *k*-th distinct frame is
/// due at `t0 + k · interval`, `t0` being the first frame's write.
#[derive(Debug)]
pub struct Pacer {
    interval: Duration,
    t0: Option<Instant>,
    seen: HashSet<(u64, u32)>,
    /// Largest gap between a frame's due time and its write.
    pub late_max: Duration,
}

impl Pacer {
    pub fn new(rate_per_s: f64) -> Self {
        Self {
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
            t0: None,
            seen: HashSet::new(),
            late_max: Duration::ZERO,
        }
    }

    /// The due time of a frame's first write; `None` for a resend.
    fn due(&mut self, key: (u64, u32)) -> Option<Instant> {
        if !self.seen.insert(key) {
            return None;
        }
        let t0 = *self.t0.get_or_insert_with(Instant::now);
        let k = (self.seen.len() - 1) as u32;
        Some(t0 + self.interval * k)
    }
}

/// Bytes waiting to be decoded; reads past the end would block.
#[derive(Debug, Default)]
struct ByteQueue(VecDeque<u8>);

impl Read for ByteQueue {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.0.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.0.read(buf)
    }
}

/// An incremental decoder for one direction of a session.
#[derive(Debug)]
struct Decoder(FrameReader<ByteQueue>);

impl Decoder {
    fn new() -> Self {
        Self(FrameReader::new(ByteQueue::default()))
    }

    /// Feed bytes and return every message they complete.
    fn feed(&mut self, bytes: &[u8], corrupt: &mut u64) -> Vec<Message> {
        self.0.inner_mut().0.extend(bytes);
        let mut out = Vec::new();
        loop {
            match self.0.read_event() {
                Ok(ReadEvent::Message(msg)) => out.push(msg),
                Ok(ReadEvent::Corrupt(_)) => *corrupt += 1,
                Ok(ReadEvent::TimedOut) | Ok(ReadEvent::Closed) => return out,
                Err(_) => {
                    // Frame boundaries are lost: count it and stop
                    // decoding this direction.
                    *corrupt += 1;
                    self.0 = FrameReader::new(ByteQueue::default());
                    return out;
                }
            }
        }
    }
}

/// A log shared by a client's taps and their reader threads.
pub type SharedLog = Arc<Mutex<Log>>;

fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, Log> {
    log.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The wrapped transport handed to the agent or the query client.
pub struct Tap {
    inner: TcpStream,
    read_timeout: Option<Duration>,
    log: SharedLog,
    pacer: Option<Rc<RefCell<Pacer>>>,
    sent: Decoder,
    /// What the reader thread took off the socket, in order; an empty
    /// chunk is the end of the stream.
    arrived: Receiver<io::Result<Vec<u8>>>,
    reader: Option<JoinHandle<()>>,
    /// Arrived bytes not yet handed to the client.
    held: VecDeque<u8>,
    eof: bool,
}

impl Tap {
    /// Wrap `inner`. Client reads time out after `read_timeout`, as a
    /// socket read timeout would.
    pub fn new(
        inner: TcpStream,
        read_timeout: Option<Duration>,
        log: SharedLog,
        pacer: Option<Rc<RefCell<Pacer>>>,
    ) -> io::Result<Self> {
        let mut socket = inner.try_clone()?;
        socket.set_read_timeout(None)?;
        let (tx, arrived) = mpsc::channel();
        let reader = {
            let log = log.clone();
            std::thread::spawn(move || {
                let mut received = Decoder::new();
                let mut buf = vec![0u8; 64 * 1024];
                loop {
                    let chunk = match socket.read(&mut buf) {
                        Ok(n) => Ok(buf[..n].to_vec()),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => Err(e),
                    };
                    if let Ok(bytes) = &chunk {
                        let at = Instant::now();
                        let mut log = lock(&log);
                        let msgs = received.feed(bytes, &mut log.corrupt);
                        log.events.extend(msgs.iter().map(|m| (at, Event::of(m))));
                    }
                    let end = !matches!(&chunk, Ok(b) if !b.is_empty());
                    if tx.send(chunk).is_err() || end {
                        return;
                    }
                }
            })
        };
        Ok(Self {
            inner,
            read_timeout,
            log,
            pacer,
            sent: Decoder::new(),
            arrived,
            reader: Some(reader),
            held: VecDeque::new(),
            eof: false,
        })
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        // Ends the reader thread's blocking read.
        let _ = self.inner.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Write for Tap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut at = Instant::now();
        let msgs = self.sent.feed(buf, &mut lock(&self.log).corrupt);
        let events: Vec<Event> = msgs.iter().map(Event::of).collect();
        if let Some(pacer) = &self.pacer {
            for ev in &events {
                let Event::Batch { epoch, round } = *ev else {
                    continue;
                };
                let Some(due) = pacer.borrow_mut().due((epoch, round)) else {
                    continue;
                };
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let mut p = pacer.borrow_mut();
                p.late_max = p
                    .late_max
                    .max(Instant::now().saturating_duration_since(due));
                at = due;
            }
        }
        // Logged before the write, so an ack is never logged ahead of
        // its frame.
        lock(&self.log)
            .events
            .extend(events.into_iter().map(|e| (at, e)));
        let t = Instant::now();
        self.inner.write_all(buf)?;
        let mut log = lock(&self.log);
        log.write_block += t.elapsed();
        log.writes += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Read for Tap {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.held.is_empty() && !self.eof {
            let chunk = match self.read_timeout {
                Some(t) => self.arrived.recv_timeout(t),
                None => self.arrived.recv().map_err(RecvTimeoutError::from),
            };
            match chunk {
                Ok(Ok(bytes)) if bytes.is_empty() => self.eof = true,
                Ok(Ok(bytes)) => self.held.extend(bytes),
                Ok(Err(e)) => {
                    self.eof = true;
                    return Err(e);
                }
                Err(RecvTimeoutError::Timeout) => return Err(io::ErrorKind::WouldBlock.into()),
                Err(RecvTimeoutError::Disconnected) => self.eof = true,
            }
        }
        self.held.read(buf)
    }
}

/// Ack latencies of one agent's log, matched by `(epoch, round)`.
#[derive(Debug, Default, PartialEq)]
pub struct Matched {
    /// Microseconds from each frame's first write (or due time) to its
    /// first ack after that write.
    pub latencies_us: Vec<f64>,
    /// Distinct frames written that never saw an ack.
    pub unacked: u64,
    /// First write of the first frame.
    pub first_write: Option<Instant>,
    /// The last ack matched.
    pub last_ack: Option<Instant>,
}

/// Pair every distinct frame's first write with the first ack that
/// names it. Resends do not restart the clock; acks of unknown frames
/// are ignored.
pub fn match_frames(events: &[(Instant, Event)]) -> Matched {
    let mut open: HashMap<(u64, u32), Instant> = HashMap::new();
    let mut done: HashSet<(u64, u32)> = HashSet::new();
    let mut out = Matched::default();
    for &(at, ev) in events {
        match ev {
            Event::Batch { epoch, round } => {
                let key = (epoch, round);
                if !done.contains(&key) {
                    open.entry(key).or_insert(at);
                }
                out.first_write = Some(out.first_write.map_or(at, |f| f.min(at)));
            }
            Event::Ack { epoch, round, .. } => {
                if let Some(sent) = open.remove(&(epoch, round)) {
                    done.insert((epoch, round));
                    out.latencies_us
                        .push(at.saturating_duration_since(sent).as_secs_f64() * 1e6);
                    out.last_ack = Some(out.last_ack.map_or(at, |l| l.max(at)));
                }
            }
            _ => {}
        }
    }
    out.unacked = open.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn us(t0: Instant, n: u64) -> Instant {
        t0 + Duration::from_micros(n)
    }

    fn ack(epoch: u64, round: u32) -> Event {
        Event::Ack {
            epoch,
            round,
            outcome: AckOutcome::Absorbed,
        }
    }

    #[test]
    fn frames_match_by_epoch_and_round_from_first_write() {
        let t0 = Instant::now();
        let events = vec![
            (us(t0, 0), Event::Batch { epoch: 0, round: 0 }),
            (us(t0, 5), Event::Batch { epoch: 0, round: 1 }),
            (us(t0, 9), Event::Batch { epoch: 1, round: 0 }),
            // Acks out of order; round 1's resend must not reset its clock.
            (us(t0, 20), ack(0, 1)),
            (us(t0, 30), Event::Batch { epoch: 0, round: 0 }),
            (us(t0, 40), ack(0, 0)),
            // The resend's ack and a stray ack change nothing.
            (us(t0, 50), ack(0, 0)),
            (us(t0, 60), ack(7, 7)),
        ];
        let m = match_frames(&events);
        assert_eq!(m.latencies_us, vec![15.0, 40.0]);
        assert_eq!(m.unacked, 1, "epoch 1 round 0 was never acked");
        assert_eq!(m.first_write, Some(t0));
        assert_eq!(m.last_ack, Some(us(t0, 40)));
    }

    #[test]
    fn tap_decodes_both_directions_and_paces_first_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(s.try_clone().unwrap());
            for _ in 0..3 {
                let ReadEvent::Message(Message::BatchDelta { epoch, round, .. }) =
                    reader.read_event().unwrap()
                else {
                    panic!("expected a batch");
                };
                let reply = Message::AckDelta {
                    epoch,
                    round,
                    outcome: AckOutcome::Absorbed,
                    term: 1,
                };
                s.write_all(&sbitmap_stream::net::encode(&reply)).unwrap();
            }
        });
        let stream = TcpStream::connect(addr).unwrap();
        let timeout = Some(Duration::from_millis(50));
        stream.set_read_timeout(timeout).unwrap();
        let log = SharedLog::default();
        let pacer = Rc::new(RefCell::new(Pacer::new(100.0)));
        let mut tap = Tap::new(stream, timeout, log.clone(), Some(pacer.clone())).unwrap();
        let batch = |round| Message::BatchDelta {
            epoch: 3,
            round,
            agent: 1,
            frame: vec![1, 2, 3],
        };
        let start = Instant::now();
        // Three frames written back to back are held to 10 ms spacing;
        // the acks of the earlier ones are read during the holds.
        for round in 0..3 {
            tap.write_all(&sbitmap_stream::net::encode(&batch(round)))
                .unwrap();
        }
        assert!(start.elapsed() >= Duration::from_millis(20));
        let mut reader = FrameReader::new(tap);
        let mut acked = 0;
        while acked < 3 {
            if let ReadEvent::Message(Message::AckDelta { .. }) = reader.read_event().unwrap() {
                acked += 1;
            }
        }
        echo.join().unwrap();
        drop(reader);
        let log = lock(&log);
        let m = match_frames(&log.events);
        assert_eq!(m.latencies_us.len(), 3);
        assert_eq!(m.unacked, 0);
        assert_eq!(log.corrupt, 0);
        let batches: Vec<Instant> = log
            .events
            .iter()
            .filter(|(_, e)| matches!(e, Event::Batch { .. }))
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(batches[1] - batches[0], Duration::from_millis(10));
        assert_eq!(batches[2] - batches[0], Duration::from_millis(20));
    }
}
