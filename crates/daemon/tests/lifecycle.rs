//! Daemon lifecycle edges: handshake rejection, mid-frame death,
//! backpressure, duplicate delivery, graceful drain, and the query port.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbitmap_core::codec::Checkpoint;
use sbitmap_core::{FleetArena, RateSchedule, WindowedFleet};
use sbitmap_daemon::{query_once, run_agent, run_loopback, AgentConfig, Daemon, DaemonConfig};
use sbitmap_stream::net::{
    encode, AckOutcome, ConfigEcho, ErrorCode, FrameReader, Message, QueryReply, QueryRequest,
    ReadEvent, Role, PROTO_VERSION,
};
use sbitmap_stream::{
    quantile_summary, run_windowed_pipeline, DeltaFrameSource, WindowedPipelineConfig,
};

fn pcfg() -> WindowedPipelineConfig {
    WindowedPipelineConfig {
        links: 12,
        shards: 2,
        n_max: 50_000,
        m_bits: 2_000,
        window: 3,
        epochs: 5,
        rounds: 2,
        seed: 7,
    }
}

fn dcfg() -> DaemonConfig {
    DaemonConfig {
        n_max: 50_000,
        m_bits: 2_000,
        seed: 7,
        window: 3,
        read_deadline: Duration::from_millis(10),
        write_deadline: Duration::from_millis(500),
        idle_limit: Duration::from_secs(3),
        ..DaemonConfig::default()
    }
}

/// A raw protocol client for poking the daemon directly.
struct Client {
    reader: FrameReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        Self {
            reader: FrameReader::new(stream),
        }
    }

    fn send(&mut self, msg: &Message) {
        use std::io::Write;
        self.reader.inner_mut().write_all(&encode(msg)).unwrap();
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        use std::io::Write;
        self.reader.inner_mut().write_all(bytes).unwrap();
    }

    /// Next decoded message, waiting up to 2 s.
    fn recv(&mut self) -> Message {
        let start = Instant::now();
        loop {
            match self.reader.read_event() {
                Ok(ReadEvent::Message(m)) => return m,
                Ok(ReadEvent::TimedOut) => {
                    assert!(start.elapsed() < Duration::from_secs(2), "no reply in 2s");
                }
                other => panic!("unexpected read event: {other:?}"),
            }
        }
    }

    fn hello(&mut self, agent: u64, config: ConfigEcho) -> Message {
        self.send(&Message::Hello {
            proto: PROTO_VERSION,
            role: Role::Ingest,
            agent,
            config,
        });
        self.recv()
    }
}

/// A one-epoch tag-9 fleet frame matching `dcfg()`'s sketch shape.
fn test_frame(keys: &[u64]) -> Vec<u8> {
    let cfg = dcfg();
    let schedule = Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).unwrap());
    let mut fleet: FleetArena = FleetArena::with_schedule(schedule, cfg.seed);
    for &k in keys {
        fleet.touch(k);
        for item in 0..50u64 {
            fleet.insert_u64(k, k.wrapping_mul(1000) + item);
        }
    }
    fleet.checkpoint()
}

/// `shard`'s tag-9 epoch frames for [`run_agent`]: each epoch's final
/// full checkpoint, byte-identical to the frame `run_windowed_pipeline`
/// ships for that shard.
fn full_frames(pcfg: &WindowedPipelineConfig, shard: usize) -> Vec<(u64, Vec<u8>)> {
    DeltaFrameSource::new(pcfg, shard)
        .unwrap()
        .collect_epochs()
        .into_iter()
        .map(|mut ef| (ef.epoch, ef.fulls.pop().unwrap()))
        .collect()
}

#[test]
fn handshake_rejects_wrong_version_with_typed_error() {
    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    // Every proto below the daemon's is refused, including proto 1
    // (full frames only): there is no downgrade.
    let old_protos = [0, 1];
    for proto in old_protos {
        let mut c = Client::connect(daemon.ingest_addr());
        c.send(&Message::Hello {
            proto,
            role: Role::Ingest,
            agent: 1,
            config: echo,
        });
        match c.recv() {
            Message::Error { code, context, .. } => {
                assert_eq!(code, ErrorCode::VersionMismatch, "proto {proto}");
                assert_eq!(
                    context,
                    u64::from(proto),
                    "context carries the peer's version"
                );
            }
            other => panic!("proto {proto}: expected VersionMismatch error, got {other:?}"),
        }
    }
    // A peer from the future is fine: the session settles on the
    // highest version the daemon speaks.
    let mut future = Client::connect(daemon.ingest_addr());
    future.send(&Message::Hello {
        proto: 99,
        role: Role::Ingest,
        agent: 2,
        config: echo,
    });
    match future.recv() {
        Message::Welcome { proto, .. } => assert_eq!(proto, PROTO_VERSION),
        other => panic!("expected negotiated Welcome, got {other:?}"),
    }
    drop(future);
    // The daemon survives the rejection: a correct handshake succeeds.
    let mut ok = Client::connect(daemon.ingest_addr());
    match ok.hello(1, echo) {
        Message::Welcome {
            proto,
            credits,
            config,
        } => {
            assert_eq!(proto, PROTO_VERSION);
            assert!(credits >= 1);
            // The welcome's term is the daemon's, not ours — compare
            // everything else.
            assert!(config.agrees_with(&echo));
        }
        other => panic!("expected Welcome, got {other:?}"),
    }
    drop(ok);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.handshake_rejects, old_protos.len() as u64);
}

#[test]
fn handshake_rejects_config_mismatch() {
    let daemon = Daemon::start(dcfg()).unwrap();
    let mut wrong = daemon.config_echo();
    wrong.seed ^= 1;
    let mut c = Client::connect(daemon.ingest_addr());
    match c.hello(1, wrong) {
        Message::Error { code, .. } => assert_eq!(code, ErrorCode::ConfigMismatch),
        other => panic!("expected ConfigMismatch error, got {other:?}"),
    }
    drop(c);
    daemon.drain();
    assert_eq!(daemon.join().unwrap().handshake_rejects, 1);
}

#[test]
fn delta_without_baseline_draws_typed_error_and_resync_succeeds() {
    // The daemon-side resync contract, poked raw: a round-1 delta whose
    // epoch has no absorbed baseline is answered with a typed
    // `MissingBaseline` error (the connection survives), and replaying
    // the chain from round 0 then lands every frame.
    let one_shard = WindowedPipelineConfig {
        shards: 1,
        epochs: 1,
        ..pcfg()
    };
    let backlog = DeltaFrameSource::new(&one_shard, 0)
        .unwrap()
        .collect_epochs();
    let deltas = &backlog[0].deltas;
    assert!(deltas.len() >= 2, "need a baseline and a follow-up round");

    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    let mut c = Client::connect(daemon.ingest_addr());
    match c.hello(1, echo) {
        Message::Welcome { proto, .. } => assert_eq!(proto, PROTO_VERSION),
        other => panic!("expected Welcome, got {other:?}"),
    }
    c.send(&Message::BatchDelta {
        epoch: 0,
        round: 1,
        agent: 1,
        frame: deltas[1].clone(),
    });
    match c.recv() {
        Message::Error { code, context, .. } => {
            assert_eq!(code, ErrorCode::MissingBaseline);
            assert_eq!(context, 0, "context names the epoch to resync");
        }
        other => panic!("expected MissingBaseline error, got {other:?}"),
    }
    // The session survived; replay from the baseline.
    for (round, frame) in deltas.iter().enumerate() {
        c.send(&Message::BatchDelta {
            epoch: 0,
            round: round as u32,
            agent: 1,
            frame: frame.clone(),
        });
        match c.recv() {
            Message::AckDelta {
                epoch,
                round: r,
                outcome,
                ..
            } => {
                assert_eq!((epoch, r), (0, round as u32));
                assert_eq!(outcome, AckOutcome::Absorbed);
            }
            other => panic!("round {round}: expected AckDelta, got {other:?}"),
        }
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.missing_baselines, 1);
    assert_eq!(report.frames_absorbed as usize, deltas.len());
    assert_eq!(report.bad_frames, 0, "a missing baseline is not corruption");
}

#[test]
fn mid_frame_disconnect_leaves_the_daemon_healthy() {
    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    {
        let mut c = Client::connect(daemon.ingest_addr());
        assert!(matches!(c.hello(1, echo), Message::Welcome { .. }));
        let batch = encode(&Message::Batch {
            epoch: 0,
            agent: 1,
            frame: test_frame(&[3]),
        });
        // Half a frame, then vanish.
        c.send_raw(&batch[..batch.len() / 2]);
    }
    // A well-behaved session on a fresh connection still works.
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(c.hello(2, echo), Message::Welcome { .. }));
    c.send(&Message::Batch {
        epoch: 0,
        agent: 2,
        frame: test_frame(&[3]),
    });
    match c.recv() {
        Message::Ack { epoch, outcome, .. } => {
            assert_eq!(epoch, 0);
            assert_eq!(outcome, AckOutcome::Absorbed);
        }
        other => panic!("expected Ack, got {other:?}"),
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.frames_absorbed, 1);
    assert_eq!(report.estimates.len(), 1, "the half frame left no state");
}

#[test]
fn corrupt_frame_draws_error_frame_and_connection_survives() {
    let daemon = Daemon::start(dcfg()).unwrap();
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(
        c.hello(1, daemon.config_echo()),
        Message::Welcome { .. }
    ));
    let mut batch = encode(&Message::Batch {
        epoch: 0,
        agent: 1,
        frame: test_frame(&[5]),
    });
    // Flip one payload byte: checksum fails, frame boundary survives.
    let mid = batch.len() / 2;
    batch[mid] ^= 0x40;
    c.send_raw(&batch);
    match c.recv() {
        Message::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    // Same connection, clean retransmit: absorbed.
    c.send(&Message::Batch {
        epoch: 0,
        agent: 1,
        frame: test_frame(&[5]),
    });
    match c.recv() {
        Message::Ack { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
        other => panic!("expected Ack, got {other:?}"),
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.bad_frames, 1);
    assert_eq!(report.desyncs, 0, "a payload flip must not desync");
    assert_eq!(report.frames_absorbed, 1);
}

#[test]
fn duplicate_frames_are_acked_duplicate_and_change_nothing() {
    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    let frame = test_frame(&[1, 2]);
    let ack = |c: &mut Client| match c.recv() {
        Message::Ack { outcome, .. } => outcome,
        other => panic!("expected Ack, got {other:?}"),
    };
    let batch = |agent| Message::Batch {
        epoch: 0,
        agent,
        frame: frame.clone(),
    };

    // Same session, same agent: first absorbed, replay skipped.
    let mut a = Client::connect(daemon.ingest_addr());
    assert!(matches!(a.hello(1, echo), Message::Welcome { .. }));
    a.send(&batch(1));
    assert_eq!(ack(&mut a), AckOutcome::Absorbed);
    a.send(&batch(1));
    assert_eq!(ack(&mut a), AckOutcome::Duplicate);
    drop(a);

    // Reconnect as the same agent: the guard keys on identity, not
    // connection, so the replay is still a duplicate.
    let mut b = Client::connect(daemon.ingest_addr());
    assert!(matches!(b.hello(1, echo), Message::Welcome { .. }));
    b.send(&batch(1));
    assert_eq!(ack(&mut b), AckOutcome::Duplicate);
    drop(b);

    // A different agent is a different source: absorbed (the union is
    // idempotent, so state still cannot change).
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(c.hello(2, echo), Message::Welcome { .. }));
    c.send(&batch(2));
    assert_eq!(ack(&mut c), AckOutcome::Absorbed);
    drop(c);

    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.frames_absorbed, 2);
    assert_eq!(report.duplicates, 2);

    // The drained state equals one clean absorb of the frame.
    let cfg = dcfg();
    let schedule = Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).unwrap());
    let mut expected: WindowedFleet =
        WindowedFleet::with_schedule(schedule, cfg.seed, cfg.window).unwrap();
    let fleet: FleetArena = Checkpoint::restore(&frame).unwrap();
    assert!(expected.absorb_epoch(0, &fleet).unwrap());
    assert_eq!(report.estimates, expected.estimates());
    assert_eq!(report.final_checkpoint, expected.checkpoint());
}

#[test]
fn slow_absorber_engages_backpressure_without_losing_frames() {
    let daemon = Daemon::start(DaemonConfig {
        queue_frames: 1,
        credits: 8,
        absorb_stall: Duration::from_millis(25),
        ..dcfg()
    })
    .unwrap();
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(
        c.hello(1, daemon.config_echo()),
        Message::Welcome { .. }
    ));
    // Fire a burst far faster than 25 ms/frame; the bounded queue must
    // fill and the handler must block (stop reading) rather than drop.
    for epoch in 0..6u64 {
        c.send(&Message::Batch {
            epoch,
            agent: 1,
            frame: test_frame(&[epoch + 10]),
        });
    }
    let mut acked = 0;
    while acked < 6 {
        if let Message::Ack { outcome, .. } = c.recv() {
            assert_eq!(outcome, AckOutcome::Absorbed);
            acked += 1;
        }
    }
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.frames_absorbed, 6);
    assert!(
        report.backpressure_events > 0,
        "a 1-deep queue under a 6-frame burst must report backpressure"
    );
}

#[test]
fn overload_sheds_typed_busy_and_retransmits_land_every_frame() {
    // Queue of 1, 30 ms per absorb, 10 ms shed deadline: a 6-frame
    // burst must draw at least one typed `Busy` answer (with a
    // retry-after hint) instead of stalling the socket, and patient
    // retransmission must still land all 6 frames exactly once.
    let daemon = Daemon::start(DaemonConfig {
        queue_frames: 1,
        credits: 8,
        absorb_stall: Duration::from_millis(30),
        busy_timeout: Duration::from_millis(10),
        ..dcfg()
    })
    .unwrap();
    let mut c = Client::connect(daemon.ingest_addr());
    assert!(matches!(
        c.hello(1, daemon.config_echo()),
        Message::Welcome { .. }
    ));
    let frames: Vec<Vec<u8>> = (0..6u64).map(|e| test_frame(&[e + 20])).collect();
    let mut absorbed = std::collections::HashSet::new();
    let mut busy_seen = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while absorbed.len() < 6 {
        assert!(
            Instant::now() < deadline,
            "overloaded collector never converged; absorbed {absorbed:?}"
        );
        let outstanding: Vec<u64> = (0..6u64).filter(|e| !absorbed.contains(e)).collect();
        for &epoch in &outstanding {
            c.send(&Message::Batch {
                epoch,
                agent: 1,
                frame: frames[epoch as usize].clone(),
            });
        }
        // One reply per send: an Ack (absorbed or guard duplicate), or
        // a typed Busy for a shed frame.
        for _ in &outstanding {
            match c.recv() {
                Message::Ack { epoch, .. } => {
                    absorbed.insert(epoch);
                }
                Message::Error {
                    code: ErrorCode::Busy,
                    context,
                    ..
                } => {
                    busy_seen += 1;
                    assert!(context > 0, "the Busy answer must carry a retry-after hint");
                }
                other => panic!("expected Ack or Busy, got {other:?}"),
            }
        }
    }
    assert!(busy_seen > 0, "a 1-deep queue under this burst must shed");
    drop(c);
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.frames_absorbed, 6, "every frame lands exactly once");
    assert!(report.busy_rejections > 0);
    assert_eq!(report.busy_rejections, busy_seen);
}

#[test]
fn agent_backs_off_on_busy_and_still_delivers_everything() {
    let daemon = Daemon::start(DaemonConfig {
        queue_frames: 1,
        credits: 8,
        absorb_stall: Duration::from_millis(20),
        busy_timeout: Duration::from_millis(5),
        ..dcfg()
    })
    .unwrap();
    let pcfg = WindowedPipelineConfig {
        shards: 1,
        ..pcfg()
    };
    let frames = full_frames(&pcfg, 0);
    let ingest = daemon.ingest_addr();
    let acfg = AgentConfig {
        max_attempts: 200,
        ack_timeout: Duration::from_millis(300),
        ..AgentConfig::new(1, daemon.config_echo())
    };
    let report = run_agent(&acfg, frames, |_| {
        let s = TcpStream::connect(ingest)?;
        s.set_read_timeout(Some(Duration::from_millis(10)))?;
        Ok(s)
    })
    .unwrap();
    assert!(
        report.busy_backoffs > 0,
        "the overloaded collector must shed at least once"
    );
    assert_eq!(report.frames_acked as usize, pcfg.epochs);
    daemon.drain();
    let dreport = daemon.join().unwrap();
    assert!(dreport.busy_rejections > 0);
    assert_eq!(
        dreport.frames_absorbed as usize, pcfg.epochs,
        "shedding plus at-least-once retransmission loses nothing"
    );
}

#[test]
fn graceful_drain_checkpoint_matches_the_uninterrupted_pipeline() {
    let pcfg = pcfg();
    let path = std::env::temp_dir().join(format!("sbitmapd-drain-{}.ckpt", std::process::id()));
    let out = run_loopback(
        &pcfg,
        DaemonConfig {
            checkpoint_path: Some(path.clone()),
            ..dcfg()
        },
        &[],
    )
    .unwrap();

    // The ring the daemon drained equals the in-process pipeline's.
    let reference = run_windowed_pipeline(&pcfg).unwrap();
    let expected: Vec<(u64, f64)> = reference
        .links
        .iter()
        .map(|r| (r.link as u64, r.estimate))
        .collect();
    assert_eq!(out.report.estimates, expected);

    // And the on-disk checkpoint restores to the same state.
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(bytes, out.report.final_checkpoint);
    let restored: WindowedFleet = Checkpoint::restore(&bytes).unwrap();
    assert_eq!(restored.estimates(), expected);
    assert_eq!(restored.current_epoch(), pcfg.epochs as u64 - 1);
}

#[test]
fn query_port_answers_every_kind_and_drains() {
    let pcfg = WindowedPipelineConfig {
        shards: 1,
        ..pcfg()
    };
    let daemon = Daemon::start(dcfg()).unwrap();
    let echo = daemon.config_echo();
    let frames = full_frames(&pcfg, 0);

    // Build the expected ring locally from the same frames.
    let cfg = dcfg();
    let schedule = Arc::new(RateSchedule::from_memory(cfg.n_max, cfg.m_bits).unwrap());
    let mut expected: WindowedFleet =
        WindowedFleet::with_schedule(schedule, cfg.seed, cfg.window).unwrap();
    for (epoch, frame) in &frames {
        let fleet: FleetArena = Checkpoint::restore(frame).unwrap();
        expected.advance_to(*epoch).unwrap();
        assert!(expected.absorb_epoch(*epoch, &fleet).unwrap());
    }

    let ingest = daemon.ingest_addr();
    let report = run_agent(&AgentConfig::new(1, echo), frames, |_| {
        let s = TcpStream::connect(ingest)?;
        s.set_read_timeout(Some(Duration::from_millis(10)))?;
        Ok(s)
    })
    .unwrap();
    assert_eq!(report.frames_acked as usize, pcfg.epochs);

    let qaddr = daemon.query_addr();
    let ask = move |req: &QueryRequest| -> QueryReply {
        let s = TcpStream::connect(qaddr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        match query_once(s, req, Duration::from_secs(2)).unwrap() {
            Message::Reply(r) => r,
            other => panic!("expected Reply, got {other:?}"),
        }
    };

    assert_eq!(
        ask(&QueryRequest::Estimate(0)),
        QueryReply::Estimate(expected.estimate(0))
    );
    assert_eq!(
        ask(&QueryRequest::Estimate(999)),
        QueryReply::Estimate(None)
    );
    assert_eq!(
        ask(&QueryRequest::Fill(3)),
        QueryReply::Fill(expected.window_fill(3).map(|f| f as u64))
    );
    let mut rows = expected.estimates();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(3);
    assert_eq!(ask(&QueryRequest::TopK(3)), QueryReply::TopK(rows));
    let mut sample: Vec<f64> = expected.estimates().iter().map(|&(_, e)| e).collect();
    assert_eq!(
        ask(&QueryRequest::Summary),
        QueryReply::Summary {
            keys: pcfg.links as u64,
            quantiles: quantile_summary(&mut sample),
        }
    );

    // Drain over the wire; join must now complete.
    assert_eq!(ask(&QueryRequest::Drain), QueryReply::Draining);
    let report = daemon.join().unwrap();
    assert_eq!(report.estimates, expected.estimates());
    assert!(report.queries >= 6);
}

#[test]
fn panicked_query_handler_does_not_poison_ingest() {
    // A query handler that panics while holding the ring lock must not
    // take the collector down with it: the lock recovers (the ring is
    // only ever mutated under short, atomic critical sections), later
    // sessions keep working, and the panic is counted, not propagated.
    let daemon = Daemon::start(DaemonConfig {
        panic_on_query: Some(77),
        ..dcfg()
    })
    .unwrap();
    let echo = daemon.config_echo();

    // Ingest one frame before the panic so post-panic queries have
    // something to estimate.
    let mut c = Client::connect(daemon.ingest_addr());
    c.hello(1, echo);
    c.send(&Message::Batch {
        epoch: 0,
        agent: 1,
        frame: test_frame(&[5, 6]),
    });
    match c.recv() {
        Message::Ack { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
        other => panic!("expected Ack, got {other:?}"),
    }

    // Trip the booby-trapped key: the handler dies mid-lock and the
    // connection drops without a reply.
    let s = TcpStream::connect(daemon.query_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
    assert!(
        query_once(s, &QueryRequest::Estimate(77), Duration::from_secs(2)).is_err(),
        "the poisoned query must not produce a reply"
    );

    // The daemon shrugged it off: ingest still absorbs...
    let mut c2 = Client::connect(daemon.ingest_addr());
    c2.hello(2, echo);
    c2.send(&Message::Batch {
        epoch: 0,
        agent: 2,
        frame: test_frame(&[8]),
    });
    match c2.recv() {
        Message::Ack { outcome, .. } => assert_eq!(outcome, AckOutcome::Absorbed),
        other => panic!("expected Ack after the panic, got {other:?}"),
    }
    // ...and queries still answer.
    let s = TcpStream::connect(daemon.query_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
    match query_once(s, &QueryRequest::Estimate(5), Duration::from_secs(2)).unwrap() {
        Message::Reply(QueryReply::Estimate(Some(_))) => {}
        other => panic!("expected an estimate after the panic, got {other:?}"),
    }

    drop((c, c2));
    daemon.drain();
    let report = daemon.join().unwrap();
    assert_eq!(report.handler_panics, 1, "the panic is counted");
    assert_eq!(report.frames_absorbed, 2);
}
