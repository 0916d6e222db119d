//! Open-loop load over the daemon's socket.
//!
//! Requests go out on a fixed schedule whether or not earlier ones have
//! been answered, pipelined on one connection: a sender thread writes each
//! request when it is due and a receiver thread reads the answers in order.
//! Every request is timed from when it was **due**, so a server stall is
//! charged to every request queued behind it, and the sender's own lateness
//! is recorded so a slow generator cannot pass for a fast server. An
//! optional rollout lane sends `apply_delta` requests on a second
//! connection at a fixed cadence from the same sender thread, which polls
//! that connection without blocking; the load therefore never uses more
//! than two threads and two connections.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use imm_serve::protocol::{self, Request, Response};
use imm_serve::DeltaOutcome;
use imm_service::Query;

use crate::stats;
use crate::trace::Tracer;

/// Give up on a phase's outstanding answers after this long.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// How long the receiver waits for bytes before it checks whether the
/// phase is over.
const POLL: Duration = Duration::from_millis(20);
/// A request write blocked this long fails the phase: the daemon has
/// stopped reading, so nobody would read its answers either.
const WRITE_LIMIT: Duration = Duration::from_secs(10);

/// A request's timeline, in ns since the phase started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When the sender wrote it.
    pub sent_ns: u64,
    /// When its answer was read (`None`: never answered).
    pub done_ns: Option<u64>,
    /// Whether the answer was a batch of all-Ok entries.
    pub ok: bool,
    /// Caller-defined request class.
    pub kind: u8,
}

impl Record {
    /// Latency from the due time; a failed request counts as infinitely
    /// late, so it misses every latency limit.
    pub fn latency_ms(&self) -> f64 {
        match (self.ok, self.done_ns) {
            (true, Some(done)) => done.saturating_sub(self.due_ns) as f64 / 1e6,
            _ => f64::INFINITY,
        }
    }
}

/// One rollout sent by the lane.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutRecord {
    /// Due time, ns since the phase started.
    pub due_ns: u64,
    /// Answer time, ns since the phase started (`None`: never answered).
    pub done_ns: Option<u64>,
    /// What the daemon reported (`None` for an error answer).
    pub outcome: Option<DeltaOutcome>,
}

impl RolloutRecord {
    /// Client-observed latency from the due time (infinite on failure).
    pub fn latency_ms(&self) -> f64 {
        match (&self.outcome, self.done_ns) {
            (Some(_), Some(done)) => done.saturating_sub(self.due_ns) as f64 / 1e6,
            _ => f64::INFINITY,
        }
    }
}

/// The open-loop schedule of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Offered requests per second.
    pub rate_per_s: f64,
    /// How long requests keep coming due.
    pub duration: Duration,
    /// Stop sending at the end of `duration` even if the sender fell
    /// behind (overload phases); otherwise every scheduled request is sent.
    pub stop_at_end: bool,
}

impl Schedule {
    /// Requests the schedule offers.
    pub fn count(&self) -> usize {
        (self.rate_per_s * self.duration.as_secs_f64()).round() as usize
    }

    fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * 1e9 / self.rate_per_s) as u64
    }
}

/// Rollouts sent alongside a phase on their own connection.
pub struct RolloutLane {
    stream: UnixStream,
    texts: Vec<String>,
    cadence: Duration,
    next: usize,
    pending: Option<usize>,
    inbox: Inbox,
    /// One record per rollout sent.
    pub records: Vec<RolloutRecord>,
}

impl RolloutLane {
    /// A lane that sends `texts` in order, one every `cadence`, starting
    /// half a cadence into the phase.
    pub fn new(stream: UnixStream, texts: Vec<String>, cadence: Duration) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        Ok(RolloutLane {
            stream,
            texts,
            cadence,
            next: 0,
            pending: None,
            inbox: Inbox::default(),
            records: Vec::new(),
        })
    }

    fn due_ns(&self, j: usize) -> u64 {
        ((j as f64 + 0.5) * self.cadence.as_nanos() as f64) as u64
    }

    /// Send the next rollout if it is due and none is outstanding; pick
    /// up an answer if one has arrived.
    fn poll(&mut self, phase_start: Instant, sending: bool) -> io::Result<()> {
        let now = phase_start.elapsed().as_nanos() as u64;
        if let Some(j) = self.pending {
            while self.inbox.fill(&mut self.stream)? > 0 {}
            if let Some(payload) = self.inbox.take_frame()? {
                let outcome = match protocol::decode_response(&payload) {
                    Ok(Response::DeltaApplied(outcome)) => Some(outcome),
                    _ => None,
                };
                self.records[j].done_ns = Some(phase_start.elapsed().as_nanos() as u64);
                self.records[j].outcome = outcome;
                self.pending = None;
            }
        } else if sending && self.next < self.texts.len() && now >= self.due_ns(self.next) {
            let j = self.next;
            let frame =
                protocol::encode_request(&Request::ApplyDelta { text: self.texts[j].clone() });
            write_all_nonblocking(&mut self.stream, &frame_bytes(&frame))?;
            self.records.push(RolloutRecord {
                due_ns: self.due_ns(j),
                done_ns: None,
                outcome: None,
            });
            self.pending = Some(j);
            self.next += 1;
        }
        Ok(())
    }

    /// Wake-up deadline for the sender: soon while a rollout is out,
    /// otherwise at the next due time.
    fn next_wake_ns(&self) -> Option<u64> {
        if self.pending.is_some() {
            None
        } else if self.next < self.texts.len() {
            Some(self.due_ns(self.next))
        } else {
            Some(u64::MAX)
        }
    }
}

/// Bytes read from a connection and not yet taken as frames. A frame may
/// arrive in pieces, with pauses between them longer than any read
/// timeout; the inbox keeps the pieces until the frame is whole.
#[derive(Default)]
struct Inbox(Vec<u8>);

impl Inbox {
    /// One read from `stream`: the bytes it added, 0 when none were ready
    /// before the read timed out or would have blocked.
    fn fill(&mut self, stream: &mut UnixStream) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.0.extend_from_slice(&chunk[..n]);
                    return Ok(n);
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Ok(0)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The payload of the first frame, once all of it has arrived.
    fn take_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let header = protocol::FRAME_HEADER_LEN;
        if self.0.len() < header {
            return Ok(None);
        }
        if self.0[..4] != protocol::FRAME_MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame magic"));
        }
        let len = u32::from_le_bytes([self.0[5], self.0[6], self.0[7], self.0[8]]) as usize;
        if self.0.len() < header + len {
            return Ok(None);
        }
        let payload = self.0[header..header + len].to_vec();
        self.0.drain(..header + len);
        Ok(Some(payload))
    }
}

/// A payload wrapped in its frame header.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + protocol::FRAME_HEADER_LEN);
    protocol::write_frame(&mut out, payload).expect("writing a frame into memory cannot fail");
    out
}

fn write_all_nonblocking(stream: &mut UnixStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What one phase produced.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// One record per request sent, in schedule order; an overload phase
    /// may stop before every scheduled request went out.
    pub records: Vec<Record>,
    /// Phase length in ns.
    pub phase_ns: u64,
    /// Rollouts sent alongside, if a lane was given.
    pub rollouts: Vec<RolloutRecord>,
    /// Spans of the sender and receiver (empty when untraced).
    pub spans: Tracer,
}

/// Run one open-loop phase of `queries` (cycled) over `stream`.
///
/// `kinds[i]` classifies `queries[i]` for the caller's per-class figures.
pub fn run_phase(
    stream: &UnixStream,
    queries: &[Query],
    kinds: &[u8],
    schedule: Schedule,
    mut lane: Option<&mut RolloutLane>,
    traced: bool,
) -> io::Result<PhaseOutcome> {
    let total = schedule.count();
    let sent = AtomicUsize::new(0);
    let sending_done = AtomicBool::new(false);
    let mut writer = stream.try_clone()?;
    writer.set_write_timeout(Some(WRITE_LIMIT))?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(POLL))?;
    let start = Instant::now();

    let (send_result, receive_result) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut tracer = Tracer::new(traced);
            let mut answers: Vec<(Option<u64>, bool)> = Vec::with_capacity(total);
            let mut inbox = Inbox::default();
            let mut idle_since: Option<Instant> = None;
            loop {
                let finished = sending_done.load(Ordering::Acquire);
                if finished && answers.len() >= sent.load(Ordering::Acquire) {
                    break;
                }
                match inbox.fill(&mut reader) {
                    Ok(0) => {
                        let since = *idle_since.get_or_insert_with(Instant::now);
                        if finished && since.elapsed() > DRAIN_LIMIT {
                            break;
                        }
                        continue;
                    }
                    Ok(_) => idle_since = None,
                    Err(_) => break,
                }
                let done = start.elapsed().as_nanos() as u64;
                loop {
                    match inbox.take_frame() {
                        Ok(Some(payload)) => {
                            let request = answers.len() as u64;
                            let open = tracer.enter("serve.decode_response", request);
                            let ok = matches!(protocol::decode_response(&payload),
                                Ok(Response::Batch(outcomes)) if outcomes.iter().all(Result::is_ok));
                            tracer.exit(open);
                            answers.push((Some(done), ok));
                        }
                        Ok(None) => break,
                        // A corrupt stream: the answers not yet read stay
                        // unanswered and count as failed.
                        Err(_) => return (answers, tracer),
                    }
                }
            }
            (answers, tracer)
        });

        let send = (|| -> io::Result<(Vec<(u64, u64)>, Tracer)> {
            let mut tracer = Tracer::new(traced);
            let mut times = Vec::with_capacity(total);
            let end_ns = schedule.duration.as_nanos() as u64;
            for i in 0..total {
                let due = schedule.due_ns(i);
                loop {
                    let now = start.elapsed().as_nanos() as u64;
                    if let Some(lane) = lane.as_deref_mut() {
                        lane.poll(start, now < end_ns)?;
                    }
                    if now >= due {
                        break;
                    }
                    let wake = match lane.as_deref().map(RolloutLane::next_wake_ns) {
                        Some(None) => now + 200_000,
                        Some(Some(t)) => t.min(due),
                        None => due,
                    };
                    std::thread::sleep(Duration::from_nanos(wake.min(due).saturating_sub(now)));
                }
                if schedule.stop_at_end && start.elapsed().as_nanos() as u64 >= end_ns {
                    break;
                }
                let open = tracer.enter("serve.encode_request", i as u64);
                let payload = protocol::encode_request(&Request::Batch(vec![queries
                    [i % queries.len()]
                .clone()]));
                tracer.exit(open);
                protocol::write_frame(&mut writer, &payload)?;
                times.push((due, start.elapsed().as_nanos() as u64));
                sent.fetch_add(1, Ordering::Release);
            }
            // Wait for an outstanding rollout; send no new one.
            if let Some(lane) = lane.as_deref_mut() {
                let drain_deadline = Instant::now() + DRAIN_LIMIT;
                while lane.pending.is_some() && Instant::now() < drain_deadline {
                    lane.poll(start, false)?;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            Ok((times, tracer))
        })();
        sending_done.store(true, Ordering::Release);
        let received = receiver.join().expect("receiver thread panicked");
        (send, received)
    });

    let (times, send_spans) = send_result?;
    let (answers, receive_spans) = receive_result;
    let records = times
        .iter()
        .enumerate()
        .map(|(i, &(due_ns, sent_ns))| {
            let (done_ns, ok) = answers.get(i).copied().unwrap_or((None, false));
            Record { due_ns, sent_ns, done_ns, ok, kind: kinds[i % kinds.len()] }
        })
        .collect::<Vec<_>>();
    let mut spans = send_spans;
    spans.absorb(receive_spans);
    Ok(PhaseOutcome {
        records,
        phase_ns: schedule.duration.as_nanos() as u64,
        rollouts: lane.map(|l| std::mem::take(&mut l.records)).unwrap_or_default(),
        spans,
    })
}

/// Figures of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Requests sent.
    pub attempted: usize,
    /// Requests unanswered or answered with an error or rejection.
    pub failed: usize,
    /// Median latency from due time, ms.
    pub p50_ms: f64,
    /// 90th percentile latency from due time, ms.
    pub p90_ms: f64,
    /// 99th percentile latency from due time, ms.
    pub p99_ms: f64,
    /// The highest percentile the sample supports.
    pub tail: Option<stats::Tail>,
    /// 99th percentile of how late the sender wrote requests, ms.
    pub late_p99_ms: f64,
    /// Requests sent but not yet answered when the phase ended.
    pub backlog: usize,
    /// Answers read per second within the phase.
    pub completions_per_s: f64,
}

/// Summarize `records` of a phase `phase_ns` long.
pub fn summarize(records: &[Record], phase_ns: u64) -> Summary {
    let mut latencies: Vec<f64> = records.iter().map(Record::latency_ms).collect();
    latencies.sort_by(f64::total_cmp);
    let mut late: Vec<f64> =
        records.iter().map(|r| r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6).collect();
    late.sort_by(f64::total_cmp);
    let sent_by_end = records.iter().filter(|r| r.sent_ns <= phase_ns).count();
    let done_by_end = records.iter().filter(|r| r.done_ns.is_some_and(|d| d <= phase_ns)).count();
    Summary {
        attempted: records.len(),
        failed: records.iter().filter(|r| !r.latency_ms().is_finite()).count(),
        p50_ms: stats::percentile(&latencies, 50.0),
        p90_ms: stats::percentile(&latencies, 90.0),
        p99_ms: stats::percentile(&latencies, 99.0),
        tail: stats::supported_tail(&latencies),
        late_p99_ms: stats::percentile(&late, 99.0),
        backlog: sent_by_end.saturating_sub(done_by_end),
        completions_per_s: done_by_end as f64 / (phase_ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_serve::protocol::FrameRead;

    /// A stand-in daemon that answers every request with an empty batch,
    /// stalling once for `stall` before answering request `stall_at`.
    fn fake_daemon(mut stream: UnixStream, stall_at: usize, stall: Duration) {
        let mut served = 0;
        while let Ok(FrameRead::Frame(_)) =
            protocol::read_frame(&mut stream, protocol::DEFAULT_MAX_FRAME_LEN)
        {
            if served == stall_at {
                std::thread::sleep(stall);
            }
            let reply = protocol::encode_response(&Response::Batch(Vec::new()));
            if protocol::write_frame(&mut stream, &reply).is_err() {
                return;
            }
            served += 1;
        }
    }

    #[test]
    fn a_server_stall_is_charged_to_every_request_queued_behind_it() {
        let (client, server) = UnixStream::pair().expect("socket pair");
        let daemon = std::thread::spawn(move || fake_daemon(server, 10, Duration::from_millis(60)));
        let schedule = Schedule {
            rate_per_s: 1000.0,
            duration: Duration::from_millis(150),
            stop_at_end: false,
        };
        let out = run_phase(&client, &[Query::top_k(1)], &[0], schedule, None, false)
            .expect("phase runs");
        drop(client);
        daemon.join().expect("daemon thread");

        assert_eq!(out.records.len(), 150);
        assert!(out.records.iter().all(|r| r.ok), "every request answered");
        // The sender kept to its schedule through the stall ...
        let summary = summarize(&out.records, out.phase_ns);
        assert!(summary.late_p99_ms < 20.0, "sender ran {} ms late", summary.late_p99_ms);
        // ... so the ~50 requests that came due during the 60 ms stall all
        // waited for it, each charged from its own due time. A closed-loop
        // client would have charged the stall to one request only.
        let delayed = out.records.iter().filter(|r| r.latency_ms() >= 20.0).count();
        assert!(delayed >= 30, "only {delayed} requests were charged the stall");
        // A request due 20 ms into the stall waited for the rest of it.
        let mid_stall = &out.records[30];
        assert!(mid_stall.latency_ms() >= 30.0, "latency {}", mid_stall.latency_ms());
        assert!(summary.p99_ms >= 40.0);
    }

    #[test]
    fn an_answer_split_by_a_pause_longer_than_the_poll_is_still_read() {
        let (client, mut server) = UnixStream::pair().expect("socket pair");
        let daemon = std::thread::spawn(move || {
            let mut served = 0;
            while let Ok(FrameRead::Frame(_)) =
                protocol::read_frame(&mut server, protocol::DEFAULT_MAX_FRAME_LEN)
            {
                let reply = frame_bytes(&protocol::encode_response(&Response::Batch(Vec::new())));
                let cut = if served == 3 { 4 } else { reply.len() };
                server.write_all(&reply[..cut]).expect("first part");
                if cut < reply.len() {
                    std::thread::sleep(POLL * 3);
                    server.write_all(&reply[cut..]).expect("second part");
                }
                served += 1;
            }
        });
        let schedule =
            Schedule { rate_per_s: 200.0, duration: Duration::from_millis(50), stop_at_end: false };
        let out = run_phase(&client, &[Query::top_k(1)], &[0], schedule, None, false)
            .expect("phase runs");
        drop(client);
        daemon.join().expect("daemon thread");
        assert_eq!(out.records.len(), 10);
        assert!(out.records.iter().all(|r| r.ok), "every request answered");
    }

    #[test]
    fn failed_requests_miss_every_latency_limit() {
        let records = [
            Record { due_ns: 0, sent_ns: 0, done_ns: Some(1_000_000), ok: true, kind: 0 },
            Record { due_ns: 0, sent_ns: 0, done_ns: Some(1_000_000), ok: false, kind: 0 },
            Record { due_ns: 0, sent_ns: 0, done_ns: None, ok: false, kind: 0 },
        ];
        let s = summarize(&records, 2_000_000);
        assert_eq!(s.attempted, 3);
        assert_eq!(s.failed, 2);
        assert_eq!(s.p50_ms, f64::INFINITY);
    }
}
