//! The socket load generator: two TCP connections, a sender thread that
//! sleeps until each request's due time, and a receiver (the calling
//! thread) blocked on the server crate's epoll [`Poller`].

use crate::gen::{Inputs, Kind};
use crate::oracle::{check_reply, reply_id, Oracle, Verdict};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xq_server::reactor::{Event, Poller};
use xq_server::Frame;

pub const CONNS: usize = 2;

/// How long a phase waits for outstanding replies after its last send
/// before counting them missing.
const DRAIN: Duration = Duration::from_secs(20);

/// A `query` request line (no newline), as any client would build it.
pub fn request_frame(id: u64, doc: usize, text: &str) -> String {
    Frame::new()
        .str("op", "query")
        .uint("id", id)
        .str("doc", Inputs::doc_name(doc))
        .str("query", text)
        .encode()
}

/// A workload's request stream on the wire: the bytes of request `id`
/// and the judgement of its reply.
pub struct Stream<'a> {
    inputs: &'a Inputs,
    oracle: &'a Oracle,
    /// Ids name warm-set texts (setup) instead of stream positions.
    warm: bool,
}

impl<'a> Stream<'a> {
    pub fn new(inputs: &'a Inputs, oracle: &'a Oracle, warm: bool) -> Stream<'a> {
        Stream {
            inputs,
            oracle,
            warm,
        }
    }

    fn kind(&self, id: u64) -> Kind {
        if self.warm {
            Kind::Hot(id as usize)
        } else {
            self.inputs.kind(id)
        }
    }

    /// The request line, newline included.
    fn line(&self, id: u64) -> Vec<u8> {
        let mut line = if self.warm {
            request_frame(id, 0, &self.inputs.texts[id as usize])
        } else {
            let r = self.inputs.request(id);
            request_frame(id, r.doc, &r.text)
        }
        .into_bytes();
        line.push(b'\n');
        line
    }

    fn check(&self, id: u64, line: &[u8]) -> Result<Verdict, String> {
        check_reply(self.oracle, self.kind(id), id, line)
    }
}

/// A client-side span of the traced socket phase.
pub struct ClientSpan {
    pub id: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    pub sent: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Correct replies that arrived before the phase ended (closed loop).
    pub in_time: u64,
    /// Closed loop: seconds from the start to the last counted reply.
    pub secs: f64,
    /// Latency of each correct reply, from its due time (open loop).
    pub lat_ms: Vec<f64>,
    /// How late the sender sent each request (open loop).
    pub late_ms: Vec<f64>,
    /// Valid cold-mix replies held for the oracle.
    pub samples: Vec<(u64, Vec<u8>)>,
    /// Sums of the sampled gauges (queue depth, in flight) and the
    /// number of samples.
    gauge_sums: [usize; 3],
    pub spans: Vec<ClientSpan>,
}

impl Phase {
    /// Folds a later slice of the same phase into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.sent += other.sent;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.in_time += other.in_time;
        self.secs += other.secs;
        self.lat_ms.extend(other.lat_ms);
        self.late_ms.extend(other.late_ms);
        self.samples.extend(other.samples);
        self.spans.extend(other.spans);
        for k in 0..3 {
            self.gauge_sums[k] += other.gauge_sums[k];
        }
    }

    /// Means of the sampled gauges: (queue depth, in flight).
    pub fn gauges(&self) -> (f64, f64) {
        let n = self.gauge_sums[2].max(1) as f64;
        (self.gauge_sums[0] as f64 / n, self.gauge_sums[1] as f64 / n)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Judges one reply; returns whether it was correct.
    fn judge(&mut self, traffic: &Stream, line: &[u8]) -> bool {
        let Some(id) = reply_id(line) else {
            self.fail(format!(
                "reply without a request id: {}",
                String::from_utf8_lossy(&line[..line.len().min(160)])
            ));
            return false;
        };
        match traffic.check(id, line) {
            Ok(Verdict::Correct) => true,
            Ok(Verdict::Sampled) => {
                self.samples.push((id, line.to_vec()));
                true
            }
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }
}

/// An open-loop arrival schedule: request `i` is due `i / rate` seconds
/// after a start just ahead of now, until `dur` has passed.
#[derive(Clone, Copy)]
pub struct Schedule {
    start: Instant,
    end: Instant,
    rate: f64,
}

impl Schedule {
    pub fn new(rate: f64, dur: Duration) -> Schedule {
        let start = Instant::now() + Duration::from_millis(5);
        Schedule {
            start,
            end: start + dur,
            rate,
        }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * 1e9 / self.rate) as u64)
    }

    pub fn end(&self) -> Instant {
        self.end
    }

    /// Sleeps until request `i` is due and returns its due time; `None`
    /// once the schedule is over.
    pub fn wait(&self, i: u64) -> Option<Instant> {
        let at = self.due(i);
        if at >= self.end {
            return None;
        }
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        Some(at)
    }
}

/// Gauges sampled in the receiver loop: (queue depth, in flight).
pub type Sampler<'a> = &'a (dyn Fn() -> (usize, usize) + Sync);

pub struct Client {
    conns: Vec<TcpStream>,
    poller: Poller,
    bufs: Vec<Vec<u8>>,
    events: Vec<Event>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let poller = Poller::new()?;
        let mut conns = Vec::new();
        for c in 0..CONNS {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            poller.add(s.as_raw_fd(), c as u64, true, false)?;
            conns.push(s);
        }
        Ok(Client {
            conns,
            poller,
            bufs: vec![Vec::new(); CONNS],
            events: Vec::new(),
        })
    }

    /// Waits up to `timeout_ms` for replies and hands each complete line
    /// to `on_line` with its connection and arrival time. Sockets stay
    /// blocking: one `read` per readiness event never blocks.
    fn pump(
        &mut self,
        timeout_ms: i32,
        mut on_line: impl FnMut(usize, &[u8], Instant),
    ) -> Result<(), String> {
        self.poller
            .wait(&mut self.events, timeout_ms)
            .map_err(|e| format!("epoll wait: {e}"))?;
        let mut chunk = vec![0u8; 64 * 1024];
        for ev in &self.events {
            let c = ev.token as usize;
            let n = (&self.conns[c])
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed a connection".to_string());
            }
            let now = Instant::now();
            let buf = &mut self.bufs[c];
            let scan_from = buf.len();
            buf.extend_from_slice(&chunk[..n]);
            let mut start = 0;
            let mut at = scan_from;
            while let Some(p) = buf[at..].iter().position(|&b| b == b'\n') {
                on_line(c, &buf[start..at + p], now);
                start = at + p + 1;
                at = start;
            }
            buf.drain(..start);
        }
        Ok(())
    }

    /// Sends `ids` at once (spread over the connections) and waits for
    /// every reply — the setup warm-up.
    pub fn batch(&mut self, traffic: &Stream, ids: &[u64]) -> Phase {
        let mut phase = Phase::default();
        for (k, &id) in ids.iter().enumerate() {
            if let Err(e) = (&self.conns[k % CONNS]).write_all(&traffic.line(id)) {
                phase.fail(format!("write: {e}"));
                return phase;
            }
            phase.sent += 1;
        }
        let deadline = Instant::now() + DRAIN;
        let mut received = 0;
        while received < ids.len() && Instant::now() < deadline {
            let mut lines = Vec::new();
            if let Err(e) = self.pump(20, |_, l, _| lines.push(l.to_vec())) {
                phase.fail(e);
                return phase;
            }
            for l in lines {
                received += 1;
                phase.judge(traffic, &l);
            }
        }
        for _ in received..ids.len() {
            phase.fail("missing reply".to_string());
        }
        phase
    }

    /// Closed loop: each connection keeps `window` requests in flight for
    /// `dur`; throughput counts correct replies that arrive in time.
    pub fn closed_loop(
        &mut self,
        traffic: &Stream,
        first: u64,
        window: usize,
        dur: Duration,
    ) -> Phase {
        let mut phase = Phase::default();
        let mut next = first;
        let mut send = |client: &mut Client, c: usize, phase: &mut Phase| -> bool {
            let ok = (&client.conns[c]).write_all(&traffic.line(next));
            next += 1;
            phase.sent += 1;
            if let Err(e) = ok {
                phase.fail(format!("write: {e}"));
                return false;
            }
            true
        };
        let start = Instant::now();
        let end = start + dur;
        for c in 0..CONNS {
            for _ in 0..window {
                if !send(self, c, &mut phase) {
                    return phase;
                }
            }
        }
        let mut received = 0;
        let mut in_time = 0u64;
        let mut last_in_time = start;
        while received < phase.sent && Instant::now() < end + DRAIN {
            let mut got = Vec::new();
            if let Err(e) = self.pump(20, |c, l, t| got.push((c, l.to_vec(), t))) {
                phase.fail(e);
                return phase;
            }
            for (c, l, t) in got {
                received += 1;
                if phase.judge(traffic, &l) && t <= end {
                    in_time += 1;
                    last_in_time = last_in_time.max(t);
                }
                if t < end && !send(self, c, &mut phase) {
                    return phase;
                }
            }
        }
        for _ in received..phase.sent {
            phase.fail("missing reply".to_string());
        }
        // The rate over the span the counted replies cover, which ends
        // with the last of them a little before `end`.
        phase.in_time = in_time;
        phase.secs = (last_in_time - start).as_secs_f64();
        phase
    }

    /// Open loop at a fixed `rate` for `dur`: request `first + i` is due
    /// at `i / rate` seconds, is sent by the sender thread no earlier,
    /// and its latency runs from its due time to its reply. With `trace`
    /// the generator records a span per send and per request.
    pub fn open_loop(
        &mut self,
        traffic: &Stream,
        first: u64,
        rate: f64,
        dur: Duration,
        sampler: Option<Sampler>,
        trace: bool,
    ) -> Phase {
        let mut phase = Phase::default();
        let sent = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let sched = Schedule::new(rate, dur);
        let conns: Vec<TcpStream> = match self.conns.iter().map(TcpStream::try_clone).collect() {
            Ok(c) => c,
            Err(e) => {
                phase.fail(format!("clone socket: {e}"));
                return phase;
            }
        };
        let sender_out = std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let mut late = Vec::new();
                let mut spans = Vec::new();
                let mut i = 0u64;
                let res = loop {
                    let Some(at) = sched.wait(i) else {
                        break Ok(());
                    };
                    let id = first + i;
                    let t0 = Instant::now();
                    if let Err(e) =
                        (&conns[(id % CONNS as u64) as usize]).write_all(&traffic.line(id))
                    {
                        break Err(format!("write: {e}"));
                    }
                    late.push((t0 - at).as_secs_f64() * 1e3);
                    if trace {
                        spans.push(ClientSpan {
                            id,
                            name: "loadgen.send",
                            start: t0,
                            end: Instant::now(),
                        });
                    }
                    i += 1;
                    sent.store(i, Ordering::Release);
                };
                done.store(true, Ordering::Release);
                (res, late, spans)
            });
            let mut received = 0u64;
            loop {
                let finished = done.load(Ordering::Acquire);
                if finished && received >= sent.load(Ordering::Acquire) {
                    break;
                }
                if Instant::now() > sched.end() + DRAIN {
                    break;
                }
                let mut lines = Vec::new();
                if let Err(e) = self.pump(20, |_, l, t| lines.push((l.to_vec(), t))) {
                    phase.fail(e);
                    break;
                }
                if let (Some(f), false) = (sampler, lines.is_empty()) {
                    let (q, r) = f();
                    phase.gauge_sums[0] += q;
                    phase.gauge_sums[1] += r;
                    phase.gauge_sums[2] += 1;
                }
                for (l, t) in lines {
                    received += 1;
                    let id = reply_id(&l).unwrap_or(u64::MAX);
                    if id < first {
                        phase.fail(format!("reply to request {id} of an earlier phase"));
                        continue;
                    }
                    if !phase.judge(traffic, &l) {
                        continue;
                    }
                    let at = sched.due(id - first);
                    phase
                        .lat_ms
                        .push(t.saturating_duration_since(at).as_secs_f64() * 1e3);
                    if trace {
                        phase.spans.push(ClientSpan {
                            id,
                            name: "loadgen.request",
                            start: at,
                            end: t,
                        });
                    }
                }
            }
            let out = sender.join().expect("sender thread panicked");
            (out, received)
        });
        let ((res, late, spans), received) = sender_out;
        if let Err(e) = res {
            phase.fail(e);
        }
        phase.sent = sent.load(Ordering::Acquire);
        for _ in received..phase.sent {
            phase.fail("missing reply".to_string());
        }
        phase.late_ms = late;
        phase.spans.extend(spans);
        phase
    }
}
