//! The open-loop load generator: one pipelined keep-alive connection,
//! one writer thread sending on a fixed schedule and one reader thread
//! timing responses.
//!
//! Request `i` of a phase is due at `start + i / rate`. The writer
//! sends every due request in one write and then sleeps until the next
//! is due, whether or not earlier responses have arrived. Latency is
//! measured from the *due* time, so a stall is charged to every request
//! it delays; how late the writer itself ran is reported separately.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::ops::Stream;
use crate::stats::{now_ns, Samples};

/// How long the reader waits for outstanding responses after the writer
/// finished before counting them as lost.
const DRAIN_TIMEOUT_NS: u64 = 10_000_000_000;
/// The largest batch one write carries.
const MAX_WRITE: usize = 64 * 1024;

/// A keep-alive connection to the edge, reused across phases.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { addr, stream })
    }

    fn reconnect(&mut self) -> io::Result<()> {
        *self = Conn::connect(self.addr)?;
        Ok(())
    }
}

/// One phase's plan: which requests, at what rate.
pub struct Phase<'a> {
    pub stream: &'a Stream,
    /// First request of the stream this phase sends.
    pub first: usize,
    pub count: usize,
    pub rate: f64,
    /// Stop sending once a response is this late (ns after its due
    /// time): the phase has already failed and the backlog only costs
    /// drain time.
    pub abort_after_ns: Option<u64>,
    /// Reads the serving index generation (live-reload); each request
    /// records it when sent and when answered.
    pub generation: Option<&'a (dyn Fn() -> u64 + Sync)>,
}

/// Everything observed during one phase. Index `i` is request
/// `first + i` of the stream.
#[derive(Default)]
pub struct Outcome {
    pub first: usize,
    pub rate: f64,
    pub start_ns: u64,
    interval_ns: f64,
    /// Requests written.
    pub sent: usize,
    pub send_ns: Vec<u64>,
    /// Per answered request: arrival time, status, body.
    pub recv_ns: Vec<u64>,
    pub status: Vec<u16>,
    bodies: Vec<u8>,
    body_ends: Vec<usize>,
    /// Generation when sent and when answered (live-reload only).
    pub gen_sent: Vec<u64>,
    pub gen_recv: Vec<u64>,
    /// Sent but never answered (connection error or drain timeout).
    pub lost: usize,
    pub aborted: bool,
}

impl Outcome {
    pub fn answered(&self) -> usize {
        self.recv_ns.len()
    }

    pub fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + (i as f64 * self.interval_ns) as u64
    }

    /// Body of answered request `i` (`i < kept_bodies()`).
    pub fn body(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.body_ends[i - 1] };
        &self.bodies[start..self.body_ends[i]]
    }

    pub fn kept_bodies(&self) -> usize {
        self.body_ends.len()
    }

    /// Frees all but the first `keep` bodies once they are checked.
    pub fn release_bodies(&mut self, keep: usize) {
        let keep = keep.min(self.body_ends.len());
        self.body_ends.truncate(keep);
        self.bodies
            .truncate(self.body_ends.last().copied().unwrap_or(0));
        self.bodies.shrink_to_fit();
        self.body_ends.shrink_to_fit();
    }

    /// Latency of answered requests `range`, measured from due time.
    pub fn latencies(&self, range: std::ops::Range<usize>) -> Samples {
        Samples::from_vec(
            range
                .map(|i| self.recv_ns[i].saturating_sub(self.due_ns(i)) as f64)
                .collect(),
        )
    }

    /// How late the writer sent requests `range`.
    pub fn lateness(&self, range: std::ops::Range<usize>) -> Samples {
        Samples::from_vec(
            range
                .map(|i| self.send_ns[i].saturating_sub(self.due_ns(i)) as f64)
                .collect(),
        )
    }

    /// Wall time from the first due time to the last response.
    pub fn wall_ns(&self) -> u64 {
        self.recv_ns
            .last()
            .map_or(0, |&last| last.saturating_sub(self.start_ns))
    }
}

/// Runs one phase to completion on `conn` and returns what happened.
/// After a transport failure the connection is re-opened so later
/// phases start clean.
pub fn run_phase(conn: &mut Conn, phase: &Phase) -> Outcome {
    let n = phase.count;
    let start_ns = now_ns() + 1_000_000;
    let interval = 1e9 / phase.rate;
    let due = |i: usize| start_ns + (i as f64 * interval) as u64;
    let sent = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let send_log: Mutex<(Vec<u64>, Vec<u64>)> = Mutex::new((Vec::new(), Vec::new()));
    let Ok(mut wstream) = conn.stream.try_clone() else {
        return Outcome {
            lost: n,
            ..Default::default()
        };
    };
    let rstream = &mut conn.stream;

    let mut out = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut send_ns = Vec::with_capacity(n);
            let mut gen_sent = Vec::new();
            let mut buf = Vec::with_capacity(MAX_WRITE);
            let mut i = 0;
            while i < n && !abort.load(Ordering::Relaxed) {
                let now = now_ns();
                let next_due = due(i);
                if next_due > now {
                    std::thread::sleep(Duration::from_nanos(next_due - now));
                    continue;
                }
                buf.clear();
                let mut j = i;
                while j < n && due(j) <= now && buf.len() < MAX_WRITE {
                    buf.extend_from_slice(phase.stream.request(phase.first + j));
                    j += 1;
                }
                if let Some(generation) = phase.generation {
                    gen_sent.resize(j, generation());
                }
                send_ns.resize(j, now);
                if wstream.write_all(&buf).is_err() {
                    break;
                }
                sent.store(j, Ordering::Release);
                i = j;
            }
            *send_log.lock().expect("send log lock") = (send_ns, gen_sent);
            writer_done.store(true, Ordering::Release);
        });
        let mut out = read_responses(
            rstream,
            phase,
            &sent,
            &writer_done,
            &abort,
            start_ns,
            interval,
        );
        writer.join().expect("writer thread");
        out.start_ns = start_ns;
        out
    });
    let (send_ns, gen_sent) = send_log.into_inner().expect("send log lock");
    out.sent = send_ns.len();
    out.send_ns = send_ns;
    out.gen_sent = gen_sent;
    out.first = phase.first;
    out.rate = phase.rate;
    out.interval_ns = interval;
    out.lost = out.sent - out.answered();
    if out.lost > 0 {
        // A half-read pipeline cannot be resynchronized.
        let _ = conn.reconnect();
    }
    out
}

/// The reader: parses pipelined responses in order, stamping each with
/// the time its last byte was read.
fn read_responses(
    stream: &mut TcpStream,
    phase: &Phase,
    sent: &AtomicUsize,
    writer_done: &AtomicBool,
    abort: &AtomicBool,
    start_ns: u64,
    interval: f64,
) -> Outcome {
    let mut out = Outcome::default();
    out.recv_ns.reserve(phase.count);
    let mut buf: Vec<u8> = Vec::with_capacity(256 * 1024);
    let mut pos = 0;
    let mut chunk = vec![0u8; 256 * 1024];
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut done_at: Option<u64> = None;
    loop {
        let received = out.recv_ns.len();
        if writer_done.load(Ordering::Acquire) {
            if received >= sent.load(Ordering::Acquire) {
                break;
            }
            let now = now_ns();
            let since = *done_at.get_or_insert(now);
            if now - since > DRAIN_TIMEOUT_NS {
                break;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                let at = now_ns();
                buf.extend_from_slice(&chunk[..k]);
                while let Some((status, body, used)) = parse_response(&buf[pos..]) {
                    out.status.push(status);
                    out.bodies
                        .extend_from_slice(&buf[pos + body.0..pos + body.1]);
                    out.body_ends.push(out.bodies.len());
                    out.recv_ns.push(at);
                    if let Some(generation) = phase.generation {
                        out.gen_recv.push(generation());
                    }
                    pos += used;
                }
                if pos == buf.len() {
                    buf.clear();
                    pos = 0;
                }
                if let (Some(limit), Some(_)) = (phase.abort_after_ns, out.recv_ns.last()) {
                    let i = out.recv_ns.len() - 1;
                    let due = start_ns + (i as f64 * interval) as u64;
                    if at.saturating_sub(due) > limit {
                        abort.store(true, Ordering::Relaxed);
                        out.aborted = true;
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    out
}

/// Parses one complete response at the start of `buf`: status, body
/// byte range and total length. `None` if incomplete.
fn parse_response(buf: &[u8]) -> Option<(u16, (usize, usize), usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.get(9..12)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    (buf.len() >= head_end + len).then_some((status, (head_end, head_end + len), head_end + len))
}

/// Polls `GET /healthz` until the edge answers 200.
pub fn wait_ready(addr: SocketAddr) -> io::Result<()> {
    let deadline = now_ns() + 30_000_000_000;
    loop {
        let attempt = ah_net::blocking::Client::connect(addr).and_then(|mut c| c.get("/healthz"));
        match attempt {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if now_ns() > deadline => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "edge never became ready",
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}
