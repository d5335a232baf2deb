//! The serving stack under test, brought up on loopback exactly as a
//! deployment runs it: `ah_net::EdgeServer` in front of
//! `ah_server::Server` with one worker over the AH index.
//!
//! The traced run serves through [`TimedBackend`], which records every
//! backend session call (kind, start, end, endpoints) in memory. It is
//! the benchmark's own code around the program's public trait, so the
//! program itself is unchanged.

use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use ah_core::AhIndex;
use ah_graph::{NodeId, Path};
use ah_net::{EdgeConfig, EdgeHandle, EdgeReport, EdgeServer};
use ah_server::{
    AhBackend, BackendSession, CostCounters, DistanceBackend, ServerConfig, SnapshotBackend,
    SnapshotServer, TraceConfig, ViaAnswer,
};

use crate::client::wait_ready;
use crate::stats::now_ns;

/// The serving engine's configuration: one worker, the default queue
/// and cache, server-side tracing off.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        trace: TraceConfig {
            sample_every: 0,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A running edge.
pub struct Stack {
    pub addr: SocketAddr,
    handle: EdgeHandle,
    thread: JoinHandle<io::Result<EdgeReport>>,
}

impl Stack {
    /// Binds an ephemeral loopback port, starts the event loop and its
    /// worker over `snap`, and returns once `/healthz` answers. With
    /// `follow` the worker re-reads the swappable index per query
    /// (live reloads); otherwise it is pinned to the current index.
    pub fn start(
        snap: Arc<SnapshotServer>,
        follow: bool,
        log: Option<Arc<CallLog>>,
    ) -> io::Result<Stack> {
        let cfg = EdgeConfig {
            workers: 1,
            ..Default::default()
        };
        let edge = EdgeServer::bind("127.0.0.1:0", cfg)?;
        let addr = edge.local_addr()?;
        let handle = edge.handle();
        let thread = std::thread::spawn(move || {
            let pinned_index = snap.index();
            let pinned = AhBackend::new(&pinned_index);
            let following = SnapshotBackend::new(&snap);
            let inner: &dyn DistanceBackend = if follow { &following } else { &pinned };
            match log {
                Some(log) => edge.serve(snap.server(), &TimedBackend { inner, log }),
                None => edge.serve(snap.server(), inner),
            }
        });
        let stack = Stack {
            addr,
            handle,
            thread,
        };
        if let Err(e) = wait_ready(addr) {
            let _ = stack.stop();
            return Err(e);
        }
        Ok(stack)
    }

    /// Response bytes the edge has written so far.
    pub fn bytes_out(&self) -> u64 {
        self.handle.metrics().bytes_out()
    }

    /// Drains and stops the edge, returning its final accounting.
    pub fn stop(self) -> io::Result<EdgeReport> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("edge thread panicked"))?
    }
}

/// A served index and the time it took to bring up.
pub struct SetUp {
    pub snap: Arc<SnapshotServer>,
    pub stack: Stack,
    /// Graph in memory → index built → edge accepting connections.
    pub setup_s: f64,
    /// The `AhIndex::build` part of it.
    pub build_s: f64,
}

/// Builds the index and brings the stack up.
pub fn set_up(g: &ah_graph::Graph, follow: bool) -> io::Result<SetUp> {
    let t0 = now_ns();
    let index = AhIndex::build(g, &Default::default());
    let t1 = now_ns();
    let snap = Arc::new(SnapshotServer::new(Arc::new(index), server_config()));
    let stack = Stack::start(Arc::clone(&snap), follow, None)?;
    Ok(SetUp {
        snap,
        stack,
        setup_s: (now_ns() - t0) as f64 / 1e9,
        build_s: (t1 - t0) as f64 / 1e9,
    })
}

/// One recorded backend session call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Request kind, in `ah_server::COST_KIND_NAMES` order.
    pub kind: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Source and target (first of each list for matrices; the target
    /// of a knn call is its source).
    pub s: NodeId,
    pub t: NodeId,
}

/// Every session call of a traced run, in call order.
#[derive(Default)]
pub struct CallLog {
    calls: Mutex<Vec<Call>>,
}

impl CallLog {
    pub fn len(&self) -> usize {
        self.calls.lock().expect("call log lock").len()
    }

    /// Calls recorded since the first `from`.
    pub fn since(&self, from: usize) -> Vec<Call> {
        self.calls.lock().expect("call log lock")[from..].to_vec()
    }

    fn record(&self, kind: usize, start_ns: u64, s: NodeId, t: NodeId) {
        let end_ns = now_ns();
        self.calls.lock().expect("call log lock").push(Call {
            kind,
            start_ns,
            end_ns,
            s,
            t,
        });
    }
}

/// A [`DistanceBackend`] that times every call of its sessions into a
/// [`CallLog`] and otherwise forwards to `inner` unchanged, including
/// `take_cost` and every scenario method (so a backend's own
/// composition or override is what runs).
pub struct TimedBackend<'a> {
    pub inner: &'a dyn DistanceBackend,
    pub log: Arc<CallLog>,
}

impl DistanceBackend for TimedBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        Box::new(TimedSession {
            inner: self.inner.make_session(),
            log: &self.log,
        })
    }
}

pub struct TimedSession<'a> {
    pub inner: Box<dyn BackendSession + 'a>,
    pub log: &'a CallLog,
}

impl BackendSession for TimedSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<u64> {
        let t0 = now_ns();
        let r = self.inner.distance(s, t);
        self.log.record(0, t0, s, t);
        r
    }

    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Path> {
        let t0 = now_ns();
        let r = self.inner.path(s, t);
        self.log.record(1, t0, s, t);
        r
    }

    fn one_to_many(&mut self, source: NodeId, targets: &[NodeId]) -> Vec<Option<u64>> {
        self.inner.one_to_many(source, targets)
    }

    fn matrix(&mut self, sources: &[NodeId], targets: &[NodeId]) -> Vec<Vec<Option<u64>>> {
        let t0 = now_ns();
        let r = self.inner.matrix(sources, targets);
        let first = |ids: &[NodeId]| ids.first().copied().unwrap_or(0);
        self.log.record(4, t0, first(sources), first(targets));
        r
    }

    fn knn(&mut self, source: NodeId, candidates: &[NodeId], k: usize) -> Vec<(NodeId, u64)> {
        let t0 = now_ns();
        let r = self.inner.knn(source, candidates, k);
        self.log.record(3, t0, source, source);
        r
    }

    fn via(&mut self, s: NodeId, t: NodeId, candidates: &[NodeId]) -> Option<ViaAnswer> {
        let t0 = now_ns();
        let r = self.inner.via(s, t, candidates);
        self.log.record(2, t0, s, t);
        r
    }

    fn take_cost(&mut self) -> CostCounters {
        self.inner.take_cost()
    }
}
