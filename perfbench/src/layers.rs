//! The traced run's per-layer metrics, layer table and span file.
//!
//! Spans are recorded by the benchmark's own code around calls into
//! each layer's public functions: the client request and its send, the
//! backend session calls (via [`crate::stack::TimedBackend`]), the
//! index-build stages, delta application and reloads. They are kept in
//! memory and written out once, at the end.

use std::fmt::Write as _;
use std::hint::black_box;

use ah_arterial::{assign_levels, SelectionConfig};
use ah_contraction::contract_with_order;
use ah_core::{rank_nodes, AhIndex, BuildConfig};
use ah_graph::Graph;
use ah_net::http::{self, HttpLimits, ParseOutcome};
use ah_server::{AhBackend, DistanceBackend, PoiSet, Server, COST_KIND_NAMES};
use ah_workload::{ChurnPlan, ScenarioOp};

use crate::client::Outcome;
use crate::ops::{kind_of, Stream, Workload};
use crate::stack::Call;
use crate::stats::{now_ns, Samples};
use crate::Report;

/// Requests of the traced phase whose spans are kept (with their
/// session calls); every request still counts in the metrics.
const MAX_REQUEST_SPANS: usize = 50_000;
/// Ops of the workload's stream replayed for the exact cost counts.
const REPLAY_OPS: usize = 2000;
/// Probe ops per request kind the stream lacks.
const PROBE_OPS: usize = 200;
/// Requests and bodies the parse and render timings loop over.
pub const CODEC_SAMPLES: usize = 2000;

/// Server-side counters read before and after the traced phase.
#[derive(Debug, Clone, Copy)]
pub struct ServerCounters {
    queue_wait_ns: u64,
    queue_waits: u64,
    cache_hits: u64,
    cache_misses: u64,
    bytes_out: u64,
}

impl ServerCounters {
    pub fn read(server: &Server, bytes_out: u64) -> Self {
        let m = server.metrics();
        ServerCounters {
            queue_wait_ns: m.queue_wait.total_ns(),
            queue_waits: m.queue_wait.count(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            bytes_out,
        }
    }
}

pub struct TraceInput<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub g: &'a Graph,
    pub plan: &'a ChurnPlan,
    /// The graph of each churn generation, base first.
    pub graphs: &'a [Graph],
    pub index: &'a AhIndex,
    /// The timed `AhIndex::build` of the run's set-up.
    pub build_s: f64,
    pub stream: &'a Stream,
    /// The nominal-rate phase on the plain backend, and the same rate
    /// through the timing wrapper.
    pub phase_a: &'a Outcome,
    pub phase_b: &'a Outcome,
    pub before: ServerCounters,
    pub after: ServerCounters,
    /// Session calls made during phase B.
    pub calls: Vec<Call>,
    pub queue_high_water: usize,
    pub reload_spans: &'a [(u64, u64)],
    pub categories: u32,
}

pub struct LayerResult {
    /// Two replays of one stream gave bit-identical cost counts.
    pub counts_repeat: bool,
}

/// One recorded span.
struct SpanRec {
    id: u64,
    parent: u64,
    request: Option<usize>,
    name: &'static str,
    start: u64,
    end: u64,
}

#[derive(Default)]
struct Spans {
    recs: Vec<SpanRec>,
}

impl Spans {
    fn add(
        &mut self,
        name: &'static str,
        parent: u64,
        request: Option<usize>,
        start: u64,
        end: u64,
    ) -> u64 {
        let id = self.recs.len() as u64 + 1;
        self.recs.push(SpanRec {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
        id
    }

    /// Writes `id parent request name start_ns end_ns` lines.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.recs.len() * 48);
        out.push_str("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
        for s in &self.recs {
            let req = s.request.map_or("-".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{req}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Span and metric name of each request kind's session call: point
/// queries are the kernel's (`ah_core`), scenarios are compositions
/// served by `ah_server`.
const CALL_NAMES: [&str; 5] = [
    "ah_core.distance",
    "ah_core.path",
    "ah_server.via",
    "ah_server.knn",
    "ah_server.matrix",
];

/// The (kind, s, t) a session call for `op` records.
fn call_key(op: &ScenarioOp) -> (usize, u32, u32) {
    match op {
        ScenarioOp::Distance { s, t }
        | ScenarioOp::Path { s, t }
        | ScenarioOp::Via { s, t, .. } => (kind_of(op), *s, *t),
        ScenarioOp::Knn { s, .. } => (3, *s, *s),
        ScenarioOp::Matrix { sources, targets } => (
            4,
            sources.first().copied().unwrap_or(0),
            targets.first().copied().unwrap_or(0),
        ),
    }
}

/// Per-kind exact costs and call times from replaying ops through one
/// uncached session.
struct Replay {
    count: [u64; 5],
    settled: [u64; 5],
    relaxed: [u64; 5],
    heap_pops: [u64; 5],
    times: Vec<Samples>,
}

fn replay(index: &AhIndex, ops: &[ScenarioOp], pois: &PoiSet) -> Replay {
    let backend = AhBackend::new(index);
    let mut session = backend.make_session();
    let mut r = Replay {
        count: [0; 5],
        settled: [0; 5],
        relaxed: [0; 5],
        heap_pops: [0; 5],
        times: vec![Samples::new(); 5],
    };
    session.take_cost();
    for op in ops {
        let k = kind_of(op);
        let t0 = now_ns();
        match op {
            ScenarioOp::Distance { s, t } => {
                black_box(session.distance(*s, *t));
            }
            ScenarioOp::Path { s, t } => {
                black_box(session.path(*s, *t));
            }
            ScenarioOp::Via { s, t, cat } => {
                black_box(session.via(*s, *t, pois.category(*cat)));
            }
            ScenarioOp::Knn { s, cat, k } => {
                black_box(session.knn(*s, pois.category(*cat), *k as usize));
            }
            ScenarioOp::Matrix { sources, targets } => {
                black_box(session.matrix(sources, targets));
            }
        }
        r.times[k].push((now_ns() - t0) as f64);
        let c = session.take_cost();
        r.count[k] += 1;
        r.settled[k] += c.nodes_settled;
        r.relaxed[k] += c.edges_relaxed;
        r.heap_pops[k] += c.heap_pops;
    }
    r
}

/// The replay set: a prefix of the workload's stream, plus probe ops
/// built from its pairs for every kind the prefix lacks, so each
/// per-kind metric is measured on every workload.
fn replay_ops(stream: &Stream, categories: u32) -> (Vec<ScenarioOp>, [bool; 5]) {
    let mut ops: Vec<ScenarioOp> = stream.ops.iter().take(REPLAY_OPS).cloned().collect();
    let mut present = [false; 5];
    for op in &ops {
        present[kind_of(op)] = true;
    }
    let pairs: Vec<(u32, u32)> = ops
        .iter()
        .filter_map(|op| match op {
            ScenarioOp::Distance { s, t }
            | ScenarioOp::Path { s, t }
            | ScenarioOp::Via { s, t, .. } => Some((*s, *t)),
            _ => None,
        })
        .collect();
    for (kind, _) in present.iter().enumerate().filter(|(_, p)| !**p) {
        for i in 0..PROBE_OPS {
            let (s, t) = pairs[i % pairs.len()];
            let (s2, t2) = pairs[(i + 1) % pairs.len()];
            let cat = i as u32 % categories;
            ops.push(match kind {
                0 => ScenarioOp::Distance { s, t },
                1 => ScenarioOp::Path { s, t },
                2 => ScenarioOp::Via { s, t, cat },
                3 => ScenarioOp::Knn {
                    s,
                    cat,
                    k: 1 + i as u32 % 8,
                },
                _ => {
                    let mut sources = vec![s, s2];
                    let mut targets = vec![t, t2];
                    sources.sort_unstable();
                    sources.dedup();
                    targets.sort_unstable();
                    targets.dedup();
                    ScenarioOp::Matrix { sources, targets }
                }
            });
        }
    }
    (ops, present)
}

/// Mean nanoseconds per call of `f` over `items`, looping until at
/// least 50 ms have been timed.
fn time_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t0 = now_ns();
    let mut calls = 0u64;
    while now_ns() - t0 < 50_000_000 {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
    }
    (now_ns() - t0) as f64 / calls.max(1) as f64
}

pub fn per_layer(x: &TraceInput, report: &mut Report) -> LayerResult {
    let mut spans = Spans::default();
    let pois = PoiSet::default_for(x.g.num_nodes());
    let a = x.phase_a;
    let b = x.phase_b;
    let nb = b.answered();

    // -------------------------------------------- client and spans
    let mut lat_a = a.latencies(0..a.answered());
    let mut lat_b = b.latencies(0..nb);
    let client_mean_ns = lat_b.mean().unwrap_or(0.0);
    let mut roots = Vec::with_capacity(nb);
    for i in 0..nb {
        if i == MAX_REQUEST_SPANS {
            break;
        }
        let root = spans.add(
            "client.request",
            0,
            Some(b.first + i),
            b.due_ns(i),
            b.recv_ns[i],
        );
        spans.add(
            "client.send",
            root,
            Some(b.first + i),
            b.due_ns(i),
            b.send_ns[i],
        );
        roots.push(root);
    }
    // Match each session call to its request: one worker serves in
    // order, and cache hits make no call, so a forward scan suffices.
    let mut next = 0;
    let mut call_ns = [0u64; 5];
    let mut call_times: Vec<Samples> = vec![Samples::new(); 5];
    for c in &x.calls {
        let key = (c.kind, c.s, c.t);
        let mut request = None;
        while next < nb {
            let i = next;
            next += 1;
            if call_key(x.stream.op(b.first + i)) == key {
                request = Some(i);
                break;
            }
        }
        if let Some(i) = request.filter(|&i| i < roots.len()) {
            spans.add(
                CALL_NAMES[c.kind],
                roots[i],
                Some(b.first + i),
                c.start_ns,
                c.end_ns,
            );
        }
        call_ns[c.kind] += c.end_ns - c.start_ns;
        call_times[c.kind].push((c.end_ns - c.start_ns) as f64);
    }
    let worker_ns: u64 = call_ns.iter().sum();

    // ------------------------------------------- server-side deltas
    let d = |after: u64, before: u64| after.saturating_sub(before);
    let waits = d(x.after.queue_waits, x.before.queue_waits);
    let queue_wait_ns =
        d(x.after.queue_wait_ns, x.before.queue_wait_ns) as f64 / waits.max(1) as f64;
    let hits = d(x.after.cache_hits, x.before.cache_hits);
    let misses = d(x.after.cache_misses, x.before.cache_misses);
    let worker_per_req_ns = worker_ns as f64 / nb.max(1) as f64;
    let residual_ns = client_mean_ns - queue_wait_ns - worker_per_req_ns;
    let wall_ns = b.wall_ns().max(1) as f64;
    let lateness_mean_ns = b.lateness(0..b.sent).mean().unwrap_or(0.0);

    // -------------------------------------------------- the replay
    let (ops, present) = replay_ops(x.stream, x.categories);
    let t0 = now_ns();
    let first = replay(x.index, &ops, &pois);
    let t1 = now_ns();
    let mut second = replay(x.index, &ops, &pois);
    let t2 = now_ns();
    spans.add("replay.first", 0, None, t0, t1);
    spans.add("replay.second", 0, None, t1, t2);
    let counts_repeat = first.count == second.count
        && first.settled == second.settled
        && first.relaxed == second.relaxed
        && first.heap_pops == second.heap_pops;
    if !counts_repeat {
        say!("EXACT COUNTS DIFFER BETWEEN TWO REPLAYS OF ONE STREAM");
    }

    // ------------------------------------------- build breakdown
    let cfg = BuildConfig::default();
    let root = spans.add("setup.build_breakdown", 0, None, now_ns(), 0);
    let s0 = now_ns();
    let la = assign_levels(
        x.g,
        &SelectionConfig {
            max_levels: cfg.max_levels,
        },
    );
    let s1 = now_ns();
    let ranking = rank_nodes(&la, cfg.vertex_cover_rank, cfg.downgrade_non_cover);
    let s2 = now_ns();
    black_box(contract_with_order(x.g, &ranking.order, cfg.contraction));
    let s3 = now_ns();
    spans.add("ah_arterial.assign_levels", root, None, s0, s1);
    spans.add("ah_core.rank_nodes", root, None, s1, s2);
    spans.add("ah_contraction.contract_with_order", root, None, s2, s3);
    spans.recs[root as usize - 1].end = s3;

    let mut apply_ms = Samples::new();
    for (round, g) in x.plan.rounds.iter().zip(x.graphs) {
        let t0 = now_ns();
        black_box(round.delta.apply(g).expect("churn deltas chain"));
        let t1 = now_ns();
        spans.add("ah_graph.delta_apply", 0, None, t0, t1);
        apply_ms.push((t1 - t0) as f64 / 1e6);
    }
    for &(s, e) in x.reload_spans {
        spans.add("ah_server.reload", 0, None, s, e);
    }

    // --------------------------------------------- parse / render
    let reqs: Vec<&[u8]> = (b.first..b.first + nb.min(CODEC_SAMPLES))
        .map(|i| x.stream.request(i))
        .collect();
    let limits = HttpLimits::default();
    let p0 = now_ns();
    let parse_ns = time_per_item(&reqs, |r| {
        let parsed = http::parse_request(r, &limits);
        assert!(
            matches!(parsed, ParseOutcome::Request(_)),
            "benchmark request failed to parse"
        );
        black_box(parsed);
    });
    let bodies: Vec<&[u8]> = (0..b.kept_bodies().min(CODEC_SAMPLES))
        .map(|i| b.body(i))
        .collect();
    let p1 = now_ns();
    let render_ns = time_per_item(&bodies, |body| {
        black_box(http::response(200, "application/json", body, true, &[]));
    });
    spans.add("ah_net.parse_request", 0, None, p0, p1);
    spans.add("ah_net.response", 0, None, p1, now_ns());

    // ---------------------------------------------------- metrics
    let us = |ns: f64| ns / 1e3;
    let p50_a = lat_a.median().unwrap_or(f64::NAN);
    let p50_b = lat_b.median().unwrap_or(f64::NAN);
    report.metric("ah_net.parse_ns", parse_ns, "ns");
    report.metric("ah_net.render_ns", render_ns, "ns");
    report.metric("ah_net.residual_us", us(residual_ns), "us");
    report.metric(
        "ah_net.bytes_out_per_req",
        d(x.after.bytes_out, x.before.bytes_out) as f64 / nb.max(1) as f64,
        "B/req",
    );
    report.metric("ah_server.queue_wait_us", us(queue_wait_ns), "us");
    report.metric(
        "ah_server.queue_high_water",
        x.queue_high_water as f64,
        "count",
    );
    report.metric(
        "ah_server.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "ah_server.worker_busy_frac",
        worker_ns as f64 / wall_ns,
        "ratio",
    );
    // With every answer served from the cache no session call was timed;
    // the share then comes from the uncached replay of the stream's kinds.
    let kind_ns: Vec<f64> = (0..5)
        .map(|k| match worker_ns {
            0 if present[k] => second.times[k].sum(),
            0 => 0.0,
            _ => call_ns[k] as f64,
        })
        .collect();
    report.metric(
        "ah_server.scenario_share",
        kind_ns[2..].iter().sum::<f64>() / kind_ns.iter().sum::<f64>(),
        "ratio",
    );
    for k in 0..5 {
        // Served calls when the phase had them, the replay otherwise.
        let t = if call_times[k].is_empty() {
            &mut second.times[k]
        } else {
            &mut call_times[k]
        };
        let mean = t.mean().unwrap_or(f64::NAN);
        let p99 = t.quantile(0.99).unwrap_or(f64::NAN);
        report.metric(format!("{}_us", CALL_NAMES[k]), us(mean), "us");
        report.metric(format!("{}_p99_us", CALL_NAMES[k]), us(p99), "us");
    }
    for (k, kind) in COST_KIND_NAMES.iter().enumerate() {
        let n = first.count[k].max(1) as f64;
        report.metric(
            format!("ah_core.settled_per_query.{kind}"),
            first.settled[k] as f64 / n,
            "count",
        );
        report.metric(
            format!("ah_core.relaxed_per_query.{kind}"),
            first.relaxed[k] as f64 / n,
            "count",
        );
        report.metric(
            format!("ah_core.heap_pops_per_query.{kind}"),
            first.heap_pops[k] as f64 / n,
            "count",
        );
    }
    report.metric("ah_arterial.select_s", (s1 - s0) as f64 / 1e9, "s");
    report.metric(
        "ah_arterial.overlay_shortcuts",
        la.overlay_shortcuts as f64,
        "count",
    );
    report.metric("ah_core.rank_s", (s2 - s1) as f64 / 1e9, "s");
    report.metric("ah_contraction.contract_s", (s3 - s2) as f64 / 1e9, "s");
    report.metric("ah_core.build_s", x.build_s, "s");
    report.metric(
        "ah_graph.delta_apply_ms",
        apply_ms.mean().unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "ah_obs.trace_overhead_pct",
        (p50_b / p50_a - 1.0) * 100.0,
        "%",
    );
    report.metric(
        "loadgen.lateness_p99_us",
        us(b.lateness(0..b.sent).quantile(0.99).unwrap_or(f64::NAN)),
        "us",
    );
    report.metric("client.mean_us", us(client_mean_ns), "us");
    // Tail latency is a per-layer figure: on a shared two-vCPU host
    // the nominal p90 and p99 moved with the host's CPU steal (1 to 6 %
    // of vCPU time) by more than any end-to-end bound allows. The tail
    // still bounds `capacity_qps` through its p99 limit.
    let tail = crate::phase_stats(b);
    report.metric("client.p90_ms", tail.p90_ms, "ms");
    report.metric("client.p99_ms", tail.p99_ms, "ms");

    // ------------------------------------------------ layer table
    let accounted = queue_wait_ns + worker_per_req_ns;
    let reconciles = residual_ns >= -0.1 * client_mean_ns && accounted <= 1.1 * client_mean_ns;
    let pct = |v: f64| 100.0 * v / client_mean_ns.max(1.0);
    eprintln!(
        "layer table — {} (seed {}, {nb} requests at {}/s)",
        x.workload.name(),
        x.seed,
        b.rate
    );
    eprintln!("  {:<34}{:>12}{:>9}", "layer", "mean_us", "share");
    eprintln!(
        "  {:<34}{:>12.2}{:>8.1}%",
        "client, from scheduled send",
        us(client_mean_ns),
        100.0
    );
    eprintln!(
        "  {:<34}{:>12.2}{:>8.1}%",
        "ah_server queue wait",
        us(queue_wait_ns),
        pct(queue_wait_ns)
    );
    eprintln!(
        "  {:<34}{:>12.2}{:>8.1}%",
        "worker call (backend session)",
        us(worker_per_req_ns),
        pct(worker_per_req_ns)
    );
    eprintln!(
        "  {:<34}{:>12.2}{:>8.1}%",
        "ah_net residual",
        us(residual_ns),
        pct(residual_ns)
    );
    eprintln!(
        "  {:<34}{:>12.2}{:>8.1}%",
        "  of which generator lateness",
        us(lateness_mean_ns),
        pct(lateness_mean_ns)
    );
    if worker_ns == 0 {
        eprintln!("  worker-call time by kind: none, every answer came from the cache");
    } else {
        eprintln!(
            "  worker-call time by kind (share): {}",
            (0..5)
                .filter(|&k| call_ns[k] > 0)
                .map(|k| format!(
                    "{} {:.1}%",
                    COST_KIND_NAMES[k],
                    100.0 * call_ns[k] as f64 / worker_ns as f64
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    eprintln!(
        "  replay kinds from the stream: {}; probed: {}",
        kinds_where(&present, true),
        kinds_where(&present, false)
    );
    if reconciles {
        eprintln!("  layers reconcile: queue + worker + residual = client mean, residual >= -10%");
    } else {
        eprintln!(
            "  LAYER TABLE DOES NOT RECONCILE: queue + worker exceed the client mean by >10%"
        );
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}.tsv", x.workload.name()));
    match spans.write(&path) {
        Ok(()) => say!("{} spans written to {}", spans.recs.len(), path.display()),
        Err(e) => say!("could not write spans to {}: {e}", path.display()),
    }
    LayerResult { counts_repeat }
}

fn kinds_where(present: &[bool; 5], want: bool) -> String {
    let names: Vec<&str> = (0..5)
        .filter(|&k| present[k] == want)
        .map(|k| COST_KIND_NAMES[k])
        .collect();
    if names.is_empty() {
        "none".to_string()
    } else {
        names.join(", ")
    }
}
