//! Serving benchmark for the AH workspace.
//!
//! One command generates a seeded workload, serves it through the real
//! stack on loopback (`ah_net::EdgeServer` → `ah_server::Server`, one
//! worker, AH backend), drives it open-loop, checks every answer and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports per-layer metrics, prints a layer
//! table and writes its spans to `perfbench/traces/<workload>.tsv`.
//! Human-readable progress goes to standard error.

/// Progress line on standard error, stamped with seconds since start.
macro_rules! say {
    ($($arg:tt)*) => {
        eprintln!("[perfbench {:7.2}s] {}", crate::stats::now_ns() as f64 / 1e9, format!($($arg)*))
    };
}

mod client;
mod layers;
mod ops;
mod stack;
mod stats;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ah_core::AhIndex;
use ah_graph::{Graph, WeightDelta};
use ah_server::{DeltaReloader, SnapshotServer, POI_CATEGORIES};
use ah_workload::{ChurnPlan, WeightChurn};

use client::{run_phase, Conn, Outcome, Phase};
use ops::{Oracle, Stream, Workload};
use stack::{set_up, CallLog, Stack};
use stats::{median, now_ns};

const USAGE: &str = "\
usage: perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]

Serves a seeded workload through the AH HTTP edge on loopback, drives it
open-loop, checks every answer and prints the metrics as one JSON line.

  --workload NAME   point-hot | point-cold | scenario-mix | live-reload
  --seed N          workload seed (default 1)
  --seconds N       measured time of the run, 1..=600 (default 16)
  --trace 0|1       0: end-to-end metrics; 1: traced run, per-layer metrics
  --help            print this help";

/// Full set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Reloads timed on the idle engine after the reads of a traced run of
/// a workload without live reloads; `ah_server.reload_staleness_s` is
/// their median.
const IDLE_RELOADS: usize = 5;
/// Churn rounds planned (more than a run can apply) and edges each
/// round re-weights or closes.
const CHURN_ROUNDS: usize = 40;
const CHURN_CHANGES: usize = 16;
/// Binary-search steps on a ladder of `ops::RUNGS` rates.
const LADDER_PROBES: usize = 6;
/// Parts the untraced run's nominal phase is cut into.
const NOMINAL_PARTS: usize = 3;
/// Share of `--seconds` each nominal phase of the traced run takes; the
/// rest goes to the capacity ladder.
const TRACE_NOMINAL_SHARE: f64 = 0.15;
/// Longest request stream generated; longer runs wrap around. Far above
/// the 64 Ki-entry distance cache, so a wrapped cold pair has long been
/// evicted when it comes round again.
const MAX_STREAM: usize = 400_000;
/// Samples per p99 sub-window: at least ten beyond the p99.
const MIN_SAMPLES: usize = 1000;
/// A ladder probe stops sending once a response is this many times the
/// latency limit late: the backlog is real and draining it costs time.
const ABORT_FACTOR: f64 = 20.0;
/// Workloads that pre-warm the cache send each distinct request once;
/// the others warm up for this long at the nominal rate.
const WARMUP_SECS: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum CliError {
    Help,
    Usage(String),
}

fn parse_args(argv: &[String]) -> Result<Args, CliError> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 16u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(CliError::Help);
        }
        let mut value = || {
            it.next()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::parse(v)
                        .ok_or_else(|| CliError::Usage(format!("unknown workload {v}")))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--seed needs an integer, got {v}")))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| CliError::Usage(format!("--seconds needs 1..=600, got {v}")))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(CliError::Usage(format!("--trace needs 0 or 1, got {v}"))),
                };
            }
            other => return Err(CliError::Usage(format!("unknown argument {other}"))),
        }
    }
    let workload = workload.ok_or_else(|| CliError::Usage("--workload is required".into()))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(CliError::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("perfbench: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match std::panic::catch_unwind(|| run(&args)) {
        Ok(Ok(report)) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
        Err(_) => {
            eprintln!("perfbench: internal error (panic above)");
            ExitCode::from(1)
        }
    }
}

/// The run's result line.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Sends consecutive slices of one stream as timed phases.
struct Runner<'a> {
    stream: &'a Stream,
    cursor: usize,
    generation: Option<&'a (dyn Fn() -> u64 + Sync)>,
    /// With a fixed index, each phase's answers are checked right after
    /// it (between phases, the server idle) and their bodies freed; with
    /// live reloads the check waits for the end of the run, when every
    /// published generation is known.
    check_now: Option<(&'a [Arc<AhIndex>], &'a Graph)>,
    checked: Checked,
    outcomes: Vec<Outcome>,
}

impl<'a> Runner<'a> {
    fn new(
        stream: &'a Stream,
        generation: Option<&'a (dyn Fn() -> u64 + Sync)>,
        check_now: Option<(&'a [Arc<AhIndex>], &'a Graph)>,
    ) -> Self {
        Runner {
            stream,
            cursor: 0,
            generation,
            check_now,
            checked: Checked::default(),
            outcomes: Vec::new(),
        }
    }

    /// Sends the next `rate × secs` requests (at least one) at `rate`.
    fn phase(
        &mut self,
        conn: &mut Conn,
        rate: f64,
        secs: f64,
        abort_after_ms: Option<f64>,
    ) -> &Outcome {
        let count = ((rate * secs).round() as usize).max(1);
        let mut out = run_phase(
            conn,
            &Phase {
                stream: self.stream,
                first: self.cursor,
                count,
                rate,
                abort_after_ns: abort_after_ms.map(|ms| (ms * 1e6) as u64),
                generation: self.generation,
            },
        );
        self.cursor += count;
        if let Some((indexes, g)) = self.check_now {
            self.checked
                .add(check_answers(&[(self.stream, &out)], indexes, g));
            out.release_bodies(layers::CODEC_SAMPLES);
        }
        self.outcomes.push(out);
        self.outcomes.last().expect("just pushed")
    }
}

/// Latency summary of one phase, in milliseconds.
pub struct PhaseStats {
    answered: usize,
    pub p50_ms: f64,
    /// Over all samples of the phase.
    pub p90_ms: f64,
    /// The phase is cut into consecutive sub-windows of `MIN_SAMPLES`
    /// requests; this is the median of their p99s, so a scheduling stall
    /// of the shared two-vCPU machine moves one sub-window, not the
    /// result.
    pub p99_ms: f64,
    /// Number of sub-windows and the sample count of each.
    windows: usize,
    window_samples: usize,
    lateness_p99_ms: f64,
}

pub fn phase_stats(o: &Outcome) -> PhaseStats {
    let n = o.answered();
    let windows = (n / MIN_SAMPLES).max(1);
    let per = n / windows;
    let p99s: Vec<f64> = (0..windows)
        .filter_map(|w| o.latencies(w * per..(w + 1) * per).quantile(0.99))
        .collect();
    PhaseStats {
        answered: n,
        p50_ms: o.latencies(0..n).median().unwrap_or(f64::NAN) / 1e6,
        p90_ms: o.latencies(0..n).quantile(0.9).unwrap_or(f64::NAN) / 1e6,
        p99_ms: median(&p99s).unwrap_or(f64::NAN) / 1e6,
        windows,
        window_samples: per,
        lateness_p99_ms: o.lateness(0..o.sent).quantile(0.99).unwrap_or(f64::NAN) / 1e6,
    }
}

/// Whether a ladder probe met the workload's conditions: every request
/// answered 200, p99 (median of the sub-window p99s) within the limit,
/// and no growing backlog — neither the writer's median lateness nor
/// the median response latency rose by more than half the limit from
/// the first to the second half of the probe.
fn probe_passes(o: &Outcome, limit_ms: f64) -> bool {
    let n = o.answered();
    if o.aborted || o.lost > 0 || n < 8 || o.status.iter().any(|&s| s != 200) {
        return false;
    }
    let h = n / 2;
    let limit_ns = limit_ms * 1e6;
    let grew = |first: Option<f64>, last: Option<f64>| match (first, last) {
        (Some(a), Some(b)) => b - a > limit_ns / 2.0,
        _ => true,
    };
    let late_grew = grew(o.lateness(0..h).median(), o.lateness(h..n).median());
    let lat_grew = grew(o.latencies(0..h).median(), o.latencies(h..n).median());
    phase_stats(o).p99_ms * 1e6 <= limit_ns && !late_grew && !lat_grew
}

/// Binary search over the workload's ladder for the highest rung that
/// passes [`probe_passes`]; returns the rate that rung achieved. A
/// failing rung is probed once more: a passing retry means a transient
/// stall of the shared host, not a full server.
fn find_capacity(
    runner: &mut Runner,
    conn: &mut Conn,
    w: Workload,
    probe_secs: f64,
) -> Option<f64> {
    let (ladder, limit) = (w.ladder(), w.limit_ms());
    let mut capacity = None;
    let (mut lo, mut hi) = (-1i64, ladder.len() as i64);
    for _ in 0..LADDER_PROBES {
        if hi - lo <= 1 {
            break;
        }
        let mid = (lo + hi) / 2;
        let rate = ladder[mid as usize];
        let mut achieved = None;
        for _ in 0..2 {
            let o = runner.phase(conn, rate, probe_secs, Some(limit * ABORT_FACTOR));
            let pass = probe_passes(o, limit);
            let st = phase_stats(o);
            say!(
                "ladder {rate:>9.1}/s: {} answered, p50 {:.3} ms, p99 {:.3} ms, \
                 send lateness p99 {:.3} ms{} → {}",
                st.answered,
                st.p50_ms,
                st.p99_ms,
                st.lateness_p99_ms,
                if o.aborted { " (aborted)" } else { "" },
                if pass { "pass" } else { "FAIL" }
            );
            let n = o.answered();
            let tenths: Vec<String> = (0..10)
                .map(|k| {
                    let mut l = o.latencies(k * n / 10..(k + 1) * n / 10);
                    format!("{:.2}", l.median().unwrap_or(f64::NAN) / 1e6)
                })
                .collect();
            say!("  p50 by tenth (ms): {}", tenths.join(" "));
            std::thread::sleep(std::time::Duration::from_millis(50));
            if pass {
                achieved = Some(o.answered() as f64 / (o.wall_ns() as f64 / 1e9));
                break;
            }
        }
        match achieved {
            Some(a) => {
                lo = mid;
                capacity = Some(a);
            }
            None => hi = mid,
        }
    }
    if capacity.is_none() {
        say!("WARNING: no ladder rate met the limit");
    }
    capacity
}

/// Reloads made during a run: for `live-reload`, the churn plan's
/// deltas back to back beside the reads; otherwise, in a traced run,
/// `IDLE_RELOADS` on the idle engine after the reads.
#[derive(Default)]
struct Reloads {
    /// Wall time of each completed reload call, seconds.
    walls: Vec<f64>,
    /// The index each reload published, in generation order.
    published: Vec<Arc<AhIndex>>,
    /// (start, end) of each completed reload, for the trace.
    spans: Vec<(u64, u64)>,
    attempts: u64,
    failures: u64,
}

/// Applies `deltas` one after another through `reloader`, recording
/// each into `r`, until `stop` is set or a reload fails.
fn reload_rounds(
    reloader: &DeltaReloader,
    deltas: impl IntoIterator<Item = WeightDelta>,
    stop: &AtomicBool,
    r: &mut Reloads,
) {
    for delta in deltas {
        if stop.load(Ordering::SeqCst) || r.failures > 0 {
            break;
        }
        r.attempts += 1;
        let t0 = now_ns();
        match reloader.reload(delta) {
            Ok(_) => {
                let t1 = now_ns();
                r.walls.push((t1 - t0) as f64 / 1e9);
                r.spans.push((t0, t1));
                r.published.push(reloader.server().index());
            }
            Err(e) => {
                say!("reload failed: {e}");
                r.failures += 1;
            }
        }
    }
}

fn spawn_reloads(
    reloader: Arc<DeltaReloader>,
    plan: &ChurnPlan,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Reloads> {
    let deltas: Vec<_> = plan.rounds.iter().map(|r| r.delta.clone()).collect();
    std::thread::spawn(move || {
        let mut r = Reloads::default();
        reload_rounds(&reloader, deltas, &stop, &mut r);
        r
    })
}

/// The graph after each churn round, starting with the base graph.
fn churn_graphs(g: &Graph, plan: &ChurnPlan) -> Vec<Graph> {
    let mut graphs = vec![g.clone()];
    for round in &plan.rounds {
        let next = round
            .delta
            .apply(graphs.last().expect("non-empty"))
            .expect("churn deltas chain")
            .graph;
        graphs.push(next);
    }
    graphs
}

/// Answer-check tally.
#[derive(Default)]
struct Checked {
    answers: u64,
    non_200: u64,
    mismatches: u64,
}

impl Checked {
    fn add(&mut self, c: Checked) {
        self.answers += c.answers;
        self.non_200 += c.non_200;
        self.mismatches += c.mismatches;
    }
}

/// Checks every answered request of `outcomes` against the oracle, on
/// two threads. `indexes[g]` is the index of generation `g`: a request
/// matches if any generation between the one live when it was sent and
/// the one live when it was answered gives its body (live-reload); with
/// one index that is simply the served index.
fn check_answers(outcomes: &[(&Stream, &Outcome)], indexes: &[Arc<AhIndex>], g: &Graph) -> Checked {
    let pois = ah_server::PoiSet::default_for(g.num_nodes());
    let mut items: Vec<(&Stream, &Outcome, usize)> = Vec::new();
    for &(stream, o) in outcomes {
        items.extend((0..o.answered()).map(|i| (stream, o, i)));
    }
    let half = items.len().div_ceil(2);
    let chunks: Vec<&[(&Stream, &Outcome, usize)]> = items.chunks(half.max(1)).collect();
    let pois = &pois;
    let results: Vec<Checked> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut oracles: Vec<Oracle> = indexes
                        .iter()
                        .map(|idx| Oracle::new(idx, g, pois))
                        .collect();
                    let mut c = Checked::default();
                    for &(stream, o, i) in chunk {
                        c.answers += 1;
                        if o.status[i] != 200 {
                            c.non_200 += 1;
                            continue;
                        }
                        let op = stream.op(o.first + i);
                        let (lo, hi) = if o.gen_sent.is_empty() {
                            (0, 0)
                        } else {
                            (o.gen_sent[i] as usize, o.gen_recv[i] as usize)
                        };
                        let body = o.body(i);
                        let ok = (lo..=hi.min(oracles.len() - 1))
                            .any(|gen| oracles[gen].expected(op).matches(body));
                        if !ok {
                            c.mismatches += 1;
                            if c.mismatches <= 3 {
                                say!("MISMATCH on {op:?}: got {}", String::from_utf8_lossy(body));
                            }
                        }
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread"))
            .collect()
    });
    results.into_iter().fold(Checked::default(), |mut acc, c| {
        acc.add(c);
        acc
    })
}

/// Verifies an index against plain Dijkstra on its graph for a seeded
/// sample of pairs, so an index-build bug cannot hide behind an oracle
/// that queries the same index.
fn index_agrees_with_dijkstra(idx: &AhIndex, g: &Graph, seed: u64) -> bool {
    let n = g.num_nodes() as u64;
    let mut q = ah_core::AhQuery::new();
    (0..256u64).all(|i| {
        let x = ah_search::scenario::splitmix64(seed ^ (i * 0x9E37_79B9));
        let (s, t) = ((x % n) as u32, ((x >> 32) % n) as u32);
        let want = ah_search::dijkstra_distance(g, s, t)
            .filter(|d| !d.is_infinite())
            .map(|d| d.length);
        q.distance(idx, s, t) == want
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let secs = args.seconds as f64;
    let spec = ah_data::registry::by_name(w.dataset())
        .ok_or_else(|| format!("dataset {} missing from the registry", w.dataset()))?;
    say!(
        "{} on {} (seed {}, {} s, trace {})",
        w.name(),
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let g = spec.build();
    let plan = WeightChurn::interactive(CHURN_ROUNDS, CHURN_CHANGES, args.seed).plan(&g, 0);
    let live = w == Workload::LiveReload;

    // ------------------------------------------------------- set-up
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::with_capacity(reps);
    let mut build_secs = 0.0;
    let mut served: Option<(Arc<SnapshotServer>, Stack)> = None;
    for rep in 0..reps {
        let up = set_up(&g, live).map_err(|e| format!("set-up failed: {e}"))?;
        say!(
            "set-up {}: {:.3} s (index build {:.3} s)",
            rep + 1,
            up.setup_s,
            up.build_s
        );
        setup_secs.push(up.setup_s);
        build_secs = up.build_s;
        let (snap, stack) = (up.snap, up.stack);
        if rep + 1 < reps {
            stack.stop().map_err(|e| format!("edge stop failed: {e}"))?;
        } else {
            served = Some((snap, stack));
        }
    }
    let (snap, stack) = served.expect("at least one set-up");
    let base_index = snap.index();

    // ----------------------------------------------------- workload
    let nominal = w.nominal_qps();
    // The untraced run spends `--seconds` at the nominal rate. The traced
    // run spends `TRACE_NOMINAL_SHARE` of it on each of its two nominal
    // phases and the rest on the ladder, whose probes are sized for the
    // expected 1.5 tries per binary-search step.
    let (nominal_secs, probe_secs) = if args.trace {
        let ladder_secs = secs * (1.0 - 2.0 * TRACE_NOMINAL_SHARE);
        (
            secs * TRACE_NOMINAL_SHARE,
            ladder_secs / (1.5 * LADDER_PROBES as f64),
        )
    } else {
        (secs, 0.0)
    };
    let top = w.ladder().last().copied().unwrap_or(nominal);
    let budget = 2.0 * nominal * nominal_secs + top * probe_secs * 2.0 * LADDER_PROBES as f64;
    let total =
        ((budget + nominal * WARMUP_SECS) as usize + 1024).min(w.cycle().unwrap_or(MAX_STREAM));
    let stream = ops::generate(w, &g, args.seed, total);
    let warm = w.prewarms_cache().then(|| ops::distinct(&stream));
    say!("generated {} requests", stream.len());

    // Live reloads run beside every phase of the live-reload workload.
    let reloader = Arc::new(DeltaReloader::new(
        Arc::clone(&snap),
        g.clone(),
        Default::default(),
    ));
    let stop_reloads = Arc::new(AtomicBool::new(false));
    let reload_thread =
        live.then(|| spawn_reloads(Arc::clone(&reloader), &plan, Arc::clone(&stop_reloads)));
    let snap_for_gen = Arc::clone(&snap);
    let generation = move || snap_for_gen.generation();
    let gen_probe: Option<&(dyn Fn() -> u64 + Sync)> = if live { Some(&generation) } else { None };

    let mut conn = Conn::connect(stack.addr).map_err(|e| format!("connect failed: {e}"))?;
    let fixed_index = [Arc::clone(&base_index)];
    let check_now = (!live).then_some((&fixed_index[..], &g));
    let mut warm_runner = warm.as_ref().map(|s| Runner::new(s, gen_probe, check_now));
    let mut runner = Runner::new(&stream, gen_probe, check_now);
    match warm_runner.as_mut() {
        Some(d) => {
            let n = d.stream.len() as f64;
            d.phase(&mut conn, nominal, n / nominal, None);
        }
        None => {
            runner.phase(&mut conn, nominal, WARMUP_SECS, None);
        }
    }

    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut traced = None;
    let mut capacity = None;
    let mut nominal_phases = Vec::new();
    if args.trace {
        // Phase A: plain backend (the untraced baseline for the
        // overhead figure), then the capacity ladder on the same edge;
        // phase B: the nominal rate through the timing wrapper on a fresh
        // edge over the same engine and cache.
        runner.phase(&mut conn, nominal, nominal_secs, None);
        let phase_a = runner.outcomes.len() - 1;
        capacity = find_capacity(&mut runner, &mut conn, w, probe_secs);
        drop(conn);
        stack.stop().map_err(|e| format!("edge stop failed: {e}"))?;
        let log = Arc::new(CallLog::default());
        let stack_b = Stack::start(Arc::clone(&snap), live, Some(Arc::clone(&log)))
            .map_err(|e| format!("traced edge failed to start: {e}"))?;
        let mut conn_b = Conn::connect(stack_b.addr).map_err(|e| format!("connect failed: {e}"))?;
        let before = layers::ServerCounters::read(snap.server(), stack_b.bytes_out());
        let calls_before = log.len();
        runner.phase(&mut conn_b, nominal, nominal_secs, None);
        let after = layers::ServerCounters::read(snap.server(), stack_b.bytes_out());
        let calls = log.since(calls_before);
        drop(conn_b);
        let report_b = stack_b
            .stop()
            .map_err(|e| format!("edge stop failed: {e}"))?;
        nominal_phases.push(runner.outcomes.len() - 1);
        traced = Some((phase_a, before, after, calls, report_b.queue_high_water));
    } else {
        // The nominal rate is measured in `NOMINAL_PARTS` parts; `p50_ms`
        // is the median of their p50s, so a host stall during one part
        // does not move it.
        for _ in 0..NOMINAL_PARTS {
            runner.phase(
                &mut conn,
                nominal,
                nominal_secs / NOMINAL_PARTS as f64,
                None,
            );
            nominal_phases.push(runner.outcomes.len() - 1);
        }
        drop(conn);
        stack.stop().map_err(|e| format!("edge stop failed: {e}"))?;
    }

    // ---------------------------------------------------- reloads
    stop_reloads.store(true, Ordering::SeqCst);
    let mut reloads = Reloads::default();
    match reload_thread {
        Some(h) => reloads = h.join().map_err(|_| "reload thread panicked".to_string())?,
        None if args.trace => {
            // Idle reloads: the same apply + rebuild + swap with no reads.
            let deltas = plan.rounds.iter().take(IDLE_RELOADS);
            let no_stop = AtomicBool::new(false);
            reload_rounds(
                &reloader,
                deltas.map(|r| r.delta.clone()),
                &no_stop,
                &mut reloads,
            );
        }
        None => {}
    }

    // ------------------------------------------------------ checks
    let mut indexes = vec![Arc::clone(&base_index)];
    indexes.extend(reloads.published.iter().cloned());
    let graphs = churn_graphs(&g, &plan);
    let index_ok = indexes
        .iter()
        .zip(&graphs)
        .all(|(idx, gg)| index_agrees_with_dijkstra(idx, gg, args.seed));
    if !index_ok {
        say!("INDEX DISAGREES WITH DIJKSTRA");
    }
    let mut checked = Checked::default();
    for d in warm_runner.iter_mut().chain([&mut runner]) {
        checked.add(std::mem::take(&mut d.checked));
    }
    let all: Vec<(&Stream, &Outcome)> = warm_runner
        .iter()
        .chain([&runner])
        .flat_map(|d| d.outcomes.iter().map(move |o| (d.stream, o)))
        .collect();
    let t_check = now_ns();
    if live {
        checked.add(check_answers(&all, &indexes, &g));
    }
    let sent: u64 = all.iter().map(|(_, o)| o.sent as u64).sum();
    let lost: u64 = all.iter().map(|(_, o)| o.lost as u64).sum();
    say!(
        "checked {} answers in {:.2} s: {} non-200, {} wrong, {} lost",
        checked.answers,
        (now_ns() - t_check) as f64 / 1e9,
        checked.non_200,
        checked.mismatches,
        lost
    );
    report.correct = index_ok && checked.mismatches == 0;
    report.attempted = sent + reloads.attempts;
    report.failed = lost + checked.non_200 + checked.mismatches + reloads.failures;
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;

    let mut part_p50s = Vec::new();
    for &i in &nominal_phases {
        let st = phase_stats(&runner.outcomes[i]);
        say!(
            "nominal {nominal}/s: {} samples, p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms \
             (median of {} sub-window p99s), send lateness p99 {:.4} ms",
            st.answered,
            st.p50_ms,
            st.p90_ms,
            st.p99_ms,
            st.windows,
            st.lateness_p99_ms
        );
        if st.window_samples < MIN_SAMPLES {
            say!(
                "WARNING: only {} samples per p99 sub-window (< {MIN_SAMPLES})",
                st.window_samples
            );
        }
        part_p50s.push(st.p50_ms);
    }
    let walls: Vec<String> = reloads.walls.iter().map(|w| format!(" {w:.3}")).collect();
    say!(
        "fail_frac {fail_frac} ({} of {}), reloads {} ok / {} attempted{}{}",
        report.failed,
        report.attempted,
        reloads.walls.len(),
        reloads.attempts,
        if walls.is_empty() { "" } else { ", wall s:" },
        walls.concat()
    );

    if let Some((phase_a, before, after, calls, high_water)) = traced {
        let ctx = layers::TraceInput {
            workload: w,
            seed: args.seed,
            g: &g,
            plan: &plan,
            graphs: &graphs,
            index: &base_index,
            build_s: build_secs,
            stream: &stream,
            phase_a: &runner.outcomes[phase_a],
            phase_b: &runner.outcomes[nominal_phases[0]],
            before,
            after,
            calls,
            queue_high_water: high_water,
            reload_spans: &reloads.spans,
            categories: POI_CATEGORIES,
        };
        let layer = layers::per_layer(&ctx, &mut report);
        report.correct &= layer.counts_repeat;
        let staleness = median(&reloads.walls).ok_or("no reload completed")?;
        report.metric("ah_server.reload_staleness_s", staleness, "s");
        report.metric("client.capacity_qps", capacity.unwrap_or(0.0), "req/s");
    } else {
        report.metric("setup_s", median(&setup_secs).expect("set-up samples"), "s");
        report.metric("p50_ms", median(&part_p50s).expect("nominal parts"), "ms");
        report.metric(
            "index_mib",
            base_index.size_bytes() as f64 / (1024.0 * 1024.0),
            "MiB",
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_accepts_the_contract_flags() {
        let a = parse_args(&argv(
            "--workload point-hot --seed 7 --seconds 10 --trace 1",
        ))
        .ok()
        .expect("valid");
        assert_eq!(a.workload, Workload::PointHot);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(ops::WORKLOADS
            .iter()
            .all(|w| Workload::parse(w.name()) == Some(*w)));
    }

    #[test]
    fn cli_rejects_unknown_and_malformed_flags() {
        for bad in [
            "--bogus",
            "--workload nope",
            "--workload point-hot --trace 2",
            "",
        ] {
            assert!(
                matches!(parse_args(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
        assert!(matches!(parse_args(&argv("--help")), Err(CliError::Help)));
    }
}
