//! The four workloads: what they send, how fast, and how their answers
//! are checked.
//!
//! Every request stream is a pure function of the dataset and the
//! seed. Expected answers come from outside the serving stack: point
//! answers from a direct `AhQuery` on the served index, scenario
//! answers from `ScenarioEngine` (plain Dijkstra) on the graph.

use std::collections::{HashMap, HashSet};

use ah_core::{AhIndex, AhQuery};
use ah_graph::{Graph, NodeId};
use ah_search::{PoiSet, ScenarioEngine, POI_CATEGORIES};
use ah_workload::{generate_query_sets, ScenarioOp, TrafficSchedule};

/// Pairs drawn per distance-stratified query set (Q1–Q10). Ten sets of
/// 200 keep the hot workload's distinct pairs far below the 64 Ki-entry
/// distance cache.
const PAIRS_PER_SET: usize = 200;
/// Largest `k` a scenario-mix knn request asks for.
const MAX_K: u32 = 8;
/// Ops in the scenario-mix cycle: about 6,000 of them distinct, which
/// the warm-up sends in under two seconds at the nominal rate.
const SCENARIO_CYCLE: usize = 12_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointHot,
    PointCold,
    ScenarioMix,
    LiveReload,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::PointHot,
    Workload::PointCold,
    Workload::ScenarioMix,
    Workload::LiveReload,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointHot => "point-hot",
            Workload::PointCold => "point-cold",
            Workload::ScenarioMix => "scenario-mix",
            Workload::LiveReload => "live-reload",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Registry dataset the workload serves: S0 (1,021 nodes), whose
    /// index builds in about 1.3 s, so a run can afford repeated
    /// set-ups, several reloads and a long nominal phase.
    pub fn dataset(self) -> &'static str {
        "S0"
    }

    /// The fixed open-loop rate `p50_ms`/`p99_ms` are measured at
    /// (requests per second): about a tenth of the capacity measured
    /// on a two-vCPU VM, so the latency figures hold when the shared
    /// host takes CPU time away (at half capacity p50 swung from 0.14
    /// to 17 ms between runs); for `live-reload` a light read rate
    /// beside the rebuilds.
    pub fn nominal_qps(self) -> f64 {
        match self {
            Workload::PointHot => 20_000.0,
            Workload::PointCold => 8_000.0,
            Workload::ScenarioMix => 4_000.0,
            Workload::LiveReload => 2_000.0,
        }
    }

    /// The rate ladder `capacity_qps` is searched on: `RUNGS` rates
    /// growing geometrically by 5 % from the lowest, about 0.28 of the
    /// capacity measured on a two-vCPU VM. The top rung then leaves room
    /// for a twofold gain, and the binary search's first probe lands at
    /// three quarters of capacity, where its verdict is sure: a first
    /// probe at capacity split the results into two clusters by
    /// whether it happened to pass.
    pub fn ladder(self) -> Vec<f64> {
        let lowest = match self {
            Workload::PointHot => 70_000.0,
            Workload::PointCold => 21_000.0,
            Workload::ScenarioMix => 11_000.0,
            Workload::LiveReload => 13_500.0,
        };
        (0..RUNGS)
            .map(|i| lowest * 1.05f64.powi(i as i32))
            .collect()
    }

    /// Length of the request cycle the workload replays, if it replays
    /// one. `scenario-mix` replays `SCENARIO_CYCLE` ops: once the
    /// warm-up has sent each distinct request, every cacheable answer
    /// (distance, via) is a hit, so each probe of the capacity ladder
    /// meets the same cache state; knn, path and matrix answers are
    /// never cached, so composition still does the worker's work.
    pub fn cycle(self) -> Option<usize> {
        (self == Workload::ScenarioMix).then_some(SCENARIO_CYCLE)
    }

    /// Whether the run starts by sending each distinct request of the
    /// stream once, filling the cache before anything is timed.
    pub fn prewarms_cache(self) -> bool {
        matches!(self, Workload::PointHot | Workload::ScenarioMix)
    }

    /// The p99 latency limit a ladder rate must meet, in milliseconds.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::ScenarioMix => 50.0,
            _ => 10.0,
        }
    }
}

/// Rungs on every ladder: 41 rates spanning a factor of about 7,
/// which a binary search covers in six steps.
pub const RUNGS: usize = 41;

/// A workload's materialized request stream.
pub struct Stream {
    pub ops: Vec<ScenarioOp>,
    bytes: Vec<u8>,
    offsets: Vec<usize>,
}

impl Stream {
    fn new(ops: Vec<ScenarioOp>) -> Stream {
        let mut bytes = Vec::with_capacity(ops.len() * 64);
        let mut offsets = Vec::with_capacity(ops.len() + 1);
        offsets.push(0);
        for op in &ops {
            render_request(op, &mut bytes);
            offsets.push(bytes.len());
        }
        Stream {
            ops,
            bytes,
            offsets,
        }
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Op `i`; a run longer than the stream wraps around to its start.
    pub fn op(&self, i: usize) -> &ScenarioOp {
        &self.ops[i % self.ops.len()]
    }

    /// The raw HTTP request of op `i` (wrapping like [`Stream::op`]).
    pub fn request(&self, i: usize) -> &[u8] {
        let i = i % self.ops.len();
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Generates `total` requests of workload `w` over `g`, deterministic
/// in `seed`.
pub fn generate(w: Workload, g: &Graph, seed: u64, total: usize) -> Stream {
    let ops = match w {
        Workload::PointHot => {
            let sets = generate_query_sets(g, PAIRS_PER_SET, seed);
            TrafficSchedule::interactive(total, 0.25, seed)
                .generate(&sets)
                .into_iter()
                .map(|(s, t)| ScenarioOp::Distance { s, t })
                .collect()
        }
        Workload::PointCold | Workload::LiveReload => cold_pairs(g.num_nodes(), seed, total),
        Workload::ScenarioMix => {
            let sets = generate_query_sets(g, PAIRS_PER_SET, seed);
            TrafficSchedule::mixed(total, 0.25, seed).generate_mixed(&sets, POI_CATEGORIES, MAX_K)
        }
    };
    assert!(!ops.is_empty(), "{} generated no requests", w.name());
    Stream::new(ops)
}

/// The distinct requests of a stream in first-appearance order — the
/// hot workload's warm-up fills the cache with exactly these.
pub fn distinct(stream: &Stream) -> Stream {
    let mut seen = HashSet::new();
    let ops = stream
        .ops
        .iter()
        .filter(|op| seen.insert(op_key(op)))
        .cloned()
        .collect();
    Stream::new(ops)
}

/// Uniform random node pairs without repeats, one in six sent as a
/// path request and the rest as distance requests.
fn cold_pairs(n: usize, seed: u64, total: usize) -> Vec<ScenarioOp> {
    let mut state = seed ^ 0xC01D_5EED_0000_0001;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        ah_search::scenario::splitmix64(state)
    };
    let mut seen = HashSet::with_capacity(total);
    let mut ops = Vec::with_capacity(total);
    while ops.len() < total {
        let s = (next() % n as u64) as NodeId;
        let t = (next() % n as u64) as NodeId;
        if s == t || !seen.insert((s, t)) {
            continue;
        }
        ops.push(if next() % 6 == 0 {
            ScenarioOp::Path { s, t }
        } else {
            ScenarioOp::Distance { s, t }
        });
    }
    ops
}

fn join_ids(ids: &[NodeId]) -> String {
    ids.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

/// Appends the HTTP/1.1 request for `op` to `out`.
fn render_request(op: &ScenarioOp, out: &mut Vec<u8>) {
    let get = |target: String, out: &mut Vec<u8>| {
        out.extend_from_slice(format!("GET {target} HTTP/1.1\r\nHost: b\r\n\r\n").as_bytes());
    };
    match op {
        ScenarioOp::Distance { s, t } => get(format!("/v1/distance?src={s}&dst={t}"), out),
        ScenarioOp::Path { s, t } => get(format!("/v1/path?src={s}&dst={t}"), out),
        ScenarioOp::Via { s, t, cat } => get(format!("/v1/via?src={s}&dst={t}&cat={cat}"), out),
        ScenarioOp::Knn { s, cat, k } => get(format!("/v1/knn?src={s}&cat={cat}&k={k}"), out),
        ScenarioOp::Matrix { sources, targets } => {
            let body = format!(
                "{{\"sources\":[{}],\"targets\":[{}]}}",
                join_ids(sources),
                join_ids(targets)
            );
            out.extend_from_slice(
                format!(
                    "POST /v1/matrix HTTP/1.1\r\nHost: b\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
    }
}

/// Hashable identity of an op (memoizes repeated answers).
pub fn op_key(op: &ScenarioOp) -> (u8, NodeId, NodeId, u32, Vec<NodeId>) {
    match op {
        ScenarioOp::Distance { s, t } => (0, *s, *t, 0, Vec::new()),
        ScenarioOp::Path { s, t } => (1, *s, *t, 0, Vec::new()),
        ScenarioOp::Via { s, t, cat } => (2, *s, *t, *cat, Vec::new()),
        ScenarioOp::Knn { s, cat, k } => (3, *s, *k, *cat, Vec::new()),
        ScenarioOp::Matrix { sources, targets } => {
            let mut ids = sources.clone();
            ids.push(NodeId::MAX);
            ids.extend_from_slice(targets);
            (4, 0, 0, 0, ids)
        }
    }
}

/// Request-kind index, in `ah_server::COST_KIND_NAMES` order.
pub fn kind_of(op: &ScenarioOp) -> usize {
    match op {
        ScenarioOp::Distance { .. } => 0,
        ScenarioOp::Path { .. } => 1,
        ScenarioOp::Via { .. } => 2,
        ScenarioOp::Knn { .. } => 3,
        ScenarioOp::Matrix { .. } => 4,
    }
}

/// What a correct response body must look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// The body must start with this (the rest is the `cache_hit` flag).
    Prefix(String),
    /// The body must equal this.
    Exact(String),
    /// A path answer: the distance must match and `hops` must be
    /// present exactly when a path exists. The hop count itself is not
    /// compared, because equally short paths may differ in hops.
    Path(Option<u64>),
}

impl Expected {
    pub fn matches(&self, body: &[u8]) -> bool {
        match self {
            Expected::Prefix(p) => body.starts_with(p.as_bytes()),
            Expected::Exact(e) => body == e.as_bytes(),
            Expected::Path(d) => path_matches(*d, body),
        }
    }
}

fn path_matches(d: Option<u64>, body: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let field = |key: &str| -> Option<&str> {
        let rest = text.split(&format!("\"{key}\":")).nth(1)?;
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    };
    match d {
        Some(d) => {
            field("distance") == Some(d.to_string().as_str())
                && field("hops").is_some_and(|h| h.parse::<u64>().is_ok())
        }
        None => field("distance") == Some("null") && field("hops") == Some("null"),
    }
}

/// Computes expected answers without the serving stack: `AhQuery` on
/// `idx` for point requests, `ScenarioEngine` on `g` for scenarios.
pub struct Oracle<'a> {
    idx: &'a AhIndex,
    g: &'a Graph,
    pois: &'a PoiSet,
    q: AhQuery,
    engine: ScenarioEngine,
    memo: HashMap<(u8, NodeId, NodeId, u32, Vec<NodeId>), Expected>,
}

impl<'a> Oracle<'a> {
    pub fn new(idx: &'a AhIndex, g: &'a Graph, pois: &'a PoiSet) -> Self {
        Oracle {
            idx,
            g,
            pois,
            q: AhQuery::new(),
            engine: ScenarioEngine::new(),
            memo: HashMap::new(),
        }
    }

    /// The point distance `AhQuery` gives on the oracle's index.
    pub fn distance(&mut self, s: NodeId, t: NodeId) -> Option<u64> {
        self.q.distance(self.idx, s, t)
    }

    pub fn expected(&mut self, op: &ScenarioOp) -> Expected {
        let key = op_key(op);
        if let Some(e) = self.memo.get(&key) {
            return e.clone();
        }
        let e = self.compute(op);
        self.memo.insert(key, e.clone());
        e
    }

    fn compute(&mut self, op: &ScenarioOp) -> Expected {
        let opt = |d: Option<u64>| d.map_or("null".to_string(), |d| d.to_string());
        match op {
            ScenarioOp::Distance { s, t } => {
                let d = self.distance(*s, *t);
                Expected::Prefix(format!(
                    "{{\"src\":{s},\"dst\":{t},\"distance\":{},\"cache_hit\":",
                    opt(d)
                ))
            }
            ScenarioOp::Path { s, t } => Expected::Path(self.distance(*s, *t)),
            ScenarioOp::Via { s, t, cat } => {
                let answer = self.engine.via(self.g, *s, *t, self.pois.category(*cat));
                Expected::Prefix(match answer {
                    Some(a) => format!(
                        "{{\"src\":{s},\"dst\":{t},\"cat\":{cat},\"poi\":{},\"total\":{},\
                         \"to_poi\":{},\"from_poi\":{},\"cache_hit\":",
                        a.poi, a.total, a.to_poi, a.from_poi
                    ),
                    None => format!(
                        "{{\"src\":{s},\"dst\":{t},\"cat\":{cat},\"poi\":null,\"total\":null,\
                         \"to_poi\":null,\"from_poi\":null,\"cache_hit\":"
                    ),
                })
            }
            ScenarioOp::Knn { s, cat, k } => {
                let results: Vec<String> = self
                    .engine
                    .knn(self.g, *s, self.pois.category(*cat), *k as usize)
                    .iter()
                    .map(|&(p, d)| format!("{{\"poi\":{p},\"distance\":{d}}}"))
                    .collect();
                Expected::Exact(format!(
                    "{{\"src\":{s},\"cat\":{cat},\"k\":{k},\"results\":[{}]}}",
                    results.join(",")
                ))
            }
            ScenarioOp::Matrix { sources, targets } => {
                let rows: Vec<String> = self
                    .engine
                    .matrix(self.g, sources, targets)
                    .iter()
                    .map(|row| {
                        let cells: Vec<String> = row.iter().map(|&c| opt(c)).collect();
                        format!("[{}]", cells.join(","))
                    })
                    .collect();
                Expected::Exact(format!(
                    "{{\"rows\":{},\"cols\":{},\"distances\":[{}]}}",
                    sources.len(),
                    targets.len(),
                    rows.join(",")
                ))
            }
        }
    }
}
