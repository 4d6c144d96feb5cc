//! The traced run's in-process measurements.
//!
//! Spans are recorded from outside each layer, around calls into its
//! public functions, and kept in memory until the run ends. Each span
//! has a name, start, end, parent and request id; a layer's self time is
//! its spans' durations minus the time their child spans cover.

use crate::gen::{Inputs, Kind};
use crate::load::{ClientSpan, Schedule};
use crate::oracle::Oracle;
use cv_xtree::{ArenaDoc, Tree};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xq_core::vm::exec_with;
use xq_core::{
    compile_query, parse_query, Budget, CompletionSink, Env, PlanCache, PoolConfig, QueryService,
    Request, ServiceError,
};
use xq_server::Frame;

struct Span {
    name: &'static str,
    req: u64,
    /// Index + 1 of the parent span; 0 for a root.
    parent: usize,
    start: Instant,
    end: Instant,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Off: spans are neither timed nor kept.
    on: bool,
}

/// Per span name: count, total duration and self time, in microseconds.
#[derive(Default, Clone, Copy)]
pub struct Times {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            on: true,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span now; returns its handle for [`Tracer::close`] and as
    /// a parent (0 while the tracer is off).
    pub fn open(&mut self, name: &'static str, req: u64, parent: usize) -> usize {
        if !self.on {
            return 0;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start: now,
            end: now,
        });
        self.spans.len()
    }

    pub fn close(&mut self, handle: usize) {
        if handle > 0 {
            self.spans[handle - 1].end = Instant::now();
        }
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let h = self.open(name, req, parent);
        let out = f();
        self.close(h);
        out
    }

    pub fn add_client(&mut self, spans: &[ClientSpan]) {
        self.spans.extend(spans.iter().map(|s| Span {
            name: s.name,
            req: s.id,
            parent: 0,
            start: s.start,
            end: s.end,
        }));
    }

    pub fn times(&self) -> BTreeMap<&'static str, Times> {
        let dur = |s: &Span| s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_us[s.parent - 1] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, Times> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_us) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += dur(s);
            t.self_us += dur(s) - kids;
        }
        out
    }

    /// Writes every span as a tab-separated line: span, parent, request,
    /// name, start and end in nanoseconds since the run began.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span\tparent\treq\tname\tstart_ns\tend_ns")?;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        w.flush()
    }
}

/// Failure bookkeeping shared by the in-process phases.
#[derive(Default)]
pub struct Tally {
    pub done: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Valid cold-mix results held for the oracle.
    pub samples: Vec<(u64, String)>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Checks one in-process result against what request `id` expects.
    fn judge(
        &mut self,
        oracle: &Oracle,
        kind: Kind,
        id: u64,
        result: Result<String, ServiceError>,
    ) {
        self.done += 1;
        match (kind, result) {
            (Kind::Hot(k), Ok(xml)) if xml == oracle.hot[k].xml => {}
            (Kind::Malformed, Err(ServiceError::Parse(_))) => {}
            (Kind::Cold { sampled }, Ok(xml)) => {
                if sampled {
                    self.samples.push((id, xml));
                }
            }
            (_, Ok(xml)) => self.fail(format!("request {id}: wrong result ({} bytes)", xml.len())),
            (_, Err(e)) => self.fail(format!("request {id}: unexpected error {e}")),
        }
    }
}

/// The service layer alone: the server's pool with no socket in front,
/// driven on the open-loop schedule. Sojourn runs from
/// `QueryService::try_submit` to the completion's arrival at the sink.
pub struct ServicePhase {
    pub tally: Tally,
    pub sojourn_us: Vec<f64>,
}

pub fn service_phase(
    inputs: &Inputs,
    docs: &[Arc<ArenaDoc>],
    oracle: &Oracle,
    workers: usize,
    first: u64,
    rate: f64,
    dur: Duration,
) -> ServicePhase {
    let service = QueryService::with_config(PoolConfig {
        workers,
        ..PoolConfig::default()
    })
    .with_queue_capacity(usize::MAX);
    let (tx, rx) = channel();
    let sink = CompletionSink::new(tx, Arc::new(|| {}));
    let sched = Schedule::new(rate, dur);
    let mut tally = Tally::default();
    let mut arrivals = Vec::new();
    let submitted = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut at_submit = Vec::new();
            let mut shed = 0u64;
            let mut i = 0u64;
            while sched.wait(i).is_some() {
                let req = inputs.request(first + i);
                let request = Request::new(&req.text, Arc::clone(&docs[req.doc]));
                at_submit.push(Instant::now());
                if !service.try_submit(first + i, request, &sink) {
                    shed += 1;
                }
                i += 1;
            }
            (at_submit, shed)
        });
        let (at_submit, shed) = loop {
            if sender.is_finished() {
                break sender.join().expect("service sender panicked");
            }
            if let Ok((id, result)) = rx.recv_timeout(Duration::from_millis(20)) {
                arrivals.push((id, Instant::now(), result));
            }
        };
        let want = at_submit.len() - shed as usize;
        let deadline = Instant::now() + Duration::from_secs(20);
        while arrivals.len() < want && Instant::now() < deadline {
            if let Ok((id, result)) = rx.recv_timeout(Duration::from_millis(20)) {
                arrivals.push((id, Instant::now(), result));
            }
        }
        (at_submit, shed)
    });
    let (at_submit, shed) = submitted;
    let mut sojourn_us = Vec::with_capacity(arrivals.len());
    for (id, t, result) in arrivals {
        let i = (id - first) as usize;
        sojourn_us.push(t.saturating_duration_since(at_submit[i]).as_secs_f64() * 1e6);
        tally.judge(oracle, inputs.kind(id), id, result);
    }
    for _ in 0..shed {
        tally.done += 1;
        tally.fail("shed by the pool".to_string());
    }
    let missing = at_submit.len() as u64 - tally.done;
    for _ in 0..missing {
        tally.done += 1;
        tally.fail("missing completion".to_string());
    }
    ServicePhase { tally, sojourn_us }
}

/// The replay's state across its slices, and what it counted besides
/// its spans.
#[derive(Default)]
pub struct Replay {
    pub tally: Tally,
    pub lookups: u64,
    pub hits: u64,
    pub parse_errors: u64,
    pub instrs: Vec<f64>,
    pub steps: Vec<f64>,
    pub items: Vec<f64>,
    pub resp_bytes: Vec<f64>,
    pub out_bytes: Vec<f64>,
    pub clears: u64,
    pub cache_len_end: usize,
    /// Requests replayed and their wall time, with the tracer off and on.
    pub untraced: (u64, Duration),
    pub traced: (u64, Duration),
    /// The emulated worker's document trees.
    trees: HashMap<usize, Tree>,
}

/// Documents one emulated worker keeps as trees; the server's pool
/// workers clear their cache when it reaches this many.
const WORKER_DOC_CACHE: usize = 32;

impl Replay {
    /// Replays the request stream in-process from request `first`, for
    /// `dur` or `max` requests, one layer call at a time: frame decode,
    /// plan-cache probe, parse and compile on a miss, the worker's
    /// document tree, VM execution, serialization and reply encoding.
    /// The plan cache is the process-wide one the server and the pool
    /// filled, so hot texts hit here as they do in serving and cold texts
    /// keep filling it (and clearing its shards). Returns the number of
    /// requests replayed.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        inputs: &Inputs,
        docs: &[Arc<ArenaDoc>],
        oracle: &Oracle,
        first: u64,
        dur: Duration,
        max: u64,
        tr: &mut Tracer,
    ) -> u64 {
        let cache = PlanCache::global();
        let start = Instant::now();
        let end = start + dur;
        let mut id = first;
        while Instant::now() < end && id - first < max {
            let req = inputs.request(id);
            let line = crate::load::request_frame(id, req.doc, &req.text);
            let root = tr.open("request", id, 0);
            let result = self.one(cache, docs, &line, id, root, tr);
            let reply = match &result {
                Ok(xml) => Frame::new()
                    .bool("ok", true)
                    .uint("id", id)
                    .str("result", xml.as_str()),
                Err(e) => Frame::new()
                    .bool("ok", false)
                    .uint("id", id)
                    .str("code", code_of(e))
                    .str("error", e.to_string()),
            };
            let encoded = tr.time("protocol.encode", id, root, || reply.encode());
            self.resp_bytes.push(encoded.len() as f64 + 1.0);
            tr.close(root);
            self.tally.judge(oracle, req.kind, id, result);
            id += 1;
        }
        let slot = if tr.on {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        slot.0 += id - first;
        slot.1 += start.elapsed();
        self.cache_len_end = cache.len();
        id - first
    }

    fn one(
        &mut self,
        cache: &PlanCache,
        docs: &[Arc<ArenaDoc>],
        line: &str,
        id: u64,
        root: usize,
        tr: &mut Tracer,
    ) -> Result<String, ServiceError> {
        let frame = tr
            .time("protocol.decode", id, root, || Frame::parse(line))
            .map_err(ServiceError::Internal)?;
        let text = frame.get_str("query").unwrap_or_default();
        let doc: usize = frame
            .get_str("doc")
            .and_then(|d| d.strip_prefix('d'))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ServiceError::Internal("bad doc name".to_string()))?;
        self.lookups += 1;
        let plan = match tr.time("plan_cache.lookup", id, root, || cache.get(text)) {
            Some(plan) => {
                self.hits += 1;
                plan
            }
            None => {
                let ast = tr.time("parser.parse", id, root, || parse_query(text));
                let ast = match ast {
                    Ok(ast) => ast,
                    Err(e) => {
                        self.parse_errors += 1;
                        return Err(ServiceError::Parse(e.to_string()));
                    }
                };
                let compiled = tr.time("compile.compile", id, root, || compile_query(&ast));
                self.instrs.push(compiled.instrs().len() as f64);
                // The cache has no insert-only entry point: filling it
                // goes through get_or_compile, which parses and compiles
                // the text a second time. The span is the replay's own,
                // so no layer's self time counts that second compile.
                let before = cache.len();
                let plan = tr
                    .time("replay.refill", id, root, || cache.get_or_compile(text))
                    .map_err(|e| ServiceError::Parse(e.to_string()))?;
                if cache.len() <= before {
                    self.clears += 1;
                }
                plan
            }
        };
        let trees = &mut self.trees;
        if !trees.contains_key(&doc) {
            if trees.len() >= WORKER_DOC_CACHE {
                tr.time("arena.evict", id, root, || trees.clear());
            }
            let tree = tr.time("arena.to_tree", id, root, || docs[doc].to_tree());
            trees.insert(doc, tree);
        }
        let env = Env::with_root(trees[&doc].clone());
        let (result, stats) = tr
            .time("vm.exec", id, root, || {
                exec_with(&plan, &env, Budget::default())
            })
            .map_err(|e| ServiceError::from_eval(&e))?;
        self.steps.push(stats.steps as f64);
        self.items.push(stats.items as f64);
        let xml: String = tr.time("xml.to_xml", id, root, || {
            result.iter().map(Tree::to_xml).collect()
        });
        self.out_bytes.push(xml.len() as f64);
        Ok(xml)
    }

    /// Mean wall time per replayed request, traced minus untraced, in
    /// microseconds: what recording the spans costs the replay.
    pub fn trace_overhead_us(&self) -> f64 {
        let mean = |(n, t): (u64, Duration)| t.as_secs_f64() * 1e6 / n.max(1) as f64;
        mean(self.traced) - mean(self.untraced)
    }
}

/// The wire code the server answers a failed query with.
fn code_of(e: &ServiceError) -> &'static str {
    match e {
        ServiceError::Parse(_) => "parse",
        ServiceError::Eval(_) => "eval",
        ServiceError::Overloaded => "overloaded",
        ServiceError::Cancelled => "cancelled",
        ServiceError::DeadlineExceeded => "deadline",
        ServiceError::Internal(_) => "internal_error",
    }
}
