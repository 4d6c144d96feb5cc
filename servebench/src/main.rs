//! The serving benchmark: the real front door, driven over loopback.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <hot_point|heavy_eval|cold_mix|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run starts `xq_server::Server` in-process (two workers, default
//! config) on inputs generated from the seed, then drives it from a
//! two-thread load generator over two TCP connections. `--trace 0`
//! measures the end-to-end metrics: set-up time (median of fifteen
//! fresh processes), closed-loop throughput and open-loop p50/p90
//! latency at two fixed rates (each over the one-second slices in which
//! the host stole the least CPU time), and peak RSS. `--trace 1` measures the layers: the
//! socket phase with the generator's recording off and on, the service
//! pool alone on the same schedule, and an in-process replay of the
//! request stream through each layer's public functions, untraced and
//! traced in turns, with spans written to
//! `.bench_out/spans-<workload>.tsv` at exit. Every reply is checked
//! against the Figure 1 interpreter. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--workload all` runs the three workloads, each in its own process.

mod gen;
mod load;
mod oracle;
mod stats;
mod trace;

use gen::{Inputs, Workload};
use load::{Client, Phase, Stream};
use oracle::{check_sample, reply_result, Oracle};
use stats::{median, Summary};
use std::collections::HashMap;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xq_server::{Server, ServerConfig};

use cv_xtree::{ArenaDoc, Tree};

/// Pool workers: the host's two hardware threads.
const WORKERS: usize = 2;
/// Closed-loop requests in flight per connection. At 4, hot_point
/// throughput waited on thread wake-ups and spread by 18% across five
/// runs; at 16 the workers always have queued work, and it spread by 5%.
const WINDOW: usize = 16;
/// Fresh-process set-ups measured besides the run's own. A set-up takes
/// 2-80 ms, and a few slow process starts per run are common on a shared
/// host; the median of fifteen leaves them out.
const SETUP_PROBES: usize = 14;
/// Most requests the traced replay runs.
const REPLAY_MAX: u64 = 20_000;

struct Args {
    /// `None` means all workloads.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        setup_probe: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => args.seconds = s,
                _ => return Err(bad("a positive integer")),
            },
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".to_string()),
        Some("all") => {}
        Some(w) => {
            args.workload = Some(Workload::parse(w).ok_or(format!("unknown workload {w:?}"))?);
        }
    }
    Ok(args)
}

/// A running server on the workload's inputs, answered once per warm
/// text.
struct Ctx {
    inputs: Inputs,
    docs: Vec<Arc<ArenaDoc>>,
    oracle: Oracle,
    server: Server,
    client: Client,
    setup_s: f64,
    parse_ms: f64,
    warm_sent: u64,
}

/// Set-up: generate and parse the corpus, start the server, connect, and
/// get the first correct answer for each warm text. The oracle's own
/// work is excluded from `setup_s`.
fn setup(workload: Workload, seed: u64) -> Result<Ctx, String> {
    let t0 = Instant::now();
    let inputs = Inputs::generate(workload, seed);
    let tp = Instant::now();
    let docs = inputs
        .docs
        .iter()
        .map(|d| ArenaDoc::parse(d).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("corpus does not parse: {e}"))?;
    let parse_ms = tp.elapsed().as_secs_f64() * 1e3;
    let to = Instant::now();
    let oracle = Oracle::build(&inputs, &docs)?;
    let oracle_time = to.elapsed();
    let config = ServerConfig {
        workers: WORKERS,
        docs: docs
            .iter()
            .enumerate()
            .map(|(i, d)| (Inputs::doc_name(i), Arc::clone(d)))
            .collect(),
        ..ServerConfig::default()
    };
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let ids: Vec<u64> = (0..inputs.texts.len() as u64).collect();
    let warm = client.batch(&Stream::new(&inputs, &oracle, true), &ids);
    if warm.failed > 0 {
        return Err(format!("set-up answers wrong: {:?}", warm.errors));
    }
    let setup_s = (t0.elapsed() - oracle_time).as_secs_f64();
    Ok(Ctx {
        warm_sent: warm.sent,
        inputs,
        docs,
        oracle,
        server,
        client,
        setup_s,
        parse_ms,
    })
}

/// Set-up time of a fresh process (cold plan cache and label interner).
fn probe_setup(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().strip_prefix("setup_s=") {
        Some(v) if out.status.success() => v.parse().map_err(|_| format!("probe said {v:?}")),
        _ => Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Checks the held cold-mix replies against the interpreter.
fn check_samples(
    inputs: &Inputs,
    docs: &[Arc<ArenaDoc>],
    samples: &[(u64, String)],
) -> Vec<String> {
    if samples.is_empty() {
        return Vec::new();
    }
    let trees: Vec<Tree> = docs.iter().map(|d| d.to_tree()).collect();
    samples
        .iter()
        .filter_map(|(id, xml)| check_sample(inputs, &trees, *id, xml).err())
        .collect()
}

/// Held socket replies, reduced to their results.
fn socket_samples(phases: &[&Phase]) -> (Vec<(u64, String)>, Vec<String>) {
    let mut held = Vec::new();
    let mut bad = Vec::new();
    for p in phases {
        for (id, line) in &p.samples {
            match reply_result(line) {
                Some(r) => held.push((*id, r)),
                None => bad.push(format!("request {id}: unreadable reply")),
            }
        }
    }
    (held, bad)
}

/// A run's result: metrics for the last line, plus the run record.
struct Out {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    record: Vec<(&'static str, String)>,
}

impl Out {
    fn new() -> Out {
        Out {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            record: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.record.push((key, value.to_string()));
    }

    fn phase(&mut self, p: &Phase) {
        self.attempted += p.sent;
        self.failed += p.failed;
        self.errors.extend(p.errors.iter().cloned());
    }

    fn tally(&mut self, t: &trace::Tally) {
        self.attempted += t.done;
        self.failed += t.failed;
        self.errors.extend(t.errors.iter().cloned());
    }

    fn sample_failures(&mut self, bad: Vec<String>) {
        self.failed += bad.len() as u64;
        self.errors.extend(bad);
    }

    /// A latency phase's gated percentiles (medians over its cleanest
    /// slices), its slices, and its pooled tail percentiles with their
    /// sample counts.
    fn latency(&mut self, which: [&'static str; 2], s: &Slices, names: [&'static str; 2]) {
        self.metric(names[0], s.clean(|x| x.p50), "ms");
        self.metric(names[1], s.clean(|x| x.p90), "ms");
        self.note(
            which[1],
            s.describe(|x| Some(format!("{:.3}/{:.3}", x.p50?, x.p90?))),
        );
        if let Some(p) = Summary::of(s.all.lat_ms.clone()) {
            self.note(which[0], format!(
                "pooled n={} p50={:.4}ms p90={:.4}ms p99={:.4}ms ({} beyond) p99.9={:.4}ms ({} beyond)",
                p.n, p.p50, p.p90, p.p99, p.beyond_p99, p.p999, p.beyond_p999
            ));
        }
    }
}

/// The host's CPU time so far, from the first line of `/proc/stat`, in
/// jiffies: (all, steal). Steal is time this VM's CPUs were ready to run
/// while the host ran something else.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let times: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (times.iter().sum(), times.get(7).copied().unwrap_or(0))
}

/// The share of the host's CPU time stolen between two [`cpu_jiffies`]
/// readings.
fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    after.1.saturating_sub(before.1) as f64 / after.0.saturating_sub(before.0).max(1) as f64
}

/// One slice of a phase: its throughput and latency percentiles, and the
/// share of the host's CPU time stolen while it ran.
struct Slice {
    steal: f64,
    tput: Option<f64>,
    p50: Option<f64>,
    p90: Option<f64>,
}

/// One phase measured in slices: the pooled phase plus each slice.
#[derive(Default)]
struct Slices {
    all: Phase,
    slices: Vec<Slice>,
}

impl Slices {
    /// Adds slice `p`, which started when the host's CPU time read
    /// `before`.
    fn push(&mut self, p: Phase, before: (u64, u64)) {
        let summary = Summary::of(p.lat_ms.clone());
        self.slices.push(Slice {
            steal: steal_share(before, cpu_jiffies()),
            tput: (p.secs > 0.0).then(|| p.in_time as f64 / p.secs),
            p50: summary.as_ref().map(|s| s.p50),
            p90: summary.as_ref().map(|s| s.p90),
        });
        self.all.absorb(p);
    }

    /// The median of `value` over the third of the slices the host
    /// disturbed least: those whose steal share is at most that of the
    /// slice a third of the way up. Ties count in, so on a calm host
    /// (steal 0 in most slices) that is nearly every slice.
    fn clean(&self, value: impl Fn(&Slice) -> Option<f64>) -> f64 {
        let mut steal: Vec<f64> = self.slices.iter().map(|s| s.steal).collect();
        stats::sort(&mut steal);
        let Some(limit) = stats::nearest_rank(&steal, 100.0 / 3.0) else {
            return f64::NAN;
        };
        let values: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.steal <= limit)
            .filter_map(value)
            .collect();
        median(&values).unwrap_or(f64::NAN)
    }

    /// Each slice's `value` and steal share, for the run record.
    fn describe(&self, value: impl Fn(&Slice) -> Option<String>) -> String {
        let slices: Vec<String> = self
            .slices
            .iter()
            .map(|s| {
                let v = value(s).unwrap_or_else(|| "-".to_string());
                format!("{v}@{:.1}%", s.steal * 100.0)
            })
            .collect();
        slices.join(" ")
    }
}

fn provenance(out: &mut Out, workload: Workload, seed: u64, inputs: &Inputs) {
    let (low, high) = workload.rates();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.note("workload", workload.name());
    out.note("seed", seed);
    out.note("inputs_hash", format!("{:016x}", inputs.hash()));
    out.note("nproc", nproc);
    out.note(
        "git_rev",
        git_rev().unwrap_or_else(|| "unknown".to_string()),
    );
    out.note("workers", WORKERS);
    out.note("conns", load::CONNS);
    out.note("window", WINDOW);
    out.note("rates_rps", format!("{low},{high}"));
}

/// The checkout's commit, read from `.git` in the working directory
/// (no `git` process, nothing outside the checkout).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(h) = std::fs::read_to_string(format!(".git/{r}")) {
        return Some(h.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(r))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The untimed closed-loop warm-up before the measured phases: a tenth
/// of the run. A fresh process runs faster than it settles to (cold_mix
/// throughput fell by a third over its first seconds in probes, while
/// its plan cache filled), so those seconds stay out of the slices.
fn warmup(seconds: u64) -> Duration {
    Duration::from_secs_f64(seconds as f64 / 10.0)
}

/// `--trace 0`: the end-to-end metrics.
fn run_e2e(workload: Workload, seed: u64, seconds: u64) -> Result<Out, String> {
    let mut out = Out::new();
    let mut setups = (0..SETUP_PROBES)
        .map(|_| probe_setup(workload, seed))
        .collect::<Result<Vec<f64>, String>>()?;
    let Ctx {
        inputs,
        docs,
        oracle,
        server,
        mut client,
        setup_s,
        warm_sent,
        ..
    } = setup(workload, seed)?;
    setups.push(setup_s);
    provenance(&mut out, workload, seed, &inputs);
    out.attempted += warm_sent;
    let traffic = Stream::new(&inputs, &oracle, false);
    let (low_rate, high_rate) = workload.rates();
    // The three phases take turns in one-second slices, and each metric
    // is the median of its values over the third of its slices with the
    // least CPU time stolen by the host. Host speed drifts and neighbour
    // bursts (seconds to minutes long on a shared machine) then fall on
    // all phases alike. Slices that ran while the host took 2% of the CPU
    // time had twice the p90 of calm ones, and at 10% five times; leaving
    // them out keeps a burst that spares a third of the run out of every
    // metric.
    let rounds = (seconds / 3).max(1);
    let slice = Duration::from_secs_f64(seconds as f64 / 3.0 / rounds as f64);
    let (mut tput, mut low, mut high) = (Slices::default(), Slices::default(), Slices::default());
    let warm = client.closed_loop(&traffic, 0, WINDOW, warmup(seconds));
    let mut next = warm.sent;
    let run_start = cpu_jiffies();
    for _ in 0..rounds {
        let at = cpu_jiffies();
        let p = client.closed_loop(&traffic, next, WINDOW, slice);
        next += p.sent;
        tput.push(p, at);
        let at = cpu_jiffies();
        let p = client.open_loop(&traffic, next, low_rate, slice, None, false);
        next += p.sent;
        low.push(p, at);
        let at = cpu_jiffies();
        let p = client.open_loop(&traffic, next, high_rate, slice, None, false);
        next += p.sent;
        high.push(p, at);
    }
    let run_end = cpu_jiffies();
    drop(client);
    drop(server);
    // Before the post-run oracle builds its own trees.
    let peak_rss = peak_rss_mb().unwrap_or(f64::NAN);
    out.phase(&warm);
    for s in [&tput, &low, &high] {
        out.phase(&s.all);
    }
    let (held, bad) = socket_samples(&[&warm, &tput.all, &low.all, &high.all]);
    out.sample_failures(bad);
    out.sample_failures(check_samples(&inputs, &docs, &held));
    out.note("samples_checked", held.len());

    out.metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    out.note("setup_samples_s", format!("{setups:?}"));
    out.metric("tput_rps", tput.clean(|x| x.tput), "1/s");
    out.note("tput", tput.describe(|x| Some(format!("{:.0}", x.tput?))));
    out.note(
        "host_steal_pct",
        format!("{:.2}", 100.0 * steal_share(run_start, run_end)),
    );
    out.note("rounds", rounds);
    out.latency(
        ["low", "low_slices"],
        &low,
        ["lat_p50_ms.low", "lat_p90_ms.low"],
    );
    out.latency(
        ["high", "high_slices"],
        &high,
        ["lat_p50_ms.high", "lat_p90_ms.high"],
    );
    let late: Vec<f64> = low
        .all
        .late_ms
        .iter()
        .chain(&high.all.late_ms)
        .copied()
        .collect();
    if let Some(l) = Summary::of(late) {
        out.note("late_p99_ms", l.p99);
    }
    out.metric("peak_rss_mb", peak_rss, "MB");
    Ok(out)
}

/// `--trace 1`: the per-layer metrics.
fn run_traced(workload: Workload, seed: u64, seconds: u64) -> Result<Out, String> {
    let origin = Instant::now();
    let labels_at_start = cv_xtree::interned_labels();
    let mut out = Out::new();
    let Ctx {
        inputs,
        docs,
        oracle,
        mut server,
        mut client,
        parse_ms,
        warm_sent,
        ..
    } = setup(workload, seed)?;
    provenance(&mut out, workload, seed, &inputs);
    out.attempted += warm_sent;
    let traffic = Stream::new(&inputs, &oracle, false);
    let quarter = Duration::from_secs_f64(seconds as f64 / 4.0);
    let (rate, _) = workload.rates();

    // The socket phase at the low rate, untraced and traced, taking turns
    // in one-second slices. The server is not instrumented: the traced
    // slices differ only in the generator's own span and gauge recording,
    // which is what their p50 difference prices.
    let rounds = (seconds / 4).max(1);
    let slice = quarter / rounds as u32;
    let gauges = || (server.queue_depth(), server.in_flight());
    let (mut plain, mut traced) = (Slices::default(), Slices::default());
    let warm = client.closed_loop(&traffic, 0, WINDOW, warmup(seconds));
    let mut next = warm.sent;
    for _ in 0..rounds {
        let at = cpu_jiffies();
        let p = client.open_loop(&traffic, next, rate, slice, None, false);
        next += p.sent;
        plain.push(p, at);
        let at = cpu_jiffies();
        let p = client.open_loop(&traffic, next, rate, slice, Some(&gauges), true);
        next += p.sent;
        traced.push(p, at);
    }
    drop(client);
    let st = server.stats();
    let counter =
        |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let (shed, internal, backpressured, peak_wbuf) = (
        counter(&st.shed),
        counter(&st.internal_errors),
        counter(&st.backpressured),
        counter(&st.peak_write_buffer),
    );
    server.shutdown();
    out.phase(&warm);
    for s in [&plain, &traced] {
        out.phase(&s.all);
    }
    let loadgen_ops = out.attempted - warm_sent;
    let loadgen_failed = out.failed;
    let plain_p50 = plain.clean(|x| x.p50);
    let traced_p50 = traced.clean(|x| x.p50);
    let late: Vec<f64> = plain
        .all
        .late_ms
        .iter()
        .chain(&traced.all.late_ms)
        .copied()
        .collect();

    // The service pool alone, on the same schedule.
    let svc = trace::service_phase(&inputs, &docs, &oracle, WORKERS, next, rate, quarter);
    next += svc.tally.done;
    out.tally(&svc.tally);
    let sojourn_p50 = Summary::of(svc.sojourn_us.clone()).map_or(f64::NAN, |s| s.p50);

    // Layer by layer, in-process: untraced and traced replay slices take
    // turns, so the spans' own cost shows as their difference.
    let mut tracer = trace::Tracer::new(origin);
    tracer.add_client(&traced.all.spans);
    let mut rp = trace::Replay::default();
    let half_slice = slice / 2;
    let slice_max = REPLAY_MAX / (2 * rounds);
    for _ in 0..rounds {
        for on in [false, true] {
            tracer.set_on(on);
            next += rp.run(
                &inputs,
                &docs,
                &oracle,
                next,
                half_slice,
                slice_max,
                &mut tracer,
            );
        }
    }
    out.tally(&rp.tally);

    let (held, bad) = socket_samples(&[&warm, &plain.all, &traced.all]);
    out.sample_failures(bad);
    let held: Vec<(u64, String)> = held
        .into_iter()
        .chain(svc.tally.samples.iter().cloned())
        .chain(rp.tally.samples.iter().cloned())
        .collect();
    out.sample_failures(check_samples(&inputs, &docs, &held));
    out.note("samples_checked", held.len());

    let times = tracer.times();
    let mean_us = |name: &str| times.get(name).map_or(0.0, |t| t.total_us / t.count as f64);
    let m = &mut out;
    m.metric(
        "loadgen.late_p99_ms",
        Summary::of(late).map_or(f64::NAN, |s| s.p99),
        "ms",
    );
    m.metric("loadgen.ops", loadgen_ops as f64, "count");
    m.metric("loadgen.failed", loadgen_failed as f64, "count");
    m.metric("protocol.decode_us", mean_us("protocol.decode"), "us");
    m.metric("protocol.encode_us", mean_us("protocol.encode"), "us");
    m.metric(
        "protocol.resp_kb",
        stats::mean(&rp.resp_bytes) / 1024.0,
        "KB",
    );
    m.metric("server.gap_us", plain_p50 * 1e3 - sojourn_p50, "us");
    m.metric("server.shed", shed, "count");
    m.metric("server.internal_errors", internal, "count");
    m.metric("server.backpressured", backpressured, "count");
    m.metric("server.peak_write_buffer_kb", peak_wbuf / 1024.0, "KB");
    m.metric("service.sojourn_us", sojourn_p50, "us");
    let (queue_depth, in_flight) = traced.all.gauges();
    m.metric("service.queue_depth_mean", queue_depth, "count");
    m.metric("service.in_flight_mean", in_flight, "count");
    m.metric("service.busy_frac", in_flight / WORKERS as f64, "ratio");
    m.metric("plan_cache.lookup_us", mean_us("plan_cache.lookup"), "us");
    m.metric(
        "plan_cache.hit_ratio",
        rp.hits as f64 / rp.lookups.max(1) as f64,
        "ratio",
    );
    m.metric("plan_cache.len_end", rp.cache_len_end as f64, "count");
    m.metric("plan_cache.clears", rp.clears as f64, "count");
    m.metric("parser.parse_us", mean_us("parser.parse"), "us");
    m.metric("parser.errors", rp.parse_errors as f64, "count");
    m.metric("compile.compile_us", mean_us("compile.compile"), "us");
    m.metric("compile.instrs", stats::mean(&rp.instrs), "count");
    m.metric("vm.exec_us", mean_us("vm.exec"), "us");
    m.metric("vm.steps", stats::mean(&rp.steps), "count");
    m.metric("vm.items", stats::mean(&rp.items), "count");
    m.metric("arena.parse_ms", parse_ms, "ms");
    m.metric("arena.to_tree_us", mean_us("arena.to_tree"), "us");
    let growth = cv_xtree::interned_labels().saturating_sub(labels_at_start);
    m.metric("arena.interned_labels_growth", growth as f64, "count");
    m.metric("xml.to_xml_us", mean_us("xml.to_xml"), "us");
    m.metric("xml.out_kb", stats::mean(&rp.out_bytes) / 1024.0, "KB");
    m.metric("loadgen.trace_overhead_ms", traced_p50 - plain_p50, "ms");
    m.metric("replay.trace_overhead_us", rp.trace_overhead_us(), "us");
    // Self time per replayed request, by layer.
    let requests = times.get("request").map_or(1, |t| t.count.max(1)) as f64;
    let self_us = |prefix: &str| {
        times
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(prefix))
            .map(|(_, t)| t.self_us)
            .sum::<f64>()
            / requests
    };
    for (layer, name) in [
        ("protocol", "protocol.self_us"),
        ("plan_cache", "plan_cache.self_us"),
        ("parser", "parser.self_us"),
        ("compile", "compile.self_us"),
        ("arena", "arena.self_us"),
        ("vm", "vm.self_us"),
        ("xml", "xml.self_us"),
        ("request", "replay.glue_self_us"),
    ] {
        m.metric(name, self_us(layer), "us");
    }
    m.note(
        "socket_low_p50_ms",
        format!("untraced={plain_p50} traced={traced_p50}"),
    );
    m.note(
        "replayed",
        format!("untraced={} traced={}", rp.untraced.0, rp.traced.0),
    );
    m.note("service_completions", svc.sojourn_us.len());
    for (name, t) in &times {
        m.note(
            "span",
            format!(
                "{name}: n={} total={:.0}us self={:.0}us",
                t.count, t.total_us, t.self_us
            ),
        );
    }
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{}.tsv", workload.name()));
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    m.note("spans_file", path.display());
    Ok(out)
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the run record and the result line.
fn report(out: &Out) {
    let finite = out.metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = out.failed == 0 && out.attempted > 0 && finite;
    eprintln!("{:<34} {:>14}  unit", "metric", "value");
    for (name, v, unit) in &out.metrics {
        eprintln!("{name:<34} {v:>14.4}  {unit}");
    }
    eprintln!("attempted {}  failed {}", out.attempted, out.failed);
    for e in out.errors.iter().take(5) {
        eprintln!("failure: {e}");
    }
    let fields: Vec<String> = out
        .record
        .iter()
        .map(|(k, v)| format!("[{},{}]", json_str(k), json_str(v)))
        .collect();
    println!("{{\"record\":[{}]}}", fields.join(","));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { -1.0 };
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}

/// `--workload all`: each workload in its own process, one table.
fn run_all(seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut lines = HashMap::new();
    for w in Workload::ALL {
        eprintln!("== {} ==", w.name());
        let res = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        match res {
            Ok(o) if o.status.success() => {
                let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
                lines.insert(
                    w.name(),
                    stdout.lines().last().unwrap_or_default().to_string(),
                );
            }
            _ => ok = false,
        }
    }
    for w in Workload::ALL {
        println!(
            "{}: {}",
            w.name(),
            lines.get(w.name()).map_or("failed", String::as_str)
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <hot_point|heavy_eval|cold_mix|all> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(args.seed, args.seconds, args.trace);
    };
    if args.setup_probe {
        return match setup(workload, args.seed) {
            Ok(ctx) => {
                println!("setup_s={}", ctx.setup_s);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let res = if args.trace {
        run_traced(workload, args.seed, args.seconds)
    } else {
        run_e2e(workload, args.seed, args.seconds)
    };
    match res {
        Ok(out) => {
            report(&out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(steal: f64, p50: f64) -> Slice {
        Slice {
            steal,
            tput: None,
            p50: Some(p50),
            p90: None,
        }
    }

    #[test]
    fn clean_median_leaves_out_the_most_stolen_slices() {
        let mut s = Slices::default();
        for (steal, p50) in [(0.0, 1.0), (0.2, 9.0), (0.0, 2.0), (0.1, 8.0), (0.0, 3.0)] {
            s.slices.push(slice(steal, p50));
        }
        // The steal share a third of the way up is 0.0: the three calm
        // slices decide.
        assert_eq!(s.clean(|x| x.p50), 2.0);
        // A calm host keeps every slice.
        s.slices.iter_mut().for_each(|x| x.steal = 0.0);
        assert_eq!(s.clean(|x| x.p50), 3.0);
        assert!(s.clean(|x| x.tput).is_nan());
        assert!(Slices::default().clean(|x| x.p50).is_nan());
    }
}
