//! The specslice benchmark: three closed-loop workloads, each printing the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced run)
//! that `BENCHMARK.json` declares; `layers.json` maps each per-layer
//! metric to the end-to-end metrics it should move ([`catalogue`]).
//!
//! Every workload:
//! 1. derives its generated inputs from the seed (criterion samples,
//!    random programs, op mixes, edit sites); the scale programs are the
//!    repository's committed tiers;
//! 2. sets up several times and reports the median as `setup_s`;
//! 3. runs ops back to back for the requested time, timing each op;
//! 4. checks outputs outside the timed region, counting every mismatch as
//!    a failed op.
//!
//! A traced run measures an untraced loop and a traced loop of half the
//! time each (their difference is the tracing overhead), then replays the
//! workload's inputs stage by stage through the layers' public functions
//! ([`layers`]) to attribute the op's time.

pub mod catalogue;
pub mod corpus;
pub mod daemon;
pub mod layers;
pub mod scale;
pub mod trace;
pub mod util;

use layers::{Layers, SpecRun};
use specslice::{Slicer, SlicerConfig, Solver};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::{median, percentile};

/// Worker threads of every session the benchmark opens (the host's
/// `nproc` where the benchmark was calibrated).
pub const WORKERS: usize = 2;

/// Options of the benchmark's own sessions: memo off, [`WORKERS`] workers.
pub fn session_config(solver: Solver) -> SlicerConfig {
    SlicerConfig {
        validate: true,
        collect_stats: false,
        num_threads: WORKERS,
        memoize: false,
        solver,
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Back-to-back 120-criterion batches over the 4k scale tier.
    ScaleBatch,
    /// One small program per op: open, batch, specialize, compile, run.
    CorpusSpecialize,
    /// Two clients of an in-process daemon, reads beside edits.
    DaemonEditMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ScaleBatch,
        Workload::CorpusSpecialize,
        Workload::DaemonEditMix,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleBatch => "scale-batch",
            Workload::CorpusSpecialize => "corpus-specialize",
            Workload::DaemonEditMix => "daemon-edit-mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The percentile reported as `op_p99_ms`, fixed per workload so that
    /// runs of any length compare at the same quantile: the median on
    /// `scale-batch` (a run has a few dozen ops), the 99th percentile on
    /// the others (a run has thousands).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::ScaleBatch => 50.0,
            Workload::CorpusSpecialize | Workload::DaemonEditMix => 99.0,
        }
    }

    /// Whether `peak_rss_mb` is the median of per-op peaks (VmHWM reset
    /// before each op) rather than the process peak. Only on `scale-batch`,
    /// where two workers' allocation peaks coincide only by scheduling.
    pub fn per_op_peak(self) -> bool {
        self == Workload::ScaleBatch
    }
}

/// Ops a run needs before its 99th percentile has ten samples beyond it.
pub const P99_MIN_OPS: usize = 1000;

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Output checks: every mismatch is one failed op.
#[derive(Debug, Default)]
pub struct Checks {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed, including failed output checks.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub messages: Vec<String>,
    /// Informational lines (e.g. a seed without a committed digest).
    pub notes: Vec<String>,
}

impl Checks {
    /// Records a failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.messages.push(msg);
    }

    /// Records a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Counts the ops and failures of every loop of a run.
    pub fn absorb_logs(&mut self, logs: &Logs) {
        if let Some(base) = &logs.base {
            self.absorb_ops(base);
        }
        self.absorb_ops(&logs.last);
    }

    /// Counts an op loop's ops and failures.
    pub fn absorb_ops(&mut self, log: &OpLog) {
        self.attempted += log.lat_ms.len() as u64;
        self.failed += log.failed;
        self.messages.extend(log.messages.iter().take(8).cloned());
    }

    /// Compares a workload's output digest with the committed one for
    /// this seed (`digests.txt`); seeds without an entry are noted.
    pub fn committed_digest(&mut self, workload: &str, seed: u64, got: u64) {
        match committed_digest(workload, seed) {
            Some(want) => self.expect(want == got, || {
                format!("{workload} seed {seed}: digest {got:016x}, committed {want:016x}")
            }),
            None => self
                .notes
                .push(format!("{workload} seed {seed}: no committed digest")),
        }
    }
}

/// The committed output digest of `workload` at `seed` (`*` in the seed
/// column: the workload's checked output does not depend on the seed).
pub fn committed_digest(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        if w == workload && (s == "*" || s.parse::<u64>().ok()? == seed) {
            u64::from_str_radix(d, 16).ok()
        } else {
            None
        }
    })
}

/// One op loop's record.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Whether this loop is traced.
    pub trace: bool,
    /// Latency of every op, in order.
    pub lat_ms: Vec<f64>,
    /// The time throughput is measured over: the sum of op times (for
    /// several clients, see `daemon::run_clients`).
    pub span_s: f64,
    /// Ops that failed (error or wrong output).
    pub failed: u64,
    /// Failure descriptions.
    pub messages: Vec<String>,
    /// Layer values the ops themselves report (traced loop only).
    pub layers: Layers,
    /// The traced loop's spans.
    pub tracer: Option<Tracer>,
    /// Peak resident set (MiB) of each op, when the workload reports
    /// per-op peaks and the peak can be reset (Linux).
    pub op_peak_mb: Vec<f64>,
}

impl OpLog {
    /// Ops per second.
    pub fn ops_per_s(&self) -> f64 {
        util::ratio(self.lat_ms.len() as f64, self.span_s)
    }
}

/// The op loops of one run: the end-to-end loop, or, when traced, an
/// untraced loop followed by a traced one.
#[derive(Debug)]
pub struct Logs {
    /// Untraced loop of a traced run (the overhead baseline).
    pub base: Option<OpLog>,
    /// The run's main loop.
    pub last: OpLog,
}

/// Runs a single-client closed loop of `op` for `seconds`: `op` times its
/// own call, pushes the latency, and returns whether the output checked.
/// With `per_op_peak`, the process's peak resident set is reset before
/// each op and read after it.
pub fn op_loop(
    seconds: f64,
    trace: bool,
    per_op_peak: bool,
    op: &mut dyn FnMut(Option<&mut Tracer>, &mut OpLog) -> bool,
) -> OpLog {
    let mut log = OpLog {
        trace,
        ..OpLog::default()
    };
    let mut tracer = trace.then(|| Tracer::new(Instant::now()));
    let limit = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while log.lat_ms.is_empty() || start.elapsed() < limit {
        if let Some(t) = tracer.as_mut() {
            t.set_op(log.lat_ms.len() as u64);
        }
        let reset = per_op_peak && util::reset_peak_rss();
        let ok = op(tracer.as_mut(), &mut log);
        if reset {
            log.op_peak_mb.push(util::peak_rss_mb());
        }
        if !ok {
            log.failed += 1;
            log.messages
                .push(format!("op #{} failed", log.lat_ms.len()));
        }
    }
    log.span_s = log.lat_ms.iter().sum::<f64>() / 1e3;
    log.tracer = tracer;
    log
}

/// The run's loops: one untraced loop of `seconds`, or untraced and
/// traced loops of half that each.
pub fn op_loops(
    args: &RunArgs,
    op: &mut dyn FnMut(Option<&mut Tracer>, &mut OpLog) -> bool,
) -> Logs {
    let per_op_peak = args.workload.per_op_peak();
    if args.trace {
        let base = op_loop(args.seconds / 2.0, false, per_op_peak, op);
        let last = op_loop(args.seconds / 2.0, true, per_op_peak, op);
        Logs {
            base: Some(base),
            last,
        }
    } else {
        Logs {
            base: None,
            last: op_loop(args.seconds, false, per_op_peak, op),
        }
    }
}

/// Runs `f` at least 5 and at most 50 times, until the runs add up to a
/// quarter second, and returns the last result with the median time in
/// seconds (set-up is short; one sample would be noise).
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < 5 || (times.len() < 50 && times.iter().sum::<f64>() < 0.25) {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: Option<BTreeMap<&'static str, f64>>,
    /// Output checks.
    pub checks: Checks,
    /// Digest of the workload's rendered slices for this seed.
    pub digest: u64,
    /// Spans of the traced run, rendered.
    pub spans: Option<String>,
}

impl Outcome {
    /// Sets an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    /// Fills the latency/throughput metrics from the main loop, and the
    /// memory peak (see [`Workload::per_op_peak`]). A `op_p99_ms` taken
    /// from fewer than [`P99_MIN_OPS`] ops is noted in `checks`.
    pub fn op_metrics(&mut self, log: &OpLog, workload: Workload, checks: &mut Checks) {
        let p = workload.tail_percentile();
        let n = log.lat_ms.len();
        if p > 50.0 && n < P99_MIN_OPS {
            checks.notes.push(format!(
                "op_p99_ms from {n} ops (fewer than {P99_MIN_OPS}): under ten samples beyond it"
            ));
        }
        checks
            .notes
            .push(format!("op_p99_ms is the p{p} of {n} ops"));
        self.metric("ops_per_s", log.ops_per_s());
        self.metric("op_p50_ms", median(&log.lat_ms));
        self.metric("op_p99_ms", percentile(&log.lat_ms, p));
        let peak = if workload.per_op_peak() && !log.op_peak_mb.is_empty() {
            median(&log.op_peak_mb)
        } else {
            util::peak_rss_mb()
        };
        self.metric("peak_rss_mb", peak);
    }
}

/// `spec_steps_ratio` (geomean of specialized over original interpreter
/// steps) and `spec_code_kb` (size of the regenerated programs).
pub fn spec_metrics(out: &mut Outcome, runs: &[SpecRun]) {
    let ratio = specslice_bench::geometric_mean(
        runs.iter()
            .map(|r| r.spec_steps as f64 / r.orig_steps.max(1) as f64),
    );
    out.metric("spec_steps_ratio", ratio);
    out.metric(
        "spec_code_kb",
        runs.iter().map(|r| r.source.len()).sum::<usize>() as f64 / 1024.0,
    );
}

/// Span names whose totals are per-layer times.
pub const STAGE_SPANS: [&str; 14] = [
    "lang.frontend_ms",
    "core.indirect_ms",
    "sdg.build_ms",
    "core.encode_ms",
    "core.reachable_ms",
    "core.query_ms",
    "pds.saturate_ms",
    "fsa.trim_ms",
    "fsa.mrd_ms",
    "core.readout_ms",
    "core.specialize_ms",
    "core.regen_ms",
    "vm.compile_ms",
    "vm.run_ms",
];

/// Adds the totals of `t`'s stage spans to `l`, divided by `n` (the
/// number of replayed units they cover).
pub fn add_stage_means(l: &mut Layers, t: &Tracer, n: f64) {
    for (name, total) in t.totals_ms() {
        if let Some(&k) = STAGE_SPANS.iter().find(|&&k| k == name) {
            l.add(k, util::ratio(total, n));
        }
    }
}

/// Adds every value of `from`, divided by `n`.
pub fn add_means(l: &mut Layers, from: &Layers, n: f64) {
    for (&k, &v) in &from.0 {
        l.add(k, util::ratio(v, n));
    }
}

/// Adds a session's memory and store counters (summed; the dedup ratio
/// is formed in [`finish_layers`]).
pub fn session_layers(l: &mut Layers, slicer: &Slicer) {
    l.add("core.session_kb", slicer.approx_bytes() as f64 / 1024.0);
    let store = slicer.store_stats();
    l.add("store.dedup_hits", store.dedup_hits as f64);
    l.add("store.intern_calls", store.intern_calls as f64);
}

/// Sets the bump-arena high-water mark: the replay's saturation scratch
/// (batch workers' scratches are dropped with the batch, so a session's
/// pool may hold none).
pub fn arena_layer(l: &mut Layers, scratch: &specslice_pds::SaturationScratch) {
    l.set(
        "pds.arena_high_water_kb",
        scratch.arena_high_water_bytes() as f64 / 1024.0,
    );
}

/// Turns accumulated layer sums into the reported per-layer metrics:
/// derived ratios, per-op worker-pool numbers, op-span medians and the
/// tracing overhead (traced minus untraced end-to-end numbers).
pub fn finish_layers(mut l: Layers, logs: &Logs) -> BTreeMap<&'static str, f64> {
    let log = &logs.last;
    let batches = l.get("exec.batches");
    let (busy, capacity) = (l.get("exec.busy_ms"), l.get("exec.capacity_ms"));
    l.set("exec.busy_ratio", util::ratio(busy, capacity));
    l.set("exec.idle_ms", util::ratio(capacity - busy, batches));
    l.set("exec.steals", util::ratio(l.get("exec.steals"), batches));
    l.set(
        "store.dedup_hit_ratio",
        util::ratio(l.get("store.dedup_hits"), l.get("store.intern_calls")),
    );
    l.set(
        "pds.criteria_per_saturation",
        util::ratio(l.get("pds.group_members"), l.get("pds.saturations")),
    );
    if let Some(t) = &log.tracer {
        let batches = t.durations_ms("core.batch_ms");
        if !batches.is_empty() {
            l.set("core.batch_ms", median(&batches));
        }
    }
    if let Some(base) = &logs.base {
        l.set("trace.ops_per_s_delta", log.ops_per_s() - base.ops_per_s());
        l.set(
            "trace.op_p50_ms_delta",
            median(&log.lat_ms) - median(&base.lat_ms),
        );
    }
    for helper in [
        "exec.busy_ms",
        "exec.capacity_ms",
        "exec.batches",
        "pds.group_members",
        "store.dedup_hits",
        "store.intern_calls",
    ] {
        l.0.remove(helper);
    }
    l.0
}

/// Runs one workload.
pub fn run(args: &RunArgs) -> Outcome {
    match args.workload {
        Workload::ScaleBatch => scale::run(args),
        Workload::CorpusSpecialize => corpus::run(args),
        Workload::DaemonEditMix => daemon::run(args),
    }
}

/// Merges tracers and renders their spans.
pub fn render_spans(tracers: impl IntoIterator<Item = Option<Tracer>>) -> String {
    let tracers: Vec<Tracer> = tracers.into_iter().flatten().collect();
    let origin = tracers
        .iter()
        .map(Tracer::origin)
        .min()
        .unwrap_or_else(Instant::now);
    let mut all = Tracer::new(origin);
    for t in tracers {
        all.absorb(t);
    }
    all.render()
}
