//! `daemon-edit-mix`: two closed-loop clients of an in-process
//! `specslice-server` on a unix socket, over the 1k scale tier and three
//! corpus programs, with the memo on. A seeded mix sends `slice`,
//! `forward_slice`, `chop`, `specialize_program`, `apply_edit` and
//! `stats` (an assumed mix, see [`WEIGHTS`]); edits insert and remove
//! probes with fresh names in leaf helpers and ring procedures (see
//! [`Mirror::next_edit`]). It is the only workload where writes
//! (`apply_edit` holds a session's write lock) run beside reads, and it
//! exercises what the others bypass: memo hits, post*, chops, incremental
//! patching, and framing plus JSON.
//!
//! `open` rejects indirect calls, so the scale tier is opened as the
//! pretty-printed program after §6.2 lowering.
//!
//! Each session is edited by one client only (its owner), so its edits
//! form one ordered history. The owner knows its session's current vertex
//! numbering and sends per-site criteria; the other client, which cannot
//! know whether an edit has just landed, sends the id-free
//! `printf_actuals` criterion. A sampled response must be byte-identical
//! (request id aside) to the same request on a session that a fresh daemon
//! opens from the program text after the same edits, with no incremental
//! patching; a read that raced an edit may match any edit count between
//! the edits completed when it was sent and the edits started when it
//! returned.

use crate::layers::{self, Layers, SpecRun};
use crate::trace::Tracer;
use crate::util::{median, ratio, sub_seed};
use crate::{Checks, Logs, OpLog, Outcome, RunArgs};
use specslice::{Criterion, Program, ProgramDelta, ProgramEdit, Slicer, SlicerConfig, Solver};
use specslice_corpus::rng::StdRng;
use specslice_corpus::ScaleConfig;
use specslice_server::{Bind, Client, Handle, Json, ServerConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The `1k` tier of the repository's scale bench (~1k SDG vertices).
const TIER_1K: ScaleConfig = ScaleConfig {
    n_procs: 16,
    n_globals: 8,
    ring: 4,
    indirect_pct: 25,
    n_printfs: 24,
};
/// Corpus programs opened beside the scale tier.
const CORPUS_SESSIONS: [&str; 3] = ["wc", "replace", "schedule"];
const CLIENTS: usize = 2;
/// Reads kept for the output check: every `stride`-th read, the stride
/// doubling (and every other kept sample dropped) whenever `MAX_SAMPLES`
/// are held, so the samples spread over the whole run.
const MAX_SAMPLES: usize = 48;
/// Ops of the server/edit probe that traced runs of the other workloads
/// send over their own programs.
const PROBE_OPS: usize = 100;

/// Op kinds, in the order of [`WEIGHTS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Slice,
    Forward,
    Chop,
    Specialize,
    Edit,
    Stats,
}

const KINDS: [Kind; 6] = [
    Kind::Slice,
    Kind::Forward,
    Kind::Chop,
    Kind::Specialize,
    Kind::Edit,
    Kind::Stats,
];
/// Op mix in percent. The mix is an assumption: there is no recorded
/// daemon traffic to derive it from, and the workload's end-to-end numbers
/// hold for this mix only. `slice` is the paper's query and the commonest
/// read (35); `forward_slice` (15) and `chop` (10) are the secondary
/// query kinds; `specialize_program` (10) is the heaviest read, taking
/// regeneration along; `apply_edit` (15) is frequent enough that reads
/// regularly race an edit, which is what this workload is for; `stats`
/// (15) is the no-op round trip that shows framing alone.
const WEIGHTS: [usize; 6] = [35, 15, 10, 10, 15, 15];
/// Share of reads sent to the scale session; the rest spread evenly over
/// the corpus sessions, so the one large program carries as much read
/// load as the small ones together (an assumption, like [`WEIGHTS`]).
const SCALE_READ_PCT: usize = 50;

impl Kind {
    fn op(self) -> &'static str {
        match self {
            Kind::Slice => "slice",
            Kind::Forward => "forward_slice",
            Kind::Chop => "chop",
            Kind::Specialize => "specialize_program",
            Kind::Edit => "apply_edit",
            Kind::Stats => "stats",
        }
    }

    fn p50_metric(self) -> &'static str {
        match self {
            Kind::Slice => "server.slice_p50_ms",
            Kind::Forward => "server.forward_slice_p50_ms",
            Kind::Chop => "server.chop_p50_ms",
            Kind::Specialize => "server.specialize_program_p50_ms",
            Kind::Edit => "server.apply_edit_p50_ms",
            Kind::Stats => "server.stats_p50_ms",
        }
    }
}

/// A daemon session as the clients share it.
struct Sess {
    source: String,
    /// Wire id from `open`; edits re-key the session and keep this id as
    /// an alias, so every request may keep using it.
    id: String,
    owner: usize,
    /// Edits completed / started by the owner.
    done: AtomicUsize,
    started: AtomicUsize,
    /// The `edits` payload of every completed edit, in order.
    log: Mutex<Vec<Json>>,
}

/// The owner's view of one of its sessions.
struct Mirror {
    program: Program,
    /// Editable functions (everything but `main`) and their text at open.
    originals: BTreeMap<String, String>,
    /// Functions currently carrying a probe.
    probed: BTreeSet<String>,
    printfs: Vec<Vec<u32>>,
    calls: Vec<Vec<u32>>,
}

impl Mirror {
    fn new(source: &str) -> Mirror {
        let program = specslice_lang::frontend(source).expect("session sources are valid");
        let originals = program
            .functions
            .iter()
            .filter(|f| f.name != "main")
            .map(|f| {
                let mut text = String::new();
                specslice_lang::pretty::pretty_function(f, &mut text);
                (f.name.clone(), text)
            })
            .collect();
        let mut m = Mirror {
            program,
            originals,
            probed: BTreeSet::new(),
            printfs: Vec::new(),
            calls: Vec::new(),
        };
        m.renumber();
        m
    }

    /// Recomputes criterion vertex ids from a fresh SDG of the mirror
    /// (edits renumber vertices).
    fn renumber(&mut self) {
        let sdg = specslice_sdg::build::build_sdg(&self.program).expect("mirror builds");
        self.printfs = sdg
            .printf_call_sites()
            .map(|c| c.actual_ins.iter().map(|v| v.0).collect())
            .collect();
        self.calls = sdg
            .call_sites
            .iter()
            .filter(|c| !c.actual_ins.is_empty())
            .map(|c| c.actual_ins.iter().map(|v| v.0).collect())
            .collect();
    }

    /// The next edit on `func`: insert a fresh probe, or remove the one
    /// it carries. A probe routes a global through a fresh local
    /// (`p = g + v; g = p - v;`): output is unchanged, but the global's
    /// dependences now pass through the probe, so slices that read it
    /// change and the session memo must invalidate them. Programs without
    /// globals get a dead local. Returns the new function text.
    fn next_edit(&mut self, func: &str, fresh: &str, rng: &mut StdRng) -> String {
        if self.probed.remove(func) {
            return self.originals[func].clone();
        }
        let value = rng.gen_range(1..100);
        let probe = match self.program.globals.len() {
            0 => format!("    int {fresh};\n    {fresh} = {value};\n"),
            n => {
                let g = &self.program.globals[rng.gen_range(0..n)];
                format!("    int {fresh};\n    {fresh} = {g} + {value};\n    {g} = {fresh} - {value};\n")
            }
        };
        let original = &self.originals[func];
        let at = original.find("{\n").map_or(original.len(), |i| i + 2);
        let text = format!("{}{probe}{}", &original[..at], &original[at..]);
        self.probed.insert(func.to_string());
        text
    }

    fn apply(&mut self, text: &str) -> Result<(), String> {
        let edit = ProgramEdit::replace_function_src(text).map_err(|e| e.to_string())?;
        self.program = ProgramDelta::single(edit)
            .apply(&self.program)
            .map_err(|e| e.to_string())?;
        self.renumber();
        Ok(())
    }
}

fn all_contexts(ids: &[u32]) -> Json {
    Json::obj([
        ("kind", Json::str("all_contexts")),
        (
            "vertices",
            Json::arr(ids.iter().map(|&v| Json::Int(i64::from(v)))),
        ),
    ])
}

fn printf_actuals() -> Json {
    Json::obj([("kind", Json::str("printf_actuals"))])
}

/// A running in-process daemon; stopped (and its socket removed) on drop.
pub struct Daemon {
    handle: Option<Handle>,
    path: PathBuf,
}

impl Daemon {
    /// Starts a daemon on a fresh unix socket under `specbench/out/`.
    pub fn start() -> Daemon {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = PathBuf::from("specbench/out");
        std::fs::create_dir_all(&dir).expect("create specbench/out");
        let path = dir.join(format!(
            "d{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let mut config = ServerConfig::new(Bind::Unix(path.clone()));
        config.threads = Some(crate::WORKERS);
        config.solver = Some(Solver::OnePass);
        let handle = specslice_server::serve(config).expect("daemon starts");
        Daemon {
            handle: Some(handle),
            path,
        }
    }

    /// A connected client (handshake done).
    pub fn connect(&self) -> Client<UnixStream> {
        Client::connect_unix(&self.path).expect("client connects")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.stop();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A request's members besides `op` and `id`.
type Params = Vec<(&'static str, Json)>;

/// The request member `k`.
fn param<'a>(p: &'a Params, k: &str) -> &'a Json {
    p.iter()
        .find(|(name, _)| *name == k)
        .map_or(&Json::Null, |(_, v)| v)
}

/// Sends one request; returns the raw response, its round-trip time, and
/// whether it was `ok`.
fn send(client: &mut Client<UnixStream>, op: &str, params: &Params) -> (Vec<u8>, Duration, bool) {
    let items = params.clone();
    let start = Instant::now();
    let bytes = client.request_bytes(op, items);
    let rtt = start.elapsed();
    match bytes {
        Ok(b) => {
            let ok = parse(&b)
                .and_then(|j| j.get("ok").and_then(Json::as_bool))
                .unwrap_or(false);
            (b, rtt, ok)
        }
        Err(_) => (Vec::new(), rtt, false),
    }
}

fn parse(bytes: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(bytes).ok()?).ok()
}

/// A response without its echoed request id.
fn normalized(bytes: &[u8]) -> Option<String> {
    match parse(bytes)? {
        Json::Object(mut m) => {
            m.remove("id");
            Some(Json::Object(m).to_text())
        }
        other => Some(other.to_text()),
    }
}

/// A response kept for the output check.
struct Sample {
    sess: usize,
    op: &'static str,
    params: Params,
    lo: usize,
    hi: usize,
    response: Vec<u8>,
}

/// One op of a traced loop, for the in-process replay.
struct Record {
    sess: usize,
    kind: Kind,
    params: Params,
    lo: usize,
    sent: Instant,
    rtt_ms: f64,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    lat_ms: Vec<f64>,
    by_kind: BTreeMap<Kind, Vec<f64>>,
    response_bytes: usize,
    failed: u64,
    messages: Vec<String>,
    samples: Vec<Sample>,
    records: Vec<Record>,
    /// `(memo_kept, memo_dropped, full_rebuild, rules_rebuilt)` per edit.
    edit_reports: Vec<(f64, f64, f64, f64)>,
    /// One span per round trip (traced loops).
    tracer: Option<Tracer>,
}

/// How long a loop runs.
#[derive(Clone, Copy)]
enum Budget {
    Time(Duration),
    Ops(usize),
}

/// One client's closed loop.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    me: usize,
    sessions: &[Sess],
    mirrors: &mut BTreeMap<usize, Mirror>,
    client: &mut Client<UnixStream>,
    rng: &mut StdRng,
    fresh: &mut usize,
    budget: Budget,
    trace: bool,
) -> ClientLog {
    let start = Instant::now();
    let mut log = ClientLog {
        tracer: trace.then(|| Tracer::new(start)),
        ..ClientLog::default()
    };
    let owned: Vec<usize> = mirrors.keys().copied().collect();
    let mut n = 0usize;
    let mut stride = 1usize;
    loop {
        match budget {
            Budget::Time(d) if n > 0 && start.elapsed() >= d => break,
            Budget::Ops(k) if n >= k => break,
            _ => {}
        }
        n += 1;
        let mut pick = rng.gen_range(0..100);
        let kind = KINDS
            .iter()
            .zip(WEIGHTS)
            .find(|&(_, w)| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .map_or(Kind::Stats, |(&k, _)| k);
        let sess = if kind == Kind::Edit {
            if owned.is_empty() {
                continue;
            }
            owned[rng.gen_range(0..owned.len())]
        } else if rng.gen_bool(SCALE_READ_PCT as f64 / 100.0) || sessions.len() == 1 {
            0
        } else {
            1 + rng.gen_range(0..sessions.len() - 1)
        };
        let s = &sessions[sess];
        let mut params: Params = Vec::new();
        if kind != Kind::Stats {
            params.push(("session", Json::str(s.id.clone())));
        }
        let mut edit_text = None;
        match (kind, mirrors.get_mut(&sess)) {
            (Kind::Stats, _) => {}
            (Kind::Edit, Some(m)) => {
                let funcs: Vec<String> = m.originals.keys().cloned().collect();
                let func = funcs[rng.gen_range(0..funcs.len())].clone();
                *fresh += 1;
                let text = m.next_edit(&func, &format!("bp{me}_{fresh}"), rng);
                params.push((
                    "edits",
                    Json::arr([Json::obj([
                        ("kind", Json::str("replace_function")),
                        ("source", Json::str(text.clone())),
                    ])]),
                ));
                edit_text = Some(text);
            }
            (Kind::Edit, None) => unreachable!("edits target owned sessions"),
            (_, Some(m)) => {
                let printf = all_contexts(&m.printfs[rng.gen_range(0..m.printfs.len())]);
                let call = all_contexts(&m.calls[rng.gen_range(0..m.calls.len())]);
                match kind {
                    Kind::Slice => params.push(("criterion", printf)),
                    Kind::Forward => params.push(("criterion", call)),
                    Kind::Chop => params.extend([("source", call), ("target", printf)]),
                    _ => params.push(("criteria", Json::arr([printf]))),
                }
            }
            (_, None) => match kind {
                Kind::Slice | Kind::Forward => params.push(("criterion", printf_actuals())),
                Kind::Chop => {
                    params.extend([("source", printf_actuals()), ("target", printf_actuals())])
                }
                _ => params.push(("criteria", Json::arr([printf_actuals()]))),
            },
        }
        if kind == Kind::Edit {
            s.started.fetch_add(1, Ordering::SeqCst);
        }
        let lo = s.done.load(Ordering::SeqCst);
        let sent = Instant::now();
        let (bytes, rtt, ok) = send(client, kind.op(), &params);
        let hi = s.started.load(Ordering::SeqCst);
        let rtt_ms = rtt.as_secs_f64() * 1e3;
        if let Some(t) = log.tracer.as_mut() {
            t.set_op(((me as u64) << 32) | n as u64);
            t.record(kind.op(), sent, sent + rtt);
        }
        log.lat_ms.push(rtt_ms);
        log.by_kind.entry(kind).or_default().push(rtt_ms);
        log.response_bytes += bytes.len();
        if !ok {
            log.failed += 1;
            if log.messages.len() < 8 {
                log.messages.push(format!(
                    "{} on session {sess}: {}",
                    kind.op(),
                    String::from_utf8_lossy(&bytes[..bytes.len().min(300)])
                ));
            }
        }
        if let (Some(text), true) = (edit_text, ok) {
            let m = mirrors.get_mut(&sess).expect("owned");
            if let Err(e) = m.apply(&text) {
                log.failed += 1;
                log.messages.push(format!("mirror edit: {e}"));
            }
            s.log
                .lock()
                .expect("edit log lock")
                .push(param(&params, "edits").clone());
            s.done.fetch_add(1, Ordering::SeqCst);
            if let Some(r) = parse(&bytes).and_then(|j| j.get("report").cloned()) {
                let num = |k| r.get(k).and_then(Json::as_i64).unwrap_or(0) as f64;
                let full = r.get("full_rebuild").and_then(Json::as_bool) == Some(true);
                log.edit_reports.push((
                    num("memo_kept"),
                    num("memo_dropped"),
                    f64::from(u8::from(full)),
                    num("rules_rebuilt"),
                ));
            }
        }
        let is_read = !matches!(kind, Kind::Edit | Kind::Stats);
        if is_read && ok && n.is_multiple_of(stride) {
            if log.samples.len() == MAX_SAMPLES {
                let mut keep = false;
                log.samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                stride *= 2;
            }
            log.samples.push(Sample {
                sess,
                op: kind.op(),
                params: params.clone(),
                lo,
                hi,
                response: bytes,
            });
        }
        if trace {
            log.records.push(Record {
                sess,
                kind,
                params,
                lo,
                sent,
                rtt_ms,
            });
        }
    }
    log
}

/// The daemon, its sessions, and one connection plus mirrors per client.
struct Setup {
    daemon: Daemon,
    sessions: Vec<Sess>,
    clients: Vec<(Client<UnixStream>, BTreeMap<usize, Mirror>)>,
}

/// `(source, input)` of every session: the lowered 1k scale tier, then
/// the corpus programs.
fn session_sources() -> Vec<(String, Vec<i64>)> {
    let scale = crate::scale::lowered_program(TIER_1K);
    let mut out = vec![(specslice_lang::pretty(&scale), vec![1])];
    for name in CORPUS_SESSIONS {
        let p = specslice_corpus::by_name(name).expect("corpus program exists");
        out.push((p.source.to_string(), p.sample_input.to_vec()));
    }
    out
}

fn setup(sources: &[(String, Vec<i64>)], clients: usize) -> Setup {
    let daemon = Daemon::start();
    let mut conns: Vec<Client<UnixStream>> = (0..clients).map(|_| daemon.connect()).collect();
    let sessions: Vec<Sess> = sources
        .iter()
        .enumerate()
        .map(|(i, (source, _))| {
            let resp = conns[0]
                .request("open", [("source", Json::str(source.clone()))])
                .expect("daemon opens every session");
            Sess {
                source: source.clone(),

                id: resp
                    .get("session")
                    .and_then(Json::as_str)
                    .expect("open returns a session id")
                    .to_string(),
                owner: i % clients,
                done: AtomicUsize::new(0),
                started: AtomicUsize::new(0),
                log: Mutex::new(Vec::new()),
            }
        })
        .collect();
    let clients = conns
        .drain(..)
        .enumerate()
        .map(|(c, conn)| {
            let mirrors = sessions
                .iter()
                .enumerate()
                .filter(|(_, s)| s.owner == c)
                .map(|(i, s)| (i, Mirror::new(&s.source)))
                .collect();
            (conn, mirrors)
        })
        .collect();
    Setup {
        daemon,
        sessions,
        clients,
    }
}

/// Runs every client's loop concurrently and merges their logs. Returns
/// the merged log with the time its throughput is measured over: the ops
/// divided by the sum over clients of each client's ops per second of
/// round trips. A client's own work between requests (rebuilding its
/// mirror after an edit, keeping samples) is left out, so the throughput
/// is the daemon's.
fn run_clients(
    st: &mut Setup,
    rngs: &mut [StdRng],
    fresh: &mut [usize],
    budget: Budget,
    trace: bool,
) -> (ClientLog, f64) {
    let sessions = &st.sessions;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = st
            .clients
            .iter_mut()
            .zip(rngs.iter_mut())
            .zip(fresh.iter_mut())
            .enumerate()
            .map(|(me, (((client, mirrors), rng), fresh))| {
                scope.spawn(move || {
                    client_loop(me, sessions, mirrors, client, rng, fresh, budget, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let rate: f64 = logs
        .iter()
        .map(|l| ratio(l.lat_ms.len() as f64, l.lat_ms.iter().sum::<f64>() / 1e3))
        .sum();
    let mut all = ClientLog::default();
    for l in logs {
        all.lat_ms.extend(l.lat_ms);
        for (k, v) in l.by_kind {
            all.by_kind.entry(k).or_default().extend(v);
        }
        all.response_bytes += l.response_bytes;
        all.failed += l.failed;
        all.messages.extend(l.messages);
        all.samples.extend(l.samples);
        all.records.extend(l.records);
        all.edit_reports.extend(l.edit_reports);
        match (all.tracer.as_mut(), l.tracer) {
            (Some(a), Some(t)) => a.absorb(t),
            (None, t) => all.tracer = t,
            _ => {}
        }
    }
    let span_s = ratio(all.lat_ms.len() as f64, rate);
    (all, span_s)
}

fn op_log(c: &ClientLog, span_s: f64, trace: bool) -> OpLog {
    OpLog {
        trace,
        lat_ms: c.lat_ms.clone(),
        span_s,
        failed: c.failed,
        messages: c.messages.clone(),
        ..OpLog::default()
    }
}

/// The program after applying one logged `apply_edit` payload.
fn apply_logged(program: &Program, edits: &Json) -> Result<Program, String> {
    let edits = edits
        .as_array()
        .unwrap_or(&[])
        .iter()
        .map(|e| {
            let src = e.get("source").and_then(Json::as_str).unwrap_or("");
            ProgramEdit::replace_function_src(src).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    ProgramDelta { edits }
        .apply(program)
        .map_err(|e| e.to_string())
}

/// Checks every sample against a session that a fresh daemon opens from
/// the edited program's text, never patched (see the module docs).
fn check_samples(sessions: &[Sess], samples: &[Sample], checks: &mut Checks) {
    let fresh = Daemon::start();
    let mut client = fresh.connect();
    for (i, s) in sessions.iter().enumerate() {
        let mine: Vec<&Sample> = samples.iter().filter(|x| x.sess == i).collect();
        if mine.is_empty() {
            continue;
        }
        let log = s.log.lock().expect("edit log lock").clone();
        let max_k = mine.iter().map(|x| x.hi).max().unwrap_or(0).min(log.len());
        let mut program = specslice_lang::frontend(&s.source).expect("session sources are valid");
        let mut matched = vec![false; mine.len()];
        for k in 0..=max_k {
            let pending: Vec<usize> = (0..mine.len())
                .filter(|&j| !matched[j] && mine[j].lo <= k && k <= mine[j].hi)
                .collect();
            if !pending.is_empty() {
                let source = specslice_lang::pretty(&program);
                let id = match client.request("open", [("source", Json::str(source))]) {
                    Ok(r) => r
                        .get("session")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    Err(e) => {
                        checks.fail(format!(
                            "check daemon: open session {i} after {k} edits: {e}"
                        ));
                        break;
                    }
                };
                for j in pending {
                    let x = mine[j];
                    let mut params = x.params.clone();
                    params.retain(|(name, _)| *name != "session");
                    params.push(("session", Json::str(id.clone())));
                    let (bytes, _, _) = send(&mut client, x.op, &params);
                    let got = normalized(&bytes);
                    matched[j] = got.is_some() && got == normalized(&x.response);
                }
            }
            if let Some(edit) = log.get(k).filter(|_| k < max_k) {
                match apply_logged(&program, edit) {
                    Ok(p) => program = p,
                    Err(e) => {
                        checks.fail(format!("check: edit {k} of session {i}: {e}"));
                        break;
                    }
                }
            }
        }
        for (j, x) in mine.iter().enumerate() {
            checks.expect(matched[j], || {
                format!(
                    "{} on session {i} (edits {}..={}) differs from a fresh session of the edited program",
                    x.op, x.lo, x.hi
                )
            });
        }
    }
}

/// Digest of every session's printf batch before any edit.
fn sessions_digest(sources: &[(String, Vec<i64>)]) -> u64 {
    let mut d = crate::util::Digest::default();
    for (source, _) in sources {
        let slicer = Slicer::from_source_with(source, crate::session_config(Solver::OnePass))
            .expect("session opens");
        let batch = slicer
            .slice_batch(&layers::printf_criteria(slicer.sdg()))
            .expect("printf batch");
        d.debug(&batch.slices);
    }
    d.finish()
}

/// The daemon's own session configuration.
fn server_config() -> SlicerConfig {
    SlicerConfig {
        num_threads: crate::WORKERS,
        solver: Solver::OnePass,
        ..SlicerConfig::default()
    }
}

/// Specializes every session's program at each of its printf sites and
/// runs both programs.
fn spec_runs(
    t: &mut Tracer,
    sources: &[(String, Vec<i64>)],
    l: &mut Layers,
    checks: &mut Checks,
) -> Vec<SpecRun> {
    let mut runs = Vec::new();
    for (i, (source, input)) in sources.iter().enumerate() {
        let slicer = Slicer::from_source_with(source, crate::session_config(Solver::OnePass))
            .expect("session opens");
        let orig = match layers::reference_run(slicer.program().expect("program"), input) {
            Ok(o) => o,
            Err(e) => {
                checks.fail(format!("session {i}: {e}"));
                continue;
            }
        };
        for c in layers::printf_criteria(slicer.sdg()) {
            match layers::spec_run(t, &slicer, &c, &orig, input, l) {
                Ok(r) => runs.push(r),
                Err(e) => checks.fail(format!("session {i}: {e}")),
            }
        }
    }
    runs
}

/// A wire criterion resolved against a session's current SDG.
fn criterion_of(j: &Json, slicer: &Slicer) -> Criterion {
    match j.get("kind").and_then(Json::as_str) {
        Some("all_contexts") => Criterion::AllContexts(
            j.get("vertices")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_u32)
                .map(specslice::VertexId)
                .collect(),
        ),
        _ => Criterion::printf_actuals(slicer.sdg()),
    }
}

/// Server and incremental layers from a traced loop: per-op round trips,
/// edit reports, memo behaviour, and the overhead of each op over the
/// same op replayed in-process on a `Slicer` with the same edit history.
fn server_layers(st: &mut Setup, c: &ClientLog, l: &mut Layers) {
    for (kind, lat) in &c.by_kind {
        l.set(kind.p50_metric(), median(lat));
    }
    for kind in KINDS {
        if !c.by_kind.contains_key(&kind) {
            l.set(kind.p50_metric(), 0.0);
        }
    }
    l.set(
        "server.noop_rtt_us",
        median(c.by_kind.get(&Kind::Stats).map_or(&[][..], |v| &v[..])) * 1e3,
    );
    l.set(
        "server.response_kb",
        ratio(c.response_bytes as f64, c.lat_ms.len() as f64) / 1024.0,
    );
    let reports = &c.edit_reports;
    let sum = |f: fn(&(f64, f64, f64, f64)) -> f64| reports.iter().map(f).sum::<f64>();
    l.set(
        "core.edit_memo_kept_ratio",
        ratio(sum(|r| r.0), sum(|r| r.0 + r.1)),
    );
    l.set(
        "core.edit_full_rebuilds",
        ratio(sum(|r| r.2), reports.len() as f64),
    );
    l.set(
        "core.edit_rules_rebuilt",
        ratio(sum(|r| r.3), reports.len() as f64),
    );

    // Memo behaviour as the daemon's sessions report it.
    let (mut hits, mut queries) = (0.0, 0.0);
    let mut client = st.daemon.connect();
    for s in &st.sessions {
        if let Ok(r) = client.request("stats", [("session", Json::str(s.id.clone()))]) {
            let ss = r.get("session_stats");
            let num = |k| {
                ss.and_then(|x| x.get(k))
                    .and_then(Json::as_i64)
                    .unwrap_or(0) as f64
            };
            hits += num("memo_hits");
            queries += num("queries_run");
        }
    }
    l.set("core.memo_hit_ratio", ratio(hits, queries));

    // In-process replay, per session, in send order.
    let mut overhead_us = Vec::new();
    let mut edit_ms = Vec::new();
    for (i, s) in st.sessions.iter().enumerate() {
        let mut recs: Vec<&Record> = c.records.iter().filter(|r| r.sess == i).collect();
        recs.sort_by_key(|r| r.sent);
        let log = s.log.lock().expect("edit log lock").clone();
        let Ok(mut slicer) = Slicer::from_source_with(&s.source, server_config()) else {
            continue;
        };
        let mut k = 0usize;
        for r in recs {
            while k < r.lo.min(log.len()) {
                let delta = log[k]
                    .as_array()
                    .and_then(|a| a.first())
                    .and_then(|e| e.get("source"))
                    .and_then(Json::as_str)
                    .and_then(|src| ProgramEdit::replace_function_src(src).ok())
                    .map(ProgramDelta::single);
                if let Some(delta) = delta {
                    let start = Instant::now();
                    let _ = slicer.apply_edit(&delta);
                    edit_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
                k += 1;
            }
            let start = Instant::now();
            let ok = match r.kind {
                Kind::Slice | Kind::Forward => {
                    let crit = criterion_of(param(&r.params, "criterion"), &slicer);
                    if r.kind == Kind::Slice {
                        slicer.slice(&crit).is_ok()
                    } else {
                        slicer.forward_slice(&crit).is_ok()
                    }
                }
                Kind::Chop => {
                    let src = criterion_of(param(&r.params, "source"), &slicer);
                    let tgt = criterion_of(param(&r.params, "target"), &slicer);
                    slicer.chop(&src, &tgt).is_ok()
                }
                Kind::Specialize => {
                    let crits: Vec<Criterion> = param(&r.params, "criteria")
                        .as_array()
                        .unwrap_or(&[])
                        .iter()
                        .map(|j| criterion_of(j, &slicer))
                        .collect();
                    slicer.specialize_program(&crits).is_ok()
                }
                Kind::Edit | Kind::Stats => continue,
            };
            let inproc_ms = start.elapsed().as_secs_f64() * 1e3;
            if ok {
                overhead_us.push((r.rtt_ms - inproc_ms) * 1e3);
            }
        }
    }
    l.set("server.overhead_p50_us", median(&overhead_us));
    l.set("core.apply_edit_ms", crate::util::mean(&edit_ms));
}

/// Traced runs of the other workloads: sends a short single-client op mix
/// over their own programs through a daemon so the incremental and server
/// layers are measured on every workload's inputs.
pub fn probe(l: &mut Layers, sources: &[String], seed: u64, checks: &mut Checks) {
    let sources: Vec<(String, Vec<i64>)> = sources.iter().map(|s| (s.clone(), vec![1])).collect();
    let mut st = setup(&sources, 1);
    let mut rngs = vec![StdRng::seed_from_u64(sub_seed(seed, 300))];
    let mut fresh = vec![0usize];
    let (c, _) = run_clients(&mut st, &mut rngs, &mut fresh, Budget::Ops(PROBE_OPS), true);
    checks.attempted += c.lat_ms.len() as u64;
    checks.failed += c.failed;
    checks.messages.extend(c.messages.iter().cloned());
    check_samples(&st.sessions, &c.samples, checks);
    server_layers(&mut st, &c, l);
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let sources = session_sources();
    let (mut st, setup_s) = crate::repeat_setup(|| setup(&sources, CLIENTS));
    out.metric("setup_s", setup_s);

    let mut rngs: Vec<StdRng> = (0..CLIENTS)
        .map(|c| StdRng::seed_from_u64(sub_seed(args.seed, 200 + c as u64)))
        .collect();
    let mut fresh = vec![0usize; CLIENTS];
    let secs = |s: f64| Budget::Time(Duration::from_secs_f64(s));
    let mut checks = Checks::default();
    let mut samples = Vec::new();
    let base = if args.trace {
        let (mut c, span_s) = run_clients(
            &mut st,
            &mut rngs,
            &mut fresh,
            secs(args.seconds / 2.0),
            false,
        );
        let base = op_log(&c, span_s, false);
        checks.absorb_ops(&base);
        samples.append(&mut c.samples);
        Some(base)
    } else {
        None
    };
    let main_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (mut c, span_s) = run_clients(&mut st, &mut rngs, &mut fresh, secs(main_secs), args.trace);
    let last = op_log(&c, span_s, args.trace);
    checks.absorb_ops(&last);
    out.op_metrics(&last, args.workload, &mut checks);
    samples.append(&mut c.samples);
    check_samples(&st.sessions, &samples, &mut checks);

    out.digest = sessions_digest(&sources);
    checks.committed_digest("daemon-edit-mix", args.seed, out.digest);

    let mut t = Tracer::new(Instant::now());
    let mut spec_layers = Layers::default();
    let runs = spec_runs(&mut t, &sources, &mut spec_layers, &mut checks);
    crate::spec_metrics(&mut out, &runs);

    if args.trace {
        let logs = Logs { base, last };
        let mut l = Layers::default();
        server_layers(&mut st, &c, &mut l);
        crate::add_stage_means(&mut l, &t, runs.len() as f64);
        crate::add_means(&mut l, &spec_layers, runs.len() as f64);
        // Layer pass over the sessions' programs as opened (before edits).
        let mut lt = Tracer::new(Instant::now());
        let mut pass = Layers::default();
        let mut scratch = specslice_pds::SaturationScratch::default();
        let mut attributed = true;
        for (source, _) in &sources {
            let slicer = Slicer::from_source_with(source, crate::session_config(Solver::OnePass))
                .expect("session opens");
            let criteria = layers::printf_criteria(slicer.sdg());
            let start = Instant::now();
            let batch = lt.span("core.batch_ms", |_| slicer.slice_batch(&criteria));
            let batch = batch.expect("printf batch");
            let batch_ms = start.elapsed().as_secs_f64() * 1e3;
            pass.add("core.batch_ms", batch_ms);
            layers::pool_layers(&batch, batch_ms, &mut pass);
            crate::session_layers(&mut pass, &slicer);
            let counts = layers::batch_counts(&batch);
            match layers::open_stages(&mut lt, source, &mut pass)
                .and_then(|o| layers::replay_batch(&mut lt, &o, &criteria, &mut scratch))
            {
                Ok(replay) => {
                    let differ = layers::count_mismatches(&replay, &counts);
                    if !differ.is_empty() {
                        attributed = false;
                        checks
                            .notes
                            .push(format!("replay differs: {}", differ.join(", ")));
                    }
                }
                Err(e) => checks.fail(format!("replay: {e}")),
            }
            crate::add_means(&mut pass, &counts, 1.0);
        }
        let n = sources.len() as f64;
        crate::add_stage_means(&mut l, &lt, n);
        crate::add_means(&mut l, &pass, n);
        crate::arena_layer(&mut l, &scratch);
        l.set("pds.saturate_attributed", f64::from(u8::from(attributed)));
        out.layers = Some(crate::finish_layers(l, &logs));
        out.spans = Some(crate::render_spans([c.tracer.take(), Some(t), Some(lt)]));
    }
    out.checks = checks;
    out
}
