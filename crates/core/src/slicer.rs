//! The [`Slicer`] session: one program, many slicing queries — in parallel.
//!
//! Alg. 1's pipeline splits into *program-dependent* stages (frontend → SDG
//! construction → PDS encoding → the reachable-configuration automaton) and
//! *criterion-dependent* stages (query automaton → `Prestar` → MRD →
//! read-out). The paper's entire evaluation slices each test program once
//! per `printf` — a multi-criterion workload — and a naive client pays the
//! program-dependent cost on every call. A `Slicer` runs those stages once
//! at construction (the reachable automaton lazily, on the first criterion
//! that needs it) and reuses them for every subsequent query, batch, feature
//! removal, regeneration, or reslice check.
//!
//! A slice depends only on its criterion's language, so a batch is first
//! reduced to its distinct criteria (by the memo's canonical key); each is
//! answered once and repeats replay its answer. The criterion-dependent
//! stages are *independent* across criteria and touch the session state
//! read-only, so [`Slicer::slice_batch`] fans the distinct criteria out
//! over a [`specslice_exec::Pool`] of worker threads (see
//! [`SlicerConfig::num_threads`]). Each worker owns a private
//! `QueryScratch` — the saturation rows/worklists and read-out tables of
//! the whole criterion-dependent pipeline, plus a private [`VariantStore`]
//! shard its read-outs intern into; the shared `Sdg`, PDS encoding (with
//! its prebuilt rule index), and reachable automaton are borrowed immutably
//! by all workers. Results are assembled in input order and *adopted* into
//! the session's variant store in that order, so batch output — including
//! the store's interned ids and dedup counters — is bit-for-bit identical
//! at every thread count.

use crate::criteria::{self, Criterion};
use crate::encode::{self, Encoded, MAIN_CONTROL};
use crate::readout::{self, QueryKind, ReadoutScratch, SpecSlice, VariantMeta};
use crate::regen::{self, RegenOutput};
use crate::reslice::{self, ResliceReport};
use crate::store::{StoreStats, VariantId, VariantStore};
use crate::{feature_removal, PipelineStats, SpecError};
use specslice_exec::{Pool, WorkerStats};
use specslice_fsa::mrd::{mrd_of_trimmed, mrd_transposed, MrdStats};
use specslice_fsa::transposed::ALL_MEMBERS;
use specslice_fsa::{Nfa, TransposedView};
use specslice_graphs::{DiGraph, NodeId, Sccs};
use specslice_lang::Program;
use specslice_pds::{
    saturate_indexed_with_stats, saturate_multi_indexed_with_stats, CriterionSet, Direction,
    PAutomaton, SaturationScratch,
};
use specslice_sdg::build::build_sdg;
use specslice_sdg::{CallSiteId, CalleeKind, Sdg, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Multi-criterion solving strategy for [`Slicer::slice_batch`] (and
/// everything built on it: [`Slicer::slice_batch_results`],
/// `specialize_program`, `apply_edit` re-slicing).
///
/// Both solvers produce **byte-identical** output — slices, memo contents,
/// store ids and counters — at every thread count; they differ only in how
/// many `Prestar` saturations a batch costs (visible in
/// [`PipelineStats::saturations_run`]) and therefore in wall-clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Solver {
    /// One full `Prestar` + MRD chain per criterion — the reference
    /// pipeline, kept alive as the fallback and as the oracle the
    /// differential tests compare [`Solver::OnePass`] against.
    PerCriterion,
    /// Group criteria by owning procedure and run *one* bitset-labeled
    /// saturation per group (up to 64 criteria each), projecting the
    /// per-criterion `A1`s out of the shared result afterwards — so a
    /// 40-criterion grid batch costs ~1 saturation instead of 40.
    OnePass,
}

impl Solver {
    /// Parses a `SPECSLICE_SOLVER` value.
    pub fn parse(value: &str) -> Option<Solver> {
        match value.trim() {
            "per-criterion" => Some(Solver::PerCriterion),
            "one-pass" => Some(Solver::OnePass),
            _ => None,
        }
    }
}

/// The default batch solver: the `SPECSLICE_SOLVER` environment variable
/// (`per-criterion` | `one-pass`) when set to a valid value, otherwise
/// [`Solver::OnePass`].
///
/// The variable exists for test sweeps and CI (mirroring
/// `SPECSLICE_NUM_THREADS`): both settings produce byte-identical output,
/// so a matrix leg can run the whole suite under either solver without
/// touching code. A present-but-invalid value is logged to stderr (once
/// per process) and ignored.
pub fn default_solver() -> Solver {
    match std::env::var("SPECSLICE_SOLVER") {
        Ok(v) => Solver::parse(&v).unwrap_or_else(|| {
            static LOGGED: std::sync::Once = std::sync::Once::new();
            LOGGED.call_once(|| {
                eprintln!(
                    "specslice: invalid SPECSLICE_SOLVER={v:?} \
                     (expected \"per-criterion\" or \"one-pass\"); using one-pass"
                );
            });
            Solver::OnePass
        }),
        Err(_) => Solver::OnePass,
    }
}

/// Options for a [`Slicer`] session.
///
/// Options live here — not in per-call `_with_stats` / `_unchecked`
/// function variants — so the call surface stays stable as knobs accrete.
#[derive(Clone, Copy, Debug)]
pub struct SlicerConfig {
    /// Validate every read-out slice against the paper's Cor. 3.19
    /// no-parameter-mismatch property (cheap; on by default). Turning it off
    /// skips the post-hoc audit, not any part of the algorithm itself.
    pub validate: bool,
    /// Retain per-criterion [`PipelineStats`] in
    /// [`BatchResult::per_criterion`]. Off keeps batch results lean on large
    /// workloads; the (cheap, counter-read) aggregate is always computed,
    /// and [`Slicer::slice_with_stats`] always returns stats.
    pub collect_stats: bool,
    /// Worker threads used by [`Slicer::slice_batch`] (and
    /// [`Slicer::slice_batch_results`]). Defaults to the machine's available
    /// parallelism, overridable for sweeps via the `SPECSLICE_NUM_THREADS`
    /// environment variable (see [`specslice_exec::default_threads`]);
    /// `1` answers the batch sequentially on the calling
    /// thread, exactly as single-criterion [`Slicer::slice`] calls would
    /// (`0` is clamped to `1` at session construction, so a session's
    /// effective width is always at least one worker). Results are
    /// bit-for-bit identical at every setting — the knob only trades
    /// wall-clock for cores.
    pub num_threads: usize,
    /// Memoize criterion → slice results (on by default). Repeated criteria
    /// — within one batch, across batches, or across
    /// [`Slicer::apply_edit`]s — are answered from the cache without
    /// re-running `Prestar` *or* the read-out: the memo keeps the canonical
    /// MRD automaton plus the slice's interned [`VariantId`] rows, so a hit
    /// only clones ids and metadata. After an edit, entries whose slice
    /// region the edit cannot have touched are kept (identifier-remapped
    /// and re-interned into the fresh store), so an edit-reslice loop only
    /// recomputes the criteria the edit affected.
    pub memoize: bool,
    /// Multi-criterion solving strategy (see [`Solver`]). Defaults to
    /// [`Solver::OnePass`], overridable for sweeps via the
    /// `SPECSLICE_SOLVER` environment variable (see [`default_solver`]).
    /// Output is byte-identical under both settings — the knob only trades
    /// saturations (and wall-clock) for the reference pipeline.
    pub solver: Solver,
}

impl Default for SlicerConfig {
    fn default() -> Self {
        SlicerConfig {
            validate: true,
            collect_stats: true,
            num_threads: specslice_exec::default_threads(),
            memoize: true,
            solver: default_solver(),
        }
    }
}

/// The result of [`Slicer::slice_batch`]: per-criterion slices (in input
/// order) plus stats.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// One specialization slice per input criterion, in order.
    pub slices: Vec<SpecSlice>,
    /// Per-criterion pipeline stats (empty when stats collection is off).
    pub per_criterion: Vec<PipelineStats>,
    /// Aggregate over `per_criterion` ([`PipelineStats::absorb`] semantics:
    /// sums of per-query sizes, shared-encoding sizes kept once).
    pub aggregate: PipelineStats,
    /// Per-worker-thread execution accounting for this batch: how many
    /// *distinct* criteria each worker answered ([`WorkerStats::items`]),
    /// how many it stole, and how long it was busy. A batch answers each
    /// distinct criterion once; repeats replay their first occurrence's
    /// answer and are counted by no worker, so the items sum to the number
    /// of distinct criteria. One entry per worker that ran (a sequential
    /// batch has one).
    pub per_thread: Vec<WorkerStats>,
}

/// A slicing session over one program: cached SDG, cached PDS encoding,
/// lazily cached reachable-configuration automaton, and the shared
/// [`VariantStore`] every slice's content is interned into.
///
/// Construction runs everything that depends only on the program; every
/// query method ([`slice`](Slicer::slice), [`slice_batch`](Slicer::slice_batch),
/// [`remove_feature`](Slicer::remove_feature), …) reuses those caches. The
/// session is cheap to keep alive and immutable — build one per program and
/// share it across as many criteria as needed. It is also [`Sync`]: batch
/// queries fan out across worker threads that borrow it concurrently, and
/// clients may do the same with `&Slicer` or `Arc<Slicer>`.
#[derive(Debug)]
pub struct Slicer {
    pub(crate) program: Option<Program>,
    pub(crate) sdg: Sdg,
    pub(crate) enc: Encoded,
    pub(crate) config: SlicerConfig,
    /// The session variant store: every slice this session returns interns
    /// its variant content here (batch workers intern into private shards
    /// first; results are re-interned in input order).
    pub(crate) store: Arc<VariantStore>,
    /// `post*({⟨entry_main, ε⟩})` as an NFA — needed by all-contexts
    /// criteria and feature removal; built on first use, then shared. The
    /// cell caches the build *outcome* (a [`SpecError::Pds`] build failure
    /// is cached too, so every caller sees the same structured error
    /// instead of one caller panicking on behalf of the rest).
    pub(crate) reachable: OnceLock<Result<Nfa, SpecError>>,
    pub(crate) reachable_builds: AtomicUsize,
    /// Call-graph region (SCC of the call graph's condensation) per
    /// procedure — the one-pass planner's grouping key. Built lazily on
    /// the first batch and shared by every batch after it; invalidated
    /// together with the SDG on incremental edits.
    pub(crate) regions: OnceLock<Vec<u32>>,
    queries_run: AtomicUsize,
    /// Criterion → cached-slice memo (see [`SlicerConfig::memoize`]).
    /// Shared read-mostly across batch workers; [`Slicer::apply_edit`]
    /// rewrites it wholesale under `&mut self`.
    pub(crate) memo: RwLock<HashMap<MemoKey, MemoEntry>>,
    memo_hits: AtomicUsize,
    /// Warm [`QueryScratch`]es recycled across calls: sequential batches
    /// (and single-criterion queries) check one out and return it, so a
    /// session answering many small batches — the server's steady state —
    /// pays the table-growth warm-up once, not per call.
    scratch_pool: Mutex<Vec<QueryScratch>>,
}

/// Canonical, order-independent memo key for a query: the direction it ran
/// in plus the criterion's canonical selector. A forward and a backward
/// query over the same criterion are distinct cache entries (their `A6`
/// languages differ), so the direction is part of the key — and of every
/// serialized form of it (session export, server snapshots). Criteria over
/// raw automata are not memoized (their languages have no cheap canonical
/// key). Ordered by `(direction, selector)` — `Direction` sorts backward
/// first — so sorted exports list a session's backward entries before its
/// forward ones.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct MemoKey {
    /// The query direction this entry answers.
    pub(crate) dir: Direction,
    /// The criterion's canonical, order-independent selector.
    pub(crate) select: KeySelect,
}

/// The criterion component of a [`MemoKey`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum KeySelect {
    /// Sorted, deduplicated vertex ids of an all-contexts criterion.
    AllContexts(Vec<u32>),
    /// Sorted, deduplicated `(vertex, stack)` configurations.
    Configurations(Vec<(u32, Vec<u32>)>),
}

/// A slice as the memo retains it: the interned content ids plus the
/// positional metadata — everything [`SpecSlice`] owns except the store
/// handle and the automaton. A memo hit clones this and is done; no
/// read-out runs.
#[derive(Clone, Debug)]
pub(crate) struct CachedSlice {
    pub(crate) ids: Vec<VariantId>,
    pub(crate) metas: Vec<VariantMeta>,
    pub(crate) main_variant: Option<usize>,
}

impl CachedSlice {
    pub(crate) fn of(slice: &SpecSlice) -> CachedSlice {
        CachedSlice {
            ids: slice.variant_ids().to_vec(),
            metas: slice.metas().to_vec(),
            main_variant: slice.main_variant,
        }
    }
}

/// What the memo retains per criterion: the canonical MRD automaton, the
/// cached slice (session-store [`VariantId`] rows), and the pipeline sizes
/// observed when the entry was first computed.
#[derive(Clone, Debug)]
pub(crate) struct MemoEntry {
    pub(crate) a6: Nfa,
    pub(crate) cached: CachedSlice,
    pub(crate) stats: PipelineStats,
}

pub(crate) fn memo_key(dir: Direction, criterion: &Criterion) -> Option<MemoKey> {
    let select = match criterion {
        Criterion::AllContexts(verts) => {
            let mut v: Vec<u32> = verts.iter().map(|v| v.0).collect();
            v.sort_unstable();
            v.dedup();
            KeySelect::AllContexts(v)
        }
        Criterion::Configurations(configs) => {
            let mut v: Vec<(u32, Vec<u32>)> = configs
                .iter()
                .map(|(v, stack)| (v.0, stack.iter().map(|c| c.0).collect()))
                .collect();
            v.sort_unstable();
            v.dedup();
            KeySelect::Configurations(v)
        }
        Criterion::Automaton(_) => return None,
    };
    Some(MemoKey { dir, select })
}

impl MemoKey {
    /// Rewrites the key through an edit's identifier maps; `None` when any
    /// referenced vertex or call site did not survive the edit. The
    /// direction tag carries over unchanged — edits rename identifiers,
    /// they never turn a forward entry into a backward one.
    pub(crate) fn remap(
        &self,
        vertex: impl Fn(VertexId) -> Option<VertexId>,
        call_site: impl Fn(CallSiteId) -> Option<CallSiteId>,
    ) -> Option<MemoKey> {
        let select = match &self.select {
            KeySelect::AllContexts(vs) => {
                let mut out = Vec::with_capacity(vs.len());
                for &v in vs {
                    out.push(vertex(VertexId(v))?.0);
                }
                out.sort_unstable();
                out.dedup();
                KeySelect::AllContexts(out)
            }
            KeySelect::Configurations(cs) => {
                let mut out = Vec::with_capacity(cs.len());
                for (v, stack) in cs {
                    let nv = vertex(VertexId(*v))?.0;
                    let mut ns = Vec::with_capacity(stack.len());
                    for &c in stack {
                        ns.push(call_site(CallSiteId(c))?.0);
                    }
                    out.push((nv, ns));
                }
                out.sort_unstable();
                out.dedup();
                KeySelect::Configurations(out)
            }
        };
        Some(MemoKey {
            dir: self.dir,
            select,
        })
    }
}

/// One criterion's raw outcome, before the session adopts it: the slice
/// (possibly still shard-interned), its stats, and what the memo should do
/// with it.
pub(crate) struct Answer {
    slice: SpecSlice,
    stats: PipelineStats,
    key: Option<MemoKey>,
    from_memo: bool,
}

/// One outcome per *distinct* batch criterion, in first-occurrence order
/// (aligned with [`Distinct::firsts`]).
type RawBatch = Vec<Result<Answer, SpecError>>;

/// One adopted outcome per batch criterion, in input order.
type Expanded = Vec<Result<(SpecSlice, PipelineStats), SpecError>>;

/// A batch reduced to its distinct criteria. Two criteria are the same
/// when their [`memo_key`]s are equal — whether or not the session
/// memoizes: the key is canonical and order-independent, and a slice
/// depends only on its criterion's language (the memo relies on the same
/// fact). Raw-automaton criteria have no key and are never merged.
struct Distinct {
    /// The input index of each distinct criterion's first occurrence,
    /// ascending.
    firsts: Vec<usize>,
    /// Per input index, the position in `firsts` of its criterion.
    slot: Vec<usize>,
}

impl Distinct {
    /// Keys every criterion of a batch in `dir` and keeps each key's first
    /// occurrence.
    fn of(dir: Direction, criteria: &[Criterion]) -> Distinct {
        let mut firsts = Vec::new();
        let mut seen: HashMap<MemoKey, usize> = HashMap::new();
        let slot = criteria
            .iter()
            .enumerate()
            .map(|(i, criterion)| {
                let fresh = firsts.len();
                let s = match memo_key(dir, criterion) {
                    Some(key) => *seen.entry(key).or_insert(fresh),
                    None => fresh,
                };
                if s == fresh {
                    firsts.push(i);
                }
                s
            })
            .collect();
        Distinct { firsts, slot }
    }

    /// One empty result slot per distinct criterion.
    fn empty_slots(&self) -> Vec<Option<Result<Answer, SpecError>>> {
        self.firsts.iter().map(|_| None).collect()
    }

    /// Files group results (keyed by input index) into their slots.
    fn scatter(
        &self,
        slots: &mut [Option<Result<Answer, SpecError>>],
        results: Vec<(usize, Result<Answer, SpecError>)>,
    ) {
        for (i, result) in results {
            let s = self.slot[i];
            debug_assert!(slots[s].is_none(), "criterion {i} answered twice");
            slots[s] = Some(result);
        }
    }
}

/// The per-worker working memory of the criterion-dependent pipeline:
/// saturation rows/worklists, read-out tables, and a private
/// [`VariantStore`] shard the worker's read-outs intern into. One
/// `QueryScratch` is allocated per worker thread (or per sequential loop)
/// and reset — not reallocated — between criteria, so the hot loop runs
/// against warm buffers and never contends on the global allocator (or the
/// session store's lock) for its working set.
#[derive(Debug)]
pub(crate) struct QueryScratch {
    /// `Prestar` saturation buffers (dense rows, worklist, pending table).
    pub(crate) sat: SaturationScratch,
    /// Read-out stage tables.
    pub(crate) readout: ReadoutScratch,
    /// The worker's private intern shard. Slices produced against it are
    /// re-interned into the session store when the batch is adopted, in
    /// input order — which is what makes session ids thread-count-
    /// independent.
    pub(crate) shard: Arc<VariantStore>,
}

impl QueryScratch {
    /// Retained capacity estimate of one pooled scratch (saturation
    /// buffers + read-out tables; the intern shard is counted by the
    /// session store it re-interns into).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.sat.approx_bytes() + self.readout.approx_bytes()
    }
}

/// Warm scratch-pool accounting (see [`Slicer::scratch_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScratchStats {
    /// Scratches currently parked in the pool.
    pub pooled: usize,
    /// Bytes the pooled scratches retain between queries.
    pub approx_bytes: usize,
    /// Peak live bump-arena bytes across the pooled scratches.
    pub arena_high_water: usize,
}

impl Default for QueryScratch {
    fn default() -> Self {
        QueryScratch {
            sat: SaturationScratch::default(),
            readout: ReadoutScratch::default(),
            shard: Arc::new(VariantStore::new()),
        }
    }
}

/// The session is shared immutably across batch worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Slicer>();
};

impl Slicer {
    /// Builds a session from MiniC source: frontend → SDG → PDS encoding,
    /// all cached. Keeps the checked [`Program`] so
    /// [`regenerate`](Slicer::regenerate) works.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] / [`SpecError::Sema`] from the frontend,
    /// [`SpecError::SdgBuild`] from SDG construction.
    pub fn from_source(src: &str) -> Result<Slicer, SpecError> {
        Slicer::from_source_with(src, SlicerConfig::default())
    }

    /// [`from_source`](Slicer::from_source) with explicit options.
    pub fn from_source_with(src: &str, config: SlicerConfig) -> Result<Slicer, SpecError> {
        let program = specslice_lang::frontend(src)?;
        Slicer::from_program_with(program, config)
    }

    /// Builds a session from an already-frontended program (normalized and
    /// checked — e.g. the output of [`crate::indirect::lower_indirect_calls`]).
    pub fn from_program(program: Program) -> Result<Slicer, SpecError> {
        Slicer::from_program_with(program, SlicerConfig::default())
    }

    /// [`from_program`](Slicer::from_program) with explicit options.
    pub fn from_program_with(program: Program, config: SlicerConfig) -> Result<Slicer, SpecError> {
        let sdg = build_sdg(&program)?;
        Ok(Slicer::assemble(Some(program), sdg, config))
    }

    /// Builds a session from a pre-built SDG. Source regeneration is
    /// unavailable ([`regenerate`](Slicer::regenerate) reports
    /// [`SpecError::Internal`]); everything else works.
    pub fn from_sdg(sdg: Sdg) -> Result<Slicer, SpecError> {
        Slicer::from_sdg_with(sdg, SlicerConfig::default())
    }

    /// [`from_sdg`](Slicer::from_sdg) with explicit options.
    pub fn from_sdg_with(sdg: Sdg, config: SlicerConfig) -> Result<Slicer, SpecError> {
        Ok(Slicer::assemble(None, sdg, config))
    }

    fn assemble(program: Option<Program>, sdg: Sdg, mut config: SlicerConfig) -> Slicer {
        // A zero-width session is meaningless; clamp rather than letting the
        // width reach the execution layer (whose own clamp is an
        // implementation detail this API must not depend on).
        config.num_threads = config.num_threads.max(1);
        let enc = encode::encode_sdg(&sdg);
        Slicer {
            program,
            sdg,
            enc,
            config,
            store: Arc::new(VariantStore::new()),
            reachable: OnceLock::new(),
            reachable_builds: AtomicUsize::new(0),
            regions: OnceLock::new(),
            queries_run: AtomicUsize::new(0),
            memo: RwLock::new(HashMap::new()),
            memo_hits: AtomicUsize::new(0),
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// The session's SDG.
    pub fn sdg(&self) -> &Sdg {
        &self.sdg
    }

    /// The checked program, when the session was built from source or AST.
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// The cached SDG→PDS encoding. The same instance is used by every
    /// query of this session — it is built exactly once, at construction.
    pub fn encoding(&self) -> &Encoded {
        &self.enc
    }

    /// The session options.
    pub fn config(&self) -> &SlicerConfig {
        &self.config
    }

    /// The session's variant store. Every slice this session returns
    /// interns its variant content here; [`Slicer::apply_edit`] replaces it
    /// (old slices keep their own handle to the superseded store).
    pub fn variant_store(&self) -> &Arc<VariantStore> {
        &self.store
    }

    /// Deterministic counters of the session store (interned variants,
    /// intern calls, cross-criterion dedup hits, flat-row bytes).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// How many times the reachable-configuration automaton was built
    /// (0 until a criterion needs it, then 1 forever — it is cached, and
    /// the cache is race-free even when a parallel batch forces it).
    pub fn reachable_builds(&self) -> usize {
        self.reachable_builds.load(Ordering::Relaxed)
    }

    /// Total queries answered by this session (slices, batch members, and
    /// feature removals).
    pub fn queries_run(&self) -> usize {
        self.queries_run.load(Ordering::Relaxed)
    }

    /// Checks a warm scratch out of the session pool (or makes a fresh
    /// one). Pair with [`Slicer::put_scratch`]; an early-error path that
    /// drops the scratch instead merely forfeits the warm buffers.
    fn take_scratch(&self) -> QueryScratch {
        self.scratch_pool
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default()
    }

    /// Returns a scratch to the session pool. The pool is bounded by the
    /// configured worker count — enough for every concurrent caller of the
    /// sequential paths a session realistically sees.
    fn put_scratch(&self, scratch: QueryScratch) {
        if let Ok(mut pool) = self.scratch_pool.lock() {
            if pool.len() < self.config.num_threads.max(1) {
                pool.push(scratch);
            }
        }
    }

    /// Accounting over the warm scratch pool: how many scratches are
    /// parked, the bytes their buffers retain between queries, and the
    /// bump arenas' high-water marks. The retained bytes are part of
    /// [`Slicer::approx_bytes`] — a warm session's pool is real residency
    /// the server's eviction budget must see.
    pub fn scratch_stats(&self) -> ScratchStats {
        let mut stats = ScratchStats::default();
        if let Ok(pool) = self.scratch_pool.lock() {
            stats.pooled = pool.len();
            for scratch in pool.iter() {
                stats.approx_bytes += scratch.approx_bytes();
                stats.arena_high_water += scratch.sat.arena_high_water_bytes();
            }
        }
        stats
    }

    /// Queries answered from the criterion → slice memo without re-running
    /// `Prestar` or the read-out (see [`SlicerConfig::memoize`]).
    pub fn memo_hits(&self) -> usize {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Criteria currently memoized.
    pub fn memo_len(&self) -> usize {
        self.memo.read().map(|m| m.len()).unwrap_or(0)
    }

    /// The cached `post*({⟨entry_main, ε⟩})` automaton.
    fn reachable(&self) -> Result<&Nfa, SpecError> {
        self.reachable
            .get_or_init(|| {
                self.reachable_builds.fetch_add(1, Ordering::Relaxed);
                criteria::reachable_configurations(&self.sdg, &self.enc)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn query(&self, criterion: &Criterion) -> Result<PAutomaton, SpecError> {
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        let reachable = match criterion {
            // Only all-contexts criteria consult the reachable automaton;
            // don't force the cache for the others.
            Criterion::AllContexts(_) => Some(self.reachable()?),
            _ => None,
        };
        criteria::query_automaton_reusing(&self.sdg, &self.enc, reachable, criterion)
    }

    /// Answers a memoized criterion: clones the cached ids/automaton and
    /// bumps the query/hit counters exactly as a computed answer would.
    /// `start` is when the caller began handling this criterion (the hit's
    /// `query_time`).
    fn answer_from_memo(&self, key: &MemoKey, start: Instant) -> Option<Answer> {
        let cached = self.memo.read().ok().and_then(|memo| {
            memo.get(key)
                .map(|e| (e.a6.clone(), e.cached.clone(), e.stats))
        });
        let (a6, cached, mut stats) = cached?;
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        let slice = SpecSlice::from_parts(
            self.store.clone(),
            cached.ids,
            cached.metas,
            cached.main_variant,
            a6,
            key.dir.into(),
        );
        stats = stats.replayed();
        stats.query_time = start.elapsed();
        set_memo_counters(&mut stats, key.dir, true);
        Some(Answer {
            slice,
            stats,
            key: Some(key.clone()),
            from_memo: true,
        })
    }

    /// The full criterion-dependent pipeline for one criterion, against
    /// caller-owned query scratch (one per batch worker). Read-out interns
    /// into `store` — the session store on direct paths, the worker's
    /// private shard inside parallel batches.
    fn answer_in(
        &self,
        dir: Direction,
        criterion: &Criterion,
        scratch: &mut QueryScratch,
        store: &Arc<VariantStore>,
    ) -> Result<Answer, SpecError> {
        let start = Instant::now();
        let key = if self.config.memoize {
            memo_key(dir, criterion)
        } else {
            None
        };
        // Memo hit: the canonical MRD automaton *and* the read-out result
        // (interned rows + metadata) are cached — the whole criterion
        // pipeline is skipped and the hit just clones ids.
        if let Some(k) = &key {
            if let Some(answer) = self.answer_from_memo(k, start) {
                return Ok(answer);
            }
        }
        let query = self.query(criterion)?;
        let (slice, mut stats) = run_query_in(
            dir,
            &self.sdg,
            &self.enc,
            &query,
            self.config.validate,
            scratch,
            store,
        )?;
        stats.query_time = start.elapsed();
        if key.is_some() {
            set_memo_counters(&mut stats, dir, false);
        }
        Ok(Answer {
            slice,
            stats,
            key,
            from_memo: false,
        })
    }

    /// Adopts one answer into the session: re-interns shard-produced slices
    /// into the session store and installs the memo entry. Called in input
    /// order for batches, which pins session-store ids (and counters) to
    /// the input sequence regardless of thread count.
    ///
    /// A freshly computed answer whose key is *already* memoized — the
    /// same criterion answered concurrently by another caller of this
    /// session — is answered from the memo instead of being re-interned,
    /// exactly as it would have been had the other caller finished first.
    /// (Repeats within one batch never get here: the batch answers each
    /// distinct criterion once and replays the rest, see
    /// [`expand`](Slicer::expand).)
    fn adopt(&self, answer: Answer) -> (SpecSlice, PipelineStats) {
        if let (Some(k), false) = (&answer.key, answer.from_memo) {
            let cached = self.memo.read().ok().and_then(|memo| {
                memo.get(k)
                    .map(|e| (e.a6.clone(), e.cached.clone(), e.stats))
            });
            if let Some((a6, cached, stats)) = cached {
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
                let slice = SpecSlice::from_parts(
                    self.store.clone(),
                    cached.ids,
                    cached.metas,
                    cached.main_variant,
                    a6,
                    k.dir.into(),
                );
                let mut stats = stats.replayed();
                stats.query_time = answer.stats.query_time;
                set_memo_counters(&mut stats, k.dir, true);
                return (slice, stats);
            }
        }
        let slice = answer.slice.reintern_into(&self.store);
        if let (Some(k), false) = (answer.key, answer.from_memo) {
            if let Ok(mut memo) = self.memo.write() {
                memo.entry(k).or_insert_with(|| MemoEntry {
                    a6: slice.a6.clone(),
                    cached: CachedSlice::of(&slice),
                    stats: answer.stats,
                });
            }
        }
        (slice, answer.stats)
    }

    /// Computes the specialization slice for `criterion` (Alg. 1), reusing
    /// the session's cached encoding.
    ///
    /// # Errors
    ///
    /// [`SpecError::BadCriterion`] for malformed criteria;
    /// [`SpecError::Internal`] on invariant violations (a bug).
    pub fn slice(&self, criterion: &Criterion) -> Result<SpecSlice, SpecError> {
        self.slice_with_stats(criterion).map(|(s, _)| s)
    }

    /// [`slice`](Slicer::slice) plus the automaton statistics the paper's
    /// evaluation reports (always collected, regardless of
    /// [`SlicerConfig::collect_stats`]).
    pub fn slice_with_stats(
        &self,
        criterion: &Criterion,
    ) -> Result<(SpecSlice, PipelineStats), SpecError> {
        self.directed_slice_with_stats(Direction::Backward, criterion)
    }

    /// Computes the **forward** slice for `criterion`: every configuration
    /// reachable *from* the criterion along dependence edges, computed as
    /// `post*(A_C)` over the same Fig. 8 encoding (and the same cached
    /// session state — the PDS encoding is never rebuilt for a direction
    /// switch). The result is read out into the same variant/partition
    /// shape as a backward slice; see [`QueryKind::Forward`] for the
    /// (weaker) parameter-completeness guarantee forward slices carry.
    pub fn forward_slice(&self, criterion: &Criterion) -> Result<SpecSlice, SpecError> {
        self.forward_slice_with_stats(criterion).map(|(s, _)| s)
    }

    /// [`forward_slice`](Slicer::forward_slice) plus pipeline statistics.
    pub fn forward_slice_with_stats(
        &self,
        criterion: &Criterion,
    ) -> Result<(SpecSlice, PipelineStats), SpecError> {
        self.directed_slice_with_stats(Direction::Forward, criterion)
    }

    /// The direction-generic single-criterion path behind
    /// [`slice_with_stats`](Slicer::slice_with_stats) and
    /// [`forward_slice_with_stats`](Slicer::forward_slice_with_stats).
    fn directed_slice_with_stats(
        &self,
        dir: Direction,
        criterion: &Criterion,
    ) -> Result<(SpecSlice, PipelineStats), SpecError> {
        let mut scratch = self.take_scratch();
        let answer = self.answer_in(dir, criterion, &mut scratch, &self.store)?;
        self.put_scratch(scratch);
        Ok(self.adopt(answer))
    }

    /// How [`Solver::OnePass`] partitions `criteria` into shared
    /// saturations — the plan a batch of `criteria` runs. Each inner list
    /// holds the input indices of one group, in the order the group's
    /// members occupy its criterion mask (a group of one runs the solo
    /// pipeline). A batch answers each distinct criterion once, so only
    /// first occurrences are planned: a repeat (a criterion with the same
    /// canonical selector as an earlier one) is in no group and replays
    /// its first occurrence's answer. Memo hits peel off a group at answer
    /// time; the plan itself ignores the memo.
    pub fn batch_groups(&self, criteria: &[Criterion]) -> Vec<Vec<usize>> {
        // Which criteria are repeats does not depend on the direction: it
        // tags every key of a batch alike.
        let distinct = Distinct::of(Direction::Backward, criteria);
        plan_groups(&self.sdg, self.proc_regions(), criteria, &distinct.firsts)
    }

    /// The call-graph region of every procedure: its component in the SCC
    /// condensation of the call graph (computed via `specslice_graphs`,
    /// indirect calls contributing their dispatcher's out-edges like any
    /// other call site). Procedures in one region — a mutual-recursion
    /// cluster — pull in near-identical saturation state, so the one-pass
    /// planner groups criteria by region sets rather than exact procedure
    /// sets: a skewed batch hammering one recursive ring shares saturations
    /// across the whole ring instead of fragmenting per procedure.
    fn proc_regions(&self) -> &[u32] {
        self.regions.get_or_init(|| {
            let mut g = DiGraph::with_nodes(self.sdg.procs.len());
            for site in &self.sdg.call_sites {
                if let CalleeKind::User(p) = site.callee {
                    g.add_edge_unique(NodeId(site.caller.0), NodeId(p.0));
                }
            }
            let sccs = Sccs::compute(&g);
            (0..self.sdg.procs.len())
                .map(|i| sccs.component_of(NodeId(i as u32)) as u32)
                .collect()
        })
    }

    /// Answers the distinct criteria of a batch across the session's
    /// worker pool, returning their raw results (aligned with
    /// `distinct.firsts`) plus per-worker accounting.
    fn batch_raw(
        &self,
        dir: Direction,
        criteria: &[Criterion],
        distinct: &Distinct,
    ) -> (RawBatch, Vec<WorkerStats>) {
        match self.config.solver {
            Solver::PerCriterion => self.batch_raw_per_criterion(dir, criteria, &distinct.firsts),
            Solver::OnePass => self.batch_raw_onepass(dir, criteria, distinct),
        }
    }

    /// Forces the shared reachable automaton before fanning a batch out, so
    /// the workers start against a warm cache instead of serializing on its
    /// initialization lock. (A build *failure* is cached and surfaces
    /// per-criterion, so it is deliberately ignored here.)
    fn warm_reachable_for(&self, criteria: &[Criterion]) {
        if self.reachable.get().is_none()
            && criteria
                .iter()
                .any(|c| matches!(c, Criterion::AllContexts(_)))
        {
            let _ = self.reachable();
        }
    }

    /// [`batch_raw`](Slicer::batch_raw) under [`Solver::PerCriterion`]:
    /// each distinct criterion (input index in `firsts`) is an independent
    /// pool item.
    fn batch_raw_per_criterion(
        &self,
        dir: Direction,
        criteria: &[Criterion],
        firsts: &[usize],
    ) -> (RawBatch, Vec<WorkerStats>) {
        let pool = Pool::new(self.config.num_threads);
        if pool.threads() > 1 {
            self.warm_reachable_for(criteria);
        }
        pool.map_init_stats(firsts, QueryScratch::default, |scratch, _, &i| {
            let shard = scratch.shard.clone();
            self.answer_in(dir, &criteria[i], scratch, &shard)
        })
    }

    /// [`batch_raw`](Slicer::batch_raw) under [`Solver::OnePass`]: the pool
    /// items are criterion *groups* (weighted by member count, so
    /// per-worker accounting still counts criteria), and each group runs
    /// one shared saturation via [`Slicer::answer_group`].
    fn batch_raw_onepass(
        &self,
        dir: Direction,
        criteria: &[Criterion],
        distinct: &Distinct,
    ) -> (RawBatch, Vec<WorkerStats>) {
        let groups = plan_groups(&self.sdg, self.proc_regions(), criteria, &distinct.firsts);
        let pool = Pool::new(self.config.num_threads);
        if pool.threads() > 1 {
            self.warm_reachable_for(criteria);
        }
        let (chunks, per_thread) = pool.map_init_stats_weighted(
            &groups,
            QueryScratch::default,
            Vec::len,
            |scratch, _, group| {
                let shard = scratch.shard.clone();
                self.answer_group(dir, criteria, group, scratch, &shard)
            },
        );
        let mut slots = distinct.empty_slots();
        for chunk in chunks {
            distinct.scatter(&mut slots, chunk);
        }
        let results = slots
            .into_iter()
            .map(|slot| slot.expect("every distinct criterion belongs to exactly one group"))
            .collect();
        (results, per_thread)
    }

    /// Answers one criterion group: memo hits peel off individually, the
    /// remaining members share a single multi-criterion saturation whose
    /// result is projected per member. A group that shrinks to one pending
    /// member falls back to the solo pipeline.
    ///
    /// The memo is only *read* here (the batch adopts answers — and
    /// installs entries — afterwards, in input order), so group results are
    /// independent of worker scheduling.
    fn answer_group(
        &self,
        dir: Direction,
        criteria: &[Criterion],
        members: &[usize],
        scratch: &mut QueryScratch,
        store: &Arc<VariantStore>,
    ) -> Vec<(usize, Result<Answer, SpecError>)> {
        let mut out = Vec::with_capacity(members.len());
        let mut pending: Vec<(usize, Option<MemoKey>, Instant, PAutomaton)> = Vec::new();
        for &i in members {
            let criterion = &criteria[i];
            let start = Instant::now();
            let key = if self.config.memoize {
                memo_key(dir, criterion)
            } else {
                None
            };
            if let Some(k) = &key {
                if let Some(answer) = self.answer_from_memo(k, start) {
                    out.push((i, Ok(answer)));
                    continue;
                }
            }
            match self.query(criterion) {
                Ok(query) => pending.push((i, key, start, query)),
                Err(e) => out.push((i, Err(e))),
            }
        }
        match pending.len() {
            0 => return out,
            1 => {
                // A lone pending member gains nothing from the union
                // machinery; run the reference pipeline.
                let (i, key, start, query) = pending.pop().expect("len checked");
                let result = run_query_in(
                    dir,
                    &self.sdg,
                    &self.enc,
                    &query,
                    self.config.validate,
                    scratch,
                    store,
                )
                .map(|(slice, mut stats)| {
                    stats.query_time = start.elapsed();
                    if key.is_some() {
                        set_memo_counters(&mut stats, dir, false);
                    }
                    Answer {
                        slice,
                        stats,
                        key,
                        from_memo: false,
                    }
                });
                out.push((i, result));
                return out;
            }
            _ => {}
        }

        let group_width = pending.len();
        let sat_start = Instant::now();
        let queries: Vec<&PAutomaton> = pending.iter().map(|(_, _, _, q)| q).collect();
        let multi = match saturate_multi_indexed_with_stats(
            dir,
            &self.enc.index,
            &queries,
            &mut scratch.sat,
        ) {
            Ok(multi) => multi,
            Err(e) => {
                // A malformed union (engine invariant) fails the whole
                // group; per-member query construction errors were
                // already peeled off above.
                let e = SpecError::pds(dir_stage(dir), e);
                out.extend(pending.into_iter().map(|(i, ..)| (i, Err(e.clone()))));
                return out;
            }
        };
        // Each member's `A1` is a view of the saturated union, never a copy:
        // one masked CSR per group, in `PAutomaton::to_nfa`'s presentation
        // (state `s` → NFA state `s + 1`, MAIN_CONTROL's row duplicated onto
        // the initial state 0), and per member a reach ∧ co-reach pass over
        // the edges carrying its bit — exactly the states and edges
        // `Nfa::trimmed` keeps of its solo `A1`. Forward (`post*`) output
        // carries ε-transitions out of the pop rules' intermediate controls;
        // they are masked like any labeled transition and closed in place by
        // the MRD subset construction.
        let csr = multi.transposed(MAIN_CONTROL);
        for (slot, (i, key, _, _)) in pending.iter().enumerate() {
            let member_start = Instant::now();
            let Tail {
                a6,
                mrd,
                a1_transitions,
            } = mrd_tail(&multi.member_view(&csr, MAIN_CONTROL, slot));
            let result = readout::read_out_in(
                &self.sdg,
                &self.enc,
                &a6,
                self.config.validate,
                dir.into(),
                &mut scratch.readout,
                store,
            )
            .map(|slice| {
                // The group's shared saturation is attributed to its first
                // pending member (deterministic at every thread count); the
                // others report zero saturation work.
                let first = slot == 0;
                let mut stats = PipelineStats {
                    pds_rules: self.enc.pds.rule_count(),
                    prestar_transitions: if first { multi.stats.transitions } else { 0 },
                    prestar_peak_bytes: if first { multi.stats.peak_bytes } else { 0 },
                    prestar_rule_applications: if first {
                        multi.stats.rule_applications
                    } else {
                        0
                    },
                    prestar_peak_worklist: if first { multi.stats.peak_worklist } else { 0 },
                    a1_states: mrd.input_states,
                    a1_transitions,
                    mrd,
                    saturations_run: if first { 1 } else { 0 },
                    criteria_per_saturation: if first { group_width } else { 0 },
                    query_time: if first {
                        sat_start.elapsed()
                    } else {
                        member_start.elapsed()
                    },
                    ..PipelineStats::default()
                };
                if key.is_some() {
                    set_memo_counters(&mut stats, dir, false);
                }
                Answer {
                    slice,
                    stats,
                    key: key.clone(),
                    from_memo: false,
                }
            });
            out.push((*i, result));
        }
        out
    }

    /// Slices every criterion in `criteria`, sharing the per-program work
    /// (encoding, reachable automaton) across the whole batch and fanning
    /// the criteria out over [`SlicerConfig::num_threads`] worker threads.
    ///
    /// Results come back in input order, one [`SpecSlice`] per criterion —
    /// element `i` is identical to what `slice(&criteria[i])` returns, at
    /// every thread count. On failure the *lowest-indexed* failing criterion
    /// is reported (identified by index in the message), so errors are
    /// deterministic too: a sequential batch stops at the first failure,
    /// while a parallel batch answers everything in flight and then reports
    /// the same lowest-indexed error. Use
    /// [`slice_batch_results`](Slicer::slice_batch_results) to keep the
    /// other criteria's answers when a batch may contain bad criteria.
    ///
    /// ```
    /// use specslice::{Criterion, Slicer, SlicerConfig};
    ///
    /// let slicer = Slicer::from_source_with(
    ///     r#"
    ///     int g1, g2;
    ///     void p(int a, int b) { g1 = a; g2 = b; }
    ///     int main() { p(1, 2); printf("%d", g1); printf("%d", g2); }
    ///     "#,
    ///     SlicerConfig {
    ///         num_threads: 2, // default: all available cores
    ///         ..SlicerConfig::default()
    ///     },
    /// )?;
    /// let criteria: Vec<Criterion> = slicer
    ///     .sdg()
    ///     .printf_actual_in_vertices()
    ///     .into_iter()
    ///     .map(Criterion::vertex)
    ///     .collect();
    /// let batch = slicer.slice_batch(&criteria)?;
    /// assert_eq!(batch.slices.len(), criteria.len());
    /// // Batch answers are identical to individual queries.
    /// for (criterion, slice) in criteria.iter().zip(&batch.slices) {
    ///     assert_eq!(slice.elems(), slicer.slice(criterion)?.elems());
    /// }
    /// # Ok::<(), specslice::SpecError>(())
    /// ```
    pub fn slice_batch(&self, criteria: &[Criterion]) -> Result<BatchResult, SpecError> {
        self.directed_batch(Direction::Backward, criteria)
    }

    /// [`slice_batch`](Slicer::slice_batch) in the forward direction: one
    /// [`forward_slice`](Slicer::forward_slice) per criterion, in input
    /// order, with the same solver/threading/memoization behavior (and the
    /// same byte-identical-at-every-width guarantee) as backward batches.
    pub fn forward_slice_batch(&self, criteria: &[Criterion]) -> Result<BatchResult, SpecError> {
        self.directed_batch(Direction::Forward, criteria)
    }

    /// The direction-generic batch path behind
    /// [`slice_batch`](Slicer::slice_batch),
    /// [`forward_slice_batch`](Slicer::forward_slice_batch), and
    /// `specialize_program_directed`.
    pub(crate) fn directed_batch(
        &self,
        dir: Direction,
        criteria: &[Criterion],
    ) -> Result<BatchResult, SpecError> {
        let (results, per_thread) = self.batch(dir, criteria, true)?;
        let mut slices = Vec::with_capacity(criteria.len());
        let mut per_criterion = Vec::new();
        let mut aggregate = PipelineStats::default();
        for result in results {
            let (slice, stats) = result?;
            slices.push(slice);
            aggregate.absorb(&stats);
            if self.config.collect_stats {
                per_criterion.push(stats);
            }
        }
        Ok(BatchResult {
            slices,
            per_criterion,
            aggregate,
            per_thread,
        })
    }

    /// The batch engine behind every batch method. It reduces `criteria`
    /// to its distinct criteria ([`Distinct`]), answers each of those once
    /// — under either solver, on the calling thread or across the pool —
    /// and expands the answers back to input order
    /// ([`expand`](Slicer::expand)).
    ///
    /// With `fail_fast`, the lowest-indexed failure is the returned error.
    /// A batch of at most one distinct criterion per worker runs on the
    /// calling thread and stops at the first failing criterion
    /// (per-criterion solver) or criterion *group* (one-pass solver). The
    /// parallel path answers everything already in flight but converges on
    /// the same lowest-indexed error, so the two paths are
    /// indistinguishable to the caller (modulo counters on error). Without
    /// `fail_fast`, every criterion gets its own result and the outer
    /// result is always `Ok`.
    fn batch(
        &self,
        dir: Direction,
        criteria: &[Criterion],
        fail_fast: bool,
    ) -> Result<(Expanded, Vec<WorkerStats>), SpecError> {
        let distinct = Distinct::of(dir, criteria);
        let sequential = self.config.num_threads.min(distinct.firsts.len()) <= 1;
        let (raw, per_thread) = match (fail_fast && sequential, self.config.solver) {
            (true, Solver::PerCriterion) => {
                self.batch_sequential(dir, criteria, &distinct.firsts)?
            }
            (true, Solver::OnePass) => self.batch_sequential_onepass(dir, criteria, &distinct)?,
            (false, _) => self.batch_raw(dir, criteria, &distinct),
        };
        Ok((self.expand(&distinct, raw, fail_fast)?, per_thread))
    }

    /// The sequential fail-fast body of [`batch`](Slicer::batch) under
    /// [`Solver::PerCriterion`]: one scratch, the distinct criteria (input
    /// indices `firsts`) in input order, stop at the first error.
    fn batch_sequential(
        &self,
        dir: Direction,
        criteria: &[Criterion],
        firsts: &[usize],
    ) -> Result<(RawBatch, Vec<WorkerStats>), SpecError> {
        let start = Instant::now();
        let mut scratch = self.take_scratch();
        let mut raw = Vec::with_capacity(firsts.len());
        for &i in firsts {
            let answer = self
                .answer_in(dir, &criteria[i], &mut scratch, &self.store)
                .map_err(|e| annotate_with_index(e, i))?;
            raw.push(Ok(answer));
        }
        self.put_scratch(scratch);
        Ok((raw, calling_thread(firsts.len(), start)))
    }

    /// The sequential fail-fast body of [`batch`](Slicer::batch) under
    /// [`Solver::OnePass`]: groups are processed in plan order with one
    /// scratch, stopping at the first group that contains a failure
    /// (group-granular fail-fast — members of the failing group's shared
    /// saturation are necessarily in flight together). Answers are adopted
    /// in input order afterwards, exactly as on the parallel path, so
    /// successful batches are byte-identical at every width.
    fn batch_sequential_onepass(
        &self,
        dir: Direction,
        criteria: &[Criterion],
        distinct: &Distinct,
    ) -> Result<(RawBatch, Vec<WorkerStats>), SpecError> {
        let start = Instant::now();
        let groups = plan_groups(&self.sdg, self.proc_regions(), criteria, &distinct.firsts);
        let mut scratch = self.take_scratch();
        let mut slots = distinct.empty_slots();
        for group in &groups {
            let shard = scratch.shard.clone();
            let results = self.answer_group(dir, criteria, group, &mut scratch, &shard);
            let failed = results.iter().any(|(_, r)| r.is_err());
            distinct.scatter(&mut slots, results);
            if failed {
                // Report the lowest-indexed failure answered so far.
                for (slot, &i) in slots.into_iter().zip(&distinct.firsts) {
                    if let Some(Err(e)) = slot {
                        return Err(annotate_with_index(e, i));
                    }
                }
                unreachable!("a failed group reported no error");
            }
        }
        self.put_scratch(scratch);
        let raw = slots
            .into_iter()
            .map(|slot| slot.expect("every distinct criterion belongs to exactly one group"))
            .collect();
        Ok((raw, calling_thread(distinct.firsts.len(), start)))
    }

    /// Expands the answers of a batch's distinct criteria (`raw`, aligned
    /// with `distinct.firsts`) back to input order, adopting them in that
    /// order. A first occurrence adopts its own answer; a repeat replays
    /// it ([`replay`](Slicer::replay)); a failed criterion fails every
    /// occurrence, each error naming its own index. With `fail_fast` the
    /// first failure — the lowest-indexed, always a first occurrence — is
    /// returned as the error, and nothing after it is adopted.
    fn expand(
        &self,
        distinct: &Distinct,
        raw: RawBatch,
        fail_fast: bool,
    ) -> Result<Expanded, SpecError> {
        let mut raw: Vec<Option<Result<Answer, SpecError>>> = raw.into_iter().map(Some).collect();
        // Per distinct criterion, once its first occurrence is adopted: the
        // memo key it was adopted under, or its (unannotated) error.
        let mut adopted: Vec<Option<Result<Option<MemoKey>, SpecError>>> =
            distinct.firsts.iter().map(|_| None).collect();
        let mut out: Expanded = Vec::with_capacity(distinct.slot.len());
        for (i, &s) in distinct.slot.iter().enumerate() {
            let result = match raw[s].take() {
                Some(result) => {
                    adopted[s] = Some(result.as_ref().map(|a| a.key.clone()).map_err(Clone::clone));
                    result.map(|answer| self.adopt(answer))
                }
                None => match &adopted[s] {
                    Some(Ok(key)) => {
                        let Ok(first) = &out[distinct.firsts[s]] else {
                            unreachable!("an adopted first occurrence succeeded");
                        };
                        Ok(self.replay(first, key.as_ref()))
                    }
                    Some(Err(e)) => Err(e.clone()),
                    None => unreachable!("a first occurrence precedes its repeats"),
                },
            };
            match result.map_err(|e| annotate_with_index(e, i)) {
                Err(e) if fail_fast => return Err(e),
                result => out.push(result),
            }
        }
        Ok(out)
    }

    /// Answers a repeat of an already adopted batch criterion. With the
    /// memo on, the first occurrence installed (or hit) an entry and the
    /// repeat is a memo hit, exactly as a repeated [`slice`](Slicer::slice)
    /// call would be; otherwise it clones the first occurrence's slice,
    /// with replayed stats ([`PipelineStats::replayed`]). Either way no
    /// pipeline stage runs and nothing is interned, at every thread count.
    fn replay(
        &self,
        first: &(SpecSlice, PipelineStats),
        key: Option<&MemoKey>,
    ) -> (SpecSlice, PipelineStats) {
        let start = Instant::now();
        if let Some(answer) = key.and_then(|k| self.answer_from_memo(k, start)) {
            return (answer.slice, answer.stats);
        }
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        let mut stats = first.1.replayed();
        stats.query_time = start.elapsed();
        (first.0.clone(), stats)
    }

    /// [`slice_batch`](Slicer::slice_batch) without the fail-fast contract:
    /// every criterion is answered and returned individually, so one
    /// malformed criterion does not poison the rest of the batch. Results
    /// are in input order; errors identify their criterion by index.
    pub fn slice_batch_results(&self, criteria: &[Criterion]) -> Vec<Result<SpecSlice, SpecError>> {
        let Ok((results, _)) = self.batch(Direction::Backward, criteria, false) else {
            unreachable!("only a fail-fast batch fails as a whole");
        };
        results
            .into_iter()
            .map(|result| result.map(|(slice, _)| slice))
            .collect()
    }

    /// Computes the **chop** from `source` to `target`: the configurations
    /// that both lie forward of `source` and backward of `target` —
    /// `forward_slice(source) ∩ slice(target)`, intersected on the two
    /// queries' canonical MRD automata and re-canonicalized, so the result
    /// is byte-identical to computing the two slices independently and
    /// intersecting them (at every thread count and under both solvers).
    ///
    /// The two constituent queries go through the session memo (a repeated
    /// chop endpoint is a cache hit); the intersection itself is cheap and
    /// is not memoized. See [`QueryKind::Chop`] for what a chop does *not*
    /// guarantee: it is a variant/vertex report, not an executable slice.
    pub fn chop(&self, source: &Criterion, target: &Criterion) -> Result<SpecSlice, SpecError> {
        self.chop_with_stats(source, target).map(|(s, _)| s)
    }

    /// [`chop`](Slicer::chop) plus the aggregate pipeline statistics of the
    /// two constituent queries (the `mrd` sizes describe the chop's own
    /// re-canonicalized automaton).
    pub fn chop_with_stats(
        &self,
        source: &Criterion,
        target: &Criterion,
    ) -> Result<(SpecSlice, PipelineStats), SpecError> {
        let start = Instant::now();
        let (fwd, fwd_stats) = self.forward_slice_with_stats(source)?;
        let (bwd, bwd_stats) = self.slice_with_stats(target)?;
        let inter = specslice_fsa::ops::intersect(&fwd.a6, &bwd.a6);
        let (a6, mrd_stats) = mrd_of_trimmed(&inter);
        let mut scratch = self.take_scratch();
        let slice = readout::read_out_in(
            &self.sdg,
            &self.enc,
            &a6,
            self.config.validate,
            QueryKind::Chop,
            &mut scratch.readout,
            &self.store,
        );
        self.put_scratch(scratch);
        let slice = slice?;
        let mut stats = fwd_stats;
        stats.absorb(&bwd_stats);
        // The constituent queries' MRD sizes are summed above; the chop's
        // own canonical automaton is what `mrd` should describe.
        stats.mrd = mrd_stats;
        stats.query_time = start.elapsed();
        Ok((slice, stats))
    }

    /// Removes the feature identified by the forward stack-configuration
    /// slice from `criterion` (Alg. 2 / §7), reusing the cached encoding
    /// *and* the cached reachable automaton (which Alg. 2 always needs).
    pub fn remove_feature(&self, criterion: &Criterion) -> Result<SpecSlice, SpecError> {
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        feature_removal::remove_feature_reusing(
            &self.sdg,
            &self.enc,
            self.reachable()?,
            criterion,
            &self.store,
        )
    }

    /// Regenerates executable MiniC source for a slice of this session's
    /// program.
    ///
    /// # Errors
    ///
    /// [`SpecError::Internal`] when the session was built with
    /// [`from_sdg`](Slicer::from_sdg) (no program to regenerate from), or
    /// when the slice violates regeneration invariants (a bug).
    pub fn regenerate(&self, slice: &SpecSlice) -> Result<RegenOutput, SpecError> {
        let program = self.program.as_ref().ok_or_else(|| {
            SpecError::internal(
                "regen",
                "session was built from an SDG only; use Slicer::from_source / \
                 from_program to enable source regeneration",
            )
        })?;
        regen::regenerate(&self.sdg, program, slice)
    }

    /// Runs the §8.3 reslicing self-check for a completed slice of this
    /// session, reusing the session's encoding for the original program.
    pub fn reslice_check(
        &self,
        criterion: &Criterion,
        slice: &SpecSlice,
        regen: &RegenOutput,
    ) -> Result<ResliceReport, SpecError> {
        reslice::reslice_check_reusing(&self.sdg, &self.enc, criterion, slice, regen)
    }
}

/// Plans the one-pass solver's criterion groups: a partition of `members`
/// (ascending input indices into `criteria` — a batch's distinct criteria)
/// where each group shares one saturation.
///
/// Criteria are grouped by the sorted set of call-graph *regions* (SCC
/// condensation components, see [`Slicer::proc_regions`]) owning their
/// vertices — criteria rooted in the same mutual-recursion cluster
/// saturate near-identical state, which is exactly the redundancy the
/// shared saturation eliminates; unrelated criteria would only bloat each
/// other's union automaton. Raw-automaton criteria and criteria naming an
/// out-of-range vertex (rejected later, during query construction) get
/// singleton groups. Members stay in input order and groups wider than
/// [`CriterionSet::MAX_MEMBERS`] roll over into fresh groups of the same
/// shard. The returned plan is ordered shard-contiguously (shards in first
/// appearance order, a shard's rollover chain adjacent within it) so the
/// pool's contiguous deal lands same-region groups on the same worker —
/// warm rows for the region's saturation state — instead of interleaving
/// them across the pool. The plan is a pure function of the criterion list
/// and the session's SDG; results are scattered back to input order, so
/// batch output stays thread-count-independent.
fn plan_groups(
    sdg: &Sdg,
    regions: &[u32],
    criteria: &[Criterion],
    members: &[usize],
) -> Vec<Vec<usize>> {
    let vertex_bound = sdg.vertex_count() as u32;
    let region_key = |verts: &mut dyn Iterator<Item = u32>| -> Option<Vec<u32>> {
        let mut key = Vec::new();
        for v in verts {
            if v >= vertex_bound {
                return None;
            }
            key.push(regions[sdg.vertex(VertexId(v)).proc.0 as usize]);
        }
        key.sort_unstable();
        key.dedup();
        Some(key)
    };
    // Each group carries its shard id (one per distinct key, in first
    // appearance order; keyless singletons shard alone) until the final
    // shard-contiguous ordering below.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    // Key → (open group index, shard id).
    let mut open: HashMap<Vec<u32>, (usize, usize)> = HashMap::new();
    let mut shards = 0usize;
    for &i in members {
        let key = match &criteria[i] {
            Criterion::AllContexts(verts) => region_key(&mut verts.iter().map(|v| v.0)),
            Criterion::Configurations(configs) => region_key(&mut configs.iter().map(|(v, _)| v.0)),
            Criterion::Automaton(_) => None,
        };
        match key {
            None => {
                groups.push((shards, vec![i]));
                shards += 1;
            }
            Some(key) => match open.get_mut(&key) {
                Some(&mut (g, _)) if groups[g].1.len() < CriterionSet::MAX_MEMBERS => {
                    groups[g].1.push(i);
                }
                Some(entry) => {
                    // Mask rollover: a fresh group in the same shard.
                    entry.0 = groups.len();
                    let shard = entry.1;
                    groups.push((shard, vec![i]));
                }
                None => {
                    open.insert(key, (groups.len(), shards));
                    groups.push((shards, vec![i]));
                    shards += 1;
                }
            },
        }
    }
    groups.sort_by_key(|&(shard, _)| shard);
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Tags a failing batch member with its criterion index, for every error
/// variant a query can produce (so "errors identify their criterion by
/// index" holds for internal invariant violations too, where knowing the
/// triggering criterion is exactly what debugging needs).
fn annotate_with_index(e: SpecError, i: usize) -> SpecError {
    match e {
        SpecError::Internal { context, message } => SpecError::Internal {
            context,
            message: format!("criterion #{i}: {message}"),
        },
        SpecError::BadCriterion { reason } => SpecError::BadCriterion {
            reason: format!("criterion #{i}: {reason}"),
        },
        other => other,
    }
}

/// Per-worker accounting of a batch answered on the calling thread.
fn calling_thread(items: usize, start: Instant) -> Vec<WorkerStats> {
    vec![WorkerStats {
        worker: 0,
        items,
        steals: 0,
        busy: start.elapsed(),
    }]
}

/// The engine-stage name errors are tagged with, per direction.
fn dir_stage(dir: Direction) -> &'static str {
    match dir {
        Direction::Backward => "prestar",
        Direction::Forward => "poststar",
    }
}

/// Sets the per-direction memo hit/miss counters on a query's stats (the
/// other direction's counters are zeroed — one query participates in
/// exactly one direction's cache).
fn set_memo_counters(stats: &mut PipelineStats, dir: Direction, hit: bool) {
    stats.memo_hits_backward = 0;
    stats.memo_misses_backward = 0;
    stats.memo_hits_forward = 0;
    stats.memo_misses_forward = 0;
    match (dir, hit) {
        (Direction::Backward, true) => stats.memo_hits_backward = 1,
        (Direction::Backward, false) => stats.memo_misses_backward = 1,
        (Direction::Forward, true) => stats.memo_hits_forward = 1,
        (Direction::Forward, false) => stats.memo_misses_forward = 1,
    }
}

/// What Alg. 1's `A1 → A6` step yields for one criterion.
#[derive(Clone, Debug)]
pub struct Tail {
    /// The MRD automaton `A6`.
    pub a6: Nfa,
    /// Its size statistics; `input_states` counts the trimmed `A1`.
    pub mrd: MrdStats,
    /// Transitions of the trimmed `A1` (ε included).
    pub a1_transitions: usize,
}

/// Alg. 1's `A1 → A6` step over a trimmed view of a saturated automaton
/// (one group member's, or a solo run's): the MRD pipeline reads the view
/// directly, so no per-criterion `A1` is ever materialized.
pub fn mrd_tail(a1: &TransposedView<'_>) -> Tail {
    let (a6, mrd) = mrd_transposed(a1);
    Tail {
        a6,
        mrd,
        a1_transitions: a1.transition_count(),
    }
}

/// [`mrd_tail`] of one solo saturation: the language `a1` accepts from the
/// main control, trimmed, to `A6`. Same result as
/// `mrd_with_stats(&a1.to_nfa(MAIN_CONTROL).trimmed().0)`, without building
/// either automaton.
pub fn saturated_tail(a1: &PAutomaton) -> Tail {
    let csr = a1.transposed(MAIN_CONTROL);
    mrd_tail(&csr.trimmed(ALL_MEMBERS, a1.nfa_finals(MAIN_CONTROL, a1.finals())))
}

/// The criterion-dependent tail of Alg. 1: saturation (`Prestar` backward,
/// `Poststar` forward) → MRD over the trimmed `A1` view → read-out. Shared
/// by the session methods and the one-shot [`crate::specialize`]. The
/// slice's content is interned into `store`.
pub(crate) fn run_query(
    dir: Direction,
    sdg: &Sdg,
    enc: &Encoded,
    query: &PAutomaton,
    validate: bool,
    store: &Arc<VariantStore>,
) -> Result<(SpecSlice, PipelineStats), SpecError> {
    // `query_time` stays zero here: its contract includes query-automaton
    // construction, which only `Slicer::answer_in` wraps (and both callers
    // of this function discard the stats anyway).
    run_query_in(
        dir,
        sdg,
        enc,
        query,
        validate,
        &mut QueryScratch::default(),
        store,
    )
}

/// [`run_query`] against caller-owned scratch buffers, so a batch worker's
/// hot loop reuses its saturation rows and read-out tables across criteria.
pub(crate) fn run_query_in(
    dir: Direction,
    sdg: &Sdg,
    enc: &Encoded,
    query: &PAutomaton,
    validate: bool,
    scratch: &mut QueryScratch,
    store: &Arc<VariantStore>,
) -> Result<(SpecSlice, PipelineStats), SpecError> {
    let (a1, satstats) = saturate_indexed_with_stats(dir, &enc.index, query, &mut scratch.sat)
        .map_err(|e| SpecError::pds(dir_stage(dir), e))?;
    let Tail {
        a6,
        mrd,
        a1_transitions,
    } = saturated_tail(&a1);
    let slice = readout::read_out_in(
        sdg,
        enc,
        &a6,
        validate,
        dir.into(),
        &mut scratch.readout,
        store,
    )?;
    let stats = PipelineStats {
        pds_rules: enc.pds.rule_count(),
        prestar_transitions: satstats.transitions,
        prestar_peak_bytes: satstats.peak_bytes,
        prestar_rule_applications: satstats.rule_applications,
        prestar_peak_worklist: satstats.peak_worklist,
        a1_states: mrd.input_states,
        a1_transitions,
        mrd,
        saturations_run: 1,
        criteria_per_saturation: 1,
        ..PipelineStats::default()
    };
    Ok((slice, stats))
}
