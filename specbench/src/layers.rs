//! Stage-by-stage replays through each layer's public functions.
//!
//! The end-to-end ops call whole-pipeline entry points (`Slicer::
//! from_source_with`, `slice_batch`, `specialize_program`). The traced run
//! replays the same inputs one stage at a time, each stage a span, so the
//! per-layer numbers come from the benchmark's own calls into the layers:
//!
//! * session setup: frontend → §6.2 lowering → SDG build → PDS encoding →
//!   reachable configurations ([`open_stages`]);
//! * a backward batch: query automata → one saturation per criterion
//!   group → trim → MRD → read-out ([`replay_batch`]). The one-pass
//!   solver's split of a group's union automaton into member automata has
//!   no public entry point; the replay re-does it in [`split_members`]
//!   under a span of its own that no per-layer metric reads, so that stage
//!   stays inside `core.batch_ms`. The replay only times stages: the
//!   reported counts are the program's own ([`batch_counts`]), and the
//!   replay's stage times are attributed to the program's batch only when
//!   the replay's counts equal them ([`count_mismatches`]);
//! * the output path: specialization, regeneration, VM compile and run,
//!   and the interpreter reference run ([`spec_run`]).

use crate::trace::Tracer;
use specslice::criteria::{query_automaton_reusing, reachable_configurations};
use specslice::encode::{encode_sdg, Encoded, MAIN_CONTROL};
use specslice::exec::{ExecBackend, ExecOutcome, ExecRequest, Interp, Module};
use specslice::{BatchResult, Criterion, Direction, Program, Sdg, Slicer};
use specslice_fsa::mrd::mrd_with_stats;
use specslice_fsa::{Nfa, StateId};
use specslice_graphs::{DiGraph, NodeId, Sccs};
use specslice_pds::saturate::MultiSaturation;
use specslice_pds::{
    saturate_indexed_with_stats, saturate_multi_indexed_with_stats, CriterionSet, PAutomaton,
    PState, SaturationScratch,
};
use specslice_sdg::CalleeKind;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Per-layer values keyed by metric name (sums until the workload
/// normalizes them).
#[derive(Clone, Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `v` to metric `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_insert(0.0) += v;
    }

    /// Sets metric `k` to `v`.
    pub fn set(&mut self, k: &'static str, v: f64) {
        self.0.insert(k, v);
    }

    /// Metric `k` (0 when never recorded).
    pub fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }
}

/// Everything a program's session caches, built stage by stage.
pub struct Opened {
    /// The (lowered) program's SDG.
    pub sdg: Sdg,
    /// Its PDS encoding.
    pub enc: Encoded,
    /// `post*` of main's entry, shared by all-contexts criteria.
    pub reachable: Nfa,
}

/// Opens `source` one stage at a time, each stage a span.
pub fn open_stages(t: &mut Tracer, source: &str, layers: &mut Layers) -> Result<Opened, String> {
    let program = t
        .span("lang.frontend_ms", |_| specslice_lang::frontend(source))
        .map_err(|e| format!("frontend: {e}"))?;
    let program = t
        .span("core.indirect_ms", |_| {
            specslice::indirect::lower_indirect_calls(&program)
        })
        .map_err(|e| format!("lowering: {e}"))?;
    let sdg = t
        .span("sdg.build_ms", |_| {
            specslice_sdg::build::build_sdg(&program)
        })
        .map_err(|e| format!("sdg: {e}"))?;
    let enc = t.span("core.encode_ms", |_| encode_sdg(&sdg));
    let reachable = t
        .span("core.reachable_ms", |_| {
            reachable_configurations(&sdg, &enc)
        })
        .map_err(|e| format!("reachable: {e}"))?;
    layers.add("sdg.vertices", sdg.vertex_count() as f64);
    layers.add("pds.rules", enc.pds.rule_count() as f64);
    Ok(Opened {
        sdg,
        enc,
        reachable,
    })
}

/// The all-contexts criterion of every `printf` call site, in site order.
pub fn printf_criteria(sdg: &Sdg) -> Vec<Criterion> {
    sdg.printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect()
}

/// The call-graph region (SCC of the condensation) of every procedure.
fn proc_regions(sdg: &Sdg) -> Vec<u32> {
    let mut g = DiGraph::with_nodes(sdg.procs.len());
    for site in &sdg.call_sites {
        if let CalleeKind::User(p) = site.callee {
            g.add_edge_unique(NodeId(site.caller.0), NodeId(p.0));
        }
    }
    let sccs = Sccs::compute(&g);
    (0..sdg.procs.len())
        .map(|i| sccs.component_of(NodeId(i as u32)) as u32)
        .collect()
}

/// The one-pass solver's criterion groups for a batch of all-contexts
/// criteria: criteria whose vertices lie in the same set of call-graph
/// regions share one saturation, at most [`CriterionSet::MAX_MEMBERS`]
/// wide, listed shard by shard. Mirrors the planner behind
/// `Slicer::slice_batch`; if the two ever disagree, the replay's counts
/// stop matching the program's and its stage times are reported as
/// unattributed.
pub fn plan_groups(sdg: &Sdg, criteria: &[Criterion]) -> Vec<Vec<usize>> {
    let regions = proc_regions(sdg);
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut open: HashMap<Vec<u32>, (usize, usize)> = HashMap::new();
    let mut shards = 0usize;
    for (i, c) in criteria.iter().enumerate() {
        let Criterion::AllContexts(verts) = c else {
            groups.push((shards, vec![i]));
            shards += 1;
            continue;
        };
        let mut key: Vec<u32> = verts
            .iter()
            .map(|&v| regions[sdg.vertex(v).proc.0 as usize])
            .collect();
        key.sort_unstable();
        key.dedup();
        match open.get_mut(&key) {
            Some(&mut (g, _)) if groups[g].1.len() < CriterionSet::MAX_MEMBERS => {
                groups[g].1.push(i);
            }
            Some(entry) => {
                entry.0 = groups.len();
                let shard = entry.1;
                groups.push((shard, vec![i]));
            }
            None => {
                open.insert(key, (groups.len(), shards));
                groups.push((shards, vec![i]));
                shards += 1;
            }
        }
    }
    groups.sort_by_key(|&(shard, _)| shard);
    groups.into_iter().map(|(_, m)| m).collect()
}

/// Splits a group's saturated union automaton into member `A1`s (state
/// `s` → NFA state `s + 1`, main's control row copied onto the fresh
/// initial state, member finals from the union).
fn split_members(multi: &MultiSaturation, width: usize) -> Vec<Nfa> {
    let n = multi.automaton.state_count();
    let pmain = multi.automaton.control_state(MAIN_CONTROL);
    let mut a1s: Vec<Nfa> = (0..width)
        .map(|_| {
            let mut a = Nfa::new();
            for _ in 0..n {
                a.add_state();
            }
            a
        })
        .collect();
    for (from, l, to) in multi.automaton.transitions() {
        for slot in multi.mask_label(from, l, to).members() {
            let a1 = &mut a1s[slot];
            a1.add_transition(StateId(from.0 + 1), l, StateId(to.0 + 1));
            if from == pmain {
                let init = a1.initial();
                a1.add_transition(init, l, StateId(to.0 + 1));
            }
        }
    }
    for (slot, a1) in a1s.iter_mut().enumerate() {
        for &f in &multi.member_finals[slot] {
            a1.set_final(multi.automaton.nfa_state_of(f));
        }
        if multi.member_finals[slot].contains(&PState(MAIN_CONTROL.0)) {
            let init = a1.initial();
            a1.set_final(init);
        }
    }
    a1s
}

/// Query-layer counts that [`replay_batch`] reproduces and that the
/// program reports itself for a backward batch.
pub const BATCH_COUNTS: [&str; 9] = [
    "pds.rule_applications",
    "pds.transitions",
    "pds.saturations",
    "pds.group_members",
    "fsa.a1_transitions",
    "fsa.det_states",
    "fsa.mrd_states",
    "core.slice_vertices",
    "core.variants",
];

/// The [`BATCH_COUNTS`] of a batch as the program reports them: its
/// aggregate pipeline stats and its slices. The benchmark's sessions run
/// with the memo off, so every criterion is a member of a computed
/// saturation (`pds.group_members`).
pub fn batch_counts(batch: &BatchResult) -> Layers {
    let a = &batch.aggregate;
    let mut l = Layers::default();
    l.add("pds.rule_applications", a.prestar_rule_applications as f64);
    l.add("pds.transitions", a.prestar_transitions as f64);
    l.add("pds.saturations", a.saturations_run as f64);
    l.add("pds.group_members", batch.slices.len() as f64);
    l.add("fsa.a1_transitions", a.a1_transitions as f64);
    l.add("fsa.det_states", a.mrd.determinized_states as f64);
    l.add("fsa.mrd_states", a.mrd.mrd_states as f64);
    for slice in &batch.slices {
        l.add("core.slice_vertices", slice.total_vertices() as f64);
        l.add("core.variants", slice.variant_count() as f64);
    }
    l
}

/// The [`BATCH_COUNTS`] on which a replay differs from the program,
/// rendered `name replay/program`; empty when the replay did the
/// program's work.
pub fn count_mismatches(replay: &Layers, program: &Layers) -> Vec<String> {
    BATCH_COUNTS
        .iter()
        .filter(|&&k| replay.get(k) != program.get(k))
        .map(|&k| format!("{k} {}/{}", replay.get(k), program.get(k)))
        .collect()
}

/// Trim → MRD → read-out for one member automaton.
fn member_tail(t: &mut Tracer, o: &Opened, a1: Nfa, layers: &mut Layers) -> Result<(), String> {
    let a1 = t.span("fsa.trim_ms", |_| a1.trimmed().0);
    layers.add("fsa.a1_transitions", a1.transition_count() as f64);
    let (a6, mrd) = t.span("fsa.mrd_ms", |_| mrd_with_stats(&a1));
    layers.add("fsa.det_states", mrd.determinized_states as f64);
    layers.add("fsa.mrd_states", mrd.mrd_states as f64);
    let slice = t
        .span("core.readout_ms", |_| {
            specslice::readout::read_out_with(&o.sdg, &o.enc, &a6, true)
        })
        .map_err(|e| format!("read-out: {e}"))?;
    layers.add("core.slice_vertices", slice.total_vertices() as f64);
    layers.add("core.variants", slice.variant_count() as f64);
    Ok(())
}

/// Replays one backward batch stage by stage and returns the replay's
/// [`BATCH_COUNTS`] (to compare with the program's).
pub fn replay_batch(
    t: &mut Tracer,
    o: &Opened,
    criteria: &[Criterion],
    scratch: &mut SaturationScratch,
) -> Result<Layers, String> {
    let mut counts = Layers::default();
    let queries = t
        .span("core.query_ms", |_| {
            criteria
                .iter()
                .map(|c| query_automaton_reusing(&o.sdg, &o.enc, Some(&o.reachable), c))
                .collect::<Result<Vec<PAutomaton>, _>>()
        })
        .map_err(|e| format!("query automaton: {e}"))?;
    for group in plan_groups(&o.sdg, criteria) {
        counts.add("pds.saturations", 1.0);
        counts.add("pds.group_members", group.len() as f64);
        if let [only] = group[..] {
            let (a1, stats) = t
                .span("pds.saturate_ms", |_| {
                    saturate_indexed_with_stats(
                        Direction::Backward,
                        &o.enc.index,
                        &queries[only],
                        scratch,
                    )
                })
                .map_err(|e| format!("saturate: {e}"))?;
            counts.add("pds.rule_applications", stats.rule_applications as f64);
            counts.add("pds.transitions", stats.transitions as f64);
            let a1 = t.span("fsa.trim_ms", |_| a1.to_nfa(MAIN_CONTROL));
            member_tail(t, o, a1, &mut counts)?;
        } else {
            let refs: Vec<&PAutomaton> = group.iter().map(|&i| &queries[i]).collect();
            let multi = t
                .span("pds.saturate_ms", |_| {
                    saturate_multi_indexed_with_stats(
                        Direction::Backward,
                        &o.enc.index,
                        &refs,
                        scratch,
                    )
                })
                .map_err(|e| format!("saturate: {e}"))?;
            counts.add(
                "pds.rule_applications",
                multi.stats.rule_applications as f64,
            );
            counts.add("pds.transitions", multi.stats.transitions as f64);
            let a1s = t.span("replay.split_ms", |_| split_members(&multi, group.len()));
            for a1 in a1s {
                member_tail(t, o, a1, &mut counts)?;
            }
        }
    }
    Ok(counts)
}

/// Worker-pool accounting of one batch: busy ratio Σbusy ÷ (workers ×
/// wall), idle time and steals.
pub fn pool_layers(batch: &BatchResult, wall_ms: f64, layers: &mut Layers) {
    let workers = batch.per_thread.len().max(1) as f64;
    let busy: f64 = batch
        .per_thread
        .iter()
        .map(|w| w.busy.as_secs_f64() * 1e3)
        .sum();
    layers.add("exec.busy_ms", busy);
    layers.add("exec.capacity_ms", workers * wall_ms);
    layers.add(
        "exec.steals",
        batch.per_thread.iter().map(|w| w.steals).sum::<usize>() as f64,
    );
    layers.add("exec.batches", 1.0);
}

/// Outcome of specializing one program at one criterion and running both
/// programs.
#[derive(Clone, Debug)]
pub struct SpecRun {
    /// Interpreter steps of the original program.
    pub orig_steps: u64,
    /// Interpreter steps of the specialized program.
    pub spec_steps: u64,
    /// The regenerated specialized source.
    pub source: String,
    /// VM instructions running the specialized program.
    pub vm_instructions: u64,
    /// The specialized program's VM outcome (fingerprinted by callers).
    pub outcome: ExecOutcome,
}

/// Runs `program` under the tree-walking interpreter — the independent
/// reference every specialized program is checked against.
pub fn reference_run(program: &Program, input: &[i64]) -> Result<ExecOutcome, String> {
    Interp
        .exec(
            &ExecRequest::new(program)
                .with_input(input)
                .with_fuel(ExecRequest::DEEP_FUEL),
        )
        .map_err(|e| format!("interpreter: {e}"))
}

/// The original's output restricted to the source lines the specialized
/// program prints from (regeneration keeps source lines).
fn criterion_stream(orig: &ExecOutcome, spec: &ExecOutcome) -> Vec<i64> {
    let lines: BTreeSet<u32> = spec.output_sites.iter().copied().collect();
    orig.output
        .iter()
        .zip(&orig.output_sites)
        .filter(|&(_, l)| lines.contains(l))
        .map(|(&v, _)| v)
        .collect()
}

/// Specializes `slicer`'s program at `criterion`, compiles and runs the
/// result on the VM, and checks its criterion output against the
/// interpreter run of the original (`orig`). Each stage is a span.
pub fn spec_run(
    t: &mut Tracer,
    slicer: &Slicer,
    criterion: &Criterion,
    orig: &ExecOutcome,
    input: &[i64],
    layers: &mut Layers,
) -> Result<SpecRun, String> {
    let sp = t
        .span("core.specialize_ms", |_| {
            slicer.specialize_program(std::slice::from_ref(criterion))
        })
        .map_err(|e| format!("specialize_program: {e}"))?;
    layers.add("core.merged_functions", sp.functions.len() as f64);
    let slice = sp
        .criterion_slices
        .first()
        .ok_or("specialize_program returned no criterion slice")?;
    t.span("core.regen_ms", |_| slicer.regenerate(slice))
        .map_err(|e| format!("regenerate: {e}"))?;
    let module = t
        .span("vm.compile_ms", |_| Module::compile(&sp.regen.program))
        .map_err(|e| format!("vm compile: {e}"))?;
    let (outcome, stats) = t.span("vm.run_ms", |_| {
        module.exec_with_stats(
            input,
            ExecRequest::DEEP_FUEL,
            ExecRequest::DEFAULT_RECURSION_LIMIT,
        )
    });
    let outcome = outcome.map_err(|e| format!("vm run: {e}"))?;
    let reference = t.span("interp.run_ms", |_| reference_run(&sp.regen.program, input))?;
    if reference != outcome {
        return Err("VM and interpreter disagree on the specialized program".into());
    }
    if outcome.output != criterion_stream(orig, &outcome) {
        return Err("specialized program's criterion output differs from the original's".into());
    }
    layers.add("vm.instructions", stats.instructions as f64);
    layers.add("interp.steps", outcome.steps as f64);
    Ok(SpecRun {
        orig_steps: orig.steps,
        spec_steps: outcome.steps,
        source: sp.source().to_string(),
        vm_instructions: stats.instructions,
        outcome,
    })
}
