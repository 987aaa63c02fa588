//! The direction-generic saturation core shared by [`crate::prestar`][mod@crate::prestar] and
//! [`crate::poststar`][mod@crate::poststar].
//!
//! Both engines are the same worklist algorithm — seed a transition
//! relation, fire PDS rules against transitions out of control states until
//! nothing new appears — differing only in which side of a rule they match
//! and whether saturation may add states (`post*` adds one Phase-I state
//! per distinct push-rule target pair and creates ε-transitions via pop
//! rules; `pre*` does neither). This module holds the one implementation of
//! each [`Direction`], the shared validation and union-building steps, and
//! the multi-criterion bitset machinery, so the two public modules are thin
//! direction-pinning wrappers and cannot diverge.
//!
//! Labels are stored encoded as `u32`: `0` is ε, a stack symbol `γ` is
//! `γ + 1`. The backward engines never produce label `0`.

use crate::automaton::{PAutomaton, PState};
use crate::index::RuleIndex;
use crate::scratch::{CriterionSet, SaturationScratch};
use crate::system::{ControlLoc, Rhs};
use crate::PdsError;
use specslice_fsa::{FxHashMap, Symbol, Transposed, TransposedView};
use std::fmt;
use std::sync::OnceLock;

/// Which reachability closure a saturation computes.
///
/// [`Direction::Backward`] is `pre*` (Defn. 3.6): the configurations that
/// can *reach* the query set — backward slicing. [`Direction::Forward`] is
/// `post*` (Defn. 3.7): the configurations *reachable from* the query set —
/// forward slicing. Everything downstream of saturation (the automaton
/// chain, read-out, memoization, the wire protocol) is parameterized by
/// this enum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// `pre*`: backward reachability (backward slicing).
    #[default]
    Backward,
    /// `post*`: forward reachability (forward slicing).
    Forward,
}

impl Direction {
    /// Stable lowercase name, used in wire payloads and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Backward => "backward",
            Direction::Forward => "forward",
        }
    }

    /// Parses [`Direction::as_str`]'s output back.
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "backward" => Some(Direction::Backward),
            "forward" => Some(Direction::Forward),
            _ => None,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Statistics from one saturation run, either direction. Sizes feed the
/// Fig. 22 memory accounting; the counters feed the query benchmark's
/// deterministic drift gate.
#[derive(Clone, Copy, Debug, Default)]
pub struct SaturationStats {
    /// Transitions in the saturated automaton (including ε for `post*`).
    pub transitions: usize,
    /// Transitions of the input query automaton (summed over members for a
    /// multi-criterion run).
    pub query_transitions: usize,
    /// States added in Phase I — always 0 for `pre*`, one per distinct
    /// push-rule target pair for `post*`.
    pub phase1_states: usize,
    /// Approximate peak bytes retained by the saturation data structures.
    pub peak_bytes: usize,
    /// Saturation firings: every time a PDS rule (or ε-combination) matched
    /// transitions and produced a candidate, counting duplicates. A pure
    /// function of the PDS + query for a given engine build — identical on
    /// every machine and at every thread count, which is what lets the
    /// query benchmark gate on it.
    pub rule_applications: usize,
    /// Deepest the worklist ever got (measured at the top of each
    /// iteration).
    pub peak_worklist: usize,
}

/// Validates the standard P-automaton preconditions for one query.
///
/// Both directions require control-state coverage and ε-freedom; `post*`
/// additionally requires control states to be pure sources (Schwoon 2002).
/// The check order (missing controls, then ε, then into-control) mirrors
/// the historical assertion order so diagnostics stay stable.
fn validate_query(idx: &RuleIndex, query: &PAutomaton, dir: Direction) -> Result<(), PdsError> {
    if query.control_count() < idx.control_count() {
        return Err(PdsError::MissingControls {
            query: query.control_count(),
            pds: idx.control_count(),
        });
    }
    let epsilon_count = query.transitions().filter(|(_, l, _)| l.is_none()).count();
    if epsilon_count > 0 {
        return Err(PdsError::EpsilonInQuery {
            count: epsilon_count,
        });
    }
    if dir == Direction::Forward {
        let into_control = query
            .transitions()
            .filter(|&(_, _, t)| query.is_control_state(t))
            .count();
        if into_control > 0 {
            return Err(PdsError::TransitionIntoControl {
                count: into_control,
            });
        }
    }
    Ok(())
}

/// Computes the saturation of `query` in `dir` against a prebuilt rule
/// index and caller-owned scratch — the session hot path behind
/// [`crate::prestar::prestar_indexed_with_stats`] and
/// [`crate::poststar::poststar_indexed_with_stats`].
pub fn saturate_indexed_with_stats(
    dir: Direction,
    idx: &RuleIndex,
    query: &PAutomaton,
    scratch: &mut SaturationScratch,
) -> Result<(PAutomaton, SaturationStats), PdsError> {
    validate_query(idx, query, dir)?;
    match dir {
        Direction::Backward => Ok(backward_solo(idx, query, scratch)),
        Direction::Forward => Ok(forward_solo(idx, query, scratch)),
    }
}

/// The `pre*` worklist engine (Esparza et al. 2000) on a validated query.
fn backward_solo(
    idx: &RuleIndex,
    query: &PAutomaton,
    scratch: &mut SaturationScratch,
) -> (PAutomaton, SaturationStats) {
    let n_states = query.state_count() as u32;
    scratch.reset(n_states);
    let SaturationScratch {
        rows,
        out,
        worklist,
        pending,
        tmp,
        tmp_pairs,
        ..
    } = scratch;

    // A transition enters the worklist exactly once: when its target first
    // enters its `(state, symbol)` row.
    fn add(
        rows: &mut crate::scratch::RowTable,
        out: &mut crate::arena::BumpLists<(u32, u32)>,
        worklist: &mut Vec<(u32, u32, u32)>,
        from: u32,
        sym: Symbol,
        to: u32,
    ) {
        debug_assert!(sym.0 < u32::MAX, "symbol id overflows the ε encoding");
        let label = sym.0 + 1;
        if rows.insert(from, label, to) {
            out.push(from, (label, to));
            worklist.push((from, label, to));
        }
    }

    // Seeds: the query's transitions, then the pop rules (which fire
    // unconditionally: ⟨p, γ⟩ ↪ ⟨p', ε⟩ gives p –γ→ p').
    for (f, l, t) in query.transitions() {
        let sym = l.expect("ε-freedom checked above");
        add(rows, out, worklist, f.0, sym, t.0);
    }
    let mut rule_applications = idx.pops().len();
    for &(p, gamma, p2) in idx.pops() {
        add(rows, out, worklist, p.0, gamma, p2.0);
    }

    let n_controls = idx.control_count();
    let mut peak_worklist = 0usize;
    while let Some((f, label, t)) = {
        peak_worklist = peak_worklist.max(worklist.len());
        worklist.pop()
    } {
        let sym = Symbol(label - 1);
        // Rules match transitions out of control states only — states
        // `0..n_controls` coincide with control locations, so one compare
        // skips the rule tables entirely for interior states.
        if f < n_controls {
            // Internal rules ⟨p,γ⟩ ↪ ⟨p',γ'⟩ with (p', γ') = (f, sym):
            for m in idx.internal_by_rhs(sym) {
                if m.to_loc.0 != f {
                    continue;
                }
                rule_applications += 1;
                add(rows, out, worklist, m.from_loc.0, m.from_sym, t);
            }
            // Push rules ⟨p,γ⟩ ↪ ⟨p',γ'γ''⟩ with (p', γ') = (f, sym): we
            // have the first hop p' –γ'→ t; need t –γ''→ q2 (now or later).
            for m in idx.push_by_rhs(sym) {
                if m.to_loc.0 != f {
                    continue;
                }
                debug_assert!(m.below.0 < u32::MAX);
                let below = m.below.0 + 1;
                tmp.clear();
                tmp.extend_from_slice(rows.targets(t, below));
                for &q2 in tmp.iter() {
                    rule_applications += 1;
                    add(rows, out, worklist, m.from_loc.0, m.from_sym, q2);
                }
                pending.push(t, below, (m.from_loc.0, m.from_sym.0));
            }
        }
        // Complete earlier partial matches waiting on (f, sym).
        tmp_pairs.clear();
        tmp_pairs.extend_from_slice(pending.waiters(f, label));
        for &(p, gamma) in tmp_pairs.iter() {
            rule_applications += 1;
            add(rows, out, worklist, p, Symbol(gamma), t);
        }
    }

    // Materialize the saturated automaton: the query plus every inferred
    // transition, in deterministic (state-major, insertion) order.
    let mut aut = query.clone();
    for state in 0..out.n_lists() as u32 {
        for (label, to) in out.iter(state) {
            aut.add_transition(PState(state), Some(Symbol(label - 1)), PState(to));
        }
    }

    // The structures only grow during saturation, so the peak is the final
    // footprint plus the deepest worklist.
    let transitions = aut.transition_count();
    let stats = SaturationStats {
        transitions,
        query_transitions: query.transition_count(),
        phase1_states: 0,
        peak_bytes: transitions * 36
            + rows.len() * 48
            + pending.len() * 48
            + peak_worklist * std::mem::size_of::<(u32, u32, u32)>(),
        rule_applications,
        peak_worklist,
    };
    (aut, stats)
}

/// The `post*` worklist engine (Schwoon 2002, Alg. 2) on a validated query.
fn forward_solo(
    idx: &RuleIndex,
    query: &PAutomaton,
    scratch: &mut SaturationScratch,
) -> (PAutomaton, SaturationStats) {
    // Phase I: one fresh state per distinct (p', γ') push-rule target pair,
    // numbered densely after the query's states (the numbering lives in the
    // rule index, so Phase II looks pairs up without hashing).
    let n_query_states = query.state_count() as u32;
    let phase1_states = idx.push_pairs().len();
    let n_states = n_query_states + phase1_states as u32;
    scratch.reset(n_states);
    let SaturationScratch {
        rows,
        out,
        worklist,
        eps_into,
        tmp_pairs,
        ..
    } = scratch;

    fn add(
        rows: &mut crate::scratch::RowTable,
        out: &mut crate::arena::BumpLists<(u32, u32)>,
        worklist: &mut Vec<(u32, u32, u32)>,
        from: u32,
        label: u32,
        to: u32,
    ) {
        if rows.insert(from, label, to) {
            out.push(from, (label, to));
            worklist.push((from, label, to));
        }
    }
    let enc = |sym: Symbol| {
        debug_assert!(sym.0 < u32::MAX, "symbol id overflows the ε encoding");
        sym.0 + 1
    };

    for (f, l, t) in query.transitions() {
        let sym = l.expect("ε-freedom checked above");
        add(rows, out, worklist, f.0, enc(sym), t.0);
    }

    let n_controls = idx.control_count();
    let mut rule_applications = 0usize;
    let mut peak_worklist = 0usize;
    while let Some((f, label, t)) = {
        peak_worklist = peak_worklist.max(worklist.len());
        worklist.pop()
    } {
        if label != 0 {
            let sym = Symbol(label - 1);
            // Rules fire on transitions out of control states.
            if f < n_controls {
                for r in idx.rules_for_lhs(sym) {
                    if r.from_loc.0 != f {
                        continue;
                    }
                    rule_applications += 1;
                    match r.rhs {
                        Rhs::Pop => add(rows, out, worklist, r.to_loc.0, 0, t),
                        Rhs::Internal(g2) => add(rows, out, worklist, r.to_loc.0, enc(g2), t),
                        Rhs::Push(g1, g2) => {
                            let mid = n_query_states + r.push_pair;
                            add(rows, out, worklist, r.to_loc.0, enc(g1), mid);
                            add(rows, out, worklist, mid, enc(g2), t);
                        }
                    }
                }
            }
            // ε-combination: q' –ε→ f plus f –sym→ t gives q' –sym→ t.
            // `add` never touches `eps_into`, so the row is iterated in
            // place (unlike the ε-branch below, which snapshots `out[t]`
            // because `add` appends to `out`).
            for q2 in eps_into.iter(f) {
                rule_applications += 1;
                add(rows, out, worklist, q2, label, t);
            }
        } else {
            // f –ε→ t: combine with all labeled t –sym→ u.
            eps_into.push(t, f);
            tmp_pairs.clear();
            tmp_pairs.extend(out.iter(t).filter(|&(l2, _)| l2 != 0));
            for &(l2, u) in tmp_pairs.iter() {
                rule_applications += 1;
                add(rows, out, worklist, f, l2, u);
            }
        }
    }

    // Materialize: the query, the Phase-I states, then every inferred
    // transition in deterministic (state-major, insertion) order.
    let mut aut = query.clone();
    for _ in 0..phase1_states {
        aut.add_state();
    }
    for state in 0..out.n_lists() as u32 {
        for (label, to) in out.iter(state) {
            let l = if label == 0 {
                None
            } else {
                Some(Symbol(label - 1))
            };
            aut.add_transition(PState(state), l, PState(to));
        }
    }

    let transitions = aut.transition_count();
    let stats = SaturationStats {
        transitions,
        query_transitions: query.transition_count(),
        phase1_states,
        peak_bytes: transitions * 36
            + rows.len() * 48
            + eps_into.live_bytes()
            + peak_worklist * std::mem::size_of::<(u32, u32, u32)>(),
        rule_applications,
        peak_worklist,
    };
    (aut, stats)
}

/// The result of one multi-criterion saturation
/// ([`saturate_multi_indexed_with_stats`]): the saturation of the *union*
/// of the member queries, with every transition labeled by the set of
/// members whose solo saturation would have derived it.
#[derive(Debug)]
pub struct MultiSaturation {
    /// The saturated union automaton. Its states are the shared control
    /// states, each member's fresh states in member order, then (forward
    /// only) the shared Phase-I states.
    pub automaton: PAutomaton,
    /// Member `i`'s final states, remapped into the union state space.
    pub member_finals: Vec<Vec<PState>>,
    /// Per-transition criterion masks, aligned with the automaton's rows:
    /// `masks[k]` belongs to its `k`-th transition in state-major order.
    masks: Vec<u64>,
    /// Where each transition `(from, encoded label, to)` sits in `masks`,
    /// for [`MultiSaturation::mask_label`]; built on first use, since the
    /// query path reads the column row by row and never looks one up.
    column_index: OnceLock<FxHashMap<(u32, u32, u32), u32>>,
    /// Statistics of the single shared saturation.
    pub stats: SaturationStats,
}

impl MultiSaturation {
    /// The members whose solo saturation contains `from –sym→ to`.
    pub fn mask(&self, from: PState, sym: Symbol, to: PState) -> CriterionSet {
        self.mask_label(from, Some(sym), to)
    }

    /// [`MultiSaturation::mask`], accepting ε (`post*` outputs carry
    /// ε-transitions).
    pub fn mask_label(&self, from: PState, label: Option<Symbol>, to: PState) -> CriterionSet {
        let index = self.column_index.get_or_init(|| {
            let mut index = FxHashMap::default();
            index.reserve(self.masks.len());
            for (k, (from, l, to)) in self.automaton.transitions().enumerate() {
                index.insert((from.0, encode_label(l), to.0), k as u32);
            }
            index
        });
        let at = index.get(&(from.0, encode_label(label), to.0));
        CriterionSet(at.map_or(0, |&k| self.masks[k as usize]))
    }

    /// The saturated union as `to_nfa(p)` would present it, in CSR form,
    /// every edge masked with its members — built once per group, so each
    /// member's `A1` is a view ([`MultiSaturation::member_view`]) rather
    /// than a copy.
    pub fn transposed(&self, p: ControlLoc) -> Transposed {
        self.automaton.transposed_with(p, |k| self.masks[k])
    }

    /// Member `slot`'s `A1` inside `csr` (this saturation's
    /// [`MultiSaturation::transposed`] from `p`): the edges carrying its
    /// bit, with its finals accepting, trimmed — the states and edges
    /// `to_nfa(p)` of its solo saturation would keep after
    /// `Nfa::trimmed`.
    pub fn member_view<'a>(
        &self,
        csr: &'a Transposed,
        p: ControlLoc,
        slot: usize,
    ) -> TransposedView<'a> {
        let finals = self.automaton.nfa_finals(p, &self.member_finals[slot]);
        csr.trimmed(CriterionSet::singleton(slot).0, finals)
    }
}

/// The `u32` label encoding of the saturation tables: `0` is ε, a symbol
/// `γ` is `γ + 1`.
fn encode_label(label: Option<Symbol>) -> u32 {
    label.map_or(0, |s| s.0 + 1)
}

/// One-pass saturation for up to [`CriterionSet::MAX_MEMBERS`] criterion
/// queries over the same PDS, in either direction.
///
/// Builds the union of the member query automata (control states shared,
/// fresh states disjoint) and runs a single bitset-labeled saturation over
/// it: member `i`'s query transitions seed with mask `{i}`, unconditional
/// derivations (backward pop-rule seeds) carry the full mask, single-premise
/// derivations propagate their premise's mask, and two-premise derivations
/// (backward push completions, forward ε-combinations) intersect the masks
/// of their premises — derivations whose intersection is empty are dropped.
/// Masks OR-accumulate; a transition re-enters the worklist whenever its
/// mask grows, so the run reaches the least fixpoint of the labeled system.
///
/// Because member queries never share fresh states and their transitions
/// all leave control states (never enter them), a transition carries bit
/// `i` **iff** it appears in member `i`'s solo saturation — so projecting
/// the result through [`MultiSaturation::mask_label`] reproduces each solo
/// run exactly, at the cost of ~one saturation for the whole batch.
///
/// # Errors
///
/// [`PdsError::BadBatchWidth`] for empty or >64-member batches, plus the
/// per-member preconditions of the solo engines.
pub fn saturate_multi_indexed_with_stats(
    dir: Direction,
    idx: &RuleIndex,
    queries: &[&PAutomaton],
    scratch: &mut SaturationScratch,
) -> Result<MultiSaturation, PdsError> {
    let k = queries.len();
    if k == 0 || k > CriterionSet::MAX_MEMBERS {
        return Err(PdsError::BadBatchWidth { members: k });
    }
    let mut query_transitions = 0usize;
    for query in queries {
        validate_query(idx, query, dir)?;
        query_transitions += query.transition_count();
    }

    // The union state space: shared control states, then each member's
    // fresh states in member order. `offsets[i] + (s - controls_i)` maps
    // member i's fresh state s into the union.
    let n_controls = idx.control_count();
    let mut union = PAutomaton::new(n_controls);
    let mut offsets = Vec::with_capacity(k);
    let mut member_finals = Vec::with_capacity(k);
    for query in queries {
        let controls = query.control_count();
        let offset = union.state_count() as u32;
        offsets.push(offset);
        for _ in controls..query.state_count() as u32 {
            union.add_state();
        }
        let remap = |s: PState| {
            if s.0 < n_controls {
                s
            } else {
                PState(offset + (s.0 - controls))
            }
        };
        member_finals.push(query.finals().iter().map(|&f| remap(f)).collect::<Vec<_>>());
    }

    match dir {
        Direction::Backward => Ok(backward_multi(
            idx,
            queries,
            union,
            offsets,
            member_finals,
            query_transitions,
            scratch,
        )),
        Direction::Forward => Ok(forward_multi(
            idx,
            queries,
            union,
            offsets,
            member_finals,
            query_transitions,
            scratch,
        )),
    }
}

/// Adds a masked transition (encoded label): the row/adjacency update plus
/// the mask OR; re-queues on mask growth, which is what propagates
/// late-arriving membership through already-fired rules.
fn add_masked(
    rows: &mut crate::scratch::RowTable,
    out: &mut crate::arena::BumpLists<(u32, u32)>,
    worklist: &mut Vec<(u32, u32, u32)>,
    masks: &mut crate::scratch::MaskTable,
    (from, label, to): (u32, u32, u32),
    mask: u64,
) {
    debug_assert!(
        mask != 0,
        "masked derivations must be filtered by the caller"
    );
    if rows.insert(from, label, to) {
        out.push(from, (label, to));
    }
    if masks.or(from, label, to, mask) {
        worklist.push((from, label, to));
    }
}

/// Materializes a finished multi run: the union automaton plus every
/// inferred transition and its mask, in deterministic (state-major,
/// insertion) order. Seeds flowed through [`add_masked`], so `out` already
/// contains the query transitions.
fn materialize_multi(
    mut aut: PAutomaton,
    out: &crate::arena::BumpLists<(u32, u32)>,
    masks: &crate::scratch::MaskTable,
    phase1_states: usize,
) -> (PAutomaton, Vec<u64>) {
    for _ in 0..phase1_states {
        aut.add_state();
    }
    let mut column = Vec::with_capacity(masks.len());
    for state in 0..out.n_lists() as u32 {
        for (label, to) in out.iter(state) {
            let l = if label == 0 {
                None
            } else {
                Some(Symbol(label - 1))
            };
            // The union starts edge-free and saturation rows are
            // duplicate-free, so every transition lands at the end of its
            // row and the column stays aligned with the rows.
            let fresh = aut.add_transition(PState(state), l, PState(to));
            debug_assert!(fresh, "saturation rows are duplicate-free");
            column.push(masks.get(state, label, to));
        }
    }
    (aut, column)
}

/// The multi-criterion `pre*` engine on a prebuilt union.
fn backward_multi(
    idx: &RuleIndex,
    queries: &[&PAutomaton],
    union: PAutomaton,
    offsets: Vec<u32>,
    member_finals: Vec<Vec<PState>>,
    query_transitions: usize,
    scratch: &mut SaturationScratch,
) -> MultiSaturation {
    let k = queries.len();
    let n_controls = idx.control_count();
    let n_states = union.state_count() as u32;
    scratch.reset(n_states);
    let SaturationScratch {
        rows,
        out,
        worklist,
        masks,
        pending_multi,
        tmp_masked,
        tmp_waiters,
        ..
    } = scratch;

    // Seeds: each member's query transitions under its singleton mask,
    // then the pop rules under the full mask (they fire unconditionally
    // for every member).
    let full = CriterionSet::all(k).0;
    for (i, query) in queries.iter().enumerate() {
        let offset = offsets[i];
        let controls = query.control_count();
        let mask = CriterionSet::singleton(i).0;
        for (f, l, t) in query.transitions() {
            let sym = l.expect("ε-freedom checked above");
            let remap = |s: PState| {
                if s.0 < n_controls {
                    s.0
                } else {
                    offset + (s.0 - controls)
                }
            };
            add_masked(
                rows,
                out,
                worklist,
                masks,
                (remap(f), sym.0 + 1, remap(t)),
                mask,
            );
        }
    }
    let mut rule_applications = idx.pops().len();
    for &(p, gamma, p2) in idx.pops() {
        add_masked(rows, out, worklist, masks, (p.0, gamma.0 + 1, p2.0), full);
    }

    let mut peak_worklist = 0usize;
    while let Some((f, label, t)) = {
        peak_worklist = peak_worklist.max(worklist.len());
        worklist.pop()
    } {
        let sym = Symbol(label - 1);
        // Process under the transition's *current* mask: growth after this
        // pop re-queues it.
        let t_mask = masks.get(f, label, t);
        if f < n_controls {
            // Internal rules propagate the premise's mask unchanged.
            for m in idx.internal_by_rhs(sym) {
                if m.to_loc.0 != f {
                    continue;
                }
                rule_applications += 1;
                add_masked(
                    rows,
                    out,
                    worklist,
                    masks,
                    (m.from_loc.0, m.from_sym.0 + 1, t),
                    t_mask,
                );
            }
            // Push rules need two hops; the derived transition belongs to
            // exactly the members both hops belong to.
            for m in idx.push_by_rhs(sym) {
                if m.to_loc.0 != f {
                    continue;
                }
                debug_assert!(m.below.0 < u32::MAX);
                let below = m.below.0 + 1;
                tmp_masked.clear();
                tmp_masked.extend(
                    rows.targets(t, below)
                        .iter()
                        .map(|&q2| (q2, masks.get(t, below, q2))),
                );
                for &(q2, hop2_mask) in tmp_masked.iter() {
                    rule_applications += 1;
                    let mask = t_mask & hop2_mask;
                    if mask != 0 {
                        add_masked(
                            rows,
                            out,
                            worklist,
                            masks,
                            (m.from_loc.0, m.from_sym.0 + 1, q2),
                            mask,
                        );
                    }
                }
                pending_multi.push(t, below, (m.from_loc.0, m.from_sym.0, f, label));
            }
        }
        // Complete earlier partial matches waiting on (f, sym): intersect
        // with the first hop's current mask, looked up by its identity.
        tmp_waiters.clear();
        tmp_waiters.extend_from_slice(pending_multi.waiters(f, label));
        for &(p, gamma, hop1_from, hop1_label) in tmp_waiters.iter() {
            rule_applications += 1;
            let hop1_mask = masks.get(hop1_from, hop1_label, f);
            let mask = hop1_mask & t_mask;
            if mask != 0 {
                add_masked(rows, out, worklist, masks, (p, gamma + 1, t), mask);
            }
        }
    }

    let (aut, column) = materialize_multi(union, out, masks, 0);
    let transitions = aut.transition_count();
    let stats = SaturationStats {
        transitions,
        query_transitions,
        phase1_states: 0,
        peak_bytes: transitions * 36
            + rows.len() * 48
            + pending_multi.len() * 48
            + masks.len() * 24
            + peak_worklist * std::mem::size_of::<(u32, u32, u32)>(),
        rule_applications,
        peak_worklist,
    };
    MultiSaturation {
        automaton: aut,
        member_finals,
        masks: column,
        column_index: OnceLock::new(),
        stats,
    }
}

/// The multi-criterion `post*` engine on a prebuilt union.
///
/// Phase-I states are shared across members and appended after every
/// member's fresh states — their numbering (by push pair) is identical in
/// each member's solo run, so bit `i` on a Phase-I transition means exactly
/// "member `i`'s solo run derived this transition on *its* Phase-I state
/// for the same pair". Pop rules emit ε (label 0) transitions carrying the
/// premise mask; ε-combinations intersect the ε premise's mask with the
/// labeled premise's. Unlike the solo engine, a transition re-pops whenever
/// its mask grows, so ε registration must dedup.
fn forward_multi(
    idx: &RuleIndex,
    queries: &[&PAutomaton],
    union: PAutomaton,
    _offsets: Vec<u32>,
    member_finals: Vec<Vec<PState>>,
    query_transitions: usize,
    scratch: &mut SaturationScratch,
) -> MultiSaturation {
    let n_controls = idx.control_count();
    let n_union_states = union.state_count() as u32;
    let phase1_states = idx.push_pairs().len();
    let n_states = n_union_states + phase1_states as u32;
    scratch.reset(n_states);
    let SaturationScratch {
        rows,
        out,
        worklist,
        eps_into,
        masks,
        tmp_pairs,
        ..
    } = scratch;

    // Seeds: each member's query transitions under its singleton mask.
    // (post* has no unconditional seeds — pop rules fire during the loop.)
    for (i, query) in queries.iter().enumerate() {
        let offset = _offsets[i];
        let controls = query.control_count();
        let mask = CriterionSet::singleton(i).0;
        for (f, l, t) in query.transitions() {
            let sym = l.expect("ε-freedom checked above");
            let remap = |s: PState| {
                if s.0 < n_controls {
                    s.0
                } else {
                    offset + (s.0 - controls)
                }
            };
            add_masked(
                rows,
                out,
                worklist,
                masks,
                (remap(f), sym.0 + 1, remap(t)),
                mask,
            );
        }
    }

    let mut rule_applications = 0usize;
    let mut peak_worklist = 0usize;
    while let Some((f, label, t)) = {
        peak_worklist = peak_worklist.max(worklist.len());
        worklist.pop()
    } {
        let t_mask = masks.get(f, label, t);
        if label != 0 {
            let sym = Symbol(label - 1);
            // Rules fire on labeled transitions out of control states,
            // propagating the premise's mask.
            if f < n_controls {
                for r in idx.rules_for_lhs(sym) {
                    if r.from_loc.0 != f {
                        continue;
                    }
                    rule_applications += 1;
                    match r.rhs {
                        Rhs::Pop => {
                            add_masked(rows, out, worklist, masks, (r.to_loc.0, 0, t), t_mask)
                        }
                        Rhs::Internal(g2) => add_masked(
                            rows,
                            out,
                            worklist,
                            masks,
                            (r.to_loc.0, g2.0 + 1, t),
                            t_mask,
                        ),
                        Rhs::Push(g1, g2) => {
                            let mid = n_union_states + r.push_pair;
                            add_masked(
                                rows,
                                out,
                                worklist,
                                masks,
                                (r.to_loc.0, g1.0 + 1, mid),
                                t_mask,
                            );
                            add_masked(rows, out, worklist, masks, (mid, g2.0 + 1, t), t_mask);
                        }
                    }
                }
            }
            // ε-combination: q' –ε→ f plus f –sym→ t gives q' –sym→ t for
            // the members carrying *both* premises. `add_masked` never
            // touches `eps_into`, so the row is iterated in place; the ε
            // premise's mask is read fresh per waiter (it may have grown
            // since registration).
            for q2 in eps_into.iter(f) {
                rule_applications += 1;
                let mask = masks.get(q2, 0, f) & t_mask;
                if mask != 0 {
                    add_masked(rows, out, worklist, masks, (q2, label, t), mask);
                }
            }
        } else {
            // f –ε→ t: combine with all labeled t –sym→ u. Mask growth
            // re-pops transitions, so registration dedups.
            if !eps_into.contains(t, f) {
                eps_into.push(t, f);
            }
            tmp_pairs.clear();
            tmp_pairs.extend(out.iter(t).filter(|&(l2, _)| l2 != 0));
            for &(l2, u) in tmp_pairs.iter() {
                rule_applications += 1;
                let mask = t_mask & masks.get(t, l2, u);
                if mask != 0 {
                    add_masked(rows, out, worklist, masks, (f, l2, u), mask);
                }
            }
        }
    }

    let (aut, column) = materialize_multi(union, out, masks, phase1_states);
    let transitions = aut.transition_count();
    let stats = SaturationStats {
        transitions,
        query_transitions,
        phase1_states,
        peak_bytes: transitions * 36
            + rows.len() * 48
            + eps_into.live_bytes()
            + masks.len() * 24
            + peak_worklist * std::mem::size_of::<(u32, u32, u32)>(),
        rule_applications,
        peak_worklist,
    };
    MultiSaturation {
        automaton: aut,
        member_finals,
        masks: column,
        column_index: OnceLock::new(),
        stats,
    }
}
