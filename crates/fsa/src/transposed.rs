//! Masked compressed-sparse-row (CSR) adjacency of an automaton, and the
//! filtered views the MRD pipeline consumes.
//!
//! The one-pass solver saturates a whole criterion group at once; every
//! edge of the shared automaton carries a bitmask of the members whose own
//! automaton contains it. A [`Transposed`] stores that automaton once per
//! group, edges indexed both by source (for reachability) and by target
//! (for co-reachability and the reversed subset construction). A
//! [`TransposedView`] selects one member — the edges carrying its bit —
//! and trims it to the states that are reachable from the initial state
//! and co-reachable to the member's finals, without copying any edge.
//!
//! State 0 is the initial state, as in [`Nfa`].

use crate::nfa::{Nfa, StateId};
use crate::Symbol;

/// Every bit set: the mask of an edge that belongs to every member (the
/// single-automaton case).
pub const ALL_MEMBERS: u64 = u64::MAX;

/// An automaton's edges in CSR form, by source and by target, each edge
/// tagged with a member mask. Build it with [`Transposed::of`] (one plain
/// automaton) or [`Transposed::from_edges`] (a masked union); select what
/// to read with [`Transposed::full`] or [`Transposed::trimmed`].
#[derive(Clone, Debug, Default)]
pub struct Transposed {
    /// Forward rows: `out[out_off[q]..out_off[q + 1]]` are the targets of
    /// `q`'s edges (labels are not needed to decide reachability).
    out_off: Vec<u32>,
    out: Vec<u32>,
    out_mask: Vec<u64>,
    /// Labeled edges by target: `inc[inc_off[t]..inc_off[t + 1]]` holds
    /// `(label, source)` of every labeled edge into `t`.
    inc_off: Vec<u32>,
    inc: Vec<(Symbol, StateId)>,
    inc_mask: Vec<u64>,
    /// ε-edges by target: the sources of every ε-edge into `t`.
    eps_off: Vec<u32>,
    eps: Vec<u32>,
    eps_mask: Vec<u64>,
}

/// Prefix-sums per-state counts (`off[q + 1]` holds `q`'s count on entry)
/// into row offsets.
fn prefix_sum(off: &mut [u32]) {
    for i in 1..off.len() {
        off[i] += off[i - 1];
    }
}

impl Transposed {
    /// `a`'s edges, every one in every member ([`ALL_MEMBERS`]).
    pub fn of(a: &Nfa) -> Transposed {
        Transposed::from_edges(a.state_count(), || {
            a.transitions().map(|(f, l, t)| (f, l, t, ALL_MEMBERS))
        })
    }

    /// Builds the CSR from `(source, label, target, mask)` edges over
    /// states `0..n_states` (`None` labels are ε). `edges` is called
    /// twice — a count pass and a fill pass — so nothing is buffered; both
    /// calls must yield the same edges. Edges must be distinct and masks
    /// nonzero.
    pub fn from_edges<I>(n_states: usize, edges: impl Fn() -> I) -> Transposed
    where
        I: Iterator<Item = (StateId, Option<Symbol>, StateId, u64)>,
    {
        let mut out_off = vec![0u32; n_states + 1];
        let mut inc_off = vec![0u32; n_states + 1];
        let mut eps_off = vec![0u32; n_states + 1];
        for (f, l, t, _) in edges() {
            out_off[f.index() + 1] += 1;
            match l {
                Some(_) => inc_off[t.index() + 1] += 1,
                None => eps_off[t.index() + 1] += 1,
            }
        }
        prefix_sum(&mut out_off);
        prefix_sum(&mut inc_off);
        prefix_sum(&mut eps_off);
        let (n_out, n_inc, n_eps) = (
            out_off[n_states] as usize,
            inc_off[n_states] as usize,
            eps_off[n_states] as usize,
        );
        let mut out = vec![0u32; n_out];
        let mut out_mask = vec![0u64; n_out];
        let mut inc = vec![(Symbol(0), StateId(0)); n_inc];
        let mut inc_mask = vec![0u64; n_inc];
        let mut eps = vec![0u32; n_eps];
        let mut eps_mask = vec![0u64; n_eps];
        // Fill cursors: the row starts, advanced as each row fills.
        let mut out_cur = out_off[..n_states].to_vec();
        let mut inc_cur = inc_off[..n_states].to_vec();
        let mut eps_cur = eps_off[..n_states].to_vec();
        for (f, l, t, mask) in edges() {
            debug_assert!(mask != 0, "an edge must belong to some member");
            let at = &mut out_cur[f.index()];
            out[*at as usize] = t.0;
            out_mask[*at as usize] = mask;
            *at += 1;
            match l {
                Some(s) => {
                    let at = &mut inc_cur[t.index()];
                    inc[*at as usize] = (s, f);
                    inc_mask[*at as usize] = mask;
                    *at += 1;
                }
                None => {
                    let at = &mut eps_cur[t.index()];
                    eps[*at as usize] = f.0;
                    eps_mask[*at as usize] = mask;
                    *at += 1;
                }
            }
        }
        Transposed {
            out_off,
            out,
            out_mask,
            inc_off,
            inc,
            inc_mask,
            eps_off,
            eps,
            eps_mask,
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.out_off.len().saturating_sub(1)
    }

    /// Number of edges (labeled and ε), over all members.
    pub fn transition_count(&self) -> usize {
        self.out.len()
    }

    /// The whole automaton, untrimmed, with `finals` accepting: every state
    /// and every edge, exactly as given to [`Transposed::of`].
    pub fn full(&self, finals: impl IntoIterator<Item = StateId>) -> TransposedView<'_> {
        let n = self.state_count();
        let mut finals: Vec<u32> = finals.into_iter().map(|q| q.0).collect();
        finals.sort_unstable();
        finals.dedup();
        TransposedView {
            csr: self,
            mask: ALL_MEMBERS,
            keep: vec![KEPT; n],
            finals,
            states: n,
            transitions: self.transition_count(),
        }
    }

    /// The sub-automaton of the edges whose mask meets `mask`, with
    /// `finals` accepting, trimmed: exactly the states and edges that
    /// [`Nfa::trimmed`] keeps of that sub-automaton (state ids are not
    /// renumbered — the kept states keep their ids here, and trimming
    /// renumbers them monotonically, so the two present the same
    /// automaton).
    ///
    /// A forward pass from the initial state marks the reachable states;
    /// a backward pass from the reachable finals, confined to reachable
    /// states, marks the kept ones. Confining it loses nothing: every
    /// state on a path from a kept state to a final is itself reachable.
    /// Both passes touch only the rows of states they visit, so the cost
    /// follows the member's own automaton, not the union's.
    pub fn trimmed(
        &self,
        mask: u64,
        finals: impl IntoIterator<Item = StateId>,
    ) -> TransposedView<'_> {
        let n = self.state_count();
        let mut keep = vec![UNSEEN; n];
        let mut work: Vec<u32> = Vec::new();
        if n > 0 {
            keep[0] = REACHED;
            work.push(0);
        }
        while let Some(q) = work.pop() {
            let row = self.out_off[q as usize] as usize..self.out_off[q as usize + 1] as usize;
            for (&t, &m) in self.out[row.clone()].iter().zip(&self.out_mask[row]) {
                if m & mask != 0 && keep[t as usize] == UNSEEN {
                    keep[t as usize] = REACHED;
                    work.push(t);
                }
            }
        }
        let mut finals: Vec<u32> = finals
            .into_iter()
            .map(|q| q.0)
            .filter(|&q| keep[q as usize] != UNSEEN)
            .collect();
        finals.sort_unstable();
        finals.dedup();
        for &f in &finals {
            keep[f as usize] = KEPT;
            work.push(f);
        }
        // Each kept state is expanded once, and each edge between kept
        // states is seen once, from its target: count them on the way.
        let mut transitions = 0usize;
        let mut mark = |s: u32, keep: &mut [u8], work: &mut Vec<u32>| {
            if keep[s as usize] != UNSEEN {
                transitions += 1;
                if keep[s as usize] == REACHED {
                    keep[s as usize] = KEPT;
                    work.push(s);
                }
            }
        };
        while let Some(q) = work.pop() {
            let row = self.inc_off[q as usize] as usize..self.inc_off[q as usize + 1] as usize;
            for (&(_, s), &m) in self.inc[row.clone()].iter().zip(&self.inc_mask[row]) {
                if m & mask != 0 {
                    mark(s.0, &mut keep, &mut work);
                }
            }
            let row = self.eps_off[q as usize] as usize..self.eps_off[q as usize + 1] as usize;
            for (&s, &m) in self.eps[row.clone()].iter().zip(&self.eps_mask[row]) {
                if m & mask != 0 {
                    mark(s, &mut keep, &mut work);
                }
            }
        }
        let kept = keep.iter().filter(|&&k| k == KEPT).count();
        // `Nfa::trimmed` always keeps the initial state, even a dead one.
        let states = kept + usize::from(n > 0 && keep[0] != KEPT);
        TransposedView {
            csr: self,
            mask,
            keep,
            finals,
            states,
            transitions,
        }
    }
}

/// Per-state marks of a view: not reached from the initial state, reached
/// but not (yet) known to reach a final, or kept.
const UNSEEN: u8 = 0;
const REACHED: u8 = 1;
const KEPT: u8 = 2;

/// One member's automaton inside a [`Transposed`]: the edges whose mask
/// meets the view's, between kept states, with the view's finals
/// accepting. Built by [`Transposed::full`] or [`Transposed::trimmed`];
/// consumed by [`crate::mrd::mrd_transposed`].
#[derive(Clone, Debug)]
pub struct TransposedView<'a> {
    csr: &'a Transposed,
    mask: u64,
    keep: Vec<u8>,
    /// Accepting kept states, sorted.
    finals: Vec<u32>,
    states: usize,
    transitions: usize,
}

impl TransposedView<'_> {
    /// States of the automaton the view presents — for a trimmed view,
    /// what `Nfa::trimmed` would return (the initial state counts even
    /// when dead).
    pub fn state_count(&self) -> usize {
        self.states
    }

    /// Edges of the automaton the view presents (labeled and ε).
    pub fn transition_count(&self) -> usize {
        self.transitions
    }

    /// Number of states of the underlying CSR (ids range over it).
    pub(crate) fn id_bound(&self) -> usize {
        self.csr.state_count()
    }

    /// The accepting states, sorted.
    pub(crate) fn final_ids(&self) -> &[u32] {
        &self.finals
    }

    /// Whether the edge with `mask` from `source` belongs to the view
    /// (its target is assumed kept).
    #[inline]
    fn admits(&self, mask: u64, source: u32) -> bool {
        mask & self.mask != 0 && self.keep[source as usize] == KEPT
    }

    /// Appends `(label, source)` of every labeled view edge into `q` (a
    /// kept state) to `into`.
    #[inline]
    pub(crate) fn extend_incoming(&self, q: u32, into: &mut Vec<(Symbol, StateId)>) {
        let c = self.csr;
        let row = c.inc_off[q as usize] as usize..c.inc_off[q as usize + 1] as usize;
        for (&(l, s), &m) in c.inc[row.clone()].iter().zip(&c.inc_mask[row]) {
            if self.admits(m, s.0) {
                into.push((l, s));
            }
        }
    }

    /// The sources of the view's ε-edges into `q` (a kept state).
    #[inline]
    pub(crate) fn eps_incoming(&self, q: u32) -> impl Iterator<Item = u32> + '_ {
        let c = self.csr;
        let row = c.eps_off[q as usize] as usize..c.eps_off[q as usize + 1] as usize;
        c.eps[row.clone()]
            .iter()
            .zip(&c.eps_mask[row])
            .filter(|&(&s, &m)| self.admits(m, s))
            .map(|(&s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> Symbol {
        Symbol(i)
    }

    /// Every edge of `a` in a view, as `(source, label, target)`, sorted.
    fn view_edges(a: &Nfa, v: &TransposedView<'_>) -> Vec<(u32, Option<Symbol>, u32)> {
        let mut es = Vec::new();
        for t in 0..a.state_count() as u32 {
            if v.keep[t as usize] != KEPT {
                continue;
            }
            let mut inc = Vec::new();
            v.extend_incoming(t, &mut inc);
            es.extend(inc.into_iter().map(|(l, s)| (s.0, Some(l), t)));
            es.extend(v.eps_incoming(t).map(|s| (s, None, t)));
        }
        es.sort();
        es
    }

    #[test]
    fn trimmed_view_keeps_what_nfa_trimmed_keeps() {
        // reachable-but-dead, co-reachable-but-unreachable, and ε edges.
        let mut n = Nfa::new();
        let q1 = n.add_state();
        let dead = n.add_state();
        let unreach = n.add_state();
        let f = n.add_state();
        n.add_transition(n.initial(), Some(sym(1)), q1);
        n.add_transition(n.initial(), Some(sym(2)), dead);
        n.add_transition(unreach, Some(sym(3)), q1);
        n.add_transition(q1, None, f);
        n.set_final(f);
        let t = Transposed::of(&n);
        let v = t.trimmed(ALL_MEMBERS, n.finals().iter().copied());
        let (trim, _) = n.trimmed();
        assert_eq!(v.state_count(), trim.state_count());
        assert_eq!(v.transition_count(), trim.transition_count());
        assert_eq!(view_edges(&n, &v), vec![(0, Some(sym(1)), 1), (1, None, 4)]);
        // The full view keeps everything.
        let full = t.full(n.finals().iter().copied());
        assert_eq!(full.state_count(), n.state_count());
        assert_eq!(full.transition_count(), n.transition_count());
        assert_eq!(view_edges(&n, &full).len(), n.transition_count());
    }

    #[test]
    fn masks_select_member_edges() {
        // Member 0 owns 0 -a-> 1 -b-> 2; member 1 owns 0 -c-> 2; both own
        // the final 2.
        let edges = [
            (StateId(0), Some(sym(0)), StateId(1), 0b01),
            (StateId(1), Some(sym(1)), StateId(2), 0b01),
            (StateId(0), Some(sym(2)), StateId(2), 0b10),
        ];
        let t = Transposed::from_edges(3, || edges.iter().copied());
        let v0 = t.trimmed(0b01, [StateId(2)]);
        let v1 = t.trimmed(0b10, [StateId(2)]);
        assert_eq!((v0.state_count(), v0.transition_count()), (3, 2));
        assert_eq!((v1.state_count(), v1.transition_count()), (2, 1));
        let mut inc = Vec::new();
        v1.extend_incoming(2, &mut inc);
        assert_eq!(inc, vec![(sym(2), StateId(0))]);
        // A member with no final reachable keeps only the (dead) initial.
        let none = t.trimmed(0b100, [StateId(2)]);
        assert_eq!((none.state_count(), none.transition_count()), (1, 0));
        assert!(none.final_ids().is_empty());
    }
}
