//! Oracle for the one-pass solver's group tail. The solver reads each
//! group member's `A1` through a masked, trimmed view of the group's
//! saturated union and feeds the MRD pipeline from that view. This suite
//! checks, for every criterion group of a set of programs and in both
//! directions, that the result is exactly what the unfused path gives:
//! copy the member's `A1` out of the union under `to_nfa`'s mapping, trim
//! the copy, run `mrd_with_stats` on it. Compared: the `A6` automaton
//! (by its `Debug` rendering), the MRD statistics, and the trimmed `A1`'s
//! state and transition counts — both as the session reports them per
//! criterion and as the public view API computes them.

use specslice::criteria::{query_automaton_reusing, reachable_configurations};
use specslice::encode::MAIN_CONTROL;
use specslice::slicer::{mrd_tail, saturated_tail, Tail};
use specslice::{Criterion, Direction, PipelineStats, Slicer, SlicerConfig, Solver};
use specslice_corpus::{scale_program, skewed_site_sample, ScaleConfig};
use specslice_fsa::mrd::mrd_with_stats;
use specslice_fsa::Nfa;
use specslice_pds::{
    saturate_indexed_with_stats, saturate_multi_indexed_with_stats, MultiSaturation, PAutomaton,
    SaturationScratch,
};

/// The unfused oracle for one member: its `A1` copied out of the union
/// (state `s` → `s + 1`, the main control's row and finality copied onto
/// the initial state 0), trimmed, then the MRD chain.
fn split_trim_mrd(multi: &MultiSaturation, slot: usize) -> Tail {
    let aut = &multi.automaton;
    let pmain = aut.control_state(MAIN_CONTROL);
    let mut a1 = Nfa::new();
    for _ in 0..aut.state_count() {
        a1.add_state();
    }
    for (from, l, to) in aut.transitions() {
        if multi.mask_label(from, l, to).contains(slot) {
            a1.add_transition(aut.nfa_state_of(from), l, aut.nfa_state_of(to));
            if from == pmain {
                a1.add_transition(a1.initial(), l, aut.nfa_state_of(to));
            }
        }
    }
    for &f in &multi.member_finals[slot] {
        a1.set_final(aut.nfa_state_of(f));
        if f == pmain {
            a1.set_final(a1.initial());
        }
    }
    oracle_of(&a1)
}

/// Trim, then the MRD chain, on a materialized `A1`.
fn oracle_of(a1: &Nfa) -> Tail {
    let (trim, _) = a1.trimmed();
    let (a6, mrd) = mrd_with_stats(&trim);
    assert_eq!(mrd.input_states, trim.state_count());
    Tail {
        a6,
        mrd,
        a1_transitions: trim.transition_count(),
    }
}

fn assert_same(what: &str, got: &Tail, want: &Tail) {
    assert_eq!(
        format!("{:?}", got.a6),
        format!("{:?}", want.a6),
        "{what}: A6"
    );
    assert_eq!(got.mrd, want.mrd, "{what}: MRD stats");
    assert_eq!(got.a1_transitions, want.a1_transitions, "{what}: A1 edges");
}

/// What the session reported for one criterion, as a [`Tail`].
fn reported(a6: &Nfa, stats: &PipelineStats) -> Tail {
    assert_eq!(stats.a1_states, stats.mrd.input_states);
    Tail {
        a6: a6.clone(),
        mrd: stats.mrd,
        a1_transitions: stats.a1_transitions,
    }
}

/// One all-contexts criterion per printf site of `slicer`'s program.
fn printf_criteria(slicer: &Slicer) -> Vec<Criterion> {
    slicer
        .sdg()
        .printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect()
}

/// Checks every group of the batch `criteria` of `slicer` in `dir`;
/// returns the width of its widest group.
fn check_groups(name: &str, slicer: &Slicer, criteria: &[Criterion], dir: Direction) -> usize {
    let (sdg, enc) = (slicer.sdg(), slicer.encoding());
    let batch = match dir {
        Direction::Backward => slicer.slice_batch(criteria),
        Direction::Forward => slicer.forward_slice_batch(criteria),
    }
    .expect("batch");
    let reachable = reachable_configurations(sdg, enc).expect("reachable");
    let mut scratch = SaturationScratch::default();
    let mut widest = 0;
    for group in slicer.batch_groups(criteria) {
        widest = widest.max(group.len());
        let queries: Vec<PAutomaton> = group
            .iter()
            .map(|&i| query_automaton_reusing(sdg, enc, Some(&reachable), &criteria[i]))
            .collect::<Result<_, _>>()
            .expect("query automata");
        let what = |i: usize| format!("{name} {dir} criterion {i}");
        if let [only] = group[..] {
            let (a1, _) = saturate_indexed_with_stats(dir, &enc.index, &queries[0], &mut scratch)
                .expect("saturation");
            let want = oracle_of(&a1.to_nfa(MAIN_CONTROL));
            assert_same(&what(only), &saturated_tail(&a1), &want);
            let got = reported(&batch.slices[only].a6, &batch.per_criterion[only]);
            assert_same(&what(only), &got, &want);
            continue;
        }
        let refs: Vec<&PAutomaton> = queries.iter().collect();
        let multi = saturate_multi_indexed_with_stats(dir, &enc.index, &refs, &mut scratch)
            .expect("saturation");
        let csr = multi.transposed(MAIN_CONTROL);
        for (slot, &i) in group.iter().enumerate() {
            let want = split_trim_mrd(&multi, slot);
            let fused = mrd_tail(&multi.member_view(&csr, MAIN_CONTROL, slot));
            assert_same(&what(i), &fused, &want);
            let got = reported(&batch.slices[i].a6, &batch.per_criterion[i]);
            assert_same(&what(i), &got, &want);
        }
    }
    widest
}

fn session(source: &str) -> Slicer {
    let program = specslice_lang::frontend(source).expect("frontend");
    let lowered = specslice::indirect::lower_indirect_calls(&program).expect("lowering");
    Slicer::from_program_with(
        lowered,
        SlicerConfig {
            collect_stats: true,
            num_threads: 1,
            memoize: false,
            solver: Solver::OnePass,
            ..SlicerConfig::default()
        },
    )
    .expect("session")
}

fn check_both_directions(name: &str, slicer: &Slicer, criteria: &[Criterion]) -> usize {
    check_groups(name, slicer, criteria, Direction::Backward).max(check_groups(
        name,
        slicer,
        criteria,
        Direction::Forward,
    ))
}

#[test]
fn fused_tail_matches_split_trim_on_the_smallest_scale_tier() {
    // The `1k` tier of the scale bench: every printf once, then the
    // bench's own skewed 60-criterion batch. That batch is mostly repeats,
    // which a batch answers once and plans in no group, so its groups are
    // narrow; the wide-mask case is covered on the feature grids below.
    let cfg = ScaleConfig {
        n_procs: 16,
        n_globals: 8,
        ring: 4,
        indirect_pct: 25,
        n_printfs: 24,
    };
    let slicer = session(&scale_program(42, cfg));
    let sites = printf_criteria(&slicer);
    assert!(check_both_directions("scale-1k", &slicer, &sites) > 1);
    let skewed: Vec<Criterion> = skewed_site_sample(sites.len(), 60, 7)
        .into_iter()
        .map(|i| sites[i].clone())
        .collect();
    let groups = slicer.batch_groups(&skewed);
    let planned: usize = groups.iter().map(Vec::len).sum();
    assert!(planned < skewed.len(), "the skewed batch repeats criteria");
    assert!(check_both_directions("scale-1k skewed", &slicer, &skewed) > 1);
}

#[test]
fn fused_tail_matches_split_trim_on_feature_grids() {
    let mut widest = 0;
    for n in [12, 24, 40] {
        let slicer = session(&specslice_corpus::feature_grid(n));
        let width = check_both_directions(
            &format!("feature_grid({n})"),
            &slicer,
            &printf_criteria(&slicer),
        );
        // Every printf of a grid sits in `main`, so its n distinct
        // criteria form one group.
        assert_eq!(width, n, "feature_grid({n})");
        widest = widest.max(width);
    }
    assert!(widest > 32, "a group must be wider than 32 members");
}

#[test]
fn fused_tail_matches_split_trim_on_the_corpus() {
    let mut widest = 0;
    for prog in specslice_corpus::programs() {
        let slicer = session(prog.source);
        widest = widest.max(check_both_directions(
            prog.name,
            &slicer,
            &printf_criteria(&slicer),
        ));
    }
    assert!(widest > 1, "the corpus must exercise multi-member groups");
}
