//! The parallel batch contract: `slice_batch` output is bit-for-bit
//! identical at every thread count, one bad criterion never poisons the
//! rest of a batch, per-thread accounting adds up, and a batch answers each
//! distinct criterion once, whatever its repeats look like.

use specslice::{BatchResult, Criterion, Direction, Slicer, SlicerConfig, Solver, SpecError};
use specslice_sdg::VertexId;

/// Per-printf criteria of a program — the paper's evaluation workload.
fn per_printf_criteria(slicer: &Slicer) -> Vec<Criterion> {
    slicer
        .sdg()
        .printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect()
}

fn session(src: &str, num_threads: usize) -> Slicer {
    Slicer::from_source_with(
        src,
        SlicerConfig {
            num_threads,
            ..SlicerConfig::default()
        },
    )
    .unwrap()
}

/// A canonical byte representation of a batch's slices. `SpecSlice`
/// contains only deterministic structure (sorted sets/maps, state-ordered
/// variants), so the Debug rendering is a faithful byte-level fingerprint.
fn fingerprint(slices: &[specslice::SpecSlice]) -> String {
    format!("{slices:?}")
}

/// `slice_batch` with `num_threads` ∈ {1, 2, 8} produces byte-identical
/// slices on every corpus program.
#[test]
fn batch_output_is_identical_across_thread_counts() {
    for prog in specslice_corpus::programs() {
        let baseline = session(prog.source, 1);
        let mut criteria = per_printf_criteria(&baseline);
        criteria.push(Criterion::printf_actuals(baseline.sdg()));
        let expected = fingerprint(&baseline.slice_batch(&criteria).unwrap().slices);

        for threads in [2, 8] {
            let slicer = session(prog.source, threads);
            let batch = slicer.slice_batch(&criteria).unwrap();
            assert_eq!(
                fingerprint(&batch.slices),
                expected,
                "{}: {threads}-thread batch diverged from sequential",
                prog.name
            );
            // Regenerated source (the executable artifact) must agree too.
            for (a, b) in baseline
                .slice_batch(&criteria)
                .unwrap()
                .slices
                .iter()
                .zip(&batch.slices)
            {
                assert_eq!(
                    baseline.regenerate(a).unwrap().source,
                    slicer.regenerate(b).unwrap().source,
                    "{}: regenerated source diverged at {threads} threads",
                    prog.name
                );
            }
        }
    }
}

/// A batch containing one `BadCriterion` reports that criterion (by index,
/// deterministically the lowest failing one) without poisoning the other
/// criteria's results.
#[test]
fn bad_criterion_does_not_poison_the_batch() {
    let prog = specslice_corpus::by_name("wc").unwrap();
    for threads in [1, 4] {
        let slicer = session(prog.source, threads);
        let good = per_printf_criteria(&slicer);
        assert!(good.len() >= 2, "wc has several printfs");
        let bad = Criterion::vertex(VertexId(9_999));

        // good[0], bad, good[1..] — the error identifies index 1.
        let mut criteria = vec![good[0].clone(), bad.clone()];
        criteria.extend(good[1..].iter().cloned());

        let err = slicer.slice_batch(&criteria).unwrap_err();
        match &err {
            SpecError::BadCriterion { reason } => {
                assert!(reason.contains("#1"), "{reason}");
                assert!(reason.contains("out of range"), "{reason}");
            }
            other => panic!("expected BadCriterion, got {other:?}"),
        }

        // The non-fail-fast API answers everything else.
        let results = slicer.slice_batch_results(&criteria);
        assert_eq!(results.len(), criteria.len());
        for (i, result) in results.iter().enumerate() {
            if i == 1 {
                assert!(result.is_err(), "criterion #1 is bad");
            } else {
                let slice = result.as_ref().expect("good criterion poisoned");
                let individual = slicer.slice(&criteria[i]).unwrap();
                assert_eq!(
                    format!("{slice:?}"),
                    format!("{individual:?}"),
                    "batch member #{i} diverged from individual slice"
                );
            }
        }

        // The session itself is not poisoned either: later queries work.
        assert!(slicer.slice(&good[0]).is_ok());
    }
}

/// Sequential batches keep the fail-fast contract: nothing after the first
/// failing criterion runs.
#[test]
fn sequential_batches_fail_fast() {
    let prog = specslice_corpus::by_name("wc").unwrap();
    let slicer = session(prog.source, 1);
    let good = per_printf_criteria(&slicer);
    let criteria = vec![
        Criterion::vertex(VertexId(9_999)),
        good[0].clone(),
        good[1].clone(),
    ];
    let before = slicer.queries_run();
    assert!(slicer.slice_batch(&criteria).is_err());
    assert_eq!(
        slicer.queries_run() - before,
        1,
        "criteria after the failure must not run in a sequential batch"
    );
}

/// Two bad criteria: the reported error is always the lowest-indexed one,
/// regardless of which worker hit its error first.
#[test]
fn lowest_indexed_error_wins() {
    let prog = specslice_corpus::by_name("wc").unwrap();
    let slicer = session(prog.source, 8);
    let good = per_printf_criteria(&slicer);
    let criteria = vec![
        good[0].clone(),
        Criterion::vertex(VertexId(7_777)),
        Criterion::vertex(VertexId(9_999)),
    ];
    let err = slicer.slice_batch(&criteria).unwrap_err();
    match err {
        SpecError::BadCriterion { reason } => assert!(reason.contains("#1"), "{reason}"),
        other => panic!("expected BadCriterion, got {other:?}"),
    }
}

/// Per-thread accounting: every criterion is answered exactly once, by
/// exactly one worker, and the worker count respects the config.
#[test]
fn per_thread_stats_add_up() {
    let prog = specslice_corpus::by_name("gzip").unwrap();
    let slicer = session(prog.source, 3);
    let criteria = per_printf_criteria(&slicer);
    let batch = slicer.slice_batch(&criteria).unwrap();

    assert!(!batch.per_thread.is_empty());
    assert!(batch.per_thread.len() <= 3);
    let answered: usize = batch.per_thread.iter().map(|w| w.items).sum();
    assert_eq!(answered, criteria.len());
    // The aggregate's query_time sums per-criterion work across workers.
    assert!(batch.aggregate.query_time > std::time::Duration::ZERO);

    // Sequential batches report exactly one worker.
    let seq = session(prog.source, 1);
    let batch = seq.slice_batch(&criteria).unwrap();
    assert_eq!(batch.per_thread.len(), 1);
    assert_eq!(batch.per_thread[0].items, criteria.len());
}

/// The shared lazily-built reachable automaton is built exactly once even
/// when a parallel batch of all-contexts criteria races for it.
#[test]
fn reachable_automaton_built_once_under_parallelism() {
    let prog = specslice_corpus::by_name("print_tokens").unwrap();
    let slicer = session(prog.source, 8);
    let criteria = per_printf_criteria(&slicer);
    assert_eq!(slicer.reachable_builds(), 0);
    slicer.slice_batch(&criteria).unwrap();
    slicer.slice_batch(&criteria).unwrap();
    assert_eq!(slicer.reachable_builds(), 1);
    assert_eq!(slicer.queries_run(), 2 * criteria.len());
}

/// The saturation work counters of a batch aggregate: saturations run,
/// the widest saturation, and the four `prestar_*` counters.
fn saturation_work(stats: &specslice::PipelineStats) -> [usize; 6] {
    [
        stats.saturations_run,
        stats.criteria_per_saturation,
        stats.prestar_rule_applications,
        stats.prestar_transitions,
        stats.prestar_peak_bytes,
        stats.prestar_peak_worklist,
    ]
}

/// A repeat-laden batch over `slicer`'s program, and the same batch with
/// its repeats removed (first occurrences, in order). Repeats are exact
/// copies, a permuted and self-duplicating all-contexts vertex list, and a
/// configuration set listing one configuration twice. A criterion over a
/// raw automaton has no canonical key, so its copy is not a repeat.
fn repeat_laden(slicer: &Slicer) -> (Vec<Criterion>, Vec<Criterion>) {
    let sdg = slicer.sdg();
    let good = per_printf_criteria(slicer);
    assert!(good.len() >= 3, "the program has three printfs");
    let actuals = sdg.printf_actual_in_vertices();
    assert!(actuals.len() >= 2);
    let mut permuted = actuals.clone();
    permuted.reverse();
    permuted.push(actuals[0]);
    let in_main = actuals
        .iter()
        .copied()
        .find(|&v| sdg.vertex(v).proc == sdg.main)
        .expect("a printf actual in main");
    let config = Criterion::configuration(in_main, vec![]);
    let config_twice = Criterion::Configurations(vec![(in_main, vec![]), (in_main, vec![])]);
    let mut nfa = specslice_fsa::Nfa::new();
    let last = nfa.add_state();
    let first = nfa.initial();
    nfa.add_transition(first, Some(slicer.encoding().vertex_symbol(in_main)), last);
    nfa.set_final(last);
    let automaton = Criterion::Automaton(nfa);
    let batch = vec![
        good[0].clone(),
        good[1].clone(),
        good[0].clone(),
        Criterion::printf_actuals(sdg),
        Criterion::AllContexts(permuted),
        config.clone(),
        good[1].clone(),
        config_twice,
        automaton.clone(),
        automaton.clone(),
        good[2].clone(),
        good[0].clone(),
    ];
    let distinct = vec![
        good[0].clone(),
        good[1].clone(),
        Criterion::printf_actuals(sdg),
        config,
        automaton.clone(),
        automaton,
        good[2].clone(),
    ];
    (batch, distinct)
}

fn configured(src: &str, num_threads: usize, solver: Solver, memoize: bool) -> Slicer {
    Slicer::from_source_with(
        src,
        SlicerConfig {
            num_threads,
            solver,
            memoize,
            ..SlicerConfig::default()
        },
    )
    .unwrap()
}

fn directed_batch(slicer: &Slicer, dir: Direction, criteria: &[Criterion]) -> BatchResult {
    match dir {
        Direction::Backward => slicer.slice_batch(criteria),
        Direction::Forward => slicer.forward_slice_batch(criteria),
    }
    .unwrap()
}

/// A batch answers each distinct criterion once and replays it for every
/// repeat. Under both solvers, 1/2/4 threads, both directions and memo
/// on/off: every slice equals an individual query's, the batch reports
/// exactly the saturation work and store traffic of its distinct batch,
/// the plan holds first occurrences only, and the session counters count
/// every occurrence as before (a keyed repeat is a memo hit).
#[test]
fn repeated_criteria_are_answered_once() {
    let src = specslice_corpus::by_name("wc").unwrap().source;
    let reference = configured(src, 1, Solver::PerCriterion, false);
    let (batch, distinct) = repeat_laden(&reference);
    let keyed_repeats = batch.len() - distinct.len();
    for dir in [Direction::Backward, Direction::Forward] {
        let want: Vec<String> = batch
            .iter()
            .map(|c| {
                let slice = match dir {
                    Direction::Backward => reference.slice(c),
                    Direction::Forward => reference.forward_slice(c),
                };
                format!("{:?}", slice.unwrap())
            })
            .collect();
        for solver in [Solver::PerCriterion, Solver::OnePass] {
            for memoize in [false, true] {
                let mut store_at_one = None;
                for threads in [1, 2, 4] {
                    let what = format!("{dir} {solver:?} memo={memoize} {threads} threads");
                    let slicer = configured(src, threads, solver, memoize);
                    let planned: Vec<usize> =
                        slicer.batch_groups(&batch).into_iter().flatten().collect();
                    assert_eq!(planned.len(), distinct.len(), "{what}: plan");
                    let got = directed_batch(&slicer, dir, &batch);
                    for (i, slice) in got.slices.iter().enumerate() {
                        assert_eq!(format!("{slice:?}"), want[i], "{what}: criterion #{i}");
                    }
                    let answered: usize = got.per_thread.iter().map(|w| w.items).sum();
                    assert_eq!(answered, distinct.len(), "{what}: worker items");
                    assert_eq!(slicer.queries_run(), batch.len(), "{what}: queries");
                    let hits = if memoize { keyed_repeats } else { 0 };
                    assert_eq!(slicer.memo_hits(), hits, "{what}: memo hits");

                    let fresh = configured(src, threads, solver, memoize);
                    let once = directed_batch(&fresh, dir, &distinct);
                    assert_eq!(
                        saturation_work(&got.aggregate),
                        saturation_work(&once.aggregate),
                        "{what}: saturation work"
                    );
                    let store = slicer.store_stats();
                    assert_eq!(store, fresh.store_stats(), "{what}: store traffic");
                    match &store_at_one {
                        None => store_at_one = Some(store),
                        Some(one) => assert_eq!(&store, one, "{what}: store stats"),
                    }
                }
            }
        }
    }
}

/// A repeat never reports saturation work, whether it is replayed from the
/// memo or within the batch: memo-on and memo-off sessions report the
/// same saturation counters for the scale bench's skewed (repeat-laden)
/// batch, and those equal the counters of its distinct criteria.
#[test]
fn memo_replays_report_no_saturation_work() {
    let cfg = specslice_corpus::ScaleConfig {
        n_procs: 16,
        n_globals: 8,
        ring: 4,
        indirect_pct: 25,
        n_printfs: 24,
    };
    let source = specslice_corpus::scale_program(42, cfg);
    let program = specslice_lang::frontend(&source).unwrap();
    let lowered = specslice::indirect::lower_indirect_calls(&program).unwrap();
    let open = |memoize: bool| {
        Slicer::from_program_with(
            lowered.clone(),
            SlicerConfig {
                num_threads: 2,
                memoize,
                solver: Solver::OnePass,
                ..SlicerConfig::default()
            },
        )
        .unwrap()
    };
    let off = open(false);
    let sites = per_printf_criteria(&off);
    let sample = specslice_corpus::skewed_site_sample(sites.len(), 60, 7);
    let skewed: Vec<Criterion> = sample.iter().map(|&i| sites[i].clone()).collect();
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<Criterion> = sample
        .iter()
        .filter(|&&i| seen.insert(i))
        .map(|&i| sites[i].clone())
        .collect();
    assert!(distinct.len() < skewed.len(), "the sample repeats sites");

    let work_off = saturation_work(&off.slice_batch(&skewed).unwrap().aggregate);
    let on = open(true);
    let work_on = saturation_work(&on.slice_batch(&skewed).unwrap().aggregate);
    assert_eq!(work_on, work_off);
    assert_eq!(on.memo_hits(), skewed.len() - distinct.len());
    let once = saturation_work(&open(false).slice_batch(&distinct).unwrap().aggregate);
    assert_eq!(work_off, once);
    // A second batch is all memo hits and replays no saturation work.
    let again = on.slice_batch(&skewed).unwrap().aggregate;
    assert_eq!(saturation_work(&again), [0; 6]);
}

/// A failing criterion fails every one of its occurrences, each error
/// naming its own index; fail-fast batches report the lowest (always a
/// first occurrence), and the good criteria between them are answered.
#[test]
fn repeated_bad_criterion_fails_every_occurrence() {
    let src = specslice_corpus::by_name("wc").unwrap().source;
    let reference = configured(src, 1, Solver::PerCriterion, false);
    let bad = Criterion::vertex(VertexId(9_999));
    let good = per_printf_criteria(&reference);
    let (repeats, _) = repeat_laden(&reference);
    let mut mixed = repeats.clone();
    mixed.insert(3, bad.clone());
    mixed.insert(7, bad.clone());
    mixed.push(bad.clone());
    let names_own_index = |e: &SpecError, i: usize| match e {
        SpecError::BadCriterion { reason } => {
            reason.starts_with(&format!("criterion #{i}: ")) && reason.contains("out of range")
        }
        _ => false,
    };
    for solver in [Solver::PerCriterion, Solver::OnePass] {
        for memoize in [false, true] {
            for threads in [1, 2, 4] {
                let what = format!("{solver:?} memo={memoize} {threads} threads");
                let slicer = configured(src, threads, solver, memoize);
                let trio = [bad.clone(), good[0].clone(), bad.clone()];
                for err in [
                    slicer.slice_batch(&trio).unwrap_err(),
                    slicer.forward_slice_batch(&trio).unwrap_err(),
                ] {
                    assert!(names_own_index(&err, 0), "{what}: {err}");
                }
                let results = slicer.slice_batch_results(&trio);
                assert!(
                    names_own_index(results[0].as_ref().unwrap_err(), 0),
                    "{what}"
                );
                assert!(results[1].is_ok(), "{what}");
                assert!(
                    names_own_index(results[2].as_ref().unwrap_err(), 2),
                    "{what}"
                );

                let err = slicer.slice_batch(&mixed).unwrap_err();
                assert!(names_own_index(&err, 3), "{what}: {err}");
                for (i, result) in slicer.slice_batch_results(&mixed).iter().enumerate() {
                    match result {
                        Err(e) => {
                            assert!(matches!(i, 3 | 7 | 14), "{what}: #{i} failed: {e}");
                            assert!(names_own_index(e, i), "{what}: {e}");
                        }
                        Ok(slice) => assert_eq!(
                            format!("{slice:?}"),
                            format!("{:?}", reference.slice(&mixed[i]).unwrap()),
                            "{what}: criterion #{i}"
                        ),
                    }
                }
            }
        }
    }
}
