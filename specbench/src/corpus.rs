//! `corpus-specialize`: one small program per op, taken through session
//! setup (`Slicer::from_source_with`, memo off), a backward batch of every
//! printf, `specialize_program` at the first printf, and `Module::compile`
//! plus a VM run of the specialized program on the sample input. The
//! programs are small (about 200 SDG vertices, one saturation per batch),
//! so setup, read-out, the store, regeneration and the VM dominate and the
//! one-pass group tail barely runs: a group-tail optimisation must show no
//! change here.

use crate::layers::{self, Layers, SpecRun};
use crate::trace::{maybe_span, Tracer};
use crate::util::{digest_of, ms, sub_seed, Digest};
use crate::{Checks, OpLog, Outcome, RunArgs};
use specslice::exec::{ExecBackend, ExecOutcome, ExecRequest, Interp, Module};
use specslice::{Slicer, Solver};
use specslice_corpus::GenConfig;
use specslice_pds::SaturationScratch;
use std::time::Instant;

/// Feature grids beside the corpus (the exec bench's set).
const GRIDS: [usize; 3] = [12, 24, 40];
/// Seeded `random_program` draws per run.
const RANDOM_PROGRAMS: usize = 2;
/// A random draw is kept only if its original runs within this many
/// interpreter steps: the workload is small programs, and one
/// deep-recursion draw would otherwise dominate a run's op time.
const RANDOM_MAX_STEPS: u64 = 20_000;

/// One input program with its sample input.
#[derive(Clone, Debug)]
pub struct Input {
    /// Display name.
    pub name: String,
    /// MiniC source.
    pub source: String,
    /// Values `scanf` reads.
    pub input: Vec<i64>,
}

/// The corpus, the grids, and `RANDOM_PROGRAMS` seeded random programs.
/// A draw that has no printf, or whose original program fails under the
/// interpreter or runs longer than `RANDOM_MAX_STEPS` (properties of the
/// generated program, not of slicing), is replaced by the next draw.
pub fn inputs(seed: u64) -> Vec<Input> {
    let mut out: Vec<Input> = specslice_corpus::programs()
        .into_iter()
        .map(|p| Input {
            name: p.name.to_string(),
            source: p.source.to_string(),
            input: p.sample_input.to_vec(),
        })
        .collect();
    for n in GRIDS {
        out.push(Input {
            name: format!("grid{n}"),
            source: specslice_corpus::feature_grid(n),
            input: Vec::new(),
        });
    }
    let mut draw = 0u64;
    let mut added = 0;
    while added < RANDOM_PROGRAMS {
        let s = sub_seed(seed, 10 + draw);
        draw += 1;
        let source = specslice_corpus::random_program(s, GenConfig::default());
        let input = vec![(s % 7) as i64];
        let usable = specslice_lang::frontend(&source).ok().is_some_and(|p| {
            let req = ExecRequest::new(&p)
                .with_input(&input)
                .with_fuel(RANDOM_MAX_STEPS);
            source.contains("printf") && Interp.exec(&req).is_ok()
        });
        if usable {
            out.push(Input {
                name: format!("random{draw}"),
                source,
                input,
            });
            added += 1;
        }
    }
    out
}

/// What one op produces, fingerprinted for the per-op check.
fn fingerprint(slices: &impl std::fmt::Debug, source: &str, outcome: &ExecOutcome) -> u64 {
    let mut d = Digest::default();
    d.debug(slices);
    d.bytes(source.as_bytes());
    d.debug(outcome);
    d.finish()
}

/// One op: open, batch, specialize, compile, run — each call a span when
/// traced. Returns the op's fingerprint.
fn op(input: &Input, mut t: Option<&mut Tracer>, log: &mut OpLog) -> Result<u64, String> {
    let start = Instant::now();
    let result: Result<_, String> = (|| {
        let slicer = maybe_span(&mut t, "op.open", || {
            Slicer::from_source_with(&input.source, crate::session_config(Solver::OnePass))
        })
        .map_err(|e| e.to_string())?;
        let criteria = layers::printf_criteria(slicer.sdg());
        let batch_start = Instant::now();
        let batch = maybe_span(&mut t, "core.batch_ms", || slicer.slice_batch(&criteria))
            .map_err(|e| e.to_string())?;
        let batch_ms = ms(batch_start.elapsed());
        let sp = maybe_span(&mut t, "op.specialize", || {
            slicer.specialize_program(&criteria[..1])
        })
        .map_err(|e| e.to_string())?;
        let module = maybe_span(&mut t, "op.compile", || Module::compile(&sp.regen.program))
            .map_err(|e| e.to_string())?;
        let outcome = maybe_span(&mut t, "op.run", || {
            module.exec(
                &input.input,
                ExecRequest::DEEP_FUEL,
                ExecRequest::DEFAULT_RECURSION_LIMIT,
            )
        })
        .map_err(|e| e.to_string())?;
        Ok((batch, batch_ms, sp, outcome))
    })();
    log.lat_ms.push(ms(start.elapsed()));
    let (batch, batch_ms, sp, outcome) = result?;
    if log.trace {
        layers::pool_layers(&batch, batch_ms, &mut log.layers);
    }
    Ok(fingerprint(&batch.slices, sp.source(), &outcome))
}

/// Per input: the expected op fingerprint and the §5 run, from a checked
/// pass before the timed loop.
struct Expected {
    fingerprint: u64,
    spec: SpecRun,
    /// The batch's query-layer counts as the program reports them.
    counts: Layers,
}

/// The checked pass: every input specialized at its first printf, run on
/// the VM, and compared with the interpreter run of the original.
fn expected(
    inputs: &[Input],
    t: &mut Tracer,
    l: &mut Layers,
    checks: &mut Checks,
) -> Vec<Option<Expected>> {
    inputs
        .iter()
        .map(|input| {
            let mut run = || -> Result<Expected, String> {
                let slicer =
                    Slicer::from_source_with(&input.source, crate::session_config(Solver::OnePass))
                        .map_err(|e| e.to_string())?;
                let criteria = layers::printf_criteria(slicer.sdg());
                let batch = slicer.slice_batch(&criteria).map_err(|e| e.to_string())?;
                let orig = layers::reference_run(slicer.program().expect("program"), &input.input)?;
                let spec = layers::spec_run(t, &slicer, &criteria[0], &orig, &input.input, l)?;
                crate::session_layers(l, &slicer);
                Ok(Expected {
                    fingerprint: fingerprint(&batch.slices, &spec.source, &spec.outcome),
                    spec,
                    counts: layers::batch_counts(&batch),
                })
            };
            match run() {
                Ok(e) => Some(e),
                Err(e) => {
                    checks.fail(format!("{}: {e}", input.name));
                    None
                }
            }
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is everything before the first op can be sent and checked:
    // input generation and the checked reference pass each op's output is
    // compared with.
    let ((inputs, expect, t, spec_layers, mut checks), setup_s) = crate::repeat_setup(|| {
        let inputs = inputs(args.seed);
        let mut checks = Checks::default();
        let mut t = Tracer::new(Instant::now());
        let mut spec_layers = Layers::default();
        let expect = expected(&inputs, &mut t, &mut spec_layers, &mut checks);
        (inputs, expect, t, spec_layers, checks)
    });
    out.metric("setup_s", setup_s);
    out.digest = digest_of(
        &expect
            .iter()
            .map(|e| e.as_ref().map(|e| e.fingerprint))
            .collect::<Vec<_>>(),
    );
    checks.committed_digest("corpus-specialize", args.seed, out.digest);
    // The §5 metrics are taken on the paper corpus and the grids (the
    // random draws are checked the same way but vary with the seed).
    let fixed = inputs.len() - RANDOM_PROGRAMS;
    let fixed_runs: Vec<SpecRun> = expect[..fixed]
        .iter()
        .flatten()
        .map(|e| e.spec.clone())
        .collect();
    crate::spec_metrics(&mut out, &fixed_runs);

    let mut next = 0usize;
    let mut op_fn = |t: Option<&mut Tracer>, log: &mut OpLog| {
        let i = next % inputs.len();
        next += 1;
        let got = op(&inputs[i], t, log);
        matches!((&got, &expect[i]), (Ok(f), Some(e)) if *f == e.fingerprint)
    };
    let mut logs = crate::op_loops(args, &mut op_fn);
    checks.absorb_logs(&logs);
    out.op_metrics(&logs.last, args.workload, &mut checks);

    if args.trace {
        let n = inputs.len() as f64;
        let mut l = std::mem::take(&mut logs.last.layers);
        let runs = expect.iter().flatten().count() as f64;
        crate::add_stage_means(&mut l, &t, runs);
        crate::add_means(&mut l, &spec_layers, runs);
        let mut lt = Tracer::new(Instant::now());
        let mut pass = Layers::default();
        let mut scratch = SaturationScratch::default();
        let mut attributed = true;
        for (input, want) in inputs.iter().zip(&expect) {
            let replay = layers::open_stages(&mut lt, &input.source, &mut pass).and_then(|o| {
                let criteria = layers::printf_criteria(&o.sdg);
                layers::replay_batch(&mut lt, &o, &criteria, &mut scratch)
            });
            match (replay, want) {
                (Ok(replay), Some(want)) => {
                    let differ = layers::count_mismatches(&replay, &want.counts);
                    if !differ.is_empty() {
                        attributed = false;
                        checks.notes.push(format!(
                            "{}: replay differs: {}",
                            input.name,
                            differ.join(", ")
                        ));
                    }
                    crate::add_means(&mut pass, &want.counts, 1.0);
                }
                (Ok(_), None) => attributed = false,
                (Err(e), _) => checks.fail(format!("{}: replay: {e}", input.name)),
            }
        }
        crate::add_stage_means(&mut l, &lt, n);
        crate::add_means(&mut l, &pass, n);
        crate::arena_layer(&mut l, &scratch);
        l.set("pds.saturate_attributed", f64::from(u8::from(attributed)));
        let sources: Vec<String> = inputs.iter().take(4).map(|i| i.source.clone()).collect();
        crate::daemon::probe(&mut l, &sources, args.seed, &mut checks);
        out.layers = Some(crate::finish_layers(l, &logs));
        out.spans = Some(crate::render_spans([
            logs.last.tracer.take(),
            Some(t),
            Some(lt),
        ]));
    }
    out.checks = checks;
    out
}
