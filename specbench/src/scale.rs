//! `scale-batch`: back-to-back backward batches over the ~4.7k-vertex
//! scale tier. 120 skewed all-contexts printf criteria form 64-wide
//! groups over a deep SCC DAG, so an op is almost all saturation and
//! group tail (split, trim, MRD, read-out); frontend, store, regeneration,
//! execution and the server barely run.

use crate::layers::{self, Layers};
use crate::trace::Tracer;
use crate::util::{digest_of, ms, sub_seed, timed};
use crate::{Checks, OpLog, Outcome, RunArgs};
use specslice::{Criterion, Program, Slicer, Solver};
use specslice_corpus::{scale_program, skewed_site_sample, ScaleConfig};
use specslice_pds::SaturationScratch;
use std::time::Instant;

/// The `4k` tier of the repository's scale bench (~4.7k SDG vertices).
pub const TIER_4K: ScaleConfig = ScaleConfig {
    n_procs: 64,
    n_globals: 10,
    ring: 4,
    indirect_pct: 25,
    n_printfs: 48,
};
const CRITERIA: usize = 120;
/// `main` reads one value.
const INPUT: [i64; 1] = [1];

/// The seed of the scale programs: the one the repository's scale bench
/// commits to. The run seed draws the criteria, not the program: programs
/// generated from different seeds differ in batch cost by up to half, far
/// beyond any bound a timing metric can carry.
pub const PROGRAM_SEED: u64 = 42;

/// The scale program, after §6.2 lowering of its function-pointer webs
/// (the SDG builder rejects indirect calls).
pub fn lowered_program(cfg: ScaleConfig) -> Program {
    let source = scale_program(PROGRAM_SEED, cfg);
    let program = specslice_lang::frontend(&source).expect("scale programs pass the frontend");
    specslice::indirect::lower_indirect_calls(&program).expect("scale programs lower")
}

/// Everything an op needs: the session and the batch it answers.
struct Setup {
    slicer: Slicer,
    criteria: Vec<Criterion>,
}

fn setup(seed: u64) -> Setup {
    let program = lowered_program(TIER_4K);
    let slicer = Slicer::from_program_with(program, crate::session_config(Solver::OnePass))
        .expect("scale session opens");
    let sites = layers::printf_criteria(slicer.sdg());
    let criteria = skewed_site_sample(sites.len(), CRITERIA, sub_seed(seed, 2))
        .into_iter()
        .map(|i| sites[i].clone())
        .collect();
    Setup { slicer, criteria }
}

/// The distinct criteria of a batch, first occurrence order.
fn distinct(criteria: &[Criterion]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    (0..criteria.len())
        .filter(|&i| seen.insert(format!("{:?}", criteria[i])))
        .collect()
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) = crate::repeat_setup(|| setup(args.seed));
    out.metric("setup_s", setup_s);
    let Setup { slicer, criteria } = s;

    // Warm-up: builds the reachable automaton and gives the reference
    // answer every op is compared with.
    let baseline = slicer.slice_batch(&criteria).expect("warm-up batch");
    let want = digest_of(&baseline.slices);
    out.digest = want;

    let mut checks = Checks::default();
    let mut op = |t: Option<&mut Tracer>, log: &mut OpLog| {
        let (r, d) = match t {
            Some(t) => {
                let start = Instant::now();
                let r = t.span("core.batch_ms", |_| slicer.slice_batch(&criteria));
                (r, start.elapsed())
            }
            None => timed(|| slicer.slice_batch(&criteria)),
        };
        log.lat_ms.push(ms(d));
        match r {
            Ok(b) => {
                if log.trace {
                    layers::pool_layers(&b, ms(d), &mut log.layers);
                }
                digest_of(&b.slices) == want
            }
            Err(_) => false,
        }
    };
    let mut logs = crate::op_loops(args, &mut op);
    checks.absorb_logs(&logs);
    out.op_metrics(&logs.last, args.workload, &mut checks);

    // Independent check: the per-criterion reference solver on every
    // distinct site of the batch.
    let program = slicer.program().expect("session keeps its program");
    let reference =
        Slicer::from_program_with(program.clone(), crate::session_config(Solver::PerCriterion))
            .expect("reference session opens");
    let idx = distinct(&criteria);
    let picked: Vec<Criterion> = idx.iter().map(|&i| criteria[i].clone()).collect();
    match reference.slice_batch(&picked) {
        Ok(r) => {
            for (k, &i) in idx.iter().enumerate() {
                checks.expect(
                    format!("{:?}", r.slices[k]) == format!("{:?}", baseline.slices[i]),
                    || format!("criterion #{i}: one-pass differs from the per-criterion solver"),
                );
            }
        }
        Err(e) => checks.fail(format!("per-criterion reference failed: {e}")),
    }
    drop(reference);
    checks.committed_digest("scale-batch", args.seed, want);

    // §5: specialize at every printf site of the program and run both
    // programs (all sites, so the numbers do not depend on the sample).
    let mut t = Tracer::new(Instant::now());
    let mut spec_layers = Layers::default();
    let mut runs = Vec::new();
    match layers::reference_run(program, &INPUT) {
        Ok(orig) => {
            for (i, c) in layers::printf_criteria(slicer.sdg()).iter().enumerate() {
                match layers::spec_run(&mut t, &slicer, c, &orig, &INPUT, &mut spec_layers) {
                    Ok(r) => runs.push(r),
                    Err(e) => checks.fail(format!("printf site {i}: {e}")),
                }
            }
        }
        Err(e) => checks.fail(format!("original program: {e}")),
    }
    crate::spec_metrics(&mut out, &runs);

    if args.trace {
        let mut l = std::mem::take(&mut logs.last.layers);
        crate::add_stage_means(&mut l, &t, runs.len() as f64);
        crate::add_means(&mut l, &spec_layers, runs.len() as f64);
        // Layer pass: open and answer the batch again, one stage at a time.
        let mut lt = Tracer::new(Instant::now());
        let mut pass = Layers::default();
        let source = scale_program(PROGRAM_SEED, TIER_4K);
        let mut scratch = SaturationScratch::default();
        let counts = layers::batch_counts(&baseline);
        match layers::open_stages(&mut lt, &source, &mut pass) {
            Ok(o) => match layers::replay_batch(&mut lt, &o, &criteria, &mut scratch) {
                Ok(replay) => {
                    let differ = layers::count_mismatches(&replay, &counts);
                    l.set(
                        "pds.saturate_attributed",
                        f64::from(u8::from(differ.is_empty())),
                    );
                    if !differ.is_empty() {
                        checks
                            .notes
                            .push(format!("replay differs: {}", differ.join(", ")));
                    }
                }
                Err(e) => checks.fail(format!("replay: {e}")),
            },
            Err(e) => checks.fail(format!("staged open: {e}")),
        }
        crate::add_means(&mut l, &counts, 1.0);
        crate::add_stage_means(&mut l, &lt, 1.0);
        crate::add_means(&mut l, &pass, 1.0);
        crate::arena_layer(&mut l, &scratch);
        crate::session_layers(&mut l, &slicer);
        let lowered = specslice_lang::pretty(program);
        crate::daemon::probe(&mut l, &[lowered], args.seed, &mut checks);
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
