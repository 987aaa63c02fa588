//! Two traced runs with the same seed and worker count must report the
//! same deterministic counts, and each run's stage-by-stage replay must
//! reproduce exactly the counts the program reports for the batches it
//! replays.
//!
//! Run with: `cargo test --release --manifest-path specbench/Cargo.toml`
//! from the repository root (the traced runs start daemons whose sockets
//! live under `specbench/out/`).

use specbench::{RunArgs, Workload};

/// Per-layer counts that are pure functions of the seed.
const COUNTS: [&str; 14] = [
    "sdg.vertices",
    "pds.rules",
    "pds.rule_applications",
    "pds.transitions",
    "pds.saturations",
    "pds.criteria_per_saturation",
    "fsa.a1_transitions",
    "fsa.det_states",
    "fsa.mrd_states",
    "core.slice_vertices",
    "core.variants",
    "core.merged_functions",
    "vm.instructions",
    "interp.steps",
];

/// End-to-end metrics that are counts, not times.
const E2E_COUNTS: [&str; 2] = ["spec_steps_ratio", "spec_code_kb"];

fn run(workload: Workload) -> specbench::Outcome {
    // Tests run from the package directory; the benchmark's paths are
    // relative to the repository root.
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("repo root");
    specbench::run(&RunArgs {
        workload,
        seed: 3,
        seconds: 0.2,
        trace: true,
    })
}

fn check(workload: Workload) {
    let a = run(workload);
    let b = run(workload);
    for out in [&a, &b] {
        assert_eq!(
            out.checks.failed, 0,
            "{:?}: {:?}",
            workload, out.checks.messages
        );
    }
    assert_eq!(a.digest, b.digest, "{workload:?}: output digest");
    let (la, lb) = (a.layers.expect("traced"), b.layers.expect("traced"));
    for k in COUNTS {
        assert!(la.contains_key(k), "{workload:?}: no {k}");
        assert_eq!(la[k], lb[k], "{workload:?}: {k} differs between runs");
    }
    for k in E2E_COUNTS {
        assert_eq!(
            a.metrics[k], b.metrics[k],
            "{workload:?}: {k} differs between runs"
        );
    }
    assert_eq!(
        la["pds.saturate_attributed"], 1.0,
        "{workload:?}: the replay's counts differ from the program's batch counts"
    );
}

// One test per workload, run one after another: each traced run measures
// wall-clock and starts its own daemons.
#[test]
fn counts_repeat_for_every_workload() {
    for w in Workload::ALL {
        check(w);
    }
}
