//! Failure injection and boundary conditions across the public API.

use specslice::exec::{self, ExecOutcome, ExecRequest};
use specslice::{Criterion, Program, Slicer, SpecError};
use specslice_sdg::VertexId;

/// Runs through the env-selected default backend with the default budgets.
fn run(program: &Program, input: &[i64]) -> ExecOutcome {
    exec::run(&ExecRequest::new(program).with_input(input)).unwrap()
}

#[test]
fn unreachable_criterion_gives_empty_slice() {
    // Dead procedure: never called, so its vertices have no realizable
    // calling context — the all-contexts criterion denotes no configuration.
    let src = r#"
        int g;
        void dead(int a) { g = a; }
        int main() { g = 1; printf("%d", g); return 0; }
    "#;
    let slicer = Slicer::from_source(src).unwrap();
    let dead = slicer.sdg().proc_named("dead").unwrap();
    let slice = slicer.slice(&Criterion::vertex(dead.entry)).unwrap();
    assert!(slice.is_empty());
    // And an empty slice still regenerates a runnable skeleton.
    let regen = slicer.regenerate(&slice).unwrap();
    assert!(regen.program.main().is_some());
    run(&regen.program, &[]);
}

#[test]
fn non_ascii_source_is_an_error_not_a_panic() {
    // Multi-byte characters right after an operator byte, and on their
    // own, outside any comment or string.
    for src in [
        "int main() { int x; x = 1 — 2; return x; }",
        "int main() { int x; x =—2; return x; }",
        "int main() { return 0; } é",
    ] {
        match Slicer::from_source(src) {
            Err(SpecError::Parse(e)) => assert_eq!(e.line(), 1, "{src}: {e}"),
            Err(e) => panic!("{src}: expected a parse error, got {e}"),
            Ok(_) => panic!("{src}: accepted"),
        }
    }
    // In comments and strings the same characters are fine.
    let ok = "// — é\nint main() { printf(\"—\"); return 0; }";
    assert!(Slicer::from_source(ok).is_ok());
}

#[test]
fn malformed_criteria_are_rejected() {
    let src = "int main() { printf(\"%d\", 1); return 0; }";
    let slicer = Slicer::from_source(src).unwrap();
    // Out-of-range vertex.
    let err = slicer
        .slice(&Criterion::vertex(VertexId(10_000)))
        .unwrap_err();
    assert!(
        matches!(err, specslice::SpecError::BadCriterion { .. }),
        "{err:?}"
    );
    // Empty sets.
    assert!(slicer.slice(&Criterion::AllContexts(vec![])).is_err());
    assert!(slicer.slice(&Criterion::Configurations(vec![])).is_err());
}

#[test]
fn library_only_criterion() {
    // Criterion on the format actual-in only: still yields a slice keeping
    // the call (via the §6.1 LibActual linkage the call vertex needs).
    let src = "int main() { printf(\"hello\"); return 0; }";
    let slicer = Slicer::from_source(src).unwrap();
    let fmt = slicer.sdg().printf_actual_in_vertices()[0];
    let slice = slicer.slice(&Criterion::vertex(fmt)).unwrap();
    assert!(!slice.is_empty());
    let regen = slicer.regenerate(&slice).unwrap();
    assert!(
        regen.source.contains("printf(\"hello\")"),
        "{}",
        regen.source
    );
}

#[test]
fn scanf_order_is_preserved_in_slices() {
    // Slicing on the SECOND read must keep the first read (stream state).
    let src = r#"
        int main() {
            int a;
            int b;
            scanf("%d", &a);
            scanf("%d", &b);
            printf("%d", b);
            return 0;
        }
    "#;
    let slicer = Slicer::from_source(src).unwrap();
    let ast = slicer.program().unwrap();
    let slice = slicer
        .slice(&Criterion::printf_actuals(slicer.sdg()))
        .unwrap();
    let regen = slicer.regenerate(&slice).unwrap();
    assert_eq!(
        regen.source.matches("scanf").count(),
        2,
        "dropping the first scanf would shift the stream:\n{}",
        regen.source
    );
    let a = run(ast, &[10, 20]);
    let b = run(&regen.program, &[10, 20]);
    assert_eq!(a.output, b.output);
    assert_eq!(b.output, vec![20]);
}

#[test]
fn exit_guard_survives_slicing() {
    // `exit` terminates the program; statements after it are control
    // dependent on it, so slices must keep the exit to stay faithful.
    let src = r#"
        int g;
        int main() {
            int c;
            scanf("%d", &c);
            g = 1;
            if (c > 0) { exit(7); }
            g = 2;
            printf("%d", g);
            return 0;
        }
    "#;
    let slicer = Slicer::from_source(src).unwrap();
    let ast = slicer.program().unwrap();
    let slice = slicer
        .slice(&Criterion::printf_actuals(slicer.sdg()))
        .unwrap();
    let regen = slicer.regenerate(&slice).unwrap();
    assert!(regen.source.contains("exit(7)"), "{}", regen.source);
    for input in [[0i64], [5i64]] {
        let a = run(ast, &input);
        let b = run(&regen.program, &input);
        assert_eq!(a.output, b.output, "input {input:?}");
        assert_eq!(a.exit_code, b.exit_code, "input {input:?}");
    }
}

#[test]
fn break_and_continue_survive_when_relevant() {
    let src = r#"
        int g;
        int main() {
            int i;
            i = 0;
            while (i < 10) {
                i = i + 1;
                if (i == 3) { continue; }
                if (i > 5) { break; }
                g = g + i;
            }
            printf("%d", g);
            return 0;
        }
    "#;
    let slicer = Slicer::from_source(src).unwrap();
    let ast = slicer.program().unwrap();
    let slice = slicer
        .slice(&Criterion::printf_actuals(slicer.sdg()))
        .unwrap();
    let regen = slicer.regenerate(&slice).unwrap();
    assert!(regen.source.contains("break"), "{}", regen.source);
    assert!(regen.source.contains("continue"), "{}", regen.source);
    let a = run(ast, &[]);
    let b = run(&regen.program, &[]);
    assert_eq!(a.output, b.output);
    assert_eq!(a.output, vec![1 + 2 + 4 + 5]);
}

#[test]
fn deep_configuration_criteria() {
    // A 3-deep concrete call stack through nested procedures.
    let src = r#"
        int g;
        void inner(int a) { g = a; }
        void mid(int b) { inner(b + 1); }
        void outer(int c) { mid(c + 1); }
        int main() { outer(1); printf("%d", g); return 0; }
    "#;
    let slicer = Slicer::from_source(src).unwrap();
    let sdg = slicer.sdg();
    let inner = sdg.proc_named("inner").unwrap();
    // Stack: inner called at mid's site, mid at outer's site, outer in main.
    let site_of = |caller: &str| {
        sdg.call_sites
            .iter()
            .find(|c| {
                sdg.proc(c.caller).name == caller
                    && matches!(c.callee, specslice_sdg::CalleeKind::User(_))
            })
            .unwrap()
            .id
    };
    let stack = vec![site_of("mid"), site_of("outer"), site_of("main")];
    let slice = slicer
        .slice(&Criterion::configuration(inner.entry, stack))
        .unwrap();
    assert!(!slice.is_empty());
    assert_eq!(slice.variants_of_proc(sdg, "inner").len(), 1);
    // A wrong-order stack is rejected.
    let bad = vec![site_of("outer"), site_of("mid"), site_of("main")];
    assert!(slicer
        .slice(&Criterion::configuration(inner.entry, bad))
        .is_err());
}

#[test]
fn while_true_loops_are_sliceable() {
    // An infinite loop guarded by break — exercises the unreachable-exit
    // paths in control dependence.
    let src = r#"
        int g;
        int main() {
            int i;
            i = 0;
            while (1) {
                i = i + 1;
                g = g + i;
                if (i >= 4) { break; }
            }
            printf("%d", g);
            return 0;
        }
    "#;
    let slicer = Slicer::from_source(src).unwrap();
    let ast = slicer.program().unwrap();
    let slice = slicer
        .slice(&Criterion::printf_actuals(slicer.sdg()))
        .unwrap();
    let regen = slicer.regenerate(&slice).unwrap();
    let a = run(ast, &[]);
    let b = run(&regen.program, &[]);
    assert_eq!(a.output, b.output);
}
