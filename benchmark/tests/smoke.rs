//! A 2k-event run of every workload, untraced and traced, through the
//! real daemon child; and the correctness gate firing on an altered
//! reference.

use dbp_benchmark::run::{run, Plan, RunResult};
use dbp_benchmark::spec::Spec;
use dbp_benchmark::workload::{Inputs, Reference, WorkloadSpec, WORKLOADS};
use std::path::{Path, PathBuf};

fn smoke_spec(w: &WorkloadSpec) -> WorkloadSpec {
    WorkloadSpec {
        lifetime_items: 1_000,
        lifetimes_per_window: 1,
        recovery_events: 2_000,
        ..w.clone()
    }
}

fn smoke_plan(w: &WorkloadSpec, traced: bool) -> Plan {
    let mut plan = Plan::new(
        w,
        3,
        0.0,
        traced,
        PathBuf::from(env!("CARGO_BIN_EXE_benchmark")),
    );
    plan.warmup = 0.0;
    plan.min_windows = 1;
    plan.cold_starts = 2;
    plan.layer_frames = 10;
    plan.out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", w.name));
    plan
}

fn assert_complete(result: &RunResult) {
    let expected = Spec::get().reported(result.traced);
    assert_eq!(result.metrics.len(), expected.len(), "{}", result.workload);
    for ((name, summary), spec) in result.metrics.iter().zip(expected) {
        assert_eq!(name, &spec.name);
        assert!(summary.median.is_finite(), "{}: {name}", result.workload);
    }
}

#[test]
fn every_workload_runs_correctly_end_to_end_and_traced() {
    for w in WORKLOADS.iter().map(smoke_spec) {
        let inputs = Inputs::build(&w, 3);
        assert_eq!(inputs.events.len(), 2_000);
        for traced in [false, true] {
            let plan = smoke_plan(&w, traced);
            let result = run(&plan, &inputs).unwrap();
            assert!(result.correct(), "{} traced={traced}: {result:?}", w.name);
            assert!(result.tally.attempted > 0);
            assert_complete(&result);
            if !traced {
                let events_per_s = result.metric("events_per_s").unwrap().median;
                assert!(events_per_s > 0.0, "{}", w.name);
                for metric in ["setup_s", "recovery_s", "usage_over_lb"] {
                    assert!(
                        result.metric(metric).unwrap().median > 0.0,
                        "{}: {metric}",
                        w.name
                    );
                }
            } else {
                let trace = plan.out_dir.join(format!("{}.trace.json", w.name));
                let doc = serde_json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
                assert!(!doc
                    .get("traceEvents")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .is_empty());
            }
        }
    }
}

#[test]
fn an_altered_reference_fails_the_correctness_gate() {
    for w in [&WORKLOADS[0], &WORKLOADS[3]].map(smoke_spec) {
        let mut inputs = Inputs::build(&w, 3);
        let other = Inputs::build(&w, 4);
        inputs.reference = Reference::compute(&other.events);
        let mut plan = smoke_plan(&w, false);
        plan.out_dir.set_extension("altered");
        let result = run(&plan, &inputs).unwrap();
        assert!(!result.correct(), "{}", w.name);
        assert!(result.tally.mismatches > 0, "{}", w.name);
        assert_eq!(result.tally.failed, 0, "{}", w.name);
    }
}
