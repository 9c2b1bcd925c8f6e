//! Trace-determinism conformance: the canonical projection of a traced run
//! (span topology, per-span round deltas, round events) must be a pure
//! function of the workload — byte-identical across distance backends and
//! thread counts. Wall-clock profiles may differ; none of that rides in
//! the canonical trace.

use parfaclo_api::{Backend, RunConfig};
use parfaclo_bench::runner::{run_solver, GenSpec};
use parfaclo_bench::standard_registry;
use parfaclo_trace::{install, TraceDetail, Tracer};
use std::sync::Arc;

/// Runs one solver under a fresh rounds-level tracer and returns the
/// canonical trace alongside the run (the tracer is ambient, so the
/// registry wrapper parents every solver phase under its root span).
fn canonical_trace(solver: &str, spec: &GenSpec, cfg: &RunConfig) -> String {
    let registry = standard_registry();
    let tracer = Arc::new(Tracer::new(TraceDetail::Rounds));
    let guard = install(Arc::clone(&tracer));
    let run = run_solver(&registry, solver, spec, cfg).expect("solver feasible");
    drop(guard);
    assert!(
        !run.phase_wall_ms.is_empty(),
        "{solver}: every traced run must attribute phase walls"
    );
    tracer.canonical_json()
}

fn spec() -> GenSpec {
    GenSpec::parse("uniform:n=200,nf=48").expect("valid spec")
}

fn base_cfg(seed: u64) -> RunConfig {
    RunConfig::new(0.1).with_seed(seed).with_k(4)
}

/// The cross-product each solver's canonical trace must be constant over.
fn variants(seed: u64) -> Vec<(String, RunConfig)> {
    let mut out = Vec::new();
    for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
        for threads in [1usize, 4] {
            out.push((
                format!("backend={backend:?},threads={threads}"),
                base_cfg(seed).with_backend(backend).with_threads(threads),
            ));
        }
    }
    out
}

#[test]
fn canonical_trace_is_backend_engine_and_thread_invariant() {
    for solver in ["greedy", "primal-dual", "kcenter"] {
        for seed in [1u64, 9] {
            let sp = spec();
            let mut reference: Option<(String, String)> = None;
            for (label, cfg) in variants(seed) {
                let canonical = canonical_trace(solver, &sp, &cfg);
                match &reference {
                    None => {
                        assert!(
                            canonical.contains("\"events\":[{"),
                            "{solver} seed {seed}: rounds-level trace must carry \
                             round events: {canonical}"
                        );
                        reference = Some((label, canonical));
                    }
                    Some((ref_label, ref_canonical)) => assert_eq!(
                        &canonical, ref_canonical,
                        "{solver} seed {seed}: canonical trace differs between \
                         {ref_label} and {label}"
                    ),
                }
            }
        }
    }
}

#[test]
fn canonical_trace_is_workload_sensitive() {
    // The invariance above would hold trivially for an empty trace; distinct
    // seeds must produce distinct canonical traces (different round/frontier
    // progressions), proving the projection actually observes the workload.
    let sp = spec();
    let a = canonical_trace("greedy", &sp, &base_cfg(1));
    let b = canonical_trace("greedy", &sp, &base_cfg(9));
    assert_ne!(a, b, "canonical trace must depend on the workload");
}

#[test]
fn greedy_trace_names_its_published_phases() {
    let canonical = canonical_trace("greedy", &spec(), &base_cfg(1));
    for phase in [
        "solve:greedy",
        "orders-build",
        "star-rounds",
        "finalize",
        "certify",
    ] {
        assert!(
            canonical.contains(&format!("\"name\":\"{phase}\"")),
            "missing phase '{phase}' in {canonical}"
        );
    }
}
