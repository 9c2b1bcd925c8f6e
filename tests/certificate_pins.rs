//! Pinned-bytes acceptance test for greedy's dual-fitting certificate at the
//! benchmark's 100k-client scale: `large:seed=1` (100k clients × 100
//! facilities) on the spatial backend, solver seed 1, ε = 0.1.
//!
//! The certificate (`dual::max_feasible_scaling`) may be computed any way
//! that returns the same scale bit for bit; these values pin its output, and
//! with it `lower_bound` and `certified_ratio`, at a size where the small
//! reference tests cannot reach. Ignored by default (a release build runs it
//! in about a second, a debug build much longer):
//!
//! ```text
//! cargo test --release -q -p parfaclo-tests --test certificate_pins -- --ignored
//! ```

use parfaclo_api::{AnyInstance, Backend, ProblemKind, RunConfig};
use parfaclo_bench::runner::GenSpec;
use parfaclo_core::{greedy, FlConfig};
use parfaclo_lp::dual;

#[test]
#[ignore = "100k-client solve; run in release with --ignored"]
fn greedy_large_certificate_is_pinned() {
    let spec = GenSpec::parse("large:seed=1").expect("valid spec");
    let inst = match spec
        .instance(ProblemKind::FacilityLocation, 1, Backend::Spatial)
        .expect("generate")
    {
        AnyInstance::Fl(inst) => inst,
        AnyInstance::Cluster(_) => unreachable!("facility-location spec"),
    };
    let cfg = FlConfig::from(&RunConfig::new(0.1).with_seed(1));
    let sol = greedy::parallel_greedy(&inst, &cfg);

    assert_eq!(sol.lower_bound, 456951.134014683);
    assert_eq!(sol.cost, 544571.6552777771);
    assert_eq!(sol.cost / sol.lower_bound, 1.1917503092579669);

    let scale = dual::max_feasible_scaling(&inst, &sol.alpha, 40);
    let scaled: Vec<f64> = sol.alpha.iter().map(|a| a * scale).collect();
    assert_eq!(
        dual::dual_value(&scaled).to_bits(),
        sol.lower_bound.to_bits()
    );
    assert_eq!(dual::check_alpha_feasible(&inst, &scaled, 1e-9), Ok(()));
}
