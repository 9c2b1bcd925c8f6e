//! The dual of the facility-location LP (the right-hand program of Figure 1) and the
//! dual-fitting machinery the paper's analyses rely on.
//!
//! ```text
//! maximise   Σ_j α_j
//! subject to Σ_j β_ij          <= f_i     for every facility i
//!            α_j − β_ij        <= d(j,i)  for every facility i, client j
//!            α_j >= 0, β_ij >= 0
//! ```
//!
//! By weak LP duality the value `Σ_j α_j` of **any** feasible dual solution is a lower
//! bound on the optimal fractional (hence also integral) cost. Both parallel
//! facility-location algorithms produce α vectors:
//!
//! * the primal-dual algorithm of Section 5 produces a dual-feasible α directly
//!   (Claim 5.1), and
//! * the greedy algorithm of Section 4 produces α values that become feasible after
//!   scaling down by γ = 1.861 (Lemma 4.6) or by 3 (Lemma 4.7).
//!
//! The experiment harness uses these α vectors (and the LP value) to certify measured
//! approximation ratios.

use parfaclo_metric::{DistanceOracle, FlInstance};
use rayon::prelude::*;

/// Tolerance of the feasibility test inside [`max_feasible_scaling`].
const SCALING_TOL: f64 = 1e-9;

/// Clients per `col_range_into` call of a facility's column sweep.
const COL_BLOCK: usize = 1024;

/// Canonical β choice for a given α: `β_ij = max(0, α_j − d(j,i))`.
///
/// This choice satisfies the `α_j − β_ij <= d(j,i)` constraints by construction and is
/// the one the paper always uses, so dual feasibility of `(α, β)` reduces to the
/// per-facility constraint checked by [`check_alpha_feasible`].
pub fn canonical_beta(inst: &FlInstance, alpha: &[f64], i: usize, j: usize) -> f64 {
    (alpha[j] - inst.dist(j, i)).max(0.0)
}

/// The dual objective `Σ_j α_j`.
pub fn dual_value(alpha: &[f64]) -> f64 {
    alpha.iter().sum()
}

/// Facility `i`'s support under α: the pairs `(d(j,i), α_j)` with `α_j > d(j,i)`, in
/// ascending `j`, from one blocked sweep of the facility's column.
///
/// Every other client has `α_j·s − d(j,i) <= 0` at each scale `s <= 1`, so its
/// canonical β is an exact zero, which leaves an IEEE sum of non-negative terms
/// unchanged (up to the sign of a zero sum).
fn facility_support(inst: &FlInstance, alpha: &[f64], i: usize) -> Vec<(f64, f64)> {
    let mut col = vec![0.0; COL_BLOCK.min(alpha.len())];
    let mut support = Vec::new();
    for start in (0..alpha.len()).step_by(COL_BLOCK) {
        let block = &mut col[..COL_BLOCK.min(alpha.len() - start)];
        inst.distances().col_range_into(i, start, block);
        for (&d, &a) in block.iter().zip(&alpha[start..]) {
            if a > d {
                support.push((d, a));
            }
        }
    }
    support
}

/// The excess `Σ_j max(0, α_j·s − d(j,i)) − f_i` of facility `i`'s constraint at scale
/// `s`, summed over its support in ascending `j`, if it exceeds `tol·(1 + |f_i|)`.
fn violation(support: &[(f64, f64)], cost: f64, s: f64, tol: f64) -> Option<f64> {
    let contribution: f64 = support.iter().map(|&(d, a)| (a * s - d).max(0.0)).sum();
    let excess = contribution - cost;
    (excess > tol * (1.0 + cost.abs())).then_some(excess)
}

/// The `granularity`-step dyadic bisection of [`max_feasible_scaling`] against one
/// monotone predicate: 1.0 if `holds(1.0)`, otherwise the largest multiple of
/// `2^-granularity` below 1 at which `holds` is true (0.0 if none is).
fn bisect(granularity: usize, holds: impl Fn(f64) -> bool) -> f64 {
    if holds(1.0) {
        return 1.0;
    }
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    for _ in 0..granularity {
        let mid = 0.5 * (lo + hi);
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Checks that α (with the canonical β) is dual feasible up to tolerance `tol`:
/// finite, at least `-tol` and, for every facility `i`,
/// `Σ_j max(0, α_j − d(j,i)) − f_i <= tol·(1 + |f_i|)`.
///
/// On failure returns `(j, α_j)` for the lowest client whose α_j is non-finite or below
/// `-tol`; otherwise `(i, excess)` for the lowest violating facility. Facilities are
/// checked in parallel, one column sweep each; the sums run in ascending `j` on every
/// backend and thread count, so the excess bits are a pure function of the input.
pub fn check_alpha_feasible(
    inst: &FlInstance,
    alpha: &[f64],
    tol: f64,
) -> Result<(), (usize, f64)> {
    assert_eq!(alpha.len(), inst.num_clients(), "alpha length mismatch");
    if let Some((j, &a)) = alpha
        .iter()
        .enumerate()
        .find(|&(_, &a)| !a.is_finite() || a < -tol)
    {
        return Err((j, a));
    }
    let violations: Vec<Option<f64>> = (0..inst.num_facilities())
        .into_par_iter()
        .map(|i| {
            let support = facility_support(inst, alpha, i);
            violation(&support, inst.facility_cost(i), 1.0, tol)
        })
        .collect();
    violations
        .into_iter()
        .enumerate()
        .find_map(|(i, v)| v.map(|excess| (i, excess)))
        .map_or(Ok(()), Err)
}

/// Largest uniform scaling factor `s <= 1` such that `s·α` passes
/// [`check_alpha_feasible`] at tolerance `1e-9`: 1.0 if α already does, otherwise the
/// largest multiple of `2^-granularity` below 1 at which every facility's
/// floating-point constraint and the sign check hold (0.0 if none does, and for any
/// non-finite α).
///
/// Useful to turn an *infeasible* α (e.g. the raw greedy α before the Lemma 4.6 scaling)
/// into a valid lower bound `s · Σ_j α_j`.
///
/// The result is exactly that of a bisection that runs the full check at every
/// midpoint, computed with one column sweep per facility instead of one per step.
/// Each predicate is monotone in `s` as evaluated in floating point: rounding of
/// `α_j·s`, the subtraction, the `max` and an ordered sum of non-negative terms are all
/// monotone (a negative α_j only ever adds an exact zero, as distances are
/// non-negative), and the most negative α_j decides the sign check. A bisection on a
/// monotone predicate returns its largest passing grid point, so a bisection on their
/// conjunction returns the minimum over the predicates of each one's own result. Each
/// facility's bisection runs on its support alone, in parallel, with the unchanged
/// arithmetic `(α_j·s − d).max(0.0)` summed in ascending `j`.
pub fn max_feasible_scaling(inst: &FlInstance, alpha: &[f64], granularity: usize) -> f64 {
    assert!(granularity >= 2);
    assert_eq!(alpha.len(), inst.num_clients(), "alpha length mismatch");
    if alpha.iter().any(|a| !a.is_finite()) {
        return 0.0;
    }
    let alpha_min = alpha.iter().fold(0.0_f64, |m, &a| m.min(a));
    let sign = bisect(granularity, |s| alpha_min * s >= -SCALING_TOL);
    (0..inst.num_facilities())
        .into_par_iter()
        .map(|i| {
            let support = facility_support(inst, alpha, i);
            let cost = inst.facility_cost(i);
            bisect(granularity, |s| {
                violation(&support, cost, s, SCALING_TOL).is_none()
            })
        })
        .reduce(|| 1.0, f64::min)
        .min(sign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_core::{greedy, primal_dual, FlConfig};
    use parfaclo_metric::gen::{self, FacilityCostModel, GenParams};
    use parfaclo_metric::lower_bounds;
    use parfaclo_metric::{Backend, DistanceMatrix};

    /// The sequential feasibility check the per-facility sweep replaced: a sign pass,
    /// then the facilities in order, with the candidate clients of each from one
    /// radius-`max α` range query on index-capable oracles until a dense result flips
    /// the rest to the full scan. Kept as the reference the sweep must match.
    fn reference_check(inst: &FlInstance, alpha: &[f64], tol: f64) -> Result<(), (usize, f64)> {
        assert_eq!(alpha.len(), inst.num_clients(), "alpha length mismatch");
        for (j, &a) in alpha.iter().enumerate() {
            if a < -tol {
                return Err((j, a));
            }
        }
        let alpha_max = alpha.iter().fold(0.0_f64, |m, &a| m.max(a));
        let nc = inst.num_clients();
        let mut use_index = inst.distances().has_sublinear_queries();
        for i in 0..inst.num_facilities() {
            let contribution: f64 = if use_index {
                let candidates = inst.distances().rows_within(i, alpha_max);
                if candidates.len() * 2 > nc {
                    use_index = false;
                }
                candidates
                    .into_iter()
                    .map(|j| canonical_beta(inst, alpha, i, j))
                    .sum()
            } else {
                (0..nc).map(|j| canonical_beta(inst, alpha, i, j)).sum()
            };
            let excess = contribution - inst.facility_cost(i);
            if excess > tol * (1.0 + inst.facility_cost(i).abs()) {
                return Err((i, excess));
            }
        }
        Ok(())
    }

    /// The bisection the per-facility certificate replaced: one full
    /// [`reference_check`] of the scaled α at every midpoint.
    fn reference_scaling(inst: &FlInstance, alpha: &[f64], granularity: usize) -> f64 {
        if reference_check(inst, alpha, 1e-9).is_ok() {
            return 1.0;
        }
        let mut lo = 0.0_f64;
        let mut hi = 1.0_f64;
        for _ in 0..granularity {
            let mid = 0.5 * (lo + hi);
            let scaled: Vec<f64> = alpha.iter().map(|a| a * mid).collect();
            if reference_check(inst, &scaled, 1e-9).is_ok() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// A check result with the excess as bits, so `==` compares payloads exactly.
    fn bits(r: Result<(), (usize, f64)>) -> Result<(), (usize, u64)> {
        r.map_err(|(i, e)| (i, e.to_bits()))
    }

    fn scaled(alpha: &[f64], s: f64) -> Vec<f64> {
        alpha.iter().map(|a| a * s).collect()
    }

    /// Asserts that the certificate and the check agree bit for bit with the
    /// references on `alpha`, at its scale and just above it.
    fn assert_matches_reference(inst: &FlInstance, alpha: &[f64], case: &str) {
        for granularity in [2, 40] {
            let s = max_feasible_scaling(inst, alpha, granularity);
            let want = reference_scaling(inst, alpha, granularity);
            assert_eq!(
                s.to_bits(),
                want.to_bits(),
                "{case}, granularity {granularity}: scale {s} vs reference {want}"
            );
            let above = (s + 0.5_f64.powi(granularity as i32)).min(1.0);
            for (label, a) in [
                ("unscaled", alpha.to_vec()),
                ("at scale", scaled(alpha, s)),
                ("above scale", scaled(alpha, above)),
            ] {
                for tol in [1e-9, 1e-6] {
                    assert_eq!(
                        bits(check_alpha_feasible(inst, &a, tol)),
                        bits(reference_check(inst, &a, tol)),
                        "{case}, granularity {granularity}, {label}, tol {tol}"
                    );
                }
            }
        }
    }

    /// The α vectors of the reference comparison: γ_per_client, greedy's and
    /// primal-dual's α, and γ with a 1e6 outlier and with one negative entry.
    fn alpha_cases(inst: &FlInstance, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
        let cfg = FlConfig::new(0.1).with_seed(seed);
        let gamma = inst.gamma_per_client();
        let mut outlier = gamma.clone();
        outlier[seed as usize % gamma.len()] = 1e6;
        let mut negative = gamma.clone();
        negative[(seed as usize * 7 + 1) % gamma.len()] = -0.25;
        vec![
            ("gamma", gamma),
            ("greedy", greedy::parallel_greedy(inst, &cfg).alpha),
            (
                "primal-dual",
                primal_dual::parallel_primal_dual(inst, &cfg).alpha,
            ),
            ("outlier", outlier),
            ("negative", negative),
        ]
    }

    #[test]
    fn per_facility_certificate_matches_the_full_check_bisection() {
        // 150 clients keep the spatial backend above its flat-scan cutoff, so the
        // reference check takes its range-query path there.
        for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
            for seed in 0..6 {
                let params = if seed % 2 == 0 {
                    GenParams::uniform_square(150, 24)
                } else {
                    GenParams::gaussian_clusters(150, 24, 4)
                };
                let inst = gen::build_facility_location(params.with_seed(seed), backend)
                    .expect("generate");
                for (name, alpha) in alpha_cases(&inst, seed) {
                    assert_matches_reference(&inst, &alpha, &format!("{backend:?}/{seed}/{name}"));
                }
            }
        }
    }

    #[test]
    fn per_facility_certificate_matches_on_edge_cases() {
        for backend in [Backend::Dense, Backend::Implicit, Backend::Spatial] {
            for seed in 0..3 {
                let zero_cost = GenParams::uniform_square(100, 12)
                    .with_cost_model(FacilityCostModel::Zero)
                    .with_seed(seed);
                let single_client = GenParams::uniform_square(1, 5).with_seed(seed);
                let single_facility = GenParams::uniform_square(80, 1).with_seed(seed);
                for (label, params) in [
                    ("zero-cost", zero_cost),
                    ("n=1", single_client),
                    ("one-facility", single_facility),
                ] {
                    let inst = gen::build_facility_location(params, backend).expect("generate");
                    for (name, alpha) in alpha_cases(&inst, seed) {
                        let case = format!("{label}/{backend:?}/{seed}/{name}");
                        assert_matches_reference(&inst, &alpha, &case);
                    }
                }
                // An α that is already feasible certifies at scale 1.
                let inst = gen::build_facility_location(
                    GenParams::uniform_square(100, 12).with_seed(seed),
                    backend,
                )
                .expect("generate");
                let gamma = inst.gamma_per_client();
                let feasible = scaled(&gamma, max_feasible_scaling(&inst, &gamma, 40));
                assert_eq!(max_feasible_scaling(&inst, &feasible, 40), 1.0);
                assert_eq!(reference_scaling(&inst, &feasible, 40), 1.0);
            }
        }
    }

    #[test]
    fn non_finite_alpha_is_rejected_and_certifies_nothing() {
        // A NaN α_j used to pass: `NaN < -tol` is false and `NaN.max(0.0)` is 0.0, so the
        // certificate came out at scale 1 with a NaN lower bound.
        let inst = FlInstance::new(vec![1.0], DistanceMatrix::from_rows(2, 1, vec![0.0, 0.5]));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let alpha = [0.25, bad];
            let (j, a) = check_alpha_feasible(&inst, &alpha, 1e-9).unwrap_err();
            assert_eq!((j, a.to_bits()), (1, bad.to_bits()), "α_1 = {bad}");
            assert_eq!(max_feasible_scaling(&inst, &alpha, 40), 0.0, "α_1 = {bad}");
        }
    }

    #[test]
    fn zero_alpha_is_always_feasible() {
        let inst = gen::facility_location(GenParams::uniform_square(6, 4).with_seed(1));
        let alpha = vec![0.0; 6];
        assert!(check_alpha_feasible(&inst, &alpha, 1e-9).is_ok());
        assert_eq!(dual_value(&alpha), 0.0);
    }

    #[test]
    fn feasible_alpha_lower_bounds_opt() {
        // α_j = γ_j / 2 need not be feasible in general, so use max_feasible_scaling to
        // produce a certified bound and compare against the brute-force optimum.
        for seed in 0..5 {
            let inst = gen::facility_location(GenParams::uniform_square(7, 4).with_seed(seed));
            let alpha: Vec<f64> = inst.gamma_per_client();
            let s = max_feasible_scaling(&inst, &alpha, 40);
            let scaled: Vec<f64> = alpha.iter().map(|a| a * s).collect();
            assert!(check_alpha_feasible(&inst, &scaled, 1e-7).is_ok());
            let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
            assert!(
                dual_value(&scaled) <= opt + 1e-6,
                "seed {seed}: dual value {} exceeds optimum {opt}",
                dual_value(&scaled)
            );
        }
    }

    #[test]
    fn infeasible_alpha_is_rejected() {
        // One facility with cost 1, one client at distance 0. α = 2 over-pays.
        let inst = FlInstance::new(vec![1.0], DistanceMatrix::from_rows(1, 1, vec![0.0]));
        assert!(check_alpha_feasible(&inst, &[2.0], 1e-9).is_err());
        assert!(check_alpha_feasible(&inst, &[1.0], 1e-9).is_ok());
        assert!(check_alpha_feasible(&inst, &[-0.5], 1e-9).is_err());
    }

    #[test]
    fn canonical_beta_matches_definition() {
        let inst = FlInstance::new(
            vec![1.0, 2.0],
            DistanceMatrix::from_rows(1, 2, vec![3.0, 5.0]),
        );
        let alpha = vec![4.0];
        assert_eq!(canonical_beta(&inst, &alpha, 0, 0), 1.0);
        assert_eq!(canonical_beta(&inst, &alpha, 1, 0), 0.0);
    }

    #[test]
    fn scaling_of_feasible_alpha_is_one() {
        let inst = gen::facility_location(GenParams::uniform_square(5, 3).with_seed(2));
        let alpha = vec![0.0; 5];
        assert_eq!(max_feasible_scaling(&inst, &alpha, 20), 1.0);
    }

    #[test]
    fn weak_duality_against_lp() {
        use crate::faclp::solve_facility_lp;
        for seed in 0..3 {
            let inst =
                gen::facility_location(GenParams::gaussian_clusters(6, 4, 2).with_seed(seed));
            let lp = solve_facility_lp(&inst).expect("lp");
            // Any feasible dual value is at most the LP optimum.
            let alpha: Vec<f64> = inst.gamma_per_client();
            let s = max_feasible_scaling(&inst, &alpha, 40);
            let scaled: Vec<f64> = alpha.iter().map(|a| a * s).collect();
            assert!(
                dual_value(&scaled) <= lp.value() + 1e-6,
                "seed {seed}: dual {} > primal {}",
                dual_value(&scaled),
                lp.value()
            );
        }
    }
}
