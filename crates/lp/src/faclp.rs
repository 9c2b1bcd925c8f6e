//! The facility-location LP relaxation (the primal program of Figure 1) and its
//! solution.
//!
//! ```text
//! minimise   Σ_{i,j} d(j,i) x_ij + Σ_i f_i y_i
//! subject to Σ_i x_ij            >= 1      for every client j
//!            y_i - x_ij          >= 0      for every facility i, client j
//!            x_ij >= 0, y_i >= 0
//! ```
//!
//! The optimal value of this relaxation lower-bounds `opt`, which makes it the
//! certification tool used throughout the experiment harness, and its optimal solution
//! `(x, y)` is the input the parallel rounding algorithm of Section 6.2 expects.

use crate::simplex::{self, Constraint, ConstraintOp, LinearProgram, SimplexOutcome};
use parfaclo_metric::FlInstance;

/// An (optimal or at least feasible) fractional solution of the facility-location LP.
#[derive(Debug, Clone)]
pub struct FlLpSolution {
    num_clients: usize,
    num_facilities: usize,
    /// `x[j * nf + i]` is the fractional assignment of client `j` to facility `i`.
    x: Vec<f64>,
    /// `y[i]` is the fractional opening of facility `i`.
    y: Vec<f64>,
    /// Objective value of `(x, y)`.
    value: f64,
    /// Number of simplex pivots taken to find it (0 if constructed by hand).
    pub pivots: usize,
}

impl FlLpSolution {
    /// Wraps an existing fractional solution (used by tests and by callers that obtain
    /// fractional solutions from elsewhere).
    ///
    /// # Panics
    /// Panics if dimensions are inconsistent.
    pub fn from_parts(inst: &FlInstance, x: Vec<f64>, y: Vec<f64>) -> Self {
        let nc = inst.num_clients();
        let nf = inst.num_facilities();
        assert_eq!(x.len(), nc * nf, "x must have nc*nf entries");
        assert_eq!(y.len(), nf, "y must have nf entries");
        let value = Self::objective_of(inst, &x, &y);
        FlLpSolution {
            num_clients: nc,
            num_facilities: nf,
            x,
            y,
            value,
            pivots: 0,
        }
    }

    fn objective_of(inst: &FlInstance, x: &[f64], y: &[f64]) -> f64 {
        let nf = inst.num_facilities();
        let conn: f64 = (0..inst.num_clients())
            .map(|j| {
                (0..nf)
                    .map(|i| inst.dist(j, i) * x[j * nf + i])
                    .sum::<f64>()
            })
            .sum();
        let open: f64 = (0..nf).map(|i| inst.facility_cost(i) * y[i]).sum();
        conn + open
    }

    /// Fractional assignment `x_ij` of client `j` to facility `i`.
    #[inline]
    pub fn x(&self, j: usize, i: usize) -> f64 {
        self.x[j * self.num_facilities + i]
    }

    /// Fractional opening `y_i`.
    #[inline]
    pub fn y(&self, i: usize) -> f64 {
        self.y[i]
    }

    /// All fractional openings.
    pub fn y_slice(&self) -> &[f64] {
        &self.y
    }

    /// Objective value of the solution — a lower bound on `opt` when the solution is
    /// optimal for the relaxation.
    #[inline]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Number of clients.
    #[inline]
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Number of facilities.
    #[inline]
    pub fn num_facilities(&self) -> usize {
        self.num_facilities
    }

    /// The fractional connection cost `δ_j = Σ_i d(j,i) x_ij` of client `j` (the
    /// quantity the filtering step of Section 6.2 is built around).
    pub fn delta(&self, inst: &FlInstance, j: usize) -> f64 {
        (0..self.num_facilities)
            .map(|i| inst.dist(j, i) * self.x(j, i))
            .sum()
    }

    /// Checks primal feasibility up to tolerance `tol`:
    /// every client fully (fractionally) assigned, assignments covered by openings, and
    /// everything non-negative.
    pub fn check_feasible(&self, inst: &FlInstance, tol: f64) -> Result<(), String> {
        let nc = self.num_clients;
        let nf = self.num_facilities;
        assert_eq!(nc, inst.num_clients());
        assert_eq!(nf, inst.num_facilities());
        for j in 0..nc {
            let total: f64 = (0..nf).map(|i| self.x(j, i)).sum();
            if total < 1.0 - tol {
                return Err(format!("client {j} only {total} assigned"));
            }
            for i in 0..nf {
                if self.x(j, i) < -tol {
                    return Err(format!("x[{j},{i}] negative"));
                }
                if self.x(j, i) > self.y(i) + tol {
                    return Err(format!(
                        "x[{j},{i}] = {} exceeds y[{i}] = {}",
                        self.x(j, i),
                        self.y(i)
                    ));
                }
            }
        }
        for i in 0..nf {
            if self.y(i) < -tol {
                return Err(format!("y[{i}] negative"));
            }
        }
        Ok(())
    }
}

/// Errors from [`solve_facility_lp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The LP was reported infeasible (cannot happen for well-formed instances, since
    /// opening every facility fully is always feasible).
    Infeasible,
    /// The LP was reported unbounded (cannot happen: the objective is non-negative).
    Unbounded,
    /// The dense simplex tableau would exceed [`LP_TABLEAU_BYTES_CAP`]; refused
    /// before anything is allocated.
    TableauTooLarge {
        /// Bytes the tableau would take.
        bytes: u64,
        /// The cap it exceeds.
        cap: u64,
    },
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "facility-location LP reported infeasible"),
            LpError::Unbounded => write!(f, "facility-location LP reported unbounded"),
            LpError::TableauTooLarge { bytes, cap } => write!(
                f,
                "the facility-location LP's dense simplex tableau would take {bytes} bytes \
                 ({:.1} GiB), above the {cap}-byte ({:.0} GiB) cap; use greedy or \
                 primal-dual, which solve no LP",
                *bytes as f64 / (1u64 << 30) as f64,
                *cap as f64 / (1u64 << 30) as f64,
            ),
        }
    }
}

impl std::error::Error for LpError {}

/// Largest dense simplex tableau [`solve_facility_lp`] will allocate: 4 GiB, the
/// same cap as the workspace's other dense scratch buffers.
pub const LP_TABLEAU_BYTES_CAP: u64 = 4 << 30;

/// Bytes of the dense simplex tableau for the LP of an `nc × nf` instance:
/// `nc + nc·nf` rows (all `>=` with a non-negative right-hand side), and
/// columns for the `nc·nf + nf` variables, one surplus and one artificial per
/// row, and the right-hand side. Saturates at `u64::MAX`.
pub fn lp_tableau_bytes(nc: usize, nf: usize) -> u64 {
    let (nc, nf) = (nc as u128, nf as u128);
    let rows = nc * nf + nc;
    rows.checked_mul(2)
        .and_then(|r| r.checked_add(nc * nf + nf + 1))
        .and_then(|cols| rows.checked_mul(cols))
        .and_then(|cells| cells.checked_mul(8))
        .and_then(|bytes| u64::try_from(bytes).ok())
        .unwrap_or(u64::MAX)
}

/// Builds the LP relaxation of Figure 1 for `inst`.
///
/// Variable layout: `x_ij` occupies index `j * nf + i` for `j` in `0..nc`, `i` in
/// `0..nf`; `y_i` occupies index `nc * nf + i`.
pub fn build_facility_lp(inst: &FlInstance) -> LinearProgram {
    let nc = inst.num_clients();
    let nf = inst.num_facilities();
    let num_vars = nc * nf + nf;
    let mut lp = LinearProgram::new(num_vars);
    // Objective.
    for j in 0..nc {
        for i in 0..nf {
            lp.set_objective(j * nf + i, inst.dist(j, i));
        }
    }
    for i in 0..nf {
        lp.set_objective(nc * nf + i, inst.facility_cost(i));
    }
    // Coverage: Σ_i x_ij >= 1.
    for j in 0..nc {
        let coeffs: Vec<(usize, f64)> = (0..nf).map(|i| (j * nf + i, 1.0)).collect();
        lp.add_constraint(Constraint::new(coeffs, ConstraintOp::Ge, 1.0));
    }
    // Capacity: y_i - x_ij >= 0.
    for j in 0..nc {
        for i in 0..nf {
            lp.add_constraint(Constraint::new(
                vec![(nc * nf + i, 1.0), (j * nf + i, -1.0)],
                ConstraintOp::Ge,
                0.0,
            ));
        }
    }
    lp
}

/// Solves the facility-location LP relaxation of `inst` with the simplex solver and
/// returns the optimal fractional solution.
///
/// The work is polynomial but **not** polylogarithmic-depth — exactly the situation the
/// paper describes; the rounding algorithm in `parfaclo-core` treats the result as
/// given input. Instances whose dense tableau would exceed [`LP_TABLEAU_BYTES_CAP`]
/// are refused with [`LpError::TableauTooLarge`] before anything is allocated.
pub fn solve_facility_lp(inst: &FlInstance) -> Result<FlLpSolution, LpError> {
    let nc = inst.num_clients();
    let nf = inst.num_facilities();
    let bytes = lp_tableau_bytes(nc, nf);
    if bytes > LP_TABLEAU_BYTES_CAP {
        return Err(LpError::TableauTooLarge {
            bytes,
            cap: LP_TABLEAU_BYTES_CAP,
        });
    }
    let lp = build_facility_lp(inst);
    let sol = simplex::solve(&lp);
    match sol.outcome {
        SimplexOutcome::Infeasible => Err(LpError::Infeasible),
        SimplexOutcome::Unbounded => Err(LpError::Unbounded),
        SimplexOutcome::Optimal => {
            let x = sol.x[..nc * nf].to_vec();
            let y = sol.x[nc * nf..nc * nf + nf].to_vec();
            let mut out = FlLpSolution::from_parts(inst, x, y);
            out.pivots = sol.pivots;
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, FacilityCostModel, GenParams};
    use parfaclo_metric::lower_bounds;
    use parfaclo_metric::DistanceMatrix;

    #[test]
    fn lp_value_lower_bounds_integral_optimum() {
        for seed in 0..4 {
            let inst = gen::facility_location(GenParams::uniform_square(6, 4).with_seed(seed));
            let lp = solve_facility_lp(&inst).expect("solve");
            lp.check_feasible(&inst, 1e-6).expect("feasible");
            let (_, opt) = lower_bounds::brute_force_facility_location(&inst);
            assert!(
                lp.value() <= opt + 1e-6,
                "seed {seed}: LP value {} exceeds integral optimum {opt}",
                lp.value()
            );
            // The LP relaxation of facility location has integrality gap < 2; sanity
            // check that the bound is not absurdly loose.
            assert!(lp.value() >= opt / 3.0);
        }
    }

    #[test]
    fn tableau_bytes_match_the_built_lp() {
        let inst = gen::facility_location(GenParams::uniform_square(7, 3).with_seed(1));
        let lp = build_facility_lp(&inst);
        // Every row is `>=` with a non-negative right-hand side, so the
        // simplex gives each one surplus and one artificial column.
        assert!(lp
            .constraints
            .iter()
            .all(|c| c.op == ConstraintOp::Ge && c.rhs >= 0.0));
        let rows = lp.constraints.len() as u64;
        let cols = (lp.num_vars + 2 * lp.constraints.len() + 1) as u64;
        assert_eq!(lp_tableau_bytes(7, 3), rows * cols * 8);
        assert_eq!(lp_tableau_bytes(2000, 64), 403_587_600_000);
        assert_eq!(lp_tableau_bytes(10_000_000, 100), u64::MAX, "saturates");
    }

    #[test]
    fn single_facility_lp_is_exact() {
        // With one facility the LP optimum equals the integral optimum: open it.
        let dist = DistanceMatrix::from_rows(3, 1, vec![1.0, 2.0, 3.0]);
        let inst = FlInstance::new(vec![5.0], dist);
        let lp = solve_facility_lp(&inst).expect("solve");
        assert!((lp.value() - 11.0).abs() < 1e-6);
        assert!((lp.y(0) - 1.0).abs() < 1e-6);
        for j in 0..3 {
            assert!((lp.x(j, 0) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_cost_facilities_give_zero_opening_cost() {
        let inst = gen::facility_location(
            GenParams::uniform_square(5, 3)
                .with_seed(9)
                .with_cost_model(FacilityCostModel::Zero),
        );
        let lp = solve_facility_lp(&inst).expect("solve");
        // With free facilities the LP just assigns each client to its nearest facility.
        let expected: f64 = (0..5)
            .map(|j| {
                (0..3)
                    .map(|i| inst.dist(j, i))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        assert!((lp.value() - expected).abs() < 1e-6);
    }

    #[test]
    fn delta_matches_definition() {
        let inst = gen::facility_location(GenParams::uniform_square(4, 3).with_seed(3));
        let lp = solve_facility_lp(&inst).expect("solve");
        for j in 0..4 {
            let direct: f64 = (0..3).map(|i| inst.dist(j, i) * lp.x(j, i)).sum();
            assert!((lp.delta(&inst, j) - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn check_feasible_rejects_bad_solutions() {
        let dist = DistanceMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        let inst = FlInstance::new(vec![1.0, 1.0], dist);
        // Client 1 not fully assigned.
        let bad = FlLpSolution::from_parts(&inst, vec![1.0, 0.0, 0.3, 0.0], vec![1.0, 0.0]);
        assert!(bad.check_feasible(&inst, 1e-9).is_err());
        // Assignment exceeding opening.
        let bad2 = FlLpSolution::from_parts(&inst, vec![1.0, 0.0, 1.0, 0.0], vec![0.5, 0.0]);
        assert!(bad2.check_feasible(&inst, 1e-9).is_err());
        // A genuinely feasible solution passes.
        let good = FlLpSolution::from_parts(&inst, vec![1.0, 0.0, 1.0, 0.0], vec![1.0, 0.0]);
        assert!(good.check_feasible(&inst, 1e-9).is_ok());
        assert!((good.value() - (1.0 + 2.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn lp_bounded_by_gamma_bounds() {
        let inst = gen::facility_location(GenParams::gaussian_clusters(6, 5, 2).with_seed(8));
        let lp = solve_facility_lp(&inst).expect("solve");
        let gb = lower_bounds::gamma_bounds(&inst);
        // γ is a lower bound on opt but NOT necessarily on the LP value; however the LP
        // value is at most the integral optimum which is at most gamma_sum.
        assert!(lp.value() <= gb.upper + 1e-6);
    }
}
