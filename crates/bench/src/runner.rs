//! The engine behind the `parfaclo` CLI: generator-spec parsing, instance
//! construction, solver dispatch and JSON emission.
//!
//! Kept in the library (rather than the binary) so the conformance tests can
//! exercise exactly the code path the CLI runs.

use parfaclo_api::{
    AnyInstance, Backend, BuildError, ProblemKind, Registry, Run, RunConfig, SolveError,
};
use parfaclo_metric::gen::{self, GenParams};

/// A parsed `--gen` specification, e.g. `uniform:n=2000,k=40`.
///
/// Grammar: `<workload>[:key=value[,key=value]*]` with workloads `uniform`,
/// `clustered`, `grid`, `line`, `planted`, the sparse-metric workloads
/// `powerlaw` (power-law cluster sizes — a few heavy hubs, a long singleton
/// tail, `O(n)` threshold-graph edges) and `road` (road-network-like
/// bounded-degree metric), the preset `medium` (uniform, n=2000, nf=64 —
/// big enough that every solver phase does real work, small enough for CI
/// smoke runs), the large presets `large` (uniform, n=100000,
/// nf=100) and `xlarge` (uniform, n=1000000, nf=50) — both sized for the
/// implicit/spatial backends; the dense matrix at these scales is
/// 80 MB–400 MB for facility location and entirely out of reach for square
/// clustering instances — `xxlarge` (uniform, n=10000000, nf=100), which
/// only the spatial backend makes practical (the implicit backend's O(n)
/// sweeps put every structured query at 10M distance evaluations), and the
/// sparse presets `sparse-large` (road, n=100000) and `sparse-xlarge`
/// (powerlaw, n=1000000) — the workloads whose threshold graphs the CSR
/// graph backend (`--graph csr`) handles at scales the dense bit matrix
/// cannot represent — and keys
///
/// * `n` — number of clients / nodes (default 200),
/// * `nf` (alias `k`) — number of candidate facilities for facility-location
///   instances; ignored by clustering instances (default `n / 2`),
/// * `c` — number of blobs for `clustered` / `planted` (default 8),
/// * `seed` — generator seed (defaults to the run seed).
#[derive(Debug, Clone, PartialEq)]
pub struct GenSpec {
    /// Workload name (one of the five spatial models).
    pub workload: String,
    /// Number of clients / nodes.
    pub n: usize,
    /// Number of candidate facilities (facility-location instances only).
    pub nf: usize,
    /// Number of blobs (clustered / planted workloads only).
    pub clusters: usize,
    /// Generator seed override; `None` follows the run seed.
    pub seed: Option<u64>,
}

impl GenSpec {
    /// Parses a `--gen` argument.
    pub fn parse(spec: &str) -> Result<GenSpec, String> {
        let (workload, rest) = match spec.split_once(':') {
            Some((w, r)) => (w, r),
            None => (spec, ""),
        };
        let workload = workload.trim().to_lowercase();
        // Large presets expand to a uniform workload at implicit-backend
        // scale; explicit key=value options still override their dimensions.
        let mut out = match workload.as_str() {
            "medium" => GenSpec {
                workload: "uniform".to_string(),
                n: 2_000,
                nf: 64,
                clusters: 8,
                seed: None,
            },
            "large" => GenSpec {
                workload: "uniform".to_string(),
                n: 100_000,
                nf: 100,
                clusters: 8,
                seed: None,
            },
            "xlarge" => GenSpec {
                workload: "uniform".to_string(),
                n: 1_000_000,
                nf: 50,
                clusters: 8,
                seed: None,
            },
            "xxlarge" => GenSpec {
                workload: "uniform".to_string(),
                n: 10_000_000,
                nf: 100,
                clusters: 8,
                seed: None,
            },
            "sparse-large" => GenSpec {
                workload: "road".to_string(),
                n: 100_000,
                nf: 100,
                clusters: 8,
                seed: None,
            },
            "sparse-xlarge" => GenSpec {
                workload: "powerlaw".to_string(),
                n: 1_000_000,
                nf: 50,
                clusters: 8,
                seed: None,
            },
            "uniform" | "clustered" | "grid" | "line" | "planted" | "powerlaw" | "road" => {
                GenSpec {
                    workload,
                    n: 200,
                    nf: 0,
                    clusters: 8,
                    seed: None,
                }
            }
            _ => {
                return Err(format!(
                    "unknown workload '{workload}' \
                     (expected uniform|clustered|grid|line|planted|powerlaw|road\
                     |medium|large|xlarge|xxlarge|sparse-large|sparse-xlarge)"
                ))
            }
        };
        for pair in rest.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair.split_once('=').ok_or_else(|| {
                format!("malformed generator option '{pair}' (expected key=value)")
            })?;
            let value = value.trim();
            match key.trim() {
                "n" => out.n = parse_usize(value, "n")?,
                "nf" | "k" => out.nf = parse_usize(value, "nf")?,
                "c" | "clusters" => out.clusters = parse_usize(value, "c")?,
                "seed" => {
                    out.seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("invalid seed '{value}'"))?,
                    )
                }
                other => return Err(format!("unknown generator option '{other}'")),
            }
        }
        if out.n == 0 {
            return Err("generator needs n >= 1".to_string());
        }
        if out.nf == 0 {
            out.nf = (out.n / 2).max(1);
        }
        Ok(out)
    }

    /// Materialises the generator parameters, defaulting the seed to
    /// `fallback_seed`.
    pub fn params(&self, fallback_seed: u64) -> GenParams {
        let base = match self.workload.as_str() {
            "uniform" => GenParams::uniform_square(self.n, self.nf),
            "clustered" => GenParams::gaussian_clusters(self.n, self.nf, self.clusters),
            "grid" => GenParams::grid(self.n, self.nf),
            "line" => GenParams::line(self.n, self.nf),
            "planted" => GenParams::planted(self.n, self.nf, self.clusters),
            "powerlaw" => GenParams::power_law(self.n, self.nf),
            "road" => GenParams::road(self.n, self.nf),
            other => unreachable!("workload '{other}' rejected at parse time"),
        };
        base.with_seed(self.seed.unwrap_or(fallback_seed))
    }

    /// Generates the instance variant the given problem family consumes,
    /// under the requested distance backend. The dense path reports
    /// overflowing matrix shapes as a typed error instead of aborting, and
    /// refuses matrices past [`DENSE_BYTES_CAP`] with a pointer at the
    /// point-backed backends (the `xxlarge` preset under the default dense
    /// backend would otherwise attempt an unguarded 8 GB allocation and be
    /// OOM-killed instead of erroring helpfully).
    pub fn instance(
        &self,
        problem: ProblemKind,
        fallback_seed: u64,
        backend: Backend,
    ) -> Result<AnyInstance, BuildError> {
        if backend == Backend::Dense {
            let cols = match problem {
                ProblemKind::FacilityLocation => self.nf,
                ProblemKind::KClustering | ProblemKind::DominatorSet => self.n,
            };
            let bytes = (self.n as u128) * (cols as u128) * 8;
            if bytes > DENSE_BYTES_CAP as u128 {
                return Err(BuildError::DenseBytesExceedCap {
                    rows: self.n,
                    cols,
                    cap_bytes: DENSE_BYTES_CAP,
                });
            }
        }
        let params = self.params(fallback_seed);
        // Under an installed tracer the generator + backend construction
        // shows up as its own top-level phase, outside any solve span.
        let _span = parfaclo_trace::span("instance-build", None);
        match problem {
            ProblemKind::FacilityLocation => {
                gen::build_facility_location(params, backend).map(AnyInstance::Fl)
            }
            ProblemKind::KClustering | ProblemKind::DominatorSet => {
                gen::build_clustering(params, backend).map(AnyInstance::Cluster)
            }
        }
    }
}

/// Largest dense distance matrix the CLI will materialise (4 GiB). The
/// limit lives in the runner, not the metric library: programmatic callers
/// of `try_facility_location` keep the overflow-only check, but a CLI
/// invocation hitting this is virtually always a missing `--backend`
/// choice, not a deliberate half-memory allocation.
pub const DENSE_BYTES_CAP: u64 = 4 << 30;

fn parse_usize(value: &str, key: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map_err(|_| format!("invalid value '{value}' for generator option '{key}'"))
}

/// Lazily generated instance variants for one [`GenSpec`] and backend, so
/// sweeps build each instance once per workload instead of once per solver.
pub struct InstanceCache<'a> {
    spec: &'a GenSpec,
    fallback_seed: u64,
    backend: Backend,
    fl: Option<AnyInstance>,
    cluster: Option<AnyInstance>,
}

impl<'a> InstanceCache<'a> {
    /// Creates an empty cache for the given spec; nothing is generated yet.
    pub fn new(spec: &'a GenSpec, fallback_seed: u64, backend: Backend) -> Self {
        InstanceCache {
            spec,
            fallback_seed,
            backend,
            fl: None,
            cluster: None,
        }
    }

    /// The instance variant the given problem family consumes, generated on
    /// first use. Errors if dense generation is requested at an overflowing
    /// size.
    pub fn get(&mut self, problem: ProblemKind) -> Result<&AnyInstance, BuildError> {
        let (spec, seed, backend) = (self.spec, self.fallback_seed, self.backend);
        let slot = match problem {
            ProblemKind::FacilityLocation => &mut self.fl,
            ProblemKind::KClustering | ProblemKind::DominatorSet => &mut self.cluster,
        };
        if slot.is_none() {
            *slot = Some(spec.instance(problem, seed, backend)?);
        }
        Ok(slot.as_ref().expect("slot filled above"))
    }
}

/// Runs one named solver on a freshly generated instance.
pub fn run_solver(
    registry: &Registry,
    solver: &str,
    spec: &GenSpec,
    cfg: &RunConfig,
) -> Result<Run, String> {
    run_solver_cached(
        registry,
        solver,
        &mut InstanceCache::new(spec, cfg.seed, cfg.backend),
        cfg,
    )
}

/// Runs one named solver, reusing instances already generated in `cache`.
pub fn run_solver_cached(
    registry: &Registry,
    solver: &str,
    cache: &mut InstanceCache<'_>,
    cfg: &RunConfig,
) -> Result<Run, String> {
    let entry = registry.get(solver).ok_or_else(|| {
        format!(
            "no solver named '{solver}'; available: {}",
            registry.names().join(", ")
        )
    })?;
    // Construction failures become `SolveError::Build` here — the registry
    // boundary — so callers see one error type family for "could not build"
    // and "could not solve" alike.
    let inst = cache
        .get(entry.problem())
        .map_err(|e| SolveError::from(e).to_string())?;
    entry.run(inst, cfg).map_err(|e| e.to_string())
}

/// Serialises a batch of runs as a JSON array (one stable schema for all
/// experiments; see [`parfaclo_api::RUN_SCHEMA`]).
pub fn runs_to_json(runs: &[Run]) -> String {
    let mut out = String::from("[");
    for (idx, run) in runs.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str(&run.to_json());
    }
    out.push(']');
    out
}

/// One aligned table row summarising a run (pairs with [`table_header`]).
pub fn table_row(run: &Run) -> Vec<String> {
    vec![
        run.solver.clone(),
        run.problem.to_string(),
        run.n.to_string(),
        format!("{:.3}", run.cost),
        format!("{:.3}", run.lower_bound),
        run.certified_ratio()
            .map_or_else(|| "-".to_string(), |r| format!("{r:.3}")),
        run.rounds.to_string(),
        run.work.element_ops.to_string(),
        run.backend.to_string(),
        run.memory_bytes.to_string(),
        run.threads.to_string(),
        format!("{:.2}", run.wall_ms),
    ]
}

/// Header matching [`table_row`].
pub fn table_header() -> Vec<&'static str> {
    vec![
        "solver",
        "problem",
        "n",
        "cost",
        "lower_bnd",
        "ratio",
        "rounds",
        "work",
        "backend",
        "mem_bytes",
        "thr",
        "ms",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::standard_registry;

    #[test]
    fn gen_spec_parses_issue_example() {
        let spec = GenSpec::parse("uniform:n=2000,k=40").unwrap();
        assert_eq!(spec.workload, "uniform");
        assert_eq!(spec.n, 2000);
        assert_eq!(spec.nf, 40);
        assert_eq!(spec.seed, None);
    }

    #[test]
    fn large_presets_parse_and_allow_overrides() {
        let medium = GenSpec::parse("medium").unwrap();
        assert_eq!(medium.workload, "uniform");
        assert_eq!(medium.n, 2_000);
        assert_eq!(medium.nf, 64);
        let large = GenSpec::parse("large").unwrap();
        assert_eq!(large.workload, "uniform");
        assert_eq!(large.n, 100_000);
        assert_eq!(large.nf, 100);
        let xl = GenSpec::parse("xlarge").unwrap();
        assert_eq!(xl.n, 1_000_000);
        assert_eq!(xl.nf, 50);
        let xxl = GenSpec::parse("xxlarge").unwrap();
        assert_eq!(xxl.workload, "uniform");
        assert_eq!(xxl.n, 10_000_000);
        assert_eq!(xxl.nf, 100);
        // Explicit keys override the preset's dimensions.
        let tuned = GenSpec::parse("large:nf=32,seed=9").unwrap();
        assert_eq!(tuned.n, 100_000);
        assert_eq!(tuned.nf, 32);
        assert_eq!(tuned.seed, Some(9));
        let small_xxl = GenSpec::parse("xxlarge:n=1000").unwrap();
        assert_eq!(small_xxl.n, 1000);
        assert_eq!(small_xxl.nf, 100);
    }

    #[test]
    fn implicit_and_spatial_backend_runs_match_dense_byte_for_byte() {
        let registry = standard_registry();
        let spec = GenSpec::parse("uniform:n=60,nf=24").unwrap();
        let base = RunConfig::new(0.1).with_seed(4).with_k(3);
        for name in ["greedy", "kcenter", "maxdom"] {
            let dense = run_solver(&registry, name, &spec, &base).unwrap();
            for backend in [
                parfaclo_api::Backend::Implicit,
                parfaclo_api::Backend::Spatial,
            ] {
                let other = run_solver(&registry, name, &spec, &base.clone().with_backend(backend))
                    .unwrap();
                assert_eq!(dense.backend, parfaclo_api::Backend::Dense);
                assert_eq!(other.backend, backend);
                assert!(
                    other.memory_bytes < dense.memory_bytes,
                    "{name}/{backend}: {} >= dense {}",
                    other.memory_bytes,
                    dense.memory_bytes
                );
                assert_eq!(
                    dense.canonical_json(),
                    other.canonical_json(),
                    "{name}: {backend} diverged from dense"
                );
            }
        }
    }

    /// The xxlarge-on-default-dense footgun: a matrix past the 4 GiB cap
    /// must come back as a typed error pointing at the point-backed
    /// backends — never as an attempted allocation.
    #[test]
    fn oversized_dense_matrix_is_refused_with_a_backend_pointer() {
        let spec = GenSpec::parse("xxlarge").unwrap();
        let err = spec
            .instance(
                ProblemKind::FacilityLocation,
                0,
                parfaclo_api::Backend::Dense,
            )
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("spatial"),
            "error must point at spatial: {err}"
        );
        assert!(err.contains("GiB"), "error must name the size: {err}");
        // The square clustering matrix trips the cap at much smaller n.
        let spec = GenSpec::parse("uniform:n=30000").unwrap();
        assert!(spec
            .instance(ProblemKind::KClustering, 0, parfaclo_api::Backend::Dense)
            .is_err());
        // The point-backed backends are untouched by the cap (shape check
        // only — no generation at 10M points in a unit test).
        let spec = GenSpec::parse("xxlarge:n=1000").unwrap();
        assert!(spec
            .instance(
                ProblemKind::FacilityLocation,
                0,
                parfaclo_api::Backend::Spatial
            )
            .is_ok());
    }

    #[test]
    fn sparse_presets_parse_with_sparse_workloads() {
        let sl = GenSpec::parse("sparse-large").unwrap();
        assert_eq!(sl.workload, "road");
        assert_eq!(sl.n, 100_000);
        let sxl = GenSpec::parse("sparse-xlarge").unwrap();
        assert_eq!(sxl.workload, "powerlaw");
        assert_eq!(sxl.n, 1_000_000);
        // Bare sparse workloads parse at the default size and generate.
        let spec = GenSpec::parse("powerlaw:n=50").unwrap();
        assert!(spec
            .instance(ProblemKind::DominatorSet, 1, parfaclo_api::Backend::Spatial)
            .is_ok());
        let spec = GenSpec::parse("road:n=50").unwrap();
        assert!(spec
            .instance(
                ProblemKind::DominatorSet,
                1,
                parfaclo_api::Backend::Implicit
            )
            .is_ok());
    }

    #[test]
    fn gen_spec_defaults_and_errors() {
        let spec = GenSpec::parse("planted").unwrap();
        assert_eq!(spec.n, 200);
        assert_eq!(spec.nf, 100);
        assert_eq!(spec.clusters, 8);
        assert!(GenSpec::parse("mystery").is_err());
        assert!(GenSpec::parse("uniform:n=abc").is_err());
        assert!(GenSpec::parse("uniform:n").is_err());
        assert!(GenSpec::parse("uniform:n=0").is_err());
        assert!(GenSpec::parse("uniform:zz=3").is_err());
    }

    #[test]
    fn run_solver_routes_by_problem_kind() {
        let registry = standard_registry();
        let spec = GenSpec::parse("uniform:n=16,nf=8").unwrap();
        let cfg = RunConfig::new(0.1).with_seed(3).with_k(3);
        let fl = run_solver(&registry, "greedy", &spec, &cfg).unwrap();
        assert_eq!(fl.problem, ProblemKind::FacilityLocation);
        let kc = run_solver(&registry, "kcenter", &spec, &cfg).unwrap();
        assert_eq!(kc.problem, ProblemKind::KClustering);
        let dom = run_solver(&registry, "maxdom", &spec, &cfg).unwrap();
        assert_eq!(dom.problem, ProblemKind::DominatorSet);
        for run in [&fl, &kc, &dom] {
            run.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", run.solver));
        }
    }

    #[test]
    fn lp_rounding_refuses_the_medium_preset_instead_of_aborting() {
        // The dense simplex tableau at n = 2000, nf = 64 would take ~376 GiB;
        // the registry returns the LP's typed refusal before allocating it.
        let registry = standard_registry();
        let spec = GenSpec::parse("medium").unwrap();
        let err = run_solver(&registry, "lp-rounding", &spec, &RunConfig::default()).unwrap_err();
        for needle in [
            "solver 'lp-rounding'",
            "403587600000 bytes",
            "4294967296-byte",
            "greedy or primal-dual",
        ] {
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn unknown_solver_lists_alternatives() {
        let registry = standard_registry();
        let spec = GenSpec::parse("uniform:n=8").unwrap();
        let err = run_solver(&registry, "ghost", &spec, &RunConfig::default()).unwrap_err();
        assert!(err.contains("greedy"), "error should list names: {err}");
    }

    #[test]
    fn json_batch_is_an_array_of_schema_records() {
        let registry = standard_registry();
        let spec = GenSpec::parse("uniform:n=10,nf=5").unwrap();
        let cfg = RunConfig::new(0.1).with_seed(1);
        let a = run_solver(&registry, "greedy", &spec, &cfg).unwrap();
        let b = run_solver(&registry, "jms-greedy", &spec, &cfg).unwrap();
        let json = runs_to_json(&[a, b]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches(parfaclo_api::RUN_SCHEMA).count(), 2);
    }

    #[test]
    fn cached_runs_match_uncached_runs() {
        let registry = standard_registry();
        let spec = GenSpec::parse("uniform:n=14,nf=7").unwrap();
        let cfg = RunConfig::new(0.1).with_seed(9).with_k(3);
        let mut cache = InstanceCache::new(&spec, cfg.seed, cfg.backend);
        for name in ["greedy", "kcenter", "maxdom"] {
            let cached = run_solver_cached(&registry, name, &mut cache, &cfg).unwrap();
            let fresh = run_solver(&registry, name, &spec, &cfg).unwrap();
            assert_eq!(cached.canonical_json(), fresh.canonical_json(), "{name}");
        }
    }

    #[test]
    fn table_shapes_agree() {
        let registry = standard_registry();
        let spec = GenSpec::parse("uniform:n=10,nf=5").unwrap();
        let run = run_solver(&registry, "greedy", &spec, &RunConfig::default()).unwrap();
        assert_eq!(table_row(&run).len(), table_header().len());
    }
}
