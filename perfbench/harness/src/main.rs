//! Layer harness of the parfaclo benchmark.
//!
//! ```text
//! perfbench-harness --workload <name> --seed <n> --trace-out <path>
//! ```
//!
//! Builds the workload's inputs from the seed, times calls into each crate's
//! public functions at 2 threads (and, for the `_1t` metrics, at 1 thread),
//! checks what the calls return, and prints one JSON line:
//! `{"metrics": {..}, "checks": n, "failures": [..], "ops": n, "self_time_s": {..}}`.
//!
//! One `parfaclo_trace::Tracer` is installed for the whole run and every
//! timed call is a span on it, named `<layer>@<threads>t`, so the program's
//! own spans (`spatial-index`, `solve:<solver>` and the solvers' phases) nest
//! under the call that ran them. The trace goes to `--trace-out` as Chrome
//! trace-event JSON; the solver phase timings, the op of each span (its
//! top-level ancestor) and the per-span self times are read back from that
//! one export.
//!
//! Layers that take any point set (metric, spatial, kernel, api) run on the
//! workload's own points. The facility-location layers (core, lp, matrixops,
//! bucket) run on the workload's instance on `fl-greedy-100k`, else on the
//! same pinned `large:seed=1` instance. The graph and dominator layers run on
//! the instance of `parfaclo run maxdom --gen sparse-xlarge --graph csr
//! --threshold 3.0` on every workload. Every per-layer metric is in every
//! result, as the benchmark's result line requires; a layer's reading off its
//! home workload is its home reading.
//!
//! `spatial.range` replays range queries that solves make. On the
//! facility-location workload that is the dual certification's query:
//! `rows_within` at every facility, radius the largest dual value `α_j` of
//! greedy. Elsewhere it is the CSR threshold-graph build's query:
//! `cols_within` at a seeded sample of the graph instance's points, radius
//! the maxdom `--threshold`.

use parfaclo_api::json::JsonValue;
use parfaclo_api::{AnyInstance, Backend, Coreset, GraphBackend, Run, RunConfig};
use parfaclo_bench::runner::GenSpec;
use parfaclo_bucket::{BucketMapping, BucketQueue};
use parfaclo_core::config::FlConfig;
use parfaclo_core::greedy::parallel_greedy_detailed;
use parfaclo_core::primal_dual::parallel_primal_dual_detailed;
use parfaclo_core::FlSolution;
use parfaclo_dominator::max_dom;
use parfaclo_graph::{edge_map, CsrGraph, VertexSubset};
use parfaclo_kernel::block::{argmin_range, dist_range};
use parfaclo_kernel::SoaPoints;
use parfaclo_lp::dual;
use parfaclo_matrixops::sort::argsort_rows_by_key;
use parfaclo_matrixops::{CostMeter, ExecPolicy};
use parfaclo_metric::gen::{self, GenParams};
use parfaclo_metric::{build_coreset, ClusterInstance, DistanceOracle, FlInstance, Point};
use parfaclo_spatial::SpatialIndex;
use parfaclo_trace::{TraceDetail, Tracer};
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark workload, as the layer harness sees it.
struct Workload {
    name: &'static str,
    solver: &'static str,
    gen: &'static str,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fl-greedy-100k",
        solver: "greedy",
        gen: "large:seed=1",
    },
    Workload {
        name: "kmedian-coreset-10m",
        solver: "kmedian-ls",
        gen: "xxlarge",
    },
];

/// Home inputs of the facility-location and graph layers. The
/// facility-location workload pins its instance, as `perfbench/run.py`
/// explains; the benchmark seed is then the solver seed only.
const FL_HOME_GEN: &str = "large:seed=1";
const GRAPH_HOME_GEN: &str = "sparse-xlarge";
/// The graph layers' `parfaclo run maxdom --threshold`.
const GRAPH_THRESHOLD: f64 = 3.0;
/// Solver phases reported as `<solver>.<phase>_s`.
const PHASES: [(&str, &[&str]); 2] = [
    ("core.greedy", &["orders-build", "star-rounds", "finalize"]),
    ("core.primal-dual", &["dual-ascent", "certify"]),
];
/// Centers for the argmin / closest-center layers: the solved set, capped.
const MAX_CENTERS: usize = 64;
/// Distance evaluations per `kernel.dist_per_s` measurement.
const DIST_EVALS: usize = 40_000_000;
const NEAREST_QUERIES: usize = 20_000;
/// Range queries per `spatial.range_us` measurement: threshold-graph
/// queries, and passes over the facilities of a facility-location instance.
const RANGE_QUERIES: usize = 100_000;
const RANGE_PASSES: usize = 10;
const EDGE_MAP_REPEATS: usize = 10;
const BUCKET_REPEATS: usize = 5;
/// Interval of the CPU samples taken during the primal-dual solve.
const CPU_SAMPLE_EVERY: Duration = Duration::from_millis(5);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| -> String {
        let pos = args.iter().position(|a| a == flag);
        match pos.and_then(|p| args.get(p + 1)) {
            Some(v) => v.clone(),
            None => die(&format!("missing {flag} <value>")),
        }
    };
    let name = arg("--workload");
    let seed: u64 = arg("--seed")
        .parse()
        .unwrap_or_else(|_| die("--seed must be a whole number"));
    let trace_out = arg("--trace-out");
    let Some(w) = WORKLOADS.iter().find(|w| w.name == name) else {
        die(&format!("unknown workload '{name}'"))
    };

    let tracer = Arc::new(Tracer::new(TraceDetail::Phases));
    let mut h = Harness::new(Arc::clone(&tracer));
    let guard = parfaclo_trace::install(tracer);
    h.run(w, seed);
    drop(guard);
    let chrome = h.tracer.chrome_json();
    std::fs::write(&trace_out, &chrome)
        .unwrap_or_else(|e| die(&format!("writing {trace_out}: {e}")));
    println!("{}", h.report(&spans_from_chrome(&chrome)));
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench-harness: {msg}");
    std::process::exit(2);
}

/// CPU time (user + system) of the whole process so far, threads that have
/// already exited included, in seconds at nanosecond resolution
/// (`CLOCK_PROCESS_CPUTIME_ID`; the struct layout is 64-bit Linux's).
fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one timespec through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one timed call, and the thread count it ran at.
#[derive(Clone, Copy)]
struct Timing {
    wall: f64,
    cpu: f64,
    threads: usize,
}

impl Timing {
    /// CPU / (threads x wall).
    fn util(&self) -> f64 {
        self.cpu / (self.threads as f64 * self.wall)
    }
}

struct Harness {
    tracer: Arc<Tracer>,
    /// Taken right after the tracer was made, so it stands for the tracer's
    /// own time origin.
    origin: Instant,
    pools: [ThreadPool; 2],
    metrics: Vec<(String, f64)>,
    checks: usize,
    failures: Vec<String>,
    /// The workload's own solve, through the registry.
    own_run: Option<Run>,
    /// `(µs from origin, process CPU s)` taken during the primal-dual solve.
    cpu_samples: Vec<(f64, f64)>,
}

impl Harness {
    fn new(tracer: Arc<Tracer>) -> Self {
        let pool = |n| {
            ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("thread pool construction is infallible")
        };
        Harness {
            tracer,
            origin: Instant::now(),
            pools: [pool(1), pool(2)],
            metrics: Vec::new(),
            checks: 0,
            failures: Vec::new(),
            own_run: None,
            cpu_samples: Vec::new(),
        }
    }

    fn pool(&self, threads: usize) -> &ThreadPool {
        &self.pools[threads - 1]
    }

    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Runs `f` at `threads` threads inside the span `<name>@<threads>t`.
    fn timed<R>(&self, name: &str, threads: usize, f: impl FnOnce() -> R) -> (R, Timing) {
        let _span = parfaclo_trace::span(&format!("{name}@{threads}t"), None);
        let cpu0 = cpu_s();
        let t0 = Instant::now();
        let out = self.pool(threads).install(f);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_s() - cpu0;
        (black_box(out), Timing { wall, cpu, threads })
    }

    /// Times `f` at 1 thread (`<metric>_1t`) and then at 2 threads
    /// (`<metric>`), keeping the 2-thread result.
    fn timed_1t_2t<R>(&mut self, span: &str, metric: &str, f: impl Fn() -> R) -> (R, Timing) {
        let (one, t1) = self.timed(span, 1, &f);
        drop(one);
        self.put(&format!("{metric}_1t"), t1.wall);
        let (out, t2) = self.timed(span, 2, &f);
        self.put(metric, t2.wall);
        (out, t2)
    }

    fn run(&mut self, w: &Workload, seed: u64) {
        let fl_workload = w.solver == "greedy";
        // Each instance is dropped before the next one is built, so the
        // harness never holds the 10M-point instance next to another.
        let fl = match self.point_layers(w, seed) {
            AnyInstance::Fl(own) => Some(own),
            AnyInstance::Cluster(_) => None,
        };
        let fl = fl.unwrap_or_else(|| {
            let _span = parfaclo_trace::span("home:large", None);
            gen::build_facility_location(preset(FL_HOME_GEN, seed), Backend::Spatial)
                .unwrap_or_else(|e| die(&format!("building {FL_HOME_GEN}: {e}")))
        });
        let alpha_max = self.fl_layers(&fl, seed);
        if fl_workload {
            let nf = fl.num_facilities();
            let facilities: Vec<usize> = (0..RANGE_PASSES * nf).map(|i| i % nf).collect();
            self.range_layer(&facilities, |i| fl.distances().rows_within(i, alpha_max));
        }
        drop(fl);
        let graph = {
            let _span = parfaclo_trace::span("home:sparse-xlarge", None);
            gen::build_clustering(preset(GRAPH_HOME_GEN, seed), Backend::Spatial)
                .unwrap_or_else(|e| die(&format!("building {GRAPH_HOME_GEN}: {e}")))
        };
        if !fl_workload {
            let mut next = splitmix(seed);
            let n = graph.n() as u64;
            let sample: Vec<usize> = (0..RANGE_QUERIES).map(|_| (next() % n) as usize).collect();
            self.range_layer(&sample, |v| {
                graph.distances().cols_within(v, GRAPH_THRESHOLD)
            });
        }
        self.graph_layers(&graph, seed);
    }

    /// metric, spatial, kernel and api layers on the workload's own points.
    /// Returns the workload's spatial instance.
    fn point_layers(&mut self, w: &Workload, seed: u64) -> AnyInstance {
        let params = preset(w.gen, seed);
        let kind = params.distance;
        let fl = w.solver == "greedy";
        let build = |backend| {
            let built = if fl {
                gen::build_facility_location(params, backend).map(AnyInstance::Fl)
            } else {
                gen::build_clustering(params, backend).map(AnyInstance::Cluster)
            };
            built.unwrap_or_else(|e| die(&format!("building {}: {e}", w.gen)))
        };

        let (implicit, t) = self.timed("metric.gen", 2, || build(Backend::Implicit));
        self.put("metric.gen_s", t.wall);
        self.put("metric.instance_bytes", instance_bytes(&implicit) as f64);
        drop(implicit);
        let (inst, _) =
            self.timed_1t_2t("metric.build", "metric.build_s", || build(Backend::Spatial));

        let points: &[Point] = match &inst {
            AnyInstance::Fl(i) => i.client_points(),
            AnyInstance::Cluster(i) => i.points(),
        }
        .expect("generated instances keep their points");
        let n = points.len();
        let dim = points[0].dim();
        let coords: Vec<f64> = points
            .iter()
            .flat_map(|p| p.coords().iter().copied())
            .collect();

        // spatial: index build (each from its own copy of the coordinates,
        // made before the clock starts), then a seeded nearest-query sample.
        let input = coords.clone();
        let (one, t1) = self.timed("spatial.build", 1, || SpatialIndex::build(input, dim, kind));
        drop(one);
        self.put("spatial.build_s_1t", t1.wall);
        let input = coords.clone();
        let (index, t) = self.timed("spatial.build", 2, || SpatialIndex::build(input, dim, kind));
        self.put("spatial.build_s", t.wall);
        self.put("spatial.build_util", t.util());
        self.put("spatial.index_bytes", index.memory_bytes() as f64);
        let queries = query_sample(&coords, dim, seed, NEAREST_QUERIES);
        let (found, t) = self.timed("spatial.nearest", 1, || {
            queries
                .chunks(dim)
                .filter(|q| index.nearest(q).is_some())
                .count()
        });
        self.put("spatial.nearest_us", t.wall * 1e6 / NEAREST_QUERIES as f64);
        self.check(found == NEAREST_QUERIES, || {
            format!("spatial.nearest answered {found} of {NEAREST_QUERIES} queries")
        });
        drop(index);

        // The workload's own solve, through the registry, gives the centers
        // and the Run the api layer serialises.
        let registry = parfaclo_bench::standard_registry();
        let cfg = run_config(w, seed);
        let run = {
            let _span = parfaclo_trace::span("api.solve", None);
            registry
                .run(w.solver, &inst, &cfg)
                .unwrap_or_else(|e| die(&format!("{} failed: {e}", w.solver)))
        };
        self.check_run(&run);
        let (json, t) = self.timed("api.to_json", 1, || run.to_json());
        self.put("api.to_json_s", t.wall);
        self.check(JsonValue::parse(&json).is_ok(), || {
            "Run::to_json is not JSON".to_string()
        });
        drop(json);
        let centers: Vec<usize> = run.selected.iter().copied().take(MAX_CENTERS).collect();

        // kernel: a dense distance sweep, then argmin against the centers.
        let soa = SoaPoints::from_flat(&coords, dim, n);
        let sweeps = DIST_EVALS.div_ceil(n);
        let sweep = || {
            let mut out = vec![0.0_f64; n];
            for s in 0..sweeps {
                let j = s * (n / sweeps);
                let q = &coords[j * dim..(j + 1) * dim];
                out.par_chunks_mut(1 << 14)
                    .enumerate()
                    .for_each(|(c, o)| dist_range(kind, q, &soa, c << 14, o));
                black_box(&out);
            }
            out[0]
        };
        let (_, t1) = self.timed("kernel.dist_range", 1, sweep);
        self.put("kernel.dist_per_s_1t", (sweeps * n) as f64 / t1.wall);
        let (_, t2) = self.timed("kernel.dist_range", 2, sweep);
        self.put("kernel.dist_per_s", (sweeps * n) as f64 / t2.wall);

        let center_coords: Vec<f64> = match &inst {
            AnyInstance::Fl(i) => {
                let fp = i
                    .facility_points()
                    .expect("generated instances keep their points");
                centers
                    .iter()
                    .flat_map(|&c| fp[c].coords().to_vec())
                    .collect()
            }
            AnyInstance::Cluster(_) => centers
                .iter()
                .flat_map(|&c| points[c].coords().to_vec())
                .collect(),
        };
        let csoa = SoaPoints::from_flat(&center_coords, dim, centers.len());
        let (nearest, _) = self.timed_1t_2t("kernel.argmin_range", "kernel.argmin_s", || {
            (0..n)
                .into_par_iter()
                .with_min_len(1024)
                .map(|j| {
                    let q = &coords[j * dim..(j + 1) * dim];
                    argmin_range(kind, q, &csoa, 0, centers.len())
                        .expect("at least one center")
                        .1
                })
                .collect::<Vec<f64>>()
        });

        // metric: the oracle's batched closest-center query, then the coreset.
        let (closest, _) =
            self.timed_1t_2t(
                "metric.closest_all",
                "metric.closest_all_s",
                || match &inst {
                    AnyInstance::Fl(i) => i.closest_open_all(&centers),
                    AnyInstance::Cluster(i) => i.closest_center_all(&centers),
                },
            );
        let mismatched = closest
            .iter()
            .zip(&nearest)
            .filter(|(c, &d)| c.map(|(_, cd)| cd) != Some(d))
            .count();
        self.check(mismatched == 0, || {
            format!("kernel.argmin_range and metric.closest_all disagree on {mismatched} points")
        });
        drop((closest, nearest));
        let (coreset, t) = self.timed("metric.build_coreset", 1, || build_coreset(points, 0.1));
        self.put("metric.coreset_build_s", t.wall);
        let weight: f64 = coreset.weights().iter().sum();
        self.check(weight == n as f64, || {
            format!("coreset weights sum to {weight}, not {n}")
        });
        self.own_run = Some(run);
        inst
    }

    /// core, lp, matrixops and bucket layers on a facility-location
    /// instance. Returns the largest dual value of greedy, the radius of the
    /// certification's range queries.
    fn fl_layers(&mut self, inst: &FlInstance, seed: u64) -> f64 {
        let cfg = FlConfig::from(&RunConfig::new(0.1).with_seed(seed));
        let greedy = self.solve_layer("core.greedy", || {
            parallel_greedy_detailed(inst, &cfg).solution
        });
        // CPU samples let the utilisation of the dual-ascent phase be read
        // once its span's start and end are known.
        let stop = AtomicBool::new(false);
        let (stop, origin) = (&stop, self.origin);
        let (pd, samples) = std::thread::scope(|s| {
            let sampler = s.spawn(move || {
                let mut samples = Vec::new();
                loop {
                    let done = stop.load(Ordering::SeqCst);
                    samples.push((origin.elapsed().as_secs_f64() * 1e6, cpu_s()));
                    if done {
                        return samples;
                    }
                    std::thread::sleep(CPU_SAMPLE_EVERY);
                }
            });
            let pd = self.solve_layer("core.primal-dual", || {
                parallel_primal_dual_detailed(inst, &cfg).solution
            });
            stop.store(true, Ordering::SeqCst);
            (pd, sampler.join().expect("CPU sampler thread panicked"))
        });
        self.cpu_samples = samples;
        self.check_same_as_own("greedy", &greedy.open, greedy.cost, greedy.lower_bound);
        self.check(pd.cost >= pd.lower_bound, || {
            format!("primal-dual cost {} below its lower bound {}", pd.cost, pd.lower_bound)
        });
        self.put(
            "core.element_ops",
            (greedy.work.element_ops + pd.work.element_ops) as f64,
        );
        self.put("core.rounds", (greedy.rounds + pd.rounds) as f64);

        // lp: the greedy certificate recomputed outside the solve.
        let alpha = &greedy.alpha;
        let (scale, t) = self.timed_1t_2t("lp.max_feasible_scaling", "lp.certify_s", || {
            dual::max_feasible_scaling(inst, alpha, 40)
        });
        self.put("lp.certify_util", t.util());
        let scaled: Vec<f64> = alpha.iter().map(|a| a * scale).collect();
        let bound = dual::dual_value(&scaled);
        self.check(bound.to_bits() == greedy.lower_bound.to_bits(), || {
            format!(
                "lp certificate {bound} differs from greedy's lower bound {}",
                greedy.lower_bound
            )
        });
        let (feasible, check) =
            self.timed_1t_2t("lp.check_alpha_feasible", "lp.check_alpha_s", || {
                dual::check_alpha_feasible(inst, &scaled, 1e-9)
            });
        self.check(feasible.is_ok(), || {
            "the scaled greedy alpha is not dual feasible".to_string()
        });
        let certify = self.value("lp.certify_s");
        self.put("lp.check_equiv", certify / check.wall);
        let greedy_s = self.value("core.greedy_s");
        self.put("lp.certify_share", certify / greedy_s);

        // matrixops: every facility's clients ordered by distance.
        let (nc, nf) = (inst.num_clients(), inst.num_facilities());
        let (orders, _) = self.timed_1t_2t(
            "matrixops.argsort_rows_by_key",
            "matrixops.argsort_s",
            || {
                argsort_rows_by_key(nf, nc, ExecPolicy::Parallel, &CostMeter::new(), |i, j| {
                    inst.dist(j, i)
                })
            },
        );
        let row = &orders[0].order;
        let sorted = row
            .windows(2)
            .all(|p| inst.dist(p[0] as usize, 0) <= inst.dist(p[1] as usize, 0));
        self.check(sorted && row.len() == nc, || {
            "argsort_rows_by_key row 0 is not a distance order".to_string()
        });
        drop(orders);

        // bucket: each client keyed by its nearest-facility distance, then
        // drained on a geometric threshold ladder, as the dual ascent does.
        let all: Vec<usize> = (0..nf).collect();
        let keys: Vec<f64> = inst
            .closest_open_all(&all)
            .into_iter()
            .map(|c| c.expect("every client has a facility").1)
            .collect();
        let start = keys
            .iter()
            .copied()
            .filter(|&k| k > 0.0)
            .fold(f64::INFINITY, f64::min);
        let (mut insert_s, mut extract_s, mut drained) = (0.0, 0.0, 0usize);
        for _ in 0..BUCKET_REPEATS {
            let mut queue = BucketQueue::new(BucketMapping::geometric_default());
            let (_, t) = self.timed("bucket.insert", 1, || {
                for (j, &k) in keys.iter().enumerate() {
                    queue.insert(j as u32, k);
                }
            });
            insert_s += t.wall;
            let (count, t) = self.timed("bucket.extract_ready", 1, || {
                let (mut threshold, mut count) = (start, 0usize);
                while !queue.is_empty() {
                    count += queue.extract_ready(threshold).len();
                    threshold *= 1.1;
                }
                count
            });
            extract_s += t.wall;
            drained += count;
        }
        let entries = (BUCKET_REPEATS * nc) as f64;
        self.put("bucket.insert_per_s", entries / insert_s);
        self.put("bucket.extract_per_s", entries / extract_s);
        self.check(drained == BUCKET_REPEATS * nc, || {
            format!("bucket queue drained {drained} of {entries} entries")
        });
        alpha.iter().copied().fold(0.0, f64::max)
    }

    /// A facility-location solve at 2 threads, recorded as `<name>_s`; its
    /// phases are read from the trace at the end.
    fn solve_layer(&mut self, name: &str, solve: impl FnOnce() -> FlSolution) -> FlSolution {
        let (solution, t) = self.timed(name, 2, solve);
        self.put(&format!("{name}_s"), t.wall);
        self.check(solution.cost >= solution.lower_bound, || {
            format!(
                "{name}: cost {} below lower bound {}",
                solution.cost, solution.lower_bound
            )
        });
        solution
    }

    /// `spatial.range_us` and `spatial.range_hits` (mean hits per query):
    /// one range query per centre, at 1 thread.
    fn range_layer(&mut self, centres: &[usize], within: impl Fn(usize) -> Vec<usize>) {
        let (hits, t) = self.timed("spatial.range", 1, || {
            centres.iter().map(|&c| within(c).len()).sum::<usize>()
        });
        let queries = centres.len() as f64;
        self.put("spatial.range_us", t.wall * 1e6 / queries);
        self.put("spatial.range_hits", hits as f64 / queries);
    }

    /// graph and dominator layers on a threshold graph.
    fn graph_layers(&mut self, inst: &ClusterInstance, seed: u64) {
        let (g, t) = self.timed_1t_2t("graph.from_threshold_oracle", "graph.csr_build_s", || {
            CsrGraph::from_threshold_oracle(inst.distances(), GRAPH_THRESHOLD)
        });
        self.put("graph.csr_build_util", t.util());
        self.put("graph.edges", g.num_edges() as f64);
        self.put("graph.csr_bytes", g.memory_bytes() as f64);
        let n = g.n();
        let full = VertexSubset::full(n);
        let edge_map_all = || {
            let mut touched = 0;
            for _ in 0..EDGE_MAP_REPEATS {
                touched = edge_map(&g, &full, |_| true, ExecPolicy::Parallel).len();
            }
            touched
        };
        let (_, t1) = self.timed("graph.edge_map", 1, edge_map_all);
        self.put("graph.edge_map_s_1t", t1.wall / EDGE_MAP_REPEATS as f64);
        let (touched, t2) = self.timed("graph.edge_map", 2, edge_map_all);
        self.put("graph.edge_map_s", t2.wall / EDGE_MAP_REPEATS as f64);
        let with_edges = (0..n).filter(|&v| g.degree(v) > 0).count();
        self.check(touched == with_edges, || {
            format!("edge_map reached {touched} vertices, {with_edges} have edges")
        });
        let (one, t1) = self.timed("dominator.max_dom", 1, || {
            max_dom(&g, seed, ExecPolicy::Parallel, &CostMeter::new())
        });
        self.put("dominator.maxdom_s_1t", t1.wall);
        let (two, t2) = self.timed("dominator.max_dom", 2, || {
            max_dom(&g, seed, ExecPolicy::Parallel, &CostMeter::new())
        });
        self.put("dominator.maxdom_s", t2.wall);
        self.put("dominator.rounds", two.rounds as f64);
        self.check(one == two, || {
            "max_dom differs between 1 and 2 threads".to_string()
        });
    }

    /// Structural checks on a Run from the registry.
    fn check_run(&mut self, run: &Run) {
        let valid = run.validate();
        self.check(valid.is_ok(), || format!("invalid Run: {valid:?}"));
        self.check(run.cost >= run.lower_bound, || {
            format!("cost {} below lower bound {}", run.cost, run.lower_bound)
        });
        if let Some(ratio) = run.certified_ratio() {
            self.check(ratio <= run.guarantee, || {
                format!("certified ratio {ratio} above guarantee {}", run.guarantee)
            });
        }
        let selected: std::collections::HashSet<usize> = run.selected.iter().copied().collect();
        let stray = run
            .assignment
            .iter()
            .filter(|a| !selected.contains(a))
            .count();
        self.check(stray == 0, || {
            format!("{stray} assignment entries name an unselected facility or center")
        });
    }

    /// When the workload's own solve ran `solver`, the direct layer call
    /// must reproduce it bit for bit.
    fn check_same_as_own(&mut self, solver: &str, selected: &[usize], cost: f64, bound: f64) {
        let Some(run) = self.own_run.as_ref().filter(|r| r.solver == solver) else {
            return;
        };
        let same = run.selected == selected
            && run.cost.to_bits() == cost.to_bits()
            && run.lower_bound.to_bits() == bound.to_bits();
        self.check(same, || {
            format!("direct {solver} call differs from the registry solve")
        });
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} is recorded before use"))
    }

    /// Adds the metrics read from the trace (solver phases and the
    /// dual-ascent utilisation) and returns the one-line JSON result.
    fn report(&mut self, spans: &[TraceSpan]) -> String {
        for (solver, phases) in PHASES {
            for phase in phases {
                let path = format!("{solver}@2t/{phase}");
                let walls: Vec<f64> = spans
                    .iter()
                    .filter(|s| s.path == path)
                    .map(|s| (s.end_us - s.start_us) / 1e6)
                    .collect();
                if !walls.is_empty() {
                    self.put(&format!("{solver}.{phase}_s"), walls.iter().sum());
                }
            }
        }
        if let Some(s) = spans
            .iter()
            .find(|s| s.path == "core.primal-dual@2t/dual-ascent")
        {
            let cpu = |at: f64| interpolate(&self.cpu_samples, at);
            let util = (cpu(s.end_us) - cpu(s.start_us)) / (2.0 * (s.end_us - s.start_us) / 1e6);
            self.put("core.primal-dual.dual-ascent_util", util);
        }

        let mut self_time: BTreeMap<String, f64> = BTreeMap::new();
        let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        for (s, us) in spans.iter().zip(own) {
            *self_time.entry(s.path.clone()).or_insert(0.0) += us.max(0.0) / 1e6;
        }
        let ops = spans.iter().map(|s| s.op).max().map_or(0, |op| op + 1);

        let numbers = |pairs: Vec<(String, f64)>| {
            JsonValue::Object(
                pairs
                    .into_iter()
                    .map(|(n, v)| (n, JsonValue::Number(v)))
                    .collect(),
            )
        };
        let failures = self.failures.iter().cloned().map(JsonValue::String);
        JsonValue::Object(vec![
            ("metrics".to_string(), numbers(self.metrics.clone())),
            ("checks".to_string(), JsonValue::UInt(self.checks as u64)),
            ("failures".to_string(), JsonValue::Array(failures.collect())),
            ("ops".to_string(), JsonValue::UInt(ops as u64)),
            (
                "self_time_s".to_string(),
                numbers(self_time.into_iter().collect()),
            ),
        ])
        .to_string()
    }
}

/// One span of the tracer's Chrome export.
struct TraceSpan {
    /// Span names from the top-level ancestor down, joined by `/`.
    path: String,
    parent: Option<usize>,
    /// Index of the top-level ancestor among the top-level spans: one op per
    /// top-level timed call.
    op: usize,
    start_us: f64,
    end_us: f64,
}

/// The complete spans of a Chrome export, with their nesting restored. The
/// tracer lists spans in the order they opened, and spans close in LIFO
/// order on the one thread that opens them, so a span's parent is the
/// innermost span before it that contains it.
fn spans_from_chrome(chrome: &str) -> Vec<TraceSpan> {
    let trace = JsonValue::parse(chrome).expect("the tracer writes JSON");
    let events = trace
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("a Chrome trace has traceEvents");
    let mut spans: Vec<TraceSpan> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut ops = 0;
    for e in events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
    {
        let field = |key: &str| e.get(key).and_then(|v| v.as_f64()).expect("ts and dur");
        let name = e.get("name").and_then(|n| n.as_str()).expect("a span name");
        let (start_us, end_us) = (field("ts"), field("ts") + field("dur"));
        // A nanosecond of slack absorbs the rounding of `ts + dur`.
        while let Some(&top) = open.last() {
            if spans[top].start_us <= start_us && end_us <= spans[top].end_us + 1e-3 {
                break;
            }
            open.pop();
        }
        let parent = open.last().copied();
        let (path, op) = match parent {
            Some(p) => (format!("{}/{name}", spans[p].path), spans[p].op),
            None => {
                ops += 1;
                (name.to_string(), ops - 1)
            }
        };
        open.push(spans.len());
        spans.push(TraceSpan {
            path,
            parent,
            op,
            start_us,
            end_us,
        });
    }
    spans
}

/// Generator parameters of a `--gen` preset, seeded as `parfaclo run
/// --seed` seeds them.
fn preset(name: &str, seed: u64) -> GenParams {
    GenSpec::parse(name)
        .expect("preset names parse")
        .params(seed)
}

/// The run configuration `parfaclo run` builds for the workload's flags.
fn run_config(w: &Workload, seed: u64) -> RunConfig {
    let cfg = RunConfig::new(0.1)
        .with_k(8)
        .with_seed(seed)
        .with_threads(2)
        .with_backend(Backend::Spatial)
        .with_graph(GraphBackend::Csr);
    match w.solver {
        "kmedian-ls" => cfg.with_coreset(Coreset::Eps(0.1)),
        _ => cfg,
    }
}

fn instance_bytes(inst: &AnyInstance) -> u64 {
    match inst {
        AnyInstance::Fl(i) => i.memory_bytes(),
        AnyInstance::Cluster(i) => i.memory_bytes(),
    }
}

/// A splitmix64 stream seeded by the workload seed.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `count` query points drawn uniformly from the bounding box of `coords`.
fn query_sample(coords: &[f64], dim: usize, seed: u64, count: usize) -> Vec<f64> {
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for p in coords.chunks(dim) {
        for d in 0..dim {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let mut next = splitmix(seed);
    (0..count * dim)
        .map(|i| {
            let d = i % dim;
            lo[d] + (hi[d] - lo[d]) * ((next() >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// CPU seconds at `at_us` by linear interpolation between `(us, cpu)`
/// samples.
fn interpolate(samples: &[(f64, f64)], at_us: f64) -> f64 {
    let after = samples.partition_point(|s| s.0 < at_us);
    match (after.checked_sub(1).map(|i| samples[i]), samples.get(after)) {
        (Some(a), Some(b)) if b.0 > a.0 => a.1 + (b.1 - a.1) * (at_us - a.0) / (b.0 - a.0),
        (Some(a), _) => a.1,
        (None, Some(b)) => b.1,
        (None, None) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_from_chrome_restores_nesting_and_ops() {
        let tracer = Arc::new(Tracer::new(TraceDetail::Phases));
        let guard = parfaclo_trace::install(Arc::clone(&tracer));
        for op in ["a", "b"] {
            let _outer = parfaclo_trace::span(op, None);
            for inner in ["x", "y"] {
                let _inner = parfaclo_trace::span(inner, None);
                let _leaf = parfaclo_trace::span("leaf", None);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(guard);
        let spans = spans_from_chrome(&tracer.chrome_json());
        let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "a", "a/x", "a/x/leaf", "a/y", "a/y/leaf", "b", "b/x", "b/x/leaf", "b/y",
                "b/y/leaf"
            ]
        );
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(
            parents,
            [
                None,
                Some(0),
                Some(1),
                Some(0),
                Some(3),
                None,
                Some(5),
                Some(6),
                Some(5),
                Some(8)
            ]
        );
        let ops: Vec<usize> = spans.iter().map(|s| s.op).collect();
        assert_eq!(ops, [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn interpolate_is_linear_between_samples_and_flat_outside() {
        let samples = [(0.0, 1.0), (10.0, 2.0)];
        assert_eq!(interpolate(&samples, 5.0), 1.5);
        assert_eq!(interpolate(&samples, -1.0), 1.0);
        assert_eq!(interpolate(&samples, 11.0), 2.0);
    }
}
