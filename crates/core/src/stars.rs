//! Stars and maximal-star computation (Definition 4.1, Fact 4.2).
//!
//! A *star* `S = (i, C')` is a facility together with a set of clients; its price is
//! `(f_i + Σ_{j∈C'} d(j,i)) / |C'|`. The greedy algorithms (sequential and parallel)
//! repeatedly need, for every facility, the **cheapest maximal star** over the remaining
//! clients. By Fact 4.2 this star consists of the `κ` closest remaining clients for some
//! `κ`, so each round only needs a prefix sum along every facility's distance-sorted
//! client order — which is exactly how Algorithm 4.1 implements its step 1. The sorted
//! orders are served lazily: each facility's clients are bucketed by distance once, and
//! a bucket is sorted only when a star scan actually reaches it.

use parfaclo_bucket::BucketMapping;
use parfaclo_matrixops::{CostMeter, ExecPolicy};
use parfaclo_metric::{ClientId, DistanceOracle, FacilityId, FlInstance};
use rayon::prelude::*;

/// A maximal cheapest star: facility, price, and the clients it contains.
#[derive(Debug, Clone, PartialEq)]
pub struct Star {
    /// The facility at the centre of the star.
    pub facility: FacilityId,
    /// The star's price `(f_i + Σ d(j,i)) / |C'|`.
    pub price: f64,
    /// The clients of the star (the `|C'|` closest remaining clients).
    pub clients: Vec<ClientId>,
}

/// Number of distinct bucket keys under the default geometric mapping
/// (4 refinement bits: 12 exponent+mantissa bits survive the shift, and the
/// sign bit of a non-negative finite `f64` is always 0).
const LAZY_KEYS: usize = 1 << 16;

/// Per-facility lazily-sorted client order, bucketed by distance.
///
/// The clients are partitioned once into geometric distance buckets
/// (ascending bucket key, ascending client id within a bucket — a counting
/// pass, no comparison sort). Expanding a bucket sorts its slice of
/// `bucket_ids` in place by packed `(distance_bits << 32) | id`, so the
/// expanded buckets form a sorted prefix of `bucket_ids`. Because the
/// geometric mapping is monotone and its buckets bracket disjoint value
/// intervals, that prefix is exactly the full distance order (ties by
/// ascending id) — just only as far as the star scans actually consume it.
#[derive(Debug, Clone)]
pub struct LazyFacilityOrder {
    /// Ascending keys of the non-empty buckets.
    bucket_keys: Vec<u32>,
    /// CSR offsets into `bucket_ids`, one per non-empty bucket plus the
    /// terminating total.
    bucket_offsets: Vec<u32>,
    /// Client ids grouped by bucket: sorted by distance within every
    /// expanded bucket, ascending id within the others.
    bucket_ids: Vec<u32>,
    /// Index of the first unexpanded bucket.
    next_bucket: usize,
}

impl LazyFacilityOrder {
    /// Buckets facility `i`'s client distances. One oracle column fill plus
    /// a counting pass — `O(|C| + K)` work, no sort.
    fn build(inst: &FlInstance, i: FacilityId, mapping: BucketMapping) -> Self {
        let nc = inst.num_clients();
        let mut row = vec![0.0f64; nc];
        inst.distances().col_range_into(i, 0, &mut row);
        let mut starts = vec![0u32; LAZY_KEYS];
        for &d in &row {
            let key = mapping.bucket_of(d) as usize;
            debug_assert!(key < LAZY_KEYS);
            starts[key] += 1;
        }
        let mut bucket_keys = Vec::new();
        let mut bucket_offsets = Vec::new();
        let mut total = 0u32;
        for (key, slot) in starts.iter_mut().enumerate() {
            let count = *slot;
            if count > 0 {
                bucket_keys.push(key as u32);
                bucket_offsets.push(total);
            }
            *slot = total;
            total += count;
        }
        bucket_offsets.push(total);
        let mut bucket_ids = vec![0u32; nc];
        for (j, &d) in row.iter().enumerate() {
            let key = mapping.bucket_of(d) as usize;
            bucket_ids[starts[key] as usize] = j as u32;
            starts[key] += 1;
        }
        LazyFacilityOrder {
            bucket_keys,
            bucket_offsets,
            bucket_ids,
            next_bucket: 0,
        }
    }

    /// Key of the first unexpanded bucket, or `None` when fully expanded.
    fn next_bucket_key(&self) -> Option<u32> {
        self.bucket_keys.get(self.next_bucket).copied()
    }

    /// The sorted prefix: every expanded bucket's clients in full sorted
    /// order.
    fn sorted_prefix(&self) -> &[u32] {
        &self.bucket_ids[..self.bucket_offsets[self.next_bucket] as usize]
    }

    /// Sorts the next bucket's clients in place by `(distance_bits, id)`,
    /// extending the sorted prefix by one bucket. Charges one sort of the
    /// bucket's size.
    fn expand_next_bucket(&mut self, inst: &FlInstance, i: FacilityId, meter: &CostMeter) {
        let b = self.next_bucket;
        debug_assert!(b < self.bucket_keys.len());
        let start = self.bucket_offsets[b] as usize;
        let end = self.bucket_offsets[b + 1] as usize;
        let ids = &mut self.bucket_ids[start..end];
        let clients: Vec<usize> = ids.iter().map(|&j| j as usize).collect();
        let mut dists = vec![0.0f64; clients.len()];
        inst.distances().col_gather(i, &clients, &mut dists);
        // Ties in distance break by ascending client id, so the sorted
        // bucket continues the exact global distance order.
        let mut packed: Vec<u128> = ids
            .iter()
            .zip(dists.iter())
            .map(|(&j, &d)| (u128::from(d.to_bits()) << 32) | u128::from(j))
            .collect();
        packed.sort_unstable();
        for (slot, &p) in ids.iter_mut().zip(packed.iter()) {
            *slot = (p & 0xFFFF_FFFF) as u32;
        }
        meter.add_sort(clients.len() as u64);
        self.next_bucket += 1;
    }
}

/// Lazily-sorted client orders for every facility.
#[derive(Debug, Clone)]
pub struct LazyOrders {
    mapping: BucketMapping,
    facilities: Vec<LazyFacilityOrder>,
}

impl LazyOrders {
    /// Buckets every facility's client distances — one primitive pass over
    /// `m`, but no sort: sorting is deferred to [`cheapest_maximal_star`]'s
    /// on-demand bucket expansions. Distances are pulled from the oracle one
    /// facility column at a time, so the dense `|C| x |F|` transpose is never
    /// materialised; the orders themselves hold `4·m` bytes of client ids.
    pub fn build(inst: &FlInstance, policy: ExecPolicy, meter: &CostMeter) -> Self {
        let nc = inst.num_clients();
        let nf = inst.num_facilities();
        meter.add_primitive((nc * nf) as u64);
        let mapping = BucketMapping::geometric_default();
        let build_one = |i: usize| LazyFacilityOrder::build(inst, i, mapping);
        let facilities: Vec<LazyFacilityOrder> = if policy.run_parallel(inst.m()) {
            (0..nf).into_par_iter().map(build_one).collect()
        } else {
            (0..nf).map(build_one).collect()
        };
        LazyOrders {
            mapping,
            facilities,
        }
    }

    /// Number of facilities covered.
    pub fn num_facilities(&self) -> usize {
        self.facilities.len()
    }

    /// Total clients in sorted prefixes so far (diagnostic).
    pub fn expanded_clients(&self) -> usize {
        self.facilities
            .iter()
            .map(|f| f.sorted_prefix().len())
            .sum()
    }
}

/// Computes the cheapest maximal star of facility `i` over the clients for which
/// `remaining` is `true`, with the (possibly zeroed) facility cost `fcost`. The
/// distance-sorted order is served from the facility's lazily expanded bucket
/// prefix: when the prefix runs out, the next bucket's exact lower bound decides
/// between stopping (every later distance already exceeds the best price) and
/// sorting one more bucket. Returns `None` if no clients remain.
pub fn cheapest_maximal_star(
    inst: &FlInstance,
    i: FacilityId,
    fcost: f64,
    mapping: BucketMapping,
    state: &mut LazyFacilityOrder,
    remaining: &[bool],
    meter: &CostMeter,
) -> Option<Star> {
    // Remaining clients are walked in sorted order, one distance tile at a
    // time: a tile of surviving clients is gathered through the oracle's
    // blocked column kernel, then walked scalar with the early break below.
    // Wasted work on a break is bounded by one tile.
    const TILE: usize = 64;
    let oracle = inst.distances();
    let mut best_price = f64::INFINITY;
    let mut best_k = 0usize;
    let mut dist_sum = 0.0;
    let mut k = 0usize;
    let mut clients_in_order: Vec<ClientId> = Vec::new();
    let mut batch: Vec<usize> = Vec::with_capacity(TILE);
    let mut dists = [0.0f64; TILE];
    let mut cursor = 0usize;
    'outer: loop {
        let order = state.sorted_prefix();
        while cursor < order.len() {
            batch.clear();
            while cursor < order.len() && batch.len() < TILE {
                let j = order[cursor] as usize;
                cursor += 1;
                if remaining[j] {
                    batch.push(j);
                }
            }
            if batch.is_empty() {
                continue;
            }
            oracle.col_gather(i, &batch, &mut dists[..batch.len()]);
            for (&j, &d) in batch.iter().zip(dists.iter()) {
                // Early termination: distances arrive in non-decreasing order, so
                // once `d > best_price` every later prefix price exceeds
                // `best_price` in real arithmetic (price_{k+1} is the k-weighted
                // average of price_k and d_{k+1}, and all later distances are >= d —
                // the unimodality behind Fact 4.2), turning the scan into
                // O(|star|) distance evaluations instead of O(|C|), on every
                // backend. Strictly greater only: a distance *equal* to the best
                // price still extends the maximal star at the same price. Defined
                // behaviour on sub-ulp edges: a full scan's rounded price can dip
                // back to == best_price even though the real price is larger; this
                // scan resolves such artificial ties by the real-arithmetic
                // semantics (the star is not extended). Identical everywhere it
                // matters: deterministic, and invariant across backends, thread
                // counts and policies, since every configuration runs this exact
                // loop on bit-identical distances.
                if d > best_price {
                    break 'outer;
                }
                dist_sum += d;
                k += 1;
                clients_in_order.push(j);
                let price = (fcost + dist_sum) / k as f64;
                // Prefer smaller prices; on ties prefer the larger star (maximality) — ties are
                // handled automatically because `k` increases monotonically through the scan.
                if price <= best_price {
                    best_price = price;
                    best_k = k;
                }
            }
        }
        // Prefix exhausted. Geometric buckets bracket disjoint intervals,
        // so `lower_bound(next key)` under-approximates every not-yet-sorted
        // distance: above the best price, the scan would break on its first
        // remaining client in that bucket anyway.
        match state.next_bucket_key() {
            None => break,
            Some(key) => {
                if mapping.lower_bound(key) > best_price {
                    break;
                }
                state.expand_next_bucket(inst, i, meter);
            }
        }
    }
    if k == 0 {
        return None;
    }
    clients_in_order.truncate(best_k);
    Some(Star {
        facility: i,
        price: best_price,
        clients: clients_in_order,
    })
}

/// Computes the cheapest maximal star of every facility in parallel over independent
/// lazy order states. `fcosts` carries the *current* facility costs (zeroed for
/// already-open facilities, per the paper).
pub fn all_cheapest_stars(
    inst: &FlInstance,
    fcosts: &[f64],
    orders: &mut LazyOrders,
    remaining: &[bool],
    policy: ExecPolicy,
    meter: &CostMeter,
) -> Vec<Option<Star>> {
    let nf = inst.num_facilities();
    meter.add_primitive((inst.num_clients() * nf) as u64);
    let mapping = orders.mapping;
    let one = |(i, state): (usize, &mut LazyFacilityOrder)| {
        cheapest_maximal_star(inst, i, fcosts[i], mapping, state, remaining, meter)
    };
    if policy.run_parallel(inst.m()) {
        orders
            .facilities
            .par_iter_mut()
            .enumerate()
            .map(one)
            .collect()
    } else {
        orders.facilities.iter_mut().enumerate().map(one).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfaclo_metric::gen::{self, GenParams};
    use parfaclo_metric::DistanceMatrix;

    fn inst_one_facility() -> FlInstance {
        // Facility cost 3, clients at distances 1, 2, 100, 200.
        FlInstance::new(
            vec![3.0],
            DistanceMatrix::from_rows(4, 1, vec![1.0, 2.0, 100.0, 200.0]),
        )
    }

    /// Facility `i`'s cheapest maximal star, from freshly built lazy orders.
    fn star_of(inst: &FlInstance, i: FacilityId, fcost: f64, remaining: &[bool]) -> Option<Star> {
        let meter = CostMeter::new();
        let mut orders = LazyOrders::build(inst, ExecPolicy::Sequential, &meter);
        let state = &mut orders.facilities[i];
        cheapest_maximal_star(inst, i, fcost, orders.mapping, state, remaining, &meter)
    }

    /// Reference for the lazy path: fully sort the remaining clients by
    /// `(distance, id)`, then take the cheapest prefix with the same early
    /// break.
    fn reference_star(
        inst: &FlInstance,
        i: FacilityId,
        fcost: f64,
        remaining: &[bool],
    ) -> Option<Star> {
        let mut order: Vec<(f64, ClientId)> = (0..inst.num_clients())
            .filter(|&j| remaining[j])
            .map(|j| (inst.dist(j, i), j))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut best_price, mut best_k, mut dist_sum) = (f64::INFINITY, 0, 0.0);
        for (k, &(d, _)) in order.iter().enumerate() {
            if d > best_price {
                break;
            }
            dist_sum += d;
            let price = (fcost + dist_sum) / (k + 1) as f64;
            if price <= best_price {
                best_price = price;
                best_k = k + 1;
            }
        }
        (best_k > 0).then(|| Star {
            facility: i,
            price: best_price,
            clients: order[..best_k].iter().map(|&(_, j)| j).collect(),
        })
    }

    #[test]
    fn presort_orders_clients_by_distance() {
        // Expanding every bucket yields the full presorted order: ascending
        // distance, ties by ascending client id.
        let inst = gen::facility_location(GenParams::uniform_square(12, 5).with_seed(3));
        let meter = CostMeter::new();
        let mut orders = LazyOrders::build(&inst, ExecPolicy::Sequential, &meter);
        assert_eq!(orders.num_facilities(), 5);
        for (i, state) in orders.facilities.iter_mut().enumerate() {
            while state.next_bucket_key().is_some() {
                state.expand_next_bucket(&inst, i, &meter);
            }
            let o = state.sorted_prefix();
            assert_eq!(o.len(), 12);
            for w in o.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                assert!((inst.dist(a, i), a) < (inst.dist(b, i), b));
            }
        }
        assert_eq!(orders.expanded_clients(), 60);
        assert!(meter.report().sort_calls >= 1);
    }

    #[test]
    fn cheapest_star_known_answer() {
        let inst = inst_one_facility();
        let star = star_of(&inst, 0, 3.0, &[true; 4]).unwrap();
        // Prices: k=1: 4, k=2: 3, k=3: 35.33, k=4: 76.5 → best is k=2, price 3.
        assert_eq!(star.clients, vec![0, 1]);
        assert!((star.price - 3.0).abs() < 1e-12);
    }

    #[test]
    fn removed_clients_are_skipped() {
        let inst = inst_one_facility();
        let remaining = vec![false, true, true, false];
        let star = star_of(&inst, 0, 3.0, &remaining).unwrap();
        // Only clients 1 and 2 remain: k=1 → (3+2)/1 = 5; k=2 → (3+102)/2 = 52.5.
        assert_eq!(star.clients, vec![1]);
        assert!((star.price - 5.0).abs() < 1e-12);
        assert!(star_of(&inst, 0, 3.0, &[false; 4]).is_none());
    }

    /// Pins the defined behaviour of the early-terminated scan on sub-ulp
    /// near-ties: a distance strictly above the best price never extends
    /// the star, even where a full scan's *rounded* next price would have
    /// dipped back to exactly the best price (real arithmetic says it is
    /// strictly larger). Deterministic and backend/thread/policy-invariant
    /// either way; this test documents which semantics is canonical.
    #[test]
    fn sub_ulp_near_ties_resolve_by_real_arithmetic() {
        let eps = f64::EPSILON;
        let inst = FlInstance::new(
            vec![0.0],
            DistanceMatrix::from_rows(2, 1, vec![1.0, 1.0 + eps]),
        );
        let star = star_of(&inst, 0, 0.0, &[true, true]).unwrap();
        // (1.0 + (1.0 + eps)) / 2 rounds to exactly 1.0, but the real value
        // exceeds 1.0 — the scan stops at the 1-client star of price 1.
        assert_eq!(star.clients, vec![0]);
        assert_eq!(star.price, 1.0);
        // An *exact* tie still extends the star (maximality).
        let tied = FlInstance::new(vec![0.0], DistanceMatrix::from_rows(2, 1, vec![1.0, 1.0]));
        let star = star_of(&tied, 0, 0.0, &[true, true]).unwrap();
        assert_eq!(star.clients, vec![0, 1]);
        assert_eq!(star.price, 1.0);
    }

    #[test]
    fn star_clients_are_within_price_distance() {
        // Fact 4.2(1): j is in the cheapest maximal star iff d(j,i) <= price.
        let inst = gen::facility_location(GenParams::gaussian_clusters(20, 6, 3).with_seed(5));
        let meter = CostMeter::new();
        let mut orders = LazyOrders::build(&inst, ExecPolicy::Sequential, &meter);
        let remaining = vec![true; 20];
        let fcosts: Vec<f64> = (0..6).map(|i| inst.facility_cost(i)).collect();
        let stars = all_cheapest_stars(
            &inst,
            &fcosts,
            &mut orders,
            &remaining,
            ExecPolicy::Sequential,
            &meter,
        );
        for star in stars.into_iter().flatten() {
            for &j in &star.clients {
                assert!(inst.dist(j, star.facility) <= star.price + 1e-9);
            }
            for j in 0..20 {
                if !star.clients.contains(&j) {
                    assert!(inst.dist(j, star.facility) >= star.price - 1e-9);
                }
            }
        }
    }

    #[test]
    fn fact_42_second_part_holds() {
        // Fact 4.2(2): if t = price(S_i) then Σ_j max(0, t − d(j,i)) = f_i.
        let inst = gen::facility_location(GenParams::uniform_square(15, 4).with_seed(8));
        let remaining = vec![true; 15];
        for i in 0..4 {
            let star = star_of(&inst, i, inst.facility_cost(i), &remaining).unwrap();
            let lhs: f64 = (0..15)
                .map(|j| (star.price - inst.dist(j, i)).max(0.0))
                .sum();
            assert!(
                (lhs - inst.facility_cost(i)).abs() < 1e-6,
                "facility {i}: {lhs} vs {}",
                inst.facility_cost(i)
            );
        }
    }

    #[test]
    fn lazy_orders_match_presort_star_for_star() {
        // Drive the lazy orders through a sequence of rounds with shrinking
        // remaining sets and zeroed facility costs — the exact access
        // pattern of the greedy loop — and demand the reference's stars
        // (prices bit-equal, client lists element-equal) at every step.
        let inst = gen::facility_location(GenParams::gaussian_clusters(60, 9, 4).with_seed(11));
        let meter = CostMeter::new();
        let mut lazy = LazyOrders::build(&inst, ExecPolicy::Sequential, &meter);
        let mut remaining = vec![true; 60];
        let mut fcosts: Vec<f64> = (0..9).map(|i| inst.facility_cost(i)).collect();
        for round in 0..6 {
            let reference: Vec<Option<Star>> = (0..9)
                .map(|i| reference_star(&inst, i, fcosts[i], &remaining))
                .collect();
            let bucketed = all_cheapest_stars(
                &inst,
                &fcosts,
                &mut lazy,
                &remaining,
                ExecPolicy::Sequential,
                &meter,
            );
            assert_eq!(reference, bucketed, "round {round}");
            // Mimic a greedy round: open the cheapest star, zero its cost,
            // remove its clients.
            let best = reference
                .iter()
                .flatten()
                .min_by(|a, b| a.price.partial_cmp(&b.price).unwrap())
                .cloned();
            let Some(star) = best else { break };
            fcosts[star.facility] = 0.0;
            for &j in &star.clients {
                remaining[j] = false;
            }
            if !remaining.iter().any(|&r| r) {
                break;
            }
        }
    }

    #[test]
    fn lazy_and_parallel_policies_agree() {
        let inst = gen::facility_location(GenParams::uniform_square(50, 30).with_seed(4));
        let meter = CostMeter::new();
        let mut seq_orders = LazyOrders::build(&inst, ExecPolicy::Sequential, &meter);
        let mut par_orders = LazyOrders::build(&inst, ExecPolicy::Parallel, &meter);
        let remaining = vec![true; 50];
        let fcosts: Vec<f64> = (0..30).map(|i| inst.facility_cost(i)).collect();
        let seq = all_cheapest_stars(
            &inst,
            &fcosts,
            &mut seq_orders,
            &remaining,
            ExecPolicy::Sequential,
            &meter,
        );
        let par = all_cheapest_stars(
            &inst,
            &fcosts,
            &mut par_orders,
            &remaining,
            ExecPolicy::Parallel,
            &meter,
        );
        assert_eq!(seq, par);
        assert_eq!(seq_orders.expanded_clients(), par_orders.expanded_clients());
    }

    #[test]
    fn lazy_expansion_stops_early() {
        // One facility, a tight cluster of cheap clients and a far-away
        // crowd: the scan must stop at the bucket boundary without ever
        // sorting the expensive tail.
        let mut dists = vec![1.0, 1.5, 1.25, 2.0];
        dists.extend((0..60).map(|t| 1e6 + t as f64));
        let nc = dists.len();
        let inst = FlInstance::new(vec![2.0], DistanceMatrix::from_rows(nc, 1, dists));
        let meter = CostMeter::new();
        let mut lazy = LazyOrders::build(&inst, ExecPolicy::Sequential, &meter);
        let remaining = vec![true; nc];
        let star = all_cheapest_stars(
            &inst,
            &[2.0],
            &mut lazy,
            &remaining,
            ExecPolicy::Sequential,
            &meter,
        )
        .remove(0)
        .expect("star exists");
        assert_eq!(Some(star), reference_star(&inst, 0, 2.0, &remaining));
        assert!(
            lazy.expanded_clients() < nc,
            "the 1e6-distance tail must stay unsorted (expanded {} of {nc})",
            lazy.expanded_clients()
        );
    }

    #[test]
    fn lazy_build_records_no_sort_but_expansion_does() {
        let inst = gen::facility_location(GenParams::uniform_square(20, 4).with_seed(2));
        let build_meter = CostMeter::new();
        let mut lazy = LazyOrders::build(&inst, ExecPolicy::Sequential, &build_meter);
        assert_eq!(
            build_meter.report().sort_calls,
            0,
            "bucketing is a counting pass, not a sort"
        );
        assert!(build_meter.report().primitive_calls > 0);
        let remaining = vec![true; 20];
        let fcosts: Vec<f64> = (0..4).map(|i| inst.facility_cost(i)).collect();
        let scan_meter = CostMeter::new();
        let stars = all_cheapest_stars(
            &inst,
            &fcosts,
            &mut lazy,
            &remaining,
            ExecPolicy::Sequential,
            &scan_meter,
        );
        assert!(stars.iter().any(|s| s.is_some()));
        assert!(
            scan_meter.report().sort_calls >= 1,
            "expanded prefixes are charged as sorts"
        );
    }

    #[test]
    fn parallel_and_sequential_star_computation_agree() {
        // Round after round with shrinking remaining sets, the sequential
        // and parallel policies expand the same buckets and return the same
        // stars.
        let inst = gen::facility_location(GenParams::gaussian_clusters(80, 20, 5).with_seed(7));
        let meter = CostMeter::new();
        let mut seq_orders = LazyOrders::build(&inst, ExecPolicy::Sequential, &meter);
        let mut par_orders = LazyOrders::build(&inst, ExecPolicy::Parallel, &meter);
        let mut remaining = vec![true; 80];
        let fcosts: Vec<f64> = (0..20).map(|i| inst.facility_cost(i)).collect();
        for round in 0..4 {
            let seq = all_cheapest_stars(
                &inst,
                &fcosts,
                &mut seq_orders,
                &remaining,
                ExecPolicy::Sequential,
                &meter,
            );
            let par = all_cheapest_stars(
                &inst,
                &fcosts,
                &mut par_orders,
                &remaining,
                ExecPolicy::Parallel,
                &meter,
            );
            assert_eq!(seq, par, "round {round}");
            assert_eq!(seq_orders.expanded_clients(), par_orders.expanded_clients());
            for j in (round..80).step_by(4) {
                remaining[j] = false;
            }
        }
    }
}
