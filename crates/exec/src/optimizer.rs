//! A cost-based join-order optimizer with pluggable cardinality estimation.
//!
//! The optimizer is deliberately estimator-agnostic: every method in the
//! paper's evaluation (SafeBound, Postgres-style, PessEst, Simplicity, ML
//! stand-ins, true cardinalities) plugs into the same
//! [`CardinalityEstimator`] trait, the same plan space, and the same cost
//! model, so runtime differences are attributable to the estimates alone —
//! the methodology of §5 ("we injected alternate cardinality estimators
//! into the optimizer").
//!
//! Plan space: bushy hash joins plus index nested-loop joins into base
//! relations with an index on the join column. Exhaustive DP over connected
//! subgraphs up to [`Optimizer::dp_limit`] relations, greedy left-deep
//! beyond (mirroring Postgres' GEQO fallback). The DP knows every subset
//! it will cost before it starts, so it asks for all their estimates in
//! one [`CardinalityEstimator::estimate_subsets`] call; greedy asks mask
//! by mask.

use crate::cost::CostModel;
use crate::plan::PhysPlan;
use safebound_query::Query;
use std::collections::HashMap;

/// A cardinality estimator the optimizer can consult for any connected
/// sub-query.
pub trait CardinalityEstimator {
    /// Short display name ("SafeBound", "Postgres", …).
    fn name(&self) -> &'static str;
    /// Estimated output cardinality of the sub-query induced by `mask`
    /// (bits index `query.relations`). Implementations may cache.
    fn estimate(&mut self, query: &Query, mask: u64) -> f64;
    /// Estimates for many sub-queries of one query: `out` is cleared and
    /// receives `estimate(query, mask)` for each entry of `masks`, in
    /// order. The DP asks for its whole lattice in one call, so an
    /// estimator can share per-query work across masks; the default
    /// estimates mask by mask.
    fn estimate_subsets(&mut self, query: &Query, masks: &[u64], out: &mut Vec<f64>) {
        out.clear();
        for &mask in masks {
            let e = self.estimate(query, mask);
            out.push(e);
        }
    }
}

/// The optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    /// Cost model.
    pub cost: CostModel,
    /// Maximum relation count for exhaustive DP.
    pub dp_limit: usize,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer {
            cost: CostModel::default(),
            dp_limit: 12,
        }
    }
}

impl Optimizer {
    /// Optimizer with a custom cost model.
    pub fn new(cost: CostModel) -> Self {
        Optimizer { cost, dp_limit: 12 }
    }

    /// Choose a plan for `query`. `indexed_columns[rel]` lists the columns
    /// of each relation with an index (PKs and FKs in the paper's setup).
    pub fn optimize(
        &self,
        query: &Query,
        indexed_columns: &[Vec<String>],
        est: &mut dyn CardinalityEstimator,
    ) -> PhysPlan {
        let n = query.num_relations();
        assert!((1..=63).contains(&n), "1..=63 relations supported");
        let adj = adjacency(query);
        if n > self.dp_limit {
            return self.greedy(query, indexed_columns, &adj, &mut lazy_cards(query, est));
        }
        // The DP's estimates are known up front: one batched call.
        let masks = dp_masks(n, &adj);
        let mut estimates = Vec::with_capacity(masks.len());
        est.estimate_subsets(query, &masks, &mut estimates);
        let cards: HashMap<u64, f64> = masks
            .iter()
            .zip(&estimates)
            .map(|(&mask, &e)| (mask, e.max(1.0)))
            .collect();
        self.dp(query, indexed_columns, &masks, &mut |mask| {
            *cards.get(&mask).expect("the DP asks only for its masks")
        })
    }

    /// True iff an INLJ into `inner` is possible from `outer_mask`: some
    /// join edge connects them on an indexed inner column.
    fn inlj_possible(
        &self,
        query: &Query,
        indexed_columns: &[Vec<String>],
        outer_mask: u64,
        inner: usize,
    ) -> bool {
        if !self.cost.enable_inlj {
            return false;
        }
        query.joins.iter().any(|j| {
            (j.right == inner
                && outer_mask & (1 << j.left) != 0
                && indexed_columns[inner].contains(&j.right_column))
                || (j.left == inner
                    && outer_mask & (1 << j.right) != 0
                    && indexed_columns[inner].contains(&j.left_column))
        })
    }

    fn dp(
        &self,
        query: &Query,
        indexed_columns: &[Vec<String>],
        masks: &[u64],
        card: &mut impl FnMut(u64) -> f64,
    ) -> PhysPlan {
        let n = query.num_relations();
        let full: u64 = (1u64 << n) - 1;
        let mut best: HashMap<u64, (f64, PhysPlan)> = HashMap::new();
        for rel in 0..n {
            let mask = 1u64 << rel;
            let c = card(mask);
            let plan = PhysPlan::Scan { rel, mask, card: c };
            let cost = plan.cost(&self.cost);
            best.insert(mask, (cost, plan));
        }

        // Joined subsets in increasing size (see `dp_masks`).
        for &mask in masks.iter().filter(|m| m.count_ones() >= 2) {
            let mut best_here: Option<(f64, PhysPlan)> = None;
            // Enumerate proper submask splits.
            let mut sub = (mask - 1) & mask;
            while sub != 0 {
                let other = mask & !sub;
                if sub < other {
                    // Each unordered split visited once; both orientations
                    // are costed below.
                    sub = (sub - 1) & mask;
                    continue;
                }
                if let (Some((_, pa)), Some((_, pb))) = (best.get(&sub), best.get(&other)) {
                    let joined = connected_pair(query, sub, other) || mask == full;
                    if joined {
                        let out_card = card(mask);
                        for (build, probe) in [(pa, pb), (pb, pa)] {
                            let plan = PhysPlan::HashJoin {
                                build: Box::new(build.clone()),
                                probe: Box::new(probe.clone()),
                                mask,
                                card: out_card,
                            };
                            let cost = plan.cost(&self.cost);
                            if best_here.as_ref().is_none_or(|(c, _)| cost < *c) {
                                best_here = Some((cost, plan));
                            }
                        }
                        // INLJ when one side is a single indexed relation.
                        for (outer_mask, inner_mask) in [(sub, other), (other, sub)] {
                            if inner_mask.count_ones() == 1 {
                                let inner = inner_mask.trailing_zeros() as usize;
                                if self.inlj_possible(query, indexed_columns, outer_mask, inner) {
                                    let outer_plan = best.get(&outer_mask).unwrap().1.clone();
                                    let plan = PhysPlan::IndexJoin {
                                        outer: Box::new(outer_plan),
                                        inner,
                                        mask,
                                        card: out_card,
                                    };
                                    let cost = plan.cost(&self.cost);
                                    if best_here.as_ref().is_none_or(|(c, _)| cost < *c) {
                                        best_here = Some((cost, plan));
                                    }
                                }
                            }
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
            if let Some(bh) = best_here {
                best.insert(mask, bh);
            }
        }
        best.remove(&full)
            .map(|(_, p)| p)
            .expect("full mask must have a plan")
    }

    fn greedy(
        &self,
        query: &Query,
        indexed_columns: &[Vec<String>],
        adj: &[u64],
        card: &mut impl FnMut(u64) -> f64,
    ) -> PhysPlan {
        let n = query.num_relations();
        // Start from the smallest estimated relation.
        let mut start = 0usize;
        let mut best_c = f64::INFINITY;
        for rel in 0..n {
            let c = card(1 << rel);
            if c < best_c {
                best_c = c;
                start = rel;
            }
        }
        let mut mask = 1u64 << start;
        let mut plan = PhysPlan::Scan {
            rel: start,
            mask,
            card: best_c,
        };
        let mut remaining: Vec<usize> = (0..n).filter(|&r| r != start).collect();
        while !remaining.is_empty() {
            // Prefer connected relations; among them minimize result card.
            let mut pick: Option<(usize, f64)> = None;
            for (pos, &rel) in remaining.iter().enumerate() {
                let connected = adj[rel] & mask != 0;
                let c = card(mask | (1 << rel));
                let score = if connected { c } else { c * 1e12 };
                if pick.is_none_or(|(_, s)| score < s) {
                    pick = Some((pos, score));
                }
            }
            let (pos, _) = pick.unwrap();
            let rel = remaining.remove(pos);
            let new_mask = mask | (1 << rel);
            let out_card = card(new_mask);
            let inner_card = card(1 << rel);
            let scan = PhysPlan::Scan {
                rel,
                mask: 1 << rel,
                card: inner_card,
            };
            // Choose cheapest among HJ orientations and INLJ.
            let mut candidates = vec![
                PhysPlan::HashJoin {
                    build: Box::new(scan.clone()),
                    probe: Box::new(plan.clone()),
                    mask: new_mask,
                    card: out_card,
                },
                PhysPlan::HashJoin {
                    build: Box::new(plan.clone()),
                    probe: Box::new(scan),
                    mask: new_mask,
                    card: out_card,
                },
            ];
            if self.inlj_possible(query, indexed_columns, mask, rel) {
                candidates.push(PhysPlan::IndexJoin {
                    outer: Box::new(plan.clone()),
                    inner: rel,
                    mask: new_mask,
                    card: out_card,
                });
            }
            plan = candidates
                .into_iter()
                .min_by(|a, b| a.cost(&self.cost).total_cmp(&b.cost(&self.cost)))
                .unwrap();
            mask = new_mask;
        }
        plan
    }
}

/// Per relation, the bitmask of relations it shares a join edge with.
fn adjacency(query: &Query) -> Vec<u64> {
    let mut adj = vec![0u64; query.num_relations()];
    for j in &query.joins {
        adj[j.left] |= 1 << j.right;
        adj[j.right] |= 1 << j.left;
    }
    adj
}

/// Per-mask estimates on demand, each estimated once (clamped to ≥ 1).
fn lazy_cards<'a>(
    query: &'a Query,
    est: &'a mut dyn CardinalityEstimator,
) -> impl FnMut(u64) -> f64 + 'a {
    let mut cards: HashMap<u64, f64> = HashMap::new();
    move |mask| {
        *cards
            .entry(mask)
            .or_insert_with(|| est.estimate(query, mask).max(1.0))
    }
}

/// The subsets the DP plans, which are exactly those it estimates, in
/// the order it plans them: singletons, connected subsets by size, then
/// the full set if it is disconnected but plannable — two components,
/// joined by a cartesian product. (Disconnected proper subsets are never
/// planned; with three or more components no split of the full set has a
/// plan on both sides.)
fn dp_masks(n: usize, adj: &[u64]) -> Vec<u64> {
    let full: u64 = (1u64 << n) - 1;
    let mut joined: Vec<u64> = (1..=full)
        .filter(|&m| m.count_ones() >= 2 && is_connected(m, adj))
        .collect();
    joined.sort_by_key(|m| m.count_ones());
    let mut masks: Vec<u64> = (0..n).map(|rel| 1 << rel).collect();
    masks.extend(joined);
    let rest = full & !component(full, adj);
    if rest != 0 && component(rest, adj) == rest {
        masks.push(full);
    }
    masks
}

/// The relations of `mask` reachable from its lowest one through join
/// edges inside `mask`.
fn component(mask: u64, adj: &[u64]) -> u64 {
    if mask == 0 {
        return 0;
    }
    let mut seen = 1u64 << mask.trailing_zeros();
    let mut frontier = seen;
    while frontier != 0 {
        let mut next = 0u64;
        let mut f = frontier;
        while f != 0 {
            let r = f.trailing_zeros() as usize;
            f &= f - 1;
            next |= adj[r] & mask & !seen;
        }
        seen |= next;
        frontier = next;
    }
    seen
}

/// Is the relation subset connected under the join edges?
fn is_connected(mask: u64, adj: &[u64]) -> bool {
    mask != 0 && component(mask, adj) == mask
}

/// Does any join edge cross the two masks?
fn connected_pair(query: &Query, a: u64, b: u64) -> bool {
    query.joins.iter().any(|j| {
        (a & (1 << j.left) != 0 && b & (1 << j.right) != 0)
            || (b & (1 << j.left) != 0 && a & (1 << j.right) != 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_query::parse_sql;

    /// An estimator fed by a closure (for tests and the TrueCard oracle).
    pub struct FnEstimator<F: FnMut(&Query, u64) -> f64> {
        /// The estimating closure.
        pub f: F,
    }

    impl<F: FnMut(&Query, u64) -> f64> CardinalityEstimator for FnEstimator<F> {
        fn name(&self) -> &'static str {
            "fn"
        }
        fn estimate(&mut self, query: &Query, mask: u64) -> f64 {
            (self.f)(query, mask)
        }
    }

    fn chain3() -> Query {
        parse_sql("SELECT COUNT(*) FROM a, b, c WHERE a.x = b.x AND b.y = c.y").unwrap()
    }

    #[test]
    fn dp_produces_full_plan() {
        let q = chain3();
        let opt = Optimizer::default();
        let mut est = FnEstimator {
            f: |_q: &Query, mask: u64| 10.0 * mask.count_ones() as f64,
        };
        let plan = opt.optimize(&q, &[vec![], vec![], vec![]], &mut est);
        assert_eq!(plan.mask(), 0b111);
    }

    #[test]
    fn dp_prefers_cheap_join_order() {
        // Make (b ⋈ c) tiny and (a ⋈ b) huge: plan must join b,c first.
        let q = chain3();
        let opt = Optimizer::default();
        let mut est = FnEstimator {
            f: |_q: &Query, mask: u64| match mask {
                0b001 | 0b010 | 0b100 => 100.0,
                0b011 => 100_000.0, // a⋈b
                0b110 => 10.0,      // b⋈c
                _ => 1000.0,
            },
        };
        let plan = opt.optimize(&q, &[vec![], vec![], vec![]], &mut est);
        // The subtree covering {b,c} (mask 0b110) must exist.
        fn has_mask(p: &PhysPlan, m: u64) -> bool {
            if p.mask() == m {
                return true;
            }
            match p {
                PhysPlan::Scan { .. } => false,
                PhysPlan::HashJoin { build, probe, .. } => has_mask(build, m) || has_mask(probe, m),
                PhysPlan::IndexJoin { outer, .. } => has_mask(outer, m),
            }
        }
        assert!(
            has_mask(&plan, 0b110),
            "expected b⋈c first: {}",
            plan.describe()
        );
    }

    #[test]
    fn underestimates_trigger_index_joins() {
        let q = chain3();
        let opt = Optimizer::default();
        // Honest estimates: INLJ unattractive (outer big).
        let mut honest = FnEstimator {
            f: |_q: &Query, mask: u64| {
                if mask.count_ones() == 1 {
                    1000.0
                } else {
                    10_000.0
                }
            },
        };
        let indexed = vec![vec!["x".to_string()], vec![], vec!["y".to_string()]];
        let honest_plan = opt.optimize(&q, &indexed, &mut honest);
        // Underestimating intermediates makes INLJ look cheap.
        let mut liar = FnEstimator {
            f: |_q: &Query, mask: u64| if mask.count_ones() == 1 { 1000.0 } else { 2.0 },
        };
        let liar_plan = opt.optimize(&q, &indexed, &mut liar);
        assert!(
            liar_plan.num_index_joins() >= honest_plan.num_index_joins(),
            "liar {} vs honest {}",
            liar_plan.describe(),
            honest_plan.describe()
        );
    }

    #[test]
    fn greedy_handles_many_relations() {
        // 14-relation chain exceeds dp_limit → greedy.
        let mut sql = String::from("SELECT COUNT(*) FROM t0");
        for i in 1..14 {
            sql.push_str(&format!(", t{i}"));
        }
        sql.push_str(" WHERE ");
        let conds: Vec<String> = (1..14)
            .map(|i| format!("t{}.x = t{}.x", i - 1, i))
            .collect();
        sql.push_str(&conds.join(" AND "));
        let q = parse_sql(&sql).unwrap();
        let opt = Optimizer::default();
        let mut est = FnEstimator {
            f: |_q: &Query, mask: u64| mask.count_ones() as f64 * 5.0,
        };
        let plan = opt.optimize(&q, &vec![vec![]; 14], &mut est);
        assert_eq!(plan.mask().count_ones(), 14);
    }

    #[test]
    fn cartesian_product_still_planned() {
        let q = parse_sql("SELECT COUNT(*) FROM a, b").unwrap();
        let opt = Optimizer::default();
        let mut est = FnEstimator {
            f: |_q: &Query, _m: u64| 4.0,
        };
        let plan = opt.optimize(&q, &[vec![], vec![]], &mut est);
        assert_eq!(plan.mask(), 0b11);
    }

    /// Records every mask it is asked for, per-mask and batched apart.
    #[derive(Default)]
    struct Recorder {
        singles: Vec<u64>,
        batches: Vec<Vec<u64>>,
    }

    impl Recorder {
        /// A deterministic, mask-dependent estimate (distinct sizes make
        /// the DP's choices depend on every value).
        fn value(mask: u64) -> f64 {
            (mask.wrapping_mul(2_654_435_761) % 997) as f64 + 1.0
        }
    }

    impl CardinalityEstimator for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn estimate(&mut self, _query: &Query, mask: u64) -> f64 {
            self.singles.push(mask);
            Recorder::value(mask)
        }
        fn estimate_subsets(&mut self, _query: &Query, masks: &[u64], out: &mut Vec<f64>) {
            self.batches.push(masks.to_vec());
            out.clear();
            out.extend(masks.iter().map(|&m| Recorder::value(m)));
        }
    }

    #[test]
    fn batched_dp_requests_the_lazy_mask_set_and_plans_identically() {
        let cases = [
            // chain a–b–c: a,c alone is not connected.
            (
                chain3(),
                vec![0b001, 0b010, 0b100, 0b011, 0b110, 0b111],
                "HJ(IJ(Scan(0), 1), Scan(2))",
            ),
            // cartesian product: the disconnected full set is estimated.
            (
                parse_sql("SELECT COUNT(*) FROM a, b").unwrap(),
                vec![0b01, 0b10, 0b11],
                "HJ(Scan(0), Scan(1))",
            ),
            // a–b joined, c alone: full set disconnected, two components.
            (
                parse_sql("SELECT COUNT(*) FROM a, b, c WHERE a.x = b.x").unwrap(),
                vec![0b001, 0b010, 0b100, 0b011, 0b111],
                "HJ(IJ(Scan(0), 1), Scan(2))",
            ),
        ];
        let opt = Optimizer::default();
        // Expected masks and plans as the per-mask DP chose them before
        // batching existed.
        for (q, expected, described) in cases {
            let indexed = vec![vec!["x".to_string()]; q.num_relations()];
            // The lazy DP: each mask estimated when the DP first needs it.
            let mut lazy = Recorder::default();
            let lazy_plan = opt.dp(
                &q,
                &indexed,
                &dp_masks(q.num_relations(), &adjacency(&q)),
                &mut lazy_cards(&q, &mut lazy),
            );
            let mut batched = Recorder::default();
            let plan = opt.optimize(&q, &indexed, &mut batched);
            assert!(batched.singles.is_empty(), "DP must not estimate per mask");
            assert_eq!(batched.batches.len(), 1, "one batched call per query");
            let mut asked = batched.batches[0].clone();
            assert_eq!(asked.len(), lazy.singles.len(), "no duplicates");
            asked.sort_unstable();
            let mut lazy_set = lazy.singles.clone();
            lazy_set.sort_unstable();
            let mut expected = expected;
            expected.sort_unstable();
            assert_eq!(asked, lazy_set);
            assert_eq!(asked, expected);
            assert_eq!(plan, lazy_plan, "{}", plan.describe());
            assert_eq!(plan.describe(), described);
        }
    }

    #[test]
    fn greedy_estimates_per_mask() {
        let mut sql = String::from("SELECT COUNT(*) FROM t0");
        for i in 1..14 {
            sql.push_str(&format!(", t{i}"));
        }
        let conds: Vec<String> = (1..14)
            .map(|i| format!("t{}.x = t{}.x", i - 1, i))
            .collect();
        sql.push_str(&format!(" WHERE {}", conds.join(" AND ")));
        let q = parse_sql(&sql).unwrap();
        let mut rec = Recorder::default();
        let plan = Optimizer::default().optimize(&q, &vec![vec![]; 14], &mut rec);
        assert_eq!(plan.mask().count_ones(), 14);
        assert!(rec.batches.is_empty(), "greedy must not batch");
        assert!(rec.singles.len() >= 14);
    }

    #[test]
    fn inlj_disabled_by_cost_model() {
        let q = chain3();
        let opt = Optimizer::new(CostModel::without_indexes());
        let mut liar = FnEstimator {
            f: |_q: &Query, mask: u64| if mask.count_ones() == 1 { 1000.0 } else { 2.0 },
        };
        let indexed = vec![
            vec!["x".to_string()],
            vec!["x".to_string()],
            vec!["y".to_string()],
        ];
        let plan = opt.optimize(&q, &indexed, &mut liar);
        assert_eq!(plan.num_index_joins(), 0);
    }
}
