//! Adapters plugging SafeBound into the optimizer's estimator interface.

use safebound_core::{BoundSession, EstimateError, SafeBound};
use safebound_exec::CardinalityEstimator;
use safebound_query::Query;

/// SafeBound as a [`CardinalityEstimator`]: sub-query estimates are bounds
/// of the induced queries, and a failed bound is `INFINITY`. Carries a
/// [`BoundSession`] so estimates reuse its arena buffers and cached plans.
/// A batched [`estimate_subsets`](CardinalityEstimator::estimate_subsets)
/// goes through [`SafeBound::bound_subsets`]: the DP's sub-query shapes
/// rarely repeat (every subset carries its own predicates), but their
/// join topologies do, and each relation's predicates resolve once per
/// query instead of once per subset.
///
/// `inner` is the snapshot-handle API: it can be a clone of a serving
/// handle, in which case a background
/// [`swap_stats`](SafeBound::swap_stats) refreshes this estimator too
/// (the session flushes itself on the next estimate).
pub struct SafeBoundEstimator {
    /// The underlying bound system (cheaply cloneable handle).
    pub inner: SafeBound,
    session: BoundSession,
    /// Reused result buffer of the batched path.
    results: Vec<Result<f64, EstimateError>>,
}

impl SafeBoundEstimator {
    /// Wrap a SafeBound handle (share one via `clone` across estimators).
    pub fn new(inner: SafeBound) -> Self {
        SafeBoundEstimator {
            inner,
            session: BoundSession::default(),
            results: Vec::new(),
        }
    }
}

impl CardinalityEstimator for SafeBoundEstimator {
    fn name(&self) -> &'static str {
        "SafeBound"
    }
    fn estimate(&mut self, query: &Query, mask: u64) -> f64 {
        self.inner
            .bound_with_session(&query.induced(mask), &mut self.session)
            .unwrap_or(f64::INFINITY)
    }
    fn estimate_subsets(&mut self, query: &Query, masks: &[u64], out: &mut Vec<f64>) {
        self.inner
            .bound_subsets(query, masks, &mut self.session, &mut self.results);
        out.clear();
        out.extend(
            self.results
                .iter()
                .map(|r| r.as_ref().map_or(f64::INFINITY, |&b| b)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safebound_core::SafeBoundConfig;
    use safebound_query::parse_sql;
    use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table};

    #[test]
    fn adapter_estimates_subqueries() {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            "a",
            Schema::new(vec![Field::new("x", DataType::Int)]),
            vec![Column::from_ints([1, 1, 2].map(Some))],
        ));
        c.add_table(Table::new(
            "b",
            Schema::new(vec![Field::new("x", DataType::Int)]),
            vec![Column::from_ints([1, 2, 2].map(Some))],
        ));
        let mut est = SafeBoundEstimator::new(SafeBound::build(&c, SafeBoundConfig::test_small()));
        let q = parse_sql("SELECT COUNT(*) FROM a, b WHERE a.x = b.x").unwrap();
        assert!(est.estimate(&q, 0b01) >= 3.0);
        // a ⋈ b: x = 1 pairs 2·1 rows, x = 2 pairs 1·2 rows ⇒ exactly 4.
        assert!(est.estimate(&q, 0b11) >= 4.0);
        assert_eq!(est.name(), "SafeBound");

        let masks = [0b01, 0b10, 0b11, 0b11];
        let mut batched = Vec::new();
        est.estimate_subsets(&q, &masks, &mut batched);
        let single: Vec<f64> = masks.iter().map(|&m| est.estimate(&q, m)).collect();
        assert_eq!(batched, single);

        // A table without statistics fails only the masks that select it.
        let q = parse_sql("SELECT COUNT(*) FROM a, zz WHERE a.x = zz.x").unwrap();
        est.estimate_subsets(&q, &[0b01, 0b10, 0b11], &mut batched);
        assert_eq!(batched[0], est.estimate(&q, 0b01));
        assert!(batched[0].is_finite());
        assert_eq!(batched[1..], [f64::INFINITY, f64::INFINITY]);
    }
}
