//! Query-log records — the raw material PinSQL's collector aggregates.
//!
//! Per §IV-A, the collector receives for each query: the SQL (identified
//! here by its spec/template), the response time `t_res`, the number of
//! examined rows, and the arrival timestamp in milliseconds. A query is
//! *active* during `[t(q), t(q) + t_res(q))` (§IV-C).

use pinsql_workload::SpecId;

/// One executed query, as the log collector sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// The template spec that produced this query.
    pub spec: SpecId,
    /// Arrival timestamp in milliseconds since simulation start.
    pub start_ms: f64,
    /// Response time in milliseconds (queueing + lock waits + service).
    pub response_ms: f64,
    /// Rows examined.
    pub examined_rows: u64,
}

impl QueryRecord {
    /// End of the query's active interval in ms.
    #[inline]
    pub fn end_ms(&self) -> f64 {
        self.start_ms + self.response_ms
    }

    /// Length of the overlap between the query's active interval and
    /// `[from_ms, to_ms)`, in ms — the numerator of §IV-C's
    /// `P(observed(p, q))`.
    #[inline]
    pub fn overlap_ms(&self, from_ms: f64, to_ms: f64) -> f64 {
        let lo = self.start_ms.max(from_ms);
        let hi = self.end_ms().min(to_ms);
        (hi - lo).max(0.0)
    }

    /// True when the query is in flight at instant `t_ms`.
    #[inline]
    pub fn active_at(&self, t_ms: f64) -> bool {
        t_ms >= self.start_ms && t_ms < self.end_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: f64, rt: f64) -> QueryRecord {
        QueryRecord { spec: SpecId(0), start_ms: start, response_ms: rt, examined_rows: 1 }
    }

    #[test]
    fn active_interval_is_half_open() {
        let q = rec(100.0, 50.0);
        assert!(q.active_at(100.0));
        assert!(q.active_at(149.9));
        assert!(!q.active_at(150.0));
        assert!(!q.active_at(99.9));
    }

    #[test]
    fn overlap_clamps_to_window() {
        let q = rec(100.0, 50.0);
        assert_eq!(q.overlap_ms(0.0, 1000.0), 50.0);
        assert_eq!(q.overlap_ms(120.0, 130.0), 10.0);
        assert_eq!(q.overlap_ms(0.0, 100.0), 0.0);
        assert_eq!(q.overlap_ms(150.0, 200.0), 0.0);
        assert_eq!(q.overlap_ms(125.0, 300.0), 25.0);
    }
}
