//! Logical table definitions.
//!
//! The simulator never stores rows; it only needs each table's *lock
//! geometry*: how many rows exist, how many of them are "hot" (fought over
//! by concurrent writers), and a human-readable name for generated SQL.

/// Index of a table within [`crate::Workload::tables`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// A logical table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    pub name: String,
    /// Total row count (drives full-scan examined-rows costs).
    pub rows: u64,
    /// Number of distinct hot-row slots contended writes hash into. Smaller
    /// values mean more row-lock conflicts.
    pub hot_slots: u32,
}

impl TableDef {
    /// Creates a table with the given name, cardinality and hot-slot count.
    ///
    /// # Panics
    /// Panics if `hot_slots` is zero (the lock model needs at least one
    /// slot).
    pub fn new(name: impl Into<String>, rows: u64, hot_slots: u32) -> Self {
        assert!(hot_slots > 0, "a table needs at least one hot slot");
        Self { name: name.into(), rows, hot_slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_def_construction() {
        let t = TableDef::new("sales", 10_000_000, 64);
        assert_eq!(t.name, "sales");
        assert_eq!(t.rows, 10_000_000);
        assert_eq!(t.hot_slots, 64);
    }

    #[test]
    #[should_panic(expected = "at least one hot slot")]
    fn zero_hot_slots_panics() {
        let _ = TableDef::new("t", 10, 0);
    }
}
