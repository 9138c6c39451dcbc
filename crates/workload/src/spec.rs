//! Template specifications: a SQL template plus its execution profile.

use crate::cost::CostProfile;
use pinsql_sqlkit::SqlTemplate;

/// A SQL template as the workload generator knows it: the (already
/// normalized) statement, its cost profile, and a label naming the business
/// intent (used in reports and ground-truth bookkeeping).
#[derive(Debug, Clone)]
pub struct TemplateSpec {
    /// The parsed template (id, canonical text, kind, tables).
    pub template: SqlTemplate,
    /// Resource/lock profile of one execution.
    pub cost: CostProfile,
    /// Human-readable label, e.g. `"orders.lookup_by_id"`.
    pub label: String,
}

impl TemplateSpec {
    /// Builds a spec from raw SQL text. The text is normalized and
    /// fingerprinted via `pinsql-sqlkit`, so two specs created from
    /// structurally identical SQL share a [`pinsql_sqlkit::SqlId`].
    pub fn new(sql: &str, cost: CostProfile, label: impl Into<String>) -> Self {
        Self { template: SqlTemplate::of(sql), cost, label: label.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostProfile;
    use crate::tables::TableId;

    #[test]
    fn spec_carries_template_identity() {
        let spec = TemplateSpec::new(
            "SELECT * FROM orders WHERE id = 42",
            CostProfile::point_read(TableId(0)),
            "orders.lookup",
        );
        assert_eq!(spec.template.text, "SELECT * FROM orders WHERE id = ?");
        assert_eq!(spec.template.tables, vec!["orders"]);
        assert_eq!(spec.label, "orders.lookup");
    }

    #[test]
    fn structurally_equal_specs_share_sql_id() {
        let c = CostProfile::point_read(TableId(0));
        let a = TemplateSpec::new("SELECT * FROM t WHERE x = 1", c.clone(), "a");
        let b = TemplateSpec::new("SELECT * FROM t WHERE x = 999", c, "b");
        assert_eq!(a.template.id, b.template.id);
    }
}
