//! The template catalog: one entry per distinct SQL template.
//!
//! Workload specs are authored per business intent, but two services can
//! issue structurally identical SQL; aggregation keys on the [`SqlId`]
//! fingerprint (exactly how MySQL statement digests behave), so the catalog
//! folds such specs into one template and remembers which specs
//! contributed.
//!
//! Because the spec set is fixed at catalog construction, every distinct
//! template also gets a dense **slot** — `0..n_slots()` in first-appearance
//! order. Slots are what the ingest hot path indexes with: attributing a
//! query record is two `Vec` lookups (`spec → slot`, `slot → cell`), no
//! hashing at all. The sparse `SqlId` fingerprint remains the public,
//! digest-compatible key; slots are a catalog-local compression of it.

use pinsql_sqlkit::{SqlId, StatementKind};
use pinsql_timeseries::{FxHashMap, WireError, WireReader, WireWriter};
use pinsql_workload::{SpecId, TemplateSpec};

/// Everything known about one SQL template.
#[derive(Debug, Clone)]
pub struct TemplateInfo {
    pub id: SqlId,
    /// Canonical normalized statement text.
    pub text: String,
    pub kind: StatementKind,
    pub tables: Vec<String>,
    /// Workload specs that produce this template.
    pub specs: Vec<SpecId>,
    /// Label of the first contributing spec (diagnostic display).
    pub label: String,
}

/// Catalog of templates keyed by [`SqlId`], with a dense slot index.
#[derive(Debug, Clone, Default)]
pub struct TemplateCatalog {
    map: FxHashMap<SqlId, TemplateInfo>,
    /// Per-spec template id, aligned with the workload's spec vector.
    spec_to_id: Vec<SqlId>,
    /// Per-spec dense slot, aligned with the workload's spec vector.
    spec_to_slot: Vec<u32>,
    /// Slot → template id, in first-appearance order over the spec vector.
    slot_to_id: Vec<SqlId>,
}

impl TemplateCatalog {
    /// Builds the catalog from the workload's specs.
    pub fn from_specs(specs: &[TemplateSpec]) -> Self {
        let mut map: FxHashMap<SqlId, TemplateInfo> = FxHashMap::default();
        map.reserve(specs.len());
        let mut spec_to_id = Vec::with_capacity(specs.len());
        let mut spec_to_slot = Vec::with_capacity(specs.len());
        let mut slot_to_id: Vec<SqlId> = Vec::new();
        let mut id_to_slot: FxHashMap<SqlId, u32> = FxHashMap::default();
        for (i, spec) in specs.iter().enumerate() {
            let id = spec.template.id;
            spec_to_id.push(id);
            let slot = *id_to_slot.entry(id).or_insert_with(|| {
                slot_to_id.push(id);
                (slot_to_id.len() - 1) as u32
            });
            spec_to_slot.push(slot);
            map.entry(id)
                .and_modify(|info| info.specs.push(SpecId(i)))
                .or_insert_with(|| TemplateInfo {
                    id,
                    text: spec.template.text.clone(),
                    kind: spec.template.kind,
                    tables: spec.template.tables.clone(),
                    specs: vec![SpecId(i)],
                    label: spec.label.clone(),
                });
        }
        Self { map, spec_to_id, spec_to_slot, slot_to_id }
    }

    /// The template id a spec maps to.
    #[inline]
    pub fn id_of_spec(&self, spec: SpecId) -> SqlId {
        self.spec_to_id[spec.0]
    }

    /// The dense slot a spec's template occupies.
    #[inline]
    pub fn slot_of_spec(&self, spec: SpecId) -> u32 {
        self.spec_to_slot[spec.0]
    }

    /// The template id occupying a slot.
    #[inline]
    pub fn id_of_slot(&self, slot: u32) -> SqlId {
        self.slot_to_id[slot as usize]
    }

    /// Number of workload specs the catalog was built from.
    #[inline]
    pub fn n_specs(&self) -> usize {
        self.spec_to_slot.len()
    }

    /// Number of dense slots (== number of distinct templates).
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.slot_to_id.len()
    }

    /// Template info by id.
    pub fn get(&self, id: SqlId) -> Option<&TemplateInfo> {
        self.map.get(&id)
    }

    /// Number of distinct templates.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over all templates (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &TemplateInfo> {
        self.map.values()
    }

    /// Bytes [`write_slots`](Self::write_slots) writes.
    pub(crate) fn slots_wire_len(&self) -> usize {
        8 + 8 * self.slot_to_id.len()
    }

    /// `PSNP`: the slot → id assignment. A catalog is never restored from
    /// these bytes — it is rebuilt from the workload specs — they are what
    /// [`read_checked`](Self::read_checked) holds the rebuilt one against.
    pub(crate) fn write_slots(&self, w: &mut WireWriter) {
        w.put_len(self.slot_to_id.len());
        for id in &self.slot_to_id {
            w.put_u64(id.0);
        }
    }

    /// Builds the catalog from `specs` and checks it against
    /// [`write_slots`](Self::write_slots)'s stretch, so restoring into the
    /// wrong scenario is a typed mismatch, never silent misattribution.
    pub(crate) fn read_checked(
        specs: &[TemplateSpec],
        r: &mut WireReader,
    ) -> Result<Self, WireError> {
        let catalog = Self::from_specs(specs);
        let n_slots = r.get_len(8)?;
        if n_slots != catalog.n_slots() {
            return Err(WireError::Mismatch {
                what: "template catalog",
                detail: format!(
                    "snapshot has {n_slots} slots, scenario has {}",
                    catalog.n_slots()
                ),
            });
        }
        for (slot, expected) in catalog.slot_to_id.iter().enumerate() {
            let id = r.get_u64()?;
            if id != expected.0 {
                return Err(WireError::Mismatch {
                    what: "template catalog",
                    detail: format!(
                        "slot {slot}: snapshot id {id:#x}, scenario id {:#x}",
                        expected.0
                    ),
                });
            }
        }
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinsql_workload::{CostProfile, TableId};

    #[test]
    fn folds_structurally_identical_specs() {
        let c = CostProfile::point_read(TableId(0));
        let specs = vec![
            TemplateSpec::new("SELECT * FROM t WHERE a = 1", c.clone(), "svc_a.read"),
            TemplateSpec::new("SELECT * FROM t WHERE a = 22", c.clone(), "svc_b.read"),
            TemplateSpec::new("SELECT * FROM u WHERE a = 1", c, "svc_c.read"),
        ];
        let catalog = TemplateCatalog::from_specs(&specs);
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.id_of_spec(SpecId(0)), catalog.id_of_spec(SpecId(1)));
        assert_ne!(catalog.id_of_spec(SpecId(0)), catalog.id_of_spec(SpecId(2)));
        let info = catalog.get(catalog.id_of_spec(SpecId(0))).unwrap();
        assert_eq!(info.specs, vec![SpecId(0), SpecId(1)]);
        assert_eq!(info.label, "svc_a.read");
    }

    #[test]
    fn slots_are_dense_and_first_appearance_ordered() {
        let c = CostProfile::point_read(TableId(0));
        let specs = vec![
            TemplateSpec::new("SELECT * FROM t WHERE a = 1", c.clone(), "a"),
            TemplateSpec::new("SELECT * FROM u WHERE a = 1", c.clone(), "b"),
            TemplateSpec::new("SELECT * FROM t WHERE a = 9", c.clone(), "c"), // same template as spec 0
            TemplateSpec::new("SELECT * FROM v WHERE a = 1", c, "d"),
        ];
        let catalog = TemplateCatalog::from_specs(&specs);
        assert_eq!(catalog.n_slots(), 3);
        assert_eq!(catalog.slot_of_spec(SpecId(0)), 0);
        assert_eq!(catalog.slot_of_spec(SpecId(1)), 1);
        assert_eq!(catalog.slot_of_spec(SpecId(2)), 0, "folded spec shares its slot");
        assert_eq!(catalog.slot_of_spec(SpecId(3)), 2);
        for (spec, slot) in [(0, 0), (1, 1), (3, 2)] {
            assert_eq!(catalog.id_of_slot(slot), catalog.id_of_spec(SpecId(spec)), "slot {slot}");
        }
    }

    #[test]
    fn empty_catalog() {
        let catalog = TemplateCatalog::from_specs(&[]);
        assert!(catalog.is_empty());
        assert_eq!(catalog.n_slots(), 0);
        assert_eq!(catalog.iter().count(), 0);
    }
}
