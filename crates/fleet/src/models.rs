//! The plant → model policy, held by both the fleet engine and the
//! ingest server so live, replayed and served plants resolve alike.

use std::ops::Deref;

use temspc::DualMspc;

use crate::store::{ModelStore, PlantKey, ResolvedModel};

/// Where plant monitors come from.
#[derive(Debug, Clone, Copy)]
pub enum Models<'a> {
    /// One calibrated monitor for every plant, at generation 0 (a fixed
    /// model has no store lineage).
    Fixed(&'a DualMspc),
    /// Plant `p` resolves cohort `p % cohorts` through the store (LRU
    /// residency, calibrate-on-miss, hot reload).
    Store {
        /// The sharded per-plant model store.
        store: &'a ModelStore,
        /// Cohort count of the plant → key mapping (0 is treated as 1).
        cohorts: usize,
    },
}

/// A plant's resolved monitor: the fixed model, or a store entry this
/// handle keeps alive while the store evicts or reloads its own copy.
#[derive(Debug, Clone)]
pub enum Resolved<'a> {
    /// The fixed model.
    Fixed(&'a DualMspc),
    /// A store entry.
    Stored {
        /// The key it resolved under.
        key: PlantKey,
        /// The entry's model and generation.
        entry: ResolvedModel,
    },
}

impl Resolved<'_> {
    /// The generation that identifies the monitor in reports and
    /// checkpoints (0 for a fixed model).
    pub fn generation(&self) -> u64 {
        match self {
            Resolved::Fixed(_) => 0,
            Resolved::Stored { entry, .. } => entry.generation,
        }
    }
}

impl Deref for Resolved<'_> {
    type Target = DualMspc;

    fn deref(&self) -> &DualMspc {
        match self {
            Resolved::Fixed(monitor) => monitor,
            Resolved::Stored { entry, .. } => &entry.model,
        }
    }
}

impl<'a> Models<'a> {
    /// Resolves the monitor plant `plant` scores against.
    ///
    /// # Errors
    ///
    /// The store's failure (I/O, a torn or foreign file, a failed
    /// calibrate-on-miss), as a message naming the key.
    pub fn resolve(&self, plant: usize) -> Result<Resolved<'a>, String> {
        match *self {
            Models::Fixed(monitor) => Ok(Resolved::Fixed(monitor)),
            Models::Store { store, cohorts } => {
                let key = cohort_key(plant, cohorts);
                match store.get(&key) {
                    Ok(entry) => Ok(Resolved::Stored { key, entry }),
                    Err(e) => Err(format!("model store key '{key}': {e}")),
                }
            }
        }
    }

    /// Whether a result plant `plant` scored at `generation` still stands:
    /// always for a fixed model; for the store, while the key's on-disk
    /// generation is that one (a re-calibration outdates it).
    pub fn is_current(&self, plant: usize, generation: u64) -> bool {
        match *self {
            Models::Fixed(_) => true,
            Models::Store { store, cohorts } => matches!(
                store.generation_on_disk(&cohort_key(plant, cohorts)),
                Ok(Some(on_disk)) if on_disk == generation
            ),
        }
    }
}

/// Plant `plant`'s key: cohort `plant % cohorts` (0 cohorts act as 1).
fn cohort_key(plant: usize, cohorts: usize) -> PlantKey {
    PlantKey::cohort(plant % cohorts.max(1))
}
