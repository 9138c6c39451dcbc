//! Stand-in for the one `parking_lot` item the workspace uses: a `Mutex`
//! whose `lock()` hands back the guard directly. Only `collector::stream`
//! (not on the benchmark's path) names it.

use std::sync::{Mutex as StdMutex, MutexGuard};

#[derive(Debug, Default)]
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Self(StdMutex::new(value))
    }

    /// `parking_lot` has no poisoning; a panicked holder leaves the data
    /// as it was, so the guard is recovered rather than propagated.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}
