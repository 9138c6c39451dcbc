//! Stand-in for crates.io `serde`, used only by `pinsql-benchmark`.
//!
//! The workspace crates decorate ~70 types with `Serialize`/`Deserialize`
//! derives, but nothing on the measured path serialises through serde
//! (the PSNP/PCTL/PEVT wires are hand-rolled). The traits are therefore
//! empty markers and the derives expand to nothing; the `serde_json`
//! stand-in next door refuses every call instead of faking success.

/// Marker only: no stand-in function ever serialises through it.
pub trait Serialize {}

/// Marker only: no stand-in function ever deserialises through it.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
