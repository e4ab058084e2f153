//! Offline stand-in for `serde`, used by the benchmark build only.
//!
//! The library crates derive `Serialize`/`Deserialize` on their public
//! types but never serialise them on any path the benchmark calls, so the
//! traits here are markers and the derives expand to nothing.

pub use serde_derive::{Deserialize, Serialize};

/// Marker: the type would be serialisable with the real `serde`.
pub trait Serialize {}

/// Marker: the type would be deserialisable with the real `serde`.
pub trait Deserialize<'de> {}
