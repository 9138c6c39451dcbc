//! Anomaly detection (§IV-B of the paper).
//!
//! Two layers, mirroring the production design:
//!
//! * **Basic Perception** ([`features`], [`detector`]) — robust streaming
//!   detectors that turn each performance-metric series into *anomalous
//!   features*: spike up/down and level-shift up/down segments. The
//!   [`online`] module hosts the sample-at-a-time formulation of the same
//!   algorithm (bounded rolling state, bit-identical features) for the
//!   event-driven engine.
//! * **Phenomenon Perception** ([`phenomenon`]) — a configurable rule table
//!   combining features of different metrics into typed anomalous
//!   *phenomena* (e.g. `[active_session.spike]`), merging phenomena of the
//!   same type that occur close together and dropping those shorter than a
//!   configurable minimum duration. The result is the anomaly case window
//!   `[a_s, a_e)` that triggers root-cause analysis.
//!
//! (The paper plugs iSQUAD in for phenomenon typing; the rule table here
//! reproduces the part PinSQL depends on — building typed anomaly cases —
//! without the Bayesian case model.)

#![forbid(unsafe_code)]

pub mod case;
pub mod confirm;
pub mod detector;
pub mod features;
pub mod online;
pub mod phenomenon;

pub use case::AnomalyWindow;
pub use confirm::{confirm_level_shifts, ConfirmConfig};
pub use detector::{detect_features, DetectorConfig};
pub use features::{Feature, FeatureKind};
pub use online::{OnlineDetectorBank, OnlineFeatureDetector};
pub use pinsql_timeseries::{CutKind, KernelKind};
pub use phenomenon::{classify, MetricFeature, Phenomenon, PhenomenonConfig, PhenomenonRule};
