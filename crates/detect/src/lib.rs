//! Anomaly detection (§IV-B of the paper).
//!
//! Two layers, mirroring the production design:
//!
//! * **Basic Perception** ([`features`], [`detector`], [`online`]) — one
//!   robust streaming detector per metric ([`OnlineFeatureDetector`],
//!   sample at a time, bounded rolling state) that turns each
//!   performance-metric series into *anomalous features*: spike up/down and
//!   level-shift up/down segments. The engine drives it live;
//!   [`detect_features`] pushes a whole series through it.
//! * **Phenomenon Perception** ([`phenomenon`]) — a configurable rule table
//!   combining features of different metrics into typed anomalous
//!   *phenomena* (e.g. `[active_session.spike]`), merging phenomena of the
//!   same type that occur close together and dropping those shorter than a
//!   configurable minimum duration. The longest phenomenon is the anomaly
//!   case window `[a_s, a_e)` that triggers root-cause analysis
//!   ([`select_case_window`], which reads nothing but the stream).
//!
//! (The paper plugs iSQUAD in for phenomenon typing; the rule table here
//! reproduces the part PinSQL depends on — building typed anomaly cases —
//! without the Bayesian case model.)

#![forbid(unsafe_code)]

pub mod case;
pub mod detector;
pub mod features;
pub mod online;
pub mod phenomenon;

pub use case::{select_case_window, AnomalyWindow};
pub use detector::{detect_features, DetectorConfig};
pub use features::{Feature, FeatureKind};
pub use online::{OnlineDetectorBank, OnlineFeatureDetector};
pub use pinsql_timeseries::{CutKind, KernelKind};
pub use phenomenon::{classify, MetricFeature, Phenomenon, PhenomenonConfig, PhenomenonRule};
