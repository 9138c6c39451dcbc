//! Root integration-suite crate (see tests/ and examples/).

#![forbid(unsafe_code)]
