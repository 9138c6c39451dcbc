//! Empty: this package exists for its `[[test]]` targets (see Cargo.toml).
