//! Link-only stand-in for crates.io `serde_json`.
//!
//! `dbsim::trace` and `obs::export` name these functions, so they must
//! exist for the workspace crates to compile. None of them is on the
//! benchmark's path: every one returns [`Error`] — never a fake success —
//! and the harness writes its own JSON by hand (`pinsql-benchmark::json`).

use std::fmt;

/// The only error this stand-in produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is a link-only stand-in in the benchmark build")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn to_writer<W: std::io::Write, T: ?Sized>(_writer: W, _value: &T) -> Result<()> {
    Err(Error)
}

pub fn from_str<T>(_s: &str) -> Result<T> {
    Err(Error)
}

/// A JSON value nobody can construct through this crate (`from_str`
/// always fails); the accessors exist for `obs::export`'s validator.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}
