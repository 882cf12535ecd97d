//! Offline stand-in for `serde_json`. The benchmark never serialises
//! through serde (it only calls crate functions that use the in-tree
//! binary/JSON writers), so these entry points exist to link and panic
//! if a later change starts reaching them.

use std::fmt;

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json shim")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    panic!("perf/shims/serde_json: to_string reached; the shim cannot serialise")
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    panic!("perf/shims/serde_json: from_str reached; the shim cannot parse")
}
