//! Offline stand-in for `serde`: marker traits every type satisfies, and
//! derives that expand to nothing. Nothing the benchmark drives goes
//! through serde at run time (see `serde_json`, which panics if reached).

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}
