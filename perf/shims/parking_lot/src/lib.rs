//! Offline stand-in for `parking_lot`: a `Mutex` whose `lock()` returns
//! the guard directly, over `std::sync::Mutex`.

use std::sync::{Mutex as StdMutex, MutexGuard};

#[derive(Debug, Default)]
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self(StdMutex::new(value))
    }

    /// parking_lot mutexes do not poison; a panic while the lock was held
    /// leaves the data as that thread left it, which is what callers of
    /// the real crate already accept.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}
