//! The test programs the integration tests share: the search unit
//! tests' own `Counters` and `FaultyCounters`.

// Each test crate compiles this module and uses only part of it.
#![allow(dead_code, unused_imports)]

#[path = "../../src/search/testprog.rs"]
mod testprog;

pub use testprog::{Counters, FaultyCounters};
