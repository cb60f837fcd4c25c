//! Integration-test host crate.
//!
//! This crate holds no library code of its own: it exists so the top-level
//! cross-crate integration suites (`tests/`) and the runnable walkthroughs
//! (`examples/`) have a Cargo package that depends on every layer of the
//! system — sim, model, engine, runtime, orca, and the use-case apps.

#![forbid(unsafe_code)]
