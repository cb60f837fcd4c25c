//! Deterministic discrete-event simulation kernel.
//!
//! Everything in the System S reproduction — the cluster, the runtime daemons
//! (SAM/SRM/HC), the stream engine, and the ORCA orchestrator service — is
//! advanced by a single logical clock defined here. Determinism is a design
//! requirement: every experiment in the paper (Figures 7–10) must be
//! reproducible bit-for-bit from a seed.
//!
//! The kernel provides:
//! - [`SimTime`] / [`SimDuration`]: millisecond-resolution logical time,
//! - [`Scheduler`]: a stable-ordered pending-event queue generic over the
//!   event payload type (the runtime steps in fixed quanta and does not use
//!   it; `perf` times it),
//! - [`SimRng`]: a small, fast, seedable RNG (SplitMix64 / xoshiro256**),
//! - [`trace`]: a bounded in-memory trace ring used for debugging runs,
//! - [`alloc`]: the process allocator. This crate is the root of the crate
//!   graph, so every binary and test in the workspace links it.

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

// The one module that needs `unsafe`: a global allocator hands out raw
// memory. Every block in it carries a `// SAFETY:` comment.
#[allow(unsafe_code)]
pub mod alloc;
pub mod rng;
pub mod scheduler;
pub mod time;
pub mod trace;

pub use rng::SimRng;
pub use scheduler::{ScheduledEvent, Scheduler, TicketId};
pub use time::{SimDuration, SimTime};
pub use trace::{fnv1a, DigestWriter, TraceEntry, TraceRing, FNV_OFFSET};
