//! Stream operator runtime for the System S reproduction.
//!
//! Provides what the paper assumes of the SPL runtime (§2.1):
//!
//! - typed [`tuple::Tuple`]s flowing over stream connections,
//! - an [`op::Operator`] trait plus a library of built-in operators
//!   ([`ops`]), instantiated from ADL descriptions via a [`registry`],
//! - *built-in and custom metrics* ([`metrics`]) — counters the SRM collects
//!   and the orchestrator subscribes to,
//! - window and **final punctuation** ([`op::Punct`]) propagation — final
//!   punctuation drives the §5.3 dynamic-composition use case,
//! - sliding/tumbling [`window`]s (the §5.2 Trend Calculator state),
//! - a binary tuple [`codec`] for inter-PE transport,
//! - [`pe::PeRuntime`]: the per-process container executing fused operators
//!   with bounded per-quantum budgets (so queues grow under overload and
//!   `queueSize` metrics are meaningful).

#![forbid(unsafe_code)]

pub mod ckpt;
pub mod codec;
pub mod error;
pub mod expr;
pub mod metrics;
pub mod op;
pub mod ops;
pub mod pe;
pub mod registry;
pub mod tuple;
pub mod window;

pub use ckpt::{OpCheckpoint, PeCheckpoint, StateBlob, StateReader, StateWriter};
pub use error::EngineError;
pub use metrics::{MetricId, MetricKey, MetricStore};
pub use op::{OpCtx, Operator, Punct, StreamItem};
pub use pe::{PeOutput, PeRuntime, RemoteDelivery};
pub use registry::OperatorRegistry;
pub use tuple::{Name, Schema, Tuple};
