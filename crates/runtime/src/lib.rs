//! Simulated System S runtime infrastructure (§2.2).
//!
//! Reproduces the three middleware components the orchestrator interacts
//! with, on top of a deterministic simulated cluster:
//!
//! - **SAM** (Streams Application Manager): job submission/cancellation, PE
//!   spawning per placement constraints, PE stop/restart, orchestrator
//!   registration and failure-notification push ([`sam`]),
//! - **SRM** (Streams Resource Manager): host/component liveness and the
//!   system-wide metric collection point ([`srm`]),
//! - **HC** (Host Controller): a per-host daemon that runs PE processes and
//!   pushes their metrics to SRM every 3 seconds ([`cluster`]),
//!
//! plus the dynamic stream **import/export broker** (§2.1), a fault
//! injector, and the [`world::World`] driver that advances everything on a
//! fixed scheduling quantum. The ORCA service (in the `orca` crate) plugs in
//! as a [`world::Controller`].

#![forbid(unsafe_code)]

pub mod broker;
pub mod ckpt;
pub mod cluster;
pub mod error;
pub mod ids;
pub mod kernel;
pub mod metastore;
pub mod sam;
pub mod srm;
pub mod world;

pub use broker::{BackupEntry, BackupItem, Broker, ChannelKey, UbStats, UpstreamBackup};
pub use ckpt::{
    CheckpointPolicy, CheckpointStore, CommittedSave, PeDelta, RestoreCandidate, StorageModel,
};
pub use cluster::{Cluster, Host, PeProcess, PeStatus};
pub use error::RuntimeError;
pub use ids::{JobId, OrcaId, PeId};
pub use kernel::{
    ControlStats, CrashRecord, FreshReason, Kernel, KillTarget, RestartRecord, RestoreOutcome,
    RuntimeConfig,
};
pub use metastore::{
    build_metastore, MemoryMetastore, MetaOp, MetaRecovery, MetaStats, MetaTables, Metastore,
    MetastoreKind, ReplicatedMetastore,
};
pub use sam::{CrashReason, JobInfo, JobStatus, OrcaNotification, Sam};
pub use srm::{JobMetrics, MetricSnapshot, Srm};
pub use world::{Controller, World};
