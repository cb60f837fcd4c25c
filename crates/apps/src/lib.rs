//! The three VLDB'12 use-case applications and their ORCA logics.
//!
//! - [`sentiment`] — §5.1: Twitter sentiment analysis that adapts to drift
//!   in the incoming cause distribution by triggering a (simulated) Hadoop
//!   model recomputation (Figure 8), plus the Figure-1-style *embedded*
//!   adaptation baseline where control operators live inside the data flow
//!   graph;
//! - [`trend`] — §5.2: the "Trend Calculator" financial application managed
//!   as three replicas with orchestrated failover on PE crashes (Figure 9);
//! - [`social`] — §5.3: on-demand dynamic composition of C1/C2/C3 social
//!   media applications driven by custom-metric thresholds and final
//!   punctuation (Figure 10).
//!
//! [`registry`] builds an operator registry containing the engine built-ins
//! plus every application-specific operator kind defined here.

#![forbid(unsafe_code)]

pub mod live;
pub mod sentiment;
pub mod social;
pub mod trend;

use sps_engine::OperatorRegistry;

/// Registry with engine built-ins plus all use-case operator kinds.
///
/// `stores` supplies the shared side-state the applications need (cause
/// model, tweet archive, profile store) — what the paper's applications keep
/// on disk or in external data stores.
pub fn registry(stores: &SharedStores) -> OperatorRegistry {
    let mut r = OperatorRegistry::with_builtins();
    sentiment::register_ops(&mut r, stores);
    trend::register_ops(&mut r);
    social::register_ops(&mut r, stores);
    r
}

/// Shared out-of-band state (the "disk" / "external data store" of the
/// paper's applications).
#[derive(Clone, Default)]
pub struct SharedStores {
    pub cause_model: sentiment::CauseModelHandle,
    pub tweet_archive: sentiment::TweetArchiveHandle,
    pub profile_store: social::ProfileStoreHandle,
}

impl SharedStores {
    pub fn new() -> Self {
        Self::default()
    }
}
