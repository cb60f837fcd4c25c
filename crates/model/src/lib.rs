//! SPL-like application model for the System S reproduction.
//!
//! This crate captures everything the paper assumes of the SPL compiler and
//! its artifacts (§2.1):
//!
//! - a **logical model**: applications assembled from operator invocations and
//!   reusable *composite operators* (hierarchical sub-graphs), streams between
//!   ports, stream *import/export* specifications, *host pools*, and
//!   partition/placement constraints ([`logical`]),
//! - a **compiler** that expands composite instances, partitions operators
//!   into processing elements (PEs) honoring colocation/exlocation
//!   constraints, and assigns PEs to hosts ([`compiler`]),
//! - the **ADL** — the application description [`compile`] returns, a value the
//!   runtime (SAM) instantiates and the orchestrator builds its in-memory graph
//!   representation from ([`adl`]), checked by [`Adl::validate`] for internal
//!   consistency and by [`verify_graph`] for deployment soundness ([`verify`]),
//! - dynamically typed attribute **values** ([`value`]),
//! - a queryable **graph store** with logical↔physical mapping and recursive
//!   composite-containment queries ([`graph`]) — the substrate for both the
//!   orchestrator's event-scope matching and its inspection API.

#![forbid(unsafe_code)]

pub mod adl;
pub mod compiler;
pub mod error;
pub mod graph;
pub mod logical;
pub mod value;
pub mod verify;

pub use adl::{Adl, AdlExport, AdlImport, AdlOperator, AdlPe, AdlStream};
pub use compiler::{compile, CompileOptions, FusionPolicy};
pub use error::ModelError;
pub use graph::GraphStore;
pub use logical::{
    AppModel, AppModelBuilder, CompositeDef, CompositeGraphBuilder, ExportSpec, HostPool,
    ImportSpec, NodeRef, OperatorInvocation,
};
pub use value::Value;
pub use verify::{graph_is_sound, verify_graph, Severity, VerifyDiagnostic, VerifyOptions};
