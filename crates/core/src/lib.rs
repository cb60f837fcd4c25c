//! **ORCA** — user-defined runtime adaptation routines for stream processing
//! applications.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Jacques-Silva et al., *Building User-defined Runtime Adaptation Routines
//! for Stream Processing Applications*, VLDB 2012): a framework that
//! separates an application's **control logic** from its **data-processing
//! logic** by running the control code in a dedicated *orchestrator*.
//!
//! An orchestrator has two halves:
//!
//! - the **ORCA logic** — your code: a type implementing [`Orchestrator`]
//!   that registers *event scopes* and reacts to delivered events using the
//!   actuation and inspection APIs of [`OrcaCtx`];
//! - the **ORCA service** — [`service::OrcaService`]: the runtime component
//!   that maintains an in-memory stream-graph representation of every
//!   managed application, pulls metrics from SRM on a configurable period,
//!   receives failure notifications from SAM, filters everything through the
//!   registered scopes, and delivers events one at a time with rich context
//!   (including *epoch* logical clocks).
//!
//! Application sets with dependency relations, automatic ordered submission,
//! starvation-safe cancellation, and garbage collection (§4.4 of the paper)
//! live in [`deps`]. The recursive-SQL baseline the paper compares its scope
//! API against (§4.1) is implemented in [`sqlbase`] and checked equivalent by
//! property tests.
//!
//! # Example: a self-healing orchestrator
//!
//! ```
//! use orca::*;
//! use sps_model::compiler::{compile, CompileOptions};
//! use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
//! use sps_runtime::{Cluster, Kernel, RuntimeConfig, World};
//! use sps_sim::SimDuration;
//!
//! // ORCA logic: restart any crashed PE of the managed application.
//! struct SelfHeal;
//!
//! impl Orchestrator for SelfHeal {
//!     fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
//!         ctx.register_event_scope(PeFailureScope::new("failures"));
//!         ctx.submit_app("Demo").unwrap();
//!     }
//!     fn on_pe_failure(&mut self, ctx: &mut OrcaCtx<'_>, e: &PeFailureContext,
//!                      _scopes: &[String]) {
//!         ctx.restart_pe(e.pe).unwrap();
//!     }
//! }
//!
//! // A tiny application: source → sink.
//! let mut m = CompositeGraphBuilder::main();
//! m.operator("src", OperatorInvocation::new("Beacon").source().param("rate", 10.0));
//! m.operator("snk", OperatorInvocation::new("Sink").sink());
//! m.pipe("src", "snk");
//! let model = AppModelBuilder::new("Demo").build(m.build().unwrap()).unwrap();
//! let adl = compile(&model, CompileOptions::default()).unwrap();
//!
//! // Assemble the simulated world and attach the orchestrator.
//! let kernel = Kernel::new(
//!     Cluster::with_hosts(2),
//!     sps_engine::OperatorRegistry::with_builtins(),
//!     RuntimeConfig::default(),
//! );
//! let mut world = World::new(kernel);
//! let service = OrcaService::submit(
//!     &mut world.kernel,
//!     OrcaDescriptor::new("SelfHealOrca").app(adl),
//!     Box::new(SelfHeal),
//! );
//! world.add_controller(Box::new(service));
//!
//! // Run, crash a PE, and watch the orchestrator heal it.
//! world.run_for(SimDuration::from_secs(1));
//! let job = world.kernel.sam.running_jobs()[0];
//! let pe = world.kernel.pe_id_of(job, 0).unwrap();
//! world.kernel.kill_pe(pe).unwrap();
//! world.run_for(SimDuration::from_secs(5));
//!
//! let healed = world.kernel.pe_id_of(job, 0).unwrap();
//! assert_ne!(healed, pe);
//! assert_eq!(world.kernel.pe_status(healed), Some(sps_runtime::PeStatus::Up));
//! ```

#![forbid(unsafe_code)]

pub mod deps;
pub mod error;
pub mod event;
pub mod orchestrator;
pub mod scope;
pub mod service;
pub mod sqlbase;

pub use deps::{AppConfig, DependencyManager};
pub use error::OrcaError;
pub use event::{
    JobEventContext, OperatorMetricContext, OperatorPortMetricContext, OrcaStartContext,
    PeFailureContext, PeMetricContext, TimerContext, UserEventContext,
};
pub use orchestrator::Orchestrator;
pub use scope::{
    EventScope, JobEventScope, OperatorMetricScope, OperatorPortMetricScope, PeFailureScope,
    PeMetricScope, UserEventScope,
};
pub use service::{JournalEntry, ManagedApp, OrcaCtx, OrcaDescriptor, OrcaService};
