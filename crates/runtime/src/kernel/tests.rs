//! Whole-kernel scenarios (`#[cfg(test)] mod tests;` in `mod.rs`): each
//! drives a `Kernel` through its public surface. Tests of one decision in
//! isolation — `restore_slot`, `Transport`, the live walk — sit in the
//! module that owns it.

use super::*;
use crate::broker::UpstreamBackup;
use crate::ids::OrcaId;
use crate::sam::{CrashReason, OrcaNotification};
use sps_engine::codec::Frame;
use sps_engine::{ops, EngineError, OpCtx, Operator, Punct, StateBlob};
use sps_model::adl::Adl;
use sps_model::compiler::{compile, CompileOptions};
use sps_model::logical::{
    AppModelBuilder, CompositeGraphBuilder, ExportSpec, HostPool, ImportSpec, OperatorInvocation,
};

fn kernel(hosts: usize) -> Kernel {
    Kernel::new(
        Cluster::with_hosts(hosts),
        OperatorRegistry::with_builtins(),
        RuntimeConfig::default(),
    )
}

/// beacon → filter → sink, each in its own PE.
fn pipeline_adl(name: &str, rate: f64) -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", rate),
    );
    m.operator(
        "flt",
        OperatorInvocation::new("Filter").param("predicate", "seq % 2 == 0"),
    );
    m.operator("snk", OperatorInvocation::new("Sink").sink());
    m.pipe("src", "flt");
    m.pipe("flt", "snk");
    let model = AppModelBuilder::new(name)
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

fn backup(kernel: &mut Kernel) -> &mut UpstreamBackup {
    kernel.transport.backup.as_mut().expect("backup is on")
}

/// A one-PE app whose only operator, a sink, keeps what it is sent — the
/// fixture of the `restore_slot` and `Transport` unit tests.
pub(super) fn sink_adl() -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator("snk", OperatorInvocation::new("Sink").sink());
    let model = AppModelBuilder::new("S").build(m.build().unwrap()).unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

/// A `Sink` whose `restore` ignores its blob: a restore that loses state.
/// It forwards every method `Sink` overrides.
struct ForgetfulSink(ops::Sink);

impl Operator for ForgetfulSink {
    fn on_tuple(&mut self, port: usize, tuple: Tuple, ctx: &mut OpCtx) {
        self.0.on_tuple(port, tuple, ctx)
    }
    fn on_punct(&mut self, port: usize, punct: Punct, ctx: &mut OpCtx) {
        self.0.on_punct(port, punct, ctx)
    }
    fn tap(&self) -> Option<&VecDeque<Tuple>> {
        self.0.tap()
    }
    fn checkpoint(&self) -> Option<StateBlob> {
        self.0.checkpoint()
    }
    fn restore(&mut self, _: &StateBlob) -> Result<(), EngineError> {
        Ok(())
    }
}

/// The built-in registry with `"Sink"` built as a [`ForgetfulSink`].
pub(super) fn forgetful_registry() -> OperatorRegistry {
    let mut registry = OperatorRegistry::with_builtins();
    registry.register("Sink", |op| {
        Ok(Box::new(ForgetfulSink(ops::Sink::from_params(
            &op.name, &op.params,
        )?)))
    });
    registry
}

fn run(kernel: &mut Kernel, quanta: usize) {
    for _ in 0..quanta {
        kernel.quantum();
    }
}

#[test]
fn submit_and_flow_across_pes() {
    let mut k = kernel(3);
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 20); // 2 seconds
    let tap = k.tap(job, "snk").unwrap();
    assert!(!tap.is_empty(), "tuples should reach the sink across PEs");
    // Only even seqs pass the filter.
    assert!(tap.iter().all(|t| t.get_int("seq").unwrap() % 2 == 0));
}

#[test]
fn placement_balances_load() {
    let mut k = kernel(3);
    k.submit_job(pipeline_adl("P", 1.0), None).unwrap();
    let loads: Vec<usize> = k
        .cluster
        .hosts()
        .iter()
        .map(|h| h.live_processes().count())
        .collect();
    assert_eq!(loads, vec![1, 1, 1]);
}

#[test]
fn submission_is_atomic_on_placement_failure() {
    let mut k = kernel(1);
    // Pool references a host that doesn't exist.
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "a",
        OperatorInvocation::new("Beacon")
            .source()
            .host_pool("ghost_pool"),
    );
    m.operator("b", OperatorInvocation::new("Sink").sink());
    m.pipe("a", "b");
    let mut builder = AppModelBuilder::new("A");
    builder.host_pool(HostPool::explicit("ghost_pool", &["nohost"]));
    let model = builder.build(m.build().unwrap()).unwrap();
    let adl = compile(&model, CompileOptions::default()).unwrap();
    assert!(matches!(
        k.submit_job(adl, None),
        Err(RuntimeError::PlacementFailed(_))
    ));
    // Nothing left behind.
    assert_eq!(
        k.cluster
            .hosts()
            .iter()
            .map(|h| h.processes().len())
            .sum::<usize>(),
        0
    );
}

#[test]
fn unknown_operator_kind_rejected_at_submit() {
    let mut k = kernel(1);
    let mut m = CompositeGraphBuilder::main();
    m.operator("a", OperatorInvocation::new("Mystery").source());
    let model = AppModelBuilder::new("A").build(m.build().unwrap()).unwrap();
    let adl = compile(&model, CompileOptions::default()).unwrap();
    assert!(matches!(
        k.submit_job(adl, None),
        Err(RuntimeError::Engine(EngineError::UnknownOperatorKind(_)))
    ));
}

#[test]
fn cancel_removes_everything() {
    let mut k = kernel(2);
    let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
    run(&mut k, 5);
    k.cancel_job(job).unwrap();
    assert!(k.sam.job(job).is_none());
    assert_eq!(
        k.cluster
            .hosts()
            .iter()
            .map(|h| h.processes().len())
            .sum::<usize>(),
        0
    );
    assert!(matches!(
        k.cancel_job(job),
        Err(RuntimeError::UnknownJob(_))
    ));
}

#[test]
fn kill_and_restart_pe_loses_state() {
    let mut k = kernel(2);
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 10);
    let sink_pe = k.pe_id_of(job, 2).unwrap();
    let before = k.tap(job, "snk").unwrap().len();
    assert!(before > 0);

    k.kill_pe(sink_pe).unwrap();
    assert_eq!(k.pe_status(sink_pe), Some(PeStatus::Crashed));
    // Killing twice is a state error.
    assert!(matches!(
        k.kill_pe(sink_pe),
        Err(RuntimeError::BadPeState(..))
    ));
    run(&mut k, 5); // tuples flowing to a dead PE are lost

    let new_pe = k.restart_pe(sink_pe).unwrap();
    assert_ne!(new_pe, sink_pe);
    // Spawning takes restart_delay before the process is Up.
    assert_eq!(k.pe_status(new_pe), Some(PeStatus::Starting));
    run(&mut k, 21); // past the 2 s default restart delay
    assert_eq!(k.pe_status(new_pe), Some(PeStatus::Up));
    assert_eq!(k.pe_id_of(job, 2), Some(new_pe));
    // Fresh operator state: the sink forgot its tuples.
    let after_restart = k.tap(job, "snk").unwrap().len();
    assert!(after_restart < before);
}

#[test]
fn non_restartable_pe_refuses_restart() {
    let mut k = kernel(1);
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "a",
        OperatorInvocation::new("Beacon").source().not_restartable(),
    );
    let model = AppModelBuilder::new("A").build(m.build().unwrap()).unwrap();
    let adl = compile(&model, CompileOptions::default()).unwrap();
    let job = k.submit_job(adl, None).unwrap();
    let pe = k.pe_id_of(job, 0).unwrap();
    k.kill_pe(pe).unwrap();
    assert!(matches!(
        k.restart_pe(pe),
        Err(RuntimeError::NotRestartable(_))
    ));
}

#[test]
fn host_failure_crashes_pes_and_restart_relocates() {
    let mut k = kernel(2);
    let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
    let pe0 = k.pe_id_of(job, 0).unwrap();
    let host0 = k.cluster.host_of_pe(pe0).unwrap().to_string();
    k.kill_host(&host0).unwrap();
    assert_eq!(k.pe_status(pe0), Some(PeStatus::Crashed));
    assert_eq!(k.srm.host_up(&host0), Some(false));
    // Restart relocates to the surviving host.
    let new_pe = k.restart_pe(pe0).unwrap();
    let new_host = k.cluster.host_of_pe(new_pe).unwrap();
    assert_ne!(new_host, host0);
    // Revive and verify status propagates.
    k.revive_host(&host0).unwrap();
    assert_eq!(k.srm.host_up(&host0), Some(true));
}

/// Regression: `kill_host` racing an in-flight `restart_pe` on the same
/// host. The replacement process is still `Starting` when the host dies;
/// it must crash with everything else (and notify the owner) rather than
/// sit `Starting` forever on a downed host.
#[test]
fn kill_host_crashes_inflight_restarts() {
    let mut k = kernel(2);
    let orca = k.sam.register_orchestrator();
    let job = k.submit_job(pipeline_adl("P", 10.0), Some(orca)).unwrap();
    run(&mut k, 5);
    let pe = k.pe_id_of(job, 0).unwrap();
    let host = k.cluster.host_of_pe(pe).unwrap().to_string();
    k.kill_pe(pe).unwrap();
    // Restart lands on the same (still-up) host and is mid-spawn…
    let new_pe = k.restart_pe(pe).unwrap();
    assert_eq!(k.pe_status(new_pe), Some(PeStatus::Starting));
    assert_eq!(k.cluster.host_of_pe(new_pe), Some(host.as_str()));
    // …when the host goes down.
    k.kill_host(&host).unwrap();
    assert_eq!(
        k.pe_status(new_pe),
        Some(PeStatus::Crashed),
        "a Starting PE must die with its host"
    );
    // Every crash was pushed to the owner: the original kill, the
    // Starting replacement, and the host's other Up PE (3 PEs across 2
    // hosts → the killed host also ran one sibling).
    let notes = k.sam.drain_notifications(orca);
    assert_eq!(notes.len(), 3);
    // Reviving the host must not resurrect the crashed process.
    k.revive_host(&host).unwrap();
    run(&mut k, 30);
    assert_eq!(k.pe_status(new_pe), Some(PeStatus::Crashed));
    // The crashed replacement restarts cleanly on the surviving host.
    let third = k.restart_pe(new_pe).unwrap();
    run(&mut k, 21);
    assert_eq!(k.pe_status(third), Some(PeStatus::Up));
    // The whole history is in the logs: three crashes, two restarts.
    assert_eq!(k.crash_log().len(), 3);
    assert!(k.crash_log().iter().all(|c| c.owned));
    let restarted: Vec<_> = k.restart_log().iter().map(|r| r.old_pe).collect();
    assert_eq!(restarted, vec![pe, new_pe]);
}

/// A scheduled kill that lands during the restart gap (the PE is
/// `Starting`) takes effect instead of erroring out.
#[test]
fn scheduled_kill_during_restart_gap_crashes_pe() {
    let mut k = kernel(1);
    let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
    let pe = k.pe_id_of(job, 0).unwrap();
    k.kill_pe(pe).unwrap();
    let new_pe = k.restart_pe(pe).unwrap();
    k.schedule_kill(SimTime::from_millis(500), KillTarget::Pe(new_pe));
    run(&mut k, 5); // restart delay is 2 s: still Starting at 500 ms
    assert_eq!(k.pe_status(new_pe), Some(PeStatus::Crashed));
    assert!(k.trace.find("scheduled kill failed").is_empty());
}

#[test]
fn exclusive_restart_relocation_migrates_reservation() {
    let mut k = kernel(3);
    let mut m = CompositeGraphBuilder::main();
    m.operator("src", OperatorInvocation::new("Beacon").source());
    let model = AppModelBuilder::new("R").build(m.build().unwrap()).unwrap();
    let mut adl = compile(&model, CompileOptions::default()).unwrap();
    adl.make_host_pools_exclusive("R");
    let job = k.submit_job(adl, None).unwrap();
    let pe = k.pe_id_of(job, 0).unwrap();
    let old_host = k.cluster.host_of_pe(pe).unwrap().to_string();
    assert_eq!(k.sam.host_reservation(&old_host), Some(job));
    k.kill_host(&old_host).unwrap();
    let new_pe = k.restart_pe(pe).unwrap();
    let new_host = k.cluster.host_of_pe(new_pe).unwrap().to_string();
    assert_ne!(new_host, old_host);
    // The reservation followed the job; the dead host is free again.
    assert_eq!(k.sam.host_reservation(&old_host), None);
    assert_eq!(k.sam.host_reservation(&new_host), Some(job));
}

/// A failed restart (no host available) must leave the crashed process
/// in place so the restart can be retried once capacity returns.
#[test]
fn failed_restart_is_retryable() {
    let mut k = kernel(1);
    let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
    let pe = k.pe_id_of(job, 0).unwrap();
    k.kill_host("host0").unwrap();
    assert!(matches!(
        k.restart_pe(pe),
        Err(RuntimeError::PlacementFailed(_))
    ));
    // The process survived the failed attempt…
    assert_eq!(k.pe_status(pe), Some(PeStatus::Crashed));
    // …and the retry succeeds after the host comes back.
    k.revive_host("host0").unwrap();
    let new_pe = k.restart_pe(pe).unwrap();
    run(&mut k, 21);
    assert_eq!(k.pe_status(new_pe), Some(PeStatus::Up));
}

/// Migration releases the old host's exclusive claim only after the
/// *last* process of the job has left it: with two crashed PEs on the
/// dead host, the first relocation must not open the host to others.
#[test]
fn partial_relocation_keeps_old_reservation_until_empty() {
    let mut k = kernel(3);
    let mut m = CompositeGraphBuilder::main();
    m.operator("a", OperatorInvocation::new("Beacon").source());
    m.operator("b", OperatorInvocation::new("Beacon").source());
    let model = AppModelBuilder::new("R").build(m.build().unwrap()).unwrap();
    let mut adl = compile(&model, CompileOptions::default()).unwrap();
    adl.make_host_pools_exclusive("R");
    let job = k.submit_job(adl, None).unwrap();
    let (pe_a, pe_b) = (k.pe_id_of(job, 0).unwrap(), k.pe_id_of(job, 1).unwrap());
    // Exclusive pools pack: both PEs share one reserved host.
    let old_host = k.cluster.host_of_pe(pe_a).unwrap().to_string();
    assert_eq!(k.cluster.host_of_pe(pe_b), Some(old_host.as_str()));
    k.kill_host(&old_host).unwrap();

    let new_a = k.restart_pe(pe_a).unwrap();
    let new_host = k.cluster.host_of_pe(new_a).unwrap().to_string();
    assert_ne!(new_host, old_host);
    // pe_b still sits crashed on the old host → the claim stays.
    assert_eq!(k.sam.host_reservation(&old_host), Some(job));
    assert_eq!(k.sam.host_reservation(&new_host), Some(job));

    let new_b = k.restart_pe(pe_b).unwrap();
    // The second relocation packs onto the job's new home and finally
    // releases the emptied old host.
    assert_eq!(k.cluster.host_of_pe(new_b), Some(new_host.as_str()));
    assert_eq!(k.sam.host_reservation(&old_host), None);
    assert_eq!(k.sam.host_reservation(&new_host), Some(job));
}

#[test]
fn operator_fault_notifies_owner_orchestrator() {
    let mut k = kernel(1);
    let orca = k.sam.register_orchestrator();
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 50.0),
    );
    m.operator(
        "bomb",
        OperatorInvocation::new("FaultInject").param("fault_after", 3i64),
    );
    m.pipe("src", "bomb");
    let model = AppModelBuilder::new("Boom")
        .build(m.build().unwrap())
        .unwrap();
    let adl = compile(&model, CompileOptions::default()).unwrap();
    let job = k.submit_job(adl, Some(orca)).unwrap();
    run(&mut k, 30);
    let notes = k.sam.drain_notifications(orca);
    assert_eq!(notes.len(), 1);
    match &notes[0] {
        OrcaNotification::PeFailure { job: j, reason, .. } => {
            assert_eq!(*j, job);
            assert!(matches!(reason, CrashReason::OperatorFault(_)));
        }
    }
}

#[test]
fn unmanaged_job_failures_notify_nobody() {
    let mut k = kernel(1);
    let orca = k.sam.register_orchestrator();
    let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
    let pe = k.pe_id_of(job, 0).unwrap();
    k.kill_pe(pe).unwrap();
    assert!(k.sam.drain_notifications(orca).is_empty());
}

#[test]
fn scheduled_kill_fires_at_time() {
    let mut k = kernel(1);
    let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
    let pe = k.pe_id_of(job, 0).unwrap();
    k.schedule_kill(SimTime::from_millis(500), KillTarget::Pe(pe));
    run(&mut k, 4); // t = 400ms
    assert_eq!(k.pe_status(pe), Some(PeStatus::Up));
    run(&mut k, 1); // t = 500ms
    assert_eq!(k.pe_status(pe), Some(PeStatus::Crashed));
}

#[test]
fn metrics_flow_to_srm_on_schedule() {
    let mut k = kernel(1);
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 29); // 2.9 s: no push yet at default 3 s period
    assert!(k.srm.query_jobs(&[job]).is_empty());
    run(&mut k, 1); // 3.0 s
    let snap = &k.srm.query_jobs(&[job])[&job];
    assert_eq!(snap.collected_at, SimTime::from_secs(3));
    let processed = snap
        .values
        .iter()
        .find(|(key, _)| {
            key.operator_name() == Some("flt")
                && key.metric_name() == "nTuplesProcessed"
                && matches!(key.as_ref(), sps_engine::MetricKey::Operator(..))
        })
        .map(|(_, v)| *v)
        .unwrap();
    assert!(processed > 100, "got {processed}");
}

#[test]
fn import_export_connects_two_jobs() {
    let mut k = kernel(2);
    // Producer exports its filter output.
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 50.0),
    );
    m.operator(
        "out",
        OperatorInvocation::new("Export").export(0, ExportSpec::by_id("evens")),
    );
    m.pipe("src", "out");
    let producer = AppModelBuilder::new("Producer")
        .build(m.build().unwrap())
        .unwrap();

    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "in",
        OperatorInvocation::new("Import")
            .source()
            .import_spec(ImportSpec::by_id("evens")),
    );
    m.operator("snk", OperatorInvocation::new("Sink").sink());
    m.pipe("in", "snk");
    let consumer = AppModelBuilder::new("Consumer")
        .build(m.build().unwrap())
        .unwrap();

    let _p = k
        .submit_job(compile(&producer, CompileOptions::default()).unwrap(), None)
        .unwrap();
    let c = k
        .submit_job(compile(&consumer, CompileOptions::default()).unwrap(), None)
        .unwrap();
    assert_eq!(k.broker.num_connections(), 1);
    run(&mut k, 20);
    let tap = k.tap(c, "snk").unwrap();
    assert!(
        !tap.is_empty(),
        "imported tuples should reach consumer sink"
    );
    // Cancelling the consumer dissolves the connection.
    k.cancel_job(c).unwrap();
    assert_eq!(k.broker.num_connections(), 0);
}

#[test]
fn exclusive_pools_keep_jobs_apart() {
    let mut k = kernel(3);
    let make = |name: &str| {
        let mut m = CompositeGraphBuilder::main();
        m.operator("src", OperatorInvocation::new("Beacon").source());
        let model = AppModelBuilder::new(name)
            .build(m.build().unwrap())
            .unwrap();
        let mut adl = compile(&model, CompileOptions::default()).unwrap();
        adl.make_host_pools_exclusive(name);
        adl
    };
    let j1 = k.submit_job(make("R0"), None).unwrap();
    let j2 = k.submit_job(make("R1"), None).unwrap();
    let h1 = k
        .cluster
        .host_of_pe(k.pe_id_of(j1, 0).unwrap())
        .unwrap()
        .to_string();
    let h2 = k
        .cluster
        .host_of_pe(k.pe_id_of(j2, 0).unwrap())
        .unwrap()
        .to_string();
    assert_ne!(h1, h2, "exclusive jobs must not share hosts");
    // A third exclusive job fits on the remaining host; a fourth fails.
    let _j3 = k.submit_job(make("R2"), None).unwrap();
    assert!(matches!(
        k.submit_job(make("R3"), None),
        Err(RuntimeError::PlacementFailed(_))
    ));
}

#[test]
fn host_exlocation_spreads_pes() {
    let mut k = kernel(2);
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "a",
        OperatorInvocation::new("Beacon")
            .source()
            .host_exlocate("spread"),
    );
    m.operator(
        "b",
        OperatorInvocation::new("Beacon")
            .source()
            .host_exlocate("spread"),
    );
    let model = AppModelBuilder::new("S").build(m.build().unwrap()).unwrap();
    let adl = compile(&model, CompileOptions::default()).unwrap();
    let job = k.submit_job(adl, None).unwrap();
    let h0 = k.cluster.host_of_pe(k.pe_id_of(job, 0).unwrap()).unwrap();
    let h1 = k.cluster.host_of_pe(k.pe_id_of(job, 1).unwrap()).unwrap();
    assert_ne!(h0, h1);
}

#[test]
fn inject_reaches_operator() {
    let mut k = kernel(1);
    let job = k.submit_job(pipeline_adl("P", 0.0), None).unwrap();
    k.inject(
        job,
        "snk",
        0,
        StreamItem::Tuple(Tuple::new().with("seq", 0i64)),
    )
    .unwrap();
    run(&mut k, 2);
    assert_eq!(k.tap(job, "snk").unwrap().len(), 1);
    assert!(k
        .inject(job, "ghost", 0, StreamItem::Punct(sps_engine::Punct::Final))
        .is_err());
}

fn ckpt_kernel(hosts: usize, every_quanta: u32) -> Kernel {
    Kernel::new(
        Cluster::with_hosts(hosts),
        OperatorRegistry::with_builtins(),
        RuntimeConfig {
            checkpoint: crate::ckpt::CheckpointPolicy::every(every_quanta),
            ..RuntimeConfig::default()
        },
    )
}

#[test]
fn restart_restores_newest_checkpoint() {
    let mut k = ckpt_kernel(2, 5); // checkpoint every 500 ms
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 10); // 1 s: two checkpoint rounds taken
    assert!(k.ckpt.saved() > 0);
    assert!(k.ckpt.latest(job, 2).is_some());
    let sink_pe = k.pe_id_of(job, 2).unwrap();
    let before = k.tap(job, "snk").unwrap().len();
    assert!(before > 0);

    k.kill_pe(sink_pe).unwrap();
    let new_pe = k.restart_pe(sink_pe).unwrap();
    // Even while still `Starting`, the restored container already holds
    // the checkpointed sink contents.
    let after = k.tap(job, "snk").unwrap().len();
    assert!(after > 0, "restored sink must keep pre-crash tuples");
    assert!(after <= before); // at most the checkpoint lag is lost
    let rec = k.restart_log().last().unwrap().clone();
    assert_eq!(rec.new_pe, new_pe);
    assert_eq!(rec.adl_index, 2);
    match rec.restore {
        RestoreOutcome::Restored {
            verified,
            ops_restored,
            ..
        } => {
            assert!(verified, "self-verification must pass");
            assert!(ops_restored >= 1);
        }
        other => panic!("expected restored state, got {other:?}"),
    }
    assert!(rec
        .restored_op_counts
        .iter()
        .any(|(op, n)| op == "snk" && *n > 0));
    // Metric continuity: the revived PE's nTuplesProcessed carries on
    // from the checkpoint instead of resetting to zero.
    run(&mut k, 25);
    let processed = k.op_metric(job, "snk", "nTuplesProcessed").unwrap();
    assert!(processed as usize >= before, "{processed} < {before}");
    assert_eq!(k.ckpt.restored(), 1);
}

#[test]
fn restart_without_checkpoint_or_policy_is_fresh() {
    // Policy off: even after a long run there is nothing to restore.
    let mut k = kernel(2);
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 10);
    assert_eq!(k.ckpt.saved(), 0);
    let pe = k.pe_id_of(job, 2).unwrap();
    k.kill_pe(pe).unwrap();
    k.restart_pe(pe).unwrap();
    assert_eq!(
        k.restart_log().last().unwrap().restore,
        RestoreOutcome::Fresh {
            reason: FreshReason::Disabled
        }
    );

    // Policy on but the kill lands before the first snapshot round.
    let mut k = ckpt_kernel(2, 1_000_000);
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 3);
    let pe = k.pe_id_of(job, 2).unwrap();
    k.kill_pe(pe).unwrap();
    k.restart_pe(pe).unwrap();
    assert_eq!(
        k.restart_log().last().unwrap().restore,
        RestoreOutcome::Fresh {
            reason: FreshReason::NoCheckpoint
        }
    );
    assert_eq!(k.ckpt.fallbacks(), 1);
}

#[test]
fn non_checkpointable_operator_opts_its_pe_out() {
    let mut k = ckpt_kernel(1, 2);
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "src",
        OperatorInvocation::new("Beacon")
            .source()
            .param("rate", 20.0)
            .not_checkpointable(),
    );
    let model = AppModelBuilder::new("N").build(m.build().unwrap()).unwrap();
    let adl = compile(&model, CompileOptions::default()).unwrap();
    let job = k.submit_job(adl, None).unwrap();
    run(&mut k, 10);
    assert!(!k.pe_checkpointable(job, 0));
    assert!(k.ckpt.latest(job, 0).is_none());
    let pe = k.pe_id_of(job, 0).unwrap();
    k.kill_pe(pe).unwrap();
    k.restart_pe(pe).unwrap();
    assert_eq!(
        k.restart_log().last().unwrap().restore,
        RestoreOutcome::Fresh {
            reason: FreshReason::NotCheckpointable
        }
    );
}

#[test]
fn lossy_restore_fails_self_verification() {
    let mut k = Kernel::new(
        Cluster::with_hosts(2),
        forgetful_registry(),
        RuntimeConfig {
            checkpoint: crate::ckpt::CheckpointPolicy::every(5),
            ..RuntimeConfig::default()
        },
    );
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 10);
    let pe = k.pe_id_of(job, 2).unwrap();
    let before = k.tap(job, "snk").unwrap().len();
    assert!(before > 0);
    k.kill_pe(pe).unwrap();
    k.restart_pe(pe).unwrap();
    match &k.restart_log().last().unwrap().restore {
        RestoreOutcome::Restored { verified, .. } => {
            assert!(!verified, "dropping a blob must trip verification")
        }
        other => panic!("expected lossy restored outcome, got {other:?}"),
    }
    // The sink indeed lost its contents.
    assert_eq!(k.tap(job, "snk").unwrap().len(), 0);
}

#[test]
fn cancel_job_drops_checkpoints() {
    let mut k = ckpt_kernel(2, 2);
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 6);
    assert!(!k.ckpt.is_empty());
    assert!(k.ckpt.state_bytes() > 0);
    k.cancel_job(job).unwrap();
    assert_eq!(k.ckpt.len(), 0);
}

fn storage_kernel(hosts: usize, policy: crate::ckpt::CheckpointPolicy) -> Kernel {
    Kernel::new(
        Cluster::with_hosts(hosts),
        OperatorRegistry::with_builtins(),
        RuntimeConfig {
            checkpoint: policy,
            ..RuntimeConfig::default()
        },
    )
}

/// With write latency, a snapshot issued at the boundary is invisible
/// (unrestorable, untrimmed) until its commit time passes — the
/// in-flight window the async store exists to model.
#[test]
fn write_latency_defers_commit_and_trim() {
    let mut k = storage_kernel(
        2,
        crate::ckpt::CheckpointPolicy::every(5)
            .upstream_backup(true)
            .storage(crate::ckpt::StorageModel::default().with_write(250, 0)),
    );
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 5); // t = 500 ms: snapshots issued, commit at 750 ms
    assert!(k.ckpt.issued() > 0);
    assert_eq!(k.ckpt.saved(), 0, "nothing durable yet");
    assert!(k.ckpt.write_in_flight(job, 2));
    assert!(k.ckpt.latest(job, 2).is_none());
    assert!(backup(&mut k).buffered_now() > 0);
    assert_eq!(
        backup(&mut k).stats().trimmed,
        0,
        "an uncommitted snapshot must not trim the backup buffers"
    );
    run(&mut k, 3); // t = 800 ms >= commit time
    assert!(k.ckpt.saved() > 0);
    assert!(!k.ckpt.has_pending());
    assert!(k.ckpt.latest(job, 2).is_some());
    assert!(
        backup(&mut k).stats().trimmed > 0,
        "the durable commit acks the covered deliveries"
    );
}

/// A restore reads the chain back through the storage model: the paid
/// latency lands in the restart record and delays promotion.
#[test]
fn restore_latency_delays_promotion() {
    let mut k = storage_kernel(
        2,
        crate::ckpt::CheckpointPolicy::every(5)
            .storage(crate::ckpt::StorageModel::default().with_restore(300, 0)),
    );
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 10); // t = 1 s, two snapshot rounds committed
    let pe = k.pe_id_of(job, 2).unwrap();
    k.kill_pe(pe).unwrap();
    let new_pe = k.restart_pe(pe).unwrap();
    let rec = k.restart_log().last().unwrap().clone();
    assert!(rec.restore.restored());
    assert_eq!(rec.restore_ms, 300);
    // restart_delay (2 s = 20 quanta) alone is no longer enough…
    run(&mut k, 22); // t = 3.2 s < 1 s + 2 s + 300 ms
    assert_eq!(
        k.cluster.process(new_pe).unwrap().status,
        PeStatus::Starting
    );
    // …the storage read must finish first.
    run(&mut k, 1); // t = 3.3 s
    assert_eq!(k.cluster.process(new_pe).unwrap().status, PeStatus::Up);
}

/// Budget pressure never touches the chains of `Up` PEs, but a crashed
/// PE's slot is fair game — and its restart then reports `Evicted`.
#[test]
fn budget_eviction_reclaims_crashed_slot_and_reports_evicted() {
    let mut k = storage_kernel(
        2,
        crate::ckpt::CheckpointPolicy::every(2)
            .storage(crate::ckpt::StorageModel::default().with_budget(1)),
    );
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 10);
    // Hopelessly over budget, yet nothing was evicted: every slot
    // belongs to an Up PE and is protected.
    assert!(k.ckpt.state_bytes() > 1);
    assert_eq!(k.ckpt.evictions(), 0);
    let pe = k.pe_id_of(job, 2).unwrap();
    k.kill_pe(pe).unwrap();
    run(&mut k, 2); // next boundary: the dead slot is now evictable
    assert!(k.ckpt.was_evicted(job, 2));
    assert!(k.ckpt.latest(job, 2).is_none());
    assert!(k.ckpt.latest(job, 0).is_some(), "live slots survive");
    k.restart_pe(pe).unwrap();
    let rec = k.restart_log().last().unwrap().clone();
    assert_eq!(
        rec.restore,
        RestoreOutcome::Fresh {
            reason: FreshReason::Evicted
        }
    );
    assert_eq!(rec.restore_ms, 0);
}

/// A replacement that is still `Starting` restored from its slot's chain and
/// has yet to replay from it: budget pressure must not take that chain, or a
/// second kill inside the spawn gap comes back `Fresh { Evicted }`.
#[test]
fn starting_replacement_keeps_its_chain_under_budget() {
    let mut k = storage_kernel(
        2,
        crate::ckpt::CheckpointPolicy::every(2)
            .storage(crate::ckpt::StorageModel::default().with_budget(1)),
    );
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 10);
    let pe = k.pe_id_of(job, 2).unwrap();
    k.kill_pe(pe).unwrap();
    let new_pe = k.restart_pe(pe).unwrap();
    assert!(k.restart_log().last().unwrap().restore.restored());
    let commits = k.ckpt.saved();
    run(&mut k, 2); // next boundary: the other slots commit, over budget
    assert!(k.ckpt.saved() > commits);
    let status = k.cluster.process(new_pe).unwrap().status;
    assert_eq!(status, PeStatus::Starting);
    assert!(
        k.ckpt.latest(job, 2).is_some(),
        "the restored chain survives"
    );
    assert!(!k.ckpt.was_evicted(job, 2));
    k.kill_pe(new_pe).unwrap();
    k.restart_pe(new_pe).unwrap();
    assert!(k.restart_log().last().unwrap().restore.restored());
}

/// Satellite regression for the `delivered_at <= taken_at` trim
/// boundary, end to end: deliveries landing on the snapshot instant are
/// captured inside the v2 queue snapshot *and* acked by the commit, so
/// a crash-restart around that boundary neither loses nor duplicates
/// them — the faulted run converges to the fault-free twin exactly.
#[test]
fn snapshot_instant_delivery_is_neither_lost_nor_duplicated() {
    let policy = crate::ckpt::CheckpointPolicy::every(5).upstream_backup(true);
    let mut k = storage_kernel(2, policy);
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 10); // kill lands exactly on a snapshot boundary
    let cov = k.checkpoint_coverage(job, 2).unwrap();
    assert_eq!(cov, SimTime::from_millis(1000));
    // Every buffered entry at or before the snapshot instant was
    // trimmed by the commit — none survive to be replayed on top of
    // the restored queues.
    assert!(backup(&mut k)
        .replay_entries((job, 2))
        .iter()
        .all(|e| e.delivered_at > cov));
    let pe = k.pe_id_of(job, 2).unwrap();
    k.kill_pe(pe).unwrap();
    k.restart_pe(pe).unwrap();
    run(&mut k, 40);

    let mut twin = storage_kernel(2, policy);
    let twin_job = twin.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut twin, 50);
    let seqs = |k: &Kernel, j: JobId| {
        k.tap(j, "snk")
            .unwrap()
            .iter()
            .map(|t| t.get_int("seq").unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(seqs(&k, job), seqs(&twin, twin_job));
}

/// Re-execution after a restore batches the same tuple sequence at other
/// boundaries than the crashed incarnation did, so a replayed run can
/// begin below a channel's high-water mark and end above it: exactly
/// its tail is delivered (and buffered), exactly its prefix counted as
/// suppressed.
#[test]
fn replayed_run_straddling_the_high_water_mark_delivers_only_its_tail() {
    let policy = crate::ckpt::CheckpointPolicy::every(1000).upstream_backup(true);
    let mut k = storage_kernel(3, policy);
    // An idle source: the only traffic is what the test sends.
    let job = k.submit_job(pipeline_adl("P", 0.0), None).unwrap();
    run(&mut k, 5);
    let run_of = |seqs: std::ops::Range<i64>| sps_engine::RemoteDelivery {
        dest: sps_engine::pe::RemoteDest {
            pe: 2,
            op: "snk".into(),
            port: 0,
        },
        frame: Frame::Batch(
            seqs.map(|seq| Tuple::new().with("seq", seq))
                .collect::<Vec<_>>()
                .into(),
        ),
    };
    // flt (slot 1) sends seq 0..5; it is then restored to a snapshot
    // taken when it had sent three, and its re-execution emits seq 3..8
    // as one run.
    k.transport_remote(job, 1, run_of(0..5));
    let sent = backup(&mut k).sender_snapshot(job, 1);
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].1, 5);
    backup(&mut k).rollback_sender(job, 1, &[(sent[0].0.clone(), 3)]);
    k.transport_remote(job, 1, run_of(3..8));
    assert_eq!(k.ub_stats().suppressed, 2);
    assert_eq!(k.ub_stats().buffered, 5 + 3);
    // A run wholly below the mark is suppressed whole, and not buffered.
    backup(&mut k).rollback_sender(job, 1, &[(sent[0].0.clone(), 3)]);
    k.transport_remote(job, 1, run_of(3..8));
    assert_eq!(k.ub_stats().suppressed, 2 + 5);
    assert_eq!(k.ub_stats().buffered, 5 + 3);
    run(&mut k, 1);
    let seqs: Vec<i64> = k
        .tap(job, "snk")
        .unwrap()
        .iter()
        .map(|t| t.get_int("seq").unwrap())
        .collect();
    assert_eq!(seqs, (0..8).collect::<Vec<_>>());
    let buffered: Vec<u64> = backup(&mut k)
        .replay_entries((job, 2))
        .iter()
        .map(|e| e.item.items())
        .collect();
    assert_eq!(buffered, [5, 3]);
}

/// Regression (SRM hygiene): every path that retires or crashes a PE
/// must drop its per-PE metric snapshot. Previously only `restart_pe`
/// forgot metrics, so a `kill_host` cascade left stale snapshots behind.
#[test]
fn crashed_and_retired_pes_drop_srm_snapshots() {
    let mut k = kernel(2);
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 30); // past the 3 s metric push
    let full = k.srm.query_jobs(&[job])[&job].values.len();
    assert!(full > 0);

    // kill_pe drops exactly that PE's rows.
    let sink_pe = k.pe_id_of(job, 2).unwrap();
    k.kill_pe(sink_pe).unwrap();
    let after_kill = k.srm.query_jobs(&[job])[&job].values.len();
    assert!(after_kill < full, "{after_kill} vs {full}");
    assert!(!k.srm.query_jobs(&[job])[&job]
        .values
        .iter()
        .any(|(key, _)| key.operator_name() == Some("snk")));

    // kill_host cascades drop every victim's rows.
    let pe0 = k.pe_id_of(job, 0).unwrap();
    let host0 = k.cluster.host_of_pe(pe0).unwrap().to_string();
    k.kill_host(&host0).unwrap();
    let snap = k.srm.query_jobs(&[job]);
    let remaining = snap.get(&job).map(|s| s.values.len()).unwrap_or(0);
    assert!(remaining < after_kill, "{remaining} vs {after_kill}");

    // cancel_job wipes the rest.
    k.cancel_job(job).unwrap();
    assert!(k.srm.query_jobs(&[job]).is_empty());
}

/// A SAM/HC partition that outlives the liveness deadline: SAM declares
/// the (actually healthy) hosts dead, crashes their PEs with
/// `HostFailure`, and counts the false declarations. Generated plans
/// bound partitions below the deadline, so this path is reached only by
/// deliberately over-long partitions like this one.
#[test]
fn over_deadline_partition_falsely_declares_hosts() {
    let mut k = kernel(2);
    let orca = k.sam.register_orchestrator();
    let job = k.submit_job(pipeline_adl("P", 10.0), Some(orca)).unwrap();
    run(&mut k, 5);
    // Partition for 7 s > the 6 s default deadline.
    k.partition_sam_hc(SimDuration::from_secs(7));
    run(&mut k, 61); // past the deadline, partition still open
    let stats = k.control_stats();
    assert_eq!(stats.hc_partitions, 1);
    assert_eq!(stats.false_declarations, 2, "both hosts declared");
    // The hosts themselves are still up — only their PEs were crashed.
    assert!(k.cluster.hosts().iter().all(|h| h.up));
    for idx in 0..3 {
        let pe = k.pe_id_of(job, idx).unwrap();
        assert_eq!(k.pe_status(pe), Some(PeStatus::Crashed));
    }
    // Every crash was pushed to the owner as a HostFailure.
    let notes = k.sam.drain_notifications(orca);
    assert_eq!(notes.len(), 3);
    assert!(notes.iter().all(|n| matches!(
        n,
        OrcaNotification::PeFailure {
            reason: CrashReason::HostFailure,
            ..
        }
    )));
    // The partition heals and fresh heartbeats resume: no re-declaration.
    run(&mut k, 20);
    assert_eq!(k.control_stats().false_declarations, 2);
}

/// A partition bounded below the deadline declares nobody dead — the
/// property generated `ps:` faults rely on.
#[test]
fn under_deadline_partition_is_harmless() {
    let mut k = kernel(2);
    let job = k.submit_job(pipeline_adl("P", 10.0), None).unwrap();
    run(&mut k, 5);
    k.partition_sam_hc(SimDuration::from_secs(4));
    run(&mut k, 100);
    assert_eq!(k.control_stats().false_declarations, 0);
    let pe = k.pe_id_of(job, 0).unwrap();
    assert_eq!(k.pe_status(pe), Some(PeStatus::Up));
}

/// ORCA crash window: notifications pushed while the service is down
/// stay durably queued, and recovery reports the backlog it replays.
#[test]
fn orca_crash_window_preserves_backlog() {
    let mut k = kernel(2);
    let orca = k.sam.register_orchestrator();
    let job = k.submit_job(pipeline_adl("P", 10.0), Some(orca)).unwrap();
    assert!(!k.crash_orchestrator(OrcaId(99)), "unknown orca refused");
    assert!(k.crash_orchestrator(orca));
    assert!(k.orca_is_down(orca));
    let pe = k.pe_id_of(job, 0).unwrap();
    k.kill_pe(pe).unwrap();
    assert_eq!(k.sam.notifications_pending(orca), 1);
    run(&mut k, 21); // past the 2 s control restart delay
    assert!(!k.orca_is_down(orca));
    let stats = k.control_stats();
    assert_eq!(stats.orca_crashes, 1);
    assert_eq!(stats.orca_recoveries, 1);
    assert_eq!(stats.notifications_replayed, 1);
    assert_eq!(k.sam.drain_notifications(orca).len(), 1);
}

/// SAM restart: drains go unavailable for the window, recovery replays the
/// op log (digest-verified inside the store), and notification conservation
/// holds throughout.
#[test]
fn sam_restart_replays_the_metastore_log() {
    let mut k = Kernel::new(
        Cluster::with_hosts(2),
        OperatorRegistry::with_builtins(),
        RuntimeConfig::default(),
    );
    let orca = k.sam.register_orchestrator();
    let job = k.submit_job(pipeline_adl("P", 10.0), Some(orca)).unwrap();
    run(&mut k, 5);
    let pe = k.pe_id_of(job, 0).unwrap();
    k.kill_pe(pe).unwrap();
    assert!(k.restart_sam());
    assert!(!k.restart_sam(), "window already open");
    assert!(!k.sam.is_available());
    assert!(k.sam.drain_notifications(orca).is_empty(), "unavailable");
    run(&mut k, 21);
    assert!(k.sam.is_available());
    let stats = k.control_stats();
    assert_eq!(stats.sam_restarts, 1);
    assert!(stats.meta_ops_replayed > 0);
    // Nothing pushed was lost or double-drained.
    let pending = k.sam.notifications_pending(orca) as u64;
    assert_eq!(
        k.sam.notifications_pushed(orca),
        k.sam.notifications_drained(orca) + pending
    );
    assert_eq!(k.sam.drain_notifications(orca).len(), pending as usize);
    assert!(k.sam.metastore_verify());
}

/// A fault-free run traces the same whether SAM keeps serving from its live
/// tables or, mid-run, from the tables its store rebuilds from the op log.
#[test]
fn fault_free_trace_digest_identical_across_stores() {
    let drive = |rebuild: bool| {
        let mut k = Kernel::new(
            Cluster::with_hosts(2),
            OperatorRegistry::with_builtins(),
            RuntimeConfig {
                checkpoint: crate::ckpt::CheckpointPolicy::every(5),
                ..RuntimeConfig::default()
            },
        );
        let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
        run(&mut k, 30);
        let pe = k.pe_id_of(job, 2).unwrap();
        k.kill_pe(pe).unwrap();
        if rebuild {
            // Straight to the store, so no restart window is traced.
            k.sam.begin_restart();
            assert!(k.sam.complete_restart().ops_replayed > 0);
        }
        k.restart_pe(pe).unwrap();
        run(&mut k, 30);
        k.trace.digest()
    };
    assert_eq!(drive(false), drive(true));
}

/// Durable checkpoint commits land in the metastore's index and survive
/// a SAM restart.
#[test]
fn ckpt_commits_recorded_in_metastore() {
    let mut k = Kernel::new(
        Cluster::with_hosts(2),
        OperatorRegistry::with_builtins(),
        RuntimeConfig {
            checkpoint: crate::ckpt::CheckpointPolicy::every(5),
            ..RuntimeConfig::default()
        },
    );
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 10);
    let indexed = k.sam.ckpt_commit(job, 2);
    assert!(indexed.is_some());
    assert_eq!(indexed, k.checkpoint_coverage(job, 2));
    k.restart_sam();
    run(&mut k, 21);
    // Later commits keep advancing the index; the restart lost nothing
    // and the recovered index still agrees with the authoritative store.
    let after = k.sam.ckpt_commit(job, 2);
    assert!(after >= indexed, "index survives restart: {after:?}");
    assert_eq!(after, k.checkpoint_coverage(job, 2));
    k.cancel_job(job).unwrap();
    assert_eq!(k.sam.ckpt_commit(job, 2), None);
}

#[test]
fn stopped_pe_does_not_run() {
    let mut k = kernel(1);
    let job = k.submit_job(pipeline_adl("P", 50.0), None).unwrap();
    run(&mut k, 5);
    let count1 = k.tap(job, "snk").unwrap().len();
    let sink_pe = k.pe_id_of(job, 2).unwrap();
    k.stop_pe(sink_pe).unwrap();
    run(&mut k, 5);
    let count2 = k.tap(job, "snk").unwrap().len();
    assert_eq!(count1, count2);
    // Restart brings it back (fresh) after the spawn delay.
    let new_pe = k.restart_pe(sink_pe).unwrap();
    assert_eq!(k.pe_status(new_pe), Some(PeStatus::Starting));
    run(&mut k, 21);
    assert_eq!(k.pe_status(new_pe), Some(PeStatus::Up));
}
