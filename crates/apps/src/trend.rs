//! §5.2 — Adaptation to failures: the "Trend Calculator" (Figure 9).
//!
//! A financial application computes min/max/avg and Bollinger Bands per
//! stock symbol over a 600-second sliding window. It deliberately uses no
//! checkpointing, so a PE crash loses the window state and the restarted PE
//! produces incorrect output until the window refills. [`TrendOrca`] manages
//! **three replicas** in exclusive host pools, keeps an active/backup status
//! board (the paper's status file read by the GUI), and on a PE failure of
//! the active replica fails over to the **oldest** running replica (longest
//! history → most likely full windows) before restarting the crashed PE.

use orca::{OrcaCtx, OrcaStartContext, Orchestrator, PeFailureContext, PeFailureScope};
use sps_engine::ops::{opt_f64, opt_i64};
use sps_engine::{
    EngineError, OpCtx, Operator, OperatorRegistry, Schema, StateBlob, StateReader, StateWriter,
    Tuple,
};
use sps_model::compiler::{compile, CompileOptions};
use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
use sps_model::{Adl, Value};
use sps_runtime::{JobId, PeId};
use sps_sim::{SimRng, SimTime};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Workload: deterministic market tick source
// ---------------------------------------------------------------------------

/// Random-walk stock ticks `{sym, price, ts}`. Seeded from an ADL parameter
/// (not the PE's forked RNG), so every replica of the application observes
/// an **identical** market feed — the replicas' outputs must match while
/// both are healthy (Figure 9(a)).
pub struct TickSource {
    symbols: Vec<String>,
    prices: Vec<f64>,
    rate: f64,
    credit: f64,
    next_symbol: usize,
    rng: SimRng,
    schema: Rc<Schema>,
}

impl TickSource {
    fn from_params(op: &str, params: &sps_model::value::ParamMap) -> Result<Self, EngineError> {
        let n = opt_i64(params, op, "symbols")?.unwrap_or(4).max(1) as usize;
        let rate = opt_f64(params, op, "rate")?.unwrap_or(40.0);
        let seed = opt_i64(params, op, "seed")?.unwrap_or(7) as u64;
        Ok(TickSource {
            symbols: (0..n).map(|i| format!("SYM{i}")).collect(),
            prices: vec![100.0; n],
            rate,
            credit: 0.0,
            next_symbol: 0,
            rng: SimRng::new(seed),
            schema: Schema::new(&["sym", "price", "ts"]),
        })
    }
}

impl Operator for TickSource {
    fn on_tuple(&mut self, _port: usize, _t: Tuple, _ctx: &mut OpCtx) {}

    fn on_tick(&mut self, ctx: &mut OpCtx) {
        self.credit += self.rate * ctx.quantum().as_secs_f64();
        while self.credit >= 1.0 - 1e-9 {
            self.credit -= 1.0;
            let s = self.next_symbol % self.symbols.len();
            self.next_symbol = self.next_symbol.wrapping_add(1);
            // Geometric-ish random walk, floored away from zero.
            self.prices[s] = (self.prices[s] + self.rng.next_gaussian() * 0.5).max(1.0);
            let t = Tuple::from_schema(
                &self.schema,
                vec![
                    Value::Str(self.symbols[s].clone()),
                    Value::Float(self.prices[s]),
                    Value::Timestamp(ctx.now().as_millis()),
                ],
            );
            ctx.submit(0, t);
        }
    }

    fn checkpoint(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.put_f64(self.credit);
        w.put_u64(self.next_symbol as u64);
        w.put_u32(self.prices.len() as u32);
        for p in &self.prices {
            w.put_f64(*p);
        }
        w.put_rng(&self.rng);
        Some(w.finish())
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), EngineError> {
        let mut r = StateReader::new(blob);
        self.credit = r.get_f64()?;
        self.next_symbol = r.get_u64()? as usize;
        let n = r.get_u32()? as usize;
        if n != self.prices.len() {
            return Err(EngineError::Checkpoint(format!(
                "tick source has {} symbols, checkpoint has {n}",
                self.prices.len()
            )));
        }
        for p in &mut self.prices {
            *p = r.get_f64()?;
        }
        self.rng = r.get_rng()?;
        Ok(())
    }
}

/// Registers the trend operator kinds.
pub fn register_ops(r: &mut OperatorRegistry) {
    r.register("TickSource", |op| {
        Ok(Box::new(TickSource::from_params(&op.name, &op.params)?))
    });
}

// ---------------------------------------------------------------------------
// Application graph
// ---------------------------------------------------------------------------

/// Tunables for the Trend Calculator.
#[derive(Clone, Copy, Debug)]
pub struct TrendParams {
    pub symbols: i64,
    pub tick_rate: f64,
    /// The paper's sliding window: 600 s.
    pub window_secs: f64,
    pub emit_period_secs: f64,
    pub seed: u64,
}

impl Default for TrendParams {
    fn default() -> Self {
        TrendParams {
            symbols: 4,
            tick_rate: 40.0,
            window_secs: 600.0,
            emit_period_secs: 1.0,
            seed: 7,
        }
    }
}

/// ticks → per-symbol windowed financial calcs (min/max/avg/Bollinger) →
/// sink. Three PEs, so the calculator PE can be killed independently.
pub fn trend_app(p: TrendParams) -> Adl {
    let mut m = CompositeGraphBuilder::main();
    m.operator(
        "ticks",
        OperatorInvocation::new("TickSource")
            .source()
            .param("symbols", p.symbols)
            .param("rate", p.tick_rate)
            .param("seed", p.seed as i64),
    );
    m.operator(
        "calc",
        OperatorInvocation::new("Aggregate")
            .param("value", "price")
            .param("group_by", "sym")
            .param("window_secs", p.window_secs)
            .param("period_secs", p.emit_period_secs),
    );
    m.operator(
        "graph",
        OperatorInvocation::new("Sink")
            .sink()
            .param("keep", 4096i64),
    );
    m.pipe("ticks", "calc");
    m.pipe("calc", "graph");
    let model = AppModelBuilder::new("TrendCalculator")
        .build(m.build().unwrap())
        .unwrap();
    compile(&model, CompileOptions::default()).unwrap()
}

// ---------------------------------------------------------------------------
// The ORCA logic (§5.2) — the paper reports 196 lines of C++ for this
// ---------------------------------------------------------------------------

/// One replica's management record.
#[derive(Clone, Copy, Debug)]
pub struct Replica {
    pub job: JobId,
    pub submitted_at: SimTime,
    /// Last time this replica lost state (submission or PE restart). The
    /// failover rule picks the replica with the *oldest* reset — the longest
    /// history and, most likely, full sliding windows.
    pub last_state_reset: SimTime,
}

/// A failover the orchestrator performed.
#[derive(Clone, Copy, Debug)]
pub struct FailoverEvent {
    pub at: SimTime,
    pub failed_replica: usize,
    pub failed_pe: PeId,
    pub new_active: usize,
    pub restarted_pe: Option<PeId>,
}

/// The replica-manager orchestrator.
pub struct TrendOrca {
    n_replicas: usize,
    pub replicas: Vec<Replica>,
    pub active: usize,
    pub failovers: Vec<FailoverEvent>,
}

impl TrendOrca {
    pub fn new(n_replicas: usize) -> Self {
        assert!(n_replicas >= 2, "replication needs at least two copies");
        TrendOrca {
            n_replicas,
            replicas: Vec::new(),
            active: 0,
            failovers: Vec::new(),
        }
    }

    pub fn replica_of_job(&self, job: JobId) -> Option<usize> {
        self.replicas.iter().position(|r| r.job == job)
    }

    pub fn active_job(&self) -> JobId {
        self.replicas[self.active].job
    }
}

impl Orchestrator for TrendOrca {
    fn on_start(&mut self, ctx: &mut OrcaCtx<'_>, _s: &OrcaStartContext) {
        // Failure events for the managed application are the only scope.
        ctx.register_event_scope(
            PeFailureScope::new("trendFailures").add_application("TrendCalculator"),
        );
        // Exclusive host pools: replicas must never share a host (§4.3 —
        // otherwise one host failure kills several replicas at once).
        for i in 0..self.n_replicas {
            let job = ctx
                .submit_app_exclusive("TrendCalculator")
                .expect("replica submission");
            let now = ctx.now();
            self.replicas.push(Replica {
                job,
                submitted_at: now,
                last_state_reset: now,
            });
            ctx.set_status(&format!("replica{i}"), "backup");
        }
        self.active = 0;
        ctx.set_status("replica0", "active");
        ctx.set_status("active", "0");
    }

    fn on_pe_failure(&mut self, ctx: &mut OrcaCtx<'_>, e: &PeFailureContext, _scopes: &[String]) {
        let Some(failed) = self.replica_of_job(e.job) else {
            return;
        };
        let now = ctx.now();
        // Freshness signal: how much state did the replica actually lose?
        // With a checkpoint covering the failed PE the reset only rewinds to
        // the snapshot time, and with upstream backup the replayed gap makes
        // recovery exactly-once — no state is lost at all.
        match ctx.checkpoint_coverage(e.job, e.adl_index) {
            Some(_) if ctx.upstream_backup_enabled() => {}
            Some(taken_at) => self.replicas[failed].last_state_reset = taken_at,
            None => self.replicas[failed].last_state_reset = now,
        }

        if failed == self.active {
            // Fail over to the oldest running replica.
            let new_active = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != failed)
                .min_by_key(|(i, r)| (r.last_state_reset, *i))
                .map(|(i, _)| i)
                .expect("at least one backup");
            ctx.set_status(&format!("replica{}", self.active), "backup");
            ctx.set_status(&format!("replica{new_active}"), "active");
            ctx.set_status("active", &new_active.to_string());
            self.active = new_active;
            let restarted = ctx.restart_pe(e.pe).ok();
            self.failovers.push(FailoverEvent {
                at: now,
                failed_replica: failed,
                failed_pe: e.pe,
                new_active,
                restarted_pe: restarted,
            });
        } else {
            // A backup crashed: just restart it; the active stays.
            let restarted = ctx.restart_pe(e.pe).ok();
            self.failovers.push(FailoverEvent {
                at: now,
                failed_replica: failed,
                failed_pe: e.pe,
                new_active: self.active,
                restarted_pe: restarted,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedStores;
    use orca::{OrcaDescriptor, OrcaService};
    use sps_runtime::{Cluster, Kernel, PeStatus, RuntimeConfig, World};
    use sps_sim::SimDuration;

    fn build_world(p: TrendParams, hosts: usize) -> (World, usize) {
        let stores = SharedStores::new();
        let kernel = Kernel::new(
            Cluster::with_hosts(hosts),
            crate::registry(&stores),
            RuntimeConfig::default(),
        );
        let mut world = World::new(kernel);
        let service = OrcaService::submit(
            &mut world.kernel,
            OrcaDescriptor::new("TrendOrca").app(trend_app(p)),
            Box::new(TrendOrca::new(3)),
        );
        let idx = world.add_controller(Box::new(service));
        (world, idx)
    }

    fn logic(world: &World, idx: usize) -> &TrendOrca {
        world
            .controller::<OrcaService>(idx)
            .unwrap()
            .logic::<TrendOrca>()
            .unwrap()
    }

    /// Latest aggregate per symbol from a replica's sink.
    fn latest_by_symbol(
        world: &World,
        job: JobId,
    ) -> std::collections::BTreeMap<String, (f64, bool)> {
        let mut out = std::collections::BTreeMap::new();
        for t in world.kernel.tap(job, "graph").unwrap_or_default() {
            out.insert(
                t.get_str("group").unwrap().to_string(),
                (t.get_f64("avg").unwrap(), t.get_bool("full").unwrap()),
            );
        }
        out
    }

    #[test]
    fn replicas_land_on_distinct_hosts_and_agree() {
        let (mut world, idx) = build_world(
            TrendParams {
                window_secs: 20.0,
                ..Default::default()
            },
            3,
        );
        world.run_for(SimDuration::from_secs(40));
        let l = logic(&world, idx);
        assert_eq!(l.replicas.len(), 3);
        // Exclusive pools → pairwise distinct host sets.
        let mut hosts: Vec<String> = Vec::new();
        for r in &l.replicas {
            let info = world.kernel.sam.job(r.job).unwrap();
            for &pe in &info.pe_ids {
                let h = world.kernel.cluster.host_of_pe(pe).unwrap().to_string();
                hosts.push(format!("{}:{h}", r.job));
            }
        }
        for r1 in &l.replicas {
            for r2 in &l.replicas {
                if r1.job == r2.job {
                    continue;
                }
                let h1: std::collections::BTreeSet<_> = hosts
                    .iter()
                    .filter(|h| h.starts_with(&r1.job.to_string()))
                    .map(|h| h.split(':').nth(1).unwrap())
                    .collect();
                let h2: std::collections::BTreeSet<_> = hosts
                    .iter()
                    .filter(|h| h.starts_with(&r2.job.to_string()))
                    .map(|h| h.split(':').nth(1).unwrap())
                    .collect();
                assert!(h1.is_disjoint(&h2), "replicas share hosts: {h1:?} {h2:?}");
            }
        }
        // Healthy replicas produce identical analytics (same seeded feed).
        let a = latest_by_symbol(&world, l.replicas[0].job);
        let b = latest_by_symbol(&world, l.replicas[1].job);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn active_failure_fails_over_to_oldest_and_restarts_pe() {
        let p = TrendParams {
            window_secs: 30.0,
            ..Default::default()
        };
        let (mut world, idx) = build_world(p, 3);
        world.run_for(SimDuration::from_secs(60)); // windows full everywhere
        let active_job = logic(&world, idx).active_job();
        let calc_pe = world.kernel.pe_id_of(active_job, 1).unwrap();
        world.kernel.kill_pe(calc_pe).unwrap();
        world.run_for(SimDuration::from_secs(5)); // failover + restart delay

        let (f, replica0_job, replica1_job) = {
            let l = logic(&world, idx);
            assert_eq!(l.failovers.len(), 1);
            let f = l.failovers[0];
            assert_eq!(f.failed_replica, 0);
            assert_ne!(l.active, 0);
            // Oldest backup (replica 1 submitted before 2 at same time →
            // index tiebreak) becomes active.
            assert_eq!(l.active, 1);
            (f, l.replicas[0].job, l.replicas[1].job)
        };
        // The crashed PE was restarted.
        let new_pe = f.restarted_pe.unwrap();
        assert_eq!(world.kernel.pe_status(new_pe), Some(PeStatus::Up));
        // Status board follows (what the GUI titles render, Figure 9).
        let svc = world.controller::<OrcaService>(idx).unwrap();
        assert_eq!(svc.status("active"), Some("1"));
        assert_eq!(svc.status("replica0"), Some("backup"));
        assert_eq!(svc.status("replica1"), Some("active"));

        // The failed replica's windows refill only after window_secs: right
        // after restart its output is not "full" while the new active's is.
        world.run_for(SimDuration::from_secs(10));
        let failed = latest_by_symbol(&world, replica0_job);
        let active = latest_by_symbol(&world, replica1_job);
        assert!(active.values().all(|(_, full)| *full));
        assert!(failed.values().any(|(_, full)| !*full), "{failed:?}");

        // After the window span passes, the restarted replica recovers.
        world.run_for(SimDuration::from_secs(40));
        let failed = latest_by_symbol(&world, logic(&world, idx).replicas[0].job);
        assert!(failed.values().all(|(_, full)| *full));
    }

    #[test]
    fn backup_failure_keeps_active() {
        let (mut world, idx) = build_world(
            TrendParams {
                window_secs: 20.0,
                ..Default::default()
            },
            3,
        );
        world.run_for(SimDuration::from_secs(10));
        let backup_job = logic(&world, idx).replicas[2].job;
        let pe = world.kernel.pe_id_of(backup_job, 1).unwrap();
        world.kernel.kill_pe(pe).unwrap();
        world.run_for(SimDuration::from_secs(2));
        let l = logic(&world, idx);
        assert_eq!(l.active, 0, "active must not change on backup failure");
        assert_eq!(l.failovers.len(), 1);
        assert_eq!(l.failovers[0].failed_replica, 2);
        assert!(l.failovers[0].restarted_pe.is_some());
        let svc = world.controller::<OrcaService>(idx).unwrap();
        assert_eq!(svc.status("active"), Some("0"));
    }

    #[test]
    fn consecutive_failures_track_oldest_state() {
        let (mut world, idx) = build_world(
            TrendParams {
                window_secs: 20.0,
                ..Default::default()
            },
            3,
        );
        world.run_for(SimDuration::from_secs(30));
        // Kill active (0) → active becomes 1; replica 0 restarted (young).
        let pe = world
            .kernel
            .pe_id_of(logic(&world, idx).active_job(), 1)
            .unwrap();
        world.kernel.kill_pe(pe).unwrap();
        world.run_for(SimDuration::from_secs(5));
        assert_eq!(logic(&world, idx).active, 1);
        // Kill new active (1) → oldest running is 2 (replica 0 reset recently).
        let pe = world
            .kernel
            .pe_id_of(logic(&world, idx).active_job(), 1)
            .unwrap();
        world.kernel.kill_pe(pe).unwrap();
        world.run_for(SimDuration::from_secs(5));
        assert_eq!(logic(&world, idx).active, 2);
        assert_eq!(logic(&world, idx).failovers.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_replica_rejected() {
        let _ = TrendOrca::new(1);
    }
}
