//! Live output streaming for interactive runs.
//!
//! The simulation is single-threaded and deterministic, and so is watching
//! it: [`stream_taps`] steps the world and samples its sink taps on the
//! simulation thread, and the caller renders the updates (a stand-in for
//! the paper's live-updating GUI graphs, Figure 9). A tuple never leaves the
//! thread of its world.

use sps_engine::Tuple;
use sps_runtime::{JobId, World};
use sps_sim::{SimDuration, SimTime};

/// One sampled observation of a sink operator.
#[derive(Clone, Debug)]
pub struct TapUpdate {
    pub at: SimTime,
    pub job: JobId,
    pub op: String,
    /// Tuples newly seen since the last sample (dedup by count).
    pub tuples: Vec<Tuple>,
}

/// Runs the world until `until`, sampling the given `(job, sink op)` taps
/// every `period`, and returns the newly observed tuples of each sample in
/// time order.
pub fn stream_taps(
    world: &mut World,
    taps: &[(JobId, String)],
    period: SimDuration,
    until: SimTime,
) -> Vec<TapUpdate> {
    let mut updates = Vec::new();
    let mut last_seen: Vec<usize> = vec![0; taps.len()];
    let mut next_sample = world.now();
    while world.now() < until {
        world.step();
        if world.now() < next_sample {
            continue;
        }
        next_sample = world.now() + period;
        sample(world, taps, &mut last_seen, &mut updates);
    }
    sample(world, taps, &mut last_seen, &mut updates);
    updates
}

fn sample(
    world: &World,
    taps: &[(JobId, String)],
    last_seen: &mut [usize],
    updates: &mut Vec<TapUpdate>,
) {
    for (i, (job, op)) in taps.iter().enumerate() {
        let Some(tuples) = world.kernel.tap(*job, op) else {
            continue;
        };
        // The sink keeps a bounded ring; approximate "new" tuples by length
        // growth (sufficient for display purposes).
        let new_from = last_seen[i].min(tuples.len());
        let fresh: Vec<Tuple> = tuples[new_from..].to_vec();
        last_seen[i] = tuples.len();
        if !fresh.is_empty() {
            updates.push(TapUpdate {
                at: world.now(),
                job: *job,
                op: op.clone(),
                tuples: fresh,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedStores;
    use sps_model::compiler::{compile, CompileOptions};
    use sps_model::logical::{AppModelBuilder, CompositeGraphBuilder, OperatorInvocation};
    use sps_runtime::{Cluster, Kernel, RuntimeConfig};

    fn tiny_world() -> (World, JobId) {
        let stores = SharedStores::new();
        let mut kernel = Kernel::new(
            Cluster::with_hosts(1),
            crate::registry(&stores),
            RuntimeConfig::default(),
        );
        let mut m = CompositeGraphBuilder::main();
        m.operator(
            "src",
            OperatorInvocation::new("Beacon")
                .source()
                .param("rate", 10.0),
        );
        m.operator("snk", OperatorInvocation::new("Sink").sink());
        m.pipe("src", "snk");
        let model = AppModelBuilder::new("Tiny")
            .build(m.build().unwrap())
            .unwrap();
        let adl = compile(&model, CompileOptions::default()).unwrap();
        let job = kernel.submit_job(adl, None).unwrap();
        (World::new(kernel), job)
    }

    #[test]
    fn streams_new_tuples_per_sample() {
        let (mut world, job) = tiny_world();
        let updates = stream_taps(
            &mut world,
            &[(job, "snk".to_string())],
            SimDuration::from_secs(1),
            SimTime::from_secs(5),
        );
        assert!(!updates.is_empty());
        let total: usize = updates.iter().map(|u| u.tuples.len()).sum();
        // ~10/s for 5 s, minus transport latency jitter.
        assert!(total >= 40, "saw {total}");
        // Updates are time-ordered and attributed.
        assert!(updates.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(updates.iter().all(|u| u.job == job && u.op == "snk"));
    }

    #[test]
    fn unknown_tap_is_skipped() {
        let (mut world, job) = tiny_world();
        let updates = stream_taps(
            &mut world,
            &[(job, "ghost".to_string())],
            SimDuration::from_secs(1),
            SimTime::from_secs(2),
        );
        assert!(updates.is_empty());
    }
}
