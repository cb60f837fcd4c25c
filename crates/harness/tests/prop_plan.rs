//! Property tests for the [`FaultPlan`] reproducer encoding: every
//! [`FaultAction`] variant — data-plane (`kp`/`kh`/`rh`) and control-plane
//! (`co`/`rs`/`ps`) — survives `encode` → `decode` exactly, for arbitrary
//! event mixes. The encoding is the wire format of every campaign
//! reproducer line, so a round-trip gap here silently breaks `--replay`.

#![forbid(unsafe_code)]

use orca_harness::{FaultAction, FaultEvent, FaultPlan};
use proptest::prelude::*;
use sps_sim::SimTime;

fn arb_action() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        (any::<u8>(), any::<u8>())
            .prop_map(|(job_slot, pe_slot)| FaultAction::KillPe { job_slot, pe_slot }),
        any::<u8>().prop_map(|host_slot| FaultAction::KillHost { host_slot }),
        any::<u8>().prop_map(|host_slot| FaultAction::ReviveHost { host_slot }),
        Just(FaultAction::CrashOrchestrator),
        Just(FaultAction::RestartSam),
        (0u32..600_000).prop_map(|duration_ms| FaultAction::PartitionSamHc { duration_ms }),
    ]
}

/// Time-sorted plans (decode canonicalizes to sorted order, so sorted input
/// is the fixed point the round-trip must hit exactly).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec((0u64..120_000, arb_action()), 0..12).prop_map(|raw| {
        let mut events: Vec<FaultEvent> = raw
            .into_iter()
            .map(|(ms, action)| FaultEvent {
                at: SimTime::from_millis(ms),
                action,
            })
            .collect();
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    })
}

proptest! {
    #[test]
    fn encode_decode_round_trips_every_action_mix(plan in arb_plan()) {
        let encoded = plan.encode();
        let decoded = FaultPlan::decode(&encoded)
            .unwrap_or_else(|e| panic!("decode(encode(plan)) failed: {e} for `{encoded}`"));
        prop_assert_eq!(&decoded, &plan, "round trip diverged for `{}`", encoded);
        // Encoding is canonical: a second round trip is a fixed point.
        prop_assert_eq!(decoded.encode(), encoded);
    }

    #[test]
    fn horizon_is_invariant_under_round_trip(plan in arb_plan()) {
        let decoded = FaultPlan::decode(&plan.encode()).unwrap();
        prop_assert_eq!(decoded.horizon(), plan.horizon());
    }

    #[test]
    fn single_event_round_trips_for_every_variant(
        ms in 0u64..600_000,
        action in arb_action(),
    ) {
        let plan = FaultPlan {
            events: vec![FaultEvent { at: SimTime::from_millis(ms), action }],
        };
        prop_assert_eq!(FaultPlan::decode(&plan.encode()).unwrap(), plan);
    }
}

/// The empty plan's `-` spelling survives both directions.
#[test]
fn empty_plan_round_trips_through_dash() {
    let empty = FaultPlan::default();
    assert_eq!(empty.encode(), "-");
    assert_eq!(FaultPlan::decode("-").unwrap(), empty);
    assert_eq!(FaultPlan::decode("").unwrap(), empty);
}
