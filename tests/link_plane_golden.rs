//! Golden-file determinism test for the async trainer's link plane.
//!
//! `tests/fixtures/link_plane_golden.txt` holds the full `(t, kind, id)`
//! event trace, the integer report counters and the communication totals
//! of small async runs whose links exercise every send path: payload
//! corruption on every link in both directions (CRC rejection with the
//! guard on, silent poison with it off), a loss surge that forces
//! retransmissions and retry exhaustion, and a link outage long enough to
//! trip a circuit breaker and defer sends to half-open probes. Any change
//! to the order of breaker checks, comm accounting, link-RNG draws, emits
//! or schedules shows up here as a diff. If a change alters that order on
//! purpose, regenerate the fixture with:
//!
//! ```text
//! STSL_REGEN_GOLDEN=1 cargo test --test link_plane_golden
//! ```
//!
//! and commit the new fixture together with the change.

use spatio_temporal_split_learning::data::SyntheticCifar;
use spatio_temporal_split_learning::simnet::{
    with_queue_kind, EndSystemId, FaultPlan, Link, QueueKind, SimDuration, SimTime, StarTopology,
};
use spatio_temporal_split_learning::split::{
    AsyncReport, AsyncSplitTrainer, ComputeModel, CutPoint, GuardConfig, OverloadConfig,
    RetryPolicy, SchedulingPolicy, SplitConfig,
};
use spatio_temporal_split_learning::tensor::{with_backend, Backend};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/link_plane_golden.txt"
);

const CLIENTS: usize = 3;

/// Runs the link-plane scenario with the integrity guard on or off and
/// renders its counters and trace as text.
fn render(guard: bool) -> (String, AsyncReport) {
    let train = SyntheticCifar::new(41)
        .difficulty(0.06)
        .generate_sized(CLIENTS * 24, 16);
    let test = SyntheticCifar::new(42)
        .difficulty(0.06)
        .generate_sized(16, 16);
    let cfg = SplitConfig::tiny(CutPoint(1), CLIENTS)
        .epochs(2)
        .batch_size(8)
        .seed(77);
    let forever = SimTime::from_millis(100_000_000);
    let plan = FaultPlan::new()
        .payload_corruption_all(CLIENTS, 0.25, SimTime::ZERO, forever)
        .loss_surge(
            EndSystemId(0),
            0.8,
            SimTime::ZERO,
            SimTime::from_millis(400),
        )
        .link_outage(
            EndSystemId(1),
            SimTime::from_millis(30),
            SimTime::from_millis(600),
        );
    let mut t = AsyncSplitTrainer::new(
        cfg,
        &train,
        StarTopology::uniform(CLIENTS, Link::wan(5.0, 100.0)),
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .expect("valid config")
    .with_fault_plan(plan)
    .with_retry_policy(RetryPolicy {
        base_backoff: SimDuration::from_millis(10),
        max_backoff: SimDuration::from_millis(80),
        jitter_frac: 0.1,
        max_attempts: 4,
    })
    .with_overload_control(OverloadConfig {
        bucket_rate: 1_000,
        bucket_burst: 1_000,
        ..OverloadConfig::default()
    });
    if guard {
        t = t.with_integrity_guard(GuardConfig::default());
    }
    t.enable_trace();
    let r = t.run(&test);
    let c = &r.comm;
    let mut out = format!("run guard={guard}\n");
    for (name, value) in [
        ("scheduler_drops", r.scheduler_drops),
        ("network_drops", r.network_drops),
        ("retransmits", r.retransmits),
        ("retry_exhausted", r.retry_exhausted),
        ("batches_lost", r.batches_lost),
        ("corrupted_payloads", r.corrupted_payloads),
        ("corrupted_rejected", r.corrupted_rejected),
        ("anomalies_rejected", r.anomalies_rejected),
        ("quarantines", r.quarantines),
        ("quarantine_drops", r.quarantine_drops),
        ("batches_shed", r.batches_shed),
        ("breaker_trips", r.breaker_trips),
        ("dead_clients_detected", r.dead_clients_detected),
        ("uplink_bytes", c.uplink_bytes),
        ("downlink_bytes", c.downlink_bytes),
        ("uplink_messages", c.uplink_messages),
        ("downlink_messages", c.downlink_messages),
    ] {
        out.push_str(&format!("{name} {value}\n"));
    }
    out.push_str(&format!(
        "served_per_client {:?}\nbatches_lost_per_client {:?}\n",
        r.served_per_client, r.batches_lost_per_client
    ));
    out.push_str(&t.trace().expect("trace enabled").to_csv());
    (out, r)
}

#[test]
fn link_plane_trace_matches_golden() {
    let (rendered, reports) = with_backend(Backend::Reference, || {
        with_queue_kind(QueueKind::Calendar, || {
            let (on, r_on) = render(true);
            let (off, r_off) = render(false);
            (on + &off, [r_on, r_off])
        })
    });

    // The scenario must keep reaching every link-plane path it pins.
    let [on, off] = &reports;
    assert!(on.corrupted_payloads > 0);
    assert_eq!(
        on.corrupted_rejected, on.corrupted_payloads,
        "the guard rejects every garbled frame"
    );
    assert!(
        off.corrupted_payloads > off.corrupted_rejected,
        "without the guard some garbled frames get through"
    );
    for r in &reports {
        assert!(r.network_drops > 0 && r.retransmits > 0, "{r:?}");
        assert!(
            r.retry_exhausted > 0,
            "the outage must exhaust a retry budget"
        );
        assert!(r.breaker_trips > 0, "the outage must trip a breaker");
        assert!(r.comm.downlink_messages > 0);
    }

    if std::env::var_os("STSL_REGEN_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write golden fixture");
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("committed link-plane fixture must exist; see module docs");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {} differs", i + 1);
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "fixture length differs"
    );
}
