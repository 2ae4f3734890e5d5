//! **E15** — Byzantine poisoning sweep: final accuracy vs attacker
//! fraction per robust-aggregation policy.
//!
//! A fleet of end-systems trains asynchronously while the first
//! `round(fraction * fleet)` of them run an adversarial persona
//! ([`FaultPlan::adversaries`]) for the whole run. Every policy sees the
//! *identical* attack schedule and RNG streams at each fraction (same
//! seed, same cohort), so the columns of the resulting table differ only
//! in how the server combines its gradient window before stepping.
//!
//! The acceptance profile this file defends (checked by
//! `byzantine_chaos`): at 30 % sign-flip attackers, plain windowed mean
//! loses double-digit accuracy points against the attack-free baseline
//! while at least one robust policy stays within a few points of it.
//! Accuracy is scored over the *active* (non-exiled) fleet: an exiled
//! attacker's own encoder is attacker-owned damage outside any
//! server-side defense's reach (the whole-fleet average is reported
//! alongside as `fleet_accuracy`).
//!
//! Every value derives from simulated time and seeded RNG, so the file is
//! bitwise identical for any `STSL_THREADS`.

use super::{Outcome, Preset};
use crate::{load_data, render_table};
use serde::Serialize;
use stsl_simnet::{AttackSpec, FaultPlan, Link, SimDuration, SimTime, StarTopology};
use stsl_split::{
    AggregationPolicy, AsyncSplitTrainer, CnnArch, ComputeModel, CutPoint, GuardConfig,
    SchedulingPolicy, SplitConfig,
};

const CLIENTS: usize = 10;
/// One robust-aggregation window per full round of the fleet.
const WINDOW: usize = CLIENTS;
/// One optimizer step per full window means ~`WINDOW`-fold fewer (but
/// variance-reduced) updates than per-batch stepping, so the windowed
/// trainer runs a proportionally larger learning rate.
const LEARNING_RATE: f32 = 0.05;

#[derive(Serialize, Default)]
struct PoisonRow {
    policy: &'static str,
    attacker_fraction: f64,
    attackers: usize,
    /// Independent trainer seeds averaged into `accuracy` (counter
    /// fields are summed across them). A single trajectory is chaotic —
    /// ±5-10 accuracy points run to run — so per-seed numbers would say
    /// more about luck than about the defense.
    seeds: usize,
    attacks_injected: u64,
    robust_applies: u64,
    robust_outliers: u64,
    updates_trimmed: u64,
    quarantines: u64,
    rollbacks: u64,
    served_total: u64,
    sim_seconds: f64,
    /// Headline metric: test accuracy over the *active* (non-exiled)
    /// fleet — what the defense actually protects. An exiled attacker's
    /// own encoder trained against its poisoned activations; no
    /// server-side policy can make that private model honest, so it is
    /// reported in `fleet_accuracy` but kept out of the headline.
    accuracy: f32,
    /// Whole-fleet encoder average (`final_accuracy`), attacker-owned
    /// encoders included. Equal to `accuracy` when nothing was exiled.
    fleet_accuracy: f32,
    /// Accuracy drop vs the same policy's attack-free run, in points
    /// (positive = worse under attack).
    degradation_pts: f32,
}

#[derive(Serialize)]
struct PoisonSweep {
    data_source: String,
    clients: usize,
    window: usize,
    attack: String,
    fractions: Vec<f64>,
    rows: Vec<PoisonRow>,
}

/// The defense stacks under comparison. Plain windowed mean is the
/// *undefended* baseline — no integrity guard, every update reaches the
/// optimizer — while each robust policy runs the full stack: robust
/// combining plus the attack-aware guard, whose statistical-outlier
/// escalation quarantines persistent attackers out of the window
/// entirely. Aggregation alone bounds per-step damage, but a coordinate
/// that lands mid-range survives coordinate-wise trimming and injects a
/// consistent bias every step; exiling the sender is what removes it.
fn defenses() -> Vec<(AggregationPolicy, bool)> {
    vec![
        (AggregationPolicy::Mean, false),
        (AggregationPolicy::CoordinateMedian, true),
        (AggregationPolicy::TrimmedMean { trim: 0.3 }, true),
        (AggregationPolicy::NormClippedMean, true),
        (
            AggregationPolicy::Krum {
                assumed_attackers: 4,
            },
            true,
        ),
    ]
}

fn run_once(
    policy: AggregationPolicy,
    guard: bool,
    attackers: usize,
    gain: f64,
    cfg: SplitConfig,
    train: &stsl_data::ImageDataset,
    test: &stsl_data::ImageDataset,
) -> stsl_split::AsyncReport {
    // Uniform links keep arrivals round-robin, so every full window holds
    // one update per end-system and the attacker share of a window equals
    // the attacker share of the fleet — the regime the trimming depths
    // are chosen for. (A latency gradient would let the fastest senders
    // stack windows; with first-N attackers that confounds the sweep.)
    let topology = StarTopology::new((0..CLIENTS).map(|_| Link::wan(5.0, 100.0)).collect());
    // The persona is active from the first batch to the end of the run:
    // a patient insider, not a transient glitch.
    let plan = FaultPlan::new().adversaries(
        attackers,
        AttackSpec::SignFlip { gain },
        SimTime::ZERO,
        SimTime::from_millis(100_000_000),
    );
    let mut trainer = AsyncSplitTrainer::new(
        cfg,
        train,
        topology,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .expect("valid config")
    .with_fault_plan(plan);
    if guard {
        // Attack-tolerant guard tuning: adversarial batches legitimately
        // spike per-batch loss, so the watchdog's blow-up rescue is left
        // for genuine divergence only, and probation outlasts the
        // longest run — a sender the window statistics flag as hostile
        // three times is exiled for good, not paroled to poison again.
        // A wider outlier factor and higher threshold keep honest tail
        // updates from accruing to exile (a false quarantine is
        // permanent data loss here); a sign-flip attacker is flagged in
        // *every* window it touches, so it still trips within ~4 rounds.
        trainer = trainer.with_integrity_guard(GuardConfig {
            loss_blowup: 100.0,
            probation: SimDuration::from_millis(600_000),
            outlier_factor: 8.0,
            quarantine_threshold: 4.0,
            ..GuardConfig::default()
        });
    }
    trainer.with_robust_aggregation(policy, WINDOW).run(test)
}

pub(super) fn run(preset: Preset, seed: u64) -> Outcome {
    let quick = preset == Preset::Quick;
    let (samples, epochs, batch, gain, seeds, difficulty) = if quick {
        (240, 2, 8, 3.0, 1, 0.12)
    } else {
        (3200, 12, 32, 5.0, 3, 0.06)
    };
    let fractions: Vec<f64> = if quick {
        vec![0.0, 0.3]
    } else {
        vec![0.0, 0.1, 0.2, 0.3, 0.4]
    };
    let (train, test, source) = load_data(samples, 160, 16, seed, difficulty);
    let header = format!(
        "E15 poison sweep — {} data, {} end-systems, sign-flip gain {}, window {}, epochs {}, {} seed(s)/row",
        source, CLIENTS, gain, WINDOW, epochs, seeds
    );

    let mut rows: Vec<PoisonRow> = Vec::new();
    for (policy, guard) in defenses() {
        let mut baseline = 0.0f32;
        for &fraction in &fractions {
            let attackers = (fraction * CLIENTS as f64).round() as usize;
            let mut acc_sum = 0.0f64;
            let mut fleet_sum = 0.0f64;
            let mut row = PoisonRow {
                policy: policy.name(),
                attacker_fraction: fraction,
                attackers,
                seeds,
                ..PoisonRow::default()
            };
            for k in 0..seeds {
                let cfg = SplitConfig::new(CutPoint(1), CLIENTS)
                    .arch(CnnArch::tiny())
                    .epochs(epochs)
                    .batch_size(batch)
                    .learning_rate(LEARNING_RATE)
                    .seed(seed + 1000 * k as u64);
                let r = run_once(policy, guard, attackers, gain, cfg, &train, &test);
                acc_sum += r.active_accuracy as f64;
                fleet_sum += r.final_accuracy as f64;
                row.attacks_injected += r.attacks_injected;
                row.robust_applies += r.robust_applies;
                row.robust_outliers += r.robust_outliers;
                row.updates_trimmed += r.updates_trimmed;
                row.quarantines += r.quarantines;
                row.rollbacks += r.rollbacks;
                row.served_total += r.served_per_client.iter().sum::<u64>();
                row.sim_seconds += r.sim_seconds;
            }
            row.accuracy = (acc_sum / seeds as f64) as f32;
            row.fleet_accuracy = (fleet_sum / seeds as f64) as f32;
            if fraction == 0.0 {
                baseline = row.accuracy;
            }
            row.degradation_pts = (baseline - row.accuracy) * 100.0;
            rows.push(row);
        }
    }

    let table = render_table(
        &rows,
        &[
            ("policy", &|r| r.policy.to_string()),
            ("attackers", &|r| {
                format!("{:.0}%", r.attacker_fraction * 100.0)
            }),
            ("injected", &|r| r.attacks_injected.to_string()),
            ("outliers", &|r| r.robust_outliers.to_string()),
            ("trimmed", &|r| r.updates_trimmed.to_string()),
            ("quarantines", &|r| r.quarantines.to_string()),
            ("active acc", &|r| format!("{:.1}%", r.accuracy * 100.0)),
            ("fleet acc", &|r| {
                format!("{:.1}%", r.fleet_accuracy * 100.0)
            }),
            ("Δ vs clean (pts)", &|r| {
                format!("{:+.1}", -r.degradation_pts)
            }),
        ],
    );

    Outcome::new(
        format!("{header}\n\n{table}"),
        &PoisonSweep {
            data_source: source.to_string(),
            clients: CLIENTS,
            window: WINDOW,
            attack: format!("sign_flip(gain={gain})"),
            fractions,
            rows,
        },
    )
}
