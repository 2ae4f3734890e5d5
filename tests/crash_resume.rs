//! End-to-end crash→restart→resume through the on-disk checkpoint ring:
//! a guarded training run persists its ring, the process "dies", and a
//! fresh process resumes from the newest readable entry — even when the
//! newest file was truncated by the crash mid-write.

use spatio_temporal_split_learning::split::{
    CheckpointRing, CutPoint, GuardConfig, SpatioTemporalTrainer, SplitConfig,
};

fn data(n: usize, seed: u64) -> spatio_temporal_split_learning::data::ImageDataset {
    spatio_temporal_split_learning::data::SyntheticCifar::new(seed)
        .difficulty(0.08)
        .generate_sized(n, 16)
}

fn cfg() -> SplitConfig {
    SplitConfig::tiny(CutPoint(1), 2).epochs(2).seed(13)
}

#[test]
fn restart_resumes_from_persisted_ring() {
    let train = data(48, 1);
    let test = data(16, 2);
    let dir = std::env::temp_dir().join("stsl_crash_resume_test");
    std::fs::remove_dir_all(&dir).ok();

    // "Process 1": train with the guard on, persist the ring, die.
    let mut first = SpatioTemporalTrainer::new(cfg(), &train)
        .unwrap()
        .with_integrity_guard(GuardConfig::default());
    first.train(&test);
    let final_accuracy = first.evaluate(&test);
    let ring = first.checkpoint_ring().clone();
    // Initial snapshot + one per epoch.
    assert_eq!(ring.len(), 3);
    ring.save_dir(&dir).unwrap();

    // "Process 2": fresh deployment (same config, same data partition),
    // different random state until the ring restores it.
    let mut second = SpatioTemporalTrainer::new(cfg().seed(99), &train)
        .unwrap()
        .with_integrity_guard(GuardConfig::default());
    assert_ne!(second.evaluate(&test), final_accuracy);
    let loaded = CheckpointRing::load_dir(&dir, GuardConfig::default().ring_capacity);
    assert_eq!(loaded.len(), 3);
    assert!(second.resume_from_ring(loaded).unwrap());
    assert_eq!(second.evaluate(&test), final_accuracy);

    // "Process 3": the crash truncated the newest ring file mid-write.
    // Restart lands on the newest *readable* snapshot (end of epoch 0),
    // and the traced loader surfaces exactly which file was lost instead
    // of silently shortening the ring.
    let newest = dir.join("ring-2.json");
    let json = std::fs::read_to_string(&newest).unwrap();
    std::fs::write(&newest, &json[..json.len() / 3]).unwrap();
    let load = CheckpointRing::load_dir_traced(&dir, GuardConfig::default().ring_capacity);
    assert_eq!(load.skipped.len(), 1);
    assert_eq!(load.skipped[0].kind(), std::io::ErrorKind::InvalidData);
    assert!(
        load.skipped[0].to_string().contains("ring-2.json"),
        "skip error should name the corrupt file: {}",
        load.skipped[0]
    );
    let degraded = load.ring;
    assert_eq!(degraded.len(), 2);
    let mut third = SpatioTemporalTrainer::new(cfg().seed(99), &train)
        .unwrap()
        .with_integrity_guard(GuardConfig::default());
    assert!(third.resume_from_ring(degraded).unwrap());
    let resumed_accuracy = third.evaluate(&test);

    // The resumed state is exactly the after-epoch-0 snapshot: replay
    // epoch 1 on it and training converges to the same final state the
    // first process reached.
    let mut replay = SpatioTemporalTrainer::new(cfg().seed(99), &train)
        .unwrap()
        .with_integrity_guard(GuardConfig::default());
    let mut reference = ring.clone();
    reference.pop_latest();
    assert!(replay.resume_from_ring(reference).unwrap());
    assert_eq!(replay.evaluate(&test), resumed_accuracy);
    third.run_epoch(1);
    replay.run_epoch(1);
    assert_eq!(third.evaluate(&test), replay.evaluate(&test));

    // An empty directory resumes nothing but is not an error.
    std::fs::remove_dir_all(&dir).ok();
    let mut fresh = SpatioTemporalTrainer::new(cfg(), &train).unwrap();
    let empty = CheckpointRing::load_dir(&dir, GuardConfig::default().ring_capacity);
    assert!(!fresh.resume_from_ring(empty).unwrap());
}

#[test]
fn resume_rejects_mismatched_deployment() {
    let train = data(48, 3);
    let test = data(16, 4);
    let mut two = SpatioTemporalTrainer::new(cfg(), &train)
        .unwrap()
        .with_integrity_guard(GuardConfig::default());
    two.train(&test);
    let ring = two.checkpoint_ring().clone();

    let three_cfg = SplitConfig::tiny(CutPoint(1), 3).epochs(1).seed(13);
    let mut three = SpatioTemporalTrainer::new(three_cfg, &train).unwrap();
    assert!(three.resume_from_ring(ring).is_err());
}
