//! Reproducibility: identical configuration + workload ⇒ identical
//! results, different seeds ⇒ different stochastic inputs; the property
//! every figure of EXPERIMENTS.md relies on.

use telecast::{PlacementStrategy, SessionConfig, TelecastSession};
use telecast_media::{ArrivalModel, ViewChoice, ViewerWorkload};
use telecast_net::BandwidthProfile;
use telecast_sim::{SimDuration, SimRng};

#[derive(Debug, PartialEq)]
struct Fingerprint {
    acceptance: u64, // scaled to avoid float comparison pitfalls
    admitted: u64,
    rejected: u64,
    cdn_kbps: u64,
    victims: u64,
    messages: u64,
    join_count: usize,
    layer_sum: u64,
}

fn fingerprint(seed: u64, placement: PlacementStrategy) -> Fingerprint {
    let mut config = SessionConfig::default()
        .with_seed(seed)
        .with_outbound(BandwidthProfile::uniform_mbps(0, 12));
    config.placement = placement;
    if placement == PlacementStrategy::Random {
        config.layering_enabled = false;
    }
    let mut session = TelecastSession::builder(config).viewers(120).build();
    let mut rng = SimRng::seed_from_u64(seed ^ 0xABCD);
    let workload = ViewerWorkload::builder(120, 8)
        .arrivals(ArrivalModel::Poisson {
            mean_gap: SimDuration::from_millis(30),
        })
        .view_choice(ViewChoice::Zipf { s: 1.0 })
        .view_changes(1.0, SimDuration::from_secs(30))
        .departures(0.25, SimDuration::from_secs(60))
        .build(&mut rng);
    session.run_workload(&workload);
    let m = session.metrics();
    Fingerprint {
        acceptance: (m.acceptance_ratio() * 1e9) as u64,
        admitted: m.admitted_viewers.value(),
        rejected: m.rejected_viewers.value(),
        cdn_kbps: session.cdn().outbound().used().as_kbps(),
        victims: m.victims.value(),
        messages: m.subscription_messages.value(),
        join_count: m.join_delays_ms.len(),
        layer_sum: session.layer_snapshot().iter().sum(),
    }
}

#[test]
fn push_down_runs_are_bit_identical() {
    assert_eq!(
        fingerprint(1, PlacementStrategy::PushDown),
        fingerprint(1, PlacementStrategy::PushDown)
    );
}

#[test]
fn random_baseline_runs_are_bit_identical() {
    assert_eq!(
        fingerprint(2, PlacementStrategy::Random),
        fingerprint(2, PlacementStrategy::Random)
    );
}

#[test]
fn fifo_runs_are_bit_identical() {
    assert_eq!(
        fingerprint(3, PlacementStrategy::Fifo),
        fingerprint(3, PlacementStrategy::Fifo)
    );
}

#[test]
fn different_seeds_differ() {
    assert_ne!(
        fingerprint(10, PlacementStrategy::PushDown),
        fingerprint(11, PlacementStrategy::PushDown)
    );
}

#[test]
fn workload_scripts_are_reproducible() {
    let build = |seed| {
        let mut rng = SimRng::seed_from_u64(seed);
        ViewerWorkload::builder(500, 8)
            .arrivals(ArrivalModel::Poisson {
                mean_gap: SimDuration::from_millis(10),
            })
            .view_choice(ViewChoice::Zipf { s: 1.2 })
            .view_changes(2.0, SimDuration::from_secs(60))
            .departures(0.4, SimDuration::from_secs(90))
            .build(&mut rng)
    };
    assert_eq!(build(42), build(42));
    assert_ne!(build(42), build(43));
}

// ---------------------------------------------------------------------
// Sharded runtime: the mega_storm figure must be byte-identical across
// worker counts (threads only map shards onto OS threads) and across
// repetitions of the same seed.
// ---------------------------------------------------------------------

fn small_mega(seed: u64, threads: usize) -> String {
    use telecast::DelayModelChoice;
    use telecast_bench::{run_churn, ChurnPreset, ChurnScenario, Runtime};
    run_churn(&ChurnScenario {
        viewers: 800,
        minutes: 2,
        churn_per_minute: 0.1,
        backend: DelayModelChoice::Dense,
        seed,
        runtime: Runtime::Sharded {
            threads,
            epoch_secs: 5,
        },
        ..ChurnScenario::preset(ChurnPreset::MegaStorm)
    })
    .figure
    .to_json()
}

#[test]
fn sharded_mega_storm_json_is_thread_count_independent() {
    for seed in [21, 22] {
        let reference = small_mega(seed, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                reference,
                small_mega(seed, threads),
                "seed {seed} diverged at {threads} threads"
            );
        }
    }
}

/// The repository's committed `results/` directory.
fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Byte-identity against reference bytes generated by the PR-6
/// `parallel_map_with` epoch path *before* the persistent worker pool
/// replaced it: the pool must reproduce the old execution byte for byte
/// at every thread count, not merely be self-consistent.
#[test]
fn sharded_runtime_replays_the_committed_small_references_byte_identically() {
    for seed in [21u64, 22] {
        let committed =
            std::fs::read_to_string(results_dir().join(format!("sharded_replay_mega_{seed}.json")))
                .expect("missing sharded replay reference — run the ignored regenerate test");
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                small_mega(seed, threads),
                committed,
                "seed {seed} at {threads} threads diverged from the committed reference bytes"
            );
        }
    }
}

/// Regenerates the small sharded replay references. Run after an
/// *intentional* behaviour change, then commit the two files:
/// `cargo test --release -p telecast-conformance --test determinism -- --ignored regenerate`
#[test]
#[ignore = "writes the committed replay references"]
fn regenerate_sharded_replay_references() {
    let dir = results_dir();
    for seed in [21u64, 22] {
        std::fs::write(
            dir.join(format!("sharded_replay_mega_{seed}.json")),
            small_mega(seed, 1),
        )
        .expect("write sharded replay reference");
    }
}

#[test]
fn sharded_mega_storm_seeds_differ() {
    assert_ne!(small_mega(31, 2), small_mega(32, 2));
}

// ---------------------------------------------------------------------
// Property: the cross-shard outbox merge reproduces the order a single
// global event loop would have fired the same effects in — the merge
// key (time, shard, seq) is a faithful stand-in for the engine's
// (time, global-seq) FIFO tie-break when effects are stamped shard by
// shard.
// ---------------------------------------------------------------------

proptest::proptest! {
    /// The k-way heap merge is observationally identical to the
    /// PR-6 reference implementation — concatenate every outbox in
    /// shard-major order, then stable-sort by the canonical
    /// `(time, shard, seq)` key — on *arbitrary* sorted inputs,
    /// including duplicate keys across boxes (ties must fall back to
    /// box order, exactly as a stable sort of the concatenation does).
    #[test]
    fn kway_merge_matches_the_sort_based_reference(
        raw in proptest::collection::vec(
            proptest::collection::vec((0u64..50, 0usize..8, 0u64..6), 0..40),
            0..7,
        )
    ) {
        use telecast_sim::{merge_outboxes, OutboxEntry, SimTime};

        let mut payload = 0u32;
        let boxes: Vec<Vec<OutboxEntry<u32>>> = raw
            .into_iter()
            .map(|entries| {
                let mut entries: Vec<OutboxEntry<u32>> = entries
                    .into_iter()
                    .map(|(ms, from, seq)| {
                        payload += 1;
                        OutboxEntry {
                            at: SimTime::ZERO + SimDuration::from_millis(ms),
                            from,
                            seq,
                            msg: payload,
                        }
                    })
                    .collect();
                // Each merge input must arrive sorted by its key, as a
                // drained outbox always is.
                entries.sort_by_key(|e| e.key());
                entries
            })
            .collect();

        let mut reference: Vec<(SimTime, usize, u64, u32)> = boxes
            .iter()
            .flatten()
            .map(|e| (e.at, e.from, e.seq, e.msg))
            .collect();
        reference.sort_by_key(|&(at, from, seq, _)| (at, from, seq));

        let merged: Vec<(SimTime, usize, u64, u32)> = merge_outboxes(boxes)
            .into_iter()
            .map(|e| (e.at, e.from, e.seq, e.msg))
            .collect();
        proptest::prop_assert_eq!(merged, reference);
    }
}

#[test]
fn shard_merge_preserves_global_event_order() {
    use telecast_sim::{merge_outboxes, Engine, Outbox, SimTime};

    let mut rng = SimRng::seed_from_u64(0x00DD_5EED);
    for _ in 0..25 {
        let shard_count = rng.range(2..=6usize);
        // A single-loop reference engine schedules every effect in the
        // same shard-major order the outboxes stamp them in.
        let mut reference: Engine<(usize, u64)> = Engine::new();
        let mut outboxes = Vec::new();
        for shard in 0..shard_count {
            let mut outbox: Outbox<u64> = Outbox::new(shard);
            let events = rng.range(0..=30usize);
            let mut at = SimTime::ZERO;
            for _ in 0..events {
                at += telecast_sim::SimDuration::from_millis(rng.range(0..=5u64));
                let seq = outbox.emitted();
                outbox.push(at, seq);
                reference.schedule_at(at, (shard, seq));
            }
            outboxes.push(outbox.take());
        }
        let merged: Vec<(usize, u64)> = merge_outboxes(outboxes)
            .into_iter()
            .map(|e| (e.from, e.msg))
            .collect();
        let fired: Vec<(usize, u64)> =
            std::iter::from_fn(|| reference.pop().map(|f| f.payload)).collect();
        assert_eq!(merged, fired, "merge order diverged from the single loop");
    }
}
