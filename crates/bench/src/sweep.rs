//! The epoch-length × worker-count sweep over the sharded mega-storm
//! workload.
//!
//! The barrier period is the sharded runtime's central trade-off: short
//! epochs tighten cross-shard spill latency but pay the barrier (and its
//! imbalance) more often, long epochs amortise the barrier but batch the
//! merge. This sweep runs the same mega-storm workload at every
//! `(epoch length, threads)` grid point. Each [`SweepCell`] carries the
//! run's wall clock, pool barrier utilization and cross-shard merge
//! volume; the `epoch_sweep` bin prints all three per cell.
//!
//! The exported figure (`results/epoch_sweep.json`) holds only the
//! merge-volume series: merge volume is deterministic per `(seed, epoch
//! length)` and thread-count-independent, which is what the bench gate
//! pins, while wall clock and utilization are host measurements and
//! would break the determinism contract that every committed figure
//! regenerates byte for byte.

use std::time::Instant;

use crate::scenario::{run_churn, ChurnPreset, ChurnScenario, Runtime};
use crate::table::{FigureData, Series};

/// Parameters of one epoch sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepScenario {
    /// The workload every grid point runs: the mega-storm preset, whose
    /// runtime each grid point replaces.
    pub base: ChurnScenario,
    /// Barrier periods to sweep, in simulated seconds.
    pub epochs_secs: Vec<u64>,
    /// Worker counts to sweep.
    pub threads: Vec<usize>,
}

impl Default for SweepScenario {
    fn default() -> Self {
        SweepScenario {
            base: ChurnScenario {
                viewers: 100_000,
                minutes: 10,
                ..ChurnScenario::preset(ChurnPreset::MegaStorm)
            },
            epochs_secs: vec![2, 10, 30],
            threads: vec![1, 2, 4],
        }
    }
}

/// The swept worker counts: powers of two from 1 up to `cap`.
pub fn thread_grid(cap: usize) -> Vec<usize> {
    std::iter::successors(Some(1), |&t| Some(t * 2))
        .take_while(|&t| t <= cap.max(1))
        .collect()
}

/// One measured grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// Barrier period in simulated seconds.
    pub epoch_secs: u64,
    /// Worker threads the five shards were mapped onto.
    pub threads: usize,
    /// Wall-clock seconds of the run (machine-local).
    pub wall_seconds: f64,
    /// Pool barrier utilization: total shard busy time over total shard
    /// epoch wall (busy + barrier wait), across all shards. 1.0 means no
    /// shard ever idled at a barrier (machine-local).
    pub barrier_utilization: f64,
    /// Utilization of the single most barrier-bound shard — the ~85%
    /// idle Oceania number the worker pool exists to shrink
    /// (machine-local).
    pub min_shard_utilization: f64,
    /// Cross-shard messages merged over the run. Deterministic per
    /// `(seed, epoch_secs)` and independent of `threads`.
    pub merge_volume: u64,
}

/// Runs every grid point sequentially (each point parallelises
/// internally over its own shard pool) and returns the cells in
/// epoch-major, thread-minor order.
pub fn run_epoch_sweep(scenario: &SweepScenario) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(scenario.epochs_secs.len() * scenario.threads.len());
    for &epoch_secs in &scenario.epochs_secs {
        for &threads in &scenario.threads {
            let started = Instant::now();
            let outcome = run_churn(&ChurnScenario {
                runtime: Runtime::Sharded {
                    threads,
                    epoch_secs,
                },
                ..scenario.base
            });
            let wall_seconds = started.elapsed().as_secs_f64();
            let busy: u64 = outcome.shard_stats.iter().map(|s| s.busy_ns).sum();
            let wall: u64 = outcome
                .shard_stats
                .iter()
                .map(|s| s.busy_ns + s.barrier_wait_ns)
                .sum();
            let barrier_utilization = if wall == 0 {
                0.0
            } else {
                busy as f64 / wall as f64
            };
            let min_shard_utilization = outcome
                .shard_stats
                .iter()
                .map(|s| s.utilization())
                .fold(f64::INFINITY, f64::min)
                .min(1.0);
            let merge_volume = outcome
                .figure
                .scalar("cross_shard_messages")
                .expect("the mega-storm figure exports cross_shard_messages")
                as u64;
            cells.push(SweepCell {
                epoch_secs,
                threads,
                wall_seconds,
                barrier_utilization,
                min_shard_utilization,
                merge_volume,
            });
        }
    }
    cells
}

/// Collapses the sweep cells into the exported figure: per epoch length,
/// one merge-volume series over the swept thread counts (x = threads).
pub fn sweep_figure(scenario: &SweepScenario, cells: &[SweepCell]) -> FigureData {
    let series = scenario
        .epochs_secs
        .iter()
        .map(|&epoch_secs| {
            Series::new(
                format!("merge_volume_e{epoch_secs}s"),
                cells
                    .iter()
                    .filter(|c| c.epoch_secs == epoch_secs)
                    .map(|c| (c.threads as f64, c.merge_volume as f64))
                    .collect(),
            )
        })
        .collect();
    let base = &scenario.base;
    FigureData {
        id: "epoch_sweep".into(),
        title: format!(
            "Epoch sweep: {} viewers, {:.1}%/min churn, {} simulated minutes; epochs {:?}s × threads {:?} ({:?} backend)",
            base.viewers,
            base.churn_per_minute * 100.0,
            base.minutes,
            scenario.epochs_secs,
            scenario.threads,
            base.backend,
        ),
        x_label: "worker threads".into(),
        y_label: "cross-shard messages merged".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SweepScenario {
        SweepScenario {
            base: ChurnScenario {
                viewers: 600,
                minutes: 2,
                churn_per_minute: 0.1,
                backend: telecast::DelayModelChoice::Dense,
                seed: 11,
                ..SweepScenario::default().base
            },
            epochs_secs: vec![5, 30],
            threads: vec![1, 2],
        }
    }

    #[test]
    fn sweep_covers_the_grid_in_epoch_major_order() {
        let scenario = small();
        let cells = run_epoch_sweep(&scenario);
        let grid: Vec<(u64, usize)> = cells.iter().map(|c| (c.epoch_secs, c.threads)).collect();
        assert_eq!(grid, vec![(5, 1), (5, 2), (30, 1), (30, 2)]);
        for c in &cells {
            assert!(c.wall_seconds > 0.0);
            assert!((0.0..=1.0).contains(&c.barrier_utilization), "{c:?}");
            assert!(c.min_shard_utilization <= c.barrier_utilization + 1e-9);
        }
    }

    #[test]
    fn merge_volume_is_thread_independent_but_epoch_dependent() {
        let cells = run_epoch_sweep(&small());
        // Same epoch, different threads: identical (determinism).
        assert_eq!(cells[0].merge_volume, cells[1].merge_volume);
        assert_eq!(cells[2].merge_volume, cells[3].merge_volume);
    }

    #[test]
    fn figure_carries_one_series_set_per_epoch_length() {
        let scenario = small();
        let cells = run_epoch_sweep(&scenario);
        let figure = sweep_figure(&scenario, &cells);
        // Only the deterministic merge volumes are exported; wall clock
        // and utilization stay on stdout.
        let labels: Vec<&str> = figure.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["merge_volume_e5s", "merge_volume_e30s"]);
        // Each series has one point per swept thread count, x = threads.
        for s in &figure.series {
            let xs: Vec<f64> = s.points.iter().map(|&(x, _)| x).collect();
            assert_eq!(xs, vec![1.0, 2.0], "{}", s.label);
        }
    }

    #[test]
    fn figure_is_the_same_for_any_host_timing() {
        let scenario = small();
        let cell = |epoch_secs, threads, wall_seconds, utilization| SweepCell {
            epoch_secs,
            threads,
            wall_seconds,
            barrier_utilization: utilization,
            min_shard_utilization: utilization / 2.0,
            merge_volume: epoch_secs * 10,
        };
        let fast = [cell(5, 1, 1.0, 0.9), cell(5, 2, 0.6, 0.8)];
        let slow = [cell(5, 1, 7.5, 0.3), cell(5, 2, 4.0, 0.2)];
        assert_eq!(
            sweep_figure(&scenario, &fast).to_json(),
            sweep_figure(&scenario, &slow).to_json()
        );
    }
}
