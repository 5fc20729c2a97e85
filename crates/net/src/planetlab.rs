//! Pairwise delay models.
//!
//! The paper replays "4-hour PlanetLab traces" for inter-viewer delays. The
//! original trace archive is no longer retrievable, so this module supplies
//! (a) [`SyntheticPlanetLab`], a generator producing a delay matrix with the
//! same statistical shape (continental clustering, tens-of-ms inter-cluster
//! one-way delays, mild per-epoch drift over a 4-hour horizon), and (b)
//! [`TraceMatrix`], a loader for the original `src dst rtt_ms` text format
//! so a real trace can be substituted without code changes.

use std::error::Error;
use std::fmt;
use telecast_sim::FxHashMap;

use serde::{Deserialize, Serialize};
use telecast_sim::{SimDuration, SimRng, SimTime};

use crate::node::{NodeId, NodeRegistry};

/// A source of one-way network propagation delays between nodes.
///
/// Contract: `one_way(at, a, b)` depends on `at` only through
/// [`epoch_index`](crate::epoch_index)`(at)`, so delays are constant
/// within a 15-minute drift epoch. The session relies on it twice: its
/// periodic adaptation skips ticks that cross no epoch boundary, and
/// each subscription caches its parent leg for the rest of the epoch.
pub trait DelayModel {
    /// One-way propagation delay from `from` to `to` at virtual time `at`.
    fn one_way(&self, at: SimTime, from: NodeId, to: NodeId) -> SimDuration;

    /// Round-trip time, by default the sum of both one-way delays.
    fn rtt(&self, at: SimTime, a: NodeId, b: NodeId) -> SimDuration {
        self.one_way(at, a, b) + self.one_way(at, b, a)
    }
}

/// A delay model that returns the same delay for every pair; useful in unit
/// tests and for isolating algorithmic effects from network noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedDelay(pub SimDuration);

impl DelayModel for FixedDelay {
    fn one_way(&self, _at: SimTime, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            SimDuration::ZERO
        } else {
            self.0
        }
    }
}

/// Duration of one synthetic trace epoch (the drift granularity), shared
/// with the O(n) coordinate backend so both agree on when delays move.
pub(crate) const EPOCH: SimDuration = SimDuration::from_secs(15 * 60);
/// Number of epochs covering the 4-hour PlanetLab horizon.
pub(crate) const EPOCHS: usize = 16;

/// Synthetic PlanetLab-style delay matrix (see `DESIGN.md` §4).
///
/// Construction samples, for every ordered node pair, a base one-way delay
/// from the continental distance table plus intra-cluster spread, then a
/// per-epoch multiplicative drift in `[0.9, 1.2]` over sixteen 15-minute
/// epochs. The matrix is symmetric in its base delays (drift is sampled per
/// ordered pair, as real asymmetric routes drift independently).
#[derive(Debug, Clone)]
pub struct SyntheticPlanetLab {
    n: usize,
    /// Base one-way delay in µs, row-major `n × n`.
    base_us: Vec<u64>,
    /// Drift multiplier per epoch and pair, `EPOCHS × n × n`, in per-mille.
    drift_pm: Vec<u16>,
}

impl SyntheticPlanetLab {
    /// Generates a matrix for every node currently in `nodes`, seeded so
    /// the same `(registry size, regions, seed)` reproduce identical
    /// delays.
    pub fn generate(nodes: &NodeRegistry, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x504c_414e_4554_4c41); // "PLANETLA"
        let n = nodes.len();
        let regions: Vec<_> = nodes.iter().map(|info| info.region).collect();
        let mut base_us = vec![0u64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let base = regions[i].base_delay_ms(regions[j]);
                // Intra-cluster spread: U(5, 40) ms replaces the diagonal
                // figure; inter-cluster pairs get ±35% route spread.
                let ms = if regions[i] == regions[j] {
                    rng.range(5.0..40.0)
                } else {
                    base * rng.range(0.65..1.35)
                };
                let us = (ms * 1_000.0) as u64;
                base_us[i * n + j] = us;
                base_us[j * n + i] = us;
            }
        }
        let mut drift_pm = vec![1_000u16; EPOCHS * n * n];
        for slot in drift_pm.iter_mut() {
            *slot = rng.range(900..1_200u16);
        }
        SyntheticPlanetLab {
            n,
            base_us,
            drift_pm,
        }
    }

    /// Number of nodes covered by the matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn epoch_of(at: SimTime) -> usize {
        ((at - SimTime::ZERO) / EPOCH) as usize % EPOCHS
    }
}

impl DelayModel for SyntheticPlanetLab {
    fn one_way(&self, at: SimTime, from: NodeId, to: NodeId) -> SimDuration {
        let (i, j) = (from.index(), to.index());
        assert!(i < self.n && j < self.n, "node outside delay matrix");
        if i == j {
            return SimDuration::ZERO;
        }
        let base = self.base_us[i * self.n + j];
        let epoch = Self::epoch_of(at);
        let drift = self.drift_pm[epoch * self.n * self.n + i * self.n + j] as u64;
        SimDuration::from_micros(base * drift / 1_000)
    }
}

/// Error parsing a PlanetLab-format trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for TraceParseError {}

/// A delay matrix loaded from the original PlanetLab `src dst rtt_ms`
/// format (one measurement per line; repeated pairs are averaged). One-way
/// delay is taken as half the measured RTT. Pairs never measured fall back
/// to the median of all measured delays.
#[derive(Debug, Clone, Default)]
pub struct TraceMatrix {
    one_way_us: FxHashMap<(u32, u32), u64>,
    fallback_us: u64,
}

impl TraceMatrix {
    /// Parses the `src dst rtt_ms` text format. Lines starting with `#` and
    /// blank lines are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError`] on malformed lines or non-finite RTTs.
    pub fn parse(text: &str) -> Result<Self, TraceParseError> {
        let mut sums: FxHashMap<(u32, u32), (f64, u32)> = FxHashMap::default();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let parse_u32 = |s: Option<&str>, what: &str| -> Result<u32, TraceParseError> {
                s.ok_or_else(|| TraceParseError {
                    line: idx + 1,
                    message: format!("missing {what}"),
                })?
                .parse()
                .map_err(|_| TraceParseError {
                    line: idx + 1,
                    message: format!("invalid {what}"),
                })
            };
            let src = parse_u32(fields.next(), "source id")?;
            let dst = parse_u32(fields.next(), "destination id")?;
            let rtt: f64 = fields
                .next()
                .ok_or_else(|| TraceParseError {
                    line: idx + 1,
                    message: "missing rtt".into(),
                })?
                .parse()
                .map_err(|_| TraceParseError {
                    line: idx + 1,
                    message: "invalid rtt".into(),
                })?;
            if !rtt.is_finite() || rtt < 0.0 {
                return Err(TraceParseError {
                    line: idx + 1,
                    message: format!("non-finite rtt {rtt}"),
                });
            }
            let entry = sums.entry((src, dst)).or_insert((0.0, 0));
            entry.0 += rtt;
            entry.1 += 1;
        }
        let mut one_way_us = FxHashMap::default();
        let mut all: Vec<u64> = Vec::new();
        for ((src, dst), (sum, count)) in sums {
            let us = (sum / count as f64 / 2.0 * 1_000.0) as u64;
            all.push(us);
            one_way_us.insert((src, dst), us);
        }
        all.sort_unstable();
        let fallback_us = all.get(all.len() / 2).copied().unwrap_or(40_000);
        Ok(TraceMatrix {
            one_way_us,
            fallback_us,
        })
    }

    /// Number of directed pairs with measurements.
    pub fn measured_pairs(&self) -> usize {
        self.one_way_us.len()
    }
}

impl DelayModel for TraceMatrix {
    fn one_way(&self, _at: SimTime, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        let key = (from.index() as u32, to.index() as u32);
        let rev = (to.index() as u32, from.index() as u32);
        let us = self
            .one_way_us
            .get(&key)
            .or_else(|| self.one_way_us.get(&rev))
            .copied()
            .unwrap_or(self.fallback_us);
        SimDuration::from_micros(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;
    use crate::region::Region;

    fn registry(n: usize) -> NodeRegistry {
        let mut reg = NodeRegistry::new();
        for i in 0..n {
            let region = Region::ALL[i % Region::ALL.len()];
            reg.add(NodeKind::Viewer, region);
        }
        reg
    }

    #[test]
    fn self_delay_is_zero() {
        let reg = registry(4);
        let m = SyntheticPlanetLab::generate(&reg, 1);
        let id = reg.iter().next().unwrap().id;
        assert_eq!(m.one_way(SimTime::ZERO, id, id), SimDuration::ZERO);
    }

    #[test]
    fn generation_is_deterministic() {
        let reg = registry(10);
        let a = SyntheticPlanetLab::generate(&reg, 7);
        let b = SyntheticPlanetLab::generate(&reg, 7);
        let ids: Vec<_> = reg.iter().map(|n| n.id).collect();
        for &x in &ids {
            for &y in &ids {
                assert_eq!(
                    a.one_way(SimTime::ZERO, x, y),
                    b.one_way(SimTime::ZERO, x, y)
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let reg = registry(10);
        let a = SyntheticPlanetLab::generate(&reg, 7);
        let b = SyntheticPlanetLab::generate(&reg, 8);
        let ids: Vec<_> = reg.iter().map(|n| n.id).collect();
        let same = ids
            .iter()
            .flat_map(|&x| ids.iter().map(move |&y| (x, y)))
            .all(|(x, y)| a.one_way(SimTime::ZERO, x, y) == b.one_way(SimTime::ZERO, x, y));
        assert!(!same, "different seeds produced identical matrices");
    }

    #[test]
    fn delays_are_realistic_magnitude() {
        let reg = registry(50);
        let m = SyntheticPlanetLab::generate(&reg, 3);
        let ids: Vec<_> = reg.iter().map(|n| n.id).collect();
        for &x in &ids {
            for &y in &ids {
                if x == y {
                    continue;
                }
                let d = m.one_way(SimTime::ZERO, x, y);
                assert!(
                    d >= SimDuration::from_millis(4) && d <= SimDuration::from_millis(250),
                    "delay {d} outside PlanetLab-plausible range"
                );
            }
        }
    }

    #[test]
    fn drift_changes_across_epochs() {
        let reg = registry(6);
        let m = SyntheticPlanetLab::generate(&reg, 9);
        let ids: Vec<_> = reg.iter().map(|n| n.id).collect();
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_secs(16 * 60); // second epoch
        let changed = ids
            .iter()
            .flat_map(|&x| ids.iter().map(move |&y| (x, y)))
            .filter(|&(x, y)| x != y)
            .any(|(x, y)| m.one_way(t0, x, y) != m.one_way(t1, x, y));
        assert!(changed, "no pair drifted between epochs");
    }

    #[test]
    fn rtt_is_sum_of_one_ways() {
        let reg = registry(4);
        let m = SyntheticPlanetLab::generate(&reg, 11);
        let ids: Vec<_> = reg.iter().map(|n| n.id).collect();
        let (a, b) = (ids[0], ids[1]);
        assert_eq!(
            m.rtt(SimTime::ZERO, a, b),
            m.one_way(SimTime::ZERO, a, b) + m.one_way(SimTime::ZERO, b, a)
        );
    }

    #[test]
    fn fixed_delay_is_fixed() {
        let reg = registry(3);
        let ids: Vec<_> = reg.iter().map(|n| n.id).collect();
        let m = FixedDelay(SimDuration::from_millis(25));
        assert_eq!(
            m.one_way(SimTime::ZERO, ids[0], ids[1]),
            SimDuration::from_millis(25)
        );
        assert_eq!(m.one_way(SimTime::ZERO, ids[2], ids[2]), SimDuration::ZERO);
    }

    #[test]
    fn trace_parse_happy_path() {
        let text = "# planetlab pings\n0 1 80.0\n1 0 60.0\n0 1 100.0\n";
        let m = TraceMatrix::parse(text).expect("valid trace");
        assert_eq!(m.measured_pairs(), 2);
        let reg = registry(2);
        let ids: Vec<_> = reg.iter().map(|n| n.id).collect();
        // (0,1) averaged to 90ms RTT → 45ms one-way.
        assert_eq!(
            m.one_way(SimTime::ZERO, ids[0], ids[1]),
            SimDuration::from_millis(45)
        );
        assert_eq!(
            m.one_way(SimTime::ZERO, ids[1], ids[0]),
            SimDuration::from_millis(30)
        );
    }

    #[test]
    fn trace_parse_errors_are_located() {
        let err = TraceMatrix::parse("0 1 80\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = TraceMatrix::parse("0 1\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));
        let err = TraceMatrix::parse("0 1 -5\n").unwrap_err();
        assert!(err.message.contains("non-finite"));
    }

    #[test]
    fn trace_unmeasured_pairs_use_fallback() {
        let m = TraceMatrix::parse("0 1 80\n").expect("valid");
        let reg = registry(3);
        let ids: Vec<_> = reg.iter().map(|n| n.id).collect();
        // Pair (0,2) never measured → median fallback (the only sample).
        assert_eq!(
            m.one_way(SimTime::ZERO, ids[0], ids[2]),
            SimDuration::from_millis(40)
        );
    }
}
