//! Minimal flag parsing shared by the scenario binaries.
//!
//! The scenario bins share their knobs — population, delay backend,
//! seed, simulated duration, churn rate — so the parsing lives here
//! once. Each bin names the flags it reads, and setting any other flag
//! is a usage error rather than a silent no-op. No external
//! argument-parsing crate: the workspace builds offline.

use telecast::DelayModelChoice;

/// Parsed scenario flags; every field is optional so each binary applies
/// its own defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScenarioArgs {
    /// `--viewers N` (or a bare positional integer, kept for backwards
    /// compatibility with the original `flash_crowd <N>` form).
    pub viewers: Option<usize>,
    /// `--minutes M`: simulated duration.
    pub minutes: Option<u64>,
    /// `--backend {dense,coordinate,auto}`.
    pub backend: Option<DelayModelChoice>,
    /// `--seed S`: master seed override.
    pub seed: Option<u64>,
    /// `--churn-pct P`: percent of the population leaving per minute.
    pub churn_pct: Option<f64>,
    /// `--pool-mbps N`: starting CDN outbound pool in Mbps.
    pub pool_mbps: Option<u64>,
    /// `--autoscale`: enable elastic CDN autoscaling.
    pub autoscale: bool,
    /// `--predictive`: forecast-driven scaling (implies `--autoscale`).
    pub predictive: bool,
    /// `--threads N`: worker threads for sharded runtimes. Defaults to
    /// [`telecast_sim::default_parallelism`] when unset; the output is
    /// thread-count-independent, so this is purely a wall-clock knob.
    pub threads: Option<usize>,
    /// `--epoch-secs E`: barrier period of sharded runtimes in simulated
    /// seconds. Like `--threads`, the output never depends on it being
    /// *expressible* — but unlike `--threads` it is a simulation knob:
    /// it moves when cross-shard effects apply, so different values
    /// produce different (each internally deterministic) runs.
    pub epoch_secs: Option<u64>,
    /// `--tenants M`: concurrent tenant broadcasts sharing the pools
    /// (multi-tenant scenarios only).
    pub tenants: Option<u32>,
    /// `--zipf S`: Zipf exponent of the tenant audience-size split.
    pub zipf: Option<f64>,
    /// `--views N`: selectable views in the catalog (camera count per
    /// producer site; multi-view scenarios only).
    pub views: Option<usize>,
    /// `--zipf-view S`: Zipf exponent of view popularity (0 = uniform).
    pub zipf_view: Option<f64>,
    /// `--refocus-pct P`: percent of the audience hopping to the storm
    /// target view during each correlated re-focus event (0 disables
    /// the storms).
    pub refocus_pct: Option<f64>,
}

impl ScenarioArgs {
    /// Parses flags from an iterator of arguments (without the program
    /// name).
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending argument.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = ScenarioArgs::default();
        let mut args = args;
        while let Some(arg) = args.next() {
            let args = &mut args;
            match arg.as_str() {
                // Zero viewers, threads, epochs, tenants, views or pool
                // would trip asserts downstream (ChurnSpec,
                // ShardedSession::new, …): reject them here with a clean
                // usage error instead.
                "--viewers" => out.viewers = Some(positive(args, "--viewers")?),
                "--minutes" => {
                    out.minutes = Some(parse_num(&next_value(args, "--minutes")?, "--minutes")?)
                }
                "--seed" => out.seed = Some(parse_num(&next_value(args, "--seed")?, "--seed")?),
                "--churn-pct" => {
                    let pct = number(args, "--churn-pct")?;
                    // ChurnSpec::steady_state requires a rate in (0, 1].
                    if !(pct > 0.0 && pct <= 100.0) {
                        return Err(format!("--churn-pct out of (0, 100]: {pct}"));
                    }
                    out.churn_pct = Some(pct);
                }
                "--backend" => out.backend = Some(parse_backend(&next_value(args, "--backend")?)?),
                "--pool-mbps" => out.pool_mbps = Some(positive(args, "--pool-mbps")?),
                "--autoscale" => out.autoscale = true,
                "--predictive" => {
                    out.predictive = true;
                    out.autoscale = true;
                }
                "--threads" => out.threads = Some(positive(args, "--threads")?),
                "--epoch-secs" => out.epoch_secs = Some(positive(args, "--epoch-secs")?),
                "--tenants" => {
                    let n = positive(args, "--tenants")?;
                    // Every tenant's floor is a whole percent of the
                    // pool, at least 1%: the broker cannot admit more
                    // than 100 of them.
                    if n > 100 {
                        return Err(format!("--tenants must be at most 100: {n}"));
                    }
                    out.tenants = Some(n);
                }
                "--zipf" => {
                    let s = number(args, "--zipf")?;
                    // A non-positive exponent inverts or degenerates the
                    // audience split.
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--zipf must be a positive number: {s}"));
                    }
                    out.zipf = Some(s);
                }
                "--views" => {
                    let n = positive(args, "--views")?;
                    // One camera per view, and a site's camera ring is
                    // indexed by u16.
                    if n > usize::from(u16::MAX) {
                        return Err(format!("--views must be at most {}: {n}", u16::MAX));
                    }
                    out.views = Some(n);
                }
                "--zipf-view" => {
                    let s = number(args, "--zipf-view")?;
                    // Unlike `--zipf` (an audience split, where 0
                    // degenerates), a 0 view exponent is the uniform
                    // choice — only negative or non-finite is invalid
                    // (ViewPopularity::validate would panic downstream).
                    if !(s >= 0.0 && s.is_finite()) {
                        return Err(format!("--zipf-view must be a non-negative number: {s}"));
                    }
                    out.zipf_view = Some(s);
                }
                "--refocus-pct" => {
                    let pct = number(args, "--refocus-pct")?;
                    // RefocusEvent::validate rejects fractions outside
                    // [0, 1]. 0 is a valid storms-off setting (unlike
                    // `--churn-pct`, where a zero rate trips ChurnSpec).
                    if !(0.0..=100.0).contains(&pct) {
                        return Err(format!("--refocus-pct out of [0, 100]: {pct}"));
                    }
                    out.refocus_pct = Some(pct);
                }
                other => {
                    // Bare positional integer = viewer count (the original
                    // `flash_crowd <N>` interface), positive like
                    // `--viewers`.
                    match other.parse::<usize>() {
                        Ok(0) => return Err("viewer count must be positive".into()),
                        Ok(n) => out.viewers = Some(n),
                        Err(_) => {
                            return Err(format!(
                                "unknown argument `{other}` \
                                 (expected --viewers N, --minutes M, \
                                 --backend dense|coordinate|auto, --seed S, \
                                 --churn-pct P, --pool-mbps N, --autoscale, \
                                 --predictive, --threads N, \
                                 --epoch-secs E, --tenants M, --zipf S, \
                                 --views N, --zipf-view S, --refocus-pct P)"
                            ))
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Every flag's command-line name, and whether it was set. A bare
    /// positional viewer count counts as `--viewers`; `--predictive`
    /// also sets `--autoscale`.
    fn flags_set(&self) -> [(&'static str, bool); 15] {
        [
            ("--viewers", self.viewers.is_some()),
            ("--minutes", self.minutes.is_some()),
            ("--backend", self.backend.is_some()),
            ("--seed", self.seed.is_some()),
            ("--churn-pct", self.churn_pct.is_some()),
            ("--pool-mbps", self.pool_mbps.is_some()),
            ("--autoscale", self.autoscale),
            ("--predictive", self.predictive),
            ("--threads", self.threads.is_some()),
            ("--epoch-secs", self.epoch_secs.is_some()),
            ("--tenants", self.tenants.is_some()),
            ("--zipf", self.zipf.is_some()),
            ("--views", self.views.is_some()),
            ("--zipf-view", self.zipf_view.is_some()),
            ("--refocus-pct", self.refocus_pct.is_some()),
        ]
    }

    /// Checks that every flag set is one of `reads`, the flags the
    /// calling scenario reads.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the first flag that was set but
    /// is not read.
    pub fn only(&self, reads: &[&str]) -> Result<(), String> {
        match self
            .flags_set()
            .into_iter()
            .find(|&(flag, set)| set && !reads.contains(&flag))
        {
            Some((flag, _)) => Err(format!(
                "this scenario does not read {flag} (it reads {})",
                reads.join(", ")
            )),
            None => Ok(()),
        }
    }

    /// Parses the process arguments and checks them against `reads`
    /// (see [`ScenarioArgs::only`]), exiting with status 2 and the
    /// usage message on error.
    pub fn from_env(reads: &[&str]) -> Self {
        match Self::parse(std::env::args().skip(1)).and_then(|args| args.only(reads).map(|()| args))
        {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} expects a value"))
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects an integer, got `{value}`"))
}

/// The next value as a positive integer.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let n: T = parse_num(&next_value(args, flag)?, flag)?;
    if n == T::default() {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

/// The next value as a number.
fn number(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<f64, String> {
    let v = next_value(args, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got `{v}`"))
}

fn parse_backend(value: &str) -> Result<DelayModelChoice, String> {
    match value {
        "dense" => Ok(DelayModelChoice::Dense),
        "coordinate" => Ok(DelayModelChoice::Coordinate),
        "auto" => Ok(DelayModelChoice::Auto),
        other => Err(format!(
            "--backend expects dense|coordinate|auto, got `{other}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<ScenarioArgs, String> {
        ScenarioArgs::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_all_flags() {
        let args = parse(&[
            "--viewers",
            "20000",
            "--minutes",
            "5",
            "--backend",
            "coordinate",
            "--seed",
            "9",
            "--churn-pct",
            "1.5",
            "--pool-mbps",
            "800",
            "--autoscale",
            "--predictive",
            "--threads",
            "4",
            "--epoch-secs",
            "30",
        ])
        .unwrap();
        assert_eq!(args.viewers, Some(20_000));
        assert_eq!(args.minutes, Some(5));
        assert_eq!(args.backend, Some(DelayModelChoice::Coordinate));
        assert_eq!(args.seed, Some(9));
        assert_eq!(args.churn_pct, Some(1.5));
        assert_eq!(args.pool_mbps, Some(800));
        assert!(args.autoscale);
        assert!(args.predictive);
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.epoch_secs, Some(30));
    }

    #[test]
    fn epoch_secs_shares_the_viewers_validation_parity() {
        assert_eq!(parse(&["--epoch-secs", "2"]).unwrap().epoch_secs, Some(2));
        assert_eq!(parse(&[]).unwrap().epoch_secs, None);
        // `--epoch-secs 0` is rejected exactly like `--viewers 0` — a
        // zero epoch would trip ShardedSession::new's assert downstream.
        assert!(parse(&["--epoch-secs", "0"]).is_err());
        assert!(parse(&["--epoch-secs"]).is_err());
        assert!(parse(&["--epoch-secs", "soon"]).is_err());
    }

    #[test]
    fn predictive_implies_autoscale() {
        let args = parse(&["--predictive"]).unwrap();
        assert!(args.predictive);
        assert!(
            args.autoscale,
            "--predictive without the autoscaler is inert"
        );
        assert!(!parse(&["--autoscale"]).unwrap().predictive);
    }

    #[test]
    fn bare_integer_is_viewers() {
        assert_eq!(parse(&["2500"]).unwrap().viewers, Some(2_500));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(&["--wat"]).is_err());
        // Per-region pools are the spike preset's constant, not a flag.
        assert!(parse(&["--per-region"]).is_err());
        assert!(parse(&["--viewers"]).is_err());
        assert!(parse(&["--viewers", "lots"]).is_err());
        assert!(parse(&["--backend", "quantum"]).is_err());
        assert!(parse(&["--churn-pct", "250"]).is_err());
        assert!(parse(&["--pool-mbps", "0"]).is_err());
        // Zero rates/populations would panic inside ChurnSpec's
        // asserts; the parser must catch them first.
        assert!(parse(&["--churn-pct", "0"]).is_err());
        assert!(parse(&["--viewers", "0"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads"]).is_err());
    }

    #[test]
    fn tenant_flags_share_the_viewers_validation_parity() {
        let args = parse(&["--tenants", "8", "--zipf", "1.1"]).unwrap();
        assert_eq!(args.tenants, Some(8));
        assert_eq!(args.zipf, Some(1.1));
        // `--tenants 0` is rejected exactly like `--viewers 0`…
        assert!(parse(&["--tenants", "0"]).is_err());
        assert!(parse(&["--tenants"]).is_err());
        assert!(parse(&["--tenants", "many"]).is_err());
        // Every tenant's floor is a whole percent of at least 1%, so at
        // most 100 tenants fit; more is a usage error, not a broker panic.
        assert_eq!(parse(&["--tenants", "100"]).unwrap().tenants, Some(100));
        assert!(parse(&["--tenants", "101"])
            .unwrap_err()
            .contains("at most 100"));
        // …and a non-positive (or non-finite) Zipf exponent like
        // `--churn-pct 0`.
        assert!(parse(&["--zipf", "0"]).is_err());
        assert!(parse(&["--zipf", "-0.5"]).is_err());
        assert!(parse(&["--zipf", "inf"]).is_err());
        assert!(parse(&["--zipf", "nan"]).is_err());
        assert!(parse(&["--zipf"]).is_err());
    }

    #[test]
    fn view_storm_flags_share_the_validation_parity() {
        let args = parse(&["--views", "8", "--zipf-view", "1.1", "--refocus-pct", "40"]).unwrap();
        assert_eq!(args.views, Some(8));
        assert_eq!(args.zipf_view, Some(1.1));
        assert_eq!(args.refocus_pct, Some(40.0));
        assert_eq!(parse(&[]).unwrap().views, None);
        // `--views 0` is rejected exactly like `--viewers 0`…
        assert!(parse(&["--views", "0"]).is_err());
        assert!(parse(&["--views"]).is_err());
        assert!(parse(&["--views", "several"]).is_err());
        // A site's camera ring is indexed by u16; more views is a usage
        // error, not a panic in the scenario.
        assert_eq!(parse(&["--views", "65535"]).unwrap().views, Some(65_535));
        assert!(parse(&["--views", "65536"])
            .unwrap_err()
            .contains("at most 65535"));
        // …`--zipf-view` allows the uniform 0 but nothing negative or
        // non-finite (ViewPopularity::validate panics downstream)…
        assert_eq!(parse(&["--zipf-view", "0"]).unwrap().zipf_view, Some(0.0));
        assert!(parse(&["--zipf-view", "-0.5"]).is_err());
        assert!(parse(&["--zipf-view", "inf"]).is_err());
        assert!(parse(&["--zipf-view", "nan"]).is_err());
        assert!(parse(&["--zipf-view"]).is_err());
        // …and `--refocus-pct` is a fraction of the audience: [0, 100],
        // with 0 a valid storms-off setting.
        assert_eq!(
            parse(&["--refocus-pct", "0"]).unwrap().refocus_pct,
            Some(0.0)
        );
        assert!(parse(&["--refocus-pct", "101"]).is_err());
        assert!(parse(&["--refocus-pct", "-1"]).is_err());
        assert!(parse(&["--refocus-pct", "nan"]).is_err());
        assert!(parse(&["--refocus-pct"]).is_err());
    }

    #[test]
    fn zero_viewers_rejected_in_both_spellings() {
        // The flag spelling…
        assert!(parse(&["--viewers", "0"]).is_err());
        // …and the backwards-compatible bare positional used to disagree:
        // `flash_crowd 0` slipped a zero through to ChurnSpec's asserts.
        assert!(parse(&["0"]).is_err());
        // Positive values still parse through both.
        assert_eq!(parse(&["--viewers", "7"]).unwrap().viewers, Some(7));
        assert_eq!(parse(&["7"]).unwrap().viewers, Some(7));
    }

    #[test]
    fn flags_a_scenario_does_not_read_are_errors() {
        let reads = ["--viewers", "--minutes", "--autoscale"];
        assert!(parse(&["--viewers", "9", "--autoscale"])
            .unwrap()
            .only(&reads)
            .is_ok());
        assert!(parse(&[]).unwrap().only(&[]).is_ok());
        let err = parse(&["--minutes", "3", "--threads", "4"])
            .unwrap()
            .only(&reads)
            .unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        // The positional viewer count is `--viewers`, and `--predictive`
        // is refused where only its implied `--autoscale` is read.
        assert!(parse(&["7"]).unwrap().only(&["--seed"]).is_err());
        let err = parse(&["--predictive"]).unwrap().only(&reads).unwrap_err();
        assert!(err.contains("--predictive"), "{err}");
        // Every flag the parser knows is named by exactly one entry.
        let all = parse(&[
            "--viewers",
            "1",
            "--minutes",
            "1",
            "--backend",
            "dense",
            "--seed",
            "1",
            "--churn-pct",
            "1",
            "--pool-mbps",
            "1",
            "--predictive",
            "--threads",
            "1",
            "--epoch-secs",
            "1",
            "--tenants",
            "1",
            "--zipf",
            "1",
            "--views",
            "1",
            "--zipf-view",
            "1",
            "--refocus-pct",
            "1",
        ])
        .unwrap();
        let names: Vec<&str> = all.flags_set().iter().map(|&(flag, _)| flag).collect();
        assert!(all.flags_set().iter().all(|&(_, set)| set));
        assert!(all.only(&names).is_ok());
    }

    #[test]
    fn empty_args_are_all_defaults() {
        assert_eq!(parse(&[]).unwrap(), ScenarioArgs::default());
    }
}
