//! Tiny argument parser for the harness binaries (no external deps).
//!
//! A binary names the harness flags it reads; engine flags come from
//! [`lardb::KNOBS`] and set the [`DatabaseConfig`] every lardb run uses.
//! Any other flag, including a harness flag the binary does not read, is
//! a usage error.

use lardb::{DatabaseConfig, Knob};

/// Common harness options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Data points per run for Gram/regression (paper: 1e5 per machine).
    pub n: usize,
    /// Data points per run for the distance workload (paper: 1e4/machine).
    pub n_dist: usize,
    /// Dimensionalities to sweep (paper: 10, 100, 1000).
    pub dims: Vec<usize>,
    /// Rows per block for block-based SQL (paper: 1000).
    pub block: usize,
    /// RNG seed.
    pub seed: u64,
    /// Quick mode: tiny sizes, for smoke-testing the harness.
    pub quick: bool,
    /// When set, write a machine-readable `QueryProfile` JSON (lifecycle
    /// stage timings + per-operator estimate-vs-actual records) to this
    /// path at the end of the run.
    pub profile_json: Option<String>,
    /// The engine every lardb run uses: 8 workers (paper: 10 machines ×
    /// 8 cores) and the engine defaults, then the engine flags. Baselines
    /// read only its `workers`.
    pub config: DatabaseConfig,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            n: 20_000,
            n_dist: 1_500,
            dims: vec![10, 100, 1000],
            block: 1000,
            seed: 20170419, // ICDE 2017
            quick: false,
            profile_json: None,
            config: DatabaseConfig { workers: 8, ..DatabaseConfig::default() },
        }
    }
}

impl Args {
    /// Parses `--key value` style arguments over `self` (the binary's
    /// defaults). `reads` names the harness flags the binary uses; any
    /// other harness flag, an unknown flag or a bad value is an error.
    pub fn parse(
        mut self,
        reads: &[&str],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let knob = Knob::find(&flag).is_some();
            if !knob && !reads.contains(&flag.as_str()) {
                return Err(format!("this binary takes no flag {flag}; try --help"));
            }
            if flag == "--quick" {
                self.quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
            if knob {
                self.config.set(&flag, &value)?;
                continue;
            }
            match flag.as_str() {
                "--n" => self.n = parse_num(&value)?,
                "--n-dist" => self.n_dist = parse_num(&value)?,
                "--dims" => {
                    self.dims =
                        value.split(',').map(|s| parse_num(s.trim())).collect::<Result<_, _>>()?;
                }
                "--block" => self.block = parse_num(&value)?,
                "--seed" => self.seed = parse_num(&value)? as u64,
                "--profile-json" => self.profile_json = Some(value),
                other => return Err(format!("unknown flag {other}; try --help")),
            }
        }
        if self.quick {
            self.n = self.n.min(2_000);
            self.n_dist = self.n_dist.min(300);
            // Clamping can merge dims (1000 → 100): keep each width once,
            // in first-seen order, so no figure prints a column twice.
            let mut dims: Vec<usize> = Vec::with_capacity(self.dims.len());
            for d in self.dims.iter().map(|&d| d.min(100)) {
                if !dims.contains(&d) {
                    dims.push(d);
                }
            }
            self.dims = dims;
            self.block = self.block.min(100);
        }
        Ok(self)
    }

    /// Parses the process arguments over `self`; prints the options and
    /// exits 0 on `--help`, prints the error and exits 2 on a bad flag.
    pub fn parse_env(self, reads: &[&str]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            eprint!("options: {}\nengine flags:\n{}", reads.join(" "), Knob::usage());
            std::process::exit(0);
        }
        self.parse(reads, argv).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }
}

fn parse_num(s: &str) -> Result<usize, String> {
    // Allow 10_000 / 10k / 1m shorthands.
    let s = s.replace('_', "");
    let (mult, digits) = if let Some(d) = s.strip_suffix(['k', 'K']) {
        (1_000usize, d)
    } else if let Some(d) = s.strip_suffix(['m', 'M']) {
        (1_000_000usize, d)
    } else {
        (1, s.as_str())
    };
    digits.parse::<usize>().map(|v| v * mult).map_err(|_| format!("bad numeric argument '{s}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb::{ExprEngine, TransportMode};

    const ALL: [&str; 7] =
        ["--n", "--n-dist", "--dims", "--block", "--seed", "--quick", "--profile-json"];

    fn try_parse(v: &[&str]) -> Result<Args, String> {
        Args::default().parse(&ALL, v.iter().map(|s| s.to_string()))
    }

    fn parse(v: &[&str]) -> Args {
        try_parse(v).unwrap()
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.dims, vec![10, 100, 1000]);
        assert_eq!(a.config.workers, 8);
    }

    #[test]
    fn overrides_and_shorthand() {
        let a = parse(&["--n", "5k", "--dims", "10,50", "--workers", "4", "--seed", "7"]);
        assert_eq!(a.n, 5000);
        assert_eq!(a.dims, vec![10, 50]);
        assert_eq!(a.config.workers, 4);
        assert_eq!(a.seed, 7);
        assert!(try_parse(&["--n", "lots"]).is_err());
        assert!(try_parse(&["--n"]).is_err());
    }

    #[test]
    fn transport_flag() {
        assert_eq!(parse(&[]).config.transport, TransportMode::Pointer);
        assert_eq!(
            parse(&["--transport", "serialized"]).config.transport,
            TransportMode::Serialized
        );
        assert_eq!(parse(&["--transport", "TCP"]).config.transport, TransportMode::Tcp);
        assert!(try_parse(&["--transport", "udp"]).is_err());
    }

    #[test]
    fn profile_json_flag() {
        assert_eq!(parse(&[]).profile_json, None);
        assert_eq!(
            parse(&["--profile-json", "out.json"]).profile_json,
            Some("out.json".to_string())
        );
        // A binary that writes no profile rejects the flag.
        let fig1 = ["--n", "--dims", "--block", "--seed", "--quick"];
        let argv = ["--profile-json", "out.json"].map(String::from);
        assert!(Args::default().parse(&fig1, argv).is_err());
    }

    #[test]
    fn memory_flags() {
        let a = parse(&[]);
        assert_eq!(a.config.mem, None);
        assert_eq!(a.config.spill_dir, None);
        let a = parse(&["--mem-budget-mb", "64", "--spill-dir", "/tmp/sp"]);
        assert_eq!(a.config.mem, Some(64));
        assert_eq!(a.config.spill_dir, Some("/tmp/sp".into()));
    }

    #[test]
    fn engine_flags() {
        let a = parse(&["--expr-engine", "interpret", "--batch-rows", "512"]);
        assert_eq!(a.config.expr_engine, ExprEngine::Interpret);
        assert_eq!(a.config.batch_rows, 512);
        assert_eq!(
            parse(&["--expr-engine", "compiled"]).config.expr_engine,
            ExprEngine::Compiled
        );
        assert!(try_parse(&["--workers", "0"]).is_err());
        assert!(try_parse(&["--batch-rows", "0"]).is_err());
        assert!(try_parse(&["--no-such-flag", "1"]).is_err());
    }

    #[test]
    fn quick_caps_sizes() {
        let a = parse(&["--n", "1m", "--quick"]);
        assert!(a.n <= 2_000);
        assert!(a.dims.iter().all(|&d| d <= 100));
        // The default 10,100,1000 clamps to 10,100,100: one 100 column.
        assert_eq!(a.dims, vec![10, 100]);
        let b = parse(&["--dims", "1000,50,100,500", "--quick"]);
        assert_eq!(b.dims, vec![100, 50]);
    }
}
