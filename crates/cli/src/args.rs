//! A small argument parser: positional words plus `--flag [value]` options.

use hpcadvisor_core::ToolError;

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Positional words in order (command, subcommand, operands).
    pub positional: Vec<String>,
    /// `--key value` / `--switch` options (switches store an empty value).
    pub options: Vec<(String, String)>,
}

/// Option names that take a value; everything else is a boolean switch.
const VALUED: &[&str] = &[
    "workdir",
    "config",
    "filter",
    "seed",
    "sampler",
    "sort",
    "out",
    "workers",
    "cache-dir",
    "max-attempts",
    "capacity",
    "deadline",
    "budget",
    "listen",
    "connect",
    "tenant",
    "service-workers",
    "queue",
    "max-requests",
    "tenant-jobs",
    "tenant-budget",
    "tenant-grid",
    "io-timeout",
    "max-conns",
    "state-dir",
    "timeout",
    "retries",
    "request-key",
    "in",
    "region",
    "regions",
];

/// Short-option aliases.
fn canonical(name: &str) -> &str {
    match name {
        "w" => "workdir",
        "c" => "config",
        "f" => "filter",
        "o" => "out",
        other => other,
    }
}

impl Args {
    /// Parses argv (without the program name).
    pub(crate) fn parse(argv: &[String]) -> Result<Args, ToolError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                let name = canonical(name).to_string();
                if VALUED.contains(&name.as_str()) {
                    let value = argv.get(i + 1).ok_or_else(|| {
                        ToolError::Config(format!("option --{name} requires a value"))
                    })?;
                    args.options.push((name, value.clone()));
                    i += 2;
                } else {
                    args.options.push((name, String::new()));
                    i += 1;
                }
            } else {
                args.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(args)
    }

    /// Value of an option, if present.
    pub(crate) fn option(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True if a boolean switch was given.
    pub(crate) fn has(&self, name: &str) -> bool {
        self.options.iter().any(|(k, _)| k == name)
    }

    /// The experiment seed (`--seed`, default 42).
    pub(crate) fn seed(&self) -> Result<u64, ToolError> {
        match self.option("seed") {
            None => Ok(42),
            Some(v) => v
                .parse()
                .map_err(|_| ToolError::Config(format!("bad --seed '{v}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        let argv: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn positional_and_options() {
        let a = parse(&[
            "deploy",
            "create",
            "-c",
            "config.yaml",
            "--seed",
            "7",
            "--ascii",
        ]);
        assert_eq!(a.positional, vec!["deploy", "create"]);
        assert_eq!(a.option("config"), Some("config.yaml"));
        assert_eq!(a.seed().unwrap(), 7);
        assert!(a.has("ascii"));
        assert!(!a.has("slurm"));
    }

    #[test]
    fn short_aliases() {
        let a = parse(&["plot", "-f", "appname=lammps", "-w", "/tmp/x"]);
        assert_eq!(a.option("filter"), Some("appname=lammps"));
        assert_eq!(a.option("workdir"), Some("/tmp/x"));
    }

    #[test]
    fn workers_takes_a_value() {
        let a = parse(&["collect", "--workers", "4"]);
        assert_eq!(a.positional, vec!["collect"]);
        assert_eq!(a.option("workers"), Some("4"));
    }

    #[test]
    fn fault_tolerance_flags() {
        let a = parse(&["collect", "--max-attempts", "5", "--no-retry", "--resume"]);
        assert_eq!(a.option("max-attempts"), Some("5"));
        assert!(a.has("no-retry"));
        assert!(a.has("resume"));
    }

    #[test]
    fn spot_capacity_flags_take_values() {
        let a = parse(&[
            "collect",
            "--capacity",
            "spot",
            "--deadline",
            "3600",
            "--budget",
            "25.50",
        ]);
        assert_eq!(a.option("capacity"), Some("spot"));
        assert_eq!(a.option("deadline"), Some("3600"));
        assert_eq!(a.option("budget"), Some("25.50"));
    }

    #[test]
    fn daemon_resilience_flags_take_values() {
        let a = parse(&[
            "serve",
            "--io-timeout",
            "2.5",
            "--max-conns",
            "8",
            "--state-dir",
            "/tmp/svc",
        ]);
        assert_eq!(a.option("io-timeout"), Some("2.5"));
        assert_eq!(a.option("max-conns"), Some("8"));
        assert_eq!(a.option("state-dir"), Some("/tmp/svc"));
        let a = parse(&[
            "request",
            "--timeout",
            "10",
            "--retries",
            "3",
            "--request-key",
            "job-1",
        ]);
        assert_eq!(a.option("timeout"), Some("10"));
        assert_eq!(a.option("retries"), Some("3"));
        assert_eq!(a.option("request-key"), Some("job-1"));
    }

    #[test]
    fn region_flags_take_values() {
        let a = parse(&[
            "collect",
            "--region",
            "westeurope",
            "--regions",
            "southcentralus,westeurope",
        ]);
        assert_eq!(a.option("region"), Some("westeurope"));
        assert_eq!(a.option("regions"), Some("southcentralus,westeurope"));
    }

    #[test]
    fn missing_value_errors() {
        let argv = vec!["collect".to_string(), "--config".to_string()];
        assert!(Args::parse(&argv).is_err());
    }

    #[test]
    fn bad_seed_errors() {
        let a = parse(&["collect", "--seed", "not-a-number"]);
        assert!(a.seed().is_err());
    }
}
