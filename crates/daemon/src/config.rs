//! The daemon's configuration: [`DaemonConfig`], its one flag parser
//! ([`DaemonConfig::from_args`]) and its one option table ([`FLAGS`]).
//! `lopacityd` and `lopacify serve` both parse their command line here and
//! both print [`usage`] for `--help`, so the two front doors accept the
//! same flags with the same defaults.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;

use lopacity_util::{Args, FaultPlan};

/// Every fault-injection site the daemon checks: journal appends and
/// fsyncs (`journal`), worker panics and evaluator-cache inserts
/// (`state`), socket reads and writes (`server`). A `--fault` plan that
/// names any other site is rejected when the config is parsed.
pub const FAULT_SITES: [&str; 6] = [
    "journal.append",
    "journal.fsync",
    "worker.panic",
    "socket.read",
    "socket.write",
    "cache.insert",
];

/// One daemon flag: `--name VALUE` and its help text.
pub struct Flag {
    pub name: &'static str,
    pub value: &'static str,
    pub help: &'static str,
}

/// The daemon's option table: exactly the flags
/// [`DaemonConfig::from_args`] accepts, in `--help` order.
pub const FLAGS: [Flag; 14] = [
    Flag {
        name: "addr",
        value: "HOST:PORT",
        help: "bind address (default 127.0.0.1:7311; port 0 picks a free port)",
    },
    Flag { name: "workers", value: "N", help: "job worker threads (default 2)" },
    Flag {
        name: "queue",
        value: "N",
        help: "queued-job cap; excess submissions get 429 (default 32)",
    },
    Flag {
        name: "job-ttl",
        value: "SECS",
        help: "drop finished jobs (results, logs, held churn sessions)\n\
               SECS after they finish; counted in the\n\
               lopacityd_jobs_expired metric (default: keep forever)",
    },
    Flag {
        name: "state-dir",
        value: "DIR",
        help: "durable job journal in DIR/journal.log: submissions,\n\
               checkpoints, results. On boot the journal is replayed:\n\
               finished jobs restore, interrupted jobs resume from\n\
               their last checkpoint with byte-identical results\n\
               (default: in-memory only)",
    },
    Flag {
        name: "checkpoint-every",
        value: "STEPS",
        help: "journal a resumable snapshot every STEPS greedy steps;\n\
               0 disables checkpointing (default 1)",
    },
    Flag {
        name: "max-attempts",
        value: "N",
        help: "worker panics tolerated per job before it is\n\
               quarantined as failed (default 3)",
    },
    Flag {
        name: "backlog-bytes",
        value: "N",
        help: "queued-spec byte budget; when exceeded the oldest\n\
               queued jobs are shed and over-budget submissions get\n\
               503 + Retry-After (default: no shedding)",
    },
    Flag {
        name: "job-mem-budget",
        value: "BYTES",
        help: "per-job predicted-footprint cap: a spec whose\n\
               estimated distance-store footprint exceeds it is\n\
               refused with 413 before any graph or APSP build\n\
               (default: unlimited)",
    },
    Flag {
        name: "mem-budget",
        value: "BYTES",
        help: "global predicted-footprint budget across queued and\n\
               running jobs; submissions past it get 429 +\n\
               Retry-After (default: unlimited)",
    },
    Flag {
        name: "job-deadline",
        value: "SECS",
        help: "per-job wall-clock deadline, armed when a worker\n\
               picks the job up; an expired job stops at its next\n\
               cooperative checkpoint as cancelled with\n\
               'interrupted deadline' and a certified-prefix\n\
               partial result (default: none)",
    },
    Flag {
        name: "max-body",
        value: "BYTES",
        help: "request-body cap; larger declared Content-Lengths\n\
               get 400 before any body byte is read (default and\n\
               hard ceiling: 64 MiB)",
    },
    Flag {
        name: "io-timeout",
        value: "SECS",
        help: "per-connection socket read/write deadline — the\n\
               slowloris guard; 0 disables (default 30)",
    },
    Flag {
        name: "fault",
        value: "PLAN",
        help: "deterministic fault injection, e.g.\n\
               'journal.fsync:2,worker.panic:3:crash'; every site\n\
               must be one of FAULT SITES below (default: none)",
    },
];

/// The `--help` text of `program` (`lopacityd` or `lopacify serve`):
/// the option table, the fault sites, signals and endpoints.
pub fn usage(program: &str) -> String {
    const HELP_COLUMN: usize = 23;
    let mut out = format!("{program} - L-opacity anonymization daemon\n\n");
    let _ = write!(out, "USAGE:\n    {program} [OPTIONS]\n\nOPTIONS:\n");
    for flag in &FLAGS {
        let head = format!("    --{} {}", flag.name, flag.value);
        let mut lines = flag.help.lines();
        if head.len() < HELP_COLUMN {
            let _ = writeln!(out, "{head:<HELP_COLUMN$}{}", lines.next().unwrap_or_default());
        } else {
            let _ = writeln!(out, "{head}");
        }
        for line in lines {
            let _ = writeln!(out, "{:HELP_COLUMN$}{line}", "");
        }
    }
    let _ = writeln!(out, "\nFAULT SITES (--fault SITE:N[+][:crash],...):");
    let _ = writeln!(out, "    {}", FAULT_SITES.join(" "));
    out.push_str(SIGNALS_AND_ENDPOINTS);
    out
}

const SIGNALS_AND_ENDPOINTS: &str = "
SIGNALS:
    SIGTERM            graceful drain: stop admitting, checkpoint running
                       jobs, exit 0; with --state-dir they resume next boot

ENDPOINTS:
    POST /jobs                submit a job spec (see crate docs for the format)
    GET  /jobs/<id>           job phase + summary
    GET  /jobs/<id>/progress  observer lines (?since=K)
    GET  /jobs/<id>/result    final summary (409 until finished)
    GET  /jobs/<id>/graph     anonymized graph as an edge list (once done)
    POST /jobs/<id>/cancel    cooperative cancel
    POST /jobs/<id>/events    churn event batch into a held session
    GET  /metrics             counters (cache hits, recoveries, faults, ...)
    GET  /healthz             liveness probe
";

/// Boot-time knobs for [`crate::Daemon::bind`] and the shared
/// [`crate::ServerState`]. Each field is one flag of [`FLAGS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free port (see [`crate::Daemon::addr`]).
    pub addr: String,
    /// Worker threads running jobs.
    pub workers: usize,
    /// Queued-job cap; submissions beyond it get `429`.
    pub queue_capacity: usize,
    /// Finished-job retention in seconds: expired jobs (results, progress
    /// logs, held churn sessions) are garbage-collected and counted in
    /// `lopacityd_jobs_expired`. `None` keeps them forever.
    pub job_ttl_secs: Option<u64>,
    /// Durable state directory. When set, every job transition is
    /// journaled to `<state_dir>/journal.log` and replayed at boot:
    /// finished jobs restore, interrupted jobs resume from their last
    /// checkpoint (see the crate docs and `journal`).
    pub state_dir: Option<PathBuf>,
    /// Deterministic fault plan, e.g.
    /// `journal.fsync:2,worker.panic:3:crash` (see
    /// [`DaemonConfig::fault_plan`]). `None` injects nothing.
    pub fault_spec: Option<String>,
    /// Per-connection socket read *and* write deadline in seconds — the
    /// slowloris guard. 0 disables the deadlines.
    pub io_timeout_secs: u64,
    /// Checkpoint cadence in greedy steps (0 disables capture).
    pub checkpoint_every: u64,
    /// Worker panics tolerated per job before quarantine.
    pub max_attempts: u64,
    /// Queued-spec byte budget for load-shedding admission; `None`
    /// disables shedding.
    pub backlog_bytes: Option<usize>,
    /// Per-job predicted-footprint cap in bytes; specs predicted past it
    /// are refused with `413` before any graph or APSP build.
    pub job_mem_budget: Option<u64>,
    /// Global predicted-footprint budget in bytes across queued and
    /// running jobs; submissions past it get `429` + `Retry-After`.
    pub mem_budget: Option<u64>,
    /// Per-job wall-clock deadline in seconds, armed when a worker picks
    /// the job up; an expired job stops at its next cooperative checkpoint
    /// (`cancelled`, `interrupted deadline`) with a certified-prefix
    /// partial result.
    pub job_deadline_secs: Option<u64>,
    /// Request-body cap in bytes, clamped to
    /// [`lopacity_util::http::MAX_BODY`]. `None` uses the clamp itself.
    pub max_body: Option<usize>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:7311".to_string(),
            workers: 2,
            queue_capacity: 32,
            job_ttl_secs: None,
            state_dir: None,
            fault_spec: None,
            io_timeout_secs: 30,
            checkpoint_every: 1,
            max_attempts: 3,
            backlog_bytes: None,
            job_mem_budget: None,
            mem_budget: None,
            job_deadline_secs: None,
            max_body: None,
        }
    }
}

impl DaemonConfig {
    /// Parses the flags of [`FLAGS`]; an absent flag keeps its default.
    ///
    /// # Errors
    /// A message naming the offending flag: one outside the table, one
    /// without a value, a malformed number, or a fault plan that does not
    /// parse or names a site outside [`FAULT_SITES`].
    pub fn from_args(args: &Args) -> Result<DaemonConfig, String> {
        let known = FLAGS.map(|flag| flag.name);
        if let Some(flag) = args.unknown_keys(&known).first() {
            return Err(format!("unknown option --{flag} (see --help)"));
        }
        if let Some(flag) = known.iter().find(|flag| args.has_flag(flag)) {
            return Err(format!("--{flag} needs a value"));
        }
        let defaults = DaemonConfig::default();
        let config = DaemonConfig {
            addr: args.get("addr").unwrap_or(&defaults.addr).to_string(),
            workers: args.get_or("workers", defaults.workers)?,
            queue_capacity: args.get_or("queue", defaults.queue_capacity)?,
            job_ttl_secs: optional(args, "job-ttl")?,
            state_dir: args.get("state-dir").map(PathBuf::from),
            fault_spec: args.get("fault").map(str::to_string),
            io_timeout_secs: args.get_or("io-timeout", defaults.io_timeout_secs)?,
            checkpoint_every: args.get_or("checkpoint-every", defaults.checkpoint_every)?,
            max_attempts: args.get_or("max-attempts", defaults.max_attempts)?,
            backlog_bytes: optional(args, "backlog-bytes")?,
            job_mem_budget: optional(args, "job-mem-budget")?,
            mem_budget: optional(args, "mem-budget")?,
            job_deadline_secs: optional(args, "job-deadline")?,
            max_body: optional(args, "max-body")?,
        };
        config.fault_plan().map_err(|e| format!("--fault: {e}"))?;
        Ok(config)
    }

    /// The compiled `fault_spec` (the inert plan when unset).
    ///
    /// # Errors
    /// The plan does not parse, or names a site outside [`FAULT_SITES`].
    pub fn fault_plan(&self) -> Result<FaultPlan, String> {
        let Some(spec) = &self.fault_spec else { return Ok(FaultPlan::none()) };
        let plan = FaultPlan::parse(spec)?;
        if let Some(site) = plan.sites().into_iter().find(|site| !FAULT_SITES.contains(site)) {
            return Err(format!(
                "unknown fault site {site:?} (sites: {})",
                FAULT_SITES.join(", ")
            ));
        }
        Ok(plan)
    }
}

/// `--key` parsed into `T` when present.
fn optional<T: FromStr>(args: &Args, key: &str) -> Result<Option<T>, String> {
    args.get(key)
        .map(|raw| raw.parse().map_err(|_| format!("invalid value {raw:?} for --{key}")))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<DaemonConfig, String> {
        DaemonConfig::from_args(&Args::parse(argv.iter().copied()))
    }

    #[test]
    fn no_flags_give_the_defaults() {
        assert_eq!(parse(&[]), Ok(DaemonConfig::default()));
    }

    #[test]
    fn every_flag_round_trips() {
        let cases: [(&str, &str, fn(&mut DaemonConfig)); 14] = [
            ("addr", "0.0.0.0:9", |c| c.addr = "0.0.0.0:9".to_string()),
            ("workers", "5", |c| c.workers = 5),
            ("queue", "7", |c| c.queue_capacity = 7),
            ("job-ttl", "60", |c| c.job_ttl_secs = Some(60)),
            ("state-dir", "/var/lib/lopacity", |c| {
                c.state_dir = Some(PathBuf::from("/var/lib/lopacity"))
            }),
            ("checkpoint-every", "0", |c| c.checkpoint_every = 0),
            ("max-attempts", "9", |c| c.max_attempts = 9),
            ("backlog-bytes", "4096", |c| c.backlog_bytes = Some(4096)),
            ("job-mem-budget", "100000", |c| c.job_mem_budget = Some(100_000)),
            ("mem-budget", "400000", |c| c.mem_budget = Some(400_000)),
            ("job-deadline", "3", |c| c.job_deadline_secs = Some(3)),
            ("max-body", "64", |c| c.max_body = Some(64)),
            ("io-timeout", "0", |c| c.io_timeout_secs = 0),
            ("fault", "journal.fsync:1", |c| {
                c.fault_spec = Some("journal.fsync:1".to_string())
            }),
        ];
        for flag in &FLAGS {
            assert!(cases.iter().any(|(name, ..)| *name == flag.name), "--{}", flag.name);
        }
        for (name, value, set) in cases {
            let mut expected = DaemonConfig::default();
            set(&mut expected);
            assert_ne!(expected, DaemonConfig::default(), "--{name} {value} is a default");
            let flag = format!("--{name}");
            assert_eq!(parse(&[&flag, value]), Ok(expected.clone()), "{flag} {value}");
            assert_eq!(parse(&[&format!("{flag}={value}")]), Ok(expected), "{flag}={value}");
        }
    }

    #[test]
    fn malformed_numbers_name_their_flag() {
        for flag in ["--workers", "--job-ttl", "--max-body", "--io-timeout"] {
            let err = parse(&[flag, "lots"]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn unknown_and_valueless_flags_are_rejected() {
        let err = parse(&["--workers", "2", "--max-bodyy", "64"]).unwrap_err();
        assert!(err.contains("--max-bodyy"), "{err}");
        let err = parse(&["--state-dir"]).unwrap_err();
        assert!(err.contains("--state-dir needs a value"), "{err}");
    }

    #[test]
    fn fault_plans_must_name_real_sites() {
        let err = parse(&["--fault", "bogus-site:1"]).unwrap_err();
        assert!(err.contains("bogus-site"), "{err}");
        let err = parse(&["--fault", "journal.fsync:1,socket.reed:2"]).unwrap_err();
        assert!(err.contains("socket.reed"), "{err}");
        let every_site: Vec<String> = FAULT_SITES.iter().map(|site| format!("{site}:1")).collect();
        let config = parse(&["--fault", &every_site.join(",")]).unwrap();
        assert_eq!(config.fault_plan().unwrap().sites(), FAULT_SITES);
    }

    #[test]
    fn usage_lists_every_flag_and_fault_site() {
        let text = usage("lopacityd");
        for flag in &FLAGS {
            assert!(text.contains(&format!("--{} {}", flag.name, flag.value)), "--{}", flag.name);
        }
        assert!(text.contains(&FAULT_SITES.join(" ")));
    }
}
