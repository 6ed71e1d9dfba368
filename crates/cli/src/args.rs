//! The `slpm` commands: one flag table per command, parsed by
//! [`crate::flags`] into the library's own configurations.

use crate::commands::{Runner, EXPERIMENTS, FIGURES};
pub use crate::flags::ParseError;
use crate::flags::{self, Arg, Flag, Kind::*};
use slpm_linalg::FiedlerMethod;
use slpm_serve::arrival::ArrivalShape;
use slpm_serve::engine::EngineConfig;
use slpm_serve::shard::Partition;
use slpm_serve::stream::{AdmissionPolicy, StreamConfig};
use slpm_serve::workload::WorkloadConfig;
use slpm_serve::FaultPlan;
use std::fmt;

/// A mapping selectable on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingChoice {
    /// Row-major sweep.
    Sweep,
    /// Boustrophedon snake.
    Snake,
    /// Z-order ("Peano" in the paper).
    Peano,
    /// Original base-3 Peano.
    TruePeano,
    /// Gray-coded curve.
    Gray,
    /// Hilbert curve.
    #[default]
    Hilbert,
    /// Spectral LPM, 4-connectivity.
    Spectral,
    /// Spectral LPM, 8-connectivity.
    Spectral8,
}

/// Every mapping: its name, the other names it answers to, the variant.
#[rustfmt::skip]
const MAPPINGS: &[(&str, &[&str], MappingChoice)] = &[
    ("sweep", &[], MappingChoice::Sweep),
    ("snake", &[], MappingChoice::Snake),
    ("peano", &["z", "zorder", "z-order", "morton"], MappingChoice::Peano),
    ("truepeano", &["true-peano", "peano3"], MappingChoice::TruePeano),
    ("gray", &[], MappingChoice::Gray),
    ("hilbert", &[], MappingChoice::Hilbert),
    ("spectral", &[], MappingChoice::Spectral),
    ("spectral8", &[], MappingChoice::Spectral8),
];

impl MappingChoice {
    /// Parse a mapping name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.to_ascii_lowercase();
        let found = MAPPINGS
            .iter()
            .find(|(name, aliases, _)| *name == s || aliases.contains(&&*s));
        found.map(|m| m.2)
    }
}

impl fmt::Display for MappingChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, ..) = MAPPINGS
            .iter()
            .find(|m| m.2 == *self)
            .expect("every mapping is listed");
        f.write_str(name)
    }
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `slpm order`: the rank of every grid point.
    Order(Order),
    /// `slpm fiedler`: λ₂ and the Fiedler vector of a grid.
    Fiedler(Fiedler),
    /// `slpm figure <id>`: one of [`FIGURES`].
    Figure {
        /// Figure id.
        id: &'static str,
    },
    /// `slpm experiment <name>`: one of [`EXPERIMENTS`].
    Experiment {
        /// Experiment name.
        name: &'static str,
    },
    /// `slpm report`: the quality report of an order.
    Report(Report),
    /// `slpm pack`: the grid's records as a disk page file.
    Pack(Pack),
    /// `slpm serve`: a mixed range/kNN workload through the serving engine.
    Serve(Box<Serve>),
    /// `slpm help`
    Help,
}

/// `slpm order`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Order {
    /// Grid extents.
    pub dims: Vec<usize>,
    /// Which mapping.
    pub mapping: MappingChoice,
    /// Emit CSV instead of a grid/point listing.
    pub csv: bool,
    /// Eigensolver worker threads (spectral mappings only); `None` =
    /// machine default. Never changes the computed order.
    pub threads: Option<usize>,
}

#[rustfmt::skip]
const ORDER: &[Flag<Order>] = &[
    ("--grid", Required("8x8"), |c, a| dims(a).map(|d| c.dims = d)),
    ("--mapping", Required("spectral"), |c, a| mapping(a).map(|m| c.mapping = m)),
    ("--csv", Switch, |c, _| { c.csv = true; Ok(()) }),
    ("--threads", Optional("N"), |c, a| a.int(1).map(|n| c.threads = Some(n))),
];

/// `slpm fiedler`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fiedler {
    /// Grid extents.
    pub dims: Vec<usize>,
    /// Eigensolver method; `None` = the size policy
    /// ([`FiedlerMethod::for_size`]).
    pub method: Option<FiedlerMethod>,
    /// Eigensolver worker threads; `None` = machine default.
    pub threads: Option<usize>,
}

#[rustfmt::skip]
const FIEDLER: &[Flag<Fiedler>] = &[
    ("--grid", Required("8x8"), |c, a| dims(a).map(|d| c.dims = d)),
    ("--method", Optional("dense|multilevel"), |c, a| method(a).map(|m| c.method = Some(m))),
    ("--threads", Optional("N"), |c, a| a.int(1).map(|n| c.threads = Some(n))),
];

/// `slpm report`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// Grid extents.
    pub dims: Vec<usize>,
    /// Which mapping.
    pub mapping: MappingChoice,
}

#[rustfmt::skip]
const REPORT: &[Flag<Report>] = &[
    ("--grid", Required("8x8"), |c, a| dims(a).map(|d| c.dims = d)),
    ("--mapping", Required("hilbert"), |c, a| mapping(a).map(|m| c.mapping = m)),
];

/// `slpm pack`: the grid's records in linear-order sequence, for `slpm
/// serve --page-file`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pack {
    /// Grid extents.
    pub dims: Vec<usize>,
    /// Which mapping lays out the file.
    pub mapping: MappingChoice,
    /// Output path of the page file.
    pub out: String,
    /// Records per page.
    pub page_records: usize,
    /// Bytes per record payload.
    pub record_size: usize,
}

#[rustfmt::skip]
const PACK: &[Flag<Pack>] = &[
    ("--grid", Required("256x256"), |c, a| dims(a).map(|d| c.dims = d)),
    ("--out", Required("pages.slpm"), |c, a| a.string().map(|s| c.out = s)),
    ("--mapping", Preset("hilbert"), |c, a| mapping(a).map(|m| c.mapping = m)),
    ("--page-records", Preset("64"), |c, a| a.int(1).map(|n| c.page_records = n)),
    ("--record-size", Preset("64"), |c, a| a.int(1).map(|n| c.record_size = n)),
];

/// `slpm serve`: the configurations of the engine, the workload and the
/// stream, as the library takes them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Serve {
    /// Grid extents.
    pub dims: Vec<usize>,
    /// Which mapping lays out the store.
    pub mapping: MappingChoice,
    /// Shards, threads, placement, buffer pool, page geometry (one R-tree
    /// leaf per page), readahead and the recovery knobs.
    pub engine: EngineConfig,
    /// Query count and seed.
    pub workload: WorkloadConfig,
    /// Concurrently admitted batches (1 = serial admission).
    pub inflight: usize,
    /// Serve the workload as an open-loop arrival stream under `stream`
    /// instead of as batches.
    pub streaming: bool,
    /// Arrivals (seeded by the workload seed), micro-batching,
    /// backpressure and the SLO target.
    pub stream: StreamConfig,
    /// The `--fault-plan` and its text; `None` = fault-free.
    pub fault_plan: Option<(FaultPlan, String)>,
    /// Serve pages from this file (written by `slpm pack` under the same
    /// grid, mapping and page geometry) instead of from memory.
    pub page_file: Option<String>,
}

#[rustfmt::skip]
const SERVE: &[Flag<Serve>] = &[
    ("--grid", Required("256x256"), |c, a| dims(a).map(|d| c.dims = d)),
    ("--mapping", Preset("hilbert"), |c, a| mapping(a).map(|m| c.mapping = m)),
    ("--shards", Preset("2"), |c, a| a.int(1).map(|n| c.engine.shards = n)),
    ("--threads", Preset("1"), |c, a| a.int(1).map(|n| c.engine.threads = n)),
    ("--queries", Preset("1000"), |c, a| a.int(1).map(|n| c.workload.queries = n)),
    // The seed draws the workload and the stream's arrivals.
    ("--seed", Preset("42"), |c, a| {
        a.int(0).map(|n| (c.workload.seed, c.stream.arrival.seed) = (n, n))
    }),
    ("--partition", Preset("contiguous"), |c, a| partition(a).map(|p| c.engine.partition = p)),
    ("--buffer-pages", Preset("64"), |c, a| a.int(1).map(|n| c.engine.buffer_pages = n)),
    // One R-tree leaf per page.
    ("--page-records", Preset("64"), |c, a| {
        a.int(1).map(|n| (c.engine.records_per_page, c.engine.fanout) = (n, n))
    }),
    ("--inflight", Preset("1"), |c, a| a.int(1).map(|n| c.inflight = n)),
    ("--page-file", Optional("pages.slpm"), |c, a| a.string().map(|s| c.page_file = Some(s))),
    ("--readahead", Preset("0"), |c, a| a.int(0).map(|n| c.engine.readahead = n)),
    ("--stream", Switch, |c, _| { c.streaming = true; Ok(()) }),
    ("--rate", Preset("20000"), |c, a| a.float(1).map(|n| c.stream.arrival.rate_qps = n)),
    ("--arrival", Preset("poisson"), |c, a| arrival(a).map(|s| c.stream.arrival.shape = s)),
    ("--batch-delay-us", Preset("200"), |c, a| a.float(0).map(|n| c.stream.batch_delay_us = n)),
    ("--max-batch", Preset("32"), |c, a| a.int(1).map(|n| c.stream.max_batch = n)),
    ("--queue-depth", Preset("64"), |c, a| a.int(1).map(|n| c.stream.queue_depth = n)),
    ("--admission", Preset("shed"), |c, a| admission(a).map(|p| c.stream.policy = p)),
    ("--slo-us", Preset("2000"), |c, a| a.float(1).map(|n| c.stream.slo_us = n)),
    ("--fault-plan", Optional("SPEC"), |c, a| fault_plan(a).map(|p| c.fault_plan = Some(p))),
    ("--retry", Preset("3"), |c, a| a.int(1).map(|n| c.engine.recovery.max_attempts = n)),
    ("--timeout-us", Preset("10000"), |c, a| a.float(1).map(|n| c.engine.recovery.timeout_us = n)),
    ("--backoff-us", Preset("100"), |c, a| a.float(1).map(|n| c.engine.recovery.backoff_us = n)),
    ("--breaker-threshold", Preset("3"), |c, a| {
        a.int(1).map(|n| c.engine.recovery.breaker_threshold = n)
    }),
    ("--probe-cooldown", Preset("4"), |c, a| {
        a.int(0).map(|n| c.engine.recovery.probe_cooldown = n)
    }),
];

/// Parse `AxBxC` grid syntax (e.g. `8x8`, `4x4x4x4`).
///
/// # Errors
/// An empty or zero extent, a non-number, or extents whose product (the
/// number of points) overflows `usize`.
pub fn parse_dims(s: &str) -> Result<Vec<usize>, ParseError> {
    let invalid = |why: &str| ParseError(format!("invalid grid '{s}': {why}"));
    let dims: Vec<usize> = s
        .split(['x', 'X'])
        .map(|d| d.parse().ok().filter(|&d| d > 0))
        .collect::<Option<_>>()
        .ok_or_else(|| invalid("expected AxB... with positive extents"))?;
    match dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) {
        Some(_) => Ok(dims),
        None => Err(invalid("too many points to count")),
    }
}

// The value converters the tables share.

fn dims(a: Arg) -> Result<Vec<usize>, ParseError> {
    parse_dims(a.text)
}

fn mapping(a: Arg) -> Result<MappingChoice, ParseError> {
    let names: Vec<_> = MAPPINGS.iter().map(|m| m.0).collect();
    a.name("mapping", &names.join(", "), MappingChoice::parse)
}

fn method(a: Arg) -> Result<FiedlerMethod, ParseError> {
    a.name("method", "dense, multilevel", FiedlerMethod::parse)
}

/// A page → shard placement (also `serve_bench --partition`).
pub fn partition(a: Arg) -> Result<Partition, ParseError> {
    a.name("partition", "contiguous, round-robin", Partition::parse)
}

fn arrival(a: Arg) -> Result<ArrivalShape, ParseError> {
    let names = "deterministic, poisson, bursty, diurnal";
    a.name("arrival shape", names, ArrivalShape::parse)
}

fn admission(a: Arg) -> Result<AdmissionPolicy, ParseError> {
    a.name("admission policy", "shed, block", AdmissionPolicy::parse)
}

/// A fault plan and its text (also `serve_bench --fault-plan`).
pub fn fault_plan(a: Arg) -> Result<(FaultPlan, String), ParseError> {
    a.with(FaultPlan::parse)
        .map(|plan| (plan, a.text.to_string()))
}

/// The runner named `args[0]` in `table`; `what` names the table.
fn named(
    what: &str,
    table: &'static [Runner],
    args: &[String],
) -> Result<&'static str, ParseError> {
    let known = || table.iter().map(|r| r.0).collect::<Vec<_>>().join(", ");
    let name = args
        .first()
        .ok_or_else(|| ParseError(format!("{what} requires a name ({})", known())))?;
    match table.iter().find(|r| r.0 == name) {
        Some(r) => Ok(r.0),
        None => Err(ParseError(format!(
            "unknown {what} '{name}' (known: {})",
            known()
        ))),
    }
}

/// Parse a full argument vector (without the program name).
///
/// # Errors
/// No or an unknown command, or any error of [`flags::parse`].
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| ParseError("no command; try `slpm help`".into()))?;
    Ok(match cmd.as_str() {
        "help" | "--help" | "-h" => Command::Help,
        "order" => Command::Order(flags::parse(cmd, ORDER, rest)?),
        "fiedler" => Command::Fiedler(flags::parse(cmd, FIEDLER, rest)?),
        "figure" => Command::Figure {
            id: named(cmd, FIGURES, rest)?,
        },
        "experiment" => Command::Experiment {
            name: named(cmd, EXPERIMENTS, rest)?,
        },
        "report" => Command::Report(flags::parse(cmd, REPORT, rest)?),
        "pack" => Command::Pack(flags::parse(cmd, PACK, rest)?),
        "serve" => Command::Serve(Box::new(flags::parse(cmd, SERVE, rest)?)),
        other => {
            return Err(ParseError(format!(
                "unknown command '{other}'; try `slpm help`"
            )))
        }
    })
}

/// The help text: a USAGE block printed from the flag and runner tables,
/// then what the commands do.
pub fn help() -> String {
    let names = |table: &[Runner]| table.iter().map(|r| r.0).collect::<Vec<_>>().join("|");
    let usage = [
        flags::usage("  slpm order   ", ORDER),
        flags::usage("  slpm fiedler ", FIEDLER),
        format!("  slpm figure  <{}>", names(FIGURES)),
        format!("  slpm experiment <{}>", names(EXPERIMENTS)),
        flags::usage("  slpm report  ", REPORT),
        flags::usage("  slpm pack    ", PACK),
        flags::usage("  slpm serve   ", SERVE),
        "  slpm help".to_string(),
    ];
    format!(
        "slpm — Spectral LPM reproduction CLI\n\nUSAGE:\n{}\n\n{ABOUT}",
        usage.join("\n")
    )
}

/// What the commands do, after the USAGE block of [`help`].
const ABOUT: &str = "\
Mappings: sweep, snake, peano (Z-order), truepeano, gray, hilbert,
          spectral (4-connectivity), spectral8 (8-connectivity).
Grids for the recursive curves need power-of-two sides (truepeano: powers
of three); sweep/snake/spectral accept any extents.
`slpm figure` prints the table behind one of the paper's figures (fig1 adds
the paper's drawn-pair note; fig6a the partial-query variant); `slpm
experiment` prints the four ablation studies or an experiment beyond the
paper.
Spectral mappings pick their eigensolver automatically by grid size (dense
up to 96 points, multilevel above); `slpm fiedler --method` overrides.
--threads N pins the eigensolver's worker threads (default: the machine's
available parallelism, or the SLPM_THREADS env var); results are bitwise
identical for every thread count.
`slpm serve` replays a seeded mixed range/kNN workload through the sharded
serving engine (order -> pages -> shards -> worker pool); result sets, page
counts and the printed digest are bitwise identical for every --shards,
--threads and --inflight combination. kNN queries run best-first
branch-and-bound on the packed R-tree. --inflight B splits the workload
into B concurrently admitted batches (per-shard FIFO queues; a shard
serves each batch's units as one ascending page sweep).
`slpm pack` writes the grid's records to a checksummed disk page file laid
out in linear-order sequence; `slpm serve --page-file` then serves the
same workload out-of-core, faulting pages through each shard's buffer
pool — results, page accounting and the digest stay bitwise identical to
the in-memory engine. A shard reads the pages a batch lacks in runs of
consecutive pages, one seek per run; --readahead N lets up to N pages
follow a run's first page, which pays off when --buffer-pages is smaller
than the working set.
--stream serves the same workload as an open-loop arrival process on a
simulated clock: --rate and --arrival pick the traffic (mean q/s and
shape), --batch-delay-us/--max-batch the micro-batch window, and
--queue-depth/--admission the backpressure bound and policy (shed drops
at the bound and counts per class; block stalls the stream and pays in
tail latency). Per-query admission-to-completion latency is scored
against --slo-us (p50/p99/p999, violation %); all streaming decisions
and latencies are deterministic — machine-independent — and the printed
digest still equals the batch digest of the admitted query sequence.
--fault-plan injects seeded, fully deterministic faults at the replay
seam. SPEC is comma-separated events: kill:S@N (shard S fails from its
Nth unit, healed by failover), kill!:S@N (same, but survives rebuilds),
flaky:S@N+A (A failing attempts), stall:S@N+K=U (K units stall U us),
panic:S@N (one replay-unit panic), pagerr:P@N (page P's Nth read
fails). --retry/--timeout-us/--backoff-us bound per-unit recovery;
--breaker-threshold consecutive failures trip a shard's circuit
breaker (failover to a rebuilt slice at the next admission) and
--probe-cooldown sets how many units an open breaker fast-fails
before probing. Fault-free queries stay bitwise identical to an
unfaulted run; degraded queries are answered from the index plan with
their unserved rank ranges reported.
";

#[cfg(test)]
mod tests {
    use super::*;
    use slpm_serve::arrival::ArrivalConfig;
    use slpm_serve::RecoveryConfig;

    fn serve(c: Command) -> Serve {
        match c {
            Command::Serve(s) => *s,
            other => panic!("expected serve, got {other:?}"),
        }
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_dims_cases() {
        assert_eq!(parse_dims("8x8").unwrap(), vec![8, 8]);
        assert_eq!(parse_dims("4X4X4").unwrap(), vec![4, 4, 4]);
        assert_eq!(parse_dims("16").unwrap(), vec![16]);
        assert!(parse_dims("").is_err());
        assert!(parse_dims("8x0").is_err());
        assert!(parse_dims("8xa").is_err());
    }

    #[test]
    fn parse_order_command() {
        let c = parse(&argv(&["order", "--grid", "8x8", "--mapping", "hilbert"])).unwrap();
        assert_eq!(
            c,
            Command::Order(Order {
                dims: vec![8, 8],
                mapping: MappingChoice::Hilbert,
                csv: false,
                threads: None
            })
        );
        let c = parse(&argv(&[
            "order",
            "--grid",
            "4x4",
            "--mapping",
            "spectral",
            "--csv",
        ]))
        .unwrap();
        assert!(matches!(c, Command::Order(Order { csv: true, .. })));
    }

    #[test]
    fn order_requires_flags() {
        assert!(parse(&argv(&["order", "--grid", "8x8"])).is_err());
        assert!(parse(&argv(&["order", "--mapping", "sweep"])).is_err());
        assert!(parse(&argv(&["order", "--grid"])).is_err());
        assert!(parse(&argv(&["order", "--mapping", "nope", "--grid", "4x4"])).is_err());
    }

    #[test]
    fn parse_fiedler_defaults() {
        let c = parse(&argv(&["fiedler", "--grid", "4x4"])).unwrap();
        assert_eq!(
            c,
            Command::Fiedler(Fiedler {
                dims: vec![4, 4],
                method: None,
                threads: None
            })
        );
        for bad in ["qr", "auto", "shifted-direct"] {
            assert!(
                matches!(
                    parse(&argv(&["fiedler", "--grid", "4x4", "--method", bad])),
                    Err(ParseError(_))
                ),
                "method {bad} should be rejected"
            );
        }
        // An unknown method is a typed error that names the two methods.
        assert_eq!(
            parse(&argv(&[
                "fiedler",
                "--grid",
                "4x4",
                "--method",
                "shift-invert"
            ])),
            Err(ParseError(
                "unknown method 'shift-invert' (dense, multilevel)".into()
            ))
        );
        for m in ["multilevel", "dense"] {
            assert!(
                parse(&argv(&["fiedler", "--grid", "4x4", "--method", m])).is_ok(),
                "method {m} should parse"
            );
        }
    }

    #[test]
    fn parse_threads_flag() {
        let c = parse(&argv(&[
            "fiedler",
            "--grid",
            "4x4",
            "--method",
            "multilevel",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Fiedler(Fiedler {
                dims: vec![4, 4],
                method: Some(FiedlerMethod::Multilevel),
                threads: Some(4)
            })
        );
        let c = parse(&argv(&[
            "order",
            "--grid",
            "4x4",
            "--mapping",
            "spectral",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Order(Order {
                threads: Some(2),
                ..
            })
        ));
        // Zero, junk, and missing values are rejected.
        assert!(parse(&argv(&["fiedler", "--grid", "4x4", "--threads", "0"])).is_err());
        assert!(parse(&argv(&["fiedler", "--grid", "4x4", "--threads", "two"])).is_err());
        assert!(parse(&argv(&["fiedler", "--grid", "4x4", "--threads"])).is_err());
    }

    #[test]
    fn parse_figure_and_experiment() {
        assert_eq!(
            parse(&argv(&["figure", "fig5a"])).unwrap(),
            Command::Figure { id: "fig5a" }
        );
        assert!(parse(&argv(&["figure", "fig9"])).is_err());
        assert_eq!(
            parse(&argv(&["experiment", "knn"])).unwrap(),
            Command::Experiment { name: "knn" }
        );
        assert!(parse(&argv(&["experiment", "nope"])).is_err());
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        let c = parse(&argv(&["serve", "--grid", "64x64"])).unwrap();
        assert_eq!(
            c,
            Command::Serve(Box::new(Serve {
                dims: vec![64, 64],
                mapping: MappingChoice::Hilbert,
                engine: EngineConfig {
                    shards: 2,
                    threads: 1,
                    partition: Partition::Contiguous,
                    buffer_pages: 64,
                    records_per_page: 64,
                    fanout: 64,
                    readahead: 0,
                    recovery: RecoveryConfig {
                        max_attempts: 3,
                        timeout_us: 10_000.0,
                        backoff_us: 100.0,
                        breaker_threshold: 3,
                        probe_cooldown: 4,
                    },
                    ..EngineConfig::default()
                },
                workload: WorkloadConfig {
                    queries: 1000,
                    seed: 42,
                    ..WorkloadConfig::default()
                },
                inflight: 1,
                streaming: false,
                stream: StreamConfig {
                    arrival: ArrivalConfig::new(ArrivalShape::Poisson, 20_000.0, 42),
                    batch_delay_us: 200.0,
                    max_batch: 32,
                    queue_depth: 64,
                    policy: AdmissionPolicy::Shed,
                    slo_us: 2_000.0,
                    ..StreamConfig::default()
                },
                fault_plan: None,
                page_file: None,
            }))
        );
        let c = parse(&argv(&[
            "serve",
            "--grid",
            "32x32",
            "--mapping",
            "snake",
            "--shards",
            "4",
            "--threads",
            "4",
            "--queries",
            "200",
            "--seed",
            "7",
            "--partition",
            "round-robin",
            "--buffer-pages",
            "16",
            "--page-records",
            "32",
            "--inflight",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve(Box::new(Serve {
                dims: vec![32, 32],
                mapping: MappingChoice::Snake,
                engine: EngineConfig {
                    shards: 4,
                    threads: 4,
                    partition: Partition::RoundRobin,
                    buffer_pages: 16,
                    records_per_page: 32,
                    fanout: 32,
                    readahead: 0,
                    recovery: RecoveryConfig {
                        max_attempts: 3,
                        timeout_us: 10_000.0,
                        backoff_us: 100.0,
                        breaker_threshold: 3,
                        probe_cooldown: 4,
                    },
                    ..EngineConfig::default()
                },
                workload: WorkloadConfig {
                    queries: 200,
                    seed: 7,
                    ..WorkloadConfig::default()
                },
                inflight: 4,
                streaming: false,
                stream: StreamConfig {
                    arrival: ArrivalConfig::new(ArrivalShape::Poisson, 20_000.0, 7),
                    batch_delay_us: 200.0,
                    max_batch: 32,
                    queue_depth: 64,
                    policy: AdmissionPolicy::Shed,
                    slo_us: 2_000.0,
                    ..StreamConfig::default()
                },
                fault_plan: None,
                page_file: None,
            }))
        );
        // Missing grid, bad values, bad partition, bad inflight.
        assert!(parse(&argv(&["serve"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--shards", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--queries", "none"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--partition", "hashed"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--seed", "x"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--inflight", "0"])).is_err());
    }

    #[test]
    fn parse_serve_rejects_the_knn_planner_flag() {
        // Best-first is the only kNN planner; the flag that picked one is gone.
        assert_eq!(
            parse(&argv(&[
                "serve",
                "--grid",
                "8x8",
                "--knn-planner",
                "best-first"
            ])),
            Err(ParseError("unknown flag '--knn-planner'".into()))
        );
    }

    #[test]
    fn parse_pack_and_serve_page_file_flags() {
        let c = parse(&argv(&["pack", "--grid", "16x16", "--out", "f.pages"])).unwrap();
        assert_eq!(
            c,
            Command::Pack(Pack {
                dims: vec![16, 16],
                mapping: MappingChoice::Hilbert,
                out: "f.pages".into(),
                page_records: 64,
                record_size: 64,
            })
        );
        let c = parse(&argv(&[
            "pack",
            "--grid",
            "8x8",
            "--out",
            "g.pages",
            "--mapping",
            "snake",
            "--page-records",
            "16",
            "--record-size",
            "32",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Pack(Pack {
                dims: vec![8, 8],
                mapping: MappingChoice::Snake,
                out: "g.pages".into(),
                page_records: 16,
                record_size: 32,
            })
        );
        // pack needs both a grid and an output path.
        assert!(parse(&argv(&["pack", "--out", "f.pages"])).is_err());
        assert!(parse(&argv(&["pack", "--grid", "8x8"])).is_err());
        assert!(parse(&argv(&["pack", "--grid", "8x8", "--out"])).is_err());

        // serve takes the file and a readahead depth.
        let c = parse(&argv(&[
            "serve",
            "--grid",
            "16x16",
            "--page-file",
            "f.pages",
            "--readahead",
            "4",
        ]))
        .unwrap();
        let s = serve(c);
        assert_eq!(s.page_file.as_deref(), Some("f.pages"));
        assert_eq!(s.engine.readahead, 4);
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--page-file"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--readahead", "x"])).is_err());
    }

    #[test]
    fn parse_serve_stream_flags() {
        let c = parse(&argv(&[
            "serve",
            "--grid",
            "64x64",
            "--stream",
            "--rate",
            "50000",
            "--arrival",
            "bursty",
            "--batch-delay-us",
            "100",
            "--max-batch",
            "16",
            "--queue-depth",
            "8",
            "--admission",
            "block",
            "--slo-us",
            "1500",
        ]))
        .unwrap();
        let s = serve(c);
        assert!(s.streaming);
        assert_eq!(s.stream.arrival.rate_qps, 50_000.0);
        assert_eq!(s.stream.arrival.shape, ArrivalShape::Bursty);
        assert_eq!(s.stream.batch_delay_us, 100.0);
        assert_eq!(s.stream.max_batch, 16);
        assert_eq!(s.stream.queue_depth, 8);
        assert_eq!(s.stream.policy, AdmissionPolicy::Block);
        assert_eq!(s.stream.slo_us, 1_500.0);
        // Bad streaming values are rejected.
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--rate", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--arrival", "lognormal"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--admission", "retry"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--queue-depth", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--slo-us", "x"])).is_err());
    }

    #[test]
    fn parse_serve_fault_flags() {
        let c = parse(&argv(&[
            "serve",
            "--grid",
            "16x16",
            "--fault-plan",
            "kill!:0@2,flaky:1@0+2",
            "--retry",
            "5",
            "--timeout-us",
            "500",
            "--backoff-us",
            "20",
            "--breaker-threshold",
            "2",
            "--probe-cooldown",
            "0",
        ]))
        .unwrap();
        let s = serve(c);
        let (plan, text) = s.fault_plan.expect("a fault plan");
        assert_eq!(text, "kill!:0@2,flaky:1@0+2");
        assert_eq!(plan, slpm_serve::FaultPlan::parse(&text).unwrap());
        let recovery = s.engine.recovery;
        assert_eq!(recovery.max_attempts, 5);
        assert_eq!(recovery.timeout_us, 500.0);
        assert_eq!(recovery.backoff_us, 20.0);
        assert_eq!(recovery.breaker_threshold, 2);
        assert_eq!(recovery.probe_cooldown, 0);
        // A malformed plan fails at the command line with the offending
        // event named, and nonsensical recovery knobs are rejected.
        let err = parse(&argv(&[
            "serve",
            "--grid",
            "8x8",
            "--fault-plan",
            "zap:0@1",
        ]))
        .expect_err("unknown fault kind");
        assert!(err.0.contains("invalid --fault-plan"), "{err}");
        assert!(err.0.contains("zap:0@1"), "{err}");
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--retry", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--timeout-us", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--timeout-us", "-5"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--backoff-us", "0"])).is_err());
        assert!(parse(&argv(&[
            "serve",
            "--grid",
            "8x8",
            "--breaker-threshold",
            "0"
        ]))
        .is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--probe-cooldown", "-1"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--fault-plan"])).is_err());
    }

    #[test]
    fn parse_help_and_errors() {
        assert_eq!(parse(&argv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&argv(&["-h"])).unwrap(), Command::Help);
        assert!(parse(&[]).is_err());
        assert!(parse(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn grid_sizes_that_overflow_are_rejected() {
        let err = parse(&argv(&[
            "order",
            "--grid",
            "4294967296x4294967296x4",
            "--mapping",
            "spectral",
        ]))
        .expect_err("2^66 points");
        assert!(err.0.contains("4294967296x4294967296x4"), "{err}");
        assert!(err.0.contains("too many points"), "{err}");
        assert!(parse_dims("4294967296x4294967295").is_ok());
    }

    /// The names and kinds of every `slpm` flag table, by command.
    fn tables() -> Vec<(&'static str, Vec<(&'static str, flags::Kind)>)> {
        fn rows<C>(table: &[Flag<C>]) -> Vec<(&'static str, flags::Kind)> {
            table.iter().map(|&(name, kind, _)| (name, kind)).collect()
        }
        vec![
            ("order", rows(ORDER)),
            ("fiedler", rows(FIEDLER)),
            ("report", rows(REPORT)),
            ("pack", rows(PACK)),
            ("serve", rows(SERVE)),
        ]
    }

    #[test]
    fn every_value_flag_names_itself_when_its_value_is_missing() {
        for (cmd, rows) in tables() {
            for (flag, kind) in rows {
                let parsed = parse(&argv(&[cmd, flag]));
                if kind == flags::Kind::Switch {
                    continue;
                }
                assert_eq!(
                    parsed,
                    Err(ParseError(format!("{flag} requires a value"))),
                    "{cmd} {flag}"
                );
            }
        }
    }

    #[test]
    fn every_table_parses_its_own_examples_and_defaults() {
        for (cmd, rows) in tables() {
            let mut args = vec![cmd.to_string()];
            for (flag, kind) in rows {
                match kind {
                    Required(v) | Preset(v) => args.extend([flag.to_string(), v.to_string()]),
                    Switch => args.push(flag.to_string()),
                    Optional(_) => {}
                }
            }
            assert!(parse(&args).is_ok(), "{args:?}: {:?}", parse(&args));
        }
        assert!(help().contains("[--probe-cooldown 4]"));
    }

    /// Values worth trying after any flag: valid ones of some flag, and junk.
    const TOKENS: &[&str] = &[
        "8x8",
        "3x5x2",
        "4294967296x4294967296x4",
        "0",
        "1",
        "4",
        "-1",
        "18446744073709551616",
        "x",
        "",
        "spectral",
        "z-order",
        "round-robin",
        "bursty",
        "block",
        "dense",
        "kill!:0@2",
        "zap:0@1",
        "flaky:1@0+2",
        "--grid",
        "--bogus",
        "help",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Arbitrary argv drawn from the tables' flag names, their valid
        /// values and junk: parse answers `Ok` or a `ParseError`, never a
        /// panic.
        #[test]
        fn parse_never_panics(
            pick in 0usize..16,
            picks in proptest::collection::vec((0usize..64, 0usize..64, 0usize..10), 0..10),
        ) {
            let tables = tables();
            let names = ["figure", "experiment", "fig5a", "knn"];
            // Half the draws start with every required flag.
            let (cmd, required) = (pick / 2, pick % 2 == 0);
            let (name, rows) = match tables.get(cmd) {
                Some((name, rows)) => (*name, rows.clone()),
                None => (names[cmd - tables.len()], Vec::new()),
            };
            let mut args = vec![name.to_string()];
            if required {
                for (flag, kind) in &rows {
                    if let Required(v) = kind {
                        args.extend([flag.to_string(), v.to_string()]);
                    }
                }
            }
            for (row, token, shape) in picks {
                // Mostly a flag with its own valid value; shapes 7 and 8
                // give it a token instead, and 9 puts a token where a
                // flag belongs.
                let (flag, kind) =
                    rows.get(row % rows.len().max(1)).copied().unwrap_or(("--bogus", Switch));
                let value = match kind {
                    Required(v) | Preset(v) if shape < 7 => v,
                    _ => TOKENS[token % TOKENS.len()],
                };
                match shape {
                    9 => args.push(value.to_string()),
                    _ if kind == Switch => args.push(flag.to_string()),
                    _ => args.extend([flag.to_string(), value.to_string()]),
                }
            }
            if let Ok(parsed) = parse(&args) {
                // An accepted argv is the command it names.
                let debug = format!("{parsed:?}").to_lowercase();
                proptest::prop_assert!(debug.starts_with(name), "{args:?}");
            }
        }
    }

    #[test]
    fn mapping_aliases() {
        assert_eq!(MappingChoice::parse("Morton"), Some(MappingChoice::Peano));
        assert_eq!(MappingChoice::parse("z-order"), Some(MappingChoice::Peano));
        assert_eq!(
            MappingChoice::parse("TRUEPEANO"),
            Some(MappingChoice::TruePeano)
        );
        assert_eq!(MappingChoice::parse("bogus"), None);
        assert_eq!(MappingChoice::Spectral8.to_string(), "spectral8");
    }
}
