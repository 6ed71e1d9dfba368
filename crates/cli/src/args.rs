//! Hand-rolled argument parsing for the `slpm` binary.

use slpm_linalg::FiedlerMethod;
use slpm_serve::arrival::ArrivalShape;
use slpm_serve::engine::KnnPlanner;
use slpm_serve::shard::Partition;
use slpm_serve::stream::AdmissionPolicy;
use std::fmt;

/// A mapping selectable on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    Hilbert,
    /// Spectral LPM, 4-connectivity.
    Spectral,
    /// Spectral LPM, 8-connectivity.
    Spectral8,
}

impl MappingChoice {
    /// Parse a mapping name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "sweep" => MappingChoice::Sweep,
            "snake" => MappingChoice::Snake,
            "peano" | "z" | "zorder" | "z-order" | "morton" => MappingChoice::Peano,
            "truepeano" | "true-peano" | "peano3" => MappingChoice::TruePeano,
            "gray" => MappingChoice::Gray,
            "hilbert" => MappingChoice::Hilbert,
            "spectral" => MappingChoice::Spectral,
            "spectral8" => MappingChoice::Spectral8,
            _ => return None,
        })
    }
}

impl fmt::Display for MappingChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MappingChoice::Sweep => "sweep",
            MappingChoice::Snake => "snake",
            MappingChoice::Peano => "peano",
            MappingChoice::TruePeano => "truepeano",
            MappingChoice::Gray => "gray",
            MappingChoice::Hilbert => "hilbert",
            MappingChoice::Spectral => "spectral",
            MappingChoice::Spectral8 => "spectral8",
        };
        f.write_str(s)
    }
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `slpm order --grid AxBx… --mapping M [--csv] [--threads N]`
    Order {
        /// Grid extents.
        dims: Vec<usize>,
        /// Which mapping.
        mapping: MappingChoice,
        /// Emit CSV instead of a grid/point listing.
        csv: bool,
        /// Eigensolver worker threads (spectral mappings only); `None` =
        /// machine default. Never changes the computed order.
        threads: Option<usize>,
    },
    /// `slpm fiedler --grid AxBx… [--method dense|shift-invert|multilevel]
    /// [--threads N]`
    Fiedler {
        /// Grid extents.
        dims: Vec<usize>,
        /// Eigensolver method; `None` = the size policy
        /// ([`FiedlerMethod::for_size`]).
        method: Option<FiedlerMethod>,
        /// Eigensolver worker threads; `None` = machine default.
        threads: Option<usize>,
    },
    /// `slpm figure <id>` where id ∈ fig1, fig3, fig4, fig5a, fig5b,
    /// fig6a, fig6b.
    Figure {
        /// Figure id.
        id: String,
    },
    /// `slpm experiment <name>` where name ∈ knn, storage, rtree,
    /// decluster, pointcloud, ablations.
    Experiment {
        /// Experiment name.
        name: String,
    },
    /// `slpm report --grid AxB --mapping M` — quality report of an order.
    Report {
        /// Grid extents.
        dims: Vec<usize>,
        /// Which mapping.
        mapping: MappingChoice,
    },
    /// `slpm pack --grid AxB --out FILE [--mapping M] [--page-records N]
    /// [--record-size B]` — write the grid's records to a disk page file
    /// in linear-order sequence, for `slpm serve --page-file`.
    Pack {
        /// Grid extents.
        dims: Vec<usize>,
        /// Which mapping lays out the file (default Hilbert).
        mapping: MappingChoice,
        /// Output path of the page file.
        out: String,
        /// Records per page.
        page_records: usize,
        /// Bytes per record payload.
        record_size: usize,
    },
    /// `slpm serve --grid AxB [--mapping M] [--shards S] [--threads T]
    /// [--queries Q] [--seed N] [--partition contiguous|round-robin]
    /// [--buffer-pages N] [--page-records N] [--inflight B]
    /// [--knn-planner best-first|expanding-ball]
    /// [--page-file FILE] [--readahead N]` — run a mixed range/kNN
    /// workload through the sharded serving engine.
    Serve {
        /// Grid extents.
        dims: Vec<usize>,
        /// Which mapping lays out the store (default Hilbert).
        mapping: MappingChoice,
        /// Number of shards.
        shards: usize,
        /// Worker threads (1 = serial baseline, no pool).
        threads: usize,
        /// Queries in the generated batch.
        queries: usize,
        /// Workload seed.
        seed: u64,
        /// Page → shard placement.
        partition: Partition,
        /// LRU frames per shard.
        buffer_pages: usize,
        /// Records per page.
        page_records: usize,
        /// Concurrently admitted batches the workload is split into
        /// (1 = one batch, the serial-admission baseline).
        inflight: usize,
        /// kNN planning algorithm.
        planner: KnnPlanner,
        /// Streaming mode: serve the workload as an open-loop arrival
        /// stream with admission control and SLO accounting instead of
        /// one closed-loop batch.
        stream: bool,
        /// Streaming: mean arrival rate in queries per second.
        rate: u64,
        /// Streaming: the arrival-process shape.
        arrival: ArrivalShape,
        /// Streaming: micro-batch window in simulated µs.
        batch_delay_us: u64,
        /// Streaming: micro-batch size cap (a full batch dispatches
        /// early).
        max_batch: usize,
        /// Streaming: per-shard bound on queued replay units.
        queue_depth: usize,
        /// Streaming: what happens at the bound (shed or block).
        admission: AdmissionPolicy,
        /// Streaming: SLO latency target in simulated µs.
        slo_us: u64,
        /// Seeded fault plan (validated `FaultPlan` grammar), `None` =
        /// fault-free.
        fault_plan: Option<String>,
        /// Replay attempts per unit (1 = no retry).
        retry: u32,
        /// Per-attempt timeout in simulated µs.
        timeout_us: u64,
        /// Base retry backoff in simulated µs (doubles per attempt).
        backoff_us: u64,
        /// Consecutive doomed units that trip a shard's breaker.
        breaker_threshold: u32,
        /// Units an open breaker fast-fails before probing.
        probe_cooldown: u32,
        /// Serve pages from this disk page file (written by `slpm pack`
        /// under the same grid, mapping and page geometry) instead of
        /// materialising them in memory.
        page_file: Option<String>,
        /// Run-readahead window per demand miss (0 = off; only
        /// meaningful with a buffer pool smaller than the working set).
        readahead: usize,
    },
    /// `slpm help`
    Help,
}

/// Parse failures, with a message suitable for direct printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parse `AxBxC` grid syntax (e.g. `8x8`, `4x4x4x4`).
pub fn parse_dims(s: &str) -> Result<Vec<usize>, ParseError> {
    let dims: Result<Vec<usize>, _> = s.split(['x', 'X']).map(str::parse::<usize>).collect();
    match dims {
        Ok(d) if !d.is_empty() && d.iter().all(|&x| x > 0) => Ok(d),
        _ => Err(ParseError(format!(
            "invalid grid '{s}': expected AxB... with positive extents"
        ))),
    }
}

/// Extract the value following a `--flag`.
fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, ParseError> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| ParseError(format!("{flag} requires a value")))
}

/// Parse a `--threads` value (a positive integer).
fn parse_threads(args: &[String], i: &mut usize) -> Result<usize, ParseError> {
    parse_positive(args, i, "--threads")
}

/// Parse a positive-integer flag value.
fn parse_positive(args: &[String], i: &mut usize, flag: &str) -> Result<usize, ParseError> {
    let v = take_value(args, i, flag)?;
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(ParseError(format!(
            "invalid {flag} '{v}': expected a positive integer"
        ))),
    }
}

/// Parse a non-negative integer flag value (0 is meaningful, e.g. a
/// probe cooldown of zero probes immediately after a trip).
fn parse_nonneg(args: &[String], i: &mut usize, flag: &str) -> Result<u64, ParseError> {
    let v = take_value(args, i, flag)?;
    v.parse::<u64>()
        .map_err(|_| ParseError(format!("invalid {flag} '{v}': expected an integer >= 0")))
}

/// Parse a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let cmd = args
        .first()
        .map(String::as_str)
        .ok_or_else(|| ParseError("no command; try `slpm help`".into()))?;
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "order" => {
            let mut dims = None;
            let mut mapping = None;
            let mut csv = false;
            let mut threads = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--grid" => dims = Some(parse_dims(take_value(args, &mut i, "--grid")?)?),
                    "--mapping" => {
                        let v = take_value(args, &mut i, "--mapping")?;
                        mapping = Some(MappingChoice::parse(v).ok_or_else(|| {
                            ParseError(format!(
                                "unknown mapping '{v}' (try sweep, snake, peano, truepeano, \
                                 gray, hilbert, spectral, spectral8)"
                            ))
                        })?);
                    }
                    "--csv" => csv = true,
                    "--threads" => threads = Some(parse_threads(args, &mut i)?),
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
                i += 1;
            }
            Ok(Command::Order {
                dims: dims.ok_or_else(|| ParseError("order requires --grid".into()))?,
                mapping: mapping.ok_or_else(|| ParseError("order requires --mapping".into()))?,
                csv,
                threads,
            })
        }
        "fiedler" => {
            let mut dims = None;
            let mut method = None;
            let mut threads = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--grid" => dims = Some(parse_dims(take_value(args, &mut i, "--grid")?)?),
                    "--method" => {
                        let v = take_value(args, &mut i, "--method")?;
                        method = Some(FiedlerMethod::parse(v).ok_or_else(|| {
                            ParseError(format!(
                                "unknown method '{v}' (dense, shift-invert, multilevel)"
                            ))
                        })?);
                    }
                    "--threads" => threads = Some(parse_threads(args, &mut i)?),
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
                i += 1;
            }
            Ok(Command::Fiedler {
                dims: dims.ok_or_else(|| ParseError("fiedler requires --grid".into()))?,
                method,
                threads,
            })
        }
        "figure" => {
            let id = args
                .get(1)
                .ok_or_else(|| ParseError("figure requires an id (fig1..fig6b)".into()))?;
            let known = ["fig1", "fig3", "fig4", "fig5a", "fig5b", "fig6a", "fig6b"];
            if !known.contains(&id.as_str()) {
                return Err(ParseError(format!(
                    "unknown figure '{id}' (known: {})",
                    known.join(", ")
                )));
            }
            Ok(Command::Figure { id: id.clone() })
        }
        "experiment" => {
            let name = args
                .get(1)
                .ok_or_else(|| ParseError("experiment requires a name".into()))?;
            let known = [
                "knn",
                "storage",
                "rtree",
                "decluster",
                "pointcloud",
                "ablations",
            ];
            if !known.contains(&name.as_str()) {
                return Err(ParseError(format!(
                    "unknown experiment '{name}' (known: {})",
                    known.join(", ")
                )));
            }
            Ok(Command::Experiment { name: name.clone() })
        }
        "pack" => {
            let mut dims = None;
            let mut mapping = MappingChoice::Hilbert;
            let mut out = None;
            let mut page_records = 64usize;
            let mut record_size = 64usize;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--grid" => dims = Some(parse_dims(take_value(args, &mut i, "--grid")?)?),
                    "--mapping" => {
                        let v = take_value(args, &mut i, "--mapping")?;
                        mapping = MappingChoice::parse(v)
                            .ok_or_else(|| ParseError(format!("unknown mapping '{v}'")))?;
                    }
                    "--out" => out = Some(take_value(args, &mut i, "--out")?.to_string()),
                    "--page-records" => {
                        page_records = parse_positive(args, &mut i, "--page-records")?
                    }
                    "--record-size" => record_size = parse_positive(args, &mut i, "--record-size")?,
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
                i += 1;
            }
            Ok(Command::Pack {
                dims: dims.ok_or_else(|| ParseError("pack requires --grid".into()))?,
                mapping,
                out: out.ok_or_else(|| ParseError("pack requires --out".into()))?,
                page_records,
                record_size,
            })
        }
        "serve" => {
            let mut dims = None;
            let mut mapping = MappingChoice::Hilbert;
            let mut shards = 2usize;
            let mut threads = 1usize;
            let mut queries = 1000usize;
            let mut seed = 42u64;
            let mut partition = Partition::Contiguous;
            let mut buffer_pages = 64usize;
            let mut page_records = 64usize;
            let mut inflight = 1usize;
            let mut planner = KnnPlanner::BestFirst;
            let mut stream = false;
            let mut rate = 20_000u64;
            let mut arrival = ArrivalShape::Poisson;
            let mut batch_delay_us = 200u64;
            let mut max_batch = 32usize;
            let mut queue_depth = 64usize;
            let mut admission = AdmissionPolicy::Shed;
            let mut slo_us = 2_000u64;
            let mut fault_plan = None;
            let mut retry = 3u32;
            let mut timeout_us = 10_000u64;
            let mut backoff_us = 100u64;
            let mut breaker_threshold = 3u32;
            let mut probe_cooldown = 4u32;
            let mut page_file = None;
            let mut readahead = 0usize;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--grid" => dims = Some(parse_dims(take_value(args, &mut i, "--grid")?)?),
                    "--mapping" => {
                        let v = take_value(args, &mut i, "--mapping")?;
                        mapping = MappingChoice::parse(v)
                            .ok_or_else(|| ParseError(format!("unknown mapping '{v}'")))?;
                    }
                    "--shards" => shards = parse_positive(args, &mut i, "--shards")?,
                    "--threads" => threads = parse_threads(args, &mut i)?,
                    "--queries" => queries = parse_positive(args, &mut i, "--queries")?,
                    "--seed" => {
                        let v = take_value(args, &mut i, "--seed")?;
                        seed = v.parse::<u64>().map_err(|_| {
                            ParseError(format!("invalid --seed '{v}': expected an integer"))
                        })?;
                    }
                    "--partition" => {
                        let v = take_value(args, &mut i, "--partition")?;
                        partition = Partition::parse(v).ok_or_else(|| {
                            ParseError(format!("unknown partition '{v}' (contiguous, round-robin)"))
                        })?;
                    }
                    "--buffer-pages" => {
                        buffer_pages = parse_positive(args, &mut i, "--buffer-pages")?
                    }
                    "--page-records" => {
                        page_records = parse_positive(args, &mut i, "--page-records")?
                    }
                    "--inflight" => inflight = parse_positive(args, &mut i, "--inflight")?,
                    "--knn-planner" => {
                        let v = take_value(args, &mut i, "--knn-planner")?;
                        planner = KnnPlanner::parse(v).ok_or_else(|| {
                            ParseError(format!(
                                "unknown kNN planner '{v}' (best-first, expanding-ball)"
                            ))
                        })?;
                    }
                    "--stream" => stream = true,
                    "--rate" => rate = parse_positive(args, &mut i, "--rate")? as u64,
                    "--arrival" => {
                        let v = take_value(args, &mut i, "--arrival")?;
                        arrival = ArrivalShape::parse(v).ok_or_else(|| {
                            ParseError(format!(
                                "unknown arrival shape '{v}' (deterministic, poisson, \
                                 bursty, diurnal)"
                            ))
                        })?;
                    }
                    "--batch-delay-us" => {
                        let v = take_value(args, &mut i, "--batch-delay-us")?;
                        batch_delay_us = v.parse::<u64>().map_err(|_| {
                            ParseError(format!(
                                "invalid --batch-delay-us '{v}': expected an integer"
                            ))
                        })?;
                    }
                    "--max-batch" => max_batch = parse_positive(args, &mut i, "--max-batch")?,
                    "--queue-depth" => queue_depth = parse_positive(args, &mut i, "--queue-depth")?,
                    "--admission" => {
                        let v = take_value(args, &mut i, "--admission")?;
                        admission = AdmissionPolicy::parse(v).ok_or_else(|| {
                            ParseError(format!("unknown admission policy '{v}' (shed, block)"))
                        })?;
                    }
                    "--slo-us" => slo_us = parse_positive(args, &mut i, "--slo-us")? as u64,
                    "--fault-plan" => {
                        let v = take_value(args, &mut i, "--fault-plan")?;
                        // Validate the grammar up front so a typo fails
                        // at the command line, not mid-run.
                        slpm_serve::FaultPlan::parse(v)
                            .map_err(|e| ParseError(format!("invalid --fault-plan: {e}")))?;
                        fault_plan = Some(v.to_string());
                    }
                    "--retry" => retry = parse_positive(args, &mut i, "--retry")? as u32,
                    "--timeout-us" => {
                        timeout_us = parse_positive(args, &mut i, "--timeout-us")? as u64
                    }
                    "--backoff-us" => {
                        backoff_us = parse_positive(args, &mut i, "--backoff-us")? as u64
                    }
                    "--breaker-threshold" => {
                        breaker_threshold =
                            parse_positive(args, &mut i, "--breaker-threshold")? as u32
                    }
                    "--probe-cooldown" => {
                        probe_cooldown = parse_nonneg(args, &mut i, "--probe-cooldown")? as u32
                    }
                    "--page-file" => {
                        page_file = Some(take_value(args, &mut i, "--page-file")?.to_string())
                    }
                    "--readahead" => {
                        readahead = parse_nonneg(args, &mut i, "--readahead")? as usize
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
                i += 1;
            }
            Ok(Command::Serve {
                dims: dims.ok_or_else(|| ParseError("serve requires --grid".into()))?,
                mapping,
                shards,
                threads,
                queries,
                seed,
                partition,
                buffer_pages,
                page_records,
                inflight,
                planner,
                stream,
                rate,
                arrival,
                batch_delay_us,
                max_batch,
                queue_depth,
                admission,
                slo_us,
                fault_plan,
                retry,
                timeout_us,
                backoff_us,
                breaker_threshold,
                probe_cooldown,
                page_file,
                readahead,
            })
        }
        "report" => {
            let mut dims = None;
            let mut mapping = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--grid" => dims = Some(parse_dims(take_value(args, &mut i, "--grid")?)?),
                    "--mapping" => {
                        let v = take_value(args, &mut i, "--mapping")?;
                        mapping = Some(
                            MappingChoice::parse(v)
                                .ok_or_else(|| ParseError(format!("unknown mapping '{v}'")))?,
                        );
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
                i += 1;
            }
            Ok(Command::Report {
                dims: dims.ok_or_else(|| ParseError("report requires --grid".into()))?,
                mapping: mapping.ok_or_else(|| ParseError("report requires --mapping".into()))?,
            })
        }
        other => Err(ParseError(format!(
            "unknown command '{other}'; try `slpm help`"
        ))),
    }
}

/// The help text.
pub const HELP: &str = "\
slpm — Spectral LPM reproduction CLI

USAGE:
  slpm order   --grid 8x8 --mapping spectral [--csv] [--threads N]
  slpm fiedler --grid 8x8 [--method dense|shift-invert|multilevel] [--threads N]
  slpm figure  <fig1|fig3|fig4|fig5a|fig5b|fig6a|fig6b>
  slpm experiment <knn|storage|rtree|decluster|pointcloud|ablations>
  slpm report  --grid 8x8 --mapping hilbert
  slpm pack    --grid 256x256 --out pages.slpm [--mapping hilbert]
               [--page-records 64] [--record-size 64]
  slpm serve   --grid 256x256 [--mapping hilbert] [--shards 2] [--threads 1]
               [--queries 1000] [--seed 42] [--partition contiguous|round-robin]
               [--buffer-pages 64] [--page-records 64] [--inflight 1]
               [--knn-planner best-first|expanding-ball]
               [--page-file pages.slpm] [--readahead 0]
               [--stream] [--rate 20000]
               [--arrival deterministic|poisson|bursty|diurnal]
               [--batch-delay-us 200] [--max-batch 32] [--queue-depth 64]
               [--admission shed|block] [--slo-us 2000]
               [--fault-plan SPEC] [--retry 3] [--timeout-us 10000]
               [--backoff-us 100] [--breaker-threshold 3] [--probe-cooldown 4]
  slpm help

Mappings: sweep, snake, peano (Z-order), truepeano, gray, hilbert,
          spectral (4-connectivity), spectral8 (8-connectivity).
Grids for the recursive curves need power-of-two sides (truepeano: powers
of three); sweep/snake/spectral accept any extents.
Spectral mappings pick their eigensolver automatically by grid size (dense
-> shift-invert Lanczos -> multilevel); `slpm fiedler --method` overrides.
--threads N pins the eigensolver's worker threads (default: the machine's
available parallelism, or the SLPM_THREADS env var); results are bitwise
identical for every thread count.
`slpm serve` replays a seeded mixed range/kNN workload through the sharded
serving engine (order -> pages -> shards -> worker pool); result sets, page
counts and the printed digest are bitwise identical for every --shards,
--threads, --inflight and --knn-planner combination. --inflight B splits
the workload into B concurrently admitted batches (per-shard FIFO queues,
round-robin fairness); --knn-planner picks best-first branch-and-bound
(default) or the expanding-ball baseline.
`slpm pack` writes the grid's records to a checksummed disk page file laid
out in linear-order sequence; `slpm serve --page-file` then serves the
same workload out-of-core, faulting pages through each shard's buffer
pool — results, page accounting and the digest stay bitwise identical to
the in-memory engine. --readahead N prefetches up to N next pages of the
current monotone page run on each demand miss (one seek per run), which
pays off when --buffer-pages is smaller than the working set.
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
            Command::Order {
                dims: vec![8, 8],
                mapping: MappingChoice::Hilbert,
                csv: false,
                threads: None
            }
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
        assert!(matches!(c, Command::Order { csv: true, .. }));
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
            Command::Fiedler {
                dims: vec![4, 4],
                method: None,
                threads: None
            }
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
        for m in ["multilevel", "dense", "shift-invert"] {
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
            Command::Fiedler {
                dims: vec![4, 4],
                method: Some(FiedlerMethod::Multilevel),
                threads: Some(4)
            }
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
            Command::Order {
                threads: Some(2),
                ..
            }
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
            Command::Figure { id: "fig5a".into() }
        );
        assert!(parse(&argv(&["figure", "fig9"])).is_err());
        assert_eq!(
            parse(&argv(&["experiment", "knn"])).unwrap(),
            Command::Experiment { name: "knn".into() }
        );
        assert!(parse(&argv(&["experiment", "nope"])).is_err());
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        let c = parse(&argv(&["serve", "--grid", "64x64"])).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                dims: vec![64, 64],
                mapping: MappingChoice::Hilbert,
                shards: 2,
                threads: 1,
                queries: 1000,
                seed: 42,
                partition: Partition::Contiguous,
                buffer_pages: 64,
                page_records: 64,
                inflight: 1,
                planner: KnnPlanner::BestFirst,
                stream: false,
                rate: 20_000,
                arrival: ArrivalShape::Poisson,
                batch_delay_us: 200,
                max_batch: 32,
                queue_depth: 64,
                admission: AdmissionPolicy::Shed,
                slo_us: 2_000,
                fault_plan: None,
                retry: 3,
                timeout_us: 10_000,
                backoff_us: 100,
                breaker_threshold: 3,
                probe_cooldown: 4,
                page_file: None,
                readahead: 0,
            }
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
            "--knn-planner",
            "expanding-ball",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                dims: vec![32, 32],
                mapping: MappingChoice::Snake,
                shards: 4,
                threads: 4,
                queries: 200,
                seed: 7,
                partition: Partition::RoundRobin,
                buffer_pages: 16,
                page_records: 32,
                inflight: 4,
                planner: KnnPlanner::ExpandingBall,
                stream: false,
                rate: 20_000,
                arrival: ArrivalShape::Poisson,
                batch_delay_us: 200,
                max_batch: 32,
                queue_depth: 64,
                admission: AdmissionPolicy::Shed,
                slo_us: 2_000,
                fault_plan: None,
                retry: 3,
                timeout_us: 10_000,
                backoff_us: 100,
                breaker_threshold: 3,
                probe_cooldown: 4,
                page_file: None,
                readahead: 0,
            }
        );
        // Missing grid, bad values, bad partition, bad planner/inflight.
        assert!(parse(&argv(&["serve"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--shards", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--queries", "none"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--partition", "hashed"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--seed", "x"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--inflight", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--grid", "8x8", "--knn-planner", "astar"])).is_err());
    }

    #[test]
    fn parse_pack_and_serve_page_file_flags() {
        let c = parse(&argv(&["pack", "--grid", "16x16", "--out", "f.pages"])).unwrap();
        assert_eq!(
            c,
            Command::Pack {
                dims: vec![16, 16],
                mapping: MappingChoice::Hilbert,
                out: "f.pages".into(),
                page_records: 64,
                record_size: 64,
            }
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
            Command::Pack {
                dims: vec![8, 8],
                mapping: MappingChoice::Snake,
                out: "g.pages".into(),
                page_records: 16,
                record_size: 32,
            }
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
        match c {
            Command::Serve {
                page_file,
                readahead,
                ..
            } => {
                assert_eq!(page_file.as_deref(), Some("f.pages"));
                assert_eq!(readahead, 4);
            }
            other => panic!("expected serve, got {other:?}"),
        }
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
        match c {
            Command::Serve {
                stream,
                rate,
                arrival,
                batch_delay_us,
                max_batch,
                queue_depth,
                admission,
                slo_us,
                ..
            } => {
                assert!(stream);
                assert_eq!(rate, 50_000);
                assert_eq!(arrival, ArrivalShape::Bursty);
                assert_eq!(batch_delay_us, 100);
                assert_eq!(max_batch, 16);
                assert_eq!(queue_depth, 8);
                assert_eq!(admission, AdmissionPolicy::Block);
                assert_eq!(slo_us, 1_500);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
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
        match c {
            Command::Serve {
                fault_plan,
                retry,
                timeout_us,
                backoff_us,
                breaker_threshold,
                probe_cooldown,
                ..
            } => {
                assert_eq!(fault_plan.as_deref(), Some("kill!:0@2,flaky:1@0+2"));
                assert_eq!(retry, 5);
                assert_eq!(timeout_us, 500);
                assert_eq!(backoff_us, 20);
                assert_eq!(breaker_threshold, 2);
                assert_eq!(probe_cooldown, 0);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
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
