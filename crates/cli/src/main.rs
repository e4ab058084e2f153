//! `tempi-cli` — a command-line playground for the TEMPI reproduction.
//!
//! ```text
//! tempi-cli describe "<spec>"                  inspect a datatype end to end
//! tempi-cli pack "<spec>" [--incount N] [--platform mv|op|sp] [--unpack]
//!                                              virtual pack (or unpack) time,
//!                                              TEMPI vs system
//! tempi-cli commit "<spec>" [--platform mv|op|sp]
//!                                              Fig. 6-style create/commit breakdown
//! tempi-cli model <bytes> <block> [--word W] [--chunk C]
//!                                              evaluate the §5 method models
//! tempi-cli send "<spec>" [--incount N] [--method device|oneshot|staged|pipelined]
//!                [--tuner off|model|online]
//!                [--rounds R]
//!                [--faults "<plan>"]           2-rank send/recv, optionally
//!                [--trace out.json]            under a deterministic fault
//!                                              plan; prints the method, the
//!                                              tuner counters, the
//!                                              degradation log and fault
//!                                              statistics
//! tempi-cli stencil [--ranks P] [--n N] [--iters I]
//!                [--faults "<plan>"] [--recover]
//!                [--checkpoint-every N]
//!                [--trace out.json]
//!                                              multi-rank halo exchange;
//!                                              with --recover, every
//!                                              iteration ends in one
//!                                              agreement, and survivors
//!                                              shrink around killed ranks
//!                                              and rebuild the dead
//!                                              subdomains from the last
//!                                              committed checkpoint
//!                                              generation (or restart from
//!                                              the initial condition when
//!                                              none committed)
//! tempi-cli chaos [--seed S] [--iters N] [--shrink] [--out DIR]
//!                                              seeded chaos campaign:
//!                                              random workload × fault
//!                                              scenarios judged by the
//!                                              invariant oracles; with
//!                                              --shrink, failures are
//!                                              delta-debugged to minimal
//!                                              reproducers and dumped
//!                                              (scenario + Chrome trace)
//!                                              under --out
//! tempi-cli chaos --replay DIR                 replay every corpus entry
//!                                              under DIR and verify its
//!                                              recorded expectation
//! tempi-cli spec-help                          the spec mini-language
//! ```
//!
//! `--trace out.json` records every rank's spans in virtual time and
//! writes a Chrome `trace_event` file (open in `chrome://tracing` or
//! Perfetto). `TEMPI_TRACE=off|spans|full` overrides the recording level;
//! `TEMPI_TRACE_FILE=metrics.jsonl` additionally dumps the metrics
//! registry as JSONL.
//!
//! Spec examples: `vector(13, 100, 256, byte)`,
//! `subarray([1024,512,256],[47,13,100],[0,0,0],byte)`.

use gpu_sim::PackDir;
use mpi_sim::datatype::{pack_cpu, TypeTree};
use mpi_sim::{FaultPlan, MpiError, RankCtx, World, WorldConfig};
use tempi_bench::{fmt_bytes, fmt_speedup, Cell, Platform, Side};
use tempi_core::config::{Method, TempiConfig, TunerMode};
use tempi_core::interpose::InterposedMpi;
use tempi_core::ir::strided_block::strided_block;
use tempi_core::ir::transform::simplify;
use tempi_core::ir::translate::{translate, Translated};
use tempi_core::model::SendModel;
use tempi_core::tempi::{PlanKind, Tempi};
use tempi_core::{TraceLevel, Tracer};
use tempi_stencil::{CheckpointStore, Decomp, HaloConfig, HaloExchanger};

/// `println!` for what the subcommands print: once standard output is
/// closed (`tempi-cli describe … | head -1`), the process ends quietly
/// with exit 0 where `println!` would panic.
macro_rules! out {
    ($($arg:tt)*) => {
        print_line(format_args!($($arg)*))
    };
}

fn print_line(line: std::fmt::Arguments) {
    use std::io::{ErrorKind, Write};
    match writeln!(std::io::stdout(), "{line}") {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        printed => printed.expect("failed printing to stdout"),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  tempi-cli describe \"<spec>\"\n  tempi-cli pack \"<spec>\" [--incount N] [--platform mv|op|sp] [--unpack]\n  tempi-cli commit \"<spec>\" [--platform mv|op|sp]\n  tempi-cli model <bytes> <block> [--word W] [--chunk C]\n  tempi-cli send \"<spec>\" [--incount N] [--method device|oneshot|staged|pipelined] [--tuner off|model|online] [--rounds R] [--faults \"<plan>\"] [--trace out.json]\n  tempi-cli stencil [--ranks P] [--n N] [--iters I] [--faults \"<plan>\"] [--recover] [--checkpoint-every N] [--trace out.json]\n  tempi-cli chaos [--seed S] [--iters N] [--shrink] [--out DIR] | --replay DIR\n  tempi-cli spec-help\n\nfault plan: comma-separated clauses, e.g.\n  \"seed=42,kernel=1.0,send=0.05,corrupt=0.1,delay=0.2:20us,exit=1@5ms,retries=4,backoff=10us\""
    );
    std::process::exit(2);
}

/// Malformed user input: print what is wrong and exit 2. User input must
/// never panic the CLI.
fn bad_usage(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parse a `--faults` plan: a malformed spec becomes an error message
/// naming the offending clause (the library error already quotes it).
fn parse_faults(spec: &str) -> Result<FaultPlan, String> {
    FaultPlan::parse(spec).map_err(|e| format!("invalid --faults plan: {e}"))
}

/// The `--faults` plan, if given, installed on `cfg`.
fn with_faults_arg(cfg: WorldConfig, args: &[String]) -> WorldConfig {
    match flag_value(args, "--faults") {
        Some(spec) => cfg.with_faults(parse_faults(&spec).unwrap_or_else(|e| bad_usage(e))),
        None => cfg,
    }
}

fn platform_arg(args: &[String]) -> Platform {
    match flag_value(args, "--platform").as_deref() {
        Some("mv") => Platform::Mvapich,
        Some("op") => Platform::OpenMpi,
        Some("sp") | None => Platform::Summit,
        Some(other) => {
            eprintln!("unknown platform `{other}` (use mv, op or sp)");
            std::process::exit(2);
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parse an integer-valued flag: a malformed value exits with a message
/// naming the flag and what it got.
fn int_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| bad_usage(format!("{flag} takes an integer, got `{v}`"))),
    }
}

/// Parse a flag spelled as the `TEMPI_*` variable of the same setting is
/// (the type's `FromStr` is the one spelling table); `None` when absent.
fn named_flag<T: std::str::FromStr<Err = String>>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, String> {
    flag_value(args, flag)
        .map(|v| v.parse().map_err(|e| format!("{flag}: {e}")))
        .transpose()
}

/// Parse a `<spec>` argument: a malformed spec exits 2 with the parser's
/// message, which says what is wrong and where.
fn spec_arg(input: &str) -> TypeTree {
    input.parse().unwrap_or_else(|e| bad_usage(e))
}

/// Terminal error path for library failures with no user-facing recovery:
/// print what failed and exit instead of panicking.
fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {e}");
    std::process::exit(1);
}

/// Build the tracer a subcommand attaches to its virtual world.
///
/// `--trace FILE` turns recording on (at `full` unless `TEMPI_TRACE`
/// names another level) and returns the Chrome-trace output path.
/// Without `--trace`, setting `TEMPI_TRACE=spans|full` alone also
/// records — useful with `TEMPI_TRACE_FILE` for a metrics-only dump.
fn trace_setup(args: &[String]) -> (Tracer, Option<String>) {
    let path = flag_value(args, "--trace");
    // the parser's message already names the variable
    let env_level = std::env::var("TEMPI_TRACE")
        .ok()
        .map(|v| TraceLevel::parse(&v).unwrap_or_else(|e| bad_usage(e)));
    let level = match (env_level, &path) {
        (Some(level), _) => level,
        (None, Some(_)) => TraceLevel::Full,
        (None, None) => TraceLevel::Off,
    };
    (Tracer::new(level), path)
}

/// After a traced run: write the Chrome trace where `--trace` asked for
/// it, and the metrics JSONL wherever `TEMPI_TRACE_FILE` points.
fn trace_export(tracer: &Tracer, path: Option<&String>) {
    if let Some(p) = path {
        match tracer.write_chrome_trace(p) {
            Ok(()) => out!(
                "trace         : {} events -> {p} (open in chrome://tracing)",
                tracer.event_count()
            ),
            Err(e) => fail(&format!("writing trace file `{p}`"), e),
        }
    }
    if let Ok(mp) = std::env::var("TEMPI_TRACE_FILE") {
        if tracer.enabled() {
            match tracer.write_metrics_jsonl(&mp) {
                Ok(()) => out!("metrics       : -> {mp}"),
                Err(e) => fail(&format!("writing metrics file `{mp}`"), e),
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "describe" => describe(&args[1..]),
        "pack" => pack(&args[1..]),
        "commit" => commit(&args[1..]),
        "model" => model(&args[1..]),
        "send" => send(&args[1..]),
        "stencil" => stencil(&args[1..]),
        "chaos" => chaos(&args[1..]),
        "spec-help" => {
            out!("{}", SPEC_HELP);
        }
        _ => usage(),
    }
}

const SPEC_HELP: &str = r#"type spec mini-language (C storage order, dim 0 slowest):

  byte | char | short | int | long | float | double
  unsigned_char | unsigned_short | unsigned | unsigned_long | long_long
  contiguous(COUNT, spec)
  vector(COUNT, BLOCKLEN, STRIDE, spec)            stride in elements
  hvector(COUNT, BLOCKLEN, STRIDE_BYTES, spec)
  subarray([SIZES], [SUBSIZES], [STARTS], spec)
  subarray_fortran([SIZES], [SUBSIZES], [STARTS], spec)   dim 0 fastest
  indexed([BLOCKLENS], [DISPLS], spec)             displs in elements
  indexed_block(BLOCKLEN, [DISPLS], spec)
  hindexed([BLOCKLENS], [DISPLS_BYTES], spec)
  struct([BLOCKLENS], [DISPLS_BYTES], [spec, ...])
  resized(LB, EXTENT, spec)
  dup(spec)

examples:
  vector(13, 100, 256, byte)                        the paper's 2-D plane
  subarray([1024,512,256],[47,13,100],[0,0,0],byte) the paper's 3-D box
  hvector(47, 1, 131072, hvector(13, 1, 256, contiguous(100, byte)))"#;

fn describe(args: &[String]) {
    let Some(input) = args.first() else { usage() };
    let mut ctx = RankCtx::standalone(&WorldConfig::summit(1));
    let tree = spec_arg(input);
    let dt = match tree.build(&mut ctx) {
        Ok(dt) => dt,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let attrs = ctx
        .attrs(dt)
        .unwrap_or_else(|e| fail("datatype attributes", e));
    out!("construction : {}", ctx.describe(dt));
    out!(
        "size         : {} bytes   extent: {} bytes   true extent: {} bytes (lb {})",
        attrs.size,
        attrs.extent(),
        attrs.true_extent(),
        attrs.true_lb
    );
    let registry = ctx.registry().clone();
    let translated = {
        let mut reg = registry.write();
        translate(&mut *reg, dt).unwrap_or_else(|e| fail("IR translation", e))
    };
    match translated {
        Translated::Strided(tree) => {
            out!("\ntranslated IR ({} nodes):\n{tree}", tree.node_count());
            let (canon, passes) = simplify(tree);
            out!(
                "canonical after {passes} pass(es) ({} nodes):\n{canon}",
                canon.node_count()
            );
            if let Some(sb) = strided_block(&canon) {
                out!(
                    "StridedBlock : start={} counts={:?} strides={:?}",
                    sb.start,
                    sb.counts,
                    sb.strides
                );
            }
        }
        Translated::Blocks(bl) => {
            out!(
                "\nblock list ({} blocks, largest {} B):",
                bl.blocks.len(),
                bl.max_block()
            );
            for (off, len) in bl.blocks.iter().take(16) {
                out!("  {off:>8} +{len}");
            }
            if bl.blocks.len() > 16 {
                out!("  ... {} more", bl.blocks.len() - 16);
            }
        }
        Translated::Multi(members) => {
            out!("\nmember list ({} strided members)", members.len())
        }
        Translated::Empty => out!("\n(empty type: no bytes)"),
        Translated::Unsupported(c) => {
            out!("\nnot accelerated (combiner {c:?}): falls through to the system MPI")
        }
    }
    // committed plan
    let mut tempi = Tempi::default();
    let plan = tempi
        .type_commit(&mut ctx, dt)
        .unwrap_or_else(|e| fail("type commit", e));
    match &plan.kind {
        PlanKind::Strided(kp) => out!(
            "\nkernel plan  : {:?}, word W={}, block dims {}, grid(x1)={}",
            kp.kind,
            kp.word,
            kp.block,
            kp.grid_for(1)
        ),
        PlanKind::Multi(members) => {
            out!("\nkernel plan  : {} members in one launch", members.len());
            for (i, m) in members.iter().enumerate() {
                let n = m.ndims as usize;
                out!(
                    "  {i:>2}: start={} counts={:?} strides={:?} W={}",
                    m.start,
                    &m.counts[..n],
                    &m.strides[..n],
                    m.word
                );
            }
            let pack =
                Cell::of(Platform::Summit, tree, 1).and_then(|cell| cell.pack(&Side::tempi()));
            out!(
                "modelled pack: {}",
                pack.unwrap_or_else(|e| fail("pack model", e))
            );
        }
        other => out!("\nkernel plan  : {other:?}"),
    }
    out!(
        "commit       : {} introspection calls, {} -> {} IR nodes, {} virtual time",
        plan.report.introspection_calls,
        plan.report.nodes_before,
        plan.report.nodes_after,
        plan.report.commit_time
    );
}

fn pack(args: &[String]) {
    let Some(input) = args.first() else { usage() };
    let tree = spec_arg(input);
    let platform = platform_arg(args);
    let incount: usize = int_flag(args, "--incount", 1);
    let cell = Cell::of(platform, tree, incount).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let unpack = args.iter().any(|a| a == "--unpack");
    let measure = |side: Side| {
        if unpack {
            cell.unpack(&side)
        } else {
            cell.pack(&side)
        }
        .unwrap_or_else(|e| fail("measurement", e))
    };
    let t = measure(Side::tempi());
    let s = measure(Side::System);
    let what = if unpack { "unpack" } else { "pack" };
    out!("platform      : {}", platform.label());
    out!("TEMPI {what}  : {t}");
    out!("system {what} : {s}");
    out!(
        "speedup       : {}",
        fmt_speedup(s.as_ns_f64() / t.as_ns_f64())
    );
}

fn commit(args: &[String]) {
    let Some(input) = args.first() else { usage() };
    let tree = spec_arg(input);
    let platform = platform_arg(args);
    let b = Cell::of(platform, tree, 1)
        .and_then(|cell| cell.commit())
        .unwrap_or_else(|e| fail("commit breakdown", e));
    out!("platform       : {}", platform.label());
    out!("create         : {}", b.create);
    out!("commit (system): {}", b.commit_system);
    out!("commit (TEMPI) : {}", b.commit_tempi);
    out!(
        "slowdown       : {:.1}x over {} introspection calls",
        b.slowdown(),
        b.introspection_calls
    );
}

fn model(args: &[String]) {
    let (Some(bytes), Some(block)) = (args.first(), args.get(1)) else {
        usage()
    };
    let parse_size = |name: &str, v: &str| -> usize {
        v.parse()
            .unwrap_or_else(|_| bad_usage(format!("{name} must be an integer, got `{v}`")))
    };
    let bytes = parse_size("bytes", bytes);
    let block = parse_size("block", block);
    let word: usize = int_flag(args, "--word", 4);
    let m = SendModel::summit_internode();
    out!("object {bytes} B, contiguous blocks {block} B, word W={word}\n");
    for (name, b) in [
        ("device  ", m.t_device(bytes, block, word)),
        ("one-shot", m.t_oneshot(bytes, block, word)),
        ("staged  ", m.t_staged(bytes, block, word)),
    ] {
        out!(
            "{name}: pack {:>12} + transfer {:>12} + unpack {:>12} = {}",
            format!("{}", b.pack),
            format!("{}", b.transfer),
            format!("{}", b.unpack),
            b.total()
        );
    }
    // the pipeline at the given chunk size, else at the model's best one
    let chunk = match flag_value(args, "--chunk") {
        Some(_) => Some(int_flag(args, "--chunk", 0)),
        None => {
            m.choose_among(&[Method::Pipelined], bytes, block, word, &|_| 1.0)
                .chunk
        }
    };
    if let Some(chunk) = chunk {
        out!(
            "pipelined({} B chunks): {}",
            chunk,
            m.t_pipelined(bytes, block, word, chunk)
        );
    }
    // an object of equal runs may also ship them as they lie
    let runs = block > 0 && bytes % block == 0 && bytes / block >= 2;
    if runs {
        let n = bytes / block;
        out!(
            "run cut ({n} parts of {block} B, no pack): {}",
            m.t_cut(bytes, block)
        );
    }
    let choice = m.choose_among_runs(&Method::LADDER, runs, bytes, block, word, &|_| 1.0);
    match (choice.method, choice.chunk) {
        (Method::Device, Some(run)) => out!("\nmodel choice: {}", cut_label(bytes, run)),
        (method, Some(chunk)) => out!("\nmodel choice: {method:?} ({chunk} B chunks)"),
        (method, None) => out!("\nmodel choice: {method:?}"),
    }
    // a tiny visual of the pack-direction cost curve
    out!("\npack-kernel time vs block size (device target, this object size):");
    for b in [4usize, 16, 64, 256, 1024, 4096] {
        let t = m.t_pack(PackDir::Pack, gpu_sim::PackTarget::Device, bytes, b, word);
        let bar = "#".repeat(((t.as_us_f64().log10().max(0.0)) * 12.0) as usize);
        out!("  {b:>5} B  {t:>12}  {bar}");
    }
}

/// The run cut of a `bytes`-byte object into runs of `run` bytes, as the
/// `model` and `send` subcommands name it.
fn cut_label(bytes: usize, run: usize) -> String {
    format!(
        "Device, cut at its {} runs of {run} B (no pack)",
        bytes / run
    )
}

/// Deterministic fill for the `send` subcommand's source buffer.
fn fill(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
        .collect()
}

fn send(args: &[String]) {
    let Some(input) = args.first() else { usage() };
    let tree = spec_arg(input);
    let incount: usize = int_flag(args, "--incount", 1);
    let method: Option<Method> = named_flag(args, "--method").unwrap_or_else(|e| bad_usage(e));
    let tuner: TunerMode = named_flag(args, "--tuner")
        .unwrap_or_else(|e| bad_usage(e))
        .unwrap_or_default();
    let rounds: usize = int_flag(args, "--rounds", 1).max(1);
    let mut cfg = WorldConfig::summit(2);
    cfg.net.ranks_per_node = 1;
    cfg = with_faults_arg(cfg, args);
    let (tracer, trace_path) = trace_setup(args);
    cfg = cfg.with_tracer(tracer.clone());
    let results = World::run(&cfg, |ctx| {
        let mut mpi = InterposedMpi::new(TempiConfig {
            force_method: method,
            tuner,
            ..TempiConfig::default()
        });
        let dt = tree.build(ctx)?;
        mpi.type_commit(ctx, dt)?;
        let a = ctx.attrs(dt)?;
        let span =
            (a.true_ub.max(a.ub) + (incount as i64 - 1) * a.extent().max(0)).max(1) as usize + 64;
        let packed_len = a.size as usize * incount;
        let buf = ctx.gpu.malloc(span)?;
        let mut label = "recv".to_string();
        let mut ok = true;
        for round in 0..rounds {
            if ctx.rank == 0 {
                ctx.gpu.memory().poke(buf, &fill(span))?;
                let m = mpi.send(ctx, buf, incount, dt, 1, round as i32)?;
                label = m.map_or("system fall-through".to_string(), |m| format!("{m:?}"));
                // a pipelined send also names the chunk it was cut into, a
                // device send cut at the object's runs says so
                let chunk = mpi.tempi.last_choice().and_then(|c| c.chunk);
                match (m, chunk) {
                    (Some(Method::Pipelined), Some(chunk)) => {
                        label = format!("{label}, {} chunks", fmt_bytes(chunk));
                    }
                    (Some(Method::Device), Some(run)) => label = cut_label(packed_len, run),
                    _ => {}
                }
            } else {
                let st = mpi.recv(ctx, buf, incount, dt, Some(0), Some(round as i32))?;
                // verify the typed bytes against the CPU pack oracle
                let raw = ctx.gpu.memory().peek(buf, span)?;
                let reg = ctx.registry().clone();
                let reg = reg.read();
                let mut got = vec![0u8; packed_len];
                let mut pos = 0;
                pack_cpu::pack(&reg, &raw, 0, incount, dt, &mut got, &mut pos)?;
                let mut want = vec![0u8; packed_len];
                let mut pos = 0;
                pack_cpu::pack(&reg, &fill(span), 0, incount, dt, &mut want, &mut pos)?;
                ok &= st.bytes == packed_len && got == want;
            }
        }
        mpi.publish_metrics(&ctx.tracer);
        Ok((
            label,
            ok,
            packed_len,
            ctx.clock.now(),
            ctx.faults.stats.clone(),
            mpi.tempi.stats,
        ))
    });
    let results = match results {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    out!(
        "world         : 2 ranks, rank 0 -> rank 1, {}",
        if cfg.faults.is_some() {
            "fault plan active"
        } else {
            "fault-free"
        }
    );
    out!(
        "send method   : {} (last of {rounds} round(s))",
        results[0].0
    );
    let ts = &results[0].5;
    out!(
        "tuner         : mode {tuner:?} — probes {}, bucket hits {}, method switches {}, pool reuse {}/{}",
        ts.tuner_probes,
        ts.tuner_bucket_hits,
        ts.tuner_method_switches,
        ts.pool_hits,
        ts.pool_hits + ts.pool_fresh_allocs
    );
    out!(
        "payload       : {} packed bytes — {}",
        results[1].2,
        if results[1].1 {
            "verified against the CPU pack oracle"
        } else {
            "MISMATCH vs the CPU pack oracle"
        }
    );
    for (rank, (_, _, _, clock, stats, _)) in results.iter().enumerate() {
        out!(
            "rank {rank}        : clock {clock}, send faults {}, recv faults {}, retries {} (backoff {}), delays {} (+{}), peer-gone {}",
            stats.send_faults,
            stats.recv_faults,
            stats.retries,
            stats.backoff_time,
            stats.delays,
            stats.delay_time,
            stats.peer_gone
        );
        for ev in &stats.events {
            out!("  degrade     : {ev}");
        }
    }
    trace_export(&tracer, trace_path.as_ref());
    if !results[1].1 {
        std::process::exit(1);
    }
}

/// One rank's result from the `stencil` subcommand.
struct StencilOutcome {
    /// Full local grid matched the serial oracle byte-for-byte.
    ok: bool,
    /// Shrinks across all iterations.
    shrinks: u64,
    /// World ranks excluded across all shrinks.
    excluded: Vec<usize>,
    /// Final communicator epoch.
    epoch: u64,
    /// Final communicator size.
    size: usize,
    /// Checkpoint generations this rank committed.
    checkpoints: u64,
    /// Subdomain restores served from checkpoint frames.
    restores: u64,
}

/// One rank's share of the `stencil` subcommand: build the exchanger, run
/// `iters` halo exchanges (with ULFM-style recovery when asked), taking a
/// coordinated checkpoint every `checkpoint_every` iterations, then verify
/// the whole local grid against the serial oracle.
fn run_stencil_rank(
    ctx: &mut RankCtx,
    n: usize,
    iters: usize,
    recover: bool,
    checkpoint_every: Option<usize>,
) -> Result<StencilOutcome, MpiError> {
    let mut mpi = InterposedMpi::new(TempiConfig::default());
    let mut ex = HaloExchanger::new(ctx, &mut mpi, HaloConfig::small(n))?;
    ex.fill(ctx)?;
    let mut store = CheckpointStore::new();
    let mut shrinks = 0u64;
    let mut excluded: Vec<usize> = Vec::new();
    for iter in 0..iters {
        let checkpoint = checkpoint_every.is_some_and(|every| iter % every == 0);
        if recover {
            let out = ex.exchange_with_recovery(ctx, &mut mpi, &mut store, checkpoint)?;
            shrinks += out.shrinks;
            for w in out.excluded {
                if !excluded.contains(&w) {
                    excluded.push(w);
                }
            }
        } else if checkpoint {
            ex.exchange_and_checkpoint(ctx, &mut mpi, &mut store)?;
        } else {
            ex.exchange(ctx, &mut mpi)?;
        }
    }
    let got = { ctx.gpu.memory().peek(ex.grid, ex.cfg.alloc_bytes())? };
    let ok = got == ex.expected_grid(ctx);
    let result = StencilOutcome {
        ok,
        shrinks,
        excluded,
        epoch: ctx.epoch(),
        size: ctx.size,
        checkpoints: ex.checkpoints,
        restores: ex.restores,
    };
    mpi.publish_metrics(&ctx.tracer);
    ctx.tracer.count("stencil.checkpoints", ex.checkpoints);
    ctx.tracer.count("stencil.restores", ex.restores);
    ex.destroy(ctx)?;
    Ok(result)
}

fn stencil(args: &[String]) {
    let ranks: usize = int_flag(args, "--ranks", 8);
    let n: usize = int_flag(args, "--n", 4);
    let iters: usize = int_flag(args, "--iters", 2);
    let recover = args.iter().any(|a| a == "--recover");
    let checkpoint_every: Option<usize> =
        flag_value(args, "--checkpoint-every").map(|v| match v.parse() {
            Ok(every) if every > 0 => every,
            _ => bad_usage(format!(
                "--checkpoint-every takes a positive integer, got `{v}`"
            )),
        });
    let mut cfg = with_faults_arg(WorldConfig::summit(ranks), args);
    let (tracer, trace_path) = trace_setup(args);
    cfg = cfg.with_tracer(tracer.clone());
    let results = World::run(&cfg, |ctx| {
        let outcome = run_stencil_rank(ctx, n, iters, recover, checkpoint_every);
        Ok((outcome, ctx.clock.now(), ctx.faults.stats.clone()))
    });
    let results = match results {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let d = Decomp::new(ranks);
    out!(
        "world       : {ranks} ranks ({}x{}x{}), {n}^3 interior per rank (radius 2), {iters} iteration(s), {}, recovery {}",
        d.dims[0],
        d.dims[1],
        d.dims[2],
        if cfg.faults.is_some() {
            "fault plan active"
        } else {
            "fault-free"
        },
        if recover { "on" } else { "off" }
    );
    let mut failed = false;
    for (rank, (outcome, clock, stats)) in results.iter().enumerate() {
        match outcome {
            Ok(o) => {
                out!(
                    "rank {rank}      : {} — epoch {}, comm size {}, shrinks {}, excluded {:?}, checkpoints {}, restores {}, clock {clock}",
                    if o.ok { "verified" } else { "MISMATCH vs oracle" },
                    o.epoch,
                    o.size,
                    o.shrinks,
                    o.excluded,
                    o.checkpoints,
                    o.restores
                );
                if !o.ok {
                    failed = true;
                }
            }
            Err(e) => {
                // a killed rank (or an unrecovered survivor) lands here;
                // with --recover only the dead ranks should
                out!("rank {rank}      : failed ({e}), clock {clock}");
                if !matches!(e, MpiError::PeerGone) {
                    failed = true;
                }
            }
        }
        out!(
            "  faults    : send {}, recv {}, retries {}, peer-gone {}, death notices {}, revocations {}, stale dropped {}, corruptions {}, nacks {}, retransmits {}",
            stats.send_faults,
            stats.recv_faults,
            stats.retries,
            stats.peer_gone,
            stats.death_notices,
            stats.revocations,
            stats.stale_dropped,
            stats.corruptions,
            stats.nacks,
            stats.retransmits
        );
        for ev in &stats.events {
            out!("  degrade   : {ev}");
        }
    }
    trace_export(&tracer, trace_path.as_ref());
    if failed {
        std::process::exit(1);
    }
}

/// `tempi-cli chaos`: run a seeded campaign of random fault scenarios (or
/// replay a committed corpus) and judge every run with the invariant
/// oracles. Exit status is the verdict: 0 when every expectation held,
/// 1 otherwise — so CI can run this directly.
fn chaos(args: &[String]) {
    if let Some(dir) = flag_value(args, "--replay") {
        chaos_replay(&dir);
        return;
    }
    let seed: u64 = int_flag(args, "--seed", 0);
    let iters: u64 = int_flag(args, "--iters", 20);
    let do_shrink = args.iter().any(|a| a == "--shrink");
    let out_dir = flag_value(args, "--out").unwrap_or_else(|| "chaos/out".to_string());
    out!(
        "campaign    : seed {seed}, {iters} scenario(s), shrink {}",
        if do_shrink { "on" } else { "off" }
    );
    let mut failures = 0u64;
    for index in 0..iters {
        let sc = tempi_chaos::Scenario::generate(seed, index);
        let outcome = tempi_chaos::run_scenario(&sc);
        let label = format!(
            "scenario {index:>3} (seed {}, {:?}, {} ranks, {} events)",
            sc.seed,
            sc.workload,
            sc.ranks,
            sc.events.len()
        );
        if outcome.ok() {
            out!("{label}: ok");
            continue;
        }
        failures += 1;
        for v in &outcome.violations {
            out!("{label}: VIOLATION {v}");
        }
        if !do_shrink {
            continue;
        }
        let Some(shrunk) = tempi_chaos::shrink(&sc) else {
            out!(
                "{label}: violation did not reproduce under shrink — flaky scenario, please report"
            );
            continue;
        };
        out!(
            "{label}: shrunk {} -> {} event(s) in {} run(s)",
            sc.events.len(),
            shrunk.scenario.events.len(),
            shrunk.runs
        );
        let name = format!("seed{}-idx{index}", seed);
        let re_run = tempi_chaos::run_scenario(&shrunk.scenario);
        match tempi_chaos::dump_failure(
            &shrunk.scenario,
            &re_run,
            std::path::Path::new(&out_dir),
            &name,
        ) {
            Ok((sc_path, trace_path)) => out!(
                "{label}: reproducer -> {} (trace {})",
                sc_path.display(),
                trace_path.display()
            ),
            Err(e) => fail("writing reproducer", e),
        }
    }
    out!(
        "verdict     : {}/{iters} scenario(s) held every invariant",
        iters - failures
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Replay every corpus entry under `dir`, verifying each one's recorded
/// expectation ("fixed" replays green, "open" still reproduces).
fn chaos_replay(dir: &str) {
    let entries = match tempi_chaos::corpus::load_dir(std::path::Path::new(dir)) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: loading corpus: {e}");
            std::process::exit(2);
        }
    };
    if entries.is_empty() {
        out!("corpus      : no entries under {dir}");
        return;
    }
    let mut failed = false;
    for (path, entry) in &entries {
        match tempi_chaos::corpus::replay(entry) {
            Ok(()) => out!("{} ({}): ok", entry.name, entry.status),
            Err(e) => {
                out!("{} ({}): FAILED — {e}", entry.name, entry.status);
                let _ = path;
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{named_flag, parse_faults, Method, TempiConfig, TunerMode};

    #[test]
    fn method_and_tuner_flags_accept_and_reject_what_the_environment_does() {
        let spellings = "device oneshot one-shot staged pipelined Device ONE-SHOT \
                         off model online Online warp-drive one_shot clairvoyant";
        for s in spellings.split_whitespace().chain([""]) {
            let args = ["--method", s, "--tuner", s].map(String::from);
            let env = |var: &str| TempiConfig::from_vars(|name| (name == var).then(|| s.into()));
            let flag_method = named_flag::<Method>(&args, "--method").ok().flatten();
            let env_method = env("TEMPI_METHOD").ok().and_then(|c| c.force_method);
            assert_eq!(flag_method, env_method, "`{s}`");
            let flag_tuner = named_flag::<TunerMode>(&args, "--tuner");
            let env_tuner = env("TEMPI_TUNER").map(|c| c.tuner);
            assert_eq!(flag_tuner.ok().flatten(), env_tuner.ok(), "`{s}`");
        }
    }

    #[test]
    fn well_formed_fault_plans_parse() {
        let plan = parse_faults("seed=42,send=0.05,corrupt=0.1,exit=1@5ms,retries=4,backoff=10us")
            .unwrap();
        assert_eq!(plan.seed, 42);
        assert!(plan.site(mpi_sim::FaultSite::Corrupt).is_active());
        assert_eq!(plan.rank_exits.len(), 1);
    }

    #[test]
    fn malformed_fault_plans_name_the_offending_clause() {
        // every error message must quote the clause the user got wrong
        for (spec, bad_clause) in [
            ("seed=42,warp=0.1", "warp=0.1"),
            ("corrupt=maybe", "corrupt=maybe"),
            ("send=1.5", "send=1.5"),
            ("exit=1", "exit=1"),
            ("exit=one@5ms", "exit=one@5ms"),
            ("delay=0.2", "delay=0.2"),
            ("delay=1.5:20us", "delay=1.5:20us"),
            ("seed=1,delay=-0.5:20us", "delay=-0.5:20us"),
            ("backoff=10lightyears", "backoff=10lightyears"),
            ("kernel@soon", "kernel@soon"),
            ("justnoise", "justnoise"),
        ] {
            let err = parse_faults(spec).unwrap_err();
            assert!(
                err.contains(&format!("`{bad_clause}`")),
                "spec `{spec}` produced an error that does not quote \
                 `{bad_clause}`: {err}"
            );
        }
    }
}
