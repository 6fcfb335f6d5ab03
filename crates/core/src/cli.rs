//! Implementation of the `sofi` command-line tool.
//!
//! The CLI assembles `.s` sources (see [`sofi_isa::assemble_text`] for the
//! syntax) and runs them through the pipeline:
//!
//! ```text
//! sofi run <prog.s> [--limit N]            execute, show output and cycles
//! sofi campaign <prog.s> [--registers] [--json] [--threads N]
//!                                          full def/use fault-space scan
//! sofi sample <prog.s> --draws N [--seed S] [--mode raw|weighted|biased]
//!                                          sampling campaign + extrapolation
//! sofi diagram <prog.s>                    ASCII fault-space diagram
//! sofi compare <baseline.s> <hardened.s>   soundly compare two variants
//! sofi compile <prog.sofi> [--emit asm|bin] [--harden MODE] [--stack N]
//!              [--out FILE] [--run]        compile sofi-lang source
//!                                          (optionally hardened) and
//!                                          emit/run the program

//! sofi serve [--addr A] [--journal PATH] [--store FILE]
//!            [--lease-ms N] [--remote-only]
//!                                          campaign service daemon /
//!                                          fabric coordinator
//! sofi worker --connect A [--name N]       leased remote worker: poll the
//!                                          coordinator for fault-list
//!                                          shards, execute, upload
//! sofi submit <prog.s> [--registers|--memory] [--wait] [--cold]
//!                                          queue a campaign on the daemon
//! sofi status [job-id]                     job + worker tables with live
//!                                          progress/rates
//! sofi stats [job-id] [--watch]            telemetry snapshot from the daemon
//! sofi cancel <job-id>                     cancel a queued/running job
//! sofi shutdown                            ask the daemon to drain and exit
//! ```
//!
//! All functions return the text they would print, so they are directly
//! testable; the binary's `main` is a thin shell around [`dispatch`].
//! (`sofi serve` additionally logs its bound address to stderr up front,
//! since its return value only materializes after shutdown.)

use sofi_campaign::{Campaign, CampaignConfig, CampaignResult, FaultDomain, SamplingMode};
use sofi_isa::{assemble_text, Program};
use sofi_lang::lower::{
    compile_with as lang_compile_with, Harden as LangHarden, Options as LangOptions,
};
use sofi_metrics::{
    compare_failures, exact_failures, extrapolated_failures, fault_coverage, outcome_breakdown,
    Weighting,
};
use sofi_report::{fault_space_diagram, Table};
use sofi_rng::DefaultRng;
use sofi_serve::{run_worker, Client, JobSpec, ServeConfig, Server, WorkerConfig};
use sofi_telemetry::Snapshot;
use std::fmt::Write as _;

/// Default daemon address for `serve`/`submit`/`status`/`cancel`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4715";
/// Default journal path for `sofi serve`.
pub const DEFAULT_JOURNAL: &str = "sofi.journal";

/// CLI failure: bad usage or a failing pipeline step, with a user-facing
/// message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> CliError {
        CliError(s)
    }
}

/// Usage text.
pub const USAGE: &str = "\
sofi — fault-injection methodology toolkit (DSN'15 pitfalls paper)

USAGE:
  sofi run <prog.s> [--limit N]
  sofi campaign <prog.s> [--domain NAME | --registers] [--json] [--threads N]
               [--telemetry FILE]
  sofi sample <prog.s> --draws N [--seed S] [--mode raw|weighted|biased]
  sofi diagram <prog.s>
  sofi compare <baseline.s> <hardened.s>
  sofi compile <prog.sofi> [--emit asm|bin] [--harden MODE] [--stack N]
               [--out FILE] [--run]
  sofi serve [--addr A] [--journal PATH] [--store FILE] [--workers N]
             [--queue N] [--batch N] [--lease-ms N] [--remote-only]
  sofi worker --connect A [--name NAME] [--poll-ms N] [--max-idle-polls N]
  sofi submit <prog.s> [--addr A] [--domain NAME | --registers | --memory]
              [--wait] [--threads N] [--cold] [--json] [--out FILE]
  sofi status [job-id] [--addr A]
  sofi stats [job-id] [--addr A] [--watch] [--json] [--out FILE]
  sofi cancel <job-id> [--addr A]
  sofi shutdown [--addr A]

Addresses containing `/` are Unix socket paths; anything else is TCP
host:port. The default address is 127.0.0.1:4715.

Fault domains (--domain): memory (default), register-file, instr-skip,
opcode-bit, branch-invert. `--registers`/`--memory` are legacy
shorthands for the first two.
";

/// Entry point: dispatches an argument vector (without the binary name).
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on bad usage,
/// unreadable files, assembly errors or failing golden runs.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("sample") => cmd_sample(&args[1..]),
        Some("diagram") => cmd_diagram(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("compile") => cmd_compile(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("cancel") => cmd_cancel(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(CliError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

/// One accepted flag: its name and whether it consumes a value argument.
type FlagSpec = (&'static str, bool);

/// Rejects any `--flag` not in `known`, naming the offending flag in the
/// error so typos are diagnosable (`--thread` vs `--threads`).
fn reject_unknown_flags(args: &[String], known: &[FlagSpec]) -> Result<(), CliError> {
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(&(_, takes_value)) = known.iter().find(|(name, _)| *name == arg) {
            i += 1 + usize::from(takes_value);
        } else if arg.starts_with("--") {
            let mut names: Vec<&str> = known.iter().map(|&(name, _)| name).collect();
            names.sort_unstable();
            return Err(CliError(format!(
                "unknown flag `{arg}` (accepted here: {})",
                if names.is_empty() {
                    "none".to_string()
                } else {
                    names.join(", ")
                }
            )));
        } else {
            i += 1; // positional argument
        }
    }
    Ok(())
}

fn load_program(path: &str) -> Result<Program, CliError> {
    let source =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program");
    assemble_text(name, &source).map_err(|e| CliError(format!("{path}: {e}")))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> Result<u64, CliError> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError(format!("{flag} expects a number, got `{v}`"))),
    }
}

fn positional(args: &[String], n: usize) -> Result<&str, CliError> {
    args.iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| {
            // Skip values that directly follow a flag.
            let idx = args.iter().position(|x| x == *a).unwrap_or(0);
            idx == 0 || !args[idx - 1].starts_with("--")
        })
        .nth(n)
        .map(String::as_str)
        .ok_or_else(|| CliError(format!("missing argument #{n}\n\n{USAGE}")))
}

/// Resolves the fault domain from `--domain NAME` (any spelling
/// [`FaultDomain`]'s `FromStr` accepts) or the legacy `--registers` /
/// `--memory` shorthands. Unknown names are rejected by name; combining
/// `--domain` with a shorthand is an error rather than a silent
/// precedence rule, as is combining the two shorthands.
fn parse_domain_flags(args: &[String]) -> Result<FaultDomain, CliError> {
    let named = match flag_value(args, "--domain") {
        Some(v) => Some(
            v.parse::<FaultDomain>()
                .map_err(|e| CliError(e.to_string()))?,
        ),
        None => None,
    };
    let registers = args.iter().any(|a| a == "--registers");
    let memory = args.iter().any(|a| a == "--memory");
    if registers && memory {
        return Err(CliError(
            "--registers and --memory are mutually exclusive".into(),
        ));
    }
    if named.is_some() && (registers || memory) {
        return Err(CliError(
            "--domain conflicts with the --registers/--memory shorthands".into(),
        ));
    }
    Ok(named.unwrap_or(if registers {
        FaultDomain::RegisterFile
    } else {
        FaultDomain::Memory
    }))
}

fn cmd_run(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(args, &[("--limit", true)])?;
    let program = load_program(positional(args, 0)?)?;
    let limit = parse_u64(args, "--limit", 50_000_000)?;
    let mut m = sofi_machine::Machine::new(&program);
    let status = m.run(limit);
    let mut out = String::new();
    let _ = writeln!(out, "program : {}", program.name);
    let _ = writeln!(out, "status  : {status:?}");
    let _ = writeln!(out, "cycles  : {}", m.cycle());
    let _ = writeln!(out, "output  : {:?}", m.serial());
    if let Ok(text) = std::str::from_utf8(m.serial()) {
        if text.chars().all(|c| !c.is_control() || c == '\n') {
            let _ = writeln!(out, "as text : {text:?}");
        }
    }
    Ok(out)
}

fn campaign_report(result: &CampaignResult, campaign: &Campaign) -> String {
    let mut out = String::new();
    let plan_len = result.results.len();
    let _ = writeln!(
        out,
        "fault space     : {} cycles x {} bits = {} coordinates ({})",
        result.space.cycles,
        result.space.bits,
        result.space.size(),
        result.domain,
    );
    let _ = writeln!(
        out,
        "def/use pruning : {} experiments (x{:.0} reduction)",
        plan_len,
        result.space.size() as f64 / plan_len.max(1) as f64
    );
    let _ = writeln!(out, "golden runtime  : {} cycles", campaign.golden().cycles);
    let _ = writeln!(
        out,
        "failures        : F = {} (weighted; raw experiment count {})",
        result.failure_weight(),
        result.failure_raw()
    );
    let _ = writeln!(
        out,
        "fault coverage  : {:.2}% weighted / {:.2}% unweighted (do NOT compare across programs)",
        fault_coverage(result, Weighting::Weighted) * 100.0,
        fault_coverage(result, Weighting::Unweighted) * 100.0,
    );
    let breakdown = outcome_breakdown(result);
    let mut t = Table::new(vec!["failure mode", "weighted count"]);
    for (label, count) in breakdown.failure_rows() {
        if count > 0.0 {
            t.row(vec![label.to_string(), format!("{count:.0}")]);
        }
    }
    if !t.is_empty() {
        let _ = writeln!(out, "{t}");
    }
    out
}

fn cmd_campaign(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(
        args,
        &[
            ("--domain", true),
            ("--registers", false),
            ("--json", false),
            ("--threads", true),
            ("--telemetry", true),
        ],
    )?;
    let program = load_program(positional(args, 0)?)?;
    let domain = parse_domain_flags(args)?;
    let telemetry_path = flag_value(args, "--telemetry");
    let config = CampaignConfig {
        threads: parse_u64(args, "--threads", 0)? as usize,
        telemetry: telemetry_path.is_some(),
        ..CampaignConfig::default()
    };
    let campaign = Campaign::with_config(&program, config)
        .map_err(|e| CliError(format!("golden run failed: {e}")))?;
    let result = campaign.run_full_defuse_in(domain);
    if let Some(path) = telemetry_path {
        let artifact = sofi_report::to_json(&sofi_report::telemetry_artifact(
            &campaign.telemetry().snapshot(),
        ));
        std::fs::write(path, artifact)
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }
    if args.iter().any(|a| a == "--json") {
        return Ok(sofi_report::to_json(&result));
    }
    Ok(campaign_report(&result, &campaign))
}

fn cmd_sample(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(
        args,
        &[("--draws", true), ("--seed", true), ("--mode", true)],
    )?;
    let program = load_program(positional(args, 0)?)?;
    let draws = parse_u64(args, "--draws", 10_000)?;
    let seed = parse_u64(args, "--seed", 1)?;
    let mode = match flag_value(args, "--mode").unwrap_or("raw") {
        "raw" => SamplingMode::UniformRaw,
        "weighted" => SamplingMode::WeightedClasses,
        "biased" => SamplingMode::BiasedPerClass,
        other => return Err(CliError(format!("unknown sampling mode `{other}`"))),
    };
    let campaign =
        Campaign::new(&program).map_err(|e| CliError(format!("golden run failed: {e}")))?;
    let mut rng = DefaultRng::seed_from_u64(seed);
    let sampled = campaign.run_sampled(draws, mode, &mut rng);
    let est = extrapolated_failures(&sampled, 0.95);
    let mut out = String::new();
    let _ = writeln!(out, "mode            : {mode:?}");
    let _ = writeln!(
        out,
        "draws           : {} (over population {})",
        sampled.draws, sampled.population
    );
    let _ = writeln!(out, "experiments run : {}", sampled.experiments_run());
    let _ = writeln!(out, "failure draws   : {}", sampled.failure_hits());
    let _ = writeln!(
        out,
        "F extrapolated  : {:.0}  (95% CI [{:.0}, {:.0}])",
        est.failures, est.ci.0, est.ci.1
    );
    if mode == SamplingMode::BiasedPerClass {
        let _ = writeln!(
            out,
            "WARNING: per-class sampling ignores class weights (Pitfall 2); the\n\
             estimate above is not a valid extrapolation."
        );
    }
    Ok(out)
}

fn cmd_diagram(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(args, &[])?;
    let program = load_program(positional(args, 0)?)?;
    let campaign =
        Campaign::new(&program).map_err(|e| CliError(format!("golden run failed: {e}")))?;
    fault_space_diagram(campaign.analysis()).ok_or_else(|| {
        CliError(format!(
            "fault space too large to draw ({} cycles x {} bits)",
            campaign.golden().cycles,
            campaign.golden().ram_bits
        ))
    })
}

fn cmd_compile(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(
        args,
        &[
            ("--emit", true),
            ("--harden", true),
            ("--stack", true),
            ("--run", false),
            ("--out", true),
        ],
    )?;
    let path = positional(args, 0)?;
    let source =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program");

    let harden = match flag_value(args, "--harden") {
        None => None,
        Some(m) => Some(
            LangHarden::ALL
                .into_iter()
                .find(|h| h.name() == m)
                .ok_or_else(|| {
                    CliError(format!(
                        "--harden expects one of sumdmr, hashdmr, tmr, shield; got `{m}`"
                    ))
                })?,
        ),
    };
    let mut opts = LangOptions {
        harden,
        ..LangOptions::default()
    };
    opts.stack_bytes = parse_u64(args, "--stack", u64::from(opts.stack_bytes))? as u32;
    let program =
        lang_compile_with(name, &source, &opts).map_err(|e| CliError(format!("{path}: {e}")))?;

    let emitted = match flag_value(args, "--emit") {
        None => None,
        Some("asm") => Some(program.to_source()),
        Some("bin") => {
            let mut s = String::new();
            for w in program.encode_rom() {
                let _ = writeln!(s, "{w:08x}");
            }
            Some(s)
        }
        Some(other) => {
            return Err(CliError(format!(
                "--emit expects `asm` or `bin`, got `{other}`"
            )))
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "compiled {path}: {} instructions, {} data bytes, {} bytes RAM{}",
        program.insts.len(),
        program.data.len(),
        program.ram_size,
        harden.map_or(String::new(), |h| format!(" [{}]", h.name())),
    );
    match (emitted, flag_value(args, "--out")) {
        (Some(text), Some(dest)) => {
            std::fs::write(dest, &text)
                .map_err(|e| CliError(format!("cannot write {dest}: {e}")))?;
            let _ = writeln!(out, "wrote {dest}");
        }
        (Some(text), None) => out.push_str(&text),
        (None, Some(_)) => {
            return Err(CliError("--out requires --emit asm|bin".to_owned()));
        }
        (None, None) => {}
    }
    if args.iter().any(|a| a == "--run") {
        let mut m = sofi_machine::Machine::new(&program);
        let status = m.run(50_000_000);
        let _ = writeln!(out, "status  : {status:?}");
        let _ = writeln!(out, "cycles  : {}", m.cycle());
        let _ = writeln!(out, "output  : {:?}", m.serial());
    }
    Ok(out)
}

fn cmd_compare(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(args, &[])?;
    let baseline = load_program(positional(args, 0)?)?;
    let hardened = load_program(positional(args, 1)?)?;
    let cb = Campaign::new(&baseline)
        .map_err(|e| CliError(format!("{}: golden run failed: {e}", baseline.name)))?;
    let ch = Campaign::new(&hardened)
        .map_err(|e| CliError(format!("{}: golden run failed: {e}", hardened.name)))?;
    let rb = cb.run_full_defuse();
    let rh = ch.run_full_defuse();
    let cmp = compare_failures(&exact_failures(&rb), &exact_failures(&rh));
    let mut out = String::new();
    let mut t = Table::new(vec!["variant", "w", "F", "coverage"]);
    for r in [&rb, &rh] {
        t.row(vec![
            r.benchmark.clone(),
            r.space.size().to_string(),
            r.failure_weight().to_string(),
            format!("{:.2}%", fault_coverage(r, Weighting::Weighted) * 100.0),
        ]);
    }
    let _ = writeln!(out, "{t}");
    let _ = writeln!(out, "comparison (absolute failure counts): {cmp}");
    let _ = writeln!(
        out,
        "(coverage percentages are shown for reference only — they are not a\n\
         valid comparison metric; see the paper's Pitfall 3)"
    );
    Ok(out)
}

// --- service subcommands ------------------------------------------------

fn addr_of(args: &[String]) -> String {
    flag_value(args, "--addr")
        .unwrap_or(DEFAULT_ADDR)
        .to_string()
}

fn connect(args: &[String]) -> Result<Client, CliError> {
    let addr = addr_of(args);
    Client::connect(&addr).map_err(|e| CliError(format!("{addr}: {e}")))
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(
        args,
        &[
            ("--addr", true),
            ("--journal", true),
            ("--workers", true),
            ("--queue", true),
            ("--batch", true),
            ("--store", true),
            ("--lease-ms", true),
            ("--remote-only", false),
        ],
    )?;
    let addr = addr_of(args);
    let journal = flag_value(args, "--journal").unwrap_or(DEFAULT_JOURNAL);
    let store = flag_value(args, "--store").map(std::path::PathBuf::from);
    let defaults = ServeConfig::default();
    let lease_ms = parse_u64(
        args,
        "--lease-ms",
        defaults.lease_timeout.as_millis() as u64,
    )?;
    if lease_ms == 0 {
        return Err(CliError("--lease-ms must be positive".into()));
    }
    let config = ServeConfig {
        workers: parse_u64(args, "--workers", defaults.workers as u64)? as usize,
        queue_capacity: parse_u64(args, "--queue", defaults.queue_capacity as u64)? as usize,
        batch_size: parse_u64(args, "--batch", defaults.batch_size as u64)? as usize,
        lease_timeout: std::time::Duration::from_millis(lease_ms),
        remote_only: args.iter().any(|a| a == "--remote-only"),
        warm_store: store.clone(),
        ..defaults
    };
    let server = Server::bind(&addr, std::path::Path::new(journal), config)
        .map_err(|e| CliError(format!("cannot start daemon on {addr}: {e}")))?;
    match &store {
        Some(path) => eprintln!(
            "sofi-serve listening on {} (journal: {journal}, warm store: {})",
            server.local_addr(),
            path.display()
        ),
        None => eprintln!(
            "sofi-serve listening on {} (journal: {journal})",
            server.local_addr()
        ),
    }
    server
        .run()
        .map_err(|e| CliError(format!("daemon failed: {e}")))?;
    Ok("daemon exited after graceful drain\n".to_string())
}

fn cmd_worker(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(
        args,
        &[
            ("--connect", true),
            ("--name", true),
            ("--poll-ms", true),
            ("--max-idle-polls", true),
        ],
    )?;
    let addr = flag_value(args, "--connect")
        .ok_or_else(|| CliError("worker needs --connect <coordinator address>".into()))?;
    let defaults = WorkerConfig::default();
    let config = WorkerConfig {
        addr: addr.to_string(),
        name: flag_value(args, "--name")
            .unwrap_or(&defaults.name)
            .to_string(),
        poll_interval: std::time::Duration::from_millis(parse_u64(
            args,
            "--poll-ms",
            defaults.poll_interval.as_millis() as u64,
        )?),
        max_idle_polls: match parse_u64(args, "--max-idle-polls", 0)? {
            0 => None,
            n => Some(n),
        },
        ..defaults
    };
    eprintln!("sofi-worker `{}` polling {addr}", config.name);
    let report = run_worker(&config).map_err(|e| CliError(format!("worker failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "worker id   : {}", report.worker);
    let _ = writeln!(
        out,
        "committed   : {} shards ({} experiments)",
        report.shards, report.experiments
    );
    let _ = writeln!(
        out,
        "rejected    : {} duplicate, {} stale uploads",
        report.duplicates, report.stale
    );
    let _ = writeln!(out, "reconnects  : {}", report.reconnects);
    Ok(out)
}

fn submit_spec(args: &[String]) -> Result<JobSpec, CliError> {
    let path = positional(args, 0)?;
    let source =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program")
        .to_string();
    // Assemble locally first purely for early diagnostics — the daemon
    // re-assembles from source and is the source of truth.
    assemble_text(&name, &source).map_err(|e| CliError(format!("{path}: {e}")))?;
    let domain = parse_domain_flags(args)?;
    Ok(JobSpec {
        name,
        source,
        domain,
        config: CampaignConfig {
            threads: parse_u64(args, "--threads", 0)? as usize,
            ..CampaignConfig::default()
        },
        // Warm-store participation is the default; `--cold` opts out for
        // ablation runs and store-independent benchmarking.
        warm_store: !args.iter().any(|a| a == "--cold"),
    })
}

fn cmd_submit(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(
        args,
        &[
            ("--addr", true),
            ("--domain", true),
            ("--registers", false),
            ("--memory", false),
            ("--wait", false),
            ("--threads", true),
            ("--cold", false),
            ("--json", false),
            ("--out", true),
        ],
    )?;
    let spec = submit_spec(args)?;
    let mut client = connect(args)?;
    if !args.iter().any(|a| a == "--wait") {
        let job = client.submit(spec).map_err(|e| CliError(e.to_string()))?;
        return Ok(format!("job {job} queued on {}\n", addr_of(args)));
    }
    let (job, result, stats) = client
        .submit_wait(spec, |done, total, stats| {
            eprint!(
                "\rprogress: {done}/{total} experiments ({:.0}% early-term, {:.0}% memo hits, {:.0}% warm, gate {}/{})",
                stats.early_termination_rate() * 100.0,
                stats.memo_hit_rate() * 100.0,
                stats.store_hit_rate() * 100.0,
                stats.gate_shards_on,
                stats.gate_shards_on + stats.gate_shards_off,
            );
            if total > 0 && done == total {
                eprintln!();
            }
        })
        .map_err(|e| CliError(e.to_string()))?;
    let json = args.iter().any(|a| a == "--json");
    let out_path = flag_value(args, "--out");
    if json || out_path.is_some() {
        let artifact = sofi_report::to_json(&sofi_report::job_artifact(job, &result, &stats));
        if let Some(path) = out_path {
            std::fs::write(path, &artifact)
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        }
        if json {
            return Ok(artifact);
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "job         : {job}");
    let _ = writeln!(
        out,
        "benchmark   : {} ({})",
        result.benchmark, result.domain
    );
    let _ = writeln!(out, "experiments : {}", result.results.len());
    let _ = writeln!(
        out,
        "failures    : F = {} (weighted; raw experiment count {})",
        result.failure_weight(),
        result.failure_raw()
    );
    let _ = writeln!(
        out,
        "executor    : {} workers, {} faulted cycles simulated",
        stats.workers, stats.faulted_cycles
    );
    let _ = writeln!(
        out,
        "memoization : {:.0}% hits ({:.0}% from warm store), gate on for {}/{} shards",
        stats.memo_hit_rate() * 100.0,
        stats.store_hit_rate() * 100.0,
        stats.gate_shards_on,
        stats.gate_shards_on + stats.gate_shards_off,
    );
    Ok(out)
}

fn cmd_status(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(args, &[("--addr", true)])?;
    let job = match positional(args, 0) {
        Ok(id) => Some(
            id.parse::<u64>()
                .map_err(|_| CliError(format!("job id must be a number, got `{id}`")))?,
        ),
        Err(_) => None,
    };
    let mut client = connect(args)?;
    let jobs = client.status(job).map_err(|e| CliError(e.to_string()))?;
    // The worker table only renders when remote workers have ever
    // registered, so the plain single-daemon view stays unchanged.
    let workers = client.workers().map_err(|e| CliError(e.to_string()))?;
    if jobs.is_empty() && workers.is_empty() {
        return Ok("no jobs\n".to_string());
    }
    let mut t = Table::new(vec![
        "job",
        "benchmark",
        "domain",
        "state",
        "progress",
        "early-term",
        "memo hits",
        "warm hits",
        "gate",
    ]);
    for j in &jobs {
        // Jobs replayed from a journal know their covered count but not
        // the plan size (the golden run isn't redone for terminal jobs).
        let progress = if j.total > 0 {
            format!("{}/{}", j.done, j.total)
        } else if j.done > 0 {
            format!("{} covered", j.done)
        } else {
            "-".to_string()
        };
        let state = if j.error.is_empty() {
            j.state.to_string()
        } else {
            format!("{} ({})", j.state, j.error)
        };
        // Rates are ratios of the counters merged from every committed
        // batch, so they are meaningful mid-run; recovered terminal jobs
        // replayed without stats show "-" instead of misleading zeros.
        let (early, memo, warm) = if j.stats.experiments > 0 {
            (
                format!("{:.0}%", j.stats.early_termination_rate() * 100.0),
                format!("{:.0}%", j.stats.memo_hit_rate() * 100.0),
                format!("{:.0}%", j.stats.store_hit_rate() * 100.0),
            )
        } else {
            ("-".to_string(), "-".to_string(), "-".to_string())
        };
        let gate_total = j.stats.gate_shards_on + j.stats.gate_shards_off;
        let gate = if gate_total > 0 {
            format!("{}/{} on", j.stats.gate_shards_on, gate_total)
        } else {
            "-".to_string()
        };
        t.row(vec![
            j.id.to_string(),
            j.name.clone(),
            j.domain.to_string(),
            state,
            progress,
            early,
            memo,
            warm,
            gate,
        ]);
    }
    let mut out = String::new();
    if !jobs.is_empty() {
        let _ = write!(out, "{t}");
    }
    if !workers.is_empty() {
        let mut wt = Table::new(vec![
            "worker",
            "name",
            "alive",
            "leases",
            "shards",
            "experiments",
            "last seen",
        ]);
        for w in &workers {
            wt.row(vec![
                w.id.to_string(),
                w.name.clone(),
                if w.alive { "yes" } else { "no" }.to_string(),
                w.leases_active.to_string(),
                w.shards_committed.to_string(),
                w.experiments_committed.to_string(),
                format!("{}ms ago", w.last_seen_ms),
            ]);
        }
        let _ = write!(out, "{wt}");
    }
    Ok(out)
}

/// Renders a telemetry snapshot as scalar and histogram tables.
fn render_snapshot(snap: &Snapshot) -> String {
    if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
        return "no telemetry recorded yet\n".to_string();
    }
    let mut out = String::new();
    if !snap.counters.is_empty() || !snap.gauges.is_empty() {
        let mut t = Table::new(vec!["metric", "value"]);
        for (name, value) in &snap.counters {
            t.row(vec![name.clone(), value.to_string()]);
        }
        for (name, value) in &snap.gauges {
            t.row(vec![format!("{name} (gauge)"), value.to_string()]);
        }
        let _ = writeln!(out, "{t}");
    }
    if !snap.histograms.is_empty() {
        let mut t = Table::new(vec!["histogram", "count", "mean", "p50", "p99", "max"]);
        for (name, h) in &snap.histograms {
            t.row(vec![
                name.clone(),
                h.count.to_string(),
                format!("{:.1}", h.mean()),
                h.quantile(0.5).to_string(),
                h.quantile(0.99).to_string(),
                h.max.to_string(),
            ]);
        }
        let _ = writeln!(out, "{t}");
    }
    out
}

fn cmd_stats(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(
        args,
        &[
            ("--addr", true),
            ("--watch", false),
            ("--json", false),
            ("--out", true),
        ],
    )?;
    let job = match positional(args, 0) {
        Ok(id) => Some(
            id.parse::<u64>()
                .map_err(|_| CliError(format!("job id must be a number, got `{id}`")))?,
        ),
        Err(_) => None,
    };
    let mut client = connect(args)?;
    let mut snapshot = client.stats(job).map_err(|e| CliError(e.to_string()))?;
    if args.iter().any(|a| a == "--watch") {
        // Repaint to stderr roughly once a second until the snapshot
        // stops changing (an idle daemon records nothing new), then fall
        // through and return the final render like a plain `stats` call.
        loop {
            eprintln!("{}", render_snapshot(&snapshot));
            std::thread::sleep(std::time::Duration::from_millis(1000));
            let next = client.stats(job).map_err(|e| CliError(e.to_string()))?;
            if next == snapshot {
                break;
            }
            snapshot = next;
        }
    }
    let artifact = sofi_report::to_json(&sofi_report::telemetry_artifact(&snapshot));
    if let Some(path) = flag_value(args, "--out") {
        std::fs::write(path, &artifact)
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }
    if args.iter().any(|a| a == "--json") {
        return Ok(artifact);
    }
    Ok(render_snapshot(&snapshot))
}

fn cmd_cancel(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(args, &[("--addr", true)])?;
    let id = positional(args, 0)?;
    let id: u64 = id
        .parse()
        .map_err(|_| CliError(format!("job id must be a number, got `{id}`")))?;
    let mut client = connect(args)?;
    client.cancel(id).map_err(|e| CliError(e.to_string()))?;
    Ok(format!("job {id} cancelled\n"))
}

fn cmd_shutdown(args: &[String]) -> Result<String, CliError> {
    reject_unknown_flags(args, &[("--addr", true)])?;
    let mut client = connect(args)?;
    client.shutdown().map_err(|e| CliError(e.to_string()))?;
    Ok("daemon is draining\n".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sofi-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    const HI: &str = "
        .data
        msg: .space 2
        .text
        li r1, 'H'
        sb r1, msg(r0)
        li r1, 'i'
        sb r1, msg+1(r0)
        lb r2, msg(r0)
        serial r2
        lb r2, msg+1(r0)
        serial r2
    ";

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_command() {
        let p = write_temp("hi.s", HI);
        let out = dispatch(&args(&["run", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("cycles  : 8"), "{out}");
        assert!(out.contains("\"Hi\""), "{out}");
    }

    #[test]
    fn campaign_command() {
        let p = write_temp("hi2.s", HI);
        let out = dispatch(&args(&["campaign", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("F = 48"), "{out}");
        assert!(out.contains("62.50% weighted"), "{out}");
        assert!(out.contains("SDC"), "{out}");
    }

    #[test]
    fn campaign_registers_command() {
        let p = write_temp("hi3.s", HI);
        let out = dispatch(&args(&["campaign", p.to_str().unwrap(), "--registers"])).unwrap();
        assert!(out.contains("RegisterFile"), "{out}");
    }

    #[test]
    fn campaign_domain_flag_selects_control_flow_domains() {
        let p = write_temp("hi_cf.s", HI);
        let out = dispatch(&args(&[
            "campaign",
            p.to_str().unwrap(),
            "--domain",
            "instr-skip",
        ]))
        .unwrap();
        assert!(out.contains("InstrSkip"), "{out}");
        let out = dispatch(&args(&[
            "campaign",
            p.to_str().unwrap(),
            "--domain",
            "OpcodeBit",
        ]))
        .unwrap();
        assert!(out.contains("OpcodeBit"), "{out}");
        let out = dispatch(&args(&[
            "campaign",
            p.to_str().unwrap(),
            "--domain",
            "branch-invert",
        ]))
        .unwrap();
        assert!(out.contains("BranchInvert"), "{out}");
    }

    #[test]
    fn unknown_domain_is_rejected_by_name() {
        let p = write_temp("hi_cf2.s", HI);
        let err = dispatch(&args(&[
            "campaign",
            p.to_str().unwrap(),
            "--domain",
            "sram",
        ]))
        .unwrap_err()
        .0;
        assert!(err.contains("unknown fault domain 'sram'"), "{err}");
        assert!(err.contains("branch-invert"), "{err}");
    }

    #[test]
    fn domain_flag_conflicts_with_shorthands() {
        let p = write_temp("hi_cf3.s", HI);
        let err = dispatch(&args(&[
            "campaign",
            p.to_str().unwrap(),
            "--domain",
            "memory",
            "--registers",
        ]))
        .unwrap_err()
        .0;
        assert!(err.contains("--domain conflicts"), "{err}");
    }

    #[test]
    fn campaign_json_command() {
        let p = write_temp("hi4.s", HI);
        let out = dispatch(&args(&["campaign", p.to_str().unwrap(), "--json"])).unwrap();
        assert!(out.contains("\"benchmark\""), "{out}");
        let parsed = sofi_report::Json::parse(&out).unwrap();
        let cycles = parsed.get("space").and_then(|s| s.get("cycles"));
        assert_eq!(cycles.and_then(sofi_report::Json::as_u64), Some(8));
    }

    #[test]
    fn sample_command() {
        let p = write_temp("hi5.s", HI);
        let out = dispatch(&args(&[
            "sample",
            p.to_str().unwrap(),
            "--draws",
            "5000",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("F extrapolated"), "{out}");
    }

    #[test]
    fn diagram_command() {
        let p = write_temp("hi6.s", HI);
        let out = dispatch(&args(&["diagram", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("bit   0 |"), "{out}");
    }

    #[test]
    fn compare_command() {
        let base = write_temp("cmp_base.s", HI);
        let hard = write_temp("cmp_hard.s", &format!("nop\nnop\nnop\nnop\n{HI}"));
        let out = dispatch(&args(&[
            "compare",
            base.to_str().unwrap(),
            hard.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("r = 1.000"), "{out}");
    }

    const COUNT_SOFI: &str = "
        let total: int = 0;
        fn main() {
            for i in 1 .. 4 { total = total + i; }
            out(total + '0');     // '6'
        }
    ";

    #[test]
    fn compile_command_runs_lang_source() {
        let p = write_temp("count.sofi", COUNT_SOFI);
        let out = dispatch(&args(&["compile", p.to_str().unwrap(), "--run"])).unwrap();
        assert!(out.contains("compiled"), "{out}");
        assert!(out.contains("Halted { code: 0 }"), "{out}");
        assert!(out.contains("[54]"), "{out}"); // '6'
    }

    #[test]
    fn compile_emit_asm_reassembles() {
        let p = write_temp("count2.sofi", COUNT_SOFI);
        let out = dispatch(&args(&[
            "compile",
            p.to_str().unwrap(),
            "--emit",
            "asm",
            "--harden",
            "sumdmr",
        ]))
        .unwrap();
        let asm = &out[out.find(".ram").expect("emitted source")..];
        let rt = write_temp("count2.s", asm);
        let run = dispatch(&args(&["run", rt.to_str().unwrap()])).unwrap();
        assert!(run.contains("[54]"), "{run}");
    }

    #[test]
    fn compile_rejects_unknown_flags_by_name() {
        let p = write_temp("count3.sofi", COUNT_SOFI);
        let err = dispatch(&args(&["compile", p.to_str().unwrap(), "--hardn", "tmr"]))
            .unwrap_err()
            .0;
        assert!(err.contains("unknown flag `--hardn`"), "{err}");
        assert!(
            err.contains("--harden"),
            "should list accepted flags: {err}"
        );
    }

    #[test]
    fn compile_diagnostics_carry_line_and_column() {
        let p = write_temp("bad.sofi", "fn main() { out(x); }");
        let err = dispatch(&args(&["compile", p.to_str().unwrap()]))
            .unwrap_err()
            .0;
        assert!(err.contains("1:17"), "{err}");
        assert!(err.contains("unknown variable"), "{err}");
    }

    #[test]
    fn errors_are_friendly() {
        assert!(dispatch(&args(&["run", "/nonexistent.s"]))
            .unwrap_err()
            .0
            .contains("cannot read"));
        assert!(dispatch(&args(&["frobnicate"]))
            .unwrap_err()
            .0
            .contains("unknown command"));
        let bad = write_temp("bad.s", "frobnicate r1\n");
        assert!(dispatch(&args(&["run", bad.to_str().unwrap()]))
            .unwrap_err()
            .0
            .contains("parse error"));
    }

    #[test]
    fn help_text() {
        assert!(dispatch(&[]).unwrap().contains("USAGE"));
        assert!(dispatch(&args(&["help"])).unwrap().contains("sofi"));
        assert!(dispatch(&[]).unwrap().contains("sofi serve"));
    }

    #[test]
    fn unknown_flags_are_named() {
        let p = write_temp("hi7.s", HI);
        let err = dispatch(&args(&["campaign", p.to_str().unwrap(), "--frobnicate"]))
            .unwrap_err()
            .0;
        assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
        assert!(
            err.contains("--threads"),
            "should list accepted flags: {err}"
        );
        // A typo'd flag taking a value is still caught, not swallowed as
        // a positional.
        let err = dispatch(&args(&["run", p.to_str().unwrap(), "--limits", "5"]))
            .unwrap_err()
            .0;
        assert!(err.contains("unknown flag `--limits`"), "{err}");
    }

    #[test]
    fn campaign_threads_flag() {
        let p = write_temp("hi8.s", HI);
        let sequential = dispatch(&args(&["campaign", p.to_str().unwrap(), "--threads", "1"]));
        let parallel = dispatch(&args(&["campaign", p.to_str().unwrap(), "--threads", "4"]));
        assert_eq!(sequential.unwrap(), parallel.unwrap());
        let err = dispatch(&args(&[
            "campaign",
            p.to_str().unwrap(),
            "--threads",
            "lots",
        ]))
        .unwrap_err()
        .0;
        assert!(err.contains("--threads expects a number"), "{err}");
    }

    #[test]
    fn campaign_telemetry_flag_writes_snapshot_json() {
        let p = write_temp("hi10.s", HI);
        let out_path = std::env::temp_dir().join("sofi-cli-tests/hi10.telemetry.json");
        let out = dispatch(&args(&[
            "campaign",
            p.to_str().unwrap(),
            "--telemetry",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("F = 48"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        let parsed = sofi_report::Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(sofi_report::Json::as_str),
            Some(sofi_report::TELEMETRY_SCHEMA)
        );
        let experiments = parsed
            .get("counters")
            .and_then(|c| c.get("executor.experiments"))
            .and_then(sofi_report::Json::as_u64);
        assert!(experiments.is_some_and(|n| n > 0), "{json}");
        assert!(
            parsed
                .get("histograms")
                .and_then(|h| h.get("executor.faulted_run_cycles"))
                .is_some(),
            "{json}"
        );
    }

    #[test]
    fn submit_rejects_conflicting_domains() {
        let p = write_temp("hi9.s", HI);
        let err = dispatch(&args(&[
            "submit",
            p.to_str().unwrap(),
            "--registers",
            "--memory",
        ]))
        .unwrap_err()
        .0;
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn client_commands_fail_cleanly_without_daemon() {
        // Port 1 on localhost is never listening in the test environment.
        let err = dispatch(&args(&["status", "--addr", "127.0.0.1:1"]))
            .unwrap_err()
            .0;
        assert!(err.contains("cannot connect"), "{err}");
        let err = dispatch(&args(&["stats", "--addr", "127.0.0.1:1"]))
            .unwrap_err()
            .0;
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn worker_requires_connect() {
        let err = dispatch(&args(&["worker"])).unwrap_err().0;
        assert!(err.contains("--connect"), "{err}");
        let err = dispatch(&args(&["worker", "--connect", "x", "--frob"]))
            .unwrap_err()
            .0;
        assert!(err.contains("unknown flag `--frob`"), "{err}");
    }

    #[test]
    fn serve_rejects_zero_lease() {
        let err = dispatch(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--lease-ms",
            "0",
        ]))
        .unwrap_err()
        .0;
        assert!(err.contains("--lease-ms must be positive"), "{err}");
    }

    #[test]
    fn stats_rejects_bad_job_id() {
        let err = dispatch(&args(&["stats", "seven"])).unwrap_err().0;
        assert!(err.contains("job id must be a number"), "{err}");
    }
}
