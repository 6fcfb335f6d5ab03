//! The campaign executor.

use crate::config::CampaignConfig;
use crate::outcome::Outcome;
use crate::result::{CampaignResult, ExperimentResult, FaultDomain};
use sofi_isa::Program;
use sofi_machine::{
    AccessKind, BlockStats, CfFault, ConvergenceMask, ExternalEvent, Machine, StateDigest,
};
use sofi_space::{DefUseAnalysis, Experiment, InjectionPlan};
use sofi_telemetry::{names, LocalHistogram, Registry};
use sofi_trace::{GoldenError, GoldenRun};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default cycle limit for capturing golden runs.
const GOLDEN_CYCLE_LIMIT: u64 = 50_000_000;

/// Instrumentation from one executor invocation, used by scheduling
/// regression tests, the campaign bench, and the EXPERIMENTS.md bench
/// evidence.
///
/// `pristine_cycles` counts only forward simulation of *pristine*
/// machines performed during the call (advancing to injection points);
/// the one-time checkpoint construction (at most one golden runtime,
/// amortized over every subsequent run of the campaign) is not included.
/// `faulted_cycles` counts the cycles actually simulated inside faulted
/// runs, so `faulted_cycles_saved / (faulted_cycles +
/// faulted_cycles_saved)` is the fraction of faulted simulation work the
/// convergence optimization eliminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorStats {
    /// Workers that actually executed experiments.
    pub workers: usize,
    /// Experiments executed.
    pub experiments: u64,
    /// Total pristine forward-simulation cycles across all workers.
    pub pristine_cycles: u64,
    /// Cycles simulated inside faulted runs (injection to termination —
    /// natural or early).
    pub faulted_cycles: u64,
    /// Experiments classified early because the faulted machine's
    /// architectural state converged back onto a pristine checkpoint.
    pub converged_early: u64,
    /// Faulted cycles *not* simulated thanks to convergence termination:
    /// a converged run is provably identical to golden for its remaining
    /// `golden_cycles − checkpoint_cycle` tail.
    pub faulted_cycles_saved: u64,
    /// Successful fault-equivalence cache lookups: experiments resolved
    /// without simulation at the injection point, plus running
    /// experiments resolved at a checkpoint crossing by re-entering an
    /// already-explored trajectory. An experiment can contribute both a
    /// miss (at injection) and a hit (mid-run), so `memo_hits +
    /// memo_misses` may exceed `experiments`.
    pub memo_hits: u64,
    /// Experiments whose injection-point memo lookup missed (the run was
    /// simulated and its state digests inserted into the cache).
    pub memo_misses: u64,
    /// Faulted cycles *not* simulated thanks to memo hits: the cached
    /// final cycle minus the cycle at which the hit occurred.
    pub memoized_cycles_saved: u64,
    /// Worker shards that finished with memo probing still enabled (the
    /// cost-model gate judged probing profitable, or
    /// [`Campaign::set_memo_harvest`] locked it on).
    pub gate_shards_on: u64,
    /// Worker shards where the cost-model gate disabled memo probing —
    /// a priori (program too short for a probe to ever pay) or after
    /// sampling showed measured probe cost dominating observed savings.
    pub gate_shards_off: u64,
    /// Memo hits served from entries preloaded out of a persistent
    /// cross-campaign warm store ([`Campaign::preload_memo`]) — a subset
    /// of `memo_hits`, separated so repeat submissions can report how
    /// much the daemon's store answered without simulation.
    pub store_hits: u64,
}

impl ExecutorStats {
    /// Fraction of experiments that early-terminated via convergence.
    pub fn early_termination_rate(&self) -> f64 {
        if self.experiments == 0 {
            0.0
        } else {
            self.converged_early as f64 / self.experiments as f64
        }
    }

    /// Fraction of memo lookups that hit (`0.0` when no lookup ran).
    pub fn memo_hit_rate(&self) -> f64 {
        let lookups = self.memo_hits + self.memo_misses;
        if lookups == 0 {
            0.0
        } else {
            self.memo_hits as f64 / lookups as f64
        }
    }

    /// Folds a worker's counters into this (campaign-level) record.
    /// Associative and commutative, with `ExecutorStats::default()` as
    /// the identity (`tests/stats_merge.rs`), so campaign totals do not
    /// depend on worker join order or on how shards were grouped.
    pub fn absorb(&mut self, worker: &ExecutorStats) {
        self.workers += worker.workers;
        self.experiments += worker.experiments;
        self.pristine_cycles += worker.pristine_cycles;
        self.faulted_cycles += worker.faulted_cycles;
        self.converged_early += worker.converged_early;
        self.faulted_cycles_saved += worker.faulted_cycles_saved;
        self.memo_hits += worker.memo_hits;
        self.memo_misses += worker.memo_misses;
        self.memoized_cycles_saved += worker.memoized_cycles_saved;
        self.gate_shards_on += worker.gate_shards_on;
        self.gate_shards_off += worker.gate_shards_off;
        self.store_hits += worker.store_hits;
    }

    /// Folds the counters of one *sequentially executed* batch or shard
    /// into this record. Identical to [`ExecutorStats::absorb`] except
    /// for `workers`, which reports the peak per-batch worker count
    /// rather than a meaningless batch-count multiple: batches of one
    /// job run one after another (locally) or on independently sized
    /// remote pools, so summing them would inflate the figure with every
    /// committed batch. This is the merge the serve coordinator applies
    /// to journal-replayed batches and remote shard uploads alike.
    pub fn absorb_batch(&mut self, batch: &ExecutorStats) {
        let workers = self.workers.max(batch.workers);
        self.absorb(batch);
        self.workers = workers;
    }

    /// Fraction of memo hits answered by warm-store-preloaded entries
    /// (`0.0` when nothing hit).
    pub fn store_hit_rate(&self) -> f64 {
        let lookups = self.memo_hits + self.memo_misses;
        if lookups == 0 {
            0.0
        } else {
            self.store_hits as f64 / lookups as f64
        }
    }
}

/// Where a memo entry came from — provenance drives both the
/// `store_hits` accounting (hits on [`MemoOrigin::Store`] entries) and
/// [`Campaign::export_memo`] (only [`MemoOrigin::Fresh`] entries are
/// worth persisting: seeds are recomputed per campaign and store
/// entries are already persisted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoOrigin {
    /// Recorded by a simulated run in this campaign.
    Fresh,
    /// Pre-seeded pristine checkpoint state.
    Seed,
    /// Preloaded from a persistent cross-campaign warm store.
    Store,
}

/// One memoized outcome: what a run in this exact architectural state
/// classified as, and the cycle at which it finished (for the
/// cycles-saved accounting on later hits).
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    outcome: Outcome,
    final_cycle: u64,
    origin: MemoOrigin,
}

/// One exportable fault-equivalence memo entry: a `(cycle, digest) →
/// (outcome, final_cycle)` fact that holds for any campaign over the
/// same program, event schedule and outcome-relevant configuration
/// (cycle budget, serial limit). The `sofi-serve` daemon journals these
/// in its persistent warm store and feeds them back into later
/// campaigns via [`Campaign::preload_memo`]; the digest is purely
/// content-determined, so records survive process restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoRecord {
    /// Cycle coordinate of the memoized state.
    pub cycle: u64,
    /// Architectural-state digest at that cycle.
    pub digest: StateDigest,
    /// Outcome every run passing through this state classifies as.
    pub outcome: Outcome,
    /// Cycle at which such a run finishes (for cycles-saved accounting).
    pub final_cycle: u64,
}

/// The per-campaign fault-equivalence memo: `(cycle, state digest) →
/// outcome`. Shared (`Arc`) between campaign clones and across worker
/// threads and fault domains — a register-domain injection and a
/// memory-domain injection that produce the same machine state are the
/// same experiment dynamically, and either may pay for the other.
///
/// Soundness: the machine is deterministic and the cycle budget is a
/// campaign constant, so the full architectural state at a given cycle
/// determines the rest of the run — final status, serial output and
/// detection count — and therefore the outcome. [`Machine::state_digest`]
/// covers exactly that state (128 bits, so a wrong hit needs a hash
/// collision); `tests/memoization_oracle.rs` and the fuzz battery hold
/// the memoized executor to bit-identical results against naive replay.
#[derive(Debug, Default)]
struct MemoCache {
    entries: Mutex<HashMap<(u64, StateDigest), MemoEntry>>,
}

impl MemoCache {
    fn get(&self, key: &(u64, StateDigest)) -> Option<MemoEntry> {
        self.entries.lock().unwrap().get(key).copied()
    }

    /// Inserts `entry` under every key, keeping existing entries (any
    /// previously recorded outcome for the same state is equally valid).
    fn insert_all(&self, keys: &[(u64, StateDigest)], entry: MemoEntry) {
        if keys.is_empty() {
            return;
        }
        let mut map = self.entries.lock().unwrap();
        for &key in keys {
            map.entry(key).or_insert(entry);
        }
    }

    fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }
}

/// A prepared fault-injection campaign: program, golden run, def/use
/// analysis and pruned plan, ready to execute scans or samples.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Campaign {
    program: Program,
    events: Vec<ExternalEvent>,
    golden: GoldenRun,
    /// The equivalence analysis and pruned plan of each fault domain
    /// (indexed by `FaultDomain as usize`), built on first use: a
    /// campaign pays only for the domains it scans.
    analyses: [OnceLock<(DefUseAnalysis, InjectionPlan)>; FaultDomain::ALL.len()],
    config: CampaignConfig,
    /// Evenly spaced pristine-machine snapshots plus the liveness mask at
    /// each snapshot cycle, built lazily on first use. Workers start
    /// mid-run from the nearest snapshot instead of re-simulating from
    /// cycle 0, and faulted runs compare against the snapshots to
    /// early-terminate once they have converged back onto the golden run.
    checkpoints: OnceLock<Vec<Checkpoint>>,
    /// Fault-equivalence outcome memo (see [`MemoCache`]).
    memo: Arc<MemoCache>,
    /// Set via [`Campaign::set_memo_harvest`] when this campaign feeds a
    /// persistent warm store: the cost gate then keeps probing locked on
    /// (shared by clones, like the memo itself).
    memo_harvest: Arc<AtomicBool>,
    /// Runtime observability ([`sofi_telemetry::Registry`]): phase spans,
    /// per-experiment histograms and executor counters. Disabled (all
    /// no-ops) unless [`CampaignConfig::telemetry`] is set or an enabled
    /// registry is passed to [`Campaign::with_events_telemetry`]. Clones
    /// of the campaign share the registry.
    telemetry: Registry,
}

/// Per-worker telemetry handles, resolved once before the experiment
/// loop so the hot path never touches the registry's name maps. The
/// per-experiment histograms go through [`LocalHistogram`] write-behind
/// buffers (plain unsynchronized increments, drained once per shard by
/// [`WorkerTel::flush`]), and memo-probe latency is *sampled* — one
/// timed probe in [`PROBE_SAMPLE`] — so the clock reads stay off the
/// common path. When the registry is disabled every record is a single
/// never-taken branch and no clock is ever read.
struct WorkerTel {
    registry: Registry,
    faulted_run_cycles: LocalHistogram,
    restore_distance: LocalHistogram,
    memo_probe_ns: LocalHistogram,
    dispatch_ns: LocalHistogram,
    probe_tick: Cell<u64>,
    dispatch_tick: Cell<u64>,
}

/// One memo probe (and one faulted-run dispatch) in this many is timed
/// into [`names::MEMO_PROBE_NS`] ([`names::DISPATCH_NS`]); the first is
/// always timed, so short campaigns still populate the histograms.
const PROBE_SAMPLE: u64 = 64;

impl WorkerTel {
    fn new(registry: &Registry) -> WorkerTel {
        WorkerTel {
            registry: registry.clone(),
            faulted_run_cycles: LocalHistogram::new(registry.histogram(names::FAULTED_RUN_CYCLES)),
            restore_distance: LocalHistogram::new(
                registry.histogram(names::RESTORE_DISTANCE_CYCLES),
            ),
            memo_probe_ns: LocalHistogram::new(registry.histogram(names::MEMO_PROBE_NS)),
            dispatch_ns: LocalHistogram::new(registry.histogram(names::DISPATCH_NS)),
            probe_tick: Cell::new(0),
            dispatch_tick: Cell::new(0),
        }
    }

    /// Runs one faulted-run dispatch, latency-sampled (1 in
    /// [`PROBE_SAMPLE`]) into [`names::DISPATCH_NS`] when telemetry is
    /// enabled — the per-experiment wall-clock the block engine drives
    /// down.
    fn timed_dispatch(&self, f: impl FnOnce() -> Outcome) -> Outcome {
        if self.dispatch_ns.is_enabled() {
            let tick = self.dispatch_tick.get();
            self.dispatch_tick.set(tick + 1);
            if tick.is_multiple_of(PROBE_SAMPLE) {
                let start = Instant::now();
                let outcome = f();
                self.dispatch_ns
                    .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                return outcome;
            }
        }
        f()
    }

    /// A memo-cache lookup, latency-sampled when telemetry is enabled.
    fn probe(&self, memo: &MemoCache, key: &(u64, StateDigest)) -> Option<MemoEntry> {
        if self.memo_probe_ns.is_enabled() {
            let tick = self.probe_tick.get();
            self.probe_tick.set(tick + 1);
            if tick.is_multiple_of(PROBE_SAMPLE) {
                let start = Instant::now();
                let hit = memo.get(key);
                self.memo_probe_ns
                    .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                return hit;
            }
        }
        memo.get(key)
    }

    /// Drains the histogram buffers and mirrors the worker's final
    /// counters into the registry — once per shard, off the
    /// per-experiment path. `blocks` carries the execution-engine
    /// dispatch counters accumulated across this worker's faulted runs.
    fn flush(&self, stats: &ExecutorStats, blocks: &BlockStats) {
        self.faulted_run_cycles.flush();
        self.restore_distance.flush();
        self.memo_probe_ns.flush();
        self.dispatch_ns.flush();
        if !self.registry.is_enabled() {
            return;
        }
        self.registry
            .counter(names::EXPERIMENTS)
            .add(stats.experiments);
        self.registry
            .counter(names::CONVERGED_EARLY)
            .add(stats.converged_early);
        self.registry.counter(names::MEMO_HITS).add(stats.memo_hits);
        self.registry
            .counter(names::MEMO_MISSES)
            .add(stats.memo_misses);
        self.registry
            .counter(names::GATE_SHARDS_ON)
            .add(stats.gate_shards_on);
        self.registry
            .counter(names::GATE_SHARDS_OFF)
            .add(stats.gate_shards_off);
        self.registry
            .counter(names::STORE_HITS)
            .add(stats.store_hits);
        self.registry
            .counter(names::BLOCK_CYCLES)
            .add(blocks.block_cycles);
        self.registry
            .counter(names::STEP_CYCLES)
            .add(blocks.step_cycles);
        self.registry
            .counter(names::BLOCKS_EXECUTED)
            .add(blocks.blocks);
    }
}

/// One probe (digest + lookup) and one faulted dispatch in this many is
/// wall-clock timed by the cost-model gate while it is still deciding.
const GATE_SAMPLE: u64 = 4;

/// A priori gate cut: with a cold cache, a program whose entire golden
/// runtime is this short can never pay for a probe — even a 100%-hit
/// campaign saves at most `golden_cycles` of simulation per experiment,
/// which is less than the fixed cost of one digest-plus-lookup.
const GATE_MIN_GOLDEN_CYCLES: u64 = 64;

/// First experiment count at which the gate applies the full measured
/// cost-vs-savings rule (reviews happen at every power of two).
const GATE_FULL_REVIEW: u64 = 32;

/// Cost-model gate state for one worker shard. The gate decides whether
/// memo probing — one state digest plus a shared-map lookup at the injection
/// point and at every checkpoint crossing — pays for itself on this
/// shard, by sampling the wall-clock cost of probes and of faulted
/// simulation and comparing measured probe spend against the simulation
/// time the observed hits avoided. Probing switches off at most once
/// per shard (no flapping); outcomes are identical either way because
/// the gate only skips lookups and insertions, never invents results.
struct MemoGate {
    /// Memo probing currently enabled for this shard.
    probing: bool,
    /// The gate is sampling and may still switch probing off. False in
    /// harvest mode, after an a-priori cut, or after a decision.
    deciding: bool,
    /// Probes issued so far while probing.
    probes: u64,
    /// Sampled probe wall-clock (1 in [`GATE_SAMPLE`]).
    sampled_probe_ns: u64,
    sampled_probes: u64,
    /// Sampled faulted-run wall-clock and the cycles those runs
    /// simulated (pure memo hits — zero cycles — are excluded, so the
    /// ratio estimates ns per *simulated* cycle).
    sampled_run_ns: u64,
    sampled_run_cycles: u64,
    run_tick: u64,
}

impl MemoGate {
    /// Builds the shard's gate. `golden_cycles` and `warm_cache` feed
    /// the a-priori cut: a cold-cache campaign over a program shorter
    /// than [`GATE_MIN_GOLDEN_CYCLES`] disables probing outright (a
    /// warm cache — preloaded store entries or an earlier domain's
    /// trajectories — can hit at the injection point, which pays at any
    /// program length, so it always gets a measured trial). With
    /// `harvest` set ([`Campaign::set_memo_harvest`]) probing is locked
    /// on and never reviewed: the campaign's probes also produce the
    /// outcome facts a persistent warm store amortizes across future
    /// submissions, so "does probing pay within this one campaign" is
    /// the wrong question to ask.
    fn new(golden_cycles: u64, warm_cache: bool, harvest: bool) -> MemoGate {
        let a_priori_off = !harvest && !warm_cache && golden_cycles < GATE_MIN_GOLDEN_CYCLES;
        MemoGate {
            probing: !a_priori_off,
            deciding: !harvest && !a_priori_off,
            probes: 0,
            sampled_probe_ns: 0,
            sampled_probes: 0,
            sampled_run_ns: 0,
            sampled_run_cycles: 0,
            run_tick: 0,
        }
    }

    /// One memo probe: digests `m` and looks the key up, wall-clock
    /// sampled while the gate is deciding. Returns the key (a waypoint
    /// candidate) and the lookup result.
    fn probe(
        &mut self,
        tel: &WorkerTel,
        memo: &MemoCache,
        m: &mut Machine,
    ) -> ((u64, StateDigest), Option<MemoEntry>) {
        self.probes += 1;
        if self.deciding && self.probes.is_multiple_of(GATE_SAMPLE) {
            let start = Instant::now();
            let key = (m.cycle(), m.state_digest());
            let hit = tel.probe(memo, &key);
            self.sampled_probe_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.sampled_probes += 1;
            (key, hit)
        } else {
            let key = (m.cycle(), m.state_digest());
            (key, tel.probe(memo, &key))
        }
    }

    /// Whether the next faulted dispatch should be wall-clock timed for
    /// the gate's ns-per-cycle estimate.
    fn wants_run_sample(&mut self) -> bool {
        if !self.deciding {
            return false;
        }
        let tick = self.run_tick;
        self.run_tick += 1;
        tick.is_multiple_of(GATE_SAMPLE)
    }

    /// Records one timed faulted dispatch (skipped when the run was a
    /// pure memo hit and simulated nothing).
    fn record_run(&mut self, ns: u64, cycles: u64) {
        if cycles > 0 {
            self.sampled_run_ns += ns;
            self.sampled_run_cycles += cycles;
        }
    }

    /// Reviews the decision after `experiments` completed experiments
    /// (cheap: only acts at powers of two). Before [`GATE_FULL_REVIEW`]
    /// experiments only the hopeless case is cut — zero hits while
    /// measured probe spend already exceeds all simulation time — so
    /// campaigns whose hit rate ramps slowly (cold register-domain
    /// scans) are not written off early. From [`GATE_FULL_REVIEW`] on,
    /// probing must keep measured cost within twice the simulation time
    /// its hits saved.
    fn review(&mut self, experiments: u64, stats: &ExecutorStats) {
        if !self.deciding || experiments < 4 || !experiments.is_power_of_two() {
            return;
        }
        if self.sampled_probes == 0 || self.sampled_run_cycles == 0 {
            return; // nothing measured yet (e.g. every run hit at injection)
        }
        let avg_probe_ns = self.sampled_probe_ns as f64 / self.sampled_probes as f64;
        let cost_ns = self.probes as f64 * avg_probe_ns;
        let ns_per_cycle = self.sampled_run_ns as f64 / self.sampled_run_cycles as f64;
        let saved_ns = stats.memoized_cycles_saved as f64 * ns_per_cycle;
        let sim_ns = stats.faulted_cycles as f64 * ns_per_cycle;
        let off = if experiments < GATE_FULL_REVIEW {
            stats.memo_hits == 0 && cost_ns > sim_ns
        } else {
            cost_ns > 2.0 * saved_ns
        };
        if off {
            self.probing = false;
            self.deciding = false;
        } else if experiments >= GATE_FULL_REVIEW {
            // Probing has proven itself on real volume; stop sampling
            // (and stop paying for the clock) for the rest of the shard.
            self.deciding = false;
        }
    }
}

/// One pristine snapshot: the machine state after `machine.cycle()`
/// instructions, the set of RAM bytes / registers that are still *live*
/// (readable before being rewritten) from that cycle on, and the
/// snapshot's architectural-state digest (used to pre-seed the memo:
/// a faulted run in *exactly* this state replays the golden tail).
#[derive(Debug, Clone)]
struct Checkpoint {
    machine: Machine,
    mask: ConvergenceMask,
    digest: StateDigest,
}

impl Campaign {
    /// Prepares a campaign: captures the golden run. Each fault domain's
    /// analysis and pruned plan are computed when first needed.
    ///
    /// # Errors
    ///
    /// Returns [`GoldenError`] if the fault-free program does not terminate
    /// cleanly within 50 M cycles.
    pub fn new(program: &Program) -> Result<Campaign, GoldenError> {
        Campaign::with_config(program, CampaignConfig::default())
    }

    /// [`Campaign::new`] with explicit execution parameters.
    ///
    /// # Errors
    ///
    /// Same as [`Campaign::new`].
    pub fn with_config(program: &Program, config: CampaignConfig) -> Result<Campaign, GoldenError> {
        Campaign::with_events(program, config, Vec::new())
    }

    /// [`Campaign::with_config`] plus a deterministic external-event
    /// schedule, replayed identically in the golden run and in every
    /// experiment (§II-C).
    ///
    /// # Errors
    ///
    /// Same as [`Campaign::new`].
    pub fn with_events(
        program: &Program,
        config: CampaignConfig,
        events: Vec<ExternalEvent>,
    ) -> Result<Campaign, GoldenError> {
        let telemetry = Registry::with_enabled(config.telemetry);
        Campaign::with_events_telemetry(program, config, events, telemetry)
    }

    /// [`Campaign::with_config`] recording into a caller-supplied
    /// telemetry registry (the campaign daemon passes a per-job registry
    /// here; an enabled registry wins over `config.telemetry`).
    ///
    /// # Errors
    ///
    /// Same as [`Campaign::new`].
    pub fn with_config_telemetry(
        program: &Program,
        config: CampaignConfig,
        telemetry: Registry,
    ) -> Result<Campaign, GoldenError> {
        Campaign::with_events_telemetry(program, config, Vec::new(), telemetry)
    }

    /// [`Campaign::with_events`] recording into a caller-supplied
    /// telemetry registry. Golden-run capture is timed as a span here,
    /// which is why the registry must exist before construction rather
    /// than being attached afterwards.
    ///
    /// # Errors
    ///
    /// Same as [`Campaign::new`].
    pub fn with_events_telemetry(
        program: &Program,
        config: CampaignConfig,
        events: Vec<ExternalEvent>,
        telemetry: Registry,
    ) -> Result<Campaign, GoldenError> {
        let golden = {
            let _span = telemetry.span(names::SPAN_GOLDEN_RUN_NS);
            GoldenRun::capture_with_events(
                program,
                GOLDEN_CYCLE_LIMIT,
                config.machine,
                events.clone(),
            )?
        };
        Ok(Campaign {
            program: program.clone(),
            events,
            golden,
            analyses: [const { OnceLock::new() }; FaultDomain::ALL.len()],
            config,
            checkpoints: OnceLock::new(),
            memo: Arc::new(MemoCache::default()),
            memo_harvest: Arc::new(AtomicBool::new(false)),
            telemetry,
        })
    }

    /// The campaign's telemetry registry (disabled — snapshots empty —
    /// unless enabled at construction).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The golden (reference) run.
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The def/use analysis of the golden run (memory domain; the
    /// shorthand for `analysis_for(FaultDomain::Memory)`).
    pub fn analysis(&self) -> &DefUseAnalysis {
        self.analysis_for(FaultDomain::Memory)
    }

    /// The pruned injection plan (memory domain; the shorthand for
    /// `plan_for(FaultDomain::Memory)`).
    pub fn plan(&self) -> &InjectionPlan {
        self.plan_for(FaultDomain::Memory)
    }

    /// The (analysis, plan) pair of `domain`, built on first use. Building
    /// a data domain's pair is timed as [`names::SPAN_DEFUSE_NS`].
    fn pair(&self, domain: FaultDomain) -> &(DefUseAnalysis, InjectionPlan) {
        self.analyses[domain as usize].get_or_init(|| {
            let golden = &self.golden;
            let rom_len = self.program.insts.len();
            let _span = matches!(domain, FaultDomain::Memory | FaultDomain::RegisterFile)
                .then(|| self.telemetry.span(names::SPAN_DEFUSE_NS));
            let analysis = match domain {
                FaultDomain::Memory => DefUseAnalysis::from_golden(golden),
                FaultDomain::RegisterFile => {
                    DefUseAnalysis::from_timelines(&golden.reg_timelines(), golden.cycles)
                }
                FaultDomain::InstrSkip => sofi_space::instr_skip_analysis(golden, rom_len),
                FaultDomain::OpcodeBit => sofi_space::opcode_bit_analysis(golden, rom_len),
                FaultDomain::BranchInvert => sofi_space::branch_invert_analysis(golden),
            };
            let plan = analysis.plan();
            (analysis, plan)
        })
    }

    /// The equivalence analysis for `domain` (def/use for the data
    /// domains — the register file's covers `Δt cycles × 480 register
    /// bits` with accesses recorded exactly as the datapath performs them,
    /// §VI-B — trace-based for the control-flow domains), built on first
    /// use.
    pub fn analysis_for(&self, domain: FaultDomain) -> &DefUseAnalysis {
        &self.pair(domain).0
    }

    /// The pruned injection plan for `domain` (the campaign service and
    /// other callers that carry the domain as data rather than picking an
    /// accessor statically).
    pub fn plan_for(&self, domain: FaultDomain) -> &InjectionPlan {
        &self.pair(domain).1
    }

    /// The program under test.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The deterministic external-event schedule (empty by default).
    pub fn events(&self) -> &[ExternalEvent] {
        &self.events
    }

    /// Executes the def/use-pruned full scan of the memory fault space:
    /// one experiment per equivalence class, covering the entire space
    /// exactly (the shorthand for `run_full_defuse_in(FaultDomain::Memory)`).
    pub fn run_full_defuse(&self) -> CampaignResult {
        self.run_full_defuse_in(FaultDomain::Memory)
    }

    /// Executes a brute-force scan of the memory fault space: one
    /// experiment for *every* raw coordinate, no pruning. Exponentially
    /// more experiments than [`Campaign::run_full_defuse`] — only for tiny
    /// programs and for validating that pruning is outcome-preserving.
    pub fn run_brute_force(&self) -> CampaignResult {
        self.run_brute_force_in(FaultDomain::Memory)
    }

    /// Executes the pruned full scan of `domain`'s fault space. Register
    /// file coordinates are `(cycle, (reg − 1)·32 + bit)` over `r1..r15`
    /// (§VI-B).
    pub fn run_full_defuse_in(&self, domain: FaultDomain) -> CampaignResult {
        self.run_plan_in(domain, self.plan_for(domain))
    }

    /// Brute-force scan of `domain`'s fault space — one experiment per
    /// raw coordinate, no pruning (tiny programs only; the oracle the
    /// pruning-soundness battery compares [`Campaign::run_full_defuse_in`]
    /// against).
    pub fn run_brute_force_in(&self, domain: FaultDomain) -> CampaignResult {
        let plan = InjectionPlan::full_scan(self.analysis_for(domain).space);
        self.run_plan_in(domain, &plan)
    }

    /// Executes an arbitrary plan with injections into the given domain.
    pub fn run_plan_in(&self, domain: FaultDomain, plan: &InjectionPlan) -> CampaignResult {
        self.run_plan_stats(domain, plan).0
    }

    /// [`Campaign::run_plan_in`] plus executor instrumentation, for
    /// reporting pristine/faulted cycle counts and convergence savings.
    pub fn run_plan_stats(
        &self,
        domain: FaultDomain,
        plan: &InjectionPlan,
    ) -> (CampaignResult, ExecutorStats) {
        let (results, stats) = self.run_experiments_stats(domain, &plan.experiments);
        (self.assemble_result(domain, plan, results), stats)
    }

    /// Builds the canonical [`CampaignResult`] for `plan` from per-experiment
    /// results produced in any order — by this process's executor or
    /// re-assembled from a `sofi-serve` journal after a crash. The output is
    /// bit-identical to [`Campaign::run_plan_stats`]'s result as long as
    /// `results` covers the plan exactly once per experiment (results are
    /// sorted by experiment id; metadata comes from the plan and golden run).
    pub fn assemble_result(
        &self,
        domain: FaultDomain,
        plan: &InjectionPlan,
        mut results: Vec<ExperimentResult>,
    ) -> CampaignResult {
        results.sort_by_key(|r| r.experiment.id);
        CampaignResult {
            benchmark: self.program.name.clone(),
            domain,
            space: plan.space,
            known_benign_weight: plan.known_benign_weight,
            golden_cycles: self.golden.cycles,
            results,
        }
    }

    /// Executes a list of experiments (any order) with injections into
    /// the given domain and returns their outcomes (unordered; callers
    /// sort as needed).
    pub fn run_experiments_in(
        &self,
        domain: FaultDomain,
        experiments: &[Experiment],
    ) -> Vec<ExperimentResult> {
        self.run_experiments_stats(domain, experiments).0
    }

    /// [`Campaign::run_experiments_in`] plus executor instrumentation.
    ///
    /// Parallel runs partition the cycle-sorted experiment list into one
    /// contiguous chunk per worker, balanced by cycle span (not by
    /// experiment count): each worker advances its own pristine machine
    /// over a disjoint cycle range, starting from the nearest
    /// [checkpoint](ExecutorStats). Total pristine forward simulation
    /// therefore stays within a small factor of the sequential executor
    /// instead of growing linearly with the worker count.
    ///
    /// Each faulted run pauses at every pristine checkpoint cycle it
    /// crosses and compares its architectural state against the stored
    /// snapshot ([`Machine::converged_with`]): on a match the rest of the
    /// run is provably identical to golden, so the outcome is classified
    /// immediately instead of simulating the tail.
    ///
    /// Each experiment's post-injection state digest is also looked up in
    /// the campaign's fault-equivalence memo — two injections that produce
    /// the identical architectural state at the same cycle have the
    /// identical outcome on a deterministic machine, so the second one is
    /// free. Lookups and insertions also happen at every checkpoint
    /// crossing, so runs converging *into* an explored trajectory hit
    /// mid-flight; the per-shard cost gate ([`MemoGate`]) skips probing
    /// where it cannot pay. Results are `assert_eq!`-identical to
    /// [`Campaign::run_experiments_naive`] (`tests/convergence_oracle.rs`,
    /// `tests/memoization_oracle.rs`).
    pub fn run_experiments_stats(
        &self,
        domain: FaultDomain,
        experiments: &[Experiment],
    ) -> (Vec<ExperimentResult>, ExecutorStats) {
        let threads = self
            .config
            .effective_threads()
            .min(experiments.len().max(1));
        let checkpoints = self.checkpoints();
        if threads <= 1 {
            let tel = WorkerTel::new(&self.telemetry);
            return self.run_worker(
                domain,
                self.fresh_machine(),
                experiments.iter().copied(),
                checkpoints,
                &tel,
            );
        }

        // Cycle-sort so every chunk is a contiguous injection-cycle range.
        let mut sorted = experiments.to_vec();
        sorted.sort_unstable_by_key(|e| (e.coord.cycle, e.coord.bit, e.id));
        let chunks = chunk_by_cycle_span(&sorted, threads);

        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    let start = self.machine_at(checkpoints, chunk[0].coord.pre_injection_cycle());
                    // Each worker records into a forked child registry;
                    // the parent absorbs them after join. Absorption is
                    // associative and commutative (sofi-telemetry's
                    // merge-law tests), so totals do not depend on the
                    // shard structure.
                    let child = self.telemetry.fork();
                    scope.spawn(move || {
                        let tel = WorkerTel::new(&child);
                        let part = self.run_worker(
                            domain,
                            start,
                            chunk.iter().copied(),
                            checkpoints,
                            &tel,
                        );
                        (part, child)
                    })
                })
                .collect();
            let joined: Vec<_> = handles
                .into_iter()
                .map(|handle| handle.join().expect("campaign worker panicked"))
                .collect();
            let merge_span = self.telemetry.span(names::SPAN_MERGE_NS);
            let mut stats = ExecutorStats::default();
            let mut results = Vec::with_capacity(sorted.len());
            for ((part, worker), child) in joined {
                stats.absorb(&worker);
                self.telemetry.absorb(&child);
                results.extend(part);
            }
            merge_span.finish();
            (results, stats)
        })
    }

    /// A pristine machine at cycle 0.
    fn fresh_machine(&self) -> Machine {
        Machine::with_events(&self.program, self.config.machine, self.events.clone())
    }

    /// The evenly spaced pristine snapshots, built on first use. The
    /// build costs at most one golden runtime (plus one liveness sweep
    /// over the golden access traces) and is amortized over every
    /// subsequent run. Convergence termination wants a reasonably dense
    /// grid (a faulted run keeps simulating until the next checkpoint
    /// even after its fault is masked), so the count floors at 64;
    /// snapshots are cheap because RAM pages are copy-on-write shared
    /// between them. Building them also pre-seeds the memo.
    fn checkpoints(&self) -> &[Checkpoint] {
        self.checkpoints.get_or_init(|| {
            let count = (8 * self.config.effective_threads() as u64).clamp(64, 256);
            let spacing = (self.golden.cycles / count).max(1);
            let mut machine = self.fresh_machine();
            let mut snapshots = Vec::new();
            let mut cycle = spacing;
            while cycle < self.golden.cycles {
                let early = machine.run_to(cycle);
                debug_assert!(early.is_none(), "golden run outlived itself");
                // Digesting the running machine (not the clone) keeps its
                // page-hash cache warm, so each snapshot digest only
                // re-hashes pages written since the previous checkpoint
                // and every clone of a snapshot inherits a warm cache.
                let digest = machine.state_digest();
                snapshots.push((machine.clone(), digest));
                cycle += spacing;
            }
            let cycles: Vec<u64> = snapshots.iter().map(|(m, _)| m.cycle()).collect();
            let masks = self.convergence_masks(&cycles);
            let checkpoints: Vec<Checkpoint> = snapshots
                .into_iter()
                .zip(masks)
                .map(|((machine, digest), mask)| Checkpoint {
                    machine,
                    mask,
                    digest,
                })
                .collect();
            self.seed_memo(&checkpoints);
            checkpoints
        })
    }

    /// Pre-seeds the memo with every pristine checkpoint state: a faulted
    /// run whose architectural state is *exactly* the pristine machine's
    /// at a checkpoint cycle (fault fully overwritten, no output or
    /// detection divergence — the digest covers all of it) replays the
    /// golden tail verbatim and is [`Outcome::NoEffect`] by construction.
    fn seed_memo(&self, checkpoints: &[Checkpoint]) {
        let keys: Vec<(u64, StateDigest)> = checkpoints
            .iter()
            .map(|c| (c.machine.cycle(), c.digest))
            .collect();
        self.memo.insert_all(
            &keys,
            MemoEntry {
                outcome: Outcome::NoEffect,
                final_cycle: self.golden.cycles,
                origin: MemoOrigin::Seed,
            },
        );
    }

    /// Marks this campaign as feeding a persistent warm store: the cost
    /// gate keeps memo probing locked on for every shard, short golden
    /// runs included, because the probes' outcome facts are exported
    /// ([`Campaign::export_memo`]) and amortized across future
    /// submissions over the same context — even when probing cannot pay
    /// for itself within this single campaign.
    pub fn set_memo_harvest(&self) {
        self.memo_harvest.store(true, Ordering::Relaxed);
    }

    /// Exports the fault-equivalence facts *this campaign's runs*
    /// established: every [`MemoOrigin::Fresh`] entry, sorted by
    /// `(cycle, digest)` for deterministic output. Pre-seeded checkpoint
    /// states and entries preloaded via [`Campaign::preload_memo`] are
    /// excluded — the former are recomputed per campaign, the latter are
    /// already persisted wherever they came from.
    pub fn export_memo(&self) -> Vec<MemoRecord> {
        let map = self.memo.entries.lock().unwrap();
        let mut out: Vec<MemoRecord> = map
            .iter()
            .filter(|(_, e)| e.origin == MemoOrigin::Fresh)
            .map(|(&(cycle, digest), e)| MemoRecord {
                cycle,
                digest,
                outcome: e.outcome,
                final_cycle: e.final_cycle,
            })
            .collect();
        drop(map);
        out.sort_by_key(|r| (r.cycle, r.digest.to_bits()));
        out
    }

    /// Preloads externally persisted fault-equivalence facts (from the
    /// `sofi-serve` warm store, or a previous campaign's
    /// [`Campaign::export_memo`]) into the memo. Existing entries win;
    /// preloaded entries are tagged [`MemoOrigin::Store`] so hits on
    /// them are counted separately ([`ExecutorStats::store_hits`]) and
    /// they are not re-exported.
    ///
    /// Soundness is the caller's contract: records must come from a
    /// campaign over the same program, event schedule, cycle budget and
    /// serial limit (the daemon keys its store by exactly that context).
    pub fn preload_memo(&self, records: &[MemoRecord]) {
        if records.is_empty() {
            return;
        }
        let mut map = self.memo.entries.lock().unwrap();
        for r in records {
            map.entry((r.cycle, r.digest)).or_insert(MemoEntry {
                outcome: r.outcome,
                final_cycle: r.final_cycle,
                origin: MemoOrigin::Store,
            });
        }
    }

    /// Clears the fault-equivalence memo (re-seeding the pristine
    /// checkpoint states). Outcomes never depend on cache contents; this
    /// exists so benchmarks and oracles can run cold-cache campaigns.
    pub fn reset_memo(&self) {
        self.memo.clear();
        if let Some(checkpoints) = self.checkpoints.get() {
            self.seed_memo(checkpoints);
        }
    }

    /// Computes, for each snapshot, which RAM bytes and registers are
    /// still live there: a location is live after cycle `c` iff its first
    /// access in the golden trace after `c` is a read. Dead locations are
    /// rewritten before any read (or never touched again), so a faulted
    /// run may differ there and still be observationally identical to
    /// golden — [`Machine::converged_with_masked`] exploits exactly this.
    fn convergence_masks(&self, snapshot_cycles: &[u64]) -> Vec<ConvergenceMask> {
        let ram_bytes = (self.golden.ram_bits / 8) as usize;
        // Access history per RAM byte and per register, in execution
        // order (the traces are cycle-sorted already).
        let mut mem: Vec<Vec<(u64, bool)>> = vec![Vec::new(); ram_bytes];
        for a in &self.golden.trace {
            let read = a.kind == AccessKind::Read;
            for b in a.addr..a.addr + a.width.bytes() {
                mem[b as usize].push((a.cycle, read));
            }
        }
        let mut regs: [Vec<(u64, bool)>; 16] = Default::default();
        for a in &self.golden.reg_trace {
            regs[a.reg.index()].push((a.cycle, a.kind == AccessKind::Read));
        }
        let live_after = |hist: &[(u64, bool)], c: u64| {
            let next = hist.partition_point(|&(cycle, _)| cycle <= c);
            matches!(hist.get(next), Some(&(_, true)))
        };
        snapshot_cycles
            .iter()
            .map(|&c| {
                let mut ram_live = vec![0u8; ram_bytes.div_ceil(8)];
                for (b, hist) in mem.iter().enumerate() {
                    if live_after(hist, c) {
                        ram_live[b / 8] |= 1 << (b % 8);
                    }
                }
                let mut reg_live = 0u16;
                for (r, hist) in regs.iter().enumerate() {
                    if live_after(hist, c) {
                        reg_live |= 1 << r;
                    }
                }
                ConvergenceMask { ram_live, reg_live }
            })
            .collect()
    }

    /// Clones the latest checkpoint at or before `cycle` (a fresh
    /// machine when none qualifies).
    fn machine_at(&self, checkpoints: &[Checkpoint], cycle: u64) -> Machine {
        match checkpoints.partition_point(|c| c.machine.cycle() <= cycle) {
            0 => self.fresh_machine(),
            n => checkpoints[n - 1].machine.clone(),
        }
    }

    /// Naive reference executor: replays every experiment from cycle 0
    /// instead of forking a forward-running pristine machine. Costs
    /// `O(Σ cycle_i)` extra work, with no checkpoint, convergence or memo
    /// involved — the single oracle every executor optimization is held
    /// to (`tests/*_oracle.rs`) and the baseline of
    /// `benches/campaign.rs`.
    pub fn run_experiments_naive(
        &self,
        domain: FaultDomain,
        experiments: &[Experiment],
    ) -> Vec<ExperimentResult> {
        let budget = self.config.cycle_budget(self.golden.cycles);
        experiments
            .iter()
            .map(|&e| {
                let mut m =
                    Machine::with_events(&self.program, self.config.machine, self.events.clone());
                let early = m.run_to(e.coord.pre_injection_cycle());
                assert!(early.is_none(), "plan outlived the program");
                inject_fault(domain, &mut m, e.coord.bit);
                let status = m.run(budget);
                let outcome = Outcome::classify(status, m.serial(), m.detect_count(), &self.golden);
                ExperimentResult {
                    experiment: e,
                    outcome,
                }
            })
            .collect()
    }

    /// Sequential worker: advances a pristine machine monotonically along
    /// the (cycle-sorted) experiment stream and forks it per experiment.
    /// Returns the results plus this worker's counters.
    fn run_worker(
        &self,
        domain: FaultDomain,
        mut pristine: Machine,
        experiments: impl Iterator<Item = Experiment>,
        checkpoints: &[Checkpoint],
        tel: &WorkerTel,
    ) -> (Vec<ExperimentResult>, ExecutorStats) {
        let shard_span = tel.registry.span(names::SPAN_SHARD_NS);
        let mut stats = ExecutorStats {
            workers: 1,
            ..ExecutorStats::default()
        };
        let mut out = Vec::new();
        let mut block_totals = BlockStats::default();
        // A cache holding more than the per-checkpoint seeds is warm —
        // preloaded from the daemon's store or populated by an earlier
        // domain's runs over this shared campaign — and exempt from the
        // gate's a-priori short-program cut (injection-point hits pay at
        // any program length).
        let warm_cache = self.memo.len() > checkpoints.len();
        let mut gate = MemoGate::new(
            self.golden.cycles,
            warm_cache,
            self.memo_harvest.load(Ordering::Relaxed),
        );
        // The worker's start machine always comes from a checkpoint
        // restore (or a fresh machine), so the first advance is a
        // restore distance too.
        let mut restored = true;
        for e in experiments {
            let pre_cycle = e.coord.pre_injection_cycle();
            if pristine.cycle() > pre_cycle {
                // Out-of-order experiment: resume from the nearest
                // checkpoint at or before the injection point (a fresh
                // machine when none qualifies) instead of always
                // rebuilding from cycle 0.
                pristine = self.machine_at(checkpoints, pre_cycle);
                restored = true;
            }
            stats.pristine_cycles += pre_cycle - pristine.cycle();
            if restored {
                tel.restore_distance.record(pre_cycle - pristine.cycle());
                restored = false;
            }
            let early = pristine.run_to(pre_cycle);
            assert!(
                early.is_none(),
                "golden-derived plan outlived the program (cycle {})",
                e.coord.cycle
            );
            if gate.probing {
                // Warm the pristine machine's page-hash cache so the
                // fork's injection-point digest below only re-hashes the
                // page the bit-flip dirties (none, for register faults).
                let _ = pristine.state_digest();
            }
            let mut m = pristine.clone();
            inject_fault(domain, &mut m, e.coord.bit);
            let base = m.block_stats();
            let outcome = if gate.wants_run_sample() {
                let cycles_before = stats.faulted_cycles;
                let start = Instant::now();
                let outcome = tel.timed_dispatch(|| {
                    self.run_faulted(&mut m, checkpoints, &mut stats, tel, &mut gate)
                });
                gate.record_run(
                    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    stats.faulted_cycles - cycles_before,
                );
                outcome
            } else {
                tel.timed_dispatch(|| {
                    self.run_faulted(&mut m, checkpoints, &mut stats, tel, &mut gate)
                })
            };
            block_totals.absorb(m.block_stats().delta_since(base));
            stats.experiments += 1;
            gate.review(stats.experiments, &stats);
            out.push(ExperimentResult {
                experiment: e,
                outcome,
            });
        }
        if gate.probing {
            stats.gate_shards_on = 1;
        } else {
            stats.gate_shards_off = 1;
        }
        tel.flush(&stats, &block_totals);
        shard_span.finish();
        (out, stats)
    }

    /// Runs one faulted machine to its classification.
    ///
    /// The run pauses at every pristine
    /// checkpoint cycle it crosses. If the faulted machine's architectural
    /// state matches the snapshot there ([`Machine::converged_with`]),
    /// determinism makes the remaining tail identical to the golden run:
    /// it will halt cleanly at `golden_cycles` having emitted exactly the
    /// golden serial tail and `golden_detects − checkpoint_detects`
    /// further detections. The final classification is therefore fully
    /// determined at the checkpoint, without simulating the tail:
    ///
    /// * serial so far not a golden prefix → the complete output will
    ///   differ → [`Outcome::SilentDataCorruption`];
    /// * detections above the checkpoint's → the final count exceeds
    ///   golden's → [`Outcome::DetectedCorrected`];
    /// * otherwise → [`Outcome::NoEffect`].
    ///
    /// Convergence uses the *masked* comparison: RAM bytes and registers
    /// that the golden run rewrites before reading (or never touches
    /// again) are excluded, so faults that simply go dormant for the rest
    /// of the run also terminate early.
    ///
    /// While the shard's gate keeps probing on, the run first looks up its
    /// post-injection `(cycle, state digest)` in the campaign memo and
    /// returns the cached outcome on a hit; on a miss it simulates,
    /// repeating the lookup at every checkpoint crossing (before the
    /// convergence comparison, so exact re-entries into explored
    /// trajectories — including the pre-seeded pristine states — resolve
    /// as hits), and finally inserts every state it passed through.
    fn run_faulted(
        &self,
        m: &mut Machine,
        checkpoints: &[Checkpoint],
        stats: &mut ExecutorStats,
        tel: &WorkerTel,
        gate: &mut MemoGate,
    ) -> Outcome {
        let budget = self.config.cycle_budget(self.golden.cycles);
        let start_cycle = m.cycle();
        // The cost-model gate masks memoization for the rest of the
        // shard once probing demonstrably cannot pay (see [`MemoGate`]);
        // a gated-off run neither looks up nor records trajectories.
        let memoize = gate.probing;
        // State digests this run passes through; on completion every one
        // of them maps to the run's outcome, so later injections that
        // converge *into* this trajectory hit at their next checkpoint.
        let mut waypoints: Vec<(u64, StateDigest)> = Vec::new();
        if memoize {
            // Injection-point lookup: an earlier experiment (in either
            // fault domain) that produced this exact post-injection state
            // already determined the outcome.
            let (key, hit) = gate.probe(tel, &self.memo, m);
            if let Some(hit) = hit {
                stats.memo_hits += 1;
                if hit.origin == MemoOrigin::Store {
                    stats.store_hits += 1;
                }
                stats.memoized_cycles_saved += hit.final_cycle.saturating_sub(m.cycle());
                tel.faulted_run_cycles.record(0);
                return hit.outcome;
            }
            stats.memo_misses += 1;
            waypoints.push(key);
        }
        // Early termination is only sound if a converged run's tail — the
        // rest of the golden run — fits the budget; with any sane timeout
        // configuration it does (budget ≥ golden runtime).
        if self.golden.cycles <= budget {
            let first = checkpoints.partition_point(|c| c.machine.cycle() <= m.cycle());
            for ckpt in &checkpoints[first..] {
                if let Some(status) = m.run_to(ckpt.machine.cycle()) {
                    stats.faulted_cycles += m.cycle() - start_cycle;
                    tel.faulted_run_cycles.record(m.cycle() - start_cycle);
                    let outcome =
                        Outcome::classify(status, m.serial(), m.detect_count(), &self.golden);
                    self.memo.insert_all(
                        &waypoints,
                        MemoEntry {
                            outcome,
                            final_cycle: m.cycle(),
                            origin: MemoOrigin::Fresh,
                        },
                    );
                    return outcome;
                }
                if memoize {
                    // Checkpoint-crossing lookup, deliberately *before*
                    // the convergence comparison: runs re-entering an
                    // already-explored trajectory — most commonly the
                    // exact pristine state, pre-seeded per checkpoint —
                    // resolve here and also donate their own waypoints.
                    let (key, hit) = gate.probe(tel, &self.memo, m);
                    if let Some(hit) = hit {
                        stats.faulted_cycles += m.cycle() - start_cycle;
                        tel.faulted_run_cycles.record(m.cycle() - start_cycle);
                        stats.memo_hits += 1;
                        if hit.origin == MemoOrigin::Store {
                            stats.store_hits += 1;
                        }
                        stats.memoized_cycles_saved += hit.final_cycle.saturating_sub(m.cycle());
                        self.memo.insert_all(
                            &waypoints,
                            MemoEntry {
                                outcome: hit.outcome,
                                final_cycle: hit.final_cycle,
                                origin: MemoOrigin::Fresh,
                            },
                        );
                        return hit.outcome;
                    }
                    waypoints.push(key);
                }
                if m.converged_with_masked(&ckpt.machine, &ckpt.mask) {
                    stats.faulted_cycles += m.cycle() - start_cycle;
                    tel.faulted_run_cycles.record(m.cycle() - start_cycle);
                    stats.converged_early += 1;
                    stats.faulted_cycles_saved += self.golden.cycles - m.cycle();
                    let outcome = if !self.golden.matches_serial_prefix(m.serial()) {
                        Outcome::SilentDataCorruption
                    } else if m.detect_count() > ckpt.machine.detect_count() {
                        Outcome::DetectedCorrected
                    } else {
                        Outcome::NoEffect
                    };
                    // A converged run finishes (virtually) at the golden
                    // run's end; its recorded trajectory is still exact.
                    self.memo.insert_all(
                        &waypoints,
                        MemoEntry {
                            outcome,
                            final_cycle: self.golden.cycles,
                            origin: MemoOrigin::Fresh,
                        },
                    );
                    return outcome;
                }
            }
        }
        let status = m.run(budget);
        stats.faulted_cycles += m.cycle() - start_cycle;
        tel.faulted_run_cycles.record(m.cycle() - start_cycle);
        let outcome = Outcome::classify(status, m.serial(), m.detect_count(), &self.golden);
        self.memo.insert_all(
            &waypoints,
            MemoEntry {
                outcome,
                final_cycle: m.cycle(),
                origin: MemoOrigin::Fresh,
            },
        );
        outcome
    }
}

/// Applies the fault of `domain` at fault-space bit `bit` to a machine
/// already paused at the pre-injection cycle. Data domains mutate state
/// directly; control-flow domains arm a latched [`CfFault`] that fires
/// on the first matching fetch (and stays dormant — architecturally a
/// no-effect — when the trigger never matches again, which is what makes
/// arbitrary full-scan coordinates sound).
pub(crate) fn inject_fault(domain: FaultDomain, m: &mut Machine, bit: u64) {
    match domain {
        FaultDomain::Memory => m.flip_bit(bit),
        FaultDomain::RegisterFile => m.flip_reg_bit(bit),
        FaultDomain::InstrSkip => m.arm_cf_fault(CfFault::SkipAt { slot: bit as u32 }),
        FaultDomain::OpcodeBit => m.arm_cf_fault(CfFault::CorruptAt {
            slot: (bit / 32) as u32,
            mask: 1 << (bit % 32),
        }),
        FaultDomain::BranchInvert => m.arm_cf_fault(CfFault::InvertBranch),
    }
}

/// Splits the cycle-sorted experiments into at most `chunks` contiguous
/// runs with (approximately) equal injection-cycle spans. Balancing by
/// span rather than by count bounds each worker's pristine
/// forward-simulation range; empty spans produce no chunk.
fn chunk_by_cycle_span(sorted: &[Experiment], chunks: usize) -> Vec<&[Experiment]> {
    debug_assert!(!sorted.is_empty() && chunks > 0);
    let first = sorted[0].coord.cycle;
    let span = sorted[sorted.len() - 1].coord.cycle - first;
    let mut out = Vec::with_capacity(chunks);
    let mut begin = 0;
    for k in 1..=chunks as u64 {
        let end = if k == chunks as u64 {
            sorted.len()
        } else {
            let bound = first + span * k / chunks as u64;
            begin + sorted[begin..].partition_point(|e| e.coord.cycle <= bound)
        };
        if end > begin {
            out.push(&sorted[begin..end]);
            begin = end;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::OutcomeClass;
    use sofi_isa::{Asm, Reg};
    use std::collections::HashMap;

    /// The paper's "Hi" benchmark (Figure 3a): 8 cycles × 16 bits,
    /// F = 48, coverage 62.5 %.
    fn hi_program() -> Program {
        let mut a = Asm::with_name("hi");
        let msg = a.data_space("msg", 2);
        a.li(Reg::R1, 'H' as i32);
        a.sb(Reg::R1, Reg::R0, msg.offset());
        a.li(Reg::R1, 'i' as i32);
        a.sb(Reg::R1, Reg::R0, msg.at(1).offset());
        a.lb(Reg::R2, Reg::R0, msg.offset());
        a.serial_out(Reg::R2);
        a.lb(Reg::R2, Reg::R0, msg.at(1).offset());
        a.serial_out(Reg::R2);
        a.build().unwrap()
    }

    #[test]
    fn hi_full_defuse_matches_paper() {
        let c = Campaign::new(&hi_program()).unwrap();
        assert_eq!(c.golden().serial, b"Hi");
        assert_eq!(c.golden().fault_space_size(), 128);
        let r = c.run_full_defuse();
        assert!(r.covers_space());
        // All 16 experiment classes are failures (weight 3 each): F = 48.
        assert_eq!(r.results.len(), 16);
        assert_eq!(r.failure_weight(), 48);
        assert_eq!(r.benign_weight(), 80);
    }

    #[test]
    fn brute_force_agrees_with_defuse_expansion() {
        // The defining property of def/use pruning: expanding each class
        // result over its coordinates reproduces the brute-force scan.
        let c = Campaign::with_config(&hi_program(), CampaignConfig::sequential()).unwrap();
        let brute = c.run_brute_force();
        let pruned = c.run_full_defuse();
        assert_eq!(brute.results.len(), 128);
        assert_eq!(brute.failure_weight(), pruned.failure_weight());
        assert_eq!(brute.benign_weight(), pruned.benign_weight());

        // Per-coordinate agreement via the class index.
        let index = sofi_space::ClassIndex::new(c.analysis(), c.plan());
        let by_id: HashMap<u32, Outcome> = pruned
            .results
            .iter()
            .map(|r| (r.experiment.id, r.outcome))
            .collect();
        for br in &brute.results {
            let expected_class = match index.lookup(br.experiment.coord) {
                sofi_space::ClassRef::Experiment(id) => by_id[&id].class(),
                sofi_space::ClassRef::KnownBenign => OutcomeClass::NoEffect,
            };
            assert_eq!(
                br.outcome.class(),
                expected_class,
                "coordinate {} disagrees",
                br.experiment.coord
            );
        }
    }

    #[test]
    fn naive_replay_agrees_with_forking_executor() {
        let c = Campaign::with_config(&hi_program(), CampaignConfig::sequential()).unwrap();
        let fast = c.run_experiments_in(FaultDomain::Memory, &c.plan().experiments);
        let naive = c.run_experiments_naive(crate::FaultDomain::Memory, &c.plan().experiments);
        assert_eq!(fast, naive);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // Tiny plan (16 experiments, more workers than cycle chunks)…
        let p = hi_program();
        let seq = Campaign::with_config(&p, CampaignConfig::sequential())
            .unwrap()
            .run_full_defuse();
        let par = Campaign::with_config(
            &p,
            CampaignConfig {
                threads: 4,
                ..CampaignConfig::default()
            },
        )
        .unwrap()
        .run_full_defuse();
        assert_eq!(seq, par);

        // …and a plan large enough that every worker gets a
        // multi-experiment contiguous chunk, in both fault domains.
        let p = sofi_workloads::fib(sofi_workloads::Variant::Baseline);
        let seq = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
        let par = Campaign::with_config(
            &p,
            CampaignConfig {
                threads: 4,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        assert!(
            seq.plan().experiments.len() >= 64,
            "memory plan too small ({}) to exercise chunking",
            seq.plan().experiments.len()
        );
        let registers = FaultDomain::RegisterFile;
        assert!(
            seq.plan_for(registers).experiments.len() >= 64,
            "register plan too small ({}) to exercise chunking",
            seq.plan_for(registers).experiments.len()
        );
        assert_eq!(seq.run_full_defuse(), par.run_full_defuse());
        assert_eq!(
            seq.run_full_defuse_in(registers),
            par.run_full_defuse_in(registers)
        );
    }

    #[test]
    fn contiguous_chunks_bound_pristine_simulation() {
        // The scheduling regression this executor fixes: strided
        // round-robin distribution made every worker sweep (nearly) the
        // whole cycle range, so pristine forward simulation grew ~T×.
        // Contiguous cycle-span chunks + checkpoints keep it within
        // ~1.2× of the single-worker executor.
        let p = sofi_workloads::fib(sofi_workloads::Variant::Baseline);
        let seq = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
        let (mut seq_res, seq_stats) =
            seq.run_experiments_stats(FaultDomain::Memory, &seq.plan().experiments);
        assert_eq!(seq_stats.workers, 1);
        assert!(seq_stats.pristine_cycles > 0);

        let par = Campaign::with_config(
            &p,
            CampaignConfig {
                threads: 4,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        let (mut par_res, par_stats) =
            par.run_experiments_stats(FaultDomain::Memory, &par.plan().experiments);
        assert!(par_stats.workers > 1, "expected a parallel run");

        seq_res.sort_by_key(|r| r.experiment.id);
        par_res.sort_by_key(|r| r.experiment.id);
        assert_eq!(seq_res, par_res);

        let ratio = par_stats.pristine_cycles as f64 / seq_stats.pristine_cycles as f64;
        eprintln!(
            "pristine cycles: sequential {} / parallel {} over {} workers (ratio {ratio:.3})",
            seq_stats.pristine_cycles, par_stats.pristine_cycles, par_stats.workers
        );
        assert!(
            ratio <= 1.2,
            "parallel executor simulated {}x the sequential pristine cycles \
             ({} vs {})",
            ratio,
            par_stats.pristine_cycles,
            seq_stats.pristine_cycles
        );
    }

    #[test]
    fn cycle_span_chunks_are_contiguous_and_cover() {
        let experiments: Vec<Experiment> = (0..40u32)
            .map(|i| Experiment {
                id: i,
                // Quadratic spacing: a span-balanced split must put many
                // more early (dense) experiments in the first chunk.
                coord: sofi_space::FaultCoord {
                    cycle: 1 + (i as u64) * (i as u64),
                    bit: 0,
                },
                weight: 1,
            })
            .collect();
        let chunks = super::chunk_by_cycle_span(&experiments, 4);
        assert!(!chunks.is_empty() && chunks.len() <= 4);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, experiments.len());
        // Chunks are contiguous, in order, and disjoint in cycle ranges.
        let mut last_cycle = 0;
        for chunk in &chunks {
            assert!(!chunk.is_empty());
            assert!(chunk[0].coord.cycle > last_cycle);
            last_cycle = chunk[chunk.len() - 1].coord.cycle;
        }
        // Span balance: the dense low-cycle half lands in the first chunk.
        assert!(chunks[0].len() > chunks[chunks.len() - 1].len());
    }

    #[test]
    fn convergence_agrees_with_naive_and_saves_work() {
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let p = sofi_workloads::fib(sofi_workloads::Variant::Baseline);
            let c = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
            let experiments = c.plan_for(domain).experiments.clone();
            let naive = c.run_experiments_naive(domain, &experiments);
            let (results, stats) = c.run_experiments_stats(domain, &experiments);
            assert_eq!(results, naive, "{domain:?}: convergence changed outcomes");
            assert!(
                stats.converged_early > 0,
                "{domain:?}: no experiment converged early ({stats:?})"
            );
            assert!(stats.faulted_cycles_saved > 0);
            assert!(stats.early_termination_rate() > 0.0);
            assert_eq!(stats.experiments, experiments.len() as u64);
        }
    }

    /// A scrub-style program where many distinct faults collapse onto the
    /// *same* post-correction state: load a protected byte, restore its
    /// stored copy, and take an equal-length detect-and-zero path for any
    /// corruption. Every fault in the byte's live interval ends in the
    /// identical state (pristine + one detection) right after the join,
    /// so the memo must resolve all but the first one at a checkpoint.
    fn scrub_program() -> Program {
        let mut a = Asm::with_name("memo_scrub");
        let x = a.data_bytes("x", &[0]);
        let clean = a.new_label();
        let join = a.new_label();
        a.lb(Reg::R1, Reg::R0, x.offset()); // may be corrupted
        a.sb(Reg::R0, Reg::R0, x.offset()); // scrub the stored copy
        a.beq(Reg::R1, Reg::R0, clean);
        a.detect_signal(Reg::R1); // faulted path: 3 cycles
        a.mv(Reg::R1, Reg::R0);
        a.j(join);
        a.bind(clean);
        a.nop(); // clean path: 3 cycles
        a.nop();
        a.nop();
        a.bind(join);
        for _ in 0..200 {
            a.nop();
        }
        a.li(Reg::R2, b'k' as i32);
        a.serial_out(Reg::R2);
        a.build().unwrap()
    }

    #[test]
    fn memoized_executor_agrees_with_naive_and_hits() {
        // The memo lookup precedes the convergence comparison at every
        // checkpoint crossing, so collapsing trajectories resolve as hits.
        let p = scrub_program();
        let c = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
        let experiments = c.plan().experiments.clone();
        let naive = c.run_experiments_naive(FaultDomain::Memory, &experiments);
        let (results, stats) = c.run_experiments_stats(FaultDomain::Memory, &experiments);
        assert_eq!(results, naive, "memoization changed outcomes");
        assert!(stats.memo_misses + stats.memo_hits >= stats.experiments);
        assert!(
            stats.memo_hits > 0,
            "all 8 faults in the protected byte collapse onto one \
             post-scrub state; at most one may miss ({stats:?})"
        );
        assert!(stats.memoized_cycles_saved > 0);
        assert!(
            results
                .iter()
                .any(|r| r.outcome == Outcome::DetectedCorrected),
            "scrub program should detect-and-correct"
        );

        // Second pass over the same plan: every injection state is now
        // cached, so nothing simulates at all.
        let (again, warm) = c.run_experiments_stats(FaultDomain::Memory, &experiments);
        assert_eq!(again, naive);
        assert_eq!(warm.memo_hits, warm.experiments);
        assert_eq!(warm.memo_misses, 0);
        assert_eq!(warm.faulted_cycles, 0, "warm cache: zero simulation");

        // reset_memo restores cold-cache behaviour.
        c.reset_memo();
        let (cold, cold_stats) = c.run_experiments_stats(FaultDomain::Memory, &experiments);
        assert_eq!(cold, naive);
        assert!(cold_stats.memo_misses > 0, "reset did not clear the memo");
    }

    #[test]
    fn memo_is_shared_across_fault_domains() {
        // A register-file flip of a loaded copy and a memory flip of the
        // byte it was loaded from produce the same post-injection
        // machine state one cycle apart in general — but after the scrub
        // joins, both trajectories pass the same post-correction states,
        // so running the memory domain first must produce hits in the
        // register domain (cross-domain dynamic equivalence).
        let p = scrub_program();
        let c = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
        let (_, mem_stats) = c.run_experiments_stats(FaultDomain::Memory, &c.plan().experiments);
        let registers = &c.plan_for(FaultDomain::RegisterFile).experiments;
        let (reg_results, reg_stats) =
            c.run_experiments_stats(FaultDomain::RegisterFile, registers);
        let naive = c.run_experiments_naive(FaultDomain::RegisterFile, registers);
        assert_eq!(reg_results, naive);
        assert!(
            mem_stats.memo_misses > 0,
            "memory domain ran first and populated the cache"
        );
        assert!(
            reg_stats.memo_hits > 0,
            "register-domain runs should re-enter memory-domain \
             trajectories ({reg_stats:?})"
        );
    }

    #[test]
    fn converged_detection_classified_corrected() {
        // Hardened pattern whose detect-and-scrub path has exactly the
        // same length as the clean path: a faulted run that takes it
        // re-aligns with the pristine machine (only detect_count ahead),
        // crosses a later checkpoint, and must early-terminate as
        // DetectedCorrected — not NoEffect, not a full-tail simulation.
        let mut a = Asm::with_name("scrub");
        let x = a.data_bytes("x", &[0]);
        let clean = a.new_label();
        let join = a.new_label();
        a.lb(Reg::R1, Reg::R0, x.offset()); // may be corrupted
        a.sb(Reg::R0, Reg::R0, x.offset()); // scrub the stored copy
        a.beq(Reg::R1, Reg::R0, clean);
        a.detect_signal(Reg::R1); // faulted path: 3 cycles
        a.mv(Reg::R1, Reg::R0);
        a.j(join);
        a.bind(clean);
        a.nop(); // clean path: 3 cycles
        a.nop();
        a.nop();
        a.bind(join);
        // Long benign tail so checkpoints land after the join.
        for _ in 0..200 {
            a.nop();
        }
        a.li(Reg::R2, b'k' as i32);
        a.serial_out(Reg::R2);
        let p = a.build().unwrap();

        let c = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
        let (result, stats) = c.run_plan_stats(FaultDomain::Memory, c.plan());
        let naive = c.run_experiments_naive(FaultDomain::Memory, &c.plan().experiments);
        let mut naive_sorted = naive;
        naive_sorted.sort_by_key(|r| r.experiment.id);
        assert_eq!(result.results, naive_sorted);
        assert!(
            result
                .results
                .iter()
                .any(|r| r.outcome == Outcome::DetectedCorrected),
            "expected a detected-and-corrected experiment, got {:?}",
            result.results.iter().map(|r| r.outcome).collect::<Vec<_>>()
        );
        assert!(stats.converged_early > 0, "no early termination happened");
    }

    #[test]
    fn cycle_zero_coordinate_is_flip_before_first_instruction() {
        // Regression: the pre-injection advance used to compute
        // `coord.cycle - 1`, which underflows u64 for a raw cycle-0
        // coordinate (e.g. from a remote client) and sent `run_to` off
        // toward 2⁶⁴ cycles. A cycle-0 flip must instead behave exactly
        // like the cycle-1 coordinate: applied before the first
        // instruction executes.
        let p = hi_program();
        let c = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
        let bit = c.plan().experiments[0].coord.bit;
        let experiments: Vec<Experiment> = [0u64, 1u64]
            .iter()
            .map(|&cycle| Experiment {
                id: cycle as u32,
                coord: sofi_space::FaultCoord { cycle, bit },
                weight: 1,
            })
            .collect();
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let naive = c.run_experiments_naive(domain, &experiments);
            let (composed, _) = c.run_experiments_stats(domain, &experiments);
            assert_eq!(composed, naive, "{domain:?}: executor paths disagree");
            assert_eq!(
                naive[0].outcome, naive[1].outcome,
                "{domain:?}: cycle-0 must classify like cycle-1"
            );
        }
    }

    #[test]
    fn out_of_order_experiments_restart_from_checkpoints() {
        // Feed the sequential worker its plan in *descending* cycle order:
        // every experiment forces a restart. With the checkpoint-based
        // restart the pristine rework is bounded by the checkpoint
        // spacing; the old always-from-zero restart would re-simulate the
        // full prefix sum of injection cycles.
        let p = sofi_workloads::fib(sofi_workloads::Variant::Baseline);
        let c = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
        let mut reversed = c.plan().experiments.clone();
        reversed.sort_unstable_by_key(|e| std::cmp::Reverse((e.coord.cycle, e.coord.bit)));

        let (mut results, stats) = c.run_experiments_stats(FaultDomain::Memory, &reversed);
        let mut naive = c.run_experiments_naive(FaultDomain::Memory, &reversed);
        results.sort_by_key(|r| r.experiment.id);
        naive.sort_by_key(|r| r.experiment.id);
        assert_eq!(results, naive);

        let from_zero_cost: u64 = reversed.iter().map(|e| e.coord.cycle - 1).sum();
        assert!(
            stats.pristine_cycles < from_zero_cost / 4,
            "checkpoint restarts should beat from-zero restarts by a wide \
             margin ({} vs {})",
            stats.pristine_cycles,
            from_zero_cost
        );
    }

    #[test]
    fn timeout_classified() {
        // A program whose loop counter lives in RAM: flipping a high bit
        // of the counter makes the loop run ~2^31 iterations → timeout.
        let mut a = Asm::with_name("loopy");
        let n = a.data_word("n", 3);
        let top_entry = a.new_label();
        a.j(top_entry);
        a.bind(top_entry);
        let top = a.label_here();
        a.lw(Reg::R1, Reg::R0, n.offset());
        a.addi(Reg::R1, Reg::R1, -1);
        a.sw(Reg::R1, Reg::R0, n.offset());
        a.bne(Reg::R1, Reg::R0, top);
        let p = a.build().unwrap();
        let c = Campaign::new(&p).unwrap();
        let r = c.run_full_defuse();
        let outcomes: Vec<Outcome> = r.results.iter().map(|x| x.outcome).collect();
        assert!(
            outcomes.contains(&Outcome::Timeout),
            "expected at least one timeout, got {outcomes:?}"
        );
    }

    #[test]
    fn detect_signal_classified_benign() {
        // A program that re-derives a corrupted value and signals the
        // correction: flips under the protected read become
        // DetectedCorrected.
        let mut a = Asm::with_name("protected");
        let x = a.data_bytes("x", &[5]);
        let ok = a.new_label();
        a.lb(Reg::R1, Reg::R0, x.offset()); // may be corrupted
        a.li(Reg::R2, 5); // recompute reference
        a.beq(Reg::R1, Reg::R2, ok);
        a.detect_signal(Reg::R2); // detected, corrected below
        a.mv(Reg::R1, Reg::R2);
        a.bind(ok);
        a.serial_out(Reg::R1);
        let p = a.build().unwrap();
        let c = Campaign::new(&p).unwrap();
        let r = c.run_full_defuse();
        assert!(r.results.iter().all(
            |res| res.outcome == Outcome::DetectedCorrected || res.outcome == Outcome::NoEffect
        ));
        assert_eq!(r.failure_weight(), 0);
    }
}
