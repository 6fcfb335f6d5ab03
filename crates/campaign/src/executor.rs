//! The campaign executor.

use crate::config::{cycle_budget, CampaignConfig, GOLDEN_CYCLE_LIMIT};
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
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

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
    /// Shards that finished with their worker's memo probing still
    /// enabled (the cost-model gate judged probing profitable).
    pub gate_shards_on: u64,
    /// Shards that finished with their worker's cost-model gate having
    /// disabled memo probing — a priori (program too short for a probe
    /// to ever pay) or after priced probe spend dominated the simulation
    /// its hits saved.
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

    /// Folds the counters of one shard (or batch, or campaign) into this
    /// record: every counter sums, and `workers` keeps the peak — each
    /// shard already reports its whole call's worker count, so summing
    /// would inflate the figure with every shard. Associative and
    /// commutative, with `ExecutorStats::default()` as the identity
    /// (`tests/stats_merge.rs`), so totals do not depend on worker join
    /// order or on how shards were grouped. The executor's merge and
    /// the serve coordinator's (local commit groups and remote uploads
    /// alike) both use it.
    pub fn absorb(&mut self, shard: &ExecutorStats) {
        self.workers = self.workers.max(shard.workers);
        self.experiments += shard.experiments;
        self.pristine_cycles += shard.pristine_cycles;
        self.faulted_cycles += shard.faulted_cycles;
        self.converged_early += shard.converged_early;
        self.faulted_cycles_saved += shard.faulted_cycles_saved;
        self.memo_hits += shard.memo_hits;
        self.memo_misses += shard.memo_misses;
        self.memoized_cycles_saved += shard.memoized_cycles_saved;
        self.gate_shards_on += shard.gate_shards_on;
        self.gate_shards_off += shard.gate_shards_off;
        self.store_hits += shard.store_hits;
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

    /// The counters accumulated since `earlier`, an earlier copy of this
    /// record: the delta one streamed shard adds to its worker's totals.
    fn since(&self, earlier: &ExecutorStats) -> ExecutorStats {
        ExecutorStats {
            workers: self.workers - earlier.workers,
            experiments: self.experiments - earlier.experiments,
            pristine_cycles: self.pristine_cycles - earlier.pristine_cycles,
            faulted_cycles: self.faulted_cycles - earlier.faulted_cycles,
            converged_early: self.converged_early - earlier.converged_early,
            faulted_cycles_saved: self.faulted_cycles_saved - earlier.faulted_cycles_saved,
            memo_hits: self.memo_hits - earlier.memo_hits,
            memo_misses: self.memo_misses - earlier.memo_misses,
            memoized_cycles_saved: self.memoized_cycles_saved - earlier.memoized_cycles_saved,
            gate_shards_on: self.gate_shards_on - earlier.gate_shards_on,
            gate_shards_off: self.gate_shards_off - earlier.gate_shards_off,
            store_hits: self.store_hits - earlier.store_hits,
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
    /// Some experiment's post-injection state: set when an
    /// injection-point probe misses (and the run records the state) or
    /// hits it. A resubmission probes exactly these keys first.
    injection: bool,
    /// Already returned by [`Campaign::export_memo`].
    exported: bool,
}

/// One exportable fault-equivalence memo entry: a `(cycle, digest) →
/// (outcome, final_cycle)` fact that holds for any campaign over the
/// same program and event schedule (the cycle budget and the serial
/// limit are constants). The `sofi-serve` daemon journals these
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

/// A memo key: a cycle and the architectural-state digest at it.
type MemoKey = (u64, StateDigest);

/// The per-campaign fault-equivalence memo: `(cycle, state digest) →
/// outcome`. Shared by every call and fault domain of the campaign — a
/// register-domain injection and a memory-domain injection that produce
/// the same machine state are the same experiment dynamically, and
/// either may pay for the other.
///
/// Soundness: the machine is deterministic and the cycle budget is a
/// campaign constant, so the full architectural state at a given cycle
/// determines the rest of the run — final status, serial output and
/// detection count — and therefore the outcome. [`Machine::state_digest`]
/// covers exactly that state (128 bits, so a wrong hit needs a hash
/// collision); `tests/memoization_oracle.rs` and the fuzz battery hold
/// the memoized executor to bit-identical results against naive replay.
///
/// Each worker of a call probes `settled` as the call found it plus its
/// own inserts ([`MemoView`]), so what a worker sees — and with it every
/// counter — does not depend on the thread count or on thread timing.
/// The workers' maps are kept in run order as `pending` and folded into
/// `settled` the next time the memo is read as a whole: at the next
/// call, in [`Campaign::preload_memo`] and in [`Campaign::reset_memo`]
/// (which drops them). A campaign that makes one call never folds. A
/// call holds the lock throughout, so concurrent calls on one campaign
/// run one after the other.
#[derive(Debug, Default)]
struct Memo {
    settled: HashMap<MemoKey, MemoEntry>,
    /// The last call's per-worker inserts, in run order.
    pending: Vec<HashMap<MemoKey, MemoEntry>>,
}

impl Memo {
    /// Folds the pending maps into the settled one, in run order, and
    /// returns it: the first entry of a state wins, and both marks
    /// (`injection`, `exported`) of every copy are kept.
    fn fold(&mut self) -> &mut HashMap<MemoKey, MemoEntry> {
        for map in self.pending.drain(..) {
            for (key, entry) in map {
                let settled = self.settled.entry(key).or_insert(entry);
                settled.injection |= entry.injection;
                settled.exported |= entry.exported;
            }
        }
        &mut self.settled
    }
}

/// One worker's view of the memo: the settled map as its call found it,
/// read without a lock, plus the worker's own inserts.
struct MemoView<'a> {
    settled: &'a HashMap<MemoKey, MemoEntry>,
    own: HashMap<MemoKey, MemoEntry>,
}

impl MemoView<'_> {
    /// Looks `key` up, marking a hit as an injection-point fact when the
    /// probe is an experiment's injection-point probe. A settled entry
    /// is marked through a copy in the worker's own map, which the fold
    /// merges back.
    fn get(&mut self, key: &MemoKey, injection: bool) -> Option<MemoEntry> {
        if let Some(entry) = self.own.get_mut(key) {
            entry.injection |= injection;
            return Some(*entry);
        }
        let entry = *self.settled.get(key)?;
        if injection && !entry.injection {
            self.own.entry(*key).or_insert(entry).injection = true;
        }
        Some(entry)
    }

    /// Records `entry` under every key — each a state the view missed.
    /// With `injection` set, the first key is the run's post-injection
    /// state and is marked as such.
    fn insert_all(&mut self, keys: &[MemoKey], entry: MemoEntry, injection: bool) {
        for (i, &key) in keys.iter().enumerate() {
            let injection = injection && i == 0;
            self.own.insert(key, MemoEntry { injection, ..entry });
        }
    }
}

/// A prepared fault-injection campaign: program, golden run, def/use
/// analysis and pruned plan, ready to execute scans or samples.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
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
    /// Fault-equivalence outcome memo (see [`Memo`]).
    memo: Mutex<Memo>,
    /// Set via [`Campaign::set_memo_harvest`] when this campaign feeds a
    /// persistent warm store: every experiment then probes the memo at
    /// its injection point.
    memo_harvest: AtomicBool,
    /// Runtime observability ([`sofi_telemetry::Registry`]): phase spans,
    /// per-experiment histograms and executor counters. Disabled (all
    /// no-ops) unless [`CampaignConfig::telemetry`] is set or an enabled
    /// registry is passed to [`Campaign::with_events_telemetry`].
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

/// Runs `f`, timing one call in [`PROBE_SAMPLE`] into `histogram` (no
/// clock read at all while the histogram is disabled).
fn sampled<T>(histogram: &LocalHistogram, tick: &Cell<u64>, f: impl FnOnce() -> T) -> T {
    if histogram.is_enabled() {
        let n = tick.get();
        tick.set(n + 1);
        if n.is_multiple_of(PROBE_SAMPLE) {
            let start = Instant::now();
            let out = f();
            histogram.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            return out;
        }
    }
    f()
}

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

    /// Runs one faulted-run dispatch, latency-sampled into
    /// [`names::DISPATCH_NS`] when telemetry is enabled — the
    /// per-experiment wall-clock the block engine drives down.
    fn timed_dispatch(&self, f: impl FnOnce() -> Outcome) -> Outcome {
        sampled(&self.dispatch_ns, &self.dispatch_tick, f)
    }

    /// A memo-cache lookup, latency-sampled when telemetry is enabled.
    fn probe(&self, memo: &mut MemoView, key: &MemoKey, injection: bool) -> Option<MemoEntry> {
        sampled(&self.memo_probe_ns, &self.probe_tick, || {
            memo.get(key, injection)
        })
    }

    /// Drains the histogram buffers and mirrors one shard's counters into
    /// the registry — once per shard, off the per-experiment path.
    /// `blocks` carries the execution-engine dispatch counters of the
    /// shard's faulted runs.
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

/// The gate's prices, in simulated cycles: one memo probe (a digest of
/// the fixed-size machine state, a memo lookup and, on a miss, a
/// waypoint insertion), one RAM page re-hashed by a digest, and the
/// fixed overhead of one faulted dispatch (fork, injection, checkpoint
/// bookkeeping). Fitted once by least squares over timed faulted runs
/// of the ledger corpus, with simulated cycles, probes and re-hashed
/// pages as regressors; the fit is recorded in EXPERIMENTS.md § The
/// counted gate.
const PROBE: u64 = 70;
const PAGE: u64 = 45;
const RUN: u64 = 55;

/// A priori gate cut: with a cold cache, a program whose entire golden
/// runtime is this short can never pay for a probe — even a 100%-hit
/// campaign saves at most `golden_cycles` of simulation per experiment,
/// which is less than the fixed cost of one digest-plus-lookup.
const GATE_MIN_GOLDEN_CYCLES: u64 = 64;

/// First experiment count at which the gate applies the full
/// cost-vs-savings rule (reviews happen at every power of two).
const GATE_FULL_REVIEW: u64 = 32;

/// Cost-model gate state for one worker's run of experiments. The gate
/// decides whether memo probing — one state digest plus a memo
/// lookup at the injection point and at every checkpoint crossing —
/// pays for itself on this run, by pricing the probes issued and the RAM
/// pages they re-hashed in simulated cycles ([`PROBE`], [`PAGE`]) and
/// comparing that spend against the simulation the observed hits
/// avoided. Every input is a count, so the verdict is a pure function of
/// the run and the cache it starts from. Probing switches off at most
/// once per run (no flapping); outcomes are identical either way because
/// the gate only skips lookups and insertions, never invents results.
struct MemoGate {
    /// Memo probing currently enabled for this run.
    probing: bool,
    /// The gate may still switch probing off. False after an a-priori
    /// cut or after a decision.
    deciding: bool,
    /// Harvest mode ([`Campaign::set_memo_harvest`]): the injection-point
    /// probe runs even while `probing` is off.
    harvest: bool,
    /// Probes issued so far while probing.
    probes: u64,
    /// RAM pages re-hashed by digests so far (probes and the pristine
    /// machine's warm-up digests).
    pages: u64,
}

impl MemoGate {
    /// Builds a worker's gate. `golden_cycles` and `warm_cache` feed the
    /// a-priori cut: a cold-cache campaign over a program shorter than
    /// [`GATE_MIN_GOLDEN_CYCLES`] disables probing outright (a warm
    /// cache — preloaded store entries or an earlier domain's
    /// trajectories — can hit at the injection point, which pays at any
    /// program length, so it always gets a priced trial). With `harvest`
    /// set ([`Campaign::set_memo_harvest`]) the injection-point probe
    /// runs whatever the verdict: its fact is the one a resubmission over
    /// the same context probes first, so a persistent warm store needs
    /// it for every experiment. Checkpoint-crossing probes follow the
    /// gate as in any campaign.
    fn new(golden_cycles: u64, warm_cache: bool, harvest: bool) -> MemoGate {
        let a_priori_off = !warm_cache && golden_cycles < GATE_MIN_GOLDEN_CYCLES;
        MemoGate {
            probing: !a_priori_off,
            deciding: !a_priori_off,
            harvest,
            probes: 0,
            pages: 0,
        }
    }

    /// Whether the next experiment probes at its injection point: while
    /// probing, and always in harvest mode.
    fn probes_injection(&self) -> bool {
        self.probing || self.harvest
    }

    /// Digests `m`, counting the RAM pages the digest re-hashed.
    fn digest(&mut self, m: &mut Machine) -> StateDigest {
        let before = m.ram().pages_hashed();
        let digest = m.state_digest();
        self.pages += m.ram().pages_hashed() - before;
        digest
    }

    /// One memo probe: digests `m` and looks the state up (`injection`:
    /// at the experiment's injection point). A hit is counted into
    /// `stats` and returned; a miss becomes a waypoint.
    fn probe(
        &mut self,
        tel: &WorkerTel,
        memo: &mut MemoView,
        m: &mut Machine,
        injection: bool,
        waypoints: &mut Vec<MemoKey>,
        stats: &mut ExecutorStats,
    ) -> Option<MemoEntry> {
        self.probes += 1;
        let key = (m.cycle(), self.digest(m));
        let Some(hit) = tel.probe(memo, &key, injection) else {
            waypoints.push(key);
            return None;
        };
        stats.memo_hits += 1;
        stats.store_hits += u64::from(hit.origin == MemoOrigin::Store);
        stats.memoized_cycles_saved += hit.final_cycle.saturating_sub(m.cycle());
        Some(hit)
    }

    /// Reviews the decision after `experiments` completed experiments
    /// (cheap: only acts at powers of two). Before [`GATE_FULL_REVIEW`]
    /// experiments only the hopeless case is cut — zero hits while
    /// probe spend already exceeds all simulation, priced at the cycles
    /// simulated plus [`RUN`] per experiment — so campaigns whose hit
    /// rate ramps slowly (cold register-domain scans) are not written
    /// off early. From [`GATE_FULL_REVIEW`] on, probing must keep its
    /// spend within twice the simulated cycles its hits saved.
    fn review(&mut self, experiments: u64, stats: &ExecutorStats) {
        if !self.deciding || experiments < 4 || !experiments.is_power_of_two() {
            return;
        }
        let cost = self.probes * PROBE + self.pages * PAGE;
        let off = if experiments < GATE_FULL_REVIEW {
            stats.memo_hits == 0 && cost > stats.faulted_cycles + experiments * RUN
        } else {
            cost > 2 * stats.memoized_cycles_saved
        };
        if off {
            self.probing = false;
            self.deciding = false;
        } else if experiments >= GATE_FULL_REVIEW {
            // Probing has proven itself on real volume; stop reviewing
            // for the rest of the run.
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
    /// cleanly within [`GOLDEN_CYCLE_LIMIT`] cycles.
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
            memo: Mutex::default(),
            memo_harvest: AtomicBool::new(false),
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

    /// The pruned injection plan for `domain`, built on first use.
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

    /// Executes the pruned full scan of `domain`'s fault space: one
    /// experiment per equivalence class, covering the entire space
    /// exactly. Register file coordinates are `(cycle, (reg − 1)·32 +
    /// bit)` over `r1..r15` (§VI-B).
    pub fn run_full_defuse_in(&self, domain: FaultDomain) -> CampaignResult {
        self.run_plan_stats(domain, self.plan_for(domain)).0
    }

    /// Brute-force scan of `domain`'s fault space: one experiment for
    /// *every* raw coordinate, no pruning. Exponentially more experiments
    /// than [`Campaign::run_full_defuse_in`] — tiny programs only; the
    /// oracle the pruning-soundness battery compares it against.
    pub fn run_brute_force_in(&self, domain: FaultDomain) -> CampaignResult {
        let plan = InjectionPlan::full_scan(self.analysis_for(domain).space);
        self.run_plan_stats(domain, &plan).0
    }

    /// Executes an arbitrary plan with injections into the given domain,
    /// plus executor instrumentation, for reporting pristine/faulted cycle
    /// counts and convergence savings.
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

    /// Executes a list of experiments (any order, repeats allowed) with
    /// injections into the given domain and returns their outcomes in
    /// the caller's order, plus executor instrumentation.
    ///
    /// The list is cycle-sorted at every thread count and split into one
    /// contiguous chunk per worker, balanced by cycle span (not by
    /// experiment count): each worker advances its own pristine machine
    /// forward over a disjoint cycle range, starting from the nearest
    /// [checkpoint](ExecutorStats). Total pristine forward simulation
    /// therefore stays within a small factor of the one-thread executor
    /// instead of growing linearly with the worker count, and an
    /// unsorted list costs no more than a sorted one. Each chunk is one
    /// shard of [`Campaign::run_shards`]'s worker loop.
    ///
    /// Each faulted run pauses at every pristine checkpoint cycle it
    /// crosses and compares its live architectural state against the
    /// stored snapshot ([`Machine::converged_with_masked`]): on a match the
    /// rest of the run is provably identical to golden, so the outcome is
    /// classified immediately instead of simulating the tail.
    ///
    /// Each experiment's post-injection state digest is also looked up in
    /// the campaign's fault-equivalence memo — two injections that produce
    /// the identical architectural state at the same cycle have the
    /// identical outcome on a deterministic machine, so the second one is
    /// free. Lookups and insertions also happen at every checkpoint
    /// crossing, so runs converging *into* an explored trajectory hit
    /// mid-flight; a per-worker cost gate, counting probes and re-hashed
    /// pages, skips probing where it cannot pay. Each worker probes the
    /// memo as the call found it plus its own inserts, so the results
    /// and every [`ExecutorStats`] field repeat from run to run at any
    /// thread count. Results are `assert_eq!`-identical, as vectors, to
    /// [`Campaign::run_experiments_naive`] (`tests/convergence_oracle.rs`,
    /// `tests/memoization_oracle.rs`, `tests/executor_order.rs`).
    pub fn run_experiments_stats(
        &self,
        domain: FaultDomain,
        experiments: &[Experiment],
    ) -> (Vec<ExperimentResult>, ExecutorStats) {
        self.run_experiments_with(Fault { domain, width: 1 }, experiments)
    }

    /// [`Campaign::run_experiments_stats`] injecting `fault`: the path
    /// every faulted run of the crate takes, bursts included.
    pub(crate) fn run_experiments_with(
        &self,
        fault: Fault,
        experiments: &[Experiment],
    ) -> (Vec<ExperimentResult>, ExecutorStats) {
        let threads = self
            .config
            .effective_threads()
            .min(experiments.len().max(1));
        // The caller's positions in injection-cycle order, so every chunk
        // is a contiguous cycle range and results scatter back.
        let mut order: Vec<usize> = (0..experiments.len()).collect();
        order.sort_unstable_by_key(|&i| {
            let e = &experiments[i];
            (e.coord.cycle, e.coord.bit, e.id, i)
        });
        let sorted: Vec<Experiment> = order.iter().map(|&i| experiments[i]).collect();
        // Each chunk is indexed by its offset into `sorted`.
        let mut offset = 0;
        let chunks: Vec<(usize, &[Experiment])> =
            chunk_by_cycle_span(&sorted, threads, |e| e.coord.cycle)
                .into_iter()
                .map(|chunk| {
                    offset += chunk.len();
                    (offset - chunk.len(), chunk)
                })
                .collect();
        let runs: Vec<&[(usize, &[Experiment])]> =
            chunks.iter().map(std::slice::from_ref).collect();
        let merged = Mutex::new((vec![None; experiments.len()], ExecutorStats::default()));
        self.stream(fault, &runs, &|offset, results, shard| {
            let mut merged = merged
                .lock()
                .expect("no worker panics while holding the merge lock");
            merged.1.absorb(&shard);
            for (result, &i) in results.into_iter().zip(&order[offset..]) {
                merged.0[i] = Some(result);
            }
            true
        });
        let merge_span = self.telemetry.span(names::SPAN_MERGE_NS);
        let (slots, stats) = merged
            .into_inner()
            .expect("no worker panics while holding the merge lock");
        let results = slots
            .into_iter()
            .map(|slot| slot.expect("every experiment ran"))
            .collect();
        merge_span.finish();
        (results, stats)
    }

    /// Streams `shards` — consecutive slices of a cycle-sorted experiment
    /// list, as a daemon job's dispatch tail is — through the executor
    /// and hands each finished shard to `commit` with its index, its
    /// results (in shard order) and its [`ExecutorStats`] delta, whose
    /// `workers` is the call's worker count. The shards are split into
    /// one contiguous run per worker, balanced by cycle span; each worker
    /// runs its whole run with one pristine machine and one cost gate, so
    /// checkpoint restores, thread start-up and gate verdicts amortize
    /// over the run instead of repeating per shard. `commit` is called
    /// from the worker threads, concurrently; when it returns `false`,
    /// that worker stops at the shard boundary and its remaining shards
    /// are never run. The call holds the campaign's memo throughout, so
    /// `commit` must not call back into it ([`Campaign::export_memo`],
    /// [`Campaign::preload_memo`], [`Campaign::reset_memo`] or another
    /// run of this campaign). Outcomes are those of
    /// [`Campaign::run_experiments_stats`] for the same experiments.
    ///
    /// Shards run in the order given. A shard whose injection lies
    /// behind its worker's pristine machine restarts from the nearest
    /// checkpoint, so any order is correct; a cycle-sorted one
    /// simulates least.
    pub fn run_shards(
        &self,
        domain: FaultDomain,
        shards: &[Vec<Experiment>],
        commit: impl Fn(usize, Vec<ExperimentResult>, ExecutorStats) -> bool + Sync,
    ) {
        if shards.is_empty() {
            return;
        }
        let indexed: Vec<(usize, &[Experiment])> =
            shards.iter().map(Vec::as_slice).enumerate().collect();
        let threads = self.config.effective_threads().min(indexed.len());
        let runs = chunk_by_cycle_span(&indexed, threads, |(_, shard)| {
            shard.first().map_or(0, |e| e.coord.cycle)
        });
        self.stream(Fault { domain, width: 1 }, &runs, &commit);
    }

    /// Runs each of `runs` through [`Campaign::run_worker`] — on the
    /// calling thread when there is one run, otherwise on a scoped thread
    /// per run — over the memo as the call found it, and leaves the
    /// workers' inserts pending in run order.
    fn stream(
        &self,
        fault: Fault,
        runs: &[&[(usize, &[Experiment])]],
        commit: &(dyn Fn(usize, Vec<ExperimentResult>, ExecutorStats) -> bool + Sync),
    ) {
        // Built (and the memo seeded) before the memo is locked.
        let checkpoints = self.checkpoints();
        let mut memo = self.lock_memo();
        let settled: &_ = memo.fold();
        let worker =
            &|shards| self.run_worker(fault, shards, checkpoints, settled, runs.len(), commit);
        let pending = match runs {
            [shards] => vec![worker(shards)],
            _ => std::thread::scope(|scope| {
                let handles: Vec<_> = runs
                    .iter()
                    .map(|&shards| scope.spawn(move || worker(shards)))
                    .collect();
                // Joined explicitly: a scope's implicit join returns
                // before the threads have exited, and threads still
                // exiting cannot hand their allocator arenas to the next
                // call's workers — peak RSS then grows with every call.
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("campaign worker panicked"))
                    .collect()
            }),
        };
        memo.pending = pending;
    }

    /// The campaign's memo, locked: once per call, and by the calls that
    /// read or write it as a whole.
    fn lock_memo(&self) -> MutexGuard<'_, Memo> {
        self.memo
            .lock()
            .expect("no campaign worker panicked while its call held the memo")
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
            let count = (self.config.effective_threads() as u64)
                .saturating_mul(8)
                .clamp(64, 256);
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
        let mut memo = self.lock_memo();
        for c in checkpoints {
            memo.settled
                .entry((c.machine.cycle(), c.digest))
                .or_insert(MemoEntry {
                    outcome: Outcome::NoEffect,
                    final_cycle: self.golden.cycles,
                    origin: MemoOrigin::Seed,
                    injection: false,
                    exported: false,
                });
        }
    }

    /// Marks this campaign as feeding a persistent warm store: every
    /// experiment probes the memo at its injection point, short golden
    /// runs and gated-off workers included, so that each experiment's
    /// post-injection fact exists for [`Campaign::export_memo`]. A
    /// resubmission over the same context runs the same plan and probes
    /// each experiment there first, so those facts answer it without
    /// simulation. Checkpoint-crossing probes still follow the cost gate.
    pub fn set_memo_harvest(&self) {
        self.memo_harvest.store(true, Ordering::Relaxed);
    }

    /// Exports the fault-equivalence facts *this campaign's runs*
    /// established at some experiment's injection point and that no
    /// earlier call returned, sorted by `(cycle, digest)` for
    /// deterministic output. Only facts a run of this campaign simulated
    /// qualify: pre-seeded checkpoint states are recomputed per
    /// campaign, and entries preloaded via [`Campaign::preload_memo`]
    /// are already persisted wherever they came from. Checkpoint-crossing
    /// waypoints stay in process: a resubmission never probes them
    /// before its injection-point probe has hit.
    ///
    /// Each fact is returned once, so a remote worker that exports after
    /// every shard uploads only that shard's new facts. If an upload is
    /// rejected, its facts are not sent again: that costs the store
    /// warmth, never an outcome.
    pub fn export_memo(&self) -> Vec<MemoRecord> {
        let mut memo = self.lock_memo();
        let Memo { settled, pending } = &mut *memo;
        // The last call's maps are read in place, not folded: a state
        // several of them hold is exported once and marked in each.
        let mut out: Vec<MemoRecord> = std::iter::once(settled)
            .chain(pending)
            .flat_map(|map| map.iter_mut())
            .filter(|(_, e)| e.origin == MemoOrigin::Fresh && e.injection && !e.exported)
            .map(|(&(cycle, digest), e)| {
                e.exported = true;
                MemoRecord {
                    cycle,
                    digest,
                    outcome: e.outcome,
                    final_cycle: e.final_cycle,
                }
            })
            .collect();
        drop(memo);
        out.sort_by_key(|r| (r.cycle, r.digest.to_bits()));
        out.dedup_by_key(|r| (r.cycle, r.digest));
        out
    }

    /// Preloads externally persisted fault-equivalence facts (from the
    /// `sofi-serve` warm store, or a previous campaign's
    /// [`Campaign::export_memo`]) into the memo. Existing entries win;
    /// hits on preloaded entries are counted separately
    /// ([`ExecutorStats::store_hits`]), and they are not re-exported.
    ///
    /// Soundness is the caller's contract: records must come from a
    /// campaign over the same program and event schedule (the daemon
    /// keys its store by the program and the fault domain).
    pub fn preload_memo(&self, records: &[MemoRecord]) {
        if records.is_empty() {
            return;
        }
        let mut memo = self.lock_memo();
        let settled = memo.fold();
        for r in records {
            settled.entry((r.cycle, r.digest)).or_insert(MemoEntry {
                outcome: r.outcome,
                final_cycle: r.final_cycle,
                origin: MemoOrigin::Store,
                injection: false,
                exported: false,
            });
        }
    }

    /// Clears the fault-equivalence memo (re-seeding the pristine
    /// checkpoint states). Outcomes never depend on cache contents; this
    /// exists so benchmarks and oracles can run cold-cache campaigns.
    pub fn reset_memo(&self) {
        *self.lock_memo() = Memo::default();
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
    /// to (`tests/*_oracle.rs`) and the baseline of the `bench_campaign`
    /// binary.
    pub fn run_experiments_naive(
        &self,
        domain: FaultDomain,
        experiments: &[Experiment],
    ) -> Vec<ExperimentResult> {
        self.run_experiments_naive_with(Fault { domain, width: 1 }, experiments)
    }

    /// [`Campaign::run_experiments_naive`] injecting `fault`: the oracle
    /// of [`Campaign::run_experiments_with`].
    pub(crate) fn run_experiments_naive_with(
        &self,
        fault: Fault,
        experiments: &[Experiment],
    ) -> Vec<ExperimentResult> {
        let budget = cycle_budget(self.golden.cycles);
        experiments
            .iter()
            .map(|&e| {
                let mut m = self.fresh_machine();
                let early = m.run_to(e.coord.pre_injection_cycle());
                assert!(early.is_none(), "plan outlived the program");
                fault.inject(&mut m, e.coord.bit);
                let status = m.run(budget);
                let outcome = Outcome::classify(status, m.serial(), m.detect_count(), &self.golden);
                ExperimentResult {
                    experiment: e,
                    outcome,
                }
            })
            .collect()
    }

    /// The executor's one worker loop: advances a pristine machine
    /// monotonically along a run of (cycle-sorted) shards, forks it per
    /// experiment, and hands each finished shard's results and counter
    /// delta (`workers` set to the call's worker count) to `commit`,
    /// stopping at the first shard boundary where `commit` returns
    /// `false`. One cost gate spans the whole run. The worker probes
    /// `settled` plus its own inserts, and returns those inserts.
    fn run_worker(
        &self,
        fault: Fault,
        shards: &[(usize, &[Experiment])],
        checkpoints: &[Checkpoint],
        settled: &HashMap<MemoKey, MemoEntry>,
        workers: usize,
        commit: &(dyn Fn(usize, Vec<ExperimentResult>, ExecutorStats) -> bool + Sync),
    ) -> HashMap<MemoKey, MemoEntry> {
        let tel = WorkerTel::new(&self.telemetry);
        let mut memo = MemoView {
            settled,
            own: HashMap::new(),
        };
        // The worker's running totals; the gate reviews these.
        let mut stats = ExecutorStats::default();
        // A cache holding more than the per-checkpoint seeds is warm —
        // preloaded from the daemon's store or populated by an earlier
        // call's runs over this shared campaign — and exempt from the
        // gate's a-priori short-program cut (injection-point hits pay at
        // any program length).
        let warm_cache = memo.settled.len() > checkpoints.len();
        let mut gate = MemoGate::new(
            self.golden.cycles,
            warm_cache,
            self.memo_harvest.load(Ordering::Relaxed),
        );
        // The worker starts from the checkpoint nearest its first
        // injection (a fresh machine when none qualifies), so the first
        // advance is a restore distance too.
        let first = shards
            .iter()
            .find_map(|(_, shard)| shard.first())
            .map_or(0, |e| e.coord.pre_injection_cycle());
        let mut pristine = self.machine_at(checkpoints, first);
        let mut restored = true;
        for &(index, experiments) in shards {
            let shard_span = tel.registry.span(names::SPAN_SHARD_NS);
            let before = stats;
            let mut blocks = BlockStats::default();
            let mut out = Vec::new();
            for &e in experiments {
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
                if gate.probes_injection() {
                    // Warm the pristine machine's page-hash cache so the
                    // fork's injection-point digest below only re-hashes
                    // the page the bit-flip dirties (none, for register
                    // faults).
                    gate.digest(&mut pristine);
                }
                let mut m = pristine.clone();
                fault.inject(&mut m, e.coord.bit);
                let base = m.block_stats();
                let outcome = tel.timed_dispatch(|| {
                    self.run_faulted(&mut m, checkpoints, &mut memo, &mut stats, &tel, &mut gate)
                });
                blocks.absorb(m.block_stats().delta_since(base));
                stats.experiments += 1;
                gate.review(stats.experiments, &stats);
                out.push(ExperimentResult {
                    experiment: e,
                    outcome,
                });
            }
            let mut delta = stats.since(&before);
            delta.workers = workers;
            if gate.probing {
                delta.gate_shards_on = 1;
            } else {
                delta.gate_shards_off = 1;
            }
            tel.flush(&delta, &blocks);
            shard_span.finish();
            if !commit(index, out, delta) {
                break;
            }
        }
        memo.own
    }

    /// Runs one faulted machine to its classification.
    ///
    /// The run pauses at every pristine checkpoint cycle it crosses. If
    /// the faulted machine's architectural state matches the snapshot
    /// there ([`Machine::converged_with_masked`]), determinism makes the
    /// remaining tail identical to the golden run:
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
    /// While the worker's gate keeps probing on (or in harvest mode), the
    /// run first looks up its post-injection `(cycle, state digest)` in
    /// the worker's memo view and returns the cached outcome on a hit; on
    /// a miss it simulates, repeating the lookup at every checkpoint
    /// crossing while probing is on (before the convergence comparison,
    /// so exact re-entries into explored trajectories — including the
    /// pre-seeded pristine states — resolve as hits), and finally inserts
    /// every state it passed through.
    fn run_faulted(
        &self,
        m: &mut Machine,
        checkpoints: &[Checkpoint],
        memo: &mut MemoView,
        stats: &mut ExecutorStats,
        tel: &WorkerTel,
        gate: &mut MemoGate,
    ) -> Outcome {
        let budget = cycle_budget(self.golden.cycles);
        let start_cycle = m.cycle();
        // The cost-model gate masks memoization for the rest of the
        // worker's run once probing demonstrably cannot pay (see
        // [`MemoGate`]); a gated-off run looks up and records at most its
        // injection-point state, and only in harvest mode.
        let at_injection = gate.probes_injection();
        let memoize = gate.probing;
        // State digests this run passes through; on completion every one
        // of them maps to the run's outcome, so later injections that
        // converge *into* this trajectory hit at their next checkpoint.
        let mut waypoints: Vec<MemoKey> = Vec::new();
        let (outcome, final_cycle) = 'run: {
            if at_injection {
                // Injection-point lookup: an earlier experiment (in either
                // fault domain) that produced this exact post-injection
                // state already determined the outcome.
                if let Some(hit) = gate.probe(tel, memo, m, true, &mut waypoints, stats) {
                    break 'run (hit.outcome, hit.final_cycle);
                }
                stats.memo_misses += 1;
            }
            // Early termination is sound because a converged run's tail —
            // the rest of the golden run — always fits the budget.
            let first = checkpoints.partition_point(|c| c.machine.cycle() <= m.cycle());
            for ckpt in &checkpoints[first..] {
                if let Some(status) = m.run_to(ckpt.machine.cycle()) {
                    let outcome =
                        Outcome::classify(status, m.serial(), m.detect_count(), &self.golden);
                    break 'run (outcome, m.cycle());
                }
                // Checkpoint-crossing lookup, deliberately *before* the
                // convergence comparison: runs re-entering an
                // already-explored trajectory — most commonly the exact
                // pristine state, pre-seeded per checkpoint — resolve
                // here and also donate their own waypoints.
                if memoize {
                    if let Some(hit) = gate.probe(tel, memo, m, false, &mut waypoints, stats) {
                        break 'run (hit.outcome, hit.final_cycle);
                    }
                }
                if m.converged_with_masked(&ckpt.machine, &ckpt.mask) {
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
                    break 'run (outcome, self.golden.cycles);
                }
            }
            let status = m.run(budget);
            let outcome = Outcome::classify(status, m.serial(), m.detect_count(), &self.golden);
            (outcome, m.cycle())
        };
        stats.faulted_cycles += m.cycle() - start_cycle;
        tel.faulted_run_cycles.record(m.cycle() - start_cycle);
        // After an injection-point miss the first waypoint is the
        // post-injection state.
        memo.insert_all(
            &waypoints,
            MemoEntry {
                outcome,
                final_cycle,
                origin: MemoOrigin::Fresh,
                injection: false,
                exported: false,
            },
            at_injection,
        );
        outcome
    }
}

/// The fault an experiment injects: the domain it strikes and how many
/// adjacent bits it flips — 1, the paper's model, everywhere but burst
/// sampling, which never asks for a wider [`FaultDomain::InstrSkip`] or
/// [`FaultDomain::BranchInvert`] fault.
#[derive(Clone, Copy)]
pub(crate) struct Fault {
    pub(crate) domain: FaultDomain,
    pub(crate) width: u32,
}

impl Fault {
    /// Applies the fault at fault-space bit `bit` to a machine already
    /// paused at the pre-injection cycle. Data domains flip bits `bit ..
    /// bit + width` directly; control-flow domains arm a latched
    /// [`CfFault`] (an opcode fault corrupting `width` adjacent bits of one
    /// instruction word) that fires on the first matching fetch, and stays
    /// dormant — architecturally a no-effect — when the trigger never
    /// matches again, which is what makes arbitrary full-scan coordinates
    /// sound.
    fn inject(self, m: &mut Machine, bit: u64) {
        let bits = bit..bit + u64::from(self.width);
        match self.domain {
            FaultDomain::Memory => bits.for_each(|b| m.flip_bit(b)),
            FaultDomain::RegisterFile => bits.for_each(|b| m.flip_reg_bit(b)),
            FaultDomain::InstrSkip => m.arm_cf_fault(CfFault::SkipAt { slot: bit as u32 }),
            FaultDomain::OpcodeBit => m.arm_cf_fault(CfFault::CorruptAt {
                slot: (bit / 32) as u32,
                mask: (u32::MAX >> (32 - self.width)) << (bit % 32),
            }),
            FaultDomain::BranchInvert => m.arm_cf_fault(CfFault::InvertBranch),
        }
    }
}

/// Splits cycle-sorted items (experiments, or shards keyed by their
/// first injection cycle) into at most `chunks` contiguous runs with
/// (approximately) equal injection-cycle spans. Balancing by span rather
/// than by count bounds each worker's pristine forward-simulation range;
/// empty spans (and an empty list) produce no chunk.
fn chunk_by_cycle_span<T>(sorted: &[T], chunks: usize, cycle: impl Fn(&T) -> u64) -> Vec<&[T]> {
    let (Some(first), Some(last)) = (sorted.first(), sorted.last()) else {
        return Vec::new();
    };
    debug_assert!(chunks > 0);
    let first = cycle(first);
    let span = cycle(last).saturating_sub(first);
    let mut out = Vec::with_capacity(chunks);
    let mut begin = 0;
    for k in 1..=chunks as u64 {
        let end = if k == chunks as u64 {
            sorted.len()
        } else {
            let bound = first + span * k / chunks as u64;
            begin + sorted[begin..].partition_point(|item| cycle(item) <= bound)
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
        let r = c.run_full_defuse_in(FaultDomain::Memory);
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
        let brute = c.run_brute_force_in(FaultDomain::Memory);
        let pruned = c.run_full_defuse_in(FaultDomain::Memory);
        assert_eq!(brute.results.len(), 128);
        assert_eq!(brute.failure_weight(), pruned.failure_weight());
        assert_eq!(brute.benign_weight(), pruned.benign_weight());

        // Per-coordinate agreement via the class index.
        let index = sofi_space::ClassIndex::new(
            c.analysis_for(FaultDomain::Memory),
            c.plan_for(FaultDomain::Memory),
        );
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
        let (fast, _) = c.run_experiments_stats(
            FaultDomain::Memory,
            &c.plan_for(FaultDomain::Memory).experiments,
        );
        let naive = c.run_experiments_naive(
            crate::FaultDomain::Memory,
            &c.plan_for(FaultDomain::Memory).experiments,
        );
        assert_eq!(fast, naive);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // Tiny plan (16 experiments, more workers than cycle chunks)…
        let p = hi_program();
        let seq = Campaign::with_config(&p, CampaignConfig::sequential())
            .unwrap()
            .run_full_defuse_in(FaultDomain::Memory);
        let par = Campaign::with_config(
            &p,
            CampaignConfig {
                threads: 4,
                ..CampaignConfig::default()
            },
        )
        .unwrap()
        .run_full_defuse_in(FaultDomain::Memory);
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
            seq.plan_for(FaultDomain::Memory).experiments.len() >= 64,
            "memory plan too small ({}) to exercise chunking",
            seq.plan_for(FaultDomain::Memory).experiments.len()
        );
        let registers = FaultDomain::RegisterFile;
        assert!(
            seq.plan_for(registers).experiments.len() >= 64,
            "register plan too small ({}) to exercise chunking",
            seq.plan_for(registers).experiments.len()
        );
        assert_eq!(
            seq.run_full_defuse_in(FaultDomain::Memory),
            par.run_full_defuse_in(FaultDomain::Memory)
        );
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
        let (seq_res, seq_stats) = seq.run_experiments_stats(
            FaultDomain::Memory,
            &seq.plan_for(FaultDomain::Memory).experiments,
        );
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
        let (par_res, par_stats) = par.run_experiments_stats(
            FaultDomain::Memory,
            &par.plan_for(FaultDomain::Memory).experiments,
        );
        assert!(par_stats.workers > 1, "expected a parallel run");
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
    fn run_shards_commits_each_shard_once_and_stops_when_told() {
        let p = sofi_workloads::fib(sofi_workloads::Variant::Baseline);
        let config = CampaignConfig {
            threads: 2,
            ..CampaignConfig::default()
        };
        let c = Campaign::with_config(&p, config).unwrap();
        let plan = &c.plan_for(FaultDomain::Memory).experiments;
        let shards: Vec<Vec<Experiment>> = plan.chunks(8).map(<[_]>::to_vec).collect();
        let committed = Mutex::new(Vec::new());
        c.run_shards(FaultDomain::Memory, &shards, |i, results, stats| {
            committed.lock().unwrap().push((i, results, stats));
            true
        });
        let mut committed = committed.into_inner().unwrap();
        committed.sort_by_key(|&(i, ..)| i);
        assert_eq!(committed.len(), shards.len());
        let mut total = ExecutorStats::default();
        for (i, results, stats) in &committed {
            let ids: Vec<u32> = results.iter().map(|r| r.experiment.id).collect();
            let want: Vec<u32> = shards[*i].iter().map(|e| e.id).collect();
            assert_eq!(ids, want, "shard {i} out of order or incomplete");
            assert_eq!(stats.experiments, want.len() as u64);
            assert_eq!(stats.workers, 2, "the call's worker count");
            assert_eq!(stats.gate_shards_on + stats.gate_shards_off, 1);
            total.absorb(stats);
        }
        assert_eq!(total.experiments, plan.len() as u64);
        let results: Vec<ExperimentResult> =
            committed.into_iter().flat_map(|(_, r, _)| r).collect();
        assert_eq!(results, c.run_experiments_naive(FaultDomain::Memory, plan));

        // One worker whose third commit says stop runs no fourth shard.
        let one = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
        let calls = Mutex::new(0);
        one.run_shards(FaultDomain::Memory, &shards, |_, _, _| {
            let mut n = calls.lock().unwrap();
            *n += 1;
            *n < 3
        });
        assert_eq!(calls.into_inner().unwrap(), 3);
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
        let chunks = super::chunk_by_cycle_span(&experiments, 4, |e| e.coord.cycle);
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
        let experiments = c.plan_for(FaultDomain::Memory).experiments.clone();
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
        let (_, mem_stats) = c.run_experiments_stats(
            FaultDomain::Memory,
            &c.plan_for(FaultDomain::Memory).experiments,
        );
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
        let (result, stats) =
            c.run_plan_stats(FaultDomain::Memory, c.plan_for(FaultDomain::Memory));
        let naive = c.run_experiments_naive(
            FaultDomain::Memory,
            &c.plan_for(FaultDomain::Memory).experiments,
        );
        assert_eq!(result.results, naive);
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
        let bit = c.plan_for(FaultDomain::Memory).experiments[0].coord.bit;
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
        // Feed the sequential worker shards in *descending* cycle order
        // (`run_shards` runs shards as given; `run_experiments_stats`
        // sorts first): every experiment forces a restart. With the
        // checkpoint-based restart the pristine rework is bounded by the
        // checkpoint spacing; the old always-from-zero restart would
        // re-simulate the full prefix sum of injection cycles.
        let p = sofi_workloads::fib(sofi_workloads::Variant::Baseline);
        let c = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
        let mut reversed = c.plan_for(FaultDomain::Memory).experiments.clone();
        reversed.sort_unstable_by_key(|e| std::cmp::Reverse((e.coord.cycle, e.coord.bit)));
        let shards: Vec<Vec<Experiment>> = reversed.chunks(4).map(<[_]>::to_vec).collect();

        let committed = Mutex::new((Vec::new(), ExecutorStats::default()));
        c.run_shards(FaultDomain::Memory, &shards, |i, results, shard| {
            let mut committed = committed.lock().unwrap();
            committed.0.push((i, results));
            committed.1.absorb(&shard);
            true
        });
        let (mut committed, stats) = committed.into_inner().unwrap();
        assert_eq!(stats.workers, 1);
        committed.sort_by_key(|&(i, _)| i);
        let results: Vec<ExperimentResult> = committed.into_iter().flat_map(|(_, r)| r).collect();
        assert_eq!(
            results,
            c.run_experiments_naive(FaultDomain::Memory, &reversed)
        );

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
        let r = c.run_full_defuse_in(FaultDomain::Memory);
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
        let r = c.run_full_defuse_in(FaultDomain::Memory);
        assert!(r.results.iter().all(
            |res| res.outcome == Outcome::DetectedCorrected || res.outcome == Outcome::NoEffect
        ));
        assert_eq!(r.failure_weight(), 0);
    }

    /// A deciding gate that has issued `probes` probes re-hashing
    /// `pages` pages, and its priced spend.
    fn spent_gate(probes: u64, pages: u64) -> (MemoGate, u64) {
        let gate = MemoGate::new(GATE_MIN_GOLDEN_CYCLES, false, false);
        assert!(gate.probing && gate.deciding);
        let gate = MemoGate {
            probes,
            pages,
            ..gate
        };
        (gate, probes * PROBE + pages * PAGE)
    }

    fn reviewed(mut gate: MemoGate, experiments: u64, stats: ExecutorStats) -> (bool, bool) {
        gate.review(experiments, &stats);
        (gate.probing, gate.deciding)
    }

    #[test]
    fn memo_gate_early_review_cuts_only_hitless_spend_beyond_all_simulation() {
        let n = 4;
        // Enough probes that the spend covers the per-run allowance.
        let (gate, cost) = spent_gate(n * RUN, 3);
        let budget = |faulted_cycles| ExecutorStats {
            faulted_cycles,
            ..ExecutorStats::default()
        };
        let at_budget = budget(cost - n * RUN);
        assert_eq!(reviewed(gate, n, at_budget), (true, true), "spend = budget");
        let (gate, _) = spent_gate(n * RUN, 3);
        let over = budget(cost - n * RUN - 1);
        assert_eq!(reviewed(gate, n, over), (false, false), "spend > budget");
        // One hit spares the early cut, however large the spend.
        let (gate, _) = spent_gate(n * RUN, 3);
        let hit = ExecutorStats {
            memo_hits: 1,
            ..budget(0)
        };
        assert_eq!(reviewed(gate, n, hit), (true, true));
        // Reviews act only at powers of two from 4 on.
        for quiet in [1, 2, 3, 5, 6, 7, 31] {
            let (gate, _) = spent_gate(n * RUN, 3);
            assert_eq!(
                reviewed(gate, quiet, budget(0)),
                (true, true),
                "n = {quiet}"
            );
        }
    }

    #[test]
    fn memo_gate_mature_review_weighs_spend_against_twice_the_savings() {
        let n = GATE_FULL_REVIEW;
        let (gate, cost) = spent_gate(40, 7);
        let saved = |memoized_cycles_saved| ExecutorStats {
            memo_hits: 1,
            memoized_cycles_saved,
            // Simulation no longer counts at the mature review.
            faulted_cycles: u64::MAX / 2,
            ..ExecutorStats::default()
        };
        assert_eq!(reviewed(gate, n, saved((cost - 1) / 2)), (false, false));
        // Enough savings: probing stays on and the gate stops deciding,
        // so a later review with no savings at all cannot cut it.
        let (mut gate, _) = spent_gate(40, 7);
        gate.review(n, &saved(cost.div_ceil(2)));
        assert_eq!((gate.probing, gate.deciding), (true, false));
        gate.review(2 * n, &saved(0));
        assert!(gate.probing);
    }

    #[test]
    fn memo_gate_short_programs_start_off_and_warm_caches_get_a_trial() {
        let short = MemoGate::new(GATE_MIN_GOLDEN_CYCLES - 1, false, false);
        assert_eq!((short.probing, short.deciding), (false, false));
        assert!(!short.probes_injection());
        let warm = MemoGate::new(GATE_MIN_GOLDEN_CYCLES - 1, true, false);
        assert_eq!(
            (warm.probing, warm.deciding),
            (true, true),
            "warm cache gets a trial"
        );
    }

    #[test]
    fn memo_gate_harvest_forces_only_the_injection_probe() {
        // Cut a priori: crossing probes stay off, the injection probe runs.
        let short = MemoGate::new(GATE_MIN_GOLDEN_CYCLES - 1, false, true);
        assert_eq!((short.probing, short.deciding), (false, false));
        assert!(short.probes_injection());
        // Harvest does not exempt the gate from its reviews; a cut
        // leaves the injection probe on.
        let mut cut = MemoGate {
            probes: 1 << 20,
            ..MemoGate::new(GATE_MIN_GOLDEN_CYCLES, false, true)
        };
        assert_eq!((cut.probing, cut.deciding), (true, true));
        cut.review(4, &ExecutorStats::default());
        assert_eq!((cut.probing, cut.deciding), (false, false));
        assert!(cut.probes_injection());

        // In a campaign: `hi` (8 cycles) is cut a priori, so under
        // harvest every experiment probes once, at its injection point,
        // and never at one of its checkpoint crossings.
        let c = Campaign::with_config(&hi_program(), CampaignConfig::sequential()).unwrap();
        c.set_memo_harvest();
        let experiments = &c.plan_for(FaultDomain::Memory).experiments;
        let (results, stats) = c.run_experiments_stats(FaultDomain::Memory, experiments);
        assert_eq!(
            results,
            c.run_experiments_naive(FaultDomain::Memory, experiments)
        );
        assert_eq!(stats.memo_misses, stats.experiments, "{stats:?}");
        assert_eq!(stats.memo_hits, 0, "a crossing probe ran: {stats:?}");
        assert_eq!((stats.gate_shards_on, stats.gate_shards_off), (0, 1));
        assert_eq!(c.export_memo().len(), experiments.len());
    }

    #[test]
    fn export_memo_returns_each_injection_point_fact_once() {
        let p = sofi_workloads::fib(sofi_workloads::Variant::Baseline);
        for threads in [1, 2] {
            let config = CampaignConfig {
                threads,
                ..CampaignConfig::default()
            };
            let c = Campaign::with_config(&p, config).unwrap();
            c.set_memo_harvest();
            let experiments = &c.plan_for(FaultDomain::Memory).experiments;
            let (head, tail) = experiments.split_at(experiments.len() / 2);
            // Distinct coordinates give distinct post-injection states, so
            // each run adds exactly one fact per experiment, whatever its
            // checkpoint crossings recorded.
            c.run_experiments_stats(FaultDomain::Memory, head);
            let first = c.export_memo();
            assert_eq!(first.len(), head.len(), "{threads} threads");
            // The next call folds the head's facts in, exported marks
            // included.
            c.run_experiments_stats(FaultDomain::Memory, tail);
            let second = c.export_memo();
            assert_eq!(second.len(), tail.len(), "only the new facts");
            assert!(second.iter().all(|r| !first.contains(r)));
            assert!(c.export_memo().is_empty(), "nothing new to export");
            // A rerun hits every fact at its injection point and
            // exports none of them again.
            c.run_experiments_stats(FaultDomain::Memory, experiments);
            assert!(c.export_memo().is_empty(), "{threads} threads");
        }
    }

    #[test]
    fn a_settled_fact_hit_at_injection_is_exported_once_through_its_copy() {
        let key = (7, Machine::new(&hi_program()).state_digest());
        let waypoint = MemoEntry {
            outcome: Outcome::NoEffect,
            final_cycle: 8,
            origin: MemoOrigin::Fresh,
            injection: false,
            exported: false,
        };
        let mut memo = Memo::default();
        memo.settled.insert(key, waypoint);
        let mut view = MemoView {
            settled: &memo.settled,
            own: HashMap::new(),
        };
        assert!(view.get(&key, false).is_some());
        assert!(view.own.is_empty(), "a crossing hit marks nothing");
        assert!(view.get(&key, true).is_some());
        let own = view.own;
        assert!(own[&key].injection, "the mark lands in the worker's map");
        // Two workers of one call hit it: one record, both marked.
        memo.pending = vec![own.clone(), own];
        let c = Campaign::new(&hi_program()).unwrap();
        *c.memo.lock().unwrap() = memo;
        assert_eq!(c.export_memo().len(), 1);
        assert!(c.export_memo().is_empty());
        // The fold keeps the settled entry and both marks.
        let folded = c.memo.lock().unwrap().fold()[&key];
        assert!(folded.injection && folded.exported);
        assert!(c.export_memo().is_empty());
    }

    #[test]
    fn memo_gate_counts_the_pages_each_digest_rehashes() {
        let (mut gate, _) = spent_gate(0, 0);
        let mut m = Machine::new(&hi_program());
        gate.digest(&mut m);
        let cold = gate.pages;
        assert!(cold > 0, "a fresh machine's first digest hashes its RAM");
        gate.digest(&mut m);
        assert_eq!(gate.pages, cold, "a clean re-digest re-hashes nothing");
        let mut fork = m.clone();
        fork.flip_bit(0);
        gate.digest(&mut fork);
        assert_eq!(gate.pages, cold + 1, "one dirtied page, one re-hash");
        assert_eq!(gate.probes, 0, "a digest alone is not a probe");
    }
}
