//! Deterministic failure injection.
//!
//! Real clouds fail: allocations hit capacity, nodes come up unhealthy,
//! tasks die. The paper's task list carries a `pending / failed / completed`
//! status precisely because of this. A [`FaultPlan`] lets tests and
//! experiments inject failures at exact points — deterministically, so a
//! failing sweep replays identically.
//!
//! The plan itself is immutable: it describes *which* invocations fail.
//! Attempt counting lives in a separate [`FaultTracker`], keyed by
//! `(operation, scope)` — scope being the SKU, pool, or resource-group the
//! operation targets — so parallel shard workers sharing one provider see
//! the same fault sequence a serial run would, and cloning a plan never
//! forks invocation history.

use crate::fnv::Fnv64;
use std::collections::HashMap;
use std::fmt;

/// Control-plane operations that can be made to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Creating a resource group.
    CreateResourceGroup,
    /// Creating a VNet/subnet.
    CreateNetwork,
    /// Creating a storage account.
    CreateStorage,
    /// Creating the batch account.
    CreateBatch,
    /// Creating the jumpbox VM.
    CreateJumpbox,
    /// Peering VNets.
    PeerVnets,
    /// Allocating compute nodes into a pool.
    AllocateNodes,
    /// A node failing to boot after its capacity was granted.
    BootNode,
    /// Running a task on the pool (checked by the orchestrator).
    RunTask,
    /// A node dying while a task is running on it.
    NodeDeath,
    /// Spot/low-priority capacity being reclaimed by the provider while a
    /// task is running on it. Only checked for spot allocations.
    Eviction,
    /// A whole region rejecting all allocations (control-plane outage).
    RegionOutage,
    /// A region running out of sellable capacity: allocations fail even
    /// though the caller's quota has room.
    RegionCapacityCrunch,
    /// A region provisioning slowly: allocations succeed but node boot
    /// latency is multiplied.
    RegionProvisionDelay,
}

/// The region-level fault taxonomy: which failure mode a region exhibits.
/// Each variant maps onto one [`Operation`] so the same deterministic
/// `Nth`/`Probability`/`Burst` machinery that drives node faults drives
/// region faults; rolls are keyed by region name so they replay under any
/// worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionFault {
    /// Every allocation in the region fails outright.
    Outage,
    /// Allocations fail for lack of regional capacity.
    CapacityCrunch,
    /// Allocations succeed but provisioning is slowed.
    ProvisionDelay,
}

impl RegionFault {
    /// The fault-plan operation this region fault is checked as.
    pub(crate) fn operation(self) -> Operation {
        match self {
            RegionFault::Outage => Operation::RegionOutage,
            RegionFault::CapacityCrunch => Operation::RegionCapacityCrunch,
            RegionFault::ProvisionDelay => Operation::RegionProvisionDelay,
        }
    }
}

/// How an injected fault should be treated by retry logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Worth retrying: capacity blips, unhealthy boots, node loss.
    Transient,
    /// Retrying cannot help: malformed requests, hard provider rejections.
    Permanent,
}

/// A structured injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Whether a retry can be expected to succeed.
    pub kind: FaultKind,
    /// The operation that failed.
    pub(crate) op: Operation,
    /// 0-based invocation index within the operation's scope.
    pub(crate) attempt: u64,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FaultKind::Transient => "transient",
            FaultKind::Permanent => "permanent",
        };
        write!(
            f,
            "injected {kind} failure on {:?} invocation #{}",
            self.op, self.attempt
        )
    }
}

/// When a registered fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMode {
    /// Exactly the `n`-th invocation (0-based) fails.
    Nth(u64),
    /// Every invocation fails.
    Always,
    /// Each invocation fails independently with this probability, decided
    /// by a stateless hash of `(seed, op, scope, attempt)` so the outcome
    /// is identical under any thread interleaving.
    Probability(f64),
    /// Correlated bursts ("eviction storms"): invocations whose index falls
    /// inside a window of `width` at the start of each `every`-invocation
    /// cycle fail with `storm` probability; invocations outside the window
    /// fail with the lower `calm` probability. Decisions use the same
    /// stateless hash as [`FaultMode::Probability`].
    Burst {
        /// Cycle length, in invocations (must be > 0 to ever storm).
        every: u64,
        /// Number of invocations at the start of each cycle that storm.
        width: u64,
        /// Failure probability inside the storm window.
        storm: f64,
        /// Failure probability outside the storm window.
        calm: f64,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct FaultRule {
    mode: FaultMode,
    kind: FaultKind,
    /// When set, the rule only fires for this roll scope (compared
    /// case-insensitively — region names are user input). `None` matches
    /// every scope, which is the behavior all pre-scoped rules had.
    scope: Option<String>,
}

/// An immutable, deterministic plan of which invocations of each operation
/// fail.
///
/// Failures are specified by *invocation index* (0-based, per operation and
/// scope): `fail_nth(AllocateNodes, 2)` makes the third allocation attempt
/// on each SKU fail. The plan never mutates; the provider's fault tracker
/// counts invocations.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: HashMap<Operation, Vec<FaultRule>>,
    seed: u64,
}

impl FaultPlan {
    /// A plan with no failures.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the seed used by probabilistic rules.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Registers a rule with an explicit mode and kind.
    pub(crate) fn fail_with(mut self, op: Operation, mode: FaultMode, kind: FaultKind) -> Self {
        self.rules.entry(op).or_default().push(FaultRule {
            mode,
            kind,
            scope: None,
        });
        self
    }

    /// Registers the `n`-th invocation (0-based) of `op` to fail
    /// transiently.
    pub fn fail_nth(self, op: Operation, n: u64) -> Self {
        self.fail_with(op, FaultMode::Nth(n), FaultKind::Transient)
    }

    /// Registers each invocation of `op` to fail transiently with
    /// probability `p`.
    pub fn fail_probabilistic(self, op: Operation, p: f64) -> Self {
        self.fail_with(op, FaultMode::Probability(p), FaultKind::Transient)
    }

    /// Registers steady spot-eviction pressure: each eviction check fails
    /// (evicts) independently with probability `rate`.
    pub fn evict_pressure(self, rate: f64) -> Self {
        self.fail_with(
            Operation::Eviction,
            FaultMode::Probability(rate),
            FaultKind::Transient,
        )
    }

    /// Registers a region fault (see [`RegionFault`]) with an explicit mode.
    /// Region faults are transient: retrying in another region — or later in
    /// the same one — can succeed.
    pub fn fail_region(self, fault: RegionFault, mode: FaultMode) -> Self {
        self.fail_with(fault.operation(), mode, FaultKind::Transient)
    }

    /// [`FaultPlan::fail_region`] scoped to one region: the rule only fires
    /// for allocations placed in `region` (matched case-insensitively),
    /// leaving every other region healthy. This is how chaos experiments
    /// force an outage in a *primary* region and watch placement fail over
    /// to the rest of the candidate list.
    pub fn fail_region_named(mut self, region: &str, fault: RegionFault, mode: FaultMode) -> Self {
        self.rules
            .entry(fault.operation())
            .or_default()
            .push(FaultRule {
                mode,
                kind: FaultKind::Transient,
                scope: Some(region.to_string()),
            });
        self
    }

    /// Whether the plan has any rule for `op`. Callers use this to skip
    /// rolling (and counting) operations the plan cannot fire, keeping
    /// fault-free runs byte-identical to pre-fault behavior.
    pub(crate) fn targets(&self, op: Operation) -> bool {
        self.rules.contains_key(&op)
    }

    /// Decides whether invocation `attempt` of `op` in `scope` fails.
    /// The first matching rule wins. Pure: never mutates the plan.
    pub fn decide(&self, op: Operation, scope: &str, attempt: u64) -> Option<Fault> {
        self.decide_scaled(op, scope, attempt, 1.0)
    }

    /// [`FaultPlan::decide`] with probabilistic rates scaled by `pressure`
    /// (clamped to certainty). A pressure of 1.0 is identical to `decide`;
    /// spot pools in capacity-tight regions pass the region's
    /// `spot_pressure` so the same plan evicts harder there. `Nth` and
    /// `Always` rules are exact schedules and never scale.
    pub(crate) fn decide_scaled(
        &self,
        op: Operation,
        scope: &str,
        attempt: u64,
        pressure: f64,
    ) -> Option<Fault> {
        let rules = self.rules.get(&op)?;
        for rule in rules {
            if let Some(only) = &rule.scope {
                if !only.eq_ignore_ascii_case(scope) {
                    continue;
                }
            }
            let fires = match rule.mode {
                FaultMode::Nth(n) => attempt == n,
                FaultMode::Always => true,
                FaultMode::Probability(p) => {
                    fault_roll(self.seed, op, scope, attempt) < (p * pressure).min(1.0)
                }
                FaultMode::Burst {
                    every,
                    width,
                    storm,
                    calm,
                } => {
                    let p = if every > 0 && attempt % every < width {
                        storm
                    } else {
                        calm
                    };
                    fault_roll(self.seed, op, scope, attempt) < (p * pressure).min(1.0)
                }
            };
            if fires {
                return Some(Fault {
                    kind: rule.kind,
                    op,
                    attempt,
                });
            }
        }
        None
    }
}

/// Stateless uniform roll in `[0, 1)` from `(seed, op, scope, attempt)`
/// via 64-bit FNV-1a — no RNG state, so any interleaving replays alike.
fn fault_roll(seed: u64, op: Operation, scope: &str, attempt: u64) -> f64 {
    let h = Fnv64::new()
        .field(&seed.to_le_bytes())
        .field(format!("{op:?}").as_bytes())
        .field(scope.as_bytes())
        .field(&attempt.to_le_bytes())
        .finish();
    // Map the top 53 bits onto [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Mutable invocation counters paired with an immutable [`FaultPlan`].
///
/// Counters are keyed `(operation, scope)`; the scope is whatever entity
/// the operation targets (SKU name for allocations, pool name for tasks,
/// resource-group name for deployments), so per-scope fault sequences are
/// independent of how work is interleaved across threads.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultTracker {
    /// Per operation, per scope. A scope that has counted before is found
    /// by `&str`, so a roll allocates its key only once.
    counters: HashMap<Operation, HashMap<String, u64>>,
}

impl FaultTracker {
    /// A tracker with no recorded invocations.
    pub(crate) fn new() -> Self {
        FaultTracker::default()
    }

    /// Records one invocation of `op` under `counter_scope` and reports the
    /// injected fault, if the plan has one for this invocation. The plan
    /// decides under `roll_scope` at the counter's attempt index, with
    /// probabilistic rates scaled by `pressure` (see
    /// [`FaultPlan::decide_scaled`]). Plain scope rolls pass the same scope
    /// twice; region rolls count under a shard-owned key such as
    /// `sku@region` (so the sequence is independent of worker interleaving
    /// on the shared provider) and decide under the region name (so an
    /// outage at a given attempt index is region-wide).
    pub(crate) fn check(
        &mut self,
        plan: &FaultPlan,
        op: Operation,
        counter_scope: &str,
        roll_scope: &str,
        pressure: f64,
    ) -> Result<(), Fault> {
        let scopes = self.counters.entry(op).or_default();
        if !scopes.contains_key(counter_scope) {
            scopes.insert(counter_scope.to_string(), 0);
        }
        let count = scopes.get_mut(counter_scope).expect("inserted above");
        let attempt = *count;
        *count += 1;
        match plan.decide_scaled(op, roll_scope, attempt, pressure) {
            Some(fault) => Err(fault),
            None => Ok(()),
        }
    }

    /// Number of times `op` has been attempted in `scope` so far.
    pub(crate) fn attempts(&self, op: Operation, scope: &str) -> u64 {
        self.counters
            .get(&op)
            .and_then(|scopes| scopes.get(scope))
            .copied()
            .unwrap_or(0)
    }

    /// Forgets all invocation history.
    pub(crate) fn reset(&mut self) {
        self.counters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_failures_by_default() {
        let plan = FaultPlan::none();
        let mut tracker = FaultTracker::new();
        for _ in 0..100 {
            assert!(tracker
                .check(&plan, Operation::AllocateNodes, "sku", "sku", 1.0)
                .is_ok());
        }
    }

    #[test]
    fn fails_exactly_nth_invocation() {
        let plan = FaultPlan::none().fail_nth(Operation::AllocateNodes, 1);
        let mut tracker = FaultTracker::new();
        assert!(tracker
            .check(&plan, Operation::AllocateNodes, "s", "s", 1.0)
            .is_ok());
        let fault = tracker
            .check(&plan, Operation::AllocateNodes, "s", "s", 1.0)
            .unwrap_err();
        assert_eq!(fault.kind, FaultKind::Transient);
        assert_eq!(fault.attempt, 1);
        assert!(fault.to_string().contains("injected transient failure"));
        assert!(tracker
            .check(&plan, Operation::AllocateNodes, "s", "s", 1.0)
            .is_ok());
        assert_eq!(tracker.attempts(Operation::AllocateNodes, "s"), 3);
    }

    #[test]
    fn fail_always_has_no_sentinel_index() {
        let plan = FaultPlan::none().fail_with(
            Operation::CreateStorage,
            FaultMode::Always,
            FaultKind::Transient,
        );
        let mut tracker = FaultTracker::new();
        for _ in 0..3 {
            assert!(tracker
                .check(&plan, Operation::CreateStorage, "g", "g", 1.0)
                .is_err());
        }
        // u64::MAX is a legitimate invocation index, not "always".
        let nth = FaultPlan::none().fail_nth(Operation::CreateStorage, u64::MAX);
        assert!(nth.decide(Operation::CreateStorage, "g", 0).is_none());
        assert!(nth
            .decide(Operation::CreateStorage, "g", u64::MAX)
            .is_some());
        // Other operations are unaffected.
        assert!(tracker
            .check(&plan, Operation::CreateBatch, "g", "g", 1.0)
            .is_ok());
    }

    #[test]
    fn operations_and_scopes_count_independently() {
        let plan = FaultPlan::none().fail_nth(Operation::RunTask, 0);
        let mut tracker = FaultTracker::new();
        assert!(tracker
            .check(&plan, Operation::AllocateNodes, "a", "a", 1.0)
            .is_ok());
        assert!(tracker
            .check(&plan, Operation::RunTask, "pool-a", "pool-a", 1.0)
            .is_err());
        assert!(tracker
            .check(&plan, Operation::RunTask, "pool-a", "pool-a", 1.0)
            .is_ok());
        // A different scope restarts the per-scope count.
        assert!(tracker
            .check(&plan, Operation::RunTask, "pool-b", "pool-b", 1.0)
            .is_err());
        let run_task = |scope| tracker.attempts(Operation::RunTask, scope);
        assert_eq!(run_task("pool-a") + run_task("pool-b"), 3);
    }

    #[test]
    fn cloning_plan_does_not_fork_history() {
        let plan = FaultPlan::none().fail_nth(Operation::AllocateNodes, 1);
        let clone = plan.clone();
        let mut tracker = FaultTracker::new();
        assert!(tracker
            .check(&plan, Operation::AllocateNodes, "s", "s", 1.0)
            .is_ok());
        // Same tracker, either plan copy: second invocation fails.
        assert!(tracker
            .check(&clone, Operation::AllocateNodes, "s", "s", 1.0)
            .is_err());
    }

    #[test]
    fn probabilistic_faults_are_stateless_and_seeded() {
        let plan = FaultPlan::none()
            .seed(7)
            .fail_probabilistic(Operation::RunTask, 0.5);
        let a: Vec<bool> = (0..64)
            .map(|i| plan.decide(Operation::RunTask, "pool", i).is_some())
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|i| plan.decide(Operation::RunTask, "pool", i).is_some())
            .collect();
        assert_eq!(a, b, "same (seed, scope, attempt) replays identically");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x), "p=0.5 mixes");
        let other_seed = FaultPlan::none()
            .seed(8)
            .fail_probabilistic(Operation::RunTask, 0.5);
        let c: Vec<bool> = (0..64)
            .map(|i| other_seed.decide(Operation::RunTask, "pool", i).is_some())
            .collect();
        assert_ne!(a, c, "seed changes the outcome sequence");
    }

    #[test]
    fn probability_extremes() {
        let never = FaultPlan::none().fail_probabilistic(Operation::BootNode, 0.0);
        let always = FaultPlan::none().fail_probabilistic(Operation::BootNode, 1.0);
        for i in 0..32 {
            assert!(never.decide(Operation::BootNode, "s", i).is_none());
            assert!(always.decide(Operation::BootNode, "s", i).is_some());
        }
    }

    #[test]
    fn burst_mode_storms_in_windows_and_stays_deterministic() {
        // Storm window: first 4 of every 16 checks evict with certainty,
        // the rest never do — the pattern is exact and replayable.
        let storms = |storm, calm| {
            FaultPlan::none().seed(3).fail_with(
                Operation::Eviction,
                FaultMode::Burst {
                    every: 16,
                    width: 4,
                    storm,
                    calm,
                },
                FaultKind::Transient,
            )
        };
        let plan = storms(1.0, 0.0);
        let fired: Vec<bool> = (0..48)
            .map(|i| plan.decide(Operation::Eviction, "pool-hb", i).is_some())
            .collect();
        for (i, &f) in fired.iter().enumerate() {
            assert_eq!(f, (i as u64) % 16 < 4, "check #{i}");
        }
        let again: Vec<bool> = (0..48)
            .map(|i| plan.decide(Operation::Eviction, "pool-hb", i).is_some())
            .collect();
        assert_eq!(fired, again, "burst decisions are stateless");
        // A calm background rate fires outside the window too.
        let calm = storms(1.0, 0.5);
        let outside = (4..16)
            .filter(|&i| calm.decide(Operation::Eviction, "pool-hb", i).is_some())
            .count();
        assert!(outside > 0, "calm-rate evictions fire between storms");
    }

    #[test]
    fn evict_pressure_is_probabilistic_per_scope() {
        let plan = FaultPlan::none().seed(7).evict_pressure(0.5);
        let a: Vec<bool> = (0..64)
            .map(|i| plan.decide(Operation::Eviction, "pool-a", i).is_some())
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|i| plan.decide(Operation::Eviction, "pool-b", i).is_some())
            .collect();
        assert_ne!(a, b, "scopes roll independently");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn region_faults_map_to_operations() {
        assert_eq!(RegionFault::Outage.operation(), Operation::RegionOutage);
        assert_eq!(
            RegionFault::CapacityCrunch.operation(),
            Operation::RegionCapacityCrunch
        );
        assert_eq!(
            RegionFault::ProvisionDelay.operation(),
            Operation::RegionProvisionDelay
        );
        let plan = FaultPlan::none().fail_region(RegionFault::Outage, FaultMode::Nth(0));
        let fault = plan.decide(Operation::RegionOutage, "eastus", 0).unwrap();
        assert_eq!(fault.kind, FaultKind::Transient);
        assert!(plan.decide(Operation::RegionOutage, "eastus", 1).is_none());
    }

    #[test]
    fn region_scoped_rules_spare_other_regions() {
        // An Always outage pinned to one region fires there on every
        // attempt and never anywhere else — the chaos-test primitive for
        // "the primary region is down, everything should fail over".
        let plan =
            FaultPlan::none().fail_region_named("eastus", RegionFault::Outage, FaultMode::Always);
        assert!(plan.decide(Operation::RegionOutage, "eastus", 0).is_some());
        assert!(plan.decide(Operation::RegionOutage, "EastUS", 3).is_some());
        assert!(plan.decide(Operation::RegionOutage, "westus2", 0).is_none());
        assert!(plan
            .decide(Operation::RegionOutage, "westeurope", 7)
            .is_none());
    }

    #[test]
    fn keyed_checks_count_per_counter_scope_and_roll_per_region() {
        // Nth(1): counters are per counter_scope, so two SKUs in the same
        // region each see their own second attempt fail — independent of
        // the order the shared tracker is hit in.
        let plan = FaultPlan::none().fail_with(
            Operation::RegionCapacityCrunch,
            FaultMode::Nth(1),
            FaultKind::Transient,
        );
        let mut tracker = FaultTracker::new();
        let check = |tr: &mut FaultTracker, counter: &str| {
            tr.check(
                &plan,
                Operation::RegionCapacityCrunch,
                counter,
                "eastus",
                1.0,
            )
            .is_err()
        };
        assert!(!check(&mut tracker, "hb@eastus"));
        assert!(!check(&mut tracker, "hc@eastus"));
        assert!(check(&mut tracker, "hb@eastus"), "hb's 2nd attempt fails");
        assert!(check(&mut tracker, "hc@eastus"), "hc's 2nd attempt fails");

        // Probability rolls use the roll scope: identical attempt index in
        // the same region rolls identically regardless of counter scope.
        let plan = FaultPlan::none().seed(7).fail_with(
            Operation::RegionOutage,
            FaultMode::Probability(0.5),
            FaultKind::Transient,
        );
        let mut a = FaultTracker::new();
        let mut b = FaultTracker::new();
        let rolls_a: Vec<bool> = (0..32)
            .map(|_| {
                a.check(&plan, Operation::RegionOutage, "hb@westus2", "westus2", 1.0)
                    .is_err()
            })
            .collect();
        let rolls_b: Vec<bool> = (0..32)
            .map(|_| {
                b.check(&plan, Operation::RegionOutage, "hc@westus2", "westus2", 1.0)
                    .is_err()
            })
            .collect();
        assert_eq!(rolls_a, rolls_b, "region-wide decisions replay per attempt");
    }

    #[test]
    fn pressure_scales_probabilistic_rates_only() {
        let plan = FaultPlan::none()
            .seed(5)
            .fail_probabilistic(Operation::Eviction, 0.3);
        let base = (0..256)
            .filter(|&i| {
                plan.decide_scaled(Operation::Eviction, "pool", i, 1.0)
                    .is_some()
            })
            .count();
        let pressured = (0..256)
            .filter(|&i| {
                plan.decide_scaled(Operation::Eviction, "pool", i, 2.0)
                    .is_some()
            })
            .count();
        assert!(pressured > base, "pressure raises the eviction rate");
        // Certainty clamps.
        let all = (0..64)
            .filter(|&i| {
                plan.decide_scaled(Operation::Eviction, "pool", i, 100.0)
                    .is_some()
            })
            .count();
        assert_eq!(all, 64);
        // Exact schedules never scale.
        let nth = FaultPlan::none().fail_nth(Operation::AllocateNodes, 1);
        assert!(nth
            .decide_scaled(Operation::AllocateNodes, "s", 0, 100.0)
            .is_none());
        assert!(nth
            .decide_scaled(Operation::AllocateNodes, "s", 1, 0.0)
            .is_some());
        // Pressure 1.0 is byte-identical to the unscaled decision.
        for i in 0..64 {
            assert_eq!(
                plan.decide(Operation::Eviction, "pool", i).is_some(),
                plan.decide_scaled(Operation::Eviction, "pool", i, 1.0)
                    .is_some()
            );
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::none()
            .fail_with(
                Operation::AllocateNodes,
                FaultMode::Nth(0),
                FaultKind::Permanent,
            )
            .fail_with(
                Operation::AllocateNodes,
                FaultMode::Always,
                FaultKind::Transient,
            );
        let first = plan.decide(Operation::AllocateNodes, "s", 0).unwrap();
        assert_eq!(first.kind, FaultKind::Permanent);
        let later = plan.decide(Operation::AllocateNodes, "s", 1).unwrap();
        assert_eq!(later.kind, FaultKind::Transient);
    }
}
