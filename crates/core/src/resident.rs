//! Long-lived resident models: evaluate once, then *maintain* under
//! streaming EDB ingestion — inserts **and retractions**.
//!
//! A [`ResidentModel`] holds a converged evaluation of a workload and
//! applies batches of extensional operations **incrementally**: newly
//! asserted EDB tuples seed the semi-naive delta frontier and propagation
//! resumes from the affected strata; retracted EDB tuples trigger a
//! DRed-style delete/re-derive pass. Reads stay closed-form lookups
//! against the maintained relations.
//!
//! ## Incremental maintenance invariants
//!
//! Let `M` be the converged model and `Δ` a batch of operations.
//!
//! 1. **Insert-only is monotone for positive programs.** Every rule
//!    firing of `T_GP(edb ∪ Δ)` either (a) uses no tuple newer than `M`,
//!    and was therefore already fired, or (b) uses at least one new
//!    tuple. The insert path of [`ResidentModel::apply_ops`] covers (b)
//!    exactly: each clause is fired once per body position holding a
//!    changed predicate, with the frontier relation at that position and
//!    the *updated* full relations elsewhere — the textbook semi-naive
//!    argument, seeded at the EDB instead of at iteration 1.
//! 2. **Retraction is delete/re-derive (DRed).** A retraction removes
//!    the stored EDB tuples semantically contained in the retracted
//!    tuple, then *over-deletes* the IDB: every tuple whose recorded
//!    derivation transitively touches a removed tuple is deleted (the
//!    provenance cone, when complete provenance is available), or every
//!    tuple of every affected intensional predicate (the per-stratum
//!    wipe fallback). One fixpoint pass then re-derives, per affected
//!    stratum bottom-up, everything with a surviving alternative
//!    derivation, together with the consequences of the batch's asserts.
//!    Both modes start it from a *subset* of the true fixpoint, so
//!    convergence lands exactly on it. In cone mode a stratum's first
//!    iteration fires each clause for the data vectors of its
//!    over-deleted heads, plus semi-naively, as in (1), from every tuple
//!    the batch has added so far (asserted EDB tuples and lower-strata
//!    inserts, re-derived ones included). A firing that uses none of
//!    those uses only surviving tuples of the old model, so its head lies
//!    inside the old model; every generalized tuple carries one data
//!    vector, so if that vector matches no over-deleted tuple, the head
//!    is covered by same-data tuples that all survived and the
//!    subsumption insert would reject it. Wipe mode fires every affected
//!    clause in full.
//! 3. **Negation constrains the over-delete mode.** Retraction can
//!    *grow* a predicate defined through negation, and recorded positive
//!    sources cannot witness negation-dependent invalidation — so the
//!    provenance cone is only used when no affected clause negates an
//!    affected predicate. The wipe fallback is sound even then:
//!    stratification puts every negated predicate in a strictly lower
//!    stratum, which is rebuilt to its final value first.
//! 4. **Representation-level retraction semantics.** Retracting `t`
//!    removes stored tuples *subsumed by* `t`. Content of `t` that was
//!    folded into a strictly broader stored tuple is **not** carved
//!    out — the generalized relation is the unit of storage, exactly as
//!    in the paper's closed representation. Callers that need carve-out
//!    must ingest at the granularity they intend to retract.
//! 5. **Failed batches roll back; the model never wedges.** Every apply
//!    is transactional: a governor trip or divergence mid-batch restores
//!    the exact pre-batch EDB, IDB, and provenance state and surfaces
//!    [`ApplyError::RolledBack`]. The model stays healthy and continues
//!    to serve reads and later batches — there is no poisoned state.
//!    Rollback replays an undo journal backwards: removed tuples and
//!    derivation records with their storage positions, truncation marks
//!    for appends, and the relations a wipe moved out. Its size follows
//!    the batch's delta; nothing is cloned up front. (A full
//!    re-evaluation needs no entry: it replaces the IDB only as the
//!    apply's last step, once it has converged.)
//! 6. **Determinism.** Given the same starting state and the same
//!    operation sequence, `apply_ops` produces byte-identical relations
//!    (and byte-identical rollback decisions, for deterministic
//!    governors) — the property WAL replay and the crash-recovery chaos
//!    tests build on. The over-delete mode is itself deterministic from
//!    persisted state: snapshots carry the derivation log, so a restore
//!    replays retractions in the same mode as the uninterrupted run.
//! 7. **Divergence stays detected.** The same free-extension-key grace
//!    rule as the engine guards each incremental fixpoint; a batch that
//!    makes the workload diverge is rolled back rather than looping.
//!
//! The `*_full_reeval` twins recompute the model from scratch; ×64
//! proptests pin the equivalence of the incremental and oracle paths on
//! random workloads and interleaved insert/retract sequences.

// User-reachable ingestion path: failures must flow through the error
// taxonomy, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::analyze::{analyze, ProgramInfo};
use crate::ast::Program;
use crate::checkpoint::{get_relations, get_tuple, hash_program, put_relations, put_tuple};
use crate::db::Database;
use crate::engine::{
    eval_clause, eval_clause_for_head, evaluate_with, Derivation, EvalOptions, EvalOutcome,
    Evaluation, Pending,
};
use crate::normalize::{normalize_program, NormClause};
use itdb_lrp::{
    remove_at, restore_at, DataValue, Error, GeneralizedRelation, GeneralizedTuple, Result, Schema,
};
use itdb_store::{ByteReader, ByteWriter, Section};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

/// One extensional fact: a predicate name and a generalized tuple (which
/// may, as everywhere in the paper, denote infinitely many ground facts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// Extensional predicate the tuple extends.
    pub pred: String,
    /// The generalized tuple.
    pub tuple: GeneralizedTuple,
}

/// One ingest operation: assert a fact into the EDB, or retract every
/// stored tuple semantically contained in the fact's tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert the fact (subsumption-deduplicated, idempotent).
    Assert(Fact),
    /// Remove stored tuples subsumed by the fact's tuple, then DRed-
    /// maintain the IDB. See module invariant 4 for the exact semantics.
    Retract(Fact),
}

impl Op {
    /// The fact this operation carries.
    pub fn fact(&self) -> &Fact {
        match self {
            Op::Assert(f) | Op::Retract(f) => f,
        }
    }

    /// Is this a retraction?
    pub fn is_retract(&self) -> bool {
        matches!(self, Op::Retract(_))
    }
}

/// Why an [`ResidentModel::apply_ops`] call did not apply.
#[derive(Debug)]
pub enum ApplyError {
    /// The batch was rejected by up-front validation (unknown/intensional
    /// predicate, schema mismatch). The model was not touched at all.
    Invalid(Error),
    /// The batch failed mid-flight (governor trip, divergence, budget
    /// exhaustion) and every mutation was rolled back: the model is the
    /// exact pre-batch state and stays fully serviceable. Retrying the
    /// identical batch under the same limits will fail identically.
    RolledBack(Error),
}

impl ApplyError {
    /// Unwraps the underlying evaluation error.
    pub fn into_error(self) -> Error {
        match self {
            ApplyError::Invalid(e) | ApplyError::RolledBack(e) => e,
        }
    }

    /// Was the model mutated and restored (as opposed to never touched)?
    pub fn rolled_back(&self) -> bool {
        matches!(self, ApplyError::RolledBack(_))
    }
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Invalid(e) => write!(f, "invalid batch: {e}"),
            ApplyError::RolledBack(e) => write!(f, "batch rolled back: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// What one [`ResidentModel::apply_ops`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// EDB tuples newly inserted (not subsumed by the existing relation).
    pub applied: u64,
    /// EDB tuples already covered by the relation — idempotent re-sends.
    pub duplicates: u64,
    /// Stored EDB tuples removed by retract operations.
    pub retracted: u64,
    /// Retract operations that matched no stored tuple (no-ops).
    pub retract_noops: u64,
    /// IDB tuples inserted by insert-only delta propagation.
    pub derived_inserted: u64,
    /// IDB tuples removed by the DRed over-delete phase.
    pub overdeleted: u64,
    /// IDB tuples re-inserted by the DRed re-derive phase.
    pub rederived: u64,
    /// Whether the over-delete used the provenance cone (`true`) or the
    /// per-stratum wipe fallback (`false`; also `false` when no
    /// retraction reached the IDB).
    pub dred_cone: bool,
    /// Strata whose fixpoint was re-entered.
    pub strata_touched: usize,
    /// Semi-naive iterations run across all touched strata.
    pub iterations: u64,
    /// Whether the batch degraded to one full re-evaluation (insert-path
    /// negation fallback, or the `*_full_reeval` oracle twins).
    pub full_reeval: bool,
}

/// Lifetime counters for a resident model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Batches applied successfully.
    pub applies: u64,
    /// Total EDB tuples newly inserted.
    pub facts_applied: u64,
    /// Total EDB tuples subsumed as duplicates.
    pub facts_duplicate: u64,
    /// Total stored EDB tuples removed by retractions.
    pub facts_retracted: u64,
    /// Total IDB tuples inserted by insert-path propagation.
    pub derived_inserted: u64,
    /// Total IDB tuples removed by DRed over-deletes.
    pub retraction_overdeleted: u64,
    /// Total IDB tuples re-inserted by DRed re-derives.
    pub retraction_rederived: u64,
    /// Applies that degraded to a full re-evaluation.
    pub full_reevals: u64,
    /// Batches that failed mid-flight and were rolled back.
    pub rollbacks: u64,
}

/// Section tags for [`ResidentModel::snapshot_sections`].
const SEC_RES_META: u8 = 21;
const SEC_RES_EDB: u8 = 22;
const SEC_RES_IDB: u8 = 23;
const SEC_RES_PROV: u8 = 24;
const RES_SNAPSHOT_VERSION: u8 = 1;

/// Which store a journaled relation mutation touched.
#[derive(Clone, Copy)]
enum Side {
    Edb,
    Idb,
}

/// One mutation an apply made, recorded as it happens. A failed batch
/// rolls back by undoing the journal newest-first. Entries carry only the
/// batch's delta (removed tuples and records with their storage
/// positions, append marks); a wipe moves the replaced relation out
/// instead of cloning it.
enum Undo {
    /// The batch created this EDB relation: drop it.
    EdbCreated(String),
    /// Tuples were appended to the relation from this length on.
    Appended(Side, String, usize),
    /// Tuples were removed from the relation: put them back.
    Removed(Side, String, Vec<(usize, GeneralizedTuple)>),
    /// A wipe replaced this IDB relation with an empty one.
    Wiped(String, GeneralizedRelation),
    /// Derivation records were appended from this length on.
    DerivationsAppended(usize),
    /// Derivation records were removed: put them back.
    DerivationsRemoved(Vec<(usize, Derivation)>),
}

/// Records that tuples are about to be appended to the EDB relation
/// `pred`, unless the newest entry already marks appends to it.
fn note_edb_append(journal: &mut Vec<Undo>, pred: &str, len: usize) {
    if let Some(Undo::Appended(Side::Edb, p, _)) = journal.last() {
        if p == pred {
            return;
        }
    }
    journal.push(Undo::Appended(Side::Edb, pred.to_string(), len));
}

/// The data vectors of the IDB tuples a cone over-delete removed, per
/// predicate: the only heads the re-derive step has to re-fire.
type DeadHeads = BTreeMap<String, BTreeSet<Vec<DataValue>>>;

/// Inserts one iteration's derived tuples into the IDB (and their records
/// into the derivation log). An insert counts as re-derived when it lands
/// on an over-deleted head's data vector (`dead`; every insert in wipe
/// mode, `None`), as derived otherwise. Returns the inserted tuples per
/// predicate — the next semi-naive frontier — and whether any of them
/// carries a free-extension key its predicate did not hold before. Every
/// tuple with a given key shares its data vector, so the same-data bucket
/// (which already holds this apply's earlier inserts) is the whole set to
/// check against.
fn insert_derived(
    idb: &mut BTreeMap<String, GeneralizedRelation>,
    derivations: &mut Vec<Derivation>,
    opts: &EvalOptions,
    derived: Vec<Pending>,
    dead: Option<&DeadHeads>,
    out: &mut ApplyOutcome,
) -> Result<(BTreeMap<String, GeneralizedRelation>, bool)> {
    let mut next: BTreeMap<String, GeneralizedRelation> = BTreeMap::new();
    let mut new_fe_key = false;
    for Pending {
        pred,
        rule,
        tuple,
        sources,
    } in derived
    {
        let Some(tuple) = tuple.canonical() else {
            continue;
        };
        let rel = idb.get_mut(&pred).ok_or_else(|| {
            Error::Eval(format!(
                "internal: derived tuple for non-intensional predicate {pred}"
            ))
        })?;
        let ins = if opts.use_index {
            rel.insert_if_new(tuple.clone(), opts.residue_budget)?
        } else {
            rel.insert_if_new_naive(tuple.clone(), opts.residue_budget)?
        };
        if !ins {
            continue;
        }
        let rederived = dead.is_none_or(|d| d.get(&pred).is_some_and(|s| s.contains(tuple.data())));
        if rederived {
            out.rederived += 1;
        } else {
            out.derived_inserted += 1;
        }
        if !new_fe_key {
            // The tuple itself is the one same-key entry it must find.
            let lrps = tuple.zone().lrps();
            new_fe_key = rel
                .bucket(tuple.data())
                .filter(|t| t.zone().lrps() == lrps)
                .nth(1)
                .is_none();
        }
        if opts.provenance {
            derivations.push(Derivation {
                pred: pred.clone(),
                tuple: tuple.clone(),
                rule,
                sources,
            });
        }
        let schema = Schema::new(tuple.temporal_arity(), tuple.data_arity());
        next.entry(pred)
            .or_insert_with(|| GeneralizedRelation::empty(schema))
            .insert(tuple)?;
    }
    Ok((next, new_fe_key))
}

/// A converged evaluation kept resident and maintained incrementally
/// under fact ingestion and retraction. See the module docs for the
/// invariants.
#[derive(Debug, Clone)]
pub struct ResidentModel {
    program: Program,
    info: ProgramInfo,
    clauses: Vec<NormClause>,
    program_hash: u128,
    edb: Database,
    idb: BTreeMap<String, GeneralizedRelation>,
    empty: BTreeMap<String, GeneralizedRelation>,
    opts: EvalOptions,
    stats: ResidentStats,
    /// Insertion-ordered derivation log (every source of a derivation
    /// precedes it): the provenance cone DRed consults. Complete only
    /// while [`Self::provenance_complete`] holds.
    derivations: Vec<Derivation>,
    /// True when `derivations` records every IDB insertion since the
    /// model's birth (provenance on, coalesce off, and no restore from a
    /// provenance-free snapshot) — the precondition for cone-mode DRed.
    provenance_complete: bool,
}

impl ResidentModel {
    /// Evaluates the workload once and keeps the converged model
    /// resident. A workload that diverges or trips its governor cannot
    /// be maintained incrementally and is refused.
    pub fn new(program: Program, edb: Database, opts: EvalOptions) -> Result<Self> {
        let eval = evaluate_with(&program, &edb, &opts)?;
        Self::from_evaluation(program, edb, eval, opts)
    }

    /// Keeps an evaluation the caller already ran (under its own
    /// governor) resident. `eval` must be `program` over `edb` under
    /// `opts`; like [`Self::new`], a run that did not converge is refused.
    pub fn from_evaluation(
        program: Program,
        edb: Database,
        eval: Evaluation,
        opts: EvalOptions,
    ) -> Result<Self> {
        if !matches!(eval.outcome, EvalOutcome::Converged { .. }) {
            return Err(Error::Eval(format!(
                "resident model requires a convergent workload, got: {:?}",
                eval.outcome
            )));
        }
        Self::assemble(program, edb, eval.idb, opts, eval.derivations, true)
    }

    fn assemble(
        program: Program,
        edb: Database,
        idb: BTreeMap<String, GeneralizedRelation>,
        opts: EvalOptions,
        derivations: Vec<Derivation>,
        provenance_flag: bool,
    ) -> Result<Self> {
        let info = analyze(&program)?;
        let all_clauses = normalize_program(&program)?;
        let program_hash = hash_program(&all_clauses);
        let clauses: Vec<NormClause> = all_clauses.into_iter().filter(|c| !c.dead).collect();
        let empty: BTreeMap<String, GeneralizedRelation> = info
            .signatures
            .iter()
            .map(|(p, s)| (p.clone(), GeneralizedRelation::empty(*s)))
            .collect();
        let provenance_complete = provenance_flag && opts.provenance && !opts.coalesce;
        Ok(ResidentModel {
            program,
            info,
            clauses,
            program_hash,
            edb,
            idb,
            empty,
            opts,
            stats: ResidentStats::default(),
            derivations,
            provenance_complete,
        })
    }

    /// The workload program this model maintains.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The current extensional database (grown and shrunk by ingestion).
    pub fn edb(&self) -> &Database {
        &self.edb
    }

    /// The maintained intensional relations.
    pub fn idb(&self) -> &BTreeMap<String, GeneralizedRelation> {
        &self.idb
    }

    /// The evaluation options the model was built and is maintained under.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ResidentStats {
        self.stats
    }

    /// The insertion-ordered derivation log (empty unless provenance
    /// recording is on).
    pub fn derivations(&self) -> &[Derivation] {
        &self.derivations
    }

    /// True when retractions can use provenance-cone over-deletion (see
    /// the field docs); false means the per-stratum wipe fallback.
    pub fn provenance_complete(&self) -> bool {
        self.provenance_complete
    }

    /// The relation answering queries for `pred`: maintained IDB first,
    /// raw EDB otherwise.
    pub fn relation(&self, pred: &str) -> Option<&GeneralizedRelation> {
        self.idb.get(pred).or_else(|| self.edb.get(pred))
    }

    /// Validates one asserted fact against the program's signatures and
    /// the current EDB. Intensional predicates cannot be ingested.
    fn check_fact(&self, fact: &Fact) -> Result<()> {
        if self.info.intensional.contains(&fact.pred) {
            return Err(Error::Eval(format!(
                "cannot ingest facts for intensional predicate `{}` (derived by rules)",
                fact.pred
            )));
        }
        let schema = Schema::new(fact.tuple.temporal_arity(), fact.tuple.data_arity());
        if let Some(expected) = self.info.signatures.get(&fact.pred) {
            if *expected != schema {
                return Err(Error::SchemaMismatch(format!(
                    "fact for `{}` has schema {schema} but the program uses {expected}",
                    fact.pred
                )));
            }
        } else if let Some(rel) = self.edb.get(&fact.pred) {
            if rel.schema() != schema {
                return Err(Error::SchemaMismatch(format!(
                    "fact for `{}` has schema {schema} but the relation holds {}",
                    fact.pred,
                    rel.schema()
                )));
            }
        }
        Ok(())
    }

    /// Validates one retraction. `batch_created` holds predicates (and
    /// schemas) introduced by earlier asserts of the same batch, so
    /// assert-then-retract of a brand-new predicate is well-formed.
    fn check_retract(&self, fact: &Fact, batch_created: &BTreeMap<String, Schema>) -> Result<()> {
        if self.info.intensional.contains(&fact.pred) {
            return Err(Error::Eval(format!(
                "cannot retract intensional predicate `{}` (derived by rules; \
                 retract its extensional sources instead)",
                fact.pred
            )));
        }
        let schema = Schema::new(fact.tuple.temporal_arity(), fact.tuple.data_arity());
        let known = self
            .info
            .signatures
            .get(&fact.pred)
            .copied()
            .or_else(|| self.edb.get(&fact.pred).map(|r| r.schema()))
            .or_else(|| batch_created.get(&fact.pred).copied());
        match known {
            None => Err(Error::Eval(format!(
                "cannot retract from unknown predicate `{}`",
                fact.pred
            ))),
            Some(expected) if expected != schema => Err(Error::SchemaMismatch(format!(
                "retraction for `{}` has schema {schema} but the relation holds {expected}",
                fact.pred
            ))),
            Some(_) => Ok(()),
        }
    }

    /// Predicates whose extension may change when `changed` changes:
    /// transitive closure of the dependency graph, upward. The analysis
    /// dependency edges include negated body atoms, so the closure is an
    /// over-approximation for retraction too.
    fn affected_preds(&self, changed: &BTreeSet<String>) -> BTreeSet<String> {
        let mut affected = changed.clone();
        loop {
            let before = affected.len();
            for (head, dep) in &self.info.dependencies {
                if affected.contains(dep) {
                    affected.insert(head.clone());
                }
            }
            if affected.len() == before {
                return affected;
            }
        }
    }

    /// Does any clause with an affected head negate an affected
    /// predicate? If so, delta insertion (and provenance-cone deletion)
    /// is unsound inside the affected region.
    fn negation_over(&self, affected: &BTreeSet<String>) -> bool {
        self.clauses.iter().any(|c| {
            affected.contains(&c.head_pred) && c.neg_body.iter().any(|a| affected.contains(&a.pred))
        })
    }

    /// Applies one batch of assert/retract operations incrementally.
    /// Transactional: on [`ApplyError::RolledBack`] the model is the
    /// exact pre-batch state. [`Self::apply_ops_full_reeval`] is the
    /// oracle twin.
    pub fn apply_ops(&mut self, ops: &[Op]) -> std::result::Result<ApplyOutcome, ApplyError> {
        self.apply_ops_inner(ops, false)
    }

    /// The oracle twin: same EDB walk and accounting, then a full
    /// re-evaluation replaces the maintained IDB wholesale.
    pub fn apply_ops_full_reeval(
        &mut self,
        ops: &[Op],
    ) -> std::result::Result<ApplyOutcome, ApplyError> {
        self.apply_ops_inner(ops, true)
    }

    /// Insert-only compatibility wrapper over [`Self::apply_ops`].
    pub fn apply_batch(&mut self, facts: &[Fact]) -> Result<ApplyOutcome> {
        let ops: Vec<Op> = facts.iter().cloned().map(Op::Assert).collect();
        self.apply_ops(&ops).map_err(ApplyError::into_error)
    }

    /// Insert-only compatibility wrapper over
    /// [`Self::apply_ops_full_reeval`].
    pub fn apply_batch_full_reeval(&mut self, facts: &[Fact]) -> Result<ApplyOutcome> {
        let ops: Vec<Op> = facts.iter().cloned().map(Op::Assert).collect();
        self.apply_ops_full_reeval(&ops)
            .map_err(ApplyError::into_error)
    }

    fn apply_ops_inner(
        &mut self,
        ops: &[Op],
        force_full: bool,
    ) -> std::result::Result<ApplyOutcome, ApplyError> {
        // Phase 1: validate everything up front — an invalid batch must
        // leave the model untouched.
        let mut batch_created: BTreeMap<String, Schema> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Assert(f) => {
                    self.check_fact(f).map_err(ApplyError::Invalid)?;
                    let schema = Schema::new(f.tuple.temporal_arity(), f.tuple.data_arity());
                    if !self.info.signatures.contains_key(&f.pred)
                        && self.edb.get(&f.pred).is_none()
                    {
                        batch_created.entry(f.pred.clone()).or_insert(schema);
                    }
                }
                Op::Retract(f) => {
                    self.check_retract(f, &batch_created)
                        .map_err(ApplyError::Invalid)?;
                }
            }
        }

        // Phase 2: walk the operations over the EDB in order, journaling
        // every mutation.
        let mut out = ApplyOutcome::default();
        let mut journal: Vec<Undo> = Vec::new();
        let mut insert_delta: BTreeMap<String, GeneralizedRelation> = BTreeMap::new();
        let mut retract_seed: BTreeMap<String, Vec<GeneralizedTuple>> = BTreeMap::new();
        let walked = self.walk_ops(
            ops,
            &mut journal,
            &mut insert_delta,
            &mut retract_seed,
            &mut out,
        );

        // Phase 3: derivation maintenance, journaled the same way.
        let result = walked.and_then(|()| {
            let changed: BTreeSet<String> = insert_delta
                .keys()
                .chain(retract_seed.keys())
                .cloned()
                .collect();
            let affected = self.affected_preds(&changed);
            if changed.is_empty() || !affected.iter().any(|p| self.info.intensional.contains(p)) {
                return Ok(()); // pure-EDB change: nothing derives from it
            }
            let negation = self.negation_over(&affected);
            self.maintain(
                force_full,
                &affected,
                negation,
                insert_delta,
                &retract_seed,
                &mut journal,
                &mut out,
            )
        });
        if let Err(e) = result {
            self.rollback(journal);
            return Err(ApplyError::RolledBack(e));
        }

        self.stats.applies += 1;
        self.stats.facts_applied += out.applied;
        self.stats.facts_duplicate += out.duplicates;
        self.stats.facts_retracted += out.retracted;
        self.stats.derived_inserted += out.derived_inserted;
        self.stats.retraction_overdeleted += out.overdeleted;
        self.stats.retraction_rederived += out.rederived;
        self.stats.full_reevals += u64::from(out.full_reeval);
        Ok(out)
    }

    /// Brings the IDB up to date with the walked EDB. `affected` and
    /// `negation` are [`Self::affected_preds`] of every changed predicate
    /// and [`Self::negation_over`] of that set.
    #[allow(clippy::too_many_arguments)]
    fn maintain(
        &mut self,
        force_full: bool,
        affected: &BTreeSet<String>,
        negation: bool,
        insert_delta: BTreeMap<String, GeneralizedRelation>,
        retract_seed: &BTreeMap<String, Vec<GeneralizedTuple>>,
        journal: &mut Vec<Undo>,
        out: &mut ApplyOutcome,
    ) -> Result<()> {
        if force_full || (retract_seed.is_empty() && negation) {
            return self.recover_full(out);
        }
        // An insert-only batch is a cone-mode batch with no dead heads.
        let dead = if retract_seed.is_empty() {
            Some(DeadHeads::new())
        } else {
            let dead = self.over_delete(retract_seed, affected, negation, journal, out);
            out.dred_cone = dead.is_some();
            dead
        };
        self.note_appends(affected, journal);
        self.fixpoint(affected, dead.as_ref(), insert_delta, out)
    }

    /// Applies the operations to the EDB in order: asserts insert with
    /// subsumption; retracts remove stored tuples subsumed by the
    /// retracted tuple. Fills the insert delta (for propagation) and the
    /// retract seed (for DRed).
    fn walk_ops(
        &mut self,
        ops: &[Op],
        journal: &mut Vec<Undo>,
        insert_delta: &mut BTreeMap<String, GeneralizedRelation>,
        retract_seed: &mut BTreeMap<String, Vec<GeneralizedTuple>>,
        out: &mut ApplyOutcome,
    ) -> Result<()> {
        for op in ops {
            match op {
                Op::Assert(f) => {
                    let Some(tuple) = f.tuple.canonical() else {
                        // Empty zone: denotes no ground facts at all.
                        out.duplicates += 1;
                        continue;
                    };
                    let schema = Schema::new(tuple.temporal_arity(), tuple.data_arity());
                    match self.edb.get(&f.pred) {
                        None => {
                            journal.push(Undo::EdbCreated(f.pred.clone()));
                            self.edb
                                .insert(f.pred.clone(), GeneralizedRelation::empty(schema));
                        }
                        Some(rel) => note_edb_append(journal, &f.pred, rel.len()),
                    }
                    let rel = self.edb.get_mut(&f.pred).ok_or_else(|| {
                        Error::Eval(format!("internal: EDB relation `{}` vanished", f.pred))
                    })?;
                    let new = if self.opts.use_index {
                        rel.insert_if_new(tuple.clone(), self.opts.residue_budget)?
                    } else {
                        rel.insert_if_new_naive(tuple.clone(), self.opts.residue_budget)?
                    };
                    if new {
                        out.applied += 1;
                        insert_delta
                            .entry(f.pred.clone())
                            .or_insert_with(|| GeneralizedRelation::empty(schema))
                            .insert(tuple)?;
                    } else {
                        out.duplicates += 1;
                    }
                }
                Op::Retract(f) => {
                    let Some(tuple) = f.tuple.canonical() else {
                        out.retract_noops += 1;
                        continue;
                    };
                    let Some(rel) = self.edb.get_mut(&f.pred) else {
                        out.retract_noops += 1;
                        continue;
                    };
                    let removed = rel.remove_subsumed_by(&tuple, self.opts.residue_budget)?;
                    if removed.is_empty() {
                        out.retract_noops += 1;
                        continue;
                    }
                    out.retracted += removed.len() as u64;
                    // Same-batch assert-then-retract: the retracted
                    // tuples must not seed the insert frontier.
                    if let Some(delta) = insert_delta.get_mut(&f.pred) {
                        let _ = delta.remove_subsumed_by(&tuple, self.opts.residue_budget)?;
                        if delta.is_empty() {
                            insert_delta.remove(&f.pred);
                        }
                    }
                    retract_seed
                        .entry(f.pred.clone())
                        .or_default()
                        .extend(removed.iter().map(|(_, t)| t.clone()));
                    journal.push(Undo::Removed(Side::Edb, f.pred.clone(), removed));
                }
            }
        }
        Ok(())
    }

    /// Undoes a failed batch's journal, newest entry first, restoring the
    /// exact pre-batch EDB, IDB and derivation log.
    fn rollback(&mut self, journal: Vec<Undo>) {
        for undo in journal.into_iter().rev() {
            match undo {
                Undo::EdbCreated(pred) => {
                    self.edb.remove(&pred);
                }
                Undo::Appended(side, pred, len) => {
                    if let Some(rel) = self.side_mut(side, &pred) {
                        rel.truncate(len);
                    }
                }
                Undo::Removed(side, pred, removed) => {
                    if let Some(rel) = self.side_mut(side, &pred) {
                        rel.restore_removed(removed);
                    }
                }
                Undo::Wiped(pred, rel) => {
                    self.idb.insert(pred, rel);
                }
                Undo::DerivationsAppended(len) => self.derivations.truncate(len),
                Undo::DerivationsRemoved(removed) => restore_at(&mut self.derivations, removed),
            }
        }
        self.stats.rollbacks += 1;
    }

    fn side_mut(&mut self, side: Side, pred: &str) -> Option<&mut GeneralizedRelation> {
        match side {
            Side::Edb => self.edb.get_mut(pred),
            Side::Idb => self.idb.get_mut(pred),
        }
    }

    /// Marks the current length of every affected IDB relation and of the
    /// derivation log: everything maintenance appends after this point
    /// rolls back by truncation.
    fn note_appends(&self, affected: &BTreeSet<String>, journal: &mut Vec<Undo>) {
        for pred in affected {
            if let Some(rel) = self.idb.get(pred) {
                journal.push(Undo::Appended(Side::Idb, pred.clone(), rel.len()));
            }
        }
        journal.push(Undo::DerivationsAppended(self.derivations.len()));
    }

    /// DRed phase 1: over-delete. Returns the data vectors of the removed
    /// IDB tuples when the provenance cone was used, `None` for the
    /// per-stratum wipe fallback.
    fn over_delete(
        &mut self,
        retract_seed: &BTreeMap<String, Vec<GeneralizedTuple>>,
        affected: &BTreeSet<String>,
        negation: bool,
        journal: &mut Vec<Undo>,
        out: &mut ApplyOutcome,
    ) -> Option<DeadHeads> {
        if !self.provenance_complete || negation {
            // Wipe fallback: clear every affected intensional relation
            // and its derivation records; sound under stratified negation
            // because re-derivation runs bottom-up per stratum.
            for pred in affected {
                if let Some(rel) = self.idb.get_mut(pred) {
                    out.overdeleted += rel.len() as u64;
                    let empty = GeneralizedRelation::empty(rel.schema());
                    journal.push(Undo::Wiped(pred.clone(), std::mem::replace(rel, empty)));
                }
            }
            let removed = remove_at(&mut self.derivations, |d| affected.contains(&d.pred));
            journal.push(Undo::DerivationsRemoved(removed));
            return None;
        }
        // Dead-set fixpoint in one forward pass: the derivation log is
        // insertion-ordered (sources precede heads), so a single sweep
        // computes the transitive cone of the retracted EDB tuples.
        let mut dead: BTreeMap<String, HashSet<GeneralizedTuple>> = BTreeMap::new();
        // Every dead tuple's data vector: most tuples fail this cheap
        // test and are never hashed whole.
        let mut dead_data: HashSet<Vec<DataValue>> = HashSet::new();
        for (pred, tuples) in retract_seed {
            dead_data.extend(tuples.iter().map(|t| t.data().to_vec()));
            dead.entry(pred.clone())
                .or_default()
                .extend(tuples.iter().cloned());
        }
        let is_dead = |dead: &BTreeMap<String, HashSet<GeneralizedTuple>>,
                       dead_data: &HashSet<Vec<DataValue>>,
                       p: &String,
                       t: &GeneralizedTuple| {
            dead_data.contains(t.data()) && dead.get(p).is_some_and(|s| s.contains(t))
        };
        // A record dies with its head or with any of its sources; a
        // source always dies before the records that use it.
        let mut killed = vec![false; self.derivations.len()];
        for (d, k) in self.derivations.iter().zip(killed.iter_mut()) {
            if is_dead(&dead, &dead_data, &d.pred, &d.tuple) {
                *k = true;
            } else if d
                .sources
                .iter()
                .any(|(p, t)| is_dead(&dead, &dead_data, p, t))
            {
                *k = true;
                dead_data.insert(d.tuple.data().to_vec());
                dead.entry(d.pred.clone())
                    .or_default()
                    .insert(d.tuple.clone());
            }
        }
        let mut heads = DeadHeads::new();
        for pred in affected {
            let (Some(set), Some(rel)) = (dead.get(pred), self.idb.get_mut(pred)) else {
                continue;
            };
            let removed = rel.remove_where(|t| !(dead_data.contains(t.data()) && set.contains(t)));
            if removed.is_empty() {
                continue;
            }
            out.overdeleted += removed.len() as u64;
            heads
                .entry(pred.clone())
                .or_default()
                .extend(removed.iter().map(|(_, t)| t.data().to_vec()));
            journal.push(Undo::Removed(Side::Idb, pred.clone(), removed));
        }
        // Drop every derivation record killed by the over-delete; the
        // re-derive pass records fresh ones for the heads it re-inserts.
        let mut killed = killed.into_iter();
        let removed = remove_at(&mut self.derivations, |_| killed.next().unwrap_or(false));
        journal.push(Undo::DerivationsRemoved(removed));
        Some(heads)
    }

    /// The semi-naive fixpoint over every affected stratum, bottom-up:
    /// DRed's re-derive step and the asserts' delta propagation in one
    /// pass. `acc_delta` starts as the asserted EDB tuples and gathers
    /// every tuple the pass inserts, so at each stratum it holds all that
    /// is new below it.
    ///
    /// Iteration 1 of a stratum fires, against the current relations:
    ///
    /// * in cone mode (`dead` is `Some`; empty for an insert-only batch),
    ///   each affected clause once per over-deleted head data vector, and
    ///   each clause semi-naively from `acc_delta` — once per body
    ///   position holding a predicate with new tuples, with `acc_delta`
    ///   at that position and the full relations elsewhere;
    /// * in wipe mode (`None`), every affected clause in full.
    ///
    /// Later iterations are semi-naive from the stratum's own inserts.
    /// Cone mode's iteration 1 drops no tuple the full firing would have
    /// kept. A firing that uses a tuple of `acc_delta` is made by the
    /// semi-naive part. Any other firing uses only tuples that survived
    /// from the old model, so, with no negation over the affected region,
    /// its head lies inside the old model; if its data vector matches no
    /// over-deleted tuple, every same-data tuple covering it survived and
    /// the subsumption insert rejects it.
    ///
    /// Each stratum is guarded by the engine's free-extension grace rule,
    /// so a batch that makes the workload diverge fails instead of
    /// looping.
    fn fixpoint(
        &mut self,
        affected: &BTreeSet<String>,
        dead: Option<&DeadHeads>,
        mut acc_delta: BTreeMap<String, GeneralizedRelation>,
        out: &mut ApplyOutcome,
    ) -> Result<()> {
        for (stratum_idx, stratum) in self.info.strata.iter().enumerate() {
            let stratum_clauses: Vec<&NormClause> = self
                .clauses
                .iter()
                .filter(|c| stratum.contains(&c.head_pred) && affected.contains(&c.head_pred))
                .collect();
            if stratum_clauses.is_empty() {
                continue; // below the lowest affected stratum, or disjoint
            }
            let _span = itdb_trace::span_with(itdb_trace::SpanKind::Stratum, || {
                format!("maintain stratum {stratum_idx}")
            });
            out.strata_touched += 1;
            let mut fe_safe_streak = 0usize;
            let mut frontier: BTreeMap<String, GeneralizedRelation> = BTreeMap::new();
            let mut stratum_iters = 0usize;
            loop {
                stratum_iters += 1;
                out.iterations += 1;
                if stratum_iters > self.opts.max_iterations {
                    return Err(Error::Eval(format!(
                        "incremental maintenance exceeded {} iterations in stratum {stratum_idx}",
                        self.opts.max_iterations
                    )));
                }
                let mut derived: Vec<Pending> = Vec::new();
                if stratum_iters == 1 {
                    self.fire_heads(&stratum_clauses, dead, &mut derived)?;
                    if dead.is_some() {
                        self.fire_frontier(&stratum_clauses, &acc_delta, &mut derived)?;
                    }
                } else {
                    self.fire_frontier(&stratum_clauses, &frontier, &mut derived)?;
                }
                let (next, new_fe_key) = insert_derived(
                    &mut self.idb,
                    &mut self.derivations,
                    &self.opts,
                    derived,
                    dead,
                    out,
                )?;
                if next.is_empty() {
                    break;
                }
                if new_fe_key {
                    fe_safe_streak = 0;
                } else {
                    fe_safe_streak += 1;
                    if fe_safe_streak > self.opts.grace_after_fe_safety {
                        return Err(Error::Eval(format!(
                            "incremental maintenance diverged in stratum {stratum_idx} \
                             (no new free-extension key for {fe_safe_streak} iterations)"
                        )));
                    }
                }
                for (pred, rel) in &next {
                    let acc = acc_delta
                        .entry(pred.clone())
                        .or_insert_with(|| GeneralizedRelation::empty(rel.schema()));
                    for t in rel.tuples() {
                        acc.insert(t.clone())?;
                    }
                }
                frontier = next;
            }
        }
        Ok(())
    }

    /// The re-derive part of iteration 1: fires each clause against the
    /// current relations, only for its head's over-deleted data vectors
    /// when `heads` is given (cone mode), in full otherwise (wipe mode,
    /// which also covers bodyless clauses).
    fn fire_heads(
        &self,
        clauses: &[&NormClause],
        heads: Option<&DeadHeads>,
        derived: &mut Vec<Pending>,
    ) -> Result<()> {
        for clause in clauses {
            let dead = match heads {
                None => None,
                Some(heads) => match heads.get(&clause.head_pred) {
                    Some(dead) => Some(dead),
                    None => continue,
                },
            };
            let neg_rels: Vec<&GeneralizedRelation> = clause
                .neg_body
                .iter()
                .map(|a| self.stable_rel(&a.pred))
                .collect();
            let rel_for = |i: usize| -> &GeneralizedRelation {
                self.stable_rel(clause.body[i].pred.as_str())
            };
            let mut emit = |t, sources| {
                derived.push(Pending {
                    pred: clause.head_pred.clone(),
                    rule: clause.idx,
                    tuple: t,
                    sources,
                })
            };
            let (budget, use_index, collect) = (
                self.opts.residue_budget,
                self.opts.use_index,
                self.opts.provenance,
            );
            match dead {
                None => eval_clause(
                    clause, &rel_for, &neg_rels, budget, use_index, collect, &mut emit,
                )?,
                Some(dead) => {
                    for head in dead {
                        eval_clause_for_head(
                            clause, head, &rel_for, &neg_rels, budget, use_index, collect,
                            &mut emit,
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// One semi-naive step: fires each clause once per body position
    /// holding a predicate with frontier tuples, with the frontier at that
    /// position and the current full relations elsewhere.
    fn fire_frontier(
        &self,
        clauses: &[&NormClause],
        frontier: &BTreeMap<String, GeneralizedRelation>,
        derived: &mut Vec<Pending>,
    ) -> Result<()> {
        let changed: Vec<&str> = frontier
            .iter()
            .filter(|(_, rel)| !rel.is_empty())
            .map(|(p, _)| p.as_str())
            .collect();
        for clause in clauses {
            let dposes = clause.body_positions_of(&changed);
            if dposes.is_empty() {
                continue;
            }
            let neg_rels: Vec<&GeneralizedRelation> = clause
                .neg_body
                .iter()
                .map(|a| self.stable_rel(&a.pred))
                .collect();
            for dpos in dposes {
                let rel_for = |i: usize| -> &GeneralizedRelation {
                    let pred = clause.body[i].pred.as_str();
                    if i == dpos {
                        frontier.get(pred).unwrap_or_else(|| self.empty_rel(pred))
                    } else {
                        self.stable_rel(pred)
                    }
                };
                eval_clause(
                    clause,
                    &rel_for,
                    &neg_rels,
                    self.opts.residue_budget,
                    self.opts.use_index,
                    self.opts.provenance,
                    &mut |t, sources| {
                        derived.push(Pending {
                            pred: clause.head_pred.clone(),
                            rule: clause.idx,
                            tuple: t,
                            sources,
                        })
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Replaces the IDB (and the derivation log) with a fresh full
    /// evaluation of the already-updated EDB. It is always the last step
    /// of an apply and touches the model only once the evaluation has
    /// converged, so it has nothing to journal.
    fn recover_full(&mut self, out: &mut ApplyOutcome) -> Result<()> {
        out.full_reeval = true;
        out.derived_inserted = 0;
        let eval = evaluate_with(&self.program, &self.edb, &self.opts)?;
        if !matches!(eval.outcome, EvalOutcome::Converged { .. }) {
            return Err(Error::Eval(format!(
                "re-evaluation after ingest did not converge: {:?}",
                eval.outcome
            )));
        }
        self.idb = eval.idb;
        self.derivations = eval.derivations;
        // A from-scratch evaluation re-establishes complete provenance
        // (when recording is on at all).
        self.provenance_complete = self.opts.provenance && !self.opts.coalesce;
        Ok(())
    }

    /// The current full relation for `pred`: maintained IDB for
    /// intensional predicates, (updated) EDB otherwise.
    fn stable_rel(&self, pred: &str) -> &GeneralizedRelation {
        if self.info.intensional.contains(pred) {
            self.idb.get(pred).unwrap_or_else(|| self.empty_rel(pred))
        } else {
            self.edb.get(pred).unwrap_or_else(|| self.empty_rel(pred))
        }
    }

    /// An empty relation of `pred`'s schema (interned; falls back to a
    /// shared 0/0 schema only for predicates the program never mentions).
    fn empty_rel(&self, pred: &str) -> &GeneralizedRelation {
        static FALLBACK: std::sync::OnceLock<GeneralizedRelation> = std::sync::OnceLock::new();
        self.empty.get(pred).unwrap_or_else(|| {
            FALLBACK.get_or_init(|| GeneralizedRelation::empty(itdb_lrp::Schema::new(0, 0)))
        })
    }

    /// Encodes the full resident state (EDB + IDB + derivation log +
    /// applied-through WAL sequence) as store sections — the checkpoint
    /// half of the checkpoint+WAL pairing. Tuple and derivation order is
    /// preserved exactly, so a restore followed by replay is
    /// byte-identical to the uninterrupted run — including which
    /// over-delete mode later retractions use.
    pub fn snapshot_sections(&self, applied_seq: u64) -> Vec<Section> {
        let mut meta = ByteWriter::new();
        meta.put_u8(RES_SNAPSHOT_VERSION);
        meta.put_u64((self.program_hash >> 64) as u64);
        meta.put_u64(self.program_hash as u64);
        meta.put_u64(applied_seq);
        let mut edb = ByteWriter::new();
        put_relations(&mut edb, self.edb.relations());
        let mut idb = ByteWriter::new();
        put_relations(&mut idb, &self.idb);
        let mut prov = ByteWriter::new();
        prov.put_bool(self.provenance_complete);
        prov.put_usize(self.derivations.len());
        for d in &self.derivations {
            prov.put_str(&d.pred);
            prov.put_usize(d.rule);
            put_tuple(&mut prov, &d.tuple);
            prov.put_usize(d.sources.len());
            for (p, t) in &d.sources {
                prov.put_str(p);
                put_tuple(&mut prov, t);
            }
        }
        vec![
            Section::new(SEC_RES_META, meta.into_bytes()),
            Section::new(SEC_RES_EDB, edb.into_bytes()),
            Section::new(SEC_RES_IDB, idb.into_bytes()),
            Section::new(SEC_RES_PROV, prov.into_bytes()),
        ]
    }

    /// Restores a resident model from [`Self::snapshot_sections`] output.
    /// The program must hash-match the snapshot (a snapshot is only valid
    /// for the workload that wrote it). Returns the model and the WAL
    /// sequence it is current through — replay starts after it. A
    /// snapshot without a provenance section (written before retraction
    /// support) restores fine; retractions then use the wipe fallback
    /// until a full re-evaluation re-establishes complete provenance.
    pub fn restore_from_sections(
        program: Program,
        opts: EvalOptions,
        sections: &[Section],
    ) -> Result<(Self, u64)> {
        let find = |tag: u8| -> Result<&[u8]> {
            sections
                .iter()
                .find(|s| s.tag == tag)
                .map(|s| s.payload.as_slice())
                .ok_or_else(|| Error::Eval(format!("resident snapshot: missing section {tag}")))
        };
        let bad = |what: &str| Error::Eval(format!("resident snapshot: truncated {what}"));
        let mut meta = ByteReader::new(find(SEC_RES_META)?);
        let version = meta.get_u8().map_err(|_| bad("meta"))?;
        if version != RES_SNAPSHOT_VERSION {
            return Err(Error::Eval(format!(
                "resident snapshot: unsupported version {version}"
            )));
        }
        let hi = meta.get_u64().map_err(|_| bad("meta"))?;
        let lo = meta.get_u64().map_err(|_| bad("meta"))?;
        let snapshot_hash = (u128::from(hi) << 64) | u128::from(lo);
        let applied_seq = meta.get_u64().map_err(|_| bad("meta"))?;

        let expected = hash_program(&normalize_program(&program)?);
        if snapshot_hash != expected {
            return Err(Error::Eval(
                "resident snapshot was written by a different workload program".to_string(),
            ));
        }
        let mut edb_r = ByteReader::new(find(SEC_RES_EDB)?);
        let edb = Database::from_relations(
            get_relations(&mut edb_r)
                .map_err(|e| Error::Eval(format!("resident snapshot: {e}")))?,
        );
        let mut idb_r = ByteReader::new(find(SEC_RES_IDB)?);
        let idb = get_relations(&mut idb_r)
            .map_err(|e| Error::Eval(format!("resident snapshot: {e}")))?;

        let (derivations, prov_flag) = match sections.iter().find(|s| s.tag == SEC_RES_PROV) {
            None => (Vec::new(), false),
            Some(s) => {
                let mut r = ByteReader::new(s.payload.as_slice());
                let flag = r.get_bool().map_err(|_| bad("provenance"))?;
                let n = r.get_usize().map_err(|_| bad("provenance"))?;
                let mut ds = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    let pred = r.get_str().map_err(|_| bad("provenance"))?;
                    let rule = r.get_usize().map_err(|_| bad("provenance"))?;
                    let tuple = get_tuple(&mut r)
                        .map_err(|e| Error::Eval(format!("resident snapshot: {e}")))?;
                    let ns = r.get_usize().map_err(|_| bad("provenance"))?;
                    let mut sources = Vec::with_capacity(ns.min(1024));
                    for _ in 0..ns {
                        let sp = r.get_str().map_err(|_| bad("provenance"))?;
                        let st = get_tuple(&mut r)
                            .map_err(|e| Error::Eval(format!("resident snapshot: {e}")))?;
                        sources.push((sp, st));
                    }
                    ds.push(Derivation {
                        pred,
                        tuple,
                        rule,
                        sources,
                    });
                }
                (ds, flag)
            }
        };
        let model = Self::assemble(program, edb, idb, opts, derivations, prov_flag)?;
        Ok((model, applied_seq))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use itdb_lrp::parser::parse_tuple;

    const PROGRAM: &str = "\
        problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).
        problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).";

    fn model() -> ResidentModel {
        model_with(EvalOptions::default())
    }

    fn model_with(opts: EvalOptions) -> ResidentModel {
        let program = parse_program(PROGRAM).unwrap();
        let mut edb = Database::new();
        edb.insert_parsed("course", "(168n+8, 168n+10; database) : T2 = T1 + 2")
            .unwrap();
        ResidentModel::new(program, edb, opts).unwrap()
    }

    fn prov_opts() -> EvalOptions {
        EvalOptions {
            provenance: true,
            ..EvalOptions::default()
        }
    }

    fn fact(pred: &str, text: &str) -> Fact {
        Fact {
            pred: pred.to_string(),
            tuple: parse_tuple(text).unwrap(),
        }
    }

    fn assert_op(pred: &str, text: &str) -> Op {
        Op::Assert(fact(pred, text))
    }

    fn retract_op(pred: &str, text: &str) -> Op {
        Op::Retract(fact(pred, text))
    }

    /// Asserts that every IDB relation of `a` is semantically equivalent
    /// to the corresponding relation of `b`.
    fn assert_equivalent(a: &ResidentModel, b: &ResidentModel, ctx: &str) {
        for (pred, rel) in a.idb() {
            assert!(
                rel.equivalent(&b.idb()[pred], 100_000).unwrap(),
                "{ctx}: {pred} differs"
            );
        }
    }

    #[test]
    fn incremental_apply_matches_full_reeval() {
        let mut inc = model();
        let mut full = model();
        let batch = vec![fact(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let a = inc.apply_batch(&batch).unwrap();
        let b = full.apply_batch_full_reeval(&batch).unwrap();
        assert_eq!(a.applied, 1);
        assert_eq!(b.applied, 1);
        assert!(!a.full_reeval, "positive program propagates incrementally");
        assert_equivalent(&inc, &full, "incremental vs full re-eval");
    }

    #[test]
    fn duplicate_batch_is_idempotent() {
        let mut m = model();
        let batch = vec![fact(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let first = m.apply_batch(&batch).unwrap();
        assert_eq!((first.applied, first.duplicates), (1, 0));
        let before = m.idb().clone();
        let second = m.apply_batch(&batch).unwrap();
        assert_eq!((second.applied, second.duplicates), (0, 1));
        assert_eq!(second.derived_inserted, 0, "no re-derivation");
        for (pred, rel) in m.idb() {
            assert_eq!(
                rel.tuples(),
                before[pred].tuples(),
                "idempotent replay is byte-identical"
            );
        }
    }

    #[test]
    fn intensional_facts_are_rejected() {
        let mut m = model();
        let err = m
            .apply_batch(&[fact(
                "problems",
                "(168n+10, 168n+12; database) : T2 = T1 + 2",
            )])
            .unwrap_err();
        assert!(err.to_string().contains("intensional"), "{err}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut m = model();
        let err = m.apply_batch(&[fact("course", "(5n+1)")]).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn negation_over_changed_pred_falls_back_to_full_reeval() {
        let program = parse_program(
            "lit[t](C) <- candidate[t](C), !blocked[t](C).
             blocked[t](C) <- veto[t](C).",
        )
        .unwrap();
        let mut edb = Database::new();
        edb.insert_parsed("candidate", "(7n+1; a)").unwrap();
        edb.insert_parsed("veto", "(14n+1; a)").unwrap();
        let mut m =
            ResidentModel::new(program.clone(), edb.clone(), EvalOptions::default()).unwrap();
        let out = m.apply_batch(&[fact("veto", "(14n+8; a)")]).unwrap();
        assert!(out.full_reeval, "negation over changed pred must fall back");
        // Oracle: full evaluation over the updated EDB.
        let mut edb2 = edb;
        let mut veto = edb2.get("veto").unwrap().clone();
        veto.insert(parse_tuple("(14n+8; a)").unwrap()).unwrap();
        edb2.insert("veto", veto);
        let oracle = evaluate_with(&program, &edb2, &EvalOptions::default()).unwrap();
        for (pred, rel) in m.idb() {
            assert!(
                rel.equivalent(&oracle.idb[pred], 100_000).unwrap(),
                "{pred} differs from oracle after fallback"
            );
        }
    }

    #[test]
    fn new_pure_edb_predicate_is_queryable() {
        let mut m = model();
        let out = m.apply_batch(&[fact("audit", "(24n+3; ops)")]).unwrap();
        assert_eq!(out.applied, 1);
        assert_eq!(out.strata_touched, 0, "no rules reference audit");
        assert!(m.relation("audit").is_some());
    }

    #[test]
    fn snapshot_round_trips_and_replay_is_byte_identical() {
        let mut uninterrupted = model();
        let b1 = vec![fact(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let b2 = vec![fact("course", "(168n+50, 168n+52; logic) : T2 = T1 + 2")];
        uninterrupted.apply_batch(&b1).unwrap();
        // Snapshot mid-stream (as if compaction ran here at WAL seq 1).
        let sections = uninterrupted.snapshot_sections(1);
        uninterrupted.apply_batch(&b2).unwrap();

        let program = parse_program(PROGRAM).unwrap();
        let (mut restored, seq) =
            ResidentModel::restore_from_sections(program, EvalOptions::default(), &sections)
                .unwrap();
        assert_eq!(seq, 1);
        restored.apply_batch(&b2).unwrap(); // replay everything after seq 1
        for (pred, rel) in uninterrupted.idb() {
            assert_eq!(
                rel.tuples(),
                restored.idb()[pred].tuples(),
                "{pred}: restore+replay must be byte-identical to uninterrupted"
            );
        }
        for (pred, rel) in uninterrupted.edb().iter() {
            assert_eq!(rel.tuples(), restored.edb().get(pred).unwrap().tuples());
        }
    }

    #[test]
    fn snapshot_refuses_other_program() {
        let m = model();
        let sections = m.snapshot_sections(0);
        let other = parse_program("p[t] <- q[t].").unwrap();
        let err = ResidentModel::restore_from_sections(other, EvalOptions::default(), &sections)
            .unwrap_err();
        assert!(err.to_string().contains("different workload"), "{err}");
    }

    // ---- retraction ----

    /// Cone mode (provenance on): retract matches the full-reeval oracle,
    /// and two incremental twins are byte-identical (determinism).
    #[test]
    fn retract_matches_oracle_cone_mode() {
        let ops1 = vec![assert_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let ops2 = vec![retract_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let mut inc = model_with(prov_opts());
        let mut twin = model_with(prov_opts());
        let mut oracle = model_with(prov_opts());
        for ops in [&ops1, &ops2] {
            inc.apply_ops(ops).unwrap();
            twin.apply_ops(ops).unwrap();
            oracle.apply_ops_full_reeval(ops).unwrap();
        }
        assert!(inc.provenance_complete(), "provenance stays complete");
        assert_equivalent(&inc, &oracle, "cone retract vs oracle");
        for (pred, rel) in inc.idb() {
            assert_eq!(rel.tuples(), twin.idb()[pred].tuples(), "{pred}: twins");
        }
        let out = {
            let mut m = model_with(prov_opts());
            m.apply_ops(&ops1).unwrap();
            m.apply_ops(&ops2).unwrap()
        };
        assert!(out.dred_cone, "provenance-complete model uses the cone");
        assert!(out.retracted >= 1);
        assert!(out.overdeleted >= 1, "consequences over-deleted");
    }

    /// Wipe mode (provenance off): same semantics through the fallback.
    #[test]
    fn retract_matches_oracle_wipe_mode() {
        let ops1 = vec![assert_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let ops2 = vec![retract_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let mut inc = model();
        let mut oracle = model();
        let mut cone = model_with(prov_opts());
        inc.apply_ops(&ops1).unwrap();
        oracle.apply_ops_full_reeval(&ops1).unwrap();
        cone.apply_ops(&ops1).unwrap();
        let out = inc.apply_ops(&ops2).unwrap();
        assert!(!out.dred_cone, "no provenance: wipe fallback");
        oracle.apply_ops_full_reeval(&ops2).unwrap();
        cone.apply_ops(&ops2).unwrap();
        assert_equivalent(&inc, &oracle, "wipe retract vs oracle");
        assert_equivalent(&inc, &cone, "wipe vs cone agreement");
    }

    /// Retraction through stratified negation *grows* a predicate; the
    /// wipe fallback rebuilds lower strata first, so the result matches
    /// the oracle without a whole-model full re-evaluation.
    #[test]
    fn retract_through_negation_regrows_correctly() {
        let program = parse_program(
            "lit[t](C) <- candidate[t](C), !blocked[t](C).
             blocked[t](C) <- veto[t](C).",
        )
        .unwrap();
        let mut edb = Database::new();
        edb.insert_parsed("candidate", "(7n+1; a)").unwrap();
        edb.insert_parsed("veto", "(14n+1; a)").unwrap();
        let mut inc = ResidentModel::new(program.clone(), edb.clone(), prov_opts()).unwrap();
        let mut oracle = ResidentModel::new(program, edb, prov_opts()).unwrap();
        let ops = vec![retract_op("veto", "(14n+1; a)")];
        let out = inc.apply_ops(&ops).unwrap();
        assert!(
            !out.dred_cone,
            "negation inside the affected region forbids the cone"
        );
        oracle.apply_ops_full_reeval(&ops).unwrap();
        assert_equivalent(&inc, &oracle, "negation regrow vs oracle");
        // lit must now cover every candidate instant (veto is empty).
        let lit = inc.idb().get("lit").unwrap();
        let cand = inc.edb().get("candidate").unwrap();
        assert!(lit.equivalent(cand, 100_000).unwrap(), "lit == candidate");
    }

    /// Retracting content folded inside a strictly broader stored tuple
    /// is a representation-level no-op (module invariant 4).
    #[test]
    fn retract_of_folded_content_is_noop() {
        let mut m = model_with(prov_opts());
        // (168n+8, 168n+10) is stored as one broad tuple; retracting the
        // strictly narrower every-other-week subset does not carve it out.
        let out = m
            .apply_ops(&[retract_op(
                "course",
                "(336n+8, 336n+10; database) : T2 = T1 + 2",
            )])
            .unwrap();
        assert_eq!(out.retracted, 0);
        assert_eq!(out.retract_noops, 1);
        assert_eq!(out.overdeleted, 0, "no IDB churn on a no-op retract");
    }

    #[test]
    fn retract_unknown_and_intensional_are_invalid() {
        let mut m = model_with(prov_opts());
        let before = m.stats();
        let err = m
            .apply_ops(&[retract_op("nonexistent", "(5n+1; x)")])
            .unwrap_err();
        assert!(matches!(err, ApplyError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("unknown predicate"), "{err}");
        let err = m
            .apply_ops(&[retract_op(
                "problems",
                "(168n+10, 168n+12; database) : T2 = T1 + 2",
            )])
            .unwrap_err();
        assert!(matches!(err, ApplyError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("intensional"), "{err}");
        assert_eq!(
            m.stats(),
            before,
            "invalid batches leave the model untouched"
        );
    }

    /// Assert-then-retract of the same tuple in one batch nets out; the
    /// model ends equivalent to never having seen the tuple.
    #[test]
    fn assert_then_retract_in_one_batch_nets_out() {
        let mut m = model_with(prov_opts());
        let reference = model_with(prov_opts());
        let out = m
            .apply_ops(&[
                assert_op("course", "(168n+30, 168n+32; compilers) : T2 = T1 + 2"),
                retract_op("course", "(168n+30, 168n+32; compilers) : T2 = T1 + 2"),
            ])
            .unwrap();
        assert_eq!(out.applied, 1);
        assert_eq!(out.retracted, 1);
        assert_equivalent(&m, &reference, "net-zero batch");
        // A brand-new predicate asserted and retracted in one batch is
        // also well-formed.
        let out = m
            .apply_ops(&[
                assert_op("audit", "(24n+3; ops)"),
                retract_op("audit", "(24n+3; ops)"),
            ])
            .unwrap();
        assert_eq!((out.applied, out.retracted), (1, 1));
        assert!(m.relation("audit").unwrap().is_empty());
    }

    /// A batch that trips the iteration governor mid-derivation rolls
    /// back to the exact pre-batch state and the model keeps serving —
    /// the wedged-server bugfix.
    #[test]
    fn tripped_batch_rolls_back_and_model_stays_healthy() {
        let program = parse_program(
            "p[t + 2](C) <- e[t](C).
             p[t + 48](C) <- p[t](C).
             q[t](C) <- f[t](C).",
        )
        .unwrap();
        let mut edb = Database::new();
        edb.insert("e", GeneralizedRelation::empty(Schema::new(1, 1)));
        edb.insert("f", GeneralizedRelation::empty(Schema::new(1, 1)));
        let opts = EvalOptions {
            max_iterations: 3,
            ..EvalOptions::default()
        };
        let mut m = ResidentModel::new(program, edb, opts).unwrap();
        let edb_before: Vec<(String, Vec<GeneralizedTuple>)> = m
            .edb()
            .iter()
            .map(|(p, r)| (p.to_string(), r.tuples().to_vec()))
            .collect();
        let idb_before = m.idb().clone();

        // The +48 recursion mod 168 needs ~7 iterations; the cap is 3.
        let err = m.apply_ops(&[assert_op("e", "(168n+1; x)")]).unwrap_err();
        assert!(matches!(err, ApplyError::RolledBack(_)), "{err}");
        assert_eq!(m.stats().rollbacks, 1);
        // Byte-identical rollback.
        let edb_after: Vec<(String, Vec<GeneralizedTuple>)> = m
            .edb()
            .iter()
            .map(|(p, r)| (p.to_string(), r.tuples().to_vec()))
            .collect();
        assert_eq!(edb_before, edb_after, "EDB restored exactly");
        for (pred, rel) in m.idb() {
            assert_eq!(rel.tuples(), idb_before[pred].tuples(), "{pred} restored");
        }
        // The model still applies unrelated batches — no wedge.
        let out = m.apply_ops(&[assert_op("f", "(24n+1; y)")]).unwrap();
        assert_eq!(out.applied, 1);
        assert!(!m.idb()["q"].is_empty(), "q derived after recovery");
    }

    /// Snapshots carry the derivation log, so a restored model keeps
    /// using cone-mode DRed and replay stays byte-identical across
    /// retraction-bearing histories.
    #[test]
    fn snapshot_preserves_provenance_and_retraction_replay() {
        let mut uninterrupted = model_with(prov_opts());
        let b1 = vec![assert_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let b2 = vec![retract_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        uninterrupted.apply_ops(&b1).unwrap();
        let sections = uninterrupted.snapshot_sections(1);
        let out = uninterrupted.apply_ops(&b2).unwrap();
        assert!(out.dred_cone);

        let program = parse_program(PROGRAM).unwrap();
        let (mut restored, seq) =
            ResidentModel::restore_from_sections(program.clone(), prov_opts(), &sections).unwrap();
        assert_eq!(seq, 1);
        assert!(
            restored.provenance_complete(),
            "provenance completeness survives the snapshot"
        );
        let out = restored.apply_ops(&b2).unwrap();
        assert!(out.dred_cone, "restored model replays in the same mode");
        for (pred, rel) in uninterrupted.idb() {
            assert_eq!(
                rel.tuples(),
                restored.idb()[pred].tuples(),
                "{pred}: restore+replay byte-identical across a retraction"
            );
        }
        for (pred, rel) in uninterrupted.edb().iter() {
            assert_eq!(rel.tuples(), restored.edb().get(pred).unwrap().tuples());
        }

        // A pre-retraction snapshot (no provenance section) still
        // restores; retraction then runs in wipe mode.
        let stripped: Vec<Section> = sections
            .iter()
            .filter(|s| s.tag != SEC_RES_PROV)
            .cloned()
            .collect();
        let (mut old, _) =
            ResidentModel::restore_from_sections(program, prov_opts(), &stripped).unwrap();
        assert!(!old.provenance_complete());
        let out = old.apply_ops(&b2).unwrap();
        assert!(!out.dred_cone, "provenance-free restore wipes");
        assert_equivalent(&old, &restored, "wipe after restore vs cone");
    }

    /// Applies every batch to an incremental model, its replay twin and
    /// the full re-evaluation oracle, in cone mode (provenance on) and
    /// wipe mode (provenance off). After each batch the incremental model
    /// must be semantically equal to the oracle, relation by relation, and
    /// byte-identical to its twin. Returns the cone-mode outcomes.
    fn check_batches(
        program: &str,
        edb: &[(&str, &str)],
        batches: &[Vec<Op>],
    ) -> Vec<ApplyOutcome> {
        let program = parse_program(program).unwrap();
        let mut db = Database::new();
        for (pred, text) in edb {
            db.insert_parsed(*pred, text).unwrap();
        }
        let mut cone_outcomes = Vec::new();
        for opts in [prov_opts(), EvalOptions::default()] {
            let new = || ResidentModel::new(program.clone(), db.clone(), opts.clone()).unwrap();
            let (mut inc, mut twin, mut oracle) = (new(), new(), new());
            for (i, ops) in batches.iter().enumerate() {
                let out = inc.apply_ops(ops).unwrap();
                assert_eq!(twin.apply_ops(ops).unwrap(), out, "batch {i}: twin outcome");
                oracle.apply_ops_full_reeval(ops).unwrap();
                if opts.provenance {
                    cone_outcomes.push(out);
                }
                let ctx = format!("batch {i}, provenance {}", opts.provenance);
                assert_equivalent(&inc, &oracle, &ctx);
                for (pred, rel) in oracle.edb().iter() {
                    let mine = inc.edb().get(pred).unwrap();
                    assert!(mine.equivalent(rel, 100_000).unwrap(), "{ctx}: EDB {pred}");
                }
                assert_eq!(
                    inc.snapshot_sections(0),
                    twin.snapshot_sections(0),
                    "{ctx}: replay twin byte-identical"
                );
            }
        }
        cone_outcomes
    }

    /// One batch retracts `ev(..; f1)` and asserts a different
    /// `ev(..; f1)` whose consequences coincide with some of the
    /// over-deleted ones: the restricted re-derive sees the new tuple.
    #[test]
    fn retract_and_assert_same_data_in_one_batch() {
        let program = "\
            step[t + 2](C) <- ev[t](C).
            step[t + 12](C) <- step[t](C).
            due[t1, t2](C) <- course[t1, t2](C), step[t1](C).";
        let edb = [
            ("ev", "(84n+5; f1)\n(84n+30; f2)"),
            ("course", "(168n+7, 168n+9; f1) : T2 = T1 + 2"),
        ];
        let outs = check_batches(
            program,
            &edb,
            &[
                vec![
                    retract_op("ev", "(84n+5; f1)"),
                    assert_op("ev", "(84n+17; f1)"),
                ],
                vec![
                    retract_op("ev", "(84n+17; f1)"),
                    assert_op("ev", "(84n+40; f1)"),
                ],
                vec![
                    retract_op("ev", "(84n+30; f2)"),
                    assert_op("ev", "(84n+50; f3)"),
                ],
            ],
        );
        for out in &outs {
            assert!(out.dred_cone);
            assert_eq!((out.retracted, out.applied), (1, 1));
            assert!(out.overdeleted > 0, "{out:?}");
        }
        // (84n+17) re-derives every over-deleted step and due tuple;
        // (84n+40) shares the dead heads' data, so the re-derive step
        // derives its new chain. An assert on other data (the third
        // batch, the shape of a sliding-window ingest) is propagated.
        assert_eq!(outs[0].rederived, outs[0].overdeleted, "{:?}", outs[0]);
        assert_eq!(outs[1].derived_inserted, 0, "{:?}", outs[1]);
        assert!(outs[1].rederived > 0, "{:?}", outs[1]);
        assert_eq!(outs[2].rederived, 0, "{:?}", outs[2]);
        assert!(outs[2].derived_inserted > 0, "{:?}", outs[2]);
    }

    /// A mixed batch whose assert re-derives a dead head's data vector in
    /// a lower stratum with a time the old model never held: the higher
    /// stratum must see that tuple as new and derive from it.
    #[test]
    fn rederived_lower_tuple_seeds_higher_strata() {
        let program = "\
            p[t](C) <- ev[t](C).
            q[t](D) <- p[t](C), link[t](C, D).";
        let edb = [
            ("ev", "(12n+1; a)"),
            ("link", "(12n+1; a, x)\n(12n+5; a, y)"),
        ];
        let outs = check_batches(
            program,
            &edb,
            &[
                vec![
                    retract_op("ev", "(12n+1; a)"),
                    assert_op("ev", "(12n+5; a)"),
                ],
                vec![
                    retract_op("link", "(12n+5; a, y)"),
                    assert_op("link", "(12n+5; a, z)"),
                ],
            ],
        );
        assert!(outs.iter().all(|o| o.dred_cone), "{outs:?}");
        // p(12n+5; a) lands on p's dead head [a]; q(12n+5; y) on no dead
        // head of q.
        assert_eq!((outs[0].rederived, outs[0].derived_inserted), (1, 1));
    }

    /// Assert-then-retract of the same fact, and retract-then-reassert of
    /// a stored one, each inside one batch.
    #[test]
    fn same_fact_twice_in_one_batch_matches_oracle() {
        let edb = [("course", "(168n+8, 168n+10; database) : T2 = T1 + 2")];
        let compilers = "(168n+30, 168n+32; compilers) : T2 = T1 + 2";
        let database = "(168n+8, 168n+10; database) : T2 = T1 + 2";
        let outs = check_batches(
            PROGRAM,
            &edb,
            &[
                vec![
                    assert_op("course", compilers),
                    retract_op("course", compilers),
                ],
                vec![
                    retract_op("course", database),
                    assert_op("course", database),
                ],
                vec![assert_op("course", compilers)],
                vec![
                    retract_op("course", compilers),
                    assert_op("course", compilers),
                    retract_op("course", compilers),
                ],
            ],
        );
        assert_eq!((outs[0].applied, outs[0].retracted), (1, 1));
        assert_eq!((outs[1].applied, outs[1].retracted), (1, 1));
        assert_eq!(outs[0].overdeleted, 0, "the assert never reached the IDB");
        assert_eq!(outs[1].rederived, outs[1].overdeleted, "{:?}", outs[1]);
    }

    /// Heads with a constant data term and with a repeated data variable:
    /// pre-binding a dead head's data vector must skip the clauses that
    /// cannot produce it and narrow the ones that can.
    #[test]
    fn constant_and_repeated_head_data_terms_match_oracle() {
        let program = "\
            tagged[t](flag) <- e[t](C).
            both[t](a) <- e[t](a).
            both[t](C) <- f[t](C).
            pair[t](C, C) <- e[t](C).
            pair[t](C, D) <- f[t](C), g[t](D).
            pair[t + 4](C, D) <- pair[t](C, D).";
        let edb = [
            ("e", "(12n+1; a)\n(12n+2; b)"),
            ("f", "(12n+1; a)\n(12n+5; b)\n(12n+2; b)"),
            ("g", "(12n+1; b)\n(12n+5; a)\n(12n+1; a)\n(12n+2; b)"),
        ];
        let outs = check_batches(
            program,
            &edb,
            &[
                vec![retract_op("e", "(12n+1; a)"), retract_op("e", "(12n+2; b)")],
                vec![retract_op("f", "(12n+5; b)"), assert_op("e", "(12n+5; b)")],
                vec![assert_op("e", "(12n+1; a)"), retract_op("g", "(12n+1; b)")],
                vec![retract_op("e", "(12n+5; b)"), assert_op("e", "(12n+2; b)")],
            ],
        );
        assert!(outs.iter().all(|o| o.dred_cone), "{outs:?}");
        // `pair(a, a)` and `pair(b, b)` (and their +4 orbits) were
        // recorded from e and survive through f and g: two dead head
        // data vectors of one predicate re-fire.
        assert!(outs[0].rederived >= 6, "{:?}", outs[0]);
    }

    /// Restores `model`'s state under `opts` (a snapshot round trip), so a
    /// model evaluated under generous limits can be maintained under
    /// tight ones.
    fn reopened(model: &ResidentModel, program: &str, opts: EvalOptions) -> ResidentModel {
        let program = parse_program(program).unwrap();
        ResidentModel::restore_from_sections(program, opts, &model.snapshot_sections(0))
            .unwrap()
            .0
    }

    /// An iteration budget too small for the maintenance fixpoint trips
    /// it while re-deriving an over-deleted head, while propagating a
    /// mixed batch's assert, and while propagating an insert-only batch.
    /// Each time the journal must restore the model byte for byte, and
    /// the model keeps applying batches.
    #[test]
    fn starved_maintenance_rolls_back_byte_identically() {
        // `p(x)` at 168n+3 is recorded from `e` but also derivable from
        // `g`; its +48 orbit needs 7 iterations to re-derive.
        let program = "\
            p[t + 2](C) <- e[t](C).
            p[t + 2](C) <- g[t](C).
            p[t + 48](C) <- p[t](C).";
        let mut db = Database::new();
        db.insert_parsed("e", "(168n+1; x)\n(168n+5; y)").unwrap();
        db.insert_parsed("g", "(168n+1; x)").unwrap();
        let rederive_trip = vec![retract_op("e", "(168n+1; x)")];
        let mixed_trip = vec![
            retract_op("e", "(168n+5; y)"),
            assert_op("e", "(168n+9; z)"),
        ];
        let insert_trip = vec![assert_op("e", "(168n+13; w)")];
        for provenance in [true, false] {
            let generous = EvalOptions {
                provenance,
                ..EvalOptions::default()
            };
            let tight = EvalOptions {
                max_iterations: 3,
                ..generous.clone()
            };
            let seed = ResidentModel::new(
                parse_program(program).unwrap(),
                db.clone(),
                generous.clone(),
            )
            .unwrap();
            let mut m = reopened(&seed, program, tight);
            let before = m.snapshot_sections(0);
            for batch in [&rederive_trip, &mixed_trip, &insert_trip] {
                let err = m.apply_ops(batch).unwrap_err();
                assert!(err.rolled_back(), "{err}");
                assert!(err.to_string().contains("exceeded 3 iterations"), "{err}");
                assert_eq!(m.snapshot_sections(0), before, "byte-identical rollback");
            }
            assert_eq!(m.stats().rollbacks, 3);
            // The same batches apply under a generous budget, and the
            // rolled-back model still takes a batch that fits its budget
            // (g(x) at 168n+49 only re-derives p(x) tuples already held).
            let mut roomy = reopened(&m, program, generous);
            roomy.apply_ops(&rederive_trip).unwrap();
            roomy.apply_ops(&mixed_trip).unwrap();
            roomy.apply_ops(&insert_trip).unwrap();
            let out = m.apply_ops(&[assert_op("g", "(168n+49; x)")]).unwrap();
            assert_eq!((out.applied, out.derived_inserted), (1, 0));
        }
    }

    /// Empty-zone retractions and retracts against absent relations are
    /// counted as no-ops, not errors.
    #[test]
    fn retract_noop_accounting() {
        let program = parse_program(PROGRAM).unwrap();
        let mut edb = Database::new();
        edb.insert_parsed("course", "(168n+8, 168n+10; database) : T2 = T1 + 2")
            .unwrap();
        edb.insert("extra", GeneralizedRelation::empty(Schema::new(1, 1)));
        let mut m = ResidentModel::new(program, edb, prov_opts()).unwrap();
        let out = m.apply_ops(&[retract_op("extra", "(5n+1; x)")]).unwrap();
        assert_eq!((out.retracted, out.retract_noops), (0, 1));
    }
}
