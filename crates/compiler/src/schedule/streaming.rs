//! The Algorithm-2 engine.
//!
//! [`StreamScheduler`] runs every schedule. The one-shot
//! [`super::schedule`] pushes a whole circuit through it; the windowed
//! `pipeline::streaming` path pushes routed gates as they arrive. It
//! ingests gates one at a time, keeps the dependency frontier in inline
//! per-gate edge lists instead of a CSR DAG, and reuses the record slots
//! of completed gates, so its working set is O(horizon) and a
//! million-gate stream schedules in a fixed-size window.
//!
//! # Eligibility horizon
//!
//! Algorithm 2's cascade score can, in principle, chain through the
//! entire remaining circuit (a long run of gates on one zone), so a
//! bounded working set needs a bounded lookahead. The engine schedules
//! under an **eligibility horizon** `H` ([`super::DEFAULT_HORIZON`]):
//! each round only the gates with index below
//!
//! ```text
//! E = min(floor + H, n)        floor = smallest incomplete gate index
//! ```
//!
//! participate — in argmax scoring, in the cascade walk, and in the
//! drain (E is frozen for the round; gates unlocked past it wait for
//! the next round). The gate at `floor` has all predecessors below
//! `floor`, hence complete, so it is always ready and always eligible
//! (`floor < E` whenever work remains): every round makes progress and
//! the bound never deadlocks. Circuits shorter than `H` never bind `E`,
//! so they get the unbounded seed algorithm's decisions. Rounds only
//! run once the stream reaches `floor + H` or ends, so how the input is
//! split into pushes never changes a decision.
//!
//! The test oracle [`super::schedule_rescan_capped`] applies the same
//! capped rule with none of this module's machinery; the equivalence
//! suites compare the two.
//!
//! # Incremental scoring
//!
//! A round retires only the gates under the chosen position and unlocks
//! some of their successors, so most positions' Eq. 2 counts survive it:
//!
//! * Each gate's covering positions form a contiguous range, so
//!   executability is one range check.
//! * After a round retires gate set `X`, a position's count can only
//!   have changed if some gate of `X` covers it, or some successor of
//!   `X` (whose unlock threshold just dropped) could newly join its
//!   cascade: the successor's range intersected with its
//!   still-incomplete predecessors' ranges. Only those **dirty**
//!   positions lose their cached count.
//! * Rescoring walks the cascade on epoch-stamped scratch fields of the
//!   gate records, seeded from ready lists bucketed by the first
//!   covering position (see *Record layout* below).
//! * The drain replays the seed's min-index-first cascade through a
//!   binary heap.
//!
//! # The bound-pruned argmax
//!
//! Even a dirty position's cascade walk is skipped when the position
//! provably cannot win the round. `cover[p]` counts the incomplete,
//! eligible, non-barrier gates whose range contains `p`. Every gate a
//! cascade at `p` executes is one of them, so `Score(p) ≤ cover[p]`, and
//! retiring gates only shrinks `cover[p]` (the monotone-unlock argument;
//! see `crates/compiler/README.md` for the proof sketch). Each round the
//! clean positions' exact counts establish an incumbent. Dirty
//! candidates are then visited in decreasing bound order and rescored
//! until the first one whose ceiling is *strictly* below the incumbent's
//! score; equal ceilings still walk, because a tie could be won on the
//! distance/leftmost tie-breaks. Skipped positions stay dirty.
//!
//! # Incremental dependency tracking
//!
//! `Dag::new` needs the whole circuit; the engine rebuilds its exact
//! edge structure on the fly. For a non-barrier gate the predecessors
//! are the distinct last writers of its operands since the previous
//! barrier (falling back to that barrier when none exist); a barrier
//! depends on every non-barrier gate since the previous one (falling
//! back to barrier-chaining over an empty span). A non-barrier gate
//! therefore has at most two qubit-successors plus its closing barrier,
//! three inline slots, while a barrier's successors live in a sparse
//! side table keyed by the barriers still resident. Only predecessors
//! still incomplete at push time create edges; the residual `pending`
//! count is exactly `ReadyTracker::pending_preds`.
//!
//! # Record layout
//!
//! Every cascade step reads one gate's record and writes its
//! successors', so everything a walk touches lives in one record: the
//! gate, its range, its residual in-degree, its edges, a `barrier` flag
//! (no hot loop matches on [`Gate`]) and the walk's epoch-stamped
//! scratch counters. The records of the resident gates `[base, total)`
//! sit in one ring of power-of-two length, indexed by global gate index
//! masked to the ring. A completed prefix retires by moving `base` up,
//! with no copying, and the next gates reuse its slots. Callers run
//! rounds after every push, so at most `H + 1` gates are ever live.
//!
//! The gate stays inside its record on purpose: splitting it into a
//! second array measured no faster and no smaller (see
//! `crates/compiler/README.md`), and one array keeps one resize path.
//!
//! The ready gates sit in one list per *first* covering position `lo`,
//! plus one list of ready barriers. A non-barrier gate covers at most
//! `head − 1` positions past its `lo`, so the ready gates covering `p`
//! are the entries of buckets `lo ∈ [p − (head − 1), p]` with `hi ≥ p`,
//! plus the ready barriers. A newly ready gate is pushed once instead of
//! once per covering position, and a seed scan drops the completed
//! entries it meets.
//!
//! Each gate adds to or dirties its whole covering range when it joins
//! or retires. Those range updates go into difference arrays, and the
//! argmax folds them in with one prefix sum per round.

use super::SchedulerKind;
use crate::program::{TiltOp, TiltProgram};
use crate::spec::DeviceSpec;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use tilt_circuit::{Circuit, Gate};

/// Sentinel for "no gate" in the per-qubit last-writer table.
const NO_GATE: u32 = u32::MAX;

/// Slots in the initial record ring; it doubles whenever the live window
/// outgrows it.
const MIN_RING: usize = 1024;

/// One ingested gate plus its frontier bookkeeping and the cascade
/// walk's scratch counters.
#[derive(Clone, Copy)]
struct GateRec {
    gate: Gate,
    /// Contiguous covering-position range (barriers span everything).
    lo: u32,
    hi: u32,
    /// Distinct incomplete predecessors remaining (the residual
    /// in-degree `ReadyTracker::pending_preds` would report).
    pending: u32,
    /// Cascade scratch: predecessors the current walk has yet to
    /// execute, valid while `need_epoch` equals the walk's epoch.
    need: u32,
    need_epoch: u32,
    /// Dirty-marking scratch: the round that last narrowed this gate's
    /// range, so a successor shared by several retired gates is
    /// visited once.
    succ_epoch: u32,
    /// Forward edges of a non-barrier gate: ≤ 2 qubit-successors + the
    /// closing barrier. A barrier's successors live in
    /// [`StreamScheduler::barrier_succs`] instead.
    succs: [u32; 3],
    /// Predecessors for the dirty-range narrowing walk. A non-barrier
    /// gate keeps its non-barrier predecessors incomplete at push time
    /// (a barrier predecessor covers every position, so the
    /// intersection it contributes is a no-op and it is not stored). A
    /// barrier depends on every non-barrier gate of its span, which is
    /// contiguous: `preds[0]` holds the span's first index and the span
    /// ends at the barrier itself.
    preds: [u32; 2],
    n_succs: u8,
    n_preds: u8,
    done: bool,
    barrier: bool,
}

/// Filler for ring slots that hold no resident gate.
const VACANT: GateRec = GateRec {
    gate: Gate::Barrier,
    lo: 0,
    hi: 0,
    pending: 0,
    need: 0,
    need_epoch: 0,
    succ_epoch: 0,
    succs: [0; 3],
    preds: [0; 2],
    n_succs: 0,
    n_preds: 0,
    done: true,
    barrier: true,
};

impl GateRec {
    fn covers(&self, pos: usize) -> bool {
        self.lo as usize <= pos && pos <= self.hi as usize
    }
}

/// The eligible gates whose predecessors are all complete, bucketed by
/// their first covering position. Completed entries are dropped when a
/// seed scan passes them and when their gates retire.
struct ReadyLists {
    /// `by_lo[p]`: ready non-barrier gates whose range starts at `p`, as
    /// `(index, hi)`, so a scan passes entries that end left of its
    /// position without loading their records.
    by_lo: Vec<Vec<(u32, u32)>>,
    /// Ready barriers; they cover every position.
    barriers: Vec<u32>,
    /// The widest non-barrier range minus one: `head − 1`.
    reach: usize,
}

impl ReadyLists {
    fn new(n_positions: usize, head: usize) -> Self {
        ReadyLists {
            by_lo: vec![Vec::new(); n_positions],
            barriers: Vec::new(),
            reach: head - 1,
        }
    }

    fn insert(&mut self, idx: usize, rec: &GateRec) {
        if rec.barrier {
            self.barriers.push(idx as u32);
        } else {
            debug_assert!((rec.hi - rec.lo) as usize <= self.reach);
            self.by_lo[rec.lo as usize].push((idx as u32, rec.hi));
        }
    }

    /// Calls `f` with every ready, incomplete gate covering `pos`,
    /// dropping the completed entries it meets on the way. Every entry
    /// is resident: [`ReadyLists::retire`] drops the others before the
    /// ring reuses their slots.
    fn for_each_at(&mut self, pos: usize, recs: &[GateRec], mask: usize, mut f: impl FnMut(usize)) {
        // Visits an entry known to cover `pos`; keeps it unless done.
        let mut visit = |g: u32| {
            let incomplete = !recs[g as usize & mask].done;
            if incomplete {
                f(g as usize);
            }
            incomplete
        };
        for list in &mut self.by_lo[pos.saturating_sub(self.reach)..=pos] {
            list.retain(|&(g, hi)| (hi as usize) < pos || visit(g));
        }
        self.barriers.retain(|&g| visit(g));
    }

    /// Drops every entry below `base`, the first resident gate.
    fn retire(&mut self, base: usize) {
        let resident = |g: u32| g as usize >= base;
        for list in &mut self.by_lo {
            list.retain(|&(g, _)| resident(g));
        }
        self.barriers.retain(|&g| resident(g));
    }

    /// Every entry's gate index.
    #[cfg(test)]
    fn entries(&self) -> impl Iterator<Item = usize> + '_ {
        let by_lo = self.by_lo.iter().flatten().map(|&(g, _)| g);
        by_lo
            .chain(self.barriers.iter().copied())
            .map(|g| g as usize)
    }
}

/// The bounded-memory scheduler: push gates, drain [`TiltOp`]s.
///
/// Decision-identical to [`super::schedule_rescan_capped`] under the
/// same horizon.
pub(crate) struct StreamScheduler {
    spec: DeviceSpec,
    /// `Some(penalty)` for the Eq. 2 scorers, `None` for NaiveNextGate.
    penalty: Option<i64>,
    horizon: usize,
    n_positions: usize,

    /// Every gate below `base` is complete and retired. Gates
    /// `[base, total)` are resident in `recs`, a ring of `mask + 1` (a
    /// power of two) slots indexed by global gate index `& mask`. Slots
    /// are materialized as the stream first reaches them, so a short
    /// circuit touches only as many as it has gates.
    base: usize,
    recs: Vec<GateRec>,
    mask: usize,
    /// Successor lists of the resident barriers, keyed by global index;
    /// retirement drops the entries of retired barriers.
    barrier_succs: HashMap<usize, Vec<u32>>,
    /// Gates ingested so far.
    total: usize,
    eof: bool,
    /// Smallest incomplete gate index (advanced lazily).
    floor: usize,
    /// Gates below this global index are activated (eligible).
    active_end: usize,
    n_done: usize,

    // --- ingest-side dependency state --------------------------------
    /// Last gate touching each qubit since the previous barrier.
    last_on: Vec<u32>,
    /// First gate index after the previous barrier.
    span_start: usize,
    last_barrier: Option<usize>,

    // --- per-position scoring state (Eq. 2 engines only) -------------
    /// Incomplete, *active*, non-barrier gates covering each position —
    /// the monotone score ceiling of the pruned argmax.
    cover: Vec<u32>,
    counts: Vec<u32>,
    dirty: Vec<bool>,
    /// Range updates to `cover` and `dirty` since the last argmax, as
    /// difference arrays (`n_positions + 1` entries): a gate adds or
    /// dirties its whole range in O(1), and the argmax folds them in
    /// with one prefix sum.
    cover_delta: Vec<i32>,
    dirty_delta: Vec<i32>,
    ready: ReadyLists,
    candidates: Vec<(i64, u32)>,

    // --- cascade scratch ---------------------------------------------
    epoch: u32,
    succ_epoch_counter: u32,
    stack: Vec<usize>,
    heap: BinaryHeap<Reverse<usize>>,
    executed: Vec<usize>,

    head: Option<usize>,
}

impl StreamScheduler {
    pub(crate) fn new(spec: DeviceSpec, kind: SchedulerKind, horizon: usize) -> Self {
        let n_positions = spec.n_head_positions();
        StreamScheduler {
            spec,
            penalty: kind.penalty_permille(),
            horizon: horizon.max(1),
            n_positions,
            base: 0,
            recs: Vec::with_capacity(MIN_RING),
            mask: MIN_RING - 1,
            barrier_succs: HashMap::new(),
            total: 0,
            eof: false,
            floor: 0,
            active_end: 0,
            n_done: 0,
            last_on: vec![NO_GATE; spec.n_ions()],
            span_start: 0,
            last_barrier: None,
            cover: vec![0; n_positions],
            counts: vec![0; n_positions],
            dirty: vec![false; n_positions],
            cover_delta: vec![0; n_positions + 1],
            dirty_delta: vec![0; n_positions + 1],
            ready: ReadyLists::new(n_positions, spec.head_size()),
            candidates: Vec::new(),
            epoch: 0,
            succ_epoch_counter: 0,
            stack: Vec::new(),
            heap: BinaryHeap::new(),
            executed: Vec::new(),
            head: None,
        }
    }

    fn done_at(&self, idx: usize) -> bool {
        idx < self.base || self.recs[idx & self.mask].done
    }

    /// Ingests the next gate of the physical stream.
    ///
    /// # Panics
    ///
    /// Panics on an unrouted two-qubit gate (same contract as
    /// [`super::schedule`]).
    pub(crate) fn push(&mut self, g: Gate) {
        let idx = self.total;
        assert!(idx < NO_GATE as usize, "gate stream exceeds u32 indexing");
        if let Some(d) = g.span() {
            assert!(
                d < self.spec.head_size(),
                "unrouted gate {g:?} spans {d} ≥ head size {}",
                self.spec.head_size()
            );
        }
        if idx - self.base > self.mask {
            self.make_room();
        }
        self.total += 1;
        let mask = self.mask;
        let ops = g.operands();
        let (lo, hi) = match self
            .spec
            .covering_head_positions(ops.iter().map(|q| q.index()))
        {
            Some(r) => (*r.start() as u32, *r.end() as u32),
            None => (0, (self.n_positions - 1) as u32),
        };
        let barrier = matches!(g, Gate::Barrier);
        let mut rec = GateRec {
            gate: g,
            lo,
            hi,
            done: false,
            barrier,
            ..VACANT
        };

        if barrier {
            // Every incomplete gate of the closing span becomes a
            // predecessor; already-retired span gates need no edge (the
            // residual count never included them).
            let mut pending = 0u32;
            for p in self.span_start.max(self.base)..idx {
                let r = &mut self.recs[p & mask];
                if r.done || r.barrier {
                    continue;
                }
                pending += 1;
                debug_assert!((r.n_succs as usize) < 3);
                r.succs[r.n_succs as usize] = idx as u32;
                r.n_succs += 1;
            }
            if pending == 0 {
                if let Some(lb) = self.last_barrier {
                    if !self.done_at(lb) {
                        pending = 1;
                        self.barrier_succs.entry(lb).or_default().push(idx as u32);
                    }
                }
            }
            rec.pending = pending;
            rec.preds[0] = self.span_start as u32;
            self.last_barrier = Some(idx);
            self.span_start = idx + 1;
            self.last_on.fill(NO_GATE);
        } else {
            let mut pred_set = [0u32; 2];
            let mut n_distinct = 0usize;
            for q in ops.iter() {
                let p = self.last_on[q.index()];
                if p != NO_GATE && !pred_set[..n_distinct].contains(&p) {
                    pred_set[n_distinct] = p;
                    n_distinct += 1;
                }
            }
            if n_distinct == 0 {
                // No writer since the fence: depend on the fence itself.
                if let Some(lb) = self.last_barrier {
                    if !self.done_at(lb) {
                        rec.pending = 1;
                        self.barrier_succs.entry(lb).or_default().push(idx as u32);
                    }
                }
            } else {
                for &p in &pred_set[..n_distinct] {
                    if self.done_at(p as usize) {
                        continue;
                    }
                    rec.pending += 1;
                    rec.preds[rec.n_preds as usize] = p;
                    rec.n_preds += 1;
                    let r = &mut self.recs[p as usize & mask];
                    debug_assert!((r.n_succs as usize) < 3);
                    r.succs[r.n_succs as usize] = idx as u32;
                    r.n_succs += 1;
                }
            }
            for q in ops.iter() {
                self.last_on[q.index()] = idx as u32;
            }
        }

        // The ring is full length once the stream has wrapped it;
        // before that, the next slot is exactly its length.
        let slot = idx & mask;
        if slot == self.recs.len() {
            self.recs.push(rec);
        } else {
            self.recs[slot] = rec;
        }
    }

    /// Frees a ring slot for the next gate: retires the completed
    /// prefix, and doubles the ring when that leaves less than a quarter
    /// of it free, so retirement runs at most once per quarter ring of
    /// pushes.
    fn make_room(&mut self) {
        self.retire();
        let slots = self.mask + 1;
        if (self.total - self.base) * 4 > slots * 3 {
            self.resize_ring(slots * 2, 0);
        }
    }

    /// Sizes the ring up front for `gates` more pushes, sparing the
    /// doubling steps on the way. Rounds run after every push, so at
    /// most `H + 1` gates are ever live.
    pub(crate) fn reserve(&mut self, gates: usize) {
        self.retire();
        let live = self.total - self.base;
        let want = live
            .saturating_add(gates)
            .min(self.horizon.saturating_add(1))
            .max(live + 1);
        let slots = want.next_power_of_two();
        if slots > self.mask + 1 {
            self.resize_ring(slots, gates);
        }
    }

    /// Moves the resident records into a ring of `slots` slots, with
    /// capacity for `more` pushes before the ring's `Vec` must grow.
    /// The capacity is not rounded up to `slots`: a circuit shorter than
    /// the ring never uses the rest, and the oversized block made glibc
    /// keep more freed heap resident (arch_sweep peak RSS +15%).
    fn resize_ring(&mut self, slots: usize, more: usize) {
        debug_assert!(slots.is_power_of_two() && slots >= self.total - self.base);
        let mut ring = Vec::with_capacity(self.total.saturating_add(more).min(slots));
        // Materialize the slots up to the stream's reach: every resident
        // gate's, and the next push's is then the length or below it.
        ring.resize(self.total.min(slots), VACANT);
        for idx in self.base..self.total {
            ring[idx & (slots - 1)] = self.recs[idx & self.mask];
        }
        self.recs = ring;
        self.mask = slots - 1;
    }

    /// Retires every gate below the floor: their barrier side-table and
    /// ready-list entries go, and the ring may reuse their slots.
    fn retire(&mut self) {
        self.base = self.floor;
        let base = self.base;
        self.barrier_succs.retain(|&k, _| k >= base);
        self.ready.retire(base);
    }

    /// Marks the input stream exhausted; subsequent
    /// [`StreamScheduler::run_rounds`] calls drain to completion.
    pub(crate) fn finish_input(&mut self) {
        self.eof = true;
    }

    pub(crate) fn is_done(&self) -> bool {
        self.eof && self.n_done == self.total
    }

    /// Runs scheduling rounds while legal — i.e. while the retained
    /// stream reaches the eligibility bound (`total ≥ floor + H`) or
    /// the input is exhausted — appending emitted ops to `ops`.
    ///
    /// Callers run it after every push, so the live window, and with it
    /// the record ring, stays within `H + 1` gates.
    pub(crate) fn run_rounds(&mut self, ops: &mut Vec<TiltOp>) {
        loop {
            while self.floor < self.total && self.done_at(self.floor) {
                self.floor += 1;
            }
            if self.floor == self.total {
                break;
            }
            if !self.eof && self.total < self.floor + self.horizon {
                break;
            }
            self.round(ops);
        }
    }

    /// Activates gates `[active_end, e)`: they join the cover ceiling,
    /// dirty their ranges (a newly eligible gate can only raise
    /// scores), and enter the ready lists when already unblocked.
    fn activate(&mut self, e: usize) {
        for idx in self.active_end..e {
            let rec = &self.recs[idx & self.mask];
            debug_assert!(!rec.done);
            let (lo, end) = (rec.lo as usize, rec.hi as usize + 1);
            if self.penalty.is_some() {
                if !rec.barrier {
                    self.cover_delta[lo] += 1;
                    self.cover_delta[end] -= 1;
                }
                self.dirty_delta[lo] += 1;
                self.dirty_delta[end] -= 1;
            }
            if rec.pending == 0 {
                self.ready.insert(idx, rec);
            }
        }
        self.active_end = e;
    }

    fn round(&mut self, ops: &mut Vec<TiltOp>) {
        let e = (self.floor + self.horizon).min(self.total);
        if e > self.active_end {
            self.activate(e);
        }

        let pos = match self.penalty {
            Some(penalty) => match self.best_position(penalty, e) {
                Some(pos) => pos,
                // Every eligible ready gate is a barrier (a countable
                // ready gate would score ≥ 1 somewhere): complete the
                // barriers without moving and rescore next round.
                None => {
                    self.barrier_relief(e);
                    return;
                }
            },
            // NaiveNextGate: the oldest ready gate is exactly the floor
            // gate (all its predecessors are below the floor, hence
            // complete), parked at the leftmost covering position.
            None => {
                let rec = &self.recs[self.floor & self.mask];
                debug_assert_eq!(rec.pending, 0);
                rec.lo as usize
            }
        };

        if self.head != Some(pos) {
            if self.head.is_some() {
                ops.push(TiltOp::Move { to: pos });
            }
            self.head = Some(pos);
        }

        // Drain the cascade at `pos` in min-index order, with the
        // eligibility bound frozen for the whole round.
        let mask = self.mask;
        self.heap.clear();
        let heap = &mut self.heap;
        self.ready
            .for_each_at(pos, &self.recs, mask, |g| heap.push(Reverse(g)));
        self.executed.clear();
        while let Some(Reverse(i)) = self.heap.pop() {
            let slot = i & mask;
            debug_assert!(!self.recs[slot].done && self.recs[slot].pending == 0);
            self.recs[slot].done = true;
            self.n_done += 1;
            let mut inline = [0; 3];
            for &s in succs_of(&self.recs[slot], &self.barrier_succs, i, &mut inline) {
                let s = s as usize;
                let srec = &mut self.recs[s & mask];
                srec.pending -= 1;
                if srec.pending == 0 && s < e {
                    self.ready.insert(s, srec);
                    if srec.covers(pos) {
                        self.heap.push(Reverse(s));
                    }
                }
            }
            self.executed.push(i);
            let rec = &self.recs[slot];
            if !rec.barrier {
                ops.push(TiltOp::Gate {
                    gate: rec.gate,
                    head_pos: pos,
                });
            }
        }
        assert!(
            !self.executed.is_empty(),
            "scheduler made no progress at position {pos}; this is a bug"
        );

        if self.penalty.is_none() {
            return;
        }
        self.mark_dirty_after_round(e);
    }

    /// When a round's argmax finds no countable gate anywhere, the
    /// eligible ready set consists solely of barriers (any countable
    /// ready gate would score at its covering positions). Complete
    /// them — min-index order, cascading through newly-ready eligible
    /// barriers — without moving the head or emitting ops; the capped
    /// rescan reference applies the identical rule.
    fn barrier_relief(&mut self, e: usize) {
        let mask = self.mask;
        self.heap.clear();
        {
            let recs = &self.recs;
            self.ready
                .barriers
                .retain(|&g| !recs[g as usize & mask].done);
        }
        self.heap
            .extend(self.ready.barriers.iter().map(|&g| Reverse(g as usize)));
        self.executed.clear();
        while let Some(Reverse(i)) = self.heap.pop() {
            let slot = i & mask;
            debug_assert!(self.recs[slot].barrier);
            self.recs[slot].done = true;
            self.n_done += 1;
            let mut inline = [0; 3];
            for &s in succs_of(&self.recs[slot], &self.barrier_succs, i, &mut inline) {
                let s = s as usize;
                let srec = &mut self.recs[s & mask];
                srec.pending -= 1;
                if srec.pending == 0 && s < e {
                    self.ready.insert(s, srec);
                    if srec.barrier {
                        self.heap.push(Reverse(s));
                    }
                }
            }
            self.executed.push(i);
        }
        assert!(
            !self.executed.is_empty(),
            "no head position can execute any ready gate; circuit is unroutable"
        );
        self.mark_dirty_after_round(e);
    }

    fn mark_dirty_after_round(&mut self, e: usize) {
        // Dirty marking: every retired gate's range (with the cover
        // ceiling decrement), plus each still-eligible successor's
        // range intersected with its incomplete predecessors' ranges.
        let mask = self.mask;
        self.succ_epoch_counter += 1;
        let round = self.succ_epoch_counter;
        let executed = std::mem::take(&mut self.executed);
        for &i in &executed {
            let rec = &self.recs[i & mask];
            let (lo, end) = (rec.lo as usize, rec.hi as usize + 1);
            if !rec.barrier {
                self.cover_delta[lo] -= 1;
                self.cover_delta[end] += 1;
            }
            self.dirty_delta[lo] += 1;
            self.dirty_delta[end] -= 1;
            let mut inline = [0; 3];
            for &s in succs_of(rec, &self.barrier_succs, i, &mut inline) {
                let s = s as usize;
                if s >= e {
                    // Not yet eligible: activation will dirty its full
                    // range when it joins.
                    continue;
                }
                let srec = &mut self.recs[s & mask];
                if srec.succ_epoch == round {
                    continue;
                }
                srec.succ_epoch = round;
                let srec = &self.recs[s & mask];
                let (mut slo, mut shi) = (srec.lo, srec.hi);
                let (span, inline) = if srec.barrier {
                    (srec.preds[0] as usize..s, &[][..])
                } else {
                    (0..0, &srec.preds[..srec.n_preds as usize])
                };
                for q in span.chain(inline.iter().map(|&q| q as usize)) {
                    if self.done_at(q) {
                        continue;
                    }
                    let qrec = &self.recs[q & mask];
                    slo = slo.max(qrec.lo);
                    shi = shi.min(qrec.hi);
                    if slo > shi {
                        break;
                    }
                }
                if slo > shi {
                    // Some incomplete predecessor shares no covering
                    // position with `s`: no cascade anywhere can admit
                    // it this round.
                    continue;
                }
                self.dirty_delta[slo as usize] += 1;
                self.dirty_delta[shi as usize + 1] -= 1;
            }
        }
        self.executed = executed;
    }

    /// The bound-pruned argmax, restricted to the active window: clean
    /// positions establish the incumbent from cached counts, dirty
    /// candidates are walked in descending ceiling order and rescored
    /// exactly while their bound could still win.
    fn best_position(&mut self, penalty: i64, e: usize) -> Option<usize> {
        let mut best: Option<(i64, usize, usize)> = None;
        self.candidates.clear();
        // Fold the pending range updates in with one running sum each.
        let (mut cover_run, mut dirty_run) = (0i32, 0i32);
        for pos in 0..self.n_positions {
            cover_run += std::mem::take(&mut self.cover_delta[pos]);
            dirty_run += std::mem::take(&mut self.dirty_delta[pos]);
            self.cover[pos] = self.cover[pos]
                .checked_add_signed(cover_run)
                .expect("cover ceiling stays non-negative");
            if dirty_run > 0 {
                self.dirty[pos] = true;
            }
            let dist = self.head.map_or(0, |h| h.abs_diff(pos));
            if self.dirty[pos] {
                let bound = self.cover[pos] as i64 * 1000 - penalty * dist as i64;
                self.candidates.push((bound, pos as u32));
            } else if self.counts[pos] > 0 {
                let score = self.counts[pos] as i64 * 1000 - penalty * dist as i64;
                let better = match best {
                    None => true,
                    Some((bs, bd, bp)) => score > bs || (score == bs && (dist, pos) < (bd, bp)),
                };
                if better {
                    best = Some((score, dist, pos));
                }
            }
        }
        // Only ranges ending at the last position touch the sentinel.
        self.cover_delta[self.n_positions] = 0;
        self.dirty_delta[self.n_positions] = 0;
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        for &(bound, p) in &candidates {
            if let Some((bs, _, _)) = best {
                if bound < bs {
                    // Exact ≤ bound < incumbent: pruned, stays dirty.
                    break;
                }
            }
            let pos = p as usize;
            self.dirty[pos] = false;
            let count = self.cascade_count(pos, e);
            self.counts[pos] = count;
            if count > 0 {
                let dist = self.head.map_or(0, |h| h.abs_diff(pos));
                let score = count as i64 * 1000 - penalty * dist as i64;
                let better = match best {
                    None => true,
                    Some((bs, bd, bp)) => score > bs || (score == bs && (dist, pos) < (bd, bp)),
                };
                if better {
                    best = Some((score, dist, pos));
                }
            }
        }
        self.candidates = candidates;
        best.map(|(_, _, pos)| pos)
    }

    /// The epoch-stamped cascade count over the active window: active
    /// ready gates covered by `pos` execute, unlocking covered active
    /// successors transitively; barriers cascade but do not count.
    fn cascade_count(&mut self, pos: usize, e: usize) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch 0 is never current, so resetting every stamp to it
            // invalidates them all.
            for rec in &mut self.recs {
                rec.need_epoch = 0;
            }
            self.epoch = 1;
        }
        let (epoch, mask) = (self.epoch, self.mask);
        self.stack.clear();
        let stack = &mut self.stack;
        self.ready
            .for_each_at(pos, &self.recs, mask, |g| stack.push(g));

        let mut count = 0u32;
        while let Some(i) = self.stack.pop() {
            let rec = &self.recs[i & mask];
            if !rec.barrier {
                count += 1;
            }
            let mut inline = [0; 3];
            for &s in succs_of(rec, &self.barrier_succs, i, &mut inline) {
                let s = s as usize;
                if s >= e {
                    continue;
                }
                let srec = &mut self.recs[s & mask];
                if srec.need_epoch != epoch {
                    srec.need_epoch = epoch;
                    srec.need = srec.pending;
                }
                srec.need -= 1;
                if srec.need == 0 && srec.covers(pos) {
                    self.stack.push(s);
                }
            }
        }
        count
    }
}

/// The successors of the gate at global index `i`: a non-barrier gate's
/// inline edges, copied into `inline` so the caller may update records
/// while it walks them, or a barrier's side-table list.
fn succs_of<'a>(
    rec: &GateRec,
    barrier_succs: &'a HashMap<usize, Vec<u32>>,
    i: usize,
    inline: &'a mut [u32; 3],
) -> &'a [u32] {
    if rec.barrier {
        debug_assert_eq!(rec.n_succs, 0);
        barrier_succs.get(&i).map_or(&[], Vec::as_slice)
    } else {
        *inline = rec.succs;
        &inline[..rec.n_succs as usize]
    }
}

/// Schedules an in-memory circuit on a [`StreamScheduler`] with the
/// given horizon. Rounds run after every push, so the resident window
/// stays within the horizon however long the circuit is.
pub(super) fn schedule_circuit(
    physical: &Circuit,
    spec: DeviceSpec,
    kind: SchedulerKind,
    horizon: usize,
) -> TiltProgram {
    let mut s = StreamScheduler::new(spec, kind, horizon);
    s.reserve(physical.len());
    let mut ops: Vec<TiltOp> = Vec::with_capacity(physical.len());
    for &g in physical.gates() {
        s.push(g);
        s.run_rounds(&mut ops);
    }
    s.finish_input();
    s.run_rounds(&mut ops);
    debug_assert!(s.is_done());
    TiltProgram::new(spec, ops)
}

#[cfg(test)]
mod tests {
    use super::super::{schedule, schedule_rescan_capped, SchedulerKind};
    use super::*;
    use tilt_circuit::Qubit;

    fn spec(n: usize, head: usize) -> DeviceSpec {
        DeviceSpec::new(n, head).unwrap()
    }

    /// Deterministic mixed workload: zones, chains, fences, 1q traffic.
    fn workload(n: usize, len: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..len {
            match next() % 10 {
                0..=5 => {
                    let a = (next() as usize) % n;
                    let span = 1 + (next() as usize) % 3;
                    let b = (a + span).min(n - 1);
                    if a != b {
                        c.xx(Qubit(a.min(b)), Qubit(a.max(b)), 0.1);
                    } else {
                        c.rx(Qubit(a), 0.2);
                    }
                }
                6..=8 => {
                    c.rz(Qubit((next() as usize) % n), 0.3);
                }
                _ => {
                    c.barrier();
                }
            }
        }
        c
    }

    const KINDS: [SchedulerKind; 4] = [
        SchedulerKind::GreedyMaxExecutable,
        SchedulerKind::DistanceDiscounted {
            penalty_permille: 250,
        },
        SchedulerKind::DistanceDiscounted {
            penalty_permille: 2000,
        },
        SchedulerKind::NaiveNextGate,
    ];

    #[test]
    fn non_binding_horizon_matches_oracle() {
        for seed in 0..4u64 {
            let c = workload(24, 160, seed);
            for kind in KINDS {
                let oracle = schedule_rescan_capped(&c, spec(24, 6), kind, c.len());
                let scheduled = schedule(&c, spec(24, 6), kind);
                assert_eq!(scheduled, oracle, "kind {kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn binding_horizon_matches_capped_rescan() {
        for seed in 0..4u64 {
            let c = workload(20, 200, seed);
            for kind in KINDS {
                for horizon in [1usize, 2, 7, 32, 150] {
                    let reference = schedule_rescan_capped(&c, spec(20, 5), kind, horizon);
                    let streamed = schedule_circuit(&c, spec(20, 5), kind, horizon);
                    assert_eq!(streamed, reference, "kind {kind:?} seed {seed} H={horizon}");
                }
            }
        }
    }

    #[test]
    fn incremental_push_matches_bulk_push() {
        // Interleaving run_rounds with pushes (the windowed pipeline's
        // call pattern) must not change any decision.
        let c = workload(24, 300, 9);
        let sp = spec(24, 6);
        for horizon in [16usize, 64, 1024] {
            let bulk = schedule_circuit(&c, sp, SchedulerKind::GreedyMaxExecutable, horizon);
            let mut s = StreamScheduler::new(sp, SchedulerKind::GreedyMaxExecutable, horizon);
            let mut ops = Vec::new();
            for (i, &g) in c.gates().iter().enumerate() {
                s.push(g);
                if i % 7 == 0 {
                    s.run_rounds(&mut ops);
                }
            }
            s.finish_input();
            s.run_rounds(&mut ops);
            assert!(s.is_done());
            assert_eq!(TiltProgram::new(sp, ops), bulk, "H={horizon}");
        }
    }

    /// Streams `len` gates cycling over one 8-ion tape, with a barrier
    /// every `barrier_every` gates (0 for none), and checks throughout
    /// that the resident state tracks the horizon rather than the
    /// stream: the record ring, the barrier side table and the ready
    /// lists hold resident gates only, and O(horizon) of them.
    fn assert_bounded_stream(len: usize, barrier_every: usize) {
        let sp = spec(8, 4);
        let horizon = 64;
        let bound = 8 * horizon + 2048;
        let check = |s: &StreamScheduler, at: usize| {
            assert!(s.mask < bound, "ring grew to {} slots at {at}", s.mask + 1);
            // Retirement must drop retired barriers' side-table entries
            // and every retired or completed ready-list entry.
            assert!(
                s.barrier_succs.keys().all(|&b| b >= s.base),
                "barrier side table kept retired barriers at {at}"
            );
            if let Some(resident_barriers) = bound.checked_div(barrier_every) {
                assert!(
                    s.barrier_succs.len() <= resident_barriers + 1,
                    "barrier side table grew to {} at {at}",
                    s.barrier_succs.len()
                );
            }
            assert!(
                s.ready.entries().all(|g| g >= s.base),
                "ready lists kept retired gates at {at}"
            );
            let entries = s.ready.entries().count();
            assert!(entries <= bound, "ready lists grew to {entries} at {at}");
        };
        let mut s = StreamScheduler::new(sp, SchedulerKind::GreedyMaxExecutable, horizon);
        let mut ops = Vec::new();
        let mut barriers = 0usize;
        for i in 0..len {
            if barrier_every > 0 && i % barrier_every == barrier_every - 1 {
                s.push(Gate::Barrier);
                barriers += 1;
            } else {
                s.push(Gate::Xx(Qubit(i % 7), Qubit(i % 7 + 1), 0.1));
            }
            s.run_rounds(&mut ops);
            if i % 997 == 0 {
                check(&s, i);
            }
        }
        check(&s, len);
        s.finish_input();
        s.run_rounds(&mut ops);
        assert!(s.is_done());
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, TiltOp::Gate { .. }))
                .count(),
            len - barriers
        );
    }

    #[test]
    fn compaction_keeps_memory_bounded() {
        assert_bounded_stream(200_000, 0);
    }

    #[test]
    fn compaction_keeps_memory_bounded_with_barriers() {
        assert_bounded_stream(200_000, 16);
    }
}
