//! The reference router the equivalence tests compare against.
//!
//! [`route_oracle`] is Algorithm 1 written as plainly as possible. It
//! layers the whole circuit's two-qubit skeleton up front and walks the
//! circuit once. For every LinQ decision it rebuilds the look-ahead
//! weights and a hash-map qubit index and scores each candidate as the
//! full Eq. 1 sum, base term included. For every stochastic decision it
//! materializes each trial's candidate and resulting distance. Opposing
//! swaps are classified by a linear scan of the pending list. It shares
//! no scoring, layering or bookkeeping code with the production router
//! (`StreamRouter`), which is what makes agreement between the two
//! meaningful. It holds the whole circuit, so no production path calls
//! it.

use super::{LinqConfig, RouteOutcome, RouterKind, OPPOSING_HORIZON};
use crate::mapping::Mapping;
use crate::spec::DeviceSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tilt_circuit::{Circuit, Gate, Qubit};

/// A layered two-qubit gate: logical operands and skeleton layer.
type Layered = (Qubit, Qubit, usize);

/// Routes `native` onto `spec` from `initial` with the reference
/// implementation of `kind`.
///
/// Test oracle only: decision-identical to [`RouterKind::route`] and to
/// the streaming pipeline's router at every window size.
///
/// # Panics
///
/// Panics when `kind` fails [`RouterKind::validate`] on `spec` or the
/// circuit is wider than the tape.
#[doc(hidden)]
pub fn route_oracle(
    native: &Circuit,
    spec: DeviceSpec,
    initial: &Mapping,
    kind: &RouterKind,
) -> RouteOutcome {
    kind.validate(spec).expect("a valid router configuration");
    assert!(
        native.n_qubits() <= spec.n_ions(),
        "circuit wider than the tape"
    );
    let pending = skeleton(native);
    let mut rng = SmallRng::seed_from_u64(match kind {
        RouterKind::Stochastic(cfg) => cfg.seed,
        RouterKind::Linq(_) => 0,
    });
    let mut out = Circuit::new(spec.n_ions());
    let mut mapping = initial.clone();
    let (mut cursor, mut swap_count, mut opposing_swap_count) = (0, 0, 0);
    for g in native {
        if g.is_two_qubit() {
            let qs = g.operands();
            while mapping.distance(qs[0], qs[1]) >= spec.head_size() {
                let (pa, pb) = match kind {
                    RouterKind::Linq(cfg) => linq_swap(cfg, spec, &mapping, &pending, cursor),
                    RouterKind::Stochastic(cfg) => {
                        stochastic_swap(cfg.trials, &mut rng, spec, &mapping, pending[cursor])
                    }
                };
                assert!(pa != pb && pa.abs_diff(pb) < spec.head_size());
                if opposing(&mapping, &pending, cursor, pa, pb) {
                    opposing_swap_count += 1;
                }
                out.swap(Qubit(pa.min(pb)), Qubit(pa.max(pb)));
                mapping.swap_positions(pa, pb);
                swap_count += 1;
            }
            cursor += 1;
        }
        out.push(g.map_qubits(|q| Qubit(mapping.position_of(q))));
    }
    RouteOutcome {
        circuit: out,
        initial_mapping: initial.clone(),
        final_mapping: mapping,
        swap_count,
        opposing_swap_count,
    }
}

/// ASAP layering of the two-qubit skeleton: single-qubit gates are
/// transparent, a barrier lifts every later gate to the deepest level so
/// far.
fn skeleton(native: &Circuit) -> Vec<Layered> {
    let mut level = vec![0usize; native.n_qubits()];
    let mut barrier_level = 0usize;
    let mut pending = Vec::new();
    for g in native {
        if matches!(g, Gate::Barrier) {
            barrier_level = barrier_level.max(level.iter().copied().max().unwrap_or(0));
        } else if g.is_two_qubit() {
            let qs = g.operands();
            let (a, b) = (qs[0], qs[1]);
            let layer = level[a.index()].max(level[b.index()]).max(barrier_level);
            level[a.index()] = layer + 1;
            level[b.index()] = layer + 1;
            pending.push((a, b, layer));
        }
    }
    pending
}

/// Positions of gate `(a, b)`'s endpoints, `(lo, hi)`.
fn endpoints(mapping: &Mapping, (a, b, _): Layered) -> (usize, usize) {
    let (pa, pb) = (mapping.position_of(a), mapping.position_of(b));
    (pa.min(pb), pa.max(pb))
}

/// Position of `q` once positions `pa` and `pb` are swapped.
fn swapped_position(mapping: &Mapping, q: Qubit, pa: usize, pb: usize) -> usize {
    match mapping.position_of(q) {
        p if p == pa => pb,
        p if p == pb => pa,
        p => p,
    }
}

/// Algorithm 1 with the full Eq. 1 score of every candidate.
fn linq_swap(
    cfg: &LinqConfig,
    spec: DeviceSpec,
    mapping: &Mapping,
    pending: &[Layered],
    cursor: usize,
) -> (usize, usize) {
    let window_end = pending.len().min(cursor.saturating_add(cfg.lookahead));
    let window = &pending[cursor..window_end];
    let cur_layer = window[0].2;
    let mut base_score = 0.0f64;
    let mut weights = Vec::with_capacity(window.len());
    let mut touching: HashMap<Qubit, Vec<usize>> = HashMap::new();
    for (i, &(a, b, layer)) in window.iter().enumerate() {
        let w = cfg.alpha.powi(layer.saturating_sub(cur_layer) as i32);
        weights.push(w);
        base_score += (mapping.distance(a, b) as f64) * w;
        touching.entry(a).or_default().push(i);
        touching.entry(b).or_default().push(i);
    }
    let score = |pa: usize, pb: usize| {
        let la = mapping.logical_at(pa);
        let lb = mapping.logical_at(pb);
        let mut delta = 0.0f64;
        let mut visit = |i: usize| {
            let (a, b, _) = window[i];
            let old = mapping.distance(a, b) as f64;
            let new = swapped_position(mapping, a, pa, pb)
                .abs_diff(swapped_position(mapping, b, pa, pb)) as f64;
            delta += (new - old) * weights[i];
        };
        for &i in touching.get(&la).into_iter().flatten() {
            visit(i);
        }
        for &i in touching.get(&lb).into_iter().flatten() {
            if window[i].0 != la && window[i].1 != la {
                visit(i);
            }
        }
        base_score + delta
    };

    let max_swap_len = cfg.effective_max_swap_len(spec);
    let (lo, hi) = endpoints(mapping, pending[cursor]);
    let mut best: Option<((usize, usize), f64)> = None;
    for qi in (lo + 1)..hi {
        for (pa, pb) in [(lo, qi), (qi, hi)] {
            if pb - pa > max_swap_len {
                continue;
            }
            let s = score(pa, pb);
            if best.is_none_or(|(_, bs)| s < bs - 1e-12) {
                best = Some(((pa, pb), s));
            }
        }
    }
    best.expect("an unexecutable gate has swap candidates").0
}

/// The baseline's trial loop: keep the first trial whose swap leaves the
/// current gate strictly shortest.
fn stochastic_swap(
    trials: usize,
    rng: &mut SmallRng,
    spec: DeviceSpec,
    mapping: &Mapping,
    gate: Layered,
) -> (usize, usize) {
    let (lo, hi) = endpoints(mapping, gate);
    let d = hi - lo;
    let max_jump = (spec.head_size() - 1).min(d - 1);
    let mut best: Option<((usize, usize), usize)> = None;
    for _ in 0..trials {
        let jump = rng.gen_range(1..=max_jump);
        let from_lo: bool = rng.gen();
        let cand = if from_lo {
            (lo, lo + jump)
        } else {
            (hi - jump, hi)
        };
        let new_d = d - jump;
        if best.is_none_or(|(_, bd)| new_d < bd) {
            best = Some((cand, new_d));
        }
    }
    best.expect("at least one trial ran").0
}

/// Fig. 2c: the swap strictly shortens two distinct pending gates, the
/// next one of each swapped datum within [`OPPOSING_HORIZON`] gates.
fn opposing(mapping: &Mapping, pending: &[Layered], cursor: usize, pa: usize, pb: usize) -> bool {
    let horizon = pending.len().min(cursor + OPPOSING_HORIZON);
    let next_gate = |q: Qubit| (cursor..horizon).find(|&i| pending[i].0 == q || pending[i].1 == q);
    let (Some(ga), Some(gb)) = (
        next_gate(mapping.logical_at(pa)),
        next_gate(mapping.logical_at(pb)),
    ) else {
        return false;
    };
    let shortened = |i: usize| {
        let (a, b, _) = pending[i];
        let new =
            swapped_position(mapping, a, pa, pb).abs_diff(swapped_position(mapping, b, pa, pb));
        new < mapping.distance(a, b)
    };
    ga != gb && shortened(ga) && shortened(gb)
}
