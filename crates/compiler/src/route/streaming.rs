//! The swap router: Algorithm 1 over a circuit handed over window by
//! window.
//!
//! [`StreamRouter`] routes each window straight from the caller's gate
//! slice and hands each routed gate to the caller as it is decided. [`RouterKind::route`] passes
//! the whole circuit as one final window; the streaming pipeline passes
//! each decomposed input window as it arrives. Both make the same
//! decisions, because every policy decision and the opposing-swap
//! classifier inspect the pending two-qubit skeleton only inside
//! `[cursor, cursor + K)` with `K = max(lookahead, OPPOSING_HORIZON)`.
//! A two-qubit gate is routed once `K` pending gates beyond it are
//! layered (or the input has ended), so every `min(len, cursor + K)` the
//! scorers compute equals its whole-circuit value.
//!
//! The skeleton stays bounded whatever the window size: gates are
//! layered lazily, only as far as `cursor + K`, and the routed prefix is
//! dropped every [`PRUNE_CHUNK`] gates (indices rebased, LinQ weight
//! cache rebuilt identically). When a window ends before `K` gates
//! beyond the next two-qubit gate are known, that gate and everything
//! after it (already layered) are carried ahead of the next window.

use super::{is_opposing, linq, stochastic, PendingGate, PendingIndex, RouteState, Skeleton};
use super::{RouterKind, OPPOSING_HORIZON};
use crate::error::CompileError;
use crate::mapping::Mapping;
use crate::spec::DeviceSpec;
use tilt_circuit::{Gate, Qubit};

/// Routed-prefix length at which the pending list is rebased.
pub(crate) const PRUNE_CHUNK: usize = 4096;

/// The swap-selection policy carried across windows.
enum StreamPolicy {
    Linq(linq::LinqPolicy),
    Stochastic(stochastic::StochasticPolicy),
}

impl StreamPolicy {
    /// The next pair of tape positions to swap; it strictly reduces the
    /// current gate's distance, which guarantees termination.
    fn choose_swap(&mut self, state: &RouteState<'_>) -> (usize, usize) {
        match self {
            StreamPolicy::Linq(p) => p.choose_swap(state),
            StreamPolicy::Stochastic(p) => p.choose_swap(state),
        }
    }
}

/// Receives routed gates in program order: a `Vec` collects them, the
/// streaming pipeline lowers them as they arrive. (A `FnMut` closure in
/// its place cost swap-light routes 10–15%.)
pub(crate) trait RoutedSink {
    fn push(&mut self, g: Gate);
}

impl RoutedSink for Vec<Gate> {
    #[inline]
    fn push(&mut self, g: Gate) {
        Vec::push(self, g);
    }
}

/// Routes native gates window by window, carrying the mapping, the
/// skeleton, the policy state and the unrouted suffix between windows.
pub(crate) struct StreamRouter {
    spec: DeviceSpec,
    policy: StreamPolicy,
    /// Pending gates required beyond the cursor before a decision equals
    /// the whole-circuit one.
    ahead: usize,
    skeleton: Skeleton,
    /// Layered two-qubit gates not yet dropped by a rebase.
    pending: Vec<PendingGate>,
    index: PendingIndex,
    /// Index into `pending` of the gate currently being resolved.
    cursor: usize,
    /// Gates of earlier windows from the first blocked two-qubit gate on,
    /// all already layered.
    carry: Vec<Gate>,
    /// The current mapping (after the final window: the final one).
    pub(crate) mapping: Mapping,
    /// Inserted SWAP gates so far.
    pub(crate) swap_count: usize,
    /// Opposing swaps so far (Fig. 2c).
    pub(crate) opposing_swap_count: usize,
}

impl StreamRouter {
    /// Creates a router for `kind` starting from `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidRouterConfig`] exactly when
    /// [`RouterKind::validate`] does.
    pub(crate) fn new(
        kind: &RouterKind,
        spec: DeviceSpec,
        initial: Mapping,
    ) -> Result<Self, CompileError> {
        kind.validate(spec)?;
        let (policy, ahead) = match kind {
            RouterKind::Linq(cfg) => (
                StreamPolicy::Linq(linq::LinqPolicy::new(*cfg, spec)),
                cfg.lookahead.max(OPPOSING_HORIZON),
            ),
            RouterKind::Stochastic(cfg) => (
                StreamPolicy::Stochastic(stochastic::StochasticPolicy::new(*cfg)),
                OPPOSING_HORIZON,
            ),
        };
        Ok(StreamRouter {
            spec,
            policy,
            ahead,
            skeleton: Skeleton::new(spec.n_ions()),
            pending: Vec::new(),
            index: PendingIndex::new(spec.n_ions()),
            cursor: 0,
            carry: Vec::new(),
            mapping: initial,
            swap_count: 0,
            opposing_swap_count: 0,
        })
    }

    /// Routes the carried gates, then `window` (the next native gates in
    /// program order), passing each physical-coordinate gate and inserted
    /// swap to `out` in order. With `eof` every gate is routed;
    /// otherwise the gates from the first two-qubit gate that still
    /// lacks look-ahead are carried into the next call.
    pub(crate) fn route_window(&mut self, window: &[Gate], eof: bool, out: &mut impl RoutedSink) {
        let mut carry = std::mem::take(&mut self.carry);
        let mut scan = 0;
        let routed = self.route_from(&carry, window, &mut scan, eof, out);
        if routed < carry.len() {
            // Blocked inside the carry: the whole window is layered.
            carry.drain(..routed);
            carry.extend_from_slice(window);
        } else {
            carry.clear();
            let routed = self.route_from(window, window, &mut scan, eof, out);
            carry.extend_from_slice(&window[routed..]);
            for g in &window[scan..] {
                self.layer(g);
            }
        }
        self.carry = carry;
    }

    /// Routes `gates` in order, layering further gates of `source` from
    /// `*scan` on as the look-ahead needs them. Returns how many gates
    /// were routed: all of them, or up to the first blocked two-qubit
    /// gate (only without `eof`, and only once `source` is exhausted).
    fn route_from(
        &mut self,
        gates: &[Gate],
        source: &[Gate],
        scan: &mut usize,
        eof: bool,
        out: &mut impl RoutedSink,
    ) -> usize {
        for (i, g) in gates.iter().enumerate() {
            if g.is_two_qubit() {
                let need = self.cursor.saturating_add(self.ahead);
                while self.pending.len() < need && *scan < source.len() {
                    self.layer(&source[*scan]);
                    *scan += 1;
                }
                if self.pending.len() < need && !eof {
                    return i;
                }
                let qs = g.operands();
                while self.mapping.distance(qs[0], qs[1]) >= self.spec.head_size() {
                    self.insert_swap(out);
                }
                self.cursor += 1;
                if self.cursor >= PRUNE_CHUNK {
                    self.rebase();
                }
            }
            out.push(g.map_qubits(|q| Qubit(self.mapping.position_of(q))));
        }
        gates.len()
    }

    /// Chooses, classifies and applies one swap for the current gate.
    /// Kept out of line so that the per-gate loop stays small: inlined,
    /// it cost `RouterKind::route` 30–60% on swap-light circuits.
    #[inline(never)]
    fn insert_swap(&mut self, out: &mut impl RoutedSink) {
        let state = RouteState {
            spec: self.spec,
            mapping: &self.mapping,
            pending: &self.pending,
            index: &self.index,
            cursor: self.cursor,
        };
        let (pa, pb) = self.policy.choose_swap(&state);
        debug_assert!(pa != pb && pa.abs_diff(pb) < self.spec.head_size());
        if is_opposing(
            &self.mapping,
            &self.pending,
            &self.index,
            self.cursor,
            pa,
            pb,
        ) {
            self.opposing_swap_count += 1;
        }
        out.push(Gate::Swap(Qubit(pa.min(pb)), Qubit(pa.max(pb))));
        self.mapping.swap_positions(pa, pb);
        self.swap_count += 1;
    }

    /// Adds `g` to the skeleton (two-qubit gates join the pending list).
    #[inline]
    fn layer(&mut self, g: &Gate) {
        if let Some(p) = self.skeleton.layer(g) {
            let i = u32::try_from(self.pending.len()).expect("pending window fits u32");
            self.index.push(i, &p);
            self.pending.push(p);
        }
    }

    /// Drops the routed prefix `[0, cursor)` of the pending list and
    /// rebases all indices to the new origin.
    fn rebase(&mut self) {
        let k = self.cursor;
        self.pending.drain(..k);
        self.cursor = 0;
        let cut = u32::try_from(k).expect("prune chunk fits u32");
        for list in &mut self.index.per_qubit {
            let split = list.partition_point(|&i| i < cut);
            list.drain(..split);
            for i in list.iter_mut() {
                *i -= cut;
            }
        }
        if let StreamPolicy::Linq(p) = &mut self.policy {
            p.invalidate_window();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::InitialMapping;
    use crate::route::{route_oracle, LinqConfig, StochasticConfig};
    use tilt_circuit::Circuit;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Random native-granularity workload: far XX pairs, rotations,
    /// occasional barriers.
    fn workload(n: usize, len: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed;
        for _ in 0..len {
            match xorshift(&mut s) % 10 {
                0 => {
                    c.barrier();
                }
                1..=3 => {
                    let q = Qubit((xorshift(&mut s) as usize) % n);
                    c.rz(q, 0.25);
                }
                _ => {
                    let a = (xorshift(&mut s) as usize) % n;
                    let mut b = (xorshift(&mut s) as usize) % n;
                    if a == b {
                        b = (b + 1) % n;
                    }
                    c.xx(Qubit(a), Qubit(b), 0.5);
                }
            }
        }
        c
    }

    fn kinds() -> Vec<RouterKind> {
        vec![
            RouterKind::Linq(LinqConfig::default()),
            RouterKind::Linq(LinqConfig {
                max_swap_len: Some(3),
                lookahead: 17,
                ..LinqConfig::default()
            }),
            RouterKind::Stochastic(StochasticConfig::default()),
        ]
    }

    /// Routes `c` in windows of `window` native gates (the last one with
    /// `eof`), returning the output and the router after the last window.
    fn windowed(
        kind: &RouterKind,
        c: &Circuit,
        spec: DeviceSpec,
        window: usize,
    ) -> (Vec<Gate>, StreamRouter) {
        let initial = InitialMapping::Identity.build(c, spec.n_ions());
        let mut sr = StreamRouter::new(kind, spec, initial).unwrap();
        let mut got = Vec::new();
        let chunks: Vec<&[Gate]> = c.gates().chunks(window).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            sr.route_window(chunk, i + 1 == chunks.len(), &mut got);
        }
        if chunks.is_empty() {
            sr.route_window(&[], true, &mut got);
        }
        (got, sr)
    }

    /// Asserts that windowed routing at several window sizes matches the
    /// oracle gate for gate, count for count.
    fn assert_matches_oracle(kind: &RouterKind, c: &Circuit, spec: DeviceSpec) {
        let initial = InitialMapping::Identity.build(c, spec.n_ions());
        let oracle = route_oracle(c, spec, &initial, kind);
        for window in [1, 7, 64, c.len().max(1)] {
            let (got, sr) = windowed(kind, c, spec, window);
            assert_eq!(got, oracle.circuit.gates(), "{kind:?} window {window}");
            assert_eq!(sr.swap_count, oracle.swap_count, "{kind:?}");
            assert_eq!(
                sr.opposing_swap_count, oracle.opposing_swap_count,
                "{kind:?}"
            );
            assert_eq!(sr.mapping, oracle.final_mapping, "{kind:?}");
            assert!(sr.carry.is_empty());
        }
    }

    #[test]
    fn streamed_route_matches_monolithic() {
        for (n, head, len, seed) in [(16usize, 4usize, 300usize, 7u64), (32, 8, 800, 41)] {
            let spec = DeviceSpec::new(n, head).unwrap();
            let c = workload(n, len, seed);
            for kind in kinds() {
                assert_matches_oracle(&kind, &c, spec);
            }
        }
    }

    #[test]
    fn rebase_crossing_matches_monolithic_and_stays_bounded() {
        // Enough two-qubit gates to cross PRUNE_CHUNK several times.
        let n = 24;
        let spec = DeviceSpec::new(n, 6).unwrap();
        let mut c = Circuit::new(n);
        let mut s = 0xFEED_u64;
        for _ in 0..(PRUNE_CHUNK * 2 + 500) {
            let a = (xorshift(&mut s) as usize) % n;
            let mut b = (xorshift(&mut s) as usize) % n;
            if a == b {
                b = (b + 1) % n;
            }
            c.xx(Qubit(a), Qubit(b), 0.5);
        }
        let kind = RouterKind::Linq(LinqConfig::default());
        assert_matches_oracle(&kind, &c, spec);

        // Gate by gate, and in one long window that does not end the
        // input, the skeleton never holds more than one prune chunk plus
        // the look-ahead, and the carry no more than the look-ahead.
        let bound = PRUNE_CHUNK + 2 * OPPOSING_HORIZON;
        let initial = InitialMapping::Identity.build(&c, n);
        let mut sr = StreamRouter::new(&kind, spec, initial.clone()).unwrap();
        for g in &c {
            sr.route_window(std::slice::from_ref(g), false, &mut Vec::new());
            assert!(
                sr.pending.len() <= bound,
                "skeleton grew to {}",
                sr.pending.len()
            );
            assert!(
                sr.carry.len() <= OPPOSING_HORIZON + 1,
                "carry grew to {}",
                sr.carry.len()
            );
        }
        let mut sr = StreamRouter::new(&kind, spec, initial).unwrap();
        sr.route_window(c.gates(), false, &mut Vec::new());
        assert!(
            sr.pending.len() <= bound,
            "skeleton grew to {}",
            sr.pending.len()
        );
        assert!(
            sr.carry.len() <= OPPOSING_HORIZON + 1,
            "carry grew to {}",
            sr.carry.len()
        );
    }

    #[test]
    fn barriers_and_measurements_pass_through_in_order() {
        let n = 12;
        let spec = DeviceSpec::new(n, 4).unwrap();
        let mut c = Circuit::new(n);
        c.xx(Qubit(0), Qubit(11), 0.5);
        c.barrier();
        c.measure(Qubit(0)).reset_qubit(Qubit(0));
        c.xx(Qubit(0), Qubit(1), 0.25);
        for kind in kinds() {
            assert_matches_oracle(&kind, &c, spec);
        }
    }

    #[test]
    fn empty_input_routes_to_nothing() {
        let spec = DeviceSpec::new(8, 4).unwrap();
        let (got, sr) = windowed(&RouterKind::default(), &Circuit::new(8), spec, 64);
        assert!(got.is_empty());
        assert_eq!(sr.swap_count, 0);
    }
}
