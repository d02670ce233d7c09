//! Flat process storage with lazily-derived RNG streams, shared by both
//! execution substrates.
//!
//! Both the simulator engine and each live worker stripe used to hold a
//! `Vec<P>` of process states next to a parallel, eagerly-populated
//! `Vec<SmallRng>` — 32 bytes of generator state per process, paid at
//! spawn time whether or not the process ever draws. At million-process
//! scale that is 32 MB of RNG state per substrate *and* a full pass of
//! seed derivation before the first tick.
//!
//! [`ProcessStore`] keeps the dense, cache-friendly slab layout (local
//! index → process, exactly the `Vec` it replaces) but derives RNGs
//! lazily: [`rng_for_process`] is a pure function of `(master seed,
//! pid)`, so the stream of a process that has never drawn does not need
//! to exist. A slot materialises on the first draw (hooks get a
//! [`LazyRng`] handle, not the stream) and then persists, so stream
//! *positions* are preserved exactly — the k-th draw of a
//! process is identical whether its neighbours ever drew or not, and
//! identical to the eager layout's.

use crate::process::{ProcessId, ProcessStatus};
use crate::seed::rng_for_process;
use rand::rngs::SmallRng;

/// A dense slab of process states plus lazily-materialised per-process
/// RNG streams, indexed by a substrate-local dense index.
///
/// The caller owns the local-index → [`ProcessId`] mapping (the
/// simulator's is the identity; a live worker stripe's is
/// `pid = worker + local × stride`), so accessors that may materialise
/// an RNG take the pid alongside the local index.
///
/// ```
/// use da_core::store::ProcessStore;
/// use da_core::{rng_for_process, ProcessId};
/// use rand::Rng as _;
///
/// let mut store: ProcessStore<u32> = ProcessStore::new(42);
/// store.push(7);
/// assert_eq!(store.rng_resident(), 0, "nothing materialised at spawn");
/// let lazy: u64 = store.rng(0, ProcessId(0)).gen();
/// let mut eager = rng_for_process(42, ProcessId(0));
/// assert_eq!(lazy, eager.gen::<u64>(), "same stream as the eager layout");
/// assert_eq!(store.rng_resident(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ProcessStore<P> {
    seed: u64,
    procs: Vec<P>,
    rngs: Vec<Option<SmallRng>>,
}

impl<P> ProcessStore<P> {
    /// An empty store whose RNG streams derive from `master_seed` (the
    /// run's master seed — the same one [`rng_for_process`] takes).
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        ProcessStore {
            seed: master_seed,
            procs: Vec::new(),
            rngs: Vec::new(),
        }
    }

    /// An empty store with room for `capacity` processes.
    #[must_use]
    pub fn with_capacity(master_seed: u64, capacity: usize) -> Self {
        ProcessStore {
            seed: master_seed,
            procs: Vec::with_capacity(capacity),
            rngs: Vec::with_capacity(capacity),
        }
    }

    /// Appends a process; its RNG slot starts empty.
    pub fn push(&mut self, process: P) {
        self.procs.push(process);
        self.rngs.push(None);
    }

    /// Number of processes stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True when the store holds no processes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// The process at `local`.
    #[must_use]
    pub fn get(&self, local: usize) -> &P {
        &self.procs[local]
    }

    /// The process at `local`, mutably.
    pub fn get_mut(&mut self, local: usize) -> &mut P {
        &mut self.procs[local]
    }

    /// Iterates the process states in local-index order.
    pub fn iter(&self) -> std::slice::Iter<'_, P> {
        self.procs.iter()
    }

    /// Iterates the process states mutably in local-index order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, P> {
        self.procs.iter_mut()
    }

    /// The process slab as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[P] {
        &self.procs
    }

    /// The RNG stream of the process at `local` (which must be the
    /// local slot of `pid`), materialising it on first use.
    pub fn rng(&mut self, local: usize, pid: ProcessId) -> &mut SmallRng {
        let seed = self.seed;
        self.rngs[local].get_or_insert_with(|| rng_for_process(seed, pid))
    }

    /// Split borrow for the delivery/round hot path: the process at
    /// `local` (the local slot of `pid`) and a [`LazyRng`] handle on its
    /// stream, in one call, without aliasing conflicts between the two
    /// slabs. The slot is materialised only if the hook actually draws.
    pub fn pair_mut(&mut self, local: usize, pid: ProcessId) -> (&mut P, LazyRng<'_>) {
        let rng = LazyRng {
            slot: &mut self.rngs[local],
            seed: self.seed,
            pid,
        };
        (&mut self.procs[local], rng)
    }

    /// The hook pass over the slab: every process whose entry in
    /// `status` is alive, with its pid and a [`LazyRng`] handle, in
    /// local-index order. `status[i]` is the liveness of local slot `i`,
    /// whose pid is `first + i × stride`.
    ///
    /// Processes, RNG slots and statuses are walked as zipped slices and
    /// the pid advances by wrapping `u32` addition, so the pass has no
    /// per-process bounds check and nothing that can panic; once a hook
    /// that does nothing is inlined, the pass is a scan of the status
    /// bytes. Pids past `u32::MAX` wrap; both substrates bound their
    /// population to `u32` at spawn. [`pair_mut`](Self::pair_mut) stays
    /// the random-access path for deliveries.
    ///
    /// ```
    /// use da_core::store::ProcessStore;
    /// use da_core::{ProcessId, ProcessStatus};
    ///
    /// // Worker 1 of 3: local slots 0, 1, 2 are pids 1, 4, 7.
    /// let mut store: ProcessStore<&str> = ProcessStore::new(0);
    /// for name in ["a", "b", "c"] {
    ///     store.push(name);
    /// }
    /// let status = [ProcessStatus::Alive, ProcessStatus::Crashed, ProcessStatus::Alive];
    /// let visited: Vec<(ProcessId, &str)> = store
    ///     .alive_mut(&status, ProcessId(1), 3)
    ///     .map(|(pid, name, _rng)| (pid, *name))
    ///     .collect();
    /// assert_eq!(visited, [(ProcessId(1), "a"), (ProcessId(7), "c")]);
    /// ```
    pub fn alive_mut<'a>(
        &'a mut self,
        status: &'a [ProcessStatus],
        first: ProcessId,
        stride: u32,
    ) -> impl Iterator<Item = (ProcessId, &'a mut P, LazyRng<'a>)> {
        debug_assert_eq!(status.len(), self.procs.len(), "one status per process");
        let seed = self.seed;
        let mut next = first.0;
        self.procs
            .iter_mut()
            .zip(self.rngs.iter_mut())
            .zip(status)
            .filter_map(move |((process, slot), status)| {
                let pid = ProcessId(next);
                next = next.wrapping_add(stride);
                status
                    .is_alive()
                    .then_some((pid, process, LazyRng { slot, seed, pid }))
            })
    }

    /// A clone of the process's RNG stream *at its current position*,
    /// without materialising the slot: a stream that never drew is
    /// indistinguishable from one never materialised, so state digests
    /// probing streams through this are invariant to which slots happen
    /// to be resident.
    #[must_use]
    pub fn probe_rng(&self, local: usize, pid: ProcessId) -> SmallRng {
        match &self.rngs[local] {
            Some(rng) => rng.clone(),
            None => rng_for_process(self.seed, pid),
        }
    }

    /// Number of RNG slots materialised so far — the store's resident
    /// generator state is 32 bytes times this, not times [`len`](Self::len).
    #[must_use]
    pub fn rng_resident(&self) -> usize {
        self.rngs.iter().filter(|slot| slot.is_some()).count()
    }

    /// Consumes the store, returning the process slab.
    #[must_use]
    pub fn into_processes(self) -> Vec<P> {
        self.procs
    }
}

/// A borrowed handle on one process's RNG slot that derives the stream
/// on the first [`LazyRng::get`], so a hook that never draws leaves the
/// slot empty.
#[derive(Debug)]
pub struct LazyRng<'a> {
    slot: &'a mut Option<SmallRng>,
    seed: u64,
    pid: ProcessId,
}

impl LazyRng<'_> {
    /// The process's RNG stream, materialising the slot on first use.
    pub fn get(&mut self) -> &mut SmallRng {
        let (seed, pid) = (self.seed, self.pid);
        self.slot.get_or_insert_with(|| rng_for_process(seed, pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn lazy_rng_matches_eager_derivation() {
        let mut store: ProcessStore<u8> = ProcessStore::new(9);
        for i in 0..4 {
            store.push(i);
        }
        // Touch streams out of order; each must replay its eager twin.
        for local in [2usize, 0, 3, 1] {
            let pid = ProcessId::from_index(local);
            let mut eager = rng_for_process(9, pid);
            let eager_draws: Vec<u64> = (0..4).map(|_| eager.gen()).collect();
            let lazy_draws: Vec<u64> = (0..4).map(|_| store.rng(local, pid).gen()).collect();
            assert_eq!(lazy_draws, eager_draws, "local {local}");
        }
        assert_eq!(store.rng_resident(), 4);
    }

    #[test]
    fn rng_position_persists_across_calls() {
        let mut store: ProcessStore<u8> = ProcessStore::new(3);
        store.push(0);
        let first: u64 = store.rng(0, ProcessId(0)).gen();
        let second: u64 = store.rng(0, ProcessId(0)).gen();
        assert_ne!(first, second, "stream advances, not restarts");
    }

    #[test]
    fn probe_is_materialisation_invariant() {
        let mut touched: ProcessStore<u8> = ProcessStore::new(5);
        let untouched: ProcessStore<u8> = {
            let mut s = ProcessStore::new(5);
            s.push(0);
            s
        };
        touched.push(0);
        // Materialise without drawing: position is still the stream head.
        let _ = touched.rng(0, ProcessId(0));
        assert_eq!(touched.rng_resident(), 1);
        assert_eq!(untouched.rng_resident(), 0);
        let mut a = touched.probe_rng(0, ProcessId(0));
        let mut b = untouched.probe_rng(0, ProcessId(0));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn pair_mut_splits_the_borrow() {
        let mut store: ProcessStore<Vec<u64>> = ProcessStore::new(1);
        store.push(Vec::new());
        store.push(Vec::new());
        let (proc_state, mut rng) = store.pair_mut(0, ProcessId(0));
        proc_state.push(rng.get().gen());
        assert_eq!(store.get(0).len(), 1);
        assert_eq!(store.rng_resident(), 1, "the draw materialised slot 0");
        let (proc_state, _rng) = store.pair_mut(1, ProcessId(1));
        proc_state.push(0);
        assert_eq!(store.rng_resident(), 1, "no draw, no slot");
        let mut eager = rng_for_process(1, ProcessId(0));
        assert_eq!(store.get(0)[0], eager.gen::<u64>());
    }

    #[test]
    fn alive_mut_skips_crashed_slots_and_keeps_streams() {
        let mut store: ProcessStore<Vec<u64>> = ProcessStore::new(4);
        for _ in 0..4 {
            store.push(Vec::new());
        }
        let status = [
            ProcessStatus::Crashed,
            ProcessStatus::Alive,
            ProcessStatus::Crashed,
            ProcessStatus::Alive,
        ];
        // Stripe of worker 2 of 5: pids 2, 7, 12, 17.
        let mut pids = Vec::new();
        for (pid, state, mut rng) in store.alive_mut(&status, ProcessId(2), 5) {
            state.push(rng.get().gen());
            pids.push(pid);
        }
        assert_eq!(pids, [ProcessId(7), ProcessId(17)]);
        assert_eq!(store.rng_resident(), 2, "only the visited slots drew");
        assert!(store.get(0).is_empty() && store.get(2).is_empty());
        // Each draw came from the pid's own stream, as via pair_mut.
        assert_eq!(
            store.get(1)[0],
            rng_for_process(4, ProcessId(7)).gen::<u64>()
        );
        assert_eq!(
            store.get(3)[0],
            rng_for_process(4, ProcessId(17)).gen::<u64>()
        );
        let (_, mut rng) = store.pair_mut(1, ProcessId(7));
        let mut eager = rng_for_process(4, ProcessId(7));
        let _: u64 = eager.gen();
        assert_eq!(rng.get().gen::<u64>(), eager.gen::<u64>(), "position kept");
    }

    #[test]
    fn clone_preserves_positions_and_residency() {
        let mut store: ProcessStore<u8> = ProcessStore::new(7);
        store.push(0);
        store.push(1);
        let _: u64 = store.rng(0, ProcessId(0)).gen();
        let mut fork = store.clone();
        assert_eq!(fork.rng_resident(), 1);
        assert_eq!(
            fork.rng(0, ProcessId(0)).gen::<u64>(),
            store.rng(0, ProcessId(0)).gen::<u64>(),
            "forked universes draw in lockstep"
        );
    }

    #[test]
    fn into_processes_returns_the_slab() {
        let mut store: ProcessStore<u8> = ProcessStore::new(0);
        store.push(4);
        store.push(5);
        assert_eq!(store.into_processes(), vec![4, 5]);
    }
}
