//! The concurrency protocol of the parallel island engine, extracted
//! behind a small trait seam.
//!
//! One engine round is: the coordinator publishes the phase bound,
//! **barrier**, every participant runs its own fixed block of islands to
//! the bound and publishes their status, **barrier**, the coordinator
//! reads the statuses. Two pieces of that round live here:
//!
//! * [`block_bounds`], the split of the island order into one contiguous
//!   block per participant, made once per run. Each participant owns its
//!   block for the whole run, so no island is ever touched by two
//!   threads and no island needs a lock;
//! * [`barrier_wait`], the generation barrier the round crosses twice, as
//!   a plain function generic over [`SyncCell`] and [`SyncEnv`].
//!
//! The engine instantiates [`barrier_wait`] with hardware atomics
//! ([`AtomicU64`] plus the spin/yield waiter). `btgs-analyze`'s model
//! checker instantiates the *same function* with modeled memory cells and
//! a schedule-exploring environment, and drives the whole round (bound
//! publish, [`block_bounds`] ownership, status publish) through it, so
//! every interleaving the bounded DFS visits exercises the actual
//! protocol logic, not a transcription of it.
//!
//! The memory orderings are parameters ([`BarrierOrderings`]) rather than
//! literals so the checker can also run the deliberately weakened variants
//! ([`BarrierOrderings::WEAK_SPIN`], [`BarrierOrderings::WEAK_ARRIVE`]) and
//! prove it would catch the corresponding real-world regressions. The
//! engine only ever passes [`BarrierOrderings::SOUND`], a `const`, so the
//! parameterisation folds away.

use std::sync::atomic::{AtomicU64, Ordering};

/// One shared atomic word of a protocol, as the protocol logic sees it.
///
/// Hardware implementation: [`AtomicU64`]. Model implementation (in
/// `btgs-analyze`): a handle into the checker's vector-clocked memory whose
/// every call is a scheduler yield point.
pub trait SyncCell {
    /// Atomic load with the given ordering.
    fn load(&self, order: Ordering) -> u64;
    /// Atomic store with the given ordering.
    fn store(&self, value: u64, order: Ordering);
    /// Atomic fetch-add; returns the previous value.
    fn fetch_add(&self, value: u64, order: Ordering) -> u64;
}

impl SyncCell for AtomicU64 {
    #[inline]
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }

    #[inline]
    fn store(&self, value: u64, order: Ordering) {
        AtomicU64::store(self, value, order)
    }

    #[inline]
    fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        AtomicU64::fetch_add(self, value, order)
    }
}

/// The scheduling side of a protocol: how a thread waits for another
/// thread's store. Separated from the protocol logic because it is policy
/// (how hard to spin) rather than correctness (what to wait for).
pub trait SyncEnv {
    /// The cell type this environment waits on.
    type Cell: SyncCell;

    /// Blocks until a load of `cell` with `order` observes a value
    /// different from `old`, and returns that value.
    ///
    /// The hardware implementation spins, then yields (and sleeps only
    /// when the pool has more threads than the host has cores); the model
    /// implementation lets the checker's scheduler pick which qualifying
    /// store the load reads.
    fn wait_until_changed(&self, cell: &Self::Cell, old: u64, order: Ordering) -> u64;
}

/// The memory orderings of the barrier protocol, as data.
///
/// Each field is one ordering decision in [`barrier_wait`]; the inline
/// `ord:` comments at the use sites justify the [`SOUND`] choice, and the
/// model checker demonstrates the weakened variants break the protocol's
/// publish-visibility guarantee under explored schedules.
///
/// [`SOUND`]: BarrierOrderings::SOUND
#[derive(Clone, Copy, Debug)]
pub struct BarrierOrderings {
    /// The generation load on entry, before arriving.
    pub enter: Ordering,
    /// The arrival `count.fetch_add`.
    pub arrive: Ordering,
    /// The releaser's `count.store(0)` reset.
    pub reset: Ordering,
    /// The releaser's `generation.fetch_add` release.
    pub release: Ordering,
    /// The waiters' generation loads while spinning.
    pub spin: Ordering,
}

impl BarrierOrderings {
    /// The production orderings; every choice is justified at its use site
    /// in [`barrier_wait`] and validated by `btgs-analyze`'s exhaustive
    /// small-model check.
    pub const SOUND: BarrierOrderings = BarrierOrderings {
        enter: Ordering::Acquire,   // ord: justified at the use site in barrier_wait
        arrive: Ordering::AcqRel,   // ord: justified at the use site in barrier_wait
        reset: Ordering::Relaxed,   // ord: justified at the use site in barrier_wait
        release: Ordering::Release, // ord: justified at the use site in barrier_wait
        spin: Ordering::Acquire,    // ord: justified at the use site in barrier_wait
    };

    /// Deliberately broken: waiters spin with `Relaxed` generation loads,
    /// so clearing the barrier no longer synchronises with the releaser
    /// and pre-barrier publishes by other threads may be invisible after
    /// it. The model checker must find a counterexample for this variant
    /// (regression-tested) — it is the exact bug a future contributor
    /// could introduce by "optimising" the spin loop.
    pub const WEAK_SPIN: BarrierOrderings = BarrierOrderings {
        spin: Ordering::Relaxed, // ord: deliberately unsound — checker fixture
        ..BarrierOrderings::SOUND
    };

    /// Deliberately broken the other way: `Relaxed` arrivals, so the
    /// *releaser* (who never spins) is no longer ordered after the other
    /// threads' pre-barrier publishes.
    pub const WEAK_ARRIVE: BarrierOrderings = BarrierOrderings {
        arrive: Ordering::Relaxed, // ord: deliberately unsound — checker fixture
        ..BarrierOrderings::SOUND
    };
}

/// One barrier crossing of the generation protocol.
///
/// `n` threads call this per round; the last arrival resets the count and
/// bumps the generation, releasing the rest. Returns the generation the
/// caller observed on clearing the barrier (entry generation + 1 in every
/// sound schedule — checked by the model's no-generation-skip assertion).
///
/// Guarantees (with [`BarrierOrderings::SOUND`], model-checked
/// exhaustively at 2–4 threads):
///
/// * **no lost wakeup** — every thread clears every round (no schedule
///   deadlocks);
/// * **no generation skip** — the observed generation is exactly one past
///   the entry generation;
/// * **publish visibility** — every write sequenced before any thread's
///   crossing is visible to every thread after it.
pub fn barrier_wait<E: SyncEnv>(
    env: &E,
    count: &E::Cell,
    generation: &E::Cell,
    n: u64,
    ord: &BarrierOrderings,
) -> u64 {
    // ord: Acquire — pairs with the previous round's Release bump: a thread
    // racing into round g+1 must order its arrival after observing g+1, or
    // it could arrive against the previous round's count.
    let entry = generation.load(ord.enter);
    // ord: AcqRel — the Release half publishes this thread's pre-barrier
    // writes into the count cell's release sequence (each arrival extends
    // it), and the Acquire half makes the *last* arrival — which never
    // spins — acquire every earlier arrival's publishes through that
    // sequence. Weakening this to Relaxed loses the releaser's visibility
    // (the model checker's WEAK_ARRIVE counterexample).
    if count.fetch_add(1, ord.arrive) + 1 == n {
        // ord: Relaxed is sufficient — this reset is sequenced before the
        // Release generation bump below, so any thread that enters the
        // next round (it must first observe the bump with Acquire) has the
        // reset ordered before its arrival; write-write coherence then
        // places the reset before that arrival in the count cell's
        // modification order. Model-checked: no schedule loses an arrival.
        count.store(0, ord.reset);
        // ord: Release — the bump is the barrier's publication point: it
        // carries every pre-barrier write (own and, via the acquiring
        // fetch_add above, everyone else's) to the spinning waiters.
        generation.fetch_add(1, ord.release);
        entry + 1
    } else {
        // ord: Acquire — the spin load that clears the barrier pairs with
        // the Release bump, making all pre-barrier publishes visible.
        // Relaxed here is the classic silent breakage (WEAK_SPIN): the
        // waiter leaves the barrier without synchronising.
        env.wait_until_changed(generation, entry, ord.spin)
    }
}

/// Splits `weights.len()` island positions into `parts` contiguous blocks
/// of near-equal total weight; block `p` is `bounds[p]..bounds[p + 1]` of
/// the returned `parts + 1` bounds.
///
/// Every position lands in exactly one block, blocks are in position
/// order, and the split depends on nothing but its inputs. `parts` is
/// clamped to `1..=weights.len()`, so no block is empty (with no
/// positions at all, the one block is). Each cut sits at the prefix sum
/// nearest to its share `p * total / parts` of the total weight, within
/// the range that leaves at least one position to every block.
///
/// The engine weighs an island by its flow count, which tracks the
/// island's event count closely, so blocks carry near-equal work rather
/// than near-equal island counts.
///
/// # Examples
///
/// ```
/// use btgs_piconet::sync_protocol::block_bounds;
///
/// assert_eq!(block_bounds(&[1, 1, 1, 1], 2), vec![0, 2, 4]);
/// // One heavy island takes a block of its own.
/// assert_eq!(block_bounds(&[6, 1, 1, 1, 1, 1, 1], 2), vec![0, 1, 7]);
/// ```
pub fn block_bounds(weights: &[usize], parts: usize) -> Vec<usize> {
    let n = weights.len();
    let parts = parts.clamp(1, n.max(1));
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0u128);
    for &w in weights {
        prefix.push(prefix[prefix.len() - 1] + w as u128);
    }
    let total = prefix[n];
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for p in 1..parts {
        let target = total * p as u128 / parts as u128;
        // The first cut at or past the target, or the one just before it
        // if that is strictly nearer.
        let mut cut = prefix.partition_point(|&s| s < target);
        if cut > 0 && target - prefix[cut - 1] < prefix[cut] - target {
            cut -= 1;
        }
        let lo = bounds[p - 1] + 1;
        let hi = n - (parts - p);
        bounds.push(cut.clamp(lo, hi));
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::block_bounds;
    use btgs_des::DetRng;

    /// Checks the structural contract and returns the per-block weights.
    fn check(weights: &[usize], parts: usize) -> Vec<usize> {
        let bounds = block_bounds(weights, parts);
        let n = weights.len();
        let blocks = parts.clamp(1, n.max(1));
        assert_eq!(bounds.len(), blocks + 1, "{weights:?} / {parts}");
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[blocks], n);
        // Contiguous, in order, and non-empty whenever positions >= parts:
        // every position lands in exactly one block.
        let mut owner = vec![None; n];
        for (p, w) in bounds.windows(2).enumerate() {
            assert!(
                w[0] < w[1] || n == 0,
                "block {p} of {bounds:?} is empty ({weights:?} / {parts})"
            );
            for slot in &mut owner[w[0]..w[1]] {
                assert!(slot.is_none(), "position in two blocks: {bounds:?}");
                *slot = Some(p);
            }
        }
        assert!(
            owner.iter().all(Option::is_some),
            "{bounds:?} misses a position"
        );
        assert_eq!(
            bounds,
            block_bounds(weights, parts),
            "split is deterministic"
        );
        bounds
            .windows(2)
            .map(|w| weights[w[0]..w[1]].iter().sum())
            .collect()
    }

    #[test]
    fn blocks_partition_the_order_in_contiguous_runs() {
        let mut rng = DetRng::seed_from_u64(14);
        for n in 0..40usize {
            for parts in 1..=6 {
                let weights: Vec<usize> = (0..n).map(|_| rng.below(9) as usize).collect();
                check(&weights, parts);
            }
        }
        // Degenerate weights still split into non-empty blocks.
        check(&[0; 5], 3);
        check(&[], 4);
        assert_eq!(block_bounds(&[3, 3], 8), vec![0, 1, 2]);
    }

    #[test]
    fn skewed_flow_counts_split_by_weight_not_count() {
        // Equal island counts would put 40 of 48 flows in the first half;
        // the weighted split balances the flows instead.
        let weights = [10, 10, 10, 10, 2, 2, 2, 2];
        assert_eq!(block_bounds(&weights, 2), vec![0, 2, 8]);
        assert_eq!(check(&weights, 2), vec![20, 28]);
        // Uniform weights reduce to equal counts.
        assert_eq!(block_bounds(&[4; 12], 3), vec![0, 4, 8, 12]);
        // Every block of a large skewed split stays within one island's
        // weight of its share.
        let weights: Vec<usize> = (0..256).map(|i| 1 + (i * 7) % 13).collect();
        let total: usize = weights.iter().sum();
        for parts in [2usize, 3, 4, 8] {
            for (p, w) in check(&weights, parts).into_iter().enumerate() {
                let share = total / parts;
                assert!(
                    w.abs_diff(share) <= 2 * 13,
                    "block {p} of {parts} carries {w}, share {share}"
                );
            }
        }
    }
}
