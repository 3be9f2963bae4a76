//! Kernel-wide counters used by the benchmark harness.

use std::sync::Arc;

use crate::tally::{self, Slots, Tally};
use crate::{hotpath, pool};

/// Defines [`KernelStats`] / [`StatsSnapshot`] plus their `snapshot`,
/// `since` and `fields` plumbing from one field list, so adding a counter is
/// a one-line change instead of a copy of the same name per use.
///
/// The `kernel` fields are cells of a [`Tally`] this kernel owns: each
/// thread bumps cells of its own (a plain load and store, no shared line
/// written), and a snapshot sums them. The `process` fields are read from
/// the sources named in the parentheses — [`pool::counters`] and
/// [`hotpath::counters`], tallies too — because the buffer pool is
/// per-thread state and the socket hot path is per-connection state, both
/// shared by every kernel in the process: every kernel reports the same
/// numbers for them.
macro_rules! kernel_counters {
    (
        kernel { $( $(#[$doc:meta])* $field:ident, )+ }
        process($( $source:ident = $read:expr ),+) {
            $( $(#[$pdoc:meta])* $pfield:ident = $value:expr, )+
        }
    ) => {
        /// Monotonic counters maintained by one [`crate::Kernel`].
        ///
        /// The benchmark harness reports these alongside wall-clock timings
        /// because they are hardware independent: the paper's claims about
        /// resource usage (for example, the cluster subcontract sharing one
        /// door among many objects, §8.1) are checked against these counts,
        /// not against 1993 microseconds.
        #[derive(Debug, Default)]
        pub struct KernelStats {
            tally: Arc<Tally<{ Count::CELLS }>>,
        }

        /// The counts a kernel keeps, by the name [`StatsSnapshot`] reports
        /// each under.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        pub(crate) enum Count {
            $( $field, )+
        }

        impl Count {
            const CELLS: usize = [$( Count::$field, )+].len();
        }

        /// A point-in-time snapshot of [`KernelStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $field: u64, )+
            $( $(#[$pdoc])* pub $pfield: u64, )+
        }

        impl KernelStats {
            /// Takes a consistent-enough snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                let cells = self.tally.read();
                $( let $source = $read; )+
                StatsSnapshot {
                    $( $field: cells[Count::$field as usize], )+
                    $( $pfield: $value, )+
                }
            }
        }

        impl StatsSnapshot {
            /// How many counters a snapshot holds.
            pub const FIELDS: usize =
                [$( stringify!($field), )+ $( stringify!($pfield), )+].len();

            /// Component-wise difference `self - earlier`, saturating at
            /// zero.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                    $( $pfield: self.$pfield.saturating_sub(earlier.$pfield), )+
                }
            }

            /// Every counter under its field name, in declaration order:
            /// what the stats door serialises.
            pub fn fields(&self) -> [(&'static str, u64); Self::FIELDS] {
                [
                    $( (stringify!($field), self.$field), )+
                    $( (stringify!($pfield), self.$pfield), )+
                ]
            }
        }
    };
}

kernel_counters! {
    kernel {
        /// Doors created since kernel start.
        doors_created,
        /// Door calls executed (including failed deliveries).
        door_calls,
        /// Payload bytes physically copied across domain boundaries.
        bytes_copied,
        /// Door calls delivered within one domain (D2) with the payload
        /// passed through uncopied.
        local_deliveries,
        /// Door identifiers issued (creation, copy, and transfer each issue
        /// one).
        ids_issued,
        /// Door identifiers deleted.
        ids_deleted,
        /// Door identifiers moved between domains by message transfer.
        ids_transferred,
        /// Unreferenced notifications delivered to door handlers.
        unref_notifications,
        /// Doors revoked by [`crate::Domain::revoke_door`]. A domain's
        /// crash revokes nothing: calls on the doors it served fail because
        /// it is dead.
        revocations,
        /// Times a domain door-table lock was contended (blocked on
        /// acquire).
        table_lock_waits,
    }
    process(pool = pool::counters(), hot = hotpath::counters()) {
        /// Always 0: the kernel keeps no door lock beside the domains'
        /// tables, whose waits are `table_lock_waits`. Like
        /// [`Self::writev_wakeups`], this field survives **only** because
        /// `benchmark/src/bench.rs` names it, and goes with the same change.
        shard_lock_waits = 0,
        /// Buffer-pool hits (process-wide; the pool is per-thread, not
        /// per-kernel, so every kernel reports the same numbers — see
        /// [`pool::counters`]).
        pool_hits = pool.hits,
        /// Buffer-pool misses (process-wide, see `pool_hits`).
        pool_misses = pool.misses,
        /// Frames written to call sockets, each by the thread that
        /// produced it — every socket frame this process sent
        /// (process-wide, see [`hotpath::counters`]).
        fastpath_sends = hot.fastpath_sends,
        /// Always 0: no socket writer thread exists to wake. This field
        /// and [`Self::writev_frames`] survive **only** because
        /// `benchmark/src/bench.rs` names them (by field and over the stats
        /// door) and a change may not touch `benchmark/` together with
        /// other code; they go once the `benchmark`-only change of ROADMAP
        /// item 3 stops reading them.
        writev_wakeups = 0,
        /// Always 0, see [`Self::writev_wakeups`].
        writev_frames = 0,
        /// Call-socket serving threads started (process-wide).
        dispatch_pool_spawned = hot.dispatch_pool_spawned,
        /// Call-socket serving threads ended — their socket closed or
        /// their link died (process-wide).
        dispatch_pool_reaped = hot.dispatch_pool_reaped,
        /// Reply-less one-way frames shipped on the wire
        /// (process-wide).
        oneway_frames = hot.oneway_frames,
    }
}

thread_local! {
    /// This thread's cells of every kernel it has counted for.
    static MINE: Slots<{ Count::CELLS }> = const { Slots::new() };
}

impl KernelStats {
    /// Adds `n` to one of this kernel's counts.
    #[inline]
    pub(crate) fn add(&self, count: Count, n: u64) {
        tally::bump(&MINE, &self.tally, count as usize, n);
    }

    /// Adds to several of this kernel's counts at one site, in one tally
    /// lookup.
    #[inline]
    pub(crate) fn add_each<const K: usize>(&self, counts: [(Count, u64); K]) {
        tally::bump_many(&MINE, &self.tally, &counts.map(|(c, n)| (c as usize, n)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let stats = KernelStats::default();
        stats.add(Count::door_calls, 1);
        stats.add(Count::bytes_copied, 10);
        let a = stats.snapshot();
        stats.add(Count::door_calls, 2);
        stats.add(Count::bytes_copied, 10);
        let b = stats.snapshot();
        let d = b.since(&a);
        assert_eq!(d.door_calls, 2);
        assert_eq!(d.bytes_copied, 10);
        assert_eq!(d.doors_created, 0);
        assert_eq!(d.table_lock_waits, 0);
        assert_eq!(d.shard_lock_waits, 0);
    }

    #[test]
    fn since_includes_pool_counters() {
        let a = StatsSnapshot {
            pool_hits: 5,
            pool_misses: 2,
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            pool_hits: 9,
            pool_misses: 2,
            ..StatsSnapshot::default()
        };
        let d = b.since(&a);
        assert_eq!(d.pool_hits, 4);
        assert_eq!(d.pool_misses, 0);
    }
}
