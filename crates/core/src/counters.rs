//! One definition per counter set.
//!
//! A counter set is a block of `AtomicU64`s that a hot path bumps with
//! `Relaxed` ordering, plus an owned, serde-derived snapshot of it that
//! crosses process boundaries, merges across shards or endpoints, and
//! differences between two samples. [`counter_set!`](crate::counter_set)
//! declares both from one list, so a counter is written once — its doc,
//! its kind and its name — and the atomic field, the accessor, the
//! snapshot field and every fold over them follow from that line.
//!
//! Each counter has one of two kinds:
//!
//! - `sum` — a running count bumped with `fetch_add`. Snapshots merge by
//!   adding; a delta is the difference, saturating at 0.
//! - `peak` — a high-water mark raised with `fetch_max`. Snapshots merge
//!   by `max`; a delta carries the later value (a peak has no
//!   difference).

/// A `sum` counter's snapshot value: how two snapshots add and how a
/// later one differences against an earlier one. Implemented for `u64`
/// and for per-worker / per-shard `Vec<u64>`s (element-wise, a missing
/// entry reads 0).
#[doc(hidden)]
pub trait SumValue {
    /// `self + other`.
    fn plus(&self, other: &Self) -> Self;
    /// `self - prev`, saturating at 0.
    fn since(&self, prev: &Self) -> Self;
}

impl SumValue for u64 {
    fn plus(&self, other: &u64) -> u64 {
        self + other
    }

    fn since(&self, prev: &u64) -> u64 {
        self.saturating_sub(*prev)
    }
}

impl SumValue for Vec<u64> {
    fn plus(&self, other: &Vec<u64>) -> Vec<u64> {
        let at = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        (0..self.len().max(other.len()))
            .map(|i| at(self, i) + at(other, i))
            .collect()
    }

    fn since(&self, prev: &Vec<u64>) -> Vec<u64> {
        self.iter()
            .enumerate()
            .map(|(i, v)| v.since(&prev.get(i).copied().unwrap_or(0)))
            .collect()
    }
}

/// Declare a counter set: a struct of atomics and its serde-derived
/// snapshot, from one list of counters.
///
/// ```
/// use serde::{Deserialize, Serialize};
///
/// willump::counter_set! {
///     /// Live counters.
///     #[derive(Debug)]
///     pub struct Hits;
///
///     /// A point-in-time copy of [`Hits`].
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
///     pub struct HitsSnapshot {
///         /// Requests served.
///         sum served,
///         /// Largest batch seen.
///         peak max_batch,
///     }
/// }
///
/// let hits = Hits::default();
/// hits.served.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
/// let snap = hits.snapshot();
/// assert_eq!(hits.served(), 3);
/// assert_eq!(snap.merged(&snap).served, 6);
/// assert_eq!(snap.delta(&HitsSnapshot::default()).served, 3);
/// ```
///
/// The first struct holds one `AtomicU64` per counter, in declaration
/// order, each read by a generated `pub fn name(&self) -> u64`
/// accessor carrying the counter's doc, and a `snapshot()` that loads
/// every counter. The second struct holds one `#[serde(default)] pub`
/// `u64` field per counter, in the same order (so the serialized keys
/// follow the declaration), plus `merged(&self, &other)` and
/// `delta(&self, &prev)` that fold each field by its kind (see the
/// [module docs](crate::counters)). The snapshot must derive
/// `Serialize` and `Deserialize`.
///
/// A set whose live side needs more than atomics declares it inline:
///
/// - **Members** sit in the counter list as
///   `kind name: LiveType = init => SnapshotType = |s| expr`. The live
///   struct holds `name: LiveType` built from `init`; the snapshot field
///   holds `expr` evaluated with `s` bound to the live struct, and its
///   kind still decides the merge and the delta. Members get no
///   generated accessor.
/// - **Constructor arguments** follow the live struct's name:
///   `pub struct Stats(workers: usize)` generates a private
///   `fn new(workers: usize)` (member `init`s may read the arguments);
///   without them the set implements `Default`.
/// - **Plain fields** the snapshot ignores go in braces after that:
///   `pub struct Stats(remote: Arc<T>) { remote: Arc<T> = remote }`.
#[macro_export]
macro_rules! counter_set {
    (@atomic) => { ::std::sync::atomic::AtomicU64 };
    (@atomic $ty:ty) => { $ty };
    (@value) => { u64 };
    (@value $ty:ty) => { $ty };
    (@zero) => { ::std::sync::atomic::AtomicU64::new(0) };
    (@zero $init:expr) => { $init };
    (@get [$($doc:literal)*] $name:ident) => {
        $(#[doc = $doc])*
        pub fn $name(&self) -> u64 {
            self.$name.load(::std::sync::atomic::Ordering::Relaxed)
        }
    };
    (@get [$($doc:literal)*] $name:ident $ty:ty) => {};
    (@load $this:tt $name:ident) => { $this.$name() };
    (@load $this:tt $name:ident |$s:ident| $snap:expr) => {{
        let $s = $this;
        $snap
    }};
    (@merged sum $a:expr, $b:expr) => { $crate::counters::SumValue::plus(&$a, &$b) };
    (@merged peak $a:expr, $b:expr) => { ::std::cmp::Ord::max($a, $b) };
    (@delta sum $a:expr, $b:expr) => { $crate::counters::SumValue::since(&$a, &$b) };
    (@delta peak $a:expr, $b:expr) => { $a };
    (@ctor $Stats:ident [] { $($field:ident: $init:expr,)* }) => {
        impl ::std::default::Default for $Stats {
            fn default() -> Self {
                $Stats { $($field: $init,)* }
            }
        }
    };
    (@ctor $Stats:ident [$($arg:ident: $ty:ty),+] { $($field:ident: $init:expr,)* }) => {
        impl $Stats {
            fn new($($arg: $ty),+) -> Self {
                $Stats { $($field: $init,)* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident $(($($arg:ident: $argty:ty),+ $(,)?))?
        $({ $($(#[doc = $fdoc:literal])* $field:ident: $fty:ty = $finit:expr),+ $(,)? })?
        $(;)?

        $(#[doc = $sdoc:literal])*
        #[derive($($derive:ident),* $(,)?)]
        pub struct $Snap:ident {
            $(
                $(#[doc = $doc:literal])*
                $kind:ident $name:ident
                $(: $mty:ty = $init:expr => $vty:ty = |$s:ident| $snap:expr)?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $Stats {
            $($(#[doc = $doc])* $name: $crate::counter_set!(@atomic $($mty)?),)+
            $($($(#[doc = $fdoc])* $field: $fty,)+)?
        }

        $crate::counter_set!(@ctor $Stats [$($($arg: $argty),+)?] {
            $($name: $crate::counter_set!(@zero $($init)?),)+
            $($($field: $finit,)+)?
        });

        impl $Stats {
            $($crate::counter_set!(@get [$($doc)*] $name $($mty)?);)+

            #[doc = concat!(
                "A coherent point-in-time copy of every counter (see [`",
                stringify!($Snap),
                "`])."
            )]
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $($name: $crate::counter_set!(@load self $name $(|$s| $snap)?),)+
                }
            }
        }

        $(#[doc = $sdoc])*
        #[derive($($derive),*)]
        pub struct $Snap {
            $(
                $(#[doc = $doc])*
                #[serde(default)]
                pub $name: $crate::counter_set!(@value $($vty)?),
            )+
        }

        impl $Snap {
            /// Field-wise combination of two snapshots (e.g. across
            /// shards or endpoints): `sum` counters add, `peak` counters
            /// take the max.
            #[must_use]
            pub fn merged(&self, other: &Self) -> Self {
                $Snap {
                    $($name: $crate::counter_set!(@merged $kind self.$name, other.$name),)+
                }
            }

            /// The per-interval view since the earlier snapshot `prev`:
            /// `sum` counters become differences (saturating at 0),
            /// `peak` counters carry the later value.
            #[must_use]
            pub fn delta(&self, prev: &Self) -> Self {
                $Snap {
                    $($name: $crate::counter_set!(@delta $kind self.$name, prev.$name),)+
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use serde::{Content, Deserialize, Serialize};
    use std::sync::atomic::Ordering;

    crate::counter_set! {
        /// A test-only set.
        #[derive(Debug)]
        pub struct Probe;

        /// Snapshot of [`Probe`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct ProbeSnapshot {
            /// A running count.
            sum hits,
            /// A high-water mark.
            peak widest,
        }
    }

    fn snap(hits: u64, widest: u64) -> ProbeSnapshot {
        ProbeSnapshot { hits, widest }
    }

    #[test]
    fn snapshot_reads_every_counter() {
        let probe = Probe::default();
        probe.hits.fetch_add(2, Ordering::Relaxed);
        probe.hits.fetch_add(3, Ordering::Relaxed);
        probe.widest.fetch_max(7, Ordering::Relaxed);
        probe.widest.fetch_max(4, Ordering::Relaxed);
        assert_eq!((probe.hits(), probe.widest()), (5, 7));
        assert_eq!(probe.snapshot(), snap(5, 7));
    }

    #[test]
    fn merged_adds_sums_and_takes_the_larger_peak() {
        assert_eq!(snap(5, 7).merged(&snap(4, 9)), snap(9, 9));
        assert_eq!(snap(5, 7).merged(&snap(4, 2)), snap(9, 7));
    }

    #[test]
    fn delta_subtracts_sums_and_carries_the_later_peak() {
        assert_eq!(snap(9, 7).delta(&snap(4, 9)), snap(5, 7));
        // A counter that went backwards (a restarted peer) reads 0.
        assert_eq!(snap(3, 1).delta(&snap(4, 9)), snap(0, 1));
    }

    #[test]
    fn missing_keys_decode_as_zero() {
        let partial = Content::Map(vec![("widest".to_string(), Content::Int(3))]);
        assert_eq!(ProbeSnapshot::from_content(&partial), Ok(snap(0, 3)));
        let empty = Content::Map(Vec::new());
        assert_eq!(ProbeSnapshot::from_content(&empty), Ok(snap(0, 0)));
    }

    #[test]
    fn keys_follow_declaration_order() {
        let Content::Map(pairs) = snap(1, 2).to_content() else {
            panic!("a snapshot serializes as an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["hits", "widest"]);
    }

    #[test]
    fn vector_sums_are_element_wise() {
        use super::SumValue;
        assert_eq!(vec![1, 2].plus(&vec![10, 20, 30]), vec![11, 22, 30]);
        assert_eq!(vec![5, 1, 4].since(&vec![2, 3]), vec![3, 0, 4]);
    }
}
