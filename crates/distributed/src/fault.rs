//! Deterministic fault injection for the parallel ingest engine.
//!
//! §5 of the paper assumes "both D-T-TBS and D-R-TBS periodically
//! checkpoint … to ensure fault tolerance" — which is only worth anything
//! if the failure paths are actually exercised. A [`FaultPlan`] describes,
//! at *precise* positions in the deterministic pipeline, where to kill a
//! shard worker, kill the merger, or drop/delay a queue push. Because the
//! engine's splits, RNG substreams, and batch numbering are all
//! deterministic per `(seed, K)`, a plan names exact events — "kill the
//! worker processing shard 2's 37th batch" — and every run of the same
//! plan fails in exactly the same place. The fault-matrix suite drives
//! plans against the supervisor in [`crate::engine`] and asserts typed
//! errors, bounded time, and bit-identical recovery.
//!
//! Injection sites are checked with [`FaultPlan::fire_kill_worker`] &
//! friends from inside the engine; an engine built without a plan (the
//! only way production code builds one) pays a single always-false branch
//! per *batch group*, nothing per item. Each fault fires at most once —
//! after supervised recovery replays the stream past the injection point,
//! the plan stays quiet so tests converge.
//!
//! Checkpoint-blob corruption ([`bit_flip`], [`truncate`]) is data-level,
//! not position-level, so those helpers operate on byte buffers and are
//! paired with the CRC framing in `tbs_core::checkpoint`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Panic message used by every injected kill. The engine's supervisor
/// treats worker panics carrying this marker as injected (tests silence
/// them via [`silence_injected_panics`]); real bugs keep their own
/// messages and still propagate loudly.
pub const INJECTED_PANIC: &str = "tbs-fault: injected failure";

/// One scheduled fault at a precise pipeline position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic the owner thread of logical shard `shard` just before it
    /// processes the shard's `batch_index`-th data batch (0-based) — a
    /// position in the shard's deterministic stream.
    KillWorker {
        /// Logical shard whose stream carries the fault.
        shard: usize,
        /// 0-based index into that shard's batch sequence.
        batch_index: u64,
    },
    /// Panic the merger thread just before it processes its
    /// `msg_index`-th message (0-based, counted per merger incarnation).
    KillMerger {
        /// 0-based message ordinal.
        msg_index: u64,
    },
    /// Silently drop the driver→shard push of `shard`'s chunk of global
    /// batch `batch_no` (1-based, the engine's `batches_ingested` after
    /// the ingest). Models a lost enqueue; the supervisor must restore
    /// the chunk from its replay log or fail typed.
    DropPush {
        /// Destination shard of the dropped chunk.
        shard: usize,
        /// 1-based global batch number.
        batch_no: u64,
    },
    /// Stall the driver for `millis` before pushing `shard`'s chunk of
    /// global batch `batch_no` — a hung/slow queue, exercising timeout
    /// paths without killing anything.
    DelayPush {
        /// Destination shard of the delayed chunk.
        shard: usize,
        /// 1-based global batch number.
        batch_no: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Tear down serving connection `conn` (0-based accept order) just
    /// before the server writes its `frame`-th response frame (0-based) —
    /// the peer sees a clean EOF/reset at an exact frame boundary.
    DropConnection {
        /// 0-based connection ordinal in accept order.
        conn: u64,
        /// 0-based response-frame ordinal on that connection.
        frame: u64,
    },
    /// Leave serving connection `conn` half-open before its `frame`-th
    /// response frame: the socket stays up but the server goes silent,
    /// exercising client read-timeout paths.
    HalfOpenSocket {
        /// 0-based connection ordinal in accept order.
        conn: u64,
        /// 0-based response-frame ordinal on that connection.
        frame: u64,
    },
}

#[derive(Debug)]
struct Entry {
    site: FaultSite,
    fired: AtomicBool,
}

/// A deterministic schedule of injected faults (see module docs).
///
/// Build with the chaining constructors, wrap in an `Arc`, and hand to
/// `ParallelIngestEngine::with_fault_plan`. Plans are write-once: every
/// site fires at most one time.
#[derive(Debug, Default)]
pub struct FaultPlan {
    entries: Vec<Entry>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a [`FaultSite::KillWorker`].
    pub fn kill_worker(mut self, shard: usize, batch_index: u64) -> Self {
        self.entries.push(Entry {
            site: FaultSite::KillWorker { shard, batch_index },
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Schedule a [`FaultSite::KillMerger`].
    pub fn kill_merger(mut self, msg_index: u64) -> Self {
        self.entries.push(Entry {
            site: FaultSite::KillMerger { msg_index },
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Schedule a [`FaultSite::DropPush`].
    pub fn drop_push(mut self, shard: usize, batch_no: u64) -> Self {
        self.entries.push(Entry {
            site: FaultSite::DropPush { shard, batch_no },
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Schedule a [`FaultSite::DelayPush`].
    pub fn delay_push(mut self, shard: usize, batch_no: u64, millis: u64) -> Self {
        self.entries.push(Entry {
            site: FaultSite::DelayPush {
                shard,
                batch_no,
                millis,
            },
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Schedule a [`FaultSite::DropConnection`].
    pub fn drop_connection(mut self, conn: u64, frame: u64) -> Self {
        self.entries.push(Entry {
            site: FaultSite::DropConnection { conn, frame },
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Schedule a [`FaultSite::HalfOpenSocket`].
    pub fn half_open_socket(mut self, conn: u64, frame: u64) -> Self {
        self.entries.push(Entry {
            site: FaultSite::HalfOpenSocket { conn, frame },
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Number of scheduled faults that have fired so far.
    pub fn fired_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.fired.load(Ordering::Relaxed))
            .count()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn claim(&self, want: impl Fn(&FaultSite) -> bool) -> Option<FaultSite> {
        for e in &self.entries {
            if want(&e.site)
                && e.fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return Some(e.site);
            }
        }
        None
    }

    /// Engine hook: called by whichever thread is about to process
    /// logical shard `shard`'s `batch_index`-th data batch. Panics with
    /// [`INJECTED_PANIC`] if a matching [`FaultSite::KillWorker`] is
    /// scheduled and has not fired yet.
    pub fn fire_kill_worker(&self, shard: usize, batch_index: u64) {
        if self
            .claim(|s| matches!(s, FaultSite::KillWorker { shard: sh, batch_index: b } if *sh == shard && *b == batch_index))
            .is_some()
        {
            panic!("{INJECTED_PANIC} (worker at shard {shard}, batch {batch_index})");
        }
    }

    /// Engine hook: called by the merger before its `msg_index`-th
    /// message. Panics with [`INJECTED_PANIC`] on a scheduled
    /// [`FaultSite::KillMerger`].
    pub fn fire_kill_merger(&self, msg_index: u64) {
        if self
            .claim(|s| matches!(s, FaultSite::KillMerger { msg_index: m } if *m == msg_index))
            .is_some()
        {
            panic!("{INJECTED_PANIC} (merger at message {msg_index})");
        }
    }

    /// Engine hook: what the driver should do with the push of `shard`'s
    /// chunk of global batch `batch_no`.
    pub fn push_action(&self, shard: usize, batch_no: u64) -> PushAction {
        match self.claim(|s| match s {
            FaultSite::DropPush {
                shard: sh,
                batch_no: b,
            }
            | FaultSite::DelayPush {
                shard: sh,
                batch_no: b,
                ..
            } => *sh == shard && *b == batch_no,
            _ => false,
        }) {
            Some(FaultSite::DropPush { .. }) => PushAction::Drop,
            Some(FaultSite::DelayPush { millis, .. }) => {
                PushAction::Delay(Duration::from_millis(millis))
            }
            _ => PushAction::Deliver,
        }
    }
}

/// Verdict of [`FaultPlan::push_action`] for one driver→shard push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushAction {
    /// Push normally.
    Deliver,
    /// Pretend the push was lost: do not enqueue the chunk.
    Drop,
    /// Sleep, then push normally.
    Delay(Duration),
}

impl FaultPlan {
    /// Serving-tier hook: what the server should do with response frame
    /// `frame` (0-based) on connection `conn` (0-based accept order).
    /// Called at exact frame boundaries — after the request was handled,
    /// before its reply frame hits the socket.
    pub fn wire_action(&self, conn: u64, frame: u64) -> WireAction {
        match self.claim(|s| match s {
            FaultSite::DropConnection { conn: c, frame: f }
            | FaultSite::HalfOpenSocket { conn: c, frame: f } => *c == conn && *f == frame,
            _ => false,
        }) {
            Some(FaultSite::DropConnection { .. }) => WireAction::DropConnection,
            Some(FaultSite::HalfOpenSocket { .. }) => WireAction::HalfOpen,
            _ => WireAction::Deliver,
        }
    }
}

/// Verdict of [`FaultPlan::wire_action`] for one server response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAction {
    /// Write the frame normally.
    Deliver,
    /// Close the connection instead of writing the frame.
    DropConnection,
    /// Keep the socket open but never write this frame (or anything
    /// after it) — a half-open peer.
    HalfOpen,
}

/// Whether a worker-thread panic payload is an injected kill (carries
/// [`INJECTED_PANIC`]). The engine's drop path uses this to avoid
/// re-propagating panics that the fault harness caused on purpose.
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.contains(INJECTED_PANIC))
        .or_else(|| {
            payload
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC))
        })
        .unwrap_or(false)
}

/// Install a process-wide panic hook that suppresses the default
/// stderr backtrace spew for injected panics only; everything else
/// still prints through the previously installed hook. Idempotent
/// enough for tests (each call chains, but injected panics stay
/// silent). Call once at the top of a fault test binary.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !is_injected_panic(info.payload()) {
                previous(info);
            }
        }));
    });
}

/// Flip bit `bit` (counted from the buffer's first byte, LSB first) of a
/// copy of `blob` — torn-checkpoint material for the CRC frame to catch.
pub fn bit_flip(blob: &[u8], bit: usize) -> Vec<u8> {
    let mut out = blob.to_vec();
    if !out.is_empty() {
        let byte = (bit / 8) % out.len();
        out[byte] ^= 1 << (bit % 8);
    }
    out
}

/// A copy of `blob` truncated to `len` bytes (a torn write that lost its
/// tail).
pub fn truncate(blob: &[u8], len: usize) -> Vec<u8> {
    blob[..len.min(blob.len())].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once() {
        let plan = FaultPlan::new().drop_push(1, 10).delay_push(0, 3, 5);
        assert_eq!(plan.push_action(1, 10), PushAction::Drop);
        assert_eq!(plan.push_action(1, 10), PushAction::Deliver);
        assert_eq!(
            plan.push_action(0, 3),
            PushAction::Delay(Duration::from_millis(5))
        );
        assert_eq!(plan.push_action(0, 3), PushAction::Deliver);
        assert_eq!(plan.fired_count(), 2);
    }

    #[test]
    fn unmatched_positions_do_nothing() {
        let plan = FaultPlan::new().kill_worker(2, 7).kill_merger(4);
        plan.fire_kill_worker(2, 6);
        plan.fire_kill_worker(1, 7);
        plan.fire_kill_merger(3);
        assert_eq!(plan.fired_count(), 0);
    }

    #[test]
    fn kill_worker_panics_with_marker() {
        let plan = FaultPlan::new().kill_worker(0, 0);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.fire_kill_worker(0, 0)))
                .unwrap_err();
        assert!(is_injected_panic(err.as_ref()));
        // One-shot: a second pass at the same position is quiet.
        plan.fire_kill_worker(0, 0);
        assert_eq!(plan.fired_count(), 1);
    }

    #[test]
    fn wire_faults_fire_exactly_once_at_exact_frames() {
        let plan = FaultPlan::new()
            .drop_connection(0, 2)
            .half_open_socket(1, 0);
        // Wrong connection or frame: nothing fires.
        assert_eq!(plan.wire_action(0, 1), WireAction::Deliver);
        assert_eq!(plan.wire_action(1, 2), WireAction::Deliver);
        assert_eq!(plan.fired_count(), 0);
        // Exact positions fire once, then stay quiet.
        assert_eq!(plan.wire_action(0, 2), WireAction::DropConnection);
        assert_eq!(plan.wire_action(0, 2), WireAction::Deliver);
        assert_eq!(plan.wire_action(1, 0), WireAction::HalfOpen);
        assert_eq!(plan.wire_action(1, 0), WireAction::Deliver);
        assert_eq!(plan.fired_count(), 2);
    }

    #[test]
    fn blob_corruption_helpers() {
        let blob = vec![0u8; 8];
        let flipped = bit_flip(&blob, 17);
        assert_eq!(flipped[2], 0b10);
        assert_eq!(truncate(&blob, 3).len(), 3);
        assert_eq!(truncate(&blob, 99).len(), 8);
    }
}
