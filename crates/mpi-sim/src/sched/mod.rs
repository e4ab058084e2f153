//! Event-driven virtual-time scheduler: ranks as fibers on one worker.
//!
//! This is the only runtime. Every rank is a cooperatively-yielding
//! *fiber* (see the `fiber` submodule), and one worker thread per world
//! runs them one at a time, so a 10,000-rank world costs 10,000
//! lazily-committed stacks and one thread. Blocking points — receive
//! waits, barrier entry, send backpressure — park the fiber; delivery of
//! a message (or a barrier release) wakes it.
//!
//! ## Ready ordering and determinism
//!
//! Runnable tasks sit in one heap ordered by `(virtual_time, seq)` where
//! `seq` is a monotonic enqueue counter: the task with the earliest
//! virtual clock runs first, FIFO among equals — a task woken at an
//! instant runs after those already queued there, and a fresh world,
//! enqueued in rank order at time zero, starts in rank order. A fiber runs
//! until it parks or returns and nothing runs beside it, so which fiber
//! runs next, and with it the order in which every message lands in every
//! inbox, follows from the program, its seed and the heap alone: a world
//! replays byte for byte on any machine. Worlds share nothing, so
//! parallelism belongs at the world level, one world per thread.
//!
//! ## Structural deadlock detection
//!
//! The scheduler *knows* when a world is wedged: every unfinished task is
//! ready, running or parked, and only the worker runs tasks, so when the
//! worker finds the heap run dry before every task has finished, every
//! live rank is parked with nothing left to wake it — a deadlock, by
//! construction, with zero false positives and zero polling. The verdict
//! (ranks, operations, virtual instant) is stamped once, sticky, and every
//! parked task is woken to unwind: receives return a structured
//! [`Deadlock`](crate::MpiError::Deadlock) error, barriers withdraw, and
//! backpressured senders proceed — so the world always drains and the
//! process never hangs.
//!
//! A [`RankCtx::standalone`](crate::RankCtx::standalone) context is the
//! same machinery with nothing in it — a scheduler of zero tasks that is
//! never run. Its one rank is the caller's own thread, which is no task of
//! the scheduler's: it cannot be suspended and nothing could wake it, so
//! its park *is* the verdict, stamped on the spot.

mod fiber;
mod router;

pub(crate) use router::{Examined, Router};
pub use router::{INBOX_HWM, PAYLOAD_POOL_BYTES};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::OnceLock;

use fiber::{Entry, Fiber, Resumed};
use gpu_sim::SimTime;
use tempi_trace::sync::Mutex;

/// The structural deadlock verdict: which ranks were parked with nothing
/// left to wake them, on what, and when (in virtual time).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DeadlockInfo {
    /// World ranks parked at the verdict, in rank order.
    pub(crate) ranks: Vec<usize>,
    /// Each stuck rank's pending operation, parallel to `ranks`.
    pub(crate) ops: Vec<String>,
    /// Virtual instant of the verdict: the latest parked clock plus
    /// [`WorldConfig::deadlock_budget`](crate::WorldConfig::deadlock_budget).
    pub(crate) at: SimTime,
}

/// What a parked task is blocked on. Parks are frequent and verdicts are
/// not, so a park stores this `Copy` value and only a deadlock verdict
/// renders it (into [`DeadlockInfo::ops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkOp {
    /// A blocking match of `(src, tag)`; `None` is a wildcard.
    Recv {
        src: Option<usize>,
        tag: Option<i32>,
    },
    /// `MPI_Probe` of `(src, tag)`.
    Probe {
        src: Option<usize>,
        tag: Option<i32>,
    },
    /// The world barrier.
    Barrier,
    /// A send held back by `dest`'s full inbox.
    Backpressure { dest: usize },
    /// One wait step of the agreement protocol.
    Agree { epoch: u32 },
}

/// `Some(v)` as `v`, a wildcard as `*`.
fn or_star<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "*".to_string(), |v| v.to_string())
}

impl fmt::Display for ParkOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ParkOp::Recv { src, tag } => {
                write!(f, "recv(src={}, tag={})", or_star(src), or_star(tag))
            }
            ParkOp::Probe { src, tag } => {
                write!(f, "probe(src={}, tag={})", or_star(src), or_star(tag))
            }
            ParkOp::Barrier => f.write_str("barrier"),
            ParkOp::Backpressure { dest } => write!(f, "send backpressure(dest={dest})"),
            ParkOp::Agree { epoch } => write!(f, "agree(epoch={epoch})"),
        }
    }
}

/// Every fiber's stack, guard page included, sized by a rule: at least 2.5
/// times the deepest one measured in a debug test run (28.1 KiB, in
/// `tempi-core`'s unit tests) and 10 times the deepest in a release
/// workload (7.5 KiB, `halo_scale` traced), with nothing an input can make
/// grow — no walk over a datatype recurses. `tests/deep_types.rs` checks
/// the debug half on every test run: the deepest bodies it knows must run
/// on a rank that has spent all but `STACK_KIB / 2.5` of its stack.
/// Lazily committed, so a fiber pays only for the pages it touches; an
/// overflow faults on the guard page. Public for that test; not a knob.
pub const STACK_KIB: usize = 80;

struct Task {
    /// The task's virtual clock when it parked (its ready-heap key once
    /// woken, and the verdict's `at`) and what it is blocked on; `None`
    /// while it is ready, running or finished.
    parked: Mutex<Option<(SimTime, ParkOp)>>,
    /// Touched only by the worker and by the task itself while the worker
    /// runs it: a task sits in the ready heap at most once, and never
    /// while it runs.
    fiber: Fiber,
}

struct RunState {
    /// Min-heap of runnable tasks keyed `(virtual_time_ps, seq)`.
    ready: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Monotonic enqueue counter: FIFO among equal virtual times.
    seq: u64,
    finished: usize,
}

impl RunState {
    /// Make `rank` runnable at virtual time `vtime_ps`, behind everything
    /// already queued for that instant.
    fn enqueue(&mut self, vtime_ps: u64, rank: usize) {
        self.ready.push(Reverse((vtime_ps, self.seq, rank)));
        self.seq += 1;
    }
}

/// The scheduler shared by every rank of one world run.
///
/// Its state stays behind locks although one fiber runs at a time: the
/// `baton` fiber backend runs each fiber on an OS thread of its own, so
/// the scheduler must be `Sync`, and one at a time the locks are never
/// contended.
pub(crate) struct SchedCore {
    tasks: Vec<Task>,
    state: Mutex<RunState>,
    /// Stamped at most once; sticky.
    verdict: OnceLock<DeadlockInfo>,
    /// Virtual-time offset folded into the verdict's `at` stamp.
    budget: SimTime,
}

impl SchedCore {
    /// A scheduler for a `total`-rank world; [`SchedCore::run`] drives it.
    /// `total == 0` is the standalone scheduler (see module docs): it
    /// allocates nothing and is never run.
    pub(crate) fn new(total: usize, budget: SimTime) -> SchedCore {
        SchedCore {
            tasks: (0..total)
                .map(|_| Task {
                    parked: Mutex::new(None),
                    fiber: Fiber::new(),
                })
                .collect(),
            state: Mutex::new(RunState {
                ready: BinaryHeap::with_capacity(total),
                seq: 0,
                finished: 0,
            }),
            verdict: OnceLock::new(),
            budget,
        }
    }

    /// Run `bodies` — one per rank, in rank order — as fibers on one
    /// worker thread, and return once every one of them has returned.
    ///
    /// The bodies may borrow from the caller's frame (`'env`): this is the
    /// scoped-spawn entry point, and the loop below is what upholds it.
    pub(crate) fn run<'env>(&self, bodies: impl Iterator<Item = Box<dyn FnOnce() + Send + 'env>>) {
        let mut armed = 0;
        for (rank, (task, body)) in self.tasks.iter().zip(bodies).enumerate() {
            // SAFETY: a fiber stores its body as `'static`, but the body is
            // consumed (called by value, its captures dropped) by the time
            // its fiber finishes; the worker only leaves `worker_loop` once
            // *every* fiber has finished — a deadlock verdict wakes every
            // parked fiber so blocking points unwind and bodies return —
            // and the thread scope below only ends once the worker has
            // left. So no body, and nothing borrowed by one, outlives this
            // call.
            let body =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Entry>(body) };
            // SAFETY: the worker does not exist yet, so nothing else
            // touches the fiber; `tasks` is never resized, so the fiber
            // never moves.
            unsafe { task.fiber.arm(STACK_KIB * 1024, body) };
            armed += 1;
            // In rank order, so a fresh world starts in rank order.
            self.state.lock().enqueue(0, rank);
        }
        // A task given no body has nothing to run: count it finished, so
        // the loop's exit condition (and the argument above) still holds.
        self.state.lock().finished = self.tasks.len() - armed;
        // A thread of its own, not the caller's: run on the caller's
        // thread, the 4,096-rank halo's resident set more than doubled.
        std::thread::scope(|scope| {
            scope.spawn(|| self.worker_loop());
        });
    }

    /// The worker's life: pop the earliest runnable task, run its fiber
    /// until it parks or finishes, repeat. A heap that runs dry before
    /// every task has finished is a structural deadlock (see module docs).
    fn worker_loop(&self) {
        loop {
            let mut s = self.state.lock();
            if let Some(Reverse((_, _, rank))) = s.ready.pop() {
                drop(s);
                // SAFETY: `run` armed the fiber, and this worker is its
                // only runner. It is not running and has not finished: a
                // task is in the heap at most once (a wake enqueues only a
                // parked task, and clears its park), never while it runs,
                // and never once finished (a finished task parks no more).
                if unsafe { self.tasks[rank].fiber.resume() } == Resumed::Finished {
                    self.state.lock().finished += 1;
                }
            } else if s.finished == self.tasks.len() {
                return;
            } else {
                drop(s);
                self.declare_deadlock();
            }
        }
    }

    /// Fiber-side: park `rank` on `op` with its virtual clock at `now`,
    /// and return when woken. Call it after publishing the wake condition
    /// (e.g. an inbox's "receiver parked" flag) and with every lock
    /// released: nothing else runs until this fiber switches out, so no
    /// wake can come in between.
    pub(crate) fn park(&self, rank: usize, now: SimTime, op: ParkOp) {
        let Some(task) = self.tasks.get(rank) else {
            // A standalone caller: nothing can wake it, so this is final.
            self.condemn(vec![rank], vec![op.to_string()], now);
            return;
        };
        *task.parked.lock() = Some((now, op));
        // SAFETY: only rank `rank`'s own body reaches its blocking points,
        // so this runs on that rank's fiber.
        unsafe { task.fiber.suspend() };
    }

    /// Make `rank` runnable again (message delivered, barrier released,
    /// inbox drained, verdict declared). Safe to call redundantly: a wake
    /// of a task that is not parked is a no-op.
    pub(crate) fn wake(&self, rank: usize) {
        let Some(task) = self.tasks.get(rank) else {
            return; // a standalone caller never parks
        };
        let parked = task.parked.lock().take();
        if let Some((clock, _)) = parked {
            self.state.lock().enqueue(clock.as_ps(), rank);
        }
    }

    /// The sticky deadlock verdict, if one was declared. One atomic load
    /// on the happy path.
    pub(crate) fn verdict(&self) -> Option<&DeadlockInfo> {
        self.verdict.get()
    }

    /// Stamp the verdict (first one wins; it is sticky).
    fn condemn(&self, ranks: Vec<usize>, ops: Vec<String>, latest: SimTime) {
        let _ = self.verdict.set(DeadlockInfo {
            ranks,
            ops,
            at: latest + self.budget,
        });
    }

    /// Declare the world deadlocked: stamp the verdict from the parked
    /// tasks' descriptions and clocks, then wake everything so blocking
    /// points unwind and the run drains.
    fn declare_deadlock(&self) {
        let mut ranks = Vec::new();
        let mut ops = Vec::new();
        let mut latest = SimTime::ZERO;
        for (rank, task) in self.tasks.iter().enumerate() {
            if let Some((clock, op)) = *task.parked.lock() {
                ranks.push(rank);
                ops.push(op.to_string());
                latest = latest.max(clock);
            }
        }
        self.condemn(ranks, ops, latest);
        for rank in 0..self.tasks.len() {
            self.wake(rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    const RECV_1_7: ParkOp = ParkOp::Recv {
        src: Some(1),
        tag: Some(7),
    };

    #[test]
    fn park_ops_render_the_verdict_strings() {
        let any = ParkOp::Recv {
            src: None,
            tag: None,
        };
        let probe = ParkOp::Probe {
            src: Some(1),
            tag: None,
        };
        let rendered = [
            (RECV_1_7, "recv(src=1, tag=7)"),
            (any, "recv(src=*, tag=*)"),
            (probe, "probe(src=1, tag=*)"),
            (ParkOp::Barrier, "barrier"),
            (
                ParkOp::Backpressure { dest: 9 },
                "send backpressure(dest=9)",
            ),
            (ParkOp::Agree { epoch: 2 }, "agree(epoch=2)"),
        ];
        for (op, want) in rendered {
            assert_eq!(op.to_string(), want);
        }
    }

    #[test]
    fn verdict_names_every_parked_rank_and_is_stamped_latest_clock_plus_budget() {
        let budget = SimTime::from_ms(100);
        let core = SchedCore::new(3, budget);
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| core.park(0, SimTime::from_us(3), RECV_1_7)),
            Box::new(|| core.park(1, SimTime::from_us(5), ParkOp::Barrier)),
            Box::new(|| {}), // returns at once: done, not stuck
        ];
        core.run(bodies.into_iter());
        let v = core.verdict().expect("two ranks parked for good");
        assert_eq!(v.ranks, vec![0, 1]);
        assert_eq!(v.ops, vec!["recv(src=1, tag=7)", "barrier"]);
        assert_eq!(v.at, SimTime::from_us(5) + budget);
    }

    #[test]
    fn a_world_whose_ranks_all_return_has_no_verdict_and_bodies_may_borrow() {
        let hits = AtomicU64::new(0);
        let core = SchedCore::new(4, SimTime::ZERO);
        core.run((0..4usize).map(|rank| -> Box<dyn FnOnce() + Send + '_> {
            let hits = &hits;
            Box::new(move || {
                hits.fetch_add(rank as u64 + 1, Ordering::SeqCst);
            })
        }));
        assert_eq!(hits.load(Ordering::SeqCst), 1 + 2 + 3 + 4);
        assert_eq!(core.verdict(), None);
    }

    #[test]
    fn a_standalone_park_is_the_verdict_and_returns_at_once() {
        let core = SchedCore::new(0, SimTime::from_ms(1));
        assert_eq!(core.verdict(), None);
        core.park(0, SimTime::from_us(2), RECV_1_7);
        let v = core
            .verdict()
            .expect("nothing can wake a standalone caller");
        assert_eq!(v.ranks, vec![0]);
        assert_eq!(v.ops, vec!["recv(src=1, tag=7)"]);
        assert_eq!(v.at, SimTime::from_us(2) + SimTime::from_ms(1));
        let first = v.clone();
        core.park(0, SimTime::from_us(9), ParkOp::Barrier);
        assert_eq!(core.verdict(), Some(&first), "the verdict is sticky");
    }
}
