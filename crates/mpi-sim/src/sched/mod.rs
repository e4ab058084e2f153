//! Event-driven virtual-time scheduler: ranks as fibers on an M-worker pool.
//!
//! This is the only runtime. Every rank is a cooperatively-yielding
//! *fiber* (see the `fiber` submodule) multiplexed onto M worker threads
//! (M ≈ cores), so a 10,000-rank world costs 10,000 lazily-committed
//! stacks and M threads. Blocking points — receive waits, barrier entry,
//! send backpressure — park the fiber; delivery of a message (or a barrier
//! release) wakes it.
//!
//! ## Ready ordering and determinism
//!
//! Runnable tasks sit in one global heap ordered by `(virtual_time, seq)`
//! where `seq` is a global monotonic enqueue counter: the task with the
//! earliest virtual clock runs first, FIFO among equals — a task woken at
//! an instant runs after those already queued there, and a fresh world,
//! enqueued in rank order at time zero, starts in rank order. Results are
//! *byte-identical* across M because all timing is virtual and
//! Lamport-composed at receives, matching is deterministic, and per-pair
//! delivery order is FIFO; the heap order affects wall-clock interleaving
//! only.
//!
//! ## Structural deadlock detection
//!
//! The scheduler *knows* when a world is wedged: every unfinished task is
//! ready, running, or parked, so when a worker finds the ready heap empty
//! with nothing running and not everything finished, every live rank is
//! parked with no wake in flight — a deadlock, by construction, with zero
//! false positives and zero polling. The verdict (ranks, operations,
//! virtual instant) is stamped once, sticky, and every parked task is
//! woken to unwind: receives return a structured
//! [`Deadlock`](crate::MpiError::Deadlock) error, barriers withdraw, and
//! backpressured senders proceed — so the world always drains and the
//! process never hangs.
//!
//! A [`RankCtx::standalone`](crate::RankCtx::standalone) context is the
//! same machinery with nothing in it — a scheduler of zero tasks and zero
//! workers. Its one rank is the caller's own thread, which is no task of
//! the scheduler's: it cannot be suspended and nothing could wake it, so
//! its park *is* the verdict, stamped on the spot.

mod fiber;
mod router;

pub use router::PAYLOAD_POOL_BYTES;
pub(crate) use router::{Router, DEFAULT_INBOX_HWM};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::OnceLock;

use fiber::{Entry, Fiber, Resumed};
use gpu_sim::SimTime;
use tempi_trace::sync::{Condvar, Mutex};

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
    Agree { epoch: u64 },
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
            ParkOp::Probe { src, tag } => write!(f, "probe(src={src:?}, tag={tag:?})"),
            ParkOp::Barrier => f.write_str("barrier"),
            ParkOp::Backpressure { dest } => write!(f, "send backpressure(dest={dest})"),
            ParkOp::Agree { epoch } => write!(f, "agree(epoch={epoch})"),
        }
    }
}

/// Every fiber's stack, guard page included: five times the deepest one
/// measured (49 KiB in a debug test of recovery; under 8 KiB in
/// release workloads). Lazily committed, so a fiber pays only for the
/// pages it touches; an overflow faults on the guard page.
const STACK_KIB: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// In the ready heap (or being pushed to it).
    Ready,
    /// Executing on some worker.
    Running,
    /// Announced intent to park; its worker has not yet completed the
    /// handoff (the fiber may still be switching out).
    Parking,
    /// Parked; only a [`SchedCore::wake`] can make it runnable again.
    Parked,
    /// Its body returned; its stack has been freed.
    Finished,
}

struct TaskInner {
    state: TaskState,
    /// A wake arrived while the task was on a worker: consume it at the
    /// next park-handoff instead of losing it.
    wake_pending: bool,
    /// What the task is blocked on (rendered only into a deadlock
    /// verdict's `ops`).
    park_desc: Option<ParkOp>,
    /// The task's virtual clock when it last parked: keys its
    /// next ready-heap entry and feeds the verdict's `at`.
    clock: SimTime,
}

struct Task {
    inner: Mutex<TaskInner>,
    /// Touched only by whichever thread currently *is* the task or runs
    /// it; the [`TaskState`] machine makes those mutually exclusive.
    fiber: Fiber,
}

struct RunState {
    /// Min-heap of runnable tasks keyed `(virtual_time_ps, seq)`.
    ready: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Monotonic enqueue counter: FIFO among equal virtual times.
    seq: u64,
    /// Tasks currently executing on workers (includes `Parking` tasks
    /// whose handoff is not yet complete — crucial: `running == 0`
    /// implies every park has fully settled and nobody can be mid-wake).
    running: usize,
    parked: usize,
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

/// The scheduler shared by every rank and worker of one world run.
pub(crate) struct SchedCore {
    tasks: Vec<Task>,
    state: Mutex<RunState>,
    cv: Condvar,
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
                    inner: Mutex::new(TaskInner {
                        state: TaskState::Ready,
                        wake_pending: false,
                        park_desc: None,
                        clock: SimTime::ZERO,
                    }),
                    fiber: Fiber::new(),
                })
                .collect(),
            state: Mutex::new(RunState {
                ready: BinaryHeap::with_capacity(total),
                seq: 0,
                running: 0,
                parked: 0,
                finished: 0,
            }),
            cv: Condvar::new(),
            verdict: OnceLock::new(),
            budget,
        }
    }

    /// Run `bodies` — one per rank, in rank order — as fibers on `workers`
    /// threads, and return once every one of them has returned.
    ///
    /// The bodies may borrow from the caller's frame (`'env`): this is the
    /// scoped-spawn entry point, and the loop below is what upholds it.
    pub(crate) fn run<'env>(
        &self,
        workers: usize,
        bodies: impl Iterator<Item = Box<dyn FnOnce() + Send + 'env>>,
    ) {
        let mut armed = 0;
        for (rank, (task, body)) in self.tasks.iter().zip(bodies).enumerate() {
            // SAFETY: a fiber stores its body as `'static`, but the body is
            // consumed (called by value, its captures dropped) by the time
            // its task is `Finished`; workers only leave `worker_loop` once
            // *every* task is `Finished` — a deadlock verdict wakes every
            // parked fiber so blocking points unwind and bodies return —
            // and the thread scope below only ends once every worker has
            // left. So no body, and nothing borrowed by one, outlives this
            // call.
            let body =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Entry>(body) };
            // SAFETY: no worker exists yet, so nothing else touches the
            // fiber; `tasks` is never resized, so the fiber never moves.
            unsafe { task.fiber.arm(STACK_KIB * 1024, body) };
            armed += 1;
            // In rank order, so a fresh world starts in rank order.
            self.state.lock().enqueue(0, rank);
        }
        // A task given no body has nothing to run: count it finished, so
        // the loop's exit condition (and the argument above) still holds.
        self.state.lock().finished = self.tasks.len() - armed;
        std::thread::scope(|scope| {
            for _ in 0..workers.max(1) {
                scope.spawn(|| self.worker_loop());
            }
        });
    }

    /// One worker's life: pop the earliest runnable task, run its fiber
    /// until it parks or finishes, repeat. When the heap runs dry
    /// with nothing running and tasks still unfinished, the world is
    /// structurally deadlocked (see module docs).
    fn worker_loop(&self) {
        loop {
            let rank = {
                let mut s = self.state.lock();
                loop {
                    if let Some(Reverse((_, _, r))) = s.ready.pop() {
                        s.running += 1;
                        break r;
                    }
                    if s.finished == self.tasks.len() {
                        return;
                    }
                    if s.running == 0 {
                        drop(s);
                        self.declare_deadlock();
                        s = self.state.lock();
                        continue;
                    }
                    self.cv.wait(&mut s);
                }
            };
            self.run_task(rank);
        }
    }

    /// Resume `rank`'s fiber and complete whatever transition it exits
    /// with.
    fn run_task(&self, rank: usize) {
        let task = &self.tasks[rank];
        {
            let mut inner = task.inner.lock();
            debug_assert_eq!(inner.state, TaskState::Ready);
            inner.state = TaskState::Running;
        }
        // SAFETY: `run` armed the fiber; popping it from the ready heap
        // made this worker its only runner until the transition below
        // re-publishes it, and a `Finished` task is never re-enqueued.
        if unsafe { task.fiber.resume() } == Resumed::Finished {
            task.inner.lock().state = TaskState::Finished;
            let mut s = self.state.lock();
            s.running -= 1;
            s.finished += 1;
            let all_done = s.finished == self.tasks.len();
            drop(s);
            if all_done {
                self.cv.notify_all();
            }
            return;
        }
        let mut inner = task.inner.lock();
        let vtime = inner.clock.as_ps();
        // Complete the Parking -> Parked handoff. A wake that raced in
        // while the fiber was switching out left `wake_pending`; honor it
        // by re-enqueueing instead of parking — this is what makes a
        // deliver-vs-park race lose no wakeups and never run one fiber on
        // two workers.
        if inner.state == TaskState::Parking && !inner.wake_pending {
            inner.state = TaskState::Parked;
            // Count the park before it becomes visible: a wake that sees
            // `Parked` decrements `parked`, and if it got in ahead of the
            // increment the counter would underflow (a panic in debug
            // builds that leaves the woken task out of the ready heap).
            let mut s = self.state.lock();
            drop(inner);
            s.running -= 1;
            s.parked += 1;
            return;
        }
        debug_assert_eq!(inner.state, TaskState::Parking);
        inner.wake_pending = false;
        inner.state = TaskState::Ready;
        drop(inner);
        let mut s = self.state.lock();
        s.running -= 1;
        s.enqueue(vtime, rank);
        drop(s);
        self.cv.notify_one();
    }

    /// Fiber-side: announce intent to park on `op`, with the caller's
    /// virtual clock at `now`. The caller then publishes its wake
    /// condition (e.g. an inbox "receiver parked" flag) and calls
    /// [`SchedCore::park_switch`].
    pub(crate) fn begin_park(&self, rank: usize, now: SimTime, op: ParkOp) {
        let Some(task) = self.tasks.get(rank) else {
            // A standalone caller: nothing can wake it, so this is final.
            self.condemn(vec![rank], vec![op.to_string()], now);
            return;
        };
        let mut inner = task.inner.lock();
        debug_assert!(matches!(
            inner.state,
            TaskState::Running | TaskState::Parking
        ));
        inner.state = TaskState::Parking;
        inner.park_desc = Some(op);
        inner.clock = now;
    }

    /// Fiber-side: hand control to the worker; returns when woken.
    pub(crate) fn park_switch(&self, rank: usize) {
        if let Some(task) = self.tasks.get(rank) {
            // SAFETY: only rank `rank`'s own body reaches its blocking
            // points, so this runs on that rank's fiber.
            unsafe { task.fiber.suspend() };
        }
    }

    /// Make `rank` runnable again (message delivered, barrier released,
    /// inbox drained, verdict declared). Safe to call redundantly and
    /// from any state: a wake racing a park is latched via
    /// `wake_pending`, a wake of a ready/finished task is a no-op.
    pub(crate) fn wake(&self, rank: usize) {
        let Some(task) = self.tasks.get(rank) else {
            return; // a standalone caller never parks
        };
        let mut inner = task.inner.lock();
        match inner.state {
            TaskState::Parked => {
                inner.state = TaskState::Ready;
                let vtime = inner.clock.as_ps();
                drop(inner);
                let mut s = self.state.lock();
                s.parked -= 1;
                s.enqueue(vtime, rank);
                drop(s);
                self.cv.notify_one();
            }
            TaskState::Parking | TaskState::Running => {
                inner.wake_pending = true;
            }
            TaskState::Ready | TaskState::Finished => {}
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
    /// points unwind and the run drains. Called only when `running == 0`
    /// and the ready heap is empty, so the parked set is stable.
    fn declare_deadlock(&self) {
        let mut ranks = Vec::new();
        let mut ops = Vec::new();
        let mut latest = SimTime::ZERO;
        for (rank, task) in self.tasks.iter().enumerate() {
            let inner = task.inner.lock();
            if inner.state == TaskState::Parked {
                ranks.push(rank);
                ops.push(
                    inner
                        .park_desc
                        .map_or_else(|| "blocked".to_string(), |op| op.to_string()),
                );
                latest = latest.max(inner.clock);
            }
        }
        if ranks.is_empty() {
            return;
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

    /// Park `rank` of `core` once, as a blocking point would.
    fn park(core: &SchedCore, rank: usize, at: SimTime, op: ParkOp) {
        core.begin_park(rank, at, op);
        core.park_switch(rank);
    }

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
            (probe, "probe(src=Some(1), tag=None)"),
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
            Box::new(|| park(&core, 0, SimTime::from_us(3), RECV_1_7)),
            Box::new(|| park(&core, 1, SimTime::from_us(5), ParkOp::Barrier)),
            Box::new(|| {}), // returns at once: done, not stuck
        ];
        core.run(2, bodies.into_iter());
        let v = core.verdict().expect("two ranks parked for good");
        assert_eq!(v.ranks, vec![0, 1]);
        assert_eq!(v.ops, vec!["recv(src=1, tag=7)", "barrier"]);
        assert_eq!(v.at, SimTime::from_us(5) + budget);
    }

    #[test]
    fn a_world_whose_ranks_all_return_has_no_verdict_and_bodies_may_borrow() {
        let hits = AtomicU64::new(0);
        let core = SchedCore::new(4, SimTime::ZERO);
        core.run(
            2,
            (0..4usize).map(|rank| -> Box<dyn FnOnce() + Send + '_> {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(rank as u64 + 1, Ordering::SeqCst);
                })
            }),
        );
        assert_eq!(hits.load(Ordering::SeqCst), 1 + 2 + 3 + 4);
        assert_eq!(core.verdict(), None);
    }

    #[test]
    fn a_standalone_park_is_the_verdict_and_returns_at_once() {
        let core = SchedCore::new(0, SimTime::from_ms(1));
        assert_eq!(core.verdict(), None);
        park(&core, 0, SimTime::from_us(2), RECV_1_7);
        let v = core
            .verdict()
            .expect("nothing can wake a standalone caller");
        assert_eq!(v.ranks, vec![0]);
        assert_eq!(v.ops, vec!["recv(src=1, tag=7)"]);
        assert_eq!(v.at, SimTime::from_us(2) + SimTime::from_ms(1));
        let first = v.clone();
        park(&core, 0, SimTime::from_us(9), ParkOp::Barrier);
        assert_eq!(core.verdict(), Some(&first), "the verdict is sticky");
    }
}
