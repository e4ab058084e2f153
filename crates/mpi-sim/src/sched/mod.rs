//! Event-driven virtual-time scheduler: ranks as fibers on an M-worker pool.
//!
//! The thread-per-rank runtime capped worlds at a few hundred ranks (an OS
//! thread each). This module runs every rank as a cooperatively-yielding
//! *fiber* (see the `fiber` submodule) multiplexed onto M worker threads (M ≈ cores),
//! so a 10,000-rank world costs 10,000 lazily-committed stacks and M
//! threads. Blocking points — receive waits, barrier entry, send
//! backpressure — park the fiber instead of an OS thread; delivery of a
//! message (or a barrier release) wakes it.
//!
//! ## Ready ordering and determinism
//!
//! Runnable tasks sit in one global heap ordered by `(virtual_time, seq)`
//! where `seq` is a global monotonic enqueue counter: the task with the
//! earliest virtual clock runs first, FIFO among equals. (The design
//! issue proposed `(virtual_time, rank, seq)`; rank-before-seq is *not*
//! used because it starves spin-polling tasks — a low rank polling
//! `test()` at a constant virtual time would always outrank the sender it
//! is waiting on, livelocking an M=1 world. With `seq` in the middle, a
//! yielded spinner goes to the back of its virtual instant and its peers
//! run.) Results are *byte-identical* across M — and identical to thread
//! mode — because all timing is virtual and Lamport-composed at receives,
//! matching is deterministic, and per-pair delivery order is FIFO; the
//! heap order affects wall-clock interleaving only.
//!
//! ## Structural deadlock detection
//!
//! The thread runtime needs a wall-clock polling watchdog to notice a
//! wedged world. Here the scheduler *knows*: every unfinished task is
//! ready, running, or parked, so when a worker finds the ready heap empty
//! with nothing running and not everything finished, every live rank is
//! parked with no wake in flight — a deadlock, by construction, with zero
//! false positives and zero polling. The verdict (ranks, operations,
//! virtual instant) is stamped once, sticky, and every parked task is
//! woken to unwind: receives return a structured
//! [`Deadlock`](crate::MpiError::Deadlock) error, barriers withdraw, and
//! backpressured senders proceed — so the world always drains and the
//! process never hangs.

pub(crate) mod fiber;
mod router;

pub use router::PAYLOAD_POOL_BYTES;
pub(crate) use router::{Router, DEFAULT_INBOX_HWM};

use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gpu_sim::SimTime;
use parking_lot::{Condvar, Mutex};

use crate::watchdog::DeadlockInfo;

/// How [`World::run`](crate::World::run) schedules its ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Pick per platform (and honor `TEMPI_SCHED=threads|events`): the
    /// event scheduler on x86_64, threads elsewhere (the aarch64 fiber
    /// backend exists but is opt-in until it has seen native CI).
    #[default]
    Auto,
    /// One OS thread per rank (the legacy runtime; caps at ~hundreds of
    /// ranks but exercises real preemption).
    Threads,
    /// Fibers on an M-worker pool; scales to 10,000+ ranks.
    Events,
}

impl SchedMode {
    /// Resolve to a concrete backend choice.
    pub(crate) fn use_events(self) -> bool {
        let check = |wanted: bool| {
            assert!(
                !wanted || fiber::supported(),
                "event scheduler requested but fibers are unsupported on this target"
            );
            wanted
        };
        match self {
            SchedMode::Threads => false,
            SchedMode::Events => check(true),
            SchedMode::Auto => match std::env::var("TEMPI_SCHED").ok().as_deref() {
                Some("threads") => false,
                Some("events") => check(true),
                _ => cfg!(all(target_arch = "x86_64", not(target_os = "windows"))),
            },
        }
    }
}

/// Default fiber stack size; override with `TEMPI_SCHED_STACK_KIB`.
/// Generous because there is no guard page — but lazily committed, so an
/// idle fiber only pays for the pages it has actually touched.
const DEFAULT_STACK_KIB: usize = 2048;

/// Fiber stack size in bytes, after the environment override.
pub(crate) fn stack_bytes() -> usize {
    std::env::var("TEMPI_SCHED_STACK_KIB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&k| k > 0)
        .unwrap_or(DEFAULT_STACK_KIB)
        * 1024
}

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
    /// A wake arrived while the task was `Running`/`Parking`: consume it
    /// at the next park-handoff instead of losing it.
    wake_pending: bool,
    /// What the task is blocked on (rendered at park time; feeds the
    /// deadlock verdict's `ops`).
    park_desc: Option<String>,
    /// The task's virtual clock when it parked (feeds the verdict's `at`
    /// and orders the re-enqueue on wake).
    park_clock: SimTime,
}

const EXIT_PARK: u8 = 0;
const EXIT_YIELD: u8 = 1;

/// Mutable per-task machinery touched only by whichever thread currently
/// *is* the task (its fiber) or runs it (its worker) — exclusivity is
/// guaranteed by the [`TaskState`] machine, so no lock guards it.
struct TaskCell {
    stack: Option<fiber::FiberStack>,
    /// Saved stack pointer of the suspended fiber.
    sp: usize,
    /// Saved stack pointer of the worker that resumed this fiber.
    worker_sp: usize,
    entry: Option<Box<dyn FnOnce() + Send + 'static>>,
    exit: u8,
    /// Virtual time to key the next ready-heap entry with.
    resume_vtime: u64,
    finished: bool,
}

struct Task {
    inner: Mutex<TaskInner>,
    cell: UnsafeCell<TaskCell>,
}

// SAFETY: `cell` is only accessed by the fiber itself or the worker
// currently running/parking it; the state machine in `inner` makes those
// accesses mutually exclusive.
unsafe impl Sync for Task {}

struct RunState {
    /// Min-heap of runnable tasks keyed `(virtual_time_ps, seq)`.
    ready: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Tasks currently executing on workers (includes `Parking` tasks
    /// whose handoff is not yet complete — crucial: `running == 0`
    /// implies every park has fully settled and nobody can be mid-wake).
    running: usize,
    parked: usize,
    finished: usize,
}

/// The scheduler shared by every rank and worker of one world run.
pub(crate) struct SchedCore {
    tasks: Vec<Task>,
    state: Mutex<RunState>,
    cv: Condvar,
    seq: AtomicU64,
    verdict_flag: AtomicBool,
    verdict: Mutex<Option<DeadlockInfo>>,
    /// Virtual-time budget folded into the verdict's `at` stamp (taken
    /// from the watchdog config when one is set, for parity with thread
    /// mode).
    budget: SimTime,
    stack_bytes: usize,
}

unsafe extern "C" fn task_entry(payload: *mut u8) -> ! {
    let cell = payload as *mut TaskCell;
    let f = (*cell).entry.take().expect("fiber entry installed");
    // The closure is panic-proof by construction (the runtime wraps the
    // rank body in catch_unwind), so unwinding never reaches the asm
    // switch below.
    f();
    (*cell).finished = true;
    let mut scratch = 0usize;
    let target = (*cell).worker_sp;
    fiber::switch(&mut scratch, target);
    // The worker never resumes a finished fiber.
    std::process::abort();
}

impl SchedCore {
    pub(crate) fn new(total: usize, budget: SimTime) -> SchedCore {
        SchedCore {
            tasks: (0..total)
                .map(|_| Task {
                    inner: Mutex::new(TaskInner {
                        state: TaskState::Ready,
                        wake_pending: false,
                        park_desc: None,
                        park_clock: SimTime::ZERO,
                    }),
                    cell: UnsafeCell::new(TaskCell {
                        stack: None,
                        sp: 0,
                        worker_sp: 0,
                        entry: None,
                        exit: EXIT_PARK,
                        resume_vtime: 0,
                        finished: false,
                    }),
                })
                .collect(),
            state: Mutex::new(RunState {
                ready: BinaryHeap::with_capacity(total),
                running: 0,
                parked: 0,
                finished: 0,
            }),
            cv: Condvar::new(),
            // Initial enqueues use seq == rank, so a fresh world starts in
            // rank order at virtual time zero.
            seq: AtomicU64::new(total as u64),
            verdict_flag: AtomicBool::new(false),
            verdict: Mutex::new(None),
            budget,
            stack_bytes: stack_bytes(),
        }
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Install `entry` as rank `rank`'s body and mark it runnable at
    /// virtual time zero. Must be called before any worker starts.
    pub(crate) fn spawn(&self, rank: usize, entry: Box<dyn FnOnce() + Send + 'static>) {
        let cell = self.tasks[rank].cell.get();
        unsafe {
            let stack = fiber::FiberStack::new(self.stack_bytes);
            let sp = fiber::init_frame(&stack, task_entry, cell as *mut u8);
            (*cell).stack = Some(stack);
            (*cell).sp = sp;
            (*cell).entry = Some(entry);
        }
        self.state
            .lock()
            .ready
            .push(Reverse((0, rank as u64, rank)));
    }

    /// One worker's life: pop the earliest runnable task, run its fiber
    /// until it parks/yields/finishes, repeat. When the heap runs dry
    /// with nothing running and tasks still unfinished, the world is
    /// structurally deadlocked (see module docs).
    pub(crate) fn worker_loop(&self) {
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
        let cell = task.cell.get();
        unsafe {
            let target = (*cell).sp;
            fiber::switch(std::ptr::addr_of_mut!((*cell).worker_sp), target);
        }
        if unsafe { (*cell).finished } {
            if let Some(stack) = unsafe { (*cell).stack.take() } {
                if !stack.canary_intact() {
                    // The overflow already scribbled on the heap;
                    // continuing (or unwinding) would only smear the
                    // evidence.
                    eprintln!(
                        "fatal: fiber stack overflow on rank {rank} \
                         (raise TEMPI_SCHED_STACK_KIB, default {DEFAULT_STACK_KIB})"
                    );
                    std::process::abort();
                }
            }
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
        let exit = unsafe { (*cell).exit };
        let vtime = unsafe { (*cell).resume_vtime };
        if exit == EXIT_YIELD {
            task.inner.lock().state = TaskState::Ready;
            let mut s = self.state.lock();
            s.running -= 1;
            s.ready.push(Reverse((vtime, self.next_seq(), rank)));
            drop(s);
            self.cv.notify_one();
            return;
        }
        // EXIT_PARK: complete the Parking -> Parked handoff. A wake that
        // raced in while the fiber was switching out left `wake_pending`;
        // honor it by re-enqueueing instead of parking — this is what
        // makes a deliver-vs-park race lose no wakeups and never run one
        // fiber on two workers.
        let mut inner = task.inner.lock();
        debug_assert_eq!(inner.state, TaskState::Parking);
        if inner.wake_pending {
            inner.wake_pending = false;
            inner.state = TaskState::Ready;
            drop(inner);
            let mut s = self.state.lock();
            s.running -= 1;
            s.ready.push(Reverse((vtime, self.next_seq(), rank)));
            drop(s);
            self.cv.notify_one();
        } else {
            inner.state = TaskState::Parked;
            // Count the park before it becomes visible: a wake that sees
            // `Parked` decrements `parked`, and if it got in ahead of the
            // increment the counter would underflow (a panic in debug
            // builds that leaves the woken task out of the ready heap).
            let mut s = self.state.lock();
            drop(inner);
            s.running -= 1;
            s.parked += 1;
        }
    }

    /// Fiber-side: announce intent to park on an operation described by
    /// `desc`, with the caller's virtual clock at `now`. The caller then
    /// publishes its wake condition (e.g. an inbox "receiver parked"
    /// flag) and calls [`SchedCore::park_switch`].
    pub(crate) fn begin_park(&self, rank: usize, now: SimTime, desc: String) {
        let mut inner = self.tasks[rank].inner.lock();
        debug_assert!(matches!(
            inner.state,
            TaskState::Running | TaskState::Parking
        ));
        inner.state = TaskState::Parking;
        inner.park_desc = Some(desc);
        inner.park_clock = now;
        drop(inner);
        unsafe { (*self.tasks[rank].cell.get()).resume_vtime = now.as_ps() };
    }

    /// Fiber-side: hand control to the worker; returns when woken.
    pub(crate) fn park_switch(&self, rank: usize) {
        let cell = self.tasks[rank].cell.get();
        unsafe {
            (*cell).exit = EXIT_PARK;
            let target = (*cell).worker_sp;
            fiber::switch(std::ptr::addr_of_mut!((*cell).sp), target);
        }
    }

    /// Fiber-side cooperative yield: go to the back of the ready heap at
    /// the current virtual instant so peers can run. This is what keeps
    /// spin-polling (`test()` loops) live on a single worker.
    pub(crate) fn yield_now(&self, rank: usize, now: SimTime) {
        let cell = self.tasks[rank].cell.get();
        unsafe {
            (*cell).exit = EXIT_YIELD;
            (*cell).resume_vtime = now.as_ps();
            let target = (*cell).worker_sp;
            fiber::switch(std::ptr::addr_of_mut!((*cell).sp), target);
        }
    }

    /// Make `rank` runnable again (message delivered, barrier released,
    /// inbox drained, verdict declared). Safe to call redundantly and
    /// from any state: a wake racing a park is latched via
    /// `wake_pending`, a wake of a ready/finished task is a no-op.
    pub(crate) fn wake(&self, rank: usize) {
        let task = &self.tasks[rank];
        let mut inner = task.inner.lock();
        match inner.state {
            TaskState::Parked => {
                inner.state = TaskState::Ready;
                let vtime = inner.park_clock.as_ps();
                drop(inner);
                let mut s = self.state.lock();
                s.parked -= 1;
                s.ready.push(Reverse((vtime, self.next_seq(), rank)));
                drop(s);
                self.cv.notify_one();
            }
            TaskState::Parking | TaskState::Running => inner.wake_pending = true,
            TaskState::Ready | TaskState::Finished => {}
        }
    }

    /// The sticky deadlock verdict, if one was declared. One atomic load
    /// on the happy path.
    pub(crate) fn verdict(&self) -> Option<DeadlockInfo> {
        if self.verdict_flag.load(Ordering::Acquire) {
            self.verdict.lock().clone()
        } else {
            None
        }
    }

    /// Declare the world deadlocked: stamp the verdict from the parked
    /// tasks' descriptions and clocks, then wake everything so blocking
    /// points unwind and the run drains. Called only when `running == 0`
    /// and the ready heap is empty, so the parked set is stable.
    fn declare_deadlock(&self) {
        {
            let mut v = self.verdict.lock();
            if v.is_none() {
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
                                .clone()
                                .unwrap_or_else(|| "blocked".to_string()),
                        );
                        latest = latest.max(inner.park_clock);
                    }
                }
                if ranks.is_empty() {
                    return;
                }
                *v = Some(DeadlockInfo {
                    ranks,
                    ops,
                    at: latest + self.budget,
                });
                self.verdict_flag.store(true, Ordering::Release);
            }
        }
        for rank in 0..self.tasks.len() {
            self.wake(rank);
        }
    }
}
