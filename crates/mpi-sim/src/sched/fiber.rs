//! Fibers: the scheduler's one way to cut a rank's thread of control loose
//! from the worker that runs it.
//!
//! A [`Fiber`] owns a body and whatever it needs to run it in pieces: the
//! worker calls [`Fiber::resume`], the body runs until it calls
//! [`Fiber::suspend`] (or returns), and control is back in the worker. Who
//! runs when, parking and waking all live in [`super`]; nothing outside
//! this module touches a stack pointer.
//!
//! Two implementations sit behind the same three functions, picked by
//! target alone:
//!
//! * `asm` — x86_64 (SysV: Linux, macOS, BSDs) and aarch64 (AAPCS64): a
//!   heap-allocated stack and a handful of instructions per switch (push
//!   the callee-saved registers, swap stack pointers, pop, return). Each
//!   stack is one page-aligned 80 KiB block from the global allocator, so
//!   a heap counter sees every byte of it, left uninitialized, so only the
//!   pages a rank touches become resident. The size is measured, not
//!   guessed (see `STACK_KIB`): at least 2.5 times the deepest stack of a
//!   debug test run, 10 times the deepest of a release workload, and no
//!   input makes a rank's stack grow, as no walk over a datatype recurses.
//!   What sets the debug half is frame size, not depth: code that runs on
//!   a rank keeps each case of a large `match` and each off-path branch in
//!   a function of its own, as a debug build gives every temporary of a
//!   function its own stack slot.
//!   Its lowest page is a `PROT_NONE` guard: an overflow faults at the
//!   overflowing access (SIGSEGV, or SIGBUS on macOS) instead of writing
//!   over the heap. The guard splits the block's mapping, so a live fiber
//!   costs about two memory mappings, and Linux's default
//!   `vm.max_map_count` of 65,530 bounds one process to about 30,000 live
//!   fibers.
//! * `baton` — everywhere else (Windows pins stack bounds in the TEB, so
//!   the switch above is not valid there): one OS thread per fiber and a
//!   baton that exactly one of {worker, fiber thread} holds at a time, so
//!   the scheduler sees the same strictly alternating control flow. Plain
//!   `std`, compiled and tested on every target.
//!
//! Contract shared by both (the `# Safety` sections below):
//!
//! * a fiber is only ever resumed by the scheduler's one worker, never
//!   while it runs, and only suspended from inside its own body — the
//!   scheduler's ready heap guarantees this;
//! * unwinding never crosses a switch: the runtime wraps every body in
//!   `catch_unwind`, so a panic is a value before control returns to the
//!   worker.

/// A fiber body. `'static` because a suspended body outlives every borrow
/// the type system can see; [`super::SchedCore::run`] is where shorter
/// borrows are (soundly) stretched to fit.
pub(crate) type Entry = Box<dyn FnOnce() + Send + 'static>;

/// How a [`Fiber::resume`] came back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resumed {
    /// The body called [`Fiber::suspend`]; resume it again later.
    Suspended,
    /// The body returned; the fiber must not be resumed again.
    Finished,
}

#[cfg(all(
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(target_os = "windows")
))]
pub(crate) use asm::Fiber;
#[cfg(not(all(
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(target_os = "windows")
)))]
pub(crate) use baton::Fiber;

#[cfg(all(
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(target_os = "windows")
))]
mod asm {
    use std::alloc::{alloc, dealloc, Layout};
    use std::cell::UnsafeCell;
    use std::ffi::{c_int, c_void};
    use std::ptr::{addr_of_mut, NonNull};

    use super::{Entry, Resumed};

    extern "C" {
        // Declared by hand: the crate takes no `libc`. POSIX signatures.
        fn getpagesize() -> c_int;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// `PROT_NONE` and `PROT_READ | PROT_WRITE` of `<sys/mman.h>`, the same
    /// on Linux, macOS and the BSDs.
    const PROT_NONE: c_int = 0;
    const PROT_READ_WRITE: c_int = 3;
    /// `MADV_DONTNEED`, the same on Linux, macOS and the BSDs.
    const MADV_DONTNEED: c_int = 4;

    /// A fiber stack: one page-aligned block from the global allocator
    /// whose lowest page (`layout.align()` bytes) is the `PROT_NONE` guard.
    struct FiberStack {
        ptr: NonNull<u8>,
        layout: Layout,
    }

    // SAFETY: the stack is plain owned memory; it is only touched by
    // whichever worker thread currently runs (or frees) its fiber.
    unsafe impl Send for FiberStack {}

    impl FiberStack {
        /// Allocate a stack of `size` bytes, rounded up to whole pages (at
        /// least the guard and one more), and guard its lowest page.
        fn new(size: usize) -> FiberStack {
            // SAFETY: `getpagesize` has no preconditions.
            let page = unsafe { getpagesize() } as usize;
            let layout = Layout::from_size_align(size.max(2 * page).next_multiple_of(page), page)
                .expect("fiber stack layout");
            // SAFETY: `layout` has non-zero size.
            let raw = unsafe { alloc(layout) };
            let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
            // SAFETY: the block's first page is ours and page-aligned.
            if unsafe { mprotect(raw.cast(), page, PROT_NONE) } != 0 {
                // As for an allocation that fails: there is no world to
                // return an error to yet, and an unguarded stack is no option.
                eprintln!(
                    "fatal: cannot guard a fiber stack ({}); each live fiber \
                     costs about two memory mappings, see vm.max_map_count",
                    std::io::Error::last_os_error()
                );
                std::process::abort();
            }
            FiberStack { ptr, layout }
        }

        /// Highest address of the stack (stacks grow downward from here);
        /// page-aligned, so 16-aligned.
        fn top(&self) -> usize {
            self.ptr.as_ptr() as usize + self.layout.size()
        }
    }

    impl Drop for FiberStack {
        fn drop(&mut self) {
            // SAFETY: the guard page is ours, and the allocator may write its
            // bookkeeping there once the block is freed, so it is made
            // writable first (a block whose guard cannot be lifted is leaked,
            // not freed); `ptr` came from `alloc` with `layout`. The pages
            // the fiber touched go back to the OS first: a stack this small
            // comes from the heap, not from a mapping of its own, and a
            // block handed out again at another offset would otherwise keep
            // them resident in the middle of the next stack.
            unsafe {
                let guard = self.ptr.as_ptr();
                if mprotect(guard.cast(), self.layout.align(), PROT_READ_WRITE) == 0 {
                    madvise(guard.cast(), self.layout.size(), MADV_DONTNEED);
                    dealloc(guard, self.layout);
                }
            }
        }
    }

    // macOS prefixes C symbols with an underscore.
    #[cfg(target_vendor = "apple")]
    macro_rules! csym {
        ($name:literal) => {
            concat!("_", $name)
        };
    }
    #[cfg(not(target_vendor = "apple"))]
    macro_rules! csym {
        ($name:literal) => {
            $name
        };
    }

    // ------------------------------------------------------------ x86_64
    //
    // SysV: rbx, rbp, r12-r15 are callee-saved (plus rsp).
    // `tempi_fiber_switch` pushes them, parks rsp in *save_sp, adopts
    // target_sp, pops, and `ret`s into whatever return address the target
    // stack holds. A brand-new fiber's stack is forged so that `ret` lands
    // in `tempi_fiber_start`, which moves the payload pointer (parked in
    // the fake r12 slot) into rdi and calls the Rust entry (parked in the
    // fake rbx slot). The fake frame leaves rsp 16-aligned at
    // `tempi_fiber_start`, so the `call` gives the Rust entry a conformant
    // (rsp % 16 == 8) frame.
    #[cfg(target_arch = "x86_64")]
    core::arch::global_asm!(
        ".balign 16",
        concat!(".globl ", csym!("tempi_fiber_switch")),
        concat!(csym!("tempi_fiber_switch"), ":"),
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".balign 16",
        concat!(".globl ", csym!("tempi_fiber_start")),
        concat!(csym!("tempi_fiber_start"), ":"),
        "mov rdi, r12",
        "call rbx",
        "ud2",
    );

    // ----------------------------------------------------------- aarch64
    //
    // AAPCS64: x19-x28, fp (x29), lr (x30) and d8-d15 are callee-saved. The
    // forged first frame parks the payload in x19, the Rust entry in x20
    // and `tempi_fiber_start` in the lr slot, so the switch's `ret` lands
    // in the trampoline with sp 16-aligned (every offset below is a
    // multiple of 16).
    #[cfg(target_arch = "aarch64")]
    core::arch::global_asm!(
        ".balign 16",
        concat!(".globl ", csym!("tempi_fiber_switch")),
        concat!(csym!("tempi_fiber_switch"), ":"),
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8,  d9,  [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8,  d9,  [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
        ".balign 16",
        concat!(".globl ", csym!("tempi_fiber_start")),
        concat!(csym!("tempi_fiber_start"), ":"),
        "mov x0, x19",
        "blr x20",
        "brk #1",
    );

    extern "C" {
        /// Save the current stack pointer (and callee-saved registers) into
        /// `*save_sp`, resume the context whose stack pointer is
        /// `target_sp`; returns when something later switches back.
        /// `target_sp` must have been saved by a switch or forged by
        /// [`init_frame`], on a live stack that is executing nowhere.
        fn tempi_fiber_switch(save_sp: *mut usize, target_sp: usize);
        fn tempi_fiber_start();
    }

    /// Forge the initial frame on `stack` so that the first switch into the
    /// returned stack pointer calls `fiber_main(payload)`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn init_frame(stack: &FiberStack, payload: *mut u8) -> usize {
        let top = stack.top();
        let slot = |off: usize| (top - off) as *mut u64;
        // Return address: `ret` pops it leaving rsp == top (16-aligned) at
        // `tempi_fiber_start`, whose `call` then produces a conformant frame.
        slot(8).write(tempi_fiber_start as *const () as usize as u64);
        slot(16).write(0); // rbp
        slot(24).write(fiber_main as *const () as usize as u64); // rbx -> Rust entry
        slot(32).write(payload as usize as u64); // r12 -> payload
        slot(40).write(0); // r13
        slot(48).write(0); // r14
        slot(56).write(0); // r15
        top - 56
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn init_frame(stack: &FiberStack, payload: *mut u8) -> usize {
        let top = stack.top();
        let sp = top - 160;
        let base = sp as *mut u64;
        for i in 0..20 {
            base.add(i).write(0);
        }
        base.write(payload as usize as u64); // x19 -> payload
        base.add(1).write(fiber_main as *const () as usize as u64); // x20 -> Rust entry
        base.add(11)
            .write(tempi_fiber_start as *const () as usize as u64); // x30 -> trampoline
        sp
    }

    struct Inner {
        stack: Option<FiberStack>,
        /// Saved stack pointer of the suspended fiber.
        sp: usize,
        /// Saved stack pointer of the worker that resumed it.
        worker_sp: usize,
        entry: Option<Entry>,
        finished: bool,
    }

    /// Where every fiber starts: run the body, flag completion, switch back
    /// to the worker for good.
    unsafe extern "C" fn fiber_main(payload: *mut u8) -> ! {
        let inner = payload as *mut Inner;
        // The body is panic-proof by construction (the runtime wraps it in
        // catch_unwind), so unwinding never reaches the asm switch below.
        if let Some(body) = (*inner).entry.take() {
            body();
        }
        (*inner).finished = true;
        let mut scratch = 0usize;
        tempi_fiber_switch(&mut scratch, (*inner).worker_sp);
        // A finished fiber is never resumed.
        std::process::abort();
    }

    /// A stackful fiber over the asm switch. Inert (and allocation-free)
    /// until [`Fiber::arm`]ed.
    pub(crate) struct Fiber(UnsafeCell<Inner>);

    // SAFETY: every access to the cell goes through `arm`/`resume`/
    // `suspend`, whose contracts make the callers mutually exclusive (the
    // worker, or the fiber itself while the worker is switched out);
    // `Inner`'s fields are all `Send` (stack above, `Entry` by bound).
    unsafe impl Sync for Fiber {}

    impl Fiber {
        pub(crate) const fn new() -> Fiber {
            Fiber(UnsafeCell::new(Inner {
                stack: None,
                sp: 0,
                worker_sp: 0,
                entry: None,
                finished: false,
            }))
        }

        /// Give the fiber its body and a fresh stack of `stack_bytes`.
        ///
        /// # Safety
        ///
        /// Nothing else may be using the fiber, and it must stay at this
        /// address until it has finished (the forged frame points at it).
        pub(crate) unsafe fn arm(&self, stack_bytes: usize, entry: Entry) {
            let inner = self.0.get();
            let stack = FiberStack::new(stack_bytes);
            (*inner).sp = init_frame(&stack, inner as *mut u8);
            (*inner).stack = Some(stack);
            (*inner).entry = Some(entry);
            (*inner).finished = false;
        }

        /// Worker side: run the body until it suspends or returns.
        ///
        /// # Safety
        ///
        /// The fiber must be armed and unfinished, and no other thread may
        /// resume it until this call returns.
        pub(crate) unsafe fn resume(&self) -> Resumed {
            let inner = self.0.get();
            tempi_fiber_switch(addr_of_mut!((*inner).worker_sp), (*inner).sp);
            if !(*inner).finished {
                return Resumed::Suspended;
            }
            (*inner).stack = None;
            Resumed::Finished
        }

        /// Fiber side: hand control back to the worker; returns at the next
        /// [`Fiber::resume`].
        ///
        /// # Safety
        ///
        /// Must be called from inside this fiber's own body.
        pub(crate) unsafe fn suspend(&self) {
            let inner = self.0.get();
            tempi_fiber_switch(addr_of_mut!((*inner).sp), (*inner).worker_sp);
        }
    }
}

#[cfg(any(
    test,
    not(all(
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(target_os = "windows")
    ))
))]
mod baton {
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use tempi_trace::sync::{Condvar, Mutex};

    use super::{Entry, Resumed};

    /// Who may run right now.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Turn {
        Worker,
        Fiber,
        /// The body returned; the baton never goes back to the fiber.
        Done,
    }

    struct Baton {
        turn: Mutex<Turn>,
        cv: Condvar,
    }

    impl Baton {
        /// Hand the baton to `to`, then wait until it is no longer theirs.
        fn pass(&self, to: Turn) -> Turn {
            let mut turn = self.turn.lock();
            *turn = to;
            self.cv.notify_all();
            while *turn == to {
                self.cv.wait(&mut turn);
            }
            *turn
        }
    }

    /// A fiber as an OS thread that only runs while it holds the baton.
    pub(crate) struct Fiber {
        baton: Arc<Baton>,
        thread: Mutex<Option<JoinHandle<()>>>,
    }

    impl Fiber {
        pub(crate) fn new() -> Fiber {
            Fiber {
                baton: Arc::new(Baton {
                    turn: Mutex::new(Turn::Worker),
                    cv: Condvar::new(),
                }),
                thread: Mutex::new(None),
            }
        }

        /// Give the fiber its body, on a thread with a `stack_bytes` stack
        /// that waits for its first turn.
        ///
        /// # Safety
        ///
        /// None needed by this implementation; `unsafe` to match the asm one.
        pub(crate) unsafe fn arm(&self, stack_bytes: usize, entry: Entry) {
            let baton = Arc::clone(&self.baton);
            let body = move || {
                {
                    let mut turn = baton.turn.lock();
                    while *turn != Turn::Fiber {
                        baton.cv.wait(&mut turn);
                    }
                }
                entry();
                *baton.turn.lock() = Turn::Done;
                baton.cv.notify_all();
            };
            let spawned = std::thread::Builder::new()
                .stack_size(stack_bytes)
                .spawn(body);
            // Out of threads is out of memory by another name: there is no
            // world to return an error to yet.
            *self.thread.lock() = Some(spawned.unwrap_or_else(|e| {
                eprintln!("fatal: cannot spawn a fiber thread: {e}");
                std::process::abort()
            }));
        }

        /// Worker side: run the body until it suspends or returns.
        ///
        /// # Safety
        ///
        /// As for the asm implementation: armed, unfinished, one resumer.
        pub(crate) unsafe fn resume(&self) -> Resumed {
            if self.baton.pass(Turn::Fiber) == Turn::Worker {
                return Resumed::Suspended;
            }
            // Joined, so the body and everything it borrowed are gone
            // before anyone is told the fiber finished. The body cannot
            // have panicked (see the module contract); an overrun stack
            // faults on the OS guard page, as the asm one does on its own.
            if let Some(thread) = self.thread.lock().take() {
                let _ = thread.join();
            }
            Resumed::Finished
        }

        /// Fiber side: hand control back to the worker; returns at the next
        /// [`Fiber::resume`].
        ///
        /// # Safety
        ///
        /// As for the asm implementation: only from inside the body.
        pub(crate) unsafe fn suspend(&self) {
            self.baton.pass(Turn::Worker);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
    use std::sync::Arc;

    use super::Resumed;

    /// The contract both primitives owe the scheduler.
    macro_rules! fiber_contract {
        ($name:ident, $fiber:ty) => {
            mod $name {
                use super::*;

                /// A body that suspends `suspends` times, counting steps.
                fn armed(suspends: u32, steps: &Arc<AtomicU32>) -> Arc<$fiber> {
                    let fiber = Arc::new(<$fiber>::new());
                    let (inside, steps) = (Arc::clone(&fiber), Arc::clone(steps));
                    let body = move || {
                        // Lives on the fiber's stack across every switch.
                        let mut local = 1u64;
                        for _ in 0..suspends {
                            local = local * 31 + 7;
                            steps.fetch_add(1, SeqCst);
                            unsafe { inside.suspend() };
                        }
                        let expect = (0..suspends).fold(1u64, |l, _| l * 31 + 7);
                        steps.fetch_add(if local == expect { 100 } else { 1000 }, SeqCst);
                    };
                    unsafe { fiber.arm(64 * 1024, Box::new(body)) };
                    fiber
                }

                #[test]
                fn fiber_round_trips_and_preserves_state() {
                    let steps = Arc::new(AtomicU32::new(0));
                    let fiber = armed(3, &steps);
                    assert_eq!(steps.load(SeqCst), 0, "arming runs nothing");
                    for expect in 1..=3u32 {
                        assert_eq!(unsafe { fiber.resume() }, Resumed::Suspended);
                        assert_eq!(steps.load(SeqCst), expect);
                    }
                    assert_eq!(unsafe { fiber.resume() }, Resumed::Finished);
                    assert_eq!(steps.load(SeqCst), 103, "locals survived the switches");
                }

                #[test]
                fn a_body_that_returns_after_n_suspends_finishes_exactly_once() {
                    for n in [0u32, 1, 5] {
                        let steps = Arc::new(AtomicU32::new(0));
                        let fiber = armed(n, &steps);
                        let mut outcomes = Vec::new();
                        loop {
                            let r = unsafe { fiber.resume() };
                            outcomes.push(r);
                            if r != Resumed::Suspended {
                                break;
                            }
                        }
                        assert_eq!(outcomes.len() as u32, n + 1, "one resume per suspend + 1");
                        assert_eq!(outcomes.last(), Some(&Resumed::Finished));
                        assert_eq!(steps.load(SeqCst), n + 100, "the body's tail ran once");
                    }
                }
            }
        };
    }

    #[cfg(all(
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(target_os = "windows")
    ))]
    fiber_contract!(asm, super::super::asm::Fiber);
    fiber_contract!(baton, super::super::baton::Fiber);
}
