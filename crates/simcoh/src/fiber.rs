//! Stackful-coroutine ("fiber") transport for simulated threads.
//!
//! The OS transport hands off through `park`/`unpark`, which costs a
//! futex round trip (~2µs) every time the engine switches between simulated
//! threads — and a barrier episode is nothing *but* switches. This module
//! runs every simulated thread of an episode as a fiber on **one** OS
//! thread: blocking becomes a userspace context switch (a dozen
//! instructions saving the six SysV callee-saved registers), two orders of
//! magnitude cheaper, and on a single-core host it also removes all
//! scheduler pressure.
//!
//! A fiber that blocks switches straight to the next runnable fiber, in
//! the run queue's order, and falls back to the driver's context only when
//! nothing is runnable (then the episode is over, or the transport is
//! wedged). Resuming a blocked thread therefore costs one context switch,
//! not a round trip through the driver.
//!
//! Determinism is untouched: the engine under its mutex processes exactly
//! the same operations in exactly the same order as under the OS transport
//! — only the mechanism that resumes a blocked thread changes. The
//! cross-transport identity is pinned by `team_matches_fresh_spawn_results`
//! (OS-team vs fiber run) and the golden-master fixtures.
//!
//! Enabled by default on `x86_64` unix hosts; set `ARMBAR_SIM_FIBERS=0` (or
//! `off`) to fall back to OS threads. Other architectures always use the OS
//! transport (the context switch is hand-written assembly).

use std::sync::Arc;

use crate::engine::{SimBuilder, SimThread};
use crate::error::SimError;
use crate::stats::RunStats;

/// Whether episodes run on the fiber transport. Read once per process:
/// flipping mid-run would mix transports within one ambient team.
pub(crate) fn fibers_enabled() -> bool {
    #[cfg(not(all(target_arch = "x86_64", unix)))]
    {
        false
    }
    #[cfg(all(target_arch = "x86_64", unix))]
    {
        static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *ON.get_or_init(|| {
            !std::env::var("ARMBAR_SIM_FIBERS")
                .is_ok_and(|v| v == "0" || v.eq_ignore_ascii_case("off"))
        })
    }
}

#[cfg(all(target_arch = "x86_64", unix))]
pub(crate) use imp::{run_on_fibers, FiberRt};

#[cfg(all(target_arch = "x86_64", unix))]
mod imp {
    use super::*;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::ptr::NonNull;

    use parking_lot::Mutex;

    /// Fiber stack size. Simulation bodies are shallow (a barrier algorithm
    /// plus the engine handoff), but proptest/debug builds are greedy;
    /// 256 KiB leaves a wide margin. Mapped on demand, so untouched pages
    /// never become resident.
    const STACK_SIZE: usize = 256 * 1024;

    /// Written at the low end of every stack; checked when the stack is
    /// returned to the pool. An overflow would have to march through this
    /// word first.
    const CANARY: usize = 0xFEED_FACE_CAFE_BEEF;

    /// Saved execution context: just the stack pointer. Everything else
    /// (the six SysV callee-saved registers and the return address) lives
    /// on the fiber's own stack, pushed by [`fiber_switch`].
    struct Context {
        rsp: usize,
    }

    /// x86_64 SysV context switch: saves the callee-saved registers and the
    /// return address on the current stack, stores the stack pointer to
    /// `*save`, installs `*restore`, and returns on the other stack.
    ///
    /// The floating-point control words (`mxcsr`, `x87 cw`) are deliberately
    /// *not* switched: nothing in this process modifies them, so every fiber
    /// observes the process defaults.
    #[unsafe(naked)]
    unsafe extern "C" fn fiber_switch(save: *mut usize, restore: *const usize) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, [rsi]",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First frame of every fiber: [`prepare_stack`] seeds r12 with the
    /// boot-args pointer and "returns" here. Moves the argument into place,
    /// terminates the frame-pointer chain, restores the SysV stack
    /// alignment a real `call` would have produced, and enters Rust.
    /// [`fiber_entry`] never returns (the `ud2` is unreachable).
    #[unsafe(naked)]
    unsafe extern "C" fn fiber_boot() {
        core::arch::naked_asm!(
            "mov rdi, r12",
            "xor ebp, ebp",
            "sub rsp, 8",
            "call {entry}",
            "ud2",
            entry = sym fiber_entry,
        )
    }

    // The C library's anonymous-mapping call (std already links it).
    unsafe extern "C" {
        fn mmap(
            addr: *mut std::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut std::ffi::c_void;
    }
    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    const MAP_PRIVATE: i32 = 0x2;
    #[cfg(target_os = "linux")]
    const MAP_ANONYMOUS: i32 = 0x20;
    #[cfg(not(target_os = "linux"))]
    const MAP_ANONYMOUS: i32 = 0x1000;

    /// One fiber stack: a `STACK_SIZE` slice of a mapping the pool owns.
    struct Stack {
        base: NonNull<u8>,
    }

    // SAFETY: a stack is plain memory that is never unmapped; the pool
    // hands each one to a single episode at a time.
    unsafe impl Send for Stack {}

    impl Stack {
        /// One-past-the-end of the stack (stacks grow down); page-aligned.
        fn top(&self) -> *mut usize {
            // SAFETY: one-past-the-end pointer of the stack's slice.
            unsafe { self.base.as_ptr().add(STACK_SIZE).cast() }
        }

        fn check_canary(&self) {
            // SAFETY: reads the word written in `map_stacks`.
            let w = unsafe { self.base.as_ptr().cast::<usize>().read() };
            assert_eq!(w, CANARY, "fiber stack overflow detected");
        }
    }

    /// Maps `n` fresh stacks in one anonymous mapping and writes their
    /// canaries. The mapping is never unmapped: its stacks live in the
    /// pool for the rest of the process.
    fn map_stacks(n: usize) -> impl Iterator<Item = Stack> {
        // SAFETY: a fresh private anonymous mapping; no existing memory is
        // named or replaced.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                n * STACK_SIZE,
                PROT_READ_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            p as isize != -1,
            "mapping {n} fiber stacks failed: {}",
            std::io::Error::last_os_error()
        );
        let base = NonNull::new(p.cast::<u8>()).expect("mmap returned null");
        (0..n).map(move |i| {
            // SAFETY: stack `i < n` lies inside the mapping.
            let base = unsafe { base.add(i * STACK_SIZE) };
            // SAFETY: in-bounds, page-aligned write at the stack's low end.
            unsafe { base.as_ptr().cast::<usize>().write(CANARY) };
            Stack { base }
        })
    }

    /// Stacks not in use, shared by every host thread and kept for the
    /// life of the process — the fiber analogue of [`crate::SimTeam`]'s
    /// worker reuse. The stacks are mapped from the OS, an episode's
    /// shortfall at a time, not taken from the heap: 256 KiB heap blocks
    /// lie among the allocator's small blocks, and where those landed
    /// decided how much of a freed pool stayed resident, so the peak
    /// resident set of the same simulations varied by 3 MiB between runs.
    /// Kept mapped, a stack's touched pages stay resident, so an episode
    /// on a new host thread takes no page faults for its stacks.
    static STACK_POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

    /// Takes `n` stacks from the pool, mapping any shortfall.
    fn pool_take(n: usize) -> Vec<Stack> {
        let mut free = STACK_POOL.lock();
        let short = n.saturating_sub(free.len());
        if short > 0 {
            free.extend(map_stacks(short));
        }
        let keep = free.len() - n;
        free.split_off(keep)
    }

    /// Returns an episode's stacks to the pool.
    fn pool_put(stacks: impl Iterator<Item = Stack>) {
        let mut free = STACK_POOL.lock();
        for stack in stacks {
            stack.check_canary();
            free.push(stack);
        }
    }

    /// What a booting fiber needs: its runtime and identity. Boxed and kept
    /// alive in the [`Fiber`], so the raw pointer seeded into r12 stays
    /// valid for the fiber's whole life.
    struct BootArgs {
        rt: *const FiberRt,
        tid: usize,
    }

    struct Fiber {
        ctx: Context,
        stack: Stack,
        /// Owner of the allocation `BootArgs` pointers refer to.
        _boot: Box<BootArgs>,
    }

    /// Seeds a fresh stack so that switching into it lands in
    /// [`fiber_boot`] with r12 = `arg`. Layout, from the top down: a zeroed
    /// fake return address, `fiber_boot`'s address, then the six
    /// callee-saved slots [`fiber_switch`] will pop (rbp, rbx, r12, r13,
    /// r14, r15 — r12 carries `arg`).
    fn prepare_stack(stack: &Stack, arg: *mut BootArgs) -> Context {
        let top = stack.top();
        // SAFETY: eight in-bounds words below the top of a 256 KiB stack.
        unsafe {
            top.sub(1).write(0);
            top.sub(2).write(fiber_boot as *const () as usize);
            top.sub(3).write(0); // rbp
            top.sub(4).write(0); // rbx
            top.sub(5).write(arg as usize); // r12
            top.sub(6).write(0); // r13
            top.sub(7).write(0); // r14
            top.sub(8).write(0); // r15
            Context { rsp: top.sub(8) as usize }
        }
    }

    struct RtInner {
        /// The driver's saved context while a fiber runs.
        driver_ctx: Context,
        /// One fiber per simulated thread, indexed by tid. Never grows
        /// after `run_on_fibers` seeds it (context pointers must not move).
        fibers: Vec<Fiber>,
        /// Fibers with a delivered reply (or not yet started), in wake
        /// order.
        runnable: VecDeque<usize>,
        /// The fiber currently executing, if any.
        current: Option<usize>,
        finished: usize,
        shared: Arc<crate::engine::Shared>,
        body: Arc<dyn Fn(&SimThread) + Send + Sync>,
    }

    /// The single-threaded fiber scheduler driving one episode.
    ///
    /// Boxed by [`run_on_fibers`] so the pointer handed to every fiber (and
    /// stored in each [`SimThread`]) is stable. The `RefCell` enforces the
    /// discipline that matters here: no borrow is ever held across a
    /// context switch.
    pub(crate) struct FiberRt {
        inner: RefCell<RtInner>,
    }

    impl FiberRt {
        /// Runs fibers until all have finished. Fibers hand off to each
        /// other directly ([`FiberRt::suspend`]); control comes back here
        /// only when the run queue is empty. The scheduler is strict about
        /// liveness: the engine only quiesces with no runnable fiber when
        /// it has delivered an outcome (completion or abort), so an empty
        /// queue with unfinished fibers is a transport bug, not a
        /// simulation deadlock — those are detected (and aborted) by the
        /// engine itself.
        fn drive(&self) {
            loop {
                let (save, restore) = {
                    let mut inner = self.inner.borrow_mut();
                    if inner.finished == inner.fibers.len() {
                        break;
                    }
                    let Some(next) = inner.runnable.pop_front() else {
                        panic!(
                            "fiber scheduler wedged: {}/{} fibers finished with none runnable",
                            inner.finished,
                            inner.fibers.len()
                        )
                    };
                    inner.current = Some(next);
                    let save: *mut usize = &mut inner.driver_ctx.rsp;
                    let restore: *const usize = &inner.fibers[next].ctx.rsp;
                    (save, restore)
                };
                // SAFETY: both pointers outlive the switch (the Vec never
                // reallocates mid-run) and no RefCell borrow is active.
                unsafe { fiber_switch(save, restore) };
            }
        }

        /// Suspends the current fiber and switches straight to the next
        /// runnable one, or back to the driver when none is; returns when
        /// a wake re-enqueues this fiber and something switches back in.
        /// One context switch per resume, in the same order the driver
        /// would have picked.
        pub(crate) fn suspend(&self) {
            let (save, restore) = {
                let mut inner = self.inner.borrow_mut();
                let t = inner.current.take().expect("suspend outside a fiber");
                let next = inner.runnable.pop_front();
                inner.current = next;
                let save: *mut usize = &mut inner.fibers[t].ctx.rsp;
                let restore: *const usize = match next {
                    Some(n) => &inner.fibers[n].ctx.rsp,
                    None => &inner.driver_ctx.rsp,
                };
                (save, restore)
            };
            // SAFETY: as in `drive` — stable pointers, no live borrow.
            unsafe { fiber_switch(save, restore) };
        }

        /// Marks the engine-woken tids runnable (self excluded — the caller
        /// is running and checks its own reply cell directly).
        pub(crate) fn enqueue_wakes(&self, wakes: &[usize], me: usize) {
            if wakes.is_empty() {
                return;
            }
            let mut inner = self.inner.borrow_mut();
            for &t in wakes {
                if t != me {
                    inner.runnable.push_back(t);
                }
            }
        }

        /// Terminal yield of a finished fiber. Never returns: a finished
        /// tid has no pending op and no waiter registration, so nothing can
        /// re-enqueue it (the defensive loop turns a transport bug into a
        /// wedge panic in `drive` instead of undefined behavior).
        fn finish_current(&self) -> ! {
            self.inner.borrow_mut().finished += 1;
            loop {
                self.suspend();
            }
        }
    }

    /// Rust-side entry of every fiber (called by [`fiber_boot`]): runs the
    /// thread to its finish point, then parks the fiber for good. This
    /// frame never returns or unwinds, so it owns nothing: everything the
    /// thread held — its `Arc`s of the engine state and the body, its
    /// [`SimThread`] — lives in [`run_fiber`]'s frame and is dropped when
    /// that returns. Otherwise every run's engine state would leak.
    unsafe extern "C" fn fiber_entry(arg: *mut BootArgs) -> ! {
        // SAFETY: `arg` points at the Box the Fiber owns; the runtime (and
        // therefore the fiber table) outlives this fiber.
        let (rt, tid) = unsafe { ((*arg).rt, (*arg).tid) };
        let rt = unsafe { &*rt };
        run_fiber(rt, tid);
        rt.finish_current()
    }

    /// Runs the episode body with a fiber-transport [`SimThread`], then
    /// routes through the engine's finish protocol. Panics — user or the
    /// engine's internal `AbortSignal` tear-down — are caught here;
    /// unwinding past the hand-seeded boot frame would be undefined
    /// behavior.
    fn run_fiber(rt: &FiberRt, tid: usize) {
        let (shared, body, nthreads) = {
            let inner = rt.inner.borrow();
            (Arc::clone(&inner.shared), Arc::clone(&inner.body), inner.fibers.len())
        };
        let ctx = SimThread::new(Arc::clone(&shared), tid, nthreads, Some(NonNull::from(rt)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
        let panic_msg = match result {
            Ok(()) => None,
            Err(p) => {
                if (*p).is::<crate::engine::AbortSignal>() {
                    None // internal tear-down, not a user panic
                } else {
                    Some(crate::engine::panic_message(&*p))
                }
            }
        };
        let deferred = ctx.take_deferred();
        drop(ctx);
        drop(body);
        let (wakes, _all_done) = shared.finish_thread_core(tid, panic_msg, deferred);
        rt.enqueue_wakes(&wakes, tid);
    }

    /// Runs one episode entirely on fibers: every simulated thread becomes
    /// a coroutine on the calling OS thread. Semantics and results are
    /// identical to the OS-thread transport.
    pub(crate) fn run_on_fibers(
        builder: SimBuilder,
        body: Arc<dyn Fn(&SimThread) + Send + Sync>,
    ) -> Result<RunStats, SimError> {
        crate::engine::silence_abort_panics();
        let nthreads = builder.nthreads;
        let shared = Arc::new(builder.into_shared());
        let rt = Box::new(FiberRt {
            inner: RefCell::new(RtInner {
                driver_ctx: Context { rsp: 0 },
                fibers: Vec::with_capacity(nthreads),
                runnable: VecDeque::with_capacity(nthreads),
                current: None,
                finished: 0,
                shared: Arc::clone(&shared),
                body,
            }),
        });
        let rt_ptr: *const FiberRt = &*rt;
        {
            let mut inner = rt.inner.borrow_mut();
            for (tid, stack) in pool_take(nthreads).into_iter().enumerate() {
                let mut boot = Box::new(BootArgs { rt: rt_ptr, tid });
                let arg: *mut BootArgs = &mut *boot;
                let ctx = prepare_stack(&stack, arg);
                inner.fibers.push(Fiber { ctx, stack, _boot: boot });
                // Seed in tid order: before any operation is posted, every
                // start order yields the same engine schedule, but tid
                // order keeps the very first handoff sequence obvious.
                inner.runnable.push_back(tid);
            }
        }
        rt.drive();
        let result = shared.collect();
        pool_put(rt.inner.borrow_mut().fibers.drain(..).map(|f| f.stack));
        result
    }
}

#[cfg(not(all(target_arch = "x86_64", unix)))]
pub(crate) use stub::{run_on_fibers, FiberRt};

#[cfg(not(all(target_arch = "x86_64", unix)))]
mod stub {
    use super::*;

    /// Placeholder so [`SimThread`](crate::engine::SimThread) compiles on
    /// architectures without a fiber implementation; never instantiated
    /// ([`fibers_enabled`](super::fibers_enabled) is `false`).
    pub(crate) struct FiberRt {
        _never: std::convert::Infallible,
    }

    impl FiberRt {
        pub(crate) fn suspend(&self) {
            match self._never {}
        }

        pub(crate) fn enqueue_wakes(&self, _wakes: &[usize], _me: usize) {
            match self._never {}
        }
    }

    pub(crate) fn run_on_fibers(
        _builder: SimBuilder,
        _body: Arc<dyn Fn(&SimThread) + Send + Sync>,
    ) -> Result<RunStats, SimError> {
        unreachable!("fiber transport is gated off on this architecture")
    }
}
