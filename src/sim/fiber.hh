/**
 * @file
 * Stackful coroutines (fibers) used to run one SPMD program instance per
 * simulated processor.
 *
 * Each fiber has its own stack so that application code can block in
 * the middle of arbitrarily nested calls (reads, locks, barriers)
 * exactly like a real Split-C program would, while the event-driven
 * kernel advances virtual time underneath.
 *
 * On x86-64 a switch is one hand-written routine (sim/fiber.cc) that
 * saves the SysV callee-saved registers, MXCSR and the x87 control
 * word on the outgoing stack and swaps the stack pointer: no system
 * call, no signal-mask swap. Other targets fall back to ucontext.
 *
 * Stacks come from a thread-local pool (FiberStackPool): a sweep creates
 * and destroys one fiber per node per simulation point, and recycling
 * the 256 KiB stacks instead of re-new-ing them removes the dominant
 * allocation cost of standing up each point. The pool is thread-local so
 * parallel experiment workers (harness/runner.hh) never contend or share
 * stack memory across threads.
 */

#ifndef NOWCLUSTER_SIM_FIBER_HH_
#define NOWCLUSTER_SIM_FIBER_HH_

// The register-swap switch is written for the x86-64 SysV ABI (LP64,
// ELF); every other target builds the ucontext fallback.
#if defined(__x86_64__) && defined(__LP64__) && defined(__ELF__)
#define NOWCLUSTER_FIBER_ASM 1
#else
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace nowcluster {

/**
 * Thread-local recycler of fiber stacks. acquire() prefers a pooled
 * stack of the exact requested size; release() keeps up to kMaxPooled
 * stacks for reuse and frees the rest.
 */
class FiberStackPool
{
  public:
    /** Stacks retained per thread; covers a 64-node simulation point. */
    static constexpr std::size_t kMaxPooled = 64;

    /** The calling thread's pool. */
    static FiberStackPool &local();

    /** Get a stack of exactly `size` bytes (pooled or freshly made). */
    char *acquire(std::size_t size);

    /** Return a stack obtained from acquire(). */
    void release(char *stack, std::size_t size);

    /** Free every pooled stack (tests; worker shutdown is automatic). */
    void clear();

    std::size_t pooledCount() const { return pooled_.size(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    ~FiberStackPool();

  private:
    struct PooledStack
    {
        char *stack;
        std::size_t size;
    };

    std::vector<PooledStack> pooled_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * A cooperatively scheduled execution context with its own stack.
 *
 * Only one fiber runs at a time; resume() transfers control from the
 * scheduler into the fiber, and yield() transfers back. Fibers must not
 * be resumed after finishing.
 */
class Fiber
{
  public:
    /**
     * Create a fiber that will run body when first resumed.
     * @param body  The function to execute on the fiber's stack.
     * @param stack_size  Stack size in bytes (default 256 KiB).
     */
    explicit Fiber(std::function<void()> body,
                   std::size_t stack_size = 256 * 1024);

    /** Stack size this fiber was created with. */
    std::size_t stackSize() const { return stackSize_; }

    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Run the fiber until it yields or finishes.
     * Must be called from scheduler context (not from inside a fiber).
     */
    void resume();

    /**
     * Suspend the currently running fiber, returning control to the
     * resume() call that started it. Must be called from fiber context.
     */
    static void yield();

    /** The fiber currently executing, or nullptr in scheduler context. */
    static Fiber *current();

    /** True once body has returned. */
    bool finished() const { return finished_; }

  private:
    static void trampoline();
    /** Save the scheduler's context and continue the fiber's. */
    void switchIn();
    /** Save the fiber's context and continue the scheduler's. */
    void switchOut();

    std::function<void()> body_;
    char *stack_; ///< Owned; returned to FiberStackPool::local().
    std::size_t stackSize_;
#ifdef NOWCLUSTER_FIBER_ASM
    void *sp_ = nullptr;       ///< Fiber's saved stack pointer.
    void *returnSp_ = nullptr; ///< Scheduler's, while the fiber runs.
#else
    ucontext_t context_;
    ucontext_t returnContext_;
#endif
    bool started_ = false;
    bool finished_ = false;
    /**
     * AddressSanitizer fiber-switch bookkeeping (unused otherwise):
     * ASan tracks a shadow stack per thread and must be told about every
     * stack switch, or it reports wild stack-use-after-return errors.
     */
    void *asanMainFake_ = nullptr;
    void *asanFiberFake_ = nullptr;
    const void *asanReturnStack_ = nullptr;
    std::size_t asanReturnSize_ = 0;
    /**
     * ThreadSanitizer equivalent: TSan models each fiber stack as a
     * "fiber" and must be told about every switch, or it reports
     * false races between frames that merely share the OS thread.
     */
    void *tsanFiber_ = nullptr;
    void *tsanReturn_ = nullptr;
};

} // namespace nowcluster

#endif // NOWCLUSTER_SIM_FIBER_HH_
