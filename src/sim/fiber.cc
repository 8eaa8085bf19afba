#include "sim/fiber.hh"

#include <cstdint>
#include <cstring>

#include "base/logging.hh"

// AddressSanitizer must be told about every stack switch; without the
// start/finish annotations it attributes fiber frames to the scheduler
// stack and reports false stack-buffer-overflow / use-after-return
// errors under scripts/check_sanitize.sh.
#if defined(__SANITIZE_ADDRESS__)
#define NOWCLUSTER_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NOWCLUSTER_ASAN_FIBERS 1
#endif
#endif

// ThreadSanitizer likewise models each fiber stack as a fiber; the
// create/switch/destroy annotations keep it from reporting false races
// between frames that alternate on the same OS thread
// (NOWCLUSTER_SANITIZE=thread; scripts/check_sanitize.sh thread).
#if defined(__SANITIZE_THREAD__)
#define NOWCLUSTER_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NOWCLUSTER_TSAN_FIBERS 1
#endif
#endif

#ifdef NOWCLUSTER_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef NOWCLUSTER_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#ifdef NOWCLUSTER_FIBER_ASM
// Switch stacks: push the x86-64 SysV callee-saved registers (rbp, rbx,
// r12-r15) and the FP control state the ABI also makes callee-saved
// (MXCSR, x87 control word) onto the current stack, store the stack
// pointer to *save, load `load` as the stack pointer, pop the same
// frame from it and return into whichever switch saved it. Everything
// else is caller-saved, so the compiler has already spilled it around
// the call. Frame, from the saved stack pointer up:
//   +0 MXCSR (4 bytes), +4 x87 control word (2 bytes),
//   +8 r12, +16 r13, +24 r14, +32 r15, +40 rbx, +48 rbp, +56 return.
// The routine moves no shadow stack, which is why src/CMakeLists.txt
// builds this file without the CET shadow-stack marking.
extern "C" void nowcluster_fiber_switch(void **save, void *load) noexcept;

asm(".pushsection .text\n"
    ".globl nowcluster_fiber_switch\n"
    ".hidden nowcluster_fiber_switch\n"
    ".type nowcluster_fiber_switch, @function\n"
    ".p2align 4\n"
    "nowcluster_fiber_switch:\n"
    "    pushq %rbp\n"
    "    pushq %rbx\n"
    "    pushq %r15\n"
    "    pushq %r14\n"
    "    pushq %r13\n"
    "    pushq %r12\n"
    "    subq $8, %rsp\n"
    "    stmxcsr (%rsp)\n"
    "    fnstcw 4(%rsp)\n"
    "    movq %rsp, (%rdi)\n"
    "    movq %rsi, %rsp\n"
    "    ldmxcsr (%rsp)\n"
    "    fldcw 4(%rsp)\n"
    "    addq $8, %rsp\n"
    "    popq %r12\n"
    "    popq %r13\n"
    "    popq %r14\n"
    "    popq %r15\n"
    "    popq %rbx\n"
    "    popq %rbp\n"
    "    ret\n"
    ".size nowcluster_fiber_switch, .-nowcluster_fiber_switch\n"
    ".popsection\n");
#endif

namespace nowcluster {

namespace {

// The fiber currently executing on this thread. One simulation runs
// entirely on one thread; thread_local keeps the parallel experiment
// runner (and tests that spawn threads) safe.
thread_local Fiber *current_fiber = nullptr;

} // namespace

// ----------------------------------------------------------------------
// FiberStackPool
// ----------------------------------------------------------------------

FiberStackPool &
FiberStackPool::local()
{
    thread_local FiberStackPool pool;
    return pool;
}

char *
FiberStackPool::acquire(std::size_t size)
{
    // Newest-first: the most recently released stack is the most likely
    // to still be warm in cache, and sizes are uniform in practice.
    for (std::size_t i = pooled_.size(); i-- > 0;) {
        if (pooled_[i].size == size) {
            char *stack = pooled_[i].stack;
            pooled_.erase(pooled_.begin() + static_cast<long>(i));
            ++hits_;
#ifdef NOWCLUSTER_ASAN_FIBERS
            // Clear any shadow poison left by the previous occupant's
            // dead frames before handing the memory to a new fiber.
            __asan_unpoison_memory_region(stack, size);
#endif
            return stack;
        }
    }
    ++misses_;
    return new char[size];
}

void
FiberStackPool::release(char *stack, std::size_t size)
{
    if (pooled_.size() >= kMaxPooled) {
        delete[] stack;
        return;
    }
#ifdef NOWCLUSTER_ASAN_FIBERS
    __asan_unpoison_memory_region(stack, size);
#endif
    pooled_.push_back(PooledStack{stack, size});
}

void
FiberStackPool::clear()
{
    for (PooledStack &p : pooled_)
        delete[] p.stack;
    pooled_.clear();
}

FiberStackPool::~FiberStackPool()
{
    clear();
}

// ----------------------------------------------------------------------
// Fiber
// ----------------------------------------------------------------------

Fiber::Fiber(std::function<void()> body, std::size_t stack_size)
    : body_(std::move(body)),
      stack_(FiberStackPool::local().acquire(stack_size)),
      stackSize_(stack_size)
{
    panic_if(stack_size < 16 * 1024, "fiber stack too small: %zu",
             stack_size);
#ifdef NOWCLUSTER_FIBER_ASM
    // Pre-build the frame the first switchIn() pops: zeroed registers,
    // the creating thread's FP control state, and a return into
    // trampoline(). The zero slot above it is trampoline's own return
    // address, which ends unwinds (gdb, sanitizers) and leaves rsp at
    // 8 mod 16 on entry, as if trampoline had been called.
    std::uint32_t mxcsr = 0;
    std::uint16_t fpucw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));
    const std::uint64_t frame[9] = {
        mxcsr | std::uint64_t{fpucw} << 32,
        0, 0, 0, 0, 0, 0, // r12, r13, r14, r15, rbx, rbp
        reinterpret_cast<std::uintptr_t>(&Fiber::trampoline),
        0,
    };
    const std::uintptr_t top =
        reinterpret_cast<std::uintptr_t>(stack_ + stack_size) &
        ~std::uintptr_t{15};
    sp_ = reinterpret_cast<void *>(top - sizeof frame);
    std::memcpy(sp_, frame, sizeof frame);
#else
    if (getcontext(&context_) != 0)
        panic("getcontext failed");
    context_.uc_stack.ss_sp = stack_;
    context_.uc_stack.ss_size = stack_size;
    // trampoline() leaves through an explicit switchOut() rather than by
    // returning into the uc_link setcontext: libtsan intercepts
    // swapcontext but not the uc_link path, and a __tsan_switch_to_fiber
    // left unpaired with an intercepted switch corrupts TSan's shadow
    // stack (observed as delayed SEGVs inside the runtime under GCC 12).
    // uc_link stays set as a backstop.
    context_.uc_link = &returnContext_;
    makecontext(&context_, &Fiber::trampoline, 0);
#endif
#ifdef NOWCLUSTER_TSAN_FIBERS
    tsanFiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
    // Destroying a suspended (started but unfinished) fiber leaks any
    // resources held by frames on its stack; warn so tests notice.
    if (started_ && !finished_)
        warn("destroying unfinished fiber");
#ifdef NOWCLUSTER_TSAN_FIBERS
    if (tsanFiber_)
        __tsan_destroy_fiber(tsanFiber_);
#endif
    FiberStackPool::local().release(stack_, stackSize_);
}

#ifdef NOWCLUSTER_FIBER_ASM
void
Fiber::switchIn()
{
    nowcluster_fiber_switch(&returnSp_, sp_);
}

void
Fiber::switchOut()
{
    nowcluster_fiber_switch(&sp_, returnSp_);
}
#else
void
Fiber::switchIn()
{
    if (swapcontext(&returnContext_, &context_) != 0)
        panic("swapcontext into fiber failed");
}

void
Fiber::switchOut()
{
    if (swapcontext(&context_, &returnContext_) != 0)
        panic("swapcontext out of fiber failed");
}
#endif

void
Fiber::trampoline()
{
    // resume() points current_fiber at the fiber before switching in.
    Fiber *self = current_fiber;
#ifdef NOWCLUSTER_ASAN_FIBERS
    // Complete the switch begun in resume(), learning where the
    // scheduler's stack lives so yield() can announce switches back.
    __sanitizer_finish_switch_fiber(nullptr, &self->asanReturnStack_,
                                    &self->asanReturnSize_);
#endif
    self->body_();
    self->finished_ = true;
    current_fiber = nullptr;
#ifdef NOWCLUSTER_ASAN_FIBERS
    // This stack is dead after the final switch: fake_stack_save of
    // nullptr tells ASan to release its shadow.
    __sanitizer_start_switch_fiber(nullptr, self->asanReturnStack_,
                                   self->asanReturnSize_);
#endif
#ifdef NOWCLUSTER_TSAN_FIBERS
    __tsan_switch_to_fiber(self->tsanReturn_, 0);
#endif
    // Never returns: resume() refuses finished fibers.
    self->switchOut();
}

void
Fiber::resume()
{
    panic_if(current_fiber != nullptr,
             "Fiber::resume called from inside a fiber");
    panic_if(finished_, "resuming a finished fiber");
    current_fiber = this;
    started_ = true;
#ifdef NOWCLUSTER_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&asanMainFake_, stack_, stackSize_);
#endif
#ifdef NOWCLUSTER_TSAN_FIBERS
    tsanReturn_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
    switchIn();
#ifdef NOWCLUSTER_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(asanMainFake_, nullptr, nullptr);
#endif
    // We only get back here after the fiber yields or finishes.
    current_fiber = nullptr;
}

void
Fiber::yield()
{
    Fiber *self = current_fiber;
    panic_if(self == nullptr, "Fiber::yield called outside a fiber");
    current_fiber = nullptr;
#ifdef NOWCLUSTER_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&self->asanFiberFake_,
                                   self->asanReturnStack_,
                                   self->asanReturnSize_);
#endif
#ifdef NOWCLUSTER_TSAN_FIBERS
    __tsan_switch_to_fiber(self->tsanReturn_, 0);
#endif
    self->switchOut();
#ifdef NOWCLUSTER_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(self->asanFiberFake_,
                                    &self->asanReturnStack_,
                                    &self->asanReturnSize_);
#endif
    current_fiber = self;
}

Fiber *
Fiber::current()
{
    return current_fiber;
}

} // namespace nowcluster
