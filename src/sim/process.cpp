#include "sim/process.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <utility>

#include "common/status.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCIMPI_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define SCIMPI_FIBER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define SCIMPI_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define SCIMPI_FIBER_TSAN 1
#endif

#ifdef SCIMPI_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef SCIMPI_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "src/sim/process.cpp: the fiber switch is written for x86-64 only"
#endif

// The one fiber switch. scimpi_fiber_switch(save, next) pushes the SysV
// callee-saved registers, MXCSR and the x87 control word onto the running
// stack, stores the stack pointer in *save, loads `next` and pops the same
// frame from there. Caller-saved state is dead across the call anyway, and
// the frame has the same shape on both stacks, so one CFI description holds
// at every instruction.
//
// A new fiber's stack is seeded with such a frame whose return address is
// scimpi_fiber_trampoline: it calls r12(rbx), i.e. the entry function with
// the Process, on a 16-byte aligned stack. Its CFI marks the outermost
// frame (rip undefined) so unwinders stop there; the nop keeps a return
// address equal to the trampoline inside its FDE.
extern "C" {
void scimpi_fiber_switch(void** save, void* next);
void scimpi_fiber_trampoline();
}

asm(R"(
    .pushsection .text
    .p2align 4
    .globl scimpi_fiber_switch
    .hidden scimpi_fiber_switch
    .type scimpi_fiber_switch, @function
scimpi_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbp, 0
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbx, 0
    pushq %r12
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r12, 0
    pushq %r13
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r13, 0
    pushq %r14
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r14, 0
    pushq %r15
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r15, 0
    subq $8, %rsp
    .cfi_adjust_cfa_offset 8
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    .cfi_adjust_cfa_offset -8
    popq %r15
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r15
    popq %r14
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r14
    popq %r13
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r13
    popq %r12
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r12
    popq %rbx
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbx
    popq %rbp
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbp
    ret
    .cfi_endproc
    .size scimpi_fiber_switch, .-scimpi_fiber_switch

    .p2align 4
    .globl scimpi_fiber_trampoline
    .hidden scimpi_fiber_trampoline
    .type scimpi_fiber_trampoline, @function
    .cfi_startproc
    .cfi_undefined %rip
    nop
scimpi_fiber_trampoline:
    movq %rbx, %rdi
    callq *%r12
    ud2
    .cfi_endproc
    .size scimpi_fiber_trampoline, .-scimpi_fiber_trampoline
    .popsection
)");

namespace scimpi::sim {

namespace {

/// The reservation a default thread stack gets; MAP_NORESERVE, so only the
/// pages a fiber actually touches cost memory.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
constexpr std::size_t kGuardBytes = 4096;

/// The C++ runtime's per-thread exception state (the Itanium ABI's
/// __cxa_eh_globals: caught-exception stack, uncaught count). Every fiber
/// keeps its own copy, swapped at each switch, so a fiber parked inside a
/// catch block cannot corrupt another's.
struct EhGlobals {
    void* caught = nullptr;
    unsigned int uncaught = 0;
};

/// Installs `mine` as the thread's exception state; returns the one it
/// replaces in `mine`.
void swap_eh_globals(EhGlobals& mine) {
    void* const live = abi::__cxa_get_globals();
    EhGlobals prev;
    std::memcpy(&prev, live, sizeof prev);
    std::memcpy(live, &mine, sizeof mine);
    mine = prev;
}

/// The frame scimpi_fiber_switch pops, lowest address first.
struct SwitchFrame {
    std::uint32_t mxcsr;
    std::uint16_t x87_cw;
    std::uint16_t pad;
    std::uintptr_t r15, r14, r13, r12, rbx, rbp;
    std::uintptr_t ret;
};
static_assert(sizeof(SwitchFrame) == 64);

}  // namespace

/// A process's stack and saved stack pointers. Exactly one side runs at a
/// time: the fiber (between enter() and leave()/exit()) or its caller, the
/// scheduler whose stack pointer enter() saves. Every switch is annotated
/// for the sanitizer in use.
struct Process::Fiber {
    std::byte* map;            // guard page, then the stack
    void* self = nullptr;      // the fiber's stack pointer, while parked
    void* caller = nullptr;    // the scheduler's, while the fiber runs
    EhGlobals parked_eh;       // exception state of the side not running
#ifdef SCIMPI_FIBER_ASAN
    void* fake = nullptr;         // the fiber's fake stack while parked
    void* caller_fake = nullptr;  // the caller's while the fiber runs
    const void* caller_lo = nullptr;
    std::size_t caller_size = 0;
#endif
#ifdef SCIMPI_FIBER_TSAN
    void* tsan = __tsan_create_fiber(0);
    void* caller_tsan = nullptr;
#endif

    /// Seeds the stack so that the first enter() lands in the trampoline
    /// with 16 bytes of headroom above it. The fiber starts with the FP
    /// control state of the context that first resumes it.
    explicit Fiber(Process& p) : map(map_stack(p.name())) {
        auto* const frame =
            reinterpret_cast<SwitchFrame*>(map + kGuardBytes + kStackBytes - 16) - 1;
        *frame = SwitchFrame{};
        asm volatile("stmxcsr %0" : "=m"(frame->mxcsr));
        asm volatile("fnstcw %0" : "=m"(frame->x87_cw));
        frame->r12 = reinterpret_cast<std::uintptr_t>(&Process::fiber_entry);
        frame->rbx = reinterpret_cast<std::uintptr_t>(&p);
        frame->ret = reinterpret_cast<std::uintptr_t>(&scimpi_fiber_trampoline);
        self = frame;
    }

    ~Fiber() {
#ifdef SCIMPI_FIBER_ASAN
        // Frames left by switches keep their redzones poisoned; a later
        // mapping at this address must not inherit them.
        __asan_unpoison_memory_region(map + kGuardBytes, kStackBytes);
#endif
        ::munmap(map, kGuardBytes + kStackBytes);
#ifdef SCIMPI_FIBER_TSAN
        __tsan_destroy_fiber(tsan);
#endif
    }

    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    /// Maps a stack with a PROT_NONE guard page below it, or panics naming
    /// the process.
    static std::byte* map_stack(const std::string& proc) {
        void* m = ::mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
        if (m != MAP_FAILED && ::mprotect(m, kGuardBytes, PROT_NONE) == 0)
            return static_cast<std::byte*>(m);
        const int err = errno;
        if (m != MAP_FAILED) ::munmap(m, kGuardBytes + kStackBytes);
        panic("sim: cannot map a fiber stack for process " + proc + ": " +
              std::strerror(err));
    }

    /// Caller side: run the fiber until it leaves or exits.
    void enter() {
        swap_eh_globals(parked_eh);
#ifdef SCIMPI_FIBER_ASAN
        __sanitizer_start_switch_fiber(&caller_fake, map + kGuardBytes, kStackBytes);
#endif
#ifdef SCIMPI_FIBER_TSAN
        caller_tsan = __tsan_get_current_fiber();
        __tsan_switch_to_fiber(tsan, 0);
#endif
        scimpi_fiber_switch(&caller, self);
#ifdef SCIMPI_FIBER_ASAN
        __sanitizer_finish_switch_fiber(caller_fake, nullptr, nullptr);
#endif
    }

    /// Fiber side, on arrival: learn the caller's stack for the way back.
    void arrived() {
#ifdef SCIMPI_FIBER_ASAN
        __sanitizer_finish_switch_fiber(fake, &caller_lo, &caller_size);
#endif
    }

    /// Fiber side: park and return to the caller until entered again.
    void leave() {
        switch_to_caller(false);
        arrived();
    }

    /// Fiber side, last switch: the stack is never resumed.
    [[noreturn]] void exit() {
        switch_to_caller(true);
        std::abort();  // unreachable: nothing enters a finished fiber
    }

private:
    void switch_to_caller([[maybe_unused]] bool last) {
        swap_eh_globals(parked_eh);
#ifdef SCIMPI_FIBER_ASAN
        __sanitizer_start_switch_fiber(last ? nullptr : &fake, caller_lo, caller_size);
#endif
#ifdef SCIMPI_FIBER_TSAN
        __tsan_switch_to_fiber(caller_tsan, 0);
#endif
        scimpi_fiber_switch(&self, caller);
    }
};

Process::Process(Engine& engine, int id, std::string name, Body body)
    : engine_(engine), id_(id), name_(std::move(name)), body_(std::move(body)) {}

Process::~Process() {
    if (fiber_ && state_ != State::finished) {
        // Parked mid-body: the stack unwinds (suspend() throws
        // ShutdownSignal), running every destructor on it.
        shutdown_ = true;
        resume_from_engine();
    }
}

SimTime Process::now() const { return engine_.now(); }

void Process::fiber_entry(Process* p) {
    // Complete the switch before anything else runs on this stack: the
    // compiler may treat fiber_main() as noreturn and let the sanitizer
    // inspect the stack right before calling it.
    p->fiber_->arrived();
    p->fiber_main();
}

void Process::fiber_main() {
    try {
        state_ = State::running;
        body_(*this);
    } catch (const ShutdownSignal&) {
        // Engine tear-down: unwind silently.
    } catch (const std::exception& e) {
        engine_.pending_error_ = name_ + ": " + e.what();
    } catch (...) {
        engine_.pending_error_ = name_ + ": unknown exception";
    }
    state_ = State::finished;
    fiber_->exit();
}

void Process::resume_from_engine() {
    if (state_ == State::created) {
        fiber_ = std::make_unique<Fiber>(*this);
        state_ = State::ready;
    }
    // Argument-less primitives reach the schedule controller through
    // sim::current_engine(); bind it for the slice, restore it after.
    Engine* const outer = current_engine();
    set_current_engine(&engine_);
    fiber_->enter();
    set_current_engine(outer);
}

void Process::suspend() {
    if (!shutdown_) fiber_->leave();
    if (shutdown_) throw ShutdownSignal{};
    state_ = State::running;
}

void Process::delay(SimTime ns) {
    SCIMPI_REQUIRE(engine_.current() == this,
                   "delay() must be called from the process's own body");
    SCIMPI_REQUIRE(ns >= 0, "delay() with negative duration");
    engine_.schedule(*this, engine_.now() + ns);
    state_ = State::blocked;
    suspend();
}

void Process::block(std::string_view why) {
    SCIMPI_REQUIRE(engine_.current() == this,
                   "block() must be called from the process's own body");
    wait_why_ = why;
    state_ = State::blocked;
    suspend();
    wait_why_.clear();
}

}  // namespace scimpi::sim
