#include "sim/simulation.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sim/fault.h"

// Sanitizers must be told about every stack switch: ASan to track each
// fiber's stack bounds and fake stack, TSan to keep a shadow state per fiber.
#if defined(__SANITIZE_ADDRESS__)
#define CITUSX_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CITUSX_TSAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CITUSX_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define CITUSX_TSAN_FIBERS 1
#endif
#endif
#ifdef CITUSX_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#endif
#ifdef CITUSX_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace citusx::sim {

namespace {

thread_local Process* g_current_process = nullptr;

// A fiber's usable stack: glibc's default for a thread. Mapped with
// MAP_NORESERVE, so only the pages a process touches cost memory.
constexpr size_t kStackSize = size_t{8} << 20;

size_t GuardSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Maps a stack with a PROT_NONE guard page below it, so running off its end
// faults instead of writing into a neighbouring mapping. Returns the lowest
// usable byte.
char* MapStack() {
  const size_t guard = GuardSize();
  void* base = mmap(nullptr, guard + kStackSize, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  if (base == MAP_FAILED || mprotect(base, guard, PROT_NONE) != 0) {
    std::perror("[sim] mapping a process stack");
    std::abort();
  }
  return static_cast<char*>(base) + guard;
}

void UnmapStack(char* stack) {
  const size_t guard = GuardSize();
  munmap(stack - guard, guard + kStackSize);
}

// ASan: called on the stack just entered; reports the stack that was left.
void FinishSwitch(void* fake_stack, const void** from_bottom,
                  size_t* from_size) {
#ifdef CITUSX_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, from_bottom, from_size);
#endif
}

// TSan: each process is a fiber; a switch orders everything before it on
// the old fiber before everything after it on the new one.
void* CurrentTsanFiber() {
#ifdef CITUSX_TSAN_FIBERS
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

void* CreateTsanFiber() {
#ifdef CITUSX_TSAN_FIBERS
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

void DestroyTsanFiber(void* fiber) {
#ifdef CITUSX_TSAN_FIBERS
  __tsan_destroy_fiber(fiber);
#endif
}

// Every switch between the driver and a process goes through here. Saves
// the running context in `from` and resumes `to`, whose stack starts at
// `to_bottom` and whose TSan fiber is `to_fiber`; `p` is the process being
// entered or left. `fake_stack` keeps ASan's fake frames of the stack being
// left, or is null when that stack is never resumed. Returns when something
// switches back to `from`; the caller then calls FinishSwitch.
void SwitchFiber(const Process* p, ucontext_t* from, const ucontext_t* to,
                 const void* to_bottom, size_t to_size, void* to_fiber,
                 void** fake_stack) {
  if (NoYieldScope::depth() > 0) {
    std::fprintf(stderr,
                 "[sim] fiber switch of process '%s' inside a NoYieldScope: "
                 "a no-yield section may not span a simulation yield\n",
                 p->name().c_str());
    std::abort();
  }
#ifdef CITUSX_ASAN_FIBERS
  // A stack left for good returns to the pool: unpoison the frames it
  // abandons, so the next process on it starts from clean shadow.
  if (fake_stack == nullptr) __asan_handle_no_return();
  __sanitizer_start_switch_fiber(fake_stack, to_bottom, to_size);
#endif
#ifdef CITUSX_TSAN_FIBERS
  __tsan_switch_to_fiber(to_fiber, 0);
#endif
  if (swapcontext(from, to) != 0) {
    std::perror("[sim] swapcontext");
    std::abort();
  }
}

}  // namespace

Process* Simulation::Current() { return g_current_process; }

Simulation::Simulation() = default;

Simulation::~Simulation() {
  Shutdown();
  for (char* stack : stacks_) UnmapStack(stack);
}

FaultInjector& Simulation::faults() {
  if (faults_ == nullptr) faults_ = std::make_unique<FaultInjector>(this);
  return *faults_;
}

Process* Simulation::Spawn(std::string name, std::function<void()> fn,
                           bool daemon) {
  assert(!shutdown_done_ && "Spawn after Shutdown");
  finished_.clear();
  auto owned = std::unique_ptr<Process>(
      new Process(this, next_id_++, std::move(name), daemon));
  Process* p = owned.get();
  p->fn_ = std::move(fn);
  if (free_stacks_.empty()) {
    p->stack_ = MapStack();
    stacks_.push_back(p->stack_);
  } else {
    p->stack_ = free_stacks_.back();
    free_stacks_.pop_back();
  }
  if (getcontext(&p->context_) != 0) {
    std::perror("[sim] getcontext");
    std::abort();
  }
  p->context_.uc_stack.ss_sp = p->stack_;
  p->context_.uc_stack.ss_size = kStackSize;
  p->context_.uc_link = nullptr;
  makecontext(&p->context_, &Simulation::FiberMain, 0);
  p->tsan_fiber_ = CreateTsanFiber();
  p->entry_ = processes_.insert(processes_.end(), std::move(owned));
  if (!daemon) live_workers_++;
  Enqueue(p, now_);
  return p;
}

void Simulation::FiberMain() {
  Process* self = g_current_process;
  Simulation* sim = self->sim_;
  FinishSwitch(nullptr, &sim->driver_stack_bottom_, &sim->driver_stack_size_);
  if (!self->cancelled_) self->fn_();
  self->fn_ = nullptr;
  self->state_ = Process::State::kDone;
  if (!self->daemon_) sim->live_workers_--;
  sim->Yield(self);
  std::abort();  // the driver never resumes a finished process
}

void Simulation::Enqueue(Process* p, Time t) {
  assert(t >= now_);
  events_.push(Event{t, next_seq_++, p});
}

void Simulation::DispatchNext() {
  Event e = events_.top();
  events_.pop();
  events_processed_++;
  if (e.time > now_) now_ = e.time;
  Process* p = e.process;
  p->state_ = Process::State::kRunning;
  Process* const outer = g_current_process;
  g_current_process = p;
  driver_tsan_fiber_ = CurrentTsanFiber();
  void* fake_stack = nullptr;
  SwitchFiber(p, &driver_context_, &p->context_, p->stack_, kStackSize,
              p->tsan_fiber_, &fake_stack);
  FinishSwitch(fake_stack, nullptr, nullptr);
  g_current_process = outer;
  if (p->state_ != Process::State::kDone) return;
  // The finished fiber is off its stack for good: recycle the stack now and
  // free the Process at the next Spawn.
  DestroyTsanFiber(p->tsan_fiber_);
  free_stacks_.push_back(p->stack_);
  finished_.splice(finished_.end(), processes_, p->entry_);
}

bool Simulation::Yield(Process* self) {
  const bool done = self->state_ == Process::State::kDone;
  SwitchFiber(self, &self->context_, &driver_context_, driver_stack_bottom_,
              driver_stack_size_, driver_tsan_fiber_,
              done ? nullptr : &self->asan_fake_stack_);
  FinishSwitch(self->asan_fake_stack_, &driver_stack_bottom_,
               &driver_stack_size_);
  return !self->cancelled_;
}

bool Simulation::WaitUntil(Time t) {
  Process* self = Current();
  assert(self != nullptr && "WaitUntil outside a simulated process");
  if (self->cancelled_) return false;
  self->state_ = Process::State::kReady;
  Enqueue(self, t < now_ ? now_ : t);
  return Yield(self);
}

bool Simulation::WaitFor(Time d) {
  Process* self = Current();
  assert(self != nullptr && "WaitFor outside a simulated process");
  if (self->cancelled_) return false;
  self->state_ = Process::State::kReady;
  Enqueue(self, now_ + (d < 0 ? 0 : d));
  return Yield(self);
}

bool Simulation::Block() {
  Process* self = Current();
  assert(self != nullptr && "Block outside a simulated process");
  if (self->cancelled_) return false;
  self->state_ = Process::State::kBlocked;
  return Yield(self);
}

void Simulation::Wake(Process* p) {
  if (p->state_ != Process::State::kBlocked) return;
  p->state_ = Process::State::kReady;
  Enqueue(p, now_);
}

void Simulation::Run() {
  while (live_workers_ > 0) {
    if (events_.empty()) {
      // Nothing runnable, so every unfinished worker is parked.
      std::fprintf(stderr,
                   "[sim] Run() returning with %lld blocked worker(s) -- "
                   "simulated deadlock\n",
                   static_cast<long long>(live_workers_));
      return;
    }
    DispatchNext();
  }
}

void Simulation::Shutdown() {
  if (shutdown_done_) return;
  stopping_ = true;
  for (const auto& p : processes_) {
    p->cancelled_ = true;
    if (p->state_ == Process::State::kBlocked) {
      p->state_ = Process::State::kReady;
      Enqueue(p.get(), now_);
    }
  }
  // Every queued event belongs to an unfinished process, so an empty queue
  // means every process ran to its end (or parked again, never to wake).
  while (!events_.empty()) DispatchNext();
  shutdown_done_ = true;
}

}  // namespace citusx::sim
