#include "stream/scheduler.hpp"

#include <sstream>

#include "stream/channel.hpp"

namespace fblas::stream {

int Scheduler::add_module(TaskHandle handle, std::string name) {
  FBLAS_REQUIRE(!ran_, "cannot add modules after run()");
  const int id = static_cast<int>(modules_.size());
  handle.promise().sched = this;
  handle.promise().module_id = id;
  modules_.push_back(ModuleEntry{handle, std::move(name)});
  ready_.push_back(id);
  ++live_;
  return id;
}

void Scheduler::block_on_pop(int id, ChannelBase& ch) {
  modules_[id].state = ModuleState::BlockedPop;
  modules_[id].blocked_on = &ch;
  ++blocked_modules_;
  ch.note_stall();
}

void Scheduler::block_on_push(int id, ChannelBase& ch) {
  modules_[id].state = ModuleState::BlockedPush;
  modules_[id].blocked_on = &ch;
  ++blocked_modules_;
  ch.note_stall();
}

void Scheduler::wake(int id) {
  ModuleEntry& m = modules_[id];
  if (m.state == ModuleState::BlockedPop || m.state == ModuleState::BlockedPush) {
    m.state = ModuleState::Ready;
    m.blocked_on = nullptr;
    --blocked_modules_;
    ready_.push_back(id);
  }
}

void Scheduler::note_nonfinite(const ChannelBase& ch, double value) {
  if (!taint_.tainted) {
    taint_.tainted = true;
    taint_.module = current_ >= 0 ? modules_[current_].name : "host";
    taint_.channel = ch.name();
    taint_.value = value;
    taint_.cycle = cycle_;
  }
  if (taint_trap_) {
    std::ostringstream os;
    os << "non-finite value " << value << " pushed into channel '"
       << ch.name() << "' by module '"
       << (current_ >= 0 ? modules_[current_].name : "host")
       << "' at cycle " << cycle_;
    throw TaintError(os.str());
  }
}

bool Scheduler::corrupt_hits(const ChannelBase& ch) {
  if (++corrupt_seen_ != corrupt_target_) return false;
  corrupt_fired_ = true;
  corrupt_channel_ = ch.name();
  corrupt_module_ = current_ >= 0 ? modules_[current_].name : "host";
  return true;
}

void Scheduler::sample_occupancy() {
  occupancy_samples_.resize(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    occupancy_samples_[c].push_back(
        static_cast<std::uint32_t>(channels_[c]->size()));
  }
}

inline void Scheduler::advance_cycle() {
  if (trace_occupancy_) sample_occupancy();
  // Stall accounting: every module still parked on a channel at a cycle
  // boundary burned this cycle waiting — the per-graph backpressure
  // total the tracing layer exports next to the cycle count.
  stall_module_cycles_ += static_cast<std::uint64_t>(blocked_modules_);
  ++cycle_;
  ++cycle_edges_;  // DRAM banks refill lazily (DramBank::grant_elems)
  for (const int id : cycle_waiters_) {
    modules_[id].state = ModuleState::Ready;
    ready_.push_back(id);
  }
  cycle_waiters_.clear();
}

inline void Scheduler::resume_next() {
  const int id = ready_.front();
  ready_.pop_front();
  ModuleEntry& m = modules_[id];
  m.state = ModuleState::Running;
  ++m.resumes;
  current_ = id;
  m.handle.resume();
  current_ = -1;
  if (m.handle.done()) {
    m.state = ModuleState::Done;
    --live_;
    if (m.handle.promise().exception) {
      std::rethrow_exception(m.handle.promise().exception);
    }
  } else if (m.state == ModuleState::Running) {
    throw_unknown_suspend(m.name);
  }
}

void Scheduler::run(const Watchdog& watchdog) {
  FBLAS_REQUIRE(!ran_, "a Scheduler can only run once");
  ran_ = true;
  // Limits and an injected wedge are tested only on the guarded path, so
  // the common run pays nothing for them.
  if (watchdog.enabled() || wedge_after_steps_ != 0) {
    run_guarded(watchdog);
    return;
  }
  while (live_ > 0) {
    if (!ready_.empty()) {
      resume_next();
    } else if (!cycle_waiters_.empty()) {
      advance_cycle();
    } else {
      throw DeadlockError(diagnose_deadlock());
    }
  }
}

void Scheduler::run_guarded(const Watchdog& watchdog) {
  const bool has_deadline = watchdog.wall_deadline.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        watchdog.wall_deadline;
  // A step is one module resume, or one spin of a wedged scheduler; the
  // budget admits exactly max_steps of them.
  std::uint64_t steps = 0;
  while (live_ > 0) {
    if (watchdog.max_cycles != 0 && cycle_ > watchdog.max_cycles) {
      throw_timeout("cycle budget", steps);
    }
    // The wall clock is polled sparsely on the happy path (a syscall per
    // step would dominate small graphs) but every iteration once wedged,
    // so a hung run ends promptly at the deadline.
    if (has_deadline && (wedged_ || (steps & 2047u) == 0) &&
        std::chrono::steady_clock::now() >= deadline) {
      throw_timeout("wall-clock deadline", steps);
    }
    if (ready_.empty() && !wedged_) {
      if (cycle_waiters_.empty()) throw DeadlockError(diagnose_deadlock());
      advance_cycle();
      continue;
    }
    if (watchdog.max_steps != 0 && steps == watchdog.max_steps) {
      throw_timeout("step budget", steps);
    }
    ++steps;
    if (wedged_) {
      // Injected hang: cycles tick but no module is ever resumed again,
      // modeling a kernel wedged mid-stream. Only a watchdog limit ends
      // this loop — without one it spins, like the real stalled board.
      ++cycle_;
      continue;
    }
    if (wedge_after_steps_ != 0 && steps >= wedge_after_steps_) {
      wedged_ = true;
    }
    resume_next();
  }
}

namespace {

const char* state_name(ModuleState s) {
  switch (s) {
    case ModuleState::Ready: return "ready";
    case ModuleState::Running: return "running";
    case ModuleState::BlockedPop: return "blocked popping";
    case ModuleState::BlockedPush: return "blocked pushing";
    case ModuleState::WaitCycle: return "waiting for next cycle";
    case ModuleState::Done: return "done";
  }
  return "?";
}

}  // namespace

std::string Scheduler::diagnose(const std::string& header) const {
  std::ostringstream os;
  os << header;
  os << "Module states:\n";
  for (const ModuleEntry& m : modules_) {
    os << "  module '" << m.name << "': " << state_name(m.state);
    if (m.blocked_on != nullptr) {
      os << " channel '" << m.blocked_on->name() << "' (occupancy "
         << m.blocked_on->size() << "/" << m.blocked_on->capacity() << ")";
    }
    os << ", " << m.resumes << " resumes\n";
  }
  os << "Channel states:\n";
  for (const ChannelBase* ch : channels_) {
    os << "  '" << ch->name() << "': " << ch->size() << "/" << ch->capacity()
       << " buffered, " << ch->total_pushed() << " pushed, "
       << ch->total_popped() << " popped\n";
  }
  return os.str();
}

std::string Scheduler::diagnose_deadlock() const {
  std::ostringstream os;
  os << "streaming graph stalled forever (invalid composition or "
        "undersized channel). Blocked modules:\n";
  for (const ModuleEntry& m : modules_) {
    if (m.state == ModuleState::BlockedPop ||
        m.state == ModuleState::BlockedPush) {
      os << "  module '" << m.name << "' blocked "
         << (m.state == ModuleState::BlockedPop ? "popping" : "pushing")
         << " channel '" << m.blocked_on->name() << "' (occupancy "
         << m.blocked_on->size() << "/" << m.blocked_on->capacity() << ")\n";
    }
  }
  os << "Channel states:\n";
  for (const ChannelBase* ch : channels_) {
    os << "  '" << ch->name() << "': " << ch->size() << "/" << ch->capacity()
       << " buffered, " << ch->total_pushed() << " pushed, "
       << ch->total_popped() << " popped\n";
  }
  return os.str();
}

const std::vector<std::uint32_t>& Scheduler::occupancy_trace(
    std::size_t chan) const {
  if (!trace_occupancy_) {
    throw ConfigError(
        "Scheduler::occupancy_trace: occupancy sampling was never enabled "
        "— call enable_occupancy_trace() before run() (and note it only "
        "records in cycle mode)");
  }
  if (chan >= channels_.size()) {
    std::ostringstream os;
    os << "Scheduler::occupancy_trace: channel index " << chan
       << " out of range (" << channels_.size() << " channels registered)";
    throw ConfigError(os.str());
  }
  if (chan >= occupancy_samples_.size()) {
    // Enabled, but the clock never advanced (functional mode, or the
    // graph drained within cycle 0): defined-empty instead of indexing
    // a vector advance_cycle never grew.
    static const std::vector<std::uint32_t> kEmpty;
    return kEmpty;
  }
  return occupancy_samples_[chan];
}

void Scheduler::throw_unknown_suspend(const std::string& module) {
  // The module suspended without recording a reason — this would be a
  // runtime bug, not a user error.
  throw Error("module '" + module + "' suspended with unknown reason");
}

void Scheduler::throw_timeout(const char* limit, std::uint64_t steps) {
  std::ostringstream os;
  os << "watchdog expired (" << limit << ") after " << cycle_
     << " simulated cycles and " << steps << " scheduler steps; the graph "
     << (wedged_ ? "is wedged (injected hang)"
                 : "is live-locked or pathologically slow")
     << ".\n";
  throw TimeoutError(diagnose(os.str()));
}

}  // namespace fblas::stream
