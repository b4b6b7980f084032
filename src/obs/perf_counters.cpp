#include "obs/perf_counters.h"

#include <cstdlib>
#include <cstring>

#include "obs/log.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace kcc::obs {

HwCounterValues HwCounterValues::operator-(const HwCounterValues& base) const {
  HwCounterValues out;
  out.available = available && base.available;
  // Counters are monotonic within a process, but guard against a reset
  // between snapshots anyway.
  auto sub = [](std::uint64_t a, std::uint64_t b) { return a >= b ? a - b : 0; };
  out.cycles = sub(cycles, base.cycles);
  out.instructions = sub(instructions, base.instructions);
  out.branch_misses = sub(branch_misses, base.branch_misses);
  out.cache_misses = sub(cache_misses, base.cache_misses);
  out.task_clock_ns = sub(task_clock_ns, base.task_clock_ns);
  return out;
}

HwCounterValues& HwCounterValues::operator+=(const HwCounterValues& delta) {
  available = available || delta.available;
  cycles += delta.cycles;
  instructions += delta.instructions;
  branch_misses += delta.branch_misses;
  cache_misses += delta.cache_misses;
  task_clock_ns += delta.task_clock_ns;
  return *this;
}

const char* const* hw_counter_names() {
  static const char* const names[kHwCounterCount] = {
      "cycles", "instructions", "branch_misses", "cache_misses",
      "task_clock_ns"};
  return names;
}

namespace {

bool env_disabled() {
  const char* env = std::getenv("KCC_HW_COUNTERS");
  return env != nullptr && std::strcmp(env, "off") == 0;
}

}  // namespace

#if defined(__linux__)

namespace {

// (type, config) per event, index-aligned with hw_counter_names().
struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

const EventSpec kEvents[kHwCounterCount] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
};

int open_event(const EventSpec& spec) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // Aggregate worker threads created after the open into the same count.
  attr.inherit = 1;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
              /*group_fd=*/-1, /*flags=*/0));
}

// Calibration stores land here, so the optimizer cannot drop the loop.
volatile long calibration_sink = 0;

}  // namespace

HwCounterSet::HwCounterSet() {
  for (int i = 0; i < kHwCounterCount; ++i) fds_[i] = -1;
  if (env_disabled()) {
    disabled_reason_ = "KCC_HW_COUNTERS=off";
    return;
  }
  int first_errno = 0;
  for (int i = 0; i < kHwCounterCount; ++i) {
    fds_[i] = open_event(kEvents[i]);
    if (fds_[i] >= 0) {
      available_ = true;
    } else if (first_errno == 0) {
      first_errno = errno;
    }
  }
  if (!available_) {
    disabled_reason_ = std::string("perf_event_open: ") +
                       std::strerror(first_errno);
    if (first_errno == EACCES || first_errno == EPERM) {
      disabled_reason_ += " (kernel.perf_event_paranoid?)";
    }
    KCC_LOG(kWarn) << "hw counters disabled: " << disabled_reason_
                   << " — run reports will carry \"available\": false";
    return;
  }
  // Calibrate: on PMU-less VMs the hardware events open fine but never
  // tick. Burn a visible amount of work, then close any event still at
  // zero so reports say "software-only" instead of carrying silent zeros.
  for (long spin = 0; spin < 2'000'000; ++spin) calibration_sink = spin;
  int live_hw = 0;
  for (int i = 0; i < kHwCounterCount; ++i) {
    if (fds_[i] < 0 || kEvents[i].type != PERF_TYPE_HARDWARE) continue;
    std::uint64_t count = 0;
    if (::read(fds_[i], &count, sizeof(count)) == sizeof(count) &&
        count > 0) {
      ++live_hw;
    } else {
      close(fds_[i]);
      fds_[i] = -1;
    }
  }
  constexpr int kHardwareEvents = 4;  // all but task-clock
  if (live_hw == kHardwareEvents) {
    status_ = "available";
  } else if (live_hw > 0) {
    status_ = "partial: " + std::to_string(live_hw) + "/" +
              std::to_string(kHardwareEvents) +
              " hardware events live, rest read zero";
    KCC_LOG(kWarn) << "hw counters " << status_;
  } else {
    status_ = "software-only: hardware events read zero (no PMU?)";
    KCC_LOG(kWarn) << "hw counters " << status_
                   << " — only task_clock_ns will be populated";
  }
}

HwCounterSet::~HwCounterSet() {
  for (int i = 0; i < kHwCounterCount; ++i) {
    if (fds_[i] >= 0) close(fds_[i]);
  }
}

HwCounterValues HwCounterSet::read() const {
  HwCounterValues values;
  if (!available_) return values;
  std::uint64_t raw[kHwCounterCount] = {};
  for (int i = 0; i < kHwCounterCount; ++i) {
    if (fds_[i] < 0) continue;
    std::uint64_t count = 0;
    if (::read(fds_[i], &count, sizeof(count)) == sizeof(count)) {
      raw[i] = count;
      values.available = true;
    }
  }
  values.cycles = raw[0];
  values.instructions = raw[1];
  values.branch_misses = raw[2];
  values.cache_misses = raw[3];
  values.task_clock_ns = raw[4];
  return values;
}

#else  // !__linux__

HwCounterSet::HwCounterSet() {
  for (int i = 0; i < kHwCounterCount; ++i) fds_[i] = -1;
  disabled_reason_ = env_disabled() ? "KCC_HW_COUNTERS=off"
                                    : "unsupported platform";
}

HwCounterSet::~HwCounterSet() = default;

HwCounterValues HwCounterSet::read() const { return {}; }

#endif

HwCounterSet& HwCounterSet::global() {
  // Leaked for the same reason as the Tracer: worker threads may outlive
  // main() and must never touch a destructed fd table.
  static HwCounterSet* set = new HwCounterSet();
  return *set;
}

}  // namespace kcc::obs
