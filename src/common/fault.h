// Deterministic fault injection for robustness testing. A FaultInjector is
// armed per *site* (a named hook point compiled into the library: the loss
// kernel, the optimizer step, checkpoint I/O) with a visit schedule; library
// code queries ShouldFire() at each hook and, when it fires, corrupts its own
// state (poisons a gradient with NaN, flips a payload bit, ...). Everything
// is counter-driven from the injector's seed and visit counts, so a faulty
// run is reproducible bit-for-bit — tests and bench_fault_injection rely on
// that to prove every guardrail actually fires.
//
// The injector is installed process-globally via ScopedFaultInjector
// (training here is single-threaded); when none is installed every hook is a
// branch-on-null no-op, so production paths pay nothing.
#ifndef FAIRWOS_COMMON_FAULT_H_
#define FAIRWOS_COMMON_FAULT_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "common/status.h"

namespace fairwos::testing {

/// Hook points compiled into the library. Keep in sync with kNumFaultSites.
enum class FaultSite : int {
  kLossValue = 0,       // tensor::SoftmaxCrossEntropy output scalar
  kGradient,            // parameter gradients at the top of Optimizer::Step
  kParameter,           // parameter values after an optimizer update
  kCheckpointFlip,      // one payload bit in common::WriteCheckpointEnvelope
                        // (TrainState checkpoints, .fwmodel artifacts and
                        // the graph base a logged Compact() writes)
  kCheckpointTruncate,  // drop the tail of the payload in
                        // common::WriteCheckpointEnvelope (same files)
  kCheckpointRead,      // one payload bit in the buffer
                        // common::ReadCheckpointEnvelope read back
  kServeBatchForward,   // a serving micro-batch forward pass (engine retries,
                        // then degrades to the last-known-good prediction)
  kServeArtifactMmap,   // mapping a .fwmodel artifact into memory at
                        // registry Load/Swap (the swap must stay atomic)
  kServeCacheInsert,    // inserting a served prediction into the LRU (the
                        // prediction is still returned, just not cached)
  kGraphDeltaApply,     // applying one validated mutation to the delta
                        // overlay (the overlay must stay untouched)
  kGraphCompaction,     // merging the delta overlay into a fresh base CSR
                        // (the previous snapshot must keep serving)
  kMutationLogAppend,   // appending a validated mutation to the durable
                        // mutation log (the mutation is rejected; the
                        // overlay and the log file must stay untouched)
};
inline constexpr int kNumFaultSites = 12;

const char* FaultSiteName(FaultSite site);

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : rng_(seed) {}

  /// Arms `site`: starting at 0-based visit `at_visit`, every `every`-th
  /// visit fires, up to `count` total fires (count < 0 = unlimited).
  void Arm(FaultSite site, int64_t at_visit, int64_t count = 1,
           int64_t every = 1);

  /// Advances the site's visit counter and reports whether the fault fires
  /// on this visit. Called by the library hooks, not by tests. Thread-safe:
  /// the serve-path sites fire from concurrent client/leader threads (the
  /// visit order across threads is scheduler-dependent, but the total fire
  /// count still honors the armed plan exactly).
  ///
  /// Plan exhaustion is not silent: the first visit that finds an armed
  /// plan with no fires left emits a `fault_plan_exhausted` telemetry
  /// incident and bumps the `fault.exhausted` counter, so a chaos test that
  /// outlives its fault budget can prove its faults actually fired (and
  /// notice when later hook visits ran clean). Re-arming the site resets
  /// the report.
  bool ShouldFire(FaultSite site);

  /// How often the site has been visited / has actually fired — tests assert
  /// on these to prove the hook under test was reached.
  int64_t visits(FaultSite site) const;
  int64_t fires(FaultSite site) const;

  /// Deterministic randomness for fault payloads (which bit to flip, ...).
  /// Unlike ShouldFire this is not synchronized: only single-threaded sites
  /// (the checkpoint/training hooks) consume payload randomness.
  common::Rng* rng() { return &rng_; }

  // --- Direct file corruption, for checkpoint robustness tests ------------

  /// XORs the byte at `offset` with `mask` (mask must be non-zero).
  static common::Status FlipByte(const std::string& path, int64_t offset,
                                 uint8_t mask = 0x01);

  /// Truncates the file to its first `keep_bytes` bytes.
  static common::Status Truncate(const std::string& path, int64_t keep_bytes);

 private:
  struct Plan {
    bool armed = false;
    int64_t at_visit = 0;
    int64_t every = 1;
    int64_t remaining = 0;  // fires left; -1 = unlimited
    int64_t visits = 0;
    int64_t fires = 0;
    bool exhaustion_reported = false;  // one incident per armed plan
  };

  common::Rng rng_;
  mutable std::mutex mu_;  // guards plans_ (serve hooks fire concurrently)
  std::array<Plan, kNumFaultSites> plans_;
};

/// The currently installed injector, or nullptr (the default). Library hooks
/// call this; a null return means "no fault injection in this process".
FaultInjector* ActiveFaultInjector();

/// Installs `injector` globally for its own lifetime (RAII).
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector);
  ~ScopedFaultInjector();
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace fairwos::testing

#endif  // FAIRWOS_COMMON_FAULT_H_
