// Host-speed normalisation. On a shared host the CPU the benchmark is
// pinned to does not run at one speed: in some stretches of seconds the
// same statement stream runs 1.5x slower than in others (other tenants
// share the core, its caches and the hypervisor), and the stretches
// last long enough to move a whole run.
//
// So the benchmark measures the host's speed on that CPU between its
// measurements, with a reference kernel of its own that never calls
// into the program: round trips of a 64-byte message between two
// threads over a socketpair — system calls, wake-ups and thread
// switches. The timed phase's reads are scaled by the kernel's speed at
// that moment relative to a fixed reference rate, so a timing reads as
// it would on a host that runs the kernel at exactly the reference rate. A
// change to the program moves its timings against the kernel's; a slow
// stretch of the host moves both and cancels out. The timed phase
// calibrates every 50 ms next to the reads it scales.
//
// Setup and the write bursts of the read-only workloads are one long
// weight fit each (over 99% user time), which the round-trip kernel
// tracks badly. They are scaled by a second kernel, weight fitting in
// miniature, measured right before and right after each: across runs
// its speed and the fit's tracked with correlation 0.97. Restarts are
// a few milliseconds of file work that neither kernel tracked better
// than its raw spread; they are reported as the clock reads them.
//
// On a 4-vCPU Xeon VM the kernel's speed tracked the throughput of both
// the cache-hit stream (half its time in system calls) and the
// executor-bound stream (85% in user code) within about 3% from one
// stretch to the next, while the raw figures moved by 30%. For the reads
// a computation kernel tracked them worse.
#ifndef MOSAIC_PERFBENCH_SPEED_H_
#define MOSAIC_PERFBENCH_SPEED_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace mosaic {
namespace perfbench {

/// The reference kernel. Holds the echo thread, which ends when the
/// meter is destroyed.
class SpeedMeter {
 public:
  SpeedMeter();
  ~SpeedMeter();
  SpeedMeter(const SpeedMeter&) = delete;
  SpeedMeter& operator=(const SpeedMeter&) = delete;

  /// Host speed relative to the reference rate: 1.0 when the median
  /// round trip takes the reference time, below 1 when the host is
  /// slower. Takes well under a millisecond. The median discards round
  /// trips that another thread of the process preempted.
  double Measure();

  /// Host speed for long computations, relative to the reference rate
  /// of the compute kernel: passes of weight fitting in miniature
  /// (per-group sums over 32k weights, then a rescale), timed in thread
  /// CPU time, median of 15. Takes about 3 ms.
  double ComputeSpeed();

 private:
  std::vector<uint16_t> keys_;
  std::vector<double> weights_;
  int fds_[2] = {-1, -1};
  std::thread echo_;
};

/// Speed samples along the clock of a timed phase, taken by one thread
/// between its measurements. Not thread-safe: other threads may only
/// record time points, which are normalised after the phase.
class SpeedTrack {
 public:
  using Clock = std::chrono::steady_clock;

  /// Measures now with `meter` and records the sample.
  void Calibrate(SpeedMeter* meter);

  /// Mean speed over [a, b]: the samples taken inside it, or else the
  /// nearest sample on each side (1.0 without samples).
  double MeanSpeed(Clock::time_point a, Clock::time_point b) const;

  /// Wall-clock microseconds between `a` and `b` at the reference speed.
  double NormalizedMicros(Clock::time_point a, Clock::time_point b) const;

  /// The samples' speeds, in order.
  std::vector<double> Speeds() const;

 private:
  struct Point {
    Clock::time_point at;
    double speed;
  };
  std::vector<Point> points_;
};

}  // namespace perfbench
}  // namespace mosaic

#endif  // MOSAIC_PERFBENCH_SPEED_H_
