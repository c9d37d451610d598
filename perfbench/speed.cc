#include "speed.h"

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>

#include "stats.h"

namespace mosaic {
namespace perfbench {

namespace {

constexpr size_t kMessageBytes = 64;
constexpr int kWarmupRoundTrips = 4;
constexpr int kRoundTrips = 61;

constexpr size_t kWeights = 32768;
constexpr size_t kGroups = 64;
constexpr int kComputePasses = 4;
constexpr int kComputeReps = 15;

/// The reference rates: roughly the medians on a 2.1 GHz Xeon (AVX2) VM
/// in a quiet stretch. Any constants would do; they only set the scale
/// the normalised timings are given in.
constexpr double kReferenceRoundTripUs = 5.0;
constexpr double kReferencePassesPerSecond = 20000.0;

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool RoundTrip(int fd, char* buf) {
  if (write(fd, buf, kMessageBytes) != static_cast<ssize_t>(kMessageBytes)) {
    return false;
  }
  size_t got = 0;
  while (got < kMessageBytes) {
    ssize_t n = read(fd, buf + got, kMessageBytes - got);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

SpeedMeter::SpeedMeter() : keys_(kWeights), weights_(kWeights, 1.0) {
  uint64_t x = 88172645463325252ULL;
  for (uint16_t& k : keys_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = static_cast<uint16_t>(x % kGroups);
  }
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
    fds_[0] = fds_[1] = -1;
    return;
  }
  const int fd = fds_[1];
  echo_ = std::thread([fd] {
    char buf[kMessageBytes];
    for (;;) {
      ssize_t n = read(fd, buf, sizeof buf);
      if (n <= 0 || write(fd, buf, static_cast<size_t>(n)) != n) return;
    }
  });
}

SpeedMeter::~SpeedMeter() {
  if (echo_.joinable()) {
    shutdown(fds_[0], SHUT_RDWR);  // the echo thread reads end-of-file
    echo_.join();
  }
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
}

double SpeedMeter::Measure() {
  if (!echo_.joinable()) return 1.0;
  char buf[kMessageBytes] = {0};
  for (int i = 0; i < kWarmupRoundTrips; ++i) {
    if (!RoundTrip(fds_[0], buf)) return 1.0;
  }
  std::vector<double> us;
  for (int i = 0; i < kRoundTrips; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!RoundTrip(fds_[0], buf)) return 1.0;
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  return kReferenceRoundTripUs / std::max(Median(std::move(us)), 1e-3);
}

double SpeedMeter::ComputeSpeed() {
  std::vector<double> rates;
  for (int rep = 0; rep < kComputeReps; ++rep) {
    const double t0 = ThreadCpuSeconds();
    for (int pass = 0; pass < kComputePasses; ++pass) {
      double sums[kGroups] = {0};
      for (size_t i = 0; i < keys_.size(); ++i) sums[keys_[i]] += weights_[i];
      double ratio[kGroups];
      for (size_t g = 0; g < kGroups; ++g) ratio[g] = (512.0 + g) / sums[g];
      for (size_t i = 0; i < keys_.size(); ++i) weights_[i] *= ratio[keys_[i]];
    }
    rates.push_back(kComputePasses /
                    std::max(ThreadCpuSeconds() - t0, 1e-9));
  }
  return Median(std::move(rates)) / kReferencePassesPerSecond;
}

void SpeedTrack::Calibrate(SpeedMeter* meter) {
  const double speed = meter->Measure();
  points_.push_back({Clock::now(), speed});
}

double SpeedTrack::MeanSpeed(Clock::time_point a, Clock::time_point b) const {
  if (points_.empty()) return 1.0;
  auto first = std::lower_bound(
      points_.begin(), points_.end(), a,
      [](const Point& p, Clock::time_point t) { return p.at < t; });
  double sum = 0;
  size_t n = 0;
  for (auto it = first; it != points_.end() && it->at <= b; ++it) {
    sum += it->speed;
    ++n;
  }
  if (n > 0) return sum / static_cast<double>(n);
  // No sample inside: the nearest one on each side.
  if (first == points_.end()) return points_.back().speed;
  if (first == points_.begin()) return first->speed;
  return (first->speed + std::prev(first)->speed) / 2.0;
}

double SpeedTrack::NormalizedMicros(Clock::time_point a,
                                    Clock::time_point b) const {
  return std::chrono::duration<double, std::micro>(b - a).count() *
         MeanSpeed(a, b);
}

std::vector<double> SpeedTrack::Speeds() const {
  std::vector<double> out;
  for (const Point& p : points_) out.push_back(p.speed);
  return out;
}

}  // namespace perfbench
}  // namespace mosaic
