#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {
namespace {

constexpr size_t kKeys = size_t{1} << 14;
constexpr size_t kSlots = size_t{1} << 15;     // 512 KiB of key/value pairs
constexpr size_t kFarWords = size_t{1} << 20;  // 8 MiB
constexpr size_t kFarReads = size_t{1} << 16;
constexpr int kWarmUpUnits = 8;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

}  // namespace

Calibrator::Lane::Lane()
    : keys(kKeys), sorted(kKeys), slots(2 * kSlots), far(kFarWords) {
  for (size_t i = 0; i < kKeys; ++i) keys[i] = Mix(i) % (kKeys / 2) + 1;
  for (size_t i = 0; i < kFarWords; ++i) far[i] = Mix(i + kKeys);
}

void Calibrator::Lane::Prime() {
  uint64_t h = 0;
  for (const uint64_t w : far) h += w;
  sink += h;
  (void)Run(1);
}

double Calibrator::Lane::Run(int units) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int u = 0; u < units; ++u) {
    // Group-by: count each key in an open-addressing table (0 = empty).
    std::fill(slots.begin(), slots.end(), 0);
    for (const uint64_t k : keys) {
      size_t s = Mix(k) & (kSlots - 1);
      while (slots[2 * s] != 0 && slots[2 * s] != k) {
        s = (s + 1) & (kSlots - 1);
      }
      slots[2 * s] = k;
      ++slots[2 * s + 1];
    }
    // Sort: the keys, copied into the scratch buffer.
    std::copy(keys.begin(), keys.end(), sorted.begin());
    std::sort(sorted.begin(), sorted.end());
    // Gather: independent reads at pseudo-random places beyond L2.
    uint64_t h = sorted[kKeys / 2];
    for (size_t i = 0; i < kFarReads; ++i) {
      h += far[Mix(i ^ sink) & (kFarWords - 1)];
    }
    for (size_t s = 0; s < kSlots; s += kSlots / 8) h += slots[2 * s + 1];
    sink += h | 1;
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Calibrator::Calibrator(int threads) : lanes_(std::max(threads, 1)) {
  for (Lane& lane : lanes_) {
    lane.Prime();
    (void)lane.Run(kWarmUpUnits);
  }
}

double Calibrator::Pay(double query_ms) {
  owed_ms_ += kShare * query_ms;
  if (owed_ms_ < kBatchMs) return 0;
  const auto t0 = std::chrono::steady_clock::now();
  const double estimate = query_unit_ms_.empty() ? kParallelReferenceMs
                                                 : query_unit_ms_.back();
  const int units =
      std::max(2, static_cast<int>(std::lround(owed_ms_ / estimate)));
  std::vector<double> lane_ms(lanes_.size());
  auto run = [&](size_t i) {
    lanes_[i].Prime();
    lane_ms[i] = lanes_[i].Run(units);
  };
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < lanes_.size(); ++i) helpers.emplace_back(run, i);
  run(0);
  for (std::thread& t : helpers) t.join();
  query_unit_ms_.push_back(
      *std::max_element(lane_ms.begin(), lane_ms.end()) / units);
  const double spent = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  owed_ms_ -= spent;
  return spent;
}

void Calibrator::MeasureSerial() {
  lanes_[0].Prime();
  serial_unit_ms_.push_back(lanes_[0].Run(kSerialUnits) / kSerialUnits);
}

double Calibrator::QueryScale() const {
  const double m = QueryUnitMs();
  const double ref =
      lanes_.size() == 1 ? kSerialReferenceMs : kParallelReferenceMs;
  return m > 0 ? ref / m : 1.0;
}

double Calibrator::SerialScale() const {
  const double m = SerialUnitMs();
  return m > 0 ? kSerialReferenceMs / m : 1.0;
}

size_t Calibrator::footprint_bytes() const {
  return lanes_.size() * (2 * kKeys + 2 * kSlots + kFarWords) *
         sizeof(uint64_t);
}

}  // namespace perfbench
