// Machine-speed calibration for the end-to-end figures.
//
// On a shared host the same code runs 20-40% slower or faster from one
// minute to the next, because other tenants load the shared last-level
// cache and the cores. Every figure from one run moves together, so two
// runs of the same program differ by more than a regression worth
// catching. The calibrator times a fixed unit of work, written here and
// sharing no code with the engine, in the gaps between queries and next
// to the set-ups, and the run scales its end-to-end times by
//
//   reference unit time / median unit time over the same stretch,
//
// which turns them into times on a machine that runs the unit in the
// reference time. The unit mixes what the engine's queries spend their
// time on: hashing into a table the size of a core's L2, sorting, and
// independent random reads from a buffer beyond L2. It allocates nothing
// while timed, so an allocator change in the engine cannot move it. Next
// to the queries it runs on as many threads as they use, so that a
// parallel workload's calibration also waits for a second core; next to
// the set-ups, on one thread, as they do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats.h"

namespace perfbench {

class Calibrator {
 public:
  /// Calibration time owed per ms of query time.
  static constexpr double kShare = 0.1;
  /// Units run in batches of at least this many ms, each after an untimed
  /// pass over the lane's buffers: the timed units find their data in
  /// cache whatever the query before them did, so the program's own cache
  /// footprint does not move the calibration.
  static constexpr double kBatchMs = 10;

  /// The unit's median time on the machine the reference figures were
  /// taken on (4-vCPU Xeon VM, gcc 12.2, Release), on one thread and on
  /// two at once.
  static constexpr double kSerialReferenceMs = 1.3;
  static constexpr double kParallelReferenceMs = 2.0;
  /// Units in one batch next to a set-up.
  static constexpr int kSerialUnits = 8;

  /// `threads`: how many threads run the unit at once next to the queries
  /// (the workload's degree of parallelism).
  explicit Calibrator(int threads);

  /// Adds kShare * `query_ms` to the calibration time owed; once a batch
  /// is owed, runs it on every thread. Returns the wall ms spent.
  double Pay(double query_ms);
  /// Runs a batch of kSerialUnits units on one thread.
  void MeasureSerial();

  /// Median unit time next to the queries (each batch gives one sample,
  /// its slowest thread's mean unit) and next to the set-ups.
  double QueryUnitMs() const { return Median(query_unit_ms_); }
  double SerialUnitMs() const { return Median(serial_unit_ms_); }
  /// Reference unit time / median unit time: multiply a time by it (divide
  /// a rate by it) to get the figure at reference speed.
  double QueryScale() const;
  double SerialScale() const;
  size_t query_batches() const { return query_unit_ms_.size(); }
  /// Bytes the calibrator keeps resident for the whole run.
  size_t footprint_bytes() const;

 private:
  /// One thread's buffers.
  struct Lane {
    Lane();
    /// Reads every buffer once and runs one unit, untimed.
    void Prime();
    /// Runs `units` units; returns their wall ms.
    double Run(int units);

    std::vector<uint64_t> keys;    ///< fixed keys hashed and sorted
    std::vector<uint64_t> sorted;  ///< scratch for the sort
    std::vector<uint64_t> slots;   ///< open-addressing table, key/value
    std::vector<uint64_t> far;     ///< buffer beyond L2 for random reads
    uint64_t sink = 0;
  };

  std::vector<Lane> lanes_;
  std::vector<double> query_unit_ms_;
  std::vector<double> serial_unit_ms_;
  double owed_ms_ = 0;
};

}  // namespace perfbench
