// In-memory span recorder of the traced replay. A span has a name, start
// and end (steady clock, ns from the tracer's epoch), the span that was
// open when it began (its parent; 0 = none) and the transaction it belongs
// to (0 = set-up work). Spans stay in memory until write() dumps them as
// JSON lines:
//
//   {"format": "dtxbench-trace/1", "workload": "...", "seed": N}
//   {"id": 7, "name": "query.compile", "parent": 6, "txn": 3,
//    "start_ns": 1234, "end_ns": 5678}
//
// Single-threaded: the replay is the only caller.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace dtxbench {

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its id.
  std::uint32_t open(const char* name, std::uint64_t txn);
  /// Closes the span `id` (must be the innermost open one).
  void close(std::uint32_t id);

  /// Durations of every closed span with this name, in microseconds.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// Span names in first-seen order.
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// Writes the spans as JSON lines; false when the file cannot be written.
  bool write(const std::string& path, const std::string& header) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;
    std::uint64_t txn = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< ids of the open spans, innermost last
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
};

/// Opens a span for the lifetime of the object.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t txn)
      : tracer_(tracer), id_(tracer.open(name, txn)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace dtxbench
