#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace dtxbench {

std::uint32_t Tracer::open(const char* name, std::uint64_t txn) {
  auto found = name_ids_.find(std::string_view(name));
  if (found == name_ids_.end()) {
    found = name_ids_.emplace(name, static_cast<std::uint32_t>(names_.size()))
                .first;
    names_.emplace_back(name);
  }
  Span span;
  span.name = found->second;
  span.parent = open_.empty() ? 0 : open_.back();
  span.txn = txn;
  spans_.push_back(span);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  // Stamp last, so the bookkeeping above is not inside the span.
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::close(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  open_.pop_back();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  const auto found = name_ids_.find(name);
  if (found == name_ids_.end()) return out;
  for (const Span& span : spans_) {
    if (span.name == found->second) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    }
  }
  return out;
}

bool Tracer::write(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header << '\n';
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"parent\": %u, "
                  "\"txn\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                  i + 1, names_[span.name].c_str(), span.parent,
                  static_cast<unsigned long long>(span.txn),
                  static_cast<long long>(span.start_ns),
                  static_cast<long long>(span.end_ns));
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace dtxbench
