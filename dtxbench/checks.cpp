// Output checks, made apart from the engine's own accounting: row counts of
// point queries against the generator's inventory, and the final documents
// against the base inventory plus the id ledger, replica by replica.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace dtxbench {

namespace {

void fail(RunResult& result, std::string message) {
  // Keep the report short; the first failures name the fault.
  if (result.check_failures.size() < 8) {
    result.check_failures.push_back(std::move(message));
  } else if (result.check_failures.size() == 8) {
    result.check_failures.emplace_back("... more check failures");
  }
}

/// Where two serializations first differ, with some context.
std::string divergence(const std::string& a, const std::string& b) {
  const auto diverge = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  const std::size_t at = static_cast<std::size_t>(diverge.first - a.begin());
  const std::size_t from = at > 60 ? at - 60 : 0;
  return "at byte " + std::to_string(at) + ": ..." + a.substr(from, 120) +
         " | ..." + b.substr(from, 120);
}

std::string canonical_node(const xml::Node& node) {
  if (!node.is_element()) return xml::serialize(node);
  std::string out = "<" + node.name();
  for (const auto& [name, value] : node.attributes()) {
    out += " " + name + "=\"" + value + "\"";
  }
  out += ">";
  bool entities = node.child_count() > 0;
  for (const auto& child : node.children()) {
    entities = entities && child->is_element() &&
               child->attribute("id") != nullptr;
  }
  std::vector<std::string> parts;
  for (const auto& child : node.children()) {
    parts.push_back(entities ? xml::serialize(*child) : canonical_node(*child));
  }
  if (entities) std::sort(parts.begin(), parts.end());
  for (const std::string& part : parts) out += part;
  return out + "</" + node.name() + ">";
}

/// The document with every list of id-bearing siblings sorted: two
/// replicas holding the same entities in another order read the same.
std::string canonical(const std::string& text, const std::string& doc) {
  auto parsed = xml::parse(text, doc);
  if (!parsed || !parsed.value()->has_root()) return "<unparsable/>" + text;
  return canonical_node(*parsed.value()->root());
}

}  // namespace

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string Metrics::to_json() const {
  std::string out = "{";
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    char number[64];
    std::snprintf(number, sizeof(number), "%.12g",
                  std::isfinite(value) ? value : 0.0);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           unit + "\"}";
  }
  return out + "}";
}

double peak_rss_mb_of(int pid) {
  std::ifstream status("/proc/" + (pid == 0 ? std::string("self")
                                            : std::to_string(pid)) +
                       "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::map<std::string, std::size_t> count_ids(const std::string& xml) {
  std::map<std::string, std::size_t> counts;
  static constexpr std::string_view kAttr = " id=\"";
  std::size_t pos = 0;
  while ((pos = xml.find(kAttr, pos)) != std::string::npos) {
    pos += kAttr.size();
    const std::size_t end = xml.find('"', pos);
    if (end == std::string::npos) break;
    ++counts[xml.substr(pos, end - pos)];
    pos = end;
  }
  return counts;
}

void check_rows(const GenTxn& txn,
                const std::vector<std::vector<std::string>>& rows,
                bool corrupt, RunResult& result) {
  for (std::size_t i = 0; i < txn.one_row.size(); ++i) {
    if (!txn.one_row[i]) continue;
    std::size_t count = i < rows.size() ? rows[i].size() : 0;
    if (corrupt) ++count;
    ++result.checked_rows;
    if (count != 1) {
      fail(result, "point query answered " + std::to_string(count) +
                       " rows, expected 1: " +
                       txn.prepared.ops()[i].to_string());
    }
  }
}

void check_documents(const Base& base, const Ledger& ledger,
                     const std::map<std::string, Replicas>& docs,
                     RunResult& result) {
  for (const workload::Fragment& fragment : base.fragments) {
    const std::string& doc = fragment.doc_name;
    const auto found = docs.find(doc);
    if (found == docs.end() ||
        (found->second.live.empty() && found->second.durable.empty())) {
      fail(result, "document " + doc + " could not be read");
      continue;
    }
    const Replicas& replicas = found->second;
    const std::vector<std::string>& reference =
        replicas.live.empty() ? replicas.durable : replicas.live;
    for (std::size_t r = 1; r < replicas.live.size(); ++r) {
      ++result.checked_replicas;
      if (replicas.live[r] != replicas.live[0]) {
        fail(result, "live replica " + std::to_string(r) + " of " + doc +
                         " differs from live replica 0 " +
                         divergence(replicas.live[0], replicas.live[r]));
      }
    }
    const std::string expected = canonical(reference[0], doc);
    for (std::size_t r = 0; r < replicas.durable.size(); ++r) {
      if (&replicas.durable == &reference && r == 0) continue;
      ++result.checked_replicas;
      if (replicas.durable[r] == reference[0]) continue;
      if (canonical(replicas.durable[r], doc) == expected) {
        ++result.order_divergences;
      } else {
        fail(result, "durable replica " + std::to_string(r) + " of " + doc +
                         " holds other content " +
                         divergence(reference[0], replicas.durable[r]));
      }
    }
    std::map<std::string, std::size_t> counts = count_ids(reference[0]);
    for (const std::string& id : fragment.ids) {
      ++result.checked_ids;
      const auto it = counts.find(id);
      const std::size_t n = it == counts.end() ? 0 : it->second;
      if (n != 1) {
        fail(result, "base id " + id + " occurs " + std::to_string(n) +
                         " times in " + doc);
      }
      if (it != counts.end()) counts.erase(it);
    }
    for (const auto& [key, present] : ledger.expected()) {
      if (key.first != doc) continue;
      ++result.checked_ids;
      const auto it = counts.find(key.second);
      const std::size_t n = it == counts.end() ? 0 : it->second;
      if (n != (present ? 1u : 0u)) {
        fail(result, "id " + key.second + " occurs " + std::to_string(n) +
                         " times in " + doc + ", expected " +
                         (present ? "1" : "0"));
      }
      if (it != counts.end()) counts.erase(it);
    }
    for (const auto& [id, n] : counts) {
      fail(result, "unexpected id " + id + " (" + std::to_string(n) +
                       "x) in " + doc);
    }
  }
}

}  // namespace dtxbench
