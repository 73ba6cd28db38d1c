// Workload shapes, the generated XMark base and the per-client operation
// generator with its id ledger.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench.hpp"

namespace dtxbench {

bool shape_of(const std::string& name, Shape& shape) {
  shape = Shape{};
  shape.name = name;
  if (name == "read_large") {
    // Read-mostly on a base whose distinct operation texts far exceed the
    // 1024-entry site plan cache: MVCC snapshots, plan eviction, XPath
    // over large fragments.
    shape.base_bytes = 2'000'000;
    shape.update_txn_fraction = 0.05;
    shape.update_op_fraction = 0.2;
    shape.pool_per_doc = 16;
    return true;
  }
  if (name == "update_small") {
    // Update-contended on a small base whose whole operation vocabulary
    // fits the plan cache: lock sets, waits, deadlocks, undo, WAL, 2PC.
    shape.base_bytes = 200'000;
    shape.update_txn_fraction = 0.5;
    shape.update_op_fraction = 0.6;
    shape.hot_ids = 12;
    shape.value_choices = 4;
    shape.pool_per_doc = 4;
    return true;
  }
  if (name == "tcp_open_loop") {
    // Three dtxd daemons on loopback TCP, fed on a Poisson schedule.
    shape.sites = 3;
    shape.fragments = 6;
    shape.base_bytes = 200'000;
    shape.update_txn_fraction = 0.2;
    shape.update_op_fraction = 0.4;
    shape.pool_per_doc = 8;
    shape.tcp = true;
    shape.rate_per_s = 250.0;
    return true;
  }
  return false;
}

Base make_base(const Shape& shape, std::uint64_t seed) {
  Base base;
  const Clock::time_point t0 = Clock::now();
  workload::XmarkOptions xmark;
  xmark.target_bytes = shape.base_bytes;
  xmark.seed = seed;
  base.data = workload::generate_xmark(xmark);
  base.generate_s = seconds_between(t0, Clock::now());
  base.fragments = workload::fragment_xmark(base.data, shape.fragments);
  base.placements = workload::place_fragments(
      base.fragments, shape.sites, workload::Replication::kPartial,
      shape.copies);
  return base;
}

const std::vector<net::SiteId>& hosts_of(const Base& base,
                                         const std::string& doc) {
  for (const workload::Placement& placement : base.placements) {
    if (placement.doc == doc) return placement.sites;
  }
  std::fprintf(stderr, "dtxbench: no placement for %s\n", doc.c_str());
  std::abort();
}

// --- Ledger ------------------------------------------------------------------

void Ledger::reserve(const IdEffect& effect) {
  busy_.insert({effect.doc, effect.id});
}

void Ledger::release(const IdEffect& effect, bool committed) {
  const std::pair<std::string, std::string> key{effect.doc, effect.id};
  busy_.erase(key);
  if (committed) {
    expected_[key] = effect.insert;
  } else {
    // An effect that never committed leaves the id as it was.
    expected_.emplace(key, false);
  }
}

bool Ledger::present(const std::string& doc, const std::string& id) const {
  const auto it = expected_.find({doc, id});
  return it != expected_.end() && it->second;
}

bool Ledger::busy(const std::string& doc, const std::string& id) const {
  return busy_.count({doc, id}) != 0;
}

void Ledger::merge(const Ledger& other) {
  for (const auto& [key, present] : other.expected_) expected_[key] = present;
}

// --- Generator ---------------------------------------------------------------

Generator::Generator(const Shape& shape, const Base& base, std::uint64_t seed,
                     std::size_t client)
    : shape_(shape),
      rng_(seed * 0x9e3779b97f4a7c15ULL + 0x51ed27 * (client + 1)) {
  for (std::size_t f = 0; f < base.fragments.size(); ++f) {
    const workload::Fragment& fragment = base.fragments[f];
    Target target;
    target.doc = fragment.doc_name;
    target.section = fragment.section;
    target.continent = fragment.continent;
    target.ids = fragment.ids;
    if (shape.hot_ids != 0 && target.ids.size() > shape.hot_ids) {
      target.ids.resize(shape.hot_ids);
    }
    if (target.section == "people" || target.section == "regions" ||
        target.section == "categories") {
      for (std::size_t k = 0; k < shape.pool_per_doc; ++k) {
        target.pool.push_back("c" + std::to_string(client) + "f" +
                              std::to_string(f) + "p" + std::to_string(k));
      }
    }
    targets_.push_back(std::move(target));
  }
}

std::string Generator::value(std::int64_t lo, std::int64_t hi) {
  if (shape_.value_choices != 0) {
    return std::to_string(
        lo + static_cast<std::int64_t>(rng_.next_below(shape_.value_choices)));
  }
  return std::to_string(rng_.next_between(lo, hi));
}

std::string Generator::query(const Target& target, bool& one_row) {
  const bool scan = target.ids.empty() || rng_.next_bool(shape_.scan_fraction);
  one_row = !scan;
  const std::string& doc = target.doc;
  const std::string id =
      scan ? std::string() : target.ids[rng_.next_index(target.ids.size())];
  if (target.section == "people") {
    if (scan) return "query " + doc + " /site/people/person/name";
    switch (rng_.next_below(3)) {
      case 0:
        return "query " + doc + " /site/people/person[@id='" + id + "']/name";
      case 1:
        return "query " + doc + " /site/people/person[@id='" + id +
               "']/profile/age";
      default:
        return "query " + doc + " //person[@id='" + id + "']/emailaddress";
    }
  }
  if (target.section == "regions") {
    const std::string path = "/site/regions/" + target.continent + "/item";
    if (scan) return "query " + doc + " " + path + "/name";
    return "query " + doc + " " + path + "[@id='" + id + "']/" +
           (rng_.next_bool(0.5) ? "price" : "name");
  }
  if (target.section == "open_auctions") {
    const std::string path = "/site/open_auctions/open_auction";
    if (scan) return "query " + doc + " " + path + "/current";
    return "query " + doc + " " + path + "[@id='" + id + "']/" +
           (rng_.next_bool(0.7) ? "current" : "initial");
  }
  if (target.section == "closed_auctions") {
    const std::string path = "/site/closed_auctions/closed_auction";
    if (scan) return "query " + doc + " " + path + "/price";
    return "query " + doc + " " + path + "[@id='" + id + "']/price";
  }
  if (scan) return "query " + doc + " /site/categories/category/name";
  return "query " + doc + " /site/categories/category[@id='" + id +
         "']/name";
}

std::string Generator::update(const Target& target, Ledger& ledger,
                              std::set<std::string>& touched,
                              std::vector<IdEffect>& effects) {
  const std::string& doc = target.doc;
  const double roll = rng_.next_double();
  // Insert or remove one of the client's own pool ids when the section
  // takes inserts and a free id of the right state exists.
  if (!target.pool.empty() && roll < 0.6) {
    const bool insert = roll < 0.4;
    std::vector<const std::string*> free;
    for (const std::string& id : target.pool) {
      if (touched.count(id) == 0 && !ledger.busy(doc, id) &&
          ledger.present(doc, id) != insert) {
        free.push_back(&id);
      }
    }
    if (!free.empty()) {
      const std::string id = *free[rng_.next_index(free.size())];
      touched.insert(id);
      IdEffect effect{doc, id, insert};
      ledger.reserve(effect);
      effects.push_back(effect);
      if (target.section == "people") {
        return insert ? "update " + doc + " insert into /site/people ::= " +
                            "<person id=\"" + id +
                            "\"><name>bench</name><phone>555-0</phone>"
                            "</person>"
                      : "update " + doc + " remove /site/people/person[@id='" +
                            id + "']";
      }
      if (target.section == "regions") {
        const std::string path = "/site/regions/" + target.continent;
        return insert ? "update " + doc + " insert into " + path +
                            " ::= <item id=\"" + id +
                            "\"><name>bench</name><price>1.00</price></item>"
                      : "update " + doc + " remove " + path + "/item[@id='" +
                            id + "']";
      }
      return insert ? "update " + doc + " insert into /site/categories ::= " +
                          "<category id=\"" + id +
                          "\"><name>bench</name></category>"
                    : "update " + doc +
                          " remove /site/categories/category[@id='" + id +
                          "']";
    }
  }
  const std::string id = target.ids.empty()
                             ? std::string("none")
                             : target.ids[rng_.next_index(target.ids.size())];
  if (target.section == "people") {
    return "update " + doc + " change /site/people/person[@id='" + id +
           "']/phone ::= 555-" + value(0, 9999);
  }
  if (target.section == "regions") {
    return "update " + doc + " change /site/regions/" + target.continent +
           "/item[@id='" + id + "']/price ::= " + value(1, 400) + ".50";
  }
  if (target.section == "open_auctions") {
    return "update " + doc + " change /site/open_auctions/open_auction[@id='" +
           id + "']/current ::= " + value(1, 500) + ".00";
  }
  if (target.section == "closed_auctions") {
    return "update " + doc +
           " change /site/closed_auctions/closed_auction[@id='" + id +
           "']/price ::= " + value(1, 500) + ".00";
  }
  return "update " + doc + " change /site/categories/category[@id='" + id +
         "']/name ::= cat" + value(0, 99999);
}

GenTxn Generator::next(Ledger& ledger) {
  GenTxn txn;
  txn.update = rng_.next_bool(shape_.update_txn_fraction);
  std::vector<bool> is_update(shape_.ops_per_txn, false);
  if (txn.update) {
    bool any = false;
    for (std::size_t i = 0; i < is_update.size(); ++i) {
      is_update[i] = rng_.next_bool(shape_.update_op_fraction);
      any = any || is_update[i];
    }
    if (!any) is_update[rng_.next_index(is_update.size())] = true;
  }
  std::set<std::string> touched;
  client::TxnBuilder builder;
  for (std::size_t i = 0; i < is_update.size(); ++i) {
    const Target& target = targets_[rng_.next_index(targets_.size())];
    bool one_row = false;
    const std::string text =
        is_update[i] ? update(target, ledger, touched, txn.effects)
                     : query(target, one_row);
    txn.one_row.push_back(one_row);
    builder.op_text(text);
  }
  auto prepared = builder.build();
  if (!prepared) {
    std::fprintf(stderr, "dtxbench: generated a bad operation: %s\n",
                 prepared.status().to_string().c_str());
    std::abort();
  }
  txn.prepared = std::move(prepared).value();
  return txn;
}

}  // namespace dtxbench
