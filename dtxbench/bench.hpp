// Shared types of the DTX benchmark program (dtxbench): the workload shapes,
// the seeded operation generator with its id ledger, the samples a run
// records, and the metric sink the JSON result line is printed from.
//
// dtxbench talks to the engine only through its public headers: the
// in-process workloads through core::Cluster + client::Session, the TCP
// workload through dtxd processes + client::RemoteSession, and the traced
// replay through the layers' own entry points (query::compile,
// lock::LockProtocol, lock::LockTable, core::DataManager, xpath, xupdate,
// net::codec). Nothing inside the engine is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/txn_builder.hpp"
#include "util/rng.hpp"
#include "workload/fragmentation.hpp"
#include "workload/xmark.hpp"

namespace dtx::core {}
namespace dtx::storage {}

namespace dtxbench {

namespace client = dtx::client;
namespace core = dtx::core;
namespace net = dtx::net;
namespace storage = dtx::storage;
namespace txn = dtx::txn;
namespace util = dtx::util;
namespace workload = dtx::workload;
namespace xml = dtx::xml;

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One workload's shape: everything that is not an engine default.
struct Shape {
  std::string name;
  std::size_t sites = 4;
  std::size_t fragments = 8;
  std::size_t copies = 2;           ///< partial replication factor
  std::size_t base_bytes = 200'000;  ///< XMark target size
  std::size_t clients = 4;          ///< client threads / connections
  std::size_t ops_per_txn = 5;
  double update_txn_fraction = 0.0;
  double update_op_fraction = 0.2;
  double scan_fraction = 0.25;  ///< queries that scan a whole section
  /// Point queries and changes draw from the first `hot_ids` base ids of
  /// each fragment (0 = every base id).
  std::size_t hot_ids = 0;
  /// Changes write one of this many values (0 = a fresh random value).
  std::size_t value_choices = 0;
  /// Insertable ids each client owns per insertable fragment.
  std::size_t pool_per_doc = 16;
  bool tcp = false;
  double rate_per_s = 0.0;  ///< open loop only: offered transactions/s
  double warmup_s = 2.0;
};

/// The shape of a named workload; false when the name is unknown.
bool shape_of(const std::string& name, Shape& shape);

/// The generated database: the XMark document, its fragments and their
/// placement over the sites.
struct Base {
  workload::XmarkData data;
  std::vector<workload::Fragment> fragments;
  std::vector<workload::Placement> placements;
  double generate_s = 0.0;  ///< workload.xmark_generate_s
};

Base make_base(const Shape& shape, std::uint64_t seed);

/// Hosting sites of a document.
const std::vector<net::SiteId>& hosts_of(const Base& base,
                                         const std::string& doc);

/// What a committed transaction does to the id ledger.
struct IdEffect {
  std::string doc;
  std::string id;
  bool insert = true;  ///< false = remove
};

/// One generated transaction plus what the checks need to know about it.
struct GenTxn {
  client::PreparedTxn prepared;
  bool update = false;
  /// Per operation: true when it is a point query on a base id, whose
  /// answer must be exactly one row (base entities are never removed).
  std::vector<bool> one_row;
  std::vector<IdEffect> effects;
};

/// The final expected presence of every id the benchmark can insert, kept
/// by the generator from the outcomes dtxbench reports back.
class Ledger {
 public:
  /// Marks an id as touched by an in-flight transaction (so no second
  /// transaction inserts or removes it before the first one ends).
  void reserve(const IdEffect& effect);
  void release(const IdEffect& effect, bool committed);
  [[nodiscard]] bool present(const std::string& doc,
                             const std::string& id) const;
  [[nodiscard]] bool busy(const std::string& doc, const std::string& id) const;
  /// (doc, id) -> expected present, for every id ever touched.
  [[nodiscard]] const std::map<std::pair<std::string, std::string>, bool>&
  expected() const noexcept {
    return expected_;
  }
  /// Adds an id that must be absent at the end (an aborted probe insert).
  void expect_absent(const std::string& doc, const std::string& id) {
    expected_[{doc, id}] = false;
  }
  void merge(const Ledger& other);

 private:
  std::map<std::pair<std::string, std::string>, bool> expected_;
  std::set<std::pair<std::string, std::string>> busy_;
};

/// Seeded transaction generator for one client. The operation texts come
/// from a bounded vocabulary when the shape asks for one (hot ids, a few
/// values, a fixed id pool), so a small base's plans all fit the cache.
class Generator {
 public:
  Generator(const Shape& shape, const Base& base, std::uint64_t seed,
            std::size_t client);

  /// Next transaction; reserves the ids it touches in `ledger`.
  GenTxn next(Ledger& ledger);

 private:
  struct Target {
    std::string doc;
    std::string section;
    std::string continent;
    std::vector<std::string> ids;  ///< base ids this client may address
    std::vector<std::string> pool;  ///< insertable ids owned by the client
  };

  std::string query(const Target& target, bool& one_row);
  std::string update(const Target& target, Ledger& ledger,
                     std::set<std::string>& touched,
                     std::vector<IdEffect>& effects);
  std::string value(std::int64_t lo, std::int64_t hi);

  const Shape& shape_;
  util::Rng rng_;
  std::vector<Target> targets_;
};

/// One client-observed transaction.
struct Sample {
  Clock::time_point start;  ///< first submission (open loop: intended)
  Clock::time_point end;    ///< final outcome
  bool update = false;
  bool committed = false;
  std::uint32_t resubmits = 0;
  std::uint32_t wait_episodes = 0;
  std::uint32_t deadlock_aborts = 0;
  double send_lag_ms = 0.0;  ///< open loop: actual minus intended send
};

/// Nearest-rank percentile of an unsorted vector (sorts it); 0 if empty.
double percentile(std::vector<double>& values, double q);

/// Ordered metric sink: name -> (value, unit).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (values_.find(name) == values_.end()) order_.push_back(name);
    values_[name] = {value, unit};
  }
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The outcome of one end-to-end run, before it is reduced to metrics.
struct RunResult {
  double setup_s = 0.0;
  double cluster_start_s = 0.0;  ///< load + start / spawn + connect
  Clock::time_point window_start;
  double window_s = 0.0;
  std::vector<Sample> samples;  ///< transactions started in the window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0.0;
  /// Output checks: an empty list means every check passed.
  std::vector<std::string> check_failures;
  std::uint64_t checked_rows = 0;
  std::uint64_t checked_ids = 0;
  std::uint64_t checked_replicas = 0;
  std::uint64_t order_divergences = 0;
  /// Per-layer counters read from the engine after the run.
  Metrics counters;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  /// Self-test fault: "rows" (every point query reports an extra row) or
  /// "aborted_insert" (the aborted probe's insert is committed after all).
  std::string corrupt;
};

/// Peak resident set (VmHWM) of a process in MB; 0 when unreadable.
double peak_rss_mb_of(int pid);

/// Scans serialized XML for id="..." attributes: id -> occurrences.
std::map<std::string, std::size_t> count_ids(const std::string& xml);

/// The final state of one document: its live trees (read from each
/// hosting site's memory, when dtxbench can reach them) and its durable
/// states (materialized from each hosting site's store).
struct Replicas {
  std::vector<std::string> live;
  std::vector<std::string> durable;
};

/// Compares the final documents against the base inventory and the
/// ledger: base ids exactly once, ledger ids as expected, nothing else.
/// Live replicas must read byte-identically; a durable replica must hold
/// the same entities as the live one (or as the first durable replica),
/// and one that holds them in another sibling order is counted in
/// `order_divergences` (reported, not failed: see dtxbench/README.md).
void check_documents(const Base& base, const Ledger& ledger,
                     const std::map<std::string, Replicas>& docs,
                     RunResult& result);

/// Row-count check of one finished transaction (point queries on base ids
/// answer exactly one row).
void check_rows(const GenTxn& txn,
                const std::vector<std::vector<std::string>>& rows,
                bool corrupt, RunResult& result);

/// The in-process closed-loop workloads (read_large, update_small).
RunResult run_inproc(const Shape& shape, const Args& args,
                     Clock::time_point process_start, const Base& base);

/// Makes SIGTERM, SIGINT, SIGHUP and a SIGALRM `seconds` from now kill
/// every daemon and end the process with 128 + the signal number.
void install_exit_guards(unsigned seconds);

/// The dtxd open-loop workload (tcp_open_loop).
RunResult run_tcp(const Shape& shape, const Args& args,
                  Clock::time_point process_start, const Base& base);

/// The single-threaded traced replay; adds its per-layer metrics.
void run_replay(const Shape& shape, const Args& args, const Base& base,
                Metrics& metrics);

}  // namespace dtxbench
