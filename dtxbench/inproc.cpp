// The in-process closed-loop workloads: a SimNetwork core::Cluster driven
// by client::Session threads, each owning one generator and one ledger.
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "client/client.hpp"
#include "dtx/cluster.hpp"
#include "dtx/wal.hpp"
#include "xml/serializer.hpp"

namespace dtxbench {

namespace {

/// Resubmission budget: deadlock victims and other retryable aborts are
/// resubmitted with the client's linear backoff until they commit.
constexpr std::uint32_t kRetryBudget = 1000;

struct ClientOutput {
  std::vector<Sample> samples;
  Ledger ledger;
  RunResult checks;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_counters(const core::ClusterStats& a, const core::ClusterStats& b,
                  const std::vector<Sample>& window, RunResult& result) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double committed = d(a.committed, b.committed);
  double update_commits = 0.0;
  double resubmits = 0.0;
  double client_commits = 0.0;
  for (const Sample& s : window) {
    if (!s.committed) continue;
    client_commits += 1.0;
    resubmits += s.resubmits;
    if (s.update) update_commits += 1.0;
  }
  Metrics& m = result.counters;
  m.set("client.resubmits_per_commit", ratio(resubmits, client_commits),
        "count");
  m.set("client.send_lag_ms.p50", 0.0, "ms");
  m.set("client.send_lag_ms.p99", 0.0, "ms");
  m.set("dtx.lock_acqs_per_update_txn",
        ratio(d(a.lock_acquisitions, b.lock_acquisitions), update_commits),
        "count");
  m.set("dtx.wait_episodes_per_commit",
        ratio(d(a.wait_episodes, b.wait_episodes), committed), "count");
  m.set("dtx.deadlock_aborts", d(a.deadlock_aborts, b.deadlock_aborts),
        "count");
  m.set("dtx.remote_ops_per_commit",
        ratio(d(a.remote_ops, b.remote_ops), committed), "count");
  m.set("net.messages_per_commit",
        ratio(d(a.network.messages_sent, b.network.messages_sent), committed),
        "count");
  m.set("net.bytes_per_commit",
        ratio(d(a.network.bytes_sent, b.network.bytes_sent), committed),
        "B");
  const double hits = d(a.snapshots.chain_hits, b.snapshots.chain_hits);
  const double materializes =
      d(a.snapshots.materializes, b.snapshots.materializes);
  m.set("dtx.snapshot_chain_hit_ratio", ratio(hits, hits + materializes),
        "ratio");
  m.set("dtx.snapshot_materializes", materializes, "count");
  const double plan_hits = d(a.plan_cache.hits, b.plan_cache.hits);
  const double plan_misses = d(a.plan_cache.misses, b.plan_cache.misses);
  m.set("query.plan_hit_ratio", ratio(plan_hits, plan_hits + plan_misses),
        "ratio");
  m.set("query.plan_evictions", d(a.plan_cache.evictions, b.plan_cache.evictions),
        "count");
}

/// Transactions that must abort: an insert of a fresh id followed by an
/// update the data layer cannot process (an insert beside the root). The
/// rollback must leave no trace of the insert.
void run_abort_probes(core::Cluster& cluster, client::Client& client,
                      const Base& base, const Args& args, Ledger& ledger,
                      RunResult& result) {
  client::Session session = client.session();
  std::size_t k = 0;
  for (const workload::Fragment& fragment : base.fragments) {
    if (fragment.section != "people") continue;
    const std::string id = "abortprobe" + std::to_string(k++);
    const std::string insert =
        "update " + fragment.doc_name + " insert into /site/people ::= " +
        "<person id=\"" + id + "\"><name>probe</name></person>";
    auto txn = client::PreparedTxn::parse(
        {insert, "update " + fragment.doc_name + " insert before /site ::= <x/>"});
    if (!txn) {
      result.check_failures.push_back("probe did not parse");
      return;
    }
    auto outcome = session.execute(txn.value());
    if (outcome && outcome.value().state == txn::TxnState::kCommitted) {
      result.check_failures.push_back("abort probe " + id + " committed");
    }
    ledger.expect_absent(fragment.doc_name, id);
    if (args.corrupt == "aborted_insert") {
      // Self-test: make the aborted insert appear anyway.
      auto leak = client::PreparedTxn::parse({insert});
      if (leak) (void)cluster.execute(hosts_of(base, fragment.doc_name)[0],
                                      leak.value().clone_ops());
    }
  }
}

std::uint64_t store_bytes(core::Cluster& cluster, std::size_t sites) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < sites; ++s) {
    storage::StorageBackend& store =
        cluster.store_of(static_cast<net::SiteId>(s));
    for (const std::string& name : store.list()) {
      auto bytes = store.read_log(name);
      if (bytes) total += bytes.value().size();
    }
  }
  return total;
}

}  // namespace

RunResult run_inproc(const Shape& shape, const Args& args,
                     Clock::time_point process_start, const Base& base) {
  RunResult result;
  const Clock::time_point load_start = Clock::now();
  core::ClusterOptions options;
  options.site_count = shape.sites;
  core::Cluster cluster(options);
  for (const workload::Placement& placement : base.placements) {
    for (const workload::Fragment& fragment : base.fragments) {
      if (fragment.doc_name != placement.doc) continue;
      const util::Status loaded =
          cluster.load_document(placement.doc, fragment.xml, placement.sites);
      if (!loaded) {
        std::fprintf(stderr, "dtxbench: load %s: %s\n", placement.doc.c_str(),
                     loaded.to_string().c_str());
        std::exit(1);
      }
    }
  }
  if (const util::Status started = cluster.start(); !started) {
    std::fprintf(stderr, "dtxbench: start: %s\n",
                 started.to_string().c_str());
    std::exit(1);
  }
  const Clock::time_point ready = Clock::now();
  result.setup_s = seconds_between(process_start, ready);
  result.cluster_start_s = seconds_between(load_start, ready);

  client::SessionOptions session_options;
  session_options.retry.max_deadlock_retries = kRetryBudget;
  session_options.retry.max_retries = kRetryBudget;
  client::Client client(cluster, session_options);

  const auto window_start =
      ready + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(shape.warmup_s));
  const auto window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));

  std::vector<ClientOutput> outputs(shape.clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientOutput& out = outputs[c];
      Generator generator(shape, base, args.seed, c);
      client::SessionOptions mine = session_options;
      mine.routing = client::RoutingPolicy::explicit_site(
          static_cast<net::SiteId>(c % shape.sites));
      client::Session session = client.session(mine);
      while (Clock::now() < window_end) {
        GenTxn txn = generator.next(out.ledger);
        Sample sample;
        sample.update = txn.update;
        sample.start = Clock::now();
        auto outcome = session.execute(txn.prepared);
        sample.end = Clock::now();
        sample.committed =
            outcome && outcome.value().state == txn::TxnState::kCommitted;
        sample.resubmits = session.retries();
        if (outcome) sample.wait_episodes = outcome.value().wait_episodes;
        for (const IdEffect& effect : txn.effects) {
          out.ledger.release(effect, sample.committed);
        }
        if (sample.committed) {
          check_rows(txn, outcome.value().rows, args.corrupt == "rows",
                     out.checks);
        }
        out.samples.push_back(sample);
      }
    });
  }
  std::this_thread::sleep_until(window_start);
  const core::ClusterStats before = cluster.stats();
  for (std::thread& thread : threads) thread.join();
  const core::ClusterStats after = cluster.stats();

  Ledger ledger;
  std::vector<Sample> window;
  for (ClientOutput& out : outputs) {
    ledger.merge(out.ledger);
    for (std::string& failure : out.checks.check_failures) {
      result.check_failures.push_back(std::move(failure));
    }
    result.checked_rows += out.checks.checked_rows;
    for (const Sample& s : out.samples) {
      if (s.start < window_start) continue;
      window.push_back(s);
      ++result.attempted;
      if (!s.committed) ++result.failed;
    }
  }
  result.window_start = window_start;
  result.window_s = args.seconds;
  add_counters(before, after, window, result);
  result.samples = std::move(window);
  result.peak_rss_mb = peak_rss_mb_of(0);

  run_abort_probes(cluster, client, base, args, ledger, result);

  // Quiesce: every client transaction has completed; let trailing commit
  // acknowledgements land, then stop the sites and read every replica from
  // memory and from its durable store.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  cluster.stop();
  result.counters.set("storage.store_bytes_end",
                      static_cast<double>(store_bytes(cluster, shape.sites)),
                      "B");
  std::map<std::string, Replicas> docs;
  for (const workload::Placement& placement : base.placements) {
    for (const net::SiteId site : placement.sites) {
      auto context = cluster.site(site).data_manager().context_of(
          placement.doc);
      // An unreadable replica enters as a marker that differs from every
      // real document, so the replica comparison reports it.
      docs[placement.doc].live.push_back(
          context ? xml::serialize(context.value().document)
                  : std::string("<unreadable/>"));
      auto durable = core::wal::materialize(cluster.store_of(site),
                                            placement.doc);
      docs[placement.doc].durable.push_back(
          durable ? std::move(durable).value() : std::string("<unreadable/>"));
    }
  }
  check_documents(base, ledger, docs, result);
  return result;
}

}  // namespace dtxbench
