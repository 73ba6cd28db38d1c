// The open-loop TCP workload: three dtxd daemons with FileStore storage on
// loopback, fed by one generator process over pipelined RemoteSessions on a
// seeded Poisson schedule. Latency is timed from each transaction's
// intended send time.
//
// Process hygiene: every daemon is started with PR_SET_PDEATHSIG so it dies
// with dtxbench even on SIGKILL; SIGTERM / SIGINT / SIGHUP and the run's
// SIGALRM deadline kill and reap the daemons before dtxbench exits; the
// normal path stops them with SIGTERM, escalating to SIGKILL, and removes
// the store directories.
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "client/remote_session.hpp"
#include "dtx/wal.hpp"
#include "storage/file_store.hpp"

namespace dtxbench {

namespace fs = std::filesystem;

namespace {

constexpr int kMaxDaemons = 8;
std::atomic<int> g_daemon_pids[kMaxDaemons];

/// Kills and reaps every daemon still registered (async-signal-safe).
void kill_daemons() {
  for (std::atomic<int>& slot : g_daemon_pids) {
    const int pid = slot.exchange(0);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
}

void on_fatal_signal(int signum) {
  kill_daemons();
  ::_exit(128 + signum);
}

/// Resubmission budget and linear backoff, as client::RetryPolicy applies
/// them in-process.
constexpr std::uint32_t kRetryBudget = 1000;
constexpr auto kBackoff = std::chrono::microseconds(2'000);
/// A connection whose in-flight count exceeds this has fallen behind its
/// schedule (the open loop is past saturation).
constexpr std::size_t kBacklogBound = 64;
/// Bound on each check transaction after the run.
constexpr auto kCheckTimeout = std::chrono::milliseconds(5'000);

std::vector<std::uint16_t> reserve_ports(std::size_t n) {
  std::vector<int> held;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      std::fprintf(stderr, "dtxbench: cannot reserve a loopback port\n");
      std::exit(1);
    }
    held.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : held) ::close(fd);
  return ports;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The daemons of one run. The destructor kills whatever is still alive
/// and removes the work directory.
class Daemons {
 public:
  Daemons(const Shape& shape, const Base& base, fs::path work)
      : work_(std::move(work)) {
    fs::remove_all(work_);
    fs::create_directories(work_);
    ports_ = reserve_ports(shape.sites);
    std::string docs;
    std::string loads;
    for (const workload::Placement& placement : base.placements) {
      if (!docs.empty()) docs += ';';
      docs += placement.doc + ":";
      for (std::size_t i = 0; i < placement.sites.size(); ++i) {
        docs += (i == 0 ? "" : ",") + std::to_string(placement.sites[i]);
      }
    }
    for (const workload::Fragment& fragment : base.fragments) {
      const fs::path file = work_ / (fragment.doc_name + ".xml");
      std::ofstream(file) << fragment.xml;
      if (!loads.empty()) loads += ';';
      loads += fragment.doc_name + ":" + file.string();
    }
    for (std::size_t site = 0; site < shape.sites; ++site) {
      std::string peers;
      for (std::size_t peer = 0; peer < shape.sites; ++peer) {
        if (peer == site) continue;
        if (!peers.empty()) peers += ',';
        peers += std::to_string(peer) + "=" + address(peer);
      }
      spawn(site, {DTXD_BIN, "--site=" + std::to_string(site),
                   "--listen=" + address(site), "--peers=" + peers,
                   "--store=" + store_dir(site).string(), "--docs=" + docs,
                   "--load=" + loads, "--log_level=4"});
    }
  }

  ~Daemons() {
    kill_daemons();
    std::error_code ignored;
    fs::remove_all(work_, ignored);
  }

  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;

  [[nodiscard]] std::string address(std::size_t site) const {
    return "127.0.0.1:" + std::to_string(ports_[site]);
  }
  [[nodiscard]] fs::path store_dir(std::size_t site) const {
    return work_ / ("site" + std::to_string(site));
  }
  [[nodiscard]] std::size_t size() const noexcept { return ports_.size(); }

  /// Blocks until every daemon printed its listening line; false (with the
  /// daemon's stderr on ours) when one exits or the budget runs out.
  bool wait_ready(std::chrono::seconds budget) {
    const Clock::time_point deadline = Clock::now() + budget;
    for (std::size_t site = 0; site < size(); ++site) {
      while (slurp(out_file(site)).find("listening on port") ==
             std::string::npos) {
        const int pid = g_daemon_pids[site].load();
        if (pid <= 0 || ::waitpid(pid, nullptr, WNOHANG) == pid ||
            Clock::now() > deadline) {
          g_daemon_pids[site].store(0);
          std::fprintf(stderr, "dtxbench: dtxd %zu did not start: %s\n", site,
                       slurp(err_file(site)).c_str());
          return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    return true;
  }

  /// Sum of the daemons' peak resident sets.
  [[nodiscard]] double peak_rss_mb() const {
    double total = 0.0;
    for (std::size_t site = 0; site < size(); ++site) {
      total += peak_rss_mb_of(g_daemon_pids[site].load());
    }
    return total;
  }

  /// SIGTERM, bounded wait, SIGKILL for a daemon that ignores it. False
  /// when one had to be killed or exited with an error.
  bool stop() {
    bool clean = true;
    for (std::size_t site = 0; site < size(); ++site) {
      const int pid = g_daemon_pids[site].load();
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (std::size_t site = 0; site < size(); ++site) {
      const int pid = g_daemon_pids[site].load();
      if (pid <= 0) continue;
      int status = 0;
      bool reaped = false;
      for (int spin = 0; spin < 400 && !reaped; ++spin) {
        reaped = ::waitpid(pid, &status, WNOHANG) == pid;
        if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
      if (!reaped) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        clean = false;
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        clean = false;
      }
      g_daemon_pids[site].store(0);
    }
    return clean;
  }

  [[nodiscard]] std::uint64_t store_bytes() const {
    std::uint64_t total = 0;
    for (std::size_t site = 0; site < size(); ++site) {
      std::error_code ec;
      for (const auto& entry :
           fs::recursive_directory_iterator(store_dir(site), ec)) {
        if (entry.is_regular_file()) total += entry.file_size();
      }
    }
    return total;
  }

 private:
  [[nodiscard]] fs::path out_file(std::size_t site) const {
    return work_ / ("site" + std::to_string(site) + ".out");
  }
  [[nodiscard]] fs::path err_file(std::size_t site) const {
    return work_ / ("site" + std::to_string(site) + ".err");
  }

  void spawn(std::size_t site, std::vector<std::string> args) {
    const std::string out = out_file(site).string();
    const std::string err = err_file(site).string();
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("dtxbench: fork");
      std::exit(1);
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      const int out_fd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int err_fd = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out_fd < 0 || err_fd < 0) ::_exit(127);
      ::dup2(out_fd, STDOUT_FILENO);
      ::dup2(err_fd, STDERR_FILENO);
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(DTXD_BIN, argv.data());
      ::_exit(127);
    }
    g_daemon_pids[site].store(pid);
  }

  fs::path work_;
  std::vector<std::uint16_t> ports_;
};

bool retryable(const client::RemoteResult& result) {
  switch (result.reason) {
    case txn::AbortReason::kDeadlockVictim:
    case txn::AbortReason::kLockWaitExhausted:
    case txn::AbortReason::kSiteFailure:
    case txn::AbortReason::kStaleCatalog:
      return true;
    default:
      return false;
  }
}

/// One open-loop connection: its Poisson schedule, in-flight transactions
/// and deferred resubmissions.
struct Connection {
  struct InFlight {
    GenTxn txn;
    Clock::time_point intended;
    double send_lag_ms = 0.0;
    std::uint32_t resubmits = 0;
    std::uint32_t wait_episodes = 0;
    std::uint32_t deadlock_aborts = 0;
  };

  client::RemoteSession session;
  std::map<std::uint64_t, InFlight> in_flight;  ///< by correlation seq
  /// Victims waiting out their backoff: (resubmit time, transaction).
  std::multimap<Clock::time_point, InFlight> deferred;
  std::vector<Sample> samples;
  Ledger ledger;
  RunResult checks;
  std::size_t max_backlog = 0;
  std::string error;
};

void finish(Connection& conn, Connection::InFlight&& flight,
            const client::RemoteResult& result, const Args& args) {
  const Clock::time_point now = Clock::now();
  flight.wait_episodes += result.wait_episodes;
  const bool committed = result.accepted &&
                         result.state == txn::TxnState::kCommitted;
  if (!committed && result.accepted && retryable(result) &&
      flight.resubmits < kRetryBudget) {
    if (result.deadlock_victim) ++flight.deadlock_aborts;
    ++flight.resubmits;
    conn.deferred.emplace(now + kBackoff * flight.resubmits,
                          std::move(flight));
    return;
  }
  for (const IdEffect& effect : flight.txn.effects) {
    conn.ledger.release(effect, committed);
  }
  if (committed) {
    check_rows(flight.txn, result.rows, args.corrupt == "rows", conn.checks);
  }
  Sample sample;
  sample.start = flight.intended;
  sample.end = now;
  sample.update = flight.txn.update;
  sample.committed = committed;
  sample.resubmits = flight.resubmits;
  sample.wait_episodes = flight.wait_episodes;
  sample.deadlock_aborts = flight.deadlock_aborts;
  sample.send_lag_ms = flight.send_lag_ms;
  conn.samples.push_back(sample);
}

bool send(Connection& conn, Connection::InFlight&& flight) {
  auto seq = conn.session.submit(flight.txn.prepared.clone_ops());
  if (!seq) {
    conn.error = "submit: " + seq.status().to_string();
    return false;
  }
  conn.in_flight.emplace(seq.value(), std::move(flight));
  conn.max_backlog =
      std::max(conn.max_backlog, conn.in_flight.size() + conn.deferred.size());
  return true;
}

/// Collects every reply that has arrived; waits up to `wait` for the
/// oldest in-flight one first (millisecond granularity of the session).
bool collect(Connection& conn, std::chrono::milliseconds wait,
             const Args& args) {
  if (conn.in_flight.empty()) return true;
  const std::uint64_t oldest = conn.in_flight.begin()->first;
  auto first = conn.session.await(oldest, wait);
  if (!first && first.status().code() != util::Code::kTimeout) {
    conn.error = "await: " + first.status().to_string();
    return false;
  }
  if (first) {
    auto node = conn.in_flight.extract(oldest);
    finish(conn, std::move(node.mapped()), first.value(), args);
  }
  for (auto it = conn.in_flight.begin(); it != conn.in_flight.end();) {
    auto parked = conn.session.await(it->first, std::chrono::milliseconds(0));
    if (!parked) {
      ++it;
      continue;
    }
    auto node = conn.in_flight.extract(it++);
    finish(conn, std::move(node.mapped()), parked.value(), args);
  }
  return true;
}

void run_connection(Connection& conn, const Shape& shape, const Base& base,
                    const Args& args, std::size_t c, Clock::time_point begin,
                    Clock::time_point window_end) {
  Generator generator(shape, base, args.seed, c);
  util::Rng schedule(args.seed * 0x2545f4914f6cdd1dULL + 17 * (c + 1));
  const double rate = shape.rate_per_s / static_cast<double>(shape.clients);
  const auto gap = [&] {
    const double u = schedule.next_double();
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - u) / rate));
  };
  Clock::time_point next_due = begin + gap();
  // Drain bound after the window: a healthy open loop empties in
  // milliseconds; anything left by then counts as failed.
  const Clock::time_point drain_end = window_end + std::chrono::seconds(10);
  while (conn.error.empty()) {
    const Clock::time_point now = Clock::now();
    if (now >= drain_end) break;
    const bool sending = next_due < window_end;
    if (!sending && conn.in_flight.empty() && conn.deferred.empty()) break;
    if (sending && now >= next_due) {
      Connection::InFlight flight;
      flight.txn = generator.next(conn.ledger);
      flight.intended = next_due;
      flight.send_lag_ms =
          std::chrono::duration<double, std::milli>(now - next_due).count();
      next_due += gap();
      send(conn, std::move(flight));
      continue;
    }
    if (!conn.deferred.empty() && conn.deferred.begin()->first <= now) {
      auto node = conn.deferred.extract(conn.deferred.begin());
      send(conn, std::move(node.mapped()));
      continue;
    }
    Clock::time_point wake = now + std::chrono::milliseconds(1);
    if (sending) wake = std::min(wake, next_due);
    if (!conn.deferred.empty()) wake = std::min(wake, conn.deferred.begin()->first);
    if (conn.in_flight.empty() || wake - now < std::chrono::milliseconds(1)) {
      if (!collect(conn, std::chrono::milliseconds(0), args)) break;
      std::this_thread::sleep_until(wake);
    } else if (!collect(conn, std::chrono::milliseconds(1), args)) {
      break;
    }
  }
  // Whatever is still outstanding never finished: it failed.
  for (auto& [seq, flight] : conn.in_flight) {
    for (const IdEffect& effect : flight.txn.effects) {
      conn.ledger.release(effect, false);
    }
    conn.samples.push_back(Sample{flight.intended, Clock::now(),
                                  flight.txn.update, false});
  }
  for (auto& [when, flight] : conn.deferred) {
    for (const IdEffect& effect : flight.txn.effects) {
      conn.ledger.release(effect, false);
    }
    conn.samples.push_back(Sample{flight.intended, Clock::now(),
                                  flight.txn.update, false});
  }
}

bool connect(client::RemoteSession& session, const std::string& address) {
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    if (session.connect(address, std::chrono::milliseconds(1000))) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// The entity path of a fragment's section, as an id-listing query.
std::string ids_query(const workload::Fragment& fragment) {
  if (fragment.section == "people") return "/site/people/person/@id";
  if (fragment.section == "regions") {
    return "/site/regions/" + fragment.continent + "/item/@id";
  }
  if (fragment.section == "open_auctions") {
    return "/site/open_auctions/open_auction/@id";
  }
  if (fragment.section == "closed_auctions") {
    return "/site/closed_auctions/closed_auction/@id";
  }
  return "/site/categories/category/@id";
}

}  // namespace

void install_exit_guards(unsigned seconds) {
  struct sigaction action {};
  action.sa_handler = on_fatal_signal;
  sigemptyset(&action.sa_mask);
  for (const int signum : {SIGTERM, SIGINT, SIGHUP, SIGALRM}) {
    ::sigaction(signum, &action, nullptr);
  }
  ::alarm(seconds);
}

RunResult run_tcp(const Shape& shape, const Args& args,
                  Clock::time_point process_start, const Base& base) {
  RunResult result;
  const Clock::time_point spawn_start = Clock::now();
  Daemons daemons(shape, base,
                  fs::path(args.out_dir) / ("tcp-" + std::to_string(::getpid())));
  // std::exit skips destructors: kill the daemons before every early exit.
  if (!daemons.wait_ready(std::chrono::seconds(60))) {
    kill_daemons();
    std::exit(1);
  }
  std::vector<Connection> conns(shape.clients);
  for (std::size_t c = 0; c < shape.clients; ++c) {
    if (!connect(conns[c].session, daemons.address(c % daemons.size()))) {
      std::fprintf(stderr, "dtxbench: cannot connect to %s\n",
                   daemons.address(c % daemons.size()).c_str());
      kill_daemons();
      std::exit(1);
    }
  }
  const Clock::time_point ready = Clock::now();
  result.setup_s = seconds_between(process_start, ready);
  result.cluster_start_s = seconds_between(spawn_start, ready);

  const auto window_start =
      ready + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(shape.warmup_s));
  const auto window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    threads.emplace_back([&, c] {
      run_connection(conns[c], shape, base, args, c, ready, window_end);
    });
  }
  for (std::thread& thread : threads) thread.join();

  Ledger ledger;
  std::vector<double> lags;
  double resubmits = 0.0;
  double wait_episodes = 0.0;
  double deadlocks = 0.0;
  double commits = 0.0;
  std::size_t max_backlog = 0;
  std::uint64_t committed_in_window = 0;
  for (Connection& conn : conns) {
    if (!conn.error.empty()) {
      result.check_failures.push_back("connection: " + conn.error);
    }
    ledger.merge(conn.ledger);
    for (std::string& failure : conn.checks.check_failures) {
      result.check_failures.push_back(std::move(failure));
    }
    result.checked_rows += conn.checks.checked_rows;
    max_backlog = std::max(max_backlog, conn.max_backlog);
    for (const Sample& s : conn.samples) {
      if (s.committed && s.end >= window_start && s.end < window_end) {
        ++committed_in_window;
      }
      if (s.start < window_start) continue;
      result.samples.push_back(s);
      ++result.attempted;
      if (!s.committed) {
        ++result.failed;
        continue;
      }
      lags.push_back(s.send_lag_ms);
      resubmits += s.resubmits;
      wait_episodes += s.wait_episodes;
      deadlocks += s.deadlock_aborts;
      commits += 1.0;
    }
  }
  result.window_start = window_start;
  result.window_s = args.seconds;
  if (max_backlog > kBacklogBound) {
    result.check_failures.push_back(
        "open loop fell behind: " + std::to_string(max_backlog) +
        " transactions in flight on one connection");
  }
  const double scheduled = shape.rate_per_s * args.seconds;
  if (static_cast<double>(committed_in_window) < 0.8 * scheduled) {
    result.check_failures.push_back(
        "completions lag the schedule: " +
        std::to_string(committed_in_window) + " of ~" +
        std::to_string(static_cast<long>(scheduled)) + " scheduled");
  }
  Metrics& m = result.counters;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  m.set("client.resubmits_per_commit", ratio(resubmits, commits), "count");
  m.set("client.send_lag_ms.p50", percentile(lags, 0.50), "ms");
  m.set("client.send_lag_ms.p99", percentile(lags, 0.99), "ms");
  m.set("dtx.wait_episodes_per_commit", ratio(wait_episodes, commits),
        "count");
  m.set("dtx.deadlock_aborts", deadlocks, "count");
  // dtxd exports no engine counters over the wire; these read 0 here.
  for (const auto& [name, unit] :
       {std::pair{"dtx.lock_acqs_per_update_txn", "count"},
        {"dtx.remote_ops_per_commit", "count"},
        {"net.messages_per_commit", "count"},
        {"net.bytes_per_commit", "B"},
        {"dtx.snapshot_chain_hit_ratio", "ratio"},
        {"dtx.snapshot_materializes", "count"},
        {"query.plan_hit_ratio", "ratio"},
        {"query.plan_evictions", "count"}}) {
    m.set(name, 0.0, unit);
  }

  // Abort probes through the first connection.
  client::RemoteSession& probe = conns[0].session;
  std::size_t k = 0;
  for (const workload::Fragment& fragment : base.fragments) {
    if (fragment.section != "people") continue;
    const std::string id = "abortprobe" + std::to_string(k++);
    const std::string insert =
        "update " + fragment.doc_name + " insert into /site/people ::= " +
        "<person id=\"" + id + "\"><name>probe</name></person>";
    auto outcome = probe.execute_text(
        {insert, "update " + fragment.doc_name + " insert before /site ::= <x/>"},
        kCheckTimeout);
    if (!outcome ||
        outcome.value().state == txn::TxnState::kCommitted) {
      result.check_failures.push_back("abort probe " + id +
                                      " did not abort");
    }
    ledger.expect_absent(fragment.doc_name, id);
    if (args.corrupt == "aborted_insert") {
      (void)probe.execute_text({insert}, kCheckTimeout);
    }
  }

  // Live reads: every hosting site answers the same id list for each of
  // its documents (a read-only transaction coordinated at a hosting site
  // reads that site's replica).
  std::vector<client::RemoteSession> readers(daemons.size());
  for (std::size_t site = 0; site < daemons.size(); ++site) {
    if (!connect(readers[site], daemons.address(site))) {
      result.check_failures.push_back("cannot reconnect to site " +
                                      std::to_string(site));
    }
  }
  for (const workload::Fragment& fragment : base.fragments) {
    std::vector<std::string> first;
    const auto& hosts = hosts_of(base, fragment.doc_name);
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      auto read = readers[hosts[h]].execute_text(
          {"query " + fragment.doc_name + " " + ids_query(fragment)},
          kCheckTimeout);
      ++result.checked_replicas;
      if (!read || read.value().state != txn::TxnState::kCommitted ||
          read.value().rows.empty()) {
        result.check_failures.push_back("id read of " + fragment.doc_name +
                                        " failed at site " +
                                        std::to_string(hosts[h]));
        continue;
      }
      std::vector<std::string> ids = read.value().rows[0];
      std::sort(ids.begin(), ids.end());
      if (h == 0) {
        first = std::move(ids);
      } else if (ids != first) {
        result.check_failures.push_back(
            "sites " + std::to_string(hosts[0]) + " and " +
            std::to_string(hosts[h]) + " read different ids in " +
            fragment.doc_name);
      }
    }
  }
  for (auto& reader : readers) reader.close();
  for (Connection& conn : conns) conn.session.close();

  result.peak_rss_mb = daemons.peak_rss_mb();
  if (!daemons.stop()) {
    result.check_failures.push_back("a dtxd did not stop cleanly");
  }
  m.set("storage.store_bytes_end",
        static_cast<double>(daemons.store_bytes()), "B");

  // Durable state of every replica, from the stopped daemons' stores.
  std::map<std::string, Replicas> docs;
  for (const workload::Placement& placement : base.placements) {
    for (const net::SiteId site : placement.sites) {
      storage::FileStore store(daemons.store_dir(site));
      auto durable = core::wal::materialize(store, placement.doc);
      docs[placement.doc].durable.push_back(
          durable ? std::move(durable).value() : std::string("<unreadable/>"));
    }
  }
  check_documents(base, ledger, docs, result);
  return result;
}

}  // namespace dtxbench
