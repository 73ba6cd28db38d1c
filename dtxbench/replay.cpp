// The traced replay: the workload's generated transactions, one at a time
// on one thread, through the layers' public entry points — compile, lock
// set, lock table, DataManager execute / persist, the raw XPath evaluator
// and XUpdate applier (on a second copy of every fragment), and the wire
// codec for the frames each transaction would send. Each call is wrapped
// in a span; the spans give service times without contention.
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "dataguide/dataguide.hpp"
#include "dtx/data_manager.hpp"
#include "lock/lock_table.hpp"
#include "lock/protocol.hpp"
#include "net/codec.hpp"
#include "net/network.hpp"
#include "query/plan.hpp"
#include "storage/file_store.hpp"
#include "storage/memory_store.hpp"
#include "trace.hpp"
#include "xml/parser.hpp"
#include "xpath/evaluator.hpp"
#include "xupdate/applier.hpp"

namespace dtxbench {

namespace {

namespace fs = std::filesystem;
namespace lock = dtx::lock;

/// Transactions replayed per workload: a fixed amount of work per run.
constexpr std::size_t kReplayTxns = 2000;

/// StorageBackend decorator that counts the bytes written through it.
class CountingStore final : public storage::StorageBackend {
 public:
  explicit CountingStore(storage::StorageBackend& inner) : inner_(inner) {}
  [[nodiscard]] const char* kind() const noexcept override {
    return inner_.kind();
  }
  util::Result<std::string> load(const std::string& name) override {
    return inner_.load(name);
  }
  util::Status store(const std::string& name, const std::string& xml) override {
    return inner_.store(name, xml);
  }
  util::Status append(const std::string& name,
                      const std::string& data) override {
    appended_ += data.size();
    return inner_.append(name, data);
  }
  util::Result<std::string> read_log(const std::string& name) override {
    return inner_.read_log(name);
  }
  util::Status truncate(const std::string& name) override {
    return inner_.truncate(name);
  }
  bool exists(const std::string& name) override { return inner_.exists(name); }
  std::vector<std::string> list() override { return inner_.list(); }
  util::Status remove(const std::string& name) override {
    return inner_.remove(name);
  }

  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }

 private:
  storage::StorageBackend& inner_;
  std::uint64_t appended_ = 0;
};

/// A fragment parsed apart from the DataManager, for the raw XPath and
/// XUpdate layers.
struct RawDoc {
  std::unique_ptr<xml::Document> document;
  std::unique_ptr<dtx::dataguide::DataGuide> guide;
};

/// The frames one transaction sends: the client submission and reply, and
/// between its coordinator and the other hosting sites either one snapshot
/// read round per serving site (read-only) or an execute round per
/// operation and replica plus a commit round per participant (update).
std::vector<net::Message> frames_of(const Base& base, const GenTxn& txn,
                                    std::uint64_t id, net::SiteId coordinator,
                                    const std::vector<std::vector<std::string>>&
                                        rows) {
  std::vector<net::Message> frames;
  const net::SiteId client = net::kClientIdBase + 1;
  const auto& ops = txn.prepared.ops();
  frames.push_back({client, coordinator, net::ClientSubmit{id, ops}});
  std::set<net::SiteId> participants;
  if (!txn.update) {
    std::map<net::SiteId, std::vector<std::uint32_t>> by_site;
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
      const auto& hosts = hosts_of(base, ops[i].doc);
      if (std::find(hosts.begin(), hosts.end(), coordinator) != hosts.end()) {
        continue;  // served from the coordinator's own snapshot
      }
      by_site[hosts[0]].push_back(i);
    }
    for (const auto& [site, indices] : by_site) {
      net::SnapshotReadRequest request{id, coordinator, 1, indices, {}};
      net::SnapshotReadReply reply{id, true, txn::AbortReason::kNone, "",
                                   indices, {}};
      for (const std::uint32_t i : indices) {
        request.ops.push_back(ops[i]);
        reply.rows.push_back(rows[i]);
      }
      frames.push_back({coordinator, site, std::move(request)});
      frames.push_back({site, coordinator, std::move(reply)});
    }
  } else {
    for (std::uint32_t i = 0; i < ops.size(); ++i) {
      for (const net::SiteId site : hosts_of(base, ops[i].doc)) {
        if (site == coordinator) continue;
        participants.insert(site);
        frames.push_back({coordinator, site,
                          net::ExecuteOperation{id, i, 0, coordinator, 1,
                                                ops[i]}});
        net::OperationResult result;
        result.txn = id;
        result.op_index = i;
        result.executed = true;
        result.rows = rows[i];
        frames.push_back({site, coordinator, std::move(result)});
      }
    }
    for (const net::SiteId site : participants) {
      frames.push_back({coordinator, site, net::CommitRequest{id}});
      frames.push_back({site, coordinator, net::CommitAck{id, true}});
    }
  }
  net::ClientReply reply;
  reply.seq = id;
  reply.accepted = true;
  reply.txn = id;
  reply.rows = rows;
  frames.push_back({coordinator, client, std::move(reply)});
  return frames;
}

void add_spans(Metrics& metrics, const Tracer& tracer, const char* span,
               const std::string& metric) {
  std::vector<double> us = tracer.durations_us(span);
  const double calls = static_cast<double>(us.size());
  metrics.set(metric + ".p50", percentile(us, 0.50), "us");
  metrics.set(metric + ".p99", percentile(us, 0.99), "us");
  metrics.set(metric + ".calls", calls, "count");
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Mean cost of one open + close pair, measured on a throwaway tracer.
double span_cost_us() {
  constexpr int kSpans = 20'000;
  Tracer probe_tracer;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) probe_tracer.close(probe_tracer.open("probe", 0));
  return seconds_between(t0, Clock::now()) * 1e6 / kSpans;
}

[[noreturn]] void replay_failed(const std::string& what,
                                const util::Status& status) {
  std::fprintf(stderr, "dtxbench: replay: %s: %s\n", what.c_str(),
               status.to_string().c_str());
  std::exit(1);
}

}  // namespace

void run_replay(const Shape& shape, const Args& args, const Base& base,
                Metrics& metrics) {
  Tracer tracer;

  // The durable store: files for the TCP workload (as its daemons use),
  // memory for the in-process ones (as core::Cluster uses by default).
  const fs::path store_dir =
      fs::path(args.out_dir) / ("replay-" + std::to_string(::getpid()));
  std::unique_ptr<storage::StorageBackend> backing;
  if (shape.tcp) {
    fs::remove_all(store_dir);
    backing = std::make_unique<storage::FileStore>(store_dir);
  } else {
    backing = std::make_unique<storage::MemoryStore>();
  }
  CountingStore store(*backing);

  std::map<std::string, RawDoc> raw;
  for (const workload::Fragment& fragment : base.fragments) {
    RawDoc doc;
    {
      Scope span(tracer, "xml.parse", 0);
      auto parsed = xml::parse(fragment.xml, fragment.doc_name);
      if (!parsed) replay_failed("parse " + fragment.doc_name, parsed.status());
      doc.document = std::move(parsed).value();
    }
    {
      Scope span(tracer, "dataguide.build", 0);
      doc.guide = dtx::dataguide::DataGuide::build(*doc.document);
    }
    raw.emplace(fragment.doc_name, std::move(doc));
    if (auto stored = store.store(fragment.doc_name, fragment.xml); !stored) {
      replay_failed("store " + fragment.doc_name, stored);
    }
  }
  core::DataManager data(store);
  if (auto loaded = data.load_all(); !loaded) replay_failed("load", loaded);
  const auto protocol = lock::make_protocol(lock::ProtocolKind::kXdgl);
  lock::LockTable table;

  Generator generator(shape, base, args.seed, 0);
  Ledger ledger;
  double ops = 0.0;
  double requests = 0.0;
  double queries = 0.0;
  double rows_total = 0.0;
  double update_txns = 0.0;
  double frame_bytes = 0.0;
  const std::uint64_t appended_before = store.appended();
  for (std::size_t n = 0; n < kReplayTxns; ++n) {
    GenTxn txn = generator.next(ledger);
    const std::uint64_t id = n + 1;
    std::vector<std::vector<std::string>> rows;
    {
      Scope txn_span(tracer, "replay.txn", id);
      std::map<std::string, dtx::xupdate::UndoLog> undo;
      for (const txn::Operation& op : txn.prepared.ops()) {
        Scope op_span(tracer, "replay.op", id);
        ops += 1.0;
        util::Result<dtx::query::Plan> plan = [&] {
          Scope span(tracer, "query.compile", id);
          return dtx::query::compile(op);
        }();
        if (!plan) replay_failed("compile " + op.to_string(), plan.status());
        auto context = data.context_of(op.doc);
        if (!context) replay_failed("context " + op.doc, context.status());
        util::Result<std::vector<lock::LockRequest>> locks = [&] {
          Scope span(tracer, "lock.lockset", id);
          return op.is_update()
                     ? protocol->locks_for_update(plan.value().update(),
                                                  context.value(),
                                                  plan.value().prematch())
                     : protocol->locks_for_query(plan.value().query(),
                                                 context.value());
        }();
        if (!locks) replay_failed("locks " + op.to_string(), locks.status());
        requests += static_cast<double>(locks.value().size());
        {
          Scope span(tracer, "lock.acquire", id);
          if (!table.try_acquire_all(id, locks.value()).granted) {
            replay_failed("acquire", util::Status(util::Code::kInternal,
                                                  "conflict in a lone replay"));
          }
        }
        RawDoc& doc = raw.at(op.doc);
        if (op.is_update()) {
          {
            Scope span(tracer, "dtx.run_update", id);
            auto applied = data.run_update(id, plan.value());
            if (!applied) replay_failed("run_update", applied.status());
          }
          Scope span(tracer, "xupdate.apply", id);
          auto applied = dtx::xupdate::apply(plan.value().update(),
                                             *doc.document, undo[op.doc],
                                             doc.guide.get());
          if (!applied) replay_failed("apply", applied.status());
          rows.emplace_back();
        } else {
          queries += 1.0;
          {
            Scope span(tracer, "dtx.run_query", id);
            auto result = data.run_query(plan.value());
            if (!result) replay_failed("run_query", result.status());
            rows.push_back(std::move(result).value());
          }
          rows_total += static_cast<double>(rows.back().size());
          Scope span(tracer, "xpath.evaluate", id);
          auto strings = dtx::xpath::evaluate_strings(plan.value().query(),
                                                      *doc.document);
          if (strings.size() != rows.back().size()) {
            replay_failed("evaluate", util::Status(util::Code::kInternal,
                                                   "raw XPath and DataManager "
                                                   "disagree"));
          }
        }
      }
      if (txn.update) {
        update_txns += 1.0;
        std::vector<std::string> due;
        {
          Scope span(tracer, "dtx.persist", id);
          if (auto persisted = data.persist(id, &due); !persisted) {
            replay_failed("persist", persisted);
          }
        }
        {
          Scope span(tracer, "dtx.checkpoint", id);
          data.run_checkpoints(due);
        }
        for (auto& [doc, log] : undo) log.commit(*raw.at(doc).document);
      }
      {
        Scope span(tracer, "lock.release", id);
        table.release_all(id);
      }
      const auto coordinator =
          static_cast<net::SiteId>(n % shape.sites);
      for (const net::Message& frame :
           frames_of(base, txn, id, coordinator, rows)) {
        std::string bytes;
        {
          Scope span(tracer, "net.encode", id);
          bytes = net::codec::encode(frame);
        }
        frame_bytes += static_cast<double>(bytes.size());
        Scope span(tracer, "net.decode", id);
        if (auto decoded = net::codec::decode(bytes); !decoded) {
          replay_failed("decode", decoded.status());
        }
      }
    }
    for (const IdEffect& effect : txn.effects) ledger.release(effect, true);
  }
  const double appended =
      static_cast<double>(store.appended() - appended_before);

  metrics.set("xml.parse_s", sum(tracer.durations_us("xml.parse")) / 1e6, "s");
  metrics.set("dataguide.build_s",
              sum(tracer.durations_us("dataguide.build")) / 1e6, "s");
  add_spans(metrics, tracer, "query.compile", "query.compile_us");
  add_spans(metrics, tracer, "xpath.evaluate", "xpath.evaluate_us");
  add_spans(metrics, tracer, "dtx.run_query", "dtx.run_query_us");
  metrics.set("xpath.rows_per_query", queries > 0 ? rows_total / queries : 0.0,
              "count");
  add_spans(metrics, tracer, "lock.lockset", "lock.lockset_us");
  metrics.set("lock.requests_per_op", ops > 0 ? requests / ops : 0.0, "count");
  add_spans(metrics, tracer, "lock.acquire", "lock.acquire_us");
  add_spans(metrics, tracer, "lock.release", "lock.release_us");
  add_spans(metrics, tracer, "dtx.run_update", "dtx.run_update_us");
  add_spans(metrics, tracer, "xupdate.apply", "xupdate.apply_us");
  add_spans(metrics, tracer, "dtx.persist", "dtx.persist_us");
  add_spans(metrics, tracer, "dtx.checkpoint", "dtx.checkpoint_us");
  metrics.set("storage.bytes_appended_per_update_txn",
              update_txns > 0 ? appended / update_txns : 0.0, "B");
  add_spans(metrics, tracer, "net.encode", "net.encode_us");
  add_spans(metrics, tracer, "net.decode", "net.decode_us");
  metrics.set("net.frame_bytes_per_txn",
              frame_bytes / static_cast<double>(kReplayTxns), "B");
  add_spans(metrics, tracer, "replay.txn", "replay.txn_us");
  metrics.set("trace.span_cost_us", span_cost_us(), "us");

  const std::string path = (fs::path(args.out_dir) /
                            ("trace-" + shape.name + "-seed" +
                             std::to_string(args.seed) + ".jsonl"))
                               .string();
  fs::create_directories(args.out_dir);
  const std::string header = "{\"format\": \"dtxbench-trace/1\", "
                             "\"workload\": \"" + shape.name +
                             "\", \"seed\": " + std::to_string(args.seed) + "}";
  if (!tracer.write(path, header)) {
    std::fprintf(stderr, "dtxbench: cannot write %s\n", path.c_str());
  }
  backing.reset();
  std::error_code ignored;
  fs::remove_all(store_dir, ignored);
}

}  // namespace dtxbench
