// Closed-loop load generator: one TdwpServer over the fixture's service,
// one TdwpClient session per client thread.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include <unistd.h>

#include "bench.h"
#include "common/stopwatch.h"
#include "protocol/server.h"

namespace perfbench {

using hyperq::Stopwatch;
namespace protocol = hyperq::protocol;

namespace {

/// The traced run's wrapper: times HyperQService::Run from outside and
/// keeps the program's own per-request span self-times. Everything is
/// forwarded, so the service sees the same calls as without it.
class TimingHandler : public protocol::RequestHandler {
 public:
  explicit TimingHandler(hyperq::service::HyperQService* service)
      : service_(service) {}

  hyperq::Result<protocol::LogonResponse> Logon(
      const protocol::LogonRequest& request) override {
    return service_->Logon(request);
  }
  void Logoff(uint32_t session_id) override { service_->Logoff(session_id); }

  hyperq::Result<protocol::WireResponse> Run(
      uint32_t session_id, const std::string& sql,
      hyperq::QueryContext* ctx) override {
    Stopwatch sw;
    auto response = service_->Run(session_id, sql, ctx);
    double micros = sw.ElapsedMicros();
    int64_t bytes = 0;
    if (response.ok()) {
      for (const auto& batch : response->batches) bytes += batch.size();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    last_[session_id] = {micros, bytes};
    return response;
  }

  void OnQueryTraceFinished(
      std::shared_ptr<const hyperq::observability::QueryTrace> trace) override {
    std::vector<std::pair<std::string, double>> self;
    for (const auto& span : trace->spans()) {
      if (span.duration_micros >= 0) {
        self.emplace_back(span.name, trace->SelfMicros(span.id));
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [name, micros] : self) span_self_us_[name].push_back(micros);
    }
    service_->OnQueryTraceFinished(std::move(trace));
  }

  std::string ScrapeText() override { return service_->ScrapeText(); }

  /// Server-side time and record bytes of the session's last request.
  std::pair<double, int64_t> Last(uint32_t session_id) {
    std::lock_guard<std::mutex> lock(mutex_);
    return last_[session_id];
  }

  std::map<std::string, std::vector<double>> TakeSpanSelfTimes() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(span_self_us_, {});
  }

 private:
  hyperq::service::HyperQService* service_;
  std::mutex mutex_;
  std::map<uint32_t, std::pair<double, int64_t>> last_;
  std::map<std::string, std::vector<double>> span_self_us_;
};

/// Warm-up / go gate shared by the session threads and the coordinator.
struct StartGate {
  std::mutex mutex;
  std::condition_variable cv;
  size_t ready = 0;
  bool go = false;
  std::chrono::steady_clock::time_point deadline;
};

struct SessionResult {
  std::vector<Sample> samples;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, int64_t> ledger;  // table -> net rows written
  std::chrono::steady_clock::time_point end;
};

void Fail(SessionResult* r, const Stmt* stmt, const std::string& why) {
  ++r->failed;
  if (r->failures.size() < 5) {
    r->failures.push_back(why + (stmt ? " [" + stmt->sql.substr(0, 120) + "]"
                                      : std::string()));
  }
}

void PlaySession(uint16_t port, int index, const SessionScript& script,
                 TimingHandler* timing, StartGate* gate, SessionResult* out) {
  protocol::TdwpClient client;
  bool connected = client.Connect(port).ok() &&
                   client.Logon("bench" + std::to_string(index), "pw").ok();
  if (!connected) Fail(out, nullptr, "session cannot connect and log on");

  // Plays and checks statement `i`; records a sample only when `timed`.
  auto play = [&](size_t i, bool timed) {
    const Stmt& stmt = script.stmts[i];
    ++out->attempted;
    Stopwatch sw;
    auto result = client.Run(stmt.sql);
    double micros = sw.ElapsedMicros();
    if (!result.ok()) {
      Fail(out, &stmt, result.status().ToString());
      return;
    }
    std::string why = CheckAnswer(stmt.expect, *result);
    if (!why.empty()) {
      Fail(out, &stmt, why);
      return;
    }
    if (stmt.ledger_sign != 0) {
      out->ledger[stmt.ledger_table] +=
          stmt.ledger_sign * static_cast<int64_t>(result->activity_count);
    }
    if (!timed) return;
    Sample s;
    s.micros = micros;
    s.rows = static_cast<int64_t>(result->rows.size());
    s.stmt = &stmt;
    if (timing != nullptr) {
      std::tie(s.server_micros, s.wire_bytes) =
          timing->Last(client.session_id());
    }
    out->samples.push_back(s);
  };

  if (connected) {
    for (size_t i = 0; i < script.warmup; ++i) play(i, false);
  }
  std::chrono::steady_clock::time_point deadline;
  {
    std::unique_lock<std::mutex> lock(gate->mutex);
    ++gate->ready;
    gate->cv.notify_all();
    gate->cv.wait(lock, [&] { return gate->go; });
    deadline = gate->deadline;
  }
  if (connected) {
    size_t n = script.stmts.size();
    size_t period = n - script.warmup;
    for (size_t k = 0;; ++k) {
      if (k % script.unit == 0 &&
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      play(script.warmup + k % period, true);
    }
    client.Goodbye();
  }
  out->end = std::chrono::steady_clock::now();
}

}  // namespace

double CurrentRssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0, resident = 0;
  int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1 << 20);
}

RunStats RunClosedLoop(Fixture* fx, const Workload& w, double seconds,
                       bool traced) {
  RunStats stats;
  TimingHandler timing(fx->service.get());
  protocol::RequestHandler* handler =
      traced ? static_cast<protocol::RequestHandler*>(&timing)
             : fx->service.get();
  protocol::TdwpServer server(handler);
  if (auto st = server.Start(0); !st.ok()) {
    ++stats.failed;
    stats.failures.push_back("server start: " + st.ToString());
    return stats;
  }

  std::atomic<bool> sampling{true};
  std::atomic<double> peak_rss{CurrentRssMb()};
  std::thread sampler([&] {
    while (sampling.load()) {
      double rss = CurrentRssMb();
      if (rss > peak_rss.load()) peak_rss.store(rss);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  size_t n = w.sessions.size();
  StartGate gate;
  std::vector<SessionResult> results(n);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back(PlaySession, server.port(), static_cast<int>(i),
                         std::cref(w.sessions[i]), traced ? &timing : nullptr,
                         &gate, &results[i]);
  }
  hyperq::service::TranslationActivityStats before;
  std::chrono::steady_clock::time_point t0;
  {
    std::unique_lock<std::mutex> lock(gate.mutex);
    gate.cv.wait(lock, [&] { return gate.ready == n; });
    before = fx->service->StatsSnapshot().translation_activity;
    timing.TakeSpanSelfTimes();  // drop the warm-up's spans
    t0 = std::chrono::steady_clock::now();
    gate.deadline =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(seconds));
    gate.go = true;
  }
  gate.cv.notify_all();
  for (auto& t : threads) t.join();
  auto after = fx->service->StatsSnapshot().translation_activity;
  server.Stop();
  sampling.store(false);
  sampler.join();

  stats.translated = after.submit_statements - before.submit_statements;
  stats.cache_hits = after.cache_hits - before.cache_hits;
  stats.peak_rss_mb = peak_rss.load();
  std::map<std::string, int64_t> ledger;
  for (auto& r : results) {
    stats.elapsed_s = std::max(
        stats.elapsed_s, std::chrono::duration<double>(r.end - t0).count());
    stats.attempted += r.attempted;
    stats.failed += r.failed;
    for (auto& f : r.failures) stats.failures.push_back(std::move(f));
    for (auto& [table, rows] : r.ledger) ledger[table] += rows;
    stats.samples.insert(stats.samples.end(), r.samples.begin(),
                         r.samples.end());
  }
  // The writers' ledger must match what the tables hold.
  for (const LedgerTable& t : w.ledgers) {
    int64_t want = t.base_rows + ledger[t.name];
    auto got = CountRows(fx->engine.get(), t.name);
    if (!got.ok() || *got != want) {
      ++stats.failed;
      stats.failures.push_back(
          t.name + " holds " +
          (got.ok() ? std::to_string(*got) : got.status().ToString()) +
          " rows, the writers imply " + std::to_string(want));
    }
  }
  if (traced) stats.span_self_us = timing.TakeSpanSelfTimes();
  return stats;
}

}  // namespace perfbench
