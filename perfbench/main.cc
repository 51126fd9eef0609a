// Wire-level benchmark of Hyper-Q: an in-process TdwpServer over
// HyperQService over vdb::Engine, driven by TdwpClient sessions of this
// process. See README.md in this directory for the workloads and metrics.
//
//   hq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--commit <id>] [--source-digest <hex>]
//
// The last line of standard output is one JSON object: with --trace 0 the
// end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
// Lines before it are the full report. Exit code 1 on any failed or wrong
// statement.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "common/stopwatch.h"
#include "protocol/server.h"
#include "report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// Set-up is repeated at least kMinSetups times and for at least
// kSetupSeconds (so a fast set-up is repeated often enough for a steady
// median), at most kMaxSetups times. The first few TPC-H set-ups fault in
// fresh memory and run ~50% slower than later ones, which reuse it; 15 of
// them keep the median among the later ones.
constexpr int kMinSetups = 15;
constexpr int kMaxSetups = 100;
constexpr double kSetupSeconds = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a->workload = val;
    else if (key == "--seed") a->seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a->seconds = std::atof(val.c_str());
    else if (key == "--trace") a->trace = val == "1";
    else if (key == "--commit") a->commit = val;
    else if (key == "--source-digest") a->source_digest = val;
    else return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& m, bool with_n) {
  std::string out = "{";
  for (const auto& x : m.all()) {
    if (out.size() > 1) out += ", ";
    out += Quote(x.name) + ": {\"value\": " + Num(x.value) +
           ", \"unit\": " + Quote(x.unit);
    if (with_n) out += ", \"n\": " + std::to_string(x.n);
    out += "}";
  }
  return out + "}";
}

double Qps(const RunStats& r) {
  return r.elapsed_s > 0 ? static_cast<double>(r.samples.size()) / r.elapsed_s
                         : 0;
}

/// The end-to-end metrics, from the untraced run's raw samples. The
/// latency quantiles are Harrell-Davis estimates (see HdQuantile).
void EndToEnd(const RunStats& r, const std::vector<double>& setup_s,
              Metrics* m, Metrics* extra) {
  std::vector<double> all, writes;
  int64_t rows = 0;
  for (const auto& s : r.samples) {
    all.push_back(s.micros / 1e3);
    if (s.stmt->write) writes.push_back(s.micros / 1e3);
    rows += s.rows;
  }
  int64_t n = static_cast<int64_t>(all.size());
  m->Add("qps", Qps(r), "1/s", n);
  m->Add("latency_p50_ms", HdQuantile(all, 0.5), "ms", n);
  m->Add("latency_p95_ms", HdQuantile(all, 0.95), "ms", n);
  m->Add("rows_per_s", r.elapsed_s > 0 ? rows / r.elapsed_s : 0, "1/s", n);
  m->Add("setup_s", Quantile(setup_s, 0.5), "s",
         static_cast<int64_t>(setup_s.size()));
  m->Add("peak_rss_mb", r.peak_rss_mb, "MB", 1);
  // Not in BENCHMARK.json: zero on every healthy run, or absent on
  // read-only workloads.
  extra->Add("failed_frac",
             r.attempted ? static_cast<double>(r.failed) / r.attempted : 0,
             "ratio", r.attempted);
  if (!writes.empty()) {
    extra->Add("write_latency_p95_ms", HdQuantile(writes, 0.95), "ms",
               static_cast<int64_t>(writes.size()));
  }
}

/// Shares of the workload that later claims cite.
void Properties(const Workload& w, const RunStats& r, Metrics* p) {
  int64_t n = static_cast<int64_t>(r.samples.size());
  int64_t emulated = 0, writes = 0;
  std::vector<double> rows, bytes;
  for (const auto& s : r.samples) {
    emulated += s.stmt->emulated;
    writes += s.stmt->write;
    rows.push_back(static_cast<double>(s.rows));
    if (s.wire_bytes >= 0) bytes.push_back(static_cast<double>(s.wire_bytes));
  }
  double dn = n > 0 ? static_cast<double>(n) : 1;
  p->Add("replay_repeat_share", w.repeat_share, "ratio", n);
  p->Add("cache_hit_share",
         r.translated ? static_cast<double>(r.cache_hits) / r.translated : 0,
         "ratio", r.translated);
  p->Add("emulated_share", emulated / dn, "ratio", n);
  p->Add("write_share", writes / dn, "ratio", n);
  p->Add("rows_per_stmt.p50", Quantile(rows, 0.5), "count", n);
  if (!bytes.empty()) {
    p->Add("wire_bytes_per_stmt.p50", Quantile(bytes, 0.5), "B",
           static_cast<int64_t>(bytes.size()));
  }
}

/// Per-layer metrics measured on the traced run's own statements.
void FromTracedRun(const RunStats& t, Metrics* m) {
  std::vector<double> wire, server;
  double wire_rowset_us = 0;
  int64_t rows = 0;
  for (const auto& s : t.samples) {
    if (s.server_micros < 0) continue;
    wire.push_back(s.micros - s.server_micros);
    server.push_back(s.server_micros);
    if (s.stmt->expect.rowset) {
      wire_rowset_us += s.micros - s.server_micros;
      rows += s.rows;
    }
  }
  int64_t n = static_cast<int64_t>(wire.size());
  m->Add("protocol.wire_us.p50", Quantile(wire, 0.5), "us", n);
  m->Add("protocol.us_per_krow",
         rows > 0 ? wire_rowset_us / (rows / 1000.0) : 0, "us", rows);
  m->Add("service.run_us.p50", Quantile(server, 0.5), "us", n);
  m->Add("service.cache_hit_share",
         t.translated ? static_cast<double>(t.cache_hits) / t.translated : 0,
         "ratio", t.translated);
}

/// The program's own span self-times beside the outside timings of the
/// same layer; a layer is flagged when the two medians differ by >10%.
std::string SpanComparison(const RunStats& t, const Metrics& layers) {
  static const std::pair<const char*, const char*> kOutside[] = {
      {"cache.lookup", "service.translate_us.hit.p50"},
      {"parse", "sql.parse_us.p50"},
      {"bind", "binder.bind_us.p50"},
      {"transform", "transform.run_us.p50"},
      {"serialize", "serializer.serialize_us.p50"},
  };
  std::string json = "{";
  std::printf("# %-16s %8s %14s  %-30s %12s %s\n", "span", "n",
              "self_us.p50", "outside metric", "outside_us", "flag");
  for (const auto& [name, self] : t.span_self_us) {
    double p50 = Quantile(self, 0.5);
    const Metric* outside = nullptr;
    for (const auto& [span, metric] : kOutside) {
      if (name == span) outside = layers.Find(metric);
    }
    bool flag = outside != nullptr && outside->value > 0 &&
                std::fabs(p50 - outside->value) > 0.10 * outside->value;
    std::printf("# %-16s %8zu %14.2f  %-30s %12s %s\n", name.c_str(),
                self.size(), p50, outside ? outside->name.c_str() : "-",
                outside ? Num(outside->value).c_str() : "-",
                flag ? "DIFFERS>10%" : "");
    if (json.size() > 1) json += ", ";
    json += Quote(name) + ": {\"self_us_p50\": " + Num(p50) +
            ", \"n\": " + std::to_string(self.size());
    if (outside != nullptr) {
      json += ", \"outside\": " + Quote(outside->name) +
              ", \"outside_us\": " + Num(outside->value) +
              ", \"differs\": " + (flag ? "true" : "false");
    }
    json += "}";
  }
  return json + "}";
}

void PrintMetrics(const char* title, const Metrics& m) {
  std::printf("# %s\n", title);
  for (const auto& x : m.all()) {
    std::printf("#   %-34s %16s %-6s n=%lld\n", x.name.c_str(),
                Num(x.value).c_str(), x.unit.c_str(),
                static_cast<long long>(x.n));
  }
}

int Run(const Args& args) {
  std::printf("# workload %s seed %llu seconds %s trace %d nproc %u build %s "
              "commit %s source %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              args.commit.c_str(), args.source_digest.c_str());
  // Set-up: schema, load and server start, several times; the median is
  // setup_s. The first fixture is kept as the reference the answers are
  // checked against, the last one serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> reference, live;
  hyperq::Stopwatch setup_total;
  for (int i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups && setup_total.ElapsedSeconds() >= kSetupSeconds) break;
    hyperq::Stopwatch sw;
    auto fx = SetUpFor(args.workload);
    if (!fx.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   fx.status().ToString().c_str());
      return 2;
    }
    {
      hyperq::protocol::TdwpServer server((*fx)->service.get());
      if (!server.Start(0).ok()) {
        std::fprintf(stderr, "server start failed\n");
        return 2;
      }
      server.Stop();
    }
    setup_s.push_back(sw.ElapsedSeconds());
    (i == 0 ? reference : live) = std::move(*fx);
  }
  auto workload = BuildWorkload(args.workload, args.seed, reference.get());
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  reference.reset();
  malloc_trim(0);

  // A traced run measures two windows, untimed then timed, half as long.
  double window = args.trace ? args.seconds / 2 : args.seconds;
  RunStats plain = RunClosedLoop(live.get(), *workload, window, false);
  Metrics e2e, extra, props, layers;
  EndToEnd(plain, setup_s, &e2e, &extra);
  Properties(*workload, plain, &props);
  int64_t attempted = plain.attempted, failed = plain.failed;
  std::vector<std::string> failures = plain.failures;

  std::string spans = "{}";
  if (args.trace) {
    RunStats traced = RunClosedLoop(live.get(), *workload, window, true);
    attempted += traced.attempted;
    failed += traced.failed;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    FromTracedRun(traced, &layers);
    hyperq::Status probes =
        RunProbes(live.get(), *workload, args.seed, &layers);
    if (!probes.ok()) {
      ++failed;
      failures.push_back("probes: " + probes.ToString());
    }
    layers.Add("bench.trace_cost_qps", Qps(traced) - Qps(plain), "1/s",
               static_cast<int64_t>(traced.samples.size()));
    props = Metrics();
    Properties(*workload, traced, &props);
    spans = SpanComparison(traced, layers);
  }

  PrintMetrics("end-to-end (untimed run)", e2e);
  PrintMetrics("also reported", extra);
  PrintMetrics("workload properties", props);
  if (args.trace) PrintMetrics("per-layer (traced run and probes)", layers);
  for (const auto& f : failures) std::printf("# FAILED: %s\n", f.c_str());

  std::string failures_json = "[";
  for (const auto& f : failures) {
    failures_json += (failures_json.size() > 1 ? ", " : "") + Quote(f);
  }
  failures_json += "]";
  std::printf(
      "{\"report\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"nproc\": %u, \"build_type\": %s, \"commit\": %s, "
      "\"source_digest\": %s, \"end_to_end\": %s, \"also\": %s, "
      "\"properties\": %s, \"per_layer\": %s, \"spans\": %s, "
      "\"failures\": %s}}\n",
      Quote(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), std::thread::hardware_concurrency(),
      Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(args.commit).c_str(),
      Quote(args.source_digest).c_str(), MetricsJson(e2e, true).c_str(),
      MetricsJson(extra, true).c_str(), MetricsJson(props, true).c_str(),
      MetricsJson(layers, true).c_str(), spans.c_str(),
      failures_json.c_str());
  bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              MetricsJson(args.trace ? layers : e2e, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--source-digest <hex>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
