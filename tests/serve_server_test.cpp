// End-to-end tests of the campaign service: admission, execution,
// byte-identity with the bench CLI path, and the content-addressed cache.
// Requests go through Server::handle() directly — the HTTP socket layer has
// its own tests (serve_http_test) and the CI smoke covers the wire.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/record_io.hpp"
#include "profiling/report.hpp"
#include "resilience/storage.hpp"
#include "serve/config.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::serve {
namespace {

class TempDir {
public:
  explicit TempDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& str() const { return path_; }

private:
  std::string path_;
};

/// The resilience_test storm sweep expressed as a service config: 2
/// channels x 512-stride BER-only survey in 2-row shards -> 18 fast shards.
CampaignConfig quick_config() {
  CampaignConfig config;
  config.label = "serve-test";
  config.channels = {0, 7};
  config.row_stride = 512;
  config.wcdp_by_ber = true;
  config.settle_thermal = false;
  config.max_rows_per_shard = 2;
  return config;
}

HttpRequest request(const std::string& method, const std::string& target,
                    const std::string& body = "", const std::string& tenant = "") {
  HttpRequest req;
  req.method = method;
  req.target = target;
  req.body = body;
  if (!tenant.empty()) req.headers["x-tenant"] = tenant;
  return req;
}

campaign::JsonValue parse(const HttpResponse& resp) {
  return campaign::parse_json(resp.body, "response body");
}

/// Polls GET /jobs/<id> until the job leaves the active states.
std::string wait_terminal(Server& server, std::uint64_t id) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  for (;;) {
    const HttpResponse resp = server.handle(request("GET", "/jobs/" + std::to_string(id)));
    EXPECT_EQ(resp.status, 200);
    const std::string state = parse(resp).at("state").text;
    if (state != "queued" && state != "running") return state;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "job " << id << " still " << state << " after 2 minutes";
      return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// The bench CLI path in-process: the same spec (and transport fault plan)
/// through campaign::Campaign with a report-only telemetry sink, rendered as
/// the deterministic report. A non-empty `stream_path` also writes the
/// run's metrics stream there.
std::string bench_det_report(const CampaignConfig& config, unsigned jobs,
                             const std::string& stream_path = "") {
  const campaign::SweepSpec spec = to_sweep_spec(config);
  campaign::CampaignConfig cc;
  cc.progress = false;
  cc.jobs = jobs;
  cc.fault_plan = to_fault_plan(config);
  cc.metrics_stream_path = stream_path;
  telemetry::TelemetryConfig tc;
  tc.trace_enabled = false;
  telemetry::Telemetry sink(tc);
  campaign::Campaign campaign(cc, &sink);
  const campaign::CampaignResult result = campaign.run(spec);
  const profiling::RunReport report =
      campaign::build_report(config.label, spec, campaign, result, &sink);
  std::ostringstream os;
  profiling::write_report_json(os, report, /*include_wall=*/false);
  os << '\n';
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A metrics stream's cycles-cadence samples, sorted: the deterministic
/// per-attempt series, independent of how shards were scheduled.
std::vector<std::string> sorted_cycles_samples(const std::string& stream) {
  std::vector<std::string> lines;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"sample\":\"cycles\"") != std::string::npos) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Runs `config` to a terminal state on a fresh server with `rigs` rigs and
/// returns (deterministic report, metrics stream) as served over the API.
std::pair<std::string, std::string> serve_report_and_stream(const std::string& dir,
                                                            const CampaignConfig& config,
                                                            unsigned rigs) {
  Server::Options options;
  options.data_dir = dir;
  options.rigs = rigs;
  Server server(options);
  server.start();
  const HttpResponse created = server.handle(request("POST", "/jobs", to_canonical_json(config)));
  EXPECT_EQ(created.status, 201) << created.body;
  const std::uint64_t id = parse(created).at("id").as_u64();
  EXPECT_EQ(wait_terminal(server, id), "done");
  const std::string base = "/jobs/" + std::to_string(id);
  std::string report = server.handle(request("GET", base + "/report?det=1")).body;
  std::string stream = server.handle(request("GET", base + "/stream")).body;
  server.drain();
  return {std::move(report), std::move(stream)};
}

TEST(ServeServer, EndToEndMatchesTheBenchCliPath) {
  const TempDir dir("serve_server_test_e2e");
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  Server server(options);
  server.start();

  // Submit over the API; the work-stealing pool runs it.
  const HttpResponse created =
      server.handle(request("POST", "/jobs", to_canonical_json(quick_config()), "alice"));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::uint64_t id = parse(created).at("id").as_u64();
  // The submit response reads status after the enqueue (so fully-cached
  // jobs answer "done"); for fresh work the rigs may already be running it.
  const std::string born = parse(created).at("state").text;
  EXPECT_TRUE(born == "queued" || born == "running" || born == "done") << born;
  EXPECT_EQ(wait_terminal(server, id), "done");

  const HttpResponse status = server.handle(request("GET", "/jobs/" + std::to_string(id)));
  const campaign::JsonValue doc = parse(status);
  EXPECT_EQ(doc.at("tenant").text, "alice");
  EXPECT_EQ(doc.at("shards").at("failed").as_u64(), 0u);
  EXPECT_EQ(doc.at("shards").at("remaining").as_u64(), 0u);
  EXPECT_EQ(doc.at("shards").at("cached").as_u64(), 0u);
  EXPECT_GT(doc.at("records").as_u64(), 0u);

  // The acceptance bar: the deterministic report fetched over HTTP is
  // byte-identical to the bench CLI path on the same config — any rig
  // count, any interleaving, any amount of work stealing.
  const HttpResponse report =
      server.handle(request("GET", "/jobs/" + std::to_string(id) + "/report?det=1"));
  ASSERT_EQ(report.status, 200);
  EXPECT_EQ(report.body, bench_det_report(quick_config(), options.rigs));

  // The full report exists too, and the stream is a complete document.
  EXPECT_EQ(server.handle(request("GET", "/jobs/" + std::to_string(id) + "/report")).status,
            200);
  const HttpResponse stream =
      server.handle(request("GET", "/jobs/" + std::to_string(id) + "/stream"));
  ASSERT_EQ(stream.status, 200);
  EXPECT_NE(stream.body.find("\"sample\":\"final\""), std::string::npos);

  // Resubmission of the identical config: admitted, served entirely from
  // the result cache, zero shards re-simulated.
  const std::string before_statz = server.handle(request("GET", "/statz")).body;
  const std::uint64_t shards_run_before =
      campaign::parse_json(before_statz, "statz").at("campaign.shards_run").as_u64();

  const HttpResponse resubmitted =
      server.handle(request("POST", "/jobs", to_canonical_json(quick_config()), "bob"));
  ASSERT_EQ(resubmitted.status, 201) << resubmitted.body;
  const std::uint64_t id2 = parse(resubmitted).at("id").as_u64();
  // A fully-cached job answers its own submission already finalized.
  EXPECT_EQ(parse(resubmitted).at("state").text, "done") << resubmitted.body;
  EXPECT_EQ(parse(resubmitted).at("cache_hit").boolean, true);
  EXPECT_EQ(wait_terminal(server, id2), "done");

  const campaign::JsonValue status2 =
      parse(server.handle(request("GET", "/jobs/" + std::to_string(id2))));
  EXPECT_EQ(status2.at("cache_hit").boolean, true);
  EXPECT_EQ(status2.at("config_hash").text, parse(status).at("config_hash").text);
  EXPECT_EQ(status2.at("shards").at("cached").as_u64(),
            parse(status).at("shards").at("total").as_u64());

  const campaign::JsonValue after =
      campaign::parse_json(server.handle(request("GET", "/statz")).body, "statz");
  EXPECT_EQ(after.at("campaign.shards_run").as_u64(), shards_run_before);
  EXPECT_GE(after.at("serve.jobs_cache_hit").as_u64(), 1u);
  EXPECT_GT(after.at("serve.cache_hits").as_u64(), 0u);

  // Both jobs flatten to the same journaled records, byte for byte.
  const HttpResponse results1 =
      server.handle(request("GET", "/jobs/" + std::to_string(id) + "/results"));
  const HttpResponse results2 =
      server.handle(request("GET", "/jobs/" + std::to_string(id2) + "/results"));
  ASSERT_EQ(results1.status, 200);
  ASSERT_EQ(results2.status, 200);
  EXPECT_FALSE(results1.body.empty());
  EXPECT_EQ(results1.body, results2.body);

  server.drain();
}

TEST(ServeServer, FaultStormJobYieldsTheSameResults) {
  // The serve scheduler inherits the resilience plane's guarantee: a
  // transport fault storm changes nothing about the journaled bytes. Run
  // the storm in a fresh server (fresh cache — the fault plan is not part
  // of the cache identity, deliberately) and diff against the clean run.
  const TempDir clean_dir("serve_server_test_storm_clean");
  const TempDir storm_dir("serve_server_test_storm");

  const auto run_results = [](const std::string& dir, const CampaignConfig& config) {
    Server::Options options;
    options.data_dir = dir;
    options.rigs = 2;
    Server server(options);
    server.start();
    const HttpResponse created =
        server.handle(request("POST", "/jobs", to_canonical_json(config)));
    EXPECT_EQ(created.status, 201) << created.body;
    const std::uint64_t id = parse(created).at("id").as_u64();
    EXPECT_EQ(wait_terminal(server, id), "done");
    const HttpResponse results =
        server.handle(request("GET", "/jobs/" + std::to_string(id) + "/results"));
    EXPECT_EQ(results.status, 200);
    server.drain();
    return results.body;
  };

  const std::string clean = run_results(clean_dir.str(), quick_config());
  CampaignConfig storm = quick_config();
  storm.fault_rate = 0.05;
  storm.fault_seed = 0xB0071;
  EXPECT_EQ(config_hash(storm), config_hash(quick_config()));
  const std::string stormed = run_results(storm_dir.str(), storm);
  EXPECT_FALSE(clean.empty());
  EXPECT_EQ(stormed, clean);
}

TEST(ServeServer, FaultStormMatchesTheBenchCliPathOnOneRig) {
  // Both front ends run shards through the same executor, so under a
  // transport-fault storm the retry path — injector serials, rebuilt rigs,
  // attempt spans, cycles samples — must agree too. One rig and one job
  // keep the injector serials in shard order on both paths (with several
  // rigs they follow scheduling, so multi-rig storms are not comparable).
  const TempDir dir("serve_server_test_storm_identity");
  CampaignConfig storm = quick_config();
  storm.fault_rate = 0.05;
  storm.fault_seed = 0xB0071;
  const auto [served_report, served_stream] =
      serve_report_and_stream(dir.str() + "/serve", storm, 1);
  std::filesystem::create_directories(dir.str());
  const std::string bench_stream_path = dir.str() + "/bench.stream.jsonl";
  EXPECT_EQ(served_report, bench_det_report(storm, 1, bench_stream_path));
  // The storm really hit: transport faults were injected and recovered.
  const campaign::JsonValue report = campaign::parse_json(served_report, "report");
  EXPECT_GT(report.at("resilience").at("injected").as_u64(), 0u);
  const std::vector<std::string> cycles = sorted_cycles_samples(served_stream);
  EXPECT_FALSE(cycles.empty());
  EXPECT_EQ(cycles, sorted_cycles_samples(read_file(bench_stream_path)));
}

TEST(ServeServer, CyclesSamplesMatchTheBenchCliPathOnTwoRigs) {
  // Fault-free, the cycles series is a pure function of each shard and
  // attempt, whichever rig ran it: sorted, the two paths agree line for line.
  const TempDir dir("serve_server_test_cycles_identity");
  const auto [served_report, served_stream] =
      serve_report_and_stream(dir.str() + "/serve", quick_config(), 2);
  std::filesystem::create_directories(dir.str());
  const std::string bench_stream_path = dir.str() + "/bench.stream.jsonl";
  EXPECT_EQ(served_report, bench_det_report(quick_config(), 2, bench_stream_path));
  const std::vector<std::string> cycles = sorted_cycles_samples(served_stream);
  EXPECT_FALSE(cycles.empty());
  EXPECT_EQ(cycles, sorted_cycles_samples(read_file(bench_stream_path)));
}

TEST(ServeServer, JournalLostMidJobFailsTheJobButKeepsItsResults) {
  // A disk-full on a later journal append: the shard commit drops the
  // journal and keeps measuring, so every shard completes, yet a job whose
  // durable record died must not claim success.
  const TempDir dir("serve_server_test_journal_lost");
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  options.storage_plan.script.push_back({resilience::StorageFaultKind::kEnospc, 6});
  Server server(options);
  server.start();
  const HttpResponse created =
      server.handle(request("POST", "/jobs", to_canonical_json(quick_config())));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::uint64_t id = parse(created).at("id").as_u64();
  EXPECT_EQ(wait_terminal(server, id), "failed");

  const campaign::JsonValue status =
      parse(server.handle(request("GET", "/jobs/" + std::to_string(id))));
  EXPECT_EQ(status.at("error").text.rfind("storage:", 0), 0u) << status.at("error").text;
  EXPECT_EQ(status.at("shards").at("done").as_u64(), status.at("shards").at("total").as_u64());
  EXPECT_EQ(status.at("shards").at("failed").as_u64(), 0u);

  // The journal's intact prefix still serves.
  EXPECT_EQ(server.handle(request("GET", "/jobs/" + std::to_string(id) + "/results")).status,
            200);

  const HttpResponse flightrec = server.handle(request("GET", "/debugz/flightrec"));
  ASSERT_EQ(flightrec.status, 200);
  EXPECT_NE(flightrec.body.find("\"kind\":\"storage-error\""), std::string::npos)
      << flightrec.body;
  server.drain();
}

// ---------------------------------------------------------------------------
// Restart recovery: a second Server on the same data dir.
// ---------------------------------------------------------------------------

/// Runs quick_config() to "done" as job 1 on a server over `dir` and
/// returns its /results body. The server is gone on return, so the caller
/// can restart another one on the same data dir.
std::string run_job_to_done(const std::string& dir) {
  Server::Options options;
  options.data_dir = dir;
  options.rigs = 2;
  Server server(options);
  server.start();
  const HttpResponse created =
      server.handle(request("POST", "/jobs", to_canonical_json(quick_config())));
  EXPECT_EQ(created.status, 201) << created.body;
  EXPECT_EQ(parse(created).at("id").as_u64(), 1u);
  EXPECT_EQ(wait_terminal(server, 1), "done");
  const HttpResponse results = server.handle(request("GET", "/jobs/1/results"));
  EXPECT_EQ(results.status, 200);
  server.drain();
  return results.body;
}

/// Rewrites job 1's descriptor as a kill mid-job leaves it: state running.
void mark_job_running(const std::string& dir) {
  const std::string path = dir + "/job-1.json";
  std::string text = read_file(path);
  const std::string done = "\"state\":\"done\"";
  const std::string::size_type at = text.find(done);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, done.size(), "\"state\":\"running\"");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// Replaces the `line_no`-th (0-based) line of a file with `with` (or, when
/// `with` is empty, flips one byte in its middle: mid-file bit rot).
void damage_line(const std::string& path, std::size_t line_no, const std::string& with = "") {
  std::string content = read_file(path);
  std::size_t start = 0;
  for (std::size_t i = 0; i < line_no; ++i) start = content.find('\n', start) + 1;
  const std::size_t end = content.find('\n', start);
  ASSERT_NE(end, std::string::npos);
  if (with.empty()) {
    content[start + (end - start) / 2] ^= 0x01;
  } else {
    content.replace(start, end - start, with);
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc) << content;
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

TEST(ServeServer, RestartRecoversATerminalJobAndWarmsTheCache) {
  const TempDir dir("serve_server_test_restart_terminal");
  const std::string results = run_job_to_done(dir.str());

  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  Server server(options);
  server.start();
  const campaign::JsonValue status = parse(server.handle(request("GET", "/jobs/1")));
  EXPECT_EQ(status.at("state").text, "done");
  EXPECT_EQ(status.at("shards").at("done").as_u64(), status.at("shards").at("total").as_u64());
  EXPECT_EQ(status.at("shards").at("remaining").as_u64(), 0u);
  EXPECT_EQ(server.handle(request("GET", "/jobs/1/results")).body, results);

  // The recovered journal warmed the cache: resubmitting simulates nothing.
  const HttpResponse again =
      server.handle(request("POST", "/jobs", to_canonical_json(quick_config())));
  ASSERT_EQ(again.status, 201) << again.body;
  EXPECT_EQ(parse(again).at("cache_hit").boolean, true) << again.body;
  const campaign::JsonValue statz =
      campaign::parse_json(server.handle(request("GET", "/statz")).body, "statz");
  EXPECT_EQ(statz.at("campaign.shards_run").as_u64(), 0u);
  server.drain();
}

TEST(ServeServer, RestartWithADestroyedJournalHeaderReRunsEveryShard) {
  const TempDir dir("serve_server_test_restart_header");
  const std::string results = run_job_to_done(dir.str());
  mark_job_running(dir.str());
  damage_line(dir.str() + "/job-1.journal.jsonl", 0, "{\"not\":\"a journal header\"}");

  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  Server server(options);
  server.start();
  EXPECT_EQ(wait_terminal(server, 1), "done");
  const campaign::JsonValue status = parse(server.handle(request("GET", "/jobs/1")));
  EXPECT_EQ(status.at("shards").at("cached").as_u64(), 0u);
  EXPECT_EQ(server.handle(request("GET", "/jobs/1/results")).body, results);
  server.drain();
}

TEST(ServeServer, ResumeWhoseJournalCannotBeReopenedKeepsItsResults) {
  // Resume restores the intact shards, then the compacting reopen fails
  // (the quarantine sidecar cannot be opened). The journal must be dropped,
  // not truncated: the job fails with a storage error and the file still
  // serves every restored shard.
  const TempDir dir("serve_server_test_restart_reopen");
  const std::string results = run_job_to_done(dir.str());
  ASSERT_EQ(count_lines(results), 36u);
  mark_job_running(dir.str());
  const std::string journal = dir.str() + "/job-1.journal.jsonl";
  damage_line(journal, 5);
  std::filesystem::create_directories(journal + ".quarantine");

  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  Server server(options);
  server.start();
  EXPECT_EQ(wait_terminal(server, 1), "failed");
  const campaign::JsonValue status = parse(server.handle(request("GET", "/jobs/1")));
  EXPECT_EQ(status.at("error").text.rfind("storage:", 0), 0u) << status.at("error").text;
  EXPECT_EQ(status.at("shards").at("cached").as_u64(), 17u);
  const HttpResponse served = server.handle(request("GET", "/jobs/1/results"));
  ASSERT_EQ(served.status, 200);
  EXPECT_EQ(count_lines(served.body), 34u) << "the 17 intact shards' rows survive";
  server.drain();
}

TEST(ServeServer, AdmissionControl) {
  // No start(): the scheduler has no rig threads, so admitted jobs stay
  // queued and admission decisions are deterministic.
  const TempDir dir("serve_server_test_admission");
  Server::Options options;
  options.data_dir = dir.str();
  options.queue_limit = 3;
  options.tenant_quota = 2;
  Server server(options);
  std::filesystem::create_directories(dir.str());

  const std::string body = to_canonical_json(quick_config());

  // Malformed and invalid configs are 400s, not crashes.
  EXPECT_EQ(server.handle(request("POST", "/jobs", "not json")).status, 400);
  EXPECT_EQ(server.handle(request("POST", "/jobs", R"({"rigs": 4})")).status, 400);

  EXPECT_EQ(server.handle(request("POST", "/jobs", body, "alice")).status, 201);
  EXPECT_EQ(server.handle(request("POST", "/jobs", body, "alice")).status, 201);

  // Tenant quota: alice's third active job bounces, bob still fits.
  const HttpResponse quota = server.handle(request("POST", "/jobs", body, "alice"));
  EXPECT_EQ(quota.status, 429);
  ASSERT_TRUE(quota.extra_headers.count("Retry-After"));
  EXPECT_EQ(server.handle(request("POST", "/jobs", body, "bob")).status, 201);

  // Server-wide queue limit: three active jobs, everyone bounces.
  const HttpResponse full = server.handle(request("POST", "/jobs", body, "carol"));
  EXPECT_EQ(full.status, 429);
  ASSERT_TRUE(full.extra_headers.count("Retry-After"));

  // Cancelling frees a slot.
  EXPECT_EQ(server.handle(request("DELETE", "/jobs/1")).status, 200);
  EXPECT_EQ(server.handle(request("DELETE", "/jobs/1")).status, 409);
  EXPECT_EQ(parse(server.handle(request("GET", "/jobs/1"))).at("state").text, "cancelled");
  EXPECT_EQ(server.handle(request("POST", "/jobs", body, "carol")).status, 201);

  // Unknowns and wrong methods.
  EXPECT_EQ(server.handle(request("GET", "/jobs/99")).status, 404);
  EXPECT_EQ(server.handle(request("DELETE", "/jobs/99")).status, 404);
  EXPECT_EQ(server.handle(request("GET", "/nope")).status, 404);
  EXPECT_EQ(server.handle(request("PUT", "/jobs")).status, 405);
  EXPECT_EQ(server.handle(request("GET", "/jobs/1/report")).status, 404);

  const campaign::JsonValue list = parse(server.handle(request("GET", "/jobs")));
  EXPECT_EQ(list.at("jobs").items.size(), 4u);

  // Draining refuses all new work with a 503.
  server.drain();
  EXPECT_EQ(server.handle(request("POST", "/jobs", body, "dave")).status, 503);
  const campaign::JsonValue statz =
      campaign::parse_json(server.handle(request("GET", "/statz")).body, "statz");
  EXPECT_EQ(statz.at("draining").boolean, true);
  EXPECT_GE(statz.at("serve.jobs_rejected").as_u64(), 4u);
}

TEST(ServeServer, CancelWhileRunningIsSafe) {
  // Regression: DELETE on a *running* job must not close the metrics-stream
  // writer out from under a rig's in-flight sampler (use-after-free). The
  // writers now stay open until the last rig retires; this hammers the
  // cancel path at varying points in the run.
  const TempDir dir("serve_server_test_cancel");
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  Server server(options);
  server.start();

  for (int round = 0; round < 5; ++round) {
    // A distinct channel per round: fresh shards, so the cache never
    // short-circuits the run we are trying to cancel mid-flight.
    CampaignConfig config = quick_config();
    config.channels = {static_cast<std::uint32_t>(round)};
    const HttpResponse created =
        server.handle(request("POST", "/jobs", to_canonical_json(config), "alice"));
    ASSERT_EQ(created.status, 201) << created.body;
    const std::uint64_t id = parse(created).at("id").as_u64();
    std::this_thread::sleep_for(std::chrono::milliseconds(round));
    const HttpResponse cancelled =
        server.handle(request("DELETE", "/jobs/" + std::to_string(id)));
    // The rigs may have already finished by the time the DELETE lands.
    ASSERT_TRUE(cancelled.status == 200 || cancelled.status == 409) << cancelled.body;
    const std::string state = wait_terminal(server, id);
    if (cancelled.status == 200) {
      EXPECT_EQ(state, "cancelled");
      EXPECT_EQ(parse(cancelled).at("state").text, "cancelled");
    }
  }

  // Drain joins the rigs: every cancelled job's writers are closed by its
  // last retire, and the server is still fully queryable.
  server.drain();
  const HttpResponse list = server.handle(request("GET", "/jobs"));
  ASSERT_EQ(list.status, 200);
  EXPECT_EQ(parse(list).at("jobs").items.size(), 5u);
  for (int round = 0; round < 5; ++round) {
    const std::string id = std::to_string(round + 1);
    EXPECT_EQ(server.handle(request("GET", "/jobs/" + id)).status, 200);
    EXPECT_EQ(server.handle(request("GET", "/jobs/" + id + "/stream")).status, 200);
  }
}

TEST(ServeServer, HealthzAndStatzShapes) {
  const TempDir dir("serve_server_test_statz");
  Server::Options options;
  options.data_dir = dir.str();
  Server server(options);
  std::filesystem::create_directories(dir.str());

  const HttpResponse health = server.handle(request("GET", "/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(parse(health).at("ok").boolean, true);

  const campaign::JsonValue statz =
      campaign::parse_json(server.handle(request("GET", "/statz")).body, "statz");
  EXPECT_EQ(statz.at("schema").text, "rh-serve-statz/v1");
  EXPECT_EQ(statz.at("serve.jobs_submitted").as_u64(), 0u);
  EXPECT_EQ(statz.at("serve.rigs").as_u64(), 2u);
  EXPECT_EQ(statz.at("campaign.shards_run").as_u64(), 0u);
}

}  // namespace
}  // namespace rh::serve
