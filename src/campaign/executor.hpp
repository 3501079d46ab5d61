// The shard executor: how one shard of a sweep runs on a rig, and the books
// a run keeps. Both front ends drive it — campaign::Campaign::run (the bench
// CLI: an atomic shard cursor over a thread per job) and serve::Scheduler
// (rh_serve: work-stealing rigs multiplexed over tenants' jobs). Because the
// attempt loop, the rig bring-up/retire and the run's accounting exist once,
// a job's deterministic report is byte-identical whichever front end ran it.
//
// Three pieces:
//   * Rig — one worker's private measurement stack (host, telemetry sink,
//     fault injector, characterizer), built lazily and scrapped after a
//     throw (the host's state is suspect once a program has unwound).
//   * ShardExecutor — binds a run's config, sweep and ledger; run() takes
//     shard i through its attempts on a rig (shard/attempt spans, cycles
//     sampler, transient-vs-fatal split, rig_build/shard_run phases) and
//     returns a ShardResult; retire() folds a rig into the ledger.
//   * RunLedger — everything one run accumulates (result, counters, fleet
//     profile, span forest, journal, metrics stream, worker status) and
//     the operations on it: open or resume the journal, restore a shard as
//     skipped (the one restore path of both front ends), commit a shard's
//     result, format a wall sample, finish the run. Its `mutex` is the run
//     lock.
//
// What stays with each front end is scheduling: which worker runs which
// shard, when a rig retires, and what a caller does beyond the ledger
// (progress meter, result cache, service histograms and events).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "core/characterizer.hpp"
#include "profiling/profile.hpp"
#include "telemetry/stream.hpp"

namespace rh::campaign {

/// Campaign's default HostFactory: BenderHost(spec.device) brought to the
/// sweep's temperature (thermal settle or a pinned chip temperature).
[[nodiscard]] std::unique_ptr<bender::BenderHost> default_host(const SweepSpec& spec);

/// One worker's private measurement stack. Members are declared in
/// dependency order, so destruction tears down the characterizer before
/// the host and the host before the sink and injector it points at.
struct Rig {
  std::unique_ptr<telemetry::Telemetry> sink;
  std::unique_ptr<resilience::FaultInjector> injector;
  std::unique_ptr<bender::BenderHost> host;
  std::unique_ptr<core::Characterizer> characterizer;
};

/// What one shard's attempts produced.
struct ShardResult {
  std::uint64_t shard = 0;
  std::vector<core::RowRecord> records;  ///< the shard's rows when ok
  std::string error;                     ///< the last attempt's error when !ok
  bool ok = false;
  bool fatal = false;          ///< a non-transient error cut the retries short
  unsigned attempts = 0;
  double wall_ms = 0.0;        ///< all attempts, incl. rig rebuilds
  std::uint64_t cycles = 0;    ///< measurement cycles (deterministic)
};

/// Live status of one worker slot; the wall samples' `workers` array.
struct WorkerStatus {
  double busy_ms = 0.0;    ///< completed-shard wall time (in-flight added at read)
  std::uint64_t done = 0;  ///< shards this worker finished
  std::int64_t shard = -1; ///< shard in flight, -1 when idle
  std::chrono::steady_clock::time_point claim;  ///< when `shard` was claimed
};

/// The books of one run. Fields and methods are guarded by `mutex` unless
/// noted; the accumulating parts (metrics, profile) survive begin().
class RunLedger {
public:
  /// Starts a run of `shards` shards: resets the per-run state (result,
  /// writers, spans, worker status, rig serial), stamps the epoch, and
  /// registers the campaign counter set. No lock needed (nothing runs yet).
  void begin(std::size_t shards);

  /// Creates a fresh journal (truncating `path`); a storage failure drops
  /// it, an unopenable path throws common::ConfigError.
  void open_journal(const std::string& path, const JournalHeader& header,
                    resilience::StorageFaultInjector* injector);
  /// Reads the journal at `path` and checks its header (common::ConfigError
  /// before anything is restored), restores every journaled shard, then
  /// reopens the journal for appending. A failed reopen drops the journal
  /// and never truncates the file. Returns the restored shards, ascending.
  std::vector<std::uint64_t> resume_journal(const std::string& path, const JournalHeader& header,
                                            resilience::StorageFaultInjector* injector);
  /// Restores `shard` as skipped: completion bit, records, shards_skipped
  /// and the campaign.shards_skipped/records counters. False (no change)
  /// when the shard is out of range or already done.
  bool restore(std::uint64_t shard, std::vector<core::RowRecord> records);
  /// True once `shard` was restored or committed (failures included).
  [[nodiscard]] bool shard_done(std::uint64_t shard) const { return done_[shard] != 0; }

  /// Opens the metrics stream (header first, fsync'd); a storage failure
  /// is noted and the run goes streamless.
  void open_stream(const std::string& path, const telemetry::MetricsStreamHeader& header,
                   resilience::StorageFaultInjector* injector);

  /// Counts a durable-output failure; the first message is kept.
  void note_storage_error(const std::string& what);
  /// The journal died: drop the writer (results stay in memory) and note it.
  void drop_journal(const std::string& what);
  /// Runs `write` on the journal, if any. A storage failure drops the
  /// journal, never the shard, and is returned ("" otherwise).
  std::string append_journal(const std::function<void(JournalWriter&)>& write);

  /// Worker `worker` starts shard `shard`.
  void claim(unsigned worker, std::uint64_t shard);
  /// Folds a finished shard into the run: journal line (through
  /// append_journal), counters, result, timings, histogram, worker status. The checkpoint phase is timed into
  /// `worker_profile`. Returns the storage error that cost the journal on
  /// this commit, "" when the journal survived (or there was none).
  std::string commit(unsigned worker, ShardResult outcome, profiling::Profile& worker_profile);

  /// One wall-cadence stream sample: counter deltas since the previous
  /// sample plus per-worker utilization.
  [[nodiscard]] std::string wall_sample();

  /// Ends the run: canonical order for failures/timings/spans, the root
  /// campaign span, the stream's final sample (a dark stream is noted as a
  /// storage error), the counters merged into the aggregate sink, and both
  /// writers closed.
  void finish();

  std::mutex mutex;  ///< the run lock
  /// Fleet sink every rig's telemetry folds into (may be null). Set before
  /// the first rig is built; not guarded.
  telemetry::Telemetry* aggregate = nullptr;
  CampaignResult result;
  telemetry::MetricsRegistry metrics;  ///< campaign.*/resilience.* counters
  profiling::Profile profile;          ///< fleet profile (workers and hosts merge in)
  telemetry::SpanSheet spans;          ///< the run's span forest
  std::unique_ptr<JournalWriter> journal;
  /// The journal died during the run: results are no longer durable.
  bool journal_lost = false;
  /// Set before the first shard runs and closed only once no rig is
  /// running, so rigs read the pointer without the lock.
  std::unique_ptr<telemetry::MetricsStreamWriter> stream;
  std::vector<WorkerStatus> workers;   ///< one slot per worker/rig
  std::chrono::steady_clock::time_point epoch;  ///< run start; span clock base
  /// Fault-injector decorrelation serial, drawn at rig build (unguarded).
  std::atomic<std::uint64_t> rig_serial{0};

private:
  std::vector<char> done_;              ///< per-shard completion, plan order
  telemetry::CounterValues last_wall_;  ///< previous wall sample's counters
};

/// Runs shards of one sweep under one config, accounting into one ledger.
/// Of the config it reads retries, fault_plan, retry_policy, engine,
/// engine_bug and stream_cycle_cadence. Thread-safe: workers share one
/// executor, each with its own Rig.
class ShardExecutor {
public:
  /// Called before each retry with the error that triggered it.
  using RetryHook = std::function<void(const std::string& error)>;

  ShardExecutor(CampaignConfig config, const SweepSpec& spec, RunLedger& ledger,
                HostFactory factory = default_host);

  /// Runs shard `shard` on `rig` (building it first when empty) through at
  /// most 1 + retries attempts. A transient error retries on a fresh rig; a
  /// fatal one stops at once. Rig-build and shard-run phases go to
  /// `worker_profile`, the span subtree to `worker_sheet`.
  [[nodiscard]] ShardResult run(Rig& rig, std::uint64_t shard,
                                profiling::Profile& worker_profile,
                                telemetry::SpanSheet& worker_sheet,
                                const RetryHook& on_retry = {}) const;

  /// Folds the rig's host profile, telemetry sink and injector stats into
  /// the ledger (under its lock) and destroys the rig. No-op when empty.
  void retire(Rig& rig) const;

private:
  void build(Rig& rig) const;

  CampaignConfig config_;
  const SweepSpec& spec_;
  RunLedger& ledger_;
  HostFactory factory_;
};

}  // namespace rh::campaign
