// Crash-injection child for the recovery tests and the CI crash-smoke
// loop. Opens (or recovers) the durable store at <dir>, performs <clean>
// fully-acknowledged ingests — appending each session's name to
// <dir>/acks.txt only AFTER IngestRecording returned OK — then, in the
// crash modes, arms a WAL crash hook and starts one more ingest, inside
// which the process raises SIGKILL. Exit codes other than death-by-signal
// mean the harness itself failed:
//
//   usage: crash_ingest_helper <dir> <mode> <count>
//   modes: clean      ingest <count> and ack, exit 0 (no crash)
//          payload    die mid-group, after a payload record append
//          precommit  die just before the commit record is appended
//          postcommit die after the commit is durable, before pages are
//                     written back or the caller is acknowledged
//          segment    die mid-group, after the first sealed raw-sample
//                     segment record append (the tslife leg of the same
//                     commit group)
//          writeback  arm one page-write fault, so one more ingest commits
//                     (and is acked) while its write-back fails; force a
//                     checkpoint, which must write those pages back before
//                     it drops the WAL; then die like postcommit
//          verify     no ingest: recover, check every acked session is
//                     present exactly once, answers a range query
//                     bit-identically to an in-memory reference ingest, and
//                     has raw segments that decode bit-exact against the
//                     regenerated recording; check every other session was
//                     in flight at a kill (nothing else adopted); print
//                     recovery stats as one JSON line (exit 6 on any
//                     violation)
//
// Migration modes (2-shard durable ShardedCatalog on the same <dir>,
// exercising the routing journal's exactly-one-owner recovery):
//          mcrash     ingest one more acked session for the migrating
//                     tenant, arm the payload-append crash hook with
//                     <count>, then start a live tenant migration; the
//                     process SIGKILLs itself mid-protocol (inside the
//                     begin/copy/route-move journal appends, depending on
//                     <count>)
//          mverify    recover, check every acked session is readable and
//                     owned by EXACTLY ONE route (exit 6 on a lost ack,
//                     exit 7 on a double owner), print stats as one JSON
//                     line
//
// Re-running on the same directory continues: the ingest seed is the
// recovered session count, so every session ever committed is
// SessionName(0..n-1) in order — which is exactly what the parent checks.
// Crash modes append the name of the ingest they kill to <dir>/inflight.txt
// first: such an ingest may or may not be recovered, and nothing else may.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "core/aims.h"
#include "crash_test_common.h"
#include "obs/flight_recorder.h"
#include "server/data_migrator.h"
#include "server/sharded_catalog.h"
#include "storage/wal.h"

namespace {

// Crash modes run the black-box flight recorder on a tight persist
// cadence, then block until its first periodic write has landed: the
// SIGKILL below gives the process no chance to flush anything at death,
// so the on-disk bundle the smoke script asserts on must already be
// there. Verify modes deliberately construct NO recorder — reopening one
// would rotate the very bundle under inspection aside.
aims::obs::FlightRecorder* StartCrashRecorder(const std::string& dir,
                                              const std::string& mode) {
  aims::obs::FlightRecorderConfig config;
  config.bundle_path = dir + "/flightrecord.json";
  config.persist_interval_ms = 2.0;
  // Leaked on purpose: the process dies by SIGKILL, never by destructor.
  auto* recorder = new aims::obs::FlightRecorder(config);
  recorder->RecordEvent("crash round armed: mode=" + mode);
  recorder->Start();
  while (recorder->persists() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return recorder;
}

// The tenant the migration modes move back and forth. Any fixed id works:
// source/target are derived from the router, never assumed.
constexpr aims::server::ClientId kTenant = 42;

// Migration-mode crash round: add one acked session so there is always
// something to move, arm the global payload-append hook, migrate. The
// hook fires inside the migration protocol (the begin record, a copy
// block put, or the route-move record, depending on the armed count) and
// the process never returns from MigrateTenant.
int RunMigrationCrash(const std::string& dir, int payload_appends) {
  aims::core::AimsConfig config;
  config.durability.path = dir;
  aims::server::ShardedCatalog catalog(2, config);
  if (!catalog.init_status().ok()) {
    std::cerr << "open failed: " << catalog.init_status().ToString() << "\n";
    return 3;
  }
  std::ofstream acks(dir + "/macks.txt", std::ios::app);
  if (!acks) {
    std::cerr << "cannot open acks file\n";
    return 3;
  }
  const uint32_t seed = static_cast<uint32_t>(catalog.total_sessions());
  auto id = catalog.Ingest(kTenant, aims::crashtest::SessionName(seed),
                           aims::crashtest::MakeRecording(seed));
  if (!id.ok()) {
    std::cerr << "ingest failed: " << id.status().ToString() << "\n";
    return 4;
  }
  acks << aims::crashtest::SessionName(seed) << "\n" << std::flush;

  StartCrashRecorder(dir, "mcrash");

  // A crashed round never commits, so no pin survives recovery and the
  // ring places the tenant on its home shard; migrate to the other one.
  const size_t source = catalog.router().ShardForClient(kTenant);
  const size_t target = 1 - source;
  aims::storage::durable::testing::SetCrashAfterPayloadAppends(payload_appends);
  aims::server::DataMigrator migrator(&catalog);
  aims::Status status = migrator.MigrateTenant(kTenant, target);
  std::cerr << "crash hook did not fire (migration "
            << (status.ok() ? "succeeded" : status.ToString()) << ")\n";
  return 5;
}

// Migration-mode verify: recover the catalog (shard WALs + routing
// journal), then check the exactly-one-owner invariant — every
// acknowledged session is present EXACTLY once and answers reads.
int RunMigrationVerify(const std::string& dir) {
  aims::core::AimsConfig config;
  config.durability.path = dir;
  aims::server::ShardedCatalog catalog(2, config);
  if (!catalog.init_status().ok()) {
    std::cerr << "open failed: " << catalog.init_status().ToString() << "\n";
    return 3;
  }
  std::map<std::string, size_t> owners;
  size_t unreadable = 0;
  for (const auto& entry : catalog.ListSessions()) {
    owners[entry.info.name] += 1;
    auto channel = catalog.ReadChannel(entry.id, 0);
    if (!channel.ok() || channel->size() != entry.info.num_frames) {
      ++unreadable;
      std::cerr << "session " << entry.info.name << " unreadable\n";
    }
  }
  size_t acked = 0, missing = 0, doubled = 0;
  std::ifstream acks_in(dir + "/macks.txt");
  std::string ack;
  while (std::getline(acks_in, ack)) {
    if (ack.empty()) continue;
    ++acked;
    auto it = owners.find(ack);
    if (it == owners.end()) {
      ++missing;
      std::cerr << "acknowledged ingest " << ack << " lost\n";
    } else if (it->second != 1) {
      ++doubled;
      std::cerr << "acknowledged ingest " << ack << " has " << it->second
                << " owners\n";
    }
  }
  auto shard_stats = catalog.ShardStats();
  std::cout << "{\"sessions\": " << catalog.total_sessions()
            << ", \"acked\": " << acked << ", \"acked_missing\": " << missing
            << ", \"double_owned\": " << doubled
            << ", \"unreadable\": " << unreadable
            << ", \"shard0_sessions\": " << shard_stats[0].sessions
            << ", \"shard1_sessions\": " << shard_stats[1].sessions << "}\n";
  if (missing > 0 || unreadable > 0) return 6;
  if (doubled > 0) return 7;
  return 0;
}

std::set<std::string> ReadNames(const std::string& path) {
  std::set<std::string> names;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) names.insert(line);
  }
  return names;
}

// Ingest-mode verify: every acked ingest is present exactly once, with a
// bit-identical range answer and bit-exact raw segments; every other
// session is one a crash round killed in flight.
int RunVerify(const std::string& dir, const aims::core::AimsSystem& system) {
  const auto sessions = system.ListSessions();
  const std::set<std::string> acks = ReadNames(dir + "/acks.txt");
  const std::set<std::string> inflight = ReadNames(dir + "/inflight.txt");
  std::map<std::string, size_t> copies;
  size_t adopted = 0;
  for (const auto& session : sessions) {
    ++copies[session.name];
    if (acks.count(session.name) == 0 && inflight.count(session.name) == 0) {
      ++adopted;
      std::cerr << "session " << session.name
                << " was neither acked nor in flight\n";
    }
  }
  // Reference answers: the same recordings through the in-memory backend
  // run the same transform code, so recovered answers must match bit for
  // bit.
  aims::core::AimsSystem reference;
  size_t missing = 0;
  size_t duplicated = 0;
  size_t answer_mismatches = 0;
  size_t segments = 0;
  size_t raw_mismatches = 0;
  for (const std::string& ack : acks) {
    if (copies[ack] != 1) {
      ++(copies[ack] == 0 ? missing : duplicated);
      std::cerr << "acknowledged ingest " << ack << " present "
                << copies[ack] << " times\n";
      continue;
    }
    aims::core::SessionId found = 0;
    for (const auto& session : sessions) {
      if (session.name == ack) found = session.id;
    }
    // An acked ingest's commit group included its sealed raw-sample
    // segments, so recovery must hand them back bit-exact — a crash
    // landing between the segment append and the commit record (the
    // `segment` mode) must never surface a half-sealed channel.
    const uint32_t seed =
        static_cast<uint32_t>(std::atoi(ack.c_str() + ack.rfind('_') + 1));
    const aims::streams::Recording expect =
        aims::crashtest::MakeRecording(seed);
    auto ref_id = reference.IngestRecording(ack, expect);
    if (!ref_id.ok()) {
      std::cerr << "reference ingest failed: " << ref_id.status().ToString()
                << "\n";
      return 3;
    }
    auto metas = system.ListSegments(found);
    if (metas.ok()) segments += metas.ValueOrDie().size();
    for (size_t c = 0; c < expect.num_channels(); ++c) {
      const size_t last = expect.num_frames() - 10;
      auto got = system.QueryRange(found, c, 5, last);
      auto want = reference.QueryRange(*ref_id, c, 5, last);
      if (!got.ok() || !want.ok() || got->sum != want->sum) {
        ++answer_mismatches;
        std::cerr << "session " << ack << " channel " << c
                  << " answers differently after recovery\n";
      }
      auto samples = system.ReadRawSamples(found, c);
      if (!samples.ok() ||
          samples.ValueOrDie().size() != expect.num_frames()) {
        ++raw_mismatches;
        std::cerr << "session " << ack << " channel " << c
                  << " raw segments incomplete\n";
        continue;
      }
      for (size_t f = 0; f < expect.num_frames(); ++f) {
        const auto& sample = samples.ValueOrDie()[f];
        const auto& frame = expect.frames[f];
        if (sample.t_ms !=
                static_cast<int64_t>(std::llround(frame.timestamp * 1e6)) ||
            sample.value != frame.values[c]) {
          ++raw_mismatches;
          std::cerr << "session " << ack << " channel " << c
                    << " raw sample " << f << " drifted\n";
          break;
        }
      }
    }
  }
  const aims::obs::WalStats stats = system.WalStats();
  std::cout << "{\"sessions\": " << sessions.size()
            << ", \"acked\": " << acks.size()
            << ", \"acked_missing\": " << missing
            << ", \"acked_duplicated\": " << duplicated
            << ", \"adopted\": " << adopted
            << ", \"answer_mismatches\": " << answer_mismatches
            << ", \"segments\": " << segments
            << ", \"raw_mismatches\": " << raw_mismatches
            << ", \"recovered_txns\": " << stats.recovered_txns
            << ", \"recovered_records\": " << stats.recovered_records
            << ", \"discarded_bytes\": " << stats.discarded_bytes
            << ", \"checkpoints\": " << stats.checkpoints << "}\n";
  const bool ok = missing == 0 && duplicated == 0 && adopted == 0 &&
                  answer_mismatches == 0 && raw_mismatches == 0;
  return ok ? 0 : 6;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: crash_ingest_helper <dir> <mode> <count>\n";
    return 2;
  }
  const std::string dir = argv[1];
  const std::string mode = argv[2];
  const int clean = std::atoi(argv[3]);

  if (mode == "mcrash") return RunMigrationCrash(dir, clean);
  if (mode == "mverify") return RunMigrationVerify(dir);

  aims::core::AimsConfig config;
  config.durability.path = dir;
  aims::core::AimsSystem system(config);
  if (!system.init_status().ok()) {
    std::cerr << "open failed: " << system.init_status().ToString() << "\n";
    return 3;
  }

  if (mode == "verify") return RunVerify(dir, system);

  std::ofstream acks(dir + "/acks.txt", std::ios::app);
  if (!acks) {
    std::cerr << "cannot open acks file\n";
    return 3;
  }

  uint32_t seed = static_cast<uint32_t>(system.ListSessions().size());
  for (int i = 0; i < clean; ++i, ++seed) {
    auto id = system.IngestRecording(aims::crashtest::SessionName(seed),
                                     aims::crashtest::MakeRecording(seed));
    if (!id.ok()) {
      std::cerr << "ingest failed: " << id.status().ToString() << "\n";
      return 4;
    }
    // The ack is the durability contract under test: it is written only
    // after the ingest returned OK, i.e. after its commit record was made
    // durable. flush() pushes it to the OS, which survives SIGKILL.
    acks << aims::crashtest::SessionName(seed) << "\n" << std::flush;
  }

  if (mode == "clean") return 0;
  StartCrashRecorder(dir, mode);
  if (mode == "writeback") {
    // The commit record is the failure boundary: the ingest stands with
    // its pages dirty, and the checkpoint must write them back before it
    // may truncate the WAL that holds them.
    system.mutable_device()->FailNextWrites(1);
    auto id = system.IngestRecording(aims::crashtest::SessionName(seed),
                                     aims::crashtest::MakeRecording(seed));
    if (!id.ok()) {
      std::cerr << "ingest failed: " << id.status().ToString() << "\n";
      return 4;
    }
    acks << aims::crashtest::SessionName(seed) << "\n" << std::flush;
    ++seed;
    aims::Status checkpointed = system.Checkpoint();
    if (!checkpointed.ok()) {
      std::cerr << "checkpoint failed: " << checkpointed.ToString() << "\n";
      return 4;
    }
    aims::storage::durable::testing::SetCrashAfterCommitDurable(true);
  } else if (mode == "payload") {
    aims::storage::durable::testing::SetCrashAfterPayloadAppends(1);
  } else if (mode == "precommit") {
    aims::storage::durable::testing::SetCrashBeforeCommitAppend(true);
  } else if (mode == "postcommit") {
    aims::storage::durable::testing::SetCrashAfterCommitDurable(true);
  } else if (mode == "segment") {
    aims::storage::durable::testing::SetCrashAfterSegmentAppends(1);
  } else {
    std::cerr << "unknown mode " << mode << "\n";
    return 2;
  }

  std::ofstream(dir + "/inflight.txt", std::ios::app)
      << aims::crashtest::SessionName(seed) << "\n" << std::flush;
  // The armed hook raises SIGKILL inside this call; it must not return.
  auto id = system.IngestRecording(aims::crashtest::SessionName(seed),
                                   aims::crashtest::MakeRecording(seed));
  std::cerr << "crash hook did not fire (ingest "
            << (id.ok() ? "succeeded" : id.status().ToString()) << ")\n";
  return 5;
}
