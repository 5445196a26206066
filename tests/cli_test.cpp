#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "analyzer/analyzer.h"
#include "cli/commands.h"
#include "net/pcap.h"
#include "net/pcapng.h"
#include "trace/campus.h"

namespace upbound::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"upbound"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

// ---------------- Args ----------------

TEST(CliArgs, CommandAndOptions) {
  const Args args = parse({"filter", "--pcap", "x.pcap", "--low", "3e6"});
  EXPECT_EQ(args.command(), "filter");
  EXPECT_EQ(args.get_string("pcap", ""), "x.pcap");
  EXPECT_DOUBLE_EQ(args.get_double("low", 0.0), 3e6);
}

TEST(CliArgs, EqualsSyntax) {
  const Args args = parse({"generate", "--out=trace.pcap", "--seed=9"});
  EXPECT_EQ(args.get_string("out", ""), "trace.pcap");
  EXPECT_EQ(args.get_u64("seed", 0), 9u);
}

TEST(CliArgs, BareFlagIsBoolean) {
  const Args args = parse({"filter", "--blocklist", "--pcap", "x"});
  EXPECT_TRUE(args.get_flag("blocklist"));
  EXPECT_FALSE(args.get_flag("hole-punching"));
}

TEST(CliArgs, DefaultsWhenAbsent) {
  const Args args = parse({"advise"});
  EXPECT_EQ(args.get_int("bits", 20), 20);
  EXPECT_DOUBLE_EQ(args.get_double("dt", 5.0), 5.0);
  EXPECT_EQ(args.get_string("filter", "bitmap"), "bitmap");
}

TEST(CliArgs, EmptyCommand) {
  const Args args = parse({});
  EXPECT_TRUE(args.empty());
}

TEST(CliArgs, RequireThrowsWhenMissing) {
  const Args args = parse({"generate"});
  EXPECT_THROW(args.require_string("out"), ArgError);
}

TEST(CliArgs, BadNumbersThrow) {
  EXPECT_THROW(parse({"x", "--n", "abc"}).get_int("n", 0), ArgError);
  EXPECT_THROW(parse({"x", "--f", "1.2.3"}).get_double("f", 0), ArgError);
  EXPECT_THROW(parse({"x", "--n", "-4"}).get_u64("n", 0), ArgError);
}

TEST(CliArgs, StrayPositionalThrows) {
  EXPECT_THROW(parse({"filter", "stray"}), ArgError);
}

TEST(CliArgs, UnconsumedDetection) {
  const Args args = parse({"x", "--used", "1", "--typo", "2"});
  EXPECT_EQ(args.get_int("used", 0), 1);
  const auto leftovers = args.unconsumed();
  ASSERT_EQ(leftovers.size(), 1u);
  EXPECT_EQ(leftovers[0], "typo");
}

// ---------------- Commands (end-to-end through run()) ----------------

class CliCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("upbound_cli_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int run_cli(std::initializer_list<const char*> tokens) {
    std::vector<const char*> argv{"upbound"};
    argv.insert(argv.end(), tokens.begin(), tokens.end());
    return run(static_cast<int>(argv.size()), argv.data());
  }

  std::filesystem::path dir_;
};

TEST_F(CliCommandTest, GenerateAnalyzeFilterPipeline) {
  const std::string trace = (dir_ / "trace.pcap").string();
  const std::string filtered = (dir_ / "filtered.pcap").string();

  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "5",
                     "--rate", "30", "--bandwidth", "2e6", "--seed", "5"}),
            0);
  ASSERT_TRUE(std::filesystem::exists(trace));

  EXPECT_EQ(run_cli({"analyze", "--pcap", trace.c_str()}), 0);

  ASSERT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "bitmap",
                     "--pd", "1.0", "--out", filtered.c_str()}),
            0);
  ASSERT_TRUE(std::filesystem::exists(filtered));

  // The filtered pcap holds strictly fewer packets than the original.
  PcapReader original{trace};
  PcapReader survivor{filtered};
  const std::size_t original_count = original.read_all().size();
  const std::size_t survivor_count = survivor.read_all().size();
  EXPECT_GT(original_count, 0u);
  EXPECT_LT(survivor_count, original_count);
  EXPECT_GT(survivor_count, original_count / 2);
}

// A NetFlow export that cannot be written fails the command, as a pcap
// write does. /dev/full accepts the open and fails every flush: a
// two-connection export fits one stdio buffer and fails only at fclose,
// a generated capture's export already fails in fwrite.
TEST_F(CliCommandTest, AnalyzeNetflowWriteFailureExitsNonZero) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const std::string small = (dir_ / "small.pcap").string();
  const std::string large = (dir_ / "large.pcap").string();
  const std::string flows = (dir_ / "flows.nf").string();
  {
    Trace trace;
    for (std::uint16_t port : {40000, 40001}) {
      PacketRecord pkt;
      pkt.timestamp = SimTime::from_sec(0.001 * port);
      pkt.tuple = FiveTuple{Protocol::kTcp, Ipv4Addr{140, 112, 30, 5}, port,
                            Ipv4Addr{61, 2, 3, 4}, 80};
      pkt.flags.syn = true;
      trace.push_back(pkt);
    }
    PcapWriter writer{small};
    writer.write_all(trace);
    writer.close();
  }
  ASSERT_EQ(run_cli({"generate", "--out", large.c_str(), "--duration", "5",
                     "--rate", "80", "--bandwidth", "1e6", "--seed", "7"}),
            0);
  struct Case {
    const std::string& pcap;
    std::uintmax_t min_bytes;
    std::uintmax_t max_bytes;
  };
  for (const Case& c : {Case{small, 1, 1024}, Case{large, 16384, ~0u}}) {
    SCOPED_TRACE(c.pcap);
    ASSERT_EQ(run_cli({"analyze", "--pcap", c.pcap.c_str(), "--netflow",
                       flows.c_str()}),
              0);
    EXPECT_GE(std::filesystem::file_size(flows), c.min_bytes);
    EXPECT_LE(std::filesystem::file_size(flows), c.max_bytes);
    EXPECT_EQ(run_cli({"analyze", "--pcap", c.pcap.c_str(), "--netflow",
                       "/dev/full"}),
              1);
  }
}

TEST_F(CliCommandTest, FilterVariants) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "spi"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "naive",
                     "--timeout", "10"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "bitmap",
                     "--bits", "16", "--k", "3", "--dt", "2", "--m", "2",
                     "--hole-punching", "--low", "1e6", "--high", "2e6",
                     "--blocklist"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "aging",
                     "--bits", "16", "--k", "5"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "bitmap-mt", "--bits", "16"}),
            0);
}

TEST_F(CliCommandTest, AdviseRuns) {
  EXPECT_EQ(run_cli({"advise", "--connections", "50000", "--bits", "20"}), 0);
}

TEST_F(CliCommandTest, PcapngFormatEndToEnd) {
  const std::string trace = (dir_ / "trace.pcapng").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--format",
                     "pcapng", "--duration", "3", "--rate", "20",
                     "--bandwidth", "1e6"}),
            0);
  // Format auto-detected by magic, not extension.
  EXPECT_EQ(run_cli({"analyze", "--pcap", trace.c_str()}), 0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str()}), 0);
  EXPECT_EQ(run_cli({"generate", "--out", trace.c_str(), "--format",
                     "hdf5"}),
            2);
}

// `analyze` streams the records of either format into the analyzer: the
// pcapng and pcap captures of the same packets print the same report, the
// one an in-memory analysis of those packets gives. Regressed timestamps
// (every 97th packet moved 1.5 s back, none before the epoch, which pcap
// cannot store) add one warning line on stderr, which time-sorted input
// never prints.
TEST_F(CliCommandTest, AnalyzeStreamsEitherFormatAndWarnsOnRegressedTime) {
  CampusTraceConfig config;
  config.duration = Duration::sec(5.0);
  config.connections_per_sec = 30.0;
  config.bandwidth_bps = 2e6;
  config.seed = 5;
  const GeneratedTrace trace = generate_campus_trace(config);
  Trace reordered = trace.packets;
  for (std::size_t i = 40; i < reordered.size(); i += 97) {
    if (reordered[i].timestamp < SimTime::from_sec(1.5)) continue;
    reordered[i].timestamp = reordered[i].timestamp - Duration::sec(1.5);
  }

  const std::string pcapng = (dir_ / "capture.pcapng").string();
  const std::string pcap = (dir_ / "capture.pcap").string();
  struct Output {
    int rc;
    std::string out;
    std::string err;
  };
  const auto analyze = [this](const std::string& path) {
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const int rc = run_cli({"analyze", "--pcap", path.c_str(), "--top", "5"});
    std::string err = ::testing::internal::GetCapturedStderr();
    return Output{rc, ::testing::internal::GetCapturedStdout(), err};
  };
  // Writes `packets` in both formats, analyzes both, and returns the
  // regressed count and stderr through the last two arguments.
  const auto check = [&](const Trace& packets, std::uint64_t& regressed,
                         std::string& err) {
    {
      PcapngWriter writer{pcapng};
      writer.write_all(packets);
      writer.close();
      PcapWriter classic{pcap};
      classic.write_all(packets);
      classic.close();
    }
    TrafficAnalyzer in_memory{trace.network};
    for (const PacketRecord& pkt : PcapReader{pcap}.read_all()) {
      in_memory.process(pkt);
    }
    const AnalyzerReport report = in_memory.finish();

    const Output streamed = analyze(pcapng);
    ASSERT_EQ(streamed.rc, 0) << streamed.err;
    const std::string head =
        std::to_string(in_memory.packets_processed()) +
        " packets (0 skipped frames/blocks), " +
        std::to_string(report.total_connections) + " connections\n\n" +
        report.protocol_table();
    EXPECT_EQ(streamed.out.substr(0, head.size()), head);
    const Output classic = analyze(pcap);
    EXPECT_EQ(classic.rc, 0);
    EXPECT_EQ(classic.out, streamed.out);
    EXPECT_EQ(classic.err, streamed.err);
    regressed = report.out_of_order_packets;
    err = streamed.err;
  };

  std::uint64_t regressed = 1;
  std::string err = "unset";
  check(trace.packets, regressed, err);
  EXPECT_EQ(regressed, 0u);
  EXPECT_EQ(err, "");
  check(reordered, regressed, err);
  EXPECT_GT(regressed, 0u);
  EXPECT_EQ(err, "warning: " + std::to_string(regressed) +
                     " packets have a timestamp below an earlier packet's; "
                     "the out-in delays assume time order\n");
}

TEST_F(CliCommandTest, CompareRuns) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "4",
                     "--rate", "25", "--bandwidth", "1e6"}),
            0);
  EXPECT_EQ(run_cli({"compare", "--pcap", trace.c_str(), "--bits", "16"}),
            0);
}

TEST_F(CliCommandTest, SaveAndLoadFilterState) {
  const std::string trace = (dir_ / "trace.pcap").string();
  const std::string state = (dir_ / "bitmap.state").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6"}),
            0);
  ASSERT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--save-state",
                     state.c_str()}),
            0);
  ASSERT_TRUE(std::filesystem::exists(state));
  // Resume from the snapshot.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--load-state",
                     state.c_str()}),
            0);
  // Malformed snapshot rejected.
  {
    std::FILE* f = std::fopen(state.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--load-state",
                     state.c_str()}),
            2);
  // --save-state with a non-bitmap filter is an error.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "spi",
                     "--save-state", state.c_str()}),
            2);
}

TEST_F(CliCommandTest, LiveRestoreDirNeedsABackendWithAStateImage) {
  // The default live backend (bitmap-blocked) has no state image: the
  // daemon refuses --restore-dir before any traffic flows, the way it
  // refuses --checkpoint-dir, instead of starting cold.
  ::testing::internal::CaptureStderr();
  const int rc = run_cli({"live", "--tap", "--tap-port", "0", "--restore-dir",
                          dir_.c_str(), "--duration", "1"});
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 1) << err;
  EXPECT_NE(err.find("snapshot-capable filter backend (supported: bitmap)"),
            std::string::npos)
      << err;
}

TEST_F(CliCommandTest, HelpAndErrors) {
  EXPECT_EQ(run_cli({"help"}), 0);
  EXPECT_EQ(run_cli({}), 2);
  EXPECT_EQ(run_cli({"frobnicate"}), 2);
  EXPECT_EQ(run_cli({"generate"}), 2);  // missing --out
  EXPECT_EQ(run_cli({"analyze", "--pcap", "/does/not/exist.pcap"}), 1);
  EXPECT_EQ(run_cli({"filter", "--pcap", "x", "--filter", "quantum"}), 2);
  EXPECT_EQ(run_cli({"advise", "--bogus-option", "3"}), 2);
}

TEST_F(CliCommandTest, BadNetworkRejected) {
  EXPECT_EQ(run_cli({"analyze", "--pcap", "x", "--network", "not-a-cidr"}),
            2);
}

TEST_F(CliCommandTest, SeedFlagAcceptedAcrossCommands) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6", "--seed", "11"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--seed", "11"}), 0);
  EXPECT_EQ(run_cli({"compare", "--pcap", trace.c_str(), "--bits", "16",
                     "--seed", "11"}),
            0);
}

TEST(CliDefaults, DefaultFilterPrefersTheBlockedBitmap) {
  // No special capability requested: the cache-resident layout wins.
  EXPECT_EQ(resolve_default_filter(false, false), "bitmap-blocked");
  // Snapshot or shared-view runs need the classic bitmap.
  EXPECT_EQ(resolve_default_filter(true, false), "bitmap");
  EXPECT_EQ(resolve_default_filter(false, true), "bitmap");
  EXPECT_EQ(resolve_default_filter(true, true), "bitmap");
}

TEST_F(CliCommandTest, TenancyFlagsRunEndToEnd) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6", "--seed", "4"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenants", "8"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenants", "8",
                     "--tenant-mode", "prefix24", "--tenant-cap", "4"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "hierarchical", "--fine", "bitmap-blocked"}),
            0);
  EXPECT_EQ(run_cli({"compare", "--pcap", trace.c_str(), "--bits", "14",
                     "--tenants", "4"}),
            0);
}

TEST_F(CliCommandTest, TenantScenarioGeneratesAReplayableCapture) {
  const std::string trace = (dir_ / "swarm.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--tenant-scenario",
                     "swarm-join", "--tenants", "6", "--duration", "5",
                     "--seed", "3"}),
            0);
  // The scenario's subscriber pool lives in 10.40.0.0/16.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--network",
                     "10.40.0.0/16", "--tenants", "6"}),
            0);
  EXPECT_EQ(run_cli({"generate", "--out", trace.c_str(), "--tenant-scenario",
                     "tsunami"}),
            2);
}

TEST_F(CliCommandTest, TenancyFlagGuards) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "2",
                     "--rate", "10", "--bandwidth", "1e6"}),
            0);
  const std::string state = (dir_ / "state.bin").string();
  // Mode/cap without --tenants.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenant-mode",
                     "prefix24"}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenant-cap",
                     "4"}),
            2);
  // Unknown mode.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenants", "4",
                     "--tenant-mode", "household"}),
            2);
  // Tenancy has no snapshot format and is shard-local by design.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenants", "4",
                     "--save-state", state.c_str()}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenants", "4",
                     "--threads", "2", "--shard-mode", "shared"}),
            2);
}

// Out-of-range worker and shard counts are usage errors (exit 2) found
// before the capture is opened: the path below does not exist, which
// would otherwise exit 1. Only rejected values are used, so no worker
// starts.
TEST_F(CliCommandTest, ThreadAndShardCountsOutOfRangeAreRejected) {
  const std::string missing = (dir_ / "missing.pcap").string();
  EXPECT_EQ(run_cli({"filter", "--pcap", missing.c_str(), "--threads", "0"}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", missing.c_str(), "--threads", "-3"}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", missing.c_str(), "--shards", "-1"}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", missing.c_str(), "--shards", "257"}),
            2);
  EXPECT_EQ(run_cli({"compare", "--pcap", missing.c_str(), "--shards", "257"}),
            2);
  EXPECT_EQ(run_cli({"compare", "--pcap", missing.c_str(), "--threads", "0"}),
            2);
  // In range, the missing capture is what fails.
  EXPECT_EQ(run_cli({"filter", "--pcap", missing.c_str(), "--shards", "256"}),
            1);
}

TEST_F(CliCommandTest, AttackRunsAndReportIsByteStable) {
  const std::string out_a = (dir_ / "report_a.jsonl").string();
  const std::string out_b = (dir_ / "report_b.jsonl").string();
  ASSERT_EQ(run_cli({"attack", "--scenario", "forgery,rotation", "--seed",
                     "42", "--duration", "12", "--rate", "20", "--bandwidth",
                     "1e6", "--bits", "12", "--dt", "1", "--out",
                     out_a.c_str()}),
            0);
  ASSERT_EQ(run_cli({"attack", "--scenario", "forgery,rotation", "--seed",
                     "42", "--duration", "12", "--rate", "20", "--bandwidth",
                     "1e6", "--bits", "12", "--dt", "1", "--threads", "3",
                     "--out", out_b.c_str()}),
            0);
  std::ifstream a{out_a}, b{out_b};
  const std::string bytes_a{std::istreambuf_iterator<char>{a}, {}};
  const std::string bytes_b{std::istreambuf_iterator<char>{b}, {}};
  EXPECT_FALSE(bytes_a.empty());
  // Same seed, different thread count: byte-identical reports.
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST_F(CliCommandTest, ZooBackendsRunEndToEnd) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "retouched", "--bits", "14", "--retouch-fraction",
                     "0.05", "--retouch-seed", "7"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "counting", "--bits", "14", "--k", "3", "--dt", "2"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "counting", "--no-close-delete"}),
            0);
  // Bad retouch fraction surfaces as a usage error, not a crash.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "retouched", "--retouch-fraction", "0.7"}),
            2);
}

TEST_F(CliCommandTest, SnapshotFlagsRequireASnapshotCapableBackend) {
  const std::string trace = (dir_ / "trace.pcap").string();
  const std::string state = (dir_ / "state.bin").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6"}),
            0);
  // The counting and retouched backends advertise no snapshot support;
  // both save and load must fail fast with a usage error (before any
  // replay work happens), for both flags.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "counting", "--save-state", state.c_str()}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "retouched", "--save-state", state.c_str()}),
            2);
  EXPECT_FALSE(std::filesystem::exists(state));
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "counting", "--load-state", state.c_str()}),
            2);
}

TEST_F(CliCommandTest, TuneRequiresAnOccupancyBackendAndSingleThread) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tune"}), 0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "counting", "--tune", "--tune-target", "0.02"}),
            0);
  // No occupancy signal on spi; recommend-only tuning cannot run.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "spi",
                     "--tune"}),
            2);
  // The tuner samples one live filter; the sharded engine has many.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tune",
                     "--threads", "2"}),
            2);
  // --tune-target without --tune and out-of-range targets are rejected.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tune-target",
                     "0.02"}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tune",
                     "--tune-target", "1.5"}),
            2);
}

TEST_F(CliCommandTest, AttackRejectsBadArguments) {
  EXPECT_EQ(run_cli({"attack", "--scenario", "ddos"}), 2);
  EXPECT_EQ(run_cli({"attack", "--filters", "bitmap,chrome"}), 2);
  EXPECT_EQ(run_cli({"attack", "--intensity", "0"}), 2);
  EXPECT_EQ(run_cli({"attack", "--shards", "0"}), 2);
}

}  // namespace
}  // namespace upbound::cli
