// Control-socket protocol matrix: command round-trips, typed capability
// errors on both the capable and incapable backends, and a malformed-
// input fuzz pass (split reads, oversized lines, embedded NULs,
// mid-command disconnects, random garbage) that must never crash or
// wedge the loop. Run under ASan in CI (live-smoke) and TSan (the
// concurrent-reconfiguration case).
#include "live_harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "filter/filter_registry.h"
#include "filter/params.h"

namespace upbound::live::testing {
namespace {

FilterSpec spec_named(const std::string& name) {
  MapFilterArgs args;
  args.set("bits", "14");
  args.set("dt", "5");
  return FilterRegistry::instance().at(name).parse(args);
}

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "upbound_" + tag + "_" +
         std::to_string(::getpid());
}

/// A datapath + control server on an ephemeral tap, polled manually.
struct ControlFixture {
  VirtualClock clock;
  EventLoop loop;
  std::unique_ptr<LiveDatapath> datapath;
  std::string socket_path;

  explicit ControlFixture(const std::string& filter_kind,
                          bool arm_health = false,
                          Duration idle_timeout = Duration::sec(30.0)) {
    UdpTapSource::Config tap_config;
    tap_config.port = 0;
    auto source = std::make_unique<UdpTapSource>(tap_config);
    LiveConfig config;
    config.clock = &clock;
    config.policy_low = 3e6;
    config.policy_high = 6e6;
    if (arm_health) {
      config.router.health.stance = UnhealthyStance::kFailOpen;
    }
    datapath = std::make_unique<LiveDatapath>(
        config, spec_named(filter_kind), std::move(source), loop);
    socket_path = temp_path("ctl_" + filter_kind);
    datapath->enable_control(socket_path, idle_timeout);
  }

  ~ControlFixture() { ::unlink(socket_path.c_str()); }

  /// Blocking client connection to the control socket.
  int connect() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // The server accepts on the next poll.
    loop.poll_once(1);
    return fd;
  }

  /// Writes raw bytes, polls the loop, reads one reply line.
  std::string roundtrip(int fd, const std::string& bytes) {
    send_raw(fd, bytes);
    return read_reply(fd);
  }

  void send_raw(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t put =
          ::write(fd, bytes.data() + off, bytes.size() - off);
      ASSERT_GT(put, 0);
      off += static_cast<std::size_t>(put);
      loop.poll_once(0);
    }
    loop.poll_once(1);
  }

  std::string read_reply(int fd) {
    std::string reply;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      char c = 0;
      const ssize_t got = ::read(fd, &c, 1);
      if (got == 1) {
        if (c == '\n') return reply;
        reply.push_back(c);
        continue;
      }
      if (got == 0) return reply;  // server closed
      if (errno != EAGAIN && errno != EWOULDBLOCK) return reply;
      loop.poll_once(1);
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "no reply within deadline; got: " << reply;
        return reply;
      }
    }
  }
};

TEST(ControlProtocol, RoundTripsOnCapableBackend) {
  ControlFixture fx{"bitmap"};
  const int fd = fx.connect();

  EXPECT_EQ(fx.roundtrip(fd, "set low 4e6\n"), "OK low=4e+06 high=6e+06");
  EXPECT_EQ(fx.roundtrip(fd, "set high 9e6\n"), "OK low=4e+06 high=9e+06");
  EXPECT_EQ(fx.roundtrip(fd, "set dt 2.5\n"), "OK dt=2.5s");

  const std::string snap = temp_path("snap") + ".bin";
  const std::string reply = fx.roundtrip(fd, "snapshot " + snap + "\n");
  EXPECT_EQ(reply.rfind("OK wrote " + snap, 0), 0u) << reply;
  std::FILE* f = std::fopen(snap.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  ::unlink(snap.c_str());

  const std::string stats = fx.roundtrip(fd, "stats\n");
  EXPECT_EQ(stats.rfind("OK {", 0), 0u) << stats;
  EXPECT_NE(stats.find("\"source\":\"udp-tap\""), std::string::npos);
  ::close(fd);
}

TEST(ControlProtocol, DtShrinkUnderTrafficKeepsRecentStateAlive) {
  // Regression: shrinking dt over the control socket used to re-anchor
  // the rotation schedule behind the filter's clock, so the very next
  // packet fired a burst of catch-up rotations that wiped state marked
  // moments earlier. The schedule now clamps the first new boundary
  // strictly past the last observed clock value.
  ControlFixture fx{"bitmap"};
  const int fd = fx.connect();

  StateFilter& filter = fx.datapath->router().filter();
  PacketRecord out;
  out.timestamp = SimTime::from_sec(4.0);  // inside the first 5s window
  out.tuple = FiveTuple{Protocol::kUdp, Ipv4Addr{10, 0, 0, 9}, 6000,
                        Ipv4Addr{1, 2, 3, 4}, 6881};
  filter.advance_time(out.timestamp);
  filter.record_outbound(out);

  EXPECT_EQ(fx.roundtrip(fd, "set dt 1\n"), "OK dt=1s");

  // Traffic resumes just after the retune: no rotation burst, and the
  // connection marked at t=4.0 is still admitted.
  PacketRecord probe;
  probe.timestamp = SimTime::from_sec(4.2);
  probe.tuple = out.tuple.inverse();
  filter.advance_time(probe.timestamp);
  EXPECT_EQ(filter.expiry_generations(), 0u);
  EXPECT_TRUE(filter.admits_inbound(probe));

  // The new 1s cadence takes over at the first boundary past t=4.
  filter.advance_time(SimTime::from_sec(5.0));
  EXPECT_EQ(filter.expiry_generations(), 1u);
  filter.advance_time(SimTime::from_sec(6.0));
  EXPECT_EQ(filter.expiry_generations(), 2u);
  ::close(fd);
}

TEST(ControlProtocol, TypedCapabilityErrorsOnIncapableBackend) {
  // naive has neither kCapRotateInterval nor kCapSnapshot: both commands
  // parse fine and fail with their typed capability code.
  ControlFixture fx{"naive"};
  const int fd = fx.connect();

  const std::string dt_reply = fx.roundtrip(fd, "set dt 2\n");
  EXPECT_EQ(dt_reply.rfind("ERR capability:rotate", 0), 0u) << dt_reply;
  const std::string snap_reply =
      fx.roundtrip(fd, "snapshot " + temp_path("nope") + "\n");
  EXPECT_EQ(snap_reply.rfind("ERR capability:snapshot", 0), 0u)
      << snap_reply;
  ::close(fd);
}

TEST(ControlProtocol, StatsTenantsGatedOnTenancyCapability) {
  {
    // A flat backend has no tenant table: typed capability error.
    ControlFixture fx{"bitmap"};
    const int fd = fx.connect();
    const std::string reply = fx.roundtrip(fd, "stats tenants\n");
    EXPECT_EQ(reply.rfind("ERR capability:tenancy", 0), 0u) << reply;
    ::close(fd);
  }
  {
    // The hierarchical tenant filter answers with the JSON summary.
    ControlFixture fx{"hierarchical"};
    const int fd = fx.connect();
    const std::string reply = fx.roundtrip(fd, "stats tenants\n");
    EXPECT_EQ(reply.rfind("OK {", 0), 0u) << reply;
    EXPECT_NE(reply.find("\"tenants\":"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"fine_live\":"), std::string::npos) << reply;
    const std::string extra = fx.roundtrip(fd, "stats tenants extra\n");
    EXPECT_EQ(extra.rfind("ERR bad-argument", 0), 0u) << extra;
    ::close(fd);
  }
}

TEST(ControlProtocol, UnhealthyStanceGating) {
  {
    ControlFixture fx{"bitmap", /*arm_health=*/false};
    const int fd = fx.connect();
    const std::string reply =
        fx.roundtrip(fd, "set on-unhealthy fail-closed\n");
    EXPECT_EQ(reply.rfind("ERR unsupported:health", 0), 0u) << reply;
    ::close(fd);
  }
  {
    ControlFixture fx{"bitmap", /*arm_health=*/true};
    const int fd = fx.connect();
    EXPECT_EQ(fx.roundtrip(fd, "set on-unhealthy fail-closed\n"),
              "OK on-unhealthy=fail-closed");
    EXPECT_EQ(fx.roundtrip(fd, "set on-unhealthy fail-open\n"),
              "OK on-unhealthy=fail-open");
    ::close(fd);
  }
}

TEST(ControlProtocol, BadArgumentsAndUnknownCommands) {
  ControlFixture fx{"bitmap"};
  const int fd = fx.connect();
  const std::pair<const char*, const char*> cases[] = {
      {"\n", "ERR unknown-command"},
      {"frobnicate\n", "ERR unknown-command"},
      {"set\n", "ERR bad-argument"},
      {"set low\n", "ERR bad-argument"},
      {"set low zero\n", "ERR bad-argument"},
      {"set low -5\n", "ERR bad-argument"},
      {"set low 1e6x\n", "ERR bad-argument"},
      {"set dt 0\n", "ERR bad-argument"},
      {"set high 1e6\n", "ERR bad-argument"},  // would invert low < high
      {"set wobble 3\n", "ERR unknown-command"},
      {"quit now\n", "ERR bad-argument"},
      {"snapshot\n", "ERR bad-argument"},
      {"stats extra\n", "ERR bad-argument"},
  };
  for (const auto& [line, prefix] : cases) {
    const std::string reply = fx.roundtrip(fd, line);
    EXPECT_EQ(reply.rfind(prefix, 0), 0u)
        << "line " << line << " -> " << reply;
  }
  ::close(fd);
}

TEST(ControlProtocol, SplitReadsReassemble) {
  ControlFixture fx{"bitmap"};
  const int fd = fx.connect();
  // One byte per write: the server must buffer across reads.
  const std::string cmd = "set low 4.5e6\n";
  for (const char c : cmd) fx.send_raw(fd, std::string(1, c));
  EXPECT_EQ(fx.read_reply(fd), "OK low=4.5e+06 high=6e+06");
  ::close(fd);
}

TEST(ControlProtocol, OversizedLineRejectedThenRecovers) {
  ControlFixture fx{"bitmap"};
  const int fd = fx.connect();
  // 8 KB with no newline: rejected mid-line with line-too-long...
  fx.send_raw(fd, std::string(8192, 'x'));
  EXPECT_EQ(fx.read_reply(fd).rfind("ERR line-too-long", 0), 0u);
  // ...the tail plus its eventual newline is skipped, and the very next
  // command parses normally.
  fx.send_raw(fd, std::string(100, 'y') + "\n");
  EXPECT_EQ(fx.roundtrip(fd, "stats\n").rfind("OK {", 0), 0u);
  ::close(fd);
}

TEST(ControlProtocol, EmbeddedNulsAreTypedErrorsNotCrashes) {
  ControlFixture fx{"bitmap"};
  const int fd = fx.connect();
  using std::string_literals::operator""s;
  EXPECT_EQ(fx.roundtrip(fd, "set low 4\0e6\n"s).rfind("ERR", 0), 0u);
  EXPECT_EQ(fx.roundtrip(fd, "snap\0shot /tmp/x\n"s).rfind("ERR", 0), 0u);
  EXPECT_EQ(fx.roundtrip(fd, "snapshot /tmp/\0evil\n"s).rfind("ERR", 0),
            0u);
  // Still alive.
  EXPECT_EQ(fx.roundtrip(fd, "stats\n").rfind("OK {", 0), 0u);
  ::close(fd);
}

TEST(ControlProtocol, MidCommandDisconnectAndReconnect) {
  ControlFixture fx{"bitmap"};
  int fd = fx.connect();
  fx.send_raw(fd, "set low 99");  // no newline
  ::close(fd);                    // die mid-command
  fx.loop.poll_once(1);           // server reaps the connection

  fd = fx.connect();
  EXPECT_EQ(fx.roundtrip(fd, "set low 4e6\n"), "OK low=4e+06 high=6e+06");
  ::close(fd);
}

TEST(ControlProtocol, DisconnectBeforeReplyDoesNotKillTheDaemon) {
  // Client sends a command and vanishes before the server writes the
  // reply: the write must fail with EPIPE (MSG_NOSIGNAL), not raise a
  // process-terminating SIGPIPE.
  ControlFixture fx{"bitmap"};
  const int fd = fx.connect();
  const char cmd[] = "stats\n";
  ASSERT_EQ(::write(fd, cmd, sizeof(cmd) - 1),
            static_cast<ssize_t>(sizeof(cmd) - 1));
  ::close(fd);         // gone before the server even reads the command
  fx.loop.poll_once(1);  // server reads, executes, reply write hits EPIPE

  const int fd2 = fx.connect();
  EXPECT_EQ(fx.roundtrip(fd2, "stats\n").rfind("OK {", 0), 0u);
  ::close(fd2);
}

TEST(ControlProtocol, DisconnectDuringOversizedLineStaysSafe) {
  // The line-too-long reply goes to a peer that already closed, so
  // send_reply tears the connection down mid-handle_data; the server
  // must not touch the freed Connection afterwards (ASan regression).
  ControlFixture fx{"bitmap"};
  const int fd = fx.connect();
  const std::string flood(8192, 'x');  // 2x the server's line bound
  ASSERT_EQ(::write(fd, flood.data(), flood.size()),
            static_cast<ssize_t>(flood.size()));
  ::close(fd);
  fx.loop.poll_once(1);

  const int fd2 = fx.connect();
  EXPECT_EQ(fx.roundtrip(fd2, "stats\n").rfind("OK {", 0), 0u);
  ::close(fd2);
}

TEST(ControlProtocol, SeededGarbageNeverWedgesTheLoop) {
  ControlFixture fx{"bitmap"};
  std::mt19937 rng{1234};
  for (int round = 0; round < 20; ++round) {
    const int fd = fx.connect();
    std::string junk;
    const std::size_t len = 1 + rng() % 600;
    for (std::size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng() % 256));
    }
    fx.send_raw(fd, junk);
    if (rng() % 2 == 0) fx.send_raw(fd, "\n");
    ::close(fd);
    fx.loop.poll_once(1);
  }
  // After 20 rounds of abuse a fresh client still gets clean service.
  const int fd = fx.connect();
  EXPECT_EQ(fx.roundtrip(fd, "stats\n").rfind("OK {", 0), 0u);
  ::close(fd);
  EXPECT_FALSE(fx.loop.stopped());
}

TEST(ControlProtocol, QuitRepliesThenStops) {
  ControlFixture fx{"bitmap"};
  const int fd = fx.connect();
  EXPECT_EQ(fx.roundtrip(fd, "quit\n"), "OK bye");
  EXPECT_TRUE(fx.loop.stopped());
  ::close(fd);
}

TEST(ControlProtocol, ExecuteMatrixAgainstFakeApi) {
  // Parser-level matrix against a fake: proves the typed codes come from
  // the protocol layer itself, independent of a real datapath.
  struct FakeApi final : ControlApi {
    ControlReply control_set_threshold(bool, double) override {
      return ControlReply::good("threshold");
    }
    ControlReply control_set_rotate_interval(Duration) override {
      return ControlReply::good("rotate");
    }
    ControlReply control_set_unhealthy_stance(UnhealthyStance) override {
      return ControlReply::good("stance");
    }
    ControlReply control_snapshot(const std::string&) override {
      return ControlReply::good("snapshot");
    }
    ControlReply control_stats() override {
      return ControlReply::good("stats");
    }
    void control_quit() override { quits++; }
    int quits = 0;
  };
  FakeApi api;
  EventLoop loop;
  ControlServer server{loop, temp_path("fake"), &api};

  bool quit = false;
  EXPECT_TRUE(server.execute("set low 1e6", &quit).ok);
  EXPECT_TRUE(server.execute("set dt 1", &quit).ok);
  EXPECT_TRUE(server.execute("set on-unhealthy fail-open", &quit).ok);
  EXPECT_TRUE(server.execute("snapshot /tmp/x", &quit).ok);
  EXPECT_TRUE(server.execute("stats", &quit).ok);
  // The fake never overrides control_stats_tenants: the ControlApi
  // default answers with the typed tenancy-capability error.
  const ControlReply tenants = server.execute("stats tenants", &quit);
  EXPECT_FALSE(tenants.ok);
  EXPECT_EQ(tenants.code, "capability:tenancy");
  // Same for the daemon-lifecycle verbs: a fake without a reloadable or
  // checkpointing datapath answers with the typed unsupported codes.
  const ControlReply reload = server.execute("reload /tmp/x.conf", &quit);
  EXPECT_FALSE(reload.ok);
  EXPECT_EQ(reload.code, "unsupported:reload");
  const ControlReply checkpoint = server.execute("checkpoint", &quit);
  EXPECT_FALSE(checkpoint.ok);
  EXPECT_EQ(checkpoint.code, "unsupported:checkpoint");
  // Argument-shape errors come from the protocol layer before the API.
  EXPECT_EQ(server.execute("reload", &quit).code, "bad-argument");
  EXPECT_EQ(server.execute("reload a b", &quit).code, "bad-argument");
  EXPECT_EQ(server.execute("checkpoint now", &quit).code, "bad-argument");
  EXPECT_FALSE(quit);
  const ControlReply bye = server.execute("quit", &quit);
  EXPECT_TRUE(bye.ok);
  EXPECT_EQ(bye.detail, "bye");
  EXPECT_TRUE(quit);
  // execute() itself must NOT quit -- the server calls control_quit only
  // after the reply is on the wire.
  EXPECT_EQ(api.quits, 0);
  EXPECT_EQ(server.commands_processed(), 12u);
}

TEST(ControlProtocol, ConcurrentReconfigurationUnderTraffic) {
  // TSan case: the loop thread owns the router; a control client retunes
  // thresholds while a sender pushes traffic. All mutation happens on
  // the loop thread by design -- this test exists so TSan can prove it.
  VirtualClock clock;
  EventLoop loop;
  UdpTapSource::Config tap_config;
  tap_config.port = 0;
  auto source = std::make_unique<UdpTapSource>(tap_config);
  const std::uint16_t port = source->local_port();

  const GeneratedTrace& generated = conformance_trace();
  LiveConfig config;
  config.router.network = generated.network;
  config.clock = &clock;
  LiveDatapath datapath{config, spec_named("bitmap"), std::move(source),
                        loop};
  const std::string ctl = temp_path("tsan");
  datapath.enable_control(ctl);

  std::thread loop_thread{[&loop] { loop.run(); }};

  std::thread sender_thread{[&] {
    UdpTapSender sender{port};
    for (std::size_t p = 0; p < 2000 && p < generated.packets.size();
         ++p) {
      sender.send_packet(generated.packets[p]);
    }
  }};

  std::thread client_thread{[&] {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, ctl.c_str(), ctl.size());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return;
    }
    char buf[256];
    for (int i = 0; i < 50; ++i) {
      const std::string cmd =
          "set low " + std::to_string(1e6 + i * 1e5) + "\n";
      if (::write(fd, cmd.data(), cmd.size()) < 0) break;
      const ssize_t got = ::read(fd, buf, sizeof(buf));
      if (got <= 0) break;
    }
    const char quit[] = "quit\n";
    (void)!::write(fd, quit, sizeof(quit) - 1);
    (void)::read(fd, buf, sizeof(buf));
    ::close(fd);
  }};

  sender_thread.join();
  client_thread.join();
  loop_thread.join();  // quit stops the loop
  EXPECT_TRUE(loop.stopped());
  ::unlink(ctl.c_str());
}

TEST(ControlProtocol, DaemonVerbsOverTheSocket) {
  ControlFixture fx{"bitmap"};
  const int fd = fx.connect();

  // Argument-shape errors come back before any API dispatch.
  EXPECT_EQ(fx.roundtrip(fd, "reload\n"),
            "ERR bad-argument usage: reload <path>");
  EXPECT_EQ(fx.roundtrip(fd, "reload a b\n"),
            "ERR bad-argument usage: reload <path>");
  EXPECT_EQ(fx.roundtrip(fd, "checkpoint now\n"),
            "ERR bad-argument checkpoint takes no arguments");

  // This fixture never armed a checkpoint dir: typed unsupported code.
  const std::string ck = fx.roundtrip(fd, "checkpoint\n");
  EXPECT_EQ(ck.rfind("ERR unsupported:checkpoint", 0), 0u) << ck;

  // A missing config file is a typed io error, not a dropped connection.
  const std::string missing =
      fx.roundtrip(fd, "reload " + temp_path("no_such_config") + "\n");
  EXPECT_EQ(missing.rfind("ERR io", 0), 0u) << missing;

  // A well-formed retune config applies atomically over the socket.
  const std::string conf = temp_path("reload_conf") + ".conf";
  std::FILE* f = std::fopen(conf.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("low 4e6\nhigh 9e6\n", f);
  std::fclose(f);
  EXPECT_EQ(fx.roundtrip(fd, "reload " + conf + "\n"),
            "OK reloaded " + conf + ": low=4e+06 high=9e+06");

  // A geometry change over the socket is refused with the typed code
  // and the running filter stays untouched.
  std::FILE* g = std::fopen(conf.c_str(), "wb");
  ASSERT_NE(g, nullptr);
  std::fputs("filter bitmap\nbits 10\ndt 5\n", g);
  std::fclose(g);
  const std::string incompat = fx.roundtrip(fd, "reload " + conf + "\n");
  EXPECT_EQ(incompat.rfind("ERR reload-incompatible", 0), 0u) << incompat;
  ::unlink(conf.c_str());
  ::close(fd);
}

TEST(ControlProtocol, MidLineIdlersAreReapedWithTypedTimeout) {
  ControlFixture fx{"bitmap", /*arm_health=*/false,
                    /*idle_timeout=*/Duration::msec(50)};
  const int fd = fx.connect();
  fx.send_raw(fd, "sta");  // mid-line: command started, newline never sent

  // The wall-clock sweep fires while we pump the loop: the stuck client
  // gets one typed reply line and then the server closes its end.
  std::string reply;
  bool closed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!closed) {
    ASSERT_TRUE(std::chrono::steady_clock::now() < deadline) << reply;
    fx.loop.poll_once(5);
    char buf[128];
    const ssize_t got = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (got > 0) {
      reply.append(buf, static_cast<std::size_t>(got));
    } else if (got == 0) {
      closed = true;
    }
  }
  EXPECT_EQ(reply.rfind("ERR timeout", 0), 0u) << reply;
  EXPECT_NE(reply.find("mid-command idle"), std::string::npos) << reply;
  EXPECT_EQ(fx.datapath->control()->connections_reaped(), 1u);
  ::close(fd);

  // The daemon is still serving: a fresh client round-trips normally.
  const int fd2 = fx.connect();
  const std::string stats = fx.roundtrip(fd2, "stats\n");
  EXPECT_EQ(stats.rfind("OK {", 0), 0u) << stats;
  ::close(fd2);
}

TEST(ControlProtocol, IdleBetweenCommandsIsNeverReaped) {
  ControlFixture fx{"bitmap", /*arm_health=*/false,
                    /*idle_timeout=*/Duration::msec(50)};
  const int fd = fx.connect();
  EXPECT_EQ(fx.roundtrip(fd, "set low 4e6\n"), "OK low=4e+06 high=6e+06");

  // Sit quiet with NO partial line buffered for several sweep periods:
  // a connection idle between commands holds no server memory hostage
  // and must be left alone.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  while (std::chrono::steady_clock::now() < until) fx.loop.poll_once(5);

  EXPECT_EQ(fx.datapath->control()->connections_reaped(), 0u);
  EXPECT_EQ(fx.roundtrip(fd, "set high 9e6\n"), "OK low=4e+06 high=9e+06");
  ::close(fd);
}

}  // namespace
}  // namespace upbound::live::testing
