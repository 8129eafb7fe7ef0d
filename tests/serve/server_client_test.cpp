// End-to-end daemon drills over real AF_UNIX sockets: liveness, decision
// parity through the wire, the malformed-frame flood, overload shedding,
// the corrupt-controller degradation drill, hot-reload under load, client
// backoff across a daemon restart, the status file contract, and pipelined
// framing: bursts sent whole, dribbled or split, with a corrupt header, a
// bad payload or a reload inside, shed under overload, or traced.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../test_helpers.hpp"
#include "campaign/artifact_cache.hpp"
#include "core/pipeline.hpp"
#include "obs/analysis/status_view.hpp"
#include "obs/analysis/timeline.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"

namespace solsched::serve {
namespace {

constexpr std::uint64_t kKey = 0xbeefULL;

const core::TrainedController& tiny_controller() {
  static const core::TrainedController c = [] {
    const auto grid = test::tiny_grid();
    const auto gen = test::scaled_generator(grid, 81);
    core::PipelineConfig config;
    config.n_caps = 2;
    config.dp.energy_buckets = 6;
    config.dbn.pretrain.epochs = 2;
    config.dbn.finetune.epochs = 10;
    return core::train_pipeline(test::indep3(), gen.generate_days(1, grid),
                                test::small_node(grid), config);
  }();
  return c;
}

struct TestDirs {
  std::string root;
  std::string cache;
  std::string socket;
  std::string status;
};

TestDirs fresh_dirs(const char* name, bool with_controller = true) {
  TestDirs d;
  d.root = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(d.root);
  std::filesystem::create_directories(d.root);
  d.cache = d.root + "/cache";
  d.socket = d.root + "/sock";
  d.status = d.root + "/status.json";
  campaign::ArtifactCache cache(d.cache);
  if (with_controller) cache.store(kKey, tiny_controller());
  return d;
}

Server::Options server_options(const TestDirs& d) {
  Server::Options options;
  options.socket_path = d.socket;
  options.cache_dir = d.cache;
  options.status_path = d.status;
  options.workers = 2;
  options.queue_depth = 32;
  options.status_interval_ms = 0;  // Status written on stop only.
  return options;
}

ServeClient::Options client_options(const TestDirs& d,
                                    std::size_t max_attempts = 8) {
  ServeClient::Options options;
  options.socket_path = d.socket;
  options.max_attempts = max_attempts;
  options.base_backoff_ms = 5;
  options.max_backoff_ms = 100;
  options.recv_timeout_ms = 2000;
  return options;
}

QueryRequest valid_query() {
  QueryRequest q;
  q.controller_key = kKey;
  q.day = 0;
  q.period = 4;
  q.selected_cap = 0;
  q.accumulated_dmr = 0.1;
  q.cap_voltages.assign(tiny_controller().node.capacities_f.size(), 2.5);
  q.last_period_solar_w.assign(tiny_controller().node.grid.n_slots, 0.08);
  return q;
}

/// Raw hostile connection: writes arbitrary bytes, no protocol.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A raw connection that pipelines frames and reads the replies back one
/// frame at a time (5 s receive timeout, so a lost reply fails, not hangs).
class RawConn {
 public:
  explicit RawConn(const std::string& path) : fd_(raw_connect(path)) {
    const timeval timeout{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  bool ok() const { return fd_ >= 0; }

  void send(const std::uint8_t* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed";
      data += n;
      size -= static_cast<std::size_t>(n);
    }
  }
  void send(const std::vector<std::uint8_t>& bytes) {
    send(bytes.data(), bytes.size());
  }

  /// The next whole reply frame; false when the stream ended first.
  bool next(FrameHeader* header, std::vector<std::uint8_t>* frame) {
    for (;;) {
      if (buf_.size() >= kFrameHeaderSize &&
          decode_header(buf_.data(), buf_.size(), header) ==
              FrameVerdict::kOk &&
          buf_.size() >= kFrameHeaderSize + header->payload_len) {
        const auto end = buf_.begin() + static_cast<std::ptrdiff_t>(
                                            kFrameHeaderSize +
                                            header->payload_len);
        frame->assign(buf_.begin(), end);
        buf_.erase(buf_.begin(), end);
        return true;
      }
      std::uint8_t chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        // EOF, or a reset because the server closed with input unread.
        closed_ = n == 0 || errno == ECONNRESET;
        return false;
      }
      buf_.insert(buf_.end(), chunk, chunk + n);
    }
  }

  /// True once next() met the server's close (not a timeout).
  bool closed_by_server() const { return closed_; }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
  bool closed_ = false;
};

/// n distinct valid queries (period, voltages, DMR and solar vary).
std::vector<QueryRequest> varied_queries(std::size_t n) {
  std::vector<QueryRequest> queries;
  for (std::size_t i = 0; i < n; ++i) {
    QueryRequest q = valid_query();
    q.period = static_cast<std::uint32_t>(i % 12);
    q.accumulated_dmr = 0.01 * static_cast<double>(i);
    for (std::size_t h = 0; h < q.cap_voltages.size(); ++h)
      q.cap_voltages[h] = 1.8 + 0.07 * static_cast<double>((i + 3 * h) % 17);
    for (double& w : q.last_period_solar_w)
      w = 0.02 * static_cast<double>(i % 5);
    queries.push_back(std::move(q));
  }
  return queries;
}

std::vector<std::uint8_t> query_frame(const QueryRequest& q) {
  return encode_frame(FrameType::kQuery, encode_query(q),
                      query_wire_version(q));
}

/// The decision frames DecisionEngine::decide gives `queries`, as sorted
/// byte strings: the server's replies, sorted, must equal them.
std::vector<std::string> expected_decisions(
    const TestDirs& d, const std::vector<QueryRequest>& queries) {
  DecisionEngine engine({d.cache, 0});
  engine.load_all();
  std::vector<std::string> frames;
  for (const QueryRequest& q : queries) {
    const DecisionEngine::Outcome out =
        engine.decide(q, ~std::uint64_t{0});
    EXPECT_TRUE(out.ok) << out.error.message;
    const std::vector<std::uint8_t> frame =
        encode_frame(FrameType::kDecision, encode_decision(out.reply));
    frames.emplace_back(frame.begin(), frame.end());
  }
  std::sort(frames.begin(), frames.end());
  return frames;
}

/// Reads n replies; the decisions come back sorted, the rest as they came.
struct Replies {
  std::vector<std::string> decisions;  ///< Whole frames as byte strings.
  std::vector<FrameHeader> others;
  std::vector<std::vector<std::uint8_t>> other_frames;
};
Replies read_replies(RawConn& conn, std::size_t n) {
  Replies r;
  for (std::size_t i = 0; i < n; ++i) {
    FrameHeader header;
    std::vector<std::uint8_t> frame;
    if (!conn.next(&header, &frame)) {
      ADD_FAILURE() << "stream ended after " << i << " of " << n << " replies";
      break;
    }
    if (header.type == FrameType::kDecision) {
      r.decisions.emplace_back(frame.begin(), frame.end());
    } else {
      r.others.push_back(header);
      r.other_frames.push_back(std::move(frame));
    }
  }
  std::sort(r.decisions.begin(), r.decisions.end());
  return r;
}

ErrorCode error_code_of(const std::vector<std::uint8_t>& frame) {
  ErrorReply error;
  EXPECT_EQ(decode_error(frame.data() + kFrameHeaderSize,
                         frame.size() - kFrameHeaderSize, &error),
            FrameVerdict::kOk);
  return error.code;
}

std::vector<std::uint8_t> concat_frames(const std::vector<QueryRequest>& qs,
                                        std::size_t from, std::size_t to) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = from; i < to; ++i) {
    const std::vector<std::uint8_t> f = query_frame(qs[i]);
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  return bytes;
}

TEST(ServeEndToEnd, PingQueryAndDecisionParityThroughTheWire) {
  const TestDirs d = fresh_dirs("serve_e2e");
  Server server(server_options(d));
  server.start();

  ServeClient client(client_options(d));
  EXPECT_EQ(client.ping(), ServeClient::Result::kOk);

  DecisionReply a, b;
  ASSERT_EQ(client.query(valid_query(), &a), ServeClient::Result::kOk);
  EXPECT_EQ(a.fallback_code, kFallbackNone);
  EXPECT_EQ(a.controller_key, kKey);
  ASSERT_EQ(client.query(valid_query(), &b), ServeClient::Result::kOk);
  // Bit-identical repeat: the restart drill's comparison primitive.
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.te_mask, b.te_mask);
  EXPECT_EQ(a.has_select_cap, b.has_select_cap);
  EXPECT_EQ(a.select_cap, b.select_cap);

  // Unknown key degrades, never errors.
  QueryRequest unknown = valid_query();
  unknown.controller_key = 0x404;
  DecisionReply fallback;
  ASSERT_EQ(client.query(unknown, &fallback), ServeClient::Result::kOk);
  EXPECT_EQ(fallback.fallback_code, kFallbackNoController);
  EXPECT_TRUE(fallback.used_fallback);

  // Shape mismatch is a typed permanent refusal.
  QueryRequest bad = valid_query();
  bad.cap_voltages.pop_back();
  DecisionReply ignored;
  EXPECT_EQ(client.query(bad, &ignored), ServeClient::Result::kRefused);
  EXPECT_EQ(client.last_error().code, ErrorCode::kBadRequest);

  server.stop();
}

TEST(ServeEndToEnd, MalformedFrameFloodCostsRepliesNotTheDaemon) {
  const TestDirs d = fresh_dirs("serve_fuzz");
  Server server(server_options(d));
  server.start();

  util::Rng rng(2026);
  // 1000 hostile frames across many short-lived connections. Header-level
  // garbage forfeits framing (server replies once and closes); hash-level
  // damage keeps the connection. Either way: no crash.
  for (int i = 0; i < 100; ++i) {
    const int fd = raw_connect(d.socket);
    ASSERT_GE(fd, 0);
    for (int j = 0; j < 10; ++j) {
      std::uint8_t noise[64];
      const int len = rng.uniform_int(1, 64);
      for (int b = 0; b < len; ++b)
        noise[b] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      if (::send(fd, noise, static_cast<std::size_t>(len), MSG_NOSIGNAL) < 0)
        break;  // Server already closed this connection: expected.
    }
    ::close(fd);
  }

  // The daemon still serves real clients afterwards.
  ServeClient client(client_options(d));
  DecisionReply reply;
  EXPECT_EQ(client.query(valid_query(), &reply), ServeClient::Result::kOk);
  EXPECT_GT(server.stats().malformed, 0u);
  server.stop();
}

TEST(ServeEndToEnd, OverloadShedsWithTypedRefusal) {
  const TestDirs d = fresh_dirs("serve_overload");
  Server::Options options = server_options(d);
  options.workers = 1;
  options.queue_depth = 1;
  // Every reply sleeps 100 ms in the single worker: concurrent requests
  // pile into the 1-deep queue and the rest must shed immediately.
  options.faults = fault::ServeFaultPlan::parse("delay=1.0,delay-ms=100");
  Server server(options);
  server.start();

  std::atomic<std::size_t> ok{0}, exhausted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c)
    clients.emplace_back([&, c] {
      ServeClient::Options copts = client_options(d, /*max_attempts=*/1);
      copts.jitter_seed = static_cast<std::uint64_t>(c + 1);
      ServeClient client(copts);
      DecisionReply reply;
      switch (client.query(valid_query(), &reply)) {
        case ServeClient::Result::kOk: ok.fetch_add(1); break;
        case ServeClient::Result::kExhausted: exhausted.fetch_add(1); break;
        case ServeClient::Result::kRefused: ADD_FAILURE(); break;
      }
    });
  for (auto& t : clients) t.join();

  // Someone got served, someone got shed — and shedding was the typed
  // SERVE_OVERLOADED path, not a hang or a dropped connection.
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(server.stats().shed, 0u);
  EXPECT_EQ(ok.load() + exhausted.load(), 8u);
  server.stop();
}

TEST(ServeEndToEnd, CorruptControllerDrillServesOfflineLsaBaseline) {
  const TestDirs d = fresh_dirs("serve_corrupt");
  {
    campaign::ArtifactCache cache(d.cache);
    std::ofstream(cache.path_of(kKey), std::ios::trunc) << "garbage";
  }
  Server server(server_options(d));
  server.start();

  ServeClient client(client_options(d));
  DecisionReply reply;
  ASSERT_EQ(client.query(valid_query(), &reply), ServeClient::Result::kOk);
  // Graceful degradation: the LSA inter-task baseline plan (keep the
  // capacitor, all tasks, full speed) tagged with the serve-layer reason.
  EXPECT_EQ(reply.fallback_code, kFallbackNoController);
  EXPECT_TRUE(reply.used_fallback);
  EXPECT_FALSE(reply.has_select_cap);
  EXPECT_EQ(reply.n_tasks, 0u);
  EXPECT_EQ(reply.te_mask, 0u);
  EXPECT_EQ(reply.alpha, 1.0);
  EXPECT_FALSE(reply.intra_mode);
  server.stop();
}

TEST(ServeEndToEnd, HotReloadUnderLoadStaysConsistent) {
  const TestDirs d = fresh_dirs("serve_reload");
  Server server(server_options(d));
  server.start();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> served{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < 3; ++c)
    readers.emplace_back([&, c] {
      ServeClient::Options copts = client_options(d);
      copts.jitter_seed = static_cast<std::uint64_t>(c + 10);
      ServeClient client(copts);
      DecisionReply reply;
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_EQ(client.query(valid_query(), &reply),
                  ServeClient::Result::kOk);
        ASSERT_EQ(reply.fallback_code, kFallbackNone);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });

  ServeClient reloader(client_options(d));
  for (int i = 0; i < 20; ++i) {
    ReloadReply ack;
    ASSERT_EQ(reloader.reload(kKey, &ack), ServeClient::Result::kOk);
    EXPECT_TRUE(ack.ok) << ack.message;
  }
  while (served.load(std::memory_order_relaxed) < 50)
    std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GE(server.stats().reloads, 20u);
  server.stop();
}

TEST(ServeEndToEnd, ClientBackoffSurvivesDaemonRestart) {
  const TestDirs d = fresh_dirs("serve_restart");
  DecisionReply before;
  {
    Server server(server_options(d));
    server.start();
    ServeClient client(client_options(d));
    ASSERT_EQ(client.query(valid_query(), &before),
              ServeClient::Result::kOk);
    server.stop();  // Daemon gone; socket unlinked.
  }

  // A client that starts querying while the daemon is down must ride its
  // backoff into the restarted instance, not fail fast.
  std::atomic<bool> client_done{false};
  DecisionReply after;
  ServeClient::Result result = ServeClient::Result::kExhausted;
  std::size_t reconnects = 0;
  std::thread querier([&] {
    ServeClient::Options copts = client_options(d, /*max_attempts=*/20);
    ServeClient client(copts);
    result = client.query(valid_query(), &after);
    reconnects = client.reconnects();
    client_done.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  Server server(server_options(d));  // Same socket path: stale-unlink + bind.
  server.start();
  querier.join();

  ASSERT_EQ(result, ServeClient::Result::kOk);
  EXPECT_GT(reconnects, 0u);
  // Decisions are bit-identical across the restart.
  EXPECT_EQ(after.alpha, before.alpha);
  EXPECT_EQ(after.te_mask, before.te_mask);
  EXPECT_EQ(after.select_cap, before.select_cap);
  server.stop();
}

TEST(ServeEndToEnd, TracedQueryLeavesDecisionBytesIdentical) {
  // The observability-off contract, end to end: with the obs switch dark,
  // a v2 (traced) query must produce the exact decision bytes of its v1
  // twin — tracing changes the envelope, never the answer.
  ASSERT_FALSE(solsched::obs::enabled());
  const TestDirs d = fresh_dirs("serve_byteident");
  Server server(server_options(d));
  server.start();

  ServeClient client(client_options(d));
  DecisionReply plain, traced;
  ASSERT_EQ(client.query(valid_query(), &plain), ServeClient::Result::kOk);
  QueryRequest q = valid_query();
  q.trace.trace_id = derive_trace_id(42, 0);
  q.trace.parent_span_id = 7;
  ASSERT_EQ(client.query(q, &traced), ServeClient::Result::kOk);
  // encode_decision is a pure function of the reply struct, so comparing
  // encodings compares the wire bytes the two replies traveled as.
  EXPECT_EQ(encode_decision(plain), encode_decision(traced));
  server.stop();
}

TEST(ServeEndToEnd, TracedRequestStitchesIntoOneTimeline) {
  const TestDirs d = fresh_dirs("serve_timeline");
  Server::Options options = server_options(d);
  options.trace_path = d.root + "/server_trace.json";
  solsched::obs::set_enabled(true);
  solsched::obs::set_trace_events_enabled(true);

  const std::uint64_t trace_id = derive_trace_id(7, 3);
  {
    Server server(options);
    server.start();
    ServeClient client(client_options(d));
    QueryRequest q = valid_query();
    q.trace.trace_id = trace_id;
    DecisionReply reply;
    ASSERT_EQ(client.query(q, &reply), ServeClient::Result::kOk);
    server.stop();  // Graceful stop flushes the dump: the satellite contract.
  }
  solsched::obs::set_trace_events_enabled(false);
  solsched::obs::set_enabled(false);
  solsched::obs::clear_trace_events();

  // Client and server share this process, hence one span sink: the dump the
  // daemon flushed on stop holds both sides of the round trip. (The genuine
  // two-file merge is timeline_test's and the tier-1 drill's job.)
  const auto timeline =
      solsched::obs::analysis::load_timeline({options.trace_path});
  const auto breakdowns = solsched::obs::analysis::request_breakdowns(timeline);
  const solsched::obs::analysis::RequestBreakdown* b = nullptr;
  for (const auto& candidate : breakdowns)
    if (candidate.trace_id == trace_id) b = &candidate;
  ASSERT_NE(b, nullptr) << "trace id absent from the merged dumps";

  // Both sides contributed: the client span wraps the server span, and the
  // stage spans partition (a subset of) the server span. Wall-clock slack
  // covers rounding at the µs edges.
  EXPECT_GT(b->client_latency_us, 0u);
  EXPECT_GT(b->server_total_us, 0u);
  EXPECT_GT(b->stage_sum_us, 0u);
  EXPECT_LE(b->server_total_us, b->client_latency_us + 50);
  EXPECT_LE(b->stage_sum_us, b->server_total_us + 50);
  EXPECT_GE(b->spans.size(), 5u);  // client + serve.req + >=3 stages.

  // The flow arrow survives the merge: one start, one finish, same id.
  std::size_t starts = 0, finishes = 0;
  for (const auto& ev : timeline.events) {
    if (ev.trace_id != trace_id) continue;
    if (ev.ph == 's') ++starts;
    if (ev.ph == 'f') ++finishes;
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(finishes, 1u);

  // The plain-text renderer names the trace and the breakdown lines.
  const std::string text =
      solsched::obs::analysis::render_timeline(timeline, trace_id);
  EXPECT_NE(text.find("serve.req"), std::string::npos);
  EXPECT_NE(text.find("serve.client.request"), std::string::npos);
}

TEST(ServeEndToEnd, ShutdownFrameUnblocksWaitAndStatusFileIsParseable) {
  const TestDirs d = fresh_dirs("serve_status");
  Server::Options options = server_options(d);
  options.status_interval_ms = 20;
  auto server = std::make_unique<Server>(options);
  server->start();

  ServeClient client(client_options(d));
  DecisionReply reply;
  ASSERT_EQ(client.query(valid_query(), &reply), ServeClient::Result::kOk);
  ASSERT_EQ(client.shutdown_server(), ServeClient::Result::kOk);
  server->wait();  // Returns because the kShutdown frame armed the latch.
  server->stop();
  server.reset();

  // The final snapshot is a parseable "stopped" status; tmp -> rename means
  // it is never torn.
  std::ifstream in(d.status, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream body;
  body << in.rdbuf();
  const auto status = std::get<obs::analysis::ServeStatus>(
      obs::analysis::parse_status(body.str()));
  EXPECT_EQ(status.state, "stopped");
  EXPECT_EQ(status.heartbeat_ms, 20u);  // The status cadence.
  EXPECT_EQ(status.controllers, 1u);
  EXPECT_GE(status.requests, 1u);
  // A stopped snapshot never goes stale, no matter the clock.
  EXPECT_FALSE(
      obs::analysis::status_is_stale(status, status.wall_ms + 3600 * 1000));
  EXPECT_EQ(obs::analysis::status_exit_code(status), 0);
}

// A socket path may hold any byte but NUL. The status file escapes it, so a
// tab or newline in --socket cannot make status.json unparseable.
TEST(ServeEndToEnd, StatusFileEscapesControlCharactersInTheSocketPath) {
  const TestDirs d = fresh_dirs("serve_status_ctrl", false);
  Server::Options options = server_options(d);
  options.socket_path = d.root + "/so\tck\n";
  {
    Server server(options);
    server.start();
    server.stop();
  }
  std::ifstream in(d.status, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream body;
  body << in.rdbuf();
  const auto status = std::get<obs::analysis::ServeStatus>(
      obs::analysis::parse_status(body.str()));
  EXPECT_EQ(status.state, "stopped");
  EXPECT_EQ(status.socket, options.socket_path);
}

TEST(ServeEndToEnd, StatusWriteFailureWarnsOnceAndLeavesNoTempFile) {
  const TestDirs d = fresh_dirs("serve_status_fail");
  Server::Options options = server_options(d);
  // A directory where the status file should be: every rename fails.
  options.status_path = d.root + "/status_dir";
  std::filesystem::create_directories(options.status_path);
  ::testing::internal::CaptureStderr();
  {
    Server server(options);
    server.start();  // Writes "running"...
    server.stop();   // ...and "stopped": two failed writes.
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(std::filesystem::exists(options.status_path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(options.status_path));
  const std::string warning = "writing status " + options.status_path;
  const std::size_t first = err.find(warning);
  EXPECT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find(warning, first + 1), std::string::npos) << err;
}

TEST(ServeEndToEnd, PipelinedFramingAnswersEveryQueryByteIdentically) {
  const TestDirs d = fresh_dirs("serve_pipelined");
  Server::Options options = server_options(d);
  options.queue_depth = 128;  // A whole burst fits: nothing is shed.
  Server server(options);
  server.start();
  const std::vector<QueryRequest> queries = varied_queries(64);
  const auto expected = expected_decisions(d, queries);
  const std::vector<std::uint8_t> burst =
      concat_frames(queries, 0, queries.size());

  {  // All 64 frames in one send().
    RawConn conn(d.socket);
    ASSERT_TRUE(conn.ok());
    conn.send(burst);
    const Replies r = read_replies(conn, queries.size());
    EXPECT_TRUE(r.others.empty());
    EXPECT_EQ(r.decisions, expected);
  }
  {  // The same bytes dribbled one at a time.
    RawConn conn(d.socket);
    ASSERT_TRUE(conn.ok());
    for (std::size_t i = 0; i < burst.size(); ++i) conn.send(&burst[i], 1);
    const Replies r = read_replies(conn, queries.size());
    EXPECT_TRUE(r.others.empty());
    EXPECT_EQ(r.decisions, expected);
  }
  {  // Every frame cut mid-header and mid-payload, the pieces sent apart.
    std::vector<std::size_t> cuts;
    std::size_t start = 0;
    for (const QueryRequest& q : queries) {
      const std::size_t size = query_frame(q).size();
      cuts.push_back(start + 7);
      cuts.push_back(start + kFrameHeaderSize + (size - kFrameHeaderSize) / 2);
      start += size;
    }
    cuts.push_back(burst.size());
    RawConn conn(d.socket);
    ASSERT_TRUE(conn.ok());
    std::size_t from = 0;
    for (const std::size_t cut : cuts) {
      conn.send(burst.data() + from, cut - from);
      from = cut;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const Replies r = read_replies(conn, queries.size());
    EXPECT_TRUE(r.others.empty());
    EXPECT_EQ(r.decisions, expected);
  }
  EXPECT_EQ(server.stats().decisions, 3 * queries.size());
  EXPECT_EQ(server.stats().shed, 0u);
  server.stop();
}

TEST(ServeEndToEnd, FrameLargerThanTheReceiveBufferIsReadWhole) {
  const TestDirs d = fresh_dirs("serve_big_frame");
  Server server(server_options(d));
  server.start();
  // A 200 KB ping payload, well past the reader's initial 64 KiB buffer,
  // between two queries.
  const std::vector<QueryRequest> queries = varied_queries(2);
  std::vector<std::uint8_t> burst = query_frame(queries[0]);
  const std::vector<std::uint8_t> ping =
      encode_frame(FrameType::kPing, std::vector<std::uint8_t>(200000, 7));
  burst.insert(burst.end(), ping.begin(), ping.end());
  const std::vector<std::uint8_t> tail = query_frame(queries[1]);
  burst.insert(burst.end(), tail.begin(), tail.end());

  RawConn conn(d.socket);
  ASSERT_TRUE(conn.ok());
  conn.send(burst);
  const Replies r = read_replies(conn, 3);
  EXPECT_EQ(r.decisions, expected_decisions(d, queries));
  ASSERT_EQ(r.others.size(), 1u);
  EXPECT_EQ(r.others[0].type, FrameType::kPong);
  EXPECT_EQ(server.stats().malformed, 0u);
  server.stop();
}

TEST(ServeEndToEnd, CorruptHeaderMidBurstAnswersEarlierQueriesThenCloses) {
  const TestDirs d = fresh_dirs("serve_burst_header");
  Server::Options options = server_options(d);
  options.queue_depth = 64;
  Server server(options);
  server.start();
  const std::vector<QueryRequest> queries = varied_queries(20);
  std::vector<std::uint8_t> burst = concat_frames(queries, 0, 10);
  burst.insert(burst.end(), kFrameHeaderSize, 0xAB);  // Bad magic.
  const std::vector<std::uint8_t> tail = concat_frames(queries, 10, 20);
  burst.insert(burst.end(), tail.begin(), tail.end());

  RawConn conn(d.socket);
  ASSERT_TRUE(conn.ok());
  conn.send(burst);
  // The ten queries ahead of the garbage are answered first...
  const Replies r = read_replies(conn, 10);
  EXPECT_TRUE(r.others.empty());
  EXPECT_EQ(r.decisions,
            expected_decisions(d, {queries.begin(), queries.begin() + 10}));
  // ...then one typed refusal, then the server closes the connection.
  FrameHeader header;
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(conn.next(&header, &frame));
  ASSERT_EQ(header.type, FrameType::kError);
  EXPECT_EQ(error_code_of(frame), ErrorCode::kMalformed);
  EXPECT_FALSE(conn.next(&header, &frame));
  EXPECT_TRUE(conn.closed_by_server());
  EXPECT_EQ(server.stats().decisions, 10u);
  EXPECT_EQ(server.stats().malformed, 1u);
  server.stop();
}

TEST(ServeEndToEnd, BadPayloadMidBurstIsRefusedAndTheStreamContinues) {
  const TestDirs d = fresh_dirs("serve_burst_payload");
  Server::Options options = server_options(d);
  options.queue_depth = 64;
  Server server(options);
  server.start();
  const std::vector<QueryRequest> queries = varied_queries(20);
  std::vector<std::uint8_t> burst = concat_frames(queries, 0, 10);
  std::vector<std::uint8_t> damaged = query_frame(valid_query());
  damaged[kFrameHeaderSize + 3] ^= 0xFF;  // Fails the payload hash.
  burst.insert(burst.end(), damaged.begin(), damaged.end());
  const std::vector<std::uint8_t> tail = concat_frames(queries, 10, 20);
  burst.insert(burst.end(), tail.begin(), tail.end());

  RawConn conn(d.socket);
  ASSERT_TRUE(conn.ok());
  conn.send(burst);
  const Replies r = read_replies(conn, 21);
  EXPECT_EQ(r.decisions, expected_decisions(d, queries));
  ASSERT_EQ(r.others.size(), 1u);
  EXPECT_EQ(r.others[0].type, FrameType::kError);
  EXPECT_EQ(error_code_of(r.other_frames[0]), ErrorCode::kMalformed);

  // The stream kept its framing: a ping on it is still answered.
  conn.send(encode_frame(FrameType::kPing, {}));
  FrameHeader header;
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(conn.next(&header, &frame));
  EXPECT_EQ(header.type, FrameType::kPong);
  EXPECT_EQ(server.stats().malformed, 1u);
  server.stop();
}

TEST(ServeEndToEnd, ReloadBetweenPipelinedQueriesIsAcknowledged) {
  const TestDirs d = fresh_dirs("serve_burst_reload");
  Server::Options options = server_options(d);
  options.queue_depth = 64;
  Server server(options);
  server.start();
  const std::vector<QueryRequest> queries = varied_queries(20);
  std::vector<std::uint8_t> burst = concat_frames(queries, 0, 10);
  const std::vector<std::uint8_t> reload =
      encode_frame(FrameType::kReload, encode_reload(kKey));
  burst.insert(burst.end(), reload.begin(), reload.end());
  const std::vector<std::uint8_t> tail = concat_frames(queries, 10, 20);
  burst.insert(burst.end(), tail.begin(), tail.end());

  RawConn conn(d.socket);
  ASSERT_TRUE(conn.ok());
  conn.send(burst);
  const Replies r = read_replies(conn, 21);
  EXPECT_EQ(r.decisions, expected_decisions(d, queries));
  ASSERT_EQ(r.others.size(), 1u);
  ASSERT_EQ(r.others[0].type, FrameType::kReloadAck);
  ReloadReply ack;
  ASSERT_EQ(decode_reload_ack(r.other_frames[0].data() + kFrameHeaderSize,
                              r.other_frames[0].size() - kFrameHeaderSize,
                              &ack),
            FrameVerdict::kOk);
  EXPECT_TRUE(ack.ok) << ack.message;
  EXPECT_EQ(ack.controller_key, kKey);
  EXPECT_EQ(server.stats().reloads, 1u);
  server.stop();
}

TEST(ServeEndToEnd, OverloadedBurstAccountsForEveryQuery) {
  const TestDirs d = fresh_dirs("serve_burst_overload");
  Server::Options options = server_options(d);
  options.workers = 2;
  options.queue_depth = 4;
  Server server(options);
  server.start();
  const std::vector<QueryRequest> queries = varied_queries(64);
  auto expected = expected_decisions(d, queries);

  RawConn conn(d.socket);
  ASSERT_TRUE(conn.ok());
  conn.send(concat_frames(queries, 0, queries.size()));
  const Replies r = read_replies(conn, queries.size());
  // Every shed reply is the typed overload refusal...
  for (std::size_t i = 0; i < r.others.size(); ++i) {
    EXPECT_EQ(r.others[i].type, FrameType::kError);
    EXPECT_EQ(error_code_of(r.other_frames[i]), ErrorCode::kOverloaded);
  }
  // ...and every decision is one of the expected ones, each at most once.
  for (const auto& decision : r.decisions) {
    const auto it = std::find(expected.begin(), expected.end(), decision);
    ASSERT_NE(it, expected.end());
    expected.erase(it);
  }
  const ServeStats::Snapshot s = server.stats();
  EXPECT_EQ(r.decisions.size() + r.others.size(), queries.size());
  EXPECT_EQ(s.decisions, r.decisions.size());
  EXPECT_EQ(s.shed, r.others.size());
  EXPECT_EQ(s.decisions + s.shed, queries.size());
  EXPECT_GT(s.shed, 0u);
  EXPECT_LE(s.queue_peak, 4u);
  server.stop();
}

TEST(ServeEndToEnd, ClientThatStopsReadingCannotStallOtherClients) {
  const TestDirs d = fresh_dirs("serve_stalled_reader");
  Server::Options options = server_options(d);
  options.workers = 1;  // Its batches mix both clients' jobs.
  // Deep enough that nothing is shed: only the worker writes to the
  // stalled client, so a blocking write would stall every client.
  options.queue_depth = 4096;
  options.request_timeout_ms = 300;
  // The well-behaved client's queries wait behind the stalled client's
  // jobs, so under CPU load the measured inference cost could exceed the
  // budget left to them and turn the reply into a budget fallback. Pin the
  // assumed cost: the budget rung is not what this test is about.
  options.assume_infer_us = 1;
  Server server(options);
  server.start();

  // The stalled client pipelines queries and never reads a reply, so the
  // server's socket buffer towards it fills up. The server must drop it
  // after a request timeout; if it blocked instead, this client's own send
  // would hit its 5 s timeout.
  const int stalled = raw_connect(d.socket);
  ASSERT_GE(stalled, 0);
  const timeval send_timeout{5, 0};
  ::setsockopt(stalled, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  const std::vector<std::uint8_t> frame = query_frame(valid_query());
  std::atomic<std::size_t> stalled_sent{0};
  std::atomic<int> stalled_errno{0};
  std::thread stalled_thread([&] {
    for (std::size_t i = 0; i < 100000; ++i) {
      if (::send(stalled, frame.data(), frame.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(frame.size())) {
        stalled_errno.store(errno);
        return;
      }
      stalled_sent.fetch_add(1);
    }
  });
  while (stalled_sent.load() < 2000 && stalled_errno.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Meanwhile a well-behaved client gets every decision, byte-identical.
  DecisionEngine engine({d.cache, 0});
  engine.load_all();
  const std::vector<QueryRequest> queries = varied_queries(20);
  ServeClient client(client_options(d, 4));
  const auto start = std::chrono::steady_clock::now();
  for (const QueryRequest& q : queries) {
    DecisionReply reply;
    ASSERT_EQ(client.query(q, &reply), ServeClient::Result::kOk)
        << client.last_error().message;
    EXPECT_EQ(encode_decision(reply),
              encode_decision(engine.decide(q, ~std::uint64_t{0}).reply));
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(4));

  stalled_thread.join();
  ::close(stalled);
  // The stalled client was disconnected, not left blocking its own sends.
  EXPECT_TRUE(stalled_errno.load() == EPIPE ||
              stalled_errno.load() == ECONNRESET)
      << "stalled client's send ended with errno " << stalled_errno.load()
      << " after " << stalled_sent.load() << " frames";
  server.stop();
}

TEST(ServeEndToEnd, TracedQueryInsideABatchNestsInTheClientSpan) {
  const TestDirs d = fresh_dirs("serve_burst_traced");
  Server::Options options = server_options(d);
  options.workers = 1;  // One worker takes the burst in batches of 16.
  options.queue_depth = 64;
  options.trace_path = d.root + "/server_trace.json";
  solsched::obs::set_enabled(true);
  solsched::obs::set_trace_events_enabled(true);

  const std::uint64_t trace_id = derive_trace_id(11, 5);
  std::vector<QueryRequest> queries = varied_queries(32);
  queries[5].trace.trace_id = trace_id;
  {
    Server server(options);
    server.start();
    RawConn conn(d.socket);
    ASSERT_TRUE(conn.ok());
    // The test plays the client: its request span covers the whole burst.
    const std::uint64_t start = solsched::obs::wall_us();
    conn.send(concat_frames(queries, 0, queries.size()));
    const Replies r = read_replies(conn, queries.size());
    const std::uint64_t end = solsched::obs::wall_us();
    solsched::obs::record_span_event("serve.client.request", start,
                                     end - start, trace_id);
    solsched::obs::record_flow_event("serve.request", trace_id,
                                     /*start=*/true, start);
    EXPECT_TRUE(r.others.empty());
    EXPECT_EQ(r.decisions, expected_decisions(d, queries));
    server.stop();  // Flushes the dump.
  }
  solsched::obs::set_trace_events_enabled(false);
  solsched::obs::set_enabled(false);
  solsched::obs::clear_trace_events();

  const auto timeline =
      solsched::obs::analysis::load_timeline({options.trace_path});
  const auto breakdowns = solsched::obs::analysis::request_breakdowns(timeline);
  const solsched::obs::analysis::RequestBreakdown* b = nullptr;
  for (const auto& candidate : breakdowns)
    if (candidate.trace_id == trace_id) b = &candidate;
  ASSERT_NE(b, nullptr) << "trace id absent from the dump";
  // stage <= server <= client, with the same µs slack as the single-query
  // drill; the write stage ends when the batch's outbox is written.
  EXPECT_GT(b->stage_sum_us, 0u);
  EXPECT_LE(b->stage_sum_us, b->server_total_us + 50);
  EXPECT_LE(b->server_total_us, b->client_latency_us + 50);
  bool has_write = false;
  for (const auto& span : b->spans) has_write |= span.name == "serve.req.write";
  EXPECT_TRUE(has_write);
}

}  // namespace
}  // namespace solsched::serve
