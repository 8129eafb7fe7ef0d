// serve_hot and serve_mixed: an in-process serve::Server with default
// options (2 workers, queue depth 64) under load from this process. Each
// generator thread owns one raw AF_UNIX connection and pipelines query
// frames on it, up to kWindow in flight, reading replies as they come. The
// server's reader thread queues every frame it reads, so its queue holds
// what the generator keeps in flight. (ServeClient::query is one blocking
// round trip: with it, two connections never queue more than two queries.)
// Queries carry previous-period solar and capacitor voltages drawn by a
// seeded stream over real trace periods.
//
// serve_hot: one paper-shape controller (the offline_pipeline config) and
// every query on its key. Why: the queued queries share one controller,
// which is where per-key predict_batch coalescing would gain; in the
// capacity phase up to kWindow per connection wait in the server's queue at
// once (serve.queue_peak).
//
// serve_mixed: 16 controllers (4 task graphs x 4 training seeds); 90% of
// queries spread uniformly over them, 10% on a missing key (the LSA
// fallback rung), and one ServeClient::reload every 100 ms exercising the
// copy-on-write table swap. Why: the same serve and engine layers read
// differently, with writes beside reads, and a queue of the same depth
// spread over 17 keys leaves per-key batching little to coalesce; a
// batching change should leave it unchanged.
//
// Measured phase: 16,000 q/s open loop for half the run, in the wrk2 style:
// each connection sends every request when it is due, whether or not the
// earlier ones were answered, and a request's latency is measured from its
// due time, so a stall also charges the requests queued behind it. Then,
// for the rest of the run, each connection keeps kWindow queries in flight:
// the capacity is the rate at which the server drains a queue held that
// deep. Both phases are cut into one-second windows and report the median
// window, so that a host stall shorter than half a phase does not decide
// the run. Every reply's bytes are checked against DecisionEngine::decide
// on the same query.
//
// Why 16,000 q/s and p90: on a virtualized host, at a few thousand q/s the
// server threads sleep between requests and the latency is mostly vCPU
// wake-up, which flips between runs; and host stalls of a few ms land in
// the p99 of almost every run. p99 is reported per layer instead.
//
// Why a fixed depth for capacity rather than the highest open-loop rate
// that meets a latency limit: a search for that rate (raise the rate until
// the p90 or the achieved rate fails), made with a generator that kept one
// query per connection in flight, crossed its pass/fail line at a different
// rate on every run on a shared virtualized host.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/artifact_cache.hpp"
#include "campaign/spec.hpp"
#include "core/pipeline.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace solsched::perfbench {
namespace {

using serve::QueryRequest;

constexpr std::size_t kQueries = 4096;  ///< Query pool, walked cyclically.
constexpr double kReferenceQps = 16000.0;
/// Queries in flight per connection. Two connections keep at most 32 in
/// the server, half its queue bound (64), so no query is ever shed.
constexpr std::size_t kWindow = 16;
constexpr double kLateUs = 100.0;  ///< A send this late counts as late.
constexpr auto kReloadEvery = std::chrono::milliseconds(100);
/// The server answers or times out a query within its 1 s request budget;
/// a connection this long without a reply has failed.
constexpr auto kReplyTimeout = std::chrono::seconds(5);

std::uint64_t key_of(const std::string& workload, std::uint64_t seed) {
  const std::string text = "perfbench/" + workload + "/" + std::to_string(seed);
  return serve::payload_fnv1a(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
}

/// What set-up leaves behind: controllers in the cache, a running server,
/// the query pool and the reply each query must get.
struct Fleet {
  std::string cache_dir;
  std::string socket;
  std::vector<std::uint64_t> keys;
  std::vector<QueryRequest> queries;
  std::vector<std::vector<std::uint8_t>> frames;    ///< Encoded queries.
  std::vector<std::vector<std::uint8_t>> expected;  ///< Reply payloads.
  std::map<std::uint64_t, core::TrainedController> models;  ///< As cached.
  std::unique_ptr<serve::Server> server;
};

/// Trains the fleet's controllers (in parallel: each training is
/// deterministic at any thread count), stores them and starts the server.
void start_fleet(const RunOptions& opts, bool mixed, Fleet& fleet) {
  if (fleet.server) fleet.server->stop();
  fleet.server.reset();
  fleet.cache_dir = opts.work_dir + "/cache";
  fleet.socket = opts.work_dir + "/serve.sock";
  std::filesystem::remove_all(fleet.cache_dir);

  std::vector<std::pair<std::string, std::uint64_t>> specs;
  const std::vector<std::string> graphs =
      mixed ? std::vector<std::string>{"wam", "ecg", "shm", "rand1"}
            : std::vector<std::string>{"wam"};
  for (const std::string& graph : graphs)
    for (std::uint64_t s = 0; s < (mixed ? 4u : 1u); ++s)
      specs.emplace_back(graph, opts.seed + s);

  std::vector<core::TrainedController> trained(specs.size());
  util::parallel_for(specs.size(), [&](std::size_t i) {
    trained[i] = core::train_pipeline(
        campaign::CampaignSpec::workload_graph(specs[i].first),
        paper_trace(specs[i].second), paper_node(), paper_pipeline());
  });
  const campaign::ArtifactCache cache(fleet.cache_dir);
  fleet.keys.clear();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    fleet.keys.push_back(key_of(specs[i].first, specs[i].second));
    cache.store(fleet.keys.back(), trained[i]);
  }

  serve::Server::Options options;
  options.socket_path = fleet.socket;
  options.cache_dir = fleet.cache_dir;
  fleet.server = std::make_unique<serve::Server>(options);
  fleet.server->start();
}

/// The seeded query stream and, from a private engine over the same cache,
/// the reply payload every query must receive.
void build_queries(const RunOptions& opts, bool mixed, Fleet& fleet) {
  serve::DecisionEngine engine({fleet.cache_dir, 0});
  if (engine.load_all() != fleet.keys.size())
    throw std::runtime_error("serve: not every controller loaded");
  const campaign::ArtifactCache cache(fleet.cache_dir);
  fleet.models.clear();
  for (std::uint64_t key : fleet.keys)
    if (!cache.load(key, &fleet.models[key]))
      throw std::runtime_error("serve: controller unreadable from the cache");
  std::uint64_t missing = 0x404;
  while (fleet.models.count(missing)) ++missing;

  const solar::SolarTrace trace = paper_trace(opts.seed + 100);
  const solar::TimeGrid& grid = trace.grid();
  const nvp::NodeConfig node;
  util::Rng rng(opts.seed ^ 0x5E4E5EEDULL);
  fleet.queries.clear();
  fleet.frames.clear();
  fleet.expected.clear();
  for (std::size_t i = 0; i < kQueries; ++i) {
    QueryRequest q;
    if (mixed && rng.bernoulli(0.1)) {
      q.controller_key = missing;
    } else {
      q.controller_key = fleet.keys[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(fleet.keys.size()) - 1))];
    }
    const auto model = fleet.models.find(q.controller_key);
    const std::size_t n_caps = model == fleet.models.end()
                                   ? fleet.models.begin()->second.node.capacities_f.size()
                                   : model->second.node.capacities_f.size();
    const std::size_t flat = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<int>(grid.total_periods()) - 1));
    q.day = static_cast<std::uint32_t>(flat / grid.n_periods);
    q.period = static_cast<std::uint32_t>(flat % grid.n_periods);
    q.last_period_solar_w = trace.period_powers(
        (flat - 1) / grid.n_periods, (flat - 1) % grid.n_periods);
    for (std::size_t h = 0; h < n_caps; ++h)
      q.cap_voltages.push_back(rng.uniform(node.v_low, node.v_high));
    q.selected_cap = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<int>(n_caps) - 1));
    q.accumulated_dmr = rng.uniform(0.0, 0.5);
    const serve::DecisionEngine::Outcome out =
        engine.decide(q, std::numeric_limits<std::uint64_t>::max());
    if (!out.ok) throw std::runtime_error("serve: query refused: " + out.error.message);
    fleet.frames.push_back(
        serve::encode_frame(serve::FrameType::kQuery, serve::encode_query(q)));
    fleet.queries.push_back(std::move(q));
    fleet.expected.push_back(serve::encode_decision(out.reply));
  }
}

std::string expected_digest(const Fleet& fleet) {
  std::string bytes;
  for (const auto& reply : fleet.expected)
    bytes.append(reply.begin(), reply.end());
  return fnv1a_hex(bytes);
}

/// Outcome of one load phase, split into windows of about a second by each
/// request's due time (open loop) or answer time (closed loop).
struct Step {
  /// Latency from each request's due time, per window. Open loop only, so
  /// that the samples' memory does not grow with the closed-loop rate and
  /// show in peak RSS.
  std::vector<std::vector<double>> latency_us;
  std::vector<std::uint64_t> answered;  ///< Per window.
  double window_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;      ///< Refused, or lost with a connection.
  std::uint64_t mismatched = 0;  ///< Reply bytes differ from the engine's.
  std::uint64_t late = 0;
  double max_lag_us = 0.0;
  std::uint64_t reloads = 0;
  std::uint64_t reload_failures = 0;

  explicit Step(std::size_t windows = 0)
      : latency_us(windows), answered(windows, 0) {}

  /// Quantile q of the latency over the whole phase.
  double p(double q) const {
    std::vector<double> all;
    for (const auto& w : latency_us) all.insert(all.end(), w.begin(), w.end());
    return quantile(std::move(all), q);
  }
  /// Median over the windows of each window's latency quantile q. A host
  /// stall backs requests up for a while; unless that covers half the
  /// phase, it moves p() but not this.
  double window_p(double q) const {
    std::vector<double> per_window;
    for (const auto& w : latency_us)
      if (!w.empty()) per_window.push_back(quantile(w, q));
    return quantile(std::move(per_window), 0.5);
  }
  /// Median over the windows of the answers per second.
  double window_qps() const {
    std::vector<double> rates;
    for (std::uint64_t n : answered)
      rates.push_back(static_cast<double>(n) / window_s);
    return quantile(std::move(rates), 0.5);
  }
};

/// A raw connection to the server on which query frames are pipelined.
class Pipe {
 public:
  explicit Pipe(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("serve: socket path too long: " + socket_path);
    std::memcpy(addr.sun_path, socket_path.data(), socket_path.size());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("serve: socket() failed");
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("serve: cannot connect to " + socket_path);
    }
  }
  ~Pipe() { ::close(fd_); }

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  void send(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EINTR) {
        throw std::runtime_error("serve: send failed");
      }
    }
  }

  /// Waits up to `timeout` (zero: does not wait) for reply bytes and reads
  /// what has arrived. Returns false when nothing arrived.
  bool receive(Clock::duration timeout) {
    pollfd p{fd_, POLLIN, 0};
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
    const timespec wait{static_cast<time_t>(ns / 1000000000),
                        static_cast<long>(ns % 1000000000)};
    const int ready = ::ppoll(&p, 1, &wait, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("serve: poll failed");
    if (ready <= 0) return false;
    if (begin_ > 0) {  // Keep the unparsed tail at the front.
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    const ssize_t n = ::read(fd_, buf_.data() + end_, buf_.size() - end_);
    if (n < 0 && errno == EINTR) return false;
    if (n <= 0) throw std::runtime_error("serve: the server closed the connection");
    end_ += static_cast<std::size_t>(n);
    return true;
  }

  /// Takes the next complete frame from the bytes received; its payload
  /// stays valid until the next receive(). Throws on a frame that fails its
  /// header or payload check: the stream has lost its framing.
  bool next_frame(serve::FrameHeader* header, const std::uint8_t** payload) {
    const std::size_t have = end_ - begin_;
    if (have < serve::kFrameHeaderSize) return false;
    if (serve::decode_header(buf_.data() + begin_, have, header) !=
        serve::FrameVerdict::kOk)
      throw std::runtime_error("serve: bad reply frame header");
    const std::size_t size = serve::kFrameHeaderSize + header->payload_len;
    if (size > buf_.size()) throw std::runtime_error("serve: reply frame too large");
    if (have < size) return false;
    *payload = buf_.data() + begin_ + serve::kFrameHeaderSize;
    if (serve::verify_payload(*header, *payload, header->payload_len) !=
        serve::FrameVerdict::kOk)
      throw std::runtime_error("serve: reply payload fails its hash");
    begin_ += size;
    return true;
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(1 << 16);
  std::size_t begin_ = 0;  ///< Unparsed bytes are buf_[begin_, end_).
  std::size_t end_ = 0;
};

/// Passed as the rate, LoadGen::run keeps kWindow queries in flight per
/// connection instead of following a schedule.
constexpr double kClosedLoop = 0.0;

/// Load generator: one thread and one pipelined connection per thread, plus
/// a ServeClient for the reloads the calling thread sends while a phase
/// runs (serve_mixed).
class LoadGen {
 public:
  LoadGen(const Fleet& fleet, std::size_t threads, bool reload)
      : fleet_(&fleet), reload_(reload) {
    for (std::size_t i = 0; i < threads; ++i)
      pipes_.push_back(std::make_unique<Pipe>(fleet.socket));
    serve::ServeClient::Options options;
    options.socket_path = fleet.socket;
    control_ = std::make_unique<serve::ServeClient>(options);
  }

  /// Open loop: sends rate x seconds requests on a fixed schedule and
  /// returns when every one has been answered. kClosedLoop: keeps kWindow
  /// requests in flight per connection for `seconds`, then drains them.
  Step run(double rate, double seconds) {
    Schedule s;
    s.threads = pipes_.size();
    s.closed = rate == kClosedLoop;
    s.n = s.closed ? std::numeric_limits<std::uint64_t>::max()
                   : static_cast<std::uint64_t>(rate * seconds);
    s.interval_ns = s.closed ? 0.0 : 1e9 / rate;
    s.t0 = Clock::now() + std::chrono::milliseconds(1);
    s.stop = s.t0 + std::chrono::nanoseconds(
                        static_cast<std::int64_t>(1e9 * seconds));
    s.base = ordinal_;
    s.windows =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds)));
    s.window_ns = 1e9 * seconds / static_cast<double>(s.windows);

    std::vector<Step> parts(s.threads, Step(s.windows));
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t running = s.threads;
    std::vector<std::thread> pool;
    for (std::size_t j = 0; j < s.threads; ++j) {
      pool.emplace_back([&, j] {
        try {
          drive(j, s, parts[j]);
        } catch (...) {
          ++parts[j].failed;  // The rest of this connection's share is lost.
        }
        std::lock_guard<std::mutex> lock(mutex);
        --running;
        cv.notify_all();
      });
    }

    Step step(s.windows);
    step.window_s = s.window_ns / 1e9;
    {
      std::unique_lock<std::mutex> lock(mutex);
      while (!cv.wait_for(lock, kReloadEvery, [&] { return running == 0; })) {
        if (!reload_) continue;
        lock.unlock();
        serve::ReloadReply ack;
        const std::uint64_t key = fleet_->keys[reloads_++ % fleet_->keys.size()];
        ++step.reloads;
        if (control_->reload(key, &ack) != serve::ServeClient::Result::kOk ||
            !ack.ok)
          ++step.reload_failures;
        lock.lock();
      }
    }
    for (std::thread& t : pool) t.join();

    for (const Step& part : parts) {
      for (std::size_t w = 0; w < s.windows; ++w) {
        step.latency_us[w].insert(step.latency_us[w].end(),
                                  part.latency_us[w].begin(),
                                  part.latency_us[w].end());
        step.answered[w] += part.answered[w];
      }
      step.sent += part.sent;
      step.failed += part.failed;
      step.mismatched += part.mismatched;
      step.late += part.late;
      step.max_lag_us = std::max(step.max_lag_us, part.max_lag_us);
    }
    ordinal_ += s.closed ? step.sent : s.n;
    return step;
  }

  /// Of the ServeClient that sends the reloads; the pipelined connections
  /// never retry (a failed query fails the run).
  std::size_t retries() const { return control_->retries(); }
  std::size_t reconnects() const { return control_->reconnects(); }

 private:
  /// One phase's plan, shared read-only by the connection threads.
  struct Schedule {
    std::size_t threads = 1;
    bool closed = false;
    std::uint64_t n = 0;  ///< Requests in the phase (open loop).
    double interval_ns = 0.0;
    Clock::time_point t0, stop;
    std::uint64_t base = 0;  ///< Ordinal of the phase's first request.
    std::size_t windows = 1;
    double window_ns = 0.0;

    Clock::time_point due(std::uint64_t k) const {
      return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                      interval_ns * static_cast<double>(k)));
    }
    std::size_t window_of(Clock::time_point t) const {
      const double ns = std::chrono::duration<double, std::nano>(t - t0).count();
      return std::min(windows - 1,
                      static_cast<std::size_t>(std::max(0.0, ns / window_ns)));
    }
  };

  /// Connection j's share of the phase: requests j, j + threads, ... Sends
  /// every request that is due (open loop) or that the window has room for
  /// (closed loop), then waits for a reply or the next due time.
  void drive(std::size_t j, const Schedule& s, Step& part) {
    // Wake from ppoll on time rather than up to the default 50 µs late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Pipe& pipe = *pipes_[j];
    struct Pending {
      std::size_t query;
      Clock::time_point due;
    };
    std::deque<Pending> pending;
    std::vector<std::uint8_t> out;
    std::uint64_t k = j;  // Next ordinal this connection sends.
    std::this_thread::sleep_until(s.t0);
    for (;;) {
      Clock::time_point now = Clock::now();
      if (s.closed && now >= s.stop) k = s.n;  // Stop sending; drain.
      out.clear();
      while (k < s.n && pending.size() < kWindow) {
        const Clock::time_point due = s.closed ? now : s.due(k);
        if (due > now) break;
        const double lag_us =
            std::chrono::duration<double, std::micro>(now - due).count();
        part.max_lag_us = std::max(part.max_lag_us, lag_us);
        if (lag_us > kLateUs) ++part.late;
        const std::size_t q = (s.base + k) % fleet_->queries.size();
        out.insert(out.end(), fleet_->frames[q].begin(), fleet_->frames[q].end());
        pending.push_back({q, due});
        ++part.sent;
        k += s.threads;
      }
      if (!out.empty()) pipe.send(out);
      if (pending.empty() && k >= s.n) return;

      // Sleep until the next send is due or a reply arrives, and spin
      // through the last 100 µs so that sends leave on time.
      Clock::duration wait = kReplyTimeout;
      if (!s.closed && k < s.n && pending.size() < kWindow) {
        const Clock::duration until = s.due(k) - now;
        wait = until > std::chrono::microseconds(100)
                   ? until - std::chrono::microseconds(50)
                   : Clock::duration::zero();
      }
      const bool got = pipe.receive(wait);
      if (!got && wait == kReplyTimeout)
        throw std::runtime_error("serve: no reply within 5 s");
      now = Clock::now();
      serve::FrameHeader header;
      const std::uint8_t* payload = nullptr;
      while (pipe.next_frame(&header, &payload)) {
        if (pending.empty()) throw std::runtime_error("serve: unasked reply");
        if (header.type != serve::FrameType::kDecision) {
          ++part.failed;  // A typed refusal: shed, timed out or bad request.
          pending.pop_front();
          continue;
        }
        // Two workers answer one connection's queries, so replies can
        // overtake each other: a reply settles the oldest pending query
        // that expects exactly its bytes.
        auto it = std::find_if(pending.begin(), pending.end(),
                               [&](const Pending& p) {
                                 const auto& want = fleet_->expected[p.query];
                                 return want.size() == header.payload_len &&
                                        std::equal(want.begin(), want.end(),
                                                   payload);
                               });
        if (it == pending.end()) {
          ++part.mismatched;
          it = pending.begin();
        }
        if (!s.closed)
          part.latency_us[s.window_of(it->due)].push_back(
              std::chrono::duration<double, std::micro>(now - it->due).count());
        if (!s.closed || now < s.stop)
          ++part.answered[s.window_of(s.closed ? now : it->due)];
        pending.erase(it);
      }
      if (!got && wait == Clock::duration::zero()) std::this_thread::yield();
    }
  }

  const Fleet* fleet_;
  bool reload_;
  std::vector<std::unique_ptr<Pipe>> pipes_;
  std::unique_ptr<serve::ServeClient> control_;
  std::uint64_t ordinal_ = 0;
  std::size_t reloads_ = 0;
};

void account(const Step& step, WorkloadResult& r) {
  r.attempted += step.sent + step.reloads;
  r.failed += step.failed + step.mismatched + step.reload_failures;
  if (step.mismatched > 0)
    r.failed_checks.push_back("reply_bytes: " + std::to_string(step.mismatched) +
                              " replies differ from DecisionEngine::decide");
  if (step.failed + step.reload_failures > 0)
    r.failed_checks.push_back("serve_requests: " +
                              std::to_string(step.failed + step.reload_failures) +
                              " refused or lost");
}

std::size_t generator_threads(const RunOptions& opts) {
  return std::min<std::size_t>(2, opts.nproc);
}

WorkloadResult measure(const RunOptions& opts, bool mixed) {
  WorkloadResult r;
  Fleet fleet;
  const double setup_s =
      median_setup_s(opts, [&] { start_fleet(opts, mixed, fleet); });
  build_queries(opts, mixed, fleet);
  r.digest = expected_digest(fleet);

  reset_peak_rss();
  LoadGen gen(fleet, generator_threads(opts), mixed);
  account(gen.run(kReferenceQps, 0.05 * opts.seconds), r);  // Warm-up.
  const Step fixed = gen.run(kReferenceQps, 0.5 * opts.seconds);
  account(fixed, r);
  const std::uint64_t fixed_queue_peak = fleet.server->stats().queue_peak;
  const Step closed = gen.run(kClosedLoop, 0.45 * opts.seconds);
  account(closed, r);
  const std::uint64_t queue_peak = fleet.server->stats().queue_peak;
  fleet.server->stop();

  r.metric("setup_s", setup_s);
  r.metric("throughput", closed.window_qps());
  r.metric("latency_p50_ms", fixed.window_p(0.5) / 1e3);
  r.metric("latency_p90_ms", fixed.window_p(0.9) / 1e3);
  r.metric("peak_rss_mb", peak_rss_mb());
  r.generator_threads = generator_threads(opts);
  r.note("fixed_rate_windows", static_cast<double>(fixed.latency_us.size()));
  r.note("fixed_rate_samples", static_cast<double>(fixed.sent));
  r.note("fixed_rate_p50_us", fixed.p(0.5));
  r.note("fixed_rate_p90_us", fixed.p(0.9));
  r.note("fixed_rate_p99_us", fixed.p(0.99));
  r.note("fixed_rate_late_ratio",
         static_cast<double>(fixed.late) / static_cast<double>(fixed.sent));
  r.note("fixed_rate_queue_peak", static_cast<double>(fixed_queue_peak));
  r.note("capacity_windows", static_cast<double>(closed.answered.size()));
  r.note("capacity_sent", static_cast<double>(closed.sent));
  r.note("capacity_queue_peak", static_cast<double>(queue_peak));
  return r;
}

/// Layer counters of the in-process replay besides its spans.
struct ReplayCounts {
  double queries = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double loads = 0.0;
};

/// Per-query buffers of the replay, kept across rounds so that allocating
/// and freeing them stays out of the unspanned gaps.
struct ReplayBuffers {
  explicit ReplayBuffers(std::size_t n)
      : frames(n), replies(n), decoded(n), answers(n) {}
  std::vector<std::vector<std::uint8_t>> frames, replies;
  std::vector<QueryRequest> decoded;
  std::vector<serve::DecisionReply> answers;  ///< Decoded replies.
};

/// One pass of the query pool through the public serve functions, in the
/// order a request meets them, plus DBN inference alone (per query and in
/// batches of 8 per controller) and one controller load. Returns false when
/// a frame failed to round-trip or the load failed.
bool replay_round(const Fleet& fleet, serve::DecisionEngine& engine,
                  const std::map<std::uint64_t, std::vector<ann::Vector>>& inputs,
                  ReplayBuffers& buf, ReplayCounts* counts) {
  const std::size_t n = fleet.queries.size();
  auto& [frames, replies, decoded, answers] = buf;

  std::uint64_t t = obs::now_us();
  for (std::size_t i = 0; i < n; ++i)
    frames[i] = serve::encode_frame(serve::FrameType::kQuery,
                                    serve::encode_query(fleet.queries[i]));
  end_span("serve.protocol.client_codec", t);

  t = obs::now_us();
  bool frames_ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    serve::FrameHeader header;
    const std::uint8_t* payload = frames[i].data() + serve::kFrameHeaderSize;
    const std::size_t size = frames[i].size() - serve::kFrameHeaderSize;
    frames_ok &= serve::decode_header(frames[i].data(), frames[i].size(),
                                      &header) == serve::FrameVerdict::kOk &&
                 serve::verify_payload(header, payload, size) ==
                     serve::FrameVerdict::kOk &&
                 serve::decode_query(payload, size, header.version,
                                     &decoded[i]) == serve::FrameVerdict::kOk;
  }
  end_span("serve.protocol.server_codec", t);

  // Hits (the DBN rung) and misses (the LSA fallback rung) in two passes,
  // one span each: per-query spans would overflow the trace buffer.
  for (const bool hits : {true, false}) {
    t = obs::now_us();
    for (std::size_t i = 0; i < n; ++i) {
      if (engine.has_controller(decoded[i].controller_key) != hits) continue;
      answers[i] =
          engine.decide(decoded[i], std::numeric_limits<std::uint64_t>::max())
              .reply;
      (hits ? counts->hits : counts->misses) += 1.0;
    }
    end_span(hits ? "serve.engine.decide.dbn" : "serve.engine.decide.fallback",
             t);
  }

  t = obs::now_us();
  for (std::size_t i = 0; i < n; ++i)
    replies[i] = serve::encode_frame(serve::FrameType::kDecision,
                                     serve::encode_decision(answers[i]));
  end_span("serve.protocol.server_codec", t);

  t = obs::now_us();
  for (std::size_t i = 0; i < n; ++i) {
    serve::FrameHeader header;
    const std::uint8_t* payload = replies[i].data() + serve::kFrameHeaderSize;
    const std::size_t size = replies[i].size() - serve::kFrameHeaderSize;
    frames_ok &= serve::decode_header(replies[i].data(), replies[i].size(),
                                      &header) == serve::FrameVerdict::kOk &&
                 serve::decode_decision(payload, size, &answers[i]) ==
                     serve::FrameVerdict::kOk;
  }
  end_span("serve.protocol.client_codec", t);

  t = obs::now_us();
  for (const auto& [key, xs] : inputs) {
    const ann::Dbn& dbn = *fleet.models.at(key).model.dbn;
    for (const ann::Vector& x : xs) (void)dbn.predict(x);
  }
  end_span("ann.dbn.predict", t);
  t = obs::now_us();
  for (const auto& [key, xs] : inputs) {
    const ann::Dbn& dbn = *fleet.models.at(key).model.dbn;
    for (std::size_t i = 0; i < xs.size(); i += 8)
      (void)dbn.predict_batch(std::vector<ann::Vector>(
          xs.begin() + static_cast<std::ptrdiff_t>(i),
          xs.begin() + static_cast<std::ptrdiff_t>(std::min(i + 8, xs.size()))));
  }
  end_span("ann.dbn.predict_batch8", t);

  const std::uint64_t key =
      fleet.keys[static_cast<std::size_t>(counts->loads) % fleet.keys.size()];
  t = obs::now_us();
  frames_ok &= engine.load_controller(key, nullptr);
  end_span("serve.engine.load_controller", t);
  counts->loads += 1.0;
  counts->queries += static_cast<double>(n);
  return frames_ok;
}

/// The DBN inputs the engine builds for every hit query, per controller.
std::map<std::uint64_t, std::vector<ann::Vector>> dbn_inputs(
    const Fleet& fleet) {
  std::map<std::uint64_t, std::vector<ann::Vector>> inputs;
  for (const QueryRequest& q : fleet.queries) {
    const auto it = fleet.models.find(q.controller_key);
    if (it == fleet.models.end()) continue;
    const core::TrainedController& tc = it->second;
    storage::CapacitorBank bank = tc.node.make_bank();
    for (std::size_t h = 0; h < q.cap_voltages.size(); ++h)
      bank.at(h).set_voltage(q.cap_voltages[h]);
    nvp::PeriodContext ctx;
    ctx.bank = &bank;
    ctx.accumulated_dmr = q.accumulated_dmr;
    ctx.last_period_solar_w = q.last_period_solar_w;
    inputs[q.controller_key].push_back(tc.model.input_norm.transform(
        sched::ProposedScheduler::build_input(ctx, tc.model.n_slots)));
  }
  return inputs;
}

WorkloadResult traced(const RunOptions& opts, bool mixed) {
  WorkloadResult r;
  Fleet fleet;
  start_fleet(opts, mixed, fleet);
  build_queries(opts, mixed, fleet);
  r.digest = expected_digest(fleet);

  serve::DecisionEngine engine({fleet.cache_dir, 0});
  engine.load_all();
  const auto inputs = dbn_inputs(fleet);

  // In-process replay: untraced and traced rounds alternate.
  ReplayCounts plain_counts, counts;
  ReplayBuffers buf(fleet.queries.size());
  std::vector<double> plain_ms, traced_ms;
  SpanTrace spans(opts.trace_path);
  const auto start = Clock::now();
  while (traced_ms.empty() ||
         seconds_between(start, Clock::now()) < 0.5 * opts.seconds) {
    for (const bool with_spans : {false, true}) {
      spans.record(with_spans);
      const auto t0 = Clock::now();
      const bool ok = replay_round(fleet, engine, inputs, buf,
                                   with_spans ? &counts : &plain_counts);
      (with_spans ? traced_ms : plain_ms).push_back(ms_between(t0, Clock::now()));
      r.attempted += fleet.queries.size();
      std::size_t wrong = 0;
      for (std::size_t i = 0; i < buf.answers.size(); ++i)
        wrong += serve::encode_decision(buf.answers[i]) != fleet.expected[i];
      r.check(ok, "replay_codec", "a frame or a controller load failed");
      r.check(wrong == 0, "replay_reply_bytes",
              std::to_string(wrong) + " replies differ from DecisionEngine::decide");
    }
  }
  double wall_us = 0.0;
  for (double ms : traced_ms) wall_us += 1e3 * ms;
  const obs::analysis::SpanProfile profile = spans.finish();

  // Against the real server: the reference rate, for the round trip and
  // the generator's own health, then the capacity phase, whose queue is the
  // deepest; the request-path counters cover both.
  const serve::ServeStats::Snapshot before = fleet.server->stats();
  LoadGen gen(fleet, generator_threads(opts), mixed);
  const Step step = gen.run(kReferenceQps, 0.25 * opts.seconds);
  account(step, r);
  const std::uint64_t fixed_queue_peak = fleet.server->stats().queue_peak;
  account(gen.run(kClosedLoop, 0.25 * opts.seconds), r);
  const serve::ServeStats::Snapshot after = fleet.server->stats();
  fleet.server->stop();

  const auto per = [&](const std::string& name, double n) {
    return n > 0 ? self_us(profile, name) / n : 0.0;
  };
  const double client_codec = per("serve.protocol.client_codec", counts.queries);
  const double server_codec = per("serve.protocol.server_codec", counts.queries);
  const double decide =
      (self_us(profile, "serve.engine.decide.dbn") +
       self_us(profile, "serve.engine.decide.fallback")) / counts.queries;
  const double coverage = static_cast<double>(profile.accounted_us) / wall_us;
  r.check(coverage >= 0.95, "trace_coverage",
          std::to_string(coverage) + " < 0.95");
  const double decisions = static_cast<double>(after.decisions - before.decisions);
  r.metric("serve.protocol.client_codec.us", client_codec);
  r.metric("serve.protocol.server_codec.us", server_codec);
  r.metric("serve.engine.decide.dbn.us", per("serve.engine.decide.dbn", counts.hits));
  r.metric("serve.engine.decide.fallback.us",
           per("serve.engine.decide.fallback", counts.misses));
  r.metric("ann.dbn.predict.us", per("ann.dbn.predict", counts.hits));
  r.metric("ann.dbn.predict_batch8.us_per_query",
           per("ann.dbn.predict_batch8", counts.hits));
  r.metric("serve.transport.us",
           step.p(0.5) - client_codec - server_codec - decide);
  r.metric("serve.engine.load_controller.ms",
           per("serve.engine.load_controller", counts.loads) / 1e3);
  r.metric("serve.reloads", static_cast<double>(after.reloads - before.reloads));
  r.metric("serve.queue_peak", static_cast<double>(after.queue_peak));
  r.metric("serve.shed", static_cast<double>(after.shed - before.shed));
  r.metric("serve.timeouts", static_cast<double>(after.timeouts - before.timeouts));
  r.metric("serve.fallback_ratio",
           static_cast<double>(after.fallbacks - before.fallbacks) /
               std::max(1.0, decisions));
  r.metric("serve.client.retries", static_cast<double>(gen.retries()));
  r.metric("serve.client.reconnects", static_cast<double>(gen.reconnects()));
  r.metric("serve.gen.late_ratio",
           static_cast<double>(step.late) / static_cast<double>(step.sent));
  r.metric("serve.gen.max_lag_us", step.max_lag_us);
  r.metric("serve.latency_p99_us", step.p(0.99));
  r.metric("core.other.ms",
           (wall_us - static_cast<double>(profile.accounted_us)) /
               counts.queries / 1e3);
  r.metric("trace.coverage", coverage);
  std::vector<double> overhead;  // Rounds are paired: untraced, then traced.
  for (std::size_t i = 0; i < traced_ms.size(); ++i)
    overhead.push_back(traced_ms[i] / plain_ms[i] - 1.0);
  r.metric("trace.overhead_ratio", quantile(overhead, 0.5));
  r.note("replay_rounds", static_cast<double>(traced_ms.size()));
  r.note("fixed_rate_queue_peak", static_cast<double>(fixed_queue_peak));
  r.generator_threads = generator_threads(opts);
  return r;
}

}  // namespace

WorkloadResult run_serve(const RunOptions& opts, bool mixed) {
  return opts.trace ? traced(opts, mixed) : measure(opts, mixed);
}

}  // namespace solsched::perfbench
