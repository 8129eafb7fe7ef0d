#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/durable.hpp"

namespace solsched::serve {
namespace {

const std::vector<double>& latency_bounds_ms() {
  static const std::vector<double> bounds = {0.1, 0.5, 1, 5, 10, 50, 100, 500};
  return bounds;
}

/// Frames per read() and jobs per worker batch (serve.read_frames,
/// serve.batch_jobs): how much of the traffic the per-burst transport
/// actually coalesces. A read that completes no frame counts as 0.
const std::vector<double>& burst_bounds() {
  static const std::vector<double> bounds = {0, 1, 2, 4, 8, 16, 32, 64};
  return bounds;
}

/// Initial receive buffer of a connection; it grows to fit a larger frame.
constexpr std::size_t kReadBuffer = 64 * 1024;
/// Most jobs one worker takes from the queue at once.
constexpr std::size_t kMaxBatch = 16;

/// Waits until `fd` takes more bytes (or reports an error to the next
/// send()); false once the steady-clock `give_up_us` passes (0 = never).
bool wait_writable(int fd, std::uint64_t give_up_us) {
  for (;;) {
    int timeout_ms = -1;
    if (give_up_us > 0) {
      const std::uint64_t now = obs::now_us();
      if (now >= give_up_us) return false;
      timeout_ms = static_cast<int>(std::min<std::uint64_t>(
          (give_up_us - now + 999) / 1000, 1u << 30));
    }
    pollfd p{fd, POLLOUT, 0};
    const int ready = ::poll(&p, 1, timeout_ms);
    if (ready > 0) return true;
    if (ready < 0 && errno != EINTR) return false;
  }
}

/// Fixed-precision fraction for status.json (availability, burn rates).
void json_fraction(std::ostringstream& out, double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", x);
  out << buf;
}

/// Degradation-ladder rung label for a DecisionReply fallback code.
const char* rung_name(std::uint16_t fallback_code) {
  switch (fallback_code) {
    case kFallbackNone: return "hit";
    case kFallbackNoController: return "no_controller";
    case kFallbackCorruptController: return "corrupt";
    case kFallbackBudgetExhausted: return "budget";
    default: return "sched_fallback";  // sched::FallbackReason 1..4.
  }
}

}  // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      engine_(DecisionEngine::Options{options_.cache_dir,
                                      options_.assume_infer_us}) {
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  if (options_.workers == 0) options_.workers = 1;
  if (options_.slo.enabled())
    slo_ = std::make_unique<obs::SloEngine>(
        options_.slo, std::vector<std::uint64_t>(kLatencyBoundsUs.begin(),
                                                 kLatencyBoundsUs.end()));
  const std::size_t loaded = engine_.load_all();
  std::fprintf(stderr, "solsched-serve: %zu controller(s) loaded from %s\n",
               loaded, options_.cache_dir.c_str());

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("Server: socket path too long: " +
                             options_.socket_path);
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("Server: socket(): " +
                             std::string(std::strerror(errno)));
  // A kill -9'd predecessor leaves its socket file behind; rebinding the
  // same address must succeed, so the stale node is removed first.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Server: bind(" + options_.socket_path +
                             "): " + err);
  }
  if (::listen(listen_fd_, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    throw std::runtime_error("Server: listen(): " + err);
  }
}

Server::~Server() { stop(); }

void Server::start() {
  write_status("running");
  accept_thread_ = std::thread([this] { accept_main(); });
  dispatch_thread_ = std::thread([this] {
    // The worker pool: `workers` long-running loop bodies over the bounded
    // queue. ThreadPool::run blocks this dispatcher (a participant) until
    // every loop exits at shutdown.
    pool_ = std::make_unique<util::ThreadPool>(options_.workers);
    pool_->run(options_.workers, [this](std::size_t) { worker_main(); });
  });
  if (!options_.status_path.empty() && options_.status_interval_ms > 0)
    status_thread_ = std::thread([this] { status_main(); });
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  request_stop();

  // Close the listener to unblock accept(). exchange() claims the fd so
  // the accept loop can never see a half-closed descriptor.
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Unblock every connection reader.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& weak : conns_) {
      if (auto conn = weak.lock()) {
        conn->open.store(false, std::memory_order_release);
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& t : conn_threads_)
      if (t.joinable()) t.join();
    conn_threads_.clear();
  }

  // Wake the workers; they drain the queue with SERVE_SHUTTING_DOWN
  // replies and exit.
  queue_cv_.notify_all();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  pool_.reset();
  if (status_thread_.joinable()) status_thread_.join();

  ::unlink(options_.socket_path.c_str());
  // Final tick after the status thread is gone: the stopped snapshot and
  // the time-series tail both reflect the very last counters, and a traced
  // session's spans are flushed rather than lost with the process.
  observe_tick();
  if (!options_.trace_path.empty() && obs::trace_events_enabled())
    obs::write_chrome_trace(options_.trace_path);
  write_status("stopped");
}

void Server::accept_main() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener closed by stop().
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    conns_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn] { connection_main(conn); });
  }
}

void Server::connection_main(std::shared_ptr<Conn> conn) {
  std::vector<std::uint8_t> buf(kReadBuffer);
  std::size_t end = 0;  // Unparsed bytes are buf[0, end).
  std::vector<Job> burst;
  bool framing_lost = false;
  while (conn->open.load(std::memory_order_acquire) &&
         !stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::read(conn->fd, buf.data() + end, buf.size() - end);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    end += static_cast<std::size_t>(n);

    // Every complete frame of the burst, parsed in place.
    std::size_t begin = 0;
    std::size_t need = 0;  // Size of a frame whose payload is still missing.
    std::size_t frames = 0;
    while (end - begin >= kFrameHeaderSize) {
      FrameHeader fh;
      const FrameVerdict hv =
          decode_header(buf.data() + begin, end - begin, &fh);
      if (hv != FrameVerdict::kOk) {
        // Header-level garbage: the stream has lost framing, so answer the
        // queries read ahead of it, reply with the typed refusal and close
        // — resynchronizing random bytes is not possible, crashing on them
        // is not acceptable.
        enqueue_burst(conn, burst);
        {
          std::unique_lock<std::mutex> lock(conn->write_mutex);
          wait_drained(*conn, lock);
        }
        stats_.record_malformed();
        OBS_COUNTER_ADD("serve.malformed", 1);
        send_error(conn, ErrorCode::kMalformed,
                   std::string("bad frame header: ") + verdict_name(hv),
                   false);
        framing_lost = true;
        break;
      }
      const std::size_t size = kFrameHeaderSize + fh.payload_len;
      if (end - begin < size) {
        need = size;
        break;
      }
      handle_frame(conn, fh, buf.data() + begin + kFrameHeaderSize, burst);
      begin += size;
      ++frames;
    }
    if (framing_lost) break;
    OBS_HISTOGRAM_OBSERVE("serve.read_frames", burst_bounds(),
                          static_cast<double>(frames));
    enqueue_burst(conn, burst);

    // Keep the partial frame at the front, with room for all of it
    // (decode_header bounds a payload at kMaxPayload).
    if (begin > 0) {
      std::memmove(buf.data(), buf.data() + begin, end - begin);
      end -= begin;
    }
    if (need > buf.size()) buf.resize(need);
  }
  // Every query this connection got into the queue is answered before the
  // descriptor closes; closing under write_mutex means no worker can write
  // to a closed (or reused) descriptor.
  std::unique_lock<std::mutex> lock(conn->write_mutex);
  wait_drained(*conn, lock);
  conn->open.store(false, std::memory_order_release);
  ::close(conn->fd);
}

void Server::wait_drained(Conn& conn, std::unique_lock<std::mutex>& lock) {
  conn.drained.wait(lock, [&conn] {
    return conn.in_flight.load(std::memory_order_acquire) == 0;
  });
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn,
                          const FrameHeader& fh, const std::uint8_t* payload,
                          std::vector<Job>& burst) {
  if (fh.type == FrameType::kQuery) {
    // Timeline stamps only when the trace sink is armed — the clock reads
    // stay off the obs-off hot path.
    const bool timing = obs::trace_events_enabled();
    const std::uint64_t recv_wall = timing ? obs::wall_us() : 0;
    Job job;
    if (verify_payload(fh, payload, fh.payload_len) == FrameVerdict::kOk &&
        decode_query(payload, fh.payload_len, fh.version, &job.query) ==
            FrameVerdict::kOk) {
      job.conn = conn;
      job.recv_wall_us = recv_wall;
      job.decode_dur_us = timing ? obs::wall_us() - recv_wall : 0;
      job.enqueue_wall_us = job.recv_wall_us + job.decode_dur_us;
      burst.push_back(std::move(job));
      return;
    }
  }
  // Everything below the reader answers itself: the queries read ahead of
  // this frame enter the queue first, so frame order is kept.
  enqueue_burst(conn, burst);
  const FrameVerdict pv = verify_payload(fh, payload, fh.payload_len);
  if (pv != FrameVerdict::kOk) {
    // Framing is still aligned (the length was honored), so the
    // connection survives a corrupted payload.
    stats_.record_malformed();
    OBS_COUNTER_ADD("serve.malformed", 1);
    send_error(conn, ErrorCode::kMalformed,
               std::string("payload rejected: ") + verdict_name(pv), false);
    return;
  }
  switch (fh.type) {
    case FrameType::kPing:
      send_frame(conn, FrameType::kPong, {}, false);
      break;
    case FrameType::kShutdown:
      send_frame(conn, FrameType::kPong, {}, false);
      request_stop();
      break;
    case FrameType::kReload: {
      std::uint64_t key = 0;
      if (decode_reload(payload, fh.payload_len, &key) != FrameVerdict::kOk) {
        stats_.record_malformed();
        send_error(conn, ErrorCode::kMalformed, "bad reload payload", false);
        break;
      }
      ReloadReply ack;
      ack.controller_key = key;
      ack.ok = engine_.load_controller(key, &ack.message);
      if (ack.ok) {
        stats_.record_reload();
        OBS_COUNTER_ADD("serve.reloads", 1);
      }
      send_frame(conn, FrameType::kReloadAck, encode_reload_ack(ack), false);
      break;
    }
    case FrameType::kQuery:  // The hash held; the query grammar did not.
      stats_.record_malformed();
      OBS_COUNTER_ADD("serve.malformed", 1);
      send_error(conn, ErrorCode::kMalformed, "bad query payload", true);
      break;
    default:
      // Reply frames arriving at the server are a protocol violation.
      stats_.record_malformed();
      send_error(conn, ErrorCode::kMalformed, "unexpected frame type", false);
      break;
  }
}

void Server::enqueue_burst(const std::shared_ptr<Conn>& conn,
                           std::vector<Job>& burst) {
  if (burst.empty()) return;
  for (std::size_t i = 0; i < burst.size(); ++i) stats_.record_request();
  OBS_COUNTER_ADD("serve.requests", burst.size());
  const std::uint64_t now = obs::now_us();
  // The effective budget is the tighter of the client's deadline and the
  // server-side cap; 0 on both sides means unbounded.
  for (Job& job : burst) {
    std::uint64_t budget_ms = job.query.deadline_ms;
    if (options_.request_timeout_ms > 0 &&
        (budget_ms == 0 || options_.request_timeout_ms < budget_ms))
      budget_ms = options_.request_timeout_ms;
    job.enqueue_us = now;
    job.deadline_us = budget_ms > 0 ? now + budget_ms * 1000 : 0;
  }
  std::size_t accepted = 0;
  const bool stopping = stopping_.load(std::memory_order_acquire);
  if (!stopping) {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    // Backpressure: the queue is the only unbounded-growth risk on the
    // request path, so it never grows past its bound — the reader sheds
    // whatever does not fit.
    accepted = std::min(burst.size(), options_.queue_depth - queue_.size());
    for (std::size_t i = 0; i < accepted; ++i) {
      queue_.push_back(std::move(burst[i]));
      stats_.queue_enter();
    }
    conn->in_flight.fetch_add(accepted, std::memory_order_relaxed);
    OBS_GAUGE_SET("serve.queue_depth", queue_.size());
  }
  if (accepted == 1) {
    queue_cv_.notify_one();
  } else if (accepted > 1) {
    queue_cv_.notify_all();
  }
  // Refusals go out after the lock is released: a slow client's full
  // socket buffer must never hold up the workers' dequeue.
  for (std::size_t i = accepted; i < burst.size(); ++i) {
    if (stopping) {
      send_error(conn, ErrorCode::kShuttingDown, "daemon is draining", true);
    } else {
      stats_.record_shed();
      OBS_COUNTER_ADD("serve.shed", 1);
      send_error(conn, ErrorCode::kOverloaded, "request queue full", true);
    }
  }
  burst.clear();
}

void Server::worker_main() {
  std::vector<Job> batch;
  // Outboxes keep their buffers across batches; [0, used) hold this one.
  std::vector<Outbox> boxes;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // Stopping and drained.
      // An even share of the queue, so the other workers get theirs.
      const std::size_t share = std::min(
          kMaxBatch,
          (queue_.size() + options_.workers - 1) / options_.workers);
      for (std::size_t i = 0; i < share; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        stats_.queue_leave();
      }
    }
    OBS_HISTOGRAM_OBSERVE("serve.batch_jobs", burst_bounds(),
                          static_cast<double>(batch.size()));
    std::size_t used = 0;
    for (Job& job : batch) {
      std::size_t b = 0;
      while (b < used && boxes[b].conn != job.conn) ++b;
      if (b == used) {
        if (used == boxes.size()) boxes.emplace_back();
        boxes[used++].conn = job.conn;
      }
      Outbox& box = boxes[b];
      ++box.jobs;
      if (stopping_.load(std::memory_order_acquire)) {
        append_error(box.bytes, ErrorCode::kShuttingDown,
                     "daemon is draining", true);
        continue;
      }
      process_job(job, box);
    }
    batch.clear();
    flush_outboxes(boxes, used);
  }
}

void Server::flush_outboxes(std::vector<Outbox>& boxes, std::size_t used) {
  // Without blocking first: a client that has stopped reading must not
  // hold up the replies its batch-mates already have. Then, in batch
  // order, the boxes whose socket was full.
  for (const bool wait : {false, true})
    for (std::size_t b = 0; b < used; ++b)
      if (boxes[b].conn) flush_outbox(boxes[b], wait);
}

void Server::flush_outbox(Outbox& box, bool wait) {
  // Served latency (status.json, the SLO, serve.request_ms) ends as the
  // outbox goes to send(), so it covers the batch-mates decided after a
  // reply and any delay fault; it is booked before the bytes leave, so a
  // client holding its reply also finds it counted.
  if (!wait) {
    const std::uint64_t now = obs::now_us();
    for (const Decided& d : box.decided) {
      const std::uint64_t latency_us = now - d.enqueue_us;
      stats_.record_decision(latency_us, d.fallback_code);
      OBS_HISTOGRAM_OBSERVE("serve.request_ms", latency_bounds_ms(),
                            static_cast<double>(latency_us) / 1000.0);
    }
    box.decided.clear();
  }
  Conn& conn = *box.conn;
  {
    std::lock_guard<std::mutex> lock(conn.write_mutex);
    const bool written = write_locked(conn, box.bytes, wait);
    box.bytes.clear();
    if (!written) return;
    if (conn.in_flight.fetch_sub(box.jobs, std::memory_order_acq_rel) ==
        box.jobs)
      conn.drained.notify_all();
  }
  if (!box.traced.empty()) {
    const std::uint64_t write_end_wall = obs::wall_us();
    // All spans land on this worker thread's track with wall-clock
    // timestamps, so the client's request span (a different process,
    // same axis) encloses them once the two dumps are merged.
    for (const TracedReply& t : box.traced) {
      obs::record_span_event("serve.req", t.recv_wall_us,
                             write_end_wall - t.recv_wall_us, t.trace_id);
      obs::record_flow_event("serve.request", t.trace_id, /*start=*/false,
                             t.dequeue_wall_us);
      obs::record_span_event("serve.req.decode", t.recv_wall_us,
                             t.decode_dur_us, t.trace_id);
      obs::record_span_event("serve.req.queue_wait", t.enqueue_wall_us,
                             t.dequeue_wall_us - t.enqueue_wall_us,
                             t.trace_id);
      obs::record_span_event(t.stage, t.dequeue_wall_us,
                             t.stage_end_wall_us - t.dequeue_wall_us,
                             t.trace_id);
      if (t.encode_end_wall_us == 0) continue;
      obs::record_span_event("serve.req.encode", t.stage_end_wall_us,
                             t.encode_end_wall_us - t.stage_end_wall_us,
                             t.trace_id);
      obs::record_span_event("serve.req.write", t.encode_end_wall_us,
                             write_end_wall - t.encode_end_wall_us,
                             t.trace_id);
    }
    box.traced.clear();
  }
  box.conn.reset();
  box.jobs = 0;
}

void Server::process_job(Job& job, Outbox& box) {
  const std::uint64_t now = obs::now_us();
  // Traced requests book a wall-clock stage timeline: every clock read
  // below is gated on this so untraced traffic pays nothing extra.
  const bool traced =
      job.query.trace.active() && obs::trace_events_enabled();
  TracedReply stamps;
  if (traced) {
    stamps.trace_id = job.query.trace.trace_id;
    stamps.recv_wall_us = job.recv_wall_us;
    stamps.decode_dur_us = job.decode_dur_us;
    stamps.enqueue_wall_us = job.enqueue_wall_us;
    stamps.dequeue_wall_us = obs::wall_us();
  }
  // Deadline re-check when the job's turn comes: a request that died
  // waiting gets the typed timeout, never a late decision the node cannot
  // use.
  if (job.deadline_us > 0 && now >= job.deadline_us) {
    stats_.record_timeout();
    OBS_COUNTER_ADD("serve.timeouts", 1);
    append_error(box.bytes, ErrorCode::kTimeout, "deadline expired in queue",
                 true);
    if (traced) {
      // Even a timed-out request leaves its trace: the whole server-side
      // story was the queue wait.
      stamps.stage = "serve.req.timeout";
      stamps.stage_end_wall_us = stamps.dequeue_wall_us;
      box.traced.push_back(std::move(stamps));
    }
    return;
  }
  const std::uint64_t remaining_us =
      job.deadline_us > 0 ? job.deadline_us - now
                          : ~std::uint64_t{0};
  DecisionEngine::Outcome outcome;
  try {
    outcome = engine_.decide(job.query, remaining_us);
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = {ErrorCode::kInternal, e.what()};
  }
  const std::uint64_t engine_end_wall = traced ? obs::wall_us() : 0;
  if (!outcome.ok) {
    append_error(box.bytes, outcome.error.code, outcome.error.message, true);
    if (traced) {
      stamps.stage = "serve.req.engine.error";
      stamps.stage_end_wall_us = engine_end_wall;
      box.traced.push_back(std::move(stamps));
    }
    return;
  }
  box.decided.push_back({job.enqueue_us, outcome.reply.fallback_code});
  if (outcome.reply.used_fallback) OBS_COUNTER_ADD("serve.fallbacks", 1);
  // Per-rung counters name which step of the degradation ladder answered.
  switch (outcome.reply.fallback_code) {
    case kFallbackNone:
      OBS_COUNTER_ADD("serve.engine.hit", 1);
      break;
    case kFallbackNoController:
      OBS_COUNTER_ADD("serve.engine.no_controller", 1);
      break;
    case kFallbackCorruptController:
      OBS_COUNTER_ADD("serve.engine.corrupt", 1);
      break;
    case kFallbackBudgetExhausted:
      OBS_COUNTER_ADD("serve.engine.budget", 1);
      break;
    default:
      OBS_COUNTER_ADD("serve.engine.sched_fallback", 1);
      break;
  }
  OBS_COUNTER_ADD("serve.decisions", 1);
  const std::vector<std::uint8_t> reply_payload =
      encode_decision(outcome.reply);
  const std::uint64_t encode_end_wall = traced ? obs::wall_us() : 0;
  // Framing, the fault hook and the send all count as the write stage.
  append_frame(box.bytes, FrameType::kDecision, reply_payload, true);
  if (traced) {
    stamps.stage = std::string("serve.req.engine.") +
                   rung_name(outcome.reply.fallback_code);
    stamps.stage_end_wall_us = engine_end_wall;
    stamps.encode_end_wall_us = encode_end_wall;
    box.traced.push_back(std::move(stamps));
  }
}

void Server::append_frame(std::vector<std::uint8_t>& out, FrameType type,
                          const std::vector<std::uint8_t>& payload,
                          bool query_reply) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload);
  bool corrupt = false;
  if (query_reply && options_.faults.any()) {
    const std::uint64_t ordinal =
        fault_ordinal_.fetch_add(1, std::memory_order_relaxed);
    switch (options_.faults.decide(ordinal)) {
      case fault::ServeFault::kNone:
        break;
      case fault::ServeFault::kDrop:
        stats_.record_fault_injected();
        return;  // Swallow the reply; the client's retry machinery owns it.
      case fault::ServeFault::kDelay:
        stats_.record_fault_injected();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.faults.delay_ms));
        break;
      case fault::ServeFault::kCorrupt:
        stats_.record_fault_injected();
        corrupt = true;
        break;
    }
  }
  const std::size_t at = out.size();
  out.insert(out.end(), frame.begin(), frame.end());
  // Flip one byte past the header so the client's payload-hash check trips
  // (an empty payload corrupts the hash field itself).
  if (corrupt)
    out[at + (frame.size() > kFrameHeaderSize ? kFrameHeaderSize : 12)] ^=
        0xFF;
}

void Server::append_error(std::vector<std::uint8_t>& out, ErrorCode code,
                          const std::string& message, bool query_reply) {
  if (code != ErrorCode::kMalformed) {
    stats_.record_error();
    OBS_COUNTER_ADD("serve.errors", 1);
  }
  append_frame(out, FrameType::kError, encode_error({code, message}),
               query_reply);
}

void Server::send_frame(const std::shared_ptr<Conn>& conn, FrameType type,
                        const std::vector<std::uint8_t>& payload,
                        bool query_reply) {
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, type, payload, query_reply);
  write_to(*conn, bytes);
}

void Server::send_error(const std::shared_ptr<Conn>& conn, ErrorCode code,
                        const std::string& message, bool query_reply) {
  std::vector<std::uint8_t> bytes;
  append_error(bytes, code, message, query_reply);
  write_to(*conn, bytes);
}

bool Server::write_locked(Conn& conn, const std::vector<std::uint8_t>& bytes,
                          bool wait) {
  if (!conn.open.load(std::memory_order_acquire)) {
    conn.unsent.clear();
    return true;
  }
  // Bytes an earlier write left behind go out first, so frames never
  // interleave.
  if (!conn.unsent.empty())
    conn.unsent.insert(conn.unsent.end(), bytes.begin(), bytes.end());
  const std::vector<std::uint8_t>& out =
      conn.unsent.empty() ? bytes : conn.unsent;
  std::uint64_t give_up_us = 0;
  std::size_t sent = 0;
  while (sent < out.size()) {
    // MSG_NOSIGNAL so a vanished client cannot SIGPIPE the daemon.
    const ssize_t n = ::send(conn.fd, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wait) {
        if (&out == &conn.unsent)
          conn.unsent.erase(conn.unsent.begin(),
                            conn.unsent.begin() +
                                static_cast<std::ptrdiff_t>(sent));
        else
          conn.unsent.assign(out.begin() + static_cast<std::ptrdiff_t>(sent),
                             out.end());
        return false;
      }
      if (give_up_us == 0 && options_.request_timeout_ms > 0)
        give_up_us = obs::now_us() + options_.request_timeout_ms * 1000;
      if (wait_writable(conn.fd, give_up_us)) continue;
      // The client has not read for a whole request timeout. Shutting the
      // socket down also ends its reader with EOF.
      OBS_COUNTER_ADD("serve.write_timeouts", 1);
      ::shutdown(conn.fd, SHUT_RDWR);
    }
    conn.open.store(false, std::memory_order_release);
    break;
  }
  conn.unsent.clear();
  return true;
}

void Server::write_to(Conn& conn, const std::vector<std::uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  write_locked(conn, bytes, true);
}

std::string Server::status_json(const std::string& state) const {
  const ServeStats::Snapshot s = stats_.snapshot();
  std::ostringstream out;
  out << "{\n";
  out << "  \"status\": \"solsched-serve-v1\",\n";
  out << "  \"state\": \"" << state << "\",\n";
  out << "  \"wall_ms\": " << obs::wall_ms() << ",\n";
  out << "  \"heartbeat_ms\": " << options_.status_interval_ms << ",\n";
  out << "  \"pid\": " << ::getpid() << ",\n";
  out << "  \"socket\": \"" << obs::json_escape(options_.socket_path)
      << "\",\n";
  out << "  \"controllers\": " << engine_.controller_count() << ",\n";
  out << "  \"workers\": " << options_.workers << ",\n";
  out << "  \"queue_capacity\": " << options_.queue_depth << ",\n";
  out << "  \"queue_depth\": " << s.queue_depth << ",\n";
  out << "  \"queue_peak\": " << s.queue_peak << ",\n";
  out << "  \"requests\": " << s.requests << ",\n";
  out << "  \"decisions\": " << s.decisions << ",\n";
  out << "  \"fallbacks\": " << s.fallbacks << ",\n";
  out << "  \"fallback_no_controller\": " << s.fallback_no_controller
      << ",\n";
  out << "  \"fallback_corrupt\": " << s.fallback_corrupt << ",\n";
  out << "  \"fallback_budget\": " << s.fallback_budget << ",\n";
  out << "  \"fallback_sched\": " << s.fallback_sched << ",\n";
  out << "  \"malformed\": " << s.malformed << ",\n";
  out << "  \"shed\": " << s.shed << ",\n";
  out << "  \"timeouts\": " << s.timeouts << ",\n";
  out << "  \"errors\": " << s.errors << ",\n";
  out << "  \"reloads\": " << s.reloads << ",\n";
  out << "  \"faults_injected\": " << s.faults_injected << ",\n";
  out << "  \"latency_count\": " << s.latency_count << ",\n";
  out << "  \"latency_sum_us\": " << s.latency_sum_us << ",\n";
  out << "  \"p50_us\": " << s.p50_us << ",\n";
  out << "  \"p99_us\": " << s.p99_us << ",\n";
  // Lifetime availability: good verdicts over all verdicts. `errors`
  // already counts every refusal (shed and timeouts included — see
  // send_error), so the denominator is decisions + errors. An idle daemon
  // is fully available.
  const std::uint64_t verdicts = s.decisions + s.errors;
  const double availability =
      verdicts > 0
          ? static_cast<double>(s.decisions) / static_cast<double>(verdicts)
          : 1.0;
  out << "  \"availability\": ";
  json_fraction(out, availability);
  if (slo_) {
    const obs::SloEngine::Status slo = slo_->status();
    const obs::SloConfig& cfg = slo_->config();
    out << ",\n  \"slo\": {\n";
    out << "    \"target_availability\": ";
    json_fraction(out, cfg.target_availability);
    out << ",\n";
    out << "    \"target_p99_us\": " << cfg.target_p99_us << ",\n";
    out << "    \"fast_window_s\": " << cfg.fast_window_s << ",\n";
    out << "    \"slow_window_s\": " << cfg.slow_window_s << ",\n";
    out << "    \"burn_alert\": ";
    json_fraction(out, cfg.burn_alert);
    out << ",\n";
    out << "    \"availability_fast\": ";
    json_fraction(out, slo.availability_fast);
    out << ",\n";
    out << "    \"availability_slow\": ";
    json_fraction(out, slo.availability_slow);
    out << ",\n";
    out << "    \"burn_fast\": ";
    json_fraction(out, slo.burn_fast);
    out << ",\n";
    out << "    \"burn_slow\": ";
    json_fraction(out, slo.burn_slow);
    out << ",\n";
    out << "    \"p99_fast_us\": " << slo.p99_fast_us << ",\n";
    out << "    \"p99_slow_us\": " << slo.p99_slow_us << ",\n";
    out << "    \"alert_availability\": "
        << (slo.alert_availability ? "true" : "false") << ",\n";
    out << "    \"alert_p99\": " << (slo.alert_p99 ? "true" : "false")
        << ",\n";
    out << "    \"alert\": " << (slo.alerting() ? "true" : "false") << "\n";
    out << "  }";
  }
  out << "\n}\n";
  return out.str();
}

void Server::observe_tick() {
  if (slo_) {
    const ServeStats::Snapshot s = stats_.snapshot();
    obs::SloSample sample;
    sample.wall_ms = obs::wall_ms();
    // `errors` is the superset refusal counter (shed, timeouts, internal —
    // everything except malformed, which never reached a verdict).
    sample.bad = s.errors;
    sample.total = s.decisions + s.errors;
    sample.latency_buckets.assign(s.latency_buckets.begin(),
                                  s.latency_buckets.end());
    const obs::SloEngine::Status slo = slo_->observe(sample);
    OBS_GAUGE_SET("serve.slo.availability_fast", slo.availability_fast);
    OBS_GAUGE_SET("serve.slo.availability_slow", slo.availability_slow);
    OBS_GAUGE_SET("serve.slo.burn_fast", slo.burn_fast);
    OBS_GAUGE_SET("serve.slo.burn_slow", slo.burn_slow);
    OBS_GAUGE_SET("serve.slo.p99_fast_us", slo.p99_fast_us);
    if (slo.alerting()) OBS_COUNTER_ADD("serve.slo.alert_ticks", 1);
  }
  if (!options_.timeseries_path.empty() && obs::enabled()) {
    if (!tsdb_)
      tsdb_ = std::make_unique<obs::TimeseriesStore>(
          options_.timeseries_capacity);
    tsdb_->sample(obs::wall_ms(), obs::MetricsRegistry::global().snapshot());
    tsdb_->write_jsonl(options_.timeseries_path);
  }
}

void Server::write_status(const std::string& state) const {
  if (options_.status_path.empty()) return;
  // A status file is either the complete new snapshot or the previous one;
  // a failed attempt leaves no stale .tmp behind and never stops serving.
  try {
    util::write_atomic(options_.status_path, status_json(state));
  } catch (const util::IoError& e) {
    if (!status_warned_.exchange(true))
      std::fprintf(stderr,
                   "solsched-serve: writing status %s failed at %s: %s\n",
                   options_.status_path.c_str(), e.step().c_str(),
                   std::strerror(e.error_number()));
  }
}

void Server::status_main() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stop_requested_) {
    stop_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.status_interval_ms));
    if (stop_requested_) break;
    lock.unlock();
    observe_tick();
    write_status("running");
    lock.lock();
  }
}

}  // namespace solsched::serve
