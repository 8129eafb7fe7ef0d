// The solsched-serve daemon core: socket accept loop, bounded request
// queue, worker pool, backpressure, timeouts and the status file.
//
// Threading model (DESIGN.md §16):
//  * one accept thread, one connection-reader thread per client;
//  * the reader is buffered: one read() takes every pipelined byte that has
//    arrived, and every complete frame in it is parsed in place. The
//    burst's queries enter the bounded FIFO under one lock with one
//    notify; queries the queue has no room for are shed with a typed
//    SERVE_OVERLOADED reply, sent after the lock is released (backpressure
//    is explicit, memory stays bounded, a slow client never stalls the
//    queue). A frame the reader answers itself (ping, reload, shutdown, a
//    malformed frame) first enqueues the queries read ahead of it;
//  * a util::ThreadPool of decision workers, each dequeuing a batch of up
//    to ⌈queued / workers⌉ jobs (at most 16) under one lock. A worker
//    re-checks each job's deadline when its turn comes (a request that
//    died waiting gets SERVE_TIMEOUT, not a late decision) and passes the
//    remaining budget to the engine, which degrades to the LSA fallback
//    when inference cannot fit. Replies collect in one outbox per
//    connection, and each outbox is written with one send() per batch:
//    first without blocking, then — for the connections whose socket was
//    full — waiting for room, so a client that has stopped reading cannot
//    hold up its batch-mates' replies. Every write waits for room at most
//    request_timeout_ms (0 = for ever); a client that has not read by then
//    is disconnected;
//  * a connection closes only after every query it got into the queue has
//    been answered;
//  * one status thread rewrites status.json (util::write_atomic, never
//    torn) on a fixed cadence and a final "stopped" snapshot on shutdown.
//
// Every reply to a query passes the optional ServeFaultPlan hook
// (drop/delay/corrupt), which the adversarial client tests drive. A delay
// fault sleeps in the worker before the outbox is written, so it holds
// back the whole batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/serve_faults.hpp"
#include "obs/slo.hpp"
#include "obs/tsdb.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_stats.hpp"
#include "util/thread_pool.hpp"

namespace solsched::serve {

class Server {
 public:
  struct Options {
    std::string socket_path;   ///< AF_UNIX listening address.
    std::string cache_dir;     ///< Campaign ArtifactCache with controllers.
    std::string status_path;   ///< status.json location; "" disables it.
    std::size_t workers = 2;   ///< Decision worker threads.
    std::size_t queue_depth = 64;  ///< Bounded queue capacity (>= 1).
    /// Server-side cap on any request's budget (ms); the effective deadline
    /// is the tighter of this and the request's own deadline_ms. Also the
    /// longest a reply write waits for a client to make room in its socket
    /// before the connection is dropped. 0 = none.
    std::uint64_t request_timeout_ms = 1000;
    /// status.json cadence, written into the file as heartbeat_ms (the
    /// reader's staleness window). 0 = status only at start and stop.
    std::uint64_t status_interval_ms = 500;
    std::uint64_t assume_infer_us = 0;       ///< Engine budget override.
    fault::ServeFaultPlan faults{};          ///< Reply-path fault hook.
    /// Chrome trace dump written on graceful stop (when the sink is
    /// armed); "" disables the flush.
    std::string trace_path;
    /// timeseries.jsonl location; "" disables the store. Sampling rides
    /// the status cadence and is additionally gated on obs::enabled(), so
    /// an obs-off run never allocates the ring.
    std::string timeseries_path;
    std::size_t timeseries_capacity = 720;  ///< Points retained (ring).
    /// SLO targets; default-constructed = SLO evaluation off.
    obs::SloConfig slo{};
  };

  /// Loads every cached controller, binds and listens. Stale socket files
  /// from a killed predecessor are unlinked before bind — a kill -9 must
  /// not brick the address. Throws std::runtime_error on socket failure.
  explicit Server(Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the accept, worker and status threads. Call once.
  void start();

  /// Graceful stop: closes the listener, drains readers, answers queued
  /// requests with SERVE_SHUTTING_DOWN, joins every thread and writes the
  /// final "stopped" status. Idempotent.
  void stop();

  /// Blocks until a client kShutdown frame (or request_stop()) arrives.
  void wait();

  /// Arms the same latch wait() watches; safe from any thread.
  void request_stop();

  /// True once a kShutdown frame or request_stop() armed the latch
  /// (pollable alternative to wait() for signal-driven main loops).
  bool stop_requested() const {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    return stop_requested_;
  }

  DecisionEngine& engine() noexcept { return engine_; }
  ServeStats::Snapshot stats() const { return stats_.snapshot(); }
  const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }

  /// The status.json bytes for the given lifecycle state.
  std::string status_json(const std::string& state) const;

 private:
  struct Conn {
    int fd = -1;
    std::mutex write_mutex;
    std::atomic<bool> open{true};
    /// Queries in the queue or in a worker's batch, not yet written back.
    /// Raised under queue_mutex_, lowered under write_mutex; `drained` is
    /// signalled (under write_mutex) when it reaches 0.
    std::atomic<std::size_t> in_flight{0};
    std::condition_variable drained;
    /// Reply bytes a non-blocking write could not place yet; every later
    /// write sends them first (guarded by write_mutex).
    std::vector<std::uint8_t> unsent;
  };
  struct Job {
    std::shared_ptr<Conn> conn;
    QueryRequest query;
    std::uint64_t enqueue_us = 0;
    std::uint64_t deadline_us = 0;  ///< Absolute steady µs; 0 = unbounded.
    /// Wall-clock request timeline (0 unless the trace sink is armed):
    /// frame fully read at recv_wall_us, decode took decode_dur_us, the
    /// job entered the queue at enqueue_wall_us.
    std::uint64_t recv_wall_us = 0;
    std::uint64_t decode_dur_us = 0;
    std::uint64_t enqueue_wall_us = 0;
  };
  /// A traced reply's stage stamps, booked as spans once its outbox is
  /// written (the write stage ends there).
  struct TracedReply {
    std::uint64_t trace_id = 0;
    std::uint64_t recv_wall_us = 0;
    std::uint64_t decode_dur_us = 0;
    std::uint64_t enqueue_wall_us = 0;
    std::uint64_t dequeue_wall_us = 0;
    std::string stage;  ///< "serve.req.engine.<rung>", ".error", ".timeout".
    std::uint64_t stage_end_wall_us = 0;
    /// End of encoding; 0 for refusals, which book no encode/write stage.
    std::uint64_t encode_end_wall_us = 0;
  };
  /// A decision in an outbox, recorded in ServeStats when the outbox is
  /// written.
  struct Decided {
    std::uint64_t enqueue_us = 0;
    std::uint16_t fallback_code = 0;
  };
  /// One connection's replies from one worker batch.
  struct Outbox {
    std::shared_ptr<Conn> conn;  ///< Null once written.
    std::vector<std::uint8_t> bytes;
    std::size_t jobs = 0;  ///< Batch jobs answered here (dropped included).
    std::vector<Decided> decided;
    std::vector<TracedReply> traced;
  };

  void accept_main();
  void connection_main(std::shared_ptr<Conn> conn);
  void worker_main();
  void status_main();
  /// Reader side of one complete frame. Queries are decoded onto `burst`;
  /// any frame the reader answers itself enqueues `burst` first.
  void handle_frame(const std::shared_ptr<Conn>& conn, const FrameHeader& fh,
                    const std::uint8_t* payload, std::vector<Job>& burst);
  /// Enqueues a reader's burst under one lock with one notify; the queries
  /// the queue has no room for are shed after the lock is released.
  void enqueue_burst(const std::shared_ptr<Conn>& conn,
                     std::vector<Job>& burst);
  /// Answers one job onto its connection's outbox.
  void process_job(Job& job, Outbox& box);
  /// Writes the batch's outboxes: every one without blocking first, then
  /// the ones whose socket was full, waiting for room.
  void flush_outboxes(std::vector<Outbox>& boxes, std::size_t used);
  /// Writes one outbox with one send(). Done — its jobs released from the
  /// connection's in-flight count, its decisions recorded, its traced
  /// replies' spans booked and box.conn reset — unless `wait` is false and
  /// the socket could not take it all; the rest then waits in conn.unsent.
  void flush_outbox(Outbox& box, bool wait);

  /// One SLO + time-series sampling step (status thread; also once during
  /// stop() after that thread joined, so the final tick sees the last
  /// counters).
  void observe_tick();

  /// Encodes one frame onto `out`; query replies pass the fault hook first
  /// (a dropped reply appends nothing, a delayed one sleeps here).
  void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                    const std::vector<std::uint8_t>& payload,
                    bool query_reply);
  /// Encodes a typed refusal onto `out`, counting it as an error reply.
  void append_error(std::vector<std::uint8_t>& out, ErrorCode code,
                    const std::string& message, bool query_reply);
  /// Encodes and writes one frame straight from the reader.
  void send_frame(const std::shared_ptr<Conn>& conn, FrameType type,
                  const std::vector<std::uint8_t>& payload,
                  bool query_reply);
  void send_error(const std::shared_ptr<Conn>& conn, ErrorCode code,
                  const std::string& message, bool query_reply);
  /// Writes conn.unsent, then `bytes`, to an open connection. Without
  /// `wait`, what the socket cannot take right now is kept in conn.unsent
  /// and false returned; with it, the write waits for room up to
  /// request_timeout_ms. A failed or timed-out write closes the connection
  /// for good. write_locked expects conn.write_mutex held, write_to takes
  /// it and waits.
  bool write_locked(Conn& conn, const std::vector<std::uint8_t>& bytes,
                    bool wait);
  void write_to(Conn& conn, const std::vector<std::uint8_t>& bytes);
  /// Blocks until every query of `conn` in the queue has been written
  /// back; `lock` holds conn.write_mutex.
  static void wait_drained(Conn& conn, std::unique_lock<std::mutex>& lock);

  void write_status(const std::string& state) const;

  Options options_;
  DecisionEngine engine_;
  ServeStats stats_;
  std::unique_ptr<obs::SloEngine> slo_;        ///< Null when SLO-free.
  std::unique_ptr<obs::TimeseriesStore> tsdb_; ///< Lazy; status thread only.

  // Atomic: stop() closes the listener from another thread while
  // accept_main() is reading it into accept().
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> fault_ordinal_{0};
  /// Set by the first failed status write, so the warning prints once.
  mutable std::atomic<bool> status_warned_{false};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;

  mutable std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;

  std::mutex conn_mutex_;
  std::vector<std::weak_ptr<Conn>> conns_;
  std::vector<std::thread> conn_threads_;

  std::thread accept_thread_;
  std::thread dispatch_thread_;  ///< Drives the worker pool's run().
  std::thread status_thread_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace solsched::serve
