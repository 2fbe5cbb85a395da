/**
 * @file
 * Background execution of asynchronous analysis jobs.
 *
 * Apophenia mines its task-history buffer asynchronously so that the
 * application is never stalled waiting for a string analysis (paper
 * section 4.3: "Asynchronous analysis of task histories is important to
 * avoid stalling the application"). In Legion these jobs run on the
 * runtime's background worker threads; here they run on a small worker
 * pool (PooledExecutor). An inline executor is provided for
 * deterministic testing.
 *
 * Completion is event-driven rather than polled: every job may carry a
 * completion callback. Where and when the callback runs is the
 * executor's defining property:
 *  - InlineExecutor: immediately after the job, on the calling thread.
 *  - PooledExecutor: never concurrently — callbacks are buffered and
 *    delivered in submission order on the owner's thread, at Pump()
 *    and Drain() points. After Drain() returns, every submitted job's
 *    callback has run: completion observation is deterministic at
 *    drain points even though execution is concurrent.
 */
#ifndef APOPHENIA_SUPPORT_EXECUTOR_H
#define APOPHENIA_SUPPORT_EXECUTOR_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace apo::support {

/** Abstract job executor. */
class Executor {
  public:
    virtual ~Executor() = default;

    /** Schedule `job` for execution. */
    virtual void Submit(std::function<void()> job) = 0;

    /** Schedule `job`; run `on_complete` once it has finished. See the
     * file comment for where each executor runs the callback. */
    virtual void Submit(std::function<void()> job,
                        std::function<void()> on_complete)
    {
        Submit([job = std::move(job),
                on_complete = std::move(on_complete)]() mutable {
            job();
            on_complete();
        });
    }

    /** Deliver any buffered completion callbacks (see PooledExecutor);
     * a no-op for executors that deliver completions eagerly. */
    virtual void Pump() {}

    /** Block until every submitted job has finished and, for deferred
     * executors, every completion callback has been delivered. */
    virtual void Drain() = 0;
};

/**
 * Runs each job synchronously at submission time. Deterministic; used
 * by unit tests and by the control-replication determinism checks.
 */
class InlineExecutor final : public Executor {
  public:
    using Executor::Submit;
    void Submit(std::function<void()> job) override { job(); }
    void Drain() override {}
};

/**
 * A fixed-size pool of background worker threads consuming a FIFO job
 * queue — Legion's background worker threads that Apophenia's
 * history-mining jobs execute on (paper section 6.3) — with
 * deterministic completion delivery. Jobs execute concurrently, but
 * completion callbacks are buffered and delivered on the owner's
 * thread, always in submission order: Pump() delivers callbacks for
 * the longest prefix of submitted jobs that have all finished;
 * Drain() waits for everything and then delivers every remaining
 * callback. Because callbacks never run concurrently with the owner,
 * owner-side completion bookkeeping needs no locking.
 */
class PooledExecutor final : public Executor {
  public:
    explicit PooledExecutor(std::size_t num_threads = 2);
    ~PooledExecutor() override;

    PooledExecutor(const PooledExecutor&) = delete;
    PooledExecutor& operator=(const PooledExecutor&) = delete;

    void Submit(std::function<void()> job) override;
    void Submit(std::function<void()> job,
                std::function<void()> on_complete) override;

    /** Deliver completion callbacks for the longest all-done prefix of
     * submitted jobs, in submission order, on this thread. */
    void Pump() override;

    /** Wait for all jobs, then deliver every pending callback (in
     * submission order, on this thread). */
    void Drain() override;

    std::size_t NumThreads() const { return threads_.size(); }

  private:
    /** One submitted job and its completion record. */
    struct Ticket {
        std::function<void()> job;
        std::function<void()> on_complete;
        bool done = false;
    };

    void WorkerLoop();
    /** Pop the longest done prefix under the lock; return callbacks. */
    std::vector<std::function<void()>> TakeReadyPrefix();

    std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable idle_;
    /** Every submitted ticket not yet delivered, in submission order.
     * Addresses are stable: tickets are popped only by the owner
     * thread, and only once a worker has marked them done (after the
     * worker's last access). */
    std::deque<Ticket> tickets_;
    std::deque<Ticket*> queue_;    ///< tickets no worker has started
    std::size_t unfinished_ = 0;   ///< submitted jobs not yet done
    bool shutting_down_ = false;
    std::vector<std::thread> threads_;
};

/**
 * A fixed team of threads for data-parallel index loops, built for the
 * cluster simulation's per-node stepping: the *same* body runs over a
 * dense index range, many times, with a full barrier after each range.
 *
 * Unlike PooledExecutor::Submit (std::function allocations + queue nodes
 * per job), the body is installed once and each Run() merely republishes
 * an index range to the persistent workers — Run() itself performs no
 * allocation, so it can sit on a zero-allocation-per-launch issue path
 * whose batches fan out through the team.
 *
 * `threads` counts the caller: TaskTeam(1) spawns no workers and Run()
 * degenerates to an inline loop, so a jobs=1 configuration is exactly
 * the serial schedule. Indices are claimed from a shared atomic
 * counter; the body must be safe to invoke concurrently for distinct
 * indices. Run() returns only after every index has been processed and
 * every worker has quiesced (the barrier).
 */
class TaskTeam {
  public:
    explicit TaskTeam(std::size_t threads = 1);
    ~TaskTeam();

    TaskTeam(const TaskTeam&) = delete;
    TaskTeam& operator=(const TaskTeam&) = delete;

    /** Install the loop body. Must precede the first Run() and must
     * not be called while a Run() is in flight. */
    void SetBody(std::function<void(std::size_t)> body);

    /** Invoke body(i) for every i in [0, count), on the workers plus
     * the calling thread; returns after all indices completed. If any
     * invocation throws, the first exception is captured, the barrier
     * still completes (no worker outlives a Run over state it
     * borrows), and the exception is rethrown here on the caller. */
    void Run(std::size_t count);

    /** Total threads participating in a Run (workers + caller). */
    std::size_t Threads() const { return workers_.size() + 1; }

  private:
    void WorkerLoop();
    /** body_(i) with the first thrown exception captured into
     * error_ (rethrown by Run after the barrier). */
    void Invoke(std::size_t i);

    std::function<void(std::size_t)> body_;
    std::mutex mutex_;
    std::condition_variable start_;
    std::condition_variable done_;
    std::uint64_t epoch_ = 0;     ///< bumped per Run; wakes workers
    std::size_t count_ = 0;       ///< index range of the current epoch
    std::size_t running_ = 0;     ///< workers still inside the epoch
    bool shutting_down_ = false;
    std::exception_ptr error_;    ///< first failure of this epoch
    std::atomic<std::size_t> next_{0};  ///< shared index claim counter
    std::vector<std::thread> workers_;
};

}  // namespace apo::support

#endif  // APOPHENIA_SUPPORT_EXECUTOR_H
