#include "rt/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "util/env.h"

namespace scap::rt {

namespace {

thread_local bool tl_on_worker = false;

// SCAP_THREADS is sampled exactly once, the first time any caller needs the
// default concurrency (normally the first ThreadPool::global() call, i.e.
// process startup). A process therefore has a thread count fixed at
// startup: later environment mutation -- or a set_global_concurrency(0)
// reset -- cannot change it.
std::size_t env_concurrency() {
  static const std::size_t cached = [] {
    if (const char* env = util::env_cstr("SCAP_THREADS")) {
      const long n = std::atol(env);
      if (n >= 1) return std::min<std::size_t>(static_cast<std::size_t>(n), 256);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw ? hw : 1);
  }();
  return cached;
}

std::mutex g_global_mu;
std::shared_ptr<ThreadPool> g_global;  // guarded by g_global_mu

}  // namespace

// One parallel region. Lives on the submitting thread's stack: every task
// pointer anywhere in the pool represents unexecuted chunks, so once
// `remaining` hits zero no reference to the job can exist and the submitter
// may safely return.
struct ThreadPool::Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> remaining{0};
  // Task arena: a binary split tree over n chunks has at most 2n-1 nodes.
  // Bump-allocated so task creation is lock-free and addresses are stable.
  std::vector<Task> arena;
  std::atomic<std::size_t> arena_next{0};

  Task* alloc(Job* self, std::uint32_t begin, std::uint32_t end) {
    const std::size_t i = arena_next.fetch_add(1, std::memory_order_relaxed);
    assert(i < arena.size());
    Task& t = arena[i];
    t.job = self;
    t.begin = begin;
    t.end = end;
    return &t;
  }
};

ThreadPool::ThreadPool(std::size_t concurrency)
    : concurrency_(concurrency == 0 ? 1 : concurrency) {
  obs::Registry& reg = obs::Registry::global();
  jobs_ctr_ = &reg.counter("rt.jobs");
  chunks_ctr_ = &reg.counter("rt.chunks");
  tasks_ctr_ = &reg.counter("rt.tasks");
  steals_ctr_ = &reg.counter("rt.steals");
  steal_attempts_ctr_ = &reg.counter("rt.steal_attempts");
  for (std::size_t i = 0; i + 1 < concurrency_; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->prof.set_lane(static_cast<std::uint32_t>(i));
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_main(worker); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

bool ThreadPool::on_worker_thread() noexcept { return tl_on_worker; }

void ThreadPool::inject(Task* task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    injector_.push_back(task);
  }
  cv_.notify_all();
}

ThreadPool::Task* ThreadPool::pop_injector() {
  std::lock_guard<std::mutex> lock(mu_);
  if (injector_.empty()) return nullptr;
  Task* t = injector_.back();
  injector_.pop_back();
  return t;
}

ThreadPool::Task* ThreadPool::steal_any(Worker* self) {
  const std::size_t n = workers_.size();
  if (n == 0) return nullptr;
  const std::size_t start = self ? self->index + 1 : 0;
  std::size_t attempts = 0;
  Task* t = nullptr;
  for (std::size_t k = 0; k < n && t == nullptr; ++k) {
    Worker* victim = workers_[(start + k) % n].get();
    if (victim == self) continue;
    ++attempts;
    t = victim->deque.steal();
  }
  if (obs::metrics_enabled() && attempts) {
    steal_attempts_ctr_->add(attempts);
    if (t) steals_ctr_->add(1);
  }
  if (obs::prof_enabled() && attempts) {
    obs::ProfRing& ring = self ? self->prof : obs::caller_prof_ring();
    ring.record(obs::ProfKind::kStealAttempt,
                static_cast<std::uint32_t>(attempts));
    if (t) ring.record(obs::ProfKind::kStealSuccess, 1);
  }
  return t;
}

void ThreadPool::execute(Task* task, Worker* self) {
  Job* job = task->job;
  std::uint32_t begin = task->begin;
  std::uint32_t end = task->end;
  const bool prof_on = obs::prof_enabled();
  if (prof_on) {
    (self ? self->prof : obs::caller_prof_ring())
        .record(obs::ProfKind::kTaskBegin, end - begin);
  }
  // Split in half until a single chunk remains; spare halves go to the own
  // deque (stealable, oldest-first == coarsest-first) or, from the
  // submitting thread, to the shared injector.
  while (end - begin > 1) {
    const std::uint32_t mid = begin + (end - begin) / 2;
    Task* spare = job->alloc(job, mid, end);
    if (self) {
      self->deque.push(spare);
    } else {
      inject(spare);
    }
    end = mid;
  }
  (*job->body)(begin);
  if (obs::metrics_enabled()) tasks_ctr_->add(1);
  // TaskEnd lands before the drain counter drops: once `remaining` hits zero
  // the submitter may collect a profile, which must already see this task.
  if (prof_on) {
    (self ? self->prof : obs::caller_prof_ring())
        .record(obs::ProfKind::kTaskEnd);
  }
  job->remaining.fetch_sub(1, std::memory_order_acq_rel);
}

void ThreadPool::worker_main(Worker* self) {
  tl_on_worker = true;
  int idle_sweeps = 0;
  int napped_us = 100;
  for (;;) {
    Task* t = self->deque.pop();
    if (!t) t = steal_any(self);
    if (!t) t = pop_injector();
    if (t) {
      execute(t, self);
      idle_sweeps = 0;
      napped_us = 100;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (active_jobs_.load(std::memory_order_acquire) > 0) {
      // A job is in flight but nothing was stealable this sweep. Stay hot
      // briefly -- split tasks appear without notification while a region is
      // active -- but bound the spin: when workers outnumber hardware
      // threads, unbounded yielding steals the very timeslices the running
      // tasks need. Past the budget, park with a timeout (backing off while
      // fruitless) so late-appearing tasks are still picked up; a new job's
      // notify_all wakes parked workers immediately.
      if (++idle_sweeps <= 16) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lock(mu_);
      self->prof.record(obs::ProfKind::kPark);
      cv_.wait_for(lock, std::chrono::microseconds(napped_us), [&] {
        return stop_.load(std::memory_order_relaxed) || !injector_.empty();
      });
      self->prof.record(obs::ProfKind::kUnpark);
      napped_us = std::min(napped_us * 2, 4000);
      idle_sweeps = 0;
      continue;
    }
    idle_sweeps = 0;
    napped_us = 100;
    std::unique_lock<std::mutex> lock(mu_);
    self->prof.record(obs::ProfKind::kPark);
    cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             active_jobs_.load(std::memory_order_relaxed) > 0 ||
             !injector_.empty();
    });
    self->prof.record(obs::ProfKind::kUnpark);
    if (stop_.load(std::memory_order_relaxed)) break;
  }
  tl_on_worker = false;
}

void ThreadPool::run_chunked(std::size_t n_chunks,
                             const std::function<void(std::size_t)>& body) {
  if (n_chunks == 0) return;
  // Serial pool, trivial region, or nested call from inside a worker: run
  // inline in index order. This is the same chunk decomposition the parallel
  // path executes, so results are identical by construction.
  if (workers_.empty() || n_chunks < 2 || on_worker_thread()) {
    for (std::size_t c = 0; c < n_chunks; ++c) body(c);
    return;
  }
  SCAP_TRACE_SCOPE("rt.job");
  const bool prof_on = obs::prof_enabled();
  if (prof_on) {
    obs::caller_prof_ring().record(obs::ProfKind::kJobBegin,
                                   static_cast<std::uint32_t>(std::min<
                                       std::size_t>(n_chunks, 0xFFFFu)));
  }
  if (obs::metrics_enabled()) {
    jobs_ctr_->add(1);
    chunks_ctr_->add(n_chunks);
  }

  Job job;
  job.body = &body;
  job.remaining.store(n_chunks, std::memory_order_relaxed);
  job.arena.resize(2 * n_chunks);
  Task* root = job.alloc(&job, 0, static_cast<std::uint32_t>(n_chunks));

  {
    std::lock_guard<std::mutex> lock(mu_);
    active_jobs_.fetch_add(1, std::memory_order_relaxed);
    injector_.push_back(root);
  }
  // The submitter participates too, so a job with few chunks needs few
  // workers; waking the whole pool for a 2-chunk job just adds scheduling
  // pressure (worst on hosts with fewer cores than workers).
  const std::size_t to_wake = std::min(workers_.size(), n_chunks - 1);
  if (to_wake >= workers_.size()) {
    cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < to_wake; ++i) cv_.notify_one();
  }

  // Participate until this job drains. Tasks of other concurrent jobs may be
  // picked up too -- they never block, so helping them only speeds things up.
  // The drain tail (all tasks claimed, some still executing) spins briefly
  // then sleeps in short slices: on an oversubscribed host an unbounded
  // yield loop competes with the workers finishing the job.
  int idle_sweeps = 0;
  while (job.remaining.load(std::memory_order_acquire) != 0) {
    Task* t = pop_injector();
    if (!t) t = steal_any(nullptr);
    if (t) {
      execute(t, nullptr);
      idle_sweeps = 0;
    } else if (++idle_sweeps <= 16) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  active_jobs_.fetch_sub(1, std::memory_order_relaxed);
  if (prof_on) obs::caller_prof_ring().record(obs::ProfKind::kJobEnd);
}

std::shared_ptr<ThreadPool> ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (!g_global) g_global = std::make_shared<ThreadPool>(env_concurrency());
  return g_global;
}

void ThreadPool::set_global_concurrency(std::size_t concurrency) {
  auto next = std::make_shared<ThreadPool>(
      concurrency == 0 ? env_concurrency() : concurrency);
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global = std::move(next);
}

std::size_t concurrency() { return ThreadPool::global()->concurrency(); }

}  // namespace scap::rt
