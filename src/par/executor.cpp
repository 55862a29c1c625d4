#include "par/executor.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace lmas::par {

unsigned default_jobs() {
  if (const char* e = std::getenv("LMAS_JOBS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(e, &end, 10);
    if (end != e && *end == '\0' && v >= 1 && v <= 1u << 16) {
      return unsigned(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

namespace {

/// One published batch. Workers snapshot a shared_ptr to it under the
/// pool mutex, then claim indices lock-free from `next`; a worker still
/// holding a drained batch can only observe n exhausted — it can never
/// claim into a newer batch through a stale pointer, which is what keeps
/// the pool race-free across back-to-back sweeps.
struct Batch {
  const std::function<void(std::size_t)>* body = nullptr;
  std::vector<std::exception_ptr>* errors = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
};

}  // namespace

struct Executor::Impl {
  std::mutex mu;
  std::condition_variable wake;  // workers: new batch or shutdown
  std::condition_variable done;  // caller: batch drained
  std::uint64_t generation = 0;  // bumped per published batch
  bool stop = false;
  bool batch_done = false;
  std::shared_ptr<Batch> current;
  std::vector<std::thread> workers;

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock lock(mu);
        wake.wait(lock, [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
        batch = current;
      }
      // `current` may already be null: if the batch drained before this
      // worker woke, the caller has reset it. The generation was still
      // consumed, so just go back to sleep.
      if (batch) run_slice(*batch);
    }
  }

  void run_slice(Batch& b) {
    for (;;) {
      const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= b.n) break;
      try {
        (*b.body)(i);
      } catch (...) {
        (*b.errors)[i] = std::current_exception();
      }
      if (b.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lock(mu);
        batch_done = true;
        done.notify_all();
      }
    }
  }
};

Executor::Executor(unsigned jobs) : jobs_(jobs ? jobs : 1) {
  if (jobs_ == 1) return;
  // The calling thread participates in every batch (it claims indices in
  // for_each_index like any worker), so a pool of jobs-1 threads gives
  // exactly `jobs` runners without oversubscribing the machine.
  impl_ = std::make_unique<Impl>();
  impl_->workers.reserve(jobs_ - 1);
  for (unsigned i = 0; i + 1 < jobs_; ++i) {
    impl_->workers.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
  }
}

Executor::~Executor() {
  if (!impl_) return;
  {
    std::lock_guard lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (auto& w : impl_->workers) w.join();
}

void Executor::for_each_index(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (!impl_) {
    // Serial mode: indices in order on the calling thread; a throw
    // propagates directly (nothing is in flight behind it).
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  auto batch = std::make_shared<Batch>();
  batch->body = &body;
  batch->errors = &errors;
  batch->n = n;
  batch->remaining.store(n, std::memory_order_relaxed);
  {
    std::lock_guard lock(impl_->mu);
    impl_->current = batch;
    impl_->batch_done = false;
    ++impl_->generation;
  }
  impl_->wake.notify_all();
  // The caller is a runner too: claim indices alongside the pool instead
  // of sleeping through the batch.
  impl_->run_slice(*batch);
  {
    std::unique_lock lock(impl_->mu);
    impl_->done.wait(lock, [&] { return impl_->batch_done; });
    impl_->current.reset();
  }
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace lmas::par
