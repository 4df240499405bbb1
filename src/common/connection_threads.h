// One thread per accepted connection, as the cluster's info and data
// channels (and the MiniServer baseline) run them. Each spawn joins only the
// threads that have already finished, so the set stays bounded by the live
// connections and the accepting thread never waits on a connection that is
// still being served.
#pragma once

#include <atomic>
#include <list>
#include <mutex>
#include <thread>
#include <utility>

namespace swala {

class ConnectionThreads {
 public:
  ConnectionThreads() = default;
  ConnectionThreads(const ConnectionThreads&) = delete;
  ConnectionThreads& operator=(const ConnectionThreads&) = delete;
  ~ConnectionThreads() { join_all(); }

  /// Reaps finished threads, then starts `fn` on a new one.
  template <typename Fn>
  void spawn(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = slots_.begin(); it != slots_.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = slots_.erase(it);
      } else {
        ++it;
      }
    }
    Slot& slot = slots_.emplace_back();
    try {
      slot.thread = std::thread([&slot, fn = std::forward<Fn>(fn)]() mutable {
        fn();
        slot.done.store(true, std::memory_order_release);
      });
    } catch (...) {
      slots_.pop_back();
      throw;
    }
  }

  /// Joins every thread, finished or not. The caller must have stopped
  /// whatever the threads serve, or this waits for them to wind down.
  void join_all() {
    std::list<Slot> slots;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slots.swap(slots_);
    }
    for (auto& slot : slots) slot.thread.join();
  }

 private:
  struct Slot {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  std::mutex mutex_;
  std::list<Slot> slots_;  // list: a running thread holds its Slot's address
};

}  // namespace swala
