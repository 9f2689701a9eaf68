#include "src/servers/worker_pool.h"

#include "src/net/listener.h"

namespace scio {

std::string ListenerModeName(ListenerMode mode) {
  switch (mode) {
    case ListenerMode::kSharedWakeAll:
      return "shared-wake-all";
    case ListenerMode::kSharedWakeOne:
      return "shared-wake-one";
    case ListenerMode::kSharded:
      return "sharded";
  }
  return "unknown";
}

WorkerPool::WorkerPool(SimKernel* kernel, NetStack* net, WorkerPoolConfig config,
                       ServerFactory factory)
    : kernel_(kernel), net_(net), config_(config), factory_(std::move(factory)) {}

int WorkerPool::Setup() {
  for (int i = 0; i < config_.workers; ++i) {
    Process& proc =
        kernel_->CreateProcess("worker-" + std::to_string(i), config_.worker_max_fds);
    proc.set_rt_queue_max(config_.rt_queue_max);
    Worker w;
    w.proc = &proc;
    w.sys = std::make_unique<Sys>(kernel_, &proc, net_);
    w.server = factory_(w.sys.get());
    workers_.push_back(std::move(w));
  }

  if (config_.mode == ListenerMode::kSharded) {
    reuseport_ = std::make_unique<ReusePortGroup>(config_.seed);
    for (Worker& w : workers_) {
      const int fd = w.server->Setup();
      if (fd < 0) {
        return fd;
      }
      listeners_.push_back(w.sys->listener(fd));
      reuseport_->Add(listeners_.back());
    }
  } else {
    const int fd = workers_.front().server->Setup();
    if (fd < 0) {
      return fd;
    }
    listeners_.push_back(workers_.front().sys->listener(fd));
    // One SYN reaches every worker's registrations (the herd) or one.
    listeners_.front()->set_wake_one(config_.mode == ListenerMode::kSharedWakeOne);
    for (size_t i = 1; i < workers_.size(); ++i) {
      const int fd_i = workers_[i].server->AdoptListener(listeners_.front());
      if (fd_i < 0) {
        return fd_i;
      }
    }
  }

  for (Worker& w : workers_) {
    const int rc = w.server->SetupEvents();
    if (rc < 0) {
      return rc;
    }
  }
  return 0;
}

void WorkerPool::Run(SimTime until) {
  sched_ = std::make_unique<SmpScheduler>(kernel_, config_.cpus, config_.seed);
  for (Worker& w : workers_) {
    HttpServerBase* srv = w.server.get();
    sched_->AddWorker(w.proc, [srv, until] { srv->Run(until); });
  }
  sched_->Run();
}

}  // namespace scio
