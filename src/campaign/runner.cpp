#include "campaign/runner.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "campaign/report.hpp"
#include "obs/resource.hpp"
#include "trace/replay.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "workload/generate.hpp"

namespace smpi::campaign {

namespace {

// --- pipe helpers -----------------------------------------------------------

bool read_exact(int fd, void* buffer, std::size_t bytes) {
  auto* out = static_cast<unsigned char*>(buffer);
  while (bytes > 0) {
    const ssize_t n = ::read(fd, out, bytes);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    out += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_exact(int fd, const void* buffer, std::size_t bytes) {
  const auto* in = static_cast<const unsigned char*>(buffer);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, in, bytes);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    in += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

// --- worker side ------------------------------------------------------------

ScenarioResult run_one_scenario(const CampaignSpec& spec, const Scenario& scenario, int rep,
                                const trace::TiTrace& trace, long long arena_bytes) {
  ScenarioResult r;
  r.id = scenario.id;
  r.rep = rep;
  try {
    // Workload overrides change the trace itself: regenerate the variant
    // here (generation is deterministic, so the result is independent of
    // which worker runs it). Everything else replays the shared baseline
    // trace through copy-on-write pages.
    const trace::TiTrace* effective = &trace;
    trace::TiTrace regenerated;
    if (spec.sweeps_workload() && !scenario.params.empty()) {
      regenerated = workload::generate_workload(apply_workload_overrides(spec, scenario));
      effective = &regenerated;
      arena_bytes = 0;  // the baseline hint sized a different trace
    }
    ScenarioSetup setup = materialize(spec, scenario, effective->nranks, rep);
    trace::ReplayOptions replay_options;
    replay_options.arena_bytes_hint = arena_bytes;
    replay_options.payload_free = setup.payload_free;
    replay_options.analyze = spec.analysis;
    obs::ResourceCollector resource_collector;
    if (spec.resources) replay_options.resources = &resource_collector;
    const auto start = std::chrono::steady_clock::now();
    static_cast<trace::ReplayResult&>(r) =
        trace::replay_trace(setup.platform, setup.config, *effective, replay_options);
    r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    // A fault-model abort (or MPI_Abort in the trace) fails the row with the
    // diagnostic, not a silently short simulated time.
    r.ok = !r.aborted;
    if (r.aborted) {
      r.error = r.failure.empty() ? "replay aborted with code " + std::to_string(r.abort_code)
                                  : "resource failure: " + r.failure;
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

// Task message and its harness-test flags. The parent decides fault
// injection (it knows attempt counts); the worker just obeys.
struct TaskMsg {
  std::int32_t id = -1;  // -1 = shut down
  std::int32_t flags = 0;
};
constexpr std::int32_t kTaskCrash = 1;  // _exit instead of running (dead-worker drill)
constexpr std::int32_t kTaskHang = 2;   // sleep forever (watchdog drill)

[[noreturn]] void worker_loop(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                              int replications, const trace::TiTrace& trace, long long arena_bytes,
                              int task_fd, int result_fd) {
  while (true) {
    TaskMsg task;
    if (!read_exact(task_fd, &task, sizeof task) || task.id < 0) ::_exit(0);
    // Task ids are units: scenario * replications + rep.
    SMPI_ENSURE(task.id < static_cast<std::int32_t>(scenarios.size()) * replications,
                "campaign task id out of range");
    if ((task.flags & kTaskCrash) != 0) ::_exit(33);
    if ((task.flags & kTaskHang) != 0) {
      while (true) ::pause();
    }
    const ScenarioResult result =
        run_one_scenario(spec, scenarios[static_cast<std::size_t>(task.id / replications)],
                         task.id % replications, trace, arena_bytes);
    util::JsonValue row = util::JsonValue::object();
    row.set("id", util::JsonValue::number(result.id));
    row.set("rep", util::JsonValue::number(result.rep));
    set_result_fields(row, result, nullptr);
    const std::string capsule = row.dump();
    const auto length = static_cast<std::uint32_t>(capsule.size());
    if (!write_exact(result_fd, &length, sizeof length) ||
        !write_exact(result_fd, capsule.data(), capsule.size())) {
      ::_exit(1);  // parent went away
    }
  }
}

struct Worker {
  pid_t pid = -1;
  int task_fd = -1;    // parent writes scenario ids here
  int result_fd = -1;  // parent reads capsules here
  int running_id = -1;  // scenario in flight, -1 when idle
  bool alive = false;
  std::chrono::steady_clock::time_point deadline{};  // watchdog, when armed
};

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

CampaignOutcome run_campaign(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                             const trace::TiTrace& trace, const RunOptions& options) {
  SMPI_REQUIRE(options.workers >= 1, "campaign needs at least one worker");
  SMPI_REQUIRE(!scenarios.empty(), "campaign has no scenarios");

  // Work units: one (scenario, replication) pair each.
  const int reps = std::max(1, spec.replications);
  const std::size_t units = scenarios.size() * static_cast<std::size_t>(reps);
  auto unit_label = [&](int id) -> std::string {
    const Scenario& s = scenarios[static_cast<std::size_t>(id / reps)];
    if (reps == 1) return s.label;
    return s.label + " rep=" + std::to_string(id % reps);
  };

  // Resume: adopt prior ok results up front; only the rest is dispatched.
  CampaignOutcome outcome;
  outcome.replications = reps;
  outcome.results.resize(units);
  std::vector<std::int32_t> pending;
  for (std::size_t i = 0; i < units; ++i) {
    ScenarioResult& row = outcome.results[i];
    if (i < options.resume.size() && options.resume[i].ok) {
      SMPI_REQUIRE(options.resume[i].id == static_cast<int>(i) / reps &&
                       options.resume[i].rep == static_cast<int>(i) % reps,
                   "campaign resume: result id/rep does not match its slot");
      row = options.resume[i];
      ++outcome.resumed;
      continue;
    }
    row.id = static_cast<int>(i) / reps;
    row.rep = static_cast<int>(i) % reps;
    row.error = "scenario was never dispatched";
    pending.push_back(static_cast<std::int32_t>(i));
  }

  // Everything adopted: the re-run is a no-op — skip the arena scan (a full
  // pass over every trace record) and the worker pool entirely.
  if (pending.empty()) return outcome;

  const int workers = std::min<int>(options.workers, static_cast<int>(pending.size()));
  const long long arena_bytes = trace::compute_arena_bytes(trace);

  // A dead worker must surface as a failed scenario, not kill the parent on
  // the next task write.
  struct sigaction ignore_pipe{};
  ignore_pipe.sa_handler = SIG_IGN;
  struct sigaction previous_pipe{};
  ::sigaction(SIGPIPE, &ignore_pipe, &previous_pipe);

  const auto sweep_start = std::chrono::steady_clock::now();
  const double timeout_s = options.timeout_s > 0 ? options.timeout_s : spec.timeout_s;
  // A watchdog far beyond any run is no watchdog; the clamp keeps the
  // deadline within the clock's range.
  const double watchdog_s = std::min(timeout_s, 1e8);
  std::vector<Worker> pool(static_cast<std::size_t>(workers));

  auto spawn_worker = [&](Worker& worker) {
    int task_pipe[2];
    int result_pipe[2];
    SMPI_ENSURE(::pipe(task_pipe) == 0 && ::pipe(result_pipe) == 0,
                "campaign worker pipe creation failed");
    // Flush before forking so buffered output is not duplicated into children.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    SMPI_ENSURE(pid >= 0, "campaign worker fork failed");
    if (pid == 0) {
      ::close(task_pipe[1]);
      ::close(result_pipe[0]);
      for (const Worker& other : pool) {  // fds inherited from other workers
        if (other.task_fd >= 0) ::close(other.task_fd);
        if (other.result_fd >= 0) ::close(other.result_fd);
      }
      worker_loop(spec, scenarios, reps, trace, arena_bytes, task_pipe[0], result_pipe[1]);
    }
    ::close(task_pipe[0]);
    ::close(result_pipe[1]);
    worker.pid = pid;
    worker.task_fd = task_pipe[1];
    worker.result_fd = result_pipe[0];
    worker.running_id = -1;
    worker.alive = true;
  };

  // Close the parent-side fds, reap the child (killing it first when asked),
  // and describe how it exited — the row's worker_exit diagnostic.
  auto reap_worker = [](Worker& worker, bool force_kill) -> std::string {
    close_fd(worker.task_fd);
    close_fd(worker.result_fd);
    std::string cause = "unknown";
    if (worker.pid > 0) {
      if (force_kill) ::kill(worker.pid, SIGKILL);
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
      if (WIFSIGNALED(status)) {
        cause = "killed by signal " + std::to_string(WTERMSIG(status));
      } else if (WIFEXITED(status)) {
        cause = "exited with status " + std::to_string(WEXITSTATUS(status));
      }
    }
    worker.pid = -1;
    worker.alive = false;
    worker.running_id = -1;
    return cause;
  };

  for (Worker& worker : pool) spawn_worker(worker);

  outcome.workers = workers;

  std::size_t next_pending = 0;
  std::vector<std::int32_t> retry_queue;
  std::vector<int> attempts(units, 0);
  std::size_t completed = static_cast<std::size_t>(outcome.resumed);
  auto dispatch = [&](Worker& worker) {
    std::int32_t id = -1;
    bool from_retry = false;
    if (!retry_queue.empty()) {
      id = retry_queue.back();
      retry_queue.pop_back();
      from_retry = true;
    } else if (next_pending < pending.size()) {
      id = pending[next_pending];
    }
    if (id < 0) {
      const TaskMsg shutdown;
      write_exact(worker.task_fd, &shutdown, sizeof shutdown);
      worker.running_id = -1;
      return;
    }
    TaskMsg task;
    task.id = id;
    if (id == options.crash_scenario &&
        (options.crash_always || attempts[static_cast<std::size_t>(id)] == 0)) {
      task.flags |= kTaskCrash;
    }
    if (id == options.hang_scenario) task.flags |= kTaskHang;
    if (!write_exact(worker.task_fd, &task, sizeof task)) {
      // Worker is gone; the scenario stays queued for the others.
      if (from_retry) retry_queue.push_back(id);
      worker.alive = false;
      return;
    }
    if (!from_retry) ++next_pending;
    ++attempts[static_cast<std::size_t>(id)];
    worker.running_id = id;
    if (timeout_s > 0) {
      worker.deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(watchdog_s));
    }
  };
  for (Worker& worker : pool) dispatch(worker);

  while (completed < units) {
    std::vector<pollfd> fds;
    std::vector<Worker*> owners;
    for (Worker& worker : pool) {
      if (worker.alive && worker.running_id >= 0) {
        fds.push_back({worker.result_fd, POLLIN, 0});
        owners.push_back(&worker);
      }
    }
    SMPI_ENSURE(!fds.empty(), "campaign: all workers died with scenarios remaining");
    int poll_timeout_ms = -1;
    if (timeout_s > 0) {
      const auto now = std::chrono::steady_clock::now();
      double wait_s = watchdog_s;
      for (const Worker* worker : owners) {
        wait_s = std::min(wait_s, std::chrono::duration<double>(worker->deadline - now).count());
      }
      // Whole milliseconds past the nearest deadline, within poll's int.
      poll_timeout_ms = static_cast<int>(
          std::clamp(std::trunc(wait_s * 1000.0) + 1, 0.0, static_cast<double>(INT_MAX)));
    }
    const int ready = ::poll(fds.data(), fds.size(), poll_timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    SMPI_ENSURE(ready >= 0, "campaign: poll on worker results failed");

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker& worker = *owners[i];
      std::uint32_t length = 0;
      std::string capsule;
      bool got = read_exact(worker.result_fd, &length, sizeof length);
      if (got) {
        capsule.resize(length);
        got = read_exact(worker.result_fd, capsule.data(), length);
      }
      const int id = worker.running_id;
      worker.running_id = -1;
      auto& row = outcome.results[static_cast<std::size_t>(id)];
      if (!got) {
        // The worker died mid-scenario (crash, OOM kill...). Record the exit
        // cause, then retry ONCE on a freshly forked worker after a short
        // backoff — transient deaths deserve a second chance; a
        // deterministic one will kill the retry too and fail the row for
        // good. The pool is refilled either way.
        const std::string cause = reap_worker(worker, false);
        row.worker_exit = cause;
        if (attempts[static_cast<std::size_t>(id)] < 2) {
          if (options.progress) {
            std::fprintf(stderr, "campaign: scenario %d worker died (%s), retrying\n", id,
                         cause.c_str());
          }
          const struct timespec backoff = {0, 50 * 1000 * 1000};  // 50 ms
          ::nanosleep(&backoff, nullptr);
          retry_queue.push_back(static_cast<std::int32_t>(id));
        } else {
          row.ok = false;
          row.retries = attempts[static_cast<std::size_t>(id)] - 1;
          row.error = "campaign worker died while running this scenario (retry exhausted)";
          ++completed;
          if (options.progress) {
            std::fprintf(stderr, "campaign: unit %d/%zu FAILED (%s)\n", id + 1, units,
                         unit_label(id).c_str());
          }
        }
        spawn_worker(worker);
        dispatch(worker);
        continue;
      }
      const util::JsonValue json = util::parse_json(capsule, "campaign capsule");
      SMPI_ENSURE(json.at("id", "capsule").as_int() == id / reps &&
                      json.at("rep", "capsule").as_int() == id % reps,
                  "campaign capsule for the wrong unit");
      ScenarioResult result = read_result_fields(json, id / reps, id % reps);
      result.retries = attempts[static_cast<std::size_t>(id)] - 1;
      if (options.progress) {
        std::fprintf(stderr, "campaign: unit %d/%zu %s (%s)\n", id + 1, units,
                     result.ok ? "done" : "FAILED", unit_label(id).c_str());
      }
      outcome.results[static_cast<std::size_t>(id)] = std::move(result);
      ++completed;
      dispatch(worker);
    }

    // Watchdog: anything still in flight past its deadline is killed and
    // recorded as a timeout; no retry (it would just burn another timeout).
    // Runs after the reads so a result that raced the deadline still wins.
    if (timeout_s > 0) {
      const auto now = std::chrono::steady_clock::now();
      for (Worker& worker : pool) {
        if (!worker.alive || worker.running_id < 0 || now < worker.deadline) continue;
        const int id = worker.running_id;
        const std::string cause = reap_worker(worker, true);
        auto& row = outcome.results[static_cast<std::size_t>(id)];
        char budget[64];
        std::snprintf(budget, sizeof budget, "%g", timeout_s);
        row.ok = false;
        row.timed_out = true;
        row.retries = attempts[static_cast<std::size_t>(id)] - 1;
        row.error = std::string("scenario exceeded the ") + budget + " s wall-clock watchdog";
        row.worker_exit = "killed by watchdog (" + cause + ")";
        ++completed;
        if (options.progress) {
          std::fprintf(stderr, "campaign: unit %d/%zu TIMEOUT (%s)\n", id + 1, units,
                       unit_label(id).c_str());
        }
        spawn_worker(worker);
        dispatch(worker);
      }
    }
  }

  for (Worker& worker : pool) {
    if (worker.alive && worker.running_id < 0) {
      // Idle workers were already told to shut down by dispatch().
    } else if (worker.alive) {
      const TaskMsg shutdown;
      write_exact(worker.task_fd, &shutdown, sizeof shutdown);
    }
    close_fd(worker.task_fd);
    close_fd(worker.result_fd);
    if (worker.pid > 0) {
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
    }
  }
  ::sigaction(SIGPIPE, &previous_pipe, nullptr);

  outcome.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start).count();
  return outcome;
}

}  // namespace smpi::campaign
