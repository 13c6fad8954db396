// flowbench: the repository's end-to-end benchmark.
//
//   flowbench --workload <replan_storm|federated_flash|adhoc_flood>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//
// Each workload is generated from --seed and handed to the program only
// through its public API: a workload::Scenario, sched::milestone_deadlines,
// a scheduler built by sched::make_scheduler, and sim::Simulator::run.
//
// --trace 0 measures what a user of the scheduler sees (setup time, run
// wall and CPU, event -> adopted-plan latency, ad-hoc turnaround, memory)
// with observability off. --trace 1 is a separate run
// that times each layer from outside: the benchmark wraps the scheduler it
// hands to Simulator::run in a decorator that records a span around every
// call into it, drives the single-cell planner's public phases itself, and
// reads the counters and histograms the metrics registry already keeps for
// work done inside a layer's call (LP solves, per-cell solve rounds,
// runtime queueing). Spans stay in memory and are written at exit. The
// deterministic plan quality (deadline misses, unfinished jobs) is part of
// the traced output and of the report lines printed in both modes.
//
// Both modes simulate the workload in passes until --seconds have elapsed,
// gate every simulation on the simulator's contract-violation counters,
// and check that every pass, traced or not, reproduces the first pass's
// deterministic outcomes. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed gate or check
// exits non-zero without printing it.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/federated_scheduler.h"
#include "core/flowtime_scheduler.h"
#include "lp/solve_profile.h"
#include "obs/metrics.h"
#include "runtime/concurrent_scheduler.h"
#include "sched/experiment.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/trace_gen.h"

namespace {

using namespace flowtime;
using workload::ResourceVec;

// Set-up is repeated at least kSetupMinReps times and until the repetitions
// have taken kSetupBudgetS, and its median is reported. A workload is
// simulated at least kMinPasses times, and every timing is the fastest of
// the passes for each instance (or adopted plan) on its own: other tenants
// of a shared host slow the program down for seconds at a time, and the
// fastest pass is the one such a slowdown missed.
constexpr std::size_t kSetupMinReps = 9;
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kMinPasses = 3;

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : util::quantile(std::move(values), 0.5);
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

/// CPUs this process may run on (what nproc reports).
int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// --- Workloads -------------------------------------------------------------
//
// A workload is a fixed number of independent instances. Two facts shape
// how they are drawn:
//   * LP cost and plan quality swing by several times with a workflow's
//     DAG shape and sizes, so a benchmark that drew fresh DAGs per seed
//     would mostly measure its own draw. The deadline workflows therefore
//     come from a fixed catalogue (the paper's workflows recur; §II-A):
//     instance i always runs catalogue entry i.
//   * Everything else is drawn from --seed through per-instance sub-seeds:
//     the ad-hoc streams, the estimate noise, the production arrival
//     shapes. Summing many instances keeps each run's figures steady from
//     one seed to the next.

enum class Driver { kSync, kFederated, kRuntime };

/// One generated scenario with the configuration its scheduler and
/// simulator are built from, and its shared milestone yardstick.
struct Instance {
  workload::Scenario scenario;
  sched::ExperimentConfig experiment;
  sim::JobDeadlines deadlines;
};

struct Workload {
  std::string name;
  Driver driver = Driver::kSync;
  std::vector<Instance> instances;
  int solver_pool_threads = 0;     // FederatedScheduler pool workers
  int runtime_solver_threads = 0;  // ConcurrentScheduler solver threads
  double generate_s = 0.0;
  double milestones_s = 0.0;
};

/// Seeds the fixed workflow catalogue described above.
constexpr std::uint64_t kCatalogueSeed = 2018;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

sched::ExperimentConfig base_experiment(double cores, double mem_gb,
                                        double horizon_s) {
  sched::ExperimentConfig experiment;
  experiment.sim.cluster.capacity = ResourceVec{cores, mem_gb};
  experiment.sim.max_horizon_s = horizon_s;
  experiment.flowtime.cluster = experiment.sim.cluster;
  return experiment;
}

// replan_storm: the paper's testbed mix (Fig. 4: 500 cores / 1 TB, 10 s
// slots, 18-job workflows plus a Poisson ad-hoc stream) with Fig. 9
// lognormal estimate noise (sigma 0.3), so deviations and overruns keep the
// single synchronous planner re-solving. Nearly all wall time is core + lp.
// One workflow per instance: overlapping workflows make LP cost so uneven
// that far fewer instances would fit in a run. The estimate noise, and so
// the LP work, is drawn from --seed; 64 instances keep the seed-to-seed
// spread of the pivot count near 5% (twice that with 32).
constexpr int kStormInstances = 64;

Instance make_replan_storm(std::uint64_t seed, std::uint64_t catalogue_seed) {
  Instance in;
  in.experiment = base_experiment(500.0, 1024.0, 8.0 * 3600.0);
  workload::WorkflowGenConfig workflow;
  workflow.cluster = in.experiment.sim.cluster;
  workflow.looseness_min = 2.0;
  workflow.looseness_max = 3.0;
  util::Rng catalogue(catalogue_seed);
  in.scenario.workflows.push_back(
      workload::make_workflow(catalogue, 0, 0.0, workflow));
  workload::AdhocGenConfig adhoc;
  adhoc.rate_per_s = 0.15;
  adhoc.horizon_s = 600.0;
  adhoc.min_tasks = 10;
  adhoc.max_tasks = 50;
  adhoc.min_task_runtime_s = 30.0;
  adhoc.max_task_runtime_s = 80.0;
  util::Rng rng(seed);
  in.scenario.adhoc_jobs = workload::make_adhoc_stream(rng, adhoc);
  fault::FaultPlan& plan = in.experiment.sim.fault_plan;
  plan.seed = seed;
  plan.noise.model = fault::NoiseModel::kLognormal;
  plan.noise.sigma = 0.3;
  return in;
}

// federated_flash: production-shaped arrivals (diurnal multi-tenant
// workflow releases, flash crowds, lognormal ad-hoc runtimes) at an offered
// CPU load of 0.92 on 4 FederatedScheduler cells solved on the pool; cell 1
// crashes mid-run and recovers. Exercises routing/admission, per-cell
// solves, failover and migration. Ad-hoc runtimes are scaled so the
// offered load is exactly the target: near saturation, queueing delay
// depends so steeply on load that a few percent of drift would swamp any
// change a later PR makes.
constexpr int kFlashInstances = 12;
constexpr double kFlashHorizonS = 1800.0;
constexpr double kFlashOfferedLoad = 0.92;

Instance make_federated_flash(std::uint64_t seed,
                              std::uint64_t catalogue_seed, int pool_threads) {
  Instance in;
  in.experiment = base_experiment(1000.0, 2048.0, 4.0 * kFlashHorizonS);
  workload::ProductionScenarioConfig production;
  production.num_workflows = 6;
  production.horizon_s = kFlashHorizonS;
  production.diurnal_period_s = kFlashHorizonS;
  production.workflow.cluster = in.experiment.sim.cluster;
  production.adhoc.base.rate_per_s = 1.0;
  production.adhoc.base.horizon_s = kFlashHorizonS;
  production.adhoc.diurnal_period_s = kFlashHorizonS;
  production.adhoc.flash_crowds = 1;
  production.adhoc.flash_multiplier = 4.0;
  production.adhoc.flash_duration_s = 60.0;
  in.scenario.workflows =
      workload::make_production_scenario(catalogue_seed, production).workflows;
  util::Rng rng(seed);
  in.scenario.adhoc_jobs =
      workload::make_production_adhoc_stream(rng, production.adhoc);
  const double capacity_cpu_s =
      in.experiment.sim.cluster.capacity[workload::kCpu] * kFlashHorizonS;
  double deadline_cpu_s = 0.0;
  for (const workload::Workflow& wf : in.scenario.workflows) {
    deadline_cpu_s += wf.total_demand()[workload::kCpu];
  }
  double adhoc_cpu_s = 0.0;
  for (const workload::AdhocJob& job : in.scenario.adhoc_jobs) {
    adhoc_cpu_s += job.spec.total_demand()[workload::kCpu];
  }
  const double scale =
      (kFlashOfferedLoad * capacity_cpu_s - deadline_cpu_s) / adhoc_cpu_s;
  for (workload::AdhocJob& job : in.scenario.adhoc_jobs) {
    job.spec.task.runtime_s *= scale;
  }
  in.experiment.cells = 4;
  in.experiment.async_replan = true;  // per-cell solves on the SolverPool
  in.experiment.runtime_threads = pool_threads;
  fault::CellFault crash;
  crash.cell = 1;
  crash.mode = fault::CellFaultMode::kCrash;
  crash.slot = static_cast<int>(kFlashHorizonS / 2.0 /
                                in.experiment.sim.cluster.slot_seconds);
  crash.until_slot = crash.slot + 30;
  in.experiment.sim.fault_plan.seed = seed;
  in.experiment.sim.fault_plan.cell_faults.push_back(crash);
  return in;
}

// adhoc_flood: ~100k small ad-hoc jobs beside small loose workflows on a
// 5000-core cluster, FlowTime behind the concurrent runtime in barrier mode
// with one solver thread. Ingestion, serving and the simulator step
// dominate; the LP is nearly idle. One instance suffices: its 100k-job
// stream already averages out the draw, and the workflows are fixed. The
// workflows are many and small so that the few cheap re-plans still give
// enough latency samples.
constexpr int kFloodInstances = 1;
constexpr double kFloodHorizonS = 3.0 * 3600.0;
constexpr int kFloodWorkflows = 24;

Instance make_adhoc_flood(std::uint64_t seed, std::uint64_t catalogue_seed) {
  Instance in;
  in.experiment = base_experiment(5000.0, 10240.0, 4.0 * kFloodHorizonS);
  workload::WorkflowGenConfig workflow;
  workflow.num_jobs = 6;
  workflow.cluster = in.experiment.sim.cluster;
  workflow.looseness_min = 3.0;
  workflow.looseness_max = 4.0;
  util::Rng catalogue(catalogue_seed);
  for (int id = 0; id < kFloodWorkflows; ++id) {
    in.scenario.workflows.push_back(workload::make_workflow(
        catalogue, id, id * kFloodHorizonS / kFloodWorkflows, workflow));
  }
  workload::AdhocGenConfig adhoc;
  adhoc.rate_per_s = 100000.0 / kFloodHorizonS;
  adhoc.horizon_s = kFloodHorizonS;
  adhoc.min_tasks = 2;
  adhoc.max_tasks = 20;
  adhoc.min_task_runtime_s = 10.0;
  adhoc.max_task_runtime_s = 50.0;
  util::Rng rng(seed);
  in.scenario.adhoc_jobs = workload::make_adhoc_stream(rng, adhoc);
  in.experiment.async_replan = true;
  in.experiment.async_barrier = true;
  in.experiment.runtime_threads = 1;
  return in;
}

bool known_workload(const std::string& name) {
  return name == "replan_storm" || name == "federated_flash" ||
         name == "adhoc_flood";
}

/// Generates every instance and its shared milestones, timing each step.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  int count = 0;
  if (name == "replan_storm") {
    w.driver = Driver::kSync;
    count = kStormInstances;
  } else if (name == "federated_flash") {
    w.driver = Driver::kFederated;
    count = kFlashInstances;
    w.solver_pool_threads = std::max(1, std::min(4, host_cores()) - 1);
  } else {
    w.driver = Driver::kRuntime;
    count = kFloodInstances;
    w.runtime_solver_threads = 1;
  }
  for (int i = 0; i < count; ++i) {
    const std::uint64_t sub_seed = splitmix64(seed * 1000003ULL + i);
    const std::uint64_t catalogue_seed = splitmix64(kCatalogueSeed + i);
    const double t0 = wall_now_s();
    Instance in =
        w.driver == Driver::kSync
            ? make_replan_storm(sub_seed, catalogue_seed)
        : w.driver == Driver::kFederated
            ? make_federated_flash(sub_seed, catalogue_seed,
                                   w.solver_pool_threads)
            : make_adhoc_flood(sub_seed, catalogue_seed);
    const double t1 = wall_now_s();
    in.deadlines = sched::milestone_deadlines(in.scenario, in.experiment);
    w.generate_s += t1 - t0;
    w.milestones_s += wall_now_s() - t1;
    w.instances.push_back(std::move(in));
  }
  return w;
}

// --- Spans -----------------------------------------------------------------

/// One timed call at a layer boundary. `name` is "<layer>.<call>".
struct Span {
  int id = 0;
  int parent = -1;
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span recorder for one traced pass; every span of the pass
/// carries the recorder's trace id when written out.
class Tracer {
 public:
  explicit Tracer(std::uint64_t trace_id) : trace_id_(trace_id) {
    spans_.reserve(1 << 16);
  }

  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{id, stack_.empty() ? -1 : stack_.back(), name, wall_now_s(), 0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = wall_now_s();
    stack_.pop_back();
  }

  std::uint64_t trace_id() const { return trace_id_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of the spans named `name`.
  double total_s(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) total += s.end_s - s.start_s;
    }
    return total;
  }

  /// Self time per layer: each span's duration minus the part its child
  /// spans cover (children never overlap: calls nest on one thread).
  std::map<std::string, double> self_s_by_layer() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      const std::string name = s.name;
      self[name.substr(0, name.find('.'))] +=
          s.end_s - s.start_s - child_s[static_cast<std::size_t>(s.id)];
    }
    return self;
  }

 private:
  std::uint64_t trace_id_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --- Timing decorator --------------------------------------------------------

/// Wraps the scheduler handed to Simulator::run. Always times allocate()
/// (a call during which the adopted-plan count rose is one event ->
/// adopted-plan latency sample). With a tracer it also records a span per
/// call; with `phases` set it drives that single-cell scheduler's public
/// planner phases itself (the same sequence FlowTimeScheduler::replan runs)
/// so each phase gets its own span.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(sim::Scheduler& inner, Driver driver,
                 std::function<int()> replans, Tracer* tracer,
                 core::FlowTimeScheduler* phases)
      : inner_(inner),
        replans_(std::move(replans)),
        tracer_(tracer),
        phases_(phases) {
    switch (driver) {
      case Driver::kSync:
        allocate_span_ = "core.allocate";
        arrival_span_ = "core.arrival_event";
        event_span_ = "core.event";
        break;
      case Driver::kFederated:
        allocate_span_ = "cluster.allocate";
        arrival_span_ = event_span_ = "cluster.route";
        break;
      case Driver::kRuntime:
        allocate_span_ = "runtime.allocate";
        arrival_span_ = event_span_ = "runtime.enqueue";
        break;
    }
  }

  std::string name() const override { return inner_.name(); }
  const workload::ClusterSpec* cluster_spec() const override {
    return inner_.cluster_spec();
  }

  void on_event(const sim::SchedulerEvent& event) override {
    ++events_;
    ScopedSpan span(tracer_,
                    std::holds_alternative<sim::WorkflowArrivalEvent>(event)
                        ? arrival_span_
                        : event_span_);
    inner_.on_event(event);
  }

  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override {
    const int before = replans_();
    const double start = wall_now_s();
    std::vector<sim::Allocation> out;
    {
      ScopedSpan span(tracer_, allocate_span_);
      out = phases_ != nullptr ? drive_phases(state) : inner_.allocate(state);
    }
    if (replans_() > before) latency_s_.push_back(wall_now_s() - start);
    return out;
  }

  const std::vector<double>& replan_latency_s() const { return latency_s_; }
  std::int64_t events() const { return events_; }
  const lp::SolveProfile& lp_profile() const { return lp_profile_; }

 private:
  std::vector<sim::Allocation> drive_phases(const sim::ClusterState& state) {
    {
      ScopedSpan span(tracer_, "core.sync_views");
      phases_->sync_views(state);
    }
    if (phases_->dirty()) {
      core::PendingReplan pending;
      {
        ScopedSpan span(tracer_, "core.begin_replan");
        pending = phases_->begin_replan(state);
      }
      core::PlanSolveResult solved;
      {
        ScopedSpan span(tracer_, "core.solve_replan");
        lp::ScopedSolveProfile profile("flowbench", state.slot);
        solved = core::FlowTimeScheduler::solve_replan(
            phases_->config(), &warm_cache_, pending);
        lp_profile_.add(profile.profile());
      }
      ScopedSpan span(tracer_, "core.finish_replan");
      phases_->finish_replan(pending, std::move(solved), state.now_s);
    }
    ScopedSpan span(tracer_, "core.serve");
    return phases_->serve(state);
  }

  sim::Scheduler& inner_;
  std::function<int()> replans_;
  Tracer* tracer_;
  core::FlowTimeScheduler* phases_;
  core::PlacementWarmCache warm_cache_;  // the phase driver's solve cache
  lp::SolveProfile lp_profile_;
  const char* allocate_span_ = "";
  const char* arrival_span_ = "";
  const char* event_span_ = "";
  std::vector<double> latency_s_;
  std::int64_t events_ = 0;
};

// --- One pass over a workload's instances -----------------------------------

/// Deterministic outcomes, summed over a workload's instances. Every pass,
/// traced or not, must reproduce the first pass's outcomes exactly.
struct Outcome {
  int replans = 0;
  std::int64_t pivots = 0;
  int truncated_replans = 0;
  int degraded_replans = 0;
  int decomposition_fallbacks = 0;
  int deadline_jobs = 0;
  int deadline_jobs_missed = 0;
  int workflows = 0;
  int workflows_missed = 0;
  int adhoc_jobs = 0;
  std::vector<double> adhoc_turnarounds_s;
  int incomplete_jobs = 0;
  int slots = 0;
  std::int64_t events = 0;
  int migrations = 0;
  int failovers = 0;
  int quarantines = 0;
  int cell_faults = 0;
  int downtime_cell_slots = 0;
  int plan_adopting_allocates = 0;  // replan-latency samples

  void add(const Outcome& o) {
    replans += o.replans;
    pivots += o.pivots;
    truncated_replans += o.truncated_replans;
    degraded_replans += o.degraded_replans;
    decomposition_fallbacks += o.decomposition_fallbacks;
    deadline_jobs += o.deadline_jobs;
    deadline_jobs_missed += o.deadline_jobs_missed;
    workflows += o.workflows;
    workflows_missed += o.workflows_missed;
    adhoc_jobs += o.adhoc_jobs;
    adhoc_turnarounds_s.insert(adhoc_turnarounds_s.end(),
                               o.adhoc_turnarounds_s.begin(),
                               o.adhoc_turnarounds_s.end());
    incomplete_jobs += o.incomplete_jobs;
    slots += o.slots;
    events += o.events;
    migrations += o.migrations;
    failovers += o.failovers;
    quarantines += o.quarantines;
    cell_faults += o.cell_faults;
    downtime_cell_slots += o.downtime_cell_slots;
    plan_adopting_allocates += o.plan_adopting_allocates;
  }
  bool operator==(const Outcome&) const = default;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Inputs to the per-layer split that only a traced pass collects.
struct LayerInputs {
  std::vector<double> round_wall_s;  // federated solve rounds
  std::int64_t coalesced_events = 0;
  lp::SolveProfile lp_profile;
};

struct Pass {
  // Per instance: Simulator::run wall and CPU seconds, and the latency of
  // each allocate() that adopted a plan (the same sequence every pass).
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<std::vector<double>> replan_latency_s;
  Outcome outcome;
  std::vector<Metric> layers;  // traced passes only
};

/// The program's scheduler for one instance, with accessors for its
/// planner statistics whichever driver wraps it.
struct Planner {
  std::unique_ptr<sim::Scheduler> owner;
  std::function<int()> replans;
  std::function<void(Outcome*)> stats;
  core::FlowTimeScheduler* phases = nullptr;  // traced single-cell runs
  cluster::FederatedScheduler* federated = nullptr;
  runtime::ConcurrentScheduler* runtime = nullptr;
};

void flowtime_stats(const core::FlowTimeScheduler& s, Outcome* o) {
  o->replans = s.replans();
  o->pivots = s.total_pivots();
  o->truncated_replans = s.truncated_replans();
  o->degraded_replans = s.degraded_replans();
  o->decomposition_fallbacks = s.decomposition_fallbacks();
}

/// Builds the scheduler through sched::make_scheduler. A traced
/// single-cell run instead builds the same FlowTimeScheduler with an
/// external replan driver, so the decorator can drive its phases.
Planner make_planner(Driver driver, const sched::ExperimentConfig& experiment,
                     bool drive_phases) {
  Planner p;
  if (drive_phases && driver == Driver::kSync) {
    core::FlowTimeConfig config = experiment.flowtime;
    config.external_replan_driver = true;
    auto owner = std::make_unique<core::FlowTimeScheduler>(config);
    p.phases = owner.get();
    p.owner = std::move(owner);
  } else {
    p.owner = sched::make_scheduler("FlowTime", experiment);
  }
  sim::Scheduler* s = p.owner.get();
  if (driver == Driver::kFederated) {
    auto* f = dynamic_cast<cluster::FederatedScheduler*>(s);
    p.federated = f;
    if (f != nullptr) {
      p.replans = [f] { return f->replans(); };
      p.stats = [f](Outcome* o) {
        o->replans = f->replans();
        o->pivots = f->total_pivots();
        o->truncated_replans = f->truncated_replans();
        o->degraded_replans = f->degraded_replans();
        o->decomposition_fallbacks = f->decomposition_fallbacks();
        o->migrations = f->migrations();
        o->failovers = f->failovers();
        o->quarantines = f->quarantines();
      };
    }
  } else if (driver == Driver::kRuntime) {
    auto* r = dynamic_cast<runtime::ConcurrentScheduler*>(s);
    p.runtime = r;
    if (r != nullptr) {
      p.replans = [r] { return r->inner().replans(); };
      p.stats = [r](Outcome* o) {
        r->drain_events();  // completions queued after the last allocate
        flowtime_stats(r->inner(), o);
      };
    }
  } else if (auto* f = dynamic_cast<core::FlowTimeScheduler*>(s)) {
    p.replans = [f] { return f->replans(); };
    p.stats = [f](Outcome* o) { flowtime_stats(*f, o); };
  }
  if (!p.replans) {
    std::fprintf(stderr, "flowbench: unexpected scheduler type\n");
    std::exit(2);
  }
  return p;
}

/// Simulates one instance and adds it to the pass. Exits non-zero when the
/// simulator reports a scheduler contract violation (the correctness gate).
void run_instance(const Workload& w, const Instance& in, Tracer* tracer,
                  Pass* pass, LayerInputs* layers) {
  Planner planner = make_planner(w.driver, in.experiment, tracer != nullptr);
  TimedScheduler timed(*planner.owner, w.driver, planner.replans, tracer,
                       planner.phases);
  sim::Simulator simulator(in.experiment.sim);

  const double cpu0 = cpu_now_s();
  const double t0 = wall_now_s();
  sim::SimResult result;
  {
    ScopedSpan span(tracer, "sim.run");
    result = simulator.run(in.scenario, timed);
  }
  pass->wall_s.push_back(wall_now_s() - t0);
  pass->cpu_s.push_back(cpu_now_s() - cpu0);

  if (result.capacity_violations != 0 || result.width_violations != 0 ||
      result.not_ready_allocations != 0) {
    std::fprintf(stderr,
                 "flowbench: correctness gate failed on %s: "
                 "capacity_violations=%d width_violations=%d "
                 "not_ready_allocations=%d\n",
                 w.name.c_str(), result.capacity_violations,
                 result.width_violations, result.not_ready_allocations);
    std::exit(3);
  }

  Outcome o;
  planner.stats(&o);
  const sim::DeadlineReport deadlines =
      sim::evaluate_deadlines(result, in.scenario.workflows, in.deadlines);
  o.deadline_jobs = static_cast<int>(deadlines.jobs.size());
  o.deadline_jobs_missed = deadlines.jobs_missed;
  o.workflows = static_cast<int>(deadlines.workflows.size());
  o.workflows_missed = deadlines.workflows_missed;
  const sim::AdhocReport adhoc = sim::evaluate_adhoc(result);
  o.adhoc_jobs = adhoc.total;
  o.adhoc_turnarounds_s = adhoc.turnarounds_s;
  for (const sim::JobRecord& job : result.jobs) {
    if (!job.completion_s) ++o.incomplete_jobs;
  }
  o.slots = result.slots_simulated;
  o.events = timed.events();
  o.cell_faults = result.faults.cell_faults;
  o.plan_adopting_allocates =
      static_cast<int>(timed.replan_latency_s().size());
  if (planner.federated != nullptr) {
    for (const auto& outage : planner.federated->outage_log()) {
      const int end = outage.recovered_slot >= 0 ? outage.recovered_slot
                                                 : result.slots_simulated;
      o.downtime_cell_slots += end - outage.failed_slot;
    }
    const std::vector<double>& rounds =
        planner.federated->replan_round_wall_s();
    layers->round_wall_s.insert(layers->round_wall_s.end(), rounds.begin(),
                                rounds.end());
  }
  if (planner.runtime != nullptr) {
    layers->coalesced_events += planner.runtime->coalesced_events();
  }
  layers->lp_profile.add(timed.lp_profile());
  pass->outcome.add(o);
  pass->replan_latency_s.push_back(timed.replan_latency_s());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double histogram_sum(const char* name) {
  return obs::registry().histogram(name).sum();
}

double quantile_or_zero(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : util::quantile(values, q);
}

/// Per-layer metrics of one traced pass. Spans give the time of every call
/// into a layer; work done inside another layer's call is read from the
/// registry: LP solves inside solve_replan, the per-cell solve rounds
/// inside FederatedScheduler::allocate, the runtime's solves inside
/// ConcurrentScheduler::allocate. The `*.self_s` times tile the pass's
/// wall time; the benchmark fails if they do not.
std::vector<Metric> layer_metrics(const Workload& w, const Pass& pass,
                                  const LayerInputs& in,
                                  const Tracer& tracer) {
  obs::Registry& reg = obs::registry();
  const Outcome& o = pass.outcome;
  std::map<std::string, double> self = tracer.self_s_by_layer();
  // Moves time a registry histogram attributes to `to` out of the self time
  // of the layer whose span contains it (clamped: a carve-out can only
  // reassign time the containing span actually spent).
  auto carve = [&self](const std::string& from, const std::string& to,
                       double seconds) {
    const double moved = std::min(std::max(seconds, 0.0), self[from]);
    self[from] -= moved;
    self[to] += moved;
  };
  const double simplex_s = histogram_sum("lp.simplex.solve_seconds");
  switch (w.driver) {
    case Driver::kSync:
      carve("core", "lp", simplex_s);
      break;
    case Driver::kFederated:
      carve("cluster", "core", util::sum_of(in.round_wall_s));
      break;
    case Driver::kRuntime:
      carve("runtime", "core", histogram_sum("runtime.solve_ms") / 1e3);
      break;
  }
  const double traced_wall = tracer.total_s("sim.run");
  double tiled = 0.0;
  for (const auto& [layer, seconds] : self) tiled += seconds;
  if (std::abs(tiled - traced_wall) > 1e-6 * std::max(1.0, traced_wall)) {
    std::fprintf(stderr,
                 "flowbench: layer self times (%.6f s) do not tile the "
                 "run (%.6f s)\n",
                 tiled, traced_wall);
    std::exit(4);
  }

  const lp::SolveProfile& prof = in.lp_profile;
  const double simplex_solves = reg.counter("lp.simplex.solves").value();
  const double enqueued = reg.counter("runtime.events_enqueued").value();
  obs::Histogram& queue_wait = reg.histogram("runtime.queue_wait_ms");
  const std::vector<double>& rounds = in.round_wall_s;
  return {
      {"sim.self_s", self["sim"], "s"},
      {"core.self_s", self["core"], "s"},
      {"lp.self_s", self["lp"], "s"},
      {"cluster.self_s", self["cluster"], "s"},
      {"runtime.self_s", self["runtime"], "s"},
      {"core.arrival_event_s", tracer.total_s("core.arrival_event"), "s"},
      {"core.decomposition_fallbacks",
       static_cast<double>(o.decomposition_fallbacks), "count"},
      {"core.replans", static_cast<double>(o.replans), "count"},
      {"core.sync_views_s", tracer.total_s("core.sync_views"), "s"},
      {"core.begin_replan_s", tracer.total_s("core.begin_replan"), "s"},
      {"core.solve_replan_s", tracer.total_s("core.solve_replan"), "s"},
      {"core.finish_replan_s", tracer.total_s("core.finish_replan"), "s"},
      {"core.serve_s", tracer.total_s("core.serve"), "s"},
      {"core.truncated_share", ratio(o.truncated_replans, o.replans),
       "fraction"},
      {"core.degraded_share", ratio(o.degraded_replans, o.replans),
       "fraction"},
      {"lp.solve_s", simplex_s, "s"},
      {"lp.pivots",
       static_cast<double>(reg.counter("lp.simplex.pivots").value()),
       "count"},
      {"lp.simplex_solves", simplex_solves, "count"},
      {"lp.lexmin_rounds",
       static_cast<double>(reg.counter("lp.lexmin.rounds").value()), "count"},
      {"lp.flow_fast_path_solves",
       static_cast<double>(reg.counter("lp.flow_fast_path.solves").value()),
       "count"},
      {"lp.warm_start_hit_ratio",
       ratio(reg.counter("lp.simplex.warm_starts").value(), simplex_solves),
       "fraction"},
      // The phase profile exists only where the benchmark's own thread runs
      // the solve (the single-cell phase driver); 0 elsewhere.
      {"lp.degenerate_share",
       ratio(prof.degenerate_pivots, prof.pivots), "fraction"},
      {"lp.refactorizations", static_cast<double>(prof.refactorizations),
       "count"},
      {"lp.pricing_s", prof.pricing_s, "s"},
      {"lp.ratio_test_s", prof.ratio_test_s, "s"},
      {"lp.basis_update_s", prof.basis_update_s, "s"},
      {"lp.refactor_s", prof.refactor_s, "s"},
      {"sim.slots", static_cast<double>(o.slots), "count"},
      {"sim.events", static_cast<double>(o.events), "count"},
      {"runtime.events_enqueued", enqueued, "count"},
      {"runtime.coalesced_share",
       ratio(static_cast<double>(in.coalesced_events), enqueued), "fraction"},
      {"runtime.queue_wait_ms_p50", queue_wait.percentile(0.50), "ms"},
      {"runtime.queue_wait_ms_p99", queue_wait.percentile(0.99), "ms"},
      {"runtime.adoption_lag_ms_p99",
       reg.histogram("runtime.adoption_lag_ms").percentile(0.99), "ms"},
      {"cluster.route_s", tracer.total_s("cluster.route"), "s"},
      {"cluster.replan_rounds", static_cast<double>(rounds.size()), "count"},
      {"cluster.round_wall_p50_ms", quantile_or_zero(rounds, 0.50) * 1e3,
       "ms"},
      {"cluster.round_wall_p90_ms", quantile_or_zero(rounds, 0.90) * 1e3,
       "ms"},
      {"cluster.migrations", static_cast<double>(o.migrations), "count"},
      {"cluster.failovers", static_cast<double>(o.failovers), "count"},
      {"cluster.quarantines", static_cast<double>(o.quarantines), "count"},
      {"fault.cell_faults", static_cast<double>(o.cell_faults), "count"},
      {"fault.downtime_cell_slots",
       static_cast<double>(o.downtime_cell_slots), "count"},
      // Deterministic plan quality as sim::evaluate_deadlines and the job
      // records judge it: a fixed value per seed, 0 where nothing misses.
      {"sim.deadline_job_miss_rate",
       ratio(o.deadline_jobs_missed, o.deadline_jobs), "fraction"},
      {"sim.workflow_miss_rate", ratio(o.workflows_missed, o.workflows),
       "fraction"},
      {"sim.incomplete_job_share",
       ratio(o.incomplete_jobs, o.deadline_jobs + o.adhoc_jobs), "fraction"},
  };
}

/// Simulates every instance once. A traced pass records spans, turns the
/// metrics registry on, and computes the per-layer split.
Pass run_pass(const Workload& w, Tracer* tracer) {
  Pass pass;
  LayerInputs layers;
  if (tracer != nullptr) {
    obs::registry().reset();
    obs::set_enabled(true);
  }
  for (const Instance& in : w.instances) {
    run_instance(w, in, tracer, &pass, &layers);
  }
  if (tracer != nullptr) {
    obs::set_enabled(false);
    pass.layers = layer_metrics(w, pass, layers, *tracer);
  }
  return pass;
}

/// Timings of a set of passes: per instance (and per adopted plan) the
/// fastest pass; walls are then summed over instances.
struct Timings {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<std::vector<double>> replan_latency_ms;  // per instance
};

Timings fastest_timings(const std::vector<Pass>& passes) {
  Timings t;
  const std::size_t instances = passes.front().wall_s.size();
  for (std::size_t i = 0; i < instances; ++i) {
    std::vector<double> wall, cpu;
    for (const Pass& pass : passes) {
      wall.push_back(pass.wall_s[i]);
      cpu.push_back(pass.cpu_s[i]);
    }
    t.wall_s += fastest(wall);
    t.cpu_s += fastest(cpu);
    const std::size_t plans = passes.front().replan_latency_s[i].size();
    std::vector<double>& instance_ms = t.replan_latency_ms.emplace_back();
    for (std::size_t k = 0; k < plans; ++k) {
      std::vector<double> latency;
      for (const Pass& pass : passes) {
        latency.push_back(pass.replan_latency_s[i][k] * 1e3);
      }
      instance_ms.push_back(fastest(latency));
    }
  }
  return t;
}

// --- Driver ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && known_workload(args->workload);
}

/// Set-up as a user pays it: generate every instance, compute the shared
/// milestones and construct the schedulers. Repeated; medians reported.
/// A cheap set-up is repeated many times, so its median is not a handful of
/// millisecond samples that one context switch can move.
struct Setup {
  Workload workload;
  std::vector<double> setup_s, generate_s, milestones_s;
};

Setup run_setup(const Args& args) {
  Setup setup;
  const double start = wall_now_s();
  while (setup.setup_s.size() < kSetupMinReps ||
         wall_now_s() - start < kSetupBudgetS) {
    const double t0 = wall_now_s();
    Workload w = make_workload(args.workload, args.seed);
    std::vector<std::unique_ptr<sim::Scheduler>> schedulers;
    for (const Instance& in : w.instances) {
      schedulers.push_back(sched::make_scheduler("FlowTime", in.experiment));
    }
    setup.setup_s.push_back(wall_now_s() - t0);
    setup.generate_s.push_back(w.generate_s);
    setup.milestones_s.push_back(w.milestones_s);
    schedulers.clear();
    setup.workload = std::move(w);
  }
  return setup;
}

/// Offered load of one job class: its CPU demand divided by cluster CPU
/// capacity times the arrival horizon (the span of all arrivals), summed
/// over instances.
struct Shape {
  double deadline_load = 0.0;
  double adhoc_load = 0.0;
};

Shape workload_shape(const Workload& w) {
  double deadline_cpu = 0.0;
  double adhoc_cpu = 0.0;
  double capacity = 0.0;
  for (const Instance& in : w.instances) {
    double last_arrival = 0.0;
    for (const workload::Workflow& wf : in.scenario.workflows) {
      deadline_cpu += wf.total_demand()[workload::kCpu];
      last_arrival = std::max(last_arrival, wf.start_s);
    }
    for (const workload::AdhocJob& job : in.scenario.adhoc_jobs) {
      adhoc_cpu += job.spec.total_demand()[workload::kCpu];
      last_arrival = std::max(last_arrival, job.arrival_s);
    }
    capacity += in.experiment.sim.cluster.capacity[workload::kCpu] *
                std::max(last_arrival, in.experiment.sim.cluster.slot_seconds);
  }
  return Shape{deadline_cpu / capacity, adhoc_cpu / capacity};
}

std::string outcome_summary(const Outcome& o) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "replans=%d pivots=%lld truncated=%d jobs_missed=%d/%d "
      "workflows_missed=%d/%d adhoc=%d incomplete=%d slots=%d events=%lld "
      "migrations=%d failovers=%d",
      o.replans, static_cast<long long>(o.pivots), o.truncated_replans,
      o.deadline_jobs_missed, o.deadline_jobs, o.workflows_missed,
      o.workflows, o.adhoc_jobs, o.incomplete_jobs, o.slots,
      static_cast<long long>(o.events), o.migrations, o.failovers);
  return buf;
}

void write_spans(const std::string& path, const Tracer& tracer) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "flowbench: cannot write %s\n", path.c_str());
    std::exit(5);
  }
  for (const Span& s : tracer.spans()) {
    std::fprintf(out,
                 "{\"trace\":%llu,\"span\":%d,\"parent\":%d,"
                 "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 static_cast<unsigned long long>(tracer.trace_id()), s.id,
                 s.parent, s.name, s.start_s, s.end_s);
  }
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "flowbench: cannot write %s\n", path.c_str());
    std::exit(5);
  }
}

void print_result(const Outcome& o, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(o.deadline_jobs + o.adhoc_jobs) +
                     ", \"failed\": " + std::to_string(o.incomplete_jobs) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  std::printf("%s}}\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flowbench --workload "
                 "<replan_storm|federated_flash|adhoc_flood> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <path>]\n");
    return 1;
  }
  obs::set_enabled(false);
  const Setup setup = run_setup(args);
  const Workload& w = setup.workload;

  // Passes repeat while another one fits in the measuring time. Traced mode
  // pairs an untraced and a traced pass, so the two walls compare like for
  // like.
  std::vector<Pass> plain, traced;
  std::unique_ptr<Tracer> tracer;  // the latest traced pass's spans
  double rss_untraced_mb = 0.0;    // peak RSS before any traced pass
  const double start = wall_now_s();
  while (plain.size() < kMinPasses ||
         (wall_now_s() - start) * (1.0 + 1.0 / plain.size()) <=
             args.seconds) {
    plain.push_back(run_pass(w, nullptr));
    if (traced.empty()) rss_untraced_mb = peak_rss_mb();
    if (args.trace) {
      tracer = std::make_unique<Tracer>(traced.size() + 1);
      traced.push_back(run_pass(w, tracer.get()));
    }
  }

  const Outcome& first = plain.front().outcome;
  for (const std::vector<Pass>* passes : {&plain, &traced}) {
    for (const Pass& pass : *passes) {
      if (!(pass.outcome == first)) {
        std::fprintf(stderr,
                     "flowbench: a %s pass diverged from the first pass\n"
                     "  first: %s\n  this:  %s\n",
                     passes == &plain ? "plain" : "traced",
                     outcome_summary(first).c_str(),
                     outcome_summary(pass.outcome).c_str());
        return 6;
      }
    }
  }

  const Timings timings = fastest_timings(plain);
  const Shape shape = workload_shape(w);
  const double run_wall_s = timings.wall_s;
  const double cpu_s = timings.cpu_s;
  std::vector<double> latency_ms;  // pooled over instances
  for (const std::vector<double>& xs : timings.replan_latency_ms) {
    latency_ms.insert(latency_ms.end(), xs.begin(), xs.end());
  }
  const std::vector<double>& turnaround = first.adhoc_turnarounds_s;
  const double deadline_miss_rate =
      ratio(first.deadline_jobs_missed, first.deadline_jobs);
  const double workflow_miss_rate =
      ratio(first.workflows_missed, first.workflows);
  const double incomplete_share = ratio(
      first.incomplete_jobs, first.deadline_jobs + first.adhoc_jobs);

  std::printf("workload %s seed %llu: instances=%zu deadline_load=%.3f "
              "adhoc_load=%.3f %s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.instances.size(), shape.deadline_load, shape.adhoc_load,
              outcome_summary(first).c_str());
  const double latency_p50_ms = quantile_or_zero(latency_ms, 0.50);
  const double latency_p90_ms = quantile_or_zero(latency_ms, 0.90);
  std::printf("host: nproc=%d solver_pool_threads=%d "
              "runtime_solver_threads=%d passes=%zu run_wall_s=%.4f "
              "cpu_s=%.4f replan_latency_samples=%zu "
              "replan_latency_p50_ms=%.4f replan_latency_p90_ms=%.4f\n",
              host_cores(), w.solver_pool_threads, w.runtime_solver_threads,
              plain.size(), run_wall_s, cpu_s, latency_ms.size(),
              latency_p50_ms, latency_p90_ms);
  std::printf("quality: deadline_job_miss_rate=%.6f workflow_miss_rate=%.6f "
              "incomplete_job_share=%.6f adhoc_turnaround_p50_s=%.3f "
              "adhoc_turnaround_p90_s=%.3f adhoc_turnaround_p95_s=%.3f\n",
              deadline_miss_rate, workflow_miss_rate, incomplete_share,
              quantile_or_zero(turnaround, 0.50),
              quantile_or_zero(turnaround, 0.90),
              quantile_or_zero(turnaround, 0.95));

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Miss rates and the incomplete share are deterministic per seed and
    // 0 on some workloads, and re-plan latencies of a few milliseconds
    // swing with the host's load far more than the run totals; they ride
    // with the per-layer split and the report lines above rather than here.
    metrics = {
        {"setup_s", median(setup.setup_s), "s"},
        {"run_wall_s", run_wall_s, "s"},
        {"cpu_s", cpu_s, "s"},
        {"adhoc_turnaround_p50_s", quantile_or_zero(turnaround, 0.50), "s"},
        {"adhoc_turnaround_p95_s", quantile_or_zero(turnaround, 0.95), "s"},
        {"peak_rss_mb", rss_untraced_mb, "MB"},
    };
  } else {
    metrics = {
        {"workload.generate_s", median(setup.generate_s), "s"},
        {"sched.milestones_s", median(setup.milestones_s), "s"},
        {"sched.replan_latency_p50_ms", latency_p50_ms, "ms"},
        {"sched.replan_latency_p90_ms", latency_p90_ms, "ms"},
    };
    for (std::size_t i = 0; i < traced.front().layers.size(); ++i) {
      std::vector<double> values;
      for (const Pass& pass : traced) values.push_back(pass.layers[i].value);
      Metric m = traced.front().layers[i];
      m.value = median(values);
      metrics.push_back(m);
    }
    metrics.push_back(
        {"obs.overhead_pct",
         100.0 * (fastest_timings(traced).wall_s - run_wall_s) / run_wall_s,
         "%"});
    metrics.push_back(
        {"obs.rss_delta_mb", peak_rss_mb() - rss_untraced_mb, "MB"});
    if (!args.spans_out.empty()) write_spans(args.spans_out, *tracer);
  }
  print_result(first, metrics);
  return 0;
}
