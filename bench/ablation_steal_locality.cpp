//===- bench/ablation_steal_locality.cpp - steal victim-selection ablation -===//
//
// Part of the manticore-gc project.
//
// PR 1 made the *memory* side NUMA-aware (per-node chunk shards); this
// ablation measures the *computation* side. With uniform-random victim
// selection a steal is as likely to drag an environment (and its
// subsequent promotions) across the interconnect as to stay on-node;
// with the Scheduler's proximity tiers a thief probes its own node
// first. The workload hands every vproc its own producer task (queued
// directly on each vproc before the run starts) with unequal leaf
// counts: vprocs that drain early become thieves, and the policy
// decides whether they refill from their node's still-loaded producers
// or from across the interconnect. (On this single-core host wall
// clock is not meaningful; the SchedStats locality counters are the
// observable.)
//
//===----------------------------------------------------------------------===//

#include "GCBenchUtils.h"
#include "gc/GCReport.h"
#include "gc/Handles.h"
#include "numa/TrafficMatrix.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace manti;

namespace {

int LeavesBase = 320;      ///< shortest producer's leaf count (--quick: 96)
constexpr int EnvLen = 24; ///< ints per task environment
int LeafWork = 300;        ///< env traversals per leaf (--quick: 80)

/// Producer I queues LeavesBase * (1|3|5) leaves: the imbalance that
/// keeps short-producer vprocs stealing while their peers still produce.
int leavesFor(unsigned Producer) {
  return LeavesBase * (1 + 2 * (Producer % 3));
}

std::atomic<int64_t> Remaining;

int64_t envSum(Value List) {
  int64_t Sum = 0;
  while (!List.isNil()) {
    Sum += VecRef<>::getInt(List, 0);
    List = VecRef<>::get(List, 1);
  }
  return Sum;
}

void leafTask(Runtime &, VProc &, Task T) {
  // Traverse the (possibly stolen) environment: enough work that loaded
  // queues persist across OS timeslices on a small host.
  int64_t Sum = 0;
  for (int I = 0; I < LeafWork; ++I)
    Sum += envSum(T.Env);
  if (Sum < 0)
    std::abort(); // keep the reads observable
  Remaining.fetch_sub(1, std::memory_order_relaxed);
}

void producerTask(Runtime &, VProc &VP, Task T) {
  // Queue a deep run of leaves. The owner works the LIFO end while
  // thieves take batches from the FIFO end.
  RootScope Scope(VP.heap());
  for (int64_t L = 0; L < T.A; ++L) {
    Ref<> Env = Scope.root(benchutil::makeIntListB(VP.heap(), EnvLen));
    VP.spawn({leafTask, nullptr, Env, 0, 0});
  }
  Remaining.fetch_sub(1, std::memory_order_relaxed);
}

struct RunResult {
  SchedStats Sched;
  double RemoteTrafficFraction = 0;
};

RunResult runTree(const Topology &Topo, unsigned NumVProcs,
                  bool LocalStealFirst, unsigned StealBatch) {
  RuntimeConfig Cfg;
  Cfg.GC.LocalHeapBytes = 256 * 1024;
  Cfg.GC.GlobalGCBytesPerVProc = 1024 * 1024;
  Cfg.NumVProcs = NumVProcs;
  Cfg.PinThreads = false;
  Cfg.LocalStealFirst = LocalStealFirst;
  Cfg.StealBatch = StealBatch;
  Runtime RT(Cfg, Topo);

  int64_t TotalTasks = 0;
  for (unsigned I = 0; I < NumVProcs; ++I)
    TotalTasks += 1 + leavesFor(I);
  Remaining.store(TotalTasks, std::memory_order_relaxed);

  // Place one producer on every vproc up front (the workers are idling
  // between runs, so their queues are quiet): the run starts with every
  // node loaded, and stealing only redistributes the unequal tails.
  for (unsigned I = 0; I < NumVProcs; ++I)
    RT.vproc(I).spawn({producerTask, nullptr, Value::nil(),
                       leavesFor(I), 0});

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        while (Remaining.load(std::memory_order_relaxed) > 0) {
          VP.poll(); // answer thieves between local tasks
          if (VP.runOneLocal())
            continue;
          if (Remaining.load(std::memory_order_relaxed) <= 0)
            break;
          if (!VP.stealAndRun())
            std::this_thread::yield();
        }
      },
      nullptr);

  RunResult R;
  R.Sched = RT.aggregateSchedStats();
  TrafficMatrix &Traffic = RT.world().traffic();
  uint64_t Total = Traffic.totalBytes();
  R.RemoteTrafficFraction =
      Total ? static_cast<double>(Traffic.remoteBytes()) /
                  static_cast<double>(Total)
            : 0;
  return R;
}

void printRow(benchutil::JsonReport &Json, const char *Machine,
              const char *Policy, unsigned Batch, const RunResult &R) {
  const SchedStats &S = R.Sched;
  Json.addRow(Machine,
              std::string(Policy) + "/batch" + std::to_string(Batch),
              {{"tasks_stolen", static_cast<double>(S.TasksStolen)},
               {"steal_batches", static_cast<double>(S.StealBatches)},
               {"mean_batch", S.meanStealBatch()},
               {"node_local_pct", 100.0 * S.nodeLocalFraction()},
               {"failed_rounds", static_cast<double>(S.FailedStealRounds)},
               {"parks", static_cast<double>(S.Parks)},
               {"park_ms", static_cast<double>(S.ParkNanos) / 1e6},
               {"remote_traffic_pct", 100.0 * R.RemoteTrafficFraction}});
  std::printf(
      "%-10s %-14s %5u  %7llu %7llu %9.2f %11.1f%% %8llu %7llu %9.1f %9.1f%%\n",
      Machine, Policy, Batch,
      static_cast<unsigned long long>(S.TasksStolen),
      static_cast<unsigned long long>(S.StealBatches), S.meanStealBatch(),
      100.0 * S.nodeLocalFraction(),
      static_cast<unsigned long long>(S.FailedStealRounds),
      static_cast<unsigned long long>(S.Parks),
      static_cast<double>(S.ParkNanos) / 1e6,
      100.0 * R.RemoteTrafficFraction);
}

} // namespace

int main(int argc, char **argv) {
  benchutil::BenchOptions Opts = benchutil::BenchOptions::parse(
      argc, argv, "ablation_steal_locality",
      "Work-stealing victim-selection ablation: proximity tiers vs "
      "uniform-random.");
  const bool Quick = Opts.Quick;
  if (Quick) {
    // CI smoke sizing: same sweep, counts small enough for a shared
    // container; the locality counters stay meaningful.
    LeavesBase = 96;
    LeafWork = 80;
  }
  benchutil::JsonReport Json("ablation_steal_locality", Opts.JsonPath);
  std::printf("Ablation: work-stealing victim selection "
              "(proximity tiers vs uniform-random)%s\n",
              Quick ? " [--quick]" : "");
  std::printf("Workload: one producer per vproc (%d/%d/%d-leaf mix), "
              "%d-int environments; lazy promotion\n\n",
              leavesFor(0), leavesFor(1), leavesFor(2), EnvLen);
  std::printf("%-10s %-14s %5s  %7s %7s %9s %12s %8s %7s %9s %10s\n",
              "machine", "victim policy", "batch", "stolen", "batches",
              "avg/batch", "node-local", "failed", "parks", "park ms",
              "remote traffic");

  Topology Amd = Topology::amdMagnyCours48();
  Topology Intel = Topology::intelXeon32();

  // Warm-up (discarded): first-run thread creation and page-fault noise
  // otherwise lands in the first measured row.
  (void)runTree(Amd, 24, true, 4);

  // The headline comparison of the two policies, plus a batch sweep on
  // the AMD machine (24 vprocs = 3 per node; 16 on Intel = 4 per node).
  if (Opts.runsTopology("amd48"))
    for (bool Local : {true, false})
      printRow(Json, "amd48", Local ? "proximity" : "uniform", 4,
               runTree(Amd, 24, Local, 4));
  if (Opts.runsTopology("intel32"))
    for (bool Local : {true, false})
      printRow(Json, "intel32", Local ? "proximity" : "uniform", 4,
               runTree(Intel, 16, Local, 4));
  if (Opts.runsTopology("amd48"))
    for (unsigned Batch : {1u, 8u})
      printRow(Json, "amd48", "proximity", Batch,
               runTree(Amd, 24, true, Batch));

  std::printf(
      "\nWith proximity tiers (and the remote-steal throttle), a thief\n"
      "probes its own node's vprocs every round but unlocks farther tiers\n"
      "only after going empty-handed for a while, so vprocs that drain\n"
      "early refill from their node's producers and stolen environments\n"
      "(and their later promotions) stay off the interconnect.\n"
      "Uniform-random selection is load- and topology-blind (expect\n"
      "~1/num-nodes node-local): most steals ship their environment\n"
      "across a link, which the traffic ledger's (victim node -> thief\n"
      "node) entries record.\n");
  return Json.write() ? 0 : 1;
}
