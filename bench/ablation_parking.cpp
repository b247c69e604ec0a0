//===- bench/ablation_parking.cpp - doorbell parking and wake latency -----===//
//
// Part of the manticore-gc project.
//
// Measures the runtime's one parking path -- every blocking site parks
// in the ParkLot and is rung awake -- on the two recorded topologies,
// with two workloads for the two blocking families:
//
//   ping-pong -- a blocked-receiver round trip: the main vproc and an
//                echo task exchange one message per round over two
//                channels, so every leg is a parked receiver waiting on
//                a hand-off that the sender's ring ends. us/round-trip
//                is the headline.
//
//   skewed    -- one producer vproc spawns bursts of leaf tasks while
//                every other vproc idles between bursts; the first
//                spawns of each burst ring the parked workers.
//
// The wake-us column is the measured ring-to-wake latency.
//
// Pass --quick for the CI smoke run (same table, smaller counts; the CI
// step asserts that every skewed row rang doorbells).
//
//===----------------------------------------------------------------------===//

#include "GCBenchUtils.h"
#include "gc/Handles.h"
#include "runtime/Channel.h"
#include "runtime/Parallel.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

using namespace manti;

namespace {

struct RunResult {
  double Seconds = 0;
  double MicrosPerOp = 0;
  SchedStats Sched;
};

RuntimeConfig parkingConfig(unsigned NumVProcs) {
  RuntimeConfig Cfg;
  Cfg.GC.LocalHeapBytes = 256 * 1024;
  Cfg.GC.GlobalGCBytesPerVProc = 2 * 1024 * 1024;
  Cfg.NumVProcs = NumVProcs;
  Cfg.PinThreads = false;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Workload 1: blocked-receiver ping-pong
//===----------------------------------------------------------------------===//

struct PingPongCtx {
  Channel *Ping;
  Channel *Pong;
  int Rounds;
};

/// Busy-spins for \p Micros (simulated per-request work).
void spinWork(unsigned Micros) {
  auto Until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(Micros);
  volatile int64_t Acc = 0;
  while (std::chrono::steady_clock::now() < Until)
    Acc = Acc + 1;
}

/// Think time between receiving a request and answering it, so the
/// requester genuinely blocks: it descends past blockOn's spin rounds
/// into doorbell parks. (Without think time a same-speed partner is
/// always caught in the spin phase and nobody parks.) Spun, not slept,
/// so the hand-off instant is deterministic to a few microseconds; the
/// run counts stay small because sustained spinning runs shared CI
/// containers into their CPU quota, whose throttling stalls drown the
/// wake latency.
constexpr unsigned ThinkMicros = 300;

void echoTask(Runtime &, VProc &VP, Task T) {
  auto *Ctx = static_cast<PingPongCtx *>(T.Ctx);
  for (int I = 0; I < Ctx->Rounds; ++I) {
    Value V = Ctx->Ping->recv(VP);
    spinWork(ThinkMicros);
    Ctx->Pong->send(VP, V);
  }
}

RunResult runPingPong(const Topology &Topo, unsigned NumVProcs, int Rounds) {
  Runtime RT(parkingConfig(NumVProcs), Topo);
  Channel Ping(RT), Pong(RT);
  static PingPongCtx Ctx;
  Ctx = {&Ping, &Pong, Rounds};
  static double Seconds;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        // The echo side runs wherever a worker steals it; the main
        // vproc then blocks in recv on every round trip.
        VP.spawn({echoTask, &Ctx, Value::nil(), 0, 0});
        auto Start = std::chrono::steady_clock::now();
        for (int I = 0; I < Ctx.Rounds; ++I) {
          Ctx.Ping->send(VP, Value::fromInt(I));
          Value V = Ctx.Pong->recv(VP);
          if (V.asInt() != I)
            std::abort();
        }
        Seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
      },
      nullptr);

  RunResult R;
  R.Seconds = Seconds;
  R.MicrosPerOp = 1e6 * Seconds / Rounds;
  R.Sched = RT.aggregateSchedStats();
  return R;
}

//===----------------------------------------------------------------------===//
// Workload 2: skewed producer (bursts against idle workers)
//===----------------------------------------------------------------------===//

void leafTask(Runtime &, VProc &, Task) {
  // Enough work (~20 us) that waking workers is worth it and a burst
  // does not collapse into the spawner.
  spinWork(20);
}

struct SkewCtx {
  int Bursts;
  int TasksPerBurst;
};

RunResult runSkewedProducer(const Topology &Topo, unsigned NumVProcs,
                            int Bursts, int TasksPerBurst) {
  Runtime RT(parkingConfig(NumVProcs), Topo);
  static SkewCtx Ctx;
  Ctx = {Bursts, TasksPerBurst};
  static double Seconds;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        double Sum = 0;
        for (int B = 0; B < Ctx.Bursts; ++B) {
          // Idle gap (untimed): workers descend their ladders and park,
          // so each burst measures pickup from a parked fleet.
          std::this_thread::sleep_for(std::chrono::microseconds(800));
          auto Start = std::chrono::steady_clock::now();
          static JoinCounter Join;
          for (int I = 0; I < Ctx.TasksPerBurst; ++I) {
            Join.add();
            VP.spawn({[](Runtime &RT2, VProc &VP2, Task T) {
                        leafTask(RT2, VP2, T);
                        static_cast<JoinCounter *>(T.Ctx)->sub();
                      },
                      &Join, Value::nil(), B * 1000 + I, 0});
          }
          VP.joinWait(Join);
          Sum += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
        }
        Seconds = Sum;
      },
      nullptr);

  RunResult R;
  R.Seconds = Seconds;
  R.MicrosPerOp = 1e6 * Seconds / (Bursts * TasksPerBurst);
  R.Sched = RT.aggregateSchedStats();
  return R;
}

/// One table row. The policy column always reads "doorbell", the one
/// parking path, so row labels and JSON configs stay comparable with
/// older runs of this bench.
void printRow(benchutil::JsonReport &Json, const char *Machine,
              const char *Workload, int Ops, const RunResult &R) {
  const char *Policy = "doorbell";
  const SchedStats &S = R.Sched;
  Json.addRow(Machine, std::string(Policy) + "/" + Workload,
              {{"ops", static_cast<double>(Ops)},
               {"seconds", R.Seconds},
               {"us_per_op", R.MicrosPerOp},
               {"parks", static_cast<double>(S.Parks)},
               {"ring_wakeups", static_cast<double>(S.RingWakeups)},
               {"wake_us", S.meanRingWakeupMicros()},
               {"rings_sent", static_cast<double>(S.RingsSent)},
               {"rings_wasted", static_cast<double>(S.RingsWasted)}});
  std::printf("%-10s %-10s %-10s %8d %9.3f %9.2f %8llu %9llu %9.1f %8llu "
              "%8llu\n",
              Machine, Policy, Workload, Ops, R.Seconds, R.MicrosPerOp,
              static_cast<unsigned long long>(S.Parks),
              static_cast<unsigned long long>(S.RingWakeups),
              S.meanRingWakeupMicros(),
              static_cast<unsigned long long>(S.RingsSent),
              static_cast<unsigned long long>(S.RingsWasted));
}

} // namespace

int main(int argc, char **argv) {
  benchutil::BenchOptions Opts = benchutil::BenchOptions::parse(
      argc, argv, "ablation_parking",
      "Doorbell parking: blocked-receiver round trips and burst pickup, "
      "with ring-to-wake latency.");
  const bool Quick = Opts.Quick;
  benchutil::JsonReport Json("ablation_parking", Opts.JsonPath);

  // Modest default counts: the ping-pong spins think-time continuously,
  // and on a CPU-quota-limited container a long sustained run gets
  // throttled, which drowns the wake latency in noise. Raise
  // the counts on dedicated hardware.
  const int Rounds = Quick ? 200 : 400;
  const int Bursts = Quick ? 10 : 30;
  const int TasksPerBurst = Quick ? 32 : 64;

  std::printf("Parking: ParkLot doorbells and ring-to-wake latency%s\n",
              Quick ? " [--quick]" : "");
  std::printf("ping-pong: blocked-receiver round trips (us/op = "
              "us/round-trip); skewed: producer bursts\n"
              "against parked workers (us/op = us/task)\n\n");
  std::printf("%-10s %-10s %-10s %8s %9s %9s %8s %9s %9s %8s %8s\n",
              "machine", "policy", "workload", "ops", "seconds", "us/op",
              "parks", "ring-wake", "wake-us", "rings", "wasted");

  struct MachineDef {
    const char *Name;
    Topology Topo;
    unsigned PingVProcs;
    unsigned SkewVProcs;
  };
  // Ping-pong uses two vprocs (requester node 0, echo node 1 -- the
  // sparse assignment spreads them), so the round-trip latency is not
  // polluted by idle third parties; the skewed producer runs a fleet.
  const MachineDef Machines[2] = {
      {"amd48", Topology::amdMagnyCours48(), 2, 16},
      {"intel32", Topology::intelXeon32(), 2, 8},
  };

  // Warm-up (discarded): thread creation and first-touch noise.
  (void)runPingPong(Machines[0].Topo, 2, Quick ? 50 : 200);

  // Median-of-N per configuration: on a shared host the OS scheduler
  // adds large per-run jitter. The median keeps a representative run
  // (the minimum would select the lucky runs where the partner was
  // always caught in the spin phase and the parking machinery under
  // test never engaged).
  const int Reps = 3;
  auto BestOf = [&](auto Run) {
    std::vector<RunResult> Rs;
    for (int R = 0; R < Reps; ++R)
      Rs.push_back(Run());
    std::sort(Rs.begin(), Rs.end(),
              [](const RunResult &A, const RunResult &B) {
                return A.Seconds < B.Seconds;
              });
    return Rs[Rs.size() / 2];
  };

  for (const MachineDef &M : Machines) {
    if (!Opts.runsTopology(M.Name))
      continue;
    printRow(Json, M.Name, "ping-pong", Rounds, BestOf([&] {
               return runPingPong(M.Topo, M.PingVProcs, Rounds);
             }));
    printRow(Json, M.Name, "skewed", Bursts * TasksPerBurst, BestOf([&] {
               return runSkewedProducer(M.Topo, M.SkewVProcs, Bursts,
                                        TasksPerBurst);
             }));
  }

  std::printf(
      "\nThe ping-pong hand-off rings the receiver's node doorbell and\n"
      "the futex wait ends in microseconds (the wake-us column is the\n"
      "measured ring-to-wake latency). The skewed rows exercise the\n"
      "spawn-ring path (rings sent / wasted, wake-one per ring); note\n"
      "that on an oversubscribed host the spawner can drain small bursts\n"
      "alone, so waking workers there mostly measures ring accounting,\n"
      "not pickup speedup -- dedicated cores are where burst pickup gains\n"
      "show.\n");
  return Json.write() ? 0 : 1;
}
