//===- perfbench/perfbench.cpp - the host benchmark program ---------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload on Topology::host() and prints one JSON
/// record on its last output line: provenance, the output checks
/// (attempted / failed), and every metric with its unit.
///
///   perfbench --workload raytrace|quicksort|kv-serve --seed N
///             --seconds S --trace 0|1 [--rate R --ladder a,b,..
///             --p99-limit-ms L]
///
/// Workloads:
///   raytrace   runRaytracer (parallelReduce over rows, rope concat);
///              every frame is checked against a serial tracePixel render
///              of the same scene.
///   quicksort  the NESL quicksort over a seed-generated rope; every
///              output is checked for order, checksum and length.
///   kv-serve   an open-loop Poisson generator driving the NUMA-sharded
///              KVStore through Channels (workers poll tryRecv) at a fixed
///              absolute rate, then back to back for capacity, with the
///              concurrent global collector on; every sent request must
///              complete and no get may see a corruption.
///
/// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
/// (--trace 1) split the measured phase into an untraced and a traced
/// half, diff the program's own counters (buildGCReport,
/// Runtime::aggregateSchedStats) across the traced half, time the
/// benchmark's calls into the store and channels, add a 1-vproc solve for
/// the speedup, and walk the kv rate ladder. Spans inside src/ are not
/// recorded: every span here wraps a public call the benchmark makes.
///
//===----------------------------------------------------------------------===//

#include "gc/GCReport.h"
#include "gc/Handles.h"
#include "numa/Topology.h"
#include "runtime/Channel.h"
#include "runtime/Rope.h"
#include "runtime/Runtime.h"
#include "service/KVStore.h"
#include "service/LatencyRecorder.h"
#include "service/TrafficGen.h"
#include "support/XorShift.h"
#include "workloads/Quicksort.h"
#include "workloads/Raytracer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

using namespace manti;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile (the same rule LatencyRecorder uses).
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  auto Rank = static_cast<std::size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  Rank = std::clamp<std::size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

/// Fork-join latency windows: consecutive solves in groups of this many.
constexpr std::size_t SolveWindow = 4;

/// The median over consecutive windows of \p SolveWindow samples (the
/// last window takes the remainder) of each window's \p P-th percentile:
/// with tens of solves per run a plain p99 is the single slowest solve,
/// which follows one burst of host preemption.
double windowedPercentile(const std::vector<double> &V, double P) {
  std::size_t NumWindows = std::max<std::size_t>(1, V.size() / SolveWindow);
  std::vector<double> PerWindow;
  for (std::size_t W = 0; W < NumWindows; ++W) {
    auto Begin = V.begin() + static_cast<std::ptrdiff_t>(W * SolveWindow);
    auto End = W + 1 == NumWindows ? V.end() : Begin + SolveWindow;
    PerWindow.push_back(percentile({Begin, End}, P));
  }
  return median(PerWindow);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

constexpr double MiB = 1024.0 * 1024.0;

/// Set-ups per run; setup_s is the median of the timed ones. The first
/// set-ups of a process are cold (the first kv-serve four read about 1.5x
/// the rest as the allocator and chunk pools warm up), so a few untimed
/// ones come first and the median does not straddle the two groups.
constexpr unsigned SetupWarmups = 5, SetupReps = 11;

//===----------------------------------------------------------------------===//
// Options and output
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  // kv-serve: fixed absolute rates, never calibrated per run.
  double RateRps = 0.0;
  std::vector<double> Ladder;
  double P99LimitMs = 0.0;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg);
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace")
      O.Trace = std::atoi(V) != 0;
    else if (A == "--rate")
      O.RateRps = std::atof(V);
    else if (A == "--p99-limit-ms")
      O.P99LimitMs = std::atof(V);
    else if (A == "--ladder") {
      for (const char *P = V; *P;) {
        char *End = nullptr;
        O.Ladder.push_back(std::strtod(P, &End));
        if (End == P)
          usage("bad --ladder list");
        P = *End == ',' ? End + 1 : End;
      }
    } else
      usage(("unknown option " + A).c_str());
  }
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  return O;
}

/// Named metrics with units, rendered as the record's "metrics" object.
class Metrics {
public:
  void add(std::string Name, double Value, std::string Unit) {
    Entries.push_back({std::move(Name), Value, std::move(Unit)});
  }
  std::string json() const {
    std::string Out = "{";
    char Buf[64];
    for (std::size_t I = 0; I < Entries.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf), "%.9g",
                    std::isfinite(Entries[I].Value) ? Entries[I].Value : 0.0);
      Out += (I ? ", \"" : "\"") + Entries[I].Name + "\": {\"value\": " +
             Buf + ", \"unit\": \"" + Entries[I].Unit + "\"}";
    }
    return Out + "}";
  }

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
};

unsigned hostCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The host's cpu time counters (/proc/stat, all cpus, in ticks).
struct CpuTicks {
  uint64_t Steal = 0, Total = 0;
  static CpuTicks read() {
    CpuTicks T;
    std::FILE *F = std::fopen("/proc/stat", "r");
    if (!F)
      return T;
    unsigned long long V[8] = {};
    if (std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                    &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]) == 8) {
      T.Steal = V[7];
      for (unsigned long long X : V)
        T.Total += X;
    }
    std::fclose(F);
    return T;
  }
};

/// The share of the host's cpu time a hypervisor took from its vcpus
/// since \p From (-1 where the counters cannot be read): on a shared
/// virtual machine, the run's latencies follow it.
double stealFrac(const CpuTicks &From) {
  CpuTicks Now = CpuTicks::read();
  if (Now.Total <= From.Total)
    return -1.0;
  return static_cast<double>(Now.Steal - From.Steal) /
         static_cast<double>(Now.Total - From.Total);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Counter snapshots (the program's own exported statistics)
//===----------------------------------------------------------------------===//

/// The report and scheduler counters at one instant (runtime quiescent,
/// i.e. between RT.run calls).
struct Snapshot {
  Report R;
  SchedStats S;
  static Snapshot take(Runtime &RT) {
    SchedStats S = RT.aggregateSchedStats();
    return {buildGCReport(RT.world(), S), S};
  }
  /// A report metric; a missing key means the report changed shape, so
  /// the run stops instead of reporting a silent zero.
  double v(const char *Key) const {
    if (!R.has(Key)) {
      std::fprintf(stderr, "perfbench: report has no metric '%s'\n", Key);
      std::exit(3);
    }
    return R.value(Key);
  }
  /// count x mean pause of one phase, in ms (DurationStat keeps only
  /// count, mean and max).
  double totalMs(const std::string &Phase) const {
    return v((Phase + ".collections").c_str()) *
           v((Phase + ".mean_pause_us").c_str()) / 1e3;
  }
};

/// Adds the gc.* and numa.* per-layer metrics for the interval
/// [\p A, \p B] of a run that kept \p VProcs vprocs busy for \p WallS.
void addCollectorMetrics(Metrics &M, const Snapshot &A, const Snapshot &B,
                         unsigned VProcs, double WallS) {
  auto D = [&](const char *Key) { return B.v(Key) - A.v(Key); };
  auto DTotal = [&](const char *Phase) {
    return B.totalMs(Phase) - A.totalMs(Phase);
  };
  M.add("gc.alloc_local_mb", D("allocation.local_bytes") / MiB, "MiB");
  double Hits = D("alloc.sizeclass.hits"), Misses = D("alloc.sizeclass.misses");
  M.add("gc.sizeclass_hit_ratio", ratio(Hits, Hits + Misses), "ratio");
  M.add("gc.minor.count", D("minor.collections"), "count");
  M.add("gc.minor.total_ms", DTotal("minor"), "ms");
  M.add("gc.minor.copied_mb", D("minor.copied_bytes") / MiB, "MiB");
  M.add("gc.major.count", D("major.collections"), "count");
  M.add("gc.major.total_ms", DTotal("major"), "ms");
  M.add("gc.major.promoted_mb", D("major.copied_bytes") / MiB, "MiB");
  double Concurrent = D("global.concurrent");
  M.add("gc.global.count", D("global.completed") - Concurrent, "count");
  M.add("gc.global.total_ms", DTotal("global"), "ms");
  M.add("gc.global.copied_mb", D("global.copied_bytes") / MiB, "MiB");
  M.add("gc.global.concurrent_cycles", Concurrent, "count");
  M.add("gc.promote.count", D("promotion.collections"), "count");
  M.add("gc.promote.mb", D("promotion.copied_bytes") / MiB, "MiB");
  M.add("gc.promote.total_ms", DTotal("promotion"), "ms");
  double GcMs = DTotal("minor") + DTotal("major") + DTotal("promotion") +
                DTotal("global");
  M.add("gc.time_frac", ratio(GcMs, 1e3 * WallS * VProcs), "ratio");
  // Maxima cannot be diffed; they cover the runtime's whole life.
  M.add("gc.pause.max_ms", B.v("pause.max_us") / 1e3, "ms");
  M.add("gc.pause.rendezvous_max_ms", B.v("pause.rendezvous_us") / 1e3, "ms");
  M.add("gc.pause.mark_max_ms", B.v("pause.mark_us") / 1e3, "ms");
  M.add("gc.pause.sweep_max_ms", B.v("pause.sweep_us") / 1e3, "ms");

  M.add("numa.chunks_created", D("global_heap.chunks_created"), "count");
  M.add("numa.chunks_node_local", D("global_heap.node_local_reuses"), "count");
  M.add("numa.chunks_cross_node", D("global_heap.cross_node_steals"), "count");
  M.add("numa.chunks_fresh", D("global_heap.fresh_mappings"), "count");
  // Absent until some inter-node traffic was recorded.
  M.add("numa.remote_traffic_pct",
        B.R.value("inter_node_traffic.remote_pct"), "%");
  M.add("numa.active_mb", B.v("global_heap.active_bytes") / MiB, "MiB");
}

/// Adds the runtime.* scheduler metrics for [\p A, \p B].
void addSchedulerMetrics(Metrics &M, const SchedStats &A, const SchedStats &B,
                         unsigned VProcs, double WallS) {
  auto D = [](uint64_t X, uint64_t Y) { return static_cast<double>(Y - X); };
  double Batches = D(A.StealBatches, B.StealBatches);
  double Failed = D(A.FailedStealRounds, B.FailedStealRounds);
  double ParkMs = D(A.ParkNanos, B.ParkNanos) / 1e6;
  double Wakeups = D(A.RingWakeups, B.RingWakeups);
  M.add("runtime.tasks_stolen", D(A.TasksStolen, B.TasksStolen), "count");
  M.add("runtime.steal_batches", Batches, "count");
  M.add("runtime.failed_steal_rounds", Failed, "count");
  M.add("runtime.steal_success_ratio", ratio(Batches, Batches + Failed),
        "ratio");
  M.add("runtime.park_ms", ParkMs, "ms");
  M.add("runtime.busy_frac", 1.0 - ratio(ParkMs, 1e3 * WallS * VProcs),
        "ratio");
  M.add("runtime.parks", D(A.Parks, B.Parks), "count");
  M.add("runtime.mean_wake_us",
        ratio(D(A.RingWakeupNanos, B.RingWakeupNanos) / 1e3, Wakeups), "us");
  M.add("runtime.ring_waste_ratio",
        ratio(D(A.RingsWasted, B.RingsWasted), D(A.RingsSent, B.RingsSent)),
        "ratio");
}

/// Brackets one RT.run call: entry, main's first and last instruction,
/// and return, so the run/drain overhead can be split from the work.
struct RunTimer {
  Clock::time_point Enter, MainStart, MainEnd, Exit;
  double drainMs() const {
    return 1e3 * (secondsBetween(Enter, MainStart) +
                  secondsBetween(MainEnd, Exit));
  }
  double wallS() const { return secondsBetween(Enter, Exit); }
};

template <class Ctx> void timedRun(Runtime &RT, MainFn Main, Ctx &C) {
  C.Timer.Enter = Clock::now();
  RT.run(Main, &C);
  C.Timer.Exit = Clock::now();
}

struct PhaseResult;
void addServiceMetrics(Metrics &M, const PhaseResult *Tr);

//===----------------------------------------------------------------------===//
// Fork-join workloads: raytrace and quicksort
//===----------------------------------------------------------------------===//

struct Solve {
  double Seconds = 0; ///< the solve call(s) alone
  double WallS = 0;   ///< the whole RT.run(s)
  double DrainMs = 0; ///< mean RT.run entry/exit overhead
  unsigned Outputs = 1;
  unsigned Failed = 0; ///< outputs that failed their check
};

/// runRaytracer over a set of seed-generated scenes: one solve renders
/// every scene once (one RT.run per frame), so a run's figures average
/// over scenes instead of following one scene's luck. Each frame's
/// checksum is compared with a serial tracePixel render of its scene.
class RaytraceBench {
public:
  static constexpr unsigned Scenes = 16;
  explicit RaytraceBench(uint64_t Seed) {
    for (unsigned I = 0; I < Scenes; ++I) {
      workloads::RaytracerParams P; // the paper's 512 x 512 frame
      P.Seed = Seed * Scenes + I;
      Frames.push_back({P, {}, 0});
    }
  }
  double items() const {
    return static_cast<double>(Scenes) * Frames[0].P.Width *
           Frames[0].P.Height;
  }

  /// Inputs: the scenes (runRaytracer rebuilds each from its params,
  /// deterministically).
  void prepare(Runtime &) {
    for (Frame &F : Frames)
      F.Scene = workloads::makeScene(F.P);
  }

  /// The serial references (an output check, not set-up).
  void reference() {
    for (Frame &F : Frames) {
      F.RefChecksum = 0;
      for (int Y = 0; Y < F.P.Height; ++Y)
        for (int X = 0; X < F.P.Width; ++X)
          F.RefChecksum += workloads::tracePixel(F.Scene, X, Y, F.P);
    }
  }

  Solve solve(Runtime &RT) {
    Solve Out;
    Out.Outputs = Scenes;
    for (const Frame &F : Frames) {
      struct Ctx {
        const workloads::RaytracerParams *P;
        workloads::RaytracerResult Res;
        RunTimer Timer;
      } C{&F.P, {}, {}};
      timedRun(RT,
               [](Runtime &RT, VProc &VP, void *CP) {
                 auto &C = *static_cast<Ctx *>(CP);
                 C.Timer.MainStart = Clock::now();
                 C.Res = workloads::runRaytracer(RT, VP, *C.P);
                 C.Timer.MainEnd = Clock::now();
               },
               C);
      Out.Seconds += C.Res.Seconds;
      Out.WallS += C.Timer.wallS();
      Out.DrainMs += C.Timer.drainMs() / Scenes;
      bool Ok = C.Res.Checksum == F.RefChecksum &&
                C.Res.Pixels == static_cast<int64_t>(F.P.Width) * F.P.Height;
      Out.Failed += Ok ? 0 : 1;
    }
    return Out;
  }

private:
  struct Frame {
    workloads::RaytracerParams P;
    std::vector<workloads::Sphere> Scene;
    uint64_t RefChecksum;
  };
  std::vector<Frame> Frames;
};

/// The NESL quicksort (workloads::quicksort, the sort runQuicksort times)
/// over a set of seed-generated inputs, sorted in rotation: set-up
/// generates the inputs, each solve builds one input's rope (untimed),
/// sorts it, and applies runQuicksort's Sorted check: non-decreasing
/// order, preserved checksum and length. Heap growth depends on the
/// input's partition shapes, so rotating inputs keeps peak memory from
/// following one input's luck.
class QuicksortBench {
public:
  static constexpr unsigned NumInputs = 4;
  explicit QuicksortBench(uint64_t Seed) : Seed(Seed) {}
  double items() const { return static_cast<double>(NumElements); }

  void prepare(Runtime &) {
    Inputs.assign(NumInputs, {});
    for (unsigned I = 0; I < NumInputs; ++I) {
      XorShift64 Rng(Seed * NumInputs + I);
      Input &In = Inputs[I];
      In.Data.resize(static_cast<std::size_t>(NumElements));
      for (uint64_t &W : In.Data) {
        W = Rng.next() >> 8; // positive as int64, as runQuicksort generates
        In.CheckIn += W;
      }
    }
  }

  void reference() {}

  Solve solve(Runtime &RT) {
    struct Ctx {
      const Input *In;
      double Seconds = 0;
      bool Ok = false;
      RunTimer Timer;
    } C{&Inputs[Next++ % NumInputs], 0, false, {}};
    timedRun(RT,
             [](Runtime &RT, VProc &VP, void *CP) {
               auto &C = *static_cast<Ctx *>(CP);
               C.Timer.MainStart = Clock::now();
               RootScope S(VP.heap());
               Ref<> In = rope::fromArray(S, C.In->Data.data(), NumElements);
               auto T0 = Clock::now();
               Ref<> Out = S.root(workloads::quicksort(RT, VP, In, Cutoff));
               C.Seconds = secondsBetween(T0, Clock::now());
               C.Ok = check(Out, C.In->CheckIn);
               C.Timer.MainEnd = Clock::now();
             },
             C);
    return {C.Seconds, C.Timer.wallS(), C.Timer.drainMs(), 1, C.Ok ? 0u : 1u};
  }

private:
  struct Input {
    std::vector<uint64_t> Data;
    uint64_t CheckIn = 0;
  };

  static bool check(const Ref<> &Sorted, uint64_t CheckIn) {
    int64_t Len = rope::length(Sorted);
    if (Len != NumElements)
      return false;
    std::vector<uint64_t> Out(static_cast<std::size_t>(Len));
    rope::toArray(Sorted, Out.data());
    uint64_t Sum = 0;
    for (uint64_t W : Out)
      Sum += W;
    return Sum == CheckIn &&
           std::is_sorted(Out.begin(), Out.end(), [](uint64_t A, uint64_t B) {
             return static_cast<int64_t>(A) < static_cast<int64_t>(B);
           });
  }

  static constexpr int64_t NumElements = 2000000;
  static constexpr int64_t Cutoff = workloads::QuicksortParams{}.Cutoff;
  uint64_t Seed;
  std::vector<Input> Inputs;
  unsigned Next = 0;
};

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void count(const Solve &S) {
    Attempted += S.Outputs;
    Failed += S.Failed;
  }
};

RuntimeConfig runtimeConfig(unsigned VProcs, bool ConcurrentGlobal) {
  RuntimeConfig Cfg;
  Cfg.NumVProcs = VProcs;
  Cfg.PinThreads = true;
  Cfg.GC.ConcurrentGlobal = ConcurrentGlobal;
  return Cfg;
}

/// Set-up (runtime construction plus the workload's inputs), repeated
/// SetupWarmups + SetupReps times; \returns the last runtime and the
/// median of the timed set-ups.
template <class PrepareFn>
std::unique_ptr<Runtime> setUp(const RuntimeConfig &Cfg, const Topology &Topo,
                               PrepareFn Prepare,
                               double &MedianS) {
  std::vector<double> Times;
  std::unique_ptr<Runtime> RT;
  for (unsigned I = 0; I < SetupWarmups + SetupReps; ++I) {
    RT.reset(); // tear the previous one down outside the timed window
    auto T0 = Clock::now();
    RT = std::make_unique<Runtime>(Cfg, Topo);
    Prepare(*RT);
    if (I >= SetupWarmups)
      Times.push_back(secondsBetween(T0, Clock::now()));
  }
  MedianS = median(Times);
  return RT;
}

template <class Bench>
std::vector<Solve> solveRepeatedly(Bench &B, Runtime &RT, Tally &T,
                                   double Seconds, unsigned MinSolves) {
  std::vector<Solve> Out;
  auto T0 = Clock::now();
  while (Out.size() < MinSolves ||
         secondsBetween(T0, Clock::now()) < Seconds) {
    Out.push_back(B.solve(RT));
    T.count(Out.back());
  }
  return Out;
}

std::vector<double> solveSeconds(const std::vector<Solve> &V) {
  std::vector<double> Out;
  for (const Solve &S : V)
    Out.push_back(S.Seconds);
  return Out;
}

template <class Bench>
void runForkJoin(const Options &O, const Topology &Topo, unsigned VProcs,
                Metrics &M, Tally &T) {
  Bench B(O.Seed);
  double SetupS = 0;
  std::unique_ptr<Runtime> RT =
      setUp(runtimeConfig(VProcs, false), Topo,
            [&](Runtime &R) { B.prepare(R); }, SetupS);
  B.reference();
  T.count(B.solve(*RT)); // warm-up: caches, heap pages, lazy set-up

  if (!O.Trace) {
    std::vector<double> Secs =
        solveSeconds(solveRepeatedly(B, *RT, T, O.Seconds, 5));
    double Med = median(Secs);
    M.add("setup_s", SetupS, "s");
    M.add("items_per_s", B.items() / Med, "1/s");
    M.add("p50_ms", 1e3 * Med, "ms");
    M.add("p99_ms", 1e3 * windowedPercentile(Secs, 99), "ms");
    M.add("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  // Traced: a fixed number of solves untraced, the same number traced
  // (counter snapshots around each), then a 1-vproc solve.
  constexpr unsigned TraceSolves = 5;
  double Untraced =
      median(solveSeconds(solveRepeatedly(B, *RT, T, 0, TraceSolves)));
  std::vector<Solve> Traced;
  Snapshot First = Snapshot::take(*RT);
  Snapshot Last = First;
  for (unsigned I = 0; I < TraceSolves; ++I) {
    Traced.push_back(B.solve(*RT));
    T.count(Traced.back());
    Last = Snapshot::take(*RT);
  }
  double WallS = 0;
  std::vector<double> Drains;
  for (const Solve &S : Traced) {
    WallS += S.WallS;
    Drains.push_back(S.DrainMs);
  }
  double TracedMed = median(solveSeconds(Traced));

  RT.reset();
  Runtime One(runtimeConfig(1, false), Topo);
  double OneMed = median(solveSeconds(solveRepeatedly(B, One, T, 0, 3)));

  M.add("p99_ms", 1e3 * windowedPercentile(solveSeconds(Traced), 99), "ms");
  addSchedulerMetrics(M, First.S, Last.S, VProcs, WallS);
  M.add("runtime.speedup_vs_1vproc", ratio(OneMed, Untraced), "ratio");
  M.add("runtime.chan_send_us", 0, "us");
  M.add("runtime.chan_recv_wait_us", 0, "us");
  M.add("runtime.run_drain_ms", median(Drains), "ms");
  addCollectorMetrics(M, First, Last, VProcs, WallS);
  addServiceMetrics(M, nullptr);
  M.add("max_rps_at_slo", 0, "1/s");
  M.add("service.blocking_p50_ms", 0, "ms");
  M.add("service.blocking_p99_ms", 0, "ms");
  M.add("trace_overhead_frac", TracedMed / Untraced - 1.0, "ratio");
}

//===----------------------------------------------------------------------===//
// kv-serve: open-loop Poisson load against the sharded KVStore
//===----------------------------------------------------------------------===//

/// Fixed workload shape (the offered rates come from the command line).
constexpr uint64_t KVKeySpace = 1 << 8;
constexpr uint32_t KVValueBytes = 4096;
constexpr unsigned KVGetPct = 45, KVPutPct = 50; // 5% erase
constexpr double KVWarmupS = 1.0;
/// Each generator's input is one period of Poisson arrivals (about this
/// long) from buildSchedule, repeated back to back for the length of a
/// phase, each repeat shifted by the period. buildSchedule is a
/// floating-point loop whose speed on the shared VM flips between two
/// modes about 1.45x apart (7 or 10.5 ms for 368k requests in one
/// process), and a set-up it dominated followed the mode; copying the
/// period is memory-bound and does not.
constexpr double KVPeriodS = 1.0;
/// A low global trigger, so every latency window holds several
/// concurrent cycles and the p99 reflects their pauses.
constexpr std::size_t KVGlobalGCBytesPerVProc = 128 * 1024;

/// Windows. A phase is cut into windows (latency: by scheduled arrival;
/// capacity: by completion time), and generator 0 samples the completed
/// global collections and the host's steal ticks at each window boundary.
/// A run reports the median over its quiet windows: those in which the
/// hypervisor took no more cpu time from the host than in the window a
/// third of the way up the ranking by steal (so at least a third of them,
/// and all of them in a run without steal). On a shared VM steal comes in
/// bursts of seconds and lifts a window's p99 from about 0.3 ms to 2-12
/// ms. Quiet windows are picked by steal alone, never by latency, so
/// windows holding global cycles are not filtered out; the run reports the
/// fewest cycles a quiet window held.
constexpr double KVLatencyWindowS = 1.0;
constexpr std::size_t KVQuietShare = 3;
/// Share of the measured time spent on capacity (the rest serves the
/// fixed rate). Capacity is measured in several short phases, each its
/// own RT.run with an unmeasured lead-in and one measured window: a run
/// settles into one pace for its whole length, and that pace differs
/// from run to run by up to a third, so one long phase would report
/// whichever pace it drew.
constexpr double KVCapacityShare = 0.2;
constexpr unsigned KVCapacityPhases = 12;
constexpr double KVCapacityLeadS = 0.1;

struct WorkerRecord {
  /// Scheduled arrival -> completion (ns), split into windows by arrival.
  std::vector<std::vector<uint64_t>> Windows;
  std::vector<uint64_t> Served; ///< Saturate: completions per window
  LatencyRecorder Svc[3];   ///< get / put / erase call spans (traced)
  LatencyRecorder QueueWait; ///< latency minus the call span (traced)
  uint64_t RecvWaitNanos = 0, Recvs = 0; ///< Channel::recv spans (traced)
  uint64_t Completed = 0;
  uint64_t LastDoneNanos = 0;
};

struct GeneratorRecord {
  LatencyRecorder Lag; ///< how late each request was sent
  uint64_t Sent = 0;
  uint64_t SendNanos = 0; ///< Channel::send spans (traced)
};

/// One serving phase, run to completion in one RT.run: either a fixed
/// schedule played at its arrival times, or (Saturate) the schedule's
/// requests sent back to back, cyclically, until StopNanos.
struct ServePhase {
  KVStore *Store = nullptr;
  GCWorld *World = nullptr;
  std::vector<std::unique_ptr<Channel>> *Chans = nullptr;
  std::vector<std::vector<Request>> Schedules; ///< one per generator
  uint64_t RecordFromNanos = 0; ///< earlier requests are warm-up
  uint64_t WindowNanos = 1;
  std::size_t NumWindows = 1;
  /// Completed global collections and host steal ticks at each window
  /// boundary: window W held CyclesAt[W+1] - CyclesAt[W] cycles.
  std::vector<uint64_t> CyclesAt, StealAt;
  bool Saturate = false;
  uint64_t StopNanos = 0; ///< Saturate: the generators stop here
  /// Workers block in Channel::recv (parking on the doorbell when idle)
  /// instead of polling Channel::tryRecv; see KVServe::serve.
  bool Blocking = false;
  bool Trace = false;
  Clock::time_point Epoch;
  std::vector<WorkerRecord> Workers;
  std::vector<GeneratorRecord> Gens;
  JoinCounter Join;
  RunTimer Timer;

  uint64_t nowNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Epoch)
            .count());
  }
  /// The window of an instant at or after RecordFromNanos; the last
  /// window takes the remainder.
  std::size_t windowOf(uint64_t Nanos) const {
    return std::min<std::size_t>((Nanos - RecordFromNanos) / WindowNanos,
                                 NumWindows - 1);
  }
  /// Samples the counters at every window boundary up to \p Nanos.
  void sampleUpTo(uint64_t Nanos) {
    if (Nanos < RecordFromNanos)
      return;
    std::size_t Boundary = std::min<std::size_t>(
        (Nanos - RecordFromNanos) / WindowNanos, NumWindows);
    while (CyclesAt.size() <= Boundary) {
      CyclesAt.push_back(World->globalGCCount());
      StealAt.push_back(CpuTicks::read().Steal);
    }
  }
};

constexpr int64_t Poison = -1;

void serveWorker(Runtime &, VProc &VP, Task T) {
  auto &Ph = *static_cast<ServePhase *>(T.Ctx);
  WorkerRecord &Me = Ph.Workers[static_cast<std::size_t>(T.A)];
  Channel &Chan = *(*Ph.Chans)[static_cast<std::size_t>(T.A)];
  for (std::size_t Poisons = 0; Poisons < Ph.Gens.size();) {
    uint64_t RecvStart = Ph.Trace ? Ph.nowNanos() : 0;
    Value Msg;
    if (Ph.Blocking)
      Msg = Chan.recv(VP);
    else
      while (!Chan.tryRecv(VP, Msg))
        VP.poll(); // answer collections while waiting
    int64_t Tok = Msg.asInt();
    uint64_t Start = Ph.nowNanos();
    if (Ph.Trace) {
      Me.RecvWaitNanos += Start - RecvStart;
      Me.Recvs++;
    }
    if (Tok == Poison) {
      Poisons++;
      continue;
    }
    const Request &R =
        Ph.Schedules[static_cast<std::size_t>(Tok >> 32)][Tok & 0xffffffff];
    switch (R.Op) {
    case OpKind::Get:
      Ph.Store->get(VP, R.Key);
      break;
    case OpKind::Put:
      Ph.Store->put(VP, R.Key, R.ValueBytes);
      break;
    case OpKind::Delete:
      Ph.Store->erase(VP, R.Key);
      break;
    }
    uint64_t Done = Ph.nowNanos();
    Me.Completed++;
    Me.LastDoneNanos = std::max(Me.LastDoneNanos, Done);
    if (Ph.Saturate) {
      if (Done >= Ph.RecordFromNanos && Done < Ph.StopNanos)
        Me.Served[Ph.windowOf(Done)]++;
      continue;
    }
    if (R.ScheduledNanos < Ph.RecordFromNanos)
      continue;
    uint64_t Latency = Done > R.ScheduledNanos ? Done - R.ScheduledNanos : 0;
    Me.Windows[Ph.windowOf(R.ScheduledNanos)].push_back(Latency);
    if (Ph.Trace) {
      Me.Svc[static_cast<unsigned>(R.Op)].record(Done - Start);
      Me.QueueWait.record(Latency > Done - Start ? Latency - (Done - Start)
                                                 : 0);
    }
  }
  Ph.Join.sub();
}

void generate(VProc &VP, ServePhase &Ph, unsigned G) {
  const std::vector<Request> &Sched = Ph.Schedules[G];
  GeneratorRecord &Me = Ph.Gens[G];
  for (uint64_t N = 0;; ++N) {
    uint64_t Now = Ph.nowNanos();
    if (Ph.Saturate ? Now >= Ph.StopNanos : N == Sched.size())
      break;
    const auto I = static_cast<uint32_t>(N % Sched.size());
    const Request &R = Sched[I];
    if (!Ph.Saturate) {
      for (; Now < R.ScheduledNanos; Now = Ph.nowNanos()) {
        VP.poll(); // service collections and steal requests while pacing
        if (R.ScheduledNanos - Now > 50000)
          std::this_thread::yield();
      }
      Me.Lag.record(Now - R.ScheduledNanos);
    }
    if (G == 0)
      Ph.sampleUpTo(Ph.Saturate ? Now : R.ScheduledNanos);
    Channel &Chan = *(*Ph.Chans)[Ph.Store->shardOf(R.Key)];
    Value Tok = Value::fromInt((static_cast<int64_t>(G) << 32) | I);
    if (Ph.Trace) {
      uint64_t T0 = Ph.nowNanos();
      Chan.send(VP, Tok);
      Me.SendNanos += Ph.nowNanos() - T0;
    } else {
      Chan.send(VP, Tok);
    }
    Me.Sent++;
  }
  for (auto &Chan : *Ph.Chans)
    Chan->send(VP, Value::fromInt(Poison));
}

void serveMain(Runtime &, VProc &VP, void *CP) {
  auto &Ph = *static_cast<ServePhase *>(CP);
  Ph.Timer.MainStart = Clock::now();
  const auto W = static_cast<unsigned>(Ph.Workers.size());
  const auto G = static_cast<unsigned>(Ph.Gens.size());
  Ph.Epoch = Clock::now();
  Ph.Join.add(W + G - 1);
  for (unsigned I = 0; I < W; ++I)
    VP.spawn(Task{&serveWorker, &Ph, Value::nil(), static_cast<int64_t>(I), 0,
                  Ph.Store->shardHome(I)});
  for (unsigned I = 1; I < G; ++I)
    VP.spawn(Task{[](Runtime &, VProc &VP, Task T) {
                    auto &Ph = *static_cast<ServePhase *>(T.Ctx);
                    generate(VP, Ph, static_cast<unsigned>(T.A));
                    Ph.Join.sub();
                  },
                  &Ph, Value::nil(), static_cast<int64_t>(I), 0,
                  Task::NoAffinity});
  generate(VP, Ph, 0);
  VP.joinWait(Ph.Join);
  Ph.Timer.MainEnd = Clock::now();
}

struct Load {
  std::vector<std::vector<Request>> Schedules; ///< one per generator
  double WarmupS, Seconds;
};

struct PhaseResult {
  LatencyRecorder Svc[3], QueueWait, Lag;
  double WindowS = 0;
  std::vector<std::vector<uint64_t>> Windows; ///< latencies (ns) per window
  std::vector<uint64_t> Served, Cycles, Steal; ///< per window
  std::vector<std::size_t> Quiet; ///< the quiet windows (see above)
  std::vector<uint64_t> Latency; ///< every window's samples
  double SendUs = 0, RecvWaitUs = 0;
  uint64_t Scheduled = 0, Completed = 0, Corruptions = 0;
  double AchievedRps = 0;
  double DrainMs = 0;       ///< RT.run entry/exit overhead
  double BacklogMs = 0;     ///< last completion after the last arrival
  double WallS = 0;
};

/// The quiet windows of a phase, from each window's steal ticks.
std::vector<std::size_t> quietWindows(const std::vector<uint64_t> &Steal) {
  std::vector<uint64_t> Ranked = Steal;
  std::sort(Ranked.begin(), Ranked.end());
  uint64_t Cut =
      Ranked[std::max<std::size_t>(1, Ranked.size() / KVQuietShare) - 1];
  std::vector<std::size_t> Quiet;
  for (std::size_t W = 0; W < Steal.size(); ++W)
    if (Steal[W] <= Cut)
      Quiet.push_back(W);
  return Quiet;
}

class KVServe {
public:
  KVServe(Runtime &RT, unsigned Generators)
      : RT(RT), Generators(Generators),
        Workers(RT.numVProcs() - Generators), Store(RT, Workers) {
    for (unsigned I = 0; I < Workers; ++I)
      Chans.push_back(std::make_unique<Channel>(RT));
  }

  /// Puts every key once (set-up: the store starts full).
  void preload() {
    struct Ctx {
      KVStore *Store;
      RunTimer Timer;
    } C{&Store, {}};
    timedRun(RT,
             [](Runtime &, VProc &VP, void *CP) {
               auto &C = *static_cast<Ctx *>(CP);
               for (uint64_t K = 0; K < KVKeySpace; ++K)
                 C.Store->put(VP, K, KVValueBytes);
             },
             C);
  }

  /// Serves \p L at its arrival times; only requests scheduled after its
  /// warm-up are recorded. Workers poll their channel (tryRecv) unless
  /// \p Blocking: a worker blocked in recv parks on its node's doorbell
  /// between requests, and its latency then follows how fast the host
  /// wakes the parked vcpu (see perfbench/README.md, kv-serve shape).
  PhaseResult serve(Load L, bool Trace, bool Blocking = false) {
    ServePhase Ph;
    Ph.Trace = Trace;
    Ph.Blocking = Blocking;
    Ph.RecordFromNanos = static_cast<uint64_t>(L.WarmupS * 1e9);
    Ph.WindowNanos = static_cast<uint64_t>(KVLatencyWindowS * 1e9);
    Ph.NumWindows = static_cast<std::size_t>(
        std::max(1.0, std::round(L.Seconds / KVLatencyWindowS)));
    uint64_t LastArrival = 0;
    for (const std::vector<Request> &S : L.Schedules)
      LastArrival = std::max(LastArrival, S.back().ScheduledNanos);
    Ph.Schedules = std::move(L.Schedules);
    PhaseResult R = run(Ph);
    for (const auto &S : Ph.Schedules)
      R.Scheduled += S.size();
    uint64_t LastDone = 0;
    for (const WorkerRecord &W : Ph.Workers)
      LastDone = std::max(LastDone, W.LastDoneNanos);
    double Window = static_cast<double>(LastDone - Ph.RecordFromNanos) / 1e9;
    R.AchievedRps = ratio(static_cast<double>(R.Latency.size()), Window);
    R.BacklogMs = LastDone > LastArrival
                      ? static_cast<double>(LastDone - LastArrival) / 1e6
                      : 0.0;
    return R;
  }

  /// Capacity: KVCapacityPhases phases, each sending \p Sched's requests
  /// back to back (arrival times ignored) for KVCapacityLeadS and then
  /// one measured window of \p WindowS, in which completions are counted.
  /// The result holds one window per phase. Every sent request must
  /// complete.
  PhaseResult saturate(const Load &Sched, double WindowS) {
    PhaseResult All;
    All.WindowS = WindowS;
    for (unsigned P = 0; P < KVCapacityPhases; ++P) {
      ServePhase Ph;
      Ph.Saturate = true;
      Ph.Schedules = Sched.Schedules;
      Ph.RecordFromNanos = static_cast<uint64_t>(KVCapacityLeadS * 1e9);
      Ph.StopNanos = static_cast<uint64_t>((KVCapacityLeadS + WindowS) * 1e9);
      Ph.WindowNanos = Ph.StopNanos - Ph.RecordFromNanos;
      PhaseResult R = run(Ph);
      for (const GeneratorRecord &G : Ph.Gens)
        All.Scheduled += G.Sent;
      All.Completed += R.Completed;
      All.Corruptions += R.Corruptions;
      All.Served.push_back(R.Served[0]);
      All.Cycles.push_back(R.Cycles[0]);
      All.Steal.push_back(R.Steal[0]);
    }
    All.Quiet = quietWindows(All.Steal);
    return All;
  }

  /// The request schedules of one phase (the workload's input): per
  /// generator, one KVPeriodS period of Poisson arrivals at \p Rps,
  /// repeated until \p WarmupS + \p Seconds. A period ends one mean gap
  /// after its last arrival, so the repeats keep the arrivals in order.
  Load load(uint64_t Seed, double Rps, double WarmupS, double Seconds) const {
    Load L{{}, WarmupS, Seconds};
    TrafficConfig TC;
    TC.Seed = Seed;
    TC.RatePerGen = Rps / Generators;
    TC.RequestsPerGen = static_cast<uint64_t>(TC.RatePerGen * KVPeriodS);
    TC.KeySpace = KVKeySpace;
    TC.ValueBytes = KVValueBytes;
    TC.GetPct = KVGetPct;
    TC.PutPct = KVPutPct;
    const auto EndNanos = static_cast<uint64_t>((WarmupS + Seconds) * 1e9);
    for (unsigned G = 0; G < Generators; ++G) {
      const std::vector<Request> Period = buildSchedule(TC, G);
      const uint64_t PeriodNanos = Period.back().ScheduledNanos +
                                   static_cast<uint64_t>(1e9 / TC.RatePerGen);
      std::vector<Request> &S = L.Schedules.emplace_back();
      S.reserve((EndNanos / PeriodNanos + 1) * Period.size());
      for (uint64_t N = 0;; ++N) {
        Request R = Period[N % Period.size()];
        R.ScheduledNanos += N / Period.size() * PeriodNanos;
        if (R.ScheduledNanos >= EndNanos)
          break;
        S.push_back(R);
      }
    }
    return L;
  }

private:
  /// Runs \p Ph in one RT.run and gathers what every phase records.
  PhaseResult run(ServePhase &Ph) {
    Ph.Store = &Store;
    Ph.World = &RT.world();
    Ph.Chans = &Chans;
    Ph.Workers.resize(Workers);
    for (WorkerRecord &W : Ph.Workers) {
      W.Windows.resize(Ph.NumWindows);
      W.Served.resize(Ph.NumWindows);
    }
    Ph.Gens.resize(Generators);
    uint64_t Corrupt0 = Store.corruptions();
    timedRun(RT, &serveMain, Ph);
    Ph.sampleUpTo(UINT64_MAX);

    PhaseResult R;
    R.WindowS = static_cast<double>(Ph.WindowNanos) / 1e9;
    R.Windows.resize(Ph.NumWindows);
    R.Served.resize(Ph.NumWindows);
    for (std::size_t W = 0; W < Ph.NumWindows; ++W) {
      R.Cycles.push_back(Ph.CyclesAt[W + 1] - Ph.CyclesAt[W]);
      R.Steal.push_back(Ph.StealAt[W + 1] - Ph.StealAt[W]);
    }
    uint64_t Recvs = 0;
    for (const WorkerRecord &W : Ph.Workers) {
      for (std::size_t I = 0; I < Ph.NumWindows; ++I) {
        R.Windows[I].insert(R.Windows[I].end(), W.Windows[I].begin(),
                            W.Windows[I].end());
        R.Latency.insert(R.Latency.end(), W.Windows[I].begin(),
                         W.Windows[I].end());
        R.Served[I] += W.Served[I];
      }
      for (unsigned I = 0; I < 3; ++I)
        R.Svc[I].merge(W.Svc[I]);
      R.QueueWait.merge(W.QueueWait);
      R.Completed += W.Completed;
      R.RecvWaitUs += static_cast<double>(W.RecvWaitNanos) / 1e3;
      Recvs += W.Recvs;
    }
    R.RecvWaitUs = ratio(R.RecvWaitUs, static_cast<double>(Recvs));
    uint64_t Sent = 0;
    for (const GeneratorRecord &G : Ph.Gens) {
      R.Lag.merge(G.Lag);
      R.SendUs += static_cast<double>(G.SendNanos) / 1e3;
      Sent += G.Sent;
    }
    R.SendUs = ratio(R.SendUs, static_cast<double>(Sent));
    R.Corruptions = Store.corruptions() - Corrupt0;
    R.DrainMs = Ph.Timer.drainMs();
    R.WallS = Ph.Timer.wallS();

    R.Quiet = quietWindows(R.Steal);
    return R;
  }

  Runtime &RT;
  unsigned Generators, Workers;
  KVStore Store;
  std::vector<std::unique_ptr<Channel>> Chans;
};

double pctMs(const LatencyRecorder &L, double P) {
  return static_cast<double>(L.percentileNanos(P)) / 1e6;
}

/// Exact nearest-rank percentile of latency samples (ns), in ms.
double exactPctMs(std::vector<uint64_t> V, double P) {
  if (V.empty())
    return 0.0;
  auto Rank = static_cast<std::size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  auto Nth = V.begin() + static_cast<std::ptrdiff_t>(
                             std::clamp<std::size_t>(Rank, 1, V.size()) - 1);
  std::nth_element(V.begin(), Nth, V.end());
  return static_cast<double>(*Nth) / 1e6;
}

/// The median over the quiet windows of each window's \p P-th latency
/// percentile.
double quietPctMs(const PhaseResult &R, double P) {
  std::vector<double> V;
  for (std::size_t W : R.Quiet)
    V.push_back(exactPctMs(R.Windows[W], P));
  return median(V);
}

/// The median over the quiet windows of each window's completion rate.
double quietRps(const PhaseResult &R) {
  std::vector<double> V;
  for (std::size_t W : R.Quiet)
    V.push_back(static_cast<double>(R.Served[W]) / R.WindowS);
  return median(V);
}

/// The fewest global cycles a quiet window held.
double quietMinCycles(const PhaseResult &R) {
  uint64_t Min = UINT64_MAX;
  for (std::size_t W : R.Quiet)
    Min = std::min(Min, R.Cycles[W]);
  return static_cast<double>(Min);
}

/// Host steal ticks over all windows, and over the quiet ones.
std::pair<uint64_t, uint64_t> stealTicks(const PhaseResult &R) {
  uint64_t All = 0, Quiet = 0;
  for (uint64_t S : R.Steal)
    All += S;
  for (std::size_t W : R.Quiet)
    Quiet += R.Steal[W];
  return {All, Quiet};
}

/// The service.* spans of a traced phase; all zero (not applicable) for
/// workloads that serve no requests.
void addServiceMetrics(Metrics &M, const PhaseResult *Tr) {
  const PhaseResult None;
  const PhaseResult &R = Tr ? *Tr : None;
  const char *Ops[3] = {"get", "put", "erase"};
  for (unsigned I = 0; I < 3; ++I) {
    M.add(std::string("service.") + Ops[I] + "_us_p50",
          1e3 * pctMs(R.Svc[I], 50), "us");
    M.add(std::string("service.") + Ops[I] + "_us_p99",
          1e3 * pctMs(R.Svc[I], 99), "us");
  }
  M.add("service.queue_wait_ms_p99", pctMs(R.QueueWait, 99), "ms");
  M.add("service.gen_lag_ms_p99", pctMs(R.Lag, 99), "ms");
  M.add("service.corruptions", static_cast<double>(R.Corruptions), "count");
  M.add("gc.global.min_cycles_per_quiet_window",
        Tr ? quietMinCycles(R) : 0.0, "count");
}

void runKV(const Options &O, const Topology &Topo, unsigned VProcs, Metrics &M,
          Tally &T) {
  if (O.RateRps <= 0 || O.P99LimitMs <= 0 || O.Ladder.empty())
    usage("kv-serve needs --rate, --ladder and --p99-limit-ms");
  if (VProcs < 2)
    usage("kv-serve needs at least 2 vprocs (a generator and a worker)");
  // One generator per four vprocs; the rest serve one shard each.
  const unsigned Generators = std::max(1u, VProcs / 4);
  auto Count = [&](const PhaseResult &R) {
    T.Attempted += R.Scheduled;
    T.Failed += (R.Scheduled - std::min(R.Scheduled, R.Completed)) +
                R.Corruptions;
  };

  // Set-up: runtime, store, channels, preload, and the first phase's
  // request schedule. The store and channels must die before their
  // runtime, so each rep builds both.
  const double Half = O.Seconds / 2;
  const double CapacityS = O.Seconds * KVCapacityShare;
  std::vector<double> SetupTimes;
  std::unique_ptr<Runtime> RT;
  std::unique_ptr<KVServe> KV;
  Load First;
  for (unsigned I = 0; I < SetupWarmups + SetupReps; ++I) {
    First = Load{}; // tear down outside the timed window
    KV.reset();
    RT.reset();
    auto T0 = Clock::now();
    RuntimeConfig Cfg = runtimeConfig(VProcs, true);
    Cfg.GC.GlobalGCBytesPerVProc = KVGlobalGCBytesPerVProc;
    RT = std::make_unique<Runtime>(Cfg, Topo);
    KV = std::make_unique<KVServe>(*RT, Generators);
    KV->preload();
    First = KV->load(O.Seed, O.RateRps, KVWarmupS,
                     O.Trace ? Half : O.Seconds - CapacityS);
    if (I >= SetupWarmups)
      SetupTimes.push_back(secondsBetween(T0, Clock::now()));
  }
  M.add("setup_s", median(SetupTimes), "s");

  if (!O.Trace) {
    PhaseResult R = KV->serve(std::move(First), false);
    Count(R);
    // Capacity cycles through one period of the fixed rate's requests.
    PhaseResult Cap = KV->saturate(
        KV->load(O.Seed + 1, O.RateRps, 0, KVPeriodS),
        std::max(0.05, CapacityS / KVCapacityPhases - KVCapacityLeadS));
    Count(Cap);
    M.add("items_per_s", quietRps(Cap), "1/s");
    M.add("p50_ms", quietPctMs(R, 50), "ms");
    M.add("p99_ms", quietPctMs(R, 99), "ms");
    M.add("peak_rss_mb", peakRssMb(), "MiB");
    auto [Steal, QuietSteal] = stealTicks(R);
    auto [CapSteal, CapQuietSteal] = stealTicks(Cap);
    std::fprintf(stderr,
                 "kv-serve: offered %.0f req/s, served %llu; whole phase: "
                 "p50 %.3f ms, p99 %.3f ms, max %.3f ms, gen lag p99 %.3f "
                 "ms, host steal %llu ticks; %zu quiet %.0f-s windows of "
                 "%zu: steal %llu ticks, >= %.0f global cycles each; "
                 "capacity %.0f req/s (steal %llu ticks, %llu in %zu quiet "
                 "phases of %zu)\n",
                 O.RateRps, static_cast<unsigned long long>(R.Latency.size()),
                 exactPctMs(R.Latency, 50), exactPctMs(R.Latency, 99),
                 exactPctMs(R.Latency, 100), pctMs(R.Lag, 99),
                 static_cast<unsigned long long>(Steal), R.Quiet.size(),
                 R.WindowS, R.Windows.size(),
                 static_cast<unsigned long long>(QuietSteal),
                 quietMinCycles(R), quietRps(Cap),
                 static_cast<unsigned long long>(CapSteal),
                 static_cast<unsigned long long>(CapQuietSteal),
                 Cap.Quiet.size(), Cap.Served.size());
    KV.reset();
    return;
  }

  // Traced: half the window untraced, half traced (same rate, fresh
  // schedules), then the fixed rate ladder, then the fixed rate once
  // more with workers blocked in recv (the doorbell wake-up path).
  PhaseResult Untraced = KV->serve(std::move(First), false);
  Count(Untraced);
  Snapshot A = Snapshot::take(*RT);
  PhaseResult Tr = KV->serve(KV->load(O.Seed + 1, O.RateRps, 0.25, Half), true);
  Count(Tr);
  Snapshot B = Snapshot::take(*RT);

  double MaxRps = 0;
  double StepS = std::max(1.0, O.Seconds / 10);
  for (std::size_t I = 0; I < O.Ladder.size(); ++I) {
    PhaseResult S =
        KV->serve(KV->load(O.Seed + 2 + I, O.Ladder[I], 0.25, StepS), false);
    Count(S);
    double P99 = quietPctMs(S, 99);
    bool Pass = S.Corruptions == 0 && P99 <= O.P99LimitMs &&
                S.BacklogMs <= O.P99LimitMs;
    std::fprintf(stderr,
                 "kv-serve ladder: %.0f req/s -> p99 %.3f ms, backlog "
                 "%.3f ms: %s\n",
                 O.Ladder[I], P99, S.BacklogMs,
                 Pass ? "meets" : "misses");
    if (!Pass)
      break;
    MaxRps = S.AchievedRps;
  }
  PhaseResult Blocked = KV->serve(
      KV->load(O.Seed + 2 + O.Ladder.size(), O.RateRps, 0.25, StepS), false,
      /*Blocking=*/true);
  Count(Blocked);

  M.add("p99_ms", quietPctMs(Tr, 99), "ms");
  addSchedulerMetrics(M, A.S, B.S, VProcs, Tr.WallS);
  M.add("runtime.speedup_vs_1vproc", 0, "ratio");
  M.add("runtime.chan_send_us", Tr.SendUs, "us");
  M.add("runtime.chan_recv_wait_us", Tr.RecvWaitUs, "us");
  M.add("runtime.run_drain_ms", Tr.DrainMs, "ms");
  addCollectorMetrics(M, A, B, VProcs, Tr.WallS);
  addServiceMetrics(M, &Tr);
  M.add("max_rps_at_slo", MaxRps, "1/s");
  M.add("service.blocking_p50_ms", quietPctMs(Blocked, 50), "ms");
  M.add("service.blocking_p99_ms", quietPctMs(Blocked, 99), "ms");
  M.add("trace_overhead_frac",
        ratio(quietPctMs(Tr, 50), quietPctMs(Untraced, 50)) - 1.0, "ratio");
  KV.reset();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  const Topology Topo = Topology::host();
  const unsigned Cpus = hostCpus();
  // kv-serve leaves one cpu to the host: its generator and workers
  // busy-poll, and a preempted generator or worker, not the collector,
  // would then set the tail (see perfbench/README.md).
  const unsigned VProcs =
      O.Workload == "kv-serve" ? std::max(2u, Cpus - 1) : Cpus;
#ifdef __OPTIMIZE__
  const bool Optimized = true;
#else
  const bool Optimized = false;
#endif
  // Refuse runs whose numbers would not describe this host.
  if (VProcs > Cpus)
    usage("vprocs exceed the host's cpus: oversubscribed runs are refused");
  if (!Optimized)
    usage("not an optimized build: timings would be meaningless");

  Metrics M;
  Tally T;
  const CpuTicks Start = CpuTicks::read();
  if (O.Workload == "raytrace")
    runForkJoin<RaytraceBench>(O, Topo, VProcs, M, T);
  else if (O.Workload == "quicksort")
    runForkJoin<QuicksortBench>(O, Topo, VProcs, M, T);
  else if (O.Workload == "kv-serve")
    runKV(O, Topo, VProcs, M, T);
  else
    usage("--workload must be raytrace, quicksort or kv-serve");
  M.add("failed_frac", ratio(static_cast<double>(T.Failed),
                             static_cast<double>(T.Attempted)),
        "ratio");

  std::string Ladder = "[";
  for (double R : O.Ladder) {
    if (Ladder.size() > 1)
      Ladder += ", ";
    Ladder += std::to_string(static_cast<long long>(R));
  }
  Ladder += "]";
  std::printf(
      "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"provenance\": {\"host_cpus\": %u, "
      "\"host_nodes\": %u, \"vprocs\": %u, \"oversubscription\": %.3f, "
      "\"topology\": \"%s\", \"pinned\": true, \"build_type\": \"%s\", "
      "\"optimized\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"setup_warmups\": %u, \"setup_reps\": %u, \"kv_rate_rps\": %g, \"kv_ladder_rps\": %s, "
      "\"kv_p99_limit_ms\": %g, \"host_steal_frac\": %.4f}, "
      "\"metrics\": %s}\n",
      O.Workload.c_str(), T.Failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(T.Attempted),
      static_cast<unsigned long long>(T.Failed), Cpus, Topo.numNodes(),
      VProcs, static_cast<double>(VProcs) / Cpus, Topo.name().c_str(),
      PERFBENCH_BUILD_TYPE, Optimized ? "true" : "false",
      static_cast<unsigned long long>(O.Seed), O.Seconds, O.Trace ? 1 : 0,
      SetupWarmups, SetupReps, O.RateRps, Ladder.c_str(), O.P99LimitMs, stealFrac(Start),
      M.json().c_str());
  return T.Failed == 0 ? 0 : 1;
}
