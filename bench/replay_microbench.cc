/**
 * @file
 * Trace-replay microbenchmark: host wall clock of the per-event
 * virtual walker (trace::replayEvents, the bit-identity reference)
 * versus the compiled-bytecode devirtualized loops every production
 * replay takes, on fig07-class GPM traces, for every replay
 * substrate. Simulated cycles are engine-invariant
 * by construction (tests/trace_bytecode_test.cc pins bit-identity);
 * this bench measures the only thing the bytecode is allowed to move:
 * how fast the host re-walks a captured trace, and how quickly the
 * one-time compile amortizes.
 *
 * Writes BENCH_replay.json. `--smoke` runs a seconds-long subset for
 * CI (scripts/check.sh), which also gates the cycle checksums.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "backend/cpu_backend.hh"
#include "backend/functional_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "bench_util.hh"
#include "common/table.hh"
#include "graph/generators.hh"
#include "gpm/apps.hh"
#include "trace/compile.hh"
#include "trace/replay.hh"

using namespace sc;

namespace {

/** Replays/second of one engine on one backend family. Runs whole
 *  replays until min_seconds elapses (at least twice), so short
 *  traces are averaged over many passes. */
template <typename MakeBackend>
double
measureReplays(const trace::Trace &tr,
               const trace::BytecodeProgram *bc, MakeBackend make,
               double min_seconds, Cycles *cycles)
{
    std::size_t reps = 0;
    double seconds = 0;
    const bench::WallTimer timer;
    do {
        auto backend = make();
        const auto r =
            bc ? trace::replayCompiled(*bc, *backend, false)
               : trace::replayEvents(tr, *backend);
        *cycles = r.cycles;
        ++reps;
    } while ((seconds = timer.seconds()) < min_seconds || reps < 2);
    return static_cast<double>(reps) / seconds;
}

struct BackendSpec
{
    const char *name;
    std::unique_ptr<backend::ExecBackend> (*make)();
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    const double min_seconds = smoke ? 0.05 : 0.5;
    std::printf("==== replay microbench: event walker vs compiled "
                "bytecode ====\n");
    std::printf("host wall clock only; cycles are checksummed across "
                "engines\n\n");

    // Fig. 7-class workload: power-law graphs, the paper's headline
    // app set. The smoke graph keeps every leg under a second; the
    // full graph is sized so the clique apps stay in the
    // hundreds-of-thousands-of-events range (power-law clique
    // enumeration grows explosively past this).
    const auto g =
        smoke ? graph::generateChungLu(600, 9'000, 120, 2.2, 42,
                                       "power-law")
              : graph::generateChungLu(1500, 24'000, 250, 2.1, 42,
                                       "power-law");
    const std::vector<gpm::GpmApp> apps =
        smoke ? std::vector<gpm::GpmApp>{gpm::GpmApp::T,
                                         gpm::GpmApp::C4}
              : std::vector<gpm::GpmApp>{gpm::GpmApp::T,
                                         gpm::GpmApp::TC,
                                         gpm::GpmApp::TT,
                                         gpm::GpmApp::C4,
                                         gpm::GpmApp::C5};

    static const arch::SparseCoreConfig config;
    const BackendSpec backends[] = {
        {"functional",
         [] {
             return std::unique_ptr<backend::ExecBackend>(
                 std::make_unique<backend::FunctionalBackend>());
         }},
        {"cpu",
         [] {
             return std::unique_ptr<backend::ExecBackend>(
                 std::make_unique<backend::CpuBackend>(config.core,
                                                       config.mem));
         }},
        {"sparsecore",
         [] {
             return std::unique_ptr<backend::ExecBackend>(
                 std::make_unique<backend::SparseCoreBackend>(
                     config));
         }},
    };

    bench::BenchReport report("replay", smoke);
    Table table({"app", "backend", "events", "event replays/s",
                 "bytecode replays/s", "speedup"});
    Table compile({"app", "events", "instructions", "event bytes",
                   "code bytes", "density", "compile ms",
                   "amortized after N replays"});

    bool ok = true;
    double best_speedup = 0;
    for (const gpm::GpmApp app : apps) {
        const trace::Trace tr =
            bench::captureGpmTrace(g, gpm::gpmAppPlans(app), 1);

        // Steady-state compile cost: the very first compile in a
        // process also pays one-time allocator/page warm-up, which a
        // sweep pays once across all its (app, dataset) pairs — so
        // warm up with a throwaway compile, then time.
        { const auto warmup = trace::compileTrace(tr); (void)warmup; }
        const bench::WallTimer compile_timer;
        const trace::BytecodeProgram bc = trace::compileTrace(tr);
        const double compile_seconds = compile_timer.seconds();

        // Amortization: replays after which compile time is repaid
        // by the per-replay saving on the cheapest (functional)
        // substrate — the worst case, since simulation-heavy
        // backends save the same decode time per replay.
        double amortize = 0;

        for (const BackendSpec &spec : backends) {
            Cycles event_cycles = 0, bytecode_cycles = 0;
            const double event_rate =
                measureReplays(tr, nullptr, spec.make, min_seconds,
                               &event_cycles);
            const double bytecode_rate =
                measureReplays(tr, &bc, spec.make, min_seconds,
                               &bytecode_cycles);
            if (event_cycles != bytecode_cycles) {
                std::fprintf(stderr,
                             "FAIL: %s %s cycles moved across replay "
                             "engines (%llu vs %llu)\n",
                             gpm::gpmAppName(app), spec.name,
                             static_cast<unsigned long long>(
                                 event_cycles),
                             static_cast<unsigned long long>(
                                 bytecode_cycles));
                ok = false;
            }
            const double speedup = bytecode_rate / event_rate;
            if (std::strcmp(spec.name, "functional") == 0) {
                best_speedup = std::max(best_speedup, speedup);
                const double saved =
                    1.0 / event_rate - 1.0 / bytecode_rate;
                amortize = saved > 0 ? compile_seconds / saved : -1;
            }
            table.addRow({gpm::gpmAppName(app), spec.name,
                          std::to_string(tr.numEvents()),
                          Table::num(event_rate, 1),
                          Table::num(bytecode_rate, 1),
                          Table::speedup(speedup)});
        }

        const std::size_t event_bytes =
            tr.numEvents() * sizeof(trace::Event);
        compile.addRow(
            {gpm::gpmAppName(app), std::to_string(tr.numEvents()),
             std::to_string(bc.numInstructions()),
             std::to_string(event_bytes),
             std::to_string(bc.codeBytes()),
             Table::num(static_cast<double>(event_bytes) /
                            static_cast<double>(bc.codeBytes()),
                        1) +
                 "x",
             Table::num(compile_seconds * 1e3, 2),
             amortize >= 0 ? Table::num(amortize, 2)
                           : std::string("never")});
    }

    report.emit("replay throughput by engine (wall clock)", table);
    report.emit("bytecode compile cost and density", compile);
    report.finish();

    if (!ok)
        return 1;
    // The tentpole claim: the functional-substrate replay — where
    // decode and dispatch ARE the loop — must be at least 5x faster
    // compiled. Gate it so the perf claim cannot silently rot.
    if (best_speedup < 5.0) {
        std::fprintf(stderr,
                     "FAIL: best functional replay speedup %.2fx < "
                     "5x target\n",
                     best_speedup);
        return 1;
    }
    std::printf("best functional replay speedup: %.1fx (>= 5x "
                "target)\n",
                best_speedup);
    return 0;
}
