/**
 * @file
 * Hunting a memory-corruption heisenbug with a RANGE watchpoint —
 * forward with DISE, then backward with the time-travel debugger.
 *
 * The program keeps a "directory" structure that an unrelated,
 * out-of-bounds array write occasionally tramples. Trap-based
 * debuggers make this hunt painful (the directory shares pages with
 * hot data); the DISE range watchpoint pinpoints the corrupting store
 * immediately, at a few percent overhead, and the Figure 2f production
 * simultaneously shields the debugger's own structures from the same
 * bug.
 *
 * Act two runs the same scenario the way a user who only noticed the
 * corruption *after the fact* would: run to the end, then
 * reverseContinue() back through the checkpointed timeline until the
 * debugger is parked on the exact corrupting store, and inspect the
 * machine state as it was at that instant.
 *
 * Build & run:  ./build/example_heisenbug_hunt
 */

#include <cstdio>

#include "session/debug_session.hh"
#include "workloads/workload.hh"

using namespace dise;

int
main()
{
    Program prog = buildHeisenbugDemo();

    SessionOptions opts;
    opts.debugger.backend = BackendKind::Dise;
    opts.debugger.dise.protectDebuggerData = true; // Fig. 2f shielding
    DebugSession session(prog, opts);
    session.setWatch(
        WatchSpec::range("directory", prog.symbol("directory"), 64));
    if (!session.attach()) {
        std::fprintf(stderr, "attach failed\n");
        return 1;
    }

    RunStats stats = session.runCycles();
    size_t corruptions = 0, protections = 0;
    std::vector<SessionEvent> events = session.events().drain();
    for (const SessionEvent &ev : events) {
        corruptions += ev.kind == SessionEventKind::Watch;
        protections += ev.kind == SessionEventKind::Protection;
    }
    std::printf("ran %llu instructions; directory was corrupted %zu "
                "time(s)\n",
                static_cast<unsigned long long>(stats.appInsts),
                corruptions);
    for (const SessionEvent &ev : events)
        if (ev.kind == SessionEventKind::Watch)
            std::printf("  corruption at directory+%llu: 0x%llx -> "
                        "0x%llx (culprit store pc 0x%llx)\n",
                        static_cast<unsigned long long>(
                            ev.addr - prog.symbol("directory")),
                        static_cast<unsigned long long>(ev.oldValue),
                        static_cast<unsigned long long>(ev.newValue),
                        static_cast<unsigned long long>(ev.pc));
    std::printf("the culprit is the store at label 'the_store' "
                "(0x%llx)\n",
                static_cast<unsigned long long>(
                    prog.symbol("the_store")));
    std::printf("debugger dseg protection violations: %zu\n",
                protections);

    // ------------------------------------------------------ act two
    // The same hunt, backward: a fresh session runs to completion
    // first (as if the corruption were only noticed post-mortem), then
    // travels back to the moment of the crime.
    std::printf("\n-- time travel: how did we get here? --\n");
    SessionOptions ttOpts = opts;
    ttOpts.timeTravel.checkpointInterval = 1024;
    DebugSession tt(buildHeisenbugDemo(), ttOpts);
    tt.setWatch(WatchSpec::range("directory",
                                 tt.program().symbol("directory"), 64));
    StopInfo end = tt.runToEnd(); // lazy attach: first resume installs
    SessionStats ss = tt.stats();
    std::printf("program exited at t=%llu (%zu checkpoints, %llu "
                "pages dirtied, %llu undo bytes copied)\n",
                static_cast<unsigned long long>(end.time),
                ss.checkpoints,
                static_cast<unsigned long long>(ss.pagesCopied),
                static_cast<unsigned long long>(ss.undoBytes));

    for (StopInfo hit = tt.reverseContinue();
         hit.reason == StopReason::Event; hit = tt.reverseContinue()) {
        std::printf("reverse-continue: event #%d at t=%llu, iteration "
                    "t9=%llu, store pc 0x%llx%s\n",
                    hit.eventIndex,
                    static_cast<unsigned long long>(hit.time),
                    static_cast<unsigned long long>(
                        tt.target().arch.read(reg::t9)),
                    static_cast<unsigned long long>(hit.mark.pc),
                    hit.mark.pc == tt.program().symbol("the_store")
                        ? "  <- the_store"
                        : "");
    }
    std::printf("reached the beginning of time; the first corruption "
                "is pinned.\n");
    return 0;
}
