/**
 * @file
 * Time-travel subsystem tests: copy-on-write undo-log mechanics and
 * cost proportionality, restore-side cache invalidation, same-seed
 * determinism (digest equality), checkpoint/restore/re-run
 * equivalence, reverse-continue landing on the exact watchpoint-hit
 * event under every backend, reverse-step exactness, and logged
 * debugger interventions (timeline forks, DISE-table unwinding).
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "cpu/loader.hh"
#include "debug/debugger.hh"
#include "isa/encoding.hh"
#include "replay/interval_replay.hh"
#include "replay/time_travel.hh"
#include "session/debug_session.hh"
#include "workloads/workload.hh"

namespace dise {
namespace {

using namespace reg;

// ---------------------------------------------------- undo-log basics

TEST(UndoLog, CostProportionalToDirtyPagesNotFootprint)
{
    MainMemory mem;
    // Big footprint: touch 512 distinct pages.
    for (uint64_t p = 0; p < 512; ++p)
        mem.write(0x10000 + p * PageBytes, 8, p + 1);
    ASSERT_GE(mem.pageCount(), 512u);

    mem.beginUndoLog();
    // Dirty only 3 pages, repeatedly: pre-images are captured once per
    // page per interval, so the interval size tracks pages dirtied.
    for (int rep = 0; rep < 100; ++rep)
        for (uint64_t p = 0; p < 3; ++p)
            mem.write(0x10000 + p * PageBytes, 8, rep);
    EXPECT_EQ(mem.undoPagesPending(), 3u);
    UndoLog log = mem.sealUndoInterval();
    EXPECT_EQ(log.pages, 3u);

    // The next interval captures them afresh.
    mem.write(0x10000, 8, 7);
    EXPECT_EQ(mem.undoPagesPending(), 1u);
    mem.endUndoLog();
}

TEST(UndoLog, ApplyRestoresPreImages)
{
    MainMemory mem;
    mem.write(0x4000, 8, 0x1111);
    mem.write(0x8000, 8, 0x2222);
    mem.beginUndoLog();
    mem.sealUndoInterval(); // fresh interval

    mem.write(0x4000, 8, 0xaaaa);
    mem.write(0x8000, 8, 0xbbbb);
    mem.write(0xc000, 8, 0xcccc); // page that did not exist before
    UndoLog log = mem.sealUndoInterval();
    EXPECT_EQ(log.pages, 3u);

    mem.applyUndo(log);
    EXPECT_EQ(mem.read(0x4000, 8), 0x1111u);
    EXPECT_EQ(mem.read(0x8000, 8), 0x2222u);
    EXPECT_EQ(mem.read(0xc000, 8), 0u);
    mem.endUndoLog();
}

TEST(UndoLog, RestoreNotifiesCodeWatchers)
{
    struct Recorder : CodeWatcher
    {
        std::vector<uint64_t> frames;
        void onCodeWrite(uint64_t frame) override
        {
            frames.push_back(frame);
        }
    } rec;

    MainMemory mem;
    mem.write(0x4000, 4, 0x1234);
    mem.addCodeWatcher(&rec);
    mem.beginUndoLog();
    mem.sealUndoInterval();

    mem.markCodePage(0x4000); // as a µop cache would after decoding
    mem.write(0x4000, 4, 0x5678);
    ASSERT_EQ(rec.frames.size(), 1u); // the write itself invalidates

    UndoLog log = mem.sealUndoInterval();
    mem.markCodePage(0x4000); // decodes re-cached after the write
    mem.applyUndo(log);
    // Restoring the pre-image is a modification: stale decodes for the
    // restored page must be dropped again.
    ASSERT_EQ(rec.frames.size(), 2u);
    EXPECT_EQ(rec.frames[1], 0x4000u / PageBytes);
    EXPECT_EQ(mem.read(0x4000, 4), 0x1234u);
    mem.removeCodeWatcher(&rec);
    mem.endUndoLog();
}

// --------------------------------------- sub-page undo-log edge cases

/** Memory with a recognizable nonzero pattern over [base, base+len). */
MainMemory
patterned(Addr base, size_t len)
{
    MainMemory mem;
    std::vector<uint8_t> bytes(len);
    for (size_t i = 0; i < len; ++i)
        bytes[i] = static_cast<uint8_t>(i * 7 + 1);
    mem.writeBlock(base, bytes.data(), len);
    return mem;
}

std::vector<uint8_t>
snapshot(const MainMemory &mem, Addr base, size_t len)
{
    std::vector<uint8_t> out(len);
    mem.readBlock(base, out.data(), len);
    return out;
}

/**
 * Run @p stores inside one fresh undo interval over a patterned
 * three-page region, check the interval's line and page counts, then
 * apply it and check every byte (and the whole image) is back.
 */
template <typename Stores>
void
expectUndoRoundTrip(Stores stores, size_t lines, uint64_t pages)
{
    const Addr base = 0x10000;
    const size_t len = 3 * PageBytes;
    MainMemory mem = patterned(base, len);
    std::vector<uint8_t> before = snapshot(mem, base, len);
    uint64_t hashBefore = mem.contentHash();

    mem.beginUndoLog();
    stores(mem, base);
    EXPECT_EQ(mem.undoPagesPending(), pages);
    UndoLog log = mem.sealUndoInterval();
    EXPECT_EQ(log.lines.size(), lines);
    EXPECT_EQ(log.pages, pages);
    EXPECT_EQ(log.bytes(), lines * UndoLineBytes);

    mem.applyUndo(log);
    EXPECT_EQ(snapshot(mem, base, len), before);
    EXPECT_EQ(mem.contentHash(), hashBefore);
    mem.endUndoLog();
}

TEST(UndoLog, StoreStraddlingTwoLines)
{
    expectUndoRoundTrip(
        [](MainMemory &mem, Addr base) {
            mem.write(base + 60, 8, ~0ull); // bytes 60..67
        },
        2, 1);
}

TEST(UndoLog, StoreStraddlingTwoPages)
{
    expectUndoRoundTrip(
        [](MainMemory &mem, Addr base) {
            mem.write(base + 4092, 8, ~0ull); // bytes 4092..4099
        },
        2, 2);
}

TEST(UndoLog, WriteBlockCoversSeveralLinesAndPages)
{
    expectUndoRoundTrip(
        [](MainMemory &mem, Addr base) {
            // Offset 100 of page 0 to offset 1003 of page 1: lines
            // 1..63 of page 0 and 0..15 of page 1.
            std::vector<uint8_t> junk(5000, 0xee);
            mem.writeBlock(base + 100, junk.data(), junk.size());
        },
        63 + 16, 2);
}

TEST(UndoLog, RepeatedStoresToOneLineCaptureOncePerInterval)
{
    expectUndoRoundTrip(
        [](MainMemory &mem, Addr base) {
            for (int rep = 0; rep < 100; ++rep)
                mem.write(base + PageBytes + 64 + 8 * (rep % 8), 8, rep);
        },
        1, 1);

    MainMemory mem;
    mem.beginUndoLog();
    mem.write(0x4000, 8, 1);
    mem.write(0x4008, 8, 2);
    EXPECT_EQ(mem.sealUndoInterval().lines.size(), 1u);
    // The next interval captures the line afresh.
    mem.write(0x4010, 8, 3);
    EXPECT_EQ(mem.pendingUndo().lines.size(), 1u);
    EXPECT_EQ(mem.undoPagesPending(), 1u);
    mem.endUndoLog();
}

TEST(UndoLog, StoreCreatingAnAbsentPage)
{
    MainMemory mem;
    mem.write(0x4000, 8, 0x1111);
    uint64_t hashBefore = mem.contentHash();
    size_t pagesBefore = mem.pageCount();

    mem.beginUndoLog();
    mem.write(0x9010, 8, 0xcccc); // page 9 did not exist
    UndoLog log = mem.sealUndoInterval();
    EXPECT_EQ(mem.pageCount(), pagesBefore + 1);
    ASSERT_EQ(log.lines.size(), 1u);
    EXPECT_EQ(log.lines[0].addr, 0x9000u);
    EXPECT_EQ(log.pages, 1u);

    mem.applyUndo(log);
    EXPECT_EQ(mem.read(0x9010, 8), 0u);
    EXPECT_EQ(mem.read(0x4000, 8), 0x1111u);
    // An all-zero page digests like an absent one.
    EXPECT_EQ(mem.contentHash(), hashBefore);
    mem.endUndoLog();
}

TEST(UndoLog, RestoringSeveralLinesOfACodePageNotifiesOnce)
{
    struct Recorder : CodeWatcher
    {
        std::vector<uint64_t> frames;
        void onCodeWrite(uint64_t frame) override
        {
            frames.push_back(frame);
        }
    } rec;

    MainMemory mem = patterned(0x4000, PageBytes);
    std::vector<uint8_t> before = snapshot(mem, 0x4000, PageBytes);
    mem.addCodeWatcher(&rec);
    mem.beginUndoLog();
    for (Addr off : {0u, 128u, 1024u, 4032u})
        mem.write(0x4000 + off, 4, 0x5678);
    UndoLog log = mem.sealUndoInterval();
    ASSERT_EQ(log.lines.size(), 4u);

    mem.markCodePage(0x4000); // decodes cached after the writes
    mem.applyUndo(log);
    // The first restored line invalidates the page; the rest find it
    // unmarked until a watcher re-caches it.
    ASSERT_EQ(rec.frames.size(), 1u);
    EXPECT_EQ(rec.frames[0], 0x4000u / PageBytes);
    EXPECT_EQ(snapshot(mem, 0x4000, PageBytes), before);
    mem.removeCodeWatcher(&rec);
    mem.endUndoLog();
}

TEST(UndoLog, SparseStoresCaptureLinesNotPages)
{
    MainMemory mem;
    for (uint64_t p = 0; p < 512; ++p)
        mem.write(0x10000 + p * PageBytes, 8, p + 1);

    mem.beginUndoLog();
    // mcf-style: one small store into each of many pages.
    for (uint64_t p = 0; p < 512; ++p)
        mem.write(0x10000 + p * PageBytes + 24, 8, ~p);
    UndoLog log = mem.sealUndoInterval();
    EXPECT_EQ(log.pages, 512u);
    EXPECT_EQ(log.lines.size(), 512u);
    EXPECT_EQ(log.bytes(), 512u * UndoLineBytes);

    mem.applyUndo(log);
    for (uint64_t p = 0; p < 512; ++p)
        ASSERT_EQ(mem.read(0x10000 + p * PageBytes, 8), p + 1);
    mem.endUndoLog();
}

// ----------------------------------------- a heisenbug-style program

struct Session
{
    DebugTarget target;
    Debugger dbg;

    explicit Session(BackendKind kind, uint64_t cpInterval = 500)
        : target(buildHeisenbugDemo()), dbg(target, options(kind))
    {
        dbg.watch(WatchSpec::scalar("directory[0]",
                                    target.symbol("directory"), 8));
        EXPECT_TRUE(dbg.attach());
        TimeTravelConfig cfg;
        cfg.checkpointInterval = cpInterval;
        dbg.timeTravel(cfg);
    }

    static DebuggerOptions
    options(BackendKind kind)
    {
        DebuggerOptions o;
        o.backend = kind;
        return o;
    }

    TimeTravel &tt() { return dbg.timeTravel(); }
};

// -------------------------------------------------------- determinism

TEST(Replay, SameSeedDoubleRunDigestEquality)
{
    Session a(BackendKind::Dise);
    Session b(BackendKind::Dise);
    StopInfo ea = a.tt().runToEnd();
    StopInfo eb = b.tt().runToEnd();
    ASSERT_EQ(ea.reason, StopReason::Halted);
    ASSERT_EQ(eb.reason, StopReason::Halted);
    EXPECT_EQ(ea.time, eb.time);
    EXPECT_EQ(a.tt().eventCount(), b.tt().eventCount());
    EXPECT_EQ(a.tt().digest(), b.tt().digest());
}

TEST(Replay, CheckpointRestoreRerunEquivalence)
{
    Session s(BackendKind::Dise, 300);
    StopInfo end = s.tt().runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);
    ASSERT_GT(s.tt().checkpointCount(), 3u);
    uint64_t endDigest = s.tt().digest();
    size_t events = s.tt().eventCount();

    // Travel most of the way back, then re-run to the end: the replay
    // must land on the identical final state and event timeline.
    StopInfo back = s.tt().reverseStep(end.appInsts - 5);
    EXPECT_EQ(back.appInsts, 5u);
    ASSERT_GE(s.tt().stats().restores, 1u);
    StopInfo end2 = s.tt().runToEnd();
    EXPECT_EQ(end2.time, end.time);
    EXPECT_EQ(s.tt().eventCount(), events);
    EXPECT_EQ(s.tt().digest(), endDigest);
}

TEST(Replay, UndoByteCountersAreLineGranular)
{
    Session s(BackendKind::Dise, 300);
    StopInfo end = s.tt().runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);
    s.tt().reverseStep(end.appInsts - 5);
    const TimeTravel::Stats &st = s.tt().stats();
    ASSERT_GT(st.pagesCopied, 0u);
    ASSERT_GT(st.pagesRestored, 0u);
    EXPECT_EQ(st.bytesCopied % UndoLineBytes, 0u);
    EXPECT_EQ(st.bytesRestored % UndoLineBytes, 0u);
    // At least one line per page, at most a whole page.
    EXPECT_GE(st.bytesCopied, st.pagesCopied * UndoLineBytes);
    EXPECT_LE(st.bytesCopied, st.pagesCopied * PageBytes);
    EXPECT_GE(st.bytesRestored, st.pagesRestored * UndoLineBytes);
    EXPECT_LE(st.bytesRestored, st.pagesRestored * PageBytes);
}

TEST(Replay, ReverseStepIsExact)
{
    Session s(BackendKind::Dise);
    StopInfo p10 = s.tt().stepi(10);
    uint64_t d10 = s.tt().digest();
    StopInfo p15 = s.tt().stepi(5);
    ASSERT_EQ(p15.appInsts, 10u + 5u);
    StopInfo backAt10 = s.tt().reverseStep(5);
    EXPECT_EQ(backAt10.appInsts, p10.appInsts);
    EXPECT_EQ(backAt10.time, p10.time);
    EXPECT_EQ(backAt10.pc, p10.pc);
    EXPECT_EQ(s.tt().digest(), d10);
}

// --------------------------------------- reverse-continue, 5 backends

class AllBackendsReverse : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(AllBackendsReverse, ReverseContinueLandsOnCorruptingStore)
{
    Session s(GetParam());
    StopInfo end = s.tt().runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);
    ASSERT_GE(s.dbg.watchEvents().size(), 2u)
        << "scenario should corrupt the directory at least twice";
    size_t events = s.tt().eventCount();
    uint64_t endDigest = s.tt().digest();
    Addr lastHitPc = s.dbg.watchEvents().back().pc;

    // Reverse-continue from the end lands on the last watchpoint hit.
    StopInfo hit = s.tt().reverseContinue();
    ASSERT_EQ(hit.reason, StopReason::Event);
    EXPECT_EQ(hit.eventIndex, static_cast<int>(events) - 1);
    EXPECT_EQ(hit.mark.kind, EventKind::Watch);
    EXPECT_EQ(hit.mark.pc, lastHitPc);
    EXPECT_LT(hit.time, end.time);
    // The event list is rolled back to exactly this hit.
    EXPECT_EQ(s.dbg.watchEvents().size(),
              static_cast<size_t>(hit.mark.index) + 1);
    // Backends that detect at the store itself pinpoint the culprit.
    if (GetParam() == BackendKind::Dise ||
        GetParam() == BackendKind::VirtualMemory ||
        GetParam() == BackendKind::HardwareReg) {
        EXPECT_EQ(hit.mark.pc, s.target.symbol("the_store"));
    }

    // Again: the previous hit, strictly earlier.
    StopInfo prev = s.tt().reverseContinue();
    ASSERT_EQ(prev.reason, StopReason::Event);
    EXPECT_EQ(prev.eventIndex, hit.eventIndex - 1);
    EXPECT_LT(prev.time, hit.time);

    // Forward to the end again: bit-identical final state.
    StopInfo end2 = s.tt().runToEnd();
    EXPECT_EQ(end2.time, end.time);
    EXPECT_EQ(s.tt().digest(), endDigest);
}

TEST_P(AllBackendsReverse, RunToEventTravelsBothWays)
{
    Session s(GetParam());
    s.tt().runToEnd();
    size_t events = s.tt().eventCount();
    ASSERT_GE(events, 2u);

    StopInfo first = s.tt().runToEvent(0);
    ASSERT_EQ(first.reason, StopReason::Event);
    EXPECT_EQ(first.eventIndex, 0);
    EXPECT_EQ(s.tt().eventsSoFar(), 1u);

    StopInfo last = s.tt().runToEvent(events - 1);
    ASSERT_EQ(last.reason, StopReason::Event);
    EXPECT_EQ(last.eventIndex, static_cast<int>(events) - 1);
    EXPECT_EQ(s.tt().eventsSoFar(), events);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllBackendsReverse,
                         ::testing::Values(BackendKind::Dise,
                                           BackendKind::SingleStep,
                                           BackendKind::VirtualMemory,
                                           BackendKind::HardwareReg,
                                           BackendKind::Rewrite));

TEST(Replay, ReverseContinueTerminatesOnCoincidentEvents)
{
    // Two watchpoints on the same cell fire at the same micro-op,
    // producing marks with identical stream positions. Reverse-
    // continue must step past the whole coincident group or it would
    // re-land on the same position forever.
    DebugTarget target(buildHeisenbugDemo());
    DebuggerOptions o;
    o.backend = BackendKind::SingleStep;
    Debugger dbg(target, o);
    dbg.watch(WatchSpec::scalar("d0", target.symbol("directory"), 8));
    dbg.watch(WatchSpec::scalar("d0b", target.symbol("directory"), 8));
    ASSERT_TRUE(dbg.attach());
    TimeTravelConfig cfg;
    cfg.checkpointInterval = 500;
    TimeTravel &tt = dbg.timeTravel(cfg);
    tt.runToEnd();
    ASSERT_GE(tt.eventCount(), 4u);

    uint64_t prevTime = ~uint64_t{0};
    size_t stops = 0;
    for (StopInfo hit = tt.reverseContinue();
         hit.reason == StopReason::Event; hit = tt.reverseContinue()) {
        ASSERT_LT(hit.time, prevTime) << "no backward progress";
        prevTime = hit.time;
        ASSERT_LE(++stops, tt.eventCount());
    }
    EXPECT_GE(stops, 2u);
}

// ------------------------------------------------------ interventions

TEST(Replay, PokeForksTimelineAndReplaysDeterministically)
{
    Session s(BackendKind::Dise);
    StopInfo end = s.tt().runToEnd();
    size_t originalEvents = s.tt().eventCount();

    // Travel back to before the first corruption and scribble on the
    // watched cell: the future timeline is materially different now.
    s.tt().runToEvent(0);
    StopInfo before = s.tt().reverseStep(4);
    s.tt().pokeMemory(s.target.symbol("directory"), 8, 0x9999);
    // The explored future is stale now.
    EXPECT_EQ(s.tt().eventCount(), s.tt().eventsSoFar());
    EXPECT_LT(s.tt().eventCount(), originalEvents);

    StopInfo endA = s.tt().runToEnd();
    uint64_t digestA = s.tt().digest();
    size_t eventsA = s.tt().eventCount();

    // Replay across the poke: it is re-applied at its recorded time.
    s.tt().reverseStep(endA.appInsts - before.appInsts);
    StopInfo endB = s.tt().runToEnd();
    EXPECT_EQ(endB.time, endA.time);
    EXPECT_EQ(s.tt().eventCount(), eventsA);
    EXPECT_EQ(s.tt().digest(), digestA);
    (void)end;
}

TEST(Replay, RemovalUnwindPreservesPatternTableOrder)
{
    // Slot order breaks equal-specificity match ties. Remove two
    // same-anchor productions via interventions, reverse across both
    // removals, and verify the original winner still wins — a
    // first-free re-insert would have swapped their slots.
    Session s(BackendKind::Dise);
    const Addr anchor = 0x7fff0000; // never executed
    Production pa;
    pa.name = "first";
    pa.pattern = Pattern::forPc(anchor);
    pa.replacement.push_back(TemplateInst::trigInst());
    Production pb = pa;
    pb.name = "second";
    ProductionId idA = s.target.engine.addProduction(pa);
    ProductionId idB = s.target.engine.addProduction(pb);

    Inst nop;
    nop.op = Opcode::NOP;
    ASSERT_EQ(s.target.engine.matchFunctional(nop, anchor)->name,
              "first");

    s.tt().stepi(10);
    s.tt().removeProduction(idA);
    s.tt().stepi(10);
    s.tt().removeProduction(idB);
    s.tt().stepi(10);
    EXPECT_EQ(s.target.engine.matchFunctional(nop, anchor), nullptr);

    s.tt().reverseStep(25); // back across both removals
    const Production *winner =
        s.target.engine.matchFunctional(nop, anchor);
    ASSERT_NE(winner, nullptr);
    EXPECT_EQ(winner->name, "first");
}

TEST(Replay, ProductionInterventionUnwindsAcrossReverse)
{
    Session s(BackendKind::Dise);
    size_t baseProds = s.target.engine.productionCount();
    s.tt().stepi(50);

    // Debugger installs an extra (inert) production mid-session.
    Production p;
    p.name = "inert";
    p.pattern = Pattern::forPc(0x7fff0000); // never matches
    p.replacement.push_back(TemplateInst::trigInst());
    s.tt().addProduction(p);
    EXPECT_EQ(s.target.engine.productionCount(), baseProds + 1);

    s.tt().stepi(50);
    // Reverse across the intervention: the table mutation unwinds.
    s.tt().reverseStep(75);
    EXPECT_EQ(s.target.engine.productionCount(), baseProds);
    // Forward across it again: re-applied.
    s.tt().stepi(50);
    EXPECT_EQ(s.target.engine.productionCount(), baseProds + 1);
}

// ------------------------------------------- restore cache invalidation

TEST(Replay, RestoreInvalidatesStaleDecodes)
{
    // Self-modifying scenario: run to the end (fully populating the
    // predecoded µop cache for the text page), travel back to before
    // the first corruption, and patch the culprit store into a NOP via
    // a poke. If any stale decode survived the restore, the old store
    // would still execute; with correct invalidation the new timeline
    // never fires the watchpoint again.
    Session s(BackendKind::Dise);
    StopInfo end = s.tt().runToEnd();
    ASSERT_GE(s.tt().eventCount(), 1u);

    s.tt().runToEvent(0);
    s.tt().reverseStep(30); // safely before the first corrupting store
    Inst nop;
    nop.op = Opcode::NOP;
    s.tt().pokeMemory(s.target.symbol("the_store"), 4, encode(nop));
    EXPECT_EQ(s.tt().eventCount(), 0u); // explored future discarded

    StopInfo end2 = s.tt().runToEnd();
    EXPECT_EQ(end2.reason, StopReason::Halted);
    // No store ever executes again: the directory is never corrupted.
    EXPECT_EQ(s.tt().eventCount(), 0u);
    EXPECT_EQ(s.dbg.watchEvents().size(), 0u);
    EXPECT_NE(s.tt().digest(), 0u);
    (void)end;

    // The patched timeline replays deterministically too.
    uint64_t d1 = s.tt().digest();
    s.tt().reverseStep(end2.appInsts);
    s.tt().runToEnd();
    EXPECT_EQ(s.tt().digest(), d1);
}

// ------------------------------------------------------- sliced travel

TEST(SlicedTravel, BoundedQuantaMatchOneShotReverseContinue)
{
    // The same reverse-continue, one driven in tiny preemptible quanta
    // (the job scheduler's view), must land on the identical stop and
    // state as the one-shot verb.
    Session a(BackendKind::Dise), b(BackendKind::Dise);
    a.tt().runToEnd();
    b.tt().runToEnd();
    ASSERT_GE(a.tt().eventCount(), 2u);

    StopInfo ref = a.tt().reverseContinue();
    bool done = false;
    StopInfo got = b.tt().travelBegin(TravelVerb::ReverseContinue, 0,
                                      done);
    unsigned slices = 0;
    while (!done) {
        got = b.tt().travelStep(25, done);
        ++slices;
    }
    EXPECT_EQ(got.reason, ref.reason);
    EXPECT_EQ(got.eventIndex, ref.eventIndex);
    EXPECT_EQ(got.time, ref.time);
    EXPECT_EQ(got.pc, ref.pc);
    EXPECT_EQ(a.tt().digest(), b.tt().digest());
    // Interim quanta reported Step, never a user-visible stop.
    EXPECT_GE(slices, 1u);

    // reverse-step and run-to-event slice identically.
    StopInfo refStep = a.tt().reverseStep(40);
    got = b.tt().travelBegin(TravelVerb::ReverseStep, 40, done);
    while (!done)
        got = b.tt().travelStep(15, done);
    EXPECT_EQ(got.time, refStep.time);
    EXPECT_EQ(a.tt().digest(), b.tt().digest());

    size_t lastEvent = a.tt().eventCount() - 1;
    StopInfo refEvt = a.tt().runToEvent(lastEvent);
    got = b.tt().travelBegin(TravelVerb::RunToEvent, lastEvent, done);
    while (!done)
        got = b.tt().travelStep(30, done);
    EXPECT_EQ(got.reason, StopReason::Event);
    EXPECT_EQ(got.time, refEvt.time);
    EXPECT_EQ(a.tt().digest(), b.tt().digest());
}

TEST(SlicedTravel, AbandonedTravelLeavesAValidPosition)
{
    // An interrupted job stops mid-travel; the session must be usable
    // (and deterministic) from the intermediate position.
    Session s(BackendKind::Dise);
    StopInfo end = s.tt().runToEnd();
    uint64_t endDigest = s.tt().digest();

    bool done = false;
    s.tt().travelBegin(TravelVerb::ReverseStep, end.appInsts - 2, done);
    if (!done)
        s.tt().travelStep(1, done); // one tiny quantum, then abandon
    StopInfo resumed = s.tt().runToEnd(); // new verb cancels the travel
    EXPECT_EQ(resumed.reason, StopReason::Halted);
    EXPECT_EQ(resumed.time, end.time);
    EXPECT_EQ(s.tt().digest(), endDigest);
}

// ------------------------------------------------- pokes at event parks

TEST(Replay, PokeAtEventStopIsRecordedAndReplayed)
{
    // A gdb user writing memory at a watchpoint stop: the session sits
    // mid-expansion (an event park), which used to be refused. The
    // poke must apply, be recorded at its exact µop time, and replay
    // deterministically across reverse travel.
    Session s(BackendKind::Dise);
    StopInfo hit = s.tt().cont();
    ASSERT_EQ(hit.reason, StopReason::Event);

    Addr scratch = s.target.symbol("directory") + 64;
    s.tt().pokeMemory(scratch, 8, 0xfeedface);
    EXPECT_EQ(s.target.mem.read(scratch, 8), 0xfeedfaceu);

    // Travel across the poke and back: the intervention re-applies at
    // the park's exact stream position.
    StopInfo later = s.tt().stepi(100);
    ASSERT_GT(later.time, hit.time);
    EXPECT_EQ(s.target.mem.read(scratch, 8), 0xfeedfaceu);
    StopInfo backAtPark = s.tt().runToEvent(hit.eventIndex);
    EXPECT_EQ(backAtPark.time, hit.time);
    EXPECT_EQ(s.target.mem.read(scratch, 8), 0xfeedfaceu);
    StopInfo before = s.tt().reverseStep(5);
    ASSERT_LT(before.time, hit.time);
    EXPECT_NE(s.target.mem.read(scratch, 8), 0xfeedfaceu);
    StopInfo again = s.tt().runToEvent(hit.eventIndex);
    EXPECT_EQ(again.time, hit.time);
    EXPECT_EQ(s.target.mem.read(scratch, 8), 0xfeedfaceu);

    // Arbitrary mid-expansion positions (not an event park) stay
    // refused — there is no client-visible way to reach them anyway.
    // (Covered by the atBoundary assert; nothing to drive here.)
}

// ------------------------------------------- interval-parallel replay

class AllBackendsIntervalReplay
    : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(AllBackendsIntervalReplay, ParallelDigestsMatchSerialAndLive)
{
    // Reconstruct the explored timeline as independent checkpoint
    // intervals on share-nothing replicas: serial (1 worker) and
    // parallel (2 and 4 workers) must produce bit-identical stitched
    // digests, equal to the live session's own digest.
    SessionOptions so;
    so.debugger.backend = GetParam();
    so.timeTravel.checkpointInterval = 300;
    DebugSession s(buildHeisenbugDemo(), so);
    Program demo = buildHeisenbugDemo();
    s.setWatch(WatchSpec::scalar("directory", demo.symbol("directory"),
                                 8));
    StopInfo hit = s.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);
    StopInfo end = s.runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);

    IntervalReplay::Report serial = s.verifyReplay(1);
    ASSERT_TRUE(serial.ok) << serial.error;
    EXPECT_GT(serial.intervals.size(), 3u)
        << "timeline should span several checkpoint intervals";
    EXPECT_EQ(serial.finalDigest, s.digest());
    EXPECT_GT(serial.marksVerified, 0u);

    // Every worker count replays the same fixed cut, so the parallel
    // per-interval digests must equal serial's one for one.
    for (unsigned workers : {2u, 4u}) {
        IntervalReplay::Report par = s.verifyReplay(workers);
        ASSERT_TRUE(par.ok) << par.error;
        EXPECT_EQ(par.finalDigest, serial.finalDigest);
        EXPECT_EQ(par.marksVerified, serial.marksVerified);
        EXPECT_EQ(par.steals, 0u);
        ASSERT_EQ(par.intervals.size(), serial.intervals.size());
        for (size_t i = 0; i < par.intervals.size(); ++i)
            EXPECT_EQ(par.intervals[i].endDigest,
                      serial.intervals[i].endDigest)
                << "interval " << i;
    }
}

TEST_P(AllBackendsIntervalReplay, OddWorkerCountsStitchClean)
{
    // Worker counts that do not divide the 8-range cut, and more
    // workers than ranges, must stitch bit-identically to the live
    // digest.
    SessionOptions so;
    so.debugger.backend = GetParam();
    so.timeTravel.checkpointInterval = 300;
    Program demo = buildHeisenbugDemo();
    DebugSession s(demo, so);
    s.setWatch(WatchSpec::scalar("directory", demo.symbol("directory"),
                                 8));
    StopInfo hit = s.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);
    StopInfo end = s.runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);
    uint64_t live = s.digest();
    IntervalReplay::Report serial = s.verifyReplay(1);
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_EQ(serial.intervals.size(), 8u);

    IntervalReplay::Report odd = s.verifyReplay(3);
    ASSERT_TRUE(odd.ok) << odd.error;
    EXPECT_EQ(odd.workers, 3u);
    EXPECT_EQ(odd.finalDigest, live);
    EXPECT_EQ(odd.marksVerified, serial.marksVerified);

    // 12 workers against 8 ranges: one thread per range, no more.
    IntervalReplay::Report wide = s.verifyReplay(12);
    ASSERT_TRUE(wide.ok) << wide.error;
    EXPECT_EQ(wide.workers, 8u);
    EXPECT_EQ(wide.finalDigest, live);
    EXPECT_EQ(wide.marksVerified, serial.marksVerified);
}

TEST_P(AllBackendsIntervalReplay, RemovedWatchStaysInstalledInReplicas)
{
    // Removal after attach only mutes: the spec stays installed and
    // its events stay on the recorded timeline, so the replicas must
    // install it too.
    SessionOptions so;
    so.debugger.backend = GetParam();
    so.timeTravel.checkpointInterval = 300;
    Program demo = buildHeisenbugDemo();
    DebugSession s(demo, so);
    ASSERT_EQ(s.setWatch(WatchSpec::scalar(
                  "directory", demo.symbol("directory"), 8)),
              0);
    ASSERT_EQ(s.setWatch(WatchSpec::scalar(
                  "table", demo.symbol("table") + 8, 8)),
              1);
    StopInfo end = s.runToEnd();
    ASSERT_EQ(end.reason, StopReason::Halted);
    ASSERT_TRUE(s.removeWatch(1));

    for (unsigned workers : {1u, 2u, 4u}) {
        IntervalReplay::Report rep = s.verifyReplay(workers);
        ASSERT_TRUE(rep.ok) << workers << " workers: " << rep.error;
        EXPECT_EQ(rep.finalDigest, s.digest());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AllBackendsIntervalReplay,
    ::testing::Values(BackendKind::Dise, BackendKind::SingleStep,
                      BackendKind::VirtualMemory,
                      BackendKind::HardwareReg, BackendKind::Rewrite),
    [](const ::testing::TestParamInfo<BackendKind> &info) {
        switch (info.param) {
          case BackendKind::Dise: return "dise";
          case BackendKind::SingleStep: return "singlestep";
          case BackendKind::VirtualMemory: return "vm";
          case BackendKind::HardwareReg: return "hwreg";
          case BackendKind::Rewrite: return "rewrite";
        }
        return "unknown";
    });

TEST(IntervalReplay, RemoveWatchThenReplayVerifyOnMcf)
{
    // The scripts that found the removed-spec defect, on the workload
    // they found it on (mcf, scale 1, seed 1).
    Workload w = buildWorkload("mcf", {1, 1});
    {
        // The only watch removed after the run.
        DebugSession s(w.program);
        ASSERT_EQ(s.setWatch(w.watch(WatchSel::WARM1)), 0);
        ASSERT_EQ(s.runToEnd().reason, StopReason::Halted);
        ASSERT_TRUE(s.removeWatch(0));
        IntervalReplay::Report rep = s.verifyReplay(1);
        ASSERT_TRUE(rep.ok) << rep.error;
        EXPECT_EQ(rep.finalDigest, s.digest());
    }
    {
        // A watch added after the run (a rebuild), then removed.
        DebugSession s(w.program);
        ASSERT_EQ(s.setWatch(w.watch(WatchSel::WARM1)), 0);
        ASSERT_EQ(s.runToEnd().reason, StopReason::Halted);
        ASSERT_EQ(s.setWatch(w.watch(WatchSel::COLD)), 1);
        ASSERT_TRUE(s.removeWatch(1));
        IntervalReplay::Report rep = s.verifyReplay(2);
        ASSERT_TRUE(rep.ok) << rep.error;
        EXPECT_EQ(rep.finalDigest, s.digest());
    }
    {
        // The second of two watches removed after the run.
        DebugSession s(w.program);
        ASSERT_EQ(s.setWatch(w.watch(WatchSel::WARM1)), 0);
        ASSERT_EQ(s.setWatch(w.watch(WatchSel::WARM2)), 1);
        ASSERT_EQ(s.runToEnd().reason, StopReason::Halted);
        ASSERT_TRUE(s.removeWatch(1));
        IntervalReplay::Report rep = s.verifyReplay(2);
        ASSERT_TRUE(rep.ok) << rep.error;
        EXPECT_EQ(rep.finalDigest, s.digest());
    }
}

TEST(IntervalReplay, ReconstructsAParkedPositionWithInterventions)
{
    // The hard case: the live session sits parked on an event
    // (mid-expansion), with pokes logged both at boundaries and at the
    // park itself. The parallel reconstruction must still stitch to
    // the live digest.
    SessionOptions so;
    so.timeTravel.checkpointInterval = 250;
    Program demo = buildHeisenbugDemo();
    DebugSession s(demo, so);
    s.setWatch(WatchSpec::scalar("directory", demo.symbol("directory"),
                                 8));
    StopInfo hit = s.cont();
    ASSERT_EQ(hit.reason, StopReason::Event);
    Addr scratch = demo.symbol("directory") + 72;
    ASSERT_TRUE(s.writeMemory(scratch, 8, 0x1234)); // poke at the park
    s.stepi(40);
    ASSERT_TRUE(s.writeMemory(scratch, 8, 0x5678)); // boundary poke
    StopInfo hit2 = s.cont();
    (void)hit2;

    IntervalReplay::Report serial = s.verifyReplay(1);
    ASSERT_TRUE(serial.ok) << serial.error;
    IntervalReplay::Report par = s.verifyReplay(2);
    ASSERT_TRUE(par.ok) << par.error;
    EXPECT_EQ(par.finalDigest, serial.finalDigest);
    EXPECT_EQ(serial.finalDigest, s.digest());
}

} // namespace
} // namespace dise
