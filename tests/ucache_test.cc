/**
 * @file
 * Correctness tests for the hot-path caches, which are always on: the
 * predecoded µop cache (self-modifying-code invalidation through
 * MainMemory's CodeWatcher hook, match-outcome invalidation through the
 * engine's generation counter), the indexed production matcher
 * (equivalence with the linear scan a table wider than the candidate
 * mask takes), memoized expansions, and the fetchWord fast path.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "cpu/func_cpu.hh"
#include "cpu/loader.hh"
#include "debug/target.hh"
#include "dise/engine.hh"
#include "isa/encoding.hh"

namespace dise {
namespace {

using namespace reg;

Production
countStoresProduction()
{
    // Expand every store into {T.INST; addq dr0, 1, dr0}.
    Production p;
    p.name = "count-stores";
    p.pattern = Pattern::forClass(OpClass::Store);
    p.replacement = {
        TemplateInst::trigInst(),
        TemplateInst::opImm(Opcode::ADDQ_I, TRegField::reg(dr(0)), 1,
                            TRegField::reg(dr(0))),
    };
    return p;
}

// ----------------------------------------------------- self-modification

/**
 * A loop body instruction is executed (and therefore cached), then
 * overwritten in memory, then executed again: the new instruction must
 * take effect on the next pass.
 */
TEST(UopCache, SelfModifyingCodeInvalidatesCachedDecode)
{
    // Iteration 1 runs "addq t0, 1, t0" at the patch site, then the
    // loop tail overwrites the site with "addq t0, 7, t0".
    uint32_t patched = encode(makeOpImm(Opcode::ADDQ_I, t0, 7, t0));

    Assembler a;
    a.data(0x0200'0000);
    a.text(0x0100'0000);
    a.label("main");
    a.la(s0, "site");
    a.li(t2, patched);
    a.li(t0, 0);
    a.li(s1, 2); // two passes over the site
    a.label("again");
    a.label("site");
    a.addq(t0, 1, t0); // pass 1: +1; pass 2 (after patch): +7
    a.stl(t2, 0, s0);  // self-modify: overwrite the site
    a.subq(s1, 1, s1);
    a.bne(s1, "again");
    a.mov(t0, a0);
    a.syscall(SysMark);
    a.syscall(SysExit);

    DebugTarget target(a.finish("main"));
    target.load();
    StreamEnv env;
    env.sink = &target.sink;
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);
    FuncResult r = cpu.run();
    ASSERT_EQ(r.halt, HaltReason::Exited);
    ASSERT_EQ(target.sink.marks.size(), 1u);
    EXPECT_EQ(target.sink.marks[0], 8u); // 1 (original) + 7 (patched)
    EXPECT_GE(cpu.stream().uopCachedPages(), 1u); // the cache was in play
}

// --------------------------------------- production-table invalidation

/** Ten stores; the engine's production table mutates between runs. */
Program
tenStoreProgram()
{
    Assembler a;
    a.data(0x0200'0000);
    a.text(0x0100'0000);
    a.label("main");
    a.la(s0, "buf");
    for (int i = 0; i < 10; ++i)
        a.stq(t0, static_cast<int64_t>(8 * i), s0);
    a.syscall(SysExit);
    a.data(0x0200'0000);
    a.label("buf");
    a.space(96);
    return a.finish("main");
}

TEST(UopCache, AddingProductionInvalidatesCachedMatchOutcome)
{
    DebugTarget target(tenStoreProgram());
    target.load();
    StreamEnv env;
    env.sink = &target.sink;
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);

    // Execute the program's prologue plus a few stores with no
    // productions installed: their no-match outcomes are now cached.
    FuncResult r1 = cpu.run(5);
    ASSERT_EQ(r1.halt, HaltReason::InstLimit);
    ASSERT_GE(r1.stores, 1u);
    EXPECT_EQ(target.arch.readDise(0), 0u);

    // Install mid-run: the remaining stores (re-running PCs whose
    // "no match" outcome was cached) must now expand.
    target.engine.addProduction(countStoresProduction());
    FuncResult r2 = cpu.run();
    EXPECT_EQ(r2.halt, HaltReason::Exited);
    EXPECT_EQ(target.arch.readDise(0), 10u - r1.stores);
}

TEST(UopCache, RemovingProductionInvalidatesCachedMatchOutcome)
{
    DebugTarget target(tenStoreProgram());
    target.load();
    ProductionId id = target.engine.addProduction(countStoresProduction());
    StreamEnv env;
    env.sink = &target.sink;
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);

    // Run the prologue plus at least one expanded store.
    FuncResult r1 = cpu.run(5);
    ASSERT_EQ(r1.halt, HaltReason::InstLimit);
    ASSERT_GE(r1.stores, 1u);

    target.engine.removeProduction(id);
    FuncResult r2 = cpu.run();
    EXPECT_EQ(r2.halt, HaltReason::Exited);
    // Only stores executed while the production was installed counted
    // (an expansion in flight at the removal point still completes).
    EXPECT_EQ(target.arch.readDise(0), r1.stores);
}

TEST(UopCache, ClearInvalidatesCachedMatchOutcome)
{
    DebugTarget target(tenStoreProgram());
    target.load();
    target.engine.addProduction(countStoresProduction());
    StreamEnv env;
    env.sink = &target.sink;
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);

    FuncResult r1 = cpu.run(5);
    ASSERT_EQ(r1.halt, HaltReason::InstLimit);
    ASSERT_GE(r1.stores, 1u);

    target.engine.clear();
    FuncResult r2 = cpu.run();
    EXPECT_EQ(r2.halt, HaltReason::Exited);
    EXPECT_EQ(target.arch.readDise(0), r1.stores);
}

TEST(UopCache, SlotReuseDuringInFlightExpansionIsSafe)
{
    // Stop the stream mid-expansion (the trigger copy executed, the
    // dr0 increment still pending), then remove the matched production
    // and reuse its slot with a *shorter* replacement. The in-flight
    // expansion must complete with its original sequence and flags.
    DebugTarget target(tenStoreProgram());
    target.load();
    ProductionId id = target.engine.addProduction(countStoresProduction());
    StreamEnv env;
    env.sink = &target.sink;
    FuncCpu cpu(target.arch, target.mem, &target.engine, env);

    FuncResult r1 = cpu.run(5);
    ASSERT_EQ(r1.halt, HaltReason::InstLimit);
    ASSERT_GE(r1.stores, 1u);

    target.engine.removeProduction(id);
    Production del;
    del.name = "delete-stores";
    del.pattern = Pattern::forClass(OpClass::Store);
    del.replacement = {}; // shorter than the in-flight DISEPC
    target.engine.addProduction(del); // reuses the freed slot

    FuncResult r2 = cpu.run();
    EXPECT_EQ(r2.halt, HaltReason::Exited);
    // Stores expanded while the counter production was installed (the
    // in-flight one included) counted; later stores were deleted.
    EXPECT_EQ(target.arch.readDise(0), r1.stores);
}

// -------------------------------------------------- memoized expansion

Production
triggerDependentProduction()
{
    // Uses every trigger-derived field: T.RS1 (rb), T.RD (ra), T.IMM.
    Production p;
    p.name = "trigger-dependent";
    p.pattern = Pattern::forClass(OpClass::Store);
    p.replacement = {
        TemplateInst::opImm(Opcode::ADDQ_I, TRegField::trigRb(), 8,
                            TRegField::reg(dr(0))),
        TemplateInst::mem(Opcode::LDQ, TRegField::trigRa(),
                          TImmField::trigImm(), TRegField::reg(dr(0))),
        TemplateInst::trigInst(),
    };
    return p;
}

TEST(ExpansionMemo, MemoizedEqualsFreshForTriggerDependentTemplates)
{
    DiseEngine engine;
    engine.addProduction(triggerDependentProduction());

    Inst trigA = makeMem(Opcode::STQ, t0, 16, sp);
    Inst trigB = makeMem(Opcode::STL, t3, -8, s2);

    int slot = engine.matchSlot(trigA, 0x1000);
    ASSERT_GE(slot, 0);
    const Production *prod = engine.slotProduction(slot);

    auto memoA = engine.expandCached(slot, trigA);
    auto memoB = engine.expandCached(slot, trigB);
    EXPECT_EQ(memoA->insts, engine.expand(*prod, trigA));
    EXPECT_EQ(memoB->insts, engine.expand(*prod, trigB));
    EXPECT_NE(memoA->insts, memoB->insts); // fields flow from the trigger
    EXPECT_EQ(memoA->triggerCopy,
              (std::vector<uint8_t>{0, 0, 1})); // T.INST position

    // Repeat hits share the instantiated sequence.
    EXPECT_EQ(engine.expandCached(slot, trigA).get(), memoA.get());
}

TEST(ExpansionMemo, TableMutationDropsMemoButSequencesSurvive)
{
    DiseEngine engine;
    engine.addProduction(triggerDependentProduction());
    Inst trig = makeMem(Opcode::STQ, t0, 16, sp);
    int slot = engine.matchSlot(trig, 0x1000);
    ASSERT_GE(slot, 0);
    auto before = engine.expandCached(slot, trig);
    uint64_t gen = engine.generation();

    ProductionId id =
        engine.addProduction(countStoresProduction());
    EXPECT_GT(engine.generation(), gen);
    engine.removeProduction(id);

    // The shared sequence we hold is still intact, and a fresh lookup
    // (new memo entry) produces identical contents.
    int slot2 = engine.matchSlot(trig, 0x1000);
    ASSERT_GE(slot2, 0);
    auto after = engine.expandCached(slot2, trig);
    EXPECT_EQ(before->insts, after->insts);
}

// ------------------------------------------- indexed-match equivalence

TEST(IndexedMatch, AgreesWithLinearScanAcrossPatternKinds)
{
    // The reference engine's table is wider than the 64-bit candidate
    // mask, so it matches by linear scan. Both fill slots first-free,
    // so equal slot indices mean equal productions.
    DiseEngine engine;
    DiseEngineConfig wide;
    wide.patternTableEntries = 128;
    DiseEngine linearEngine(wide);
    auto ident = [](std::string name, Pattern pat) {
        Production p;
        p.name = std::move(name);
        p.pattern = pat;
        p.replacement = {TemplateInst::trigInst()};
        return p;
    };

    Pattern storeSp = Pattern::forClass(OpClass::Store);
    storeSp.baseReg = sp;
    Pattern loadAtPc = Pattern::forClass(OpClass::Load);
    loadAtPc.pc = 0x1010;
    Pattern onlyBase; // base-register-only: no indexable anchor
    onlyBase.baseReg = s0;

    for (DiseEngine *e : {&engine, &linearEngine}) {
        e->addProduction(ident("stores", Pattern::forClass(OpClass::Store)));
        e->addProduction(ident("stores-sp", storeSp));
        e->addProduction(ident("stq", Pattern::forOpcode(Opcode::STQ)));
        e->addProduction(ident("pc", Pattern::forPc(0x1008)));
        e->addProduction(ident("load-at-pc", loadAtPc));
        e->addProduction(ident("cw7", Pattern::forCodeword(7)));
        e->addProduction(ident("base-only", onlyBase));
    }

    const Inst insts[] = {
        makeMem(Opcode::STQ, t0, 0, sp),   makeMem(Opcode::STL, t0, 8, t1),
        makeMem(Opcode::STQ, t0, 0, s0),   makeMem(Opcode::LDQ, t2, 16, s0),
        makeMem(Opcode::LDQ, t2, 16, sp),  makeSystem(Opcode::CODEWORD, 7),
        makeSystem(Opcode::CODEWORD, 8),   makeNullary(Opcode::NOP),
        makeOp(Opcode::ADDQ, t0, t1, t2),  makeBranch(Opcode::BEQ, t0, 4),
    };
    const Addr pcs[] = {0x1000, 0x1008, 0x1010};

    for (const Inst &inst : insts) {
        for (Addr pc : pcs) {
            EXPECT_EQ(engine.matchSlot(inst, pc),
                      linearEngine.matchSlot(inst, pc))
                << "inst op " << static_cast<int>(inst.op) << " pc 0x"
                << std::hex << pc;
        }
    }
}

TEST(IndexedMatch, TablesWiderThanMaskFallBackToLinearScan)
{
    DiseEngineConfig cfg;
    cfg.patternTableEntries = 128; // wider than the 64-bit slot mask
    DiseEngine engine(cfg);
    Production p;
    p.name = "stores";
    p.pattern = Pattern::forClass(OpClass::Store);
    p.replacement = {TemplateInst::trigInst()};
    ProductionId id = engine.addProduction(p);

    Inst store = makeMem(Opcode::STQ, t0, 0, sp);
    int slot = engine.matchSlot(store, 0x1000);
    ASSERT_GE(slot, 0);
    EXPECT_EQ(engine.slotProduction(slot)->name, "stores");
    EXPECT_EQ(engine.productionCount(), 1u);
    engine.removeProduction(id);
    EXPECT_EQ(engine.matchSlot(store, 0x1000), -1);
}

// --------------------------------------------------- fetchWord fast path

TEST(FetchWord, MatchesGenericReadAndTracksWrites)
{
    MainMemory mem;
    mem.write(0x1000, 4, 0xdeadbeef);
    EXPECT_EQ(mem.fetchWord(0x1000), 0xdeadbeefu);
    EXPECT_EQ(mem.fetchWord(0x1000), mem.read(0x1000, 4));

    // Unmapped reads are zero; mapping the page afterwards must not be
    // masked by the one-entry page cache.
    EXPECT_EQ(mem.fetchWord(0x20000), 0u);
    mem.write(0x20000, 4, 0x12345678);
    EXPECT_EQ(mem.fetchWord(0x20000), 0x12345678u);

    // In-place updates show through the cached page pointer.
    mem.write(0x20000, 4, 0x87654321);
    EXPECT_EQ(mem.fetchWord(0x20000), 0x87654321u);

    // Page-straddling word.
    mem.write(PageBytes - 2, 8, 0x1122334455667788ull);
    EXPECT_EQ(mem.fetchWord(PageBytes - 2),
              static_cast<uint32_t>(mem.read(PageBytes - 2, 4)));
}

namespace {

struct RecordingWatcher : CodeWatcher
{
    std::vector<uint64_t> frames;
    void onCodeWrite(uint64_t frame) override { frames.push_back(frame); }
};

} // namespace

TEST(CodeWatch, MarkedPagesNotifyOnWriteThenUnmark)
{
    MainMemory mem;
    RecordingWatcher w;
    mem.addCodeWatcher(&w);

    mem.write(0x5000, 8, 1); // unmarked: silent
    EXPECT_TRUE(w.frames.empty());

    mem.markCodePage(0x5000);
    mem.write(0x5008, 8, 2);
    ASSERT_EQ(w.frames.size(), 1u);
    EXPECT_EQ(w.frames[0], 0x5000u / PageBytes);

    // The page unmarked itself; further writes are silent until
    // re-marked.
    mem.write(0x5010, 8, 3);
    EXPECT_EQ(w.frames.size(), 1u);
    mem.markCodePage(0x5000);
    mem.write(0x5018, 8, 4);
    EXPECT_EQ(w.frames.size(), 2u);

    mem.removeCodeWatcher(&w);
    mem.markCodePage(0x5000);
    mem.write(0x5020, 8, 5);
    EXPECT_EQ(w.frames.size(), 2u);
}

} // namespace
} // namespace dise
