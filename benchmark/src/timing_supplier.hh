/**
 * @file
 * A timing decorator around the operand supplier, installed through
 * core::Processor::SupplierWrap exactly like the trace recorder, so
 * the storage layer's share of a simulation is measured from outside
 * the product.
 *
 * Every supplier call is forwarded unchanged and counted exactly,
 * grouped by the pipeline stage that makes it. Supplier calls last
 * tens of nanoseconds, about what one clock read costs, so timing
 * them one by one would measure the clock. Instead the decorator
 * only marks which stage is executing, and while Processor::run is
 * in progress an interval timer samples that mark every 100 us: the
 * share of samples in each stage is that stage's share of the run.
 * The samples also give a traced run its self-check: their count
 * times the period must match the CPU time Processor::run took.
 *
 * Unlike the trace recorder, the decorator leaves needsRecovery() to
 * the wrapped supplier: forcing it on would change the call stream
 * it is meant to measure.
 */

#ifndef UBRC_BENCHMARK_SRC_TIMING_SUPPLIER_HH
#define UBRC_BENCHMARK_SRC_TIMING_SUPPLIER_HH

#include <array>
#include <cstdint>
#include <memory>

#include "core/processor.hh"
#include "storage/operand_supplier.hh"

namespace ubrcbench
{

/** Pipeline stage a supplier call belongs to. */
enum class Stage : unsigned
{
    Rename,
    Read,
    Write,
    Retire,
    Squash,
    Cycle,
};

inline constexpr unsigned numStages = 6;

const char *stageName(Stage s);

/** What decorated simulations measured. */
struct SupplierProfile
{
    std::array<uint64_t, numStages> calls{};   ///< exact
    std::array<uint64_t, numStages> samples{}; ///< inside a call
    uint64_t coreSamples = 0;                  ///< outside any call
    double periodS = 0; ///< sampling period
    double cpuS = 0;    ///< CPU time of the sampled runs

    uint64_t totalCalls() const;
    uint64_t totalSamples() const;
    void add(const SupplierProfile &o);
};

class TimingSupplier : public ubrc::storage::OperandSupplier
{
  public:
    TimingSupplier(std::unique_ptr<ubrc::storage::OperandSupplier> wrapped,
                   SupplierProfile &profile,
                   const ubrc::sim::SimConfig &config,
                   ubrc::stats::StatGroup &stat_group);

    const char *name() const override;
    ubrc::storage::OptionalNotifications
    optionalNotifications() const override;

    bool canAllocateDest() const override;
    void onConsumerRenamed(ubrc::PhysReg src, uint32_t actual_uses,
                           ubrc::Addr producer_pc,
                           uint64_t producer_ctrl) override;
    ubrc::storage::DestAlloc allocateDest(ubrc::PhysReg preg,
                                          ubrc::Addr pc,
                                          uint64_t ctrl) override;
    void onInitialValue(ubrc::PhysReg preg) override;
    void onArchReassigned(ubrc::PhysReg prev) override;
    void onArchReassignCancelled(ubrc::PhysReg prev) override;
    ubrc::Cycle issueReadGate(ubrc::Cycle exec_start,
                              ubrc::Cycle producer_done) const override;
    bool hasIssueReadGate() const override;
    void onBypassRead(ubrc::PhysReg src, bool first_stage) override;
    ubrc::storage::ReadResult readOperand(ubrc::PhysReg src,
                                          ubrc::Cycle now) override;
    ubrc::Cycle onOperandMiss(ubrc::PhysReg src,
                              ubrc::Cycle exec_start) override;
    bool onFill(ubrc::PhysReg preg, ubrc::Cycle now) override;
    void onConsumerDone(ubrc::PhysReg src) override;
    ubrc::storage::WriteOutcome onValueProduced(ubrc::PhysReg preg,
                                                ubrc::Cycle now) override;
    void onInsertDecision(ubrc::PhysReg preg, ubrc::Cycle now) override;
    void onProducerRetired(ubrc::PhysReg dest) override;
    void onValueFreed(ubrc::PhysReg preg, ubrc::Addr producer_pc,
                      uint64_t producer_ctrl, uint32_t actual_uses,
                      ubrc::Cycle now) override;
    void onDestSquashed(ubrc::PhysReg dest, ubrc::Cycle now) override;
    bool needsRecovery() const override;
    ubrc::storage::RecoveryResult
    recoverMappings(const std::vector<ubrc::PhysReg> &mapped,
                    ubrc::Cycle now) override;
    void tick(ubrc::Cycle now) override;
    void sampleCycleStats() override;
    std::vector<ubrc::storage::CacheEntryView>
    cachedEntries() const override;
    unsigned cacheSets() const override;
    unsigned cacheAssoc() const override;
    bool corruptUseCounter(ubrc::PhysReg preg, unsigned set,
                           unsigned bit) override;
    ubrc::storage::SupplierStats stats() const override;

  private:
    /** Counts one forwarded call and marks its stage while it runs. */
    class Call
    {
      public:
        Call(SupplierProfile &prof, Stage stage);
        ~Call();
        Call(const Call &) = delete;
        Call &operator=(const Call &) = delete;
    };

    Call call(Stage s) const { return Call(prof, s); }

    std::unique_ptr<ubrc::storage::OperandSupplier> inner;
    SupplierProfile &prof;
};

/** SupplierWrap installing a TimingSupplier that fills `profile`. */
ubrc::core::Processor::SupplierWrap timingWrap(SupplierProfile &profile);

/**
 * Run `proc` with the stage sampler armed, adding its samples to
 * `profile`. The sampler is a process-wide interval timer, so one
 * sampled run at a time.
 */
void runSampled(ubrc::core::Processor &proc, SupplierProfile &profile);

} // namespace ubrcbench

#endif // UBRC_BENCHMARK_SRC_TIMING_SUPPLIER_HH
