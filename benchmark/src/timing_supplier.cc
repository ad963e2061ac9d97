#include "timing_supplier.hh"

#include <atomic>
#include <csignal>
#include <ctime>

#include <sys/time.h>

namespace ubrcbench
{

using namespace ubrc;

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Rename: return "rename";
      case Stage::Read: return "read";
      case Stage::Write: return "write";
      case Stage::Retire: return "retire";
      case Stage::Squash: return "squash";
      case Stage::Cycle: return "cycle";
    }
    return "?";
}

uint64_t
SupplierProfile::totalCalls() const
{
    uint64_t n = 0;
    for (uint64_t c : calls)
        n += c;
    return n;
}

uint64_t
SupplierProfile::totalSamples() const
{
    uint64_t n = coreSamples;
    for (uint64_t c : samples)
        n += c;
    return n;
}

void
SupplierProfile::add(const SupplierProfile &o)
{
    for (unsigned i = 0; i < numStages; ++i) {
        calls[i] += o.calls[i];
        samples[i] += o.samples[i];
    }
    coreSamples += o.coreSamples;
    periodS = o.periodS;
    cpuS += o.cpuS;
}

namespace
{

constexpr long samplePeriodUs = 100;

// 0 while the core runs, stage + 1 inside a supplier call. Written by
// the simulating thread, read by the SIGALRM handler; supplier calls
// never nest, so one slot suffices.
std::atomic<unsigned> currentStage{0};
std::array<std::atomic<uint64_t>, numStages + 1> sampleCounts{};
static_assert(std::atomic<unsigned>::is_always_lock_free &&
              std::atomic<uint64_t>::is_always_lock_free);

extern "C" void
onSample(int)
{
    sampleCounts[currentStage.load(std::memory_order_relaxed)]
        .fetch_add(1, std::memory_order_relaxed);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** The armed sampler: handler installed and the timer running. */
class Sampler
{
  public:
    Sampler()
    {
        for (auto &c : sampleCounts)
            c.store(0, std::memory_order_relaxed);
        struct sigaction sa
        {};
        sa.sa_handler = onSample;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESTART;
        sigaction(SIGALRM, &sa, &previous);
        itimerval on{};
        on.it_interval.tv_usec = samplePeriodUs;
        on.it_value.tv_usec = samplePeriodUs;
        setitimer(ITIMER_REAL, &on, nullptr);
    }

    ~Sampler()
    {
        const itimerval off{};
        setitimer(ITIMER_REAL, &off, nullptr);
        sigaction(SIGALRM, &previous, nullptr);
    }

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

  private:
    struct sigaction previous
    {};
};

} // namespace

TimingSupplier::Call::Call(SupplierProfile &prof, Stage stage)
{
    ++prof.calls[static_cast<unsigned>(stage)];
    currentStage.store(static_cast<unsigned>(stage) + 1,
                       std::memory_order_relaxed);
    // Keep the compiler from moving the mark across the forwarded
    // call; the handler runs on this thread between instructions.
    std::atomic_signal_fence(std::memory_order_seq_cst);
}

TimingSupplier::Call::~Call()
{
    std::atomic_signal_fence(std::memory_order_seq_cst);
    currentStage.store(0, std::memory_order_relaxed);
}

TimingSupplier::TimingSupplier(
    std::unique_ptr<storage::OperandSupplier> wrapped,
    SupplierProfile &profile, const sim::SimConfig &config,
    stats::StatGroup &stat_group)
    : OperandSupplier(config, stat_group), inner(std::move(wrapped)),
      prof(profile)
{}

const char *
TimingSupplier::name() const
{
    return inner->name();
}

storage::OptionalNotifications
TimingSupplier::optionalNotifications() const
{
    return inner->optionalNotifications();
}

bool
TimingSupplier::canAllocateDest() const
{
    const Call c = call(Stage::Rename);
    return inner->canAllocateDest();
}

void
TimingSupplier::onConsumerRenamed(PhysReg src, uint32_t actual_uses,
                                  Addr producer_pc,
                                  uint64_t producer_ctrl)
{
    const Call c = call(Stage::Rename);
    inner->onConsumerRenamed(src, actual_uses, producer_pc,
                             producer_ctrl);
}

storage::DestAlloc
TimingSupplier::allocateDest(PhysReg preg, Addr pc, uint64_t ctrl)
{
    const Call c = call(Stage::Rename);
    return inner->allocateDest(preg, pc, ctrl);
}

void
TimingSupplier::onInitialValue(PhysReg preg)
{
    // Construction time, outside Processor::run: not measured.
    inner->onInitialValue(preg);
}

void
TimingSupplier::onArchReassigned(PhysReg prev)
{
    const Call c = call(Stage::Rename);
    inner->onArchReassigned(prev);
}

void
TimingSupplier::onArchReassignCancelled(PhysReg prev)
{
    const Call c = call(Stage::Squash);
    inner->onArchReassignCancelled(prev);
}

Cycle
TimingSupplier::issueReadGate(Cycle exec_start, Cycle producer_done) const
{
    const Call c = call(Stage::Read);
    return inner->issueReadGate(exec_start, producer_done);
}

bool
TimingSupplier::hasIssueReadGate() const
{
    return inner->hasIssueReadGate();
}

void
TimingSupplier::onBypassRead(PhysReg src, bool first_stage)
{
    const Call c = call(Stage::Read);
    inner->onBypassRead(src, first_stage);
}

storage::ReadResult
TimingSupplier::readOperand(PhysReg src, Cycle now)
{
    const Call c = call(Stage::Read);
    return inner->readOperand(src, now);
}

Cycle
TimingSupplier::onOperandMiss(PhysReg src, Cycle exec_start)
{
    const Call c = call(Stage::Read);
    return inner->onOperandMiss(src, exec_start);
}

bool
TimingSupplier::onFill(PhysReg preg, Cycle now)
{
    const Call c = call(Stage::Read);
    return inner->onFill(preg, now);
}

void
TimingSupplier::onConsumerDone(PhysReg src)
{
    const Call c = call(Stage::Read);
    inner->onConsumerDone(src);
}

storage::WriteOutcome
TimingSupplier::onValueProduced(PhysReg preg, Cycle now)
{
    const Call c = call(Stage::Write);
    return inner->onValueProduced(preg, now);
}

void
TimingSupplier::onInsertDecision(PhysReg preg, Cycle now)
{
    const Call c = call(Stage::Write);
    inner->onInsertDecision(preg, now);
}

void
TimingSupplier::onProducerRetired(PhysReg dest)
{
    const Call c = call(Stage::Retire);
    inner->onProducerRetired(dest);
}

void
TimingSupplier::onValueFreed(PhysReg preg, Addr producer_pc,
                             uint64_t producer_ctrl,
                             uint32_t actual_uses, Cycle now)
{
    const Call c = call(Stage::Retire);
    inner->onValueFreed(preg, producer_pc, producer_ctrl, actual_uses,
                        now);
}

void
TimingSupplier::onDestSquashed(PhysReg dest, Cycle now)
{
    const Call c = call(Stage::Squash);
    inner->onDestSquashed(dest, now);
}

bool
TimingSupplier::needsRecovery() const
{
    const Call c = call(Stage::Squash);
    return inner->needsRecovery();
}

storage::RecoveryResult
TimingSupplier::recoverMappings(const std::vector<PhysReg> &mapped,
                                Cycle now)
{
    const Call c = call(Stage::Squash);
    return inner->recoverMappings(mapped, now);
}

void
TimingSupplier::tick(Cycle now)
{
    const Call c = call(Stage::Cycle);
    inner->tick(now);
}

void
TimingSupplier::sampleCycleStats()
{
    const Call c = call(Stage::Cycle);
    inner->sampleCycleStats();
}

std::vector<storage::CacheEntryView>
TimingSupplier::cachedEntries() const
{
    return inner->cachedEntries();
}

unsigned
TimingSupplier::cacheSets() const
{
    return inner->cacheSets();
}

unsigned
TimingSupplier::cacheAssoc() const
{
    return inner->cacheAssoc();
}

bool
TimingSupplier::corruptUseCounter(PhysReg preg, unsigned set,
                                  unsigned bit)
{
    return inner->corruptUseCounter(preg, set, bit);
}

storage::SupplierStats
TimingSupplier::stats() const
{
    return inner->stats();
}

core::Processor::SupplierWrap
timingWrap(SupplierProfile &profile)
{
    return [&profile](std::unique_ptr<storage::OperandSupplier> inner,
                      const sim::SimConfig &cfg,
                      stats::StatGroup &group)
               -> std::unique_ptr<storage::OperandSupplier> {
        return std::make_unique<TimingSupplier>(std::move(inner),
                                                profile, cfg, group);
    };
}

void
runSampled(core::Processor &proc, SupplierProfile &profile)
{
    const double cpu0 = threadCpuSeconds();
    {
        const Sampler sampler;
        proc.run();
    }
    profile.cpuS += threadCpuSeconds() - cpu0;
    profile.periodS = static_cast<double>(samplePeriodUs) * 1e-6;
    profile.coreSamples += sampleCounts[0].load();
    for (unsigned i = 0; i < numStages; ++i)
        profile.samples[i] += sampleCounts[i + 1].load();
}

} // namespace ubrcbench
