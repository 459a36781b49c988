/**
 * @file
 * The unified PerfLab runner: one binary that can list, filter, run,
 * and perf-gate the whole registry. The perflab_* benches have no other
 * entry point; the dual-mode ablation and fig05 sources are compiled
 * here with AW_PERFLAB_HARNESS, which drops their standalone mains.
 */
#include "perflab/perflab.hpp"

int
main(int argc, char **argv)
{
    return aw::perflab::runMain(argc, argv);
}
