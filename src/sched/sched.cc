// Header-hygiene translation unit: instantiates every scheduler header so
// each is compiled stand-alone at least once.
#include "sched/concurrent_multiqueue.h"
#include "sched/dary_heap.h"
#include "sched/exact_heap.h"
#include "sched/faa_array_queue.h"
#include "sched/kbounded.h"
#include "sched/lockfree_multiqueue.h"
#include "sched/order_stat_set.h"
#include "sched/relaxation_monitor.h"
#include "sched/scheduler.h"
#include "sched/sim_multiqueue.h"
#include "sched/sim_spraylist.h"
#include "sched/topk_uniform.h"

namespace relax::sched {

// Explicit instantiations exercised by the archive.
template class DaryHeap<Priority>;
template class RelaxationMonitor<ExactHeapScheduler>;
template class RelaxationMonitor<SimMultiQueue>;
template class RelaxationMonitor<TopKUniformScheduler>;
template class RelaxationMonitor<SimSprayList>;
template class RelaxationMonitor<KBoundedScheduler>;

}  // namespace relax::sched
