/* sched_setaffinity for the serve_mix client and server: one CPU each,
   so the scheduler cannot stack both processes on one core part of the
   time and change the figures from run to run. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* [pin pid cpu]: true when [pid] (0 for the caller) now runs on [cpu]
   only. */
value perfbench_pin(value pid, value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(Int_val(pid), sizeof set, &set) == 0);
}

/* The CPUs the caller may run on, as a bit mask of the first 62. */
value perfbench_allowed(value unit)
{
  cpu_set_t set;
  long mask = 0;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int i = 0; i < 62; i++)
      if (CPU_ISSET(i, &set)) mask |= 1L << i;
  return Val_long(mask);
}
