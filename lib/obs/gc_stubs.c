/* The runtime's count of minor collections, read directly.

   Gc.quick_stat returns the same number, but on OCaml 5 it first
   aggregates the allocation statistics of every domain slot, which
   costs about 1 us a call. Minor collections stop every domain, so the
   count is one process-wide atomic word; reading it is a single load. */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/camlatomic.h>
#include <caml/minor_gc.h>

value hq_minor_collections(value unit)
{
  (void)unit;
  return Val_long(atomic_load(&caml_minor_collections_count));
}
