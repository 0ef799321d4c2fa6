(** DSM-Synch-style migratory combining lock (Fatourou & Kallimanis,
    PPoPP'12) on the simulator — the second delegation-lock family of
    §5 (Figures 7(c) and 8).

    Threads append a node to a global queue with an atomic swap and
    announce their request in the node received from the swap; the
    thread released with the "handoff" payload becomes the {e combiner}
    and executes up to [combine_bound] queued requests before handing
    the role onward.  Releasing a waiter ("your request completed",
    carrying the return value) is the data-then-flag pattern whose
    barrier lands strictly after an RMR — the node line lives in the
    waiter's cache.

    With [pilot = true], the combiner piggybacks the return value and
    the completed/handoff bit on the node's release word via the
    {!Armb_core.Pilot} codec (Algorithm 6 applied to a migratory
    server), removing that barrier.

    Composable: create several instances in one machine; each
    participating thread uses a distinct [me] index.  Return values are
    packed with 2 status bits, so keep them non-negative below 2^61. *)

type critical = Armb_cpu.Core.t -> client:int -> int64 -> int64

type t

val create :
  Armb_cpu.Machine.t ->
  parties:int ->
  ?pilot:bool ->
  ?combine_bound:int ->
  critical:critical ->
  unit ->
  t

val exec : t -> Armb_cpu.Core.t -> me:int -> int64 -> int64
(** Submit an argument; returns the critical section's return value.
    The calling thread may end up combining other parties' requests. *)

val combines : t -> int
(** Requests executed by a combiner on behalf of another thread. *)
