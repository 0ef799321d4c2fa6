(** FFWD-style dedicated-server delegation lock (Roghanchi et al.,
    SOSP'17) on the simulator — §5.1/§5.3 of the paper, Figures 7(b),
    7(c) and 8.

    A server thread scans per-client request lines; on a toggled request
    flag it executes the client's critical section locally and publishes
    the response (Algorithm 5).  The two barriers are pluggable:

    - [read_req] (line 4) orders the request-flag load before the
      argument load and the critical section's reads;
    - [publish_resp] (line 7) orders the critical section's stores and
      the return-value store before the response-flag store — the
      barrier that lands strictly after an RMR (the response line lives
      in the client's cache).

    Like FFWD, the server batches: all requests found pending in one
    scan share a single publish barrier.

    With [pilot = true] the lock applies Algorithm 6: return values
    (and request arguments) are piggybacked on single words via the
    {!Armb_core.Pilot} codec, so each direction moves exactly one cache
    line and no barrier follows an RMR.

    The module is composable: create any number of instances in one
    {!Armb_cpu.Machine.t}, give each client thread an index, and run one
    {!server_body} (serving one or several instances) on a dedicated
    core.  The critical section is a dispatcher fixed at creation;
    requests pass a 62-bit argument (payloads must stay non-negative
    below 2^61 so Pilot packing cannot alias). *)

type barriers = { read_req : Armb_core.Ordering.t; publish_resp : Armb_core.Ordering.t }

type critical = Armb_cpu.Core.t -> client:int -> int64 -> int64

type t

val create :
  Armb_cpu.Machine.t -> num_clients:int -> barriers:barriers -> pilot:bool -> critical:critical -> t

val request : t -> Armb_cpu.Core.t -> client:int -> int64 -> int64
(** Submit an argument from this client slot and wait for the return
    value.  Each client slot must be used by a single thread. *)

val client_done : t -> client:int -> unit
(** Tell the server this client will submit no more requests; the
    server body returns once every client of every instance it serves
    is done and drained. *)

val server_body : t list -> Armb_cpu.Core.t -> unit
(** Server loop serving one or more instances (spawn on its own core). *)
