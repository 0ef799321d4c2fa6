(** Execution tracing: collect per-core timed spans from a simulation
    and export them in the Chrome trace-event format (load the file at
    chrome://tracing or https://ui.perfetto.dev).

    A trace is a consumer of the {!Observe} stream: attach its
    {!observer} to a machine before spawning threads, or pass it to a
    runner that takes an observer ([Sim_runner.run], [Spsc_ring.run]):
    {[
      let tr = Trace.create () in
      let m = Machine.create ~observer:(Trace.observer tr) cfg in
      ...
      Armb_service.Out.write_with ~path:"run.json" (fun oc ->
          Trace.write_chrome_json (output_string oc) tr)
    ]} *)

type span = {
  core : int;
  kind : string;  (** "load" / "store" / "rmw" / "barrier" / "compute" *)
  name : string;  (** e.g. the barrier mnemonic or target address *)
  start_cycle : int;
  duration : int;
}

type t

val create : ?limit:int -> unit -> t
(** [limit] caps collected spans (default 200_000); further spans are
    counted but dropped. *)

val emit : t -> span -> unit

val observer : t -> Observe.t
(** One span per observed event, from [issued_at] lasting
    [completes_at - issued_at]: a load is kind "load" named
    ["ld 0x<addr>"] (acquire loads and loads forwarded from the store
    buffer included), a store "store" / ["st 0x<addr>"], an RMW "rmw" /
    ["rmw 0x<addr>"], a fence "barrier" named by its mnemonic, and
    [Compute n] "compute" / ["<n> ops"]. *)

val spans : t -> span list
(** In emission order. *)

val length : t -> int
(** Spans kept: [List.length (spans t)] without building the list. *)

val dropped : t -> int

val write_chrome_json : (string -> unit) -> t -> unit
(** [write_chrome_json sink t] hands Chrome trace-event JSON to [sink]
    piece by piece, one complete event per span, one track per
    simulated core, timestamps in simulated cycles.  A span shorter
    than one cycle is written with a duration of 1. *)
