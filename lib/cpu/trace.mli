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
      Trace.write_file tr "run.json"
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

val dropped : t -> int

val to_chrome_json : t -> string
(** Chrome trace-event JSON: one complete event per span, one track per
    simulated core, timestamps in simulated cycles.  A span shorter
    than one cycle is written with a duration of 1. *)

val write_file : t -> string -> unit
