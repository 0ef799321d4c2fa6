(* Observation hook: a per-core stream of micro-operation events emitted
   by Core at issue time.  Consumers (the happens-before sanitizer in
   armb_check, the Chrome-trace collector in Trace) see program order,
   barrier/acquire/release annotations, explicit dependencies, ALU work,
   and the timing model's completion timestamps, which is enough to
   reconstruct both the preserved program order and the per-location
   coherence order of a run. *)

type kind =
  | Load of { acquire : bool }
  | Store of { release : bool }
  | Rmw of { acq : bool; rel : bool }
  | Fence of Barrier.t
  | Compute of int

type event = {
  core : int;
  seq : int;
      (* per-core program-order index; every access and fence takes one
         slot, so [seq] doubles as an event id within its core; -1 for
         [Compute], which takes none *)
  kind : kind;
  addr : int; (* byte address of the access; -1 for [Fence] and [Compute] *)
  deps : int list;
      (* seqs of same-core loads whose value this op's address or data
         depends on (architectural address/data dependencies) *)
  issued_at : int;
  completes_at : int;
      (* load: value-sample time; store: commit (drain) time; rmw:
         commit time; fence: barrier response time; compute: the
         core's cursor once the work has issued *)
}

type t = event -> unit

let is_access = function Load _ | Store _ | Rmw _ -> true | Fence _ | Compute _ -> false

let kind_to_string = function
  | Load { acquire } -> if acquire then "ldar" else "ldr"
  | Store { release } -> if release then "stlr" else "str"
  | Rmw { acq; rel } ->
    "rmw" ^ (if acq then ".acq" else "") ^ if rel then ".rel" else ""
  | Fence b -> Barrier.to_string b
  | Compute n -> Printf.sprintf "compute %d" n
