(** The many-core barrier crossover study (ROADMAP item 3).

    Sweeps {!Armb_sync.Sync_barrier}'s three primitives over
    {!Armb_platform.Platform.manycore} machines of growing size and
    reports cycles per barrier episode, plus the {e crossover}: the
    smallest size at which the combining tree beats the central
    counter.  Centralized arrival serializes O(n) rmws on one line, so
    its episode cost grows linearly with a large constant (the line
    ping-pongs across clusters and nodes); the tree pays O(log n) depth
    with per-line contention capped at the arity, and dissemination
    pays O(log n) rounds of point-to-point flags with no rmws at all.

    Sizes must be valid manycore shapes (multiples of 8 within
    [Platform.manycore_min .. manycore_max] splitting into uniform
    nodes) — validated up front, before any simulation runs. *)

type cell = { cycles_per_episode : float; events : int }

type row = { cores : int; central : cell; tree : cell; dissemination : cell }

type t = {
  sizes : int list;
  episodes : int;
  work : int;
  arity : int;
  rows : row list;
  crossover : int option;
      (** smallest size where the tree's cycles-per-episode drops below
          the central counter's, if any in the sweep *)
}

val default_sizes : int list
(** [8; 16; 32; 64; 128; 256; 512]. *)

val run :
  ?sizes:int list ->
  ?episodes:int ->
  ?work:int ->
  ?arity:int ->
  ?progress:(int -> unit) ->
  unit ->
  t
(** Defaults: {!default_sizes}, 4 episodes, 64 work cycles, arity 4.
    [progress] is called with each size before it is simulated.  Raises
    [Invalid_argument] (with the {!Armb_platform.Platform.manycore_shape}
    message) on invalid sizes. *)

val pp : Format.formatter -> t -> unit
(** Cycles-per-episode table plus the crossover line. *)

val to_json : t -> Armb_json.Json.t
(** Schema [armb-barrier-study-v1]: the sweep's parameters, the
    crossover ([null] if none) and one row per size with the three
    cycles-per-episode values and the simulated events of all three. *)
