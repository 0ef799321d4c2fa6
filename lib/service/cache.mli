(** A bounded memo cache with least-recently-used eviction.

    Keys are content addresses ({!Key}), values are whatever the engine
    memoizes (job results).  [find] counts as a use; [put] of an
    existing key refreshes both value and recency.  Capacity is a hard
    bound on resident entries — inserting the [cap+1]-th entry evicts
    the least recently used one in O(1). *)

type 'a t

val create : cap:int -> 'a t
(** Raises [Invalid_argument] when [cap < 1] (a cacheless engine is
    expressed by not consulting the cache, not by a zero-capacity
    one). *)

val size : 'a t -> int

val find : 'a t -> string -> 'a option
(** Bumps the entry to most-recently-used on a hit. *)

val mem : 'a t -> string -> bool
(** Pure lookup: does not touch recency. *)

val put : 'a t -> string -> 'a -> unit

val keys_mru : 'a t -> string list
(** All resident keys, most recently used first (introspection for
    tests and the metrics dump). *)
