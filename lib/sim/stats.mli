(** Lightweight statistics for simulation measurements. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

type t
(** Streaming accumulator (Welford's algorithm). *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float

val stddev : t -> float

val summary : t -> summary

val pp_summary : Format.formatter -> summary -> unit

(** {2 Counters} *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val reset : t -> unit
end

(** {2 Histogram with fixed-width buckets} *)

module Histogram : sig
  type t

  val create : bucket_width:int -> buckets:int -> t
  (** Values >= bucket_width*buckets land in the overflow bucket. *)

  val add : t -> int -> unit
  val total : t -> int
  val bucket_count : t -> int -> int

  val percentile : t -> float -> int
  (** [percentile h 0.99] returns an upper bound of the bucket containing
      the requested quantile; [percentile h 0.0] returns the lower bound
      of the first non-empty bucket.  A quantile landing in the overflow
      slot reports the largest sample recorded rather than a fictitious
      finite bucket edge. *)

  val pp : Format.formatter -> t -> unit
end

(** {2 Throughput helpers} *)

val throughput_per_sec : ops:int -> cycles:int -> freq_ghz:float -> float
(** Operations per wall-clock second given a cycle count at the platform
    frequency.  [cycles] = 0 yields 0. *)
