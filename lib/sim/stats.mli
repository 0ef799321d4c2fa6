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

(** {2 Counters} *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val reset : t -> unit
end

(** {2 Histogram with log-linear buckets} *)

module Histogram : sig
  type t

  val create : unit -> t
  (** Every value below 16 has a bucket of its own; above, each power of
      two splits into 16 equal buckets, so a bucket spans at most 1/16
      (6.25%) of its lower edge.  944 buckets cover every non-negative
      [int]; negative values count as 0. *)

  val add : t -> int -> unit
  val total : t -> int

  val count_at : t -> int -> int
  (** [count_at h v]: the samples in the bucket that holds [v]. *)

  val percentile : t -> float -> int
  (** [percentile h q] for [q] in (0, 1] returns the largest value of the
      bucket holding the nearest-rank [q]-quantile, capped at the
      largest sample: at least that order statistic and at most 6.25%
      above it; [q] above 1 reads as 1.  [percentile h 0.0] is the
      smallest sample; an empty histogram reports 0. *)

  val pp : Format.formatter -> t -> unit
end

(** {2 Throughput helpers} *)

val throughput_per_sec : ops:int -> cycles:int -> freq_ghz:float -> float
(** Operations per wall-clock second given a cycle count at the platform
    frequency.  [cycles] = 0 yields 0. *)
