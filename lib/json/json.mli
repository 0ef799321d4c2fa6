(** A minimal JSON value type with one compact printer and a strict
    recursive-descent parser.  It is the only JSON writer in the tree:
    the service's newline-delimited wire, the metrics and soak
    artifacts, the Chrome trace and the fix, opt and barrier reports
    all print through it.  It depends on nothing, so every library
    that writes an artifact can use it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (strings escaped, no embedded
    newlines) — safe to emit as one NDJSON line.  A float prints as
    [%.1f] when it is integral and below 1e15 in magnitude (so it reads
    back exactly), as [%.6g] otherwise, and as [null] when it is nan or
    infinite. *)

val to_buffer : Buffer.t -> t -> unit
(** [to_string]'s rendering, appended to a buffer: lets a large
    document be streamed one element at a time. *)

val of_string : string -> (t, string) result
(** Parse one JSON document.  Trailing garbage, unterminated strings
    and malformed numbers all yield [Error] with a position message. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else. *)

val int : t -> int option
(** Accepts [Int] and integral [Float]. *)

val number : t -> float option
val list : t -> t list option

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_number : string -> t -> float option
(** [mem_* k j] = accessor composed with {!member}. *)
