(** Front ends over {!Engine}: the NDJSON streaming loop behind
    [armb serve], the one-shot batch runner behind [armb serve --batch],
    and the warm-vs-cold comparison behind [armb serve --batch
    --compare-cold] that verifies the cache instead of trusting it.
    Request files come from [armb soak --emit] ({!Armb_soak.Gen}). *)

val serve :
  ?drain_every:int ->
  ?max_requests:int ->
  ?duration_s:float ->
  Engine.t ->
  in_channel ->
  out_channel ->
  unit
(** Streaming mode: read one JSON request per line, write one JSON
    response per line.  Immediate answers (hits, sheds, errors) are
    emitted as soon as the request is read; queued work is drained
    whenever [drain_every] (default 16) computations are pending, when
    the next line has not arrived yet (so a client that waits for its
    answer gets it), and at end of input.  Identical requests arriving
    close together coalesce; input from a regular file never waits, so
    it drains only every [drain_every] and at end of input.  A line
    that fails to decode is answered with an error row carrying the
    request's own ["id"] and ["client"] whenever the line is a JSON
    object; a line that is not gets its 1-based line number and client
    ["anon"].

    Termination: the loop stops reading at EOF, after [max_requests]
    accepted (non-blank) request lines, or once [duration_s] seconds of
    wall clock have elapsed (checked between lines — a request in
    flight is never abandoned), whichever comes first.  Shutdown drain
    semantics: stopping only stops {e reading}; every accepted request
    is drained to a response and flushed before return, and later
    lines are left unanswered — a bounded serve is a prefix of the
    unbounded one.  The loop takes [ic] a chunk at a time, so it may
    have consumed input past the last accepted line. *)

type batch = {
  responses : Engine.response list;  (** in input order *)
  wall_s : float;  (** submit + drain time, monotonic, >= 0 *)
}

val run_batch : Engine.t -> lines:string list -> batch
(** One-shot mode: submit every request (admission control — shedding —
    applies at submit time, so a bounded queue sheds rather than
    stalls), then drain.  Blank lines are skipped; lines that fail to
    decode produce error rows exactly as in {!serve}.  Requests without
    an ["id"] get their 1-based line number.

    Response-count conservation holds: every non-blank input line gets
    exactly one response row in input order, a drained response no slot
    was waiting for is appended as an [Error]-tagged row rather than
    dropped, and a slot the engine never answered becomes an [Error]
    row too — [List.length responses >= number of non-blank lines],
    with equality exactly when the engine started the batch empty. *)

val signature : Engine.response -> string * string
(** The identity-relevant projection of a response: (status, result
    text).  Wall time, retry hints and cache origin are excluded — two
    responses with equal signatures answer the request identically.
    The warm-vs-cold comparison gates on it. *)

type comparison = {
  cold : batch;  (** computed by a [no_cache] engine: every request runs *)
  warm : batch;  (** computed by a caching engine: duplicates hit/coalesce *)
  warm_metrics : Metrics.t;
  identical : bool;  (** ok-response result texts agree request-by-request *)
  speedup : float;  (** cold wall / warm wall *)
}

val compare_cold :
  ?cache_cap:int -> lines:string list -> unit -> comparison
(** Run the same batch through a cacheless engine and a caching engine
    and compare byte-for-byte — the determinism oracle for the memo
    cache, and the speedup measurement the CI gate asserts on.  Both
    queues hold the larger of 256 and the number of lines, so neither
    engine sheds. *)
