(** The Pilot rewrite (paper §4) as a synthesis candidate.

    When a test is message-passing shaped — one thread publishes a data
    word then a flag word, the other polls the flag then reads the data
    — and both payloads fit in 32 bits, the two variables can be packed
    into one aligned 64-bit word.  Single-copy atomicity then publishes
    data and flag together, so the repaired test needs {e no} ordering
    device at all: a single plain store against a single plain load.

    Detection is structural on the threads plus behavioural on the
    [interesting] predicate: the predicate is an opaque function, so it
    is probed with four fabricated outcomes (stale-data-after-flag must
    be interesting; fully-ordered, nothing-seen and data-only-seen must
    not) to confirm the test really asks the MP question before the
    rewrite claims it. *)

module Lang = Armb_litmus.Lang

type shape = {
  data_var : string;
  flag_var : string;
  data_val : int64;
  flag_val : int64;
  producer : int;  (** thread index of the publishing side *)
  consumer : int;
}

val detect : Lang.test -> shape option
(** [None] unless the test is two-threaded MP with constant stores,
    distinct variables, 32-bit-representable values and an
    MP-interesting predicate (probed as described above).  Existing
    fences / acquire-release / dependencies on either side are ignored:
    the rewrite replaces the whole communication pattern. *)

val rewrite : Lang.test -> (shape * Lang.test) option
(** The packed single-word test, named ["<name>+pilot"].  Its
    [interesting] predicate is the packed translation of the weak
    outcome (flag half set, data half stale), and its expectations are
    forbidden-everywhere — which {!Armb_litmus.Enumerate} re-verifies
    downstream, the rewrite is not trusted blindly. *)
