(** NDJSON wire codec for the service.

    One request per line.  Every field is read the same way.  An absent
    field takes its default, or the request is an error [missing "k"]
    when the field has none.  A present field of the wrong type, or
    outside the values it may take, is an error that names the field,
    what it must be and the value it had, as in
    ["trials" is not an integer (got "5")]; it is never read as absent.
    An integer is a JSON integer, or an integral number from -2^62 up
    to but not including 2^62.  Unknown keys are ignored.

    Common fields (all optional unless noted): ["id"] (string or
    integer; defaults to the line number assigned by the caller),
    ["client"] (default "anon"), ["priority"] ("high"|"normal"|"low",
    default normal), ["platform"] (default kunpeng916), ["cores"]
    ([[a,b]] array or "a,b" string; default the platform's
    {!Armb_platform.Run_config.default_cores}), ["seed"] (default 42),
    ["trials"] (default 40), ["fault"] (intensity in [0,1], default 0).
    The run coordinates are checked by {!Armb_platform.Run_config.make}.

    Kind-specific fields (["kind"] is required):
    - ["litmus"] | ["check"] | ["fix"] | ["perturb"]: ["test"] —
      catalogue test name (case-insensitive) — or ["test_inline"], a
      full inline test object (see below).  ["fix"] also takes
      ["max_edits"] (default 3) and ["budget"] (default 4000);
      ["perturb"] also takes ["intensities"] (numbers in [0,1], default
      [[0.5]]) and ["plan_seeds"] (integers, default [[1]]).
    - ["model"]: ["mem_ops"] ("no-mem"|"st-st"|"ld-st"|"ld-ld"),
      ["approach"] (a {!Armb_core.Ordering.named} spelling),
      ["location"] (1|2), ["nops"], ["iters"].
    - ["ring"]: ["combo"] (Figure 6(a) legend name), ["messages"].
    - ["fuzz"]: ["tests"].
    - ["opt"]: ["program"] — an {!Armb_opt.Optimizer.find_input} name or
      an inline CFG program object — plus ["algorithm"] (default
      "second-chance") and ["unroll"] (default 2).

    {b Inline tests.}  The [interesting] closure cannot cross a process
    boundary, so ["test_inline"] carries ["interesting_when"] instead: a
    list of [[key, value]] pairs denoting a conjunction of equalities
    over outcome bindings (key ["1:r1"] = register r1 of thread 1, or
    ["mem:x"]); absent/empty means trivially false.  Each key must be
    one of the test's {!Armb_litmus.Lang.outcome_names}, or the request
    is an error that names the key and lists those names.  Other
    fields: ["name"], ["init"] ([[var, int]] pairs, each variable at
    most once, in tests and programs alike), ["threads"] (lists of
    instruction objects: [{op:"ld", var, reg, acquire?, addr_dep?}],
    [{op:"st", var, const | from_reg, release?, addr_dep?}],
    [{op:"fence", fence:"dmb"|"dmb.st"|"dmb.ld"|"dsb"|"ctrl+isb"}]),
    ["expect_tso"]/["expect_wmm"] (default false).

    {b Inline programs} mirror inline tests with per-thread ["entry"]
    and ["blocks"] ([{label, body, term}]; ["term"] is ["ret"],
    [{goto: label}] or [{branch: [reg, nonzero, zero]}]) and carry no
    predicate (always trivially false — [Opt] jobs compare outcome sets,
    never the predicate).

    Responses are one JSON object per line: ["id"], ["client"],
    ["status"] ("ok"|"shed"|"error"); ok responses add ["origin"]
    ("cold"|"hit"|"coalesced"), ["key"], ["wall_us"], ["events"],
    ["cycles"] and ["result"] (the canonical text rendering); shed adds
    ["retry_after_ms"]; error adds ["message"]. *)

val envelope : ?default_id:string -> Json.t -> string * string
(** The request's [(id, client)] as every response to it echoes them:
    ["id"] (string or integer, else [default_id], default ["?"]) and
    ["client"] (a string, else ["anon"]).  Total: a value that is not an
    object yields [(default_id, "anon")]. *)

val request_of_json :
  ?default_id:string -> Json.t -> (Engine.request, string) result

val request_of_line :
  ?default_id:string -> string -> (Engine.request, string) result
(** Parse + decode one NDJSON line. *)

val response_to_json : Engine.response -> Json.t
val response_to_line : Engine.response -> string
(** One line, no trailing newline. *)

val test_inline_to_json :
  interesting_when:(string * int64) list -> Armb_litmus.Lang.test -> Json.t
(** Serialize a test for a ["test_inline"] field.  The caller supplies
    the declarative predicate — the closure itself cannot be serialized,
    so the emitter must know the conjunction it was built from (the soak
    generator does; pass [[]] for trivially-false fuzzer tests). *)

val test_inline_of_json : Json.t -> (Armb_litmus.Lang.test, string) result

val program_to_json : Armb_litmus.Cfg.program -> Json.t
val program_of_json : Json.t -> (Armb_litmus.Cfg.program, string) result
(** Inline CFG programs; parsing validates with {!Armb_litmus.Cfg.validate}
    and installs the trivially-false predicate. *)
