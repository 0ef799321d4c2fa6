module Lang = Armb_litmus.Lang
module Cfg = Armb_litmus.Cfg
module AM = Armb_core.Abstracted_model
module RC = Armb_platform.Run_config
module Platform = Armb_platform.Platform

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Reading a field.

   [field ?default ~ty dec k j] is the one way a request field is read.
   An absent field takes [default], or is missing when there is none.  A
   present field decodes with [dec], or is an error that names the field,
   what it must be ([ty]) and the value it had: a value of the wrong type
   is never read as absent. *)

let field ?default ~ty dec k j =
  match Json.member k j with
  | None -> (
    match default with Some d -> Ok d | None -> Error (Printf.sprintf "missing %S" k))
  | Some v -> (
    match dec v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "%S is not %s (got %s)" k ty (Json.to_string v)))

let str = function Json.Str s -> Some s | _ -> None
let bool = function Json.Bool b -> Some b | _ -> None

(* For an optional field with no default: absent reads as [None]. *)
let opt dec v = Option.map Option.some (dec v)

(* A string that names one of a fixed set. *)
let named of_name v = Option.bind (str v) of_name

let one_of names = "one of " ^ String.concat ", " names

let unit_interval v =
  match Json.number v with Some f when f >= 0.0 && f <= 1.0 -> Some f | _ -> None

let list_of dec = function
  | Json.List l ->
    List.fold_right
      (fun v acc -> match (dec v, acc) with Some x, Some tl -> Some (x :: tl) | _ -> None)
      l (Some [])
  | _ -> None

let nonempty dec v = match list_of dec v with Some (_ :: _) as l -> l | _ -> None

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* tl = map_result f tl in
    Ok (y :: tl)

(* ------------------------------------------------------------------ *)
(* Inline tests and CFG programs on the wire.

   The [interesting] closure cannot cross a process boundary, so inline
   tests carry a declarative ["interesting_when"] instead: a list of
   [key, value] pairs denoting a conjunction of equalities over outcome
   bindings (["1:r1", 1] means register r1 of thread 1 reads 1).  An
   absent or empty list is the trivially-false predicate (the fuzzer's
   convention).  This covers every shape the soak generator emits
   (MP/SB/LB-style weak outcomes) and keeps {!Key.canonical_test}'s
   extensional predicate fingerprint deterministic across processes. *)

let fence_to_wire = function
  | Lang.F_dmb_full -> "dmb"
  | Lang.F_dmb_st -> "dmb.st"
  | Lang.F_dmb_ld -> "dmb.ld"
  | Lang.F_dsb -> "dsb"
  | Lang.F_isb -> "ctrl+isb"

let fence_of_wire = function
  | "dmb" -> Some Lang.F_dmb_full
  | "dmb.st" -> Some Lang.F_dmb_st
  | "dmb.ld" -> Some Lang.F_dmb_ld
  | "dsb" -> Some Lang.F_dsb
  | "isb" | "ctrl+isb" -> Some Lang.F_isb
  | _ -> None

let instr_to_json = function
  | Lang.Load { var; reg; acquire; addr_dep } ->
    Json.Obj
      ([ ("op", Json.Str "ld"); ("var", Json.Str var); ("reg", Json.Str reg) ]
      @ (if acquire then [ ("acquire", Json.Bool true) ] else [])
      @ match addr_dep with Some r -> [ ("addr_dep", Json.Str r) ] | None -> [])
  | Lang.Store { var; v; release; addr_dep } ->
    Json.Obj
      ([ ("op", Json.Str "st"); ("var", Json.Str var) ]
      @ (match v with
        | Lang.Const k -> [ ("const", Json.Int (Int64.to_int k)) ]
        | Lang.Reg r -> [ ("from_reg", Json.Str r) ])
      @ (if release then [ ("release", Json.Bool true) ] else [])
      @ match addr_dep with Some r -> [ ("addr_dep", Json.Str r) ] | None -> [])
  | Lang.Fence f -> Json.Obj [ ("op", Json.Str "fence"); ("fence", Json.Str (fence_to_wire f)) ]

let instr_of_json j =
  let* op = field ~ty:"a string" str "op" j in
  match op with
  | "ld" ->
    let* var = field ~ty:"a string" str "var" j in
    let* reg = field ~ty:"a string" str "reg" j in
    let* acquire = field ~default:false ~ty:"a boolean" bool "acquire" j in
    let* addr_dep = field ~default:None ~ty:"a string" (opt str) "addr_dep" j in
    Ok (Lang.Load { var; reg; acquire; addr_dep })
  | "st" ->
    let* var = field ~ty:"a string" str "var" j in
    let* const = field ~default:None ~ty:"an integer" (opt Json.int) "const" j in
    let* from_reg = field ~default:None ~ty:"a string" (opt str) "from_reg" j in
    let* v =
      match (const, from_reg) with
      | Some k, None -> Ok (Lang.Const (Int64.of_int k))
      | None, Some r -> Ok (Lang.Reg r)
      | None, None -> Error "store needs \"const\" or \"from_reg\""
      | Some _, Some _ -> Error "store has both \"const\" and \"from_reg\""
    in
    let* release = field ~default:false ~ty:"a boolean" bool "release" j in
    let* addr_dep = field ~default:None ~ty:"a string" (opt str) "addr_dep" j in
    Ok (Lang.Store { var; v; release; addr_dep })
  | "fence" ->
    let* f =
      field ~ty:"dmb, dmb.st, dmb.ld, dsb or ctrl+isb" (named fence_of_wire) "fence" j
    in
    Ok (Lang.Fence f)
  | op -> Error (Printf.sprintf "unknown instruction op %S" op)

let pairs_to_json l =
  Json.List
    (List.map (fun (k, v) -> Json.List [ Json.Str k; Json.Int (Int64.to_int v) ]) l)

(* ["init"] and ["interesting_when"] entries: [[name, int]]. *)
let pairs =
  list_of (function
    | Json.List [ Json.Str k; v ] -> Option.map (fun n -> (k, Int64.of_int n)) (Json.int v)
    | _ -> None)

let pairs_ty = "a list of [name, integer] pairs"

let interesting_of_conds conds =
  if conds = [] then fun _ -> false
  else fun lookup -> List.for_all (fun (k, v) -> lookup k = v) conds

(* A variable bound twice would be read two ways: the engines take its
   first binding, while keys do not depend on the order of bindings. *)
let rec bound_once = function
  | [] -> Ok ()
  | (v, _) :: tl ->
    if List.exists (fun (w, _) -> String.equal v w) tl then
      Error (Printf.sprintf "\"init\" binds %S more than once" v)
    else bound_once tl

(* The fields inline tests and programs share; [thread] decodes one
   entry of ["threads"]. *)
let inline_of_json ~thread j make =
  let* name = field ~ty:"a string" str "name" j in
  let* description = field ~default:"" ~ty:"a string" str "description" j in
  let* init = field ~default:[] ~ty:pairs_ty pairs "init" j in
  let* () = bound_once init in
  let* threads = field ~ty:"a list" Json.list "threads" j in
  let* threads = map_result thread threads in
  let* expect_tso = field ~default:false ~ty:"a boolean" bool "expect_tso" j in
  let* expect_wmm = field ~default:false ~ty:"a boolean" bool "expect_wmm" j in
  Ok (make ~name ~description ~init ~threads ~expect_tso ~expect_wmm)

(* A condition on a name the test never binds would read it as 0. *)
let outcomes_named conds (t : Lang.test) =
  match conds with
  | [] -> Ok t
  | _ -> (
    let names = Lang.outcome_names t in
    match List.find_opt (fun (k, _) -> not (List.exists (String.equal k) names)) conds with
    | None -> Ok t
    | Some (k, _) ->
      Error
        (Printf.sprintf "\"interesting_when\" names %S, which the test does not bind; it binds %s"
           k (String.concat ", " names)))

let test_inline_of_json j =
  let* conds = field ~default:[] ~ty:pairs_ty pairs "interesting_when" j in
  let* t =
    inline_of_json j
      ~thread:(function
        | Json.List instrs -> map_result instr_of_json instrs
        | _ -> Error "each thread must be a list of instructions")
      (fun ~name ~description ~init ~threads ~expect_tso ~expect_wmm ->
        {
          Lang.name;
          description;
          init;
          threads;
          interesting = interesting_of_conds conds;
          expect_tso;
          expect_wmm;
        })
  in
  outcomes_named conds t

let test_inline_to_json ~interesting_when (t : Lang.test) =
  Json.Obj
    ([ ("name", Json.Str t.Lang.name) ]
    @ (if t.Lang.description = "" then []
       else [ ("description", Json.Str t.Lang.description) ])
    @ [
        ("init", pairs_to_json t.Lang.init);
        ( "threads",
          Json.List
            (List.map (fun th -> Json.List (List.map instr_to_json th)) t.Lang.threads)
        );
      ]
    @ (if interesting_when = [] then []
       else [ ("interesting_when", pairs_to_json interesting_when) ])
    @ [
        ("expect_tso", Json.Bool t.Lang.expect_tso);
        ("expect_wmm", Json.Bool t.Lang.expect_wmm);
      ])

let term_to_json = function
  | Cfg.Return -> Json.Str "ret"
  | Cfg.Goto l -> Json.Obj [ ("goto", Json.Str l) ]
  | Cfg.Branch { reg; if_nonzero; if_zero } ->
    Json.Obj [ ("branch", Json.List [ Json.Str reg; Json.Str if_nonzero; Json.Str if_zero ]) ]

let term_of_json = function
  | Json.Str "ret" -> Some Cfg.Return
  | Json.Obj _ as j -> (
    match (Json.member "goto" j, Json.member "branch" j) with
    | Some (Json.Str l), None -> Some (Cfg.Goto l)
    | None, Some (Json.List [ Json.Str reg; Json.Str if_nonzero; Json.Str if_zero ]) ->
      Some (Cfg.Branch { reg; if_nonzero; if_zero })
    | _ -> None)
  | _ -> None

let block_of_json j =
  let* label = field ~ty:"a string" str "label" j in
  let* body = field ~ty:"a list" Json.list "body" j in
  let* body = map_result instr_of_json body in
  let* term =
    field ~default:Cfg.Return ~ty:{|"ret", {goto} or {branch:[reg,nz,z]}|} term_of_json "term" j
  in
  Ok { Cfg.label; body; term }

let cfg_thread_of_json j =
  let* entry = field ~ty:"a string" str "entry" j in
  let* blocks = field ~ty:"a list" Json.list "blocks" j in
  let* blocks = map_result block_of_json blocks in
  Ok { Cfg.entry; blocks }

(* Programs on the wire always carry the trivially-false predicate —
   [Opt] jobs compare WMM-reachable outcome {e sets}, which never
   consult it — so no "interesting_when" field exists here; see
   {!Key.canonical_program} for why this keeps keying sound. *)
let program_of_json j =
  let* p =
    inline_of_json j ~thread:cfg_thread_of_json
      (fun ~name ~description ~init ~threads ~expect_tso ~expect_wmm ->
        {
          Cfg.name;
          description;
          init;
          threads;
          interesting = (fun _ -> false);
          expect_tso;
          expect_wmm;
        })
  in
  match Cfg.validate p with Ok () -> Ok p | Error m -> Error ("invalid program: " ^ m)

let program_to_json (p : Cfg.program) =
  Json.Obj
    ([ ("name", Json.Str p.Cfg.name) ]
    @ (if p.Cfg.description = "" then []
       else [ ("description", Json.Str p.Cfg.description) ])
    @ [
        ("init", pairs_to_json p.Cfg.init);
        ( "threads",
          Json.List
            (List.map
               (fun (th : Cfg.thread_cfg) ->
                 Json.Obj
                   [
                     ("entry", Json.Str th.Cfg.entry);
                     ( "blocks",
                       Json.List
                         (List.map
                            (fun (blk : Cfg.block) ->
                              Json.Obj
                                [
                                  ("label", Json.Str blk.Cfg.label);
                                  ("body", Json.List (List.map instr_to_json blk.Cfg.body));
                                  ("term", term_to_json blk.Cfg.term);
                                ])
                            th.Cfg.blocks) );
                   ])
               p.Cfg.threads) );
        ("expect_tso", Json.Bool p.Cfg.expect_tso);
        ("expect_wmm", Json.Bool p.Cfg.expect_wmm);
      ])

(* ------------------------------------------------------------------ *)

let catalogue_tests =
  one_of (List.map (fun (t : Lang.test) -> t.Lang.name) Armb_litmus.Catalogue.all)

let test_field j =
  let* inline =
    field ~default:None ~ty:"an object"
      (function Json.Obj _ as t -> Some (Some (test_inline_of_json t)) | _ -> None)
      "test_inline" j
  in
  match inline with
  | Some t -> t
  | None -> field ~ty:catalogue_tests (named Armb_litmus.Catalogue.find) "test" j

let mem_ops_of_string s =
  match String.lowercase_ascii s with
  | "no-mem" -> Some AM.No_mem
  | "st-st" | "store-store" -> Some AM.Store_store
  | "ld-st" | "load-store" -> Some AM.Load_store
  | "ld-ld" | "load-load" -> Some AM.Load_load
  | _ -> None

let approaches = one_of (List.map fst Armb_core.Ordering.named)

let location_of_json v =
  match Json.int v with Some 1 -> Some AM.Loc1 | Some 2 -> Some AM.Loc2 | _ -> None

(* A kind's parameters, decoded before the run settings so that errors
   come in the same order for every kind; the job is built from the
   checked settings, keeping those the kind reads. *)
let job_of_json j =
  let* kind = field ~ty:"a string" str "kind" j in
  match String.lowercase_ascii kind with
  | "litmus" ->
    let* test = test_field j in
    Ok (fun { RC.cfg; seed; trials; _ } fault -> Job.Litmus { test; cfg; seed; trials; fault })
  | "check" ->
    let* test = test_field j in
    Ok (fun { RC.cfg; seed; trials; _ } fault -> Job.Check { test; cfg; seed; trials; fault })
  | "fix" ->
    let* test = test_field j in
    let* max_edits = field ~default:3 ~ty:"an integer" Json.int "max_edits" j in
    let* budget = field ~default:4000 ~ty:"an integer" Json.int "budget" j in
    Ok (fun { RC.seed; trials; _ } _ -> Job.Fix { test; max_edits; budget; seed; trials })
  | "model" ->
    let* mem_ops =
      field ~ty:"no-mem, st-st, ld-st or ld-ld" (named mem_ops_of_string) "mem_ops" j
    in
    let* approach = field ~ty:approaches (named Armb_core.Ordering.of_name) "approach" j in
    let* location = field ~default:AM.Loc1 ~ty:"1 or 2" location_of_json "location" j in
    let* nops = field ~default:100 ~ty:"an integer" Json.int "nops" j in
    let* iters = field ~default:300 ~ty:"an integer" Json.int "iters" j in
    Ok
      (fun { RC.cfg; cores; seed; _ } _ ->
        Job.Model { mem_ops; approach; location; nops; iters; cfg; cores; seed })
  | "ring" ->
    let* combo = field ~ty:"a string" str "combo" j in
    let* messages = field ~default:500 ~ty:"an integer" Json.int "messages" j in
    Ok
      (fun { RC.cfg; cores; seed; _ } fault ->
        Job.Ring { combo; messages; cfg; cores; seed; fault })
  | "fuzz" ->
    let* tests = field ~default:10 ~ty:"an integer" Json.int "tests" j in
    Ok (fun { RC.cfg; seed; trials; _ } fault -> Job.Fuzz { tests; cfg; seed; trials; fault })
  | "perturb" ->
    let* test = test_field j in
    let* intensities =
      field ~default:[ 0.5 ] ~ty:"a non-empty list of numbers in [0,1]"
        (nonempty unit_interval) "intensities" j
    in
    let* plan_seeds =
      field ~default:[ 1 ] ~ty:"a non-empty list of integers" (nonempty Json.int)
        "plan_seeds" j
    in
    Ok
      (fun { RC.cfg; seed; trials; _ } _ ->
        Job.Perturb { test; intensities; plan_seeds; cfg; seed; trials })
  | "opt" ->
    let* program =
      field ~ty:"a known program name or an inline object"
        (function
          | Json.Str name -> Option.map Result.ok (Armb_opt.Optimizer.find_input name)
          | Json.Obj _ as p -> Some (program_of_json p)
          | _ -> None)
        "program" j
    in
    let* program = program in
    let* algorithm =
      field ~default:Armb_opt.Optimizer.Second_chance
        ~ty:"single-bb, linear-scan or second-chance"
        (named Armb_opt.Optimizer.algorithm_of_string)
        "algorithm" j
    in
    let* unroll = field ~default:2 ~ty:"an integer" Json.int "unroll" j in
    Ok (fun { RC.seed; _ } _ -> Job.Opt { program; algorithm; unroll; seed })
  | k -> Error (Printf.sprintf "unknown kind %S" k)

let platforms = one_of Platform.names

(* ["cores"] in its two spellings, [[A,B]] and ["A,B"]. *)
let cores_of_json v =
  let pair a b = match (a, b) with Some a, Some b -> Some (a, b) | _ -> None in
  match v with
  | Json.List [ a; b ] -> pair (Json.int a) (Json.int b)
  | Json.Str s -> (
    match String.split_on_char ',' s with
    | [ a; b ] -> pair (int_of_string_opt (String.trim a)) (int_of_string_opt (String.trim b))
    | _ -> None)
  | _ -> None

(* A platform given without cores runs on that platform's default pair. *)
let rc_of_json j =
  let* cfg =
    field ~default:Platform.kunpeng916 ~ty:platforms (named Platform.by_name) "platform" j
  in
  let* cores = field ~default:None ~ty:{|[A,B] or "A,B"|} (opt cores_of_json) "cores" j in
  let* seed = field ~default:42 ~ty:"an integer" Json.int "seed" j in
  let* trials = field ~default:40 ~ty:"an integer" Json.int "trials" j in
  match RC.make ?cores ~seed ~trials cfg with
  | rc -> Ok rc
  | exception Invalid_argument m -> Error m

let id_field ~default_id j =
  field ~default:default_id ~ty:"a string or an integer"
    (function Json.Str s -> Some s | v -> Option.map string_of_int (Json.int v))
    "id" j

let client_field j = field ~default:"anon" ~ty:"a string" str "client" j

let envelope ?(default_id = "?") j =
  ( Result.value (id_field ~default_id j) ~default:default_id,
    Result.value (client_field j) ~default:"anon" )

let request_of_json ?(default_id = "?") j =
  let* id = id_field ~default_id j in
  let* client = client_field j in
  let* priority =
    field ~default:Engine.Normal ~ty:"high, normal or low" (named Engine.priority_of_string)
      "priority" j
  in
  let* job = job_of_json j in
  let* rc = rc_of_json j in
  let* fault = field ~default:0.0 ~ty:"a number in [0,1]" unit_interval "fault" j in
  Ok { Engine.id; client; priority; job = job rc fault }

let request_of_line ?default_id line =
  let* j = Json.of_string line in
  request_of_json ?default_id j

let origin_name = function
  | Engine.Cold -> "cold"
  | Engine.Hit -> "hit"
  | Engine.Coalesced -> "coalesced"

let response_to_json (r : Engine.response) =
  let base = [ ("id", Json.Str r.id); ("client", Json.Str r.client) ] in
  match r.reply with
  | Engine.Result { origin; key; wall_us; result; escaped = _ } ->
    Json.Obj
      (base
      @ [
          ("status", Json.Str "ok");
          ("origin", Json.Str (origin_name origin));
          ("key", Json.Str key);
          ("wall_us", Json.Int wall_us);
          ("events", Json.Int result.Job.events);
          ("cycles", Json.Int result.Job.cycles);
          ("result", Json.Str result.Job.text);
        ])
  | Engine.Shed { retry_after_ms } ->
    Json.Obj
      (base @ [ ("status", Json.Str "shed"); ("retry_after_ms", Json.Int retry_after_ms) ])
  | Engine.Error msg ->
    Json.Obj (base @ [ ("status", Json.Str "error"); ("message", Json.Str msg) ])

(* An ok line is [response_to_json]'s rendering written in two parts: a
   short head (every field before the result, escaped here) and the
   result text the engine escaped once, copied.  The line is allocated
   at its final size, so a fix result of several KB costs one block. *)
let response_to_line (r : Engine.response) =
  match r.reply with
  | Engine.Result { origin; key; wall_us; result; escaped } ->
    let b = Buffer.create 256 in
    let str k v =
      Buffer.add_string b k;
      Json.add_quoted b v
    in
    let int k v =
      Buffer.add_string b k;
      Buffer.add_string b (string_of_int v)
    in
    str {|{"id":|} r.id;
    str {|,"client":|} r.client;
    str {|,"status":|} "ok";
    str {|,"origin":|} (origin_name origin);
    str {|,"key":|} key;
    int {|,"wall_us":|} wall_us;
    int {|,"events":|} result.Job.events;
    int {|,"cycles":|} result.Job.cycles;
    Buffer.add_string b {|,"result":|};
    let head = Buffer.length b and n = String.length escaped in
    let line = Bytes.create (head + n + 1) in
    Buffer.blit b 0 line 0 head;
    Bytes.blit_string escaped 0 line head n;
    Bytes.set line (head + n) '}';
    Bytes.unsafe_to_string line
  | Engine.Shed _ | Engine.Error _ -> Json.to_string (response_to_json r)
