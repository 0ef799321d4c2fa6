module Lang = Armb_litmus.Lang
module Cfg = Armb_litmus.Cfg
module AM = Armb_core.Abstracted_model
module RC = Armb_platform.Run_config

let ( let* ) = Result.bind

let required what = function Some v -> Ok v | None -> Error ("missing " ^ what)

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

let bool_field ?(default = false) k j =
  match Json.member k j with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "%S is not a boolean" k)

let instr_of_json j =
  let* op = required "instruction \"op\"" (Json.mem_str "op" j) in
  let addr_dep = Json.mem_str "addr_dep" j in
  match op with
  | "ld" ->
    let* var = required "load \"var\"" (Json.mem_str "var" j) in
    let* reg = required "load \"reg\"" (Json.mem_str "reg" j) in
    let* acquire = bool_field "acquire" j in
    Ok (Lang.Load { var; reg; acquire; addr_dep })
  | "st" ->
    let* var = required "store \"var\"" (Json.mem_str "var" j) in
    let* v =
      match (Json.mem_int "const" j, Json.mem_str "from_reg" j) with
      | Some k, None -> Ok (Lang.Const (Int64.of_int k))
      | None, Some r -> Ok (Lang.Reg r)
      | None, None -> Error "store needs \"const\" or \"from_reg\""
      | Some _, Some _ -> Error "store has both \"const\" and \"from_reg\""
    in
    let* release = bool_field "release" j in
    Ok (Lang.Store { var; v; release; addr_dep })
  | "fence" ->
    let* f = required "fence \"fence\"" (Json.mem_str "fence" j) in
    required (Printf.sprintf "valid fence (got %S)" f) (fence_of_wire f)
    |> Result.map (fun f -> Lang.Fence f)
  | op -> Error (Printf.sprintf "unknown instruction op %S" op)

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* tl = map_result f tl in
    Ok (y :: tl)

let pairs_of_json what j =
  match j with
  | Json.List l ->
    map_result
      (function
        | Json.List [ Json.Str k; v ] -> (
          match Json.int v with
          | Some n -> Ok (k, Int64.of_int n)
          | None -> Error (Printf.sprintf "%s: value for %S is not an integer" what k))
        | _ -> Error (Printf.sprintf "%s entries must be [name, int] pairs" what))
      l
  | _ -> Error (Printf.sprintf "%s must be a list" what)

let pairs_to_json l =
  Json.List
    (List.map (fun (k, v) -> Json.List [ Json.Str k; Json.Int (Int64.to_int v) ]) l)

let interesting_of_conds conds =
  if conds = [] then fun _ -> false
  else fun lookup -> List.for_all (fun (k, v) -> lookup k = v) conds

let test_inline_of_json j =
  let* name = required "inline test \"name\"" (Json.mem_str "name" j) in
  let* init =
    match Json.member "init" j with
    | None -> Ok []
    | Some l -> pairs_of_json "\"init\"" l
  in
  let* threads =
    match Json.member "threads" j with
    | Some (Json.List ths) ->
      map_result
        (function
          | Json.List instrs -> map_result instr_of_json instrs
          | _ -> Error "each thread must be a list of instructions")
        ths
    | _ -> Error "inline test needs a \"threads\" list"
  in
  let* conds =
    match Json.member "interesting_when" j with
    | None -> Ok []
    | Some l -> pairs_of_json "\"interesting_when\"" l
  in
  let* expect_tso = bool_field "expect_tso" j in
  let* expect_wmm = bool_field "expect_wmm" j in
  Ok
    {
      Lang.name;
      description = Option.value ~default:"" (Json.mem_str "description" j);
      init;
      threads;
      interesting = interesting_of_conds conds;
      expect_tso;
      expect_wmm;
    }

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
  | Json.Str "ret" -> Ok Cfg.Return
  | Json.Obj _ as j -> (
    match (Json.mem_str "goto" j, Json.member "branch" j) with
    | Some l, None -> Ok (Cfg.Goto l)
    | None, Some (Json.List [ Json.Str reg; Json.Str nz; Json.Str z ]) ->
      Ok (Cfg.Branch { reg; if_nonzero = nz; if_zero = z })
    | _ -> Error "terminator must be \"ret\", {goto}, or {branch:[reg,nz,z]}")
  | _ -> Error "terminator must be \"ret\", {goto}, or {branch:[reg,nz,z]}"

let block_of_json j =
  let* label = required "block \"label\"" (Json.mem_str "label" j) in
  let* body =
    match Json.member "body" j with
    | Some (Json.List instrs) -> map_result instr_of_json instrs
    | _ -> Error "block needs a \"body\" list"
  in
  let* term =
    match Json.member "term" j with
    | None -> Ok Cfg.Return
    | Some t -> term_of_json t
  in
  Ok { Cfg.label; body; term }

(* Programs on the wire always carry the trivially-false predicate —
   [Opt] jobs compare WMM-reachable outcome {e sets}, which never
   consult it — so no "interesting_when" field exists here; see
   {!Key.canonical_program} for why this keeps keying sound. *)
let program_of_json j =
  let* name = required "program \"name\"" (Json.mem_str "name" j) in
  let* init =
    match Json.member "init" j with
    | None -> Ok []
    | Some l -> pairs_of_json "\"init\"" l
  in
  let* threads =
    match Json.member "threads" j with
    | Some (Json.List ths) ->
      map_result
        (fun th ->
          let* entry = required "thread \"entry\"" (Json.mem_str "entry" th) in
          let* blocks =
            match Json.member "blocks" th with
            | Some (Json.List bs) -> map_result block_of_json bs
            | _ -> Error "thread needs a \"blocks\" list"
          in
          Ok { Cfg.entry; blocks })
        ths
    | _ -> Error "program needs a \"threads\" list"
  in
  let* expect_tso = bool_field "expect_tso" j in
  let* expect_wmm = bool_field "expect_wmm" j in
  let p =
    {
      Cfg.name;
      description = Option.value ~default:"" (Json.mem_str "description" j);
      init;
      threads;
      interesting = (fun _ -> false);
      expect_tso;
      expect_wmm;
    }
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

let test_field j =
  match Json.member "test_inline" j with
  | Some inline -> test_inline_of_json inline
  | None -> (
    let* name = required "\"test\" or \"test_inline\"" (Json.mem_str "test" j) in
    match Armb_litmus.Catalogue.find name with
    | Some t -> Ok t
    | None ->
      Error
        (Printf.sprintf "unknown test %S (try: %s)" name
           (String.concat ", "
              (List.map (fun (t : Lang.test) -> t.Lang.name) Armb_litmus.Catalogue.all))))

let mem_ops_of_string = function
  | "no-mem" -> Some AM.No_mem
  | "st-st" | "store-store" -> Some AM.Store_store
  | "ld-st" | "load-store" -> Some AM.Load_store
  | "ld-ld" | "load-load" -> Some AM.Load_load
  | _ -> None

let int_field ?default k j =
  match Json.member k j with
  | None -> (
    match default with Some d -> Ok d | None -> Error (Printf.sprintf "missing %S" k))
  | Some v -> (
    match Json.int v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "%S is not an integer" k))

let spec_of_json j =
  let* kind = required "\"kind\"" (Json.mem_str "kind" j) in
  match String.lowercase_ascii kind with
  | "litmus" ->
    let* t = test_field j in
    Ok (Job.Litmus t)
  | "check" ->
    let* t = test_field j in
    Ok (Job.Check t)
  | "fix" ->
    let* t = test_field j in
    let* max_edits = int_field ~default:3 "max_edits" j in
    let* budget = int_field ~default:4000 "budget" j in
    Ok (Job.Fix { test = t; max_edits; budget })
  | "model" ->
    let* mem_ops_s = required "\"mem_ops\"" (Json.mem_str "mem_ops" j) in
    let* mem_ops =
      required (Printf.sprintf "valid \"mem_ops\" (got %S)" mem_ops_s)
        (mem_ops_of_string (String.lowercase_ascii mem_ops_s))
    in
    let* approach_s = required "\"approach\"" (Json.mem_str "approach" j) in
    let* approach =
      required
        (Printf.sprintf "valid \"approach\" (got %S; try: %s)" approach_s
           (String.concat ", " (List.map fst Armb_core.Ordering.named)))
        (Armb_core.Ordering.of_name approach_s)
    in
    let* loc = int_field ~default:1 "location" j in
    let* location =
      match loc with
      | 1 -> Ok AM.Loc1
      | 2 -> Ok AM.Loc2
      | n -> Error (Printf.sprintf "\"location\" must be 1 or 2, got %d" n)
    in
    let* nops = int_field ~default:100 "nops" j in
    let* iters = int_field ~default:300 "iters" j in
    let label =
      match Json.mem_str "label" j with
      | Some l -> l
      | None -> Armb_core.Ordering.to_string approach
    in
    Ok (Job.Model { label; mem_ops; approach; location; nops; iters })
  | "ring" ->
    let* combo = required "\"combo\"" (Json.mem_str "combo" j) in
    let* messages = int_field ~default:500 "messages" j in
    Ok (Job.Ring { combo; messages })
  | "fuzz" ->
    let* tests = int_field ~default:10 "tests" j in
    Ok (Job.Fuzz { tests })
  | "perturb" ->
    let* t = test_field j in
    let* intensities =
      match Json.member "intensities" j with
      | None -> Ok [ 0.5 ]
      | Some (Json.List l) ->
        map_result
          (fun v ->
            match Json.number v with
            | Some f when f >= 0.0 && f <= 1.0 -> Ok f
            | Some f -> Error (Printf.sprintf "intensity %g outside [0,1]" f)
            | None -> Error "\"intensities\" entries must be numbers")
          l
      | Some _ -> Error "\"intensities\" must be a list"
    in
    let* plan_seeds =
      match Json.member "plan_seeds" j with
      | None -> Ok [ 1 ]
      | Some (Json.List l) ->
        map_result
          (fun v ->
            match Json.int v with
            | Some n -> Ok n
            | None -> Error "\"plan_seeds\" entries must be integers")
          l
      | Some _ -> Error "\"plan_seeds\" must be a list"
    in
    if intensities = [] || plan_seeds = [] then
      Error "\"intensities\" and \"plan_seeds\" must be non-empty"
    else Ok (Job.Perturb { test = t; intensities; plan_seeds })
  | "opt" ->
    let* program =
      match Json.member "program" j with
      | Some (Json.Str name) ->
        required
          (Printf.sprintf "known program (got %S)" name)
          (Armb_opt.Optimizer.find_input name)
      | Some (Json.Obj _ as p) -> program_of_json p
      | Some _ -> Error "\"program\" must be a name or an inline object"
      | None -> Error "missing \"program\""
    in
    let* algorithm =
      match Json.mem_str "algorithm" j with
      | None -> Ok "second-chance"
      | Some a -> (
        match Armb_opt.Optimizer.algorithm_of_string a with
        | Some _ -> Ok a
        | None -> Error (Printf.sprintf "unknown algorithm %S" a))
    in
    let* unroll = int_field ~default:2 "unroll" j in
    Ok (Job.Opt { program; algorithm; unroll })
  | k -> Error (Printf.sprintf "unknown kind %S" k)

(* ["cores"] in its two wire spellings, normalized to Run_config's
   "A,B"; the string form is checked by Run_config.of_kv. *)
let cores_of_json v =
  let bad () =
    Error (Printf.sprintf "\"cores\" must be [A,B] or \"A,B\", got %s" (Json.to_string v))
  in
  match v with
  | Json.List [ a; b ] -> (
    match (Json.int a, Json.int b) with
    | Some a, Some b -> Ok (Printf.sprintf "%d,%d" a b)
    | _ -> bad ())
  | Json.Str s -> Ok s
  | _ -> bad ()

let rc_of_json j =
  let kv = ref [] in
  (match Json.mem_str "platform" j with
  | Some p -> kv := ("platform", p) :: !kv
  | None -> ());
  let* () =
    match Json.member "cores" j with
    | Some v -> Result.map (fun c -> kv := ("cores", c) :: !kv) (cores_of_json v)
    | None -> Ok ()
  in
  (match Json.mem_int "seed" j with
  | Some s -> kv := ("seed", string_of_int s) :: !kv
  | None -> ());
  (match Json.mem_int "trials" j with
  | Some s -> kv := ("trials", string_of_int s) :: !kv
  | None -> ());
  RC.of_kv ~defaults:(RC.make ~seed:42 ~trials:40 Armb_platform.Platform.kunpeng916) !kv

let envelope ?(default_id = "?") j =
  let id =
    match Json.member "id" j with
    | Some (Json.Str s) -> s
    | Some (Json.Int n) -> string_of_int n
    | _ -> default_id
  in
  (id, Option.value ~default:"anon" (Json.mem_str "client" j))

let request_of_json ?default_id j =
  let id, client = envelope ?default_id j in
  let* priority =
    match Json.mem_str "priority" j with
    | None -> Ok Engine.Normal
    | Some p ->
      required
        (Printf.sprintf "valid \"priority\" (got %S)" p)
        (Engine.priority_of_string p)
  in
  let* spec = spec_of_json j in
  let* rc = rc_of_json j in
  let* fault =
    match Json.member "fault" j with
    | None -> Ok 0.0
    | Some v -> (
      match Json.number v with
      | Some f when f >= 0.0 && f <= 1.0 -> Ok f
      | Some f -> Error (Printf.sprintf "\"fault\" %g outside [0,1]" f)
      | None -> Error "\"fault\" is not a number")
  in
  Ok { Engine.id; client; priority; job = { Job.spec; rc; fault } }

let request_of_line ?default_id line =
  let* j = Json.of_string line in
  request_of_json ?default_id j

let response_to_json (r : Engine.response) =
  let base = [ ("id", Json.Str r.id); ("client", Json.Str r.client) ] in
  match r.reply with
  | Engine.Result { origin; key; wall_us; result } ->
    Json.Obj
      (base
      @ [
          ("status", Json.Str "ok");
          ( "origin",
            Json.Str
              (match origin with
              | Engine.Cold -> "cold"
              | Engine.Hit -> "hit"
              | Engine.Coalesced -> "coalesced") );
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

let response_to_line r = Json.to_string (response_to_json r)
