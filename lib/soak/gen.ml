(* The job-stream generator: randomized-but-deterministic service
   traffic over every correctness engine in the tree.

   A seeded pool of distinct jobs is built once — catalogue litmus
   runs, sanitizer checks, fault-injection perturb sweeps, strip→repair
   fix jobs on freshly built communication skeletons (shipped inline
   with declarative predicates), and fence-optimization jobs on both
   named over-fenced catalogue programs and fuzzed CFGs — then requests
   are drawn from the pool under a Zipf law, exactly like production
   traffic: a few hot keys dominate (exercising the memo cache and
   coalescing), the long tail keeps cold work arriving, and the whole
   stream replays byte-identically from its seed.

   Every job carries the invariant a correct service must satisfy for
   it ({!Invariant.expect}); the pool is constructed so each
   expectation is guaranteed by design — check/perturb jobs use only
   hand-verified catalogue tests, fix skeletons are unfenced shapes
   whose weak outcome is WMM-reachable and repairable within the edit
   budget, opt inputs are over-fenced so the optimizer has sound work
   to do. *)

module Json = Armb_json.Json
module Codec = Armb_service.Codec
module Lang = Armb_litmus.Lang
module Cfg = Armb_litmus.Cfg
module Rng = Armb_sim.Rng

type job = { id : string; kind : string; expect : Invariant.expect; line : string }

type entry = {
  kind : string;
  expect : Invariant.expect;
  fields : (string * Json.t) list;
}

(* ---------- fix skeletons ---------- *)

(* Unfenced two-thread communication shapes with real (declarative)
   weak-outcome predicates.  Unlike fuzzed tests — whose trivially
   false predicate makes every fix job a no-op — these give the
   synthesizer genuine work with a guaranteed-reachable repair:
   the catalogue's own fenced variants witness that a <=2-edit
   sufficient set exists for each shape. *)
let mp_skeleton v =
  ( {
      Lang.name = Printf.sprintf "soak-mp-%d" v;
      description = "unfenced message passing; repair must forbid stale data";
      init = [ ("data", 0L); ("flag", 0L) ];
      threads =
        [
          [ Lang.st "data" (Int64.of_int v); Lang.st "flag" 1L ];
          [ Lang.ld "flag" "r1"; Lang.ld "data" "r2" ];
        ];
      interesting = (fun o -> o "1:r1" = 1L && o "1:r2" = 0L);
      expect_tso = false;
      expect_wmm = false;
    },
    [ ("1:r1", 1L); ("1:r2", 0L) ] )

let sb_skeleton v =
  ( {
      Lang.name = Printf.sprintf "soak-sb-%d" v;
      description = "unfenced store buffering; repair must forbid both-stale reads";
      init = [ ("x", 0L); ("y", 0L) ];
      threads =
        [
          [ Lang.st "x" (Int64.of_int v); Lang.ld "y" "r1" ];
          [ Lang.st "y" (Int64.of_int v); Lang.ld "x" "r1" ];
        ];
      interesting = (fun o -> o "0:r1" = 0L && o "1:r1" = 0L);
      expect_tso = false;
      expect_wmm = false;
    },
    [ ("0:r1", 0L); ("1:r1", 0L) ] )

let lb_skeleton v =
  ( {
      Lang.name = Printf.sprintf "soak-lb-%d" v;
      description = "unfenced load buffering; repair must forbid the causality loop";
      init = [ ("x", 0L); ("y", 0L) ];
      threads =
        [
          [ Lang.ld "x" "r1"; Lang.st "y" (Int64.of_int v) ];
          [ Lang.ld "y" "r1"; Lang.st "x" (Int64.of_int v) ];
        ];
      interesting =
        (fun o -> o "0:r1" = Int64.of_int v && o "1:r1" = Int64.of_int v);
      expect_tso = false;
      expect_wmm = false;
    },
    [ ("0:r1", Int64.of_int v); ("1:r1", Int64.of_int v) ] )

(* ---------- the pool ---------- *)

let take n l = List.filteri (fun i _ -> i < n) l

let catalogue = Armb_litmus.Catalogue.all

let litmus_entries () =
  List.map
    (fun (t : Lang.test) ->
      {
        kind = "litmus";
        expect = Invariant.Status_ok;
        fields =
          [
            ("kind", Json.Str "litmus");
            ("test", Json.Str t.Lang.name);
            ("trials", Json.Int 20);
            ("seed", Json.Int 42);
          ];
      })
    catalogue

let check_entries () =
  (* trials 10 / seed 42 is the cross-check configuration the tier-1
     suite pins all-rows-ok for, so Check_clean is guaranteed *)
  List.map
    (fun (t : Lang.test) ->
      {
        kind = "check";
        expect = Invariant.Check_clean;
        fields =
          [
            ("kind", Json.Str "check");
            ("test", Json.Str t.Lang.name);
            ("trials", Json.Int 10);
            ("seed", Json.Int 42);
          ];
      })
    (take 8 catalogue)

let perturb_entries () =
  List.map
    (fun (t : Lang.test) ->
      {
        kind = "perturb";
        expect = Invariant.Perturb_legal;
        fields =
          [
            ("kind", Json.Str "perturb");
            ("test", Json.Str t.Lang.name);
            ("intensities", Json.List [ Json.Float 0.5 ]);
            ("plan_seeds", Json.List [ Json.Int 1; Json.Int 2 ]);
            ("trials", Json.Int 8);
            ("seed", Json.Int 42);
          ];
      })
    (take 6 catalogue)

let fix_entries () =
  List.concat_map
    (fun v ->
      List.map
        (fun (t, conds) ->
          {
            kind = "fix";
            expect = Invariant.Fix_must_repair;
            fields =
              [
                ("kind", Json.Str "fix");
                ("test_inline", Codec.test_inline_to_json ~interesting_when:conds t);
                ("max_edits", Json.Int 2);
                ("budget", Json.Int 1500);
                ("trials", Json.Int 10);
                ("seed", Json.Int 42);
              ];
          })
        [ mp_skeleton v; sb_skeleton v; lb_skeleton v ])
    [ 1; 2 ]

let opt_named_entries () =
  List.filter_map
    (fun (name, algorithm) ->
      (* only emit names the optimizer actually knows, so a catalogue
         rename cannot silently turn pool entries into error jobs *)
      match Armb_opt.Optimizer.find_input name with
      | None -> None
      | Some _ ->
        Some
          {
            kind = "opt";
            expect = Invariant.Opt_sound;
            fields =
              [
                ("kind", Json.Str "opt");
                ("program", Json.Str name);
                ("algorithm", Json.Str algorithm);
                ("unroll", Json.Int 2);
                ("trials", Json.Int 10);
                ("seed", Json.Int 42);
              ];
          })
    [
      ("MP+overfenced", "linear-scan");
      ("SB+dmbs+overfenced", "second-chance");
      ("LB+datas+overfenced", "linear-scan");
      ("MP+spin+overfenced", "linear-scan");
      ("2+2W+dmb.sts+overfenced", "second-chance");
      ("MP+cond+overfenced", "single-bb");
    ]

let opt_inline_entries rng =
  List.init 4 (fun i ->
      let p =
        Armb_litmus.Mutate.rename_cfg
          (Printf.sprintf "soak-cfg-%d" (i + 1))
          (Armb_litmus.Fuzz.generate_cfg rng)
      in
      let q = Armb_opt.Passes.over_fence p in
      {
        kind = "opt";
        expect = Invariant.Opt_sound;
        fields =
          [
            ("kind", Json.Str "opt");
            ("program", Codec.program_to_json q);
            ("algorithm", Json.Str "linear-scan");
            ("unroll", Json.Int 2);
            ("trials", Json.Int 10);
            ("seed", Json.Int 42);
          ];
      })

let misc_entries () =
  [
    {
      kind = "fuzz";
      expect = Invariant.Status_ok;
      fields =
        [
          ("kind", Json.Str "fuzz");
          ("tests", Json.Int 2);
          ("trials", Json.Int 10);
          ("seed", Json.Int 7);
        ];
    };
    {
      kind = "fuzz";
      expect = Invariant.Status_ok;
      fields =
        [
          ("kind", Json.Str "fuzz");
          ("tests", Json.Int 3);
          ("trials", Json.Int 10);
          ("seed", Json.Int 9);
        ];
    };
    {
      kind = "ring";
      expect = Invariant.Status_ok;
      fields =
        [
          ("kind", Json.Str "ring");
          ("combo", Json.Str "DMB full - DMB full");
          ("messages", Json.Int 200);
        ];
    };
    {
      kind = "ring";
      expect = Invariant.Status_ok;
      fields =
        [
          ("kind", Json.Str "ring");
          ("combo", Json.Str "DMB ld - DMB st");
          ("messages", Json.Int 200);
        ];
    };
    {
      kind = "model";
      expect = Invariant.Status_ok;
      fields =
        [
          ("kind", Json.Str "model");
          ("mem_ops", Json.Str "st-st");
          ("approach", Json.Str "dmb");
          ("location", Json.Int 1);
          ("nops", Json.Int 100);
          ("iters", Json.Int 300);
        ];
    };
    {
      kind = "model";
      expect = Invariant.Status_ok;
      fields =
        [
          ("kind", Json.Str "model");
          ("mem_ops", Json.Str "st-st");
          ("approach", Json.Str "stlr");
          ("location", Json.Int 1);
          ("nops", Json.Int 100);
          ("iters", Json.Int 300);
        ];
    };
    (* two faulted litmus runs so the fault-plan path sees traffic *)
    {
      kind = "litmus";
      expect = Invariant.Status_ok;
      fields =
        [
          ("kind", Json.Str "litmus");
          ("test", Json.Str "MP+dmb.st+dmb.ld");
          ("trials", Json.Int 20);
          ("seed", Json.Int 42);
          ("fault", Json.Float 0.3);
        ];
    };
    {
      kind = "litmus";
      expect = Invariant.Status_ok;
      fields =
        [
          ("kind", Json.Str "litmus");
          ("test", Json.Str "SB+dmbs");
          ("trials", Json.Int 20);
          ("seed", Json.Int 42);
          ("fault", Json.Float 0.6);
        ];
    };
  ]

let build_pool rng =
  litmus_entries () @ check_entries () @ perturb_entries () @ fix_entries ()
  @ opt_named_entries () @ opt_inline_entries rng @ misc_entries ()

(* ---------- the stream ---------- *)

type t = {
  entries : entry array;
  cum : float array;  (* zipf cumulative weights over pool ranks *)
  total : float;
  rng : Rng.t;
  clients : int;
  mutable emitted : int;
}

let default_pool = 48

let create ?(pool = default_pool) ?(alpha = 1.1) ?(clients = 16) ~seed () =
  if pool < 1 then invalid_arg "Gen.create: pool must be >= 1";
  if alpha < 0.0 then invalid_arg "Gen.create: alpha must be >= 0";
  if clients < 1 then invalid_arg "Gen.create: clients must be >= 1";
  let rng = Rng.create seed in
  let all = Array.of_list (build_pool rng) in
  (* interleave kinds before truncating to [pool] so a small pool still
     mixes all kinds rather than only the catalogue prefix *)
  let by_kind = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      let q =
        match Hashtbl.find_opt by_kind e.kind with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add by_kind e.kind q;
          q
      in
      Queue.push e q)
    all;
  let kinds =
    (* deterministic kind order: first appearance in the pool *)
    Array.to_list all
    |> List.map (fun e -> e.kind)
    |> List.fold_left (fun acc k -> if List.mem k acc then acc else k :: acc) []
    |> List.rev
  in
  let interleaved = ref [] in
  let remaining = ref (Array.length all) in
  while !remaining > 0 do
    List.iter
      (fun k ->
        let q = Hashtbl.find by_kind k in
        if not (Queue.is_empty q) then begin
          interleaved := Queue.pop q :: !interleaved;
          decr remaining
        end)
      kinds
  done;
  let entries =
    Array.of_list (take (min pool (Array.length all)) (List.rev !interleaved))
  in
  let n = Array.length entries in
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) alpha);
    cum.(r) <- !total
  done;
  { entries; cum; total = !total; rng; clients; emitted = 0 }

let pool_size t = Array.length t.entries

let pool_kinds t =
  Array.to_list t.entries
  |> List.map (fun e -> e.kind)
  |> List.sort_uniq compare

let sample_rank t =
  let n = Array.length t.entries in
  let u = Rng.float t.rng t.total in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cum.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1)

let next t =
  let e = t.entries.(sample_rank t) in
  t.emitted <- t.emitted + 1;
  let id = Printf.sprintf "soak-%d" t.emitted in
  let client = Printf.sprintf "soak-user-%02d" (Rng.int t.rng t.clients) in
  let priority =
    match Rng.int t.rng 8 with 0 -> "high" | 1 -> "low" | _ -> "normal"
  in
  let line =
    Json.to_string
      (Json.Obj
         (("id", Json.Str id)
         :: ("client", Json.Str client)
         :: ("priority", Json.Str priority)
         :: e.fields))
  in
  { id; kind = e.kind; expect = e.expect; line }

let take_jobs t n = List.init n (fun _ -> next t)

let stream ?pool ?alpha ?clients ~requests ~seed () =
  let t = create ?pool ?alpha ?clients ~seed () in
  take_jobs t requests
