(* The service's canonical keying as it stood before the one-pass
   rewrite of [Armb_service.Key]: Hashtbl renaming maps, one
   [Printf.sprintf] per instruction, and a predicate fingerprint built
   from [Enumerate.enumerate]'s outcome lists.  Kept verbatim as the
   oracle the differential keying tests compare the service's keys
   against, byte for byte. *)

module Lang = Armb_litmus.Lang
module Enumerate = Armb_litmus.Enumerate

(* Canonical renaming: shared variables in order of first appearance
   scanning threads in program order (variables referenced only by the
   init section follow, ordered by initial value — such variables are
   interchangeable, so ties cannot change the serialization); registers
   per thread in order of first occurrence (uses before definitions
   included, since a use of a never-written register reads 0 and is
   still part of the program's shape). *)

let build_maps (t : Lang.test) =
  let vmap : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let vnext = ref 0 in
  let see_var v =
    if not (Hashtbl.mem vmap v) then begin
      Hashtbl.add vmap v (Printf.sprintf "v%d" !vnext);
      incr vnext
    end
  in
  let rmaps =
    List.map
      (fun th ->
        let rmap : (string, string) Hashtbl.t = Hashtbl.create 8 in
        let rnext = ref 0 in
        let see_reg r =
          if not (Hashtbl.mem rmap r) then begin
            Hashtbl.add rmap r (Printf.sprintf "r%d" !rnext);
            incr rnext
          end
        in
        List.iter
          (fun instr ->
            (match instr with
            | Lang.Load { var; _ } | Lang.Store { var; _ } -> see_var var
            | Lang.Fence _ -> ());
            match instr with
            | Lang.Load { reg; addr_dep; _ } ->
              Option.iter see_reg addr_dep;
              see_reg reg
            | Lang.Store { v; addr_dep; _ } -> (
              Option.iter see_reg addr_dep;
              match v with Lang.Reg r -> see_reg r | Lang.Const _ -> ())
            | Lang.Fence _ -> ())
          th;
        rmap)
      t.threads
  in
  (* init-only variables, ordered by initial value *)
  let init_only =
    List.filter (fun (v, _) -> not (Hashtbl.mem vmap v)) t.init
    |> List.sort (fun (_, a) (_, b) -> Int64.compare a b)
  in
  List.iter (fun (v, _) -> see_var v) init_only;
  (vmap, rmaps)

let canonical_test (t : Lang.test) =
  let vmap, rmaps = build_maps t in
  let cvar v = try Hashtbl.find vmap v with Not_found -> "v?" ^ v in
  let creg i r =
    match List.nth_opt rmaps i with
    | Some m -> ( try Hashtbl.find m r with Not_found -> "r?" ^ r)
    | None -> "r?" ^ r
  in
  let b = Buffer.create 512 in
  (* threads *)
  List.iteri
    (fun i th ->
      Buffer.add_string b (Printf.sprintf "T%d|" i);
      List.iter
        (fun instr ->
          (match instr with
          | Lang.Load { var; reg; acquire; addr_dep } ->
            Buffer.add_string b
              (Printf.sprintf "L %s %s a%d d%s" (cvar var) (creg i reg)
                 (if acquire then 1 else 0)
                 (match addr_dep with Some r -> creg i r | None -> "-"))
          | Lang.Store { var; v; release; addr_dep } ->
            Buffer.add_string b
              (Printf.sprintf "S %s %s l%d d%s" (cvar var)
                 (match v with
                 | Lang.Const k -> Printf.sprintf "c%Ld" k
                 | Lang.Reg r -> creg i r)
                 (if release then 1 else 0)
                 (match addr_dep with Some r -> creg i r | None -> "-"))
          | Lang.Fence f -> Buffer.add_string b ("F " ^ Lang.fence_to_string f));
          Buffer.add_char b ';')
        th;
      Buffer.add_char b '\n')
    t.threads;
  (* init: every canonical variable with its (default-0) initial value,
     sorted by canonical name — binding order and explicit zeros are
     presentation *)
  let inits =
    Hashtbl.fold
      (fun v cv acc ->
        let x = match List.assoc_opt v t.init with Some x -> x | None -> 0L in
        (cv, x) :: acc)
      vmap []
    |> List.sort compare
  in
  List.iter (fun (cv, x) -> Buffer.add_string b (Printf.sprintf "I %s=%Ld\n" cv x)) inits;
  Buffer.add_string b (Printf.sprintf "E tso=%b wmm=%b\n" t.expect_tso t.expect_wmm);
  (* predicate fingerprint: the [interesting] closure cannot be hashed,
     but its extension over the reachable outcome set can — evaluate it
     on every WMM-reachable outcome and serialize (renamed outcome,
     verdict) pairs.  Renamed tests fingerprint identically; different
     predicates over the same program cannot collide unless they agree
     everywhere reachable (in which case the computations coincide). *)
  let rename k =
    match String.index_opt k ':' with
    | Some colon -> (
      let pre = String.sub k 0 colon in
      let post = String.sub k (colon + 1) (String.length k - colon - 1) in
      if pre = "mem" then "mem:" ^ cvar post
      else
        match int_of_string_opt pre with
        | Some i -> string_of_int i ^ ":" ^ creg i post
        | None -> k)
    | None -> k
  in
  (* every outcome binds the same names: rename each one once *)
  let renamed = Hashtbl.create 16 in
  let canon k =
    match Hashtbl.find_opt renamed k with
    | Some c -> c
    | None ->
      let c = rename k in
      Hashtbl.add renamed k c;
      c
  in
  let fp =
    List.map
      (fun outcome ->
        let lookup r =
          match List.assoc_opt r outcome with Some v -> v | None -> 0L
        in
        let verdict = t.interesting lookup in
        let bindings = List.sort compare (List.map (fun (k, v) -> (canon k, v)) outcome) in
        "O " ^ Enumerate.outcome_to_string bindings ^ " -> " ^ string_of_bool verdict)
      (Enumerate.enumerate Enumerate.Wmm t)
    |> List.sort String.compare
  in
  List.iter
    (fun line ->
      Buffer.add_string b line;
      Buffer.add_char b '\n')
    fp;
  Buffer.contents b

module Cfg = Armb_litmus.Cfg

(* CFG programs are keyed structurally — surface names and all.  Unlike
   [canonical_test] there is no renaming pass and no predicate
   fingerprint: every program that reaches the service was built by the
   codec, which only constructs programs with the trivially-false
   predicate, so two structurally-equal programs always denote the same
   computation, and a renamed variant merely misses the cache (costs a
   recomputation, never a wrong coalesce). *)
let canonical_program (p : Cfg.program) =
  let b = Buffer.create 512 in
  let add_instr i (instr : Lang.instr) =
    ignore i;
    (match instr with
    | Lang.Load { var; reg; acquire; addr_dep } ->
      Buffer.add_string b
        (Printf.sprintf "L %s %s a%d d%s" var reg
           (if acquire then 1 else 0)
           (match addr_dep with Some r -> r | None -> "-"))
    | Lang.Store { var; v; release; addr_dep } ->
      Buffer.add_string b
        (Printf.sprintf "S %s %s l%d d%s" var
           (match v with
           | Lang.Const k -> Printf.sprintf "c%Ld" k
           | Lang.Reg r -> r)
           (if release then 1 else 0)
           (match addr_dep with Some r -> r | None -> "-"))
    | Lang.Fence f -> Buffer.add_string b ("F " ^ Lang.fence_to_string f));
    Buffer.add_char b ';'
  in
  List.iteri
    (fun i (th : Cfg.thread_cfg) ->
      Buffer.add_string b (Printf.sprintf "T%d entry=%s\n" i th.Cfg.entry);
      List.iter
        (fun (blk : Cfg.block) ->
          Buffer.add_string b (Printf.sprintf "B %s|" blk.Cfg.label);
          List.iter (add_instr i) blk.Cfg.body;
          (match blk.Cfg.term with
          | Cfg.Goto l -> Buffer.add_string b ("goto " ^ l)
          | Cfg.Branch { reg; if_nonzero; if_zero } ->
            Buffer.add_string b
              (Printf.sprintf "br %s %s %s" reg if_nonzero if_zero)
          | Cfg.Return -> Buffer.add_string b "ret");
          Buffer.add_char b '\n')
        th.Cfg.blocks)
    p.Cfg.threads;
  List.iter
    (fun (v, x) -> Buffer.add_string b (Printf.sprintf "I %s=%Ld\n" v x))
    (List.sort compare p.Cfg.init);
  Buffer.add_string b
    (Printf.sprintf "E tso=%b wmm=%b\n" p.Cfg.expect_tso p.Cfg.expect_wmm);
  Buffer.contents b

(* The text [Job.key] digested, formatted as it was: one
   [Printf.sprintf] per coordinate line.  Validation is left out; it
   did not change. *)
module Job = Armb_service.Job
module AM = Armb_core.Abstracted_model

let mem_ops_tag = function
  | AM.No_mem -> "no-mem"
  | AM.Store_store -> "st-st"
  | AM.Load_store -> "ld-st"
  | AM.Load_load -> "ld-ld"

let location_tag = function AM.Loc1 -> 1 | AM.Loc2 -> 2

let job_key (t : Job.t) =
  let b = Buffer.create 1024 in
  (match t.spec with
  | Litmus test ->
    Buffer.add_string b "litmus\n";
    Buffer.add_string b (canonical_test test)
  | Check test ->
    Buffer.add_string b "check\n";
    Buffer.add_string b (canonical_test test)
  | Model { mem_ops; approach; location; nops; iters } ->
    Buffer.add_string b
      (Printf.sprintf "model|%s|%s|%d|%d|%d\n" (mem_ops_tag mem_ops)
         (Armb_core.Ordering.to_string approach)
         (location_tag location) nops iters)
  | Ring { combo; messages } -> Buffer.add_string b (Printf.sprintf "ring|%s|%d\n" combo messages)
  | Fuzz { tests } -> Buffer.add_string b (Printf.sprintf "fuzz|%d\n" tests)
  | Fix { test; max_edits; budget } ->
    Buffer.add_string b (Printf.sprintf "fix|%d|%d\n" max_edits budget);
    Buffer.add_string b (canonical_test test)
  | Perturb { test; intensities; plan_seeds } ->
    Buffer.add_string b
      (Printf.sprintf "perturb|%s|%s\n"
         (String.concat "," (List.map (Printf.sprintf "%.6f") intensities))
         (String.concat "," (List.map string_of_int plan_seeds)));
    Buffer.add_string b (canonical_test test)
  | Opt { program; algorithm; unroll } ->
    Buffer.add_string b
      (Printf.sprintf "opt|%s|%d\n" (Armb_opt.Optimizer.algorithm_name algorithm) unroll);
    Buffer.add_string b (canonical_program program));
  let a, bcore = t.rc.cores in
  Buffer.add_string b
    (Printf.sprintf "@%s|%d,%d|seed=%d|trials=%d|fault=%.6f"
       t.rc.cfg.Armb_cpu.Config.name a bcore t.rc.seed t.rc.trials t.fault);
  Digest.to_hex (Digest.string (Buffer.contents b))
