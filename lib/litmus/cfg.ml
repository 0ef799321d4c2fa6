(* Control-flow extension of the micro-op DSL: labeled basic blocks,
   conditional branches on loaded registers, and back-edges (loops,
   explored under bounded unrolling).  Loop-free programs lower back to
   straight-line [Lang.t] slices so every existing consumer — the
   exhaustive enumerator, the sanitizer, the timing simulator, the
   synthesizer — keeps working unchanged on CFG programs too. *)

type label = string

type terminator =
  | Goto of label
  | Branch of { reg : Lang.reg; if_nonzero : label; if_zero : label }
  | Return

type block = { label : label; body : Lang.instr list; term : terminator }

type thread_cfg = { entry : label; blocks : block list }

type program = {
  name : string;
  description : string;
  init : (string * int64) list;
  threads : thread_cfg list;
  interesting : (string -> int64) -> bool;
  expect_tso : bool;
  expect_wmm : bool;
}

let single_label = "b0"

let block g l = List.find_opt (fun b -> b.label = l) g.blocks

let block_exn g l =
  match block g l with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Cfg: no block labeled %S" l)

let successors = function
  | Goto l -> [ l ]
  | Branch { if_nonzero; if_zero; _ } ->
    if if_nonzero = if_zero then [ if_nonzero ] else [ if_nonzero; if_zero ]
  | Return -> []

let validate_thread g =
  let seen = Hashtbl.create 8 in
  let dup =
    List.find_opt
      (fun b ->
        if Hashtbl.mem seen b.label then true
        else begin
          Hashtbl.add seen b.label ();
          false
        end)
      g.blocks
  in
  match dup with
  | Some b -> Error (Printf.sprintf "duplicate block label %S" b.label)
  | None ->
    if not (Hashtbl.mem seen g.entry) then
      Error (Printf.sprintf "entry %S is not a block" g.entry)
    else (
      let bad = ref None in
      List.iter
        (fun b ->
          List.iter
            (fun l ->
              if (not (Hashtbl.mem seen l)) && !bad = None then
                bad := Some (Printf.sprintf "block %S jumps to unknown label %S" b.label l))
            (successors b.term))
        g.blocks;
      match !bad with Some m -> Error m | None -> Ok ())

let validate p =
  let rec go i = function
    | [] -> Ok ()
    | g :: rest -> (
      match validate_thread g with
      | Error m -> Error (Printf.sprintf "thread %d: %s" i m)
      | Ok () -> go (i + 1) rest)
  in
  go 0 p.threads

(* Reachable blocks in DFS-from-entry order (successor order, nonzero
   side first); unreachable blocks are ignored by every analysis and
   lowering below. *)
let reachable_blocks g =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.add seen l ();
      let b = block_exn g l in
      acc := b :: !acc;
      List.iter dfs (successors b.term)
    end
  in
  dfs g.entry;
  List.rev !acc

let has_loop g =
  (* grey/black DFS: a back edge is an edge into a block still on the
     DFS stack *)
  let state = Hashtbl.create 8 in
  let rec dfs l =
    match Hashtbl.find_opt state l with
    | Some `Grey -> true
    | Some `Black -> false
    | None ->
      Hashtbl.replace state l `Grey;
      let cyc = List.exists dfs (successors (block_exn g l).term) in
      Hashtbl.replace state l `Black;
      cyc
  in
  dfs g.entry

let of_thread instrs = { entry = single_label; blocks = [ { label = single_label; body = instrs; term = Return } ] }

let of_test (t : Lang.test) =
  {
    name = t.Lang.name;
    description = t.Lang.description;
    init = t.Lang.init;
    threads = List.map of_thread t.Lang.threads;
    interesting = t.Lang.interesting;
    expect_tso = t.Lang.expect_tso;
    expect_wmm = t.Lang.expect_wmm;
  }

let fence_count p =
  List.fold_left
    (fun acc g ->
      List.fold_left
        (fun acc b ->
          acc
          + List.length (List.filter (function Lang.Fence _ -> true | _ -> false) b.body))
        acc (reachable_blocks g))
    0 p.threads

let thread_regs g =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iter
        (fun i -> match Lang.writes_reg i with Some r -> Hashtbl.replace tbl r () | None -> ())
        b.body)
    (reachable_blocks g);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let vars p =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (v, _) -> Hashtbl.replace tbl v ()) p.init;
  List.iter
    (fun g ->
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              match i with
              | Lang.Load { var; _ } | Lang.Store { var; _ } -> Hashtbl.replace tbl var ()
              | Lang.Fence _ -> ())
            b.body)
        (reachable_blocks g))
    p.threads;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(* ---------- bounded-unroll path lowering ---------- *)

(* One acyclic-after-unrolling path through a thread, flattened to a
   straight-line instruction list.  Registers are in SSA-ish form: the
   first write to [r] keeps the name, the k-th (k >= 2) becomes "r#k",
   so re-loads in unrolled loop iterations stay distinguishable and a
   branch constraint pins the exact value the branch observed (each
   version is written once, so its final value IS the branched-on
   value).  Stores after a branch gain the branch register as a (bogus)
   address dependency — the DSL's encoding of the control dependency a
   real ARM core enforces from a conditional branch to every later
   store. *)
type path = {
  instrs : Lang.instr list;
  constraints : (Lang.reg * bool) list;  (** versioned reg, must-be-nonzero *)
  last_version : (Lang.reg * Lang.reg) list;  (** base reg -> last version *)
}

let max_path_len = 58 (* the enumerator packs per-thread indices in an int bitmask *)

let thread_paths ?(unroll = 2) g =
  if unroll < 1 then invalid_arg "Cfg.thread_paths: unroll must be >= 1";
  let paths = ref [] in
  (* visits: block -> entries on the current path; versions: base reg ->
     count; current: base reg -> live version name *)
  let rec dfs l visits versions current ctrl instrs constraints =
    match List.assoc_opt l visits with
    | Some n when n >= unroll -> () (* unroll bound hit: abandon this path *)
    | prior ->
      let visits = (l, 1 + Option.value prior ~default:0) :: List.remove_assoc l visits in
      let b = block_exn g l in
      let rename_read versions_cur r =
        match List.assoc_opt r versions_cur with Some v -> v | None -> r
      in
      let step (versions, current, instrs) i =
        match i with
        | Lang.Load { var; reg; acquire; addr_dep } ->
          let addr_dep = Option.map (rename_read current) addr_dep in
          let n = 1 + Option.value (List.assoc_opt reg versions) ~default:0 in
          let v = if n = 1 then reg else Printf.sprintf "%s#%d" reg n in
          ( (reg, n) :: List.remove_assoc reg versions,
            (reg, v) :: List.remove_assoc reg current,
            Lang.Load { var; reg = v; acquire; addr_dep } :: instrs )
        | Lang.Store { var; v; release; addr_dep } ->
          let v =
            match v with Lang.Reg r -> Lang.Reg (rename_read current r) | c -> c
          in
          let addr_dep =
            match addr_dep with
            | Some r -> Some (rename_read current r)
            | None -> ctrl (* control dependency from the latest branch *)
          in
          (versions, current, Lang.Store { var; v; release; addr_dep } :: instrs)
        | Lang.Fence f -> (versions, current, Lang.Fence f :: instrs)
      in
      let versions, current, instrs =
        List.fold_left step (versions, current, instrs) b.body
      in
      if List.length instrs <= max_path_len then (
        match b.term with
        | Return ->
          paths :=
            {
              instrs = List.rev instrs;
              constraints = List.rev constraints;
              last_version = List.sort compare current;
            }
            :: !paths
        | Goto l' -> dfs l' visits versions current ctrl instrs constraints
        | Branch { reg; if_nonzero; if_zero } ->
          let v = rename_read current reg in
          dfs if_nonzero visits versions current (Some v) instrs ((v, true) :: constraints);
          if if_zero <> if_nonzero then
            dfs if_zero visits versions current (Some v) instrs ((v, false) :: constraints))
  in
  dfs g.entry [] [] [] None [] [];
  List.rev !paths

type slice = { threads : path list }

let max_slices = 512

let slices ?unroll (p : program) =
  let per_thread = List.map (thread_paths ?unroll) p.threads in
  List.iter
    (fun ps ->
      if ps = [] then
        invalid_arg
          (Printf.sprintf "Cfg.slices: %s has a thread with no path within the unroll bound"
             p.name))
    per_thread;
  let count = List.fold_left (fun acc ps -> acc * List.length ps) 1 per_thread in
  if count > max_slices then
    invalid_arg
      (Printf.sprintf "Cfg.slices: %s has %d path combinations (max %d)" p.name count
         max_slices);
  let rec product = function
    | [] -> [ [] ]
    | ps :: rest ->
      let tails = product rest in
      List.concat_map (fun head -> List.map (fun tl -> head :: tl) tails) ps
  in
  List.map (fun threads -> { threads }) (product per_thread)

let assoc_get k l = match List.assoc_opt k l with Some v -> v | None -> 0L

(* Do the branch outcomes recorded along the slice hold in [o]?  Each
   constraint names a versioned register written at most once on the
   path, so its final value is the value the branch saw. *)
let feasible s (o : Enumerate.outcome) =
  List.for_all
    (fun (th, (p : path)) ->
      List.for_all
        (fun (r, nonzero) ->
          let v = assoc_get (Printf.sprintf "%d:%s" th r) o in
          if nonzero then v <> 0L else v = 0L)
        p.constraints)
    (List.mapi (fun th p -> (th, p)) s.threads)

(* Project a slice outcome onto the program's register/variable
   universe: each base register maps to its path-final version (0 when
   the path never wrote it), each variable to its final memory value
   (its initial value when the slice never touched it). *)
let project (p : program) s (o : Enumerate.outcome) =
  let regs =
    List.concat
      (List.mapi
         (fun th (pa : path) ->
           let g = List.nth p.threads th in
           List.map
             (fun base ->
               let version =
                 match List.assoc_opt base pa.last_version with
                 | Some v -> v
                 | None -> base
               in
               (Printf.sprintf "%d:%s" th base, assoc_get (Printf.sprintf "%d:%s" th version) o))
             (thread_regs g))
         s.threads)
  in
  let mem =
    List.map
      (fun v ->
        let k = "mem:" ^ v in
        match List.assoc_opt k o with
        | Some x -> (k, x)
        | None -> (k, assoc_get v p.init))
      (vars p)
  in
  List.sort compare (regs @ mem)

let raw_slice_test (p : program) (s : slice) =
  {
    Lang.name = p.name;
    description = p.description;
    init = p.init;
    threads = List.map (fun (pa : path) -> pa.instrs) s.threads;
    interesting = (fun _ -> false);
    expect_tso = false;
    expect_wmm = false;
  }

let reachable ?unroll model p =
  let outs = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun o -> if feasible s o then Hashtbl.replace outs (project p s o) ())
        (Enumerate.enumerate model (raw_slice_test p s)))
    (slices ?unroll p);
  List.sort compare (Hashtbl.fold (fun o () acc -> o :: acc) outs [])

let allows ?unroll model p =
  List.exists (fun o -> p.interesting (fun r -> assoc_get r o)) (reachable ?unroll model p)

let slice_test ~name p (s : slice) =
  let names = Lang.outcome_names (raw_slice_test p s) in
  let interesting o =
    (* reconstruct an outcome binding list from the lookup to reuse
       [feasible]/[project]; predicates only consult known keys *)
    let bindings = List.map (fun k -> (k, o k)) names in
    feasible s bindings
    && p.interesting (fun r -> assoc_get r (project p s bindings))
  in
  let t = { (raw_slice_test p s) with Lang.name; interesting } in
  (* per-slice expectations are honest: a slice may not reach the weak
     outcome even when the whole program does *)
  {
    t with
    Lang.expect_wmm = Enumerate.allows Enumerate.Wmm t;
    expect_tso = Enumerate.allows Enumerate.Tso t;
  }

let verify_expectations ?unroll p =
  let wmm = allows ?unroll Enumerate.Wmm p and tso = allows ?unroll Enumerate.Tso p in
  let ok = wmm = p.expect_wmm && tso = p.expect_tso in
  ( ok,
    Printf.sprintf "wmm: allowed=%b (expected %b); tso: allowed=%b (expected %b)" wmm
      p.expect_wmm tso p.expect_tso )

(* ---------- construction helpers ---------- *)

let blk label ?(term = Return) body = { label; body; term }
let goto l = Goto l
let branch reg ~nonzero ~zero = Branch { reg; if_nonzero = nonzero; if_zero = zero }

let cfg ?(entry = single_label) blocks =
  let g = { entry; blocks } in
  (match validate_thread g with Ok () -> () | Error m -> invalid_arg ("Cfg.cfg: " ^ m));
  g
