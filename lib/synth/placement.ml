module Lang = Armb_litmus.Lang
module Mutate = Armb_litmus.Mutate
module Ordering = Armb_core.Ordering
module Advisor = Armb_core.Advisor
module Barrier = Armb_cpu.Barrier

type edit =
  | Insert_fence of { thread : int; pos : int; fence : Lang.fence }
  | Make_acquire of { thread : int; idx : int }
  | Make_release of { thread : int; idx : int }
  | Add_addr_dep of { thread : int; idx : int; reg : Lang.reg }

(* Architectural cost prior (search order only; the simulator decides
   winners).  Follows Table 3 / Figure 3: bogus dependencies are nearly
   free, LDAR/STLR are one-way, DMB LD/ST wait on one access kind, ISB
   flushes the pipeline, DMB full waits on everything, DSB blocks the
   whole core until the domain boundary answers. *)
let fence_cost = function
  | Lang.F_dmb_ld | Lang.F_dmb_st -> 4
  | Lang.F_isb -> 6
  | Lang.F_dmb_full -> 8
  | Lang.F_dsb -> 20

let static_cost = function
  | Add_addr_dep _ -> 1
  | Make_acquire _ -> 2
  | Make_release _ -> 3
  | Insert_fence { fence; _ } -> fence_cost fence

let total_cost es = List.fold_left (fun a e -> a + static_cost e) 0 es

let thread_of = function
  | Insert_fence { thread; _ }
  | Make_acquire { thread; _ }
  | Make_release { thread; _ }
  | Add_addr_dep { thread; _ } -> thread

let apply t edits =
  let is_insert = function Insert_fence _ -> true | _ -> false in
  let inserts, attrs = List.partition is_insert edits in
  let t =
    List.fold_left
      (fun t -> function
        | Make_acquire { thread; idx } -> Mutate.set_acquire ~thread ~idx t
        | Make_release { thread; idx } -> Mutate.set_release ~thread ~idx t
        | Add_addr_dep { thread; idx; reg } -> Mutate.set_addr_dep ~thread ~idx ~reg t
        | Insert_fence _ -> t)
      t attrs
  in
  (* Highest position first so earlier insertions don't shift later
     ones on the same thread. *)
  let inserts =
    List.sort
      (fun a b ->
        match (a, b) with
        | Insert_fence a, Insert_fence b ->
          if a.thread <> b.thread then compare a.thread b.thread else compare b.pos a.pos
        | _ -> 0)
      inserts
  in
  let t =
    List.fold_left
      (fun t -> function
        | Insert_fence { thread; pos; fence } -> Mutate.insert_fence ~thread ~pos fence t
        | _ -> t)
      t inserts
  in
  Mutate.rename (Printf.sprintf "%s+fix%d" t.Lang.name (List.length edits)) t

let fences = [ Lang.F_dmb_ld; Lang.F_dmb_st; Lang.F_isb; Lang.F_dmb_full; Lang.F_dsb ]

let candidates (t : Lang.test) =
  let acc = ref [] in
  let add e = acc := e :: !acc in
  List.iteri
    (fun thread instrs ->
      let n = List.length instrs in
      (* fences at every inter-instruction gap *)
      for pos = 1 to n - 1 do
        List.iter (fun fence -> add (Insert_fence { thread; pos; fence })) fences
      done;
      (* attribute upgrades *)
      List.iteri
        (fun idx i ->
          match i with
          | Lang.Load { acquire = false; _ } -> add (Make_acquire { thread; idx })
          | Lang.Store { release = false; _ } -> add (Make_release { thread; idx })
          | _ -> ())
        instrs;
      (* bogus address dependencies from each load to each later
         dependency-free access not already consuming its register *)
      List.iteri
        (fun i src ->
          match Lang.writes_reg src with
          | None -> ()
          | Some reg ->
            List.iteri
              (fun j dst ->
                if j > i then
                  match dst with
                  | (Lang.Load { addr_dep = None; _ } | Lang.Store { addr_dep = None; _ })
                    when not (List.mem reg (Lang.reads_regs dst)) ->
                    add (Add_addr_dep { thread; idx = j; reg })
                  | _ -> ())
              instrs)
        instrs)
    t.Lang.threads;
  List.stable_sort (fun a b -> compare (static_cost a) (static_cost b)) (List.rev !acc)

(* ---------- advisor cross-reference ---------- *)

let nth_thread (t : Lang.test) th = List.nth t.Lang.threads th

let classify_from instrs =
  let loads = List.exists (function Lang.Load _ -> true | _ -> false) instrs in
  let stores = List.exists (function Lang.Store _ -> true | _ -> false) instrs in
  match (loads, stores) with
  | false, false -> None
  | true, false -> Some Advisor.From_load
  | false, true -> Some Advisor.From_store
  | true, true -> Some Advisor.From_any

let classify_to instrs =
  let loads =
    List.length (List.filter (function Lang.Load _ -> true | _ -> false) instrs)
  in
  let stores =
    List.length (List.filter (function Lang.Store _ -> true | _ -> false) instrs)
  in
  match (loads, stores) with
  | 0, 0 -> None
  | 1, 0 -> Some Advisor.To_load
  | _, 0 -> Some Advisor.To_loads
  | 0, 1 -> Some Advisor.To_store
  | 0, _ -> Some Advisor.To_stores
  | _, _ -> Some Advisor.To_any

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l

let advisor_hint t edit =
  let pair =
    match edit with
    | Insert_fence { thread; pos; _ } ->
      let instrs = nth_thread t thread in
      (classify_from (take pos instrs), classify_to (drop pos instrs))
    | Make_acquire { thread; idx } ->
      (* LDAR orders the load at [idx] before everything after it *)
      (Some Advisor.From_load, classify_to (drop (idx + 1) (nth_thread t thread)))
    | Make_release { thread; idx } ->
      (* STLR orders everything before it ahead of the store at [idx] *)
      (classify_from (take idx (nth_thread t thread)), Some Advisor.To_store)
    | Add_addr_dep { thread; idx; _ } ->
      ( Some Advisor.From_load,
        classify_to (take 1 (drop idx (nth_thread t thread))) )
  in
  match pair with
  | Some from_, Some to_ -> Some (Advisor.best ~from_ ~to_)
  | _ -> None

let edit_to_string t e =
  let instr_str th idx =
    match List.nth_opt (nth_thread t th) idx with
    | Some i -> Format.asprintf "%a" Lang.pp_instr i
    | None -> "?"
  in
  match e with
  | Insert_fence { thread; pos; fence } ->
    Printf.sprintf "P%d@%d: insert %s" thread pos (Lang.fence_to_string fence)
  | Make_acquire { thread; idx } ->
    Printf.sprintf "P%d@%d: acquire (%s)" thread idx (instr_str thread idx)
  | Make_release { thread; idx } ->
    Printf.sprintf "P%d@%d: release (%s)" thread idx (instr_str thread idx)
  | Add_addr_dep { thread; idx; reg } ->
    Printf.sprintf "P%d@%d: addr dep on %s (%s)" thread idx reg (instr_str thread idx)
