module Lang = Armb_litmus.Lang
module Enumerate = Armb_litmus.Enumerate

type outcome = {
  repairs : Placement.edit list list;
  oracle_calls : int;
  complete : bool;
}

let default_sound t = not (Enumerate.allows Enumerate.Wmm t)

let check_limits ?max_edits ?budget () =
  let at_least_1 field = function
    | Some v when v < 1 ->
      invalid_arg (Printf.sprintf "Search: %s must be at least 1 (got %d)" field v)
    | _ -> ()
  in
  at_least_1 "max_edits" max_edits;
  at_least_1 "budget" budget

(* ---------- the replaying WMM oracle ---------- *)

type ctx = {
  test : Lang.test;
  base : Enumerate.compiled;
  base_need : int array;
  deltas : (Placement.edit, int array) Hashtbl.t;
      (* per single edit: the need bits it adds to the base's *)
  mutable witnesses : int array list;
      (* op orders that reach the forbidden outcome, newest first *)
}

let context t =
  let base = Enumerate.compile Enumerate.Wmm t in
  {
    test = t;
    base;
    base_need = Enumerate.needs base;
    deltas = Hashtbl.create 64;
    witnesses = [];
  }

let delta ctx e =
  match Hashtbl.find_opt ctx.deltas e with
  | Some d -> d
  | None ->
    let need = Enumerate.needs_of ctx.base (Placement.apply ctx.test [ e ]) in
    let d = Array.mapi (fun i n -> n land lnot ctx.base_need.(i)) need in
    Hashtbl.add ctx.deltas e d;
    d

(* [Mutate.set_addr_dep] overwrites, so a set with two address
   dependencies on one access keeps only the last: its masks are not the
   OR of its edits' deltas. *)
let overwrites set =
  let deps =
    List.filter_map
      (function
        | Placement.Add_addr_dep { thread; idx; _ } -> Some (thread, idx) | _ -> None)
      set
  in
  List.length (List.sort_uniq compare deps) < List.length deps

let needs ctx set =
  if overwrites set then Enumerate.needs_of ctx.base (Placement.apply ctx.test set)
  else begin
    let need = Array.copy ctx.base_need in
    List.iter
      (fun e -> Array.iteri (fun i d -> need.(i) <- need.(i) lor d) (delta ctx e))
      set;
    need
  end

(* A cached witness that replays under the set's masks proves the
   forbidden outcome reachable; only when none does is the DFS run. *)
let decide ctx set =
  let need = needs ctx set in
  (not (List.exists (Enumerate.replays ctx.base need) ctx.witnesses))
  &&
  match Enumerate.witness ctx.base need with
  | None -> true
  | Some w ->
    ctx.witnesses <- w :: ctx.witnesses;
    false

let oracle ?sound ?ctx t =
  match (sound, ctx) with
  | Some sound, None -> fun set -> sound (Placement.apply t set)
  | None, Some ctx ->
    if ctx.test != t then invalid_arg "Search: the context was made for another test";
    decide ctx
  | None, None -> decide (context t)
  | Some _, Some _ -> invalid_arg "Search: give either sound or ctx, not both"

(* ---------- search ---------- *)

exception Out_of_budget

let is_subset small big = List.for_all (fun e -> List.mem e big) small

let search ?(max_edits = 3) ?(budget = 4000) ?sound ?ctx ?candidates t =
  check_limits ~max_edits ~budget ();
  let sound = oracle ?sound ?ctx t in
  let cands =
    match candidates with Some c -> c | None -> Placement.candidates t
  in
  let calls = ref 0 in
  let found = ref [] in
  let check set =
    if !calls >= budget then raise Out_of_budget;
    incr calls;
    sound set
  in
  (* Enumerate k-subsets of [cands] in lexicographic order of the
     static-cost-sorted candidate list; a subset that contains an
     already-found repair is sufficient but redundant, so it is pruned
     without an oracle call. *)
  let arr = Array.of_list cands in
  let n = Array.length arr in
  let rec walk k start acc_rev =
    if k = 0 then begin
      let set = List.rev acc_rev in
      if (not (List.exists (fun r -> is_subset r set) !found)) && check set then
        found := !found @ [ set ]
    end
    else
      for i = start to n - k do
        walk (k - 1) (i + 1) (arr.(i) :: acc_rev)
      done
  in
  let complete =
    try
      for k = 1 to min max_edits n do
        walk k 0 []
      done;
      true
    with Out_of_budget -> false
  in
  { repairs = !found; oracle_calls = !calls; complete }

let irredundant ?sound ?ctx t set =
  let sound = oracle ?sound ?ctx t in
  sound set && List.for_all (fun e -> not (sound (List.filter (fun x -> x <> e) set))) set
