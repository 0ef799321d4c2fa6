module Barrier = Armb_cpu.Barrier

type from_access = From_load | From_store | From_any

type to_access = To_load | To_loads | To_store | To_stores | To_any

type suggestion = { approach : Ordering.t; rank : int; caveat : string option }

let all_from = [ From_load; From_store; From_any ]

let all_to = [ To_load; To_loads; To_store; To_stores; To_any ]

let from_to_string = function
  | From_load -> "Load"
  | From_store -> "Store"
  | From_any -> "Any"

let to_to_string = function
  | To_load -> "Load"
  | To_loads -> "Loads"
  | To_store -> "Store"
  | To_stores -> "Stores"
  | To_any -> "Any"

(* Architectural sufficiency, derived from the per-approach ordering
   predicates.  Dependencies only order a load against the accesses
   that actually consume its value, so they are sufficient for the
   single-successor cases (To_load / To_store); barriers and LDAR cover
   multiple successors too. *)
let covers_one_to_one approach ~later_is_store =
  if later_is_store then Ordering.orders_load_store approach
  else Ordering.orders_load_load approach

let sufficient approach ~from_ ~to_ =
  match approach with
  | Ordering.No_barrier -> false
  | _ -> (
    match (from_, to_) with
    | From_load, To_load -> covers_one_to_one approach ~later_is_store:false
    | From_load, To_store -> covers_one_to_one approach ~later_is_store:true
    | From_load, (To_loads | To_any) ->
      (* Several later accesses: a dependency must feed all of them
         (address dependency can, by indexing every access), which we
         accept only for Addr_dep/Ctrl_isb; otherwise a real barrier. *)
      Ordering.orders_load_load approach && Ordering.orders_load_store approach
    | From_load, To_stores -> Ordering.orders_load_store approach && approach <> Ordering.Data_dep && approach <> Ordering.Ctrl_dep && approach <> Ordering.Stlr_release
    | From_store, (To_store | To_stores) -> Ordering.orders_store_store approach
    | From_store, (To_load | To_loads | To_any) -> Ordering.orders_store_load approach
    | From_any, (To_store | To_stores) ->
      Ordering.orders_store_store approach && Ordering.orders_load_store approach
    | From_any, (To_load | To_loads | To_any) ->
      Ordering.orders_store_load approach && Ordering.orders_load_load approach)

let rcpc_note =
  "ARMv8.3 Load-Acquire RCpc (not on Kunpeng 916) may give better parallelism than LDAR"

let stlr_note =
  "STLR is sufficient here but its overhead is unstable (Observation 3): compare against \
   DMB full on the target platform before using it"

let dep_note = "bogus dependency: xor the loaded value with itself and fold it in"

let mk ?caveat rank approach = { approach; rank; caveat }

(* Table 3 of the paper, cheapest first. *)
let suggest ~from_ ~to_ =
  let l =
    match (from_, to_) with
    | From_load, To_load ->
      [
        mk 0 Ordering.Addr_dep ~caveat:dep_note;
        mk 1 Ordering.Ldar_acquire ~caveat:rcpc_note;
        mk 2 (Ordering.Bar (Barrier.Dmb Ld));
      ]
    | From_load, To_loads ->
      [
        mk 0 Ordering.Addr_dep ~caveat:dep_note;
        mk 1 (Ordering.Bar (Barrier.Dmb Ld));
        mk 2 Ordering.Ldar_acquire ~caveat:rcpc_note;
      ]
    | From_load, To_store ->
      [
        mk 0 Ordering.Data_dep ~caveat:dep_note;
        mk 0 Ordering.Addr_dep ~caveat:dep_note;
        mk 0 Ordering.Ctrl_dep ~caveat:"natural in conditional code";
        mk 1 Ordering.Ldar_acquire ~caveat:rcpc_note;
        mk 2 (Ordering.Bar (Barrier.Dmb Ld));
      ]
    | From_load, To_stores ->
      [
        mk 0 Ordering.Addr_dep ~caveat:dep_note;
        mk 1 (Ordering.Bar (Barrier.Dmb Ld));
        mk 2 Ordering.Ldar_acquire ~caveat:rcpc_note;
      ]
    | From_load, To_any ->
      [
        mk 0 Ordering.Addr_dep ~caveat:dep_note;
        mk 1 Ordering.Ldar_acquire ~caveat:rcpc_note;
        mk 1 (Ordering.Bar (Barrier.Dmb Ld));
      ]
    | From_store, (To_store | To_stores) -> [ mk 0 (Ordering.Bar (Barrier.Dmb St)) ]
    | From_store, (To_load | To_loads | To_any) -> [ mk 0 (Ordering.Bar (Barrier.Dmb Full)) ]
    | From_any, To_store ->
      [
        mk 0 (Ordering.Bar (Barrier.Dmb Full));
        mk 1 Ordering.Stlr_release ~caveat:stlr_note;
      ]
    | From_any, To_stores -> [ mk 0 (Ordering.Bar (Barrier.Dmb Full)) ]
    | From_any, (To_load | To_loads | To_any) -> [ mk 0 (Ordering.Bar (Barrier.Dmb Full)) ]
  in
  (* Keep only architecturally sufficient entries — a safety net that
     the tests rely on. *)
  List.filter (fun s -> sufficient s.approach ~from_ ~to_) l

let best ~from_ ~to_ =
  match suggest ~from_ ~to_ with
  | s :: _ -> s.approach
  | [] -> Ordering.Bar (Barrier.Dmb Full)
