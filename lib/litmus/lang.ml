type reg = string

type value = Const of int64 | Reg of reg

type fence = F_dmb_full | F_dmb_st | F_dmb_ld | F_dsb | F_isb

type instr =
  | Load of { var : string; reg : reg; acquire : bool; addr_dep : reg option }
  | Store of { var : string; v : value; release : bool; addr_dep : reg option }
  | Fence of fence

type thread = instr list

type test = {
  name : string;
  description : string;
  init : (string * int64) list;
  threads : thread list;
  interesting : (string -> int64) -> bool;
  expect_tso : bool;
  expect_wmm : bool;
}

let ld ?(acquire = false) ?addr_dep var reg = Load { var; reg; acquire; addr_dep }

let st ?(release = false) ?addr_dep var v = Store { var; v = Const v; release; addr_dep }

let st_reg ?(release = false) var r = Store { var; v = Reg r; release; addr_dep = None }

let fence f = Fence f

let var_of = function
  | Load { var; _ } | Store { var; _ } -> Some var
  | Fence _ -> None

(* Tests are small: a list searched with typed equality beats hashing. *)
let vars t =
  let add vs v = if List.exists (String.equal v) vs then vs else v :: vs in
  let vs = List.fold_left (fun vs (v, _) -> add vs v) [] t.init in
  List.fold_left
    (List.fold_left (fun vs i -> match var_of i with Some v -> add vs v | None -> vs))
    vs t.threads
  |> List.sort String.compare

let writes_reg = function
  | Load { reg; _ } -> Some reg
  | Store _ | Fence _ -> None

let reads_regs = function
  | Load { addr_dep; _ } -> ( match addr_dep with Some r -> [ r ] | None -> [])
  | Store { v; addr_dep; _ } ->
    let l = match v with Reg r -> [ r ] | Const _ -> [] in
    (match addr_dep with Some r -> r :: l | None -> l)
  | Fence _ -> []

let regs_of_thread th = List.filter_map writes_reg th

let outcome_names t =
  let regs i th =
    let pre = string_of_int i ^ ":" in
    List.map (fun r -> pre ^ r) (List.sort_uniq String.compare (regs_of_thread th))
  in
  List.map (fun v -> "mem:" ^ v) (vars t) @ List.concat (List.mapi regs t.threads)
  |> List.sort String.compare

let fence_to_string = function
  | F_dmb_full -> "dmb"
  | F_dmb_st -> "dmb st"
  | F_dmb_ld -> "dmb ld"
  | F_dsb -> "dsb"
  | F_isb -> "ctrl+isb"

let pp_instr ppf = function
  | Load { var; reg; acquire; addr_dep } ->
    Format.fprintf ppf "%s := %s%s%s" reg
      (if acquire then "ldar " else "ldr ")
      var
      (match addr_dep with Some r -> " [addr dep " ^ r ^ "]" | None -> "")
  | Store { var; v; release; addr_dep } ->
    Format.fprintf ppf "%s%s := %s%s"
      (if release then "stlr " else "str ")
      var
      (match v with Const c -> Int64.to_string c | Reg r -> r)
      (match addr_dep with Some r -> " [addr dep " ^ r ^ "]" | None -> "")
  | Fence f -> Format.fprintf ppf "%s" (fence_to_string f)
