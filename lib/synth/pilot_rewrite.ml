module Lang = Armb_litmus.Lang

type shape = {
  data_var : string;
  flag_var : string;
  data_val : int64;
  flag_val : int64;
  producer : int;
  consumer : int;
}

(* Name of the packed variable, suffixed if the test already uses it. *)
let word_var = "word"

let mask32 = 0xFFFF_FFFFL

let fits_u32 v = Int64.logand v mask32 = v

let accesses instrs =
  List.filter (function Lang.Load _ | Lang.Store _ -> true | Lang.Fence _ -> false) instrs

let init_of t var =
  match List.assoc_opt var t.Lang.init with Some v -> v | None -> 0L

(* Probe the opaque [interesting] predicate with a fabricated outcome:
   the consumer's two registers get the given values, final memory gets
   the published values (every complete execution performs both
   stores). *)
let probe t ~consumer ~flag_reg ~data_reg ~shape (flag_v, data_v) =
  let lookup key =
    if key = Printf.sprintf "%d:%s" consumer flag_reg then flag_v
    else if key = Printf.sprintf "%d:%s" consumer data_reg then data_v
    else if key = "mem:" ^ shape.data_var then shape.data_val
    else if key = "mem:" ^ shape.flag_var then shape.flag_val
    else 0L
  in
  t.Lang.interesting lookup

let detect_pair t ~producer ~consumer =
  let pt = accesses (List.nth t.Lang.threads producer) in
  let ct = accesses (List.nth t.Lang.threads consumer) in
  match (pt, ct) with
  | ( [
        Lang.Store { var = data_var; v = Lang.Const data_val; _ };
        Lang.Store { var = flag_var; v = Lang.Const flag_val; _ };
      ],
      [
        Lang.Load { var = lv1; reg = flag_reg; _ };
        Lang.Load { var = lv2; reg = data_reg; _ };
      ] )
    when data_var <> flag_var && lv1 = flag_var && lv2 = data_var ->
    let data_init = init_of t data_var and flag_init = init_of t flag_var in
    let shape = { data_var; flag_var; data_val; flag_val; producer; consumer } in
    if
      List.for_all fits_u32 [ data_val; flag_val; data_init; flag_init ]
      && flag_val <> flag_init && data_val <> data_init
      (* behavioural confirmation: stale-data-after-flag is the (only)
         interesting outcome among the four MP corners *)
      && probe t ~consumer ~flag_reg ~data_reg ~shape (flag_val, data_init)
      && (not (probe t ~consumer ~flag_reg ~data_reg ~shape (flag_val, data_val)))
      && (not (probe t ~consumer ~flag_reg ~data_reg ~shape (flag_init, data_init)))
      && not (probe t ~consumer ~flag_reg ~data_reg ~shape (flag_init, data_val))
    then Some shape
    else None
  | _ -> None

let detect (t : Lang.test) =
  match t.Lang.threads with
  | [ _; _ ] -> (
    match detect_pair t ~producer:0 ~consumer:1 with
    | Some s -> Some s
    | None -> detect_pair t ~producer:1 ~consumer:0)
  | _ -> None

let pick_word_var t =
  let used = Lang.vars t in
  let rec go base i =
    let v = if i = 0 then base else Printf.sprintf "%s%d" base i in
    if List.mem v used then go base (i + 1) else v
  in
  go word_var 0

let pack ~flag ~data = Int64.logor (Int64.shift_left flag 32) (Int64.logand data mask32)

let rewrite t =
  match detect t with
  | None -> None
  | Some s ->
    let w = pick_word_var t in
    let flag_init = init_of t s.flag_var and data_init = init_of t s.data_var in
    let reg = "r1" in
    let consumer_key = Printf.sprintf "%d:%s" s.consumer reg in
    let threads =
      List.mapi
        (fun i _ ->
          if i = s.producer then [ Lang.st w (pack ~flag:s.flag_val ~data:s.data_val) ]
          else [ Lang.ld w reg ])
        t.Lang.threads
    in
    let flag_val = s.flag_val and data_val = s.data_val in
    let rewritten =
      {
        Lang.name = t.Lang.name ^ "+pilot";
        description =
          Printf.sprintf
            "Pilot rewrite of %s: %s and %s packed into one aligned 64-bit word %s; \
             single-copy atomicity publishes both together, no barrier needed."
            t.Lang.name s.data_var s.flag_var w;
        init = [ (w, pack ~flag:flag_init ~data:data_init) ];
        threads;
        interesting =
          (fun o ->
            let v = o consumer_key in
            Int64.shift_right_logical v 32 = flag_val
            && Int64.logand v mask32 <> data_val);
        expect_tso = false;
        expect_wmm = false;
      }
    in
    Some (s, rewritten)
