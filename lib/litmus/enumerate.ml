type model = Wmm | Tso

type outcome = (string * int64) list

let outcome_to_string o =
  String.concat " " (List.map (fun (r, v) -> r ^ "=" ^ Int64.to_string v) o)

type cls = C_load | C_store

(* Does fence [f] order an earlier access of class [a] before a later
   one of class [b]?  The same under both models: on TSO, weaker ARM
   fences are treated at full strength when "run" on TSO, which is
   conservative but irrelevant for the catalogue (TSO rows use the plain
   programs). *)
let fence_orders f a b =
  match f with
  | Lang.F_dmb_full | Lang.F_dsb -> true
  | Lang.F_dmb_st -> a = C_store && b = C_store
  (* ctrl+ISB has DMB ld's ordering force: every prior load performs
     before anything later; stores pass it freely. *)
  | Lang.F_dmb_ld | Lang.F_isb -> a = C_load

(* Must access [a] perform before the later access [b] of the same
   thread?  [fences] are the fences strictly between them. *)
let must_order model a b fences =
  let cls = function Lang.Load _ -> C_load | _ -> C_store in
  let ca = cls a and cb = cls b in
  (* TSO preserves all program order except store -> later load. *)
  (model = Tso && not (ca = C_store && cb = C_load))
  (* Coherence: same-address accesses stay in program order. *)
  || (match (a, b) with
     | (Lang.Load { var = va; _ } | Lang.Store { var = va; _ }),
       (Lang.Load { var = vb; _ } | Lang.Store { var = vb; _ }) ->
       va = vb
     | _ -> false)
  (* Dependencies: b consumes a register written by a. *)
  || (match Lang.writes_reg a with
     | Some r -> List.exists (String.equal r) (Lang.reads_regs b)
     | None -> false)
  (* Acquire: nothing later may perform before an acquire load. *)
  || (match a with Lang.Load { acquire = true; _ } -> true | _ -> false)
  (* Release: a released store performs after everything earlier. *)
  || (match b with Lang.Store { release = true; _ } -> true | _ -> false)
  || List.exists (fun f -> fence_orders f ca cb) fences

(* ---------- compiled form ---------- *)

(* The machine state is an int array of cells: one per shared variable,
   then one per register some load writes, then one constant cell per
   value.  Cells hold value indices, not values: every value a run can
   produce is an initial value, a stored constant or 0 (an unset
   register), so the test's values are interned once.  Performing an
   access copies one cell into another — a load copies its variable
   into its register, a store its register or constant cell into its
   variable. *)
type op = {
  thread : int;
  bit : int;  (* this access's bit in its thread's performed mask *)
  need : int;  (* accesses of the thread that must have performed *)
  dst : int;  (* cell written *)
  src : int;  (* cell read *)
}

type compiled = {
  model : model;
  ops : op array;  (* every access, by thread, in program order *)
  accept : (string -> int64) -> bool;  (* the test's [interesting] predicate *)
  init : int array;  (* initial cells *)
  varying : int;  (* cells a run can change: variables and registers *)
  values : int64 array;  (* value index -> value *)
  bindings : (string * int) list;  (* outcome names, sorted, and their cells *)
  mask_bytes : int array;  (* key bytes of each thread's performed mask *)
  width : int;  (* key bytes per varying cell *)
}

let rec bytes_for n = if n < 0x100 then 1 else 1 + bytes_for (n lsr 8)

let is_access = function Lang.Fence _ -> false | Lang.Load _ | Lang.Store _ -> true

(* Tests are small, so the compiler's maps are assoc lists searched with
   typed equality: no hashing and no polymorphic comparison per call. *)
let rec index_of v i = function
  | [] -> raise Not_found
  | w :: tl -> if String.equal v w then i else index_of v (i + 1) tl

let rec init_value v = function
  | [] -> 0L
  | (w, x) :: tl -> if String.equal v w then x else init_value v tl

(* (thread, register) -> (cell, bit of the first load that writes it) *)
let rec find_reg th r = function
  | [] -> None
  | (th', r', cell, bit) :: tl ->
    if Int.equal th th' && String.equal r r' then Some (cell, bit) else find_reg th r tl

let compile model (t : Lang.test) =
  let progs = Array.of_list (List.map Array.of_list t.threads) in
  let accesses =
    Array.mapi
      (fun th prog ->
        let n = Array.fold_left (fun n i -> if is_access i then n + 1 else n) 0 prog in
        if n > Sys.int_size then
          invalid_arg
            (Printf.sprintf
               "Enumerate: thread %d has %d memory operations; at most %d fit its \
                performed mask"
               th n Sys.int_size);
        n)
      progs
  in
  let vars = Lang.vars t in
  let nvars = List.length vars in
  (* value -> index, newest first; indices count up from 0 *)
  let interned = ref [] and nvalues = ref 0 in
  let intern x =
    match List.find_opt (fun (y, _) -> Int64.equal x y) !interned with
    | Some (_, i) -> i
    | None ->
      let i = !nvalues in
      interned := (x, i) :: !interned;
      incr nvalues;
      i
  in
  let zero = intern 0L in
  (* Each access's bit (fences get none), and per (thread, register)
     the register's cell and the bit of the first load that writes it. *)
  let regs = ref [] and nregs = ref 0 in
  let bits =
    Array.mapi
      (fun th prog ->
        let next = ref 0 in
        Array.map
          (fun instr ->
            if not (is_access instr) then 0
            else begin
              let bit = 1 lsl !next in
              incr next;
              (match instr with
              | Lang.Load { reg; _ } when Option.is_none (find_reg th reg !regs) ->
                regs := (th, reg, nvars + !nregs, bit) :: !regs;
                incr nregs
              | _ -> ());
              bit
            end)
          prog)
      progs
  in
  let regs = !regs and nregs = !nregs in
  let varying = nvars + nregs in
  let var_cell v = index_of v 0 vars in
  let reg_cell th r =
    match find_reg th r regs with
    | Some (cell, _) -> cell
    | None -> varying + zero (* never loaded: reads 0 *)
  in
  let ops = ref [] in
  Array.iteri
    (fun th prog ->
      Array.iteri
        (fun i b ->
          if is_access b then begin
            (* earlier accesses that must stay ordered before [b] *)
            let need = ref 0 and fences = ref [] in
            for j = i - 1 downto 0 do
              match prog.(j) with
              | Lang.Fence f -> fences := f :: !fences
              | a -> if must_order model a b !fences then need := !need lor bits.(th).(j)
            done;
            (* register operands: the first load in the whole thread
               that writes the register must have performed, even when
               it comes later in program order or is [b] itself (which
               then never performs) *)
            List.iter
              (fun r ->
                match find_reg th r regs with
                | Some (_, first) -> need := !need lor first
                | None -> ())
              (Lang.reads_regs b);
            let dst, src =
              match b with
              | Lang.Load { var; reg; _ } -> (reg_cell th reg, var_cell var)
              | Lang.Store { var; v = Lang.Const x; _ } -> (var_cell var, varying + intern x)
              | Lang.Store { var; v = Lang.Reg r; _ } -> (var_cell var, reg_cell th r)
              | Lang.Fence _ -> assert false
            in
            ops := { thread = th; bit = bits.(th).(i); need = !need; dst; src } :: !ops
          end)
        prog)
    progs;
  let init_mem = List.map (fun v -> intern (init_value v t.init)) vars in
  let nvalues = !nvalues in
  let values = Array.make nvalues 0L in
  List.iter (fun (x, i) -> values.(i) <- x) !interned;
  let bindings =
    List.map (fun v -> ("mem:" ^ v, var_cell v)) vars
    @ List.map (fun (th, r, cell, _) -> (string_of_int th ^ ":" ^ r, cell)) regs
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    model;
    ops = Array.of_list (List.rev !ops);
    accept = t.interesting;
    init =
      Array.concat
        [ Array.of_list init_mem; Array.make nregs zero; Array.init nvalues Fun.id ];
    varying;
    values;
    bindings;
    mask_bytes = Array.map (fun n -> (n + 7) / 8) accesses;
    width = bytes_for (nvalues - 1);
  }

(* ---------- exploration ---------- *)

module Visited = Hashtbl.Make (String)

(* Depth-first search over every interleaving of ready accesses, in
   place: perform, recurse, undo.  A state is visited once, keyed on its
   packed bytes (performed masks, then varying cells); [on_final] sees
   the cells of each final state exactly once, with [order.(i)] the op
   performed at step [i] on the way there.  A visit allocates only when
   its state is new: packing writes into one buffer, and the lookup reads
   that buffer before a copy of it is stored. *)
let explore c on_final =
  let cells = Array.copy c.init in
  let performed = Array.make (Array.length c.mask_bytes) 0 in
  let mask_bytes = c.mask_bytes and width = c.width and varying = c.varying in
  let key = Bytes.create (Array.fold_left ( + ) 0 mask_bytes + (varying * width)) in
  let pack () =
    let pos = ref 0 in
    for th = 0 to Array.length performed - 1 do
      let x = ref (Array.unsafe_get performed th) in
      for _ = 1 to Array.unsafe_get mask_bytes th do
        Bytes.unsafe_set key !pos (Char.unsafe_chr (!x land 0xff));
        x := !x lsr 8;
        incr pos
      done
    done;
    for i = 0 to varying - 1 do
      let x = ref (Array.unsafe_get cells i) in
      for _ = 1 to width do
        Bytes.unsafe_set key !pos (Char.unsafe_chr (!x land 0xff));
        x := !x lsr 8;
        incr pos
      done
    done
  in
  let seen = Visited.create 64 in
  let ops = c.ops in
  let nops = Array.length ops in
  let order = Array.make nops 0 in
  let rec visit count =
    pack ();
    if not (Visited.mem seen (Bytes.unsafe_to_string key)) then begin
      Visited.add seen (Bytes.to_string key) ();
      if count = nops then on_final cells order
      else
        for g = 0 to nops - 1 do
          let op = ops.(g) in
          let m = performed.(op.thread) in
          if m land op.bit = 0 && m land op.need = op.need then begin
            let old = cells.(op.dst) in
            performed.(op.thread) <- m lor op.bit;
            cells.(op.dst) <- cells.(op.src);
            order.(count) <- g;
            visit (count + 1);
            cells.(op.dst) <- old;
            performed.(op.thread) <- m
          end
        done
    end
  in
  visit 0

(* Final state -> outcome: registers plus final memory (as "mem:<var>"
   bindings), so tests can constrain final state — needed for e.g.
   2+2W.  Every varying cell is bound, so distinct final states are
   distinct outcomes. *)
let outcome_names c = List.map fst c.bindings

let fold_finals c f init =
  let cells_of = Array.of_list (List.map snd c.bindings) in
  let vals = Array.make (Array.length cells_of) 0L in
  let acc = ref init in
  explore c (fun cells _ ->
      for i = 0 to Array.length cells_of - 1 do
        vals.(i) <- c.values.(cells.(cells_of.(i)))
      done;
      acc := f vals !acc);
  !acc

(* The value bound to outcome name [r] in the final state [cells]; an
   unbound name reads 0. *)
let lookup c cells r =
  let rec go = function
    | [] -> 0L
    | (name, cell) :: tl -> if String.equal name r then c.values.(cells.(cell)) else go tl
  in
  go c.bindings

(* [compare]'s order on outcomes, typed: binding by binding, name then
   value. *)
let compare_outcome =
  List.compare (fun (a, x) (b, y) ->
      let n = String.compare a b in
      if n <> 0 then n else Int64.compare x y)

let enumerate model t =
  let c = compile model t in
  let names = outcome_names c in
  fold_finals c (fun vals outs -> List.mapi (fun i name -> (name, vals.(i))) names :: outs) []
  |> List.sort_uniq compare_outcome

let needs c = Array.map (fun op -> op.need) c.ops

let needs_of base t =
  let c = compile base.model t in
  let same a b =
    a.thread = b.thread && a.bit = b.bit && a.dst = b.dst && a.src = b.src
  in
  if
    Array.length c.ops <> Array.length base.ops
    || (not (Array.for_all2 same c.ops base.ops))
    || Array.length c.init <> Array.length base.init
    || (not (Array.for_all2 Int.equal c.init base.init))
    || not
         (List.equal
            (fun (a, x) (b, y) -> String.equal a b && Int.equal x y)
            c.bindings base.bindings)
  then
    invalid_arg
      (Printf.sprintf
         "Enumerate.needs_of: %s does not keep the base test's accesses and cells"
         t.Lang.name);
  needs c

exception Accepted of int array

let first_accepted c =
  match
    explore c (fun cells order ->
        if c.accept (lookup c cells) then
          raise_notrace (Accepted (Array.copy order)))
  with
  | () -> None
  | exception Accepted order -> Some order

let witness c need =
  first_accepted { c with ops = Array.map2 (fun op need -> { op with need }) c.ops need }

(* The order is an execution under some masks, so each op is performed
   once and only the [need] checks can fail. *)
let replays c need order =
  let performed = Array.make (Array.length c.mask_bytes) 0 in
  let rec go i =
    i = Array.length order
    ||
    let g = order.(i) in
    let op = c.ops.(g) in
    let m = performed.(op.thread) in
    m land need.(g) = need.(g)
    && begin
      performed.(op.thread) <- m lor op.bit;
      go (i + 1)
    end
  in
  go 0

let allows model t = Option.is_some (first_accepted (compile model t))

let verify_expectations t =
  let wmm = allows Wmm t and tso = allows Tso t in
  let ok = wmm = t.expect_wmm && tso = t.expect_tso in
  ( ok,
    Printf.sprintf "wmm: allowed=%b (expected %b); tso: allowed=%b (expected %b)" wmm
      t.expect_wmm tso t.expect_tso )
