module Lang = Armb_litmus.Lang
module Enumerate = Armb_litmus.Enumerate

(* Canonical renaming: shared variables in order of first appearance
   scanning threads in program order (variables referenced only by the
   init section follow, ordered by initial value — such variables are
   interchangeable, so ties cannot change the serialization); registers
   per thread in order of first occurrence (uses before definitions
   included, since a use of a never-written register reads 0 and is
   still part of the program's shape).

   Tests are small, so the renaming maps are assoc lists searched with
   typed equality, and the text is written straight into one buffer,
   with no format strings and no polymorphic comparison. *)

(* A renaming: (surface name, canonical name) pairs, newest first. *)
type names = { mutable map : (string * string) list; mutable next : int; prefix : string }

let names prefix = { map = []; next = 0; prefix }

let rec find k = function
  | [] -> raise Not_found
  | (k', c) :: tl -> if String.equal k k' then c else find k tl

let seen m k = List.exists (fun (k', _) -> String.equal k k') m.map

let see m k =
  if not (seen m k) then begin
    m.map <- (k, m.prefix ^ string_of_int m.next) :: m.map;
    m.next <- m.next + 1
  end

(* every name is seen before it prints *)
let canonical m k = find k m.map

let rec init_value v = function
  | [] -> 0L
  | (w, x) :: tl -> if String.equal v w then x else init_value v tl

(* [string_of_int] and [Int64.to_string] without a format string. *)
let add_int b n =
  (* the digits of a non-positive int, so min_int needs no negation *)
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char b '-';
    digits n
  end
  else digits (-n)

let add_int64 b x =
  let n = Int64.to_int x in
  if Int64.equal (Int64.of_int n) x then add_int b n else Buffer.add_string b (Int64.to_string x)

let add_flag b c flag =
  Buffer.add_char b c;
  Buffer.add_char b (if flag then '1' else '0')

let add_dep b = function
  | Some r ->
    Buffer.add_string b " d";
    Buffer.add_string b r
  | None -> Buffer.add_string b " d-"

(* One instruction, with [var] and [reg] giving the names it prints. *)
let add_instr b ~var ~reg (instr : Lang.instr) =
  (match instr with
  | Lang.Load { var = v; reg = r; acquire; addr_dep } ->
    Buffer.add_string b "L ";
    Buffer.add_string b (var v);
    Buffer.add_char b ' ';
    Buffer.add_string b (reg r);
    Buffer.add_char b ' ';
    add_flag b 'a' acquire;
    add_dep b (Option.map reg addr_dep)
  | Lang.Store { var = v; v = value; release; addr_dep } ->
    Buffer.add_string b "S ";
    Buffer.add_string b (var v);
    Buffer.add_char b ' ';
    (match value with
    | Lang.Const k ->
      Buffer.add_char b 'c';
      add_int64 b k
    | Lang.Reg r -> Buffer.add_string b (reg r));
    Buffer.add_char b ' ';
    add_flag b 'l' release;
    add_dep b (Option.map reg addr_dep)
  | Lang.Fence f ->
    Buffer.add_string b "F ";
    Buffer.add_string b (Lang.fence_to_string f));
  Buffer.add_char b ';'

let add_expect b ~tso ~wmm =
  Buffer.add_string b "E tso=";
  Buffer.add_string b (string_of_bool tso);
  Buffer.add_string b " wmm=";
  Buffer.add_string b (string_of_bool wmm);
  Buffer.add_char b '\n'

let add_init b v x =
  Buffer.add_string b "I ";
  Buffer.add_string b v;
  Buffer.add_char b '=';
  add_int64 b x;
  Buffer.add_char b '\n'

let canonicalise (t : Lang.test) =
  let b = Buffer.create 512 in
  let vars = names "v" in
  let cvar = canonical vars in
  let regs = Array.init (List.length t.threads) (fun _ -> names "r") in
  (* threads: each instruction's names are seen (variable, then address
     dependency, then the register loaded or stored) before it prints *)
  List.iteri
    (fun i th ->
      let rm = regs.(i) in
      let creg = canonical rm in
      Buffer.add_char b 'T';
      add_int b i;
      Buffer.add_char b '|';
      List.iter
        (fun instr ->
          (match instr with
          | Lang.Load { var; reg; addr_dep; _ } ->
            see vars var;
            Option.iter (see rm) addr_dep;
            see rm reg
          | Lang.Store { var; v; addr_dep; _ } -> (
            see vars var;
            Option.iter (see rm) addr_dep;
            match v with Lang.Reg r -> see rm r | Lang.Const _ -> ())
          | Lang.Fence _ -> ());
          add_instr b ~var:cvar ~reg:creg instr)
        th;
      Buffer.add_char b '\n')
    t.threads;
  (* init-only variables, ordered by initial value *)
  List.filter (fun (v, _) -> not (seen vars v)) t.init
  |> List.stable_sort (fun (_, a) (_, b) -> Int64.compare a b)
  |> List.iter (fun (v, _) -> see vars v);
  (* init: every canonical variable with its (default-0) initial value,
     sorted by canonical name — binding order and explicit zeros are
     presentation *)
  List.map (fun (v, cv) -> (cv, init_value v t.init)) vars.map
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (cv, x) -> add_init b cv x);
  add_expect b ~tso:t.expect_tso ~wmm:t.expect_wmm;
  (* predicate fingerprint: the [interesting] closure cannot be hashed,
     but its extension over the reachable outcome set can — evaluate it
     on every WMM-reachable final state and serialize (renamed outcome,
     verdict) pairs.  Renamed tests fingerprint identically; different
     predicates over the same program cannot collide unless they agree
     everywhere reachable (in which case the computations coincide).
     The outcome names are renamed and put in canonical order once; each
     final state then prints as one line. *)
  let rename k =
    (* the enumerator's names: "mem:<var>" and "<thread>:<reg>" *)
    let colon = String.index k ':' in
    let pre = String.sub k 0 colon in
    let post = String.sub k (colon + 1) (String.length k - colon - 1) in
    if String.equal pre "mem" then "mem:" ^ cvar post
    else pre ^ ":" ^ canonical regs.(int_of_string pre) post
  in
  let c = Enumerate.compile Enumerate.Wmm t in
  let names = Array.of_list (Enumerate.outcome_names c) in
  let canon = Array.map rename names in
  let order = Array.init (Array.length names) Fun.id in
  Array.stable_sort (fun i j -> String.compare canon.(i) canon.(j)) order;
  let line = Buffer.create 64 in
  let lines =
    Enumerate.fold_finals c
      (fun vals lines ->
        let lookup r =
          let rec go i =
            if i = Array.length names then 0L
            else if String.equal names.(i) r then vals.(i)
            else go (i + 1)
          in
          go 0
        in
        Buffer.clear line;
        Buffer.add_string line "O ";
        for j = 0 to Array.length order - 1 do
          let i = order.(j) in
          if j > 0 then Buffer.add_char line ' ';
          Buffer.add_string line canon.(i);
          Buffer.add_char line '=';
          add_int64 line vals.(i)
        done;
        Buffer.add_string line " -> ";
        Buffer.add_string line (string_of_bool (t.interesting lookup));
        Buffer.contents line :: lines)
      []
  in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    (List.sort_uniq String.compare lines);
  Buffer.contents b

(* The catalogue's tests are constants, and most requests name one, so
   their text is computed once, when the module is initialised (a plain
   value, not [Lazy]: forcing one lazy value from two domains raises).
   A test is looked up by physical equality: an inline test that reuses
   a catalogue name with another body is a different value, and a
   structurally equal copy canonicalises to the same bytes anyway. *)
let catalogue = List.map (fun t -> (t, canonicalise t)) Armb_litmus.Catalogue.all

let rec cached t = function
  | (c, text) :: tl -> if c == t then text else cached t tl
  | [] -> canonicalise t

let canonical_test t = cached t catalogue

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
  List.iteri
    (fun i (th : Cfg.thread_cfg) ->
      Buffer.add_char b 'T';
      add_int b i;
      Buffer.add_string b " entry=";
      Buffer.add_string b th.Cfg.entry;
      Buffer.add_char b '\n';
      List.iter
        (fun (blk : Cfg.block) ->
          Buffer.add_string b "B ";
          Buffer.add_string b blk.Cfg.label;
          Buffer.add_char b '|';
          List.iter (add_instr b ~var:Fun.id ~reg:Fun.id) blk.Cfg.body;
          (match blk.Cfg.term with
          | Cfg.Goto l ->
            Buffer.add_string b "goto ";
            Buffer.add_string b l
          | Cfg.Branch { reg; if_nonzero; if_zero } ->
            Buffer.add_string b "br ";
            Buffer.add_string b reg;
            Buffer.add_char b ' ';
            Buffer.add_string b if_nonzero;
            Buffer.add_char b ' ';
            Buffer.add_string b if_zero
          | Cfg.Return -> Buffer.add_string b "ret");
          Buffer.add_char b '\n')
        th.Cfg.blocks)
    p.Cfg.threads;
  List.sort
    (fun (v, x) (w, y) ->
      let n = String.compare v w in
      if n <> 0 then n else Int64.compare x y)
    p.Cfg.init
  |> List.iter (fun (v, x) -> add_init b v x);
  add_expect b ~tso:p.Cfg.expect_tso ~wmm:p.Cfg.expect_wmm;
  Buffer.contents b

let digest s = Digest.to_hex (Digest.string s)
