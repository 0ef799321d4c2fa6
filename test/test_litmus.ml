(* Tests for the litmus layer: the exhaustive enumerator against known
   results and against the seed enumerator, the simulator runner, and
   the cross-check between them. *)

module Lang = Armb_litmus.Lang
module Enum = Armb_litmus.Enumerate
module Sim = Armb_litmus.Sim_runner
module Cat = Armb_litmus.Catalogue
module Rng = Armb_sim.Rng
module Placement = Armb_synth.Placement

let check = Alcotest.check

(* ---------- Reference: the seed enumerator, verbatim ---------- *)

(* The executable specification the compiled kernel must match: assoc
   list states, per-step fence and register scans, [Printf]-rendered
   visited keys.  Its performed masks are indexed by instruction
   position, so it is only trusted on threads of at most 63
   instructions. *)
module Ref = struct
  type model = Wmm | Tso

  type outcome = (string * int64) list

  let outcome_to_string o =
    String.concat " " (List.map (fun (r, v) -> Printf.sprintf "%s=%Ld" r v) o)

  type cls = C_load | C_store

  let cls_of = function
    | Lang.Load _ -> Some C_load
    | Lang.Store _ -> Some C_store
    | Lang.Fence _ -> None

  let fence_orders model f a b =
    match model with
    | Tso -> (
      (* On TSO any full fence restores store->load order; weaker ARM
         fences are treated at full strength when "run" on TSO, which is
         conservative but irrelevant for the catalogue (TSO rows use the
         plain programs). *)
      match f with
      | Lang.F_dmb_full | Lang.F_dsb -> true
      | Lang.F_dmb_st -> a = C_store && b = C_store
      | Lang.F_dmb_ld | Lang.F_isb -> a = C_load)
    | Wmm -> (
      match f with
      | Lang.F_dmb_full | Lang.F_dsb -> true
      | Lang.F_dmb_st -> a = C_store && b = C_store
      (* ctrl+ISB has DMB ld's ordering force: every prior load performs
         before anything later; stores pass it freely. *)
      | Lang.F_dmb_ld | Lang.F_isb -> a = C_load)

  (* Must instruction [j] perform before instruction [i] (j < i in
     program order)?  [prog] is the thread's instruction array. *)
  let must_order model prog j i =
    let a = prog.(j) and b = prog.(i) in
    match (cls_of a, cls_of b) with
    | None, _ | _, None -> false (* fences are order constraints, not events *)
    | Some ca, Some cb -> (
      let base =
        (* Coherence: same-address accesses stay in program order. *)
        (match (a, b) with
        | Lang.Load { var = va; _ }, Lang.Load { var = vb; _ }
        | Lang.Load { var = va; _ }, Lang.Store { var = vb; _ }
        | Lang.Store { var = va; _ }, Lang.Load { var = vb; _ }
        | Lang.Store { var = va; _ }, Lang.Store { var = vb; _ } ->
          va = vb
        | _ -> false)
        (* Dependencies: b consumes a register written by a. *)
        || (match Lang.writes_reg a with
           | Some r -> List.mem r (Lang.reads_regs b)
           | None -> false)
        (* Acquire: nothing later may perform before an acquire load. *)
        || (match a with Lang.Load { acquire = true; _ } -> true | _ -> false)
        (* Release: a released store performs after everything earlier. *)
        || (match b with Lang.Store { release = true; _ } -> true | _ -> false)
        (* Fences strictly between the two. *)
        || (let rec scan k =
              if k >= i then false
              else
                match prog.(k) with
                | Lang.Fence f when fence_orders model f ca cb -> true
                | _ -> scan (k + 1)
            in
            scan (j + 1))
      in
      match model with
      | Wmm -> base
      | Tso ->
        (* TSO preserves all program order except store -> later load. *)
        base || not (ca = C_store && cb = C_load))

  type state = {
    performed : int array; (* bitmask per thread *)
    mem : (string * int64) list; (* sorted assoc *)
    regs : (string * int64) list; (* sorted assoc *)
  }

  let key s =
    String.concat "|"
      (Array.to_list (Array.map string_of_int s.performed))
    ^ "#"
    ^ outcome_to_string s.mem
    ^ "#"
    ^ outcome_to_string s.regs

  let assoc_set k v l =
    let rec go = function
      | [] -> [ (k, v) ]
      | (k', _) :: rest when k' = k -> (k, v) :: rest
      | kv :: rest -> kv :: go rest
    in
    List.sort compare (go l)

  let assoc_get k l = match List.assoc_opt k l with Some v -> v | None -> 0L

  let enumerate model (t : Lang.test) =
    let progs = List.map Array.of_list t.threads in
    let progs = Array.of_list progs in
    let nthreads = Array.length progs in
    let init_mem =
      List.sort compare (List.map (fun v -> (v, assoc_get v t.init)) (Lang.vars t))
    in
    let seen = Hashtbl.create 1024 in
    let outcomes = Hashtbl.create 64 in
    let reg_name th r = Printf.sprintf "%d:%s" th r in
    (* Registers produced by loads of thread th that are performed. *)
    let reg_resolved st th r =
      let prog = progs.(th) in
      let rec find i =
        if i >= Array.length prog then true (* not produced by a load: treat as resolved *)
        else
          match prog.(i) with
          | Lang.Load { reg; _ } when reg = r -> st.performed.(th) land (1 lsl i) <> 0
          | _ -> find (i + 1)
      in
      find 0
    in
    let ready st th i =
      let prog = progs.(th) in
      (match cls_of prog.(i) with None -> false | Some _ -> true)
      && st.performed.(th) land (1 lsl i) = 0
      && (* register operands resolved *)
      List.for_all (fun r -> reg_resolved st th r) (Lang.reads_regs prog.(i))
      && (* every earlier instruction that must stay ordered has performed *)
      (let rec chk j =
         j >= i
         ||
         match cls_of prog.(j) with
         | None -> chk (j + 1)
         | Some _ ->
           (st.performed.(th) land (1 lsl j) <> 0 || not (must_order model prog j i))
           && chk (j + 1)
       in
       chk 0)
    in
    let perform st th i =
      let prog = progs.(th) in
      let performed = Array.copy st.performed in
      performed.(th) <- performed.(th) lor (1 lsl i);
      match prog.(i) with
      | Lang.Load { var; reg; _ } ->
        let v = assoc_get var st.mem in
        { performed; mem = st.mem; regs = assoc_set (reg_name th reg) v st.regs }
      | Lang.Store { var; v; _ } ->
        let value =
          match v with Lang.Const c -> c | Lang.Reg r -> assoc_get (reg_name th r) st.regs
        in
        { performed; mem = assoc_set var value st.mem; regs = st.regs }
      | Lang.Fence _ -> assert false
    in
    let total_ops th =
      Array.fold_left
        (fun acc i -> match cls_of i with Some _ -> acc + 1 | None -> acc)
        0 progs.(th)
    in
    let done_ st =
      let ok = ref true in
      for th = 0 to nthreads - 1 do
        let cnt = ref 0 in
        Array.iteri
          (fun i instr ->
            match cls_of instr with
            | Some _ -> if st.performed.(th) land (1 lsl i) <> 0 then incr cnt
            | None -> ())
          progs.(th);
        if !cnt <> total_ops th then ok := false
      done;
      !ok
    in
    let final_outcome st =
      (* registers plus final memory (as "mem:<var>" bindings), so tests
         can constrain final state — needed for e.g. 2+2W. *)
      List.sort compare (st.regs @ List.map (fun (v, x) -> ("mem:" ^ v, x)) st.mem)
    in
    let rec dfs st =
      let k = key st in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        if done_ st then Hashtbl.replace outcomes (final_outcome st) ()
        else
          for th = 0 to nthreads - 1 do
            Array.iteri
              (fun i _ -> if ready st th i then dfs (perform st th i))
              progs.(th)
          done
      end
    in
    dfs { performed = Array.make nthreads 0; mem = init_mem; regs = [] };
    List.sort compare (Hashtbl.fold (fun o () acc -> o :: acc) outcomes [])

  let allows model t =
    let outs = enumerate model t in
    List.exists (fun o -> t.interesting (fun r -> assoc_get r o)) outs

  let verify_expectations t =
    let wmm = allows Wmm t and tso = allows Tso t in
    let ok = wmm = t.expect_wmm && tso = t.expect_tso in
    ( ok,
      Printf.sprintf "wmm: allowed=%b (expected %b); tso: allowed=%b (expected %b)" wmm
        t.expect_wmm tso t.expect_tso )
end

(* ---------- Reference: the fresh-machine trial runner, verbatim ---------- *)

(* The executable specification of [Sim_runner.run]: every trial builds
   a fresh machine and recompiles each thread into a closure over
   string-keyed token and register tables, and the outcome histogram is
   keyed on the sorted binding list.  The compiled, reset-machine runner
   must return exactly what this one returns. *)
module Fresh = struct
  module Core = Armb_cpu.Core
  module Machine = Armb_cpu.Machine
  module Memsys = Armb_mem.Memsys
  module Rng = Armb_sim.Rng
  module San = Armb_check.Sanitizer
  module Enumerate = Enum

  type result = Sim.result = {
    outcomes : (string * int) list;
    interesting_witnessed : bool;
    trials : int;
    findings : San.finding list;
    events : int;
    cycles : int;
    fault_digest : int64;
    fault_delay : int;
  }

  (* Compile one litmus thread to a simulator program.  Loads are issued
     eagerly and awaited lazily (at first use of the register, or at the
     end), which exposes load-load reordering to the timing model. *)
  let compile_thread (th : Lang.thread) ~addr_of ~start_pause ~padding ~record (c : Core.t) =
    Core.pause c start_pause;
    let toks : (string, Core.token) Hashtbl.t = Hashtbl.create 8 in
    let reg_value r =
      match Hashtbl.find_opt toks r with
      | Some tok -> Core.await c tok
      | None -> 0L
    in
    (* Syntactic dependencies also flow to the instrumentation hook, so
       the sanitizer sees the same preserved order the hardware would. *)
    let dep_tok r = match Hashtbl.find_opt toks r with Some t -> [ t ] | None -> [] in
    List.iteri
      (fun idx instr ->
        if idx > 0 && padding > 0 then Core.compute c padding;
        match instr with
        | Lang.Load { var; reg; acquire; addr_dep } ->
          let deps, addr =
            match addr_dep with
            | Some r ->
              let v = reg_value r in
              Core.compute c 1;
              (dep_tok r, addr_of var + Int64.to_int (Int64.logxor v v))
            | None -> ([], addr_of var)
          in
          let tok = if acquire then Core.ldar c ~deps addr else Core.load c ~deps addr in
          Hashtbl.replace toks reg tok
        | Lang.Store { var; v; release; addr_dep } ->
          let deps_a, addr =
            match addr_dep with
            | Some r ->
              let dep = reg_value r in
              Core.compute c 1;
              (dep_tok r, addr_of var + Int64.to_int (Int64.logxor dep dep))
            | None -> ([], addr_of var)
          in
          let deps_v, value =
            match v with
            | Lang.Const k -> ([], k)
            | Lang.Reg r -> (dep_tok r, reg_value r)
          in
          let deps = deps_a @ deps_v in
          if release then Core.stlr c ~deps addr value else Core.store c ~deps addr value
        | Lang.Fence f ->
          let b =
            match f with
            | Lang.F_dmb_full -> Armb_cpu.Barrier.Dmb Full
            | Lang.F_dmb_st -> Armb_cpu.Barrier.Dmb St
            | Lang.F_dmb_ld -> Armb_cpu.Barrier.Dmb Ld
            | Lang.F_dsb -> Armb_cpu.Barrier.Dsb Full
            (* ctrl+ISB: the pipeline flush refetches only after every
               prior instruction retires, so earlier loads' sample times
               gate everything later — the ordering the branch+ISB idiom
               provides on hardware. *)
            | Lang.F_isb -> Armb_cpu.Barrier.Isb
          in
          Core.barrier c b)
      th;
    (* Resolve every register at the end of the thread. *)
    Hashtbl.iter (fun r tok -> record r (Core.await c tok)) toks

  let run ?(cfg = Armb_platform.Platform.kunpeng916) ?(trials = 200) ?(seed = 42)
      ?(check = false) ?fault (t : Lang.test) =
    let rng = Rng.create seed in
    let nthreads = List.length t.threads in
    let ncores = Armb_mem.Topology.num_cores cfg.topo in
    if nthreads > ncores then invalid_arg "Sim_runner.run: more threads than cores";
    (* Per-trial bookkeeping is hot (a short litmus trial simulates only a
       handful of events): hoist everything that is identical across
       trials — the variable list, the "<thread>:<reg>" / "mem:<var>" name
       strings — and defer outcome rendering to the end by keying the
       outcome histogram on the sorted binding list itself. *)
    let vars = Lang.vars t in
    let mem_names = List.map (fun v -> (v, "mem:" ^ v)) vars in
    let name_memos = Array.init (max 1 nthreads) (fun _ -> Hashtbl.create 8) in
    let reg_name i r =
      let memo = name_memos.(i) in
      match Hashtbl.find_opt memo r with
      | Some s -> s
      | None ->
        let s = Printf.sprintf "%d:%s" i r in
        Hashtbl.add memo r s;
        s
    in
    let outcomes : ((string * int64) list, int) Hashtbl.t = Hashtbl.create 16 in
    let witnessed = ref false in
    let events = ref 0 in
    (* Sanitizer findings are value-agnostic, so every trial reports the
       same racy pairs; trials differ only in whether the reordering was
       witnessed.  Dedup by signature, keeping a witnessed copy if any. *)
    let merged : (string, San.finding) Hashtbl.t = Hashtbl.create 8 in
    let fault_digest = ref 0L in
    let fault_delay = ref 0 in
    let cycles = ref 0 in
    for trial = 1 to trials do
      let san = if check then Some (San.create ()) else None in
      let observer = Option.map San.observer san in
      (* Re-seed the plan per trial so a sweep explores [trials] distinct
         fault schedules, while staying a pure function of (plan, trial). *)
      let fault =
        Option.map
          (fun (sp : Armb_fault.Plan.spec) -> Armb_fault.Plan.with_seed sp (sp.seed + trial))
          fault
      in
      let m = Machine.create ?observer ?fault cfg in
      let mem = Machine.mem m in
      let addrs = List.map (fun v -> (v, Machine.alloc_line m)) vars in
      let addr_of v = List.assoc v addrs in
      (* Initial values + randomized initial line placement: pre-touch
         each variable's line from a random core so that some stores hit
         while others miss — the timing asymmetry that makes reorderings
         observable. *)
      (* Spread threads over distant cores when possible. *)
      let core_of i = if nthreads <= 1 then 0 else i * (ncores / nthreads) in
      List.iter
        (fun (v, a) ->
          Memsys.commit_store mem ~addr:a (match List.assoc_opt v t.init with Some x -> x | None -> 0L);
          (* Give each line to one of the participating cores (or leave it
             uncached) so that some accesses hit while others miss — the
             timing asymmetry that exposes reorderings. *)
          let pick = Rng.int rng (nthreads + 1) in
          if pick < nthreads then Memsys.place mem ~core:(core_of pick) ~addr:a)
        addrs;
      let regs : (string, int64) Hashtbl.t = Hashtbl.create 8 in
      List.iteri
        (fun i th ->
          let start_pause = Rng.int rng 40 in
          let padding = Rng.int rng 4 in
          let record r v = Hashtbl.replace regs (reg_name i r) v in
          Machine.spawn m ~core:(core_of i)
            (compile_thread th ~addr_of ~start_pause ~padding ~record))
        t.threads;
      Machine.run_exn m;
      events := !events + Armb_sim.Event_queue.processed (Machine.queue m);
      cycles := !cycles + Machine.elapsed m;
      (match Machine.injector m with
      | None -> ()
      | Some i ->
        fault_digest := Armb_fault.Injector.combine !fault_digest (Armb_fault.Injector.digest i);
        fault_delay := !fault_delay + (Armb_fault.Injector.counters i).delay_cycles);
      (* final memory joins the outcome as "mem:<var>" bindings *)
      List.iter2
        (fun (_, a) (_, mname) -> Hashtbl.replace regs mname (Memsys.load_value mem ~addr:a))
        addrs mem_names;
      let lookup r = match Hashtbl.find_opt regs r with Some v -> v | None -> 0L in
      let key =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) regs [])
      in
      Hashtbl.replace outcomes key
        (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes key));
      if t.interesting lookup then witnessed := true;
      match san with
      | None -> ()
      | Some s ->
        List.iter
          (fun (f : San.finding) ->
            let key = San.signature f in
            match Hashtbl.find_opt merged key with
            | Some g when g.witnessed || not f.witnessed -> ()
            | _ -> Hashtbl.replace merged key f)
          (San.findings s)
    done;
    let findings =
      Hashtbl.fold (fun _ f acc -> f :: acc) merged []
      |> List.sort (fun (f : San.finding) (g : San.finding) ->
             compare
               (f.core, f.first.op_seq, f.second.op_seq)
               (g.core, g.first.op_seq, g.second.op_seq))
    in
    {
      outcomes =
        List.sort compare
          (Hashtbl.fold
             (fun k v acc -> (Enumerate.outcome_to_string k, v) :: acc)
             outcomes []);
      interesting_witnessed = !witnessed;
      trials;
      findings;
      events = !events;
      cycles = !cycles;
      fault_digest = !fault_digest;
      fault_delay = !fault_delay;
    }
end

(* ---------- language ---------- *)

let test_vars_collects () =
  check (Alcotest.list Alcotest.string) "vars" [ "data"; "flag" ] (Lang.vars Cat.mp)

let test_regs_of_thread () =
  match Cat.mp.Lang.threads with
  | [ _; consumer ] ->
    check (Alcotest.list Alcotest.string) "consumer regs" [ "r1"; "r2" ]
      (Lang.regs_of_thread consumer)
  | _ -> Alcotest.fail "unexpected thread count"

let test_reads_regs () =
  let i = Lang.st_reg "y" "r1" in
  check (Alcotest.list Alcotest.string) "data dep" [ "r1" ] (Lang.reads_regs i);
  let j = Lang.ld ~addr_dep:"r0" "x" "r2" in
  check (Alcotest.list Alcotest.string) "addr dep" [ "r0" ] (Lang.reads_regs j)

(* ---------- enumerator vs textbook results ---------- *)

(* MP with [n] full fences ahead of the producer's stores: they order
   nothing, so the weak outcome stays reachable.  From 62 fences on the
   flag store sits at instruction position 63 or later, past what a
   position-indexed int mask can hold. *)
let padded_mp n =
  match Cat.mp.Lang.threads with
  | [ producer; consumer ] ->
    {
      Cat.mp with
      Lang.name = Printf.sprintf "MP+%ddmb" n;
      threads = [ List.init n (fun _ -> Lang.fence Lang.F_dmb_full) @ producer; consumer ];
    }
  | _ -> assert false

let padded = List.map padded_mp [ 61; 62; 70 ]

let test_catalogue_expectations () =
  List.iter
    (fun (t : Lang.test) ->
      let ok, detail = Enum.verify_expectations t in
      if not ok then Alcotest.failf "%s: %s" t.Lang.name detail)
    (Cat.all @ padded)

(* Every catalogue name resolves to its own test in either case. *)
let test_catalogue_find () =
  List.iter
    (fun (t : Lang.test) ->
      List.iter
        (fun name ->
          match Cat.find name with
          | Some t' when t' == t -> ()
          | _ -> Alcotest.failf "%s: not found as %S" t.Lang.name name)
        [ String.uppercase_ascii t.Lang.name; String.lowercase_ascii t.Lang.name ])
    Cat.all;
  check Alcotest.bool "unknown name" true (Option.is_none (Cat.find "NOPE"))

let test_sc_outcomes_present () =
  (* every model must at least allow the sequential outcome of MP *)
  let outs = Enum.enumerate Enum.Tso Cat.mp in
  check Alcotest.bool "TSO allows flag+data" true
    (List.exists
       (fun o ->
         List.assoc_opt "1:r1" o = Some 1L && List.assoc_opt "1:r2" o = Some 23L)
       outs)

let test_wmm_superset_of_tso () =
  (* anything TSO allows, the weaker model allows too *)
  List.iter
    (fun (t : Lang.test) ->
      let tso = Enum.enumerate Enum.Tso t in
      let wmm = Enum.enumerate Enum.Wmm t in
      List.iter
        (fun o ->
          if not (List.mem o wmm) then
            Alcotest.failf "%s: TSO outcome %s missing under WMM" t.Lang.name
              (Enum.outcome_to_string o))
        tso)
    Cat.all

let test_fences_monotone () =
  (* adding fences can only shrink the outcome set *)
  let plain = Enum.enumerate Enum.Wmm Cat.mp in
  let fenced = Enum.enumerate Enum.Wmm Cat.mp_dmb in
  check Alcotest.bool "fenced subset of plain" true
    (List.for_all (fun o -> List.mem o plain) fenced);
  check Alcotest.bool "strictly smaller here" true
    (List.length fenced < List.length plain);
  (* fences ahead of every access order nothing *)
  List.iter
    (fun (t : Lang.test) ->
      List.iter
        (fun model ->
          if Enum.enumerate model t <> Enum.enumerate model Cat.mp then
            Alcotest.failf "%s: outcome set differs from plain MP's" t.Lang.name)
        [ Enum.Wmm; Enum.Tso ])
    padded

let test_coherence_always () =
  (* CoRR is forbidden even under the weak model *)
  check Alcotest.bool "CoRR forbidden" false (Enum.allows Enum.Wmm Cat.coherence)

(* One thread of [n] stores to one variable, each fenced from the next. *)
let long_thread n =
  {
    Cat.mp with
    Lang.name = Printf.sprintf "%d-stores" n;
    init = [];
    threads =
      [
        List.concat
          (List.init n (fun i ->
               [ Lang.st "x" (Int64.of_int (i + 1)); Lang.fence Lang.F_dmb_full ]));
      ];
    interesting = (fun _ -> false);
  }

let test_access_limit () =
  check
    (Alcotest.list Alcotest.string)
    "63 accesses and 63 fences" [ "mem:x=63" ]
    (List.map Enum.outcome_to_string (Enum.enumerate Enum.Wmm (long_thread 63)));
  List.iter
    (fun model ->
      match Enum.enumerate model (long_thread 64) with
      | _ -> Alcotest.fail "a thread of 64 accesses must be rejected"
      | exception Invalid_argument msg ->
        check Alcotest.string "names the thread and its count"
          "Enumerate: thread 0 has 64 memory operations; at most 63 fit its performed mask"
          msg)
    [ Enum.Wmm; Enum.Tso ]

(* ---------- differential: compiled kernel vs the seed ---------- *)

let same_as_ref (t : Lang.test) =
  List.for_all
    (fun (model, ref_model) ->
      let want : Ref.outcome list = Ref.enumerate ref_model t in
      Enum.enumerate model t = want && Enum.allows model t = Ref.allows ref_model t)
    [ (Enum.Wmm, Ref.Wmm); (Enum.Tso, Ref.Tso) ]
  && Enum.verify_expectations t = Ref.verify_expectations t

let check_same_as_ref what (t : Lang.test) =
  if not (same_as_ref t) then
    Alcotest.failf "%s %s: enumerator disagrees with the seed" what t.Lang.name

(* MP with [data] initially 5 beside [k] init-only variables of distinct
   values that sort before it: more than 256 values, so cells take two
   key bytes.  Values are interned as 0, the stored constants, then the
   initial values in variable order, so around k = 254 [data]'s initial
   value and the 23 stored over it get indices 256 apart, and a key that
   kept one byte per cell would merge their states. *)
let wide_mp k =
  {
    Cat.mp with
    Lang.name = Printf.sprintf "MP+%dvars" k;
    init =
      ("data", 5L) :: ("flag", 0L)
      :: List.init k (fun i -> (Printf.sprintf "a%03d" i, Int64.of_int (100 + i)));
  }

let test_diff_catalogue () =
  List.iter (check_same_as_ref "catalogue")
    (List.init 9 (fun i -> wide_mp (250 + i)) @ Cat.all);
  List.iter (check_same_as_ref "cfg slice") (Cat.cfg_slices ~unroll:2 ())

(* The fix oracle's inputs: every one-edit repair candidate of every
   order-stripped catalogue test, and every two-edit set that spans two
   threads (one edit per side is what orders LB-style shapes). *)
let test_diff_fix_oracle_inputs () =
  List.iter
    (fun t ->
      let stripped = Armb_litmus.Mutate.strip_order ~keep_values:true t in
      let cands = Placement.candidates stripped in
      List.iteri
        (fun i a ->
          check_same_as_ref "one-edit candidate" (Placement.apply stripped [ a ]);
          List.iteri
            (fun j b ->
              if j > i && Placement.thread_of a <> Placement.thread_of b then
                check_same_as_ref "two-edit candidate" (Placement.apply stripped [ a; b ]))
            cands)
        cands)
    Cat.all

(* A predicate over a few bindings of one outcome the seed reaches, so
   [allows] differs between the models on some inputs. *)
let with_predicate rng (t : Lang.test) =
  match Ref.enumerate Ref.Wmm t with
  | [] -> t
  | outs ->
    let o = List.nth outs (Rng.int rng (List.length outs)) in
    let picked = List.filter (fun _ -> Rng.int rng 2 = 0) o in
    { t with Lang.interesting = (fun get -> List.for_all (fun (r, v) -> get r = v) picked) }

(* Tests outside [Fuzz.generate]'s tidy shapes: two registers per
   thread reused freely, so registers are read before (or only after)
   their first load, loads depend on themselves, and several loads
   write one register. *)
let raw_test rng =
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let var () = pick [ "x"; "y" ] and reg () = pick [ "r0"; "r1" ] in
  let dep () = if Rng.int rng 3 = 0 then Some (reg ()) else None in
  let instr () =
    match Rng.int rng 7 with
    | 0 | 1 | 2 ->
      Lang.Load { var = var (); reg = reg (); acquire = Rng.int rng 4 = 0; addr_dep = dep () }
    | 3 | 4 | 5 ->
      let v =
        if Rng.int rng 3 = 0 then Lang.Reg (reg ())
        else Lang.Const (Int64.of_int (1 + Rng.int rng 2))
      in
      Lang.Store { var = var (); v; release = Rng.int rng 4 = 0; addr_dep = dep () }
    | _ -> Lang.fence (pick Lang.[ F_dmb_full; F_dmb_st; F_dmb_ld; F_dsb; F_isb ])
  in
  {
    Cat.mp with
    Lang.name = "raw";
    init = (if Rng.int rng 2 = 0 then [ ("x", 2L) ] else []);
    threads =
      List.init (2 + Rng.int rng 2) (fun _ ->
          List.init (1 + Rng.int rng 5) (fun _ -> instr ()));
  }

(* The names the codec accepts in a predicate are exactly those the
   enumerator binds, on the catalogue and on odd register shapes
   (registers loaded twice or never, init-only variables). *)
let test_outcome_names () =
  let same (t : Lang.test) =
    check
      Alcotest.(list string)
      (t.Lang.name ^ " outcome names")
      (Enum.outcome_names (Enum.compile Enum.Wmm t))
      (Lang.outcome_names t)
  in
  List.iter same Cat.all;
  let rng = Rng.create 41 in
  for _ = 1 to 200 do
    same (raw_test rng)
  done

let prop_matches_ref name gen =
  QCheck.Test.make ~name ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      same_as_ref (with_predicate rng (gen rng)))

let prop_fuzz_matches_ref =
  prop_matches_ref "random fuzz tests match the seed"
    (Armb_litmus.Fuzz.generate ~with_isb:true)

let prop_raw_matches_ref = prop_matches_ref "odd register shapes match the seed" raw_test

(* ---------- differential: compiled trial loop vs fresh machines ---------- *)

let finding_keys (r : Sim.result) =
  List.map (fun (f : Armb_check.Sanitizer.finding) -> (Armb_check.Sanitizer.signature f, f.witnessed))
    r.Sim.findings

(* Every field of the result, findings by signature and witness. *)
let same_result (a : Sim.result) (b : Sim.result) =
  a.Sim.outcomes = b.Sim.outcomes
  && a.Sim.interesting_witnessed = b.Sim.interesting_witnessed
  && a.Sim.trials = b.Sim.trials
  && finding_keys a = finding_keys b
  && a.Sim.events = b.Sim.events
  && a.Sim.cycles = b.Sim.cycles
  && Int64.equal a.Sim.fault_digest b.Sim.fault_digest
  && a.Sim.fault_delay = b.Sim.fault_delay

let check_same_run what ?cfg ~trials ?seed ?check ?fault (t : Lang.test) =
  let got = Sim.run ?cfg ~trials ?seed ?check ?fault t in
  let want = Fresh.run ?cfg ~trials ?seed ?check ?fault t in
  if not (same_result got want) then
    Alcotest.failf "%s %s: runner disagrees with fresh machines\n got: %s\nwant: %s" what
      t.Lang.name
      (Format.asprintf "%a" Sim.pp_result got)
      (Format.asprintf "%a" Sim.pp_result want)

let plan intensity = Armb_fault.Plan.of_intensity ~seed:11 intensity

let test_fresh_catalogue () =
  List.iter
    (fun (cfg : Armb_cpu.Config.t) ->
      List.iter
        (fun t ->
          check_same_run ("plain on " ^ cfg.name) ~cfg ~trials:40 t;
          check_same_run ("check on " ^ cfg.name) ~cfg ~trials:12 ~seed:5 ~check:true t;
          List.iter
            (fun i ->
              check_same_run (Printf.sprintf "fault %.1f on %s" i cfg.name) ~cfg ~trials:12
                ~fault:(plan i) t)
            [ 0.3; 1.0 ])
        Cat.all)
    Armb_platform.Platform.all

let test_fresh_cfg_slices () =
  List.iter
    (fun t ->
      check_same_run "slice" ~trials:40 t;
      check_same_run "checked slice" ~trials:12 ~check:true t)
    (Cat.cfg_slices ~unroll:2 ())

let prop_fresh_fuzz =
  QCheck.Test.make ~name:"fuzz tests match" ~count:200
    QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let t = Armb_litmus.Fuzz.generate ~with_isb:true rng in
      let cfg = List.nth Armb_platform.Platform.all (Rng.int rng 4) in
      let trials = 1 + Rng.int rng 30 and seed = Rng.int rng 1_000_000 in
      let check = Rng.int rng 3 = 0 in
      let fault = if Rng.int rng 3 = 0 then Some (plan 1.0) else None in
      same_result
        (Sim.run ~cfg ~trials ~seed ~check ?fault t)
        (Fresh.run ~cfg ~trials ~seed ~check ?fault t))

(* ---------- simulator runner ---------- *)

(* Observing a run changes nothing: a trace observer sees every trial
   and the results stay equal. *)
let test_sim_observer_neutral () =
  List.iter
    (fun (cfg : Armb_cpu.Config.t) ->
      List.iter
        (fun (t : Lang.test) ->
          let tr = Armb_cpu.Trace.create () in
          let plain = Sim.run ~cfg ~trials:20 ~seed:3 t in
          let traced = Sim.run ~cfg ~trials:20 ~seed:3 ~observer:(Armb_cpu.Trace.observer tr) t in
          if Armb_cpu.Trace.spans tr = [] then
            Alcotest.failf "%s on %s: observer saw nothing" t.Lang.name cfg.name;
          if not (same_result plain traced) then
            Alcotest.failf "%s on %s: observing changed the result\n got: %s\nwant: %s"
              t.Lang.name cfg.name
              (Format.asprintf "%a" Sim.pp_result traced)
              (Format.asprintf "%a" Sim.pp_result plain))
        Cat.all)
    Armb_platform.Platform.all

let test_sim_check_excludes_observer () =
  match Sim.run ~trials:1 ~check:true ~observer:ignore Cat.mp with
  | _ -> Alcotest.fail "~check:true with ~observer accepted"
  | exception Invalid_argument _ -> ()

(* One thread per core: a fifth thread on raspberrypi4's four cores is
   refused, with both counts and the platform in the message. *)
let test_sim_threads_fit_cores () =
  let five =
    { Cat.mp with Lang.threads = Cat.mp.Lang.threads @ List.init 3 (fun _ -> [ Lang.ld "data" "r1" ]) }
  in
  match Sim.run ~trials:1 ~cfg:Armb_platform.Platform.raspberrypi4 five with
  | _ -> Alcotest.fail "five threads ran on four cores"
  | exception Invalid_argument m ->
    check Alcotest.string "message" "Sim_runner.simulate: 5 threads but raspberrypi4 has 4 cores" m

let test_sim_witnesses_mp () =
  let r = Sim.run ~trials:300 Cat.mp in
  check Alcotest.bool "MP weak outcome witnessed" true r.Sim.interesting_witnessed

let test_sim_never_forbidden () =
  List.iter
    (fun (t : Lang.test) ->
      if not t.Lang.expect_wmm then begin
        let r = Sim.run ~trials:200 t in
        if r.Sim.interesting_witnessed then
          Alcotest.failf "%s: simulator witnessed a WMM-forbidden outcome" t.Lang.name
      end)
    Cat.all

let test_sim_outcomes_within_enumerated () =
  (* soundness cross-check: every simulated outcome must be allowed by
     the operational model *)
  List.iter
    (fun (t : Lang.test) ->
      let allowed =
        List.map Enum.outcome_to_string (Enum.enumerate Enum.Wmm t)
      in
      let r = Sim.run ~trials:150 t in
      List.iter
        (fun (o, _) ->
          if not (List.mem o allowed) then
            Alcotest.failf "%s: simulated outcome %s not in the operational model"
              t.Lang.name o)
        r.Sim.outcomes)
    Cat.all

let test_sim_deterministic_given_seed () =
  let a = Sim.run ~trials:50 ~seed:9 Cat.sb in
  let b = Sim.run ~trials:50 ~seed:9 Cat.sb in
  check Alcotest.bool "same seed, same histogram" true (a.Sim.outcomes = b.Sim.outcomes)

let test_sim_consistency_predicate () =
  let r = Sim.run ~trials:100 Cat.mp_dmb in
  check Alcotest.bool "consistent" true (Sim.consistent_with_model r Cat.mp_dmb)

(* ---------- differential fuzzing ---------- *)

let test_fuzz_no_violations () =
  let r = Armb_litmus.Fuzz.run ~tests:60 ~trials_per_test:50 ~seed:2718 () in
  if r.Armb_litmus.Fuzz.violations <> [] then
    Alcotest.failf "%s" (Format.asprintf "%a" Armb_litmus.Fuzz.pp_report r);
  check Alcotest.bool "outcomes were actually checked" true
    (r.Armb_litmus.Fuzz.sim_outcomes_checked > 50)

let test_fuzz_platform () =
  let run ?cfg () =
    let r = Armb_litmus.Fuzz.run ?cfg ~tests:8 ~seed:1234 () in
    (* every platform replays the same tests and trials, so events alone
       cannot tell the runs apart *)
    check Alcotest.int "events" 3833 r.Armb_litmus.Fuzz.events;
    r.Armb_litmus.Fuzz.sim_outcomes_checked
  in
  check Alcotest.int "kunpeng916 by default" 24 (run ());
  check Alcotest.int "kirin960" 27 (run ~cfg:Armb_platform.Platform.kirin960 ())

let test_fuzz_generator_wellformed () =
  (* generated tests must enumerate without error and have consistent
     register naming *)
  let rng = Armb_sim.Rng.create 5 in
  for _ = 1 to 30 do
    let t = Armb_litmus.Fuzz.generate rng in
    let outs = Enum.enumerate Enum.Wmm t in
    check Alcotest.bool "at least one outcome" true (outs <> []);
    List.iter
      (fun th ->
        let regs = Lang.regs_of_thread th in
        let sorted = List.sort_uniq compare regs in
        check Alcotest.int "unique registers per thread" (List.length regs)
          (List.length sorted))
      t.Lang.threads
  done

let () =
  Alcotest.run "armb_litmus"
    [
      ( "lang",
        [
          Alcotest.test_case "vars" `Quick test_vars_collects;
          Alcotest.test_case "regs of thread" `Quick test_regs_of_thread;
          Alcotest.test_case "outcome names" `Quick test_outcome_names;
          Alcotest.test_case "register reads" `Quick test_reads_regs;
          Alcotest.test_case "catalogue find" `Quick test_catalogue_find;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "catalogue expectations" `Quick test_catalogue_expectations;
          Alcotest.test_case "SC outcome present" `Quick test_sc_outcomes_present;
          Alcotest.test_case "WMM superset of TSO" `Quick test_wmm_superset_of_tso;
          Alcotest.test_case "fences monotone" `Quick test_fences_monotone;
          Alcotest.test_case "coherence forbidden" `Quick test_coherence_always;
          Alcotest.test_case "access limit" `Quick test_access_limit;
        ] );
      ( "vs-seed",
        [
          Alcotest.test_case "catalogue and cfg slices" `Quick test_diff_catalogue;
          Alcotest.test_case "fix oracle inputs" `Quick test_diff_fix_oracle_inputs;
          QCheck_alcotest.to_alcotest prop_fuzz_matches_ref;
          QCheck_alcotest.to_alcotest prop_raw_matches_ref;
        ] );
      ( "vs-fresh",
        [
          Alcotest.test_case "catalogue x platforms" `Quick test_fresh_catalogue;
          Alcotest.test_case "cfg slices" `Quick test_fresh_cfg_slices;
          QCheck_alcotest.to_alcotest prop_fresh_fuzz;
        ] );
      ( "sim-runner",
        [
          Alcotest.test_case "witnesses MP" `Slow test_sim_witnesses_mp;
          Alcotest.test_case "never witnesses forbidden" `Slow test_sim_never_forbidden;
          Alcotest.test_case "sound wrt operational model" `Slow
            test_sim_outcomes_within_enumerated;
          Alcotest.test_case "deterministic per seed" `Quick test_sim_deterministic_given_seed;
          Alcotest.test_case "consistency predicate" `Quick test_sim_consistency_predicate;
          Alcotest.test_case "observing changes nothing" `Quick test_sim_observer_neutral;
          Alcotest.test_case "check excludes observer" `Quick test_sim_check_excludes_observer;
          Alcotest.test_case "threads fit the cores" `Quick test_sim_threads_fit_cores;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "generator well-formed" `Quick test_fuzz_generator_wellformed;
          Alcotest.test_case "platform reaches the simulator" `Quick test_fuzz_platform;
          Alcotest.test_case "differential: sim within operational model" `Slow
            test_fuzz_no_violations;
        ] );
    ]
