module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Memsys = Armb_mem.Memsys
module Rng = Armb_sim.Rng
module San = Armb_check.Sanitizer

type result = {
  outcomes : (string * int) list;
  interesting_witnessed : bool;
  trials : int;
  findings : San.finding list;
  events : int;
  cycles : int;
  fault_digest : int64;
  fault_delay : int;
}

(* ---------- compiled tests ---------- *)

(* A register operand, resolved once per call: [Unset] when no earlier
   load of the thread writes the register (it reads 0 and carries no
   dependency), else the slot holding the latest such load's token. *)
type reg_ref = Unset | Slot of int

type value = Const of int64 | Reg of reg_ref

type op =
  | Load of { var : int; dst : int; acquire : bool; addr_dep : reg_ref option }
  | Store of { var : int; value : value; release : bool; addr_dep : reg_ref option }
  | Fence of Armb_cpu.Barrier.t

type thread = {
  ops : op array;
  outs : int array; (* per register slot, its position in the outcome layout *)
}

(* Immutable: one compiled test serves any number of trial loops. *)
type compiled = {
  test : Lang.test;
  init : int64 array; (* per variable, in [Lang.vars] order *)
  threads : thread array;
  names : string array;
      (* the outcome layout: every loaded "<thread>:<reg>" and every
         "mem:<var>", in sorted-name order *)
  mem_pos : int array; (* per variable, its position in [names] *)
}

let barrier_of = function
  | Lang.F_dmb_full -> Armb_cpu.Barrier.Dmb Full
  | Lang.F_dmb_st -> Armb_cpu.Barrier.Dmb St
  | Lang.F_dmb_ld -> Armb_cpu.Barrier.Dmb Ld
  | Lang.F_dsb -> Armb_cpu.Barrier.Dsb Full
  (* ctrl+ISB: the pipeline flush refetches only after every prior
     instruction retires, so earlier loads' sample times gate everything
     later — the ordering the branch+ISB idiom provides on hardware. *)
  | Lang.F_isb -> Armb_cpu.Barrier.Isb

(* Position of [name] in [names], or -1.  A test has a handful of
   variables and registers, so a scan beats hashing. *)
let position names name =
  let rec go i =
    if i = Array.length names then -1 else if String.equal names.(i) name then i else go (i + 1)
  in
  go 0

let compile (t : Lang.test) =
  let vars = Array.of_list (Lang.vars t) in
  let var v = position vars v in
  (* One thread's ops in program order, and its loaded registers in
     slot order.  A register operand resolves to the slot of the latest
     earlier load that writes it. *)
  let compile_thread th =
    let regs = ref [] (* loaded registers, newest first *) in
    let slot r =
      let rec go k = function
        | [] -> -1
        | x :: rest -> if String.equal x r then k else go (k - 1) rest
      in
      go (List.length !regs - 1) !regs
    in
    let resolve r = match slot r with -1 -> Unset | k -> Slot k in
    let op = function
      | Lang.Load { var = v; reg; acquire; addr_dep } ->
        let addr_dep = Option.map resolve addr_dep in
        let dst =
          match slot reg with
          | -1 ->
            regs := reg :: !regs;
            List.length !regs - 1
          | k -> k
        in
        Load { var = var v; dst; acquire; addr_dep }
      | Lang.Store { var = v; v = value; release; addr_dep } ->
        let addr_dep = Option.map resolve addr_dep in
        let value = match value with Lang.Const k -> Const k | Lang.Reg r -> Reg (resolve r) in
        Store { var = var v; value; release; addr_dep }
      | Lang.Fence f -> Fence (barrier_of f)
    in
    let ops = Array.of_list (List.map op th) in
    (ops, Array.of_list (List.rev !regs))
  in
  let threads = List.map compile_thread t.threads in
  let reg_names =
    List.mapi (fun i (_, regs) -> Array.map (fun r -> string_of_int i ^ ":" ^ r) regs) threads
  in
  let mem_names = Array.map (fun v -> "mem:" ^ v) vars in
  let names = Array.concat (mem_names :: reg_names) in
  Array.sort String.compare names;
  let at = position names in
  {
    test = t;
    init = Array.map (fun v -> Option.value ~default:0L (List.assoc_opt v t.init)) vars;
    threads =
      Array.of_list
        (List.map2 (fun (ops, _) names -> { ops; outs = Array.map at names }) threads reg_names);
    names;
    mem_pos = Array.map at mem_names;
  }

(* ---------- one trial of one thread ---------- *)

(* [toks] is the thread's per-call scratch: per register slot, its
   latest load's token. *)
let token toks r = match toks.(r) with Some tok -> tok | None -> assert false

let read c toks = function Unset -> 0L | Slot r -> Core.await c (token toks r)

(* Syntactic dependencies also flow to the instrumentation hook, so the
   sanitizer sees the same preserved order the hardware would. *)
let deps_of toks = function Unset -> [] | Slot r -> [ token toks r ]

(* An address dependency: wait for the register, spend one ALU op on
   the address arithmetic, and declare the dependency. *)
let addr_deps c toks = function
  | None -> []
  | Some r ->
    ignore (read c toks r);
    Core.compute c 1;
    deps_of toks r

(* Loads are issued eagerly and awaited lazily (at first use of the
   register, or at the end), which exposes load-load reordering to the
   timing model.  At the end every loaded register's value goes into
   its slot of the trial's outcome buffer. *)
let exec_thread th toks ~addrs ~outcome ~start_pause ~padding c =
  Core.pause c start_pause;
  for idx = 0 to Array.length th.ops - 1 do
    if idx > 0 && padding > 0 then Core.compute c padding;
    match th.ops.(idx) with
    | Load { var; dst; acquire; addr_dep } ->
      let deps = addr_deps c toks addr_dep in
      let addr = addrs.(var) in
      toks.(dst) <- Some (if acquire then Core.ldar c ~deps addr else Core.load c ~deps addr)
    | Store { var; value; release; addr_dep } ->
      let deps_a = addr_deps c toks addr_dep in
      let deps_v, v =
        match value with
        | Const k -> ([], k)
        | Reg r ->
          let v = read c toks r in
          (deps_of toks r, v)
      in
      let deps = deps_a @ deps_v and addr = addrs.(var) in
      if release then Core.stlr c ~deps addr v else Core.store c ~deps addr v
    | Fence b -> Core.barrier c b
  done;
  Array.iteri
    (fun r pos -> Bytes.set_int64_le outcome (8 * pos) (Core.await c (token toks r)))
    th.outs

(* ---------- the trial loop ---------- *)

(* A distinct outcome's raw bytes and how many trials produced it. *)
type seen = { bytes : Bytes.t; mutable n : int }

type tally = {
  compiled : compiled;
  seen : seen list; (* in first-seen order *)
  t_trials : int;
  t_findings : San.finding list;
  t_events : int;
  t_cycles : int;
  t_fault_digest : int64;
  t_fault_delay : int;
}

let compare_findings (f : San.finding) (g : San.finding) =
  let c = Int.compare f.core g.core in
  if c <> 0 then c
  else
    let c = Int.compare f.first.op_seq g.first.op_seq in
    if c <> 0 then c else Int.compare f.second.op_seq g.second.op_seq

let simulate ?(cfg = Armb_platform.Platform.kunpeng916) ?(trials = 200) ?(seed = 42)
    ?(check = false) ?fault ?observer (p : compiled) =
  if check && observer <> None then
    invalid_arg "Sim_runner.run: ~check:true installs its own observer; pass no ~observer";
  let rng = Rng.create seed in
  let nthreads = Array.length p.threads in
  let ncores = Armb_mem.Topology.num_cores cfg.topo in
  if nthreads > ncores then
    invalid_arg
      (Printf.sprintf "Sim_runner.simulate: %d threads but %s has %d cores" nthreads
         cfg.Armb_cpu.Config.name ncores);
  let nvars = Array.length p.init in
  (* Per-call scratch: line addresses, each trial's start pause and
     padding per thread, token slots, the outcome buffer, and one body
     per thread that reads them, so a trial builds no closure. *)
  let addrs = Array.make nvars 0 in
  let pauses = Array.make nthreads 0 and paddings = Array.make nthreads 0 in
  let outcome = Bytes.create (8 * Array.length p.names) in
  let bodies =
    Array.mapi
      (fun i th ->
        let toks = Array.make (Array.length th.outs) None in
        fun c ->
          exec_thread th toks ~addrs ~outcome ~start_pause:pauses.(i) ~padding:paddings.(i) c)
      p.threads
  in
  (* Each trial writes its outcome into [outcome] and counts it against
     the distinct outcomes so far, compared byte for byte: a test has
     few, and most trials match one of the first seen. *)
  let seen = ref [] in
  let tally_outcome () =
    let rec find = function
      | o :: rest -> if Bytes.equal o.bytes outcome then o.n <- o.n + 1 else find rest
      | [] -> seen := !seen @ [ { bytes = Bytes.copy outcome; n = 1 } ]
    in
    find !seen
  in
  let events = ref 0 in
  (* Sanitizer findings are value-agnostic, so every trial reports the
     same racy pairs; trials differ only in whether the reordering was
     witnessed.  Dedup on the pair's core, access kinds and addresses
     (what [San.signature] renders, without rendering it), keeping a
     witnessed copy if any. *)
  let merged : (_, San.finding) Hashtbl.t = Hashtbl.create 8 in
  let fault_digest = ref 0L in
  let fault_delay = ref 0 in
  let cycles = ref 0 in
  (* Spread threads over distant cores when possible. *)
  let core_of i = if nthreads <= 1 then 0 else i * (ncores / nthreads) in
  let machine = ref None in
  for trial = 1 to trials do
    let san = if check then Some (San.create ()) else None in
    let observer = match san with Some s -> Some (San.observer s) | None -> observer in
    (* Re-seed the plan per trial so a sweep explores [trials] distinct
       fault schedules, while staying a pure function of (plan, trial). *)
    let fault =
      Option.map
        (fun (sp : Armb_fault.Plan.spec) -> Armb_fault.Plan.with_seed sp (sp.seed + trial))
        fault
    in
    let m =
      match !machine with
      | Some m ->
        Machine.reset ?observer ?fault m;
        m
      | None ->
        let m = Machine.create ?observer ?fault cfg in
        machine := Some m;
        m
    in
    let mem = Machine.mem m in
    (* Initial values + randomized initial line placement: give each
       variable's line to one of the participating cores (or leave it
       uncached) so that some accesses hit while others miss — the
       timing asymmetry that exposes reorderings. *)
    for v = 0 to nvars - 1 do
      let a = Machine.alloc_line m in
      addrs.(v) <- a;
      Memsys.commit_store mem ~addr:a p.init.(v);
      let pick = Rng.int rng (nthreads + 1) in
      if pick < nthreads then Memsys.place mem ~core:(core_of pick) ~addr:a
    done;
    for i = 0 to nthreads - 1 do
      pauses.(i) <- Rng.int rng 40;
      paddings.(i) <- Rng.int rng 4;
      Machine.spawn m ~core:(core_of i) bodies.(i)
    done;
    Machine.run_exn m;
    events := !events + Armb_sim.Event_queue.processed (Machine.queue m);
    cycles := !cycles + Machine.elapsed m;
    (match Machine.injector m with
    | None -> ()
    | Some i ->
      fault_digest := Armb_fault.Injector.combine !fault_digest (Armb_fault.Injector.digest i);
      fault_delay := !fault_delay + (Armb_fault.Injector.counters i).delay_cycles);
    (* final memory joins the outcome as "mem:<var>" bindings *)
    Array.iteri
      (fun v pos -> Bytes.set_int64_le outcome (8 * pos) (Memsys.load_value mem ~addr:addrs.(v)))
      p.mem_pos;
    tally_outcome ();
    match san with
    | None -> ()
    | Some s ->
      List.iter
        (fun (f : San.finding) ->
          let key =
            (f.core, f.first.op_access, f.first.op_addr, f.second.op_access, f.second.op_addr)
          in
          match Hashtbl.find_opt merged key with
          | Some g when g.witnessed || not f.witnessed -> ()
          | _ -> Hashtbl.replace merged key f)
        (San.findings s)
  done;
  {
    compiled = p;
    seen = !seen;
    t_trials = trials;
    t_findings = Hashtbl.fold (fun _ f acc -> f :: acc) merged [] |> List.sort compare_findings;
    t_events = !events;
    t_cycles = !cycles;
    t_fault_digest = !fault_digest;
    t_fault_delay = !fault_delay;
  }

let cycles r = r.t_cycles

(* ---------- rendering ---------- *)

let compare_outcomes (a, n) (b, m) =
  let c = String.compare a b in
  if c <> 0 then c else Int.compare n m

(* Binding names are rendered, and [interesting] (pure) asked, once per
   distinct outcome. *)
let render r =
  let p = r.compiled in
  let witnessed = ref false in
  let outcomes =
    List.map
      (fun o ->
        let value i = Bytes.get_int64_le o.bytes (8 * i) in
        let lookup name = match position p.names name with -1 -> 0L | i -> value i in
        if p.test.interesting lookup then witnessed := true;
        let bindings = List.init (Array.length p.names) (fun i -> (p.names.(i), value i)) in
        (Enumerate.outcome_to_string bindings, o.n))
      r.seen
  in
  {
    outcomes = List.sort compare_outcomes outcomes;
    interesting_witnessed = !witnessed;
    trials = r.t_trials;
    findings = r.t_findings;
    events = r.t_events;
    cycles = r.t_cycles;
    fault_digest = r.t_fault_digest;
    fault_delay = r.t_fault_delay;
  }

let run ?cfg ?trials ?seed ?check ?fault ?observer t =
  render (simulate ?cfg ?trials ?seed ?check ?fault ?observer (compile t))

let consistent_with_model r (t : Lang.test) = (not r.interesting_witnessed) || t.expect_wmm

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%d trials, interesting witnessed: %b@," r.trials
    r.interesting_witnessed;
  List.iter (fun (o, n) -> Format.fprintf ppf "  %6d  %s@," n o) r.outcomes;
  List.iter (fun f -> Format.fprintf ppf "%a@," San.pp_finding f) r.findings;
  Format.fprintf ppf "@]"

(* ---------- Sanitizer cross-check over the catalogue ---------- *)

type check_row = {
  test_name : string;
  forbidden : bool;
  base_findings : int;
  stripped_findings : int option;
  row_ok : bool;
}

let check_test ?cfg ?(trials = 50) ?seed ?fault (t : Lang.test) =
  let base = run ?cfg ~trials ?seed ~check:true ?fault t in
  let stripped =
    if Mutate.has_order_devices t then
      Some (run ?cfg ~trials ?seed ~check:true ?fault (Mutate.strip_order t))
    else None
  in
  (base, stripped)

let check_row_of (t : Lang.test) ~base ~stripped =
  let base_findings = List.length base.findings in
  let stripped_findings = Option.map (fun r -> List.length r.findings) stripped in
  let forbidden = not t.expect_wmm in
  let row_ok =
    if forbidden then
      (* A test whose weak outcome the model forbids must carry
         enough ordering that the sanitizer finds nothing — and
         once the ordering devices are stripped, the latent race
         must surface. *)
      base_findings = 0
      && (match stripped_findings with None -> true | Some n -> n > 0)
    else if Mutate.has_order_devices t then true (* partially ordered: informational *)
    else base_findings > 0 (* racy by design: must be flagged *)
  in
  { test_name = t.Lang.name; forbidden; base_findings; stripped_findings; row_ok }

let cross_check ?cfg ?(trials = 50) ?seed ?fault () =
  let rows =
    List.map
      (fun (t : Lang.test) ->
        let base, stripped = check_test ?cfg ~trials ?seed ?fault t in
        check_row_of t ~base ~stripped)
      Catalogue.all
  in
  (rows, List.for_all (fun r -> r.row_ok) rows)

let pp_check_row ppf r =
  Format.fprintf ppf "%-18s %-9s base:%d %s %s" r.test_name
    (if r.forbidden then "forbidden" else "allowed")
    r.base_findings
    (match r.stripped_findings with
    | Some n -> Printf.sprintf "stripped:%d" n
    | None -> "stripped:-")
    (if r.row_ok then "ok" else "FAIL")
