module Rng = Armb_sim.Rng

(* Random instruction streams over a small vocabulary.  Register names
   are unique per thread; a load's register may feed later instructions
   as a data or address dependency. *)
let gen_thread rng ~vars ~max_len ~with_isb tid =
  let len = 1 + Rng.int rng max_len in
  let reg_count = ref 0 in
  let produced = ref [] in
  let fresh_reg () =
    incr reg_count;
    let r = Printf.sprintf "r%d" !reg_count in
    produced := r :: !produced;
    r
  in
  let any_var () = List.nth vars (Rng.int rng (List.length vars)) in
  let maybe_dep () =
    match !produced with
    | [] -> None
    | rs -> if Rng.int rng 3 = 0 then Some (List.nth rs (Rng.int rng (List.length rs))) else None
  in
  let rec build n acc =
    if n = 0 then List.rev acc
    else begin
      let instr =
        match Rng.int rng 10 with
        | 0 | 1 | 2 ->
          Lang.Load
            { var = any_var (); reg = fresh_reg (); acquire = Rng.int rng 4 = 0; addr_dep = maybe_dep () }
        | 3 | 4 | 5 ->
          let v =
            match maybe_dep () with
            | Some r when Rng.bool rng -> Lang.Reg r
            | _ -> Lang.Const (Int64.of_int (1 + Rng.int rng 3))
          in
          Lang.Store
            { var = any_var (); v; release = Rng.int rng 4 = 0; addr_dep = maybe_dep () }
        | 6 -> Lang.Fence Lang.F_dmb_full
        | 7 -> Lang.Fence Lang.F_dmb_st
        | 8 -> Lang.Fence Lang.F_dmb_ld
        (* The ctrl+ISB fence is opt-in so that default streams (pinned
           by the golden fuzz-round digest) are unchanged. *)
        | _ when with_isb -> Lang.Fence Lang.F_isb
        | _ ->
          Lang.Load
            { var = any_var (); reg = fresh_reg (); acquire = false; addr_dep = None }
      in
      build (n - 1) (instr :: acc)
    end
  in
  ignore tid;
  build len []

let generate ?(with_isb = false) rng =
  let nvars = 2 + Rng.int rng 2 in
  let vars = List.init nvars (fun i -> Printf.sprintf "v%d" i) in
  let nthreads = 2 + Rng.int rng 2 in
  let threads = List.init nthreads (gen_thread rng ~vars ~max_len:4 ~with_isb) in
  {
    Lang.name = "fuzz";
    description = "randomly generated";
    init = List.map (fun v -> (v, 0L)) vars;
    threads;
    interesting = (fun _ -> false);
    expect_tso = false;
    expect_wmm = false;
  }

(* ---------- random small CFGs ---------- *)

(* Thread shapes for the optimizer soak: straight-line, a two-block
   chain, a diamond (branch + join), and a flag-poll loop with one
   back-edge.  Register names stay unique per thread; a branch always
   tests a previously loaded register.  This is a separate generator on
   purpose: [generate]'s RNG consumption is pinned by the golden
   fuzz-round digest and must not change. *)
let gen_cfg_thread rng ~vars ~with_loop =
  let reg_count = ref 0 in
  let produced = ref [] in
  let fresh_reg () =
    incr reg_count;
    let r = Printf.sprintf "r%d" !reg_count in
    produced := r :: !produced;
    r
  in
  let any_var () = List.nth vars (Rng.int rng (List.length vars)) in
  let body n =
    List.init n (fun _ ->
        match Rng.int rng 6 with
        | 0 | 1 ->
          Lang.Load { var = any_var (); reg = fresh_reg (); acquire = false; addr_dep = None }
        | 2 | 3 ->
          Lang.Store
            { var = any_var (); v = Lang.Const (Int64.of_int (1 + Rng.int rng 3));
              release = false; addr_dep = None }
        | 4 -> Lang.Fence Lang.F_dmb_st
        | _ -> Lang.Fence Lang.F_dmb_ld)
  in
  let load_into_fresh () =
    let r = fresh_reg () in
    (Lang.Load { var = any_var (); reg = r; acquire = false; addr_dep = None }, r)
  in
  let shape = Rng.int rng (if with_loop then 4 else 3) in
  match shape with
  | 0 -> Cfg.cfg [ Cfg.blk "b0" (body (1 + Rng.int rng 3)) ]
  | 1 ->
    Cfg.cfg
      [
        Cfg.blk "b0" ~term:(Cfg.goto "b1") (body (1 + Rng.int rng 2));
        Cfg.blk "b1" (body (1 + Rng.int rng 2));
      ]
  | 2 ->
    (* diamond: branch on a loaded value, rejoin *)
    let ld, r = load_into_fresh () in
    Cfg.cfg
      [
        Cfg.blk "b0" ~term:(Cfg.branch r ~nonzero:"then" ~zero:"else") (body (Rng.int rng 2) @ [ ld ]);
        Cfg.blk "then" ~term:(Cfg.goto "join") (body (1 + Rng.int rng 2));
        Cfg.blk "else" ~term:(Cfg.goto "join") (body (Rng.int rng 2));
        Cfg.blk "join" (body (Rng.int rng 2));
      ]
  | _ ->
    (* flag-poll loop: one back-edge, exit on nonzero *)
    let ld, r = load_into_fresh () in
    Cfg.cfg
      [
        Cfg.blk "b0" ~term:(Cfg.goto "poll") (body (Rng.int rng 2));
        Cfg.blk "poll" ~term:(Cfg.branch r ~nonzero:"done" ~zero:"poll") (body (Rng.int rng 2) @ [ ld ]);
        Cfg.blk "done" (body (1 + Rng.int rng 2));
      ]

let generate_cfg ?(with_loop = true) rng =
  let nvars = 2 + Rng.int rng 2 in
  let vars = List.init nvars (fun i -> Printf.sprintf "v%d" i) in
  let nthreads = 2 + Rng.int rng 2 in
  let threads = List.init nthreads (fun _ -> gen_cfg_thread rng ~vars ~with_loop) in
  {
    Cfg.name = "fuzz-cfg";
    description = "randomly generated CFG";
    init = List.map (fun v -> (v, 0L)) vars;
    threads;
    interesting = (fun _ -> false);
    expect_tso = false;
    expect_wmm = false;
  }

type report = {
  tests_run : int;
  sim_outcomes_checked : int;
  violations : (Lang.test * string) list;
  events : int;
}

let run ?cfg ?(tests = 50) ?(trials_per_test = 60) ?(seed = 1234) ?fault () =
  let rng = Rng.create seed in
  let checked = ref 0 in
  let violations = ref [] in
  let events = ref 0 in
  for i = 1 to tests do
    let t = generate rng in
    let t = { t with Lang.name = Printf.sprintf "fuzz-%d" i } in
    let allowed =
      List.map Enumerate.outcome_to_string (Enumerate.enumerate Enumerate.Wmm t)
    in
    let r = Sim_runner.run ?cfg ~trials:trials_per_test ~seed:(seed + i) ?fault t in
    events := !events + r.Sim_runner.events;
    List.iter
      (fun (o, _) ->
        incr checked;
        if not (List.mem o allowed) then violations := (t, o) :: !violations)
      r.Sim_runner.outcomes
  done;
  {
    tests_run = tests;
    sim_outcomes_checked = !checked;
    violations = !violations;
    events = !events;
  }

let pp_report ppf r =
  Format.fprintf ppf "fuzz: %d tests, %d distinct simulated outcomes checked, %d violations"
    r.tests_run r.sim_outcomes_checked (List.length r.violations);
  List.iter
    (fun ((t : Lang.test), o) ->
      Format.fprintf ppf "@.VIOLATION in %s: %s@." t.name o;
      List.iteri
        (fun i th ->
          Format.fprintf ppf "  P%d:" i;
          List.iter (fun instr -> Format.fprintf ppf " %a;" Lang.pp_instr instr) th;
          Format.fprintf ppf "@.")
        t.threads)
    r.violations
