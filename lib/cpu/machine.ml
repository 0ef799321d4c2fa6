module Event_queue = Armb_sim.Event_queue
module Memsys = Armb_mem.Memsys
module Topology = Armb_mem.Topology

type status = Completed | Deadlock of int list | Cycle_limit

exception Simulation_error of string

(* One record per core id, made the first time a thread is spawned on
   that core and kept across resets, with the effect handler and the
   launch closure built once: a later spawn on the core allocates
   nothing.  [active] marks a thread of the current run. *)
type thread = {
  core : Core.t;
  mutable body : Core.t -> unit;
  mutable finished : bool;
  mutable active : bool;
  launch : unit -> unit; (* runs [body] under the suspension handler *)
}

type t = {
  cfg : Config.t;
  q : Event_queue.t;
  memory : Memsys.t;
  threads : thread option array; (* indexed by core id *)
  spawned : int array; (* [spawned.(0 .. nspawned-1)]: this run's core ids, ascending *)
  mutable nspawned : int;
  mutable observer : Observe.t option;
  mutable injector : Armb_fault.Injector.t option;
  mutable next_line : int;
  mutable unfinished : int;
}

let first_line = 0x1000

(* A null plan (all probabilities zero) is identical to no plan; drop it
   so the faults-off fast path in Memsys/Core stays branch-free on an
   [option] check and the golden digests cover it. *)
let arm = function
  | Some spec when not (Armb_fault.Plan.is_null spec) -> Some (Armb_fault.Injector.create spec)
  | Some _ | None -> None

let create ?observer ?fault cfg =
  Config.validate cfg;
  let injector = arm fault in
  let cores = Topology.num_cores cfg.topo in
  {
    cfg;
    q = Event_queue.create ();
    memory = Memsys.create ?inj:injector ~topo:cfg.topo ~lat:cfg.lat ();
    threads = Array.make cores None;
    spawned = Array.make cores 0;
    nspawned = 0;
    observer;
    injector;
    next_line = first_line;
    unfinished = 0;
  }

let thread t id = match t.threads.(id) with Some th -> th | None -> assert false

(* Walks this run's threads only, not every core of the machine. *)
let reset ?observer ?fault t =
  let injector = arm fault in
  Event_queue.reset t.q;
  Memsys.reset ?inj:injector t.memory;
  for i = 0 to t.nspawned - 1 do
    let th = thread t t.spawned.(i) in
    th.active <- false;
    th.body <- ignore
  done;
  t.nspawned <- 0;
  t.observer <- observer;
  t.injector <- injector;
  t.next_line <- first_line;
  t.unfinished <- 0

let config t = t.cfg
let mem t = t.memory
let queue t = t.q
let injector t = t.injector

let alloc_line t =
  let a = t.next_line in
  t.next_line <- t.next_line + 64;
  a

let alloc_lines t n =
  if n <= 0 then invalid_arg "Machine.alloc_lines";
  let a = t.next_line in
  t.next_line <- t.next_line + (64 * n);
  a

(* Run a thread body under the suspension handler.  The body executes
   synchronously until it performs Suspend; the continuation is then
   parked wherever the suspender put it (a token waiter or a line
   watch) and control returns here. *)
let new_thread t c =
  let open Effect.Deep in
  let rec th =
    {
      core = c;
      body = ignore;
      finished = false;
      active = false;
      launch = (fun () -> match_with th.body c handler);
    }
  and handler =
    {
      retc =
        (fun () ->
          th.finished <- true;
          t.unfinished <- t.unfinished - 1);
      exnc =
        (fun e ->
          let bt = Printexc.get_backtrace () in
          raise
            (Simulation_error
               (Printf.sprintf "thread on core %d raised %s\n%s" (Core.id c)
                  (Printexc.to_string e) bt)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Core.Suspend register ->
            Some
              (fun (k : (a, unit) continuation) -> register (fun () -> continue k ()))
          | _ -> None);
    }
  in
  th

let spawn t ~core body =
  if core < 0 || core >= Array.length t.threads then
    raise (Simulation_error (Printf.sprintf "spawn: core %d out of range" core));
  let th =
    match t.threads.(core) with
    | Some th when th.active ->
      raise (Simulation_error (Printf.sprintf "spawn: core %d already has a thread" core))
    | Some th ->
      Core.reset ?observer:t.observer ?fault:t.injector th.core;
      th
    | None ->
      let th =
        new_thread t
          (Core.make ?observer:t.observer ?fault:t.injector ~id:core ~cfg:t.cfg ~queue:t.q
             ~mem:t.memory ())
      in
      t.threads.(core) <- Some th;
      th
  in
  th.body <- body;
  th.finished <- false;
  th.active <- true;
  (* keep [spawned] ascending: [run] launches in core-id order, which
     fixes the launch events' sequence numbers *)
  let i = ref t.nspawned in
  while !i > 0 && t.spawned.(!i - 1) > core do
    t.spawned.(!i) <- t.spawned.(!i - 1);
    decr i
  done;
  t.spawned.(!i) <- core;
  t.nspawned <- t.nspawned + 1;
  t.unfinished <- t.unfinished + 1

let core t id =
  if id < 0 || id >= Array.length t.threads then raise Not_found;
  match t.threads.(id) with Some th when th.active -> th.core | _ -> raise Not_found

let run ?max_cycles t =
  for i = 0 to t.nspawned - 1 do
    Event_queue.schedule t.q ~at:0 (thread t t.spawned.(i)).launch
  done;
  (match max_cycles with
  | Some m -> Event_queue.run ~until:m t.q
  | None -> Event_queue.run t.q);
  if t.unfinished = 0 then Completed
  else if Event_queue.pending t.q > 0 then Cycle_limit
  else begin
    let blocked = ref [] in
    for i = t.nspawned - 1 downto 0 do
      if not (thread t t.spawned.(i)).finished then blocked := t.spawned.(i) :: !blocked
    done;
    Deadlock !blocked
  end

let run_exn ?max_cycles t =
  match run ?max_cycles t with
  | Completed -> ()
  | Deadlock ids ->
    raise
      (Simulation_error
         (Printf.sprintf "deadlock: cores [%s] blocked with empty event queue"
            (String.concat "; " (List.map string_of_int ids))))
  | Cycle_limit -> raise (Simulation_error "cycle limit reached")

let elapsed t =
  let m = ref 0 in
  for i = 0 to t.nspawned - 1 do
    m := Int.max !m (Core.cursor (thread t t.spawned.(i)).core)
  done;
  !m

let throughput t ~ops =
  Armb_sim.Stats.throughput_per_sec ~ops ~cycles:(elapsed t) ~freq_ghz:t.cfg.freq_ghz
