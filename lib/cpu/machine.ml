module Event_queue = Armb_sim.Event_queue
module Memsys = Armb_mem.Memsys
module Topology = Armb_mem.Topology

type status = Completed | Deadlock of int list | Cycle_limit

exception Simulation_error of string

type thread = { core : Core.t; body : Core.t -> unit; mutable finished : bool }

type t = {
  cfg : Config.t;
  q : Event_queue.t;
  memory : Memsys.t;
  threads : thread option array; (* indexed by core id *)
  cores : Core.t option array; (* every core ever spawned, kept across resets *)
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
    cores = Array.make cores None;
    observer;
    injector;
    next_line = first_line;
    unfinished = 0;
  }

let reset ?observer ?fault t =
  let injector = arm fault in
  Event_queue.reset t.q;
  Memsys.reset ?inj:injector t.memory;
  Array.fill t.threads 0 (Array.length t.threads) None;
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

let spawn t ~core body =
  if core < 0 || core >= Array.length t.threads then
    raise (Simulation_error (Printf.sprintf "spawn: core %d out of range" core));
  if t.threads.(core) <> None then
    raise (Simulation_error (Printf.sprintf "spawn: core %d already has a thread" core));
  let c =
    match t.cores.(core) with
    | Some c ->
      Core.reset ?observer:t.observer ?fault:t.injector c;
      c
    | None ->
      let c =
        Core.make ?observer:t.observer ?fault:t.injector ~id:core ~cfg:t.cfg ~queue:t.q
          ~mem:t.memory ()
      in
      t.cores.(core) <- Some c;
      c
  in
  t.threads.(core) <- Some { core = c; body; finished = false };
  t.unfinished <- t.unfinished + 1

let core t id =
  if id < 0 || id >= Array.length t.threads then raise Not_found;
  match t.threads.(id) with Some th -> th.core | None -> raise Not_found

(* Run a thread body under the suspension handler.  The body executes
   synchronously until it performs Suspend; the continuation is then
   parked wherever the suspender put it (a token waiter or a line
   watch) and control returns here. *)
let start t th =
  let open Effect.Deep in
  match_with th.body th.core
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
               (Printf.sprintf "thread on core %d raised %s\n%s" (Core.id th.core)
                  (Printexc.to_string e) bt)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Core.Suspend register ->
            Some
              (fun (k : (a, unit) continuation) -> register (fun () -> continue k ()))
          | _ -> None);
    }

let run ?max_cycles t =
  (* The array is already in core-id order: launch in index order, no
     collect-and-sort pass over a hash table. *)
  Array.iter
    (function
      | Some th -> Event_queue.schedule t.q ~at:0 (fun () -> start t th)
      | None -> ())
    t.threads;
  (match max_cycles with
  | Some m -> Event_queue.run ~until:m t.q
  | None -> Event_queue.run t.q);
  if t.unfinished = 0 then Completed
  else if Event_queue.pending t.q > 0 then Cycle_limit
  else begin
    let blocked = ref [] in
    for id = Array.length t.threads - 1 downto 0 do
      match t.threads.(id) with
      | Some th when not th.finished -> blocked := id :: !blocked
      | _ -> ()
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
  Array.fold_left
    (fun acc th -> match th with Some th -> Int.max acc (Core.cursor th.core) | None -> acc)
    0 t.threads

let throughput t ~ops =
  Armb_sim.Stats.throughput_per_sec ~ops ~cycles:(elapsed t) ~freq_ghz:t.cfg.freq_ghz
