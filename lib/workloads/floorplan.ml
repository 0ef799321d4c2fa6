module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Rng = Armb_sim.Rng

type input = Input5 | Input15 | Input20

let input_name = function Input5 -> "input.5" | Input15 -> "input.15" | Input20 -> "input.20"

let all_inputs = [ Input5; Input15; Input20 ]

type spec = {
  cfg : Armb_cpu.Config.t;
  input : input;
  workers : int;
  pilot : bool;
  node_cost : int;
}

let default_spec cfg ~input = { cfg; input; workers = 12; pilot = false; node_cost = 30 }

type result = { cycles : int; best_area : int; nodes_explored : int; lock_updates : int }

(* Cells: alternative (w, h) shapes, deterministic per input size. *)
let cells_of input =
  let n = match input with Input5 -> 6 | Input15 -> 9 | Input20 -> 11 in
  let rng = Rng.create (n * 977) in
  Array.init n (fun _ ->
      let w = 1 + Rng.int rng 6 and h = 1 + Rng.int rng 6 in
      [| (w, h); (h, w) |])

(* Placing shape (w, h) into envelope (ew, eh): extend right or stack
   below. *)
let extend (ew, eh) (w, h) = [ (ew + w, Int.max eh h); (Int.max ew w, eh + h) ]

(* Host-side sequential branch and bound: the validation oracle. *)
let sequential_best cells =
  let n = Array.length cells in
  let best = ref max_int in
  let rec go i env =
    let ew, eh = env in
    if ew * eh >= !best then ()
    else if i = n then best := ew * eh
    else
      Array.iter (fun shape -> List.iter (go (i + 1)) (extend env shape)) cells.(i)
  in
  go 0 (0, 0);
  !best

(* Enumerate the first [depth] levels to get parallel root tasks. *)
let root_tasks cells ~depth =
  let rec go i env acc =
    if i >= depth then (i, env) :: acc
    else
      Array.fold_left
        (fun acc shape -> List.fold_left (fun acc env' -> go (i + 1) env' acc) acc (extend env shape))
        acc cells.(i)
  in
  go 0 (0, 0) []

let run spec =
  if spec.workers <= 0 then invalid_arg "Floorplan.run: no workers";
  let cells = cells_of spec.input in
  let n = Array.length cells in
  let oracle = sequential_best cells in
  let m = Machine.create spec.cfg in
  let best_line = Machine.alloc_line m in
  Armb_mem.Memsys.commit_store (Machine.mem m) ~addr:best_line (Int64.of_int max_int);
  let updates = ref 0 in
  let nodes = ref 0 in
  (* The bound-update critical section: classic test-and-update. *)
  let critical (c : Core.t) ~client:_ area =
    let cur = Core.await c (Core.load c best_line) in
    if Int64.compare area cur < 0 then begin
      Core.store c best_line area;
      incr updates;
      area
    end
    else cur
  in
  let lock =
    Armb_sync.Dsmsynch.create m ~parties:spec.workers ~pilot:spec.pilot ~critical ()
  in
  let tasks = root_tasks cells ~depth:(Int.min 2 n) in
  let worker me (c : Core.t) =
    (* A locally-cached bound, refreshed from shared memory as the
       search descends (plain loads — BOTS reads the bound unlocked). *)
    let local_best = ref max_int in
    let rec go i env =
      Core.compute c spec.node_cost;
      incr nodes;
      let ew, eh = env in
      let area = ew * eh in
      if area < !local_best then begin
        if i = n then begin
          let b = Int64.to_int (Core.await c (Core.load c best_line)) in
          local_best := Int.min !local_best b;
          if area < !local_best then begin
            let nb = Armb_sync.Dsmsynch.exec lock c ~me (Int64.of_int area) in
            local_best := Int.min !local_best (Int64.to_int nb)
          end
        end
        else begin
          (* refresh the bound occasionally on interior nodes *)
          if !nodes land 63 = 0 then begin
            let b = Int64.to_int (Core.await c (Core.load c best_line)) in
            local_best := Int.min !local_best b
          end;
          Array.iter (fun shape -> List.iter (go (i + 1)) (extend env shape)) cells.(i)
        end
      end
    in
    List.iteri (fun k (i, env) -> if k mod spec.workers = me then go i env) tasks
  in
  List.iteri
    (fun i core -> Machine.spawn m ~core (worker i))
    (List.init spec.workers (fun i -> i));
  Machine.run_exn m;
  let final = Int64.to_int (Armb_mem.Memsys.load_value (Machine.mem m) ~addr:best_line) in
  if final <> oracle then
    failwith (Printf.sprintf "Floorplan: parallel best %d != sequential best %d" final oracle);
  {
    cycles = Machine.elapsed m;
    best_area = final;
    nodes_explored = !nodes;
    lock_updates = !updates;
  }
