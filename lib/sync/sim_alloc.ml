type t = { mutable free_list : int list; mutable used : int }

let create m ~capacity =
  if capacity <= 0 then invalid_arg "Sim_alloc.create";
  let base = Armb_cpu.Machine.alloc_lines m capacity in
  { free_list = List.init capacity (fun i -> base + (i * 64)); used = 0 }

let alloc t =
  match t.free_list with
  | [] -> failwith "Sim_alloc: pool exhausted"
  | a :: rest ->
    t.free_list <- rest;
    t.used <- t.used + 1;
    a

let free t a =
  t.free_list <- a :: t.free_list;
  t.used <- t.used - 1

let in_use t = t.used
