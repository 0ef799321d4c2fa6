module P = Armb_platform.Platform
module B = Armb_sync.Sync_barrier

type cell = { cycles_per_episode : float; events : int }

type row = { cores : int; central : cell; tree : cell; dissemination : cell }

type t = {
  sizes : int list;
  episodes : int;
  work : int;
  arity : int;
  rows : row list;
  crossover : int option;
}

let default_sizes = [ 8; 16; 32; 64; 128; 256; 512 ]

let validate_sizes sizes =
  if sizes = [] then invalid_arg "Barrier_study: empty size list";
  List.iter
    (fun s ->
      match P.manycore_shape s with
      | Ok _ -> ()
      | Error m -> invalid_arg ("Barrier_study: " ^ m))
    sizes

let run ?(sizes = default_sizes) ?(episodes = 4) ?(work = 64) ?(arity = 4)
    ?(progress = fun _ -> ()) () =
  validate_sizes sizes;
  if episodes <= 0 then invalid_arg "Barrier_study: episodes must be positive";
  if work < 0 then invalid_arg "Barrier_study: negative work";
  if arity < 2 then invalid_arg "Barrier_study: tree arity must be >= 2";
  let rows =
    List.map
      (fun size ->
        progress size;
        let cfg = P.manycore ~cores:size in
        let cores = List.init size Fun.id in
        let measure kind =
          let r = B.run { cfg; kind; cores; episodes; work } in
          { cycles_per_episode = r.B.cycles_per_episode; events = r.B.events }
        in
        {
          cores = size;
          central = measure B.Central;
          tree = measure (B.Tree arity);
          dissemination = measure B.Dissemination;
        })
      sizes
  in
  let crossover =
    List.find_map
      (fun r ->
        if r.tree.cycles_per_episode < r.central.cycles_per_episode then Some r.cores
        else None)
      rows
  in
  { sizes; episodes; work; arity; rows; crossover }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>barrier crossover study (%d episodes, %d work cycles, tree arity %d)@,\
     cycles per episode:@,\
     %8s  %12s  %12s  %12s  %s@,"
    t.episodes t.work t.arity "cores" "central" "tree" "dissem" "winner";
  List.iter
    (fun r ->
      let winner =
        let best =
          List.fold_left Float.min r.central.cycles_per_episode
            [ r.tree.cycles_per_episode; r.dissemination.cycles_per_episode ]
        in
        if best = r.central.cycles_per_episode then "central"
        else if best = r.tree.cycles_per_episode then B.kind_name (B.Tree t.arity)
        else "dissemination"
      in
      Format.fprintf ppf "%8d  %12.1f  %12.1f  %12.1f  %s@," r.cores
        r.central.cycles_per_episode r.tree.cycles_per_episode
        r.dissemination.cycles_per_episode winner)
    t.rows;
  (match t.crossover with
  | Some c ->
    Format.fprintf ppf "central -> tree%d crossover at %d cores@," t.arity c
  | None -> Format.fprintf ppf "no central -> tree%d crossover in this sweep@," t.arity);
  Format.fprintf ppf "@]"

(* Same line-oriented hand-rolled JSON style as Perf.to_json, so no JSON
   dependency is needed to consume it. *)
let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"armb-barrier-study-v1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"episodes\": %d,\n" t.episodes);
  Buffer.add_string b (Printf.sprintf "  \"work\": %d,\n" t.work);
  Buffer.add_string b (Printf.sprintf "  \"arity\": %d,\n" t.arity);
  Buffer.add_string b
    (Printf.sprintf "  \"crossover\": %s,\n"
       (match t.crossover with Some c -> string_of_int c | None -> "null"));
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b "    {\n";
      Buffer.add_string b (Printf.sprintf "      \"cores\": %d,\n" r.cores);
      Buffer.add_string b
        (Printf.sprintf "      \"central_cpe\": %.1f,\n" r.central.cycles_per_episode);
      Buffer.add_string b
        (Printf.sprintf "      \"tree_cpe\": %.1f,\n" r.tree.cycles_per_episode);
      Buffer.add_string b
        (Printf.sprintf "      \"dissemination_cpe\": %.1f,\n"
           r.dissemination.cycles_per_episode);
      Buffer.add_string b
        (Printf.sprintf "      \"events\": %d\n"
           (r.central.events + r.tree.events + r.dissemination.events));
      Buffer.add_string b (if i = List.length t.rows - 1 then "    }\n" else "    },\n"))
    t.rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
