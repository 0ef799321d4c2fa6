(* Benchmark harness entry point.

   With no arguments, regenerates every table and figure of the paper's
   evaluation on the simulator and then runs the native Bechamel
   micro-benchmarks.  With arguments, runs only the named experiments:

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig3 fig6b # a selection
     dune exec bench/main.exe list       # show available ids *)

let registry = Figures.all @ [ ("native", Natives.run) ]

(* Every experiment reports its own wall time, so a slow regeneration
   can be blamed on a specific figure rather than the whole run. *)
let timed id f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[%s: %.1f s]\n%!" id (Unix.gettimeofday () -. t0)

let list_ids () =
  print_endline "available experiments:";
  List.iter (fun (id, _) -> Printf.printf "  %s\n" id) registry

let () =
  match Array.to_list Sys.argv with
  | [] | _ :: [] ->
    Printf.printf
      "Regenerating every table and figure (see EXPERIMENTS.md for analysis)...\n%!";
    List.iter (fun (id, f) -> timed id f) registry
  | _ :: [ "list" ] -> list_ids ()
  | _ :: ids ->
    (* Validate the whole selection before running anything: a typo at
       the end of the list must not leave earlier experiments already
       run with partial output emitted. *)
    let unknown = List.filter (fun id -> not (List.mem_assoc id registry)) ids in
    if unknown <> [] then begin
      List.iter (fun id -> Printf.eprintf "unknown experiment %S\n" id) unknown;
      list_ids ();
      exit 1
    end;
    List.iter (fun id -> timed id (List.assoc id registry)) ids
