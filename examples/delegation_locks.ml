(* Delegation locks on the simulator and natively: protect a sorted
   list with a ticket lock, DSM-Synch and FFWD, with and without Pilot
   (paper §5).

   Run with:  dune exec examples/delegation_locks.exe *)

module P = Armb_platform.Platform
module S = Armb_sync
module R = Armb_runtime

let simulated () =
  Printf.printf "--- simulated kunpeng916, 16 workers, sorted list of ~100 keys ---\n";
  List.iter
    (fun lock ->
      let spec =
        { (S.Ds_bench.default_spec P.kunpeng916 ~lock) with workers = 16; ops_per_worker = 60 }
      in
      let r = S.Ds_bench.run_sorted_list ~preload:100 spec in
      Printf.printf "%-10s %7.2f M ops/s\n" (S.Ds_bench.lock_name lock)
        (r.throughput /. 1e6))
    S.Ds_bench.paper_locks

let native () =
  Printf.printf "\n--- native domains (correctness demo on this host) ---\n";
  (* A DSM-Synch-protected sorted list shared by 3 domains. *)
  let d = R.Dsmsynch.create ~pilot:true () in
  let p = R.Delegated.With_dsmsynch d in
  let list = R.Delegated.Sorted_list_d.create () in
  let worker lo () =
    for k = lo to lo + 999 do
      ignore (R.Delegated.Sorted_list_d.insert list p k)
    done
  in
  let ds = [ Domain.spawn (worker 0); Domain.spawn (worker 1000) ] in
  worker 2000 ();
  List.iter Domain.join ds;
  Printf.printf "3 domains inserted 3000 keys; list length = %d; combines = %d\n"
    (R.Delegated.Sorted_list_d.length list p)
    (R.Dsmsynch.combines d);
  (* An FFWD server executing closures for two clients. *)
  let srv = R.Ffwd.create ~clients:2 () in
  let sum = ref 0 in
  let d1 =
    Domain.spawn (fun () ->
        for i = 1 to 1000 do
          ignore (R.Ffwd.request srv ~client:1 (fun () -> sum := !sum + i; !sum))
        done)
  in
  for i = 1 to 1000 do
    ignore (R.Ffwd.request srv ~client:0 (fun () -> sum := !sum + i; !sum))
  done;
  Domain.join d1;
  R.Ffwd.shutdown srv;
  Printf.printf "FFWD server summed both clients' work: %d (expected %d)\n" !sum
    (2 * 500500)

let () =
  simulated ();
  native ()
