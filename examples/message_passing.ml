(* Message passing three ways on the simulated ARM server: the classic
   ring with its two barriers, the same ring with the wrong barriers
   (to see the cost), and the Pilot ring that removes the fatal barrier
   (paper §4).

   Run with:  dune exec examples/message_passing.exe *)

module P = Armb_platform.Platform
module S = Armb_sync

let () =
  let cfg = P.kunpeng916 in
  let cores = (0, Armb_mem.Topology.num_cores cfg.topo / 2) in
  Printf.printf "Producer on node 0, consumer on node 1 of %s.\n\n" cfg.name;

  (* 1. The textbook ring: DMB ld guards buffer reuse, DMB st publishes. *)
  let best =
    S.Spsc_ring.verified_run
      { (S.Spsc_ring.default_spec cfg ~cores) with barriers = S.Spsc_ring.combo "DMB ld - DMB st" }
  in
  Printf.printf "ring, DMB ld / DMB st   : %6.1f M msgs/s\n" (best.throughput /. 1e6);

  (* 2. Overkill barriers: DMB full everywhere.  Same semantics, slower,
        because the publish barrier strictly follows the remote store. *)
  let heavy =
    S.Spsc_ring.verified_run
      { (S.Spsc_ring.default_spec cfg ~cores) with barriers = S.Spsc_ring.combo "DMB full - DMB full" }
  in
  Printf.printf "ring, DMB full twice    : %6.1f M msgs/s\n" (heavy.throughput /. 1e6);

  (* 3. Pilot: the flag rides on the data word (single-copy atomicity),
        so the fatal barrier and the producer counter line disappear. *)
  let pilot =
    S.Spsc_ring.verified_run { (S.Spsc_ring.default_spec cfg ~cores) with barriers = S.Spsc_ring.Pilot }
  in
  Printf.printf "Pilot ring              : %6.1f M msgs/s (%d collision fallbacks)\n"
    (pilot.throughput /. 1e6) pilot.fallbacks;

  (* Cache-line traffic tells the second half of the story. *)
  let show name (c : Armb_mem.Memsys.counters) =
    Printf.printf "%-24s cross-node transfers: %d\n" name c.cross_node_transfers
  in
  show "ring traffic" best.lines_touched;
  show "pilot traffic" pilot.lines_touched;

  (* Batched transfers: Pilot applied to every 64-bit slice. *)
  print_newline ();
  List.iter
    (fun words ->
      let spec = { (S.Spsc_ring.default_spec cfg ~cores) with messages = 2000 } in
      let p = (S.Spsc_ring.run_batched ~words { spec with barriers = S.Spsc_ring.Pilot }).throughput in
      let b = (S.Spsc_ring.run_batched ~words spec).throughput in
      Printf.printf "batched %dx8B: pilot/best ring = %.2fx\n" words (p /. b))
    [ 1; 2; 4; 8 ]
